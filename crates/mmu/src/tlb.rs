//! The translation lookaside buffer model.
//!
//! A true-LRU, set-associative (or fully-associative) cache of virtual
//! page translations. The paper's representative configuration is a
//! 128-entry fully-associative d-TLB; the sensitivity study also uses 64
//! and 256 entries and 2-/4-way organisations.

use serde::{Deserialize, Serialize};
use tlbsim_core::{Asid, Associativity, InvalidGeometry, PhysPage, VirtPage};

use crate::cache::AssocCache;

/// Geometry of a TLB.
///
/// # Examples
///
/// ```
/// use tlbsim_mmu::TlbConfig;
///
/// let cfg = TlbConfig::paper_default();
/// assert_eq!(cfg.entries, 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Total translation entries.
    pub entries: usize,
    /// Organisation of those entries.
    pub assoc: Associativity,
}

impl TlbConfig {
    /// The paper's representative 128-entry fully-associative d-TLB.
    pub fn paper_default() -> Self {
        TlbConfig {
            entries: 128,
            assoc: Associativity::Full,
        }
    }

    /// A fully-associative TLB of `entries` entries.
    pub fn fully_associative(entries: usize) -> Self {
        TlbConfig {
            entries,
            assoc: Associativity::Full,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::paper_default()
    }
}

/// The result of a TLB fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbFill {
    /// The translation displaced by the fill, if the set was full. This
    /// is what recency prefetching pushes onto its LRU stack. Victims
    /// belonging to *another* context are reported as `None`: the
    /// mechanism tracking this context must not learn foreign pages.
    pub evicted: Option<VirtPage>,
}

/// A data TLB.
///
/// # Examples
///
/// ```
/// use tlbsim_core::PhysPage;
/// use tlbsim_mmu::{Tlb, TlbConfig};
/// use tlbsim_core::VirtPage;
///
/// let mut tlb = Tlb::new(TlbConfig::fully_associative(2))?;
/// tlb.fill(VirtPage::new(1), PhysPage::new(100));
/// assert!(tlb.lookup(VirtPage::new(1)).is_some());
/// assert!(tlb.lookup(VirtPage::new(9)).is_none());
/// # Ok::<(), tlbsim_core::InvalidGeometry>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cache: AssocCache<PhysPage>,
    config: TlbConfig,
    lookups: u64,
    hits: u64,
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if the entry count and associativity
    /// are inconsistent.
    pub fn new(config: TlbConfig) -> Result<Self, InvalidGeometry> {
        Ok(Tlb {
            cache: AssocCache::new(config.entries, config.assoc)?,
            config,
            lookups: 0,
            hits: 0,
        })
    }

    /// Looks up a translation, updating LRU state and hit counters.
    pub fn lookup(&mut self, page: VirtPage) -> Option<PhysPage> {
        self.lookups += 1;
        match self.cache.touch(page) {
            Some(frame) => {
                self.hits += 1;
                Some(*frame)
            }
            None => None,
        }
    }

    /// Returns `true` if `page` is resident without touching LRU state or
    /// counters (used when filtering prefetch candidates).
    pub fn contains(&self, page: VirtPage) -> bool {
        self.cache.contains(page)
    }

    /// Installs a translation as most recently used.
    pub fn fill(&mut self, page: VirtPage, frame: PhysPage) -> TlbFill {
        // Overwriting an already-resident page is not an eviction, and a
        // cross-context victim is invisible to this context's mechanism.
        let evicted = self
            .cache
            .insert(page, frame)
            .filter(|e| e.same_asid && e.page != page)
            .map(|e| e.page);
        TlbFill { evicted }
    }

    /// Invalidates all entries (flushing context switch), keeping
    /// counters.
    pub fn flush(&mut self) {
        self.cache.flush();
    }

    /// Switches the current context tag (flush-free context switch).
    pub fn set_asid(&mut self, asid: Asid) {
        self.cache.set_asid(asid);
    }

    /// The current context tag.
    pub fn asid(&self) -> Asid {
        self.cache.asid()
    }

    /// Invalidates every translation tagged with `asid`, keeping
    /// counters and other contexts' entries.
    pub fn evict_asid(&mut self, asid: Asid) {
        self.cache.evict_asid(asid);
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Returns `true` if the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Configured geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Lookups performed since creation.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since creation.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Miss rate in `[0, 1]`; zero before any lookup.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses() as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize) -> Tlb {
        Tlb::new(TlbConfig::fully_associative(entries)).unwrap()
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut t = tlb(2);
        assert!(t.lookup(VirtPage::new(1)).is_none());
        t.fill(VirtPage::new(1), PhysPage::new(10));
        assert_eq!(t.lookup(VirtPage::new(1)), Some(PhysPage::new(10)));
        assert_eq!(t.lookups(), 2);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
        assert!((t.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fill_reports_lru_eviction() {
        let mut t = tlb(2);
        t.fill(VirtPage::new(1), PhysPage::new(1));
        t.fill(VirtPage::new(2), PhysPage::new(2));
        t.lookup(VirtPage::new(1)); // 2 becomes LRU
        let fill = t.fill(VirtPage::new(3), PhysPage::new(3));
        assert_eq!(fill.evicted, Some(VirtPage::new(2)));
    }

    #[test]
    fn refill_of_resident_page_is_not_an_eviction() {
        let mut t = tlb(2);
        t.fill(VirtPage::new(1), PhysPage::new(1));
        let fill = t.fill(VirtPage::new(1), PhysPage::new(99));
        assert_eq!(fill.evicted, None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn contains_does_not_count_as_lookup() {
        let mut t = tlb(2);
        t.fill(VirtPage::new(1), PhysPage::new(1));
        assert!(t.contains(VirtPage::new(1)));
        assert_eq!(t.lookups(), 0);
    }

    #[test]
    fn flush_invalidates_but_keeps_counters() {
        let mut t = tlb(2);
        t.fill(VirtPage::new(1), PhysPage::new(1));
        t.lookup(VirtPage::new(1));
        t.flush();
        assert!(t.is_empty());
        assert_eq!(t.hits(), 1);
        assert!(t.lookup(VirtPage::new(1)).is_none());
    }

    #[test]
    fn set_associative_tlb_respects_sets() {
        let cfg = TlbConfig {
            entries: 4,
            assoc: Associativity::ways_of(2),
        };
        let mut t = Tlb::new(cfg).unwrap();
        // Fill set 0 (even pages).
        t.fill(VirtPage::new(0), PhysPage::new(0));
        t.fill(VirtPage::new(2), PhysPage::new(2));
        let fill = t.fill(VirtPage::new(4), PhysPage::new(4));
        assert_eq!(fill.evicted, Some(VirtPage::new(0)));
        // Odd set untouched.
        t.fill(VirtPage::new(1), PhysPage::new(1));
        assert!(t.contains(VirtPage::new(1)));
    }

    #[test]
    fn paper_default_shape() {
        let t = Tlb::new(TlbConfig::paper_default()).unwrap();
        assert_eq!(t.config().entries, 128);
        assert_eq!(t.config().assoc, Associativity::Full);
    }

    #[test]
    fn asid_switch_hides_translations_without_flushing() {
        let mut t = tlb(4);
        t.fill(VirtPage::new(1), PhysPage::new(10));
        t.set_asid(Asid::new(1));
        // The other context's translation is invisible...
        assert!(t.lookup(VirtPage::new(1)).is_none());
        t.fill(VirtPage::new(1), PhysPage::new(20));
        assert_eq!(t.lookup(VirtPage::new(1)), Some(PhysPage::new(20)));
        // ...and comes straight back on switch-back: no flush happened.
        t.set_asid(Asid::DEFAULT);
        assert_eq!(t.lookup(VirtPage::new(1)), Some(PhysPage::new(10)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cross_context_victim_is_not_reported() {
        let mut t = tlb(2);
        t.fill(VirtPage::new(1), PhysPage::new(1));
        t.fill(VirtPage::new(2), PhysPage::new(2));
        t.set_asid(Asid::new(1));
        // The fill steals context 0's LRU way, but this context's
        // mechanism must not see a page it never referenced.
        let fill = t.fill(VirtPage::new(9), PhysPage::new(9));
        assert_eq!(fill.evicted, None);
        // A same-context victim is still reported.
        t.fill(VirtPage::new(10), PhysPage::new(10));
        let fill = t.fill(VirtPage::new(11), PhysPage::new(11));
        assert_eq!(fill.evicted, Some(VirtPage::new(9)));
    }

    #[test]
    fn evict_asid_equals_flush_when_one_context_is_live() {
        let mut t = tlb(4);
        t.fill(VirtPage::new(1), PhysPage::new(1));
        t.fill(VirtPage::new(2), PhysPage::new(2));
        t.lookup(VirtPage::new(1));
        t.evict_asid(Asid::DEFAULT);
        assert!(t.is_empty());
        assert_eq!(t.hits(), 1, "counters survive like flush()");
    }

    #[test]
    fn working_set_equal_to_capacity_never_misses_after_warmup() {
        let mut t = tlb(8);
        for lap in 0..10 {
            for p in 0..8u64 {
                if t.lookup(VirtPage::new(p)).is_none() {
                    assert_eq!(lap, 0, "miss after warm-up lap");
                    t.fill(VirtPage::new(p), PhysPage::new(p));
                }
            }
        }
        assert_eq!(t.misses(), 8);
    }
}
