//! A generic set-associative, true-LRU cache of virtual-page keyed
//! entries.
//!
//! The TLB and the data cache are both instances of this structure;
//! sharing it keeps their replacement semantics identical, which the
//! paper assumes implicitly by giving a single LRU description for
//! both. The prefetch buffer keeps the same true-LRU semantics in its
//! own small array ([`PrefetchBuffer`](crate::PrefetchBuffer)), pinned
//! to this structure by a property test. [`AssocCache`] is a thin
//! page-keyed view of `tlbsim_core::TaggedLru`: a hash index on
//! `(asid, page)` plus an intrusive recency list per set, so a probe of
//! the 128-way TLB costs about what a probe of a direct-mapped one does.

use tlbsim_core::{Asid, Associativity, InvalidGeometry, TaggedLru, VirtPage};

/// What [`AssocCache::insert`] displaced.
///
/// `same_asid` distinguishes a victim belonging to the inserting context
/// from one stolen across contexts: a mechanism that tracks evicted TLB
/// entries (recency prefetching) must only see its own context's
/// victims, while capacity accounting wants both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<V> {
    /// The displaced entry's page.
    pub page: VirtPage,
    /// The displaced entry's value.
    pub value: V,
    /// `true` if the victim was tagged with the inserting context's ASID.
    pub same_asid: bool,
}

/// A fixed-capacity set-associative cache mapping [`VirtPage`] to `V`
/// with true-LRU replacement per set.
///
/// Every entry carries the [`Asid`] that was current when it was
/// installed; lookups match on `(asid, page)` against the cache's
/// current-context register ([`set_asid`](AssocCache::set_asid)), so two
/// contexts can hold the same virtual page side by side. The set index
/// stays a pure function of the page — like hardware ASID-tagged TLBs,
/// the context lives in the tag, not the index — which is what makes a
/// fully evicted context indistinguishable from a flushed cache.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{Associativity, VirtPage};
/// use tlbsim_mmu::AssocCache;
///
/// let mut cache: AssocCache<u32> = AssocCache::new(2, Associativity::Full)?;
/// cache.insert(VirtPage::new(1), 10);
/// cache.insert(VirtPage::new(2), 20);
/// cache.touch(VirtPage::new(1));
/// // 2 is now least recently used and gets evicted.
/// let evicted = cache.insert(VirtPage::new(3), 30);
/// assert_eq!(evicted.map(|e| e.page), Some(VirtPage::new(2)));
/// # Ok::<(), tlbsim_core::InvalidGeometry>(())
/// ```
#[derive(Debug, Clone)]
pub struct AssocCache<V> {
    map: TaggedLru<VirtPage, V>,
}

impl<V> AssocCache<V> {
    /// Creates a cache of `capacity` entries organised by `assoc`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if `capacity` is zero or not divisible
    /// by the way count implied by `assoc`.
    pub fn new(capacity: usize, assoc: Associativity) -> Result<Self, InvalidGeometry> {
        Ok(AssocCache {
            map: TaggedLru::new(capacity, assoc)?,
        })
    }

    /// Switches the current context: subsequent lookups and installs are
    /// tagged with `asid`. A pure register write — no entry is touched.
    pub fn set_asid(&mut self, asid: Asid) {
        self.map.set_asid(asid);
    }

    /// The current context tag.
    pub fn asid(&self) -> Asid {
        self.map.asid()
    }

    /// Invalidates every entry tagged with `asid`, leaving other
    /// contexts' entries (and their LRU order) untouched.
    pub fn evict_asid(&mut self, asid: Asid) {
        self.map.evict_asid(asid);
    }

    /// Looks up `page` in the current context, marking it most recently
    /// used on a hit.
    pub fn touch(&mut self, page: VirtPage) -> Option<&mut V> {
        self.map.touch(page)
    }

    /// Looks up `page` in the current context without changing recency.
    pub fn peek(&self, page: VirtPage) -> Option<&V> {
        self.map.peek(page)
    }

    /// Returns `true` if `page` is resident (no recency update).
    pub fn contains(&self, page: VirtPage) -> bool {
        self.map.contains(page)
    }

    /// Inserts `page -> value` under the current context as most
    /// recently used.
    ///
    /// Returns the [`Evicted`] entry if the set was full (LRU across all
    /// contexts in the set), or the previous value under the same
    /// `(asid, page)` if it was already resident.
    pub fn insert(&mut self, page: VirtPage, value: V) -> Option<Evicted<V>> {
        self.map.insert(page, value).map(|d| Evicted {
            page: d.key,
            value: d.value,
            same_asid: d.same_asid,
        })
    }

    /// Removes `page` from the current context, returning its value.
    pub fn remove(&mut self, page: VirtPage) -> Option<V> {
        self.map.remove(page)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// Configured associativity.
    pub fn associativity(&self) -> Associativity {
        self.map.associativity()
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.map.flush();
    }

    /// Iterates over resident `(page, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, &V)> {
        self.map.iter().map(|(page, value)| (*page, value))
    }

    /// The least recently used page of the set `page` maps to (what an
    /// insert of `page` would evict if the set is full and `page` absent).
    pub fn victim_for(&self, page: VirtPage) -> Option<VirtPage> {
        self.map.victim_for(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(cap: usize) -> AssocCache<u64> {
        AssocCache::new(cap, Associativity::Full).unwrap()
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(AssocCache::<()>::new(0, Associativity::Direct).is_err());
        assert!(AssocCache::<()>::new(6, Associativity::ways_of(4)).is_err());
    }

    #[test]
    fn lru_eviction_order_is_exact() {
        let mut c = full(3);
        for p in [1u64, 2, 3] {
            c.insert(VirtPage::new(p), p);
        }
        c.touch(VirtPage::new(1));
        c.touch(VirtPage::new(2));
        // LRU order now: 3, 1, 2.
        assert_eq!(c.victim_for(VirtPage::new(9)), Some(VirtPage::new(3)));
        let ev = c.insert(VirtPage::new(4), 4);
        assert_eq!(
            ev,
            Some(Evicted {
                page: VirtPage::new(3),
                value: 3,
                same_asid: true
            })
        );
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = full(2);
        c.insert(VirtPage::new(1), 10);
        let old = c.insert(VirtPage::new(1), 20);
        assert_eq!(
            old,
            Some(Evicted {
                page: VirtPage::new(1),
                value: 10,
                same_asid: true
            })
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(VirtPage::new(1)), Some(&20));
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = full(2);
        c.insert(VirtPage::new(1), 1);
        c.insert(VirtPage::new(2), 2);
        let _ = c.peek(VirtPage::new(1));
        // 1 is still LRU despite the peek.
        let ev = c.insert(VirtPage::new(3), 3);
        assert_eq!(ev.map(|e| (e.page, e.value)), Some((VirtPage::new(1), 1)));
    }

    #[test]
    fn remove_frees_a_way() {
        let mut c = full(2);
        c.insert(VirtPage::new(1), 1);
        c.insert(VirtPage::new(2), 2);
        assert_eq!(c.remove(VirtPage::new(1)), Some(1));
        assert_eq!(c.len(), 1);
        assert!(c.insert(VirtPage::new(3), 3).is_none());
    }

    #[test]
    fn set_associative_sets_are_independent() {
        // 4 entries, 2-way: 2 sets. Evens in set 0, odds in set 1.
        let mut c: AssocCache<u64> = AssocCache::new(4, Associativity::ways_of(2)).unwrap();
        c.insert(VirtPage::new(0), 0);
        c.insert(VirtPage::new(2), 2);
        c.insert(VirtPage::new(4), 4); // evicts 0, not the odd set
        c.insert(VirtPage::new(1), 1);
        assert!(!c.contains(VirtPage::new(0)));
        assert!(c.contains(VirtPage::new(1)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn direct_mapped_conflicts_are_immediate() {
        let mut c: AssocCache<u64> = AssocCache::new(4, Associativity::Direct).unwrap();
        c.insert(VirtPage::new(0), 0);
        let ev = c.insert(VirtPage::new(4), 4);
        assert_eq!(ev.map(|e| (e.page, e.value)), Some((VirtPage::new(0), 0)));
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = full(2);
        c.insert(VirtPage::new(1), 1);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn len_bounded_under_stress() {
        let mut c: AssocCache<u64> = AssocCache::new(8, Associativity::ways_of(4)).unwrap();
        for i in 0..10_000u64 {
            c.insert(VirtPage::new(i * 7 % 333), i);
            assert!(c.len() <= 8);
        }
    }

    #[test]
    fn contexts_are_isolated_but_share_capacity() {
        let mut c = full(3);
        c.insert(VirtPage::new(1), 10);
        c.set_asid(Asid::new(1));
        // Same page, different context: a distinct entry, not a replace.
        c.insert(VirtPage::new(1), 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(VirtPage::new(1)), Some(&11));
        assert!(c.touch(VirtPage::new(1)).is_some());
        c.set_asid(Asid::DEFAULT);
        assert_eq!(c.peek(VirtPage::new(1)), Some(&10));
        // Capacity is shared: filling from context 0 can steal context
        // 1's way, and the eviction is flagged cross-context.
        c.insert(VirtPage::new(2), 20);
        c.insert(VirtPage::new(3), 30);
        let ev = c.insert(VirtPage::new(4), 40).unwrap();
        assert!(!ev.same_asid);
        assert_eq!(ev.page, VirtPage::new(1));
        assert_eq!(ev.value, 11);
    }

    #[test]
    fn evict_asid_is_a_targeted_flush() {
        let mut c = full(4);
        c.insert(VirtPage::new(1), 1);
        c.set_asid(Asid::new(2));
        c.insert(VirtPage::new(1), 2);
        c.insert(VirtPage::new(9), 9);
        c.evict_asid(Asid::new(2));
        assert!(!c.contains(VirtPage::new(1)));
        assert!(!c.contains(VirtPage::new(9)));
        c.set_asid(Asid::DEFAULT);
        assert_eq!(c.peek(VirtPage::new(1)), Some(&1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_is_scoped_to_the_current_context() {
        let mut c = full(2);
        c.insert(VirtPage::new(5), 50);
        c.set_asid(Asid::new(1));
        assert_eq!(c.remove(VirtPage::new(5)), None);
        c.set_asid(Asid::DEFAULT);
        assert_eq!(c.remove(VirtPage::new(5)), Some(50));
    }

    #[test]
    fn iter_covers_all_residents() {
        let mut c = full(4);
        for p in [5u64, 6, 7] {
            c.insert(VirtPage::new(p), p);
        }
        let mut pages: Vec<u64> = c.iter().map(|(p, _)| p.number()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![5, 6, 7]);
    }
}
