//! The reusable, fixed-capacity prefetch-candidate sink.
//!
//! The paper's evaluation loop (§2, Figure 1) calls the prefetching
//! mechanism once per TLB miss, and the sweeps in `tlbsim-experiments`
//! replay that loop billions of times. Returning a `Vec<VirtPage>` from
//! every miss — the original API — put a heap allocation on the hottest
//! path of the whole simulator. [`CandidateBuf`] replaces it: an inline
//! array the engine allocates **once** and hands to
//! [`TlbPrefetcher::on_miss`](crate::TlbPrefetcher::on_miss) on every
//! miss, so the steady-state miss path performs no heap allocation at
//! all (a property the `zero_alloc` integration test in `tlbsim-sim`
//! enforces with a counting allocator).
//!
//! # Contract
//!
//! * The **caller** clears the sink before each `on_miss` call (engines
//!   keep one sink per engine; tests may use a fresh sink per miss).
//! * Mechanisms [`push`](CandidateBuf::push) candidates in **priority
//!   order** (MRU prediction first); engines issue them in push order.
//! * Capacity is [`CandidateBuf::CAPACITY`] — comfortably above the
//!   largest slot count the paper sweeps (`s = 6` in Figure 9). Pushes
//!   beyond capacity are dropped, counted in
//!   [`overflowed`](CandidateBuf::overflowed), and reported through
//!   `push`'s return value.

use crate::types::VirtPage;

/// A fixed-capacity, heap-free buffer of prefetch candidates plus the
/// maintenance-traffic count for one TLB miss.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{CandidateBuf, VirtPage};
///
/// let mut sink = CandidateBuf::new();
/// assert!(sink.push(VirtPage::new(7)));
/// assert!(sink.push(VirtPage::new(9)));
/// assert_eq!(sink.pages(), &[VirtPage::new(7), VirtPage::new(9)]);
/// sink.clear();
/// assert!(sink.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CandidateBuf {
    pages: [VirtPage; Self::CAPACITY],
    len: usize,
    maintenance_ops: u32,
    overflowed: u64,
}

/// Equality is over the *observable* per-miss state — the live
/// candidates and the maintenance count. The stale array tail beyond
/// `len` (clear() does not scrub it) and the cumulative overflow
/// diagnostic are excluded.
impl PartialEq for CandidateBuf {
    fn eq(&self, other: &Self) -> bool {
        self.pages() == other.pages() && self.maintenance_ops == other.maintenance_ops
    }
}

impl Eq for CandidateBuf {}

impl CandidateBuf {
    /// Maximum candidates one miss can produce. The deepest mechanism
    /// configuration the paper evaluates predicts `s = 6` pages per miss
    /// (Figure 9's slot sweep); recency prefetching peaks at 3.
    pub const CAPACITY: usize = 8;

    /// A row can never predict more pages than one miss can sink —
    /// config validation caps `s` at `SlotList::MAX_CAPACITY`, so this
    /// pin makes sink overflow unreachable for validated mechanisms.
    const _SLOT_BOUND: () = assert!(crate::SlotList::<u64>::MAX_CAPACITY <= Self::CAPACITY);

    /// Creates an empty sink.
    pub const fn new() -> Self {
        CandidateBuf {
            pages: [VirtPage::new(0); Self::CAPACITY],
            len: 0,
            maintenance_ops: 0,
            overflowed: 0,
        }
    }

    /// Empties the sink for the next miss. The overflow counter is
    /// cumulative and survives clearing (it tracks sink lifetime, not
    /// one miss).
    pub fn clear(&mut self) {
        self.len = 0;
        self.maintenance_ops = 0;
    }

    /// Appends a candidate in priority order. Returns `false` (and
    /// counts the drop) if the sink is full. The engine filters out pages
    /// already in the TLB or the prefetch buffer, so mechanisms need not
    /// deduplicate against those structures.
    pub fn push(&mut self, page: VirtPage) -> bool {
        if self.len == Self::CAPACITY {
            self.overflowed += 1;
            return false;
        }
        self.pages[self.len] = page;
        self.len += 1;
        true
    }

    /// Adds state-maintenance memory operations (RP's pointer updates),
    /// excluding the page-table reads that fetch the candidates themselves.
    pub fn add_maintenance_ops(&mut self, ops: u32) {
        self.maintenance_ops += ops;
    }

    /// The candidates pushed since the last [`clear`](Self::clear), in
    /// priority order.
    pub fn pages(&self) -> &[VirtPage] {
        &self.pages[..self.len]
    }

    /// Maintenance operations recorded since the last clear.
    pub fn maintenance_ops(&self) -> u32 {
        self.maintenance_ops
    }

    /// Candidates currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no candidate is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if nothing was recorded for this miss at all.
    pub fn is_none(&self) -> bool {
        self.len == 0 && self.maintenance_ops == 0
    }

    /// Total pushes dropped over this sink's lifetime because the sink
    /// was full. Unreachable for the built-in mechanisms (configuration
    /// validation caps `s` at the sink capacity); the engines
    /// `debug_assert` on it to catch future mechanisms that overflow.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Iterates candidates in priority order.
    pub fn iter(&self) -> std::slice::Iter<'_, VirtPage> {
        self.pages().iter()
    }
}

impl Default for CandidateBuf {
    fn default() -> Self {
        CandidateBuf::new()
    }
}

impl<'a> IntoIterator for &'a CandidateBuf {
    type Item = &'a VirtPage;
    type IntoIter = std::slice::Iter<'a, VirtPage>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let sink = CandidateBuf::new();
        assert!(sink.is_empty());
        assert!(sink.is_none());
        assert_eq!(sink.pages(), &[]);
        assert_eq!(sink.maintenance_ops(), 0);
        assert_eq!(sink.overflowed(), 0);
    }

    #[test]
    fn push_preserves_priority_order() {
        let mut sink = CandidateBuf::new();
        for n in [5u64, 3, 9] {
            assert!(sink.push(VirtPage::new(n)));
        }
        let got: Vec<u64> = sink.iter().map(|p| p.number()).collect();
        assert_eq!(got, vec![5, 3, 9]);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut sink = CandidateBuf::new();
        for n in 0..CandidateBuf::CAPACITY as u64 {
            assert!(sink.push(VirtPage::new(n)));
        }
        assert!(!sink.push(VirtPage::new(99)));
        assert!(!sink.push(VirtPage::new(100)));
        assert_eq!(sink.len(), CandidateBuf::CAPACITY);
        assert_eq!(sink.overflowed(), 2);
        // The first CAPACITY pushes survive, in order.
        assert_eq!(sink.pages()[0], VirtPage::new(0));
        assert_eq!(
            sink.pages()[CandidateBuf::CAPACITY - 1],
            VirtPage::new(CandidateBuf::CAPACITY as u64 - 1)
        );
    }

    #[test]
    fn clear_resets_contents_but_not_overflow() {
        let mut sink = CandidateBuf::new();
        for n in 0..=CandidateBuf::CAPACITY as u64 {
            sink.push(VirtPage::new(n));
        }
        sink.add_maintenance_ops(4);
        sink.clear();
        assert!(sink.is_none());
        assert_eq!(sink.maintenance_ops(), 0);
        assert_eq!(sink.overflowed(), 1, "overflow counter is cumulative");
    }

    #[test]
    fn maintenance_ops_accumulate_within_one_miss() {
        let mut sink = CandidateBuf::new();
        sink.add_maintenance_ops(2);
        sink.add_maintenance_ops(2);
        assert_eq!(sink.maintenance_ops(), 4);
        assert!(!sink.is_none());
        assert!(sink.is_empty());
    }
}
