//! A demand-allocating page table.
//!
//! The simulator never sees real physical memory, so the page table
//! simply hands out physical frames on first touch and remembers the
//! mapping; the engines count the walks a miss handler would perform.
//! Recency prefetching conceptually stores its LRU-stack pointers in
//! these entries (the paper's Figure 5); the pointer state itself lives
//! inside `tlbsim_core::RecencyPrefetcher`, and this table accounts for
//! the capacity those two extra words would occupy via
//! [`PageTable::rp_overhead_bytes`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tlbsim_core::{BuildPageHasher, PhysPage, VirtPage};

/// A virtual-to-physical mapping built on demand.
///
/// # Examples
///
/// ```
/// use tlbsim_core::VirtPage;
/// use tlbsim_mmu::PageTable;
///
/// let mut pt = PageTable::new();
/// let f1 = pt.translate(VirtPage::new(42));
/// let f2 = pt.translate(VirtPage::new(42));
/// assert_eq!(f1, f2); // stable mapping
/// assert_eq!(pt.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    map: HashMap<VirtPage, PhysPage, BuildPageHasher>,
    next_frame: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Translates `page`, allocating a fresh frame on first touch.
    pub fn translate(&mut self, page: VirtPage) -> PhysPage {
        self.walk(page).0
    }

    /// Translates `page` with one probe, allocating a fresh frame on
    /// first touch, and reports whether this walk mapped it. Frames are
    /// handed out densely, in first-touch order.
    #[inline]
    pub fn walk(&mut self, page: VirtPage) -> (PhysPage, bool) {
        match self.map.entry(page) {
            Entry::Occupied(mapped) => (*mapped.get(), false),
            Entry::Vacant(vacant) => {
                let frame = PhysPage::new(self.next_frame);
                self.next_frame += 1;
                vacant.insert(frame);
                (frame, true)
            }
        }
    }

    /// Looks up an existing mapping without allocating.
    pub fn peek(&self, page: VirtPage) -> Option<PhysPage> {
        self.map.get(&page).copied()
    }

    /// Number of mapped pages (the process footprint in pages).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no page has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Extra page-table bytes recency prefetching would add: two
    /// pointers (8 bytes each) per PTE — the storage-cost asymmetry the
    /// paper's Table 1 calls out.
    pub fn rp_overhead_bytes(&self) -> u64 {
        self.map.len() as u64 * 16
    }

    /// Maps every page `other` maps, so [`len`](PageTable::len) becomes
    /// the size of the union: the sharded runner's footprint across
    /// shards (pages touched by several shards count once). The larger
    /// table absorbs the smaller; frame numbers are not preserved.
    pub fn absorb(&mut self, mut other: PageTable) {
        if other.len() > self.len() {
            std::mem::swap(self, &mut other);
        }
        for page in other.map.into_keys() {
            self.translate(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_unique_per_page() {
        let mut pt = PageTable::new();
        let a = pt.translate(VirtPage::new(1));
        let b = pt.translate(VirtPage::new(2));
        assert_ne!(a, b);
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new();
        let first = pt.translate(VirtPage::new(7));
        for _ in 0..5 {
            assert_eq!(pt.translate(VirtPage::new(7)), first);
        }
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn walk_reports_first_touch_and_numbers_densely() {
        let mut pt = PageTable::new();
        assert_eq!(pt.walk(VirtPage::new(9)), (PhysPage::new(0), true));
        assert_eq!(pt.walk(VirtPage::new(4)), (PhysPage::new(1), true));
        assert_eq!(pt.walk(VirtPage::new(9)), (PhysPage::new(0), false));
        assert_eq!(pt.translate(VirtPage::new(4)), PhysPage::new(1));
    }

    #[test]
    fn peek_never_allocates() {
        let mut pt = PageTable::new();
        assert_eq!(pt.peek(VirtPage::new(3)), None);
        assert!(pt.is_empty());
        pt.translate(VirtPage::new(3));
        assert!(pt.peek(VirtPage::new(3)).is_some());
    }

    #[test]
    fn rp_overhead_scales_with_footprint() {
        let mut pt = PageTable::new();
        for p in 0..100u64 {
            pt.translate(VirtPage::new(p));
        }
        assert_eq!(pt.rp_overhead_bytes(), 1600);
    }

    #[test]
    fn absorb_maps_the_union_whichever_side_is_larger() {
        let table = |pages: std::ops::Range<u64>| {
            let mut pt = PageTable::new();
            for p in pages {
                pt.translate(VirtPage::new(p));
            }
            pt
        };
        for (a, b) in [(0..10, 5..40), (5..40, 0..10), (0..3, 10..13), (0..0, 0..4)] {
            let mut union = table(a.clone());
            union.absorb(table(b.clone()));
            let expected = a.chain(b).collect::<std::collections::BTreeSet<_>>();
            assert_eq!(union.len(), expected.len());
            for p in expected {
                assert!(union.peek(VirtPage::new(p)).is_some(), "page {p} lost");
            }
        }
    }
}
