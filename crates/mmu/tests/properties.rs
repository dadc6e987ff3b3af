//! Property tests: the associative structures agree with naive reference
//! models.

use proptest::prelude::*;
use tlbsim_core::{Asid, Associativity, PhysPage, VirtPage};
use tlbsim_mmu::{AssocCache, PageTable, PrefetchBuffer, Tlb, TlbConfig};

/// A naive fully-associative LRU model: a Vec ordered MRU-first.
#[derive(Default)]
struct NaiveLru {
    entries: Vec<u64>,
    capacity: usize,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        NaiveLru {
            entries: Vec::new(),
            capacity,
        }
    }

    fn lookup(&mut self, page: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|p| *p == page) {
            let p = self.entries.remove(pos);
            self.entries.insert(0, p);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, page: u64) -> Option<u64> {
        if let Some(pos) = self.entries.iter().position(|p| *p == page) {
            let p = self.entries.remove(pos);
            self.entries.insert(0, p);
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.entries.pop()
        } else {
            None
        };
        self.entries.insert(0, page);
        evicted
    }
}

/// The prefetch buffer as it was built on the TLB's [`AssocCache`]: a
/// fully-associative, ASID-tagged LRU keyed by page. The reference the
/// array-backed [`PrefetchBuffer`] must match call for call.
struct AssocBuffer {
    cache: AssocCache<PhysPage>,
    inserted: u64,
    promoted: u64,
    evicted_unused: u64,
}

impl AssocBuffer {
    fn new(entries: usize) -> Self {
        AssocBuffer {
            cache: AssocCache::new(entries, Associativity::Full).unwrap(),
            inserted: 0,
            promoted: 0,
            evicted_unused: 0,
        }
    }

    fn insert(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage> {
        self.inserted += 1;
        // Only a same-(asid, page) overwrite is not an eviction.
        let evicted = self
            .cache
            .insert(page, frame)
            .filter(|e| !(e.same_asid && e.page == page))
            .map(|e| e.page);
        if evicted.is_some() {
            self.evicted_unused += 1;
        }
        evicted
    }

    fn promote(&mut self, page: VirtPage) -> Option<PhysPage> {
        let frame = self.cache.remove(page)?;
        self.promoted += 1;
        Some(frame)
    }
}

/// One call on a prefetch buffer; frame-keyed calls take the page's
/// frame from the test's page table.
#[derive(Debug, Clone)]
enum BufferOp {
    Insert(u64),
    Promote(u64),
    Contains(u64),
    EntryInsert(u64),
    PromoteFrame(u64),
    ContainsFrame(u64),
    SetAsid(u16),
    EvictAsid(u16),
    Flush,
}

fn buffer_op() -> impl Strategy<Value = BufferOp> {
    let page = 0u64..48;
    let asid = 0u16..4;
    prop_oneof![
        page.clone().prop_map(BufferOp::Insert),
        page.clone().prop_map(BufferOp::Promote),
        page.clone().prop_map(BufferOp::Contains),
        page.clone().prop_map(BufferOp::EntryInsert),
        page.clone().prop_map(BufferOp::PromoteFrame),
        page.prop_map(BufferOp::ContainsFrame),
        asid.clone().prop_map(BufferOp::SetAsid),
        asid.prop_map(BufferOp::EvictAsid),
        Just(BufferOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The array-backed prefetch buffer matches the `AssocCache`-backed
    /// one it replaced: every return value, the length and every counter
    /// after every call, across contexts. With every frame from one page
    /// table, the frame-keyed probes answer what the page-keyed ones do.
    #[test]
    fn prefetch_buffer_matches_the_assoc_cache_buffer(
        capacity in 1usize..=64,
        ops in prop::collection::vec(buffer_op(), 1..400),
    ) {
        let mut pb = PrefetchBuffer::new(capacity).unwrap();
        let mut oracle = AssocBuffer::new(capacity);
        let mut table = PageTable::new();
        for op in ops {
            match op {
                BufferOp::Insert(page) => {
                    let (page, frame) = (VirtPage::new(page), table.translate(VirtPage::new(page)));
                    prop_assert_eq!(pb.insert(page, frame), oracle.insert(page, frame));
                }
                BufferOp::Promote(page) => {
                    let page = VirtPage::new(page);
                    prop_assert_eq!(pb.promote(page), oracle.promote(page));
                }
                BufferOp::Contains(page) => {
                    let page = VirtPage::new(page);
                    prop_assert_eq!(pb.contains(page), oracle.cache.contains(page));
                }
                BufferOp::EntryInsert(page) => {
                    let (page, frame) = (VirtPage::new(page), table.translate(VirtPage::new(page)));
                    let entry = pb.entry(frame);
                    prop_assert_eq!(entry.is_buffered(), oracle.cache.contains(page));
                    prop_assert_eq!(entry.insert(page), oracle.insert(page, frame));
                }
                BufferOp::PromoteFrame(page) => {
                    let (page, frame) = (VirtPage::new(page), table.translate(VirtPage::new(page)));
                    let promoted = oracle.promote(page);
                    prop_assert_eq!(pb.promote_frame(frame), promoted.is_some());
                    prop_assert!(promoted.is_none_or(|f| f == frame));
                }
                BufferOp::ContainsFrame(page) => {
                    let (page, frame) = (VirtPage::new(page), table.translate(VirtPage::new(page)));
                    prop_assert_eq!(pb.entry(frame).is_buffered(), oracle.cache.contains(page));
                }
                BufferOp::SetAsid(asid) => {
                    pb.set_asid(Asid::new(asid));
                    oracle.cache.set_asid(Asid::new(asid));
                }
                BufferOp::EvictAsid(asid) => {
                    pb.evict_asid(Asid::new(asid));
                    oracle.cache.evict_asid(Asid::new(asid));
                }
                BufferOp::Flush => {
                    pb.flush();
                    oracle.cache.flush();
                }
            }
            prop_assert_eq!(pb.len(), oracle.cache.len());
            prop_assert_eq!(pb.inserted(), oracle.inserted);
            prop_assert_eq!(pb.promoted(), oracle.promoted);
            prop_assert_eq!(pb.evicted_unused(), oracle.evicted_unused);
        }
    }
}

proptest! {
    /// The fully-associative TLB matches the naive LRU model exactly,
    /// including which page each fill evicts.
    #[test]
    fn tlb_matches_naive_lru(
        capacity in 1usize..32,
        pages in prop::collection::vec(0u64..64, 1..500),
    ) {
        let mut tlb = Tlb::new(TlbConfig::fully_associative(capacity)).unwrap();
        let mut model = NaiveLru::new(capacity);
        for page in pages {
            let vp = VirtPage::new(page);
            let hit = tlb.lookup(vp).is_some();
            prop_assert_eq!(hit, model.lookup(page));
            if !hit {
                let fill = tlb.fill(vp, PhysPage::new(page));
                let expected = model.fill(page);
                prop_assert_eq!(fill.evicted.map(VirtPage::number), expected);
            }
        }
    }

    /// A set-associative cache behaves like one independent naive LRU per
    /// set.
    #[test]
    fn set_assoc_cache_matches_per_set_models(
        ways in 1usize..5,
        sets_pow in 0u32..4,
        pages in prop::collection::vec(0u64..128, 1..400),
    ) {
        let sets = 1usize << sets_pow;
        let capacity = ways * sets;
        let assoc = if ways == 1 {
            Associativity::Direct
        } else if capacity == ways {
            Associativity::Full
        } else {
            Associativity::ways_of(ways)
        };
        let mut cache: AssocCache<u64> = AssocCache::new(capacity, assoc).unwrap();
        let real_sets = assoc.sets(capacity).unwrap();
        let mut models: Vec<NaiveLru> = (0..real_sets)
            .map(|_| NaiveLru::new(capacity / real_sets))
            .collect();
        for page in pages {
            let vp = VirtPage::new(page);
            let set = (page % real_sets as u64) as usize;
            let hit = cache.touch(vp).is_some();
            prop_assert_eq!(hit, models[set].lookup(page));
            if !hit {
                let evicted = cache.insert(vp, page).map(|e| e.page.number());
                prop_assert_eq!(evicted, models[set].fill(page));
            }
        }
    }

    /// The prefetch buffer conserves entries: inserted = promoted +
    /// evicted_unused + still-resident.
    #[test]
    fn prefetch_buffer_conserves_entries(
        capacity in 1usize..32,
        ops in prop::collection::vec((0u64..64, prop::bool::ANY), 1..400),
    ) {
        let mut pb = PrefetchBuffer::new(capacity).unwrap();
        let mut resident: std::collections::HashSet<u64> = Default::default();
        let mut dup_inserts = 0u64;
        for (page, promote) in ops {
            let vp = VirtPage::new(page);
            if promote {
                let was_resident = resident.remove(&page);
                prop_assert_eq!(pb.promote(vp).is_some(), was_resident);
            } else {
                if resident.contains(&page) {
                    dup_inserts += 1;
                }
                if let Some(ev) = pb.insert(vp, PhysPage::new(page)) {
                    resident.remove(&ev.number());
                }
                resident.insert(page);
            }
        }
        prop_assert_eq!(pb.len(), resident.len());
        prop_assert_eq!(
            pb.inserted(),
            pb.promoted() + pb.evicted_unused() + pb.len() as u64 + dup_inserts
        );
    }

    /// TLB miss counting is exact: misses equal the number of lookups
    /// that returned None.
    #[test]
    fn tlb_counters_are_exact(
        capacity in 1usize..16,
        pages in prop::collection::vec(0u64..32, 1..300),
    ) {
        let mut tlb = Tlb::new(TlbConfig::fully_associative(capacity)).unwrap();
        let mut misses = 0u64;
        for page in &pages {
            let vp = VirtPage::new(*page);
            if tlb.lookup(vp).is_none() {
                misses += 1;
                tlb.fill(vp, PhysPage::new(*page));
            }
        }
        prop_assert_eq!(tlb.misses(), misses);
        prop_assert_eq!(tlb.lookups(), pages.len() as u64);
    }
}
