//! Recency-based prefetching (RP), §2.4 of the paper.
//!
//! RP (Saulsbury, Dahlgren & Stenstrom) is the only prior mechanism
//! proposed specifically for TLBs. It threads an LRU stack through the
//! page table: when the TLB evicts an entry, that entry is pushed on top
//! of the stack; when a page misses, the pages adjacent to it *in the
//! stack* — pages referenced at around the same time in the past — are
//! prefetched, and the missing page is unlinked (it is now TLB-resident).
//!
//! Because the prev/next pointers live in page-table entries in main
//! memory, every miss costs up to four extra memory operations of pointer
//! maintenance before the two prefetch fetches can even start — the
//! traffic that Table 3 shows erasing RP's accuracy advantage.

use std::collections::HashMap;

use crate::banked::Banked;
use crate::hash::BuildPageHasher;
use crate::prefetcher::{
    HardwareProfile, IndexSource, MissContext, RowBudget, StateLocation, TlbPrefetcher,
};
use crate::sink::CandidateBuf;
use crate::types::{Asid, VirtPage};

#[derive(Debug, Clone, Copy, Default)]
struct StackNode {
    /// Neighbour toward the top of the stack (more recently evicted).
    above: Option<VirtPage>,
    /// Neighbour toward the bottom of the stack (less recently evicted).
    below: Option<VirtPage>,
}

/// One context's LRU stack. RP's pointers live in page-table entries,
/// which are per address space — so the whole stack banks per ASID, not
/// per row.
#[derive(Debug, Clone, Default)]
struct RecencyStack {
    nodes: HashMap<VirtPage, StackNode, BuildPageHasher>,
    top: Option<VirtPage>,
}

impl RecencyStack {
    /// Empties the stack, keeping the map's allocation.
    fn clear(&mut self) {
        self.nodes.clear();
        self.top = None;
    }
}

/// The recency prefetcher.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{CandidateBuf, MissContext, Pc, RecencyPrefetcher, TlbPrefetcher, VirtPage};
///
/// let mut rp = RecencyPrefetcher::new();
/// let mut sink = CandidateBuf::new();
/// // Pages 1 and 2 get evicted from the TLB in that order, so when
/// // page 2 misses again its stack neighbour page 1 is prefetched.
/// for (page, evicted) in [(50u64, 1u64), (51, 2), (2, 3)] {
///     sink.clear();
///     let ctx = MissContext {
///         page: VirtPage::new(page),
///         pc: Pc::new(0),
///         prefetch_buffer_hit: false,
///         evicted_tlb_entry: Some(VirtPage::new(evicted)),
///     };
///     rp.on_miss(&ctx, &mut sink);
/// }
/// assert!(sink.pages().contains(&VirtPage::new(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecencyPrefetcher {
    stack: Banked<RecencyStack>,
}

impl RecencyPrefetcher {
    /// Creates a recency prefetcher with an empty stack.
    pub fn new() -> Self {
        RecencyPrefetcher::default()
    }

    /// Number of pages currently on the LRU stack (equals the extra
    /// page-table footprint RP is paying for).
    pub fn stack_len(&self) -> usize {
        self.stack.nodes.len()
    }

    /// Allocating snapshot of the stack from top (most recently evicted)
    /// to bottom — debug/test introspection, never called on the miss
    /// path.
    pub fn stack_snapshot(&self) -> Vec<VirtPage> {
        let mut out = Vec::with_capacity(self.stack.nodes.len());
        let mut cur = self.stack.top;
        while let Some(page) = cur {
            out.push(page);
            cur = self.stack.nodes.get(&page).and_then(|n| n.below);
        }
        out
    }

    /// Unlinks `page` from the stack, returning its node (its stack
    /// neighbours before the unlink) and the number of pointer writes
    /// performed.
    fn unlink(&mut self, page: VirtPage) -> (Option<StackNode>, u32) {
        let Some(node) = self.stack.nodes.remove(&page) else {
            return (None, 0);
        };
        let mut writes = 0;
        if let Some(above) = node.above {
            if let Some(n) = self.stack.nodes.get_mut(&above) {
                n.below = node.below;
                writes += 1;
            }
        } else {
            // Page was the top.
            self.stack.top = node.below;
        }
        if let Some(below) = node.below {
            if let Some(n) = self.stack.nodes.get_mut(&below) {
                n.above = node.above;
                writes += 1;
            }
        }
        (Some(node), writes)
    }

    /// Pushes `page` on top of the stack, returning pointer writes.
    fn push_top(&mut self, page: VirtPage) -> u32 {
        let mut writes = 1; // writing the new node's pointers
        let old_top = self.stack.top;
        if let Some(top) = old_top {
            if let Some(n) = self.stack.nodes.get_mut(&top) {
                n.above = Some(page);
                writes += 1;
            }
        }
        self.stack.nodes.insert(
            page,
            StackNode {
                above: None,
                below: old_top,
            },
        );
        self.stack.top = Some(page);
        writes
    }
}

impl TlbPrefetcher for RecencyPrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        // The missing page returns to the TLB, so it leaves the stack;
        // its neighbours as it leaves are the pages evicted just before
        // and just after it was.
        let (node, mut ops) = self.unlink(ctx.page);
        if let Some(node) = node {
            if let Some(above) = node.above {
                sink.push(above);
            }
            if let Some(below) = node.below {
                sink.push(below);
            }
        }

        // The evicted translation becomes the most recently evicted.
        if let Some(evicted) = ctx.evicted_tlb_entry {
            // Defensive: a flushed-then-refilled TLB could evict a page
            // that still has a stale stack node.
            ops += self.unlink(evicted).1;
            ops += self.push_top(evicted);
        }

        sink.add_maintenance_ops(ops);
    }

    fn flush(&mut self) {
        self.stack.reset_all(RecencyStack::clear);
    }

    fn set_asid(&mut self, asid: Asid) {
        self.stack.switch(asid);
    }

    fn evict_asid(&mut self, asid: Asid) {
        self.stack.evict(asid, RecencyStack::clear);
    }

    fn profile(&self) -> HardwareProfile {
        HardwareProfile {
            name: "RP",
            rows: RowBudget::PageTableEntries,
            row_contents: "next, prev pointers",
            location: StateLocation::InMemory,
            index: IndexSource::PageNumber,
            memory_ops_per_miss: 4,
            max_prefetches: (1, 3),
        }
    }

    fn name(&self) -> &'static str {
        "RP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Pc;

    fn miss(p: &mut RecencyPrefetcher, page: u64, evicted: Option<u64>) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        let ctx = MissContext {
            page: VirtPage::new(page),
            pc: Pc::new(0),
            prefetch_buffer_hit: false,
            evicted_tlb_entry: evicted.map(VirtPage::new),
        };
        p.on_miss(&ctx, &mut sink);
        sink
    }

    #[test]
    fn cold_misses_prefetch_nothing() {
        let mut p = RecencyPrefetcher::new();
        let d = miss(&mut p, 1, None);
        assert!(d.pages().is_empty());
        assert_eq!(d.maintenance_ops(), 0);
    }

    #[test]
    fn evictions_build_the_stack_top_down() {
        let mut p = RecencyPrefetcher::new();
        miss(&mut p, 100, Some(1));
        miss(&mut p, 101, Some(2));
        miss(&mut p, 102, Some(3));
        assert_eq!(
            p.stack_snapshot(),
            vec![VirtPage::new(3), VirtPage::new(2), VirtPage::new(1)]
        );
    }

    #[test]
    fn middle_element_prefetches_both_neighbours() {
        let mut p = RecencyPrefetcher::new();
        for e in 1..=3u64 {
            miss(&mut p, 100 + e, Some(e));
        }
        // Stack (top->bottom): 3, 2, 1. Missing page 2 prefetches 3 and
        // 1, the above-neighbour first.
        let d = miss(&mut p, 2, Some(4));
        assert_eq!(d.pages(), vec![VirtPage::new(3), VirtPage::new(1)]);
        // Page 2 left the stack; 4 joined on top.
        assert_eq!(
            p.stack_snapshot(),
            vec![VirtPage::new(4), VirtPage::new(3), VirtPage::new(1)]
        );
    }

    #[test]
    fn top_element_prefetches_one_neighbour() {
        let mut p = RecencyPrefetcher::new();
        miss(&mut p, 100, Some(1));
        miss(&mut p, 101, Some(2));
        // Stack: 2, 1. Missing page 2 (the top) has only a below-neighbour.
        let d = miss(&mut p, 2, None);
        assert_eq!(d.pages(), vec![VirtPage::new(1)]);
        assert_eq!(p.stack_snapshot(), vec![VirtPage::new(1)]);
    }

    #[test]
    fn maintenance_ops_peak_at_four() {
        let mut p = RecencyPrefetcher::new();
        for e in 1..=5u64 {
            miss(&mut p, 100 + e, Some(e));
        }
        // Unlink from the middle (2 writes) + push eviction (2 writes).
        let d = miss(&mut p, 3, Some(6));
        assert_eq!(d.maintenance_ops(), 4);
    }

    #[test]
    fn recency_neighbourhood_follows_eviction_order_not_address_order() {
        let mut p = RecencyPrefetcher::new();
        // Evict pages in scrambled address order.
        miss(&mut p, 200, Some(50));
        miss(&mut p, 201, Some(7));
        miss(&mut p, 202, Some(9000));
        // Stack: 9000, 7, 50. Page 7's neighbours are 9000 and 50 —
        // nothing to do with addresses 6 or 8.
        let d = miss(&mut p, 7, None);
        assert!(d.pages().contains(&VirtPage::new(9000)));
        assert!(d.pages().contains(&VirtPage::new(50)));
    }

    #[test]
    fn re_evicted_page_moves_to_top() {
        let mut p = RecencyPrefetcher::new();
        miss(&mut p, 100, Some(1));
        miss(&mut p, 101, Some(2));
        // Page 1 is evicted again without having missed (defensive path).
        miss(&mut p, 102, Some(1));
        assert_eq!(p.stack_snapshot(), vec![VirtPage::new(1), VirtPage::new(2)]);
    }

    #[test]
    fn flush_empties_the_stack() {
        let mut p = RecencyPrefetcher::new();
        miss(&mut p, 100, Some(1));
        p.flush();
        assert_eq!(p.stack_len(), 0);
        assert!(p.stack_snapshot().is_empty());
    }

    #[test]
    fn stacks_are_banked_per_context() {
        let mut p = RecencyPrefetcher::new();
        miss(&mut p, 100, Some(1));
        miss(&mut p, 101, Some(2));
        p.set_asid(Asid::new(1));
        // The new context starts with an empty stack.
        assert_eq!(p.stack_len(), 0);
        miss(&mut p, 200, Some(70));
        miss(&mut p, 201, Some(71));
        assert_eq!(
            p.stack_snapshot(),
            vec![VirtPage::new(71), VirtPage::new(70)]
        );
        // Switching back restores context 0's stack untouched.
        p.set_asid(Asid::DEFAULT);
        assert_eq!(p.stack_snapshot(), vec![VirtPage::new(2), VirtPage::new(1)]);
        let d = miss(&mut p, 2, None);
        assert_eq!(d.pages(), vec![VirtPage::new(1)]);
    }

    #[test]
    fn evict_asid_drops_one_stack() {
        let mut p = RecencyPrefetcher::new();
        miss(&mut p, 100, Some(1));
        p.set_asid(Asid::new(1));
        miss(&mut p, 200, Some(70));
        p.evict_asid(Asid::DEFAULT);
        p.evict_asid(Asid::new(1)); // current context
        assert_eq!(p.stack_len(), 0);
        p.set_asid(Asid::DEFAULT);
        assert_eq!(p.stack_len(), 0);
    }

    #[test]
    fn profile_matches_table1() {
        let p = RecencyPrefetcher::new();
        let prof = p.profile();
        assert_eq!(prof.rows, RowBudget::PageTableEntries);
        assert_eq!(prof.location, StateLocation::InMemory);
        assert_eq!(prof.memory_ops_per_miss, 4);
    }

    #[test]
    fn stack_reflects_working_set_churn() {
        // A page that re-misses leaves the stack, keeping it bounded by
        // the set of TLB-evicted-but-unreferenced pages.
        let mut p = RecencyPrefetcher::new();
        miss(&mut p, 100, Some(1));
        miss(&mut p, 1, Some(100));
        assert_eq!(p.stack_snapshot(), vec![VirtPage::new(100)]);
        assert_eq!(p.stack_len(), 1);
    }
}
