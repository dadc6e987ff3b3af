//! Tagged sequential prefetching (SP), §2.1 of the paper.
//!
//! SP exploits pure spatial sequentiality: on a TLB miss it prefetches the
//! next virtual page's translation. The *tagged* variant (the one the
//! paper uses, following Vanderwiel & Lilja) additionally re-triggers on
//! the first hit to a previously prefetched entry — in this adaptation
//! both events are TLB misses (a prefetch-buffer hit is still a miss in
//! the TLB proper), so every [`MissContext`] triggers a prefetch of
//! `page + 1`.

use crate::prefetcher::{
    HardwareProfile, IndexSource, MissContext, RowBudget, StateLocation, TlbPrefetcher,
};
use crate::sink::CandidateBuf;

/// The tagged sequential prefetcher.
///
/// Stateless: the prediction is always the next sequential page. ASP
/// subsumes SP (§2.6), which is why the paper's figures omit SP; it is
/// implemented here both for completeness and as the simplest reference
/// mechanism for tests.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{CandidateBuf, MissContext, Pc, SequentialPrefetcher, TlbPrefetcher, VirtPage};
///
/// let mut sp = SequentialPrefetcher::new();
/// let mut sink = CandidateBuf::new();
/// sp.on_miss(&MissContext::demand(VirtPage::new(41), Pc::new(0)), &mut sink);
/// assert_eq!(sink.pages(), &[VirtPage::new(42)]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialPrefetcher {
    _private: (),
}

impl SequentialPrefetcher {
    /// Creates a tagged sequential prefetcher.
    pub fn new() -> Self {
        SequentialPrefetcher { _private: () }
    }
}

impl TlbPrefetcher for SequentialPrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        if let Some(next) = ctx.page.next() {
            sink.push(next);
        }
    }

    fn flush(&mut self) {}

    fn profile(&self) -> HardwareProfile {
        HardwareProfile {
            name: "SP",
            rows: RowBudget::None,
            row_contents: "-",
            location: StateLocation::OnChip,
            index: IndexSource::NoTable,
            memory_ops_per_miss: 0,
            max_prefetches: (1, 1),
        }
    }

    fn name(&self) -> &'static str {
        "SP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pc, VirtPage};

    fn miss(sp: &mut SequentialPrefetcher, page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        sp.on_miss(
            &MissContext::demand(VirtPage::new(page), Pc::new(0x100)),
            &mut sink,
        );
        sink
    }

    #[test]
    fn always_prefetches_next_page() {
        let mut sp = SequentialPrefetcher::new();
        for p in [0u64, 5, 1000] {
            let d = miss(&mut sp, p);
            assert_eq!(d.pages(), vec![VirtPage::new(p + 1)]);
            assert_eq!(d.maintenance_ops(), 0);
        }
    }

    #[test]
    fn triggers_on_prefetch_buffer_hits_too() {
        // The "tagged" behaviour: the first hit to a prefetched entry (a
        // PB hit) also initiates the next prefetch.
        let mut sp = SequentialPrefetcher::new();
        let ctx = MissContext {
            page: VirtPage::new(7),
            pc: Pc::new(0),
            prefetch_buffer_hit: true,
            evicted_tlb_entry: None,
        };
        let mut sink = CandidateBuf::new();
        sp.on_miss(&ctx, &mut sink);
        assert_eq!(sink.pages(), vec![VirtPage::new(8)]);
    }

    #[test]
    fn handles_address_space_end() {
        let mut sp = SequentialPrefetcher::new();
        let d = miss(&mut sp, u64::MAX);
        assert!(d.is_none());
    }

    #[test]
    fn profile_matches_table1_shape() {
        let sp = SequentialPrefetcher::new();
        let p = sp.profile();
        assert_eq!(p.memory_ops_per_miss, 0);
        assert_eq!(p.max_prefetches, (1, 1));
    }
}
