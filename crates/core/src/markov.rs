//! Markov prefetching (MP), §2.3 of the paper.
//!
//! MP (Joseph & Grunwald, adapted from caches) approximates a Markov state
//! diagram over missed pages: the prediction table is indexed by the
//! missing virtual page, and each row's `s` slots hold pages that missed
//! immediately after it in the past. On a miss the current page's row (if
//! present) supplies up to `s` prefetches; then the current page is added
//! to the *previous* missing page's slots, building the transition arcs
//! online.

use crate::assoc::Associativity;
use crate::banked::Banked;
use crate::config::{ConfigError, PrefetcherConfig};
use crate::prefetcher::{
    HardwareProfile, IndexSource, MissContext, RowBudget, StateLocation, TlbPrefetcher,
};
use crate::sink::CandidateBuf;
use crate::slots::SlotList;
use crate::table::PredictionTable;
use crate::types::{Asid, VirtPage};

/// The Markov prefetcher.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{
///     CandidateBuf, MarkovPrefetcher, MissContext, Pc, PrefetcherConfig, TlbPrefetcher, VirtPage,
/// };
///
/// let mut mp = MarkovPrefetcher::from_config(&PrefetcherConfig::markov())?;
/// let mut sink = CandidateBuf::new();
/// // Teach the transition 100 -> 200, then revisit 100.
/// for p in [100u64, 200, 100] {
///     sink.clear();
///     mp.on_miss(&MissContext::demand(VirtPage::new(p), Pc::new(0)), &mut sink);
/// }
/// assert_eq!(sink.pages(), &[VirtPage::new(200)]);
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MarkovPrefetcher {
    table: PredictionTable<VirtPage, SlotList<VirtPage>>,
    slots: usize,
    prev_miss: Banked<Option<VirtPage>>,
}

impl MarkovPrefetcher {
    /// Creates an MP with `rows` rows of `slots` slots each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry or zero slots.
    pub fn new(rows: usize, slots: usize, assoc: Associativity) -> Result<Self, ConfigError> {
        if slots == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        if slots > SlotList::<VirtPage>::MAX_CAPACITY {
            return Err(ConfigError::TooManySlots { slots });
        }
        Ok(MarkovPrefetcher {
            table: PredictionTable::new(rows, assoc)?,
            slots,
            prev_miss: Banked::default(),
        })
    }

    /// Creates an MP from a uniform configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry or zero slots.
    pub fn from_config(config: &PrefetcherConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Self::new(
            config.row_count(),
            config.slot_count(),
            config.associativity(),
        )
    }

    /// Number of occupied table rows.
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    /// Allocating snapshot of the successors recorded for `page` (MRU
    /// first) — debug/test introspection, never called on the miss path.
    pub fn successors_snapshot(&self, page: VirtPage) -> Vec<VirtPage> {
        self.table
            .get(page)
            .map(|row| row.iter().copied().collect())
            .unwrap_or_default()
    }
}

impl TlbPrefetcher for MarkovPrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        let page = ctx.page;

        // 1. Index by the missing page; a hit yields up to `s` predictions
        //    written straight into the caller's sink. A table miss
        //    allocates the row with empty slots (§2.3: "this entry is
        //    added, and the s slots for this entry are kept empty").
        let slots = self.slots;
        let row = self.table.get_or_insert_with(page, || SlotList::new(slots));
        for prediction in row.iter() {
            sink.push(*prediction);
        }

        // 2. Record the transition prev -> page in the previous page's
        //    row. The previous row may have been evicted by step 1 in a
        //    conflicting set; re-allocating it matches the hardware, which
        //    simply writes the slot wherever the tag now lives.
        if let Some(prev) = *self.prev_miss {
            if prev != page {
                let row = self.table.get_or_insert_with(prev, || SlotList::new(slots));
                row.insert(page);
            }
        }
        *self.prev_miss = Some(page);
    }

    fn flush(&mut self) {
        self.table.clear();
        self.prev_miss.reset_all(|prev| *prev = None);
    }

    fn set_asid(&mut self, asid: Asid) {
        self.table.set_asid(asid);
        self.prev_miss.switch(asid);
    }

    fn evict_asid(&mut self, asid: Asid) {
        self.table.evict_asid(asid);
        self.prev_miss.evict(asid, |prev| *prev = None);
    }

    fn profile(&self) -> HardwareProfile {
        HardwareProfile {
            name: "MP",
            rows: RowBudget::Rows(self.table.capacity()),
            row_contents: "Page # Tag, s Prediction Page #s",
            location: StateLocation::OnChip,
            index: IndexSource::PageNumber,
            memory_ops_per_miss: 0,
            max_prefetches: (0, self.slots as u32),
        }
    }

    fn name(&self) -> &'static str {
        "MP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Pc;

    fn mp(rows: usize, slots: usize) -> MarkovPrefetcher {
        MarkovPrefetcher::new(rows, slots, Associativity::Direct).unwrap()
    }

    fn miss(p: &mut MarkovPrefetcher, page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        p.on_miss(
            &MissContext::demand(VirtPage::new(page), Pc::new(0)),
            &mut sink,
        );
        sink
    }

    #[test]
    fn first_visit_predicts_nothing() {
        let mut p = mp(64, 2);
        assert!(miss(&mut p, 1).is_none());
        assert!(miss(&mut p, 2).is_none());
    }

    #[test]
    fn learns_single_transition() {
        let mut p = mp(64, 2);
        miss(&mut p, 10);
        miss(&mut p, 20);
        miss(&mut p, 30);
        // Revisit 10: it was followed by 20.
        let d = miss(&mut p, 10);
        assert_eq!(d.pages(), vec![VirtPage::new(20)]);
    }

    #[test]
    fn slots_hold_multiple_successors_mru_first() {
        let mut p = mp(64, 2);
        // 1 -> 2, then 1 -> 3.
        miss(&mut p, 1);
        miss(&mut p, 2);
        miss(&mut p, 1);
        miss(&mut p, 3);
        let d = miss(&mut p, 1);
        assert_eq!(d.pages(), vec![VirtPage::new(3), VirtPage::new(2)]);
    }

    #[test]
    fn slot_lru_evicts_oldest_successor() {
        let mut p = mp(64, 2);
        for succ in [2u64, 3, 4] {
            miss(&mut p, 1);
            miss(&mut p, succ);
        }
        assert_eq!(
            p.successors_snapshot(VirtPage::new(1)),
            vec![VirtPage::new(4), VirtPage::new(3)]
        );
    }

    #[test]
    fn alternation_pattern_fits_in_two_slots() {
        // The paper's §3.2 example: 1,2,3,4, 1,5,2,6,3,7,4,8, 1,2,3,4
        // benefits MP with s=2 because each page keeps both successors.
        let mut p = mp(1024, 2);
        let seq = [1u64, 2, 3, 4, 1, 5, 2, 6, 3, 7, 4, 8];
        for page in seq {
            miss(&mut p, page);
        }
        // Page 1 has seen successors 2 then 5; both retained.
        let s = p.successors_snapshot(VirtPage::new(1));
        assert!(s.contains(&VirtPage::new(2)) && s.contains(&VirtPage::new(5)));
        // On the next visit to 1, both are predicted.
        let d = miss(&mut p, 1);
        assert_eq!(d.pages().len(), 2);
    }

    #[test]
    fn repeated_page_is_not_its_own_successor() {
        let mut p = mp(64, 2);
        miss(&mut p, 5);
        miss(&mut p, 5);
        assert!(p.successors_snapshot(VirtPage::new(5)).is_empty());
    }

    #[test]
    fn small_tables_thrash_on_large_footprints() {
        // Footprint of 128 pages round-robin through a 16-row table: by
        // the time a page recurs its row has been evicted, so MP predicts
        // nothing — the effect that cripples MP on galgel/art/mesa.
        let mut p = mp(16, 2);
        let mut predicted = 0;
        for lap in 0..4 {
            for page in 0..128u64 {
                let d = miss(&mut p, page);
                if lap > 0 && !d.pages().is_empty() {
                    predicted += 1;
                }
            }
        }
        assert_eq!(predicted, 0);
        assert!(p.occupancy() <= 16);
    }

    #[test]
    fn large_tables_capture_the_same_footprint() {
        let mut p = mp(256, 2);
        let mut hits = 0;
        for lap in 0..4 {
            for page in 0..128u64 {
                let d = miss(&mut p, page);
                if lap > 0 && d.pages().contains(&VirtPage::new((page + 1) % 128)) {
                    hits += 1;
                }
            }
        }
        // Every non-first lap predicts the correct successor.
        assert!(hits >= 3 * 127);
    }

    #[test]
    fn flush_forgets_transitions() {
        let mut p = mp(64, 2);
        miss(&mut p, 1);
        miss(&mut p, 2);
        p.flush();
        assert!(miss(&mut p, 1).is_none());
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn contexts_learn_independent_transition_graphs() {
        let mut p = MarkovPrefetcher::new(64, 2, Associativity::Full).unwrap();
        miss(&mut p, 1);
        miss(&mut p, 2);
        p.set_asid(Asid::new(1));
        // The other context sees nothing and must not link its first
        // miss to context 0's prev_miss register.
        assert!(miss(&mut p, 9).is_none());
        miss(&mut p, 8);
        p.set_asid(Asid::DEFAULT);
        // Context 0's graph (1 -> 2) and its register survive intact.
        let d = miss(&mut p, 1);
        assert_eq!(d.pages(), vec![VirtPage::new(2)]);
        assert!(p
            .successors_snapshot(VirtPage::new(2))
            .contains(&VirtPage::new(1)));
        p.set_asid(Asid::new(1));
        let d = miss(&mut p, 9);
        assert_eq!(d.pages(), vec![VirtPage::new(8)]);
    }

    #[test]
    fn evict_asid_resets_one_context_only() {
        let mut p = MarkovPrefetcher::new(64, 2, Associativity::Full).unwrap();
        miss(&mut p, 1);
        miss(&mut p, 2);
        p.set_asid(Asid::new(1));
        miss(&mut p, 9);
        p.evict_asid(Asid::new(1));
        // Current context was evicted: no stale prev register.
        miss(&mut p, 8);
        assert!(p.successors_snapshot(VirtPage::new(9)).is_empty());
        p.evict_asid(Asid::DEFAULT);
        p.set_asid(Asid::DEFAULT);
        assert!(miss(&mut p, 1).is_none());
    }

    #[test]
    fn profile_matches_table1() {
        let p = mp(256, 2);
        let prof = p.profile();
        assert_eq!(prof.rows, RowBudget::Rows(256));
        assert_eq!(prof.index, IndexSource::PageNumber);
        assert_eq!(prof.max_prefetches, (0, 2));
        assert_eq!(prof.memory_ops_per_miss, 0);
    }
}
