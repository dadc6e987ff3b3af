//! Distance prefetching (DP), §2.5 — the paper's contribution.
//!
//! DP keeps a prediction table indexed by the *distance* between the last
//! two TLB misses; each row's `s` slots hold the distances that followed
//! that distance in the past. On a miss (Figure 6):
//!
//! 1. compute the current distance (missed page − previous missed page);
//! 2. index the table by that distance;
//! 3. on a hit, prefetch `current page + predicted distance` for each slot;
//! 4. store the current distance into the *previous* distance's slots;
//! 5. remember the current distance and page for the next miss.
//!
//! The payoff is compression: a sequential scan of any length is one row
//! ("+1 follows +1"); the interleaved two-stream pattern 1, 2, 4, 5, 7, 8
//! is two rows ("+1 follows +2", "+2 follows +1") where Markov prefetching
//! would need a row per page. When strides change, the changes themselves
//! repeat and the table captures the change pattern — the behaviour class
//! (d) of §1 that neither stride- nor address-history-based schemes track.

use crate::assoc::Associativity;
use crate::banked::Banked;
use crate::config::{ConfigError, PrefetcherConfig};
use crate::prefetcher::{
    HardwareProfile, IndexSource, MissContext, RowBudget, StateLocation, TlbPrefetcher,
};
use crate::sink::CandidateBuf;
use crate::slots::SlotList;
use crate::table::PredictionTable;
use crate::types::{Asid, Distance, Pc, VirtPage};

/// How the distance table is indexed.
///
/// The paper indexes by the distance alone; §2.5 and §4 float indexing
/// by PC + distance and by "a set of consecutive distances" as future
/// work. Both are implemented as optional modes and evaluated in the
/// ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexMode {
    DistanceOnly,
    PcQualified,
    /// Key on the pair (previous distance, current distance): slower to
    /// learn (each context must recur) but disambiguates hub distances
    /// whose successor fan-out exceeds `s`.
    DistancePair,
}

/// Key type for the distance table: the observed distance, optionally
/// folded with the missing instruction's PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DistanceKey {
    distance: Distance,
    pc_fold: u64,
}

impl crate::table::TableKey for DistanceKey {
    fn index_value(self) -> u64 {
        (self.distance.value() as u64) ^ self.pc_fold
    }
}

/// The per-context register file of the distance predictor: everything
/// Figure 6 carries between misses.
#[derive(Debug, Clone, Copy, Default)]
struct DistanceRegs {
    prev_page: Option<VirtPage>,
    prev_distance: Option<Distance>,
    /// The full key used at the previous miss — where the current
    /// distance gets recorded as a follower (Figure 6, step 4).
    prev_key: Option<DistanceKey>,
}

/// The distance prefetcher.
///
/// # Examples
///
/// Strided behaviour is captured in a single row:
///
/// ```
/// use tlbsim_core::{
///     CandidateBuf, DistancePrefetcher, MissContext, Pc, PrefetcherConfig, TlbPrefetcher,
///     VirtPage,
/// };
///
/// let mut dp = DistancePrefetcher::from_config(&PrefetcherConfig::distance())?;
/// let mut sink = CandidateBuf::new();
/// // Miss 1 observes distance +1, miss 2 learns "+1 follows +1".
/// for p in [0u64, 1, 2, 3] {
///     sink.clear();
///     dp.on_miss(&MissContext::demand(VirtPage::new(p), Pc::new(0)), &mut sink);
/// }
/// assert_eq!(sink.pages(), &[VirtPage::new(4)]);
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistancePrefetcher {
    table: PredictionTable<DistanceKey, SlotList<Distance>>,
    slots: usize,
    mode: IndexMode,
    regs: Banked<DistanceRegs>,
}

impl DistancePrefetcher {
    /// Creates a DP with `rows` rows of `slots` distance slots each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry or zero slots.
    pub fn new(rows: usize, slots: usize, assoc: Associativity) -> Result<Self, ConfigError> {
        if slots == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        if slots > SlotList::<Distance>::MAX_CAPACITY {
            return Err(ConfigError::TooManySlots { slots });
        }
        Ok(DistancePrefetcher {
            table: PredictionTable::new(rows, assoc)?,
            slots,
            mode: IndexMode::DistanceOnly,
            regs: Banked::default(),
        })
    }

    /// Creates a DP from a uniform configuration, honouring
    /// [`PrefetcherConfig::pc_qualified`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry or zero slots.
    pub fn from_config(config: &PrefetcherConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut dp = Self::new(
            config.row_count(),
            config.slot_count(),
            config.associativity(),
        )?;
        if config.is_pc_qualified() {
            dp.mode = IndexMode::PcQualified;
        }
        if config.is_pair_indexed() {
            dp.mode = IndexMode::DistancePair;
        }
        Ok(dp)
    }

    /// Switches to pair indexing: the table key becomes the pair of the
    /// two most recent distances (§2.5's "set of consecutive distances"
    /// future-work variant).
    pub fn pair_indexed(mut self) -> Self {
        self.mode = IndexMode::DistancePair;
        self
    }

    fn fold_pc(&self, pc: Pc) -> u64 {
        match self.mode {
            IndexMode::DistanceOnly | IndexMode::DistancePair => 0,
            // Fold the word-aligned PC into the tag; a multiplicative
            // shuffle spreads loop bodies across sets.
            IndexMode::PcQualified => (pc.raw() >> 2).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The context folded into the key alongside the current distance:
    /// the PC hash in PC-qualified mode, the previous distance in pair
    /// mode, zero otherwise.
    fn context_fold(&self, pc_fold: u64) -> u64 {
        match self.mode {
            IndexMode::DistanceOnly => 0,
            IndexMode::PcQualified => pc_fold,
            IndexMode::DistancePair => self
                .regs
                .prev_distance
                .map(|d| (d.value() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .unwrap_or(0),
        }
    }

    /// Number of occupied table rows.
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    /// Allocating snapshot of the distances predicted to follow
    /// `distance` (MRU first), in distance-only indexing mode —
    /// debug/test introspection, never called on the miss path.
    pub fn followers_snapshot(&self, distance: Distance) -> Vec<Distance> {
        self.table
            .get(DistanceKey {
                distance,
                pc_fold: 0,
            })
            .map(|row| row.iter().copied().collect())
            .unwrap_or_default()
    }
}

impl TlbPrefetcher for DistancePrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        let page = ctx.page;
        let pc_fold = self.fold_pc(ctx.pc);

        let Some(prev_page) = self.regs.prev_page else {
            // Very first miss: no distance to compute yet (step 1 needs a
            // previous address).
            self.regs.prev_page = Some(page);
            return;
        };

        // Step 1: the current distance, keyed with whatever extra
        // context the index mode folds in (PC or previous distance).
        let distance = page.distance_from(prev_page);
        let key = DistanceKey {
            distance,
            pc_fold: self.context_fold(pc_fold),
        };

        // Steps 2-3: a table hit yields predicted distances, applied to
        // the *current* page and pushed straight into the caller's sink.
        if let Some(row) = self.table.get_mut(key) {
            for d in row.iter() {
                if let Some(target) = page.offset(*d) {
                    if target != page {
                        sink.push(target);
                    }
                }
            }
        }

        // Step 4: the current distance becomes a predicted follower of
        // the previous miss's key.
        if let Some(prev_key) = self.regs.prev_key {
            let slots = self.slots;
            self.table
                .get_or_insert_with(prev_key, || SlotList::new(slots))
                .insert(distance);
        }

        // Step 5: overwrite the previous distance (and page) with the
        // current one.
        self.regs.prev_distance = Some(distance);
        self.regs.prev_page = Some(page);
        self.regs.prev_key = Some(key);
    }

    fn flush(&mut self) {
        self.table.clear();
        self.regs.reset_all(|r| *r = DistanceRegs::default());
    }

    fn set_asid(&mut self, asid: Asid) {
        self.table.set_asid(asid);
        self.regs.switch(asid);
    }

    fn evict_asid(&mut self, asid: Asid) {
        self.table.evict_asid(asid);
        self.regs.evict(asid, |r| *r = DistanceRegs::default());
    }

    fn profile(&self) -> HardwareProfile {
        HardwareProfile {
            name: "DP",
            rows: RowBudget::Rows(self.table.capacity()),
            row_contents: "Distance Tag, s Prediction Distances",
            location: StateLocation::OnChip,
            index: IndexSource::Distance,
            memory_ops_per_miss: 0,
            max_prefetches: (0, self.slots as u32),
        }
    }

    fn name(&self) -> &'static str {
        "DP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp(rows: usize, slots: usize) -> DistancePrefetcher {
        DistancePrefetcher::new(rows, slots, Associativity::Direct).unwrap()
    }

    fn miss(p: &mut DistancePrefetcher, page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        p.on_miss(
            &MissContext::demand(VirtPage::new(page), Pc::new(0)),
            &mut sink,
        );
        sink
    }

    #[test]
    fn first_two_misses_predict_nothing() {
        let mut p = dp(64, 2);
        assert!(miss(&mut p, 10).is_none());
        assert!(miss(&mut p, 11).is_none());
    }

    #[test]
    fn sequential_scan_needs_one_row() {
        let mut p = dp(64, 2);
        for page in 0..50u64 {
            miss(&mut p, page);
        }
        // Only the "+1 -> +1" transition exists.
        assert_eq!(p.occupancy(), 1);
        assert_eq!(p.followers_snapshot(Distance::ONE), vec![Distance::ONE]);
    }

    #[test]
    fn papers_two_entry_example() {
        // Reference string 1, 2, 4, 5, 7, 8: "a distance of 1 is followed
        // by a distance of 2 and vice versa … only a 2 entry table" (§2.5).
        let mut p = dp(64, 2);
        for page in [1u64, 2, 4, 5, 7, 8] {
            miss(&mut p, page);
        }
        assert_eq!(p.occupancy(), 2);
        assert_eq!(
            p.followers_snapshot(Distance::new(1)),
            vec![Distance::new(2)]
        );
        assert_eq!(
            p.followers_snapshot(Distance::new(2)),
            vec![Distance::new(1)]
        );
        // Continue the pattern: 10 arrives with distance +2, predicting +1.
        let d = miss(&mut p, 10);
        assert_eq!(d.pages(), vec![VirtPage::new(11)]);
    }

    #[test]
    fn prediction_applies_distance_to_current_page() {
        let mut p = dp(64, 2);
        for page in [0u64, 3, 6] {
            miss(&mut p, page);
        }
        let d = miss(&mut p, 9);
        assert_eq!(d.pages(), vec![VirtPage::new(12)]);
    }

    #[test]
    fn backward_distances_work() {
        let mut p = dp(64, 2);
        for page in [100u64, 97, 94] {
            miss(&mut p, page);
        }
        let d = miss(&mut p, 91);
        assert_eq!(d.pages(), vec![VirtPage::new(88)]);
    }

    #[test]
    fn multiple_slots_predict_multiple_distances() {
        let mut p = dp(64, 2);
        // +1 is followed sometimes by +2, sometimes by +3:
        // 0,1,3 teaches (+1 -> +2); 10,11,14 teaches (+1 -> +3).
        for page in [0u64, 1, 3] {
            miss(&mut p, page);
        }
        for page in [10u64, 11, 14] {
            miss(&mut p, page);
        }
        // Next +1 distance: both +3 (MRU) and +2 predicted.
        miss(&mut p, 20);
        let d = miss(&mut p, 21);
        assert_eq!(d.pages(), vec![VirtPage::new(24), VirtPage::new(23)]);
    }

    #[test]
    fn zero_distance_self_prediction_is_suppressed() {
        let mut p = dp(64, 2);
        // Repeated misses on the same page teach "0 follows 0", but
        // prefetching the page that just missed is useless.
        for _ in 0..4 {
            miss(&mut p, 5);
        }
        let d = miss(&mut p, 5);
        assert!(d.pages().is_empty());
    }

    #[test]
    fn stride_change_pattern_is_learned() {
        // Class (d): distances cycle +1,+1,+10. ASP would thrash; DP keeps
        // one row per distinct distance transition.
        let mut p = dp(64, 2);
        let mut page = 0u64;
        let cycle = [1u64, 1, 10];
        for i in 0..30 {
            miss(&mut p, page);
            page += cycle[i % 3];
        }
        // Rows: +1 -> {+1 or +10}, +10 -> {+1}.
        assert!(p.occupancy() <= 3);
        assert_eq!(
            p.followers_snapshot(Distance::new(10)),
            vec![Distance::new(1)]
        );
        let f1 = p.followers_snapshot(Distance::new(1));
        assert!(f1.contains(&Distance::new(1)) && f1.contains(&Distance::new(10)));
    }

    #[test]
    fn tiny_table_suffices_for_regular_patterns() {
        // Even r = 2 captures the paper's alternating example, the
        // size-frugality claim of §2.5.
        let mut p = dp(2, 2);
        for page in [1u64, 2, 4, 5, 7, 8, 10, 11, 13] {
            miss(&mut p, page);
        }
        let d = miss(&mut p, 14); // distance +1 -> predict +2
        assert_eq!(d.pages(), vec![VirtPage::new(16)]);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut p = dp(64, 2);
        for page in [0u64, 1, 2, 3] {
            miss(&mut p, page);
        }
        p.flush();
        assert_eq!(p.occupancy(), 0);
        assert!(miss(&mut p, 10).is_none());
        assert!(miss(&mut p, 11).is_none());
    }

    #[test]
    fn pc_qualified_mode_separates_contexts() {
        let mut cfg = PrefetcherConfig::distance();
        cfg.pc_qualified(true);
        let mut p = DistancePrefetcher::from_config(&cfg).unwrap();
        let m = |p: &mut DistancePrefetcher, pc: u64, page: u64| {
            let mut sink = CandidateBuf::new();
            p.on_miss(
                &MissContext::demand(VirtPage::new(page), Pc::new(pc)),
                &mut sink,
            );
            sink
        };
        // PC 0x40 walks stride +1; learn and predict under that PC.
        m(&mut p, 0x40, 0);
        m(&mut p, 0x40, 1);
        m(&mut p, 0x40, 2);
        let d = m(&mut p, 0x40, 3);
        assert_eq!(d.pages(), vec![VirtPage::new(4)]);
        // The same distance under a different PC has no history.
        let d = m(&mut p, 0x99, 4);
        assert!(d.pages().is_empty());
    }

    #[test]
    fn pair_indexing_disambiguates_hub_distances() {
        // Hub-and-spoke cycle (6,5,6,23,6,-8): the hub distance 6 has
        // three successors, overflowing s = 2 slots in plain mode — but
        // every (previous, current) pair has a unique successor, so the
        // pair-indexed variant predicts the whole cycle.
        let cycle = [6i64, 5, 6, 23, 6, -8];
        let walk = |p: &mut DistancePrefetcher| {
            let mut page = 1000i64;
            let mut predicted_hits = 0u32;
            let mut chances = 0u32;
            for i in 0..600 {
                let d = miss(p, page as u64);
                let next = page + cycle[i % cycle.len()];
                // After two warm-up cycles the decision at each miss
                // should name the next page to miss.
                if i >= 12 {
                    chances += 1;
                    if d.pages().contains(&VirtPage::new(next as u64)) {
                        predicted_hits += 1;
                    }
                }
                page = next;
            }
            predicted_hits as f64 / chances as f64
        };
        let plain = walk(&mut dp(256, 2));
        let mut paired = dp(256, 2).pair_indexed();
        let pair = walk(&mut paired);
        assert!(pair > 0.95, "pair-indexed accuracy {pair}");
        assert!(pair > plain + 0.2, "pair {pair} should beat plain {plain}");
    }

    #[test]
    fn pair_indexing_still_captures_sequential_scans() {
        let mut p = dp(64, 2).pair_indexed();
        for page in 0..50u64 {
            miss(&mut p, page);
        }
        let d = miss(&mut p, 50);
        assert_eq!(d.pages(), vec![VirtPage::new(51)]);
    }

    #[test]
    fn contexts_keep_independent_distance_registers() {
        let mut p = DistancePrefetcher::new(64, 2, Associativity::Full).unwrap();
        // Context 0 walks stride +1.
        miss(&mut p, 0);
        miss(&mut p, 1);
        miss(&mut p, 2);
        p.set_asid(Asid::new(1));
        // Context 1 starts from scratch: its first miss computes no
        // distance, so nothing is predicted and nothing from context 0's
        // registers leaks in.
        assert!(miss(&mut p, 1000).is_none());
        miss(&mut p, 1003);
        miss(&mut p, 1006);
        // Context 1 learned +3 -> +3 in its own tagged rows.
        let d = miss(&mut p, 1009);
        assert_eq!(d.pages(), vec![VirtPage::new(1012)]);
        // Switching back restores context 0's +1 chain exactly.
        p.set_asid(Asid::DEFAULT);
        let d = miss(&mut p, 3);
        assert_eq!(d.pages(), vec![VirtPage::new(4)]);
    }

    #[test]
    fn evict_asid_clears_registers_and_rows_of_one_context() {
        let mut p = DistancePrefetcher::new(64, 2, Associativity::Full).unwrap();
        miss(&mut p, 0);
        miss(&mut p, 1);
        miss(&mut p, 2);
        p.evict_asid(Asid::DEFAULT);
        // Fully evicted current context behaves like a fresh machine.
        assert_eq!(p.occupancy(), 0);
        assert!(miss(&mut p, 10).is_none());
        assert!(miss(&mut p, 11).is_none());
    }

    #[test]
    fn pair_mode_previous_distance_is_banked_per_context() {
        // In pair mode the key folds in prev_distance; a context switch
        // mid-pattern must not contaminate the other context's keys.
        let mut p = DistancePrefetcher::new(256, 2, Associativity::Full)
            .unwrap()
            .pair_indexed();
        for page in [1u64, 2, 4, 5, 7, 8] {
            miss(&mut p, page);
        }
        p.set_asid(Asid::new(1));
        for page in [500u64, 510, 520] {
            miss(&mut p, page);
        }
        p.set_asid(Asid::DEFAULT);
        // Context 0 resumes its (+2 after +1) alternation: from page 8
        // with prev_distance +1, the next distance +2 lands on 10 and
        // predicts +1 => 11.
        let d = miss(&mut p, 10);
        assert_eq!(d.pages(), vec![VirtPage::new(11)]);
    }

    #[test]
    fn profile_matches_table1() {
        let p = dp(256, 2);
        let prof = p.profile();
        assert_eq!(prof.rows, RowBudget::Rows(256));
        assert_eq!(prof.index, IndexSource::Distance);
        assert_eq!(prof.memory_ops_per_miss, 0);
        assert_eq!(prof.max_prefetches, (0, 2));
    }

    #[test]
    fn occupancy_stays_within_capacity_under_random_stress() {
        let mut p = dp(32, 2);
        let mut page = 0u64;
        for i in 0..10_000u64 {
            // Deterministic pseudo-random walk.
            page = page.wrapping_mul(6364136223846793005).wrapping_add(i) % 100_000;
            miss(&mut p, page);
            assert!(p.occupancy() <= 32);
        }
    }
}
