//! Trend-vote stride prefetching (TP) — an adaptive ASP variant.
//!
//! ASP (§2.2) trusts a stride only after the last two deltas agree; a
//! single irregular reference breaks the steady state. Leap-style trend
//! detection instead keeps a sliding window of the last `w` deltas per
//! PC and predicts the delta holding a **strict majority** of the
//! window, so occasional blips are outvoted instead of resetting the
//! state machine.
//!
//! The window only votes once it is full. That warm-up choice is what
//! makes the degenerate configuration provable: with `w = 2` on a
//! monotone stream (constant stride per PC), TP's first prediction
//! lands on exactly the miss where ASP reaches *steady* — the third
//! miss by that PC — and both predict `page + stride` ever after. The
//! `adaptive_oracles` integration test pins that equivalence
//! bit-identically through the full simulation stack.
//!
//! All of TP's state lives in ASID-tagged table rows (previous page plus
//! the delta ring), so flush-free context switching is just the table's
//! tag register, exactly like ASP.

use crate::assoc::Associativity;
use crate::config::{ConfigError, PrefetcherConfig};
use crate::prefetcher::{
    HardwareProfile, IndexSource, MissContext, RowBudget, StateLocation, TlbPrefetcher,
};
use crate::sink::CandidateBuf;
use crate::table::PredictionTable;
use crate::types::{Distance, Pc, VirtPage};

/// One trend row: the page of this PC's previous miss plus a ring of
/// the most recent deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrendRow {
    /// Page of this PC's previous TLB miss.
    prev_page: VirtPage,
    /// Ring buffer of recent deltas; only `len` entries are live.
    deltas: [Distance; TrendStridePrefetcher::MAX_WINDOW],
    /// Live delta count (saturates at the configured window).
    len: u8,
    /// Next ring slot to overwrite once the window is full.
    head: u8,
}

impl TrendRow {
    fn new(prev_page: VirtPage) -> Self {
        TrendRow {
            prev_page,
            deltas: [Distance::ZERO; TrendStridePrefetcher::MAX_WINDOW],
            len: 0,
            head: 0,
        }
    }

    fn record(&mut self, delta: Distance, window: usize) {
        if (self.len as usize) < window {
            self.deltas[self.len as usize] = delta;
            self.len += 1;
        } else {
            self.deltas[self.head as usize] = delta;
            self.head = (self.head + 1) % window as u8;
        }
    }

    /// The delta held by a strict majority (> w/2) of a full window.
    ///
    /// One Boyer–Moore pass finds the only delta that can hold a strict
    /// majority; one counting pass confirms it (Leap's linear-time vote).
    fn majority(&self, window: usize) -> Option<Distance> {
        if (self.len as usize) < window {
            return None;
        }
        let live = &self.deltas[..window];
        let mut candidate = live[0];
        let mut lead = 0usize;
        for &d in live {
            if lead == 0 {
                candidate = d;
                lead = 1;
            } else if d == candidate {
                lead += 1;
            } else {
                lead -= 1;
            }
        }
        let votes = live.iter().filter(|&&d| d == candidate).count();
        (votes * 2 > window).then_some(candidate)
    }
}

/// The trend-vote stride prefetcher.
///
/// # Examples
///
/// A single blip in a long stride run is outvoted rather than breaking
/// the prediction:
///
/// ```
/// use tlbsim_core::{CandidateBuf, MissContext, Pc, PrefetcherConfig, TlbPrefetcher, VirtPage};
///
/// let mut cfg = PrefetcherConfig::trend_stride();
/// cfg.window(4);
/// let mut tp = cfg.build()?;
/// let mut sink = CandidateBuf::new();
/// for page in [0u64, 2, 4, 6, 99, 101, 103] {
///     sink.clear();
///     tp.on_miss(&MissContext::demand(VirtPage::new(page), Pc::new(0x40)), &mut sink);
/// }
/// // Window holds [+2, +93, +2, +2]: majority +2 still predicts.
/// assert_eq!(sink.pages(), &[VirtPage::new(105)]);
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrendStridePrefetcher {
    table: PredictionTable<Pc, TrendRow>,
    window: usize,
}

impl TrendStridePrefetcher {
    /// Largest supported delta window (ring storage is inline per row).
    pub const MAX_WINDOW: usize = 16;

    /// Smallest meaningful window: two deltas make the minimal vote.
    pub const MIN_WINDOW: usize = 2;

    /// Creates a TP with `rows` rows organised by `assoc`, voting over a
    /// window of `window` deltas.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry or a window
    /// outside `MIN_WINDOW..=MAX_WINDOW`.
    pub fn new(rows: usize, assoc: Associativity, window: usize) -> Result<Self, ConfigError> {
        if !(Self::MIN_WINDOW..=Self::MAX_WINDOW).contains(&window) {
            return Err(ConfigError::BadWindow { window });
        }
        Ok(TrendStridePrefetcher {
            table: PredictionTable::new(rows, assoc)?,
            window,
        })
    }

    /// Creates a TP from a uniform configuration (slots are ignored: one
    /// majority delta yields at most one prediction per miss).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry or window.
    pub fn from_config(config: &PrefetcherConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Self::new(
            config.row_count(),
            config.associativity(),
            config.window_len(),
        )
    }

    /// The configured vote window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of occupied table rows.
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }
}

impl TlbPrefetcher for TrendStridePrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        let page = ctx.page;
        let window = self.window;
        match self.table.get_mut(ctx.pc) {
            None => {
                // First miss by this PC: remember the page; the window
                // starts collecting deltas from the next miss.
                self.table.insert(ctx.pc, TrendRow::new(page));
            }
            Some(row) => {
                let delta = page.distance_from(row.prev_page);
                row.record(delta, window);
                row.prev_page = page;
                if let Some(trend) = row.majority(window) {
                    if trend != Distance::ZERO {
                        if let Some(target) = page.offset(trend) {
                            sink.push(target);
                        }
                    }
                }
            }
        }
    }

    fn flush(&mut self) {
        self.table.clear();
    }

    fn set_asid(&mut self, asid: crate::types::Asid) {
        // Like ASP, every register is per-row (prev_page and the delta
        // ring live in tagged rows), so switching is just the tag.
        self.table.set_asid(asid);
    }

    fn evict_asid(&mut self, asid: crate::types::Asid) {
        self.table.evict_asid(asid);
    }

    fn profile(&self) -> HardwareProfile {
        HardwareProfile {
            name: "TP",
            rows: RowBudget::Rows(self.table.capacity()),
            row_contents: "PC Tag, Page #, Delta Window",
            location: StateLocation::OnChip,
            index: IndexSource::ProgramCounter,
            memory_ops_per_miss: 0,
            max_prefetches: (0, 1),
        }
    }

    fn name(&self) -> &'static str {
        "TP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stride::StridePrefetcher;

    /// The quadratic vote `majority` replaced: every live delta counts
    /// its own votes.
    fn majority_by_scan(row: &TrendRow, window: usize) -> Option<Distance> {
        if (row.len as usize) < window {
            return None;
        }
        let live = &row.deltas[..window];
        live.iter()
            .find(|&candidate| live.iter().filter(|d| *d == candidate).count() * 2 > window)
            .copied()
    }

    proptest::proptest! {
        #[test]
        fn linear_vote_matches_the_quadratic_scan(
            window in TrendStridePrefetcher::MIN_WINDOW..=TrendStridePrefetcher::MAX_WINDOW,
            favourite in -3i64..=3,
            // About half the deltas are the favourite, so windows land on
            // both sides of a strict majority; recording twice the largest
            // window wraps the ring.
            draws in proptest::collection::vec(
                (proptest::bool::ANY, -3i64..=3),
                2 * TrendStridePrefetcher::MAX_WINDOW,
            ),
        ) {
            let mut row = TrendRow::new(VirtPage::new(0));
            for (i, &(pick, other)) in draws.iter().enumerate() {
                let delta = if pick { favourite } else { other };
                row.record(Distance::new(delta), window);
                proptest::prop_assert_eq!(
                    row.majority(window),
                    majority_by_scan(&row, window),
                    "after {} deltas",
                    i + 1
                );
            }
        }
    }

    fn tp(rows: usize, window: usize) -> TrendStridePrefetcher {
        TrendStridePrefetcher::new(rows, Associativity::Direct, window).unwrap()
    }

    fn miss(p: &mut impl TlbPrefetcher, pc: u64, page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        p.on_miss(
            &MissContext::demand(VirtPage::new(page), Pc::new(pc)),
            &mut sink,
        );
        sink
    }

    #[test]
    fn window_must_fill_before_voting() {
        let mut p = tp(64, 4);
        // Misses 1..=4 cannot vote (window not yet full after 3 deltas).
        assert!(miss(&mut p, 4, 0).is_none());
        assert!(miss(&mut p, 4, 2).is_none());
        assert!(miss(&mut p, 4, 4).is_none());
        assert!(miss(&mut p, 4, 6).is_none());
        // Fifth miss: window [2,2,2,2] votes +2.
        assert_eq!(miss(&mut p, 4, 8).pages(), vec![VirtPage::new(10)]);
    }

    #[test]
    fn window_two_matches_asp_on_monotone_stream() {
        // The degeneration oracle in miniature: constant stride per PC.
        let mut tp2 = tp(64, 2);
        let mut asp = StridePrefetcher::new(64, Associativity::Direct).unwrap();
        for i in 0..20u64 {
            let d_tp = miss(&mut tp2, 0x40, i * 7);
            let d_asp = miss(&mut asp, 0x40, i * 7);
            assert_eq!(d_tp, d_asp, "diverged at miss {i}");
        }
    }

    #[test]
    fn blip_is_outvoted_where_asp_resets() {
        let mut p = tp(64, 4);
        for page in [0u64, 3, 6, 9, 12] {
            miss(&mut p, 4, page);
        }
        // Irregular reference: window [3,3,3,100] still votes +3.
        let d = miss(&mut p, 4, 112);
        assert_eq!(d.pages(), vec![VirtPage::new(115)]);
    }

    #[test]
    fn no_majority_means_no_prediction() {
        let mut p = tp(64, 4);
        // Deltas 1,2,3,4: no strict majority.
        for page in [0u64, 1, 3, 6, 10] {
            miss(&mut p, 4, page);
        }
        assert!(miss(&mut p, 4, 15).pages().is_empty());
    }

    #[test]
    fn zero_delta_majority_is_suppressed() {
        let mut p = tp(64, 2);
        for _ in 0..6 {
            let d = miss(&mut p, 4, 100);
            assert!(d.is_none());
        }
    }

    #[test]
    fn negative_trends_are_tracked() {
        let mut p = tp(64, 2);
        miss(&mut p, 8, 100);
        miss(&mut p, 8, 95);
        let d = miss(&mut p, 8, 90);
        assert_eq!(d.pages(), vec![VirtPage::new(85)]);
    }

    #[test]
    fn separate_pcs_do_not_interfere() {
        let mut p = tp(64, 2);
        miss(&mut p, 0x40, 0);
        miss(&mut p, 0x80, 1000);
        miss(&mut p, 0x40, 1);
        miss(&mut p, 0x80, 1010);
        assert_eq!(miss(&mut p, 0x40, 2).pages(), vec![VirtPage::new(3)]);
        assert_eq!(miss(&mut p, 0x80, 1020).pages(), vec![VirtPage::new(1030)]);
    }

    #[test]
    fn ring_evicts_oldest_delta() {
        let mut p = tp(64, 2);
        // Establish +5, then shift to +9: after two +9 deltas the old
        // trend is fully evicted and the new one votes.
        for page in [0u64, 5, 10] {
            miss(&mut p, 4, page);
        }
        assert!(miss(&mut p, 4, 19).pages().is_empty()); // window [5,9]
        let d = miss(&mut p, 4, 28); // window [9,9]
        assert_eq!(d.pages(), vec![VirtPage::new(37)]);
    }

    #[test]
    fn window_bounds_are_enforced() {
        assert!(matches!(
            TrendStridePrefetcher::new(64, Associativity::Direct, 1),
            Err(ConfigError::BadWindow { window: 1 })
        ));
        assert!(matches!(
            TrendStridePrefetcher::new(64, Associativity::Direct, 17),
            Err(ConfigError::BadWindow { window: 17 })
        ));
        assert!(TrendStridePrefetcher::new(64, Associativity::Direct, 16).is_ok());
    }

    #[test]
    fn flush_drops_all_rows() {
        let mut p = tp(16, 2);
        miss(&mut p, 4, 1);
        p.flush();
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn contexts_keep_separate_rows() {
        let mut p = TrendStridePrefetcher::new(64, Associativity::Full, 2).unwrap();
        miss(&mut p, 4, 0);
        miss(&mut p, 4, 10);
        miss(&mut p, 4, 20);
        p.set_asid(crate::types::Asid::new(1));
        // Fresh context: same PC has no row, no prediction.
        assert!(miss(&mut p, 4, 500).is_none());
        assert!(miss(&mut p, 4, 503).is_none());
        assert_eq!(miss(&mut p, 4, 506).pages(), vec![VirtPage::new(509)]);
        p.set_asid(crate::types::Asid::DEFAULT);
        // Original context resumes its +10 trend.
        assert_eq!(miss(&mut p, 4, 30).pages(), vec![VirtPage::new(40)]);
    }

    #[test]
    fn profile_names_the_window_machine() {
        let p = tp(256, 8);
        let prof = p.profile();
        assert_eq!(prof.rows, RowBudget::Rows(256));
        assert_eq!(prof.index, IndexSource::ProgramCounter);
        assert_eq!(prof.max_prefetches, (0, 1));
        assert_eq!(p.window(), 8);
    }
}
