//! Arbitrary stride prefetching (ASP), §2.2 of the paper.
//!
//! ASP is Chen & Baer's reference prediction table (RPT) adapted to the
//! TLB miss stream. Each row is indexed by the PC of the missing
//! instruction and holds the page that PC last missed on, the stride
//! between its last two misses, and a two-bit state. A prefetch of
//! `page + stride` is issued only once the same stride has been observed
//! twice in a row ("no change in the stride for more than two references"
//! — the *steady* state), which guards against spurious stride changes.

use crate::assoc::Associativity;
use crate::config::{ConfigError, PrefetcherConfig};
use crate::prefetcher::{
    HardwareProfile, IndexSource, MissContext, RowBudget, StateLocation, TlbPrefetcher,
};
use crate::sink::CandidateBuf;
use crate::table::PredictionTable;
use crate::types::{Distance, Pc, VirtPage};

/// The Chen–Baer RPT state machine.
///
/// Transitions on each miss by the same PC, where *match* means the newly
/// observed stride equals the stored one:
///
/// | state        | match        | mismatch                       |
/// |--------------|--------------|--------------------------------|
/// | Initial      | → Steady     | update stride, → Transient     |
/// | Transient    | → Steady     | update stride, → NoPrediction  |
/// | Steady       | → Steady     | keep stride, → Initial         |
/// | NoPrediction | → Transient  | update stride, → NoPrediction  |
///
/// Prefetches are issued only from `Steady`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RptState {
    /// Row was just allocated or a steady stride was broken once.
    Initial,
    /// One consistent stride observed; not yet trusted.
    Transient,
    /// Stride confirmed twice or more; predictions are issued.
    Steady,
    /// Stride is erratic; predictions are suppressed.
    NoPrediction,
}

/// One RPT row: the paper's "(i) the address that was referenced the last
/// time the PC came to this instruction, (ii) the corresponding stride,
/// and (iii) a state".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RptEntry {
    /// Page of this PC's previous TLB miss.
    pub prev_page: VirtPage,
    /// Stride between this PC's last two misses.
    pub stride: Distance,
    /// Confidence state.
    pub state: RptState,
}

/// The arbitrary stride prefetcher.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{
///     CandidateBuf, MissContext, Pc, PrefetcherConfig, StridePrefetcher, TlbPrefetcher, VirtPage,
/// };
///
/// let mut asp = StridePrefetcher::from_config(&PrefetcherConfig::stride())?;
/// let mut sink = CandidateBuf::new();
/// // Three misses with stride 5 establish the steady state, so the
/// // fourth predicts page + 5.
/// for page in [100u64, 105, 110, 115] {
///     sink.clear();
///     asp.on_miss(&MissContext::demand(VirtPage::new(page), Pc::new(0x40)), &mut sink);
/// }
/// assert_eq!(sink.pages(), &[VirtPage::new(120)]);
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: PredictionTable<Pc, RptEntry>,
}

impl StridePrefetcher {
    /// Creates an ASP with `rows` RPT rows organised by `assoc`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry.
    pub fn new(rows: usize, assoc: Associativity) -> Result<Self, ConfigError> {
        Ok(StridePrefetcher {
            table: PredictionTable::new(rows, assoc)?,
        })
    }

    /// Creates an ASP from a uniform configuration (slots are ignored:
    /// the RPT makes at most one prediction per miss by definition).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid geometry.
    pub fn from_config(config: &PrefetcherConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Self::new(config.row_count(), config.associativity())
    }

    /// Read-only view of an RPT row, if present (for tests/inspection).
    pub fn entry(&self, pc: Pc) -> Option<&RptEntry> {
        self.table.get(pc)
    }

    /// Number of occupied RPT rows.
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }
}

impl TlbPrefetcher for StridePrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        let page = ctx.page;
        match self.table.get_mut(ctx.pc) {
            None => {
                // First miss by this PC: allocate in Initial state with a
                // zero stride; no prediction yet.
                self.table.insert(
                    ctx.pc,
                    RptEntry {
                        prev_page: page,
                        stride: Distance::ZERO,
                        state: RptState::Initial,
                    },
                );
            }
            Some(entry) => {
                let observed = page.distance_from(entry.prev_page);
                let matches = observed == entry.stride;
                entry.state = match (entry.state, matches) {
                    (RptState::Initial, true) => RptState::Steady,
                    (RptState::Initial, false) => {
                        entry.stride = observed;
                        RptState::Transient
                    }
                    (RptState::Transient, true) => RptState::Steady,
                    (RptState::Transient, false) => {
                        entry.stride = observed;
                        RptState::NoPrediction
                    }
                    (RptState::Steady, true) => RptState::Steady,
                    // A broken steady stride keeps the old stride and
                    // demotes to Initial (classic Chen–Baer).
                    (RptState::Steady, false) => RptState::Initial,
                    (RptState::NoPrediction, true) => RptState::Transient,
                    (RptState::NoPrediction, false) => {
                        entry.stride = observed;
                        RptState::NoPrediction
                    }
                };
                entry.prev_page = page;
                if entry.state == RptState::Steady && entry.stride != Distance::ZERO {
                    if let Some(target) = page.offset(entry.stride) {
                        sink.push(target);
                    }
                }
            }
        }
    }

    fn flush(&mut self) {
        self.table.clear();
    }

    fn set_asid(&mut self, asid: crate::types::Asid) {
        // All of ASP's state lives in tagged RPT rows (prev_page and
        // stride are per-row, not global registers), so the context
        // switch is just the table's tag register.
        self.table.set_asid(asid);
    }

    fn evict_asid(&mut self, asid: crate::types::Asid) {
        self.table.evict_asid(asid);
    }

    fn profile(&self) -> HardwareProfile {
        HardwareProfile {
            name: "ASP",
            rows: RowBudget::Rows(self.table.capacity()),
            row_contents: "PC Tag, Page #, Stride and State",
            location: StateLocation::OnChip,
            index: IndexSource::ProgramCounter,
            memory_ops_per_miss: 0,
            max_prefetches: (1, 1),
        }
    }

    fn name(&self) -> &'static str {
        "ASP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asp(rows: usize) -> StridePrefetcher {
        StridePrefetcher::new(rows, Associativity::Direct).unwrap()
    }

    fn miss(p: &mut StridePrefetcher, pc: u64, page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        p.on_miss(
            &MissContext::demand(VirtPage::new(page), Pc::new(pc)),
            &mut sink,
        );
        sink
    }

    #[test]
    fn needs_two_confirmations_before_prefetching() {
        let mut p = asp(64);
        assert!(miss(&mut p, 4, 100).is_none()); // allocate
        assert!(miss(&mut p, 4, 103).is_none()); // Initial -> Transient (stride 3)
        assert!(miss(&mut p, 4, 106).pages() == vec![VirtPage::new(109)]); // Steady
    }

    #[test]
    fn zero_stride_is_never_prefetched() {
        let mut p = asp(64);
        for _ in 0..5 {
            let d = miss(&mut p, 4, 100);
            assert!(d.is_none());
        }
    }

    #[test]
    fn negative_strides_are_tracked() {
        let mut p = asp(64);
        miss(&mut p, 8, 100);
        miss(&mut p, 8, 98);
        let d = miss(&mut p, 8, 96);
        assert_eq!(d.pages(), vec![VirtPage::new(94)]);
    }

    #[test]
    fn steady_state_survives_a_single_blip() {
        let mut p = asp(64);
        miss(&mut p, 4, 10);
        miss(&mut p, 4, 12);
        assert!(!miss(&mut p, 4, 14).is_none()); // steady, stride 2
                                                 // One irregular reference: Steady -> Initial, stride kept at 2.
        assert!(miss(&mut p, 4, 100).is_none());
        // Back on the old stride relative to the new prev page: 100 -> 102
        // matches the preserved stride, returning straight to Steady.
        let d = miss(&mut p, 4, 102);
        assert_eq!(d.pages(), vec![VirtPage::new(104)]);
    }

    #[test]
    fn erratic_pc_reaches_no_prediction_and_recovers() {
        let mut p = asp(64);
        miss(&mut p, 4, 0);
        miss(&mut p, 4, 7); // Transient, stride 7
        miss(&mut p, 4, 9); // mismatch -> NoPrediction, stride 2
        assert_eq!(p.entry(Pc::new(4)).unwrap().state, RptState::NoPrediction);
        miss(&mut p, 4, 11); // match -> Transient
        let d = miss(&mut p, 4, 13); // match -> Steady, prefetch 15
        assert_eq!(d.pages(), vec![VirtPage::new(15)]);
    }

    #[test]
    fn separate_pcs_do_not_interfere() {
        let mut p = asp(64);
        // PC 0x40 strides by 1; PC 0x80 strides by 10; interleaved.
        miss(&mut p, 0x40, 0);
        miss(&mut p, 0x80, 1000);
        miss(&mut p, 0x40, 1);
        miss(&mut p, 0x80, 1010);
        let d1 = miss(&mut p, 0x40, 2);
        let d2 = miss(&mut p, 0x80, 1020);
        assert_eq!(d1.pages(), vec![VirtPage::new(3)]);
        assert_eq!(d2.pages(), vec![VirtPage::new(1030)]);
    }

    #[test]
    fn table_conflicts_lose_history() {
        // One-row table: the second PC evicts the first.
        let mut p = asp(1);
        miss(&mut p, 0x40, 0);
        miss(&mut p, 0x44, 50); // evicts PC 0x40
        assert!(p.entry(Pc::new(0x40)).is_none());
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn flush_drops_all_rows() {
        let mut p = asp(16);
        miss(&mut p, 4, 1);
        p.flush();
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn profile_matches_table1() {
        let p = asp(256);
        let prof = p.profile();
        assert_eq!(prof.rows, RowBudget::Rows(256));
        assert_eq!(prof.index, IndexSource::ProgramCounter);
        assert_eq!(prof.memory_ops_per_miss, 0);
        assert_eq!(prof.max_prefetches, (1, 1));
    }
}
