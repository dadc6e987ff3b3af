//! The common interface every TLB prefetching mechanism implements.
//!
//! Following the paper's uniform adaptation (§2), prefetchers observe only
//! the *miss stream* coming out of the TLB: the simulation engine calls
//! [`TlbPrefetcher::on_miss`] once per TLB miss — whether the translation
//! was then found in the prefetch buffer or demand-fetched — passing a
//! reusable [`CandidateBuf`] sink that the mechanism fills with the pages
//! it wants brought into the prefetch buffer, plus the number of extra
//! memory operations spent maintaining prediction state (zero for the
//! on-chip schemes, up to four pointer updates for recency prefetching).
//! The sink-based shape keeps the per-miss path free of heap allocation,
//! and it is the only shape: tests and examples read the same sink.

use std::fmt;

use crate::sink::CandidateBuf;
use crate::types::{Asid, Pc, VirtPage};

/// Everything a mechanism may inspect about one TLB miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissContext {
    /// The virtual page whose translation missed in the TLB.
    pub page: VirtPage,
    /// PC of the instruction that caused the miss (used by ASP).
    pub pc: Pc,
    /// `true` if the translation was found in the prefetch buffer (the
    /// miss still appears in the miss stream; this flag is what makes
    /// tagged sequential prefetching's "first hit to a prefetched entry"
    /// trigger visible).
    pub prefetch_buffer_hit: bool,
    /// The translation evicted from the TLB by this fill, if the TLB was
    /// full. Recency prefetching pushes this entry onto its LRU stack.
    pub evicted_tlb_entry: Option<VirtPage>,
}

impl MissContext {
    /// Convenience constructor for a demand miss with no eviction.
    pub fn demand(page: VirtPage, pc: Pc) -> Self {
        MissContext {
            page,
            pc,
            prefetch_buffer_hit: false,
            evicted_tlb_entry: None,
        }
    }
}

/// Where a mechanism's prediction state lives (Table 1, "Where is the
/// table?").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateLocation {
    /// Dedicated on-chip storage (ASP, MP, DP).
    OnChip,
    /// Piggybacked on the page table in main memory (RP).
    InMemory,
}

impl fmt::Display for StateLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateLocation::OnChip => f.write_str("On-Chip"),
            StateLocation::InMemory => f.write_str("In Memory"),
        }
    }
}

/// What a mechanism indexes its prediction state by (Table 1, "How is the
/// table indexed?").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSource {
    /// Program counter (ASP).
    ProgramCounter,
    /// Missed virtual page number (MP, RP).
    PageNumber,
    /// Distance between the last two misses (DP).
    Distance,
    /// No table at all (sequential prefetching).
    NoTable,
}

impl fmt::Display for IndexSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexSource::ProgramCounter => f.write_str("PC"),
            IndexSource::PageNumber => f.write_str("Page #"),
            IndexSource::Distance => f.write_str("Distance"),
            IndexSource::NoTable => f.write_str("-"),
        }
    }
}

/// A row of the paper's Table 1: the hardware budget of one mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareProfile {
    /// Mechanism name as used in the paper.
    pub name: &'static str,
    /// "How many rows?" — `r` for the table schemes, the page-table entry
    /// count for RP, none for SP.
    pub rows: RowBudget,
    /// "What are the contents of a row?"
    pub row_contents: &'static str,
    /// "Where is the table?"
    pub location: StateLocation,
    /// "How is the table indexed?"
    pub index: IndexSource,
    /// "How many memory system operations per miss (excluding
    /// prefetching)?" — worst case.
    pub memory_ops_per_miss: u32,
    /// "How many prefetches can be initiated?" — inclusive range.
    pub max_prefetches: (u32, u32),
}

/// The row budget of a mechanism's prediction state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBudget {
    /// A configured number of on-chip rows.
    Rows(usize),
    /// One entry per page-table entry.
    PageTableEntries,
    /// No table.
    None,
}

impl fmt::Display for RowBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowBudget::Rows(r) => write!(f, "{r}"),
            RowBudget::PageTableEntries => f.write_str("No. of PTEs"),
            RowBudget::None => f.write_str("-"),
        }
    }
}

/// A TLB prefetching mechanism driven by the TLB miss stream.
///
/// Implementations are deterministic state machines: the same miss stream
/// always produces the same prefetch decisions, which the test suite
/// relies on heavily.
///
/// The hot entry point is [`on_miss`](Self::on_miss): the caller owns a
/// reusable [`CandidateBuf`] and the mechanism writes its candidates
/// straight into it — no allocation, no intermediate collection.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{
///     CandidateBuf, DistancePrefetcher, MissContext, Pc, PrefetcherConfig, TlbPrefetcher,
///     VirtPage,
/// };
///
/// let mut dp = DistancePrefetcher::from_config(&PrefetcherConfig::distance())?;
/// let mut sink = CandidateBuf::new();
/// // Teach it that +1 is followed by +1, then watch it predict.
/// for n in [10u64, 11, 12] {
///     sink.clear();
///     dp.on_miss(&MissContext::demand(VirtPage::new(n), Pc::new(0x40)), &mut sink);
/// }
/// sink.clear();
/// dp.on_miss(&MissContext::demand(VirtPage::new(13), Pc::new(0x40)), &mut sink);
/// assert!(sink.pages().contains(&VirtPage::new(14)));
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
pub trait TlbPrefetcher {
    /// Reacts to one TLB miss, pushing the pages to prefetch (and any
    /// maintenance traffic) into `sink`.
    ///
    /// The caller provides `sink` already cleared; candidates are pushed
    /// in priority order. This path must not allocate.
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf);

    /// Drops all learned state (e.g. on a flushing context switch).
    /// Geometry is preserved.
    fn flush(&mut self);

    /// Switches the mechanism to context `asid` without dropping state
    /// (flush-free context switch): prediction-table rows are tagged and
    /// any per-context registers (previous miss, distance registers, the
    /// recency stack) are banked and swapped. Stateless mechanisms
    /// ignore this.
    ///
    /// May allocate (growing the register bank for a new context) —
    /// switch time is not the zero-alloc miss path.
    fn set_asid(&mut self, _asid: Asid) {}

    /// Drops every piece of state learned under `asid` — the targeted
    /// analogue of [`flush`](Self::flush), used when an ASID is recycled
    /// for a new context. With only one context ever used, this is
    /// exactly `flush`.
    fn evict_asid(&mut self, _asid: Asid) {}

    /// The mechanism's hardware budget (its row of the paper's Table 1).
    fn profile(&self) -> HardwareProfile;

    /// Short mechanism name ("SP", "ASP", "MP", "RP", "DP", "none").
    fn name(&self) -> &'static str;
}

/// The no-prefetching baseline used to normalise execution cycles.
///
/// It never predicts anything, costs nothing, and exists so that engine
/// code can treat "no prefetching" uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates the baseline prefetcher.
    pub fn new() -> Self {
        NullPrefetcher
    }
}

impl TlbPrefetcher for NullPrefetcher {
    fn on_miss(&mut self, _ctx: &MissContext, _sink: &mut CandidateBuf) {}

    fn flush(&mut self) {}

    fn profile(&self) -> HardwareProfile {
        HardwareProfile {
            name: "none",
            rows: RowBudget::None,
            row_contents: "-",
            location: StateLocation::OnChip,
            index: IndexSource::NoTable,
            memory_ops_per_miss: 0,
            max_prefetches: (0, 0),
        }
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_prefetcher_does_nothing() {
        let mut p = NullPrefetcher::new();
        let mut sink = CandidateBuf::new();
        p.on_miss(
            &MissContext::demand(VirtPage::new(1), Pc::new(2)),
            &mut sink,
        );
        assert!(sink.is_none());
        assert_eq!(p.name(), "none");
        p.flush();
    }

    #[test]
    fn miss_context_demand_defaults() {
        let ctx = MissContext::demand(VirtPage::new(5), Pc::new(6));
        assert!(!ctx.prefetch_buffer_hit);
        assert!(ctx.evicted_tlb_entry.is_none());
    }

    #[test]
    fn display_impls_are_stable() {
        assert_eq!(StateLocation::OnChip.to_string(), "On-Chip");
        assert_eq!(StateLocation::InMemory.to_string(), "In Memory");
        assert_eq!(IndexSource::Distance.to_string(), "Distance");
        assert_eq!(RowBudget::Rows(256).to_string(), "256");
        assert_eq!(RowBudget::PageTableEntries.to_string(), "No. of PTEs");
    }
}
