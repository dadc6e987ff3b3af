//! # tlbsim-core — TLB prefetching mechanisms
//!
//! This crate implements the contribution of *Going the Distance for TLB
//! Prefetching: An Application-Driven Study* (Kandiraju & Sivasubramaniam,
//! ISCA 2002): **distance prefetching** ([`DistancePrefetcher`]), together
//! with the four mechanisms the paper compares against, all adapted to
//! operate on the TLB miss stream:
//!
//! * [`SequentialPrefetcher`] — tagged sequential prefetching (SP),
//! * [`StridePrefetcher`] — Chen & Baer arbitrary stride prefetching (ASP),
//! * [`MarkovPrefetcher`] — Joseph & Grunwald Markov prefetching (MP),
//! * [`RecencyPrefetcher`] — Saulsbury et al. recency prefetching (RP),
//! * [`NullPrefetcher`] — the no-prefetching baseline.
//!
//! Three adaptive families extend the static grid, each test-proven
//! bit-identical to a static oracle in its degenerate configuration:
//!
//! * [`ConfidencePrefetcher`] — a 2-bit saturating confidence bank that
//!   throttles any base mechanism's degree and issue (threshold 0 with
//!   unlimited degree ≡ the bare base),
//! * [`TrendStridePrefetcher`] — majority vote over a sliding delta
//!   window (TP; window 2 ≡ ASP on monotone streams),
//! * [`EnsemblePrefetcher`] — set-dueling selection among component
//!   mechanisms (EP; a single component ≡ that component).
//!
//! All mechanisms implement [`TlbPrefetcher`]: they receive one
//! [`MissContext`] per TLB miss and push the pages to pull into the
//! prefetch buffer — plus any state-maintenance memory traffic — into a
//! caller-owned [`CandidateBuf`] sink. The shared prediction-table
//! hardware (`r` rows, `s` slots, D/2/4/F indexing — the knobs the paper
//! sweeps) lives in [`PredictionTable`] and [`SlotList`].
//! [`TaggedLru`] is the O(1) set-associative, ASID-tagged LRU map under
//! `tlbsim-mmu`'s TLB, prefetch buffer and data cache and under the
//! prediction tables' sets of more than four ways, and
//! [`BuildPageHasher`] the cheap integer hasher for the simulator's
//! page-keyed hash maps.
//!
//! ## The zero-allocation miss path
//!
//! The sink API exists because the evaluation loop runs billions of
//! times across the paper's sweeps. The contract:
//!
//! * callers allocate **one** [`CandidateBuf`] per simulation (it is a
//!   plain inline array) and [`clear`](CandidateBuf::clear) it before
//!   every [`TlbPrefetcher::on_miss`] call;
//! * mechanisms push candidates in priority order and never allocate on
//!   the miss path — anything allocating is segregated into explicitly
//!   named `*_snapshot` debug accessors.
//!
//! ## Quick start
//!
//! ```
//! use tlbsim_core::{CandidateBuf, MissContext, Pc, PrefetcherConfig, VirtPage};
//!
//! // The paper's representative configuration: r = 256, s = 2, direct.
//! let mut dp = PrefetcherConfig::distance().build()?;
//! let mut sink = CandidateBuf::new();
//!
//! // Feed it a miss stream with alternating distances +1, +2 (the
//! // paper's example string 1, 2, 4, 5, 7, 8 …).
//! for page in [1u64, 2, 4, 5, 7, 8] {
//!     sink.clear();
//!     dp.on_miss(&MissContext::demand(VirtPage::new(page), Pc::new(0)), &mut sink);
//! }
//! // The pattern is now captured in two table rows; distance +2 at page
//! // 10 predicts +1 => page 11.
//! sink.clear();
//! dp.on_miss(&MissContext::demand(VirtPage::new(10), Pc::new(0)), &mut sink);
//! assert_eq!(sink.pages(), &[VirtPage::new(11)]);
//! # Ok::<(), tlbsim_core::ConfigError>(())
//! ```
//!
//! The TLB, prefetch buffer and page table live in `tlbsim-mmu`; the
//! simulation engines that drive these mechanisms live in `tlbsim-sim`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod assoc;
mod banked;
mod confidence;
mod config;
mod distance;
mod ensemble;
mod hash;
mod lru;
mod markov;
mod prefetcher;
mod recency;
mod scheme;
mod sequential;
mod sink;
mod slots;
mod stride;
mod table;
mod trend;
mod types;

pub use assoc::{Associativity, InvalidGeometry};
pub use confidence::{ConfidenceConfig, ConfidencePrefetcher};
pub use config::{ConfigError, PrefetcherConfig, PrefetcherKind};
pub use distance::DistancePrefetcher;
pub use ensemble::EnsemblePrefetcher;
pub use hash::{BuildPageHasher, PageHasher};
pub use lru::{Displaced, TaggedLru};
pub use markov::MarkovPrefetcher;
pub use prefetcher::{
    HardwareProfile, IndexSource, MissContext, NullPrefetcher, RowBudget, StateLocation,
    TlbPrefetcher,
};
pub use recency::RecencyPrefetcher;
pub use sequential::SequentialPrefetcher;
pub use sink::CandidateBuf;
pub use slots::SlotList;
pub use stride::{RptEntry, RptState, StridePrefetcher};
pub use table::{PredictionTable, TableKey};
pub use trend::TrendStridePrefetcher;
pub use types::{
    AccessKind, Asid, Distance, InvalidPageSize, MemoryAccess, PageRun, PageSize, Pc, PhysPage,
    VirtAddr, VirtPage,
};
