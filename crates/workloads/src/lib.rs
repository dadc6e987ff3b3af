//! # tlbsim-workloads — the 56-application synthetic suite
//!
//! The paper evaluates TLB prefetching on 56 applications across four
//! benchmark suites. Those binaries (and the SimpleScalar/Shade tracing
//! infrastructure) are not reproducible here, but every conclusion in
//! the paper is a property of the page-level *reference stream*, so this
//! crate rebuilds each application as a parameterised synthetic model
//! whose miss-stream shape matches the behaviour §3.2 attributes to it.
//!
//! Two layers:
//!
//! * [`primitives`] — reference-pattern generators keyed to the paper's
//!   behaviour classes (§1): [`StridedScan`]/[`LoopedScan`] (classes a/b),
//!   [`DistanceCycle`] (classes c/d), [`PointerChase`]/[`BlockChase`] and
//!   [`Alternation`] (history-repeating irregularity), [`RandomWalk`] and
//!   [`HotSet`] (class e / low-miss), plus [`Mix`]/[`Interleave`]/
//!   [`phases`] combinators;
//! * [`apps`] — the 56 registered [`AppSpec`] models composed from those
//!   primitives, with per-application rationale in the module docs.
//!
//! ## Streaming and splitting
//!
//! A [`Workload`] is consumed as a plain iterator, chunk-at-a-time
//! through [`Workload::fill_batch`], or — on the functional engine's
//! hot path — as page runs through [`Workload::fill_runs`], which the
//! generators write one per visit without expanding it. Streams are
//! also *splittable*:
//! [`AppSpec::stream_len`] reports the exact access count of a run by
//! visit arithmetic alone, and [`Workload::skip_accesses`] seeks to any
//! mid-stream position at visit granularity without expanding the
//! prefix — the pair of operations that lets `tlbsim-sim`'s sharded
//! executor hand contiguous time slices of one run to parallel workers.
//!
//! The same streaming surface is source-agnostic: [`StreamSpec`]
//! abstracts "a named, splittable reference stream", implemented by the
//! registered [`AppSpec`] models *and* by [`TraceWorkload`], which
//! replays a recorded binary trace zero-copy from a memory-mapped file.
//! Everything downstream — the engines, the sweep executor, the sharded
//! runner — accepts either interchangeably. [`MultiStreamSpec`] closes
//! the loop: any mix of models and traces composes into one
//! deterministic *multiprogrammed* interleave under a pluggable
//! [`Schedule`], and the composition is itself a [`StreamSpec`].
//!
//! ## Quick start
//!
//! ```
//! use tlbsim_workloads::{find_app, Scale};
//!
//! let galgel = find_app("galgel").expect("registered");
//! let n = galgel.workload(Scale::TINY).count();
//! assert!(n > 10_000);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chaos;
mod class;
mod gen;
mod multi;
mod scale;
mod spec;
mod trace;

pub mod apps;
pub mod primitives;

pub use apps::{all_apps, find_app, high_miss_apps, suite_apps, table3_apps, AppSpec, Suite};
pub use chaos::ChaosSpec;
pub use class::ReferenceClass;
pub use gen::{AccessSource, Emit, Visit, VisitStream, Workload};
pub use multi::{MixError, MultiStreamSpec, Schedule, Segment, Segments, MAX_STREAMS};
pub use primitives::{
    phases, Alternation, BlockChase, DistanceCycle, HotSet, Interleave, LoopedScan, Mix,
    PointerChase, RandomWalk, RotatePc, StridedScan,
};
pub use scale::Scale;
pub use spec::StreamSpec;
pub use trace::TraceWorkload;
