//! # tlb-distance
//!
//! A from-scratch reproduction of **“Going the Distance for TLB
//! Prefetching: An Application-Driven Study”** (Kandiraju &
//! Sivasubramaniam, ISCA 2002): distance prefetching for TLBs, the four
//! mechanisms it is compared against, the TLB/prefetch-buffer/memory
//! substrate, 56 synthetic application models, and the full evaluation
//! harness regenerating every table and figure of the paper.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`core`] | `tlbsim-core` | the prefetching mechanisms (DP + SP/ASP/MP/RP) and prediction tables |
//! | [`mmu`] | `tlbsim-mmu` | TLB, prefetch buffer, page table |
//! | [`mem`] | `tlbsim-mem` | prefetch-traffic channel and timing parameters |
//! | [`trace`] | `tlbsim-trace` | binary/text trace formats, decode policies and fault injection |
//! | [`workloads`] | `tlbsim-workloads` | the 56-application synthetic suite |
//! | [`sim`] | `tlbsim-sim` | functional and timing simulation engines |
//! | [`service`] | `tlbsim-service` | simulation daemon, wire protocol and client |
//! | [`experiments`] | `tlbsim-experiments` | Table 1–3 / Figure 7–9 regeneration + throughput telemetry |
//!
//! ## The zero-allocation miss path
//!
//! The simulator's inner loop — the paper's Figure 1 evaluation loop —
//! runs billions of times across the sweeps, so its hot path is
//! allocation-free by contract:
//!
//! * mechanisms write prefetch candidates into a caller-owned, inline
//!   [`core::CandidateBuf`] sink ([`core::TlbPrefetcher::on_miss`]),
//!   the one shape every engine, test and example reads;
//! * the functional engine simulates page runs, one TLB probe per run
//!   (`access_runs`), streams workloads as runs via
//!   [`workloads::Workload::fill_runs`], and keeps one sink plus one
//!   run buffer for its whole lifetime;
//! * the parallel [`sim::sweep`] executor recycles one engine per worker
//!   thread across jobs ([`sim::Engine::try_recycle`]);
//! * the `zero_alloc` integration test in `tlbsim-sim` pins the
//!   guarantee with a counting global allocator.
//!
//! ## Sharded execution
//!
//! Parallelism comes on two axes: [`sim::sweep`] spreads a *grid* of
//! independent jobs over the machine, and [`sim::run_app_sharded`]
//! spreads *one* large run — the access stream is time-sliced into a
//! static [`sim::ShardPlan`], each contiguous slice runs on a private
//! engine shard ([`workloads::Workload::skip_accesses`] seeks the
//! stream to the slice start without replaying the prefix), and the
//! per-shard [`sim::SimStats`] merge deterministically with a
//! footprint union plus a prefetch-buffer boundary-reconciliation
//! counter. One shard is bit-identical to the sequential path; the
//! `sharded_run` bench gate holds ≥ 2× throughput at 4 shards on
//! multi-core hosts, and `xp replay|mix|submit --shards N` drives a
//! trace, a mix or a served job through the sharded path. The figure
//! grids stay job-parallel: [`sim::sweep`] records one TLB miss stream
//! per application, TLB geometry and page size and replays every
//! scheme's miss path over it.
//!
//! ## Trace-driven execution
//!
//! The paper's methodology is trace-driven, and recorded traces are a
//! first-class input here: [`trace::MmapTrace`] memory-maps a binary
//! `TLBT` file (via the one `unsafe`-bearing shim crate;
//! read-whole-file fallback elsewhere), validates it once, and decodes
//! record batches zero-copy into the engines' buffers;
//! [`workloads::TraceWorkload`] adapts a trace to the
//! [`workloads::StreamSpec`] surface so [`sim::run_app`],
//! [`sim::sweep`] and [`sim::run_app_sharded`] accept application
//! models and traces interchangeably — sharded replay seeks each
//! worker's cursor in O(1) because records are fixed 17-byte cells.
//! `xp record` / `xp replay` drive it from the command line, the
//! differential harness in `tests/trace_replay.rs` pins replayed
//! statistics bit-identical to generator runs, and the `trace_replay`
//! bench gate holds replay at ≥ 0.8× generator throughput. The byte
//! format is specified normatively in `docs/TRACE_FORMAT.md`.
//!
//! ## Multiprogrammed execution
//!
//! [`workloads::MultiStreamSpec`] interleaves up to 8 streams — models
//! and traces alike — into one deterministic multiprogrammed stream
//! under a [`workloads::Schedule`] (round-robin, weighted, or
//! seeded-random quanta). The mix is itself a
//! [`workloads::StreamSpec`], so the plain runners take it unchanged;
//! the switch-aware [`sim::run_mix`] / [`sim::run_mix_sharded`]
//! additionally flush translation + prediction state at context
//! switches and attribute hits/misses/prefetch outcomes per stream
//! ([`sim::SimStats::per_stream`]). `xp mix` sweeps the 30-scheme grid
//! over an interleave, and the `multiprogram` bench gate holds
//! interleaved execution at ≥ 0.8× single-stream throughput. The
//! architecture is documented in `docs/DESIGN.md`.
//!
//! ## Fault-tolerant execution
//!
//! Damaged inputs and crashing workers are first-class, tested
//! scenarios, not undefined behaviour. [`trace::DecodePolicy`] selects
//! between strict decode (any damage is a typed error — the default
//! everywhere) and quarantine decode (skip unparseable records up to a
//! budget, resync on the 17-byte grid, report the loss in a
//! [`trace::TraceHealth`]); [`trace::FaultPlan`] bakes deterministic
//! seeded faults — corrupt kind bytes, wild vaddrs, torn tails, worker
//! panics — into trace images or live streams
//! ([`workloads::ChaosSpec`]) for chaos testing; and the sharded executors self-heal: a panicking
//! shard worker is retried, then degraded to in-line sequential
//! execution, with recovery reported in [`sim::RunHealth`] and the
//! recovered statistics bit-identical to an undisturbed run. The fault
//! matrix in `tests/fault_matrix.rs` pins every fault kind × policy ×
//! execution mode; `xp check` / `xp chaos` drive the same machinery
//! from the command line. The failure model is documented in
//! `docs/DESIGN.md`.
//!
//! ## Serving layer
//!
//! The simulator also runs as a long-lived daemon:
//! [`service::Server`] listens on a Unix-domain socket, speaks a
//! length-prefixed versioned binary protocol (specified normatively in
//! `docs/PROTOCOL.md`), and multiplexes submitted jobs — recorded
//! traces or registered application models under any scheme — onto a
//! bounded-queue worker pool. Every fault-tolerance guarantee carries
//! over per job: [`service::JobSpec`] selects the
//! [`trace::DecodePolicy`], worker panics are retried and then surfaced
//! as typed [`service::ErrorCode`]s while the daemon keeps serving, and
//! a snapshot cadence streams incremental [`sim::SimStats`] checkpoints
//! that finish bit-identical to the equivalent batch run.
//! [`service::Client`] is the in-process client; `xp serve` /
//! `xp submit` / `xp shutdown` drive it from the command line.
//!
//! ## Quick start
//!
//! ```
//! use tlb_distance::prelude::*;
//!
//! // Simulate SPEC's galgel under the paper's default configuration
//! // (128-entry fully-associative TLB, 16-entry prefetch buffer,
//! // distance prefetcher with r = 256, s = 2).
//! let app = find_app("galgel").expect("registered application");
//! let stats = run_app(app, Scale::TINY, &SimConfig::paper_default())?;
//! assert!(stats.accuracy() > 0.8);
//! # Ok::<(), tlb_distance::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tlbsim_core as core;
pub use tlbsim_experiments as experiments;
pub use tlbsim_mem as mem;
pub use tlbsim_mmu as mmu;
pub use tlbsim_service as service;
pub use tlbsim_sim as sim;
pub use tlbsim_trace as trace;
pub use tlbsim_workloads as workloads;

/// The most common imports for working with the simulator.
pub mod prelude {
    pub use tlbsim_core::{
        Associativity, ConfidenceConfig, Distance, MemoryAccess, MissContext, PageSize, Pc,
        PrefetcherConfig, PrefetcherKind, TlbPrefetcher, VirtAddr, VirtPage,
    };
    pub use tlbsim_mem::TimingParams;
    pub use tlbsim_mmu::{PrefetchBuffer, Tlb, TlbConfig};
    pub use tlbsim_service::{Client, JobOutcome, JobSpec, Server, ServerConfig, ServiceError};
    pub use tlbsim_sim::{
        compare_schemes, run_app, run_app_sharded, run_app_timed, run_mix, run_mix_sharded, Engine,
        PerStreamStats, RunHealth, ShardedRun, SimConfig, SimError, SimStats, StreamStats,
        SwitchPolicy, TablePolicy, TimingEngine, SHARD_ATTEMPTS,
    };
    pub use tlbsim_trace::{DecodePolicy, FaultKind, FaultPlan, TraceHealth};
    pub use tlbsim_workloads::{
        all_apps, find_app, suite_apps, AppSpec, ChaosSpec, MultiStreamSpec, Scale, Schedule,
        StreamSpec, Suite, TraceWorkload, Workload,
    };
}
