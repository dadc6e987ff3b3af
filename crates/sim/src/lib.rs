//! # tlbsim-sim — simulation engines
//!
//! Four engines drive the prefetching mechanisms of `tlbsim-core` through
//! the MMU substrate of `tlbsim-mmu`:
//!
//! * [`Engine`] — the functional simulator behind Figures 7–9 and
//!   Table 2: counts TLB misses, prefetch-buffer hits (the paper's
//!   *prediction accuracy*), and memory traffic; prefetches complete
//!   instantly;
//! * [`TimingEngine`] — the cycle-accounting simulator behind Table 3:
//!   prefetch traffic serialises on a single channel
//!   (`tlbsim_mem::PrefetchChannel`), in-flight prefetches stall the CPU
//!   until arrival, and in-memory prediction state (RP) serialises the
//!   miss handler on its pointer updates;
//! * [`CacheEngine`] and [`HierarchyEngine`] — the same mechanisms over
//!   data-cache lines, and behind an L1/L2 TLB pair.
//!
//! All four share one miss path: one crate-private mechanism wrapper
//! makes the crate's only `on_miss` call into the engine's single
//! candidate sink, and the functional miss path around it (buffer
//! promote-or-walk, fill, filter, install) serves `Engine` and
//! `HierarchyEngine`. Each engine keeps only its own front (a TLB, the
//! L1/L2 pair, Table 3's clocked TLB, or cache lines) and install
//! target (the prefetch buffer, the timed prefetch channel, or the
//! cache); `docs/DESIGN.md` ("One miss path") has the table.
//!
//! [`run_app`], [`compare_schemes`] and the parallel [`sweep`] executor
//! run the synthetic applications of `tlbsim-workloads` through the
//! first two.
//!
//! ## Two axes of parallelism, one pool
//!
//! * **Across jobs** — [`sweep`] distributes a grid of independent jobs
//!   over the machine, one recycled engine per worker; this is how the
//!   figure-scale parameter grids run.
//! * **Within one job** — [`run_app_sharded`] time-slices a single
//!   large run into contiguous shards ([`ShardPlan`]), simulates each
//!   on a private engine shard in parallel, and merges the per-shard
//!   [`SimStats`] deterministically ([`SimStats::merge`] plus
//!   footprint-union and prefetch-buffer boundary reconciliation).
//!   `shards = 1` is bit-identical to the sequential path. Shard
//!   workers are *self-healing*: a panicking shard is retried up to
//!   [`SHARD_ATTEMPTS`] times, then degraded to an in-line sequential
//!   run; [`RunHealth`] on the result reports what recovery happened.
//!
//! Both axes run on one worker pool, [`execute`], sized by
//! [`parallelism`]: a sweep submits its jobs, a sharded run one index
//! task per shard. Each shard task, the in-line degrade and the serving
//! daemon's sequential jobs retry through one attempt loop,
//! [`run_attempts`].
//!
//! ## Multiprogrammed execution
//!
//! A `tlbsim_workloads::MultiStreamSpec` interleaves several streams as
//! one machine's reference stream. [`run_mix`] executes it under a
//! [`SwitchPolicy`] — keep state across switches, flush TLB +
//! prediction state at every switch, or retag it with per-stream ASIDs
//! so switches are flush-free ([`SwitchPolicy::Asid`], with shared or
//! per-stream partitioned tables via [`TablePolicy`]) — and attributes
//! hits/misses/prefetch outcomes *and demand footprints* per stream
//! ([`SimStats::per_stream`]); [`run_mix_sharded`] partitions the
//! interleave at switch boundaries (or whole streams, for eviction-free
//! partitioned ASID runs), which makes flush-on-switch sharding — and
//! its degenerate ASID twin `contexts = 1` — *bit-identical* to the
//! sequential run at any shard count.
//!
//! ## Batching contract
//!
//! The functional [`Engine`] simulates page runs
//! ([`tlbsim_core::PageRun`]): [`Engine::access_runs`] probes the TLB
//! once per run of same-page references, and [`Engine::run_workload`]
//! streams a workload as runs via `Workload::fill_runs` without
//! materialising it. A [`MissStream`] records the TLB misses of one
//! run stream once, and [`sweep_misses`] replays only the miss path
//! over them under a whole grid of configurations that share the TLB
//! geometry and page size. [`Engine::run`] chunks arbitrary iterators
//! through one reusable engine-owned buffer into
//! [`Engine::access_batch`]. The timing, cache and hierarchy engines
//! do per-reference work (cycles, cache traffic, two TLB levels), so
//! their `run(...)` simply calls `access` on each reference. On a miss,
//! every engine hands its single long-lived `CandidateBuf` sink to the
//! mechanism, so the steady-state miss path performs **zero heap
//! allocations** — the `zero_alloc` integration test pins this with a
//! counting allocator. The [`sweep`] executor
//! extends the same discipline across jobs: each worker thread
//! recycles one engine and its buffers for its whole lifetime
//! ([`Engine::try_recycle`]).
//!
//! ## Quick start
//!
//! ```
//! use tlbsim_core::PrefetcherConfig;
//! use tlbsim_sim::{compare_schemes, SimConfig};
//! use tlbsim_workloads::{find_app, Scale};
//!
//! let app = find_app("mpeg-dec").expect("registered");
//! let results = compare_schemes(
//!     app,
//!     Scale::TINY,
//!     &SimConfig::paper_default(),
//!     &[PrefetcherConfig::distance(), PrefetcherConfig::stride()],
//! )?;
//! // mpeg-dec alternates two distances: DP predicts, ASP cannot.
//! assert!(results[0].1.accuracy() > results[1].1.accuracy());
//! # Ok::<(), tlbsim_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod cache_engine;
mod config;
mod engine;
mod hierarchy_engine;
mod miss_stream;
mod multiprog;
mod runner;
mod shard;
mod stats;
mod timing_engine;

pub use cache_engine::{CacheEngine, CacheStats};
pub use config::{SimConfig, SimError};
pub use engine::Engine;
pub use hierarchy_engine::{HierarchyEngine, HierarchyStats};
pub use miss_stream::MissStream;
pub use multiprog::{run_mix, run_mix_sharded, SwitchPolicy, TablePolicy};
pub use runner::{
    compare_schemes, execute, parallelism, run_app, run_app_checkpointed, run_app_timed, sweep,
    sweep_misses, SweepJob, SweepResult, SweepSpec, WorkerScratch,
};
pub use shard::{
    auto_shard_count, resolve_shards, run_app_sharded, run_attempts, RunHealth, ShardOutcome,
    ShardPlan, ShardRange, ShardedRun, AUTO_SHARD_MIN_SLICE, SHARD_ATTEMPTS,
};
pub use stats::{PerStreamStats, SimStats, StreamStats, TimingStats, MAX_STREAMS};
pub use timing_engine::TimingEngine;
