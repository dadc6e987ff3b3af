//! Sharding one large run across worker threads.
//!
//! The [`sweep`](crate::sweep) executor parallelises *across* jobs; this
//! module parallelises *within* one job, so a single figure-scale run
//! can use the whole machine. The access stream is time-sliced into
//! contiguous, statically planned chunks ([`ShardPlan`]); each worker
//! thread owns a private TLB + prefetch-engine shard built from the same
//! [`SimConfig`], positions its workload with
//! [`Workload::skip_accesses`] (visit-granularity seeking — no prefix
//! replay), and simulates exactly its slice. Per-shard [`SimStats`] are
//! then folded in shard order with [`SimStats::merge`], with two
//! reconciliation steps at shard boundaries:
//!
//! * **footprint union** — distinct pages touched by several shards
//!   must count once, so the merged
//!   [`footprint_pages`](SimStats::footprint_pages) is recomputed as the
//!   exact union of the shards' page sets rather than the sum;
//! * **in-flight prefetch-buffer state** — prefetches still resident in
//!   a non-final shard's buffer at its boundary are translations a
//!   sequential run could still have promoted later; their count is
//!   surfaced as [`ShardedRun::boundary_resident_prefetches`] so the
//!   sharding approximation is quantified, not silent.
//!
//! Shards run as index tasks on the crate's one worker pool
//! ([`execute`]); each task retries a panicking slice through
//! [`run_attempts`], and a slice whose attempts all panic is run once
//! more in-line. Because the plan is static and the fold order is the
//! shard order, the merged result depends only on `(app, scale, config,
//! shards)` — never on which worker finished first. With `shards = 1` the executor
//! degenerates to a plain sequential run and the merged statistics are
//! bit-identical to [`run_app`](crate::run_app) (both properties are
//! pinned by tests).
//!
//! ## What sharding approximates
//!
//! Every shard starts cold: empty TLB, empty prefetch buffer, unlearned
//! prediction tables. Merged counters are therefore exact for the
//! simulated slices but differ slightly from a sequential run around the
//! `shards − 1` boundaries (extra cold misses, unlearned predictions).
//! The paper's headline metrics are ratios over millions of events, so
//! boundary effects vanish at figure scale — but fidelity-critical runs
//! should use `shards = 1`, which is the default everywhere.

use std::panic::AssertUnwindSafe;

use tlbsim_mmu::PageTable;
use tlbsim_workloads::{Scale, StreamSpec};

use crate::config::{SimConfig, SimError};
use crate::engine::{Engine, PageSet};
use crate::runner::{execute, parallelism};
use crate::stats::SimStats;

/// Worker attempts each shard gets on the pool before its slice is
/// degraded to in-line execution on the coordinating thread (see
/// [`RunHealth`]).
pub const SHARD_ATTEMPTS: usize = 2;

/// The smallest slice the automatic shard planner will hand a worker.
///
/// Below this, per-shard cold-start (empty TLB, unlearned tables) and
/// thread bring-up dominate the slice itself, so [`auto_shard_count`]
/// caps the shard count at `stream_len / AUTO_SHARD_MIN_SLICE` even on
/// very wide machines.
pub const AUTO_SHARD_MIN_SLICE: u64 = 8192;

/// Picks a shard count for a stream of `stream_len` accesses: the
/// machine's [`parallelism`], clamped so no shard's slice falls below
/// [`AUTO_SHARD_MIN_SLICE`], and always at least 1.
///
/// This is what `--shards auto` and the serving layer's default resolve
/// to — a hardcoded shard count models one machine, while the fleet
/// this daemon runs on varies from laptops to many-core servers.
pub fn auto_shard_count(stream_len: u64) -> usize {
    let cpus = parallelism();
    let by_length = usize::try_from((stream_len / AUTO_SHARD_MIN_SLICE).max(1)).unwrap_or(cpus);
    cpus.min(by_length).max(1)
}

/// Resolves a user-facing shard request: `0` means "auto" (see
/// [`auto_shard_count`]), any other value is taken literally — clamped
/// to the stream length (and at least 1), so a request like
/// `--shards 64` over a 10-access stream plans 10 single-access shards
/// instead of 54 empty ones whose workers spin up for nothing.
pub fn resolve_shards(requested: usize, stream_len: u64) -> usize {
    if requested == 0 {
        auto_shard_count(stream_len)
    } else {
        let cap = usize::try_from(stream_len.max(1)).unwrap_or(usize::MAX);
        requested.min(cap).max(1)
    }
}

/// What it took to finish a run: the self-healing executor's recovery
/// counters plus the input damage the workload layer absorbed.
///
/// All-zero ([`RunHealth::is_clean`]) on the happy path. The sharded
/// runners attach it to every [`ShardedRun`], so a result produced
/// through retries, degraded shards, or a quarantine-decoded trace says
/// so — the statistics themselves are unchanged by recovery (a retried
/// or degraded shard re-simulates exactly the slice the plan assigned
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunHealth {
    /// Worker attempts that panicked and were retried on the pool.
    pub retries: u64,
    /// Shards whose workers exhausted [`SHARD_ATTEMPTS`] and ran
    /// in-line on the coordinating thread instead.
    pub degraded_shards: u64,
    /// Input records the workload layer quarantined at decode (see
    /// `StreamSpec::quarantined_records`).
    pub quarantined_records: u64,
}

impl RunHealth {
    /// Whether the run needed no recovery and lost no input.
    pub fn is_clean(&self) -> bool {
        *self == RunHealth::default()
    }
}

impl std::fmt::Display for RunHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        write!(
            f,
            "{} retries, {} degraded shards, {} quarantined records",
            self.retries, self.degraded_shards, self.quarantined_records
        )
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

/// Runs `task` until an attempt returns without panicking, at most
/// `attempts` times: the first clean result, or the last panic's
/// message, with the number of attempts that panicked.
///
/// A panic is contained to its attempt (`catch_unwind`), and a retried
/// task re-runs from the top, so a task that rebuilds its state per
/// attempt gives the result of an undisturbed run. Pooled shard tasks
/// and the daemon's sequential jobs run it with [`SHARD_ATTEMPTS`], the
/// in-line degrade tier with one attempt.
///
/// ```
/// let mut calls = 0;
/// let (outcome, panics) = tlbsim_sim::run_attempts(3, || {
///     calls += 1;
///     assert!(calls > 1, "first attempt fails");
///     calls
/// });
/// assert_eq!((outcome, panics), (Ok(2), 1));
/// ```
pub fn run_attempts<T>(attempts: usize, mut task: impl FnMut() -> T) -> (Result<T, String>, u64) {
    let mut panics = 0;
    let mut message = String::new();
    for _ in 0..attempts {
        match std::panic::catch_unwind(AssertUnwindSafe(&mut task)) {
            Ok(result) => return (Ok(result), panics),
            Err(payload) => {
                panics += 1;
                message = panic_message(payload);
            }
        }
    }
    (Err(message), panics)
}

/// Drives the self-healing execution protocol for one family of shard
/// tasks: each index is one [`execute`] task that runs [`run_attempts`]
/// with [`SHARD_ATTEMPTS`]; an index whose attempts all panicked is
/// degraded to one more attempt in-line on this thread, and a panic
/// there is a typed [`SimError::ShardPanicked`].
///
/// Returns the per-index results in index order — scheduling never
/// affects them — plus the [`RunHealth`] recovery counters
/// (`quarantined_records` is left 0 for the caller to fill).
pub(crate) fn run_shards_recovering<T, F>(
    count: usize,
    task: F,
) -> Result<(Vec<T>, RunHealth), SimError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let pooled = execute((0..count).collect(), |_, index| {
        run_attempts(SHARD_ATTEMPTS, || task(index))
    });
    let mut health = RunHealth::default();
    let mut results = Vec::with_capacity(count);
    for (index, (outcome, panics)) in pooled.into_iter().enumerate() {
        let result = match outcome {
            Ok(result) => {
                health.retries += panics;
                result
            }
            Err(_) => {
                // Every pooled attempt panicked; the last one was not
                // retried on the pool but degraded to in-line execution.
                health.retries += panics - 1;
                health.degraded_shards += 1;
                run_attempts(1, || task(index))
                    .0
                    .map_err(|message| SimError::ShardPanicked {
                        shard: index,
                        message,
                    })?
            }
        };
        results.push(result);
    }
    Ok((results, health))
}

/// One shard's contiguous slice of the access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Stream position of the first access in the slice.
    pub start: u64,
    /// Number of accesses in the slice.
    pub len: u64,
}

/// A static partition of a reference stream into contiguous shard
/// ranges.
///
/// The first `total % shards` ranges are one access longer than the
/// rest, so the partition is as even as possible, covers the stream
/// exactly, and depends only on `(total, shards)` — the anchor of the
/// executor's determinism.
///
/// # Examples
///
/// ```
/// use tlbsim_sim::ShardPlan;
///
/// let plan = ShardPlan::split(10, 4);
/// let lens: Vec<u64> = plan.ranges().iter().map(|r| r.len).collect();
/// assert_eq!(lens, [3, 3, 2, 2]);
/// assert_eq!(plan.ranges()[2].start, 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<ShardRange>,
}

impl ShardPlan {
    /// Splits `total` accesses into `shards` contiguous ranges.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero; the public executor surfaces that as
    /// [`SimError::ZeroShards`] before planning.
    pub fn split(total: u64, shards: usize) -> Self {
        assert!(shards > 0, "shard plan requires at least one shard");
        let shards_u64 = shards as u64;
        let base = total / shards_u64;
        let longer = total % shards_u64;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0;
        for index in 0..shards_u64 {
            let len = base + u64::from(index < longer);
            ranges.push(ShardRange { start, len });
            start += len;
        }
        ShardPlan { ranges }
    }

    /// Splits `total` accesses into `shards` contiguous ranges whose
    /// interior boundaries fall on multiples of `alignment`.
    ///
    /// With `alignment == 1` (or 0, which is treated as 1) the plan is
    /// **identical** to [`ShardPlan::split`] — the sequential-equality
    /// pins on generator workloads are untouched. For larger alignments
    /// the stream's whole alignment units are split as evenly as
    /// [`ShardPlan::split`] splits accesses, and the final shard absorbs
    /// the sub-unit remainder; when the stream holds fewer whole units
    /// than shards, leading shards plan empty ranges (which workers
    /// skip for free), never misaligned ones.
    ///
    /// This is what lets block-compressed (v2) trace replay shard
    /// without paying delta decoding at the cuts: the workloads layer
    /// advertises its records-per-block via `StreamSpec::seek_alignment`
    /// and every worker's O(1) seek then lands exactly on a block
    /// restart.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, as for [`ShardPlan::split`].
    pub fn split_aligned(total: u64, shards: usize, alignment: u64) -> Self {
        if alignment <= 1 {
            return Self::split(total, shards);
        }
        let units = total / alignment;
        let unit_plan = Self::split(units, shards);
        let mut ranges = Vec::with_capacity(shards);
        for (index, unit_range) in unit_plan.ranges.iter().enumerate() {
            let start = unit_range.start * alignment;
            let end = if index + 1 == unit_plan.ranges.len() {
                total
            } else {
                (unit_range.start + unit_range.len) * alignment
            };
            ranges.push(ShardRange {
                start,
                len: end - start,
            });
        }
        ShardPlan { ranges }
    }

    /// The planned ranges, in stream order.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Total accesses covered by the plan.
    pub fn total(&self) -> u64 {
        self.ranges.iter().map(|r| r.len).sum()
    }
}

/// One shard's outcome inside a [`ShardedRun`].
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The slice this shard simulated.
    pub range: ShardRange,
    /// The shard's own counters (footprint is shard-local).
    pub stats: SimStats,
    /// Prefetches still resident in this shard's buffer when its slice
    /// ended — issued but never promoted.
    pub resident_prefetches: u64,
}

/// The merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Deterministically merged statistics: counters summed in shard
    /// order, footprint replaced by the exact union of shard page sets.
    pub merged: SimStats,
    /// Per-shard outcomes, in stream order.
    pub shards: Vec<ShardOutcome>,
    /// Shard-boundary reconciliation: the summed prefetch-buffer
    /// residency of every *non-final* shard at the end of its slice.
    /// These are the in-flight translations a sequential run could still
    /// have used; `0` when `shards == 1`, where the run is bit-identical
    /// to the sequential path.
    pub boundary_resident_prefetches: u64,
    /// What it took to produce this result: worker retries, shards
    /// degraded to in-line execution, and input records lost to
    /// quarantine decode. All-zero on the happy path.
    pub health: RunHealth,
}

/// Partitions one run — of a registered application model or a recorded
/// trace (any [`StreamSpec`]) — across `shards` worker threads and
/// merges the per-shard statistics deterministically.
///
/// Trace replay shards especially cheaply: a generator shard seeks by
/// visit arithmetic, while a trace shard's cursor positions itself with
/// one O(1) offset computation into the shared mapping.
///
/// Shards run as index tasks on the [`execute`] pool, which holds at
/// most [`parallelism`] threads (extra shards queue), and results are
/// folded in shard order, so the output is independent of worker
/// scheduling and arbitrary shard counts cannot exhaust OS threads.
/// With `shards = 1` the result is bit-identical to [`run_app`].
///
/// The executor is self-healing: a worker attempt that panics
/// mid-slice (a poisoned allocator, a chaos-injected fault) is retried
/// on the pool up to [`SHARD_ATTEMPTS`] times, then the slice is
/// degraded to in-line sequential execution on the calling thread;
/// recovery is reported in [`ShardedRun::health`], and because a
/// retried or degraded shard re-simulates exactly its planned slice,
/// the recovered statistics are identical to an undisturbed run's.
///
/// # Errors
///
/// Returns [`SimError::ZeroShards`] for `shards == 0`, the
/// configuration's own error if it is invalid, or
/// [`SimError::ShardPanicked`] if a shard keeps panicking even when run
/// in-line (a persistent fault, not a transient one).
///
/// # Examples
///
/// ```
/// use tlbsim_sim::{run_app, run_app_sharded, SimConfig};
/// use tlbsim_workloads::{find_app, Scale};
///
/// let app = find_app("galgel").expect("registered");
/// let config = SimConfig::paper_default();
/// let sharded = run_app_sharded(app, Scale::TINY, &config, 4)?;
/// assert_eq!(sharded.shards.len(), 4);
///
/// // Sharding preserves the exact access and miss totals, and the
/// // merged accuracy tracks the sequential run at figure scale.
/// let sequential = run_app(app, Scale::TINY, &config)?;
/// assert_eq!(sharded.merged.accesses, sequential.accesses);
/// assert!((sharded.merged.accuracy() - sequential.accuracy()).abs() < 0.05);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
///
/// [`run_app`]: crate::run_app
pub fn run_app_sharded<S: StreamSpec + ?Sized>(
    app: &S,
    scale: Scale,
    config: &SimConfig,
    shards: usize,
) -> Result<ShardedRun, SimError> {
    if shards == 0 {
        return Err(SimError::ZeroShards);
    }
    // Validate the configuration once, up front, so worker threads can
    // assume it is constructible and stay Result-free.
    drop(Engine::new(config)?);

    // Land shard cuts on the stream's preferred seek boundaries (block
    // restarts for v2 traces; 1 — an ordinary even split — otherwise).
    let plan = ShardPlan::split_aligned(app.stream_len(scale), shards, app.seek_alignment());
    let shard_task = |index: usize| -> ShardHarvest {
        let range = plan.ranges()[index];
        let mut engine = Engine::new(config).expect("configuration validated above");
        let mut workload = app.workload(scale);
        let skipped = workload.skip_accesses(range.start);
        debug_assert_eq!(skipped, range.start, "stream shorter than planned");
        engine.run_workload_limit(&mut workload, range.len);
        ShardHarvest::of(engine)
    };
    let (harvests, mut health) = run_shards_recovering(shards, shard_task)?;
    health.quarantined_records = app.quarantined_records();
    Ok(fold_shards(harvests, plan.ranges(), health))
}

/// What one shard worker hands back for merging: its counters, the
/// pages it touched, its end-of-slice prefetch-buffer residency, and —
/// for multiprogrammed runs — the per-stream demand page sets backing
/// footprint attribution (empty for single-stream runs). The page sets
/// are moved out of the engine, never copied or sorted.
#[derive(Debug, Default)]
pub(crate) struct ShardHarvest {
    pub stats: SimStats,
    pub pages: PageTable,
    pub resident: u64,
    pub stream_pages: Vec<PageSet>,
}

impl ShardHarvest {
    /// Harvests a finished engine: its statistics and page sets move
    /// out, and its prefetch-buffer residency is read.
    pub(crate) fn of(engine: Engine) -> ShardHarvest {
        let resident = engine.resident_prefetches();
        let (stats, pages, stream_pages) = engine.into_page_sets();
        ShardHarvest {
            stats,
            pages,
            resident,
            stream_pages,
        }
    }

    /// Merges harvests in order: counters sum via [`SimStats::merge`],
    /// residency sums, and the page sets and per-stream page sets union,
    /// each smaller set inserted into the larger. The aggregate footprint
    /// and any per-stream footprints are the union sizes (a page two
    /// harvests both touch counts once, so their sum would overcount); a
    /// stream no harvest attributed a page to has footprint 0.
    ///
    /// This merges the shards of a sharded run ([`fold_shards`]) and the
    /// machines of one slice group (`run_slices` in `multiprog.rs`).
    pub(crate) fn merge(harvests: Vec<ShardHarvest>) -> ShardHarvest {
        let mut harvests = harvests.into_iter();
        let mut merged = harvests.next().unwrap_or_default();
        for harvest in harvests {
            merged.stats.merge(&harvest.stats);
            merged.pages.absorb(harvest.pages);
            merged.resident += harvest.resident;
            for (stream, mut pages) in harvest.stream_pages.into_iter().enumerate() {
                let Some(union) = merged.stream_pages.get_mut(stream) else {
                    merged.stream_pages.push(pages);
                    continue;
                };
                if pages.len() > union.len() {
                    std::mem::swap(union, &mut pages);
                }
                union.extend(pages);
            }
        }
        merged.stats.footprint_pages = merged.pages.len() as u64;
        for stream in 0..merged.stats.per_stream.len() {
            let pages = merged.stream_pages.get(stream).map_or(0, PageSet::len);
            merged.stats.per_stream.set_footprint(stream, pages as u64);
        }
        merged
    }
}

/// Folds per-shard harvests — in shard order — into a [`ShardedRun`]:
/// the merged statistics of [`ShardHarvest::merge`], each shard's own
/// outcome, and the residency of the non-final shards as the
/// boundary-reconciliation counter.
///
/// Shared by [`run_app_sharded`] and the multiprogrammed
/// [`run_mix_sharded`](crate::run_mix_sharded), whose shard boundaries
/// are switch-aligned rather than evenly split — the fold is agnostic to
/// how the ranges were planned.
pub(crate) fn fold_shards(
    harvests: Vec<ShardHarvest>,
    ranges: &[ShardRange],
    health: RunHealth,
) -> ShardedRun {
    let shards: Vec<ShardOutcome> = harvests
        .iter()
        .zip(ranges)
        .map(|(harvest, range)| ShardOutcome {
            range: *range,
            stats: harvest.stats.clone(),
            resident_prefetches: harvest.resident,
        })
        .collect();
    let last = shards.last().map_or(0, |shard| shard.resident_prefetches);
    let merged = ShardHarvest::merge(harvests);
    ShardedRun {
        merged: merged.stats,
        shards,
        boundary_resident_prefetches: merged.resident - last,
        health,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_app;
    use crate::stats::PerStreamStats;
    use tlbsim_core::{PrefetcherConfig, VirtPage};
    use tlbsim_workloads::find_app;

    /// The fold the set union replaced: copy every page set into a
    /// vector, concatenate, sort and dedup.
    fn sorted_union_len<'a>(sets: impl Iterator<Item = &'a Vec<VirtPage>>) -> u64 {
        let mut all: Vec<VirtPage> = sets.flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all.len() as u64
    }

    #[test]
    fn merged_footprints_equal_the_sorted_concatenation() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const STREAMS: usize = 5;
        let mut rng = SmallRng::seed_from_u64(26);
        let pages_of = |rng: &mut SmallRng, most: u64, range: u64| -> Vec<VirtPage> {
            let len = if rng.gen_range(0..4) == 0 {
                0
            } else {
                rng.gen_range(1..most)
            };
            (0..len)
                .map(|_| VirtPage::new(rng.gen_range(0..range)))
                .collect()
        };
        for _ in 0..200 {
            let count = rng.gen_range(1..5) as usize;
            // Per harvest: its touched pages, and page lists for a prefix
            // of the mix's streams (an engine's sets stop at the highest
            // stream it ran), so some streams are missing from some
            // harvests.
            let lists: Vec<(Vec<VirtPage>, Vec<Vec<VirtPage>>)> = (0..count)
                .map(|_| {
                    let attributed = rng.gen_range(0..STREAMS as u64 + 1) as usize;
                    let streams = (0..attributed)
                        .map(|_| pages_of(&mut rng, 120, 150))
                        .collect();
                    (pages_of(&mut rng, 400, 600), streams)
                })
                .collect();
            let harvests = lists
                .iter()
                .enumerate()
                .map(|(index, (pages, streams))| {
                    let mut table = PageTable::new();
                    for &page in pages {
                        table.translate(page);
                    }
                    let stream_pages: Vec<PageSet> = streams
                        .iter()
                        .map(|s| s.iter().copied().collect())
                        .collect();
                    let mut stats = SimStats {
                        accesses: 1000 + index as u64,
                        footprint_pages: table.len() as u64,
                        per_stream: PerStreamStats::with_streams(STREAMS),
                        ..SimStats::default()
                    };
                    for (stream, set) in stream_pages.iter().enumerate() {
                        stats.per_stream.set_footprint(stream, set.len() as u64);
                    }
                    ShardHarvest {
                        stats,
                        pages: table,
                        resident: index as u64 + 1,
                        stream_pages,
                    }
                })
                .collect();
            let merged = ShardHarvest::merge(harvests);

            let n = count as u64;
            assert_eq!(merged.stats.accesses, 1000 * n + n * (n - 1) / 2);
            assert_eq!(merged.resident, n * (n + 1) / 2);
            assert_eq!(
                merged.stats.footprint_pages,
                sorted_union_len(lists.iter().map(|(pages, _)| pages))
            );
            assert_eq!(merged.pages.len() as u64, merged.stats.footprint_pages);
            assert_eq!(merged.stats.per_stream.len(), STREAMS);
            for stream in 0..STREAMS {
                let expected = sorted_union_len(lists.iter().filter_map(|(_, s)| s.get(stream)));
                assert_eq!(
                    merged.stats.per_stream.streams()[stream].footprint_pages,
                    expected,
                    "stream {stream} of {count} harvests"
                );
            }
        }
    }

    #[test]
    fn plan_covers_the_stream_exactly_and_contiguously() {
        for total in [0u64, 1, 7, 4096, 99_991] {
            for shards in [1usize, 2, 3, 8, 64] {
                let plan = ShardPlan::split(total, shards);
                assert_eq!(plan.ranges().len(), shards);
                assert_eq!(plan.total(), total);
                let mut expected_start = 0;
                for range in plan.ranges() {
                    assert_eq!(range.start, expected_start, "{total}/{shards} gap");
                    expected_start += range.len;
                }
                assert_eq!(expected_start, total);
                // Even split: lengths differ by at most one.
                let lens: Vec<u64> = plan.ranges().iter().map(|r| r.len).collect();
                let min = *lens.iter().min().unwrap();
                let max = *lens.iter().max().unwrap();
                assert!(max - min <= 1, "{total}/{shards} uneven: {lens:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_plan_panics() {
        let _ = ShardPlan::split(10, 0);
    }

    #[test]
    fn zero_shards_is_a_sim_error() {
        let app = find_app("gap").unwrap();
        let err = run_app_sharded(app, Scale::TINY, &SimConfig::paper_default(), 0).unwrap_err();
        assert!(matches!(err, SimError::ZeroShards));
        assert!(err.to_string().contains("shard"));
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let app = find_app("gap").unwrap();
        let bad = SimConfig::paper_default().with_prefetch_buffer(0);
        assert!(matches!(
            run_app_sharded(app, Scale::TINY, &bad, 2),
            Err(SimError::ZeroPrefetchBuffer)
        ));
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_sequential_run() {
        for (name, prefetcher) in [
            ("galgel", PrefetcherConfig::distance()),
            ("mcf", PrefetcherConfig::recency()),
            ("gap", PrefetcherConfig::markov()),
        ] {
            let app = find_app(name).unwrap();
            let config = SimConfig::paper_default().with_prefetcher(prefetcher);
            let sequential = run_app(app, Scale::TINY, &config).unwrap();
            let sharded = run_app_sharded(app, Scale::TINY, &config, 1).unwrap();
            assert_eq!(
                sharded.merged, sequential,
                "{name}: shards=1 must be bit-identical"
            );
            assert_eq!(sharded.boundary_resident_prefetches, 0);
            assert_eq!(sharded.shards.len(), 1);
            assert_eq!(sharded.shards[0].stats, sequential);
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_across_repetitions() {
        // The merge is anchored to the static plan, not to worker
        // completion order: repeated runs (with the OS free to schedule
        // the worker threads differently every time) must agree exactly,
        // shard by shard.
        let app = find_app("galgel").unwrap();
        let config = SimConfig::paper_default();
        let first = run_app_sharded(app, Scale::TINY, &config, 4).unwrap();
        for _ in 0..4 {
            let again = run_app_sharded(app, Scale::TINY, &config, 4).unwrap();
            assert_eq!(again.merged, first.merged);
            assert_eq!(
                again.boundary_resident_prefetches,
                first.boundary_resident_prefetches
            );
            for (a, b) in again.shards.iter().zip(&first.shards) {
                assert_eq!(a.range, b.range);
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.resident_prefetches, b.resident_prefetches);
            }
        }
    }

    #[test]
    fn shards_partition_the_access_stream_exactly() {
        let app = find_app("mcf").unwrap();
        let config = SimConfig::paper_default();
        let total = app.stream_len(Scale::TINY);
        for shards in [2usize, 3, 5] {
            let run = run_app_sharded(app, Scale::TINY, &config, shards).unwrap();
            assert_eq!(run.merged.accesses, total, "{shards} shards lost accesses");
            let per_shard: u64 = run.shards.iter().map(|s| s.stats.accesses).sum();
            assert_eq!(per_shard, total);
            for shard in &run.shards {
                assert_eq!(shard.stats.accesses, shard.range.len);
            }
        }
    }

    #[test]
    fn merged_counters_stay_internally_consistent() {
        let app = find_app("galgel").unwrap();
        let run = run_app_sharded(app, Scale::TINY, &SimConfig::paper_default(), 3).unwrap();
        let m = &run.merged;
        assert_eq!(m.prefetch_buffer_hits + m.demand_walks, m.misses);
        assert!(m.misses <= m.accesses);
        // Footprint is a union, never larger than the sum of the parts
        // and at least as large as the largest part.
        let sum: u64 = run.shards.iter().map(|s| s.stats.footprint_pages).sum();
        let max = run
            .shards
            .iter()
            .map(|s| s.stats.footprint_pages)
            .max()
            .unwrap();
        assert!(m.footprint_pages <= sum);
        assert!(m.footprint_pages >= max);
    }

    #[test]
    fn footprint_union_matches_the_sequential_footprint() {
        // Shards translate the same pages the sequential run does (cold
        // boundaries may add prefetch translations, never remove
        // demand ones), and the union must count each page once.
        let app = find_app("gap").unwrap();
        let config = SimConfig::baseline(); // no prefetcher: page sets are purely demand-driven
        let sequential = run_app(app, Scale::TINY, &config).unwrap();
        let sharded = run_app_sharded(app, Scale::TINY, &config, 4).unwrap();
        assert_eq!(sharded.merged.footprint_pages, sequential.footprint_pages);
    }

    #[test]
    fn boundary_reconciliation_reports_nonfinal_shards_only() {
        let app = find_app("galgel").unwrap();
        let run = run_app_sharded(app, Scale::TINY, &SimConfig::paper_default(), 4).unwrap();
        let nonfinal: u64 = run.shards[..3].iter().map(|s| s.resident_prefetches).sum();
        assert_eq!(run.boundary_resident_prefetches, nonfinal);
        // A DP run on a distance-friendly app keeps predicting at the
        // cut points, so some in-flight state must exist to reconcile.
        assert!(run.boundary_resident_prefetches > 0);
    }

    #[test]
    fn more_shards_than_accesses_plan_to_empty_tails() {
        // Absurd but legal: trailing shards own empty ranges, and a
        // worker handed an empty range simulates nothing.
        let plan = ShardPlan::split(3, 8);
        let lens: Vec<u64> = plan.ranges().iter().map(|r| r.len).collect();
        assert_eq!(lens, [1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(plan.total(), 3);
    }

    #[test]
    fn auto_shard_count_respects_both_clamps() {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Tiny streams never fan out; huge streams use the whole host.
        assert_eq!(auto_shard_count(0), 1);
        assert_eq!(auto_shard_count(AUTO_SHARD_MIN_SLICE - 1), 1);
        assert_eq!(auto_shard_count(u64::MAX), cpus);
        // No auto plan hands a worker less than the minimum slice.
        for len in [1u64, 10_000, 100_000, 10_000_000] {
            let shards = auto_shard_count(len) as u64;
            assert!(shards >= 1);
            if shards > 1 {
                assert!(
                    len / shards >= AUTO_SHARD_MIN_SLICE,
                    "len {len}: {shards} shards"
                );
            }
        }
    }

    #[test]
    fn resolve_shards_treats_zero_as_auto() {
        assert_eq!(resolve_shards(3, u64::MAX), 3);
        assert_eq!(resolve_shards(1, 0), 1);
        assert_eq!(resolve_shards(0, 100_000), auto_shard_count(100_000));
    }

    #[test]
    fn resolve_shards_clamps_literal_requests_to_the_stream() {
        // More shards than accesses planned nothing but empty slices;
        // the resolver now caps the request at the stream length.
        assert_eq!(resolve_shards(64, 10), 10);
        assert_eq!(resolve_shards(10, 10), 10);
        assert_eq!(resolve_shards(9, 10), 9);
        // Degenerate streams still resolve to one (never zero) shard.
        assert_eq!(resolve_shards(64, 0), 1);
        assert_eq!(resolve_shards(usize::MAX, 1), 1);
    }

    #[test]
    fn aligned_split_with_unit_alignment_is_the_plain_split() {
        for total in [0u64, 1, 7, 4096, 99_991] {
            for shards in [1usize, 2, 3, 8, 64] {
                for alignment in [0u64, 1] {
                    assert_eq!(
                        ShardPlan::split_aligned(total, shards, alignment),
                        ShardPlan::split(total, shards),
                        "{total}/{shards}/align {alignment}"
                    );
                }
            }
        }
    }

    #[test]
    fn aligned_split_lands_interior_cuts_on_block_boundaries() {
        for (total, shards, alignment) in [
            (2000u64, 4usize, 100u64),
            (2000, 4, 256),
            (130, 4, 16),
            (99_991, 7, 4096),
            (10, 4, 16), // fewer whole blocks than shards
        ] {
            let plan = ShardPlan::split_aligned(total, shards, alignment);
            assert_eq!(plan.ranges().len(), shards);
            assert_eq!(plan.total(), total, "{total}/{shards}/{alignment}");
            let mut expected_start = 0;
            for (index, range) in plan.ranges().iter().enumerate() {
                assert_eq!(range.start, expected_start, "contiguous");
                assert_eq!(
                    range.start % alignment,
                    0,
                    "{total}/{shards}/{alignment}: shard {index} starts misaligned"
                );
                expected_start += range.len;
            }
            assert_eq!(expected_start, total);
        }
        // When block boundaries coincide with the even split, the plans
        // agree exactly — the anchor of the v1↔v2 sharded differential.
        assert_eq!(
            ShardPlan::split_aligned(2000, 4, 100),
            ShardPlan::split(2000, 4)
        );
    }

    #[test]
    fn clean_runs_report_clean_health() {
        let app = find_app("gap").unwrap();
        let run = run_app_sharded(app, Scale::TINY, &SimConfig::paper_default(), 4).unwrap();
        assert!(run.health.is_clean());
        assert_eq!(run.health.to_string(), "clean");
    }

    mod recovery {
        use super::*;
        use std::sync::Arc;
        use tlbsim_trace::{FaultKind, FaultPlan};
        use tlbsim_workloads::ChaosSpec;

        /// `gap` wrapped in a chaos spec that panics the worker decoding
        /// access 5000, at most `budget` times.
        fn panicky_gap(budget: u64) -> ChaosSpec {
            let app = Arc::new(find_app("gap").unwrap());
            let plan = FaultPlan::new().with(5_000, FaultKind::WorkerPanic);
            ChaosSpec::new(app, plan, budget)
        }

        #[test]
        fn transient_panic_is_retried_and_stats_match_the_clean_run() {
            // One budgeted panic: the first pooled attempt dies, the
            // retry replays the identical slice cleanly.
            let chaos = panicky_gap(1);
            let config = SimConfig::paper_default();
            let run = run_app_sharded(&chaos, Scale::TINY, &config, 1).unwrap();
            assert_eq!(run.health.retries, 1);
            assert_eq!(run.health.degraded_shards, 0);
            assert!(!run.health.is_clean());
            assert_eq!(
                run.health.to_string(),
                "1 retries, 0 degraded shards, 0 quarantined records"
            );

            let clean = run_app(find_app("gap").unwrap(), Scale::TINY, &config).unwrap();
            assert_eq!(run.merged, clean, "recovered stats must be bit-identical");
        }

        #[test]
        fn exhausted_workers_degrade_to_inline_and_still_recover() {
            // Budget = SHARD_ATTEMPTS: every pooled attempt panics, the
            // in-line degraded run finally replays the slice cleanly.
            let chaos = panicky_gap(SHARD_ATTEMPTS as u64);
            let config = SimConfig::paper_default();
            let run = run_app_sharded(&chaos, Scale::TINY, &config, 1).unwrap();
            assert_eq!(run.health.retries, (SHARD_ATTEMPTS - 1) as u64);
            assert_eq!(run.health.degraded_shards, 1);

            let clean = run_app(find_app("gap").unwrap(), Scale::TINY, &config).unwrap();
            assert_eq!(run.merged, clean, "degraded stats must be bit-identical");
        }

        #[test]
        fn persistent_panic_is_a_typed_error() {
            // Budget outlasts every recovery tier: pooled attempts and
            // the in-line run all panic, so the run errors typed.
            let chaos = panicky_gap(SHARD_ATTEMPTS as u64 + 1);
            let err =
                run_app_sharded(&chaos, Scale::TINY, &SimConfig::paper_default(), 1).unwrap_err();
            match &err {
                SimError::ShardPanicked { shard, message } => {
                    assert_eq!(*shard, 0);
                    assert!(message.contains("chaos"), "payload surfaced: {message}");
                }
                other => panic!("expected ShardPanicked, got {other:?}"),
            }
            assert!(err.to_string().contains("panicked persistently"));
        }

        #[test]
        fn recovery_works_under_real_sharding_too() {
            // Four shards; the fault lives in whichever shard decodes
            // access 5000. One budget unit → one retry somewhere, and
            // the merged result matches an undisturbed 4-shard run.
            let chaos = panicky_gap(1);
            let config = SimConfig::paper_default();
            let run = run_app_sharded(&chaos, Scale::TINY, &config, 4).unwrap();
            assert_eq!(run.health.retries, 1);
            assert_eq!(run.health.degraded_shards, 0);

            let clean = run_app_sharded(find_app("gap").unwrap(), Scale::TINY, &config, 4).unwrap();
            assert_eq!(run.merged, clean.merged);
            assert!(clean.health.is_clean());
        }

        #[test]
        fn wild_vaddrs_complete_the_run_without_panicking() {
            // Out-of-range virtual addresses are absorbed, not fatal:
            // page arithmetic is total over u64.
            let app = Arc::new(find_app("gap").unwrap());
            let plan = FaultPlan::seeded(7, 10_000, &[(FaultKind::WildVaddr, 25)]);
            let chaos = ChaosSpec::new(app, plan, 0);
            let run = run_app_sharded(&chaos, Scale::TINY, &SimConfig::paper_default(), 3).unwrap();
            assert!(run.health.is_clean());
            assert_eq!(run.merged.accesses, chaos.stream_len(Scale::TINY));
        }
    }

    #[test]
    fn sharded_accuracy_tracks_sequential_accuracy() {
        // Boundary cold-start effects must stay small relative to the
        // stream: the merged accuracy may differ from sequential, but
        // only by a few percent at test scale.
        let app = find_app("galgel").unwrap();
        let config = SimConfig::paper_default();
        let sequential = run_app(app, Scale::TINY, &config).unwrap();
        let sharded = run_app_sharded(app, Scale::TINY, &config, 4).unwrap();
        assert_eq!(sharded.merged.accesses, sequential.accesses);
        assert!(
            (sharded.merged.accuracy() - sequential.accuracy()).abs() < 0.05,
            "sharded accuracy {} drifted from sequential {}",
            sharded.merged.accuracy(),
            sequential.accuracy()
        );
    }
}
