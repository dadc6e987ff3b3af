//! Experiment runners: single runs, scheme comparisons, and a parallel
//! sweep executor for the figure-scale parameter grids.
//!
//! The sweep executor is allocation-conscious: each worker thread owns
//! one [`Engine`] (with its run buffer) for its whole lifetime and
//! recycles it from job to job (see [`Engine::try_recycle`]), so a
//! figure-scale grid of hundreds of jobs performs a handful of large
//! allocations per worker rather than a handful per job. The same
//! executor serves [`sweep`], which records one [`MissStream`] per
//! group of jobs that read the same input under the same TLB and
//! replays every job of the group over it, [`sweep_misses`], where
//! every job replays one stream the caller recorded, and the
//! multiprogrammed sweep of `xp mix`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use tlbsim_core::{PageRun, PageSize, PrefetcherConfig};
use tlbsim_mem::TimingParams;
use tlbsim_mmu::TlbConfig;
use tlbsim_workloads::{Scale, StreamSpec};

use crate::batch::ACCESS_BATCH;
use crate::config::{SimConfig, SimError};
use crate::engine::Engine;
use crate::miss_stream::MissStream;
use crate::stats::{SimStats, TimingStats};
use crate::timing_engine::TimingEngine;

/// Runs one reference stream — a registered application model or a
/// recorded trace — through the functional engine.
///
/// Generic over [`StreamSpec`], so `run_app(find_app("galgel")…)` and
/// `run_app(&TraceWorkload::open("galgel.tlbt")?…)` are the same call.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is invalid.
///
/// # Examples
///
/// ```
/// use tlbsim_sim::{run_app, SimConfig};
/// use tlbsim_workloads::{find_app, Scale};
///
/// // galgel is the paper's distance-prefetching showcase: DP at the
/// // representative configuration predicts nearly every miss.
/// let app = find_app("galgel").expect("registered");
/// let stats = run_app(app, Scale::TINY, &SimConfig::paper_default())?;
/// assert!(stats.misses > 0);
/// assert!(stats.accuracy() > 0.8);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub fn run_app<S: StreamSpec + ?Sized>(
    app: &S,
    scale: Scale,
    config: &SimConfig,
) -> Result<SimStats, SimError> {
    let mut engine = Engine::new(config)?;
    engine.run_workload(&mut app.workload(scale));
    Ok(engine.stats().clone())
}

/// Runs one reference stream like [`run_app`], publishing cumulative
/// statistics to `observer` at a fixed checkpoint cadence.
///
/// The stream is driven through **one** engine in chunks of `every`
/// accesses (`Engine::run_workload_limit`), and after each chunk the
/// observer receives `(accesses_done, &cumulative_stats)` — the
/// engine's live counters, not a delta. Chunked driving is bit-identical
/// to a single `run_workload` call (pinned by the engine tests), so the
/// returned final statistics are **bit-identical to [`run_app`]** — the
/// contract the serving layer's incremental snapshots rest on: the last
/// checkpoint *is* the batch result.
///
/// `every == 0` disables checkpointing entirely (no observer calls); an
/// observer returning [`ControlFlow::Break`](std::ops::ControlFlow::Break)
/// stops the run at that
/// checkpoint boundary, and the partial cumulative statistics are
/// returned (the cancellation path of the serving layer).
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is invalid.
///
/// # Examples
///
/// ```
/// use std::ops::ControlFlow;
/// use tlbsim_sim::{run_app, run_app_checkpointed, SimConfig};
/// use tlbsim_workloads::{find_app, Scale};
///
/// let app = find_app("gap").expect("registered");
/// let config = SimConfig::paper_default();
/// let mut checkpoints = 0u64;
/// let stats = run_app_checkpointed(app, Scale::TINY, &config, 5000, |done, cum| {
///     checkpoints += 1;
///     assert_eq!(cum.accesses, done);
///     ControlFlow::Continue(())
/// })?;
/// assert!(checkpoints > 0);
/// // The final checkpointed result is the batch result, bit for bit.
/// assert_eq!(stats, run_app(app, Scale::TINY, &config)?);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub fn run_app_checkpointed<S, F>(
    app: &S,
    scale: Scale,
    config: &SimConfig,
    every: u64,
    mut observer: F,
) -> Result<SimStats, SimError>
where
    S: StreamSpec + ?Sized,
    F: FnMut(u64, &SimStats) -> std::ops::ControlFlow<()>,
{
    let mut engine = Engine::new(config)?;
    let mut workload = app.workload(scale);
    if every == 0 {
        engine.run_workload(&mut workload);
        return Ok(engine.stats().clone());
    }
    let total = app.stream_len(scale);
    let mut done = 0u64;
    while done < total {
        let chunk = every.min(total - done);
        engine.run_workload_limit(&mut workload, chunk);
        done += chunk;
        if observer(done, engine.stats()).is_break() {
            break;
        }
    }
    Ok(engine.stats().clone())
}

/// Runs one reference stream through the timing engine.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is invalid.
pub fn run_app_timed<S: StreamSpec + ?Sized>(
    app: &S,
    scale: Scale,
    config: &SimConfig,
    params: TimingParams,
) -> Result<TimingStats, SimError> {
    let mut engine = TimingEngine::new(config, params)?;
    engine.run(app.workload(scale));
    Ok(*engine.stats())
}

/// Runs one reference stream under every given prefetcher, returning
/// `(label, stats)` pairs.
///
/// # Errors
///
/// Returns [`SimError`] on the first invalid configuration.
pub fn compare_schemes<S: StreamSpec + ?Sized>(
    app: &S,
    scale: Scale,
    base: &SimConfig,
    prefetchers: &[PrefetcherConfig],
) -> Result<Vec<(String, SimStats)>, SimError> {
    prefetchers
        .iter()
        .map(|p| {
            let cfg = base.clone().with_prefetcher(p.clone());
            Ok((p.label(), run_app(app, scale, &cfg)?))
        })
        .collect()
}

/// Shared handle to the stream a sweep job simulates.
///
/// `Arc::new(app)` wraps a registered `&'static AppSpec`; an
/// `Arc::new(trace_workload)` replays a recorded trace — the executor
/// treats both identically (and many jobs can share one trace's
/// mapping through clones of the same `Arc`).
pub type SweepSpec = Arc<dyn StreamSpec>;

/// One unit of work for the parallel sweep: a reference stream at a
/// scale under a configuration, identified by `tag`.
#[derive(Clone)]
pub struct SweepJob {
    /// Identifier carried into the result (e.g. `"galgel/DP,256,D"`).
    pub tag: String,
    /// Stream to simulate (application model or recorded trace).
    pub spec: SweepSpec,
    /// Run length (ignored by fixed-length trace specs).
    pub scale: Scale,
    /// Full simulation configuration.
    pub config: SimConfig,
}

impl std::fmt::Debug for SweepJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("tag", &self.tag)
            .field("spec", &self.spec.name())
            .field("scale", &self.scale)
            .field("config", &self.config)
            .finish()
    }
}

/// The outcome of one sweep job.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The job's identifier.
    pub tag: String,
    /// Name of the simulated stream.
    pub app: String,
    /// Functional statistics (accuracy, miss rate, traffic).
    pub stats: SimStats,
}

/// Per-worker reusable simulation state: one engine (which owns its
/// run buffer) recycled across every job the worker executes, and the
/// run buffer of the miss streams the worker records. Only this crate's
/// sweeps use it; other [`execute`] callers ignore it.
pub struct WorkerScratch {
    engine: Option<Engine>,
    runs: Vec<PageRun>,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            engine: None,
            runs: Vec::new(),
        }
    }

    /// An engine for `config`: the previous job's, recycled, when its
    /// configuration allows (identical results to a fresh engine —
    /// asserted by the runner tests), otherwise a new one.
    fn engine(&mut self, config: &SimConfig) -> Result<&mut Engine, SimError> {
        if !self
            .engine
            .as_mut()
            .is_some_and(|engine| engine.try_recycle(config))
        {
            self.engine = None;
        }
        match &mut self.engine {
            Some(engine) => Ok(engine),
            empty => Ok(empty.insert(Engine::new(config)?)),
        }
    }

    /// Runs one sweep job, streaming its own workload.
    fn run(&mut self, job: &SweepJob) -> Result<SimStats, SimError> {
        Ok(self
            .engine(&job.config)?
            .run_workload(&mut job.spec.workload(job.scale))
            .clone())
    }

    /// Records the TLB misses of `job`'s whole stream under its TLB
    /// geometry and page size.
    fn record(&mut self, job: &SweepJob) -> Result<MissStream, SimError> {
        let page_size = job.config.page_size;
        let mut misses = MissStream::new(job.config.tlb, page_size)?;
        let mut workload = job.spec.workload(job.scale);
        self.runs.resize(ACCESS_BATCH, PageRun::default());
        loop {
            let (filled, accesses) = workload.fill_runs(page_size, &mut self.runs, u64::MAX);
            if accesses == 0 {
                return Ok(misses);
            }
            misses.push_runs(&self.runs[..filled]);
        }
    }
}

/// The machine's available parallelism, or 1 when it cannot be read:
/// the worker count of [`execute`], the ceiling of
/// [`auto_shard_count`](crate::auto_shard_count) and the serving
/// daemon's default worker count.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The crate's one worker pool, behind [`sweep`], [`sweep_misses`], the
/// multiprogrammed sweep of `xp mix` and the sharded runners (one index
/// task per shard): runs `run` on every job across at most
/// [`parallelism`] threads, each worker with its own [`WorkerScratch`],
/// and returns the outputs in submission order. A panicking job takes
/// the call down; the sharded runners catch theirs in each task
/// ([`run_attempts`](crate::run_attempts)).
///
/// # Examples
///
/// ```
/// let squares = tlbsim_sim::execute((1..=4u64).collect(), |_, n| n * n);
/// assert_eq!(squares, [1, 4, 9, 16]);
/// ```
pub fn execute<J, T, F>(jobs: Vec<J>, run: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(&mut WorkerScratch, J) -> T + Sync,
{
    let total = jobs.len();
    let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<T>>> = {
        let mut v = Vec::new();
        v.resize_with(total, || None);
        Mutex::new(v)
    };

    std::thread::scope(|scope| {
        for _ in 0..parallelism().min(total) {
            let queue = &queue;
            let slots = &slots;
            let run = &run;
            scope.spawn(move || {
                let mut scratch = WorkerScratch::new();
                loop {
                    let Some((index, job)) = queue.lock().expect("queue lock").pop_front() else {
                        break;
                    };
                    let outcome = run(&mut scratch, job);
                    slots.lock().expect("result lock")[index] = Some(outcome);
                }
            });
        }
    });

    slots
        .into_inner()
        .expect("worker threads joined")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

/// What makes two jobs' TLB misses the same: one input (the same spec
/// `Arc`) at one scale, under one TLB geometry and page size.
type StreamKey = (*const (), Scale, TlbConfig, PageSize);

/// The indices of `jobs` grouped by [`StreamKey`], groups in the order
/// of their first job.
fn stream_groups(jobs: &[SweepJob]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<StreamKey, usize> = HashMap::new();
    for (index, job) in jobs.iter().enumerate() {
        let key = (
            Arc::as_ptr(&job.spec).cast::<()>(),
            job.scale,
            job.config.tlb,
            job.config.page_size,
        );
        let group = *by_key.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[group].push(index);
    }
    groups
}

/// Executes jobs across all available cores and returns results in the
/// submission order.
///
/// Jobs that share a spec `Arc`, a scale, a TLB geometry and a page
/// size see the same TLB misses, since prefetches go to the prefetch
/// buffer and never to the TLB. Each such group records its input's
/// [`MissStream`] once, as one executor task, and then replays every
/// job of the group over it ([`Engine::replay_misses`]) on a recycled
/// engine. A job alone in its group streams its own input instead, so
/// a sweep that gives every job its own spec holds no stream. Groups
/// run in batches of at most one per worker, so no more streams than
/// workers are alive at once (16 bytes per miss). Each result equals
/// [`run_app`] for its job.
///
/// This is *job-level* parallelism — the right tool when a figure-scale
/// grid has more jobs than cores. To spread one large run across the
/// machine instead, see [`run_app_sharded`](crate::run_app_sharded).
///
/// # Errors
///
/// Returns the first [`SimError`] in submission order; remaining jobs
/// still run.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tlbsim_sim::{sweep, SimConfig, SweepJob};
/// use tlbsim_workloads::{find_app, Scale};
///
/// let jobs: Vec<SweepJob> = ["gap", "eon"]
///     .iter()
///     .map(|name| SweepJob {
///         tag: format!("{name}/DP"),
///         spec: Arc::new(find_app(name).expect("registered")),
///         scale: Scale::TINY,
///         config: SimConfig::paper_default(),
///     })
///     .collect();
/// let results = sweep(jobs)?;
/// // Results come back in submission order, whatever the scheduling.
/// assert_eq!(results[0].app, "gap");
/// assert_eq!(results[1].app, "eon");
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub fn sweep(jobs: Vec<SweepJob>) -> Result<Vec<SweepResult>, SimError> {
    let (shared, alone): (Vec<_>, Vec<_>) = stream_groups(&jobs)
        .into_iter()
        .partition(|group| group.len() > 1);
    let mut outcomes = execute(alone.concat(), |scratch, index| {
        (index, scratch.run(&jobs[index]))
    });
    for batch in shared.chunks(parallelism()) {
        let firsts = batch.iter().map(|group| group[0]).collect();
        let streams = execute(firsts, |scratch, first| scratch.record(&jobs[first]));
        let replays: Vec<(usize, &Result<MissStream, SimError>)> = batch
            .iter()
            .zip(&streams)
            .flat_map(|(group, stream)| group.iter().map(move |&index| (index, stream)))
            .collect();
        outcomes.extend(execute(replays, |scratch, (index, stream)| {
            let replayed = stream.as_ref().map_err(Clone::clone).and_then(|stream| {
                Ok(scratch
                    .engine(&jobs[index].config)?
                    .replay_misses(stream)?
                    .clone())
            });
            (index, replayed)
        }));
    }
    outcomes.sort_unstable_by_key(|&(index, _)| index);
    jobs.into_iter()
        .zip(outcomes)
        .map(|(job, (_, stats))| {
            Ok(SweepResult {
                stats: stats?,
                app: job.spec.name().to_owned(),
                tag: job.tag,
            })
        })
        .collect()
}

/// Runs every configuration of `jobs` over one shared [`MissStream`] on
/// the [`sweep`] executor, with the same engine recycling and result
/// order.
///
/// `stream` holds the TLB misses of a whole reference stream named
/// `app`, recorded once; each job replays only the miss path over them
/// ([`Engine::replay_misses`]), so neither the input nor the TLB is
/// simulated per job. Each result equals a [`sweep`] job over the
/// stream the misses came from. Jobs may differ in mechanism, buffer
/// size and `filter_prefetches`, not in TLB geometry or page size.
///
/// # Errors
///
/// [`SimError::MissStreamMismatch`] for a configuration whose TLB
/// geometry or page size differs from the stream's; otherwise the
/// first invalid configuration, as for [`sweep`].
///
/// # Examples
///
/// ```
/// use tlbsim_core::{PageRun, PrefetcherConfig};
/// use tlbsim_sim::{run_app, sweep_misses, MissStream, SimConfig};
/// use tlbsim_workloads::{find_app, Scale};
///
/// let app = find_app("gap").expect("registered");
/// let config = SimConfig::paper_default();
/// let mut misses = MissStream::new(config.tlb, config.page_size)?;
/// let mut workload = app.workload(Scale::TINY);
/// let mut runs = vec![PageRun::default(); 1024];
/// loop {
///     let (n, _) = workload.fill_runs(config.page_size, &mut runs, u64::MAX);
///     if n == 0 {
///         break;
///     }
///     misses.push_runs(&runs[..n]);
/// }
/// let recency = config.clone().with_prefetcher(PrefetcherConfig::recency());
/// let jobs = vec![("DP".to_owned(), config.clone()), ("RP".to_owned(), recency.clone())];
/// let results = sweep_misses("gap", &misses, jobs)?;
/// assert_eq!(results[0].stats, run_app(app, Scale::TINY, &config)?);
/// assert_eq!(results[1].stats, run_app(app, Scale::TINY, &recency)?);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub fn sweep_misses(
    app: &str,
    stream: &MissStream,
    jobs: Vec<(String, SimConfig)>,
) -> Result<Vec<SweepResult>, SimError> {
    execute(jobs, |scratch, (tag, config)| {
        let stats = scratch.engine(&config)?.replay_misses(stream)?.clone();
        Ok(SweepResult {
            tag,
            app: app.to_owned(),
            stats,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_workloads::find_app;

    #[test]
    fn run_app_produces_stats() {
        let app = find_app("gap").unwrap();
        let stats = run_app(app, Scale::TINY, &SimConfig::paper_default()).unwrap();
        assert!(stats.accesses > 0);
        assert!(stats.misses > 0);
    }

    #[test]
    fn compare_schemes_labels_results() {
        let app = find_app("gap").unwrap();
        let results = compare_schemes(
            app,
            Scale::TINY,
            &SimConfig::paper_default(),
            &[PrefetcherConfig::distance(), PrefetcherConfig::recency()],
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].0.starts_with("DP"));
        assert_eq!(results[1].0, "RP");
    }

    #[test]
    fn sweep_preserves_submission_order_and_matches_serial_runs() {
        let apps = ["gap", "facerec", "eon"];
        let jobs: Vec<SweepJob> = apps
            .iter()
            .map(|name| SweepJob {
                tag: format!("{name}/DP"),
                spec: Arc::new(find_app(name).unwrap()),
                scale: Scale::TINY,
                config: SimConfig::paper_default(),
            })
            .collect();
        let results = sweep(jobs).unwrap();
        assert_eq!(results.len(), 3);
        for (result, name) in results.iter().zip(apps) {
            assert_eq!(result.app, name);
            let serial = run_app(
                find_app(name).unwrap(),
                Scale::TINY,
                &SimConfig::paper_default(),
            )
            .unwrap();
            assert_eq!(result.stats, serial, "parallel result differs for {name}");
        }
    }

    #[test]
    fn worker_scratch_reuse_matches_fresh_engines() {
        // The engine-recycling path must be observationally identical to
        // building a fresh engine per job, including across config
        // changes that defeat recycling.
        let mut scratch = WorkerScratch::new();
        let configs = [
            SimConfig::paper_default(),
            SimConfig::paper_default(),
            SimConfig::baseline(),
            SimConfig::paper_default().with_prefetch_buffer(8),
        ];
        for (i, config) in configs.iter().enumerate() {
            let job = SweepJob {
                tag: format!("job{i}"),
                spec: Arc::new(find_app("gap").unwrap()),
                scale: Scale::TINY,
                config: config.clone(),
            };
            let reused = scratch.run(&job).unwrap();
            let fresh = run_app(find_app("gap").unwrap(), job.scale, config).unwrap();
            assert_eq!(reused, fresh, "job {i} diverged under engine reuse");
        }
    }

    #[test]
    fn grouped_sweep_returns_the_first_error_in_submission_order() {
        // A group whose TLB geometry is invalid fails to record its
        // stream; a valid group can still hold an invalid buffer.
        let spec: SweepSpec = Arc::new(find_app("gap").unwrap());
        let job = |config: &SimConfig| SweepJob {
            tag: String::new(),
            spec: Arc::clone(&spec),
            scale: Scale::TINY,
            config: config.clone(),
        };
        let valid = SimConfig::paper_default();
        let no_buffer = valid.clone().with_prefetch_buffer(0);
        let bad_tlb = valid.clone().with_tlb(TlbConfig {
            entries: 100,
            assoc: tlbsim_core::Associativity::ways_of(8),
        });
        for order in [
            [&valid, &no_buffer, &bad_tlb, &bad_tlb],
            [&bad_tlb, &valid, &bad_tlb, &no_buffer],
        ] {
            let first_bad = order.iter().find(|c| ***c != valid).unwrap();
            let expected = run_app(find_app("gap").unwrap(), Scale::TINY, first_bad).unwrap_err();
            let jobs = order.iter().map(|config| job(config)).collect();
            assert_eq!(sweep(jobs).unwrap_err(), expected);
        }
    }

    #[test]
    fn empty_sweep_is_ok() {
        assert!(sweep(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_batch_at_odd_cadences() {
        let app = find_app("gap").unwrap();
        let config = SimConfig::paper_default();
        let batch = run_app(app, Scale::TINY, &config).unwrap();
        let total = app.stream_len(Scale::TINY);
        for every in [1777u64, 5000, total, total + 99] {
            let mut checkpoints = Vec::new();
            let finished = run_app_checkpointed(app, Scale::TINY, &config, every, |done, cum| {
                checkpoints.push((done, cum.clone()));
                std::ops::ControlFlow::Continue(())
            })
            .unwrap();
            assert_eq!(finished, batch, "every={every}: final stats drifted");
            assert_eq!(checkpoints.len() as u64, total.div_ceil(every));
            // Cumulative checkpoints are exact and monotone, and the
            // last one IS the batch result.
            for (done, cum) in &checkpoints {
                assert_eq!(cum.accesses, *done);
            }
            let (last_done, last) = checkpoints.last().unwrap();
            assert_eq!(*last_done, total);
            assert_eq!(*last, batch, "every={every}: last checkpoint != final");
        }
    }

    #[test]
    fn checkpointed_run_without_cadence_never_calls_the_observer() {
        let app = find_app("gap").unwrap();
        let config = SimConfig::paper_default();
        let mut calls = 0;
        let stats = run_app_checkpointed(app, Scale::TINY, &config, 0, |_, _| {
            calls += 1;
            std::ops::ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(calls, 0);
        assert_eq!(stats, run_app(app, Scale::TINY, &config).unwrap());
    }

    #[test]
    fn checkpoint_break_cancels_at_the_chunk_boundary() {
        let app = find_app("gap").unwrap();
        let config = SimConfig::paper_default();
        let stats = run_app_checkpointed(app, Scale::TINY, &config, 4096, |_, _| {
            std::ops::ControlFlow::Break(())
        })
        .unwrap();
        assert_eq!(
            stats.accesses, 4096,
            "run must stop at the first checkpoint"
        );
    }

    #[test]
    fn timed_run_produces_cycles() {
        let app = find_app("gap").unwrap();
        let t = run_app_timed(
            app,
            Scale::TINY,
            &SimConfig::paper_default(),
            TimingParams::paper_default(),
        )
        .unwrap();
        assert!(t.cycles > 0.0);
    }
}
