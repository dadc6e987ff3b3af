//! Job specification, resolution, and execution.
//!
//! A [`JobSpec`] is the client's portable description of one simulation
//! run: an input source (trace file or registered application model), a
//! prefetching scheme, and execution knobs (shards, decode policy,
//! snapshot cadence, chaos budget). The daemon [`resolve`]s it — early,
//! before queueing, so a bad path or geometry fails the submit rather
//! than a worker — into a [`ResolvedJob`], then a worker [`execute`]s
//! that against the existing simulation engines.
//!
//! Every failure is a typed [`ErrorCode`] plus a one-line message,
//! carried back to the client in a `JobError` frame; the daemon never
//! dies for a job's sake.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tlbsim_core::PrefetcherConfig;
use tlbsim_sim::{
    resolve_shards, run_app_checkpointed, run_app_sharded, run_attempts, run_mix_sharded, Engine,
    RunHealth, SimConfig, SimError, SimStats, SwitchPolicy, SHARD_ATTEMPTS,
};
use tlbsim_trace::{DecodePolicy, FaultKind, FaultPlan};
use tlbsim_workloads::{
    find_app, ChaosSpec, MultiStreamSpec, Scale, Schedule, StreamSpec, TraceWorkload,
};

/// Where a job's reference stream comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// A recorded `.tlbt` trace file, by path *on the daemon's host*.
    Trace {
        /// Filesystem path the daemon opens.
        path: String,
    },
    /// A registered synthetic application model, by name (`gap`,
    /// `galgel`, …).
    App {
        /// Registered model name.
        name: String,
    },
    /// A multiprogrammed mix of registered application models,
    /// round-robin interleaved and run under the job's
    /// [`switch_policy`](JobSpec::switch_policy).
    Mix {
        /// Registered model names, one per stream (at least two).
        apps: Vec<String>,
        /// Round-robin quantum in accesses.
        quantum: u64,
    },
}

/// A client's description of one simulation run.
///
/// Construct with [`JobSpec::trace`] or [`JobSpec::app`] and adjust the
/// public fields; the defaults mirror `xp replay`: paper-default
/// distance scheme, strict decode, auto shards, no snapshots, no chaos.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The reference stream to simulate.
    pub source: JobSource,
    /// The prefetching scheme under test.
    pub scheme: PrefetcherConfig,
    /// Workload scale (ignored by trace sources, which always replay
    /// the full recording).
    pub scale: Scale,
    /// Worker shards; `0` means auto (machine parallelism clamped by
    /// stream length). A snapshot cadence forces the single-engine
    /// checkpointed path regardless of this field — incremental
    /// publishing is defined on the sequential engine.
    pub shards: u32,
    /// How damaged trace records are handled at open.
    pub policy: DecodePolicy,
    /// Emit a cumulative `Snapshot` frame every this many accesses;
    /// `0` disables incremental publishing.
    pub snapshot_every: u64,
    /// Chaos drill: inject this many budgeted worker panics at the
    /// stream head. `0` (the default) runs clean; `1` exercises the
    /// retry path observably (`health.retries == 1`, result unchanged);
    /// more than [`SHARD_ATTEMPTS`] makes the failure persistent and
    /// the job errors typed while the daemon keeps serving.
    pub fault_panics: u64,
    /// Context-switch semantics for [`JobSource::Mix`] jobs (ignored by
    /// single-stream sources, which never switch). Defaults to the
    /// flush-on-switch oracle.
    pub switch_policy: SwitchPolicy,
}

impl JobSpec {
    fn defaults(source: JobSource) -> Self {
        JobSpec {
            source,
            scheme: PrefetcherConfig::distance(),
            scale: Scale::SMALL,
            shards: 0,
            policy: DecodePolicy::Strict,
            snapshot_every: 0,
            fault_panics: 0,
            switch_policy: SwitchPolicy::FlushOnSwitch,
        }
    }

    /// A job replaying the trace file at `path` with default knobs.
    pub fn trace(path: impl Into<String>) -> Self {
        Self::defaults(JobSource::Trace { path: path.into() })
    }

    /// A job running the registered application model `name` with
    /// default knobs.
    pub fn app(name: impl Into<String>) -> Self {
        Self::defaults(JobSource::App { name: name.into() })
    }

    /// A job interleaving the registered models `apps` round-robin with
    /// `quantum` accesses per turn, switched under the flush oracle
    /// until [`switch_policy`](JobSpec::switch_policy) says otherwise.
    pub fn mix(apps: impl IntoIterator<Item = impl Into<String>>, quantum: u64) -> Self {
        Self::defaults(JobSource::Mix {
            apps: apps.into_iter().map(Into::into).collect(),
            quantum,
        })
    }
}

/// Typed classification of a job failure, carried in `JobError` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The daemon's bounded run queue is full; resubmit later.
    QueueFull,
    /// The job named an application model the registry doesn't have.
    UnknownApp,
    /// The trace file could not be opened, validated, or decoded
    /// within its policy's budget.
    Trace,
    /// The simulation configuration was rejected (bad geometry) or the
    /// run failed with a typed simulator error.
    Sim,
    /// The run panicked persistently — every retry and the degraded
    /// path included. The daemon itself is unaffected.
    Panicked,
    /// The client cancelled the job before it completed.
    Cancelled,
    /// The daemon is shutting down without draining; the job was
    /// dropped from the queue unrun.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire tag for this code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::QueueFull => 0,
            ErrorCode::UnknownApp => 1,
            ErrorCode::Trace => 2,
            ErrorCode::Sim => 3,
            ErrorCode::Panicked => 4,
            ErrorCode::Cancelled => 5,
            ErrorCode::ShuttingDown => 6,
        }
    }

    /// Decodes a wire tag; `None` for unassigned values.
    pub fn from_u8(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ErrorCode::QueueFull,
            1 => ErrorCode::UnknownApp,
            2 => ErrorCode::Trace,
            3 => ErrorCode::Sim,
            4 => ErrorCode::Panicked,
            5 => ErrorCode::Cancelled,
            6 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::UnknownApp => "unknown-app",
            ErrorCode::Trace => "trace",
            ErrorCode::Sim => "sim",
            ErrorCode::Panicked => "panicked",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::ShuttingDown => "shutting-down",
        })
    }
}

/// A job failure as (class, one-line diagnosis) — the payload of a
/// `JobError` frame.
pub type JobFailure = (ErrorCode, String);

/// A validated, runnable job: stream resolved and fully scanned,
/// configuration proven constructible, shard count finalised.
pub struct ResolvedJob {
    /// The stream to drive (possibly chaos-wrapped).
    pub spec: Arc<dyn StreamSpec>,
    /// For [`JobSource::Mix`] jobs, the interleave itself — executed
    /// switch-aware through `run_mix_sharded` instead of the
    /// single-stream runners.
    pub mix: Option<Arc<MultiStreamSpec>>,
    /// Context-switch semantics for the mix (carried even for
    /// single-stream jobs, where it is inert).
    pub switch_policy: SwitchPolicy,
    /// Workload scale to instantiate the stream at.
    pub scale: Scale,
    /// The full simulation configuration (paper defaults around the
    /// job's scheme).
    pub config: SimConfig,
    /// Final shard count (auto already resolved against stream length).
    pub shards: usize,
    /// Exact accesses the run will simulate.
    pub stream_len: u64,
    /// Snapshot cadence in accesses (`0` = none).
    pub snapshot_every: u64,
    /// Input records the decode policy quarantined at open.
    pub quarantined_records: u64,
}

// Not derivable: `Arc<dyn StreamSpec>` has no `Debug`.
impl std::fmt::Debug for ResolvedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedJob")
            .field("spec", &self.spec.name())
            .field("scale", &self.scale)
            .field("shards", &self.shards)
            .field("stream_len", &self.stream_len)
            .field("snapshot_every", &self.snapshot_every)
            .field("quarantined_records", &self.quarantined_records)
            .finish_non_exhaustive()
    }
}

/// Validates a [`JobSpec`] into a [`ResolvedJob`].
///
/// All fallible setup happens here, at submit time: the trace is opened
/// and fully scanned under the job's decode policy, the application
/// name is looked up, the simulation configuration is proven
/// constructible, and `shards == 0` is resolved against the stream
/// length. A job that resolves cannot fail to *start*; it can still
/// fail to *finish* (panic chaos, concurrent file modification).
///
/// # Errors
///
/// A [`JobFailure`] naming exactly what was rejected.
pub fn resolve(job: &JobSpec) -> Result<ResolvedJob, JobFailure> {
    let config = SimConfig::paper_default().with_prefetcher(job.scheme.clone());
    Engine::new(&config).map_err(|e| (ErrorCode::Sim, e.to_string()))?;

    let mut mix = None;
    let spec: Arc<dyn StreamSpec> = match &job.source {
        JobSource::Trace { path } => Arc::new(
            TraceWorkload::open_with_policy(path, job.policy)
                .map_err(|e| (ErrorCode::Trace, format!("{path}: {e}")))?,
        ),
        JobSource::App { name } => Arc::new(find_app(name).ok_or_else(|| {
            (
                ErrorCode::UnknownApp,
                format!("no registered application model named {name:?}"),
            )
        })?),
        JobSource::Mix { apps, quantum } => {
            if job.snapshot_every > 0 {
                return Err((
                    ErrorCode::Sim,
                    "snapshots are not supported for mix sources".to_owned(),
                ));
            }
            if job.fault_panics > 0 {
                return Err((
                    ErrorCode::Sim,
                    "chaos injection is not supported for mix sources".to_owned(),
                ));
            }
            if matches!(job.switch_policy, SwitchPolicy::Asid { contexts: 0, .. }) {
                return Err((ErrorCode::Sim, SimError::ZeroAsidContexts.to_string()));
            }
            let streams = apps
                .iter()
                .map(|name| {
                    find_app(name)
                        .map(|app| Arc::new(app) as Arc<dyn StreamSpec>)
                        .ok_or_else(|| {
                            (
                                ErrorCode::UnknownApp,
                                format!("no registered application model named {name:?}"),
                            )
                        })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let spec = MultiStreamSpec::new(streams, Schedule::RoundRobin { quantum: *quantum })
                .map_err(|e| (ErrorCode::Sim, e.to_string()))?;
            mix.insert(Arc::new(spec)).clone()
        }
    };
    let quarantined_records = spec.quarantined_records();

    // Chaos drill: plant budgeted panics on the first decoded access,
    // so retries are exercised deterministically regardless of shard
    // layout.
    let spec: Arc<dyn StreamSpec> = if job.fault_panics > 0 {
        Arc::new(ChaosSpec::new(
            spec,
            FaultPlan::new().with(0, FaultKind::WorkerPanic),
            job.fault_panics,
        ))
    } else {
        spec
    };

    let stream_len = spec.stream_len(job.scale);
    // Incremental publishing is defined on the sequential checkpointed
    // engine, so a snapshot cadence pins the run to one shard.
    let shards = if job.snapshot_every > 0 {
        1
    } else {
        resolve_shards(job.shards as usize, stream_len)
    };
    Ok(ResolvedJob {
        spec,
        mix,
        switch_policy: job.switch_policy,
        scale: job.scale,
        config,
        shards,
        stream_len,
        snapshot_every: job.snapshot_every,
        quarantined_records,
    })
}

fn map_sim_error(err: SimError) -> JobFailure {
    match &err {
        SimError::ShardPanicked { .. } => (ErrorCode::Panicked, err.to_string()),
        _ => (ErrorCode::Sim, err.to_string()),
    }
}

/// Runs a resolved job to completion on the calling thread.
///
/// * `shards > 1` — the self-healing sharded executor runs the stream;
///   no snapshots are emitted (cadence `0` is guaranteed by
///   [`resolve`]) and cancellation is only observed before launch.
/// * `shards == 1` — the sequential engine runs checkpointed: every
///   `snapshot_every` accesses `emit(seq, accesses_done, stats)` is
///   called with cumulative statistics, and `cancel` is polled at the
///   same boundaries. The run gets [`SHARD_ATTEMPTS`] attempts through
///   the sharded executor's attempt loop ([`run_attempts`]): a
///   panicking attempt (chaos, poisoned input) is retried — snapshot
///   sequence numbers restart from 1 so the client sees a coherent
///   restarted stream — and the last panic surfaces as
///   [`ErrorCode::Panicked`].
///
/// The returned statistics are bit-identical to the equivalent batch
/// `run_app` / `run_app_sharded` call — the service differential tests
/// pin this end to end.
///
/// # Errors
///
/// A [`JobFailure`]: `Cancelled`, `Panicked`, or `Sim`.
pub fn execute(
    job: &ResolvedJob,
    cancel: &AtomicBool,
    mut emit: impl FnMut(u64, u64, &SimStats),
) -> Result<(SimStats, RunHealth), JobFailure> {
    if cancel.load(Ordering::SeqCst) {
        return Err((
            ErrorCode::Cancelled,
            "cancelled before the run started".to_owned(),
        ));
    }

    if let Some(mix) = &job.mix {
        // Mix jobs always run switch-aware (shards = 1 degenerates to
        // the sequential interleave, bit-identically).
        let run = run_mix_sharded(mix, job.scale, &job.config, job.switch_policy, job.shards)
            .map_err(map_sim_error)?;
        return Ok((run.merged, run.health));
    }

    if job.shards > 1 {
        let run = run_app_sharded(job.spec.as_ref(), job.scale, &job.config, job.shards)
            .map_err(map_sim_error)?;
        return Ok((run.merged, run.health));
    }

    let mut seq = 0u64;
    let mut cancelled = false;
    let (attempt, panics) = run_attempts(SHARD_ATTEMPTS, || {
        seq = 0;
        run_app_checkpointed(
            job.spec.as_ref(),
            job.scale,
            &job.config,
            job.snapshot_every,
            |accesses_done, stats| {
                if cancel.load(Ordering::SeqCst) {
                    cancelled = true;
                    return std::ops::ControlFlow::Break(());
                }
                seq += 1;
                emit(seq, accesses_done, stats);
                std::ops::ControlFlow::Continue(())
            },
        )
    });
    match attempt {
        Ok(Ok(_)) if cancelled => Err((
            ErrorCode::Cancelled,
            format!("cancelled after snapshot {seq}"),
        )),
        Ok(Ok(stats)) => Ok((
            stats,
            RunHealth {
                retries: panics,
                degraded_shards: 0,
                quarantined_records: job.quarantined_records,
            },
        )),
        Ok(Err(err)) => Err(map_sim_error(err)),
        Err(message) => Err((
            ErrorCode::Panicked,
            format!("run panicked {panics} times; giving up: {message}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_sim::run_app;

    #[test]
    fn error_codes_roundtrip_and_unknown_tags_are_none() {
        for tag in 0..=6u8 {
            let code = ErrorCode::from_u8(tag).unwrap();
            assert_eq!(code.as_u8(), tag);
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(7), None);
        assert_eq!(ErrorCode::from_u8(255), None);
    }

    #[test]
    fn resolve_rejects_unknown_apps_and_missing_traces_typed() {
        let (code, msg) = resolve(&JobSpec::app("no-such-app")).unwrap_err();
        assert_eq!(code, ErrorCode::UnknownApp);
        assert!(msg.contains("no-such-app"));
        let (code, _) = resolve(&JobSpec::trace("/nonexistent/path.tlbt")).unwrap_err();
        assert_eq!(code, ErrorCode::Trace);
    }

    #[test]
    fn snapshot_cadence_forces_one_shard() {
        let mut job = JobSpec::app("gap");
        job.shards = 4;
        job.snapshot_every = 1000;
        assert_eq!(resolve(&job).unwrap().shards, 1);
        job.snapshot_every = 0;
        assert_eq!(resolve(&job).unwrap().shards, 4);
    }

    #[test]
    fn executed_job_is_bit_identical_to_batch_run_app() {
        let mut job = JobSpec::app("gap");
        job.scale = Scale::TINY;
        job.shards = 1;
        job.snapshot_every = 3000;
        let resolved = resolve(&job).unwrap();
        let mut snapshots = Vec::new();
        let (stats, health) = execute(&resolved, &AtomicBool::new(false), |seq, done, s| {
            snapshots.push((seq, done, s.clone()));
        })
        .unwrap();
        let app = find_app("gap").unwrap();
        let batch = run_app(&app, Scale::TINY, &resolved.config).unwrap();
        assert_eq!(stats, batch);
        assert_eq!(health.retries, 0);
        let expected = resolved.stream_len.div_ceil(3000);
        assert_eq!(snapshots.len() as u64, expected);
        let (last_seq, last_done, last_stats) = snapshots.last().cloned().unwrap();
        assert_eq!(last_seq, expected);
        assert_eq!(last_done, resolved.stream_len);
        assert_eq!(last_stats, batch, "final snapshot equals the final result");
    }

    #[test]
    fn cancellation_stops_at_a_checkpoint_boundary() {
        let mut job = JobSpec::app("gap");
        job.scale = Scale::TINY;
        job.snapshot_every = 1000;
        let resolved = resolve(&job).unwrap();
        let cancel = AtomicBool::new(false);
        let mut seen = 0u64;
        let err = execute(&resolved, &cancel, |_, _, _| {
            seen += 1;
            if seen == 2 {
                cancel.store(true, Ordering::SeqCst);
            }
        })
        .unwrap_err();
        assert_eq!(err.0, ErrorCode::Cancelled);
        assert_eq!(seen, 2, "no snapshots after the cancel");
    }

    #[test]
    fn one_budgeted_panic_is_retried_and_the_result_is_unchanged() {
        let mut job = JobSpec::app("gap");
        job.scale = Scale::TINY;
        job.shards = 1;
        job.fault_panics = 1;
        let resolved = resolve(&job).unwrap();
        let (stats, health) = execute(&resolved, &AtomicBool::new(false), |_, _, _| {}).unwrap();
        assert_eq!(health.retries, 1);
        let app = find_app("gap").unwrap();
        let batch = run_app(&app, Scale::TINY, &resolved.config).unwrap();
        assert_eq!(stats, batch);
    }

    #[test]
    fn persistent_panics_surface_typed_not_fatal() {
        let mut job = JobSpec::app("gap");
        job.scale = Scale::TINY;
        job.shards = 1;
        job.fault_panics = SHARD_ATTEMPTS as u64 + 1;
        let resolved = resolve(&job).unwrap();
        let (code, msg) = execute(&resolved, &AtomicBool::new(false), |_, _, _| {}).unwrap_err();
        assert_eq!(code, ErrorCode::Panicked);
        assert!(
            msg.contains("chaos"),
            "diagnosis carries the panic text: {msg}"
        );
    }
}
