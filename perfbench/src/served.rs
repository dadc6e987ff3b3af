//! `served_jobs`: a closed loop of two clients sharing one in-process
//! daemon with a single worker.
//!
//! Every job replays the checked-in 2000-record trace under a scheme
//! drawn by seed from the 30-scheme grid, with a snapshot every 500
//! accesses, so it returns four `Snapshot` frames and a `Done`. Engine
//! work per job is tiny; framing, admission, queue wait and the per-job
//! trace open dominate. With one job running while the other client's
//! job queues, queue wait is always part of the latency.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tlbsim_core::PrefetcherConfig;
use tlbsim_experiments::paper_scheme_grid;
use tlbsim_service::{Client, Frame, JobSpec, Server, ServerConfig, ServiceError};
use tlbsim_sim::{run_app, SimConfig, SimStats};
use tlbsim_trace::MmapTrace;
use tlbsim_workloads::{Scale, TraceWorkload};

use crate::grid::record_v2;
use crate::replica::{family, replay_layers, Replica};
use crate::report::{engine_layers, reconcile, Checks, LayerSums, Metrics, Outcome};
use crate::util::{drain, min_time, percentile, timed, Digest, StreamSum};
use crate::{latency_metrics, median, Run, SETUPS};

/// The served trace, relative to the checkout root.
pub const TRACE: &str = "tests/data/gap-tiny-2k.tlbt";
const SNAPSHOT_EVERY: u64 = 500;
const CLIENTS: usize = 2;
/// Jobs a run holds at least, so that ten or more lie beyond p99.
const MIN_JOBS: usize = 1000;

struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn bind(socket: PathBuf) -> Daemon {
        let server = Server::bind(
            &socket,
            ServerConfig {
                workers: 1,
                queue_depth: 64,
            },
        )
        .expect("daemon socket binds inside the work directory");
        Daemon {
            socket,
            thread: std::thread::spawn(move || server.run()),
        }
    }

    /// Drains and stops the daemon, waiting for its thread.
    fn stop(self) {
        Client::connect(&self.socket)
            .and_then(|mut client| client.shutdown(true))
            .expect("daemon accepts a shutdown");
        self.thread
            .join()
            .expect("daemon thread did not panic")
            .expect("daemon exits cleanly");
    }
}

struct Setup {
    schemes: Vec<PrefetcherConfig>,
    reference: Vec<SimStats>,
    records: u64,
    v2_bytes: u64,
    daemon: Daemon,
}

fn config_of(scheme: &PrefetcherConfig) -> SimConfig {
    SimConfig::paper_default().with_prefetcher(scheme.clone())
}

fn setup(run: &Run, index: usize) -> Setup {
    let schemes = paper_scheme_grid();
    let trace = TraceWorkload::open(TRACE).expect("checked-in trace opens");
    let reference = schemes
        .iter()
        .map(|s| run_app(&trace, Scale::TINY, &config_of(s)).expect("grid schemes are valid"))
        .collect();
    let (records, v2_bytes) = record_v2(&trace, Scale::TINY, &run.work_dir.join("served.tlbt"));
    let daemon = Daemon::bind(run.work_dir.join(format!("d{index}.sock")));
    Setup {
        schemes,
        reference,
        records,
        v2_bytes,
        daemon,
    }
}

fn reference_digest(reference: &[SimStats]) -> String {
    let mut d = Digest::new();
    for stats in reference {
        d.stats(stats);
    }
    d.hex()
}

/// Seeded scheme order for one client: each block of 30 jobs visits
/// every scheme once, in an order drawn from the seed.
struct SchemeDraw {
    state: u64,
    block: Vec<usize>,
}

impl SchemeDraw {
    fn new(seed: u64, client: usize, schemes: usize) -> SchemeDraw {
        SchemeDraw {
            state: (seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1,
            block: (0..schemes).collect(),
        }
    }

    fn next_block(&mut self) -> Vec<usize> {
        for i in (1..self.block.len()).rev() {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let j = (self.state % (i as u64 + 1)) as usize;
            self.block.swap(i, j);
        }
        self.block.clone()
    }
}

/// Client-side spans and frames of one traced job.
struct JobTrace {
    scheme: usize,
    admit: Duration,
    first_frame: Duration,
    accepted_to_done: Duration,
    frames: Vec<Frame>,
}

/// What one client's loop produced.
struct ClientLog {
    /// Job latencies and completion times (seconds into the loop), in
    /// buffers written in full up front, so that the benchmark's own
    /// memory does not grow with the job count and move `peak_rss_mb`.
    latencies: Vec<f32>,
    finished: Vec<f32>,
    jobs: usize,
    checks: Checks,
    traces: Vec<JobTrace>,
}

/// Jobs one client records at most; a loop that fills it ends early.
const JOBS_PER_CLIENT: usize = 1 << 18;

/// Width of the windows the closed loop's throughput is taken over.
const RATE_WINDOW_S: f64 = 0.5;

fn job_spec(scheme: &PrefetcherConfig) -> JobSpec {
    let mut job = JobSpec::trace(TRACE);
    job.scheme = scheme.clone();
    job.snapshot_every = SNAPSHOT_EVERY;
    job
}

/// Submits a job and follows it to `Done`, keeping its frames and the
/// client-side span boundaries when `traced`.
fn follow_job(
    client: &mut Client,
    job_id: u64,
    scheme: usize,
    spec: &JobSpec,
    traced: bool,
) -> Result<(SimStats, Vec<SimStats>, Option<JobTrace>), ServiceError> {
    if !traced {
        let outcome = client.run_job(job_id, spec)?;
        let snapshots = outcome.snapshots.into_iter().map(|s| s.stats).collect();
        let clean = outcome.health.is_clean();
        let stats = if clean {
            outcome.stats
        } else {
            SimStats::default()
        };
        return Ok((stats, snapshots, None));
    }
    let submit = Frame::Submit {
        job_id,
        job: spec.clone(),
    };
    let start = Instant::now();
    let (shards, stream_len) = client.submit(job_id, spec)?;
    let admitted = start.elapsed();
    let mut frames = vec![
        submit,
        Frame::Accepted {
            job_id,
            shards,
            stream_len,
        },
    ];
    let mut first_frame = None;
    let mut snapshots = Vec::new();
    loop {
        let frame = client.next_frame()?;
        first_frame.get_or_insert_with(|| start.elapsed() - admitted);
        match &frame {
            Frame::Snapshot { stats, .. } => snapshots.push(stats.clone()),
            Frame::Done { stats, health, .. } => {
                let stats = if health.is_clean() {
                    stats.clone()
                } else {
                    SimStats::default()
                };
                let accepted_to_done = start.elapsed() - admitted;
                frames.push(frame);
                let trace = JobTrace {
                    scheme,
                    admit: admitted,
                    first_frame: first_frame.expect("a frame arrived"),
                    accepted_to_done,
                    frames,
                };
                return Ok((stats, snapshots, Some(trace)));
            }
            _ => {
                return Err(ServiceError::UnexpectedFrame {
                    got: "neither Snapshot nor Done while following a job",
                })
            }
        }
        frames.push(frame);
    }
}

/// Runs the closed loop for `seconds` (and at least [`MIN_JOBS`] jobs);
/// returns the per-client logs and the loop's wall time.
fn closed_loop(
    run: &Run,
    setup: &Setup,
    reference_ok: bool,
    seconds: f64,
    traced: bool,
) -> (Vec<ClientLog>, Duration) {
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let done = &done;
                scope.spawn(move || {
                    let mut log = ClientLog {
                        // Not zero: a zeroed buffer is mapped lazily, so
                        // its pages would still count only when written.
                        latencies: vec![f32::NAN; JOBS_PER_CLIENT],
                        finished: vec![f32::NAN; JOBS_PER_CLIENT],
                        jobs: 0,
                        checks: Checks::default(),
                        traces: Vec::new(),
                    };
                    let mut client =
                        Client::connect(&setup.daemon.socket).expect("daemon accepts connections");
                    let mut draw = SchemeDraw::new(run.seed, c, setup.schemes.len());
                    let mut job_id = (c as u64) << 32;
                    'run: loop {
                        for scheme in draw.next_block() {
                            let elapsed = start.elapsed().as_secs_f64();
                            if log.jobs == JOBS_PER_CLIENT
                                || elapsed >= seconds && done.load(Ordering::Relaxed) >= MIN_JOBS
                            {
                                break 'run;
                            }
                            job_id += 1;
                            let spec = job_spec(&setup.schemes[scheme]);
                            let t0 = Instant::now();
                            let result = follow_job(&mut client, job_id, scheme, &spec, traced);
                            log.latencies[log.jobs] = t0.elapsed().as_secs_f32();
                            log.finished[log.jobs] = start.elapsed().as_secs_f32();
                            log.jobs += 1;
                            done.fetch_add(1, Ordering::Relaxed);
                            let expected = &setup.reference[scheme];
                            match result {
                                Ok((stats, snapshots, trace)) => {
                                    let ok = reference_ok
                                        && &stats == expected
                                        && snapshots.len() == 4
                                        && snapshots.last() == Some(expected);
                                    log.checks.record(ok, || {
                                        format!(
                                            "job {job_id} ({}) differs from run_app",
                                            spec.scheme.label()
                                        )
                                    });
                                    log.traces.extend(trace);
                                }
                                Err(e) => log.checks.record(false, || format!("job {job_id}: {e}")),
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread did not panic"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed())
}

/// The clients' latencies (seconds), job completion times and traced
/// jobs, with their checks folded into `checks`.
fn merge_logs(logs: Vec<ClientLog>, checks: &mut Checks) -> (Vec<f64>, Vec<f64>, Vec<JobTrace>) {
    let mut latencies = Vec::new();
    let mut finished = Vec::new();
    let mut traces = Vec::new();
    for log in logs {
        latencies.extend(log.latencies[..log.jobs].iter().map(|&s| f64::from(s)));
        finished.extend(log.finished[..log.jobs].iter().map(|&s| f64::from(s)));
        traces.extend(log.traces);
        checks.attempted += log.checks.attempted;
        checks.failed += log.checks.failed;
        for note in log.checks.notes {
            if checks.notes.len() < 8 {
                checks.notes.push(note);
            }
        }
    }
    (latencies, finished, traces)
}

/// The loop's sustained completion rate: the upper quartile of its rate
/// over whole windows (all of the loop when it is shorter than two
/// windows). A stall of the shared host hits every job handoff of the
/// loop at once, so the rate is taken from its quieter windows; a slower
/// daemon slows every window alike and still shows.
fn sustained_rate(finished: &[f64], wall: Duration) -> f64 {
    let windows = (wall.as_secs_f64() / RATE_WINDOW_S) as usize;
    if windows < 2 {
        return finished.len() as f64 / wall.as_secs_f64();
    }
    let mut counts = vec![0u32; windows];
    for &t in finished {
        if let Some(count) = counts.get_mut((t / RATE_WINDOW_S) as usize) {
            *count += 1;
        }
    }
    let mut rates: Vec<f64> = counts
        .iter()
        .map(|&c| f64::from(c) / RATE_WINDOW_S)
        .collect();
    rates.sort_by(f64::total_cmp);
    percentile(&rates, 75.0)
}

pub fn run(run: &Run) -> Outcome {
    let mut setup_times = Vec::new();
    let mut current: Option<Setup> = None;
    for index in 0..SETUPS {
        if let Some(previous) = current.take() {
            previous.daemon.stop();
        }
        let (s, elapsed) = timed(|| setup(run, index));
        setup_times.push(elapsed.as_secs_f64());
        current = Some(s);
    }
    let setup = current.expect("at least one set-up");
    let digest = reference_digest(&setup.reference);
    let reference_ok = run.expect_digest.as_ref().is_none_or(|e| *e == digest);
    let mut checks = Checks::default();

    let outcome = if run.traced {
        traced(run, &setup, reference_ok, digest, checks)
    } else {
        let (logs, wall) = closed_loop(run, &setup, reference_ok, run.seconds, false);
        let (latencies, finished, _) = merge_logs(logs, &mut checks);
        let rate = sustained_rate(&finished, wall);
        let mut m = Metrics::default();
        m.set("setup_s", median(&setup_times));
        m.set("sim_accesses_per_s", rate * setup.records as f64);
        m.set("jobs_per_s", rate);
        latency_metrics(&mut m, &latencies);
        m.set(
            "trace_bytes_per_record",
            setup.v2_bytes as f64 / setup.records as f64,
        );
        Outcome {
            checks,
            digest,
            metrics: m,
            reconciliation: None,
        }
    };
    setup.daemon.stop();
    outcome
}

/// The codec-metric name of a frame a served job exchanges.
fn kind_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Submit { .. } => "submit",
        Frame::Snapshot { .. } => "snapshot",
        Frame::Done { .. } => "done",
        _ => "accepted",
    }
}

/// Bulk encode and decode times of `frames`, per frame; a decode that
/// does not give back the frame counts as a mismatch.
fn codec_times(frames: &[&Frame], bad: &mut u64) -> (f64, f64, u64) {
    if frames.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut buf = Vec::with_capacity(1024);
    let encode = min_time(3, || {
        let start = Instant::now();
        for frame in frames {
            frame.encode_into(&mut buf).expect("logged frames encode");
            std::hint::black_box(&buf);
        }
        start.elapsed()
    });
    let mut bytes = 0u64;
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| {
            frame.encode_into(&mut buf).expect("logged frames encode");
            bytes += buf.len() as u64;
            buf[4..].to_vec()
        })
        .collect();
    let decode = min_time(3, || {
        let mut mismatches = 0u64;
        let start = Instant::now();
        for (payload, frame) in encoded.iter().zip(frames) {
            let decoded = Frame::decode(payload);
            mismatches += u64::from(decoded.as_ref() != Ok(*frame));
        }
        let elapsed = start.elapsed();
        *bad += mismatches;
        elapsed
    });
    let n = frames.len() as f64;
    (
        encode.as_nanos() as f64 / n,
        decode.as_nanos() as f64 / n,
        bytes,
    )
}

/// The traced run: the closed loop with client-side spans and frame
/// capture, an untraced loop beside it, then bulk replays of every layer
/// a job crosses — trace open, decode, the engine layers per scheme and
/// the frame codec — weighted by how often each scheme was served.
fn traced(
    run: &Run,
    setup: &Setup,
    reference_ok: bool,
    digest: String,
    mut checks: Checks,
) -> Outcome {
    let mut m = Metrics::per_layer_zeroed();
    let half = run.seconds / 2.0;
    let (logs, traced_wall) = closed_loop(run, setup, reference_ok, half, true);
    let (_, finished, jobs) = merge_logs(logs, &mut checks);
    let traced_per_job = Duration::from_secs_f64(1.0 / sustained_rate(&finished, traced_wall));
    let (logs, plain_wall) = closed_loop(run, setup, reference_ok, half, false);
    let (_, finished, _) = merge_logs(logs, &mut checks);
    let plain_per_job = Duration::from_secs_f64(1.0 / sustained_rate(&finished, plain_wall));
    let n = jobs.len() as f64;

    let spans = |f: fn(&JobTrace) -> Duration| -> f64 {
        median(
            &jobs
                .iter()
                .map(|j| f(j).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    m.set("service.admit_ms", spans(|j| j.admit));
    m.set("service.first_frame_ms", spans(|j| j.first_frame));
    m.set("service.accepted_to_done_ms", spans(|j| j.accepted_to_done));
    let frames: usize = jobs.iter().map(|j| j.frames.len()).sum();
    m.set("service.frames_per_job", frames as f64 / n);

    let mut bad = 0u64;
    let mut codec = Duration::ZERO;
    let mut bytes = 0u64;
    for kind in ["submit", "snapshot", "done", "accepted"] {
        let of_kind: Vec<&Frame> = jobs
            .iter()
            .flat_map(|j| j.frames.iter())
            .filter(|f| kind_name(f) == kind)
            .collect();
        let (encode_ns, decode_ns, kind_bytes) = codec_times(&of_kind, &mut bad);
        codec += Duration::from_secs_f64((encode_ns + decode_ns) * 1e-9 * of_kind.len() as f64 / n);
        bytes += kind_bytes;
        if kind != "accepted" {
            m.set(&format!("service.encode_ns.{kind}"), encode_ns);
            m.set(&format!("service.decode_ns.{kind}"), decode_ns);
        }
    }
    m.set("service.bytes_per_job", bytes as f64 / n);

    let open = min_time(3, || {
        let start = Instant::now();
        for _ in 0..100 {
            std::hint::black_box(TraceWorkload::open(TRACE).expect("checked-in trace opens"));
        }
        start.elapsed() / 100
    });
    m.set("trace.open_ms", open.as_secs_f64() * 1e3);

    let trace = TraceWorkload::open(TRACE).expect("checked-in trace opens");
    let v1 = MmapTrace::open(TRACE).expect("checked-in trace maps");
    let decode_pass = |sum: Option<&mut StreamSum>| {
        let mut cursor = v1.cursor();
        drain(
            |batch| {
                cursor
                    .decode_batch(batch)
                    .expect("checked-in trace decodes")
            },
            sum,
        )
    };
    let decode = min_time(3, || {
        (0..100).map(|_| decode_pass(None)).sum::<Duration>() / 100
    });
    let mut decoded = StreamSum::default();
    decode_pass(Some(&mut decoded));
    m.set(
        "trace.decode_ns_per_record",
        decode.as_nanos() as f64 / setup.records as f64,
    );

    // Engine layers: each scheme once, weighted by its share of jobs.
    let mut served = vec![0u32; setup.schemes.len()];
    for job in &jobs {
        served[job.scheme] += 1;
    }
    let mut sums = LayerSums::default();
    let mut weighted = [("", Duration::ZERO); 4];
    for (i, scheme) in setup.schemes.iter().enumerate() {
        let mut replica = Replica::new(&config_of(scheme));
        let mut workload = trace.workload();
        while replica.stats().accesses < setup.records {
            replica.run_workload_limit(&mut workload, SNAPSHOT_EVERY);
        }
        checks.record(replica.stats() == &setup.reference[i], || {
            format!("replica diverged from Engine on {}", scheme.label())
        });
        checks.record(decoded == replica.input, || {
            "decode replay differs from the captured input".to_owned()
        });
        let layers = replay_layers(&mut replica);
        checks.record(layers.mismatches == 0, || {
            format!("{} layer replays diverged from their logs", scheme.label())
        });
        for (slot, (name, time)) in weighted.iter_mut().zip(engine_layers(&layers)) {
            *slot = (name, slot.1 + time * served[i] / jobs.len() as u32);
        }
        sums.add(family(scheme), &layers);
    }
    sums.write(&mut m);
    checks.record(bad == 0, || "frame codec replay diverged".to_owned());

    let mut layers = vec![
        ("trace.open", open),
        ("trace.decode", decode),
        ("service.codec", codec),
    ];
    layers.extend(weighted);
    let reconciliation = reconcile(&mut m, plain_per_job, traced_per_job, &layers);
    Outcome {
        checks,
        digest,
        metrics: m,
        reconciliation: Some(reconciliation),
    }
}
