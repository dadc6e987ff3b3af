//! `grid_replay`: the 30-scheme sweep over a recorded v2 trace.
//!
//! Set-up records a seeded random interleave of galgel (25% misses,
//! every mechanism predicts it) and mcf (9% misses, most mechanisms
//! mispredict it) at SMALL scale, and runs every scheme once through
//! `run_app` on fresh engines as the reference. The timed operation is
//! `replay(path, 1)`: the job-parallel sweep, which recycles engines
//! across jobs, so the check also compares two ways of running a scheme.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tlbsim_core::{MemoryAccess, PrefetcherConfig};
use tlbsim_experiments::paper_scheme_grid;
use tlbsim_experiments::replay::{replay, ReplayReport};
use tlbsim_sim::{run_app, SimConfig, SimStats};
use tlbsim_trace::{V2Trace, V2TraceWriter};
use tlbsim_workloads::{find_app, MultiStreamSpec, Scale, Schedule, StreamSpec, TraceWorkload};

use crate::replica::{family, replay_layers, Replica, BATCH};
use crate::report::{engine_layers, reconcile, Checks, LayerSums, Metrics, Outcome};
use crate::util::{drain, min_time, timed, Digest, StreamSum};
use crate::{latency_metrics, median, Run, SETUPS};

/// Quantum range of the seeded random schedules (accesses per slice).
pub const QUANTA: (u64, u64) = (256, 4096);

/// Records `spec` at `scale` as a v2 trace at `path`; returns
/// `(records, bytes)`.
pub fn record_v2(spec: &dyn StreamSpec, scale: Scale, path: &Path) -> (u64, u64) {
    let file = std::fs::File::create(path).expect("work directory is writable");
    let mut writer =
        V2TraceWriter::create(std::io::BufWriter::new(file)).expect("v2 header writes");
    let mut workload = spec.workload(scale);
    let mut batch = vec![MemoryAccess::read(0, 0); BATCH];
    loop {
        let filled = workload.fill_batch(&mut batch);
        if filled == 0 {
            break;
        }
        for access in &batch[..filled] {
            writer.write(access).expect("v2 record writes");
        }
    }
    let records = writer.records_written();
    let mut out = writer.finish().expect("v2 trace finishes");
    std::io::Write::flush(&mut out).expect("v2 trace flushes");
    drop(out);
    let bytes = std::fs::metadata(path).expect("trace was written").len();
    (records, bytes)
}

/// Runs `f` over `0..n` on `threads` scoped workers, results in order.
pub fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                slots.lock().expect("no worker panicked holding the slots")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked holding the slots")
        .into_iter()
        .map(|slot| slot.expect("every index ran"))
        .collect()
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn config_of(scheme: &PrefetcherConfig) -> SimConfig {
    SimConfig::paper_default().with_prefetcher(scheme.clone())
}

/// The digest of what `replay` reports: record count and every cell.
fn cells_digest(records: u64, cells: &[(String, f64, f64)]) -> String {
    let mut d = Digest::new();
    d.word(records);
    for (label, accuracy, miss_rate) in cells {
        d.bytes(label.as_bytes());
        d.word(accuracy.to_bits());
        d.word(miss_rate.to_bits());
    }
    d.hex()
}

fn report_cells(report: &ReplayReport) -> Vec<(String, f64, f64)> {
    report
        .cells
        .iter()
        .map(|c| (c.label.clone(), c.accuracy, c.miss_rate))
        .collect()
}

struct Setup {
    path: PathBuf,
    records: u64,
    bytes: u64,
    reference: Vec<SimStats>,
    cells: Vec<(String, f64, f64)>,
}

fn setup(run: &Run) -> Setup {
    let schemes = paper_scheme_grid();
    let mix = MultiStreamSpec::new(
        vec![
            Arc::new(find_app("galgel").expect("registered")) as Arc<dyn StreamSpec>,
            Arc::new(find_app("mcf").expect("registered")),
        ],
        Schedule::Random {
            seed: run.seed,
            min_quantum: QUANTA.0,
            max_quantum: QUANTA.1,
        },
    )
    .expect("valid mix");
    let path = run.work_dir.join("grid.tlbt");
    let (records, bytes) = record_v2(&mix, Scale::SMALL, &path);
    let trace = TraceWorkload::open(&path).expect("recorded trace opens");
    let reference = parallel_map(schemes.len(), threads(), |i| {
        run_app(&trace, Scale::TINY, &config_of(&schemes[i])).expect("grid schemes are valid")
    });
    let cells = schemes
        .iter()
        .zip(&reference)
        .map(|(s, stats)| (s.label(), stats.accuracy(), stats.miss_rate()))
        .collect();
    Setup {
        path,
        records,
        bytes,
        reference,
        cells,
    }
}

/// One timed sweep and its check.
fn sweep_once(setup: &Setup, expected: &str, checks: &mut Checks) -> Duration {
    let (report, elapsed) = timed(|| replay(&setup.path, 1));
    match report {
        Ok(report) => {
            let cells = report_cells(&report);
            let digest = cells_digest(report.records, &cells);
            checks.record(
                report.records == setup.records && cells == setup.cells && digest == expected,
                || format!("grid replay digest {digest}, expected {expected}"),
            );
        }
        Err(e) => checks.record(false, || format!("grid replay failed: {e}")),
    }
    elapsed
}

pub fn run(run: &Run) -> Outcome {
    let mut setup_times = Vec::new();
    let mut setup_state = None;
    for _ in 0..SETUPS {
        let (s, elapsed) = timed(|| setup(run));
        setup_times.push(elapsed.as_secs_f64());
        setup_state = Some(s);
    }
    let setup = setup_state.expect("at least one set-up");
    let reference_digest = cells_digest(setup.records, &setup.cells);
    let expected = run
        .expect_digest
        .clone()
        .unwrap_or_else(|| reference_digest.clone());
    let mut checks = Checks::default();

    if run.traced {
        return traced(run, &setup, &expected, checks);
    }

    let mut latencies = Vec::new();
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        latencies.push(sweep_once(&setup, &expected, &mut checks).as_secs_f64());
    }
    let schemes = setup.cells.len() as f64;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_times));
    m.set(
        "sim_accesses_per_s",
        schemes * setup.records as f64 / median(&latencies),
    );
    m.set("jobs_per_s", 1.0 / median(&latencies));
    latency_metrics(&mut m, &latencies);
    m.set(
        "trace_bytes_per_record",
        setup.bytes as f64 / setup.records as f64,
    );
    Outcome {
        checks,
        digest: reference_digest,
        metrics: m,
        reconciliation: None,
    }
}

/// The traced run: each scheme once through the real engine (the
/// end-to-end span), once through the logging replica, then each
/// layer's replay. SP, which the grid does not contain, is traced as
/// well so that every family has an `on_miss` cost; it stays out of
/// the reconciliation.
fn traced(run: &Run, setup: &Setup, expected: &str, mut checks: Checks) -> Outcome {
    let mut m = Metrics::per_layer_zeroed();
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < run.seconds / 2.0 {
        walls.push(sweep_once(setup, expected, &mut checks).as_secs_f64());
    }

    let (trace, open) = timed(|| TraceWorkload::open(&setup.path).expect("recorded trace opens"));
    let mut e2e = open;
    let mut traced_time = open;
    let mut sums = LayerSums::default();
    let mut input = None;
    let mut schemes: Vec<(PrefetcherConfig, Option<&SimStats>)> = paper_scheme_grid()
        .into_iter()
        .zip(setup.reference.iter().map(Some))
        .collect();
    schemes.push((PrefetcherConfig::sequential(), None));
    for (scheme, reference) in &schemes {
        let config = config_of(scheme);
        let (stats, engine_time) =
            timed(|| run_app(&trace, Scale::TINY, &config).expect("grid schemes are valid"));
        let mut replica = Replica::new(&config);
        let ((), capture_time) =
            timed(|| replica.run_workload_limit(&mut trace.workload(), u64::MAX));
        let equal = replica.stats() == &stats && reference.is_none_or(|r| r == &stats);
        checks.record(equal, || {
            format!("replica diverged from Engine on {}", scheme.label())
        });
        let layers = replay_layers(&mut replica);
        checks.record(layers.mismatches == 0, || {
            format!("{} layer replays diverged from their logs", scheme.label())
        });
        input = Some(replica.input);
        if reference.is_some() {
            e2e += engine_time;
            traced_time += capture_time;
            sums.add(family(scheme), &layers);
        } else {
            sums.add_family_only(family(scheme), &layers);
        }
    }

    let trace_v2 = V2Trace::open(&setup.path).expect("recorded trace opens");
    let decode_pass = |sum: Option<&mut StreamSum>| {
        let mut cursor = trace_v2.cursor();
        drain(
            |batch| cursor.decode_batch(batch).expect("recorded trace decodes"),
            sum,
        )
    };
    let decode = min_time(2, || decode_pass(None));
    let mut decoded = StreamSum::default();
    decode_pass(Some(&mut decoded));
    checks.record(Some(decoded) == input, || {
        "decode replay differs from the captured input".to_owned()
    });

    let grid_len = setup.reference.len() as u32;
    sums.write(&mut m);
    m.set(
        "trace.decode_ns_per_record",
        decode.as_nanos() as f64 / setup.records as f64,
    );
    m.set("trace.open_ms", open.as_secs_f64() * 1e3);
    let workers = threads().min(grid_len as usize) as f64;
    let engine_busy = (e2e - open).as_secs_f64();
    m.set(
        "experiments.sweep_busy_share",
        engine_busy / (median(&walls) * workers),
    );

    let mut layers = vec![("trace.open", open), ("trace.decode", decode * grid_len)];
    layers.extend(engine_layers(&sums.layers));
    let reconciliation = reconcile(&mut m, e2e, traced_time, &layers);
    Outcome {
        checks,
        digest: cells_digest(setup.records, &setup.cells),
        metrics: m,
        reconciliation: Some(reconciliation),
    }
}
