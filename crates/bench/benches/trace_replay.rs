//! Generator-driven versus mmap-trace-replay throughput.
//!
//! `trace_replay` records the shard-scaling DP fixture (galgel at the
//! `SMALL` scale) to a temp `TLBT` file once, then times the functional
//! engine twice over the identical access stream: driven by the
//! synthetic generator, and replayed zero-copy out of the memory-mapped
//! trace. The group asserts the tentpole gate: **mmap replay at ≥ 0.8×
//! generator throughput** — replay decodes 17-byte records instead of
//! running visit arithmetic, so a regression past that floor means the
//! zero-copy path stopped being zero-copy (or started allocating) and
//! `cargo bench` fails loudly instead of drifting.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tlbsim_bench::{trace_replay_fixture, TempFileGuard};
use tlbsim_experiments::replay::record_spec;
use tlbsim_sim::run_app;
use tlbsim_workloads::TraceWorkload;

/// The gate: replay throughput must be at least this fraction of
/// generator throughput.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// first attempts: 19 runs before `TraceReader` read 0.83-1.49x
/// (median 1.00x), 19 runs after it 0.62-1.52x (median 0.99x, four
/// below the gate). The same replay's ns/iter moved between 3.4 and
/// 7.8 ms from run to run and the generator's as much, so one sample
/// can cross the gate on noise alone: one of those runs failed its
/// retry too (0.77x, then 0.68x). Six alternating runs of both builds
/// at `TLBSIM_BENCH_WINDOW_MS=300 TLBSIM_BENCH_SAMPLES=9` put replay at
/// 3.6-5.5 ms/iter for both.
const GATE_MIN_RATIO: f64 = 0.8;

fn bench_trace_replay(c: &mut Criterion) {
    let (app, scale, config) = trace_replay_fixture();
    let path = std::env::temp_dir().join(format!(
        "tlbsim-cargo-bench-trace-{}.tlbt",
        std::process::id()
    ));
    let _guard = TempFileGuard(path.clone());
    let summary = record_spec(app, scale, None, &path).expect("recording the fixture succeeds");
    let trace = TraceWorkload::open(&path).expect("a just-recorded trace validates");
    println!(
        "trace_replay fixture: {} accesses, {} bytes, {} backend",
        summary.records,
        summary.bytes,
        trace.backend()
    );

    let mut group = c.benchmark_group("trace_replay");
    group.throughput(Throughput::Elements(summary.records));
    group.bench_function("generator", |b| {
        b.iter(|| run_app(app, scale, &config).expect("valid config").misses);
    });
    group.bench_function("mmap_replay", |b| {
        b.iter(|| {
            run_app(&trace, scale, &config)
                .expect("valid config")
                .misses
        });
    });
    group.finish();

    let mut generator_ns = f64::NAN;
    let mut replay_ns = f64::NAN;
    for result in c.results() {
        match result.name.as_str() {
            "trace_replay/generator" => generator_ns = result.ns_per_iter,
            "trace_replay/mmap_replay" => replay_ns = result.ns_per_iter,
            _ => {}
        }
    }
    assert!(
        generator_ns.is_finite() && replay_ns.is_finite(),
        "trace_replay results missing — bench labels and the gate below are out of sync"
    );
    let ratio = generator_ns / replay_ns;
    println!("trace_replay ratio (generator ns / replay ns): {ratio:.2}x");
    // Replay typically lands above parity (decoding records is cheaper
    // than generating them). A single noisy sample on a loaded machine
    // shouldn't read as a regression, so a borderline measurement gets
    // one clean retry before the assert.
    if ratio < GATE_MIN_RATIO {
        let retry = measure_ratio_once(&trace);
        println!("trace_replay retry ratio: {retry:.2}x");
        assert!(
            retry.max(ratio) >= GATE_MIN_RATIO,
            "mmap trace replay must run at >= {GATE_MIN_RATIO}x generator throughput, \
             measured {ratio:.2}x then {retry:.2}x"
        );
    }
}

/// One directly-timed ratio sample (best-of-3 for each path),
/// independent of the Criterion sample settings.
fn measure_ratio_once(trace: &TraceWorkload) -> f64 {
    let (app, scale, config) = trace_replay_fixture();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(run_app(app, scale, &config).expect("valid config"));
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(run_app(trace, scale, &config).expect("valid config"));
        best[1] = best[1].min(start.elapsed().as_secs_f64());
    }
    best[0] / best[1]
}

criterion_group!(benches, bench_trace_replay);
criterion_main!(benches);
