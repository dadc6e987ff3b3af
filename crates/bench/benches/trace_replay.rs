//! Generator-driven versus mmap-trace-replay throughput.
//!
//! `trace_replay` records the shard-scaling DP fixture (galgel at the
//! `SMALL` scale) to a temp `TLBT` file once, then times the functional
//! engine twice over the identical access stream: driven by the
//! synthetic generator, and replayed zero-copy out of the memory-mapped
//! trace. The group reports both lanes, then hands the same two lanes to
//! [`assert_ratio`] for the tentpole gate: **mmap replay at ≥ 0.8×
//! generator throughput** — replay decodes 17-byte records instead of
//! running visit arithmetic, so a regression past that floor means the
//! zero-copy path stopped being zero-copy (or started allocating) and
//! `cargo bench` fails loudly instead of drifting.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tlbsim_bench::{assert_ratio, trace_replay_fixture, TempFileGuard};
use tlbsim_experiments::replay::record_spec;
use tlbsim_sim::run_app;
use tlbsim_workloads::TraceWorkload;

/// The gate: replay throughput must be at least this fraction of
/// generator throughput.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// through [`assert_ratio`]: 0.97-1.05x over 20 runs (median 1.01x).
/// Both lanes swing together from run to run, and alternating rounds
/// with a best time per lane cancel that swing out of the ratio.
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
    let generator = || run_app(app, scale, &config).expect("valid config").misses;
    let replay = || {
        run_app(&trace, scale, &config)
            .expect("valid config")
            .misses
    };

    let mut group = c.benchmark_group("trace_replay");
    group.throughput(Throughput::Elements(summary.records));
    group.bench_function("generator", |b| b.iter(generator));
    group.bench_function("mmap_replay", |b| b.iter(replay));
    group.finish();
    assert_ratio("trace_replay", GATE_MIN_RATIO, generator, replay);
}

criterion_group!(benches, bench_trace_replay);
criterion_main!(benches);
