//! Sharded-versus-sequential throughput of one figure-scale run.
//!
//! `sharded_run` times `run_app_sharded` at 1/2/4 shards against the
//! sequential `run_app` path on the figure-scale DP fixture (galgel at
//! the standard scale — the paper's highest-miss-rate SPEC
//! application). The same sequential and 4-shard lanes then run through
//! [`assert_ratio`] for the tentpole scaling gate: **≥ 2× throughput at
//! 4 shards**, so a regression in the sharded executor fails `cargo
//! bench` loudly instead of drifting.
//!
//! The gate is a statement about parallel hardware, so it is guarded by
//! [`std::thread::available_parallelism`]: on hosts with fewer than 4
//! CPUs (where a 4-shard run cannot physically run 4 workers at once)
//! the Criterion lanes still report every time, but the gate prints
//! `gate SKIPPED` with the CPU count before measuring anything. CI
//! runners and developer machines with ≥ 4 cores enforce it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tlbsim_bench::assert_ratio;
use tlbsim_sim::{run_app, run_app_sharded, SimConfig};
use tlbsim_workloads::{find_app, AppSpec, Scale};

/// The gate: sharded throughput at [`GATE_SHARDS`] shards must be at
/// least this multiple of sequential throughput.
///
/// It is skipped on hosts with fewer than [`GATE_SHARDS`] CPUs, so a
/// shared 2-CPU x86-64 host never checks it: there it prints `gate
/// SKIPPED` without measuring, and no noise band is recorded.
const GATE_MIN_SPEEDUP: f64 = 2.0;
/// Shard count the gate is evaluated at.
const GATE_SHARDS: usize = 4;

fn fixture() -> (&'static AppSpec, Scale, SimConfig) {
    let app = find_app("galgel").expect("galgel is registered");
    (app, Scale::STANDARD, SimConfig::paper_default())
}

fn bench_sharded_run(c: &mut Criterion) {
    let (app, scale, config) = fixture();
    let accesses = app.stream_len(scale);
    let mut group = c.benchmark_group("sharded_run");
    group.throughput(Throughput::Elements(accesses));

    let sequential = || run_app(app, scale, &config).expect("valid config").misses;
    let sharded = |shards| {
        run_app_sharded(app, scale, &config, shards)
            .expect("valid config")
            .merged
            .misses
    };

    group.bench_function("sequential", |b| b.iter(sequential));
    for shards in [1usize, 2, GATE_SHARDS] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| b.iter(|| sharded(shards)),
        );
    }
    group.finish();

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < GATE_SHARDS {
        println!(
            "sharded_run gate SKIPPED: {cpus} cpus cannot run {GATE_SHARDS} shard workers \
             in parallel (gate needs >= {GATE_SHARDS})"
        );
        return;
    }
    assert_ratio("sharded_run", GATE_MIN_SPEEDUP, sequential, || {
        sharded(GATE_SHARDS)
    });
}

criterion_group!(benches, bench_sharded_run);
criterion_main!(benches);
