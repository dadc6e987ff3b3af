//! The `sharded_run` gate: sharded-versus-sequential throughput of one
//! figure-scale run.
//!
//! [`assert_ratio`] times `run_app_sharded` at 4 shards against the
//! sequential `run_app` path on the figure-scale DP fixture (galgel at
//! the standard scale — the paper's highest-miss-rate SPEC
//! application), with the scaling floor **≥ 2× throughput at 4
//! shards**, so a regression in the sharded executor fails `cargo
//! bench` loudly instead of drifting.
//!
//! The gate is a statement about parallel hardware, so it is guarded by
//! [`std::thread::available_parallelism`]: on hosts with fewer than 4
//! CPUs (where a 4-shard run cannot physically run 4 workers at once)
//! it prints `gate SKIPPED` with the CPU count before building or
//! timing anything. CI runners and developer machines with ≥ 4 cores
//! enforce it.

use tlbsim_bench::assert_ratio;
use tlbsim_sim::{run_app, run_app_sharded, SimConfig};
use tlbsim_workloads::{find_app, Scale};

/// The gate: sharded throughput at [`GATE_SHARDS`] shards must be at
/// least this multiple of sequential throughput.
///
/// It is skipped on hosts with fewer than [`GATE_SHARDS`] CPUs, so a
/// shared 2-CPU x86-64 host never checks it: there it prints `gate
/// SKIPPED` without measuring, and no noise band is recorded.
const GATE_MIN_SPEEDUP: f64 = 2.0;
/// Shard count the gate is evaluated at.
const GATE_SHARDS: usize = 4;

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < GATE_SHARDS {
        println!(
            "sharded_run gate SKIPPED: {cpus} cpus cannot run {GATE_SHARDS} shard workers \
             in parallel (gate needs >= {GATE_SHARDS})"
        );
        return;
    }
    let app = find_app("galgel").expect("galgel is registered");
    let (scale, config) = (Scale::STANDARD, SimConfig::paper_default());
    assert_ratio(
        "sharded_run",
        GATE_MIN_SPEEDUP,
        || run_app(app, scale, &config).expect("valid config").misses,
        || {
            run_app_sharded(app, scale, &config, GATE_SHARDS)
                .expect("valid config")
                .merged
                .misses
        },
    );
}
