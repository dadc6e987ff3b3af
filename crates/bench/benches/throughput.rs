//! End-to-end throughput of the batched, zero-allocation miss path.
//!
//! Two groups:
//!
//! * `engine_throughput` — accesses/sec of the full functional engine
//!   per scheme (none/SP/ASP/MP/RP/DP) on a miss-heavy looping stream.
//! * `adaptive` — the confidence-wrapped distance prefetcher against
//!   plain DP through the full engine: the counter bank consulted on
//!   every miss prices adaptivity itself. The same two lanes then run
//!   through [`assert_ratio`], which requires the wrapped path to stay
//!   ≥ 0.8× plain DP throughput, so the wrapper can never quietly
//!   become the hot path's bottleneck.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tlbsim_bench::{assert_ratio, looping_access_stream};
use tlbsim_core::{ConfidenceConfig, MemoryAccess, PrefetcherConfig};
use tlbsim_sim::{Engine, SimConfig};

/// One lane: an engine reused across calls that runs `stream` once per
/// call under `prefetcher`.
fn engine_lane(stream: &[MemoryAccess], prefetcher: PrefetcherConfig) -> impl FnMut() -> u64 + '_ {
    let config = SimConfig::paper_default().with_prefetcher(prefetcher);
    let mut engine = Engine::new(&config).expect("valid config");
    move || {
        engine.try_recycle(&config);
        engine.run(stream.iter().copied());
        engine.stats().misses
    }
}

fn bench_engine_throughput(c: &mut Criterion) {
    // 600 pages > 128 TLB entries: every lap misses on every page, so
    // the miss path (not the TLB fast path) dominates.
    let stream = looping_access_stream(600, 2, 6);
    let mut group = c.benchmark_group("engine_throughput");
    group.throughput(Throughput::Elements(stream.len() as u64));
    let schemes = [
        ("none", PrefetcherConfig::none()),
        ("SP", PrefetcherConfig::sequential()),
        ("ASP", PrefetcherConfig::stride()),
        ("MP", PrefetcherConfig::markov()),
        ("RP", PrefetcherConfig::recency()),
        ("DP", PrefetcherConfig::distance()),
    ];
    for (label, prefetcher) in schemes {
        let mut lane = engine_lane(&stream, prefetcher);
        group.bench_function(label, |b| b.iter(&mut lane));
    }
    group.finish();
}

/// The gate: confidence-wrapped DP must deliver at least this fraction
/// of plain DP engine throughput.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// through [`assert_ratio`]: 0.71-0.73x over 10 runs (median 0.72x;
/// 0.63-0.78x over 20 runs before the prefetch buffer became a
/// frame-keyed array), so every run fails. The failure is not noise:
/// the confidence throttle probes two prediction tables per miss while
/// plain DP probes one, and DP's cheaper candidate path leaves that
/// probe a larger share.
const ADAPTIVE_GATE_MIN_RATIO: f64 = 0.8;

/// The confidence-wrapped DP configuration the gate measures (the
/// adaptive default: threshold 2, degree cap 4).
fn confidence_dp() -> PrefetcherConfig {
    let mut cfg = PrefetcherConfig::distance();
    cfg.confidence(ConfidenceConfig::adaptive());
    cfg
}

fn bench_adaptive(c: &mut Criterion) {
    let stream = looping_access_stream(600, 2, 6);
    let mut dp = engine_lane(&stream, PrefetcherConfig::distance());
    let mut wrapped = engine_lane(&stream, confidence_dp());
    let mut group = c.benchmark_group("adaptive");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("DP", |b| b.iter(&mut dp));
    group.bench_function("C+DP", |b| b.iter(&mut wrapped));
    group.finish();
    assert_ratio("adaptive", ADAPTIVE_GATE_MIN_RATIO, dp, wrapped);
}

criterion_group!(benches, bench_engine_throughput, bench_adaptive);
criterion_main!(benches);
