//! End-to-end throughput of the batched, zero-allocation miss path.
//!
//! Two groups:
//!
//! * `engine_throughput` — accesses/sec of the full functional engine
//!   per scheme (none/SP/ASP/MP/RP/DP) on a miss-heavy looping stream.
//! * `adaptive` — the confidence-wrapped distance prefetcher against
//!   plain DP through the full engine: the counter bank consulted on
//!   every miss prices adaptivity itself, and the wrapped path is
//!   required to stay ≥ 0.8× plain DP throughput — asserted so the
//!   wrapper can never quietly become the hot path's bottleneck.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tlbsim_bench::looping_access_stream;
use tlbsim_core::{ConfidenceConfig, PrefetcherConfig};
use tlbsim_sim::{Engine, SimConfig};

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
        let config = SimConfig::paper_default().with_prefetcher(prefetcher);
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            let mut engine = Engine::new(config).expect("valid config");
            b.iter(|| {
                engine.try_recycle(config);
                engine.run(stream.iter().copied());
                engine.stats().misses
            });
        });
    }
    group.finish();
}

/// The gate: confidence-wrapped DP must deliver at least this fraction
/// of plain DP engine throughput.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host:
/// first attempts read 0.47-1.16x over 8 runs (median 0.71x) and
/// retries 0.66-0.76x, so 6 of the 8 runs failed. No retry reaches the
/// gate, so the failure is not noise: the confidence throttle probes
/// two prediction tables per miss while plain DP probes one.
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
    let mut group = c.benchmark_group("adaptive");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for (label, prefetcher) in [
        ("DP", PrefetcherConfig::distance()),
        ("C+DP", confidence_dp()),
    ] {
        let config = SimConfig::paper_default().with_prefetcher(prefetcher);
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            let mut engine = Engine::new(config).expect("valid config");
            b.iter(|| {
                engine.try_recycle(config);
                engine.run(stream.iter().copied());
                engine.stats().misses
            });
        });
    }
    group.finish();

    let mut dp_ns = f64::NAN;
    let mut wrapped_ns = f64::NAN;
    for result in c.results() {
        match result.name.as_str() {
            "adaptive/DP" => dp_ns = result.ns_per_iter,
            "adaptive/C+DP" => wrapped_ns = result.ns_per_iter,
            _ => {}
        }
    }
    assert!(
        dp_ns.is_finite() && wrapped_ns.is_finite(),
        "adaptive results missing — bench labels and the gate below are out of sync"
    );
    let ratio = dp_ns / wrapped_ns;
    println!("adaptive ratio (C+DP vs DP throughput): {ratio:.2}x");
    // A borderline measurement on a loaded machine gets one clean
    // retry before the assert, as in the other gated groups.
    if ratio < ADAPTIVE_GATE_MIN_RATIO {
        let retry = measure_adaptive_ratio_once(&stream);
        println!("adaptive retry ratio: {retry:.2}x");
        assert!(
            retry.max(ratio) >= ADAPTIVE_GATE_MIN_RATIO,
            "confidence-wrapped DP must be >= {ADAPTIVE_GATE_MIN_RATIO}x plain DP \
             throughput, measured {ratio:.2}x then {retry:.2}x"
        );
    }
}

/// One directly-timed C+DP-vs-DP ratio sample (best-of-5 for each
/// path), independent of the Criterion sample settings.
fn measure_adaptive_ratio_once(stream: &[tlbsim_core::MemoryAccess]) -> f64 {
    use std::time::Instant;
    let mut best = [f64::INFINITY; 2];
    let dp_config = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::distance());
    let wrapped_config = SimConfig::paper_default().with_prefetcher(confidence_dp());
    let mut dp = Engine::new(&dp_config).expect("valid config");
    let mut wrapped = Engine::new(&wrapped_config).expect("valid config");
    for _ in 0..5 {
        let start = Instant::now();
        dp.try_recycle(&dp_config);
        dp.run(stream.iter().copied());
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        wrapped.try_recycle(&wrapped_config);
        wrapped.run(stream.iter().copied());
        best[1] = best[1].min(start.elapsed().as_secs_f64());
    }
    best[0] / best[1]
}

criterion_group!(benches, bench_engine_throughput, bench_adaptive);
criterion_main!(benches);
