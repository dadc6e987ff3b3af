//! The `adaptive` gate: the confidence-wrapped distance prefetcher
//! against plain DP through the full engine on a miss-heavy looping
//! stream. The counter bank consulted on every miss prices adaptivity
//! itself, so [`assert_ratio`] requires the wrapped path to stay ≥ 0.8×
//! plain DP throughput, and the wrapper can never quietly become the hot
//! path's bottleneck.

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

/// The gate: confidence-wrapped DP must deliver at least this fraction
/// of plain DP engine throughput.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// through [`assert_ratio`]: 0.71-0.73x over 10 runs (median 0.72x;
/// 0.63-0.78x over 20 runs before the prefetch buffer became a
/// frame-keyed array), so every run fails. The failure is not noise:
/// the confidence throttle probes two prediction tables per miss while
/// plain DP probes one, and DP's cheaper candidate path leaves that
/// probe a larger share. With no report-only lanes before the gate:
/// 0.70-0.73x over 5 runs (median 0.71x), all fail.
const ADAPTIVE_GATE_MIN_RATIO: f64 = 0.8;

/// The confidence-wrapped DP configuration the gate measures (the
/// adaptive default: threshold 2, degree cap 4).
fn confidence_dp() -> PrefetcherConfig {
    let mut cfg = PrefetcherConfig::distance();
    cfg.confidence(ConfidenceConfig::adaptive());
    cfg
}

fn main() {
    // 600 pages > 128 TLB entries: every lap misses on every page, so
    // the miss path (not the TLB fast path) dominates.
    let stream = looping_access_stream(600, 2, 6);
    assert_ratio(
        "adaptive",
        ADAPTIVE_GATE_MIN_RATIO,
        engine_lane(&stream, PrefetcherConfig::distance()),
        engine_lane(&stream, confidence_dp()),
    );
}
