//! The `multiprogram` gate: single-stream versus multiprogrammed-interleave
//! throughput.
//!
//! It runs the shared fixture (gap + mcf interleaved round-robin at a
//! 4096-access quantum under the representative DP configuration)
//! through the functional engine in two lanes over the identical
//! accesses: the component streams back-to-back (`run_app` each), and
//! as one multiprogrammed stream through the switch-aware `run_mix`.
//! [`assert_ratio`] holds **interleaved execution at ≥ 0.8×
//! single-stream throughput** — segment walking and per-stream
//! attribution are bookkeeping around the same batched hot loop, so a
//! regression past that floor means the multiprogram layer started
//! doing per-access work (or allocating) and `cargo bench` fails loudly
//! instead of drifting.

use tlbsim_bench::{assert_ratio, multiprogram_fixture};
use tlbsim_sim::{run_app, run_mix, SwitchPolicy};

/// The gate: interleaved throughput must be at least this fraction of
/// the back-to-back single-stream path.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// through [`assert_ratio`]: 0.91-0.98x over 12 runs (median 0.945x).
/// With no report-only lanes before the gate: 0.91-1.24x over 12 runs
/// (median 0.94x), 48-100 rounds, none failed.
const GATE_MIN_RATIO: f64 = 0.8;

fn main() {
    let (mix, scale, config) = multiprogram_fixture();
    let accesses = mix
        .streams()
        .iter()
        .map(|s| s.stream_len(scale))
        .sum::<u64>();
    println!(
        "multiprogram fixture: {} ({} accesses)",
        tlbsim_workloads::StreamSpec::name(&mix),
        accesses
    );
    assert_ratio(
        "multiprogram",
        GATE_MIN_RATIO,
        || {
            let mut misses = 0;
            for stream in mix.streams() {
                misses += run_app(stream, scale, &config)
                    .expect("valid config")
                    .misses;
            }
            misses
        },
        || {
            run_mix(&mix, scale, &config, SwitchPolicy::None)
                .expect("valid config")
                .misses
        },
    );
}
