//! # tlbsim-bench — shared benchmark fixtures
//!
//! Deterministic miss streams, recorded-trace and multiprogram fixtures,
//! and run helpers used by the Criterion benches in `benches/`. The bench
//! groups mirror the paper's artifacts: `figures.rs` and `tables.rs` time
//! the kernels that regenerate each figure/table, `prefetchers.rs` and
//! `substrates.rs` microbenchmark the mechanisms and hardware models, and
//! `ablations.rs` quantifies the design choices documented in the
//! repository `README.md`. Five groups assert in-tree gates, all through
//! [`assert_ratio`]'s one alternating best-of-[`GATE_ROUNDS`] protocol:
//!
//! - `throughput.rs`: the confidence-wrapped DP (C+DP ≥ 0.8× plain DP
//!   throughput);
//! - `sharding.rs`: the sharded single-run executor (≥ 2× sequential
//!   throughput at 4 shards, on hosts with ≥ 4 CPUs);
//! - `trace_replay.rs`: mmap trace replay (≥ 0.8× the generator-driven
//!   throughput on the identical stream);
//! - `trace_v2.rs`: block-compressed v2 replay (≥ 1/1.2× raw v1 replay
//!   throughput, at ≤ 6 bytes/record);
//! - `multiprogram.rs`: the interleaved multiprogrammed path (≥ 0.8×
//!   back-to-back single-stream throughput on the identical accesses).
//!
//! End-to-end numbers with a spread come from the repository benchmark
//! (`perfbench/`), not from these groups.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlbsim_core::{MemoryAccess, MissContext, Pc, VirtPage};
use tlbsim_sim::{Engine, SimConfig, SimStats};
use tlbsim_workloads::{find_app, AppSpec, MultiStreamSpec, Scale, Schedule, StreamSpec};

/// A deterministic synthetic miss stream mixing strided runs with
/// repeating jumps — exercises every mechanism's table paths without
/// degenerating into a single hot row.
pub fn mixed_miss_stream(len: usize) -> Vec<MissContext> {
    let mut out = Vec::with_capacity(len);
    let mut page = 0x10_0000u64;
    for i in 0..len {
        page += match i % 7 {
            0..=3 => 1,
            4 => 13,
            5 => 1,
            _ => 97,
        };
        out.push(MissContext {
            page: VirtPage::new(page),
            pc: Pc::new(0x400 + (i as u64 % 4) * 4),
            prefetch_buffer_hit: i % 3 == 0,
            evicted_tlb_entry: if i % 2 == 0 {
                Some(VirtPage::new(page - 200))
            } else {
                None
            },
        });
    }
    out
}

/// A deterministic access stream for whole-engine benchmarks.
pub fn looping_access_stream(pages: u64, refs: u64, laps: u64) -> Vec<MemoryAccess> {
    let mut out = Vec::with_capacity((pages * refs * laps) as usize);
    for _ in 0..laps {
        for p in 0..pages {
            for r in 0..refs {
                out.push(MemoryAccess::read(0x400, (0x10_0000 + p) * 4096 + r * 64));
            }
        }
    }
    out
}

/// The trace-replay fixture: galgel — the paper's highest-miss-rate
/// SPEC application — at the `SMALL` scale (the recorded file stays a
/// few MiB), under the representative DP configuration. The
/// `trace_replay` and `trace_v2` groups both record it.
pub fn trace_replay_fixture() -> (&'static AppSpec, Scale, SimConfig) {
    let app = find_app("galgel").expect("galgel is registered");
    (app, Scale::SMALL, SimConfig::paper_default())
}

/// Removes a temp file when dropped, so a panic between recording and
/// the end of the measurement cannot strand multi-MiB traces in the
/// temp dir.
pub struct TempFileGuard(pub std::path::PathBuf);

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The multiprogram fixture: the two highest-profile pointer/graph
/// miss streams (gap + mcf) interleaved round-robin at a realistic
/// preemption quantum, under the representative DP configuration.
pub fn multiprogram_fixture() -> (MultiStreamSpec, Scale, SimConfig) {
    let streams: Vec<Arc<dyn StreamSpec>> = ["gap", "mcf"]
        .iter()
        .map(|name| Arc::new(find_app(name).expect("registered")) as Arc<dyn StreamSpec>)
        .collect();
    let mix = MultiStreamSpec::new(streams, Schedule::RoundRobin { quantum: 4096 })
        .expect("two-stream fixture is a valid mix");
    (mix, Scale::SMALL, SimConfig::paper_default())
}

/// Runs an application through the functional engine at bench scale.
pub fn run_functional(app: &AppSpec, config: &SimConfig) -> SimStats {
    let mut engine = Engine::new(config).expect("valid bench configuration");
    engine.run(app.workload(Scale::TINY));
    engine.stats().clone()
}

/// Alternating rounds each lane of a gate runs in [`assert_ratio`].
pub const GATE_ROUNDS: usize = 25;

/// The in-tree gate protocol. Times `base` then `candidate`, alternating,
/// for [`GATE_ROUNDS`] rounds, keeps each lane's best wall time, prints
/// both with the ratio and `floor`, and returns the ratio (base time
/// over candidate time, so above 1 means the candidate is faster).
///
/// # Panics
///
/// Panics, naming `gate` and both best times, when the ratio is below
/// `floor`.
pub fn assert_ratio<A, B>(
    gate: &str,
    floor: f64,
    mut base: impl FnMut() -> A,
    mut candidate: impl FnMut() -> B,
) -> f64 {
    let mut best = [Duration::MAX; 2];
    for _ in 0..GATE_ROUNDS {
        let start = Instant::now();
        black_box(base());
        best[0] = best[0].min(start.elapsed());
        let start = Instant::now();
        black_box(candidate());
        best[1] = best[1].min(start.elapsed());
    }
    let [base_ns, candidate_ns] = best.map(|d| d.as_nanos() as f64);
    let ratio = base_ns / candidate_ns;
    println!(
        "{gate} gate: best base {base_ns:.0} ns, best candidate {candidate_ns:.0} ns, \
         ratio {ratio:.2}x (floor {floor:.3}x)"
    );
    assert!(
        ratio >= floor,
        "{gate} gate failed: ratio {ratio:.2}x is below the {floor:.3}x floor \
         (best base {base_ns:.0} ns, best candidate {candidate_ns:.0} ns \
         over {GATE_ROUNDS} alternating rounds)"
    );
    ratio
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    #[test]
    fn each_lane_runs_every_round_alternating_base_first() {
        let log = RefCell::new(String::new());
        let lane = |name| {
            log.borrow_mut().push(name);
            std::thread::sleep(Duration::from_micros(10));
        };
        assert_ratio("order", 0.0, || lane('b'), || lane('c'));
        assert_eq!(log.into_inner(), "bc".repeat(GATE_ROUNDS));
    }

    #[test]
    fn a_faster_candidate_passes() {
        let ratio = assert_ratio(
            "faster",
            2.0,
            || std::thread::sleep(Duration::from_millis(5)),
            || std::thread::sleep(Duration::from_millis(1)),
        );
        assert!(ratio >= 2.0);
    }

    #[test]
    #[should_panic(expected = "slower gate failed")]
    fn a_slower_candidate_fails_naming_the_gate() {
        assert_ratio(
            "slower",
            1.0,
            || std::thread::sleep(Duration::from_millis(1)),
            || std::thread::sleep(Duration::from_millis(5)),
        );
    }

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(mixed_miss_stream(100), mixed_miss_stream(100));
        assert_eq!(
            looping_access_stream(10, 2, 2),
            looping_access_stream(10, 2, 2)
        );
        assert_eq!(looping_access_stream(10, 2, 2).len(), 40);

        let (app, scale, config) = trace_replay_fixture();
        assert_eq!(app.name, "galgel");
        assert_eq!(scale, Scale::SMALL);
        assert_eq!(config, SimConfig::paper_default());

        let (mix, scale, config) = multiprogram_fixture();
        assert_eq!(mix.stream_names(), vec!["gap", "mcf"]);
        assert_eq!(*mix.schedule(), Schedule::RoundRobin { quantum: 4096 });
        assert_eq!(scale, Scale::SMALL);
        assert_eq!(config, SimConfig::paper_default());
    }
}
