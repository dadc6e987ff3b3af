//! Golden pin of the three secondary engines.
//!
//! Every field of every statistics record the timing, cache and
//! hierarchy engines produce is recorded in
//! `tests/data/golden-engines.txt`:
//!
//! * `TimingEngine`: Table 3's baseline, RP and DP runs of its five
//!   applications at TINY scale, `f64` cycle counts written as their
//!   bit patterns so no rounding hides a drift;
//! * `CacheEngine`: SP, ASP, MP and DP over the checked-in
//!   `tests/data/gap-tiny-2k.tlbt` in a typical L1 data cache;
//! * `HierarchyEngine`: the two L1/L2 setups of `tests/extensions.rs`.
//!
//! The stats records are destructured without `..`, so a new field fails
//! to compile here until it is pinned too. Folding these engines into
//! `Engine` must leave this file byte-identical.
//!
//! To re-record after an intentional semantic change, run the test with
//! `TLBSIM_BLESS_GOLDEN=1` and review the diff of the data file.

use std::fmt::Write as _;
use std::path::Path;

use tlb_distance::mmu::{DataCacheConfig, HierarchyConfig};
use tlb_distance::prelude::*;
use tlb_distance::sim::{CacheEngine, CacheStats, HierarchyEngine, HierarchyStats, TimingStats};
use tlb_distance::workloads::table3_apps;

const GOLDEN: &str = "tests/data/golden-engines.txt";
const TRACE: &str = "tests/data/gap-tiny-2k.tlbt";

fn timing_lines(out: &mut String) {
    let params = TimingParams::paper_default();
    for (app, _, _) in table3_apps() {
        for (run, config) in [
            ("baseline", SimConfig::baseline()),
            (
                "RP",
                SimConfig::paper_default().with_prefetcher(PrefetcherConfig::recency()),
            ),
            ("DP", SimConfig::paper_default()),
        ] {
            let stats = run_app_timed(app, Scale::TINY, &config, params).expect("Table 3 runs");
            let TimingStats {
                cycles,
                accesses,
                misses,
                covered_hits,
                inflight_hits,
                demand_misses,
                stall_demand,
                stall_inflight,
                stall_maintenance,
                channel_fetches,
                channel_maintenance,
                prefetches_skipped_busy,
                prefetches_dropped_backlog,
            } = stats;
            writeln!(
                out,
                "timing {} {run} cycles={:016x} accesses={accesses} misses={misses} \
                 covered_hits={covered_hits} inflight_hits={inflight_hits} \
                 demand_misses={demand_misses} stall_demand={:016x} stall_inflight={:016x} \
                 stall_maintenance={:016x} channel_fetches={channel_fetches} \
                 channel_maintenance={channel_maintenance} \
                 skipped_busy={prefetches_skipped_busy} dropped_backlog={prefetches_dropped_backlog}",
                app.name,
                cycles.to_bits(),
                stall_demand.to_bits(),
                stall_inflight.to_bits(),
                stall_maintenance.to_bits(),
            )
            .expect("writing to a String cannot fail");
        }
    }
}

fn cache_lines(out: &mut String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let trace = TraceWorkload::open(root.join(TRACE)).expect("checked-in trace opens");
    for scheme in [
        PrefetcherConfig::sequential(),
        PrefetcherConfig::stride(),
        PrefetcherConfig::markov(),
        PrefetcherConfig::distance(),
    ] {
        let mut engine =
            CacheEngine::new(DataCacheConfig::typical_l1d(), &scheme).expect("valid scheme");
        let CacheStats {
            accesses,
            misses,
            prefetches_issued,
        } = *engine.run(trace.workload());
        writeln!(
            out,
            "cache {scheme} accesses={accesses} misses={misses} issued={prefetches_issued}"
        )
        .expect("writing to a String cannot fail");
    }
}

fn hierarchy_lines(out: &mut String) {
    let setups = [
        ("galgel", SimConfig::paper_default()),
        ("adpcm-enc", SimConfig::paper_default()),
        ("wupwise", SimConfig::paper_default()),
        ("gap", SimConfig::baseline()),
    ];
    for (name, config) in setups {
        let app = find_app(name).expect("registered");
        let mut engine = HierarchyEngine::new(
            &config,
            HierarchyConfig {
                l1: TlbConfig::fully_associative(16),
                l2: TlbConfig::paper_default(),
            },
        )
        .expect("valid hierarchy");
        let HierarchyStats {
            accesses,
            l1_misses,
            l2_misses,
            prefetch_buffer_hits,
            prefetches_issued,
        } = *engine.run(app.workload(Scale::TINY));
        writeln!(
            out,
            "hierarchy {name} {} accesses={accesses} l1_misses={l1_misses} \
             l2_misses={l2_misses} pb_hits={prefetch_buffer_hits} issued={prefetches_issued}",
            config.prefetcher
        )
        .expect("writing to a String cannot fail");
    }
}

#[test]
fn every_secondary_engine_counter_matches_the_recorded_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let mut actual = String::new();
    timing_lines(&mut actual);
    cache_lines(&mut actual);
    hierarchy_lines(&mut actual);
    if std::env::var_os("TLBSIM_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("golden file writes");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file is checked in");
    let mismatches: Vec<(&str, &str)> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} of {} golden lines differ (expected {} lines, got {}); first: {:?}",
        mismatches.len(),
        expected.lines().count(),
        expected.lines().count(),
        actual.lines().count(),
        mismatches.first(),
    );
}
