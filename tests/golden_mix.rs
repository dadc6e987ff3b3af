//! Golden pin of the multiprogrammed and sharded runners.
//!
//! Every counter of every result is recorded in `tests/data/golden-mix.txt`
//! at `Scale::TINY` for:
//!
//! * `run_mix` and `run_mix_sharded` at 2 and 3 shards over a 3-stream
//!   mix with a short round-robin quantum, under every switch policy
//!   (`None`, `FlushOnSwitch`, and ASID with 1, 2 and 3 live contexts
//!   over shared and partitioned tables);
//! * `run_app_sharded` at 1–4 shards over one registered model and the
//!   checked-in trace;
//! * the recovery path of `run_app_sharded`: a chaos-wrapped model that
//!   panics its worker once (one retry) and `SHARD_ATTEMPTS` times (one
//!   degraded shard).
//!
//! Each under DP, RP and C+DP. A sharded result records its merged
//! counters, its per-stream rows, every shard's range, counters and
//! end-of-slice residency, the boundary residency and the run health.
//! The differential suites pin these runners against each other; this
//! file pins them against numbers this build did not produce.
//!
//! To re-record after an intentional semantic change, run the test with
//! `TLBSIM_BLESS_GOLDEN=1` and review the diff of the data file.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use tlbsim_core::PrefetcherConfig;
use tlbsim_sim::{
    run_app_sharded, run_mix, run_mix_sharded, ShardedRun, SimConfig, SimStats, SwitchPolicy,
    TablePolicy, SHARD_ATTEMPTS,
};
use tlbsim_trace::{FaultKind, FaultPlan};
use tlbsim_workloads::{
    find_app, ChaosSpec, MultiStreamSpec, Scale, Schedule, StreamSpec, TraceWorkload,
};

const GOLDEN: &str = "tests/data/golden-mix.txt";
const TRACE: &str = "tests/data/gap-tiny-2k.tlbt";

fn schemes() -> Vec<(&'static str, PrefetcherConfig)> {
    vec![
        ("DP", PrefetcherConfig::distance()),
        ("RP", PrefetcherConfig::recency()),
        ("C+DP", "c+dp".parse().expect("scheme grammar")),
    ]
}

fn policies() -> Vec<(String, SwitchPolicy)> {
    let mut policies = vec![
        ("none".to_owned(), SwitchPolicy::None),
        ("flush".to_owned(), SwitchPolicy::FlushOnSwitch),
    ];
    for contexts in 1..=3 {
        for (name, tables) in [
            ("shared", TablePolicy::Shared),
            ("partitioned", TablePolicy::Partitioned),
        ] {
            policies.push((
                format!("asid{contexts}-{name}"),
                SwitchPolicy::Asid { contexts, tables },
            ));
        }
    }
    policies
}

fn counters(stats: &SimStats) -> String {
    format!(
        "accesses={} misses={} pb_hits={} walks={} issued={} filtered={} evicted_unused={} \
         maintenance={} footprint={}",
        stats.accesses,
        stats.misses,
        stats.prefetch_buffer_hits,
        stats.demand_walks,
        stats.prefetches_issued,
        stats.prefetches_filtered,
        stats.prefetches_evicted_unused,
        stats.maintenance_ops,
        stats.footprint_pages,
    )
}

/// One line for the aggregate, one per stream row.
fn record_stats(out: &mut String, label: &str, stats: &SimStats) {
    writeln!(out, "{label} merged {}", counters(stats)).expect("writing to a String");
    for (index, row) in stats.per_stream.streams().iter().enumerate() {
        writeln!(
            out,
            "{label} stream{index} accesses={} misses={} pb_hits={} walks={} issued={} footprint={}",
            row.accesses,
            row.misses,
            row.prefetch_buffer_hits,
            row.demand_walks,
            row.prefetches_issued,
            row.footprint_pages,
        )
        .expect("writing to a String");
    }
}

fn record_sharded(out: &mut String, label: &str, run: &ShardedRun) {
    record_stats(out, label, &run.merged);
    for (index, shard) in run.shards.iter().enumerate() {
        writeln!(
            out,
            "{label} shard{index} start={} len={} resident={} {}",
            shard.range.start,
            shard.range.len,
            shard.resident_prefetches,
            counters(&shard.stats),
        )
        .expect("writing to a String");
    }
    writeln!(
        out,
        "{label} boundary={} retries={} degraded={} quarantined={}",
        run.boundary_resident_prefetches,
        run.health.retries,
        run.health.degraded_shards,
        run.health.quarantined_records,
    )
    .expect("writing to a String");
}

fn mix() -> MultiStreamSpec {
    let streams = ["gap", "mcf", "eon"]
        .iter()
        .map(|name| Arc::new(find_app(name).expect("registered")) as Arc<dyn StreamSpec>)
        .collect();
    MultiStreamSpec::new(streams, Schedule::RoundRobin { quantum: 500 }).expect("valid mix")
}

fn current() -> String {
    let mut out = String::new();
    let mix = mix();
    let galgel = find_app("galgel").expect("registered");
    let trace = TraceWorkload::open(TRACE).expect("checked-in trace opens");
    for (scheme, prefetcher) in schemes() {
        let config = SimConfig::paper_default().with_prefetcher(prefetcher);
        for (policy_label, policy) in policies() {
            let label = format!("mix {scheme} {policy_label}");
            let stats = run_mix(&mix, Scale::TINY, &config, policy).expect("valid mix run");
            record_stats(&mut out, &format!("{label} sequential"), &stats);
            for shards in [2, 3] {
                let run = run_mix_sharded(&mix, Scale::TINY, &config, policy, shards)
                    .expect("valid sharded mix run");
                record_sharded(&mut out, &format!("{label} shards={shards}"), &run);
            }
        }
        for shards in 1..=4 {
            let run = run_app_sharded(&galgel, Scale::TINY, &config, shards).expect("valid run");
            record_sharded(
                &mut out,
                &format!("app {scheme} galgel shards={shards}"),
                &run,
            );
            let run = run_app_sharded(&trace, Scale::TINY, &config, shards).expect("valid run");
            record_sharded(
                &mut out,
                &format!("trace {scheme} gap-2k shards={shards}"),
                &run,
            );
        }
        for budget in [1, SHARD_ATTEMPTS as u64] {
            for shards in [1, 3] {
                let chaos = ChaosSpec::new(
                    Arc::new(find_app("gap").expect("registered")),
                    FaultPlan::new().with(5_000, FaultKind::WorkerPanic),
                    budget,
                );
                let run = run_app_sharded(&chaos, Scale::TINY, &config, shards)
                    .expect("recovers within the attempt budget");
                record_sharded(
                    &mut out,
                    &format!("chaos {scheme} gap panics={budget} shards={shards}"),
                    &run,
                );
            }
        }
    }
    out
}

#[test]
fn every_mix_and_shard_counter_matches_the_recorded_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = current();
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
