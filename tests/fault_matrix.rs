//! The fault matrix: every injected fault kind, under both decode
//! policies, through every execution mode.
//!
//! The contract this harness pins is *totality*: whatever a
//! [`FaultPlan`] does to an input — corrupt kind bytes, wild virtual
//! addresses, a torn tail, worker panics — the stack either completes
//! the run (skipping and counting under quarantine, retrying and
//! degrading in the sharded executor) or returns a typed error. It
//! never panics out of the runner and never silently mis-replays. Strict decode stays the default and rejects
//! any byte-level damage; quarantine admits it up to a budget and
//! reports exactly what was lost.

use std::sync::Arc;

use tlb_distance::prelude::*;
use tlb_distance::trace::{wild_vaddr, BinaryTraceWriter};

const RECORDS: u64 = 2000;

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tlbsim-matrix-{}-{tag}.tlbt", std::process::id()))
}

/// Records 2000 accesses of gap to a fresh temp trace.
fn record_gap(tag: &str) -> std::path::PathBuf {
    let path = temp(tag);
    tlb_distance::experiments::replay::record("gap", Scale::TINY, Some(RECORDS), &path).unwrap();
    path
}

/// A copy of `clean` with `plan` baked into its bytes.
fn bake(clean: &std::path::Path, tag: &str, plan: &FaultPlan) -> std::path::PathBuf {
    let mut bytes = std::fs::read(clean).unwrap();
    plan.apply_to_bytes(&mut bytes);
    let path = temp(tag);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Runs one trace through all three execution modes and asserts each
/// completes with the expected number of accesses.
fn run_all_modes(trace: &TraceWorkload, expected_accesses: u64, context: &str) {
    run_all_modes_with(
        &SimConfig::paper_default(),
        trace,
        expected_accesses,
        context,
    );
}

/// [`run_all_modes`] under an explicit configuration — the adaptive
/// schemes run the same matrix as the paper-default DP.
fn run_all_modes_with(
    config: &SimConfig,
    trace: &TraceWorkload,
    expected_accesses: u64,
    context: &str,
) {
    let sequential = run_app_sharded(trace, Scale::TINY, config, 1).unwrap();
    assert_eq!(
        sequential.merged.accesses, expected_accesses,
        "{context}: sequential"
    );

    let sharded = run_app_sharded(trace, Scale::TINY, config, 4).unwrap();
    assert_eq!(
        sharded.merged.accesses, expected_accesses,
        "{context}: sharded"
    );
    // Sharding approximates around boundaries but conserves the event
    // totals exactly.
    assert_eq!(
        sharded.merged.misses,
        sharded.merged.prefetch_buffer_hits + sharded.merged.demand_walks,
        "{context}: sharded counters inconsistent"
    );
    drop(sequential);

    let mix = MultiStreamSpec::new(
        vec![
            Arc::new(trace.clone()) as Arc<dyn StreamSpec>,
            Arc::new(find_app("mcf").unwrap()),
        ],
        Schedule::RoundRobin { quantum: 500 },
    )
    .unwrap();
    // Both switch policies run the damaged interleave: the flush
    // oracle and flush-free ASID retagging must agree on attribution
    // and on what quarantine lost.
    for policy in [
        SwitchPolicy::FlushOnSwitch,
        SwitchPolicy::Asid {
            contexts: 2,
            tables: TablePolicy::Shared,
        },
    ] {
        let mixed = run_mix_sharded(&mix, Scale::TINY, config, policy, 2).unwrap();
        assert_eq!(
            mixed.merged.per_stream.streams()[0].accesses,
            expected_accesses,
            "{context}: mix attribution ({policy})"
        );
        assert_eq!(
            mixed.health.quarantined_records,
            trace.health().records_bad,
            "{context}: mix health ({policy})"
        );
    }
}

#[test]
fn corrupt_kind_bytes_fail_strict_and_quarantine_under_every_mode() {
    let clean = record_gap("corrupt-clean");
    let plan = FaultPlan::seeded(11, RECORDS, &[(FaultKind::CorruptKind, 6)]);
    let dirty = bake(&clean, "corrupt-dirty", &plan);

    // Strict: a typed error, not a panic, from the open-time scan.
    let strict = TraceWorkload::open(&dirty);
    assert!(
        matches!(strict, Err(ref e) if e.to_string().contains("kind")),
        "strict open must fail typed: {strict:?}"
    );

    // Quarantine: all three execution modes replay the surviving
    // records, and the loss is visible in the health report.
    let trace = TraceWorkload::open_with_policy(&dirty, DecodePolicy::quarantine(6)).unwrap();
    assert_eq!(trace.stream_len(), RECORDS - 6);
    assert_eq!(trace.health().records_bad, 6);
    run_all_modes(&trace, RECORDS - 6, "corrupt-kind");

    // An insufficient budget is a typed error too.
    assert!(TraceWorkload::open_with_policy(&dirty, DecodePolicy::quarantine(5)).is_err());

    std::fs::remove_file(&clean).unwrap();
    std::fs::remove_file(&dirty).unwrap();
}

#[test]
fn wild_vaddrs_decode_fine_and_simulate_under_both_policies() {
    // A wild vaddr is a *valid* record with an absurd address: decode
    // accepts it under either policy, and the simulator's page
    // arithmetic absorbs it.
    let clean = record_gap("wild-clean");
    let plan = FaultPlan::seeded(13, RECORDS, &[(FaultKind::WildVaddr, 8)]);
    let dirty = bake(&clean, "wild-dirty", &plan);

    for policy in [DecodePolicy::Strict, DecodePolicy::quarantine(8)] {
        let trace = TraceWorkload::open_with_policy(&dirty, policy).unwrap();
        assert_eq!(trace.stream_len(), RECORDS, "{policy}");
        assert!(trace.health().is_clean(), "{policy}: wild vaddrs decode ok");
        run_all_modes(&trace, RECORDS, "wild-vaddr");
    }

    // The rewrites really are in the file where the plan put them.
    let trace = TraceWorkload::open(&dirty).unwrap();
    let accesses: Vec<MemoryAccess> = trace.workload().collect();
    for record in plan.records_with(FaultKind::WildVaddr) {
        assert_eq!(accesses[record as usize].vaddr.raw(), wild_vaddr(record));
    }

    std::fs::remove_file(&clean).unwrap();
    std::fs::remove_file(&dirty).unwrap();
}

#[test]
fn a_torn_tail_fails_strict_and_replays_the_whole_records_under_quarantine() {
    let clean = record_gap("tear-clean");
    let plan = FaultPlan::new().with(RECORDS - 1, FaultKind::TruncateTail);
    let dirty = bake(&clean, "tear-dirty", &plan);

    assert!(
        matches!(TraceWorkload::open(&dirty), Err(ref e) if e.to_string().contains("mid-record")),
        "strict must reject the torn tail"
    );

    let trace = TraceWorkload::open_with_policy(&dirty, DecodePolicy::quarantine(0)).unwrap();
    assert_eq!(trace.stream_len(), RECORDS - 1);
    assert!(trace.health().torn_tail_bytes > 0);
    run_all_modes(&trace, RECORDS - 1, "torn-tail");

    std::fs::remove_file(&clean).unwrap();
    std::fs::remove_file(&dirty).unwrap();
}

#[test]
fn worker_panics_recover_in_every_mode_and_under_both_policies() {
    let clean = record_gap("panic-clean");
    let config = SimConfig::paper_default();
    let baseline = run_app(&TraceWorkload::open(&clean).unwrap(), Scale::TINY, &config).unwrap();

    for policy in [DecodePolicy::Strict, DecodePolicy::quarantine(4)] {
        let trace = TraceWorkload::open_with_policy(&clean, policy).unwrap();
        let plan = FaultPlan::new().with(700, FaultKind::WorkerPanic);

        // Sequential (1 shard) and sharded (4): one budgeted panic is
        // retried away and the stats come back bit-identical.
        for shards in [1usize, 4] {
            let chaos = ChaosSpec::new(Arc::new(trace.clone()), plan.clone(), 1);
            let run = run_app_sharded(&chaos, Scale::TINY, &config, shards).unwrap();
            assert_eq!(run.health.retries, 1, "{policy}@{shards}");
            if shards == 1 {
                assert_eq!(run.merged, baseline, "{policy}: recovery changed stats");
            }
        }

        // Mix: the panicking member heals inside the interleave too —
        // under the flush oracle, flush-free ASID retagging, and the
        // eviction-free partitioned-ASID by-stream shard planner alike.
        for switch in [
            SwitchPolicy::FlushOnSwitch,
            SwitchPolicy::Asid {
                contexts: 2,
                tables: TablePolicy::Shared,
            },
            SwitchPolicy::Asid {
                contexts: 2,
                tables: TablePolicy::Partitioned,
            },
        ] {
            let chaos = ChaosSpec::new(Arc::new(trace.clone()), plan.clone(), 1);
            let mix = MultiStreamSpec::new(
                vec![
                    Arc::new(chaos) as Arc<dyn StreamSpec>,
                    Arc::new(find_app("mcf").unwrap()),
                ],
                Schedule::RoundRobin { quantum: 500 },
            )
            .unwrap();
            let mixed = run_mix_sharded(&mix, Scale::TINY, &config, switch, 2).unwrap();
            assert_eq!(mixed.health.retries, 1, "{policy}/{switch}: mix retry");
            assert_eq!(
                mixed.merged.per_stream.streams()[0].accesses,
                RECORDS,
                "{policy}/{switch}: mix replayed the panicking member fully"
            );
        }

        // Persistent panics surface typed, never unwinding the caller.
        let stubborn = ChaosSpec::new(
            Arc::new(trace.clone()),
            plan.clone(),
            SHARD_ATTEMPTS as u64 + 1,
        );
        let err = run_app_sharded(&stubborn, Scale::TINY, &config, 1).unwrap_err();
        assert!(matches!(err, SimError::ShardPanicked { .. }), "{policy}");
    }

    std::fs::remove_file(&clean).unwrap();
}

/// The adaptive families run the fault matrix too: a quarantined
/// decode replays its survivors under each scheme in every execution
/// mode, and one budgeted worker panic heals back to the undisturbed
/// baseline bit for bit — adaptivity must not leak shard or retry
/// state into the stats.
#[test]
fn adaptive_schemes_survive_quarantine_and_heal_from_worker_panics() {
    const K: u64 = 6;
    let clean = record_gap("adaptive-clean");
    let corruption = FaultPlan::seeded(23, RECORDS, &[(FaultKind::CorruptKind, K as usize)]);
    let dirty = bake(&clean, "adaptive-dirty", &corruption);

    let mut confident_dp = PrefetcherConfig::distance();
    confident_dp.confidence(ConfidenceConfig::adaptive());
    let schemes = [
        (PrefetcherConfig::trend_stride(), "TP"),
        (
            PrefetcherConfig::ensemble_of(&[PrefetcherKind::Distance, PrefetcherKind::Stride]),
            "EP:DP+ASP",
        ),
        (confident_dp, "C+DP"),
    ];

    for (scheme, label) in &schemes {
        let config = SimConfig::paper_default().with_prefetcher(scheme.clone());

        // Quarantine decode: the damaged trace loses exactly K records
        // and the survivors drive all three execution modes.
        let trace = TraceWorkload::open_with_policy(&dirty, DecodePolicy::quarantine(K)).unwrap();
        assert_eq!(trace.health().records_bad, K, "{label}");
        run_all_modes_with(&config, &trace, RECORDS - K, label);

        // Shard-panic recovery: one budgeted panic retries away, and at
        // one shard the merged stats match the undisturbed baseline.
        let undisturbed = TraceWorkload::open(&clean).unwrap();
        let baseline = run_app(&undisturbed, Scale::TINY, &config).unwrap();
        let panic_plan = FaultPlan::new().with(700, FaultKind::WorkerPanic);
        for shards in [1usize, 4] {
            let chaos = ChaosSpec::new(Arc::new(undisturbed.clone()), panic_plan.clone(), 1);
            let run = run_app_sharded(&chaos, Scale::TINY, &config, shards).unwrap();
            assert_eq!(run.health.retries, 1, "{label}@{shards}");
            if shards == 1 {
                assert_eq!(run.merged, baseline, "{label}: recovery changed stats");
            }
        }

        // ...and the panicking member heals inside a flush-free ASID
        // mix, with its attribution intact.
        let chaos = ChaosSpec::new(Arc::new(undisturbed.clone()), panic_plan.clone(), 1);
        let mix = MultiStreamSpec::new(
            vec![
                Arc::new(chaos) as Arc<dyn StreamSpec>,
                Arc::new(find_app("mcf").unwrap()),
            ],
            Schedule::RoundRobin { quantum: 500 },
        )
        .unwrap();
        let mixed = run_mix_sharded(
            &mix,
            Scale::TINY,
            &config,
            SwitchPolicy::Asid {
                contexts: 2,
                tables: TablePolicy::Shared,
            },
            2,
        )
        .unwrap();
        assert_eq!(mixed.health.retries, 1, "{label}: mix retry");
        assert_eq!(
            mixed.merged.per_stream.streams()[0].accesses,
            RECORDS,
            "{label}: mix replayed the panicking member fully"
        );
    }

    std::fs::remove_file(&clean).unwrap();
    std::fs::remove_file(&dirty).unwrap();
}

/// The checked-in regression trace with K planted corruptions recovers
/// exactly 2000 − K records — quarantine's resync is pinned against
/// bytes this build did not write.
#[test]
fn checked_in_trace_with_planted_corruptions_recovers_all_but_k_records() {
    const K: usize = 7;
    let source = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/gap-tiny-2k.tlbt");
    let plan = FaultPlan::seeded(2002, 2000, &[(FaultKind::CorruptKind, K)]);
    let mut bytes = std::fs::read(source).unwrap();
    plan.apply_to_bytes(&mut bytes);
    let dirty = temp("regression-k");
    std::fs::write(&dirty, bytes).unwrap();

    let trace =
        TraceWorkload::open_with_policy(&dirty, DecodePolicy::quarantine(K as u64)).unwrap();
    assert_eq!(trace.stream_len(), 2000 - K as u64);
    assert_eq!(trace.health().records_bad, K as u64);

    // The surviving records are exactly the clean trace minus the
    // corrupted positions, in order.
    let clean: Vec<MemoryAccess> = TraceWorkload::open(source).unwrap().workload().collect();
    let corrupted = plan.records_with(FaultKind::CorruptKind);
    let expected: Vec<MemoryAccess> = clean
        .iter()
        .enumerate()
        .filter(|(i, _)| !corrupted.contains(&(*i as u64)))
        .map(|(_, a)| *a)
        .collect();
    let survived: Vec<MemoryAccess> = trace.workload().collect();
    assert_eq!(survived, expected);

    let stats = run_app(&trace, Scale::TINY, &SimConfig::paper_default()).unwrap();
    assert_eq!(stats.accesses, 2000 - K as u64);
    std::fs::remove_file(&dirty).unwrap();
}

#[test]
fn empty_and_zero_length_inputs_never_panic() {
    // A header-only trace is a valid zero-length stream everywhere.
    let empty = temp("empty");
    BinaryTraceWriter::create(std::fs::File::create(&empty).unwrap())
        .unwrap()
        .finish()
        .unwrap();
    let trace = TraceWorkload::open(&empty).unwrap();
    assert_eq!(trace.stream_len(), 0);

    let config = SimConfig::paper_default();
    // More shards than accesses: trailing shards own empty ranges.
    let run = run_app_sharded(&trace, Scale::TINY, &config, 4).unwrap();
    assert_eq!(run.merged.accesses, 0);
    assert_eq!(run.shards.len(), 4);
    assert!(run.health.is_clean());

    // A zero-access mix member contributes an empty share, typed and
    // attributed, not a crash.
    let mix = MultiStreamSpec::new(
        vec![
            Arc::new(trace.clone()) as Arc<dyn StreamSpec>,
            Arc::new(find_app("gap").unwrap()),
        ],
        Schedule::RoundRobin { quantum: 1000 },
    )
    .unwrap();
    let mixed =
        run_mix_sharded(&mix, Scale::TINY, &config, SwitchPolicy::FlushOnSwitch, 2).unwrap();
    assert_eq!(mixed.merged.per_stream.streams()[0].accesses, 0);
    assert_eq!(
        mixed.merged.per_stream.streams()[1].accesses,
        find_app("gap").unwrap().stream_len(Scale::TINY)
    );

    std::fs::remove_file(&empty).unwrap();
}
