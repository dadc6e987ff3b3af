//! Tests for the features beyond the paper's core evaluation (its §4
//! "ongoing work" list): page sizes, two-level TLBs, multiprogrammed
//! flushing, and PC-qualified distance indexing.

use tlb_distance::mmu::{HierarchyConfig, TlbConfig};
use tlb_distance::prelude::*;
use tlb_distance::sim::HierarchyEngine;

fn dp_accuracy_with_page_size(app_name: &str, bytes: u64) -> f64 {
    let app = find_app(app_name).expect("registered");
    let mut config = SimConfig::paper_default();
    config.page_size = PageSize::new(bytes).expect("power of two");
    run_app(app, Scale::TINY, &config)
        .expect("valid")
        .accuracy()
}

#[test]
fn dp_predicts_across_page_sizes() {
    // §3.3: "DP is able to make good predictions across different TLB
    // configurations and page sizes as well." Larger pages divide all
    // page numbers (and hence distances) down but preserve the pattern
    // structure for scan-dominated applications.
    for bytes in [4096u64, 8192, 16384] {
        let acc = dp_accuracy_with_page_size("galgel", bytes);
        assert!(acc > 0.9, "galgel at {bytes}-byte pages: {acc}");
        let acc = dp_accuracy_with_page_size("adpcm-enc", bytes);
        assert!(acc > 0.9, "adpcm-enc at {bytes}-byte pages: {acc}");
    }
}

#[test]
fn larger_pages_reduce_misses() {
    let app = find_app("galgel").expect("registered");
    let mut misses = Vec::new();
    for bytes in [4096u64, 8192, 16384] {
        let mut config = SimConfig::baseline();
        config.page_size = PageSize::new(bytes).expect("power of two");
        misses.push(run_app(app, Scale::TINY, &config).expect("valid").misses);
    }
    assert!(
        misses[0] > misses[1],
        "8K pages should miss less: {misses:?}"
    );
    assert!(
        misses[1] > misses[2],
        "16K pages should miss less: {misses:?}"
    );
}

#[test]
fn two_level_hierarchy_prefetching_works_on_the_suite() {
    // Prefetching into the L2 TLB: the prefetcher sees the doubly
    // filtered miss stream but still captures the strided applications.
    for name in ["galgel", "adpcm-enc", "wupwise"] {
        let app = find_app(name).expect("registered");
        let mut engine = HierarchyEngine::new(
            &SimConfig::paper_default(),
            HierarchyConfig {
                l1: TlbConfig::fully_associative(16),
                l2: TlbConfig::paper_default(),
            },
        )
        .expect("valid");
        engine.run(app.workload(Scale::TINY));
        let stats = engine.stats();
        assert!(stats.l1_misses >= stats.l2_misses, "{name}");
        assert!(stats.accuracy() > 0.9, "{name}: {:?}", stats);
    }
}

#[test]
fn hierarchy_l2_misses_match_single_level_misses() {
    // With an inclusive hierarchy whose L2 equals the single-level TLB,
    // the L2 miss stream is the same as the single-level miss stream
    // for workloads without pathological L1 interference.
    let app = find_app("gap").expect("registered");
    let single = run_app(app, Scale::TINY, &SimConfig::baseline()).expect("valid");
    let mut engine = HierarchyEngine::new(
        &SimConfig::baseline(),
        HierarchyConfig {
            l1: TlbConfig::fully_associative(16),
            l2: TlbConfig::paper_default(),
        },
    )
    .expect("valid");
    engine.run(app.workload(Scale::TINY));
    assert_eq!(engine.stats().l2_misses, single.misses);
}

#[test]
fn frequent_flushing_mostly_destroys_history_schemes() {
    // Multiprogrammed mode: flushing every 5k accesses wipes RP's stack
    // repeatedly; DP relearns its distance rows within a handful of
    // misses so it degrades far less on a strided app.
    let app = find_app("adpcm-enc").expect("registered");
    let run_flushed = |prefetcher: PrefetcherConfig| {
        let config = SimConfig::paper_default().with_prefetcher(prefetcher);
        let mut engine = tlb_distance::sim::Engine::new(&config).expect("valid");
        engine.run_with_flush_interval(app.workload(Scale::TINY), 5_000);
        engine.stats().accuracy()
    };
    let dp = run_flushed(PrefetcherConfig::distance());
    let rp = run_flushed(PrefetcherConfig::recency());
    assert!(dp > 0.8, "DP under flushing: {dp}");
    assert!(
        dp > rp + 0.1,
        "DP {dp} should tolerate flushes better than RP {rp}"
    );
}

#[test]
fn pc_qualified_dp_helps_interleaved_contexts_and_costs_little_elsewhere() {
    let plain_cfg = PrefetcherConfig::distance();
    let mut pc_cfg = PrefetcherConfig::distance();
    pc_cfg.pc_qualified(true);

    for name in ["galgel", "wupwise"] {
        let app = find_app(name).expect("registered");
        let plain = run_app(
            app,
            Scale::TINY,
            &SimConfig::paper_default().with_prefetcher(plain_cfg.clone()),
        )
        .expect("valid")
        .accuracy();
        let qualified = run_app(
            app,
            Scale::TINY,
            &SimConfig::paper_default().with_prefetcher(pc_cfg.clone()),
        )
        .expect("valid")
        .accuracy();
        assert!(
            qualified > plain - 0.1,
            "{name}: pc-qualified {qualified} vs plain {plain}"
        );
    }
}

#[test]
fn disabling_prefetch_filtering_wastes_traffic() {
    // crafty's chase predictions frequently target TLB-resident pages,
    // so the residency filter is load-bearing there.
    let app = find_app("crafty").expect("registered");
    let filtered = run_app(app, Scale::TINY, &SimConfig::paper_default()).expect("valid");
    let blind = run_app(
        app,
        Scale::TINY,
        &SimConfig::paper_default().with_prefetch_filtering(false),
    )
    .expect("valid");
    assert!(blind.prefetches_issued > filtered.prefetches_issued);
    // Misses are untouched either way.
    assert_eq!(blind.misses, filtered.misses);
}

/// DP accuracy at TINY scale under the paper-default configuration with
/// `prefetcher` and a `buffer`-entry prefetch buffer.
fn dp_accuracy(app_name: &str, prefetcher: PrefetcherConfig, buffer: usize) -> f64 {
    let app = find_app(app_name).expect("registered");
    let config = SimConfig::paper_default()
        .with_prefetcher(prefetcher)
        .with_prefetch_buffer(buffer);
    run_app(app, Scale::TINY, &config)
        .expect("valid")
        .accuracy()
}

#[test]
fn dp_with_one_slot_misses_the_fan_out_two_slots_cover() {
    // gsm-enc's distance rows fan out: one slot per row keeps only the
    // latest successor distance, so half the predictions go stale
    // (0.126 with one slot against 0.250 with two).
    let with_slots = |slots| {
        let mut cfg = PrefetcherConfig::distance();
        cfg.slots(slots);
        dp_accuracy("gsm-enc", cfg, 16)
    };
    let (one, two) = (with_slots(1), with_slots(2));
    assert!(one < two, "gsm-enc DP: 1 slot {one} vs 2 slots {two}");
}

#[test]
fn a_larger_prefetch_buffer_never_costs_dp_accuracy() {
    // apsi's predictions self-evict from a small buffer before use:
    // 0.559 at 8 entries, 0.563 at 16, 0.606 at 64.
    let accuracy: Vec<f64> = [8, 16, 64]
        .into_iter()
        .map(|buffer| dp_accuracy("apsi", PrefetcherConfig::distance(), buffer))
        .collect();
    assert!(
        accuracy.windows(2).all(|pair| pair[0] <= pair[1]),
        "apsi DP accuracy at buffers 8/16/64: {accuracy:?}"
    );
}
