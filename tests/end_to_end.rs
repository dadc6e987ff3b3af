//! Cross-crate integration: the full pipeline from application models
//! through traces, both engines, and the experiment harness.

use std::collections::HashSet;
use tlb_distance::experiments;
use tlb_distance::prelude::*;

use tlb_distance::trace::{BinaryTraceReader, BinaryTraceWriter};

#[test]
fn simulation_from_trace_equals_simulation_from_generator() {
    // Writing a workload to a binary trace and replaying it must produce
    // bit-identical simulation results.
    let app = find_app("wupwise").unwrap();
    let mut buf = Vec::new();
    let mut writer = BinaryTraceWriter::create(&mut buf).unwrap();
    for access in app.workload(Scale::TINY) {
        writer.write(&access).unwrap();
    }
    writer.finish().unwrap();

    let mut from_gen = Engine::new(&SimConfig::paper_default()).unwrap();
    from_gen.run(app.workload(Scale::TINY));

    let mut from_trace = Engine::new(&SimConfig::paper_default()).unwrap();
    from_trace.run(
        BinaryTraceReader::open(buf.as_slice())
            .unwrap()
            .map(|r| r.expect("valid record")),
    );

    assert_eq!(from_gen.stats(), from_trace.stats());
}

#[test]
fn trace_stats_agree_with_simulation_footprint() {
    let app = find_app("gap").unwrap();
    let mut accesses = 0u64;
    let mut pages = HashSet::new();
    for access in app.workload(Scale::TINY) {
        accesses += 1;
        pages.insert(PageSize::DEFAULT.page_of(access.vaddr));
    }
    let sim = run_app(app, Scale::TINY, &SimConfig::baseline()).unwrap();
    // The baseline engine touches exactly the pages of the stream (no
    // prefetch-induced page-table entries).
    assert_eq!(pages.len() as u64, sim.footprint_pages);
    assert_eq!(accesses, sim.accesses);
}

#[test]
fn windowing_reduces_misses_proportionally() {
    let app = find_app("galgel").unwrap();
    let full: Vec<_> = app.workload(Scale::TINY).collect();
    let mut engine = Engine::new(&SimConfig::baseline()).unwrap();
    engine.run(full.iter().copied().skip(full.len() / 2));
    let sim = engine.stats();
    assert!(sim.accesses <= full.len() as u64 - full.len() as u64 / 2);
    assert!(sim.misses > 0);
}

#[test]
fn table1_reflects_implementations() {
    let rendered = experiments::table1::run().render();
    for needle in ["ASP", "MP", "RP", "DP", "Distance", "No. of PTEs"] {
        assert!(
            rendered.contains(needle),
            "missing {needle} in:\n{rendered}"
        );
    }
}

#[test]
fn timing_and_functional_engines_agree_on_miss_counts() {
    for name in ["gap", "mcf", "eon"] {
        let app = find_app(name).unwrap();
        let f = run_app(app, Scale::TINY, &SimConfig::paper_default()).unwrap();
        let t = run_app_timed(
            app,
            Scale::TINY,
            &SimConfig::paper_default(),
            TimingParams::paper_default(),
        )
        .unwrap();
        assert_eq!(f.accesses, t.accesses, "{name}");
        assert_eq!(f.misses, t.misses, "{name}");
    }
}

#[test]
fn timing_engine_prefetching_never_slows_distance_prefetching_below_useless() {
    // DP has no maintenance traffic, so its worst case is "prefetches
    // never useful" — normalized cycles can exceed 1 only through
    // in-flight waits, which are bounded by the demand penalty.
    let app = find_app("fma3d").unwrap();
    let params = TimingParams::paper_default();
    let base = run_app_timed(app, Scale::TINY, &SimConfig::baseline(), params).unwrap();
    let dp = run_app_timed(app, Scale::TINY, &SimConfig::paper_default(), params).unwrap();
    let normalized = dp.normalized_against(&base);
    assert!(normalized <= 1.02, "DP on fma3d: {normalized}");
}

#[test]
fn prefetch_buffer_isolation_guarantee_holds_suite_wide() {
    // §2: "Prefetching can thus not increase the miss rates of the
    // original TLB." Check the invariant across a sample of apps and all
    // mechanisms.
    for name in ["gzip", "mcf", "parser", "swim", "gsm-enc", "ks"] {
        let app = find_app(name).unwrap();
        let base = run_app(app, Scale::TINY, &SimConfig::baseline()).unwrap();
        for kind in [
            PrefetcherKind::Sequential,
            PrefetcherKind::Stride,
            PrefetcherKind::Markov,
            PrefetcherKind::Recency,
            PrefetcherKind::Distance,
        ] {
            let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
            let stats = run_app(app, Scale::TINY, &cfg).unwrap();
            assert_eq!(
                stats.misses, base.misses,
                "{name}/{kind:?}: prefetching changed the miss count"
            );
        }
    }
}

#[test]
fn multiprogrammed_flushing_degrades_but_does_not_break() {
    let app = find_app("gap").unwrap();
    let mut engine = Engine::new(&SimConfig::paper_default()).unwrap();
    engine.run_with_flush_interval(app.workload(Scale::TINY), 20_000);
    let flushed = engine.stats().clone();
    let plain = run_app(app, Scale::TINY, &SimConfig::paper_default()).unwrap();
    assert!(flushed.misses >= plain.misses);
    assert!(flushed.accuracy() > 0.0);
}

#[test]
fn pc_qualified_distance_extension_works_suite_wide() {
    // The §4 "ongoing work" extension must run and stay in the same
    // ballpark as plain DP on a strided app.
    let app = find_app("galgel").unwrap();
    let mut cfg = PrefetcherConfig::distance();
    cfg.pc_qualified(true);
    let qualified = run_app(
        app,
        Scale::TINY,
        &SimConfig::paper_default().with_prefetcher(cfg),
    )
    .unwrap();
    assert!(qualified.accuracy() > 0.9);
}
