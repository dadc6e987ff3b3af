//! Golden pin of the full scheme grid.
//!
//! Every `SimStats` counter of all 30 `paper_scheme_grid()` schemes is
//! recorded in `tests/data/golden-grid.txt` for two inputs:
//!
//! * the checked-in `tests/data/gap-tiny-2k.tlbt` replayed alone;
//! * the same trace mixed with `mcf` at TINY scale under
//!   `SwitchPolicy::Asid { contexts: 1, tables: Shared }`, which drives
//!   the tagged paths (`set_asid`, `evict_asid`) of every structure.
//!
//! Any change to the TLB, the prefetch buffer, the page table or a
//! prediction table that moves a single counter of a single scheme fails
//! here, against numbers this build did not produce.
//!
//! To re-record after an intentional semantic change, run the test with
//! `TLBSIM_BLESS_GOLDEN=1` and review the diff of the data file.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use tlb_distance::experiments::paper_scheme_grid;
use tlb_distance::prelude::*;

const GOLDEN: &str = "tests/data/golden-grid.txt";
const TRACE: &str = "tests/data/gap-tiny-2k.tlbt";

fn render(out: &mut String, input: &str, label: &str, stats: &SimStats) {
    writeln!(
        out,
        "{input} {label} accesses={} misses={} pb_hits={} walks={} issued={} filtered={} \
         evicted_unused={} maintenance={} footprint={}",
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
    .expect("writing to a String cannot fail");
    for (i, s) in stats.per_stream.streams().iter().enumerate() {
        writeln!(
            out,
            "{input} {label} stream{i} accesses={} misses={} pb_hits={} walks={} issued={} \
             footprint={}",
            s.accesses,
            s.misses,
            s.prefetch_buffer_hits,
            s.demand_walks,
            s.prefetches_issued,
            s.footprint_pages,
        )
        .expect("writing to a String cannot fail");
    }
}

fn current_grid() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let trace = TraceWorkload::open(root.join(TRACE)).expect("checked-in trace opens");
    let streams: Vec<Arc<dyn StreamSpec>> = vec![
        Arc::new(trace.clone()),
        Arc::new(find_app("mcf").expect("mcf is registered")),
    ];
    let mix = MultiStreamSpec::new(streams, Schedule::RoundRobin { quantum: 256 })
        .expect("two-stream mix is valid");
    let policy = SwitchPolicy::Asid {
        contexts: 1,
        tables: TablePolicy::Shared,
    };

    let mut out = String::new();
    for scheme in paper_scheme_grid() {
        let label = scheme.label().replace(' ', "_");
        let config = SimConfig::paper_default().with_prefetcher(scheme);
        let alone = run_app(&trace, Scale::TINY, &config).expect("grid scheme runs");
        render(&mut out, "trace", &label, &alone);
        let mixed = run_mix(&mix, Scale::TINY, &config, policy).expect("grid scheme mixes");
        render(&mut out, "mix", &label, &mixed);
    }
    out
}

#[test]
fn every_grid_counter_matches_the_recorded_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = current_grid();
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
