//! Golden pin of the figure grids.
//!
//! Every `SimStats` counter of every cell is recorded in
//! `tests/data/golden-figures.txt` at `Scale::TINY` for:
//!
//! * Figure 7: the 26 SPEC CPU2000 applications × the 30 grid schemes;
//! * Figure 9's four panels (table geometry, slots, prefetch buffer
//!   size, TLB size) on the eight high-miss applications;
//! * the two `extras` panels (page size, TLB associativity) on the same
//!   applications.
//!
//! Each figure is one `sweep` call in which every application is one
//! shared `Arc`, as the figure drivers submit it; the panels vary the
//! buffer, the TLB geometry and the page size within one call. A change
//! to how `sweep` schedules, groups or replays its jobs, or to any
//! mechanism, that moves a single counter of a single cell fails here,
//! against numbers this build did not produce.
//!
//! To re-record after an intentional semantic change, run the test with
//! `TLBSIM_BLESS_GOLDEN=1` and review the diff of the data file.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use tlb_distance::experiments::{extras, figure9, paper_scheme_grid};
use tlb_distance::prelude::*;
use tlb_distance::sim::{sweep, SweepJob, SweepSpec};
use tlb_distance::workloads::high_miss_apps;

const GOLDEN: &str = "tests/data/golden-figures.txt";

/// Runs `apps × variants` as one sweep and appends one line per cell.
fn record(
    out: &mut String,
    figure: &str,
    apps: &[&'static AppSpec],
    variants: &[(String, SimConfig)],
) {
    let mut jobs = Vec::with_capacity(apps.len() * variants.len());
    for app in apps {
        let spec: SweepSpec = Arc::new(*app);
        for (label, config) in variants {
            jobs.push(SweepJob {
                tag: label.replace(' ', "_"),
                spec: Arc::clone(&spec),
                scale: Scale::TINY,
                config: config.clone(),
            });
        }
    }
    for result in sweep(jobs).expect("figure configurations are valid") {
        let stats = &result.stats;
        writeln!(
            out,
            "{figure} {} {} accesses={} misses={} pb_hits={} walks={} issued={} filtered={} \
             evicted_unused={} maintenance={} footprint={} streams={}",
            result.app,
            result.tag,
            stats.accesses,
            stats.misses,
            stats.prefetch_buffer_hits,
            stats.demand_walks,
            stats.prefetches_issued,
            stats.prefetches_filtered,
            stats.prefetches_evicted_unused,
            stats.maintenance_ops,
            stats.footprint_pages,
            stats.per_stream.streams().len(),
        )
        .expect("writing to a String cannot fail");
    }
}

/// All the panels of one figure as one labelled variant list; labels
/// carry their panel's index so equal labels in two panels stay apart.
fn panel_variants(
    panels: Vec<(&'static str, Vec<(String, SimConfig)>)>,
) -> Vec<(String, SimConfig)> {
    panels
        .into_iter()
        .enumerate()
        .flat_map(|(i, (_, variants))| {
            variants.into_iter().map(move |(label, config)| {
                (format!("{}/{label}", (b'a' + i as u8) as char), config)
            })
        })
        .collect()
}

fn current_figures() -> String {
    let mut out = String::new();
    let schemes: Vec<(String, SimConfig)> = paper_scheme_grid()
        .into_iter()
        .map(|scheme| {
            (
                scheme.label(),
                SimConfig::paper_default().with_prefetcher(scheme),
            )
        })
        .collect();
    record(
        &mut out,
        "figure7",
        &suite_apps(Suite::SpecCpu2000),
        &schemes,
    );
    let high_miss: Vec<&'static AppSpec> = high_miss_apps().iter().map(|(app, _)| *app).collect();
    record(
        &mut out,
        "figure9",
        &high_miss,
        &panel_variants(figure9::panels()),
    );
    record(
        &mut out,
        "extras",
        &high_miss,
        &panel_variants(extras::panels()),
    );
    out
}

#[test]
fn every_figure_counter_matches_the_recorded_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = current_figures();
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
