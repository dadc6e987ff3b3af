//! The prefetcher-configuration grids the paper sweeps, and the shared
//! accuracy-grid runner behind Figures 7, 8 and 9, Table 2 and the
//! extra sensitivity panels.

use std::sync::Arc;

use tlbsim_core::{Associativity, ConfidenceConfig, PrefetcherConfig, PrefetcherKind};
use tlbsim_sim::{sweep, SimConfig, SimError, SweepJob, SweepSpec};
use tlbsim_workloads::{AppSpec, Scale};

/// The per-application scheme grid of Figures 7 and 8, plus the
/// adaptive extension: RP; MP with r ∈ {1024, 512, 256} across
/// associativities; DP and ASP with r ∈ {1024 … 32} direct-mapped —
/// exactly the paper's legend order — followed by the adaptive block:
/// TP at windows {4, 8, 16}, the confidence-throttled C+DP / C+ASP /
/// C+MP at the representative geometry, and three set-dueling
/// ensembles.
pub fn paper_scheme_grid() -> Vec<PrefetcherConfig> {
    let mut grid = Vec::new();
    grid.push(PrefetcherConfig::recency());
    for (rows, assoc) in [
        (1024, Associativity::Direct),
        (1024, Associativity::ways_of(4)),
        (1024, Associativity::ways_of(2)),
        (512, Associativity::Direct),
        (512, Associativity::ways_of(4)),
        (256, Associativity::Direct),
        (256, Associativity::ways_of(4)),
        (256, Associativity::Full),
    ] {
        let mut cfg = PrefetcherConfig::markov();
        cfg.rows(rows).assoc(assoc);
        grid.push(cfg);
    }
    for rows in [1024, 512, 256, 128, 64, 32] {
        let mut cfg = PrefetcherConfig::distance();
        cfg.rows(rows);
        grid.push(cfg);
    }
    for rows in [1024, 512, 256, 128, 64, 32] {
        let mut cfg = PrefetcherConfig::stride();
        cfg.rows(rows);
        grid.push(cfg);
    }
    grid.extend(adaptive_scheme_block());
    grid
}

/// The adaptive cells appended to [`paper_scheme_grid`]: 3 trend-vote
/// windows, 3 confidence-throttled bases, 3 set-dueling ensembles.
pub fn adaptive_scheme_block() -> Vec<PrefetcherConfig> {
    let mut block = Vec::new();
    for window in [4, 8, 16] {
        let mut cfg = PrefetcherConfig::trend_stride();
        cfg.window(window);
        block.push(cfg);
    }
    for base in [
        PrefetcherKind::Distance,
        PrefetcherKind::Stride,
        PrefetcherKind::Markov,
    ] {
        let mut cfg = PrefetcherConfig::new(base);
        cfg.confidence(ConfidenceConfig::adaptive());
        block.push(cfg);
    }
    for components in [
        &[PrefetcherKind::Distance, PrefetcherKind::Stride][..],
        &[PrefetcherKind::Recency, PrefetcherKind::Distance][..],
        &[
            PrefetcherKind::Distance,
            PrefetcherKind::Stride,
            PrefetcherKind::Markov,
        ][..],
    ] {
        block.push(PrefetcherConfig::ensemble_of(components));
    }
    block
}

/// The four schemes of Table 2 at the paper's representative
/// configuration (`r = 256`, `s = 2`, direct-mapped).
pub fn table2_schemes() -> Vec<PrefetcherConfig> {
    vec![
        PrefetcherConfig::distance(),
        PrefetcherConfig::recency(),
        PrefetcherConfig::stride(),
        PrefetcherConfig::markov(),
    ]
}

/// Accuracy of one application under one configuration.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Scheme label in the paper's legend style (e.g. `DP,256,D`).
    pub label: String,
    /// Prediction accuracy.
    pub accuracy: f64,
    /// TLB miss rate of the run.
    pub miss_rate: f64,
}

/// One application's row of a figure.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// Application name.
    pub app: &'static str,
    /// One cell per configuration, in grid order.
    pub cells: Vec<GridCell>,
}

impl GridRow {
    /// The cell with the given label.
    pub fn cell(&self, label: &str) -> Option<&GridCell> {
        self.cells.iter().find(|c| c.label == label)
    }

    /// The best accuracy across all configurations in the row.
    pub fn best_accuracy(&self) -> f64 {
        self.cells.iter().map(|c| c.accuracy).fold(0.0, f64::max)
    }
}

/// The paper's representative configuration under each of `schemes`,
/// labelled in the legend style: the variants of Figures 7 and 8,
/// Table 2, `xp replay` and `xp mix`.
pub fn scheme_variants(schemes: &[PrefetcherConfig]) -> Vec<(String, SimConfig)> {
    schemes
        .iter()
        .map(|scheme| {
            let config = SimConfig::paper_default().with_prefetcher(scheme.clone());
            (scheme.label(), config)
        })
        .collect()
}

/// Runs `apps × variants` as one [`sweep`], one shared spec per
/// application, so the variants that share a TLB and a page size replay
/// one miss stream per application. Each row's cells carry the variant
/// labels, in order.
///
/// # Errors
///
/// Returns [`SimError`] if any configuration is invalid.
pub fn accuracy_grid(
    apps: &[&'static AppSpec],
    variants: &[(String, SimConfig)],
    scale: Scale,
) -> Result<Vec<GridRow>, SimError> {
    let mut jobs = Vec::with_capacity(apps.len() * variants.len());
    for app in apps {
        let spec: SweepSpec = Arc::new(*app);
        jobs.extend(variants.iter().map(|(label, config)| SweepJob {
            tag: label.clone(),
            spec: Arc::clone(&spec),
            scale,
            config: config.clone(),
        }));
    }
    let mut results = sweep(jobs)?.into_iter();
    Ok(apps
        .iter()
        .map(|app| GridRow {
            app: app.name,
            cells: results
                .by_ref()
                .take(variants.len())
                .map(|r| GridCell {
                    label: r.tag,
                    accuracy: r.stats.accuracy(),
                    miss_rate: r.stats.miss_rate(),
                })
                .collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use tlbsim_workloads::find_app;

    #[test]
    fn grid_matches_paper_legend_count() {
        // RP + 8 MP + 6 DP + 6 ASP = 21 paper configurations, plus the
        // 9-cell adaptive block (3 TP + 3 C+ + 3 EP) = 30.
        assert_eq!(paper_scheme_grid().len(), 30);
        assert_eq!(paper_scheme_grid()[0].label(), "RP");
        assert_eq!(paper_scheme_grid()[1].label(), "MP,1024,D");
        assert_eq!(paper_scheme_grid()[9].label(), "DP,1024,D");
        assert_eq!(paper_scheme_grid()[15].label(), "ASP,1024");
        assert_eq!(paper_scheme_grid()[21].label(), "TP,4");
        assert_eq!(paper_scheme_grid()[24].label(), "C+DP,256,D");
        assert_eq!(paper_scheme_grid()[27].label(), "EP:DP+ASP");
        assert_eq!(paper_scheme_grid()[29].label(), "EP:DP+ASP+MP");
    }

    #[test]
    fn every_grid_cell_validates_and_builds() {
        for cfg in paper_scheme_grid() {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
            cfg.build()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
        }
    }

    #[test]
    fn adaptive_block_labels_are_unique() {
        let labels: Vec<String> = adaptive_scheme_block().iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), 9);
        assert_eq!(dedup.len(), labels.len(), "{labels:?}");
    }

    #[test]
    fn table2_schemes_are_the_four_contenders() {
        let labels: Vec<String> = table2_schemes().iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["DP,256,D", "RP", "ASP,256", "MP,256,D"]);
    }

    #[test]
    fn each_figure_needs_the_miss_streams_design_md_lists() {
        // accuracy_grid shares one spec per app, so sweep records one
        // stream per distinct (TLB, page size) among a figure's variants.
        let streams = |variants: Vec<(String, SimConfig)>| {
            let keys: HashSet<_> = variants.iter().map(|(_, c)| (c.tlb, c.page_size)).collect();
            keys.len()
        };
        let flat = |panels: Vec<(&str, Vec<(String, SimConfig)>)>| {
            panels
                .into_iter()
                .flat_map(|(_, variants)| variants)
                .collect()
        };
        assert_eq!(streams(scheme_variants(&paper_scheme_grid())), 1);
        assert_eq!(streams(scheme_variants(&table2_schemes())), 1);
        assert_eq!(streams(flat(crate::figure9::panels())), 3);
        assert_eq!(streams(flat(crate::extras::panels())), 5);
    }

    #[test]
    fn accuracy_grid_produces_full_rows() {
        let apps = vec![find_app("gap").unwrap()];
        let variants =
            scheme_variants(&[PrefetcherConfig::distance(), PrefetcherConfig::recency()]);
        let rows = accuracy_grid(&apps, &variants, Scale::TINY).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 2);
        assert!(rows[0].cell("RP").is_some());
        assert!(rows[0].best_accuracy() > 0.0);
    }
}
