//! Figure 9: sensitivity of DP to hardware parameters on the eight
//! highest-miss-rate applications (vpr, mcf, twolf, galgel, ammp, lucas,
//! apsi, adpcm-enc).
//!
//! Four panels: (a) table size r and associativity; (b) slots s ∈ {2, 4,
//! 6}; (c) prefetch buffer b ∈ {16, 32, 64}; (d) TLB size ∈ {64, 128,
//! 256}. The paper's conclusion — reproduced as a test in
//! `tests/paper_claims.rs` — is that DP "is fairly insensitive to many
//! of these parameters, and even a small direct-mapped 32-256 entry
//! table suffices".

use tlbsim_core::{Associativity, PrefetcherConfig};
use tlbsim_mmu::TlbConfig;
use tlbsim_sim::{SimConfig, SimError};
use tlbsim_workloads::{high_miss_apps, Scale};

use crate::grid::accuracy_grid;
use crate::report::{fmt3, TextTable};

/// One panel of Figure 9: a labelled set of DP variants per application.
#[derive(Debug, Clone)]
pub struct Figure9Panel {
    /// Panel title (matches the paper's subplots).
    pub title: String,
    /// Variant labels, in legend order.
    pub labels: Vec<String>,
    /// `(app, accuracies-by-variant)` rows.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

impl Figure9Panel {
    /// Variant labels in legend order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// `(app, accuracies)` rows.
    pub fn rows(&self) -> &[(&'static str, Vec<f64>)] {
        &self.rows
    }
}

/// The regenerated Figure 9.
#[derive(Debug, Clone)]
pub struct Figure9 {
    /// Panel (a): table size × associativity.
    pub geometry: Figure9Panel,
    /// Panel (b): slot count.
    pub slots: Figure9Panel,
    /// Panel (c): prefetch buffer size.
    pub buffer: Figure9Panel,
    /// Panel (d): TLB entries.
    pub tlb: Figure9Panel,
}

/// Runs labelled panels on the eight high-miss applications as one
/// [`accuracy_grid`], so every variant of every panel that shares a TLB
/// and a page size replays one miss stream per application.
pub(crate) fn run_panels(
    panels: Vec<(&'static str, Vec<(String, SimConfig)>)>,
    scale: Scale,
) -> Result<Vec<Figure9Panel>, SimError> {
    let apps: Vec<_> = high_miss_apps().iter().map(|(app, _)| *app).collect();
    let variants: Vec<_> = panels.iter().flat_map(|(_, v)| v.iter().cloned()).collect();
    let grid = accuracy_grid(&apps, &variants, scale)?;
    let mut start = 0;
    Ok(panels
        .into_iter()
        .map(|(title, variants)| {
            let cells = start..start + variants.len();
            start = cells.end;
            Figure9Panel {
                title: title.to_owned(),
                labels: variants.into_iter().map(|(label, _)| label).collect(),
                rows: grid
                    .iter()
                    .map(|row| {
                        let accs = row.cells[cells.clone()].iter().map(|c| c.accuracy);
                        (row.app, accs.collect())
                    })
                    .collect(),
            }
        })
        .collect())
}

fn dp(rows: usize, assoc: Associativity, slots: usize) -> PrefetcherConfig {
    let mut cfg = PrefetcherConfig::distance();
    cfg.rows(rows).assoc(assoc).slots(slots);
    cfg
}

/// The four panels' titles and labelled configurations, in panel
/// order: (a) table size × associativity, (b) slots, (c) prefetch
/// buffer size, (d) TLB entries.
pub fn panels() -> Vec<(&'static str, Vec<(String, SimConfig)>)> {
    let base = SimConfig::paper_default;

    // Panel (a): the paper's 14 geometry variants.
    let mut geometry = Vec::new();
    for (rows, assoc) in [
        (1024, Associativity::Direct),
        (1024, Associativity::ways_of(4)),
        (1024, Associativity::ways_of(2)),
        (512, Associativity::Direct),
        (512, Associativity::ways_of(4)),
        (256, Associativity::Direct),
        (256, Associativity::ways_of(4)),
        (256, Associativity::Full),
        (128, Associativity::Direct),
        (128, Associativity::Full),
        (64, Associativity::Direct),
        (64, Associativity::Full),
        (32, Associativity::Direct),
        (32, Associativity::Full),
    ] {
        let cfg = dp(rows, assoc, 2);
        geometry.push((cfg.label(), base().with_prefetcher(cfg)));
    }

    let slots = [2usize, 4, 6]
        .into_iter()
        .map(|s| {
            (
                format!("s = {s}"),
                base().with_prefetcher(dp(256, Associativity::Direct, s)),
            )
        })
        .collect();

    let buffer = [16usize, 32, 64]
        .into_iter()
        .map(|b| (format!("b = {b}"), base().with_prefetch_buffer(b)))
        .collect();

    let tlb = [64usize, 128, 256]
        .into_iter()
        .map(|entries| {
            (
                format!("{entries}-entry TLB"),
                base().with_tlb(TlbConfig::fully_associative(entries)),
            )
        })
        .collect();

    vec![
        ("Figure 9a: DP table size and associativity", geometry),
        ("Figure 9b: DP prediction slots", slots),
        ("Figure 9c: prefetch buffer size", buffer),
        ("Figure 9d: TLB size", tlb),
    ]
}

/// Runs all four sensitivity panels.
///
/// # Errors
///
/// Returns [`SimError`] if a configuration is invalid.
pub fn run(scale: Scale) -> Result<Figure9, SimError> {
    let [geometry, slots, buffer, tlb] =
        <[_; 4]>::try_from(run_panels(panels(), scale)?).expect("four panels");
    Ok(Figure9 {
        geometry,
        slots,
        buffer,
        tlb,
    })
}

impl Figure9Panel {
    /// Renders the panel as a table.
    pub fn render(&self) -> String {
        self.to_table().render()
    }

    /// The panel as a [`TextTable`] (for CSV export).
    pub fn to_table(&self) -> TextTable {
        let mut headers = vec!["app".to_owned()];
        headers.extend(self.labels.clone());
        let mut table = TextTable::new(self.title.clone(), headers);
        for (app, accs) in &self.rows {
            let mut cells = vec![(*app).to_owned()];
            cells.extend(accs.iter().map(|a| fmt3(*a)));
            table.row(cells);
        }
        table
    }
}

impl Figure9 {
    /// Renders all four panels.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}",
            self.geometry.render(),
            self.slots.render(),
            self.buffer.render(),
            self.tlb.render()
        )
    }

    /// Renders CSV for all panels.
    pub fn to_csv(&self) -> String {
        format!(
            "{}{}{}{}",
            self.geometry.to_table().to_csv(),
            self.slots.to_table().to_csv(),
            self.buffer.to_table().to_csv(),
            self.tlb.to_table().to_csv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_panels_cover_the_eight_apps() {
        let fig = run(Scale::TINY).unwrap();
        assert_eq!(fig.geometry.rows.len(), 8);
        assert_eq!(fig.geometry.labels.len(), 14);
        assert_eq!(fig.slots.labels, vec!["s = 2", "s = 4", "s = 6"]);
        assert_eq!(fig.buffer.labels.len(), 3);
        assert_eq!(fig.tlb.labels.len(), 3);
        assert!(fig.render().contains("galgel"));
    }
}
