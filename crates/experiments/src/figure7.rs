//! Figure 7: prediction accuracy of RP, MP, DP and ASP for all 26 SPEC
//! CPU2000 applications.

use tlbsim_sim::SimError;
use tlbsim_workloads::{suite_apps, Scale, Suite};

use crate::grid::{accuracy_grid, paper_scheme_grid, scheme_variants, GridRow};
use crate::report::{fmt3, TextTable};

/// The regenerated Figure 7 data.
#[derive(Debug, Clone)]
pub struct Figure7 {
    /// One row per SPEC application, cells in the paper's legend order.
    pub rows: Vec<GridRow>,
}

/// Runs the full SPEC CPU2000 grid (26 apps × 30 configurations).
///
/// # Errors
///
/// Returns [`SimError`] if a configuration is invalid.
pub fn run(scale: Scale) -> Result<Figure7, SimError> {
    let apps = suite_apps(Suite::SpecCpu2000);
    let rows = accuracy_grid(&apps, &scheme_variants(&paper_scheme_grid()), scale)?;
    Ok(Figure7 { rows })
}

impl Figure7 {
    /// Renders the accuracy matrix (apps as rows, schemes as columns).
    pub fn render(&self) -> String {
        render_rows(
            "Figure 7: prediction accuracy, SPEC CPU2000 (bars as columns)",
            &self.rows,
        )
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        rows_to_table(
            "Figure 7: prediction accuracy, SPEC CPU2000 (bars as columns)",
            &self.rows,
        )
        .to_csv()
    }
}

pub(crate) fn rows_to_table(title: &str, rows: &[GridRow]) -> TextTable {
    let mut headers = vec!["app".to_owned()];
    if let Some(first) = rows.first() {
        headers.extend(first.cells.iter().map(|c| c.label.clone()));
    }
    let mut table = TextTable::new(title, headers);
    for row in rows {
        let mut cells = vec![row.app.to_owned()];
        cells.extend(row.cells.iter().map(|c| fmt3(c.accuracy)));
        table.row(cells);
    }
    table
}

pub(crate) fn render_rows(title: &str, rows: &[GridRow]) -> String {
    rows_to_table(title, rows).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_covers_all_spec_apps_and_configs() {
        let fig = run(Scale::TINY).unwrap();
        assert_eq!(fig.rows.len(), 26);
        for row in &fig.rows {
            assert_eq!(row.cells.len(), 30, "{} misses configs", row.app);
        }
        let rendered = fig.render();
        assert!(rendered.contains("galgel"));
        assert!(rendered.contains("DP,256,D"));
    }
}
