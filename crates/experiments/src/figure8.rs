//! Figure 8: prediction accuracy for the MediaBench, Etch and
//! Pointer-Intensive suites (30 applications, same scheme grid and
//! legends as Figure 7).

use tlbsim_sim::SimError;
use tlbsim_workloads::{suite_apps, Scale, Suite};

use crate::figure7::{render_rows, rows_to_table};
use crate::grid::{accuracy_grid, paper_scheme_grid, scheme_variants, GridRow};

/// The regenerated Figure 8 data, one block per suite.
#[derive(Debug, Clone)]
pub struct Figure8 {
    /// MediaBench rows (20 apps).
    pub mediabench: Vec<GridRow>,
    /// Etch rows (5 apps).
    pub etch: Vec<GridRow>,
    /// Pointer-Intensive rows (5 apps).
    pub pointer: Vec<GridRow>,
}

/// Runs the three non-SPEC suites through the paper's scheme grid.
///
/// # Errors
///
/// Returns [`SimError`] if a configuration is invalid.
pub fn run(scale: Scale) -> Result<Figure8, SimError> {
    let grid = scheme_variants(&paper_scheme_grid());
    Ok(Figure8 {
        mediabench: accuracy_grid(&suite_apps(Suite::MediaBench), &grid, scale)?,
        etch: accuracy_grid(&suite_apps(Suite::Etch), &grid, scale)?,
        pointer: accuracy_grid(&suite_apps(Suite::PointerIntensive), &grid, scale)?,
    })
}

impl Figure8 {
    /// Renders all three suite blocks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&render_rows(
            "Figure 8a: prediction accuracy, MediaBench",
            &self.mediabench,
        ));
        out.push('\n');
        out.push_str(&render_rows(
            "Figure 8b: prediction accuracy, Etch",
            &self.etch,
        ));
        out.push('\n');
        out.push_str(&render_rows(
            "Figure 8c: prediction accuracy, Pointer-Intensive",
            &self.pointer,
        ));
        out
    }

    /// Renders CSV (all suites concatenated with suite column headers).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&rows_to_table("mediabench", &self.mediabench).to_csv());
        out.push_str(&rows_to_table("etch", &self.etch).to_csv());
        out.push_str(&rows_to_table("pointer", &self.pointer).to_csv());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_covers_all_non_spec_apps() {
        let fig = run(Scale::TINY).unwrap();
        assert_eq!(fig.mediabench.len(), 20);
        assert_eq!(fig.etch.len(), 5);
        assert_eq!(fig.pointer.len(), 5);
        let rendered = fig.render();
        assert!(rendered.contains("adpcm-enc"));
        assert!(rendered.contains("winword"));
        assert!(rendered.contains("yacr2"));
    }
}
