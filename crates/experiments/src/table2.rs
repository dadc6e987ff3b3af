//! Table 2: average and miss-rate-weighted average prediction accuracy
//! over all 56 applications (`s = 2`, `r = 256` for DP, MP and ASP).

use tlbsim_sim::SimError;
use tlbsim_workloads::{all_apps, Scale};

use crate::grid::{accuracy_grid, scheme_variants, table2_schemes};
use crate::report::{fmt3, TextTable};

/// One scheme's Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Scheme label.
    pub scheme: String,
    /// Unweighted mean accuracy over the 56 applications.
    pub average: f64,
    /// Miss-rate-weighted mean accuracy.
    pub weighted: f64,
}

/// The regenerated Table 2 with the paper's reference values.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Measured rows, sorted by unweighted average (descending).
    pub rows: Vec<Table2Row>,
}

/// The values the paper reports, for side-by-side comparison:
/// `(scheme, average, weighted)`.
pub fn paper_reference() -> [(&'static str, f64, f64); 4] {
    [
        ("DP", 0.43, 0.82),
        ("RP", 0.29, 0.86),
        ("ASP", 0.28, 0.73),
        ("MP", 0.11, 0.04),
    ]
}

/// Runs all 56 applications under the four schemes and aggregates.
///
/// # Errors
///
/// Returns [`SimError`] if a configuration is invalid.
pub fn run(scale: Scale) -> Result<Table2, SimError> {
    let apps = all_apps();
    let schemes = table2_schemes();
    let grid = accuracy_grid(&apps, &scheme_variants(&schemes), scale)?;

    let n = apps.len() as f64;
    let mut rows = Vec::with_capacity(schemes.len());
    for (i, scheme) in schemes.iter().enumerate() {
        let mut sum = 0.0;
        let mut weighted_num = 0.0;
        let mut weight_den = 0.0;
        for app_row in &grid {
            let cell = &app_row.cells[i];
            sum += cell.accuracy;
            weighted_num += cell.miss_rate * cell.accuracy;
            weight_den += cell.miss_rate;
        }
        rows.push(Table2Row {
            scheme: scheme.kind().abbrev().to_owned(),
            average: sum / n,
            weighted: if weight_den == 0.0 {
                0.0
            } else {
                weighted_num / weight_den
            },
        });
    }
    rows.sort_by(|a, b| b.average.total_cmp(&a.average));
    Ok(Table2 { rows })
}

impl Table2 {
    /// The measured row for a scheme ("DP", "RP", "ASP", "MP").
    pub fn row(&self, scheme: &str) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.scheme == scheme)
    }

    fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(
            "Table 2: average prediction accuracy over 56 applications (s=2, r=256)",
            vec![
                "scheme".into(),
                "average".into(),
                "weighted".into(),
                "paper avg".into(),
                "paper wtd".into(),
            ],
        );
        for row in &self.rows {
            let reference = paper_reference()
                .iter()
                .find(|(name, _, _)| *name == row.scheme)
                .copied();
            let (pa, pw) = reference
                .map(|(_, a, w)| (a, w))
                .unwrap_or((f64::NAN, f64::NAN));
            table.row(vec![
                row.scheme.clone(),
                fmt3(row.average),
                fmt3(row.weighted),
                fmt3(pa),
                fmt3(pw),
            ]);
        }
        table
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        self.to_table().render()
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_ordering() {
        let reference = paper_reference();
        assert_eq!(reference[0].0, "DP");
        // DP leads unweighted; RP leads weighted.
        assert!(reference[0].1 > reference[1].1);
        assert!(reference[1].2 > reference[0].2);
    }
}
