//! Sensitivity axes beyond Figure 9's four panels.
//!
//! §3.3 states that DP "is able to make good predictions across
//! different TLB configurations and page sizes as well", deferring the
//! detail to the technical report. This module regenerates those two
//! remaining axes on the same eight high-miss applications: page size
//! (4/8/16 KiB) and TLB associativity (2-way/4-way/full at 128
//! entries).

use tlbsim_core::{Associativity, PageSize};
use tlbsim_mmu::TlbConfig;
use tlbsim_sim::{SimConfig, SimError};
use tlbsim_workloads::Scale;

use crate::figure9::{run_panels, Figure9Panel};

/// The regenerated extra-sensitivity panels.
#[derive(Debug, Clone)]
pub struct Extras {
    /// DP accuracy vs page size.
    pub page_size: Figure9Panel,
    /// DP accuracy vs TLB associativity (128 entries).
    pub tlb_assoc: Figure9Panel,
}

/// Both panels' titles and labelled configurations: page size, then
/// TLB associativity.
pub fn panels() -> Vec<(&'static str, Vec<(String, SimConfig)>)> {
    let page_size = [4096u64, 8192, 16384]
        .into_iter()
        .map(|bytes| {
            let mut config = SimConfig::paper_default();
            config.page_size = PageSize::new(bytes).expect("power of two");
            (format!("{}", config.page_size), config)
        })
        .collect();

    let tlb_assoc = [
        ("2-way".to_owned(), Associativity::ways_of(2)),
        ("4-way".to_owned(), Associativity::ways_of(4)),
        ("full".to_owned(), Associativity::Full),
    ]
    .into_iter()
    .map(|(label, assoc)| {
        (
            label,
            SimConfig::paper_default().with_tlb(TlbConfig {
                entries: 128,
                assoc,
            }),
        )
    })
    .collect();

    vec![
        ("Extras: DP accuracy vs page size", page_size),
        (
            "Extras: DP accuracy vs 128-entry TLB associativity",
            tlb_assoc,
        ),
    ]
}

/// Runs both panels.
///
/// # Errors
///
/// Returns [`SimError`] if a configuration is invalid.
pub fn run(scale: Scale) -> Result<Extras, SimError> {
    let [page_size, tlb_assoc] =
        <[_; 2]>::try_from(run_panels(panels(), scale)?).expect("two panels");
    Ok(Extras {
        page_size,
        tlb_assoc,
    })
}

impl Extras {
    /// Renders both panels.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.page_size.render(), self.tlb_assoc.render())
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        format!(
            "{}{}",
            self.page_size.to_table().to_csv(),
            self.tlb_assoc.to_table().to_csv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extras_cover_both_axes() {
        let e = run(Scale::TINY).unwrap();
        assert_eq!(e.page_size.labels(), &["4KiB", "8KiB", "16KiB"]);
        assert_eq!(e.tlb_assoc.labels(), &["2-way", "4-way", "full"]);
        let rendered = e.render();
        assert!(rendered.contains("galgel"));
        // The paper's claim: DP stays effective across these axes; check
        // the regular apps stay high at every point.
        for (app, accs) in e.page_size.rows().iter() {
            if *app == "galgel" || *app == "adpcm-enc" {
                assert!(accs.iter().all(|a| *a > 0.9), "{app}: {accs:?}");
            }
        }
    }
}
