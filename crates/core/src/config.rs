//! Construction of prefetching mechanisms from a uniform description.
//!
//! The paper sweeps the same three parameters across mechanisms: the table
//! size `r`, the slot count `s` and the table associativity (§3.1).
//! [`PrefetcherConfig`] is the builder that carries those knobs, and
//! [`PrefetcherConfig::build`] is the factory producing a boxed
//! [`TlbPrefetcher`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::assoc::{Associativity, InvalidGeometry};
use crate::confidence::{ConfidenceConfig, ConfidencePrefetcher};
use crate::distance::DistancePrefetcher;
use crate::ensemble::EnsemblePrefetcher;
use crate::markov::MarkovPrefetcher;
use crate::prefetcher::{NullPrefetcher, TlbPrefetcher};
use crate::recency::RecencyPrefetcher;
use crate::sequential::SequentialPrefetcher;
use crate::stride::StridePrefetcher;
use crate::trend::TrendStridePrefetcher;

/// Which prefetching mechanism to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetcherKind {
    /// No prefetching (the normalisation baseline).
    None,
    /// Tagged sequential prefetching (SP).
    Sequential,
    /// Arbitrary stride prefetching (ASP, Chen & Baer).
    Stride,
    /// Markov prefetching (MP, Joseph & Grunwald).
    Markov,
    /// Recency-based prefetching (RP, Saulsbury et al.).
    Recency,
    /// Distance prefetching (DP, this paper's contribution).
    Distance,
    /// Trend-vote stride prefetching (TP) — ASP with a majority-vote
    /// delta window instead of the last-two-deltas state machine.
    TrendStride,
    /// Set-dueling ensemble (EP) over a list of component mechanisms.
    Ensemble,
}

impl PrefetcherKind {
    /// All mechanisms that actually prefetch, in the paper's presentation
    /// order (Figure 7 bar groups): RP, MP, DP, ASP — plus SP first since
    /// §2 introduces it first.
    pub const ALL: [PrefetcherKind; 5] = [
        PrefetcherKind::Sequential,
        PrefetcherKind::Stride,
        PrefetcherKind::Markov,
        PrefetcherKind::Recency,
        PrefetcherKind::Distance,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::Sequential => "SP",
            PrefetcherKind::Stride => "ASP",
            PrefetcherKind::Markov => "MP",
            PrefetcherKind::Recency => "RP",
            PrefetcherKind::Distance => "DP",
            PrefetcherKind::TrendStride => "TP",
            PrefetcherKind::Ensemble => "EP",
        }
    }
}

impl fmt::Display for PrefetcherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Errors constructing a prefetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Row count and associativity do not form a valid table.
    Geometry(InvalidGeometry),
    /// The slot count `s` is zero.
    ZeroSlots,
    /// The slot count `s` exceeds the inline row storage
    /// ([`SlotList::MAX_CAPACITY`](crate::SlotList::MAX_CAPACITY)) —
    /// rows live on the miss path and never heap-allocate.
    TooManySlots {
        /// The requested slot count.
        slots: usize,
    },
    /// The trend-vote window is outside the supported
    /// [`TrendStridePrefetcher::MIN_WINDOW`]`..=`[`TrendStridePrefetcher::MAX_WINDOW`]
    /// range.
    BadWindow {
        /// The requested window length.
        window: usize,
    },
    /// The confidence threshold exceeds the 2-bit counter maximum
    /// ([`ConfidencePrefetcher::COUNTER_MAX`]).
    BadConfidenceThreshold {
        /// The requested threshold.
        threshold: u8,
    },
    /// An ensemble was configured with no component mechanisms.
    EmptyEnsemble,
    /// An ensemble listed another ensemble as a component.
    NestedEnsemble,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Geometry(g) => write!(f, "invalid table geometry: {g}"),
            ConfigError::ZeroSlots => f.write_str("slot count must be at least 1"),
            ConfigError::TooManySlots { slots } => write!(
                f,
                "slot count {slots} exceeds the inline row maximum of {}",
                crate::SlotList::<u64>::MAX_CAPACITY
            ),
            ConfigError::BadWindow { window } => write!(
                f,
                "trend window {window} outside {}..={}",
                TrendStridePrefetcher::MIN_WINDOW,
                TrendStridePrefetcher::MAX_WINDOW
            ),
            ConfigError::BadConfidenceThreshold { threshold } => write!(
                f,
                "confidence threshold {threshold} exceeds the 2-bit counter maximum of {}",
                ConfidencePrefetcher::COUNTER_MAX
            ),
            ConfigError::EmptyEnsemble => f.write_str("ensemble needs at least one component"),
            ConfigError::NestedEnsemble => f.write_str("ensembles cannot contain other ensembles"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Geometry(g) => Some(g),
            _ => None,
        }
    }
}

impl From<InvalidGeometry> for ConfigError {
    fn from(err: InvalidGeometry) -> Self {
        ConfigError::Geometry(err)
    }
}

/// A uniform description of any prefetching mechanism.
///
/// Defaults mirror the paper's representative configuration: `r = 256`
/// rows, `s = 2` slots, direct-mapped tables.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{Associativity, PrefetcherConfig};
///
/// let mut cfg = PrefetcherConfig::distance();
/// cfg.rows(32).assoc(Associativity::Full);
/// let dp = cfg.build()?;
/// assert_eq!(dp.name(), "DP");
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetcherConfig {
    kind: PrefetcherKind,
    rows: usize,
    slots: usize,
    assoc: Associativity,
    pc_qualified: bool,
    pair_indexed: bool,
    window: usize,
    confidence: Option<ConfidenceConfig>,
    ensemble: Vec<PrefetcherKind>,
}

impl PrefetcherConfig {
    /// The paper's representative table size (`r = 256`).
    pub const DEFAULT_ROWS: usize = 256;
    /// The paper's representative slot count (`s = 2`).
    pub const DEFAULT_SLOTS: usize = 2;

    /// Default trend-vote window (`w = 8` deltas).
    pub const DEFAULT_WINDOW: usize = 8;

    /// Starts a configuration for `kind` with the paper's defaults.
    pub fn new(kind: PrefetcherKind) -> Self {
        PrefetcherConfig {
            kind,
            rows: Self::DEFAULT_ROWS,
            slots: Self::DEFAULT_SLOTS,
            assoc: Associativity::Direct,
            pc_qualified: false,
            pair_indexed: false,
            window: Self::DEFAULT_WINDOW,
            confidence: None,
            ensemble: Vec::new(),
        }
    }

    /// The no-prefetching baseline.
    pub fn none() -> Self {
        Self::new(PrefetcherKind::None)
    }

    /// Tagged sequential prefetching.
    pub fn sequential() -> Self {
        Self::new(PrefetcherKind::Sequential)
    }

    /// Arbitrary stride prefetching (Chen & Baer RPT).
    pub fn stride() -> Self {
        Self::new(PrefetcherKind::Stride)
    }

    /// Markov prefetching.
    pub fn markov() -> Self {
        Self::new(PrefetcherKind::Markov)
    }

    /// Recency-based prefetching.
    pub fn recency() -> Self {
        Self::new(PrefetcherKind::Recency)
    }

    /// Distance prefetching (the paper's contribution).
    pub fn distance() -> Self {
        Self::new(PrefetcherKind::Distance)
    }

    /// Trend-vote stride prefetching with the default window.
    pub fn trend_stride() -> Self {
        Self::new(PrefetcherKind::TrendStride)
    }

    /// A set-dueling ensemble over `components`, each instantiated with
    /// this configuration's geometry knobs.
    pub fn ensemble_of(components: &[PrefetcherKind]) -> Self {
        let mut cfg = Self::new(PrefetcherKind::Ensemble);
        cfg.ensemble = components.to_vec();
        cfg
    }

    /// Sets the prediction-table row count `r` (ignored by SP and RP).
    pub fn rows(&mut self, rows: usize) -> &mut Self {
        self.rows = rows;
        self
    }

    /// Sets the per-row slot count `s` (used by MP and DP).
    pub fn slots(&mut self, slots: usize) -> &mut Self {
        self.slots = slots;
        self
    }

    /// Sets the prediction-table associativity (ignored by SP and RP).
    pub fn assoc(&mut self, assoc: Associativity) -> &mut Self {
        self.assoc = assoc;
        self
    }

    /// Enables the PC-qualified distance index (a §4 "ongoing work"
    /// extension; only meaningful for [`PrefetcherKind::Distance`]).
    pub fn pc_qualified(&mut self, enabled: bool) -> &mut Self {
        self.pc_qualified = enabled;
        self
    }

    /// Returns the configured mechanism kind.
    pub fn kind(&self) -> PrefetcherKind {
        self.kind
    }

    /// Returns the configured row count `r`.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Returns the configured slot count `s`.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Returns the configured table associativity.
    pub fn associativity(&self) -> Associativity {
        self.assoc
    }

    /// Returns whether the PC-qualified distance index is enabled.
    pub fn is_pc_qualified(&self) -> bool {
        self.pc_qualified
    }

    /// Enables indexing by the pair of the last two distances (the §2.5
    /// "set of consecutive distances" extension; only meaningful for
    /// [`PrefetcherKind::Distance`]).
    pub fn pair_indexed(&mut self, enabled: bool) -> &mut Self {
        self.pair_indexed = enabled;
        self
    }

    /// Returns whether pair indexing is enabled.
    pub fn is_pair_indexed(&self) -> bool {
        self.pair_indexed
    }

    /// Sets the trend-vote window length `w` (only meaningful for
    /// [`PrefetcherKind::TrendStride`]).
    pub fn window(&mut self, window: usize) -> &mut Self {
        self.window = window;
        self
    }

    /// Returns the configured trend-vote window length.
    pub fn window_len(&self) -> usize {
        self.window
    }

    /// Wraps the mechanism in a confidence throttle (any kind may be
    /// wrapped; [`ConfidenceConfig::passthrough`] is provably inert).
    pub fn confidence(&mut self, confidence: ConfidenceConfig) -> &mut Self {
        self.confidence = Some(confidence);
        self
    }

    /// Returns the confidence-throttle configuration, if one is set.
    pub fn confidence_config(&self) -> Option<ConfidenceConfig> {
        self.confidence
    }

    /// Returns the ensemble's component kinds (empty unless the kind is
    /// [`PrefetcherKind::Ensemble`]).
    pub fn ensemble_components(&self) -> &[PrefetcherKind] {
        &self.ensemble
    }

    /// The configuration one ensemble component of `kind` is built
    /// from: the same geometry knobs, no throttle, no nesting.
    pub fn component_config(&self, kind: PrefetcherKind) -> PrefetcherConfig {
        let mut cfg = PrefetcherConfig::new(kind);
        cfg.rows = self.rows;
        cfg.slots = self.slots;
        cfg.assoc = self.assoc;
        cfg.pc_qualified = self.pc_qualified;
        cfg.pair_indexed = self.pair_indexed;
        cfg.window = self.window;
        cfg
    }

    /// Instantiates the mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the table geometry is invalid or the
    /// slot count is zero.
    pub fn build(&self) -> Result<Box<dyn TlbPrefetcher>, ConfigError> {
        let base: Box<dyn TlbPrefetcher> = match self.kind {
            PrefetcherKind::None => Box::new(NullPrefetcher::new()),
            PrefetcherKind::Sequential => Box::new(SequentialPrefetcher::new()),
            PrefetcherKind::Stride => Box::new(StridePrefetcher::from_config(self)?),
            PrefetcherKind::Markov => Box::new(MarkovPrefetcher::from_config(self)?),
            PrefetcherKind::Recency => Box::new(RecencyPrefetcher::new()),
            PrefetcherKind::Distance => Box::new(DistancePrefetcher::from_config(self)?),
            PrefetcherKind::TrendStride => Box::new(TrendStridePrefetcher::from_config(self)?),
            PrefetcherKind::Ensemble => Box::new(EnsemblePrefetcher::from_config(self)?),
        };
        Ok(match self.confidence {
            None => base,
            Some(conf) => Box::new(ConfidencePrefetcher::new(
                base, self.rows, self.assoc, conf,
            )?),
        })
    }

    /// The figure-legend text of the scheme, e.g. `DP,256,D`, `TP,8`,
    /// `EP:DP+ASP` or `C+MP,256,D;slots=4` (the `Display` form).
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Validates geometry and slots without building.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PrefetcherConfig::build`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.slots == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        if self.slots > crate::SlotList::<u64>::MAX_CAPACITY {
            return Err(ConfigError::TooManySlots { slots: self.slots });
        }
        match self.kind {
            PrefetcherKind::Stride
            | PrefetcherKind::Markov
            | PrefetcherKind::Distance
            | PrefetcherKind::TrendStride => {
                self.assoc.sets(self.rows)?;
            }
            _ => {}
        }
        if self.kind == PrefetcherKind::TrendStride
            && !(TrendStridePrefetcher::MIN_WINDOW..=TrendStridePrefetcher::MAX_WINDOW)
                .contains(&self.window)
        {
            return Err(ConfigError::BadWindow {
                window: self.window,
            });
        }
        if self.kind == PrefetcherKind::Ensemble {
            if self.ensemble.is_empty() {
                return Err(ConfigError::EmptyEnsemble);
            }
            if self.ensemble.contains(&PrefetcherKind::Ensemble) {
                return Err(ConfigError::NestedEnsemble);
            }
            for &kind in &self.ensemble {
                self.component_config(kind).validate()?;
            }
        }
        if let Some(conf) = self.confidence {
            if conf.threshold > ConfidencePrefetcher::COUNTER_MAX {
                return Err(ConfigError::BadConfidenceThreshold {
                    threshold: conf.threshold,
                });
            }
            // The counter bank shares the table geometry knobs, so they
            // must be valid even for otherwise untabled base kinds.
            self.assoc.sets(self.rows)?;
        }
        Ok(())
    }
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        PrefetcherConfig::distance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = PrefetcherConfig::distance();
        assert_eq!(cfg.row_count(), 256);
        assert_eq!(cfg.slot_count(), 2);
        assert_eq!(cfg.associativity(), Associativity::Direct);
    }

    #[test]
    fn build_all_kinds() {
        for kind in PrefetcherKind::ALL {
            let p = PrefetcherConfig::new(kind).build().unwrap();
            assert_eq!(p.name(), kind.abbrev());
        }
        let none = PrefetcherConfig::none().build().unwrap();
        assert_eq!(none.name(), "none");
    }

    #[test]
    fn invalid_geometry_is_reported() {
        let mut cfg = PrefetcherConfig::markov();
        cfg.rows(10).assoc(Associativity::ways_of(4));
        assert!(matches!(cfg.build(), Err(ConfigError::Geometry(_))));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_slots_is_rejected() {
        let mut cfg = PrefetcherConfig::distance();
        cfg.slots(0);
        assert_eq!(cfg.build().err(), Some(ConfigError::ZeroSlots));
    }

    #[test]
    fn geometry_is_irrelevant_for_untabled_schemes() {
        let mut cfg = PrefetcherConfig::recency();
        cfg.rows(10).assoc(Associativity::ways_of(4));
        assert!(cfg.build().is_ok());
    }

    #[test]
    fn labels_match_figure_legends() {
        let mut dp = PrefetcherConfig::distance();
        dp.rows(512).assoc(Associativity::Full);
        assert_eq!(dp.label(), "DP,512,F");
        assert_eq!(PrefetcherConfig::recency().label(), "RP");
        let mut asp = PrefetcherConfig::stride();
        asp.rows(64);
        assert_eq!(asp.label(), "ASP,64");
    }

    #[test]
    fn error_display_is_meaningful() {
        let err = ConfigError::ZeroSlots;
        assert!(err.to_string().contains("slot"));
        assert!(ConfigError::BadWindow { window: 1 }
            .to_string()
            .contains("window"));
        assert!(ConfigError::BadConfidenceThreshold { threshold: 9 }
            .to_string()
            .contains("threshold"));
        assert!(ConfigError::EmptyEnsemble.to_string().contains("component"));
        assert!(ConfigError::NestedEnsemble.to_string().contains("ensemble"));
    }

    #[test]
    fn adaptive_labels_are_distinct_and_stable() {
        let mut tp = PrefetcherConfig::trend_stride();
        tp.window(4);
        assert_eq!(tp.label(), "TP,4");
        let ep = PrefetcherConfig::ensemble_of(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        assert_eq!(ep.label(), "EP:DP+ASP");
        let mut cdp = PrefetcherConfig::distance();
        cdp.confidence(ConfidenceConfig::passthrough());
        assert_eq!(cdp.label(), "C+DP,256,D;conf=0/0");
        let mut casp = PrefetcherConfig::stride();
        casp.rows(64).confidence(ConfidenceConfig::adaptive());
        assert_eq!(casp.label(), "C+ASP,64");
        // Parsed text prints canonically: omitted head fields filled in,
        // other settings as keys in the grammar's order.
        for (text, canonical) in [
            ("dp", "DP,256,D"),
            ("mp,1024,4", "MP,1024,4"),
            ("ep", "EP:DP+ASP"),
            ("c+c+rp", "C+RP"),
            ("sp;rows=32;pc=1", "SP;rows=32;pc=1"),
            ("tp,4;assoc=2;slots=3", "TP,4;slots=3;assoc=2"),
        ] {
            assert_eq!(text.parse::<PrefetcherConfig>().unwrap().label(), canonical);
        }
    }

    #[test]
    fn adaptive_kinds_build_and_name_themselves() {
        assert_eq!(
            PrefetcherConfig::trend_stride().build().unwrap().name(),
            "TP"
        );
        let ep = PrefetcherConfig::ensemble_of(&[PrefetcherKind::Distance]);
        assert_eq!(ep.build().unwrap().name(), "EP");
        let mut cdp = PrefetcherConfig::distance();
        cdp.confidence(ConfidenceConfig::adaptive());
        assert_eq!(cdp.build().unwrap().name(), "C+DP");
    }

    #[test]
    fn adaptive_validation_errors_are_reported() {
        let mut tp = PrefetcherConfig::trend_stride();
        tp.window(99);
        assert_eq!(tp.validate(), Err(ConfigError::BadWindow { window: 99 }));
        assert!(tp.build().is_err());

        let empty = PrefetcherConfig::ensemble_of(&[]);
        assert_eq!(empty.validate(), Err(ConfigError::EmptyEnsemble));

        let nested = PrefetcherConfig::ensemble_of(&[PrefetcherKind::Ensemble]);
        assert_eq!(nested.validate(), Err(ConfigError::NestedEnsemble));

        // A component's own geometry error propagates out of the list.
        let mut bad_geom = PrefetcherConfig::ensemble_of(&[PrefetcherKind::Markov]);
        bad_geom.rows(10).assoc(Associativity::ways_of(4));
        assert!(matches!(bad_geom.validate(), Err(ConfigError::Geometry(_))));

        let mut bad_conf = PrefetcherConfig::distance();
        bad_conf.confidence(ConfidenceConfig {
            threshold: 7,
            max_degree: 0,
        });
        assert_eq!(
            bad_conf.validate(),
            Err(ConfigError::BadConfidenceThreshold { threshold: 7 })
        );

        // The counter bank needs valid geometry even over untabled RP.
        let mut bad_bank = PrefetcherConfig::recency();
        bad_bank
            .rows(10)
            .assoc(Associativity::ways_of(4))
            .confidence(ConfidenceConfig::adaptive());
        assert!(matches!(bad_bank.validate(), Err(ConfigError::Geometry(_))));
    }
}
