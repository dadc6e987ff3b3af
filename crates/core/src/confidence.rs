//! Confidence-throttled prefetching — an adaptive wrapper over any base
//! mechanism.
//!
//! The two-level adaptive-filtering idea (PAPERS.md): keep a bank of
//! 2-bit saturating confidence counters, indexed like the prediction
//! tables and ASID-tagged, and only let the wrapped mechanism's
//! candidates through when the counter for the *triggering* miss page
//! sits at or above a threshold. A degree cap additionally truncates
//! how many candidates one miss may issue.
//!
//! Training is **shadow** training: every candidate the base mechanism
//! produces is recorded in a pending-prediction table — even when the
//! threshold suppresses its issue — so the counters keep learning while
//! the throttle is closed and can reopen it. A later miss on a pending
//! page is a vote *up* for the trigger that predicted it; a pending row
//! displaced before being consumed (the prediction never came true
//! within the table's reach) is a vote *down*.
//!
//! The degenerate configuration — threshold 0, unlimited degree
//! ([`ConfidenceConfig::passthrough`]) — copies every base candidate in
//! order and forwards the base's maintenance traffic untouched, so it is
//! **bit-identical** to running the base mechanism bare. The
//! `adaptive_oracles` integration test pins that through the full
//! simulation stack; it is this module's analogue of PR 8's flush-oracle
//! proof.

use crate::assoc::Associativity;
use crate::config::ConfigError;
use crate::prefetcher::{HardwareProfile, MissContext, TlbPrefetcher};
use crate::sink::CandidateBuf;
use crate::table::PredictionTable;
use crate::types::{Asid, VirtPage};

/// The two knobs of the confidence throttle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ConfidenceConfig {
    /// Minimum counter value (0..=3) required to issue candidates.
    /// Zero lets everything through.
    pub threshold: u8,
    /// Maximum candidates issued per miss; `0` means unlimited.
    pub max_degree: u32,
}

impl ConfidenceConfig {
    /// The degenerate configuration, provably identical to the bare
    /// base mechanism: threshold 0, unlimited degree.
    pub fn passthrough() -> Self {
        ConfidenceConfig {
            threshold: 0,
            max_degree: 0,
        }
    }

    /// The default adaptive setting: issue only from weakly-confident
    /// rows and at most 4 candidates per miss.
    pub fn adaptive() -> Self {
        ConfidenceConfig {
            threshold: ConfidencePrefetcher::COUNTER_INIT,
            max_degree: 4,
        }
    }
}

impl Default for ConfidenceConfig {
    fn default() -> Self {
        ConfidenceConfig::adaptive()
    }
}

/// A pending (not yet confirmed) prediction: the page predicted maps to
/// the trigger page whose counter gets the credit. `None` marks a row
/// whose prediction was already consumed.
type PendingRow = Option<VirtPage>;

/// The confidence throttle around a boxed base mechanism.
///
/// # Examples
///
/// The passthrough configuration issues exactly what the base would:
///
/// ```
/// use tlbsim_core::{CandidateBuf, ConfidenceConfig, MissContext, Pc, PrefetcherConfig, VirtPage};
///
/// let mut cfg = PrefetcherConfig::distance();
/// cfg.confidence(ConfidenceConfig::passthrough());
/// let mut cdp = cfg.build()?;
/// assert_eq!(cdp.name(), "C+DP");
/// let mut dp = PrefetcherConfig::distance().build()?;
/// for page in [10u64, 11, 12, 13] {
///     let ctx = MissContext::demand(VirtPage::new(page), Pc::new(0));
///     let (mut got, mut want) = (CandidateBuf::new(), CandidateBuf::new());
///     cdp.on_miss(&ctx, &mut got);
///     dp.on_miss(&ctx, &mut want);
///     assert_eq!(got, want);
/// }
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
pub struct ConfidencePrefetcher {
    inner: Box<dyn TlbPrefetcher>,
    config: ConfidenceConfig,
    /// 2-bit saturating confidence per trigger page, ASID-tagged.
    counters: PredictionTable<VirtPage, u8>,
    /// Outstanding shadow predictions: predicted page -> trigger page.
    pending: PredictionTable<VirtPage, PendingRow>,
    /// The base mechanism's private sink (reused, never reallocated).
    scratch: CandidateBuf,
}

impl ConfidencePrefetcher {
    /// Counters saturate at this value (2-bit).
    pub const COUNTER_MAX: u8 = 3;

    /// Fresh rows start weakly confident, so un-trained pages prefetch
    /// under the default threshold and the throttle learns downward.
    pub const COUNTER_INIT: u8 = 2;

    /// Wraps `inner` with a counter bank of `rows` rows organised by
    /// `assoc` (the same geometry knobs as the prediction tables).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid bank geometry or a
    /// threshold above [`COUNTER_MAX`](Self::COUNTER_MAX).
    pub fn new(
        inner: Box<dyn TlbPrefetcher>,
        rows: usize,
        assoc: Associativity,
        config: ConfidenceConfig,
    ) -> Result<Self, ConfigError> {
        if config.threshold > Self::COUNTER_MAX {
            return Err(ConfigError::BadConfidenceThreshold {
                threshold: config.threshold,
            });
        }
        Ok(ConfidencePrefetcher {
            inner,
            config,
            counters: PredictionTable::new(rows, assoc)?,
            pending: PredictionTable::new(rows, assoc)?,
            scratch: CandidateBuf::new(),
        })
    }

    /// The throttle's configuration.
    pub fn config(&self) -> ConfidenceConfig {
        self.config
    }

    /// The current confidence for `trigger`, or the initial value if the
    /// bank holds no row for it (what the throttle would consult).
    pub fn confidence_of(&self, trigger: VirtPage) -> u8 {
        self.counters
            .get(trigger)
            .copied()
            .unwrap_or(Self::COUNTER_INIT)
    }

    fn reward(&mut self, trigger: VirtPage) {
        let c = self
            .counters
            .get_or_insert_with(trigger, || Self::COUNTER_INIT);
        *c = (*c + 1).min(Self::COUNTER_MAX);
    }

    fn penalize(&mut self, trigger: VirtPage) {
        let c = self
            .counters
            .get_or_insert_with(trigger, || Self::COUNTER_INIT);
        *c = c.saturating_sub(1);
    }
}

impl TlbPrefetcher for ConfidencePrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        // A miss on a page some earlier trigger predicted confirms that
        // prediction: consume the pending row and reward the trigger.
        if let Some(row) = self.pending.get_mut(ctx.page) {
            if let Some(trigger) = row.take() {
                self.reward(trigger);
            }
        }

        // The base mechanism always observes the miss (its tables train
        // regardless of whether the throttle lets candidates out).
        self.scratch.clear();
        self.inner.on_miss(ctx, &mut self.scratch);
        // State-maintenance traffic happens during observation, not
        // issue, so it is forwarded even when candidates are suppressed.
        sink.add_maintenance_ops(self.scratch.maintenance_ops());

        let open = self.confidence_of(ctx.page) >= self.config.threshold;
        let degree = if self.config.max_degree == 0 {
            usize::MAX
        } else {
            self.config.max_degree as usize
        };

        for i in 0..self.scratch.len() {
            let candidate = self.scratch.pages()[i];
            if open && i < degree {
                sink.push(candidate);
            }
            // Shadow-train on every candidate, issued or not. A displaced
            // un-consumed pending row is a prediction that never came
            // true: penalize its trigger.
            if let Some((_, Some(orphan))) = self.pending.insert(candidate, Some(ctx.page)) {
                self.penalize(orphan);
            }
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
        self.counters.clear();
        self.pending.clear();
    }

    fn set_asid(&mut self, asid: Asid) {
        // All wrapper state lives in tagged tables: no registers to bank.
        self.inner.set_asid(asid);
        self.counters.set_asid(asid);
        self.pending.set_asid(asid);
    }

    fn evict_asid(&mut self, asid: Asid) {
        self.inner.evict_asid(asid);
        self.counters.evict_asid(asid);
        self.pending.evict_asid(asid);
    }

    fn profile(&self) -> HardwareProfile {
        let mut profile = self.inner.profile();
        profile.name = self.name();
        // Suppression can zero any miss's issue.
        profile.max_prefetches.0 = 0;
        profile
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "none" => "C+none",
            "SP" => "C+SP",
            "ASP" => "C+ASP",
            "MP" => "C+MP",
            "RP" => "C+RP",
            "DP" => "C+DP",
            "TP" => "C+TP",
            "EP" => "C+EP",
            _ => "C+?",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherConfig;
    use crate::types::Pc;

    fn wrap(conf: ConfidenceConfig) -> ConfidencePrefetcher {
        ConfidencePrefetcher::new(
            PrefetcherConfig::distance().build().unwrap(),
            256,
            Associativity::Direct,
            conf,
        )
        .unwrap()
    }

    fn miss(p: &mut (impl TlbPrefetcher + ?Sized), page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        p.on_miss(
            &MissContext::demand(VirtPage::new(page), Pc::new(0)),
            &mut sink,
        );
        sink
    }

    #[test]
    fn passthrough_is_bit_identical_to_base() {
        let mut wrapped = wrap(ConfidenceConfig::passthrough());
        let mut bare = PrefetcherConfig::distance().build().unwrap();
        // A stream mixing learnable strides and noise.
        let pages: Vec<u64> = (0..200)
            .map(|i| if i % 7 == 0 { i * 31 % 501 } else { i * 3 })
            .collect();
        for &page in &pages {
            assert_eq!(miss(&mut wrapped, page), miss(&mut *bare, page));
        }
    }

    #[test]
    fn confirmed_predictions_raise_confidence() {
        let mut p = wrap(ConfidenceConfig::passthrough());
        // +1 stride: from miss 3 on, DP predicts the next page, and the
        // next miss confirms it each time.
        for page in 0..10u64 {
            miss(&mut p, page);
        }
        assert_eq!(
            p.confidence_of(VirtPage::new(8)),
            ConfidencePrefetcher::COUNTER_MAX
        );
    }

    #[test]
    fn threshold_suppresses_but_shadow_training_reopens() {
        // Threshold above INIT: everything starts suppressed.
        let mut p = wrap(ConfidenceConfig {
            threshold: 3,
            max_degree: 0,
        });
        // Lap 1: every trigger page is fresh (counter at INIT = 2), so
        // nothing is issued even as DP learns the stride and its shadow
        // confirmations saturate the counters of the pages walked.
        for page in 0..20u64 {
            assert!(miss(&mut p, page).pages().is_empty());
        }
        // Lap 2: the same trigger pages recur with saturated counters
        // and the throttle reopens.
        let issued_late: usize = (0..20u64)
            .map(|page| miss(&mut p, page).pages().len())
            .sum();
        assert!(issued_late > 0, "shadow training never reopened");
    }

    #[test]
    fn degree_caps_candidates_per_miss() {
        // Teach DP two followers of +1, then cap the degree at 1.
        let inner = PrefetcherConfig::distance().build().unwrap();
        let mut p = ConfidencePrefetcher::new(
            inner,
            256,
            Associativity::Direct,
            ConfidenceConfig {
                threshold: 0,
                max_degree: 1,
            },
        )
        .unwrap();
        for page in [0u64, 1, 3] {
            miss(&mut p, page);
        }
        for page in [10u64, 11, 14] {
            miss(&mut p, page);
        }
        miss(&mut p, 20);
        let d = miss(&mut p, 21);
        // Bare DP would emit two candidates here (+3 MRU then +2).
        assert_eq!(d.pages(), vec![VirtPage::new(24)]);
    }

    #[test]
    fn counters_saturate_within_two_bits() {
        let mut p = wrap(ConfidenceConfig::passthrough());
        for page in 0..500u64 {
            miss(&mut p, page);
            assert!(p.confidence_of(VirtPage::new(page)) <= ConfidencePrefetcher::COUNTER_MAX);
        }
    }

    #[test]
    fn bad_threshold_is_rejected() {
        let err = ConfidencePrefetcher::new(
            PrefetcherConfig::distance().build().unwrap(),
            256,
            Associativity::Direct,
            ConfidenceConfig {
                threshold: 4,
                max_degree: 0,
            },
        )
        .err();
        assert_eq!(
            err,
            Some(ConfigError::BadConfidenceThreshold { threshold: 4 })
        );
    }

    #[test]
    fn maintenance_ops_survive_suppression() {
        // RP's pointer maintenance is observation-time traffic: it must
        // flow even when the throttle never opens.
        let inner = PrefetcherConfig::recency().build().unwrap();
        let mut p = ConfidencePrefetcher::new(
            inner,
            256,
            Associativity::Direct,
            ConfidenceConfig {
                threshold: 3,
                max_degree: 0,
            },
        )
        .unwrap();
        let mut bare = PrefetcherConfig::recency().build().unwrap();
        let mut wrapped_ops = 0;
        let mut bare_ops = 0;
        for page in 0..50u64 {
            let ctx = MissContext {
                page: VirtPage::new(page % 7),
                pc: Pc::new(0),
                prefetch_buffer_hit: false,
                evicted_tlb_entry: Some(VirtPage::new(page % 5 + 100)),
            };
            let (mut wrapped, mut plain) = (CandidateBuf::new(), CandidateBuf::new());
            p.on_miss(&ctx, &mut wrapped);
            bare.on_miss(&ctx, &mut plain);
            wrapped_ops += wrapped.maintenance_ops();
            bare_ops += plain.maintenance_ops();
        }
        assert_eq!(wrapped_ops, bare_ops);
        assert!(bare_ops > 0);
    }

    #[test]
    fn flush_resets_counters_and_pending() {
        let mut p = wrap(ConfidenceConfig::passthrough());
        for page in 0..10u64 {
            miss(&mut p, page);
        }
        p.flush();
        assert_eq!(
            p.confidence_of(VirtPage::new(8)),
            ConfidencePrefetcher::COUNTER_INIT
        );
        assert!(miss(&mut p, 100).is_none());
    }

    #[test]
    fn contexts_keep_separate_confidence() {
        let mut p = ConfidencePrefetcher::new(
            PrefetcherConfig::distance().build().unwrap(),
            256,
            Associativity::Full,
            ConfidenceConfig::passthrough(),
        )
        .unwrap();
        for page in 0..10u64 {
            miss(&mut p, page);
        }
        let learned = p.confidence_of(VirtPage::new(8));
        assert_eq!(learned, ConfidencePrefetcher::COUNTER_MAX);
        p.set_asid(Asid::new(1));
        // The other context's counters are untouched defaults.
        assert_eq!(
            p.confidence_of(VirtPage::new(8)),
            ConfidencePrefetcher::COUNTER_INIT
        );
        p.set_asid(Asid::DEFAULT);
        assert_eq!(p.confidence_of(VirtPage::new(8)), learned);
    }

    #[test]
    fn name_covers_every_base() {
        for (cfg, expect) in [
            (PrefetcherConfig::none(), "C+none"),
            (PrefetcherConfig::sequential(), "C+SP"),
            (PrefetcherConfig::stride(), "C+ASP"),
            (PrefetcherConfig::markov(), "C+MP"),
            (PrefetcherConfig::recency(), "C+RP"),
            (PrefetcherConfig::distance(), "C+DP"),
        ] {
            let p = ConfidencePrefetcher::new(
                cfg.build().unwrap(),
                64,
                Associativity::Direct,
                ConfidenceConfig::passthrough(),
            )
            .unwrap();
            assert_eq!(p.name(), expect);
            assert_eq!(p.profile().name, expect);
        }
    }
}
