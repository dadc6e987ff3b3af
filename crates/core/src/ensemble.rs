//! Set-dueling ensemble prefetching (EP).
//!
//! Cache-replacement set dueling, ported to the miss stream: the
//! virtual address space is carved into 64-page *regions*, a few
//! regions are designated **leaders** for each component mechanism, and
//! everything else follows the current duel winner.
//!
//! * Every component observes every miss — all the prediction tables
//!   train on the full stream, so the loser is always warm if the duel
//!   flips.
//! * In component `i`'s leader regions, only component `i`'s candidates
//!   are issued, and the miss votes on its score: a prefetch-buffer hit
//!   (the issued prefetch covered this miss) bumps the score up, a
//!   demand miss bumps it down — a saturating counter per component.
//! * In follower regions the component with the highest score issues
//!   (ties break to the lowest index, keeping the duel deterministic).
//!
//! Scores are banked per ASID in the register bank DP, MP and RP use,
//! so flush-free multiprogramming duels each context independently
//! while the component tables stay shared and ASID-tagged.
//!
//! With a **single** component there is nothing to duel: leader and
//! follower regions alike issue component 0's candidates verbatim, so
//! the ensemble is bit-identical to its one component — the degenerate
//! oracle the `adaptive_oracles` integration test enforces through the
//! full simulation stack.

use crate::banked::Banked;
use crate::config::{ConfigError, PrefetcherConfig};
use crate::prefetcher::{
    HardwareProfile, IndexSource, MissContext, RowBudget, StateLocation, TlbPrefetcher,
};
use crate::sink::CandidateBuf;
use crate::types::Asid;

/// The set-dueling ensemble.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{PrefetcherConfig, PrefetcherKind};
///
/// let cfg = PrefetcherConfig::ensemble_of(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
/// let ep = cfg.build()?;
/// assert_eq!(ep.name(), "EP");
/// # Ok::<(), tlbsim_core::ConfigError>(())
/// ```
pub struct EnsemblePrefetcher {
    components: Vec<Box<dyn TlbPrefetcher>>,
    /// Duel scores, one per component, banked per context.
    scores: Banked<Vec<u32>>,
    /// Private sink each component fills in turn (reused, never grown).
    scratch: CandidateBuf,
}

impl EnsemblePrefetcher {
    /// Pages per dueling region (region = page >> 6).
    pub const REGION_PAGES_LOG2: u32 = 6;

    /// Leader-region dilution: of every `components * LEADER_STRIDE`
    /// consecutive regions, one is a leader per component and the rest
    /// follow.
    pub const LEADER_STRIDE: u64 = 8;

    /// Scores saturate at this value (a 10-bit policy counter).
    pub const SCORE_MAX: u32 = 1023;

    /// Fresh contexts start at the midpoint: no component is favoured
    /// until its leader regions earn it.
    pub const SCORE_INIT: u32 = 512;

    /// Builds an ensemble over `components` (at least one).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyEnsemble`] for an empty component
    /// list.
    pub fn new(components: Vec<Box<dyn TlbPrefetcher>>) -> Result<Self, ConfigError> {
        if components.is_empty() {
            return Err(ConfigError::EmptyEnsemble);
        }
        let k = components.len();
        Ok(EnsemblePrefetcher {
            components,
            scores: Banked::new(vec![Self::SCORE_INIT; k]),
            scratch: CandidateBuf::new(),
        })
    }

    /// Builds the ensemble named by `config`'s component list, each
    /// component instantiated with `config`'s geometry knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an empty or nested component list, or
    /// any component's own construction error.
    pub fn from_config(config: &PrefetcherConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut components = Vec::new();
        for &kind in config.ensemble_components() {
            components.push(config.component_config(kind).build()?);
        }
        Self::new(components)
    }

    /// The duel decision for `region`: `(issuer, leader_of)` where
    /// `leader_of` is `Some(i)` iff the region is component `i`'s
    /// leader (and then `issuer == i`).
    fn duel(&self, region: u64) -> (usize, Option<usize>) {
        let k = self.components.len() as u64;
        let slot = region % (k * Self::LEADER_STRIDE);
        if slot < k {
            let i = slot as usize;
            (i, Some(i))
        } else {
            (self.winner(), None)
        }
    }

    /// Highest-scoring component, ties to the lowest index.
    fn winner(&self) -> usize {
        let mut best = 0;
        for (i, &score) in self.scores.iter().enumerate().skip(1) {
            if score > self.scores[best] {
                best = i;
            }
        }
        best
    }

    /// Current duel scores (one per component), for tests/inspection.
    pub fn scores(&self) -> &[u32] {
        &self.scores
    }

    /// Number of dueling components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }
}

impl TlbPrefetcher for EnsemblePrefetcher {
    fn on_miss(&mut self, ctx: &MissContext, sink: &mut CandidateBuf) {
        let region = ctx.page.number() >> Self::REGION_PAGES_LOG2;
        let (issuer, leader_of) = self.duel(region);

        // Leader regions vote on their component's score: a prefetch
        // that covered this miss is a win, a demand miss a loss.
        if let Some(i) = leader_of {
            let score = &mut self.scores[i];
            *score = if ctx.prefetch_buffer_hit {
                (*score + 1).min(Self::SCORE_MAX)
            } else {
                score.saturating_sub(1)
            };
        }

        // Every component observes the miss; only the issuer's
        // candidates (and maintenance traffic) leave the ensemble.
        for (i, component) in self.components.iter_mut().enumerate() {
            self.scratch.clear();
            component.on_miss(ctx, &mut self.scratch);
            if i == issuer {
                for &page in self.scratch.pages() {
                    sink.push(page);
                }
                sink.add_maintenance_ops(self.scratch.maintenance_ops());
            }
        }
    }

    fn flush(&mut self) {
        for component in &mut self.components {
            component.flush();
        }
        self.scores.reset_all(|s| s.fill(Self::SCORE_INIT));
    }

    fn set_asid(&mut self, asid: Asid) {
        for component in &mut self.components {
            component.set_asid(asid);
        }
        self.scores.switch(asid);
        if self.scores.len() != self.components.len() {
            // First visit to this context: fresh midpoint scores (switch
            // time may allocate; the miss path never does).
            *self.scores = vec![Self::SCORE_INIT; self.components.len()];
        }
    }

    fn evict_asid(&mut self, asid: Asid) {
        for component in &mut self.components {
            component.evict_asid(asid);
        }
        self.scores.evict(asid, |s| s.fill(Self::SCORE_INIT));
    }

    fn profile(&self) -> HardwareProfile {
        let mut rows = 0;
        let mut max_prefetch = 0;
        let mut memory_ops = 0;
        for component in &self.components {
            let p = component.profile();
            if let RowBudget::Rows(r) = p.rows {
                rows += r;
            }
            max_prefetch = max_prefetch.max(p.max_prefetches.1);
            memory_ops = memory_ops.max(p.memory_ops_per_miss);
        }
        HardwareProfile {
            name: "EP",
            rows: RowBudget::Rows(rows),
            row_contents: "Per-component tables + duel scores",
            location: StateLocation::OnChip,
            index: IndexSource::PageNumber,
            memory_ops_per_miss: memory_ops,
            max_prefetches: (0, max_prefetch),
        }
    }

    fn name(&self) -> &'static str {
        "EP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use crate::types::{Pc, VirtPage};

    fn ep(kinds: &[PrefetcherKind]) -> EnsemblePrefetcher {
        EnsemblePrefetcher::from_config(&PrefetcherConfig::ensemble_of(kinds)).unwrap()
    }

    fn miss(p: &mut (impl TlbPrefetcher + ?Sized), page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        p.on_miss(
            &MissContext::demand(VirtPage::new(page), Pc::new(0)),
            &mut sink,
        );
        sink
    }

    fn covered(p: &mut impl TlbPrefetcher, page: u64) -> CandidateBuf {
        let mut sink = CandidateBuf::new();
        let ctx = MissContext {
            page: VirtPage::new(page),
            pc: Pc::new(0),
            prefetch_buffer_hit: true,
            evicted_tlb_entry: None,
        };
        p.on_miss(&ctx, &mut sink);
        sink
    }

    #[test]
    fn single_component_is_bit_identical_to_it() {
        let mut ensemble = ep(&[PrefetcherKind::Distance]);
        let mut bare = PrefetcherConfig::distance().build().unwrap();
        let pages: Vec<u64> = (0..300)
            .map(|i| if i % 5 == 0 { i * 977 % 4096 } else { i * 2 })
            .collect();
        for &page in &pages {
            assert_eq!(miss(&mut ensemble, page), miss(&mut *bare, page));
        }
    }

    #[test]
    fn empty_ensemble_is_rejected() {
        assert_eq!(
            EnsemblePrefetcher::new(Vec::new()).err(),
            Some(ConfigError::EmptyEnsemble)
        );
    }

    #[test]
    fn leader_mapping_is_one_region_per_component() {
        let e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        // k = 2, stride 8: of every 16 regions, region 0 leads DP,
        // region 1 leads ASP, 2..15 follow.
        assert_eq!(e.duel(0), (0, Some(0)));
        assert_eq!(e.duel(1), (1, Some(1)));
        assert_eq!(e.duel(2), (0, None)); // tie -> lowest index
        assert_eq!(e.duel(16), (0, Some(0)));
        assert_eq!(e.duel(17), (1, Some(1)));
    }

    #[test]
    fn followers_issue_the_duel_winner() {
        // DP (index 0) duels ASP (index 1). The miss stream walks a
        // stride through follower regions with a *fresh PC each miss*:
        // DP's distance table predicts, ASP's PC-keyed table never can.
        let mut e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        let follower_base = 2u64 << EnsemblePrefetcher::REGION_PAGES_LOG2;

        // Vote ASP up in its leader region (region 1) until it wins.
        let asp_leader = 1u64 << EnsemblePrefetcher::REGION_PAGES_LOG2;
        for i in 0..8 {
            covered(&mut e, asp_leader + (i % 4));
        }
        assert!(e.scores()[1] > e.scores()[0]);

        // Teach DP the +1 chain inside the follower region.
        let mut pc = 1000u64;
        let mut walk = |e: &mut EnsemblePrefetcher, page: u64| {
            pc += 4;
            let mut sink = CandidateBuf::new();
            e.on_miss(
                &MissContext::demand(VirtPage::new(page), Pc::new(pc)),
                &mut sink,
            );
            sink
        };
        for p in 0..6 {
            walk(&mut e, follower_base + p);
        }
        // ASP is winning, and with one-shot PCs it predicts nothing.
        assert!(walk(&mut e, follower_base + 6).pages().is_empty());

        // Now vote DP up past ASP in DP's leader region (region 0).
        for i in 0..20 {
            covered(&mut e, i % 4);
        }
        assert!(e.scores()[0] > e.scores()[1]);
        // Resume the follower walk: the first miss re-anchors DP's
        // distance registers after the leader-region detour, then the
        // +1 chain issues DP's prediction of the next page.
        walk(&mut e, follower_base + 7);
        let d = walk(&mut e, follower_base + 8);
        assert!(
            d.pages().contains(&VirtPage::new(follower_base + 9)),
            "{d:?}"
        );
    }

    #[test]
    fn scores_saturate_at_both_ends() {
        let mut e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        for _ in 0..2000 {
            covered(&mut e, 0); // DP leader region, always a win
            miss(&mut e, 64); // ASP leader region, always a loss
        }
        assert_eq!(e.scores()[0], EnsemblePrefetcher::SCORE_MAX);
        assert_eq!(e.scores()[1], 0);
    }

    #[test]
    fn follower_misses_do_not_vote() {
        let mut e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        let before = e.scores().to_vec();
        let follower = 5u64 << EnsemblePrefetcher::REGION_PAGES_LOG2;
        for i in 0..50 {
            miss(&mut e, follower + i % 8);
            covered(&mut e, follower + i % 8);
        }
        assert_eq!(e.scores(), before.as_slice());
    }

    #[test]
    fn duel_is_deterministic() {
        let pages: Vec<u64> = (0..500).map(|i| (i * 37) % 1000).collect();
        let run = || {
            let mut e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Markov]);
            pages.iter().map(|&p| miss(&mut e, p)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scores_are_banked_per_context() {
        let mut e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        // Saturate DP's score downward in context 0.
        for _ in 0..600 {
            miss(&mut e, 0);
        }
        let ctx0 = e.scores().to_vec();
        assert!(ctx0[0] < EnsemblePrefetcher::SCORE_INIT);
        // A fresh context duels from the midpoint.
        e.set_asid(Asid::new(1));
        assert_eq!(
            e.scores(),
            &[
                EnsemblePrefetcher::SCORE_INIT,
                EnsemblePrefetcher::SCORE_INIT
            ]
        );
        for _ in 0..10 {
            covered(&mut e, 64);
        }
        // Switching back restores context 0's duel exactly.
        e.set_asid(Asid::DEFAULT);
        assert_eq!(e.scores(), ctx0.as_slice());
    }

    #[test]
    fn evict_asid_resets_that_contexts_duel() {
        let mut e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        for _ in 0..100 {
            miss(&mut e, 0);
        }
        e.evict_asid(Asid::DEFAULT);
        assert_eq!(
            e.scores(),
            &[
                EnsemblePrefetcher::SCORE_INIT,
                EnsemblePrefetcher::SCORE_INIT
            ]
        );
    }

    #[test]
    fn flush_resets_components_and_scores() {
        let mut e = ep(&[PrefetcherKind::Distance]);
        for page in 0..10u64 {
            miss(&mut e, page);
        }
        e.flush();
        assert_eq!(e.scores(), &[EnsemblePrefetcher::SCORE_INIT]);
        assert!(miss(&mut e, 100).is_none());
        assert!(miss(&mut e, 101).is_none());
    }

    #[test]
    fn profile_sums_component_budgets() {
        let e = ep(&[PrefetcherKind::Distance, PrefetcherKind::Stride]);
        let prof = e.profile();
        assert_eq!(prof.name, "EP");
        assert_eq!(prof.rows, RowBudget::Rows(512)); // 256 + 256
        assert_eq!(prof.max_prefetches.0, 0);
        assert_eq!(e.component_count(), 2);
    }
}
