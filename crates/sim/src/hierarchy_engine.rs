//! Prefetching into a two-level TLB hierarchy (extension).
//!
//! The paper's §4 lists evaluating distance prefetching "for other
//! levels of the storage hierarchy" as ongoing work; the natural first
//! step is a two-level TLB, which §1 also names among the hardware
//! levers. This engine places the prefetch buffer (and the prefetcher)
//! beside the *second-level* TLB: the mechanism observes the L2 miss
//! stream — even more filtered than the L1 miss stream the paper's
//! configuration watches — and prefetched translations promote L2-ward
//! on use.

use tlbsim_core::{MemoryAccess, PhysPage, VirtPage};
use tlbsim_mmu::{HierarchyConfig, HierarchyHit, TlbHierarchy};

use crate::batch::{PrefetchCore, Residency};
use crate::config::{SimConfig, SimError};
use crate::stats::SimStats;

/// Statistics of a two-level simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Data references simulated.
    pub accesses: u64,
    /// Misses in the first-level TLB.
    pub l1_misses: u64,
    /// Misses in both levels (the stream the prefetcher sees).
    pub l2_misses: u64,
    /// L2 misses satisfied by the prefetch buffer.
    pub prefetch_buffer_hits: u64,
    /// Prefetches inserted into the buffer.
    pub prefetches_issued: u64,
}

impl HierarchyStats {
    /// Prediction accuracy at the L2 level (buffer hits / L2 misses).
    pub fn accuracy(&self) -> f64 {
        if self.l2_misses == 0 {
            0.0
        } else {
            self.prefetch_buffer_hits as f64 / self.l2_misses as f64
        }
    }

    /// L1 miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }

    /// Global (both-level) miss rate.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.accesses as f64
        }
    }
}

/// The L1/L2 pair as the install target of the shared miss path.
impl Residency for TlbHierarchy {
    /// Fills both levels. L2 evictions are not tracked by the hierarchy
    /// model, so recency prefetching is exercised at a single level only.
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage> {
        TlbHierarchy::fill(self, page, frame);
        None
    }

    /// Candidates are filtered only against the prefetch buffer: the
    /// engine never probes two TLB levels for residency.
    fn contains(&self, _page: VirtPage, _frame: PhysPage) -> bool {
        false
    }
}

/// A functional simulator over a two-level TLB.
///
/// # Examples
///
/// ```
/// use tlbsim_mmu::HierarchyConfig;
/// use tlbsim_sim::{HierarchyEngine, SimConfig};
/// use tlbsim_workloads::{find_app, Scale};
///
/// let mut engine =
///     HierarchyEngine::new(&SimConfig::paper_default(), HierarchyConfig::default())?;
/// engine.run(find_app("galgel").expect("registered").workload(Scale::TINY));
/// assert!(engine.stats().accuracy() > 0.9);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub struct HierarchyEngine {
    hierarchy: TlbHierarchy,
    core: PrefetchCore,
    config: SimConfig,
    /// The L2 miss path's counters (`misses` counts L2 misses).
    sim: SimStats,
    stats: HierarchyStats,
}

impl HierarchyEngine {
    /// Builds a two-level engine; the `config`'s TLB geometry is
    /// superseded by `hierarchy`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid geometry or prefetcher settings.
    pub fn new(config: &SimConfig, hierarchy: HierarchyConfig) -> Result<Self, SimError> {
        Ok(HierarchyEngine {
            hierarchy: TlbHierarchy::new(hierarchy)?,
            core: PrefetchCore::new(config)?,
            config: config.clone(),
            sim: SimStats::default(),
            stats: HierarchyStats::default(),
        })
    }

    /// Simulates one reference.
    pub fn access(&mut self, access: &MemoryAccess) {
        self.stats.accesses += 1;
        let page = self.config.page_size.page_of(access.vaddr);
        match self.hierarchy.lookup(page) {
            HierarchyHit::L1(_) => {}
            HierarchyHit::L2(_) => self.stats.l1_misses += 1,
            HierarchyHit::Miss => {
                self.stats.l1_misses += 1;
                self.core.miss(
                    &mut self.sim,
                    page,
                    access.pc,
                    self.config.filter_prefetches,
                    &mut self.hierarchy,
                );
                self.stats.l2_misses = self.sim.misses;
                self.stats.prefetch_buffer_hits = self.sim.prefetch_buffer_hits;
                self.stats.prefetches_issued = self.sim.prefetches_issued;
            }
        }
    }

    /// Simulates an entire stream and returns the final statistics.
    pub fn run(&mut self, stream: impl IntoIterator<Item = MemoryAccess>) -> &HierarchyStats {
        for access in stream {
            self.access(&access);
        }
        &self.stats
    }

    /// Statistics so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }
}

impl std::fmt::Debug for HierarchyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchyEngine")
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_mmu::TlbConfig;

    fn sequential(pages: u64, refs: u64) -> impl Iterator<Item = MemoryAccess> {
        (0..pages * refs).map(move |i| MemoryAccess::read(0x40, i / refs * 4096))
    }

    fn engine(l1: usize, l2: usize) -> HierarchyEngine {
        HierarchyEngine::new(
            &SimConfig::paper_default(),
            HierarchyConfig {
                l1: TlbConfig::fully_associative(l1),
                l2: TlbConfig::fully_associative(l2),
            },
        )
        .unwrap()
    }

    #[test]
    fn l1_misses_at_least_l2_misses() {
        let mut e = engine(16, 128);
        e.run(sequential(2000, 4));
        let s = e.stats();
        assert!(s.l1_misses >= s.l2_misses);
        assert!(s.l2_misses > 0);
        assert_eq!(e.sim.prefetch_buffer_hits + e.sim.demand_walks, s.l2_misses);
    }

    #[test]
    fn dp_covers_l2_misses_of_sequential_walk() {
        let mut e = engine(16, 128);
        e.run(sequential(5000, 4));
        assert!(e.stats().accuracy() > 0.99, "{:?}", e.stats());
    }

    #[test]
    fn small_working_set_hits_l1_after_warmup() {
        let mut e = engine(16, 128);
        let stream = (0..10_000u64).map(|i| MemoryAccess::read(0, (i % 8) * 4096));
        e.run(stream);
        assert_eq!(e.stats().l2_misses, 8);
        assert_eq!(e.stats().l1_misses, 8);
    }

    #[test]
    fn l2_filters_the_miss_stream() {
        // A working set fitting L2 but not L1: L1 misses continuously,
        // L2 only cold-misses — the prefetcher sees almost nothing.
        let mut e = engine(16, 128);
        let stream = (0..20_000u64).map(|i| MemoryAccess::read(0, (i % 64) * 4096));
        e.run(stream);
        assert_eq!(e.stats().l2_misses, 64);
        assert!(e.stats().l1_misses > 1000);
    }

    #[test]
    fn unfiltered_prefetching_issues_more_for_the_same_misses() {
        // A 64-page loop through a 16-entry L2: DP keeps predicting
        // pages that are already buffered, which only the filter drops.
        let run = |filter: bool| {
            let mut e = HierarchyEngine::new(
                &SimConfig::paper_default().with_prefetch_filtering(filter),
                HierarchyConfig {
                    l1: TlbConfig::fully_associative(4),
                    l2: TlbConfig::fully_associative(16),
                },
            )
            .unwrap();
            e.run((0..20_000u64).map(|i| MemoryAccess::read(0, (i % 64) * 4096)));
            (*e.stats(), e.sim.prefetches_filtered)
        };
        let (filtered, dropped) = run(true);
        let (unfiltered, _) = run(false);
        assert!(dropped > 0, "{filtered:?}");
        assert!(unfiltered.prefetches_issued > filtered.prefetches_issued);
        assert_eq!(unfiltered.l2_misses, filtered.l2_misses);
    }
}
