//! Prefetching into a data cache (extension).
//!
//! The paper's §4 claims distance prefetching "can possibly be used in
//! the context of caches"; this engine evaluates exactly that. The
//! prefetching mechanisms are granularity-agnostic — they see opaque
//! block numbers — so the same `TlbPrefetcher` implementations drive
//! cache-line prefetching here: the mechanism observes the cache-miss
//! stream and prefetched lines land directly in the cache
//! (next-level-backed fills, no separate buffer, the common arrangement
//! for L1 prefetching).

use tlbsim_core::{MemoryAccess, MissContext};
use tlbsim_mmu::{CacheAccess, DataCache, DataCacheConfig};

use crate::batch::Mechanism;
use crate::config::SimError;

/// Counters from a cache-prefetching simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// References simulated.
    pub accesses: u64,
    /// Demand misses with prefetching active.
    pub misses: u64,
    /// Prefetch fills issued.
    pub prefetches_issued: u64,
}

impl CacheStats {
    /// Demand miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A data-cache prefetching simulator.
///
/// Note that unlike the TLB engines, prefetches install straight into
/// the cache, so a bad mechanism *can* pollute it — comparing a run
/// against the no-prefetch baseline shows harm as well as benefit.
///
/// # Examples
///
/// ```
/// use tlbsim_core::{MemoryAccess, PrefetcherConfig};
/// use tlbsim_mmu::DataCacheConfig;
/// use tlbsim_sim::CacheEngine;
///
/// let mut engine =
///     CacheEngine::new(DataCacheConfig::typical_l1d(), &PrefetcherConfig::distance())?;
/// // A strided walk: DP hides almost all line misses.
/// engine.run((0..100_000u64).map(|i| MemoryAccess::read(0x40, i / 2 * 64)));
/// assert!(engine.stats().miss_rate() < 0.01);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub struct CacheEngine {
    cache: DataCache,
    mechanism: Mechanism,
    stats: CacheStats,
}

impl CacheEngine {
    /// Builds a cache-prefetching engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid cache or prefetcher settings.
    pub fn new(
        cache: DataCacheConfig,
        prefetcher: &tlbsim_core::PrefetcherConfig,
    ) -> Result<Self, SimError> {
        Ok(CacheEngine {
            cache: DataCache::new(cache)?,
            mechanism: Mechanism::new(prefetcher)?,
            stats: CacheStats::default(),
        })
    }

    /// Simulates one reference.
    pub fn access(&mut self, access: &MemoryAccess) {
        self.stats.accesses += 1;
        let pb_hit = match self.cache.access(access.vaddr) {
            CacheAccess::Hit => return,
            // Tagged protocol: the first hit to a prefetched line
            // re-enters the mechanism's "miss" stream (the cache-level
            // equivalent of a prefetch-buffer hit in the TLB adaptation)
            // so degree-1 prediction chains keep running.
            CacheAccess::PrefetchedHit => true,
            CacheAccess::Miss => {
                self.stats.misses += 1;
                false
            }
        };
        let line = self.cache.line_of(access.vaddr);
        let sink = self.mechanism.observe(&MissContext {
            page: line,
            pc: access.pc,
            prefetch_buffer_hit: pb_hit,
            evicted_tlb_entry: None,
        });
        // The install policy: fill surviving candidates straight into
        // the cache.
        for &candidate in sink.pages() {
            if candidate == line || self.cache.contains_line(candidate) {
                continue;
            }
            self.cache.fill_line(candidate);
            self.stats.prefetches_issued += 1;
        }
    }

    /// Simulates an entire stream and returns the final statistics.
    pub fn run(&mut self, stream: impl IntoIterator<Item = MemoryAccess>) -> &CacheStats {
        for access in stream {
            self.access(&access);
        }
        &self.stats
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The underlying cache's counters.
    pub fn cache(&self) -> &DataCache {
        &self.cache
    }
}

impl std::fmt::Debug for CacheEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEngine")
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_core::PrefetcherConfig;

    fn strided(lines: u64, refs: u64, stride: u64) -> Vec<MemoryAccess> {
        (0..lines * refs)
            .map(|i| MemoryAccess::read(0x40, (i / refs) * stride * 64))
            .collect()
    }

    fn run(prefetcher: PrefetcherConfig, stream: &[MemoryAccess]) -> CacheStats {
        let mut e = CacheEngine::new(DataCacheConfig::typical_l1d(), &prefetcher).unwrap();
        e.run(stream.iter().copied());
        *e.stats()
    }

    #[test]
    fn baseline_misses_every_cold_line() {
        let s = strided(5_000, 2, 1);
        let none = run(PrefetcherConfig::none(), &s);
        assert_eq!(none.misses, 5_000);
        assert_eq!(none.prefetches_issued, 0);
    }

    #[test]
    fn dp_hides_sequential_line_misses() {
        let s = strided(20_000, 2, 1);
        let dp = run(PrefetcherConfig::distance(), &s);
        assert!(dp.misses < 100, "DP left {} misses", dp.misses);
    }

    #[test]
    fn dp_hides_strided_line_misses_where_sp_cannot() {
        let s = strided(20_000, 2, 3);
        let dp = run(PrefetcherConfig::distance(), &s);
        let sp = run(PrefetcherConfig::sequential(), &s);
        assert!(dp.misses < 100);
        assert_eq!(sp.misses, 20_000, "stride 3 defeats next-line prefetching");
    }

    #[test]
    fn asp_works_at_line_granularity_too() {
        let s = strided(20_000, 2, 3);
        let asp = run(PrefetcherConfig::stride(), &s);
        assert!(asp.misses < 100, "ASP left {} misses", asp.misses);
    }

    #[test]
    fn distance_cycles_at_line_granularity_favour_dp() {
        // Alternating line distances (1, 17): ASP never stabilises.
        let mut stream = Vec::new();
        let mut line = 0u64;
        for i in 0..30_000 {
            stream.push(MemoryAccess::read(0x40, line * 64));
            line += if i % 2 == 0 { 1 } else { 17 };
        }
        let dp = run(PrefetcherConfig::distance(), &stream);
        let asp = run(PrefetcherConfig::stride(), &stream);
        assert!(
            dp.misses * 10 < asp.misses,
            "DP {} vs ASP {}",
            dp.misses,
            asp.misses
        );
    }
}
