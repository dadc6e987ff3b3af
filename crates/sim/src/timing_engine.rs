//! The cycle-accounting simulation engine (the paper's Table 3 model).
//!
//! Reproduces the paper's deliberately RP-favouring timing experiment
//! (§3.2):
//!
//! * prefetch-related memory traffic contends only with itself, on a
//!   single serialized channel ([`tlbsim_mem::PrefetchChannel`]);
//! * a TLB miss that finds its translation already in the prefetch
//!   buffer costs nothing; one whose prefetch "has already been issued …
//!   is made to stall until the entry arrives";
//! * an uncovered miss pays the constant 100-cycle penalty;
//! * mechanisms that keep state in memory (RP) must complete their
//!   pointer updates before the CPU proceeds past the miss, and when the
//!   channel is still busy at the next miss they *skip* that miss's
//!   prefetches ("there would be only 4 memory transactions instead of
//!   6").

use tlbsim_core::{MemoryAccess, MissContext, StateLocation};
use tlbsim_mem::{PrefetchChannel, TimingParams};
use tlbsim_mmu::Tlb;

use crate::batch::PrefetchCore;
use crate::config::{SimConfig, SimError};
use crate::stats::TimingStats;

/// A cycle-accounting TLB-prefetching simulator.
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_mem::TimingParams;
/// use tlbsim_sim::{SimConfig, TimingEngine};
///
/// let mut none = TimingEngine::new(&SimConfig::baseline(), TimingParams::paper_default())?;
/// let mut dp = TimingEngine::new(&SimConfig::paper_default(), TimingParams::paper_default())?;
/// let stream: Vec<MemoryAccess> =
///     (0..40_000u64).map(|i| MemoryAccess::read(0x40, i / 4 * 4096)).collect();
/// none.run(stream.iter().copied());
/// dp.run(stream.iter().copied());
/// let normalized = dp.stats().normalized_against(none.stats());
/// assert!(normalized < 1.0); // prefetching saves cycles here
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub struct TimingEngine {
    tlb: Tlb,
    /// The prefetch buffer, page table and mechanism; prefetches reach
    /// the buffer through `channel` rather than the core's own install.
    core: PrefetchCore,
    config: SimConfig,
    params: TimingParams,
    channel: PrefetchChannel,
    /// Completion cycle of the most recent maintenance batch.
    maintenance_done: u64,
    /// Whether the mechanism's state lives in memory (RP), forcing the
    /// CPU to serialise on maintenance completion.
    maintenance_blocking: bool,
    now: f64,
    stats: TimingStats,
}

impl TimingEngine {
    /// Builds a timing engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid.
    pub fn new(config: &SimConfig, params: TimingParams) -> Result<Self, SimError> {
        let tlb = Tlb::new(config.tlb)?;
        let core = PrefetchCore::new(config)?;
        let maintenance_blocking =
            core.mechanism.prefetcher.profile().location == StateLocation::InMemory;
        Ok(TimingEngine {
            tlb,
            core,
            config: config.clone(),
            channel: PrefetchChannel::new(params.memory_op_cost),
            params,
            maintenance_done: 0,
            maintenance_blocking,
            now: 0.0,
            stats: TimingStats::default(),
        })
    }

    /// Simulates one data reference.
    pub fn access(&mut self, access: &MemoryAccess) {
        self.stats.accesses += 1;
        self.now += self.params.cycles_per_access();
        let now_ticks = self.now as u64;

        // Completed prefetch fetches are translated and land in the
        // buffer, keyed by frame.
        let core = &mut self.core;
        self.channel.drain_arrived(now_ticks, |page| {
            let frame = core.page_table.translate(page);
            core.buffer.entry(frame).insert(page);
        });

        let page = self.config.page_size.page_of(access.vaddr);
        if self.tlb.lookup(page).is_some() {
            return;
        }
        self.stats.misses += 1;

        // In-memory prediction state (RP) must be consistent before the
        // miss can be handled: wait out pending pointer updates.
        // Back-to-back misses coalesce their stack updates rather than
        // queueing them, so the CPU only drains the transaction already
        // on the bus — modelled as the expected remaining service time
        // of one memory operation (half an op).
        if self.maintenance_blocking && self.maintenance_done as f64 > self.now {
            let wait = (self.maintenance_done as f64 - self.now)
                .min(self.params.memory_op_cost as f64 / 2.0);
            self.stats.stall_maintenance += wait;
            self.now += wait;
        }

        let channel_busy_at_miss = self.channel.is_busy(self.now as u64);

        // Translate once; the buffer is asked by frame. A buffered page
        // was translated when its fetch arrived, so this maps no page
        // the buffer could have served.
        let frame = self.core.page_table.translate(page);
        let pb_hit = if self.core.buffer.promote_frame(frame) {
            self.stats.covered_hits += 1;
            true
        } else if let Some(done) = self.channel.pending_completion(page) {
            // Issued but still in flight: stall until it arrives — but
            // never longer than the demand walk the miss handler can
            // race against it, which bounds the loss at the ordinary
            // miss penalty.
            let wait = (done as f64 - self.now)
                .max(0.0)
                .min(self.params.tlb_miss_penalty as f64);
            self.stats.stall_inflight += wait;
            self.stats.inflight_hits += 1;
            self.now += wait;
            self.channel.consume(page);
            true
        } else {
            self.stats.demand_misses += 1;
            self.stats.stall_demand += self.params.tlb_miss_penalty as f64;
            self.now += self.params.tlb_miss_penalty as f64;
            false
        };
        let fill = self.tlb.fill(page, frame);

        let ctx = MissContext {
            page,
            pc: access.pc,
            prefetch_buffer_hit: pb_hit,
            evicted_tlb_entry: fill.evicted,
        };
        let sink = self.core.mechanism.observe(&ctx);

        let now_ticks = self.now as u64;
        let maintenance_ops = sink.maintenance_ops();
        if maintenance_ops > 0 {
            self.maintenance_done = self.channel.issue_maintenance(now_ticks, maintenance_ops);
            self.stats.channel_maintenance += u64::from(maintenance_ops);
        }

        // The paper's RP fallback: if earlier prefetch traffic is still
        // outstanding when the miss occurs, only the stack update happens
        // and the prefetches are skipped.
        if self.maintenance_blocking && channel_busy_at_miss {
            self.stats.prefetches_skipped_busy += sink.len() as u64;
            return;
        }

        // The install policy: always filtered (the paper's channel never
        // fetches a resident or in-flight translation), then issued on
        // the channel; arrivals reach the buffer at the top of `access`.
        // A candidate is translated only when its fetch arrives, so the
        // buffer is asked by page here.
        for &candidate in sink.pages() {
            if candidate == page
                || self.tlb.contains(candidate)
                || self.core.buffer.contains(candidate)
                || self.channel.pending_completion(candidate).is_some()
            {
                continue;
            }
            // Bound outstanding fetches by the buffer capacity: a longer
            // queue could never be useful before eviction.
            if self.channel.in_flight_count() >= self.core.buffer.capacity() {
                self.stats.prefetches_dropped_backlog += 1;
                continue;
            }
            self.channel.issue_fetch(now_ticks, candidate);
            self.stats.channel_fetches += 1;
        }
    }

    /// Simulates an entire stream and returns the final statistics.
    pub fn run(&mut self, stream: impl IntoIterator<Item = MemoryAccess>) -> &TimingStats {
        for access in stream {
            self.access(&access);
        }
        self.stats.cycles = self.now;
        &self.stats
    }

    /// Statistics so far ([`TimingStats::cycles`] is set by
    /// [`TimingEngine::run`]).
    pub fn stats(&self) -> &TimingStats {
        &self.stats
    }
}

impl std::fmt::Debug for TimingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingEngine")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_core::PrefetcherConfig;

    fn stream(pages: u64, refs: u64) -> Vec<MemoryAccess> {
        (0..pages * refs)
            .map(|i| MemoryAccess::read(0x40, i / refs * 4096))
            .collect()
    }

    fn run(cfg: &SimConfig, s: &[MemoryAccess]) -> TimingStats {
        let mut e = TimingEngine::new(cfg, TimingParams::paper_default()).unwrap();
        e.run(s.iter().copied());
        *e.stats()
    }

    #[test]
    fn baseline_cycles_are_base_plus_penalties() {
        let s = stream(1000, 4);
        let t = run(&SimConfig::baseline(), &s);
        let expected = TimingParams::paper_default().base_cycles(4000) + 1000.0 * 100.0;
        assert!(
            (t.cycles - expected).abs() < 1.0,
            "{} vs {expected}",
            t.cycles
        );
        assert_eq!(t.demand_misses, 1000);
    }

    #[test]
    fn covered_misses_save_cycles() {
        let s = stream(5000, 8);
        let base = run(&SimConfig::baseline(), &s);
        let dp = run(&SimConfig::paper_default(), &s);
        assert!(dp.cycles < base.cycles);
        assert!(dp.covered_hits + dp.inflight_hits > 4000);
    }

    #[test]
    fn tight_misses_wait_for_inflight_prefetches() {
        // refs=1: misses every ~3 cycles but fetches take 50: coverage is
        // mostly via in-flight waits, which still save most of the
        // 100-cycle penalty.
        let s = stream(5000, 1);
        let dp = run(&SimConfig::paper_default(), &s);
        assert!(dp.inflight_hits > 0);
        assert!(dp.stall_inflight > 0.0);
        let base = run(&SimConfig::baseline(), &s);
        assert!(dp.cycles < base.cycles);
    }

    #[test]
    fn recency_pays_maintenance_stalls_under_bursty_misses() {
        // A 300-page loop misses on every visit (TLB holds 128); pages
        // re-miss lap after lap, so RP has stack neighbours to prefetch
        // but its pointer updates congest the channel at refs = 1.
        let s: Vec<MemoryAccess> = (0..15_000u64)
            .map(|i| MemoryAccess::read(0x40, (i % 300) * 4096))
            .collect();
        let rp = run(
            &SimConfig::paper_default().with_prefetcher(PrefetcherConfig::recency()),
            &s,
        );
        assert!(rp.channel_maintenance > 0);
        assert!(rp.stall_maintenance > 0.0);
        assert!(rp.prefetches_skipped_busy > 0);
    }

    #[test]
    fn distance_never_stalls_on_maintenance() {
        let s = stream(3000, 1);
        let dp = run(&SimConfig::paper_default(), &s);
        assert_eq!(dp.stall_maintenance, 0.0);
        assert_eq!(dp.channel_maintenance, 0);
    }

    #[test]
    fn backlog_is_bounded_by_buffer_capacity() {
        let s = stream(5000, 1);
        let dp = run(&SimConfig::paper_default(), &s);
        // The drop counter may or may not fire depending on timing, but
        // in-flight fetches can never exceed the buffer size; indirectly
        // validated by issued fetches being well below 2-per-miss.
        assert!(dp.channel_fetches < 2 * dp.misses);
    }

    #[test]
    fn accesses_and_misses_match_functional_engine() {
        let s = stream(2000, 3);
        let t = run(&SimConfig::paper_default(), &s);
        let mut f = crate::Engine::new(&SimConfig::paper_default()).unwrap();
        f.run(s.iter().copied());
        assert_eq!(t.accesses, f.stats().accesses);
        assert_eq!(t.misses, f.stats().misses);
    }
}
