//! The shared batched access loop and miss-path core.
//!
//! All four engines used to duplicate the same inner loop — look the
//! page up in the TLB, and on a miss promote-or-walk the translation,
//! call the prefetcher, and install its candidates — each with its own
//! per-miss `Vec` handling. This module centralises the two halves the
//! engines share:
//!
//! * [`PrefetchCore`] — the prefetch buffer, the mechanism under test,
//!   the page table and the **one** [`CandidateBuf`] sink the engine
//!   ever allocates. Its [`observe_and_install`] method runs the
//!   mechanism on a miss and installs the surviving candidates without
//!   touching the heap; its [`miss`] method is the functional miss path
//!   around it, shared by `Engine` (against its TLB) and the miss-stream
//!   sweep (against a residency set replayed from the stream).
//! * [`drive_stream`] — chunks any access iterator through a reusable
//!   batch buffer so engines process `&[MemoryAccess]` slices (the
//!   TLB-hit fast path then runs as a tight loop over each slice).
//!
//! [`observe_and_install`]: PrefetchCore::observe_and_install
//! [`miss`]: PrefetchCore::miss

use tlbsim_core::{
    Asid, CandidateBuf, MemoryAccess, MissContext, Pc, PhysPage, TlbPrefetcher, VirtPage,
};
use tlbsim_mmu::{PageTable, PrefetchBuffer, Tlb};

use crate::config::{SimConfig, SimError};
use crate::stats::SimStats;

/// Accesses, or page runs, processed per batch. Large enough to
/// amortise the loop bookkeeping, small enough (96 KiB of
/// `MemoryAccess` or `PageRun`) to stay cache resident per worker.
pub(crate) const ACCESS_BATCH: usize = 4096;

/// Streams `stream` through `scratch` in [`ACCESS_BATCH`]-sized chunks,
/// invoking `process` once per chunk. `scratch` is only grown once; its
/// allocation is reused across calls when the caller retains it.
///
/// The chunk copy is the cost of the uniform `&[MemoryAccess]`
/// streaming contract. Only the functional `Engine` hoists work out of
/// its batch loop today; the timing/hierarchy/cache engines do heavy
/// per-access work that dwarfs the copy, and sharing the shape keeps
/// all four drivable by the same batch producers (`fill_batch`, the
/// sweep runner).
pub(crate) fn drive_stream<I, F>(stream: I, scratch: &mut Vec<MemoryAccess>, mut process: F)
where
    I: IntoIterator<Item = MemoryAccess>,
    F: FnMut(&[MemoryAccess]),
{
    let mut iter = stream.into_iter();
    loop {
        scratch.clear();
        scratch.extend(iter.by_ref().take(ACCESS_BATCH));
        if scratch.is_empty() {
            break;
        }
        process(scratch);
    }
}

/// What [`PrefetchCore::observe_and_install`] did for one miss.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PrefetchOutcome {
    /// Candidates fetched into the prefetch buffer.
    pub issued: u64,
    /// Candidates dropped by the residency/self filter.
    pub filtered: u64,
    /// Buffered-but-unused entries displaced by the inserts.
    pub evicted_unused: u64,
    /// State-maintenance memory operations the mechanism reported.
    pub maintenance_ops: u32,
}

/// What the functional miss path fills and what its candidate filter
/// asks: the TLB itself, or a sweep job's residency set replayed from a
/// recorded miss stream.
pub(crate) trait Residency {
    /// Installs `page`'s translation as most recently used and returns
    /// the translation of this context it evicted, if any.
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage>;

    /// Whether `page` is resident, without touching recency.
    fn contains(&self, page: VirtPage) -> bool;
}

impl Residency for Tlb {
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage> {
        Tlb::fill(self, page, frame).evicted
    }

    fn contains(&self, page: VirtPage) -> bool {
        Tlb::contains(self, page)
    }
}

/// The engine-shared miss path: prefetch buffer + mechanism + page table
/// + the single reusable candidate sink.
pub(crate) struct PrefetchCore {
    pub buffer: PrefetchBuffer,
    pub prefetcher: Box<dyn TlbPrefetcher>,
    pub page_table: PageTable,
    sink: CandidateBuf,
}

impl PrefetchCore {
    /// Builds the miss path from a configuration.
    ///
    /// A zero-entry prefetch buffer is a configuration error
    /// ([`SimError::ZeroPrefetchBuffer`]), not a silently resized one.
    pub fn new(config: &SimConfig) -> Result<Self, SimError> {
        if config.prefetch_buffer_entries == 0 {
            return Err(SimError::ZeroPrefetchBuffer);
        }
        Ok(PrefetchCore {
            buffer: PrefetchBuffer::new(config.prefetch_buffer_entries)?,
            prefetcher: config.prefetcher.build()?,
            page_table: PageTable::new(),
            sink: CandidateBuf::new(),
        })
    }

    /// Promote-or-walk: returns the translation for `page` and whether
    /// it came from the prefetch buffer.
    pub fn translate(&mut self, page: VirtPage) -> (PhysPage, bool) {
        match self.buffer.promote(page) {
            Some(frame) => (frame, true),
            None => (self.page_table.translate(page), false),
        }
    }

    /// The functional miss path after a TLB probe missed `page`:
    /// promote-or-walk, fill `tlb`, run the mechanism on the miss and
    /// install its candidates (filtered against `tlb` when
    /// `filter_resident`), counting all of it into `stats`. Never
    /// allocates in steady state.
    pub fn miss(
        &mut self,
        stats: &mut SimStats,
        page: VirtPage,
        pc: Pc,
        filter_resident: bool,
        tlb: &mut impl Residency,
    ) {
        stats.misses += 1;
        // The prefetch buffer is probed concurrently with the TLB; a hit
        // promotes the translation into the TLB.
        let (frame, pb_hit) = self.translate(page);
        if pb_hit {
            stats.prefetch_buffer_hits += 1;
        } else {
            stats.demand_walks += 1;
        }
        let ctx = MissContext {
            page,
            pc,
            prefetch_buffer_hit: pb_hit,
            evicted_tlb_entry: tlb.fill(page, frame),
        };
        let outcome =
            self.observe_and_install(&ctx, filter_resident, |candidate| tlb.contains(candidate));
        stats.maintenance_ops += u64::from(outcome.maintenance_ops);
        stats.prefetches_issued += outcome.issued;
        stats.prefetches_filtered += outcome.filtered;
        stats.prefetches_evicted_unused += outcome.evicted_unused;
    }

    /// Runs the mechanism on `ctx` and installs the surviving candidates
    /// into the prefetch buffer — the allocation-free tail of the miss
    /// path.
    ///
    /// A candidate is filtered out when it equals the missing page, or —
    /// if `filter_resident` — when it is already buffered or
    /// `extra_resident` reports it resident elsewhere (the engines pass
    /// their TLB lookup here; the hierarchy engine, which never filters
    /// on TLB residency, passes a constant `false`).
    pub fn observe_and_install(
        &mut self,
        ctx: &MissContext,
        filter_resident: bool,
        extra_resident: impl Fn(VirtPage) -> bool,
    ) -> PrefetchOutcome {
        self.sink.clear();
        self.prefetcher.on_miss(ctx, &mut self.sink);
        debug_assert_eq!(
            self.sink.overflowed(),
            0,
            "a mechanism overflowed the candidate sink"
        );

        let mut outcome = PrefetchOutcome {
            maintenance_ops: self.sink.maintenance_ops(),
            ..PrefetchOutcome::default()
        };
        for i in 0..self.sink.len() {
            let candidate = self.sink.pages()[i];
            if candidate == ctx.page
                || (filter_resident
                    && (self.buffer.contains(candidate) || extra_resident(candidate)))
            {
                outcome.filtered += 1;
                continue;
            }
            let frame = self.page_table.translate(candidate);
            if self.buffer.insert(candidate, frame).is_some() {
                outcome.evicted_unused += 1;
            }
            outcome.issued += 1;
        }
        outcome
    }

    /// Flushes the buffer and the mechanism's learned state (context
    /// switch). The page table is left intact — translations survive a
    /// context switch; use [`reset`](Self::reset) for full recycling.
    pub fn flush(&mut self) {
        self.buffer.flush();
        self.prefetcher.flush();
    }

    /// Retags the miss path to `asid` — the flush-free context switch.
    /// The buffer's subsequent fills and the mechanism's tagged rows and
    /// banked registers move to the new context; the page table is
    /// shared across contexts (it is the global translation oracle, and
    /// keeping it untagged is what makes footprints comparable between
    /// flush and ASID switching).
    pub fn set_asid(&mut self, asid: Asid) {
        self.buffer.set_asid(asid);
        self.prefetcher.set_asid(asid);
    }

    /// Drops every buffered entry, tagged row and banked register
    /// belonging to `asid` — the targeted analogue of
    /// [`flush`](Self::flush), used when an ASID slot is recycled. When
    /// the evicted context is the only one that ever ran, this is
    /// exactly a flush (no waste counters move in either path).
    pub fn evict_asid(&mut self, asid: Asid) {
        self.buffer.evict_asid(asid);
        self.prefetcher.evict_asid(asid);
    }

    /// Returns the core to its just-built state so an engine can be
    /// reused for a fresh run: flushes everything and replaces the page
    /// table (frame numbering restarts, making a recycled run
    /// bit-identical to a fresh one).
    pub fn reset(&mut self) {
        self.buffer.flush();
        self.prefetcher.flush();
        self.page_table = PageTable::new();
    }
}

impl std::fmt::Debug for PrefetchCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchCore")
            .field("buffer_capacity", &self.buffer.capacity())
            .field("prefetcher", &self.prefetcher.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_core::{MissContext, Pc};

    #[test]
    fn drive_stream_covers_every_access_in_order() {
        let accesses: Vec<MemoryAccess> = (0..ACCESS_BATCH as u64 * 2 + 37)
            .map(|i| MemoryAccess::read(i, i * 4096))
            .collect();
        let mut scratch = Vec::new();
        let mut seen = Vec::new();
        let mut chunks = 0;
        drive_stream(accesses.iter().copied(), &mut scratch, |chunk| {
            chunks += 1;
            seen.extend_from_slice(chunk);
        });
        assert_eq!(seen, accesses);
        assert_eq!(chunks, 3);
        assert!(scratch.capacity() >= ACCESS_BATCH);
    }

    #[test]
    fn drive_stream_handles_empty_streams() {
        let mut scratch = Vec::new();
        drive_stream(std::iter::empty(), &mut scratch, |_| {
            panic!("no chunk should be produced")
        });
    }

    #[test]
    fn zero_buffer_is_a_config_error() {
        let config = SimConfig::paper_default().with_prefetch_buffer(0);
        assert!(matches!(
            PrefetchCore::new(&config),
            Err(SimError::ZeroPrefetchBuffer)
        ));
    }

    #[test]
    fn observe_and_install_filters_the_missing_page() {
        let mut core = PrefetchCore::new(&SimConfig::paper_default()).unwrap();
        // Sequential-style warm-up so DP predicts page+1 == the page we
        // then mark "missing".
        for page in [10u64, 11, 12] {
            let ctx = MissContext::demand(VirtPage::new(page), Pc::new(0));
            core.observe_and_install(&ctx, true, |_| false);
        }
        let ctx = MissContext::demand(VirtPage::new(13), Pc::new(0));
        let outcome = core.observe_and_install(&ctx, true, |_| false);
        assert_eq!(outcome.issued, 1);
        assert!(core.buffer.contains(VirtPage::new(14)));
    }

    #[test]
    fn reset_restores_fresh_frame_numbering() {
        let mut core = PrefetchCore::new(&SimConfig::paper_default()).unwrap();
        let first = core.translate(VirtPage::new(7)).0;
        core.reset();
        assert_eq!(core.translate(VirtPage::new(99)).0, first);
    }
}
