//! The one miss path every engine shares, and the batched access loop.
//!
//! The paper's evaluation loop (§2, Figure 1) is trigger → predict →
//! filter → install: a TLB miss runs the mechanism, and its surviving
//! candidates are installed somewhere. Every engine runs that loop
//! through this module; only the front (what misses) and the install
//! target differ:
//!
//! * [`Mechanism`] — the mechanism under test and the **one**
//!   [`CandidateBuf`] sink an engine ever allocates. [`Mechanism::observe`]
//!   is the only `on_miss` call in the crate. `CacheEngine`, which fills
//!   predicted lines straight into its cache, holds one directly.
//! * [`PrefetchCore`] — a `Mechanism` plus the prefetch buffer and the
//!   page table. Its [`miss`] method is the functional miss path: `Engine`
//!   runs it against its TLB, the miss-stream sweep against a residency
//!   set replayed from the stream, and `HierarchyEngine` against its
//!   L1/L2 pair. `TimingEngine` keeps its own front (in-flight stalls,
//!   maintenance serialisation) and installs through its prefetch
//!   channel, but owns its buffer, page table and mechanism through a
//!   `PrefetchCore` too.
//! * [`drive_stream`] — chunks an access iterator through a reusable
//!   batch buffer for `Engine::run`, whose TLB-hit fast path then runs
//!   as a tight loop over each slice.
//!
//! [`miss`]: PrefetchCore::miss

use tlbsim_core::{
    Asid, CandidateBuf, MemoryAccess, MissContext, Pc, PhysPage, PrefetcherConfig, TlbPrefetcher,
    VirtPage,
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
/// `Engine::run` is the one caller: its `access_batch` hoists the
/// same-page collapse out of the per-record loop, which pays for the
/// chunk copy. The timing, cache and hierarchy engines do heavy
/// per-access work, gain nothing from the copy, and loop over their
/// streams directly.
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

/// What the functional miss path translates through, fills and asks
/// its candidate filter: the TLB itself, a sweep job's residency set
/// replayed from a recorded miss stream, or the L1/L2 TLB pair.
///
/// Frames are the keys of every question after the walk. The defaults
/// walk the core's page table; a replayed stream answers the pages it
/// recorded with their stream ids instead ("Miss streams" in
/// `docs/DESIGN.md`).
pub(crate) trait Residency {
    /// The frame of `page`, the page that just missed.
    fn missing(&mut self, table: &mut PageTable, page: VirtPage) -> PhysPage {
        table.walk(page).0
    }

    /// The frame of the candidate `page`, and whether this walk mapped
    /// it: a page mapped just now is neither buffered nor resident.
    fn translate(&mut self, table: &mut PageTable, page: VirtPage) -> (PhysPage, bool) {
        table.walk(page)
    }

    /// Installs `page`'s translation as most recently used and returns
    /// the translation of this context it evicted, if any.
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage>;

    /// Whether `page`, mapped to `frame`, is resident, without touching
    /// recency.
    fn contains(&self, page: VirtPage, frame: PhysPage) -> bool;
}

impl Residency for Tlb {
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage> {
        Tlb::fill(self, page, frame).evicted
    }

    fn contains(&self, page: VirtPage, _frame: PhysPage) -> bool {
        Tlb::contains(self, page)
    }
}

/// The mechanism under test and the single reusable candidate sink it
/// fills on every miss.
pub(crate) struct Mechanism {
    pub prefetcher: Box<dyn TlbPrefetcher>,
    sink: CandidateBuf,
}

impl Mechanism {
    /// Builds the mechanism `config` describes.
    pub fn new(config: &PrefetcherConfig) -> Result<Self, SimError> {
        Ok(Mechanism {
            prefetcher: config.build()?,
            sink: CandidateBuf::new(),
        })
    }

    /// Shows the mechanism one miss and returns its candidates, in
    /// priority order, with the maintenance traffic it reported.
    pub fn observe(&mut self, ctx: &MissContext) -> &CandidateBuf {
        self.sink.clear();
        self.prefetcher.on_miss(ctx, &mut self.sink);
        debug_assert_eq!(
            self.sink.overflowed(),
            0,
            "a mechanism overflowed the candidate sink"
        );
        &self.sink
    }
}

/// The engine-shared miss path: prefetch buffer + mechanism + page table.
pub(crate) struct PrefetchCore {
    pub buffer: PrefetchBuffer,
    pub mechanism: Mechanism,
    pub page_table: PageTable,
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
            mechanism: Mechanism::new(&config.prefetcher)?,
            page_table: PageTable::new(),
        })
    }

    /// The functional miss path after a TLB probe missed `page`:
    /// translate it, promote from the buffer or walk, fill `tlb`, run
    /// the mechanism on the miss and install its candidates into the
    /// prefetch buffer, counting all of it into `stats`. Never allocates
    /// in steady state.
    ///
    /// Every page is translated once, through `tlb`, and the buffer and
    /// the residency filter are asked by frame. A candidate is filtered
    /// out when it equals the missing page, or — if `filter_resident` —
    /// when it is already buffered or resident in `tlb`; one the
    /// translation mapped just now is neither, so it skips the residency
    /// probe. Translating before filtering changes neither the frame
    /// numbering nor the footprint: a candidate the filter drops was
    /// issued or missed earlier, so it was mapped already.
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
        // promotes the translation into the TLB, a miss walks.
        let frame = tlb.missing(&mut self.page_table, page);
        let pb_hit = self.buffer.promote_frame(frame);
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
        let sink = self.mechanism.observe(&ctx);
        stats.maintenance_ops += u64::from(sink.maintenance_ops());
        for &candidate in sink.pages() {
            if candidate == page {
                stats.prefetches_filtered += 1;
                continue;
            }
            let (frame, new) = tlb.translate(&mut self.page_table, candidate);
            let entry = self.buffer.entry(frame);
            if filter_resident && (entry.is_buffered() || (!new && tlb.contains(candidate, frame)))
            {
                stats.prefetches_filtered += 1;
                continue;
            }
            if entry.insert(candidate).is_some() {
                stats.prefetches_evicted_unused += 1;
            }
            stats.prefetches_issued += 1;
        }
    }

    /// Flushes the buffer and the mechanism's learned state (context
    /// switch). The page table is left intact — translations survive a
    /// context switch; use [`reset`](Self::reset) for full recycling.
    pub fn flush(&mut self) {
        self.buffer.flush();
        self.mechanism.prefetcher.flush();
    }

    /// Retags the miss path to `asid` — the flush-free context switch.
    /// The buffer's subsequent fills and the mechanism's tagged rows and
    /// banked registers move to the new context; the page table is
    /// shared across contexts (it is the global translation oracle, and
    /// keeping it untagged is what makes footprints comparable between
    /// flush and ASID switching).
    pub fn set_asid(&mut self, asid: Asid) {
        self.buffer.set_asid(asid);
        self.mechanism.prefetcher.set_asid(asid);
    }

    /// Drops every buffered entry, tagged row and banked register
    /// belonging to `asid` — the targeted analogue of
    /// [`flush`](Self::flush), used when an ASID slot is recycled. When
    /// the evicted context is the only one that ever ran, this is
    /// exactly a flush (no waste counters move in either path).
    pub fn evict_asid(&mut self, asid: Asid) {
        self.buffer.evict_asid(asid);
        self.mechanism.prefetcher.evict_asid(asid);
    }

    /// Returns the core to its just-built state so an engine can be
    /// reused for a fresh run: flushes everything and replaces the page
    /// table (frame numbering restarts, making a recycled run
    /// bit-identical to a fresh one).
    pub fn reset(&mut self) {
        self.buffer.flush();
        self.mechanism.prefetcher.flush();
        self.page_table = PageTable::new();
    }
}

impl std::fmt::Debug for PrefetchCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchCore")
            .field("buffer_capacity", &self.buffer.capacity())
            .field("prefetcher", &self.mechanism.prefetcher.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn miss_filters_the_missing_page() {
        let config = SimConfig::paper_default();
        let mut core = PrefetchCore::new(&config).unwrap();
        let mut tlb = Tlb::new(config.tlb).unwrap();
        let mut stats = SimStats::default();
        // Sequential warm-up: DP has learned stride 1 only by the miss
        // on 13, which predicts exactly one page, 14.
        for page in 10u64..=13 {
            core.miss(&mut stats, VirtPage::new(page), Pc::new(0), true, &mut tlb);
        }
        assert!(core.buffer.contains(VirtPage::new(14)));
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.prefetches_issued, 1);
        assert_eq!(stats.prefetches_filtered, 0);
        assert_eq!(
            stats.prefetch_buffer_hits + stats.demand_walks,
            stats.misses
        );
        // The miss on 14 hits the buffer and predicts 15, which is already
        // resident in the TLB: the filter drops it instead of issuing.
        let frame = core.page_table.translate(VirtPage::new(15));
        let _ = tlb.fill(VirtPage::new(15), frame);
        core.miss(&mut stats, VirtPage::new(14), Pc::new(0), true, &mut tlb);
        assert_eq!(stats.prefetch_buffer_hits, 1);
        assert_eq!(stats.prefetches_filtered, 1);
        assert_eq!(stats.prefetches_issued, 1);
        assert!(!core.buffer.contains(VirtPage::new(15)));
    }

    #[test]
    fn reset_restores_fresh_frame_numbering() {
        let mut core = PrefetchCore::new(&SimConfig::paper_default()).unwrap();
        let first = core.page_table.translate(VirtPage::new(7));
        core.reset();
        assert_eq!(core.page_table.translate(VirtPage::new(99)), first);
    }
}
