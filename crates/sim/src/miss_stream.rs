//! Miss streams: the TLB simulated once for a whole sweep.
//!
//! Prefetched translations go to the prefetch buffer, never to the TLB
//! (§2, Figure 1), and [`Tlb::contains`] does not touch recency. So for
//! one TLB geometry and page size, the TLB's contents, and its sequence
//! of misses, are the same under every mechanism. A [`MissStream`]
//! drives one [`Tlb`] over a page-run stream and records each miss as
//! `(page, pc, evicted)`; a sweep then replays only the miss path of
//! every scheme over it ([`Engine::replay_misses`](crate::Engine::replay_misses),
//! [`sweep_misses`](crate::sweep_misses)), with the candidate filter
//! asking a residency set rebuilt from the misses instead of a TLB.
//! The stream numbers every page that misses, and the replay uses those
//! ids as the pages' frames, so a miss walks no page table and a
//! candidate costs one probe of the stream's id map ("Miss streams" in
//! `docs/DESIGN.md`).

use std::collections::HashMap;

use tlbsim_core::{BuildPageHasher, PageRun, PageSize, Pc, PhysPage, VirtPage};
use tlbsim_mmu::{PageTable, Tlb, TlbConfig};

use crate::batch::{PrefetchCore, Residency};
use crate::config::{SimConfig, SimError};
use crate::stats::SimStats;

/// Misses per chunk of a recorded stream (16 KiB).
const MISS_CHUNK: usize = 1024;

/// The `evicted` id of a miss whose fill evicted nothing.
const NO_VICTIM: u32 = u32::MAX;

/// One recorded TLB miss, 16 bytes: the missing page and the victim of
/// its fill as ids into the stream's page list.
#[derive(Clone, Copy)]
struct TlbMiss {
    pc: Pc,
    page: u32,
    evicted: u32,
}

/// The TLB misses of one single-context page-run stream, recorded once
/// and replayable under any mechanism, buffer size and filter setting
/// that share the stream's TLB geometry and page size.
///
/// Runs are fed in stream order through
/// [`push_runs`](MissStream::push_runs), in batches cut anywhere. The
/// stream has no context switches, flushes or ASIDs: those stay on
/// [`Engine`](crate::Engine).
///
/// # Examples
///
/// ```
/// use tlbsim_core::PageRun;
/// use tlbsim_sim::{run_app, Engine, MissStream, SimConfig};
/// use tlbsim_workloads::{find_app, Scale};
///
/// let app = find_app("gap").expect("registered");
/// let config = SimConfig::paper_default();
/// let mut misses = MissStream::new(config.tlb, config.page_size)?;
/// let mut workload = app.workload(Scale::TINY);
/// let mut runs = vec![PageRun::default(); 1024];
/// loop {
///     let (n, _) = workload.fill_runs(config.page_size, &mut runs, u64::MAX);
///     if n == 0 {
///         break;
///     }
///     misses.push_runs(&runs[..n]);
/// }
/// let mut engine = Engine::new(&config)?;
/// let stats = engine.replay_misses(&misses)?;
/// assert_eq!(stats, &run_app(app, Scale::TINY, &config)?);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub struct MissStream {
    tlb: Tlb,
    page_size: PageSize,
    accesses: u64,
    /// Page of the last run pushed: resident and most recently used, so
    /// a following run on it would hit without changing anything.
    last: Option<VirtPage>,
    /// Every page that ever missed, in first-miss order; a page's index
    /// here is its id.
    pages: Vec<VirtPage>,
    /// The id of each page in `pages`.
    ids: HashMap<VirtPage, u32, BuildPageHasher>,
    /// Recorded misses, in chunks allocated at their final size.
    chunks: Vec<Vec<TlbMiss>>,
}

impl MissStream {
    /// An empty stream for a TLB of geometry `tlb` and pages of
    /// `page_size`.
    ///
    /// # Errors
    ///
    /// [`SimError::Geometry`] for an invalid TLB geometry.
    pub fn new(tlb: TlbConfig, page_size: PageSize) -> Result<Self, SimError> {
        Ok(MissStream {
            tlb: Tlb::new(tlb)?,
            page_size,
            accesses: 0,
            last: None,
            pages: Vec::new(),
            ids: HashMap::default(),
            chunks: Vec::new(),
        })
    }

    /// Appends page runs collapsed at the stream's page size: the lookup
    /// and fill loop of [`Engine::access_runs`](crate::Engine::access_runs),
    /// recording each miss instead of running a mechanism on it. Runs
    /// need not be maximal.
    pub fn push_runs(&mut self, runs: &[PageRun]) {
        for run in runs {
            debug_assert!(run.len > 0, "a page run holds at least one reference");
            self.accesses += u64::from(run.len);
            if self.last == Some(run.page) {
                continue;
            }
            self.last = Some(run.page);
            if self.tlb.lookup(run.page).is_some() {
                continue;
            }
            // No mechanism reads the stream's frames; any will do.
            let evicted = self.tlb.fill(run.page, PhysPage::new(0)).evicted;
            let miss = TlbMiss {
                pc: run.pc,
                page: self.id_of(run.page),
                // Only this stream fills its TLB, so a victim has an id.
                evicted: evicted.map_or(NO_VICTIM, |victim| self.ids[&victim]),
            };
            match self.chunks.last_mut() {
                Some(chunk) if chunk.len() < MISS_CHUNK => chunk.push(miss),
                _ => {
                    let mut chunk = Vec::with_capacity(MISS_CHUNK);
                    chunk.push(miss);
                    self.chunks.push(chunk);
                }
            }
        }
    }

    /// The id of `page`, assigning the next one on its first miss.
    fn id_of(&mut self, page: VirtPage) -> u32 {
        let next = self.pages.len();
        *self.ids.entry(page).or_insert_with(|| {
            assert!(
                next < NO_VICTIM as usize,
                "a miss stream holds < 2^32 - 1 pages"
            );
            self.pages.push(page);
            next as u32
        })
    }

    /// Pages that missed so far: the replay's frames below this are
    /// their ids.
    pub(crate) fn pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// References pushed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// TLB misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.chunks.iter().map(|chunk| chunk.len() as u64).sum()
    }

    /// Rejects a configuration whose TLB geometry or page size differs
    /// from the stream's: its TLB would have missed differently.
    pub(crate) fn check(&self, config: &SimConfig) -> Result<(), SimError> {
        let tlb = self.tlb.config();
        if config.tlb == tlb && config.page_size == self.page_size {
            return Ok(());
        }
        Err(SimError::MissStreamMismatch {
            stream: (tlb, self.page_size),
            config: (config.tlb, config.page_size),
        })
    }

    /// Runs every recorded miss through [`PrefetchCore::miss`], with the
    /// filter asking `resident`: one bit per page id, rebuilt from the
    /// misses (each sets its page and clears its victim) from empty, as
    /// the stream's TLB started. A page that ever misses translates to
    /// its id; the core's page table maps only the pages that never
    /// miss, numbered after the stream's. Never allocates once
    /// `resident` has grown to the stream's page count.
    pub(crate) fn replay(
        &self,
        core: &mut PrefetchCore,
        stats: &mut SimStats,
        filter_resident: bool,
        resident: &mut Vec<u64>,
    ) {
        resident.clear();
        resident.resize(self.pages.len().div_ceil(64), 0);
        for &miss in self.chunks.iter().flatten() {
            let page = self.pages[miss.page as usize];
            let mut tlb = Replayed {
                stream: self,
                resident,
                miss,
            };
            core.miss(stats, page, miss.pc, filter_resident, &mut tlb);
        }
    }
}

impl std::fmt::Debug for MissStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MissStream")
            .field("tlb", &self.tlb.config())
            .field("page_size", &self.page_size)
            .field("accesses", &self.accesses)
            .field("misses", &self.misses())
            .finish()
    }
}

/// A replaying job's view of the stream's TLB at one miss: the resident
/// page ids as bits, and the miss whose fill comes next. Its frames are
/// the stream's page ids.
struct Replayed<'a> {
    stream: &'a MissStream,
    resident: &'a mut [u64],
    miss: TlbMiss,
}

impl Residency for Replayed<'_> {
    fn missing(&mut self, _table: &mut PageTable, _page: VirtPage) -> PhysPage {
        PhysPage::new(u64::from(self.miss.page))
    }

    fn translate(&mut self, table: &mut PageTable, page: VirtPage) -> (PhysPage, bool) {
        if let Some(&id) = self.stream.ids.get(&page) {
            return (PhysPage::new(u64::from(id)), false);
        }
        let (frame, new) = table.walk(page);
        (PhysPage::new(self.stream.pages() + frame.number()), new)
    }

    fn fill(&mut self, _page: VirtPage, _frame: PhysPage) -> Option<VirtPage> {
        let page = self.miss.page as usize;
        self.resident[page / 64] |= 1 << (page % 64);
        if self.miss.evicted == NO_VICTIM {
            return None;
        }
        let victim = self.miss.evicted as usize;
        self.resident[victim / 64] &= !(1 << (victim % 64));
        Some(self.stream.pages[victim])
    }

    fn contains(&self, _page: VirtPage, frame: PhysPage) -> bool {
        // Frames past the stream's ids are pages that never miss.
        let id = frame.number();
        id < self.stream.pages() && self.resident[id as usize / 64] & (1 << (id % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(page: u64, len: u32) -> PageRun {
        PageRun {
            pc: Pc::new(0x40),
            page: VirtPage::new(page),
            len,
        }
    }

    #[test]
    fn records_cold_and_capacity_misses_with_their_victims() {
        let mut stream = MissStream::new(TlbConfig::fully_associative(2), PageSize::DEFAULT)
            .expect("valid geometry");
        // 1, 2 cold; 1 hits; 3 evicts 2 (LRU); a run on the last page is
        // skipped even across calls.
        stream.push_runs(&[run(1, 3), run(2, 1), run(1, 2)]);
        stream.push_runs(&[run(1, 1), run(3, 4), run(3, 1)]);
        let misses: Vec<_> = stream
            .chunks
            .iter()
            .flatten()
            .map(|m| (m.page, m.evicted))
            .collect();
        assert_eq!(misses, [(0, NO_VICTIM), (1, NO_VICTIM), (2, 1)]);
        assert_eq!(stream.pages, [1, 2, 3].map(VirtPage::new));
        assert_eq!(stream.accesses(), 12);
        assert_eq!(stream.misses(), 3);
        assert_eq!(std::mem::size_of::<TlbMiss>(), 16);
    }

    #[test]
    fn chunks_are_allocated_at_their_final_size() {
        let mut stream =
            MissStream::new(TlbConfig::paper_default(), PageSize::DEFAULT).expect("valid geometry");
        let runs: Vec<PageRun> = (0..MISS_CHUNK as u64 * 2 + 5).map(|p| run(p, 1)).collect();
        stream.push_runs(&runs);
        assert_eq!(stream.chunks.len(), 3);
        assert!(stream.chunks.iter().all(|c| c.capacity() == MISS_CHUNK));
        assert_eq!(stream.misses(), runs.len() as u64);
    }
}
