//! The functional simulation engine.
//!
//! Implements the paper's evaluation loop exactly (§2, Figure 1): every
//! data reference is looked up in the TLB; on a miss the prefetch buffer
//! is checked concurrently, the translation is installed in the TLB
//! (promoting from the buffer or walking the page table), and the
//! prefetching mechanism observes the miss and requests prefetches into
//! the buffer. Prefetches complete instantly here — this engine measures
//! *prediction accuracy*; the cycle-level consequences live in
//! [`crate::TimingEngine`].
//!
//! ## Page runs, and the allocation-free loop
//!
//! The unit of simulation is the [`PageRun`]: consecutive references
//! to one page. [`access_runs`](Engine::access_runs) probes the TLB
//! once per run, and the miss path runs through the shared
//! [`PrefetchCore`](crate::batch) — one engine-owned `CandidateBuf`,
//! zero heap allocations per miss once the working set is warm
//! (enforced by the `zero_alloc` integration test).
//! [`Engine::run_workload`] streams a workload as runs via
//! `Workload::fill_runs` through an engine-owned run buffer, without
//! ever materialising the reference stream. The decode-once grid
//! replay records its runs' TLB misses once in a [`MissStream`] and
//! gives each scheme only the miss path,
//! [`replay_misses`](Engine::replay_misses). Record slices go through
//! [`access_batch`](Engine::access_batch), which collapses same-page
//! references on the fly; [`Engine::run`] chunks arbitrary iterators
//! into it. Per-record [`Engine::access`] is the oracle for both.

use std::collections::HashSet;

use tlbsim_core::{Asid, BuildPageHasher, MemoryAccess, PageRun, Pc, VirtPage};
use tlbsim_mmu::{PageTable, Tlb};
use tlbsim_workloads::Workload;

use crate::batch::{drive_stream, PrefetchCore, ACCESS_BATCH};
use crate::config::{SimConfig, SimError};
use crate::miss_stream::MissStream;
use crate::stats::SimStats;

/// A set of distinct pages (one stream's attributed demand footprint).
pub(crate) type PageSet = HashSet<VirtPage, BuildPageHasher>;

/// A functional TLB-prefetching simulator.
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_sim::{Engine, SimConfig};
///
/// let mut engine = Engine::new(&SimConfig::paper_default())?;
/// // A long sequential walk: distance prefetching converges to ~100%.
/// engine.run((0..200_000u64).map(|i| MemoryAccess::read(0x40, i / 8 * 4096)));
/// assert!(engine.stats().accuracy() > 0.9);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub struct Engine {
    tlb: Tlb,
    core: PrefetchCore,
    config: SimConfig,
    stats: SimStats,
    batch: Vec<MemoryAccess>,
    /// Run buffer of [`Engine::run_workload_limit`], sized on first use.
    runs: Vec<PageRun>,
    /// Stream index demand-missed pages are attributed to (mix runners
    /// set this per segment; `None` — the single-stream default — skips
    /// attribution entirely).
    current_stream: Option<usize>,
    /// Per-stream sets of demand-missed pages, indexed by stream. Grown
    /// only by [`attribute_to`](Engine::attribute_to), never on the
    /// miss path; re-inserting an already-recorded page (the steady
    /// state) does not allocate.
    stream_pages: Vec<PageSet>,
    /// The recorded TLB's resident page ids during
    /// [`replay_misses`](Engine::replay_misses), one bit each; sized on
    /// first use.
    replayed: Vec<u64>,
    /// Pages of the stream [`replay_misses`](Engine::replay_misses)
    /// last replayed: they are numbered by the stream, so the page table
    /// maps only the rest (0 outside replays).
    stream_pages_mapped: u64,
}

impl Engine {
    /// Builds an engine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the TLB, buffer or prefetcher
    /// configuration is invalid; a zero-entry prefetch buffer is
    /// rejected as [`SimError::ZeroPrefetchBuffer`].
    pub fn new(config: &SimConfig) -> Result<Self, SimError> {
        Ok(Engine {
            tlb: Tlb::new(config.tlb)?,
            core: PrefetchCore::new(config)?,
            config: config.clone(),
            stats: SimStats::default(),
            batch: Vec::new(),
            runs: Vec::new(),
            current_stream: None,
            stream_pages: Vec::new(),
            replayed: Vec::new(),
            stream_pages_mapped: 0,
        })
    }

    /// Attempts to reuse this engine for a fresh run under `config`.
    ///
    /// Succeeds when the configuration matches the one the engine was
    /// built with: all translation, prediction and statistics state is
    /// reset (the batch and run buffers keep their allocations), making
    /// the recycled engine observationally identical to a newly built
    /// one.
    /// Returns `false` — leaving the engine untouched — on a
    /// configuration mismatch.
    pub fn try_recycle(&mut self, config: &SimConfig) -> bool {
        if self.config != *config {
            return false;
        }
        self.tlb.flush();
        self.core.reset();
        // Flush clears entries of every context but leaves the tag
        // registers; rewind them (and drop the attribution state) so a
        // recycled engine is indistinguishable from a fresh one.
        self.tlb.set_asid(Asid::DEFAULT);
        self.core.set_asid(Asid::DEFAULT);
        self.current_stream = None;
        self.stream_pages.clear();
        self.stream_pages_mapped = 0;
        self.stats = SimStats::default();
        true
    }

    /// Simulates one data reference.
    pub fn access(&mut self, access: &MemoryAccess) {
        self.stats.accesses += 1;
        let page = self.config.page_size.page_of(access.vaddr);
        if self.tlb.lookup(page).is_some() {
            return;
        }
        self.miss(page, access.pc);
    }

    /// Simulates a batch of references with the TLB-hit fast path.
    ///
    /// A reference to the page the previous reference of this batch
    /// looked up or filled skips the TLB probe: that page is already
    /// resident and most recently used, so the hit would change
    /// nothing, and no mechanism observes hits. The remembered page
    /// starts empty on every call because context switches, ASID
    /// changes and recycling happen between calls. Statistics equal
    /// per-record [`Engine::access`] exactly ("Replay hit path" in
    /// `docs/DESIGN.md`).
    pub fn access_batch(&mut self, batch: &[MemoryAccess]) {
        self.stats.accesses += batch.len() as u64;
        let page_size = self.config.page_size;
        let mut last = None;
        for access in batch {
            let page = page_size.page_of(access.vaddr);
            if last == Some(page) {
                continue;
            }
            last = Some(page);
            if self.tlb.lookup(page).is_some() {
                continue;
            }
            self.miss(page, access.pc);
        }
    }

    /// Simulates a slice of page runs: the engine's unit of work.
    ///
    /// Each run adds its `len` to the access count. A run on the page
    /// of the previous run of this call is skipped; any other run takes
    /// one TLB lookup and, on a miss, the miss path with the run's
    /// first PC. The remembered page starts empty on every call, the
    /// same rule as [`access_batch`](Engine::access_batch), so runs need
    /// not be maximal: a stream cut into runs at any points, and into
    /// calls at any runs, gives the statistics of per-record
    /// [`Engine::access`] exactly ("Page runs" in `docs/DESIGN.md`).
    pub fn access_runs(&mut self, runs: &[PageRun]) {
        let mut accesses = 0u64;
        let mut last = None;
        for run in runs {
            debug_assert!(run.len > 0, "a page run holds at least one reference");
            accesses += u64::from(run.len);
            if last == Some(run.page) {
                continue;
            }
            last = Some(run.page);
            if self.tlb.lookup(run.page).is_some() {
                continue;
            }
            self.miss(run.page, run.pc);
        }
        self.stats.accesses += accesses;
    }

    /// The miss path: attribution, then `PrefetchCore::miss` against the
    /// engine's TLB. Never allocates in steady state.
    fn miss(&mut self, page: VirtPage, pc: Pc) {
        if let Some(stream) = self.current_stream {
            // Every page a stream references demand-misses at least once
            // while attributed (shard/segment starts are cold or the
            // page already missed for this stream earlier), so the set
            // converges to the stream's demand footprint.
            self.stream_pages[stream].insert(page);
        }
        self.core.miss(
            &mut self.stats,
            page,
            pc,
            self.config.filter_prefetches,
            &mut self.tlb,
        );
    }

    /// Replays a recorded [`MissStream`] under this engine's mechanism,
    /// buffer and filter setting, and returns the statistics: on a fresh
    /// or recycled engine, exactly those of
    /// [`access_runs`](Engine::access_runs) over the runs the stream
    /// recorded.
    ///
    /// Each miss takes the miss path of [`access_runs`](Engine::access_runs)
    /// with no TLB probe. The
    /// candidate filter asks a residency set rebuilt from the recorded
    /// misses (each inserts its page and removes its victim), which
    /// starts empty as the stream's TLB did; the engine's own TLB is
    /// neither probed nor filled. Per-stream attribution does not apply.
    /// The stream's page ids are the replay's frames, so replay onto a
    /// fresh or recycled engine, or one that has only replayed this
    /// stream since. Never allocates in steady state ("Miss streams" in
    /// `docs/DESIGN.md`).
    ///
    /// # Errors
    ///
    /// [`SimError::MissStreamMismatch`] when the stream was recorded
    /// under another TLB geometry or page size than this engine's.
    pub fn replay_misses(&mut self, stream: &MissStream) -> Result<&SimStats, SimError> {
        stream.check(&self.config)?;
        stream.replay(
            &mut self.core,
            &mut self.stats,
            self.config.filter_prefetches,
            &mut self.replayed,
        );
        self.stream_pages_mapped = stream.pages();
        self.stats.accesses += stream.accesses();
        Ok(self.finish())
    }

    /// Simulates an entire reference stream and returns the final
    /// statistics.
    ///
    /// The stream is chunked through a reusable internal batch buffer,
    /// so arbitrarily long streams cost one buffer allocation per engine
    /// lifetime.
    pub fn run(&mut self, stream: impl IntoIterator<Item = MemoryAccess>) -> &SimStats {
        let mut batch = std::mem::take(&mut self.batch);
        drive_stream(stream, &mut batch, |chunk| self.access_batch(chunk));
        self.batch = batch;
        self.finish()
    }

    /// Streams a whole workload through the engine as page runs; the
    /// same as [`run_workload_limit`](Engine::run_workload_limit) with
    /// no limit.
    pub fn run_workload(&mut self, workload: &mut Workload) -> &SimStats {
        self.run_workload_limit(workload, u64::MAX)
    }

    /// Streams at most `limit` accesses of a workload through the
    /// engine: [`Workload::fill_runs`] at the engine's page size into an
    /// engine-owned run buffer, then [`access_runs`](Engine::access_runs).
    ///
    /// This is the shard entry point: a worker that owns the time slice
    /// `[start, start + limit)` of a partitioned run positions its
    /// workload with [`Workload::skip_accesses`] and then consumes
    /// exactly its slice here. Processing is cut-invariant, so driving
    /// a stream through consecutive limited calls is bit-identical to
    /// one [`Engine::run_workload`].
    pub fn run_workload_limit(&mut self, workload: &mut Workload, limit: u64) -> &SimStats {
        let mut runs = std::mem::take(&mut self.runs);
        if runs.len() < ACCESS_BATCH {
            runs.resize(ACCESS_BATCH, PageRun::default());
        }
        let page_size = self.config.page_size;
        let mut remaining = limit;
        while remaining > 0 {
            let (filled, accesses) = workload.fill_runs(page_size, &mut runs, remaining);
            if accesses == 0 {
                break;
            }
            self.access_runs(&runs[..filled]);
            remaining -= accesses;
        }
        self.runs = runs;
        self.finish()
    }

    /// Simulates a stream, flushing all translation and prediction state
    /// every `interval` accesses — the multiprogrammed context-switch
    /// mode (§4 lists flushing the prefetch tables as ongoing work).
    pub fn run_with_flush_interval(
        &mut self,
        stream: impl IntoIterator<Item = MemoryAccess>,
        interval: u64,
    ) -> &SimStats {
        assert!(interval > 0, "flush interval must be positive");
        let mut since_flush = 0u64;
        for access in stream {
            self.access(&access);
            since_flush += 1;
            if since_flush == interval {
                self.context_switch();
                since_flush = 0;
            }
        }
        self.finish()
    }

    /// Flushes the TLB, the prefetch buffer and the prefetcher's learned
    /// state, as a context switch would.
    pub fn context_switch(&mut self) {
        self.tlb.flush();
        self.core.flush();
    }

    /// Retags the whole machine — TLB, prefetch buffer, prediction
    /// tables and banked registers — to `asid`: the flush-free context
    /// switch. Entries of other contexts stay resident (competing for
    /// capacity) but invisible, and the shared page table keeps
    /// translating for everyone.
    ///
    /// Growing a mechanism's register bank may allocate; switches are
    /// off the per-access hot path, and re-activating a context that
    /// already ran does not allocate (pinned by the `zero_alloc` test).
    pub fn set_asid(&mut self, asid: Asid) {
        self.tlb.set_asid(asid);
        self.core.set_asid(asid);
    }

    /// Drops every TLB entry, buffered prefetch, tagged table row and
    /// banked register belonging to `asid` — what recycling an ASID slot
    /// for a new tenant does. Targets one context where
    /// [`context_switch`](Engine::context_switch) drops all of them;
    /// when the evicted context is the only one that ever ran, the two
    /// leave bit-identical machine state (the degeneration rule the
    /// flush-oracle tests pin).
    pub fn evict_asid(&mut self, asid: Asid) {
        self.tlb.evict_asid(asid);
        self.core.evict_asid(asid);
    }

    /// Directs per-stream footprint attribution: until the next call,
    /// demand-missed pages are recorded against stream `stream`. Grows
    /// the per-stream set vector on first sight of an index — switch
    /// time, not miss time.
    pub fn attribute_to(&mut self, stream: usize) {
        if self.stream_pages.len() <= stream {
            self.stream_pages.resize_with(stream + 1, HashSet::default);
        }
        self.current_stream = Some(stream);
    }

    /// Distinct pages recorded for `stream` by attribution (0 for a
    /// stream that never ran attributed).
    pub fn stream_footprint(&self, stream: usize) -> u64 {
        self.stream_pages.get(stream).map_or(0, |s| s.len() as u64)
    }

    /// Refreshes derived counters and returns the statistics — called by
    /// the `run*` entry points and by external batch drivers (the sweep
    /// runner) once a stream is exhausted.
    pub fn finish(&mut self) -> &SimStats {
        // After a replay every stream page has been walked or promoted.
        self.stats.footprint_pages = self.stream_pages_mapped + self.core.page_table.len() as u64;
        &self.stats
    }

    /// Statistics so far (footprint is refreshed on [`Engine::run`] /
    /// [`Engine::finish`] completion).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Translations still sitting in the prefetch buffer — prefetches
    /// that were issued but never promoted by a reference.
    ///
    /// At the end of a shard's time slice these are the in-flight
    /// entries a sequential run might still have used later; the sharded
    /// runner reports their sum as the boundary-reconciliation counter
    /// (see `ShardedRun::boundary_resident_prefetches`).
    pub fn resident_prefetches(&self) -> u64 {
        self.core.buffer.len() as u64
    }

    /// Consumes the engine into its finished statistics and its page
    /// sets, moved rather than copied: the page table (every page the
    /// run touched, demand or prefetch — the set whose size
    /// [`SimStats::footprint_pages`] reports) and the per-stream
    /// attribution sets. The sharded runners union these across shards.
    pub(crate) fn into_page_sets(mut self) -> (SimStats, PageTable, Vec<PageSet>) {
        self.finish();
        (self.stats, self.core.page_table, self.stream_pages)
    }

    /// The configuration this engine was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_core::PrefetcherConfig;
    use tlbsim_mmu::TlbConfig;

    fn seq_stream(pages: u64, refs_per_page: u64) -> impl Iterator<Item = MemoryAccess> {
        (0..pages * refs_per_page).map(move |i| MemoryAccess::read(0x40, i / refs_per_page * 4096))
    }

    #[test]
    fn no_prefetcher_never_hits_buffer() {
        let mut e = Engine::new(&SimConfig::baseline()).unwrap();
        e.run(seq_stream(1000, 4));
        assert_eq!(e.stats().prefetch_buffer_hits, 0);
        assert_eq!(e.stats().prefetches_issued, 0);
        assert_eq!(e.stats().misses, 1000);
        assert_eq!(e.stats().demand_walks, 1000);
    }

    #[test]
    fn miss_count_is_independent_of_prefetching() {
        // Prefetching can never increase (or decrease) raw TLB misses.
        let mut base = Engine::new(&SimConfig::baseline()).unwrap();
        base.run(seq_stream(2000, 3));
        for cfg in [
            PrefetcherConfig::sequential(),
            PrefetcherConfig::stride(),
            PrefetcherConfig::markov(),
            PrefetcherConfig::recency(),
            PrefetcherConfig::distance(),
        ] {
            let mut e = Engine::new(&SimConfig::paper_default().with_prefetcher(cfg)).unwrap();
            e.run(seq_stream(2000, 3));
            assert_eq!(e.stats().misses, base.stats().misses);
        }
    }

    #[test]
    fn sequential_prefetcher_covers_sequential_walk() {
        let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::sequential());
        let mut e = Engine::new(&cfg).unwrap();
        e.run(seq_stream(5000, 4));
        // Every miss after the first is covered by the +1 prefetch.
        assert!(e.stats().accuracy() > 0.99);
    }

    #[test]
    fn distance_prefetcher_learns_sequential_walk() {
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        e.run(seq_stream(5000, 4));
        assert!(e.stats().accuracy() > 0.99, "{}", e.stats());
    }

    #[test]
    fn buffer_hits_plus_walks_equal_misses() {
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        e.run(seq_stream(3000, 2));
        let s = e.stats();
        assert_eq!(s.prefetch_buffer_hits + s.demand_walks, s.misses);
    }

    #[test]
    fn footprint_includes_prefetched_pages() {
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        e.run(seq_stream(100, 2));
        assert!(e.stats().footprint_pages >= 100);
    }

    #[test]
    fn recency_counts_maintenance_traffic() {
        let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::recency());
        let mut e = Engine::new(&cfg).unwrap();
        // Working set of 200 > 128 TLB entries, revisited: evictions and
        // stack updates happen continuously.
        let stream = (0..40_000u64).map(|i| MemoryAccess::read(0x40, (i % 200) * 4096));
        e.run(stream);
        assert!(e.stats().maintenance_ops > 0);
        assert!(e.stats().memory_ops_per_miss() > 1.0);
    }

    #[test]
    fn distance_prefetcher_has_no_maintenance_traffic() {
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        e.run(seq_stream(2000, 2));
        assert_eq!(e.stats().maintenance_ops, 0);
    }

    #[test]
    fn context_switch_flush_costs_accuracy() {
        let stream: Vec<MemoryAccess> = seq_stream(4000, 4).collect();
        let mut plain = Engine::new(&SimConfig::paper_default()).unwrap();
        plain.run(stream.clone());
        let mut flushed = Engine::new(&SimConfig::paper_default()).unwrap();
        flushed.run_with_flush_interval(stream, 1000);
        assert!(flushed.stats().accuracy() <= plain.stats().accuracy());
        assert!(flushed.stats().misses >= plain.stats().misses);
    }

    #[test]
    fn small_tlb_misses_more() {
        let small = SimConfig::baseline().with_tlb(TlbConfig::fully_associative(16));
        let mut small_e = Engine::new(&small).unwrap();
        // Working set of 64 pages cycled repeatedly.
        let stream: Vec<MemoryAccess> = (0..20_000u64)
            .map(|i| MemoryAccess::read(0, (i % 64) * 4096))
            .collect();
        small_e.run(stream.clone());
        let mut big_e = Engine::new(&SimConfig::baseline()).unwrap();
        big_e.run(stream);
        assert!(small_e.stats().misses > big_e.stats().misses);
        // 64 pages fit in 128 entries: only cold misses for the big TLB.
        assert_eq!(big_e.stats().misses, 64);
    }

    #[test]
    fn zero_buffer_configuration_is_rejected() {
        let err = Engine::new(&SimConfig::paper_default().with_prefetch_buffer(0)).unwrap_err();
        assert!(matches!(err, SimError::ZeroPrefetchBuffer));
        assert!(err.to_string().contains("prefetch buffer"));
    }

    #[test]
    fn per_access_and_batched_paths_agree() {
        let stream: Vec<MemoryAccess> = seq_stream(700, 3)
            .chain((0..5_000u64).map(|i| MemoryAccess::read(0x44, (i % 331) * 13 * 4096)))
            .collect();
        let mut one_by_one = Engine::new(&SimConfig::paper_default()).unwrap();
        for access in &stream {
            one_by_one.access(access);
        }
        one_by_one.finish();
        let mut batched = Engine::new(&SimConfig::paper_default()).unwrap();
        batched.run(stream.iter().copied());
        assert_eq!(one_by_one.stats(), batched.stats());
    }

    #[test]
    fn run_workload_limit_full_length_matches_run_workload() {
        let app = tlbsim_workloads::find_app("gap").unwrap();
        let scale = tlbsim_workloads::Scale::TINY;
        let mut whole = Engine::new(&SimConfig::paper_default()).unwrap();
        whole.run_workload(&mut app.workload(scale));

        let mut limited = Engine::new(&SimConfig::paper_default()).unwrap();
        limited.run_workload_limit(&mut app.workload(scale), app.stream_len(scale));
        assert_eq!(whole.stats(), limited.stats());
    }

    #[test]
    fn run_workload_limit_stops_exactly_at_the_limit() {
        let app = tlbsim_workloads::find_app("gap").unwrap();
        let mut engine = Engine::new(&SimConfig::paper_default()).unwrap();
        // A limit that is not a multiple of the internal batch size.
        engine.run_workload_limit(&mut app.workload(tlbsim_workloads::Scale::TINY), 5000 + 7);
        assert_eq!(engine.stats().accesses, 5007);
    }

    #[test]
    fn segmented_limited_runs_match_one_continuous_run() {
        // Driving one engine through consecutive limited segments of the
        // same workload must equal a single run_workload call — the
        // chunk-size invariance the sharded executor relies on.
        let app = tlbsim_workloads::find_app("mcf").unwrap();
        let scale = tlbsim_workloads::Scale::TINY;
        let mut whole = Engine::new(&SimConfig::paper_default()).unwrap();
        whole.run_workload(&mut app.workload(scale));

        let mut segmented = Engine::new(&SimConfig::paper_default()).unwrap();
        let mut workload = app.workload(scale);
        loop {
            let before = segmented.stats().accesses;
            segmented.run_workload_limit(&mut workload, 1777);
            if segmented.stats().accesses == before {
                break;
            }
        }
        assert_eq!(whole.stats(), segmented.stats());
    }

    #[test]
    fn resident_prefetches_tracks_the_buffer() {
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        assert_eq!(e.resident_prefetches(), 0);
        e.run(seq_stream(1000, 2));
        // A sequential walk leaves the last prediction(s) unused in the
        // buffer.
        assert!(e.resident_prefetches() > 0);
        assert!(e.resident_prefetches() <= 16);
    }

    #[test]
    fn footprint_counts_each_touched_page_once() {
        // Demand only: a revisited page is one footprint page.
        let mut e = Engine::new(&SimConfig::baseline()).unwrap();
        e.run(seq_stream(500, 2).chain(seq_stream(200, 3)));
        assert_eq!(e.stats().footprint_pages, 500);
        // Prefetched pages join the footprint, once each.
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        e.run(seq_stream(500, 2).chain(seq_stream(500, 2)));
        let once = e.stats().footprint_pages;
        assert!(once >= 500, "{once}");
        e.run(seq_stream(500, 2));
        assert_eq!(e.stats().footprint_pages, once);
        let (stats, pages, _) = e.into_page_sets();
        assert_eq!(pages.len() as u64, stats.footprint_pages);
    }

    #[test]
    fn recycled_engine_matches_fresh_engine() {
        let stream: Vec<MemoryAccess> = seq_stream(1500, 2).collect();
        let mut engine = Engine::new(&SimConfig::paper_default()).unwrap();
        engine.run(stream.iter().copied());
        let dirty = engine.stats().clone();

        assert!(engine.try_recycle(&SimConfig::paper_default()));
        engine.run(stream.iter().copied());
        assert_eq!(engine.stats(), &dirty, "recycled run must be bit-identical");

        assert!(
            !engine.try_recycle(&SimConfig::baseline()),
            "config mismatch must refuse recycling"
        );
    }

    #[test]
    fn recycled_engine_replays_a_miss_stream_from_an_empty_tlb() {
        // The stream ends on the pages it starts on: residency left over
        // from the previous replay would filter SP's first prefetches.
        let config = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::sequential());
        let runs: Vec<PageRun> = (0..128u64)
            .chain(1000..1300)
            .chain(0..128)
            .map(|page| PageRun {
                pc: Pc::new(0x40),
                page: VirtPage::new(page),
                len: 2,
            })
            .collect();
        let mut misses = MissStream::new(config.tlb, config.page_size).unwrap();
        misses.push_runs(&runs);
        let mut direct = Engine::new(&config).unwrap();
        direct.access_runs(&runs);
        let expected = direct.finish().clone();

        let mut engine = Engine::new(&config).unwrap();
        assert_eq!(engine.replay_misses(&misses).unwrap(), &expected);
        assert!(engine.try_recycle(&config));
        assert_eq!(engine.replay_misses(&misses).unwrap(), &expected);
    }

    #[test]
    fn asid_switch_preserves_each_contexts_machine_state() {
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        let lap = |e: &mut Engine, base: u64| {
            for page in 0..32u64 {
                e.access(&MemoryAccess::read(0x40, (base + page) * 4096));
            }
        };
        lap(&mut e, 0); // context 0 warms pages 0..32
        let before = e.stats().misses;
        e.set_asid(Asid::new(1));
        lap(&mut e, 1000); // context 1: all cold, its own misses
        e.set_asid(Asid::DEFAULT);
        let after_switch_back = e.stats().misses;
        lap(&mut e, 0); // context 0's entries survived the excursion
        assert_eq!(
            e.stats().misses,
            after_switch_back,
            "context 0 must hit on its preserved translations"
        );
        assert!(e.stats().misses > before, "context 1 missed cold");
    }

    #[test]
    fn evicting_the_sole_context_equals_a_context_switch() {
        let stream: Vec<MemoryAccess> = seq_stream(300, 2).collect();
        let mut flushed = Engine::new(&SimConfig::paper_default()).unwrap();
        flushed.run(stream.iter().copied());
        flushed.context_switch();
        flushed.run(stream.iter().copied());

        let mut evicted = Engine::new(&SimConfig::paper_default()).unwrap();
        evicted.run(stream.iter().copied());
        evicted.evict_asid(Asid::DEFAULT);
        evicted.run(stream.iter().copied());

        assert_eq!(flushed.stats(), evicted.stats());
    }

    #[test]
    fn attribution_records_demand_footprints_per_stream() {
        let mut e = Engine::new(&SimConfig::baseline()).unwrap();
        e.attribute_to(0);
        for page in 0..50u64 {
            e.access(&MemoryAccess::read(0, page * 4096));
        }
        e.attribute_to(1);
        for page in 500..530u64 {
            e.access(&MemoryAccess::read(0, page * 4096));
        }
        assert_eq!(e.stream_footprint(0), 50);
        assert_eq!(e.stream_footprint(1), 30);
        assert_eq!(e.stream_footprint(7), 0, "unknown streams report zero");
        // A stream's demand misses on pages it already recorded (after a
        // flush) do not grow its footprint.
        e.context_switch();
        for page in 510..540u64 {
            e.access(&MemoryAccess::read(0, page * 4096));
        }
        assert_eq!(e.stream_footprint(1), 40);
        assert_eq!(e.stream_footprint(0), 50);
    }

    #[test]
    fn recycling_resets_asid_and_attribution_state() {
        let stream: Vec<MemoryAccess> = seq_stream(400, 2).collect();
        let mut fresh = Engine::new(&SimConfig::paper_default()).unwrap();
        fresh.run(stream.iter().copied());

        let mut dirty = Engine::new(&SimConfig::paper_default()).unwrap();
        dirty.attribute_to(3);
        dirty.set_asid(Asid::new(5));
        dirty.run(stream.iter().copied());
        assert!(dirty.try_recycle(&SimConfig::paper_default()));
        dirty.run(stream.iter().copied());
        assert_eq!(dirty.stats(), fresh.stats());
        assert_eq!(dirty.stream_footprint(3), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_flush_interval_panics() {
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        e.run_with_flush_interval(std::iter::empty(), 0);
    }

    #[test]
    fn flushing_at_every_access_degenerates_to_a_cold_tlb() {
        // interval = 1 flushes translation *and* prediction state after
        // each reference: nothing can ever hit — not the TLB, not the
        // prefetch buffer — so the run degenerates to the all-cold
        // extreme regardless of the stream's locality.
        let stream: Vec<MemoryAccess> = seq_stream(500, 4).collect();
        let mut e = Engine::new(&SimConfig::paper_default()).unwrap();
        e.run_with_flush_interval(stream.iter().copied(), 1);
        let s = e.stats();
        assert_eq!(s.misses, s.accesses, "every access must miss");
        assert_eq!(s.prefetch_buffer_hits, 0, "the buffer never survives");
        assert_eq!(s.demand_walks, s.accesses);
        assert_eq!(s.accuracy(), 0.0);
    }

    #[test]
    fn flush_interval_of_the_stream_length_matches_a_plain_run_bit_identically() {
        let stream: Vec<MemoryAccess> = seq_stream(1200, 3).collect();
        let mut plain = Engine::new(&SimConfig::paper_default()).unwrap();
        plain.run(stream.iter().copied());
        let mut flushed = Engine::new(&SimConfig::paper_default()).unwrap();
        // The single flush lands after the final access, where it can no
        // longer affect any counter — including the footprint, which the
        // page table carries across context switches.
        flushed.run_with_flush_interval(stream.iter().copied(), stream.len() as u64);
        assert_eq!(flushed.stats(), plain.stats());
    }
}
