//! The traced mode's capture pass and layer replays.
//!
//! Timing a nanosecond-scale call with a clock read on each side would
//! measure the clock. Instead, [`Replica`] re-implements
//! `Engine::access_batch` from the public layer APIs — `Tlb`,
//! `PrefetchBuffer`, `PageTable`, `TlbPrefetcher::on_miss` into a
//! `CandidateBuf`, and the residency filter probes — and, while it
//! reproduces the engine's `SimStats` bit for bit, logs every layer's
//! input sequence with the output it produced. [`replay_layers`] then
//! pushes each layer's own log through a fresh instance of that layer,
//! timed in bulk: each layer is a deterministic state machine over its
//! inputs, so the replay must reproduce every logged output, and any
//! difference is counted as a failure.
//!
//! Per-operation costs inside one structure come from differential
//! replays of the same log. A residency probe (`contains`) changes no
//! state, so the log replayed without probes times everything else. A
//! lookup repeated immediately leaves the LRU order as it was, so the
//! log replayed with every lookup doubled times the lookups once more.
//! The rest of the structure's time is its fills.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use tlbsim_core::{
    Asid, CandidateBuf, MemoryAccess, MissContext, PageSize, PhysPage, PrefetcherConfig,
    PrefetcherKind, TlbPrefetcher, VirtPage,
};
use tlbsim_mmu::{PageTable, PrefetchBuffer, Tlb};
use tlbsim_sim::{SimConfig, SimStats, StreamStats};
use tlbsim_workloads::Workload;

use crate::util::{min_time, StreamSum};

/// Accesses per batch, as in the engine (processing is batch-size
/// invariant, so this only sets the buffer size).
pub const BATCH: usize = 4096;

/// Bulk-replay repetitions; the fastest one is the self time.
const REPS: usize = 2;

/// The mechanism families the per-family metrics are keyed by.
pub const FAMILIES: [&str; 8] = ["sp", "asp", "mp", "rp", "dp", "tp", "c", "ep"];

/// The family key of a scheme: confidence-throttled schemes form the
/// `c` family whatever their base mechanism.
pub fn family(config: &PrefetcherConfig) -> usize {
    if config.confidence_config().is_some() {
        return 6;
    }
    match config.kind() {
        PrefetcherKind::Sequential => 0,
        PrefetcherKind::Stride => 1,
        PrefetcherKind::Markov => 2,
        PrefetcherKind::Recency => 3,
        PrefetcherKind::Distance => 4,
        PrefetcherKind::TrendStride => 5,
        PrefetcherKind::Ensemble => 7,
        PrefetcherKind::None => panic!("the benchmark never traces the no-prefetch baseline"),
    }
}

/// One logged call into the TLB or the prefetch buffer. `Lookup` is a
/// TLB lookup or a buffer promote, `Fill` a TLB fill or a buffer insert.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup {
        page: VirtPage,
        out: Option<PhysPage>,
    },
    Fill {
        page: VirtPage,
        frame: PhysPage,
        out: Option<VirtPage>,
    },
    Contains {
        page: VirtPage,
        out: bool,
    },
    SetAsid(Asid),
    EvictAsid(Asid),
}

/// One logged call into the mechanism, with the candidate range it
/// produced in [`Logs::candidates`].
#[derive(Debug, Clone, Copy)]
enum CoreOp {
    Miss {
        ctx: MissContext,
        start: u32,
        len: u8,
        maintenance: u32,
    },
    SetAsid(Asid),
    EvictAsid(Asid),
}

#[derive(Debug, Default)]
struct Logs {
    tlb: Vec<CacheOp>,
    pbuf: Vec<CacheOp>,
    walks: Vec<(VirtPage, PhysPage)>,
    core: Vec<CoreOp>,
    candidates: Vec<VirtPage>,
}

/// The benchmark-side replica of `Engine`, logging as it runs.
pub struct Replica {
    config: SimConfig,
    tlb: Tlb,
    buffer: PrefetchBuffer,
    prefetcher: Box<dyn TlbPrefetcher>,
    page_table: PageTable,
    sink: CandidateBuf,
    page_size: PageSize,
    stats: SimStats,
    current_stream: Option<usize>,
    stream_pages: Vec<HashSet<VirtPage>>,
    batch: Vec<MemoryAccess>,
    /// Checksum of every access fed in, to check decode and fill replays.
    pub input: StreamSum,
    logs: Logs,
}

impl Replica {
    pub fn new(config: &SimConfig) -> Replica {
        Replica {
            config: config.clone(),
            tlb: Tlb::new(config.tlb).expect("benchmark schemes have valid geometry"),
            buffer: PrefetchBuffer::new(config.prefetch_buffer_entries)
                .expect("benchmark schemes have valid geometry"),
            prefetcher: config.prefetcher.build().expect("benchmark schemes build"),
            page_table: PageTable::new(),
            sink: CandidateBuf::new(),
            page_size: config.page_size,
            stats: SimStats::default(),
            current_stream: None,
            stream_pages: Vec::new(),
            batch: vec![MemoryAccess::read(0, 0); BATCH],
            input: StreamSum::default(),
            logs: Logs::default(),
        }
    }

    /// `Engine::access_batch`.
    fn access_batch(&mut self, batch: &[MemoryAccess]) {
        self.stats.accesses += batch.len() as u64;
        for access in batch {
            self.input.add(access);
            let page = self.page_size.page_of(access.vaddr);
            let out = self.tlb.lookup(page);
            self.logs.tlb.push(CacheOp::Lookup { page, out });
            if out.is_some() {
                continue;
            }
            self.miss(page, access.pc);
        }
    }

    /// `Engine`'s miss path: promote-or-walk, fill, notify the mechanism
    /// and install the candidates that survive the filter.
    fn miss(&mut self, page: VirtPage, pc: tlbsim_core::Pc) {
        self.stats.misses += 1;
        if let Some(stream) = self.current_stream {
            self.stream_pages[stream].insert(page);
        }
        let promoted = self.buffer.promote(page);
        self.logs.pbuf.push(CacheOp::Lookup {
            page,
            out: promoted,
        });
        let (frame, pb_hit) = match promoted {
            Some(frame) => (frame, true),
            None => (self.walk(page), false),
        };
        if pb_hit {
            self.stats.prefetch_buffer_hits += 1;
        } else {
            self.stats.demand_walks += 1;
        }
        let evicted = self.tlb.fill(page, frame).evicted;
        self.logs.tlb.push(CacheOp::Fill {
            page,
            frame,
            out: evicted,
        });

        let ctx = MissContext {
            page,
            pc,
            prefetch_buffer_hit: pb_hit,
            evicted_tlb_entry: evicted,
        };
        self.sink.clear();
        self.prefetcher.on_miss(&ctx, &mut self.sink);
        let start = self.logs.candidates.len() as u32;
        self.logs.candidates.extend_from_slice(self.sink.pages());
        let maintenance = self.sink.maintenance_ops();
        self.logs.core.push(CoreOp::Miss {
            ctx,
            start,
            len: self.sink.len() as u8,
            maintenance,
        });
        self.stats.maintenance_ops += u64::from(maintenance);

        for i in 0..self.sink.len() {
            let candidate = self.sink.pages()[i];
            if candidate == page || (self.config.filter_prefetches && self.resident(candidate)) {
                self.stats.prefetches_filtered += 1;
                continue;
            }
            let frame = self.walk(candidate);
            let out = self.buffer.insert(candidate, frame);
            self.logs.pbuf.push(CacheOp::Fill {
                page: candidate,
                frame,
                out,
            });
            if out.is_some() {
                self.stats.prefetches_evicted_unused += 1;
            }
            self.stats.prefetches_issued += 1;
        }
    }

    /// The filter's residency probe: buffer first, then the TLB.
    fn resident(&mut self, page: VirtPage) -> bool {
        let buffered = self.buffer.contains(page);
        self.logs.pbuf.push(CacheOp::Contains {
            page,
            out: buffered,
        });
        if buffered {
            return true;
        }
        let cached = self.tlb.contains(page);
        self.logs.tlb.push(CacheOp::Contains { page, out: cached });
        cached
    }

    fn walk(&mut self, page: VirtPage) -> PhysPage {
        let frame = self.page_table.translate(page);
        self.logs.walks.push((page, frame));
        frame
    }

    /// `Engine::set_asid`.
    pub fn set_asid(&mut self, asid: Asid) {
        self.tlb.set_asid(asid);
        self.buffer.set_asid(asid);
        self.prefetcher.set_asid(asid);
        self.logs.tlb.push(CacheOp::SetAsid(asid));
        self.logs.pbuf.push(CacheOp::SetAsid(asid));
        self.logs.core.push(CoreOp::SetAsid(asid));
    }

    /// `Engine::evict_asid`.
    pub fn evict_asid(&mut self, asid: Asid) {
        self.tlb.evict_asid(asid);
        self.buffer.evict_asid(asid);
        self.prefetcher.evict_asid(asid);
        self.logs.tlb.push(CacheOp::EvictAsid(asid));
        self.logs.pbuf.push(CacheOp::EvictAsid(asid));
        self.logs.core.push(CoreOp::EvictAsid(asid));
    }

    /// `Engine::attribute_to`.
    pub fn attribute_to(&mut self, stream: usize) {
        if self.stream_pages.len() <= stream {
            self.stream_pages.resize_with(stream + 1, HashSet::new);
        }
        self.current_stream = Some(stream);
    }

    /// `Engine::stream_footprint`.
    pub fn stream_footprint(&self, stream: usize) -> u64 {
        self.stream_pages.get(stream).map_or(0, |s| s.len() as u64)
    }

    /// `Engine::run_workload_limit` (`u64::MAX` runs to the end).
    pub fn run_workload_limit(&mut self, workload: &mut Workload, limit: u64) {
        let mut batch = std::mem::take(&mut self.batch);
        let mut remaining = limit;
        while remaining > 0 {
            let want = remaining.min(BATCH as u64) as usize;
            let filled = workload.fill_batch(&mut batch[..want]);
            if filled == 0 {
                break;
            }
            self.access_batch(&batch[..filled]);
            remaining -= filled as u64;
        }
        self.batch = batch;
    }

    /// `Engine::stats` (the footprint is refreshed, as `finish` does).
    pub fn stats(&mut self) -> &SimStats {
        self.stats.footprint_pages = self.page_table.len() as u64;
        &self.stats
    }
}

/// Self times and counts of one structure (TLB or prefetch buffer).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTimes {
    pub total: Duration,
    pub lookup: Duration,
    pub fill: Duration,
    pub contains: Duration,
    pub lookups: u64,
    pub lookup_hits: u64,
    pub fills: u64,
    pub probes: u64,
}

/// What [`replay_layers`] measured for one captured run.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub tlb: CacheTimes,
    pub pbuf: CacheTimes,
    pub walk: Duration,
    pub walks: u64,
    pub on_miss: Duration,
    pub misses: u64,
    pub candidates: u64,
    pub issued: u64,
    pub filtered: u64,
    pub buffer_hits: u64,
    /// Replayed outputs that differed from the logged ones (must be 0).
    pub mismatches: u64,
}

/// A structure the cache log replays through.
trait CacheLayer {
    /// Whether a lookup hit removes the entry (a buffer promote does).
    const LOOKUP_REMOVES: bool;
    fn lookup(&mut self, page: VirtPage) -> Option<PhysPage>;
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage>;
    fn contains(&self, page: VirtPage) -> bool;
    fn set_asid(&mut self, asid: Asid);
    fn evict_asid(&mut self, asid: Asid);
}

impl CacheLayer for Tlb {
    const LOOKUP_REMOVES: bool = false;
    fn lookup(&mut self, page: VirtPage) -> Option<PhysPage> {
        Tlb::lookup(self, page)
    }
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage> {
        Tlb::fill(self, page, frame).evicted
    }
    fn contains(&self, page: VirtPage) -> bool {
        Tlb::contains(self, page)
    }
    fn set_asid(&mut self, asid: Asid) {
        Tlb::set_asid(self, asid)
    }
    fn evict_asid(&mut self, asid: Asid) {
        Tlb::evict_asid(self, asid)
    }
}

impl CacheLayer for PrefetchBuffer {
    const LOOKUP_REMOVES: bool = true;
    fn lookup(&mut self, page: VirtPage) -> Option<PhysPage> {
        self.promote(page)
    }
    fn fill(&mut self, page: VirtPage, frame: PhysPage) -> Option<VirtPage> {
        self.insert(page, frame)
    }
    fn contains(&self, page: VirtPage) -> bool {
        PrefetchBuffer::contains(self, page)
    }
    fn set_asid(&mut self, asid: Asid) {
        PrefetchBuffer::set_asid(self, asid)
    }
    fn evict_asid(&mut self, asid: Asid) {
        PrefetchBuffer::evict_asid(self, asid)
    }
}

const FULL: u8 = 0;
const NO_PROBES: u8 = 1;
const DOUBLED_LOOKUPS: u8 = 2;

/// Replays `ops` through `layer` in one of the three differential modes,
/// returning the elapsed time and the number of mismatched outputs.
fn replay_cache<C: CacheLayer, const MODE: u8>(mut layer: C, ops: &[CacheOp]) -> (Duration, u64) {
    let mut bad = 0u64;
    let start = Instant::now();
    for op in ops {
        match *op {
            CacheOp::Lookup { page, out } => {
                bad += u64::from(layer.lookup(page) != out);
                if MODE == DOUBLED_LOOKUPS {
                    let again = if C::LOOKUP_REMOVES { None } else { out };
                    bad += u64::from(layer.lookup(page) != again);
                }
            }
            CacheOp::Fill { page, frame, out } => bad += u64::from(layer.fill(page, frame) != out),
            CacheOp::Contains { page, out } => {
                if MODE == FULL {
                    bad += u64::from(layer.contains(page) != out);
                }
            }
            CacheOp::SetAsid(asid) => layer.set_asid(asid),
            CacheOp::EvictAsid(asid) => layer.evict_asid(asid),
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box(&layer);
    (elapsed, bad)
}

fn time_cache<C: CacheLayer>(fresh: impl Fn() -> C, ops: &[CacheOp], bad: &mut u64) -> CacheTimes {
    let mut run = |mode: u8| {
        min_time(REPS, || {
            let (elapsed, mismatches) = match mode {
                FULL => replay_cache::<C, FULL>(fresh(), ops),
                NO_PROBES => replay_cache::<C, NO_PROBES>(fresh(), ops),
                _ => replay_cache::<C, DOUBLED_LOOKUPS>(fresh(), ops),
            };
            *bad += mismatches;
            elapsed
        })
    };
    let full = run(FULL);
    let no_probes = run(NO_PROBES);
    let doubled = run(DOUBLED_LOOKUPS);
    let lookup = doubled.saturating_sub(no_probes);
    let mut times = CacheTimes {
        total: full,
        lookup,
        fill: no_probes.saturating_sub(lookup),
        contains: full.saturating_sub(no_probes),
        ..CacheTimes::default()
    };
    for op in ops {
        match op {
            CacheOp::Lookup { out, .. } => {
                times.lookups += 1;
                times.lookup_hits += u64::from(out.is_some());
            }
            CacheOp::Fill { .. } => times.fills += 1,
            CacheOp::Contains { .. } => times.probes += 1,
            CacheOp::SetAsid(_) | CacheOp::EvictAsid(_) => {}
        }
    }
    times
}

fn replay_walks(walks: &[(VirtPage, PhysPage)]) -> (Duration, u64) {
    let mut table = PageTable::new();
    let mut bad = 0u64;
    let start = Instant::now();
    for &(page, frame) in walks {
        bad += u64::from(table.translate(page) != frame);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(&table);
    (elapsed, bad)
}

fn replay_core(config: &PrefetcherConfig, logs: &Logs) -> (Duration, u64) {
    let mut prefetcher = config.build().expect("benchmark schemes build");
    let mut sink = CandidateBuf::new();
    let mut bad = 0u64;
    let start = Instant::now();
    for op in &logs.core {
        match *op {
            CoreOp::Miss {
                ctx,
                start,
                len,
                maintenance,
            } => {
                sink.clear();
                prefetcher.on_miss(&ctx, &mut sink);
                let expected = &logs.candidates[start as usize..start as usize + len as usize];
                bad += u64::from(sink.pages() != expected || sink.maintenance_ops() != maintenance);
            }
            CoreOp::SetAsid(asid) => prefetcher.set_asid(asid),
            CoreOp::EvictAsid(asid) => prefetcher.evict_asid(asid),
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box(&prefetcher);
    (elapsed, bad)
}

/// Replays each layer's log of a finished capture through fresh
/// instances, timed in bulk, and frees the logs.
pub fn replay_layers(replica: &mut Replica) -> LayerTimes {
    let logs = std::mem::take(&mut replica.logs);
    let config = &replica.config;
    let mut bad = 0u64;
    let tlb = time_cache(
        || Tlb::new(config.tlb).expect("valid TLB"),
        &logs.tlb,
        &mut bad,
    );
    let pbuf = time_cache(
        || PrefetchBuffer::new(config.prefetch_buffer_entries).expect("valid buffer"),
        &logs.pbuf,
        &mut bad,
    );
    let walk = min_time(REPS, || {
        let (elapsed, mismatches) = replay_walks(&logs.walks);
        bad += mismatches;
        elapsed
    });
    let on_miss = min_time(REPS, || {
        let (elapsed, mismatches) = replay_core(&config.prefetcher, &logs);
        bad += mismatches;
        elapsed
    });
    let misses = logs
        .core
        .iter()
        .filter(|op| matches!(op, CoreOp::Miss { .. }))
        .count() as u64;
    LayerTimes {
        tlb,
        pbuf,
        walk,
        walks: logs.walks.len() as u64,
        on_miss,
        misses,
        candidates: logs.candidates.len() as u64,
        issued: replica.stats.prefetches_issued,
        filtered: replica.stats.prefetches_filtered,
        buffer_hits: replica.stats.prefetch_buffer_hits,
        mismatches: bad,
    }
}

/// The attribution-relevant difference between two snapshots, as the
/// mix runner records per slice.
pub fn share_between(before: &SimStats, after: &SimStats) -> StreamStats {
    StreamStats {
        accesses: after.accesses - before.accesses,
        misses: after.misses - before.misses,
        prefetch_buffer_hits: after.prefetch_buffer_hits - before.prefetch_buffer_hits,
        demand_walks: after.demand_walks - before.demand_walks,
        prefetches_issued: after.prefetches_issued - before.prefetches_issued,
        footprint_pages: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbsim_experiments::paper_scheme_grid;
    use tlbsim_sim::run_app;
    use tlbsim_workloads::{Scale, TraceWorkload};

    fn gap_trace() -> TraceWorkload {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../tests/data/gap-tiny-2k.tlbt"
        );
        TraceWorkload::open(path).expect("checked-in trace opens")
    }

    #[test]
    fn replica_equals_engine_for_every_grid_scheme() {
        let trace = gap_trace();
        let mut schemes = paper_scheme_grid();
        assert_eq!(schemes.len(), 30);
        schemes.push(PrefetcherConfig::sequential());
        for scheme in schemes {
            let config = SimConfig::paper_default().with_prefetcher(scheme.clone());
            let engine = run_app(&trace, Scale::TINY, &config).expect("valid scheme");
            let mut replica = Replica::new(&config);
            replica.run_workload_limit(&mut trace.workload(), u64::MAX);
            assert_eq!(replica.stats(), &engine, "{}", scheme.label());
            let layers = replay_layers(&mut replica);
            assert_eq!(layers.mismatches, 0, "{} replay diverged", scheme.label());
            assert_eq!(layers.tlb.lookups, engine.accesses, "{}", scheme.label());
            assert_eq!(layers.misses, engine.misses, "{}", scheme.label());
        }
    }

    #[test]
    fn every_grid_scheme_has_a_family() {
        let mut seen = [false; FAMILIES.len()];
        for scheme in paper_scheme_grid() {
            seen[family(&scheme)] = true;
        }
        seen[family(&PrefetcherConfig::sequential())] = true;
        assert!(seen.iter().all(|&s| s), "families covered: {seen:?}");
    }
}
