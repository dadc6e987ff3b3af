//! The zero-allocation guarantee of the steady-state miss path.
//!
//! A counting global allocator tallies every allocation made by this
//! thread. Each mechanism's engine is warmed on a miss-heavy looping
//! working set (larger than both the TLB and the prediction tables, so
//! rows are continuously evicted and re-created and the RP stack churns)
//! until all structures have reached their steady footprint — then the
//! same laps run again and the test asserts the allocation counter did
//! not move at all: **zero heap allocations per TLB miss**, for all five
//! mechanisms plus the baseline.
//!
//! A second test pins the same guarantee for the *trace-driven* path
//! end-to-end: open → `decode_batch` → engine drive performs zero
//! steady-state allocations, both at cursor level and through the full
//! `TraceWorkload` → `Workload::fill_batch` → `run_workload` stack.
//!
//! A third pins the structures underneath: the 128-entry fully
//! associative TLB filling and evicting, the prefetch buffer churning,
//! `evict_asid` and `flush` followed by refills, and a fully associative
//! prediction table evicting rows in `get_or_insert_with` all run on
//! storage sized once, at construction.
//!
//! A fourth pins the page-run path: `run_workload` over generator
//! workloads (visit runs) and over a v2 trace (collapsed records), and
//! `access_runs` over a collected run stream.
//!
//! A fifth pins the sweep's miss path: `replay_misses` over a recorded
//! `MissStream`, under every grid scheme.
//!
//! The allocation counter is thread-local, so the tests cannot perturb
//! each other even when the harness runs them concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tlbsim_core::{MemoryAccess, PrefetcherConfig, PrefetcherKind};
use tlbsim_sim::{Engine, SimConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates directly to `System`; the only addition is a
// non-allocating thread-local counter bump.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_so_far() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

/// One lap over a working set big enough to miss in the 128-entry TLB
/// on every page and to overflow the 256-row prediction tables (so the
/// steady state includes continuous row eviction and re-creation).
fn lap_stream() -> Vec<MemoryAccess> {
    let pages = 600u64;
    (0..pages * 2)
        .map(|i| {
            // Two interleaved regions keep distances non-trivial and the
            // RP stack churning.
            let page = if i % 2 == 0 { i / 2 } else { 10_000 + i / 2 };
            MemoryAccess::read(0x400 + (i % 8) * 4, page * 4096)
        })
        .collect()
}

#[test]
fn steady_state_miss_path_never_allocates() {
    let lap = lap_stream();
    for kind in [
        PrefetcherKind::None,
        PrefetcherKind::Sequential,
        PrefetcherKind::Stride,
        PrefetcherKind::Markov,
        PrefetcherKind::Recency,
        PrefetcherKind::Distance,
    ] {
        let config = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
        let mut engine = Engine::new(&config).expect("valid configuration");

        // Warm-up: populate the page table, TLB, prediction tables, the
        // RP stack and every container's high-water capacity.
        for _ in 0..4 {
            engine.access_batch(&lap);
        }

        let before = allocations_so_far();
        for _ in 0..4 {
            engine.access_batch(&lap);
        }
        let allocated = allocations_so_far() - before;

        let stats = engine.stats();
        assert!(
            stats.misses >= 4 * 600,
            "{kind:?}: the workload must actually stress the miss path, saw {} misses",
            stats.misses
        );
        assert_eq!(
            allocated, 0,
            "{kind:?}: steady-state loop performed {allocated} heap allocations"
        );
    }
}

/// The three adaptive schemes the static grid gained: trend-vote
/// strides, a confidence-throttled distance prefetcher, and two
/// set-dueling ensembles (including a three-way duel).
fn adaptive_schemes() -> Vec<(PrefetcherConfig, &'static str)> {
    use tlbsim_core::ConfidenceConfig;

    let mut trend = PrefetcherConfig::trend_stride();
    trend.window(8);
    let mut confident = PrefetcherConfig::distance();
    confident.confidence(ConfidenceConfig::adaptive());
    vec![
        (trend, "TP,8"),
        (confident, "C+DP"),
        (
            PrefetcherConfig::ensemble_of(&[PrefetcherKind::Distance, PrefetcherKind::Stride]),
            "EP:DP+ASP",
        ),
        (
            PrefetcherConfig::ensemble_of(&[
                PrefetcherKind::Distance,
                PrefetcherKind::Stride,
                PrefetcherKind::Markov,
            ]),
            "EP:DP+ASP+MP",
        ),
    ]
}

#[test]
fn adaptive_steady_state_miss_path_never_allocates() {
    // The adaptive families carry extra live state on the miss path —
    // confidence counter rows, trend windows, duel scores — and all of
    // it must reach a steady footprint exactly like the static tables:
    // training, voting and throttling are in-place updates, never
    // allocations.
    let lap = lap_stream();
    for (scheme, label) in adaptive_schemes() {
        let config = SimConfig::paper_default().with_prefetcher(scheme);
        let mut engine = Engine::new(&config).expect("valid configuration");

        for _ in 0..4 {
            engine.access_batch(&lap);
        }

        let before = allocations_so_far();
        for _ in 0..4 {
            engine.access_batch(&lap);
        }
        let allocated = allocations_so_far() - before;

        let stats = engine.stats();
        assert!(
            stats.misses >= 4 * 600,
            "{label}: the workload must actually stress the miss path, saw {} misses",
            stats.misses
        );
        assert_eq!(
            allocated, 0,
            "{label}: steady-state loop performed {allocated} heap allocations"
        );
    }
}

#[test]
fn adaptive_asid_switching_steady_state_never_allocates() {
    // Tag-swap context switches under the adaptive families: once both
    // ASIDs' counter banks, trend rows and duel scores are parked, a
    // switch is a swap of tagged banks — no rebuild, no heap traffic.
    use tlbsim_core::Asid;

    let lap = lap_stream();
    for (scheme, label) in adaptive_schemes() {
        let config = SimConfig::paper_default().with_prefetcher(scheme);
        let mut engine = Engine::new(&config).expect("valid configuration");

        for _ in 0..4 {
            for stream in 0..2usize {
                engine.set_asid(Asid::new(stream as u16));
                engine.attribute_to(stream);
                engine.access_batch(&lap);
            }
        }

        let before = allocations_so_far();
        for _ in 0..4 {
            for stream in 0..2usize {
                engine.set_asid(Asid::new(stream as u16));
                engine.attribute_to(stream);
                engine.access_batch(&lap);
            }
        }
        let allocated = allocations_so_far() - before;

        assert!(
            engine.stats().misses >= 8 * 600,
            "{label}: the switching workload must stress the miss path, saw {} misses",
            engine.stats().misses
        );
        assert_eq!(
            allocated, 0,
            "{label}: ASID-switching steady state performed {allocated} heap allocations"
        );
    }
}

#[test]
fn asid_switching_steady_state_never_allocates() {
    // Flush-free multiprogramming in miniature: two address spaces
    // alternate on one engine via `set_asid` retagging — no flush, both
    // contexts' state stays resident and tagged. Once both spaces are
    // warm (page table, tagged TLB/buffer/table rows, per-ASID banked
    // registers, attribution slots), the switch + lap loop must stay
    // entirely off the heap: a context switch is a tag swap, not an
    // allocation.
    use tlbsim_core::Asid;

    let lap = lap_stream();
    for kind in [
        PrefetcherKind::Sequential,
        PrefetcherKind::Markov,
        PrefetcherKind::Recency,
        PrefetcherKind::Distance,
    ] {
        let config = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
        let mut engine = Engine::new(&config).expect("valid configuration");

        // Warm-up: both ASIDs populate their tagged state and the
        // per-stream attribution table reaches its high-water width.
        for _ in 0..4 {
            for stream in 0..2usize {
                engine.set_asid(Asid::new(stream as u16));
                engine.attribute_to(stream);
                engine.access_batch(&lap);
            }
        }

        let before = allocations_so_far();
        for _ in 0..4 {
            for stream in 0..2usize {
                engine.set_asid(Asid::new(stream as u16));
                engine.attribute_to(stream);
                engine.access_batch(&lap);
            }
        }
        let allocated = allocations_so_far() - before;

        assert!(
            engine.stats().misses >= 8 * 600,
            "{kind:?}: the switching workload must stress the miss path, saw {} misses",
            engine.stats().misses
        );
        assert_eq!(
            allocated, 0,
            "{kind:?}: ASID-switching steady state performed {allocated} heap allocations"
        );
    }
}

/// Runs `lap` four times to warm `state` up, then four more times and
/// returns how many heap allocations the second four made.
fn steady_state_allocations<T>(state: &mut T, mut lap: impl FnMut(&mut T)) -> u64 {
    for _ in 0..4 {
        lap(state);
    }
    let before = allocations_so_far();
    for _ in 0..4 {
        lap(state);
    }
    allocations_so_far() - before
}

#[test]
fn associative_structures_never_allocate_after_construction() {
    // The O(1) LRU map under the TLB, the prefetch buffer and the
    // prediction tables sizes every array in `new`: fills that evict,
    // targeted context eviction, flushes and refills must all reuse it.
    use tlbsim_core::{Asid, Associativity, PhysPage, PredictionTable, SlotList, VirtPage};
    use tlbsim_mmu::{PrefetchBuffer, Tlb, TlbConfig};

    // The paper's 128-entry fully associative TLB, cycled through 300
    // pages: every lap misses and evicts on most references.
    let mut tlb = Tlb::new(TlbConfig::paper_default()).expect("paper geometry");
    let allocated = steady_state_allocations(&mut tlb, |tlb| {
        for p in 0..300u64 {
            let page = VirtPage::new(p * 3);
            if tlb.lookup(page).is_none() {
                tlb.fill(page, PhysPage::new(p));
            }
        }
    });
    assert!(tlb.misses() >= 8 * 300, "the loop must fill and evict");
    assert_eq!(
        allocated, 0,
        "128-F fill/evict loop allocated {allocated} times"
    );

    // The 16-entry buffer, flooded past capacity and drained by promotes.
    let mut buffer = PrefetchBuffer::new(16).expect("paper geometry");
    let allocated = steady_state_allocations(&mut buffer, |buffer| {
        for p in 0..64u64 {
            buffer.insert(VirtPage::new(p), PhysPage::new(p));
            buffer.promote(VirtPage::new(p.saturating_sub(8)));
        }
    });
    assert!(buffer.evicted_unused() > 0, "the flood must evict");
    assert_eq!(
        allocated, 0,
        "prefetch-buffer churn allocated {allocated} times"
    );

    // Two contexts share the TLB; one is evicted wholesale every lap and
    // refills next lap.
    let mut tlb = Tlb::new(TlbConfig::paper_default()).expect("paper geometry");
    let allocated = steady_state_allocations(&mut tlb, |tlb| {
        for asid in 0..2u16 {
            tlb.set_asid(Asid::new(asid));
            for p in 0..100u64 {
                tlb.fill(VirtPage::new(p), PhysPage::new(p));
            }
        }
        tlb.evict_asid(Asid::new(0));
    });
    assert_eq!(
        allocated, 0,
        "evict_asid + refill allocated {allocated} times"
    );

    // A flush followed by a full refill.
    let mut tlb = Tlb::new(TlbConfig::paper_default()).expect("paper geometry");
    let allocated = steady_state_allocations(&mut tlb, |tlb| {
        tlb.flush();
        for p in 0..200u64 {
            tlb.fill(VirtPage::new(p), PhysPage::new(p));
        }
    });
    assert_eq!(tlb.len(), 128);
    assert_eq!(allocated, 0, "flush + refill allocated {allocated} times");

    // A fully associative prediction table whose rows are continuously
    // evicted and re-created by `get_or_insert_with`, as MP's are.
    let mut table: PredictionTable<VirtPage, SlotList<VirtPage>> =
        PredictionTable::new(256, Associativity::Full).expect("valid geometry");
    let allocated = steady_state_allocations(&mut table, |table| {
        for p in 0..600u64 {
            table
                .get_or_insert_with(VirtPage::new(p), || SlotList::new(2))
                .insert(VirtPage::new(p + 1));
        }
    });
    assert!(table.evictions() >= 8 * 600 - 256, "rows must be evicted");
    assert_eq!(
        allocated, 0,
        "256-F table get_or_insert_with allocated {allocated} times"
    );
}

#[test]
fn mmap_trace_replay_path_never_allocates_in_steady_state() {
    use tlbsim_trace::{BinaryTraceWriter, MmapTrace};
    use tlbsim_workloads::TraceWorkload;

    // Record the miss-heavy lap stream (4 laps) to a temp trace file —
    // setup may allocate freely; the measured window starts later.
    let lap = lap_stream();
    let path = std::env::temp_dir().join(format!("tlbsim-zero-alloc-{}.tlbt", std::process::id()));
    {
        let mut writer = BinaryTraceWriter::create(
            std::fs::File::create(&path).expect("temp trace file creates"),
        )
        .expect("trace header writes");
        for _ in 0..4 {
            for access in &lap {
                writer.write(access).expect("record writes");
            }
        }
        writer.finish().expect("trace flushes");
    }

    // --- Cursor level: open -> decode_batch -> engine drive. ---
    let trace = MmapTrace::open(&path).expect("recorded trace validates");
    let config = SimConfig::paper_default();
    let mut engine = Engine::new(&config).expect("valid configuration");
    let mut batch = vec![MemoryAccess::read(0, 0); 4096];

    // Warm-up: one full replay populates the page table, TLB,
    // prediction tables and every container's high-water capacity, and
    // faults in the whole mapping.
    let mut cursor = trace.cursor();
    loop {
        let filled = cursor.decode_batch(&mut batch).expect("validated records");
        if filled == 0 {
            break;
        }
        engine.access_batch(&batch[..filled]);
    }

    // Steady state: rewind the cursor and replay again — seeking,
    // decoding and the whole miss path must stay off the heap.
    let before = allocations_so_far();
    cursor.seek(0);
    loop {
        let filled = cursor.decode_batch(&mut batch).expect("validated records");
        if filled == 0 {
            break;
        }
        engine.access_batch(&batch[..filled]);
    }
    let allocated = allocations_so_far() - before;
    assert!(
        engine.stats().misses >= 8 * 600,
        "the replay must actually stress the miss path, saw {} misses",
        engine.stats().misses
    );
    assert_eq!(
        allocated, 0,
        "cursor-level mmap replay performed {allocated} heap allocations"
    );

    // --- Full stack: TraceWorkload -> Workload -> run_workload. ---
    // Workload construction (one Box + one String per replay) and the
    // first run_workload call (which sizes the engine's internal batch
    // buffer) happen before the measured window; the engine's tables
    // are already warm from the laps above.
    let workload_spec = TraceWorkload::open(&path).expect("recorded trace validates");
    engine.run_workload(&mut workload_spec.workload());
    let mut replay = workload_spec.workload();
    let before = allocations_so_far();
    engine.run_workload(&mut replay);
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "TraceWorkload replay performed {allocated} heap allocations"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn v2_block_decode_never_allocates_in_steady_state() {
    use tlbsim_trace::{V2Trace, V2TraceWriter};
    use tlbsim_workloads::TraceWorkload;

    // Record the lap stream as a delta-block v2 trace. A small block
    // length keeps the restart/delta mix representative: the measured
    // replay crosses hundreds of block boundaries, so both the restart
    // decode and the varint delta chain are exercised continuously.
    let lap = lap_stream();
    let path =
        std::env::temp_dir().join(format!("tlbsim-zero-alloc-v2-{}.tlbt", std::process::id()));
    {
        let mut writer = V2TraceWriter::create_with_block_len(
            std::fs::File::create(&path).expect("temp trace file creates"),
            64,
        )
        .expect("trace header writes");
        for _ in 0..4 {
            for access in &lap {
                writer.write(access).expect("record writes");
            }
        }
        writer.finish().expect("block index and footer write");
    }

    // --- Cursor level: open -> decode_batch -> engine drive. The
    // whole-map backend is the steady-state path; the windowed
    // streaming backend remaps (and therefore allocates) by design.
    let trace = V2Trace::open(&path).expect("recorded trace validates");
    let config = SimConfig::paper_default();
    let mut engine = Engine::new(&config).expect("valid configuration");
    let mut batch = vec![MemoryAccess::read(0, 0); 4096];

    // Warm-up: one full replay populates the engine and faults in the
    // whole mapping.
    let mut cursor = trace.cursor();
    loop {
        let filled = cursor.decode_batch(&mut batch).expect("validated records");
        if filled == 0 {
            break;
        }
        engine.access_batch(&batch[..filled]);
    }

    // Steady state: the O(1) index seek, every block-boundary restart,
    // the zig-zag varint decode and the miss path must all stay off
    // the heap.
    let before = allocations_so_far();
    cursor.seek(0);
    loop {
        let filled = cursor.decode_batch(&mut batch).expect("validated records");
        if filled == 0 {
            break;
        }
        engine.access_batch(&batch[..filled]);
    }
    let allocated = allocations_so_far() - before;
    assert!(
        engine.stats().misses >= 8 * 600,
        "the replay must actually stress the miss path, saw {} misses",
        engine.stats().misses
    );
    assert_eq!(
        allocated, 0,
        "cursor-level v2 block decode performed {allocated} heap allocations"
    );

    // --- Full stack: TraceWorkload (v2 sniffed) -> run_workload. ---
    let workload_spec = TraceWorkload::open(&path).expect("recorded trace validates");
    assert_eq!(workload_spec.format_version(), 2, "v2 header sniffed");
    engine.run_workload(&mut workload_spec.workload());
    let mut replay = workload_spec.workload();
    let before = allocations_so_far();
    engine.run_workload(&mut replay);
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "v2 TraceWorkload replay performed {allocated} heap allocations"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn quarantine_decode_never_allocates_in_steady_state() {
    use tlbsim_trace::{BinaryTraceWriter, DecodePolicy, MmapTrace, HEADER_BYTES, RECORD_BYTES};
    use tlbsim_workloads::TraceWorkload;

    // Record the lap stream, then vandalise a handful of kind bytes so
    // the quarantine walk actually has records to skip — the salvage
    // path must be as allocation-free as the clean one.
    let lap = lap_stream();
    let path = std::env::temp_dir().join(format!(
        "tlbsim-zero-alloc-quarantine-{}.tlbt",
        std::process::id()
    ));
    {
        let mut writer = BinaryTraceWriter::create(
            std::fs::File::create(&path).expect("temp trace file creates"),
        )
        .expect("trace header writes");
        for _ in 0..4 {
            for access in &lap {
                writer.write(access).expect("record writes");
            }
        }
        writer.finish().expect("trace flushes");
    }
    let mut bytes = std::fs::read(&path).expect("trace reads back");
    let records = (bytes.len() - HEADER_BYTES) / RECORD_BYTES;
    for bad in (0..records).step_by(records / 16) {
        bytes[HEADER_BYTES + bad * RECORD_BYTES + 16] = 0xEE;
    }
    std::fs::write(&path, &bytes).expect("damaged trace writes");

    // --- Cursor level under quarantine. ---
    let trace =
        MmapTrace::open_with_policy(&path, DecodePolicy::lenient()).expect("header still valid");
    let config = SimConfig::paper_default();
    let mut engine = Engine::new(&config).expect("valid configuration");
    let mut batch = vec![MemoryAccess::read(0, 0); 4096];

    let mut cursor = trace.cursor();
    loop {
        let filled = cursor.decode_batch(&mut batch).expect("unbounded budget");
        if filled == 0 {
            break;
        }
        engine.access_batch(&batch[..filled]);
    }
    let skipped = cursor.health().records_bad;
    assert!(
        skipped >= 16,
        "the walk must actually skip bad records, saw {skipped}"
    );

    let before = allocations_so_far();
    cursor.seek(0);
    loop {
        let filled = cursor.decode_batch(&mut batch).expect("unbounded budget");
        if filled == 0 {
            break;
        }
        engine.access_batch(&batch[..filled]);
    }
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "quarantine cursor replay performed {allocated} heap allocations"
    );

    // --- Full stack: TraceWorkload opened under quarantine. ---
    let workload_spec = TraceWorkload::open_with_policy(&path, DecodePolicy::lenient())
        .expect("damage fits the unbounded budget");
    engine.run_workload(&mut workload_spec.workload());
    let mut replay = workload_spec.workload();
    let before = allocations_so_far();
    engine.run_workload(&mut replay);
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "quarantined TraceWorkload replay performed {allocated} heap allocations"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn page_run_path_never_allocates_in_steady_state() {
    use tlbsim_core::PageRun;
    use tlbsim_trace::V2TraceWriter;
    use tlbsim_workloads::{find_app, Scale, TraceWorkload};

    let config = SimConfig::paper_default();

    // --- Generator: Emit::fill_runs writes visit runs -> access_runs.
    // Workload construction and the first run_workload call (which
    // sizes the engine's run buffer and warms every table) happen
    // before the measured window.
    for name in ["mcf", "galgel"] {
        let app = find_app(name).expect("registered app");
        let mut engine = Engine::new(&config).expect("valid configuration");
        engine.run_workload(&mut app.workload(Scale::TINY));
        let mut workload = app.workload(Scale::TINY);
        let before = allocations_so_far();
        engine.run_workload(&mut workload);
        let allocated = allocations_so_far() - before;
        assert!(engine.stats().misses > 0, "{name} must miss");
        assert_eq!(
            allocated, 0,
            "{name} generator run path performed {allocated} heap allocations"
        );
    }

    // --- v2 trace: records collapsed into runs -> access_runs. ---
    let lap = lap_stream();
    let path = std::env::temp_dir().join(format!(
        "tlbsim-zero-alloc-runs-{}.tlbt",
        std::process::id()
    ));
    {
        let mut writer = V2TraceWriter::create_with_block_len(
            std::fs::File::create(&path).expect("temp trace file creates"),
            64,
        )
        .expect("trace header writes");
        for _ in 0..4 {
            for access in &lap {
                writer.write(access).expect("record writes");
            }
        }
        writer.finish().expect("block index and footer write");
    }
    let trace = TraceWorkload::open(&path).expect("recorded trace validates");
    let mut engine = Engine::new(&config).expect("valid configuration");
    engine.run_workload(&mut trace.workload());
    let mut replay = trace.workload();
    let before = allocations_so_far();
    engine.run_workload(&mut replay);
    let allocated = allocations_so_far() - before;
    assert!(
        engine.stats().misses >= 8 * 600,
        "the replay must actually stress the miss path, saw {} misses",
        engine.stats().misses
    );
    assert_eq!(
        allocated, 0,
        "v2 TraceWorkload run path performed {allocated} heap allocations"
    );

    // --- A collected run stream replayed straight into access_runs. ---
    let mut runs = Vec::new();
    let mut chunk = [PageRun::default(); 256];
    let mut workload = trace.workload();
    loop {
        let (filled, _) = workload.fill_runs(config.page_size, &mut chunk, u64::MAX);
        if filled == 0 {
            break;
        }
        runs.extend_from_slice(&chunk[..filled]);
    }
    let mut engine = Engine::new(&config).expect("valid configuration");
    engine.access_runs(&runs);
    let before = allocations_so_far();
    engine.access_runs(&runs);
    let allocated = allocations_so_far() - before;
    assert_eq!(engine.stats().accesses, 2 * 4 * lap.len() as u64);
    assert_eq!(
        allocated, 0,
        "access_runs over a run stream performed {allocated} heap allocations"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn miss_stream_replay_never_allocates_in_steady_state() {
    use tlbsim_core::PageRun;
    use tlbsim_experiments::paper_scheme_grid;
    use tlbsim_sim::MissStream;

    // Record the misses of four laps once; recording may allocate.
    let config = SimConfig::paper_default();
    let runs: Vec<PageRun> = lap_stream()
        .iter()
        .map(|access| PageRun {
            pc: access.pc,
            page: config.page_size.page_of(access.vaddr),
            len: 1,
        })
        .collect();
    let mut misses = MissStream::new(config.tlb, config.page_size).expect("paper geometry");
    for _ in 0..4 {
        misses.push_runs(&runs);
    }
    assert!(
        misses.misses() >= 4 * 600,
        "the laps must stress the miss path, saw {} misses",
        misses.misses()
    );

    for scheme in paper_scheme_grid() {
        let label = scheme.label();
        let mut engine =
            Engine::new(&config.clone().with_prefetcher(scheme)).expect("valid configuration");
        // Warm-up: one replay sizes the residency bits and fills the
        // page table, the prediction tables and every container.
        engine
            .replay_misses(&misses)
            .expect("the stream's geometry");
        let before = allocations_so_far();
        engine
            .replay_misses(&misses)
            .expect("the stream's geometry");
        let allocated = allocations_so_far() - before;
        assert_eq!(
            allocated, 0,
            "{label}: miss-stream replay performed {allocated} heap allocations"
        );
    }
}
