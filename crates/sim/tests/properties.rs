//! Property tests for the simulation engines over arbitrary reference
//! streams.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tlbsim_core::{
    Asid, Associativity, MemoryAccess, PageRun, PageSize, PrefetcherConfig, PrefetcherKind,
};
use tlbsim_experiments::paper_scheme_grid;
use tlbsim_mem::TimingParams;
use tlbsim_mmu::TlbConfig;
use tlbsim_sim::{
    run_app, sweep, sweep_misses, Engine, MissStream, SimConfig, SimError, SweepJob, SweepSpec,
    TimingEngine,
};
use tlbsim_workloads::{AccessSource, Scale, StreamSpec, Workload};

/// Arbitrary but reasonably local reference streams: a mix of small hot
/// regions and wide-ranging pages.
fn arb_stream() -> impl Strategy<Value = Vec<MemoryAccess>> {
    prop::collection::vec((0u64..4_000, 0u64..16), 1..2_000).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(page, pc)| MemoryAccess::read(0x400 + pc * 4, page * 4096))
            .collect()
    })
}

/// Streams built from page runs, the shape the batch loop's same-page
/// collapse feeds on: 1–64 references per run, each at a random offset
/// in its page, drawn from 300 pages so runs revisit pages, both
/// resident and evicted.
fn arb_page_runs() -> impl Strategy<Value = Vec<MemoryAccess>> {
    prop::collection::vec((0u64..300, 1u64..=64, 0u64..8, 0u64..4096), 1..240).prop_map(|runs| {
        let mut stream = Vec::new();
        for (page, len, pc, offset) in runs {
            for i in 0..len {
                let vaddr = page * 4096 + (offset + i * 64) % 4096;
                stream.push(MemoryAccess::read(0x400 + pc * 4, vaddr));
            }
        }
        stream
    })
}

/// What happens to both engines between two batches.
#[derive(Debug, Clone, Copy)]
enum BetweenBatches {
    Nothing,
    SetAsid(u16),
    EvictAsid(u16),
    ContextSwitch,
    Recycle,
}

/// A batch-size schedule around the engine's 4096-record batch, each
/// size paired with the operation applied before that batch.
fn arb_schedule() -> impl Strategy<Value = Vec<(usize, BetweenBatches)>> {
    let size = prop_oneof![
        Just(1usize),
        Just(2),
        Just(4095),
        Just(4096),
        Just(4097),
        1usize..5000,
    ];
    let op = prop_oneof![
        Just(BetweenBatches::Nothing),
        (0u16..4).prop_map(BetweenBatches::SetAsid),
        (0u16..4).prop_map(BetweenBatches::EvictAsid),
        Just(BetweenBatches::ContextSwitch),
        Just(BetweenBatches::Recycle),
    ];
    prop::collection::vec((size, op), 1..24)
}

/// Every grid scheme on the paper TLB, plus the paper default scheme on
/// a 4-way set-associative TLB and on a 16-entry TLB.
fn collapse_configs() -> Vec<SimConfig> {
    let mut configs: Vec<SimConfig> = paper_scheme_grid()
        .into_iter()
        .map(|scheme| SimConfig::paper_default().with_prefetcher(scheme))
        .collect();
    configs.push(SimConfig::paper_default().with_tlb(TlbConfig {
        entries: 128,
        assoc: Associativity::ways_of(4),
    }));
    configs.push(SimConfig::paper_default().with_tlb(TlbConfig::fully_associative(16)));
    configs
}

fn apply(engine: &mut Engine, op: BetweenBatches, config: &SimConfig) {
    match op {
        BetweenBatches::Nothing => {}
        BetweenBatches::SetAsid(asid) => engine.set_asid(Asid::new(asid)),
        BetweenBatches::EvictAsid(asid) => engine.evict_asid(Asid::new(asid)),
        BetweenBatches::ContextSwitch => engine.context_switch(),
        BetweenBatches::Recycle => assert!(engine.try_recycle(config)),
    }
}

/// Collapses `records` into page runs at `page_size`, also cutting a
/// run wherever `cut()` says so: runs need not be maximal.
fn collapse_with_cuts(
    records: &[MemoryAccess],
    page_size: PageSize,
    mut cut: impl FnMut() -> bool,
) -> Vec<PageRun> {
    let mut runs: Vec<PageRun> = Vec::new();
    for record in records {
        let page = page_size.page_of(record.vaddr);
        match runs.last_mut() {
            Some(last) if last.page == page && !cut() => last.len += 1,
            _ => runs.push(PageRun {
                pc: record.pc,
                page,
                len: 1,
            }),
        }
    }
    runs
}

/// A deterministic coin for the cut points, seeded per case.
struct Coin(u64);

impl Coin {
    /// The next value of the xorshift sequence.
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// True with probability `1 / one_in`.
    fn flip(&mut self, one_in: u64) -> bool {
        self.next().is_multiple_of(one_in)
    }

    /// A roughly uniform index below `n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The paper TLB, a 4-way set-associative 128-entry TLB and a 16-entry
/// TLB: the geometries the miss-stream oracle records under.
fn oracle_tlbs() -> [TlbConfig; 3] {
    [
        TlbConfig::paper_default(),
        TlbConfig {
            entries: 128,
            assoc: Associativity::ways_of(4),
        },
        TlbConfig::fully_associative(16),
    ]
}

/// Every grid scheme on `tlb`, each with and without residency
/// filtering of prefetch candidates.
fn miss_stream_configs(tlb: TlbConfig) -> Vec<SimConfig> {
    [true, false]
        .into_iter()
        .flat_map(|filter| {
            paper_scheme_grid().into_iter().map(move |scheme| {
                SimConfig::paper_default()
                    .with_tlb(tlb)
                    .with_prefetcher(scheme)
                    .with_prefetch_filtering(filter)
            })
        })
        .collect()
}

/// An in-memory reference stream as a [`sweep`] input.
struct Recorded(Arc<Vec<MemoryAccess>>);

/// A cursor over a [`Recorded`] stream.
struct RecordedCursor {
    records: Arc<Vec<MemoryAccess>>,
    at: usize,
}

impl AccessSource for RecordedCursor {
    fn fill(&mut self, buf: &mut [MemoryAccess]) -> usize {
        let n = buf.len().min(self.records.len() - self.at);
        buf[..n].copy_from_slice(&self.records[self.at..self.at + n]);
        self.at += n;
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let n = n.min((self.records.len() - self.at) as u64);
        self.at += n as usize;
        n
    }
}

impl StreamSpec for Recorded {
    fn name(&self) -> &str {
        "recorded"
    }

    fn workload(&self, _scale: Scale) -> Workload {
        let cursor = RecordedCursor {
            records: Arc::clone(&self.0),
            at: 0,
        };
        Workload::from_source("recorded", Box::new(cursor))
    }

    fn stream_len(&self, _scale: Scale) -> u64 {
        self.0.len() as u64
    }
}

/// `(tag, config)` sweep jobs, tagged by position.
fn tagged(configs: &[SimConfig]) -> Vec<(String, SimConfig)> {
    configs
        .iter()
        .enumerate()
        .map(|(i, config)| (format!("job{i}"), config.clone()))
        .collect()
}

fn any_kind() -> impl Strategy<Value = PrefetcherKind> {
    prop_oneof![
        Just(PrefetcherKind::None),
        Just(PrefetcherKind::Sequential),
        Just(PrefetcherKind::Stride),
        Just(PrefetcherKind::Markov),
        Just(PrefetcherKind::Recency),
        Just(PrefetcherKind::Distance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §2 guarantee: prefetching never changes the TLB miss count,
    /// for any mechanism on any stream.
    #[test]
    fn miss_count_is_prefetcher_invariant(stream in arb_stream(), kind in any_kind()) {
        let mut base = Engine::new(&SimConfig::baseline()).unwrap();
        base.run(stream.iter().copied());
        let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
        let mut engine = Engine::new(&cfg).unwrap();
        engine.run(stream.iter().copied());
        prop_assert_eq!(engine.stats().misses, base.stats().misses);
    }

    /// Counter sanity on arbitrary streams.
    #[test]
    fn counters_are_consistent(stream in arb_stream(), kind in any_kind()) {
        let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
        let mut engine = Engine::new(&cfg).unwrap();
        engine.run(stream.iter().copied());
        let s = engine.stats();
        prop_assert!(s.misses <= s.accesses);
        prop_assert_eq!(s.prefetch_buffer_hits + s.demand_walks, s.misses);
        prop_assert!(s.prefetch_buffer_hits <= s.prefetches_issued);
        prop_assert!(s.accuracy() >= 0.0 && s.accuracy() <= 1.0);
        prop_assert!(s.footprint_pages >= 1);
    }

    /// The timing engine never reports fewer cycles than the ideal
    /// pipeline, and the no-prefetch baseline is exactly base + stalls.
    #[test]
    fn timing_cycles_are_bounded_below(stream in arb_stream(), kind in any_kind()) {
        let params = TimingParams::paper_default();
        let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
        let mut engine = TimingEngine::new(&cfg, params).unwrap();
        engine.run(stream.iter().copied());
        let t = engine.stats();
        prop_assert!(t.cycles >= params.base_cycles(t.accesses) - 1e-6);
        let stalls = t.stall_demand + t.stall_inflight + t.stall_maintenance;
        prop_assert!(
            (t.cycles - (params.base_cycles(t.accesses) + stalls)).abs() < 1e-3,
            "cycles {} vs base+stalls {}",
            t.cycles,
            params.base_cycles(t.accesses) + stalls
        );
    }

    /// Prefetching with the timing model can never beat the ideal of
    /// hiding every single miss.
    #[test]
    fn timing_savings_are_bounded_by_full_coverage(stream in arb_stream()) {
        let params = TimingParams::paper_default();
        let mut base = TimingEngine::new(&SimConfig::baseline(), params).unwrap();
        base.run(stream.iter().copied());
        let mut dp = TimingEngine::new(&SimConfig::paper_default(), params).unwrap();
        dp.run(stream.iter().copied());
        let floor = params.base_cycles(base.stats().accesses);
        prop_assert!(dp.stats().cycles >= floor - 1e-6);
        prop_assert!(base.stats().cycles >= dp.stats().cycles - 1e-6
            || dp.stats().cycles <= base.stats().cycles * 1.25,
            "prefetching should not blow up cycles: {} vs {}",
            dp.stats().cycles, base.stats().cycles);
    }

    /// Functional and timing engines agree on the miss stream.
    #[test]
    fn engines_agree_on_misses(stream in arb_stream(), kind in any_kind()) {
        let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
        let mut f = Engine::new(&cfg).unwrap();
        f.run(stream.iter().copied());
        let mut t = TimingEngine::new(&cfg, TimingParams::paper_default()).unwrap();
        t.run(stream.iter().copied());
        prop_assert_eq!(f.stats().misses, t.stats().misses);
    }

    /// The batched, sink-based run loop produces byte-identical
    /// `SimStats` to the per-access path on arbitrary streams, for every
    /// mechanism.
    #[test]
    fn batched_run_matches_per_access_path(stream in arb_stream(), kind in any_kind()) {
        let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));
        let mut one_by_one = Engine::new(&cfg).unwrap();
        for access in &stream {
            one_by_one.access(access);
        }
        one_by_one.finish();
        let mut batched = Engine::new(&cfg).unwrap();
        batched.run(stream.iter().copied());
        prop_assert_eq!(one_by_one.stats(), batched.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `access_batch` skips the TLB probe for a reference on the page
    /// the previous one looked up or filled, and `access_runs` probes
    /// once per page run. Per-record `access`, which probes every
    /// reference, is the oracle of both: the statistics must agree
    /// after every batch, whatever the batch cuts and whatever context
    /// operations fall between batches. Each batch also reaches
    /// `access_runs` collapsed into runs cut at random records (so not
    /// maximal) and split across calls at random runs.
    #[test]
    fn same_page_collapse_matches_per_record_access(
        stream in arb_page_runs(),
        schedule in arb_schedule(),
        seed in 1u64..u64::MAX,
    ) {
        for config in collapse_configs() {
            let mut coin = Coin(seed);
            let mut oracle = Engine::new(&config).unwrap();
            let mut batched = Engine::new(&config).unwrap();
            let mut by_runs = Engine::new(&config).unwrap();
            let mut at = 0usize;
            for &(size, op) in schedule.iter().cycle() {
                if at == stream.len() {
                    break;
                }
                apply(&mut oracle, op, &config);
                apply(&mut batched, op, &config);
                apply(&mut by_runs, op, &config);
                let chunk = &stream[at..(at + size).min(stream.len())];
                for access in chunk {
                    oracle.access(access);
                }
                batched.access_batch(chunk);
                let runs = collapse_with_cuts(chunk, config.page_size, || coin.flip(8));
                let mut from = 0;
                for to in 1..=runs.len() {
                    if to == runs.len() || coin.flip(16) {
                        by_runs.access_runs(&runs[from..to]);
                        from = to;
                    }
                }
                at += chunk.len();
                prop_assert_eq!(
                    oracle.stats(),
                    batched.stats(),
                    "{} on {:?} diverged after record {}",
                    config.prefetcher.label(),
                    config.tlb,
                    at
                );
                prop_assert_eq!(
                    oracle.stats(),
                    by_runs.stats(),
                    "{} on {:?}: runs diverged after record {}",
                    config.prefetcher.label(),
                    config.tlb,
                    at
                );
            }
            let expected = oracle.finish().clone();
            prop_assert_eq!(&expected, batched.finish());
            prop_assert_eq!(&expected, by_runs.finish());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The TLB misses of a stream are the same under every mechanism,
    /// so `sweep_misses` replays them once recorded. Its statistics
    /// must equal, on every field, a per-scheme `sweep` job streaming
    /// the records and per-record `Engine::access`, for all 30 grid
    /// schemes with and without candidate filtering, on three TLB
    /// geometries and a prefetch buffer of 1, 16 or 64 entries (1 makes
    /// every insert an eviction; 64 is Figure 9's largest). The runs
    /// reach the stream collapsed with random cuts (so not maximal) and
    /// in `push_runs` calls cut at random runs.
    #[test]
    fn miss_stream_sweep_matches_per_scheme_sweeps_and_per_record_access(
        stream in arb_page_runs(),
        seed in 1u64..u64::MAX,
        buffer in prop_oneof![Just(1usize), Just(16), Just(64)],
    ) {
        let spec: SweepSpec = Arc::new(Recorded(Arc::new(stream.clone())));
        let mut coin = Coin(seed);
        for tlb in oracle_tlbs() {
            let configs: Vec<SimConfig> = miss_stream_configs(tlb)
                .into_iter()
                .map(|config| config.with_prefetch_buffer(buffer))
                .collect();
            let page_size = configs[0].page_size;
            let runs = collapse_with_cuts(&stream, page_size, || coin.flip(8));
            let mut misses = MissStream::new(tlb, page_size).unwrap();
            let mut from = 0;
            for to in 1..=runs.len() {
                if to == runs.len() || coin.flip(16) {
                    misses.push_runs(&runs[from..to]);
                    from = to;
                }
            }
            prop_assert_eq!(misses.accesses(), stream.len() as u64);

            let replayed = sweep_misses("recorded", &misses, tagged(&configs)).unwrap();
            let jobs = tagged(&configs)
                .into_iter()
                .map(|(tag, config)| SweepJob {
                    tag,
                    spec: Arc::clone(&spec),
                    scale: Scale::TINY,
                    config,
                })
                .collect();
            let swept = sweep(jobs).unwrap();
            for ((config, replayed), swept) in configs.iter().zip(&replayed).zip(&swept) {
                let mut oracle = Engine::new(config).unwrap();
                for access in &stream {
                    oracle.access(access);
                }
                let expected = oracle.finish();
                prop_assert_eq!(&replayed.tag, &swept.tag);
                prop_assert_eq!(&replayed.app, "recorded");
                prop_assert_eq!(
                    &replayed.stats,
                    expected,
                    "{} on {:?}, buffer {}, filter {}: miss replay diverged",
                    config.prefetcher.label(),
                    tlb,
                    buffer,
                    config.filter_prefetches
                );
                prop_assert_eq!(&swept.stats, expected);
                prop_assert_eq!(replayed.stats.misses, misses.misses());
            }
        }
    }
}

/// A [`Recorded`] stream that counts the workloads made from it: one
/// per stream a sweep records or streams.
struct Counted {
    name: &'static str,
    records: Recorded,
    workloads: AtomicUsize,
}

impl Counted {
    fn new(name: &'static str, records: Vec<MemoryAccess>) -> Arc<Self> {
        Arc::new(Counted {
            name,
            records: Recorded(Arc::new(records)),
            workloads: AtomicUsize::new(0),
        })
    }
}

impl StreamSpec for Counted {
    fn name(&self) -> &str {
        self.name
    }

    fn workload(&self, scale: Scale) -> Workload {
        self.workloads.fetch_add(1, Ordering::Relaxed);
        self.records.workload(scale)
    }

    fn stream_len(&self, scale: Scale) -> u64 {
        self.records.stream_len(scale)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `sweep` groups its jobs by spec, scale, TLB geometry and page
    /// size, records one miss stream per group and replays the group's
    /// jobs over it. One call whose jobs interleave two specs, three
    /// TLB geometries, two page sizes and random grid schemes, plus a
    /// job alone in its group, must return, in submission order, for
    /// every job exactly what `run_app` gives it on every `SimStats`
    /// field, and make exactly one workload per group.
    #[test]
    fn grouped_sweep_matches_run_app_per_job(
        first in arb_page_runs(),
        second in arb_page_runs(),
        seed in 1u64..u64::MAX,
    ) {
        let mut coin = Coin(seed);
        let grid = paper_scheme_grid();
        let schemes: Vec<PrefetcherConfig> =
            (0..4).map(|_| grid[coin.below(grid.len())].clone()).collect();
        let page_sizes = [PageSize::DEFAULT, PageSize::new(8192).unwrap()];
        let alone = Counted::new("alone", first.clone());
        let specs = [Counted::new("first", first), Counted::new("second", second)];

        let mut jobs = Vec::new();
        for spec in &specs {
            for tlb in oracle_tlbs() {
                for page_size in page_sizes {
                    for scheme in &schemes {
                        let mut config = SimConfig::paper_default()
                            .with_tlb(tlb)
                            .with_prefetcher(scheme.clone())
                            .with_prefetch_filtering(!coin.flip(3));
                        config.page_size = page_size;
                        let spec: SweepSpec = Arc::clone(spec) as SweepSpec;
                        jobs.push((spec, config));
                    }
                }
            }
        }
        jobs.push((Arc::clone(&alone) as SweepSpec, SimConfig::paper_default()));
        // Fisher-Yates with the coin, so groups interleave.
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, coin.below(i + 1));
        }

        let swept = sweep(
            jobs.iter()
                .enumerate()
                .map(|(i, (spec, config))| SweepJob {
                    tag: format!("job{i}"),
                    spec: Arc::clone(spec),
                    scale: Scale::TINY,
                    config: config.clone(),
                })
                .collect(),
        )
        .unwrap();
        let groups = oracle_tlbs().len() * page_sizes.len();
        for spec in &specs {
            prop_assert_eq!(spec.workloads.load(Ordering::Relaxed), groups, "{}", spec.name);
        }
        prop_assert_eq!(alone.workloads.load(Ordering::Relaxed), 1);

        prop_assert_eq!(swept.len(), jobs.len());
        for (i, (result, (spec, config))) in swept.iter().zip(&jobs).enumerate() {
            prop_assert_eq!(&result.tag, &format!("job{i}"));
            prop_assert_eq!(result.app.as_str(), spec.name());
            let expected = run_app(spec.as_ref(), Scale::TINY, config).unwrap();
            prop_assert_eq!(
                &result.stats,
                &expected,
                "{} on {:?} at {}: grouped sweep diverged",
                config.prefetcher.label(),
                config.tlb,
                config.page_size
            );
        }
    }
}

/// Miss streams longer than one storage chunk, from real application
/// models, replay every grid scheme exactly as `sweep` runs it, on
/// fresh and on recycled engines.
#[test]
fn miss_stream_sweep_matches_sweep_on_apps() {
    use tlbsim_workloads::find_app;

    let configs = miss_stream_configs(TlbConfig::paper_default());
    for name in ["galgel", "mcf"] {
        let app = find_app(name).expect("registered app");
        let config = &configs[0];
        let mut misses = MissStream::new(config.tlb, config.page_size).unwrap();
        let mut workload = app.workload(Scale::TINY);
        let mut runs = vec![PageRun::default(); 777];
        loop {
            let (filled, _) = workload.fill_runs(config.page_size, &mut runs, u64::MAX);
            if filled == 0 {
                break;
            }
            misses.push_runs(&runs[..filled]);
        }
        assert!(misses.misses() > 4096, "{name} must span several chunks");
        let replayed = sweep_misses(name, &misses, tagged(&configs)).unwrap();
        let jobs = tagged(&configs)
            .into_iter()
            .map(|(tag, config)| SweepJob {
                tag,
                spec: Arc::new(app),
                scale: Scale::TINY,
                config,
            })
            .collect();
        let swept = sweep(jobs).unwrap();
        for (replayed, swept) in replayed.iter().zip(&swept) {
            assert_eq!(replayed.tag, swept.tag);
            assert_eq!(replayed.stats, swept.stats, "{name}/{}", replayed.tag);
        }
        // A recycled engine replays the stream as a fresh one does.
        let mut engine = Engine::new(config).unwrap();
        engine.replay_misses(&misses).unwrap();
        assert!(engine.try_recycle(config));
        assert_eq!(engine.replay_misses(&misses).unwrap(), &swept[0].stats);
    }
}

/// A miss stream only drives configurations of its own TLB geometry
/// and page size; anything else is a typed error, from the sweep and
/// from the engine alike.
#[test]
fn miss_stream_rejects_a_foreign_tlb_geometry_or_page_size() {
    let config = SimConfig::paper_default();
    let mut misses = MissStream::new(config.tlb, config.page_size).unwrap();
    misses.push_runs(&collapse_with_cuts(
        &(0..500u64)
            .map(|i| MemoryAccess::read(0x40, (i % 300) * 4096))
            .collect::<Vec<_>>(),
        config.page_size,
        || false,
    ));
    let mut huge_pages = config.clone();
    huge_pages.page_size = PageSize::new(8192).unwrap();
    let [_, four_way, small] = oracle_tlbs();
    for foreign in [
        config.clone().with_tlb(four_way),
        config.clone().with_tlb(small),
        huge_pages,
    ] {
        let jobs = vec![
            ("native".to_owned(), config.clone()),
            ("foreign".to_owned(), foreign.clone()),
        ];
        let err = sweep_misses("laps", &misses, jobs).unwrap_err();
        assert!(matches!(err, SimError::MissStreamMismatch { .. }), "{err}");
        assert!(err.to_string().contains("miss stream"), "{err}");
        let mut engine = Engine::new(&foreign).unwrap();
        assert!(matches!(
            engine.replay_misses(&misses),
            Err(SimError::MissStreamMismatch { .. })
        ));
    }
}

/// The streamed `run_workload` (fill_runs + access_runs) path must be
/// byte-identical to driving the engine one access at a time, on real
/// application models — one strided (galgel) and one chase-heavy (mcf),
/// under every mechanism.
#[test]
fn workload_streaming_matches_per_access_path_on_apps() {
    use tlbsim_workloads::{find_app, Scale};

    for app_name in ["galgel", "mcf"] {
        let app = find_app(app_name).expect("registered app");
        for kind in [
            PrefetcherKind::Sequential,
            PrefetcherKind::Stride,
            PrefetcherKind::Markov,
            PrefetcherKind::Recency,
            PrefetcherKind::Distance,
        ] {
            let cfg = SimConfig::paper_default().with_prefetcher(PrefetcherConfig::new(kind));

            let mut per_access = Engine::new(&cfg).unwrap();
            for access in app.workload(Scale::TINY) {
                per_access.access(&access);
            }
            per_access.finish();

            let mut streamed = Engine::new(&cfg).unwrap();
            streamed.run_workload(&mut app.workload(Scale::TINY));

            assert_eq!(
                per_access.stats(),
                streamed.stats(),
                "{app_name}/{kind:?}: streamed stats diverged from per-access stats"
            );
        }
    }
}
