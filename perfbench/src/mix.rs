//! `asid_mix`: 16 registered models interleaved on one ASID-tagged
//! machine, sharded two ways.
//!
//! The timed operation is `run_mix_sharded` at 2 shards under
//! `SwitchPolicy::Asid { contexts: 8, tables: Shared }` with the DP
//! scheme. Input comes from the generators, not from trace decode; tags
//! are matched on every probe, every switch retags the machine and, with
//! 16 streams on 8 contexts, most switches recycle a context through
//! `evict_asid`; every miss feeds the per-stream attribution sets, and
//! the shard fold merges 16 per-stream rows and footprint unions.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlbsim_core::{Asid, MemoryAccess, PrefetcherConfig};
use tlbsim_sim::{
    run_mix, run_mix_sharded, Engine, PerStreamStats, ShardedRun, SimConfig, SimStats,
    SwitchPolicy, TablePolicy,
};
use tlbsim_workloads::{find_app, MultiStreamSpec, Scale, Schedule, StreamSpec, Workload};

use crate::grid::{record_v2, threads, QUANTA};
use crate::replica::{family, replay_layers, share_between, Replica, BATCH};
use crate::report::{engine_layers, reconcile, Checks, LayerSums, Metrics, Outcome};
use crate::util::{min_time, timed, Digest, StreamSum};
use crate::{latency_metrics, median, Run, SETUPS};

/// Sixteen distinct models across the SPEC int/fp, MediaBench and
/// desktop suites, so the mix holds loops, chases and strided scans.
const APPS: [&str; 16] = [
    "gzip",
    "gcc",
    "mcf",
    "parser",
    "gap",
    "twolf",
    "swim",
    "mgrid",
    "galgel",
    "art",
    "ammp",
    "lucas",
    "adpcm-enc",
    "epic",
    "mpeg-dec",
    "perl4",
];
const CONTEXTS: usize = 8;
const SHARDS: usize = 2;
/// Buffer entries: the most prefetches a cold shard start can fail to
/// evict, relative to a sequential run whose buffer is full there.
const BUFFER_ENTRIES: u64 = 16;

const POLICY: SwitchPolicy = SwitchPolicy::Asid {
    contexts: CONTEXTS,
    tables: TablePolicy::Shared,
};

fn mix_of(seed: u64) -> MultiStreamSpec {
    let streams = APPS
        .iter()
        .map(|name| Arc::new(find_app(name).expect("registered model")) as Arc<dyn StreamSpec>)
        .collect();
    MultiStreamSpec::new(
        streams,
        Schedule::Random {
            seed,
            min_quantum: QUANTA.0,
            max_quantum: QUANTA.1,
        },
    )
    .expect("valid mix")
}

fn config() -> SimConfig {
    SimConfig::paper_default().with_prefetcher(PrefetcherConfig::distance())
}

fn digest_of(stats: &SimStats) -> String {
    let mut d = Digest::new();
    d.stats(stats);
    d.hex()
}

/// Whether the sharded run keeps the sequential run's counters. A shard
/// starts cold where the sequential machine still holds other contexts'
/// prefetches, so only `prefetches_evicted_unused` may differ, by at
/// most one buffer's worth per shard boundary.
fn matches_sequential(sharded: &SimStats, sequential: &SimStats) -> bool {
    let boundary = BUFFER_ENTRIES * (SHARDS as u64 - 1);
    let slack = sharded
        .prefetches_evicted_unused
        .abs_diff(sequential.prefetches_evicted_unused);
    let mut masked = sharded.clone();
    masked.prefetches_evicted_unused = sequential.prefetches_evicted_unused;
    slack <= boundary && &masked == sequential
}

struct Setup {
    mix: MultiStreamSpec,
    records: u64,
    v2_bytes: u64,
    sequential_ok: bool,
    reference: ShardedRun,
}

fn setup(run: &Run) -> Setup {
    let mix = mix_of(run.seed);
    let (records, v2_bytes) = record_v2(&mix, Scale::TINY, &run.work_dir.join("mix.tlbt"));
    let config = config();
    let sequential = run_mix(&mix, Scale::TINY, &config, POLICY).expect("valid mix policy");
    let reference =
        run_mix_sharded(&mix, Scale::TINY, &config, POLICY, SHARDS).expect("valid mix policy");
    Setup {
        sequential_ok: matches_sequential(&reference.merged, &sequential),
        mix,
        records,
        v2_bytes,
        reference,
    }
}

fn mix_once(setup: &Setup, expected: &str, checks: &mut Checks) -> Duration {
    let (result, elapsed) =
        timed(|| run_mix_sharded(&setup.mix, Scale::TINY, &config(), POLICY, SHARDS));
    match result {
        Ok(run) => {
            let digest = digest_of(&run.merged);
            checks.record(
                setup.sequential_ok
                    && run.merged == setup.reference.merged
                    && run.health.is_clean()
                    && digest == expected,
                || format!("mix digest {digest}, expected {expected}"),
            );
        }
        Err(e) => checks.record(false, || format!("mix run failed: {e}")),
    }
    elapsed
}

pub fn run(run: &Run) -> Outcome {
    let mut setup_times = Vec::new();
    let mut current = None;
    for _ in 0..SETUPS {
        let (s, elapsed) = timed(|| setup(run));
        setup_times.push(elapsed.as_secs_f64());
        current = Some(s);
    }
    let setup = current.expect("at least one set-up");
    let digest = digest_of(&setup.reference.merged);
    let expected = run.expect_digest.clone().unwrap_or_else(|| digest.clone());
    let mut checks = Checks::default();
    if run.traced {
        return traced(run, &setup, &expected, digest, checks);
    }

    let mut latencies = Vec::new();
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        latencies.push(mix_once(&setup, &expected, &mut checks).as_secs_f64());
    }
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_times));
    m.set(
        "sim_accesses_per_s",
        setup.records as f64 / median(&latencies),
    );
    m.set("jobs_per_s", 1.0 / median(&latencies));
    latency_metrics(&mut m, &latencies);
    m.set(
        "trace_bytes_per_record",
        setup.v2_bytes as f64 / setup.records as f64,
    );
    Outcome {
        checks,
        digest,
        metrics: m,
        reconciliation: None,
    }
}

/// One switch-delimited run of a single stream.
#[derive(Debug, Clone, Copy)]
struct Slice {
    stream: usize,
    start: u64,
    len: u64,
}

/// The mix's schedule as switch-delimited slices, and the shard groups
/// `run_mix_sharded` cuts them into: contiguous, of roughly equal
/// access counts, cut only between slices.
fn plan(mix: &MultiStreamSpec) -> (Vec<Slice>, Vec<Range<usize>>) {
    let mut slices: Vec<Slice> = Vec::new();
    for segment in mix.segments(Scale::TINY) {
        match slices.last_mut() {
            Some(last) if last.stream == segment.stream => last.len += segment.len,
            _ => slices.push(Slice {
                stream: segment.stream,
                start: segment.start,
                len: segment.len,
            }),
        }
    }
    let total: u64 = slices.iter().map(|s| s.len).sum();
    let mut groups = Vec::new();
    let (mut next, mut position) = (0usize, 0u64);
    for shard in 0..SHARDS {
        let target = (shard as u64 + 1) * total / SHARDS as u64;
        let first = next;
        while next < slices.len() && (position < target || shard + 1 == SHARDS) {
            position += slices[next].len;
            next += 1;
        }
        groups.push(first..next);
    }
    (slices, groups)
}

/// The calls a shard worker makes on its machine.
trait Machine {
    fn set_asid(&mut self, asid: Asid);
    fn evict_asid(&mut self, asid: Asid);
    fn attribute_to(&mut self, stream: usize);
    fn run_limit(&mut self, workload: &mut Workload, limit: u64);
    fn stats(&mut self) -> SimStats;
    fn stream_footprint(&self, stream: usize) -> u64;
}

impl Machine for Engine {
    fn set_asid(&mut self, asid: Asid) {
        Engine::set_asid(self, asid)
    }
    fn evict_asid(&mut self, asid: Asid) {
        Engine::evict_asid(self, asid)
    }
    fn attribute_to(&mut self, stream: usize) {
        Engine::attribute_to(self, stream)
    }
    fn run_limit(&mut self, workload: &mut Workload, limit: u64) {
        self.run_workload_limit(workload, limit);
    }
    fn stats(&mut self) -> SimStats {
        self.finish().clone()
    }
    fn stream_footprint(&self, stream: usize) -> u64 {
        Engine::stream_footprint(self, stream)
    }
}

impl Machine for Replica {
    fn set_asid(&mut self, asid: Asid) {
        Replica::set_asid(self, asid)
    }
    fn evict_asid(&mut self, asid: Asid) {
        Replica::evict_asid(self, asid)
    }
    fn attribute_to(&mut self, stream: usize) {
        Replica::attribute_to(self, stream)
    }
    fn run_limit(&mut self, workload: &mut Workload, limit: u64) {
        self.run_workload_limit(workload, limit);
    }
    fn stats(&mut self) -> SimStats {
        Replica::stats(self).clone()
    }
    fn stream_footprint(&self, stream: usize) -> u64 {
        Replica::stream_footprint(self, stream)
    }
}

/// The workload for `slice`, created and positioned on first use; a
/// stream's later slices in the group continue where it stopped.
fn positioned<'w>(
    mix: &MultiStreamSpec,
    workloads: &'w mut [Option<Workload>],
    slice: &Slice,
) -> &'w mut Workload {
    workloads[slice.stream].get_or_insert_with(|| {
        let mut fresh = mix.streams()[slice.stream].workload(Scale::TINY);
        fresh.skip_accesses(slice.start);
        fresh
    })
}

/// What driving one shard group produced.
struct GroupRun {
    stats: SimStats,
    elapsed: Duration,
    switch_time: Duration,
    evictions: u64,
}

/// One shard worker's schedule on a fresh machine: activate the slice's
/// context (recycling the least recently activated one when all are
/// live), attribute, run the slice, record its share.
fn run_group<M: Machine>(machine: &mut M, mix: &MultiStreamSpec, slices: &[Slice]) -> GroupRun {
    let streams = mix.streams().len();
    let mut per = PerStreamStats::with_streams(streams);
    let mut workloads: Vec<Option<Workload>> = (0..streams).map(|_| None).collect();
    let mut live: Vec<usize> = Vec::new();
    let mut switch_time = Duration::ZERO;
    let mut evictions = 0u64;
    let start = Instant::now();
    for slice in slices {
        let switch = Instant::now();
        if let Some(pos) = live.iter().position(|&s| s == slice.stream) {
            live.remove(pos);
        } else if live.len() == CONTEXTS {
            let victim = live.remove(0);
            machine.evict_asid(Asid::new(victim as u16));
            evictions += 1;
        }
        live.push(slice.stream);
        machine.set_asid(Asid::new(slice.stream as u16));
        switch_time += switch.elapsed();
        machine.attribute_to(slice.stream);
        let workload = positioned(mix, &mut workloads, slice);
        let before = machine.stats();
        machine.run_limit(workload, slice.len);
        per.record(slice.stream, &share_between(&before, &machine.stats()));
    }
    let mut stats = machine.stats();
    let elapsed = start.elapsed();
    for stream in 0..streams {
        per.set_footprint(stream, machine.stream_footprint(stream));
    }
    stats.per_stream = per;
    GroupRun {
        stats,
        elapsed,
        switch_time,
        evictions,
    }
}

/// Generator fill of one group's slices, alone: timed without the
/// checksum, then once more with it.
fn fill_pass(mix: &MultiStreamSpec, slices: &[Slice], sum: Option<&mut StreamSum>) -> Duration {
    let mut workloads: Vec<Option<Workload>> = (0..mix.streams().len()).map(|_| None).collect();
    let mut batch = vec![MemoryAccess::read(0, 0); BATCH];
    let mut sum = sum;
    let start = Instant::now();
    for slice in slices {
        let workload = positioned(mix, &mut workloads, slice);
        let mut remaining = slice.len;
        while remaining > 0 {
            let want = remaining.min(BATCH as u64) as usize;
            let filled = workload.fill_batch(&mut batch[..want]);
            if filled == 0 {
                break;
            }
            if let Some(sum) = sum.as_deref_mut() {
                batch[..filled].iter().for_each(|a| sum.add(a));
            }
            std::hint::black_box(&batch);
            remaining -= filled as u64;
        }
    }
    start.elapsed()
}

/// The traced run: each shard group once on a real `Engine` (the
/// end-to-end span, with switch spans), once on the logging replica,
/// then the layer replays, the generator fill alone and the fold.
fn traced(run: &Run, setup: &Setup, expected: &str, digest: String, mut checks: Checks) -> Outcome {
    let mut m = Metrics::per_layer_zeroed();
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < run.seconds / 2.0 {
        walls.push(mix_once(setup, expected, &mut checks).as_secs_f64());
    }

    let config = config();
    let (slices, groups) = plan(&setup.mix);
    let mut e2e = Duration::ZERO;
    let mut traced_time = Duration::ZERO;
    let mut fill = Duration::ZERO;
    let mut switch_time = Duration::ZERO;
    let mut evictions = 0;
    let mut sums = LayerSums::default();
    for (g, group) in groups.iter().enumerate() {
        let group = &slices[group.clone()];
        let shard = &setup.reference.shards[g];
        let len: u64 = group.iter().map(|s| s.len).sum();
        let mut engine = Engine::new(&config).expect("DP at paper defaults is valid");
        let real = run_group(&mut engine, &setup.mix, group);
        checks.record(real.stats == shard.stats && len == shard.range.len, || {
            format!("shard {g}: the planned slices do not reproduce run_mix_sharded")
        });
        let mut replica = Replica::new(&config);
        let captured = run_group(&mut replica, &setup.mix, group);
        checks.record(captured.stats == real.stats, || {
            format!("shard {g}: replica diverged from Engine")
        });
        let layers = replay_layers(&mut replica);
        checks.record(layers.mismatches == 0, || {
            format!("shard {g}: layer replays diverged from their logs")
        });
        sums.add(family(&config.prefetcher), &layers);

        let mut sum = StreamSum::default();
        fill_pass(&setup.mix, group, Some(&mut sum));
        checks.record(sum == replica.input, || {
            format!("shard {g}: fill replay differs from the captured input")
        });
        fill += min_time(2, || fill_pass(&setup.mix, group, None));
        e2e += real.elapsed;
        traced_time += captured.elapsed;
        switch_time += real.switch_time;
        evictions += real.evictions;
    }
    sums.write(&mut m);
    m.set(
        "workloads.fill_ns_per_access",
        fill.as_nanos() as f64 / setup.records as f64,
    );
    m.set("sim.switches", slices.len() as f64);
    m.set("sim.context_evictions", evictions as f64);
    m.set(
        "sim.switch_ns",
        switch_time.as_nanos() as f64 / slices.len() as f64,
    );

    let mut folded = SimStats::default();
    let fold = min_time(3, || {
        let start = Instant::now();
        for _ in 0..1000 {
            let mut merged = SimStats::default();
            for shard in &setup.reference.shards {
                merged.merge(&shard.stats);
            }
            folded = std::hint::black_box(merged);
        }
        start.elapsed() / 1000
    });
    m.set("sim.fold_ms", fold.as_secs_f64() * 1e3);
    // The library's fold replaces the summed footprints with unions.
    let mut unions = setup.reference.merged.clone();
    unions.footprint_pages = folded.footprint_pages;
    for stream in 0..unions.per_stream.len() {
        let summed = folded.per_stream.streams()[stream].footprint_pages;
        unions.per_stream.set_footprint(stream, summed);
    }
    checks.record(folded == unions, || {
        "fold replay differs from the merged run".to_owned()
    });

    let workers = threads().min(SHARDS) as f64;
    m.set(
        "experiments.sweep_busy_share",
        e2e.as_secs_f64() / (median(&walls) * workers),
    );
    // The shard workers' spans do not hold the fold; it is counted once.
    e2e += fold;
    traced_time += fold;
    let mut layers = vec![("workloads.fill", fill)];
    layers.extend(engine_layers(&sums.layers));
    layers.push(("sim.fold", fold));
    let reconciliation = reconcile(&mut m, e2e, traced_time, &layers);
    Outcome {
        checks,
        digest,
        metrics: m,
        reconciliation: Some(reconciliation),
    }
}
