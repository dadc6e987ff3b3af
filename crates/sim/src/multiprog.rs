//! Multiprogrammed (interleaved) execution with context-switch
//! semantics.
//!
//! The plain runners treat a [`MultiStreamSpec`] like any other stream:
//! `run_app(&mix, …)` simulates the interleave as one merged reference
//! stream (the mix implements `StreamSpec`). What they cannot do is see
//! the *switches* — the paper's §4 names flushing translation and
//! prediction state across context switches as the open multiprogramming
//! question, and per-tenant attribution is what makes a consolidated
//! result legible. This module adds the switch-aware entry points:
//!
//! * [`run_mix`] walks the interleave slice-by-slice (the schedule's
//!   own decisions, via [`MultiStreamSpec::segments`]) under a
//!   [`SwitchPolicy`] — keep state across switches, flush everything
//!   ([`Engine::context_switch`]), or retag it with per-stream ASIDs so
//!   switches are flush-free — and attributes every slice's accesses,
//!   misses, prefetch outcomes and demand footprint to its stream in
//!   [`SimStats::per_stream`];
//! * [`run_mix_sharded`] partitions the interleave across worker threads
//!   and folds per-shard statistics through the exact machinery of
//!   [`run_app_sharded`](crate::run_app_sharded) — the same
//!   [`execute`](crate::execute) pool and attempt loop, and the same
//!   fold ([`SimStats::merge`] carries the per-stream breakdown,
//!   aggregate and per-stream footprints are recomputed as unions,
//!   boundary prefetch-buffer residency is surfaced).
//!
//! Both run one slice loop over a list of machines: one machine for
//! `None`, `FlushOnSwitch` and shared-table ASID switching, one per
//! stream for partitioned tables. Only the switch action depends on the
//! policy, and every policy attributes a slice by the counter delta it
//! left on its machine.
//!
//! ## The ASID model
//!
//! Under [`SwitchPolicy::Asid`] every stream runs as `Asid(i)` (its mix
//! index). A switch retags the TLB, prefetch buffer, prediction table
//! and the mechanism's banked registers instead of flushing them; the
//! page table stays shared and untagged — it is the global translation
//! oracle, which keeps footprints comparable across policies. At most
//! `contexts` ASIDs are *live*: activating a stream beyond that recycles
//! the least-recently-activated slot by evicting every trace of its
//! context ([`Engine::evict_asid`]). The degeneration rule follows:
//! with `contexts = 1` the sole live context is fully evicted at every
//! switch, which is bit-identical to [`SwitchPolicy::FlushOnSwitch`] —
//! the differential oracle the equivalence tests pin.
//!
//! [`TablePolicy`] picks where competition happens: `Shared` runs one
//! machine whose tagged structures compete for capacity across
//! contexts; `Partitioned` gives each stream a private TLB, buffer and
//! table (per-stream static partition), with slot recycling flushing
//! the victim's private machine.
//!
//! ## Why sharding stays exact
//!
//! A shard starts cold: empty TLB, empty buffer, unlearned tables. Under
//! `FlushOnSwitch` that is *exactly* the machine state a sequential
//! run has immediately after a context switch — so cutting the stream
//! only at switches makes the sharded run **bit-identical** to the
//! sequential one (pinned by the differential tests), and the
//! degenerate `Asid { contexts: 1, .. }` inherits the same exactness
//! through the degeneration rule. `Asid` with `Partitioned` tables and
//! `contexts >= n_streams` shards at *stream* granularity instead: no
//! context is ever evicted and the private machines are independent, so
//! assigning whole streams to shards is embarrassingly parallel and
//! bit-identical to sequential at every shard count. The remaining
//! configurations (shared competitive tables with surviving state)
//! shard at switch boundaries with the same bounded cold-start effects
//! as ordinary sharding, quantified by
//! [`ShardedRun::boundary_resident_prefetches`].

use serde::{Deserialize, Serialize};
use tlbsim_core::Asid;
use tlbsim_workloads::{MultiStreamSpec, Scale, StreamSpec, Workload};

use crate::config::{SimConfig, SimError};
use crate::engine::Engine;
use crate::shard::{fold_shards, run_shards_recovering, ShardHarvest, ShardRange, ShardedRun};
use crate::stats::{PerStreamStats, SimStats, StreamStats};

/// Where an ASID-switched machine's competitive structures live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TablePolicy {
    /// One machine: TLB, prefetch buffer and prediction table are tagged
    /// and *shared* — contexts compete for capacity the way co-scheduled
    /// tenants compete for a physical TLB.
    Shared,
    /// Per-stream private machines: each stream gets its own TLB, buffer
    /// and table (a static partition); recycling a live slot flushes the
    /// victim's private machine.
    Partitioned,
}

/// What happens to translation and prediction state at a context switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchPolicy {
    /// Switches are invisible: all state survives untagged (the
    /// optimistic upper bound — streams can hit on each other's
    /// entries).
    None,
    /// Every switch flushes the TLB, the prefetch buffer and the
    /// mechanism's learned state ([`Engine::context_switch`]); the page
    /// table survives. This is the paper's §4 pessimistic model and the
    /// differential oracle ASID mode degenerates to.
    FlushOnSwitch,
    /// Flush-free switching: stream `i` runs tagged as `Asid(i)`, with
    /// at most `contexts` tags live at once — activating a stream beyond
    /// that evicts the least-recently-activated context entirely. With
    /// `contexts = 1` this degenerates bit-identically to
    /// [`FlushOnSwitch`](SwitchPolicy::FlushOnSwitch).
    Asid {
        /// Live-context budget (hardware ASID slots). Must be at least
        /// 1; `>= n_streams` means no context is ever evicted.
        contexts: usize,
        /// Shared competitive structures or per-stream partitions.
        tables: TablePolicy,
    },
}

impl SwitchPolicy {
    /// Validates the policy itself (stream-count-independent).
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        match self {
            SwitchPolicy::Asid { contexts: 0, .. } => Err(SimError::ZeroAsidContexts),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for SwitchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchPolicy::None => f.write_str("no flush"),
            SwitchPolicy::FlushOnSwitch => f.write_str("flush on switch"),
            SwitchPolicy::Asid { contexts, tables } => write!(
                f,
                "asid ({} contexts, {} tables)",
                contexts,
                match tables {
                    TablePolicy::Shared => "shared",
                    TablePolicy::Partitioned => "partitioned",
                }
            ),
        }
    }
}

/// The attribution-relevant difference between two engine snapshots —
/// what one slice of one stream contributed.
fn share_between(before: &SimStats, after: &SimStats) -> StreamStats {
    StreamStats {
        accesses: after.accesses - before.accesses,
        misses: after.misses - before.misses,
        prefetch_buffer_hits: after.prefetch_buffer_hits - before.prefetch_buffer_hits,
        demand_walks: after.demand_walks - before.demand_walks,
        prefetches_issued: after.prefetches_issued - before.prefetches_issued,
        // Footprints are sets, not deltas: the runner overwrites them
        // from the engine's per-stream page sets once the run is done.
        footprint_pages: 0,
    }
}

/// Moves `stream` to the most-recently-activated end of the live list,
/// returning the least-recently-activated victim if a slot had to be
/// recycled to admit it.
fn activate_asid(live: &mut Vec<usize>, stream: usize, contexts: usize) -> Option<usize> {
    if let Some(pos) = live.iter().position(|&s| s == stream) {
        live.remove(pos);
        live.push(stream);
        return None;
    }
    let victim = if live.len() == contexts {
        Some(live.remove(0))
    } else {
        None
    };
    live.push(stream);
    victim
}

/// Runs a multiprogrammed interleave through the functional engine with
/// context-switch semantics and per-stream attribution.
///
/// Slices execute in schedule order under `policy` (see
/// [`SwitchPolicy`]). Each slice's counter deltas are attributed to its
/// stream in the returned [`SimStats::per_stream`] breakdown, and each
/// stream's demand footprint (distinct pages it missed on) is recorded
/// in [`StreamStats::footprint_pages`].
///
/// A 1-stream mix has no switches, so — whatever the policy — the
/// result equals the plain [`run_app`](crate::run_app) on that stream
/// (the aggregate counters bit-identically; `per_stream` additionally
/// holds the single stream's full share).
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is invalid, or
/// [`SimError::ZeroAsidContexts`] for an ASID policy with no live slots.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tlbsim_sim::{run_mix, SimConfig, SwitchPolicy};
/// use tlbsim_workloads::{find_app, MultiStreamSpec, Scale, Schedule, StreamSpec};
///
/// let mix = MultiStreamSpec::new(
///     vec![
///         Arc::new(find_app("gap").expect("registered")) as Arc<dyn StreamSpec>,
///         Arc::new(find_app("mcf").expect("registered")),
///     ],
///     Schedule::RoundRobin { quantum: 10_000 },
/// )
/// .expect("valid mix");
/// let stats = run_mix(&mix, Scale::TINY, &SimConfig::paper_default(), SwitchPolicy::FlushOnSwitch)?;
///
/// // Attribution is exhaustive: the per-stream shares sum back to the
/// // aggregate counters.
/// assert_eq!(stats.per_stream.len(), 2);
/// let attributed: u64 = stats.per_stream.streams().iter().map(|s| s.accesses).sum();
/// assert_eq!(attributed, stats.accesses);
/// # Ok::<(), tlbsim_sim::SimError>(())
/// ```
pub fn run_mix(
    mix: &MultiStreamSpec,
    scale: Scale,
    config: &SimConfig,
    policy: SwitchPolicy,
) -> Result<SimStats, SimError> {
    policy.validate()?;
    drop(Engine::new(config)?);
    let slices = switch_slices(mix, scale);
    Ok(run_slices(mix, scale, config, policy, &slices).stats)
}

/// One switch-delimited run of consecutive same-stream segments — the
/// unit shard boundaries may fall on.
#[derive(Debug, Clone, Copy)]
struct MixSlice {
    stream: usize,
    start_in_stream: u64,
    len: u64,
}

/// Coalesces the schedule's segments into switch-delimited slices.
/// Consecutive segments of the same stream (the tail once every other
/// stream has exhausted) fuse, so a boundary between any two slices is
/// always a genuine context switch.
fn switch_slices(mix: &MultiStreamSpec, scale: Scale) -> Vec<MixSlice> {
    let mut slices: Vec<MixSlice> = Vec::new();
    for segment in mix.segments(scale) {
        match slices.last_mut() {
            Some(last) if last.stream == segment.stream => last.len += segment.len,
            _ => slices.push(MixSlice {
                stream: segment.stream,
                start_in_stream: segment.start,
                len: segment.len,
            }),
        }
    }
    slices
}

/// Partitions `slices` into `shards` contiguous groups of roughly equal
/// access counts, cutting only between slices. Returns per-shard slice
/// index ranges alongside the equivalent access-stream [`ShardRange`]s.
fn plan_slice_groups(
    slices: &[MixSlice],
    shards: usize,
) -> (Vec<std::ops::Range<usize>>, Vec<ShardRange>) {
    let total: u64 = slices.iter().map(|s| s.len).sum();
    let mut groups = Vec::with_capacity(shards);
    let mut ranges = Vec::with_capacity(shards);
    let mut next_slice = 0usize;
    let mut position = 0u64;
    for shard in 0..shards {
        let target = (shard as u64 + 1) * total / shards as u64;
        let start_slice = next_slice;
        let start_position = position;
        while next_slice < slices.len() && (position < target || shard + 1 == shards) {
            position += slices[next_slice].len;
            next_slice += 1;
        }
        groups.push(start_slice..next_slice);
        ranges.push(ShardRange {
            start: start_position,
            len: position - start_position,
        });
    }
    (groups, ranges)
}

/// Positions (lazily creating) the cached workload for `slice`.
///
/// Within a slice group each stream's slices are consecutive chunks of
/// that stream, so later slices continue without reseeking.
fn positioned_workload<'w>(
    mix: &MultiStreamSpec,
    scale: Scale,
    workloads: &'w mut [Option<Workload>],
    slice: &MixSlice,
) -> &'w mut Workload {
    match &mut workloads[slice.stream] {
        Some(w) => w,
        none => {
            let mut fresh = mix.streams()[slice.stream].workload(scale);
            let skipped = fresh.skip_accesses(slice.start_in_stream);
            debug_assert_eq!(
                skipped, slice.start_in_stream,
                "stream shorter than planned"
            );
            none.insert(fresh)
        }
    }
}

/// Executes a group of slices under `policy` on fresh machine state and
/// harvests statistics, page sets and buffer residency — the kernel of
/// [`run_mix`] (all slices, one group) and the sharded executors (one
/// group per worker).
///
/// [`TablePolicy::Partitioned`] gives every stream a private machine;
/// every other policy runs all streams on one. Machines are built on a
/// stream's first slice. Only the switch action depends on the policy:
/// a flush when the running stream changes (`FlushOnSwitch`), a retag
/// of the shared machine that evicts a recycled context first (shared
/// ASID), or a flush of a recycled victim's private machine
/// (partitioned ASID — a private machine carries no foreign state).
/// Each slice's counter deltas are attributed to its stream, and the
/// harvest merges the machines in index order, with the footprint and
/// the per-stream footprints recomputed as unions of their page sets.
fn run_slices(
    mix: &MultiStreamSpec,
    scale: Scale,
    config: &SimConfig,
    policy: SwitchPolicy,
    slices: &[MixSlice],
) -> ShardHarvest {
    let n = mix.streams().len();
    let partitioned = matches!(
        policy,
        SwitchPolicy::Asid {
            tables: TablePolicy::Partitioned,
            ..
        }
    );
    let mut machines: Vec<Option<Engine>> =
        (0..if partitioned { n } else { 1 }).map(|_| None).collect();
    let mut per = PerStreamStats::with_streams(n);
    let mut workloads: Vec<Option<Workload>> = (0..n).map(|_| None).collect();
    let mut live: Vec<usize> = Vec::new();
    let mut running: Option<usize> = None;
    for slice in slices {
        let victim = match policy {
            SwitchPolicy::Asid { contexts, .. } => activate_asid(&mut live, slice.stream, contexts),
            _ => None,
        };
        if partitioned {
            if let Some(machine) = victim.and_then(|victim| machines[victim].as_mut()) {
                machine.context_switch();
            }
        }
        let engine =
            machines[if partitioned { slice.stream } else { 0 }].get_or_insert_with(|| {
                Engine::new(config).expect("configuration validated by the caller")
            });
        match policy {
            SwitchPolicy::FlushOnSwitch if running.is_some_and(|r| r != slice.stream) => {
                engine.context_switch();
            }
            SwitchPolicy::Asid {
                tables: TablePolicy::Shared,
                ..
            } => {
                if let Some(victim) = victim {
                    engine.evict_asid(Asid::new(victim as u16));
                }
                engine.set_asid(Asid::new(slice.stream as u16));
            }
            _ => {}
        }
        running = Some(slice.stream);
        engine.attribute_to(slice.stream);
        let workload = positioned_workload(mix, scale, &mut workloads, slice);
        let before = engine.stats().clone();
        engine.run_workload_limit(workload, slice.len);
        let share = share_between(&before, engine.stats());
        debug_assert_eq!(
            share.accesses, slice.len,
            "stream {} ended before its reported stream_len",
            slice.stream
        );
        per.record(slice.stream, &share);
    }

    let mut harvest = ShardHarvest::merge(
        machines
            .into_iter()
            .flatten()
            .map(ShardHarvest::of)
            .collect(),
    );
    for (stream, pages) in harvest.stream_pages.iter().enumerate() {
        per.set_footprint(stream, pages.len() as u64);
    }
    harvest.stats.per_stream = per;
    harvest
}

/// Partitions a multiprogrammed interleave across `shards` worker
/// threads and merges the per-shard statistics deterministically,
/// per-stream attribution and footprints included.
///
/// The fold is the sharded executor's own: counters merge in shard order
/// via [`SimStats::merge`] (which carries [`SimStats::per_stream`]
/// positionally), and the merged aggregate *and per-stream* footprints
/// are recomputed as exact unions of the shards' page sets. The cut
/// strategy follows the policy:
///
/// * `Asid` with [`TablePolicy::Partitioned`] and `contexts >=
///   n_streams` shards at **stream granularity** (whole streams
///   assigned to shards, balanced by stream length): no context is ever
///   evicted and the private machines are independent, so the result is
///   bit-identical to the sequential run at every shard count;
/// * every other policy cuts at **switch boundaries**. With `shards =
///   1` the result is bit-identical to [`run_mix`]; with
///   [`SwitchPolicy::FlushOnSwitch`] — or its degenerate twin
///   `Asid { contexts: 1, .. }` — it is bit-identical at every shard
///   count, because each shard boundary coincides with a state wipe the
///   sequential run performs anyway. Shared-table ASID runs with more
///   live contexts approximate, like ordinary sharding, with the error
///   quantified by [`ShardedRun::boundary_resident_prefetches`].
///
/// Like [`run_app_sharded`](crate::run_app_sharded), the executor is
/// self-healing: panicking shard workers are retried then degraded to
/// in-line execution, with recovery (and any quarantined trace records
/// among the mix's members) reported in [`ShardedRun::health`].
///
/// # Errors
///
/// Returns [`SimError::ZeroShards`] for `shards == 0`,
/// [`SimError::ZeroAsidContexts`] for an ASID policy with no live
/// slots, the configuration's own error if it is invalid, or
/// [`SimError::ShardPanicked`] for a persistently panicking shard.
pub fn run_mix_sharded(
    mix: &MultiStreamSpec,
    scale: Scale,
    config: &SimConfig,
    policy: SwitchPolicy,
    shards: usize,
) -> Result<ShardedRun, SimError> {
    if shards == 0 {
        return Err(SimError::ZeroShards);
    }
    policy.validate()?;
    // Validate once, up front, so workers can assume constructibility.
    drop(Engine::new(config)?);

    let (groups, ranges) = match policy {
        SwitchPolicy::Asid {
            contexts,
            tables: TablePolicy::Partitioned,
        } if contexts >= mix.streams().len() => plan_stream_groups(mix, scale, shards),
        _ => {
            let slices = switch_slices(mix, scale);
            let (groups, ranges) = plan_slice_groups(&slices, shards);
            let groups = groups.into_iter().map(|g| slices[g].to_vec()).collect();
            (groups, ranges)
        }
    };
    let (harvests, mut health) = run_shards_recovering(shards, |index| {
        run_slices(mix, scale, config, policy, &groups[index])
    })?;
    health.quarantined_records = mix.quarantined_records();
    Ok(fold_shards(harvests, &ranges, health))
}

/// Stream-granular plan for eviction-free partitioned ASID runs: whole
/// streams are assigned to shards (greedy longest-processing-time
/// balance on stream length, deterministic tie-breaks), and each shard
/// runs its streams full-length on private engines. Because no slot is
/// ever recycled and machines are private, the interleave order is
/// irrelevant and the fold is bit-identical to the sequential run.
fn plan_stream_groups(
    mix: &MultiStreamSpec,
    scale: Scale,
    shards: usize,
) -> (Vec<Vec<MixSlice>>, Vec<ShardRange>) {
    let n = mix.streams().len();
    let lens = mix.stream_lens(scale);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(lens[i]), i));
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut loads = vec![0u64; shards];
    for stream in order {
        let lightest = (0..shards)
            .min_by_key(|&g| (loads[g], g))
            .expect("at least one shard");
        owned[lightest].push(stream);
        loads[lightest] += lens[stream];
    }
    // Run each shard's streams in mix order; the ranges fabricated here
    // describe attribution volume (cumulative access counts), not
    // positions in the interleaved stream.
    let group_slices: Vec<Vec<MixSlice>> = owned
        .iter_mut()
        .map(|streams| {
            streams.sort_unstable();
            streams
                .iter()
                .map(|&stream| MixSlice {
                    stream,
                    start_in_stream: 0,
                    len: lens[stream],
                })
                .collect()
        })
        .collect();
    let mut ranges = Vec::with_capacity(shards);
    let mut position = 0u64;
    for load in &loads {
        ranges.push(ShardRange {
            start: position,
            len: *load,
        });
        position += load;
    }
    (group_slices, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_app;
    use std::sync::Arc;
    use tlbsim_workloads::{find_app, Schedule};

    fn mix_of(names: &[&str], schedule: Schedule) -> MultiStreamSpec {
        let streams: Vec<Arc<dyn StreamSpec>> = names
            .iter()
            .map(|n| Arc::new(find_app(n).unwrap()) as Arc<dyn StreamSpec>)
            .collect();
        MultiStreamSpec::new(streams, schedule).unwrap()
    }

    #[test]
    fn attribution_is_exhaustive_and_per_stream_lengths_are_exact() {
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 1000 });
        let stats = run_mix(
            &mix,
            Scale::TINY,
            &SimConfig::paper_default(),
            SwitchPolicy::None,
        )
        .unwrap();
        assert_eq!(stats.per_stream.len(), 2);
        for (share, spec) in stats.per_stream.streams().iter().zip(mix.streams()) {
            assert_eq!(share.accesses, spec.stream_len(Scale::TINY));
        }
        let shares = stats.per_stream.streams();
        let sum = |f: fn(&StreamStats) -> u64| -> u64 { shares.iter().map(f).sum() };
        assert_eq!(sum(|s| s.accesses), stats.accesses);
        assert_eq!(sum(|s| s.misses), stats.misses);
        assert_eq!(sum(|s| s.prefetch_buffer_hits), stats.prefetch_buffer_hits);
        assert_eq!(sum(|s| s.demand_walks), stats.demand_walks);
        assert_eq!(sum(|s| s.prefetches_issued), stats.prefetches_issued);
        // Demand footprints are bounded by the aggregate (which also
        // counts prefetched-but-unreferenced pages).
        assert!(sum(|s| s.footprint_pages) <= 2 * stats.footprint_pages);
        assert!(shares.iter().all(|s| s.footprint_pages > 0));
    }

    #[test]
    fn flushing_on_switch_costs_accuracy_never_changes_miss_attribution_totals() {
        let mix = mix_of(&["gap", "eon"], Schedule::RoundRobin { quantum: 500 });
        let config = SimConfig::paper_default();
        let kept = run_mix(&mix, Scale::TINY, &config, SwitchPolicy::None).unwrap();
        let flushed = run_mix(&mix, Scale::TINY, &config, SwitchPolicy::FlushOnSwitch).unwrap();
        assert_eq!(kept.accesses, flushed.accesses);
        assert!(
            flushed.misses >= kept.misses,
            "flushes cannot reduce misses"
        );
        assert!(flushed.accuracy() <= kept.accuracy() + 1e-12);
    }

    #[test]
    fn asid_switching_beats_flushing_and_conserves_attribution() {
        let mix = mix_of(
            &["gap", "mcf", "eon"],
            Schedule::RoundRobin { quantum: 400 },
        );
        let config = SimConfig::paper_default();
        let flushed = run_mix(&mix, Scale::TINY, &config, SwitchPolicy::FlushOnSwitch).unwrap();
        for tables in [TablePolicy::Shared, TablePolicy::Partitioned] {
            let asid = run_mix(
                &mix,
                Scale::TINY,
                &config,
                SwitchPolicy::Asid {
                    contexts: 3,
                    tables,
                },
            )
            .unwrap();
            assert_eq!(asid.accesses, flushed.accesses, "{tables:?}");
            assert!(
                asid.misses <= flushed.misses,
                "{tables:?}: keeping state across switches cannot add misses"
            );
            let attributed: u64 = asid.per_stream.streams().iter().map(|s| s.accesses).sum();
            assert_eq!(attributed, asid.accesses, "{tables:?}");
        }
    }

    #[test]
    fn degenerate_asid_equals_the_flush_oracle() {
        // One live context forces a full eviction at every switch: both
        // table policies must degenerate bit-identically to the flush
        // oracle — the central equivalence of the ASID model.
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 700 });
        let config = SimConfig::paper_default();
        let oracle = run_mix(&mix, Scale::TINY, &config, SwitchPolicy::FlushOnSwitch).unwrap();
        for tables in [TablePolicy::Shared, TablePolicy::Partitioned] {
            let squeezed = run_mix(
                &mix,
                Scale::TINY,
                &config,
                SwitchPolicy::Asid {
                    contexts: 1,
                    tables,
                },
            )
            .unwrap();
            assert_eq!(squeezed, oracle, "{tables:?} degeneration broke");
        }
    }

    #[test]
    fn zero_asid_contexts_is_rejected() {
        let mix = mix_of(&["gap"], Schedule::RoundRobin { quantum: 10 });
        for entry in [
            run_mix(
                &mix,
                Scale::TINY,
                &SimConfig::paper_default(),
                SwitchPolicy::Asid {
                    contexts: 0,
                    tables: TablePolicy::Shared,
                },
            )
            .map(|_| ()),
            run_mix_sharded(
                &mix,
                Scale::TINY,
                &SimConfig::paper_default(),
                SwitchPolicy::Asid {
                    contexts: 0,
                    tables: TablePolicy::Partitioned,
                },
                2,
            )
            .map(|_| ()),
        ] {
            assert!(matches!(entry, Err(SimError::ZeroAsidContexts)));
        }
        assert!(SimError::ZeroAsidContexts
            .to_string()
            .contains("live context"));
    }

    #[test]
    fn one_stream_mix_matches_run_app_in_aggregate() {
        let mix = mix_of(&["gap"], Schedule::RoundRobin { quantum: 333 });
        let config = SimConfig::paper_default();
        let plain = run_app(find_app("gap").unwrap(), Scale::TINY, &config).unwrap();
        for policy in [
            SwitchPolicy::None,
            SwitchPolicy::FlushOnSwitch,
            SwitchPolicy::Asid {
                contexts: 1,
                tables: TablePolicy::Shared,
            },
            SwitchPolicy::Asid {
                contexts: 4,
                tables: TablePolicy::Partitioned,
            },
        ] {
            let mut mixed = run_mix(&mix, Scale::TINY, &config, policy).unwrap();
            assert_eq!(mixed.per_stream.len(), 1);
            assert_eq!(mixed.per_stream.streams()[0].accesses, plain.accesses);
            mixed.per_stream = PerStreamStats::default();
            assert_eq!(mixed, plain, "policy {policy}");
        }
    }

    #[test]
    fn slice_groups_partition_exactly_at_switch_boundaries() {
        let mix = mix_of(
            &["gap", "mcf", "eon"],
            Schedule::RoundRobin { quantum: 700 },
        );
        let slices = switch_slices(&mix, Scale::TINY);
        assert!(slices.windows(2).all(|w| w[0].stream != w[1].stream));
        let total: u64 = slices.iter().map(|s| s.len).sum();
        assert_eq!(total, mix.stream_len(Scale::TINY));
        for shards in [1usize, 2, 4, 64] {
            let (groups, ranges) = plan_slice_groups(&slices, shards);
            assert_eq!(groups.len(), shards);
            assert_eq!(ranges.len(), shards);
            // Groups are contiguous, disjoint and exhaustive.
            let mut next = 0usize;
            let mut position = 0u64;
            for (group, range) in groups.iter().zip(&ranges) {
                assert_eq!(group.start, next);
                next = group.end;
                assert_eq!(range.start, position);
                let len: u64 = slices[group.clone()].iter().map(|s| s.len).sum();
                assert_eq!(range.len, len);
                position += len;
            }
            assert_eq!(next, slices.len());
            assert_eq!(position, total);
        }
    }

    #[test]
    fn sharded_mix_with_flush_is_bit_identical_to_sequential() {
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 800 });
        let config = SimConfig::paper_default();
        let sequential = run_mix(&mix, Scale::TINY, &config, SwitchPolicy::FlushOnSwitch).unwrap();
        for shards in [1usize, 2, 4] {
            let sharded = run_mix_sharded(
                &mix,
                Scale::TINY,
                &config,
                SwitchPolicy::FlushOnSwitch,
                shards,
            )
            .unwrap();
            assert_eq!(
                sharded.merged, sequential,
                "{shards} shards diverged under flush-on-switch"
            );
        }
    }

    #[test]
    fn sharded_partitioned_asid_is_bit_identical_to_sequential() {
        let mix = mix_of(
            &["gap", "mcf", "eon"],
            Schedule::RoundRobin { quantum: 900 },
        );
        let config = SimConfig::paper_default();
        let policy = SwitchPolicy::Asid {
            contexts: 3,
            tables: TablePolicy::Partitioned,
        };
        let sequential = run_mix(&mix, Scale::TINY, &config, policy).unwrap();
        for shards in [1usize, 2, 4] {
            let sharded = run_mix_sharded(&mix, Scale::TINY, &config, policy, shards).unwrap();
            assert_eq!(
                sharded.merged, sequential,
                "{shards} stream-granular shards diverged"
            );
            let covered: u64 = sharded.shards.iter().map(|s| s.range.len).sum();
            assert_eq!(covered, mix.stream_len(Scale::TINY));
        }
    }

    #[test]
    fn sharded_mix_without_flush_conserves_accesses_and_attribution() {
        let mix = mix_of(&["gap", "eon"], Schedule::RoundRobin { quantum: 900 });
        let config = SimConfig::paper_default();
        let sequential = run_mix(&mix, Scale::TINY, &config, SwitchPolicy::None).unwrap();
        for shards in [1usize, 2, 4] {
            let sharded =
                run_mix_sharded(&mix, Scale::TINY, &config, SwitchPolicy::None, shards).unwrap();
            assert_eq!(sharded.merged.accesses, sequential.accesses);
            assert_eq!(sharded.merged.per_stream.len(), 2);
            for (share, expected) in sharded
                .merged
                .per_stream
                .streams()
                .iter()
                .zip(sequential.per_stream.streams())
            {
                assert_eq!(share.accesses, expected.accesses, "shards={shards}");
            }
            if shards == 1 {
                assert_eq!(sharded.merged, sequential, "one shard must be sequential");
            }
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let mix = mix_of(&["gap"], Schedule::RoundRobin { quantum: 10 });
        assert!(matches!(
            run_mix_sharded(
                &mix,
                Scale::TINY,
                &SimConfig::paper_default(),
                SwitchPolicy::None,
                0
            ),
            Err(SimError::ZeroShards)
        ));
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let mix = mix_of(&["gap"], Schedule::RoundRobin { quantum: 10 });
        let bad = SimConfig::paper_default().with_prefetch_buffer(0);
        assert!(matches!(
            run_mix_sharded(&mix, Scale::TINY, &bad, SwitchPolicy::None, 2),
            Err(SimError::ZeroPrefetchBuffer)
        ));
        assert!(matches!(
            run_mix(&mix, Scale::TINY, &bad, SwitchPolicy::None),
            Err(SimError::ZeroPrefetchBuffer)
        ));
    }

    #[test]
    fn mix_recovery_from_a_transient_panic_is_bit_identical_under_flush() {
        use tlbsim_trace::{FaultKind, FaultPlan};
        use tlbsim_workloads::ChaosSpec;

        // One member panics its decoding worker once; under
        // flush-on-switch, the retried sharded run must still match the
        // undisturbed sequential interleave bit-for-bit.
        let gap = Arc::new(find_app("gap").unwrap()) as Arc<dyn StreamSpec>;
        let chaos = Arc::new(ChaosSpec::new(
            Arc::new(find_app("mcf").unwrap()),
            FaultPlan::new().with(3_000, FaultKind::WorkerPanic),
            1,
        )) as Arc<dyn StreamSpec>;
        let faulty = MultiStreamSpec::new(
            vec![Arc::clone(&gap), chaos],
            Schedule::RoundRobin { quantum: 800 },
        )
        .unwrap();
        let clean = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 800 });

        let config = SimConfig::paper_default();
        let sequential =
            run_mix(&clean, Scale::TINY, &config, SwitchPolicy::FlushOnSwitch).unwrap();
        let recovered = run_mix_sharded(
            &faulty,
            Scale::TINY,
            &config,
            SwitchPolicy::FlushOnSwitch,
            2,
        )
        .unwrap();
        assert_eq!(recovered.health.retries, 1);
        assert_eq!(recovered.health.degraded_shards, 0);
        assert_eq!(recovered.health.quarantined_records, 0);
        assert_eq!(
            recovered.merged, sequential,
            "recovered mix must match the clean sequential run"
        );
    }

    #[test]
    fn more_shards_than_slices_leave_empty_tails() {
        let mix = mix_of(&["gap", "mcf"], Schedule::RoundRobin { quantum: 1 << 40 });
        // Giant quantum: exactly two slices. Eight shards → six empty.
        let run = run_mix_sharded(
            &mix,
            Scale::TINY,
            &SimConfig::paper_default(),
            SwitchPolicy::None,
            8,
        )
        .unwrap();
        assert_eq!(run.shards.len(), 8);
        let nonempty = run.shards.iter().filter(|s| s.range.len > 0).count();
        assert_eq!(nonempty, 2);
        assert_eq!(run.merged.accesses, mix.stream_len(Scale::TINY));
    }

    #[test]
    fn switch_policy_displays_are_distinct() {
        let policies = [
            SwitchPolicy::None,
            SwitchPolicy::FlushOnSwitch,
            SwitchPolicy::Asid {
                contexts: 8,
                tables: TablePolicy::Shared,
            },
            SwitchPolicy::Asid {
                contexts: 8,
                tables: TablePolicy::Partitioned,
            },
        ];
        let rendered: Vec<String> = policies.iter().map(|p| p.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &rendered[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
