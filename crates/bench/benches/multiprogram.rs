//! Single-stream versus multiprogrammed-interleave throughput.
//!
//! `multiprogram` runs the shared fixture (gap + mcf interleaved
//! round-robin at a 4096-access quantum under the representative DP
//! configuration) through the functional engine twice over the identical
//! accesses: the component streams back-to-back (`run_app` each), and as
//! one multiprogrammed stream through the switch-aware `run_mix`. The
//! group reports both (and the flush-on-switch and ASID variants), then
//! hands the same two lanes to [`assert_ratio`] for the tentpole gate:
//! **interleaved execution at ≥ 0.8× single-stream throughput** —
//! segment walking and per-stream attribution are bookkeeping around
//! the same batched hot loop, so a regression past that floor means the
//! multiprogram layer started doing per-access work (or allocating) and
//! `cargo bench` fails loudly instead of drifting.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tlbsim_bench::{assert_ratio, multiprogram_fixture};
use tlbsim_sim::{run_app, run_mix, SwitchPolicy, TablePolicy};

/// The gate: interleaved throughput must be at least this fraction of
/// the back-to-back single-stream path.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// through [`assert_ratio`]: 0.93-0.95x over 20 runs (median 0.94x).
const GATE_MIN_RATIO: f64 = 0.8;

fn bench_multiprogram(c: &mut Criterion) {
    let (mix, scale, config) = multiprogram_fixture();
    let accesses = mix
        .streams()
        .iter()
        .map(|s| s.stream_len(scale))
        .sum::<u64>();
    println!(
        "multiprogram fixture: {} ({} accesses)",
        tlbsim_workloads::StreamSpec::name(&mix),
        accesses
    );

    let single_stream = || {
        let mut misses = 0;
        for stream in mix.streams() {
            misses += run_app(stream, scale, &config)
                .expect("valid config")
                .misses;
        }
        misses
    };
    let interleaved = || {
        run_mix(&mix, scale, &config, SwitchPolicy::None)
            .expect("valid config")
            .misses
    };

    let mut group = c.benchmark_group("multiprogram");
    group.throughput(Throughput::Elements(accesses));
    group.bench_function("single_stream", |b| b.iter(single_stream));
    group.bench_function("interleaved", |b| b.iter(interleaved));
    group.bench_function("interleaved_flush_on_switch", |b| {
        b.iter(|| {
            run_mix(&mix, scale, &config, SwitchPolicy::FlushOnSwitch)
                .expect("valid config")
                .misses
        });
    });
    group.bench_function("interleaved_asid", |b| {
        let policy = SwitchPolicy::Asid {
            contexts: mix.streams().len(),
            tables: TablePolicy::Shared,
        };
        b.iter(|| {
            run_mix(&mix, scale, &config, policy)
                .expect("valid config")
                .misses
        });
    });
    group.finish();

    assert_ratio("multiprogram", GATE_MIN_RATIO, single_stream, interleaved);
}

criterion_group!(benches, bench_multiprogram);
criterion_main!(benches);
