//! Single-stream versus multiprogrammed-interleave throughput.
//!
//! `multiprogram` runs the shared fixture (gap + mcf interleaved
//! round-robin at a 4096-access quantum under the representative DP
//! configuration) through the functional engine twice over the identical
//! accesses: the component streams back-to-back (`run_app` each), and as
//! one multiprogrammed stream through the switch-aware `run_mix`. The
//! group asserts the tentpole gate: **interleaved execution at ≥ 0.8×
//! single-stream throughput** — segment walking and per-stream
//! attribution are bookkeeping around the same batched hot loop, so a
//! regression past that floor means the multiprogram layer started doing
//! per-access work (or allocating) and `cargo bench` fails loudly
//! instead of drifting.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tlbsim_bench::multiprogram_fixture;
use tlbsim_sim::{run_app, run_mix, SwitchPolicy, TablePolicy};

/// The gate: interleaved throughput must be at least this fraction of
/// the back-to-back single-stream path.
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// first attempts: 0.82-0.94x over 5 runs (median 0.93x), none
/// needing the retry.
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

    let mut group = c.benchmark_group("multiprogram");
    group.throughput(Throughput::Elements(accesses));
    group.bench_function("single_stream", |b| {
        b.iter(|| {
            let mut misses = 0;
            for stream in mix.streams() {
                misses += run_app(stream, scale, &config)
                    .expect("valid config")
                    .misses;
            }
            misses
        });
    });
    group.bench_function("interleaved", |b| {
        b.iter(|| {
            run_mix(&mix, scale, &config, SwitchPolicy::None)
                .expect("valid config")
                .misses
        });
    });
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

    let mut single_ns = f64::NAN;
    let mut interleaved_ns = f64::NAN;
    for result in c.results() {
        match result.name.as_str() {
            "multiprogram/single_stream" => single_ns = result.ns_per_iter,
            "multiprogram/interleaved" => interleaved_ns = result.ns_per_iter,
            _ => {}
        }
    }
    assert!(
        single_ns.is_finite() && interleaved_ns.is_finite(),
        "multiprogram results missing — bench labels and the gate below are out of sync"
    );
    let ratio = single_ns / interleaved_ns;
    println!("multiprogram ratio (single-stream ns / interleaved ns): {ratio:.2}x");
    // The interleave typically lands near parity (its extra work is per
    // segment, not per access). A single noisy sample on a loaded
    // machine shouldn't read as a regression, so a borderline
    // measurement gets one clean retry before the assert.
    if ratio < GATE_MIN_RATIO {
        let retry = measure_ratio_once();
        println!("multiprogram retry ratio: {retry:.2}x");
        assert!(
            retry.max(ratio) >= GATE_MIN_RATIO,
            "interleaved execution must run at >= {GATE_MIN_RATIO}x single-stream throughput, \
             measured {ratio:.2}x then {retry:.2}x"
        );
    }
}

/// One directly-timed ratio sample (best-of-3 for each path),
/// independent of the Criterion sample settings.
fn measure_ratio_once() -> f64 {
    let (mix, scale, config) = multiprogram_fixture();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        let start = Instant::now();
        for stream in mix.streams() {
            std::hint::black_box(run_app(stream, scale, &config).expect("valid config"));
        }
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(
            run_mix(&mix, scale, &config, SwitchPolicy::None).expect("valid config"),
        );
        best[1] = best[1].min(start.elapsed().as_secs_f64());
    }
    best[0] / best[1]
}

criterion_group!(benches, bench_multiprogram);
criterion_main!(benches);
