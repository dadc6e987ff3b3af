//! Flat-v1 versus block-compressed-v2 trace replay throughput and size.
//!
//! `trace_v2` records the trace-replay DP fixture (galgel at the
//! `SMALL` scale) twice — flat v1 and delta-block v2 — then times the
//! functional engine over the identical access stream replayed from
//! each. The group asserts the tentpole gates:
//!
//! - **compressed replay at ≥ 1/1.2× of raw-mmap replay throughput** —
//!   varint delta decode is allowed to cost at most 20% over copying
//!   17-byte cells, or the "compression is nearly free" claim the
//!   format rests on has regressed;
//! - **≤ 6 bytes per record on the fixture** — the fixture's strided
//!   pointer-chasing stream delta-compresses well below the 17-byte
//!   flat cell, and a size regression means the encoder stopped
//!   exploiting the deltas.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tlbsim_bench::{trace_replay_fixture, TempFileGuard};
use tlbsim_experiments::replay::{record_spec, record_spec_with_format, RecordFormat};
use tlbsim_sim::run_app;
use tlbsim_workloads::TraceWorkload;

/// The throughput gate: compressed replay must be at least this
/// fraction of raw-mmap replay throughput (1/1.2).
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host:
/// 0.91-1.03x over 5 runs before `TraceReader` (median 0.97x) and
/// 0.91-1.13x over 6 runs after it (median 0.96x), none needing the
/// retry.
const GATE_MIN_RATIO: f64 = 1.0 / 1.2;

/// The size gate: the v2 encoding of the fixture must average at most
/// this many bytes per record (flat v1 is 17). The fixture encodes at
/// 4.01 bytes/record on every run: the encoding is deterministic, so
/// this gate has no noise band.
const GATE_MAX_BYTES_PER_RECORD: f64 = 6.0;

fn bench_trace_v2(c: &mut Criterion) {
    let (app, scale, config) = trace_replay_fixture();
    let v1_path =
        std::env::temp_dir().join(format!("tlbsim-cargo-bench-v1-{}.tlbt", std::process::id()));
    let v2_path =
        std::env::temp_dir().join(format!("tlbsim-cargo-bench-v2-{}.tlbt", std::process::id()));
    let _v1_guard = TempFileGuard(v1_path.clone());
    let _v2_guard = TempFileGuard(v2_path.clone());
    let v1 = record_spec(app, scale, None, &v1_path).expect("recording the v1 fixture succeeds");
    let v2 = record_spec_with_format(app, scale, None, &v2_path, RecordFormat::v2_default())
        .expect("recording the v2 fixture succeeds");
    assert_eq!(v1.records, v2.records, "both formats hold the same stream");

    let bytes_per_record = v2.bytes as f64 / v2.records as f64;
    println!(
        "trace_v2 fixture: {} accesses, v1 {} bytes, v2 {} bytes \
         ({bytes_per_record:.2} bytes/record, {:.2}x smaller)",
        v1.records,
        v1.bytes,
        v2.bytes,
        v1.bytes as f64 / v2.bytes as f64
    );
    assert!(
        bytes_per_record <= GATE_MAX_BYTES_PER_RECORD,
        "v2 must encode the fixture at <= {GATE_MAX_BYTES_PER_RECORD} bytes/record, \
         measured {bytes_per_record:.2}"
    );

    let raw = TraceWorkload::open(&v1_path).expect("a just-recorded v1 trace validates");
    let compressed = TraceWorkload::open(&v2_path).expect("a just-recorded v2 trace validates");
    assert_eq!(compressed.format_version(), 2, "v2 header sniffed");

    let mut group = c.benchmark_group("trace_v2");
    group.throughput(Throughput::Elements(v1.records));
    group.bench_function("raw_mmap_replay", |b| {
        b.iter(|| run_app(&raw, scale, &config).expect("valid config").misses);
    });
    group.bench_function("compressed_replay", |b| {
        b.iter(|| {
            run_app(&compressed, scale, &config)
                .expect("valid config")
                .misses
        });
    });
    group.finish();

    let mut raw_ns = f64::NAN;
    let mut compressed_ns = f64::NAN;
    for result in c.results() {
        match result.name.as_str() {
            "trace_v2/raw_mmap_replay" => raw_ns = result.ns_per_iter,
            "trace_v2/compressed_replay" => compressed_ns = result.ns_per_iter,
            _ => {}
        }
    }
    assert!(
        raw_ns.is_finite() && compressed_ns.is_finite(),
        "trace_v2 results missing — bench labels and the gate below are out of sync"
    );
    let ratio = raw_ns / compressed_ns;
    println!("trace_v2 ratio (raw ns / compressed ns): {ratio:.2}x");
    // A single noisy sample on a loaded machine shouldn't read as a
    // regression, so a borderline measurement gets one clean retry
    // before the assert.
    if ratio < GATE_MIN_RATIO {
        let retry = measure_ratio_once(&raw, &compressed);
        println!("trace_v2 retry ratio: {retry:.2}x");
        assert!(
            retry.max(ratio) >= GATE_MIN_RATIO,
            "compressed v2 replay must run at >= {GATE_MIN_RATIO:.3}x raw-mmap replay \
             throughput, measured {ratio:.2}x then {retry:.2}x"
        );
    }
}

/// One directly-timed ratio sample (best-of-3 for each path),
/// independent of the Criterion sample settings.
fn measure_ratio_once(raw: &TraceWorkload, compressed: &TraceWorkload) -> f64 {
    let (_, scale, config) = trace_replay_fixture();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(run_app(raw, scale, &config).expect("valid config"));
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(run_app(compressed, scale, &config).expect("valid config"));
        best[1] = best[1].min(start.elapsed().as_secs_f64());
    }
    best[0] / best[1]
}

criterion_group!(benches, bench_trace_v2);
criterion_main!(benches);
