//! Flat-v1 versus block-compressed-v2 trace replay throughput and size.
//!
//! `trace_v2` records the trace-replay DP fixture (galgel at the
//! `SMALL` scale) twice — flat v1 and delta-block v2 — then times the
//! functional engine over the identical access stream replayed from
//! each. The group reports both lanes and asserts the tentpole gates:
//!
//! - **compressed replay at ≥ 1/1.2× of raw-mmap replay throughput**,
//!   through [`assert_ratio`] on the same two lanes —
//!   varint delta decode is allowed to cost at most 20% over copying
//!   17-byte cells, or the "compression is nearly free" claim the
//!   format rests on has regressed;
//! - **≤ 6 bytes per record on the fixture** — the fixture's strided
//!   pointer-chasing stream delta-compresses well below the 17-byte
//!   flat cell, and a size regression means the encoder stopped
//!   exploiting the deltas.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tlbsim_bench::{assert_ratio, trace_replay_fixture, TempFileGuard};
use tlbsim_experiments::replay::{record_spec, record_spec_with_format, RecordFormat};
use tlbsim_sim::run_app;
use tlbsim_workloads::TraceWorkload;

/// The throughput gate: compressed replay must be at least this
/// fraction of raw-mmap replay throughput (1/1.2).
///
/// Noise band at the default settings on a shared 2-CPU x86-64 host,
/// through [`assert_ratio`]: 0.90-1.05x over 20 runs (median 0.95x).
/// The lowest run held both lanes about 1.9x slower than a quiet run for
/// all 100 rounds (raw 4.82 ms, compressed 5.37 ms) and still passed.
/// With both lanes reading through the shared record-cell codec and one
/// block source: 0.93-0.96x over 20 runs (median 0.94x), none failed;
/// the slowest run held both lanes about 1.7x slower (raw 4.63 ms,
/// compressed 4.97 ms). CI runs this gate.
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

    let raw_replay = || run_app(&raw, scale, &config).expect("valid config").misses;
    let compressed_replay = || {
        run_app(&compressed, scale, &config)
            .expect("valid config")
            .misses
    };

    let mut group = c.benchmark_group("trace_v2");
    group.throughput(Throughput::Elements(v1.records));
    group.bench_function("raw_mmap_replay", |b| b.iter(raw_replay));
    group.bench_function("compressed_replay", |b| b.iter(compressed_replay));
    group.finish();
    assert_ratio("trace_v2", GATE_MIN_RATIO, raw_replay, compressed_replay);
}

criterion_group!(benches, bench_trace_v2);
criterion_main!(benches);
