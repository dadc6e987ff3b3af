//! Microbenchmarks of the hardware substrates: TLB, prefetch buffer,
//! page table, prefetch channel, and the trace codecs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tlbsim_bench::{looping_access_stream, TempFileGuard};
use tlbsim_core::{Associativity, MemoryAccess, PageSize, PhysPage, VirtPage};
use tlbsim_mem::PrefetchChannel;
use tlbsim_mmu::{PageTable, PrefetchBuffer, Tlb, TlbConfig};
use tlbsim_trace::{BinaryTraceWriter, MmapTrace};

fn bench_tlb(c: &mut Criterion) {
    let stream = looping_access_stream(200, 4, 3);
    let mut group = c.benchmark_group("tlb");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for (label, config) in [
        ("128-full", TlbConfig::fully_associative(128)),
        (
            "128-4way",
            TlbConfig {
                entries: 128,
                assoc: Associativity::ways_of(4),
            },
        ),
        ("64-full", TlbConfig::fully_associative(64)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| {
                let mut tlb = Tlb::new(*config).unwrap();
                for access in &stream {
                    let page = PageSize::DEFAULT.page_of(access.vaddr);
                    if tlb.lookup(page).is_none() {
                        tlb.fill(page, PhysPage::new(page.number()));
                    }
                }
                tlb.misses()
            });
        });
    }
    group.finish();
}

fn bench_prefetch_buffer(c: &mut Criterion) {
    c.bench_function("prefetch_buffer/insert_promote", |b| {
        b.iter(|| {
            let mut pb = PrefetchBuffer::new(16).unwrap();
            let mut hits = 0u64;
            for i in 0..10_000u64 {
                pb.insert(VirtPage::new(i % 64), PhysPage::new(i));
                if pb.promote(VirtPage::new((i + 3) % 64)).is_some() {
                    hits += 1;
                }
            }
            hits
        });
    });
}

fn bench_page_table(c: &mut Criterion) {
    c.bench_function("page_table/translate", |b| {
        b.iter(|| {
            let mut pt = PageTable::new();
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc += pt.translate(VirtPage::new(i % 2048)).number();
            }
            acc
        });
    });
}

fn bench_channel(c: &mut Criterion) {
    c.bench_function("channel/issue_drain", |b| {
        b.iter(|| {
            let mut ch = PrefetchChannel::new(50);
            let mut delivered = 0u64;
            for i in 0..5_000u64 {
                ch.issue_maintenance(i * 10, 2);
                ch.issue_fetch(i * 10, VirtPage::new(i));
                ch.drain_arrived(i * 10 + 200, |_| delivered += 1);
            }
            delivered
        });
    });
}

fn bench_trace_codec(c: &mut Criterion) {
    let stream = looping_access_stream(500, 4, 2);
    let mut encoded = Vec::new();
    let mut writer = BinaryTraceWriter::create(&mut encoded).unwrap();
    for access in &stream {
        writer.write(access).unwrap();
    }
    writer.finish().unwrap();
    let file = TempFileGuard(std::env::temp_dir().join(format!(
        "tlbsim-bench-substrates-{}.tlbt",
        std::process::id()
    )));
    std::fs::write(&file.0, &encoded).unwrap();
    let trace = MmapTrace::open(&file.0).unwrap();
    let mut batch = vec![MemoryAccess::read(0, 0); 512];

    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
            for access in &stream {
                w.write(access).unwrap();
            }
            w.finish().unwrap();
            buf.len()
        });
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut cursor = trace.cursor();
            let mut decoded = 0;
            loop {
                let n = cursor.decode_batch(&mut batch).unwrap();
                if n == 0 {
                    break decoded;
                }
                decoded += n;
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tlb,
    bench_prefetch_buffer,
    bench_page_table,
    bench_channel,
    bench_trace_codec
);
criterion_main!(benches);
