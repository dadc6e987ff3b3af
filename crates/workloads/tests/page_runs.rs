//! `Workload::fill_runs` against its oracle: the records of a pure
//! `fill_batch` stream, collapsed into page runs.
//!
//! Every source shape is covered — generator apps (visit runs), a
//! multiprogrammed interleave and a chaos wrapper with wild vaddrs
//! (record collapse), and a trace replayed as v1, v2 and streamed v2 —
//! at a page size below the generators' 4 KiB page (the expand-and-
//! collapse fallback), at 4 KiB and above it. On one workload, random
//! `fill_runs` calls with random limits and run-buffer sizes interleave
//! with `fill_batch` and `skip_accesses`; every `fill_runs` call is
//! followed by a `fill_batch`, so the records after every call are
//! checked against the pure stream, which pins the generators'
//! read/write mix across visit runs. The runs
//! `TraceWorkload::open_streaming_runs` hands out during its open-time
//! scan are checked the same way.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use tlbsim_core::{MemoryAccess, PageRun, PageSize};
use tlbsim_trace::{BinaryTraceWriter, DecodePolicy, FaultKind, FaultPlan, V2TraceWriter};
use tlbsim_workloads::{
    find_app, ChaosSpec, MultiStreamSpec, Scale, Schedule, StreamSpec, TraceWorkload, Workload,
};

/// Records per recorded trace.
const TRACE_RECORDS: usize = 6_000;
/// Records checked past the script's last step.
const TAIL: usize = 2_000;

/// One step of a script driven against a workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `fill_runs` with this limit into a run buffer of this size.
    Runs { limit: u64, out: usize },
    /// `fill_batch` into a buffer of this size.
    Batch(usize),
    /// `skip_accesses` of this many.
    Skip(u64),
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    let limit = prop_oneof![Just(u64::MAX), 1u64..5_000];
    let step = prop_oneof![
        (limit, 1usize..300).prop_map(|(limit, out)| Step::Runs { limit, out }),
        (1usize..400).prop_map(Step::Batch),
        (0u64..3_000).prop_map(Step::Skip),
    ];
    prop::collection::vec(step, 1..16)
}

/// The next `len` records of `workload` through `fill_batch` alone.
fn pure(workload: &mut Workload, len: usize) -> Vec<MemoryAccess> {
    let mut records = vec![MemoryAccess::read(0, 0); len];
    let mut at = 0;
    while at < len {
        let filled = workload.fill_batch(&mut records[at..]);
        if filled == 0 {
            break;
        }
        at += filled;
    }
    records.truncate(at);
    records
}

/// Checks that `runs` collapse exactly `records`: consecutive records,
/// each run on one page at `page_size`, carrying its first record's PC.
fn check_collapse(
    runs: &[PageRun],
    records: &[MemoryAccess],
    page_size: PageSize,
) -> Result<(), String> {
    let mut at = 0usize;
    for run in runs {
        if run.len == 0 {
            return Err(format!("empty run at record {at}"));
        }
        let covered = records
            .get(at..at + run.len as usize)
            .ok_or_else(|| format!("runs cover more than the {} records", records.len()))?;
        if run.pc != covered[0].pc {
            return Err(format!("run at record {at} carries the wrong pc"));
        }
        if let Some(off) = covered
            .iter()
            .position(|r| page_size.page_of(r.vaddr) != run.page)
        {
            return Err(format!("record {} is off its run's page", at + off));
        }
        at += run.len as usize;
    }
    if at == records.len() {
        Ok(())
    } else {
        Err(format!("runs cover {at} of {} records", records.len()))
    }
}

/// The pure stream of a spec, drawn through `fill_batch` alone as far
/// as a check needs it.
struct Pure {
    workload: Workload,
    records: Vec<MemoryAccess>,
}

impl Pure {
    fn new(spec: &dyn StreamSpec) -> Self {
        Pure {
            workload: spec.workload(Scale::TINY),
            records: Vec::new(),
        }
    }

    /// Records `start..end` of the stream, or up to its end.
    fn range(&mut self, start: usize, end: usize) -> &[MemoryAccess] {
        if self.records.len() < end {
            let more = pure(&mut self.workload, end - self.records.len());
            self.records.extend(more);
        }
        &self.records[start.min(self.records.len())..end.min(self.records.len())]
    }
}

/// Drives `script` against a workload of `spec` and checks every step
/// against the pure stream.
fn drive(spec: &dyn StreamSpec, page_size: PageSize, script: &[Step]) -> Result<(), String> {
    let mut workload = spec.workload(Scale::TINY);
    let mut expected = Pure::new(spec);
    let len = spec.stream_len(Scale::TINY) as usize;
    let mut pos = 0usize;
    let mut runs = vec![PageRun::default(); 300];
    let mut batch = vec![MemoryAccess::read(0, 0); 400];
    let follow = script.iter().flat_map(|&step| match step {
        Step::Runs { .. } => vec![step, Step::Batch(7)],
        _ => vec![step],
    });
    for step in follow {
        match step {
            Step::Runs { limit, out } => {
                let (n, accesses) = workload.fill_runs(page_size, &mut runs[..out], limit);
                let left = (len - pos) as u64;
                if accesses > limit.min(left) || n > out || (n == 0) != (accesses == 0) {
                    return Err(format!("{step:?} returned ({n}, {accesses})"));
                }
                if accesses < limit.min(left) && n < out {
                    return Err(format!("{step:?} stopped early at ({n}, {accesses})"));
                }
                let end = pos + accesses as usize;
                check_collapse(&runs[..n], expected.range(pos, end), page_size)
                    .map_err(|e| format!("{step:?} at record {pos}: {e}"))?;
                pos = end;
            }
            Step::Batch(want) => {
                let filled = workload.fill_batch(&mut batch[..want]);
                let end = (pos + want).min(len);
                if batch[..filled] != *expected.range(pos, end) {
                    return Err(format!("{step:?} at record {pos} left the pure stream"));
                }
                pos = end;
            }
            Step::Skip(n) => {
                let skipped = workload.skip_accesses(n);
                let end = (pos + n as usize).min(len);
                if skipped as usize != end - pos {
                    return Err(format!("{step:?} at record {pos} skipped {skipped}"));
                }
                pos = end;
            }
        }
    }
    let tail = pure(&mut workload, TAIL);
    if tail[..] != *expected.range(pos, pos + TAIL) {
        return Err(format!(
            "the stream after record {pos} left the pure stream"
        ));
    }
    Ok(())
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tlbsim-page-runs-{}-{tag}.tlbt",
        std::process::id()
    ))
}

/// Records `records` as a v1 and a v2 trace.
fn write_traces(records: &[MemoryAccess]) -> (PathBuf, PathBuf) {
    let v1 = temp_path("v1");
    let mut w = BinaryTraceWriter::create(std::fs::File::create(&v1).unwrap()).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    let v2 = temp_path("v2");
    let mut w =
        V2TraceWriter::create_with_block_len(std::fs::File::create(&v2).unwrap(), 64).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    (v1, v2)
}

#[test]
fn fill_runs_matches_fill_batch_then_collapse() {
    let app = |name: &str| -> Arc<dyn StreamSpec> { Arc::new(find_app(name).unwrap()) };
    let mix = MultiStreamSpec::new(
        vec![app("gap"), app("mcf")],
        Schedule::RoundRobin { quantum: 700 },
    )
    .unwrap();
    let wild = [3u64, 700, 701, 2_500, 9_000];
    let plan = wild.iter().fold(FaultPlan::new(), |plan, &record| {
        plan.with(record, FaultKind::WildVaddr)
    });
    let chaos = ChaosSpec::new(app("galgel"), plan, 0);
    let recorded = pure(&mut app("mcf").workload(Scale::TINY), TRACE_RECORDS);
    let (v1_path, v2_path) = write_traces(&recorded);
    let v1 = TraceWorkload::open(&v1_path).unwrap();
    let v2 = TraceWorkload::open(&v2_path).unwrap();
    let streamed = TraceWorkload::open_streaming(&v2_path, DecodePolicy::Strict, 2).unwrap();
    assert_eq!((v1.format_version(), v2.format_version()), (1, 2));
    assert_eq!(streamed.backend(), "mmap-window");

    let chaos_records = Pure::new(&chaos).range(0, 10_000).to_vec();
    assert!(
        wild.iter()
            .all(|&r| chaos_records[r as usize].vaddr.raw() >= 1 << 48),
        "wild vaddrs are in the pure chaos stream"
    );

    let sources: Vec<(&str, Arc<dyn StreamSpec>)> = vec![
        ("gap", app("gap")),
        ("galgel", app("galgel")),
        ("mix", Arc::new(mix)),
        ("chaos", Arc::new(chaos)),
        ("v1", Arc::new(v1)),
        ("v2", Arc::new(v2)),
        ("streamed v2", Arc::new(streamed)),
    ];
    let page_sizes = [1024u64, 4096, 16_384].map(|bytes| PageSize::new(bytes).unwrap());
    let config = ProptestConfig::with_cases(16);
    for case in 0..config.cases {
        let mut rng = TestRng::for_case(u64::from(case), "fill_runs_matches");
        let script = arb_script().generate(&mut rng);
        for (name, spec) in &sources {
            for &page_size in &page_sizes {
                drive(spec.as_ref(), page_size, &script).unwrap_or_else(|e| {
                    panic!("{name} at {page_size}, case {case}: {e}\nscript {script:?}")
                });
            }
        }
    }

    // The runs the open-time scan hands out are a collapse of the
    // whole replayed stream, for v2 (from the scan) and v1 (replayed).
    for path in [&v1_path, &v2_path] {
        for &page_size in &page_sizes {
            let mut runs = Vec::new();
            let trace = TraceWorkload::open_streaming_runs(
                path,
                DecodePolicy::Strict,
                2,
                page_size,
                |batch| runs.extend_from_slice(batch),
            )
            .unwrap();
            assert_eq!(trace.stream_len(), TRACE_RECORDS as u64);
            check_collapse(&runs, &recorded, page_size)
                .unwrap_or_else(|e| panic!("{} at {page_size}: {e}", path.display()));
        }
    }
    std::fs::remove_file(&v1_path).ok();
    std::fs::remove_file(&v2_path).ok();
}
