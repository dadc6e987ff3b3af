//! The trace error matrix: for each malformed input, the exact error
//! every trace-opening entry point reports.
//!
//! Entry points: the four `TraceWorkload` opens, `health::check` under
//! the row's policy, and `health::bake` with and without `--truncate`.
//! (`xp convert` has the same matrix as a unit test in `xp.rs`.) Each
//! cell is pinned as the error's `Display` — the text a user sees after
//! the CLI's `<command>: ` prefix — or a one-line summary of what an
//! open that succeeds found.
//!
//! The matrix lives in `tests/data/trace-errors.txt`. One cell pins
//! only that it fails: baking `--truncate` into a v2 file whose footer
//! or index is damaged. Both an "unsatisfiable plan" refusal and a
//! "damaged index" error are right answers there.

use std::path::{Path, PathBuf};

use tlb_distance::core::{MemoryAccess, PageSize};
use tlb_distance::experiments::health;
use tlb_distance::trace::{
    BinaryTraceWriter, DecodePolicy, V2TraceWriter, FOOTER_BYTES, HEADER_BYTES, INDEX_ENTRY_BYTES,
    RECORD_BYTES, RESTART_BYTES,
};
use tlb_distance::workloads::TraceWorkload;

const RECORDS: u64 = 40;
const BLOCK_LEN: u32 = 8;

fn records() -> Vec<MemoryAccess> {
    (0..RECORDS)
        .map(|i| MemoryAccess::read(0x400 + i, i * 4096))
        .collect()
}

fn v1_bytes() -> Vec<u8> {
    let mut w = BinaryTraceWriter::create(Vec::new()).unwrap();
    for r in records() {
        w.write(&r).unwrap();
    }
    w.finish().unwrap()
}

fn v2_bytes() -> Vec<u8> {
    let mut w = V2TraceWriter::create_with_block_len(Vec::new(), BLOCK_LEN).unwrap();
    for r in records() {
        w.write(&r).unwrap();
    }
    w.finish().unwrap()
}

/// Byte offset of the v2 block index (the file holds 5 blocks).
fn index_start(v2: &[u8]) -> usize {
    let blocks = (RECORDS / u64::from(BLOCK_LEN)) as usize;
    v2.len() - FOOTER_BYTES - blocks * INDEX_ENTRY_BYTES
}

fn header(version: u16) -> Vec<u8> {
    let mut bytes = b"TLBT".to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    bytes
}

/// The malformed (and two clean) inputs, each with the decode policies
/// its rows run under.
fn inputs() -> Vec<(&'static str, Vec<u8>, Vec<DecodePolicy>)> {
    let strict = vec![DecodePolicy::Strict];
    let mut bad_magic = v1_bytes();
    bad_magic[0] = b'X';
    let mut torn_tail = v1_bytes();
    torn_tail.truncate(torn_tail.len() - 5);
    let mut bad_kind = v1_bytes();
    for record in [3, 20] {
        bad_kind[HEADER_BYTES + record * RECORD_BYTES + 16] = 0xEE;
    }
    let mut no_footer = v2_bytes();
    no_footer.truncate(no_footer.len() - FOOTER_BYTES);
    let mut torn_index = v2_bytes();
    // Block 1's first-record number: 8 -> 9.
    let at = index_start(&torn_index) + INDEX_ENTRY_BYTES + 8;
    torn_index[at] = 9;
    let mut corrupt_block = v2_bytes();
    // Block 1's delta payload: a valid kind byte, then varint
    // continuations to the end of the block.
    let entry = index_start(&corrupt_block) + INDEX_ENTRY_BYTES;
    let next = entry + INDEX_ENTRY_BYTES;
    let start = u64::from_le_bytes(corrupt_block[entry..entry + 8].try_into().unwrap()) as usize;
    let end = u64::from_le_bytes(corrupt_block[next..next + 8].try_into().unwrap()) as usize;
    corrupt_block[start + RESTART_BYTES + 1..end].fill(0x80);
    vec![
        ("empty", Vec::new(), strict.clone()),
        ("three bytes", b"TLB".to_vec(), strict.clone()),
        ("bad magic", bad_magic, strict.clone()),
        ("version 0", header(0), strict.clone()),
        ("version 3", header(3), strict.clone()),
        ("version 0xFFFF", header(0xFFFF), strict.clone()),
        (
            "v1 torn tail",
            torn_tail,
            vec![DecodePolicy::Strict, DecodePolicy::quarantine(4)],
        ),
        (
            "v1 bad kind",
            bad_kind,
            vec![
                DecodePolicy::Strict,
                DecodePolicy::quarantine(2),
                DecodePolicy::quarantine(1),
            ],
        ),
        ("v2 no footer", no_footer, strict.clone()),
        ("v2 torn index", torn_index, strict.clone()),
        ("v2 corrupt block", corrupt_block, strict.clone()),
        ("clean v1", v1_bytes(), strict.clone()),
        ("clean v2", v2_bytes(), strict),
    ]
}

fn temp(tag: &str) -> PathBuf {
    let tag = tag.replace(' ', "-");
    std::env::temp_dir().join(format!("tlbsim-errors-{}-{tag}.tlbt", std::process::id()))
}

fn workload(opened: Result<TraceWorkload, impl std::fmt::Display>) -> String {
    match opened {
        Ok(trace) => format!(
            "ok v{}, {} replayable, {}",
            trace.format_version(),
            trace.stream_len(),
            trace.health()
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Every entry point's outcome on one input under one policy.
fn cells(path: &Path, policy: DecodePolicy) -> Vec<(&'static str, String)> {
    let out = temp("baked");
    let bake = |truncate: bool| match health::bake(path, &out, 1, 1, 0, truncate) {
        Ok(summary) => format!("ok {} records, {} bytes", summary.records, summary.bytes),
        Err(e) => format!("error: {e}"),
    };
    let check = match health::check(path, policy) {
        Ok(report) => format!(
            "ok {} on the grid, {}, {}",
            report.grid_records,
            report.health,
            if report.admitted {
                "admitted"
            } else {
                "REJECTED"
            }
        ),
        Err(e) => format!("error: {e}"),
    };
    let cells = vec![
        ("open", workload(TraceWorkload::open(path))),
        (
            "open_with_policy",
            workload(TraceWorkload::open_with_policy(path, policy)),
        ),
        (
            "open_streaming",
            workload(TraceWorkload::open_streaming(path, policy, 2)),
        ),
        (
            "open_streaming_runs",
            workload(TraceWorkload::open_streaming_runs(
                path,
                policy,
                2,
                PageSize::DEFAULT,
                |_| {},
            )),
        ),
        ("check", check),
        ("bake", bake(false)),
        ("bake --truncate", bake(true)),
    ];
    std::fs::remove_file(&out).ok();
    cells
}

const EXPECTED: &str = include_str!("data/trace-errors.txt");

#[test]
fn every_entry_point_reports_the_pinned_error_for_every_bad_input() {
    let mut actual = String::new();
    for (label, bytes, policies) in inputs() {
        let path = temp(label);
        std::fs::write(&path, &bytes).unwrap();
        for policy in policies {
            for (entry, outcome) in cells(&path, policy) {
                let outcome = if entry == "bake --truncate"
                    && (label == "v2 no footer" || label == "v2 torn index")
                {
                    assert!(outcome.starts_with("error: "), "{label}: {outcome}");
                    "error".to_owned()
                } else {
                    outcome
                };
                actual.push_str(&format!("{label} [{policy}] {entry}: {outcome}\n"));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
    if actual != EXPECTED {
        for (want, got) in EXPECTED.lines().zip(actual.lines()) {
            if want != got {
                eprintln!("first difference:\n  want {want}\n  got  {got}");
                break;
            }
        }
        panic!("error matrix differs; the full matrix is:\n{actual}");
    }
}
