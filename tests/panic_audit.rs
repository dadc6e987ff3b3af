//! Panic audit: the fault-tolerance work replaced runtime-path
//! `unwrap`/`expect` with typed errors, and this gate keeps it that
//! way. It walks every workspace crate's `src/` tree, ignores test
//! modules (everything from the first `#[cfg(test)]` down — tests at
//! the bottom of the file is the workspace convention) and comment
//! lines, and enforces two invariants:
//!
//! * **no bare `.unwrap()` at all** — a runtime invariant strong
//!   enough to panic on deserves a message, so `expect` is the floor;
//! * **per-crate `.expect(` ceilings** pinned at today's counts — a
//!   new `expect` is allowed only by consciously raising the ceiling
//!   here, which is exactly the review conversation we want.

use std::path::{Path, PathBuf};

/// Per-crate ceilings for `.expect(` occurrences on non-test lines.
/// Every one of today's sites carries an invariant message
/// ("worker threads joined", "8-byte slice", ...); lowering a ceiling
/// after removing sites is encouraged, raising one is a review event.
const EXPECT_CEILINGS: &[(&str, usize)] = &[
    // core holds at 3 through the adaptive-mechanisms PR: confidence
    // throttling, trend voting and the set-dueling ensemble are all
    // total over their inputs — counter and score saturation replace
    // every would-be overflow panic, so no new expect sites appeared.
    // core 3 → 1 (prediction-table storage split): the table's two
    // `expect("full set is non-empty")` victim scans became one `?` in
    // `ScanSets::make_room`.
    ("crates/core", 1),
    // mmu 1 → 0 (O(1) LRU map): the LRU victim scan's
    // `expect("full set is non-empty")` went with the scan; the map's
    // victim is the tail of the set's recency list.
    ("crates/mmu", 0),
    ("crates/mem", 0),
    // trace 10 → 18 (trace-format-v2 PR): eight fixed-width
    // `try_into().expect("N-byte slice")` conversions in block.rs when
    // decoding restart records, the footer and index entries — the
    // same infallible slice-to-array idiom mmap.rs and binary.rs
    // already carry, bounds-checked by the enclosing length guards.
    // trace 18 → 14 (one trace reader): the v1 header checks of
    // `MmapTrace` and `BinaryTraceReader` each held two `try_into()`
    // `expect`s on the magic and version slices; all three readers now
    // share `header_version`, which indexes the bytes directly.
    ("crates/trace", 14),
    // workloads 14 → 16 (trace-format-v2 PR): two validated-at-open
    // invariants in the v2 arms of TraceWorkload — the streaming
    // cursor and whole-map health were both established by `open`
    // before any replay can reach them.
    // workloads 16 → 14 (one trace reader): `TraceSource::fill` held
    // one `expect` per format arm and now holds one for `AnyCursor`;
    // the streaming replay's re-open `expect` went with the re-open, as
    // a streamed cursor now restarts over the file opened at open time.
    ("crates/workloads", 14),
    // sim 9 → 11 (ASID PR): two `Engine::new(config).expect(...)` in the
    // mix executors, where the config was validated before any work
    // began — same invariant as the sharded executor's worker engines.
    // sim 11 → 7 (one executor): the shard pool's two lock/join
    // `expect`s went with the pool, the two slice executors' engine
    // constructions became one, and the ceiling drops to the count
    // (it stood one above it).
    ("crates/sim", 7),
    ("crates/service", 0),
    // experiments 25 → 8 (one measurement harness): the throughput
    // telemetry module held 17 sites; its three shared fixture
    // `expect`s moved to tlbsim-bench below, the rest went with it.
    // experiments 8 → 4: the ceiling had stood four above the census
    // (`table1.rs` 1, `extras.rs` 2, `figure9.rs` 1) since the sweep
    // and executor consolidations; it now matches it.
    ("crates/experiments", 4),
    // bench: the recorded-trace and multiprogram fixtures' registry and
    // mix-validity invariants (3) plus `run_functional`'s engine (1).
    ("crates/bench", 4),
    ("src", 0),
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry readable").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Counts `.unwrap()` / `.expect(` on lines that are neither comments
/// nor inside the file's test module.
fn census(path: &Path) -> (usize, usize) {
    let text = std::fs::read_to_string(path).expect("source file readable");
    let (mut unwraps, mut expects) = (0, 0);
    for line in text.lines() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue; // doc examples and prose don't run in release
        }
        unwraps += trimmed.matches(".unwrap()").count();
        expects += trimmed.matches(".expect(").count();
    }
    (unwraps, expects)
}

#[test]
fn runtime_paths_have_no_bare_unwraps_and_expects_stay_under_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for &(crate_dir, ceiling) in EXPECT_CEILINGS {
        let src = if crate_dir == "src" {
            root.join("src")
        } else {
            root.join(crate_dir).join("src")
        };
        let mut files = Vec::new();
        rust_sources(&src, &mut files);
        assert!(!files.is_empty(), "no sources under {}", src.display());
        let (mut unwraps, mut expects) = (0, 0);
        for file in &files {
            let (u, e) = census(file);
            if u > 0 {
                failures.push(format!(
                    "{}: {u} bare .unwrap() on a runtime path — use a typed error or .expect with an invariant message",
                    file.display()
                ));
            }
            unwraps += u;
            expects += e;
        }
        let _ = unwraps;
        if expects > ceiling {
            failures.push(format!(
                "{crate_dir}: {expects} .expect( sites exceed the audited ceiling of {ceiling} — prefer a typed error, or raise the ceiling in tests/panic_audit.rs with review"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "panic audit failed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn shim_crates_are_audited_too() {
    // The unsafe-bearing mmap shim is the one place a panic would be
    // hardest to debug; hold it to the same standard.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let shims = root.join("crates").join("shims");
    if !shims.is_dir() {
        return;
    }
    let mut files = Vec::new();
    rust_sources(&shims, &mut files);
    for file in &files {
        let (unwraps, _) = census(file);
        assert_eq!(
            unwraps,
            0,
            "{}: bare .unwrap() in a shim crate's runtime path",
            file.display()
        );
    }
}
