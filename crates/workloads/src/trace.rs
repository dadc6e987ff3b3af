//! Recorded traces as first-class workloads.
//!
//! [`TraceWorkload`] adapts a recorded trace — v1 flat grid or v2
//! block-compressed, opened through [`TraceReader`] — to the
//! [`StreamSpec`] / [`Workload`] surface, so a trace recorded from a
//! real machine (or dumped from a synthetic model with `xp record`)
//! drives `run_app`, `sweep` and `run_app_sharded` exactly like a
//! registered application: replay decodes record batches zero-copy out
//! of the mapped file (and collapses them into page runs for the
//! functional engine), and sharded replay seeks each worker's cursor in
//! O(1) — on the fixed 17-byte cells of v1, or on the block index of v2
//! (whose [`StreamSpec::seek_alignment`] steers shard cuts onto block
//! boundaries). [`TraceWorkload::open_streaming`] replays v2 corpora
//! larger than RAM through a sliding mapped window.

use std::path::Path;
use std::sync::Arc;

use tlbsim_core::{MemoryAccess, PageRun, PageSize};
use tlbsim_trace::{AnyCursor, DecodePolicy, TraceError, TraceHealth, TraceReader};

use crate::gen::{fill_runs_from_records, AccessSource, Workload};
use crate::scale::Scale;
use crate::spec::StreamSpec;

/// A recorded binary trace, replayable as a [`Workload`] any number of
/// times (each replay gets an independent cursor over one shared
/// mapping).
///
/// The whole file is validated at open — header once, then every
/// record's kind byte in one sequential pass (which doubles as
/// page-cache warm-up) — so replay itself cannot fail mid-stream.
///
/// A trace has a fixed length, so the [`Scale`] argument of the
/// [`StreamSpec`] methods is ignored: a replay is always the full
/// recorded stream.
///
/// # Examples
///
/// Record indexing agrees across the whole stack: skipping `n` accesses
/// into a replayed trace stands on the same record `skip(n)` over the
/// trace crate's streaming reader starts at.
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_trace::{BinaryTraceReader, BinaryTraceWriter};
/// use tlbsim_workloads::TraceWorkload;
///
/// let path = std::env::temp_dir().join(format!("tlbt-window-{}", std::process::id()));
/// let mut w = BinaryTraceWriter::create(std::fs::File::create(&path)?)?;
/// for i in 0..50u64 {
///     w.write(&MemoryAccess::read(0x400 + i, i * 4096))?;
/// }
/// w.finish()?;
///
/// // Record indexing: `skip(n).take(m)` over the streaming reader…
/// let windowed: Vec<MemoryAccess> = BinaryTraceReader::open(std::fs::File::open(&path)?)?
///     .map(|r| r.expect("valid record"))
///     .skip(7)
///     .take(5)
///     .collect();
/// // …and `skip_accesses(skip)` on a replayed workload count records
/// // identically: both start at record index 7.
/// let trace = TraceWorkload::open(&path)?;
/// let mut replay = trace.workload();
/// assert_eq!(replay.skip_accesses(7), 7);
/// let skipped: Vec<MemoryAccess> = replay.take(5).collect();
/// assert_eq!(skipped, windowed);
/// std::fs::remove_file(&path).ok();
/// # Ok::<(), tlbsim_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: Arc<str>,
    reader: TraceReader,
    health: TraceHealth,
}

impl TraceWorkload {
    /// Opens and fully validates a trace file under the default strict
    /// policy; the workload's name is the file stem. The format version
    /// (v1 flat grid or v2 block-compressed) is read from the header.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] surfaced by mapping or validating the file —
    /// truncated/bad headers, a torn final record or index, or an
    /// invalid access-kind byte anywhere in the body.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::open_with_policy(path, DecodePolicy::Strict)
    }

    /// Opens a v2 trace for **streaming** replay: each replay cursor
    /// maps a sliding window of `window_blocks` blocks instead of the
    /// whole file, so corpora larger than RAM run in bounded memory.
    /// The body is still scanned once at open (through the same
    /// window), so replay itself cannot fail mid-simulation and the
    /// health report is complete.
    ///
    /// A v1 file falls back to the whole-file mapping — the v1 grid has
    /// no block index to window over; the kernel pages the mapping as
    /// needed.
    ///
    /// # Errors
    ///
    /// As for [`TraceWorkload::open_with_policy`].
    pub fn open_streaming(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
        window_blocks: u64,
    ) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let reader = TraceReader::open_streaming(path, policy, window_blocks)?;
        let health = reader.scan_health()?;
        Ok(Self::named(path, reader, health))
    }

    /// Opens a trace like [`TraceWorkload::open_streaming`] and hands
    /// its page runs at `page_size` to `each`, in stream order and in
    /// batches: the runs a replay's [`Workload::fill_runs`] gives.
    ///
    /// The runs come out of the open-time scan itself, so a caller that
    /// needs the whole run stream (the decode-once grid replay) decodes
    /// the file once instead of scanning it and then replaying it.
    ///
    /// # Errors
    ///
    /// As for [`TraceWorkload::open_streaming`]. `each` may already
    /// have seen runs of a file that then fails.
    pub fn open_streaming_runs(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
        window_blocks: u64,
        page_size: PageSize,
        mut each: impl FnMut(&[PageRun]),
    ) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let reader = TraceReader::open_streaming(path, policy, window_blocks)?;
        let health = scan_runs(reader.cursor(), page_size, &mut each)?;
        Ok(Self::named(path, reader, health))
    }

    /// Opens a trace file under an explicit [`DecodePolicy`].
    ///
    /// Under [`DecodePolicy::Quarantine`] a damaged body is absorbed at
    /// open: bad records are counted into [`TraceWorkload::health`] and
    /// every replay skips them, so [`TraceWorkload::stream_len`] is the
    /// count of *usable* records and the splittability contract holds
    /// unchanged. The open-time scan bounds the damage globally — a
    /// file past the policy's `max_bad` budget is rejected here, which
    /// is what lets replay itself never fail mid-simulation.
    ///
    /// # Errors
    ///
    /// As for [`TraceWorkload::open`] in strict mode;
    /// [`TraceError::QuarantineExceeded`] in quarantine mode when the
    /// damage exceeds the budget.
    pub fn open_with_policy(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
    ) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let reader = TraceReader::open(path, policy)?;
        let health = reader.scan_health()?;
        Ok(Self::named(path, reader, health))
    }

    /// A scanned trace, named after its file stem.
    fn named(path: &Path, reader: TraceReader, health: TraceHealth) -> Self {
        let name = path
            .file_stem()
            .map(|stem| stem.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_owned());
        TraceWorkload {
            name: Arc::from(name),
            reader,
            health,
        }
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of *replayable* accesses (scale-independent). Equal to
    /// the file's record count for a clean trace; under quarantine,
    /// skipped records are excluded — the stream-length contract counts
    /// what a replay actually emits.
    pub fn stream_len(&self) -> u64 {
        self.health.records_ok
    }

    /// What the open-time scan found: usable records, quarantined
    /// records, and torn-tail bytes. Clean (all-ok) for any trace
    /// opened strictly.
    pub fn health(&self) -> TraceHealth {
        self.health
    }

    /// Which backend serves the bytes (`"mmap"` or the `"read"`
    /// fallback). A streaming workload reports `"mmap-window"`.
    pub fn backend(&self) -> &'static str {
        self.reader.backend()
    }

    /// The trace's format version (1 = flat grid, 2 = block-compressed).
    pub fn format_version(&self) -> u16 {
        self.reader.format_version()
    }

    /// A fresh replay of the whole trace.
    pub fn workload(&self) -> Workload {
        let source = TraceSource {
            cursor: self.reader.cursor(),
        };
        Workload::from_source(self.name.to_string(), Box::new(source))
    }
}

/// Page runs handed on per batch by
/// [`TraceWorkload::open_streaming_runs`].
const SCAN_RUNS: usize = 256;

/// Drains `cursor` once for its complete health report — the open-time
/// scan that lets replay itself never fail — collapsing the decoded
/// records into page runs at `page_size` and handing them to `each`.
fn scan_runs(
    mut cursor: AnyCursor,
    page_size: PageSize,
    each: &mut impl FnMut(&[PageRun]),
) -> Result<TraceHealth, TraceError> {
    let mut runs = [PageRun::default(); SCAN_RUNS];
    let mut failure = None;
    loop {
        let decode = |buf: &mut [MemoryAccess]| {
            cursor.decode_batch(buf).unwrap_or_else(|e| {
                failure = Some(e);
                0
            })
        };
        let (filled, _) = fill_runs_from_records(decode, page_size, &mut runs, u64::MAX);
        if let Some(e) = failure.take() {
            return Err(e);
        }
        if filled == 0 {
            return Ok(cursor.health());
        }
        each(&runs[..filled]);
    }
}

impl StreamSpec for TraceWorkload {
    fn name(&self) -> &str {
        TraceWorkload::name(self)
    }

    fn workload(&self, _scale: Scale) -> Workload {
        TraceWorkload::workload(self)
    }

    fn stream_len(&self, _scale: Scale) -> u64 {
        TraceWorkload::stream_len(self)
    }

    fn quarantined_records(&self) -> u64 {
        self.health.records_bad
    }

    fn seek_alignment(&self) -> u64 {
        self.reader.seek_alignment()
    }
}

/// The [`AccessSource`] driving a trace replay: the reader's cursor,
/// decoded batch-wise straight out of the mapping (or window).
struct TraceSource {
    cursor: AnyCursor,
}

impl AccessSource for TraceSource {
    fn fill(&mut self, buf: &mut [MemoryAccess]) -> usize {
        // Every record was scanned when the TraceWorkload was built —
        // strict traces proved clean, quarantine traces proved their
        // damage fits the budget (so a replay cursor can never exceed
        // it) — so a decode error here means the bytes changed under
        // the mapping (the file was modified concurrently), not a state
        // this process can recover from mid-simulation.
        self.cursor
            .decode_batch(buf)
            .expect("trace records were scanned at open")
    }

    fn skip(&mut self, n: u64) -> u64 {
        self.cursor.skip_records(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::find_app;

    fn write_trace(tag: &str, records: &[MemoryAccess]) -> std::path::PathBuf {
        use tlbsim_trace::BinaryTraceWriter;
        let path = std::env::temp_dir().join(format!("tlbt-workload-{}-{tag}", std::process::id()));
        let mut w = BinaryTraceWriter::create(std::fs::File::create(&path).unwrap()).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        path
    }

    #[test]
    fn replay_matches_the_recorded_generator_stream() {
        let app = find_app("gap").unwrap();
        let recorded: Vec<MemoryAccess> = app.workload(Scale::TINY).take(20_000).collect();
        let path = write_trace("replay", &recorded);
        let trace = TraceWorkload::open(&path).unwrap();
        assert_eq!(trace.stream_len(), recorded.len() as u64);
        let replayed: Vec<MemoryAccess> = trace.workload().collect();
        assert_eq!(replayed, recorded);
        // Replays are repeatable: a second workload starts from 0.
        assert_eq!(trace.workload().count(), recorded.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn skip_accesses_seeks_at_record_granularity() {
        let recorded: Vec<MemoryAccess> = (0..500u64)
            .map(|i| MemoryAccess::read(0x40 + i, i * 4096))
            .collect();
        let path = write_trace("skip", &recorded);
        let trace = TraceWorkload::open(&path).unwrap();
        for split in [0u64, 1, 250, 499, 500] {
            let mut w = trace.workload();
            assert_eq!(w.skip_accesses(split), split);
            let tail: Vec<MemoryAccess> = w.collect();
            assert_eq!(tail, recorded[split as usize..], "split {split}");
        }
        let mut w = trace.workload();
        assert_eq!(w.skip_accesses(10_000), 500);
        assert!(w.next().is_none());
    }

    #[test]
    fn fill_batch_contract_matches_the_generators() {
        let recorded: Vec<MemoryAccess> = (0..100u64)
            .map(|i| MemoryAccess::read(0x40, i * 4096))
            .collect();
        let path = write_trace("fill", &recorded);
        let trace = TraceWorkload::open(&path).unwrap();
        let mut w = trace.workload();
        let mut buf = vec![MemoryAccess::read(0, 0); 64];
        assert_eq!(w.fill_batch(&mut buf), 64);
        assert_eq!(w.fill_batch(&mut buf), 36);
        assert_eq!(w.fill_batch(&mut buf), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_spec_surface_ignores_scale() {
        let recorded: Vec<MemoryAccess> = (0..64u64)
            .map(|i| MemoryAccess::read(0x40, i * 4096))
            .collect();
        let path = write_trace("spec", &recorded);
        let trace = TraceWorkload::open(&path).unwrap();
        let spec: &dyn StreamSpec = &trace;
        assert_eq!(spec.stream_len(Scale::TINY), 64);
        assert_eq!(spec.stream_len(Scale::STANDARD), 64);
        assert_eq!(spec.workload(Scale::STANDARD).count(), 64);
        assert!(spec.name().starts_with("tlbt-workload-"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_records_are_rejected_at_open() {
        let recorded: Vec<MemoryAccess> = (0..10u64)
            .map(|i| MemoryAccess::read(0x40, i * 4096))
            .collect();
        let path = write_trace("corrupt", &recorded);
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = tlbsim_trace::HEADER_BYTES + 6 * tlbsim_trace::RECORD_BYTES + 16;
        bytes[offset] = 42;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            TraceWorkload::open(&path),
            Err(TraceError::InvalidKind { found: 42 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantine_open_replays_only_the_good_records() {
        let recorded: Vec<MemoryAccess> = (0..40u64)
            .map(|i| MemoryAccess::read(0x40 + i, i * 4096))
            .collect();
        let path = write_trace("quarantine", &recorded);
        let mut bytes = std::fs::read(&path).unwrap();
        for bad in [3usize, 20] {
            bytes[tlbsim_trace::HEADER_BYTES + bad * tlbsim_trace::RECORD_BYTES + 16] = 0xEE;
        }
        std::fs::write(&path, bytes).unwrap();

        // Strict rejects; quarantine absorbs and reports.
        assert!(TraceWorkload::open(&path).is_err());
        let trace =
            TraceWorkload::open_with_policy(&path, tlbsim_trace::DecodePolicy::quarantine(5))
                .unwrap();
        assert_eq!(trace.stream_len(), 38);
        assert_eq!(trace.health().records_bad, 2);
        assert_eq!(StreamSpec::quarantined_records(&trace), 2);
        let want: Vec<MemoryAccess> = recorded
            .iter()
            .enumerate()
            .filter(|(i, _)| ![3usize, 20].contains(i))
            .map(|(_, r)| *r)
            .collect();
        let got: Vec<MemoryAccess> = trace.workload().collect();
        assert_eq!(got, want);
        // skip_accesses counts usable records, so splitting still works.
        let mut w = trace.workload();
        assert_eq!(w.skip_accesses(19), 19);
        let tail: Vec<MemoryAccess> = w.collect();
        assert_eq!(tail, want[19..]);
        // Budget too small: typed error at open, not a mid-replay panic.
        assert!(matches!(
            TraceWorkload::open_with_policy(&path, tlbsim_trace::DecodePolicy::quarantine(1)),
            Err(TraceError::QuarantineExceeded { bad: 2, max_bad: 1 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    fn write_v2_trace(tag: &str, records: &[MemoryAccess], block_len: u32) -> std::path::PathBuf {
        use tlbsim_trace::V2TraceWriter;
        let path =
            std::env::temp_dir().join(format!("tlbt2-workload-{}-{tag}", std::process::id()));
        let mut w =
            V2TraceWriter::create_with_block_len(std::fs::File::create(&path).unwrap(), block_len)
                .unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        path
    }

    #[test]
    fn v2_traces_are_sniffed_and_replay_identically() {
        let recorded: Vec<MemoryAccess> = (0..700u64)
            .map(|i| MemoryAccess::read(0x40 + i, i * 4096))
            .collect();
        let path = write_v2_trace("sniff", &recorded, 64);
        let trace = TraceWorkload::open(&path).unwrap();
        assert_eq!(trace.format_version(), 2);
        assert_eq!(trace.stream_len(), 700);
        assert_eq!(trace.seek_alignment(), 64);
        assert!(trace.health().is_clean());
        let replayed: Vec<MemoryAccess> = trace.workload().collect();
        assert_eq!(replayed, recorded);
        // Mid-block skip still agrees with the recorded stream.
        let mut w = trace.workload();
        assert_eq!(w.skip_accesses(97), 97);
        let tail: Vec<MemoryAccess> = w.collect();
        assert_eq!(tail, recorded[97..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_open_replays_like_whole_file() {
        let recorded: Vec<MemoryAccess> = (0..1000u64)
            .map(|i| MemoryAccess::read(0x40 + i, i * 64))
            .collect();
        let path = write_v2_trace("stream", &recorded, 32);
        let trace = TraceWorkload::open_streaming(&path, DecodePolicy::Strict, 3).unwrap();
        assert_eq!(trace.backend(), "mmap-window");
        assert_eq!(trace.format_version(), 2);
        assert_eq!(trace.seek_alignment(), 32);
        let replayed: Vec<MemoryAccess> = trace.workload().collect();
        assert_eq!(replayed, recorded);
        // v1 input falls back to the whole-file mapping transparently.
        let v1_path = write_trace("stream-v1", &recorded);
        let v1 = TraceWorkload::open_streaming(&v1_path, DecodePolicy::Strict, 3).unwrap();
        assert_eq!(v1.format_version(), 1);
        assert_eq!(v1.seek_alignment(), 1);
        let replayed: Vec<MemoryAccess> = v1.workload().collect();
        assert_eq!(replayed, recorded);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&v1_path).unwrap();
    }

    #[test]
    fn quarantined_v2_trace_drops_whole_blocks() {
        use tlbsim_trace::{FaultKind, FaultPlan};
        let recorded: Vec<MemoryAccess> = (0..128u64)
            .map(|i| MemoryAccess::read(0x40 + i, i * 4096))
            .collect();
        let path = write_v2_trace("quarantine", &recorded, 16);
        let mut bytes = std::fs::read(&path).unwrap();
        FaultPlan::new()
            .with(40, FaultKind::CorruptKind)
            .apply_to_bytes(&mut bytes);
        std::fs::write(&path, bytes).unwrap();
        assert!(TraceWorkload::open(&path).is_err());
        // Block 2 (records 32..48) is quarantined whole.
        let trace =
            TraceWorkload::open_with_policy(&path, tlbsim_trace::DecodePolicy::quarantine(16))
                .unwrap();
        assert_eq!(trace.stream_len(), 112);
        assert_eq!(trace.health().records_bad, 16);
        assert_eq!(trace.health().blocks_bad, 1);
        let want: Vec<MemoryAccess> = recorded[..32]
            .iter()
            .chain(&recorded[48..])
            .copied()
            .collect();
        let got: Vec<MemoryAccess> = trace.workload().collect();
        assert_eq!(got, want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trace_is_a_valid_zero_length_stream() {
        let path = write_trace("empty", &[]);
        let trace = TraceWorkload::open(&path).unwrap();
        assert_eq!(trace.stream_len(), 0);
        assert!(trace.health().is_clean());
        assert_eq!(trace.workload().count(), 0);
        let mut w = trace.workload();
        assert_eq!(w.skip_accesses(5), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
