//! Zero-copy trace replay over a memory-mapped file: the one v1
//! decoder.
//!
//! [`MmapTrace`] maps the file once (via the `tlbsim-shim-mmap`
//! wrapper; a safe read-whole-file fallback keeps semantics identical
//! off Linux), validates the header **once** at open, and then hands
//! out [`MmapTraceCursor`]s that decode fixed-size record slices
//! straight out of the mapped bytes into caller-owned
//! `&mut [MemoryAccess]` buffers — zero heap allocations in
//! steady-state replay, pinned by `tlbsim-sim`'s counting-allocator
//! test.
//!
//! Records are fixed 17-byte cells, so cursors also seek in O(1):
//! [`MmapTraceCursor::skip_records`] is one bounds-checked add, which is
//! what lets the sharded executor position workers mid-trace without
//! replaying the prefix.
//!
//! The byte format this module replays is specified normatively in
//! `docs/TRACE_FORMAT.md` at the repository root.

use std::path::Path;
use std::sync::Arc;

use ::mmap::Mmap;
use tlbsim_core::MemoryAccess;

use crate::binary::{decode_cell, header_version, HEADER_BYTES, RECORD_BYTES, VERSION};
use crate::error::TraceError;
use crate::policy::{DecodePolicy, Tally, TraceHealth};
use crate::reader::AnyCursor;

/// A validated, memory-mapped binary trace (`TLBT` format).
///
/// Cheap to clone conceptually: [`MmapTrace::cursor`] hands out any
/// number of independent read positions over the same mapping, so
/// parallel shards replay one mapped file without re-opening it.
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_trace::{BinaryTraceWriter, MmapTrace};
///
/// let path = std::env::temp_dir().join(format!("tlbt-doc-{}", std::process::id()));
/// let mut w = BinaryTraceWriter::create(std::fs::File::create(&path)?)?;
/// for i in 0..100u64 {
///     w.write(&MemoryAccess::read(0x400, i * 4096))?;
/// }
/// w.finish()?;
///
/// let trace = MmapTrace::open(&path)?;
/// assert_eq!(trace.record_count(), 100);
/// let mut buf = vec![MemoryAccess::read(0, 0); 64];
/// let mut cursor = trace.cursor();
/// assert_eq!(cursor.decode_batch(&mut buf)?, 64);
/// assert_eq!(cursor.decode_batch(&mut buf)?, 36);
/// assert_eq!(cursor.decode_batch(&mut buf)?, 0);
/// std::fs::remove_file(&path).ok();
/// # Ok::<(), tlbsim_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MmapTrace {
    map: Arc<Mmap>,
    records: u64,
    policy: DecodePolicy,
    torn_tail: u64,
}

impl MmapTrace {
    /// Maps and validates a trace file.
    ///
    /// The header (magic, version) and the body length are checked here,
    /// once; cursors never re-validate them.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be opened or mapped;
    /// [`TraceError::TruncatedHeader`] if it is shorter than the 8-byte
    /// header; [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`]
    /// for a malformed header; [`TraceError::TruncatedRecord`] if the
    /// body is not a whole number of 17-byte records (a torn final
    /// record).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_map(Mmap::open(path)?)
    }

    /// Maps a trace file under an explicit [`DecodePolicy`].
    ///
    /// Header validation is policy-independent (a file that cannot
    /// prove it is a TLBT trace is rejected, never quarantined); the
    /// policy governs the body. Under quarantine a torn final record is
    /// accepted — the whole records before it replay and the fragment
    /// length is reported as [`TraceHealth::torn_tail_bytes`] — and the
    /// cursors this trace hands out skip bad-kind records instead of
    /// erroring.
    ///
    /// # Errors
    ///
    /// As for [`MmapTrace::open`], except `TruncatedRecord` for a torn
    /// tail, which only strict mode reports.
    pub fn open_with_policy(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
    ) -> Result<Self, TraceError> {
        Self::from_map_with_policy(Mmap::open(path)?, policy)
    }

    /// Validates an already-obtained mapping (or any in-memory buffer
    /// wrapped in one — see `Mmap::from_vec`), with the same checks as
    /// [`MmapTrace::open`].
    ///
    /// # Errors
    ///
    /// As for [`MmapTrace::open`], minus the I/O.
    pub fn from_map(map: Mmap) -> Result<Self, TraceError> {
        Self::from_map_with_policy(map, DecodePolicy::Strict)
    }

    /// [`MmapTrace::from_map`] under an explicit policy (see
    /// [`MmapTrace::open_with_policy`]).
    ///
    /// # Errors
    ///
    /// As for [`MmapTrace::open_with_policy`].
    pub fn from_map_with_policy(map: Mmap, policy: DecodePolicy) -> Result<Self, TraceError> {
        let bytes = map.as_bytes();
        let version = header_version(bytes)?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let body = bytes.len() - HEADER_BYTES;
        let torn_tail = (body % RECORD_BYTES) as u64;
        if torn_tail != 0 && policy.is_strict() {
            return Err(TraceError::TruncatedRecord);
        }
        Ok(MmapTrace {
            map: Arc::new(map),
            records: (body / RECORD_BYTES) as u64,
            policy,
            torn_tail,
        })
    }

    /// Number of records in the trace.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Which backend serves the bytes (`"mmap"` zero-copy or the
    /// `"read"` fallback).
    pub fn backend(&self) -> &'static str {
        self.map.backend().label()
    }

    /// A fresh cursor positioned at record 0, decoding under the
    /// trace's own policy.
    pub fn cursor(&self) -> MmapTraceCursor {
        MmapTraceCursor {
            map: Arc::clone(&self.map),
            records: self.records,
            next: 0,
            tally: Tally::new(self.policy),
            torn_tail: self.torn_tail,
        }
    }

    /// Decodes every record once under the trace's policy, returning
    /// the full [`TraceHealth`] report. Under the strict policy this
    /// validates the trace, so a later replay cannot fail mid-stream.
    /// The pass doubles as a sequential page-cache warm-up of the
    /// mapping; on a clean trace under any policy the report is
    /// all-zeros except `records_ok`.
    ///
    /// # Errors
    ///
    /// Strict: [`TraceError::InvalidKind`] on the first bad record.
    /// Quarantine: [`TraceError::QuarantineExceeded`] once the skip
    /// count passes the policy's `max_bad`.
    pub fn scan_health(&self) -> Result<TraceHealth, TraceError> {
        AnyCursor::V1(self.cursor()).drain()
    }
}

/// An independent read position over an [`MmapTrace`].
///
/// Decoding fills caller-owned buffers ([`decode_batch`]) so the replay
/// loop performs no heap allocation; seeking is O(1) arithmetic
/// ([`skip_records`], [`seek`]).
///
/// [`decode_batch`]: MmapTraceCursor::decode_batch
/// [`skip_records`]: MmapTraceCursor::skip_records
/// [`seek`]: MmapTraceCursor::seek
#[derive(Debug, Clone)]
pub struct MmapTraceCursor {
    map: Arc<Mmap>,
    records: u64,
    next: u64,
    tally: Tally,
    torn_tail: u64,
}

/// The whole record cells of a mapped trace's body.
#[inline(always)]
fn cells(map: &Mmap) -> &[[u8; RECORD_BYTES]] {
    map.as_bytes()[HEADER_BYTES..].as_chunks().0
}

impl MmapTraceCursor {
    /// Fills `buf` with the next records, returning how many were
    /// written; zero means the trace is exhausted. Mirrors the
    /// `fill_batch` contract of the workload generators, including the
    /// panic on an empty buffer.
    ///
    /// # Errors
    ///
    /// Strict policy: [`TraceError::InvalidKind`] on a corrupt
    /// access-kind byte; the cursor is left positioned **at** the
    /// offending record (everything before it in `buf` is valid but the
    /// count is not returned, so error recovery should re-seek).
    /// Quarantine policy: bad records are skipped and tallied instead
    /// (see [`MmapTraceCursor::health`]);
    /// [`TraceError::QuarantineExceeded`] once the tally passes the
    /// policy's `max_bad`, with the cursor positioned just past the
    /// record that blew the budget, or at the next decode when a
    /// [`skip_records`](Self::skip_records) blew it. The error is
    /// reported once; afterwards the cursor reads as exhausted.
    ///
    /// # Panics
    ///
    /// Panics on an empty `buf` — a zero-length fill would be
    /// indistinguishable from end of trace.
    pub fn decode_batch(&mut self, buf: &mut [MemoryAccess]) -> Result<usize, TraceError> {
        assert!(
            !buf.is_empty(),
            "decode_batch requires a non-empty batch buffer"
        );
        match self.tally.policy() {
            DecodePolicy::Strict => self.decode_batch_strict(buf),
            DecodePolicy::Quarantine { .. } => self.decode_batch_quarantine(buf),
        }
    }

    /// The pre-quarantine hot path: one bounds check, then the cells
    /// of the batch in order.
    fn decode_batch_strict(&mut self, buf: &mut [MemoryAccess]) -> Result<usize, TraceError> {
        let want = (buf.len() as u64).min(self.records - self.next) as usize;
        let start = self.next as usize;
        for (i, (slot, cell)) in buf
            .iter_mut()
            .zip(&cells(&self.map)[start..start + want])
            .enumerate()
        {
            match decode_cell(cell) {
                Ok(access) => *slot = access,
                Err(found) => {
                    self.next += i as u64;
                    return Err(TraceError::InvalidKind { found });
                }
            }
        }
        self.next += want as u64;
        Ok(want)
    }

    /// Quarantine decode: per-record walk of the same grid, skipping
    /// bad-kind cells and tallying them. `Ok(0)` still means exhausted —
    /// trailing bad records are consumed (and counted) on the way there.
    fn decode_batch_quarantine(&mut self, buf: &mut [MemoryAccess]) -> Result<usize, TraceError> {
        if !self.tally.admit()? {
            return Ok(0);
        }
        let cells = cells(&self.map);
        let mut filled = 0;
        while filled < buf.len() && self.next < self.records {
            let at = self.next;
            self.next += 1;
            match decode_cell(&cells[at as usize]) {
                Ok(access) => {
                    buf[filled] = access;
                    filled += 1;
                    self.tally.ok(1);
                }
                Err(_) => {
                    self.tally.bad(at, 1, false);
                    self.tally.check()?;
                }
            }
        }
        Ok(filled)
    }

    /// Advances past the next `n` *decodable* records, returning how
    /// many were actually skipped (less than `n` only at end of trace).
    ///
    /// This is the trace counterpart of the generators'
    /// `skip_accesses`. Under the strict policy it is O(1) — records are
    /// fixed-width cells, so a shard positions itself at any mid-trace
    /// offset with one add, no prefix decode at all. Under quarantine a
    /// skip must count only records a decode would have yielded, so it
    /// checks the prefix's cells (no allocation) and tallies
    /// quarantined cells exactly as a decode would, without enforcing
    /// the budget: the next decode reports a budget the skip blew. Once
    /// a decode has reported the blown budget the cursor reads as
    /// exhausted, and a skip passes nothing.
    pub fn skip_records(&mut self, n: u64) -> u64 {
        if self.tally.policy().is_strict() {
            let skipped = n.min(self.records - self.next);
            self.next += skipped;
            return skipped;
        }
        if self.tally.spent() {
            return 0;
        }
        let cells = cells(&self.map);
        let mut skipped = 0;
        while skipped < n && self.next < self.records {
            if decode_cell(&cells[self.next as usize]).is_ok() {
                skipped += 1;
                self.tally.ok(1);
            } else {
                self.tally.bad(self.next, 1, false);
            }
            self.next += 1;
        }
        skipped
    }

    /// Repositions the cursor at an absolute record index (clamped to
    /// the end of the trace).
    pub fn seek(&mut self, record: u64) {
        self.next = record.min(self.records);
    }

    /// The index of the next record to decode (on the raw 17-byte
    /// grid — under quarantine this counts bad cells too).
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Running health tally over everything this cursor has decoded or
    /// skipped so far (complete once the cursor is exhausted). A strict
    /// cursor reports every record it passed as ok — it would have
    /// errored otherwise. The torn-tail byte count is a property of the
    /// mapping and is reported from the start.
    pub fn health(&self) -> TraceHealth {
        self.tally.health(self.next, self.torn_tail)
    }
}

impl Iterator for MmapTraceCursor {
    type Item = Result<MemoryAccess, TraceError>;

    /// One-record convenience over [`MmapTraceCursor::decode_batch`];
    /// tools iterate, the simulator batches.
    fn next(&mut self) -> Option<Self::Item> {
        let mut one = [MemoryAccess::read(0, 0)];
        match self.decode_batch(&mut one) {
            Ok(0) => None,
            Ok(_) => Some(Ok(one[0])),
            Err(e) => {
                // Don't re-report the same record forever.
                self.next = (self.next + 1).min(self.records);
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::tests::decode_longhand;
    use crate::binary::{BinaryTraceWriter, MAGIC};

    fn sample(n: u64) -> Vec<MemoryAccess> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    MemoryAccess::write(0x400 + i, i * 4096 + 64)
                } else {
                    MemoryAccess::read(0x400 + i, i * 4096)
                }
            })
            .collect()
    }

    fn encode(records: &[MemoryAccess]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    fn open_bytes(bytes: Vec<u8>) -> Result<MmapTrace, TraceError> {
        MmapTrace::from_map(Mmap::from_vec(bytes))
    }

    #[test]
    fn decode_batch_round_trips_all_records() {
        let records = sample(1000);
        let trace = open_bytes(encode(&records)).unwrap();
        assert_eq!(trace.record_count(), 1000);
        let mut got = Vec::new();
        let mut cursor = trace.cursor();
        let mut buf = vec![MemoryAccess::read(0, 0); 129]; // not a divisor of 1000
        loop {
            let n = cursor.decode_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, records);
        assert_eq!(cursor.position(), trace.record_count());
    }

    #[test]
    fn mmap_agrees_with_the_longhand_decoder() {
        let bytes = encode(&sample(257));
        let via_longhand = decode_longhand(&bytes);
        let via_mmap: Vec<MemoryAccess> = open_bytes(bytes)
            .unwrap()
            .cursor()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(via_mmap, via_longhand);
    }

    #[test]
    fn empty_trace_is_valid_and_yields_nothing() {
        let trace = open_bytes(encode(&[])).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.cursor().count(), 0);
        let mut buf = [MemoryAccess::read(0, 0); 4];
        assert_eq!(trace.cursor().decode_batch(&mut buf).unwrap(), 0);
    }

    #[test]
    fn header_and_body_are_validated_once_at_open() {
        assert!(matches!(
            open_bytes(b"TLB".to_vec()),
            Err(TraceError::TruncatedHeader { len: 3 })
        ));
        assert!(matches!(
            open_bytes(b"NOPE\x01\x00\x00\x00".to_vec()),
            Err(TraceError::BadMagic { .. })
        ));
        let mut wrong_version = Vec::new();
        wrong_version.extend_from_slice(&MAGIC);
        wrong_version.extend_from_slice(&7u16.to_le_bytes());
        wrong_version.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            open_bytes(wrong_version),
            Err(TraceError::UnsupportedVersion { found: 7 })
        ));
        let mut torn = encode(&sample(3));
        torn.truncate(torn.len() - 5);
        assert!(matches!(open_bytes(torn), Err(TraceError::TruncatedRecord)));
    }

    #[test]
    fn invalid_kind_byte_is_reported_at_its_record() {
        let mut bytes = encode(&sample(10));
        let offset = HEADER_BYTES + 4 * RECORD_BYTES + 16;
        bytes[offset] = 9;
        let trace = open_bytes(bytes).unwrap();
        let mut cursor = trace.cursor();
        let mut buf = [MemoryAccess::read(0, 0); 32];
        let err = cursor.decode_batch(&mut buf).unwrap_err();
        assert!(matches!(err, TraceError::InvalidKind { found: 9 }));
        assert_eq!(cursor.position(), 4);
        assert!(trace.scan_health().is_err());
    }

    #[test]
    fn iteration_reports_each_fault_once_then_resumes_or_ends() {
        // `xp convert` and `xp tracestat` iterate an `AnyCursor`. Strict:
        // a bad kind at record 4 is one error between records 0–3 and 5–9.
        let records = sample(10);
        let mut bytes = encode(&records);
        bytes[HEADER_BYTES + 4 * RECORD_BYTES + 16] = 9;
        let got: Vec<_> = AnyCursor::V1(open_bytes(bytes.clone()).unwrap().cursor()).collect();
        assert_eq!(got.len(), 10);
        assert!(matches!(got[4], Err(TraceError::InvalidKind { found: 9 })));
        let good: Vec<MemoryAccess> = got.into_iter().filter_map(Result::ok).collect();
        let mut want = records.clone();
        want.remove(4);
        assert_eq!(good, want);

        // Quarantine: the record that blows the budget is one error after
        // the good records before it, and then the stream ends.
        for bad in [1usize, 2] {
            bytes[HEADER_BYTES + bad * RECORD_BYTES + 16] = 9;
        }
        let got: Vec<_> = AnyCursor::V1(open_quarantine(bytes, 2).cursor()).collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].as_ref().ok(), Some(&records[0]));
        assert_eq!(got[1].as_ref().ok(), Some(&records[3]));
        assert!(matches!(
            got[2],
            Err(TraceError::QuarantineExceeded { bad: 3, max_bad: 2 })
        ));
    }

    #[test]
    fn skip_records_is_exact_and_clamped() {
        let records = sample(100);
        let trace = open_bytes(encode(&records)).unwrap();
        let mut cursor = trace.cursor();
        assert_eq!(cursor.skip_records(40), 40);
        let tail: Vec<MemoryAccess> = cursor.clone().map(|r| r.unwrap()).collect();
        assert_eq!(tail, records[40..]);
        assert_eq!(cursor.skip_records(1000), 60);
        assert_eq!(cursor.skip_records(1), 0);
        cursor.seek(99);
        assert_eq!(cursor.position(), 99);
        cursor.seek(10_000);
        assert_eq!(cursor.position(), 100);
    }

    #[test]
    fn independent_cursors_share_one_mapping() {
        let records = sample(64);
        let trace = open_bytes(encode(&records)).unwrap();
        let mut a = trace.cursor();
        let mut b = trace.cursor();
        b.skip_records(32);
        let from_a: Vec<MemoryAccess> = a.by_ref().map(|r| r.unwrap()).collect();
        let from_b: Vec<MemoryAccess> = b.map(|r| r.unwrap()).collect();
        assert_eq!(from_a, records);
        assert_eq!(from_b, records[32..]);
    }

    #[test]
    fn open_maps_a_real_file() {
        let path = std::env::temp_dir().join(format!("tlbt-open-{}", std::process::id()));
        let records = sample(50);
        std::fs::write(&path, encode(&records)).unwrap();
        let trace = MmapTrace::open(&path).unwrap();
        assert_eq!(trace.record_count(), 50);
        assert!(trace.backend() == "mmap" || trace.backend() == "read");
        assert_eq!(trace.scan_health().unwrap().records_ok, 50);
        let got: Vec<MemoryAccess> = trace.cursor().map(|r| r.unwrap()).collect();
        assert_eq!(got, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_decode_buffer_panics() {
        let trace = open_bytes(encode(&sample(1))).unwrap();
        let _ = trace.cursor().decode_batch(&mut []);
    }

    fn open_quarantine(bytes: Vec<u8>, max_bad: u64) -> MmapTrace {
        MmapTrace::from_map_with_policy(Mmap::from_vec(bytes), DecodePolicy::quarantine(max_bad))
            .unwrap()
    }

    #[test]
    fn quarantine_cursor_skips_bad_records_and_tallies_health() {
        let records = sample(100);
        let mut bytes = encode(&records);
        for bad in [5usize, 50, 99] {
            bytes[HEADER_BYTES + bad * RECORD_BYTES + 16] = 0xEE;
        }
        let trace = open_quarantine(bytes, 10);
        let mut cursor = trace.cursor();
        let mut got = Vec::new();
        let mut buf = vec![MemoryAccess::read(0, 0); 33];
        loop {
            let n = cursor.decode_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        let want: Vec<MemoryAccess> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| ![5usize, 50, 99].contains(i))
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(got, want);
        let health = cursor.health();
        assert_eq!(health.records_ok, 97);
        assert_eq!(health.records_bad, 3);
        assert_eq!(health.first_bad_record, Some(5));
        assert_eq!(health.torn_tail_bytes, 0);
        // scan_health agrees with a manual drain.
        assert_eq!(trace.scan_health().unwrap(), health);
    }

    #[test]
    fn quarantine_accepts_a_torn_tail_strict_rejects_it() {
        let mut torn = encode(&sample(10));
        torn.truncate(torn.len() - 4);
        assert!(matches!(
            open_bytes(torn.clone()),
            Err(TraceError::TruncatedRecord)
        ));
        let trace = open_quarantine(torn, 0);
        assert_eq!(trace.record_count(), 9);
        let health = trace.scan_health().unwrap();
        assert_eq!(health.records_ok, 9);
        assert_eq!(health.torn_tail_bytes, 13);
        assert!(!health.is_clean());
    }

    #[test]
    fn quarantine_budget_aborts_the_scan() {
        let mut bytes = encode(&sample(20));
        for bad in 0..5usize {
            bytes[HEADER_BYTES + bad * 3 * RECORD_BYTES + 16] = 7;
        }
        let trace = open_quarantine(bytes, 2);
        assert!(matches!(
            trace.scan_health(),
            Err(TraceError::QuarantineExceeded { bad: 3, max_bad: 2 })
        ));
    }

    #[test]
    fn quarantine_skip_counts_only_good_records() {
        let records = sample(50);
        let mut bytes = encode(&records);
        // Corrupt records 2 and 4: skipping 10 good records must land
        // the cursor on raw grid cell 12.
        for bad in [2usize, 4] {
            bytes[HEADER_BYTES + bad * RECORD_BYTES + 16] = 0xEE;
        }
        let trace = open_quarantine(bytes, 10);
        let mut cursor = trace.cursor();
        assert_eq!(cursor.skip_records(10), 10);
        assert_eq!(cursor.position(), 12);
        let tail: Vec<MemoryAccess> = cursor.clone().map(|r| r.unwrap()).collect();
        assert_eq!(tail, records[12..]);
        // Skip-then-decode matches decode-from-scratch (seek contract).
        let mut fresh = trace.cursor();
        let mut all = Vec::new();
        let mut buf = vec![MemoryAccess::read(0, 0); 16];
        loop {
            let n = fresh.decode_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            all.extend_from_slice(&buf[..n]);
        }
        assert_eq!(tail, all[10..]);
        // Health counted the two bad cells the skip walked over.
        assert_eq!(cursor.health().records_bad, 2);
    }

    #[test]
    fn a_skip_that_blows_the_budget_is_reported_by_the_next_decode() {
        let mut bytes = encode(&sample(30));
        for bad in [3usize, 5] {
            bytes[HEADER_BYTES + bad * RECORD_BYTES + 16] = 0xEE;
        }
        let mut cursor = open_quarantine(bytes, 1).cursor();
        assert_eq!(cursor.skip_records(10), 10);
        assert_eq!(cursor.health().records_bad, 2);
        let mut buf = [MemoryAccess::read(0, 0); 8];
        assert!(matches!(
            cursor.decode_batch(&mut buf),
            Err(TraceError::QuarantineExceeded { bad: 2, max_bad: 1 })
        ));
        assert_eq!(cursor.decode_batch(&mut buf).unwrap(), 0);
        assert_eq!(cursor.position(), 12);
    }

    #[test]
    fn a_spent_cursor_skips_nothing() {
        let mut bytes = encode(&sample(30));
        for bad in [3usize, 5] {
            bytes[HEADER_BYTES + bad * RECORD_BYTES + 16] = 0xEE;
        }
        let mut cursor = open_quarantine(bytes, 1).cursor();
        let mut buf = [MemoryAccess::read(0, 0); 4];
        let err = loop {
            match cursor.decode_batch(&mut buf) {
                Ok(0) => panic!("must hit the budget first"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceError::QuarantineExceeded { .. }));
        let at = cursor.position();
        assert_eq!(cursor.skip_records(10), 0);
        assert_eq!(cursor.position(), at);
        assert_eq!(cursor.decode_batch(&mut buf).unwrap(), 0);
    }

    #[test]
    fn clean_trace_decodes_identically_under_both_policies() {
        let records = sample(333);
        let bytes = encode(&records);
        let strict: Vec<MemoryAccess> = open_bytes(bytes.clone())
            .unwrap()
            .cursor()
            .map(|r| r.unwrap())
            .collect();
        let trace = open_quarantine(bytes, 0);
        let lenient: Vec<MemoryAccess> = trace.cursor().map(|r| r.unwrap()).collect();
        assert_eq!(strict, lenient);
        assert_eq!(strict, records);
        let health = trace.scan_health().unwrap();
        assert!(health.is_clean());
        assert_eq!(health.records_ok, 333);
    }
}
