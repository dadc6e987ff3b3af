//! Zero-copy trace replay over a memory-mapped file.
//!
//! [`BinaryTraceReader`](crate::BinaryTraceReader) decodes through a
//! `BufReader` one record at a time — fine for tools, too slow (and too
//! iterator-shaped) for the simulator's batched hot loop. [`MmapTrace`]
//! maps the file once (via the `tlbsim-shim-mmap` wrapper; a safe
//! read-whole-file fallback keeps semantics identical off Linux),
//! validates the header **once** at open, and then hands out
//! [`MmapTraceCursor`]s that decode fixed-size record slices straight
//! out of the mapped bytes into caller-owned `&mut [MemoryAccess]`
//! buffers — zero heap allocations in steady-state replay, pinned by
//! `tlbsim-sim`'s counting-allocator test.
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
use tlbsim_core::{AccessKind, MemoryAccess};

use crate::binary::{header_version, HEADER_BYTES, RECORD_BYTES, VERSION};
use crate::error::TraceError;
use crate::policy::{DecodePolicy, TraceHealth};
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

    /// Bytes occupied by the mapped file (header + records).
    pub fn byte_len(&self) -> u64 {
        self.map.as_bytes().len() as u64
    }

    /// Which backend serves the bytes (`"mmap"` zero-copy or the
    /// `"read"` fallback).
    pub fn backend(&self) -> &'static str {
        self.map.backend().label()
    }

    /// The decode policy this trace was opened under (inherited by its
    /// cursors).
    pub fn policy(&self) -> DecodePolicy {
        self.policy
    }

    /// Bytes of a torn final record the mapping carries (always 0 under
    /// the strict policy, which rejects torn files at open).
    pub fn torn_tail_bytes(&self) -> u64 {
        self.torn_tail
    }

    /// A fresh cursor positioned at record 0, decoding under the
    /// trace's own policy.
    pub fn cursor(&self) -> MmapTraceCursor {
        self.cursor_with_policy(self.policy)
    }

    /// A fresh cursor decoding under an explicit policy (e.g. a strict
    /// validation pass over a quarantine-opened trace).
    pub fn cursor_with_policy(&self, policy: DecodePolicy) -> MmapTraceCursor {
        MmapTraceCursor {
            map: Arc::clone(&self.map),
            records: self.records,
            next: 0,
            policy,
            ok_seen: 0,
            bad_seen: 0,
            first_bad: None,
            torn_tail: self.torn_tail,
        }
    }

    /// Decodes every record once, verifying the access-kind bytes, so a
    /// subsequent replay cannot fail mid-stream. Doubles as a sequential
    /// page-cache warm-up of the mapping. Always strict, regardless of
    /// the trace's policy — use [`MmapTrace::scan_health`] for a
    /// policy-aware pass.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidKind`] on the first bad record.
    pub fn validate_records(&self) -> Result<(), TraceError> {
        AnyCursor::V1(self.cursor_with_policy(DecodePolicy::Strict))
            .drain()
            .map(drop)
    }

    /// Decodes every record once under the trace's policy, returning
    /// the full [`TraceHealth`] report. Like
    /// [`MmapTrace::validate_records`], the pass doubles as page-cache
    /// warm-up; on a clean trace under any policy the report is
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
    policy: DecodePolicy,
    ok_seen: u64,
    bad_seen: u64,
    first_bad: Option<u64>,
    torn_tail: u64,
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
    /// record that blew the budget.
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
        match self.policy {
            DecodePolicy::Strict => self.decode_batch_strict(buf),
            DecodePolicy::Quarantine { max_bad } => self.decode_batch_quarantine(buf, max_bad),
        }
    }

    /// The pre-quarantine hot path, byte-for-byte: one bounds check,
    /// then `chunks_exact` over the mapped slice.
    fn decode_batch_strict(&mut self, buf: &mut [MemoryAccess]) -> Result<usize, TraceError> {
        let want = (buf.len() as u64).min(self.records - self.next) as usize;
        if want == 0 {
            return Ok(0);
        }
        let start = HEADER_BYTES + self.next as usize * RECORD_BYTES;
        let bytes = &self.map.as_bytes()[start..start + want * RECORD_BYTES];
        for (i, (slot, raw)) in buf
            .iter_mut()
            .zip(bytes.chunks_exact(RECORD_BYTES))
            .enumerate()
        {
            let kind = match raw[16] {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                found => {
                    self.next += i as u64;
                    return Err(TraceError::InvalidKind { found });
                }
            };
            *slot = MemoryAccess {
                pc: u64::from_le_bytes(raw[0..8].try_into().expect("8-byte slice")).into(),
                vaddr: u64::from_le_bytes(raw[8..16].try_into().expect("8-byte slice")).into(),
                kind,
            };
        }
        self.next += want as u64;
        Ok(want)
    }

    /// Quarantine decode: per-record walk of the same grid, skipping
    /// bad-kind cells and tallying them. `Ok(0)` still means exhausted —
    /// trailing bad records are consumed (and counted) on the way there.
    fn decode_batch_quarantine(
        &mut self,
        buf: &mut [MemoryAccess],
        max_bad: u64,
    ) -> Result<usize, TraceError> {
        // A blown budget is terminal: the error was reported once when
        // the budget broke; afterwards the cursor reads as exhausted.
        if self.bad_seen > max_bad {
            return Ok(0);
        }
        let bytes = self.map.as_bytes();
        let mut filled = 0;
        while filled < buf.len() && self.next < self.records {
            let start = HEADER_BYTES + self.next as usize * RECORD_BYTES;
            let raw = &bytes[start..start + RECORD_BYTES];
            let kind = match raw[16] {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => {
                    if self.first_bad.is_none() {
                        self.first_bad = Some(self.next);
                    }
                    self.bad_seen += 1;
                    self.next += 1;
                    if self.bad_seen > max_bad {
                        return Err(TraceError::QuarantineExceeded {
                            bad: self.bad_seen,
                            max_bad,
                        });
                    }
                    continue;
                }
            };
            buf[filled] = MemoryAccess {
                pc: u64::from_le_bytes(raw[0..8].try_into().expect("8-byte slice")).into(),
                vaddr: u64::from_le_bytes(raw[8..16].try_into().expect("8-byte slice")).into(),
                kind,
            };
            filled += 1;
            self.ok_seen += 1;
            self.next += 1;
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
    /// scans the prefix's kind bytes (one byte per record, no decode,
    /// no allocation) and tallies quarantined cells exactly as a decode
    /// would.
    pub fn skip_records(&mut self, n: u64) -> u64 {
        match self.policy {
            DecodePolicy::Strict => {
                let skipped = n.min(self.records - self.next);
                self.next += skipped;
                skipped
            }
            DecodePolicy::Quarantine { .. } => {
                let bytes = self.map.as_bytes();
                let mut skipped = 0;
                while skipped < n && self.next < self.records {
                    let kind = bytes[HEADER_BYTES + self.next as usize * RECORD_BYTES + 16];
                    if kind <= 1 {
                        skipped += 1;
                        self.ok_seen += 1;
                    } else {
                        if self.first_bad.is_none() {
                            self.first_bad = Some(self.next);
                        }
                        self.bad_seen += 1;
                    }
                    self.next += 1;
                }
                skipped
            }
        }
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

    /// Grid cells left to walk (under quarantine an upper bound on the
    /// records a decode will yield).
    pub fn remaining(&self) -> u64 {
        self.records - self.next
    }

    /// The decode policy this cursor runs under.
    pub fn policy(&self) -> DecodePolicy {
        self.policy
    }

    /// Running health tally over everything this cursor has decoded or
    /// skipped so far (complete once the cursor is exhausted). A strict
    /// cursor reports every record it passed as ok — it would have
    /// errored otherwise. The torn-tail byte count is a property of the
    /// mapping and is reported from the start.
    pub fn health(&self) -> TraceHealth {
        TraceHealth {
            records_ok: match self.policy {
                DecodePolicy::Strict => self.next,
                DecodePolicy::Quarantine { .. } => self.ok_seen,
            },
            records_bad: self.bad_seen,
            torn_tail_bytes: self.torn_tail,
            first_bad_record: self.first_bad,
            blocks_bad: 0,
        }
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
    use crate::binary::{BinaryTraceReader, BinaryTraceWriter, MAGIC};

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
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn mmap_agrees_with_the_bufreader_decoder() {
        let bytes = encode(&sample(257));
        let via_reader: Vec<MemoryAccess> = BinaryTraceReader::open(bytes.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let via_mmap: Vec<MemoryAccess> = open_bytes(bytes)
            .unwrap()
            .cursor()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(via_mmap, via_reader);
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
        assert!(trace.validate_records().is_err());
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
        assert_eq!(cursor.remaining(), 1);
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
        assert_eq!(trace.byte_len(), 8 + 50 * 17);
        assert!(trace.backend() == "mmap" || trace.backend() == "read");
        assert!(trace.validate_records().is_ok());
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
        assert_eq!(trace.torn_tail_bytes(), 13);
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
