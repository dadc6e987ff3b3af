//! The binary trace format.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   : 4 bytes  "TLBT"
//! version : u16      (currently 1)
//! reserved: u16      (zero)
//! records : repeated { pc: u64, vaddr: u64, kind: u8 }
//! ```
//!
//! The format is deliberately dumb: 17 bytes per record, no compression,
//! so external tracing tools (a Pin/DynamoRIO client, a QEMU plugin, …)
//! can emit it with a dozen lines of C.
//!
//! The **normative** specification — field-by-field layout, truncation
//! and validation semantics, the versioning policy, and a reference C
//! writer — is `docs/TRACE_FORMAT.md` at the repository root; this
//! module and [`crate::MmapTrace`] implement it.

use std::io::{self, BufReader, BufWriter, Read, Write};

use tlbsim_core::{AccessKind, MemoryAccess};

use crate::error::TraceError;
use crate::policy::{DecodePolicy, TraceHealth};

/// Magic bytes opening every binary trace.
pub const MAGIC: [u8; 4] = *b"TLBT";
/// Current format version.
pub const VERSION: u16 = 1;
/// Fixed size of every record: `pc: u64`, `vaddr: u64`, `kind: u8`.
///
/// Fixed-width cells are what make record indices byte offsets: record
/// `i` lives at `HEADER_BYTES + i * RECORD_BYTES`, so the mmap cursor
/// ([`crate::MmapTrace`]) seeks in O(1).
pub const RECORD_BYTES: usize = 17;
/// Size of the magic + version + reserved header.
pub const HEADER_BYTES: usize = 8;

/// The version word of a `TLBT` header, once its length and magic check
/// out — the part of the header every format shares.
pub(crate) fn header_version(bytes: &[u8]) -> Result<u16, TraceError> {
    if bytes.len() < HEADER_BYTES {
        return Err(TraceError::TruncatedHeader {
            len: bytes.len() as u64,
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(TraceError::BadMagic {
            found: [bytes[0], bytes[1], bytes[2], bytes[3]],
        });
    }
    Ok(u16::from_le_bytes([bytes[4], bytes[5]]))
}

/// Streaming writer for the binary trace format.
///
/// Generic writers are taken by value; pass `&mut writer` to retain
/// ownership.
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_trace::{BinaryTraceReader, BinaryTraceWriter};
///
/// let mut buf = Vec::new();
/// let mut w = BinaryTraceWriter::create(&mut buf)?;
/// w.write(&MemoryAccess::read(0x400, 0x1000))?;
/// w.finish()?;
///
/// let mut r = BinaryTraceReader::open(buf.as_slice())?;
/// let rec = r.next().unwrap()?;
/// assert_eq!(rec.vaddr.raw(), 0x1000);
/// # Ok::<(), tlbsim_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct BinaryTraceWriter<W: Write> {
    out: BufWriter<W>,
    written: u64,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the header cannot be written.
    pub fn create(out: W) -> Result<Self, TraceError> {
        let mut w = BufWriter::new(out);
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        Ok(BinaryTraceWriter { out: w, written: 0 })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn write(&mut self, access: &MemoryAccess) -> Result<(), TraceError> {
        let mut record = [0u8; RECORD_BYTES];
        record[0..8].copy_from_slice(&access.pc.raw().to_le_bytes());
        record[8..16].copy_from_slice(&access.vaddr.raw().to_le_bytes());
        record[16] = match access.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        };
        self.out.write_all(&record)?;
        self.written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Flushes buffered bytes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the flush fails.
    pub fn finish(self) -> Result<W, TraceError> {
        self.out
            .into_inner()
            .map_err(|e| TraceError::Io(io::Error::other(e.to_string())))
    }
}

/// Streaming reader for the binary trace format; iterate to consume.
///
/// Generic readers are taken by value; pass `&mut reader` to retain
/// ownership.
///
/// By default the reader decodes strictly (the first malformed record
/// aborts iteration with a typed error); open it with
/// [`BinaryTraceReader::open_with_policy`] and
/// [`DecodePolicy::Quarantine`] to skip bad records instead, counting
/// them into [`BinaryTraceReader::health`].
#[derive(Debug)]
pub struct BinaryTraceReader<R: Read> {
    input: BufReader<R>,
    read: u64,
    policy: DecodePolicy,
    bad: u64,
    first_bad: Option<u64>,
    torn_tail: u64,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Opens a reader, validating the header.
    ///
    /// Record indexing is shared across every consumer of the format:
    /// the record this reader yields `n`-th is the one `skip(n)` starts
    /// at, the one an [`MmapTraceCursor`](crate::MmapTraceCursor) seeked
    /// to `n` decodes next, and the one a replayed workload stands on after
    /// `skip_accesses(n)` — a doc-test on
    /// `tlbsim_workloads::TraceWorkload` proves the three agree.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::TruncatedHeader`] if the input ends inside
    /// the 8-byte header, [`TraceError::BadMagic`] /
    /// [`TraceError::UnsupportedVersion`] for malformed headers and
    /// [`TraceError::Io`] for I/O failures.
    pub fn open(input: R) -> Result<Self, TraceError> {
        Self::open_with_policy(input, DecodePolicy::Strict)
    }

    /// Opens a reader under an explicit [`DecodePolicy`].
    ///
    /// Header validation is identical to [`BinaryTraceReader::open`] —
    /// quarantine applies to record decode only, never to the header
    /// (a file that cannot prove it is a TLBT trace is rejected, not
    /// quarantined). Under quarantine the iterator silently skips
    /// records with bad kind bytes (resynchronising on the 17-byte
    /// grid), absorbs a torn final record as end-of-trace, tallies both
    /// into [`BinaryTraceReader::health`], and yields
    /// [`TraceError::QuarantineExceeded`] once more than `max_bad`
    /// records have been skipped.
    ///
    /// # Errors
    ///
    /// As for [`BinaryTraceReader::open`].
    pub fn open_with_policy(input: R, policy: DecodePolicy) -> Result<Self, TraceError> {
        let mut input = BufReader::new(input);
        let mut header = Vec::with_capacity(HEADER_BYTES);
        (&mut input)
            .take(HEADER_BYTES as u64)
            .read_to_end(&mut header)?;
        let version = header_version(&header)?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        Ok(BinaryTraceReader {
            input,
            read: 0,
            policy,
            bad: 0,
            first_bad: None,
            torn_tail: 0,
        })
    }

    /// Number of records decoded so far.
    pub fn records_read(&self) -> u64 {
        self.read
    }

    /// The decode policy this reader runs under.
    pub fn policy(&self) -> DecodePolicy {
        self.policy
    }

    /// Running health tally: records decoded, records quarantined, and
    /// torn-tail bytes seen so far. Meaningful once iteration finishes
    /// (before that it reports the stream prefix consumed so far).
    pub fn health(&self) -> TraceHealth {
        TraceHealth {
            records_ok: self.read,
            records_bad: self.bad,
            torn_tail_bytes: self.torn_tail,
            first_bad_record: self.first_bad,
            blocks_bad: 0,
        }
    }

    fn read_record(&mut self) -> Result<Option<MemoryAccess>, TraceError> {
        // A blown quarantine budget is terminal: the error is reported
        // once (below) and the stream then reads as ended, so consumers
        // collecting `Result`s terminate instead of spinning on errors.
        if let DecodePolicy::Quarantine { max_bad } = self.policy {
            if self.bad > max_bad {
                return Ok(None);
            }
        }
        loop {
            let mut raw = [0u8; RECORD_BYTES];
            let mut filled = 0;
            while filled < RECORD_BYTES {
                match self.input.read(&mut raw[filled..]) {
                    Ok(0) => {
                        if filled == 0 {
                            return Ok(None);
                        }
                        return match self.policy {
                            DecodePolicy::Strict => Err(TraceError::TruncatedRecord),
                            DecodePolicy::Quarantine { .. } => {
                                // A torn final record is end-of-trace
                                // under quarantine; count the fragment.
                                self.torn_tail = filled as u64;
                                Ok(None)
                            }
                        };
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(TraceError::Io(e)),
                }
            }
            let kind = match raw[16] {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                found => match self.policy {
                    DecodePolicy::Strict => return Err(TraceError::InvalidKind { found }),
                    DecodePolicy::Quarantine { max_bad } => {
                        if self.first_bad.is_none() {
                            self.first_bad = Some(self.read + self.bad);
                        }
                        self.bad += 1;
                        if self.bad > max_bad {
                            return Err(TraceError::QuarantineExceeded {
                                bad: self.bad,
                                max_bad,
                            });
                        }
                        continue;
                    }
                },
            };
            let pc = u64::from_le_bytes(raw[0..8].try_into().expect("8-byte slice"));
            let vaddr = u64::from_le_bytes(raw[8..16].try_into().expect("8-byte slice"));
            self.read += 1;
            return Ok(Some(MemoryAccess {
                pc: pc.into(),
                vaddr: vaddr.into(),
                kind,
            }));
        }
    }
}

impl<R: Read> Iterator for BinaryTraceReader<R> {
    type Item = Result<MemoryAccess, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<MemoryAccess> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    MemoryAccess::read(0x400 + i * 4, i * 4096)
                } else {
                    MemoryAccess::write(0x400 + i * 4, i * 4096 + 8)
                }
            })
            .collect()
    }

    fn roundtrip(records: &[MemoryAccess]) -> Vec<MemoryAccess> {
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        assert_eq!(w.records_written(), records.len() as u64);
        w.finish().unwrap();
        BinaryTraceReader::open(buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect()
    }

    #[test]
    fn roundtrip_preserves_records() {
        let recs = sample(100);
        assert_eq!(roundtrip(&recs), recs);
    }

    #[test]
    fn empty_trace_is_valid() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn header_is_17_bytes_per_record_plus_8() {
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in sample(3) {
            w.write(&r).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(buf.len(), 8 + 3 * RECORD_BYTES);
    }

    #[test]
    fn truncated_header_is_rejected() {
        let err = BinaryTraceReader::open(&b"TLB"[..]).unwrap_err();
        assert!(matches!(err, TraceError::TruncatedHeader { len: 3 }));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = BinaryTraceReader::open(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        let err = BinaryTraceReader::open(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion { found: 9 }));
    }

    #[test]
    fn truncated_record_is_reported() {
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        w.write(&MemoryAccess::read(1, 2)).unwrap();
        w.finish().unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = BinaryTraceReader::open(buf.as_slice()).unwrap();
        assert!(matches!(r.next(), Some(Err(TraceError::TruncatedRecord))));
    }

    #[test]
    fn invalid_kind_byte_is_reported() {
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        w.write(&MemoryAccess::read(1, 2)).unwrap();
        w.finish().unwrap();
        let last = buf.len() - 1;
        buf[last] = 7;
        let mut r = BinaryTraceReader::open(buf.as_slice()).unwrap();
        assert!(matches!(
            r.next(),
            Some(Err(TraceError::InvalidKind { found: 7 }))
        ));
    }

    #[test]
    fn quarantine_reader_skips_bad_records_and_reports_health() {
        let recs = sample(10);
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in &recs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        // Corrupt kinds of records 3 and 7, then tear the tail.
        buf[HEADER_BYTES + 3 * RECORD_BYTES + 16] = 0xEE;
        buf[HEADER_BYTES + 7 * RECORD_BYTES + 16] = 0xEE;
        buf.truncate(buf.len() - 4);
        // The torn tail removes record 9 (it becomes a 13-byte fragment).
        let mut r =
            BinaryTraceReader::open_with_policy(buf.as_slice(), DecodePolicy::quarantine(5))
                .unwrap();
        let got: Vec<MemoryAccess> = r.by_ref().map(|x| x.unwrap()).collect();
        let mut want = recs.clone();
        want.remove(9);
        want.remove(7);
        want.remove(3);
        assert_eq!(got, want);
        let health = r.health();
        assert_eq!(health.records_ok, 7);
        assert_eq!(health.records_bad, 2);
        assert_eq!(health.torn_tail_bytes, 13);
        assert_eq!(health.first_bad_record, Some(3));
        assert!(!health.is_clean());
    }

    #[test]
    fn quarantine_budget_aborts_with_typed_error() {
        let recs = sample(6);
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in &recs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        for bad in [1usize, 2, 4] {
            buf[HEADER_BYTES + bad * RECORD_BYTES + 16] = 9;
        }
        let mut r =
            BinaryTraceReader::open_with_policy(buf.as_slice(), DecodePolicy::quarantine(2))
                .unwrap();
        let outcome: Vec<_> = r.by_ref().collect();
        assert!(matches!(
            outcome.last(),
            Some(Err(TraceError::QuarantineExceeded { bad: 3, max_bad: 2 }))
        ));
        assert_eq!(outcome.iter().filter(|x| x.is_ok()).count(), 2);
    }

    #[test]
    fn strict_policy_is_the_default_and_unchanged() {
        let recs = sample(4);
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in &recs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let r = BinaryTraceReader::open(buf.as_slice()).unwrap();
        assert!(r.policy().is_strict());
        let got: Vec<MemoryAccess> = r.map(|x| x.unwrap()).collect();
        assert_eq!(got, recs);
    }

    #[test]
    fn reader_counts_records() {
        let recs = sample(5);
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::create(&mut buf).unwrap();
        for r in &recs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let mut r = BinaryTraceReader::open(buf.as_slice()).unwrap();
        while r.next().is_some() {}
        assert_eq!(r.records_read(), 5);
    }
}
