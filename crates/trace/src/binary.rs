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

use std::io::{self, BufWriter, Write};

use tlbsim_core::{AccessKind, MemoryAccess};

use crate::error::TraceError;
use crate::fault::{wild_vaddr, FaultKind, PlannedFault};

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

/// The kind byte of an access: 0 = read, 1 = write.
#[inline(always)]
pub(crate) fn encode_kind(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

/// The access kind a kind byte names; any byte other than 0 or 1 is
/// `Err` carrying that byte.
#[inline(always)]
pub(crate) fn decode_kind(byte: u8) -> Result<AccessKind, u8> {
    match byte {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        found => Err(found),
    }
}

/// Encodes one record cell: `pc: u64`, `vaddr: u64`, `kind: u8`, the
/// layout of a v1 record and of a v2 block's restart record.
#[inline(always)]
pub(crate) fn encode_cell(access: &MemoryAccess) -> [u8; RECORD_BYTES] {
    let mut cell = [0u8; RECORD_BYTES];
    cell[0..8].copy_from_slice(&access.pc.raw().to_le_bytes());
    cell[8..16].copy_from_slice(&access.vaddr.raw().to_le_bytes());
    cell[16] = encode_kind(access.kind);
    cell
}

/// Decodes one record cell; a bad kind byte is `Err` carrying it.
#[inline(always)]
pub(crate) fn decode_cell(cell: &[u8; RECORD_BYTES]) -> Result<MemoryAccess, u8> {
    let kind = decode_kind(cell[16])?;
    Ok(MemoryAccess {
        pc: u64::from_le_bytes(cell[0..8].try_into().expect("8-byte slice")).into(),
        vaddr: u64::from_le_bytes(cell[8..16].try_into().expect("8-byte slice")).into(),
        kind,
    })
}

/// Plants a byte-level fault in one record cell: `CorruptKind` smashes
/// the kind byte to `0xEE`, `WildVaddr` rewrites the vaddr to
/// [`wild_vaddr`]`(record)`; the other kinds are not cell edits.
pub(crate) fn fault_cell(cell: &mut [u8; RECORD_BYTES], fault: &PlannedFault) {
    match fault.kind {
        FaultKind::CorruptKind => cell[16] = 0xEE,
        FaultKind::WildVaddr => {
            cell[8..16].copy_from_slice(&wild_vaddr(fault.record).to_le_bytes())
        }
        FaultKind::TruncateTail | FaultKind::WorkerPanic => {}
    }
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
/// use tlbsim_trace::{BinaryTraceWriter, DecodePolicy, TraceReader};
///
/// let path = std::env::temp_dir().join(format!("tlbt-writer-{}", std::process::id()));
/// let mut w = BinaryTraceWriter::create(std::fs::File::create(&path)?)?;
/// w.write(&MemoryAccess::read(0x400, 0x1000))?;
/// w.finish()?;
///
/// let rec = TraceReader::open(&path, DecodePolicy::Strict)?.cursor().next().unwrap()?;
/// assert_eq!(rec.vaddr.raw(), 0x1000);
/// std::fs::remove_file(&path).ok();
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
        self.out.write_all(&encode_cell(access))?;
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The retained slow path for v1: a strict decode written out
    /// longhand, which `MmapTrace` is checked against. It panics on any
    /// damage, so it only ever reads well-formed test traces.
    pub(crate) fn decode_longhand(bytes: &[u8]) -> Vec<MemoryAccess> {
        assert_eq!(bytes[0..4], MAGIC, "magic");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION, "version");
        let body = &bytes[HEADER_BYTES..];
        assert_eq!(body.len() % RECORD_BYTES, 0, "torn final record");
        body.chunks_exact(RECORD_BYTES)
            .map(|raw| {
                let pc = u64::from_le_bytes(raw[0..8].try_into().unwrap());
                let vaddr = u64::from_le_bytes(raw[8..16].try_into().unwrap());
                match raw[16] {
                    0 => MemoryAccess::read(pc, vaddr),
                    1 => MemoryAccess::write(pc, vaddr),
                    found => panic!("invalid kind byte {found}"),
                }
            })
            .collect()
    }

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
        decode_longhand(&buf)
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
    fn cell_codec_round_trips_and_rejects_every_other_kind_byte() {
        let (pc, vaddr) = (0x0123_4567_89AB_CDEF, u64::MAX - 7);
        let cell = encode_cell(&MemoryAccess::write(pc, vaddr));
        assert_eq!(cell[16], 1);
        for byte in 0..=u8::MAX {
            let mut cell = cell;
            cell[16] = byte;
            let want = match byte {
                0 => Ok(MemoryAccess::read(pc, vaddr)),
                1 => Ok(MemoryAccess::write(pc, vaddr)),
                found => Err(found),
            };
            assert_eq!(decode_cell(&cell), want, "kind byte {byte}");
        }
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
}
