//! Byte-level primitives of the TLBT **v2** block format: zig-zag
//! varints, restart/delta record coding, block validation, and the
//! trailing index/footer layout.
//!
//! A v2 trace shares v1's 8-byte header (version field = 2) and then
//! packs records into fixed-count **blocks**:
//!
//! ```text
//! block   := restart delta*
//! restart := pc u64 LE, vaddr u64 LE, kind u8          (17 bytes)
//! delta   := kind u8,
//!            varint(zigzag(pc_i    - pc_{i-1})),
//!            varint(zigzag(vaddr_i - vaddr_{i-1}))
//! ```
//!
//! The restart record *is* the block's first record, stored absolutely
//! in the same 17-byte cell layout as a v1 record; every later record
//! is a signed delta against its immediate predecessor. After the last
//! block comes the **block index** (one fixed 16-byte entry per block:
//! absolute byte offset, first record number) and a fixed 32-byte
//! **footer** that locates the index — so `skip`/`seek` resolve any
//! record number to a block in O(1) and decode at most one block of
//! deltas, and shard cuts land on block boundaries without scanning.
//!
//! The normative specification is `docs/TRACE_FORMAT.md`; this module
//! holds the pure byte-level helpers shared by the v2 writer and
//! cursor in [`crate::v2`]; the restart record is the v1 record cell,
//! whose codec lives in `binary.rs`.

use tlbsim_core::{AccessKind, MemoryAccess};

use crate::binary::{decode_cell, decode_kind, encode_cell, encode_kind, RECORD_BYTES};

/// Format version stamped in the header of block-compressed traces.
pub const V2_VERSION: u16 = 2;
/// Size of a block's restart record — the block's first record stored
/// absolutely, as a v1 record cell.
pub const RESTART_BYTES: usize = RECORD_BYTES;
/// Size of one block-index entry: `byte_offset: u64`, `first_record:
/// u64`, both little-endian.
pub const INDEX_ENTRY_BYTES: usize = 16;
/// Size of the fixed footer closing every v2 trace.
pub const FOOTER_BYTES: usize = 32;
/// Magic bytes ending the footer (and therefore the file).
pub const FOOTER_MAGIC: [u8; 4] = *b"TBIX";
/// Records per block when the writer is not told otherwise. Large
/// enough to amortise restarts and keep the index tiny, small enough
/// that block-granular quarantine loses little and a streaming window
/// of a few blocks stays cache-friendly.
pub const DEFAULT_BLOCK_LEN: u32 = 4096;

/// Maps a signed delta onto the unsigned varint domain so small
/// negative strides stay short (−1 → 1, 1 → 2, −2 → 3, …).
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit =
/// continuation; at most 10 bytes for a full u64).
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint at `*pos`, advancing it. `None` if the varint runs
/// off the end of `bytes` or past the 10-byte maximum.
#[inline]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Encodes `access` as a restart record: one v1 record cell.
pub(crate) fn encode_restart(out: &mut Vec<u8>, access: &MemoryAccess) {
    out.extend_from_slice(&encode_cell(access));
}

/// Encodes `access` as a delta record against the previous record's
/// pc/vaddr.
pub(crate) fn encode_delta(
    out: &mut Vec<u8>,
    prev_pc: u64,
    prev_vaddr: u64,
    access: &MemoryAccess,
) {
    out.push(encode_kind(access.kind));
    put_varint(out, zigzag(access.pc.raw().wrapping_sub(prev_pc) as i64));
    put_varint(
        out,
        zigzag(access.vaddr.raw().wrapping_sub(prev_vaddr) as i64),
    );
}

/// What went wrong decoding inside one block. The cursor maps these to
/// typed [`TraceError`](crate::TraceError)s carrying the block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockFault {
    /// The block's extent ends inside the 17-byte restart record.
    Restart,
    /// A delta record ends early, a varint overruns, or (checked at
    /// block completion) spare bytes trail the last record.
    Payload,
    /// A restart or delta carries an invalid access-kind byte.
    BadKind(u8),
}

/// Incremental decode position inside one block. Plain numbers only, so
/// a cursor can persist it across `decode_batch` calls without holding
/// a borrow of the block bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodeState {
    /// Which block the state describes (`u64::MAX` = none).
    pub block: u64,
    /// Whether a quarantine cursor has already validated this block.
    pub checked: bool,
    /// Records decoded from the block so far.
    pub emitted: u64,
    /// Byte position of the next record within the block.
    pub pos: usize,
    /// Previous record's pc (delta base).
    pub prev_pc: u64,
    /// Previous record's vaddr (delta base).
    pub prev_vaddr: u64,
}

impl DecodeState {
    /// No block entered yet.
    pub(crate) fn none() -> Self {
        DecodeState {
            block: u64::MAX,
            checked: false,
            emitted: 0,
            pos: 0,
            prev_pc: 0,
            prev_vaddr: 0,
        }
    }

    /// Positioned at the start of `block`.
    pub(crate) fn at(block: u64) -> Self {
        DecodeState {
            block,
            ..DecodeState::none()
        }
    }
}

/// Decodes the next record of the block whose bytes are `bytes`,
/// advancing `state`. The first call per block decodes the restart;
/// later calls decode deltas. The caller bounds the record count — this
/// function never checks it.
#[inline]
pub(crate) fn next_record(
    bytes: &[u8],
    state: &mut DecodeState,
) -> Result<MemoryAccess, BlockFault> {
    if state.emitted == 0 {
        let cell = bytes.first_chunk().ok_or(BlockFault::Restart)?;
        let record = decode_cell(cell).map_err(BlockFault::BadKind)?;
        state.pos = RESTART_BYTES;
        state.emitted = 1;
        state.prev_pc = record.pc.raw();
        state.prev_vaddr = record.vaddr.raw();
        return Ok(record);
    }
    let mut pos = state.pos;
    let kind =
        decode_kind(*bytes.get(pos).ok_or(BlockFault::Payload)?).map_err(BlockFault::BadKind)?;
    pos += 1;
    let dpc = read_varint(bytes, &mut pos).ok_or(BlockFault::Payload)?;
    let dvaddr = read_varint(bytes, &mut pos).ok_or(BlockFault::Payload)?;
    let pc = state.prev_pc.wrapping_add(unzigzag(dpc) as u64);
    let vaddr = state.prev_vaddr.wrapping_add(unzigzag(dvaddr) as u64);
    state.pos = pos;
    state.emitted += 1;
    state.prev_pc = pc;
    state.prev_vaddr = vaddr;
    Ok(MemoryAccess {
        pc: pc.into(),
        vaddr: vaddr.into(),
        kind,
    })
}

/// Decodes delta records of the block whose bytes are `bytes` into
/// `out`, one per slot, with the position and delta bases held in
/// locals; one- and two-byte varints skip [`read_varint`]. The
/// block-run counterpart of [`next_record`]: it decodes exactly what
/// that many `next_record` calls would.
///
/// `state` must already be past the restart (`emitted >= 1`), and the
/// caller bounds `out` by the records left in the block. `state` is
/// written back once, at the end of the run or at a fault; after a
/// fault it describes the last good record, so the records decoded
/// before it are `state.emitted` minus its value on entry, and they are
/// in `out`.
#[inline]
pub(crate) fn decode_deltas(
    bytes: &[u8],
    state: &mut DecodeState,
    out: &mut [MemoryAccess],
) -> Result<(), BlockFault> {
    debug_assert!(state.emitted >= 1, "the restart is decoded by next_record");
    let mut pos = state.pos;
    let mut pc = state.prev_pc;
    let mut vaddr = state.prev_vaddr;
    let mut fault = None;
    let mut done = 0usize;
    for slot in out.iter_mut() {
        let (kind, dpc, dvaddr, after) = match delta_at(bytes, pos) {
            Ok(record) => record,
            Err(bad) => {
                fault = Some(bad);
                break;
            }
        };
        pos = after;
        pc = pc.wrapping_add(unzigzag(dpc) as u64);
        vaddr = vaddr.wrapping_add(unzigzag(dvaddr) as u64);
        *slot = MemoryAccess {
            pc: pc.into(),
            vaddr: vaddr.into(),
            kind,
        };
        done += 1;
    }
    state.pos = pos;
    state.prev_pc = pc;
    state.prev_vaddr = vaddr;
    state.emitted += done as u64;
    fault.map_or(Ok(()), Err)
}

/// The delta record at `pos`: its kind, zig-zagged pc and vaddr deltas,
/// and the position after it.
#[inline(always)]
fn delta_at(bytes: &[u8], pos: usize) -> Result<(AccessKind, u64, u64, usize), BlockFault> {
    let kind =
        decode_kind(*bytes.get(pos).ok_or(BlockFault::Payload)?).map_err(BlockFault::BadKind)?;
    let mut at = pos + 1;
    let dpc = short_varint(bytes, &mut at).ok_or(BlockFault::Payload)?;
    let dvaddr = short_varint(bytes, &mut at).ok_or(BlockFault::Payload)?;
    Ok((kind, dpc, dvaddr, at))
}

/// [`read_varint`] with the one- and two-byte cases inline (a one-byte
/// pc delta and a two-byte vaddr delta is the common record: strides
/// of 64 B up to 8 KiB).
#[inline(always)]
fn short_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let first = *bytes.get(*pos)?;
    if first < 0x80 {
        *pos += 1;
        return Some(u64::from(first));
    }
    if let Some(&second) = bytes.get(*pos + 1) {
        if second < 0x80 {
            *pos += 2;
            return Some(u64::from(first & 0x7F) | u64::from(second) << 7);
        }
    }
    read_varint(bytes, pos)
}

/// Walks a whole block without emitting, checking that exactly
/// `records` records decode and the payload has no spare bytes. This is
/// the quarantine cursor's validate-before-emit pass; it allocates
/// nothing.
pub(crate) fn validate(bytes: &[u8], records: u64) -> Result<(), BlockFault> {
    let mut state = DecodeState::at(0);
    for _ in 0..records {
        next_record(bytes, &mut state)?;
    }
    if state.pos != bytes.len() {
        return Err(BlockFault::Payload);
    }
    Ok(())
}

/// The fixed 32-byte footer closing every v2 trace:
///
/// ```text
/// index_offset  : u64 LE   absolute byte offset of the block index
/// total_records : u64 LE
/// block_len     : u32 LE   records per block (last block may be short)
/// block_count   : u32 LE
/// reserved      : u32 LE   zero
/// magic         : 4 bytes  "TBIX"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footer {
    /// Absolute byte offset of the block index.
    pub index_offset: u64,
    /// Records in the trace.
    pub total_records: u64,
    /// Records per block (the final block may hold fewer).
    pub block_len: u32,
    /// Number of blocks (and index entries).
    pub block_count: u32,
}

impl Footer {
    /// Serialises the footer.
    pub(crate) fn encode(&self) -> [u8; FOOTER_BYTES] {
        let mut out = [0u8; FOOTER_BYTES];
        out[0..8].copy_from_slice(&self.index_offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.total_records.to_le_bytes());
        out[16..20].copy_from_slice(&self.block_len.to_le_bytes());
        out[20..24].copy_from_slice(&self.block_count.to_le_bytes());
        // bytes 24..28 reserved (zero)
        out[28..32].copy_from_slice(&FOOTER_MAGIC);
        out
    }

    /// Parses the footer from the last [`FOOTER_BYTES`] of a file.
    /// `None` if `tail` is not exactly footer-sized or the magic is
    /// absent.
    pub(crate) fn parse(tail: &[u8]) -> Option<Footer> {
        if tail.len() != FOOTER_BYTES || tail[28..32] != FOOTER_MAGIC {
            return None;
        }
        Some(Footer {
            index_offset: u64::from_le_bytes(tail[0..8].try_into().expect("8-byte slice")),
            total_records: u64::from_le_bytes(tail[8..16].try_into().expect("8-byte slice")),
            block_len: u32::from_le_bytes(tail[16..20].try_into().expect("4-byte slice")),
            block_count: u32::from_le_bytes(tail[20..24].try_into().expect("4-byte slice")),
        })
    }
}

/// Parses index entry `i` out of raw index bytes (relative to the
/// index start): returns `(byte_offset, first_record)`.
#[inline]
pub(crate) fn index_entry(index_bytes: &[u8], i: u64) -> (u64, u64) {
    let base = i as usize * INDEX_ENTRY_BYTES;
    let offset = u64::from_le_bytes(
        index_bytes[base..base + 8]
            .try_into()
            .expect("8-byte slice"),
    );
    let first = u64::from_le_bytes(
        index_bytes[base + 8..base + 16]
            .try_into()
            .expect("8-byte slice"),
    );
    (offset, first)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deltas of every encoded width: one- and two-byte strides of
    /// either sign, longer (including negative) strides, and full-range
    /// values that wrap the 64-bit address space.
    fn arb_delta() -> impl Strategy<Value = u64> {
        prop_oneof![
            (-64i64..64).prop_map(|d| d as u64),
            (-8192i64..8192).prop_map(|d| d as u64),
            (-(1i64 << 40)..(1i64 << 40)).prop_map(|d| d as u64),
            any::<u64>(),
        ]
    }

    /// Random records chained from random deltas.
    pub(crate) fn arb_records(
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<MemoryAccess>> {
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((any::<bool>(), arb_delta(), arb_delta()), len),
        )
            .prop_map(|(mut pc, mut vaddr, steps)| {
                steps
                    .into_iter()
                    .map(|(write, dpc, dvaddr)| {
                        pc = pc.wrapping_add(dpc);
                        vaddr = vaddr.wrapping_add(dvaddr);
                        if write {
                            MemoryAccess::write(pc, vaddr)
                        } else {
                            MemoryAccess::read(pc, vaddr)
                        }
                    })
                    .collect()
            })
    }

    /// One block holding `records`, and the byte offset of each record.
    fn encode_block(records: &[MemoryAccess]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        let mut starts = Vec::new();
        for (i, record) in records.iter().enumerate() {
            starts.push(bytes.len());
            if i == 0 {
                encode_restart(&mut bytes, record);
            } else {
                let prev = &records[i - 1];
                encode_delta(&mut bytes, prev.pc.raw(), prev.vaddr.raw(), record);
            }
        }
        (bytes, starts)
    }

    /// The decoder's observable state.
    fn parts(state: &DecodeState) -> (u64, usize, u64, u64) {
        (state.emitted, state.pos, state.prev_pc, state.prev_vaddr)
    }

    /// Record-at-a-time decode of up to `records` records: what came
    /// out, the fault that stopped it, and the final state.
    fn per_record(
        bytes: &[u8],
        records: usize,
    ) -> (Vec<MemoryAccess>, Option<BlockFault>, DecodeState) {
        let mut state = DecodeState::at(0);
        let mut out = Vec::new();
        for _ in 0..records {
            match next_record(bytes, &mut state) {
                Ok(record) => out.push(record),
                Err(fault) => return (out, Some(fault), state),
            }
        }
        (out, None, state)
    }

    /// The same decode through the kernel, in runs of the `runs` sizes
    /// (cycled), restart first. Checks that each run reports exactly the
    /// records it wrote through `state.emitted`.
    fn by_kernel(
        bytes: &[u8],
        records: usize,
        runs: &[usize],
    ) -> (Vec<MemoryAccess>, Option<BlockFault>, DecodeState) {
        let mut state = DecodeState::at(0);
        let mut out = Vec::new();
        match next_record(bytes, &mut state) {
            Ok(record) => out.push(record),
            Err(fault) => return (out, Some(fault), state),
        }
        for &run in runs.iter().cycle() {
            let want = run.min(records - out.len());
            if want == 0 {
                break;
            }
            let mut buf = vec![MemoryAccess::read(0, 0); want];
            let before = state.emitted;
            let result = decode_deltas(bytes, &mut state, &mut buf);
            let done = (state.emitted - before) as usize;
            out.extend_from_slice(&buf[..done]);
            if let Err(fault) = result {
                return (out, Some(fault), state);
            }
            assert_eq!(done, want, "a clean run fills its whole output");
        }
        (out, None, state)
    }

    /// How a block is damaged before decoding.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        None,
        /// Cut the block to this many thousandths of its length.
        Truncate(u64),
        /// Replace record `n`'s kind byte (modulo the record count).
        BadKind(usize, u8),
    }

    fn arb_damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            Just(Damage::None),
            (0u64..1000).prop_map(Damage::Truncate),
            (any::<usize>(), 2u8..=255).prop_map(|(n, byte)| Damage::BadKind(n, byte)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The block kernel decodes exactly what record-at-a-time
        /// `next_record` decodes, on clean blocks and on damaged ones:
        /// the same records, the same fault, and the same state after it.
        #[test]
        fn decode_deltas_matches_next_record(
            records in arb_records(1..300),
            runs in prop::collection::vec(1usize..64, 1..8),
            damage in arb_damage(),
        ) {
            let (mut bytes, starts) = encode_block(&records);
            match damage {
                Damage::None => {}
                Damage::Truncate(thousandths) => {
                    bytes.truncate(bytes.len() * thousandths as usize / 1000);
                }
                Damage::BadKind(n, byte) => {
                    let n = n % records.len();
                    let at = if n == 0 { RESTART_BYTES - 1 } else { starts[n] };
                    bytes[at] = byte;
                }
            }
            let (want, want_fault, want_state) = per_record(&bytes, records.len());
            let (got, got_fault, got_state) = by_kernel(&bytes, records.len(), &runs);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_fault, want_fault);
            prop_assert_eq!(parts(&got_state), parts(&want_state));
            if matches!(damage, Damage::None) {
                prop_assert_eq!(&got, &records);
                prop_assert_eq!(got_state.pos, bytes.len());
            }
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_round_trips_and_rejects_overruns() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::MAX, 1 << 35];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // Truncated continuation.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
        // More than 10 bytes of continuation.
        let mut pos = 0;
        assert_eq!(read_varint(&[0xFF; 11], &mut pos), None);
    }

    #[test]
    fn block_coding_round_trips() {
        let records: Vec<MemoryAccess> = (0..100u64)
            .map(|i| {
                if i % 3 == 0 {
                    MemoryAccess::write(0x400 + i * 4, i * 4096)
                } else {
                    MemoryAccess::read(0x400000 - i, u64::MAX - i * 64)
                }
            })
            .collect();
        let mut bytes = Vec::new();
        encode_restart(&mut bytes, &records[0]);
        for pair in records.windows(2) {
            encode_delta(&mut bytes, pair[0].pc.raw(), pair[0].vaddr.raw(), &pair[1]);
        }
        assert!(validate(&bytes, 100).is_ok());
        let mut state = DecodeState::at(0);
        for want in &records {
            assert_eq!(next_record(&bytes, &mut state).unwrap(), *want);
        }
        assert_eq!(state.pos, bytes.len());
        // Wrong expected count or spare bytes fail validation.
        assert_eq!(validate(&bytes, 101), Err(BlockFault::Payload));
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(validate(&padded, 100), Err(BlockFault::Payload));
        // A short restart is its own fault.
        assert_eq!(validate(&bytes[..10], 1), Err(BlockFault::Restart));
        // A smashed kind byte is a kind fault.
        let mut smashed = bytes.clone();
        smashed[16] = 0xEE;
        assert_eq!(validate(&smashed, 100), Err(BlockFault::BadKind(0xEE)));
    }

    #[test]
    fn footer_round_trips_and_rejects_bad_magic() {
        let footer = Footer {
            index_offset: 12345,
            total_records: 99,
            block_len: 64,
            block_count: 2,
        };
        let bytes = footer.encode();
        assert_eq!(Footer::parse(&bytes), Some(footer));
        let mut bad = bytes;
        bad[31] ^= 0xFF;
        assert_eq!(Footer::parse(&bad), None);
        assert_eq!(Footer::parse(&bytes[..31]), None);
    }
}
