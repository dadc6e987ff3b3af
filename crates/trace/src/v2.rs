//! The TLBT **v2** block-compressed trace format: writer, validated
//! trace handle, and cursor.
//!
//! v2 keeps v1's 8-byte header (version = 2) and replaces the flat
//! 17-byte record grid with delta-compressed blocks plus a trailing
//! block index and footer — the byte layout lives in [`crate::block`]
//! and, normatively, in `docs/TRACE_FORMAT.md`. What this buys:
//!
//! * **~3-4x smaller corpora** (typically ~4-5 bytes/record instead of
//!   17) while staying seekable: any record number resolves to its
//!   block through the index in O(1) and costs at most one block of
//!   delta decoding to reach — so the sharded executor still cuts a
//!   trace into worker slices without scanning, provided cuts land on
//!   block boundaries (`ShardPlan::split_aligned` in `tlbsim-sim`).
//! * **One block source**: the index is parsed into block offsets
//!   once at open, and every cursor slices blocks out of one mapped
//!   window. [`V2Trace::open`] maps the whole file, a window that
//!   covers every block and never remaps, so replay allocates nothing.
//! * **Larger-than-RAM replay**: the same source opened through
//!   [`TraceReader::open_streaming`](crate::TraceReader::open_streaming)
//!   keeps one `File` open and maps a window of N blocks at a time
//!   through `Mmap::map_file_range`, advising the kernel of sequential
//!   readahead — the only allocations on the replay path are the
//!   window remaps themselves.
//! * **Block-granular quarantine**: damage inside a block is detected
//!   by a validate-before-emit pass, and the whole block is skipped
//!   and tallied ([`TraceHealth::blocks_bad`]) — delta chains make
//!   sub-block resync impossible, so the block is the quarantine unit.
//!   The index and footer are load-bearing under *every* policy: if
//!   they do not validate, the error is
//!   [`TraceError::TornIndex`], never a quarantine. A v2 file
//!   truncated at the tail therefore loses its footer and is rejected
//!   outright — the salvageable torn tail is a v1-only notion.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use ::mmap::{Advice, Mmap};
use tlbsim_core::MemoryAccess;

use crate::binary::{fault_cell, header_version, HEADER_BYTES, MAGIC};
use crate::block::{
    self, BlockFault, DecodeState, Footer, DEFAULT_BLOCK_LEN, FOOTER_BYTES, INDEX_ENTRY_BYTES,
    V2_VERSION,
};
use crate::error::TraceError;
use crate::fault::PlannedFault;
use crate::policy::{DecodePolicy, Tally, TraceHealth};
use crate::reader::AnyCursor;

/// Streaming writer for the v2 block-compressed format.
///
/// Records accumulate into blocks of [`V2TraceWriter::block_len`]
/// records (a restart record plus deltas); [`V2TraceWriter::finish`]
/// flushes the final partial block and appends the block index and
/// footer.
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_trace::{V2Trace, V2TraceWriter};
///
/// let mut buf = Vec::new();
/// let mut w = V2TraceWriter::create_with_block_len(&mut buf, 64)?;
/// for i in 0..1000u64 {
///     w.write(&MemoryAccess::read(0x400, i * 4096))?;
/// }
/// w.finish()?;
///
/// let trace = V2Trace::from_map(mmap::Mmap::from_vec(buf))?;
/// assert_eq!(trace.record_count(), 1000);
/// assert_eq!(trace.block_len(), 64);
/// # Ok::<(), tlbsim_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct V2TraceWriter<W: Write> {
    out: BufWriter<W>,
    block_len: u32,
    written: u64,
    block_buf: Vec<u8>,
    in_block: u32,
    prev_pc: u64,
    prev_vaddr: u64,
    /// Absolute file offset of each flushed block.
    offsets: Vec<u64>,
    cur_offset: u64,
}

impl<W: Write> V2TraceWriter<W> {
    /// Creates a writer with the default block length
    /// ([`DEFAULT_BLOCK_LEN`]) and emits the v2 header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the header cannot be written.
    pub fn create(out: W) -> Result<Self, TraceError> {
        Self::create_with_block_len(out, DEFAULT_BLOCK_LEN)
    }

    /// Creates a writer with an explicit records-per-block count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the header cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero — a configuration bug, not a
    /// runtime input (the CLI validates its `--block-len` flag).
    pub fn create_with_block_len(out: W, block_len: u32) -> Result<Self, TraceError> {
        assert!(block_len >= 1, "v2 blocks must hold at least one record");
        let mut w = BufWriter::new(out);
        w.write_all(&MAGIC)?;
        w.write_all(&V2_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        Ok(V2TraceWriter {
            out: w,
            block_len,
            written: 0,
            block_buf: Vec::new(),
            in_block: 0,
            prev_pc: 0,
            prev_vaddr: 0,
            offsets: Vec::new(),
            cur_offset: HEADER_BYTES as u64,
        })
    }

    /// Appends one record (block-buffered; at most one block is held in
    /// memory).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn write(&mut self, access: &MemoryAccess) -> Result<(), TraceError> {
        if self.in_block == 0 {
            block::encode_restart(&mut self.block_buf, access);
        } else {
            block::encode_delta(&mut self.block_buf, self.prev_pc, self.prev_vaddr, access);
        }
        self.prev_pc = access.pc.raw();
        self.prev_vaddr = access.vaddr.raw();
        self.in_block += 1;
        self.written += 1;
        if self.in_block == self.block_len {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        self.out.write_all(&self.block_buf)?;
        self.offsets.push(self.cur_offset);
        self.cur_offset += self.block_buf.len() as u64;
        self.block_buf.clear();
        self.in_block = 0;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Records per block this writer packs (the final block may hold
    /// fewer).
    pub fn block_len(&self) -> u32 {
        self.block_len
    }

    /// Flushes the final partial block, writes the block index and
    /// footer, and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if any trailing write or the flush
    /// fails.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if self.in_block > 0 {
            self.flush_block()?;
        }
        let index_offset = self.cur_offset;
        for (i, offset) in self.offsets.iter().enumerate() {
            self.out.write_all(&offset.to_le_bytes())?;
            self.out
                .write_all(&(i as u64 * u64::from(self.block_len)).to_le_bytes())?;
        }
        let footer = Footer {
            index_offset,
            total_records: self.written,
            block_len: self.block_len,
            block_count: u32::try_from(self.offsets.len()).map_err(|_| {
                TraceError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "trace exceeds 2^32 blocks",
                ))
            })?,
        };
        self.out.write_all(&footer.encode())?;
        self.out
            .into_inner()
            .map_err(|e| TraceError::Io(io::Error::other(e.to_string())))
    }
}

/// Validated layout facts shared by every v2 reader.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Records per block (≥ 1 whenever `total` > 0).
    block_len: u64,
    /// Records in the trace.
    total: u64,
}

/// Reads the footer and block index of a `file_len`-byte v2 file
/// through `read(offset, len)`, validates them against the file size,
/// and returns the layout with the block offsets parsed out of the
/// index (see [`Blocks::offsets`]). Any inconsistency is
/// [`TraceError::TornIndex`] — fatal under every policy, because without
/// a trustworthy index there is no block grid to quarantine on.
fn read_layout(
    file_len: u64,
    mut read: impl FnMut(u64, usize) -> Result<Vec<u8>, TraceError>,
) -> Result<(Meta, Arc<[u64]>), TraceError> {
    let torn = |detail: &'static str| TraceError::TornIndex { detail };
    if file_len < (HEADER_BYTES + FOOTER_BYTES) as u64 {
        return Err(torn("file too short for a footer"));
    }
    let footer = read(file_len - FOOTER_BYTES as u64, FOOTER_BYTES)?;
    let footer = Footer::parse(&footer).ok_or(torn("footer magic missing"))?;
    // The index extent is validated before the index is read, so the
    // entries below never slice out of bounds.
    let index_bytes = u64::from(footer.block_count) * INDEX_ENTRY_BYTES as u64;
    if footer
        .index_offset
        .checked_add(index_bytes)
        .and_then(|v| v.checked_add(FOOTER_BYTES as u64))
        != Some(file_len)
    {
        return Err(torn("index extent disagrees with file size"));
    }
    let index = read(footer.index_offset, index_bytes as usize)?;
    if footer.block_len == 0 && footer.total_records != 0 {
        return Err(torn("zero block length with nonzero record count"));
    }
    let expected_blocks = if footer.total_records == 0 {
        0
    } else {
        footer.total_records.div_ceil(u64::from(footer.block_len))
    };
    if u64::from(footer.block_count) != expected_blocks {
        return Err(torn("block count disagrees with record count"));
    }
    if footer.index_offset < HEADER_BYTES as u64 {
        return Err(torn("index offset inside the header"));
    }
    let mut offsets = Vec::with_capacity(footer.block_count as usize + 1);
    let mut prev_offset = HEADER_BYTES as u64;
    for i in 0..u64::from(footer.block_count) {
        let (offset, first) = block::index_entry(&index, i);
        if i == 0 && offset != HEADER_BYTES as u64 {
            return Err(torn("first block does not start after the header"));
        }
        if offset < prev_offset {
            return Err(torn("index offsets are not monotone"));
        }
        if offset > footer.index_offset {
            return Err(torn("block offset beyond the index"));
        }
        if i.checked_mul(u64::from(footer.block_len)) != Some(first) {
            return Err(torn("index record numbering is inconsistent"));
        }
        offsets.push(offset);
        prev_offset = offset;
    }
    offsets.push(footer.index_offset);
    let meta = Meta {
        block_len: u64::from(footer.block_len),
        total: footer.total_records,
    };
    Ok((meta, offsets.into()))
}

/// A validated v2 (block-compressed) trace, read through a mapped
/// window of whole blocks.
///
/// The header, footer and block index are validated **once** at open,
/// and the index is parsed into memory then; block payloads are
/// validated lazily as cursors decode them (strict: typed error at the
/// damaged block; quarantine: the block is skipped whole and tallied).
/// A trace opened through [`V2Trace::open`] or `from_map*` is mapped
/// whole: its window covers every block and never moves.
/// [`TraceReader::open_streaming`](crate::TraceReader::open_streaming)
/// opens the same trace with a window of N blocks over the file.
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_trace::{V2Trace, V2TraceWriter};
///
/// let mut buf = Vec::new();
/// let mut w = V2TraceWriter::create_with_block_len(&mut buf, 32)?;
/// for i in 0..100u64 {
///     w.write(&MemoryAccess::read(0x400, i * 4096))?;
/// }
/// w.finish()?;
///
/// let trace = V2Trace::from_map(mmap::Mmap::from_vec(buf))?;
/// let mut cursor = trace.cursor();
/// let mut batch = vec![MemoryAccess::read(0, 0); 64];
/// assert_eq!(cursor.decode_batch(&mut batch)?, 64);
/// assert_eq!(cursor.decode_batch(&mut batch)?, 36);
/// assert_eq!(cursor.decode_batch(&mut batch)?, 0);
/// # Ok::<(), tlbsim_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct V2Trace {
    blocks: Blocks,
    meta: Meta,
    policy: DecodePolicy,
}

impl V2Trace {
    /// Maps and validates a v2 trace file (header, footer, index).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be opened;
    /// [`TraceError::TruncatedHeader`] / [`TraceError::BadMagic`] /
    /// [`TraceError::UnsupportedVersion`] for a malformed header (a v1
    /// file reports `UnsupportedVersion { found: 1 }` here; open
    /// through [`TraceReader`](crate::TraceReader) to take either
    /// version);
    /// [`TraceError::TornIndex`] if the footer or block index is
    /// missing or inconsistent (truncation at the tail lands here).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_map(Mmap::open(path)?)
    }

    /// Maps a v2 trace under an explicit [`DecodePolicy`].
    ///
    /// Layout validation (header, footer, index) is policy-independent;
    /// the policy governs block payloads, which cursors decode — see
    /// [`V2TraceCursor::decode_batch`].
    ///
    /// # Errors
    ///
    /// As for [`V2Trace::open`].
    pub fn open_with_policy(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
    ) -> Result<Self, TraceError> {
        Self::from_map_with_policy(Mmap::open(path)?, policy)
    }

    /// Validates an already-obtained mapping (or in-memory buffer via
    /// `Mmap::from_vec`).
    ///
    /// # Errors
    ///
    /// As for [`V2Trace::open`], minus the I/O.
    pub fn from_map(map: Mmap) -> Result<Self, TraceError> {
        Self::from_map_with_policy(map, DecodePolicy::Strict)
    }

    /// [`V2Trace::from_map`] under an explicit policy.
    ///
    /// # Errors
    ///
    /// As for [`V2Trace::open`].
    pub fn from_map_with_policy(map: Mmap, policy: DecodePolicy) -> Result<Self, TraceError> {
        let bytes = map.as_bytes();
        let version = header_version(bytes)?;
        if version != V2_VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let (meta, offsets) = read_layout(bytes.len() as u64, |at, len| {
            Ok(bytes[at as usize..at as usize + len].to_vec())
        })?;
        let end = offsets.len() as u64 - 1;
        let blocks = Blocks {
            offsets,
            file: None,
            window: Arc::new(map),
            base: 0,
            first: 0,
            end,
        };
        Ok(V2Trace {
            blocks,
            meta,
            policy,
        })
    }

    /// Opens the v2 trace in `file` with a window of `window_blocks`
    /// blocks (at least 1): the footer and index are read and validated
    /// here, and each cursor maps the window over the file as it
    /// advances, so a trace larger than RAM replays in bounded memory.
    /// The caller has checked the header.
    ///
    /// # Errors
    ///
    /// [`TraceError::TornIndex`] as for [`V2Trace::open`], and
    /// [`TraceError::Io`] for read failures while loading the footer and
    /// index.
    pub(crate) fn open_window(
        mut file: File,
        policy: DecodePolicy,
        window_blocks: u64,
    ) -> Result<Self, TraceError> {
        let file_len = file.metadata()?.len();
        let (meta, offsets) = read_layout(file_len, |at, len| {
            let mut bytes = vec![0u8; len];
            file.seek(SeekFrom::Start(at))?;
            file.read_exact(&mut bytes)?;
            Ok(bytes)
        })?;
        let blocks = Blocks {
            offsets,
            file: Some((Arc::new(file), window_blocks.max(1))),
            window: Arc::new(Mmap::from_vec(Vec::new())),
            base: 0,
            first: 0,
            end: 0,
        };
        Ok(V2Trace {
            blocks,
            meta,
            policy,
        })
    }

    /// Number of records in the trace.
    pub fn record_count(&self) -> u64 {
        self.meta.total
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.meta.total == 0
    }

    /// Records per block (the final block may hold fewer). Zero only
    /// for a malformed-but-empty edge the validator rejects; callers
    /// may treat it as ≥ 1.
    pub fn block_len(&self) -> u64 {
        self.meta.block_len
    }

    /// Which backend serves the bytes: `"mmap"` or the `"read"`
    /// fallback for a trace mapped whole, `"mmap-window"` for a
    /// windowed one.
    pub fn backend(&self) -> &'static str {
        match self.blocks.file {
            Some(_) => "mmap-window",
            None => self.blocks.window.backend().label(),
        }
    }

    /// A fresh cursor positioned at record 0, decoding under the
    /// trace's own policy.
    pub fn cursor(&self) -> V2TraceCursor {
        V2TraceCursor {
            blocks: self.blocks.clone(),
            block_len: self.meta.block_len.max(1),
            total: self.meta.total,
            next: 0,
            tally: Tally::new(self.policy),
            state: DecodeState::none(),
        }
    }

    /// Decodes every block once under the trace's policy, returning the
    /// full [`TraceHealth`] report (block-granular under quarantine).
    /// Under the strict policy this validates the trace, so a later
    /// replay cannot fail mid-stream; the pass doubles as page-cache
    /// warm-up.
    ///
    /// # Errors
    ///
    /// Strict: the first block's typed damage error
    /// ([`TraceError::TornRestart`], [`TraceError::TornBlock`] or
    /// [`TraceError::InvalidKind`]). Quarantine:
    /// [`TraceError::QuarantineExceeded`] once the per-record tally of
    /// quarantined blocks passes the policy's `max_bad`.
    pub fn scan_health(&self) -> Result<TraceHealth, TraceError> {
        AnyCursor::V2(self.cursor()).drain()
    }
}

/// Where a cursor gets block bytes from: one mapped window of whole
/// blocks. A trace mapped whole is the window over every block, which
/// never moves; a windowed trace maps N blocks of its open file at a
/// time, starting at the block a cursor asks for when it asks outside
/// the window.
///
/// A clone shares the window and the file; each clone remaps its own
/// windows as it advances.
#[derive(Clone)]
struct Blocks {
    /// `offsets[i]` is block `i`'s byte offset in the file, and a final
    /// entry holds the index's, so `offsets[i + 1]` always ends block
    /// `i`.
    offsets: Arc<[u64]>,
    /// The file windows are mapped from and the blocks per window;
    /// `None` when the window is the whole file.
    file: Option<(Arc<File>, u64)>,
    window: Arc<Mmap>,
    /// The file offset of the window's first byte.
    base: u64,
    /// The window holds blocks `first..end`.
    first: u64,
    end: u64,
}

impl std::fmt::Debug for Blocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blocks")
            .field("block_count", &(self.offsets.len() - 1))
            .field("window", &(self.first..self.end))
            .finish()
    }
}

impl Blocks {
    /// The bytes of block `block`, remapping the window if needed.
    #[inline]
    fn bytes(&mut self, block: u64) -> Result<&[u8], TraceError> {
        if !(self.first..self.end).contains(&block) {
            if let Some((file, window_blocks)) = &self.file {
                let end = block + (*window_blocks).min(self.offsets.len() as u64 - 1 - block);
                let base = self.offsets[block as usize];
                let len = (self.offsets[end as usize] - base) as usize;
                let map = Mmap::map_file_range(file, base, len)?;
                // Replay is overwhelmingly forward-sequential; tell the
                // kernel so it reads ahead of the cursor and drops pages
                // behind it.
                map.advise(Advice::Sequential);
                map.advise(Advice::WillNeed);
                self.window = Arc::new(map);
                (self.base, self.first, self.end) = (base, block, end);
            }
        }
        let at = |block: u64| (self.offsets[block as usize] - self.base) as usize;
        Ok(&self.window.as_bytes()[at(block)..at(block + 1)])
    }
}

/// Maps a [`BlockFault`] to its typed, block-addressed error.
fn fault_error(fault: BlockFault, block: u64) -> TraceError {
    match fault {
        BlockFault::Restart => TraceError::TornRestart { block },
        BlockFault::Payload => TraceError::TornBlock { block },
        BlockFault::BadKind(found) => TraceError::InvalidKind { found },
    }
}

/// An independent read position over a [`V2Trace`] — the block-format
/// counterpart of [`crate::MmapTraceCursor`], with the same
/// `decode_batch` / `skip_records` / `seek` contract the simulator's
/// replay seam consumes.
///
/// Steady-state decode into a caller-owned batch buffer performs **zero
/// heap allocations** over a trace mapped whole; over a windowed trace
/// the window remaps are the only allocation site.
#[derive(Debug, Clone)]
pub struct V2TraceCursor {
    blocks: Blocks,
    block_len: u64,
    total: u64,
    /// Absolute record index (on the raw grid, counting quarantined
    /// records) of the next record to yield.
    next: u64,
    tally: Tally,
    state: DecodeState,
}

impl V2TraceCursor {
    /// Fills `buf` with the next records, returning how many were
    /// written; zero means the trace is exhausted. Same contract as
    /// [`crate::MmapTraceCursor::decode_batch`], including the panic on
    /// an empty buffer.
    ///
    /// # Errors
    ///
    /// Strict policy: the damaged block's typed error
    /// ([`TraceError::TornRestart`] / [`TraceError::TornBlock`] /
    /// [`TraceError::InvalidKind`]), with the cursor left at the record
    /// where decoding stopped. Quarantine policy: a damaged block is
    /// validated before any of it is emitted, then skipped **whole**
    /// and tallied (the block is the resync unit — delta chains cannot
    /// be re-entered mid-block); [`TraceError::QuarantineExceeded`]
    /// once, when the per-record tally has passed the policy's
    /// `max_bad` in a decode or a skip, after which the cursor reads as
    /// exhausted. Windowed traces can also surface [`TraceError::Io`]
    /// from a window remap.
    ///
    /// # Panics
    ///
    /// Panics on an empty `buf` — a zero-length fill would be
    /// indistinguishable from end of trace.
    pub fn decode_batch(&mut self, buf: &mut [MemoryAccess]) -> Result<usize, TraceError> {
        self.decode_with(buf, block::decode_deltas)
    }

    /// The body of [`decode_batch`](Self::decode_batch), with the
    /// decoder of a block's delta records as a parameter: the block
    /// kernel in production, one [`block::next_record`] per record as
    /// the test oracle. `deltas` fills its output from a state already
    /// past the restart and, on a fault, leaves the state at the last
    /// good record.
    fn decode_with(
        &mut self,
        buf: &mut [MemoryAccess],
        deltas: impl Fn(&[u8], &mut DecodeState, &mut [MemoryAccess]) -> Result<(), BlockFault>,
    ) -> Result<usize, TraceError> {
        assert!(
            !buf.is_empty(),
            "decode_batch requires a non-empty batch buffer"
        );
        if !self.tally.admit()? {
            return Ok(0);
        }
        let quarantine = !self.tally.policy().is_strict();
        let mut filled = 0usize;
        while filled < buf.len() && self.next < self.total {
            let (block, block_first, block_records) = self.enter();
            let target = self.next - block_first;
            let bytes = self.blocks.bytes(block)?;
            if quarantine && !self.state.checked {
                if block::validate(bytes, block_records).is_err() {
                    self.quarantine_block(block_first, block_records);
                    self.tally.check()?;
                    continue;
                }
                self.state.checked = true;
            }
            // Fast-forward to the intra-block position (only after a
            // seek; bounded by one block of deltas).
            while self.state.emitted < target {
                block::next_record(bytes, &mut self.state)
                    .map_err(|fault| fault_error(fault, block))?;
            }
            if self.state.emitted == 0 {
                buf[filled] = block::next_record(bytes, &mut self.state)
                    .map_err(|fault| fault_error(fault, block))?;
                filled += 1;
                self.next += 1;
                self.tally.ok(1);
            }
            // The rest of the run goes through `deltas` in one call; after
            // a fault, the records before it are still written and counted.
            let run = (buf.len() - filled).min((block_records - self.state.emitted) as usize);
            let before = self.state.emitted;
            let result = deltas(bytes, &mut self.state, &mut buf[filled..filled + run]);
            let done = self.state.emitted - before;
            filled += done as usize;
            self.next += done;
            self.tally.ok(done);
            result.map_err(|fault| fault_error(fault, block))?;
            // A completed block must consume its extent exactly; spare
            // bytes mean the payload (or the index) lied.
            if self.state.emitted == block_records && self.state.pos != bytes.len() {
                return Err(TraceError::TornBlock { block });
            }
        }
        Ok(filled)
    }

    /// Enters the block holding the next record, returning its number,
    /// first record and record count, with the cached decode state
    /// aligned to it. Backward intra-block moves restart the block's
    /// delta chain; the validation flag survives (block bytes are
    /// immutable).
    fn enter(&mut self) -> (u64, u64, u64) {
        let block = self.next / self.block_len;
        let first = block * self.block_len;
        if self.state.block != block {
            self.state = DecodeState::at(block);
        } else if self.state.emitted > self.next - first {
            self.state = DecodeState {
                checked: self.state.checked,
                ..DecodeState::at(block)
            };
        }
        (block, first, self.block_len.min(self.total - first))
    }

    /// Tallies the damaged block starting at record `first` whole and
    /// steps past it.
    fn quarantine_block(&mut self, first: u64, records: u64) {
        self.tally.bad(first, records, true);
        self.next = first + records;
        self.state = DecodeState::none();
    }

    /// Advances past the next `n` *decodable* records, returning how
    /// many were actually skipped. Same contract as
    /// [`crate::MmapTraceCursor::skip_records`]: strict skips are pure
    /// arithmetic (delta decoding to reach the mid-block position is
    /// deferred to the next `decode_batch`); quarantine skips validate
    /// the blocks they traverse and tally damaged ones exactly as a
    /// decode would, without enforcing the budget (the next decode
    /// reports it). A spent cursor skips nothing.
    pub fn skip_records(&mut self, n: u64) -> u64 {
        if self.tally.policy().is_strict() {
            let skipped = n.min(self.total - self.next);
            self.next += skipped;
            return skipped;
        }
        if self.tally.spent() {
            return 0;
        }
        let mut skipped = 0u64;
        while skipped < n && self.next < self.total {
            let (block, block_first, block_records) = self.enter();
            let target = self.next - block_first;
            let Ok(bytes) = self.blocks.bytes(block) else {
                // A window remap failure cannot be reported from the
                // infallible skip contract; stop here and let the next
                // decode surface the error.
                break;
            };
            if !self.state.checked {
                if block::validate(bytes, block_records).is_err() {
                    self.quarantine_block(block_first, block_records);
                    continue;
                }
                self.state.checked = true;
            }
            let take = (n - skipped).min(block_records - target);
            while self.state.emitted < target + take {
                // Validated above: cannot fail.
                let _ = block::next_record(bytes, &mut self.state);
            }
            skipped += take;
            self.next += take;
            self.tally.ok(take);
        }
        skipped
    }

    /// Repositions the cursor at an absolute record index (clamped to
    /// the end of the trace). O(1); any delta decoding needed to reach
    /// a mid-block position happens lazily at the next decode.
    pub fn seek(&mut self, record: u64) {
        self.next = record.min(self.total);
    }

    /// The index of the next record to decode (on the raw grid — under
    /// quarantine this counts records in damaged blocks too).
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Running health tally over everything this cursor has decoded or
    /// skipped so far (complete once the cursor is exhausted). A strict
    /// cursor reports every record it passed as ok — it would have
    /// errored otherwise. v2 has no torn tail: tail truncation destroys
    /// the footer and is rejected at open under every policy.
    pub fn health(&self) -> TraceHealth {
        self.tally.health(self.next, 0)
    }
}

impl Iterator for V2TraceCursor {
    type Item = Result<MemoryAccess, TraceError>;

    /// One-record convenience over [`V2TraceCursor::decode_batch`];
    /// tools iterate, the simulator batches.
    fn next(&mut self) -> Option<Self::Item> {
        let mut one = [MemoryAccess::read(0, 0)];
        match self.decode_batch(&mut one) {
            Ok(0) => None,
            Ok(_) => Some(Ok(one[0])),
            Err(e) => {
                // Don't re-report the same record forever.
                self.next = (self.next + 1).min(self.total);
                Some(Err(e))
            }
        }
    }
}

/// Bakes a fault plan's byte-level faults into a v2 image in place —
/// the v2 arm of [`crate::FaultPlan::apply_to_bytes`].
///
/// Faults address *records*, exactly as on v1; each lands on the
/// **restart record of the block containing it** (the only absolute,
/// grid-addressable cell in a delta-compressed block):
/// `CorruptKind` smashes the restart's kind byte (quarantining the
/// whole block), `WildVaddr` rewrites the restart's vaddr (the block
/// still decodes; its addresses go wild). `TruncateTail` is ignored —
/// a v2 file truncated at the tail loses its footer, which is fatal
/// under every policy, so there is no quarantinable torn tail to
/// manufacture. Images whose footer or index does not validate are
/// left untouched.
pub(crate) fn bake_faults(bytes: &mut [u8], faults: &[PlannedFault]) {
    let image: &[u8] = bytes;
    let Ok((meta, offsets)) = read_layout(image.len() as u64, |at, len| {
        Ok(image[at as usize..at as usize + len].to_vec())
    }) else {
        return;
    };
    for fault in faults.iter().filter(|f| f.record < meta.total) {
        let base = offsets[(fault.record / meta.block_len) as usize] as usize;
        if let Some(cell) = bytes
            .get_mut(base..)
            .and_then(|rest| rest.first_chunk_mut())
        {
            fault_cell(cell, fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::RESTART_BYTES;
    use crate::fault::FaultKind;
    use proptest::prelude::*;
    use tlbsim_core::AccessKind;

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

    fn encode(records: &[MemoryAccess], block_len: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = V2TraceWriter::create_with_block_len(&mut buf, block_len).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    fn open_bytes(bytes: Vec<u8>) -> Result<V2Trace, TraceError> {
        V2Trace::from_map(Mmap::from_vec(bytes))
    }

    fn open_quarantine(bytes: Vec<u8>, max_bad: u64) -> V2Trace {
        V2Trace::from_map_with_policy(Mmap::from_vec(bytes), DecodePolicy::quarantine(max_bad))
            .unwrap()
    }

    /// Blocks in the trace's index.
    fn block_count(trace: &V2Trace) -> u64 {
        trace.blocks.offsets.len() as u64 - 1
    }

    /// `bytes` written to a fresh temporary file, opened with a window of
    /// `window_blocks` blocks; the file is unlinked once opened.
    fn open_windowed(bytes: &[u8], policy: DecodePolicy, window_blocks: u64) -> V2Trace {
        static FILES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("tlbt-v2-window-{}-{n}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let trace = V2Trace::open_window(File::open(&path).unwrap(), policy, window_blocks);
        std::fs::remove_file(&path).unwrap();
        trace.unwrap()
    }

    fn drain(cursor: &mut V2TraceCursor) -> Vec<MemoryAccess> {
        let mut buf = vec![MemoryAccess::read(0, 0); 97];
        let mut got = Vec::new();
        loop {
            let n = cursor.decode_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        got
    }

    #[test]
    fn round_trips_across_block_lengths() {
        let records = sample(1000);
        for block_len in [1u32, 2, 7, 64, 1000, 5000] {
            let bytes = encode(&records, block_len);
            let trace = open_bytes(bytes).unwrap();
            assert_eq!(trace.record_count(), 1000);
            assert_eq!(
                block_count(&trace),
                1000u64.div_ceil(u64::from(block_len)),
                "block_len {block_len}"
            );
            assert_eq!(drain(&mut trace.cursor()), records);
        }
    }

    #[test]
    fn compresses_well_below_v1() {
        let records = sample(10_000);
        let v2 = encode(&records, 4096);
        let v1_bytes = 8 + 17 * records.len();
        assert!(
            v2.len() * 3 < v1_bytes,
            "v2 is {} bytes vs v1 {} — expected ≥3x smaller",
            v2.len(),
            v1_bytes
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = open_bytes(encode(&[], 64)).unwrap();
        assert!(trace.is_empty());
        assert_eq!(block_count(&trace), 0);
        assert_eq!(drain(&mut trace.cursor()), Vec::new());
    }

    #[test]
    fn v1_and_v2_headers_cross_reject() {
        // A v2 reader on a v1 file: typed version error (sniffable).
        let mut v1 = Vec::new();
        let mut w = crate::binary::BinaryTraceWriter::create(&mut v1).unwrap();
        w.write(&MemoryAccess::read(1, 2)).unwrap();
        w.finish().unwrap();
        assert!(matches!(
            open_bytes(v1),
            Err(TraceError::UnsupportedVersion { found: 1 })
        ));
        // And a v1 reader on a v2 file, symmetrically.
        let v2 = encode(&sample(3), 2);
        assert!(matches!(
            crate::mmap::MmapTrace::from_map(Mmap::from_vec(v2)),
            Err(TraceError::UnsupportedVersion { found: 2 })
        ));
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = encode(&sample(100), 16);
        for cut in 0..bytes.len() {
            let torn = bytes[..cut].to_vec();
            let strict = open_bytes(torn.clone());
            assert!(strict.is_err(), "cut at {cut} must not validate");
            // Truncation kills the footer, so even quarantine rejects.
            let quarantined =
                V2Trace::from_map_with_policy(Mmap::from_vec(torn), DecodePolicy::lenient());
            assert!(quarantined.is_err(), "cut at {cut} must not quarantine");
        }
    }

    #[test]
    fn seek_and_skip_agree_with_sequential_decode() {
        let records = sample(500);
        let trace = open_bytes(encode(&records, 32)).unwrap();
        let mut cursor = trace.cursor();
        assert_eq!(cursor.skip_records(123), 123);
        assert_eq!(cursor.position(), 123);
        let tail: Vec<MemoryAccess> = (&mut cursor).map(|r| r.unwrap()).collect();
        assert_eq!(tail, records[123..]);
        assert_eq!(cursor.skip_records(5), 0);
        // Backward seek, mid-block.
        cursor.seek(37);
        let tail: Vec<MemoryAccess> = (&mut cursor).map(|r| r.unwrap()).collect();
        assert_eq!(tail, records[37..]);
        cursor.seek(10_000);
        assert_eq!(cursor.position(), 500);
    }

    #[test]
    fn smashed_restart_kind_is_invalid_kind_under_strict() {
        let records = sample(64);
        let mut bytes = encode(&records, 16);
        // Block 1's restart kind byte: restart of block 1 begins right
        // after block 0's extent; find it via the trace's own index by
        // corrupting through bake_faults (record 16 = block 1's first).
        bake_faults(
            &mut bytes,
            &[PlannedFault {
                record: 16,
                kind: FaultKind::CorruptKind,
            }],
        );
        let trace = open_bytes(bytes.clone()).unwrap();
        let mut cursor = trace.cursor();
        let mut buf = vec![MemoryAccess::read(0, 0); 256];
        let err = cursor.decode_batch(&mut buf).unwrap_err();
        assert!(matches!(err, TraceError::InvalidKind { found: 0xEE }));
        assert_eq!(cursor.position(), 16, "error reported at the bad block");
        // Quarantine: the whole block (records 16..32) is skipped.
        let trace = open_quarantine(bytes, 100);
        let mut cursor = trace.cursor();
        let got = drain(&mut cursor);
        let want: Vec<MemoryAccess> = records[..16]
            .iter()
            .chain(&records[32..])
            .copied()
            .collect();
        assert_eq!(got, want);
        let health = cursor.health();
        assert_eq!(health.records_ok, 48);
        assert_eq!(health.records_bad, 16);
        assert_eq!(health.blocks_bad, 1);
        assert_eq!(health.first_bad_record, Some(16));
    }

    #[test]
    fn quarantine_budget_aborts_and_is_then_terminal() {
        let records = sample(64);
        let mut bytes = encode(&records, 16);
        for record in [0u64, 16] {
            bake_faults(
                &mut bytes,
                &[PlannedFault {
                    record,
                    kind: FaultKind::CorruptKind,
                }],
            );
        }
        // Budget of 16: the second bad block (another 16 records) blows it.
        let trace = open_quarantine(bytes, 16);
        let mut cursor = trace.cursor();
        let mut buf = vec![MemoryAccess::read(0, 0); 8];
        let mut outcome = Vec::new();
        let err = loop {
            match cursor.decode_batch(&mut buf) {
                Ok(0) => panic!("must hit the budget first"),
                Ok(n) => outcome.extend_from_slice(&buf[..n]),
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            TraceError::QuarantineExceeded {
                bad: 32,
                max_bad: 16
            }
        ));
        // Terminal: the cursor now reads as exhausted.
        assert_eq!(cursor.decode_batch(&mut buf).unwrap(), 0);
        assert_eq!(cursor.health().blocks_bad, 2);
    }

    #[test]
    fn a_skip_that_blows_the_budget_is_reported_by_the_next_decode() {
        let mut bytes = encode(&sample(40), 4);
        for record in [4u64, 8] {
            bake_faults(
                &mut bytes,
                &[PlannedFault {
                    record,
                    kind: FaultKind::CorruptKind,
                }],
            );
        }
        let mut cursor = open_quarantine(bytes, 4).cursor();
        assert_eq!(cursor.skip_records(10), 10);
        assert_eq!(cursor.health().records_bad, 8);
        let mut buf = vec![MemoryAccess::read(0, 0); 8];
        assert!(matches!(
            cursor.decode_batch(&mut buf),
            Err(TraceError::QuarantineExceeded { bad: 8, max_bad: 4 })
        ));
        assert_eq!(cursor.decode_batch(&mut buf).unwrap(), 0);
        assert_eq!(cursor.position(), 18);
    }

    #[test]
    fn a_spent_cursor_skips_nothing() {
        let mut bytes = encode(&sample(40), 4);
        for record in [4u64, 8] {
            bake_faults(
                &mut bytes,
                &[PlannedFault {
                    record,
                    kind: FaultKind::CorruptKind,
                }],
            );
        }
        let mut cursor = open_quarantine(bytes, 4).cursor();
        let mut buf = vec![MemoryAccess::read(0, 0); 3];
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
    fn wild_vaddr_still_decodes() {
        let records = sample(64);
        let mut bytes = encode(&records, 16);
        bake_faults(
            &mut bytes,
            &[PlannedFault {
                record: 20,
                kind: FaultKind::WildVaddr,
            }],
        );
        let trace = open_bytes(bytes).unwrap();
        let got = drain(&mut trace.cursor());
        assert_eq!(got.len(), 64);
        // Record 20 lives in block 1 (records 16..32); its restart (record
        // 16) was rewritten, so that block's addresses shifted wild.
        assert_eq!(&got[..16], &records[..16]);
        assert_eq!(&got[32..], &records[32..]);
        assert_ne!(got[16].vaddr, records[16].vaddr);
        assert!(trace.scan_health().is_ok());
    }

    #[test]
    fn streaming_cursor_matches_whole_file_decode() {
        let records = sample(1111);
        let bytes = encode(&records, 32);
        for window_blocks in [1u64, 2, 7, 1000] {
            let trace = open_windowed(&bytes, DecodePolicy::Strict, window_blocks);
            assert_eq!(trace.record_count(), 1111);
            assert_eq!(trace.block_len(), 32);
            assert_eq!(trace.backend(), "mmap-window");
            let mut cursor = trace.cursor();
            assert_eq!(drain(&mut cursor), records, "window {window_blocks}");
            // Seek backwards across windows and replay a slice.
            cursor.seek(40);
            let mut buf = vec![MemoryAccess::read(0, 0); 10];
            assert_eq!(cursor.decode_batch(&mut buf).unwrap(), 10);
            assert_eq!(&buf[..10], &records[40..50]);
        }
    }

    #[test]
    fn streaming_cursor_quarantines_blocks() {
        let records = sample(256);
        let mut bytes = encode(&records, 16);
        bake_faults(
            &mut bytes,
            &[PlannedFault {
                record: 100,
                kind: FaultKind::CorruptKind,
            }],
        );
        let mut cursor = open_windowed(&bytes, DecodePolicy::lenient(), 2).cursor();
        let got = drain(&mut cursor);
        // Record 100 is in block 6 (records 96..112).
        let want: Vec<MemoryAccess> = records[..96]
            .iter()
            .chain(&records[112..])
            .copied()
            .collect();
        assert_eq!(got, want);
        assert_eq!(cursor.health().blocks_bad, 1);
        assert_eq!(cursor.health().records_bad, 16);
    }

    #[test]
    fn quarantine_skip_counts_only_good_records() {
        let records = sample(128);
        let mut bytes = encode(&records, 16);
        bake_faults(
            &mut bytes,
            &[PlannedFault {
                record: 16,
                kind: FaultKind::CorruptKind,
            }],
        );
        let trace = open_quarantine(bytes, 100);
        let mut cursor = trace.cursor();
        // Skipping 20 good records crosses the bad block (16..32): lands
        // on raw record 36.
        assert_eq!(cursor.skip_records(20), 20);
        assert_eq!(cursor.position(), 36);
        let tail = drain(&mut cursor);
        assert_eq!(tail, records[36..]);
        assert_eq!(cursor.health().records_bad, 16);
        assert_eq!(cursor.health().blocks_bad, 1);
    }

    #[test]
    fn index_damage_is_fatal_under_every_policy() {
        let bytes = encode(&sample(100), 16);
        let len = bytes.len();
        // Smash the footer magic.
        let mut bad = bytes.clone();
        bad[len - 1] ^= 0xFF;
        for policy in [DecodePolicy::Strict, DecodePolicy::lenient()] {
            assert!(matches!(
                V2Trace::from_map_with_policy(Mmap::from_vec(bad.clone()), policy),
                Err(TraceError::TornIndex { .. })
            ));
        }
        // Smash an index entry's record number.
        let mut bad = bytes.clone();
        let entry = len - FOOTER_BYTES - INDEX_ENTRY_BYTES + 8;
        bad[entry] ^= 0xFF;
        assert!(matches!(open_bytes(bad), Err(TraceError::TornIndex { .. })));
        // Declare a wrong record total.
        let mut bad = bytes.clone();
        bad[len - FOOTER_BYTES + 8] ^= 0xFF;
        assert!(matches!(open_bytes(bad), Err(TraceError::TornIndex { .. })));
    }

    #[test]
    fn strict_cursor_health_reports_progress() {
        let records = sample(100);
        let trace = open_bytes(encode(&records, 16)).unwrap();
        let mut cursor = trace.cursor();
        let got = drain(&mut cursor);
        assert_eq!(got, records);
        let health = cursor.health();
        assert!(health.is_clean());
        assert_eq!(health.records_ok, 100);
        assert_eq!(health.blocks_bad, 0);
        assert_eq!(trace.scan_health().unwrap(), health);
    }

    #[test]
    fn writer_reports_counts() {
        let mut buf = Vec::new();
        let mut w = V2TraceWriter::create(&mut buf).unwrap();
        assert_eq!(w.block_len(), DEFAULT_BLOCK_LEN);
        for r in sample(5) {
            w.write(&r).unwrap();
        }
        assert_eq!(w.records_written(), 5);
        w.finish().unwrap();
        let trace = open_bytes(buf).unwrap();
        assert_eq!(trace.record_count(), 5);
        assert_eq!(block_count(&trace), 1);
        assert!(trace.backend() == "mmap" || trace.backend() == "read");
    }

    #[test]
    fn delta_decode_handles_wrapping_and_write_kinds() {
        let records = vec![
            MemoryAccess::read(u64::MAX, 0),
            MemoryAccess::write(0, u64::MAX),
            MemoryAccess {
                pc: 5u64.into(),
                vaddr: 3u64.into(),
                kind: AccessKind::Write,
            },
        ];
        let trace = open_bytes(encode(&records, 8)).unwrap();
        assert_eq!(drain(&mut trace.cursor()), records);
    }

    /// The per-record decode loop the block kernel replaced, kept as
    /// the kernel's oracle.
    fn per_record(
        bytes: &[u8],
        state: &mut DecodeState,
        out: &mut [MemoryAccess],
    ) -> Result<(), BlockFault> {
        for slot in out {
            *slot = block::next_record(bytes, state)?;
        }
        Ok(())
    }

    /// How one block of a trace is damaged.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        None,
        /// Cut the block's payload to this many thousandths of its
        /// length.
        Truncate(u64),
        /// Replace the kind byte of the block's record `n` (modulo its
        /// record count).
        BadKind(usize, u8),
        /// Append this many spare bytes after the block's last record.
        Spare(usize),
    }

    /// Re-lays a v2 image with block `block` (modulo the block count)
    /// damaged, rewriting the index and footer to match, so the damage
    /// is in a payload the layout check accepts.
    fn damage_block(bytes: &[u8], block: usize, damage: Damage) -> Vec<u8> {
        let footer = Footer::parse(&bytes[bytes.len() - FOOTER_BYTES..]).unwrap();
        let index = &bytes[footer.index_offset as usize..bytes.len() - FOOTER_BYTES];
        let count = footer.block_count as usize;
        let mut blocks: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                let start = block::index_entry(index, i as u64).0 as usize;
                let end = if i + 1 < count {
                    block::index_entry(index, i as u64 + 1).0 as usize
                } else {
                    footer.index_offset as usize
                };
                bytes[start..end].to_vec()
            })
            .collect();
        let target = &mut blocks[block % count];
        match damage {
            Damage::None => {}
            Damage::Truncate(thousandths) => {
                target.truncate(target.len() * thousandths as usize / 1000);
            }
            Damage::BadKind(n, byte) => {
                let first = (block % count) as u64 * u64::from(footer.block_len);
                let records = u64::from(footer.block_len).min(footer.total_records - first);
                let n = (n as u64 % records) as usize;
                let mut state = DecodeState::at(0);
                for _ in 0..n {
                    block::next_record(target, &mut state).unwrap();
                }
                let at = if n == 0 { RESTART_BYTES - 1 } else { state.pos };
                target[at] = byte;
            }
            Damage::Spare(extra) => target.extend(std::iter::repeat_n(0u8, extra)),
        }
        let mut out = bytes[..HEADER_BYTES].to_vec();
        let mut offsets = Vec::new();
        for block in &blocks {
            offsets.push(out.len() as u64);
            out.extend_from_slice(block);
        }
        let index_offset = out.len() as u64;
        for (i, offset) in offsets.iter().enumerate() {
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(i as u64 * u64::from(footer.block_len)).to_le_bytes());
        }
        out.extend_from_slice(
            &Footer {
                index_offset,
                ..footer
            }
            .encode(),
        );
        out
    }

    fn arb_damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            Just(Damage::None),
            (0u64..1000).prop_map(Damage::Truncate),
            (any::<usize>(), 2u8..=255).prop_map(|(n, byte)| Damage::BadKind(n, byte)),
            (1usize..4).prop_map(Damage::Spare),
        ]
    }

    /// One step of a cursor walk.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Decode(usize),
        /// Seek to this many thousandths of the trace (past 1000: past
        /// its end).
        Seek(u64),
        Skip(u64),
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        let step = prop_oneof![
            (1usize..5000).prop_map(Step::Decode),
            (1usize..64).prop_map(Step::Decode),
            (0u64..1100).prop_map(Step::Seek),
            (0u64..5000).prop_map(Step::Skip),
        ];
        prop::collection::vec(step, 1..24)
    }

    /// One `decode_batch` on both cursors, asserting equal results and
    /// equal buffers (records written before an error included).
    fn decode_both(
        kernel: &mut V2TraceCursor,
        oracle: &mut V2TraceCursor,
        len: usize,
    ) -> Result<usize, TraceError> {
        let mut got = vec![MemoryAccess::read(7, 7); len];
        let mut want = got.clone();
        let got_result = kernel.decode_batch(&mut got);
        let want_result = oracle.decode_with(&mut want, per_record);
        assert_eq!(format!("{got_result:?}"), format!("{want_result:?}"));
        assert_eq!(got, want);
        got_result
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `decode_batch` through the block kernel, over a window of any
        /// 1 to `block_count + 1` blocks, behaves exactly like the
        /// per-record loop it replaced over the whole-file window, for
        /// random records, block lengths, batch sizes, seeks (backward
        /// across windows too) and skips, on clean and damaged traces
        /// under both policies: the same results and typed errors, the
        /// same records written (also before an error), the same
        /// positions, and the same health census.
        #[test]
        fn kernel_decode_matches_the_per_record_loop(
            records in crate::block::tests::arb_records(1..9000),
            block_len in prop_oneof![
                Just(1u32),
                Just(2),
                Just(7),
                Just(4096),
            ],
            damaged in 0usize..usize::MAX,
            damage in arb_damage(),
            max_bad in prop_oneof![
                Just(None),
                (0u64..10_000).prop_map(Some),
            ],
            steps in arb_steps(),
            window in any::<u64>(),
        ) {
            let bytes = damage_block(&encode(&records, block_len), damaged, damage);
            let policy = max_bad.map_or(DecodePolicy::Strict, DecodePolicy::quarantine);
            let trace = V2Trace::from_map_with_policy(Mmap::from_vec(bytes.clone()), policy).unwrap();
            let windowed = open_windowed(&bytes, policy, 1 + window % (block_count(&trace) + 1));
            let (mut kernel, mut oracle) = (windowed.cursor(), trace.cursor());
            for step in steps {
                match step {
                    Step::Decode(len) => {
                        let _ = decode_both(&mut kernel, &mut oracle, len);
                    }
                    Step::Seek(thousandths) => {
                        let to = records.len() as u64 * thousandths / 1000;
                        kernel.seek(to);
                        oracle.seek(to);
                    }
                    Step::Skip(n) => {
                        prop_assert_eq!(kernel.skip_records(n), oracle.skip_records(n));
                    }
                }
                prop_assert_eq!(kernel.position(), oracle.position());
                prop_assert_eq!(kernel.health(), oracle.health());
            }
            // Then decode everything with fresh cursors, so any damage is
            // met and the health census covers one whole pass, stepping
            // past each strict fault as a resuming caller would.
            let (mut kernel, mut oracle) = (windowed.cursor(), trace.cursor());
            loop {
                let result = decode_both(&mut kernel, &mut oracle, 97);
                prop_assert_eq!(kernel.position(), oracle.position());
                prop_assert_eq!(kernel.health(), oracle.health());
                match result {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(_) if kernel.position() == trace.record_count() => break,
                    Err(_) => {
                        kernel.seek(kernel.position() + 1);
                        oracle.seek(oracle.position() + 1);
                    }
                }
            }
        }
    }
}
