//! One reader over both binary trace formats. It follows the table of
//! versions in `docs/TRACE_FORMAT.md` in one place: version 1 opens as
//! [`MmapTrace`], version 2 as [`V2Trace`] (or a windowed
//! [`V2TraceCursor`]), and any other is
//! [`TraceError::UnsupportedVersion`].

use std::fs::File;
use std::io::Read;
use std::path::Path;

use ::mmap::Mmap;
use tlbsim_core::MemoryAccess;

use crate::binary::{header_version, HEADER_BYTES, MAGIC, VERSION};
use crate::block::V2_VERSION;
use crate::error::TraceError;
use crate::mmap::{MmapTrace, MmapTraceCursor};
use crate::policy::{DecodePolicy, TraceHealth};
use crate::v2::{V2Trace, V2TraceCursor};

/// A validated binary trace of either format — the read-side twin of
/// [`TraceWriter`](crate::TraceWriter).
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_trace::{DecodePolicy, TraceReader, V2TraceWriter};
///
/// let path = std::env::temp_dir().join(format!("tlbt-reader-{}", std::process::id()));
/// let mut w = V2TraceWriter::create_with_block_len(std::fs::File::create(&path)?, 16)?;
/// for i in 0..100u64 {
///     w.write(&MemoryAccess::read(0x400, i * 4096))?;
/// }
/// w.finish()?;
/// let trace = TraceReader::open(&path, DecodePolicy::Strict)?;
/// assert_eq!((trace.format_version(), trace.seek_alignment()), (2, 16));
/// assert_eq!(trace.scan_health()?.records_ok, 100);
/// std::fs::remove_file(&path).ok();
/// # Ok::<(), tlbsim_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub enum TraceReader {
    /// Version 1, the flat record grid, mapped whole.
    V1(MmapTrace),
    /// Version 2, mapped whole.
    V2(V2Trace),
    /// Version 2 read through a sliding window of mapped blocks: a
    /// cursor at record 0 that [`TraceReader::cursor`] restarts.
    V2Streamed(V2TraceCursor),
}

impl TraceReader {
    /// Maps `path` once and opens it, under `policy`, as the format its
    /// version word names.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`], the header errors, then those of
    /// [`MmapTrace::open_with_policy`] or [`V2Trace::open_with_policy`].
    pub fn open(path: impl AsRef<Path>, policy: DecodePolicy) -> Result<Self, TraceError> {
        Self::from_map(Mmap::open(path)?, policy)
    }

    /// Opens the trace in `map`: the bytes the header check reads are
    /// the bytes the trace keeps.
    fn from_map(map: Mmap, policy: DecodePolicy) -> Result<Self, TraceError> {
        if Self::version_of(map.as_bytes())? == VERSION {
            MmapTrace::from_map_with_policy(map, policy).map(TraceReader::V1)
        } else {
            V2Trace::from_map_with_policy(map, policy).map(TraceReader::V2)
        }
    }

    /// [`TraceReader::open`] for a file that may be text: one without
    /// the `TLBT` magic and a version word other than 0 (which no binary
    /// format uses) is `Ok(None)`.
    ///
    /// # Errors
    ///
    /// As for [`TraceReader::open`].
    pub fn open_if_binary(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
    ) -> Result<Option<Self>, TraceError> {
        let map = Mmap::open(path)?;
        let bytes = map.as_bytes();
        if bytes.len() >= 6 && bytes[..4] == MAGIC && bytes[4..6] != [0, 0] {
            Self::from_map(map, policy).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Opens `path` for replay through a sliding window of
    /// `window_blocks` mapped v2 blocks, so a trace larger than RAM
    /// replays in bounded memory. The header is read once; a v1 file,
    /// which has no block index to window over, is mapped whole.
    ///
    /// # Errors
    ///
    /// As for [`TraceReader::open`].
    pub fn open_streaming(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
        window_blocks: u64,
    ) -> Result<Self, TraceError> {
        let mut file = File::open(path)?;
        let mut header = [0u8; HEADER_BYTES];
        let took = file.read(&mut header)?;
        if Self::version_of(&header[..took])? == VERSION {
            let len = file.metadata()?.len() as usize;
            Self::from_map(Mmap::map_file_range(&file, 0, len)?, policy)
        } else {
            V2TraceCursor::open_streaming(file, policy, window_blocks).map(TraceReader::V2Streamed)
        }
    }

    /// The one version dispatch: the header's version word, which is
    /// [`VERSION`] or [`V2_VERSION`] if this build reads the trace.
    fn version_of(header: &[u8]) -> Result<u16, TraceError> {
        match header_version(header)? {
            found @ (VERSION | V2_VERSION) => Ok(found),
            found => Err(TraceError::UnsupportedVersion { found }),
        }
    }

    /// The trace's format version (1 = flat grid, 2 = block-compressed).
    pub fn format_version(&self) -> u16 {
        match self {
            TraceReader::V1(_) => VERSION,
            TraceReader::V2(_) | TraceReader::V2Streamed(_) => V2_VERSION,
        }
    }

    /// Which backend serves the bytes (`"mmap"` or the `"read"`
    /// fallback); `"mmap-window"` for a streamed trace.
    pub fn backend(&self) -> &'static str {
        match self {
            TraceReader::V1(t) => t.backend(),
            TraceReader::V2(t) => t.backend(),
            TraceReader::V2Streamed(_) => "mmap-window",
        }
    }

    /// Records on the trace's grid, good and bad.
    pub fn record_count(&self) -> u64 {
        match self {
            TraceReader::V1(t) => t.record_count(),
            TraceReader::V2(t) => t.record_count(),
            TraceReader::V2Streamed(c) => c.record_count(),
        }
    }

    /// The record granularity a cursor seeks cheaply to: 1 on the v1
    /// grid, the block length in v2.
    pub fn seek_alignment(&self) -> u64 {
        match self {
            TraceReader::V1(_) => 1,
            TraceReader::V2(t) => t.block_len().max(1),
            TraceReader::V2Streamed(c) => c.block_len(),
        }
    }

    /// A fresh cursor at record 0, decoding under the trace's policy.
    pub fn cursor(&self) -> AnyCursor {
        match self {
            TraceReader::V1(t) => AnyCursor::V1(t.cursor()),
            TraceReader::V2(t) => AnyCursor::V2(t.cursor()),
            TraceReader::V2Streamed(c) => AnyCursor::V2(c.restarted()),
        }
    }

    /// Decodes every record once under the trace's policy and returns
    /// what the pass found (block-granular for v2). Under the strict
    /// policy this validates the trace: a later replay cannot fail.
    ///
    /// # Errors
    ///
    /// Strict: the first bad record's or block's typed error.
    /// Quarantine: [`TraceError::QuarantineExceeded`] past the budget.
    pub fn scan_health(&self) -> Result<TraceHealth, TraceError> {
        self.cursor().drain()
    }
}

/// A read position in a [`TraceReader`]'s trace: the v1 or v2 cursor
/// behind one batch-decode surface, with one format match per call.
#[derive(Debug, Clone)]
pub enum AnyCursor {
    /// A cursor on the v1 grid.
    V1(MmapTraceCursor),
    /// A cursor over v2 blocks, mapped whole or windowed.
    V2(V2TraceCursor),
}

impl AnyCursor {
    /// Fills `buf` with the next records; zero means the trace is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// As for [`MmapTraceCursor::decode_batch`] and
    /// [`V2TraceCursor::decode_batch`], which also panic on an empty
    /// `buf`.
    pub fn decode_batch(&mut self, buf: &mut [MemoryAccess]) -> Result<usize, TraceError> {
        match self {
            AnyCursor::V1(c) => c.decode_batch(buf),
            AnyCursor::V2(c) => c.decode_batch(buf),
        }
    }

    /// Advances past the next `n` decodable records, returning how many
    /// were skipped (less than `n` only at the end of the trace).
    pub fn skip_records(&mut self, n: u64) -> u64 {
        match self {
            AnyCursor::V1(c) => c.skip_records(n),
            AnyCursor::V2(c) => c.skip_records(n),
        }
    }

    /// Running health tally over what this cursor has passed.
    pub fn health(&self) -> TraceHealth {
        match self {
            AnyCursor::V1(c) => c.health(),
            AnyCursor::V2(c) => c.health(),
        }
    }

    /// Decodes to the end and returns the complete tally.
    pub(crate) fn drain(mut self) -> Result<TraceHealth, TraceError> {
        let mut buf = [MemoryAccess::read(0, 0); 512];
        while self.decode_batch(&mut buf)? != 0 {}
        Ok(self.health())
    }
}

impl Iterator for AnyCursor {
    type Item = Result<MemoryAccess, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            AnyCursor::V1(c) => c.next(),
            AnyCursor::V2(c) => c.next(),
        }
    }
}
