//! # tlbsim-trace — reference-trace formats and statistics
//!
//! The simulator consumes any `Iterator<Item = MemoryAccess>`; this crate
//! provides the persistent forms of such streams and tools over them:
//!
//! * [`BinaryTraceWriter`] — a compact 17-byte per-record binary format
//!   (`TLBT` magic) that external tracers can emit trivially; the
//!   normative byte-level specification is `docs/TRACE_FORMAT.md` at the
//!   repository root;
//! * [`MmapTrace`] / [`MmapTraceCursor`] — the one decoder of that
//!   format, zero-copy from a memory-mapped file: the header is
//!   validated once, records decode batch-wise into caller-owned
//!   buffers, and seeking is O(1) — the full-speed input path the
//!   simulator's batched engines and sharded executor consume;
//! * [`V2TraceWriter`] / [`V2Trace`] / [`V2TraceCursor`] — the **v2**
//!   block-compressed variant of the same format: records are packed
//!   into delta-compressed blocks behind a trailing block index, cutting
//!   corpora to a few bytes per record while keeping O(1) seeks on block
//!   boundaries. Cursors read blocks through one mapped window: the
//!   whole file for [`V2Trace::open`], or N blocks at a time for
//!   [`TraceReader::open_streaming`], which replays files larger than
//!   RAM;
//! * [`DecodePolicy`] / [`TraceHealth`] — strict (abort on first fault)
//!   vs quarantine (skip, count, bound) decode, with a health report of
//!   what a damaged file lost; see "Corruption & quarantine semantics"
//!   in `docs/TRACE_FORMAT.md`;
//! * [`FaultPlan`] — deterministic seeded fault injection (corrupt
//!   kinds, wild vaddrs, torn tails, worker panics) for chaos testing
//!   the whole stack;
//! * [`TextTraceWriter`] / [`TextTraceReader`] — a `pc R|W vaddr`
//!   line format with comments for hand-written regression inputs;
//! * [`TraceWriter`] — one writer over the three formats, picked at run
//!   time, and [`TraceReader`] / [`AnyCursor`] — one reader over the two
//!   binary formats, picked by the header's version word.
//!
//! Every cursor and the text reader are `Iterator`s, so the paper's
//! fast-forward + simulate window (skip 2 B instructions, simulate 1 B;
//! §3.1) is std's `skip(n).take(m)`.
//!
//! ## Quick start
//!
//! ```
//! use tlbsim_core::MemoryAccess;
//! use tlbsim_trace::{BinaryTraceWriter, DecodePolicy, TraceReader};
//!
//! // Write a short trace.
//! let path = std::env::temp_dir().join(format!("tlbt-quickstart-{}", std::process::id()));
//! let mut w = BinaryTraceWriter::create(std::fs::File::create(&path)?)?;
//! for i in 0..1000u64 {
//!     w.write(&MemoryAccess::read(0x400, i * 4096))?;
//! }
//! w.finish()?;
//!
//! // Read it back, skipping a warm-up prefix.
//! let n = TraceReader::open(&path, DecodePolicy::Strict)?
//!     .cursor()
//!     .map(|r| r.expect("valid record"))
//!     .skip(100)
//!     .take(500)
//!     .count();
//! assert_eq!(n, 500);
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), tlbsim_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod binary;
mod block;
mod error;
mod fault;
mod mmap;
mod policy;
mod reader;
mod text;
mod v2;
mod writer;

pub use binary::{BinaryTraceWriter, HEADER_BYTES, MAGIC, RECORD_BYTES, VERSION};
pub use block::{
    DEFAULT_BLOCK_LEN, FOOTER_BYTES, FOOTER_MAGIC, INDEX_ENTRY_BYTES, RESTART_BYTES, V2_VERSION,
};
pub use error::TraceError;
pub use fault::{wild_vaddr, FaultKind, FaultPlan, PlannedFault};
pub use mmap::{MmapTrace, MmapTraceCursor};
pub use policy::{DecodePolicy, TraceHealth};
pub use reader::{AnyCursor, TraceReader};
pub use text::{TextTraceReader, TextTraceWriter};
pub use v2::{V2Trace, V2TraceCursor, V2TraceWriter};
pub use writer::TraceWriter;
