//! The `TLBS` wire protocol: length-prefixed, versioned binary frames.
//!
//! Every frame on the stream is a 4-byte little-endian payload length
//! followed by the payload; the payload's first byte is the frame kind,
//! the rest is kind-specific. The normative layout of every frame lives
//! in `docs/PROTOCOL.md` — this module is the reference codec.
//!
//! Decoding is **total**: any byte sequence either decodes to a
//! [`Frame`] or returns a typed [`FrameError`] — never a panic and
//! never a partial value. Unknown frame kinds, unknown enum tags,
//! truncated payloads, oversized lengths, non-UTF-8 strings, and
//! trailing garbage are each their own error, so a damaged or hostile
//! peer produces a one-line diagnosis rather than a dead daemon
//! (`tests/protocol.rs` pins totality property-style).

use std::io::{Read, Write};

use tlbsim_sim::{
    PerStreamStats, RunHealth, SimStats, StreamStats, SwitchPolicy, TablePolicy, MAX_STREAMS,
};
use tlbsim_trace::DecodePolicy;
use tlbsim_workloads::Scale;

use crate::job::{ErrorCode, JobSource, JobSpec};

/// Protocol version spoken by this build; exchanged in [`Frame::Hello`].
///
/// v4 carries the scheme as one string in the grammar of
/// `PrefetcherConfig`'s `Display`/`FromStr`, so a new mechanism or
/// setting needs no wire change. `docs/PROTOCOL.md` has the history.
pub const PROTOCOL_VERSION: u16 = 4;

/// Upper bound on one frame's payload, in bytes. A length prefix above
/// this is rejected before any allocation, so garbage on the socket
/// cannot make the daemon reserve gigabytes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A decoding failure: what exactly was wrong with the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the field being read.
    Truncated {
        /// Which field was being decoded when the bytes ran out.
        field: &'static str,
    },
    /// The first payload byte is not a known frame kind.
    UnknownKind(u8),
    /// An enum field carried an unassigned tag value.
    UnknownTag {
        /// Which enum field carried the bad tag.
        field: &'static str,
        /// The unassigned tag value.
        tag: u8,
    },
    /// The 4-byte length prefix exceeds [`MAX_FRAME_BYTES`] (or is 0).
    BadLength(u32),
    /// A string field held non-UTF-8 bytes.
    BadUtf8 {
        /// Which string field was malformed.
        field: &'static str,
    },
    /// A numeric field held a value outside its domain (e.g. a zero
    /// scale factor, a per-stream width above the supported maximum).
    BadValue {
        /// Which field was out of domain.
        field: &'static str,
    },
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes {
        /// How many undecoded bytes followed the frame.
        extra: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { field } => write!(f, "frame truncated while reading {field}"),
            FrameError::UnknownKind(kind) => write!(f, "unknown frame kind {kind:#04x}"),
            FrameError::UnknownTag { field, tag } => {
                write!(f, "unknown tag {tag} for {field}")
            }
            FrameError::BadLength(len) => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_BYTES} bytes")
            }
            FrameError::BadUtf8 { field } => write!(f, "{field} is not valid UTF-8"),
            FrameError::BadValue { field } => write!(f, "{field} holds an out-of-domain value"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A transport-level failure around frame I/O.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly at a frame boundary.
    Disconnected,
    /// An I/O failure mid-frame (includes torn frames at EOF).
    Io(std::io::Error),
    /// The bytes on the wire did not decode (see [`FrameError`]).
    Frame(FrameError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Disconnected => f.write_str("peer disconnected"),
            WireError::Io(e) => write!(f, "socket i/o: {e}"),
            WireError::Frame(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake; first frame from each side.
    Hello {
        /// Protocol version the sender speaks.
        version: u16,
    },
    /// Client → server: run this job; correlate replies by `job_id`.
    Submit {
        /// Client-chosen correlation id, echoed on every reply.
        job_id: u64,
        /// What to run and how.
        job: JobSpec,
    },
    /// Server → client: the job was admitted to the run queue.
    Accepted {
        /// Correlation id from the submit.
        job_id: u64,
        /// Worker shards the run will actually use (auto resolved).
        shards: u32,
        /// Exact accesses the job will simulate.
        stream_len: u64,
    },
    /// Server → client: an incremental cumulative-statistics
    /// checkpoint (only for jobs submitted with a snapshot cadence).
    Snapshot {
        /// Correlation id from the submit.
        job_id: u64,
        /// Checkpoint sequence number, from 1; restarts from 1 if a
        /// panicked attempt was retried.
        seq: u64,
        /// Accesses simulated so far.
        accesses_done: u64,
        /// Cumulative statistics — the last snapshot equals the final
        /// result bit for bit.
        stats: SimStats,
    },
    /// Server → client: the job finished; `stats` is bit-identical to
    /// the equivalent batch run.
    Done {
        /// Correlation id from the submit.
        job_id: u64,
        /// Final statistics.
        stats: SimStats,
        /// What recovery the run needed (all-zero on the happy path).
        health: RunHealth,
    },
    /// Server → client: the job failed; the daemon keeps serving.
    JobError {
        /// Correlation id from the submit.
        job_id: u64,
        /// Typed failure class.
        code: ErrorCode,
        /// One-line diagnosis.
        message: String,
    },
    /// Client → server: stop a submitted job at its next checkpoint.
    Cancel {
        /// Correlation id of the job to stop.
        job_id: u64,
    },
    /// Client → server: stop the daemon.
    Shutdown {
        /// `true`: finish queued jobs first; `false`: fail queued jobs
        /// with [`ErrorCode::ShuttingDown`] and stop after in-flight
        /// jobs complete.
        drain: bool,
    },
    /// Server → client: shutdown acknowledged; the daemon exits once
    /// in-flight (and, when draining, queued) jobs are finished.
    ShuttingDown,
}

const KIND_HELLO: u8 = 0x01;
const KIND_SUBMIT: u8 = 0x02;
const KIND_ACCEPTED: u8 = 0x03;
const KIND_SNAPSHOT: u8 = 0x04;
const KIND_DONE: u8 = 0x05;
const KIND_JOB_ERROR: u8 = 0x06;
const KIND_CANCEL: u8 = 0x07;
const KIND_SHUTDOWN: u8 = 0x08;
const KIND_SHUTTING_DOWN: u8 = 0x09;

/// Bounds-checked sequential reader over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or(FrameError::Truncated { field })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, field)?[0])
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, FrameError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(FrameError::UnknownTag { field, tag }),
        }
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, FrameError> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, FrameError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, FrameError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self, field: &'static str) -> Result<String, FrameError> {
        let len = self.u16(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8 { field })
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes {
                extra: self.bytes.len() - self.pos,
            })
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) -> Result<(), FrameError> {
    let len = u16::try_from(s.len()).map_err(|_| FrameError::BadValue {
        field: "string length",
    })?;
    put_u16(buf, len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn encode_stats(buf: &mut Vec<u8>, stats: &SimStats) -> Result<(), FrameError> {
    put_u64(buf, stats.accesses);
    put_u64(buf, stats.misses);
    put_u64(buf, stats.prefetch_buffer_hits);
    put_u64(buf, stats.demand_walks);
    put_u64(buf, stats.prefetches_issued);
    put_u64(buf, stats.prefetches_filtered);
    put_u64(buf, stats.prefetches_evicted_unused);
    put_u64(buf, stats.maintenance_ops);
    put_u64(buf, stats.footprint_pages);
    let streams = stats.per_stream.streams();
    // MAX_STREAMS keeps this unreachable today, but a silent `as u16`
    // here would truncate quietly if that bound ever grew — every
    // count on the wire goes through a checked conversion.
    let count = u16::try_from(streams.len()).map_err(|_| FrameError::BadValue {
        field: "stats.per_stream.len",
    })?;
    put_u16(buf, count);
    for s in streams {
        put_u64(buf, s.accesses);
        put_u64(buf, s.misses);
        put_u64(buf, s.prefetch_buffer_hits);
        put_u64(buf, s.demand_walks);
        put_u64(buf, s.prefetches_issued);
        put_u64(buf, s.footprint_pages);
    }
    Ok(())
}

fn decode_stats(r: &mut Reader<'_>) -> Result<SimStats, FrameError> {
    let mut stats = SimStats {
        accesses: r.u64("stats.accesses")?,
        misses: r.u64("stats.misses")?,
        prefetch_buffer_hits: r.u64("stats.prefetch_buffer_hits")?,
        demand_walks: r.u64("stats.demand_walks")?,
        prefetches_issued: r.u64("stats.prefetches_issued")?,
        prefetches_filtered: r.u64("stats.prefetches_filtered")?,
        prefetches_evicted_unused: r.u64("stats.prefetches_evicted_unused")?,
        maintenance_ops: r.u64("stats.maintenance_ops")?,
        footprint_pages: r.u64("stats.footprint_pages")?,
        per_stream: PerStreamStats::default(),
    };
    let width = r.u16("stats.per_stream.len")? as usize;
    if width > MAX_STREAMS {
        return Err(FrameError::BadValue {
            field: "stats.per_stream.len",
        });
    }
    if width > 0 {
        let mut per = PerStreamStats::with_streams(width);
        for index in 0..width {
            let share = StreamStats {
                accesses: r.u64("stats.per_stream.accesses")?,
                misses: r.u64("stats.per_stream.misses")?,
                prefetch_buffer_hits: r.u64("stats.per_stream.prefetch_buffer_hits")?,
                demand_walks: r.u64("stats.per_stream.demand_walks")?,
                prefetches_issued: r.u64("stats.per_stream.prefetches_issued")?,
                footprint_pages: r.u64("stats.per_stream.footprint_pages")?,
            };
            per.record(index, &share);
        }
        stats.per_stream = per;
    }
    Ok(stats)
}

fn encode_switch_policy(buf: &mut Vec<u8>, policy: &SwitchPolicy) -> Result<(), FrameError> {
    match policy {
        SwitchPolicy::None => {
            buf.push(0);
            put_u64(buf, 0);
            buf.push(0);
        }
        SwitchPolicy::FlushOnSwitch => {
            buf.push(1);
            put_u64(buf, 0);
            buf.push(0);
        }
        SwitchPolicy::Asid { contexts, tables } => {
            buf.push(2);
            let contexts = u64::try_from(*contexts).map_err(|_| FrameError::BadValue {
                field: "job.switch_policy.contexts",
            })?;
            put_u64(buf, contexts);
            buf.push(match tables {
                TablePolicy::Shared => 0,
                TablePolicy::Partitioned => 1,
            });
        }
    }
    Ok(())
}

fn decode_switch_policy(r: &mut Reader<'_>) -> Result<SwitchPolicy, FrameError> {
    let tag = r.u8("job.switch_policy")?;
    let contexts = r.u64("job.switch_policy.contexts")?;
    let tables = match r.u8("job.switch_policy.tables")? {
        0 => TablePolicy::Shared,
        1 => TablePolicy::Partitioned,
        tag => {
            return Err(FrameError::UnknownTag {
                field: "job.switch_policy.tables",
                tag,
            })
        }
    };
    match tag {
        0 => Ok(SwitchPolicy::None),
        1 => Ok(SwitchPolicy::FlushOnSwitch),
        2 => {
            let contexts = usize::try_from(contexts).map_err(|_| FrameError::BadValue {
                field: "job.switch_policy.contexts",
            })?;
            Ok(SwitchPolicy::Asid { contexts, tables })
        }
        tag => Err(FrameError::UnknownTag {
            field: "job.switch_policy",
            tag,
        }),
    }
}

fn encode_health(buf: &mut Vec<u8>, health: &RunHealth) {
    put_u64(buf, health.retries);
    put_u64(buf, health.degraded_shards);
    put_u64(buf, health.quarantined_records);
}

fn decode_health(r: &mut Reader<'_>) -> Result<RunHealth, FrameError> {
    Ok(RunHealth {
        retries: r.u64("health.retries")?,
        degraded_shards: r.u64("health.degraded_shards")?,
        quarantined_records: r.u64("health.quarantined_records")?,
    })
}

fn encode_job(buf: &mut Vec<u8>, job: &JobSpec) -> Result<(), FrameError> {
    match &job.source {
        JobSource::Trace { path } => {
            buf.push(0);
            put_string(buf, path)?;
        }
        JobSource::App { name } => {
            buf.push(1);
            put_string(buf, name)?;
        }
        JobSource::Mix { apps, quantum } => {
            buf.push(2);
            let count = u16::try_from(apps.len()).map_err(|_| FrameError::BadValue {
                field: "job.source.mix.count",
            })?;
            put_u16(buf, count);
            for name in apps {
                put_string(buf, name)?;
            }
            put_u64(buf, *quantum);
        }
    }
    put_string(buf, &job.scheme.to_string())?;
    put_u32(buf, job.scale.factor());
    put_u32(buf, job.shards);
    match job.policy {
        DecodePolicy::Strict => {
            buf.push(0);
            put_u64(buf, 0);
        }
        DecodePolicy::Quarantine { max_bad } => {
            buf.push(1);
            put_u64(buf, max_bad);
        }
    }
    put_u64(buf, job.snapshot_every);
    put_u64(buf, job.fault_panics);
    encode_switch_policy(buf, &job.switch_policy)?;
    Ok(())
}

fn decode_job(r: &mut Reader<'_>) -> Result<JobSpec, FrameError> {
    let source = match r.u8("job.source")? {
        0 => JobSource::Trace {
            path: r.string("job.source.path")?,
        },
        1 => JobSource::App {
            name: r.string("job.source.app")?,
        },
        2 => {
            let count = r.u16("job.source.mix.count")? as usize;
            let mut apps = Vec::with_capacity(count.min(MAX_STREAMS));
            for _ in 0..count {
                apps.push(r.string("job.source.mix.app")?);
            }
            JobSource::Mix {
                apps,
                quantum: r.u64("job.source.mix.quantum")?,
            }
        }
        tag => {
            return Err(FrameError::UnknownTag {
                field: "job.source",
                tag,
            })
        }
    };
    let scheme = r
        .string("job.scheme")?
        .parse()
        .map_err(|_| FrameError::BadValue {
            field: "job.scheme",
        })?;
    let factor = r.u32("job.scale")?;
    if factor == 0 {
        return Err(FrameError::BadValue { field: "job.scale" });
    }
    let scale = Scale::new(factor);
    let shards = r.u32("job.shards")?;
    let policy = match r.u8("job.policy")? {
        0 => {
            let _ = r.u64("job.policy.budget")?;
            DecodePolicy::Strict
        }
        1 => DecodePolicy::Quarantine {
            max_bad: r.u64("job.policy.budget")?,
        },
        tag => {
            return Err(FrameError::UnknownTag {
                field: "job.policy",
                tag,
            })
        }
    };
    let snapshot_every = r.u64("job.snapshot_every")?;
    let fault_panics = r.u64("job.fault_panics")?;
    let switch_policy = decode_switch_policy(r)?;
    Ok(JobSpec {
        source,
        scheme,
        scale,
        shards,
        policy,
        snapshot_every,
        fault_panics,
        switch_policy,
    })
}

impl Frame {
    /// Encodes the frame — length prefix included — into `buf`.
    ///
    /// The buffer is cleared first and its capacity is reused, so a
    /// long-lived scratch buffer makes steady-state encoding
    /// allocation-free (pinned by the service `zero_alloc` test).
    ///
    /// # Errors
    ///
    /// [`FrameError::BadValue`] if a field cannot be represented (e.g.
    /// a string longer than a `u16` length prefix can carry).
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), FrameError> {
        buf.clear();
        buf.extend_from_slice(&[0, 0, 0, 0]); // length, patched below
        match self {
            Frame::Hello { version } => {
                buf.push(KIND_HELLO);
                put_u16(buf, *version);
            }
            Frame::Submit { job_id, job } => {
                buf.push(KIND_SUBMIT);
                put_u64(buf, *job_id);
                encode_job(buf, job)?;
            }
            Frame::Accepted {
                job_id,
                shards,
                stream_len,
            } => {
                buf.push(KIND_ACCEPTED);
                put_u64(buf, *job_id);
                put_u32(buf, *shards);
                put_u64(buf, *stream_len);
            }
            Frame::Snapshot {
                job_id,
                seq,
                accesses_done,
                stats,
            } => {
                buf.push(KIND_SNAPSHOT);
                put_u64(buf, *job_id);
                put_u64(buf, *seq);
                put_u64(buf, *accesses_done);
                encode_stats(buf, stats)?;
            }
            Frame::Done {
                job_id,
                stats,
                health,
            } => {
                buf.push(KIND_DONE);
                put_u64(buf, *job_id);
                encode_stats(buf, stats)?;
                encode_health(buf, health);
            }
            Frame::JobError {
                job_id,
                code,
                message,
            } => {
                buf.push(KIND_JOB_ERROR);
                put_u64(buf, *job_id);
                buf.push(code.as_u8());
                put_string(buf, message)?;
            }
            Frame::Cancel { job_id } => {
                buf.push(KIND_CANCEL);
                put_u64(buf, *job_id);
            }
            Frame::Shutdown { drain } => {
                buf.push(KIND_SHUTDOWN);
                buf.push(u8::from(*drain));
            }
            Frame::ShuttingDown => {
                buf.push(KIND_SHUTTING_DOWN);
            }
        }
        // The prefix is a u32 and readers cap frames at MAX_FRAME_BYTES;
        // an unrepresentable or unreadable length must fail the encode,
        // never truncate into a prefix that frames garbage.
        let payload = u32::try_from(buf.len() - 4)
            .ok()
            .filter(|&len| len as usize <= MAX_FRAME_BYTES)
            .ok_or(FrameError::BadValue {
                field: "frame length",
            })?;
        buf[..4].copy_from_slice(&payload.to_le_bytes());
        Ok(())
    }

    /// Decodes one payload (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] for any byte sequence that is not exactly
    /// one well-formed frame — decoding never panics.
    pub fn decode(payload: &[u8]) -> Result<Frame, FrameError> {
        let mut r = Reader::new(payload);
        let frame = match r.u8("frame kind")? {
            KIND_HELLO => Frame::Hello {
                version: r.u16("hello.version")?,
            },
            KIND_SUBMIT => Frame::Submit {
                job_id: r.u64("submit.job_id")?,
                job: decode_job(&mut r)?,
            },
            KIND_ACCEPTED => Frame::Accepted {
                job_id: r.u64("accepted.job_id")?,
                shards: r.u32("accepted.shards")?,
                stream_len: r.u64("accepted.stream_len")?,
            },
            KIND_SNAPSHOT => Frame::Snapshot {
                job_id: r.u64("snapshot.job_id")?,
                seq: r.u64("snapshot.seq")?,
                accesses_done: r.u64("snapshot.accesses_done")?,
                stats: decode_stats(&mut r)?,
            },
            KIND_DONE => Frame::Done {
                job_id: r.u64("done.job_id")?,
                stats: decode_stats(&mut r)?,
                health: decode_health(&mut r)?,
            },
            KIND_JOB_ERROR => Frame::JobError {
                job_id: r.u64("job_error.job_id")?,
                code: ErrorCode::from_u8(r.u8("job_error.code")?).ok_or({
                    FrameError::BadValue {
                        field: "job_error.code",
                    }
                })?,
                message: r.string("job_error.message")?,
            },
            KIND_CANCEL => Frame::Cancel {
                job_id: r.u64("cancel.job_id")?,
            },
            KIND_SHUTDOWN => Frame::Shutdown {
                drain: r.bool("shutdown.drain")?,
            },
            KIND_SHUTTING_DOWN => Frame::ShuttingDown,
            kind => return Err(FrameError::UnknownKind(kind)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Reads one length-prefixed frame from `reader` into the reusable
/// `payload` buffer and decodes it.
///
/// # Errors
///
/// [`WireError::Disconnected`] on clean EOF at a frame boundary,
/// [`WireError::Io`] for transport failures (a torn frame surfaces as
/// `UnexpectedEof`), [`WireError::Frame`] for undecodable bytes.
pub fn read_frame<R: Read>(reader: &mut R, payload: &mut Vec<u8>) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Disconnected),
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len as usize > MAX_FRAME_BYTES {
        return Err(WireError::Frame(FrameError::BadLength(len)));
    }
    payload.clear();
    payload.resize(len as usize, 0);
    reader.read_exact(payload)?;
    Ok(Frame::decode(payload)?)
}

/// Encodes `frame` into the reusable `scratch` buffer and writes it.
///
/// # Errors
///
/// [`WireError::Frame`] if the frame cannot be encoded,
/// [`WireError::Io`] if the write fails.
pub fn write_frame<W: Write>(
    writer: &mut W,
    frame: &Frame,
    scratch: &mut Vec<u8>,
) -> Result<(), WireError> {
    frame.encode_into(scratch)?;
    writer.write_all(scratch)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        frame.encode_into(&mut buf).unwrap();
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(len, buf.len() - 4, "length prefix covers the payload");
        assert_eq!(Frame::decode(&buf[4..]).unwrap(), frame);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip(Frame::Submit {
            job_id: 7,
            job: JobSpec::trace("tests/data/gap-tiny-2k.tlbt"),
        });
        roundtrip(Frame::Submit {
            job_id: u64::MAX,
            job: {
                let mut job = JobSpec::app("galgel");
                job.scale = Scale::new(3);
                job.shards = 0;
                job.policy = DecodePolicy::quarantine(9);
                job.snapshot_every = 500;
                job.fault_panics = 2;
                job.scheme = "MP,512,4".parse().unwrap();
                job
            },
        });
        roundtrip(Frame::Submit {
            job_id: 11,
            job: {
                let mut job = JobSpec::mix(["gap", "mcf", "eon"], 4096);
                job.switch_policy = SwitchPolicy::Asid {
                    contexts: 64,
                    tables: TablePolicy::Partitioned,
                };
                job
            },
        });
        for (job_id, scheme) in (12..).zip(["TP,4", "C+DP,256,D;slots=4;conf=1/0", "EP:DP+ASP+MP"])
        {
            let mut job = JobSpec::app("gap");
            job.scheme = scheme.parse().unwrap();
            roundtrip(Frame::Submit { job_id, job });
        }
        roundtrip(Frame::Accepted {
            job_id: 1,
            shards: 4,
            stream_len: 123_456,
        });
        let mut stats = SimStats {
            accesses: 1,
            misses: 2,
            prefetch_buffer_hits: 3,
            demand_walks: 4,
            prefetches_issued: 5,
            prefetches_filtered: 6,
            prefetches_evicted_unused: 7,
            maintenance_ops: 8,
            footprint_pages: 9,
            per_stream: PerStreamStats::with_streams(2),
        };
        stats.per_stream.record(
            1,
            &StreamStats {
                accesses: 10,
                misses: 11,
                prefetch_buffer_hits: 12,
                demand_walks: 13,
                prefetches_issued: 14,
                footprint_pages: 15,
            },
        );
        roundtrip(Frame::Snapshot {
            job_id: 2,
            seq: 3,
            accesses_done: 4096,
            stats: stats.clone(),
        });
        roundtrip(Frame::Done {
            job_id: 3,
            stats,
            health: RunHealth {
                retries: 1,
                degraded_shards: 2,
                quarantined_records: 3,
            },
        });
        roundtrip(Frame::JobError {
            job_id: 4,
            code: ErrorCode::QueueFull,
            message: "queue full (depth 64)".to_owned(),
        });
        roundtrip(Frame::Cancel { job_id: 5 });
        roundtrip(Frame::Shutdown { drain: true });
        roundtrip(Frame::Shutdown { drain: false });
        roundtrip(Frame::ShuttingDown);
    }

    #[test]
    fn unrepresentable_counts_fail_the_encode_instead_of_truncating() {
        let mut buf = Vec::new();
        // A mix with more members than the u16 count field can carry
        // must be a typed encode error, not a silently truncated frame.
        let apps: Vec<String> = (0..70_000).map(|i| format!("app{i}")).collect();
        let frame = Frame::Submit {
            job_id: 1,
            job: JobSpec::mix(apps, 4096),
        };
        assert_eq!(
            frame.encode_into(&mut buf),
            Err(FrameError::BadValue {
                field: "job.source.mix.count"
            })
        );
        // A string longer than its u16 length prefix likewise.
        let frame = Frame::JobError {
            job_id: 2,
            code: ErrorCode::Sim,
            message: "x".repeat(70_000),
        };
        assert_eq!(
            frame.encode_into(&mut buf),
            Err(FrameError::BadValue {
                field: "string length"
            })
        );
        // And a frame that would exceed what read_frame accepts fails
        // at encode rather than producing an unreadable stream.
        let apps: Vec<String> = (0..65_000).map(|i| format!("application-{i:08}")).collect();
        let frame = Frame::Submit {
            job_id: 3,
            job: JobSpec::mix(apps, 4096),
        };
        assert_eq!(
            frame.encode_into(&mut buf),
            Err(FrameError::BadValue {
                field: "frame length"
            })
        );
        // Failed encodes leave the buffer reusable: a good frame after a
        // bad one round-trips.
        roundtrip(Frame::Hello { version: 1 });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        Frame::Hello { version: 1 }.encode_into(&mut buf).unwrap();
        let mut payload = buf[4..].to_vec();
        payload.push(0xFF);
        assert_eq!(
            Frame::decode(&payload),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn empty_and_unknown_payloads_are_typed_errors() {
        assert_eq!(
            Frame::decode(&[]),
            Err(FrameError::Truncated {
                field: "frame kind"
            })
        );
        assert_eq!(Frame::decode(&[0xEE]), Err(FrameError::UnknownKind(0xEE)));
    }

    #[test]
    fn oversize_and_zero_length_prefixes_are_rejected_before_allocation() {
        let mut payload = Vec::new();
        let huge = (u32::MAX).to_le_bytes();
        let err = read_frame(&mut huge.as_slice(), &mut payload).unwrap_err();
        assert!(matches!(
            err,
            WireError::Frame(FrameError::BadLength(u32::MAX))
        ));
        let zero = 0u32.to_le_bytes();
        let err = read_frame(&mut zero.as_slice(), &mut payload).unwrap_err();
        assert!(matches!(err, WireError::Frame(FrameError::BadLength(0))));
    }

    #[test]
    fn clean_eof_is_disconnected_and_torn_frames_are_io_errors() {
        let mut payload = Vec::new();
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }, &mut payload).unwrap_err(),
            WireError::Disconnected
        ));
        let torn: &[u8] = &[5, 0, 0, 0, KIND_HELLO];
        assert!(matches!(
            read_frame(&mut { torn }, &mut payload).unwrap_err(),
            WireError::Io(_)
        ));
    }
}
