//! The daemon: a Unix-socket server multiplexing simulation jobs onto
//! a bounded worker pool.
//!
//! One [`Server`] owns a listening socket. [`Server::run`] blocks,
//! serving until a client sends `Shutdown`:
//!
//! * an **accept loop** (the calling thread) hands each connection to a
//!   reader thread;
//! * **reader threads** speak the frame protocol: handshake, then
//!   `Submit`/`Cancel`/`Shutdown`. Jobs are resolved *at submit* — a
//!   bad path, unknown app, or invalid geometry fails the submit with a
//!   typed `JobError` instead of poisoning a worker — and admitted to a
//!   bounded queue (`JobError`/`queue-full` past the depth: explicit
//!   backpressure, never unbounded memory);
//! * **worker threads** pop jobs and run them on warm engines,
//!   streaming `Snapshot` frames at the job's cadence and finishing
//!   with `Done` or a typed `JobError`. A panicking job is contained by
//!   the executor's retry→degrade→report escalation; the worker and
//!   the daemon outlive it.
//!
//! Fault containment extends to clients: a disconnected client marks
//! its connection dead and cancels its jobs (queued ones are skipped,
//! running ones stop at their next checkpoint); a client that writes
//! garbage is dropped at the first unparseable frame. Either way the
//! daemon keeps serving everyone else.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::job::{self, ErrorCode, ResolvedJob};
use crate::wire::{write_frame, Frame, MAX_FRAME_BYTES, PROTOCOL_VERSION};

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPING: u8 = 2;

/// How often blocked reads and waits re-check daemon state. Bounds
/// shutdown latency; no protocol traffic happens at this cadence.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// a fault-tolerant daemon treats poisoning as survivable, not fatal.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Daemon sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing jobs; `0` means one per available CPU.
    pub workers: usize,
    /// Run-queue depth; submits past this fail with
    /// [`ErrorCode::QueueFull`] (bounded backpressure).
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_depth: 64,
        }
    }
}

/// One client connection's server-side state, shared between its
/// reader thread and every worker running its jobs.
struct Connection {
    /// The write half plus its reusable encode buffer: one lock, so
    /// frames from concurrent workers never interleave and steady-state
    /// sends don't allocate.
    writer: Mutex<(UnixStream, Vec<u8>)>,
    /// Cleared when the client disconnects or violates the protocol;
    /// dead connections drop sends silently and skip queued jobs.
    alive: AtomicBool,
    /// Jobs accepted but not yet finished, gating reader-thread exit
    /// during shutdown.
    pending: AtomicU64,
    /// Cancellation flags for this connection's accepted jobs.
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

impl Connection {
    fn new(stream: UnixStream) -> Self {
        Connection {
            writer: Mutex::new((stream, Vec::with_capacity(1024))),
            alive: AtomicBool::new(true),
            pending: AtomicU64::new(0),
            cancels: Mutex::new(HashMap::new()),
        }
    }

    /// Sends a frame; a failed write (or an already-dead connection)
    /// marks the connection dead and cancels its jobs rather than
    /// erroring — per-client output failure must not take a worker
    /// down.
    fn send(&self, frame: &Frame) {
        if !self.alive.load(Ordering::SeqCst) {
            return;
        }
        let failed = {
            let mut guard = lock(&self.writer);
            let (stream, scratch) = &mut *guard;
            write_frame(stream, frame, scratch).is_err()
        };
        if failed {
            self.abandon();
        }
    }

    /// Marks the connection dead and cancels all of its jobs.
    fn abandon(&self) {
        self.alive.store(false, Ordering::SeqCst);
        for flag in lock(&self.cancels).values() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Releases a finished (or skipped) job's bookkeeping.
    fn finish_job(&self, job_id: u64) {
        lock(&self.cancels).remove(&job_id);
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A resolved job waiting for a worker.
struct QueuedJob {
    job_id: u64,
    resolved: ResolvedJob,
    cancel: Arc<AtomicBool>,
    conn: Arc<Connection>,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    state: AtomicU8,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    queue_depth: usize,
}

/// The simulation daemon: binds a Unix socket, then serves submitted
/// jobs until told to shut down.
///
/// # Examples
///
/// Serving and driving a job in-process (the e2e tests run exactly
/// this shape against real traces):
///
/// ```no_run
/// use tlbsim_service::{Client, JobSpec, Server, ServerConfig};
///
/// let path = std::env::temp_dir().join("tlbsim.sock");
/// let server = Server::bind(&path, ServerConfig::default())?;
/// let daemon = std::thread::spawn(move || server.run());
///
/// let mut client = Client::connect(&path)?;
/// let outcome = client.run_job(1, &JobSpec::app("gap"))?;
/// assert!(outcome.stats.accesses > 0);
/// client.shutdown(true)?;
/// daemon.join().expect("daemon thread").expect("clean exit");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    listener: UnixListener,
    path: PathBuf,
    config: ServerConfig,
}

impl Server {
    /// Binds the daemon socket at `path`, replacing a stale socket
    /// file left by a previous run.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn bind(path: impl AsRef<Path>, config: ServerConfig) -> std::io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        // A crashed daemon leaves its socket file behind; binding over
        // it requires removing it first.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(Server {
            listener,
            path,
            config,
        })
    }

    /// The socket path clients connect to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serves until a client sends `Shutdown`, then returns once every
    /// in-flight (and, when draining, queued) job has finished and all
    /// connections are closed. The socket file is removed on exit.
    ///
    /// # Errors
    ///
    /// This implementation always returns `Ok(())`; the `Result` is
    /// the API contract for future fatal conditions.
    pub fn run(&self) -> std::io::Result<()> {
        let shared = Shared {
            state: AtomicU8::new(STATE_RUNNING),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_depth: self.config.queue_depth,
        };
        let workers = if self.config.workers == 0 {
            tlbsim_sim::parallelism()
        } else {
            self.config.workers
        };

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&shared));
            }
            for stream in self.listener.incoming() {
                if shared.state.load(Ordering::SeqCst) != STATE_RUNNING {
                    break;
                }
                if let Ok(stream) = stream {
                    scope.spawn(|| serve_connection(stream, &shared, &self.path));
                }
            }
        });
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

/// Worker: pop → run → report, until shutdown empties the world.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.state.load(Ordering::SeqCst) != STATE_RUNNING {
                    break None;
                }
                queue = match shared.available.wait_timeout(queue, POLL_INTERVAL) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let Some(job) = job else { return };
        run_one(shared, job);
    }
}

fn run_one(shared: &Shared, job: QueuedJob) {
    let QueuedJob {
        job_id,
        resolved,
        cancel,
        conn,
    } = job;
    // Jobs that raced a non-draining shutdown into the queue are
    // failed, not run.
    if shared.state.load(Ordering::SeqCst) == STATE_STOPPING {
        conn.send(&Frame::JobError {
            job_id,
            code: ErrorCode::ShuttingDown,
            message: "daemon stopping without drain".to_owned(),
        });
        conn.finish_job(job_id);
        return;
    }
    // Nobody is listening for a dead connection's results.
    if !conn.alive.load(Ordering::SeqCst) {
        conn.finish_job(job_id);
        return;
    }
    let result = job::execute(&resolved, &cancel, |seq, accesses_done, stats| {
        conn.send(&Frame::Snapshot {
            job_id,
            seq,
            accesses_done,
            stats: stats.clone(),
        });
    });
    match result {
        Ok((stats, health)) => conn.send(&Frame::Done {
            job_id,
            stats,
            health,
        }),
        Err((code, message)) => conn.send(&Frame::JobError {
            job_id,
            code,
            message,
        }),
    }
    conn.finish_job(job_id);
}

/// Reader thread: handshake, then serve this client's frames until it
/// disconnects, misbehaves, or the daemon finishes shutting down.
fn serve_connection(stream: UnixStream, shared: &Shared, socket_path: &Path) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Connection::new(stream));
    read_loop(reader, &conn, shared, socket_path);
    conn.abandon();
}

fn read_loop(mut reader: UnixStream, conn: &Arc<Connection>, shared: &Shared, socket_path: &Path) {
    if reader.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut payload: Vec<u8> = Vec::new();
    let mut header = [0u8; 4];
    let mut header_filled = 0usize;
    let mut greeted = false;
    loop {
        // Shutdown exit: once the daemon is leaving and this client has
        // no unfinished jobs, close the connection so `run` can join.
        if shared.state.load(Ordering::SeqCst) != STATE_RUNNING
            && conn.pending.load(Ordering::SeqCst) == 0
        {
            return;
        }
        // Accumulate the 4-byte length prefix across poll ticks.
        if header_filled < header.len() {
            match reader.read(&mut header[header_filled..]) {
                Ok(0) => return, // peer closed (caller cancels jobs)
                Ok(n) => {
                    header_filled += n;
                    continue;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
        header_filled = 0;
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return; // unframeable garbage: drop the client, keep serving
        }
        // The payload follows its header immediately, so read it
        // without the poll timeout (a torn read here is a dead peer).
        payload.clear();
        payload.resize(len, 0);
        let _ = reader.set_read_timeout(None);
        let read_ok = reader.read_exact(&mut payload).is_ok();
        let _ = reader.set_read_timeout(Some(POLL_INTERVAL));
        if !read_ok {
            return;
        }
        let Ok(frame) = Frame::decode(&payload) else {
            return; // undecodable frame: protocol violation, drop client
        };
        if !greeted {
            match frame {
                Frame::Hello {
                    version: PROTOCOL_VERSION,
                } => {
                    conn.send(&Frame::Hello {
                        version: PROTOCOL_VERSION,
                    });
                    greeted = true;
                    continue;
                }
                _ => {
                    // Version mismatch (or no handshake at all): state
                    // our version so the client can report it, then
                    // hang up.
                    conn.send(&Frame::Hello {
                        version: PROTOCOL_VERSION,
                    });
                    return;
                }
            }
        }
        if !handle_frame(frame, conn, shared, socket_path) {
            return;
        }
    }
}

/// Applies one client frame; `false` drops the connection.
fn handle_frame(frame: Frame, conn: &Arc<Connection>, shared: &Shared, socket_path: &Path) -> bool {
    match frame {
        Frame::Submit { job_id, job } => {
            if shared.state.load(Ordering::SeqCst) != STATE_RUNNING {
                conn.send(&Frame::JobError {
                    job_id,
                    code: ErrorCode::ShuttingDown,
                    message: "daemon is shutting down".to_owned(),
                });
                return true;
            }
            match job::resolve(&job) {
                Err((code, message)) => conn.send(&Frame::JobError {
                    job_id,
                    code,
                    message,
                }),
                Ok(resolved) => {
                    let accepted = Frame::Accepted {
                        job_id,
                        shards: resolved.shards as u32,
                        stream_len: resolved.stream_len,
                    };
                    let mut queue = lock(&shared.queue);
                    if queue.len() >= shared.queue_depth {
                        drop(queue);
                        conn.send(&Frame::JobError {
                            job_id,
                            code: ErrorCode::QueueFull,
                            message: format!("run queue full (depth {})", shared.queue_depth),
                        });
                    } else {
                        let cancel = Arc::new(AtomicBool::new(false));
                        lock(&conn.cancels).insert(job_id, Arc::clone(&cancel));
                        conn.pending.fetch_add(1, Ordering::SeqCst);
                        // Accepted must hit the wire before the job
                        // becomes poppable, or a fast worker could put
                        // the job's terminal frame ahead of it.
                        conn.send(&accepted);
                        queue.push_back(QueuedJob {
                            job_id,
                            resolved,
                            cancel,
                            conn: Arc::clone(conn),
                        });
                        drop(queue);
                        shared.available.notify_one();
                    }
                }
            }
            true
        }
        Frame::Cancel { job_id } => {
            if let Some(flag) = lock(&conn.cancels).get(&job_id) {
                flag.store(true, Ordering::SeqCst);
            }
            true
        }
        Frame::Shutdown { drain } => {
            let next = if drain {
                STATE_DRAINING
            } else {
                STATE_STOPPING
            };
            shared.state.store(next, Ordering::SeqCst);
            if !drain {
                // Fail everything still queued; in-flight jobs finish.
                let dropped: Vec<QueuedJob> = lock(&shared.queue).drain(..).collect();
                for job in dropped {
                    job.conn.send(&Frame::JobError {
                        job_id: job.job_id,
                        code: ErrorCode::ShuttingDown,
                        message: "daemon stopping without drain".to_owned(),
                    });
                    job.conn.finish_job(job.job_id);
                }
            }
            shared.available.notify_all();
            conn.send(&Frame::ShuttingDown);
            // The accept loop blocks in accept(); a self-connection
            // wakes it so it can observe the state change and exit.
            let _ = UnixStream::connect(socket_path);
            true
        }
        // Server-bound streams never carry server→client frames;
        // receiving one is a protocol violation.
        Frame::Hello { .. }
        | Frame::Accepted { .. }
        | Frame::Snapshot { .. }
        | Frame::Done { .. }
        | Frame::JobError { .. }
        | Frame::ShuttingDown => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_auto_workers_bounded_queue() {
        let config = ServerConfig::default();
        assert_eq!(config.workers, 0);
        assert!(config.queue_depth > 0);
    }

    #[test]
    fn bind_replaces_a_stale_socket_file() {
        let path = std::env::temp_dir().join(format!("tlbsim-stale-{}.sock", std::process::id()));
        std::fs::write(&path, b"stale").unwrap();
        let server = Server::bind(&path, ServerConfig::default()).unwrap();
        assert_eq!(server.path(), path.as_path());
        drop(server);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dead_connections_swallow_sends_and_cancel_jobs() {
        let path = std::env::temp_dir().join(format!("tlbsim-dead-{}.sock", std::process::id()));
        let _listener = UnixListener::bind(&path).unwrap();
        let stream = UnixStream::connect(&path).unwrap();
        let conn = Connection::new(stream);
        let flag = Arc::new(AtomicBool::new(false));
        lock(&conn.cancels).insert(7, Arc::clone(&flag));
        conn.abandon();
        assert!(flag.load(Ordering::SeqCst), "abandon cancels jobs");
        conn.send(&Frame::ShuttingDown); // must be a silent no-op
        assert!(!conn.alive.load(Ordering::SeqCst));
        let _ = std::fs::remove_file(&path);
    }
}
