//! The `vcpsd` daemon: accept loop, per-connection framing, dispatch.
//!
//! ## Threading model
//!
//! One listener thread runs the accept loop. Each accepted connection
//! gets a *reader* thread (framing, DoS budgets) and a *processor*
//! thread (decode, server mutation, responses), joined by a bounded
//! channel of `max_frames_in_flight` frames. When the processor falls
//! behind, the channel fills, the reader blocks, the socket stops being
//! drained, and ordinary TCP flow control pushes back on the peer — the
//! frames-in-flight budget *is* the backpressure mechanism.
//!
//! Both halves are buffered with a fixed [`IO_BUFFER_BYTES`] capacity,
//! so a pipelined burst costs a few large socket calls instead of two
//! reads and two writes per frame. The data a connection holds in
//! flight is therefore bounded by `max_frames_in_flight` frames plus
//! one read buffer. The processor coalesces responses while frames are
//! queued and flushes whenever the channel is empty, before it blocks
//! waiting for the next frame: every response is on the wire before the
//! processor waits, so buffering never holds an answer back from a peer
//! that is waiting for it.
//!
//! ## State
//!
//! All connections share one [`Backend`] (volatile
//! [`ShardedServer`] or WAL-backed
//! [`DurableServer`]) behind an `RwLock`: ingest and period rollover
//! take the write lock, pair/O–D queries the read lock. Cross-RSU
//! frame interleavings commute (dedup state is per-RSU), so any
//! serialization order the lock picks yields the same final state —
//! the property the differential tests check bit-for-bit.
//!
//! ## Shutdown
//!
//! A shutdown frame flips the shared flag and pokes the listener with a
//! loopback connect so `accept` wakes. The run loop then stops
//! accepting, waits for live connections to drain (readers notice the
//! flag at their next idle tick), and — the part that matters for
//! durability — explicitly flushes the WAL, so a group-commit tail
//! buffered under a lazy [`FlushPolicy`](vcps_sim::FlushPolicy) is
//! never dropped on the floor (`wal.dropped_buffered_records` counts
//! exactly the drops this flush prevents).

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

use vcps_core::Scheme;
use vcps_obs::Obs;
use vcps_sim::{
    DurableOptions, DurableServer, PeriodUpload, SequencedUploadRef, ShardedServer, SimError,
};

use crate::limits::TokenBucket;
use crate::wire::{
    self, AckSummary, Cursor, REQ_FINISH_PERIOD, REQ_OD_QUERY, REQ_PAIR_QUERY, REQ_PING,
    REQ_SHUTDOWN, RESP_OK,
};
use crate::{ConnectionLimits, NetError};

/// How often blocked reads wake to check the shutdown flag.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// Capacity of each connection's read buffer and of its response
/// buffer. A frame or response at least this large bypasses the buffer.
const IO_BUFFER_BYTES: usize = 64 * 1024;

/// Everything needed to stand up a daemon.
#[derive(Debug)]
pub struct DaemonConfig {
    /// The deployment's masking scheme.
    pub scheme: Scheme,
    /// EWMA weight for the volume history.
    pub history_alpha: f64,
    /// Shard count for the ingest fan-out.
    pub shards: usize,
    /// Worker threads for O–D matrix queries (the pool fan-out).
    pub od_threads: usize,
    /// Per-connection DoS budgets.
    pub limits: ConnectionLimits,
    /// When set, state is write-ahead logged here via [`DurableServer`]
    /// (recovering whatever the directory already holds).
    pub wal_dir: Option<PathBuf>,
    /// Durability knobs used when `wal_dir` is set.
    pub durable_options: DurableOptions,
    /// Observability handle shared by the listener and all connections.
    pub obs: Obs,
}

impl DaemonConfig {
    /// A config with library defaults: 4 shards, default limits,
    /// volatile state.
    #[must_use]
    pub fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            history_alpha: 1.0,
            shards: 4,
            od_threads: 0,
            limits: ConnectionLimits::default(),
            wal_dir: None,
            durable_options: DurableOptions::log_only(),
            obs: Obs::disabled(),
        }
    }
}

/// The daemon's shared server state: one deployment, any backing.
enum Backend {
    /// In-memory only — state dies with the process.
    Volatile(ShardedServer),
    /// Write-ahead logged and checkpointed (boxed: it carries the WAL
    /// writer and its retention janitor).
    Durable(Box<DurableServer>),
}

impl Backend {
    fn server(&self) -> &ShardedServer {
        match self {
            Backend::Volatile(s) => s,
            Backend::Durable(d) => d.server(),
        }
    }
}

struct Shared {
    backend: RwLock<Backend>,
    limits: ConnectionLimits,
    od_threads: usize,
    obs: Obs,
    shutdown: AtomicBool,
    live_conns: AtomicUsize,
    local_addr: SocketAddr,
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A daemon running on its own thread (see [`Daemon::spawn`]).
pub struct DaemonHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<Result<(), NetError>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit (after a shutdown frame).
    ///
    /// # Errors
    ///
    /// Whatever the run loop returned.
    ///
    /// # Panics
    ///
    /// Panics if the daemon thread panicked.
    pub fn join(self) -> Result<(), NetError> {
        self.thread.join().expect("daemon thread panicked")
    }
}

impl Daemon {
    /// Binds the listener and builds the backend (recovering from
    /// `wal_dir` when durable).
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidLimit`] for a zero byte rate or read timeout
    /// (checked before anything is bound), bind failures, invalid
    /// deployment parameters, or a corrupt durable store.
    pub fn bind(addr: impl ToSocketAddrs, config: DaemonConfig) -> Result<Self, NetError> {
        config.limits.validate()?;
        let listener = TcpListener::bind(addr).map_err(NetError::Io)?;
        let local_addr = listener.local_addr().map_err(NetError::Io)?;
        let backend = match &config.wal_dir {
            Some(dir) => {
                let (server, report) = DurableServer::recover(
                    config.scheme.clone(),
                    config.history_alpha,
                    config.shards,
                    dir,
                    config.durable_options,
                    &config.obs,
                )
                .map_err(NetError::from)?;
                config.obs.add(
                    "net.recover.records",
                    report.checkpoint_records + report.replayed_records,
                );
                Backend::Durable(Box::new(server))
            }
            None => Backend::Volatile(
                ShardedServer::new(config.scheme.clone(), config.history_alpha, config.shards)
                    .map_err(NetError::from)?
                    .with_obs(config.obs.clone()),
            ),
        };
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                backend: RwLock::new(backend),
                limits: config.limits,
                od_threads: if config.od_threads == 0 {
                    4
                } else {
                    config.od_threads
                },
                obs: config.obs,
                shutdown: AtomicBool::new(false),
                live_conns: AtomicUsize::new(0),
                local_addr,
            }),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Runs the accept loop until a shutdown frame arrives, then drains
    /// connections and flushes the WAL. Blocking; see
    /// [`spawn`](Self::spawn) for the threaded form.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures and WAL flush failures at shutdown.
    pub fn run(self) -> Result<(), NetError> {
        let Self { listener, shared } = self;
        let mut workers = Vec::new();
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    shared.obs.inc("net.accept.error");
                    let _ = e;
                    continue;
                }
            };
            if shared.live_conns.load(Ordering::SeqCst) >= shared.limits.max_connections {
                shared.obs.inc("net.conn.rejected");
                let mut s = stream;
                let _ = wire::write_frame(
                    &mut s,
                    &wire::encode_error_response("connection budget exhausted"),
                );
                continue;
            }
            shared.live_conns.fetch_add(1, Ordering::SeqCst);
            shared.obs.inc("net.conn.accepted");
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || {
                serve_connection(stream, &shared);
                shared.live_conns.fetch_sub(1, Ordering::SeqCst);
                shared.obs.inc("net.conn.closed");
            }));
        }
        drop(listener);
        for w in workers {
            let _ = w.join();
        }
        // The explicit shutdown flush: an orderly exit must never
        // abandon a buffered group-commit tail.
        if let Backend::Durable(d) = &mut *shared.backend.write().expect("backend poisoned") {
            d.flush_wal().map_err(NetError::from)?;
        }
        shared.obs.inc("net.shutdown");
        Ok(())
    }

    /// Runs the daemon on a background thread, returning its address
    /// and a join handle — the shape the tests and the loopback bench
    /// use.
    #[must_use]
    pub fn spawn(self) -> DaemonHandle {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        DaemonHandle { addr, thread }
    }
}

/// Reader-side loop: framing + budgets. Frames flow to the processor
/// through the bounded channel; the terminal error (if any) follows
/// them so the processor can report it before tearing down.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    let _ = stream.set_write_timeout(Some(shared.limits.read_timeout));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) =
        mpsc::sync_channel::<Result<Vec<u8>, NetError>>(shared.limits.max_frames_in_flight.max(1));
    let processor = {
        let shared = Arc::clone(shared);
        let out = BufWriter::with_capacity(IO_BUFFER_BYTES, write_half);
        std::thread::spawn(move || process_frames(&rx, out, &shared))
    };

    let mut reader = BufReader::with_capacity(IO_BUFFER_BYTES, stream);
    let mut bucket = shared.limits.max_bytes_per_sec.map(TokenBucket::new);
    loop {
        match read_frame_budgeted(&mut reader, shared) {
            Ok(Some(frame)) => {
                shared.obs.inc("net.frames.in");
                shared.obs.add("net.bytes.in", frame.len() as u64 + 4);
                if let Some(bucket) = bucket.as_mut() {
                    let slept = bucket.take(frame.len() as u64 + 4);
                    if slept > Duration::ZERO {
                        shared.obs.inc("net.throttle.sleeps");
                        shared
                            .obs
                            .add("net.throttle.slept_ms", slept.as_millis() as u64);
                    }
                }
                if tx.send(Ok(frame)).is_err() {
                    break; // processor gone (write failure): stop reading
                }
            }
            Ok(None) => break, // clean EOF or shutdown while idle
            Err(e) => {
                shared.obs.inc("net.frames.err");
                let _ = tx.send(Err(e));
                break;
            }
        }
    }
    drop(tx);
    let _ = processor.join();
}

/// Reads one frame under the connection's budgets.
///
/// Returns `Ok(None)` on a clean close (EOF between frames) or when
/// shutdown is flagged while the connection is idle. Idle time between
/// frames is unlimited; once the first prefix byte arrives, every
/// subsequent read must progress within `read_timeout` (the slow-loris
/// guard), including the payload. Bytes already buffered count as
/// progress, so only a stall on the socket itself can time out.
fn read_frame_budgeted(
    stream: &mut impl Read,
    shared: &Shared,
) -> Result<Option<Vec<u8>>, NetError> {
    let mut prefix = [0u8; 4];
    if !read_exact_budgeted(stream, &mut prefix, shared, true)? {
        return Ok(None);
    }
    let len = u64::from(u32::from_be_bytes(prefix));
    if len == 0 {
        return Err(NetError::Malformed("zero-length frame"));
    }
    if len > shared.limits.max_frame_bytes {
        return Err(NetError::FrameTooLarge {
            claimed: len,
            limit: shared.limits.max_frame_bytes,
        });
    }
    let mut payload = vec![0u8; len as usize];
    if !read_exact_budgeted(stream, &mut payload, shared, false)? {
        return Err(NetError::UnexpectedEof);
    }
    Ok(Some(payload))
}

/// `read_exact` over a socket whose read timeout is the short
/// [`IDLE_TICK`]: ticks while empty-and-idle are allowed (checking the
/// shutdown flag), ticks after the first byte count against the
/// connection's `read_timeout`.
///
/// Returns `Ok(false)` for a clean stop before the first byte (EOF or
/// shutdown) — only possible when `idle_ok`.
fn read_exact_budgeted(
    stream: &mut impl Read,
    buf: &mut [u8],
    shared: &Shared,
    idle_ok: bool,
) -> Result<bool, NetError> {
    let mut filled = 0usize;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && idle_ok {
                    return Ok(false);
                }
                return Err(NetError::UnexpectedEof);
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if filled == 0 && idle_ok {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(false);
                    }
                    last_progress = Instant::now();
                } else if last_progress.elapsed() >= shared.limits.read_timeout {
                    return Err(NetError::Timeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(true)
}

/// Processor-side loop: decode, dispatch, respond. A malformed
/// *payload* (bad inner tag, bad upload) gets an error response and the
/// connection lives on — the framing layer is still in sync. A framing
/// error is terminal: best-effort error frame, then teardown.
///
/// Responses collect in `out` while more frames are queued and are
/// flushed whenever the channel is empty, before blocking on it.
///
/// A failed write is never retried: each attempt against a peer that
/// has stopped reading blocks for the whole write timeout. The
/// processor instead discards what is still buffered and shuts the
/// socket down, which also wakes a reader that is idle on it, so the
/// connection ends at its first failed write.
fn process_frames(
    rx: &mpsc::Receiver<Result<Vec<u8>, NetError>>,
    mut out: BufWriter<TcpStream>,
    shared: &Arc<Shared>,
) {
    let written = loop {
        let item = match rx.try_recv() {
            Ok(item) => item,
            Err(mpsc::TryRecvError::Empty) => {
                if out.flush().is_err() {
                    break false;
                }
                match rx.recv() {
                    Ok(item) => item,
                    Err(mpsc::RecvError) => break true,
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break true,
        };
        match item {
            Ok(frame) => {
                let reply = handle_frame(&frame, shared);
                shared
                    .obs
                    .add("net.bytes.out", reply.payload_len() as u64 + 4);
                if reply.write(&mut out).is_err() {
                    break false;
                }
            }
            Err(e) => {
                let error = wire::encode_error_response(&e.to_string());
                break wire::write_frame(&mut out, &error).is_ok();
            }
        }
    };
    let written = written && out.flush().is_ok();
    // `into_parts` hands back the socket without the flush that
    // dropping a `BufWriter` would retry.
    let (stream, _unwritten) = out.into_parts();
    if !written {
        shared.obs.inc("net.write.err");
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// The response to one frame.
enum Reply {
    /// A response payload, written as one frame.
    Payload(Vec<u8>),
    /// An O–D answer, written after its header chunk by chunk, never
    /// copied into one buffer.
    Matrix(wire::MatrixFrame),
}

impl Reply {
    fn payload_len(&self) -> usize {
        match self {
            Reply::Payload(payload) => payload.len(),
            Reply::Matrix(matrix) => matrix.payload_len(),
        }
    }

    fn write(&self, out: &mut impl Write) -> Result<(), NetError> {
        match self {
            Reply::Payload(payload) => wire::write_frame(out, payload),
            Reply::Matrix(matrix) => matrix.write(out),
        }
    }
}

/// Dispatches one well-framed payload and builds its response.
fn handle_frame(payload: &[u8], shared: &Arc<Shared>) -> Reply {
    match dispatch(payload, shared) {
        Ok(reply) => reply,
        Err(e) => {
            shared.obs.inc("net.frames.err");
            Reply::Payload(wire::encode_error_response(&e.to_string()))
        }
    }
}

fn dispatch(payload: &[u8], shared: &Arc<Shared>) -> Result<Reply, NetError> {
    let tag = *payload
        .first()
        .ok_or(NetError::Malformed("empty payload"))?;
    let response = match tag {
        3..=6 => {
            let outcomes = {
                let mut backend = shared.backend.write().expect("backend poisoned");
                ingest(&mut backend, tag, payload)?
            };
            AckSummary::from_outcomes(&outcomes).encode()
        }
        REQ_PAIR_QUERY => {
            let mut cur = Cursor::new(&payload[1..]);
            let (a, b) = (cur.u64()?, cur.u64()?);
            cur.finish()?;
            let backend = shared.backend.read().expect("backend poisoned");
            let estimate = backend
                .server()
                .estimate_or_degraded(vcps_core::RsuId(a), vcps_core::RsuId(b))
                .map_err(NetError::from)?;
            wire::encode_estimate_response(&estimate)
        }
        REQ_OD_QUERY => {
            let mut cur = Cursor::new(&payload[1..]);
            let threads = cur.u64()?;
            cur.finish()?;
            let threads = if threads == 0 {
                shared.od_threads
            } else {
                usize::try_from(threads).unwrap_or(shared.od_threads)
            };
            let backend = shared.backend.read().expect("backend poisoned");
            let (axes, chunks) = backend
                .server()
                .od_chunks_threads(threads, wire::encode_matrix_entries)
                .map_err(NetError::from)?;
            return Ok(Reply::Matrix(wire::MatrixFrame::new(&axes, chunks)));
        }
        REQ_FINISH_PERIOD => {
            if payload.len() != 1 {
                return Err(NetError::Malformed("trailing bytes in payload"));
            }
            let mut backend = shared.backend.write().expect("backend poisoned");
            let sizes = match &mut *backend {
                Backend::Volatile(s) => s.finish_period().map_err(NetError::from)?,
                Backend::Durable(d) => d.finish_period().map_err(NetError::from)?,
            };
            let sizes: Vec<(u64, u64)> = sizes
                .into_iter()
                .map(|(rsu, m)| (rsu.0, m as u64))
                .collect();
            wire::encode_sizes_response(&sizes)
        }
        REQ_SHUTDOWN => {
            if payload.len() != 1 {
                return Err(NetError::Malformed("trailing bytes in payload"));
            }
            shared.shutdown.store(true, Ordering::SeqCst);
            // Poke the accept loop awake so it can notice the flag.
            let _ = TcpStream::connect(shared.local_addr);
            vec![RESP_OK]
        }
        REQ_PING => {
            if payload.len() != 1 {
                return Err(NetError::Malformed("trailing bytes in payload"));
            }
            vec![RESP_OK]
        }
        1 | 2 | 7 | 8 => {
            return Err(NetError::Malformed(
                "frame not addressed to the server (vehicle/storage tag)",
            ))
        }
        other => return Err(NetError::UnknownTag(other)),
    };
    Ok(Reply::Payload(response))
}

/// Routes an upload frame (tags 3–6) into the backend. Sequenced and
/// batch frames go in as wire bytes, through the zero-copy views.
fn ingest(
    backend: &mut Backend,
    tag: u8,
    payload: &[u8],
) -> Result<Vec<vcps_sim::ReceiveOutcome>, NetError> {
    let outcomes = match (backend, tag) {
        (Backend::Volatile(s), 3 | 4) => {
            // Bare uploads have no borrowed ingest entry point; they are
            // the legacy single-frame path and always materialize.
            vec![s.receive(PeriodUpload::decode(payload).map_err(sim_err)?)]
        }
        (Backend::Volatile(s), 5) => {
            let view = SequencedUploadRef::decode_ref(payload).map_err(sim_err)?;
            vec![s.receive_sequenced_ref(&view)]
        }
        (Backend::Volatile(s), _) => s.receive_batch_wire(payload).map_err(sim_err)?,
        (Backend::Durable(_), 3 | 4) => {
            return Err(NetError::Malformed(
                "durable mode requires sequenced uploads (tags 5 or 6)",
            ));
        }
        (Backend::Durable(d), 5) => vec![d.receive_sequenced_wire(payload).map_err(sim_err)?],
        (Backend::Durable(d), _) => d.receive_batch_wire(payload).map_err(sim_err)?,
    };
    Ok(outcomes)
}

fn sim_err(e: SimError) -> NetError {
    NetError::from(e)
}
