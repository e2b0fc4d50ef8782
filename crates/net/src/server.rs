//! The `vcpsd` daemon: accept loop, per-connection framing, dispatch.
//!
//! ## Threading model
//!
//! One listener thread runs the accept loop. Each accepted connection
//! is served by one thread that owns both halves of its socket: it
//! frames, budgets, decodes, applies and answers the connection's
//! requests in order. Frames are parsed in place out of the
//! connection's read buffer of [`IO_BUFFER_BYTES`]: a frame the buffer
//! holds whole is handled as a slice of it, a frame that straddles the
//! buffer's end is completed after the bytes it has move to the front,
//! and a frame larger than the buffer grows it to exactly that frame
//! until the frame is consumed. A frame that fits costs no allocation.
//! The kernel's socket receive buffer is the queue: while the thread
//! works, the peer's next frames wait there, and once it is full
//! ordinary TCP flow control pushes back on the peer.
//!
//! Responses collect in a write buffer of the same capacity, so a
//! pipelined burst costs a few large socket calls instead of two reads
//! and two writes per frame. They are flushed whenever the connection
//! is *idle* — no whole frame is buffered and one non-blocking read of
//! the socket finds nothing — before the thread blocks waiting for the
//! next frame: every response is on the wire before the connection
//! waits, so buffering never holds an answer back from a peer that is
//! waiting for it. An optional token bucket throttles a connection by
//! sleeping its one thread, so while it sleeps the connection neither
//! reads nor answers.
//!
//! ## An ack means durable
//!
//! On a durable backend the connection holds each upload's ack until
//! the WAL's syncer has fsynced the record that upload logged, and keeps
//! decoding and applying the frames that follow meanwhile: groups are
//! fsynced while the next ones are built. Responses leave in request
//! order from one FIFO of held responses. Between frames the connection
//! writes the held responses that are already durable. When it is idle
//! it first waits, once, for a WAL sync already in flight and looks at
//! the socket again (so a burst joins the running group instead of
//! forcing a small one); then it writes the WAL's staged tail, waits for
//! its fsync, writes and flushes every held response, and blocks on the
//! socket. A request that is not an upload waits for the held acks
//! before it is computed, so only acks (41-byte payloads) are ever held,
//! and at most [`HELD_ACKS`] of them — one write buffer of ack frames:
//! at that bound the connection waits for the oldest. The data a
//! connection holds is therefore one read buffer (or one frame of up to
//! `max_frame_bytes` while it is read), one write buffer and
//! [`HELD_ACKS`] acks. The backend lock is never held while waiting for
//! an fsync. If a WAL write or fsync fails, every held request is
//! answered with the durability error and later uploads are refused:
//! nothing is acked past a failed sync. A volatile backend holds
//! nothing.
//!
//! ## State
//!
//! All connections share one [`Backend`] (volatile
//! [`ShardedServer`] or WAL-backed
//! [`DurableServer`]) behind an `RwLock`: ingest and period rollover
//! take the write lock, pair/O–D queries the read lock. Cross-RSU
//! frame interleavings commute (dedup state is per-RSU), so any
//! serialization order the lock picks yields the same final state —
//! the property the differential tests check bit-for-bit. Reads are not
//! held: a query from any connection sees every applied upload,
//! including those whose acks still wait for their fsync.
//!
//! ## Shutdown
//!
//! A shutdown frame flips the shared flag and pokes the listener with a
//! loopback connect so `accept` wakes. The run loop then stops
//! accepting, waits for live connections to drain (each notices the
//! flag at its next idle tick, after sending its held acks), and
//! explicitly flushes the WAL, so no frame logged before the exit is
//! left staged (`wal.dropped_buffered_records` counts exactly the drops
//! this flush prevents). While it runs, the accept loop joins the
//! threads of connections that have ended, so their stacks are released.

use std::collections::VecDeque;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use vcps_core::Scheme;
use vcps_obs::Obs;
use vcps_sim::{
    DurableOptions, DurableServer, PeriodUpload, SequencedUploadRef, ShardedServer, SimError,
    Watermark,
};

use crate::limits::TokenBucket;
use crate::wire::{
    self, AckSummary, Cursor, IO_BUFFER_BYTES, REQ_FINISH_PERIOD, REQ_OD_QUERY, REQ_PAIR_QUERY,
    REQ_PING, REQ_SHUTDOWN, RESP_OK,
};
use crate::{ConnectionLimits, NetError};

/// How often blocked reads wake to check the shutdown flag.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// The most acks a connection holds while they wait for their fsync:
/// one write buffer of ack frames (a 4-byte prefix and a 41-byte
/// payload each), 1,456. At the bound the connection waits for the
/// oldest. It is many groups deep, so the groups written while one
/// fsync runs share the next instead of each waiting for its own
/// (DESIGN.md §19).
const HELD_ACKS: usize = IO_BUFFER_BYTES / (4 + 41);

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

    /// Frames logged to the WAL so far (none when volatile).
    fn logged(&self) -> u64 {
        match self {
            Backend::Volatile(_) => 0,
            Backend::Durable(d) => d.records_logged(),
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
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
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
            let slot = Slot::take(&shared);
            // Join the threads of connections that have ended, so their
            // stacks are released now rather than at shutdown.
            for ended in workers.extract_if(.., |worker| worker.is_finished()) {
                let _ = ended.join();
            }
            workers.push(std::thread::spawn(move || {
                serve_connection(stream, &slot.0);
                drop(slot); // also dropped, and the slot freed, if the thread panics
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

/// A connection's place in the `max_connections` budget. Dropping it
/// frees the place and counts the close, so a connection thread that
/// panics frees its place as it unwinds.
struct Slot(Arc<Shared>);

impl Slot {
    fn take(shared: &Arc<Shared>) -> Self {
        shared.live_conns.fetch_add(1, Ordering::SeqCst);
        shared.obs.inc("net.conn.accepted");
        Self(Arc::clone(shared))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.live_conns.fetch_sub(1, Ordering::SeqCst);
        self.0.obs.inc("net.conn.closed");
    }
}

/// Serves one connection on the calling thread until its peer closes
/// it, a framing error or a failed write ends it, or shutdown is flagged
/// while it is idle.
///
/// A failed write is never retried: each attempt against a peer that
/// has stopped reading blocks for the whole write timeout. The
/// connection instead discards what is still buffered and closes, so it
/// ends at its first failed write.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    let _ = stream.set_write_timeout(Some(shared.limits.read_timeout));
    let mut input = FrameReader::new(&stream, shared.limits.max_frame_bytes);
    let mut out = BufWriter::with_capacity(IO_BUFFER_BYTES, &stream);
    let written = serve_frames(&mut input, &mut out, shared).is_ok() && out.flush().is_ok();
    // `into_parts` hands back the socket without the flush that
    // dropping a `BufWriter` would retry.
    let _unwritten = out.into_parts();
    if !written {
        shared.obs.inc("net.write.err");
    }
}

/// Answers the connection's frames in request order until the stream
/// ends, holding each upload's ack until the WAL has made the upload
/// durable ([`Held`]). Responses collect in `out` while frames keep
/// arriving. When the connection is idle ([`FrameReader::ready`]) it
/// first joins a WAL sync already in flight and looks again, so a
/// burst's acks ride the running group instead of forcing a small one;
/// then it makes every held response durable, writes it and flushes,
/// before it blocks on the socket. A malformed *payload* (bad inner
/// tag, bad upload) gets an error response and the connection lives on
/// — the framing is still in sync. A framing error is terminal: the
/// held responses, then a best-effort error frame. Returns the first
/// failed socket write.
fn serve_frames(
    input: &mut FrameReader<'_>,
    out: &mut impl Write,
    shared: &Shared,
) -> Result<(), NetError> {
    let mut held = Held::new(shared);
    let mut bucket = shared.limits.max_bytes_per_sec.map(TokenBucket::new);
    let mut joined = false;
    loop {
        held.release(out, shared)?;
        if !input.ready() {
            if !joined && held.join_in_flight() {
                joined = true;
                continue;
            }
            held.drain(out, shared)?;
            out.flush()?;
        }
        joined = false;
        let frame = match input.next_frame(shared) {
            Ok(Some(frame)) => frame,
            Ok(None) => return held.drain(out, shared), // clean EOF or shutdown while idle
            Err(e) => {
                shared.obs.inc("net.frames.err");
                held.drain(out, shared)?;
                return wire::write_frame(out, &wire::encode_error_response(&e.to_string()));
            }
        };
        let frame_bytes = frame.len() as u64 + 4;
        shared.obs.inc("net.frames.in");
        shared.obs.add("net.bytes.in", frame_bytes);
        if let Some(bucket) = bucket.as_mut() {
            let slept = bucket.take(frame_bytes);
            if slept > Duration::ZERO {
                shared.obs.inc("net.throttle.sleeps");
                shared
                    .obs
                    .add("net.throttle.slept_ms", slept.as_millis() as u64);
            }
        }
        if matches!(frame.first(), Some(3..=6)) {
            let (reply, upto) = handle_upload(frame, shared);
            held.push(upto, reply, out, shared)?;
        } else {
            held.drain(out, shared)?;
            send(&handle_frame(frame, shared), out, shared)?;
        }
    }
}

/// A connection's read side: frames are parsed in place out of one
/// buffer of [`IO_BUFFER_BYTES`], which a larger frame grows to exactly
/// its own size until it is consumed.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    max_frame_bytes: u64,
    buf: Vec<u8>,
    /// The buffered bytes not yet consumed are `buf[start..end]`.
    start: usize,
    end: usize,
    /// The length of the frame last handed out, consumed by the next
    /// call.
    lent: usize,
    /// An error a non-blocking read met, for the next read to report.
    failed: Option<io::Error>,
}

impl<'a> FrameReader<'a> {
    fn new(stream: &'a TcpStream, max_frame_bytes: u64) -> Self {
        Self {
            stream,
            max_frame_bytes,
            buf: vec![0; IO_BUFFER_BYTES],
            start: 0,
            end: 0,
            lent: 0,
            failed: None,
        }
    }

    /// Whether the next frame, or the error that ends the stream, can be
    /// had without waiting: a whole frame or an invalid length prefix is
    /// buffered, or one non-blocking read of the socket returns anything
    /// but `WouldBlock`. What that read returns is buffered: bytes, an
    /// error for the next read to report, or the end of the stream,
    /// which the next read sees again.
    fn ready(&mut self) -> bool {
        self.start += std::mem::take(&mut self.lent);
        match self.frame_size() {
            Some(Ok(size)) if self.end - self.start < size => {}
            Some(_) => return true,
            None => {}
        }
        self.make_room();
        let mut stream = self.stream;
        let read = stream
            .set_nonblocking(true)
            .and_then(|()| stream.read(&mut self.buf[self.end..]));
        // The response writes share the socket's file description, so
        // blocking mode is restored before anything else touches it.
        match stream.set_nonblocking(false).and(read) {
            Ok(n) => {
                self.end += n;
                true
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(e) => {
                self.failed = Some(e);
                true
            }
        }
    }

    /// Reads the next frame under the connection's budgets and returns
    /// its payload, a slice of the buffer that the next call consumes.
    ///
    /// Returns `Ok(None)` on a clean close (EOF between frames) or when
    /// shutdown is flagged while the connection is idle.
    fn next_frame(&mut self, shared: &Shared) -> Result<Option<&[u8]>, NetError> {
        self.start += std::mem::take(&mut self.lent);
        if !self.fill(4, shared)? {
            return Ok(None);
        }
        let size = self.frame_size().expect("the prefix is buffered")?;
        if !self.fill(size, shared)? {
            return Err(NetError::UnexpectedEof);
        }
        self.lent = size;
        Ok(Some(&self.buf[self.start + 4..self.start + size]))
    }

    /// The size of the frame the buffered bytes begin, prefix included,
    /// once its length prefix is buffered. The prefix is checked here,
    /// before the buffer can grow for it: a zero length is malformed,
    /// and one over `max_frame_bytes` is refused.
    fn frame_size(&self) -> Option<Result<usize, NetError>> {
        let prefix = self.buf[self.start..self.end].first_chunk::<4>()?;
        let len = u64::from(u32::from_be_bytes(*prefix));
        let too_large = NetError::FrameTooLarge {
            claimed: len,
            limit: self.max_frame_bytes,
        };
        Some(match len {
            0 => Err(NetError::Malformed("zero-length frame")),
            _ if len > self.max_frame_bytes => Err(too_large),
            _ => usize::try_from(4 + len).map_err(|_| too_large),
        })
    }

    /// Makes room after the buffered bytes for the rest of the frame
    /// they begin. An empty buffer starts over, at its own size again
    /// after a larger frame; bytes that would not fit move to the front,
    /// and the buffer grows to exactly a frame larger than itself.
    fn make_room(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > IO_BUFFER_BYTES {
                self.buf.truncate(IO_BUFFER_BYTES);
                self.buf.shrink_to_fit();
            }
            return;
        }
        let size = match self.frame_size() {
            Some(Ok(size)) => size,
            _ => 4,
        };
        if self.start + size > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if size > self.buf.len() {
                self.buf.resize(size, 0);
            }
        }
    }

    /// Reads until `want` bytes are buffered, `want` reaching no further
    /// than the end of the frame the buffered bytes begin.
    ///
    /// Idle time before a frame's first byte is unlimited: each
    /// [`IDLE_TICK`] just checks the shutdown flag. Once a byte of the
    /// frame is buffered, every read must progress within
    /// `read_timeout` (the slow-loris guard). Buffered bytes count as
    /// progress, so only a stall on the socket itself can time out.
    ///
    /// Returns `Ok(false)` for a clean stop before a frame's first byte:
    /// EOF, or shutdown flagged.
    fn fill(&mut self, want: usize, shared: &Shared) -> Result<bool, NetError> {
        let mut stream = self.stream;
        let mut last_progress = Instant::now();
        while self.end - self.start < want {
            if let Some(e) = self.failed.take() {
                return Err(NetError::Io(e));
            }
            self.make_room();
            let idle = self.start == self.end;
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) if idle => return Ok(false),
                Ok(0) => return Err(NetError::UnexpectedEof),
                Ok(n) => {
                    self.end += n;
                    last_progress = Instant::now();
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if idle {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return Ok(false);
                        }
                    } else if last_progress.elapsed() >= shared.limits.read_timeout {
                        return Err(NetError::Timeout);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(true)
    }
}

/// The responses a connection has computed but not yet sent, in request
/// order (DESIGN.md §19). An upload's ack waits here until the WAL's
/// durable watermark covers the record that upload logged, and every
/// response behind it waits with it. A request that is not an upload
/// waits for the held acks before it is computed, so only acks are
/// ever held, at most [`HELD_ACKS`]; a volatile backend holds nothing.
struct Held {
    /// The durable backend's watermark (`None`: volatile).
    mark: Option<Watermark>,
    /// Each response with the count of log records that must be durable
    /// before it may go.
    queue: VecDeque<(u64, Reply)>,
}

impl Held {
    fn new(shared: &Shared) -> Self {
        let mark = match &*shared.backend.read().expect("backend poisoned") {
            Backend::Volatile(_) => None,
            Backend::Durable(d) => Some(d.watermark()),
        };
        Self {
            mark,
            queue: VecDeque::new(),
        }
    }

    /// Queues `reply`, which may go once `upto` log records are durable,
    /// and writes whatever may already go. At [`HELD_ACKS`] it waits for
    /// the oldest response first.
    fn push(
        &mut self,
        upto: u64,
        reply: Reply,
        out: &mut impl Write,
        shared: &Shared,
    ) -> Result<(), NetError> {
        self.queue.push_back((upto, reply));
        self.release(out, shared)?;
        match self.queue.front() {
            Some(&(oldest, _)) if self.queue.len() >= HELD_ACKS => self.settle(oldest, out, shared),
            _ => Ok(()),
        }
    }

    /// Writes, in order, the held responses the watermark covers.
    fn release(&mut self, out: &mut impl Write, shared: &Shared) -> Result<(), NetError> {
        let durable = self.mark.as_ref().map_or(u64::MAX, Watermark::durable);
        while let Some((_, reply)) = self.queue.pop_front_if(|(upto, _)| *upto <= durable) {
            send(&reply, out, shared)?;
        }
        Ok(())
    }

    /// If a WAL sync is in flight while responses are held, waits for it
    /// to end and returns `true`.
    fn join_in_flight(&self) -> bool {
        let Some(mark) = self.mark.as_ref().filter(|_| !self.queue.is_empty()) else {
            return false;
        };
        let in_flight = mark.requested();
        if in_flight <= mark.durable() {
            return false;
        }
        // A failure is answered by the `drain` that follows.
        let _ = mark.wait(in_flight);
        true
    }

    /// Sends every held response.
    fn drain(&mut self, out: &mut impl Write, shared: &Shared) -> Result<(), NetError> {
        match self.queue.back() {
            Some(&(upto, _)) => self.settle(upto, out, shared),
            None => Ok(()),
        }
    }

    /// Waits until `upto` log records are durable — writing the WAL's
    /// staged tail and requesting its sync first, if they are not all
    /// written — and writes every response that may then go. The backend
    /// lock is taken only to write the tail, never to wait. If the log
    /// has failed, every held response it does not cover is answered
    /// with the failure instead: nothing is acked past a failed sync.
    fn settle(&mut self, upto: u64, out: &mut impl Write, shared: &Shared) -> Result<(), NetError> {
        let Some(mark) = self.mark.clone() else {
            return Ok(());
        };
        let mut durable = Ok(());
        if mark.requested() < upto {
            if let Backend::Durable(d) = &mut *shared.backend.write().expect("backend poisoned") {
                durable = d.request_flush();
            }
        }
        let durable = durable.and_then(|()| Ok(mark.wait(upto)?));
        self.release(out, shared)?;
        if let Err(e) = durable {
            let error = error_reply(&NetError::from(e), shared);
            for _ in self.queue.drain(..) {
                send(&error, out, shared)?;
            }
        }
        Ok(())
    }
}

/// Writes one response, counting its bytes.
fn send(reply: &Reply, out: &mut impl Write, shared: &Shared) -> Result<(), NetError> {
    shared
        .obs
        .add("net.bytes.out", reply.payload_len() as u64 + 4);
    reply.write(out)
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

/// Ingests one upload frame (tags 3–6) and builds its ack, with the
/// count of log records that must be durable before the ack may go:
/// those up to and including the frame's own record (none on a volatile
/// backend, or for an error).
fn handle_upload(payload: &[u8], shared: &Shared) -> (Reply, u64) {
    let ingested = {
        let mut backend = shared.backend.write().expect("backend poisoned");
        ingest(&mut backend, payload[0], payload).map(|outcomes| (outcomes, backend.logged()))
    };
    match ingested {
        Ok((outcomes, upto)) => (
            Reply::Payload(AckSummary::from_outcomes(&outcomes).encode()),
            upto,
        ),
        Err(e) => (error_reply(&e, shared), 0),
    }
}

/// Dispatches one well-framed payload that is not an upload and builds
/// its response.
fn handle_frame(payload: &[u8], shared: &Shared) -> Reply {
    dispatch(payload, shared).unwrap_or_else(|e| error_reply(&e, shared))
}

/// The error response for `e`, counted in `net.frames.err`.
fn error_reply(e: &NetError, shared: &Shared) -> Reply {
    shared.obs.inc("net.frames.err");
    Reply::Payload(wire::encode_error_response(&e.to_string()))
}

fn dispatch(payload: &[u8], shared: &Shared) -> Result<Reply, NetError> {
    let tag = *payload
        .first()
        .ok_or(NetError::Malformed("empty payload"))?;
    let response = match tag {
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
        #[cfg(test)]
        tests::REQ_PANIC => panic!("a test request panics its connection"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetClient;

    /// A request tag that panics the connection serving it, outside any
    /// lock; it exists only in this crate's unit tests.
    pub(super) const REQ_PANIC: u8 = 250;

    #[test]
    fn held_bound_is_one_write_buffer_of_acks() {
        let ack_frame = 4 + AckSummary::default().encode().len();
        assert_eq!(HELD_ACKS, 1_456);
        assert!(HELD_ACKS * ack_frame <= IO_BUFFER_BYTES);
        assert!((HELD_ACKS + 1) * ack_frame > IO_BUFFER_BYTES);
    }

    /// One thread owns both halves of a connection's socket, so a panic
    /// in it closes the socket as it unwinds, and the slot guard frees
    /// the connection's place in the budget.
    #[test]
    fn a_panicking_connection_closes_its_socket_and_frees_its_slot() {
        let obs = Obs::enabled();
        let mut config = DaemonConfig::new(Scheme::variable(2, 3.0, 41).unwrap());
        config.limits.max_connections = 1;
        config.obs = obs.clone();
        let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
        let addr = daemon.local_addr();
        let handle = daemon.spawn();

        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let started = Instant::now();
        wire::write_frame(&mut raw, &[REQ_PANIC]).unwrap();
        match raw.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!(
                "expected EOF or a reset, got {other:?} after {:?}",
                started.elapsed()
            ),
        }
        let closed = |obs: &Obs| obs.snapshot().counters.get("net.conn.closed").copied();
        // The slot is freed as the thread finishes unwinding, just after
        // the socket closes.
        while closed(&obs).is_none() {
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "the panicking connection never freed its slot"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(closed(&obs), Some(1));
        let mut client = NetClient::connect(addr).unwrap();
        client
            .ping()
            .expect("the freed slot must serve a new connection");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}
