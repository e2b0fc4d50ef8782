//! Length-delimited framing and the daemon's request/response codec.
//!
//! The outer frame is a 4-byte big-endian length prefix followed by
//! exactly that many payload bytes. The prefix is validated against the
//! connection's [`max_frame_bytes`](crate::ConnectionLimits) cap
//! *before* the payload buffer is allocated, so a hostile prefix can
//! name four gigabytes without costing the daemon more than four bytes
//! of reads.
//!
//! Payloads are self-describing via their first byte. Tags 1–8 are the
//! simulator's existing wire protocol (uploads, batches, checkpoints)
//! and pass through byte-for-byte — the daemon feeds them to
//! [`ShardedServer::receive_batch_wire`](vcps_sim::ShardedServer::receive_batch_wire)
//! and friends without re-encoding. Tags 16–20 are daemon requests and
//! 32–37 daemon responses, defined here. All integers are big-endian;
//! floating-point fields travel as IEEE-754 bit patterns
//! (`f64::to_bits`), so an estimate survives the wire bit-identically —
//! the property the differential tests pin.

use std::io::{self, IoSlice, Read, Write};

use vcps_core::estimator::first_plays_x;
use vcps_core::{DegradedEstimate, Estimate, PairEstimate, RsuId};
use vcps_sim::{OdAxis, ReceiveOutcome};

use crate::NetError;

/// Request: pair volume query — `[16][rsu_a u64][rsu_b u64]`.
pub const REQ_PAIR_QUERY: u8 = 16;
/// Request: full O–D matrix — `[17][threads u64]` (0 = server default).
pub const REQ_OD_QUERY: u8 = 17;
/// Request: end the measurement period — `[18]`.
pub const REQ_FINISH_PERIOD: u8 = 18;
/// Request: orderly daemon shutdown (drain, flush WAL, exit) — `[19]`.
pub const REQ_SHUTDOWN: u8 = 19;
/// Request: liveness probe — `[20]`.
pub const REQ_PING: u8 = 20;

/// Response: ingest acknowledgement with per-outcome counts.
pub const RESP_ACK: u8 = 32;
/// Response: one pair estimate.
pub const RESP_ESTIMATE: u8 = 33;
/// Response: the O–D matrix.
pub const RESP_MATRIX: u8 = 34;
/// Response: next-period array sizes.
pub const RESP_SIZES: u8 = 35;
/// Response: request failed; carries a human-readable reason.
pub const RESP_ERROR: u8 = 36;
/// Response: request succeeded with nothing to report.
pub const RESP_OK: u8 = 37;

/// Capacity of every buffered socket half: the daemon's read and
/// response buffers per connection, and the send and ack buffers of
/// [`NetClient::ingest_pipelined`](crate::NetClient::ingest_pipelined).
/// A frame at least this large bypasses the buffer.
pub(crate) const IO_BUFFER_BYTES: usize = 64 * 1024;

/// Writes one length-delimited frame: the prefix and the payload
/// together, in one vectored write where `w` takes it all.
///
/// # Errors
///
/// Propagates transport failures; [`NetError::FrameTooLarge`] if the
/// payload itself exceeds the u32 prefix space.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    let prefix = frame_prefix(payload.len())?;
    write_all_vectored(w, &mut [IoSlice::new(&prefix), IoSlice::new(payload)])
}

/// Writes every byte of `slices`, in as few vectored writes as `w`
/// accepts.
fn write_all_vectored(w: &mut impl Write, mut slices: &mut [IoSlice<'_>]) -> Result<(), NetError> {
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => return Err(NetError::Io(io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// The length prefix of a `len`-byte payload.
fn frame_prefix(len: usize) -> Result<[u8; 4], NetError> {
    let len = u32::try_from(len).map_err(|_| NetError::FrameTooLarge {
        claimed: len as u64,
        limit: u64::from(u32::MAX),
    })?;
    Ok(len.to_be_bytes())
}

/// Reads one length-delimited frame, capping the prefix at
/// `max_frame_bytes` **before** allocating the payload buffer.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] for an over-cap prefix,
/// [`NetError::Malformed`] for a zero-length frame,
/// [`NetError::UnexpectedEof`] if the peer disconnects mid-frame, and
/// [`NetError::Timeout`]/[`NetError::Io`] for transport failures.
pub fn read_frame(r: &mut impl Read, max_frame_bytes: u64) -> Result<Vec<u8>, NetError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u64::from(u32::from_be_bytes(prefix));
    if len == 0 {
        return Err(NetError::Malformed("zero-length frame"));
    }
    if len > max_frame_bytes {
        return Err(NetError::FrameTooLarge {
            claimed: len,
            limit: max_frame_bytes,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// A bounds-checked big-endian reader over a response payload.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, NetError> {
        let (&b, rest) = self
            .buf
            .split_first()
            .ok_or(NetError::Malformed("truncated payload"))?;
        self.buf = rest;
        Ok(b)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, NetError> {
        if self.buf.len() < 8 {
            return Err(NetError::Malformed("truncated payload"));
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_be_bytes(head.try_into().expect("eight bytes")))
    }

    /// The next `N` bytes as a fixed-size array: one bounds check for a
    /// whole fixed-width record.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], NetError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(NetError::Malformed("truncated payload"))?;
        self.buf = rest;
        Ok(head)
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.buf.len() < n {
            return Err(NetError::Malformed("truncated payload"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub(crate) fn finish(self) -> Result<(), NetError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(NetError::Malformed("trailing bytes in payload"))
        }
    }
}

/// Aggregated ingest outcomes for one upload frame (response tag 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AckSummary {
    /// Inner frames carried by the acknowledged wire frame.
    pub frames: u64,
    /// Count of [`ReceiveOutcome::Fresh`].
    pub fresh: u64,
    /// Count of [`ReceiveOutcome::Duplicate`].
    pub duplicate: u64,
    /// Count of [`ReceiveOutcome::Conflicting`].
    pub conflicting: u64,
    /// Count of [`ReceiveOutcome::Stale`].
    pub stale: u64,
}

impl AckSummary {
    /// Tallies a batch's outcomes.
    #[must_use]
    pub fn from_outcomes(outcomes: &[ReceiveOutcome]) -> Self {
        let mut ack = Self {
            frames: outcomes.len() as u64,
            ..Self::default()
        };
        for o in outcomes {
            match o {
                ReceiveOutcome::Fresh => ack.fresh += 1,
                ReceiveOutcome::Duplicate => ack.duplicate += 1,
                ReceiveOutcome::Conflicting => ack.conflicting += 1,
                ReceiveOutcome::Stale => ack.stale += 1,
            }
        }
        ack
    }

    /// Encodes as a response payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 8 * 5);
        buf.push(RESP_ACK);
        for v in [
            self.frames,
            self.fresh,
            self.duplicate,
            self.conflicting,
            self.stale,
        ] {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        buf
    }

    fn decode_body(cur: &mut Cursor<'_>) -> Result<Self, NetError> {
        Ok(Self {
            frames: cur.u64()?,
            fresh: cur.u64()?,
            duplicate: cur.u64()?,
            conflicting: cur.u64()?,
            stale: cur.u64()?,
        })
    }

    /// Merges another summary into this one (for pipelined replays).
    pub fn merge(&mut self, other: &AckSummary) {
        self.frames += other.frames;
        self.fresh += other.fresh;
        self.duplicate += other.duplicate;
        self.conflicting += other.conflicting;
        self.stale += other.stale;
    }
}

/// The canonical bit pattern of a pair answer: every `f64` field as
/// raw IEEE-754 bits, prefixed with the arm. Two answers are equal
/// under the repo's bit-identity contract iff these vectors are equal —
/// stricter than `PartialEq` (which would also say sign-of-zero and
/// NaN-payload drifts are fine). The differential tests and the load
/// generator compare through this.
#[must_use]
pub fn estimate_bits(e: &PairEstimate) -> Vec<u64> {
    match e {
        PairEstimate::Measured(m) => vec![
            0,
            m.n_c.to_bits(),
            m.v_x.to_bits(),
            m.v_y.to_bits(),
            m.v_c.to_bits(),
            m.m_x as u64,
            m.m_y as u64,
            m.n_x,
            m.n_y,
            u64::from(m.clamped),
        ],
        PairEstimate::Degraded(d) => vec![
            1,
            d.n_c.to_bits(),
            d.lower.to_bits(),
            d.upper.to_bits(),
            d.volume_x.to_bits(),
            d.volume_y.to_bits(),
            u64::from(d.missing_x),
            u64::from(d.missing_y),
        ],
    }
}

const KIND_MEASURED: u8 = 0;
const KIND_DEGRADED: u8 = 1;
const KIND_ABSENT: u8 = 2;
/// A measured tag-34 entry whose estimate is clamped.
const KIND_MEASURED_CLAMPED: u8 = 3;

/// Bytes after the kind byte of a measured entry: four `f64`s, four
/// `u64`s and the clamped flag.
const MEASURED_BODY: usize = 4 * 8 + 4 * 8 + 1;
/// Bytes after the kind byte of a degraded entry: five `f64`s and the
/// two missing flags.
const DEGRADED_BODY: usize = 5 * 8 + 2;
/// Bytes after the kind byte of a measured tag-34 entry: `n̂_c` and
/// `V_c` as `f64` bits.
const FACTORED_BODY: usize = 2 * 8;
/// Bytes of one tag-34 axis entry: id, `m`, counter and `V` bits.
const AXIS_BYTES: usize = 4 * 8;

fn put_pair_estimate(buf: &mut Vec<u8>, e: &PairEstimate) {
    match e {
        PairEstimate::Measured(m) => {
            buf.push(KIND_MEASURED);
            for v in [m.n_c, m.v_x, m.v_y, m.v_c] {
                buf.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            for v in [m.m_x as u64, m.m_y as u64, m.n_x, m.n_y] {
                buf.extend_from_slice(&v.to_be_bytes());
            }
            buf.push(u8::from(m.clamped));
        }
        PairEstimate::Degraded(d) => put_degraded(buf, d),
    }
}

fn put_degraded(buf: &mut Vec<u8>, d: &DegradedEstimate) {
    buf.push(KIND_DEGRADED);
    for v in [d.n_c, d.lower, d.upper, d.volume_x, d.volume_y] {
        buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    buf.push(u8::from(d.missing_x));
    buf.push(u8::from(d.missing_y));
}

/// Big-endian `u64` number `k` of a fixed-width record.
fn word(body: &[u8], k: usize) -> u64 {
    u64::from_be_bytes(body[8 * k..8 * k + 8].try_into().expect("eight bytes"))
}

/// A degraded entry's answer from its body.
fn degraded_from(body: &[u8; DEGRADED_BODY]) -> PairEstimate {
    let f = |k| f64::from_bits(word(body, k));
    PairEstimate::Degraded(DegradedEstimate {
        n_c: f(0),
        lower: f(1),
        upper: f(2),
        volume_x: f(3),
        volume_y: f(4),
        missing_x: body[40] != 0,
        missing_y: body[41] != 0,
    })
}

fn get_pair_estimate(cur: &mut Cursor<'_>) -> Result<PairEstimate, NetError> {
    match cur.u8()? {
        KIND_MEASURED => {
            let body = cur.array::<MEASURED_BODY>()?;
            let f = |k| f64::from_bits(word(body, k));
            let size = |k| {
                usize::try_from(word(body, k))
                    .map_err(|_| NetError::Malformed("array size overflows usize"))
            };
            Ok(PairEstimate::Measured(Estimate {
                n_c: f(0),
                v_x: f(1),
                v_y: f(2),
                v_c: f(3),
                m_x: size(4)?,
                m_y: size(5)?,
                n_x: word(body, 6),
                n_y: word(body, 7),
                clamped: body[64] != 0,
            }))
        }
        KIND_DEGRADED => Ok(degraded_from(cur.array::<DEGRADED_BODY>()?)),
        KIND_ABSENT => Err(NetError::Malformed("estimate response without estimate")),
        _ => Err(NetError::Malformed("unknown estimate kind")),
    }
}

/// Encodes a pair-estimate response (tag 33).
#[must_use]
pub fn encode_estimate_response(e: &PairEstimate) -> Vec<u8> {
    let mut buf = vec![RESP_ESTIMATE];
    put_pair_estimate(&mut buf, e);
    buf
}

/// An O–D matrix as decoded off the wire: RSU ids plus the strict upper
/// triangle of pair answers (the lower triangle is the transpose, as in
/// [`OdMatrix`](vcps_sim::OdMatrix)).
#[derive(Debug, Clone, PartialEq)]
pub struct WireMatrix {
    /// The RSU ids, ascending — row/column order of the triangle.
    pub rsus: Vec<u64>,
    /// Upper-triangle entries in `(i, j), i < j` row-major order.
    pub entries: Vec<Option<PairEstimate>>,
}

impl WireMatrix {
    /// The pair answer for `(i, j)`, `i != j`, honoring transposition.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `i == j` (the diagonal is
    /// not a pair).
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Option<PairEstimate> {
        let n = self.rsus.len();
        assert!(i < n && j < n && i != j, "invalid pair ({i}, {j}) of {n}");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let idx = a * n - a * (a + 1) / 2 + (b - a - 1);
        let entry = self.entries[idx]?;
        Some(if i < j { entry } else { entry.transposed() })
    }
}

/// Encodes an O–D matrix response (tag 34) from the server's matrix.
///
/// The layout is factored: `[34][n u64]`, then each RSU's axis entry
/// `[id u64][m u64][count u64][V bits u64]` (`m = 0` without a decodable
/// upload), then one entry per pair `(i, j)`, `i < j`, in row-major
/// order — a kind byte, and for a measured pair only `n̂_c`'s and `V_c`'s
/// bits (kind 0, or 3 when clamped), for a degraded pair the whole
/// answer (kind 1), for an absent one nothing (kind 2). Everything else
/// of a measured estimate is its two axis entries, oriented by
/// [`first_plays_x`], which [`Response::decode`] does.
#[must_use]
pub fn encode_matrix_response(matrix: &vcps_sim::OdMatrix) -> Vec<u8> {
    let n = matrix.len();
    let entries = (0..n).flat_map(|i| (i + 1..n).map(move |j| matrix.at(i, j)));
    let body: usize = entries.clone().map(matrix_entry_len).sum();
    let mut buf = Vec::with_capacity(matrix_header_len(matrix.axes()) + body);
    put_matrix_header(&mut buf, matrix.axes());
    for e in entries {
        put_matrix_entry(&mut buf, e);
    }
    buf
}

/// Encoded size of one tag-34 pair entry, kind byte included.
fn matrix_entry_len(e: Option<&PairEstimate>) -> usize {
    1 + match e {
        Some(PairEstimate::Measured(_)) => FACTORED_BODY,
        Some(PairEstimate::Degraded(_)) => DEGRADED_BODY,
        None => 0,
    }
}

fn put_matrix_entry(buf: &mut Vec<u8>, e: Option<&PairEstimate>) {
    match e {
        Some(PairEstimate::Measured(m)) => {
            // One bounds check per entry: the whole entry is built first.
            let mut entry = [0u8; 1 + FACTORED_BODY];
            entry[0] = if m.clamped {
                KIND_MEASURED_CLAMPED
            } else {
                KIND_MEASURED
            };
            entry[1..9].copy_from_slice(&m.n_c.to_bits().to_be_bytes());
            entry[9..].copy_from_slice(&m.v_c.to_bits().to_be_bytes());
            buf.extend_from_slice(&entry);
        }
        Some(PairEstimate::Degraded(d)) => put_degraded(buf, d),
        None => buf.push(KIND_ABSENT),
    }
}

/// Encodes one streamed chunk of O–D pair answers as tag-34 entries,
/// into a buffer of exactly their size. This is the sink the daemon
/// passes to
/// [`ShardedServer::od_chunks_threads`](vcps_sim::ShardedServer::od_chunks_threads),
/// so each chunk is encoded on the worker that decoded it.
#[must_use]
pub fn encode_matrix_entries(chunk: &[PairEstimate]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(chunk.iter().map(|e| matrix_entry_len(Some(e))).sum());
    for e in chunk {
        put_matrix_entry(&mut buf, Some(e));
    }
    buf
}

/// An O–D matrix response (tag 34) as the daemon sends it: the tag, `n`
/// and the axis entries, then the chunks of [`encode_matrix_entries`] in
/// pair order, written as one frame without being assembled into one
/// buffer. For the same server state its payload equals
/// [`encode_matrix_response`] of the server's
/// [`od_matrix_threads`](vcps_sim::ShardedServer::od_matrix_threads).
#[derive(Debug)]
pub struct MatrixFrame {
    header: Vec<u8>,
    chunks: Vec<Vec<u8>>,
}

impl MatrixFrame {
    /// The response over `axes` and the encoded `chunks`, in pair order.
    #[must_use]
    pub fn new(axes: &[OdAxis], chunks: Vec<Vec<u8>>) -> Self {
        let mut header = Vec::with_capacity(matrix_header_len(axes));
        put_matrix_header(&mut header, axes);
        Self { header, chunks }
    }

    /// Bytes of the payload, the length prefix not included.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.header.len() + self.chunks.iter().map(Vec::len).sum::<usize>()
    }

    /// Writes the frame: the length prefix, the header, then each chunk,
    /// in as few vectored writes as `w` accepts.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] if the payload exceeds the u32 prefix
    /// space, as [`write_frame`]; transport failures.
    pub fn write(&self, w: &mut impl Write) -> Result<(), NetError> {
        let prefix = frame_prefix(self.payload_len())?;
        let mut slices: Vec<IoSlice<'_>> = [&prefix[..], &self.header]
            .into_iter()
            .chain(self.chunks.iter().map(Vec::as_slice))
            .map(IoSlice::new)
            .collect();
        write_all_vectored(w, &mut slices)
    }
}

/// Bytes of the tag, `n` and the axis entries of a tag-34 response.
fn matrix_header_len(axes: &[OdAxis]) -> usize {
    1 + 8 + AXIS_BYTES * axes.len()
}

/// Appends the tag, `n` and the axis entries of a tag-34 response.
fn put_matrix_header(buf: &mut Vec<u8>, axes: &[OdAxis]) {
    buf.push(RESP_MATRIX);
    buf.extend_from_slice(&(axes.len() as u64).to_be_bytes());
    for axis in axes {
        for v in [axis.rsu.0, axis.m as u64, axis.n, axis.v.to_bits()] {
            buf.extend_from_slice(&v.to_be_bytes());
        }
    }
}

fn get_axis(cur: &mut Cursor<'_>) -> Result<OdAxis, NetError> {
    let body = cur.array::<AXIS_BYTES>()?;
    Ok(OdAxis {
        rsu: RsuId(word(body, 0)),
        m: usize::try_from(word(body, 1))
            .map_err(|_| NetError::Malformed("array size overflows usize"))?,
        n: word(body, 2),
        v: f64::from_bits(word(body, 3)),
    })
}

/// Reads the tag-34 pair entries of `axes` off the front of `rest`, in
/// pair order, into `entries`, and returns the bytes after them.
///
/// Each entry is split off the remaining bytes and pushed as it is
/// rebuilt: a measured estimate from the two axis entries exactly as
/// the server built it — oriented by [`first_plays_x`], with no
/// arithmetic of its own.
fn get_matrix_entries<'a>(
    mut rest: &'a [u8],
    axes: &[OdAxis],
    entries: &mut Vec<Option<PairEstimate>>,
) -> Result<&'a [u8], NetError> {
    const TRUNCATED: NetError = NetError::Malformed("truncated payload");
    for (i, a) in axes.iter().enumerate() {
        for b in &axes[i + 1..] {
            let (&kind, tail) = rest.split_first().ok_or(TRUNCATED)?;
            let (entry, tail) = match kind {
                KIND_MEASURED | KIND_MEASURED_CLAMPED => {
                    let (body, tail) =
                        tail.split_first_chunk::<FACTORED_BODY>().ok_or(TRUNCATED)?;
                    if a.m == 0 || b.m == 0 {
                        return Err(NetError::Malformed(
                            "measured entry names an RSU without a decodable upload",
                        ));
                    }
                    let (x, y) = if first_plays_x(a.m, a.n, a.rsu, b.m, b.n, b.rsu) {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let estimate = Estimate {
                        n_c: f64::from_bits(word(body, 0)),
                        v_x: x.v,
                        v_y: y.v,
                        v_c: f64::from_bits(word(body, 1)),
                        m_x: x.m,
                        m_y: y.m,
                        n_x: x.n,
                        n_y: y.n,
                        clamped: kind == KIND_MEASURED_CLAMPED,
                    };
                    (Some(PairEstimate::Measured(estimate)), tail)
                }
                KIND_DEGRADED => {
                    let (body, tail) =
                        tail.split_first_chunk::<DEGRADED_BODY>().ok_or(TRUNCATED)?;
                    (Some(degraded_from(body)), tail)
                }
                KIND_ABSENT => (None, tail),
                _ => return Err(NetError::Malformed("unknown estimate kind")),
            };
            entries.push(entry);
            rest = tail;
        }
    }
    Ok(rest)
}

/// Encodes a next-period sizes response (tag 35).
#[must_use]
pub fn encode_sizes_response(sizes: &[(u64, u64)]) -> Vec<u8> {
    let mut buf = vec![RESP_SIZES];
    buf.extend_from_slice(&(sizes.len() as u64).to_be_bytes());
    for &(rsu, size) in sizes {
        buf.extend_from_slice(&rsu.to_be_bytes());
        buf.extend_from_slice(&size.to_be_bytes());
    }
    buf
}

/// Encodes an error response (tag 36).
#[must_use]
pub fn encode_error_response(message: &str) -> Vec<u8> {
    let msg = message.as_bytes();
    let len = msg.len().min(u16::MAX as usize);
    let mut buf = Vec::with_capacity(3 + len);
    buf.push(RESP_ERROR);
    buf.extend_from_slice(&(len as u16).to_be_bytes());
    buf.extend_from_slice(&msg[..len]);
    buf
}

/// Everything a daemon can answer with, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Tag 32 — ingest acknowledged.
    Ack(AckSummary),
    /// Tag 33 — a pair estimate.
    Estimate(PairEstimate),
    /// Tag 34 — the O–D matrix.
    Matrix(WireMatrix),
    /// Tag 35 — next-period sizes as `(rsu, bits)` pairs.
    Sizes(Vec<(u64, u64)>),
    /// Tag 36 — the request failed.
    Error(String),
    /// Tag 37 — success, nothing to report.
    Ok,
}

impl Response {
    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] on truncation, trailing bytes, or an
    /// unknown response tag.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut cur = Cursor::new(payload);
        let resp = match cur.u8()? {
            RESP_ACK => Response::Ack(AckSummary::decode_body(&mut cur)?),
            RESP_ESTIMATE => Response::Estimate(get_pair_estimate(&mut cur)?),
            RESP_MATRIX => {
                let n = usize::try_from(cur.u64()?)
                    .map_err(|_| NetError::Malformed("matrix size overflows usize"))?;
                let pairs = n
                    .checked_mul(n.saturating_sub(1))
                    .ok_or(NetError::Malformed("matrix size overflows usize"))?
                    / 2;
                // Reserve up front, but never beyond what the frame can
                // hold — every axis entry costs 32 bytes and every pair
                // entry at least its kind byte — so an over-claimed n
                // fails the reads below rather than costing a giant
                // reservation.
                let mut axes = Vec::with_capacity(n.min(cur.remaining() / AXIS_BYTES));
                for _ in 0..n {
                    axes.push(get_axis(&mut cur)?);
                }
                let mut entries = Vec::with_capacity(pairs.min(cur.remaining()));
                cur.buf = get_matrix_entries(cur.buf, &axes, &mut entries)?;
                Response::Matrix(WireMatrix {
                    rsus: axes.iter().map(|axis| axis.rsu.0).collect(),
                    entries,
                })
            }
            RESP_SIZES => {
                let n = usize::try_from(cur.u64()?)
                    .map_err(|_| NetError::Malformed("sizes count overflows usize"))?;
                let mut sizes = Vec::new();
                for _ in 0..n {
                    sizes.push((cur.u64()?, cur.u64()?));
                }
                Response::Sizes(sizes)
            }
            RESP_ERROR => {
                let len = usize::from(u16::from_be_bytes([cur.u8()?, cur.u8()?]));
                let msg = String::from_utf8_lossy(cur.bytes(len)?).into_owned();
                Response::Error(msg)
            }
            RESP_OK => Response::Ok,
            tag => return Err(NetError::UnknownTag(tag)),
        };
        cur.finish()?;
        Ok(resp)
    }
}

/// Builds a pair-query request payload.
#[must_use]
pub fn encode_pair_query(rsu_a: u64, rsu_b: u64) -> Vec<u8> {
    let mut buf = vec![REQ_PAIR_QUERY];
    buf.extend_from_slice(&rsu_a.to_be_bytes());
    buf.extend_from_slice(&rsu_b.to_be_bytes());
    buf
}

/// Builds an O–D query request payload (`threads == 0` means the
/// daemon's configured default).
#[must_use]
pub fn encode_od_query(threads: u64) -> Vec<u8> {
    let mut buf = vec![REQ_OD_QUERY];
    buf.extend_from_slice(&threads.to_be_bytes());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        assert_eq!(wire.len(), 4 + 5);
        let got = read_frame(&mut wire.as_slice(), 1024).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut wire.as_slice(), 1 << 20) {
            Err(NetError::FrameTooLarge { claimed, limit }) => {
                assert_eq!(claimed, u64::from(u32::MAX));
                assert_eq!(limit, 1 << 20);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let wire = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(NetError::Malformed("zero-length frame"))
        ));
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&100u32.to_be_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(NetError::UnexpectedEof)
        ));
    }

    #[test]
    fn estimate_roundtrip_is_bit_exact() {
        let measured = PairEstimate::Measured(Estimate {
            n_c: 123.456_789,
            v_x: 0.1,
            v_y: 0.2,
            v_c: 0.05,
            m_x: 1 << 10,
            m_y: 1 << 12,
            n_x: 500,
            n_y: 900,
            clamped: false,
        });
        let resp = Response::decode(&encode_estimate_response(&measured)).unwrap();
        match resp {
            Response::Estimate(PairEstimate::Measured(e)) => {
                assert_eq!(e.n_c.to_bits(), 123.456_789f64.to_bits());
                assert_eq!(e.m_y, 1 << 12);
            }
            other => panic!("unexpected {other:?}"),
        }

        let degraded =
            PairEstimate::Degraded(DegradedEstimate::from_volumes(10.0, 30.0, true, false));
        match Response::decode(&encode_estimate_response(&degraded)).unwrap() {
            Response::Estimate(d) => assert_eq!(d, degraded),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ack_roundtrip_and_merge() {
        use vcps_sim::ReceiveOutcome as O;
        let mut ack = AckSummary::from_outcomes(&[O::Fresh, O::Fresh, O::Duplicate, O::Stale]);
        assert_eq!(ack.frames, 4);
        assert_eq!(ack.fresh, 2);
        match Response::decode(&ack.encode()).unwrap() {
            Response::Ack(got) => assert_eq!(got, ack),
            other => panic!("unexpected {other:?}"),
        }
        ack.merge(&AckSummary::from_outcomes(&[O::Conflicting]));
        assert_eq!(ack.frames, 5);
        assert_eq!(ack.conflicting, 1);
    }

    #[test]
    fn error_response_roundtrip() {
        match Response::decode(&encode_error_response("nope")).unwrap() {
            Response::Error(msg) => assert_eq!(msg, "nope"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = vec![RESP_OK];
        payload.push(0);
        assert!(matches!(
            Response::decode(&payload),
            Err(NetError::Malformed("trailing bytes in payload"))
        ));
    }

    /// The axes of the 3-RSU test matrices: RSU 1 (8 bits, counter 3,
    /// V = 0.5), RSU 5 (16 bits, counter 9, V = 0.25) and RSU 9 without a
    /// decodable upload.
    fn three_axes() -> [OdAxis; 3] {
        [
            OdAxis {
                rsu: RsuId(1),
                m: 8,
                n: 3,
                v: 0.5,
            },
            OdAxis {
                rsu: RsuId(5),
                m: 16,
                n: 9,
                v: 0.25,
            },
            OdAxis {
                rsu: RsuId(9),
                m: 0,
                n: 0,
                v: 0.0,
            },
        ]
    }

    /// The measured (1, 5) estimate of [`three_axes`]: RSU 1's smaller
    /// array plays `B_x`.
    fn measured_1_5() -> PairEstimate {
        PairEstimate::Measured(Estimate {
            n_c: 7.5,
            v_x: 0.5,
            v_y: 0.25,
            v_c: 0.1,
            m_x: 8,
            m_y: 16,
            n_x: 3,
            n_y: 9,
            clamped: true,
        })
    }

    /// A well-formed 3-RSU matrix response: a measured, a degraded and
    /// an absent entry.
    fn three_rsu_matrix() -> Vec<u8> {
        let degraded =
            PairEstimate::Degraded(DegradedEstimate::from_volumes(4.0, 6.0, false, true));
        let mut entries = encode_matrix_entries(&[measured_1_5(), degraded]);
        entries.push(KIND_ABSENT);
        matrix_payload(&three_axes(), vec![entries])
    }

    /// The tag-34 payload the daemon writes for `axes` and `chunks`.
    fn matrix_payload(axes: &[OdAxis], chunks: Vec<Vec<u8>>) -> Vec<u8> {
        let frame = MatrixFrame::new(axes, chunks);
        let mut wire = Vec::new();
        frame.write(&mut wire).unwrap();
        assert_eq!(wire.len(), 4 + frame.payload_len());
        read_frame(&mut wire.as_slice(), u64::MAX).unwrap()
    }

    /// A writer that takes at most 7 bytes a call and is interrupted
    /// every other call.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(7);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn matrix_frame_survives_short_and_interrupted_writes() {
        let degraded =
            PairEstimate::Degraded(DegradedEstimate::from_volumes(4.0, 6.0, false, true));
        let chunks = vec![
            encode_matrix_entries(&[measured_1_5()]),
            Vec::new(),
            encode_matrix_entries(&[degraded]),
            vec![KIND_ABSENT],
        ];
        let frame = MatrixFrame::new(&three_axes(), chunks);
        let mut whole = Vec::new();
        frame.write(&mut whole).unwrap();
        let mut trickle = Trickle {
            out: Vec::new(),
            calls: 0,
        };
        frame.write(&mut trickle).unwrap();
        assert_eq!(trickle.out, whole);
        assert_eq!(
            read_frame(&mut whole.as_slice(), u64::MAX).unwrap(),
            three_rsu_matrix()
        );
    }

    fn assert_malformed(payload: &[u8]) {
        match Response::decode(payload) {
            Err(NetError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn matrix_roundtrip_is_bit_exact() {
        let Response::Matrix(m) = Response::decode(&three_rsu_matrix()).unwrap() else {
            panic!("not a matrix");
        };
        assert_eq!(m.rsus, vec![1, 5, 9]);
        assert_eq!(m.entries.len(), 3);
        assert_eq!(
            m.at(0, 1).as_ref().map(estimate_bits),
            Some(estimate_bits(&measured_1_5()))
        );
        assert_eq!(m.at(1, 0), m.at(0, 1), "a measured estimate is canonical");
        assert_eq!(
            m.at(2, 0),
            Some(PairEstimate::Degraded(DegradedEstimate::from_volumes(
                6.0, 4.0, true, false
            )))
        );
        assert_eq!(m.at(1, 2), None);
    }

    #[test]
    fn measured_entries_orient_by_size_then_counter_then_id() {
        // Equal sizes: the smaller (counter, id) plays B_x, whichever of
        // the pair comes first on the axes.
        let axes = [
            OdAxis {
                rsu: RsuId(2),
                m: 64,
                n: 9,
                v: 0.75,
            },
            OdAxis {
                rsu: RsuId(4),
                m: 64,
                n: 5,
                v: 0.5,
            },
        ];
        let e = Estimate {
            n_c: 1.25,
            v_x: 0.5,
            v_y: 0.75,
            v_c: 0.375,
            m_x: 64,
            m_y: 64,
            n_x: 5,
            n_y: 9,
            clamped: false,
        };
        let entries = encode_matrix_entries(&[PairEstimate::Measured(e)]);
        let payload = matrix_payload(&axes, vec![entries]);
        let Response::Matrix(m) = Response::decode(&payload).unwrap() else {
            panic!("not a matrix");
        };
        assert_eq!(
            m.entries[0].as_ref().map(estimate_bits),
            Some(estimate_bits(&PairEstimate::Measured(e)))
        );
    }

    #[test]
    fn a_measured_entry_is_17_bytes_against_32_per_axis_entry() {
        // Three RSUs, all three pairs measured: the tag and n, three axis
        // entries, three 17-byte entries.
        let mut axes = three_axes();
        axes[2] = OdAxis {
            rsu: RsuId(9),
            m: 16,
            n: 2,
            v: 0.875,
        };
        let entries = encode_matrix_entries(&[measured_1_5(); 3]);
        let payload = matrix_payload(&axes, vec![entries]);
        assert_eq!(payload.len(), 9 + 3 * 32 + 3 * 17);
        assert!(matches!(
            Response::decode(&payload),
            Ok(Response::Matrix(m)) if m.entries.iter().all(Option::is_some)
        ));
    }

    #[test]
    fn measured_entry_naming_an_undecodable_rsu_is_malformed() {
        // RSU 9 has m = 0: a measured (1, 9) entry cannot be rebuilt.
        let degraded =
            PairEstimate::Degraded(DegradedEstimate::from_volumes(4.0, 6.0, false, true));
        let entries = encode_matrix_entries(&[degraded, measured_1_5(), degraded]);
        let payload = matrix_payload(&three_axes(), vec![entries]);
        assert!(matches!(
            Response::decode(&payload),
            Err(NetError::Malformed(
                "measured entry names an RSU without a decodable upload"
            ))
        ));
    }

    #[test]
    fn over_claimed_matrix_size_is_malformed_not_a_giant_reservation() {
        // n names 2^40 RSUs over a body of three axis entries.
        let mut payload = vec![RESP_MATRIX];
        payload.extend_from_slice(&(1u64 << 40).to_be_bytes());
        payload.extend_from_slice(&[0; 3 * 32]);
        assert_malformed(&payload);
        // n so large that n (n - 1) / 2 overflows: rejected before any
        // axis entry is read.
        let mut payload = vec![RESP_MATRIX];
        payload.extend_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(
            Response::decode(&payload),
            Err(NetError::Malformed("matrix size overflows usize"))
        ));
    }

    #[test]
    fn truncated_matrix_triangle_is_malformed() {
        let full = three_rsu_matrix();
        // Every proper prefix past the tag: cut in the header, the axis
        // entries, or mid-entry.
        for cut in 1..full.len() {
            assert_malformed(&full[..cut]);
        }
    }

    #[test]
    fn unknown_kind_in_last_matrix_entry_is_malformed() {
        let mut payload = three_rsu_matrix();
        *payload.last_mut().unwrap() = 4;
        assert!(matches!(
            Response::decode(&payload),
            Err(NetError::Malformed("unknown estimate kind"))
        ));
    }

    #[test]
    fn trailing_bytes_after_matrix_are_malformed() {
        let mut payload = three_rsu_matrix();
        payload.push(KIND_ABSENT);
        assert!(matches!(
            Response::decode(&payload),
            Err(NetError::Malformed("trailing bytes in payload"))
        ));
    }
}
