//! Typed protocol messages and their wire encoding.
//!
//! Three messages flow in the system (paper §IV-B/C):
//!
//! 1. RSU → vehicles: a broadcast [`Query`] carrying the RSU's RID, its
//!    public-key certificate, and its bit-array size;
//! 2. vehicle → RSU: a [`BitReport`] carrying *only* a bit index (under a
//!    one-time MAC address) — the entire privacy argument rests on this
//!    being the only vehicle-originated data;
//! 3. RSU → central server (end of period): a [`PeriodUpload`] with the
//!    counter and the bit array.
//!
//! The wire format is a compact big-endian byte layout; it stands in
//! for DSRC/IEEE 802.11p frames (the scheme is agnostic to the radio
//! layer). Every message round-trips through `encode`/`decode`,
//! property-tested below, and golden vectors freeze its bytes.

use vcps_core::{BitArray, RsuId};
// The per-record checksum inside a `BatchUpload`: it only needs to
// catch channel corruption, not adversaries (authenticity comes from
// the PKI layer), so the WAL's FNV-1a serves both.
use vcps_durable::fnv1a_64;

use crate::pki::Certificate;
use crate::{MacAddress, SimError};

/// Upper bound on the bit-array length a decoded upload may claim.
///
/// The scheme sizes arrays at `f̄ · n` rounded to a power of two; even
/// the heaviest workload in the paper (500k vehicles, f̄ = 30) stays
/// below 2^24 bits, so 2^32 (512 MiB dense) is generous while keeping
/// a malicious frame from demanding an absurd allocation.
///
/// Deliberately a `u64`, not a `usize`: the length field arrives as a
/// `u64` and must be bounds-checked *in that width* before any cast —
/// `1usize << 32` would wrap to 0 on a 32-bit target (rejecting every
/// frame), and casting a hostile length to `usize` first would let
/// `(1 << 32) + 64` masquerade as 64 there. Decoders compare against
/// this bound and only then convert via `upload_len_to_usize`.
const MAX_UPLOAD_BITS: u64 = 1 << 32;

/// The bound must mean 2^32 on every target; under the old
/// `usize`-typed constant this assertion is exactly what a 32-bit
/// build would have failed.
const _: () = assert!(MAX_UPLOAD_BITS == 4_294_967_296);

/// Validates a wire-claimed bit-array length against
/// [`MAX_UPLOAD_BITS`] (in `u64`, pre-cast) and converts it to `usize`,
/// rejecting zero-length claims uniformly across the dense and sparse
/// decoders.
fn upload_len_to_usize(len: u64) -> Result<usize, SimError> {
    if len == 0 || len > MAX_UPLOAD_BITS {
        return Err(SimError::MalformedMessage {
            reason: "invalid bit array length in upload",
        });
    }
    // In-range on every 64-bit target; on a 32-bit target a length
    // above usize::MAX cannot be materialized, so it is malformed too.
    usize::try_from(len).map_err(|_| SimError::MalformedMessage {
        reason: "invalid bit array length in upload",
    })
}

/// Upper bound on the inner-frame count a decoded [`BatchUpload`] may
/// claim, mirroring [`MAX_UPLOAD_BITS`]: one frame per RSU per period
/// means even a continental deployment stays far below 2^16, while a
/// hostile 9-byte header must not be able to promise four billion
/// frames and drive a quadratic validation loop.
const MAX_BATCH_FRAMES: usize = 1 << 16;

/// Upper bound on the shard count a decoded [`CheckpointSet`] may
/// claim. [`crate::ShardedServer`] deployments run single digits of
/// shards; 2^10 is generous while keeping a hostile header from
/// promising billions of inner checkpoints.
const MAX_CHECKPOINT_SHARDS: usize = 1 << 10;

const TAG_QUERY: u8 = 1;
const TAG_REPORT: u8 = 2;
const TAG_UPLOAD: u8 = 3;
const TAG_UPLOAD_SPARSE: u8 = 4;
const TAG_UPLOAD_SEQ: u8 = 5;
const TAG_BATCH: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;
const TAG_CHECKPOINT_SET: u8 = 8;
/// A period rollover, as a one-byte WAL record (DESIGN.md §17). It is
/// never a wire frame: `DurableServer::finish_period` logs it and replay
/// applies it, and no socket path accepts it.
pub(crate) const TAG_ROLLOVER: u8 = 9;

/// The periodic broadcast an RSU sends to passing vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The RSU's identifier (RID).
    pub rsu: RsuId,
    /// The RSU's certificate from the trusted authority.
    pub certificate: Certificate,
    /// The RSU's bit-array size `m_x`, needed by the vehicle to reduce
    /// its logical position.
    pub array_size: u64,
}

impl Query {
    /// Serializes the query to its wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 8 * 4);
        buf.push(TAG_QUERY);
        put_u64(&mut buf, self.rsu.0);
        put_u64(&mut buf, self.certificate.rsu.0);
        put_u64(&mut buf, self.certificate.tag);
        put_u64(&mut buf, self.array_size);
        buf
    }

    /// Parses a query from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation or a wrong
    /// tag byte.
    pub fn decode(wire: &[u8]) -> Result<Self, SimError> {
        if wire.len() != 1 + 8 * 4 || wire[0] != TAG_QUERY {
            return Err(SimError::MalformedMessage {
                reason: "bad query frame",
            });
        }
        let mut wire = &wire[1..];
        Ok(Self {
            rsu: RsuId(take_u64(&mut wire)),
            certificate: Certificate {
                rsu: RsuId(take_u64(&mut wire)),
                tag: take_u64(&mut wire),
            },
            array_size: take_u64(&mut wire),
        })
    }
}

/// A vehicle's answer: one bit index under a one-time MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitReport {
    /// The one-time link-layer address used for this single exchange.
    pub mac: MacAddress,
    /// The reported bit index `b_x ∈ [0, m_x)`.
    pub index: u64,
}

impl BitReport {
    /// Serializes the report to its wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 6 + 8);
        buf.push(TAG_REPORT);
        buf.extend_from_slice(&self.mac.0);
        put_u64(&mut buf, self.index);
        buf
    }

    /// Parses a report from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation or a wrong
    /// tag byte.
    pub fn decode(wire: &[u8]) -> Result<Self, SimError> {
        if wire.len() != 1 + 6 + 8 || wire[0] != TAG_REPORT {
            return Err(SimError::MalformedMessage {
                reason: "bad report frame",
            });
        }
        let mut wire = &wire[1..];
        let mac = take(&mut wire, 6).try_into().expect("6-byte slice");
        Ok(Self {
            mac: MacAddress(mac),
            index: take_u64(&mut wire),
        })
    }
}

/// An RSU's end-of-period upload to the central server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodUpload {
    /// The uploading RSU.
    pub rsu: RsuId,
    /// The passage counter `n_x`.
    pub counter: u64,
    /// The bit array `B_x`.
    pub bits: BitArray,
}

impl PeriodUpload {
    /// Serializes the upload to its wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let words = self.bits.as_words();
        let mut buf = Vec::with_capacity(1 + 8 * 3 + 8 * words.len());
        buf.push(TAG_UPLOAD);
        put_u64(&mut buf, self.rsu.0);
        put_u64(&mut buf, self.counter);
        put_u64(&mut buf, self.bits.len() as u64);
        for &w in words {
            put_u64(&mut buf, w);
        }
        buf
    }

    /// Serializes the upload choosing the cheaper representation: the
    /// dense word form or a sorted set-bit index list — light-traffic
    /// RSUs with big arrays (sized for heavy siblings' history or sparse
    /// periods) save most of their uplink this way.
    ///
    /// [`PeriodUpload::decode`] accepts both forms transparently.
    #[must_use]
    pub fn encode_compact(&self) -> Vec<u8> {
        // The cached popcount picks the form; set-bit indices are only
        // walked when the sparse form wins.
        let ones = self.bits.count_ones();
        if ones >= self.bits.as_words().len() {
            return self.encode();
        }
        let mut buf = Vec::with_capacity(1 + 8 * 4 + 8 * ones);
        buf.push(TAG_UPLOAD_SPARSE);
        put_u64(&mut buf, self.rsu.0);
        put_u64(&mut buf, self.counter);
        put_u64(&mut buf, self.bits.len() as u64);
        put_u64(&mut buf, ones as u64);
        for i in self.bits.ones() {
            put_u64(&mut buf, i as u64);
        }
        buf
    }

    /// Parses an upload from its wire form (dense or sparse frame):
    /// [`PeriodUploadRef::decode_ref`], then materialized.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong tag
    /// byte, or an inconsistent word/index count.
    pub fn decode(wire: &[u8]) -> Result<Self, SimError> {
        Ok(PeriodUploadRef::decode_ref(wire)?.to_owned_upload())
    }
}

/// A [`PeriodUpload`] wrapped with a per-RSU sequence number for the
/// retransmission path (see [`crate::faults`]).
///
/// The sequence number lets the server distinguish a *re-sent* upload
/// (same `seq`, same content — ack it again, count nothing) from a
/// *stale* one (lower `seq` than already accepted — a late duplicate
/// from a previous period that must not clobber fresher state) and from
/// a *conflicting* one (same `seq`, different content — a corrupted or
/// equivocating sender).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencedUpload {
    /// Monotonically increasing per-RSU sequence number (the engine uses
    /// the period index).
    pub seq: u64,
    /// The wrapped upload.
    pub upload: PeriodUpload,
}

impl SequencedUpload {
    /// Serializes to the wire form: a sequence header followed by the
    /// compact upload frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.upload.encode_compact();
        let mut buf = Vec::with_capacity(1 + 8 + inner.len());
        buf.push(TAG_UPLOAD_SEQ);
        put_u64(&mut buf, self.seq);
        buf.extend_from_slice(&inner);
        buf
    }

    /// Parses a sequenced upload from its wire form:
    /// [`SequencedUploadRef::decode_ref`], then materialized.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong tag
    /// byte, or a malformed inner upload.
    pub fn decode(wire: &[u8]) -> Result<Self, SimError> {
        Ok(SequencedUploadRef::decode_ref(wire)?.to_owned_upload())
    }
}

/// A batched end-of-period flush: every [`SequencedUpload`] an RSU
/// shard aggregated this period, in one wire frame.
///
/// The monolithic path sends one frame per upload; at hundreds of RSUs
/// per shard that is hundreds of radio/backhaul round trips per period.
/// A batch carries a length-prefixed vector of inner frames, each
/// guarded by an FNV-1a 64 checksum so a single flipped bit is
/// attributed to the frame it corrupted instead of desynchronizing the
/// rest of the batch parse.
///
/// Invariant: inner frames are sorted by `(rsu, seq)` and the keys are
/// strictly increasing (no duplicates). [`BatchUpload::new`] establishes
/// it, [`BatchUpload::decode`] enforces it — which is what lets the
/// mutation tests demand that a duplicated or reordered inner frame is
/// *rejected* rather than silently re-ingested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchUpload {
    frames: Vec<SequencedUpload>,
}

impl BatchUpload {
    /// Builds a batch from inner frames, sorting them into canonical
    /// `(rsu, seq)` order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] if two frames share a
    /// `(rsu, seq)` key (the batch would not round-trip: decode rejects
    /// non-strictly-increasing keys) or if the batch exceeds the
    /// `MAX_BATCH_FRAMES` wire bound.
    pub fn new(mut frames: Vec<SequencedUpload>) -> Result<Self, SimError> {
        if frames.len() > MAX_BATCH_FRAMES {
            return Err(SimError::MalformedMessage {
                reason: "batch frame count over limit",
            });
        }
        frames.sort_by_key(|f| (f.upload.rsu, f.seq));
        if frames
            .windows(2)
            .any(|w| (w[0].upload.rsu, w[0].seq) == (w[1].upload.rsu, w[1].seq))
        {
            return Err(SimError::MalformedMessage {
                reason: "duplicate (rsu, seq) in batch",
            });
        }
        Ok(Self { frames })
    }

    /// The inner frames in canonical `(rsu, seq)` order.
    #[must_use]
    pub fn frames(&self) -> &[SequencedUpload] {
        &self.frames
    }

    /// Serializes to the wire form: a count header followed by one
    /// `length ‖ checksum ‖ frame` record per inner upload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let inner: Vec<Vec<u8>> = self.frames.iter().map(SequencedUpload::encode).collect();
        let total: usize = inner.iter().map(|f| 16 + f.len()).sum();
        let mut buf = Vec::with_capacity(1 + 8 + total);
        buf.push(TAG_BATCH);
        put_u64(&mut buf, self.frames.len() as u64);
        for frame in &inner {
            put_u64(&mut buf, frame.len() as u64);
            put_u64(&mut buf, fnv1a_64(frame));
            buf.extend_from_slice(frame);
        }
        buf
    }

    /// Parses a batch from its wire form: [`BatchUploadRef::decode_ref`],
    /// then materialized.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong tag
    /// byte, a frame count over `MAX_BATCH_FRAMES`, a record length
    /// exceeding the remaining bytes, a checksum mismatch, a malformed
    /// inner frame, inner keys out of canonical order, or trailing
    /// bytes.
    pub fn decode(wire: &[u8]) -> Result<Self, SimError> {
        Ok(BatchUploadRef::decode_ref(wire)?.to_owned_batch())
    }
}

/// Appends one big-endian `u64`.
fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Reads one big-endian `u64` from an exactly-8-byte slice.
fn be_u64(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("8-byte slice"))
}

/// Splits the first `n` bytes off `wire`: the reader of the decoders
/// that walk a frame front to back. Each caller checks the remaining
/// length before it reads, so `n` never exceeds it (`split_at` would
/// panic there, as slice indexing does).
fn take<'a>(wire: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = wire.split_at(n);
    *wire = rest;
    head
}

/// [`take`]s one big-endian `u64`.
fn take_u64(wire: &mut &[u8]) -> u64 {
    be_u64(take(wire, 8))
}

/// Mask selecting the in-range bits of a bit array's final 64-bit word.
fn tail_mask(len: usize) -> u64 {
    match len % 64 {
        0 => u64::MAX,
        tail => (1u64 << tail) - 1,
    }
}

/// The payload section of a [`PeriodUploadRef`]: a borrowed slice of
/// the wire frame, dense words or sparse indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UploadPayload<'a> {
    /// Big-endian 64-bit words, exactly `bits_len.div_ceil(64)` of
    /// them. Bits beyond `bits_len` in the final word may be set on a
    /// hostile frame; accessors mask them, as [`BitArray::from_words`]
    /// masks the tail of a materialized upload.
    Dense(&'a [u8]),
    /// Big-endian 64-bit set-bit indices, strictly increasing and
    /// in-range (validated at decode).
    Sparse(&'a [u8]),
}

/// A [`PeriodUpload`] parsed as a borrowed view over its wire frame —
/// the zero-copy half of the ingest hot path (DESIGN.md §18).
///
/// [`decode_ref`](PeriodUploadRef::decode_ref) is the one upload
/// validator — [`PeriodUpload::decode`] is this decode followed by
/// [`to_owned_upload`](PeriodUploadRef::to_owned_upload) — and it
/// allocates nothing: the dense word block or sparse index list stays a
/// `&[u8]` into the caller's buffer, exposed through masking accessors. Materialize with
/// [`to_owned_upload`](PeriodUploadRef::to_owned_upload) only where the
/// server actually retains the upload (a fresh or conflicting receive);
/// duplicate detection runs allocation-free via
/// [`matches`](PeriodUploadRef::matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodUploadRef<'a> {
    rsu: RsuId,
    counter: u64,
    bits_len: usize,
    payload: UploadPayload<'a>,
}

impl<'a> PeriodUploadRef<'a> {
    /// Parses an upload frame (dense or sparse) into a borrowed view.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong
    /// tag byte, an inconsistent word/index count, a zero or oversized
    /// bit-array length, or a non-strictly-increasing / out-of-range
    /// sparse index list.
    pub fn decode_ref(wire: &'a [u8]) -> Result<Self, SimError> {
        match wire.first() {
            Some(&TAG_UPLOAD) => Self::decode_dense_ref(wire),
            Some(&TAG_UPLOAD_SPARSE) => Self::decode_sparse_ref(wire),
            _ => Err(SimError::MalformedMessage {
                reason: "bad upload frame",
            }),
        }
    }

    fn decode_dense_ref(wire: &'a [u8]) -> Result<Self, SimError> {
        if wire.len() < 1 + 8 * 3 || wire[0] != TAG_UPLOAD {
            return Err(SimError::MalformedMessage {
                reason: "bad upload frame",
            });
        }
        let rsu = RsuId(be_u64(&wire[1..9]));
        let counter = be_u64(&wire[9..17]);
        // Zero and oversized length claims are rejected by
        // `upload_len_to_usize`, before the claim participates in any
        // size arithmetic.
        let len = upload_len_to_usize(be_u64(&wire[17..25]))?;
        let payload = &wire[25..];
        if payload.len() != len.div_ceil(64) * 8 {
            return Err(SimError::MalformedMessage {
                reason: "upload word count mismatch",
            });
        }
        Ok(Self {
            rsu,
            counter,
            bits_len: len,
            payload: UploadPayload::Dense(payload),
        })
    }

    fn decode_sparse_ref(wire: &'a [u8]) -> Result<Self, SimError> {
        if wire.len() < 1 + 8 * 4 {
            return Err(SimError::MalformedMessage {
                reason: "truncated sparse upload",
            });
        }
        let rsu = RsuId(be_u64(&wire[1..9]));
        let counter = be_u64(&wire[9..17]);
        let raw_len = be_u64(&wire[17..25]);
        let ones = be_u64(&wire[25..33]) as usize;
        let payload = &wire[33..];
        // Both `len` and `ones` come straight off the wire: compare
        // against the remaining byte count without multiplying (which
        // overflows on hostile `ones`), and bound `len` in u64 before
        // the cast and any later allocation (a sparse frame never makes
        // sense for an array shorter than its own index list, and a
        // 33-byte frame must not be able to request a multi-terabyte
        // array).
        if !payload.len().is_multiple_of(8) || ones != payload.len() / 8 {
            return Err(SimError::MalformedMessage {
                reason: "sparse upload index count mismatch",
            });
        }
        let len = upload_len_to_usize(raw_len)?;
        if ones > len {
            return Err(SimError::MalformedMessage {
                reason: "invalid bit array length in upload",
            });
        }
        // The index list must be strictly increasing, as encode_compact
        // emits it: a duplicated or unsorted list means the frame was
        // corrupted or forged, and sparse decode kernels downstream
        // derive counts from list lengths — reject rather than silently
        // collapse duplicates into fewer set bits.
        let mut prev: Option<u64> = None;
        for chunk in payload.chunks_exact(8) {
            let index = be_u64(chunk);
            if prev.is_some_and(|p| index <= p) {
                return Err(SimError::MalformedMessage {
                    reason: "sparse upload indices not strictly increasing",
                });
            }
            prev = Some(index);
            if index as usize >= len {
                return Err(SimError::MalformedMessage {
                    reason: "sparse upload index out of range",
                });
            }
        }
        Ok(Self {
            rsu,
            counter,
            bits_len: len,
            payload: UploadPayload::Sparse(payload),
        })
    }

    /// The uploading RSU.
    #[must_use]
    pub fn rsu(&self) -> RsuId {
        self.rsu
    }

    /// The passage counter `n_x`.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The bit-array length in bits.
    #[must_use]
    pub fn bits_len(&self) -> usize {
        self.bits_len
    }

    /// `true` when the frame carried the sparse (index-list) encoding.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self.payload, UploadPayload::Sparse(_))
    }

    /// Number of set bits — O(1) for sparse frames, one popcount pass
    /// over the borrowed words for dense frames. No allocation.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        match self.payload {
            UploadPayload::Sparse(p) => p.len() / 8,
            UploadPayload::Dense(_) => self
                .dense_words()
                .expect("dense payload")
                .map(|w| w.count_ones() as usize)
                .sum(),
        }
    }

    /// The dense payload as 64-bit words with the out-of-range tail
    /// masked (so they compare equal to [`BitArray::as_words`]), or
    /// `None` for a sparse frame.
    #[must_use]
    pub fn dense_words(&self) -> Option<impl Iterator<Item = u64> + 'a> {
        let UploadPayload::Dense(p) = self.payload else {
            return None;
        };
        let last = p.len() / 8 - 1;
        let mask = tail_mask(self.bits_len);
        Some(p.chunks_exact(8).enumerate().map(move |(i, chunk)| {
            let word = be_u64(chunk);
            if i == last {
                word & mask
            } else {
                word
            }
        }))
    }

    /// The sparse payload as strictly-increasing set-bit indices, or
    /// `None` for a dense frame.
    #[must_use]
    pub fn sparse_indices(&self) -> Option<impl Iterator<Item = u64> + 'a> {
        let UploadPayload::Sparse(p) = self.payload else {
            return None;
        };
        Some(p.chunks_exact(8).map(be_u64))
    }

    /// Allocation-free equality against an owned upload — the
    /// duplicate-detection comparison of the ingest hot path.
    /// Equivalent to `self.to_owned_upload() == *owned` without
    /// materializing anything.
    #[must_use]
    pub fn matches(&self, owned: &PeriodUpload) -> bool {
        if self.rsu != owned.rsu
            || self.counter != owned.counter
            || self.bits_len != owned.bits.len()
        {
            return false;
        }
        match self.payload {
            UploadPayload::Dense(_) => {
                self.dense_words()
                    .expect("dense payload")
                    .eq(owned.bits.as_words().iter().copied())
            }
            UploadPayload::Sparse(p) => {
                p.len() / 8 == owned.bits.count_ones()
                    && self
                        .sparse_indices()
                        .expect("sparse payload")
                        .eq(owned.bits.ones().map(|i| i as u64))
            }
        }
    }

    /// Materializes the owned upload (the only allocating operation on
    /// the view). Infallible: every invariant the owned constructors
    /// check was already validated at decode.
    #[must_use]
    pub fn to_owned_upload(&self) -> PeriodUpload {
        let bits = match self.payload {
            UploadPayload::Dense(_) => BitArray::from_words(
                self.dense_words().expect("dense payload").collect(),
                self.bits_len,
            )
            .expect("validated at decode"),
            UploadPayload::Sparse(_) => {
                let mut bits = BitArray::try_new(self.bits_len).expect("validated at decode");
                for index in self.sparse_indices().expect("sparse payload") {
                    bits.try_set(index as usize).expect("validated at decode");
                }
                bits
            }
        };
        PeriodUpload {
            rsu: self.rsu,
            counter: self.counter,
            bits,
        }
    }
}

/// A [`SequencedUpload`] parsed as a borrowed view over its wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequencedUploadRef<'a> {
    seq: u64,
    upload: PeriodUploadRef<'a>,
}

impl<'a> SequencedUploadRef<'a> {
    /// Parses a sequenced upload into a borrowed view — the validator
    /// behind [`SequencedUpload::decode`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong
    /// tag byte, or a malformed inner upload.
    pub fn decode_ref(wire: &'a [u8]) -> Result<Self, SimError> {
        if wire.len() < 1 + 8 || wire[0] != TAG_UPLOAD_SEQ {
            return Err(SimError::MalformedMessage {
                reason: "bad sequenced upload frame",
            });
        }
        Ok(Self {
            seq: be_u64(&wire[1..9]),
            upload: PeriodUploadRef::decode_ref(&wire[9..])?,
        })
    }

    /// The per-RSU sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The wrapped upload view.
    #[must_use]
    pub fn upload(&self) -> PeriodUploadRef<'a> {
        self.upload
    }

    /// Materializes the owned sequenced upload.
    #[must_use]
    pub fn to_owned_upload(&self) -> SequencedUpload {
        SequencedUpload {
            seq: self.seq,
            upload: self.upload.to_owned_upload(),
        }
    }
}

/// A [`BatchUpload`] parsed as a borrowed view: one pass of validation
/// (headers, per-record checksums, inner frames, canonical `(rsu, seq)`
/// order, no trailing bytes — the validator behind
/// [`BatchUpload::decode`]) with zero heap allocation, then
/// [`frames`](BatchUploadRef::frames) iterates the inner views straight
/// off the wire buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchUploadRef<'a> {
    /// The record section of the wire frame (everything after the tag
    /// and count header), fully validated at construction.
    records: &'a [u8],
    count: usize,
}

impl<'a> BatchUploadRef<'a> {
    /// Parses a batch frame into a borrowed view.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong
    /// tag byte, a frame count over the wire bound, a record length
    /// exceeding the remaining bytes, a checksum mismatch, a malformed
    /// inner frame, inner keys out of canonical order, or trailing
    /// bytes.
    pub fn decode_ref(wire: &'a [u8]) -> Result<Self, SimError> {
        if wire.len() < 1 + 8 || wire[0] != TAG_BATCH {
            return Err(SimError::MalformedMessage {
                reason: "bad batch frame",
            });
        }
        let count = be_u64(&wire[1..9]) as usize;
        if count > MAX_BATCH_FRAMES {
            return Err(SimError::MalformedMessage {
                reason: "batch frame count over limit",
            });
        }
        let records = &wire[9..];
        let mut rest = records;
        let mut prev: Option<(RsuId, u64)> = None;
        for _ in 0..count {
            if rest.len() < 16 {
                return Err(SimError::MalformedMessage {
                    reason: "truncated batch record header",
                });
            }
            let frame_len = be_u64(&rest[..8]) as usize;
            let checksum = be_u64(&rest[8..16]);
            let body = &rest[16..];
            // `frame_len` comes straight off the wire: compare against
            // the remaining byte count (no multiplication, no overflow)
            // before slicing.
            if frame_len > body.len() {
                return Err(SimError::MalformedMessage {
                    reason: "batch record length exceeds frame",
                });
            }
            let frame = &body[..frame_len];
            if fnv1a_64(frame) != checksum {
                return Err(SimError::MalformedMessage {
                    reason: "batch record checksum mismatch",
                });
            }
            let inner = SequencedUploadRef::decode_ref(frame)?;
            let key = (inner.upload().rsu(), inner.seq());
            if prev.is_some_and(|p| key <= p) {
                return Err(SimError::MalformedMessage {
                    reason: "batch records not strictly increasing",
                });
            }
            prev = Some(key);
            rest = &body[frame_len..];
        }
        if !rest.is_empty() {
            return Err(SimError::MalformedMessage {
                reason: "trailing bytes after batch",
            });
        }
        Ok(Self { records, count })
    }

    /// Number of inner frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the batch carries no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the inner frames as borrowed views, in canonical
    /// `(rsu, seq)` order, allocating nothing. Each step re-parses one
    /// record from the validated buffer (checksums are not re-verified;
    /// they already passed at decode).
    #[must_use]
    pub fn frames(&self) -> BatchFrames<'a> {
        BatchFrames {
            rest: self.records,
            remaining: self.count,
        }
    }

    /// Materializes the owned batch.
    #[must_use]
    pub fn to_owned_batch(&self) -> BatchUpload {
        BatchUpload {
            frames: self.frames().map(|f| f.to_owned_upload()).collect(),
        }
    }
}

/// Iterator over a validated [`BatchUploadRef`]'s inner frames.
#[derive(Debug, Clone)]
pub struct BatchFrames<'a> {
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for BatchFrames<'a> {
    type Item = SequencedUploadRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let frame_len = be_u64(&self.rest[..8]) as usize;
        let body = &self.rest[16..];
        let frame = &body[..frame_len];
        self.rest = &body[frame_len..];
        Some(SequencedUploadRef::decode_ref(frame).expect("validated at batch decode"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BatchFrames<'_> {}

/// A serialized snapshot of one [`crate::CentralServer`]'s durable
/// state (wire tag 7): the history smoothing factor, per-RSU historical
/// averages, per-RSU accepted sequence numbers, and the accumulated
/// period uploads — everything `receive`/`finish_period` semantics
/// depend on. Derived state (decode caches, observability handles) is
/// deliberately absent; it is rebuilt on restore.
///
/// The scheme itself is *not* serialized: a checkpoint is only
/// meaningful to the deployment that wrote it, and the restoring caller
/// supplies the scheme (see `CentralServer::restore_from_checkpoint`).
///
/// Invariant: each section's RSU keys are strictly increasing.
/// [`crate::CentralServer::checkpoint`] establishes it (the fields are
/// `BTreeMap`-ordered), [`ServerCheckpoint::decode`] enforces it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCheckpoint {
    /// The [`vcps_core::VolumeHistory`] smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Per-RSU historical averages, strictly increasing by RSU.
    pub history: Vec<(RsuId, f64)>,
    /// Per-RSU accepted sequence numbers, strictly increasing by RSU.
    pub seqs: Vec<(RsuId, u64)>,
    /// Accumulated uploads for the open period, strictly increasing by
    /// RSU (a `BTreeMap` image: at most one upload per RSU).
    pub uploads: Vec<PeriodUpload>,
}

impl ServerCheckpoint {
    /// Serializes to the wire form: the alpha bits, then three
    /// length-prefixed sections (history, sequence numbers, uploads);
    /// `f64` values travel as their IEEE-754 bit patterns so restore is
    /// exact, and uploads as length-prefixed compact frames.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let frames: Vec<Vec<u8>> = self
            .uploads
            .iter()
            .map(PeriodUpload::encode_compact)
            .collect();
        let upload_bytes: usize = frames.iter().map(|f| 8 + f.len()).sum();
        let mut buf = Vec::with_capacity(
            1 + 8 * 4 + 16 * (self.history.len() + self.seqs.len()) + upload_bytes,
        );
        buf.push(TAG_CHECKPOINT);
        put_u64(&mut buf, self.alpha.to_bits());
        put_u64(&mut buf, self.history.len() as u64);
        for &(rsu, avg) in &self.history {
            put_u64(&mut buf, rsu.0);
            put_u64(&mut buf, avg.to_bits());
        }
        put_u64(&mut buf, self.seqs.len() as u64);
        for &(rsu, seq) in &self.seqs {
            put_u64(&mut buf, rsu.0);
            put_u64(&mut buf, seq);
        }
        put_u64(&mut buf, frames.len() as u64);
        for frame in &frames {
            put_u64(&mut buf, frame.len() as u64);
            buf.extend_from_slice(frame);
        }
        buf
    }

    /// Parses a checkpoint from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong
    /// tag byte, a non-finite or out-of-range alpha, a section count
    /// over `MAX_BATCH_FRAMES`, RSU keys out of strictly increasing
    /// order, a non-finite average, a malformed inner upload, or
    /// trailing bytes. Never panics: every length is validated against
    /// the remaining byte count before it is trusted.
    pub fn decode(wire: &[u8]) -> Result<Self, SimError> {
        if wire.len() < 1 + 8 * 2 || wire[0] != TAG_CHECKPOINT {
            return Err(SimError::MalformedMessage {
                reason: "bad checkpoint frame",
            });
        }
        let mut wire = &wire[1..];
        let alpha = f64::from_bits(take_u64(&mut wire));
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(SimError::MalformedMessage {
                reason: "checkpoint alpha outside (0, 1]",
            });
        }
        let read_count = |wire: &mut &[u8], reason: &'static str| -> Result<usize, SimError> {
            if wire.len() < 8 {
                return Err(SimError::MalformedMessage { reason });
            }
            let count = take_u64(wire) as usize;
            if count > MAX_BATCH_FRAMES {
                return Err(SimError::MalformedMessage {
                    reason: "checkpoint section count over limit",
                });
            }
            Ok(count)
        };
        let history_count = read_count(&mut wire, "truncated checkpoint history")?;
        let mut history = Vec::with_capacity(history_count.min(1024));
        let mut prev: Option<RsuId> = None;
        for _ in 0..history_count {
            if wire.len() < 16 {
                return Err(SimError::MalformedMessage {
                    reason: "truncated checkpoint history",
                });
            }
            let rsu = RsuId(take_u64(&mut wire));
            let avg = f64::from_bits(take_u64(&mut wire));
            if prev.is_some_and(|p| rsu <= p) {
                return Err(SimError::MalformedMessage {
                    reason: "checkpoint history not strictly increasing",
                });
            }
            if !avg.is_finite() || avg < 0.0 {
                return Err(SimError::MalformedMessage {
                    reason: "checkpoint history average not finite",
                });
            }
            prev = Some(rsu);
            history.push((rsu, avg));
        }
        let seq_count = read_count(&mut wire, "truncated checkpoint sequences")?;
        let mut seqs = Vec::with_capacity(seq_count.min(1024));
        let mut prev: Option<RsuId> = None;
        for _ in 0..seq_count {
            if wire.len() < 16 {
                return Err(SimError::MalformedMessage {
                    reason: "truncated checkpoint sequences",
                });
            }
            let rsu = RsuId(take_u64(&mut wire));
            let seq = take_u64(&mut wire);
            if prev.is_some_and(|p| rsu <= p) {
                return Err(SimError::MalformedMessage {
                    reason: "checkpoint sequences not strictly increasing",
                });
            }
            prev = Some(rsu);
            seqs.push((rsu, seq));
        }
        let upload_count = read_count(&mut wire, "truncated checkpoint uploads")?;
        let mut uploads = Vec::with_capacity(upload_count.min(1024));
        let mut prev: Option<RsuId> = None;
        for _ in 0..upload_count {
            if wire.len() < 8 {
                return Err(SimError::MalformedMessage {
                    reason: "truncated checkpoint uploads",
                });
            }
            let frame_len = take_u64(&mut wire) as usize;
            // Straight off the wire: compare against the remaining byte
            // count (no multiplication, no overflow) before slicing.
            if frame_len > wire.len() {
                return Err(SimError::MalformedMessage {
                    reason: "checkpoint upload length exceeds frame",
                });
            }
            let upload = PeriodUpload::decode(take(&mut wire, frame_len))?;
            if prev.is_some_and(|p| upload.rsu <= p) {
                return Err(SimError::MalformedMessage {
                    reason: "checkpoint uploads not strictly increasing",
                });
            }
            prev = Some(upload.rsu);
            uploads.push(upload);
        }
        if !wire.is_empty() {
            return Err(SimError::MalformedMessage {
                reason: "trailing bytes after checkpoint",
            });
        }
        Ok(Self {
            alpha,
            history,
            seqs,
            uploads,
        })
    }
}

/// A whole-deployment snapshot (wire tag 8): one [`ServerCheckpoint`]
/// per shard plus the WAL record count the snapshot covers, so recovery
/// knows which log suffix still needs replaying.
///
/// This is the payload `vcps-durable`'s checkpoint store persists (the
/// store adds its own header and checksum; see `DurableServer`).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSet {
    /// How many WAL records had been applied when the snapshot was
    /// taken: recovery replays the log from this index.
    pub frames_applied: u64,
    /// Per-shard snapshots, in shard order. The shard count is part of
    /// the deployment's identity: restoring under a different count
    /// would re-route RSUs across shards.
    pub shards: Vec<ServerCheckpoint>,
}

impl CheckpointSet {
    /// Serializes to the wire form: the applied-record count, then one
    /// `length ‖ checkpoint frame` record per shard.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let inner: Vec<Vec<u8>> = self.shards.iter().map(ServerCheckpoint::encode).collect();
        let total: usize = inner.iter().map(|f| 8 + f.len()).sum();
        let mut buf = Vec::with_capacity(1 + 8 * 2 + total);
        buf.push(TAG_CHECKPOINT_SET);
        put_u64(&mut buf, self.frames_applied);
        put_u64(&mut buf, self.shards.len() as u64);
        for frame in &inner {
            put_u64(&mut buf, frame.len() as u64);
            buf.extend_from_slice(frame);
        }
        buf
    }

    /// Parses a checkpoint set from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] on truncation, a wrong
    /// tag byte, a shard count of zero or over `MAX_CHECKPOINT_SHARDS`,
    /// a malformed inner checkpoint, or trailing bytes.
    pub fn decode(wire: &[u8]) -> Result<Self, SimError> {
        if wire.len() < 1 + 8 * 2 || wire[0] != TAG_CHECKPOINT_SET {
            return Err(SimError::MalformedMessage {
                reason: "bad checkpoint set frame",
            });
        }
        let mut wire = &wire[1..];
        let frames_applied = take_u64(&mut wire);
        let count = take_u64(&mut wire) as usize;
        if count == 0 || count > MAX_CHECKPOINT_SHARDS {
            return Err(SimError::MalformedMessage {
                reason: "invalid checkpoint set shard count",
            });
        }
        let mut shards = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            if wire.len() < 8 {
                return Err(SimError::MalformedMessage {
                    reason: "truncated checkpoint set record",
                });
            }
            let frame_len = take_u64(&mut wire) as usize;
            if frame_len > wire.len() {
                return Err(SimError::MalformedMessage {
                    reason: "checkpoint set record length exceeds frame",
                });
            }
            shards.push(ServerCheckpoint::decode(take(&mut wire, frame_len))?);
        }
        if !wire.is_empty() {
            return Err(SimError::MalformedMessage {
                reason: "trailing bytes after checkpoint set",
            });
        }
        Ok(Self {
            frames_applied,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::TrustedAuthority;

    fn query() -> Query {
        let ca = TrustedAuthority::new(9);
        Query {
            rsu: RsuId(12),
            certificate: ca.issue(RsuId(12)),
            array_size: 1 << 14,
        }
    }

    #[test]
    fn query_roundtrip() {
        let q = query();
        assert_eq!(Query::decode(&q.encode()).unwrap(), q);
    }

    #[test]
    fn query_rejects_truncation_and_bad_tag() {
        let wire = query().encode();
        assert!(Query::decode(&wire[..wire.len() - 1]).is_err());
        let mut bad = wire.to_vec();
        bad[0] = TAG_REPORT;
        assert!(Query::decode(&bad).is_err());
    }

    #[test]
    fn report_roundtrip() {
        let r = BitReport {
            mac: MacAddress([2, 3, 4, 5, 6, 7]),
            index: 777,
        };
        assert_eq!(BitReport::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn report_contains_no_identifier_fields() {
        // The privacy invariant: a report is exactly MAC + index, 15
        // bytes, nothing else.
        let r = BitReport {
            mac: MacAddress([2, 0, 0, 0, 0, 0]),
            index: 1,
        };
        assert_eq!(r.encode().len(), 15);
    }

    #[test]
    fn upload_roundtrip() {
        let mut bits = BitArray::new(100);
        bits.set(0);
        bits.set(99);
        let u = PeriodUpload {
            rsu: RsuId(5),
            counter: 12_345,
            bits,
        };
        assert_eq!(PeriodUpload::decode(&u.encode()).unwrap(), u);
    }

    #[test]
    fn upload_rejects_word_count_mismatch() {
        let u = PeriodUpload {
            rsu: RsuId(5),
            counter: 1,
            bits: BitArray::new(64),
        };
        let mut wire = u.encode().to_vec();
        wire.extend_from_slice(&[0u8; 8]);
        assert!(PeriodUpload::decode(&wire).is_err());
    }

    #[test]
    fn compact_upload_roundtrips_and_saves_bytes() {
        // A light RSU: 5 ones in a 2^16-bit array.
        let mut bits = BitArray::new(1 << 16);
        for i in [3usize, 999, 10_000, 40_000, 65_535] {
            bits.set(i);
        }
        let u = PeriodUpload {
            rsu: RsuId(9),
            counter: 5,
            bits,
        };
        let dense = u.encode();
        let compact = u.encode_compact();
        assert!(compact.len() * 100 < dense.len(), "5 indices vs 8 KiB");
        assert_eq!(PeriodUpload::decode(&compact).unwrap(), u);
    }

    #[test]
    fn compact_upload_falls_back_to_dense_when_full() {
        let mut bits = BitArray::new(128);
        for i in 0..100 {
            bits.set(i);
        }
        let u = PeriodUpload {
            rsu: RsuId(9),
            counter: 100,
            bits,
        };
        assert_eq!(u.encode_compact(), u.encode());
    }

    #[test]
    fn sparse_upload_rejects_corruption() {
        // 128 bits / 1 one: strictly cheaper sparse, so encode_compact
        // emits the sparse frame.
        let mut bits = BitArray::new(128);
        bits.set(1);
        let u = PeriodUpload {
            rsu: RsuId(1),
            counter: 1,
            bits,
        };
        let wire = u.encode_compact().to_vec();
        assert!(PeriodUpload::decode(&wire[..wire.len() - 1]).is_err());
        // Corrupt the index to be out of range.
        let mut bad = wire.clone();
        let n = bad.len();
        bad[n - 1] = 200;
        assert!(PeriodUpload::decode(&bad).is_err());
    }

    #[test]
    fn sparse_upload_rejects_duplicate_and_unsorted_indices() {
        // Three ones in 256 bits: sparse frame with indices 1, 9, 200.
        let mut bits = BitArray::new(256);
        for i in [1usize, 9, 200] {
            bits.set(i);
        }
        let u = PeriodUpload {
            rsu: RsuId(1),
            counter: 3,
            bits,
        };
        let wire = u.encode_compact().to_vec();
        assert_eq!(PeriodUpload::decode(&wire).unwrap(), u);
        let n = wire.len();
        // Duplicate: overwrite the last index (200) with the middle one
        // (9). In-range, so only the monotonicity check can catch it.
        let mut dup = wire.clone();
        dup.copy_within(n - 16..n - 8, n - 8);
        assert!(PeriodUpload::decode(&dup).is_err());
        // Unsorted: swap the first two indices (9, 1, 200).
        let mut unsorted = wire.clone();
        let base = wire.len() - 3 * 8;
        unsorted[base..base + 8].copy_from_slice(&wire[n - 16..n - 8]);
        unsorted[base + 8..base + 16].copy_from_slice(&wire[base..base + 8]);
        assert!(PeriodUpload::decode(&unsorted).is_err());
    }

    #[test]
    fn sequenced_upload_roundtrips_and_rejects_corruption() {
        let mut bits = BitArray::new(256);
        bits.set(17);
        let su = SequencedUpload {
            seq: 42,
            upload: PeriodUpload {
                rsu: RsuId(3),
                counter: 9,
                bits,
            },
        };
        let wire = su.encode();
        assert_eq!(SequencedUpload::decode(&wire).unwrap(), su);
        assert!(SequencedUpload::decode(&wire[..wire.len() - 1]).is_err());
        assert!(SequencedUpload::decode(&wire[..5]).is_err());
        let mut bad = wire.to_vec();
        bad[0] = TAG_UPLOAD;
        assert!(SequencedUpload::decode(&bad).is_err());
    }

    #[test]
    fn dense_upload_rejects_absurd_length_claim() {
        // A frame claiming more bits than MAX_UPLOAD_BITS must be
        // rejected before any word-count arithmetic.
        let mut wire = vec![TAG_UPLOAD];
        put_u64(&mut wire, 1); // rsu
        put_u64(&mut wire, 1); // counter
        put_u64(&mut wire, u64::MAX); // absurd bit length
        assert!(PeriodUpload::decode(&wire).is_err());
    }

    /// The length bound is compared in `u64` *before* any cast: a claim
    /// just past 2^32 — which truncates to a small, plausible value on
    /// a 32-bit `usize` — must be rejected on every target, by all four
    /// decoder variants. (Under the old `usize`-typed bound, a 32-bit
    /// build computed `1 << 32 == 0` and rejected every frame instead.)
    #[test]
    fn upload_length_bound_is_checked_pre_cast() {
        let dense = |claim: u64| {
            let mut wire = vec![TAG_UPLOAD];
            put_u64(&mut wire, 1); // rsu
            put_u64(&mut wire, 1); // counter
            put_u64(&mut wire, claim);
            put_u64(&mut wire, 0); // one payload word, as a truncated claim implies
            wire
        };
        let sparse = |claim: u64| {
            let mut wire = vec![TAG_UPLOAD_SPARSE];
            put_u64(&mut wire, 1); // rsu
            put_u64(&mut wire, 1); // counter
            put_u64(&mut wire, claim);
            put_u64(&mut wire, 1); // one index
            put_u64(&mut wire, 3);
            wire
        };
        // (1 << 32) + 64 as a 32-bit usize would be 64 — consistent
        // with both assembled payloads. The u64 comparison rejects it.
        for claim in [MAX_UPLOAD_BITS + 64, 1 << 40, u64::MAX] {
            for wire in [dense(claim), sparse(claim)] {
                assert!(
                    matches!(
                        PeriodUpload::decode(&wire),
                        Err(SimError::MalformedMessage {
                            reason: "invalid bit array length in upload"
                        })
                    ),
                    "owned, claim {claim}"
                );
                assert!(
                    matches!(
                        PeriodUploadRef::decode_ref(&wire),
                        Err(SimError::MalformedMessage {
                            reason: "invalid bit array length in upload"
                        })
                    ),
                    "borrowed, claim {claim}"
                );
            }
        }
    }

    /// Zero-length claims are rejected with the *same* typed reason by
    /// dense/sparse × owned/borrowed — the unified `upload_len_to_usize`
    /// guard, rather than four divergent downstream failures.
    #[test]
    fn zero_length_rejection_is_unified_across_decoders() {
        for tag in [TAG_UPLOAD, TAG_UPLOAD_SPARSE] {
            let mut wire = vec![tag];
            put_u64(&mut wire, 1); // rsu
            put_u64(&mut wire, 1); // counter
            put_u64(&mut wire, 0); // zero bit length
            if tag == TAG_UPLOAD_SPARSE {
                put_u64(&mut wire, 0); // zero indices
            }
            for verdict in [
                PeriodUpload::decode(&wire).map(|_| ()),
                PeriodUploadRef::decode_ref(&wire).map(|_| ()),
            ] {
                assert!(
                    matches!(
                        verdict,
                        Err(SimError::MalformedMessage {
                            reason: "invalid bit array length in upload"
                        })
                    ),
                    "tag {tag}: {verdict:?}"
                );
            }
        }
    }

    #[test]
    fn upload_roundtrip_various_sizes() {
        for len in [2usize, 63, 64, 65, 128, 1000, 1 << 12] {
            let mut bits = BitArray::new(len);
            bits.set(len - 1);
            let u = PeriodUpload {
                rsu: RsuId(1),
                counter: len as u64,
                bits,
            };
            assert_eq!(PeriodUpload::decode(&u.encode()).unwrap(), u, "len {len}");
        }
    }

    fn sequenced(rsu: u64, seq: u64, ones: &[usize]) -> SequencedUpload {
        let mut bits = BitArray::new(256);
        for &i in ones {
            bits.set(i);
        }
        SequencedUpload {
            seq,
            upload: PeriodUpload {
                rsu: RsuId(rsu),
                counter: ones.len() as u64,
                bits,
            },
        }
    }

    #[test]
    fn batch_roundtrips_and_canonicalizes_order() {
        // Construct out of order; the batch sorts by (rsu, seq).
        let b = BatchUpload::new(vec![
            sequenced(7, 0, &[1, 2]),
            sequenced(3, 1, &[9]),
            sequenced(3, 0, &[4, 200]),
        ])
        .unwrap();
        let keys: Vec<(u64, u64)> = b.frames().iter().map(|f| (f.upload.rsu.0, f.seq)).collect();
        assert_eq!(keys, [(3, 0), (3, 1), (7, 0)]);
        assert_eq!(BatchUpload::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let b = BatchUpload::new(Vec::new()).unwrap();
        assert_eq!(b.encode().len(), 9);
        assert_eq!(BatchUpload::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn batch_constructor_rejects_duplicate_keys() {
        assert!(BatchUpload::new(vec![sequenced(3, 0, &[1]), sequenced(3, 0, &[2])]).is_err());
    }

    #[test]
    fn batch_rejects_truncation_wrong_tag_and_trailing_bytes() {
        let b = BatchUpload::new(vec![sequenced(1, 0, &[5]), sequenced(2, 0, &[6])]).unwrap();
        let wire = b.encode();
        for cut in 1..wire.len() {
            assert!(BatchUpload::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = wire.to_vec();
        bad[0] = TAG_UPLOAD_SEQ;
        assert!(BatchUpload::decode(&bad).is_err());
        let mut trailing = wire.to_vec();
        trailing.push(0);
        assert!(BatchUpload::decode(&trailing).is_err());
    }

    #[test]
    fn batch_rejects_absurd_count_claim() {
        let mut wire = vec![TAG_BATCH];
        put_u64(&mut wire, u64::MAX);
        assert!(matches!(
            BatchUpload::decode(&wire),
            Err(SimError::MalformedMessage {
                reason: "batch frame count over limit"
            })
        ));
    }

    #[test]
    fn batch_rejects_checksum_mismatch() {
        let b = BatchUpload::new(vec![sequenced(1, 0, &[5])]).unwrap();
        let mut wire = b.encode().to_vec();
        // Flip a bit inside the inner frame body (past the 25-byte
        // batch + record headers): the checksum must catch it.
        let n = wire.len();
        wire[n - 1] ^= 0x01;
        assert!(matches!(
            BatchUpload::decode(&wire),
            Err(SimError::MalformedMessage {
                reason: "batch record checksum mismatch"
            })
        ));
    }

    #[test]
    fn batch_rejects_duplicated_and_reordered_records() {
        let a = sequenced(1, 0, &[5]);
        let b = sequenced(2, 0, &[6]);
        // Hand-assemble wires so both records are individually valid —
        // only the ordering invariant can reject them.
        let assemble = |frames: &[&SequencedUpload]| {
            let mut buf = vec![TAG_BATCH];
            put_u64(&mut buf, frames.len() as u64);
            for f in frames {
                let inner = f.encode();
                put_u64(&mut buf, inner.len() as u64);
                put_u64(&mut buf, fnv1a_64(&inner));
                buf.extend_from_slice(&inner);
            }
            buf
        };
        assert!(BatchUpload::decode(&assemble(&[&a, &b])).is_ok());
        assert!(matches!(
            BatchUpload::decode(&assemble(&[&a, &a])),
            Err(SimError::MalformedMessage {
                reason: "batch records not strictly increasing"
            })
        ));
        assert!(matches!(
            BatchUpload::decode(&assemble(&[&b, &a])),
            Err(SimError::MalformedMessage {
                reason: "batch records not strictly increasing"
            })
        ));
    }

    #[test]
    fn borrowed_views_agree_with_owned_decode_on_valid_frames() {
        let mut bits = BitArray::new(1024);
        for i in [0usize, 63, 64, 999] {
            bits.set(i);
        }
        let upload = PeriodUpload {
            rsu: RsuId(5),
            counter: 77,
            bits,
        };
        for wire in [upload.encode(), upload.encode_compact()] {
            let view = PeriodUploadRef::decode_ref(&wire).unwrap();
            assert_eq!(view.rsu(), upload.rsu);
            assert_eq!(view.counter(), upload.counter);
            assert_eq!(view.bits_len(), upload.bits.len());
            assert_eq!(view.count_ones(), upload.bits.count_ones());
            assert!(view.matches(&upload));
            assert_eq!(view.to_owned_upload(), upload);
        }
        let dense_wire = upload.encode();
        let dense = PeriodUploadRef::decode_ref(&dense_wire).unwrap();
        assert!(!dense.is_sparse());
        let words: Vec<u64> = dense.dense_words().unwrap().collect();
        assert_eq!(words, upload.bits.as_words());
        assert!(dense.sparse_indices().is_none());
        let sparse_wire = upload.encode_compact();
        let sparse = PeriodUploadRef::decode_ref(&sparse_wire).unwrap();
        assert!(sparse.is_sparse());
        let indices: Vec<u64> = sparse.sparse_indices().unwrap().collect();
        assert_eq!(indices, vec![0, 63, 64, 999]);
        assert!(sparse.dense_words().is_none());

        // A differing counter, rsu, or payload must not match.
        let mut other = upload.clone();
        other.counter += 1;
        assert!(!dense.matches(&other));
        let mut other = upload.clone();
        other.bits.set(1);
        assert!(!dense.matches(&other));
        assert!(!sparse.matches(&other));
    }

    /// A hostile dense frame with garbage bits beyond `len` in its
    /// final word is *accepted* by the owned decoder (which masks the
    /// tail inside `BitArray::from_words`); the borrowed view must
    /// agree — accept, and mask in every accessor.
    #[test]
    fn borrowed_dense_masks_hostile_tail_bits_like_owned() {
        let mut bits = BitArray::new(100);
        bits.set(99);
        let upload = PeriodUpload {
            rsu: RsuId(2),
            counter: 1,
            bits,
        };
        let mut wire = upload.encode().to_vec();
        // Set a bit at logical position 107 (> len) in the final word.
        let last_word = wire.len() - 8;
        let owned = PeriodUpload::decode(&wire).unwrap();
        let tainted_word = be_u64(&wire[last_word..]) | (1 << 43);
        wire[last_word..].copy_from_slice(&tainted_word.to_be_bytes());
        let tainted = PeriodUpload::decode(&wire).unwrap();
        assert_eq!(tainted, owned, "owned decode masks the tail");
        let view = PeriodUploadRef::decode_ref(&wire).unwrap();
        assert_eq!(view.count_ones(), 1);
        assert_eq!(
            view.dense_words().unwrap().collect::<Vec<u64>>(),
            owned.bits.as_words()
        );
        assert!(view.matches(&owned));
        assert_eq!(view.to_owned_upload(), owned);
    }

    /// Owned and borrowed decoders accept and reject exactly the same
    /// frames across the module's rejection taxonomy.
    #[test]
    fn borrowed_views_reject_whatever_owned_rejects() {
        let good = sequenced(3, 9, &[1, 7, 250]);
        let upload_wires = [good.upload.encode(), good.upload.encode_compact()];
        for wire in &upload_wires {
            for cut in 0..wire.len() {
                assert_eq!(
                    PeriodUpload::decode(&wire[..cut]).is_ok(),
                    PeriodUploadRef::decode_ref(&wire[..cut]).is_ok(),
                    "truncation at {cut}"
                );
            }
            let mut bad = wire.to_vec();
            bad[0] = TAG_BATCH;
            assert!(PeriodUploadRef::decode_ref(&bad).is_err());
        }
        // Zero-length arrays: rejected by both, dense and sparse.
        for tag in [TAG_UPLOAD, TAG_UPLOAD_SPARSE] {
            let mut wire = vec![tag];
            put_u64(&mut wire, 1); // rsu
            put_u64(&mut wire, 1); // counter
            put_u64(&mut wire, 0); // zero bit length
            if tag == TAG_UPLOAD_SPARSE {
                put_u64(&mut wire, 0); // zero indices
            }
            assert!(PeriodUpload::decode(&wire).is_err());
            assert!(PeriodUploadRef::decode_ref(&wire).is_err());
        }
        // Duplicated and out-of-range sparse indices.
        let assemble_sparse = |indices: &[u64]| {
            let mut wire = vec![TAG_UPLOAD_SPARSE];
            put_u64(&mut wire, 1);
            put_u64(&mut wire, 1);
            put_u64(&mut wire, 64);
            put_u64(&mut wire, indices.len() as u64);
            for &i in indices {
                put_u64(&mut wire, i);
            }
            wire
        };
        for indices in [&[5u64, 5][..], &[9, 3], &[64], &[2, 70]] {
            let wire = assemble_sparse(indices);
            assert!(PeriodUpload::decode(&wire).is_err(), "{indices:?}");
            assert!(PeriodUploadRef::decode_ref(&wire).is_err(), "{indices:?}");
        }
        assert!(PeriodUploadRef::decode_ref(&assemble_sparse(&[3, 8, 63])).is_ok());

        // Batch taxonomy: truncation, checksum flip, duplicate record.
        let batch = BatchUpload::new(vec![sequenced(1, 0, &[5]), good.clone()]).unwrap();
        let wire = batch.encode();
        assert!(BatchUploadRef::decode_ref(&wire).is_ok());
        for cut in 0..wire.len() {
            assert_eq!(
                BatchUpload::decode(&wire[..cut]).is_ok(),
                BatchUploadRef::decode_ref(&wire[..cut]).is_ok(),
                "batch truncation at {cut}"
            );
        }
        for byte in 0..wire.len() {
            let mut bad = wire.to_vec();
            bad[byte] ^= 0x10;
            assert_eq!(
                BatchUpload::decode(&bad).is_ok(),
                BatchUploadRef::decode_ref(&bad).is_ok(),
                "batch bit flip at byte {byte}"
            );
        }
        let mut trailing = wire.to_vec();
        trailing.push(0);
        assert!(BatchUploadRef::decode_ref(&trailing).is_err());
    }

    #[test]
    fn batch_frames_iterator_yields_canonical_views() {
        let frames = vec![
            sequenced(7, 0, &[1, 2]),
            sequenced(3, 1, &[9]),
            sequenced(3, 0, &[4, 200]),
        ];
        let batch = BatchUpload::new(frames).unwrap();
        let wire = batch.encode();
        let view = BatchUploadRef::decode_ref(&wire).unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.frames().len(), 3);
        let keys: Vec<(u64, u64)> = view
            .frames()
            .map(|f| (f.upload().rsu().0, f.seq()))
            .collect();
        assert_eq!(keys, [(3, 0), (3, 1), (7, 0)]);
        for (borrowed, owned) in view.frames().zip(batch.frames()) {
            assert_eq!(borrowed.seq(), owned.seq);
            assert!(borrowed.upload().matches(&owned.upload));
            assert_eq!(borrowed.to_owned_upload(), *owned);
        }
        assert_eq!(view.to_owned_batch(), batch);

        let empty_wire = BatchUpload::new(Vec::new()).unwrap().encode();
        let empty = BatchUploadRef::decode_ref(&empty_wire).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.frames().count(), 0);
    }

    fn checkpoint() -> ServerCheckpoint {
        let upload = |rsu: u64, ones: &[usize]| {
            let mut bits = BitArray::new(256);
            for &i in ones {
                bits.set(i);
            }
            PeriodUpload {
                rsu: RsuId(rsu),
                counter: ones.len() as u64,
                bits,
            }
        };
        ServerCheckpoint {
            alpha: 0.25,
            history: vec![(RsuId(1), 1_500.0), (RsuId(4), 0.0), (RsuId(9), 33.5)],
            seqs: vec![(RsuId(1), 0), (RsuId(9), 7)],
            uploads: vec![upload(1, &[3, 77]), upload(9, &[0, 128, 255])],
        }
    }

    #[test]
    fn checkpoint_roundtrips_including_empty_sections() {
        let c = checkpoint();
        assert_eq!(ServerCheckpoint::decode(&c.encode()).unwrap(), c);
        let empty = ServerCheckpoint {
            alpha: 1.0,
            history: Vec::new(),
            seqs: Vec::new(),
            uploads: Vec::new(),
        };
        assert_eq!(ServerCheckpoint::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn checkpoint_rejects_truncation_wrong_tag_and_trailing_bytes() {
        let wire = checkpoint().encode();
        for cut in 0..wire.len() {
            assert!(ServerCheckpoint::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = wire.to_vec();
        bad[0] = TAG_BATCH;
        assert!(ServerCheckpoint::decode(&bad).is_err());
        let mut trailing = wire.to_vec();
        trailing.push(0);
        assert!(ServerCheckpoint::decode(&trailing).is_err());
    }

    #[test]
    fn checkpoint_rejects_bad_alpha_and_section_order() {
        let mut c = checkpoint();
        c.alpha = 0.0;
        assert!(matches!(
            ServerCheckpoint::decode(&c.encode()),
            Err(SimError::MalformedMessage {
                reason: "checkpoint alpha outside (0, 1]"
            })
        ));
        c.alpha = f64::NAN;
        assert!(ServerCheckpoint::decode(&c.encode()).is_err());
        let mut unsorted = checkpoint();
        unsorted.history.swap(0, 1);
        assert!(matches!(
            ServerCheckpoint::decode(&unsorted.encode()),
            Err(SimError::MalformedMessage {
                reason: "checkpoint history not strictly increasing"
            })
        ));
        let mut dup_seq = checkpoint();
        dup_seq.seqs.push((RsuId(9), 8));
        assert!(ServerCheckpoint::decode(&dup_seq.encode()).is_err());
        let mut dup_upload = checkpoint();
        let again = dup_upload.uploads[0].clone();
        dup_upload.uploads.push(again);
        assert!(matches!(
            ServerCheckpoint::decode(&dup_upload.encode()),
            Err(SimError::MalformedMessage {
                reason: "checkpoint uploads not strictly increasing"
            })
        ));
    }

    #[test]
    fn checkpoint_rejects_absurd_count_claim() {
        // A 17-byte frame must not be able to promise 2^60 history
        // entries and drive a giant validation loop.
        let mut wire = vec![TAG_CHECKPOINT];
        put_u64(&mut wire, 0.5f64.to_bits());
        put_u64(&mut wire, 1 << 60);
        assert!(matches!(
            ServerCheckpoint::decode(&wire),
            Err(SimError::MalformedMessage {
                reason: "checkpoint section count over limit"
            })
        ));
    }

    #[test]
    fn checkpoint_set_roundtrips_and_rejects_corruption() {
        let set = CheckpointSet {
            frames_applied: 12,
            shards: vec![
                checkpoint(),
                ServerCheckpoint {
                    alpha: 1.0,
                    history: Vec::new(),
                    seqs: Vec::new(),
                    uploads: Vec::new(),
                },
            ],
        };
        let wire = set.encode();
        assert_eq!(CheckpointSet::decode(&wire).unwrap(), set);
        for cut in 0..wire.len() {
            assert!(CheckpointSet::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = wire.to_vec();
        bad[0] = TAG_CHECKPOINT;
        assert!(CheckpointSet::decode(&bad).is_err());
        let mut trailing = wire.to_vec();
        trailing.push(0);
        assert!(CheckpointSet::decode(&trailing).is_err());
        // Zero shards is not a deployment.
        let mut empty = vec![TAG_CHECKPOINT_SET];
        put_u64(&mut empty, 0);
        put_u64(&mut empty, 0);
        assert!(matches!(
            CheckpointSet::decode(&empty),
            Err(SimError::MalformedMessage {
                reason: "invalid checkpoint set shard count"
            })
        ));
        // An absurd shard-count claim dies before any allocation.
        let mut absurd = vec![TAG_CHECKPOINT_SET];
        put_u64(&mut absurd, 0);
        put_u64(&mut absurd, u64::MAX);
        assert!(CheckpointSet::decode(&absurd).is_err());
    }
}
