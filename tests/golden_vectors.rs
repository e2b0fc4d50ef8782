//! Golden wire vectors: one frozen binary frame per protocol tag.
//!
//! The `tests/data/*.bin` files are the wire format's source of truth —
//! a deployed fleet of RSUs and servers can only interoperate across
//! versions if these bytes never change. Each test re-encodes a fixed
//! frame and asserts it is byte-identical to the checked-in vector, then
//! decodes the vector and round-trips it. A mismatch means the wire
//! format changed: that is a breaking protocol revision, not a test to
//! update casually.
//!
//! To regenerate after a *deliberate* format change:
//! `cargo test --test golden_vectors -- --ignored regenerate`

use std::path::PathBuf;

use vcps::sim::pki::TrustedAuthority;
use vcps::sim::protocol::{
    BatchUpload, BitReport, CheckpointSet, PeriodUpload, PeriodUploadRef, Query, SequencedUpload,
    ServerCheckpoint,
};
use vcps::sim::{MacAddress, SimError, SimRsu};
use vcps::{BitArray, RsuId};

fn data_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Tag 1 — a query from a deterministic RSU/authority pair (the
/// certificate is a keyed hash, so fixed seeds give fixed bytes).
fn golden_query() -> Query {
    let authority = TrustedAuthority::new(0x60_1D);
    SimRsu::new(RsuId(3), 1 << 10, &authority)
        .expect("valid size")
        .query()
}

/// Tag 2 — a bit report with a locally-administered one-time MAC.
fn golden_report() -> BitReport {
    BitReport {
        mac: MacAddress([0x02, 0xDE, 0xAD, 0xBE, 0xEF, 0x01]),
        index: 0x0123_4567,
    }
}

/// Tag 3 — a dense period upload (fill well above the sparse cutoff).
fn golden_upload_dense() -> PeriodUpload {
    PeriodUpload {
        rsu: RsuId(7),
        counter: 40,
        bits: BitArray::from_indices(64, (0..32usize).map(|i| i * 2)).expect("in range"),
    }
}

/// Tag 4 — a sparse period upload (3 set bits in 1024 forces the
/// index-list encoding in `encode_compact`).
fn golden_upload_sparse() -> PeriodUpload {
    PeriodUpload {
        rsu: RsuId(9),
        counter: 3,
        bits: BitArray::from_indices(1024, [5usize, 600, 1023]).expect("in range"),
    }
}

/// Tag 5 — a sequenced upload wrapping the sparse frame.
fn golden_sequenced() -> SequencedUpload {
    SequencedUpload {
        seq: 11,
        upload: golden_upload_sparse(),
    }
}

/// Tag 6 — a batch of two sequenced uploads (ascending RSU ids, mixed
/// dense/sparse inner encodings, per-record checksums).
fn golden_batch() -> BatchUpload {
    BatchUpload::new(vec![
        SequencedUpload {
            seq: 4,
            upload: golden_upload_dense(),
        },
        golden_sequenced(),
    ])
    .expect("strictly increasing (rsu, seq)")
}

/// Tag 7 — one shard's durable snapshot: EWMA alpha, history and
/// sequence tables keyed by ascending RSU id, and both upload shapes.
fn golden_checkpoint() -> ServerCheckpoint {
    ServerCheckpoint {
        alpha: 0.5,
        history: vec![(RsuId(7), 40.0), (RsuId(9), 3.0)],
        seqs: vec![(RsuId(7), 4), (RsuId(9), 11)],
        uploads: vec![golden_upload_dense(), golden_upload_sparse()],
    }
}

/// Tag 8 — a two-shard checkpoint set (one populated shard, one empty)
/// stamped with the WAL position it covers.
fn golden_checkpoint_set() -> CheckpointSet {
    CheckpointSet {
        frames_applied: 2,
        shards: vec![
            golden_checkpoint(),
            ServerCheckpoint {
                alpha: 0.5,
                history: Vec::new(),
                seqs: Vec::new(),
                uploads: Vec::new(),
            },
        ],
    }
}

/// Every golden vector: `(file name, frozen wire bytes)`.
fn vectors() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("query.bin", golden_query().encode().to_vec()),
        ("report.bin", golden_report().encode().to_vec()),
        ("upload_dense.bin", golden_upload_dense().encode().to_vec()),
        (
            "upload_sparse.bin",
            golden_upload_sparse().encode_compact().to_vec(),
        ),
        ("sequenced.bin", golden_sequenced().encode().to_vec()),
        ("batch.bin", golden_batch().encode().to_vec()),
        ("ckpt_server.bin", golden_checkpoint().encode().to_vec()),
        ("ckpt_set.bin", golden_checkpoint_set().encode().to_vec()),
    ]
}

/// Builds an upload header by hand — these frames are unrepresentable
/// through the encoders (the types cannot hold a zero-length or
/// 2^32-bit array), so the error vectors are raw bytes.
fn err_upload_header(tag: u8, rsu: u64, len: u64, ones: Option<u64>) -> Vec<u8> {
    let mut v = vec![tag];
    v.extend_from_slice(&rsu.to_be_bytes());
    v.extend_from_slice(&0u64.to_be_bytes()); // counter
    v.extend_from_slice(&len.to_be_bytes());
    if let Some(o) = ones {
        v.extend_from_slice(&o.to_be_bytes());
    }
    v
}

/// Error-path vectors: `(file name, frozen malformed bytes)`. Every
/// frame here claims an out-of-bounds bit array length — zero, or past
/// the 2^32 `MAX_UPLOAD_BITS` cap — and must be rejected identically by
/// the dense and sparse decoders, owned and borrowed alike, *before*
/// any allocation sized from the hostile length field.
fn error_vectors() -> Vec<(&'static str, Vec<u8>)> {
    const OVER_CAP: u64 = (1 << 32) + 64;
    vec![
        (
            "err_upload_dense_zero.bin",
            err_upload_header(3, 7, 0, None),
        ),
        (
            "err_upload_sparse_zero.bin",
            err_upload_header(4, 9, 0, Some(0)),
        ),
        (
            "err_upload_dense_overlong.bin",
            err_upload_header(3, 7, OVER_CAP, None),
        ),
        (
            "err_upload_sparse_overlong.bin",
            err_upload_header(4, 9, OVER_CAP, Some(0)),
        ),
    ]
}

#[test]
fn golden_vectors_freeze_the_wire_format() {
    for (name, encoded) in vectors() {
        let frozen = std::fs::read(data_path(name)).unwrap_or_else(|e| {
            panic!("missing golden vector {name}: {e} (run the ignored `regenerate` test once)")
        });
        assert_eq!(
            encoded, frozen,
            "{name}: encoder output diverged from the frozen wire bytes — \
             this is a breaking protocol change"
        );
    }
}

#[test]
fn golden_vectors_decode_and_round_trip() {
    let query = Query::decode(&std::fs::read(data_path("query.bin")).unwrap()).unwrap();
    assert_eq!(query.rsu, RsuId(3));
    assert_eq!(query.encode().to_vec(), golden_query().encode().to_vec());

    let report = BitReport::decode(&std::fs::read(data_path("report.bin")).unwrap()).unwrap();
    assert_eq!(report, golden_report());
    assert_eq!(report.encode(), golden_report().encode());

    let dense =
        PeriodUpload::decode(&std::fs::read(data_path("upload_dense.bin")).unwrap()).unwrap();
    assert_eq!(dense, golden_upload_dense());

    // The sparse frame decodes to the *same* upload a dense frame would —
    // the compact encoding is a transport detail, not a data change.
    let sparse =
        PeriodUpload::decode(&std::fs::read(data_path("upload_sparse.bin")).unwrap()).unwrap();
    assert_eq!(sparse, golden_upload_sparse());
    assert_eq!(
        PeriodUpload::decode(&golden_upload_sparse().encode()).unwrap(),
        sparse
    );

    let sequenced =
        SequencedUpload::decode(&std::fs::read(data_path("sequenced.bin")).unwrap()).unwrap();
    assert_eq!(sequenced, golden_sequenced());

    let batch = BatchUpload::decode(&std::fs::read(data_path("batch.bin")).unwrap()).unwrap();
    assert_eq!(batch.frames(), golden_batch().frames());
    assert_eq!(batch.encode(), golden_batch().encode());

    let ckpt =
        ServerCheckpoint::decode(&std::fs::read(data_path("ckpt_server.bin")).unwrap()).unwrap();
    assert_eq!(ckpt, golden_checkpoint());
    assert_eq!(ckpt.encode(), golden_checkpoint().encode());

    let set = CheckpointSet::decode(&std::fs::read(data_path("ckpt_set.bin")).unwrap()).unwrap();
    assert_eq!(set, golden_checkpoint_set());
    assert_eq!(set.encode(), golden_checkpoint_set().encode());
}

#[test]
fn golden_error_vectors_reject_with_the_frozen_reason() {
    for (name, bytes) in error_vectors() {
        let frozen = std::fs::read(data_path(name)).unwrap_or_else(|e| {
            panic!("missing golden vector {name}: {e} (run the ignored `regenerate` test once)")
        });
        assert_eq!(
            bytes, frozen,
            "{name}: error vector construction diverged from the frozen bytes"
        );
        let owned = PeriodUpload::decode(&frozen);
        let borrowed = PeriodUploadRef::decode_ref(&frozen);
        for (path, result) in [("owned", owned.err()), ("borrowed", borrowed.err())] {
            match result {
                Some(SimError::MalformedMessage { reason }) => assert_eq!(
                    reason, "invalid bit array length in upload",
                    "{name} ({path}): rejection reason drifted — the \
                     zero-length / over-cap check is no longer unified"
                ),
                other => panic!("{name} ({path}): expected MalformedMessage, got {other:?}"),
            }
        }
    }
}

/// The checkpoint decoders read what recovery loads from disk, so a torn
/// or corrupted image must come back as a typed error: every strict
/// prefix of the frozen images is a `MalformedMessage`, and every
/// single-bit flip decodes or is refused with one — nothing panics.
#[test]
fn golden_checkpoint_truncations_and_bit_flips_never_panic() {
    type Decode = fn(&[u8]) -> Result<(), SimError>;
    let decoders: [(&str, Decode); 2] = [
        ("ckpt_server.bin", |w| ServerCheckpoint::decode(w).map(drop)),
        ("ckpt_set.bin", |w| CheckpointSet::decode(w).map(drop)),
    ];
    for (name, decode) in decoders {
        let wire = std::fs::read(data_path(name)).unwrap();
        assert_eq!(decode(&wire), Ok(()), "{name}");
        for cut in 0..wire.len() {
            assert!(
                matches!(decode(&wire[..cut]), Err(SimError::MalformedMessage { .. })),
                "{name} cut at {cut}"
            );
        }
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut flipped = wire.clone();
                flipped[byte] ^= 1 << bit;
                if let Err(e) = decode(&flipped) {
                    assert!(
                        matches!(e, SimError::MalformedMessage { .. }),
                        "{name} bit {bit} of byte {byte}: {e:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn golden_vectors_cover_every_protocol_tag() {
    let tags: Vec<u8> = vectors().iter().map(|(_, bytes)| bytes[0]).collect();
    assert_eq!(
        tags,
        vec![1, 2, 3, 4, 5, 6, 7, 8],
        "one vector per wire tag"
    );
}

/// Regenerates every golden vector. Ignored by default: running it is a
/// deliberate act that rewrites the protocol's source of truth.
#[test]
#[ignore = "rewrites the frozen wire vectors"]
fn regenerate() {
    let dir = data_path("");
    std::fs::create_dir_all(&dir).expect("create tests/data");
    for (name, encoded) in vectors().into_iter().chain(error_vectors()) {
        std::fs::write(data_path(name), &encoded).expect("write golden vector");
        println!("wrote {name} ({} bytes)", encoded.len());
    }
}
