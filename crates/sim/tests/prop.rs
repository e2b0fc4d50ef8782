//! Property tests for the simulator: protocol round-trips, workload
//! structure, and privacy accounting.

use proptest::prelude::*;

use vcps_core::{RsuId, Scheme};
use vcps_durable::fnv1a_64;
use vcps_sim::adversary::observe_pair;
use vcps_sim::pki::TrustedAuthority;
use vcps_sim::protocol::{
    BatchUpload, BatchUploadRef, BitReport, CheckpointSet, PeriodUpload, PeriodUploadRef, Query,
    SequencedUpload, SequencedUploadRef, ServerCheckpoint,
};
use vcps_sim::synthetic::SyntheticPair;
use vcps_sim::{MacAddress, SimError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_wire_roundtrip(rsu in any::<u64>(), size in 2u64..1 << 30, ca_seed in any::<u64>()) {
        let ca = TrustedAuthority::new(ca_seed);
        let q = Query {
            rsu: RsuId(rsu),
            certificate: ca.issue(RsuId(rsu)),
            array_size: size,
        };
        prop_assert_eq!(Query::decode(&q.encode()).unwrap(), q);
    }

    #[test]
    fn report_wire_roundtrip(mac in any::<[u8; 6]>(), index in any::<u64>()) {
        let r = BitReport {
            mac: MacAddress(mac),
            index,
        };
        prop_assert_eq!(BitReport::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn upload_wire_roundtrip_both_encodings(
        rsu in any::<u64>(), counter in any::<u64>(),
        len in 2usize..4_000,
        ones in prop::collection::vec(any::<u32>(), 0..128),
    ) {
        let bits = vcps_bitarray::BitArray::from_indices(
            len,
            ones.iter().map(|&i| i as usize % len),
        )
        .unwrap();
        let u = PeriodUpload {
            rsu: RsuId(rsu),
            counter,
            bits,
        };
        prop_assert_eq!(&PeriodUpload::decode(&u.encode()).unwrap(), &u);
        prop_assert_eq!(&PeriodUpload::decode(&u.encode_compact()).unwrap(), &u);
        prop_assert!(u.encode_compact().len() <= u.encode().len() + 8);
    }

    #[test]
    fn truncated_frames_never_panic(
        tag in 0u8..10,
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // Fuzz every decoder: arbitrary bytes must be rejected or parsed,
        // never panic. The tagged copy carries a tag byte some decoder
        // accepts, so its body is read and not only its tag checked.
        let mut tagged = bytes.clone();
        if let Some(first) = tagged.first_mut() {
            *first = tag;
        }
        for wire in [&bytes, &tagged] {
            let _ = Query::decode(wire);
            let _ = BitReport::decode(wire);
            let _ = PeriodUpload::decode(wire);
            let _ = SequencedUpload::decode(wire);
            let _ = BatchUpload::decode(wire);
            let _ = ServerCheckpoint::decode(wire);
            let _ = CheckpointSet::decode(wire);
            let _ = PeriodUploadRef::decode_ref(wire);
            let _ = SequencedUploadRef::decode_ref(wire);
            let _ = BatchUploadRef::decode_ref(wire);
        }
    }

    #[test]
    fn mutated_query_frames_are_rejected_or_decode_consistently(
        rsu in any::<u64>(), size in 2u64..1 << 30, ca_seed in any::<u64>(),
        cut in 0usize..33, trailing in 1usize..16,
        flip_pos in any::<usize>(), flip_bit in 0u8..8,
    ) {
        let ca = TrustedAuthority::new(ca_seed);
        let q = Query {
            rsu: RsuId(rsu),
            certificate: ca.issue(RsuId(rsu)),
            array_size: size,
        };
        let wire = q.encode().to_vec();
        // Any strict prefix is rejected.
        prop_assert!(Query::decode(&wire[..cut.min(wire.len() - 1)]).is_err());
        // Trailing bytes are rejected.
        let mut padded = wire.clone();
        padded.extend(std::iter::repeat_n(0xAA, trailing));
        prop_assert!(Query::decode(&padded).is_err());
        // A wrong tag is rejected no matter the payload.
        let mut wrong = wire.clone();
        wrong[0] = wrong[0].wrapping_add(1);
        prop_assert!(Query::decode(&wrong).is_err());
        // A flipped bit never panics; if the frame still parses, it
        // re-encodes to exactly the mutated bytes (no silent
        // canonicalization hiding the corruption).
        let mut flipped = wire.clone();
        flipped[flip_pos % wire.len()] ^= 1 << flip_bit;
        if let Ok(d) = Query::decode(&flipped) {
            prop_assert_eq!(d.encode().to_vec(), flipped);
        }
    }

    #[test]
    fn mutated_report_frames_are_rejected_or_decode_consistently(
        mac in any::<[u8; 6]>(), index in any::<u64>(),
        cut in 0usize..15, trailing in 1usize..16,
        flip_pos in any::<usize>(), flip_bit in 0u8..8,
    ) {
        let r = BitReport { mac: MacAddress(mac), index };
        let wire = r.encode().to_vec();
        prop_assert!(BitReport::decode(&wire[..cut.min(wire.len() - 1)]).is_err());
        let mut padded = wire.clone();
        padded.extend(std::iter::repeat_n(0x55, trailing));
        prop_assert!(BitReport::decode(&padded).is_err());
        let mut wrong = wire.clone();
        wrong[0] = wrong[0].wrapping_add(3);
        prop_assert!(BitReport::decode(&wrong).is_err());
        let mut flipped = wire.clone();
        flipped[flip_pos % wire.len()] ^= 1 << flip_bit;
        if let Ok(d) = BitReport::decode(&flipped) {
            prop_assert_eq!(d.encode().to_vec(), flipped);
        }
    }

    #[test]
    fn mutated_upload_frames_never_panic_or_bogus_accept(
        rsu in any::<u64>(), counter in any::<u64>(),
        len in 2usize..4_000,
        ones in prop::collection::vec(any::<u32>(), 0..64),
        cut_frac in 0.0f64..1.0, trailing in 1usize..32,
        flip_pos in any::<usize>(), flip_bit in 0u8..8,
        compact in any::<bool>(),
    ) {
        let bits = vcps_bitarray::BitArray::from_indices(
            len,
            ones.iter().map(|&i| i as usize % len),
        )
        .unwrap();
        let u = PeriodUpload { rsu: RsuId(rsu), counter, bits };
        let wire = if compact {
            u.encode_compact().to_vec()
        } else {
            u.encode().to_vec()
        };
        // Any strict prefix is rejected.
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(PeriodUpload::decode(&wire[..cut]).is_err());
        // Trailing bytes are rejected (both frame kinds check exact
        // payload length).
        let mut padded = wire.clone();
        padded.extend(std::iter::repeat_n(0xAA, trailing));
        prop_assert!(PeriodUpload::decode(&padded).is_err());
        // A wrong tag is rejected.
        let mut wrong = wire.clone();
        wrong[0] ^= 0x80;
        prop_assert!(PeriodUpload::decode(&wrong).is_err());
        // A flipped bit never panics; anything that still parses must
        // round-trip through its own encoding.
        let mut flipped = wire.clone();
        flipped[flip_pos % wire.len()] ^= 1 << flip_bit;
        if let Ok(d) = PeriodUpload::decode(&flipped) {
            prop_assert_eq!(&PeriodUpload::decode(&d.encode()).unwrap(), &d);
        }
    }

    #[test]
    fn mutated_sequenced_upload_frames_never_panic(
        seq in any::<u64>(), rsu in any::<u64>(), counter in any::<u64>(),
        len in 2usize..2_000,
        cut_frac in 0.0f64..1.0, trailing in 1usize..32,
        flip_pos in any::<usize>(), flip_bit in 0u8..8,
    ) {
        let su = SequencedUpload {
            seq,
            upload: PeriodUpload {
                rsu: RsuId(rsu),
                counter,
                bits: vcps_bitarray::BitArray::new(len),
            },
        };
        let wire = su.encode().to_vec();
        prop_assert_eq!(&SequencedUpload::decode(&wire).unwrap(), &su);
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(SequencedUpload::decode(&wire[..cut]).is_err());
        let mut padded = wire.clone();
        padded.extend(std::iter::repeat_n(0xAA, trailing));
        prop_assert!(SequencedUpload::decode(&padded).is_err());
        let mut wrong = wire.clone();
        wrong[0] ^= 0x80;
        prop_assert!(SequencedUpload::decode(&wrong).is_err());
        let mut flipped = wire.clone();
        flipped[flip_pos % wire.len()] ^= 1 << flip_bit;
        if let Ok(d) = SequencedUpload::decode(&flipped) {
            prop_assert_eq!(&SequencedUpload::decode(&d.encode()).unwrap(), &d);
        }
    }

    #[test]
    fn synthetic_pair_structure(
        n_x in 1u64..2_000, extra_y in 0u64..2_000, n_c_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let n_y = n_x + extra_y;
        let n_c = (n_c_frac * n_x.min(n_y) as f64) as u64;
        let w = SyntheticPair::generate(n_x, n_y, n_c, seed);
        prop_assert_eq!(w.n_x(), n_x);
        prop_assert_eq!(w.n_y(), n_y);
        prop_assert_eq!(w.n_c(), n_c);
    }

    #[test]
    fn adversary_counts_are_consistent(
        n_x in 50u64..800, skew in 1u64..10, seed in any::<u64>(),
    ) {
        let n_y = n_x * skew;
        let n_c = n_x / 5;
        let scheme = Scheme::variable(2, 3.0, seed).unwrap();
        let w = SyntheticPair::generate(n_x, n_y, n_c, seed);
        let obs = observe_pair(&scheme, &w, RsuId(1), RsuId(2)).unwrap();
        prop_assert!(obs.untraceable <= obs.both_set);
        if let Some(p) = obs.empirical_privacy() {
            prop_assert!((0.0..=1.0).contains(&p));
        }
        // With zero common vehicles every both-set position is untraceable.
        let disjoint = SyntheticPair::generate(n_x, n_y, 0, seed);
        let obs0 = observe_pair(&scheme, &disjoint, RsuId(1), RsuId(2)).unwrap();
        prop_assert_eq!(obs0.untraceable, obs0.both_set);
    }
}

/// Assembles a raw batch wire frame from pre-encoded inner records,
/// declaring `count` frames regardless of how many records follow. Each
/// record carries a *valid* checksum, so the splice tests exercise the
/// ordering invariant rather than tripping the checksum guard first.
fn splice_batch_wire(records: &[Vec<u8>], count: u64) -> Vec<u8> {
    let mut wire = vec![6u8]; // TAG_BATCH
    wire.extend_from_slice(&count.to_be_bytes());
    for record in records {
        wire.extend_from_slice(&(record.len() as u64).to_be_bytes());
        wire.extend_from_slice(&fnv1a_64(record).to_be_bytes());
        wire.extend_from_slice(record);
    }
    wire
}

fn malformed_reason(err: &SimError) -> &'static str {
    match err {
        SimError::MalformedMessage { reason } => reason,
        other => panic!("expected MalformedMessage, got {other:?}"),
    }
}

/// Builds a batch with strictly increasing `(rsu, seq)` keys from the
/// proptest spec: per-frame `(rsu gap, seq, counter, 2^k length, ones)`.
fn batch_from_specs(specs: &[(u64, u64, u64, u32, Vec<u32>)]) -> BatchUpload {
    let mut rsu = 0u64;
    let frames = specs
        .iter()
        .map(|(gap, seq, counter, k, ones)| {
            rsu += gap;
            let len = 1usize << k;
            SequencedUpload {
                seq: *seq,
                upload: PeriodUpload {
                    rsu: RsuId(rsu),
                    counter: *counter,
                    bits: vcps_bitarray::BitArray::from_indices(
                        len,
                        ones.iter().map(|&v| v as usize % len),
                    )
                    .unwrap(),
                },
            }
        })
        .collect();
    BatchUpload::new(frames).expect("keys are strictly increasing by construction")
}

// Decoder-mutation properties for the batch frame (tag 6): a corrupted,
// truncated, reordered, or duplicated batch must surface as a typed
// `SimError::MalformedMessage` — never a panic, never a silent accept of
// content that differs from what a healthy sender produced.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_wire_roundtrip(
        specs in prop::collection::vec(
            (1u64..40, any::<u64>(), any::<u64>(), 1u32..9,
             prop::collection::vec(any::<u32>(), 0..24)),
            0..12,
        ),
    ) {
        let batch = batch_from_specs(&specs);
        let decoded = BatchUpload::decode(&batch.encode()).unwrap();
        prop_assert_eq!(&decoded, &batch);
        // Canonical order survives the trip: keys strictly increase.
        let keys: Vec<_> = decoded.frames().iter().map(|f| (f.upload.rsu, f.seq)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mutated_batch_frames_never_panic_or_bogus_accept(
        specs in prop::collection::vec(
            (1u64..40, any::<u64>(), any::<u64>(), 1u32..8,
             prop::collection::vec(any::<u32>(), 0..16)),
            1..8,
        ),
        cut_frac in 0.0f64..1.0, trailing in 1usize..32,
        flip_pos in any::<usize>(), flip_bit in 0u8..8,
    ) {
        let batch = batch_from_specs(&specs);
        let wire = batch.encode().to_vec();

        // Any strict prefix is rejected.
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(BatchUpload::decode(&wire[..cut]).is_err());

        // Trailing bytes are rejected by name.
        let mut padded = wire.clone();
        padded.extend(std::iter::repeat_n(0xAA, trailing));
        let err = BatchUpload::decode(&padded).unwrap_err();
        prop_assert_eq!(malformed_reason(&err), "trailing bytes after batch");

        // A wrong tag is rejected outright.
        let mut wrong = wire.clone();
        wrong[0] ^= 0x80;
        prop_assert!(BatchUpload::decode(&wrong).is_err());

        // A flipped bit never panics; if the frame somehow still parses
        // it must round-trip through its own canonical encoding.
        let mut flipped = wire.clone();
        let pos = flip_pos % wire.len();
        flipped[pos] ^= 1 << flip_bit;
        match BatchUpload::decode(&flipped) {
            Ok(d) => prop_assert_eq!(BatchUpload::decode(&d.encode()).unwrap(), d),
            Err(SimError::MalformedMessage { .. }) => {}
            Err(other) => prop_assert!(false, "untyped decode error: {other:?}"),
        }

        // A flip inside a record's payload (past its 16-byte header) is
        // *always* caught: that is exactly what the per-record checksum
        // buys over the plain concatenated encoding.
        let mut offset = 9usize; // tag + count header
        for frame in batch.frames() {
            let len = frame.encode().len();
            let payload = offset + 16..offset + 16 + len;
            if payload.contains(&pos) {
                let err = BatchUpload::decode(&flipped).unwrap_err();
                prop_assert_eq!(
                    malformed_reason(&err),
                    "batch record checksum mismatch"
                );
            }
            offset = payload.end;
        }
    }

    #[test]
    fn reordered_or_duplicated_batch_records_are_rejected(
        specs in prop::collection::vec(
            (1u64..40, any::<u64>(), any::<u64>(), 1u32..8,
             prop::collection::vec(any::<u32>(), 0..16)),
            2..8,
        ),
        swap_a in any::<usize>(),
        swap_b in any::<usize>(),
        dup in any::<usize>(),
    ) {
        let batch = batch_from_specs(&specs);
        let records: Vec<Vec<u8>> =
            batch.frames().iter().map(|f| f.encode().to_vec()).collect();
        let count = records.len() as u64;

        // The spliced wire with untouched records decodes to the batch —
        // the splicer is faithful, so rejections below are real.
        let control = splice_batch_wire(&records, count);
        prop_assert_eq!(BatchUpload::decode(&control).unwrap(), batch.clone());

        // Swapping two records keeps every checksum valid but breaks the
        // strictly-increasing key order.
        let (i, j) = (swap_a % records.len(), swap_b % records.len());
        if i != j {
            let mut swapped = records.clone();
            swapped.swap(i, j);
            let err = BatchUpload::decode(&splice_batch_wire(&swapped, count)).unwrap_err();
            prop_assert_eq!(
                malformed_reason(&err),
                "batch records not strictly increasing"
            );
        }

        // Replaying a record (a re-sent shard bucket, say) is rejected
        // for the same reason: its key is not greater than its twin's.
        let mut doubled = records.clone();
        let d = dup % records.len();
        doubled.insert(d, records[d].clone());
        let err = BatchUpload::decode(&splice_batch_wire(&doubled, count + 1)).unwrap_err();
        prop_assert_eq!(
            malformed_reason(&err),
            "batch records not strictly increasing"
        );

        // A count header that disagrees with the records present fails
        // on the side it errs: short count leaves trailing bytes, long
        // count runs out of record headers.
        let err = BatchUpload::decode(&splice_batch_wire(&records, count - 1)).unwrap_err();
        prop_assert_eq!(malformed_reason(&err), "trailing bytes after batch");
        let err = BatchUpload::decode(&splice_batch_wire(&records, count + 1)).unwrap_err();
        prop_assert_eq!(malformed_reason(&err), "truncated batch record header");

        // The constructor enforces the same invariant the decoder does:
        // handing it a duplicated frame is a typed error, not a panic.
        let mut frames = batch.frames().to_vec();
        frames.push(frames[dup % frames.len()].clone());
        let err = BatchUpload::new(frames).unwrap_err();
        prop_assert_eq!(malformed_reason(&err), "duplicate (rsu, seq) in batch");
    }
}

// The batch O–D matrix decoder must be indistinguishable from the
// pairwise estimate loop: same entries (up to the documented transpose
// of degraded labels), at every thread count, for any mix of uploaded
// and history-only RSUs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn od_matrix_matches_pairwise_loop_at_every_thread_count(
        specs in prop::collection::vec(
            (
                1u32..9,                                    // len = 2^k
                prop::collection::vec(any::<u32>(), 0..48), // reported indices
                1u64..5_000,                                // period counter
                any::<bool>(),                              // history-only RSU?
            ),
            2..8,
        ),
        seed in any::<u64>(),
    ) {
        use vcps_sim::CentralServer;

        let scheme = Scheme::variable(2, 3.0, seed).unwrap();
        let mut server = CentralServer::new(scheme, 0.5).unwrap();
        for (i, (k, ones, counter, history_only)) in specs.iter().enumerate() {
            let rsu = RsuId(i as u64);
            if *history_only {
                server.seed_history(rsu, *counter as f64);
            } else {
                let len = 1usize << k;
                let bits = vcps_bitarray::BitArray::from_indices(
                    len,
                    ones.iter().map(|&v| v as usize % len),
                )
                .unwrap();
                server.receive(PeriodUpload { rsu, counter: *counter, bits });
            }
        }

        for threads in [1usize, 2, 4, 8] {
            let matrix = server.od_matrix_threads(threads).unwrap();
            prop_assert_eq!(matrix.len(), specs.len());
            let rsus = matrix.rsus().to_vec();
            for (i, &a) in rsus.iter().enumerate() {
                for (j, &b) in rsus.iter().enumerate() {
                    if i == j {
                        prop_assert!(matrix.at(i, j).is_none());
                        continue;
                    }
                    let pairwise = server.estimate_or_degraded(a, b).unwrap();
                    prop_assert_eq!(matrix.at(i, j), Some(&pairwise));
                    prop_assert_eq!(matrix.get(a, b), Some(&pairwise));
                }
            }
        }
    }
}

// The persistent-pool work distribution must be invisible: any routine
// built on it returns exactly what its sequential form returns, at
// every thread count, regardless of how the chunk claimer slices the
// input across workers.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_map_preserves_order_and_values_at_every_thread_count(
        items in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        // Mixing function with full avalanche, so a single swapped or
        // duplicated element anywhere in the output cannot cancel out.
        let f = |&v: &u64| v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v;
        let sequential: Vec<u64> = items.iter().map(f).collect();
        for threads in [1usize, 2, 4, 8] {
            let parallel = vcps_sim::concurrent::parallel_map_threads(items.clone(), threads, f);
            prop_assert_eq!(&parallel, &sequential, "threads = {}", threads);
        }
    }
}
