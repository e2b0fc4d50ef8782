//! Fuzz of the client's response decoder.
//!
//! `Response::decode` parses bytes off the network, so no input may
//! panic it: whatever follows a response tag decodes or is a typed
//! `NetError`. Three kinds of input cover it: arbitrary bytes after each
//! response tag; every strict prefix of a tag-34 payload that mixes
//! measured, clamped, degraded and absent entries, at 0, 1 and 3 RSUs
//! (each must be `Malformed`); and every single-bit flip of that
//! payload.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use vcps_core::{DegradedEstimate, Estimate, PairEstimate, RsuId};
use vcps_net::wire::{
    encode_matrix_entries, read_frame, MatrixFrame, Response, RESP_ACK, RESP_ERROR, RESP_ESTIMATE,
    RESP_MATRIX, RESP_OK, RESP_SIZES,
};
use vcps_net::NetError;
use vcps_sim::OdAxis;

/// The response tags the daemon sends.
const RESPONSE_TAGS: [u8; 6] = [
    RESP_ACK,
    RESP_ESTIMATE,
    RESP_MATRIX,
    RESP_SIZES,
    RESP_ERROR,
    RESP_OK,
];

/// The kind byte of an absent tag-34 entry (DESIGN.md §19).
const KIND_ABSENT: u8 = 2;

/// The tag-34 payload the daemon writes for `axes` and `chunks`.
fn matrix_payload(axes: &[OdAxis], chunks: Vec<Vec<u8>>) -> Vec<u8> {
    let mut frame = Vec::new();
    MatrixFrame::new(axes, chunks)
        .write(&mut frame)
        .expect("writes");
    read_frame(&mut frame.as_slice(), u64::MAX).expect("one frame")
}

fn axis(rsu: u64, m: usize, n: u64, v: u64) -> OdAxis {
    OdAxis {
        rsu: RsuId(rsu),
        m,
        n,
        v: f64::from_bits(v),
    }
}

/// A measured estimate of the pair `(x, y)`, `x` playing `B_x`.
fn measured(x: &OdAxis, y: &OdAxis, n_c: u64, v_c: u64, clamped: bool) -> PairEstimate {
    PairEstimate::Measured(Estimate {
        n_c: f64::from_bits(n_c),
        v_x: x.v,
        v_y: y.v,
        v_c: f64::from_bits(v_c),
        m_x: x.m,
        m_y: y.m,
        n_x: x.n,
        n_y: y.n,
        clamped,
    })
}

/// Tag-34 payloads over `words` (bit patterns for every id, counter and
/// `f64`) with their pair count: 0 RSUs; 1 RSU; 3 RSUs whose pairs are
/// measured, clamped and degraded; and 3 RSUs, one without a decodable
/// upload, whose pairs are clamped, absent and degraded. `split` puts
/// each entry in a chunk of its own instead of all in one.
fn mixed_payloads(words: &[u64; 12], split: bool) -> Vec<(Vec<u8>, usize)> {
    let chunks = |entries: Vec<Vec<u8>>| {
        if split {
            entries
        } else {
            vec![entries.concat()]
        }
    };
    let degraded = PairEstimate::Degraded(DegradedEstimate::from_volumes(
        f64::from_bits(words[8]),
        f64::from_bits(words[9]),
        words[10] & 1 == 0,
        words[10] & 2 == 0,
    ));
    // 8 bits against 16: the first RSU plays `B_x` in both pairs.
    let a = axis(words[0], 8, words[1], words[2]);
    let b = axis(words[0].wrapping_add(1), 16, words[3], words[4]);
    let c = axis(words[0].wrapping_add(2), 16, words[5], words[6]);
    let undecodable = OdAxis { m: 0, n: 0, ..c };
    let without_absent = vec![
        encode_matrix_entries(&[measured(&a, &b, words[7], words[11], false)]),
        encode_matrix_entries(&[measured(&a, &c, words[11], words[7], true)]),
        encode_matrix_entries(&[degraded]),
    ];
    let with_absent = vec![
        encode_matrix_entries(&[measured(&a, &b, words[7], words[11], true)]),
        vec![KIND_ABSENT],
        encode_matrix_entries(&[degraded]),
    ];
    vec![
        (matrix_payload(&[], Vec::new()), 0),
        (matrix_payload(&[a], Vec::new()), 0),
        (matrix_payload(&[a, b, c], chunks(without_absent)), 3),
        (matrix_payload(&[a, b, undecodable], chunks(with_absent)), 3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_after_a_response_tag_decode_or_fail_typed(
        other in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        for tag in RESPONSE_TAGS.into_iter().chain([other]) {
            let mut payload = vec![tag];
            payload.extend_from_slice(&body);
            let decoded = Response::decode(&payload);
            if !RESPONSE_TAGS.contains(&tag) {
                prop_assert!(
                    matches!(decoded, Err(NetError::UnknownTag(t)) if t == tag),
                    "tag {}: {:?}",
                    tag,
                    decoded
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mixed_matrix_prefixes_and_bit_flips_never_panic(
        words in any::<[u64; 12]>(),
        split in any::<bool>(),
    ) {
        for (payload, pairs) in mixed_payloads(&words, split) {
            match Response::decode(&payload) {
                Ok(Response::Matrix(matrix)) => {
                    prop_assert_eq!(matrix.entries.len(), pairs);
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "the whole payload must decode as a matrix: {other:?}"
                    )));
                }
            }
            for cut in 0..payload.len() {
                let decoded = Response::decode(&payload[..cut]);
                prop_assert!(
                    matches!(decoded, Err(NetError::Malformed(_))),
                    "prefix of {} of {} bytes: {:?}",
                    cut,
                    payload.len(),
                    decoded
                );
            }
            let mut flipped = payload.clone();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                // Decodes or is a typed error; a panic fails the case.
                let _ = Response::decode(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
