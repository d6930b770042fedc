//! Property tests for the live runtime's binary wire format.
//!
//! The format carries adversarial content by design (Byzantine nodes send
//! arbitrary vectors), so the properties cover bit-exact round-trips of
//! non-finite payloads and strict rejection of malformed buffers.

use garfield_net::{MsgKind, NetError, WireMessage, WIRE_HEADER_BYTES, WIRE_VERSION};
use proptest::prelude::*;

fn kind_from_selector(selector: u8) -> MsgKind {
    let kinds = MsgKind::all();
    kinds[selector as usize % kinds.len()]
}

/// Maps a selector to a "hostile" float: non-finite values, signed zeros and
/// denormals alongside ordinary magnitudes.
fn special_value(selector: u8, magnitude: f32) -> f32 {
    match selector % 8 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f32::MIN_POSITIVE / 2.0, // subnormal
        6 => magnitude,
        _ => -magnitude,
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn round_trip_is_the_identity(
        kind_sel in 0u8..6,
        round in 0u64..u64::MAX,
        aux_sel in 0u8..8,
        selectors in prop::collection::vec(0u8..8, 0..48),
        magnitudes in prop::collection::vec(-1.0e30f32..1.0e30, 48),
    ) {
        let values: Vec<f32> = selectors
            .iter()
            .zip(&magnitudes)
            .map(|(&s, &m)| special_value(s, m))
            .collect();
        let msg = WireMessage::new(
            kind_from_selector(kind_sel),
            round,
            special_value(aux_sel, 123.456),
            values,
        );
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.encoded_len());
        let back = WireMessage::decode(&encoded).unwrap();
        prop_assert_eq!(back.kind, msg.kind);
        prop_assert_eq!(back.round, msg.round);
        // Bit-level comparison so NaN payloads count as preserved.
        prop_assert_eq!(back.aux.to_bits(), msg.aux.to_bits());
        prop_assert_eq!(bits(&back.values), bits(&msg.values));
    }

    #[test]
    fn any_truncation_is_rejected(
        kind_sel in 0u8..6,
        round in 0u64..1_000_000,
        values in prop::collection::vec(-1.0f32..1.0, 0..32),
        cut_seed in 0usize..10_000,
    ) {
        let msg = WireMessage::new(kind_from_selector(kind_sel), round, 0.5, values);
        let encoded = msg.encode();
        let cut = cut_seed % encoded.len(); // strictly shorter than the full buffer
        prop_assert_eq!(
            WireMessage::decode(&encoded[..cut]),
            Err(NetError::WireSize {
                expected: if cut < WIRE_HEADER_BYTES { WIRE_HEADER_BYTES } else { encoded.len() },
                actual: cut,
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected(
        values in prop::collection::vec(-1.0f32..1.0, 0..16),
        extra in prop::collection::vec(0u8..=255, 1..9),
    ) {
        let msg = WireMessage::new(MsgKind::ModelReply, 3, 0.0, values);
        let mut buf = msg.encode().to_vec();
        let expected = buf.len();
        buf.extend_from_slice(&extra);
        prop_assert_eq!(
            WireMessage::decode(&buf),
            Err(NetError::WireSize { expected, actual: buf.len() })
        );
    }

    #[test]
    fn wrong_version_and_unknown_kind_are_rejected(
        version in 0u8..=255,
        kind_byte in 0u8..=255,
        values in prop::collection::vec(-1.0f32..1.0, 0..8),
    ) {
        prop_assume!(version != WIRE_VERSION);
        prop_assume!(kind_byte as usize >= MsgKind::COUNT);
        let mut buf = WireMessage::new(MsgKind::GradientReply, 9, 0.0, values).encode().to_vec();
        buf[0] = version;
        prop_assert_eq!(WireMessage::decode(&buf), Err(NetError::WireVersion(version)));
        // The version check fires first; with a valid version an unknown kind fires.
        buf[0] = WIRE_VERSION;
        buf[1] = kind_byte;
        prop_assert_eq!(WireMessage::decode(&buf), Err(NetError::WireKind(kind_byte)));
    }

    #[test]
    fn announced_length_must_match_the_buffer(
        values in prop::collection::vec(-1.0f32..1.0, 0..16),
        bump in 1u32..1000,
    ) {
        // Corrupt the length prefix so the header announces a different
        // payload size than the buffer carries.
        let msg = WireMessage::new(MsgKind::GradientRequest, 1, 0.0, values);
        let mut buf = msg.encode().to_vec();
        let lied = msg.values.len() as u32 + bump;
        buf[44..48].copy_from_slice(&lied.to_le_bytes());
        prop_assert_eq!(
            WireMessage::decode(&buf),
            Err(NetError::WireSize {
                expected: WIRE_HEADER_BYTES + 4 * lied as usize,
                actual: buf.len(),
            })
        );
    }

    #[test]
    fn shard_tags_round_trip_bit_identically(
        kind_sel in 0u8..6,
        round in 0u64..u64::MAX,
        shard in 0u16..u16::MAX,
        offset in 0u32..u32::MAX / 2,
        selectors in prop::collection::vec(0u8..8, 1..48),
        magnitudes in prop::collection::vec(-1.0e30f32..1.0e30, 48),
    ) {
        let values: Vec<f32> = selectors
            .iter()
            .zip(&magnitudes)
            .map(|(&s, &m)| special_value(s, m))
            .collect();
        let len = values.len() as u32;
        let msg = WireMessage::new(kind_from_selector(kind_sel), round, 0.5, values)
            .with_shard(shard, offset, len);
        let back = WireMessage::decode(&msg.encode()).unwrap();
        prop_assert_eq!(back.shard, shard);
        prop_assert_eq!(back.coord_offset, offset);
        prop_assert_eq!(back.coord_len, len);
        prop_assert_eq!(bits(&back.values), bits(&msg.values));
    }

    #[test]
    fn shard_ranges_disagreeing_with_the_payload_are_rejected(
        values in prop::collection::vec(-1.0f32..1.0, 0..16),
        lied in 1u32..1000,
    ) {
        // A coord_len that is non-zero and differs from the payload length
        // must fail strictly (coord_len 0 marks an unsharded message).
        prop_assume!(lied as usize != values.len());
        let payload_len = values.len();
        let msg = WireMessage::new(MsgKind::GradientReply, 5, 0.0, values);
        let mut buf = msg.encode().to_vec();
        buf[20..24].copy_from_slice(&lied.to_le_bytes());
        prop_assert_eq!(
            WireMessage::decode(&buf),
            Err(NetError::WireShard {
                coord_offset: 0,
                coord_len: lied,
                payload_len,
            })
        );
    }

    #[test]
    fn encode_parts_writes_one_le_word_per_value_after_the_header(
        kind_sel in 0u8..6,
        round in 0u64..u64::MAX,
        words in prop::collection::vec(0u32..=u32::MAX, 0..96),
        sharded_sel in 0u8..2,
    ) {
        // Any bit pattern, NaN payloads included, as the payload.
        let values: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
        let len = values.len() as u32;
        let sharded = sharded_sel == 1;
        let shard = if sharded { (3, 17, len) } else { (0, 0, 0) };
        let kind = kind_from_selector(kind_sel);
        let got = WireMessage::encode_parts(kind, round, 0.5, shard, &values);
        // The previous encoder: zero-fill the payload, then copy each value's
        // little-endian bytes into its 4-byte chunk.
        let mut want = WireMessage::encode_parts(kind, round, 0.5, shard, &[]);
        want.truncate(WIRE_HEADER_BYTES);
        want[44..48].copy_from_slice(&len.to_le_bytes());
        if sharded {
            want[20..24].copy_from_slice(&len.to_le_bytes());
        }
        want.resize(WIRE_HEADER_BYTES + 4 * values.len(), 0);
        for (dst, v) in want[WIRE_HEADER_BYTES..].chunks_exact_mut(4).zip(&values) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn stamping_trace_fields_never_perturbs_the_logical_message(
        kind_sel in 0u8..6,
        round in 0u64..u64::MAX,
        values in prop::collection::vec(-1.0e30f32..1.0e30, 0..32),
        origin in 0u32..u32::MAX,
        seq in 0u64..u64::MAX,
        sent in 0u64..u64::MAX,
    ) {
        let msg = WireMessage::new(kind_from_selector(kind_sel), round, 0.5, values);
        let mut buf = msg.encode_vec();
        garfield_net::stamp_trace(&mut buf, origin, seq, sent);
        let header = WireMessage::peek(&buf).unwrap();
        prop_assert_eq!(header.origin, origin);
        prop_assert_eq!(header.seq, seq);
        prop_assert_eq!(header.sent_unix_us, sent);
        let back = WireMessage::decode(&buf).unwrap();
        prop_assert_eq!(back.kind, msg.kind);
        prop_assert_eq!(back.round, msg.round);
        prop_assert_eq!(bits(&back.values), bits(&msg.values));
    }
}
