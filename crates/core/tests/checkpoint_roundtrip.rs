//! Property tests of the crash-recovery checkpoint format.
//!
//! A checkpoint is only worth writing if loading it back reproduces the
//! training state *exactly* — including the hostile corners: NaN and ±inf
//! model coordinates (a run that diverged, or Byzantine state adopted over
//! the wire), signed zeros, subnormals, extreme RNG state words. And a file
//! that was truncated or corrupted by a dying machine must fail loudly,
//! never resume a half-read chimera.

use garfield_core::checkpoint::CHECKPOINT_FILE;
use garfield_core::Checkpoint;
use proptest::prelude::*;

/// Maps a selector to a "hostile" float: non-finite values, signed zeros and
/// subnormals alongside ordinary magnitudes.
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

/// A vector of hostile floats (selector picks the special value class).
fn floats(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u8..=255, -1.0e30f32..1.0e30), 0..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(sel, mag)| special_value(sel, mag))
            .collect()
    })
}

/// `Option<[u64; 4]>` RNG state words over the full word range.
fn rng_words() -> impl Strategy<Value = Option<[u64; 4]>> {
    (
        0u8..2,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
    )
        .prop_map(|(flag, a, b, c, d)| (flag == 1).then_some([a, b, c, d]))
}

fn checkpoint_strategy() -> impl Strategy<Value = Checkpoint> {
    (
        (
            1usize..13,
            0u64..=u64::MAX,
            0u64..1_000_000,
            0u64..=u64::MAX,
        ),
        floats(64),
        (0u8..2, floats(64)),
        rng_words(),
        rng_words(),
    )
        .prop_map(
            |((system_len, seed, round, opt_steps), model, (vflag, velocity), fr, ar)| {
                Checkpoint {
                    // Length 1..=12 walks every word-padding residue of the
                    // wire encoding.
                    system: "s".repeat(system_len),
                    seed,
                    round,
                    opt_steps,
                    model,
                    velocity: (vflag == 1).then_some(velocity),
                    fault_rng: fr,
                    attack_rng: ar,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn binary_round_trip_is_bit_exact(cp in checkpoint_strategy()) {
        let back = Checkpoint::decode(&cp.encode()).unwrap();
        prop_assert_eq!(&back.system, &cp.system);
        prop_assert_eq!(back.seed, cp.seed);
        prop_assert_eq!(back.round, cp.round);
        prop_assert_eq!(back.opt_steps, cp.opt_steps);
        prop_assert_eq!(bits(&back.model), bits(&cp.model));
        prop_assert_eq!(back.velocity.is_some(), cp.velocity.is_some());
        if let (Some(b), Some(c)) = (&back.velocity, &cp.velocity) {
            prop_assert_eq!(bits(b), bits(c));
        }
        prop_assert_eq!(back.fault_rng, cp.fault_rng);
        prop_assert_eq!(back.attack_rng, cp.attack_rng);
    }

    #[test]
    fn wire_words_round_trip_is_bit_exact(cp in checkpoint_strategy()) {
        // The StateChunk transport: the record bit-cast into f32 payload
        // words (some of which alias signaling NaNs) and back.
        let back = Checkpoint::from_wire_words(&cp.to_wire_words()).unwrap();
        prop_assert_eq!(&back.system, &cp.system);
        prop_assert_eq!(bits(&back.model), bits(&cp.model));
        prop_assert_eq!(back.round, cp.round);
        prop_assert_eq!(back.fault_rng, cp.fault_rng);
    }

    #[test]
    fn save_load_round_trip_is_bit_exact(cp in checkpoint_strategy()) {
        // Unique directory per case: proptest shrinking replays cases
        // concurrently with nothing shared.
        let dir = std::env::temp_dir().join(format!(
            "garfield-ckpt-prop-{}-{}",
            std::process::id(),
            cp.seed ^ cp.round
        ));
        let _ = std::fs::remove_dir_all(&dir);
        cp.save(&dir).unwrap();
        let back = Checkpoint::load(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(bits(&back.model), bits(&cp.model));
        prop_assert_eq!(back.opt_steps, cp.opt_steps);
        prop_assert_eq!(back.velocity.map(|v| bits(&v)), cp.velocity.as_deref().map(bits));
    }

    #[test]
    fn every_truncation_is_a_decode_error(cp in checkpoint_strategy(), cut in 0usize..512) {
        // A machine can die mid-write; the atomic rename prevents a torn
        // file from ever being the *current* checkpoint, and this property
        // guarantees that even a torn file read some other way can never
        // decode into a plausible state.
        let encoded = cp.encode();
        prop_assume!(!encoded.is_empty());
        let cut = cut % encoded.len();
        prop_assert!(Checkpoint::decode(&encoded[..cut]).is_err());
    }

    #[test]
    fn trailing_garbage_is_a_decode_error(cp in checkpoint_strategy(), junk in 1usize..16) {
        let mut encoded = cp.encode();
        encoded.extend(vec![0xAAu8; junk]);
        prop_assert!(Checkpoint::decode(&encoded).is_err());
    }

    #[test]
    fn corrupt_header_bytes_never_panic(
        cp in checkpoint_strategy(),
        offset in 0usize..16,
        value in 0u8..=255,
    ) {
        // Flipping any of the first bytes (magic, version, lengths) must
        // produce a clean error or a decode that simply disagrees — never a
        // panic or an over-read.
        let mut encoded = cp.encode();
        let offset = offset % encoded.len();
        encoded[offset] = value;
        let _ = Checkpoint::decode(&encoded);
    }
}

#[test]
fn corrupt_file_on_disk_fails_loudly() {
    let dir = std::env::temp_dir().join(format!("garfield-ckpt-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(CHECKPOINT_FILE), b"GFCKnot really a checkpoint").unwrap();
    assert!(Checkpoint::load(&dir).is_err());
    assert!(
        Checkpoint::load_if_present(&dir).is_err(),
        "a corrupt checkpoint must not be mistaken for a fresh start"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One small fixed record: every optional field present, hostile floats
/// (a payload NaN, a signed zero, an infinity, a subnormal), and a system
/// name that leaves the record 1 byte past a word boundary, so the wire
/// encoding pads.
fn pinned_record() -> Checkpoint {
    Checkpoint {
        system: "msmw".to_string(),
        seed: 0x0123_4567_89AB_CDEF,
        round: 42,
        opt_steps: 41,
        model: vec![1.5, -0.0, f32::from_bits(0x7FC0_0001)],
        velocity: Some(vec![f32::INFINITY, f32::from_bits(1), -2.25]),
        fault_rng: Some([1, u64::MAX, 0x8000_0000_0000_0000, 7]),
        attack_rng: Some([0xDEAD_BEEF, 2, 3, 0x0F0F_0F0F_0F0F_0F0F]),
    }
}

/// The record's bytes as recorded by the original per-value encoder. A
/// `--resume` directory and a `StateChunk` in flight are read by whatever
/// build is running, so the layout may never move; round trips cannot see a
/// change that both sides make. Never re-record this literal.
const PINNED_RECORD_HEX: &str = concat!(
    // magic "GFCK", version 1, name length 4, "msmw"
    "4746434b01046d736d77",
    // seed, round, optimizer steps
    "efcdab8967452301",
    "2a00000000000000",
    "2900000000000000",
    // model: length 3, then 1.5, -0.0, NaN with payload 1
    "030000000000c03f000000800100c07f",
    // velocity flag, length 3, then +inf, the smallest subnormal, -2.25
    "01030000000000807f01000000000010c0",
    // fault-RNG flag and words
    "010100000000000000ffffffffffffffff00000000000000800700000000000000",
    // attack-RNG flag and words
    "01efbeadde00000000020000000000000003000000000000000f0f0f0f0f0f0f0f",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn the_record_layout_is_pinned_byte_for_byte() {
    let cp = pinned_record();
    let encoded = cp.encode();
    assert_eq!(encoded.len() % 4, 1, "the pin must exercise wire padding");
    assert_eq!(hex(&encoded), PINNED_RECORD_HEX);
    assert_eq!(Checkpoint::decode(&encoded).unwrap().encode(), encoded);

    // The StateChunk payload: the byte length, then the record in
    // little-endian words, zero-padded to the last word.
    let words = cp.to_wire_words();
    assert_eq!(words[0].to_bits() as usize, encoded.len());
    let mut padded = encoded.clone();
    padded.resize(encoded.len().div_ceil(4) * 4, 0);
    let body: Vec<u8> = words[1..]
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    assert_eq!(hex(&body), hex(&padded));
    assert_eq!(
        Checkpoint::from_wire_words(&words).unwrap().encode(),
        encoded
    );
}
