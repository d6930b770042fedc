//! Bit-identity pins: every rule's output and forensic outcome, hashed.
//!
//! Each cell runs one rule on one deterministic payload set and hashes
//! (FNV-1a 64) the output bits. On finite payloads it also hashes the
//! [`SelectionOutcome`]'s `selected`, `distance` and `norm` bits; on
//! NaN-laden payloads it hashes `selected` and the NaN mask of the norms
//! only, because the distance profile's NaNs are computed sums, whose
//! payload bits Rust leaves unspecified.
//!
//! The finite table holds under every profile. Selection never reads a
//! NaN's bits: the distance cache stores every NaN distance and norm as the
//! canonical `f32::NAN`, so the outcome column of the two NaN tables is the
//! same. Output NaNs still carry the payload and sign of whichever operand
//! of `NaN + NaN` each profile's codegen keeps, so each profile has its own
//! NaN table. Both tables hold whether the crate is built for `x86-64` or
//! `x86-64-v3`.
//!
//! The expected values were recorded by this same test body on the
//! column-by-column averaging kernel and the stand-alone norm pass, so a
//! kernel rewrite that moves a single bit fails here. They are deliberately
//! not checked against an in-test per-coordinate reference: under the
//! release profile such a loop may be compiled with its `fadd` operands
//! commuted and pick the other NaN of a double-NaN column, disagreeing with
//! every kernel at once.
//!
//! Cells: every [`GarKind`], at the rule's minimum n for f = 1 and at
//! n = 11, at d = 3·4096 and 3·4096 + 77, on finite and NaN-laden payloads.
//! Every cell runs on the sequential engine and on a 4-thread one, which
//! must agree bit for bit.

use garfield_aggregation::{build_gar, Engine, GarKind, SelectionOutcome};
use garfield_tensor::GradientView;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// Deterministic payloads. Finite ones mix small values with `±0.0` and
/// subnormals, and scale the last input up so the selection rules have an
/// outlier to reject. NaN-laden ones add quiet and signalling NaNs of both
/// signs with varied payloads, and `±inf`.
fn payloads(n: usize, d: usize, seed: u64, nan_laden: bool) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..n)
        .map(|i| {
            let scale = if i + 1 == n && n > 2 { 40.0 } else { 1.0 };
            (0..d)
                .map(|_| {
                    let r = next();
                    let sign = ((r >> 40) as u32 & 1) << 31;
                    match r % 53 {
                        0 => f32::from_bits(sign),
                        1 => f32::from_bits(sign | ((r >> 8) as u32 & 0x7f_ffff).max(1)),
                        2..=5 if nan_laden => {
                            let payload = ((r >> 8) as u32 & 0x3f_ffff).max(1);
                            let nan = sign | 0x7f80_0000 | payload;
                            match r % 4 {
                                0 | 1 => f32::from_bits(nan | 0x40_0000),
                                2 => f32::from_bits(nan),
                                _ => f32::from_bits(sign | 0x7f80_0000),
                            }
                        }
                        _ => scale * (((r >> 16) % 10_000) as f32 - 5_000.0) / 250.0,
                    }
                })
                .collect()
        })
        .collect()
}

/// `(output hash, outcome hash)` of one rule on one payload set.
fn run_cell(kind: &GarKind, n: usize, data: &[Vec<f32>], engine: &Engine, nan: bool) -> (u64, u64) {
    let views: Vec<GradientView<'_>> = data.iter().map(GradientView::from).collect();
    let gar = build_gar(kind, n, 1).unwrap();
    let mut outcome = SelectionOutcome::default();
    let out = gar
        .aggregate_views_observed(&views, engine, &mut outcome)
        .unwrap();
    let mut out_hash = Fnv::new();
    for v in out.data() {
        out_hash.bytes(&v.to_bits().to_le_bytes());
    }
    assert_eq!(outcome.norm.len(), n, "{kind}: norm profile length");
    let mut outcome_hash = Fnv::new();
    for &s in &outcome.selected {
        outcome_hash.bytes(&(s as u64).to_le_bytes());
    }
    if nan {
        for norm in &outcome.norm {
            outcome_hash.bytes(&[u8::from(norm.is_nan())]);
        }
    } else {
        for v in outcome.distance.iter().chain(&outcome.norm) {
            outcome_hash.bytes(&v.to_bits().to_le_bytes());
        }
    }
    (out_hash.0, outcome_hash.0)
}

/// `(cell, NaN-laden, output hash, outcome hash)` for every cell, in table
/// order.
fn compute() -> Vec<(String, bool, u64, u64)> {
    let mut rows = Vec::new();
    for (k, kind) in GarKind::all().into_iter().enumerate() {
        for n in [kind.minimum_inputs(1), 11] {
            for d in [3 * 4096, 3 * 4096 + 77] {
                for nan in [false, true] {
                    let seed =
                        (k as u64) << 32 ^ (n as u64) << 24 ^ (d as u64) << 1 ^ u64::from(nan);
                    let data = payloads(n, d, seed, nan);
                    let seq = run_cell(&kind, n, &data, &Engine::sequential(), nan);
                    let par = run_cell(&kind, n, &data, &Engine::with_threads(4), nan);
                    let payload = if nan { "nan" } else { "finite" };
                    let cell = format!("{kind} n={n} d={d} {payload}");
                    assert_eq!(seq, par, "{cell}: engines disagree");
                    rows.push((cell, nan, seq.0, seq.1));
                }
            }
        }
    }
    rows
}

/// Finite payloads: the same bits under every profile.
#[rustfmt::skip]
const FINITE: &[(&str, u64, u64)] = &[
    ("bulyan n=7 d=12288 finite", 0x8e798b575691a48a, 0x17b986d83d36cece),
    ("bulyan n=7 d=12365 finite", 0x33340ea0f61b30df, 0x601cf8eadddc407b),
    ("bulyan n=11 d=12288 finite", 0x3e1a13360c1245f0, 0x3df2670f0e35814e),
    ("bulyan n=11 d=12365 finite", 0xd71e18165ac4b69c, 0x1a562538c34cf3ed),
    ("mda n=3 d=12288 finite", 0x199b8abd33400821, 0x10f67e156b5d3c87),
    ("mda n=3 d=12365 finite", 0x87f3afefea6c6f87, 0xfd04c37425fc2603),
    ("mda n=11 d=12288 finite", 0xa90ab59439f0ea73, 0x95cde2611c32f099),
    ("mda n=11 d=12365 finite", 0x67ff17713e85045c, 0x6e744d00ff66bd77),
    ("multi-krum n=5 d=12288 finite", 0x6b23f4165d4e2817, 0x6f7b3b2e4998e438),
    ("multi-krum n=5 d=12365 finite", 0x25e6430834086d31, 0x42d5c1bc6a77fe7e),
    ("multi-krum n=11 d=12288 finite", 0x97eb13adafb482b3, 0x9e6a1b97574d0965),
    ("multi-krum n=11 d=12365 finite", 0x764e7c103fc20263, 0xb51d18ba812522f6),
    ("median n=3 d=12288 finite", 0x72816fea470e07eb, 0x4524eac1a59f6d06),
    ("median n=3 d=12365 finite", 0x85cdcb453c6c62aa, 0x48060d732960b648),
    ("median n=11 d=12288 finite", 0xd52f92865d5c514b, 0x9363330d11d19c88),
    ("median n=11 d=12365 finite", 0x3418635587f47f7d, 0x7220d79ef98743dd),
    ("krum n=5 d=12288 finite", 0x687794f7f6e9c44f, 0x2e5b527aa2dda029),
    ("krum n=5 d=12365 finite", 0x0ff03a46e598bcf3, 0x541e9845ef422010),
    ("krum n=11 d=12288 finite", 0x661a5e1f8eede45f, 0xcc2154fcf1f3d413),
    ("krum n=11 d=12365 finite", 0x97fe6bf67d845bb2, 0x1c5fd7ba5d544442),
    ("average n=1 d=12288 finite", 0x169367f74b74d8f4, 0xe65db96080e8dc47),
    ("average n=1 d=12365 finite", 0xccd0636afb6f7980, 0xb765ec01779fdd7a),
    ("average n=11 d=12288 finite", 0x427bd209a4d6984d, 0xf937f024bcbe4666),
    ("average n=11 d=12365 finite", 0xdf97630a7a4b51bb, 0xeb01096fb2bb1fe5),
];

/// NaN-laden payloads under the debug profile.
#[cfg(debug_assertions)]
#[rustfmt::skip]
const NAN_LADEN: &[(&str, u64, u64)] = &[
    ("bulyan n=7 d=12288 nan", 0xc3d6ba97a2142ca4, 0xfac300a6cecfd472),
    ("bulyan n=7 d=12365 nan", 0x66512825a7e84364, 0xfac300a6cecfd472),
    ("bulyan n=11 d=12288 nan", 0xe3268ff435adc314, 0xff3898d6e2f7f172),
    ("bulyan n=11 d=12365 nan", 0x4594b4c87cb8205d, 0xff3898d6e2f7f172),
    ("mda n=3 d=12288 nan", 0x719e6ec20f7aaff1, 0x4e8fde1e3f1220a1),
    ("mda n=3 d=12365 nan", 0x478f1f82c108f5f9, 0x4e8fde1e3f1220a1),
    ("mda n=11 d=12288 nan", 0x8d59a788f032636a, 0x1fee5fa8c5986b49),
    ("mda n=11 d=12365 nan", 0xca12c7bd559a71da, 0x1fee5fa8c5986b49),
    ("multi-krum n=5 d=12288 nan", 0x8531f57e0712ef98, 0x7e1ba3e96e151b53),
    ("multi-krum n=5 d=12365 nan", 0x82bc13e496a5842d, 0x7e1ba3e96e151b53),
    ("multi-krum n=11 d=12288 nan", 0x661fbf23f218fc07, 0x73558ac7baf3ad3a),
    ("multi-krum n=11 d=12365 nan", 0xb5205c25fad93899, 0x73558ac7baf3ad3a),
    ("median n=3 d=12288 nan", 0xb65fdc1f58470b86, 0x0c48879b33d84a37),
    ("median n=3 d=12365 nan", 0xc07869a5fcc7bfb2, 0x0c48879b33d84a37),
    ("median n=11 d=12288 nan", 0x0d322ab8144266d8, 0x6966700193028ef7),
    ("median n=11 d=12365 nan", 0x1e0dfdfab10f59f4, 0x6966700193028ef7),
    ("krum n=5 d=12288 nan", 0xf73585908b300f7a, 0x073bca7d36dc1e28),
    ("krum n=5 d=12365 nan", 0xb640bc558b698794, 0x073bca7d36dc1e28),
    ("krum n=11 d=12288 nan", 0xb72fc4aa0aa8ddda, 0x8c08f653a3f0a21a),
    ("krum n=11 d=12365 nan", 0x5e6be016e6c5f25d, 0x8c08f653a3f0a21a),
    ("average n=1 d=12288 nan", 0xb3253528c731dd89, 0xe604813a2490280c),
    ("average n=1 d=12365 nan", 0xd59efb5b0417edce, 0xe604813a2490280c),
    ("average n=11 d=12288 nan", 0x495928b669c948aa, 0x6966700193028ef7),
    ("average n=11 d=12365 nan", 0x264296b9660ae715, 0x6966700193028ef7),
];

/// NaN-laden payloads under the release profile.
#[cfg(not(debug_assertions))]
#[rustfmt::skip]
const NAN_LADEN: &[(&str, u64, u64)] = &[
    ("bulyan n=7 d=12288 nan", 0xc3d6ba97a2142ca4, 0xfac300a6cecfd472),
    ("bulyan n=7 d=12365 nan", 0x66512825a7e84364, 0xfac300a6cecfd472),
    ("bulyan n=11 d=12288 nan", 0xe3268ff435adc314, 0xff3898d6e2f7f172),
    ("bulyan n=11 d=12365 nan", 0x4594b4c87cb8205d, 0xff3898d6e2f7f172),
    ("mda n=3 d=12288 nan", 0x575d4360e28b15f9, 0x4e8fde1e3f1220a1),
    ("mda n=3 d=12365 nan", 0xfc9046f8002fe4a5, 0x4e8fde1e3f1220a1),
    ("mda n=11 d=12288 nan", 0xdf5b77487eb7a8dd, 0x1fee5fa8c5986b49),
    ("mda n=11 d=12365 nan", 0xd9f360f2fb332021, 0x1fee5fa8c5986b49),
    ("multi-krum n=5 d=12288 nan", 0xbb28d07f0faec493, 0x7e1ba3e96e151b53),
    ("multi-krum n=5 d=12365 nan", 0xa93b9e345675674b, 0x7e1ba3e96e151b53),
    ("multi-krum n=11 d=12288 nan", 0x2621c5d947d2968a, 0x73558ac7baf3ad3a),
    ("multi-krum n=11 d=12365 nan", 0x217e4e2dc7efd837, 0x73558ac7baf3ad3a),
    ("median n=3 d=12288 nan", 0xb65fdc1f58470b86, 0x0c48879b33d84a37),
    ("median n=3 d=12365 nan", 0xc07869a5fcc7bfb2, 0x0c48879b33d84a37),
    ("median n=11 d=12288 nan", 0x0d322ab8144266d8, 0x6966700193028ef7),
    ("median n=11 d=12365 nan", 0x1e0dfdfab10f59f4, 0x6966700193028ef7),
    ("krum n=5 d=12288 nan", 0xf73585908b300f7a, 0x073bca7d36dc1e28),
    ("krum n=5 d=12365 nan", 0xb640bc558b698794, 0x073bca7d36dc1e28),
    ("krum n=11 d=12288 nan", 0xb72fc4aa0aa8ddda, 0x8c08f653a3f0a21a),
    ("krum n=11 d=12365 nan", 0x5e6be016e6c5f25d, 0x8c08f653a3f0a21a),
    ("average n=1 d=12288 nan", 0xb3253528c731dd89, 0xe604813a2490280c),
    ("average n=1 d=12365 nan", 0xd59efb5b0417edce, 0xe604813a2490280c),
    ("average n=11 d=12288 nan", 0x18aba362de80c5bc, 0x6966700193028ef7),
    ("average n=11 d=12365 nan", 0x197fc552201d4693, 0x6966700193028ef7),
];

#[test]
fn every_rule_is_pinned_bit_for_bit() {
    let rows = compute();
    for (nan, expected) in [(false, FINITE), (true, NAN_LADEN)] {
        let got: Vec<(&str, u64, u64)> = rows
            .iter()
            .filter(|row| row.1 == nan)
            .map(|(cell, _, out, outcome)| (cell.as_str(), *out, *outcome))
            .collect();
        let table: String = got
            .iter()
            .map(|(cell, out, outcome)| {
                format!("    (\"{cell}\", 0x{out:016x}, 0x{outcome:016x}),\n")
            })
            .collect();
        assert!(
            got == expected,
            "aggregation pins moved (NaN-laden: {nan}); the computed table is:\n{table}"
        );
    }
}
