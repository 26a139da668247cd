//! Golden bit-identity fixture for the OneShotSTL online update path.
//!
//! The fixture was generated from the pre-scratch-buffer implementation
//! (the one that cloned the full IRLS iteration state on every trial) and
//! pins the exact `f64` bit patterns of the online outputs over a stream
//! that exercises every branch of `update`: the steady-state fast path,
//! the §3.4 shift search (both an accepted and a rejected offset), the
//! trend-jump anomaly path, and non-finite-input imputation. Any
//! refactoring of the hot path — double-buffered scratch states, solver
//! rewrites — must keep this stream **bit-identical**.
//!
//! Since the two-stage shift-search refactor, the exhaustive fixture runs
//! with `ShiftPrune::Off`, which must stay bit-identical to the original
//! single-loop search; a second fixture pins the default pruned
//! (`ShiftPrune::TopK`) path so *its* numerics cannot drift silently
//! either.
//!
//! Regenerate (only when an *intentional* numeric change is made) with:
//! `cargo test -p oneshotstl --release --test golden_update -- --ignored --nocapture`

use decomp::traits::OnlineDecomposer;
use oneshotstl::{OneShotStl, OneShotStlConfig, ShiftPrune};

const PERIOD: usize = 50;
const INIT: usize = 4 * PERIOD;
const ONLINE: usize = 400;

/// Deterministic noise: a 64-bit LCG mapped to [-1, 1). Inlined rather
/// than using an RNG crate so the fixture can never drift with a
/// dependency.
fn lcg_noise(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// The golden stream: seasonal + noise, a +4 trend jump at online index
/// 150, a one-point spike at 180 (anomaly whose best "shift" must be
/// rejected), a permanent 5-point seasonality shift at 250 (accepted by
/// the §3.4 search), and a NaN at 300 (imputation path).
fn golden_stream() -> Vec<f64> {
    let mut state = 0x5eed_cafe_f00d_u64;
    let n = INIT + ONLINE;
    (0..n)
        .map(|i| {
            let online_i = i as i64 - INIT as i64;
            let phase = if online_i >= 250 { (i + PERIOD - 5) % PERIOD } else { i % PERIOD };
            let mut v = 3.0 * (2.0 * std::f64::consts::PI * phase as f64 / PERIOD as f64).sin()
                + 0.05 * lcg_noise(&mut state);
            if online_i >= 150 {
                v += 4.0;
            }
            if online_i == 180 {
                v += 25.0;
            }
            if online_i == 300 {
                v = f64::NAN;
            }
            v
        })
        .collect()
}

/// FNV-1a over the concatenated bit patterns of every online output
/// (trend, seasonal, residual per update, in stream order).
fn run_fingerprint(shift_search: ShiftPrune) -> (u64, Vec<(usize, [u64; 3])>, i64) {
    let y = golden_stream();
    let mut m = OneShotStl::new(OneShotStlConfig { shift_search, ..Default::default() });
    m.init(&y[..INIT], PERIOD).unwrap();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fnv = |bits: u64| {
        for b in bits.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let spots = [0usize, 1, 149, 150, 151, 180, 181, 249, 250, 251, 300, 301, 399];
    let mut spot_bits = Vec::new();
    for (i, &v) in y[INIT..].iter().enumerate() {
        let p = m.update(v);
        let bits = [p.trend.to_bits(), p.seasonal.to_bits(), p.residual.to_bits()];
        for b in bits {
            fnv(b);
        }
        if spots.contains(&i) {
            spot_bits.push((i, bits));
        }
    }
    (hash, spot_bits, m.shift())
}

/// Pre-refactor fixture: stream fingerprint, per-update spot checks, and
/// the final cumulative phase offset (proves the §3.4 search accepted the
/// genuine shift and rejected the spike).
const GOLDEN_HASH: u64 = 0x126b8b86cd471d1c;
const GOLDEN_SHIFT: i64 = 6;
const GOLDEN_SPOTS: &[(usize, [u64; 3])] = &[
    (0, [0x3f8700a2197a919e, 0xbf80f7e09a34d7d7, 0xbc40000000000000]),
    (1, [0xbf6a10978a8f8e00, 0x3fd716d51ca527b2, 0xbf7d83b1313a8180]),
    (149, [0x3f611e4b2fb40b8e, 0xbfd71bfb0ba06a14, 0x3f9697bdbd117c30]),
    (150, [0x3f82012d8c96ca7c, 0x400c010b7a5e47d1, 0x3fdf738a0de2b3d8]),
    (151, [0x3f928f6349b73442, 0x400d4d00ed5450e5, 0x3fe5cb6a08d00a5c]),
    (180, [0x3fd49001fc132109, 0x402de48668f19816, 0x402800723a0ef8a8]),
    (181, [0x3fd381e5511d4eb2, 0x400275a511f9e1d0, 0xbfe58ddcdf21c75c]),
    (249, [0x3fff3fcd07663ab1, 0x3ffa92c81af8a670, 0x3fa60b9a5e8d7060]),
    (250, [0x3ffed759e71cf44d, 0x3fef04f3574d9c4f, 0xbfe3fd959977fed1]),
    (251, [0x3ffe89a62d069c69, 0x3ff227708561f8f1, 0xbfde0acb48a4def0]),
    (300, [0x4002eb9f6809b5c2, 0x400237fdf4349214, 0xbf622a14dfb8d800]),
    (301, [0x400290b2372e1fb1, 0x3ff567d3c2552397, 0xbff10bb49091d5bd]),
    (399, [0x400488c2cc8aafb4, 0xbfdf8736db70261f, 0xbfc21e2b7e458b62]),
];

fn check(
    search: ShiftPrune,
    golden_hash: u64,
    golden_shift: i64,
    golden_spots: &[(usize, [u64; 3])],
) {
    let (hash, spots, shift) = run_fingerprint(search);
    assert_eq!(shift, golden_shift, "final cumulative phase offset changed");
    for ((i, got), (gi, want)) in spots.iter().zip(golden_spots) {
        assert_eq!(i, gi);
        for c in 0..3 {
            assert_eq!(
                got[c],
                want[c],
                "online update {i}, component {c}: {:e} != {:e}",
                f64::from_bits(got[c]),
                f64::from_bits(want[c]),
            );
        }
    }
    assert_eq!(spots.len(), golden_spots.len());
    assert_eq!(hash, golden_hash, "bit-level fingerprint of the online stream changed");
}

/// The exhaustive search (`ShiftPrune::Off`) must stay bit-identical to the
/// original pre-refactor single-loop implementation: the fixture
/// constants predate both the scratch-buffer and the two-stage-pipeline
/// refactors.
/// Fixture of the default pruned (`TopK`) search, generated at the
/// two-stage-pipeline refactor. On this particular stream the proxy
/// ranking happens to agree with the exhaustive search at *every* update
/// (same hash) — the accepted shift ranks first by proxy score and the
/// spike's spurious best offset is rejected by the accept-ratio guard
/// either way — so the constants coincide with `GOLDEN_*`; they are kept
/// separate because nothing guarantees they stay equal if the default
/// `k` changes.
const PRUNED_HASH: u64 = 0x126b8b86cd471d1c;
const PRUNED_SHIFT: i64 = 6;
const PRUNED_SPOTS: &[(usize, [u64; 3])] = &[
    (0, [0x3f8700a2197a919e, 0xbf80f7e09a34d7d7, 0xbc40000000000000]),
    (1, [0xbf6a10978a8f8e00, 0x3fd716d51ca527b2, 0xbf7d83b1313a8180]),
    (149, [0x3f611e4b2fb40b8e, 0xbfd71bfb0ba06a14, 0x3f9697bdbd117c30]),
    (150, [0x3f82012d8c96ca7c, 0x400c010b7a5e47d1, 0x3fdf738a0de2b3d8]),
    (151, [0x3f928f6349b73442, 0x400d4d00ed5450e5, 0x3fe5cb6a08d00a5c]),
    (180, [0x3fd49001fc132109, 0x402de48668f19816, 0x402800723a0ef8a8]),
    (181, [0x3fd381e5511d4eb2, 0x400275a511f9e1d0, 0xbfe58ddcdf21c75c]),
    (249, [0x3fff3fcd07663ab1, 0x3ffa92c81af8a670, 0x3fa60b9a5e8d7060]),
    (250, [0x3ffed759e71cf44d, 0x3fef04f3574d9c4f, 0xbfe3fd959977fed1]),
    (251, [0x3ffe89a62d069c69, 0x3ff227708561f8f1, 0xbfde0acb48a4def0]),
    (300, [0x4002eb9f6809b5c2, 0x400237fdf4349214, 0xbf622a14dfb8d800]),
    (301, [0x400290b2372e1fb1, 0x3ff567d3c2552397, 0xbff10bb49091d5bd]),
    (399, [0x400488c2cc8aafb4, 0xbfdf8736db70261f, 0xbfc21e2b7e458b62]),
];

#[test]
fn exhaustive_online_update_stream_is_bit_identical_to_golden() {
    check(ShiftPrune::Off, GOLDEN_HASH, GOLDEN_SHIFT, GOLDEN_SPOTS);
}

/// The default pruned search has its own fixture: behavior-changing by
/// design (vs the exhaustive path), but its numerics must not drift.
#[test]
fn pruned_online_update_stream_is_bit_identical_to_golden() {
    check(ShiftPrune::default(), PRUNED_HASH, PRUNED_SHIFT, PRUNED_SPOTS);
}

/// On this stream the default pruning must agree with the exhaustive
/// search about the one genuine seasonality shift: same final cumulative
/// offset, found at the same update.
#[test]
fn pruned_search_accepts_the_same_genuine_shift() {
    assert_eq!(PRUNED_SHIFT, GOLDEN_SHIFT);
}

#[test]
#[ignore = "fixture regeneration helper, not a test"]
fn regenerate_fixture() {
    for (name, search) in [("GOLDEN", ShiftPrune::Off), ("PRUNED", ShiftPrune::default())] {
        let (hash, spots, shift) = run_fingerprint(search);
        println!("const {name}_HASH: u64 = {hash:#018x};");
        println!("const {name}_SHIFT: i64 = {shift};");
        println!("const {name}_SPOTS: &[(usize, [u64; 3])] = &[");
        for (i, b) in spots {
            println!("    ({i}, [{:#018x}, {:#018x}, {:#018x}]),", b[0], b[1], b[2]);
        }
        println!("];");
    }
}
