//! Golden bit-identity fixture for batch STL.
//!
//! Pins the exact `f64` bit patterns of [`Stl::decompose`] under four
//! configurations: OneShotSTL's initialization config (periodic seasonal
//! smoothing, one robustness pass, over a 3-cycle window), the default
//! `Span(7)` config, three robustness passes (the bisquare weights zero
//! out the injected outliers), and the `jump: 8` LOESS speed-up. The
//! constants were recorded from the implementation that solved every
//! LOESS fit through the generic dense least-squares path; the
//! allocation-free kernel must reproduce them bit for bit.
//!
//! Regenerate (only when an *intentional* numeric change is made) with:
//! `cargo test -p decomp --release --test golden_stl -- --ignored --nocapture`

use decomp::traits::BatchDecomposer;
use decomp::{SeasonalSpan, Stl, StlConfig};

const PERIOD: usize = 24;

/// Deterministic noise: a 64-bit LCG mapped to [-1, 1).
fn lcg_noise(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// Seasonal + slow trend + noise, with +8 spikes every 37 points.
fn stream(n: usize) -> Vec<f64> {
    let mut state = 0x0057_1b17_5eed_u64;
    (0..n)
        .map(|i| {
            let phase = 2.0 * std::f64::consts::PI * (i % PERIOD) as f64 / PERIOD as f64;
            let spike = if i % 37 == 19 { 8.0 } else { 0.0 };
            3.0 * phase.sin() + 0.01 * i as f64 + 0.1 * lcg_noise(&mut state) + spike
        })
        .collect()
}

/// The pinned configurations: `(name, config, series length)`.
fn cases() -> Vec<(&'static str, StlConfig, usize)> {
    vec![
        (
            "init",
            StlConfig {
                seasonal: SeasonalSpan::Periodic,
                outer_iters: 1,
                ..Default::default()
            },
            3 * PERIOD,
        ),
        ("default", StlConfig::default(), 10 * PERIOD),
        ("robust", StlConfig { outer_iters: 3, ..Default::default() }, 10 * PERIOD),
        ("jump8", StlConfig { jump: 8, ..Default::default() }, 10 * PERIOD),
    ]
}

/// FNV-1a over the bit patterns of trend, then seasonal, then residual.
fn fingerprint(cfg: StlConfig, n: usize) -> u64 {
    let d = Stl::with_config(cfg).decompose(&stream(n), PERIOD).unwrap();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in d.trend.iter().chain(&d.seasonal).chain(&d.residual) {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

const GOLDEN: &[(&str, u64)] = &[
    ("init", 0xfd2d93bbb93b63d9),
    ("default", 0xf5cc70d5409cd115),
    ("robust", 0x4632397098a91c6e),
    ("jump8", 0x735eb8878ade3323),
];

#[test]
fn stl_decompose_is_bit_identical_to_golden() {
    for ((name, cfg, n), (gname, want)) in cases().into_iter().zip(GOLDEN) {
        assert_eq!(name, *gname);
        let got = fingerprint(cfg, n);
        assert_eq!(got, *want, "STL `{name}` output bits changed: {got:#018x}");
    }
}

#[test]
#[ignore = "fixture regeneration helper, not a test"]
fn regenerate_fixture() {
    println!("const GOLDEN: &[(&str, u64)] = &[");
    for (name, cfg, n) in cases() {
        println!("    (\"{name}\", {:#018x}),", fingerprint(cfg, n));
    }
    println!("];");
}
