//! Golden bit-identity fixture for batch JointSTL (Algorithm 1).
//!
//! Pins the exact `f64` bit patterns of [`JointStl::decompose`] on both
//! solver paths: the direct banded LDLᵀ solve (every `2T ≤ 128`, including
//! the `InitMethod::JointStl` initialization window of `3T` points) and the
//! Jacobi-preconditioned conjugate-gradient path. The constants were
//! recorded from the implementation that allocated its system matrix, CG
//! vectors and moving-average warm start on every IRLS iteration; hoisting
//! those allocations must reproduce them bit for bit.
//!
//! Regenerate (only when an *intentional* numeric change is made) with:
//! `cargo test -p oneshotstl --release --test golden_jointstl -- --ignored --nocapture`

use decomp::traits::BatchDecomposer;
use oneshotstl::{JointStl, JointStlConfig};

/// Deterministic noise: a 64-bit LCG mapped to [-1, 1).
fn lcg_noise(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// Seasonal + noise with a +3 trend jump half-way through.
fn stream(n: usize, period: usize) -> Vec<f64> {
    let mut state = 0x001e_57a1_5eed_u64;
    (0..n)
        .map(|i| {
            let phase = 2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64;
            let jump = if i >= n / 2 { 3.0 } else { 0.0 };
            phase.sin() + jump + 0.001 * i as f64 + 0.05 * lcg_noise(&mut state)
        })
        .collect()
}

/// The pinned configurations: `(name, decomposer, length, period)`.
fn cases() -> Vec<(&'static str, JointStl, usize, usize)> {
    vec![
        ("init", JointStl::new(), 72, 24),
        ("banded", JointStl::with_lambda(10.0), 300, 20),
        (
            "cg",
            JointStl {
                config: JointStlConfig {
                    banded_bandwidth_limit: 0,
                    iters: 4,
                    ..Default::default()
                },
            },
            200,
            16,
        ),
    ]
}

/// FNV-1a over the bit patterns of trend, then seasonal, then residual.
fn fingerprint(j: &JointStl, n: usize, period: usize) -> u64 {
    let d = j.decompose(&stream(n, period), period).unwrap();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in d.trend.iter().chain(&d.seasonal).chain(&d.residual) {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

const GOLDEN: &[(&str, u64)] =
    &[("init", 0xf10605f092012f33), ("banded", 0xd308c86ebf25aaa7), ("cg", 0xd55f779e11a4c072)];

#[test]
fn jointstl_decompose_is_bit_identical_to_golden() {
    for ((name, j, n, period), (gname, want)) in cases().into_iter().zip(GOLDEN) {
        assert_eq!(name, *gname);
        let got = fingerprint(&j, n, period);
        assert_eq!(got, *want, "JointSTL `{name}` output bits changed: {got:#018x}");
    }
}

#[test]
#[ignore = "fixture regeneration helper, not a test"]
fn regenerate_fixture() {
    println!("const GOLDEN: &[(&str, u64)] = &[");
    for (name, j, n, period) in cases() {
        println!("    (\"{name}\", {:#018x}),", fingerprint(&j, n, period));
    }
    println!("];");
}
