//! Exact Algorithm-2 reference: Modified JointSTL with the growing system
//! solved from scratch at every step.
//!
//! [`GrowingSolver`] keeps the full `y / u / pw / qw` histories, assembles
//! the complete `2M × 2M` banded system on each arrival and solves it
//! exactly (`O(M)` per update thanks to the constant bandwidth). Plugged
//! into the shared [`crate::oneshot::OnlineJointStl`] shell it yields
//! [`ModifiedJointStlRef`] — byte-for-byte the same IRLS/shift/NSigma
//! behaviour as OneShotSTL, differing *only* in how the linear systems are
//! solved.
//!
//! Its purpose is the paper's central claim: the `O(1)` OnlineDoolittle
//! path must produce **identical** `(τ_t, s_t)` (up to floating-point
//! noise). The property test below drives both on random and structured
//! streams and asserts exactly that.

use crate::oneshot::{OnlineJointStl, TailSolver};
use crate::system::{assemble_full, SystemData, TailData};

/// Grows the full online system and solves it exactly each step.
#[derive(Debug, Clone, Default)]
pub struct GrowingSolver {
    y: Vec<f64>,
    u: Vec<f64>,
    pw: Vec<f64>,
    qw: Vec<f64>,
}

impl TailSolver for GrowingSolver {
    const NAME: &'static str = "ModifiedJointSTL(ref)";

    fn step(&mut self, tail: &TailData) -> (f64, f64) {
        let m = tail.m;
        assert_eq!(m, self.y.len() + 1, "steps must be consecutive");
        self.y.push(0.0);
        self.u.push(0.0);
        self.pw.push(0.0);
        self.qw.push(0.0);
        // the trailing `min(m,3)` entries are refreshed each step (the
        // same tail-anchor semantics the O(1) path uses)
        let k = m.min(3);
        for j in m - k..m {
            let s = 3 - (m - j);
            self.y[j] = tail.y3[s];
            self.u[j] = tail.u3[s];
            self.pw[j] = tail.p3[s];
            self.qw[j] = tail.q3[s];
        }
        let data = SystemData {
            y: &self.y,
            u: &self.u,
            pw: &self.pw,
            qw: &self.qw,
            lambdas: tail.lambdas,
        };
        let (a, b) = assemble_full(&data);
        let x = a.solve(&b).expect("online system is SPD");
        (x[2 * m - 2], x[2 * m - 1])
    }
}

/// Algorithm 2 solved exactly at every step (reference implementation).
pub type ModifiedJointStlRef = OnlineJointStl<GrowingSolver>;

impl ModifiedJointStlRef {
    /// Creates a reference instance with the given configuration.
    pub fn new_reference(config: crate::oneshot::OneShotStlConfig) -> Self {
        OnlineJointStl::with_solver(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::{OneShotStl, OneShotStlConfig, ShiftPolicy};
    use crate::system::Lambdas;
    use decomp::OnlineDecomposer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stream(n: usize, t: usize, noise: f64, jump: Option<usize>, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut v = 1.5
                    + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                    + noise * rng.gen_range(-1.0..1.0);
                if let Some(at) = jump {
                    if i >= at {
                        v += 3.0;
                    }
                }
                v
            })
            .collect()
    }

    fn assert_equivalent(y: &[f64], t: usize, split: usize, cfg: OneShotStlConfig) {
        let mut fast = OneShotStl::new(cfg.clone());
        let mut exact = ModifiedJointStlRef::new_reference(cfg);
        let df = fast.init(&y[..split], t).unwrap();
        let de = exact.init(&y[..split], t).unwrap();
        assert_eq!(df.trend, de.trend, "identical init path");
        for (i, &v) in y[split..].iter().enumerate() {
            let pf = fast.update(v);
            let pe = exact.update(v);
            assert!(
                (pf.trend - pe.trend).abs() < 1e-7 && (pf.seasonal - pe.seasonal).abs() < 1e-7,
                "step {i}: O(1) ({}, {}) vs exact ({}, {})",
                pf.trend,
                pf.seasonal,
                pe.trend,
                pe.seasonal
            );
        }
    }

    #[test]
    fn equivalent_on_clean_stream() {
        let t = 16;
        let y = stream(250, t, 0.05, None, 1);
        assert_equivalent(&y, t, 3 * t, OneShotStlConfig::default());
    }

    #[test]
    fn equivalent_through_trend_jump_and_shift_search() {
        // a jump triggers NSigma and thus the Δt search: both paths must
        // take identical decisions
        let t = 16;
        let y = stream(250, t, 0.03, Some(120), 2);
        let cfg = OneShotStlConfig {
            shift_window: 5,
            lambdas: Lambdas { lambda1: 1.0, lambda2: 10.0, anchor: 1.0 },
            ..Default::default()
        };
        assert_equivalent(&y, t, 3 * t, cfg);
    }

    #[test]
    fn equivalent_with_transient_policy_and_one_iteration() {
        let t = 12;
        let y = stream(180, t, 0.1, Some(100), 3);
        let cfg = OneShotStlConfig {
            iters: 1,
            shift_policy: ShiftPolicy::Transient,
            shift_window: 3,
            ..Default::default()
        };
        assert_equivalent(&y, t, 3 * t, cfg);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_equivalence_on_random_streams(
            seed in 0u64..1000,
            lambda in prop::sample::select(vec![1.0, 10.0, 100.0, 1000.0]),
            iters in 1usize..5,
            noise in 0.0f64..0.5,
        ) {
            let t = 10;
            let y = stream(140, t, noise, None, seed);
            let cfg = OneShotStlConfig {
                lambdas: Lambdas { lambda1: lambda, lambda2: lambda, anchor: 1.0 },
                iters,
                shift_window: 0,
                ..Default::default()
            };
            let mut fast = OneShotStl::new(cfg.clone());
            let mut exact = ModifiedJointStlRef::new_reference(cfg);
            fast.init(&y[..3 * t], t).unwrap();
            exact.init(&y[..3 * t], t).unwrap();
            for &v in &y[3 * t..] {
                let pf = fast.update(v);
                let pe = exact.update(v);
                prop_assert!((pf.trend - pe.trend).abs() < 1e-6);
                prop_assert!((pf.seasonal - pe.seasonal).abs() < 1e-6);
            }
        }
    }
}
