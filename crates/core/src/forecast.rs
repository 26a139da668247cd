//! Multi-horizon forecasting over the decomposed components (paper §5).
//!
//! OneShotSTL's STD→TSF rule forecasts
//!
//! ```text
//! ŷ(t+h) = τ(t) + slope·Σ_{j=1..h} φ^j + v[(t+Δ+h) mod T]
//! ```
//!
//! — the newest trend level, a damped extrapolation of its one-step
//! slope (`φ = 1` is the paper's linear `slope·h`, `φ = 0` plain
//! carry-forward), and the seasonal buffer looked up under the cumulative
//! §3.4 phase shift Δ. The recurrence lives on [`crate::OneShotStl`]:
//! [`forecast_damped`](crate::oneshot::OnlineJointStl::forecast_damped)
//! answers one horizon, and
//! [`forecast_into`](crate::oneshot::OnlineJointStl::forecast_into) fills
//! a caller-owned buffer in one pass with **zero** heap allocations (the
//! fleet's steady-state path); [`predict`](crate::oneshot::OnlineJointStl::predict)
//! and [`predict_into`](crate::oneshot::OnlineJointStl::predict_into) are
//! the slope-free carry-forward `τ(t) + v[·]`.
//!
//! The fleet's live series and the `forecast` crate's `StlForecaster`
//! both answer through these methods, so there is one forecast rule. This
//! module holds its damped-trend weight, [`damp_sum`], and the tests that
//! pin the one-pass fills to the per-horizon calls bit for bit.

/// `Σ_{j=1..h} φ^j` — the damped-trend weight of horizon `h` (`h` for
/// `φ = 1`, `0` for `φ = 0`).
///
/// Computed by the same running accumulation at every call site (rather
/// than the closed form), so single-horizon forecasts, multi-horizon
/// [`crate::oneshot::OnlineJointStl::forecast_into`] fills, and a
/// snapshot-restored engine all produce bit-identical values.
pub fn damp_sum(phi: f64, h: usize) -> f64 {
    let mut weight = 0.0;
    let mut pow = 1.0;
    for _ in 0..h {
        pow *= phi;
        weight += pow;
    }
    weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OneShotStl, OneShotStlConfig};
    use decomp::OnlineDecomposer;

    fn trended_seasonal(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                0.05 * i as f64 + (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn damp_sum_endpoints() {
        assert_eq!(damp_sum(1.0, 7), 7.0);
        assert_eq!(damp_sum(0.0, 7), 0.0);
        let s = damp_sum(0.5, 3); // 0.5 + 0.25 + 0.125
        assert!((s - 0.875).abs() < 1e-15);
    }

    #[test]
    fn slope_forecast_tracks_a_trending_seasonal_stream() {
        use crate::system::Lambdas;
        let period = 24;
        let y = trended_seasonal(600, period);
        // TSF protocol for trending data: flexible trend (λ1 small) with a
        // stiff seasonal (λ2 large), so the drift lands in the trend the
        // slope term extrapolates — the default tied λ = 100 parks the
        // level in the seasonal buffer instead, which lags by a period
        let cfg = OneShotStlConfig {
            lambdas: Lambdas { lambda1: 1.0, lambda2: 100.0 },
            ..Default::default()
        };
        let mut m = OneShotStl::new(cfg);
        m.init(&y[..4 * period], period).unwrap();
        for &v in &y[4 * period..480] {
            m.update(v);
        }
        // the slope estimate converges to the true 0.05/step drift
        assert!((m.trend_slope() - 0.05).abs() < 0.01, "slope {}", m.trend_slope());
        // at a long horizon, slope extrapolation must beat carry-forward
        let h = period / 2;
        let truth = y[480 - 1 + h];
        let carry = (m.predict(h) - truth).abs();
        let slope = (m.forecast(h) - truth).abs();
        assert!(slope < carry, "slope err {slope} vs carry err {carry}");
        assert!(slope < 0.1, "slope forecast err {slope}");
    }

    #[test]
    fn forecast_into_matches_single_horizon_calls_bitwise() {
        let period = 12;
        let y = trended_seasonal(300, period);
        let mut m = OneShotStl::new(OneShotStlConfig::default());
        m.init(&y[..4 * period], period).unwrap();
        for &v in &y[4 * period..] {
            m.update(v);
        }
        for phi in [0.0, 0.9, 1.0] {
            let mut out = vec![0.0; 2 * period];
            m.forecast_into(phi, &mut out);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(
                    o.to_bits(),
                    m.forecast_damped(i + 1, phi).to_bits(),
                    "h={} phi={phi}",
                    i + 1
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// The one-pass fills are the per-horizon calls, bit for bit:
        /// `forecast_into(φ, out)` against `forecast_damped(h, φ)` and
        /// `predict_into(out)` against `predict(h)` for every `h` up to
        /// three periods, on periods 2..=24 whose cumulative shift Δ is
        /// set anywhere in ±3 periods (so the seasonal walk starts at any
        /// slot and wraps up to three times), φ ∈ {0, 0.5, 0.98, 1}. In a
        /// quarter of the cases the trend and the whole seasonal buffer
        /// are `-0.0` under a positive slope: there `predict(h)` is
        /// `-0.0`, which `predict_into` keeps and `forecast_into(0.0)`
        /// does not.
        #[test]
        fn prop_one_pass_fills_match_per_horizon_calls(seed in 0u64..100_000) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let period = rng.gen_range(2..=24usize);
            let y: Vec<f64> = trended_seasonal(4 * period + rng.gen_range(0..40), period)
                .into_iter()
                .map(|v| v + 0.1 * rng.gen_range(-1.0..1.0))
                .collect();
            let mut m = OneShotStl::new(OneShotStlConfig::default());
            m.init(&y[..4 * period], period).unwrap();
            for &v in &y[4 * period..] {
                m.update(v);
            }
            let span = 3 * period as i64;
            m.shift = rng.gen_range(-span..=span);
            let negative_zero = rng.gen_range(0..4) == 0;
            if negative_zero {
                let last = m.iters.last_mut().expect("initialized");
                last.tau_hist = [-1.0, -0.0];
                m.v.fill(-0.0);
            }
            let h = 3 * period;
            let mut out = vec![f64::NAN; h];
            m.predict_into(&mut out);
            for (i, o) in out.iter().enumerate() {
                proptest::prop_assert_eq!(o.to_bits(), m.predict(i + 1).to_bits(), "predict h={}", i + 1);
            }
            if negative_zero {
                proptest::prop_assert!(out.iter().all(|o| o.to_bits() == (-0.0f64).to_bits()));
                let mut damped = vec![f64::NAN; h];
                m.forecast_into(0.0, &mut damped);
                proptest::prop_assert!(damped.iter().all(|o| o.to_bits() == 0.0f64.to_bits()));
            }
            for phi in [0.0, 0.5, 0.98, 1.0] {
                m.forecast_into(phi, &mut out);
                for (i, o) in out.iter().enumerate() {
                    let want = m.forecast_damped(i + 1, phi);
                    proptest::prop_assert_eq!(o.to_bits(), want.to_bits(), "h={} phi={}", i + 1, phi);
                }
            }
        }
    }
}
