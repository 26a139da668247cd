//! STD-based forecasting: wrap an online decomposer and extrapolate its
//! components. Two adapters, one per rule of the paper:
//!
//! - [`StdForecaster`] — the §4 carry-forward
//!   `ŷ_{t+i} = τ_{t−1} + v[(t+i) mod T]` over any [`OnlineDecomposer`],
//!   named by its decomposer. This is the `OneShotSTL` / `OnlineSTL`
//!   entry of Table 5 — its striking property is the **~0.3 s total
//!   runtime** against hours for the deep baselines, with competitive MAE
//!   on strongly seasonal data.
//! - [`StlForecaster`] — `OneShotStl` under the §5 damped-trend rule
//!   `ŷ(t+h) = τ(t) + slope·Σφ^j + v[(t+Δ+h) mod T]` (the
//!   `OneShotSTL+trend` rows of the forecast bench), answered by the
//!   decomposer's own `forecast_into`, the fill the fleet runs.

use crate::traits::OnlineForecaster;
use decomp::traits::OnlineDecomposer;
use oneshotstl::{OneShotStl, StdForecaster};
use tskit::error::Result;

/// The §4 carry-forward over any [`OnlineDecomposer`], named by its
/// decomposer (`"OneShotSTL"`, `"OnlineSTL"`).
impl<D: OnlineDecomposer> OnlineForecaster for StdForecaster<D> {
    fn name(&self) -> String {
        self.decomposer.name().into()
    }

    fn init(&mut self, history: &[f64], period: usize) -> Result<()> {
        StdForecaster::init(self, history, period)
    }

    fn observe(&mut self, y: f64) {
        StdForecaster::observe(self, y);
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.predict_horizon(horizon)
    }
}

/// `OneShotStl` as an [`OnlineForecaster`] under the §5 forecast rule
/// `ŷ(t+h) = τ(t) + slope·Σφ^j + v[(t+Δ+h) mod T]`.
///
/// `φ = 1` is the paper's linear slope extrapolation, `φ = 0` plain
/// carry-forward. Multi-horizon calls go through the zero-allocation
/// `forecast_into` fill, so the values are bit-identical to the fleet's.
pub struct StlForecaster {
    stl: OneShotStl,
    phi: f64,
}

impl StlForecaster {
    /// Wraps a (not yet initialized) model with damping `φ ∈ [0, 1]`.
    pub fn new(stl: OneShotStl, phi: f64) -> Self {
        assert!((0.0..=1.0).contains(&phi) && phi.is_finite(), "damping must be in [0, 1]");
        StlForecaster { stl, phi }
    }
}

impl OnlineForecaster for StlForecaster {
    fn name(&self) -> String {
        format!("OneShotSTL+trend(phi={})", self.phi)
    }

    fn init(&mut self, history: &[f64], period: usize) -> Result<()> {
        self.stl.init(history, period).map(|_| ())
    }

    fn observe(&mut self, y: f64) {
        self.stl.update(y);
    }

    fn forecast(&self, horizon: usize) -> Vec<f64> {
        let mut out = vec![0.0; horizon];
        self.stl.forecast_into(self.phi, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::OnlineStl;
    use oneshotstl::OneShotStlConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seasonal(n: usize, t: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                    + 0.05 * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    #[test]
    fn oneshot_forecaster_tracks_season() {
        let t = 24;
        let y = seasonal(800, t, 1);
        let mut f = StdForecaster::new(OneShotStl::new(OneShotStlConfig::default()));
        assert_eq!(OnlineForecaster::name(&f), "OneShotSTL");
        OnlineForecaster::init(&mut f, &y[..4 * t], t).unwrap();
        for &v in &y[4 * t..700] {
            f.observe(v);
        }
        let pred = f.forecast(t);
        let truth = &y[700..700 + t];
        let err = tskit::stats::mae(&pred, truth);
        assert!(err < 0.15, "OneShotSTL forecast MAE {err}");
    }

    #[test]
    fn onlinestl_forecaster_also_works() {
        let t = 24;
        let y = seasonal(800, t, 2);
        let mut f = StdForecaster::new(OnlineStl::new());
        assert_eq!(OnlineForecaster::name(&f), "OnlineSTL");
        OnlineForecaster::init(&mut f, &y[..4 * t], t).unwrap();
        for &v in &y[4 * t..700] {
            f.observe(v);
        }
        let pred = f.forecast(t);
        let truth = &y[700..700 + t];
        let err = tskit::stats::mae(&pred, truth);
        assert!(err < 0.3, "OnlineSTL forecast MAE {err}");
    }

    fn trended_seasonal(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                0.05 * i as f64 + (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn stl_forecaster_matches_damped_recurrence_bitwise() {
        let period = 24;
        let y = trended_seasonal(500, period);
        let mut f = StlForecaster::new(OneShotStl::new(OneShotStlConfig::default()), 0.9);
        let mut m = OneShotStl::new(OneShotStlConfig::default());
        f.init(&y[..4 * period], period).unwrap();
        m.init(&y[..4 * period], period).unwrap();
        for &v in &y[4 * period..] {
            f.observe(v);
            m.update(v);
        }
        let pred = f.forecast(period);
        for (i, p) in pred.iter().enumerate() {
            assert_eq!(p.to_bits(), m.forecast_damped(i + 1, 0.9).to_bits(), "h={}", i + 1);
        }
    }

    #[test]
    #[should_panic(expected = "damping must be in [0, 1]")]
    fn stl_forecaster_rejects_bad_phi() {
        let _ = StlForecaster::new(OneShotStl::new(OneShotStlConfig::default()), 1.5);
    }
}
