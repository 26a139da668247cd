//! DeepAR-lite: autoregressive probabilistic forecasting with a Gaussian
//! head (Salinas et al., 2020), MLP conditioning instead of an RNN
//! (substitution documented in DESIGN.md §4).
//!
//! The model maps `[lagged window ; seasonal phase encoding] → (μ, log σ)`
//! and is trained by Gaussian negative log-likelihood. Multi-step
//! forecasts roll the mean forward autoregressively (the original draws
//! sample paths; using the mean gives the point forecast that Table 5's
//! MAE evaluates).

use crate::nn::{Activation, Mlp};
use crate::windows::Scaler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The DeepAR-lite forecaster.
#[derive(Debug, Clone)]
pub struct DeepArLite {
    /// Lagged-value window length.
    pub window: usize,
    /// Seasonal period for the phase encoding.
    pub period: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
    model: Option<(Mlp, Scaler)>,
}

impl DeepArLite {
    /// Creates an untrained DeepAR-lite model.
    pub fn new(window: usize, period: usize, seed: u64) -> Self {
        DeepArLite {
            window,
            period: period.max(2),
            hidden: 32,
            epochs: 10,
            lr: 1e-3,
            seed,
            model: None,
        }
    }

    fn features(&self, lags: &[f64], t: usize) -> Vec<f64> {
        let mut f = lags.to_vec();
        let phase = 2.0 * std::f64::consts::PI * (t % self.period) as f64 / self.period as f64;
        f.push(phase.sin());
        f.push(phase.cos());
        f
    }

    /// Trains by Gaussian NLL on one-step-ahead targets.
    pub fn fit(&mut self, train: &[f64]) {
        let w = self.window;
        if train.len() <= w + 1 {
            return;
        }
        let scaler = Scaler::fit(train);
        let z = scaler.transform(train);
        let mut idx: Vec<usize> = (0..z.len() - w).collect();
        let mut mlp = Mlp::new(
            &[w + 2, self.hidden, 2],
            &[Activation::Relu, Activation::Identity],
            self.seed,
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xDEE9);
        for _ in 0..self.epochs.max(1) {
            idx.shuffle(&mut rng);
            for &i in &idx {
                let x = self.features(&z[i..i + w], i + w);
                let y = z[i + w];
                // NLL = 0.5·log(2π) + logσ + (y−μ)²/(2σ²); head outputs
                // (μ, s := log σ), σ = exp(s) clamped
                let cache = mlp.forward_train(&x);
                let out = cache.output();
                let mu = out[0];
                let s = out[1].clamp(-6.0, 4.0);
                let sigma = s.exp();
                let inv_var = 1.0 / (sigma * sigma);
                let dmu = -(y - mu) * inv_var;
                let ds = 1.0 - (y - mu) * (y - mu) * inv_var;
                mlp.zero_grad();
                mlp.backward(&cache, &[dmu, ds]);
                mlp.step(self.lr);
            }
        }
        self.model = Some((mlp, scaler));
    }

    /// Autoregressive mean forecast of `horizon` values; `t` is the time
    /// index of the first forecast point.
    pub fn predict(&self, recent: &[f64], t: usize, horizon: usize) -> Vec<f64> {
        let (mlp, scaler) = self.model.as_ref().expect("fit() before predict");
        assert_eq!(recent.len(), self.window);
        let mut hist = scaler.transform(recent);
        let mut out = Vec::with_capacity(horizon);
        for h in 0..horizon {
            let o = mlp.forward(&self.features(&hist, t + h));
            let mu = o[0];
            out.push(scaler.unscale(mu));
            hist.remove(0);
            hist.push(mu);
        }
        out
    }

    /// True when the model has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.model.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal(n: usize, t: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 5.0 + 2.0 * (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect()
    }

    #[test]
    fn multistep_tracks_season() {
        let t = 12;
        let y = seasonal(600, t);
        let mut m = DeepArLite::new(t, t, 2);
        m.epochs = 15;
        m.fit(&y[..500]);
        let pred = m.predict(&y[500 - t..500], 500, t);
        let truth = &y[500..500 + t];
        let err = tskit::stats::mae(&pred, truth);
        assert!(err < 0.6, "horizon MAE {err}");
    }

    #[test]
    #[should_panic(expected = "fit() before predict")]
    fn predict_before_fit_panics() {
        DeepArLite::new(8, 4, 1).predict(&[0.0; 8], 0, 2);
    }
}
