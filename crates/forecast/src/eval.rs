//! Rolling-origin forecast evaluation (the Table 5 protocol).
//!
//! For every origin `t` in the test region (stepped by `stride`), the model
//! sees data up to `t` and predicts `t+1 … t+h`; errors are pooled over all
//! origins and horizon steps. Online methods absorb each point exactly
//! once; batch methods absorb points via [`crate::traits::Forecaster::observe`]
//! and may be refit periodically.

use crate::traits::{Forecaster, OnlineForecaster};
use std::time::{Duration, Instant};
use tskit::error::Result;

/// Incremental (streaming) MAE/sMAPE accumulator: feed `(truth, pred)`
/// pairs one at a time, read pooled errors at any point. This is the
/// exact accumulation the rolling-origin evaluators below pool over all
/// origins, usable online without materializing slices.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ErrorAcc {
    abs_err: f64,
    smape_sum: f64,
    count: u64,
}

impl ErrorAcc {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one `(truth, pred)` pair: its absolute error and its sMAPE
    /// term `2|y−ŷ| / max(|y|+|ŷ|, 1e-12)`.
    pub fn record(&mut self, truth: f64, pred: f64) {
        let abs = (truth - pred).abs();
        self.abs_err += abs;
        self.smape_sum += 2.0 * abs / (truth.abs() + pred.abs()).max(1e-12);
        self.count += 1;
    }

    /// Pooled mean absolute error (0 before any pair).
    pub fn mae(&self) -> f64 {
        if self.count > 0 {
            self.abs_err / self.count as f64
        } else {
            0.0
        }
    }

    /// Pooled symmetric MAPE (0 before any pair).
    pub fn smape(&self) -> f64 {
        if self.count > 0 {
            self.smape_sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Number of pairs absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Outcome of one (method, horizon) evaluation.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Method name.
    pub method: String,
    /// Forecast horizon evaluated.
    pub horizon: usize,
    /// Pooled mean absolute error.
    pub mae: f64,
    /// Pooled symmetric MAPE.
    pub smape: f64,
    /// Number of forecast origins evaluated.
    pub windows: usize,
    /// Wall-clock time spent (fit + rolling forecasts).
    pub elapsed: Duration,
}

/// Evaluates an [`OnlineForecaster`]: init on `values[..init_end]`, then
/// stream through the test region, forecasting every `stride` points.
pub fn evaluate_online<F: OnlineForecaster + ?Sized>(
    f: &mut F,
    values: &[f64],
    period: usize,
    init_end: usize,
    test_start: usize,
    horizon: usize,
    stride: usize,
) -> Result<EvalReport> {
    assert!(init_end <= test_start && test_start < values.len(), "invalid split");
    let start = Instant::now();
    f.init(&values[..init_end], period)?;
    for &v in &values[init_end..test_start] {
        f.observe(v);
    }
    let mut acc = ErrorAcc::new();
    let mut windows = 0usize;
    let stride = stride.max(1);
    let mut t = test_start;
    while t + horizon <= values.len() {
        let pred = f.forecast(horizon);
        for (i, &p) in pred.iter().enumerate() {
            acc.record(values[t + i], p);
        }
        windows += 1;
        for &v in &values[t..(t + stride).min(values.len())] {
            f.observe(v);
        }
        t += stride;
    }
    Ok(EvalReport {
        method: f.name(),
        horizon,
        mae: acc.mae(),
        smape: acc.smape(),
        windows,
        elapsed: start.elapsed(),
    })
}

/// Evaluates a batch [`Forecaster`]: fit on `values[..test_start]`, then
/// roll through the test region absorbing points via `observe`, refitting
/// every `refit_every` origins (0 = never refit).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_forecaster<F: Forecaster + ?Sized>(
    f: &mut F,
    values: &[f64],
    period: usize,
    test_start: usize,
    horizon: usize,
    stride: usize,
    refit_every: usize,
) -> Result<EvalReport> {
    assert!(test_start < values.len(), "invalid split");
    let start = Instant::now();
    f.fit(&values[..test_start], period)?;
    let mut acc = ErrorAcc::new();
    let mut windows = 0usize;
    let stride = stride.max(1);
    let mut t = test_start;
    while t + horizon <= values.len() {
        if refit_every > 0 && windows > 0 && windows.is_multiple_of(refit_every) {
            f.fit(&values[..t], period)?;
        }
        let pred = f.forecast(horizon);
        for (i, &p) in pred.iter().enumerate() {
            acc.record(values[t + i], p);
        }
        windows += 1;
        for &v in &values[t..(t + stride).min(values.len())] {
            f.observe(v);
        }
        t += stride;
    }
    Ok(EvalReport {
        method: f.name(),
        horizon,
        mae: acc.mae(),
        smape: acc.smape(),
        windows,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{Naive, SeasonalNaive};
    use crate::std_forecast::StdOnlineForecaster;
    use oneshotstl::{OneShotStl, OneShotStlConfig};
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
    fn seasonal_naive_beats_naive_on_seasonal_data() {
        let t = 24;
        let y = seasonal(1000, t, 1);
        let mut naive = Naive::default();
        let r_naive = evaluate_forecaster(&mut naive, &y, t, 800, t, t, 0).unwrap();
        let mut snaive = SeasonalNaive::default();
        let r_snaive = evaluate_forecaster(&mut snaive, &y, t, 800, t, t, 0).unwrap();
        assert!(
            r_snaive.mae < 0.5 * r_naive.mae,
            "seasonal naive {} vs naive {}",
            r_snaive.mae,
            r_naive.mae
        );
        assert!(r_snaive.windows > 0);
    }

    #[test]
    fn online_eval_runs_oneshotstl() {
        let t = 24;
        let y = seasonal(1000, t, 2);
        let mut f = StdOnlineForecaster::new(
            "OneShotSTL",
            OneShotStl::new(OneShotStlConfig::default()),
        );
        let r = evaluate_online(&mut f, &y, t, 4 * t, 800, t, t / 2).unwrap();
        assert!(r.mae < 0.2, "OneShotSTL rolling MAE {}", r.mae);
        assert!(r.windows >= 5);
        assert_eq!(r.method, "OneShotSTL");
    }

    #[test]
    #[should_panic(expected = "invalid split")]
    fn bad_split_panics() {
        let y = vec![0.0; 10];
        let mut f = Naive::default();
        let _ = evaluate_forecaster(&mut f, &y, 1, 20, 2, 1, 0);
    }

    /// The streaming accumulator matches a hand-pooled computation.
    #[test]
    fn error_acc_matches_pooled_formulas() {
        let pairs = [(1.0, 0.5), (2.0, 2.5), (-1.0, 1.0), (0.0, 0.0)];
        let mut acc = ErrorAcc::new();
        for &(t, p) in &pairs {
            acc.record(t, p);
        }
        let mae: f64 = pairs.iter().map(|(t, p)| (t - p).abs()).sum::<f64>() / 4.0;
        let smape: f64 = pairs
            .iter()
            .map(|(t, p)| 2.0 * (t - p).abs() / (t.abs() + p.abs()).max(1e-12))
            .sum::<f64>()
            / 4.0;
        assert_eq!(acc.mae().to_bits(), mae.to_bits());
        assert_eq!(acc.smape().to_bits(), smape.to_bits());
        assert_eq!(acc.count(), 4);
        assert_eq!(ErrorAcc::new().mae(), 0.0);
    }
}
