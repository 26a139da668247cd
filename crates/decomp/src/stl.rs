//! STL: Seasonal-Trend decomposition using LOESS (Cleveland et al. 1990).
//!
//! Faithful implementation of the inner/outer loop structure:
//!
//! 1. detrend, 2. cycle-subseries LOESS smoothing (with one-point extension
//!    at both ends), 3. low-pass filtering of the smoothed subseries
//!    (two moving averages of length `T`, one of length 3, then LOESS),
//!    4. seasonal = smoothed − low-pass, 5. deseasonalize, 6. trend LOESS.
//!    The outer loop recomputes bisquare robustness weights from the remainder.
//!
//! STL is used both as a baseline (Table 2, Fig. 5–7) and as OneShotSTL's
//! initialization routine (Algorithm 5, line 1).

use crate::traits::BatchDecomposer;
use tskit::error::{check_finite, Result, TsError};
use tskit::loess::{loess_extended_into, loess_into, LoessConfig};
use tskit::series::Decomposition;
use tskit::smooth::valid_moving_average_into;
use tskit::stats::median;

/// Seasonal smoother setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeasonalSpan {
    /// LOESS over the cycle-subseries with this span (odd, ≥ 7 advised).
    Span(usize),
    /// "Periodic" STL: each cycle-subseries is replaced by its (robustness-
    /// weighted) mean — the strictest possible seasonal smoothing.
    Periodic,
}

/// STL configuration. `Default` follows the common R conventions.
#[derive(Debug, Clone)]
pub struct StlConfig {
    /// Seasonal smoother span `n_s`.
    pub seasonal: SeasonalSpan,
    /// Trend smoother span `n_t`; `None` derives the Cleveland default
    /// `next_odd(1.5 T / (1 - 1.5/n_s))`.
    pub trend_span: Option<usize>,
    /// Low-pass span `n_l`; `None` uses `next_odd(T)`.
    pub lowpass_span: Option<usize>,
    /// Inner-loop iterations `n_i`.
    pub inner_iters: usize,
    /// Outer (robustness) iterations `n_o`.
    pub outer_iters: usize,
    /// LOESS `jump` speed-up for the trend/low-pass smoothers (1 = exact).
    pub jump: usize,
}

impl Default for StlConfig {
    fn default() -> Self {
        StlConfig {
            seasonal: SeasonalSpan::Span(7),
            trend_span: None,
            lowpass_span: None,
            inner_iters: 2,
            outer_iters: 1,
            jump: 1,
        }
    }
}

/// The STL decomposer. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Stl {
    /// Configuration used by [`BatchDecomposer::decompose`].
    pub config: StlConfig,
}

impl Stl {
    /// STL with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// STL with a custom configuration.
    pub fn with_config(config: StlConfig) -> Self {
        Stl { config }
    }

    /// A faster configuration for very long windows (larger LOESS jumps).
    pub fn fast() -> Self {
        Stl { config: StlConfig { jump: 10, outer_iters: 0, ..StlConfig::default() } }
    }
}

fn next_odd(x: usize) -> usize {
    if x.is_multiple_of(2) {
        x + 1
    } else {
        x
    }
}

/// Bisquare robustness weights from the remainder (Cleveland's `6·median`
/// scaling).
fn bisquare_weights(residual: &[f64]) -> Vec<f64> {
    let abs: Vec<f64> = residual.iter().map(|r| r.abs()).collect();
    let h = 6.0 * median(&abs);
    if h <= f64::EPSILON {
        return vec![1.0; residual.len()];
    }
    abs.iter()
        .map(|&a| {
            let u = a / h;
            if u >= 1.0 {
                0.0
            } else {
                let t = 1.0 - u * u;
                t * t
            }
        })
        .collect()
}

impl BatchDecomposer for Stl {
    fn name(&self) -> &'static str {
        "STL"
    }

    fn decompose(&self, y: &[f64], period: usize) -> Result<Decomposition> {
        let n = y.len();
        if period < 2 {
            return Err(TsError::InvalidParam {
                name: "period",
                msg: format!("STL needs period >= 2, got {period}"),
            });
        }
        if n < 2 * period + 1 {
            return Err(TsError::TooShort { what: "STL input", need: 2 * period + 1, got: n });
        }
        check_finite(y)?;
        let cfg = &self.config;
        let n_s = match cfg.seasonal {
            SeasonalSpan::Span(s) => next_odd(s.max(3)),
            SeasonalSpan::Periodic => usize::MAX, // handled separately
        };
        let n_t = next_odd(cfg.trend_span.unwrap_or_else(|| {
            if let SeasonalSpan::Span(s) = cfg.seasonal {
                let denom = 1.0 - 1.5 / next_odd(s.max(3)) as f64;
                (1.5 * period as f64 / denom).ceil() as usize
            } else {
                (1.5 * period as f64).ceil() as usize + 1
            }
        }));
        let n_l = next_odd(cfg.lowpass_span.unwrap_or(period));

        let scfg = LoessConfig::new(n_s).degree(1);
        let lcfg = LoessConfig::new(n_l).degree(1).jump(cfg.jump);
        let tcfg = LoessConfig::new(n_t).degree(1).jump(cfg.jump);

        let mut seasonal = vec![0.0; n];
        let mut trend = vec![0.0; n];
        let mut rho: Option<Vec<f64>> = None;
        // work buffers, reused by every inner and outer pass
        let mut detrended = vec![0.0; n];
        let mut deseasonalized = vec![0.0; n];
        let mut lowpass = vec![0.0; n];
        // C: the smoothed cycle-subseries at global times -T..n+T, at index
        // time + T. Every pass rewrites every entry.
        let mut c = vec![0.0; n + 2 * period];
        let (mut ma1, mut ma2, mut ma3) = (Vec::new(), Vec::new(), Vec::new());
        // Span smoothing only: one cycle-subseries, its robustness weights
        // and its smoothed ±1 extension
        let (mut sub, mut sub_rho, mut smoothed) = (Vec::new(), Vec::new(), Vec::new());

        for outer in 0..=cfg.outer_iters {
            for _inner in 0..cfg.inner_iters.max(1) {
                // 1. detrend
                for ((d, v), t) in detrended.iter_mut().zip(y).zip(&trend) {
                    *d = v - t;
                }
                // 2. cycle-subseries smoothing with ±1 cycle extension; the
                // subseries of `phase` (positions -1..=len) lands on the C
                // indices phase, phase + T, ...
                for phase in 0..period {
                    let c_phase = c[phase..].iter_mut().step_by(period);
                    match cfg.seasonal {
                        SeasonalSpan::Periodic => {
                            // weighted mean, replicated over len + 2
                            let (mut num, mut den) = (0.0, 0.0);
                            for i in (phase..n).step_by(period) {
                                let w = rho.as_ref().map_or(1.0, |r| r[i]);
                                num += w * detrended[i];
                                den += w;
                            }
                            let m = if den > 0.0 {
                                num / den
                            } else {
                                let sub = (phase..n).step_by(period);
                                let len = sub.len() as f64;
                                sub.map(|i| detrended[i]).sum::<f64>() / len
                            };
                            c_phase.for_each(|v| *v = m);
                        }
                        SeasonalSpan::Span(_) => {
                            sub.clear();
                            sub.extend((phase..n).step_by(period).map(|i| detrended[i]));
                            let sub_w = rho.as_ref().map(|r| {
                                sub_rho.clear();
                                sub_rho.extend((phase..n).step_by(period).map(|i| r[i]));
                                &sub_rho[..]
                            });
                            smoothed.resize(sub.len() + 2, 0.0);
                            loess_extended_into(&sub, &scfg, sub_w, &mut smoothed);
                            for (v, &s) in c_phase.zip(&smoothed) {
                                *v = s;
                            }
                        }
                    }
                }
                // 3. low-pass: MA(T) twice, MA(3), then LOESS(n_l, degree 1)
                valid_moving_average_into(&c, period, &mut ma1); // len n + period + 1
                valid_moving_average_into(&ma1, period, &mut ma2); // len n + 2
                valid_moving_average_into(&ma2, 3, &mut ma3); // len n
                debug_assert_eq!(ma3.len(), n);
                loess_into(&ma3, &lcfg, None, &mut lowpass);
                // 4. seasonal
                for i in 0..n {
                    seasonal[i] = c[i + period] - lowpass[i];
                }
                // 5.–6. deseasonalize, smooth trend
                for ((d, v), s) in deseasonalized.iter_mut().zip(y).zip(&seasonal) {
                    *d = v - s;
                }
                loess_into(&deseasonalized, &tcfg, rho.as_deref(), &mut trend);
            }
            // outer loop: robustness weights from the remainder
            if outer < cfg.outer_iters {
                let residual: Vec<f64> =
                    (0..n).map(|i| y[i] - trend[i] - seasonal[i]).collect();
                rho = Some(bisquare_weights(&residual));
            }
        }
        let residual: Vec<f64> = (0..n).map(|i| y[i] - trend[i] - seasonal[i]).collect();
        Ok(Decomposition { trend, seasonal, residual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tskit::stats::mae;

    fn seasonal_signal(
        n: usize,
        t: usize,
        noise: f64,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trend: Vec<f64> = (0..n).map(|i| 0.002 * i as f64).collect();
        let season: Vec<f64> =
            (0..n).map(|i| (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()).collect();
        let y: Vec<f64> =
            (0..n).map(|i| trend[i] + season[i] + noise * rng.gen_range(-1.0..1.0)).collect();
        (y, trend, season)
    }

    #[test]
    fn additive_identity_holds() {
        let (y, _, _) = seasonal_signal(300, 24, 0.1, 1);
        let d = Stl::new().decompose(&y, 24).unwrap();
        assert_eq!(d.check_additive(&y, 1e-9), None);
    }

    #[test]
    fn recovers_sinusoidal_season() {
        let (y, truth_trend, truth_season) = seasonal_signal(480, 24, 0.05, 2);
        let d = Stl::new().decompose(&y, 24).unwrap();
        // ignore boundary effects: compare the interior
        let lo = 48;
        let hi = 480 - 48;
        let se = mae(&d.seasonal[lo..hi], &truth_season[lo..hi]);
        let te = mae(&d.trend[lo..hi], &truth_trend[lo..hi]);
        assert!(se < 0.08, "seasonal MAE {se}");
        assert!(te < 0.08, "trend MAE {te}");
    }

    #[test]
    fn periodic_mode_gives_constant_subseries() {
        let (y, _, _) = seasonal_signal(240, 12, 0.02, 3);
        let cfg = StlConfig { seasonal: SeasonalSpan::Periodic, ..Default::default() };
        let d = Stl::with_config(cfg).decompose(&y, 12).unwrap();
        // every cycle-subseries of the seasonal component is near-constant
        for phase in 0..12 {
            let sub: Vec<f64> = (phase..240).step_by(12).map(|i| d.seasonal[i]).collect();
            let spread = tskit::stats::std_dev(&sub);
            assert!(spread < 0.05, "phase {phase}: spread {spread}");
        }
    }

    #[test]
    fn robustness_resists_outliers() {
        let (mut y, _, truth_season) = seasonal_signal(360, 24, 0.02, 4);
        // contaminate with strong spikes
        for i in (30..330).step_by(57) {
            y[i] += 8.0;
        }
        let robust = Stl::with_config(StlConfig { outer_iters: 3, ..Default::default() })
            .decompose(&y, 24)
            .unwrap();
        let fragile = Stl::with_config(StlConfig { outer_iters: 0, ..Default::default() })
            .decompose(&y, 24)
            .unwrap();
        let lo = 48;
        let hi = 360 - 48;
        let robust_err = mae(&robust.seasonal[lo..hi], &truth_season[lo..hi]);
        let fragile_err = mae(&fragile.seasonal[lo..hi], &truth_season[lo..hi]);
        assert!(
            robust_err < fragile_err,
            "robust {robust_err} should beat non-robust {fragile_err}"
        );
        assert!(robust_err < 0.15, "robust seasonal MAE {robust_err}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let y = vec![1.0; 30];
        assert!(matches!(Stl::new().decompose(&y, 1), Err(TsError::InvalidParam { .. })));
        assert!(matches!(Stl::new().decompose(&y, 20), Err(TsError::TooShort { .. })));
        let bad = vec![f64::NAN; 100];
        assert!(matches!(Stl::new().decompose(&bad, 10), Err(TsError::NonFinite { .. })));
    }

    #[test]
    fn jump_speedup_stays_close_to_exact() {
        let (y, _, _) = seasonal_signal(600, 24, 0.05, 5);
        let exact = Stl::new().decompose(&y, 24).unwrap();
        let fast = Stl::with_config(StlConfig { jump: 8, ..Default::default() })
            .decompose(&y, 24)
            .unwrap();
        let err = mae(&exact.trend, &fast.trend);
        assert!(err < 0.02, "jumped trend deviates: {err}");
    }
}
