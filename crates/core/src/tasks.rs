//! Downstream task adapters (paper §4): turning any online STD method into
//! a univariate anomaly detector or forecaster.

use crate::nsigma::NSigma;
use crate::score::{ResidualScorer, ScoreConfig, ScoreVerdict};
use decomp::traits::OnlineDecomposer;
use tskit::error::Result;
use tskit::ring::RingBuffer;
use tskit::series::DecompPoint;

/// §4 (1): STD → TSAD. Wraps an online decomposer and scores each point
/// with the persistence-aware [`ResidualScorer`] (instantaneous NSigma
/// z-score fused with a two-sided CUSUM; see [`crate::score`]) on the
/// decomposed residual.
#[derive(Debug, Clone)]
pub struct StdAnomalyDetector<D> {
    /// The wrapped online decomposer.
    pub decomposer: D,
    scorer: ResidualScorer,
}

impl<D: OnlineDecomposer> StdAnomalyDetector<D> {
    /// Wraps `decomposer`, flagging residuals beyond `n` sigma or past
    /// the CUSUM bar, with the default fused [`ScoreConfig`].
    pub fn new(decomposer: D, n: f64) -> Self {
        Self::with_score(decomposer, n, ScoreConfig::default())
    }

    /// Wraps `decomposer` with an explicit scoring configuration
    /// ([`ScoreConfig::off`] reproduces the paper's plain-NSigma path
    /// bit-identically).
    pub fn with_score(decomposer: D, n: f64, score: ScoreConfig) -> Self {
        StdAnomalyDetector { decomposer, scorer: ResidualScorer::new(n, score) }
    }

    /// Read-only view of the residual scorer.
    pub fn scorer(&self) -> &ResidualScorer {
        &self.scorer
    }

    /// Read-only view of the residual scoring statistics.
    pub fn nsigma(&self) -> &NSigma {
        self.scorer.nsigma()
    }

    /// Reassembles a detector from a decomposer and a scorer (snapshot
    /// restore; see `fleet::codec`).
    pub fn from_parts(decomposer: D, scorer: ResidualScorer) -> Self {
        StdAnomalyDetector { decomposer, scorer }
    }

    /// Initializes the decomposer on a prefix; residuals of the prefix seed
    /// the scorer's statistics.
    pub fn init(&mut self, y: &[f64], period: usize) -> Result<()> {
        let d = self.decomposer.init(y, period)?;
        self.scorer.seed(&d.residual);
        Ok(())
    }

    /// Decomposes one arriving point and returns `(components, score)`.
    pub fn update(&mut self, y: f64) -> (DecompPoint, f64) {
        let (p, v) = self.update_scored(y);
        (p, v.score)
    }

    /// [`Self::update`] with the full fused verdict (score, components,
    /// threshold decision), so callers don't re-implement the fusion
    /// rule.
    pub fn update_scored(&mut self, y: f64) -> (DecompPoint, ScoreVerdict) {
        let p = self.decomposer.update(y);
        let v = self.scorer.update(p.residual);
        (p, v)
    }

    /// Scores a whole test stream (after [`Self::init`]).
    pub fn score_stream(&mut self, ys: &[f64]) -> Vec<f64> {
        ys.iter().map(|&y| self.update(y).1).collect()
    }
}

impl<S: crate::oneshot::TailSolver> StdAnomalyDetector<crate::oneshot::OnlineJointStl<S>> {
    /// [`Self::update_scored`] with caller-provided trial scratch: a host
    /// multiplexing many detectors on one thread (the fleet shard worker)
    /// shares one hot [`crate::UpdateScratch`] across all of them instead
    /// of growing one per model. Output is bit-identical to
    /// [`Self::update_scored`].
    pub fn update_scored_with(
        &mut self,
        y: f64,
        scratch: &mut crate::UpdateScratch<S>,
    ) -> (DecompPoint, ScoreVerdict) {
        let p = self.decomposer.update_with_scratch(y, scratch);
        let v = self.scorer.update(p.residual);
        (p, v)
    }

    /// [`Self::update_scored_with`] for the lane `lane` of a grouped
    /// update begun by [`crate::OneShotStl::begin_lanes`]: commits the
    /// decomposition ([`crate::oneshot::OnlineJointStl::finish_lane`]) and scores
    /// its residual.
    pub fn finish_lane_scored<const L: usize>(
        &mut self,
        trials: &crate::LaneTrials<L>,
        lane: usize,
        scratch: &mut crate::UpdateScratch<S>,
    ) -> (DecompPoint, ScoreVerdict) {
        let p = self.decomposer.finish_lane(trials, lane, scratch);
        let v = self.scorer.update(p.residual);
        (p, v)
    }
}

/// §4 (2): STD → TSF. Buffers the latest trend and one period of seasonal
/// values; the `i`-step-ahead prediction is
/// `ŷ_{t+i} = τ_{t−1} + v[(t+i) mod T]`.
#[derive(Debug, Clone)]
pub struct StdForecaster<D> {
    /// The wrapped online decomposer.
    pub decomposer: D,
    period: usize,
    /// One period of the latest seasonal estimates, indexed by `t mod T`.
    v: Vec<f64>,
    /// Latest trend value τ_{t−1}.
    tau: f64,
    /// Global index of the next arriving point.
    t: usize,
}

impl<D: OnlineDecomposer> StdForecaster<D> {
    /// Wraps an online decomposer for forecasting.
    pub fn new(decomposer: D) -> Self {
        StdForecaster { decomposer, period: 0, v: Vec::new(), tau: 0.0, t: 0 }
    }

    /// Initializes on a prefix; fills the seasonal buffer from the last
    /// period of the initialization decomposition.
    pub fn init(&mut self, y: &[f64], period: usize) -> Result<()> {
        let d = self.decomposer.init(y, period)?;
        self.period = period;
        self.v = vec![0.0; period];
        let n = y.len();
        for idx in n.saturating_sub(period)..n {
            self.v[idx % period] = d.seasonal[idx];
        }
        self.tau = *d.trend.last().expect("non-empty init");
        self.t = n;
        Ok(())
    }

    /// Observes one arriving value (decomposes it online).
    pub fn observe(&mut self, y: f64) {
        let p = self.decomposer.update(y);
        self.v[self.t % self.period] = p.seasonal;
        self.tau = p.trend;
        self.t += 1;
    }

    /// Predicts `i` steps ahead (`i ≥ 1`): `τ_{t−1} + v[(t−1+i) mod T]`.
    pub fn predict(&self, i: usize) -> f64 {
        assert!(self.period > 0, "StdForecaster::predict called before init");
        self.tau + self.v[(self.t + i - 1) % self.period]
    }

    /// Predicts the full horizon `1..=h`.
    pub fn predict_horizon(&self, h: usize) -> Vec<f64> {
        (1..=h).map(|i| self.predict(i)).collect()
    }
}

/// A trailing-window z-score forecaster used as a trivial sanity baseline
/// (predicts the running mean). Useful for tests and as a floor in the
/// evaluation harness.
#[derive(Debug, Clone)]
pub struct MeanForecaster {
    window: RingBuffer,
}

impl MeanForecaster {
    /// Creates a mean forecaster with the given window capacity.
    pub fn new(window: usize) -> Self {
        MeanForecaster { window: RingBuffer::new(window.max(1)) }
    }

    /// Observes one value.
    pub fn observe(&mut self, y: f64) {
        self.window.push(y);
    }

    /// Predicts any horizon with the window mean.
    pub fn predict(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().sum::<f64>() / self.window.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::{OneShotStl, OneShotStlConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seasonal(n: usize, t: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                1.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                    + 0.03 * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    #[test]
    fn detector_flags_injected_spike() {
        let t = 24;
        let mut y = seasonal(800, t, 1);
        y[600] += 5.0;
        let mut det =
            StdAnomalyDetector::new(OneShotStl::new(OneShotStlConfig::default()), 5.0);
        det.init(&y[..4 * t], t).unwrap();
        let scores = det.score_stream(&y[4 * t..]);
        let spike_idx = 600 - 4 * t;
        let spike_score = scores[spike_idx];
        // the fused score is peak-held, so the points *after* the spike
        // carry a decaying tail by design — the pre-spike region is the
        // clean comparison, and the spike itself must rank top overall
        let pre_spike_max = scores[..spike_idx - 2].iter().fold(0.0f64, |a, &s| a.max(s));
        assert!(
            spike_score > pre_spike_max,
            "spike score {spike_score} should dominate pre-spike max {pre_spike_max}"
        );
        assert_eq!(tskit::stats::argmax(&scores), Some(spike_idx));
        // and the hold tail decays geometrically rather than sticking
        assert!(scores[spike_idx + 30] < spike_score);
    }

    /// The legacy configuration is still reachable: `ScoreConfig::off()`
    /// reproduces the paper's plain-NSigma scoring (no hold tail).
    #[test]
    fn score_off_has_no_hold_tail() {
        let t = 24;
        let mut y = seasonal(800, t, 1);
        y[600] += 5.0;
        let mut det = StdAnomalyDetector::with_score(
            OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            crate::score::ScoreConfig::off(),
        );
        det.init(&y[..4 * t], t).unwrap();
        let scores = det.score_stream(&y[4 * t..]);
        let spike_idx = 600 - 4 * t;
        let spike_score = scores[spike_idx];
        let normal_max = scores
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as i64 - spike_idx as i64).abs() > 2)
            .map(|(_, &s)| s)
            .fold(0.0f64, f64::max);
        assert!(
            spike_score > normal_max,
            "spike score {spike_score} should dominate normal max {normal_max}"
        );
    }

    #[test]
    fn forecaster_beats_mean_on_seasonal_data() {
        let t = 24;
        let y = seasonal(1000, t, 2);
        let split = 800;
        let mut f = StdForecaster::new(OneShotStl::new(OneShotStlConfig::default()));
        f.init(&y[..4 * t], t).unwrap();
        let mut mean_f = MeanForecaster::new(2 * t);
        for &v in &y[4 * t..split] {
            f.observe(v);
            mean_f.observe(v);
        }
        // forecast the next 2 periods
        let horizon = 2 * t;
        let preds = f.predict_horizon(horizon);
        let truth = &y[split..split + horizon];
        let std_err = tskit::stats::mae(&preds, truth);
        let mean_err: f64 =
            truth.iter().map(|v| (v - mean_f.predict()).abs()).sum::<f64>() / horizon as f64;
        assert!(
            std_err < 0.5 * mean_err,
            "seasonal forecaster ({std_err}) should easily beat mean ({mean_err})"
        );
        assert!(std_err < 0.15, "forecast MAE {std_err}");
    }

    #[test]
    fn predict_horizon_is_periodic() {
        let t = 12;
        let y = seasonal(300, t, 3);
        let mut f = StdForecaster::new(OneShotStl::new(OneShotStlConfig::default()));
        f.init(&y[..6 * t], t).unwrap();
        for &v in &y[6 * t..200] {
            f.observe(v);
        }
        let p = f.predict_horizon(3 * t);
        for i in 0..t {
            assert!((p[i] - p[i + t]).abs() < 1e-12, "seasonal forecast repeats");
        }
    }

    #[test]
    #[should_panic(expected = "before init")]
    fn predict_before_init_panics() {
        let f = StdForecaster::new(OneShotStl::default_paper());
        f.predict(1);
    }
}
