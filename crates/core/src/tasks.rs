//! Downstream task adapters (paper §4): turning any online STD method into
//! a univariate anomaly detector or forecaster.

use crate::oneshot::{OnlineJointStl, TailSolver, UpdateScratch};
use crate::score::{CusumScorer, ScoreConfig, ScoreVerdict};
use decomp::traits::OnlineDecomposer;
use tskit::error::Result;
use tskit::series::DecompPoint;

/// §4 (1): STD → TSAD. Wraps OneShotSTL and scores each point with the
/// persistence-aware scorer of [`crate::score`] (instantaneous NSigma
/// z-score fused with a two-sided CUSUM) on the decomposed residual.
///
/// The z-score is the one the decomposer's §3.4 shift trigger computes
/// ([`OnlineJointStl::update_z`]): one set of running sums, two bars (the
/// decomposer's `config.nsigma`, the detector's `n`), so the detector
/// keeps only a [`CusumScorer`]. Verdicts are bit-identical to
/// `OneShotStl::update` followed by a [`crate::ResidualScorer`] seeded
/// from the initialization residuals, which is also how to score any
/// other decomposer.
#[derive(Debug, Clone)]
pub struct StdAnomalyDetector<D> {
    /// The wrapped online decomposer.
    pub decomposer: D,
    scorer: CusumScorer,
}

impl<S: TailSolver> StdAnomalyDetector<OnlineJointStl<S>> {
    /// Wraps `decomposer`, flagging residuals beyond `n` sigma or past
    /// the CUSUM bar, with the default fused [`ScoreConfig`].
    pub fn new(decomposer: OnlineJointStl<S>, n: f64) -> Self {
        Self::with_score(decomposer, n, ScoreConfig::default())
    }

    /// Wraps `decomposer` with an explicit scoring configuration
    /// ([`ScoreConfig::off`] reproduces the paper's plain-NSigma path
    /// bit-identically).
    pub fn with_score(decomposer: OnlineJointStl<S>, n: f64, score: ScoreConfig) -> Self {
        StdAnomalyDetector { decomposer, scorer: CusumScorer::new(n, score) }
    }

    /// Read-only view of the CUSUM part of the scorer (its alarm
    /// counters).
    pub fn scorer(&self) -> &CusumScorer {
        &self.scorer
    }

    /// Reassembles a detector from a decomposer and a scorer (snapshot
    /// restore; the running residual sums are the decomposer's).
    pub fn from_parts(decomposer: OnlineJointStl<S>, scorer: CusumScorer) -> Self {
        StdAnomalyDetector { decomposer, scorer }
    }

    /// Initializes the decomposer on a prefix; its residuals seed the
    /// running statistics the score shares with the shift trigger.
    pub fn init(&mut self, y: &[f64], period: usize) -> Result<()> {
        self.decomposer.init(y, period)?;
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
        let (p, z) = self.decomposer.update_z(y);
        (p, self.scorer.update(p.residual, z))
    }

    /// Scores a whole test stream (after [`Self::init`]).
    pub fn score_stream(&mut self, ys: &[f64]) -> Vec<f64> {
        ys.iter().map(|&y| self.update(y).1).collect()
    }

    /// [`Self::update_scored`] with caller-provided trial scratch: a host
    /// multiplexing many detectors on one thread (the fleet shard worker)
    /// shares one hot [`UpdateScratch`] across all of them instead of
    /// growing one per model. Output is bit-identical to
    /// [`Self::update_scored`].
    pub fn update_scored_with(
        &mut self,
        y: f64,
        scratch: &mut UpdateScratch<S>,
    ) -> (DecompPoint, ScoreVerdict) {
        let (p, z) = self.decomposer.update_with_scratch(y, scratch);
        (p, self.scorer.update(p.residual, z))
    }

    /// [`Self::update_scored_with`] for two detectors at once: their
    /// decomposers step as one pair
    /// ([`OnlineJointStl::update_pair_with_scratch`]), then each scorer
    /// takes its own residual. Output is bit-identical to
    /// `pair[0].update_scored_with(ys[0])` followed by
    /// `pair[1].update_scored_with(ys[1])`.
    pub fn update_scored_pair_with(
        pair: [&mut Self; 2],
        ys: [f64; 2],
        scratch: &mut UpdateScratch<S>,
    ) -> [(DecompPoint, ScoreVerdict); 2] {
        let [a, b] = pair;
        let [(pa, za), (pb, zb)] = OnlineJointStl::update_pair_with_scratch(
            [&mut a.decomposer, &mut b.decomposer],
            ys,
            scratch,
        );
        [(pa, a.scorer.update(pa.residual, za)), (pb, b.scorer.update(pb.residual, zb))]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::{OneShotStl, OneShotStlConfig};
    use crate::score::{Fusion, ResidualScorer};
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
        for &v in &y[4 * t..split] {
            f.observe(v);
        }
        // the baseline predicts every horizon with the trailing 2-period mean
        let mean = tskit::stats::mean(&y[split - 2 * t..split]);
        // forecast the next 2 periods
        let horizon = 2 * t;
        let preds = f.predict_horizon(horizon);
        let truth = &y[split..split + horizon];
        let std_err = tskit::stats::mae(&preds, truth);
        let mean_err: f64 =
            truth.iter().map(|v| (v - mean).abs()).sum::<f64>() / horizon as f64;
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

    /// A spiky stream after a clean `4·t` init window: ±50 spikes, one
    /// 1e160 spike (its square overflows the running sum of squares), NaN
    /// and ±∞.
    fn spiky(rng: &mut StdRng, t: usize, n: usize) -> Vec<f64> {
        let huge_at = rng.gen_range(4 * t..n);
        let phase = rng.gen_range(0..t);
        (0..n)
            .map(|i| {
                let v = 1.0
                    + (2.0 * std::f64::consts::PI * (i + phase) as f64 / t as f64).sin()
                    + 0.05 * rng.gen_range(-1.0..1.0);
                match rng.gen_range(0..200) {
                    // the init window stays clean (`init` rejects NaN)
                    _ if i < 4 * t => v,
                    _ if i == huge_at => 1e160,
                    0..=3 => v + rng.gen_range(-50.0..50.0),
                    4 => f64::NAN,
                    5 => [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2)],
                    _ => v,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// The detector scores from its decomposer's shift-trigger NSigma
        /// (one set of running sums, two bars). Its plain, scratch and
        /// paired updates must match the reference pipeline of two
        /// statistics, `OneShotStl::update` followed by a standalone
        /// `ResidualScorer` seeded from the init residuals, bit for bit:
        /// components, score, z, CUSUM and verdict at every step, and the
        /// scorer snapshot and alarm counts at the end. Streams carry
        /// spikes (enough to run the shift search), NaN, ±∞ and a 1e160
        /// spike, under every fusion, at I = 6 and 8, with the task bar
        /// `n` equal to or below the trigger's.
        #[test]
        fn prop_detector_matches_decomposer_plus_standalone_scorer(seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = [7usize, 12, 24][rng.gen_range(0..3)];
            let iters = [6usize, 8][rng.gen_range(0..2)];
            let n = [3.0, 5.0][rng.gen_range(0..2)];
            let len = 4 * t + 1_200;
            let ys = [spiky(&mut rng, t, len), spiky(&mut rng, t, len)];
            let bits = |p: DecompPoint, v: ScoreVerdict| {
                let f = [p.trend, p.seasonal, p.residual, v.score, v.z, v.cusum];
                (f.map(f64::to_bits), v.is_anomaly)
            };
            for fusion in [Fusion::Max, Fusion::Cusum, Fusion::Off] {
                let score = ScoreConfig { fusion, ..Default::default() };
                let config = OneShotStlConfig { iters, ..Default::default() };
                let detector = || {
                    StdAnomalyDetector::with_score(OneShotStl::new(config.clone()), n, score)
                };
                let (mut plain, mut with) = (detector(), detector());
                let mut pair = [detector(), detector()];
                let mut refs = [0, 1].map(|_| {
                    (OneShotStl::new(config.clone()), ResidualScorer::new(n, score))
                });
                for q in 0..2 {
                    let (m, scorer) = &mut refs[q];
                    scorer.seed(&m.init(&ys[q][..4 * t], t).unwrap().residual);
                    pair[q].init(&ys[q][..4 * t], t).unwrap();
                }
                plain.init(&ys[0][..4 * t], t).unwrap();
                with.init(&ys[0][..4 * t], t).unwrap();
                let mut scratch = UpdateScratch::default();
                for (i, (&y0, &y1)) in ys[0].iter().zip(&ys[1]).enumerate().skip(4 * t) {
                    let [r0, r1] = &mut refs;
                    let want = [(y0, r0), (y1, r1)].map(|(y, (m, scorer))| {
                        let p = m.update(y);
                        bits(p, scorer.update(p.residual))
                    });
                    let (p, v) = plain.update_scored(y0);
                    proptest::prop_assert_eq!(bits(p, v), want[0], "plain, step {}", i);
                    let (p, v) = with.update_scored_with(y0, &mut scratch);
                    proptest::prop_assert_eq!(bits(p, v), want[0], "scratch, step {}", i);
                    let [a, b] = &mut pair;
                    let got =
                        StdAnomalyDetector::update_scored_pair_with([a, b], [y0, y1], &mut scratch);
                    for q in 0..2 {
                        let (p, v) = got[q];
                        proptest::prop_assert_eq!(bits(p, v), want[q], "pair lane {}, step {}", q, i);
                    }
                }
                for (det, q) in [(&plain, 0), (&with, 0), (&pair[0], 0), (&pair[1], 1)] {
                    let scorer = &refs[q].1;
                    let want = scorer.to_state();
                    let got = det.decomposer.to_state().nsigma;
                    let sums = |s: &crate::NSigmaState| {
                        (s.count, s.sum.to_bits(), s.sum_sq.to_bits())
                    };
                    proptest::prop_assert_eq!(sums(&got), sums(&want.nsigma));
                    proptest::prop_assert_eq!(det.scorer().to_state(), want.cusum);
                    proptest::prop_assert_eq!(det.scorer().alarm_counts(), scorer.alarm_counts());
                }
            }
        }
    }
}
