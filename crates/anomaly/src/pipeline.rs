//! STD-based detection pipelines (paper §4 and Table 4's hybrids).

use crate::damp::Damp;
use crate::traits::TsadMethod;
use decomp::traits::OnlineDecomposer;
use oneshotstl::{ResidualScorer, ScoreConfig};

/// Plain streaming NSigma on the raw values — the paper's simplest (and
/// surprisingly competitive) baseline. With a fused [`ScoreConfig`] it
/// emits the persistence-aware CUSUM-fused score over the raw values
/// instead; the default stays the paper's instantaneous z-score.
#[derive(Debug, Clone)]
pub struct NSigmaDetector {
    /// Threshold `n` (only relevant for binary verdicts; scores are
    /// threshold-free).
    pub n: f64,
    /// Scoring configuration ([`ScoreConfig::off`] = the paper's plain
    /// z-score baseline).
    pub score: ScoreConfig,
}

impl Default for NSigmaDetector {
    fn default() -> Self {
        NSigmaDetector { n: 5.0, score: ScoreConfig::off() }
    }
}

impl NSigmaDetector {
    /// The fused persistence-aware variant (CUSUM + peak-hold on raw
    /// values).
    pub fn fused(n: f64, score: ScoreConfig) -> Self {
        NSigmaDetector { n, score }
    }
}

impl TsadMethod for NSigmaDetector {
    fn name(&self) -> String {
        // with Fusion::Off the scorer behaves as plain NSigma regardless
        // of the (unused) CUSUM parameters
        if self.score.fusion == oneshotstl::Fusion::Off {
            "NSigma".into()
        } else {
            "NSigma+CUSUM".into()
        }
    }

    fn score(&mut self, train: &[f64], test: &[f64], _period: usize) -> Vec<f64> {
        let mut d = ResidualScorer::new(self.n, self.score);
        d.seed(train);
        test.iter().map(|&y| d.update(y).score).collect()
    }
}

/// §4 (1): any online STD method + residual scoring. The paper's
/// `OnlineSTL` and `OneShotSTL` rows of Tables 3–4 are this wrapper around
/// the respective decomposers (with [`ScoreConfig::off`], the paper's
/// plain NSigma residual score); a fused config adds the
/// persistence-aware CUSUM + peak-hold layer from [`oneshotstl::score`].
pub struct StdNSigma<D, F>
where
    F: Fn() -> D,
{
    /// Factory producing a fresh decomposer per series.
    pub make: F,
    /// Reported method name.
    pub label: String,
    /// NSigma threshold.
    pub n: f64,
    /// Residual scoring configuration.
    pub score: ScoreConfig,
}

impl<D, F> StdNSigma<D, F>
where
    D: OnlineDecomposer,
    F: Fn() -> D,
{
    /// Creates the wrapper with a decomposer factory and the paper's
    /// plain instantaneous residual z-score.
    pub fn new(label: impl Into<String>, n: f64, make: F) -> Self {
        Self::with_score(label, n, ScoreConfig::off(), make)
    }

    /// Creates the wrapper with an explicit residual scoring
    /// configuration.
    pub fn with_score(label: impl Into<String>, n: f64, score: ScoreConfig, make: F) -> Self {
        StdNSigma { make, label: label.into(), n, score }
    }
}

impl<D, F> TsadMethod for StdNSigma<D, F>
where
    D: OnlineDecomposer,
    F: Fn() -> D,
{
    fn name(&self) -> String {
        self.label.clone()
    }

    fn score(&mut self, train: &[f64], test: &[f64], period: usize) -> Vec<f64> {
        let mut dec = (self.make)();
        let mut scorer = ResidualScorer::new(self.n, self.score);
        match dec.init(train, period) {
            Ok(d) => scorer.seed(&d.residual),
            Err(_) => {
                // initialization impossible (series too short / flat):
                // degrade to scoring the raw values
                scorer.seed(train);
                return test.iter().map(|&y| scorer.update(y).score).collect();
            }
        }
        test.iter()
            .map(|&y| {
                let p = dec.update(y);
                scorer.update(p.residual).score
            })
            .collect()
    }
}

/// Table 4's hybrid: a cheap STD prefilter flags the top `keep_fraction`
/// of test points; DAMP then scores **only windows around those points**,
/// cutting its runtime by ~the keep factor with negligible accuracy loss.
pub struct PrefilterDamp<M: TsadMethod> {
    /// The cheap prefilter (e.g. `StdNSigma<OneShotStl>`).
    pub prefilter: M,
    /// Fraction of test points forwarded to DAMP (paper: 1%).
    pub keep_fraction: f64,
    /// The DAMP configuration used for rescoring.
    pub damp: Damp,
}

impl<M: TsadMethod> PrefilterDamp<M> {
    /// Builds the hybrid with the paper's 1% forwarding rate.
    pub fn new(prefilter: M) -> Self {
        PrefilterDamp { prefilter, keep_fraction: 0.01, damp: Damp::default() }
    }
}

impl<M: TsadMethod> TsadMethod for PrefilterDamp<M> {
    fn name(&self) -> String {
        format!("{}+DAMP", self.prefilter.name())
    }

    fn score(&mut self, train: &[f64], test: &[f64], period: usize) -> Vec<f64> {
        let pre = self.prefilter.score(train, test, period);
        if test.is_empty() {
            return pre;
        }
        let keep = ((test.len() as f64 * self.keep_fraction).ceil() as usize).max(1);
        // threshold at the keep-th largest prefilter score
        let mut sorted = pre.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let threshold = sorted[keep.min(sorted.len()) - 1];
        let m = period.clamp(8, self.damp.subseq_cap);
        let mut x = train.to_vec();
        x.extend_from_slice(test);
        let offset = train.len();
        let mut out = vec![0.0; test.len()];
        let mut bsf = 0.0f64;
        for (i, &p) in pre.iter().enumerate() {
            if p < threshold {
                continue;
            }
            let end = offset + i;
            if end + 1 < 2 * m {
                continue;
            }
            // a subsequence with no earlier window to compare against
            // scores 0
            let d = Damp::backward_score(&x, m, end, bsf);
            let d = if d.is_finite() { d } else { 0.0 };
            out[i] = d;
            bsf = bsf.max(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneshotstl::{OneShotStl, OneShotStlConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn series_with_spike(n: usize, t: usize, at: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<f64> = (0..n)
            .map(|i| {
                (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                    + 0.05 * rng.gen_range(-1.0..1.0)
            })
            .collect();
        x[at] += 6.0;
        x
    }

    #[test]
    fn nsigma_detector_finds_global_outlier() {
        let x = series_with_spike(600, 24, 400, 1);
        let mut d = NSigmaDetector::default();
        let scores = d.score(&x[..200], &x[200..], 24);
        assert_eq!(tskit::stats::argmax(&scores), Some(200));
    }

    #[test]
    fn std_nsigma_outperforms_raw_nsigma_on_seasonal_spike() {
        // a spike that stays within the global range but breaks the local
        // seasonal pattern: raw NSigma struggles, STD+NSigma nails it
        let t = 24;
        let mut x = series_with_spike(800, t, 500, 2);
        x[500] -= 4.0; // spike of +2 total: within global range
        let mut raw = NSigmaDetector::default();
        let raw_scores = raw.score(&x[..4 * t], &x[4 * t..], t);
        let mut std =
            StdNSigma::new("OneShotSTL", 5.0, || OneShotStl::new(OneShotStlConfig::default()));
        let std_scores = std.score(&x[..4 * t], &x[4 * t..], t);
        let target = 500 - 4 * t;
        let rank = |scores: &[f64]| {
            let v = scores[target];
            scores.iter().filter(|&&s| s > v).count()
        };
        assert!(
            rank(&std_scores) <= rank(&raw_scores),
            "STD residual scoring should rank the spike at least as high"
        );
        assert_eq!(tskit::stats::argmax(&std_scores), Some(target));
    }

    #[test]
    fn prefilter_damp_scores_only_a_few_points() {
        let t = 24;
        let x = series_with_spike(1200, t, 900, 3);
        let pre =
            StdNSigma::new("OneShotSTL", 5.0, || OneShotStl::new(OneShotStlConfig::default()));
        let mut hybrid = PrefilterDamp::new(pre);
        let scores = hybrid.score(&x[..400], &x[400..], t);
        let nonzero = scores.iter().filter(|&&s| s > 0.0).count();
        assert!(nonzero <= 1 + scores.len() / 50, "only ~1% rescored, got {nonzero}");
        // and the spike region still carries the top score
        let peak = tskit::stats::argmax(&scores).unwrap() + 400;
        assert!((900..900 + 2 * t).contains(&peak), "spike at 900, peak at {peak}");
    }

    #[test]
    fn hybrid_name_combines_parts() {
        let pre = NSigmaDetector::default();
        let hybrid = PrefilterDamp::new(pre);
        assert_eq!(hybrid.name(), "NSigma+DAMP");
    }

    #[test]
    fn nsigma_detector_name_tracks_fusion_mode() {
        use oneshotstl::Fusion;
        assert_eq!(NSigmaDetector::default().name(), "NSigma");
        // an Off config with non-default CUSUM params still behaves (and
        // must be labelled) as the plain baseline
        let off_tuned = NSigmaDetector {
            n: 5.0,
            score: ScoreConfig { cusum_h: 4.0, fusion: Fusion::Off, ..Default::default() },
        };
        assert_eq!(off_tuned.name(), "NSigma");
        assert_eq!(NSigmaDetector::fused(5.0, ScoreConfig::default()).name(), "NSigma+CUSUM");
    }
}
