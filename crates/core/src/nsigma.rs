//! Streaming NSigma anomaly scoring (paper Algorithm 6).
//!
//! Maintains running `count / sum / sum-of-squares` and scores each value by
//! its absolute z-score against the statistics of all *previous* values.
//! Used (a) standalone as the paper's surprisingly strong TSAD baseline,
//! (b) on decomposed residuals as the STD→TSAD adapter (§4), and (c) as the
//! trigger for OneShotSTL's seasonality-shift search (§3.4).

/// Streaming NSigma detector. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct NSigma {
    /// Threshold `n`: values scoring above it are flagged (paper default 5).
    pub n: f64,
    count: u64,
    sum: f64,
    sum_sq: f64,
}

/// One scoring step's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NSigmaVerdict {
    /// `|x − mean| / std` against the history (0 while history is empty or
    /// the running std is ~0 and the value matches the mean).
    pub score: f64,
    /// `score > n`.
    pub is_anomaly: bool,
}

impl NSigma {
    /// Creates a detector with threshold `n` (paper default: 5).
    pub fn new(n: f64) -> Self {
        NSigma { n, count: 0, sum: 0.0, sum_sq: 0.0 }
    }

    /// Number of values absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean of the absorbed values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Running population standard deviation of the absorbed values.
    pub fn std(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean).max(0.0).sqrt()
    }

    /// Signed standardized deviation `(x − mean) / std` against the
    /// history (0 while the history is empty; `±sqrt(f64::MAX)` for a
    /// deviating value over a zero-variance history). The CUSUM layer
    /// ([`crate::score`]) accumulates this signed form; [`Self::score_only`]
    /// is exactly its absolute value (bit-identical: an IEEE quotient's
    /// magnitude does not depend on the operands' signs).
    pub fn zscore(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let std = self.std();
        let dev = x - self.mean();
        if std > 1e-12 {
            dev / std
        } else if dev.abs() > 1e-12 {
            // zero-variance history and a deviating value: infinitely
            // surprising; report a large finite score
            f64::MAX.sqrt().copysign(dev)
        } else {
            0.0
        }
    }

    /// Scores `x` against the history *without* absorbing it.
    pub fn score_only(&self, x: f64) -> NSigmaVerdict {
        let score = self.zscore(x).abs();
        NSigmaVerdict { score, is_anomaly: score > self.n }
    }

    /// Absorbs `x` into the running statistics. A value that would
    /// overflow the running sums is skipped: a non-finite sum leaves σ
    /// infinite or NaN, so the detector could never alarm again (and a
    /// snapshot of that state is refused on restore).
    pub fn absorb(&mut self, x: f64) {
        let (sum, sum_sq) = (self.sum + x, self.sum_sq + x * x);
        if sum.is_finite() && sum_sq.is_finite() {
            self.count += 1;
            self.sum = sum;
            self.sum_sq = sum_sq;
        }
    }

    /// Algorithm 6: score first, then absorb.
    pub fn update(&mut self, x: f64) -> NSigmaVerdict {
        let v = self.score_only(x);
        self.absorb(x);
        v
    }

    /// Seeds the statistics from a batch (used after initialization so the
    /// online phase starts with calibrated statistics).
    pub fn seed(&mut self, xs: &[f64]) {
        for &x in xs {
            self.absorb(x);
        }
    }

    /// Extracts a plain-data snapshot for serialization (see
    /// `fleet::codec`).
    pub fn to_state(&self) -> NSigmaState {
        NSigmaState { n: self.n, count: self.count, sum: self.sum, sum_sq: self.sum_sq }
    }

    /// Rebuilds a detector from [`NSigma::to_state`] output; the running
    /// statistics are restored bit-identically.
    pub fn from_state(state: NSigmaState) -> Self {
        NSigma { n: state.n, count: state.count, sum: state.sum, sum_sq: state.sum_sq }
    }
}

/// Plain-data snapshot of an [`NSigma`] detector.
#[derive(Debug, Clone, PartialEq)]
pub struct NSigmaState {
    /// Threshold `n`.
    pub n: f64,
    /// Number of absorbed values.
    pub count: u64,
    /// Running sum.
    pub sum: f64,
    /// Running sum of squares.
    pub sum_sq: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_point_is_never_anomalous() {
        let mut d = NSigma::new(3.0);
        let v = d.update(1000.0);
        assert_eq!(v.score, 0.0);
        assert!(!v.is_anomaly);
    }

    #[test]
    fn flags_large_deviation() {
        let mut d = NSigma::new(3.0);
        for i in 0..100 {
            d.absorb((i % 5) as f64 * 0.1);
        }
        let v = d.update(50.0);
        assert!(v.is_anomaly, "score {}", v.score);
        assert!(v.score > 100.0);
        // normal value afterwards is not flagged
        let v2 = d.update(0.2);
        assert!(!v2.is_anomaly);
    }

    #[test]
    fn running_stats_match_batch() {
        let xs = [1.0, 2.0, -3.0, 0.5, 4.0, 4.0];
        let mut d = NSigma::new(5.0);
        d.seed(&xs);
        assert!((d.mean() - tskit::stats::mean(&xs)).abs() < 1e-12);
        assert!((d.std() - tskit::stats::std_dev(&xs)).abs() < 1e-12);
        assert_eq!(d.count(), 6);
    }

    #[test]
    fn zero_variance_history() {
        let mut d = NSigma::new(5.0);
        d.seed(&[2.0, 2.0, 2.0]);
        let same = d.score_only(2.0);
        assert_eq!(same.score, 0.0);
        let diff = d.score_only(2.5);
        assert!(diff.is_anomaly);
        assert!(diff.score.is_finite());
    }

    #[test]
    fn overflowing_values_are_not_absorbed() {
        let mut d = NSigma::new(3.0);
        d.seed(&[0.0, 0.1, -0.1]);
        let before = d.to_state();
        for x in [1e160, -1e300, f64::MAX, f64::INFINITY, f64::NAN] {
            d.absorb(x);
        }
        assert_eq!(d.to_state(), before);
        assert!(d.update(1.0).is_anomaly, "the detector can still alarm");
    }

    #[test]
    fn score_then_absorb_ordering() {
        // Algorithm 6 scores against *previous* stats: a repeated outlier is
        // fully surprising the first time, less the second.
        let mut d = NSigma::new(3.0);
        d.seed(&[0.0, 0.1, -0.1, 0.05, -0.05]);
        let first = d.update(10.0);
        let second = d.update(10.0);
        assert!(first.score > second.score);
    }
}
