//! DAMP: Discord-Aware Matrix Profile (Lu et al., KDD 2022).
//!
//! Online left-discord discovery: each arriving subsequence is scored by
//! its z-normalized distance to the nearest *preceding* subsequence. Two
//! tricks keep it fast:
//!
//! - **Backward doubling search**: compare against chunks of the past of
//!   size `2^k·m`, nearest first, abandoning as soon as a match below the
//!   best-so-far discord (`bsf`) is found — most subsequences are pruned
//!   after one small chunk.
//! - **Forward pruning**: when a subsequence is processed, mark upcoming
//!   subsequences whose distance to it is below `bsf`; they cannot be
//!   discords and are skipped entirely.

use crate::mass::mass;
use crate::traits::TsadMethod;

/// The DAMP online detector.
#[derive(Debug, Clone)]
pub struct Damp {
    /// Subsequence length `m` (taken from the detected period, clamped).
    pub subseq_cap: usize,
    /// Lookahead span for forward pruning, in subsequence lengths.
    pub lookahead_factor: usize,
}

impl Default for Damp {
    fn default() -> Self {
        Damp { subseq_cap: 256, lookahead_factor: 4 }
    }
}

impl Damp {
    /// Scores the subsequence of `x` *ending* at index `end` (inclusive)
    /// against all earlier subsequences, abandoning once a distance below
    /// `bsf` is found. Returns the (possibly lower-bounded) discord score.
    pub(crate) fn backward_score(x: &[f64], m: usize, end: usize, bsf: f64) -> f64 {
        let start = end + 1 - m;
        let query = &x[start..=end];
        let mut best = f64::INFINITY;
        // chunks of doubling size, closest to the query first; chunk `k`
        // covers [start - 2^(k+1) m, start - 2^k m) extended by m-1 overlap
        let mut hi = start; // exclusive end of the unexplored past region
        let mut chunk = 2 * m;
        while hi > 0 {
            let lo = hi.saturating_sub(chunk);
            // extend by m-1 so windows straddling the boundary are covered
            let seg_end = (hi + m - 1).min(start + m - 1);
            if seg_end > lo + m {
                let dp = mass(query, &x[lo..seg_end]);
                // exclude trivial self-match when the segment touches start
                let valid = dp.len().min(hi - lo);
                for &d in &dp[..valid] {
                    if d < best {
                        best = d;
                    }
                }
                if best < bsf {
                    return best; // pruned: cannot be the new discord
                }
            }
            hi = lo;
            chunk *= 2;
        }
        best
    }
}

impl TsadMethod for Damp {
    fn name(&self) -> String {
        "DAMP".into()
    }

    fn score(&mut self, train: &[f64], test: &[f64], period: usize) -> Vec<f64> {
        let m = period.clamp(8, self.subseq_cap);
        let mut x = train.to_vec();
        x.extend_from_slice(test);
        let offset = train.len();
        let n = x.len();
        let mut scores = vec![0.0; test.len()];
        if n < 2 * m + 2 || offset < m {
            return scores;
        }
        let mut bsf = 0.0f64;
        let mut pruned = vec![false; n];
        let lookahead = (self.lookahead_factor * m).max(m);
        for end in offset.max(2 * m)..n {
            let idx = end - offset;
            if pruned[end] {
                // pruned points inherit a sub-bsf score
                scores[idx] = 0.0;
                continue;
            }
            let d = Self::backward_score(&x, m, end, bsf);
            scores[idx] = d;
            if d > bsf {
                bsf = d;
            }
            // forward pruning: subsequences within the lookahead that are
            // close to this one cannot become discords
            let fstart = end + 1;
            let fend = (end + lookahead + m).min(n);
            if fend > fstart + m {
                let query = &x[end + 1 - m..=end];
                let dp = mass(query, &x[fstart..fend]);
                for (j, &dist) in dp.iter().enumerate() {
                    if dist < bsf {
                        // subsequence starting at fstart+j ends at +m-1
                        let e = fstart + j + m - 1;
                        if e < n {
                            pruned[e] = true;
                        }
                    }
                }
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn stream_with_discord(n: usize, t: usize, at: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<f64> = (0..n)
            .map(|i| {
                (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                    + 0.05 * rng.gen_range(-1.0..1.0)
            })
            .collect();
        for v in x[at..at + t / 2].iter_mut() {
            *v = 2.0; // flat anomaly: unlike anything before
        }
        x
    }

    #[test]
    fn discord_scores_highest() {
        let t = 32;
        let x = stream_with_discord(1200, t, 800, 1);
        let split = 400;
        let mut damp = Damp::default();
        let scores = damp.score(&x[..split], &x[split..], t);
        let peak = tskit::stats::argmax(&scores).unwrap() + split;
        assert!((800..800 + 2 * t).contains(&peak), "anomaly at 800..816, peak at {peak}");
    }

    #[test]
    fn pruning_produces_sparse_high_scores() {
        let t = 24;
        let x = stream_with_discord(1500, t, 1000, 2);
        let mut damp = Damp::default();
        let scores = damp.score(&x[..500], &x[500..], t);
        // most points are pruned/low; only a small fraction carries a high
        // score — that is DAMP's efficiency claim
        let max = scores.iter().cloned().fold(0.0f64, f64::max);
        let high = scores.iter().filter(|&&s| s > 0.5 * max).count();
        assert!(high < scores.len() / 5, "too many high scores: {high}");
    }

    #[test]
    fn clean_periodic_data_scores_low_after_warmup() {
        let t = 16;
        let x: Vec<f64> = (0..800)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut damp = Damp::default();
        let scores = damp.score(&x[..300], &x[300..], t);
        let tail_max = scores[50..].iter().cloned().fold(0.0f64, f64::max);
        assert!(tail_max < 1.0, "pure period should have low discord scores: {tail_max}");
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let mut damp = Damp::default();
        let scores = damp.score(&[1.0, 2.0], &[3.0, 4.0], 10);
        assert_eq!(scores, vec![0.0, 0.0]);
    }
}
