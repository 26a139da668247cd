//! The common TSAD interface used by the Table 3/4 harnesses.

/// A univariate anomaly detector evaluated in the TSB-UAD protocol:
/// it may consume a training prefix, then produces one score per test
/// point (higher = more anomalous).
pub trait TsadMethod {
    /// Method name as printed in the result tables.
    fn name(&self) -> String;

    /// Scores every point of `test`. `train` precedes `test` in time;
    /// `period` is the detected season length (subsequence length for
    /// matrix-profile methods).
    fn score(&mut self, train: &[f64], test: &[f64], period: usize) -> Vec<f64>;
}
