//! Percentiles and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by nearest rank: the
/// smallest sample with at least `q·n` samples at or below it. Sorts in
/// place; `NaN` for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Samples strictly above the `q`-quantile's rank — the samples a
/// percentile rests on. The benchmark reports a percentile only when this
/// is at least 10.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Median (of a copy).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    percentile(&mut v, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One metric of the result line.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The last line of standard output:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Display prints the shortest string that reads back bit-exactly
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
        assert!(percentile(&mut [], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.99), 1);
        // the batch floor of the closed loops is the smallest count that
        // supports a p99
        let floor = (1..).find(|&n| beyond(n, 0.99) >= 10);
        assert_eq!(floor, Some(crate::inproc::MIN_BATCHES));
        assert_eq!((1..).find(|&n| beyond(n, 0.9) >= 10), Some(100));
        // the rank used by `percentile` leaves exactly `beyond` samples above
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&mut v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p).count(), beyond(1000, 0.99));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let m = [
            Metric { name: "a_ms", value: 1.234_567_890_123, unit: "ms" },
            Metric { name: "b", value: 3.0, unit: "count" },
        ];
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.234567890123, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \
             \"count\"}}}"
        );
    }
}
