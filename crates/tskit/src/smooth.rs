//! Moving averages and simple linear filters (STL building blocks).

/// Centered moving average of window `w`. Edges use a shrunken symmetric
/// window so the output has the same length as the input.
pub fn centered_moving_average(x: &[f64], w: usize) -> Vec<f64> {
    let n = x.len();
    if n == 0 || w <= 1 {
        return x.to_vec();
    }
    let half = w / 2;
    let mut prefix = vec![0.0; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + x[i];
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(n - 1);
            (prefix[hi + 1] - prefix[lo]) / (hi - lo + 1) as f64
        })
        .collect()
}

/// Exact moving average of odd window `w` over only the valid (fully
/// covered) region, into `out`: `n - w + 1` values (none when `w > n`).
/// `out` is cleared first and only reallocates when it must grow.
pub fn valid_moving_average_into(x: &[f64], w: usize, out: &mut Vec<f64>) {
    out.clear();
    let n = x.len();
    if w == 0 || w > n {
        return;
    }
    out.reserve(n - w + 1);
    let mut sum: f64 = x[..w].iter().sum();
    out.push(sum / w as f64);
    for i in w..n {
        sum += x[i] - x[i - w];
        out.push(sum / w as f64);
    }
}

/// Bilateral filter used by RobustSTL's denoising step: each output point is
/// a weighted average of its neighbours, with weights decaying both in time
/// distance (`sigma_d`) and in value distance (`sigma_i`). Preserves sharp
/// level shifts while removing spiky noise.
pub fn bilateral_filter(x: &[f64], half_window: usize, sigma_d: f64, sigma_i: f64) -> Vec<f64> {
    let n = x.len();
    if n == 0 || half_window == 0 {
        return x.to_vec();
    }
    let inv_2sd2 = 1.0 / (2.0 * sigma_d * sigma_d);
    let inv_2si2 = 1.0 / (2.0 * sigma_i * sigma_i);
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half_window);
            let hi = (i + half_window).min(n - 1);
            let mut num = 0.0;
            let mut den = 0.0;
            for j in lo..=hi {
                let dd = (i as f64 - j as f64).powi(2);
                let di = (x[i] - x[j]).powi(2);
                let w = (-dd * inv_2sd2 - di * inv_2si2).exp();
                num += w * x[j];
                den += w;
            }
            num / den
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_ma_flat_on_constant() {
        let x = vec![2.0; 10];
        for w in [2, 3, 5, 9] {
            let s = centered_moving_average(&x, w);
            assert!(s.iter().all(|&v| (v - 2.0).abs() < 1e-12));
        }
    }

    #[test]
    fn centered_ma_interior_value() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = centered_moving_average(&x, 3);
        assert!((s[2] - 3.0).abs() < 1e-12);
        // edge uses shrunken window: (1+2)/2
        assert!((s[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn valid_ma_length_and_values() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut s = vec![9.0; 7];
        valid_moving_average_into(&x, 3, &mut s);
        assert_eq!(s.len(), 2);
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        valid_moving_average_into(&x, 5, &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn bilateral_preserves_step_removes_noise() {
        // step signal with one spike
        let mut x = vec![0.0; 40];
        for v in x.iter_mut().skip(20) {
            *v = 10.0;
        }
        x[10] = 5.0; // spike
        let f = bilateral_filter(&x, 3, 2.0, 1.0);
        // the step edge stays sharp
        assert!(f[19] < 1.0, "left of step stays low, got {}", f[19]);
        assert!(f[20] > 9.0, "right of step stays high, got {}", f[20]);
        // the spike is pulled down toward its neighbours
        assert!(f[10] < 5.0);
    }
}
