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

/// Trailing (causal) moving average of window `w`; the first points average
/// over the available prefix.
pub fn trailing_moving_average(x: &[f64], w: usize) -> Vec<f64> {
    let n = x.len();
    if n == 0 || w <= 1 {
        return x.to_vec();
    }
    let mut out = Vec::with_capacity(n);
    let mut sum = 0.0;
    for i in 0..n {
        sum += x[i];
        if i >= w {
            sum -= x[i - w];
        }
        let cnt = (i + 1).min(w);
        out.push(sum / cnt as f64);
    }
    out
}

/// Classic STL low-pass filter: moving average of length `t`, twice, then a
/// moving average of length 3 (Cleveland et al. 1990, step 3 of the inner
/// loop). Output has the same length as the input (shrunken edge windows).
pub fn stl_lowpass(x: &[f64], t: usize) -> Vec<f64> {
    let a = centered_moving_average(x, t);
    let b = centered_moving_average(&a, t);
    centered_moving_average(&b, 3)
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

/// Hanning-window weighted smoother of odd length `w` (used by some online
/// STL variants for light trend smoothing).
pub fn hanning_smooth(x: &[f64], w: usize) -> Vec<f64> {
    let n = x.len();
    if n == 0 || w <= 2 {
        return x.to_vec();
    }
    let weights: Vec<f64> = (0..w)
        .map(|i| 0.5 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / (w - 1) as f64).cos())
        .collect();
    let wsum: f64 = weights.iter().sum();
    let half = w / 2;
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            let mut norm = 0.0;
            for (k, &wt) in weights.iter().enumerate() {
                let j = i as isize + k as isize - half as isize;
                if j >= 0 && (j as usize) < n {
                    acc += wt * x[j as usize];
                    norm += wt;
                }
            }
            if norm > 0.0 {
                acc / norm
            } else {
                acc / wsum
            }
        })
        .collect()
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
    fn trailing_ma_is_causal() {
        let x = [0.0, 0.0, 3.0, 0.0];
        let s = trailing_moving_average(&x, 3);
        assert!((s[0] - 0.0).abs() < 1e-12);
        assert!((s[1] - 0.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
        assert!((s[3] - 1.0).abs() < 1e-12);
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
    fn lowpass_removes_seasonal_mean() {
        // A pure sinusoid with period t should be flattened near zero.
        let t = 12;
        let x: Vec<f64> = (0..120)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let lp = stl_lowpass(&x, t);
        let interior = &lp[2 * t..lp.len() - 2 * t];
        assert!(
            interior.iter().all(|v| v.abs() < 0.05),
            "max {:?}",
            interior.iter().fold(0.0f64, |a, &b| a.max(b.abs()))
        );
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

    #[test]
    fn hanning_smooth_reduces_variance() {
        let x: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let s = hanning_smooth(&x, 7);
        let var_before = crate::stats::variance(&x);
        let var_after = crate::stats::variance(&s);
        assert!(var_after < 0.2 * var_before);
    }
}
