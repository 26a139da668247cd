//! Iterative radix-2 FFT and FFT-based sliding dot products.
//!
//! The matrix-profile anomaly detectors (MASS / STOMP / DAMP) need the
//! sliding dot product between a query and every window of a series. The
//! FFT turns that from `O(n·m)` into `O(n log n)`. No external FFT crate is
//! used; this is a self-contained substrate module.

/// Complex number with `f64` parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs `re + im·i`.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Complex multiplication.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Complex) -> Complex {
        Complex::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

/// Next power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    let mut p = 1;
    while p < n {
        p <<= 1;
    }
    p
}

/// In-place iterative radix-2 FFT. `inverse = true` computes the unscaled
/// inverse transform (divide by `len` afterwards; [`ifft`] does this).
///
/// # Panics
/// Panics if `buf.len()` is not a power of two.
pub fn fft_in_place(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }
    // bit-reversal permutation
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2].mul(w);
                buf[i + k] = u + v;
                buf[i + k + len / 2] = u - v;
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal zero-padded to the next power of two of
/// `min_len.max(x.len())`.
pub fn rfft(x: &[f64], min_len: usize) -> Vec<Complex> {
    let n = next_pow2(min_len.max(x.len()));
    let mut buf = vec![Complex::default(); n];
    for (b, &v) in buf.iter_mut().zip(x) {
        b.re = v;
    }
    fft_in_place(&mut buf, false);
    buf
}

/// Inverse FFT with 1/n scaling; returns the real parts.
pub fn ifft(mut buf: Vec<Complex>) -> Vec<f64> {
    let n = buf.len();
    fft_in_place(&mut buf, true);
    buf.into_iter().map(|c| c.re / n as f64).collect()
}

/// Sliding dot products of `query` against every length-`m` window of
/// `series`, where `m = query.len()`:
/// `out[i] = Σ_j query[j] · series[i + j]` for `i in 0..=n-m`.
///
/// Uses the FFT (reversed-query convolution trick from MASS). Returns an
/// empty vector if the query is longer than the series or empty.
pub fn sliding_dot_product(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    let n = series.len();
    if m == 0 || m > n {
        return Vec::new();
    }
    // Convolve series with the reversed query: pick out lags m-1 .. n-1.
    let size = next_pow2(n + m);
    let mut qa = vec![Complex::default(); size];
    for (i, &q) in query.iter().enumerate() {
        qa[m - 1 - i].re = q; // reversed
    }
    let mut sa = vec![Complex::default(); size];
    for (i, &s) in series.iter().enumerate() {
        sa[i].re = s;
    }
    fft_in_place(&mut qa, false);
    fft_in_place(&mut sa, false);
    for (a, b) in qa.iter_mut().zip(&sa) {
        *a = a.mul(*b);
    }
    let conv = ifft(qa);
    (0..=n - m).map(|i| conv[i + m - 1]).collect()
}

/// Direct `O(n·m)` sliding dot product — reference implementation used in
/// tests and for very short inputs where FFT overhead dominates.
pub fn sliding_dot_product_naive(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    let n = series.len();
    if m == 0 || m > n {
        return Vec::new();
    }
    (0..=n - m).map(|i| query.iter().zip(&series[i..i + m]).map(|(a, b)| a * b).sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn fft_roundtrip() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin() + 0.3 * (i as f64)).collect();
        let spec = rfft(&x, 64);
        let back = ifft(spec);
        for i in 0..64 {
            assert!((back[i] - x[i]).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::default(); 8];
        buf[0].re = 1.0;
        fft_in_place(&mut buf, false);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<f64> = (0..32).map(|i| ((i * i) % 7) as f64 - 3.0).collect();
        let spec = rfft(&x, 32);
        let t_energy: f64 = x.iter().map(|v| v * v).sum();
        let f_energy: f64 =
            spec.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / spec.len() as f64;
        assert!((t_energy - f_energy).abs() < 1e-8);
    }

    #[test]
    fn sliding_dot_product_matches_naive() {
        let series: Vec<f64> = (0..97).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let query: Vec<f64> = (0..13).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let fast = sliding_dot_product(&query, &series);
        let slow = sliding_dot_product_naive(&query, &series);
        assert_eq!(fast.len(), slow.len());
        for i in 0..fast.len() {
            assert!((fast[i] - slow[i]).abs() < 1e-8, "i={i}: {} vs {}", fast[i], slow[i]);
        }
    }

    #[test]
    fn sliding_dot_product_degenerate_inputs() {
        assert!(sliding_dot_product(&[], &[1.0]).is_empty());
        assert!(sliding_dot_product(&[1.0, 2.0], &[1.0]).is_empty());
        let one = sliding_dot_product(&[2.0], &[1.0, 3.0]);
        assert_eq!(one.len(), 2);
        assert!((one[0] - 2.0).abs() < 1e-12);
        assert!((one[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut buf = vec![Complex::default(); 6];
        fft_in_place(&mut buf, false);
    }
}
