//! The two-lane `f64` value type of the IRLS step kernel
//! ([`crate::online_doolittle`], [`crate::system`]).
//!
//! The kernel steps two independent systems at once, one per lane, and is
//! written once over [`F64x2`]. Every operation is one IEEE-754 operation
//! per lane: no fused multiply-add, no reassociation, no approximate
//! reciprocal. So each lane of a two-lane step is bit-identical to a
//! scalar step run in the same operation order, NaN and signed zeros
//! included. A caller with one system copies it into both lanes and
//! discards lane 1.
//!
//! [`Native`] is the type the kernel runs on: on `x86_64` it wraps an
//! SSE2 `__m128d` (SSE2 is part of the `x86_64` baseline, so there is no
//! build flag and no runtime detection), elsewhere the portable
//! `[f64; 2]` type. On `x86_64` the portable type is compiled for the
//! tests only, which run it through the same kernel.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// Two `f64` lanes with lane-wise IEEE arithmetic.
pub(crate) trait F64x2:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Lane 0 is `lane0`, lane 1 is `lane1`.
    fn new(lane0: f64, lane1: f64) -> Self;

    /// Both lanes `v`.
    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self::new(v, v)
    }

    /// The lanes, lane 0 first.
    fn lanes(self) -> [f64; 2];
}

/// The lane type the kernel runs on.
#[cfg(target_arch = "x86_64")]
pub(crate) type Native = Sse2;
/// The lane type the kernel runs on.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) type Native = Portable;

/// Two lanes in one SSE2 register; each op is one packed instruction.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Sse2(std::arch::x86_64::__m128d);

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{F64x2, Sse2};
    use std::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    // SAFETY (every `unsafe` block in this module): each block calls one
    // SSE2 intrinsic on register operands — no pointer, no memory access.
    // The intrinsics are `unsafe` only because they require the `sse2`
    // target feature, which every `x86_64` target enables: it is part of
    // the architecture's baseline, and this module compiles for `x86_64`
    // only.

    impl F64x2 for Sse2 {
        #[inline(always)]
        fn new(lane0: f64, lane1: f64) -> Self {
            // SAFETY: see the module comment (`_mm_set_pd` takes the high
            // lane first)
            Sse2(unsafe { _mm_set_pd(lane1, lane0) })
        }

        #[inline(always)]
        fn lanes(self) -> [f64; 2] {
            // SAFETY: see the module comment
            unsafe { [_mm_cvtsd_f64(self.0), _mm_cvtsd_f64(_mm_unpackhi_pd(self.0, self.0))] }
        }
    }

    macro_rules! binary_op {
        ($tr:ident, $f:ident, $intr:ident) => {
            impl $tr for Sse2 {
                type Output = Sse2;
                #[inline(always)]
                fn $f(self, rhs: Sse2) -> Sse2 {
                    // SAFETY: see the module comment
                    Sse2(unsafe { $intr(self.0, rhs.0) })
                }
            }
        };
    }
    binary_op!(Add, add, _mm_add_pd);
    binary_op!(Sub, sub, _mm_sub_pd);
    binary_op!(Mul, mul, _mm_mul_pd);
    binary_op!(Div, div, _mm_div_pd);

    impl Neg for Sse2 {
        type Output = Sse2;
        /// Flips the sign bit of each lane, as scalar `-x` does (NaN
        /// included).
        #[inline(always)]
        fn neg(self) -> Sse2 {
            // SAFETY: see the module comment
            Sse2(unsafe { _mm_xor_pd(self.0, _mm_set1_pd(-0.0)) })
        }
    }
}

/// Two lanes as a plain array; each op is one scalar op per lane.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[derive(Clone, Copy)]
pub(crate) struct Portable([f64; 2]);

#[cfg(any(test, not(target_arch = "x86_64")))]
mod portable {
    use super::{F64x2, Portable};
    use std::ops::{Add, Div, Mul, Neg, Sub};

    impl F64x2 for Portable {
        #[inline(always)]
        fn new(lane0: f64, lane1: f64) -> Self {
            Portable([lane0, lane1])
        }

        #[inline(always)]
        fn lanes(self) -> [f64; 2] {
            self.0
        }
    }

    macro_rules! binary_op {
        ($tr:ident, $f:ident, $op:tt) => {
            impl $tr for Portable {
                type Output = Portable;
                #[inline(always)]
                fn $f(self, rhs: Portable) -> Portable {
                    let ([a0, a1], [b0, b1]) = (self.0, rhs.0);
                    Portable([a0 $op b0, a1 $op b1])
                }
            }
        };
    }
    binary_op!(Add, add, +);
    binary_op!(Sub, sub, -);
    binary_op!(Mul, mul, *);
    binary_op!(Div, div, /);

    impl Neg for Portable {
        type Output = Portable;
        #[inline(always)]
        fn neg(self) -> Portable {
            Portable(self.0.map(|v| -v))
        }
    }
}
