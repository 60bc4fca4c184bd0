//! Floating-point scalar abstraction.
//!
//! Every kernel in the workspace is generic over [`Scalar`] so that the
//! reproduction can run in single precision (what the paper uses on the GPU)
//! or double precision (useful for validating numerical identities in tests
//! and for the `ablation_precision` experiment).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point scalar type usable by all dense and sparse kernels.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Send
    + Sync
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this precision.
    const EPSILON: Self;
    /// Largest finite value.
    const MAX: Self;
    /// Positive infinity.
    const INFINITY: Self;

    /// Convert from `f64`, rounding as needed.
    fn from_f64(v: f64) -> Self;
    /// Convert from `usize` (used for cluster cardinalities).
    fn from_usize(v: usize) -> Self;
    /// Convert to `f64` for reporting and cost accounting.
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b`, rounded once.
    ///
    /// Unless the calling function is compiled with the `fma` target
    /// feature, this lowers to a libm `fma` *call* per element, which also
    /// blocks vectorisation; hot kernels therefore dispatch to an
    /// FMA-enabled copy at run time (see `microkernel.rs` in this crate).
    /// IEEE-754 fusedMultiplyAdd is single-rounded, so the hardware
    /// instruction and the software routine return identical bits.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Real power.
    fn powf(self, n: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Hyperbolic tangent (used by the sigmoid kernel).
    fn tanh(self) -> Self;
    /// `true` when the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;
    /// IEEE maximum of two values (NaN-propagating like `f64::max` is fine here).
    fn max_val(self, other: Self) -> Self;
    /// IEEE minimum of two values.
    fn min_val(self, other: Self) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const MAX: Self = <$t>::MAX;
            const INFINITY: Self = <$t>::INFINITY;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn from_usize(v: usize) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn powf(self, n: Self) -> Self {
                <$t>::powf(self, n)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                <$t>::tanh(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn max_val(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min_val(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
        }
    };
}

impl_scalar!(f32);
impl_scalar!(f64);

/// Approximate equality with a combined absolute/relative tolerance.
///
/// Two values compare equal when `|a - b| <= atol + rtol * max(|a|, |b|)`.
pub fn approx_eq<T: Scalar>(a: T, b: T, rtol: f64, atol: f64) -> bool {
    let a = a.to_f64();
    let b = b.to_f64();
    if a == b {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_f32() {
        assert_eq!(<f32 as Scalar>::ZERO, 0.0f32);
        assert_eq!(<f32 as Scalar>::ONE, 1.0f32);
        const { assert!(<f32 as Scalar>::EPSILON > 0.0) }
    }

    #[test]
    fn constants_f64() {
        assert_eq!(<f64 as Scalar>::ZERO, 0.0f64);
        assert_eq!(<f64 as Scalar>::ONE, 1.0f64);
    }

    #[test]
    fn conversions_round_trip() {
        let x = 3.25f64;
        assert_eq!(<f64 as Scalar>::from_f64(x).to_f64(), 3.25);
        assert_eq!(<f32 as Scalar>::from_f64(x).to_f64(), 3.25);
        assert_eq!(<f64 as Scalar>::from_usize(7), 7.0);
    }

    #[test]
    fn mul_add_matches_manual() {
        let a = 2.0f64;
        assert_eq!(a.mul_add(3.0, 4.0), 10.0);
        let b = 2.0f32;
        assert_eq!(Scalar::mul_add(b, 3.0, 4.0), 10.0);
    }

    #[test]
    fn math_functions() {
        assert!((Scalar::exp(1.0f64) - std::f64::consts::E).abs() < 1e-12);
        assert_eq!(Scalar::powi(2.0f64, 3), 8.0);
        assert_eq!(Scalar::sqrt(9.0f32), 3.0);
        assert_eq!(Scalar::abs(-4.0f64), 4.0);
        assert!(Scalar::tanh(0.0f64).abs() < 1e-15);
    }

    #[test]
    fn min_max() {
        assert_eq!(Scalar::max_val(1.0f64, 2.0), 2.0);
        assert_eq!(Scalar::min_val(1.0f32, 2.0), 1.0);
    }

    #[test]
    fn approx_eq_behaviour() {
        assert!(approx_eq(1.0f64, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(1.0f64, 1.1, 1e-9, 1e-9));
        assert!(approx_eq(0.0f64, 1e-12, 0.0, 1e-9));
        assert!(!approx_eq(f64::NAN, 1.0, 1e-9, 1e-9));
        assert!(approx_eq(5.0f32, 5.0f32, 0.0, 0.0));
    }

    #[test]
    fn is_finite_checks() {
        assert!(Scalar::is_finite(1.0f64));
        assert!(!Scalar::is_finite(f64::NAN));
        assert!(!Scalar::is_finite(f32::INFINITY));
    }
}
