//! Software exponential, modeling the SW26010's two emulation libraries.
//!
//! Sunway lacks a hardware `exp` instruction and emulates it in software
//! using one of two libraries: one IEEE-754 conforming (slow) and one fast
//! but slightly inaccurate (paper §VI-C). The paper uses the fast library for
//! all reported experiments.
//!
//! Both variants here use the classic Cody–Waite argument reduction
//! `x = k·ln2 + r` followed by a polynomial for `e^r` and an integer-domain
//! reconstruction of `2^k`:
//!
//! * [`exp_fast`] — three-term Cody–Waite reduction + degree-13 Taylor
//!   polynomial. Costs exactly [`EXP_FAST_FLOPS`] floating-point operations
//!   (verified by a counted-execution test), matching the ~215 flops that six
//!   per-cell exponentials contribute in the paper's Table I.
//! * [`exp_accurate`] — the same reduction carried in double-double
//!   (compensated) arithmetic with a final error-correction step, standing in
//!   for the IEEE-conforming library. Costs [`EXP_ACCURATE_FLOPS`] flops and
//!   is modeled as slower per call in the machine timing model.
//!
//! All arithmetic is written over the [`Arith`] trait so the identical code
//! path runs on `f64` and on the flop-counting [`crate::counted::Cf64`].

use crate::poly::horner;
use crate::Arith;

/// Which software exponential library a kernel uses (paper §VI-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExpKind {
    /// IEEE-754-conforming emulation: accurate but slow.
    Accurate,
    /// Fast emulation with relaxed accuracy; used in the paper's experiments.
    Fast,
}

impl ExpKind {
    /// Both libraries.
    pub const ALL: [ExpKind; 2] = [ExpKind::Accurate, ExpKind::Fast];

    /// The library's name on the canonical run-config line.
    pub fn name(self) -> &'static str {
        match self {
            ExpKind::Accurate => "accurate",
            ExpKind::Fast => "fast",
        }
    }

    /// Inverse of [`ExpKind::name`].
    pub fn from_name(name: &str) -> Option<ExpKind> {
        ExpKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Flops one call costs under the SW26010 hardware-counter accounting.
    pub const fn flops(self) -> u64 {
        match self {
            ExpKind::Accurate => EXP_ACCURATE_FLOPS,
            ExpKind::Fast => EXP_FAST_FLOPS,
        }
    }

    /// Evaluate `e^x` with this library.
    pub fn eval<T: Arith>(self, x: T) -> T {
        match self {
            ExpKind::Accurate => exp_accurate(x),
            ExpKind::Fast => exp_fast(x),
        }
    }
}

/// log2(e), for computing `k = round(x / ln 2)`.
pub const INV_LN2: f64 = std::f64::consts::LOG2_E;
/// High part of ln 2 (Cody–Waite term 1): the top 24 mantissa bits only, so
/// `k * LN2_HI` is *exact* for every `k` in the exponent range and the
/// reduction loses nothing (bit pattern 0x3fe62e42e0000000).
pub const LN2_HI: f64 = 0.693_147_122_859_954_8;
/// Middle part of ln 2 (Cody–Waite term 2), also truncated for exact
/// products (bit pattern 0x3e6efa39e0000000).
pub const LN2_MID: f64 = 5.769_998_878_690_785e-8;
/// Low part of ln 2 (Cody–Waite term 3): the remaining bits; the three-term
/// sum is within 2.6e-33 of true ln 2.
pub const LN2_LO: f64 = 1.688_525_005_076_197_8e-15;

/// Taylor coefficients 1/k! for e^r, k = 0..=13.
pub const EXP_POLY: [f64; 14] = [
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
];

/// Exact flop count of one [`exp_fast`] call in the non-degenerate range:
/// 1 (k) + 6 (three-term reduction) + 26 (degree-13 Horner) + 1 (2^k scale).
pub const EXP_FAST_FLOPS: u64 = 1 + 6 + 2 * (EXP_POLY.len() as u64 - 1) + 1;

/// Exact flop count of one [`exp_accurate`] call: the fast path plus the
/// compensated (double-double) reduction and final correction (10 extra ops).
pub const EXP_ACCURATE_FLOPS: u64 = EXP_FAST_FLOPS + 10;

/// Above this, `e^x` overflows to +inf in f64.
const OVERFLOW_X: f64 = 709.782712893384;
/// Below this, `e^x` underflows to 0 in f64 (past the subnormal range).
const UNDERFLOW_X: f64 = -745.2;

/// Build `2^k` exactly via exponent-field manipulation (integer domain; free
/// under SW26010 flop accounting). Valid for `k` in the normal range; the
/// callers pre-split extreme `k`.
#[inline]
fn pow2(k: i32) -> f64 {
    debug_assert!(
        (-1022..=1023).contains(&k),
        "pow2 exponent {k} out of range"
    );
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// Shared fast-path evaluation: returns `Some(result)` or `None` when the
/// input needs special handling.
#[inline]
fn exp_special<T: Arith>(x: T) -> Option<T> {
    let v = x.value();
    if v.is_nan() {
        return Some(x);
    }
    if v > OVERFLOW_X {
        return Some(x.with_value(f64::INFINITY));
    }
    if v < UNDERFLOW_X {
        return Some(x.with_value(0.0));
    }
    None
}

/// Fast software exponential (the library used in all of the paper's runs).
///
/// Relative error is bounded by the degree-13 Taylor remainder over
/// `|r| <= ln2/2`, about 1.5e-16 — slightly worse than correctly-rounded but,
/// as the paper notes, "it does not greatly impact this benchmark".
///
/// ```
/// use sw_math::exp_fast;
/// let err = (exp_fast(1.0) - std::f64::consts::E).abs() / std::f64::consts::E;
/// assert!(err < 1e-14);
/// ```
pub fn exp_fast<T: Arith>(x: T) -> T {
    if let Some(s) = exp_special(x) {
        return s;
    }
    // k = round(x / ln2): one multiply; the rounding itself happens in the
    // integer domain and is not counted.
    let kx = x * T::lit(INV_LN2); // 1 flop
    let k = kx.value().round() as i32;
    let kd = T::lit(k as f64);
    // Three-term Cody–Waite reduction: r = x - k*ln2, carried to ~2^-110.
    let r = x - kd * T::lit(LN2_HI); // 2 flops
    let r = r - kd * T::lit(LN2_MID); // 2 flops
    let r = r - kd * T::lit(LN2_LO); // 2 flops
                                     // e^r by degree-13 Horner: 26 flops.
    let p = horner(r, &EXP_POLY);
    // Reconstruct 2^k. For k below the normal exponent range (deeply negative
    // x) scale twice; that branch costs one extra multiply but only fires for
    // results below ~1e-308, outside the accounted range.
    scale_by_pow2(p, k)
}

/// Multiply `p` by `2^k`, splitting the scale when `k` leaves the normal
/// exponent range. Costs 1 flop on the fast path.
#[inline]
fn scale_by_pow2<T: Arith>(p: T, k: i32) -> T {
    if (-1021..=1022).contains(&k) {
        p * T::lit(pow2(k)) // 1 flop
    } else if k > 1022 {
        p * T::lit(pow2(1022)) * T::lit(pow2(k - 1022))
    } else {
        // Underflow side: go through 2^-1000 twice to reach subnormals
        // gracefully.
        let k2 = (k + 1000).max(-1022);
        p * T::lit(pow2(-1000)) * T::lit(pow2(k2))
    }
}

/// IEEE-style accurate software exponential (the "slow" Sunway library).
///
/// Same reduction as [`exp_fast`] but the polynomial result is combined with
/// the residual reduction error by a compensated correction step, emulating
/// the double-double tail arithmetic an IEEE-conforming implementation pays
/// for. The extra work is what makes the library slow on the real machine.
pub fn exp_accurate<T: Arith>(x: T) -> T {
    if let Some(s) = exp_special(x) {
        return s;
    }
    let kx = x * T::lit(INV_LN2); // 1
    let k = kx.value().round() as i32;
    let kd = T::lit(k as f64);
    // Compensated reduction: track the rounding error of each subtraction.
    let t1 = kd * T::lit(LN2_HI); // 1
    let r_hi = x - t1; // 1
                       // err = (x - r_hi) - t1 recovers what the subtraction dropped.
    let err = x - r_hi - t1; // 2
    let t2 = kd * T::lit(LN2_MID); // 1
    let r = r_hi - t2; // 1
    let err = err + (r_hi - r - t2); // 3
    let t3 = kd * T::lit(LN2_LO); // 1
    let r_final = r - t3; // 1
    let err = err + (r - r_final - t3); // 3
    let p = horner(r_final, &EXP_POLY); // 26
                                        // First-order correction: e^(r+err) ~= e^r * (1 + err) ~= p + p*err.
    let p = p + p * err; // 2
    scale_by_pow2(p, k) // 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{flops_counted, Cf64};

    fn rel_err(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            ((a - b) / b).abs()
        }
    }

    #[test]
    fn fast_matches_std_exp() {
        let mut x = -40.0;
        while x <= 40.0 {
            let got = exp_fast(x);
            let want = x.exp();
            assert!(
                rel_err(got, want) < 1e-14,
                "exp_fast({x}) = {got}, std = {want}"
            );
            x += 0.0137;
        }
    }

    #[test]
    fn accurate_matches_std_exp_tighter() {
        let mut x = -40.0;
        while x <= 40.0 {
            let got = exp_accurate(x);
            let want = x.exp();
            // Horner accumulation leaves a few ulps; the accurate library is
            // a model of "tighter than fast", not a correctly-rounded libm.
            assert!(
                rel_err(got, want) < 2.5e-15,
                "exp_accurate({x}) = {got}, std = {want}"
            );
            x += 0.0173;
        }
    }

    #[test]
    fn special_cases() {
        assert_eq!(exp_fast(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_fast(f64::INFINITY), f64::INFINITY);
        assert!(exp_fast(f64::NAN).is_nan());
        assert_eq!(exp_fast(0.0), 1.0);
        assert_eq!(exp_accurate(0.0), 1.0);
        assert_eq!(exp_fast(800.0), f64::INFINITY);
        assert_eq!(exp_fast(-800.0), 0.0);
    }

    #[test]
    fn deep_underflow_is_graceful() {
        // Results in the subnormal range should be tiny but not garbage.
        let v = exp_fast(-710.0);
        assert!(v > 0.0 && v < 1e-300);
        let v = exp_accurate(-741.0);
        assert!((0.0..1e-300).contains(&v));
    }

    #[test]
    fn fast_flop_constant_matches_counted_execution() {
        for &x in &[-30.0, -1.5, -0.1, 0.3, 2.0, 25.0] {
            let (_, n) = flops_counted(|| exp_fast(Cf64::new(x)));
            assert_eq!(n, EXP_FAST_FLOPS, "x = {x}");
        }
    }

    #[test]
    fn accurate_flop_constant_matches_counted_execution() {
        for &x in &[-30.0, -1.5, -0.1, 0.3, 2.0, 25.0] {
            let (_, n) = flops_counted(|| exp_accurate(Cf64::new(x)));
            assert_eq!(n, EXP_ACCURATE_FLOPS, "x = {x}");
        }
    }

    #[test]
    fn counted_and_plain_agree_bitwise() {
        for &x in &[-12.75, -0.001, 0.5, 7.25] {
            assert_eq!(
                exp_fast(x).to_bits(),
                exp_fast(Cf64::new(x)).get().to_bits()
            );
            assert_eq!(
                exp_accurate(x).to_bits(),
                exp_accurate(Cf64::new(x)).get().to_bits()
            );
        }
    }

    #[test]
    fn expkind_names_round_trip() {
        for k in ExpKind::ALL {
            assert_eq!(ExpKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ExpKind::from_name("Fast"), None);
    }

    #[test]
    fn expkind_dispatch() {
        assert_eq!(ExpKind::Fast.eval(1.0), exp_fast(1.0));
        assert_eq!(ExpKind::Accurate.eval(1.0), exp_accurate(1.0));
        assert_eq!(ExpKind::Fast.flops(), EXP_FAST_FLOPS);
        assert_eq!(ExpKind::Accurate.flops(), EXP_ACCURATE_FLOPS);
    }
}
