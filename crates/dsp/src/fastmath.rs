//! Polynomial `ln` and `cos` kernels for bulk noise synthesis.
//!
//! The simulator's dominant cost is Box–Muller AWGN: every OFDM snapshot
//! draws one complex normal per subcarrier, each needing one `ln` and one
//! sine/cosine pair.
//! System libm evaluates those one value at a time (~25 ns per normal of
//! pure transcendentals), which bounds the whole press pipeline. The
//! kernels here trade the last ulp of libm accuracy (both stay within
//! ~4 ulp of the correctly-rounded result — orders of magnitude below the
//! simulated noise floor and invisible at the precision any experiment
//! reports) for a formulation built purely from IEEE-exact `f64`
//! arithmetic with branch-free selects, so the Philox noise kernels that
//! apply [`box_muller_pair`] per lane auto-vectorize.
//!
//! Determinism guarantees, verified by tests:
//! * the bulk Philox fills in [`crate::kernels`] produce the same bits as
//!   scalar [`box_muller_pair`] on the same uniforms — the kernel is the
//!   same arithmetic, evaluated lane-parallel;
//! * the SIMD instantiations (dispatched via [`crate::kernels`]) are
//!   semantics-preserving auto-vectorization of the scalar code (no FMA
//!   contraction, no reassociation), so results do not depend on which
//!   path the runtime dispatch picks — simulations reproduce bit-for-bit
//!   across machines.

const TAU: f64 = std::f64::consts::TAU;
const SQRT_2: f64 = std::f64::consts::SQRT_2;
/// Upper 32 bits of ln 2 (Cody–Waite split, exact in `f64`).
const LN_2_HI: f64 = 6.931_471_803_691_238e-1;
/// ln 2 − [`LN_2_HI`].
const LN_2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Natural logarithm of a positive, normal (non-subnormal) `f64`, within
/// ~3 ulp of libm.
///
/// Decomposes `x = m·2^e` with `m ∈ [√2/2, √2)` and evaluates the atanh
/// series `ln m = 2s·(1 + z/3 + z²/5 + …)` with `s = (m−1)/(m+1)`,
/// `z = s²`. The √2 split keeps `ln x` cancellation-free as `x → 1`.
///
/// The caller must ensure `x` is positive and normal (the Box–Muller
/// uniforms are, by construction); other inputs return garbage rather
/// than the IEEE special values libm would produce.
#[inline]
pub fn ln_fast(x: f64) -> f64 {
    let bits = x.to_bits();
    let e_raw = ((bits >> 52) as i32 as f64) - 1023.0;
    let m_raw = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    // branch-free √2 split (compiles to a select; same arithmetic either way)
    let big = m_raw > SQRT_2;
    let m = if big { 0.5 * m_raw } else { m_raw };
    let e = if big { e_raw + 1.0 } else { e_raw };
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    let p = 1.0
        + z * (1.0 / 3.0
            + z * (1.0 / 5.0
                + z * (1.0 / 7.0
                    + z * (1.0 / 9.0
                        + z * (1.0 / 11.0
                            + z * (1.0 / 13.0
                                + z * (1.0 / 15.0 + z * (1.0 / 17.0 + z * (1.0 / 19.0)))))))));
    e * LN_2_HI + (2.0 * s * p + e * LN_2_LO)
}

/// `cos(2π·u)` for `u` in turns, within ~4 ulp of libm on `[0, 1)`.
///
/// Quadrant reduction happens in turn space where it is *exact*:
/// `u = k/4 + r` with `k = round(4u)` and `|r| ≤ 1/8` (both the `k/4`
/// product and the subtraction are exact by Sterbenz), so unlike reducing
/// `2πu` modulo π/2 there is no representation error before the
/// polynomial. Quadrant selection uses only `f64` compares/selects so the
/// batched form vectorizes.
#[inline]
pub fn cos_tau(u: f64) -> f64 {
    sincos_tau(u).0
}

/// `(cos 2πu, sin 2πu)` for `u` in turns from one reduction: the
/// [`cos_tau`] reduction and kernels, with the quadrant selects of each.
/// The cosine is [`cos_tau`] bit for bit; the sine is within ~4 ulp of
/// libm on `[0, 1)` as well.
#[inline(always)]
pub(crate) fn sincos_tau(u: f64) -> (f64, f64) {
    let k = (4.0 * u).round();
    let r = u - 0.25 * k;
    let theta = TAU * r;
    let z = theta * theta;
    // Taylor kernels on |θ| ≤ π/4; truncation < 1 ulp at the interval edge
    let cos_p = 1.0
        + z * (-1.0 / 2.0
            + z * (1.0 / 24.0
                + z * (-1.0 / 720.0
                    + z * (1.0 / 40_320.0
                        + z * (-1.0 / 3_628_800.0
                            + z * (1.0 / 479_001_600.0
                                + z * (-1.0 / 87_178_291_200.0
                                    + z * (1.0 / 20_922_789_888_000.0))))))));
    let sin_p = theta
        * (1.0
            + z * (-1.0 / 6.0
                + z * (1.0 / 120.0
                    + z * (-1.0 / 5_040.0
                        + z * (1.0 / 362_880.0
                            + z * (-1.0 / 39_916_800.0
                                + z * (1.0 / 6_227_020_800.0
                                    + z * (-1.0 / 1_307_674_368_000.0))))))));
    // cos(kπ/2 + θ): k odd → ±sin kernel, (k+1) mod 4 ≥ 2 → negate;
    // sin(kπ/2 + θ): k odd → ±cos kernel, k mod 4 ≥ 2 → negate.
    // Predicates are computed in float space (exact for k ∈ {0…4}) so the
    // vectorizer can turn them into lane masks.
    let half_k = 0.5 * k;
    let odd = half_k - half_k.floor() == 0.5;
    let q_cos = 0.25 * (k + 1.0);
    let neg_cos = q_cos - q_cos.floor() >= 0.5;
    let q_sin = 0.25 * k;
    let neg_sin = q_sin - q_sin.floor() >= 0.5;
    let c = if odd { sin_p } else { cos_p };
    let s = if odd { cos_p } else { sin_p };
    (if neg_cos { -c } else { c }, if neg_sin { -s } else { s })
}

/// One Box–Muller standard normal from a uniform pair:
/// `√(−2 ln u1) · cos(2π u2)`.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_fast(u1)).sqrt() * cos_tau(u2)
}

/// Both Box–Muller standard normals from one uniform pair:
/// `r·(cos 2πu2, sin 2πu2)` with `r = √(−2 ln u1)`, independent of each
/// other. The first is [`box_muller`] bit for bit. The sine is
/// `cos 2π(u2 − ¼)` taken from the same exact turn-space reduction
/// ([`sincos_tau`]), so it costs a few selects, not a second polynomial,
/// and carries no more rounding than the cosine.
#[inline(always)]
pub(crate) fn box_muller_pair(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln_fast(u1)).sqrt();
    let (c, s) = sincos_tau(u2);
    (r * c, r * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ln_matches_libm() {
        let mut rng = StdRng::seed_from_u64(11);
        let check = |x: f64| {
            let rel = (ln_fast(x) - x.ln()).abs() / x.ln().abs().max(f64::MIN_POSITIVE);
            assert!(rel < 1e-15, "ln({x}) rel err {rel}");
        };
        for _ in 0..200_000 {
            check(rng.gen::<f64>().max(f64::MIN_POSITIVE));
            // the cancellation-prone region near 1
            check(1.0 - rng.gen::<f64>() * 1e-6);
            // large and tiny magnitudes beyond the Box–Muller domain
            check(rng.gen::<f64>() * 1e12 + 1.0);
        }
        for edge in [f64::powi(2.0, -53), 0.5, SQRT_2 / 2.0, SQRT_2, 1.0, 2.0] {
            check(edge);
        }
    }

    #[test]
    fn cos_matches_libm() {
        let mut rng = StdRng::seed_from_u64(12);
        let check = |u: f64| {
            let err = (cos_tau(u) - (TAU * u).cos()).abs();
            assert!(err < 1e-15, "cos_tau({u}) abs err {err}");
        };
        for _ in 0..500_000 {
            check(rng.gen());
        }
        for edge in [
            0.0,
            0.125,
            0.25,
            0.375,
            0.5,
            0.625,
            0.75,
            0.875,
            1.0 - 1e-16,
        ] {
            check(edge);
        }
    }

    #[test]
    fn box_muller_pair_is_cosine_and_sine() {
        // u2 on the 2⁻⁵³ grid, as the Philox kernels draw it: the sine
        // arm reduces u2 − ¼ ∈ [−¼, ¾) with the same turn-space kernel
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let mut rng = StdRng::seed_from_u64(13);
        let check = |u1: f64, u2: f64| {
            let (c, s) = box_muller_pair(u1, u2);
            assert_eq!(c.to_bits(), box_muller(u1, u2).to_bits(), "u2 = {u2}");
            let r = (-2.0 * u1.ln()).sqrt();
            let err = (s - r * (TAU * u2).sin()).abs();
            assert!(err <= 2e-15 * r.max(1.0), "sin arm at u2 = {u2}: err {err}");
        };
        for _ in 0..200_000 {
            let u1 = ((rng.gen::<u64>() >> 11) + 1) as f64 * SCALE;
            let u2 = (rng.gen::<u64>() >> 11) as f64 * SCALE;
            check(u1, u2);
        }
        for k in 0..=16u64 {
            let u2 = (k * (1 << 49)).min((1 << 53) - 1) as f64 * SCALE;
            check(0.5, u2);
            check(0.5, u2 + SCALE);
            check(0.5, (u2 - SCALE).max(0.0));
        }
    }
}
