//! Phase arithmetic: wrapping, unwrapping, unit conversions.
//!
//! WiForce ultimately measures *phase jumps* — the differential phase between
//! consecutive phase-groups (paper Eq. 4–5). Accumulating those jumps into a
//! continuous phase-vs-force trajectory requires consistent wrapping and
//! unwrapping, collected here.

use crate::PI;
use crate::TAU;

/// Wraps an angle into `(-π, π]`.
///
/// Bit-identical to `(θ + π).rem_euclid(2π) − π` (with `+π` at the
/// boundary), without the `fmod` when `x = θ + π` lies in `(−2π, 4π)`:
/// there the remainder is `x` itself, `x − 2π` (exact by Sterbenz's
/// lemma, since `2π ≤ x < 4π`), or, for negative `x`, `rem_euclid`'s own
/// `x + 2π`. NaN, infinities and larger angles take the exact path.
#[inline]
pub fn wrap_to_pi(theta: f64) -> f64 {
    let x = theta + PI;
    let mut t = if (0.0..TAU).contains(&x) {
        x
    } else if (TAU..2.0 * TAU).contains(&x) {
        x - TAU
    } else if x < 0.0 && x > -TAU {
        x + TAU
    } else {
        x.rem_euclid(TAU)
    };
    if t == 0.0 {
        t = TAU; // map the boundary so the result is exactly +π, not -π
    }
    t - PI
}

/// Wraps an angle into `[0, 2π)`.
#[inline]
pub fn wrap_to_tau(theta: f64) -> f64 {
    theta.rem_euclid(TAU)
}

/// Degrees → radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * PI / 180.0
}

/// Radians → degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / PI
}

/// Unwraps a phase sequence in place: removes jumps larger than π by adding
/// multiples of 2π, producing a continuous trajectory (NumPy `unwrap`
/// semantics).
pub fn unwrap_inplace(phases: &mut [f64]) {
    let mut offset = 0.0;
    let mut prev_raw = match phases.first() {
        Some(&p) => p,
        None => return,
    };
    for p in phases.iter_mut().skip(1) {
        let raw = *p;
        let mut d = raw - prev_raw;
        if d > PI {
            offset -= TAU * ((d + PI) / TAU).floor();
            d = wrap_to_pi(d);
        } else if d < -PI {
            offset += TAU * ((-d + PI) / TAU).floor();
            d = wrap_to_pi(d);
        }
        let _ = d;
        prev_raw = raw;
        *p = raw + offset;
    }
}

/// Returns an unwrapped copy of `phases`.
pub fn unwrap(phases: &[f64]) -> Vec<f64> {
    let mut v = phases.to_vec();
    unwrap_inplace(&mut v);
    v
}

/// Shortest signed angular difference `a - b`, wrapped into `(-π, π]`.
#[inline]
pub fn angle_diff(a: f64, b: f64) -> f64 {
    wrap_to_pi(a - b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_to_pi_range() {
        for k in -20..=20 {
            let t = k as f64 * 0.7;
            let w = wrap_to_pi(t);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12, "{t} -> {w}");
            // same point on the circle
            assert!(((t - w) / TAU).round() * TAU - (t - w) < 1e-9);
        }
    }

    #[test]
    fn wrap_boundary_positive_pi() {
        assert!((wrap_to_pi(PI) - PI).abs() < 1e-12);
        assert!((wrap_to_pi(-PI) - PI).abs() < 1e-12);
        assert!((wrap_to_pi(3.0 * PI) - PI).abs() < 1e-9);
    }

    /// The `rem_euclid` definition `wrap_to_pi` must reproduce bit for bit.
    fn wrap_reference(theta: f64) -> f64 {
        let mut t = (theta + PI).rem_euclid(TAU);
        if t == 0.0 {
            t = TAU;
        }
        t - PI
    }

    fn assert_wrap_matches(theta: f64) {
        let (got, want) = (wrap_to_pi(theta), wrap_reference(theta));
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "θ = {theta:e} ({:#x}): {got:e} vs reference {want:e}",
            theta.to_bits()
        );
    }

    #[test]
    fn wrap_matches_rem_euclid_reference_bitwise() {
        let specials = [
            0.0,
            -0.0,
            PI,
            -PI,
            3.0 * PI,
            -3.0 * PI,
            TAU,
            -TAU,
            2.0 * TAU,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        for &s in &specials {
            // each special value and its neighbours one ulp either side
            for theta in [
                s,
                f64::from_bits(s.to_bits().wrapping_add(1)),
                f64::from_bits(s.to_bits().wrapping_sub(1)),
            ] {
                assert_wrap_matches(theta);
            }
        }
        // the branch edges of the fast path, x = θ + π at −2π, 0, 2π, 4π
        for edge in [-TAU, 0.0, TAU, 2.0 * TAU] {
            let theta0 = edge - PI;
            let mut up = theta0;
            let mut down = theta0;
            for _ in 0..64 {
                assert_wrap_matches(up);
                assert_wrap_matches(down);
                up = up.next_up();
                down = down.next_down();
            }
        }
        // a dense sweep over the fast range and well past it
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            assert_wrap_matches(-40.0 + 80.0 * u);
        }
    }

    #[test]
    fn wrap_to_tau_range() {
        assert!((wrap_to_tau(-0.1) - (TAU - 0.1)).abs() < 1e-12);
        assert_eq!(wrap_to_tau(0.0), 0.0);
        assert!((wrap_to_tau(TAU + 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deg_rad_round_trip() {
        for d in [-270.0, -90.0, 0.0, 45.0, 180.0, 720.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-12);
        }
        assert!((deg_to_rad(180.0) - PI).abs() < 1e-15);
    }

    #[test]
    fn unwrap_linear_ramp() {
        // a steadily increasing phase that wraps several times
        let truth: Vec<f64> = (0..100).map(|i| i as f64 * 0.4).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap_to_pi(t)).collect();
        let un = unwrap(&wrapped);
        for (u, t) in un.iter().zip(&truth) {
            // unwrap recovers up to a constant offset; ramp starts near 0 so
            // offset should be 0
            assert!((u - t).abs() < 1e-9, "{u} vs {t}");
        }
    }

    #[test]
    fn unwrap_decreasing_ramp() {
        let truth: Vec<f64> = (0..80).map(|i| -(i as f64) * 0.5).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap_to_pi(t)).collect();
        let un = unwrap(&wrapped);
        for (u, t) in un.iter().zip(&truth) {
            assert!((u - t).abs() < 1e-9);
        }
    }

    #[test]
    fn unwrap_noop_for_small_steps() {
        let p = vec![0.0, 0.3, 0.1, -0.4, 0.2];
        assert_eq!(unwrap(&p), p);
    }

    #[test]
    fn unwrap_empty_and_single() {
        assert!(unwrap(&[]).is_empty());
        assert_eq!(unwrap(&[1.23]), vec![1.23]);
    }

    #[test]
    fn angle_diff_shortest_path() {
        assert!((angle_diff(0.1, -0.1) - 0.2).abs() < 1e-12);
        assert!((angle_diff(-3.0, 3.0) - (TAU - 6.0)).abs() < 1e-12);
        assert!((angle_diff(3.0, -3.0) + (TAU - 6.0)).abs() < 1e-12);
    }
}
