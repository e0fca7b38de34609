//! Interpolation on sorted grids.
//!
//! The sensor model is calibrated at five discrete press locations
//! (20/30/40/50/60 mm); estimating at intermediate locations (the paper
//! validates at 55 mm) requires interpolating fitted model parameters across
//! location — done here with linear and monotone-friendly Catmull-Rom
//! interpolation, plus bilinear interpolation for 2-D lookup tables.

use std::fmt;

/// Errors from interpolation routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Grid has fewer than two points.
    TooFewPoints,
    /// Grid abscissae are not strictly increasing.
    NotSorted,
    /// Grid and value lengths differ.
    LengthMismatch,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::TooFewPoints => write!(f, "need at least 2 grid points"),
            InterpError::NotSorted => write!(f, "grid must be strictly increasing"),
            InterpError::LengthMismatch => write!(f, "grid and values must have equal length"),
        }
    }
}

impl std::error::Error for InterpError {}

fn validate(xs: &[f64], ys: &[f64]) -> Result<(), InterpError> {
    if xs.len() < 2 {
        return Err(InterpError::TooFewPoints);
    }
    if xs.len() != ys.len() {
        return Err(InterpError::LengthMismatch);
    }
    if xs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(InterpError::NotSorted);
    }
    Ok(())
}

/// Index of the left grid point of the interval containing `x` (clamped to
/// the outermost intervals for extrapolation).
fn bracket(xs: &[f64], x: f64) -> usize {
    let n = xs.len();
    if x <= xs[0] {
        return 0;
    }
    if x >= xs[n - 1] {
        return n - 2;
    }
    // partition_point gives first index with xs[i] > x
    xs.partition_point(|&g| g <= x).saturating_sub(1).min(n - 2)
}

/// Piecewise-linear interpolation of `(xs, ys)` at `x`, linearly
/// extrapolating beyond the grid ends.
pub fn lerp(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, InterpError> {
    validate(xs, ys)?;
    let i = bracket(xs, x);
    let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    Ok(ys[i] * (1.0 - t) + ys[i + 1] * t)
}

/// Catmull-Rom cubic interpolation at `x` (C¹-smooth through the samples),
/// clamping to linear behaviour beyond the grid.
pub fn catmull_rom(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, InterpError> {
    validate(xs, ys)?;
    let n = xs.len();
    if x <= xs[0] || x >= xs[n - 1] || n < 3 {
        return lerp(xs, ys, x);
    }
    let i = bracket(xs, x);
    // Tangents via finite differences (non-uniform grid aware).
    let tangent = |k: usize| -> f64 {
        if k == 0 {
            (ys[1] - ys[0]) / (xs[1] - xs[0])
        } else if k == n - 1 {
            (ys[n - 1] - ys[n - 2]) / (xs[n - 1] - xs[n - 2])
        } else {
            (ys[k + 1] - ys[k - 1]) / (xs[k + 1] - xs[k - 1])
        }
    };
    let h = xs[i + 1] - xs[i];
    let t = (x - xs[i]) / h;
    let (m0, m1) = (tangent(i) * h, tangent(i + 1) * h);
    let t2 = t * t;
    let t3 = t2 * t;
    Ok((2.0 * t3 - 3.0 * t2 + 1.0) * ys[i]
        + (t3 - 2.0 * t2 + t) * m0
        + (-2.0 * t3 + 3.0 * t2) * ys[i + 1]
        + (t3 - t2) * m1)
}

/// A precomputed Catmull-Rom evaluation stencil at one fixed abscissa.
///
/// Catmull-Rom interpolation is linear in the sample values: for a fixed
/// grid `xs` and query `x`, the result is a dot product of at most four
/// weights with `ys[base..]`, and so are its slope and curvature.
/// Callers that evaluate many different value rows at the same abscissa
/// (e.g. the sensor model's phase surface, built from force rows under
/// fixed location columns) build the stencil once per abscissa and pay
/// four multiply-adds per evaluation instead of a full bracket + tangent
/// computation; callers that need the interpolant's derivatives (the
/// inverter's Jacobian and Hessian) read them off the derivative weights.
#[derive(Debug, Clone, Copy)]
pub struct CatmullStencil {
    /// First sample index the taps apply to.
    base: usize,
    /// Number of taps that fall on the grid (at most four).
    len: usize,
    /// Tap weights for `ys[base..base + len]`.
    w: [f64; 4],
    /// Weights of the interpolant's derivative `d/dx` on the same taps.
    dw: [f64; 4],
    /// Weights of its second derivative `d²/dx²`.
    d2w: [f64; 4],
}

impl CatmullStencil {
    /// Applies the stencil to one row of sample values (`ys` must be the
    /// same length as the grid the stencil was built for).
    #[inline]
    pub fn eval(&self, ys: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (w, y) in self.w[..self.len].iter().zip(&ys[self.base..]) {
            acc += w * y;
        }
        acc
    }

    /// The taps as `(sample index, [weight, d/dx weight, d²/dx² weight])`:
    /// the interpolant at the stencil's abscissa is `Σ weight·ys[index]`,
    /// and likewise its first and second derivatives.
    #[inline]
    pub fn taps(&self) -> impl Iterator<Item = (usize, [f64; 3])> + '_ {
        (0..self.len).map(move |k| (self.base + k, [self.w[k], self.dw[k], self.d2w[k]]))
    }
}

/// Builds the [`CatmullStencil`] for query point `x` on grid `xs`,
/// matching [`catmull_rom`]'s piecewise definition (including the linear
/// clamp beyond the grid ends) up to floating-point reassociation. The
/// derivative weights are the exact derivatives of that piecewise
/// definition: the cubic's inside the grid, the end segment's beyond it.
/// The slope is continuous across the grid ends (their tangents are
/// one-sided differences); the curvature, as for any C¹ spline, jumps at
/// the knots.
pub fn catmull_stencil(xs: &[f64], x: f64) -> Result<CatmullStencil, InterpError> {
    if xs.len() < 2 {
        return Err(InterpError::TooFewPoints);
    }
    if xs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(InterpError::NotSorted);
    }
    let n = xs.len();
    let i = bracket(xs, x);
    let h = xs[i + 1] - xs[i];
    let t = (x - xs[i]) / h;
    if x <= xs[0] || x >= xs[n - 1] || n < 3 {
        return Ok(CatmullStencil {
            base: i,
            len: 2,
            w: [1.0 - t, t, 0.0, 0.0],
            dw: [-1.0 / h, 1.0 / h, 0.0, 0.0],
            d2w: [0.0; 4],
        });
    }
    let t2 = t * t;
    let t3 = t2 * t;
    // Hermite basis b0·ys[i] + b1·h·tangent(i) + b2·ys[i+1] +
    // b3·h·tangent(i+1) and its x-derivatives (d/dt scaled by 1/h)
    let b = [
        2.0 * t3 - 3.0 * t2 + 1.0,
        t3 - 2.0 * t2 + t,
        -2.0 * t3 + 3.0 * t2,
        t3 - t2,
    ];
    let db = [
        (6.0 * t2 - 6.0 * t) / h,
        (3.0 * t2 - 4.0 * t + 1.0) / h,
        (-6.0 * t2 + 6.0 * t) / h,
        (3.0 * t2 - 2.0 * t) / h,
    ];
    let h2 = h * h;
    let d2b = [
        (12.0 * t - 6.0) / h2,
        (6.0 * t - 4.0) / h2,
        (-12.0 * t + 6.0) / h2,
        (6.0 * t - 2.0) / h2,
    ];
    // spread a basis onto per-sample weights: each tangent is a finite
    // difference of two samples
    let base = if i == 0 { 0 } else { i - 1 };
    let spread = |b: [f64; 4]| -> [f64; 4] {
        let mut w = [0.0f64; 4];
        let mut add = |idx: usize, v: f64| w[idx - base] += v;
        add(i, b[0]);
        add(i + 1, b[2]);
        if i == 0 {
            let c = b[1] * h / (xs[1] - xs[0]);
            add(1, c);
            add(0, -c);
        } else {
            let c = b[1] * h / (xs[i + 1] - xs[i - 1]);
            add(i + 1, c);
            add(i - 1, -c);
        }
        if i + 1 == n - 1 {
            let c = b[3] * h / (xs[n - 1] - xs[n - 2]);
            add(n - 1, c);
            add(n - 2, -c);
        } else {
            let c = b[3] * h / (xs[i + 2] - xs[i]);
            add(i + 2, c);
            add(i, -c);
        }
        w
    };
    Ok(CatmullStencil {
        base,
        len: 4.min(n - base),
        w: spread(b),
        dw: spread(db),
        d2w: spread(d2b),
    })
}

/// Bilinear interpolation on a rectangular grid.
///
/// `values[i][j]` corresponds to `(xs[i], ys[j])`. Clamps outside the grid.
pub fn bilinear(
    xs: &[f64],
    ys: &[f64],
    values: &[Vec<f64>],
    x: f64,
    y: f64,
) -> Result<f64, InterpError> {
    if xs.len() < 2 || ys.len() < 2 {
        return Err(InterpError::TooFewPoints);
    }
    if values.len() != xs.len() || values.iter().any(|row| row.len() != ys.len()) {
        return Err(InterpError::LengthMismatch);
    }
    if xs.windows(2).any(|w| w[0] >= w[1]) || ys.windows(2).any(|w| w[0] >= w[1]) {
        return Err(InterpError::NotSorted);
    }
    let i = bracket(xs, x);
    let j = bracket(ys, y);
    let tx = ((x - xs[i]) / (xs[i + 1] - xs[i])).clamp(0.0, 1.0);
    let ty = ((y - ys[j]) / (ys[j + 1] - ys[j])).clamp(0.0, 1.0);
    let v00 = values[i][j];
    let v10 = values[i + 1][j];
    let v01 = values[i][j + 1];
    let v11 = values[i + 1][j + 1];
    Ok(v00 * (1.0 - tx) * (1.0 - ty)
        + v10 * tx * (1.0 - ty)
        + v01 * (1.0 - tx) * ty
        + v11 * tx * ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_matches_catmull_rom_everywhere() {
        // non-uniform grid, queries inside every interval, at knots, and
        // beyond both ends (the linear-clamp region)
        let xs = [0.0, 0.7, 1.5, 3.1, 4.0];
        let rows = [
            [1.0, -2.0, 0.5, 3.0, -1.0],
            [0.0, 1.0, 4.0, 9.0, 16.0],
            [5.0, 5.0, 5.0, 5.0, 5.0],
        ];
        for q in 0..200 {
            let x = -0.5 + 5.0 * q as f64 / 199.0;
            let st = catmull_stencil(&xs, x).unwrap();
            for ys in &rows {
                let direct = catmull_rom(&xs, ys, x).unwrap();
                let via = st.eval(ys);
                assert!(
                    (direct - via).abs() <= 1e-12 * (1.0 + direct.abs()),
                    "x={x}: direct={direct} stencil={via}"
                );
            }
        }
    }

    #[test]
    fn stencil_handles_tiny_grids() {
        // n == 2 → pure lerp path; n == 3 → boundary tangents both sides
        let st = catmull_stencil(&[0.0, 1.0], 0.25).unwrap();
        assert!((st.eval(&[0.0, 4.0]) - 1.0).abs() < 1e-15);
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0, 0.0];
        for &x in &[0.3, 0.5, 1.2, 1.9] {
            let st = catmull_stencil(&xs, x).unwrap();
            let direct = catmull_rom(&xs, &ys, x).unwrap();
            assert!((st.eval(&ys) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn stencil_derivatives_match_central_differences() {
        // analytic derivative weights against central differences of the
        // interpolant (and of its analytic slope), inside every interval
        // and on the linear clamp
        let xs = [0.0, 0.7, 1.5, 3.1, 4.0];
        let ys = [1.0, -2.0, 0.5, 3.0, -1.0];
        let deriv = |x: f64, order: usize| -> f64 {
            let st = catmull_stencil(&xs, x).unwrap();
            st.taps().map(|(k, w)| w[order] * ys[k]).sum()
        };
        let h = 1e-6;
        for q in 0..200 {
            let x = -0.5 + 5.0 * q as f64 / 199.0;
            if xs.iter().any(|&k| (x - k).abs() < 2.0 * h) {
                continue;
            }
            let fd = (catmull_rom(&xs, &ys, x + h).unwrap()
                - catmull_rom(&xs, &ys, x - h).unwrap())
                / (2.0 * h);
            assert!(
                (deriv(x, 1) - fd).abs() < 1e-6,
                "x={x}: {} vs {fd}",
                deriv(x, 1)
            );
            let fd2 = (deriv(x + h, 1) - deriv(x - h, 1)) / (2.0 * h);
            assert!(
                (deriv(x, 2) - fd2).abs() < 1e-5,
                "x={x}: {} vs {fd2}",
                deriv(x, 2)
            );
        }
        // the taps reproduce `eval`, and the slope is continuous across
        // the grid ends (one-sided tangents there)
        for &x in &[0.0, 0.3, 2.0, 4.0] {
            let st = catmull_stencil(&xs, x).unwrap();
            let via: f64 = st.taps().map(|(k, w)| w[0] * ys[k]).sum();
            assert!((via - st.eval(&ys)).abs() < 1e-12);
        }
        for &(a, b) in &[(0.0, 1e-9), (4.0 - 1e-9, 4.0)] {
            assert!((deriv(a, 1) - deriv(b, 1)).abs() < 1e-6);
        }
    }

    #[test]
    fn stencil_rejects_bad_grids() {
        assert!(catmull_stencil(&[0.0], 0.0).is_err());
        assert!(catmull_stencil(&[1.0, 0.5], 0.7).is_err());
    }

    #[test]
    fn lerp_hits_knots_and_midpoints() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 10.0, 30.0];
        assert_eq!(lerp(&xs, &ys, 0.0).unwrap(), 0.0);
        assert_eq!(lerp(&xs, &ys, 1.0).unwrap(), 10.0);
        assert_eq!(lerp(&xs, &ys, 2.0).unwrap(), 20.0);
        assert_eq!(lerp(&xs, &ys, 0.5).unwrap(), 5.0);
    }

    #[test]
    fn lerp_extrapolates_linearly() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 2.0];
        assert_eq!(lerp(&xs, &ys, 2.0).unwrap(), 4.0);
        assert_eq!(lerp(&xs, &ys, -1.0).unwrap(), -2.0);
    }

    #[test]
    fn lerp_errors() {
        assert_eq!(lerp(&[1.0], &[1.0], 0.5), Err(InterpError::TooFewPoints));
        assert_eq!(
            lerp(&[1.0, 0.0], &[1.0, 2.0], 0.5),
            Err(InterpError::NotSorted)
        );
        assert_eq!(
            lerp(&[0.0, 1.0], &[1.0], 0.5),
            Err(InterpError::LengthMismatch)
        );
    }

    #[test]
    fn catmull_rom_through_knots() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 4.0, 9.0];
        for (x, y) in xs.iter().zip(&ys) {
            assert!((catmull_rom(&xs, &ys, *x).unwrap() - y).abs() < 1e-12);
        }
    }

    #[test]
    fn catmull_rom_reproduces_smooth_function_better_than_lerp() {
        let xs: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let f = |x: f64| (x * 0.7).sin();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let mut err_cr = 0.0;
        let mut err_l = 0.0;
        for k in 0..60 {
            let x = 0.05 + k as f64 * 0.1;
            err_cr += (catmull_rom(&xs, &ys, x).unwrap() - f(x)).abs();
            err_l += (lerp(&xs, &ys, x).unwrap() - f(x)).abs();
        }
        assert!(
            err_cr < err_l,
            "catmull-rom {err_cr} should beat lerp {err_l}"
        );
    }

    #[test]
    fn bilinear_corners_and_center() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let v = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        assert_eq!(bilinear(&xs, &ys, &v, 0.0, 0.0).unwrap(), 0.0);
        assert_eq!(bilinear(&xs, &ys, &v, 1.0, 1.0).unwrap(), 3.0);
        assert_eq!(bilinear(&xs, &ys, &v, 0.5, 0.5).unwrap(), 1.5);
    }

    #[test]
    fn bilinear_clamps_outside() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let v = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        assert_eq!(bilinear(&xs, &ys, &v, -5.0, -5.0).unwrap(), 0.0);
        assert_eq!(bilinear(&xs, &ys, &v, 5.0, 5.0).unwrap(), 3.0);
    }

    #[test]
    fn bilinear_shape_errors() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let bad = vec![vec![0.0], vec![1.0]];
        assert_eq!(
            bilinear(&xs, &ys, &bad, 0.5, 0.5),
            Err(InterpError::LengthMismatch)
        );
    }
}
