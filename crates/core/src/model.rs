//! Sensor-model inversion: measured phases → (force, location).
//!
//! The forward model ([`SensorModel::predict`]) maps `(F, x)` to the two
//! differential phases. Inversion minimizes the squared wrapped phase
//! residual over the calibrated `(F, x)` rectangle in two steps:
//!
//! 1. **Seed scan.** A `PhaseSurface` of predicted phases on a 41 × 46
//!    force × location lattice is built once per model (at fit or load)
//!    and shared by its clones. Each inversion scans it for the cell with
//!    the lowest cost — a branch-free two-sided wrap per cell, first-index
//!    argmin — which picks the basin robustly against the model's mild
//!    non-convexity.
//! 2. **Box-constrained Gauss–Newton.** From that cell, damped
//!    (Marquardt) steps on the 2 × 2 system polish the answer to the
//!    basin's minimum. The system is the Gauss–Newton matrix `JᵀJ` plus
//!    the residual-curvature term `Σ eᵢ∇²pᵢ`, all from the analytic
//!    derivatives of cubic × Catmull-Rom: where the model cannot explain
//!    a measurement (a large residual), `JᵀJ` alone overshoots the
//!    minimum and converges only linearly. The box is an active set: a
//!    coordinate on its bound whose step points outward is pinned, and
//!    the step is taken in the other coordinate alone. A step is accepted
//!    only if it lowers the cost; the iteration stops on a step below
//!    `STEP_TOL` of the domain, when no damping lowers the cost, or after
//!    `MAX_STEPS` accepted steps.
//!
//! Inversion allocates nothing: the surface is shared, and each step reads
//! only the four curves its location stencil touches.

use crate::calib::{LocationCurve, SensorModel};
use crate::WiForceError;
use wiforce_dsp::interp::catmull_stencil;
use wiforce_dsp::phase::wrap_to_pi;
use wiforce_dsp::polyfit::Polynomial;
use wiforce_dsp::TAU;

/// Force rows of the seed lattice, inclusive of both bounds: 41 rows.
const SEED_F_STEPS: usize = 40;
/// Location columns of the seed lattice, inclusive of both bounds: 46.
const SEED_X_STEPS: usize = 45;
/// Independent running minima in the seed scan.
const LANES: usize = 4;
/// The iteration stops once a step moves both coordinates by less than
/// this fraction of the calibrated range.
const STEP_TOL: f64 = 1e-10;
/// Cap on accepted steps.
const MAX_STEPS: usize = 32;
/// Initial Marquardt damping; a rejected step raises it tenfold, an
/// accepted one lowers it tenfold.
const LAMBDA_START: f64 = 1e-3;
/// Damping beyond which no step can lower the cost any more.
const LAMBDA_MAX: f64 = 1e10;

/// An inverted estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated force, N.
    pub force_n: f64,
    /// Estimated press location, m.
    pub location_m: f64,
    /// Residual RMS phase error of the fit, rad.
    pub residual_rad: f64,
}

/// Predicted phases on the inverter's seed lattice: force row `i` at
/// `F_lo + (F_hi − F_lo)·i/40`, location column `j` at
/// `x_lo + (x_hi − x_lo)·j/45`, each wrapped to `(−π, π]`, row-major.
pub(crate) struct PhaseSurface {
    /// Calibration locations, ascending, m (the interpolation grid).
    xs: Vec<f64>,
    phi1: Vec<f64>,
    phi2: Vec<f64>,
}

impl std::fmt::Debug for PhaseSurface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhaseSurface({}×{})", SEED_F_STEPS + 1, SEED_X_STEPS + 1)
    }
}

impl PhaseSurface {
    /// Evaluates the curves on the seed lattice: one force row of cubic
    /// samples per row, swept by one Catmull-Rom stencil per column.
    pub(crate) fn build(curves: &[LocationCurve], f_lo: f64, f_hi: f64) -> Self {
        let xs: Vec<f64> = curves.iter().map(|c| c.location_m).collect();
        let (x_lo, x_hi) = (xs[0], xs[xs.len() - 1]);
        let cols: Vec<_> = (0..=SEED_X_STEPS)
            .map(|j| {
                let x = x_lo + (x_hi - x_lo) * j as f64 / SEED_X_STEPS as f64;
                catmull_stencil(&xs, x).expect("validated at fit time")
            })
            .collect();
        let cells = ((SEED_F_STEPS + 1) * (SEED_X_STEPS + 1)).next_multiple_of(LANES);
        let (mut phi1, mut phi2) = (Vec::with_capacity(cells), Vec::with_capacity(cells));
        for i in 0..=SEED_F_STEPS {
            let f = f_lo + (f_hi - f_lo) * i as f64 / SEED_F_STEPS as f64;
            let y1: Vec<f64> = curves.iter().map(|c| c.poly1.eval(f)).collect();
            let y2: Vec<f64> = curves.iter().map(|c| c.poly2.eval(f)).collect();
            for st in &cols {
                phi1.push(wrap_to_pi(st.eval(&y1)));
                phi2.push(wrap_to_pi(st.eval(&y2)));
            }
        }
        // NaN padding to whole scan lanes: a NaN cost never wins
        while phi1.len() % LANES != 0 {
            phi1.push(f64::NAN);
            phi2.push(f64::NAN);
        }
        PhaseSurface { xs, phi1, phi2 }
    }

    /// The lattice cell `(row, column)` with the lowest cost against the
    /// wrapped target phases; ties go to the first cell in row-major
    /// order.
    fn seed(&self, t1: f64, t2: f64) -> (usize, usize) {
        // both operands lie in (−π, π], so their difference d lies in
        // (−2π, 2π) and its wrap has magnitude min(|d|, 2π − |d|)
        let wrapped_sq = |d: f64| -> f64 {
            let a = d.abs();
            let e = if a < TAU - a { a } else { TAU - a };
            e * e
        };
        // independent running minima per lane keep the scan free of a
        // loop-carried branch; each lane keeps its first minimum, so the
        // lowest index among the tied lane minima is the first overall
        let mut best_c = [f64::INFINITY; LANES];
        let mut best_k = [0usize; LANES];
        let chunks = self
            .phi1
            .chunks_exact(LANES)
            .zip(self.phi2.chunks_exact(LANES));
        for (c, (s1, s2)) in chunks.enumerate() {
            for l in 0..LANES {
                let cost = wrapped_sq(s1[l] - t1) + wrapped_sq(s2[l] - t2);
                let better = cost < best_c[l];
                best_c[l] = if better { cost } else { best_c[l] };
                best_k[l] = if better { c * LANES + l } else { best_k[l] };
            }
        }
        let mut best = (f64::INFINITY, 0);
        for (c, k) in best_c.into_iter().zip(best_k) {
            if c < best.0 || (c == best.0 && k < best.1) {
                best = (c, k);
            }
        }
        (best.1 / (SEED_X_STEPS + 1), best.1 % (SEED_X_STEPS + 1))
    }
}

/// `p(x)`, `p′(x)` and `p″(x)` in one Horner pass.
#[inline]
fn eval_with_derivatives(p: &Polynomial, x: f64) -> [f64; 3] {
    let (mut v, mut d, mut dd) = (0.0, 0.0, 0.0);
    for &c in p.coeffs().iter().rev() {
        dd = dd * x + d;
        d = d * x + v;
        v = v * x + c;
    }
    [v, d, 2.0 * dd]
}

/// The inversion problem in coordinates normalized to the calibrated box,
/// `u = (F − F_lo)/(F_hi − F_lo)` and `v = (x − x_lo)/(x_hi − x_lo)`,
/// both in `[0, 1]`.
struct Fit<'a> {
    model: &'a SensorModel,
    target: [f64; 2],
    lo: [f64; 2],
    hi: [f64; 2],
    span: [f64; 2],
}

/// The cost `e₁² + e₂²` of the wrapped residuals at one point, with its
/// half-gradient `g = Jᵀe` and half-Hessian `h = JᵀJ + Σ eᵢ∇²pᵢ` (upper
/// triangle `[h₀₀, h₀₁, h₁₁]`), and the Gauss–Newton diagonal `JᵀJ` that
/// scales the damping.
struct Quadratic {
    cost: f64,
    g: [f64; 2],
    h: [f64; 3],
    jtj_diag: [f64; 2],
}

impl Fit<'_> {
    /// Physical `(F, x)` at a normalized point, kept inside the box.
    fn physical(&self, p: [f64; 2]) -> [f64; 2] {
        [0, 1].map(|k| (self.lo[k] + self.span[k] * p[k]).min(self.hi[k]))
    }

    /// The cost's local quadratic model at `p`, from the analytic
    /// derivatives of cubic × Catmull-Rom.
    fn expand(&self, p: [f64; 2]) -> Quadratic {
        let [f, x] = self.physical(p);
        let curves = self.model.curves();
        let st = catmull_stencil(&self.model.surface().xs, x).expect("validated at fit time");
        // per port: the phase, then its ∂F, ∂x, ∂F², ∂F∂x, ∂x² derivatives
        let mut d = [[0.0; 6]; 2];
        for (k, [w, wx, wxx]) in st.taps() {
            let c = &curves[k];
            for (port, poly) in [&c.poly1, &c.poly2].into_iter().enumerate() {
                let [y, yf, yff] = eval_with_derivatives(poly, f);
                let dp = &mut d[port];
                dp[0] += w * y;
                dp[1] += w * yf;
                dp[2] += wx * y;
                dp[3] += w * yff;
                dp[4] += wx * yf;
                dp[5] += wxx * y;
            }
        }
        let [su, sv] = self.span;
        let mut q = Quadratic {
            cost: 0.0,
            g: [0.0; 2],
            h: [0.0; 3],
            jtj_diag: [0.0; 2],
        };
        for (dp, target) in d.iter().zip(self.target) {
            let e = wrap_to_pi(dp[0] - target);
            let (ju, jv) = (dp[1] * su, dp[2] * sv);
            q.cost += e * e;
            q.g[0] += ju * e;
            q.g[1] += jv * e;
            q.h[0] += ju * ju + e * dp[3] * su * su;
            q.h[1] += ju * jv + e * dp[4] * su * sv;
            q.h[2] += jv * jv + e * dp[5] * sv * sv;
            q.jtj_diag[0] += ju * ju;
            q.jtj_diag[1] += jv * jv;
        }
        q
    }

    /// The damped step at `p` under the box's active set, or `None`
    /// when the damping `lambda` is too light to make the free block
    /// positive definite.
    ///
    /// A coordinate on its bound is pinned when descent would push it out
    /// of the box, or when the coupled 2-D step would; the step is then
    /// solved in the other coordinate alone (at a corner where the 2-D
    /// step leaves through both sides, in whichever coordinate promises
    /// more descent). A zero step means no feasible descent remains.
    fn step(&self, p: [f64; 2], q: &Quadratic, lambda: f64) -> Option<[f64; 2]> {
        let g = q.g;
        // Marquardt scaling, floored so a flat coordinate still damps
        let floor = 1e-12 * (q.jtj_diag[0] + q.jtj_diag[1]) + f64::MIN_POSITIVE;
        let d = [0, 1].map(|k| q.h[2 * k] + lambda * q.jtj_diag[k].max(floor));
        let outward = |k: usize, s: f64| (p[k] <= 0.0 && s < 0.0) || (p[k] >= 1.0 && s > 0.0);

        let mut free = [!outward(0, -g[0]), !outward(1, -g[1])];
        if free[0] && free[1] {
            let h01 = q.h[1];
            let det = d[0] * d[1] - h01 * h01;
            if !(d[0] > 0.0 && d[1] > 0.0 && det > 0.0) {
                return None;
            }
            let full = [
                (-g[0] * d[1] + g[1] * h01) / det,
                (-g[1] * d[0] + g[0] * h01) / det,
            ];
            match [outward(0, full[0]), outward(1, full[1])] {
                [false, false] => return Some(full),
                [true, true] => {}
                [out0, out1] => free = [!out0, !out1],
            }
        }
        // the 1-D step in the free coordinate promising the most
        // descent; its direction is −g, which points into the box
        let mut best = [0.0; 2];
        let mut gain = 0.0;
        for k in (0..2).filter(|&k| free[k] && g[k] != 0.0) {
            if d[k] <= 0.0 {
                return None;
            }
            let promise = g[k] * g[k] / d[k];
            if promise > gain {
                gain = promise;
                best = [0.0; 2];
                best[k] = -g[k] / d[k];
            }
        }
        Some(best)
    }

    /// Damped, box-projected iteration from `p`: returns the final point
    /// and its cost.
    fn solve(&self, mut p: [f64; 2]) -> ([f64; 2], f64) {
        let mut q = self.expand(p);
        let mut lambda = LAMBDA_START;
        for _ in 0..MAX_STEPS {
            if q.cost == 0.0 {
                break;
            }
            let (next, next_q) = loop {
                if let Some(s) = self.step(p, &q, lambda) {
                    if s == [0.0; 2] {
                        return (p, q.cost);
                    }
                    let trial = [0, 1].map(|k| (p[k] + s[k]).clamp(0.0, 1.0));
                    let trial_q = self.expand(trial);
                    if trial_q.cost < q.cost {
                        lambda *= 0.1;
                        break (trial, trial_q);
                    }
                }
                lambda *= 10.0;
                if lambda > LAMBDA_MAX {
                    return (p, q.cost);
                }
            };
            let moved = (next[0] - p[0]).abs().max((next[1] - p[1]).abs());
            (p, q) = (next, next_q);
            if moved < STEP_TOL {
                break;
            }
        }
        (p, q.cost)
    }
}

impl SensorModel {
    /// Inverts the model: finds `(F, x)` whose predicted phases best match
    /// the measurement.
    ///
    /// Returns [`WiForceError::OutOfModelRange`] when even the best fit
    /// leaves more than `max_residual_rad` RMS phase error — the signature
    /// of a measurement the calibration cannot explain — and, up front,
    /// for a NaN or infinite phase, which has no wrapped residual.
    pub fn invert(
        &self,
        phi1_rad: f64,
        phi2_rad: f64,
        max_residual_rad: f64,
    ) -> Result<Estimate, WiForceError> {
        if !(phi1_rad.is_finite() && phi2_rad.is_finite()) {
            return Err(WiForceError::OutOfModelRange {
                phi1: phi1_rad,
                phi2: phi2_rad,
            });
        }
        let (f_lo, f_hi) = self.force_range_n();
        let (x_lo, x_hi) = self.location_range_m();
        let fit = Fit {
            model: self,
            target: [wrap_to_pi(phi1_rad), wrap_to_pi(phi2_rad)],
            lo: [f_lo, x_lo],
            hi: [f_hi, x_hi],
            span: [f_hi - f_lo, x_hi - x_lo],
        };
        let (row, col) = self.surface().seed(fit.target[0], fit.target[1]);
        let seed = [
            row as f64 / SEED_F_STEPS as f64,
            col as f64 / SEED_X_STEPS as f64,
        ];
        let (p, cost) = fit.solve(seed);

        let residual = (cost / 2.0).sqrt();
        // a model whose curves overflow leaves a NaN cost: no fit either
        if residual.is_nan() || residual > max_residual_rad {
            return Err(WiForceError::OutOfModelRange {
                phi1: phi1_rad,
                phi2: phi2_rad,
            });
        }
        // a reading pinned to the calibrated box is saturated: the press
        // may lie beyond it
        if p.iter().any(|&c| c <= 0.0 || c >= 1.0) {
            wiforce_telemetry::counter!("invert.at_bound", 1);
        }
        let [force_n, location_m] = fit.physical(p);
        Ok(Estimate {
            force_n,
            location_m,
            residual_rad: residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{CalibrationSample, LocationData};
    use proptest::prelude::*;

    fn synth_phases(force: f64, loc: f64) -> (f64, f64) {
        let l = 0.080;
        let w1 = 1.0 - loc / l;
        let w2 = loc / l;
        (
            0.5 * w1 * force.sqrt() + 0.02 * force,
            0.5 * w2 * force.sqrt() + 0.02 * force,
        )
    }

    fn model() -> SensorModel {
        let data: Vec<LocationData> = [0.020, 0.030, 0.040, 0.050, 0.060]
            .iter()
            .map(|&loc| LocationData {
                location_m: loc,
                samples: (1..=16)
                    .map(|i| {
                        let f = i as f64 * 0.5;
                        let (p1, p2) = synth_phases(f, loc);
                        CalibrationSample {
                            force_n: f,
                            phi1_rad: p1,
                            phi2_rad: p2,
                        }
                    })
                    .collect(),
            })
            .collect();
        SensorModel::fit(&data, 3).unwrap()
    }

    #[test]
    fn round_trip_at_calibration_points() {
        let m = model();
        for &loc in &[0.020, 0.040, 0.060] {
            for &f in &[1.0, 3.0, 6.0] {
                let (p1, p2) = synth_phases(f, loc);
                let est = m.invert(p1, p2, 0.2).unwrap();
                assert!((est.force_n - f).abs() < 0.1, "f: {} vs {f}", est.force_n);
                assert!(
                    (est.location_m - loc).abs() < 1.5e-3,
                    "x: {} vs {loc}",
                    est.location_m
                );
            }
        }
    }

    #[test]
    fn round_trip_at_held_out_location() {
        let m = model();
        let (p1, p2) = synth_phases(4.0, 0.055);
        let est = m.invert(p1, p2, 0.2).unwrap();
        assert!((est.force_n - 4.0).abs() < 0.2);
        assert!((est.location_m - 0.055).abs() < 2e-3);
    }

    #[test]
    fn noisy_phases_give_graceful_errors() {
        let m = model();
        let (p1, p2) = synth_phases(4.0, 0.040);
        let noise = 0.5f64.to_radians();
        let est = m.invert(p1 + noise, p2 - noise, 0.2).unwrap();
        assert!((est.force_n - 4.0).abs() < 0.5, "{}", est.force_n);
        assert!((est.location_m - 0.040).abs() < 3e-3);
    }

    #[test]
    fn garbage_phases_rejected() {
        let m = model();
        let err = m.invert(2.5, -2.5, 0.05).unwrap_err();
        assert!(matches!(err, WiForceError::OutOfModelRange { .. }));
    }

    #[test]
    fn nan_phase_rejected_even_with_unbounded_residual() {
        // a NaN cost never beats the grid's running best, so without the
        // up-front check this returned Ok at the corner of the range
        let m = model();
        for (p1, p2) in [(f64::NAN, 0.3), (0.3, f64::NAN), (f64::NAN, f64::NAN)] {
            let err = m.invert(p1, p2, f64::INFINITY).unwrap_err();
            assert!(
                matches!(err, WiForceError::OutOfModelRange { .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn infinite_phase_rejected_even_with_unbounded_residual() {
        let m = model();
        for (p1, p2) in [
            (f64::INFINITY, 0.3),
            (0.3, f64::NEG_INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
        ] {
            let err = m.invert(p1, p2, f64::INFINITY).unwrap_err();
            assert!(
                matches!(err, WiForceError::OutOfModelRange { .. }),
                "{err:?}"
            );
        }
    }

    /// The grid-search inverter this module shipped before the seeded
    /// Gauss–Newton one, kept as the optimality reference: a 41 × 46
    /// coarse scan, then three 21 × 21 refinements, each 10× finer,
    /// around the running best. Returns `(F, x, residual)`.
    fn grid_reference(m: &SensorModel, phi1: f64, phi2: f64) -> (f64, f64, f64) {
        let (f_lo, f_hi) = m.force_range_n();
        let (x_lo, x_hi) = m.location_range_m();
        let curves = m.curves();
        let xs: Vec<f64> = curves.iter().map(|c| c.location_m).collect();
        let mut y1 = vec![0.0; curves.len()];
        let mut y2 = vec![0.0; curves.len()];
        let fill_row = |f: f64, y1: &mut [f64], y2: &mut [f64]| {
            for (k, c) in curves.iter().enumerate() {
                y1[k] = c.poly1.eval(f);
                y2[k] = c.poly2.eval(f);
            }
        };
        let cost_at = |y1: &[f64], y2: &[f64], st: &wiforce_dsp::interp::CatmullStencil| {
            let e1 = wrap_to_pi(st.eval(y1) - phi1);
            let e2 = wrap_to_pi(st.eval(y2) - phi2);
            e1 * e1 + e2 * e2
        };
        // (F, x, cost) of the running best, first strict minimum in scan
        // order
        let mut best = (f_lo, x_lo, f64::INFINITY);
        let mut scan =
            |best: &mut (f64, f64, f64), fs: &mut dyn Iterator<Item = f64>, at_x: &[f64]| {
                let cols: Vec<_> = at_x
                    .iter()
                    .map(|&x| (x, catmull_stencil(&xs, x).unwrap()))
                    .collect();
                for f in fs {
                    fill_row(f, &mut y1, &mut y2);
                    for (x, st) in &cols {
                        let c = cost_at(&y1, &y2, st);
                        if c < best.2 {
                            *best = (f, *x, c);
                        }
                    }
                }
            };
        let (nf, nx) = (40, 45);
        let coarse_x: Vec<f64> = (0..=nx)
            .map(|j| x_lo + (x_hi - x_lo) * j as f64 / nx as f64)
            .collect();
        scan(
            &mut best,
            &mut (0..=nf).map(|i| f_lo + (f_hi - f_lo) * i as f64 / nf as f64),
            &coarse_x,
        );
        let mut span_f = (f_hi - f_lo) / nf as f64;
        let mut span_x = (x_hi - x_lo) / nx as f64;
        for _ in 0..3 {
            let (f0, x0, _) = best;
            let fine_x: Vec<f64> = (-10i32..=10)
                .map(|j| (x0 + j as f64 * span_x / 10.0).clamp(x_lo, x_hi))
                .collect();
            scan(
                &mut best,
                &mut (-10i32..=10).map(|i| (f0 + i as f64 * span_f / 10.0).clamp(f_lo, f_hi)),
                &fine_x,
            );
            span_f /= 10.0;
            span_x /= 10.0;
        }
        let (best_f, best_x, best_c) = best;
        (best_f, best_x, (best_c / 2.0).sqrt())
    }

    /// Checks one measurement against the grid reference: the estimate is
    /// finite and inside the calibrated box, its residual is no worse than
    /// the grid's, and it reads wherever the grid reads (at the pipeline's
    /// 0.35 rad gate). Returns both forces and both verdicts.
    fn check_against_reference(m: &SensorModel, phi1: f64, phi2: f64) -> [(f64, bool); 2] {
        let (f_lo, f_hi) = m.force_range_n();
        let (x_lo, x_hi) = m.location_range_m();
        let (rf, rx, rres) = grid_reference(m, phi1, phi2);
        let est = m.invert(phi1, phi2, f64::INFINITY).unwrap();
        let ctx = format!("({phi1}, {phi2}): {est:?} vs grid ({rf}, {rx}, {rres})");
        assert!(
            [est.force_n, est.location_m, est.residual_rad]
                .iter()
                .all(|v| v.is_finite()),
            "{ctx}"
        );
        assert!((f_lo..=f_hi).contains(&est.force_n), "{ctx}");
        assert!((x_lo..=x_hi).contains(&est.location_m), "{ctx}");
        assert!(est.residual_rad <= rres + 1e-12, "{ctx}");
        let ok = m.invert(phi1, phi2, 0.35).is_ok();
        assert!(ok || rres > 0.35, "{ctx}");
        [(est.force_n, ok), (rf, rres <= 0.35)]
    }

    /// One measured press: the applied force, then the inverter's and the
    /// grid's `(force, reads)`.
    type Compared = (f64, [(f64, bool); 2]);

    /// The golden-bits phase lattice, then seeded spectral-arm presses
    /// over the calibrated domain, at both paper carriers.
    fn optimality_sweep(presses_per_carrier: u64) -> Vec<(f64, SensorModel, Vec<Compared>)> {
        use crate::pipeline::Simulation;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut out = Vec::new();
        for carrier_hz in [0.9e9, 2.4e9] {
            let mut sim = Simulation::paper_default(carrier_hz);
            sim.synth_spectral = Some(true);
            let m = sim.vna_calibration().unwrap();
            let n = 17;
            for i in 0..n {
                for j in 0..n {
                    let phi1 = -3.2 + 6.4 * i as f64 / (n - 1) as f64;
                    let phi2 = -3.2 + 6.4 * j as f64 / (n - 1) as f64;
                    check_against_reference(&m, phi1, phi2);
                }
            }
            let mut presses = Vec::new();
            for i in 0..presses_per_carrier {
                let force = 0.5 + 7.5 * ((i * 7919) % 1000) as f64 / 999.0;
                let location = 0.020 + 0.040 * ((i * 104_729) % 1000) as f64 / 999.0;
                let mut rng = StdRng::seed_from_u64(0x0971_0000 + i);
                let contact = sim.jittered_contact(force, location, &mut rng);
                if let Ok(d) = sim.measure_phases(contact.as_ref(), &mut rng) {
                    presses.push((force, check_against_reference(&m, d.dphi1_rad, d.dphi2_rad)));
                }
            }
            out.push((carrier_hz, m, presses));
        }
        out
    }

    #[test]
    fn never_worse_than_the_grid_reference() {
        for (carrier_hz, _, presses) in optimality_sweep(24) {
            assert!(
                presses.len() >= 20,
                "{carrier_hz}: {} measured",
                presses.len()
            );
        }
    }

    /// The full-size sweep, run in release by CI's perf-gate job
    /// (`--include-ignored`): 4000 measured presses per carrier read
    /// exactly where the grid reads, at the grid's median force error;
    /// and across a 61 × 61 noiseless sweep of the calibrated domain the
    /// inverter is never worse than the grid and recovers the truth.
    #[test]
    #[ignore = "full size: run in release with --include-ignored"]
    fn never_worse_than_the_grid_reference_full_size() {
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        for (carrier_hz, m, presses) in optimality_sweep(4000) {
            assert!(
                presses.len() >= 4000,
                "{carrier_hz}: {} measured",
                presses.len()
            );
            let reads = |k: usize| presses.iter().filter(|(_, r)| r[k].1).count();
            assert_eq!(reads(0), reads(1), "{carrier_hz}: readings vs the grid's");
            let err = |k: usize| median(presses.iter().map(|(f, r)| (r[k].0 - f).abs()).collect());
            let (err, grid_err) = (err(0), err(1));
            let moved: Vec<f64> = presses
                .iter()
                .map(|(_, r)| (r[0].0 - r[1].0).abs())
                .collect();
            let mut sorted = moved.clone();
            sorted.sort_by(f64::total_cmp);
            eprintln!(
                "{:.1} GHz: {} of {} read; median |F error| {err:.4} N (grid {grid_err:.4}); \
                 |F − F_grid| p99 {:.4} N",
                carrier_hz / 1e9,
                reads(0),
                presses.len(),
                sorted[sorted.len() * 99 / 100],
            );
            assert!((err - grid_err).abs() <= 0.002, "{carrier_hz}");

            let (f_lo, f_hi) = m.force_range_n();
            let (x_lo, x_hi) = m.location_range_m();
            let n = 61;
            let (mut worst_f, mut worst_x) = (0.0f64, 0.0f64);
            for i in 0..n {
                for j in 0..n {
                    let f = f_lo + (f_hi - f_lo) * i as f64 / (n - 1) as f64;
                    let x = x_lo + (x_hi - x_lo) * j as f64 / (n - 1) as f64;
                    let (p1, p2) = m.predict(f, x);
                    check_against_reference(&m, p1, p2);
                    let est = m.invert(p1, p2, f64::INFINITY).unwrap();
                    worst_f = worst_f.max((est.force_n - f).abs());
                    worst_x = worst_x.max((est.location_m - x).abs());
                }
            }
            eprintln!("  noiseless: worst |F error| {worst_f:.2e} N, |x error| {worst_x:.2e} m");
            assert!(
                worst_f < 1e-9 && worst_x < 1e-12,
                "{carrier_hz}: noiseless truth missed"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Any finite phase pair, at any magnitude, reads inside the
        /// calibrated box within the residual gate, or is out of the
        /// model's range; nothing panics.
        #[test]
        fn finite_phases_read_inside_the_box_or_fail_cleanly(
            (phi1, phi2) in (-1.0f64..1.0, -1.0f64..1.0, 0usize..4).prop_map(|(a, b, k)| {
                let scale = [1.0, 4.0, 1e6, 1e300][k];
                (a * scale, b * scale)
            }),
            max_residual in 0.0f64..0.5,
        ) {
            let m = model();
            match m.invert(phi1, phi2, max_residual) {
                Ok(est) => {
                    let (f_lo, f_hi) = m.force_range_n();
                    let (x_lo, x_hi) = m.location_range_m();
                    prop_assert!((f_lo..=f_hi).contains(&est.force_n), "{est:?}");
                    prop_assert!((x_lo..=x_hi).contains(&est.location_m), "{est:?}");
                    prop_assert!(est.residual_rad <= max_residual, "{est:?}");
                }
                Err(e) => prop_assert!(
                    matches!(e, WiForceError::OutOfModelRange { .. }),
                    "{e:?}"
                ),
            }
        }

        /// A NaN or infinite phase, on either port, is out of range.
        #[test]
        fn non_finite_phases_fail(finite in -4.0f64..4.0, k in 0usize..3, port in 0usize..2) {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k];
            let (p1, p2) = if port == 0 { (bad, finite) } else { (finite, bad) };
            prop_assert!(matches!(
                model().invert(p1, p2, f64::INFINITY),
                Err(WiForceError::OutOfModelRange { .. })
            ));
        }

        /// Presses past the 8 N calibration bound pin the force there, and
        /// presses outside 20–60 mm pin the location to the nearer end:
        /// both take the active-set path, and neither may fit worse than
        /// the grid reference.
        #[test]
        fn presses_past_the_box_pin_to_its_bounds(
            over_f in 8.2f64..10.0,
            f in 1.0f64..7.0,
            loc in 0.022f64..0.058,
            out_mm in -12.0f64..12.0,
        ) {
            let m = model();
            let (p1, p2) = synth_phases(over_f, loc);
            check_against_reference(&m, p1, p2);
            let est = m.invert(p1, p2, f64::INFINITY).unwrap();
            prop_assert_eq!(est.force_n, 8.0);

            // 1–13 mm beyond either end
            let outside = if out_mm < 0.0 {
                0.020 + (out_mm - 1.0) * 1e-3
            } else {
                0.060 + (out_mm + 1.0) * 1e-3
            };
            let (p1, p2) = synth_phases(f, outside);
            check_against_reference(&m, p1, p2);
            let est = m.invert(p1, p2, f64::INFINITY).unwrap();
            prop_assert_eq!(est.location_m, if out_mm < 0.0 { 0.020 } else { 0.060 });
        }
    }

    #[test]
    fn residual_reported() {
        let m = model();
        let (p1, p2) = synth_phases(2.0, 0.030);
        let est = m.invert(p1, p2, 0.2).unwrap();
        assert!(est.residual_rad < 0.02, "{}", est.residual_rad);
    }
}
