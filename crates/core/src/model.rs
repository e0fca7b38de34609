//! Sensor-model inversion: measured phases → (force, location).
//!
//! The forward model ([`SensorModel::predict`]) maps `(F, x)` to the two
//! differential phases. Inversion minimizes the squared phase residual
//! over the calibrated `(F, x)` rectangle with a coarse grid followed by
//! two local refinement passes — robust against the model's mild
//! non-convexity and fast enough for streaming use (~10⁴ evaluations of
//! two cubics).

use crate::calib::SensorModel;
use crate::WiForceError;
use wiforce_dsp::interp::{catmull_stencil, CatmullStencil};
use wiforce_dsp::phase::wrap_to_pi;

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

impl SensorModel {
    /// Inverts the model: finds `(F, x)` whose predicted phases best match
    /// the measurement.
    ///
    /// Returns [`WiForceError::OutOfModelRange`] when even the best fit
    /// leaves more than `max_residual_rad` RMS phase error — the signature
    /// of a measurement the calibration cannot explain — and, up front,
    /// for a NaN or infinite phase, whose cost would never enter the grid
    /// search.
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

        // The per-location cubics depend on force only, so the grid scan
        // evaluates one *force row* of polynomial samples and sweeps the
        // Catmull-Rom interpolation along it — the same arithmetic as
        // `predict` per cell, but the polynomial evaluations (and the row
        // buffers) are hoisted out of the location loop: ~10² fewer cubic
        // evaluations and three allocations per inversion instead of
        // three per cell.
        let curves = self.curves();
        let xs: Vec<f64> = curves.iter().map(|c| c.location_m).collect();
        let mut y1 = vec![0.0; curves.len()];
        let mut y2 = vec![0.0; curves.len()];
        let fill_row = |f: f64, y1: &mut [f64], y2: &mut [f64]| {
            for (k, c) in curves.iter().enumerate() {
                y1[k] = c.poly1.eval(f);
                y2[k] = c.poly2.eval(f);
            }
        };
        // Location columns repeat across every force row of a scan pass,
        // and Catmull-Rom interpolation is linear in the row values — so
        // each pass builds one interpolation stencil per column up front
        // ([`catmull_rom`] collapsed to four multiply-adds) and reuses it
        // for all rows: ~40× fewer bracket/tangent computations.
        let cost_at = |y1: &[f64], y2: &[f64], st: &CatmullStencil| -> f64 {
            let e1 = wrap_to_pi(st.eval(y1) - phi1_rad);
            let e2 = wrap_to_pi(st.eval(y2) - phi2_rad);
            e1 * e1 + e2 * e2
        };

        // coarse grid
        let (mut best_f, mut best_x, mut best_c) = (f_lo, x_lo, f64::INFINITY);
        let (nf, nx) = (40, 45);
        let mut cols: Vec<(f64, CatmullStencil)> = Vec::with_capacity(nx + 1);
        for j in 0..=nx {
            let x = x_lo + (x_hi - x_lo) * j as f64 / nx as f64;
            let st = catmull_stencil(&xs, x).expect("validated at fit time");
            cols.push((x, st));
        }
        for i in 0..=nf {
            let f = f_lo + (f_hi - f_lo) * i as f64 / nf as f64;
            fill_row(f, &mut y1, &mut y2);
            for (x, st) in &cols {
                let c = cost_at(&y1, &y2, st);
                if c < best_c {
                    best_c = c;
                    best_f = f;
                    best_x = *x;
                }
            }
        }
        // local refinement: two passes of 10× finer grids around the best
        let mut span_f = (f_hi - f_lo) / nf as f64;
        let mut span_x = (x_hi - x_lo) / nx as f64;
        for _ in 0..3 {
            let (f0, x0) = (best_f, best_x);
            cols.clear();
            for j in -10i32..=10 {
                let x = (x0 + j as f64 * span_x / 10.0).clamp(x_lo, x_hi);
                let st = catmull_stencil(&xs, x).expect("validated at fit time");
                cols.push((x, st));
            }
            for i in -10i32..=10 {
                let f = (f0 + i as f64 * span_f / 10.0).clamp(f_lo, f_hi);
                fill_row(f, &mut y1, &mut y2);
                for (x, st) in &cols {
                    let c = cost_at(&y1, &y2, st);
                    if c < best_c {
                        best_c = c;
                        best_f = f;
                        best_x = *x;
                    }
                }
            }
            span_f /= 10.0;
            span_x /= 10.0;
        }

        let residual = (best_c / 2.0).sqrt();
        if residual > max_residual_rad {
            return Err(WiForceError::OutOfModelRange {
                phi1: phi1_rad,
                phi2: phi2_rad,
            });
        }
        Ok(Estimate {
            force_n: best_f,
            location_m: best_x,
            residual_rad: residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{CalibrationSample, LocationData};

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

    /// The original inverter called `predict` per grid cell; the shipped
    /// one hoists the polynomial rows out of the location loop. Same
    /// arithmetic, same scan order — so the estimates must be bitwise
    /// equal to this per-cell reference.
    #[test]
    fn row_hoist_matches_per_cell_predict_bitwise() {
        let m = model();
        let reference = |phi1: f64, phi2: f64| -> (f64, f64, f64) {
            let (f_lo, f_hi) = m.force_range_n();
            let (x_lo, x_hi) = m.location_range_m();
            let cost = |f: f64, x: f64| -> f64 {
                let (p1, p2) = m.predict(f, x);
                let e1 = wrap_to_pi(p1 - phi1);
                let e2 = wrap_to_pi(p2 - phi2);
                e1 * e1 + e2 * e2
            };
            let (mut bf, mut bx, mut bc) = (f_lo, x_lo, f64::INFINITY);
            let (nf, nx) = (40, 45);
            for i in 0..=nf {
                let f = f_lo + (f_hi - f_lo) * i as f64 / nf as f64;
                for j in 0..=nx {
                    let x = x_lo + (x_hi - x_lo) * j as f64 / nx as f64;
                    let c = cost(f, x);
                    if c < bc {
                        bc = c;
                        bf = f;
                        bx = x;
                    }
                }
            }
            let mut span_f = (f_hi - f_lo) / nf as f64;
            let mut span_x = (x_hi - x_lo) / nx as f64;
            for _ in 0..3 {
                let (f0, x0) = (bf, bx);
                for i in -10i32..=10 {
                    let f = (f0 + i as f64 * span_f / 10.0).clamp(f_lo, f_hi);
                    for j in -10i32..=10 {
                        let x = (x0 + j as f64 * span_x / 10.0).clamp(x_lo, x_hi);
                        let c = cost(f, x);
                        if c < bc {
                            bc = c;
                            bf = f;
                            bx = x;
                        }
                    }
                }
                span_f /= 10.0;
                span_x /= 10.0;
            }
            (bf, bx, (bc / 2.0).sqrt())
        };
        for &(f, loc) in &[(1.5, 0.025), (4.0, 0.040), (6.5, 0.058)] {
            let (p1, p2) = synth_phases(f, loc);
            let est = m.invert(p1, p2, 0.35).unwrap();
            let (rf, rx, rres) = reference(p1, p2);
            assert_eq!(est.force_n.to_bits(), rf.to_bits());
            assert_eq!(est.location_m.to_bits(), rx.to_bits());
            assert_eq!(est.residual_rad.to_bits(), rres.to_bits());
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
