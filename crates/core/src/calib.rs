//! Sensor-model calibration (paper §4.2).
//!
//! "We now use the data obtained by applying force at all 5 locations, and
//! compute a cubic-fit to make a model that allows to compute the force
//! magnitude and force location based on the measured phase changes."
//!
//! A [`SensorModel`] holds one cubic phase-force polynomial *per port per
//! calibration location*; between calibration locations the predicted
//! phases are interpolated along the sensor axis (the paper validates this
//! at the held-out 55 mm point, Table 1). Model inversion lives in
//! [`crate::model`].

use crate::model::PhaseSurface;
use crate::WiForceError;
use std::sync::Arc;
use wiforce_dsp::interp::catmull_rom;
use wiforce_dsp::polyfit::Polynomial;

/// One calibration observation: a press and its two differential phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Ground-truth applied force, N (load cell in the paper).
    pub force_n: f64,
    /// Port-1 differential phase, rad.
    pub phi1_rad: f64,
    /// Port-2 differential phase, rad.
    pub phi2_rad: f64,
}

/// All samples collected at one press location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationData {
    /// Press location, m.
    pub location_m: f64,
    /// Force sweep samples.
    pub samples: Vec<CalibrationSample>,
}

/// Fitted curves for one location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationCurve {
    /// Press location, m.
    pub location_m: f64,
    /// Cubic fit `φ₁(F)`, rad.
    pub poly1: Polynomial,
    /// Cubic fit `φ₂(F)`, rad.
    pub poly2: Polynomial,
}

/// The calibrated WiForce sensor model.
///
/// Equality compares the curves and the force range; the inverter's
/// phase surface is derived from them.
#[derive(Debug, Clone)]
pub struct SensorModel {
    curves: Vec<LocationCurve>,
    force_min_n: f64,
    force_max_n: f64,
    /// Predicted phases on the inverter's seed lattice, built once here
    /// and shared by every clone (each batch stream clones the model).
    surface: Arc<PhaseSurface>,
}

impl PartialEq for SensorModel {
    fn eq(&self, other: &Self) -> bool {
        self.curves == other.curves
            && self.force_min_n == other.force_min_n
            && self.force_max_n == other.force_max_n
    }
}

impl SensorModel {
    /// Assembles a validated model (≥ 2 strictly increasing locations, a
    /// finite ordered force range) and builds its phase surface.
    fn from_curves(curves: Vec<LocationCurve>, force_min_n: f64, force_max_n: f64) -> Self {
        let surface = Arc::new(PhaseSurface::build(&curves, force_min_n, force_max_n));
        SensorModel {
            curves,
            force_min_n,
            force_max_n,
            surface,
        }
    }

    /// The inverter's precomputed phase surface.
    pub(crate) fn surface(&self) -> &PhaseSurface {
        &self.surface
    }

    /// Fits cubic (or `degree`) polynomials per location.
    ///
    /// Requirements: at least two locations with strictly increasing
    /// positions, and at least `degree + 1` samples per location.
    pub fn fit(data: &[LocationData], degree: usize) -> Result<Self, WiForceError> {
        if data.len() < 2 {
            return Err(WiForceError::Calibration(format!(
                "need at least 2 calibration locations, got {}",
                data.len()
            )));
        }
        let mut sorted: Vec<&LocationData> = data.iter().collect();
        sorted.sort_by(|a, b| {
            a.location_m
                .partial_cmp(&b.location_m)
                .expect("NaN location")
        });
        if sorted
            .windows(2)
            .any(|w| w[0].location_m >= w[1].location_m)
        {
            return Err(WiForceError::Calibration(
                "duplicate calibration locations".into(),
            ));
        }

        let mut force_min = f64::INFINITY;
        let mut force_max = f64::NEG_INFINITY;
        let mut curves = Vec::with_capacity(sorted.len());
        for loc in sorted {
            if loc.samples.len() < degree + 1 {
                return Err(WiForceError::Calibration(format!(
                    "location {:.3} m has {} samples, need {}",
                    loc.location_m,
                    loc.samples.len(),
                    degree + 1
                )));
            }
            let forces: Vec<f64> = loc.samples.iter().map(|s| s.force_n).collect();
            let phi1: Vec<f64> = loc.samples.iter().map(|s| s.phi1_rad).collect();
            let phi2: Vec<f64> = loc.samples.iter().map(|s| s.phi2_rad).collect();
            let poly1 = Polynomial::fit(&forces, &phi1, degree)
                .map_err(|e| WiForceError::Calibration(e.to_string()))?;
            let poly2 = Polynomial::fit(&forces, &phi2, degree)
                .map_err(|e| WiForceError::Calibration(e.to_string()))?;
            force_min = force_min.min(forces.iter().cloned().fold(f64::INFINITY, f64::min));
            force_max = force_max.max(forces.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
            curves.push(LocationCurve {
                location_m: loc.location_m,
                poly1,
                poly2,
            });
        }
        Ok(Self::from_curves(curves, force_min, force_max))
    }

    /// Calibration locations, ascending, m.
    pub fn locations_m(&self) -> Vec<f64> {
        self.curves.iter().map(|c| c.location_m).collect()
    }

    /// Calibrated force range `(min, max)`, N.
    pub fn force_range_n(&self) -> (f64, f64) {
        (self.force_min_n, self.force_max_n)
    }

    /// Location range covered by calibration `(min, max)`, m.
    pub fn location_range_m(&self) -> (f64, f64) {
        (
            self.curves.first().map_or(0.0, |c| c.location_m),
            self.curves.last().map_or(0.0, |c| c.location_m),
        )
    }

    /// The fitted curves.
    pub fn curves(&self) -> &[LocationCurve] {
        &self.curves
    }

    /// Predicted `(φ₁, φ₂)` (rad) for a press of `force_n` at
    /// `location_m`, interpolating the per-location cubic evaluations
    /// along the sensor axis.
    pub fn predict(&self, force_n: f64, location_m: f64) -> (f64, f64) {
        let xs: Vec<f64> = self.curves.iter().map(|c| c.location_m).collect();
        let y1: Vec<f64> = self.curves.iter().map(|c| c.poly1.eval(force_n)).collect();
        let y2: Vec<f64> = self.curves.iter().map(|c| c.poly2.eval(force_n)).collect();
        let p1 = catmull_rom(&xs, &y1, location_m).expect("validated at fit time");
        let p2 = catmull_rom(&xs, &y2, location_m).expect("validated at fit time");
        (p1, p2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic ground truth: φ1 grows with force, more steeply close to
    /// port 1; φ2 mirrored.
    fn synth_phases(force: f64, loc: f64) -> (f64, f64) {
        let l = 0.080;
        let w1 = 1.0 - loc / l;
        let w2 = loc / l;
        (
            0.3 * w1 * force.sqrt() + 0.01 * force,
            0.3 * w2 * force.sqrt() + 0.01 * force,
        )
    }

    fn synth_data() -> Vec<LocationData> {
        [0.020, 0.030, 0.040, 0.050, 0.060]
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
            .collect()
    }

    #[test]
    fn fit_and_ranges() {
        let m = SensorModel::fit(&synth_data(), 3).unwrap();
        assert_eq!(m.locations_m(), vec![0.020, 0.030, 0.040, 0.050, 0.060]);
        let (lo, hi) = m.force_range_n();
        assert_eq!(lo, 0.5);
        assert_eq!(hi, 8.0);
        assert_eq!(m.location_range_m(), (0.020, 0.060));
    }

    #[test]
    fn predicts_at_calibration_points() {
        let m = SensorModel::fit(&synth_data(), 3).unwrap();
        for &loc in &[0.020, 0.040, 0.060] {
            for &f in &[1.0, 4.0, 7.5] {
                let (p1, p2) = m.predict(f, loc);
                let (t1, t2) = synth_phases(f, loc);
                assert!((p1 - t1).abs() < 0.02, "loc {loc} f {f}: {p1} vs {t1}");
                assert!((p2 - t2).abs() < 0.02);
            }
        }
    }

    #[test]
    fn interpolates_held_out_location() {
        // the paper's 55 mm validation: trained at 20/30/40/50/60, tested
        // between calibration points
        let m = SensorModel::fit(&synth_data(), 3).unwrap();
        let (p1, p2) = m.predict(4.0, 0.055);
        let (t1, t2) = synth_phases(4.0, 0.055);
        assert!((p1 - t1).abs() < 0.03, "{p1} vs {t1}");
        assert!((p2 - t2).abs() < 0.03, "{p2} vs {t2}");
    }

    #[test]
    fn fit_errors() {
        assert!(matches!(
            SensorModel::fit(&synth_data()[..1], 3),
            Err(WiForceError::Calibration(_))
        ));
        let mut dup = synth_data();
        dup[1].location_m = dup[0].location_m;
        assert!(SensorModel::fit(&dup, 3).is_err());
        let mut sparse = synth_data();
        sparse[0].samples.truncate(2);
        assert!(SensorModel::fit(&sparse, 3).is_err());
    }

    #[test]
    fn unsorted_input_accepted() {
        let mut data = synth_data();
        data.reverse();
        let m = SensorModel::fit(&data, 3).unwrap();
        assert_eq!(m.locations_m(), vec![0.020, 0.030, 0.040, 0.050, 0.060]);
    }
}

impl SensorModel {
    /// Serializes the model to a small self-describing text format
    /// (`.wfm`): a header line, then one line per location with the two
    /// cubic coefficient sets.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "WFM1 {} {} {}",
            self.curves.len(),
            self.force_min_n,
            self.force_max_n
        )?;
        for c in &self.curves {
            write!(f, "{}", c.location_m)?;
            write!(f, " | ")?;
            for v in c.poly1.coeffs() {
                write!(f, "{v} ")?;
            }
            write!(f, "| ")?;
            for v in c.poly2.coeffs() {
                write!(f, "{v} ")?;
            }
            writeln!(f)?;
        }
        f.flush()
    }

    /// Loads a model saved by [`Self::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        let text = std::fs::read_to_string(path)?;
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty model file"))?;
        let mut head = header.split_whitespace();
        if head.next() != Some("WFM1") {
            return Err(bad("not a WFM1 sensor model"));
        }
        let n: usize = head
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad curve count"))?;
        let force_min_n: f64 = head
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad force range"))?;
        let force_max_n: f64 = head
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad force range"))?;
        // `invert` searches the box this range spans: it must be finite and
        // ordered
        if !(force_min_n.is_finite() && force_max_n.is_finite() && force_min_n <= force_max_n) {
            return Err(bad("bad force range"));
        }
        // the header's count is untrusted: reserve no more curves than
        // the file has lines left to hold them
        let mut curves = Vec::with_capacity(n.min(lines.clone().count()));
        for _ in 0..n {
            let line = lines.next().ok_or_else(|| bad("truncated model file"))?;
            let mut parts = line.split('|');
            let loc: f64 = parts
                .next()
                .and_then(|v| v.trim().parse().ok())
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| bad("bad location"))?;
            let parse_poly =
                |chunk: Option<&str>| -> Result<wiforce_dsp::polyfit::Polynomial, Error> {
                    let coeffs: Result<Vec<f64>, _> = chunk
                        .ok_or_else(|| bad("missing coefficients"))?
                        .split_whitespace()
                        .map(|v| v.parse::<f64>())
                        .collect();
                    let coeffs = coeffs.map_err(|_| bad("bad coefficient"))?;
                    if coeffs.iter().any(|c| !c.is_finite()) {
                        return Err(bad("bad coefficient"));
                    }
                    if coeffs.is_empty() {
                        return Err(bad("empty coefficient set"));
                    }
                    Ok(wiforce_dsp::polyfit::Polynomial::new(coeffs))
                };
            let poly1 = parse_poly(parts.next())?;
            let poly2 = parse_poly(parts.next())?;
            curves.push(LocationCurve {
                location_m: loc,
                poly1,
                poly2,
            });
        }
        if curves.len() < 2
            || curves
                .windows(2)
                .any(|w| w[0].location_m >= w[1].location_m)
        {
            return Err(bad("model needs ≥2 strictly increasing locations"));
        }
        Ok(Self::from_curves(curves, force_min_n, force_max_n))
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    fn sample_model() -> SensorModel {
        let data: Vec<LocationData> = [0.020, 0.040, 0.060]
            .iter()
            .map(|&loc| LocationData {
                location_m: loc,
                samples: (1..=8)
                    .map(|i| {
                        let f = i as f64;
                        CalibrationSample {
                            force_n: f,
                            phi1_rad: 0.1 * f + loc,
                            phi2_rad: -0.05 * f * f + loc,
                        }
                    })
                    .collect(),
            })
            .collect();
        SensorModel::fit(&data, 3).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wiforce_model_test");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip() {
        let m = sample_model();
        let path = tmp("model.wfm");
        m.save(&path).unwrap();
        let back = SensorModel::load(&path).unwrap();
        assert_eq!(back.locations_m(), m.locations_m());
        assert_eq!(back.force_range_n(), m.force_range_n());
        // predictions agree to printing precision
        for &f in &[1.0, 4.5, 7.0] {
            for &x in &[0.025, 0.040, 0.055] {
                let (a1, a2) = m.predict(f, x);
                let (b1, b2) = back.predict(f, x);
                assert!((a1 - b1).abs() < 1e-12 && (a2 - b2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn load_rejects_garbage() {
        let path = tmp("garbage.wfm");
        std::fs::write(&path, "not a model\n1 2 3").unwrap();
        assert!(SensorModel::load(&path).is_err());
    }

    #[test]
    fn load_rejects_non_finite_and_inverted_fields() {
        // each of these used to load, then abort inversion in `f64::clamp`
        let cases = [
            (
                "nan_location",
                "WFM1 2 0 8\nnan | 0 1 | 0 1\n0.06 | 0 1 | 0 1\n",
            ),
            (
                "inf_location",
                "WFM1 2 0 8\n0.02 | 0 1 | 0 1\ninf | 0 1 | 0 1\n",
            ),
            (
                "nan_bound",
                "WFM1 2 nan 8\n0.02 | 0 1 | 0 1\n0.06 | 0 1 | 0 1\n",
            ),
            (
                "inverted_range",
                "WFM1 2 8 0\n0.02 | 0 1 | 0 1\n0.06 | 0 1 | 0 1\n",
            ),
            (
                "nan_coefficient",
                "WFM1 2 0 8\n0.02 | 0 nan | 0 1\n0.06 | 0 1 | 0 1\n",
            ),
        ];
        for (name, text) in cases {
            let path = tmp(&format!("hostile_{name}.wfm"));
            std::fs::write(&path, text).unwrap();
            let err = SensorModel::load(&path).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
        }
        // the same file with finite, ordered fields loads
        let path = tmp("hostile_control.wfm");
        std::fs::write(&path, "WFM1 2 0 8\n0.02 | 0 1 | 0 1\n0.06 | 0 1 | 0 1\n").unwrap();
        assert!(SensorModel::load(&path).is_ok());
    }

    #[test]
    fn load_rejects_a_hostile_curve_count() {
        // a 23-byte file whose header claims 10^12 curves used to reserve
        // 56 TB up front and abort the process
        let path = tmp("hostile.wfm");
        std::fs::write(&path, "WFM1 1000000000000 0 8\n").unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 23);
        let err = SensorModel::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_truncation() {
        let m = sample_model();
        let path = tmp("trunc.wfm");
        m.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, cut).unwrap();
        assert!(SensorModel::load(&path).is_err());
    }
}
