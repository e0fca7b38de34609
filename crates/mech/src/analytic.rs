//! Fast phenomenological contact model.
//!
//! A closed-form counterpart to the finite-difference [`crate::ContactSolver`]
//! (`crate::contact`): it reuses the same load-spreading submodel
//! ([`SensorMech::load_half_width_m`]) and approximates the beam response
//! with two saturating maps per side, matching both the FD solver and the
//! paper's described phenomenology (§3.1, Fig. 5a):
//!
//! * **load-driven advance** — each patch edge tracks a fraction of the
//!   spread load half-width, saturating as it nears its support (shorter,
//!   stiffer sides advance less for the same force);
//! * **sag floor** — long unsupported sides start partially collapsed
//!   (span⁴ self-weight sag), so their edge begins far out and then barely
//!   moves: the paper's "the longer length collapses onto the bottom trace,
//!   leading to an almost stationary shorting point".
//!
//! The model runs ~5×10³× faster than the default 401-node FD solver
//! (`mech_perf` bench on a 2-vCPU Xeon: ~0.55 µs against 2.9–3.7 ms per
//! press), which matters for the Monte-Carlo CDF experiments (Figs. 13/14)
//! that take thousands of presses.
//! Integration tests cross-validate it against the FD solver.

use crate::contact::SensorMech;
use crate::indenter::Indenter;
use crate::patch::ContactPatch;
use crate::ForceTransducer;

// Tuning matched to the FD solver on the prototype geometry.

/// Peel margin: minimum distance an edge keeps from its support, m.
const PEEL_MARGIN_M: f64 = 6e-3;
/// Fraction of the spread load half-width that turns into contact.
const CONTACT_FRACTION: f64 = 0.65;
/// Sag floor slope: metres of pre-collapsed edge distance per metre of
/// side span beyond [`SAG_ONSET_SPAN_M`].
const SAG_SLOPE: f64 = 0.35;
/// Side span at which self-weight sag starts pre-collapsing the side, m.
const SAG_ONSET_SPAN_M: f64 = 0.040;
/// Relative growth of the sag floor per newton: the collapsed side's peel
/// edge creeps outward slowly with load (the FD solver shows ≈3 %/N),
/// which keeps the far port *weakly* force-sensitive and breaks the
/// force/location ambiguity an exactly-stationary edge would create.
const SAG_GROWTH_PER_N: f64 = 0.025;

/// Closed-form contact model; see module docs.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticContactModel {
    mech: SensorMech,
    indenter: Indenter,
}

impl AnalyticContactModel {
    /// Builds the model for a sensor/indenter pair.
    pub fn new(mech: SensorMech, indenter: Indenter) -> Self {
        AnalyticContactModel { mech, indenter }
    }

    /// The underlying mechanical description.
    pub fn mech(&self) -> &SensorMech {
        &self.mech
    }

    /// Touch threshold from simply-supported point-load stiffness:
    /// `F₀ = 3·EI·L·g / (a²·b²)` with `a`, `b` the distances to the two
    /// supports.
    fn threshold(&self, x0: f64) -> f64 {
        let l = self.mech.beam.length_m;
        let ei = self.mech.beam.flexural_rigidity();
        let a = x0.clamp(1e-4, l - 1e-4);
        let b = l - a;
        3.0 * ei * l * self.mech.gap_m / (a * a * b * b)
    }

    /// Edge distance from the press centre into a side of span `span_m`,
    /// for spread load half-width `load_half` and force `df_n` above the
    /// touch threshold.
    fn edge_distance(&self, span_m: f64, load_half: f64, df_n: f64) -> f64 {
        let avail = (span_m - PEEL_MARGIN_M).max(1e-4);
        // saturating load-driven advance
        let drive = CONTACT_FRACTION * load_half;
        let adv = avail * (1.0 - (-drive / avail).exp());
        // self-weight sag floor for long sides, scaled by how close the
        // beam is to its rest-contact weight, creeping slowly outward with
        // load
        let q_ref = 0.55; // prototype self-weight, N/m
        let sag = SAG_SLOPE
            * (span_m - SAG_ONSET_SPAN_M).max(0.0)
            * (self.mech.self_weight_n_per_m / q_ref).min(2.0)
            * (1.0 + SAG_GROWTH_PER_N * df_n);
        adv.max(sag).min(avail)
    }
}

impl ForceTransducer for AnalyticContactModel {
    fn length_m(&self) -> f64 {
        self.mech.beam.length_m
    }

    fn contact_patch(&self, force_n: f64, location_m: f64) -> Option<ContactPatch> {
        let l = self.mech.beam.length_m;
        let x0 = location_m.clamp(0.0, l);
        let f0 = self.threshold(x0);
        if force_n <= f0 {
            return None;
        }
        let df = force_n - f0;
        let load_half = self.mech.load_half_width_m(&self.indenter, df);
        let d_left = self.edge_distance(x0, load_half, df);
        let d_right = self.edge_distance(l - x0, load_half, df);
        Some(ContactPatch::new(x0 - d_left, x0 + d_right))
    }

    fn touch_threshold_n(&self, location_m: f64) -> f64 {
        self.threshold(location_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalyticContactModel {
        AnalyticContactModel::new(SensorMech::wiforce_prototype(), Indenter::actuator_tip())
    }

    #[test]
    fn below_threshold_no_patch() {
        let m = model();
        let thr = m.touch_threshold_n(0.040);
        assert!(thr > 0.0);
        assert!(m.contact_patch(thr * 0.9, 0.040).is_none());
        assert!(m.contact_patch(thr * 1.1, 0.040).is_some());
    }

    #[test]
    fn threshold_highest_near_ends() {
        let m = model();
        let t_mid = m.touch_threshold_n(0.040);
        let t_end = m.touch_threshold_n(0.010);
        assert!(t_end > t_mid);
    }

    #[test]
    fn patch_grows_monotonically() {
        let m = model();
        let mut prev = 0.0;
        for f in [1.0, 2.0, 4.0, 6.0, 8.0] {
            let w = m.contact_patch(f, 0.040).unwrap().width_m();
            assert!(w > prev, "{w} at {f} N");
            prev = w;
        }
    }

    #[test]
    fn center_press_symmetric() {
        let m = model();
        let p = m.contact_patch(4.0, 0.040).unwrap();
        assert!((p.port1_length_m() - p.port2_length_m(0.080)).abs() < 1e-4);
    }

    #[test]
    fn long_side_collapses_short_side_keeps_moving() {
        // paper §3.1: pressing at 20 mm, the long (60 mm) side's shorting
        // point is almost stationary over the force range while the short
        // (20 mm) side's keeps shifting.
        let m = model();
        let p1 = m.contact_patch(1.0, 0.020).unwrap();
        let p8 = m.contact_patch(8.0, 0.020).unwrap();
        let near_shift = (p1.left_m - p8.left_m).abs();
        let far_shift = (p1.right_m - p8.right_m).abs();
        // the far edge creeps slightly (sag growth) but the near edge
        // still dominates
        assert!(
            near_shift > 1.5 * far_shift,
            "near shift {near_shift} should dominate far shift {far_shift}"
        );
        assert!(near_shift > 1e-3, "near side should move millimetres");
    }

    #[test]
    fn long_side_starts_pre_collapsed() {
        // the sag floor puts the far edge well beyond the load footprint at
        // first contact
        let m = model();
        let p = m.contact_patch(0.5, 0.020).unwrap();
        assert!(
            p.right_m - 0.020 > 5e-3,
            "far edge should start collapsed, got {:?}",
            p
        );
    }

    #[test]
    fn edges_respect_peel_margins() {
        let m = model();
        let p = m.contact_patch(50.0, 0.040).unwrap();
        assert!(p.left_m >= 6e-3 - 1e-12);
        assert!(p.right_m <= 0.080 - 6e-3 + 1e-12);
    }

    #[test]
    fn patch_contains_press() {
        let m = model();
        for x0 in [0.020, 0.035, 0.055, 0.060] {
            let p = m.contact_patch(4.0, x0).unwrap();
            assert!(p.left_m <= x0 && x0 <= p.right_m, "{x0}: {p:?}");
        }
    }

    #[test]
    fn location_monotone_in_patch_center() {
        // pressing further right moves the patch centre right — needed for
        // localization to be well-posed
        let m = model();
        let mut prev = -1.0;
        for x0 in [0.020, 0.030, 0.040, 0.050, 0.060] {
            let c = m.contact_patch(4.0, x0).unwrap().center_m();
            assert!(c > prev);
            prev = c;
        }
    }
}
