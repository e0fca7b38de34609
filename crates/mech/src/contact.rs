//! Discretized unilateral-contact solver for the sensor beam.
//!
//! Model (paper §3.1, Figs. 1/4/5): the composite soft beam spans the sensor
//! length, held at both ends, suspended a gap `g` above the rigid ground
//! trace. A press applies a distributed load — the indenter footprint spread
//! through the elastomer thickness (a thicker, softer layer spreads the load
//! wider, and spreads it *wider still* as the press sinks deeper; this is
//! precisely the mechanism of paper Fig. 4b). The beam deflects by
//! Euler–Bernoulli bending and is stopped by the ground plane, which acts as
//! a unilateral (one-sided) constraint realized here by a stiff penalty.
//! The contiguous contact region's outermost points are the *shorting
//! points* reported as a [`ContactPatch`].
//!
//! Numerics: central finite differences of `EI·w''''` on a uniform grid
//! (pentadiagonal), penalty ground springs on an active set, and damped
//! fixed-point iteration on the active set. The banded solve comes from
//! `wiforce_dsp::linalg::solve_banded`.

use crate::beam::BeamGeometry;
use crate::indenter::Indenter;
use crate::material::MAX_STRAIN;
use crate::patch::ContactPatch;
use crate::ForceTransducer;
use wiforce_dsp::linalg::solve_banded;

/// How the beam is held at the sensor ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndCondition {
    /// Pinned: zero deflection, zero moment (resting on supports).
    Pinned,
    /// Clamped: zero deflection, zero slope (soldered/fixtured ends —
    /// the prototype's SMA-connector ends).
    Clamped,
}

/// Full mechanical description of a WiForce sensor for the contact solver.
#[derive(Debug, Clone, Copy)]
pub struct SensorMech {
    /// Beam geometry and materials.
    pub beam: BeamGeometry,
    /// Air gap between signal and ground traces, m (paper: 0.63 mm).
    pub gap_m: f64,
    /// End condition at both supports.
    pub ends: EndCondition,
    /// Geometric load-spreading factor: the load half-width gained per metre
    /// of elastomer thickness (45° spreading ⇒ ≈1.0).
    pub spread_per_thickness: f64,
    /// Additional load-spreading per metre of indenter penetration depth
    /// (densified elastomer pushes outward).
    pub spread_per_depth: f64,
    /// Distributed self-weight of the beam, N/m. The prototype's soft beam
    /// sags close to the gap under its own weight; this is what makes a
    /// *long* unsupported side collapse onto the ground trace when pressed
    /// off-centre (span⁴ sag scaling), the asymmetry of paper Fig. 5.
    pub self_weight_n_per_m: f64,
}

impl SensorMech {
    /// The paper's prototype sensor: 80 mm Ecoflex beam, 0.63 mm air gap.
    pub fn wiforce_prototype() -> Self {
        SensorMech {
            beam: BeamGeometry::wiforce_prototype(),
            gap_m: 0.63e-3,
            ends: EndCondition::Clamped,
            spread_per_thickness: 0.7,
            spread_per_depth: 4.0,
            self_weight_n_per_m: 0.55,
        }
    }

    /// The naive thin-trace sensor of paper Fig. 4a (no soft beam):
    /// negligible spreading, floppy trace.
    pub fn thin_trace() -> Self {
        SensorMech {
            beam: BeamGeometry::thin_trace(),
            gap_m: 0.63e-3,
            ends: EndCondition::Clamped,
            spread_per_thickness: 0.2,
            spread_per_depth: 0.0,
            self_weight_n_per_m: 0.02,
        }
    }

    /// Effective half-width (m) of the load distribution entering the beam
    /// for a press of `force_n` through the given indenter.
    ///
    /// The load spreads over the indenter footprint plus the elastomer
    /// thickness, and further with the penetration depth, which in turn
    /// follows from the mean contact pressure through the elastomer's
    /// stiffening stress law: deeper penetration ⇒ wider spread ⇒ lower
    /// pressure. The half-width `h` is the root of the one scalar equation
    ///
    /// `r(h) = h − max(base + k·ε(F/(2hb)), 1e-5) = 0`,
    ///
    /// with `base` the footprint-plus-thickness spread, `k` the depth
    /// spreading per unit strain, `b` the beam width and `ε(p)` the exact
    /// inverse of the stress law. `r` increases with `h`, so the root is
    /// unique and lies in `[base′, base′ + k·0.999]` (`base′ = max(base,
    /// 1e-5)`); Newton steps with the analytic slope find it, and a step
    /// that would leave the bracket bisects instead. NaN and non-positive
    /// forces return `base′`; an infinite force the saturated width.
    pub fn load_half_width_m(&self, indenter: &Indenter, force_n: f64) -> f64 {
        let t = self.beam.thickness_m;
        let base = indenter.half_width_m() + self.spread_per_thickness * t * 0.5;
        let floor = base.max(MIN_HALF_WIDTH_M);
        let k = self.spread_per_depth * t;
        if force_n.is_nan() || force_n <= 0.0 || k == 0.0 {
            return floor;
        }
        let mat = &self.beam.elastomer;
        let line_force = force_n / (2.0 * self.beam.width_m);
        let (mut lo, mut hi) = (floor, (base + k * MAX_STRAIN).max(MIN_HALF_WIDTH_M));
        let mut h = lo;
        for _ in 0..MAX_NEWTON_STEPS {
            let p = line_force / h;
            let (eps, deps_dp) = mat.strain_at_stress(p);
            let spread = base + k * eps;
            let r = h - spread.max(MIN_HALF_WIDTH_M);
            if r < 0.0 {
                lo = h;
            } else {
                hi = h;
            }
            // dr/dh = 1 + k·(dε/dp)·p/h, since dp/dh = −p/h; the floor
            // (and a saturated strain) leave the slope at 1
            let slope = if spread > MIN_HALF_WIDTH_M && deps_dp > 0.0 {
                1.0 + k * deps_dp * p / h
            } else {
                1.0
            };
            let newton = h - r / slope;
            let next = if (lo..=hi).contains(&newton) {
                newton
            } else {
                0.5 * (lo + hi)
            };
            let step = (next - h).abs();
            h = next;
            if step <= 4.0 * f64::EPSILON * h {
                break;
            }
        }
        h
    }
}

/// Floor on the load half-width, m.
const MIN_HALF_WIDTH_M: f64 = 1e-5;

/// Cap on the safeguarded Newton iteration for the load half-width. Newton
/// converges in a handful of steps; the cap only bounds a pathological
/// bisection run, which halves the bracket each step.
const MAX_NEWTON_STEPS: usize = 64;

/// Finite-difference unilateral-contact solver.
///
/// Construct once per sensor configuration, then query
/// [`ForceTransducer::contact_patch`] for presses. The solver is
/// deterministic and stateless across queries.
#[derive(Debug, Clone)]
pub struct ContactSolver {
    mech: SensorMech,
    indenter: Indenter,
    n: usize,
    penalty: f64,
}

/// Full solution detail for one press (deflection profile + patch).
#[derive(Debug, Clone)]
pub struct ContactSolution {
    /// Node abscissae, m.
    pub x_m: Vec<f64>,
    /// Downward beam deflection at the nodes, m.
    pub deflection_m: Vec<f64>,
    /// Contact patch (None if no node reached the gap).
    pub patch: Option<ContactPatch>,
    /// Applied distributed load at the nodes, N/m.
    pub load_n_per_m: Vec<f64>,
}

impl ContactSolver {
    /// Creates a solver with the default 401-node grid.
    pub fn new(mech: SensorMech, indenter: Indenter) -> Self {
        Self::with_nodes(mech, indenter, 401)
    }

    /// Creates a solver with an explicit node count (≥ 16).
    pub fn with_nodes(mech: SensorMech, indenter: Indenter, n: usize) -> Self {
        assert!(n >= 16, "contact grid too coarse: {n} nodes");
        ContactSolver {
            mech,
            indenter,
            n,
            penalty: 1e13,
        }
    }

    /// The mechanical configuration being solved.
    pub fn mech(&self) -> &SensorMech {
        &self.mech
    }

    /// The indenter pressing the sensor.
    pub fn indenter(&self) -> &Indenter {
        &self.indenter
    }

    /// Builds the applied load vector (N/m) for a press at `x0` of `force_n`.
    fn build_load(&self, force_n: f64, x0: f64) -> Vec<f64> {
        let len = self.mech.beam.length_m;
        let h = len / (self.n - 1) as f64;
        let half = self.mech.load_half_width_m(&self.indenter, force_n);
        let mut p = vec![0.0; self.n];
        // raised-cosine distribution of half-width `half` centred at x0,
        // clipped to the sensor; renormalized so the *applied* force on the
        // beam equals force_n (force landing beyond the ends is carried by
        // the supports, not the beam — but for presses in the calibrated
        // 20–60 mm range the clip is negligible).
        let mut integral = 0.0;
        for (i, pi) in p.iter_mut().enumerate() {
            let x = i as f64 * h;
            let dx = (x - x0) / half;
            if dx.abs() < 1.0 {
                *pi = 1.0 + (std::f64::consts::PI * dx).cos();
                integral += *pi * h;
            }
        }
        if integral > 0.0 {
            let scale = force_n / integral;
            p.iter_mut().for_each(|v| *v *= scale);
        }
        // superpose the beam's own distributed weight
        let q = self.mech.self_weight_n_per_m;
        if q > 0.0 {
            p.iter_mut().for_each(|v| *v += q);
        }
        p
    }

    /// Solves the full contact problem, returning deflection and patch.
    pub fn solve(&self, force_n: f64, location_m: f64) -> ContactSolution {
        let len = self.mech.beam.length_m;
        let n = self.n;
        let h = len / (n - 1) as f64;
        let x_m: Vec<f64> = (0..n).map(|i| i as f64 * h).collect();
        let load = self.build_load(force_n, location_m);

        if force_n <= 0.0 {
            return ContactSolution {
                x_m,
                deflection_m: vec![0.0; n],
                patch: None,
                load_n_per_m: load,
            };
        }

        let ei = self.mech.beam.flexural_rigidity();
        let k4 = ei / h.powi(4);
        let gap = self.mech.gap_m;
        // ghost-node fold-in coefficient at the first interior node:
        // pinned: w[-1] = -w[1] → diagonal 6-1=5; clamped: w[-1] = +w[1] → 7
        let edge_diag = match self.mech.ends {
            EndCondition::Pinned => 5.0,
            EndCondition::Clamped => 7.0,
        };

        // unknowns: interior nodes 1..n-1 (w0 = w_{n-1} = 0)
        let m = n - 2;
        let mut w = vec![0.0_f64; n];
        let mut active = vec![false; n];

        for _iter in 0..200 {
            // assemble & solve with current active set
            let a = |r: usize, c: usize| -> f64 {
                // r, c are interior indices (0..m) ↔ nodes (1..n-1)
                let (i, j) = (r + 1, c + 1);
                let d = i.abs_diff(j);
                let mut v = match d {
                    0 => {
                        let mut diag = 6.0;
                        if i == 1 || i == n - 2 {
                            diag = edge_diag;
                        }
                        diag * k4
                    }
                    1 => -4.0 * k4,
                    2 => k4,
                    _ => 0.0,
                };
                if d == 0 && active[i] {
                    v += self.penalty;
                }
                v
            };
            let b: Vec<f64> = (0..m)
                .map(|r| {
                    let i = r + 1;
                    let mut rhs = load[i];
                    if active[i] {
                        rhs += self.penalty * gap;
                    }
                    rhs
                })
                .collect();
            let sol = solve_banded(m, 2, a, &b).expect("beam operator is nonsingular");
            for (r, &v) in sol.iter().enumerate() {
                w[r + 1] = v;
            }

            // update active set
            let mut changed = false;
            for i in 1..n - 1 {
                let keep = if active[i] {
                    // reaction = penalty·(w − gap): at an active node the
                    // solve leaves w ≈ gap + reaction/penalty, so a tensile
                    // (upward-pulling, unphysical) reaction shows up as
                    // w < gap by a *tiny* margin. Release on tensile
                    // reaction beyond a small tolerance.
                    self.penalty * (w[i] - gap) >= -1e-3
                } else {
                    // engage nodes that penetrate the ground
                    w[i] > gap
                };
                if keep != active[i] {
                    active[i] = keep;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let patch = extract_patch(&x_m, &w, gap);
        ContactSolution {
            x_m,
            deflection_m: w,
            patch,
            load_n_per_m: load,
        }
    }
}

/// Finds the outermost gap-crossings of the deflection profile with sub-grid
/// linear interpolation.
fn extract_patch(x: &[f64], w: &[f64], gap: f64) -> Option<ContactPatch> {
    let tol = gap * 1e-6;
    let touching: Vec<usize> = (0..w.len()).filter(|&i| w[i] >= gap - tol).collect();
    let (&first, &last) = (touching.first()?, touching.last()?);

    let refine_left = |i: usize| -> f64 {
        if i == 0 {
            return x[0];
        }
        let (w0, w1) = (w[i - 1], w[i]);
        if w1 <= w0 {
            return x[i];
        }
        let t = ((gap - w0) / (w1 - w0)).clamp(0.0, 1.0);
        x[i - 1] + t * (x[i] - x[i - 1])
    };
    let refine_right = |i: usize| -> f64 {
        if i == w.len() - 1 {
            return x[i];
        }
        let (w0, w1) = (w[i], w[i + 1]);
        if w0 <= w1 {
            return x[i];
        }
        let t = ((w0 - gap) / (w0 - w1)).clamp(0.0, 1.0);
        x[i] + t * (x[i + 1] - x[i])
    };
    Some(ContactPatch::new(refine_left(first), refine_right(last)))
}

impl ForceTransducer for ContactSolver {
    fn length_m(&self) -> f64 {
        self.mech.beam.length_m
    }

    fn contact_patch(&self, force_n: f64, location_m: f64) -> Option<ContactPatch> {
        self.solve(force_n, location_m).patch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn prototype_solver() -> ContactSolver {
        ContactSolver::with_nodes(
            SensorMech::wiforce_prototype(),
            Indenter::actuator_tip(),
            201,
        )
    }

    #[test]
    fn zero_force_no_contact() {
        let s = prototype_solver();
        assert!(s.contact_patch(0.0, 0.040).is_none());
    }

    #[test]
    fn deflection_without_contact_matches_beam_theory_scale() {
        // tiny force, no contact: midpoint deflection should be within a
        // factor ~2 of the simply supported closed form (we use clamped
        // ends + distributed load, so exact agreement is not expected)
        let mut mech = SensorMech::wiforce_prototype();
        mech.ends = EndCondition::Pinned;
        mech.self_weight_n_per_m = 0.0; // isolate the point load
        let s = ContactSolver::with_nodes(mech, Indenter::Point, 201);
        let f = 0.002; // 2 mN, well below touch
        let sol = s.solve(f, 0.040);
        assert!(sol.patch.is_none(), "unexpected contact");
        let w_mid = sol.deflection_m[sol.deflection_m.len() / 2];
        let closed = mech.beam.center_point_load_deflection(f);
        assert!(
            (w_mid / closed - 1.0).abs() < 0.25,
            "w_mid {w_mid} vs closed-form {closed}"
        );
    }

    #[test]
    fn contact_appears_above_threshold() {
        let s = prototype_solver();
        let thr = s.touch_threshold_n(0.040);
        assert!(thr > 0.0 && thr < 0.5, "threshold {thr} N");
        assert!(s.contact_patch(thr * 2.0, 0.040).is_some());
        assert!(s.contact_patch(thr * 0.5, 0.040).is_none());
    }

    #[test]
    fn patch_width_monotone_in_force() {
        let s = prototype_solver();
        let forces = [1.0, 2.0, 4.0, 8.0];
        let mut prev = 0.0;
        for &f in &forces {
            let p = s.contact_patch(f, 0.040).expect("contact at {f} N");
            let width = p.width_m();
            assert!(width > prev, "width {width} at {f} N not > {prev}");
            prev = width;
        }
    }

    #[test]
    fn center_press_is_symmetric() {
        let s = prototype_solver();
        let p = s.contact_patch(4.0, 0.040).unwrap();
        let len = s.length_m();
        assert!(
            (p.port1_length_m() - p.port2_length_m(len)).abs() < 1e-3,
            "asymmetric centre press: {p:?}"
        );
    }

    #[test]
    fn off_center_press_is_asymmetric() {
        let s = prototype_solver();
        let p = s.contact_patch(4.0, 0.020).unwrap();
        // patch centre should sit near the press, definitely left of centre
        assert!(p.center_m() < 0.035, "patch {p:?}");
        assert!(p.left_m < 0.020);
        assert!(p.right_m > 0.020);
    }

    #[test]
    fn patch_contains_press_location() {
        let s = prototype_solver();
        for &x0 in &[0.020, 0.030, 0.040, 0.050, 0.060] {
            let p = s.contact_patch(3.0, x0).unwrap();
            assert!(p.left_m <= x0 && x0 <= p.right_m, "x0={x0}, {p:?}");
        }
    }

    #[test]
    fn soft_beam_spreads_more_than_thin_trace() {
        // paper Fig. 4: the soft beam's shorting points shift much more
        // over the force range than the naive thin trace's
        let soft = prototype_solver();
        let thin =
            ContactSolver::with_nodes(SensorMech::thin_trace(), Indenter::actuator_tip(), 201);
        let x0 = 0.040;
        let span = |s: &ContactSolver| -> f64 {
            let lo = s.contact_patch(1.0, x0).unwrap();
            let hi = s.contact_patch(8.0, x0).unwrap();
            (lo.left_m - hi.left_m).abs()
        };
        let soft_shift = span(&soft);
        let thin_shift = span(&thin);
        assert!(
            soft_shift > 3.0 * thin_shift,
            "soft shift {soft_shift} should dwarf thin shift {thin_shift}"
        );
        assert!(
            soft_shift > 2e-3,
            "soft shift should be millimetres, got {soft_shift}"
        );
    }

    #[test]
    fn shorting_points_shift_outward_with_force() {
        let s = prototype_solver();
        let p2 = s.contact_patch(2.0, 0.040).unwrap();
        let p8 = s.contact_patch(8.0, 0.040).unwrap();
        assert!(p8.left_m < p2.left_m);
        assert!(p8.right_m > p2.right_m);
    }

    #[test]
    fn load_integrates_to_force() {
        let s = prototype_solver();
        let sol = s.solve(5.0, 0.040);
        let h = sol.x_m[1] - sol.x_m[0];
        let total: f64 = sol.load_n_per_m.iter().map(|p| p * h).sum();
        // applied press + distributed self-weight
        let weight = s.mech().self_weight_n_per_m * s.length_m();
        assert!((total - 5.0 - weight).abs() < 0.05, "total load {total}");
    }

    #[test]
    fn deflection_never_exceeds_gap_materially() {
        let s = prototype_solver();
        let sol = s.solve(8.0, 0.030);
        let gap = s.mech().gap_m;
        let max_pen = sol
            .deflection_m
            .iter()
            .map(|&w| (w - gap).max(0.0))
            .fold(0.0_f64, f64::max);
        assert!(max_pen < gap * 1e-3, "penetration {max_pen} vs gap {gap}");
    }

    #[test]
    fn load_half_width_grows_with_force() {
        let mech = SensorMech::wiforce_prototype();
        let ind = Indenter::actuator_tip();
        let w1 = mech.load_half_width_m(&ind, 1.0);
        let w8 = mech.load_half_width_m(&ind, 8.0);
        assert!(w8 > w1, "{w8} !> {w1}");
        // thin trace: no depth spreading
        let thin = SensorMech::thin_trace();
        let t1 = thin.load_half_width_m(&ind, 1.0);
        let t8 = thin.load_half_width_m(&ind, 8.0);
        assert!((t8 - t1).abs() < 1e-12);
    }

    /// The damped fixed-point loop over a 60-step bisection of the stress
    /// law that [`SensorMech::load_half_width_m`] replaced, kept as its
    /// reference. It stops within 1e-9 m of the fixed point.
    fn reference_half_width_m(mech: &SensorMech, indenter: &Indenter, force_n: f64) -> f64 {
        let t = mech.beam.thickness_m;
        let base = base_half_width_m(mech, indenter);
        if force_n <= 0.0 || mech.spread_per_depth == 0.0 {
            return base.max(1e-5);
        }
        let b = mech.beam.width_m;
        let mut half = base.max(1e-5);
        for _ in 0..60 {
            let pressure = force_n / (2.0 * half * b);
            let eps = reference_invert_stress(&mech.beam.elastomer, pressure);
            let new_half = (base + mech.spread_per_depth * eps * t).max(1e-5);
            if (new_half - half).abs() < 1e-9 {
                half = new_half;
                break;
            }
            half = 0.5 * (half + new_half);
        }
        half
    }

    /// 60-step bisection of the stress law for the strain at stress `p`.
    fn reference_invert_stress(mat: &crate::material::Elastomer, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0_f64, 0.999_f64);
        if mat.stress_pa(hi) < p {
            return hi;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if mat.stress_pa(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The prototype, thin-trace, Ecoflex 00-50 and PDMS stacks.
    fn stacks() -> [SensorMech; 4] {
        let with = |elastomer| {
            let mut m = SensorMech::wiforce_prototype();
            m.beam.elastomer = elastomer;
            m
        };
        [
            SensorMech::wiforce_prototype(),
            SensorMech::thin_trace(),
            with(crate::material::Elastomer::ECOFLEX_0050),
            with(crate::material::Elastomer::PDMS),
        ]
    }

    const INDENTERS: [Indenter; 3] = [
        Indenter::Point,
        Indenter::Flat { width_m: 2e-3 },
        Indenter::Fingertip { width_m: 10e-3 },
    ];

    /// Footprint-plus-thickness spread, the width before any depth.
    fn base_half_width_m(mech: &SensorMech, indenter: &Indenter) -> f64 {
        indenter.half_width_m() + mech.spread_per_thickness * mech.beam.thickness_m * 0.5
    }

    /// `max(base + k·ε(F/(2hb)), 1e-5)` at strain `eps`: the right side of
    /// the fixed-point equation the half-width solves.
    fn spread_m(mech: &SensorMech, indenter: &Indenter, eps: f64) -> f64 {
        let k = mech.spread_per_depth * mech.beam.thickness_m;
        (base_half_width_m(mech, indenter) + k * eps).max(MIN_HALF_WIDTH_M)
    }

    /// Sweeps `samples` forces over 0–12 N on every stack and indenter:
    /// the closed-form width stays within 1e-9 m of the reference loop and
    /// satisfies its fixed-point equation to 1e-14 relative.
    fn check_against_reference(samples: usize) {
        for mech in stacks() {
            for ind in INDENTERS {
                for i in 0..=samples {
                    let f = 12.0 * i as f64 / samples as f64;
                    let new = mech.load_half_width_m(&ind, f);
                    let old = reference_half_width_m(&mech, &ind, f);
                    assert!(
                        (new - old).abs() <= 1e-9,
                        "{ind:?} at {f} N: {new} vs reference {old}"
                    );
                    let p = f / (2.0 * new * mech.beam.width_m);
                    let fixed = spread_m(&mech, &ind, mech.beam.elastomer.strain_at_stress(p).0);
                    assert!(
                        (new - fixed).abs() <= 1e-14 * new,
                        "{ind:?} at {f} N: {new} misses its fixed point {fixed}"
                    );
                }
            }
        }
    }

    #[test]
    fn load_half_width_matches_reference_loop() {
        check_against_reference(400);
    }

    /// Full-size sweep; run with `--include-ignored` in release.
    #[test]
    #[ignore]
    fn load_half_width_matches_reference_loop_full_size() {
        check_against_reference(20_000);
    }

    #[test]
    fn load_half_width_keeps_its_edge_values() {
        let mech = SensorMech::wiforce_prototype();
        let ind = Indenter::actuator_tip();
        let base = spread_m(&mech, &ind, 0.0);
        for f in [0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(mech.load_half_width_m(&ind, f), base, "force {f}");
        }
        let saturated = spread_m(&mech, &ind, MAX_STRAIN);
        assert_eq!(mech.load_half_width_m(&ind, f64::INFINITY), saturated);
        assert!((saturated - 4.446e-2).abs() < 1e-5, "saturated {saturated}");
    }

    /// Any f64: a handful of special values, else an arbitrary bit pattern.
    fn any_force(k: usize, bits: u64) -> f64 {
        let special = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -1.0,
            0.0,
        ];
        special.get(k).copied().unwrap_or(f64::from_bits(bits))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Every f64 force yields a finite width inside the bracket.
        #[test]
        fn load_half_width_stays_in_its_bracket(
            (k, bits, s, i) in (0usize..16, 0u64..u64::MAX, 0usize..4, 0usize..3),
        ) {
            let (mech, ind) = (stacks()[s], INDENTERS[i]);
            let (lo, hi) = (spread_m(&mech, &ind, 0.0), spread_m(&mech, &ind, MAX_STRAIN));
            let f = any_force(k, bits);
            let w = mech.load_half_width_m(&ind, f);
            prop_assert!(w.is_finite() && lo <= w && w <= hi, "{f} N → {w}");
        }

        /// The width never decreases as the force grows, beyond the few
        /// ulps of rounding in the converged iterate (neighbouring forces
        /// can land a last-place digit apart either way).
        #[test]
        fn load_half_width_is_monotone_in_force(
            (log_f, ratio, s, i) in (-6.0f64..5.0, 1.0f64..1.5, 0usize..4, 0usize..3),
        ) {
            let (mech, ind) = (stacks()[s], INDENTERS[i]);
            let f = 10f64.powf(log_f);
            let w = mech.load_half_width_m(&ind, f);
            for g in [f * ratio, f * (1.0 + 1e-9), f.next_up()] {
                let wg = mech.load_half_width_m(&ind, g);
                prop_assert!(
                    wg >= w * (1.0 - 4.0 * f64::EPSILON),
                    "{f} N → {w}, {g} N → {wg}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "too coarse")]
    fn rejects_tiny_grid() {
        ContactSolver::with_nodes(SensorMech::wiforce_prototype(), Indenter::Point, 4);
    }
}
