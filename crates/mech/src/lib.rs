#![warn(missing_docs)]

//! # wiforce-mech
//!
//! Beam-mechanics substrate for the WiForce reproduction.
//!
//! WiForce's transduction mechanism (paper §3.1) is mechanical: a soft
//! elastomer beam carrying the signal trace is pressed down onto the ground
//! trace. The contact patch — bounded by two *shorting points* — widens as
//! force increases, and does so asymmetrically when pressed off-centre. The
//! paper used a fabricated Ecoflex sensor, an actuated indenter and a load
//! cell; we replace those with:
//!
//! * [`material`] — elastomer and conductor material properties.
//! * [`beam`] — Euler–Bernoulli beam geometry/stiffness.
//! * [`indenter`] — indenter (press) shapes: point, flat punch, fingertip.
//! * [`contact`] — a discretized unilateral-contact solver: the beam
//!   deflects under the spread indenter load, contacts the rigid ground
//!   plane (penalty formulation), and the solver reports the contact patch.
//! * [`patch`] — the [`patch::ContactPatch`] result type (shorting points).
//! * [`analytic`] — a fast closed-form phenomenological model matching the
//!   paper's described behaviour, cross-validated against the full solver
//!   and used for large Monte-Carlo sweeps.
//! * [`profile`] — time-series force profiles (actuator ramps, human
//!   fingertip staircases with tremor) used as workloads.
//! * [`hysteresis`] — viscoelastic play + creep wrapper for time-series
//!   presses (loading/unloading asymmetry).
//!
//! The two models implement the common [`ForceTransducer`] trait consumed by
//! the RF layer: `(force, location) → contact patch`.

pub mod analytic;
pub mod beam;
pub mod contact;
pub mod hysteresis;
pub mod indenter;
pub mod material;
pub mod patch;
pub mod profile;

pub use analytic::AnalyticContactModel;
pub use beam::BeamGeometry;
pub use contact::{ContactSolver, SensorMech};
pub use indenter::Indenter;
pub use material::Elastomer;
pub use patch::ContactPatch;

/// Maps an applied press `(force_n, location_m)` to the resulting contact
/// patch on the sensor, or `None` when the press is too light to close the
/// gap.
///
/// Implemented by both the full finite-difference contact solver
/// ([`ContactSolver`]) and the fast phenomenological model
/// ([`AnalyticContactModel`]).
pub trait ForceTransducer {
    /// Sensor length in metres (the mechanical/electrical continuum).
    fn length_m(&self) -> f64;

    /// Computes the contact patch for a press of `force_n` newtons at
    /// `location_m` metres from port 1's end. Returns `None` below the
    /// touch threshold.
    fn contact_patch(&self, force_n: f64, location_m: f64) -> Option<ContactPatch>;

    /// Minimum force (N) that produces any contact when pressing at the
    /// given location. Default implementation bisects `contact_patch`.
    fn touch_threshold_n(&self, location_m: f64) -> f64 {
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        // grow hi until contact or give up at 100 N
        while self.contact_patch(hi, location_m).is_none() && hi < 100.0 {
            hi *= 2.0;
        }
        if hi >= 100.0 {
            return f64::INFINITY;
        }
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if self.contact_patch(mid, location_m).is_some() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}
