//! The WiForce sensor as an RF network.
//!
//! Electrically the sensor is a microstrip line that a press shorts at the
//! two contact-patch edges (paper Figs. 1–2). What each port "sees" is:
//!
//! * **no touch** — the full line, terminated by whatever sits at the far
//!   end (the other port's RF switch: reflective-open when off);
//! * **touch** — a shorted stub whose length is the distance to the nearest
//!   shorting point. Signal past the short is irrelevant: the short
//!   reflects (nearly) everything.
//!
//! This module computes per-port complex reflection coefficients and the
//! rest-state two-port S-parameters (paper Fig. 10). Contact positions are
//! plain distances (metres), so this crate stays independent of the
//! mechanics crate; `wiforce-sensor` bridges `ContactPatch` into these
//! calls.

use crate::microstrip::Microstrip;
use crate::twoport::{Abcd, SParams};
use crate::Z_REF;
use wiforce_dsp::Complex;

/// Far-end termination seen along the line when there is no contact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Reflective open (Γ = +1): the paper's off-state reflective switch.
    Open,
    /// Short circuit (Γ = −1).
    Short,
    /// Matched load (Γ = 0): an absorptive switch — the design the paper
    /// rejects in §4.3 because the no-touch reference phase disappears.
    Matched,
    /// Arbitrary complex load impedance, Ω.
    Load(Complex),
}

impl Termination {
    /// Load impedance of this termination, Ω.
    pub fn impedance(&self) -> Complex {
        match *self {
            Termination::Open => Complex::from_re(1e9), // practically open
            Termination::Short => Complex::ZERO,
            Termination::Matched => Complex::from_re(Z_REF),
            Termination::Load(z) => z,
        }
    }
}

/// The line's constants at one frequency ([`SensorLine::at`]): the
/// propagation constant and the characteristic impedance. Evaluating them
/// takes two `ln` and several square roots, and neither depends on the
/// contact, so a fixed subcarrier grid evaluates them once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineAt {
    /// Propagation constant `γ = α + jβ`, 1/m.
    pub gamma: Complex,
    /// Characteristic impedance, Ω.
    pub z0: Complex,
}

/// The sensor line: a microstrip of fixed length with optional shorts.
#[derive(Debug, Clone, Copy)]
pub struct SensorLine {
    /// Line cross-section model.
    pub microstrip: Microstrip,
    /// Total line length, m (paper: 80 mm).
    pub length_m: f64,
    /// Residual resistance of a pressed contact, Ω (imperfect short).
    pub contact_resistance_ohm: f64,
}

impl SensorLine {
    /// The paper's 80 mm prototype line.
    pub fn wiforce_prototype() -> Self {
        SensorLine {
            microstrip: Microstrip::wiforce_sensor(),
            length_m: 0.080,
            contact_resistance_ohm: 0.5,
        }
    }

    /// Characteristic impedance as a complex number.
    fn z0(&self) -> Complex {
        Complex::from_re(self.microstrip.impedance_ohm())
    }

    /// The line's frequency-dependent constants at `f_hz`: everything a
    /// port reflection at that frequency shares, whatever the contact.
    pub fn at(&self, f_hz: f64) -> LineAt {
        LineAt {
            gamma: self.microstrip.gamma(f_hz),
            z0: self.z0(),
        }
    }

    /// Reflection coefficient looking into the line from one port, in the
    /// 50 Ω system, when the nearest short (if any) is `short_dist_m` away
    /// and the far end (at `length_m`) is terminated by `far`.
    ///
    /// `short_dist_m = None` means no contact: the wave traverses the full
    /// line and reflects off the far termination.
    pub fn port_reflection(
        &self,
        f_hz: f64,
        short_dist_m: Option<f64>,
        far: Termination,
    ) -> Complex {
        self.port_reflection_at(&self.at(f_hz), short_dist_m, far)
    }

    /// [`Self::port_reflection`] from constants evaluated once by
    /// [`Self::at`]; bit-identical to it. A shorted stub ignores `far`.
    pub fn port_reflection_at(
        &self,
        at: &LineAt,
        short_dist_m: Option<f64>,
        far: Termination,
    ) -> Complex {
        match short_dist_m {
            Some(d) => {
                let d = d.clamp(0.0, self.length_m);
                let stub = Abcd::line(at.z0, at.gamma, d);
                stub.input_reflection(Complex::from_re(self.contact_resistance_ohm), Z_REF)
            }
            None => {
                let line = Abcd::line(at.z0, at.gamma, self.length_m);
                line.input_reflection(far.impedance(), Z_REF)
            }
        }
    }

    /// Phase (rad) of the port reflection; convenience for the transduction
    /// plots.
    pub fn port_phase(&self, f_hz: f64, short_dist_m: Option<f64>, far: Termination) -> f64 {
        self.port_reflection(f_hz, short_dist_m, far).arg()
    }

    /// Rest-state (no touch) two-port S-parameters in 50 Ω — the paper's
    /// Fig. 10 VNA characterization.
    pub fn rest_sparams(&self, f_hz: f64) -> SParams {
        self.rest_sparams_at(&self.at(f_hz))
    }

    /// [`Self::rest_sparams`] from constants evaluated once by
    /// [`Self::at`]; bit-identical to it.
    pub fn rest_sparams_at(&self, at: &LineAt) -> SParams {
        Abcd::line(at.z0, at.gamma, self.length_m).to_sparams(Z_REF)
    }

    /// The differential phase the reader ultimately measures at one port:
    /// `∠Γ(no touch) − ∠Γ(short at d)` wrapped to (−π, π]. This is
    /// `φ_full − φ_short` of paper §3.2.
    pub fn differential_phase(&self, f_hz: f64, short_dist_m: f64, far: Termination) -> f64 {
        let no_touch = self.port_reflection(f_hz, None, far);
        let touched = self.port_reflection(f_hz, Some(short_dist_m), far);
        (no_touch * touched.conj()).arg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiforce_dsp::phase::wrap_to_pi;

    fn line() -> SensorLine {
        SensorLine::wiforce_prototype()
    }

    #[test]
    fn short_at_port_reflects_minus_one() {
        let mut l = line();
        l.contact_resistance_ohm = 0.0;
        let g = l.port_reflection(0.9e9, Some(0.0), Termination::Open);
        assert!((g - Complex::from_re(-1.0)).abs() < 1e-9, "{g:?}");
    }

    #[test]
    fn shorted_stub_phase_tracks_distance() {
        // ideal lossless theory: Γ = -e^{-2jβd} in the line's own Z0;
        // in the 50 Ω system there is a small extra rotation from the
        // Z0 ≈ 56 Ω mismatch, so compare against 2βd within tolerance
        let l = line();
        let f = 0.9e9;
        let beta = l.microstrip.beta(f);
        for d in [0.01, 0.03, 0.05, 0.08] {
            let g = l.port_reflection(f, Some(d), Termination::Open);
            let expect = wrap_to_pi(std::f64::consts::PI - 2.0 * beta * d);
            let got = g.arg();
            let err = wrap_to_pi(got - expect).abs();
            assert!(err < 0.25, "d={d}: got {got}, expect {expect}");
            assert!(g.abs() > 0.9, "short should reflect nearly all power");
        }
    }

    #[test]
    fn differential_phase_zero_for_short_at_far_end_open() {
        // a short at the far end vs an open at the far end differ by π
        let l = line();
        let dphi = l.differential_phase(0.9e9, l.length_m, Termination::Open);
        assert!(
            (wrap_to_pi(dphi - std::f64::consts::PI)).abs() < 0.3,
            "{dphi}"
        );
    }

    #[test]
    fn differential_phase_monotone_as_short_approaches() {
        // as the shorting point moves toward the port (d decreasing), the
        // stub phase -2βd increases; check strict monotonicity over a
        // wrap-free range
        let l = line();
        let f = 0.9e9;
        let mut prev = None;
        for d in [0.060, 0.050, 0.040, 0.030, 0.020] {
            let phi = l.differential_phase(f, d, Termination::Open);
            if let Some(p) = prev {
                assert!(phi < p, "phase should decrease: {phi} vs {p}");
            }
            prev = Some(phi);
        }
    }

    #[test]
    fn phase_sensitivity_scales_with_frequency() {
        // moving the short by Δd changes phase by 2βΔd — about 2.67× more
        // at 2.4 GHz than at 900 MHz
        let l = line();
        let dd = 0.005;
        let d900 = wrap_to_pi(
            l.port_phase(0.9e9, Some(0.030), Termination::Open)
                - l.port_phase(0.9e9, Some(0.030 + dd), Termination::Open),
        )
        .abs();
        let d24 = wrap_to_pi(
            l.port_phase(2.4e9, Some(0.030), Termination::Open)
                - l.port_phase(2.4e9, Some(0.030 + dd), Termination::Open),
        )
        .abs();
        let ratio = d24 / d900;
        // ideal TEM ratio is 2.4/0.9 ≈ 2.67; the Z0 ≈ 56 Ω mismatch adds
        // standing-wave ripple that perturbs the local slope
        assert!((1.7..3.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rest_state_matches_paper_fig10() {
        // S11 below −10 dB across 0–3 GHz and |S21| ≈ 0 dB
        let l = line();
        let mut f = 0.05e9;
        while f <= 3.0e9 {
            let s = l.rest_sparams(f);
            assert!(
                s.s11_db() < -10.0,
                "S11 {} dB at {} GHz",
                s.s11_db(),
                f / 1e9
            );
            assert!(
                s.s21_db() > -1.0,
                "S21 {} dB at {} GHz",
                s.s21_db(),
                f / 1e9
            );
            f += 0.05e9;
        }
    }

    #[test]
    fn rest_s21_phase_is_linear() {
        // linear S12 phase (Fig. 10): unwrapped phase vs frequency should
        // fit a straight line well
        let l = line();
        let freqs: Vec<f64> = (1..=60).map(|k| k as f64 * 0.05e9).collect();
        let phases: Vec<f64> = freqs.iter().map(|&f| l.rest_sparams(f).s21.arg()).collect();
        let un = wiforce_dsp::phase::unwrap(&phases);
        let fit = wiforce_dsp::polyfit::Polynomial::fit(&freqs, &un, 1).unwrap();
        let rms = fit.rms_residual(&freqs, &un);
        assert!(rms < 0.05, "nonlinear phase, rms {rms} rad");
        // slope = -2π·L/c
        let slope = fit.coeffs()[1];
        let expect = -wiforce_dsp::TAU * l.length_m / wiforce_dsp::C0;
        assert!((slope / expect - 1.0).abs() < 0.05, "{slope} vs {expect}");
    }

    #[test]
    fn matched_far_end_kills_no_touch_reflection() {
        // with an absorptive (matched) switch the no-touch reference
        // reflection nearly vanishes — the paper's argument for
        // *reflective* switches in §4.3
        let l = line();
        let open = l.port_reflection(0.9e9, None, Termination::Open);
        let matched = l.port_reflection(0.9e9, None, Termination::Matched);
        assert!(open.abs() > 0.8, "reflective open gives strong reference");
        assert!(matched.abs() < 0.2, "matched absorbs: {}", matched.abs());
    }

    #[test]
    fn contact_resistance_weakens_short() {
        let mut l = line();
        l.contact_resistance_ohm = 10.0;
        let weak = l
            .port_reflection(0.9e9, Some(0.02), Termination::Open)
            .abs();
        l.contact_resistance_ohm = 0.0;
        let strong = l
            .port_reflection(0.9e9, Some(0.02), Termination::Open)
            .abs();
        assert!(weak < strong);
    }

    #[test]
    fn distance_clamped_to_line() {
        let l = line();
        let g1 = l.port_reflection(0.9e9, Some(10.0), Termination::Open);
        let g2 = l.port_reflection(0.9e9, Some(l.length_m), Termination::Open);
        assert!((g1 - g2).abs() < 1e-12);
    }
}
