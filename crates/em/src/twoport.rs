//! Two-port network algebra: ABCD (chain) matrices and S-parameters.
//!
//! The sensor, switches and splitter compose as cascaded two-ports; the VNA
//! simulator reports S-parameters. Standard microwave network theory
//! (Pozar/Steer conventions), reference impedance 50 Ω unless stated.

use wiforce_dsp::Complex;

/// An ABCD (chain) matrix `[A B; C D]` with complex entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Abcd {
    /// A entry (dimensionless).
    pub a: Complex,
    /// B entry (Ω).
    pub b: Complex,
    /// C entry (S).
    pub c: Complex,
    /// D entry (dimensionless).
    pub d: Complex,
}

impl Abcd {
    /// Identity (a zero-length thru).
    pub fn identity() -> Self {
        Abcd {
            a: Complex::ONE,
            b: Complex::ZERO,
            c: Complex::ZERO,
            d: Complex::ONE,
        }
    }

    /// A series impedance `Z`.
    pub fn series(z: Complex) -> Self {
        Abcd {
            a: Complex::ONE,
            b: z,
            c: Complex::ZERO,
            d: Complex::ONE,
        }
    }

    /// A shunt admittance `Y`.
    pub fn shunt(y: Complex) -> Self {
        Abcd {
            a: Complex::ONE,
            b: Complex::ZERO,
            c: y,
            d: Complex::ONE,
        }
    }

    /// A transmission-line segment with characteristic impedance `z0`,
    /// propagation constant `gamma` (1/m) and length `len_m`.
    pub fn line(z0: Complex, gamma: Complex, len_m: f64) -> Self {
        let gl = gamma * len_m;
        // cosh/sinh of complex argument via exponentials
        let ep = gl.exp();
        let em = (-gl).exp();
        let cosh = (ep + em).scale(0.5);
        let sinh = (ep - em).scale(0.5);
        Abcd {
            a: cosh,
            b: z0 * sinh,
            c: sinh / z0,
            d: cosh,
        }
    }

    /// An ideal transformer with turns ratio `n` (port1:port2 = n:1).
    pub fn transformer(n: f64) -> Self {
        Abcd {
            a: Complex::from_re(n),
            b: Complex::ZERO,
            c: Complex::ZERO,
            d: Complex::from_re(1.0 / n),
        }
    }

    /// Cascade: `self` followed by `next` (matrix product).
    pub fn cascade(&self, next: &Abcd) -> Abcd {
        Abcd {
            a: self.a * next.a + self.b * next.c,
            b: self.a * next.b + self.b * next.d,
            c: self.c * next.a + self.d * next.c,
            d: self.c * next.b + self.d * next.d,
        }
    }

    /// Determinant (1 for reciprocal networks).
    pub fn det(&self) -> Complex {
        self.a * self.d - self.b * self.c
    }

    /// Converts to S-parameters in a real reference impedance `z_ref`.
    pub fn to_sparams(&self, z_ref: f64) -> SParams {
        let z0 = Complex::from_re(z_ref);
        let denom = self.a + self.b / z0 + self.c * z0 + self.d;
        SParams {
            s11: (self.a + self.b / z0 - self.c * z0 - self.d) / denom,
            s12: self.det().scale(2.0) / denom,
            s21: Complex::from_re(2.0) / denom,
            s22: (-self.a + self.b / z0 - self.c * z0 + self.d) / denom,
        }
    }

    /// Input impedance at port 1 when port 2 is terminated by `z_load`.
    pub fn input_impedance(&self, z_load: Complex) -> Complex {
        (self.a * z_load + self.b) / (self.c * z_load + self.d)
    }

    /// Reflection coefficient at port 1 (reference `z_ref`) when port 2 is
    /// terminated by `z_load`.
    pub fn input_reflection(&self, z_load: Complex, z_ref: f64) -> Complex {
        let zin = self.input_impedance(z_load);
        let zr = Complex::from_re(z_ref);
        (zin - zr) / (zin + zr)
    }
}

/// Scattering parameters of a two-port at one frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SParams {
    /// Port-1 reflection.
    pub s11: Complex,
    /// Reverse transmission.
    pub s12: Complex,
    /// Forward transmission.
    pub s21: Complex,
    /// Port-2 reflection.
    pub s22: Complex,
}

impl SParams {
    /// Insertion loss, dB (positive number = loss).
    pub fn insertion_loss_db(&self) -> f64 {
        -20.0 * self.s21.abs().log10()
    }

    /// |S11| in dB (negative for matched networks, as plotted in Fig. 10).
    pub fn s11_db(&self) -> f64 {
        20.0 * self.s11.abs().log10()
    }

    /// |S21| in dB.
    pub fn s21_db(&self) -> f64 {
        20.0 * self.s21.abs().log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiforce_dsp::TAU;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn identity_is_perfect_thru() {
        let s = Abcd::identity().to_sparams(50.0);
        assert!(close(s.s11, Complex::ZERO, 1e-12));
        assert!(close(s.s21, Complex::ONE, 1e-12));
        assert!(s.insertion_loss_db().abs() < 1e-9);
    }

    #[test]
    fn cascade_with_identity_is_noop() {
        let line = Abcd::line(Complex::from_re(75.0), Complex::new(0.1, 30.0), 0.1);
        let c = line.cascade(&Abcd::identity());
        assert!(close(c.a, line.a, 1e-12) && close(c.d, line.d, 1e-12));
    }

    #[test]
    fn series_resistor_splits_power() {
        // 50 Ω series resistor in a 50 Ω system: S21 = 2·50/(2·50+50) = 2/3
        let s = Abcd::series(Complex::from_re(50.0)).to_sparams(50.0);
        assert!((s.s21.re - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.s11.re - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn matched_line_has_no_reflection() {
        let z0 = Complex::from_re(50.0);
        let gamma = Complex::new(0.0, TAU * 1e9 / wiforce_dsp::C0);
        let s = Abcd::line(z0, gamma, 0.123).to_sparams(50.0);
        assert!(s.s11.abs() < 1e-12, "{:?}", s.s11);
        assert!((s.s21.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn line_phase_matches_beta_length() {
        let z0 = Complex::from_re(50.0);
        let beta = TAU * 1e9 / wiforce_dsp::C0;
        let len = 0.05;
        let s = Abcd::line(z0, Complex::new(0.0, beta), len).to_sparams(50.0);
        // S21 = e^{-jβl}
        assert!(
            (s.s21.arg() + beta * len).abs() < 1e-9
                || (s.s21.arg() + beta * len - TAU).abs() < 1e-9
        );
    }

    #[test]
    fn quarter_wave_transformer_inverts_impedance() {
        // classic: Zin = Z0²/ZL for a λ/4 line
        let z0 = 70.7;
        let f = 1e9;
        let lambda = wiforce_dsp::C0 / f;
        let line = Abcd::line(
            Complex::from_re(z0),
            Complex::new(0.0, TAU / lambda),
            lambda / 4.0,
        );
        let zin = line.input_impedance(Complex::from_re(100.0));
        assert!((zin.re - z0 * z0 / 100.0).abs() < 1e-6, "{zin:?}");
        assert!(zin.im.abs() < 1e-6);
    }

    #[test]
    fn shorted_line_reflection_phase() {
        // shorted lossless line of length l: Γ_in = -e^{-2jβl}
        let beta = TAU * 0.9e9 / wiforce_dsp::C0;
        let len = 0.030;
        let line = Abcd::line(Complex::from_re(50.0), Complex::new(0.0, beta), len);
        let g = line.input_reflection(Complex::ZERO, 50.0);
        assert!((g.abs() - 1.0).abs() < 1e-9);
        let expect = -Complex::cis(-2.0 * beta * len);
        assert!(close(g, expect, 1e-9), "{g:?} vs {expect:?}");
    }

    #[test]
    fn reciprocal_network_det_is_one() {
        let net = Abcd::series(Complex::new(10.0, 5.0))
            .cascade(&Abcd::shunt(Complex::new(0.01, -0.02)))
            .cascade(&Abcd::line(
                Complex::from_re(60.0),
                Complex::new(0.05, 20.0),
                0.2,
            ));
        assert!(close(net.det(), Complex::ONE, 1e-9));
        // and S12 == S21 for reciprocal networks
        let s = net.to_sparams(50.0);
        assert!(close(s.s12, s.s21, 1e-9));
    }

    #[test]
    fn transformer_matches_impedance() {
        // 2:1 transformer makes 12.5 Ω look like 50 Ω
        let t = Abcd::transformer(2.0);
        let zin = t.input_impedance(Complex::from_re(12.5));
        assert!((zin.re - 50.0).abs() < 1e-9);
    }

    #[test]
    fn lossy_line_attenuates() {
        let alpha = 2.0; // Np/m
        let s =
            Abcd::line(Complex::from_re(50.0), Complex::new(alpha, 100.0), 0.1).to_sparams(50.0);
        let il = s.insertion_loss_db();
        // 0.2 Np → 1.737 dB
        assert!((il - 0.2 * 8.686).abs() < 1e-3, "{il}");
    }
}
