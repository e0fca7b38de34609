//! Material properties for the sensor's mechanical stack.
//!
//! The paper fabricates the sensor from Ecoflex soft silicone ("with bending
//! properties which maximize the phase changes transduced by contact
//! forces", §1). Nominal elastic moduli here follow published
//! characterizations of Smooth-On Ecoflex grades and PDMS; exact values only
//! set the force scale of the simulation, not the qualitative transduction.

/// A hyperelastic polymer approximated as linear-elastic for the small-ish
/// strains of the contact solver, with a strain-stiffening correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elastomer {
    /// Small-strain Young's modulus, Pa.
    pub young_modulus_pa: f64,
    /// Poisson ratio (≈0.5 for nearly incompressible silicones).
    pub poisson_ratio: f64,
    /// Compressive strain at which the tangent stiffness has doubled;
    /// models densification of the soft layer as it bottoms out.
    pub stiffening_strain: f64,
}

impl Elastomer {
    /// Smooth-On Ecoflex 00-30 (the paper's sensor beam material).
    pub const ECOFLEX_0030: Elastomer = Elastomer {
        young_modulus_pa: 125e3,
        poisson_ratio: 0.49,
        stiffening_strain: 0.45,
    };

    /// Smooth-On Ecoflex 00-50 (stiffer variant).
    pub const ECOFLEX_0050: Elastomer = Elastomer {
        young_modulus_pa: 250e3,
        poisson_ratio: 0.49,
        stiffening_strain: 0.45,
    };

    /// Sylgard-184 PDMS (much stiffer; a poor choice for the sensor, kept
    /// for ablations).
    pub const PDMS: Elastomer = Elastomer {
        young_modulus_pa: 1.8e6,
        poisson_ratio: 0.49,
        stiffening_strain: 0.5,
    };

    /// Secant compressive stress (Pa) at engineering strain `eps ∈ [0, 1)`,
    /// with smooth densification stiffening:
    /// `σ(ε) = E·ε / (1 − (ε/ε_s)²)` clipped near full densification.
    pub fn stress_pa(&self, eps: f64) -> f64 {
        let eps = eps.clamp(0.0, MAX_STRAIN);
        let ratio = (eps / self.stiffening()).min(MAX_RATIO);
        self.young_modulus_pa * eps / (1.0 - ratio * ratio)
    }

    /// Tangent stiffness dσ/dε at strain `eps` (Pa): `E(1 + r²)/(1 − r²)²`
    /// with `r = ε/ε_s` below the knee where `r` reaches its cap, and the
    /// constant `E/(1 − 0.999²)` of the linear branch past it. At the
    /// clamps (ε ≤ 0, ε ≥ 0.999) it is the one-sided slope from inside.
    pub fn tangent_modulus_pa(&self, eps: f64) -> f64 {
        let e = self.young_modulus_pa;
        let ratio = eps.clamp(0.0, MAX_STRAIN) / self.stiffening();
        if ratio < MAX_RATIO {
            let r2 = ratio * ratio;
            e * (1.0 + r2) / ((1.0 - r2) * (1.0 - r2))
        } else {
            e / (1.0 - MAX_RATIO * MAX_RATIO)
        }
    }

    /// Exact inverse of [`Self::stress_pa`]: the strain at which the stress
    /// reaches `p` (Pa), with its slope dε/dp. Piecewise:
    ///
    /// * below the knee `ε_k = min(0.999·ε_s, 0.999)`, the stable root of
    ///   `(p/ε_s²)·ε² + E·ε − p = 0`, `ε = 2p / (E + √(E² + 4p²/ε_s²))`;
    /// * from the knee to 0.999, the linear branch `ε = p·(1 − 0.999²)/E`;
    /// * at or above `σ(0.999)`, saturated at 0.999 with zero slope;
    /// * `p ≤ 0` or NaN, zero strain and zero slope.
    pub(crate) fn strain_at_stress(&self, p: f64) -> (f64, f64) {
        if p.is_nan() || p <= 0.0 {
            return (0.0, 0.0);
        }
        if p >= self.stress_pa(MAX_STRAIN) {
            return (MAX_STRAIN, 0.0);
        }
        let (e, es) = (self.young_modulus_pa, self.stiffening());
        let knee = (MAX_RATIO * es).min(MAX_STRAIN);
        if p < self.stress_pa(knee) {
            let q = 2.0 * p / es;
            let eps = 2.0 * p / (e + (e * e + q * q).sqrt());
            (eps, 1.0 / self.tangent_modulus_pa(eps))
        } else {
            let compliance = (1.0 - MAX_RATIO * MAX_RATIO) / e;
            (p * compliance, compliance)
        }
    }

    /// Stiffening strain floored away from zero, as the stress law uses it.
    fn stiffening(&self) -> f64 {
        self.stiffening_strain.max(1e-6)
    }
}

/// Largest strain of the stress law; the stress saturates beyond it.
pub(crate) const MAX_STRAIN: f64 = 0.999;

/// Cap on `ε/ε_s`: past it the densification factor freezes and the law
/// turns linear.
const MAX_RATIO: f64 = 0.999;

/// A conductor used for the traces. Only flexural stiffness matters to the
/// mechanics; conductivity matters to the RF loss model in `wiforce-em`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conductor {
    /// Young's modulus, Pa.
    pub young_modulus_pa: f64,
    /// Electrical conductivity, S/m.
    pub conductivity_s_per_m: f64,
}

impl Conductor {
    /// Annealed copper.
    pub const COPPER: Conductor = Conductor {
        young_modulus_pa: 110e9,
        conductivity_s_per_m: 5.8e7,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ecoflex_much_softer_than_pdms() {
        let (eco, pdms) = (Elastomer::ECOFLEX_0030, Elastomer::PDMS);
        assert!(eco.young_modulus_pa < pdms.young_modulus_pa / 10.0);
    }

    #[test]
    fn stress_linear_at_small_strain() {
        let m = Elastomer::ECOFLEX_0030;
        let eps = 1e-4;
        let sigma = m.stress_pa(eps);
        assert!((sigma / (m.young_modulus_pa * eps) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stress_stiffens_at_large_strain() {
        let m = Elastomer::ECOFLEX_0030;
        // secant modulus at 40% strain should exceed small-strain modulus
        let secant = m.stress_pa(0.40) / 0.40;
        assert!(secant > 1.5 * m.young_modulus_pa);
    }

    #[test]
    fn stress_monotone_in_strain() {
        let m = Elastomer::ECOFLEX_0050;
        let mut prev = -1.0;
        for k in 0..100 {
            let s = m.stress_pa(k as f64 * 0.004);
            assert!(s > prev);
            prev = s;
        }
    }

    #[test]
    fn tangent_exceeds_secant_when_stiffening() {
        let m = Elastomer::ECOFLEX_0030;
        let eps = 0.3;
        assert!(m.tangent_modulus_pa(eps) > m.stress_pa(eps) / eps);
    }

    #[test]
    fn stress_clamps_at_extremes() {
        let m = Elastomer::ECOFLEX_0030;
        assert_eq!(m.stress_pa(0.0), 0.0);
        assert!(m.stress_pa(2.0).is_finite()); // clamped, not exploding
        assert!(m.stress_pa(-1.0) == 0.0);
    }

    const MATERIALS: [Elastomer; 3] = [
        Elastomer::ECOFLEX_0030,
        Elastomer::ECOFLEX_0050,
        Elastomer::PDMS,
    ];

    #[test]
    fn tangent_is_the_closed_form_slope() {
        for m in MATERIALS {
            assert_eq!(m.tangent_modulus_pa(0.0), m.young_modulus_pa);
            // a fine central difference, clear of the clamp at 0 and of
            // the knee at 0.999·ε_s
            let d = 1e-7;
            for k in 1..=80 {
                let eps = 0.9 * m.stiffening_strain * k as f64 / 80.0;
                let fd = (m.stress_pa(eps + d) - m.stress_pa(eps - d)) / (2.0 * d);
                let exact = m.tangent_modulus_pa(eps);
                assert!(
                    (fd / exact - 1.0).abs() < 1e-6,
                    "ε {eps}: fd {fd} vs closed form {exact}"
                );
            }
            // the linear branch past the knee, up to the 0.999 clamp
            let linear = m.young_modulus_pa / (1.0 - MAX_RATIO * MAX_RATIO);
            assert_eq!(m.tangent_modulus_pa(0.999 * m.stiffening_strain), linear);
            assert_eq!(m.tangent_modulus_pa(MAX_STRAIN), linear);
        }
    }

    #[test]
    fn inverse_handles_the_edges_of_its_domain() {
        let m = Elastomer::ECOFLEX_0030;
        for p in [0.0, -1.0, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(m.strain_at_stress(p), (0.0, 0.0), "p {p}");
        }
        for p in [m.stress_pa(MAX_STRAIN), 1e12, f64::MAX, f64::INFINITY] {
            assert_eq!(m.strain_at_stress(p), (MAX_STRAIN, 0.0), "p {p}");
        }
        // the slope is the reciprocal tangent on both live branches
        for eps in [1e-3, 0.2, 0.449, 0.6] {
            let (inv, slope) = m.strain_at_stress(m.stress_pa(eps));
            assert!((slope * m.tangent_modulus_pa(inv) - 1.0).abs() < 1e-12);
        }
    }

    /// Strain → stress → strain through [`Elastomer::strain_at_stress`]
    /// returns the strain to 1e-12 relative anywhere below saturation.
    fn assert_round_trip(m: &Elastomer, eps: f64) {
        if eps >= MAX_STRAIN {
            return;
        }
        let (back, _) = m.strain_at_stress(m.stress_pa(eps));
        assert!(
            (back - eps).abs() <= 1e-12 * eps,
            "{m:?}: ε {eps} came back as {back}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The three material constants, at strains from 1e-9 to the clamp.
        #[test]
        fn inverse_round_trips_the_material_constants(
            (k, log_eps) in (0usize..3, -9.0f64..0.0),
        ) {
            let m = MATERIALS[k];
            assert_round_trip(&m, 10f64.powf(log_eps));
        }

        /// Arbitrary moduli and stiffening strains, including a knee past
        /// the 0.999 clamp (ε_s ≥ 1.001) and ε_s at and below its 1e-6
        /// floor.
        #[test]
        fn inverse_round_trips_any_stress_law(
            (log_e, es, log_eps) in (0usize..4, 0.0f64..1.0, -9.0f64..0.0, 1.0f64..10.0)
                .prop_map(|(regime, u, log_eps, log_e)| {
                    let es = match regime {
                        0 => 1e-3 + u,             // knee inside the range
                        1 => 1.001 + 4.0 * u,      // knee past the clamp
                        2 => 1e-6 * (0.5 + u),     // at the 1e-6 floor
                        _ => 1e-6 + 1e-4 * u,      // just above it
                    };
                    (log_e, es, log_eps)
                }),
        ) {
            let m = Elastomer {
                young_modulus_pa: 10f64.powf(log_e),
                poisson_ratio: 0.49,
                stiffening_strain: es,
            };
            assert_round_trip(&m, 10f64.powf(log_eps));
        }
    }
}
