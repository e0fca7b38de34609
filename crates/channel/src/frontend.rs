//! Receiver front-end: noise, phase jitter, AGC and ADC dynamic range.
//!
//! Two front-end realities drive the paper's results:
//!
//! 1. **Phase stability.** The reported ~0.5° wireless phase accuracy is
//!    not thermal-noise-limited (the link budget is far too good for that)
//!    — it is set by LO phase noise, platform micro-motion and residual
//!    sampling jitter. We model these as a per-snapshot common-mode phase
//!    jitter plus AWGN on each channel estimate.
//! 2. **Dynamic range.** Paper §5.2: "The dynamic range of the USRP SDR we
//!    use was around 60 dB, because of which we can't decode the weak
//!    backscattered signal under the presence of the much stronger direct
//!    path signal" — hence the metal plate. We model AGC that scales the
//!    strongest signal to full scale and an ADC whose quantization floor
//!    sits `6.02·enob` dB below it.

use rand::Rng;
use wiforce_dsp::rng::{complex_gaussian, standard_normal};
use wiforce_dsp::Complex;

/// Receiver front-end model applied to each channel-estimate snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Frontend {
    /// Effective number of ADC bits (USRP N210 usable ≈ 10 ⇒ ~60 dB).
    pub adc_enob_bits: u32,
    /// Receiver noise floor: AWGN standard deviation per received sample,
    /// relative to unit TX amplitude (absolute, i.e. independent of the
    /// channel — thermal noise does not care how strong the direct path
    /// is).
    pub noise_floor: f64,
    /// Common-mode phase jitter per snapshot, radians RMS.
    pub phase_jitter_rad: f64,
}

impl Frontend {
    /// A USRP-N210-like front end tuned so the end-to-end pipeline sees
    /// ≈0.5° phase noise after the paper's averaging — the paper's
    /// reported accuracy floor.
    pub fn usrp_n210() -> Self {
        // TX and RX share one device's LO, so close-in phase noise is
        // common-mode and cancels (paper §4.4); the residual per-snapshot
        // jitter models platform micro-motion and sampling jitter
        Frontend {
            adc_enob_bits: 10,
            noise_floor: 6e-6,
            phase_jitter_rad: 0.2f64.to_radians(),
        }
    }

    /// An ideal front end (no noise, no quantization) for debugging and
    /// algorithm-only ablations.
    pub fn ideal() -> Self {
        Frontend {
            adc_enob_bits: 0,
            noise_floor: 0.0,
            phase_jitter_rad: 0.0,
        }
    }

    /// ADC dynamic range, dB.
    pub fn dynamic_range_db(&self) -> f64 {
        6.02 * self.adc_enob_bits as f64
    }

    /// Applies jitter and quantization only (no additive noise) — used by
    /// the pipeline, which injects thermal noise at the waveform level
    /// inside the channel sounder instead.
    pub fn process<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        estimates: &mut [Complex],
        full_scale: f64,
    ) {
        let no_noise = Frontend {
            noise_floor: 0.0,
            ..*self
        };
        no_noise.capture(rng, estimates, full_scale, 0.0);
    }

    /// Processes one snapshot of per-subcarrier channel estimates.
    ///
    /// `full_scale` is the AGC reference amplitude (typically the strongest
    /// static-path magnitude across subcarriers); `noise_scale` multiplies
    /// the noise floor (1.0 for plain captures).
    pub fn capture<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        estimates: &mut [Complex],
        full_scale: f64,
        noise_scale: f64,
    ) {
        // common-mode LO/platform phase wobble for this snapshot
        let jitter = if self.phase_jitter_rad > 0.0 {
            Complex::cis(self.phase_jitter_rad * standard_normal(rng))
        } else {
            Complex::ONE
        };
        let sigma2 = (self.noise_floor * noise_scale).powi(2);
        if sigma2 == 0.0 {
            // noiseless path (how the pipeline calls this, via `process`):
            // bulk rotate then one dispatched quantization pass — the same
            // arithmetic as the general loop below, element for element
            for h in estimates.iter_mut() {
                *h *= jitter;
            }
            if self.adc_enob_bits > 0 && full_scale > 0.0 {
                let levels = (1u64 << self.adc_enob_bits.min(62)) as f64;
                let step = 2.0 * full_scale / levels;
                wiforce_dsp::kernels::quantize_complex(estimates, full_scale, step);
            }
            return;
        }
        for h in estimates.iter_mut() {
            let mut v = *h * jitter;
            v += complex_gaussian(rng, sigma2);
            if self.adc_enob_bits > 0 && full_scale > 0.0 {
                v = quantize(v, full_scale, self.adc_enob_bits);
            }
            *h = v;
        }
    }
}

/// Quantizes a complex value to an `bits`-bit ADC with ±`full_scale` range
/// per rail, clipping on overflow.
pub fn quantize(z: Complex, full_scale: f64, bits: u32) -> Complex {
    let levels = (1u64 << bits.min(62)) as f64;
    let step = 2.0 * full_scale / levels;
    let q = |x: f64| -> f64 {
        let clipped = x.clamp(-full_scale, full_scale);
        (clipped / step).round() * step
    };
    Complex::new(q(z.re), q(z.im))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dynamic_range_matches_paper() {
        // ~60 dB (paper §5.2)
        let dr = Frontend::usrp_n210().dynamic_range_db();
        assert!((55.0..65.0).contains(&dr), "{dr}");
    }

    #[test]
    fn ideal_front_end_is_transparent() {
        let fe = Frontend::ideal();
        let mut rng = StdRng::seed_from_u64(1);
        let mut est = vec![Complex::new(0.5, -0.25); 8];
        let orig = est.clone();
        fe.capture(&mut rng, &mut est, 1.0, 1.0);
        assert_eq!(est, orig);
    }

    #[test]
    fn quantize_rounds_and_clips() {
        let q = quantize(Complex::new(0.400001, -2.0), 1.0, 8);
        let step = 2.0 / 256.0;
        assert!((q.re - (0.400001f64 / step).round() * step).abs() < 1e-12);
        assert!((q.im + 1.0).abs() < step, "clipped to -full_scale");
    }

    #[test]
    fn quantization_floor_hides_tiny_signals() {
        // a signal 80 dB below full scale vanishes in a 10-bit ADC —
        // the §5.2 "can't decode" phenomenon
        let tiny = Complex::from_re(1e-4); // -80 dB rel 1.0
        let q = quantize(tiny, 1.0, 10);
        assert_eq!(q, Complex::ZERO);
        // but survives once the direct path is knocked down 45 dB
        // (full scale follows the direct path via AGC)
        let q2 = quantize(tiny, 1e-4 * 31.6, 10); // direct now only 30 dB above
        assert!(q2.abs() > 0.0);
    }

    #[test]
    fn phase_jitter_is_common_mode() {
        let fe = Frontend {
            adc_enob_bits: 0,
            noise_floor: 0.0,
            phase_jitter_rad: 0.05,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut est = vec![Complex::ONE, Complex::I, Complex::new(0.5, 0.5)];
        let orig = est.clone();
        fe.capture(&mut rng, &mut est, 1.0, 1.0);
        // all entries rotated by the same angle
        let rot0 = (est[0] * orig[0].conj()).arg();
        for (e, o) in est.iter().zip(&orig) {
            let rot = (*e * o.conj()).arg();
            assert!((rot - rot0).abs() < 1e-12);
        }
        assert!(rot0.abs() > 1e-6, "some rotation applied");
    }

    #[test]
    fn estimate_noise_scales_with_noise_scale() {
        let fe = Frontend {
            adc_enob_bits: 0,
            noise_floor: 0.01,
            phase_jitter_rad: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mut est = vec![Complex::ZERO; n];
        fe.capture(&mut rng, &mut est, 1.0, 2.0);
        let p: f64 = est.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        let expect = (0.01f64 * 2.0).powi(2);
        assert!((p / expect - 1.0).abs() < 0.05, "{p} vs {expect}");
    }

    #[test]
    fn capture_deterministic_under_seed() {
        let fe = Frontend::usrp_n210();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut e1 = vec![Complex::new(0.1, 0.2); 4];
        let mut e2 = e1.clone();
        fe.capture(&mut a, &mut e1, 1.0, 1.0);
        fe.capture(&mut b, &mut e2, 1.0, 1.0);
        assert_eq!(e1, e2);
    }
}
