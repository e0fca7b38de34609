//! Vector-network-analyzer simulator.
//!
//! The paper characterizes the sensor with a 2-port VNA (Fig. 10, the
//! Table 1 wired baselines, and the §4.2 sensor-model calibration). This
//! module provides frequency sweeps of any device-under-test expressed as
//! `f → SParams`, with optional instrument noise so "VNA ground truth" in
//! the experiments carries realistic (small) measurement error.

use crate::twoport::SParams;
use rand_like::TraceNoise;
use wiforce_dsp::Complex;

/// A linear frequency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencySweep {
    /// Start frequency, Hz.
    pub start_hz: f64,
    /// Stop frequency, Hz (inclusive).
    pub stop_hz: f64,
    /// Number of points (≥ 2).
    pub points: usize,
}

impl FrequencySweep {
    /// The paper's Fig. 10 sweep: 50 MHz – 3 GHz.
    pub fn wiforce_broadband() -> Self {
        FrequencySweep {
            start_hz: 0.05e9,
            stop_hz: 3.0e9,
            points: 60,
        }
    }

    /// Frequency of point `i`.
    pub fn freq(&self, i: usize) -> f64 {
        assert!(self.points >= 2 && i < self.points);
        self.start_hz + (self.stop_hz - self.start_hz) * i as f64 / (self.points - 1) as f64
    }

    /// All frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        (0..self.points).map(|i| self.freq(i)).collect()
    }
}

/// One measured sweep: frequencies plus S-parameters per point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Frequencies, Hz.
    pub freqs_hz: Vec<f64>,
    /// Measured S-parameters per frequency.
    pub sparams: Vec<SParams>,
}

impl SweepResult {
    /// |S11| in dB per point.
    pub fn s11_db(&self) -> Vec<f64> {
        self.sparams.iter().map(|s| s.s11_db()).collect()
    }

    /// |S21| in dB per point.
    pub fn s21_db(&self) -> Vec<f64> {
        self.sparams.iter().map(|s| s.s21_db()).collect()
    }

    /// Unwrapped S21 phase in radians per point.
    pub fn s21_phase_unwrapped(&self) -> Vec<f64> {
        let raw: Vec<f64> = self.sparams.iter().map(|s| s.s21.arg()).collect();
        wiforce_dsp::phase::unwrap(&raw)
    }

    /// Worst (highest) S11 across the sweep, dB.
    pub fn worst_s11_db(&self) -> f64 {
        self.s11_db().into_iter().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A simulated VNA with trace-noise magnitude/phase floors.
#[derive(Debug, Clone, Copy)]
pub struct Vna {
    /// RMS magnitude trace noise, linear fraction (typ. 0.001 ≈ −60 dB).
    pub mag_noise: f64,
    /// RMS phase trace noise, radians (typ. 0.1° ≈ 0.0017 rad).
    pub phase_noise_rad: f64,
    /// Seed for the deterministic noise process.
    pub seed: u64,
}

impl Vna {
    /// An ideal (noise-free) instrument.
    pub fn ideal() -> Self {
        Vna {
            mag_noise: 0.0,
            phase_noise_rad: 0.0,
            seed: 0,
        }
    }

    /// A realistic bench VNA: −60 dB magnitude floor, 0.1° phase noise.
    pub fn bench() -> Self {
        Vna {
            mag_noise: 1e-3,
            phase_noise_rad: 0.1f64.to_radians(),
            seed: 0x5A11,
        }
    }

    /// Measures a DUT over the sweep. The DUT is any `f → SParams` map.
    pub fn sweep(&self, sweep: FrequencySweep, dut: impl Fn(f64) -> SParams) -> SweepResult {
        let mut noise = TraceNoise::new(self.seed);
        let freqs = sweep.frequencies();
        let sparams = freqs
            .iter()
            .map(|&f| {
                let s = dut(f);
                SParams {
                    s11: self.corrupt(s.s11, &mut noise),
                    s12: self.corrupt(s.s12, &mut noise),
                    s21: self.corrupt(s.s21, &mut noise),
                    s22: self.corrupt(s.s22, &mut noise),
                }
            })
            .collect();
        SweepResult {
            freqs_hz: freqs,
            sparams,
        }
    }

    fn corrupt(&self, z: Complex, noise: &mut TraceNoise) -> Complex {
        if self.mag_noise == 0.0 && self.phase_noise_rad == 0.0 {
            return z;
        }
        let dm = 1.0 + self.mag_noise * noise.next_gaussian();
        let dp = self.phase_noise_rad * noise.next_gaussian();
        z * Complex::from_polar(dm.max(0.0), dp)
    }
}

/// Small deterministic Gaussian stream (xorshift + Box–Muller) so the VNA
/// noise is reproducible without threading a `rand` RNG through the EM
/// crate.
mod rand_like {
    /// Deterministic N(0,1) stream.
    #[derive(Debug, Clone)]
    pub struct TraceNoise {
        state: u64,
        spare: Option<f64>,
    }

    impl TraceNoise {
        /// Seeds the stream (seed 0 is remapped to a fixed constant).
        pub fn new(seed: u64) -> Self {
            TraceNoise {
                state: if seed == 0 { 0x9E3779B9 } else { seed },
                spare: None,
            }
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.state = x;
            x
        }

        fn next_unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Next standard-normal sample.
        pub fn next_gaussian(&mut self) -> f64 {
            if let Some(s) = self.spare.take() {
                return s;
            }
            let u1 = self.next_unit().max(1e-300);
            let u2 = self.next_unit();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor_line::SensorLine;

    #[test]
    fn sweep_frequencies_inclusive() {
        let s = FrequencySweep {
            start_hz: 1e9,
            stop_hz: 2e9,
            points: 5,
        };
        let f = s.frequencies();
        assert_eq!(f.len(), 5);
        assert_eq!(f[0], 1e9);
        assert_eq!(f[4], 2e9);
        assert_eq!(f[2], 1.5e9);
    }

    #[test]
    fn ideal_vna_is_transparent() {
        let line = SensorLine::wiforce_prototype();
        let vna = Vna::ideal();
        let r = vna.sweep(FrequencySweep::wiforce_broadband(), |f| {
            line.rest_sparams(f)
        });
        let direct = line.rest_sparams(r.freqs_hz[10]);
        assert_eq!(r.sparams[10].s21, direct.s21);
    }

    #[test]
    fn bench_vna_noise_is_small_and_deterministic() {
        let line = SensorLine::wiforce_prototype();
        let vna = Vna::bench();
        let sweep = FrequencySweep::wiforce_broadband();
        let a = vna.sweep(sweep, |f| line.rest_sparams(f));
        let b = vna.sweep(sweep, |f| line.rest_sparams(f));
        for (x, y) in a.sparams.iter().zip(&b.sparams) {
            assert_eq!(x.s21, y.s21, "same seed ⇒ same measurement");
        }
        for (i, s) in a.sparams.iter().enumerate() {
            let truth = line.rest_sparams(a.freqs_hz[i]);
            assert!((s.s21.abs() - truth.s21.abs()).abs() < 0.02);
            assert!((s.s21.arg() - truth.s21.arg()).abs() < 0.02);
        }
    }

    #[test]
    fn sweep_result_helpers() {
        let line = SensorLine::wiforce_prototype();
        let r = Vna::ideal().sweep(FrequencySweep::wiforce_broadband(), |f| {
            line.rest_sparams(f)
        });
        assert!(r.worst_s11_db() < -10.0); // the paper's Fig. 10 claim
        let ph = r.s21_phase_unwrapped();
        // unwrapped phase is decreasing (delay line)
        assert!(ph.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    #[should_panic]
    fn freq_out_of_range_panics() {
        let s = FrequencySweep {
            start_hz: 1e9,
            stop_hz: 2e9,
            points: 3,
        };
        let _ = s.freq(3);
    }
}
