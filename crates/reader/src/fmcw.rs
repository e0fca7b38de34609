//! FMCW chirp sounding — the waveform-agnostic alternative.
//!
//! Paper §3.3: "WiForce's strategy becomes waveform-agnostic, and can be
//! used with any wideband sensing waveform that allows for periodic
//! channel estimates, such as FMCW, UWB and WiFi-OFDM." An FMCW radar
//! sweeps a chirp across the band; after dechirping, each time instant of
//! the sweep measures the channel at one instantaneous frequency. We model
//! that faithfully at the channel level: the sweep samples `H` on a
//! frequency grid sequentially, each sample carrying its own noise, then a
//! per-sweep estimate is assembled. The grid matches the OFDM sounder's so
//! the downstream algorithm cannot tell them apart — which is the claim.

use crate::sounder::ChannelSounder;
use rand::RngCore;
use wiforce_dsp::rng::complex_gaussian;
use wiforce_dsp::Complex;

/// FMCW sounding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmcwSounder {
    /// Number of frequency samples per sweep.
    pub n_points: usize,
    /// Swept bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// Sweep duration, s.
    pub sweep_s: f64,
    /// Idle time between sweeps, s.
    pub idle_s: f64,
}

impl FmcwSounder {
    /// A sweep matched to the paper's OFDM grid: 64 points over 12.5 MHz,
    /// same 57.6 µs repetition period.
    pub fn matched_to_ofdm() -> Self {
        FmcwSounder {
            n_points: 64,
            bandwidth_hz: 12.5e6,
            sweep_s: 25.6e-6,
            idle_s: 32e-6,
        }
    }

    /// Instantaneous frequency offset at sweep sample `i`.
    pub fn sweep_freq_hz(&self, i: usize) -> f64 {
        assert!(i < self.n_points);
        let frac = i as f64 / (self.n_points - 1).max(1) as f64;
        -self.bandwidth_hz / 2.0 + self.bandwidth_hz * frac
    }
}

impl ChannelSounder for FmcwSounder {
    fn frequency_offsets_hz(&self) -> Vec<f64> {
        (0..self.n_points).map(|i| self.sweep_freq_hz(i)).collect()
    }

    fn snapshot_period_s(&self) -> f64 {
        self.sweep_s + self.idle_s
    }

    fn integration_window_s(&self) -> f64 {
        self.sweep_s
    }

    fn estimate(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn RngCore,
    ) -> Vec<Complex> {
        assert_eq!(
            true_channel.len(),
            self.n_points,
            "one channel sample per sweep point"
        );
        // dechirped FMCW measures H at each instantaneous frequency with
        // per-sample noise; the sweep integrates one beat sample per point
        true_channel
            .iter()
            .map(|&h| h + complex_gaussian(rng, noise_std * noise_std))
            .collect()
    }

    fn estimate_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn RngCore,
        out: &mut [Complex],
    ) {
        assert_eq!(
            true_channel.len(),
            self.n_points,
            "one channel sample per sweep point"
        );
        assert_eq!(
            out.len(),
            self.n_points,
            "output buffer must match the estimate grid"
        );
        for (o, &h) in out.iter_mut().zip(true_channel) {
            *o = h + complex_gaussian(rng, noise_std * noise_std);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_matches_ofdm_span() {
        let f = FmcwSounder::matched_to_ofdm();
        let offs = f.frequency_offsets_hz();
        assert_eq!(offs.len(), 64);
        assert!((offs[0] + 6.25e6).abs() < 1.0);
        assert!((offs[63] - 6.25e6).abs() < 1.0);
        // ascending
        assert!(offs.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn period_supports_tag_lines() {
        let f = FmcwSounder::matched_to_ofdm();
        assert!(f.max_doppler_hz() > 4000.0, "{}", f.max_doppler_hz());
    }

    #[test]
    fn noiseless_estimate_exact() {
        let f = FmcwSounder::matched_to_ofdm();
        let truth: Vec<Complex> = (0..64).map(|i| Complex::cis(i as f64 * 0.1)).collect();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(f.estimate(&truth, 0.0, &mut rng), truth);
    }

    #[test]
    fn estimate_into_matches_estimate_bitwise() {
        let f = FmcwSounder::matched_to_ofdm();
        let truth: Vec<Complex> = (0..64).map(|i| Complex::cis(i as f64 * 0.3)).collect();
        let expected = f.estimate(&truth, 0.2, &mut StdRng::seed_from_u64(7));
        let mut out = vec![Complex::ZERO; 64];
        f.estimate_into(&truth, 0.2, &mut StdRng::seed_from_u64(7), &mut out);
        assert_eq!(out, expected);
    }

    #[test]
    fn counter_prepared_path_is_bit_identical() {
        // Same pin for the counter-cursor path: prepared and full
        // variants at one coordinate must agree bitwise and consume the
        // same lanes.
        use wiforce_dsp::rng::CounterRng;
        let f = FmcwSounder::matched_to_ofdm();
        let truth: Vec<Complex> = (0..64).map(|i| Complex::cis(i as f64 * 0.2)).collect();
        let prepared = f.prepare(&truth);
        let mut a = CounterRng::for_snapshot(0x51CA, 1, 7);
        let mut b = CounterRng::for_snapshot(0x51CA, 1, 7);
        let mut direct = vec![Complex::ZERO; 64];
        let mut fast = vec![Complex::ZERO; 64];
        f.estimate_counter_into(&truth, 0.2, &mut a, &mut direct);
        f.estimate_prepared_counter_into(&prepared, 0.2, &mut b, &mut fast);
        for (d, g) in direct.iter().zip(&fast) {
            assert_eq!(d.re.to_bits(), g.re.to_bits());
            assert_eq!(d.im.to_bits(), g.im.to_bits());
        }
        assert_eq!(a.lane(), b.lane());
        // counter draws are snapshot-local: a different snapshot gives
        // different noise, the same snapshot reproduces
        let mut c = CounterRng::for_snapshot(0x51CA, 1, 8);
        let mut other = vec![Complex::ZERO; 64];
        f.estimate_counter_into(&truth, 0.2, &mut c, &mut other);
        assert!(direct.iter().zip(&other).any(|(x, y)| x != y));
    }

    #[test]
    fn noise_is_applied_per_point() {
        let f = FmcwSounder::matched_to_ofdm();
        let truth = vec![Complex::ZERO; 64];
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = 0.0;
        for _ in 0..200 {
            let est = f.estimate(&truth, 0.1, &mut rng);
            p += est.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        }
        p /= 200.0;
        assert!((p - 0.01).abs() < 0.002, "{p}");
    }
}
