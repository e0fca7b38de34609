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
use wiforce_dsp::rng::{complex_gaussian, CounterRng};
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

    /// The four configuration fields fix the sweep grid, the timing and
    /// the estimate, so their raw bits are the response-table identity.
    fn response_token(&self) -> u64 {
        wiforce_dsp::hash::fnv_words([
            self.n_points as u64,
            self.bandwidth_hz.to_bits(),
            self.sweep_s.to_bits(),
            self.idle_s.to_bits(),
        ])
    }

    /// Dechirped FMCW measures `H` at each instantaneous frequency with
    /// per-sample noise; the sweep integrates one beat sample per point,
    /// so each point takes one complex Gaussian from the cursor, in sweep
    /// order.
    fn estimate_counter_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        cursor: &mut CounterRng,
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
            *o = h + complex_gaussian(cursor, noise_std * noise_std);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sweep estimated with noise drawn at `(key, 0, snapshot)`.
    fn estimate(
        f: &FmcwSounder,
        truth: &[Complex],
        noise: f64,
        key: u64,
        snapshot: u32,
    ) -> Vec<Complex> {
        let mut cursor = CounterRng::for_snapshot(key, 0, snapshot);
        let mut out = vec![Complex::ZERO; f.n_points];
        f.estimate_counter_into(truth, noise, &mut cursor, &mut out);
        out
    }

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
        assert_eq!(estimate(&f, &truth, 0.0, 0, 0), truth);
    }

    #[test]
    fn response_token_tracks_configuration() {
        let a = FmcwSounder::matched_to_ofdm();
        assert_eq!(
            a.response_token(),
            FmcwSounder::matched_to_ofdm().response_token()
        );
        let edits: [fn(&mut FmcwSounder); 4] = [
            |f| f.n_points += 1,
            |f| f.bandwidth_hz *= 2.0,
            |f| f.sweep_s += 1e-6,
            |f| f.idle_s += 1e-6,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut b = a;
            edit(&mut b);
            assert_ne!(a.response_token(), b.response_token(), "field {i}");
        }
        assert_ne!(
            a.response_token(),
            crate::OfdmSounder::wiforce().response_token(),
            "FMCW and OFDM share the response memo"
        );
    }

    #[test]
    fn noise_is_applied_per_point() {
        let f = FmcwSounder::matched_to_ofdm();
        let truth = vec![Complex::ZERO; 64];
        let mut p = 0.0;
        for t in 0..200 {
            let est = estimate(&f, &truth, 0.1, 1, t);
            p += est.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        }
        p /= 200.0;
        assert!((p - 0.01).abs() < 0.002, "{p}");
    }
}
