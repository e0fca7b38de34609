//! Fault injection for robustness testing.
//!
//! In the spirit of smoltcp's `--drop-chance`/`--corrupt-chance` example
//! options: the pipeline should keep working (or degrade gracefully and
//! *detectably*) under real-world imperfections the paper glosses over —
//! the tag's Arduino clock drifting relative to the reader ("the arduino
//! clock is not synchronized with the other elements of the system",
//! §4.4), dropped channel estimates, and interference bursts.

use rand::Rng;
use wiforce_dsp::rng::{complex_gaussian, uniform};
use wiforce_dsp::Complex;

/// Fault configuration applied at the channel-estimate stream level.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Probability that a whole snapshot is lost (preamble miss).
    pub snapshot_drop_prob: f64,
    /// Tag clock frequency error, parts-per-million. The modulation lines
    /// move off the nominal `fs`/`4fs` bins by `fs·ppm·1e-6`.
    pub tag_clock_ppm: f64,
    /// Probability that a snapshot is hit by an interference burst.
    pub burst_prob: f64,
    /// Burst amplitude relative to the direct path.
    pub burst_rel_amp: f64,
}

impl FaultConfig {
    /// No faults.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// A harsh-but-survivable profile used by the robustness tests.
    pub fn harsh() -> Self {
        FaultConfig {
            snapshot_drop_prob: 0.02,
            tag_clock_ppm: 50.0,
            burst_prob: 0.01,
            burst_rel_amp: 0.1,
        }
    }

    /// A dropout/saturation-heavy profile: frequent preamble misses plus
    /// interference bursts strong enough to drive the front-end ADC into
    /// clipping (amplitude well above the direct path). Used by the batch
    /// fault-isolation tests — a stream under this regime must degrade on
    /// its own without stalling or corrupting sibling streams.
    pub fn saturating() -> Self {
        FaultConfig {
            snapshot_drop_prob: 0.10,
            tag_clock_ppm: 80.0,
            burst_prob: 0.05,
            burst_rel_amp: 10.0,
        }
    }

    /// Effective tag base clock (Hz) after drift.
    pub fn drifted_clock_hz(&self, nominal_hz: f64) -> f64 {
        nominal_hz * (1.0 + self.tag_clock_ppm * 1e-6)
    }

    /// Drop decision for one snapshot: draws one uniform from `rng` iff
    /// `snapshot_drop_prob > 0`. Stateless, so counter-addressed
    /// synthesis makes it from a snapshot-local cursor on any worker and
    /// tallies the events in bulk.
    pub fn decide_drop<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.snapshot_drop_prob > 0.0 && uniform(rng, 0.0, 1.0) < self.snapshot_drop_prob
    }

    /// Burst decision and injection for one snapshot: draws one uniform
    /// from `rng` iff `burst_prob > 0`, then on a hit adds complex AWGN
    /// at `burst_rel_amp · direct_amp` to every estimate. Returns `true`
    /// when a burst was applied to `estimates`.
    pub fn apply_burst<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        estimates: &mut [Complex],
        direct_amp: f64,
    ) -> bool {
        if self.burst_prob > 0.0 && uniform(rng, 0.0, 1.0) < self.burst_prob {
            let var = (self.burst_rel_amp * direct_amp).powi(2);
            for h in estimates.iter_mut() {
                *h += complex_gaussian(rng, var);
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn none_never_faults() {
        let cfg = FaultConfig::none();
        let mut rng = StdRng::seed_from_u64(0);
        let mut est = vec![Complex::ONE; 4];
        for _ in 0..1000 {
            assert!(!cfg.decide_drop(&mut rng));
            assert!(!cfg.apply_burst(&mut rng, &mut est, 1.0));
        }
        assert_eq!(est, vec![Complex::ONE; 4]);
        // a fault-free profile draws nothing from the stream
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(0).next_u64());
    }

    #[test]
    fn drop_rate_approximates_probability() {
        let cfg = FaultConfig {
            snapshot_drop_prob: 0.1,
            ..FaultConfig::none()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let dropped = (0..n).filter(|_| cfg.decide_drop(&mut rng)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "{rate}");
    }

    #[test]
    fn bursts_add_energy() {
        let cfg = FaultConfig {
            burst_prob: 1.0,
            burst_rel_amp: 0.5,
            ..FaultConfig::none()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut est = vec![Complex::ZERO; 1000];
        assert!(cfg.apply_burst(&mut rng, &mut est, 1.0));
        let p: f64 = est.iter().map(|z| z.norm_sqr()).sum::<f64>() / est.len() as f64;
        assert!((p - 0.25).abs() < 0.05, "{p}");
    }

    #[test]
    fn saturating_profile_drops_and_clips() {
        let cfg = FaultConfig::saturating();
        assert!(cfg.snapshot_drop_prob > FaultConfig::harsh().snapshot_drop_prob);
        assert!(
            cfg.burst_rel_amp > 1.0,
            "bursts must exceed the direct path"
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut est = vec![Complex::ZERO; 64];
        let (mut dropped, mut bursts) = (0, 0);
        for _ in 0..2000 {
            if cfg.decide_drop(&mut rng) {
                dropped += 1;
            } else if cfg.apply_burst(&mut rng, &mut est, 1.0) {
                bursts += 1;
            }
        }
        let rate = dropped as f64 / 2000.0;
        assert!((rate - 0.10).abs() < 0.03, "drop rate {rate}");
        assert!(bursts > 0);
        // a burst at 10× the direct path lands far outside any sane
        // full-scale setting, i.e. the front end will clip it
        let peak = est.iter().map(|z| z.abs()).fold(0.0_f64, f64::max);
        assert!(peak > 1.0, "burst peak {peak}");
    }

    #[test]
    fn clock_drift_moves_lines() {
        let cfg = FaultConfig {
            tag_clock_ppm: 100.0,
            ..FaultConfig::none()
        };
        let f = cfg.drifted_clock_hz(1000.0);
        assert!((f - 1000.1).abs() < 1e-9);
        assert_eq!(FaultConfig::none().drifted_clock_hz(1000.0), 1000.0);
    }
}
