//! Property-based tests on the reader substrate.

use proptest::prelude::*;
use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::Complex;
use wiforce_reader::{ChannelSounder, OfdmSounder};

/// One snapshot estimated with noise drawn at `(key, 0, snapshot)`.
fn estimate(
    s: &OfdmSounder,
    truth: &[Complex],
    noise: f64,
    key: u64,
    snapshot: u32,
) -> Vec<Complex> {
    let mut cursor = CounterRng::for_snapshot(key, 0, snapshot);
    let mut out = vec![Complex::ZERO; s.n_subcarriers];
    s.estimate_counter_into(truth, noise, &mut cursor, &mut out);
    out
}

fn arb_channel() -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((0.05f64..2.0, -3.1f64..3.1), 64..=64).prop_map(|v| {
        v.into_iter()
            .map(|(r, p)| Complex::from_polar(r, p))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Noiseless OFDM channel estimation is exact for arbitrary channels.
    #[test]
    fn noiseless_estimation_exact(truth in arb_channel()) {
        let s = OfdmSounder::wiforce();
        let est = estimate(&s, &truth, 0.0, 0, 0);
        for (e, t) in est.iter().zip(&truth) {
            prop_assert!((*e - *t).abs() < 1e-8);
        }
    }

    /// Estimation is unbiased: the average of many noisy estimates
    /// converges on the truth.
    #[test]
    fn estimation_unbiased(seed in 0u64..1000) {
        let s = OfdmSounder::wiforce();
        let truth = vec![Complex::from_polar(1.0, 0.5); 64];
        let mut acc = vec![Complex::ZERO; 64];
        let reps = 60;
        for rep in 0..reps {
            for (a, e) in acc.iter_mut().zip(estimate(&s, &truth, 0.05, seed, rep)) {
                *a += e;
            }
        }
        let mean_err: f64 = acc
            .iter()
            .zip(&truth)
            .map(|(a, t)| (a.scale(1.0 / reps as f64) - *t).abs())
            .sum::<f64>()
            / 64.0;
        prop_assert!(mean_err < 0.02, "{mean_err}");
    }
}
