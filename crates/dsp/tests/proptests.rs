//! Property-based tests over the DSP primitives.

use proptest::prelude::*;
use wiforce_dsp::fft::{dft_naive, fft, goertzel, goertzel_columns, ifft, FftPlan};
use wiforce_dsp::phase::{unwrap, wrap_to_pi};
use wiforce_dsp::polyfit::Polynomial;
use wiforce_dsp::stats::{median, percentile};
use wiforce_dsp::Complex;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// FFT matches the O(n²) reference for arbitrary lengths.
    #[test]
    fn fft_matches_naive(x in arb_signal(48)) {
        let fast = fft(&x);
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-7 * (x.len() as f64));
        }
    }

    /// IFFT inverts FFT for arbitrary lengths.
    #[test]
    fn ifft_inverts(x in arb_signal(64)) {
        let back = ifft(&fft(&x));
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    /// The FFT is linear.
    #[test]
    fn fft_linear(x in arb_signal(32), a in -3.0f64..3.0) {
        let scaled: Vec<Complex> = x.iter().map(|&z| z * a).collect();
        let fx = fft(&x);
        let fs = fft(&scaled);
        for (s, f) in fs.iter().zip(&fx) {
            prop_assert!((*s - *f * a).abs() < 1e-8);
        }
    }

    /// A planned FFT matches the O(n²) reference for arbitrary lengths —
    /// power-of-two sizes exercise the radix-2 tables, everything else the
    /// cached Bluestein path — and is bit-identical to the free [`fft`].
    #[test]
    fn fft_plan_matches_naive(x in arb_signal(48)) {
        let mut plan = FftPlan::new(x.len());
        let planned = plan.forward(&x);
        let slow = dft_naive(&x);
        for (a, b) in planned.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-7 * (x.len() as f64));
        }
        let free = fft(&x);
        for (a, b) in planned.iter().zip(&free) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// A planned inverse undoes a planned forward for arbitrary lengths.
    #[test]
    fn fft_plan_inverse_inverts(x in arb_signal(64)) {
        let mut plan = FftPlan::new(x.len());
        let fwd = plan.forward(&x);
        let back = plan.inverse(&fwd);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    /// The batched column Goertzel is bit-identical to gathering each column
    /// and running the scalar [`goertzel`] per bin.
    #[test]
    fn goertzel_columns_matches_per_column(
        flat in arb_signal(96),
        n_cols in 1usize..7,
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
    ) {
        let n_rows = flat.len() / n_cols;
        let data = &flat[..n_rows * n_cols];
        let batched = goertzel_columns(data, n_cols, &[f1, f2]);
        for (j, &f) in [f1, f2].iter().enumerate() {
            for k in 0..n_cols {
                let col: Vec<Complex> = (0..n_rows).map(|r| data[r * n_cols + k]).collect();
                let scalar = goertzel(&col, f);
                prop_assert_eq!(batched[j][k].re.to_bits(), scalar.re.to_bits());
                prop_assert_eq!(batched[j][k].im.to_bits(), scalar.im.to_bits());
            }
        }
    }

    /// Goertzel at an integer bin equals the FFT bin.
    #[test]
    fn goertzel_equals_fft_bin(x in arb_signal(40), k in 0usize..40) {
        let n = x.len();
        let k = k % n;
        let g = goertzel(&x, k as f64 / n as f64);
        let s = dft_naive(&x);
        prop_assert!((g - s[k]).abs() < 1e-7 * n as f64);
    }

    /// Unwrapping a wrapped smooth trajectory recovers it exactly
    /// (offset-free when it starts in (−π, π]).
    #[test]
    fn unwrap_recovers_smooth_paths(steps in prop::collection::vec(-1.5f64..1.5, 1..80), start in -3.0f64..3.0) {
        let mut truth = vec![wrap_to_pi(start)];
        for d in steps {
            let last = *truth.last().expect("nonempty");
            truth.push(last + d);
        }
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap_to_pi(t)).collect();
        let un = unwrap(&wrapped);
        for (u, t) in un.iter().zip(&truth) {
            prop_assert!((u - t).abs() < 1e-9);
        }
    }

    /// Polynomial fit reproduces exact polynomial data of matching degree.
    #[test]
    fn polyfit_exact_on_polynomial_data(
        c0 in -2.0f64..2.0,
        c1 in -2.0f64..2.0,
        c2 in -2.0f64..2.0,
        c3 in -2.0f64..2.0,
    ) {
        let truth = Polynomial::new(vec![c0, c1, c2, c3]);
        let xs: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = Polynomial::fit(&xs, &ys, 3).expect("fit");
        for &x in &xs {
            prop_assert!((fit.eval(x) - truth.eval(x)).abs() < 1e-6);
        }
    }

    /// Percentiles are monotone and bracket the sample range.
    #[test]
    fn percentiles_monotone(xs in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let p25 = percentile(&xs, 25.0);
        let p50 = percentile(&xs, 50.0);
        let p75 = percentile(&xs, 75.0);
        prop_assert!(p25 <= p50 && p50 <= p75);
        prop_assert!((median(&xs) - p50).abs() < 1e-12);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 >= lo && p75 <= hi);
    }
}
