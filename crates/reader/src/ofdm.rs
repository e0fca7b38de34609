//! OFDM channel sounding (the paper's reader waveform).
//!
//! Paper §4.4: 64 subcarriers over 12.5 MHz (195 kHz spacing), a 320-sample
//! preamble (five repeats of one 64-sample OFDM symbol) padded with 400
//! zeros, i.e. fresh channel estimates every 720 samples = 57.6 µs.
//!
//! The estimator here is the real thing: the preamble is synthesized in
//! the time domain, passed through the (per-subcarrier) channel, hit with
//! AWGN, then block-averaged and least-squares equalized. The receiver
//! averages the five repeats for the expected √5 noise reduction; since
//! the mean of five iid AWGN draws is exactly one Gaussian of variance
//! σ²/5, the simulation samples that averaged frame directly — one noise
//! pass instead of five, same distribution, which the tests verify.
//!
//! Time-domain synthesis does not run this estimator per snapshot. The
//! LS estimate is linear in the received frame, and for the unit-modulus
//! preamble it maps the frame's white noise unitarily onto the
//! subcarriers (the forward FFT scales it by `√n`, the equalizers by
//! `1/√n`). Its error is therefore white circular complex Gaussian with
//! exactly the per-component std [`ChannelSounder::estimate_noise_sigma`]
//! returns, the repeat averaging folded in, and
//! [`crate::sounder::sound_rows`] draws each snapshot from that law. The
//! estimator here stays as the reference that defines the law; the tests
//! below check it is circular and white at that std, and the pipeline's
//! law fixtures compare the drawn snapshots against it.

use crate::sounder::ChannelSounder;
use std::cell::RefCell;
use wiforce_dsp::fft::{ifft, with_plan};
use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::Complex;

/// Per-thread scratch for the allocation-free OFDM estimation path:
/// cached preamble symbols and their equalization reciprocals (keyed by
/// configuration) and reusable frame-sized buffers.
struct OfdmScratch {
    key: (usize, u64),
    symbols: Vec<Complex>,
    /// `1 / (√n · s[bin])` per bin — the LS equalization collapses to one
    /// complex multiply instead of two divisions per subcarrier.
    eq: Vec<Complex>,
    rx_sym: Vec<Complex>,
    avg: Vec<Complex>,
    /// The averaged frame's complex noise: one standard complex normal
    /// (one Philox lane) per sample.
    normals: Vec<Complex>,
}

impl OfdmScratch {
    /// Recomputes the cached preamble symbols (and their equalization
    /// reciprocals) when the sounder configuration changed.
    fn refresh_symbols(&mut self, sounder: &OfdmSounder) {
        let n = sounder.n_subcarriers;
        if self.key != (n, sounder.preamble_seed) || self.symbols.len() != n {
            self.symbols = sounder.preamble_symbols();
            let inv_scale = Complex::new(1.0 / (n as f64).sqrt(), 0.0);
            self.eq = self.symbols.iter().map(|&s| inv_scale / s).collect();
            self.key = (n, sounder.preamble_seed);
        }
    }
}

thread_local! {
    static OFDM_SCRATCH: RefCell<OfdmScratch> = const {
        RefCell::new(OfdmScratch {
            key: (0, 0),
            symbols: Vec::new(),
            eq: Vec::new(),
            rx_sym: Vec::new(),
            avg: Vec::new(),
            normals: Vec::new(),
        })
    };
}

/// OFDM sounding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfdmSounder {
    /// Number of subcarriers (paper: 64).
    pub n_subcarriers: usize,
    /// Total sounding bandwidth, Hz (paper: 12.5 MHz).
    pub bandwidth_hz: f64,
    /// Preamble symbol repeats (paper: 320/64 = 5).
    pub n_repeats: usize,
    /// Zero-pad samples between frames (paper: 400).
    pub zero_pad: usize,
    /// Seed for the known preamble QPSK sequence.
    pub preamble_seed: u64,
}

impl OfdmSounder {
    /// The paper's exact configuration.
    pub fn wiforce() -> Self {
        OfdmSounder {
            n_subcarriers: 64,
            bandwidth_hz: 12.5e6,
            n_repeats: 5,
            zero_pad: 400,
            preamble_seed: 0x0FD3,
        }
    }

    /// Subcarrier spacing, Hz.
    pub fn subcarrier_spacing_hz(&self) -> f64 {
        self.bandwidth_hz / self.n_subcarriers as f64
    }

    /// Samples per frame (preamble + padding).
    pub fn frame_samples(&self) -> usize {
        self.n_repeats * self.n_subcarriers + self.zero_pad
    }

    /// The known frequency-domain preamble symbols (unit-modulus QPSK from
    /// a deterministic xorshift of the seed).
    pub fn preamble_symbols(&self) -> Vec<Complex> {
        let mut state = self.preamble_seed | 1;
        (0..self.n_subcarriers)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let q = (state >> 5) & 0b11;
                Complex::cis(std::f64::consts::FRAC_PI_4 + q as f64 * std::f64::consts::FRAC_PI_2)
            })
            .collect()
    }

    /// One 64-sample time-domain preamble symbol.
    pub fn preamble_symbol_time(&self) -> Vec<Complex> {
        let scale = (self.n_subcarriers as f64).sqrt();
        ifft(&self.preamble_symbols())
            .into_iter()
            .map(|z| z * scale) // unit average power in time domain
            .collect()
    }

    /// Per-component std of the averaged frame's noise: the mean of
    /// `n_repeats` iid noisy copies carries complex AWGN of variance
    /// `σ²/n_repeats`, drawn directly as one Gaussian per sample.
    fn frame_amp(&self, noise_std: f64) -> f64 {
        (noise_std * noise_std / (2.0 * self.n_repeats as f64)).sqrt()
    }

    /// The full 320-sample preamble (repeated symbols).
    pub fn preamble_time(&self) -> Vec<Complex> {
        let sym = self.preamble_symbol_time();
        let mut out = Vec::with_capacity(sym.len() * self.n_repeats);
        for _ in 0..self.n_repeats {
            out.extend_from_slice(&sym);
        }
        out
    }
}

impl ChannelSounder for OfdmSounder {
    fn frequency_offsets_hz(&self) -> Vec<f64> {
        // FFT bin ordering mapped to centred offsets: bins 0..N/2 are
        // non-negative, N/2..N negative; we report ascending offsets and
        // estimators use the same permutation
        let n = self.n_subcarriers as isize;
        let df = self.subcarrier_spacing_hz();
        (0..n).map(|i| (i - n / 2) as f64 * df).collect()
    }

    fn snapshot_period_s(&self) -> f64 {
        self.frame_samples() as f64 / self.bandwidth_hz
    }

    fn integration_window_s(&self) -> f64 {
        // the preamble only — the zero padding is dead air
        (self.n_repeats * self.n_subcarriers) as f64 / self.bandwidth_hz
    }

    /// Synthesizes and equalizes the frame in per-thread scratch buffers
    /// with planned in-place FFTs, writing the snapshot straight into
    /// `out`. The averaged frame's `n` complex noise normals come from
    /// the SIMD-dispatched Philox bulk kernel at the cursor's coordinates
    /// (one lane per sample, both Box–Muller components of its block), so
    /// the snapshot is a pure function of `(press key, group, snapshot)`.
    fn estimate_counter_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        cursor: &mut CounterRng,
        out: &mut [Complex],
    ) {
        let n = self.n_subcarriers;
        assert_eq!(
            true_channel.len(),
            n,
            "true_channel must have one entry per subcarrier"
        );
        assert_eq!(out.len(), n, "output buffer must match the estimate grid");
        let half = n / 2;
        let scale = (n as f64).sqrt();
        OFDM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.refresh_symbols(self);

            // TX symbol → channel (freq-domain multiply, in bin order) →
            // time domain, all in the reusable rx_sym buffer
            let rx_sym = &mut scratch.rx_sym;
            rx_sym.resize(n, Complex::ZERO);
            for (i, &h) in true_channel.iter().enumerate() {
                let bin = (i + n - half) % n;
                rx_sym[bin] = scratch.symbols[bin] * h;
            }
            with_plan(n, |plan| plan.inverse_inplace(rx_sym));
            rx_sym.iter_mut().for_each(|z| *z = *z * scale);

            // averaged frame: one complex noise normal per sample at the
            // cursor (per-component std `amp`), FFT, LS equalization into
            // ascending-offset order
            scratch.normals.clear();
            scratch.normals.resize(n, Complex::ZERO);
            cursor.fill_complex_normals(&mut scratch.normals);
            scratch.avg.clear();
            scratch.avg.resize(n, Complex::ZERO);
            let amp = self.frame_amp(noise_std);
            wiforce_dsp::kernels::accumulate_noisy(&mut scratch.avg, rx_sym, &scratch.normals, amp);
            with_plan(n, |plan| plan.forward_inplace(&mut scratch.avg));
            for (i, slot) in out.iter_mut().enumerate() {
                let bin = (i + n - half) % n;
                *slot = scratch.avg[bin] * scratch.eq[bin];
            }
        });
    }

    /// The five configuration fields fully determine the grid, the
    /// timing and the estimate law, so their raw bits are the
    /// response-table identity.
    fn response_token(&self) -> u64 {
        wiforce_dsp::hash::fnv_words([
            self.n_subcarriers as u64,
            self.bandwidth_hz.to_bits(),
            self.n_repeats as u64,
            self.zero_pad as u64,
            self.preamble_seed,
        ])
    }

    /// OFDM estimate error is exactly white and uniform across
    /// subcarriers: the averaged frame carries complex AWGN of
    /// per-component std `amp = √(σ²/(2·n_repeats))`, the unnormalized
    /// forward FFT scales white noise by `√n`, and the LS equalizers have
    /// modulus `1/√n` for the unit-modulus QPSK preamble — the two cancel,
    /// leaving per-component std `amp` on every subcarrier, independent
    /// of the channel. [`Self::estimate_counter_into`] takes one lane per
    /// subcarrier, as the law's draw does.
    fn estimate_noise_sigma(&self, noise_std: f64) -> Option<f64> {
        Some(self.frame_amp(noise_std))
    }
}

/// Reorders an ascending-frequency-offset vector into FFT bin order.
pub fn ascending_to_bins(ascending: &[Complex]) -> Vec<Complex> {
    let n = ascending.len();
    let half = n / 2;
    let mut bins = vec![Complex::ZERO; n];
    for (i, &v) in ascending.iter().enumerate() {
        // ascending index i ↔ offset (i - n/2); bin = (i - n/2) mod n
        let bin = (i + n - half) % n;
        bins[bin] = v;
    }
    bins
}

/// Inverse of [`ascending_to_bins`].
pub fn bins_to_ascending(bins: &[Complex]) -> Vec<Complex> {
    let n = bins.len();
    let half = n / 2;
    let mut asc = vec![Complex::ZERO; n];
    for (i, slot) in asc.iter_mut().enumerate() {
        let bin = (i + n - half) % n;
        *slot = bins[bin];
    }
    asc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sounder::sound_rows;

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

    #[test]
    fn paper_parameters() {
        let s = OfdmSounder::wiforce();
        assert_eq!(s.frame_samples(), 720);
        // paper: "sub-carrier spacing of 195 kHz"
        assert!((s.subcarrier_spacing_hz() - 195.3e3).abs() < 1e3);
        // fresh estimates every ~57.6 µs ⇒ Nyquist ≈ 8.7 kHz (paper §4.4)
        assert!((s.snapshot_period_s() - 57.6e-6).abs() < 1e-9);
        assert!((s.max_doppler_hz() - 8680.0).abs() < 20.0);
    }

    #[test]
    fn preamble_has_unit_modulus_symbols() {
        let s = OfdmSounder::wiforce();
        for sym in s.preamble_symbols() {
            assert!((sym.abs() - 1.0).abs() < 1e-12);
        }
        assert_eq!(s.preamble_time().len(), 320);
    }

    #[test]
    fn reorders_are_inverse() {
        let v: Vec<Complex> = (0..64).map(|i| Complex::from_re(i as f64)).collect();
        assert_eq!(bins_to_ascending(&ascending_to_bins(&v)), v);
        // DC (offset 0, ascending index 32) maps to bin 0
        let bins = ascending_to_bins(&v);
        assert_eq!(bins[0].re, 32.0);
    }

    #[test]
    fn noiseless_estimate_is_exact() {
        let s = OfdmSounder::wiforce();
        let truth: Vec<Complex> = (0..64)
            .map(|k| Complex::from_polar(1.0 + 0.01 * k as f64, 0.05 * k as f64))
            .collect();
        let est = estimate(&s, &truth, 0.0, 1, 0);
        for (e, t) in est.iter().zip(&truth) {
            assert!((*e - *t).abs() < 1e-9, "{e:?} vs {t:?}");
        }
    }

    #[test]
    fn estimate_error_scales_with_noise() {
        let s = OfdmSounder::wiforce();
        let truth = vec![Complex::ONE; 64];
        let rms_err = |noise: f64, key: u64| -> f64 {
            let mut acc = 0.0;
            let trials = 50;
            for t in 0..trials {
                let est = estimate(&s, &truth, noise, key, t);
                acc += est
                    .iter()
                    .zip(&truth)
                    .map(|(e, t)| (*e - *t).norm_sqr())
                    .sum::<f64>()
                    / 64.0;
            }
            (acc / trials as f64).sqrt()
        };
        let e1 = rms_err(0.01, 2);
        let e10 = rms_err(0.1, 3);
        assert!((e10 / e1 - 10.0).abs() < 2.0, "{e10} / {e1}");
    }

    #[test]
    fn repeat_averaging_buys_sqrt_n() {
        let mut one = OfdmSounder::wiforce();
        one.n_repeats = 1;
        let five = OfdmSounder::wiforce();
        let truth = vec![Complex::ONE; 64];
        let rms = |s: &OfdmSounder, key: u64| -> f64 {
            let mut acc = 0.0;
            for t in 0..80 {
                let est = estimate(s, &truth, 0.05, key, t);
                acc += est
                    .iter()
                    .zip(&truth)
                    .map(|(e, t)| (*e - *t).norm_sqr())
                    .sum::<f64>()
                    / 64.0;
            }
            (acc / 80.0).sqrt()
        };
        let r1 = rms(&one, 4);
        let r5 = rms(&five, 5);
        let gain = r1 / r5;
        assert!((gain - 5f64.sqrt()).abs() < 0.4, "averaging gain {gain}");
    }

    #[test]
    fn estimator_tracks_frequency_selective_channel() {
        // a two-tap channel has strong per-subcarrier variation; the
        // estimator must follow it (this is what lets WiForce read phase
        // at every subcarrier independently)
        let s = OfdmSounder::wiforce();
        let offsets = s.frequency_offsets_hz();
        let truth: Vec<Complex> = offsets
            .iter()
            .map(|&df| Complex::ONE + Complex::from_polar(0.5, -wiforce_dsp::TAU * df * 2e-7))
            .collect();
        let est = estimate(&s, &truth, 0.001, 6, 0);
        for (e, t) in est.iter().zip(&truth) {
            assert!((*e - *t).abs() < 0.01);
        }
    }

    #[test]
    fn counter_path_is_order_independent() {
        // Snapshots estimated at distinct coordinates don't interact:
        // evaluating 41 after 40 or on its own gives the same bits — this
        // is the property that lets the pipeline parallelize synthesis.
        let s = OfdmSounder::wiforce();
        let truth = vec![Complex::ONE; 64];
        let est = |snapshot: u32| {
            let mut c = CounterRng::for_snapshot(77, 0, snapshot);
            let mut out = [Complex::ZERO; 64];
            s.estimate_counter_into(&truth, 0.05, &mut c, &mut out);
            out
        };
        let alone = est(41);
        let _ = est(40);
        let after = est(41);
        for (a, b) in alone.iter().zip(&after) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // distinct snapshots draw distinct noise
        assert!(alone.iter().zip(est(40).iter()).any(|(a, b)| a != b));
    }

    /// The cursors a synthesis engine hands a block: consecutive
    /// snapshots from `snap0`, each past one drawn drop decision when
    /// `drop_drawn`.
    fn block_cursors(
        key: u64,
        group: u32,
        snap0: u32,
        rows: usize,
        drop_drawn: bool,
    ) -> Vec<CounterRng> {
        (0..rows as u32)
            .map(|r| {
                let mut c = CounterRng::for_snapshot(key, group, snap0 + r);
                if drop_drawn {
                    let _ = rand::RngCore::next_u64(&mut c);
                }
                c
            })
            .collect()
    }

    #[test]
    fn law_rows_take_the_row_lanes() {
        // A block drawn from the law hands every cursor back where the
        // estimator leaves it, one lane per subcarrier past where it
        // started (lane 1 past a drawn drop decision), so the burst and
        // front-end draws after the sounder keep their lanes.
        let s = OfdmSounder::wiforce();
        let truth: Vec<Complex> = (0..64)
            .map(|k| Complex::from_polar(1.0 + 0.01 * k as f64, 0.05 * k as f64))
            .collect();
        for (rows, drop_drawn) in [(1usize, false), (37, true), (64, false)] {
            let lane0 = u32::from(drop_drawn);
            let mut block = block_cursors(0xABCD, 2, 41, rows, drop_drawn);
            let mut plane = vec![Complex::ZERO; rows * 64];
            sound_rows(&s, |_| &truth, 0.05, &mut block, &mut plane);
            let mut row = [Complex::ZERO; 64];
            for (b, mut c) in block
                .iter_mut()
                .zip(block_cursors(0xABCD, 2, 41, rows, drop_drawn))
            {
                s.estimate_counter_into(&truth, 0.05, &mut c, &mut row);
                assert_eq!(b.lane(), lane0 + 64);
                assert_eq!(c.lane(), lane0 + 64);
                assert_eq!(rand::RngCore::next_u64(b), rand::RngCore::next_u64(&mut c));
            }
        }
    }

    #[test]
    fn estimate_noise_sigma_matches_empirical_error() {
        // the advertised white-error std must match the actual estimator
        // output: per-component RMS error over many snapshots ≈ sigma
        let s = OfdmSounder::wiforce();
        let noise = 0.05;
        let sigma = s.estimate_noise_sigma(noise).expect("OFDM error is white");
        assert!((sigma - (noise * noise / 10.0).sqrt()).abs() < 1e-15);
        let truth = vec![Complex::ONE; 64];
        let trials = 200;
        let mut acc = 0.0;
        for t in 0..trials {
            let est = estimate(&s, &truth, noise, 21, t);
            acc += est
                .iter()
                .zip(&truth)
                .map(|(e, t)| (*e - *t).norm_sqr())
                .sum::<f64>();
        }
        // norm_sqr sums both components: E|e|² = 2σ²
        let per_component = (acc / (trials as usize * 64 * 2) as f64).sqrt();
        assert!(
            (per_component / sigma - 1.0).abs() < 0.05,
            "empirical {per_component} vs advertised {sigma}"
        );
    }

    /// The per-subcarrier error statistics of `snapshots` estimate rows
    /// (`errs`, snapshot-major, `n` subcarriers each) checked against
    /// circular white complex Gaussian error of per-component std
    /// `sigma`, each within 5 sampling σ of its null value on every
    /// subcarrier: the component stds, `corr(re, im)`, the correlation
    /// with the next subcarrier, and the circularity ratio
    /// `|E[e²]| / E[|e|²]`.
    fn assert_circular_white(errs: &[Complex], n: usize, sigma: f64, path: &str) {
        let t = (errs.len() / n) as f64;
        let col = |k: usize| errs.iter().skip(k).step_by(n).copied();
        for k in 0..n {
            let (mut re2, mut im2, mut reim, mut sq) = (0.0, 0.0, 0.0, Complex::ZERO);
            let mut next = Complex::ZERO;
            for (e, f) in col(k).zip(col((k + 1) % n)) {
                re2 += e.re * e.re;
                im2 += e.im * e.im;
                reim += e.re * e.im;
                sq += e * e;
                next += e * f.conj();
            }
            let power = re2 + im2;
            let next_power: f64 = col((k + 1) % n).map(|f| f.norm_sqr()).sum();
            // sample std of t normals: sd ≈ σ/√(2t)
            for (name, ss) in [("re", re2), ("im", im2)] {
                let ratio = (ss / t).sqrt() / sigma;
                assert!(
                    (ratio - 1.0).abs() < 5.0 / (2.0 * t).sqrt(),
                    "{path}: subcarrier {k} {name} std is {ratio}·sigma"
                );
            }
            let checks = [
                ("corr(re, im)", reim / (re2 * im2).sqrt(), 1.0 / t.sqrt()),
                (
                    "|corr(e_k, e_k+1)|",
                    next.abs() / (power * next_power).sqrt(),
                    1.0 / t.sqrt(),
                ),
                ("|E[e²]|/E[|e|²]", sq.abs() / power, (2.0 / t).sqrt()),
            ];
            for (name, value, sd) in checks {
                assert!(
                    value.abs() < 5.0 * sd,
                    "{path}: subcarrier {k} {name} = {value} (sampling σ {sd})"
                );
            }
        }
    }

    #[test]
    fn ofdm_estimate_noise_is_circular_and_white() {
        // 2048 snapshots of one frequency-selective truth through the
        // per-row estimator and drawn from its law (64-row blocks, each
        // row past a drawn drop decision): the estimate error must be
        // circular white complex Gaussian of the advertised per-component
        // std
        let s = OfdmSounder::wiforce();
        let n = s.n_subcarriers;
        let noise = 0.05;
        let sigma = s.estimate_noise_sigma(noise).expect("OFDM error is white");
        let truth: Vec<Complex> = s
            .frequency_offsets_hz()
            .iter()
            .map(|&df| Complex::ONE + Complex::from_polar(0.5, -wiforce_dsp::TAU * df * 2e-7))
            .collect();
        let snapshots = 2048u32;
        let errors = |est: &[Complex]| -> Vec<Complex> {
            est.chunks_exact(n)
                .flat_map(|row| row.iter().zip(&truth).map(|(e, t)| *e - *t))
                .collect()
        };

        let mut rows = vec![Complex::ZERO; snapshots as usize * n];
        for (snap, row) in rows.chunks_exact_mut(n).enumerate() {
            let mut cursor = CounterRng::for_snapshot(0x0C1C, 3, snap as u32);
            s.estimate_counter_into(&truth, noise, &mut cursor, row);
        }
        assert_circular_white(&errors(&rows), n, sigma, "per-row path");

        let block = 64;
        let mut plane = vec![Complex::ZERO; snapshots as usize * n];
        for (b, out) in plane.chunks_exact_mut(block * n).enumerate() {
            let mut cursors = block_cursors(0x0C1D, 3, (b * block) as u32, block, true);
            sound_rows(&s, |_| &truth, noise, &mut cursors, out);
        }
        assert_circular_white(&errors(&plane), n, sigma, "law path");
    }

    #[test]
    fn response_token_tracks_configuration() {
        let a = OfdmSounder::wiforce();
        assert_eq!(a.response_token(), OfdmSounder::wiforce().response_token());
        let mut b = OfdmSounder::wiforce();
        b.preamble_seed ^= 1;
        assert_ne!(a.response_token(), b.response_token());
        let mut c = OfdmSounder::wiforce();
        c.n_repeats += 1;
        assert_ne!(a.response_token(), c.response_token());
    }

    #[test]
    #[should_panic(expected = "consecutive snapshots and one lane")]
    fn plane_rows_reject_scattered_cursors() {
        let s = OfdmSounder::wiforce();
        let mut cursors = [0, 2].map(|snap| CounterRng::for_snapshot(1, 0, snap));
        let mut plane = vec![Complex::ZERO; 2 * 64];
        sound_rows(&s, |_| &[Complex::ONE; 64], 0.0, &mut cursors, &mut plane);
    }

    #[test]
    #[should_panic(expected = "one entry per subcarrier")]
    fn estimate_checks_length() {
        let s = OfdmSounder::wiforce();
        let _ = estimate(&s, &[Complex::ONE; 3], 0.0, 0, 0);
    }
}
