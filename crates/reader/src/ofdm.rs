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

use crate::sounder::{ChannelSounder, PreparedChannel};
use rand::RngCore;
use std::cell::RefCell;
use wiforce_dsp::fastmath::standard_normals_from_uniforms;
use wiforce_dsp::fft::{ifft, with_plan};
use wiforce_dsp::rng::draw_box_muller_uniforms;
use wiforce_dsp::Complex;

/// Per-thread scratch for the allocation-free OFDM estimation path:
/// cached preamble symbols and their equalization reciprocals (keyed by
/// configuration) and two reusable frame-sized buffers.
struct OfdmScratch {
    key: (usize, u64),
    symbols: Vec<Complex>,
    /// `1 / (√n · s[bin])` per bin — the LS equalization collapses to one
    /// complex multiply instead of two divisions per subcarrier.
    eq: Vec<Complex>,
    rx_sym: Vec<Complex>,
    avg: Vec<Complex>,
    u1s: Vec<f64>,
    u2s: Vec<f64>,
    normals: Vec<f64>,
    /// The four per-state payloads flattened state-major for the wide
    /// (snapshot-plane) synthesis path.
    payload_plane: Vec<Complex>,
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
            u1s: Vec::new(),
            u2s: Vec::new(),
            normals: Vec::new(),
            payload_plane: Vec::new(),
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

    fn estimate(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn RngCore,
    ) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.n_subcarriers];
        self.estimate_into(true_channel, noise_std, rng, &mut out);
        out
    }

    /// Allocation-free estimation: synthesizes and equalizes the frame in
    /// per-thread scratch buffers with planned in-place FFTs, writing the
    /// snapshot straight into `out`. Draws the identical RNG sequence (and
    /// performs the identical floating-point operations) as the paper-path
    /// [`ChannelSounder::estimate`] above.
    fn estimate_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn RngCore,
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
            let s = &scratch.symbols;

            // TX symbol → channel (freq-domain multiply, in bin order) →
            // time domain, all in the reusable rx_sym buffer
            scratch.rx_sym.resize(n, Complex::ZERO);
            for (i, &h) in true_channel.iter().enumerate() {
                let bin = (i + n - half) % n;
                scratch.rx_sym[bin] = s[bin] * h;
            }
            with_plan(n, |plan| plan.inverse_inplace(&mut scratch.rx_sym));
            scratch.rx_sym.iter_mut().for_each(|z| *z = *z * scale);

            // the averaged frame: the mean of n_repeats iid noisy copies is
            // the payload plus one complex Gaussian of variance σ²/n_repeats
            // per sample, so draw that directly (batched Box-Muller uniforms
            // in stream order, then the vectorized transform)
            let n_normals = 2 * n;
            draw_box_muller_uniforms(rng, n_normals, &mut scratch.u1s, &mut scratch.u2s);
            scratch.normals.clear();
            scratch.normals.resize(n_normals, 0.0);
            standard_normals_from_uniforms(&scratch.u1s, &scratch.u2s, &mut scratch.normals);
            let amp = (noise_std * noise_std / (2.0 * self.n_repeats as f64)).sqrt();
            scratch.avg.clear();
            scratch.avg.resize(n, Complex::ZERO);
            {
                let OfdmScratch {
                    avg,
                    rx_sym,
                    normals,
                    ..
                } = scratch;
                wiforce_dsp::kernels::accumulate_noisy(avg, rx_sym, normals, amp);
            }

            // LS equalization: FFT, multiply by the precomputed per-bin
            // reciprocals, and map bin order back to ascending offsets
            // directly into `out`
            with_plan(n, |plan| plan.forward_inplace(&mut scratch.avg));
            for (i, slot) in out.iter_mut().enumerate() {
                let bin = (i + n - half) % n;
                *slot = scratch.avg[bin] * scratch.eq[bin];
            }
        });
    }

    /// Precomputes the noiseless received preamble symbol (symbol
    /// multiply, IFFT, power scaling) so prepared estimates skip straight
    /// to the noisy-repeat averaging. A phase-group
    /// revisits only the tag's four switch states, so four of these
    /// replace hundreds of per-snapshot IFFTs.
    fn prepare(&self, true_channel: &[Complex]) -> PreparedChannel {
        let n = self.n_subcarriers;
        assert_eq!(
            true_channel.len(),
            n,
            "true_channel must have one entry per subcarrier"
        );
        let half = n / 2;
        let scale = (n as f64).sqrt();
        let mut payload = vec![Complex::ZERO; n];
        OFDM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.refresh_symbols(self);
            for (i, &h) in true_channel.iter().enumerate() {
                let bin = (i + n - half) % n;
                payload[bin] = scratch.symbols[bin] * h;
            }
        });
        with_plan(n, |plan| plan.inverse_inplace(&mut payload));
        payload.iter_mut().for_each(|z| *z = *z * scale);
        PreparedChannel {
            truth: true_channel.to_vec(),
            payload,
        }
    }

    /// Counter-addressed estimation: like [`Self::estimate_into`], but
    /// the `2n` noise normals come from the SIMD-dispatched Philox bulk
    /// kernel at the cursor's coordinates (one lane per normal) instead
    /// of the sequential Box–Muller uniform draw — so the snapshot is a
    /// pure function of `(press key, group, snapshot)`.
    fn estimate_counter_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        cursor: &mut wiforce_dsp::rng::CounterRng,
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
            let s = &scratch.symbols;

            scratch.rx_sym.resize(n, Complex::ZERO);
            for (i, &h) in true_channel.iter().enumerate() {
                let bin = (i + n - half) % n;
                scratch.rx_sym[bin] = s[bin] * h;
            }
            with_plan(n, |plan| plan.inverse_inplace(&mut scratch.rx_sym));
            scratch.rx_sym.iter_mut().for_each(|z| *z = *z * scale);

            scratch.normals.clear();
            scratch.normals.resize(2 * n, 0.0);
            cursor.fill_normals(&mut scratch.normals);
            let amp = (noise_std * noise_std / (2.0 * self.n_repeats as f64)).sqrt();
            scratch.avg.clear();
            scratch.avg.resize(n, Complex::ZERO);
            {
                let OfdmScratch {
                    avg,
                    rx_sym,
                    normals,
                    ..
                } = scratch;
                wiforce_dsp::kernels::accumulate_noisy(avg, rx_sym, normals, amp);
            }

            with_plan(n, |plan| plan.forward_inplace(&mut scratch.avg));
            for (i, slot) in out.iter_mut().enumerate() {
                let bin = (i + n - half) % n;
                *slot = scratch.avg[bin] * scratch.eq[bin];
            }
        });
    }

    /// Counter-addressed prepared path: identical draws (the same `2n`
    /// Philox lanes) and arithmetic as [`Self::estimate_counter_into`],
    /// with the precomputed payload standing in for `rx_sym` — so the two
    /// counter paths match bit-for-bit (pinned by a test).
    fn estimate_prepared_counter_into(
        &self,
        prepared: &PreparedChannel,
        noise_std: f64,
        cursor: &mut wiforce_dsp::rng::CounterRng,
        out: &mut [Complex],
    ) {
        let n = self.n_subcarriers;
        assert_eq!(
            prepared.payload.len(),
            n,
            "prepared payload must match the sounder configuration"
        );
        assert_eq!(out.len(), n, "output buffer must match the estimate grid");
        let half = n / 2;
        OFDM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.refresh_symbols(self);

            scratch.normals.clear();
            scratch.normals.resize(2 * n, 0.0);
            cursor.fill_normals(&mut scratch.normals);
            let amp = (noise_std * noise_std / (2.0 * self.n_repeats as f64)).sqrt();
            scratch.avg.clear();
            scratch.avg.resize(n, Complex::ZERO);
            {
                let OfdmScratch { avg, normals, .. } = scratch;
                wiforce_dsp::kernels::accumulate_noisy(avg, &prepared.payload, normals, amp);
            }

            with_plan(n, |plan| plan.forward_inplace(&mut scratch.avg));
            for (i, slot) in out.iter_mut().enumerate() {
                let bin = (i + n - half) % n;
                *slot = scratch.avg[bin] * scratch.eq[bin];
            }
        });
    }

    /// Wide (structure-of-arrays) synthesis: fills a whole plane of
    /// snapshot rows per call. The Philox plane kernel draws the same
    /// `2n` lanes per row that [`Self::estimate_prepared_counter_into`]
    /// draws through its cursor, the row-plane accumulate performs the
    /// identical per-element arithmetic, the per-row forward FFTs reuse
    /// the same cached plan, and the equalize/reorder kernel replicates
    /// the scalar output loop — so each row is bit-identical to the
    /// row-at-a-time path (pinned by a test). Returns `Some(2n)`: the
    /// lanes each snapshot's cursor consumed.
    fn estimate_prepared_counter_rows_into(
        &self,
        prepared: &[PreparedChannel],
        states: &[u8],
        noise_std: f64,
        key: u64,
        group: u32,
        snap0: u32,
        out: &mut [Complex],
    ) -> Option<u32> {
        let n = self.n_subcarriers;
        let rows = states.len();
        assert_eq!(
            out.len(),
            rows * n,
            "output plane must hold one estimate row per state"
        );
        for p in prepared {
            assert_eq!(
                p.payload.len(),
                n,
                "prepared payload must match the sounder configuration"
            );
        }
        OFDM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.refresh_symbols(self);

            scratch.payload_plane.clear();
            for p in prepared {
                scratch.payload_plane.extend_from_slice(&p.payload);
            }

            let n_normals = 2 * n;
            scratch.normals.clear();
            scratch.normals.resize(rows * n_normals, 0.0);
            let kf = [key as u32, (key >> 32) as u32];
            wiforce_dsp::kernels::philox_normals_rows(
                kf,
                [group, wiforce_dsp::rng::DOMAIN_SNAPSHOT],
                snap0,
                n_normals,
                &mut scratch.normals,
            );
            let amp = (noise_std * noise_std / (2.0 * self.n_repeats as f64)).sqrt();
            scratch.avg.clear();
            scratch.avg.resize(rows * n, Complex::ZERO);
            {
                let OfdmScratch {
                    avg,
                    payload_plane,
                    normals,
                    ..
                } = scratch;
                wiforce_dsp::kernels::accumulate_noisy_rows(
                    avg,
                    payload_plane,
                    states,
                    normals,
                    amp,
                );
            }

            with_plan(n, |plan| plan.forward_rows_inplace(&mut scratch.avg, rows));
            {
                let OfdmScratch { avg, eq, .. } = scratch;
                wiforce_dsp::kernels::eq_reorder_rows(out, avg, eq);
            }
        });
        Some(2 * n as u32)
    }

    /// The five configuration fields fully determine the preamble
    /// symbols, the IFFT plan and the scaling — i.e. everything
    /// [`Self::prepare`] does — so their raw bits are the response-table
    /// identity.
    fn response_token(&self) -> Option<u64> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in [
            self.n_subcarriers as u64,
            self.bandwidth_hz.to_bits(),
            self.n_repeats as u64,
            self.zero_pad as u64,
            self.preamble_seed,
        ] {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Some(h)
    }

    fn seq_normals_per_estimate(&self) -> Option<usize> {
        Some(2 * self.n_subcarriers)
    }

    /// OFDM estimate error is exactly white and uniform across
    /// subcarriers: the averaged frame carries complex AWGN of
    /// per-component std `amp = √(σ²/(2·n_repeats))`, the unnormalized
    /// forward FFT scales white noise by `√n`, and the LS equalizers have
    /// modulus `1/√n` for the unit-modulus QPSK preamble — the two cancel,
    /// leaving per-component std `amp` on every subcarrier.
    fn estimate_noise_sigma(&self, noise_std: f64) -> Option<f64> {
        Some((noise_std * noise_std / (2.0 * self.n_repeats as f64)).sqrt())
    }

    /// Sequential wide path: per-snapshot truths (the batch engine's
    /// multi-stream blend makes every row distinct), noise pre-drawn by
    /// the caller in stream order. The per-row symbol multiply + planned
    /// IFFT + scale is element-for-element the `rx_sym` build in
    /// [`Self::estimate_into`], and the noisy-average/FFT/equalize tail
    /// reuses the same plane kernels as the counter wide path — so each
    /// row is bit-identical to a row-at-a-time call (pinned by a test).
    fn estimate_rows_prenoise_into(
        &self,
        truths: &[Complex],
        noise_std: f64,
        normals: &[f64],
        out: &mut [Complex],
    ) -> bool {
        let n = self.n_subcarriers;
        let rows = out.len() / n.max(1);
        assert_eq!(out.len(), rows * n, "output plane must be whole rows");
        assert_eq!(truths.len(), rows * n, "one truth row per estimate row");
        assert_eq!(normals.len(), rows * 2 * n, "2n pre-drawn normals per row");
        assert!(rows <= 256, "u8 row index: synthesize in blocks of ≤256");
        let half = n / 2;
        let scale = (n as f64).sqrt();
        OFDM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.refresh_symbols(self);

            // per-row payloads (rows are distinct channels here, so the
            // payload plane is row-major instead of state-major)
            scratch.payload_plane.clear();
            scratch.payload_plane.resize(rows * n, Complex::ZERO);
            for (prow, trow) in scratch
                .payload_plane
                .chunks_exact_mut(n)
                .zip(truths.chunks_exact(n))
            {
                let s = &scratch.symbols;
                for (i, &h) in trow.iter().enumerate() {
                    let bin = (i + n - half) % n;
                    prow[bin] = s[bin] * h;
                }
            }
            with_plan(n, |plan| {
                plan.inverse_rows_inplace(&mut scratch.payload_plane, rows)
            });
            scratch
                .payload_plane
                .iter_mut()
                .for_each(|z| *z = *z * scale);

            let amp = (noise_std * noise_std / (2.0 * self.n_repeats as f64)).sqrt();
            scratch.avg.clear();
            scratch.avg.resize(rows * n, Complex::ZERO);
            let mut idx = [0u8; 256];
            for (r, slot) in idx.iter_mut().enumerate().take(rows) {
                *slot = r as u8;
            }
            {
                let OfdmScratch {
                    avg, payload_plane, ..
                } = scratch;
                wiforce_dsp::kernels::accumulate_noisy_rows(
                    avg,
                    payload_plane,
                    &idx[..rows],
                    normals,
                    amp,
                );
            }

            with_plan(n, |plan| plan.forward_rows_inplace(&mut scratch.avg, rows));
            {
                let OfdmScratch { avg, eq, .. } = scratch;
                wiforce_dsp::kernels::eq_reorder_rows(out, avg, eq);
            }
        });
        true
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let mut rng = StdRng::seed_from_u64(1);
        let truth: Vec<Complex> = (0..64)
            .map(|k| Complex::from_polar(1.0 + 0.01 * k as f64, 0.05 * k as f64))
            .collect();
        let est = s.estimate(&truth, 0.0, &mut rng);
        for (e, t) in est.iter().zip(&truth) {
            assert!((*e - *t).abs() < 1e-9, "{e:?} vs {t:?}");
        }
    }

    #[test]
    fn estimate_error_scales_with_noise() {
        let s = OfdmSounder::wiforce();
        let truth = vec![Complex::ONE; 64];
        let rms_err = |noise: f64, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut acc = 0.0;
            let trials = 50;
            for _ in 0..trials {
                let est = s.estimate(&truth, noise, &mut rng);
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
        let rms = |s: &OfdmSounder, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut acc = 0.0;
            for _ in 0..80 {
                let est = s.estimate(&truth, 0.05, &mut rng);
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
        let mut rng = StdRng::seed_from_u64(6);
        let est = s.estimate(&truth, 0.001, &mut rng);
        for (e, t) in est.iter().zip(&truth) {
            assert!((*e - *t).abs() < 0.01);
        }
    }

    #[test]
    fn counter_prepared_path_is_bit_identical() {
        use wiforce_dsp::rng::CounterRng;
        let s = OfdmSounder::wiforce();
        let truth: Vec<Complex> = (0..64)
            .map(|k| Complex::from_polar(1.0 + 0.01 * k as f64, 0.05 * k as f64))
            .collect();
        let prepared = s.prepare(&truth);
        for noise in [0.0, 0.05] {
            let mut a = CounterRng::for_snapshot(0xABCD, 2, 41);
            let mut b = CounterRng::for_snapshot(0xABCD, 2, 41);
            let mut direct = [Complex::ZERO; 64];
            let mut fast = [Complex::ZERO; 64];
            s.estimate_counter_into(&truth, noise, &mut a, &mut direct);
            s.estimate_prepared_counter_into(&prepared, noise, &mut b, &mut fast);
            for (d, f) in direct.iter().zip(&fast) {
                assert_eq!(d.re.to_bits(), f.re.to_bits());
                assert_eq!(d.im.to_bits(), f.im.to_bits());
            }
            // both paths consumed the same 2n lanes
            assert_eq!(a.lane(), 128);
            assert_eq!(b.lane(), 128);
        }
    }

    #[test]
    fn counter_path_is_order_independent() {
        // Snapshots estimated at distinct coordinates don't interact:
        // evaluating 41 after 40 or on its own gives the same bits — this
        // is the property that lets the pipeline parallelize synthesis.
        use wiforce_dsp::rng::CounterRng;
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

    #[test]
    fn counter_noise_matches_sequential_in_rms() {
        // The counter path swaps the noise source, not the noise model:
        // RMS estimation error over many snapshots must agree with the
        // sequential path at the same σ.
        use wiforce_dsp::rng::CounterRng;
        let s = OfdmSounder::wiforce();
        let truth = vec![Complex::ONE; 64];
        let trials = 120;
        let mut seq_rng = StdRng::seed_from_u64(8);
        let mut acc_seq = 0.0;
        let mut acc_ctr = 0.0;
        let mut out = [Complex::ZERO; 64];
        for t in 0..trials {
            s.estimate_into(&truth, 0.05, &mut seq_rng, &mut out);
            acc_seq += out
                .iter()
                .map(|e| (*e - Complex::ONE).norm_sqr())
                .sum::<f64>()
                / 64.0;
            let mut c = CounterRng::for_snapshot(13, 0, t);
            s.estimate_counter_into(&truth, 0.05, &mut c, &mut out);
            acc_ctr += out
                .iter()
                .map(|e| (*e - Complex::ONE).norm_sqr())
                .sum::<f64>()
                / 64.0;
        }
        let rms_seq = (acc_seq / trials as f64).sqrt();
        let rms_ctr = (acc_ctr / trials as f64).sqrt();
        assert!(
            (rms_ctr / rms_seq - 1.0).abs() < 0.1,
            "counter {rms_ctr} vs sequential {rms_seq}"
        );
    }

    #[test]
    fn wide_rows_path_is_bit_identical_to_row_path() {
        use wiforce_dsp::rng::CounterRng;
        let s = OfdmSounder::wiforce();
        // four distinct "switch state" channels, as the pipeline prepares
        let prepared: Vec<PreparedChannel> = (0..4)
            .map(|st| {
                let truth: Vec<Complex> = (0..64)
                    .map(|k| Complex::from_polar(1.0 + 0.01 * k as f64, 0.03 * (k + st) as f64))
                    .collect();
                s.prepare(&truth)
            })
            .collect();
        let key = 0x00C0_FFEE_u64 | (7u64 << 40);
        let group = 3u32;
        let snap0 = 11u32;
        let states: Vec<u8> = (0..37u8).map(|r| (r.wrapping_mul(7) >> 1) % 4).collect();
        let rows = states.len();
        for noise in [0.0, 0.05] {
            let mut plane = vec![Complex::ZERO; rows * 64];
            let lanes = s
                .estimate_prepared_counter_rows_into(
                    &prepared, &states, noise, key, group, snap0, &mut plane,
                )
                .expect("OFDM has a wide path");
            assert_eq!(lanes, 128);
            for (r, &st) in states.iter().enumerate() {
                let mut cursor = CounterRng::for_snapshot(key, group, snap0 + r as u32);
                let mut row = [Complex::ZERO; 64];
                s.estimate_prepared_counter_into(
                    &prepared[usize::from(st)],
                    noise,
                    &mut cursor,
                    &mut row,
                );
                for (i, (w, x)) in plane[r * 64..(r + 1) * 64].iter().zip(&row).enumerate() {
                    assert_eq!(w.re.to_bits(), x.re.to_bits(), "r={r} i={i}");
                    assert_eq!(w.im.to_bits(), x.im.to_bits(), "r={r} i={i}");
                }
                // a fresh cursor skipped by the returned lane count lands in
                // the same state as the one the row path consumed
                let mut skipped = CounterRng::for_snapshot(key, group, snap0 + r as u32);
                skipped.skip_normals(lanes as usize);
                assert_eq!(cursor.lane(), skipped.lane());
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
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 200;
        let mut acc = 0.0;
        for _ in 0..trials {
            let est = s.estimate(&truth, noise, &mut rng);
            acc += est
                .iter()
                .zip(&truth)
                .map(|(e, t)| (*e - *t).norm_sqr())
                .sum::<f64>();
        }
        // norm_sqr sums both components: E|e|² = 2σ²
        let per_component = (acc / (trials * 64 * 2) as f64).sqrt();
        assert!(
            (per_component / sigma - 1.0).abs() < 0.05,
            "empirical {per_component} vs advertised {sigma}"
        );
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
    fn seq_wide_path_is_bit_identical_to_row_path() {
        // the batch producer's wide path: per-snapshot truths, noise
        // pre-drawn from one sequential RNG in stream order
        let s = OfdmSounder::wiforce();
        let npr = s.seq_normals_per_estimate().expect("OFDM advertises one");
        assert_eq!(npr, 128);
        let rows = 23usize;
        let truths: Vec<Complex> = (0..rows * 64)
            .map(|i| Complex::from_polar(1.0 + 1e-3 * (i % 97) as f64, 0.02 * (i % 61) as f64))
            .collect();
        for noise in [0.0, 0.05] {
            // pre-draw, exactly as the producer does
            let mut rng = StdRng::seed_from_u64(77);
            let (mut u1s, mut u2s) = (Vec::new(), Vec::new());
            let mut normals = vec![0.0; rows * npr];
            for r in 0..rows {
                wiforce_dsp::rng::draw_box_muller_uniforms(&mut rng, npr, &mut u1s, &mut u2s);
                wiforce_dsp::fastmath::standard_normals_from_uniforms(
                    &u1s,
                    &u2s,
                    &mut normals[r * npr..(r + 1) * npr],
                );
            }
            let mut plane = vec![Complex::ZERO; rows * 64];
            assert!(s.estimate_rows_prenoise_into(&truths, noise, &normals, &mut plane));

            let mut row_rng = StdRng::seed_from_u64(77);
            let mut row = [Complex::ZERO; 64];
            for r in 0..rows {
                s.estimate_into(&truths[r * 64..(r + 1) * 64], noise, &mut row_rng, &mut row);
                for (w, x) in plane[r * 64..(r + 1) * 64].iter().zip(&row) {
                    assert_eq!(w.re.to_bits(), x.re.to_bits(), "row {r}");
                    assert_eq!(w.im.to_bits(), x.im.to_bits(), "row {r}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one entry per subcarrier")]
    fn estimate_checks_length() {
        let s = OfdmSounder::wiforce();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = s.estimate(&[Complex::ONE; 3], 0.0, &mut rng);
    }
}
