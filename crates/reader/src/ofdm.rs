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
use std::cell::RefCell;
use wiforce_dsp::fft::{ifft, with_plan};
use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::Complex;

/// Per-thread scratch for the allocation-free OFDM estimation path:
/// cached preamble symbols and their equalization reciprocals (keyed by
/// configuration) and reusable frame- and plane-sized buffers.
struct OfdmScratch {
    key: (usize, u64),
    symbols: Vec<Complex>,
    /// `1 / (√n · s[bin])` per bin — the LS equalization collapses to one
    /// complex multiply instead of two divisions per subcarrier.
    eq: Vec<Complex>,
    rx_sym: Vec<Complex>,
    avg: Vec<Complex>,
    /// The averaged frame's complex noise: one standard complex normal
    /// (one Philox lane) per sample, or a plane of such rows.
    normals: Vec<Complex>,
    /// Noiseless received symbols for the plane paths: the four
    /// per-state payloads state-major, or one payload per truth row.
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

    /// The shared plane tail: the Philox plane kernel draws row `r`'s
    /// `n` complex lanes where `cursors[r]` stands — the lanes
    /// [`OfdmSounder::estimate_counter_into`] draws through that cursor —
    /// then
    /// `payload_plane[states[r]]` is averaged with them, every row is
    /// FFT'd and the equalize/reorder kernel writes `out`. Each kernel
    /// replays the row tail's per-element arithmetic, so each row is
    /// bit-identical to it, and each cursor is left where the row tail
    /// leaves it.
    fn finish_plane(
        &mut self,
        states: &[u8],
        amp: f64,
        cursors: &mut [CounterRng],
        out: &mut [Complex],
    ) {
        let n = self.eq.len();
        let rows = states.len();
        let (key, grp_dom, snap0, lane0) = plane_origin(cursors);
        self.normals.clear();
        self.normals.resize(rows * n, Complex::ZERO);
        wiforce_dsp::kernels::philox_complex_normals_rows(
            key,
            grp_dom,
            snap0,
            lane0,
            n,
            &mut self.normals,
        );
        cursors.iter_mut().for_each(|c| c.skip_normals(n));
        self.avg.clear();
        self.avg.resize(rows * n, Complex::ZERO);
        wiforce_dsp::kernels::accumulate_noisy_rows(
            &mut self.avg,
            &self.payload_plane,
            states,
            &self.normals,
            amp,
        );
        with_plan(n, |plan| plan.forward_rows_inplace(&mut self.avg, rows));
        wiforce_dsp::kernels::eq_reorder_rows(out, &self.avg, &self.eq);
    }
}

/// The plane coordinates `(key, [group, domain], snap0, lane0)` of a
/// block's cursors, which the plane kernel needs at consecutive
/// snapshots of one `(key, domain, group)` at one common lane — as both
/// synthesis engines position them (lane 1 when a drop decision drew
/// first, else 0).
///
/// # Panics
/// Panics if `cursors` is empty or not laid out that way.
fn plane_origin(cursors: &[CounterRng]) -> ([u32; 2], [u32; 2], u32, u32) {
    let (key, hi, lane) = cursors[0].position();
    for (r, c) in cursors.iter().enumerate() {
        let want = (key, [hi[0].wrapping_add(r as u32), hi[1], hi[2]], lane);
        assert!(
            c.position() == want,
            "plane rows need cursors at consecutive snapshots and one lane"
        );
    }
    (key, [hi[1], hi[2]], hi[0], lane)
}

/// `ROW_INDEX[r] == r`: the state lane of a plane whose rows each carry
/// their own payload.
const ROW_INDEX: [u8; 256] = {
    let mut idx = [0u8; 256];
    let mut r = 0;
    while r < 256 {
        idx[r] = r as u8;
        r += 1;
    }
    idx
};

thread_local! {
    static OFDM_SCRATCH: RefCell<OfdmScratch> = const {
        RefCell::new(OfdmScratch {
            key: (0, 0),
            symbols: Vec::new(),
            eq: Vec::new(),
            rx_sym: Vec::new(),
            avg: Vec::new(),
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

    /// Precomputes the noiseless received preamble symbol (symbol
    /// multiply, IFFT, power scaling) so the block path skips straight
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

    /// Plane synthesis from the four per-state payloads: state-major
    /// payload plane, then the shared plane tail. Each payload is the
    /// `rx_sym` [`Self::estimate_counter_into`] builds from that state's
    /// truth, so each row is bit-identical to it.
    fn estimate_prepared_counter_rows_into(
        &self,
        prepared: &[PreparedChannel],
        states: &[u8],
        noise_std: f64,
        cursors: &mut [CounterRng],
        out: &mut [Complex],
    ) {
        let n = self.n_subcarriers;
        assert_eq!(
            out.len(),
            states.len() * n,
            "output plane must hold one estimate row per state"
        );
        assert_eq!(cursors.len(), states.len(), "one cursor per row");
        for p in prepared {
            assert_eq!(
                p.payload.len(),
                n,
                "prepared payload must match the sounder configuration"
            );
        }
        if states.is_empty() {
            return;
        }
        OFDM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.refresh_symbols(self);
            scratch.payload_plane.clear();
            for p in prepared {
                scratch.payload_plane.extend_from_slice(&p.payload);
            }
            let amp = self.frame_amp(noise_std);
            scratch.finish_plane(states, amp, cursors, out);
        });
    }

    /// Plane synthesis from per-snapshot truths: each row's symbol
    /// multiply + planned IFFT + scale is element-for-element the
    /// `rx_sym` build of [`Self::estimate_counter_into`], one payload per
    /// row, then the shared plane tail.
    fn estimate_counter_rows_into(
        &self,
        truths: &[Complex],
        noise_std: f64,
        cursors: &mut [CounterRng],
        out: &mut [Complex],
    ) {
        let n = self.n_subcarriers;
        let rows = cursors.len();
        assert_eq!(out.len(), rows * n, "one estimate row per cursor");
        assert_eq!(truths.len(), rows * n, "one truth row per estimate row");
        assert!(
            rows <= ROW_INDEX.len(),
            "u8 row index: synthesize in blocks of ≤256"
        );
        if rows == 0 {
            return;
        }
        let half = n / 2;
        let scale = (n as f64).sqrt();
        OFDM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.refresh_symbols(self);
            scratch.payload_plane.clear();
            scratch.payload_plane.resize(rows * n, Complex::ZERO);
            for (prow, trow) in scratch
                .payload_plane
                .chunks_exact_mut(n)
                .zip(truths.chunks_exact(n))
            {
                for (i, &h) in trow.iter().enumerate() {
                    let bin = (i + n - half) % n;
                    prow[bin] = scratch.symbols[bin] * h;
                }
            }
            with_plan(n, |plan| {
                plan.inverse_rows_inplace(&mut scratch.payload_plane, rows)
            });
            scratch
                .payload_plane
                .iter_mut()
                .for_each(|z| *z = *z * scale);
            let amp = self.frame_amp(noise_std);
            scratch.finish_plane(&ROW_INDEX[..rows], amp, cursors, out);
        });
    }

    /// The five configuration fields fully determine the preamble
    /// symbols, the IFFT plan and the scaling — i.e. everything
    /// [`Self::prepare`] does — so their raw bits are the response-table
    /// identity.
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
    /// leaving per-component std `amp` on every subcarrier.
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

    /// Serializes the tests that hold the SIMD dispatch to scalar: a hold
    /// reaches every thread, so it would turn another test's detected pass
    /// into a second scalar one.
    static SCALAR_HOLDS: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
    fn counter_prepared_path_is_bit_identical() {
        // one row through the prepared block path matches the truth path
        // at the same coordinate, and both consume one lane per subcarrier
        let s = OfdmSounder::wiforce();
        let truth: Vec<Complex> = (0..64)
            .map(|k| Complex::from_polar(1.0 + 0.01 * k as f64, 0.05 * k as f64))
            .collect();
        let prepared = [s.prepare(&truth)];
        for noise in [0.0, 0.05] {
            let mut a = CounterRng::for_snapshot(0xABCD, 2, 41);
            let mut b = [CounterRng::for_snapshot(0xABCD, 2, 41)];
            let mut direct = [Complex::ZERO; 64];
            let mut fast = [Complex::ZERO; 64];
            s.estimate_counter_into(&truth, noise, &mut a, &mut direct);
            s.estimate_prepared_counter_rows_into(&prepared, &[0], noise, &mut b, &mut fast);
            for (d, f) in direct.iter().zip(&fast) {
                assert_eq!(d.re.to_bits(), f.re.to_bits());
                assert_eq!(d.im.to_bits(), f.im.to_bits());
            }
            assert_eq!(a.lane(), 64);
            assert_eq!(b[0].lane(), 64);
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
    fn wide_rows_path_is_bit_identical_to_row_path() {
        let _one = SCALAR_HOLDS.lock().unwrap_or_else(|e| e.into_inner());
        for scalar in [false, true] {
            let _scalar = scalar.then(wiforce_dsp::kernels::hold_scalar);
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
            // a drop decision drawn first moves every row's lanes up by one
            for (noise, drop_drawn) in [(0.0, false), (0.05, false), (0.05, true)] {
                let mut plane = vec![Complex::ZERO; rows * 64];
                let mut cursors = block_cursors(key, group, snap0, rows, drop_drawn);
                s.estimate_prepared_counter_rows_into(
                    &prepared,
                    &states,
                    noise,
                    &mut cursors,
                    &mut plane,
                );
                let mut rows_cursors = block_cursors(key, group, snap0, rows, drop_drawn);
                for ((r, &st), cursor) in states.iter().enumerate().zip(&mut rows_cursors) {
                    let mut row = [Complex::ZERO; 64];
                    s.estimate_counter_into(
                        &prepared[usize::from(st)].truth,
                        noise,
                        cursor,
                        &mut row,
                    );
                    for (i, (w, x)) in plane[r * 64..(r + 1) * 64].iter().zip(&row).enumerate() {
                        assert_eq!(w.re.to_bits(), x.re.to_bits(), "r={r} i={i}");
                        assert_eq!(w.im.to_bits(), x.im.to_bits(), "r={r} i={i}");
                    }
                    // the block hands its cursor back where the row call
                    // leaves it, ready for the burst and front-end draws
                    assert_eq!(cursors[r].lane(), cursor.lane());
                    assert_eq!(
                        rand::RngCore::next_u64(&mut cursors[r]),
                        rand::RngCore::next_u64(cursor)
                    );
                }
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
        // per-row path and the plane path (64-row blocks, each row past a
        // drawn drop decision): the estimate error must be circular white
        // complex Gaussian of the advertised per-component std
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

        let prepared = [s.prepare(&truth)];
        let block = 64;
        let mut plane = vec![Complex::ZERO; snapshots as usize * n];
        for (b, out) in plane.chunks_exact_mut(block * n).enumerate() {
            let mut cursors = block_cursors(0x0C1D, 3, (b * block) as u32, block, true);
            s.estimate_prepared_counter_rows_into(&prepared, &[0; 64], noise, &mut cursors, out);
        }
        assert_circular_white(&errors(&plane), n, sigma, "plane path");
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
    fn wide_truth_rows_path_is_bit_identical_to_row_path() {
        let _one = SCALAR_HOLDS.lock().unwrap_or_else(|e| e.into_inner());
        for scalar in [false, true] {
            let _scalar = scalar.then(wiforce_dsp::kernels::hold_scalar);
            // the truth-plane path (movers, the batch producer): each row must
            // match a row-at-a-time estimate on its cursor, and leave that
            // cursor where the row call stops
            let s = OfdmSounder::wiforce();
            let (key, group, snap0) = (0x7EA5_u64 << 33 | 0x77, 5u32, 130u32);
            for rows in [1usize, 23, 64] {
                let truths: Vec<Complex> = (0..rows * 64)
                    .map(|i| {
                        Complex::from_polar(1.0 + 1e-3 * (i % 97) as f64, 0.02 * (i % 61) as f64)
                    })
                    .collect();
                for (noise, drop_drawn) in [(0.0, false), (0.05, false), (0.05, true)] {
                    let mut plane = vec![Complex::ZERO; rows * 64];
                    let mut cursors = block_cursors(key, group, snap0, rows, drop_drawn);
                    s.estimate_counter_rows_into(&truths, noise, &mut cursors, &mut plane);
                    let mut row = [Complex::ZERO; 64];
                    let mut rows_cursors = block_cursors(key, group, snap0, rows, drop_drawn);
                    for (r, cursor) in rows_cursors.iter_mut().enumerate() {
                        s.estimate_counter_into(
                            &truths[r * 64..(r + 1) * 64],
                            noise,
                            cursor,
                            &mut row,
                        );
                        for (i, (w, x)) in plane[r * 64..(r + 1) * 64].iter().zip(&row).enumerate()
                        {
                            assert_eq!(w.re.to_bits(), x.re.to_bits(), "rows={rows} r={r} i={i}");
                            assert_eq!(w.im.to_bits(), x.im.to_bits(), "rows={rows} r={r} i={i}");
                        }
                        assert_eq!(cursors[r].lane(), cursor.lane());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "consecutive snapshots and one lane")]
    fn plane_rows_reject_scattered_cursors() {
        let s = OfdmSounder::wiforce();
        let mut cursors = [0, 2].map(|snap| CounterRng::for_snapshot(1, 0, snap));
        let mut plane = vec![Complex::ZERO; 2 * 64];
        s.estimate_counter_rows_into(&vec![Complex::ONE; 2 * 64], 0.0, &mut cursors, &mut plane);
    }

    #[test]
    #[should_panic(expected = "one entry per subcarrier")]
    fn estimate_checks_length() {
        let s = OfdmSounder::wiforce();
        let _ = estimate(&s, &[Complex::ONE; 3], 0.0, 0, 0);
    }
}
