//! The channel-sounder abstraction.
//!
//! WiForce needs one thing from the physical layer: a periodic vector of
//! per-frequency channel estimates `H[k, n]`. Both the OFDM reader (what
//! the paper built) and an FMCW radar front end (what the paper argues
//! would work equally well) provide it; the sensing algorithm in
//! `wiforce` is written against this trait.

use rand::RngCore;
use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::Complex;

/// A true channel pre-processed by a sounder for repeated estimation.
///
/// Simulations evaluate the same true channel many times (a tag's switch
/// only has four states, so a whole phase-group revisits four channels
/// over hundreds of snapshots). [`ChannelSounder::prepare`] folds the
/// channel-dependent, noise-independent part of the estimation forward
/// model — for OFDM, the symbol multiply and the IFFT to the time domain —
/// into this struct once, and
/// [`ChannelSounder::estimate_prepared_counter_into`] reuses it per
/// snapshot.
#[derive(Debug, Clone)]
pub struct PreparedChannel {
    /// The true per-frequency channel this was prepared from (ascending
    /// grid order, one entry per estimate frequency).
    pub truth: Vec<Complex>,
    /// Sounder-specific precomputation (for OFDM: the noiseless received
    /// preamble symbol in the time domain, post-IFFT and scaling). Empty
    /// when the sounder has no prepared fast path.
    pub payload: Vec<Complex>,
}

/// A device that periodically estimates the channel at a fixed grid of
/// frequency offsets around the carrier.
pub trait ChannelSounder {
    /// Frequency offsets of the estimate grid relative to the carrier, Hz
    /// (e.g. OFDM subcarrier offsets), ascending.
    fn frequency_offsets_hz(&self) -> Vec<f64>;

    /// Time between consecutive channel estimates, s (the paper's `T`).
    fn snapshot_period_s(&self) -> f64;

    /// Duration over which one estimate actually observes the channel, s.
    ///
    /// Sounders rarely integrate the whole snapshot period: the OFDM
    /// reader correlates over its 320-sample preamble and then idles
    /// through the zero padding; an FMCW radar observes during the sweep
    /// only. Time-varying effects (tag modulation, Doppler) are averaged
    /// over this window, not sampled at an instant — simulations that
    /// ignore it alias the tag's square-wave harmonics across Doppler
    /// bins. Defaults to the full snapshot period.
    fn integration_window_s(&self) -> f64 {
        self.snapshot_period_s()
    }

    /// Produces one channel-estimate snapshot given the true channel at
    /// each grid frequency and a per-sample receiver noise level
    /// (std-dev of complex AWGN relative to unit TX amplitude).
    ///
    /// Implementations synthesize their actual waveform, push it through
    /// the (frequency-domain) channel, add noise and run their estimator —
    /// so estimation gain/loss is real, not assumed.
    fn estimate(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn RngCore,
    ) -> Vec<Complex>;

    /// Like [`Self::estimate`], but writes the snapshot into a
    /// caller-provided buffer instead of allocating — the hot path for
    /// streaming simulation, where the buffer is a row of a
    /// `wiforce_dsp::snapshots::SnapshotMatrix`.
    ///
    /// The default implementation just copies the allocating path;
    /// performance-sensitive sounders override it with a buffer-reusing
    /// implementation that draws the *same* RNG sequence.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the estimate grid size.
    fn estimate_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn RngCore,
        out: &mut [Complex],
    ) {
        let est = self.estimate(true_channel, noise_std, rng);
        assert_eq!(
            out.len(),
            est.len(),
            "output buffer must match the estimate grid"
        );
        out.copy_from_slice(&est);
    }

    /// Folds the channel-dependent, noise-independent part of the
    /// estimation forward model into a [`PreparedChannel`] for repeated
    /// use with [`Self::estimate_prepared_counter_into`].
    ///
    /// The default keeps only the truth (no precomputation), which the
    /// default `estimate_prepared_counter_into` feeds back through
    /// [`Self::estimate_counter_into`] — correct for every sounder, fast
    /// for none.
    fn prepare(&self, true_channel: &[Complex]) -> PreparedChannel {
        PreparedChannel {
            truth: true_channel.to_vec(),
            payload: Vec::new(),
        }
    }

    /// Like [`Self::estimate_into`], but drawing noise from a
    /// counter-addressed cursor instead of a sequential stream. The
    /// cursor is pinned to one simulation coordinate (press key, group,
    /// snapshot), so the produced estimate is a pure function of that
    /// coordinate — snapshots can be synthesized out of order and across
    /// threads with bit-identical results.
    ///
    /// The default drives the sequential path with the cursor's
    /// [`RngCore`] view, which is already order-independent across
    /// snapshots; sounders with a bulk noise fill override this to hit
    /// the SIMD counter kernel directly. Implementations may consume the
    /// cursor's lanes in a different pattern than the sequential path —
    /// only self-consistency at a fixed coordinate is promised.
    fn estimate_counter_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        cursor: &mut CounterRng,
        out: &mut [Complex],
    ) {
        self.estimate_into(true_channel, noise_std, cursor, out);
    }

    /// Like [`Self::estimate_counter_into`], but starting from a
    /// [`PreparedChannel`] built by [`Self::prepare`] on the same sounder
    /// configuration. Must be bit-identical to
    /// `estimate_counter_into(&prepared.truth, …)` with a cursor at the
    /// same coordinates.
    fn estimate_prepared_counter_into(
        &self,
        prepared: &PreparedChannel,
        noise_std: f64,
        cursor: &mut CounterRng,
        out: &mut [Complex],
    ) {
        self.estimate_counter_into(&prepared.truth, noise_std, cursor, out);
    }

    /// Wide (structure-of-arrays) twin of
    /// [`Self::estimate_prepared_counter_into`]: synthesizes a whole
    /// block of snapshots in one call. `prepared` holds one
    /// [`PreparedChannel`] per tag switch state (index = state),
    /// `states[r]` selects the state of snapshot `snap0 + r`, and `out`
    /// is a snapshot-major plane of `states.len()` rows of grid-size
    /// estimates. Noise is drawn straight from the counter kernel at
    /// coordinates `(key, group, snap0 + r, lane)`.
    ///
    /// Returns `Some(lanes)` — the number of cursor lanes each row
    /// consumed — when the sounder has a wide fast path; the caller then
    /// positions per-snapshot cursors with
    /// [`CounterRng::skip_normals`]`(lanes)` before any remaining scalar
    /// draw sites (burst faults, front-end jitter). Returns `None` when
    /// no wide path exists (the default), telling the caller to fall
    /// back to row-at-a-time synthesis. When it returns `Some`, each row
    /// of `out` must be bit-identical to an
    /// `estimate_prepared_counter_into(&prepared[states[r]], …)` call
    /// with a fresh cursor at `(key, group, snap0 + r)`.
    #[allow(clippy::too_many_arguments)]
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
        let _ = (prepared, states, noise_std, key, group, snap0, out);
        None
    }

    /// Number of standard normals one sequential [`Self::estimate_into`]
    /// call consumes — drawn via
    /// [`wiforce_dsp::rng::draw_box_muller_uniforms`] followed by
    /// [`wiforce_dsp::fastmath::standard_normals_from_uniforms`], in
    /// stream order — when that count is fixed per estimate.
    ///
    /// `Some(count)` is a contract: a producer may pre-draw `count`
    /// normals per snapshot with those exact functions (interleaved with
    /// its own scalar draws in stream order) and hand the plane to
    /// [`Self::estimate_rows_prenoise_into`], which must then be
    /// implemented and bit-identical to row-at-a-time `estimate_into`
    /// calls fed the same RNG stream. `None` (the default) means no
    /// sequential wide path — fall back to rows.
    fn seq_normals_per_estimate(&self) -> Option<usize> {
        None
    }

    /// Sequential-stream wide path: synthesizes one estimate row per
    /// truth row from pre-drawn noise. `truths` is a row-major plane of
    /// per-snapshot true channels (`rows × grid`), `normals` holds
    /// [`Self::seq_normals_per_estimate`] pre-drawn standard normals per
    /// row, and `out` is the matching estimate plane. Returns `false`
    /// (the default) when the sounder has no wide path; when it returns
    /// `true`, each row must be bit-identical to
    /// `estimate_into(truth_row, noise_std, rng, row)` with the RNG
    /// positioned as the pre-draw was.
    fn estimate_rows_prenoise_into(
        &self,
        truths: &[Complex],
        noise_std: f64,
        normals: &[f64],
        out: &mut [Complex],
    ) -> bool {
        let _ = (truths, noise_std, normals, out);
        false
    }

    /// Press-invariant identity of this sounder's configuration, for
    /// response-table caching: two sounders with equal tokens must
    /// [`Self::prepare`] identically (bit-for-bit) from the same truth.
    ///
    /// `Some(token)` lets callers key cached `Vec<PreparedChannel>`
    /// tables by `(tag-table token, config token)` in a per-scene memo
    /// (`wiforce_channel::ChannelCache::response_tables`) and gather
    /// from them instead of re-preparing every press. `None` (the
    /// default) disables that caching for sounders whose preparation is
    /// not a pure function of hashable configuration.
    fn response_token(&self) -> Option<u64> {
        None
    }

    /// Maximum unambiguous modulation ("artificial Doppler") frequency,
    /// Hz: `1/(2T)` (the paper's Nyquist argument in §4.4).
    fn max_doppler_hz(&self) -> f64 {
        0.5 / self.snapshot_period_s()
    }

    /// Per-component standard deviation of the estimate error this
    /// sounder leaves on each grid point at receiver noise level
    /// `noise_std`, when that error is i.i.d. circular complex Gaussian
    /// and uniform across the grid.
    ///
    /// `Some(sigma)` is the contract that unlocks spectral-domain direct
    /// line synthesis: by DFT unitarity, a snapshot whose estimate error
    /// is white complex Gaussian of per-component std `sigma` contributes
    /// white complex Gaussian noise of the same per-component std to any
    /// unit-normalized discrete spectral line across snapshots — so a
    /// caller can draw the line's noise directly at the consumed bins
    /// instead of synthesizing and transforming every snapshot. `None`
    /// (the default) means the error is not white/uniform (e.g. symbol
    /// amplitudes vary across the grid) and callers must stay on a
    /// time-domain path.
    fn estimate_noise_sigma(&self, noise_std: f64) -> Option<f64> {
        let _ = noise_std;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A trivial sounder used to test the trait's provided method.
    struct Dummy;

    impl ChannelSounder for Dummy {
        fn frequency_offsets_hz(&self) -> Vec<f64> {
            vec![0.0]
        }
        fn snapshot_period_s(&self) -> f64 {
            57.6e-6
        }
        fn estimate(
            &self,
            true_channel: &[Complex],
            _noise_std: f64,
            _rng: &mut dyn RngCore,
        ) -> Vec<Complex> {
            true_channel.to_vec()
        }
    }

    #[test]
    fn nyquist_limit_matches_paper() {
        // paper §4.4: |f_max| = 1/(2T) ≈ 8.7 kHz
        let d = Dummy;
        assert!((d.max_doppler_hz() - 8680.0).abs() < 20.0);
        // and the chosen 1/4 kHz lines fall comfortably inside
        assert!(4000.0 < d.max_doppler_hz());
    }

    #[test]
    fn trait_object_usable() {
        let d: Box<dyn ChannelSounder> = Box::new(Dummy);
        let mut rng = StdRng::seed_from_u64(0);
        let est = d.estimate(&[Complex::ONE], 0.0, &mut rng);
        assert_eq!(est, vec![Complex::ONE]);
    }

    #[test]
    fn default_estimate_into_matches_estimate() {
        let d = Dummy;
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = [Complex::ZERO; 1];
        d.estimate_into(&[Complex::I], 0.0, &mut rng, &mut out);
        assert_eq!(out[0], Complex::I);
    }

    #[test]
    fn default_counter_paths_agree() {
        // For a sounder with no override, the counter methods delegate
        // through the sequential path with the cursor as its RNG — the
        // full and prepared variants must agree bitwise at one coordinate.
        let d = Dummy;
        let truth = [Complex::new(0.3, -1.2)];
        let mut a = CounterRng::for_snapshot(9, 0, 4);
        let mut out_full = [Complex::ZERO; 1];
        d.estimate_counter_into(&truth, 0.1, &mut a, &mut out_full);
        let prepared = d.prepare(&truth);
        let mut b = CounterRng::for_snapshot(9, 0, 4);
        let mut out_prep = [Complex::ZERO; 1];
        d.estimate_prepared_counter_into(&prepared, 0.1, &mut b, &mut out_prep);
        assert_eq!(out_full[0].re.to_bits(), out_prep[0].re.to_bits());
        assert_eq!(out_full[0].im.to_bits(), out_prep[0].im.to_bits());
        assert_eq!(a.lane(), b.lane());
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn default_estimate_into_checks_length() {
        let d = Dummy;
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = [Complex::ZERO; 3];
        d.estimate_into(&[Complex::ONE], 0.0, &mut rng, &mut out);
    }
}
