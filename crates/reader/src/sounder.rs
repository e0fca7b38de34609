//! The channel-sounder abstraction.
//!
//! WiForce needs one thing from the physical layer: a periodic vector of
//! per-frequency channel estimates `H[k, n]`. Both the OFDM reader (what
//! the paper built) and an FMCW radar front end (what the paper argues
//! would work equally well) provide it; the sensing algorithm in
//! `wiforce` is written against this trait.

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
/// [`ChannelSounder::estimate_prepared_counter_rows_into`] reuses it per
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

    /// Produces one channel-estimate snapshot into `out`, given the true
    /// channel at each grid frequency and a per-sample receiver noise
    /// level (std-dev of complex AWGN relative to unit TX amplitude).
    ///
    /// Implementations synthesize their actual waveform, push it through
    /// the (frequency-domain) channel, add noise and run their estimator —
    /// so estimation gain/loss is real, not assumed. Noise comes from a
    /// counter-addressed cursor pinned to one simulation coordinate
    /// (press key, group, snapshot), so the estimate is a pure function
    /// of that coordinate — snapshots can be synthesized out of order and
    /// across threads with bit-identical results. Implementations may
    /// consume the cursor's lanes in any fixed pattern; callers that
    /// draw after the sounder (burst faults, front-end jitter) continue
    /// on the same cursor.
    ///
    /// # Panics
    /// Panics if `true_channel` or `out` differs from the estimate grid
    /// size.
    fn estimate_counter_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        cursor: &mut CounterRng,
        out: &mut [Complex],
    );

    /// Folds the channel-dependent, noise-independent part of the
    /// estimation forward model into a [`PreparedChannel`] for repeated
    /// use with [`Self::estimate_prepared_counter_rows_into`].
    ///
    /// The default keeps only the truth (no precomputation), which the
    /// default `estimate_prepared_counter_rows_into` feeds back through
    /// [`Self::estimate_counter_into`] — correct for every sounder, fast
    /// for none.
    fn prepare(&self, true_channel: &[Complex]) -> PreparedChannel {
        PreparedChannel {
            truth: true_channel.to_vec(),
            payload: Vec::new(),
        }
    }

    /// Block twin of [`Self::estimate_counter_into`] over prepared
    /// channels: estimates a block of snapshots in one call. `prepared`
    /// holds one [`PreparedChannel`] per tag switch state (index = state),
    /// each built by [`Self::prepare`] on the same sounder configuration,
    /// `states[r]` selects row `r`'s state, `cursors[r]` is row `r`'s
    /// noise cursor as the caller positioned it (its snapshot's
    /// coordinates, past any draw made before the sounder), and `out` is
    /// a snapshot-major plane of `states.len()` rows of grid-size
    /// estimates.
    ///
    /// Each row must be bit-identical to
    /// `estimate_counter_into(&prepared[states[r]].truth, …)` on
    /// `cursors[r]`, and must leave `cursors[r]` where that call would,
    /// so the draws after the sounder (burst faults, front-end jitter)
    /// continue on it. The default is that row loop; sounders with a
    /// plane kernel override it.
    fn estimate_prepared_counter_rows_into(
        &self,
        prepared: &[PreparedChannel],
        states: &[u8],
        noise_std: f64,
        cursors: &mut [CounterRng],
        out: &mut [Complex],
    ) {
        let n = out.len() / states.len().max(1);
        for ((&state, cursor), row) in states.iter().zip(cursors).zip(out.chunks_exact_mut(n)) {
            self.estimate_counter_into(&prepared[usize::from(state)].truth, noise_std, cursor, row);
        }
    }

    /// Truth-plane twin of [`Self::estimate_prepared_counter_rows_into`]
    /// under the same cursor contract, for callers whose every snapshot
    /// sees a distinct channel (moving scatterers, the batch engine's
    /// multi-stream blend): `truths` is a row-major plane of
    /// per-snapshot true channels (`cursors.len() × grid`) and `out` the
    /// matching estimate plane. Each row must be bit-identical to an
    /// [`Self::estimate_counter_into`] call on that truth row with
    /// `cursors[r]`; the default is that row loop.
    fn estimate_counter_rows_into(
        &self,
        truths: &[Complex],
        noise_std: f64,
        cursors: &mut [CounterRng],
        out: &mut [Complex],
    ) {
        let n = out.len() / cursors.len().max(1);
        for ((truth, cursor), row) in truths
            .chunks_exact(n)
            .zip(cursors)
            .zip(out.chunks_exact_mut(n))
        {
            self.estimate_counter_into(truth, noise_std, cursor, row);
        }
    }

    /// Press-invariant identity of this sounder's configuration, for
    /// response-table caching: two sounders with equal tokens must
    /// [`Self::prepare`] identically (bit-for-bit) from the same truth.
    ///
    /// Callers key cached `Vec<PreparedChannel>` tables by
    /// `(tag-table token, config token)` in a per-scene memo
    /// (`wiforce_channel::ChannelCache::response_tables`) and gather
    /// from them instead of re-preparing every press. Implementations
    /// FNV-hash the raw bits of the configuration fields `prepare` reads.
    fn response_token(&self) -> u64;

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

    /// A trivial sounder used to test the trait's provided methods.
    struct Dummy;

    impl ChannelSounder for Dummy {
        fn frequency_offsets_hz(&self) -> Vec<f64> {
            vec![0.0]
        }
        fn snapshot_period_s(&self) -> f64 {
            57.6e-6
        }
        fn response_token(&self) -> u64 {
            0
        }
        fn estimate_counter_into(
            &self,
            true_channel: &[Complex],
            noise_std: f64,
            cursor: &mut CounterRng,
            out: &mut [Complex],
        ) {
            for (o, &h) in out.iter_mut().zip(true_channel) {
                *o = h + wiforce_dsp::rng::complex_gaussian(cursor, noise_std * noise_std);
            }
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
        let mut cursor = CounterRng::for_snapshot(0, 0, 0);
        let mut est = [Complex::ZERO; 1];
        d.estimate_counter_into(&[Complex::ONE], 0.0, &mut cursor, &mut est);
        assert_eq!(est, [Complex::ONE]);
        // without a plane kernel the block methods loop the row primitive
        let mut plane = [Complex::ZERO; 2];
        let mut cursors = [0, 1].map(|s| CounterRng::for_snapshot(0, 0, s));
        d.estimate_counter_rows_into(&[Complex::ONE, Complex::I], 0.0, &mut cursors, &mut plane);
        assert_eq!(plane, [Complex::ONE, Complex::I]);
    }

    #[test]
    fn default_counter_paths_agree() {
        // For a sounder with no override, the default block loop feeds
        // each row's prepared truth through the row primitive on that
        // row's cursor: a lone row at a cursor past one drawn lane
        // matches the row call on an equally positioned cursor, bit for
        // bit, and ends where it would.
        let d = Dummy;
        let truth = [Complex::new(0.3, -1.2)];
        let prepared = d.prepare(&truth);
        let mut row_cursor = CounterRng::for_snapshot(9, 0, 5);
        let _ = rand::RngCore::next_u64(&mut row_cursor);
        let mut block_cursors = [row_cursor.clone()];
        let mut out_row = [Complex::ZERO; 1];
        d.estimate_counter_into(&truth, 0.1, &mut row_cursor, &mut out_row);
        let mut out_block = [Complex::ZERO; 1];
        d.estimate_prepared_counter_rows_into(
            std::slice::from_ref(&prepared),
            &[0],
            0.1,
            &mut block_cursors,
            &mut out_block,
        );
        assert_eq!(out_row[0].re.to_bits(), out_block[0].re.to_bits());
        assert_eq!(out_row[0].im.to_bits(), out_block[0].im.to_bits());
        assert_eq!(row_cursor.lane(), block_cursors[0].lane());
    }
}
