//! The channel-sounder abstraction.
//!
//! WiForce needs one thing from the physical layer: a periodic vector of
//! per-frequency channel estimates `H[k, n]`. Both the OFDM reader (what
//! the paper built) and an FMCW radar front end (what the paper argues
//! would work equally well) provide it; the sensing algorithm in
//! `wiforce` is written against this trait.

use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::Complex;

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
    /// the (frequency-domain) channel, add noise and run their estimator,
    /// so the estimation gain or loss is derived here, not assumed. This
    /// is the reference that defines a sounder's estimate law: where the
    /// estimator's error is white ([`Self::estimate_noise_sigma`] is
    /// `Some`), [`sound_rows`] draws time-domain snapshots from that law
    /// instead of running the waveform, and the fixtures compare the two.
    /// Noise comes from a counter-addressed cursor pinned to one
    /// simulation coordinate (press key, group, snapshot), so the estimate
    /// is a pure function of that coordinate — snapshots can be
    /// synthesized out of order and across threads with bit-identical
    /// results. Implementations may consume the cursor's lanes in any
    /// fixed pattern; callers that draw after the sounder (burst faults,
    /// front-end jitter) continue on the same cursor.
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

    /// Press-invariant identity of this sounder's configuration: two
    /// sounders with equal tokens share the estimate grid, timing and
    /// estimate law. Callers key the per-state true channels they memoize
    /// for a scene by `(tag-table token, config token)`
    /// (`wiforce_channel::ChannelCache::response_tables`).
    /// Implementations FNV-hash the raw bits of their configuration
    /// fields.
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
    /// `Some(sigma)` states the sounder's estimate law: the
    /// [`Self::estimate_counter_into`] output is the truth plus white
    /// circular complex Gaussian error of per-component std `sigma`,
    /// independent of the truth, and that call takes one cursor lane per
    /// grid point. Two callers rely on it. [`sound_rows`] draws each
    /// time-domain snapshot as `truth + sigma·g` on exactly those lanes.
    /// Spectral-domain direct line synthesis uses DFT unitarity: white
    /// estimate error of per-component std `sigma` contributes white
    /// complex Gaussian noise of the same std to any unit-normalized
    /// spectral line across snapshots, so a caller can draw the line's
    /// noise directly at the consumed bins. `None` (the default) means the
    /// error is not white/uniform (e.g. symbol amplitudes vary across the
    /// grid) or not declared, and callers run the estimator itself.
    fn estimate_noise_sigma(&self, noise_std: f64) -> Option<f64> {
        let _ = noise_std;
        None
    }
}

/// Sounds a block of snapshots into `out`, a row-major plane of
/// `cursors.len()` rows of grid-size estimates: row `r` estimates the
/// true channel `truth(r)` with noise drawn through `cursors[r]`.
///
/// A sounder with a declared estimate law
/// ([`ChannelSounder::estimate_noise_sigma`] is `Some(sigma)`) gets each
/// row as `truth(r) + sigma·g_r`, where `g_r` is the `n` standard complex
/// normals at the lanes its [`ChannelSounder::estimate_counter_into`]
/// call would take from `cursors[r]`, all filled by one Philox plane
/// kernel call. Any other sounder runs its estimator once per row. Either
/// way every cursor is left where that call leaves it, `n` lanes on, so
/// the draws after the sounder (burst faults, front-end jitter) keep
/// their lanes.
///
/// The cursors must stand at consecutive snapshots of one `(key, domain,
/// group)` at one common lane, as the synthesis engines position them
/// (lane 1 when a drop decision drew first, else 0).
///
/// # Panics
/// Panics if `out` is not `cursors.len()` rows of the sounder's grid, or
/// if the cursors are not laid out that way.
pub fn sound_rows<'t, S: ChannelSounder + ?Sized>(
    sounder: &S,
    truth: impl Fn(usize) -> &'t [Complex],
    noise_std: f64,
    cursors: &mut [CounterRng],
    out: &mut [Complex],
) {
    let rows = cursors.len();
    if rows == 0 {
        return;
    }
    assert_eq!(out.len() % rows, 0, "one estimate row per cursor");
    let n = out.len() / rows;
    let Some(sigma) = sounder.estimate_noise_sigma(noise_std) else {
        for (r, (cursor, row)) in cursors.iter_mut().zip(out.chunks_exact_mut(n)).enumerate() {
            sounder.estimate_counter_into(truth(r), noise_std, cursor, row);
        }
        return;
    };
    let (key, hi, lane0) = cursors[0].position();
    wiforce_dsp::kernels::philox_complex_normals_rows(key, [hi[1], hi[2]], hi[0], lane0, n, out);
    for (r, (cursor, row)) in cursors.iter_mut().zip(out.chunks_exact_mut(n)).enumerate() {
        let at = (key, [hi[0].wrapping_add(r as u32), hi[1], hi[2]], lane0);
        assert!(
            cursor.position() == at,
            "block rows need cursors at consecutive snapshots and one lane"
        );
        cursor.skip_normals(n);
        let truth = truth(r);
        assert_eq!(truth.len(), n, "one truth entry per grid point");
        for (o, &h) in row.iter_mut().zip(truth) {
            *o = h + o.scale(sigma);
        }
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
        // without a declared law a block loops the row primitive
        let truths = [Complex::ONE, Complex::I];
        let mut plane = [Complex::ZERO; 2];
        let mut cursors = [0, 1].map(|s| CounterRng::for_snapshot(0, 0, s));
        sound_rows(&*d, |r| &truths[r..r + 1], 0.0, &mut cursors, &mut plane);
        assert_eq!(plane, truths);
    }

    #[test]
    fn default_counter_paths_agree() {
        // For a sounder with no declared law, a block feeds each row's
        // truth through the row primitive on that row's cursor: rows at
        // cursors past one drawn lane match row calls on equally
        // positioned cursors, bit for bit, and end where they would.
        let d = Dummy;
        let truths = [Complex::new(0.3, -1.2), Complex::new(-0.7, 0.4)];
        let mut row_cursors = [5, 6].map(|s| {
            let mut c = CounterRng::for_snapshot(9, 0, s);
            let _ = rand::RngCore::next_u64(&mut c);
            c
        });
        let mut block_cursors = row_cursors.clone();
        let mut out_rows = [Complex::ZERO; 2];
        for (r, cursor) in row_cursors.iter_mut().enumerate() {
            d.estimate_counter_into(&truths[r..r + 1], 0.1, cursor, &mut out_rows[r..r + 1]);
        }
        let mut out_block = [Complex::ZERO; 2];
        sound_rows(
            &d,
            |r| &truths[r..r + 1],
            0.1,
            &mut block_cursors,
            &mut out_block,
        );
        for (a, b) in out_rows.iter().zip(&out_block) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        for (a, b) in row_cursors.iter_mut().zip(&mut block_cursors) {
            assert_eq!(a.lane(), b.lane());
            assert_eq!(rand::RngCore::next_u64(a), rand::RngCore::next_u64(b));
        }
    }
}
