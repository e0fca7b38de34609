//! Phase groups and the harmonic ("artificial Doppler") transform.
//!
//! Paper §3.3, Eq. 1–3: divide the channel-estimate stream into groups of
//! `N` snapshots; within each group take, per subcarrier, the DFT across
//! snapshots evaluated at the tag's modulation lines `fs` and `4fs`. Static
//! multipath is constant across snapshots and lands at zero Doppler, so
//! the line bins isolate the two sensor ends.
//!
//! The paper's reader uses `T = 57.6 µs`, which makes `fs·T` irrational in
//! bins for arbitrary `N`; we default to `N = 625`, the smallest group for
//! which `fs`, `2fs` and `4fs` all fall on *integer* bins (36/72/144), so
//! the plain FFT is exactly orthogonal to the static clutter and to the
//! shared `2fs` line. For other `N` the mean-subtracted DFT is still
//! provided (and a least-squares line fit for the adventurous — see
//! [`ExtractionMethod`]).

use crate::pipeline::CHUNK_ROWS;
use wiforce_dsp::linalg::Matrix;
use wiforce_dsp::{Complex, SnapshotView};

/// How the line values are extracted from a phase group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractionMethod {
    /// Plain DFT at the line frequencies after subtracting the per-group
    /// mean (the paper's algorithm; exact when the lines are integer bins).
    #[default]
    MeanSubtractedDft,
    /// Joint least-squares fit of {DC, fs, 2fs, 4fs} complex amplitudes —
    /// exactly removes static and cross-line leakage for *any* `N`.
    LeastSquares,
}

/// Configuration of the phase-group processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseGroupConfig {
    /// Snapshots per phase group (paper-compatible default: 625).
    pub n_snapshots: usize,
    /// Snapshot period `T`, s (paper: 57.6 µs).
    pub snapshot_period_s: f64,
    /// Port-1 modulation line, Hz (paper: `fs` = 1 kHz).
    pub line1_hz: f64,
    /// Port-2 modulation line, Hz (paper: `4fs` = 4 kHz).
    pub line2_hz: f64,
    /// Extraction method.
    pub method: ExtractionMethod,
}

impl PhaseGroupConfig {
    /// The paper's configuration for base clock `fs_hz` (1 kHz) and the
    /// 57.6 µs OFDM sounding period.
    pub fn wiforce(fs_hz: f64) -> Self {
        PhaseGroupConfig {
            n_snapshots: 625,
            snapshot_period_s: 57.6e-6,
            line1_hz: fs_hz,
            line2_hz: 4.0 * fs_hz,
            method: ExtractionMethod::default(),
        }
    }

    /// Group duration, s.
    pub fn group_duration_s(&self) -> f64 {
        self.n_snapshots as f64 * self.snapshot_period_s
    }

    /// Receiver time at which group `g` of a stream starts, s: the phase
    /// reference of its lines.
    pub fn group_start_s(&self, g: u64) -> f64 {
        g as f64 * self.n_snapshots as f64 * self.snapshot_period_s
    }

    /// `true` if both lines (and their difference) fall on integer bins of
    /// the group DFT — the orthogonality condition.
    pub fn lines_are_orthogonal(&self) -> bool {
        let bins = |f: f64| f * self.snapshot_period_s * self.n_snapshots as f64;
        let is_int = |x: f64| (x - x.round()).abs() < 1e-9;
        is_int(bins(self.line1_hz)) && is_int(bins(self.line2_hz))
    }

    /// The bins a group's lines are folded at, Hz: the two lines, with
    /// least squares' shared `2·line1` tone between them.
    pub fn fold_bins(&self) -> impl Iterator<Item = f64> {
        let shared = (self.method == ExtractionMethod::LeastSquares).then_some(2.0 * self.line1_hz);
        [Some(self.line1_hz), shared, Some(self.line2_hz)]
            .into_iter()
            .flatten()
    }
}

/// Per-group, per-subcarrier line values: the paper's `P₁[k,g]`, `P₂[k,g]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupLines {
    /// Line values at `fs` (port 1), one per subcarrier.
    pub p1: Vec<Complex>,
    /// Line values at `4fs` (port 2), one per subcarrier.
    pub p2: Vec<Complex>,
}

impl GroupLines {
    /// Mean line power (both ports), for detection thresholds.
    pub fn mean_power(&self) -> f64 {
        let total: f64 = self.p1.iter().chain(&self.p2).map(|z| z.norm_sqr()).sum();
        total / (self.p1.len() + self.p2.len()) as f64
    }
}

/// Extracts the line values from one phase group.
///
/// `group` is a row-major snapshot view: row `n` holds the channel
/// estimate of snapshot `n` across all subcarriers, and there must be
/// exactly `cfg.n_snapshots` rows. `start_s` is the reader-clock time
/// of the group's first snapshot: the extracted line values are
/// phase-referenced to absolute time so groups at different times can be
/// conjugate-multiplied even when the lines are not integer bins of the
/// group length (for integer bins the reference is a no-op).
///
/// This is the fold the time-domain press runs while it sounds the
/// group: each [`CHUNK_ROWS`]-row block is folded into its partial sums
/// ([`fold_block`]), and the partials are summed in block order and
/// finished ([`finish_group`]), so a stored group's lines are
/// bit-identical to the press's.
pub fn extract_lines(cfg: &PhaseGroupConfig, group: SnapshotView<'_>, start_s: f64) -> GroupLines {
    let _span = wiforce_telemetry::span!("harmonics.extract_lines");
    let n = group.n_rows();
    assert_eq!(n, cfg.n_snapshots, "group must hold n_snapshots snapshots");
    let tables: Vec<PrefixPhasors> = cfg
        .fold_bins()
        .map(|f| PrefixPhasors::new(f, cfg.snapshot_period_s, n))
        .collect();
    let bins: Vec<&PrefixPhasors> = tables.iter().collect();
    let width = group.n_cols();
    let stride = (1 + bins.len()) * width;
    let mut partials = vec![Complex::ZERO; n.div_ceil(CHUNK_ROWS) * stride];
    for (j, slab) in partials.chunks_exact_mut(stride).enumerate() {
        let s0 = j * CHUNK_ROWS;
        fold_block(group.rows_view(s0, CHUNK_ROWS.min(n - s0)), s0, &bins, slab);
    }
    let (lines, _) = finish_group(cfg, None, &bins, &partials, width, start_s);
    emit_extraction_telemetry(cfg, &lines);
    lines
}

/// Records the counters/gauges [`extract_lines`] emits for one extracted
/// group. Split out so the spectral arm, which forms its lines without
/// extracting them, reports each line group the same way.
pub(crate) fn emit_extraction_telemetry(cfg: &PhaseGroupConfig, lines: &GroupLines) {
    match cfg.method {
        ExtractionMethod::MeanSubtractedDft => {
            wiforce_telemetry::counter!("harmonics.goertzel_groups", 1);
        }
        ExtractionMethod::LeastSquares => {
            wiforce_telemetry::counter!("harmonics.least_squares_groups", 1);
        }
    }
    if wiforce_telemetry::enabled() {
        // per-line signal power: the quality gauge behind the paper's
        // Fig. 4/7 line-SNR discussion (see DESIGN.md "Observability")
        let mean_pow =
            |p: &[Complex]| p.iter().map(|z| z.norm_sqr()).sum::<f64>() / p.len().max(1) as f64;
        let p1 = mean_pow(&lines.p1);
        let p2 = mean_pow(&lines.p2);
        wiforce_telemetry::gauge!("harmonics.line1_mean_power", p1);
        wiforce_telemetry::gauge!("harmonics.line2_mean_power", p2);
        wiforce_telemetry::observe!("harmonics.line1_power", p1);
        wiforce_telemetry::observe!("harmonics.line2_power", p2);
    }
}

/// Folds one block of a phase group into its partial sums. `rows` holds
/// snapshots `s0..` of the group; `out`, `1 + bins.len()` rows of the
/// block's width, receives the column sums `Σ x_s`, then `Σ x_s·p_s` at
/// each bin, `p_s` the bin's recurrence phasors, each accumulated from
/// zero in row order. At most six bins: a group's lines and its floor
/// probe's, each with least squares' shared tone.
pub fn fold_block(rows: SnapshotView<'_>, s0: usize, bins: &[&PrefixPhasors], out: &mut [Complex]) {
    let mut phasors: [&[Complex]; 6] = [&[]; 6];
    for (p, table) in phasors.iter_mut().zip(bins) {
        *p = &table.phasors[s0..s0 + rows.n_rows()];
    }
    out.fill(Complex::ZERO);
    wiforce_dsp::kernels::fold_rows(out, rows.as_slice(), &phasors[..bins.len()]);
}

/// The lines of one phase group from its block partials ([`fold_block`],
/// block after block), summed in block order so they never depend on
/// which thread folded which block: `cfg`'s lines from its
/// [`PhaseGroupConfig::fold_bins`], then `floor`'s (the off-line probe)
/// from the bins after them, phase-referenced to the group start
/// `start_s`. The mean-subtracted DFT takes the mean off once,
/// `Σ(x_s − m)·p_s = S − m·P[N]`; least squares solves the Gram system on
/// the DC, `f1`, `2f1` and `f2` sums.
pub fn finish_group(
    cfg: &PhaseGroupConfig,
    floor: Option<&PhaseGroupConfig>,
    bins: &[&PrefixPhasors],
    partials: &[Complex],
    width: usize,
    start_s: f64,
) -> (GroupLines, Option<GroupLines>) {
    let mut sums = vec![Complex::ZERO; (1 + bins.len()) * width];
    for slab in partials.chunks_exact(sums.len()) {
        for (s, &p) in sums.iter_mut().zip(slab) {
            *s += p;
        }
    }
    let (colsum, bin_sums) = sums.split_at(width);
    let n_tag = cfg.fold_bins().count();
    let (tag, probe) = bin_sums.split_at(n_tag * width);
    let lines = line_set(cfg, colsum, tag, &bins[..n_tag], start_s);
    let floor = floor.map(|fc| line_set(fc, colsum, probe, &bins[n_tag..], start_s));
    (lines, floor)
}

/// One line set's lines from the group's column sums and its bins' sums
/// (bin after bin), rotated by `e^{-j2πf·start_s}`.
fn line_set(
    cfg: &PhaseGroupConfig,
    colsum: &[Complex],
    bin_sums: &[Complex],
    bins: &[&PrefixPhasors],
    start_s: f64,
) -> GroupLines {
    let width = colsum.len();
    let inv_n = 1.0 / cfg.n_snapshots as f64;
    let sum = |b: usize| &bin_sums[b * width..(b + 1) * width];
    let (mut p1, mut p2) = match cfg.method {
        ExtractionMethod::MeanSubtractedDft => {
            // normalize by N so line values approximate the per-snapshot
            // modulated amplitude times the clock Fourier coefficient
            let line = |b: usize| -> Vec<Complex> {
                let total = bins[b].total();
                sum(b)
                    .iter()
                    .zip(colsum)
                    .map(|(&s, &c)| (s - c.scale(inv_n) * total).scale(inv_n))
                    .collect()
            };
            (line(0), line(1))
        }
        ExtractionMethod::LeastSquares => {
            // Gram matrix of the basis e^{+jω_j s} (DC, f1, 2f1, f2):
            // G[a][b] = Σ_s p_a(s)·conj(p_b(s)), p the recurrence phasors
            let phasor = |j: usize, s: usize| match j {
                0 => Complex::ONE,
                _ => bins[j - 1].phasors[s],
            };
            let mut gram = [[Complex::ZERO; 4]; 4];
            for s in 0..cfg.n_snapshots {
                for (a, row) in gram.iter_mut().enumerate() {
                    for (b, g) in row.iter_mut().enumerate() {
                        *g += phasor(a, s) * phasor(b, s).conj();
                    }
                }
            }
            // the complex system as a real 8×8 one on interleaved re/im
            let real = Matrix::from_fn(8, 8, |r, c| {
                let g = gram[r / 2][c / 2];
                match (r % 2, c % 2) {
                    (0, 0) | (1, 1) => g.re,
                    (0, 1) => -g.im,
                    _ => g.im,
                }
            });
            (0..width)
                .map(|k| {
                    let rhs: Vec<f64> = std::iter::once(colsum[k])
                        .chain((0..3).map(|b| sum(b)[k]))
                        .flat_map(|z| [z.re, z.im])
                        .collect();
                    let sol = real.solve(&rhs).expect("gram matrix nonsingular");
                    (Complex::new(sol[2], sol[3]), Complex::new(sol[6], sol[7]))
                })
                .unzip()
        }
    };
    let reference = |f: f64| Complex::cis(-wiforce_dsp::TAU * f * start_s);
    let (r1, r2) = (reference(cfg.line1_hz), reference(cfg.line2_hz));
    p1.iter_mut().for_each(|z| *z *= r1);
    p2.iter_mut().for_each(|z| *z *= r2);
    GroupLines { p1, p2 }
}

/// The prefix sums `P[s] = Σ_{j<s} e^{-jωj}`, `s` in `0..=N`, of one
/// consumed line's snapshot phasors (`ω = 2π·f·T`): the phasor sum over
/// any snapshot interval `[a, b)` is `P[b] − P[a]`. The phasors are the
/// recurrence `e^{-jω(j+1)} = e^{-jωj}·e^{-jω}` from 1, as a
/// per-snapshot walk forms them, and are kept too: the time-domain fold
/// weighs snapshot `s` by phasor `s`. Press-invariant for a fixed line,
/// snapshot period and group length, so the press memoizes it on the
/// channel cache.
#[derive(Debug, Clone)]
pub struct PrefixPhasors {
    phasors: Vec<Complex>,
    sums: Vec<Complex>,
}

impl PrefixPhasors {
    /// The table of the line at `line_hz` over `n` snapshots `t_snap`
    /// apart.
    pub fn new(line_hz: f64, t_snap: f64, n: usize) -> Self {
        let rot = Complex::cis(-wiforce_dsp::TAU * line_hz * t_snap);
        let mut phasors = Vec::with_capacity(n);
        let mut sums = Vec::with_capacity(n + 1);
        let (mut acc, mut ph) = (Complex::ZERO, Complex::ONE);
        sums.push(acc);
        for _ in 0..n {
            phasors.push(ph);
            acc += ph;
            ph *= rot;
            sums.push(acc);
        }
        PrefixPhasors { phasors, sums }
    }

    /// Snapshots the table covers (`N`).
    pub(crate) fn snapshots(&self) -> usize {
        self.phasors.len()
    }

    /// `P[N]`: the phasor sum over the whole group.
    pub(crate) fn total(&self) -> Complex {
        self.sums[self.sums.len() - 1]
    }

    /// The phasor sum over the snapshots `[a, b)`.
    pub(crate) fn over(&self, r: &std::ops::Range<usize>) -> Complex {
        self.sums[r.end] - self.sums[r.start]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiforce_dsp::{SnapshotMatrix, TAU};

    fn cfg() -> PhaseGroupConfig {
        PhaseGroupConfig::wiforce(1000.0)
    }

    /// Builds a synthetic group: static + two tag tones per subcarrier.
    fn synthetic_group(
        cfg: &PhaseGroupConfig,
        statics: &[Complex],
        amp1: Complex,
        amp2: Complex,
    ) -> SnapshotMatrix {
        let mut out = SnapshotMatrix::with_capacity(statics.len(), cfg.n_snapshots);
        for n in 0..cfg.n_snapshots {
            let t = n as f64 * cfg.snapshot_period_s;
            let row = out.push_row_default();
            for (slot, &s) in row.iter_mut().zip(statics) {
                *slot = s
                    + amp1 * Complex::cis(TAU * cfg.line1_hz * t)
                    + amp2 * Complex::cis(TAU * cfg.line2_hz * t);
            }
        }
        out
    }

    #[test]
    fn default_group_is_orthogonal() {
        let c = cfg();
        assert!(c.lines_are_orthogonal());
        assert!((c.group_duration_s() - 0.036).abs() < 1e-9);
        // and a deliberately bad N is not
        let bad = PhaseGroupConfig {
            n_snapshots: 256,
            ..c
        };
        assert!(!bad.lines_are_orthogonal());
    }

    #[test]
    fn extracts_tone_amplitudes_exactly() {
        let c = cfg();
        let statics = vec![Complex::from_polar(0.1, 0.3); 4];
        let a1 = Complex::from_polar(1e-3, 0.7);
        let a2 = Complex::from_polar(2e-3, -1.1);
        let group = synthetic_group(&c, &statics, a1, a2);
        let lines = extract_lines(&c, group.view(), 0.0);
        for k in 0..4 {
            assert!((lines.p1[k] - a1).abs() < 1e-12, "{:?}", lines.p1[k]);
            assert!((lines.p2[k] - a2).abs() < 1e-12);
        }
    }

    #[test]
    fn static_clutter_fully_rejected() {
        // a huge static term (40 dB above the tag line) must not leak
        let c = cfg();
        let statics = vec![Complex::from_polar(1.0, 1.0); 2];
        let a1 = Complex::from_polar(1e-4, 0.2);
        let group = synthetic_group(&c, &statics, a1, Complex::ZERO);
        let lines = extract_lines(&c, group.view(), 0.0);
        assert!((lines.p1[0] - a1).abs() < 1e-10);
        assert!(lines.p2[0].abs() < 1e-10);
    }

    #[test]
    fn shared_2fs_line_does_not_pollute() {
        // inject a strong tone at 2fs (the shared bin) — with orthogonal N
        // it must not leak into fs or 4fs
        let c = cfg();
        let rows: Vec<Vec<Complex>> = (0..c.n_snapshots)
            .map(|n| {
                let t = n as f64 * c.snapshot_period_s;
                vec![Complex::cis(TAU * 2.0 * c.line1_hz * t) * 0.5]
            })
            .collect();
        let group = SnapshotMatrix::from_rows(&rows);
        let lines = extract_lines(&c, group.view(), 0.0);
        assert!(lines.p1[0].abs() < 1e-10);
        assert!(lines.p2[0].abs() < 1e-10);
    }

    #[test]
    fn least_squares_handles_non_orthogonal_n() {
        // N = 256 is non-orthogonal: plain DFT leaks, LS stays exact
        let base = PhaseGroupConfig {
            n_snapshots: 256,
            ..cfg()
        };
        let statics = vec![Complex::from_polar(0.5, -0.4)];
        let a1 = Complex::from_polar(1e-3, 0.9);
        let a2 = Complex::from_polar(1e-3, -0.3);
        let group = synthetic_group(&base, &statics, a1, a2);

        let dft = extract_lines(&base, group.view(), 0.0);
        let ls = extract_lines(
            &PhaseGroupConfig {
                method: ExtractionMethod::LeastSquares,
                ..base
            },
            group.view(),
            0.0,
        );
        let dft_err = (dft.p1[0] - a1).abs();
        let ls_err = (ls.p1[0] - a1).abs();
        assert!(ls_err < 1e-9, "LS should be exact, err {ls_err}");
        assert!(
            dft_err > 10.0 * ls_err.max(1e-12),
            "DFT should leak: {dft_err}"
        );
    }

    #[test]
    fn mean_power_reflects_lines() {
        let c = cfg();
        let group = synthetic_group(&c, &[Complex::ZERO], Complex::from_re(1e-3), Complex::ZERO);
        let lines = extract_lines(&c, group.view(), 0.0);
        assert!((lines.mean_power() - 0.5e-6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "n_snapshots")]
    fn wrong_group_length_panics() {
        let c = cfg();
        let short = SnapshotMatrix::from_rows(&[vec![Complex::ZERO]]);
        let _ = extract_lines(&c, short.view(), 0.0);
    }

    #[test]
    fn start_time_reference_aligns_groups_at_non_orthogonal_n() {
        // with N=125 the line is not an integer bin, so a later group sees
        // the tone at a different start phase; the absolute-time reference
        // must remove that so consecutive groups conj-multiply cleanly
        let c = PhaseGroupConfig {
            n_snapshots: 125,
            method: ExtractionMethod::LeastSquares,
            ..cfg()
        };
        let make_group = |g: usize| -> SnapshotMatrix {
            let rows: Vec<Vec<Complex>> = (0..c.n_snapshots)
                .map(|n| {
                    let t = (g * c.n_snapshots + n) as f64 * c.snapshot_period_s;
                    vec![Complex::cis(TAU * c.line1_hz * t + 0.4) * 1e-3]
                })
                .collect();
            SnapshotMatrix::from_rows(&rows)
        };
        let g0 = extract_lines(&c, make_group(0).view(), 0.0);
        let start2 = 2.0 * c.n_snapshots as f64 * c.snapshot_period_s;
        let g2 = extract_lines(&c, make_group(2).view(), start2);
        let dphi = (g2.p1[0] * g0.p1[0].conj()).arg();
        assert!(dphi.abs() < 1e-9, "groups should align, got {dphi}");
        // sanity: without the reference the slip would be 2π·f1·2NT mod 2π
        let g2_bad = extract_lines(&c, make_group(2).view(), 0.0);
        let slip = (g2_bad.p1[0] * g0.p1[0].conj()).arg();
        assert!(
            slip.abs() > 0.5,
            "uncompensated slip should be large, got {slip}"
        );
    }
}
