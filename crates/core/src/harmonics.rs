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
//! shared `2fs` line. For other `N` the mean-subtracted Goertzel evaluation
//! is still provided (and a least-squares line fit for the adventurous —
//! see [`ExtractionMethod`]).

use wiforce_dsp::fft::goertzel_columns;
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
/// The mean-subtracted DFT path walks the flat snapshot storage exactly
/// once per pass (one pass for the per-subcarrier means, one batched
/// Goertzel pass for both lines × all subcarriers) instead of gathering
/// each subcarrier's column — same floating-point results, cache-friendly
/// access.
pub fn extract_lines(cfg: &PhaseGroupConfig, group: SnapshotView<'_>, start_s: f64) -> GroupLines {
    let _span = wiforce_telemetry::span!("harmonics.extract_lines");
    let lines = extract_lines_quiet(cfg, group, start_s);
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

/// [`extract_lines`] without any telemetry (no span, no counters, no
/// gauges) — the math-only form. Identical floating-point results.
pub(crate) fn extract_lines_quiet(
    cfg: &PhaseGroupConfig,
    group: SnapshotView<'_>,
    start_s: f64,
) -> GroupLines {
    let [lines] = extract_line_sets([cfg], group, start_s);
    lines
}

/// [`extract_lines`] of `cfg` together with the lines of `floor_cfg`
/// (the off-line floor probe, which differs from `cfg` only in its line
/// frequencies) from the same rows: one mean pass and one four-bin
/// Goertzel pass instead of two of each. Each accumulator receives the
/// same adds in the same order as two separate extractions, so both
/// results are bit-identical to them. Only `cfg`'s lines are recorded
/// as a line group; the probe is not one (`pipeline.line_to_floor_db`
/// reports it).
pub(crate) fn extract_lines_with_floor(
    cfg: &PhaseGroupConfig,
    floor_cfg: &PhaseGroupConfig,
    group: SnapshotView<'_>,
    start_s: f64,
) -> (GroupLines, GroupLines) {
    let _span = wiforce_telemetry::span!("harmonics.extract_lines");
    let [lines, floor] = extract_line_sets([cfg, floor_cfg], group, start_s);
    emit_extraction_telemetry(cfg, &lines);
    (lines, floor)
}

/// The line values of each of `cfgs` from one phase group. The configs
/// must agree in everything but their line frequencies; the
/// mean-subtracted DFT shares one mean pass and one Goertzel pass over
/// the rows among all of them.
fn extract_line_sets<const M: usize>(
    cfgs: [&PhaseGroupConfig; M],
    group: SnapshotView<'_>,
    start_s: f64,
) -> [GroupLines; M] {
    let cfg = cfgs[0];
    for c in &cfgs[1..] {
        assert!(
            c.n_snapshots == cfg.n_snapshots
                && c.snapshot_period_s == cfg.snapshot_period_s
                && c.method == cfg.method,
            "line sets of one group differ only in their lines"
        );
    }
    assert_eq!(
        group.n_rows(),
        cfg.n_snapshots,
        "group must hold n_snapshots snapshots"
    );
    let n = group.n_rows();
    let k_sub = group.n_cols();
    // each config's two normalized line frequencies and absolute-time
    // phase references
    let lines_hz = cfgs.map(|c| [c.line1_hz, c.line2_hz]);
    let f_norms = lines_hz.map(|l| l.map(|f| f * cfg.snapshot_period_s));
    let refs = lines_hz.map(|l| l.map(|f| Complex::cis(-wiforce_dsp::TAU * f * start_s)));

    match cfg.method {
        ExtractionMethod::MeanSubtractedDft => {
            // pass 1: per-subcarrier means, accumulated in row order (the
            // same addition order as the former per-column gather)
            let mut means = vec![Complex::ZERO; k_sub];
            for row in group.rows() {
                for (m, &x) in means.iter_mut().zip(row) {
                    *m += x;
                }
            }
            let inv_n = 1.0 / n as f64;
            means.iter_mut().for_each(|m| *m = m.scale(inv_n));
            // pass 2: batched mean-subtracted Goertzel, every line at once
            let acc = goertzel_columns(
                group.as_slice(),
                k_sub,
                f_norms.as_flattened(),
                Some(&means),
            );
            // normalize by N so line values approximate the per-snapshot
            // modulated amplitude times the clock Fourier coefficient
            std::array::from_fn(|i| {
                let line = |l: usize| -> Vec<Complex> {
                    let r = refs[i][l];
                    acc[2 * i + l].iter().map(|z| z.scale(inv_n) * r).collect()
                };
                GroupLines {
                    p1: line(0),
                    p2: line(1),
                }
            })
        }
        ExtractionMethod::LeastSquares => std::array::from_fn(|i| {
            let mut lines = extract_least_squares(cfgs[i], group, f_norms[i][0], f_norms[i][1]);
            lines.p1.iter_mut().for_each(|z| *z *= refs[i][0]);
            lines.p2.iter_mut().for_each(|z| *z *= refs[i][1]);
            lines
        }),
    }
}

/// Joint LS fit of DC + three tone amplitudes per subcarrier.
fn extract_least_squares(
    cfg: &PhaseGroupConfig,
    group: SnapshotView<'_>,
    f1: f64,
    f2: f64,
) -> GroupLines {
    let n = group.n_rows();
    let k_sub = group.n_cols();
    // basis tones: DC, f1, f_shared = 2·f1, f2 (complex exponentials)
    let f_shared = 2.0 * cfg.line1_hz * cfg.snapshot_period_s;
    let freqs = [0.0, f1, f_shared, f2];
    let m = freqs.len();

    // Real-valued normal equations on interleaved re/im: design matrix
    // B[n][j] = e^{j2πf_j n}; solve (BᴴB)a = Bᴴx per subcarrier. BᴴB is
    // Hermitian and shared across subcarriers.
    let basis: Vec<Vec<Complex>> = freqs
        .iter()
        .map(|&f| {
            (0..n)
                .map(|i| Complex::cis(wiforce_dsp::TAU * f * i as f64))
                .collect()
        })
        .collect();
    // Gram matrix (complex) as 2m×2m real system
    let mut gram = vec![vec![Complex::ZERO; m]; m];
    for a in 0..m {
        for b in 0..m {
            gram[a][b] = basis[a]
                .iter()
                .zip(&basis[b])
                .map(|(x, y)| x.conj() * *y)
                .sum();
        }
    }
    let real_mat = Matrix::from_fn(2 * m, 2 * m, |r, c| {
        let (i, ri) = (r / 2, r % 2);
        let (j, rj) = (c / 2, c % 2);
        let g = gram[i][j];
        match (ri, rj) {
            (0, 0) => g.re,
            (0, 1) => -g.im,
            (1, 0) => g.im,
            _ => g.re,
        }
    });

    let mut p1 = Vec::with_capacity(k_sub);
    let mut p2 = Vec::with_capacity(k_sub);
    for k in 0..k_sub {
        let mut rhs = vec![0.0; 2 * m];
        for (j, b) in basis.iter().enumerate() {
            let dot: Complex = b
                .iter()
                .zip(group.rows())
                .map(|(bn, snap)| bn.conj() * snap[k])
                .sum();
            rhs[2 * j] = dot.re;
            rhs[2 * j + 1] = dot.im;
        }
        let sol = real_mat.solve(&rhs).expect("gram matrix nonsingular");
        p1.push(Complex::new(sol[2], sol[3]));
        p2.push(Complex::new(sol[6], sol[7]));
    }
    GroupLines { p1, p2 }
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

    /// The original (pre-`SnapshotMatrix`) extraction: gather each
    /// subcarrier's column, subtract its mean, run single-bin Goertzels.
    /// Kept here verbatim as the reference the batched path must match
    /// bit-for-bit.
    fn extract_lines_reference(
        cfg: &PhaseGroupConfig,
        group: &[Vec<Complex>],
        start_s: f64,
    ) -> GroupLines {
        use wiforce_dsp::fft::goertzel;
        let n = group.len();
        let k_sub = group[0].len();
        let f1_norm = cfg.line1_hz * cfg.snapshot_period_s;
        let f2_norm = cfg.line2_hz * cfg.snapshot_period_s;
        let ref1 = Complex::cis(-TAU * cfg.line1_hz * start_s);
        let ref2 = Complex::cis(-TAU * cfg.line2_hz * start_s);
        let mut p1 = Vec::with_capacity(k_sub);
        let mut p2 = Vec::with_capacity(k_sub);
        let mut col = vec![Complex::ZERO; n];
        for k in 0..k_sub {
            let mut mean = Complex::ZERO;
            for (slot, snap) in col.iter_mut().zip(group) {
                *slot = snap[k];
                mean += snap[k];
            }
            mean = mean.scale(1.0 / n as f64);
            col.iter_mut().for_each(|z| *z -= mean);
            p1.push(goertzel(&col, f1_norm).scale(1.0 / n as f64) * ref1);
            p2.push(goertzel(&col, f2_norm).scale(1.0 / n as f64) * ref2);
        }
        GroupLines { p1, p2 }
    }

    #[test]
    fn batched_extraction_is_bit_identical_to_reference() {
        // a deterministic pseudo-random group (tones + clutter + "noise"
        // from a hash of the indices), checked bit-for-bit against the
        // seed implementation — the behavior-preservation guarantee
        let c = cfg();
        let k_sub = 7;
        let rows: Vec<Vec<Complex>> = (0..c.n_snapshots)
            .map(|n| {
                let t = n as f64 * c.snapshot_period_s;
                (0..k_sub)
                    .map(|k| {
                        let h = (n.wrapping_mul(2654435761).wrapping_add(k * 40503) & 0xFFFF)
                            as f64
                            / 65536.0;
                        Complex::from_polar(0.3 + 0.1 * k as f64, 1.7 * h)
                            + Complex::cis(TAU * c.line1_hz * t) * 2e-3
                            + Complex::cis(TAU * c.line2_hz * t) * 1e-3
                    })
                    .collect()
            })
            .collect();
        let start_s = 3.0 * c.group_duration_s();
        let reference = extract_lines_reference(&c, &rows, start_s);
        let flat = SnapshotMatrix::from_rows(&rows);
        let batched = extract_lines(&c, flat.view(), start_s);
        assert_eq!(batched.p1, reference.p1);
        assert_eq!(batched.p2, reference.p2);
    }
}
