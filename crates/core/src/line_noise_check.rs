//! Statistical checks shared by the fixtures of both spectral line
//! sources (`Simulation::synth_lines_spectral` and the batch producer's
//! `spectral_lines`).
//!
//! The spectral arm is accuracy-gated, not bit-pinned. What both sources
//! promise, by DFT unitarity, is that a line minus its noiseless twin is
//! circular white Gaussian noise with a modeled per-component σ. These
//! checks test that promise on the residuals of many independent draws:
//! per-bin first and second moments, the pooled scale, a KS test of the
//! normalized components against N(0, 1), and beyond the marginals the
//! cross terms a real-valued or correlated draw would leave: re/im
//! correlation within a bin, and every re/im product between adjacent
//! subcarriers. Each correlation is bounded by its sampling σ. With
//! phase jitter on, [`check_jitter_covariance`] checks the whole
//! cross-subcarrier covariance the common-mode jitter term adds.

use crate::harmonics::PrefixPhasors;
use wiforce_dsp::Complex;

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|ε| < 1.5e-7 — far below the KS tolerance).
fn std_normal_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * z.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-z * z).exp();
    let erf = if z < 0.0 { -erf } else { erf };
    0.5 * (1.0 + erf)
}

/// The mean-subtraction shrink `1 − |D̄|²` of the line at `f_hz` over a
/// group of `n` snapshots `t_snap` apart, where `D̄ = P[N]/N` is the mean
/// line phasor ([`PrefixPhasors::total`]).
pub(crate) fn shrink(f_hz: f64, t_snap: f64, n: usize) -> f64 {
    let dbar = PrefixPhasors::new(f_hz, t_snap, n)
        .total()
        .scale(1.0 / n as f64);
    (1.0 - dbar.norm_sqr()).max(0.0)
}

/// The modeled per-component σ of the line at `f_hz` of a group of `n`
/// snapshots `t_snap` apart, for per-snapshot estimate noise of variance
/// `var_row` per component: `√(var_row·(1−|D̄|²)/N)`.
pub(crate) fn modeled_sigma(var_row: f64, f_hz: f64, t_snap: f64, n: usize) -> f64 {
    (var_row * shrink(f_hz, t_snap, n) / n as f64).sqrt()
}

/// Worst relative distance of `got` from `want` over a line's
/// subcarriers, against the line's largest magnitude.
pub(crate) fn line_rel_err(got: &[Complex], want: &[Complex]) -> f64 {
    assert_eq!(got.len(), want.len());
    let scale = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
    assert!(scale > 0.0, "an all-zero reference line");
    got.iter()
        .zip(want)
        .map(|(&g, &w)| (g - w).abs() / scale)
        .fold(0.0, f64::max)
}

/// Checks that `residuals[line][bin]` — one complex sample per
/// independent draw — is circular white Gaussian noise of per-component
/// std `sigmas[line]`. Panics with `label` and the failing statistic.
pub(crate) fn check_circular_white_noise(
    label: &str,
    residuals: &[Vec<Vec<Complex>>],
    sigmas: &[f64],
) {
    assert_eq!(residuals.len(), sigmas.len());
    let mut z_all = Vec::new();
    for (li, (bins, &sigma)) in residuals.iter().zip(sigmas).enumerate() {
        assert!(sigma > 0.0, "{label} line {li}: σ {sigma}");
        let z: Vec<Vec<Complex>> = bins
            .iter()
            .map(|b| b.iter().map(|r| r.scale(1.0 / sigma)).collect())
            .collect();
        let s = z[0].len() as f64;
        assert!(z.iter().all(|b| b.len() == z[0].len()));
        // sampling σ of a mean of s products of independent N(0, 1)s
        let se = 1.0 / s.sqrt();
        let mut re_im = 0.0;
        for (k, b) in z.iter().enumerate() {
            let m = 2.0 * s;
            // first moment: the mean of 2·s components within 5 standard
            // errors of zero
            let mean = b.iter().map(|v| v.re + v.im).sum::<f64>() / m;
            assert!(
                mean.abs() < 5.0 / m.sqrt(),
                "{label} line {li} bin {k}: normalized residual mean {mean:e}"
            );
            // per-bin second moment: the χ² spread of the variance
            // estimate is √(2/m) relative; the band is ~3.6σ below and
            // ~4.8σ above (the χ² is right-skewed)
            let var = b.iter().map(|v| v.norm_sqr()).sum::<f64>() / m;
            let spread = (2.0 / m).sqrt();
            assert!(
                (1.0 - 3.6 * spread..1.0 + 4.8 * spread).contains(&var),
                "{label} line {li} bin {k}: variance ratio {var}"
            );
            // re/im correlation within the bin
            let rho = b.iter().map(|v| v.re * v.im).sum::<f64>() / s;
            assert!(
                rho.abs() < 5.0 * se,
                "{label} line {li} bin {k}: re/im correlation {rho} (σ {se})"
            );
            re_im += rho;
            z_all.extend(b.iter().flat_map(|v| [v.re, v.im]));
        }
        let bins_n = z.len() as f64;
        let pooled_se = se / bins_n.sqrt();
        let re_im = re_im / bins_n;
        assert!(
            re_im.abs() < 4.0 * pooled_se,
            "{label} line {li}: pooled re/im correlation {re_im} (σ {pooled_se})"
        );
        // adjacent subcarriers: all four re/im products, per pair and
        // pooled over the line
        type Product = fn(Complex, Complex) -> f64;
        let products: [(&str, Product); 4] = [
            ("re·re", |a, b| a.re * b.re),
            ("im·im", |a, b| a.im * b.im),
            ("re·im", |a, b| a.re * b.im),
            ("im·re", |a, b| a.im * b.re),
        ];
        for (name, product) in products {
            let mut pooled = 0.0;
            for (k, pair) in z.windows(2).enumerate() {
                let rho = pair[0]
                    .iter()
                    .zip(&pair[1])
                    .map(|(&a, &b)| product(a, b))
                    .sum::<f64>()
                    / s;
                assert!(
                    rho.abs() < 5.5 * se,
                    "{label} line {li} bins {k},{}: {name} correlation {rho} (σ {se})",
                    k + 1
                );
                pooled += rho;
            }
            let pairs = (z.len() - 1) as f64;
            let pooled = pooled / pairs;
            assert!(
                pooled.abs() < 4.0 * se / pairs.sqrt(),
                "{label} line {li}: pooled adjacent {name} correlation {pooled}"
            );
        }
    }

    // pooled second moment: the global scale within 5 χ² standard errors
    let m = z_all.len() as f64;
    let pooled = z_all.iter().map(|z| z * z).sum::<f64>() / m;
    assert!(
        (pooled - 1.0).abs() < 5.0 * (2.0 / m).sqrt(),
        "{label}: pooled variance ratio {pooled} over {m} components"
    );

    // KS against N(0,1) — α ≈ 0.001 critical value is 1.95/√M
    z_all.sort_by(f64::total_cmp);
    let mut d_max = 0.0f64;
    for (i, z) in z_all.iter().enumerate() {
        let cdf = std_normal_cdf(*z);
        let lo = i as f64 / m;
        let hi = (i + 1) as f64 / m;
        d_max = d_max.max((cdf - lo).abs()).max((hi - cdf).abs());
    }
    assert!(
        d_max < 2.0 / m.sqrt(),
        "{label}: KS statistic {d_max} over {m} samples"
    );
}

/// Checks the cross-subcarrier covariance of one line's residuals
/// against its noiseless, jitter-free twin: `residuals[bin][draw]`, with
/// `mean_p[draw]` the draw's mean row. Per draw, the model is white line
/// noise of per-component std `sigma_line` plus the common-mode jitter
/// term `i·meanP[k]·J` with `E|J|² = var_j = σ_θ²(1−|D̄|²)/N`:
///
/// `E[r_k·r_k′*] = 2σ_line²·δ_kk′ + meanP[k]·meanP[k′]*·var_j`.
///
/// Every entry `k ≤ k′` of the sample covariance, real and imaginary part
/// apart, must lie within 5 sampling σ of the model averaged over the
/// draws. For circular Gaussian residuals of covariance `C`, one draw's
/// product `r_k·r_k′*` has `Var(Re) = (C_kk·C_k′k′ + Re C_kk′²)/2` and
/// `Var(Im) = (C_kk·C_k′k′ − Re C_kk′²)/2`. Returns the largest
/// off-diagonal `|model|/σ`: how far a missing jitter term would land
/// from the bound.
pub(crate) fn check_jitter_covariance(
    label: &str,
    residuals: &[Vec<Complex>],
    mean_p: &[Vec<Complex>],
    sigma_line: f64,
    var_j: f64,
) -> f64 {
    let k_sub = residuals.len();
    let draws = mean_p.len();
    assert!(residuals.iter().all(|b| b.len() == draws), "{label}");
    let white = 2.0 * sigma_line * sigma_line;
    let model = |m: usize, k: usize, kp: usize| {
        let c = mean_p[m][k] * mean_p[m][kp].conj();
        let c = c.scale(var_j);
        if k == kp {
            c + Complex::from_re(white)
        } else {
            c
        }
    };
    let inv_m = 1.0 / draws as f64;
    let mut power = 0.0f64;
    for k in 0..k_sub {
        for kp in k..k_sub {
            let mut est = Complex::ZERO;
            let mut want = Complex::ZERO;
            let (mut var_re, mut var_im) = (0.0, 0.0);
            for (m, (&a, &b)) in residuals[k].iter().zip(&residuals[kp]).enumerate() {
                est += a * b.conj();
                let c = model(m, k, kp);
                want += c;
                let diag = model(m, k, k).re * model(m, kp, kp).re;
                let c2 = (c * c).re;
                var_re += 0.5 * (diag + c2);
                var_im += 0.5 * (diag - c2).max(0.0);
            }
            let (est, want) = (est.scale(inv_m), want.scale(inv_m));
            let (sd_re, sd_im) = (var_re.sqrt() * inv_m, var_im.sqrt() * inv_m);
            assert!(
                (est.re - want.re).abs() <= 5.0 * sd_re && (est.im - want.im).abs() <= 5.0 * sd_im,
                "{label} bins {k},{kp}: covariance {est:?} vs model {want:?} (σ {sd_re:e}, {sd_im:e})"
            );
            if k != kp {
                power = power.max(want.abs() / sd_re.hypot(sd_im));
            }
        }
    }
    power
}
