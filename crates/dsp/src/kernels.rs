//! Runtime-dispatched SIMD kernels for the pipeline's inner loops.
//!
//! Every hot per-sample loop in the simulator — Philox noise fill,
//! complex multiply-accumulate (the line fold, tag-response
//! synthesis, preamble repeat averaging), the spectral line finisher,
//! window application, ADC quantization — funnels
//! through this module. Each
//! kernel is written once as an explicitly chunked, autovectorization-
//! friendly scalar body; `#[target_feature]` wrappers re-instantiate the
//! *same Rust code* with AVX2 / AVX-512F (x86-64) or NEON (aarch64)
//! enabled, so LLVM may only vectorize it in semantics-preserving ways:
//! no FMA contraction, no reassociation, identical rounding. The runtime
//! [`backend`] dispatch therefore never changes results — a simulation
//! reproduces bit-for-bit whichever path the CPU takes, which the
//! property tests in this module pin down.
//!
//! The resolved backend is one process-wide value, so a dispatch is one
//! relaxed load and one `match`. Tests pin it to the scalar bodies with
//! [`hold_scalar`]: while any [`ScalarHold`] is alive every thread —
//! synthesis pool and batch workers included — dispatches to scalar,
//! which runs the fallback path and gives a ground truth to diff against.

use crate::Complex;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Which instantiation of the kernel bodies the runtime dispatch picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar bodies (also what [`hold_scalar`] pins).
    Scalar,
    /// x86-64 AVX2 instantiation.
    Avx2,
    /// x86-64 AVX-512 (F+DQ+VL) instantiation.
    Avx512,
    /// aarch64 NEON instantiation.
    Neon,
}

impl Backend {
    /// Short lowercase name (`"scalar"`, `"avx2"`, `"avx512"`, `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }
}

/// Names of every dispatched kernel, for health-report introspection.
pub const KERNEL_NAMES: &[&str] = &[
    "philox_complex_normals",
    "philox_complex_normals_rows",
    "fold_rows",
    "synth_truth",
    "accumulate_state",
    "blend_states",
    "accumulate_noisy",
    "spectral_line",
    "apply_window",
    "quantize_complex",
];

/// What the CPU supports: CPUID/NEON detection, scalar fallback.
fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return Backend::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Backend::Neon;
        }
    }
    Backend::Scalar
}

/// [`BACKEND`] before the first dispatch resolves it.
const UNRESOLVED: u8 = u8::MAX;

/// The backend every dispatch takes, as `Backend as u8`; written only
/// under [`HOLDS`]' lock. `Relaxed` throughout: the value publishes no
/// other data, and every backend gives the same bits, so a thread that
/// reads a stale value only runs another instantiation.
static BACKEND: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Live [`ScalarHold`] guards.
static HOLDS: Mutex<usize> = Mutex::new(0);

/// The guard count, recovered from a poisoned lock: each update is one
/// step that leaves it valid, and a guard's `drop` must not panic.
fn holds() -> std::sync::MutexGuard<'static, usize> {
    HOLDS.lock().unwrap_or_else(|e| e.into_inner())
}

#[cold]
fn resolve() -> Backend {
    // the store happens under the lock, so it cannot undo a hold
    let held = holds();
    let b = if *held == 0 {
        detect()
    } else {
        Backend::Scalar
    };
    BACKEND.store(b as u8, Ordering::Relaxed);
    b
}

/// The backend the dispatch table takes: the detected one (CPUID/NEON,
/// scalar fallback), or scalar while a [`ScalarHold`] is alive.
#[inline]
pub fn backend() -> Backend {
    const SCALAR: u8 = Backend::Scalar as u8;
    const AVX2: u8 = Backend::Avx2 as u8;
    const AVX512: u8 = Backend::Avx512 as u8;
    const NEON: u8 = Backend::Neon as u8;
    match BACKEND.load(Ordering::Relaxed) {
        SCALAR => Backend::Scalar,
        AVX2 => Backend::Avx2,
        AVX512 => Backend::Avx512,
        NEON => Backend::Neon,
        _ => resolve(),
    }
}

/// Pins every thread's dispatch to [`Backend::Scalar`] until the last
/// live guard drops. Every backend is bit-identical to the scalar bodies,
/// so a hold that overlaps other work changes its speed, never its
/// results; tests use it to run the pins under both dispatches in one
/// process. It does change which backend that work checks, though: a
/// test that must see the detected backend (a dispatched entry against
/// its scalar body) shares no test binary with a hold, or is serialized
/// against every hold in it.
#[must_use = "the hold ends when the guard drops"]
pub fn hold_scalar() -> ScalarHold {
    let mut held = holds();
    *held += 1;
    BACKEND.store(Backend::Scalar as u8, Ordering::Relaxed);
    ScalarHold(())
}

/// Guard of [`hold_scalar`]; dropping the last one restores the detected
/// backend.
#[derive(Debug)]
pub struct ScalarHold(());

impl Drop for ScalarHold {
    fn drop(&mut self) {
        let mut held = holds();
        *held -= 1;
        if *held == 0 {
            BACKEND.store(detect() as u8, Ordering::Relaxed);
        }
    }
}

/// The dispatched kernel set: `(kernel name, backend name)` per kernel.
/// All kernels share one backend decision; the pairs exist so health
/// reports can enumerate exactly what ran.
pub fn active_kernels() -> Vec<(&'static str, &'static str)> {
    let b = backend().name();
    KERNEL_NAMES.iter().map(|&k| (k, b)).collect()
}

/// Declares one dispatched kernel: a shared `#[inline(always)]` body,
/// per-ISA `#[target_feature]` instantiations of that same body, and the
/// public entry point that routes through [`backend`].
macro_rules! simd_kernel {
    (
        $(#[$doc:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?)
            = $body:ident / $avx2:ident / $avx512:ident / $neon:ident
    ) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        fn $avx512($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[cfg(target_arch = "aarch64")]
        #[target_feature(enable = "neon")]
        fn $neon($($arg: $ty),*) {
            $body($($arg),*)
        }

        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            match backend() {
                // Safety: each arm was gated on runtime detection of the
                // exact feature its wrapper enables.
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => unsafe { $avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                Backend::Avx512 => unsafe { $avx512($($arg),*) },
                #[cfg(target_arch = "aarch64")]
                Backend::Neon => unsafe { $neon($($arg),*) },
                _ => $body($($arg),*),
            }
        }
    };
}

// ---------------------------------------------------------------------
// Counter-based (Philox) noise fill
// ---------------------------------------------------------------------

#[inline(always)]
fn philox_complex_normals_body(key: [u32; 2], ctr_hi: [u32; 3], lane0: u32, out: &mut [Complex]) {
    for (i, o) in out.iter_mut().enumerate() {
        let lane = lane0.wrapping_add(i as u32);
        let (u1, u2) = crate::rng::philox_uniforms([lane, ctr_hi[0], ctr_hi[1], ctr_hi[2]], key);
        let (re, im) = crate::fastmath::box_muller_pair(u1, u2);
        *o = Complex::new(re, im);
    }
}

simd_kernel! {
    /// Fills `out` with standard complex normals (each component N(0, 1),
    /// independent) from the Philox 4x32-10 counter stream at
    /// `(key, ctr_hi, lane0 + i)`: one counter block per value, whose two
    /// uniforms give both Box–Muller components (cosine and sine), so a
    /// complex value costs one block, one logarithm and one square root.
    /// Bit-identical to the scalar
    /// [`crate::rng::philox_complex_normal_at`] per element.
    pub fn philox_complex_normals(key: [u32; 2], ctr_hi: [u32; 3], lane0: u32, out: &mut [Complex])
        = philox_complex_normals_body / philox_complex_normals_avx2
        / philox_complex_normals_avx512 / philox_complex_normals_neon
}

#[inline(always)]
fn philox_complex_normals_rows_body(
    key: [u32; 2],
    grp_dom: [u32; 2],
    snap0: u32,
    lane0: u32,
    lanes: usize,
    out: &mut [Complex],
) {
    if lanes == 0 {
        return;
    }
    for (r, row) in out.chunks_exact_mut(lanes).enumerate() {
        let snap = snap0.wrapping_add(r as u32);
        philox_complex_normals_body(key, [snap, grp_dom[0], grp_dom[1]], lane0, row);
    }
}

simd_kernel! {
    /// Wide (snapshot-major) Philox complex-noise fill: `out` is a plane
    /// of `out.len() / lanes` rows with `lanes` complex normals each; row
    /// `r` holds the values at counter coordinates
    /// `(key, [lane, snap0 + r, grp_dom[0], grp_dom[1]])` for lanes
    /// `lane0..lane0 + lanes` — bit-identical per row to a
    /// [`philox_complex_normals`] call with `ctr_hi = [snap0 + r,
    /// grp_dom[0], grp_dom[1]]` at the same `lane0`, but filled in one
    /// kernel invocation so the vector unit stays busy across whole
    /// snapshot blocks. A trailing partial row (`out.len() % lanes != 0`)
    /// is left untouched.
    pub fn philox_complex_normals_rows(key: [u32; 2], grp_dom: [u32; 2], snap0: u32, lane0: u32, lanes: usize, out: &mut [Complex])
        = philox_complex_normals_rows_body / philox_complex_normals_rows_avx2
        / philox_complex_normals_rows_avx512 / philox_complex_normals_rows_neon
}

// ---------------------------------------------------------------------
// Complex multiply-accumulate family
// ---------------------------------------------------------------------

#[inline(always)]
fn fold_rows_body(out: &mut [Complex], rows: &[Complex], phasors: &[&[Complex]]) {
    let width = out.len() / (1 + phasors.len());
    if width == 0 {
        return;
    }
    let (sums, accs) = out.split_at_mut(width);
    for (r, row) in rows.chunks_exact(width).enumerate() {
        for (a, &x) in sums.iter_mut().zip(row) {
            *a += x;
        }
        for (acc, p) in accs.chunks_exact_mut(width).zip(phasors) {
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += x * p[r];
            }
        }
    }
}

simd_kernel! {
    /// The time-domain line fold's block update (also the batched
    /// Goertzel's). `out` holds `1 + phasors.len()` rows of `rows`' width:
    /// each row `r` of `rows` is added to the first (the column sums) and,
    /// times `phasors[b][r]`, to row `b + 1`.
    pub fn fold_rows(out: &mut [Complex], rows: &[Complex], phasors: &[&[Complex]])
        = fold_rows_body / fold_rows_avx2 / fold_rows_avx512 / fold_rows_neon
}

#[inline(always)]
fn synth_truth_body(
    out: &mut [Complex],
    statics: &[Complex],
    gains: &[Complex],
    table: &[[Complex; 4]],
    state: usize,
) {
    for (((h, &s), &g), row) in out.iter_mut().zip(statics).zip(gains).zip(table) {
        *h = s + g * row[state];
    }
}

simd_kernel! {
    /// Per-subcarrier channel synthesis for one pure tag state:
    /// `out[k] = statics[k] + gains[k] · table[k][state]`.
    pub fn synth_truth(out: &mut [Complex], statics: &[Complex], gains: &[Complex], table: &[[Complex; 4]], state: usize)
        = synth_truth_body / synth_truth_avx2 / synth_truth_avx512 / synth_truth_neon
}

#[inline(always)]
fn accumulate_state_body(
    acc: &mut [Complex],
    gains: &[Complex],
    table: &[[Complex; 4]],
    state: usize,
) {
    for ((h, &g), row) in acc.iter_mut().zip(gains).zip(table) {
        *h += g * row[state];
    }
}

simd_kernel! {
    /// Adds one tag stream's pure-state backscatter:
    /// `acc[k] += gains[k] · table[k][state]`.
    pub fn accumulate_state(acc: &mut [Complex], gains: &[Complex], table: &[[Complex; 4]], state: usize)
        = accumulate_state_body / accumulate_state_avx2
        / accumulate_state_avx512 / accumulate_state_neon
}

#[inline(always)]
fn blend_states_body(acc: &mut [Complex], gains: &[Complex], table: &[[Complex; 4]], w: &[f64; 4]) {
    for ((h, &g), row) in acc.iter_mut().zip(gains).zip(table) {
        let avg = row[0].scale(w[0]) + row[1].scale(w[1]) + row[2].scale(w[2]) + row[3].scale(w[3]);
        *h += g * avg;
    }
}

simd_kernel! {
    /// Adds one tag stream's backscatter with the four switch states
    /// blended by integration-window weights `w` (summed in state order,
    /// matching the reference evaluation bit-for-bit).
    pub fn blend_states(acc: &mut [Complex], gains: &[Complex], table: &[[Complex; 4]], w: &[f64; 4])
        = blend_states_body / blend_states_avx2 / blend_states_avx512 / blend_states_neon
}

#[inline(always)]
fn accumulate_noisy_body(acc: &mut [Complex], signal: &[Complex], noise: &[Complex], amp: f64) {
    for ((a, &x), &g) in acc.iter_mut().zip(signal).zip(noise) {
        *a += x + g.scale(amp);
    }
}

simd_kernel! {
    /// One noisy preamble repeat: `acc[i] += signal[i] + amp·noise[i]`,
    /// with `noise` holding `acc.len()` standard complex normals.
    pub fn accumulate_noisy(acc: &mut [Complex], signal: &[Complex], noise: &[Complex], amp: f64)
        = accumulate_noisy_body / accumulate_noisy_avx2
        / accumulate_noisy_avx512 / accumulate_noisy_neon
}

// ---------------------------------------------------------------------
// Spectral line finisher
// ---------------------------------------------------------------------

/// The per-line scalars of one [`spectral_line`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineTerms {
    /// State shares `n_σ/N` of the group's mean row.
    pub cbar: [f64; 4],
    /// Deterministic state weights `W_σ`.
    pub w: [Complex; 4],
    /// Per-component standard deviation of the line noise.
    pub sigma_line: f64,
    /// The line's common-mode jitter draw `J`, shared by every subcarrier.
    pub jitter: Complex,
    /// Reference rotation applied to the whole line.
    pub reference: Complex,
}

#[inline(always)]
fn spectral_line_body(
    out: &mut [Complex],
    statics: &[Complex],
    spectra: [&[Complex]; 4],
    normals: &[Complex],
    t: &LineTerms,
) {
    // equal-length reslices let the loop index without bounds checks
    let n = out.len();
    let (statics, normals) = (&statics[..n], &normals[..n]);
    let [b0, b1, b2, b3] = spectra.map(|b| &b[..n]);
    for k in 0..n {
        let mean_p = statics[k]
            + b0[k].scale(t.cbar[0])
            + b1[k].scale(t.cbar[1])
            + b2[k].scale(t.cbar[2])
            + b3[k].scale(t.cbar[3]);
        let det = b0[k] * t.w[0] + b1[k] * t.w[1] + b2[k] * t.w[2] + b3[k] * t.w[3];
        let noise_k = normals[k].scale(t.sigma_line);
        out[k] = t.reference * (det + noise_k + Complex::I * mean_p * t.jitter);
    }
}

simd_kernel! {
    /// One spectral line across subcarriers, from the per-state
    /// backscatter spectra `B_σ = spectra[σ]` and one complex normal per
    /// subcarrier:
    /// `out[k] = ref·(Σ_σ B_σ[k]·W_σ + σ_line·normals[k] + i·meanP[k]·J)`
    /// with the mean row `meanP[k] = statics[k] + Σ_σ B_σ[k]·cbar_σ`, each
    /// sum taken in state order. Every slice holds at least `out.len()`
    /// entries; extra entries are ignored.
    pub fn spectral_line(out: &mut [Complex], statics: &[Complex], spectra: [&[Complex]; 4], normals: &[Complex], t: &LineTerms)
        = spectral_line_body / spectral_line_avx2 / spectral_line_avx512 / spectral_line_neon
}

// ---------------------------------------------------------------------
// Window application, quantization
// ---------------------------------------------------------------------

#[inline(always)]
fn apply_window_body(frame: &mut [Complex], window: &[f64]) {
    for (z, &w) in frame.iter_mut().zip(window) {
        *z = z.scale(w);
    }
}

simd_kernel! {
    /// Multiplies a complex frame by a real window in place.
    pub fn apply_window(frame: &mut [Complex], window: &[f64])
        = apply_window_body / apply_window_avx2 / apply_window_avx512 / apply_window_neon
}

#[inline(always)]
fn quantize_complex_body(row: &mut [Complex], full_scale: f64, step: f64) {
    for z in row.iter_mut() {
        let re = (z.re.clamp(-full_scale, full_scale) / step).round() * step;
        let im = (z.im.clamp(-full_scale, full_scale) / step).round() * step;
        *z = Complex::new(re, im);
    }
}

simd_kernel! {
    /// Mid-tread uniform quantization of both components to multiples of
    /// `step`, clamped to `±full_scale` — the bulk form of an ADC
    /// transfer curve. Callers pass the same `step = 2·full_scale/levels`
    /// as their scalar reference so results agree bit-for-bit.
    pub fn quantize_complex(row: &mut [Complex], full_scale: f64, step: f64)
        = quantize_complex_body / quantize_complex_avx2
        / quantize_complex_avx512 / quantize_complex_neon
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn complexes(rng: &mut StdRng, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|_| Complex::new(rng.gen::<f64>() * 4.0 - 2.0, rng.gen::<f64>() * 4.0 - 2.0))
            .collect()
    }

    fn table(rng: &mut StdRng, n: usize) -> Vec<[Complex; 4]> {
        (0..n)
            .map(|_| {
                [
                    Complex::new(rng.gen(), rng.gen()),
                    Complex::new(rng.gen(), rng.gen()),
                    Complex::new(rng.gen(), rng.gen()),
                    Complex::new(rng.gen(), rng.gen()),
                ]
            })
            .collect()
    }

    fn assert_bits_eq(a: &[Complex], b: &[Complex]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re mismatch at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im mismatch at {i}");
        }
    }

    #[test]
    fn backend_is_detected_and_named() {
        let b = backend();
        assert!(!b.name().is_empty());
        let kernels = active_kernels();
        assert_eq!(kernels.len(), KERNEL_NAMES.len());
        assert!(kernels.iter().all(|&(_, back)| back == b.name()));
    }

    // Every kernel below: dispatched entry point vs scalar body must be
    // bit-identical, at lengths straddling the chunk width.

    #[test]
    fn philox_complex_kernel_matches_scalar_bitwise() {
        let key = [0xDEAD_BEEF, 0x0123_4567];
        let ctr_hi = [17, 3, 2];
        for n in [0, 1, 7, 8, 9, 64, 65, 1013] {
            let mut fast = vec![Complex::ZERO; n];
            philox_complex_normals(key, ctr_hi, 5, &mut fast);
            let mut want = vec![Complex::ZERO; n];
            philox_complex_normals_body(key, ctr_hi, 5, &mut want);
            assert_bits_eq(&fast, &want);
            for (i, z) in fast.iter().enumerate() {
                let lane = 5u32.wrapping_add(i as u32);
                let scalar = crate::rng::philox_complex_normal_at(key, ctr_hi, lane);
                assert_bits_eq(&[*z], &[scalar]);
            }
        }
    }

    #[test]
    fn philox_kernel_is_offset_invariant() {
        // Drawing lanes [0, 64) in one call or two must agree bitwise:
        // each element depends only on its own counter coordinates.
        let key = [1, 2];
        let ctr_hi = [9, 9, 0];
        let mut whole = vec![Complex::ZERO; 64];
        philox_complex_normals(key, ctr_hi, 0, &mut whole);
        let mut parts = vec![Complex::ZERO; 64];
        let (lo, hi) = parts.split_at_mut(24);
        philox_complex_normals(key, ctr_hi, 0, lo);
        philox_complex_normals(key, ctr_hi, 24, hi);
        assert_bits_eq(&whole, &parts);
    }

    #[test]
    fn cmac_kernels_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [1, 5, 8, 64, 127] {
            // a 3-row block of width n at two bins
            let rows = complexes(&mut rng, 3 * n);
            let (p1, p2) = (complexes(&mut rng, 3), complexes(&mut rng, 3));
            let phasors: [&[Complex]; 2] = [&p1, &p2];
            let base = complexes(&mut rng, 3 * n);
            let mut got = base.clone();
            fold_rows(&mut got, &rows, &phasors);
            let mut want = base.clone();
            fold_rows_body(&mut want, &rows, &phasors);
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn synthesis_kernels_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1, 8, 64, 65] {
            let statics = complexes(&mut rng, n);
            let gains = complexes(&mut rng, n);
            let tab = table(&mut rng, n);
            let w = [0.25, 0.125, 0.5, 0.125];
            for state in 0..4 {
                let mut got = vec![Complex::ZERO; n];
                synth_truth(&mut got, &statics, &gains, &tab, state);
                let mut want = vec![Complex::ZERO; n];
                synth_truth_body(&mut want, &statics, &gains, &tab, state);
                assert_bits_eq(&got, &want);

                let mut got = statics.clone();
                accumulate_state(&mut got, &gains, &tab, state);
                let mut want = statics.clone();
                accumulate_state_body(&mut want, &gains, &tab, state);
                assert_bits_eq(&got, &want);
            }
            let mut got = statics.clone();
            blend_states(&mut got, &gains, &tab, &w);
            let mut want = statics.clone();
            blend_states_body(&mut want, &gains, &tab, &w);
            assert_bits_eq(&got, &want);
        }
    }

    /// Random inputs of one [`spectral_line`] call over `n` subcarriers:
    /// statics, four state-major spectra rows, `n + 1` normals (the
    /// finisher draws one extra, the jitter) and the per-line terms.
    fn spectral_line_inputs(
        rng: &mut StdRng,
        n: usize,
    ) -> (Vec<Complex>, Vec<Complex>, Vec<Complex>, LineTerms) {
        let statics = complexes(rng, n);
        let spectra = complexes(rng, 4 * n);
        let normals = complexes(rng, n + 1);
        let terms = LineTerms {
            cbar: [0.25, 0.375, 0.125, 0.25],
            w: std::array::from_fn(|_| {
                Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
            }),
            sigma_line: 0.013,
            jitter: Complex::new(rng.gen::<f64>() * 1e-3, rng.gen::<f64>() * 1e-3),
            reference: Complex::cis(rng.gen::<f64>() * 6.0),
        };
        (statics, spectra, normals, terms)
    }

    fn spectra_rows(spectra: &[Complex], n: usize) -> [&[Complex]; 4] {
        std::array::from_fn(|q| &spectra[q * n..(q + 1) * n])
    }

    #[test]
    fn spectral_line_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [0, 1, 7, 8, 9, 64, 67] {
            let (statics, spectra, normals, terms) = spectral_line_inputs(&mut rng, n);
            let rows = spectra_rows(&spectra, n);
            let mut got = vec![Complex::ZERO; n];
            spectral_line(&mut got, &statics, rows, &normals, &terms);
            let mut want = vec![Complex::ZERO; n];
            spectral_line_body(&mut want, &statics, rows, &normals, &terms);
            assert_bits_eq(&got, &want);
            // the element expression, written out in state order
            for k in 0..n {
                let b = |q: usize| rows[q][k];
                let mean_p = statics[k]
                    + b(0).scale(terms.cbar[0])
                    + b(1).scale(terms.cbar[1])
                    + b(2).scale(terms.cbar[2])
                    + b(3).scale(terms.cbar[3]);
                let det =
                    b(0) * terms.w[0] + b(1) * terms.w[1] + b(2) * terms.w[2] + b(3) * terms.w[3];
                let line = terms.reference
                    * (det
                        + normals[k].scale(terms.sigma_line)
                        + Complex::I * mean_p * terms.jitter);
                assert_bits_eq(&got[k..k + 1], &[line]);
            }
        }
    }

    #[test]
    fn accumulate_noisy_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1, 8, 64, 100] {
            let signal = complexes(&mut rng, n);
            let noise = complexes(&mut rng, n);
            let base = complexes(&mut rng, n);
            let mut got = base.clone();
            accumulate_noisy(&mut got, &signal, &noise, 0.37);
            let mut want = base.clone();
            accumulate_noisy_body(&mut want, &signal, &noise, 0.37);
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn philox_complex_rows_kernel_matches_single_row_bitwise() {
        // A plane fill must agree per row with the row-at-a-time kernel
        // and the scalar per-element draw — same counter coordinates —
        // at lane 0, past one drawn drop decision (lane 1), and further in.
        let key = [0x5EED_CAFE, 0x89AB_CDEF];
        let grp_dom = [7, 0];
        for (rows, lanes, lane0) in [
            (0usize, 8usize, 0u32),
            (1, 1, 0),
            (3, 7, 1),
            (4, 64, 0),
            (4, 64, 1),
            (9, 33, 5),
            (2, 64, 5),
        ] {
            let mut plane = vec![Complex::ZERO; rows * lanes];
            philox_complex_normals_rows(key, grp_dom, 11, lane0, lanes, &mut plane);
            let mut want_plane = vec![Complex::ZERO; rows * lanes];
            philox_complex_normals_rows_body(key, grp_dom, 11, lane0, lanes, &mut want_plane);
            assert_bits_eq(&plane, &want_plane);
            for (r, got) in plane.chunks_exact(lanes).enumerate() {
                let ctr_hi = [11u32.wrapping_add(r as u32), grp_dom[0], grp_dom[1]];
                let mut row = vec![Complex::ZERO; lanes];
                philox_complex_normals(key, ctr_hi, lane0, &mut row);
                assert_bits_eq(got, &row);
                for (i, z) in got.iter().enumerate() {
                    let scalar =
                        crate::rng::philox_complex_normal_at(key, ctr_hi, lane0 + i as u32);
                    assert_bits_eq(&[*z], &[scalar]);
                }
            }
        }
    }

    #[test]
    fn philox_complex_rows_kernel_ignores_partial_tail() {
        let key = [1, 2];
        let nan = Complex::new(f64::NAN, f64::NAN);
        let mut plane = vec![nan; 2 * 8 + 3];
        philox_complex_normals_rows(key, [0, 0], 0, 0, 8, &mut plane);
        assert!(plane[..16]
            .iter()
            .all(|v| v.re.is_finite() && v.im.is_finite()));
        assert!(plane[16..].iter().all(|v| v.re.is_nan() && v.im.is_nan()));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_isa_instantiations_match_scalar_bitwise() {
        // the complex-noise plane at a full and a ragged lane count
        let key = [3, 4];
        for (rows, lanes) in [(5usize, 64usize), (5, 67)] {
            let mut scalar = vec![Complex::ZERO; rows * lanes];
            philox_complex_normals_rows_body(key, [2, 1], 6, 1, lanes, &mut scalar);
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut v = vec![Complex::ZERO; rows * lanes];
                // Safety: AVX2 support was just detected.
                unsafe { philox_complex_normals_rows_avx2(key, [2, 1], 6, 1, lanes, &mut v) };
                assert_bits_eq(&v, &scalar);
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                let mut v = vec![Complex::ZERO; rows * lanes];
                // Safety: AVX-512 F+DQ+VL support was just detected.
                unsafe { philox_complex_normals_rows_avx512(key, [2, 1], 6, 1, lanes, &mut v) };
                assert_bits_eq(&v, &scalar);
            }
        }

        // the spectral line finisher at a full and a ragged subcarrier count
        let mut rng = StdRng::seed_from_u64(10);
        for n in [64usize, 67] {
            let (statics, spectra, normals, terms) = spectral_line_inputs(&mut rng, n);
            let rows = spectra_rows(&spectra, n);
            let mut scalar = vec![Complex::ZERO; n];
            spectral_line_body(&mut scalar, &statics, rows, &normals, &terms);
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut v = vec![Complex::ZERO; n];
                // Safety: AVX2 support was just detected.
                unsafe { spectral_line_avx2(&mut v, &statics, rows, &normals, &terms) };
                assert_bits_eq(&v, &scalar);
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                let mut v = vec![Complex::ZERO; n];
                // Safety: AVX-512 F+DQ+VL support was just detected.
                unsafe { spectral_line_avx512(&mut v, &statics, rows, &normals, &terms) };
                assert_bits_eq(&v, &scalar);
            }
        }
    }

    #[test]
    fn window_quantize_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1, 8, 64, 99] {
            let frame = complexes(&mut rng, n);
            let win: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
            let mut got = frame.clone();
            apply_window(&mut got, &win);
            let mut want = frame.clone();
            apply_window_body(&mut want, &win);
            assert_bits_eq(&got, &want);

            let row = complexes(&mut rng, n);
            let full_scale = 1.5;
            let step = 2.0 * full_scale / 1024.0;
            let mut got = row.clone();
            quantize_complex(&mut got, full_scale, step);
            let mut want = row.clone();
            quantize_complex_body(&mut want, full_scale, step);
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    #[ignore = "manual micro-benchmark of the per-ISA instantiations"]
    fn timing_per_isa() {
        // one 64-snapshot block of OFDM sounder noise: 64 lanes per row
        let (rows, lanes) = (64usize, 64usize);
        let key = [0x5EED, 0xB10C];
        let mut out = vec![Complex::ZERO; rows * lanes];
        let iters = 2000;
        type FillFn<'a> = &'a mut dyn FnMut(&mut [Complex]);
        let mut time = |f: FillFn| {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                f(&mut out);
            }
            t.elapsed().as_secs_f64() / iters as f64 * 1e6
        };
        println!(
            "scalar body: {:.2} us",
            time(&mut |o| philox_complex_normals_rows_body(key, [3, 0], 0, 0, lanes, o))
        );
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                println!(
                    "avx2: {:.2} us",
                    // Safety: AVX2 support was just detected.
                    time(&mut |o| unsafe {
                        philox_complex_normals_rows_avx2(key, [3, 0], 0, 0, lanes, o)
                    })
                );
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                println!(
                    "avx512: {:.2} us",
                    // Safety: AVX-512 F+DQ+VL support was just detected.
                    time(&mut |o| unsafe {
                        philox_complex_normals_rows_avx512(key, [3, 0], 0, 0, lanes, o)
                    })
                );
            }
        }
    }

    /// Per-ISA check for the Philox complex-normal kernel: the RNG family
    /// must reproduce bit-for-bit on every vector unit it dispatches to.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn philox_complex_isa_instantiations_match_scalar_bitwise() {
        let key = [0x9E37_79B9, 0x7F4A_7C15];
        let ctr_hi = [611, 2, 2];
        let n = 1013;
        let mut scalar = vec![Complex::ZERO; n];
        philox_complex_normals_body(key, ctr_hi, 0, &mut scalar);
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut v = vec![Complex::ZERO; n];
            // Safety: AVX2 support was just detected.
            unsafe { philox_complex_normals_avx2(key, ctr_hi, 0, &mut v) };
            assert_bits_eq(&v, &scalar);
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            let mut v = vec![Complex::ZERO; n];
            // Safety: AVX-512 F+DQ+VL support was just detected.
            unsafe { philox_complex_normals_avx512(key, ctr_hi, 0, &mut v) };
            assert_bits_eq(&v, &scalar);
        }
    }
}
