//! Seeded random sampling: Gaussian and circularly-symmetric complex
//! Gaussian noise.
//!
//! The `rand` crate (the only approved runtime dependency) provides uniform
//! sampling; the Gaussian transform (Box–Muller) lives here so the channel
//! and front-end simulators can draw AWGN without pulling in `rand_distr`.
//! All samplers take a caller-supplied `Rng`, keeping every simulation
//! deterministic under a fixed seed.

use crate::complex::Complex;
use crate::fastmath;
use rand::Rng;

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// The transform runs on the polynomial kernels in [`crate::fastmath`]
/// (within ~4 ulp of libm), the same scalar [`fastmath::box_muller`] the
/// Philox bulk kernels apply per lane.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard the log against u1 == 0.
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    fastmath::box_muller(u1, u2)
}

/// Draws a normal sample with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Draws a circularly-symmetric complex Gaussian sample with total variance
/// `variance` (`variance/2` per real component) — the standard AWGN model.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, variance: f64) -> Complex {
    let s = (variance / 2.0).sqrt();
    Complex::new(s * standard_normal(rng), s * standard_normal(rng))
}

/// Fills a buffer with AWGN of the given total variance per sample.
pub fn awgn_buffer<R: Rng + ?Sized>(rng: &mut R, len: usize, variance: f64) -> Vec<Complex> {
    (0..len).map(|_| complex_gaussian(rng, variance)).collect()
}

/// Draws a uniform sample in `[lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

// ---------------------------------------------------------------------
// Counter-based (splittable) randomness: Philox 4x32-10
// ---------------------------------------------------------------------

const PHILOX_M0: u32 = 0xD251_1F53;
const PHILOX_M1: u32 = 0xCD9E_8D57;
const PHILOX_W0: u32 = 0x9E37_79B9;
const PHILOX_W1: u32 = 0xBB67_AE85;

#[inline(always)]
fn mulhilo(a: u32, b: u32) -> (u32, u32) {
    let p = u64::from(a) * u64::from(b);
    ((p >> 32) as u32, p as u32)
}

/// One Philox 4x32-10 block: a keyed bijection of the 128-bit counter.
///
/// This is the primitive under every counter-addressed draw in the
/// simulator: the output is a pure function of `(ctr, key)`, so a draw
/// site that derives its counter from simulation coordinates (press key,
/// group, snapshot, lane) produces the same bits regardless of
/// evaluation order, chunking, or thread count. Matches the published
/// Random123 known-answer vectors (pinned in the tests below).
#[inline(always)]
pub fn philox4x32(mut ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    let (mut k0, mut k1) = (key[0], key[1]);
    for _ in 0..10 {
        let (hi0, lo0) = mulhilo(PHILOX_M0, ctr[0]);
        let (hi1, lo1) = mulhilo(PHILOX_M1, ctr[2]);
        ctr = [hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0];
        k0 = k0.wrapping_add(PHILOX_W0);
        k1 = k1.wrapping_add(PHILOX_W1);
    }
    ctr
}

/// The two Box–Muller uniforms of the Philox block at `ctr`, both on the
/// 2⁻⁵³ grid: `u1 ∈ (0, 1]` from the low 64 bits (offset by one ulp so
/// the log never sees zero without a data-dependent redraw, which keeps
/// the bulk kernels branch-free and vectorizable), `u2 ∈ [0, 1)` from the
/// high 64 bits.
#[inline(always)]
pub(crate) fn philox_uniforms(ctr: [u32; 4], key: [u32; 2]) -> (f64, f64) {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    let b = philox4x32(ctr, key);
    let a = (u64::from(b[1]) << 32) | u64::from(b[0]);
    let c = (u64::from(b[3]) << 32) | u64::from(b[2]);
    (((a >> 11) + 1) as f64 * SCALE, (c >> 11) as f64 * SCALE)
}

/// The scalar reference for [`crate::kernels::philox_complex_normals`]:
/// the standard complex normal (each component N(0, 1)) at counter
/// `[lane, ctr_hi[0], ctr_hi[1], ctr_hi[2]]`: both Box–Muller components
/// ([`fastmath::box_muller_pair`]) of the block's two uniforms
/// ([`philox_uniforms`]).
pub fn philox_complex_normal_at(key: [u32; 2], ctr_hi: [u32; 3], lane: u32) -> Complex {
    let (u1, u2) = philox_uniforms([lane, ctr_hi[0], ctr_hi[1], ctr_hi[2]], key);
    let (re, im) = fastmath::box_muller_pair(u1, u2);
    Complex::new(re, im)
}

/// Counter domain for per-snapshot draws (sounder noise, fault
/// decisions, burst interference, front-end jitter).
pub const DOMAIN_SNAPSHOT: u32 = 0;
/// Counter domain for per-group header draws (tag-clock wander steps).
pub const DOMAIN_GROUP: u32 = 1;
/// Counter domain for spectral-line draws: frequency-domain noise at the
/// consumed bins only. The "snapshot" counter slot carries the bin
/// coordinate (the line frequency in centi-hertz), so every
/// `(press key, group, bin)` triple addresses a disjoint lane space —
/// disjoint from both time-domain domains above, which is what lets the
/// spectral and time-domain paths coexist per press without correlated
/// draws.
pub const DOMAIN_SPECTRAL: u32 = 2;

/// A cursor into the Philox counter space at fixed simulation
/// coordinates `(key, domain, group, snapshot)`, advancing only the lane.
///
/// The cursor implements [`rand::RngCore`], so every existing draw site
/// (`standard_normal`, `complex_gaussian`, `uniform`, …) works on it
/// unchanged — but unlike a sequential generator, two cursors at
/// different coordinates never share state, so snapshots can be
/// synthesized independently on any worker in any order and still
/// reproduce bit-for-bit. Bulk normal fills bypass the u64 stream and go
/// straight to the SIMD-dispatched kernel: [`Self::fill_complex_normals`]
/// takes one lane per complex sample
/// ([`crate::kernels::philox_complex_normals`], both Box–Muller
/// components of the block).
#[derive(Debug, Clone)]
pub struct CounterRng {
    key: [u32; 2],
    /// High counter words `[snapshot, group, domain]`.
    ctr_hi: [u32; 3],
    lane: u32,
    /// Unconsumed high half of the last block (the u64 stream draws two
    /// words per lane).
    spare: Option<u64>,
}

impl CounterRng {
    /// Cursor at explicit coordinates; lane starts at 0.
    pub fn new(key: u64, domain: u32, group: u32, snapshot: u32) -> Self {
        CounterRng {
            key: [key as u32, (key >> 32) as u32],
            ctr_hi: [snapshot, group, domain],
            lane: 0,
            spare: None,
        }
    }

    /// Cursor for snapshot-local draws ([`DOMAIN_SNAPSHOT`]).
    pub fn for_snapshot(key: u64, group: u32, snapshot: u32) -> Self {
        CounterRng::new(key, DOMAIN_SNAPSHOT, group, snapshot)
    }

    /// Cursor for group-header draws ([`DOMAIN_GROUP`]).
    pub fn for_group(key: u64, group: u32) -> Self {
        CounterRng::new(key, DOMAIN_GROUP, group, 0)
    }

    /// Cursor for spectral-line draws ([`DOMAIN_SPECTRAL`]): one lane
    /// space per `(key, group, bin)`. Callers encode the consumed line
    /// frequency as an integer bin id (see [`spectral_bin_id`]).
    pub fn for_spectral(key: u64, group: u32, bin: u32) -> Self {
        CounterRng::new(key, DOMAIN_SPECTRAL, group, bin)
    }

    /// The next unconsumed lane (counter word 0).
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// The cursor's counter coordinates: key words, high counter words
    /// `[snapshot, group, domain]` and next lane — what a plane kernel
    /// needs to draw a block of consecutive snapshots' lanes at once.
    pub fn position(&self) -> ([u32; 2], [u32; 3], u32) {
        (self.key, self.ctr_hi, self.lane)
    }

    #[inline(always)]
    fn next_block(&mut self) -> [u32; 4] {
        let b = philox4x32(
            [self.lane, self.ctr_hi[0], self.ctr_hi[1], self.ctr_hi[2]],
            self.key,
        );
        self.lane = self.lane.wrapping_add(1);
        b
    }

    /// Fills `out` with standard complex normals (each component N(0, 1))
    /// through the dispatched bulk kernel, consuming one lane per value.
    /// Any buffered spare word is discarded first so the fill starts on a
    /// whole-lane boundary.
    pub fn fill_complex_normals(&mut self, out: &mut [Complex]) {
        self.spare = None;
        crate::kernels::philox_complex_normals(self.key, self.ctr_hi, self.lane, out);
        self.lane = self.lane.wrapping_add(out.len() as u32);
    }

    /// Repositions the cursor as if `n` complex normals had been filled
    /// without materializing them: discards any buffered spare word and
    /// advances `n` lanes. After `skip_normals(n)` the cursor state is
    /// identical to the state after a [`Self::fill_complex_normals`] of an
    /// `n`-value buffer — this is what lets a plane-at-a-time noise fill hand its
    /// per-snapshot cursors back positioned for the remaining scalar
    /// draw sites (burst faults, front-end jitter).
    pub fn skip_normals(&mut self, n: usize) {
        self.spare = None;
        self.lane = self.lane.wrapping_add(n as u32);
    }
}

/// Maps a spectral-line frequency (Hz) to the integer bin id used as
/// the [`DOMAIN_SPECTRAL`] counter coordinate: the frequency in
/// centi-hertz, rounded. Centi-hertz resolution keeps every line the
/// simulator consumes distinct (tag modulation fundamentals, their
/// floor-probe offsets at 1.37×/2.61×, and the multi-stream frequency
/// plan spaced tens of hertz apart) while staying well inside `u32` for
/// any sub-40-MHz line.
pub fn spectral_bin_id(line_hz: f64) -> u32 {
    (line_hz * 100.0).round() as u32
}

impl rand::RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        let b = self.next_block();
        self.spare = Some((u64::from(b[3]) << 32) | u64::from(b[2]));
        (u64::from(b[1]) << 32) | u64::from(b[0])
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev, variance};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(mean(&xs).abs() < 0.02, "mean {}", mean(&xs));
        assert!((std_dev(&xs) - 1.0).abs() < 0.02, "std {}", std_dev(&xs));
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..50_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        assert!((mean(&xs) - 5.0).abs() < 0.05);
        assert!((std_dev(&xs) - 2.0).abs() < 0.05);
    }

    #[test]
    fn complex_gaussian_variance_split() {
        let mut rng = StdRng::seed_from_u64(1);
        let zs: Vec<Complex> = (0..50_000)
            .map(|_| complex_gaussian(&mut rng, 4.0))
            .collect();
        let re: Vec<f64> = zs.iter().map(|z| z.re).collect();
        let im: Vec<f64> = zs.iter().map(|z| z.im).collect();
        assert!((variance(&re) - 2.0).abs() < 0.1);
        assert!((variance(&im) - 2.0).abs() < 0.1);
        // total power ≈ variance
        let p: f64 = zs.iter().map(|z| z.norm_sqr()).sum::<f64>() / zs.len() as f64;
        assert!((p - 4.0).abs() < 0.1);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = uniform(&mut rng, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn philox_matches_published_vectors() {
        // Random123 known-answer tests for Philox 4x32-10.
        assert_eq!(
            philox4x32([0, 0, 0, 0], [0, 0]),
            [0x6627_E8D5, 0xE169_C58D, 0xBC57_AC4C, 0x9B00_DBD8]
        );
        assert_eq!(
            philox4x32([u32::MAX; 4], [u32::MAX; 2]),
            [0x408F_276D, 0x41C8_3B0E, 0xA20B_C7C6, 0x6D54_51FD]
        );
        assert_eq!(
            philox4x32(
                [0x243F_6A88, 0x85A3_08D3, 0x1319_8A2E, 0x0370_7344],
                [0xA409_3822, 0x299F_31D0]
            ),
            [0xD16C_FE09, 0x94FD_CCEB, 0x5001_E420, 0x2412_6EA1]
        );
    }

    #[test]
    fn counter_rng_is_a_pure_function_of_coordinates() {
        let key = 0x0123_4567_89AB_CDEF_u64;
        // Same coordinates → same stream, regardless of construction
        // order or what other cursors drew in between.
        let mut a = CounterRng::for_snapshot(key, 3, 17);
        let mut other = CounterRng::for_snapshot(key, 3, 18);
        let _ = standard_normal(&mut other);
        let mut b = CounterRng::for_snapshot(key, 3, 17);
        for _ in 0..64 {
            assert_eq!(
                standard_normal(&mut a).to_bits(),
                standard_normal(&mut b).to_bits()
            );
        }
        // Different coordinates (snapshot, group, domain, key) → distinct
        // streams.
        let first = |mut c: CounterRng| c.next_u64();
        let base = first(CounterRng::for_snapshot(key, 3, 17));
        assert_ne!(base, first(CounterRng::for_snapshot(key, 3, 18)));
        assert_ne!(base, first(CounterRng::for_snapshot(key, 4, 17)));
        assert_ne!(base, first(CounterRng::for_group(key, 3)));
        assert_ne!(base, first(CounterRng::for_snapshot(key ^ 1, 3, 17)));
    }

    #[test]
    fn spectral_cursor_is_disjoint_and_pure() {
        let key = 0xFEED_u64;
        // pure function of (key, group, bin)
        let first = |mut c: CounterRng| c.next_u64();
        let base = first(CounterRng::for_spectral(key, 3, 100_000));
        assert_eq!(base, first(CounterRng::for_spectral(key, 3, 100_000)));
        // distinct from other bins, groups, keys, and both time domains
        assert_ne!(base, first(CounterRng::for_spectral(key, 3, 400_000)));
        assert_ne!(base, first(CounterRng::for_spectral(key, 4, 100_000)));
        assert_ne!(base, first(CounterRng::for_spectral(key ^ 1, 3, 100_000)));
        assert_ne!(base, first(CounterRng::for_snapshot(key, 3, 100_000)));
        assert_ne!(base, first(CounterRng::for_group(key, 3)));
        // bulk fills agree with the scalar reference at the same coords
        let mut c = CounterRng::for_spectral(key, 3, 137_000);
        let mut buf = vec![Complex::ZERO; 16];
        c.fill_complex_normals(&mut buf);
        for (i, w) in buf.iter().enumerate() {
            let scalar = philox_complex_normal_at(
                [key as u32, (key >> 32) as u32],
                [137_000, 3, DOMAIN_SPECTRAL],
                i as u32,
            );
            assert_eq!(w.re.to_bits(), scalar.re.to_bits(), "lane {i}");
            assert_eq!(w.im.to_bits(), scalar.im.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn spectral_bin_ids_separate_the_frequency_plan() {
        // the exact line frequencies the simulator consumes must map to
        // distinct bins: fundamentals, floor probes, and a dense
        // multi-stream plan at sub-hertz-scale spacing
        assert_eq!(spectral_bin_id(1000.0), 100_000);
        assert_eq!(spectral_bin_id(4000.0), 400_000);
        assert_ne!(
            spectral_bin_id(1000.0 * 1.37),
            spectral_bin_id(1000.0 * 2.61)
        );
        let mut seen = std::collections::HashSet::new();
        for s in 0..64 {
            let f = 800.0 + s as f64 * (1200.0 / 43.2);
            for m in [1.0, 1.37, 2.61, 4.0] {
                assert!(seen.insert(spectral_bin_id(f * m)), "collision at {f}x{m}");
            }
        }
    }

    #[test]
    fn counter_rng_bulk_fill_is_chunking_invariant() {
        let key = 42u64;
        // the snapshot-domain cursor the sounders draw from: one lane
        // per complex value however the fill is split, each equal to the
        // scalar reference
        let mut whole = CounterRng::for_snapshot(key, 1, 2);
        let mut buf = vec![Complex::ZERO; 128];
        whole.fill_complex_normals(&mut buf);
        assert_eq!(whole.lane(), 128);

        let mut split = CounterRng::for_snapshot(key, 1, 2);
        let mut lo = vec![Complex::ZERO; 31];
        let mut hi = vec![Complex::ZERO; 97];
        split.fill_complex_normals(&mut lo);
        split.fill_complex_normals(&mut hi);
        for (i, w) in buf.iter().enumerate() {
            let part = if i < 31 { lo[i] } else { hi[i - 31] };
            let scalar =
                philox_complex_normal_at([42, 0], [2, 1, super::DOMAIN_SNAPSHOT], i as u32);
            for z in [part, scalar] {
                assert_eq!(w.re.to_bits(), z.re.to_bits(), "lane {i}");
                assert_eq!(w.im.to_bits(), z.im.to_bits(), "lane {i}");
            }
        }
    }

    #[test]
    fn skip_normals_matches_fill_state() {
        // A cursor that skipped n lanes must continue bit-identically to
        // one that actually filled n normals — same lane, no stale spare.
        let key = 0xBEEF_u64;
        for n in [0, 1, 31, 128] {
            let mut filled = CounterRng::for_snapshot(key, 2, 9);
            let mut buf = vec![Complex::ZERO; n];
            filled.fill_complex_normals(&mut buf);
            let mut skipped = CounterRng::for_snapshot(key, 2, 9);
            skipped.skip_normals(n);
            assert_eq!(filled.lane(), skipped.lane(), "n={n}");
            for _ in 0..8 {
                assert_eq!(filled.next_u64(), skipped.next_u64(), "n={n}");
            }
        }
        // both fill and skip discard a buffered spare word first
        let mut filled = CounterRng::for_snapshot(3, 0, 0);
        let mut skipped = CounterRng::for_snapshot(3, 0, 0);
        assert_eq!(filled.next_u64(), skipped.next_u64());
        let mut buf = vec![Complex::ZERO; 16];
        filled.fill_complex_normals(&mut buf);
        skipped.skip_normals(16);
        assert_eq!(filled.next_u64(), skipped.next_u64());
    }

    #[test]
    fn counter_rng_normal_moments() {
        // The RngCore stream view feeds the existing samplers with
        // well-formed uniforms: standard normal mean/σ within Monte-Carlo
        // error (the bulk fill's moments are checked with its chunking).
        let mut c = CounterRng::for_snapshot(11, 0, 0);
        let seq: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut c)).collect();
        assert!(mean(&seq).abs() < 0.02, "mean {}", mean(&seq));
        assert!((std_dev(&seq) - 1.0).abs() < 0.02, "std {}", std_dev(&seq));
    }

    #[test]
    fn complex_fill_is_chunking_invariant_and_standard() {
        // one lane per complex value, whichever way the fill is split,
        // each equal to the scalar reference; components are N(0, 1) and
        // uncorrelated with each other
        let key = 0xC0FF_EE00_u64;
        let mut whole = CounterRng::for_spectral(key, 4, 240_000);
        let mut zs = vec![Complex::ZERO; 50_000];
        whole.fill_complex_normals(&mut zs);
        assert_eq!(whole.lane(), 50_000);
        let mut split = CounterRng::for_spectral(key, 4, 240_000);
        let mut lo = vec![Complex::ZERO; 77];
        let mut hi = vec![Complex::ZERO; 51];
        split.fill_complex_normals(&mut lo);
        split.fill_complex_normals(&mut hi);
        for (i, z) in zs.iter().take(128).enumerate() {
            let part = if i < 77 { lo[i] } else { hi[i - 77] };
            let scalar = philox_complex_normal_at(
                [key as u32, (key >> 32) as u32],
                [240_000, 4, DOMAIN_SPECTRAL],
                i as u32,
            );
            for w in [part, scalar] {
                assert_eq!(z.re.to_bits(), w.re.to_bits(), "lane {i}");
                assert_eq!(z.im.to_bits(), w.im.to_bits(), "lane {i}");
            }
        }
        let re: Vec<f64> = zs.iter().map(|z| z.re).collect();
        let im: Vec<f64> = zs.iter().map(|z| z.im).collect();
        for xs in [&re, &im] {
            assert!(mean(xs).abs() < 0.02, "mean {}", mean(xs));
            assert!((std_dev(xs) - 1.0).abs() < 0.02, "std {}", std_dev(xs));
        }
        // sample correlation of 50k independent pairs: σ ≈ 0.0045
        let corr = re.iter().zip(&im).map(|(a, b)| a * b).sum::<f64>() / zs.len() as f64;
        assert!(corr.abs() < 0.02, "re/im correlation {corr}");
    }

    #[test]
    fn counter_rng_complex_gaussian_variance_split() {
        let mut c = CounterRng::for_snapshot(5, 0, 0);
        let zs: Vec<Complex> = (0..50_000).map(|_| complex_gaussian(&mut c, 4.0)).collect();
        let re: Vec<f64> = zs.iter().map(|z| z.re).collect();
        let im: Vec<f64> = zs.iter().map(|z| z.im).collect();
        assert!((variance(&re) - 2.0).abs() < 0.1);
        assert!((variance(&im) - 2.0).abs() < 0.1);
    }

    #[test]
    fn counter_rng_uniform_bounds_and_bytes() {
        let mut c = CounterRng::for_group(19, 0);
        for _ in 0..1000 {
            let x = uniform(&mut c, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
        // fill_bytes covers the remaining RngCore surface
        let mut a = CounterRng::for_group(19, 1);
        let mut b = CounterRng::for_group(19, 1);
        let mut buf_a = [0u8; 27];
        let mut buf_b = [0u8; 27];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn awgn_buffer_len_and_power() {
        let mut rng = StdRng::seed_from_u64(11);
        let buf = awgn_buffer(&mut rng, 10_000, 0.5);
        assert_eq!(buf.len(), 10_000);
        let p: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / buf.len() as f64;
        assert!((p - 0.5).abs() < 0.03);
    }
}
