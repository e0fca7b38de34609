//! A fixed piece of work timed between the workload's own, so timing
//! figures can be given at one reference machine speed.
//!
//! On a small shared machine other tenants change how fast this process
//! runs, by up to 1.7× within seconds and by tens of percent between runs
//! minutes apart. Thread CPU time tracks wall time through it (no time is
//! stolen), so the slowdown is contention for the core and its caches,
//! which no choice of the program's own samples removes. The yardstick
//! slows with it: it mixes the kinds of work a press does (dependent float
//! chains, a 1024-point FFT with computed twiddles, random reads over a
//! 256 KB table) and is sampled every few milliseconds through the run.
//! Each window of a run (20 ms of presses, or one `run_batch` call) is
//! followed by a short burst of yardstick runs, and the window's times are
//! multiplied by `REFERENCE_US` ÷ the burst's fastest time. The yardstick
//! is the benchmark's own code, so a change to the repository's crates
//! moves the figures and not the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time, µs, at the reference speed: about its time on a
/// quiet core of the 2-vCPU Xeon VM the benchmark was tuned on.
pub const REFERENCE_US: f64 = 100.0;

const FFT_N: usize = 1024;
const TABLE_WORDS: usize = 1 << 15;

pub struct Yardstick {
    table: Vec<u64>,
    re: Vec<f64>,
    im: Vec<f64>,
    state: u64,
    samples_us: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            re: vec![0.0; FFT_N],
            im: vec![0.0; FFT_N],
            state: 1,
            samples_us: Vec::with_capacity(1 << 14),
        }
    }

    /// Times a burst of `runs` yardstick runs, keeps their times, and
    /// returns the factor that brings a time measured just before the
    /// burst to the reference speed. The fastest run stands for the
    /// machine: an interrupt only ever slows one down.
    pub fn scale_now(&mut self, runs: usize) -> f64 {
        let mut fastest = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            self.work();
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.samples_us.push(us);
            fastest = fastest.min(us);
        }
        REFERENCE_US / fastest
    }

    pub fn samples(&self) -> usize {
        self.samples_us.len()
    }

    /// Median yardstick time over the run, µs.
    pub fn median_us(&self) -> f64 {
        let mut s = self.samples_us.clone();
        crate::report::median(&mut s)
    }

    fn work(&mut self) {
        let mut chains = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        for i in 0..4000 {
            for c in &mut chains {
                *c = *c * 0.999_999 + 1e-7 * (i & 7) as f64;
            }
            black_box(&mut chains);
        }

        for (i, (re, im)) in self.re.iter_mut().zip(&mut self.im).enumerate() {
            *re = (i % 7) as f64 * 0.25;
            *im = (i % 3) as f64 * 0.5;
        }
        fft(&mut self.re, &mut self.im);
        black_box(&self.re);

        let mut acc = 0u64;
        for _ in 0..8000 {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            acc = acc.wrapping_add(self.table[(self.state >> 33) as usize % TABLE_WORDS]);
        }
        black_box(acc);
    }
}

/// In-place radix-2 FFT; `re.len()` is a power of two.
fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (s, c) = (angle * k as f64).sin_cos();
                let (a, b) = (start + k, start + k + len / 2);
                let tr = re[b] * c - im[b] * s;
                let ti = re[b] * s + im[b] * c;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len <<= 1;
    }
}
