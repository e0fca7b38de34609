//! Duty-cycled clock generation and modulation analysis.
//!
//! Paper §3.2: toggling both switches at plain 50 %-duty clocks of
//! different frequencies intermodulates — whenever both switches are on,
//! the two sensor ends are electrically connected and signals leak across
//! (Fig. 7). WiForce's fix exploits square-wave duty-cycle harmonics:
//!
//! * a **25 %-duty clock at `fs`** drives switch 1 — its Fourier series has
//!   lines at `k·fs` for every `k` *not* divisible by 4;
//! * a **75 %-duty clock at `2·fs`** drives switch 2 *active-low* — the
//!   effective on-waveform is 25 %-duty at `2fs`, lines at `2m·fs` for `m`
//!   not divisible by 4;
//! * the initial phases are set so the on-intervals never overlap (Fig. 8).
//!
//! Result: bin `fs` carries port 1 only, bin `4fs` carries port 2 only,
//! `2fs` is shared (and therefore unused), and no instant ever has both
//! switches on. This module provides the clocks, the effective modulation
//! waveforms, and closed-form Fourier coefficients for verification.

use wiforce_dsp::{Complex, PI, TAU};

/// A periodic square wave described by period, duty cycle and offset.
/// The fields are private so the cached reciprocal period cannot drift
/// from the period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyClock {
    /// Period, s.
    period_s: f64,
    /// High fraction of each period, in `[0, 1]`.
    duty: f64,
    /// Time of a rising edge, s.
    offset_s: f64,
    /// `1/period_s` to within an ulp: the frequency the clock was built
    /// from.
    inv_period_s: f64,
}

impl DutyClock {
    /// Creates a clock from frequency (Hz), duty and offset (s).
    pub fn new(freq_hz: f64, duty: f64, offset_s: f64) -> Self {
        assert!(freq_hz > 0.0, "clock frequency must be positive");
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0,1]");
        DutyClock {
            period_s: 1.0 / freq_hz,
            duty,
            offset_s,
            inv_period_s: freq_hz,
        }
    }

    /// Clock frequency, Hz.
    pub fn freq_hz(&self) -> f64 {
        1.0 / self.period_s
    }

    /// Logic level at time `t` (s).
    ///
    /// Bit-for-bit the level of the exact phase
    /// `(t − offset).rem_euclid(period) / period`, without its `fmod` in
    /// the common case. The quotient `q = (t − offset)·(1/period)` carries
    /// two roundings, so for `0 ≤ q < 2²⁰` it is within
    /// `2²⁰·2⁻⁵² ≈ 2.3e-10` of the true one; its fractional part is then
    /// within that of the exact phase and, outside a 1e-9 guard band
    /// around 0, 1 and the duty, lies on the same side of the duty.
    /// Negative, huge, non-finite and guard-band phases take the exact
    /// path.
    pub fn is_high(&self, t: f64) -> bool {
        const GUARD: f64 = 1e-9;
        let d = t - self.offset_s;
        let q = d * self.inv_period_s;
        if (0.0..1_048_576.0).contains(&q) {
            // exact truncation: q is non-negative and below 2²⁰
            let frac = q - (q as u64) as f64;
            if frac > GUARD && frac < 1.0 - GUARD && (frac - self.duty).abs() > GUARD {
                return frac < self.duty;
            }
        }
        d.rem_euclid(self.period_s) / self.period_s < self.duty
    }

    /// Complex Fourier coefficient `c_k` of the 0/1 waveform at harmonic
    /// `k` of the clock frequency: `x(t) = Σ_k c_k e^{j2πk f t}`.
    ///
    /// `c_0 = duty`; `c_k = duty·sinc(k·duty)·e^{-jπk·duty}·e^{-j2πk·f·offset·(-1)}`…
    /// computed directly from the rectangular-pulse transform.
    pub fn fourier_coefficient(&self, k: i64) -> Complex {
        if k == 0 {
            return Complex::from_re(self.duty);
        }
        let kf = k as f64;
        // pulse from offset to offset + duty*T:
        // c_k = (1/T)∫ e^{-j2πkt/T} dt = duty·sinc(π k duty)·e^{-jπk·duty}·e^{+j2πk·offset/T}
        let x = PI * kf * self.duty;
        let mag = self.duty * if x == 0.0 { 1.0 } else { x.sin() / x };
        Complex::from_polar(mag, -x) * Complex::cis(TAU * kf * self.offset_s / self.period_s)
    }

    /// `true` if harmonic `k` of this clock is (theoretically) absent.
    pub fn harmonic_absent(&self, k: i64) -> bool {
        if k == 0 {
            return self.duty == 0.0;
        }
        // sinc zero: k·duty integer
        let kd = k as f64 * self.duty;
        (kd - kd.round()).abs() < 1e-12 && kd.round() != 0.0
    }
}

/// The pair of switch-drive waveforms for a two-ended WiForce tag.
///
/// `modulation1/2(t)` are the effective *on* indicators of the two
/// switches (already accounting for active-low drive of switch 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockPair {
    clock1: DutyClock,
    clock2: DutyClock,
    /// `true` if switch 2 is driven active-low (on when clock 2 is low).
    switch2_active_low: bool,
}

impl ClockPair {
    /// The paper's §4.3 scheme with base frequency `fs_hz` (paper: 1 kHz):
    /// 25 %-duty at `fs` for switch 1, 75 %-duty at `2fs` driving switch 2
    /// active-low, phased so the on-intervals are disjoint.
    pub fn wiforce(fs_hz: f64) -> Self {
        let t1 = 1.0 / fs_hz;
        ClockPair {
            clock1: DutyClock::new(fs_hz, 0.25, 0.0),
            // 75 % duty at 2fs; offset picked so its LOW windows land at
            // [0.25,0.375)·T1 and [0.75,0.875)·T1 — inside switch 1's off time
            clock2: DutyClock::new(2.0 * fs_hz, 0.75, 0.375 * t1),
            switch2_active_low: true,
        }
    }

    /// The naive strawman of paper Fig. 7: two 50 %-duty clocks at `fs`
    /// and `2fs`, both active-high — on-intervals overlap, causing
    /// intermodulation.
    pub fn naive(fs_hz: f64) -> Self {
        ClockPair {
            clock1: DutyClock::new(fs_hz, 0.5, 0.0),
            clock2: DutyClock::new(2.0 * fs_hz, 0.5, 0.0),
            switch2_active_low: false,
        }
    }

    /// Base (switch 1) modulation frequency, Hz.
    pub fn base_freq_hz(&self) -> f64 {
        self.clock1.freq_hz()
    }

    /// The Doppler-domain bin (Hz) carrying port 1: `fs`.
    pub fn port1_line_hz(&self) -> f64 {
        self.base_freq_hz()
    }

    /// The Doppler-domain bin (Hz) carrying port 2: `4fs` for the WiForce
    /// scheme, `2fs` for the naive scheme.
    pub fn port2_line_hz(&self) -> f64 {
        if self.switch2_active_low {
            4.0 * self.base_freq_hz()
        } else {
            2.0 * self.base_freq_hz()
        }
    }

    /// Switch 1 on-state at time `t`.
    pub fn modulation1(&self, t: f64) -> bool {
        self.clock1.is_high(t)
    }

    /// Switch 2 on-state at time `t`.
    pub fn modulation2(&self, t: f64) -> bool {
        let high = self.clock2.is_high(t);
        if self.switch2_active_low {
            !high
        } else {
            high
        }
    }

    /// `true` if the scheme guarantees the two switches are never
    /// simultaneously on (checked analytically for the WiForce scheme).
    pub fn is_exclusive(&self) -> bool {
        self.switch2_active_low
    }

    /// Time-averaged occupancy of the four `(switch 1, switch 2)` drive
    /// states over `[t0, t0 + window_s)`, indexed `on1 | on2 << 1`.
    ///
    /// A channel sounder correlates over a whole integration window (the
    /// OFDM preamble, an FMCW sweep), not an instant. Sampling the
    /// square-wave drive at single instants instead aliases its high
    /// harmonics — at a ~57.6 µs snapshot rate, `k·fs` lines with `k` in
    /// the hundreds fold back into the low Doppler bins where *other*
    /// tags' `fs`/`4fs` lines live, leaking press-dependent phase across
    /// frequency-multiplexed streams. Averaging the state occupancy over
    /// the window models the correlation receiver and suppresses the
    /// aliased leakage (the `sinc` roll-off of the window).
    ///
    /// Exact: walks the union of both clocks' edges inside the window and
    /// integrates each constant segment, so the weights always sum to 1.
    pub fn state_weights(&self, t0: f64, window_s: f64) -> [f64; 4] {
        self.state_weights_into(t0, window_s, &mut Vec::new())
    }

    /// [`Self::state_weights`] with a caller-owned edge buffer, for hot
    /// loops that evaluate one window per snapshot (the batch producer
    /// calls this per stream per snapshot): the buffer is cleared and
    /// refilled, so steady state performs no allocation. Bit-identical to
    /// [`Self::state_weights`].
    pub fn state_weights_into(&self, t0: f64, window_s: f64, edges: &mut Vec<f64>) -> [f64; 4] {
        let state_at =
            |t: f64| self.modulation1(t) as usize | ((self.modulation2(t) as usize) << 1);
        let mut w = [0.0; 4];
        if window_s <= 0.0 {
            w[state_at(t0)] = 1.0;
            return w;
        }
        // state-transition instants (relative to t0) from either clock;
        // inversion of switch 2 moves levels, not edge times
        edges.clear();
        edges.push(0.0);
        edges.push(window_s);
        for clk in [&self.clock1, &self.clock2] {
            let mut k = ((t0 - clk.offset_s) / clk.period_s).floor();
            loop {
                let rise = clk.offset_s + k * clk.period_s - t0;
                let fall = rise + clk.duty * clk.period_s;
                if rise >= window_s {
                    break;
                }
                if rise > 0.0 {
                    edges.push(rise);
                }
                if fall > 0.0 && fall < window_s {
                    edges.push(fall);
                }
                k += 1.0;
            }
        }
        edges.sort_by(f64::total_cmp);
        for pair in edges.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b > a {
                w[state_at(t0 + 0.5 * (a + b))] += (b - a) / window_s;
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiforce_dsp::fft::goertzel;

    /// Samples a modulation over `periods` of the base clock.
    fn sample(
        pair: &ClockPair,
        which: u8,
        samples_per_period: usize,
        periods: usize,
    ) -> Vec<Complex> {
        let t1 = 1.0 / pair.base_freq_hz();
        let n = samples_per_period * periods;
        (0..n)
            .map(|i| {
                let t = i as f64 * t1 * periods as f64 / n as f64;
                let on = if which == 1 {
                    pair.modulation1(t)
                } else {
                    pair.modulation2(t)
                };
                Complex::from_re(if on { 1.0 } else { 0.0 })
            })
            .collect()
    }

    /// Normalized tone magnitude at harmonic `k` of the base frequency.
    fn line_mag(xs: &[Complex], k: f64, samples_per_period: usize) -> f64 {
        goertzel(xs, k / samples_per_period as f64).abs() / xs.len() as f64
    }

    const SPP: usize = 64; // samples per base period
    const NP: usize = 16; // periods

    #[test]
    fn duty_clock_levels() {
        let c = DutyClock::new(1000.0, 0.25, 0.0);
        assert!(c.is_high(0.0));
        assert!(c.is_high(0.24e-3));
        assert!(!c.is_high(0.26e-3));
        assert!(!c.is_high(0.99e-3));
        assert!(c.is_high(1.01e-3)); // next period
        assert!(c.is_high(-0.9e-3)); // negative time wraps
    }

    /// The `rem_euclid` definition `is_high` must reproduce exactly.
    fn is_high_reference(c: &DutyClock, t: f64) -> bool {
        (t - c.offset_s).rem_euclid(c.period_s) / c.period_s < c.duty
    }

    #[test]
    fn is_high_matches_rem_euclid_reference() {
        let pair = ClockPair::wiforce(1234.5);
        let clocks = [
            DutyClock::new(1000.0, 0.25, 0.0),
            DutyClock::new(2000.0, 0.75, 0.375e-3),
            pair.clock1,
            pair.clock2,
            DutyClock::new(977.0, 0.0, 1e-4),
            DutyClock::new(977.0, 1.0, -1e-4),
        ];
        for c in &clocks {
            let check = |t: f64| {
                assert_eq!(
                    c.is_high(t),
                    is_high_reference(c, t),
                    "{c:?} at t = {t:e} ({:#x})",
                    t.to_bits()
                );
            };
            // exact edge times (rising at k·T, falling at (k + duty)·T),
            // a few ulps either side, at small, negative and ≥ 2²⁰-period
            // quotients where the exact path takes over
            for k in [
                0.0,
                1.0,
                7.0,
                1e3,
                -1.0,
                -5e3,
                1_048_575.0,
                1_048_576.0,
                3e6,
            ] {
                for frac in [0.0, c.duty, 1.0] {
                    let t0 = c.offset_s + (k + frac) * c.period_s;
                    let (mut up, mut down) = (t0, t0);
                    for _ in 0..16 {
                        check(up);
                        check(down);
                        up = up.next_up();
                        down = down.next_down();
                    }
                    for eps in [1e-12, 1e-10, 1e-9, 1e-7] {
                        check(t0 + eps * c.period_s);
                        check(t0 - eps * c.period_s);
                    }
                }
            }
            for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300] {
                check(t);
            }
            // dense pseudo-random sweeps: the first 64 periods, and ±2²¹
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            for _ in 0..100_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                check(c.offset_s + u * 64.0 * c.period_s);
                check((u - 0.5) * 4_194_304.0 * c.period_s);
            }
        }
    }

    #[test]
    fn fourier_coefficients_match_goertzel() {
        let c = DutyClock::new(1000.0, 0.25, 0.0);
        let xs: Vec<Complex> = (0..SPP * NP)
            .map(|i| {
                let t = i as f64 / (SPP as f64 * 1000.0);
                Complex::from_re(if c.is_high(t) { 1.0 } else { 0.0 })
            })
            .collect();
        for k in 0..8i64 {
            let analytic = c.fourier_coefficient(k).abs();
            let measured = line_mag(&xs, k as f64, SPP);
            assert!(
                (analytic - measured).abs() < 0.02,
                "k={k}: analytic {analytic} vs measured {measured}"
            );
        }
    }

    #[test]
    fn quarter_duty_missing_every_fourth_harmonic() {
        // paper §3.2: "in a wave with 25% duty cycle, every fourth harmonic
        // would be absent"
        let c = DutyClock::new(1000.0, 0.25, 0.0);
        for k in [4i64, 8, 12, 16] {
            assert!(c.harmonic_absent(k), "harmonic {k} should vanish");
            assert!(c.fourier_coefficient(k).abs() < 1e-12);
        }
        for k in [1i64, 2, 3, 5, 6, 7] {
            assert!(!c.harmonic_absent(k));
            assert!(c.fourier_coefficient(k).abs() > 0.01);
        }
    }

    #[test]
    fn half_duty_missing_even_harmonics() {
        // "in a standard square wave with 50% duty cycle, all the even
        // harmonics are absent"
        let c = DutyClock::new(1000.0, 0.5, 0.0);
        for k in [2i64, 4, 6] {
            assert!(c.harmonic_absent(k));
        }
        for k in [1i64, 3, 5] {
            assert!(c.fourier_coefficient(k).abs() > 0.05);
        }
    }

    #[test]
    fn wiforce_scheme_is_mutually_exclusive() {
        // paper Fig. 8: "at any time instant, only one switch is toggled on"
        let pair = ClockPair::wiforce(1000.0);
        assert!(pair.is_exclusive());
        for i in 0..40_000 {
            let t = i as f64 * 1e-3 / 9_999.0; // fine scan over ~4 periods
            assert!(
                !(pair.modulation1(t) && pair.modulation2(t)),
                "both switches on at t={t}"
            );
        }
    }

    #[test]
    fn wiforce_on_times_quarter_each() {
        let pair = ClockPair::wiforce(1000.0);
        let n = 100_000;
        let (mut on1, mut on2) = (0usize, 0usize);
        for i in 0..n {
            let t = i as f64 * 4e-3 / n as f64;
            on1 += pair.modulation1(t) as usize;
            on2 += pair.modulation2(t) as usize;
        }
        let f1 = on1 as f64 / n as f64;
        let f2 = on2 as f64 / n as f64;
        assert!((f1 - 0.25).abs() < 0.01, "switch1 on fraction {f1}");
        assert!((f2 - 0.25).abs() < 0.01, "switch2 on fraction {f2}");
    }

    #[test]
    fn wiforce_spectral_separation() {
        // port-1 line at fs only, port-2 line at 4fs only, shared at 2fs
        let pair = ClockPair::wiforce(1000.0);
        let m1 = sample(&pair, 1, SPP, NP);
        let m2 = sample(&pair, 2, SPP, NP);
        // sampled square edges carry ~1/SPP leakage, so compare silent
        // bins against strong ones with a wide ratio margin
        let silent = 0.01;
        // fs: m1 strong, m2 silent
        assert!(line_mag(&m1, 1.0, SPP) > 0.1);
        assert!(
            line_mag(&m2, 1.0, SPP) < silent,
            "{}",
            line_mag(&m2, 1.0, SPP)
        );
        // 4fs: m2 strong, m1 silent
        assert!(line_mag(&m2, 4.0, SPP) > 0.1);
        assert!(line_mag(&m1, 4.0, SPP) < silent);
        // 2fs: both present ("interference at 2fs")
        assert!(line_mag(&m1, 2.0, SPP) > 0.05);
        assert!(line_mag(&m2, 2.0, SPP) > 0.05);
        // 8fs: absent from both (every 4th of the 2fs clock)
        assert!(line_mag(&m2, 8.0, SPP) < silent);
    }

    #[test]
    fn naive_scheme_overlaps() {
        let pair = ClockPair::naive(1000.0);
        assert!(!pair.is_exclusive());
        let overlap = (0..10_000)
            .filter(|&i| {
                let t = i as f64 * 2e-3 / 10_000.0;
                pair.modulation1(t) && pair.modulation2(t)
            })
            .count();
        assert!(overlap > 1000, "naive clocks should overlap substantially");
    }

    #[test]
    fn port_line_frequencies() {
        let w = ClockPair::wiforce(1000.0);
        assert_eq!(w.port1_line_hz(), 1000.0);
        assert_eq!(w.port2_line_hz(), 4000.0);
        let n = ClockPair::naive(1000.0);
        assert_eq!(n.port2_line_hz(), 2000.0);
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn rejects_bad_duty() {
        let _ = DutyClock::new(1000.0, 1.5, 0.0);
    }

    #[test]
    fn state_weights_sum_to_one_and_match_subsampling() {
        let pair = ClockPair::wiforce(1234.5);
        let window = 25.6e-6;
        for i in 0..200 {
            let t0 = i as f64 * 7.3e-6;
            let w = pair.state_weights(t0, window);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12, "t0={t0}");
            // brute-force occupancy from dense sampling
            let sub = 4096;
            let mut dense = [0.0; 4];
            for j in 0..sub {
                let t = t0 + window * (j as f64 + 0.5) / sub as f64;
                let idx = pair.modulation1(t) as usize | ((pair.modulation2(t) as usize) << 1);
                dense[idx] += 1.0 / sub as f64;
            }
            for q in 0..4 {
                assert!(
                    (w[q] - dense[q]).abs() < 2e-3,
                    "t0={t0} state {q}: exact {} dense {}",
                    w[q],
                    dense[q]
                );
            }
        }
    }

    #[test]
    fn state_weights_over_full_period_match_duties() {
        // WiForce scheme: switch 1 on 25 %, switch 2 on 25 %, never both
        let pair = ClockPair::wiforce(1000.0);
        let w = pair.state_weights(0.123e-3, 1e-3);
        assert!((w[0] - 0.5).abs() < 1e-9, "{w:?}");
        assert!((w[1] - 0.25).abs() < 1e-9, "{w:?}");
        assert!((w[2] - 0.25).abs() < 1e-9, "{w:?}");
        assert_eq!(w[3], 0.0, "exclusive scheme hit both-on: {w:?}");
    }

    #[test]
    fn state_weights_into_reuses_scratch_bitwise() {
        let pair = ClockPair::wiforce(1234.5);
        let mut edges = Vec::new();
        for i in 0..200 {
            let t0 = i as f64 * 7.3e-6;
            for window in [0.0, 11.1e-6, 25.6e-6, 1.7e-3] {
                let a = pair.state_weights(t0, window);
                let b = pair.state_weights_into(t0, window, &mut edges);
                for q in 0..4 {
                    assert_eq!(a[q].to_bits(), b[q].to_bits(), "t0={t0} window={window}");
                }
            }
        }
        assert!(edges.capacity() > 0, "scratch was actually used");
    }

    #[test]
    fn zero_window_is_instantaneous() {
        let pair = ClockPair::wiforce(1000.0);
        for i in 0..50 {
            let t = i as f64 * 3.1e-5;
            let idx = pair.modulation1(t) as usize | ((pair.modulation2(t) as usize) << 1);
            let w = pair.state_weights(t, 0.0);
            assert_eq!(w[idx], 1.0);
            assert_eq!(w.iter().sum::<f64>(), 1.0);
        }
    }
}
