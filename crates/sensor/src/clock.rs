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
//!
//! It is also the one place that knows where the drive state changes.
//! Synthesis walks the state over a snapshot grid with
//! [`ClockPair::runs`] and over a sequence of integration windows with
//! [`WindowWalker`]; both follow the clock edges instead of evaluating
//! the clocks at every snapshot, and both are bit-identical to the
//! per-instant reference ([`ClockPair::state_at`],
//! [`ClockPair::state_weights_into`]).

use std::ops::Range;

use wiforce_dsp::{Complex, PI, TAU};

/// Guard band of the edge walks, in clock periods. A quotient computed
/// the way [`DutyClock::is_high`] computes it is within ~2e-9 periods of
/// the exact one wherever the walks use it (|q| < 2²¹), so an instant
/// predicted this far from every edge has the level the edges say, and
/// `is_high` returns it there without reaching its own 1e-9 guard.
const WALK_GUARD: f64 = 1e-7;

/// Quotient bound of the walks: `is_high`'s fast-path domain is
/// `0 ≤ q < 2²⁰`, and the walks leave everything outside it to the
/// exact evaluation.
const WALK_Q_MAX: f64 = 1_048_576.0;

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

    /// The period quotient `(t − offset)·(1/period)`, rounded exactly as
    /// [`Self::is_high`] rounds it.
    fn quotient(&self, t: f64) -> f64 {
        (t - self.offset_s) * self.inv_period_s
    }

    /// The stretch `[a, b]` (s) around `t` between this clock's edges on
    /// either side, with the walk guard taken off both ends; `None`
    /// outside the walk domain.
    fn edge_free_around(&self, t: f64) -> Option<(f64, f64)> {
        let q = self.quotient(t);
        if !(0.0..WALK_Q_MAX).contains(&q) || self.offset_s.abs() * self.inv_period_s >= WALK_Q_MAX
        {
            return None;
        }
        // exact truncation: q is non-negative and below 2²⁰
        let k = (q as u64) as f64;
        let (prev, next) = if q - k < self.duty {
            (k, k + self.duty)
        } else {
            (k + self.duty, k + 1.0)
        };
        let guard = WALK_GUARD * self.period_s;
        Some((
            self.offset_s + prev * self.period_s + guard,
            self.offset_s + next * self.period_s - guard,
        ))
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

    /// Drive state at time `t`, indexed `on1 | on2 << 1` like the
    /// per-state response tables.
    pub fn state_at(&self, t: f64) -> usize {
        self.modulation1(t) as usize | (self.modulation2(t) as usize) << 1
    }

    /// The drive state at the snapshot instants `t0 + s·dt` for `s` in
    /// `range`, as `(state, run length)` pairs in snapshot order.
    ///
    /// Bit-identical to [`Self::state_at`] at every instant, computed as
    /// `t0 + s as f64 * dt`, but it evaluates the clocks only near their
    /// edges: each clock's crossings are predicted on the grid from its
    /// quotient, and only instants within the walk guard of a predicted
    /// crossing, before the clock's first period (`q < 0`), at or beyond
    /// 2²⁰ periods, or on a grid the walk cannot bound (`dt ≤ 0`,
    /// non-finite values) take the exact per-instant evaluation, counted
    /// by [`StateRuns::exact_evals`]. Adjacent runs may share a state.
    /// Allocation-free.
    pub fn runs(&self, t0: f64, dt: f64, range: Range<usize>) -> StateRuns<'_> {
        let range = range.start..range.end.max(range.start);
        StateRuns {
            pair: self,
            t0,
            dt,
            cur: range.start,
            end: range.end,
            tracks: [
                EdgeTrack::new(&self.clock1, t0, dt, range.clone()),
                EdgeTrack::new(&self.clock2, t0, dt, range.clone()),
            ],
            spans: [(range.start, Level::Exact); 2],
            exact_evals: 0,
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

    /// [`Self::state_weights`] with a caller-owned edge buffer, which is
    /// cleared and refilled, so steady state performs no allocation.
    /// Bit-identical to [`Self::state_weights`]. This is the exact
    /// reference of [`WindowWalker`], which calls it only for windows
    /// near an edge.
    pub fn state_weights_into(&self, t0: f64, window_s: f64, edges: &mut Vec<f64>) -> [f64; 4] {
        let mut w = [0.0; 4];
        if window_s <= 0.0 {
            w[self.state_at(t0)] = 1.0;
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
                w[self.state_at(t0 + 0.5 * (a + b))] += (b - a) / window_s;
            }
        }
        w
    }
}

/// What one clock is known to do over a span of snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Low,
    High,
    /// Near a predicted edge or outside the walk domain: every snapshot
    /// takes [`DutyClock::is_high`].
    Exact,
}

/// One clock's edges mapped onto the snapshot grid `t0 + s·dt`.
///
/// The edges are the quotients `k` (rise) and `k + duty` (fall). An edge
/// at quotient `e` crosses the grid at `x = base + (e − q0)/dq`, where
/// `q0` is the quotient at the first snapshot `base` and `dq = dt/period`.
/// Snapshots within `WALK_GUARD/dq` of `x` are evaluated exactly; those
/// between two such windows have the level of the stretch between the
/// two edges.
///
/// Grid positions are kept relative to `base` as signed integers. An
/// edge's window bounds come from its position alone, clamped to
/// constant bounds, and only then to the walk's current snapshot: the
/// float work of successive edges does not wait on the previous span.
#[derive(Debug, Clone)]
struct EdgeTrack {
    duty: f64,
    base: usize,
    q0: f64,
    /// Snapshots per clock period, and the half width of an edge's exact
    /// window in snapshots.
    per_q: f64,
    half: f64,
    /// Next unclassified snapshot and the end of the range, relative to
    /// `base`, with the end also as `f64`.
    cur: i64,
    end: i64,
    end_f: f64,
    /// The next edge: the rise at quotient `k`, or the fall at
    /// `k + duty`.
    k: f64,
    at_fall: bool,
    /// Level of the snapshots before the next edge's window.
    before: Level,
    /// End of the last edge's exact window, relative to `base`.
    window_end: i64,
}

impl EdgeTrack {
    fn new(clock: &DutyClock, t0: f64, dt: f64, range: Range<usize>) -> Self {
        let q0 = clock.quotient(t0 + range.start as f64 * dt);
        let dq = dt * clock.inv_period_s;
        let per_q = 1.0 / dq;
        // every instant, product and quotient the walk and `is_high` form
        // stays below 2²¹ periods in magnitude, which bounds each
        // rounding by 2²¹·2⁻⁵³ periods
        let reach =
            (t0.abs() + (range.end as f64 * dt).abs() + clock.offset_s.abs()) * clock.inv_period_s;
        let walkable = dq > 0.0 && per_q.is_finite() && reach < 2.0 * WALK_Q_MAX;
        let (k, before) = if !walkable {
            (f64::INFINITY, Level::Exact)
        } else if q0 < 0.0 {
            // the instants before the first rising edge are evaluated
            // one by one, then the walk takes over from that edge
            (0.0, Level::Exact)
        } else {
            // a period early, so an edge at the first snapshot is
            // never skipped (the truncation is exact: 0 ≤ q0 < 2²¹)
            ((q0 as u64) as f64 - 1.0, Level::Low)
        };
        let end = (range.end - range.start) as i64;
        EdgeTrack {
            duty: clock.duty,
            base: range.start,
            q0,
            per_q,
            half: WALK_GUARD * per_q,
            cur: 0,
            end,
            end_f: end as f64,
            k,
            at_fall: false,
            before,
            window_end: 0,
        }
    }

    /// Moves to relative snapshot `to` and returns its absolute index.
    fn advance(&mut self, to: i64) -> usize {
        self.cur = to;
        self.base + to as usize
    }

    /// The next span of snapshots, `[cur, end of span)`, and the clock's
    /// level on it. Must be called with `cur < end`.
    fn next_span(&mut self) -> (usize, Level) {
        loop {
            if self.window_end > self.cur {
                return (self.advance(self.window_end), Level::Exact);
            }
            if self.k >= WALK_Q_MAX {
                return (self.advance(self.end), Level::Exact);
            }
            let edge = if self.at_fall {
                self.k + self.duty
            } else {
                self.k
            };
            let x = (edge - self.q0) * self.per_q;
            // the first snapshot at or after x − half and the first
            // strictly after x + half, clamped to [cur, end]; clamping to
            // [0, end] first leaves a non-negative value whose truncation
            // is its floor, so no libm rounding call is needed (x is
            // finite or infinite, never NaN, on a walkable grid)
            let v = (x - self.half).max(0.0).min(self.end_f);
            let i = v as i64;
            let lo = (i + ((i as f64) < v) as i64).max(self.cur);
            let w = (x + self.half).max(-1.0).min(self.end_f);
            self.window_end = ((w + 1.0) as i64).clamp(self.cur, self.end);
            let before = self.before;
            if self.at_fall {
                self.k += 1.0;
                self.before = Level::Low;
            } else {
                self.before = Level::High;
            }
            self.at_fall = !self.at_fall;
            if lo > self.cur {
                return (self.advance(lo), before);
            }
        }
    }
}

/// Runs of a [`ClockPair`]'s drive state over a snapshot grid; see
/// [`ClockPair::runs`].
#[derive(Debug, Clone)]
pub struct StateRuns<'a> {
    pair: &'a ClockPair,
    t0: f64,
    dt: f64,
    cur: usize,
    end: usize,
    tracks: [EdgeTrack; 2],
    /// Each clock's current span: its end and the clock's level on it.
    spans: [(usize, Level); 2],
    exact_evals: u64,
}

impl StateRuns<'_> {
    /// Clock evaluations so far that took the exact per-instant path
    /// (the instants near an edge or outside the walk domain).
    pub fn exact_evals(&self) -> u64 {
        self.exact_evals
    }
}

impl Iterator for StateRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.cur >= self.end {
            return None;
        }
        for (track, span) in self.tracks.iter_mut().zip(&mut self.spans) {
            if span.0 <= self.cur {
                *span = track.next_span();
            }
        }
        let [(end1, l1), (end2, l2)] = self.spans;
        let (on1, high2, len) = if l1 != Level::Exact && l2 != Level::Exact {
            (
                l1 == Level::High,
                l2 == Level::High,
                end1.min(end2) - self.cur,
            )
        } else {
            let t = self.t0 + self.cur as f64 * self.dt;
            let mut level = |l: Level, clock: &DutyClock| {
                if l == Level::Exact {
                    self.exact_evals += 1;
                    clock.is_high(t)
                } else {
                    l == Level::High
                }
            };
            (
                level(l1, &self.pair.clock1),
                level(l2, &self.pair.clock2),
                1,
            )
        };
        let on2 = high2 != self.pair.switch2_active_low;
        self.cur += len;
        Some((on1 as usize | (on2 as usize) << 1, len))
    }
}

/// Walks a [`ClockPair`]'s state weights over a sequence of integration
/// windows, such as one per snapshot at a running-sum tag clock.
///
/// [`Self::weights`] is bit-identical to
/// [`ClockPair::state_weights_into`]. The walker keeps the edge-free
/// bracket around the last window, with the walk guard taken off both
/// ends: a window inside it holds one state for its whole length, whose
/// exact weights are one-hot, and a window that is not takes the exact
/// edge split.
#[derive(Debug, Clone)]
pub struct WindowWalker {
    /// The bracket, s (empty while `lo > hi`), and the state inside it.
    lo: f64,
    hi: f64,
    state: usize,
    /// Edge scratch for the exact split.
    edges: Vec<f64>,
    exact_evals: u64,
}

impl Default for WindowWalker {
    fn default() -> Self {
        WindowWalker {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            state: 0,
            edges: Vec::new(),
            exact_evals: 0,
        }
    }
}

impl WindowWalker {
    /// Time-averaged occupancy of the four drive states of `pair` over
    /// `[t0, t0 + window_s)`: [`ClockPair::state_weights_into`], bit for
    /// bit.
    pub fn weights(&mut self, pair: &ClockPair, t0: f64, window_s: f64) -> [f64; 4] {
        if window_s > 0.0 {
            let end = t0 + window_s;
            if !(t0 >= self.lo && end <= self.hi) {
                self.bracket(pair, t0 + 0.5 * window_s);
            }
            if t0 >= self.lo && end <= self.hi {
                // no edge within the guard of the window: the exact split
                // has the one segment [0, window_s), weight exactly 1
                let mut w = [0.0; 4];
                w[self.state] = 1.0;
                return w;
            }
        }
        self.exact_evals += 1;
        pair.state_weights_into(t0, window_s, &mut self.edges)
    }

    /// Windows since the last call that took the exact edge split, reset
    /// to zero.
    pub fn take_exact_evals(&mut self) -> u64 {
        std::mem::take(&mut self.exact_evals)
    }

    /// Re-centres the bracket on the edge-free stretch around `t`, or
    /// empties it when `t` is near an edge or outside the walk domain.
    fn bracket(&mut self, pair: &ClockPair, t: f64) {
        let (lo, hi) = match (
            pair.clock1.edge_free_around(t),
            pair.clock2.edge_free_around(t),
        ) {
            (Some((a1, b1)), Some((a2, b2))) => (a1.max(a2), b1.min(b2)),
            _ => (f64::INFINITY, f64::NEG_INFINITY),
        };
        if lo <= t && t <= hi {
            (self.lo, self.hi, self.state) = (lo, hi, pair.state_at(t));
        } else {
            (self.lo, self.hi) = (f64::INFINITY, f64::NEG_INFINITY);
        }
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

    /// Expands [`ClockPair::runs`] to one state per snapshot, checking
    /// that no run is empty.
    fn expand_runs(pair: &ClockPair, t0: f64, dt: f64, range: Range<usize>) -> (Vec<usize>, u64) {
        let mut runs = pair.runs(t0, dt, range);
        let mut states = Vec::new();
        for (state, len) in runs.by_ref() {
            assert!(len > 0, "empty run");
            states.extend(std::iter::repeat_n(state, len));
        }
        (states, runs.exact_evals())
    }

    /// Checks the runs against [`ClockPair::state_at`] at every instant
    /// `t0 + s·dt`, returning the exact evaluations the walk made.
    fn check_runs(pair: &ClockPair, t0: f64, dt: f64, range: Range<usize>) -> u64 {
        let reference: Vec<usize> = range
            .clone()
            .map(|s| pair.state_at(t0 + s as f64 * dt))
            .collect();
        let (states, exact) = expand_runs(pair, t0, dt, range.clone());
        assert_eq!(
            states,
            reference,
            "{pair:?} t0 = {t0:e} ({:#x}) dt = {dt:e} range {range:?}",
            t0.to_bits()
        );
        exact
    }

    fn xorshift(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn runs_match_per_snapshot_states() {
        let t_snap = 57.6e-6;
        for pair in [
            ClockPair::wiforce(1000.0),
            ClockPair::wiforce(1234.5),
            ClockPair::naive(1000.0),
            ClockPair::naive(977.0),
        ] {
            let t1 = 1.0 / pair.base_freq_hz();
            // every edge of both clocks, at each position a snapshot can
            // take: exactly on it and 1-3 ulps either side
            let mut edges = Vec::new();
            for clk in [&pair.clock1, &pair.clock2] {
                for k in [0.0, 1.0, 3.0, 40.0] {
                    for frac in [0.0, clk.duty] {
                        edges.push(clk.offset_s + (k + frac) * clk.period_s);
                    }
                }
            }
            for &edge in &edges {
                for s_on in [0usize, 1, 7, 311] {
                    let mut t0 = edge - s_on as f64 * t_snap;
                    for _ in 0..4 {
                        t0 = t0.next_down();
                    }
                    for _ in 0..7 {
                        t0 = t0.next_up();
                        check_runs(&pair, t0, t_snap, 0..625);
                        check_runs(&pair, t0, t_snap, s_on.saturating_sub(2)..s_on + 3);
                    }
                }
            }
            for t0 in [0.0, -0.0, 0.3e-3, -3.0 * t1, 1e-3, 36e-3] {
                for dt in [
                    t_snap,
                    t_snap * (1.0 + 50e-6),
                    t_snap * (1.0 - 50e-6),
                    // grids that put a snapshot on every edge
                    t1 / 8.0,
                    t1 / 16.0,
                    t1 / 3.0,
                ] {
                    for n in [0, 1, 625] {
                        check_runs(&pair, t0, dt, 0..n);
                    }
                    // mid-group chunks, as the time-domain workers take
                    for c in 0..10 {
                        check_runs(&pair, t0, dt, 64 * c..(64 * (c + 1)).min(625));
                    }
                    check_runs(&pair, t0, dt, 100..100);
                    check_runs(&pair, t0, dt, Range { start: 5, end: 3 });
                }
            }
            // quotients at and beyond 2²⁰ periods of either clock
            for k in [524_280.0, 524_288.0, 1_048_570.0, 1_048_576.0, 3e6] {
                let t0 = pair.clock1.offset_s + k * t1;
                for d in [-30.0, -3.0, 0.0, 2.0] {
                    check_runs(&pair, t0 + d * t_snap, t_snap, 0..625);
                }
            }
            for (t0, dt) in [
                (f64::NAN, t_snap),
                (0.0, f64::NAN),
                (f64::INFINITY, t_snap),
                (0.0, f64::INFINITY),
                (1e-3, 0.0),
                (1e-3, -t_snap),
                (1e-3, 1e-300),
            ] {
                check_runs(&pair, t0, dt, 0..64);
            }
            // dense sweep of random grids
            let mut state = 0x2545_f491_4f6c_dd1d_u64;
            for _ in 0..2_000 {
                let t0 = (xorshift(&mut state) - 0.25) * 4e-3;
                let dt = t_snap * (1.0 + (xorshift(&mut state) - 0.5) * 2e-4);
                let s0 = (xorshift(&mut state) * 600.0) as usize;
                check_runs(&pair, t0, dt, s0..625);
            }
        }
    }

    #[test]
    fn runs_walk_the_edges_of_a_phase_group() {
        // a paper-default group past clock 2's offset needs the exact
        // evaluation only where an edge lies within the guard of a
        // snapshot; before it, only the negative-quotient prefix
        let pair = ClockPair::wiforce(1000.0);
        let t_snap = 57.6e-6;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut near_edge = 0;
        for _ in 0..1_000 {
            let t0 = 0.5e-3 + xorshift(&mut state) * 1e-3;
            near_edge += check_runs(&pair, t0, t_snap, 0..625);
        }
        assert!(
            near_edge <= 2,
            "{near_edge} exact evaluations in 1000 groups"
        );
        let prefix = check_runs(&pair, 0.0, t_snap, 0..625);
        assert!((7..=9).contains(&prefix), "{prefix} exact evaluations");
    }

    #[test]
    fn window_walker_matches_state_weights_bitwise() {
        // the batch8 frequency plan, each stream's tag clock a running
        // sum with per-group wander; one walker per stream, as in the
        // batch producer
        let t_snap = 57.6e-6;
        let n = 625;
        let grid_hz = 1.0 / (n as f64 * t_snap);
        let freqs = crate::multi::allocate_frequencies_on_grid(8, 800.0, 2000.0, grid_hz)
            .expect("8 clocks fit the band");
        let mut state = 0x5851_f42d_4c95_7f2d_u64;
        let mut edges = Vec::new();
        // OFDM preamble / FMCW sweep, a whole snapshot, several periods
        for (window, groups) in [(25.6e-6, 200), (t_snap, 10), (1.7e-3, 4), (0.0, 2)] {
            let mut windows = 0u64;
            for &fs in &freqs {
                let pair = ClockPair::wiforce(fs);
                let mut walker = WindowWalker::default();
                let mut t_tag = xorshift(&mut state) * 1e-3;
                for _ in 0..groups {
                    let ppm = (xorshift(&mut state) - 0.5) * 6.0;
                    for _ in 0..n {
                        let a = pair.state_weights_into(t_tag, window, &mut edges);
                        let b = walker.weights(&pair, t_tag, window);
                        assert_eq!(
                            a.map(f64::to_bits),
                            b.map(f64::to_bits),
                            "fs {fs} t {t_tag:e} window {window:e}"
                        );
                        t_tag += t_snap * (1.0 + ppm * 1e-6);
                        windows += 1;
                    }
                }
                let exact = walker.take_exact_evals();
                assert_eq!(walker.take_exact_evals(), 0, "take resets");
                if window == 25.6e-6 {
                    // a window holds an edge a fraction of the time
                    assert!(exact * 3 < (groups * n) as u64, "{exact} exact splits");
                }
            }
            if window == 25.6e-6 {
                assert!(windows >= 1_000_000, "{windows} windows");
            }
        }
        // windows placed on and around every edge, and unordered calls
        for pair in [ClockPair::wiforce(1234.5), ClockPair::naive(1000.0)] {
            let mut walker = WindowWalker::default();
            for clk in [pair.clock1, pair.clock2] {
                for k in [0.0, 1.0, 5.0] {
                    for frac in [0.0, clk.duty] {
                        let edge = clk.offset_s + (k + frac) * clk.period_s;
                        for window in [25.6e-6, 1e-9] {
                            for t0 in [edge, edge - window, edge - 0.5 * window] {
                                let mut t = t0;
                                for _ in 0..3 {
                                    t = t.next_down();
                                }
                                for _ in 0..7 {
                                    let a = pair.state_weights_into(t, window, &mut edges);
                                    let b = walker.weights(&pair, t, window);
                                    assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "t {t:e}");
                                    t = t.next_up();
                                }
                            }
                        }
                    }
                }
            }
            // before clock 2's first edge, beyond 2²⁰ periods (the
            // reference itself never returns for non-finite instants)
            for t in [-1e-3, 0.5e-3, 2.0, 1e3, 0.4e-3] {
                let a = pair.state_weights_into(t, 25.6e-6, &mut edges);
                let b = walker.weights(&pair, t, 25.6e-6);
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "t {t:e}");
            }
        }
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
