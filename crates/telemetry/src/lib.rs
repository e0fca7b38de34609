#![warn(missing_docs)]

//! # wiforce-telemetry
//!
//! Zero-cost observability for the WiForce pipeline: hierarchical
//! [`span!`]s with monotonic timing, [`counter!`]s, [`gauge!`]s and
//! fixed-bucket [`observe!`] histograms, recorded into a thread-local
//! [`Recorder`] and aggregated into a [`PipelineHealth`] report.
//!
//! The whole crate is gated behind one `static AtomicBool`: when
//! telemetry is disabled (the default) every instrumentation call is a
//! single relaxed atomic load followed by an `#[inline]` early return,
//! so the instrumented hot paths cost nothing measurable (the
//! `bench_json` binary tracks the off-vs-on overhead in
//! `BENCH_pipeline.json`). Enabling the recorder never touches any RNG
//! or numeric state, so estimator outputs are bit-identical with
//! telemetry on or off (proptested in `tests/telemetry_determinism.rs`).
//!
//! Spans are hierarchical: a span entered while another is open records
//! under the joined path (`"pipeline.measure_press/harmonics.extract_lines"`),
//! giving per-stage latency breakdowns without a global registry.
//!
//! No external dependencies — JSON serialization is the crate's own tiny
//! writer ([`json`]), and a matching minimal parser is provided for
//! artifact validation in tests and CI.
//!
//! Three continuous-observability layers build on the recorder, each
//! behind its own gate (all off by default, all RNG-free):
//! [`trace`] — per-thread lock-free event rings flushed to Chrome
//! trace-event JSON; [`metrics`] — a process-wide labelled registry with
//! Prometheus text exposition; [`aggregate`] — rolling per-stream window
//! health with SLO degradation flags.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub mod aggregate;
pub mod health;
pub mod json;
pub mod metrics;
pub mod trace;

pub use aggregate::{
    AggregatorConfig, DegradationFlags, HealthAggregator, StreamHealth, StreamWindow, WindowSample,
};
pub use health::PipelineHealth;

/// Cheap timestamp source for per-item stage attribution inside hot
/// loops.
///
/// The snapshot engine takes six timestamps per snapshot when telemetry
/// is on; at ~40 ns per `Instant::now` that alone costs ~0.3 ms per
/// press — several percent of the whole pipeline, breaching the
/// telemetry-overhead budget. On x86_64 the TSC is constant-rate on
/// every CPU this project targets and costs ~8 ns to read, so the stage
/// clocks accumulate raw ticks and convert the *sums* to nanoseconds
/// once per call with a lazily calibrated [`fastclock::ns_per_tick`].
/// Non-x86 targets fall back to `Instant`, where a tick is a nanosecond.
pub mod fastclock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Reads the raw tick counter (TSC on x86_64; monotonic nanoseconds
    /// elsewhere). Only tick *differences* are meaningful.
    #[inline(always)]
    pub fn ticks() -> u64 {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            epoch().elapsed().as_nanos() as u64
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn epoch() -> &'static Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now)
    }

    /// Nanoseconds per tick. On x86_64 this is calibrated once per
    /// process against `Instant` over a ~1 ms busy wait (call it outside
    /// hot loops — the stage clocks convert accumulated sums, never
    /// individual deltas); elsewhere it is exactly 1.0.
    pub fn ns_per_tick() -> f64 {
        #[cfg(target_arch = "x86_64")]
        {
            static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
            *NS_PER_TICK.get_or_init(|| {
                let t0 = Instant::now();
                let c0 = ticks();
                while t0.elapsed().as_micros() < 1000 {
                    std::hint::spin_loop();
                }
                let dns = t0.elapsed().as_nanos() as f64;
                let dticks = ticks().wrapping_sub(c0) as f64;
                if dticks > 0.0 {
                    dns / dticks
                } else {
                    1.0 // non-monotone TSC: degrade to "a tick is a ns"
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            1.0
        }
    }
}

/// The global enable gate. Off by default; every recording entry point
/// checks it first with a relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` when the recorder is collecting.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off (process-wide; all threads observe it).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A fixed-bucket histogram over positive magnitudes (latencies in ns,
/// powers, phase magnitudes, …).
///
/// Buckets are powers of two from 2⁻³² up to 2³², plus an underflow
/// bucket (zero, negative and sub-2⁻³² values) and an overflow bucket.
/// Exact `count`/`sum`/`min`/`max` ride along, so `max` is precise and
/// quantiles are bucket-resolution (≤ one octave of error) — plenty for
/// p50/p95 latency reporting, and merging two histograms is exact
/// (bucket counts add).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (accumulated in record/merge order).
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Bucket counts: `[0]` underflow, `[1..=64]` octaves 2⁻³²…2³²,
    /// `[65]` overflow.
    pub buckets: [u64; 66],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; 66],
        }
    }
}

impl Histogram {
    /// Bucket index for a value: floor(log2(v)) clamped to the bucket
    /// range, computed exactly from the IEEE exponent for normal values.
    fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v < 2.0f64.powi(-32) {
            return 0;
        }
        if v >= 2.0f64.powi(32) {
            return 65;
        }
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023; // floor(log2 v)
        (exp + 33) as usize
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Records `count` occurrences totalling `total` — the bulk form of
    /// [`Self::record`] for per-sample events accumulated over a chunk.
    /// `count` and `sum` stay exact; the samples land in the bucket of
    /// their chunk mean, so quantiles are chunk-resolution.
    pub fn record_bulk(&mut self, count: u64, total: f64) {
        if count == 0 {
            return;
        }
        let mean = total / count as f64;
        self.count += count;
        self.sum += total;
        self.min = self.min.min(mean);
        self.max = self.max.max(mean);
        self.buckets[Self::bucket_index(mean)] += count;
    }

    /// Merges another histogram into this one (bucket counts add; the
    /// sum accumulates in call order, so index-ordered merges are
    /// deterministic).
    pub fn merge_from(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate for `q` in `[0, 1]`: walks the
    /// cumulative bucket counts and returns the geometric midpoint of the
    /// bucket containing the target rank, clamped to the exact observed
    /// `[min, max]`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let rep = match i {
                    0 => self.min,
                    65 => self.max,
                    _ => 1.5 * 2.0f64.powi(i as i32 - 33),
                };
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A drained or cloned view of one recorder's contents. Span keys are
/// `/`-joined hierarchical paths; counter/gauge/observation keys are the
/// instrumentation names. `BTreeMap` keeps iteration (and therefore JSON
/// output and merge results) deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Span latency histograms (values in nanoseconds), by path.
    pub spans: BTreeMap<String, Histogram>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Value histograms recorded via [`observe!`].
    pub observations: BTreeMap<String, Histogram>,
}

impl TelemetrySnapshot {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.observations.is_empty()
    }

    /// Merges `other` into `self`. Counters and histogram buckets add;
    /// gauges take `other`'s value (last writer wins) — so merging a
    /// sequence of snapshots in index order is deterministic regardless
    /// of which thread produced each one.
    pub fn merge_from(&mut self, other: &TelemetrySnapshot) {
        for (k, h) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge_from(h);
        }
        for (k, &n) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += n;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.observations {
            self.observations
                .entry(k.clone())
                .or_default()
                .merge_from(h);
        }
    }

    /// The deterministic subset of two snapshots compared for equality:
    /// counters, gauges, observations, and span *counts* (span durations
    /// are wall-clock and naturally vary run to run). This is what the
    /// thread-count-invariance test checks.
    pub fn deterministic_eq(&self, other: &TelemetrySnapshot) -> bool {
        let span_counts = |s: &TelemetrySnapshot| -> BTreeMap<String, u64> {
            s.spans.iter().map(|(k, h)| (k.clone(), h.count)).collect()
        };
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.observations == other.observations
            && span_counts(self) == span_counts(other)
    }
}

/// The thread-local metric store. Instrumentation macros write here;
/// [`take`] and [`snapshot`] read it.
#[derive(Debug, Default)]
pub struct Recorder {
    data: TelemetrySnapshot,
    /// Open-span path stack (names of enclosing spans).
    stack: Vec<&'static str>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Drains this thread's recorder, returning everything recorded since
/// the last drain.
pub fn take() -> TelemetrySnapshot {
    RECORDER.with(|r| {
        let rec = &mut *r.borrow_mut();
        std::mem::take(&mut rec.data)
    })
}

/// Clones this thread's recorder contents without draining.
pub fn snapshot() -> TelemetrySnapshot {
    RECORDER.with(|r| r.borrow().data.clone())
}

/// Clears this thread's recorder.
pub fn reset() {
    let _ = take();
}

/// Merges a drained snapshot into this thread's recorder — used to fold
/// worker-thread telemetry back into the caller after a parallel region
/// (merge the workers' snapshots in a deterministic order first). No-op
/// while disabled.
pub fn absorb(snap: &TelemetrySnapshot) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().data.merge_from(snap));
}

/// Records `n` onto a monotonic counter. No-op while disabled. Only the
/// first record of a name allocates its key, so a counter bumped once
/// per call costs the traced run no allocation.
#[inline]
pub fn counter(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        let counters = &mut r.borrow_mut().data.counters;
        match counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                counters.insert(name.into(), n);
            }
        }
    });
}

/// Sets a last-value gauge. No-op while disabled.
#[inline]
pub fn gauge(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        r.borrow_mut().data.gauges.insert(name.into(), v);
    });
}

/// Records a value into a fixed-bucket histogram. No-op while disabled.
#[inline]
pub fn observe(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        r.borrow_mut()
            .data
            .observations
            .entry(name.into())
            .or_default()
            .record(v);
    });
}

/// Like [`counter`], but with a runtime-built name — for per-stream or
/// per-shard metrics (`batch.stream.<name>.presses_ok`) whose identity is
/// only known at run time. No-op while disabled; the `String` is only
/// built by callers when [`enabled`] says recording is on.
#[inline]
pub fn counter_owned(name: String, n: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        *r.borrow_mut().data.counters.entry(name).or_insert(0) += n;
    });
}

/// Like [`gauge`], but with a runtime-built name. No-op while disabled.
#[inline]
pub fn gauge_owned(name: String, v: f64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        r.borrow_mut().data.gauges.insert(name, v);
    });
}

/// Like [`observe`], but with a runtime-built name. No-op while disabled.
#[inline]
pub fn observe_owned(name: String, v: f64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        r.borrow_mut()
            .data
            .observations
            .entry(name)
            .or_default()
            .record(v);
    });
}

/// Records `count` span occurrences totalling `total_ns` nanoseconds
/// under `name`, joined beneath the currently-open span path — the bulk
/// companion to [`span!`] for per-sample stages. Hot loops accumulate a
/// stage's elapsed nanoseconds manually (taking `Instant`s only while
/// [`enabled`]) and record once per chunk, which removes the thread-local
/// borrow + path join + map lookup from every sample while keeping the
/// same hierarchical span path and exact count/total. No-op while
/// disabled or when `count` is zero.
#[inline]
pub fn span_bulk(name: &'static str, count: u64, total_ns: f64) {
    if count == 0 || !enabled() {
        return;
    }
    RECORDER.with(|r| {
        let rec = &mut *r.borrow_mut();
        let path = rec
            .stack
            .iter()
            .chain(std::iter::once(&name))
            .copied()
            .collect::<Vec<_>>()
            .join("/");
        rec.data
            .spans
            .entry(path)
            .or_default()
            .record_bulk(count, total_ns);
    });
}

/// An open timing span. Created by [`span!`]; records its elapsed wall
/// time under the hierarchical path of enclosing spans when dropped.
/// When telemetry is disabled the constructor returns an inert value and
/// `drop` is a no-op.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    /// `None` when telemetry was disabled at entry.
    start: Option<Instant>,
    name: &'static str,
    /// Stack depth at entry, so drop can restore it even if inner spans
    /// leaked (e.g. through an early return).
    depth: usize,
    /// `true` when the trace ring was capturing at entry (the end event
    /// must pair with the begin even if tracing is toggled mid-span).
    traced: bool,
}

impl Span {
    /// Opens a span. Prefer the [`span!`] macro.
    ///
    /// When the trace ring is capturing ([`trace::trace_enabled`]) the
    /// span also emits timeline begin/end events — every `span!` site is
    /// a trace point without separate instrumentation.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let traced = trace::trace_enabled();
        if traced {
            trace::begin(name);
        }
        if !enabled() {
            return Span {
                start: None,
                name,
                depth: 0,
                traced,
            };
        }
        let depth = RECORDER.with(|r| {
            let rec = &mut *r.borrow_mut();
            rec.stack.push(name);
            rec.stack.len() - 1
        });
        Span {
            start: Some(Instant::now()),
            name,
            depth,
            traced,
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.traced {
            trace::end(self.name);
        }
        let Some(start) = self.start else { return };
        let elapsed_ns = start.elapsed().as_nanos() as f64;
        RECORDER.with(|r| {
            let rec = &mut *r.borrow_mut();
            // joined path of enclosing spans + this one
            let path = rec.stack[..self.depth]
                .iter()
                .chain(std::iter::once(&self.name))
                .copied()
                .collect::<Vec<_>>()
                .join("/");
            rec.stack.truncate(self.depth);
            rec.data.spans.entry(path).or_default().record(elapsed_ns);
        });
    }
}

/// Opens a hierarchical timing span recording into the thread-local
/// recorder; the returned guard records elapsed nanoseconds on drop.
///
/// ```
/// let _guard = wiforce_telemetry::span!("harmonics.extract_lines");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

/// Increments a counter: `counter!("faults.snapshots_dropped", 1)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        $crate::counter($name, $n)
    };
}

/// Sets a gauge: `gauge!("pipeline.line_to_floor_db", snr)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge($name, $v)
    };
}

/// Records a histogram observation: `observe!("tracker.force_innovation_n", x)`.
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {
        $crate::observe($name, $v)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes access to the global enable flag across tests.
    /// Serializes the tests that flip the process-wide enable gate.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_enabled<T>(f: impl FnOnce() -> T) -> T {
        let _g = GATE.lock().unwrap();
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn fastclock_tracks_wall_time() {
        // ticks × ns_per_tick over a busy wait should agree with Instant
        // to well within the accuracy spans need (the tolerance is loose
        // because CI boxes jitter)
        let _ = fastclock::ns_per_tick(); // calibrate outside the window
        let t0 = Instant::now();
        let c0 = fastclock::ticks();
        while t0.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let wall = t0.elapsed().as_nanos() as f64;
        let fast = fastclock::ticks().wrapping_sub(c0) as f64 * fastclock::ns_per_tick();
        let ratio = fast / wall;
        assert!((0.7..1.3).contains(&ratio), "fast/wall ratio {ratio}");
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = GATE.lock().unwrap();
        reset();
        set_enabled(false);
        counter("c", 3);
        gauge("g", 1.5);
        observe("o", 2.0);
        {
            let _s = span!("s");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn counters_gauges_observations_record() {
        let snap = with_enabled(|| {
            counter("presses", 2);
            counter("presses", 3);
            gauge("snr_db", 10.0);
            gauge("snr_db", 12.5);
            observe("mag", 0.25);
            observe("mag", 4.0);
            take()
        });
        assert_eq!(snap.counters["presses"], 5);
        assert_eq!(snap.gauges["snr_db"], 12.5);
        let h = &snap.observations["mag"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0.25);
        assert_eq!(h.max, 4.0);
        assert!((h.sum - 4.25).abs() < 1e-12);
    }

    #[test]
    fn owned_names_record_like_static_ones() {
        let snap = with_enabled(|| {
            counter_owned(format!("batch.stream.{}.presses", 3), 2);
            counter("batch.stream.3.presses", 1);
            gauge_owned("batch.stream.3.ok".to_string(), 1.0);
            observe_owned("batch.queue_depth".to_string(), 2.0);
            take()
        });
        assert_eq!(snap.counters["batch.stream.3.presses"], 3);
        assert_eq!(snap.gauges["batch.stream.3.ok"], 1.0);
        assert_eq!(snap.observations["batch.queue_depth"].count, 1);
    }

    #[test]
    fn owned_names_noop_while_disabled() {
        let _g = GATE.lock().unwrap();
        reset();
        set_enabled(false);
        counter_owned("c".into(), 1);
        gauge_owned("g".into(), 1.0);
        observe_owned("o".into(), 1.0);
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_hierarchically() {
        let snap = with_enabled(|| {
            {
                let _outer = span!("outer");
                let _inner = span!("inner");
            }
            {
                let _solo = span!("inner");
            }
            take()
        });
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 1);
        assert_eq!(snap.spans["inner"].count, 1);
        assert!(snap.spans["outer"].max >= snap.spans["outer/inner"].min);
    }

    #[test]
    fn span_bulk_records_under_open_path() {
        let snap = with_enabled(|| {
            {
                let _outer = span!("outer");
                span_bulk("stage", 625, 625.0 * 2000.0);
            }
            span_bulk("stage", 0, 123.0); // zero-count is a no-op
            take()
        });
        let h = &snap.spans["outer/stage"];
        assert_eq!(h.count, 625);
        assert!((h.sum - 1_250_000.0).abs() < 1e-6);
        assert_eq!(h.min, 2000.0);
        assert_eq!(h.max, 2000.0);
        assert!(!snap.spans.contains_key("stage"));
    }

    #[test]
    fn record_bulk_matches_repeated_record_counts() {
        let mut bulk = Histogram::default();
        bulk.record_bulk(4, 8.0);
        let mut each = Histogram::default();
        for _ in 0..4 {
            each.record(2.0);
        }
        assert_eq!(bulk.count, each.count);
        assert_eq!(bulk.sum, each.sum);
        assert_eq!(bulk.buckets, each.buckets);
    }

    #[test]
    fn histogram_quantiles_bracket_values() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 100.0);
        let p50 = h.quantile(0.5);
        // bucket resolution is one octave: p50 of 1..100 lies in [32, 64)
        assert!((16.0..=64.0).contains(&p50), "{p50}");
        assert_eq!(h.quantile(1.0), 100.0);
        // underflow and overflow land in the edge buckets
        h.record(0.0);
        h.record(1e12);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[65], 1);
    }

    #[test]
    fn merge_is_index_order_deterministic() {
        let mk = |vals: &[f64], gauge_v: f64| {
            let mut s = TelemetrySnapshot::default();
            let mut h = Histogram::default();
            for &v in vals {
                h.record(v);
            }
            s.observations.insert("m".into(), h);
            s.counters.insert("c".into(), vals.len() as u64);
            s.gauges.insert("g".into(), gauge_v);
            s
        };
        let parts = [mk(&[1.0, 2.0], 7.0), mk(&[3.0], 8.0), mk(&[0.5], 9.0)];
        let mut a = TelemetrySnapshot::default();
        for p in &parts {
            a.merge_from(p);
        }
        let mut b = TelemetrySnapshot::default();
        for p in &parts {
            b.merge_from(p);
        }
        assert_eq!(a, b);
        assert_eq!(a.counters["c"], 4);
        assert_eq!(a.gauges["g"], 9.0, "last gauge wins");
        assert_eq!(a.observations["m"].count, 4);
        assert!(a.deterministic_eq(&b));
    }

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(Histogram::bucket_index(1.0), 33);
        assert_eq!(Histogram::bucket_index(1.5), 33);
        assert_eq!(Histogram::bucket_index(2.0), 34);
        assert_eq!(Histogram::bucket_index(0.5), 32);
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1e300), 65);
    }
}
