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
//! There is one event stream. Code on a worker thread records with the
//! same macros as code on the caller: a parallel region takes a
//! [`scope`] of the caller's open-span path, runs each piece of work
//! through [`Scope::capture`] (a fresh recording nested under that
//! path), and [`replay`]s the recordings in a fixed order, so reports do
//! not depend on the worker count. Every span is timed by one clock
//! ([`fastclock`]), read twice, for both the recorder and the trace ring.
//!
//! No external dependencies — JSON serialization is the crate's own tiny
//! writer ([`json`]), and a matching minimal parser is provided for
//! artifact validation in tests and CI.
//!
//! Two process-wide gates exist: the recorder's ([`enabled`]) and the
//! trace ring's ([`trace::trace_enabled`]); both are off by default and
//! RNG-free. Three views build on them: [`trace`] flushes per-thread
//! lock-free event rings to Chrome trace-event JSON; [`metrics`] renders
//! a recorder snapshot (plus a batch run's per-stream series) as
//! Prometheus text exposition, holding no store of its own;
//! [`aggregate`] folds per-group samples into rolling per-stream window
//! health with SLO degradation flags.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

pub mod aggregate;
pub mod health;
pub mod json;
pub mod metrics;
pub mod trace;

pub use aggregate::{
    AggregatorConfig, DegradationFlags, HealthAggregator, StreamHealth, StreamWindow, WindowSample,
};
pub use health::PipelineHealth;

/// The one clock behind every [`Span`] and trace event.
///
/// A span reads [`fastclock::ticks`] once when it opens and once when it
/// drops; its histogram entry and its trace-ring begin/end events come
/// from those two readings, so a Chrome-trace slice and the recorded
/// duration agree by construction. On x86_64 the TSC is constant-rate on
/// every CPU this project targets and costs ~8 ns to read; tick
/// differences convert to nanoseconds through a once-per-process
/// calibrated [`fastclock::ns_per_tick`]. Non-x86 targets fall back to
/// `Instant`, where a tick is a nanosecond.
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
    /// process against `Instant` over a ~1 ms busy wait, which
    /// [`crate::set_enabled`] and [`crate::trace::set_trace_enabled`]
    /// run up front so no span pays it; elsewhere it is exactly 1.0.
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
/// Turning it on calibrates [`fastclock::ns_per_tick`] first.
pub fn set_enabled(on: bool) {
    if on {
        fastclock::ns_per_tick();
    }
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
            update(&mut self.spans, k, |s| s.merge_from(h));
        }
        for (k, &n) in &other.counters {
            update(&mut self.counters, k, |c| *c += n);
        }
        for (k, &v) in &other.gauges {
            update(&mut self.gauges, k, |g| *g = v);
        }
        for (k, h) in &other.observations {
            update(&mut self.observations, k, |o| o.merge_from(h));
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

/// Applies `f` to `map[key]`, inserted at its default first; a known key does not allocate.
fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

/// One instrumentation call, as a [`Scope::capture`] logs it.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A span opened.
    Open(&'static str),
    /// The innermost open span closed after this many nanoseconds.
    Close(f64),
    Counter(&'static str, u64),
    Gauge(&'static str, f64),
    Observe(&'static str, f64),
}

/// What a [`Scope::capture`] recorded: its instrumentation calls in
/// order, span paths relative to the scope's. A log rather than maps, so
/// it crosses threads as a few cache lines; replaying it ([`replay`],
/// [`Scope::snapshot`]) records what the calls would have recorded.
#[derive(Debug, Clone)]
pub struct Recording(Vec<Event>);

/// The thread-local metric store. Instrumentation macros write here;
/// [`take`] drains it.
#[derive(Debug, Default)]
pub struct Recorder {
    data: TelemetrySnapshot,
    /// Open-span path stack (names of enclosing spans).
    stack: Vec<&'static str>,
    /// Scratch for joining a closing span's path.
    path: String,
    /// Inside a capture, the log every call goes to instead of `data`.
    log: Option<Vec<Event>>,
}

impl Recorder {
    /// Makes one call: keeps the span stack, then records into `data` —
    /// or, inside a capture, logs the call.
    fn apply(&mut self, ev: Event) {
        let data = &mut self.data;
        match ev {
            Event::Open(name) => self.stack.push(name),
            Event::Close(ns) => {
                if self.log.is_none() {
                    self.path.clear();
                    for name in &self.stack {
                        self.path.extend([name, "/"]);
                    }
                    self.path.pop();
                    update(&mut data.spans, &self.path, |s| s.record(ns));
                }
                self.stack.pop();
            }
            _ if self.log.is_some() => {}
            Event::Counter(name, n) => update(&mut data.counters, name, |c| *c += n),
            Event::Gauge(name, v) => update(&mut data.gauges, name, |g| *g = v),
            Event::Observe(name, v) => update(&mut data.observations, name, |o| o.record(v)),
        }
        if let Some(log) = &mut self.log {
            log.push(ev);
        }
    }
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

/// Clears this thread's recorder.
pub fn reset() {
    let _ = take();
}

/// Replays a [`Recording`] on this thread, under its open spans — how a
/// parallel region folds its captures back into the caller, in a fixed
/// order. No-op while disabled.
pub fn replay(rec: &Recording) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        let recorder = &mut *r.borrow_mut();
        for &ev in &rec.0 {
            recorder.apply(ev);
        }
    });
}

/// Merges a snapshot into this thread's recorder (e.g. a batch run's or
/// a sweep's merged telemetry). No-op while disabled.
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
    RECORDER.with(|r| r.borrow_mut().apply(Event::Counter(name, n)));
}

/// Sets a last-value gauge. No-op while disabled.
#[inline]
pub fn gauge(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().apply(Event::Gauge(name, v)));
}

/// Records a value into a fixed-bucket histogram. No-op while disabled.
#[inline]
pub fn observe(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| r.borrow_mut().apply(Event::Observe(name, v)));
}

/// The open-span path of the thread that starts a parallel region,
/// taken by [`scope`]. Work the region hands to other threads (or runs
/// on the caller) records through [`Scope::capture`] as if it ran inside
/// those spans. `Sync`, so one scope serves every worker.
#[derive(Debug)]
pub struct Scope {
    /// The caller's open-span path; `None` when the recorder was off.
    path: Option<Vec<&'static str>>,
}

/// Snapshots this thread's open-span path for a parallel region (see
/// [`Scope`]). Reads nothing and allocates nothing while disabled.
pub fn scope() -> Scope {
    Scope {
        path: enabled().then(|| RECORDER.with(|r| r.borrow().stack.clone())),
    }
}

impl Scope {
    /// `true` when the recorder was on at [`scope`], so captures record.
    pub fn is_recording(&self) -> bool {
        self.path.is_some()
    }

    /// Runs `f` against a fresh recording on the current thread, nested
    /// under the scope's span path, and returns `f`'s result with that
    /// recording (`None`, and `f` simply called, when not recording).
    /// The thread's own span stack is swapped out and back (also when `f`
    /// unwinds) and its data is untouched, so a caller thread that runs
    /// region work keeps its open recording. [`replay`] the recordings in
    /// a fixed order and the report does not depend on who ran what.
    pub fn capture<T>(&self, f: impl FnOnce() -> T) -> (T, Option<Recording>) {
        let Some(path) = &self.path else {
            return (f(), None);
        };
        type Own = (Vec<&'static str>, Option<Vec<Event>>);
        /// Swaps `own` in as the thread's span stack and log, returning
        /// what was there.
        fn swap(own: Own) -> Own {
            RECORDER.with(|r| {
                let rec = &mut *r.borrow_mut();
                let stack = std::mem::replace(&mut rec.stack, own.0);
                (stack, std::mem::replace(&mut rec.log, own.1))
            })
        }
        /// Puts the thread's own stack and log back on drop.
        struct Restore(Option<Own>);
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(own) = self.0.take() {
                    swap(own);
                }
            }
        }
        // a synthesis chunk logs three spans: one allocation
        let log = Vec::with_capacity(8);
        let mut restore = Restore(Some(swap((path.clone(), Some(log)))));
        let out = f();
        let own = restore.0.take().expect("restored only here or on unwind");
        let (_, log) = swap(own);
        (out, Some(Recording(log.expect("a capture logs"))))
    }

    /// Replays `recordings`, in order, into a fresh snapshot under the
    /// scope's span path — a parallel region's merged telemetry, without
    /// touching any thread's recorder.
    pub fn snapshot<'a>(
        &self,
        recordings: impl IntoIterator<Item = &'a Recording>,
    ) -> TelemetrySnapshot {
        let mut recorder = Recorder {
            stack: self.path.clone().unwrap_or_default(),
            ..Recorder::default()
        };
        for rec in recordings {
            for &ev in &rec.0 {
                recorder.apply(ev);
            }
        }
        recorder.data
    }
}

/// An open timing span. Created by [`span!`]; records its elapsed wall
/// time under the hierarchical path of enclosing spans when dropped.
/// When both the recorder and the trace ring are off the constructor
/// returns an inert value and `drop` is a no-op.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    /// [`fastclock::ticks`] at entry (0 when inert).
    start: u64,
    name: &'static str,
    /// Stack depth at entry, so drop can restore it even if inner spans
    /// leaked (e.g. through an early return); `None` when the recorder
    /// was off at entry.
    depth: Option<usize>,
    /// `true` when the trace ring was capturing at entry (the end event
    /// must pair with the begin even if tracing is toggled mid-span).
    traced: bool,
}

impl Span {
    /// Opens a span. Prefer the [`span!`] macro.
    ///
    /// When the trace ring is capturing ([`trace::trace_enabled`]) the
    /// span also emits timeline begin/end events — every `span!` site is
    /// a trace point without separate instrumentation. Both views share
    /// the span's two clock readings.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let traced = trace::trace_enabled();
        let depth = enabled().then(|| {
            RECORDER.with(|r| {
                let rec = &mut *r.borrow_mut();
                rec.apply(Event::Open(name));
                rec.stack.len() - 1
            })
        });
        let start = if traced || depth.is_some() {
            fastclock::ticks()
        } else {
            0
        };
        if traced {
            trace::begin_at(start, name);
        }
        Span {
            start,
            name,
            depth,
            traced,
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if !self.traced && self.depth.is_none() {
            return;
        }
        let end = fastclock::ticks();
        if self.traced {
            trace::end_at(end, self.name);
        }
        let Some(depth) = self.depth else { return };
        let elapsed_ns = end.wrapping_sub(self.start) as f64 * fastclock::ns_per_tick();
        RECORDER.with(|r| {
            let rec = &mut *r.borrow_mut();
            // spans leaked inside this one (e.g. through an early return)
            // close with it
            rec.stack.truncate(depth + 1);
            rec.apply(Event::Close(elapsed_ns));
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
    use std::time::Instant;

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
    fn capture_on_another_thread_absorbs_under_the_callers_path() {
        let snap = with_enabled(|| {
            let _outer = span!("outer");
            let scope = scope();
            let (answer, rec) = std::thread::scope(|s| {
                s.spawn(|| {
                    scope.capture(|| {
                        let _s = span!("stage");
                        counter("work", 2);
                        6 * 7
                    })
                })
                .join()
                .unwrap()
            });
            assert_eq!(answer, 42);
            replay(&rec.expect("recording scope captures"));
            drop(_outer);
            take()
        });
        assert_eq!(snap.spans["outer/stage"].count, 1);
        assert_eq!(snap.spans["outer"].count, 1);
        assert!(!snap.spans.contains_key("stage"));
        assert_eq!(snap.counters["work"], 2);
    }

    #[test]
    fn capture_leaves_the_threads_own_recording_as_it_was() {
        let snap = with_enabled(|| {
            let _outer = span!("outer");
            counter("before", 1);
            let scope = scope();
            let ((), rec) = scope.capture(|| {
                let _s = span!("inside");
                counter("inside", 1);
            });
            let rec = scope.snapshot([&rec.expect("recording scope captures")]);
            assert_eq!(rec.spans["outer/inside"].count, 1);
            assert_eq!(rec.counters.get("before"), None);
            // the open span and the data recorded before are untouched
            RECORDER.with(|r| assert_eq!(r.borrow().stack, ["outer"]));
            counter("after", 1);
            drop(_outer);
            take()
        });
        assert_eq!(snap.counters.get("inside"), None);
        assert_eq!(snap.counters["before"], 1);
        assert_eq!(snap.counters["after"], 1);
        assert_eq!(snap.spans["outer"].count, 1);
        assert!(!snap.spans.contains_key("outer/inside"));
    }

    #[test]
    fn a_capture_inside_a_capture_replays_through_the_outer_one() {
        let snap = with_enabled(|| {
            let _outer = span!("outer");
            let ((), rec) = scope().capture(|| {
                let _mid = span!("mid");
                let ((), rec) = scope().capture(|| {
                    let _leaf = span!("leaf");
                    gauge("g", 2.0);
                });
                replay(&rec.expect("nested scope records"));
            });
            replay(&rec.expect("recording scope captures"));
            drop(_outer);
            take()
        });
        assert_eq!(snap.spans["outer/mid/leaf"].count, 1);
        assert_eq!(snap.spans["outer/mid"].count, 1);
        assert_eq!(snap.gauges["g"], 2.0);
    }

    #[test]
    fn capture_with_the_recorder_off_returns_and_records_nothing() {
        let _g = GATE.lock().unwrap();
        reset();
        set_enabled(false);
        let scope = scope();
        assert!(!scope.is_recording());
        let (v, rec) = scope.capture(|| {
            let _s = span!("s");
            counter("c", 1);
            3
        });
        assert_eq!(v, 3);
        assert!(rec.is_none());
        assert!(take().is_empty());
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
