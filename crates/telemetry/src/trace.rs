//! Continuous timeline tracing: per-thread lock-free SPSC event rings
//! flushed into Chrome trace-event JSON.
//!
//! Where the recorder ([`crate::Recorder`]) aggregates — histograms,
//! counters, one number per metric — the trace ring keeps the *timeline*:
//! every span begin/end, instant, flow and counter event with a raw TSC
//! timestamp ([`crate::fastclock`]), per worker thread, in a bounded
//! ring. The collector ([`collect`]) drains all rings and the writer
//! ([`TraceSnapshot::chrome_trace`]) emits Chrome trace-event JSON that
//! loads directly in Perfetto or `chrome://tracing`, with one lane per
//! worker thread, flow arrows linking cross-thread handoffs (producer →
//! consumer fan-out, synthesis chunks → their group's fused line
//! extraction), and per-stream counter tracks.
//!
//! ## Hot-path contract
//!
//! Recording never blocks and never allocates after a thread's first
//! event: each thread owns a single-producer ring ([`ring_capacity`]
//! slots); the only consumer is the collector. A full ring *drops* the
//! new event and bumps a relaxed drop counter, which [`collect`] reports
//! as [`TraceSnapshot::dropped`] — the pipeline never stalls on its own
//! observability. When tracing is disabled (the default) every entry
//! point is one relaxed atomic load.
//!
//! Tracing touches no RNG or numeric state, so pipeline outputs are
//! bit-identical with tracing on or off (pinned in
//! `tests/observability.rs`).

use crate::fastclock;
use crate::json::JsonWriter;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sentinel for "no argument attached" on an event.
pub const NO_ARG: u64 = u64::MAX;

/// Per-thread ring capacity in events (power of two).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// Per-thread ring capacity: [`DEFAULT_RING_CAPACITY`].
pub fn ring_capacity() -> usize {
    DEFAULT_RING_CAPACITY
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened (Chrome phase `B`). `arg` optionally carries an id.
    Begin,
    /// Span closed (Chrome phase `E`).
    End,
    /// Point event (Chrome phase `i`, thread scope).
    Instant,
    /// Flow start (Chrome phase `s`); `flow` is the flow id a later
    /// [`EventKind::FlowEnd`] binds to.
    FlowStart,
    /// Flow end (Chrome phase `f`, binding point `e`).
    FlowEnd,
    /// Counter sample (Chrome phase `C`); `arg` is the value and `flow`
    /// selects the series (rendered as `name.<flow>`).
    Counter,
}

/// One timeline event. Plain-old-data so ring slots are trivially
/// copyable; names are `&'static str` so recording never allocates.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Raw [`fastclock::ticks`] timestamp.
    pub tsc: u64,
    /// Event name (span / flow / counter name).
    pub name: &'static str,
    /// Phase.
    pub kind: EventKind,
    /// Kind-specific argument ([`NO_ARG`] when absent): counter value,
    /// or a stream/group id annotated onto spans and instants.
    pub arg: u64,
    /// Flow id for flow events, series id for counters ([`NO_ARG`]
    /// when absent).
    pub flow: u64,
}

/// The SPSC ring. The owning thread is the only producer; the collector
/// (under the registry lock) is the only consumer. `head` is the
/// producer's write cursor, `tail` the consumer's read cursor; both grow
/// monotonically and are masked into the slot array.
struct Ring {
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// Safety: the SPSC protocol makes slot access exclusive — the producer
// writes a slot strictly before publishing it via `head` (Release), and
// the consumer only reads slots at indices below an Acquire-loaded
// `head`, retiring them via `tail` before the producer may reuse them.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(16);
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side: append one event or count a drop. Never blocks.
    #[inline]
    fn push(&self, ev: TraceEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) > self.mask {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        unsafe {
            (*self.slots[head & self.mask].get()).write(ev);
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Consumer side: drain everything published so far.
    fn drain(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            out.push(unsafe { (*self.slots[tail & self.mask].get()).assume_init() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
    }
}

/// One registered worker lane: its ring plus display identity.
struct Lane {
    ring: Ring,
    /// Chrome `tid` for this lane (registration order).
    lane: u32,
    thread_name: String,
}

/// The global enable gate, independent of the telemetry recorder's.
static TRACING: AtomicBool = AtomicBool::new(false);
/// Bumped by [`reset`] so thread-local lane handles re-register instead
/// of writing into a retired ring.
static EPOCH: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Lane>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Lane>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_LANE: RefCell<Option<Arc<Lane>>> = const { RefCell::new(None) };
    static LOCAL_EPOCH: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// `true` when the trace ring is capturing.
#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns timeline capture on or off (process-wide). Turning it on
/// calibrates [`fastclock::ns_per_tick`] first.
pub fn set_trace_enabled(on: bool) {
    if on {
        fastclock::ns_per_tick();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Records one event stamped now into this thread's ring (cold path:
/// the caller checked [`trace_enabled`]).
fn emit(kind: EventKind, name: &'static str, arg: u64, flow: u64) {
    emit_at(fastclock::ticks(), kind, name, arg, flow);
}

/// Records one event stamped `tsc` into this thread's ring. Registers
/// the lane on first use and after every [`reset`].
fn emit_at(tsc: u64, kind: EventKind, name: &'static str, arg: u64, flow: u64) {
    let ev = TraceEvent {
        tsc,
        name,
        kind,
        arg,
        flow,
    };
    let epoch = EPOCH.load(Ordering::Relaxed);
    LOCAL_LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() || LOCAL_EPOCH.get() != epoch {
            let mut reg = registry().lock().expect("trace registry");
            let lane = Arc::new(Lane {
                ring: Ring::new(ring_capacity()),
                lane: reg.len() as u32,
                thread_name: std::thread::current()
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("thread-{}", reg.len())),
            });
            reg.push(Arc::clone(&lane));
            *slot = Some(lane);
            LOCAL_EPOCH.set(epoch);
        }
        slot.as_ref().expect("lane registered above").ring.push(ev);
    });
}

/// Emits the begin event of a [`crate::Span`] that read `tsc` at entry
/// (the caller checked [`trace_enabled`]).
pub(crate) fn begin_at(tsc: u64, name: &'static str) {
    emit_at(tsc, EventKind::Begin, name, NO_ARG, NO_ARG);
}

/// Emits the end event of a [`crate::Span`] that read `tsc` at drop.
pub(crate) fn end_at(tsc: u64, name: &'static str) {
    emit_at(tsc, EventKind::End, name, NO_ARG, NO_ARG);
}

/// Emits an instant event annotated with `arg` (use [`NO_ARG`] for
/// none). No-op while tracing is off.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    if trace_enabled() {
        emit(EventKind::Instant, name, arg, NO_ARG);
    }
}

/// Emits a flow-start event; a later [`flow_end`] with the same id draws
/// the arrow (across threads). No-op while tracing is off.
#[inline]
pub fn flow_start(name: &'static str, id: u64) {
    if trace_enabled() {
        emit(EventKind::FlowStart, name, NO_ARG, id);
    }
}

/// Emits a flow-end event binding to the enclosing slice. No-op while
/// tracing is off.
#[inline]
pub fn flow_end(name: &'static str, id: u64) {
    if trace_enabled() {
        emit(EventKind::FlowEnd, name, NO_ARG, id);
    }
}

/// Emits a counter sample; `series` ([`NO_ARG`] for none) splits one
/// name into per-stream tracks (`name.<series>`). No-op while off.
#[inline]
pub fn counter_value(name: &'static str, value: u64, series: u64) {
    if trace_enabled() {
        emit(EventKind::Counter, name, value, series);
    }
}

/// A trace-only span guard: begin on construction, end on drop. Inert
/// (no events, no registration) when tracing was off at entry.
#[must_use = "a trace span emits its end event on drop"]
pub struct TraceSpan {
    name: &'static str,
    active: bool,
}

/// Opens a trace-only span (for hot-loop stages too fine-grained for the
/// aggregating recorder, e.g. per-chunk synthesis).
#[inline]
pub fn span(name: &'static str) -> TraceSpan {
    let active = trace_enabled();
    if active {
        emit(EventKind::Begin, name, NO_ARG, NO_ARG);
    }
    TraceSpan { name, active }
}

/// Opens a trace-only span annotated with `arg` (e.g. a group id).
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> TraceSpan {
    let active = trace_enabled();
    if active {
        emit(EventKind::Begin, name, arg, NO_ARG);
    }
    TraceSpan { name, active }
}

impl Drop for TraceSpan {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            emit(EventKind::End, self.name, NO_ARG, NO_ARG);
        }
    }
}

/// Events drained from one lane, in ring (per-thread chronological)
/// order.
pub struct LaneEvents {
    /// Chrome `tid`.
    pub lane: u32,
    /// OS thread name at registration.
    pub thread_name: String,
    /// The lane's events.
    pub events: Vec<TraceEvent>,
}

/// Everything the collector drained, plus what the writer needs to turn
/// ticks into microseconds.
pub struct TraceSnapshot {
    /// Per-lane event lists, in lane order.
    pub lanes: Vec<LaneEvents>,
    /// Events rejected by full rings since the last [`reset`].
    pub dropped: u64,
    /// Tick → nanosecond scale at collection time.
    pub ns_per_tick: f64,
}

impl TraceSnapshot {
    /// Total drained events across lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Serializes the snapshot as Chrome trace-event JSON (object form:
    /// `{"traceEvents": [...], "otherData": {...}}`), loadable in
    /// Perfetto / `chrome://tracing`. Events are globally sorted by
    /// timestamp; each lane becomes a `tid` with a `thread_name`
    /// metadata record; `otherData` carries the drop count so artifact
    /// validation can gate on it.
    pub fn chrome_trace(&self) -> String {
        let t0 = self
            .lanes
            .iter()
            .flat_map(|l| l.events.iter().map(|e| e.tsc))
            .min()
            .unwrap_or(0);
        let us = |tsc: u64| tsc.wrapping_sub(t0) as f64 * self.ns_per_tick / 1e3;

        let mut flat: Vec<(u32, &TraceEvent)> = Vec::with_capacity(self.total_events());
        for lane in &self.lanes {
            for ev in &lane.events {
                flat.push((lane.lane, ev));
            }
        }
        flat.sort_by(|a, b| a.1.tsc.cmp(&b.1.tsc).then(a.0.cmp(&b.0)));

        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_array_key("traceEvents");
        w.begin_object();
        w.string("name", "process_name")
            .string("ph", "M")
            .integer("pid", 1)
            .integer("tid", 0);
        w.begin_object_key("args");
        w.string("name", "wiforce");
        w.end_object();
        w.end_object();
        for lane in &self.lanes {
            w.begin_object();
            w.string("name", "thread_name")
                .string("ph", "M")
                .integer("pid", 1)
                .integer("tid", lane.lane as u64);
            w.begin_object_key("args");
            w.string("name", &lane.thread_name);
            w.end_object();
            w.end_object();
        }
        for (tid, ev) in &flat {
            w.begin_object();
            match ev.kind {
                EventKind::Begin => {
                    w.string("name", ev.name).string("ph", "B");
                }
                EventKind::End => {
                    w.string("name", ev.name).string("ph", "E");
                }
                EventKind::Instant => {
                    w.string("name", ev.name).string("ph", "i").string("s", "t");
                }
                EventKind::FlowStart => {
                    w.string("name", ev.name).string("ph", "s");
                    w.integer("id", ev.flow);
                }
                EventKind::FlowEnd => {
                    w.string("name", ev.name)
                        .string("ph", "f")
                        .string("bp", "e");
                    w.integer("id", ev.flow);
                }
                EventKind::Counter => {
                    // per-series counters get their own named track
                    if ev.flow != NO_ARG {
                        let series = format!("{}.{}", ev.name, ev.flow);
                        w.string("name", &series);
                    } else {
                        w.string("name", ev.name);
                    }
                    w.string("ph", "C");
                }
            }
            let cat = match ev.kind {
                EventKind::FlowStart | EventKind::FlowEnd => "flow",
                _ => "wiforce",
            };
            w.string("cat", cat)
                .number("ts", us(ev.tsc))
                .integer("pid", 1)
                .integer("tid", *tid as u64);
            match ev.kind {
                EventKind::Counter => {
                    w.begin_object_key("args");
                    w.integer("value", ev.arg);
                    w.end_object();
                }
                _ if ev.arg != NO_ARG => {
                    w.begin_object_key("args");
                    w.integer("id", ev.arg);
                    w.end_object();
                }
                _ => {}
            }
            w.end_object();
        }
        w.end_array();
        w.begin_object_key("otherData");
        w.integer("dropped_events", self.dropped);
        w.number("ns_per_tick", self.ns_per_tick);
        w.integer("lanes", self.lanes.len() as u64);
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Drains every registered lane's ring into a [`TraceSnapshot`]. Safe to
/// call while producers are still recording (they keep appending past the
/// drain point); call after the traced workload for a complete timeline.
pub fn collect() -> TraceSnapshot {
    let reg = registry().lock().expect("trace registry");
    let mut lanes = Vec::with_capacity(reg.len());
    let mut dropped = 0u64;
    for lane in reg.iter() {
        let mut events = Vec::new();
        lane.ring.drain(&mut events);
        dropped += lane.ring.dropped.load(Ordering::Relaxed);
        lanes.push(LaneEvents {
            lane: lane.lane,
            thread_name: lane.thread_name.clone(),
            events,
        });
    }
    TraceSnapshot {
        lanes,
        dropped,
        ns_per_tick: fastclock::ns_per_tick(),
    }
}

/// Discards all captured events and retires every lane. Threads
/// re-register (fresh rings, fresh lane ids) on their next event.
pub fn reset() {
    EPOCH.fetch_add(1, Ordering::Relaxed);
    registry().lock().expect("trace registry").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Serializes trace tests: they all mutate the global gate/registry.
    fn with_gate<T>(on: bool, f: impl FnOnce() -> T) -> T {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_trace_enabled(on);
        let out = f();
        set_trace_enabled(false);
        reset();
        out
    }

    fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
        with_gate(true, f)
    }

    #[test]
    fn disabled_records_nothing() {
        let snap = with_gate(false, || {
            instant("p", 3);
            flow_start("f", 1);
            let _s = span("y");
            collect()
        });
        assert_eq!(snap.total_events(), 0);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn events_round_trip_through_ring() {
        let snap = with_tracing(|| {
            {
                let _s = span_arg("outer", 7);
                instant("tick", 1);
            }
            flow_start("hand", 42);
            flow_end("hand", 42);
            counter_value("depth", 3, 0);
            collect()
        });
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.total_events(), 6);
        let events = &snap.lanes[0].events;
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].arg, 7);
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[2].kind, EventKind::End);
        assert_eq!(events[3].flow, 42);
        // timestamps are monotone within a lane
        assert!(events.windows(2).all(|w| w[0].tsc <= w[1].tsc));
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let snap = with_tracing(|| {
            let cap = ring_capacity();
            for i in 0..(cap as u64 + 10) {
                instant("spin", i);
            }
            collect()
        });
        assert_eq!(snap.dropped, 10);
        assert_eq!(snap.total_events(), ring_capacity());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let text = with_tracing(|| {
            let t = std::thread::Builder::new()
                .name("trace-worker".into())
                .spawn(|| {
                    let _s = span("work");
                    instant("inside", NO_ARG);
                })
                .unwrap();
            t.join().unwrap();
            let _s = span("main-side");
            collect().chrome_trace()
        });
        let v = json::parse(&text).expect("chrome trace parses");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 2 thread_name + 5 events
        assert!(events.len() >= 7, "got {}", events.len());
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"thread_name"));
        assert!(names.contains(&"work"));
        // ts is sorted over non-metadata events
        let ts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) != Some("M"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            v.get("otherData").unwrap().get("dropped_events"),
            Some(&json::Value::Num(0.0))
        );
    }

    #[test]
    fn reset_retires_lanes_and_reuses_thread() {
        with_tracing(|| {
            instant("a", 1);
            assert_eq!(collect().total_events(), 1);
            reset();
            // same thread must re-register into a fresh lane
            instant("b", 2);
            let snap = collect();
            assert_eq!(snap.total_events(), 1);
            assert_eq!(snap.lanes[0].events[0].name, "b");
            assert_eq!(snap.dropped, 0);
        });
    }
}
