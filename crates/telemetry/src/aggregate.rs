//! Rolling per-stream health aggregation with SLO-style degradation
//! flags.
//!
//! [`crate::PipelineHealth`] summarizes a run *after* it finishes; a
//! serving engine needs the same signal *while* it runs. The
//! [`HealthAggregator`] folds per-group samples (consume latency, queue
//! occupancy, failures) into fixed-size windows per stream; when a
//! window closes it emits a [`StreamWindow`] with bucket-accurate
//! p50/p95/p99 latency and [`DegradationFlags`] — queue saturation and
//! worker starvation (median latency past the starvation bound, i.e.
//! groups sat queued because no worker picked them up). The batch engine forwards those
//! windows to an observer callback incrementally; the CLI `serve`
//! command prints them as they close.
//!
//! Window *counts* and sample totals are deterministic functions of the
//! workload; latency percentiles and latency-derived flags are
//! wall-clock measurements and naturally vary run to run (the same
//! split as [`crate::TelemetrySnapshot::deterministic_eq`]).

use crate::json::JsonWriter;
use crate::Histogram;
use std::collections::BTreeMap;

/// Aggregation policy: window size and SLO thresholds.
#[derive(Debug, Clone, Copy)]
pub struct AggregatorConfig {
    /// Samples (consumed groups) per window; a window closes and emits
    /// after this many `record` calls on a stream. Clamped to ≥ 1.
    pub window: usize,
    /// Queue occupancy (fraction of capacity) at or above which a window
    /// counts as saturated.
    pub queue_saturation: f64,
    /// Worker-starvation bound, ns: a window whose median consume
    /// latency exceeds this flags `worker_starved`.
    pub starvation_latency_ns: f64,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            window: 4,
            queue_saturation: 0.75,
            starvation_latency_ns: 250e6,
        }
    }
}

/// One per-group sample a stream's consumer feeds the aggregator.
#[derive(Debug, Clone, Copy)]
pub struct WindowSample {
    /// Produce→consume latency of the group, ns.
    pub latency_ns: f64,
    /// Queue occupancy observed when the group was drained, in `[0, 1]`.
    pub queue_occupancy: f64,
    /// `true` when the group's estimate failed.
    pub failed: bool,
}

/// Degradation verdict of one window (or the OR across windows in
/// [`StreamHealth`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationFlags {
    /// Peak queue occupancy reached [`AggregatorConfig::queue_saturation`].
    pub queue_saturated: bool,
    /// Median consume latency exceeded
    /// [`AggregatorConfig::starvation_latency_ns`].
    pub worker_starved: bool,
}

impl DegradationFlags {
    /// `true` when any flag is raised.
    pub fn any(self) -> bool {
        self.queue_saturated || self.worker_starved
    }

    fn or(self, other: DegradationFlags) -> DegradationFlags {
        DegradationFlags {
            queue_saturated: self.queue_saturated || other.queue_saturated,
            worker_starved: self.worker_starved || other.worker_starved,
        }
    }
}

/// One closed window of one stream.
#[derive(Debug, Clone)]
pub struct StreamWindow {
    /// Stream name.
    pub stream: String,
    /// 0-based window index on this stream.
    pub window: u64,
    /// Samples in the window (== config window, except a final flush).
    pub samples: u64,
    /// Median consume latency, ns (bucket resolution).
    pub p50_ns: f64,
    /// 95th-percentile consume latency, ns.
    pub p95_ns: f64,
    /// 99th-percentile consume latency, ns.
    pub p99_ns: f64,
    /// Peak queue occupancy in the window.
    pub peak_occupancy: f64,
    /// Failed estimates in the window.
    pub failures: u64,
    /// The window's verdict.
    pub flags: DegradationFlags,
}

impl StreamWindow {
    /// Single-line JSON rendering for incremental emission during a run.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("stream", &self.stream)
            .integer("window", self.window)
            .integer("samples", self.samples)
            .number("p50_ns", self.p50_ns)
            .number("p95_ns", self.p95_ns)
            .number("p99_ns", self.p99_ns)
            .number("peak_occupancy", self.peak_occupancy)
            .integer("failures", self.failures)
            .boolean("queue_saturated", self.flags.queue_saturated)
            .boolean("worker_starved", self.flags.worker_starved);
        w.end_object();
        w.finish().replace('\n', "").replace("  ", " ")
    }
}

/// Rolling summary of one stream across every window so far.
#[derive(Debug, Clone)]
pub struct StreamHealth {
    /// Stream name.
    pub stream: String,
    /// Windows closed.
    pub windows: u64,
    /// Total samples recorded.
    pub samples: u64,
    /// Rolling median latency, ns.
    pub p50_ns: f64,
    /// Rolling 95th-percentile latency, ns.
    pub p95_ns: f64,
    /// Rolling 99th-percentile latency, ns.
    pub p99_ns: f64,
    /// Windows that closed with any flag raised.
    pub degraded_windows: u64,
    /// OR of every closed window's flags.
    pub flags: DegradationFlags,
    /// Total failed estimates.
    pub failures: u64,
}

#[derive(Debug, Default)]
struct StreamState {
    window_hist: Histogram,
    rolling_hist: Histogram,
    win_peak_occupancy: f64,
    win_failures: u64,
    win_samples: u64,
    windows_closed: u64,
    degraded_windows: u64,
    flags_any: DegradationFlags,
    failures_total: u64,
    samples_total: u64,
}

/// Folds per-group samples into per-stream windows; see the module docs.
#[derive(Debug)]
pub struct HealthAggregator {
    cfg: AggregatorConfig,
    streams: BTreeMap<String, StreamState>,
}

impl Default for HealthAggregator {
    fn default() -> Self {
        HealthAggregator::new(AggregatorConfig::default())
    }
}

impl HealthAggregator {
    /// An aggregator with the given policy.
    pub fn new(mut cfg: AggregatorConfig) -> Self {
        cfg.window = cfg.window.max(1);
        HealthAggregator {
            cfg,
            streams: BTreeMap::new(),
        }
    }

    /// The active policy.
    pub fn config(&self) -> &AggregatorConfig {
        &self.cfg
    }

    /// Feeds one sample; returns the closed [`StreamWindow`] when this
    /// sample completes the stream's current window.
    pub fn record(&mut self, stream: &str, s: WindowSample) -> Option<StreamWindow> {
        let window = self.cfg.window;
        let state = self.streams.entry(stream.to_string()).or_default();
        state.window_hist.record(s.latency_ns);
        state.win_peak_occupancy = state.win_peak_occupancy.max(s.queue_occupancy);
        state.win_failures += u64::from(s.failed);
        state.win_samples += 1;
        state.samples_total += 1;
        state.failures_total += u64::from(s.failed);
        if state.win_samples as usize >= window {
            return Some(Self::close_window(&self.cfg, stream, state));
        }
        None
    }

    /// Closes a stream's partial window, if it has samples.
    pub fn flush(&mut self, stream: &str) -> Option<StreamWindow> {
        let state = self.streams.get_mut(stream)?;
        (state.win_samples > 0).then(|| Self::close_window(&self.cfg, stream, state))
    }

    /// Closes every stream's partial window, in stream-name order.
    pub fn flush_all(&mut self) -> Vec<StreamWindow> {
        let names: Vec<String> = self.streams.keys().cloned().collect();
        names.iter().filter_map(|n| self.flush(n)).collect()
    }

    fn close_window(cfg: &AggregatorConfig, stream: &str, state: &mut StreamState) -> StreamWindow {
        let h = &state.window_hist;
        let flags = DegradationFlags {
            queue_saturated: state.win_peak_occupancy >= cfg.queue_saturation,
            worker_starved: h.quantile(0.50) > cfg.starvation_latency_ns,
        };
        let out = StreamWindow {
            stream: stream.to_string(),
            window: state.windows_closed,
            samples: state.win_samples,
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
            peak_occupancy: state.win_peak_occupancy,
            failures: state.win_failures,
            flags,
        };
        state.rolling_hist.merge_from(h);
        state.windows_closed += 1;
        state.degraded_windows += u64::from(flags.any());
        state.flags_any = state.flags_any.or(flags);
        state.window_hist = Histogram::default();
        state.win_peak_occupancy = 0.0;
        state.win_failures = 0;
        state.win_samples = 0;
        out
    }

    /// Rolling per-stream summaries, sorted by stream name. Partial
    /// windows contribute only after a [`Self::flush`].
    pub fn health(&self) -> Vec<StreamHealth> {
        self.streams
            .iter()
            .map(|(name, s)| StreamHealth {
                stream: name.clone(),
                windows: s.windows_closed,
                samples: s.samples_total,
                p50_ns: s.rolling_hist.quantile(0.50),
                p95_ns: s.rolling_hist.quantile(0.95),
                p99_ns: s.rolling_hist.quantile(0.99),
                degraded_windows: s.degraded_windows,
                flags: s.flags_any,
                failures: s.failures_total,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample(latency_ns: f64, occ: f64) -> WindowSample {
        WindowSample {
            latency_ns,
            queue_occupancy: occ,
            failed: false,
        }
    }

    #[test]
    fn windows_close_on_schedule() {
        let mut agg = HealthAggregator::new(AggregatorConfig {
            window: 3,
            ..AggregatorConfig::default()
        });
        assert!(agg.record("s0", sample(1000.0, 0.1)).is_none());
        assert!(agg.record("s0", sample(2000.0, 0.2)).is_none());
        let w = agg.record("s0", sample(4000.0, 0.3)).expect("closes");
        assert_eq!(w.window, 0);
        assert_eq!(w.samples, 3);
        assert!(w.p50_ns >= 1000.0 && w.p50_ns <= 4000.0, "{}", w.p50_ns);
        assert!((w.peak_occupancy - 0.3).abs() < 1e-12);
        assert!(!w.flags.any());
        // second window gets index 1
        for _ in 0..2 {
            assert!(agg.record("s0", sample(1000.0, 0.1)).is_none());
        }
        let w2 = agg.record("s0", sample(1000.0, 0.1)).unwrap();
        assert_eq!(w2.window, 1);
    }

    #[test]
    fn saturation_and_starvation_flags() {
        let cfg = AggregatorConfig {
            window: 2,
            queue_saturation: 0.75,
            starvation_latency_ns: 1e6,
        };
        let mut agg = HealthAggregator::new(cfg);
        agg.record("s", sample(5e6, 0.5));
        let w = agg.record("s", sample(5e6, 0.8)).unwrap();
        assert!(w.flags.queue_saturated);
        assert!(w.flags.worker_starved);
        assert!(w.flags.any());
    }

    #[test]
    fn failed_samples_count_per_window() {
        let mut agg = HealthAggregator::new(AggregatorConfig {
            window: 2,
            ..AggregatorConfig::default()
        });
        let failed = WindowSample {
            failed: true,
            ..sample(1.0, 0.0)
        };
        assert!(agg.record("s", failed).is_none());
        let w = agg.record("s", sample(1.0, 0.0)).unwrap();
        assert_eq!(w.failures, 1);
        assert!(!w.flags.any());
        assert_eq!(agg.health()[0].failures, 1);
    }

    #[test]
    fn flush_closes_partial_windows_and_health_rolls_up() {
        let mut agg = HealthAggregator::new(AggregatorConfig {
            window: 4,
            ..AggregatorConfig::default()
        });
        for _ in 0..4 {
            agg.record("a", sample(1000.0, 0.1));
        }
        agg.record("b", sample(2000.0, 0.2));
        assert!(agg.flush("a").is_none(), "a has no partial window");
        let wb = agg.flush("b").expect("b has a partial window");
        assert_eq!(wb.samples, 1);
        assert!(agg.flush_all().is_empty(), "everything already flushed");

        let health = agg.health();
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].stream, "a");
        assert_eq!(health[0].windows, 1);
        assert_eq!(health[0].samples, 4);
        assert_eq!(health[1].stream, "b");
        assert_eq!(health[1].samples, 1);
    }

    #[test]
    fn window_json_is_single_line_and_parses() {
        let mut agg = HealthAggregator::new(AggregatorConfig {
            window: 1,
            ..AggregatorConfig::default()
        });
        let w = agg.record("s0", sample(1500.0, 0.25)).unwrap();
        let line = w.to_json();
        assert!(!line.contains('\n'), "{line}");
        let v = json::parse(&line).expect("window JSON parses");
        assert_eq!(v.get("stream").unwrap().as_str(), Some("s0"));
        assert_eq!(v.get("samples").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("queue_saturated"), Some(&json::Value::Bool(false)));
    }
}
