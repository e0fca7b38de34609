//! Cross-crate observability contract: pipeline outputs are bit-identical
//! with the trace ring and metrics registry on or off, the Chrome trace
//! export is structurally valid, the Prometheus exposition carries the
//! per-stream series the batch engine is contracted to export, and
//! health windows stream out incrementally during a run.
//!
//! The trace/metrics gates are process globals, so every test that flips
//! them runs under one shared lock and restores the default (off) state
//! before releasing it.

use std::sync::{Arc, Mutex, OnceLock};
use wiforce::batch::{run_batch, run_batch_observed, BatchConfig, BatchReport, ReaderSpec};
use wiforce::pipeline::Simulation;
use wiforce::SensorModel;
use wiforce_channel::faults::FaultConfig;
use wiforce_telemetry::json::{parse, Value};
use wiforce_telemetry::{metrics, trace, AggregatorConfig, StreamWindow};

fn gate_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with exclusive ownership of the observability gates, all off
/// on entry and restored to off on exit.
fn with_gates<T>(f: impl FnOnce() -> T) -> T {
    let _guard = gate_lock().lock().unwrap_or_else(|e| e.into_inner());
    trace::set_trace_enabled(false);
    metrics::set_metrics_enabled(false);
    trace::reset();
    metrics::reset();
    let out = f();
    trace::set_trace_enabled(false);
    metrics::set_metrics_enabled(false);
    trace::reset();
    metrics::reset();
    out
}

fn template() -> (Simulation, Arc<SensorModel>) {
    let sim = Simulation::paper_default(0.9e9);
    let model = Arc::new(sim.vna_calibration().expect("calibration"));
    (sim, model)
}

fn readers(sim: &Simulation, n: usize) -> Vec<ReaderSpec> {
    (0..n)
        .map(|i| {
            ReaderSpec::frequency_multiplexed(2, 2, 40 + i as u64, &sim.group).expect("allocation")
        })
        .collect()
}

fn run(sim: &Simulation, model: &Arc<SensorModel>, specs: &[ReaderSpec]) -> BatchReport {
    run_batch(sim, model, specs, &BatchConfig::wiforce(4)).expect("batch runs")
}

#[test]
fn outputs_bit_identical_with_observability_on_and_off() {
    let (sim, model) = template();
    let specs = readers(&sim, 2);

    let (off, on) = with_gates(|| {
        let off = run(&sim, &model, &specs);
        trace::set_trace_enabled(true);
        metrics::set_metrics_enabled(true);
        let on = run(&sim, &model, &specs);
        (off, on)
    });

    assert_eq!(off.streams.len(), on.streams.len());
    for (a, b) in off.streams.iter().zip(&on.streams) {
        assert!(
            a.deterministic_eq(b),
            "stream {} diverged when tracing/metrics were enabled",
            a.name
        );
    }
    assert_eq!(off.groups_produced, on.groups_produced);
    assert_eq!(off.snapshots_dropped, on.snapshots_dropped);
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let (sim, model) = template();
    let specs = readers(&sim, 2);

    let (text, dropped) = with_gates(|| {
        trace::set_trace_enabled(true);
        run(&sim, &model, &specs);
        trace::set_trace_enabled(false);
        let snap = trace::collect();
        (snap.chrome_trace(), snap.dropped)
    });

    assert_eq!(dropped, 0, "trace ring overflowed during a small batch");
    let doc = parse(&text).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // every event has the Chrome trace-event shape; B/E balance per lane
    let mut depth: Vec<(u64, i64)> = Vec::new();
    let mut flows_started = 0usize;
    let mut flows_ended = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        assert!(
            ["M", "B", "E", "i", "s", "f", "C"].contains(&ph),
            "unknown phase {ph:?}"
        );
        let tid = ev.get("tid").and_then(Value::as_f64).expect("tid") as u64;
        if ph == "M" {
            continue;
        }
        assert!(
            ev.get("ts").and_then(Value::as_f64).is_some(),
            "timeline event without ts"
        );
        match ph {
            "B" | "E" => {
                let d = match depth.iter_mut().find(|(l, _)| *l == tid) {
                    Some((_, d)) => d,
                    None => {
                        depth.push((tid, 0));
                        &mut depth.last_mut().unwrap().1
                    }
                };
                *d += if ph == "B" { 1 } else { -1 };
                assert!(*d >= 0, "lane {tid} closed more spans than it opened");
            }
            "s" => flows_started += 1,
            "f" => flows_ended += 1,
            _ => {}
        }
    }
    for (lane, d) in &depth {
        assert_eq!(*d, 0, "lane {lane} left {d} span(s) open");
    }
    // the producer→consumer handoff arrows made it into the export, and
    // every consumed group's arrow binds to a produced one
    assert!(flows_started > 0, "no flow starts recorded");
    assert!(flows_ended > 0, "no flow ends recorded");
    assert!(flows_ended <= flows_started);

    let other = doc.get("otherData").expect("otherData");
    assert_eq!(
        other.get("dropped_events").and_then(Value::as_f64),
        Some(0.0)
    );
    assert!(other.get("ns_per_tick").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(other.get("lanes").and_then(Value::as_f64).unwrap() >= 1.0);
}

#[test]
fn metrics_export_carries_per_stream_series() {
    let (sim, model) = template();
    let specs = readers(&sim, 2);

    let (snap, report) = with_gates(|| {
        metrics::set_metrics_enabled(true);
        let report = run(&sim, &model, &specs);
        metrics::set_metrics_enabled(false);
        (metrics::snapshot(), report)
    });

    // one groups_consumed counter per stream — reader-labelled, so two
    // readers' identically-named streams stay distinct series
    for s in &report.streams {
        let reader = s.reader.to_string();
        let labels = [("reader", reader.as_str()), ("stream", s.name.as_str())];
        let consumed = snap
            .counter("batch.groups_consumed", &labels)
            .unwrap_or_else(|| panic!("no batch.groups_consumed series for r{reader}/{}", s.name));
        assert_eq!(consumed, s.latencies_ns.len() as u64, "{}", s.name);
    }
    assert_eq!(snap.counter("batch.runs", &[]), Some(1));

    let text = snap.prometheus();
    assert!(text.contains("# TYPE wiforce_batch_groups_consumed counter"));
    assert!(text.contains("stream=\""), "no per-stream labels:\n{text}");
    assert!(
        text.contains("# TYPE wiforce_batch_group_latency_ns summary"),
        "latency histogram missing:\n{text}"
    );
    assert!(text.contains("quantile=\"0.99\""));
    // every sample line is `name[{labels}] value` with a float value
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        assert!(
            value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
            "bad value in line {line:?}"
        );
    }
}

#[test]
fn health_windows_stream_during_the_run() {
    let (sim, model) = template();
    let specs = readers(&sim, 2);
    let seen: Mutex<Vec<StreamWindow>> = Mutex::new(Vec::new());
    let observer = |w: &StreamWindow| seen.lock().unwrap().push(w.clone());

    let report = with_gates(|| {
        run_batch_observed(
            &sim,
            &model,
            &specs,
            &BatchConfig::wiforce(4),
            Some(AggregatorConfig::default()),
            Some(&observer),
        )
        .expect("batch runs")
    });

    let windows = seen.into_inner().unwrap();
    assert!(!windows.is_empty(), "observer saw no windows");
    for w in &windows {
        assert!(w.samples > 0);
        assert!(w.p50_ns <= w.p95_ns && w.p95_ns <= w.p99_ns, "{w:?}");
        assert!(parse(&w.to_json()).is_ok(), "window JSON invalid");
    }

    // rollup covers every stream (keyed `r<reader>/<name>` so same-named
    // streams on different readers stay separate) and reconciles with
    // the raw results
    assert_eq!(report.health.len(), report.streams.len());
    for h in &report.health {
        let s = report
            .streams
            .iter()
            .find(|s| format!("r{}/{}", s.reader, s.name) == h.stream)
            .expect("health names a stream");
        assert_eq!(h.samples, s.latencies_ns.len() as u64, "{}", h.stream);
        assert!(h.p50_ns <= h.p99_ns);
        let windowed: u64 = windows
            .iter()
            .filter(|w| w.stream == h.stream)
            .map(|w| w.samples)
            .sum();
        assert_eq!(windowed, h.samples, "{} windows lost samples", h.stream);
    }
}

#[test]
fn batch_telemetry_says_which_time_domain_path_ran() {
    // a clean reader puts every time-domain row on the plane kernel; a
    // reader with snapshot drops puts none there. Either way the
    // per-group fault counters add up to the report's totals.
    let (mut sim, model) = template();
    sim.synth_spectral = Some(false);
    let counters = |faults: FaultConfig| {
        let spec = ReaderSpec::frequency_multiplexed(2, 2, 0x0B5E, &sim.group)
            .expect("allocation")
            .with_faults(faults);
        let report = with_gates(|| {
            wiforce_telemetry::set_enabled(true);
            let report = run_batch_observed(
                &sim,
                &model,
                std::slice::from_ref(&spec),
                &BatchConfig::wiforce(2),
                Some(AggregatorConfig::default()),
                None,
            )
            .expect("batch runs");
            wiforce_telemetry::set_enabled(false);
            wiforce_telemetry::reset();
            report
        });
        let get = |name: &str| {
            report
                .telemetry
                .counters
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("counter {name} missing"))
        };
        assert_eq!(get("faults.snapshots_dropped"), report.snapshots_dropped);
        assert_eq!(get("faults.bursts_injected"), report.bursts_injected);
        let total = get("pipeline.snapshots_total");
        assert_eq!(total, report.groups_produced * sim.group.n_snapshots as u64);
        (get("synth.plane_rows"), total, report)
    };

    let (plane_rows, total, clean) = counters(FaultConfig::none());
    assert_eq!(plane_rows, total);
    assert_eq!((clean.snapshots_dropped, clean.bursts_injected), (0, 0));

    let (plane_rows, _, faulted) = counters(FaultConfig {
        snapshot_drop_prob: 0.05,
        burst_prob: 0.02,
        burst_rel_amp: 0.1,
        ..FaultConfig::none()
    });
    assert_eq!(plane_rows, 0);
    assert!(faulted.snapshots_dropped > 0 && faulted.bursts_injected > 0);
}
