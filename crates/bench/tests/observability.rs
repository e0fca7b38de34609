//! End-to-end checks of the exported observability artifacts: a traced
//! batch run's Chrome trace and a recorded batch run's Prometheus view
//! must pass the same validators `check_artifacts` applies to CI's
//! `wiforce-cli serve --trace/--metrics` outputs.
//!
//! The recorder and trace gates are process globals, so both tests run
//! under one shared lock and leave them off.

use std::sync::{Arc, Mutex};
use wiforce::batch::{run_batch, BatchConfig, BatchReport, ReaderSpec};
use wiforce::pipeline::Simulation;
use wiforce::SensorModel;
use wiforce_bench::observability::{validate_chrome_trace, validate_prometheus};
use wiforce_channel::faults::FaultConfig;
use wiforce_telemetry::json::{parse, Value};
use wiforce_telemetry::trace;

static GATES: Mutex<()> = Mutex::new(());

/// Two readers carrying identically named streams (`s0`, `s1`), with
/// snapshot drops so the fault counters are non-zero.
fn run_two_readers(cfg: &BatchConfig) -> BatchReport {
    let sim = Simulation::paper_default(0.9e9);
    let model: Arc<SensorModel> = Arc::new(sim.vna_calibration().expect("calibration"));
    let faults = FaultConfig {
        snapshot_drop_prob: 0.05,
        ..FaultConfig::none()
    };
    let specs: Vec<ReaderSpec> = (0..2)
        .map(|i| {
            ReaderSpec::frequency_multiplexed(2, 2, 40 + i, &sim.group)
                .expect("allocation")
                .with_faults(faults)
        })
        .collect();
    run_batch(&sim, &model, &specs, cfg).expect("batch runs")
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let text = {
        let _gates = GATES.lock().unwrap_or_else(|e| e.into_inner());
        trace::reset();
        trace::set_trace_enabled(true);
        run_two_readers(&BatchConfig::wiforce(4));
        trace::set_trace_enabled(false);
        let text = trace::collect().chrome_trace();
        trace::reset();
        text
    };
    let doc = parse(&text).expect("chrome trace parses as JSON");
    assert_eq!(validate_chrome_trace(&doc), Vec::<String>::new());
    // the producer→consumer handoff arrows made it into the export (the
    // validator binds every flow end to a start)
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Value::as_str) == Some("f")));
}

#[test]
fn metrics_export_carries_per_stream_series() {
    let cfg = BatchConfig::wiforce(4);
    let (report, snap) = {
        let _gates = GATES.lock().unwrap_or_else(|e| e.into_inner());
        wiforce_telemetry::reset();
        wiforce_telemetry::set_enabled(true);
        let report = run_two_readers(&cfg);
        wiforce_telemetry::set_enabled(false);
        (report, wiforce_telemetry::take())
    };
    let metrics = report.metrics(&snap);

    // one series per {reader, stream}: the two readers' identically
    // named streams stay distinct
    let consumed: Vec<_> = metrics
        .counters
        .keys()
        .filter(|k| k.name == "batch.groups_consumed")
        .collect();
    assert_eq!(consumed.len(), report.streams.len());
    for s in &report.streams {
        let reader = s.reader.to_string();
        let labels = [("reader", reader.as_str()), ("stream", s.name.as_str())];
        assert_eq!(
            metrics.counter("batch.groups_consumed", &labels),
            Some(s.latencies_ns.len() as u64),
            "r{reader}/{}",
            s.name
        );
        let peak = metrics
            .gauge("batch.queue_peak", &labels)
            .expect("queue peak series");
        assert!(
            peak <= cfg.queue_capacity as f64,
            "r{reader}/{} peak {peak}",
            s.name
        );
    }

    let text = metrics.prometheus();
    assert_eq!(validate_prometheus(&text), Vec::<String>::new());
    assert!(
        report.snapshots_dropped > 0,
        "fault injection dropped nothing"
    );
    let dropped = text
        .lines()
        .find_map(|l| l.strip_prefix("wiforce_faults_snapshots_dropped "))
        .expect("snapshots-dropped series");
    assert_eq!(dropped.parse::<u64>(), Ok(report.snapshots_dropped));
}
