//! End-to-end checks of the exported observability artifacts: the Chrome
//! traces of a batch run and of time-domain presses on the synthesis
//! pool, and a recorded batch run's Prometheus view, must pass the same
//! validators `check_artifacts` applies to CI's
//! `wiforce-cli serve --trace/--metrics` outputs.
//!
//! The recorder and trace gates are process globals, so the tests run
//! under one shared lock and leave them off.

use rand::rngs::StdRng;
use rand::SeedableRng;
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
fn traced_time_domain_press_spans_the_synthesis_pool() {
    let mut sim = Simulation::paper_default(2.4e9);
    sim.synth_spectral = Some(false);
    sim.synth_workers = Some(4);
    let model = sim.vna_calibration().expect("calibration");
    let (text, dropped) = {
        let _gates = GATES.lock().unwrap_or_else(|e| e.into_inner());
        trace::reset();
        trace::set_trace_enabled(true);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2 {
            sim.measure_press(&model, 4.0, 0.040, &mut rng)
                .expect("press runs");
        }
        trace::set_trace_enabled(false);
        let snap = trace::collect();
        trace::reset();
        (snap.chrome_trace(), snap.dropped)
    };
    assert_eq!(dropped, 0);
    let doc = parse(&text).expect("chrome trace parses as JSON");
    assert_eq!(validate_chrome_trace(&doc), Vec::<String>::new());

    // the workers' own spans land on their lanes, and every handoff arrow
    // ends inside a slice of the lane that extracts the group
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let mut sounder_lanes = Vec::new();
    let mut depth: Vec<(u64, i64)> = Vec::new();
    let (mut starts, mut ends) = (0, 0);
    for ev in events {
        let field = |k: &str| ev.get(k).and_then(Value::as_str);
        let (Some(name), Some(ph)) = (field("name"), field("ph")) else {
            continue;
        };
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap() as u64;
        let lane_depth = match depth.iter().position(|&(l, _)| l == tid) {
            Some(i) => &mut depth[i].1,
            None => {
                depth.push((tid, 0));
                &mut depth.last_mut().unwrap().1
            }
        };
        match (ph, name) {
            ("B", _) => {
                *lane_depth += 1;
                if name == "pipeline.sounder" && !sounder_lanes.contains(&tid) {
                    sounder_lanes.push(tid);
                }
            }
            ("E", _) => *lane_depth -= 1,
            ("s", "synth.handoff") => starts += 1,
            ("f", "synth.handoff") => {
                ends += 1;
                assert!(*lane_depth > 0, "unbound synth.handoff end on lane {tid}");
            }
            _ => {}
        }
    }
    assert!(
        sounder_lanes.len() >= 2,
        "sounder slices on {sounder_lanes:?}"
    );
    assert!(
        ends > 0 && ends == starts,
        "{starts} handoff starts, {ends} ends"
    );
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
