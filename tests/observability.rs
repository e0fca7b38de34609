//! Cross-crate observability contract: pipeline outputs are bit-identical
//! with the recorder and trace ring on or off, health windows stream out
//! incrementally during a run, and the batch telemetry says which
//! time-domain path ran. The exported artifacts (Chrome trace,
//! Prometheus text) are validated in `crates/bench/tests/observability.rs`.
//!
//! The recorder and trace gates are process globals, so every test that
//! flips them runs under one shared lock and restores the default (off)
//! state before releasing it.

use std::sync::{Arc, Mutex, OnceLock};
use wiforce::batch::{run_batch, run_batch_observed, BatchConfig, BatchReport, ReaderSpec};
use wiforce::pipeline::Simulation;
use wiforce::SensorModel;
use wiforce_channel::faults::FaultConfig;
use wiforce_telemetry::json::parse;
use wiforce_telemetry::{trace, AggregatorConfig, StreamWindow};

fn gate_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with exclusive ownership of the observability gates, all off
/// on entry and restored to off on exit.
fn with_gates<T>(f: impl FnOnce() -> T) -> T {
    let _guard = gate_lock().lock().unwrap_or_else(|e| e.into_inner());
    let all_off = || {
        trace::set_trace_enabled(false);
        wiforce_telemetry::set_enabled(false);
        trace::reset();
        wiforce_telemetry::reset();
    };
    all_off();
    let out = f();
    all_off();
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
        wiforce_telemetry::set_enabled(true);
        let on = run(&sim, &model, &specs);
        (off, on)
    });

    assert_eq!(off.streams.len(), on.streams.len());
    for (a, b) in off.streams.iter().zip(&on.streams) {
        assert!(
            a.deterministic_eq(b),
            "stream {} diverged when the recorder and trace ring were enabled",
            a.name
        );
    }
    assert_eq!(off.groups_produced, on.groups_produced);
    assert_eq!(off.snapshots_dropped, on.snapshots_dropped);
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
    // every time-domain group counts its sounded rows, clean or under
    // snapshot-drop and burst faults, and the per-group fault counters
    // add up to the report's totals.
    let (mut sim, model) = template();
    sim.synth_spectral = Some(false);
    let counters = |faults: FaultConfig| {
        let spec = ReaderSpec::frequency_multiplexed(2, 2, 0x0B5E, &sim.group)
            .expect("allocation")
            .with_faults(faults);
        let report = with_gates(|| {
            wiforce_telemetry::set_enabled(true);
            run_batch_observed(
                &sim,
                &model,
                std::slice::from_ref(&spec),
                &BatchConfig::wiforce(2),
                Some(AggregatorConfig::default()),
                None,
            )
            .expect("batch runs")
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
        report
    };

    let clean = counters(FaultConfig::none());
    assert_eq!((clean.snapshots_dropped, clean.bursts_injected), (0, 0));

    let faulted = counters(FaultConfig {
        snapshot_drop_prob: 0.05,
        burst_prob: 0.02,
        burst_rel_amp: 0.1,
        ..FaultConfig::none()
    });
    assert!(faulted.snapshots_dropped > 0 && faulted.bursts_injected > 0);
}
