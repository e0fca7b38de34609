//! The health report of the `wiforce-cli health` workload (one press plus
//! the streaming estimator and the sample-level receiver) may not depend
//! on the synthesis worker count: on each synthesis arm, the reports
//! built at 1 and 8 workers agree on every field that is not timing. In
//! a test binary of its own, so no other test shares the telemetry
//! recorder.

use wiforce::estimator::health_run;
use wiforce::pipeline::Simulation;
use wiforce_bench::regression::diff_ignoring_timing;
use wiforce_telemetry::json::{parse, Value};

/// The health command's defaults: 2.4 GHz, 4 N at 40 mm, seed 11.
fn report(spectral: bool, workers: usize) -> Value {
    let mut sim = Simulation::paper_default(2.4e9);
    sim.synth_spectral = Some(spectral);
    sim.synth_workers = Some(workers);
    let model = sim.vna_calibration().expect("calibration");
    let health = health_run(&sim, model, 4.0, 0.040, 11).expect("health workload runs");
    parse(&health.to_json()).expect("health report parses")
}

#[test]
fn health_report_is_worker_count_invariant_on_each_arm() {
    for spectral in [false, true] {
        let one = report(spectral, 1);
        let stages = one.get("stages").and_then(Value::as_array).map(<[_]>::len);
        assert!(stages > Some(10), "spectral {spectral}: {stages:?} stages");
        let diffs = diff_ignoring_timing(&one, &report(spectral, 8));
        assert!(diffs.is_empty(), "spectral {spectral}: {diffs:?}");
    }
}
