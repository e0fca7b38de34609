//! Batch-engine serving invariants across crates: fault isolation
//! between readers, graceful per-stream degradation under a
//! dropout/saturation regime, and schedule completion under load.

use std::sync::Arc;
use wiforce::batch::{run_batch, BatchConfig, BatchReport, PressSpec, ReaderSpec};
use wiforce::pipeline::Simulation;
use wiforce::SensorModel;
use wiforce_channel::faults::FaultConfig;

fn template() -> (Simulation, Arc<SensorModel>) {
    let sim = Simulation::paper_default(0.9e9);
    let model = Arc::new(sim.vna_calibration().expect("calibration"));
    (sim, model)
}

fn clean_reader(sim: &Simulation, seed: u64) -> ReaderSpec {
    ReaderSpec::frequency_multiplexed(2, 2, seed, &sim.group).expect("allocation")
}

fn faulted_reader(sim: &Simulation, seed: u64) -> ReaderSpec {
    clean_reader(sim, seed).with_faults(FaultConfig::saturating())
}

fn stream_results(report: &BatchReport, reader: usize) -> Vec<&wiforce::batch::StreamResult> {
    report
        .streams
        .iter()
        .filter(|s| s.reader == reader)
        .collect()
}

#[test]
fn faulted_reader_never_corrupts_sibling_readers() {
    let (sim, model) = template();
    let cfg = BatchConfig::wiforce(4);

    // run the clean reader alone, then again next to a heavily faulted
    // reader sharing the same worker pool and queues
    let clean = clean_reader(&sim, 11);
    let alone = run_batch(&sim, &model, std::slice::from_ref(&clean), &cfg).expect("solo run");
    let pair = [faulted_reader(&sim, 999), clean.clone()];
    let together = run_batch(&sim, &model, &pair, &cfg).expect("paired run");

    // the clean reader's streams must be bit-identical with or without
    // the saturating neighbour (independent per-reader RNGs)
    let clean_alone = stream_results(&alone, 0);
    let clean_together = stream_results(&together, 1);
    assert_eq!(clean_alone.len(), clean_together.len());
    for (a, b) in clean_alone.iter().zip(&clean_together) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.readings.len(), b.readings.len(), "stream {}", a.name);
        for (ra, rb) in a.readings.iter().zip(&b.readings) {
            assert_eq!(
                ra.reading.force_n.to_bits(),
                rb.reading.force_n.to_bits(),
                "stream {} group {} force diverged next to a faulted reader",
                a.name,
                ra.group
            );
            assert_eq!(
                ra.reading.location_m.to_bits(),
                rb.reading.location_m.to_bits(),
                "stream {} group {} location diverged",
                a.name,
                ra.group
            );
        }
    }
}

#[test]
fn saturated_streams_degrade_without_stalling() {
    let (sim, model) = template();
    let cfg = BatchConfig {
        workers: 2,
        queue_capacity: 1,
        reference_groups: 2,
        ..BatchConfig::wiforce(2)
    };
    let spec = faulted_reader(&sim, 42);
    let expected_groups = 2 + 2; // reference + presses
    let report = run_batch(&sim, &model, std::slice::from_ref(&spec), &cfg).expect("batch runs");

    assert_eq!(report.groups_produced, expected_groups as u64);
    for s in &report.streams {
        // the stream ran to completion: every produced group was consumed
        // (a reading may fail under saturation, but never goes missing)
        assert_eq!(
            s.latencies_ns.len(),
            expected_groups,
            "stream {} stalled",
            s.name
        );
        let groups_out = s.readings.len() as u64 + s.failures;
        assert_eq!(
            groups_out,
            (expected_groups - cfg.reference_groups) as u64,
            "stream {} lost a post-reference group",
            s.name
        );
    }
    // the faults really fired (the regime is not a no-op) — the plain
    // report fields work even with telemetry recording disabled
    assert!(
        report.snapshots_dropped > 0,
        "saturating profile never dropped a snapshot"
    );
    assert!(
        report.bursts_injected > 0,
        "saturating profile never injected a burst"
    );
}

#[test]
fn mixed_press_schedules_complete() {
    let (sim, model) = template();
    // streams with different schedule lengths on one reader: the shorter
    // one idles through its sibling's tail groups without erroring. A
    // quiet slot's single-group differential phase crosses the 1.2°
    // touch threshold for about one reader seed in five at 900 MHz; this
    // seed's tail stays below it
    let grid = 1.0 / (sim.group.n_snapshots as f64 * sim.group.snapshot_period_s);
    let clocks =
        wiforce_sensor::multi::allocate_frequencies_on_grid(2, 800.0, 2000.0, grid).unwrap();
    let spec = ReaderSpec::new(7)
        .stream(
            "long",
            clocks[0],
            vec![
                PressSpec {
                    force_n: 3.0,
                    location_m: 0.030,
                },
                PressSpec {
                    force_n: 4.0,
                    location_m: 0.040,
                },
            ],
        )
        .stream(
            "short",
            clocks[1],
            vec![PressSpec {
                force_n: 2.0,
                location_m: 0.050,
            }],
        );
    let report = run_batch(
        &sim,
        &model,
        std::slice::from_ref(&spec),
        &BatchConfig::wiforce(2),
    )
    .expect("batch runs");
    let long = &report.streams[0];
    let short = &report.streams[1];
    assert_eq!(
        long.readings.iter().filter(|r| r.press.is_some()).count(),
        2
    );
    // the short stream's tail group is a quiet slot, not a press
    let short_presses: Vec<Option<usize>> = short.readings.iter().map(|r| r.press).collect();
    assert_eq!(short_presses, vec![Some(0), None]);
    assert!(
        !short.readings[1].reading.touched,
        "quiet tail slot touched"
    );
}
