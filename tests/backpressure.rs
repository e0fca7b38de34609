//! Batch-engine backpressure accounting: stall counters under a
//! throttled consumer, the drop-newest loss accounting invariant
//! (`produced == consumed + dropped` per stream) at every worker count,
//! and zero-loss guarantees under the default stall policy.

use std::sync::Arc;
use std::time::Duration;
use wiforce::batch::{run_batch, BatchConfig, BatchReport, OverflowPolicy, ReaderSpec};
use wiforce::pipeline::Simulation;
use wiforce::SensorModel;

fn template() -> (Simulation, Arc<SensorModel>) {
    let sim = Simulation::paper_default(0.9e9);
    let model = Arc::new(sim.vna_calibration().expect("calibration"));
    (sim, model)
}

fn reader(sim: &Simulation, seed: u64) -> ReaderSpec {
    reader_pressing(sim, seed, 2)
}

fn reader_pressing(sim: &Simulation, seed: u64, presses: usize) -> ReaderSpec {
    ReaderSpec::frequency_multiplexed(2, presses, seed, &sim.group).expect("allocation")
}

fn throttled(workers: usize, overflow: OverflowPolicy) -> BatchConfig {
    BatchConfig {
        workers,
        queue_capacity: 1,
        overflow,
        consume_throttle: Some(Duration::from_millis(5)),
        ..BatchConfig::wiforce(workers)
    }
}

/// Groups each stream saw leave the queue (every consumed group logs one
/// latency sample, reference and press groups alike).
fn consumed(report: &BatchReport, stream: usize) -> u64 {
    report.streams[stream].latencies_ns.len() as u64
}

#[test]
fn stall_policy_counts_backpressure_and_loses_nothing() {
    let (sim, model) = template();
    let spec = reader_pressing(&sim, 7, 4);
    // the throttle must dominate group synthesis so the producer refills
    // the capacity-1 queues while both consumers are still busy on their
    // claimed streams — the spare workers then find nothing runnable and
    // the producer parks on the full queues (the transition counted)
    let cfg = BatchConfig {
        consume_throttle: Some(Duration::from_millis(40)),
        ..throttled(4, OverflowPolicy::Stall)
    };

    let report = run_batch(&sim, &model, std::slice::from_ref(&spec), &cfg).expect("batch runs");

    // capacity-1 queues plus a 40 ms consume throttle force the producer
    // to park; the stall transitions must be counted
    assert!(
        report.backpressure_events > 0,
        "no backpressure recorded under a throttled capacity-1 queue"
    );
    // ...but stalling never sheds load
    assert_eq!(report.groups_dropped, 0);
    for (i, s) in report.streams.iter().enumerate() {
        assert_eq!(s.groups_dropped, 0, "{} dropped under Stall", s.name);
        assert_eq!(
            consumed(&report, i),
            report.groups_produced,
            "{} lost groups without a drop counter",
            s.name
        );
    }
}

#[test]
fn drop_newest_accounting_invariant_holds_at_every_worker_count() {
    let (sim, model) = template();
    let spec = reader(&sim, 7);

    let mut dropped_somewhere = false;
    for workers in [1, 2, 4] {
        let cfg = throttled(workers, OverflowPolicy::DropNewest);
        let report =
            run_batch(&sim, &model, std::slice::from_ref(&spec), &cfg).expect("batch runs");

        let mut total_dropped = 0;
        for (i, s) in report.streams.iter().enumerate() {
            // every produced group either came out of the queue or was
            // counted dropped — no silent loss at any worker count
            assert_eq!(
                consumed(&report, i) + s.groups_dropped,
                report.groups_produced,
                "{} accounting broke at {workers} worker(s)",
                s.name
            );
            total_dropped += s.groups_dropped;
        }
        assert_eq!(report.groups_dropped, total_dropped);
        dropped_somewhere |= total_dropped > 0;
    }
    // with producers prioritised over a 5 ms/group consumer on a
    // capacity-1 queue, at least one configuration must actually shed
    assert!(
        dropped_somewhere,
        "drop-newest never dropped under sustained overload"
    );
}

#[test]
fn stall_results_are_worker_count_invariant_under_throttle() {
    let (sim, model) = template();
    let spec = reader(&sim, 7);

    let a = run_batch(
        &sim,
        &model,
        std::slice::from_ref(&spec),
        &throttled(1, OverflowPolicy::Stall),
    )
    .expect("batch runs");
    let b = run_batch(
        &sim,
        &model,
        std::slice::from_ref(&spec),
        &throttled(4, OverflowPolicy::Stall),
    )
    .expect("batch runs");

    for (sa, sb) in a.streams.iter().zip(&b.streams) {
        assert!(
            sa.deterministic_eq(sb),
            "stream {} diverged between 1 and 4 workers under backpressure",
            sa.name
        );
    }
}

#[test]
fn unthrottled_drop_newest_matches_stall_when_queues_keep_up() {
    let (sim, model) = template();
    let spec = reader(&sim, 7);
    // roomy queue, no throttle: the lossy policy has nothing to shed and
    // must degrade to the stall policy's exact results
    let base = BatchConfig::wiforce(2);
    let lossy = BatchConfig {
        overflow: OverflowPolicy::DropNewest,
        ..BatchConfig::wiforce(2)
    };

    let a = run_batch(&sim, &model, std::slice::from_ref(&spec), &base).expect("batch runs");
    let b = run_batch(&sim, &model, std::slice::from_ref(&spec), &lossy).expect("batch runs");

    assert_eq!(b.groups_dropped, 0, "dropped despite ample queue capacity");
    for (sa, sb) in a.streams.iter().zip(&b.streams) {
        assert!(sa.deterministic_eq(sb), "stream {} diverged", sa.name);
    }
}
