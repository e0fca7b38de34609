//! Manual micro-benchmark decomposing the per-snapshot cost of
//! `run_snapshots_into` (run with `--ignored --nocapture`). Companion to
//! `crates/reader/tests/microprof.rs`, which decomposes the sounder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wiforce::pipeline::{PressNoise, Simulation, TagClock};
use wiforce_dsp::SnapshotMatrix;

#[test]
#[ignore = "manual micro-benchmark of the snapshot hot loop"]
fn microprof_pipeline() {
    let sim = Simulation::paper_default(2.4e9);
    let mut rng = StdRng::seed_from_u64(7);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);
    let mut out = SnapshotMatrix::default();
    sim.run_snapshots_into(None, 1, &mut clock, &mut noise, &mut out);

    let groups = 20;
    let t = Instant::now();
    for _ in 0..groups {
        out.clear();
        sim.run_snapshots_into(None, 1, &mut clock, &mut noise, &mut out);
    }
    let per_group = t.elapsed().as_secs_f64() / groups as f64;
    println!(
        "run_snapshots_into: {:.0} us/group, {:.2} us/snapshot",
        per_group * 1e6,
        per_group * 1e6 / sim.group.n_snapshots as f64
    );

    // the tag-state walk alone: the edge-driven runs synthesis takes
    // over whole phase groups
    let walked = 400;
    let n = sim.group.n_snapshots;
    let t_snap = sim.group.snapshot_period_s;
    let mut acc = 0usize;
    let t = Instant::now();
    for g in 0..walked {
        let t0 = 0.5e-3 + (g * n) as f64 * t_snap;
        for (state, len) in sim.tag.clocks.runs(t0, t_snap, 0..n) {
            acc += state * len;
        }
    }
    println!(
        "state walk: {:.4} us/snapshot (acc {acc})",
        t.elapsed().as_secs_f64() / (walked * n) as f64 * 1e6
    );

    // frontend alone
    let mut row: Vec<wiforce_dsp::Complex> = (0..64)
        .map(|k| wiforce_dsp::Complex::from_polar(1e-4, 0.1 * k as f64))
        .collect();
    let iters = 50_000;
    let t = Instant::now();
    for _ in 0..iters {
        sim.frontend.process(&mut rng, &mut row, 2e-4);
    }
    println!(
        "frontend.process: {:.3} us/snapshot",
        t.elapsed().as_secs_f64() / iters as f64 * 1e6
    );
}
