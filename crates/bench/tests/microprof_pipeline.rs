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

    // modulation alone (clock advance is a couple of flops)
    let iters = 200_000;
    let t_snap = sim.group.snapshot_period_s;
    let mut acc = 0usize;
    let mut t_tag = 0.0;
    let t = Instant::now();
    for _ in 0..iters {
        t_tag += t_snap;
        let on1 = sim.tag.clocks.modulation1(t_tag);
        let on2 = sim.tag.clocks.modulation2(t_tag);
        acc += on1 as usize | ((on2 as usize) << 1);
    }
    println!(
        "modulation: {:.3} us/snapshot (acc {acc})",
        t.elapsed().as_secs_f64() / iters as f64 * 1e6
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
