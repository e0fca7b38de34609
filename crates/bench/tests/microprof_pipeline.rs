//! Manual micro-benchmark decomposing the time-domain press's per-snapshot
//! block steps (law draw, front end, line fold) and per-group finish, the
//! spectral press's per-group state walk, sums and per-line draws and
//! finisher, and the batch producer's per-group window-weight walk (run
//! with `--ignored --nocapture`). Companion to
//! `crates/reader/tests/microprof.rs`, which decomposes the sounder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wiforce::harmonics::{finish_group, fold_block, PrefixPhasors};
use wiforce::pipeline::{state_sums, Simulation, CHUNK_ROWS};
use wiforce_channel::cache::ChannelCache;
use wiforce_dsp::kernels::{philox_complex_normals, spectral_line, LineTerms};
use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::{Complex, SnapshotView};
use wiforce_reader::sounder::sound_rows;
use wiforce_reader::ChannelSounder;
use wiforce_sensor::clock::WindowWalker;
use wiforce_sensor::multi::allocate_frequencies_on_grid;
use wiforce_sensor::ClockPair;

#[test]
#[ignore = "manual micro-benchmark of the snapshot hot loop"]
fn microprof_pipeline() {
    let sim = Simulation::paper_default(2.4e9);
    let mut rng = StdRng::seed_from_u64(7);
    let n = sim.group.n_snapshots;
    let t_snap = sim.group.snapshot_period_s;

    // the time-domain press's steps over whole phase groups of a static
    // channel, block by block as its workers take them: the estimate-law
    // draw, the front end and the line fold per snapshot, then the finish
    // per group
    let cache = ChannelCache::build(&sim.scene, &sim.subcarrier_freqs_hz());
    let width = cache.statics.len();
    let tables: Vec<PrefixPhasors> = sim
        .group
        .fold_bins()
        .map(|f| PrefixPhasors::new(f, t_snap, n))
        .collect();
    let bins: Vec<&PrefixPhasors> = tables.iter().collect();
    let stride = (1 + bins.len()) * width;
    let mut partials = vec![Complex::ZERO; n.div_ceil(CHUNK_ROWS) * stride];
    let mut block = vec![Complex::ZERO; CHUNK_ROWS * width];
    let groups = 20;
    let mut us = [0.0; 4];
    let mut lap = |step: usize, t: Instant| us[step] += t.elapsed().as_secs_f64() * 1e6;
    for g in 0..groups {
        for (j, slab) in partials.chunks_exact_mut(stride).enumerate() {
            let s0 = j * CHUNK_ROWS;
            let out = &mut block[..CHUNK_ROWS.min(n - s0) * width];
            let mut cursors: Vec<CounterRng> = (s0..s0 + out.len() / width)
                .map(|s| CounterRng::for_snapshot(7, g, s as u32))
                .collect();
            let t = Instant::now();
            let noise = sim.frontend.noise_floor;
            sound_rows(&sim.sounder, |_| &cache.statics, noise, &mut cursors, out);
            lap(0, t);
            let t = Instant::now();
            for (cursor, row) in cursors.iter_mut().zip(out.chunks_exact_mut(width)) {
                sim.frontend.process(cursor, row, cache.full_scale);
            }
            lap(1, t);
            let t = Instant::now();
            fold_block(SnapshotView::from_flat(width, out), s0, &bins, slab);
            lap(2, t);
        }
        let t = Instant::now();
        std::hint::black_box(finish_group(&sim.group, None, &bins, &partials, width, 0.0));
        lap(3, t);
    }
    let per_snap = |x: f64| x / (groups as usize * n) as f64;
    println!(
        "time-domain group: law draw {:.3}, front end {:.3}, fold {:.3} us/snapshot; \
         finish {:.1} us/group",
        per_snap(us[0]),
        per_snap(us[1]),
        per_snap(us[2]),
        us[3] / groups as f64
    );

    // the tag-state walk alone over whole phase groups, and the spectral
    // arm's per-state sum on top of it over the two tag lines' prefix
    // tables
    let walked = 4000;
    let per_group = |t: Instant| t.elapsed().as_secs_f64() / walked as f64 * 1e6;
    let mut acc = 0usize;
    let t = Instant::now();
    for g in 0..walked {
        let t0 = 0.5e-3 + (g * n) as f64 * t_snap;
        for (state, len) in sim.tag.clocks.runs(t0, t_snap, 0..n) {
            acc += state * len;
        }
    }
    println!("state walk, runs: {:.3} us/group (acc {acc})", per_group(t));
    let tables = [sim.group.line1_hz, sim.group.line2_hz].map(|f| PrefixPhasors::new(f, t_snap, n));
    let lines = [&tables[0], &tables[1]];
    let mut acc = 0u64;
    let t = Instant::now();
    for g in 0..walked {
        let t0 = 0.5e-3 + (g * n) as f64 * t_snap;
        acc += state_sums(&sim.tag.clocks, t0, t_snap, &lines).counts[1];
    }
    println!(
        "state sums, 2 lines: {:.3} us/group (acc {acc})",
        per_group(t)
    );

    // the line finisher, per consumed line on the press grid: the line's
    // k_sub + 1 complex normals (the last one the common-mode jitter),
    // then the per-subcarrier finisher kernel
    let k_sub = sim.subcarrier_freqs_hz().len();
    let finished = 20_000;
    let per_line = |t: Instant| t.elapsed().as_secs_f64() / finished as f64 * 1e6;
    let mut normals = vec![Complex::ZERO; k_sub + 1];
    let t = Instant::now();
    for i in 0..finished {
        philox_complex_normals([7, 11], [i as u32, 0, 0], 0, &mut normals);
        std::hint::black_box(&mut normals);
    }
    println!(
        "line draws, {} normals: {:.3} us/line",
        k_sub + 1,
        per_line(t)
    );
    let phasors = |n: usize, amp: f64| -> Vec<Complex> {
        (0..n)
            .map(|k| Complex::from_polar(amp, 0.37 * k as f64))
            .collect()
    };
    let statics = phasors(k_sub, 1e-3);
    let spectra = phasors(4 * k_sub, 1e-5);
    let rows: [&[Complex]; 4] = std::array::from_fn(|q| &spectra[q * k_sub..(q + 1) * k_sub]);
    let terms = LineTerms {
        cbar: [0.25; 4],
        w: [Complex::new(0.1, -0.2); 4],
        sigma_line: 1e-6,
        jitter: Complex::new(1e-4, 2e-4),
        reference: Complex::cis(0.3),
    };
    let mut out = vec![Complex::ZERO; k_sub];
    let t = Instant::now();
    for _ in 0..finished {
        spectral_line(&mut out, &statics, rows, &normals, &terms);
        std::hint::black_box(&mut out);
    }
    println!(
        "line finisher, {k_sub} subcarriers: {:.3} us/line",
        per_line(t)
    );

    // the batch producer's window-weight walk, which both of its line
    // sources take: one 8-stream group at the batch8 clock plan, each
    // stream's integration windows at a running-sum tag clock
    let grid_hz = 1.0 / (n as f64 * t_snap);
    let pairs: Vec<ClockPair> = allocate_frequencies_on_grid(8, 800.0, 2000.0, grid_hz)
        .expect("8 clocks fit the 800-2000 Hz band")
        .into_iter()
        .map(ClockPair::wiforce)
        .collect();
    let t_int = sim.sounder.integration_window_s();
    let mut walkers = vec![WindowWalker::default(); pairs.len()];
    let mut t_tag: Vec<f64> = (0..pairs.len()).map(|i| 0.1e-3 * i as f64).collect();
    let batch_groups = 400;
    let mut acc = 0.0;
    let t = Instant::now();
    for _ in 0..batch_groups {
        for ((pair, walker), t) in pairs.iter().zip(&mut walkers).zip(&mut t_tag) {
            for _ in 0..n {
                acc += walker.weights(pair, *t, t_int)[1];
                *t += t_snap;
            }
        }
    }
    let us = t.elapsed().as_secs_f64() / batch_groups as f64 * 1e6;
    let exact: u64 = walkers.iter_mut().map(WindowWalker::take_exact_evals).sum();
    let windows = (batch_groups * pairs.len() * n) as f64;
    println!(
        "window walk, {} streams: {us:.1} us/group, exact-split share {:.3} (acc {acc:.0})",
        pairs.len(),
        exact as f64 / windows
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
