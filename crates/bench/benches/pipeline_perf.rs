//! Criterion benches for the end-to-end pipeline: channel sounding,
//! phase-group extraction, the spectral arm's state sums and model
//! inversion — the pieces that set the reader's real-time budget (one
//! phase group every 36 ms must be processed in well under 36 ms).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::harmonics::{extract_lines, PrefixPhasors};
use wiforce::pipeline::{state_sums, PressNoise, Simulation, TagClock};
use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::Complex;
use wiforce_reader::{ChannelSounder, OfdmSounder};

fn bench_ofdm_estimate(c: &mut Criterion) {
    let s = OfdmSounder::wiforce();
    let truth = vec![Complex::ONE; 64];
    let mut out = vec![Complex::ZERO; 64];
    let mut snapshot = 0u32;
    c.bench_function("ofdm_channel_estimate", |b| {
        b.iter(|| {
            snapshot = snapshot.wrapping_add(1);
            let mut cursor = CounterRng::for_snapshot(1, 0, snapshot);
            s.estimate_counter_into(black_box(&truth), 1e-4, &mut cursor, &mut out);
        })
    });
}

fn bench_group_extraction(c: &mut Criterion) {
    let sim = Simulation::paper_default(0.9e9);
    let mut rng = StdRng::seed_from_u64(2);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);
    let group = sim.run_snapshots(None, 1, &mut clock, &mut noise);
    c.bench_function("phase_group_extract_625x64", |b| {
        b.iter(|| extract_lines(black_box(&sim.group), black_box(group.view()), 0.0))
    });
}

fn bench_model_invert(c: &mut Criterion) {
    let sim = Simulation::paper_default(2.4e9);
    let model = sim.vna_calibration().unwrap();
    let (p1, p2) = sim.vna_phases(4.0, 0.040);
    c.bench_function("model_invert", |b| {
        b.iter(|| model.invert(black_box(p1), black_box(p2), 0.35).unwrap())
    });
}

/// A press just past the 8 N calibration bound: the answer pins at 8 N, so
/// the inverter's active-set path (force pinned, location solved alone)
/// is timed too.
fn bench_model_invert_at_bound(c: &mut Criterion) {
    let sim = Simulation::paper_default(2.4e9);
    let model = sim.vna_calibration().unwrap();
    let (p1, p2) = sim.vna_phases(8.5, 0.040);
    assert_eq!(model.invert(p1, p2, 0.35).unwrap().force_n, 8.0);
    c.bench_function("model_invert_at_bound", |b| {
        b.iter(|| model.invert(black_box(p1), black_box(p2), 0.35).unwrap())
    });
}

/// The spectral arm's per-group state walk: the state runs of the paper
/// grid, summed over the two tag lines' prefix tables.
fn bench_spectral_state_sums(c: &mut Criterion) {
    let sim = Simulation::paper_default(2.4e9);
    let (n, t_snap) = (sim.group.n_snapshots, sim.group.snapshot_period_s);
    let tables = [sim.group.line1_hz, sim.group.line2_hz].map(|f| PrefixPhasors::new(f, t_snap, n));
    let lines = [&tables[0], &tables[1]];
    let mut g = 0u32;
    c.bench_function("spectral_state_sums", |b| {
        b.iter(|| {
            g = (g + 1) % 1000;
            let t0 = 0.5e-3 + f64::from(g) * n as f64 * t_snap;
            state_sums(&sim.tag.clocks, black_box(t0), t_snap, &lines)
        })
    });
}

fn bench_measure_press(c: &mut Criterion) {
    let mut sim = Simulation::paper_default(2.4e9);
    sim.reference_groups = 1;
    sim.measure_groups = 1;
    let model = sim.vna_calibration().unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("measure_press_end_to_end", |b| {
        b.iter(|| {
            sim.measure_press(black_box(&model), 4.0, 0.040, &mut rng)
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ofdm_estimate, bench_group_extraction, bench_model_invert,
        bench_model_invert_at_bound, bench_spectral_state_sums, bench_measure_press
}
criterion_main!(benches);
