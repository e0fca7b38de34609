//! Criterion benches for the end-to-end pipeline: channel sounding,
//! phase-group extraction and model inversion — the pieces that set the
//! reader's real-time budget (one phase group every 36 ms must be
//! processed in well under 36 ms).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::harmonics::extract_lines;
use wiforce::pipeline::{PressNoise, Simulation, TagClock};
use wiforce_dsp::Complex;
use wiforce_reader::{ChannelSounder, OfdmSounder};

fn bench_ofdm_estimate(c: &mut Criterion) {
    let s = OfdmSounder::wiforce();
    let truth = vec![Complex::ONE; 64];
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("ofdm_channel_estimate", |b| {
        b.iter(|| s.estimate(black_box(&truth), 1e-4, &mut rng))
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
    targets = bench_ofdm_estimate, bench_group_extraction, bench_model_invert, bench_measure_press
}
criterion_main!(benches);
