//! Criterion benches for the mechanics substrate: the FD contact solve
//! (calibration cost) vs the analytic model (Monte-Carlo cost), and the
//! load-spreading width both of them solve on every press.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wiforce_mech::contact::{ContactSolver, SensorMech};
use wiforce_mech::{AnalyticContactModel, ForceTransducer, Indenter};

fn bench_fd_solver(c: &mut Criterion) {
    let mut g = c.benchmark_group("contact_fd");
    for nodes in [101usize, 201, 401] {
        let solver = ContactSolver::with_nodes(
            SensorMech::wiforce_prototype(),
            Indenter::actuator_tip(),
            nodes,
        );
        g.bench_function(format!("solve_{nodes}_nodes"), |b| {
            b.iter(|| solver.contact_patch(black_box(4.0), black_box(0.035)))
        });
    }
    g.finish();
}

fn bench_analytic(c: &mut Criterion) {
    let model =
        AnalyticContactModel::new(SensorMech::wiforce_prototype(), Indenter::actuator_tip());
    c.bench_function("contact_analytic", |b| {
        b.iter(|| model.contact_patch(black_box(4.0), black_box(0.035)))
    });
}

fn bench_load_half_width(c: &mut Criterion) {
    let mech = SensorMech::wiforce_prototype();
    let indenter = Indenter::actuator_tip();
    let mut g = c.benchmark_group("load_half_width");
    // quadratic branch of the stress law at 1 N and 8 N; a saturated
    // strain at 1e4 N
    for force_n in [1.0, 8.0, 1e4] {
        g.bench_function(format!("{force_n}_n"), |b| {
            b.iter(|| mech.load_half_width_m(black_box(&indenter), black_box(force_n)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fd_solver, bench_analytic, bench_load_half_width
}
criterion_main!(benches);
