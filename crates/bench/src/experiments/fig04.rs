//! Fig. 4c — force-to-phase transduction: thin trace vs soft beam.
//!
//! The paper's motivating plot: a naive thin-trace microstrip saturates at
//! a near-invariant phase once touched, while the soft Ecoflex beam keeps
//! shifting its shorting points with force, producing a pronounced
//! phase-force profile. We run both sensor builds through the
//! finite-difference contact solver and read port-1 VNA phases.

use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use wiforce_em::{SensorLine, Termination};
use wiforce_mech::contact::{ContactSolver, SensorMech};
use wiforce_mech::{ForceTransducer, Indenter};

/// Port-1 differential phase (deg) of a sensor at the given force/location.
fn port1_phase_deg(
    solver: &ContactSolver,
    line: &SensorLine,
    f_hz: f64,
    force: f64,
    x0: f64,
) -> Option<f64> {
    let patch = solver.contact_patch(force, x0)?;
    Some(
        line.differential_phase(f_hz, patch.port1_length_m(), Termination::Open)
            .to_degrees(),
    )
}

/// Runs the experiment.
pub fn run(_quick: bool) -> Report {
    println!("== Fig. 4c: phase-force transduction, thin trace vs soft beam ==\n");
    let soft = ContactSolver::with_nodes(
        SensorMech::wiforce_prototype(),
        Indenter::actuator_tip(),
        201,
    );
    let thin = ContactSolver::with_nodes(SensorMech::thin_trace(), Indenter::actuator_tip(), 201);
    let line = SensorLine::wiforce_prototype();
    let x0 = 0.040;
    let forces: Vec<f64> = (1..=16).map(|i| i as f64 * 0.5).collect();

    let mut table = TextTable::new([
        "force (N)",
        "thin @900MHz (°)",
        "soft @900MHz (°)",
        "thin @2.4GHz (°)",
        "soft @2.4GHz (°)",
    ]);

    // phases relative to the first-contact phase, like the paper's plot
    let series = |solver: &ContactSolver, f_hz: f64| -> Vec<Option<f64>> {
        let base = port1_phase_deg(solver, &line, f_hz, forces[0], x0);
        forces
            .iter()
            .map(
                |&f| match (port1_phase_deg(solver, &line, f_hz, f, x0), base) {
                    (Some(p), Some(b)) => Some(p - b),
                    _ => None,
                },
            )
            .collect()
    };
    let thin900 = series(&thin, 0.9e9);
    let soft900 = series(&soft, 0.9e9);
    let thin24 = series(&thin, 2.4e9);
    let soft24 = series(&soft, 2.4e9);

    let cell = |v: &Option<f64>| v.map_or("n/a".to_string(), |p| fmt(p, 2));
    for (i, &f) in forces.iter().enumerate() {
        table.row([
            fmt(f, 1),
            cell(&thin900[i]),
            cell(&soft900[i]),
            cell(&thin24[i]),
            cell(&soft24[i]),
        ]);
    }
    println!("{}", table.render());

    let swing = |s: &[Option<f64>]| -> f64 {
        let vals: Vec<f64> = s.iter().flatten().copied().collect();
        let (lo, hi) = vals
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        hi - lo
    };
    let soft_sw = swing(&soft24);
    let thin_sw = swing(&thin24);
    println!("phase swing over 0.5–8 N at 2.4 GHz: soft {soft_sw:.1}°, thin {thin_sw:.1}°\n");

    let mut rep = Report::new();
    rep.push(ExperimentRecord::new(
        "Fig. 4c",
        "soft-beam vs thin-trace phase swing (2.4 GHz)",
        "soft pronounced, thin ~flat",
        format!("soft {soft_sw:.1}°, thin {thin_sw:.1}°"),
        soft_sw > 3.0 * thin_sw && soft_sw > 10.0,
        "soft swing > 3× thin and > 10°",
    ));
    let soft_sw9 = swing(&soft900);
    rep.push(ExperimentRecord::new(
        "Fig. 4c",
        "higher carrier ⇒ more phase per mm",
        "phase scales with frequency",
        format!("900 MHz {soft_sw9:.1}° vs 2.4 GHz {soft_sw:.1}°"),
        soft_sw > 1.5 * soft_sw9,
        "2.4 GHz swing > 1.5× 900 MHz swing",
    ));
    println!("{}", rep.to_console());
    rep
}
