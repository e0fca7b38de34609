//! Hysteresis-loop experiment (extension): ramp the press up and back
//! down and compare the estimated force on the two branches.
//!
//! Ecoflex viscoelasticity makes the loading and unloading branches of a
//! press cycle differ (the model is calibrated on quasi-static data, so
//! the unloading branch reads systematically high). This quantifies the
//! effect the paper's measurement clouds hint at, using the
//! `wiforce_mech::hysteresis` wrapper end to end.

use super::SynthArm;
use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce_dsp::stats::mean;
use wiforce_mech::contact::SensorMech;
use wiforce_mech::hysteresis::Hysteretic;
use wiforce_mech::{AnalyticContactModel, Indenter};
use wiforce_sensor::tag::ContactState;

/// Runs the experiment.
pub fn run(quick: bool, arm: SynthArm) -> Report {
    println!("== Extension: force hysteresis loop at 40 mm (2.4 GHz) ==\n");
    // this experiment isolates the *mechanical* loop, so the RF chain is
    // idealized (no front-end noise, no tag-clock wander, no press jitter)
    let mut sim = arm.paper_default(2.4e9);
    sim.patch_position_jitter_m = 0.0;
    sim.patch_edge_jitter_m = 0.0;
    sim.frontend = wiforce_channel::Frontend::ideal();
    sim.tag_clock_wander_ppm = 0.0;
    sim.reference_groups = 1;
    sim.measure_groups = 1;
    let model = sim.vna_calibration().expect("calibration");

    let mut mech = Hysteretic::new(AnalyticContactModel::new(
        SensorMech::wiforce_prototype(),
        Indenter::actuator_tip(),
    ));

    // triangular ramp 0 → 8 → 0 N over 8 s, sampled per phase group
    let steps = if quick { 24 } else { 48 };
    let dwell_s = 8.0 / steps as f64;
    let mut rng = StdRng::seed_from_u64(0x575);
    let mut rows: Vec<(f64, f64, bool)> = Vec::new(); // (applied, estimated, rising)
    for k in 0..steps {
        let frac = k as f64 / (steps - 1) as f64;
        let rising = frac < 0.5;
        let applied = if rising {
            16.0 * frac
        } else {
            16.0 * (1.0 - frac)
        };
        let t = k as f64 * dwell_s;
        let Some(patch) = mech.press(t, applied, 0.040) else {
            continue;
        };
        let contact = ContactState::from_patch(&patch, 0.080);
        if let Ok(d) = sim.measure_phases(Some(&contact), &mut rng) {
            if let Ok(est) = model.invert(d.dphi1_rad, d.dphi2_rad, 0.35) {
                rows.push((applied, est.force_n, rising));
            }
        }
    }

    let mut table = TextTable::new([
        "applied (N)",
        "estimated rising (N)",
        "estimated falling (N)",
    ]);
    let mut gaps = Vec::new();
    for level in [2.0, 4.0, 6.0] {
        let near = |rising: bool| -> Option<f64> {
            let ests: Vec<f64> = rows
                .iter()
                .filter(|&&(a, _, r)| r == rising && (a - level).abs() < 0.5)
                .map(|&(_, e, _)| e)
                .collect();
            if ests.is_empty() {
                None
            } else {
                Some(mean(&ests))
            }
        };
        if let (Some(up), Some(down)) = (near(true), near(false)) {
            gaps.push(down - up);
            table.row([fmt(level, 1), fmt(up, 2), fmt(down, 2)]);
        }
    }
    println!("{}", table.render());
    let loop_width = mean(&gaps);
    println!("mean loop width (falling − rising): {loop_width:.2} N\n");

    let mut rep = Report::new();
    rep.push(ExperimentRecord::new(
        "Extension: hysteresis",
        "loading/unloading branch separation",
        "(beyond the paper — viscoelastic Ecoflex)",
        format!("{loop_width:.2} N mean loop width"),
        loop_width > 0.05 && loop_width < 1.5,
        "loop opens (>0.05 N) but stays bounded (<1.5 N)",
    ));
    println!("{}", rep.to_console());
    rep
}
