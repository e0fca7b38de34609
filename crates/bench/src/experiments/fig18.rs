//! Fig. 18 — phase stability vs TX/sensor/RX geometry.
//!
//! Paper §5.4: TX and RX 4 m apart, 10 dBm TX at 900 MHz, sensor moved
//! along the line. Phase stability stays under ~1° near either antenna and
//! within ~5° at the worst 2 m/2 m midpoint (weakest combined backscatter
//! budget). We measure the repeatability (std) of the port-1 differential
//! phase for a fixed 4 N press across independent reads.

use super::SynthArm;
use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::pipeline::Simulation;
use wiforce_channel::Scene;
use wiforce_dsp::stats::circular_std;

/// Phase repeatability (deg) at one tag position.
fn phase_std_deg(sim: &Simulation, reads: usize, seed: u64) -> Option<f64> {
    let contact = sim.contact_for(4.0, 0.040);
    let mut phases = Vec::with_capacity(reads);
    for i in 0..reads {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64 * 7919));
        match sim.measure_phases(contact.as_ref(), &mut rng) {
            Ok(d) => phases.push(d.dphi1_rad),
            Err(_) => return None,
        }
    }
    Some(circular_std(&phases).to_degrees())
}

/// Runs the experiment.
pub fn run(quick: bool, arm: SynthArm) -> Report {
    println!("== Fig. 18: phase stability over a 4 m TX–RX line (900 MHz, 10 dBm) ==\n");
    let reads = if quick { 12 } else { 24 };
    let positions = [1.0, 1.5, 2.0, 2.5, 3.0];

    let mut table = TextTable::new(["tag at (m from TX)", "TX–tag / tag–RX", "phase std (°)"]);
    let mut stds = Vec::new();
    for &d in &positions {
        let mut sim = arm.paper_default(0.9e9);
        sim.scene = Scene::fig18(0.9e9, d);
        // common random numbers across positions isolate the geometry effect
        let s = phase_std_deg(&sim, reads, 0xF18);
        let label = format!("{d:.1} / {:.1}", 4.0 - d);
        match s {
            Some(v) => {
                table.row([fmt(d, 1), label, fmt(v, 2)]);
                stds.push((d, v));
            }
            None => {
                table.row([fmt(d, 1), label, "not detected".to_string()]);
            }
        }
    }
    println!("{}", table.render());

    let at = |d: f64| {
        stds.iter()
            .find(|(p, _)| (*p - d).abs() < 1e-9)
            .map(|(_, v)| *v)
    };
    let best_end = at(1.0).unwrap_or(f64::NAN).min(at(3.0).unwrap_or(f64::NAN));
    let mid = at(2.0).unwrap_or(f64::NAN);

    let mut rep = Report::new();
    rep.push(ExperimentRecord::new(
        "Fig. 18",
        "phase stability near an antenna (1 m / 3 m)",
        "< 1°",
        format!("{best_end:.2}°"),
        best_end.is_finite() && best_end < 1.5,
        "best end-position std < 1.5°",
    ));
    rep.push(ExperimentRecord::new(
        "Fig. 18",
        "phase stability at the worst 2 m / 2 m midpoint",
        "within 5°",
        format!("{mid:.2}°"),
        mid.is_finite() && mid < 6.0,
        "midpoint std < 6°",
    ));
    rep.push(ExperimentRecord::new(
        "Fig. 18",
        "midpoint is the worst geometry",
        "stability degrades away from the antennas",
        format!("mid {mid:.2}° vs best {best_end:.2}°"),
        mid > best_end,
        "std(2 m/2 m) > std(1 m/3 m)",
    ));
    println!("{}", rep.to_console());
    rep
}
