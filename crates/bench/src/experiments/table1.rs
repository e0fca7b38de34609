//! Table 1 — VNA vs fitted model vs wireless phase-force curves.
//!
//! The paper's validation triptych: at each test location the VNA curve,
//! the cubic model (trained at 20/30/40/50/60 mm — so 55 mm is held out)
//! and the wirelessly measured curve should overlay. We print all three
//! per location and score the overlay RMS.

use super::SynthArm;
use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce_dsp::phase::wrap_to_pi;

/// Runs the experiment.
pub fn run(quick: bool, arm: SynthArm) -> Report {
    let mut rep = Report::new();
    for carrier in [0.9e9, 2.4e9] {
        let ghz = carrier / 1e9;
        println!("== Table 1 @ {ghz} GHz: VNA vs model vs wireless ==\n");
        let sim = arm.paper_default(carrier);
        let model = sim.vna_calibration().expect("calibration");
        let forces: Vec<f64> = if quick {
            vec![1.0, 3.0, 5.0, 7.0]
        } else {
            (1..=16).map(|i| i as f64 * 0.5).collect()
        };

        for &loc in &[0.020, 0.040, 0.055, 0.060] {
            let mut table = TextTable::new([
                "force (N)",
                "VNA φ1 (°)",
                "model φ1 (°)",
                "wireless φ1 (°)",
                "VNA φ2 (°)",
                "model φ2 (°)",
                "wireless φ2 (°)",
            ]);
            let mut vna1 = Vec::new();
            let mut mdl1 = Vec::new();
            let mut wls1 = Vec::new();
            let mut vna2 = Vec::new();
            let mut mdl2 = Vec::new();
            let mut wls2 = Vec::new();
            for (i, &f) in forces.iter().enumerate() {
                let (v1, v2) = sim.vna_phases(f, loc);
                // the model fits *unwrapped* phase curves; bring its
                // predictions onto the VNA's principal branch for display
                let (m1u, m2u) = model.predict(f, loc);
                let m1 = v1 + wrap_to_pi(m1u - v1);
                let m2 = v2 + wrap_to_pi(m2u - v2);
                let mut rng = StdRng::seed_from_u64(0x7AB1 + i as u64 + (loc * 1e6) as u64);
                let contact = sim.contact_for(f, loc);
                let w = sim
                    .measure_phases(contact.as_ref(), &mut rng)
                    .expect("detectable");
                table.row([
                    fmt(f, 1),
                    fmt(v1.to_degrees(), 2),
                    fmt(m1.to_degrees(), 2),
                    fmt(w.dphi1_rad.to_degrees(), 2),
                    fmt(v2.to_degrees(), 2),
                    fmt(m2.to_degrees(), 2),
                    fmt(w.dphi2_rad.to_degrees(), 2),
                ]);
                vna1.push(v1.to_degrees());
                mdl1.push(m1.to_degrees());
                wls1.push(w.dphi1_rad.to_degrees());
                vna2.push(v2.to_degrees());
                mdl2.push(m2.to_degrees());
                wls2.push(w.dphi2_rad.to_degrees());
            }
            println!("-- press at {:.0} mm --", loc * 1e3);
            println!("{}", table.render());

            // wrap-aware RMS in degrees
            let rms = |a: &[f64], b: &[f64]| -> f64 {
                let ss: f64 = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| {
                        let e = wrap_to_pi((x - y).to_radians()).to_degrees();
                        e * e
                    })
                    .sum();
                (ss / a.len() as f64).sqrt()
            };
            let model_rms = rms(&vna1, &mdl1).max(rms(&vna2, &mdl2));
            let wireless_rms = rms(&vna1, &wls1).max(rms(&vna2, &wls2));
            let held_out = (loc - 0.055).abs() < 1e-9;
            let id = format!(
                "Table 1 @ {ghz} GHz, {:.0} mm{}",
                loc * 1e3,
                if held_out { " (held out)" } else { "" }
            );
            rep.push(ExperimentRecord::new(
                id.clone(),
                "model-vs-VNA overlay",
                "curves overlay",
                format!("{model_rms:.2}° RMS"),
                model_rms < 2.0,
                "model RMS < 2°",
            ));
            rep.push(ExperimentRecord::new(
                id,
                "wireless-vs-VNA overlay",
                "wireless follows VNA closely",
                format!("{wireless_rms:.2}° RMS"),
                wireless_rms < 3.5,
                "wireless RMS < 3.5°",
            ));
        }
    }
    println!("{}", rep.to_console());
    rep
}
