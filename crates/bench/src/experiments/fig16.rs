//! Fig. 16 — sensing through the tissue phantom (900 MHz).
//!
//! Paper §5.2: the three-layer gelatin phantom adds ≈110 dB of two-way
//! backscatter loss; the 60 dB USRP dynamic range then cannot hold both
//! the direct path and the backscatter, so a metal plate knocks the direct
//! path down ≈45 dB. With the plate the system works, with a slightly
//! higher median force error (0.62 N vs 0.56 N over the air); without it,
//! the tag is undecodable. Presses at 60 mm, as in the paper.

use super::SynthArm;
use crate::montecarlo::{force_errors, run_sweep, Sweep};
use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::WiForceError;
use wiforce_channel::Scene;
use wiforce_dsp::stats::Ecdf;

/// Runs the experiment.
pub fn run(quick: bool, arm: SynthArm) -> Report {
    println!("== Fig. 16: tissue phantom at 900 MHz, presses at 60 mm ==\n");
    let trials = if quick { 2 } else { 6 };

    // over-the-air baseline at the same location
    let ota = arm.paper_default(0.9e9);
    let model = ota.vna_calibration().expect("calibration");
    let sweep = Sweep {
        locations_m: vec![0.060],
        forces_n: (1..=16).map(|i| i as f64 * 0.5).collect(),
        trials,
        seed: 0x7155,
    };
    let ota_results = run_sweep(&ota, &model, &sweep);
    let ota_median = Ecdf::new(force_errors(&ota_results)).median();

    // phantom with the metal plate (≈50 dB of direct-path knockdown, and
    // a longer integration — the weak through-tissue line needs it)
    let mut phantom = arm.paper_default(0.9e9);
    phantom.scene = Scene::tissue_phantom(0.9e9, 50.0);
    phantom.reference_groups = 4;
    phantom.measure_groups = 4;
    let ph_results = run_sweep(&phantom, &model, &sweep);
    let ph_ok = ph_results.iter().filter(|r| r.ok).count();
    let ph_median = Ecdf::new(force_errors(&ph_results)).median();

    let mut table = TextTable::new(["setup", "decoded", "median force err (N)"]);
    table.row([
        "over the air".to_string(),
        format!(
            "{}/{}",
            ota_results.iter().filter(|r| r.ok).count(),
            ota_results.len()
        ),
        fmt(ota_median, 3),
    ]);
    table.row([
        "phantom + metal plate".to_string(),
        format!("{ph_ok}/{}", ph_results.len()),
        fmt(ph_median, 3),
    ]);
    println!("{}", table.render());

    // phantom WITHOUT the plate: detection must fail (dynamic range)
    let mut no_plate = arm.paper_default(0.9e9);
    no_plate.scene = Scene::tissue_phantom(0.9e9, 0.0);
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let contact = no_plate.contact_for(4.0, 0.060);
    let no_plate_result = no_plate.measure_phases(contact.as_ref(), &mut rng);
    let failed_without_plate = matches!(no_plate_result, Err(WiForceError::TagNotDetected { .. }));
    println!(
        "without the metal plate: {}\n",
        match &no_plate_result {
            Err(e) => format!("{e}"),
            Ok(_) => "unexpectedly decoded".to_string(),
        }
    );

    let budget = Scene::tissue_phantom(0.9e9, 50.0);
    let bs_loss = -20.0 * budget.backscatter_gain(0.9e9).abs().log10();
    println!("two-way backscatter loss through phantom: {bs_loss:.0} dB (paper: ≈110 dB)\n");

    let mut rep = Report::new();
    rep.push(ExperimentRecord::new(
        "Fig. 16",
        "median force error through phantom",
        "0.62 N (vs 0.56 N over the air)",
        format!("{ph_median:.2} N (vs {ota_median:.2} N OTA)"),
        ph_median >= ota_median * 0.8 && ph_median < ota_median * 3.0 + 0.3,
        "phantom slightly worse than OTA, same order",
    ));
    rep.push(ExperimentRecord::new(
        "§5.2",
        "decoding without the metal plate",
        "impossible (60 dB ADC dynamic range)",
        if failed_without_plate {
            "tag not detected".into()
        } else {
            "decoded".to_string()
        },
        failed_without_plate,
        "TagNotDetected without blockage",
    ));
    rep.push(ExperimentRecord::new(
        "§5.2",
        "two-way backscatter loss through phantom",
        "≈110 dB",
        format!("{bs_loss:.0} dB"),
        (90.0..=130.0).contains(&bs_loss),
        "within 90–130 dB",
    ));
    println!("{}", rep.to_console());
    rep
}
