//! Figs. 13 & 14 — force and location error CDFs at 900 MHz / 2.4 GHz.
//!
//! The headline evaluation: Monte-Carlo presses of 0–8 N at 20/40/55/60 mm
//! through the full wireless pipeline, errors against ground truth, and
//! empirical CDFs. Paper medians: force 0.56 N @ 900 MHz and 0.34 N
//! @ 2.4 GHz; location 0.86 mm and 0.59 mm. The shape criteria: errors a
//! small fraction of the 8 N / 80 mm ranges, 2.4 GHz beating 900 MHz, and
//! per-location performance uniform along the sensor.

use super::SynthArm;
use crate::montecarlo::{force_errors, location_errors_mm, run_sweep, PressResult, Sweep};
use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use wiforce_dsp::stats::Ecdf;

/// Results for one carrier.
pub struct CarrierRun {
    /// Carrier frequency, Hz.
    pub carrier_hz: f64,
    /// All press results.
    pub results: Vec<PressResult>,
}

/// Runs the paper evaluation sweep at both carriers.
pub fn run_both_carriers(quick: bool, arm: SynthArm) -> Vec<CarrierRun> {
    let trials = if quick { 2 } else { 6 };
    [0.9e9, 2.4e9]
        .into_iter()
        .map(|carrier| {
            let sim = arm.paper_default(carrier);
            let model = sim.vna_calibration().expect("calibration");
            let sweep = Sweep::paper_eval(trials);
            let results = run_sweep(&sim, &model, &sweep);
            CarrierRun {
                carrier_hz: carrier,
                results,
            }
        })
        .collect()
}

fn print_cdf(label: &str, ecdf: &Ecdf, unit: &str) {
    let mut table = TextTable::new(["percentile", &format!("{label} ({unit})")]);
    for p in [10, 25, 50, 75, 90, 95] {
        table.row([format!("{p}%"), fmt(ecdf.quantile(p as f64 / 100.0), 3)]);
    }
    println!("{}", table.render());
}

/// Shared runner: computes both figures' statistics from one sweep pair.
pub fn run_figs(quick: bool, arm: SynthArm) -> (Report, Report) {
    let runs = run_both_carriers(quick, arm);
    let mut rep13 = Report::new();
    let mut rep14 = Report::new();

    let mut medians_force = Vec::new();
    let mut medians_loc = Vec::new();
    for run in &runs {
        let ghz = run.carrier_hz / 1e9;
        let ok = run.results.iter().filter(|r| r.ok).count();
        println!(
            "== Figs. 13/14 @ {ghz} GHz: {} presses, {ok} decoded ==\n",
            run.results.len()
        );
        let fe = Ecdf::new(force_errors(&run.results));
        let le = Ecdf::new(location_errors_mm(&run.results));
        print_cdf("force error", &fe, "N");
        print_cdf("location error", &le, "mm");

        // per-location medians (the "uniform along the length" claim)
        let mut table = TextTable::new([
            "location (mm)",
            "median force err (N)",
            "median loc err (mm)",
        ]);
        let mut per_loc_medians = Vec::new();
        for &loc in &[0.020, 0.040, 0.055, 0.060] {
            let sub: Vec<PressResult> = run
                .results
                .iter()
                .filter(|r| (r.true_location_m - loc).abs() < 1e-9)
                .copied()
                .collect();
            let fm = Ecdf::new(force_errors(&sub)).median();
            let lm = Ecdf::new(location_errors_mm(&sub)).median();
            per_loc_medians.push(fm);
            table.row([fmt(loc * 1e3, 0), fmt(fm, 3), fmt(lm, 3)]);
        }
        println!("{}", table.render());

        medians_force.push(fe.median());
        medians_loc.push(le.median());

        let spread = per_loc_medians
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            / per_loc_medians
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
                .max(1e-6);
        rep13.push(ExperimentRecord::new(
            format!("Fig. 13 @ {ghz} GHz"),
            "uniformity along sensor",
            "per-location CDFs comparable",
            format!("max/min per-location median = {spread:.1}×"),
            spread < 6.0,
            "per-location medians within 6×",
        ));
    }

    let (f900, f24) = (medians_force[0], medians_force[1]);
    let (l900, l24) = (medians_loc[0], medians_loc[1]);
    rep13.push(ExperimentRecord::new(
        "Fig. 13 @ 900 MHz",
        "median force error",
        "0.56 N",
        format!("{f900:.2} N"),
        (0.1..=1.4).contains(&f900),
        "a small fraction of the 8 N range (0.1–1.4 N)",
    ));
    rep13.push(ExperimentRecord::new(
        "Fig. 13 @ 2.4 GHz",
        "median force error",
        "0.34 N",
        format!("{f24:.2} N"),
        (0.05..=0.9).contains(&f24),
        "smaller than 900 MHz band (0.05–0.9 N)",
    ));
    rep13.push(ExperimentRecord::new(
        "Fig. 13",
        "2.4 GHz beats 900 MHz (force)",
        "higher carrier ⇒ lower error",
        format!("{f24:.2} N < {f900:.2} N"),
        f24 < f900,
        "median(2.4 GHz) < median(900 MHz)",
    ));
    rep14.push(ExperimentRecord::new(
        "Fig. 14 @ 900 MHz",
        "median location error",
        "0.86 mm",
        format!("{l900:.2} mm"),
        (0.2..=2.5).contains(&l900),
        "sub-few-mm (0.2–2.5 mm)",
    ));
    rep14.push(ExperimentRecord::new(
        "Fig. 14 @ 2.4 GHz",
        "median location error",
        "0.59 mm",
        format!("{l24:.2} mm"),
        (0.1..=1.6).contains(&l24),
        "sub-few-mm (0.1–1.6 mm)",
    ));
    rep14.push(ExperimentRecord::new(
        "Fig. 14",
        "2.4 GHz beats 900 MHz (location)",
        "higher carrier ⇒ finer localization",
        format!("{l24:.2} mm < {l900:.2} mm"),
        l24 < l900,
        "median(2.4 GHz) < median(900 MHz)",
    ));
    println!("{}", rep13.to_console());
    println!("{}", rep14.to_console());
    (rep13, rep14)
}
