//! Fig. 17 — fingertip presses: location histogram and force staircase.
//!
//! Paper §5.3: a user presses the sensor at 60 mm with increasing force
//! levels (visual feedback from a load cell). WiForce pins the contact
//! location to 60 mm within fingertip width and tracks the force levels —
//! "more than just binary touch sensing". We drive the streaming estimator
//! with a synthetic fingertip staircase (first-order settling + tremor).

use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::estimator::{EstimatorConfig, ForceEstimator};
use wiforce::pipeline::{PressNoise, Simulation, TagClock};
use wiforce_dsp::stats::mean;
use wiforce_mech::profile::{FingertipStaircase, PressProfile};
use wiforce_mech::Indenter;

/// Runs the experiment.
pub fn run(quick: bool) -> Report {
    println!("== Fig. 17: fingertip staircase at 60 mm (2.4 GHz) ==\n");
    let sim = Simulation::paper_default(2.4e9).with_indenter(Indenter::fingertip());
    let model = sim.vna_calibration().expect("calibration");

    let mut profile = FingertipStaircase::user_study();
    if quick {
        profile.hold_s = 0.5;
    }

    let cfg = EstimatorConfig {
        group: sim.group,
        reference_groups: 3,
        ..EstimatorConfig::wiforce(1000.0)
    };
    let mut est = ForceEstimator::new(cfg, model);
    let mut rng = StdRng::seed_from_u64(0xF175);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);

    // 3 reference groups of untouched sensor; one snapshot buffer is
    // reused for every group of the whole staircase
    let mut stream = wiforce_dsp::SnapshotMatrix::default();
    sim.run_snapshots_into(
        None,
        cfg.reference_groups,
        &mut clock,
        &mut noise,
        &mut stream,
    );
    for s in stream.rows() {
        let _ = est.push_snapshot(s).expect("reference groups");
    }

    let group_s = cfg.group.group_duration_s();
    let n_groups = (profile.duration_s() / group_s) as usize;
    let mut readings = Vec::new();
    for g in 0..n_groups {
        let t_mid = (g as f64 + 0.5) * group_s;
        let force = profile.force_at(t_mid);
        let contact = sim.jittered_contact(force, profile.location_m(), &mut rng);
        stream.clear();
        sim.run_snapshots_into(contact.as_ref(), 1, &mut clock, &mut noise, &mut stream);
        for s in stream.rows() {
            if let Ok(Some(r)) = est.push_snapshot(s) {
                readings.push((t_mid, force, r));
            }
        }
    }

    // location histogram over touched readings (5 mm bins, like a
    // fingertip-width resolution view)
    let touched: Vec<_> = readings.iter().filter(|(_, _, r)| r.touched).collect();
    // bins centred on multiples of 5 mm (0, 5, …, 80)
    let mut hist = [0usize; 17];
    for (_, _, r) in &touched {
        let bin = ((r.location_m * 1e3 / 5.0).round() as usize).min(16);
        hist[bin] += 1;
    }
    let mut table = TextTable::new(["location bin (mm)", "count"]);
    for (i, &c) in hist.iter().enumerate() {
        if c > 0 {
            table.row([format!("{} ± 2.5", i * 5), c.to_string()]);
        }
    }
    println!("{}", table.render());
    let mode_bin = hist
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let in_mode = hist[mode_bin] as f64 / touched.len().max(1) as f64;

    // per-level force tracking
    let mut level_table = TextTable::new(["target level (N)", "mean estimate (N)", "error (N)"]);
    let mut level_errors = Vec::new();
    let mut level_means = Vec::new();
    for (i, &level) in profile.levels_n.iter().enumerate() {
        // settled half of the hold window
        let t_lo = (i as f64 + 0.5) * profile.hold_s;
        let t_hi = (i as f64 + 1.0) * profile.hold_s;
        let ests: Vec<f64> = readings
            .iter()
            .filter(|(t, _, r)| *t >= t_lo && *t < t_hi && r.touched)
            .map(|(_, _, r)| r.force_n)
            .collect();
        if ests.is_empty() {
            continue;
        }
        let m = mean(&ests);
        level_errors.push((m - level).abs());
        level_means.push(m);
        level_table.row([fmt(level, 1), fmt(m, 2), fmt((m - level).abs(), 2)]);
    }
    println!("{}", level_table.render());

    let worst_level = level_errors.iter().cloned().fold(0.0, f64::max);
    // the paper's claim is *force levels are distinguishable*: the
    // increasing staircase must come out strictly increasing
    let ordered = level_means.windows(2).all(|w| w[1] > w[0]);
    let mode_center = mode_bin as f64 * 5.0;

    let mut rep = Report::new();
    rep.push(ExperimentRecord::new(
        "Fig. 17a",
        "fingertip press localization",
        "all touches classified at 60 mm (fingertip ≈10 mm wide)",
        format!(
            "{:.0}% of readings in the {mode_center:.0} mm bin",
            in_mode * 100.0
        ),
        (mode_center - 60.0).abs() <= 5.0 && in_mode > 0.7,
        "mode bin within 5 mm of 60 mm, >70 % of readings",
    ));
    rep.push(ExperimentRecord::new(
        "Fig. 17b",
        "force-level tracking",
        "increasing levels estimated and distinguishable",
        format!(
            "levels {} (worst error {worst_level:.2} N)",
            if ordered {
                "strictly ordered"
            } else {
                "NOT ordered"
            }
        ),
        ordered && worst_level < 1.0 && level_errors.len() >= 4,
        "staircase order preserved, every level within 1 N",
    ));
    println!("{}", rep.to_console());
    rep
}
