//! Fingertip UI demo (paper §5.3): a user presses the sensor with
//! increasing force levels; the streaming estimator turns presses into a
//! live "volume bar" — the force-controlled UI the paper motivates with
//! earbuds and smartwatches.
//!
//! ```sh
//! cargo run --release --example fingertip_ui
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::estimator::{EstimatorConfig, ForceEstimator};
use wiforce::pipeline::{PressNoise, Simulation, TagClock};
use wiforce_mech::profile::{FingertipStaircase, PressProfile};
use wiforce_mech::Indenter;

fn bar(force_n: f64) -> String {
    let blocks = (force_n / 8.0 * 30.0).round().max(0.0) as usize;
    format!(
        "[{}{}]",
        "#".repeat(blocks.min(30)),
        " ".repeat(30 - blocks.min(30))
    )
}

fn main() {
    let sim = Simulation::paper_default(2.4e9).with_indenter(Indenter::fingertip());
    let model = sim.vna_calibration().expect("calibration");

    let profile = FingertipStaircase {
        levels_n: vec![1.5, 3.0, 5.0, 2.0, 5.5],
        hold_s: 1.0,
        ..FingertipStaircase::user_study()
    };

    let cfg = EstimatorConfig {
        group: sim.group,
        ..EstimatorConfig::wiforce(1000.0)
    };
    let mut est = ForceEstimator::new(cfg, model);
    let mut rng = StdRng::seed_from_u64(7);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);

    // acquire the no-touch reference; one snapshot buffer serves the run
    let mut stream = wiforce_dsp::SnapshotMatrix::default();
    sim.run_snapshots_into(
        None,
        cfg.reference_groups,
        &mut clock,
        &mut noise,
        &mut stream,
    );
    for s in stream.rows() {
        let _ = est.push_snapshot(s).expect("reference");
    }
    println!("reference locked — press away!\n");
    println!(
        "{:>6}  {:>9}  {:>9}  volume",
        "t (s)", "truth (N)", "est (N)"
    );

    let group_s = cfg.group.group_duration_s();
    let n_groups = (profile.duration_s() / group_s) as usize;
    for g in 0..n_groups {
        let t = (g as f64 + 0.5) * group_s;
        let force = profile.force_at(t);
        let contact = sim.jittered_contact(force, profile.location_m(), &mut rng);
        stream.clear();
        sim.run_snapshots_into(contact.as_ref(), 1, &mut clock, &mut noise, &mut stream);
        for s in stream.rows() {
            if let Ok(Some(r)) = est.push_snapshot(s) {
                // print every 4th group to keep the output readable
                if g % 4 == 0 {
                    println!(
                        "{t:>6.2}  {force:>9.2}  {:>9.2}  {}",
                        r.force_n,
                        bar(r.force_n)
                    );
                }
            }
        }
    }
    println!("\ndone — the bar tracked the finger's force levels wirelessly.");
}
