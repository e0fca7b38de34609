//! Gesture pad: the paper's HCI vision end to end.
//!
//! A synthetic user taps, swipes along the continuum, and holds at force
//! levels; the pipeline estimates per-group readings, the Kalman tracker
//! smooths them, and the gesture recognizer emits UI events.
//!
//! ```sh
//! cargo run --release --example gesture_pad
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::estimator::{EstimatorConfig, ForceEstimator};
use wiforce::gestures::{Gesture, GestureConfig, GestureRecognizer};
use wiforce::pipeline::{PressNoise, Simulation, TagClock};
use wiforce::tracking::{Tracker, TrackerConfig};
use wiforce_mech::Indenter;

/// One scripted interaction: (duration in groups, force, start → end mm).
struct Segment {
    groups: usize,
    force_n: f64,
    from_mm: f64,
    to_mm: f64,
}

fn main() {
    let sim = Simulation::paper_default(2.4e9).with_indenter(Indenter::fingertip());
    let model = sim.vna_calibration().expect("calibration");
    let cfg = EstimatorConfig {
        group: sim.group,
        ..EstimatorConfig::wiforce(1000.0)
    };
    let mut est = ForceEstimator::new(cfg, model);
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    let mut gestures = GestureRecognizer::new(GestureConfig::wiforce());
    let mut rng = StdRng::seed_from_u64(0x6E5);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);

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
    println!("reference locked; user starts interacting…\n");

    // script: tap at 30 mm, pause, swipe 20→60 mm, pause, hold 5 N at 45 mm
    let script = [
        Segment {
            groups: 4,
            force_n: 2.0,
            from_mm: 30.0,
            to_mm: 30.0,
        },
        Segment {
            groups: 6,
            force_n: 0.0,
            from_mm: 0.0,
            to_mm: 0.0,
        },
        Segment {
            groups: 10,
            force_n: 3.0,
            from_mm: 20.0,
            to_mm: 60.0,
        },
        Segment {
            groups: 6,
            force_n: 0.0,
            from_mm: 0.0,
            to_mm: 0.0,
        },
        Segment {
            groups: 20,
            force_n: 5.0,
            from_mm: 45.0,
            to_mm: 45.0,
        },
        Segment {
            groups: 4,
            force_n: 0.0,
            from_mm: 0.0,
            to_mm: 0.0,
        },
    ];

    let mut group_idx = 0usize;
    for seg in &script {
        for k in 0..seg.groups {
            let frac = if seg.groups > 1 {
                k as f64 / (seg.groups - 1) as f64
            } else {
                0.0
            };
            let loc_m = (seg.from_mm + frac * (seg.to_mm - seg.from_mm)) * 1e-3;
            let contact = if seg.force_n > 0.0 {
                sim.jittered_contact(seg.force_n, loc_m, &mut rng)
            } else {
                None
            };
            stream.clear();
            sim.run_snapshots_into(contact.as_ref(), 1, &mut clock, &mut noise, &mut stream);
            for snap in stream.rows() {
                if let Ok(Some(raw)) = est.push_snapshot(snap) {
                    group_idx += 1;
                    let smooth = tracker.update(&raw);
                    let mut smoothed_reading = raw;
                    if smooth.touched {
                        smoothed_reading.force_n = smooth.force_n;
                        smoothed_reading.location_m = smooth.location_m;
                    }
                    if let Some(ev) = gestures.push(&smoothed_reading) {
                        let t = group_idx as f64 * 0.036;
                        match ev {
                            Gesture::Tap {
                                location_m,
                                peak_force_n,
                            } => println!(
                                "[{t:5.2} s] TAP   at {:.0} mm ({peak_force_n:.1} N)",
                                location_m * 1e3
                            ),
                            Gesture::Swipe { from_m, to_m } => println!(
                                "[{t:5.2} s] SWIPE {:.0} mm → {:.0} mm ({})",
                                from_m * 1e3,
                                to_m * 1e3,
                                if to_m > from_m { "right" } else { "left" }
                            ),
                            Gesture::Hold {
                                location_m,
                                level,
                                force_n,
                            } => println!(
                                "[{t:5.2} s] HOLD  at {:.0} mm, level {level} ({force_n:.1} N)",
                                location_m * 1e3
                            ),
                        }
                    }
                }
            }
        }
    }
    println!("\ndone — tap, swipe and force-level hold recognized wirelessly.");
}
