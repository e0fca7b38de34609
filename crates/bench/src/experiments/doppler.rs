//! §3.3 Doppler-separation experiment: real movers vs the tag's
//! "artificial Doppler".
//!
//! The paper argues static multipath lands at zero Doppler and real motion
//! stays far below `fs`: "an object in the environment moving at velocity
//! `v = c·fs/f_c` would create interference with the sensor signal.
//! However, the chosen `fs` is large enough so that this equivalent speed
//! is so high that it wouldn't appear in the environment." We sweep a
//! moving scatterer's speed from walking pace to the aliasing speed and
//! measure the port-1 phase error: rejection everywhere except at the
//! (implausible) line-equivalent speed.

use super::SynthArm;
use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce_channel::movers::MovingScatterer;
use wiforce_dsp::phase::wrap_to_pi;
use wiforce_dsp::Complex;

/// Port-1 phase error (deg, vs VNA) with one mover of the given
/// path-length rate in the scene.
fn phase_error_with_mover(arm: SynthArm, speed_m_per_s: f64, reads: usize) -> f64 {
    let mut sim = arm.paper_default(0.9e9);
    let direct = sim.scene.direct_response(0.9e9).abs();
    sim.scene.movers = vec![MovingScatterer {
        distance0_m: 3.0,
        speed_m_per_s,
        gain: Complex::from_polar(0.3 * direct, 0.7),
    }];
    let (v1, _) = sim.vna_phases(4.0, 0.040);
    let contact = sim.contact_for(4.0, 0.040);
    let mut acc = 0.0;
    let mut n = 0usize;
    for i in 0..reads {
        let mut rng = StdRng::seed_from_u64(0xD099_u64.wrapping_add(i as u64 * 7919));
        if let Ok(d) = sim.measure_phases(contact.as_ref(), &mut rng) {
            acc += wrap_to_pi(d.dphi1_rad - v1).abs();
            n += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    (acc / n as f64).to_degrees()
}

/// Runs the experiment.
pub fn run(quick: bool, arm: SynthArm) -> Report {
    println!("== §3.3: Doppler separation — movers vs the tag lines (900 MHz) ==\n");
    let reads = if quick { 3 } else { 6 };
    let v_alias = MovingScatterer::speed_for_line(0.9e9, 1000.0);

    let mut table = TextTable::new(["mover speed (m/s)", "Doppler (Hz)", "port-1 phase err (°)"]);
    // negative rate = approaching ⇒ positive Doppler, landing on the
    // +fs bin the reader actually uses
    let speeds = [0.0, 1.0, 5.0, 30.0, -v_alias];
    let mut errs = Vec::new();
    for &v in &speeds {
        let e = phase_error_with_mover(arm, v, reads);
        table.row([
            fmt(v.abs(), 1),
            fmt(-v * 0.9e9 / wiforce_dsp::C0, 1),
            if e.is_nan() {
                "undetected".into()
            } else {
                fmt(e, 2)
            },
        ]);
        errs.push(e);
    }
    println!("{}", table.render());
    println!(
        "aliasing speed for the 1 kHz line at 900 MHz: {v_alias:.0} m/s \
         (the paper's implausible-mover argument)\n"
    );

    let walker = errs[1];
    let fast = errs[3];
    let aliased = errs[4];
    let clean = errs[0];

    let mut rep = Report::new();
    rep.push(ExperimentRecord::new(
        "§3.3 Doppler",
        "walking-speed clutter rejection",
        "moving objects don't interfere below the equivalent speed",
        format!("1 m/s: {walker:.2}° vs static {clean:.2}°"),
        walker < clean + 1.0,
        "walker adds < 1° of phase error",
    ));
    rep.push(ExperimentRecord::new(
        "§3.3 Doppler",
        "fast-but-plausible motion (30 m/s)",
        "still far below the 1 kHz line",
        format!("{fast:.2}°"),
        fast < clean + 2.0,
        "30 m/s adds < 2° of phase error",
    ));
    rep.push(ExperimentRecord::new(
        "§3.3 Doppler",
        "line-equivalent speed corrupts the tag",
        format!("v = c·fs/f_c ≈ {v_alias:.0} m/s would interfere"),
        if aliased.is_nan() {
            "tag undetectable".to_string()
        } else {
            format!("{aliased:.1}° error")
        },
        aliased.is_nan() || aliased > 3.0 * (clean + 0.2),
        "aliasing mover breaks the measurement (validating the margin)",
    ));
    println!("{}", rep.to_console());
    rep
}
