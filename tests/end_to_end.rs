//! Cross-crate integration: the full press → mechanics → RF → channel →
//! reader → algorithm → estimate loop, under realistic and adverse
//! conditions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::pipeline::Simulation;
use wiforce::WiForceError;
use wiforce_channel::faults::FaultConfig;
use wiforce_dsp::stats::median;

/// Median absolute force/location error over a small press grid.
fn grid_errors(sim: &Simulation, seed: u64) -> (f64, f64) {
    let model = sim.vna_calibration().expect("calibration");
    let mut f_errs = Vec::new();
    let mut l_errs = Vec::new();
    let mut k = 0u64;
    for &loc in &[0.025, 0.040, 0.055] {
        for &force in &[2.0, 4.0, 6.0] {
            let mut rng = StdRng::seed_from_u64(seed + k * 7877);
            k += 1;
            let r = sim
                .measure_press(&model, force, loc, &mut rng)
                .expect("press readable");
            f_errs.push((r.force_n - force).abs());
            l_errs.push((r.location_m - loc).abs() * 1e3);
        }
    }
    (median(&f_errs), median(&l_errs))
}

#[test]
fn both_carriers_estimate_accurately() {
    let (f900, l900) = grid_errors(&Simulation::paper_default(0.9e9), 1);
    let (f24, l24) = grid_errors(&Simulation::paper_default(2.4e9), 2);
    // accuracy bands around the paper's headline numbers
    assert!(f900 < 1.4, "900 MHz median force error {f900} N");
    assert!(f24 < 0.9, "2.4 GHz median force error {f24} N");
    assert!(l900 < 2.5, "900 MHz median location error {l900} mm");
    assert!(l24 < 1.6, "2.4 GHz median location error {l24} mm");
}

#[test]
fn spectral_synthesis_estimates_match_paper_bounds() {
    // the spectral arm draws a different (but statistically identical)
    // noise realization than the time-domain paths, so its end-to-end
    // error CDF must land in the same accuracy band — median against the
    // headline bounds, and the worst grid press bounded too
    let mut sim = Simulation::paper_default(2.4e9);
    sim.synth_spectral = Some(true);
    let model = sim.vna_calibration().expect("calibration");
    let mut f_errs = Vec::new();
    let mut l_errs = Vec::new();
    let mut k = 0u64;
    for &loc in &[0.025, 0.040, 0.055] {
        for &force in &[2.0, 4.0, 6.0] {
            let mut rng = StdRng::seed_from_u64(2 + k * 7877);
            k += 1;
            let r = sim
                .measure_press(&model, force, loc, &mut rng)
                .expect("press readable");
            f_errs.push((r.force_n - force).abs());
            l_errs.push((r.location_m - loc).abs() * 1e3);
        }
    }
    let (f_med, l_med) = (median(&f_errs), median(&l_errs));
    assert!(f_med < 0.9, "spectral median force error {f_med} N");
    assert!(l_med < 1.6, "spectral median location error {l_med} mm");
    let f_max = f_errs.iter().cloned().fold(0.0f64, f64::max);
    let l_max = l_errs.iter().cloned().fold(0.0f64, f64::max);
    assert!(f_max < 2.5, "spectral worst force error {f_max} N");
    assert!(l_max < 6.0, "spectral worst location error {l_max} mm");
}

#[test]
fn survives_harsh_fault_injection() {
    // dropped snapshots, tag clock offset, interference bursts — the
    // pipeline must keep estimating, if less precisely
    let mut sim = Simulation::paper_default(2.4e9);
    sim.faults = FaultConfig::harsh();
    let (f_err, l_err) = grid_errors(&sim, 3);
    assert!(f_err < 2.5, "median force error under faults {f_err} N");
    assert!(l_err < 5.0, "median location error under faults {l_err} mm");
}

#[test]
fn fmcw_reader_is_interchangeable() {
    // the waveform-agnostic claim, end to end
    let sim = Simulation::paper_default(0.9e9).with_fmcw_sounder();
    let (f_err, l_err) = grid_errors(&sim, 4);
    assert!(f_err < 1.8, "FMCW median force error {f_err} N");
    assert!(l_err < 3.0, "FMCW median location error {l_err} mm");
}

#[test]
fn fd_mechanics_pipeline_estimates() {
    // full finite-difference contact solver driving the pipeline; the
    // calibration is rebuilt from the same solver so the loop closes
    let mut sim = Simulation::paper_default(2.4e9).with_fd_mechanics();
    sim.reference_groups = 1;
    sim.measure_groups = 1;
    let model = sim.vna_calibration().expect("calibration");
    let mut rng = StdRng::seed_from_u64(5);
    let r = sim
        .measure_press(&model, 4.0, 0.040, &mut rng)
        .expect("press");
    assert!((r.force_n - 4.0).abs() < 1.2, "force {}", r.force_n);
    assert!((r.location_m - 0.040).abs() < 5e-3, "loc {}", r.location_m);
}

#[test]
fn light_touch_reports_untouched() {
    let sim = Simulation::paper_default(0.9e9);
    let model = sim.vna_calibration().expect("calibration");
    let mut rng = StdRng::seed_from_u64(6);
    // 1 mN is far below the touch threshold: no contact, near-zero phases
    let r = sim.measure_press(&model, 0.001, 0.040, &mut rng);
    match r {
        Ok(reading) => assert!(!reading.touched, "phantom touch: {reading:?}"),
        Err(WiForceError::OutOfModelRange { phi1, phi2 }) => {
            // acceptable: tiny phases that the calibrated range excludes
            assert!(phi1.abs() < 0.1 && phi2.abs() < 0.1);
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn deeper_presses_move_phases_monotonically() {
    // end-to-end transduction sanity at 900 MHz: wireless differential
    // phase decreases (short approaching port) as force grows
    let sim = Simulation::paper_default(0.9e9);
    let mut prev = f64::INFINITY;
    for (i, force) in [1.0, 3.0, 5.0, 7.0].iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(7 + i as u64);
        let contact = sim.contact_for(*force, 0.040);
        let d = sim
            .measure_phases(contact.as_ref(), &mut rng)
            .expect("detectable");
        assert!(d.dphi1_rad < prev, "{} !< {prev} at {force} N", d.dphi1_rad);
        prev = d.dphi1_rad;
    }
}

#[test]
fn clock_tracking_rescues_drifting_tag() {
    // a constant tag-clock error (free-running Arduino, §4.4) ramps the
    // line phases between reference and measurement; fixed-bin reading
    // (the paper's) breaks, frequency tracking recovers
    let drift_ppm = 300.0;
    let press = |track: bool| -> f64 {
        let mut sim = Simulation::paper_default(0.9e9);
        sim.faults.tag_clock_ppm = drift_ppm;
        sim.track_tag_clock = track;
        sim.reference_groups = 6;
        sim.patch_position_jitter_m = 0.0;
        sim.patch_edge_jitter_m = 0.0;
        let (v1, _) = sim.vna_phases(4.0, 0.040);
        let contact = sim.contact_for(4.0, 0.040);
        let mut errs = Vec::new();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(0xC10C + seed);
            if let Ok(d) = sim.measure_phases(contact.as_ref(), &mut rng) {
                errs.push(
                    wiforce_dsp::phase::wrap_to_pi(d.dphi1_rad - v1)
                        .to_degrees()
                        .abs(),
                );
            }
        }
        median(&errs)
    };
    let untracked = press(false);
    let tracked = press(true);
    assert!(
        untracked > 3.0,
        "300 ppm drift should corrupt fixed-bin phases, got {untracked}°"
    );
    assert!(tracked < 1.5, "tracking should recover, got {tracked}°");
    assert!(tracked < untracked / 2.0);
}

#[test]
fn tag_discovery_on_real_stream() {
    // the reader shouldn't need to be told fs: discover it from the
    // Doppler spectrum of a raw snapshot stream
    use wiforce::pipeline::{PressNoise, TagClock};
    use wiforce::spectrum::{discover_tags, DopplerSpectrum};

    let sim = Simulation::paper_default(0.9e9);
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);
    let contact = sim.contact_for(4.0, 0.040);
    let snaps = sim.run_snapshots(contact.as_ref(), 2, &mut clock, &mut noise);
    let spec = DopplerSpectrum::compute(snaps.view(), sim.group.snapshot_period_s);
    let tags = discover_tags(&spec, 10.0);
    assert_eq!(tags.len(), 1, "should find exactly the one tag: {tags:?}");
    assert!(
        (tags[0].fs_hz - 1000.0).abs() < 3.0 * spec.resolution_hz(),
        "fs estimate {}",
        tags[0].fs_hz
    );
}
