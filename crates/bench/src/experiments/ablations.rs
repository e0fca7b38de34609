//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. Subcarrier averaging (the paper's "averaging gains", §3.3).
//! 2. Phase-group length vs extraction method (orthogonal-N DFT vs LS).
//! 3. Duty-cycled clocking vs the naive 50/50 strawman.
//! 4. Off-state branch reflection magnitude (tag imperfection).
//! 5. Waveform: OFDM vs FMCW sounding (the waveform-agnostic claim).
//! 6. Mechanics: analytic model vs finite-difference contact solver.

use crate::montecarlo::{force_errors, run_sweep, Sweep};
use crate::report::{ExperimentRecord, Report};
use crate::table::{fmt, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::diffphase::Averaging;
use wiforce::harmonics::ExtractionMethod;
use wiforce::pipeline::Simulation;
use wiforce_dsp::stats::{circular_std, Ecdf};

/// Phase repeatability (deg) of a 4 N press at 40 mm under a given sim.
fn phase_std_deg(sim: &Simulation, reads: usize, seed: u64) -> f64 {
    let contact = sim.contact_for(4.0, 0.040);
    let phases: Vec<f64> = (0..reads)
        .filter_map(|i| {
            let mut rng = StdRng::seed_from_u64(seed + i as u64 * 6151);
            sim.measure_phases(contact.as_ref(), &mut rng)
                .ok()
                .map(|d| d.dphi1_rad)
        })
        .collect();
    circular_std(&phases).to_degrees()
}

/// Median force error of a small sweep under a given sim + its own
/// calibration; failed presses (undetected / out of model range) count as
/// a full-scale 8 N error so broken configurations cannot look good by
/// failing silently.
fn median_force_error(sim: &Simulation, trials: usize, seed: u64) -> f64 {
    let model = sim.vna_calibration().expect("calibration");
    let sweep = Sweep {
        locations_m: vec![0.030, 0.050],
        forces_n: vec![1.0, 3.0, 5.0, 7.0],
        trials,
        seed,
    };
    let results = run_sweep(sim, &model, &sweep);
    let mut errs = force_errors(&results);
    errs.extend(results.iter().filter(|r| !r.ok).map(|_| 8.0));
    Ecdf::new(errs).median()
}

/// Runs all ablations.
pub fn run(quick: bool) -> Report {
    let reads = if quick { 4 } else { 8 };
    let trials = if quick { 1 } else { 3 };
    let mut rep = Report::new();

    // 1. subcarrier averaging — the gain shows where per-subcarrier SNR
    // is low (weak links like the phantom/distance cases), so raise the
    // receiver noise floor to that regime
    println!("== Ablation: subcarrier averaging (low-SNR regime) ==\n");
    let mut table = TextTable::new(["combiner", "phase std (°)"]);
    let mut stds = Vec::new();
    for (name, avg) in [
        ("coherent (64 subcarriers)", Averaging::Coherent),
        ("phase mean (64 subcarriers)", Averaging::PhaseMean),
        ("single subcarrier", Averaging::SingleSubcarrier),
    ] {
        let mut sim = Simulation::paper_default(0.9e9);
        sim.frontend.noise_floor = 3e-3; // ~40 dB above the bench floor
        sim.averaging = avg;
        let s = phase_std_deg(&sim, reads, 0xAB1);
        table.row([name.to_string(), fmt(s, 3)]);
        stds.push(s);
    }
    println!("{}", table.render());
    rep.push(ExperimentRecord::new(
        "Ablation 1",
        "subcarrier averaging gain",
        "averaging improves phase robustness (§3.3)",
        format!("coherent {:.3}° vs single {:.3}°", stds[0], stds[2]),
        stds[0] < 0.5 * stds[2],
        "coherent std < 0.5× single-subcarrier std at low SNR",
    ));

    // 2. group length / extraction method — paired comparison: identical
    // snapshot streams (same seed) through the plain mean-subtracted DFT
    // vs the joint LS extractor. At the orthogonal N=625 they agree; at a
    // non-orthogonal N=125 the DFT picks up cross-line leakage and the
    // two diverge, quantifying exactly the leakage LS removes.
    println!("== Ablation: phase-group length and extraction ==\n");
    let extraction_gap = |n: usize| -> f64 {
        let contact_sim = Simulation::paper_default(0.9e9);
        let contact = contact_sim.contact_for(4.0, 0.040);
        let mut acc = 0.0;
        let mut count = 0usize;
        for i in 0..reads {
            let dphi = |method: ExtractionMethod| -> Option<f64> {
                let mut sim = Simulation::paper_default(0.9e9);
                sim.group.n_snapshots = n;
                sim.group.method = method;
                // both extractors on the time-domain arm: the spectral arm
                // models only the DFT, so LS would fall back and the gap
                // would compare two noise realizations, not two extractors
                sim.synth_spectral = Some(false);
                let mut rng = StdRng::seed_from_u64(0xAB2 + i as u64 * 6151);
                sim.measure_phases(contact.as_ref(), &mut rng)
                    .ok()
                    .map(|d| d.dphi1_rad)
            };
            if let (Some(a), Some(b)) = (
                dphi(ExtractionMethod::MeanSubtractedDft),
                dphi(ExtractionMethod::LeastSquares),
            ) {
                acc += wiforce_dsp::phase::wrap_to_pi(a - b).abs();
                count += 1;
            }
        }
        (acc / count.max(1) as f64).to_degrees()
    };
    let gap_625 = extraction_gap(625);
    let gap_125 = extraction_gap(125);
    let mut table = TextTable::new(["group length", "latency (ms)", "DFT-vs-LS gap (°)"]);
    table.row([
        "N=625 (orthogonal)".to_string(),
        fmt(36.0, 1),
        fmt(gap_625, 4),
    ]);
    table.row(["N=125 (leaky)".to_string(), fmt(7.2, 1), fmt(gap_125, 4)]);
    println!("{}", table.render());
    rep.push(ExperimentRecord::new(
        "Ablation 2",
        "short-group leakage and the LS fix",
        "non-orthogonal N leaks; joint LS removes it",
        format!("gap {gap_625:.3}° at N=625 vs {gap_125:.3}° at N=125"),
        gap_625 < 0.2 && gap_125 > 2.0 * gap_625.max(0.02),
        "extractors agree at N=625, diverge at N=125",
    ));

    // 3. clocking scheme end-to-end
    println!("== Ablation: WiForce clocking vs naive 50/50 ==\n");
    let base = Simulation::paper_default(0.9e9);
    let err_wf = median_force_error(&base, trials, 0xAB3);
    let mut naive = Simulation::paper_default(0.9e9);
    naive.tag = naive.tag.with_naive_clocks();
    naive.group.line2_hz = 2.0 * 1000.0; // naive port-2 line sits at 2fs
    let err_naive = median_force_error(&naive, trials, 0xAB4);
    println!("median force error: WiForce {err_wf:.2} N, naive clocking {err_naive:.2} N\n");
    rep.push(ExperimentRecord::new(
        "Ablation 3",
        "duty-cycled clocking necessity",
        "naive clocks intermodulate (Fig. 7)",
        format!("WiForce {err_wf:.2} N vs naive {err_naive:.2} N"),
        err_naive > 1.5 * err_wf,
        "naive median error > 1.5× WiForce",
    ));

    // 4. off-branch reflection sweep
    println!("== Ablation: off-state branch reflection magnitude ==\n");
    let mut table = TextTable::new(["|Γ_off-branch|", "median force err (N)"]);
    let mut errs = Vec::new();
    for b in [0.0, 0.01, 0.05, 0.15, 0.30] {
        let mut sim = Simulation::paper_default(0.9e9);
        sim.tag.switch1.off_branch_mag = b;
        sim.tag.switch2.off_branch_mag = b;
        let e = median_force_error(&sim, trials, 0xAB5);
        table.row([fmt(b, 2), fmt(e, 3)]);
        errs.push(e);
    }
    println!("{}", table.render());
    rep.push(ExperimentRecord::new(
        "Ablation 4",
        "branch-reflection sensitivity",
        "(modelling choice — see DESIGN.md)",
        format!("err at |Γ|=0: {:.2} N, at 0.3: {:.2} N", errs[0], errs[4]),
        errs[4] > errs[0],
        "error grows with off-branch reflection",
    ));

    // 5. waveform agnosticism
    println!("== Ablation: OFDM vs FMCW sounding ==\n");
    let err_ofdm = err_wf;
    let fmcw = Simulation::paper_default(0.9e9).with_fmcw_sounder();
    let err_fmcw = median_force_error(&fmcw, trials, 0xAB6);
    println!("median force error: OFDM {err_ofdm:.2} N, FMCW {err_fmcw:.2} N\n");
    rep.push(ExperimentRecord::new(
        "Ablation 5",
        "waveform-agnostic sounding (§3.3)",
        "any periodic wideband estimate works",
        format!("OFDM {err_ofdm:.2} N vs FMCW {err_fmcw:.2} N"),
        err_fmcw < 2.5 * err_ofdm + 0.2,
        "FMCW within 2.5× of OFDM",
    ));

    // 6. mechanics model
    println!("== Ablation: analytic vs finite-difference mechanics ==\n");
    let fd = Simulation::paper_default(0.9e9).with_fd_mechanics();
    let err_fd = median_force_error(&fd, if quick { 1 } else { 2 }, 0xAB7);
    println!("median force error: analytic {err_wf:.2} N, FD solver {err_fd:.2} N\n");
    rep.push(ExperimentRecord::new(
        "Ablation 6",
        "mechanics-model consistency",
        "(reproduction check)",
        format!("analytic {err_wf:.2} N vs FD {err_fd:.2} N"),
        err_fd < 1.5,
        "FD-driven pipeline still estimates (< 1.5 N median)",
    ));

    // 7. calibration source: VNA vs over-the-air self-calibration
    println!("== Ablation: VNA vs wireless calibration ==\n");
    let sim = Simulation::paper_default(2.4e9);
    let err_vna = {
        let model = sim.vna_calibration().expect("calibration");
        let sweep = Sweep {
            locations_m: vec![0.030, 0.050],
            forces_n: vec![1.0, 3.0, 5.0, 7.0],
            trials,
            seed: 0xAB8,
        };
        let results = run_sweep(&sim, &model, &sweep);
        Ecdf::new(force_errors(&results)).median()
    };
    let err_wireless = {
        let mut rng = StdRng::seed_from_u64(0xAB9);
        let model = sim
            .wireless_calibration_at(
                &[0.020, 0.030, 0.040, 0.050, 0.060],
                8,
                if quick { 1 } else { 2 },
                &mut rng,
            )
            .expect("wireless calibration");
        let sweep = Sweep {
            locations_m: vec![0.030, 0.050],
            forces_n: vec![1.0, 3.0, 5.0, 7.0],
            trials,
            seed: 0xAB8,
        };
        let results = run_sweep(&sim, &model, &sweep);
        Ecdf::new(force_errors(&results)).median()
    };
    println!("median force error: VNA-calibrated {err_vna:.2} N, wireless-calibrated {err_wireless:.2} N\n");
    rep.push(ExperimentRecord::new(
        "Ablation 7",
        "VNA-free self-calibration",
        "(deployment extension)",
        format!("VNA {err_vna:.2} N vs wireless {err_wireless:.2} N"),
        err_wireless < 2.0 * err_vna + 0.3,
        "wireless calibration within 2× of VNA",
    ));

    println!("{}", rep.to_console());
    rep
}
