//! Regenerates Fig. 14 (location-error CDFs at 900 MHz and 2.4 GHz).
//! Pass `--quick` for a fast smoke run.

use wiforce_bench::experiments::{self, SynthArm};

fn main() {
    let quick = wiforce_bench::montecarlo::quick_mode();
    let (_, rep14) = experiments::fig13_14::run_figs(quick, SynthArm::default());
    std::process::exit(if rep14.all_ok() { 0 } else { 1 });
}
