//! Regenerates Fig. 13 (force-error CDFs at 900 MHz and 2.4 GHz).
//! Pass `--quick` for a fast smoke run.

use wiforce_bench::experiments::{self, SynthArm};

fn main() {
    let quick = wiforce_bench::montecarlo::quick_mode();
    let (rep13, _) = experiments::fig13_14::run_figs(quick, SynthArm::default());
    std::process::exit(if rep13.all_ok() { 0 } else { 1 });
}
