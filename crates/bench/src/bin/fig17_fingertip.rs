//! Regenerates the paper's fig17 experiment. Pass `--quick` for a fast
//! smoke run with fewer trials.

use wiforce_bench::experiments::{self, SynthArm};

fn main() {
    let quick = wiforce_bench::montecarlo::quick_mode();
    let report = experiments::fig17::run(quick, SynthArm::default());
    std::process::exit(if report.all_ok() { 0 } else { 1 });
}
