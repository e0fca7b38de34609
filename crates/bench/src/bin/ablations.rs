//! Regenerates the paper's ablations experiment. Pass `--quick` for a fast
//! smoke run with fewer trials.

use wiforce_bench::experiments::{self, SynthArm};

fn main() {
    let quick = wiforce_bench::montecarlo::quick_mode();
    let report = experiments::ablations::run(quick, SynthArm::default());
    std::process::exit(if report.all_ok() { 0 } else { 1 });
}
