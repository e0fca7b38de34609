//! Regenerates the hysteresis-loop extension experiment. Pass `--quick`
//! for fewer ramp steps.

use wiforce_bench::experiments::{self, SynthArm};

fn main() {
    let quick = wiforce_bench::montecarlo::quick_mode();
    let report = experiments::hysteresis::run(quick, SynthArm::default());
    std::process::exit(if report.all_ok() { 0 } else { 1 });
}
