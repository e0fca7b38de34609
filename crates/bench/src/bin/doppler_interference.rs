//! Regenerates the §3.3 Doppler-separation experiment (moving clutter vs
//! the tag's modulation lines). Pass `--quick` for fewer reads.

use wiforce_bench::experiments::{self, SynthArm};

fn main() {
    let quick = wiforce_bench::montecarlo::quick_mode();
    let report = experiments::doppler::run(quick, SynthArm::default());
    std::process::exit(if report.all_ok() { 0 } else { 1 });
}
