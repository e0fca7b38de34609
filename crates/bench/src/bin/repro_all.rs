//! Runs every reproduced experiment and rewrites the paper-vs-measured
//! sections of EXPERIMENTS.md. Pass `--quick` for a fast smoke run, and
//! `--health-json <path>` to run with telemetry enabled and write the
//! merged [`wiforce_telemetry::PipelineHealth`] report of the whole
//! reproduction (sweep workers' telemetry is folded back in press-index
//! order, so the report is identical for any thread count).
//! `--synth-mode td|spectral` picks the synthesis arm every simulation
//! runs on (default `td`, the bit-pinned time-domain reference).
//!
//! `--out <file>` rewrites the sections of `<file>` instead of the
//! checkout's EXPERIMENTS.md (whose path is fixed when the binary is
//! compiled); `--out` or `--health-json` without a path, or an unknown
//! `--synth-mode`, is an error (exit 2), not a fall-back to a default.
//! Text outside the sections is kept, so a copy of EXPERIMENTS.md
//! regenerated this way can be diffed against the committed file:
//!
//! ```text
//! cp EXPERIMENTS.md /tmp/exp.md
//! cargo run --release -p wiforce-bench --bin repro_all -- --out /tmp/exp.md
//! diff EXPERIMENTS.md /tmp/exp.md
//! ```

use wiforce_bench::experiments::{self as exp, SynthArm};
use wiforce_bench::Report;

/// Value of `<flag> <what>` in `argv`: `None` when the flag is absent,
/// an error when it is the last argument or followed by another flag —
/// falling back to the default path there would rewrite the checkout's
/// EXPERIMENTS.md the caller meant to leave alone.
fn flag_value(argv: &[String], flag: &str, what: &str) -> Result<Option<String>, String> {
    let Some(i) = argv.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match argv.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{flag} needs {what}")),
    }
}

/// `(--health-json, --out, --synth-mode)` from `argv`.
fn parse_args(argv: &[String]) -> Result<(Option<String>, Option<String>, SynthArm), String> {
    let health_out = flag_value(argv, "--health-json", "a path")?;
    let out = flag_value(argv, "--out", "a path")?;
    let arm = match flag_value(argv, "--synth-mode", "td or spectral")? {
        Some(mode) => SynthArm::parse(&mode)?,
        None => SynthArm::default(),
    };
    Ok((health_out, out, arm))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let (health_out, out, arm) = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let quick = wiforce_bench::montecarlo::quick_mode();
    if health_out.is_some() {
        wiforce_telemetry::reset();
        wiforce_telemetry::set_enabled(true);
    }
    let path = out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| exp::repo_root().join("EXPERIMENTS.md"));
    println!("writing results to {}\n", path.display());

    let mut all_ok = true;
    let mut write = |section: &str, report: Report| {
        all_ok &= report.all_ok();
        report
            .write_section(&path, section)
            .expect("write the results file");
    };

    write(
        "Fig. 4c — transduction: thin trace vs soft beam",
        exp::fig04::run(quick),
    );
    write(
        "Fig. 5b — per-port phase-force profiles",
        exp::fig05::run(quick),
    );
    write(
        "Fig. 7/8 — clocking and intermodulation",
        exp::fig07::run(quick),
    );
    write("Fig. 10 — sensor S-parameters", exp::fig10::run(quick));
    let (rep13, rep14) = exp::fig13_14::run_figs(quick, arm);
    write("Fig. 13 — force error CDFs", rep13);
    write("Fig. 14 — location error CDFs", rep14);
    write("Fig. 16 — tissue phantom", exp::fig16::run(quick, arm));
    write("Fig. 17 — fingertip presses", exp::fig17::run(quick, arm));
    write("Fig. 18 — distance sweep", exp::fig18::run(quick, arm));
    write("Fig. 19 — ratio optimization", exp::fig19::run(quick));
    write(
        "Table 1 — VNA vs model vs wireless",
        exp::table1::run(quick, arm),
    );
    write(
        "§4.3 — power budget & §6 battery-free feasibility",
        exp::power::run(quick),
    );
    write(
        "§3.3 — Doppler separation vs moving clutter",
        exp::doppler::run(quick, arm),
    );
    write("Ablations", exp::ablations::run(quick, arm));
    write(
        "Extension — hysteresis loop",
        exp::hysteresis::run(quick, arm),
    );

    if let Some(out) = health_out {
        wiforce_telemetry::set_enabled(false);
        let report = wiforce_telemetry::PipelineHealth::collect();
        std::fs::write(&out, report.to_json()).expect("write health report");
        println!("wrote health report to {out}");
    }

    println!(
        "\nall criteria {}",
        if all_ok { "PASSED" } else { "had FAILURES" }
    );
    std::process::exit(if all_ok { 0 } else { 1 });
}
