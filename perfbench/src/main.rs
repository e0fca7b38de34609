//! The WiForce repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload press_td|press_spectral|batch8 --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs `Simulation::paper_default(2.4e9)` with default
//! knobs; the only field a workload sets is `synth_spectral`, the
//! synthesis arm under test. `WIFORCE_*` variables are cleared at start.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; `README.md` beside this crate lists the workloads, the metrics
//! and the output checks. The last line of standard output is the result
//! object; a failed check makes it read `"correct": false` and the exit
//! status 1.

mod alloc;
mod batch;
mod press;
mod report;
mod yardstick;

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use report::Metrics;
use wiforce::{SensorModel, Simulation};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PressTd,
    PressSpectral,
    Batch8,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "press_td" => Some(Workload::PressTd),
            "press_spectral" => Some(Workload::PressSpectral),
            "batch8" => Some(Workload::Batch8),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PressTd => "press_td",
            Workload::PressSpectral => "press_spectral",
            Workload::Batch8 => "batch8",
        }
    }
}

/// What a workload's timed run starts from.
pub struct Setup {
    pub sim: Simulation,
    pub model: Arc<SensorModel>,
    pub workers: usize,
}

/// `paper_default` + `vna_calibration` + warm-up: the synthesis
/// calibration probe, worker threads, FFT plans and the channel cache are
/// all live when this returns.
fn setup(workload: Workload) -> Setup {
    let mut sim = Simulation::paper_default(2.4e9);
    sim.synth_spectral = Some(workload != Workload::PressTd);
    let model = Arc::new(
        sim.vna_calibration()
            .expect("VNA calibration of the paper setup"),
    );
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let setup = Setup {
        sim,
        model,
        workers,
    };
    wiforce::calibrate::calibration();
    match workload {
        Workload::Batch8 => batch::warm_up(&setup),
        _ => press::warm_up(&setup),
    }
    setup
}

/// Set-up repeats in fresh processes: the calibration probe and the
/// thread and plan caches are per process, so only a new process pays
/// the whole set-up a user pays.
const SETUP_CHILDREN: usize = 10;

fn setup_in_child(workload: Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-only", workload.name()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up process output: {e}"))
}

/// A seeded generator for stream `id` of a run: distinct ids give
/// independent streams, and the same `(seed, id)` the same stream.
pub fn rng_for(seed: u64, id: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload press_td|press_spectral|batch8 --seed N --seconds S --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                // sample buffers are sized by the run length up front
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every per-layer metric, as `BENCHMARK.json` lists them. A traced run
/// prints all of them; one a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("mech.us_per_press", "us"),
    ("phases.us_per_press", "us"),
    ("phases.em_us_per_press", "us"),
    ("phases.channel_setup_us_per_press", "us"),
    ("phases.synth_self_us_per_press", "us"),
    ("phases.extract_us_per_press", "us"),
    ("invert.us_per_press", "us"),
    ("tracker.us_per_press", "us"),
    ("mech.allocs_per_press", "count"),
    ("phases.allocs_per_press", "count"),
    ("invert.allocs_per_press", "count"),
    ("phases.failed", "count"),
    ("invert.failed", "count"),
    ("layers.sum_ratio", "ratio"),
    ("layers.sum_us_per_press", "us"),
    ("layers.press_us_per_press", "us"),
    ("trace.presses", "count"),
    ("trace.overhead_p50_us", "us"),
    ("channel.response_hits", "count"),
    ("channel.response_misses", "count"),
    ("channel.response_hit_rate", "ratio"),
    ("synth.spectral", "flag"),
    ("synth.wide", "flag"),
    ("synth.chunk_rows", "count"),
    ("batch.groups", "count"),
    ("batch.produce_us_per_group", "us"),
    ("batch.consume_us_per_group", "us"),
    ("batch.worker_busy_share", "ratio"),
    ("batch.worker_busy_ns", "ns"),
    ("batch.worker_wall_ns", "ns"),
    ("batch.group_latency_p50_us", "us"),
    ("batch.group_latency_p99_us", "us"),
    ("batch.backpressure_events", "count"),
    ("batch.groups_dropped", "count"),
    ("batch.stream_failures", "count"),
    ("batch.setup_us_per_run", "us"),
];

/// A workload's result before printing.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub errors: Vec<String>,
}

fn main() -> ExitCode {
    // the workloads run on default knobs; the library reads these once
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("WIFORCE_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }

    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--setup-only") {
        let Some(workload) = argv.nth(1).as_deref().and_then(Workload::parse) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let t0 = Instant::now();
        let _ = setup(workload);
        println!("{}", t0.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut setup_s = Vec::with_capacity(SETUP_CHILDREN + 1);
    let children = if args.trace { 0 } else { SETUP_CHILDREN };
    for _ in 0..children {
        match setup_in_child(args.workload) {
            Ok(s) => setup_s.push(s),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let t0 = Instant::now();
    let ready = setup(args.workload);
    setup_s.push(t0.elapsed().as_secs_f64());
    let machine = report::machine_json();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"machine\": {machine}}}",
        args.workload.name(),
        args.seed
    );

    let mut outcome = match args.workload {
        Workload::Batch8 => batch::run(&ready, args.seed, args.seconds, args.trace, &machine),
        w => press::run(w, &ready, args.seed, args.seconds, args.trace, &machine),
    };
    if args.trace {
        outcome.metrics.fill_missing(&PER_LAYER);
    } else {
        outcome
            .metrics
            .put("setup_s", report::median(&mut setup_s), "s");
        outcome
            .metrics
            .put("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    if !outcome.metrics.all_finite() {
        outcome.errors.push("a metric is not finite".into());
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
