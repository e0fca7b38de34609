//! `wiforce-cli` — command-line driver for the WiForce reproduction.
//!
//! ```text
//! wiforce-cli press    [--carrier-ghz 2.4] [--force 4.0] [--location-mm 40] [--seed 11]
//! wiforce-cli sweep    [--carrier-ghz 2.4] [--trials 3]  [--seed 7]
//! wiforce-cli record   --out capture.wifs [--carrier-ghz 2.4] [--force 4.0]
//!                      [--location-mm 40] [--groups 4] [--seed 11]
//! wiforce-cli replay   --in capture.wifs [--carrier-ghz 2.4]
//! wiforce-cli spectrum --in capture.wifs [--snr-db 10] [--waterfall 1]
//! wiforce-cli calibrate --out model.wfm [--carrier-ghz 2.4]
//! wiforce-cli health   [--health-json health.json] [--carrier-ghz 2.4] [--seed 11]
//! wiforce-cli serve    [--streams 4] [--presses 4] [--readers 1] [--workers 4]
//!                      [--queue 4] [--faults none|harsh|saturating] [--seed 5]
//!                      [--overflow stall|drop-newest] [--throttle-ms N]
//!                      [--watch 1] [--trace t.json] [--metrics m.prom]
//! wiforce-cli trace    --out trace.json [serve flags]
//! wiforce-cli metrics  [--out metrics.prom] [serve flags]
//! ```
//!
//! `serve` drives the multi-stream batch engine (`wiforce::batch`): it
//! builds `--readers` simulated reader front ends, each carrying
//! `--streams` frequency-multiplexed tags with `--presses` scheduled
//! presses per stream, and runs them through `run_batch` on a
//! `--workers`-thread pool with `--queue`-deep per-stream snapshot
//! queues. It prints a per-stream result table plus aggregate throughput,
//! latency, and backpressure statistics. Health windows (rolling
//! latency percentiles + degradation flags per stream) are aggregated
//! during the run; `--watch 1` streams each completed window to stderr
//! as single-line JSON while the batch is still running.
//!
//! `trace` runs the same workload with the per-worker trace rings
//! enabled and writes a Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) with one lane per worker thread, span events for
//! every instrumented stage, flow arrows for produce→consume and fused
//! synth→extract handoffs, and queue-depth counter tracks. `metrics`
//! runs it with the metrics registry enabled and emits Prometheus text
//! exposition (per-stream and per-worker series) to `--out` or stdout.
//! The same exports ride along with `serve` via `--trace`/`--metrics`.
//!
//! `press` and `replay` accept `--model model.wfm` to reuse a saved
//! calibration instead of re-deriving it.
//!
//! `press`, `sweep`, `replay`, and `health` accept `--health-json <path>`:
//! the telemetry recorder is enabled for the run and the aggregated
//! [`wiforce_telemetry::PipelineHealth`] report (per-stage latency
//! percentiles, harmonic SNR gauges, estimator lock state, fault
//! counters) is written to the path as JSON. The `health` command
//! exercises the whole stack — calibrated press, streaming estimator
//! with tracking, and the sample-level stream receiver — so its report
//! covers every subsystem; with no `--health-json` it prints the JSON to
//! stdout.
//!
//! Argument parsing is deliberately dependency-free (`--key value` pairs).
//! Each command accepts only the flags it reads; any other flag fails
//! with `unknown flag --x for <cmd>` and the usage text.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;
use wiforce::batch::{run_batch_observed, BatchConfig, BatchReport, OverflowPolicy, ReaderSpec};
use wiforce::estimator::{EstimatorConfig, ForceEstimator};
use wiforce::pipeline::{PressNoise, Simulation, TagClock};
use wiforce::record::Recording;
use wiforce::spectrum::{discover_tags, DopplerSpectrum};
use wiforce::tracking::{Tracker, TrackerConfig};
use wiforce_channel::faults::FaultConfig;
use wiforce_telemetry::{metrics, trace, AggregatorConfig, PipelineHealth, StreamWindow};

/// Minimal `--key value` argument map.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            let Some(value) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args { pairs })
    }

    /// Rejects any flag `cmd` does not read (see [`accepted_flags`]), so
    /// a typo or a retired flag fails instead of silently running another
    /// configuration. Unknown commands pass through to the dispatcher.
    fn check_flags(self, cmd: &str) -> Result<Self, String> {
        if let Some(accepted) = accepted_flags(cmd) {
            if let Some((name, _)) = self
                .pairs
                .iter()
                .find(|(k, _)| !accepted.contains(&k.as_str()))
            {
                return Err(format!("unknown flag --{name} for {cmd}"));
            }
        }
        Ok(self)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => match v.parse::<f64>() {
                Err(_) => Err(format!("--{name}: '{v}' is not a number")),
                Ok(x) if !x.is_finite() => Err(format!("--{name}: '{v}' is not a finite number")),
                Ok(x) => Ok(x),
            },
        }
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: '{v}' is not an integer")),
        }
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.get(name)
            .map(PathBuf::from)
            .ok_or(format!("missing required --{name}"))
    }
}

/// The flags each command reads, or `None` for an unknown command.
fn accepted_flags(cmd: &str) -> Option<Vec<&'static str>> {
    // read by `run_serve_workload`, shared by serve, trace and metrics
    const SERVE_WORKLOAD: [&str; 13] = [
        "carrier-ghz",
        "model",
        "synth-mode",
        "streams",
        "presses",
        "readers",
        "workers",
        "queue",
        "seed",
        "faults",
        "overflow",
        "throttle-ms",
        "watch",
    ];
    let own: &[&'static str] = match cmd {
        "press" | "health" => &[
            "carrier-ghz",
            "force",
            "location-mm",
            "seed",
            "model",
            "health-json",
        ],
        "sweep" => &["carrier-ghz", "trials", "seed", "health-json"],
        "record" => &[
            "carrier-ghz",
            "out",
            "force",
            "location-mm",
            "groups",
            "seed",
        ],
        "replay" => &["carrier-ghz", "in", "model", "health-json"],
        "spectrum" => &["in", "snr-db", "waterfall"],
        "calibrate" => &["carrier-ghz", "out"],
        "serve" => &["health-json", "trace", "metrics"],
        "trace" | "metrics" => &["out"],
        _ => return None,
    };
    let workload: &[&'static str] = match cmd {
        "serve" | "trace" | "metrics" => &SERVE_WORKLOAD,
        _ => &[],
    };
    Some(own.iter().chain(workload).copied().collect())
}

fn usage() -> &'static str {
    "usage: wiforce-cli <press|sweep|record|replay|spectrum|calibrate|health|serve|trace|metrics> [--key value ...]\n\
     \n\
     press    simulate one calibrated press and print the estimate\n\
     sweep    run a small Monte-Carlo press sweep and print error medians\n\
     record   capture a snapshot stream (reference + press) to a .wifs file\n\
     replay   run the streaming estimator over a .wifs capture\n\
     spectrum Doppler spectrum + tag discovery of a .wifs capture\n\
     calibrate derive the sensor model and save it to a .wfm file\n\
     health   run the full stack with telemetry on and emit a health report\n\
     serve    run N frequency-multiplexed streams through the batch engine\n\
     trace    run the serve workload with trace rings on; write Chrome trace JSON\n\
     metrics  run the serve workload with the metrics registry on; emit Prometheus text\n\
     \n\
     flags (a command rejects any flag it does not read):\n\
     press/health: --carrier-ghz F  --force N  --location-mm MM  --seed N  --model F.wfm\n\
     sweep:     --carrier-ghz F  --trials N  --seed N\n\
     record:    --out F.wifs  --carrier-ghz F  --force N  --location-mm MM  --groups N  --seed N\n\
     replay:    --in F.wifs  --carrier-ghz F  --model F.wfm\n\
     spectrum:  --in F.wifs  --snr-db DB  --waterfall 1\n\
     calibrate: --out F.wfm  --carrier-ghz F\n\
     press/sweep/replay/health/serve: --health-json PATH  write a PipelineHealth report\n\
     serve/trace/metrics: --streams N  --presses N  --readers N  --workers N  --queue N\n\
     \x20       --faults none|harsh|saturating  --overflow stall|drop-newest\n\
     \x20       --throttle-ms N  --watch 1  --carrier-ghz F  --seed N  --model F.wfm\n\
     \x20       --synth-mode auto|spectral|td  pin the synthesis arm\n\
     serve: --trace PATH  --metrics PATH    trace: --out PATH    metrics: --out PATH"
}

/// `--health-json` handling: when the flag is present, [`enable`]
/// switches the telemetry recorder on for the run and [`finish`] writes
/// the aggregated report; without the flag both are no-ops.
struct HealthSink {
    out: Option<PathBuf>,
}

impl HealthSink {
    fn enable(args: &Args) -> HealthSink {
        let out = args.get("health-json").map(PathBuf::from);
        if out.is_some() {
            wiforce_telemetry::reset();
            wiforce_telemetry::set_enabled(true);
        }
        HealthSink { out }
    }

    fn finish(self) -> Result<(), String> {
        let Some(path) = self.out else { return Ok(()) };
        wiforce_telemetry::set_enabled(false);
        let health = PipelineHealth::collect();
        std::fs::write(&path, health.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote health report to {}", path.display());
        Ok(())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(rest).and_then(|a| a.check_flags(cmd)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "press" => cmd_press(&args),
        "sweep" => cmd_sweep(&args),
        "record" => cmd_record(&args),
        "replay" => cmd_replay(&args),
        "spectrum" => cmd_spectrum(&args),
        "calibrate" => cmd_calibrate(&args),
        "health" => cmd_health(&args),
        "serve" => cmd_serve(&args),
        "trace" => cmd_trace(&args),
        "metrics" => cmd_metrics(&args),
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn sim_from(args: &Args) -> Result<Simulation, String> {
    let carrier = args.f64_or("carrier-ghz", 2.4)? * 1e9;
    if !(0.3e9..=6.0e9).contains(&carrier) {
        return Err("carrier must be between 0.3 and 6 GHz".into());
    }
    Ok(Simulation::paper_default(carrier))
}

/// Loads `--model file.wfm` if given, else calibrates from scratch.
fn model_from(args: &Args, sim: &Simulation) -> Result<wiforce::SensorModel, String> {
    match args.get("model") {
        Some(path) => wiforce::SensorModel::load(std::path::Path::new(path))
            .map_err(|e| format!("loading model: {e}")),
        None => sim.vna_calibration().map_err(|e| e.to_string()),
    }
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let sim = sim_from(args)?;
    let out = args.path("out")?;
    let model = sim.vna_calibration().map_err(|e| e.to_string())?;
    model.save(&out).map_err(|e| e.to_string())?;
    println!(
        "calibrated at {:?} mm, saved to {}",
        model
            .locations_m()
            .iter()
            .map(|m| (m * 1e3).round())
            .collect::<Vec<_>>(),
        out.display()
    );
    Ok(())
}

fn cmd_press(args: &Args) -> Result<(), String> {
    let sim = sim_from(args)?;
    let force = args.f64_or("force", 4.0)?;
    let loc = args.f64_or("location-mm", 40.0)? * 1e-3;
    let seed = args.u64_or("seed", 11)?;
    let model = model_from(args, &sim)?;
    let health = HealthSink::enable(args);
    let mut rng = StdRng::seed_from_u64(seed);
    let r = sim
        .measure_press(&model, force, loc, &mut rng)
        .map_err(|e| e.to_string())?;
    println!("applied:   {force:.2} N at {:.1} mm", loc * 1e3);
    println!(
        "estimated: {:.2} N at {:.1} mm  (φ1 {:.1}°, φ2 {:.1}°, residual {:.2}°)",
        r.force_n,
        r.location_m * 1e3,
        r.dphi1_rad.to_degrees(),
        r.dphi2_rad.to_degrees(),
        r.residual_rad.to_degrees()
    );
    health.finish()
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let sim = sim_from(args)?;
    let trials = args.u64_or("trials", 3)? as usize;
    let seed = args.u64_or("seed", 7)?;
    let model = sim.vna_calibration().map_err(|e| e.to_string())?;
    let health = HealthSink::enable(args);
    let mut f_errs = Vec::new();
    let mut l_errs = Vec::new();
    let mut k = 0u64;
    for &loc in &[0.020, 0.040, 0.055, 0.060] {
        for &force in &[1.0, 2.5, 4.0, 5.5, 7.0] {
            for _ in 0..trials {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(k.wrapping_mul(6151)));
                k += 1;
                if let Ok(r) = sim.measure_press(&model, force, loc, &mut rng) {
                    f_errs.push((r.force_n - force).abs());
                    l_errs.push((r.location_m - loc).abs() * 1e3);
                }
            }
        }
    }
    println!("{} presses decoded", f_errs.len());
    println!(
        "median force error:    {:.2} N",
        wiforce_dsp::stats::median(&f_errs)
    );
    println!(
        "median location error: {:.2} mm",
        wiforce_dsp::stats::median(&l_errs)
    );
    health.finish()
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let sim = sim_from(args)?;
    let out = args.path("out")?;
    let force = args.f64_or("force", 4.0)?;
    let loc = args.f64_or("location-mm", 40.0)? * 1e-3;
    let groups = args.u64_or("groups", 4)? as usize;
    let seed = args.u64_or("seed", 11)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);
    // half the capture untouched (reference), half pressed
    let ref_groups = groups.div_ceil(2);
    let mut snaps = sim.run_snapshots(None, ref_groups, &mut clock, &mut noise);
    let contact = sim.jittered_contact(force, loc, &mut rng);
    sim.run_snapshots_into(
        contact.as_ref(),
        groups - ref_groups,
        &mut clock,
        &mut noise,
        &mut snaps,
    );
    let rec = Recording::new(sim.group.snapshot_period_s, snaps);
    rec.save(&out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} snapshots × {} subcarriers ({:.1} ms) to {}",
        rec.len(),
        rec.n_subcarriers(),
        rec.duration_s() * 1e3,
        out.display()
    );
    println!(
        "(first {ref_groups} groups untouched, then {force} N at {:.0} mm)",
        loc * 1e3
    );
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let sim = sim_from(args)?;
    let input = args.path("in")?;
    let rec = Recording::load(&input).map_err(|e| e.to_string())?;
    if (rec.snapshot_period_s - sim.group.snapshot_period_s).abs() > 1e-9 {
        return Err(format!(
            "capture period {:.2} µs doesn't match the reader's {:.2} µs",
            rec.snapshot_period_s * 1e6,
            sim.group.snapshot_period_s * 1e6
        ));
    }
    let model = model_from(args, &sim)?;
    let health = HealthSink::enable(args);
    let cfg = EstimatorConfig {
        group: sim.group,
        reference_groups: 1,
        ..EstimatorConfig::wiforce(1000.0)
    };
    let mut est = ForceEstimator::new(cfg, model);
    let mut n_readings = 0;
    for (i, snap) in rec.snapshots.rows().enumerate() {
        match est.push_snapshot(snap) {
            Ok(Some(r)) if r.touched => {
                n_readings += 1;
                println!(
                    "t={:7.1} ms  {:.2} N at {:.1} mm",
                    (i + 1) as f64 * rec.snapshot_period_s * 1e3,
                    r.force_n,
                    r.location_m * 1e3
                );
            }
            Ok(Some(_)) => {
                n_readings += 1;
                println!(
                    "t={:7.1} ms  untouched",
                    (i + 1) as f64 * rec.snapshot_period_s * 1e3
                );
            }
            Ok(None) => {}
            Err(e) => println!(
                "t={:7.1} ms  {e}",
                (i + 1) as f64 * rec.snapshot_period_s * 1e3
            ),
        }
    }
    println!("{n_readings} readings from {} snapshots", rec.len());
    health.finish()
}

fn cmd_spectrum(args: &Args) -> Result<(), String> {
    let input = args.path("in")?;
    let snr_db = args.f64_or("snr-db", 10.0)?;
    let rec = Recording::load(&input).map_err(|e| e.to_string())?;
    if rec.len() < 2 {
        return Err("capture too short for a spectrum".into());
    }
    let spec = DopplerSpectrum::compute(rec.snapshots.view(), rec.snapshot_period_s);
    println!(
        "Doppler spectrum: {} bins, {:.1} Hz resolution, floor {:.3e}",
        spec.power.len(),
        spec.resolution_hz(),
        spec.floor()
    );
    let peaks = spec.peaks(snr_db);
    println!("peaks ≥ {snr_db} dB above floor:");
    for (f, p) in peaks.iter().take(12) {
        println!("  {f:8.1} Hz  power {p:.3e}");
    }
    let tags = discover_tags(&spec, snr_db);
    if tags.is_empty() {
        println!("no WiForce tags discovered");
    } else {
        for t in tags {
            println!(
                "discovered tag: fs = {:.1} Hz (lines at {:.1} / {:.1} Hz)",
                t.fs_hz,
                t.fs_hz,
                4.0 * t.fs_hz
            );
        }
    }

    if args.u64_or("waterfall", 0)? != 0 {
        println!("\nwaterfall (per-frame dominant Doppler):");
        // collapse subcarriers (coherent mean) into one sequence
        let k = rec.n_subcarriers().max(1) as f64;
        let seq: Vec<wiforce_dsp::Complex> = rec
            .snapshots
            .rows()
            .map(|snap| snap.iter().copied().sum::<wiforce_dsp::Complex>() / k)
            .collect();
        let frame = (rec.len() / 4).clamp(64, 512);
        let sg =
            wiforce_dsp::stft::spectrogram(&seq, 1.0 / rec.snapshot_period_s, frame, frame / 2);
        let envelope = sg.frame_power();
        for (t, power) in envelope.iter().enumerate() {
            println!(
                "  t={:7.1} ms  peak {:7.1} Hz  power {:.3e}",
                sg.times_s[t] * 1e3,
                sg.peak_frequency_hz(t),
                power
            );
        }
    }
    Ok(())
}

/// Runs every subsystem once with telemetry enabled — a calibrated press
/// (mechanics, EM transduction, channel, sounder, fault injection,
/// harmonic extraction, model inversion), the streaming estimator with
/// Kalman tracking, and the sample-level stream receiver — then emits the
/// aggregated [`PipelineHealth`] report.
fn cmd_health(args: &Args) -> Result<(), String> {
    let sim = sim_from(args)?;
    let force = args.f64_or("force", 4.0)?;
    let loc = args.f64_or("location-mm", 40.0)? * 1e-3;
    let seed = args.u64_or("seed", 11)?;
    let model = model_from(args, &sim)?;

    // surface which SIMD backend the DSP kernels dispatched to (stderr,
    // so piped JSON output stays clean); WIFORCE_FORCE_SCALAR=1 shows the
    // scalar fallback here
    eprintln!(
        "dsp kernels: {} backend{}",
        wiforce_dsp::kernels::backend().name(),
        if wiforce_dsp::kernels::forced_scalar() {
            " (WIFORCE_FORCE_SCALAR)"
        } else {
            ""
        }
    );
    for (kernel, backend) in wiforce_dsp::kernels::active_kernels() {
        eprintln!("  {kernel:<24} {backend}");
    }

    wiforce_telemetry::reset();
    wiforce_telemetry::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. one calibrated press through the batch pipeline
    sim.measure_press(&model, force, loc, &mut rng)
        .map_err(|e| e.to_string())?;

    // 2. streaming estimator + tracker over a quiet-then-pressed stream
    let cfg = EstimatorConfig {
        group: sim.group,
        reference_groups: 1,
        ..EstimatorConfig::wiforce(1000.0)
    };
    let mut est = ForceEstimator::new(cfg, model);
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);
    let quiet = sim.run_snapshots(None, 1, &mut clock, &mut noise);
    for s in quiet.rows() {
        let _ = est.push_snapshot(s).map_err(|e| e.to_string())?;
    }
    let contact = sim.jittered_contact(force, loc, &mut rng);
    let pressed = sim.run_snapshots(contact.as_ref(), 1, &mut clock, &mut noise);
    for s in pressed.rows() {
        if let Some(r) = est.push_snapshot(s).map_err(|e| e.to_string())? {
            tracker.update(&r);
        }
    }

    // 3. sample-level receiver: preamble sync + per-frame channel decode
    let sounder = wiforce_reader::ofdm::OfdmSounder::wiforce();
    let chans: Vec<Vec<wiforce_dsp::Complex>> = (0..4)
        .map(|f| {
            (0..sounder.n_subcarriers)
                .map(|k| wiforce_dsp::Complex::from_polar(0.5, 0.02 * k as f64 + 0.05 * f as f64))
                .collect()
        })
        .collect();
    let rx = wiforce_reader::stream::simulate_rx_stream(&sounder, &chans, 1e-4, 64, &mut rng);
    let receiver = wiforce_reader::stream::StreamReceiver::new(sounder);
    if receiver.process(&rx).is_none() {
        return Err("stream receiver failed to sync".into());
    }

    // cache gauges are end-of-run only (mid-run readings of the shared
    // memo counters are scheduling-dependent)
    sim.emit_cache_gauges();
    wiforce_telemetry::set_enabled(false);
    let report = PipelineHealth::collect();
    match args.get("health-json") {
        Some(path) => {
            std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote health report to {path}");
        }
        None => print!("{}", report.to_json()),
    }
    Ok(())
}

/// Runs the `serve`-shaped batch workload from the shared flag set.
/// Health windows are always aggregated; with `--watch 1` each completed
/// window is streamed to stderr as single-line JSON while the batch
/// runs. Returns the report plus the reader/worker counts for display.
fn run_serve_workload(args: &Args) -> Result<(BatchReport, usize, usize), String> {
    let mut sim = sim_from(args)?;
    // pin the synthesis arm regardless of WIFORCE_SYNTH_SPECTRAL;
    // "auto" keeps the env selection. spectral falls back to the
    // time-domain arm per-reader when the scene is ineligible.
    match args.get("synth-mode").unwrap_or("auto") {
        "auto" => {}
        "spectral" => sim.synth_spectral = Some(true),
        "td" => sim.synth_spectral = Some(false),
        other => return Err(format!("--synth-mode '{other}': expected auto|spectral|td")),
    }
    let streams = args.u64_or("streams", 4)?.max(1) as usize;
    let presses = args.u64_or("presses", 4)?.max(1) as usize;
    let readers = args.u64_or("readers", 1)?.max(1) as usize;
    let workers = args.u64_or("workers", 4)?.max(1) as usize;
    let queue = args.u64_or("queue", 4)?.max(1) as usize;
    let seed = args.u64_or("seed", 5)?;
    let faults = match args.get("faults").unwrap_or("none") {
        "none" => FaultConfig::none(),
        "harsh" => FaultConfig::harsh(),
        "saturating" => FaultConfig::saturating(),
        other => {
            return Err(format!(
                "--faults '{other}': expected none|harsh|saturating"
            ))
        }
    };
    let overflow = match args.get("overflow").unwrap_or("stall") {
        "stall" => OverflowPolicy::Stall,
        "drop-newest" => OverflowPolicy::DropNewest,
        other => return Err(format!("--overflow '{other}': expected stall|drop-newest")),
    };
    let throttle_ms = args.f64_or("throttle-ms", 0.0)?;
    let watch = args.u64_or("watch", 0)? != 0;
    let model = std::sync::Arc::new(model_from(args, &sim)?);

    let specs: Vec<ReaderSpec> = (0..readers)
        .map(|r| {
            ReaderSpec::frequency_multiplexed(streams, presses, seed + r as u64, &sim.group)
                .map(|s| s.with_faults(faults))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let cfg = BatchConfig {
        workers,
        queue_capacity: queue,
        overflow,
        consume_throttle: (throttle_ms > 0.0)
            .then(|| std::time::Duration::from_secs_f64(throttle_ms * 1e-3)),
        ..BatchConfig::wiforce(workers)
    };
    let emit = |w: &StreamWindow| eprintln!("{}", w.to_json());
    let observer: Option<&(dyn Fn(&StreamWindow) + Sync)> = watch.then_some(&emit);
    let report = run_batch_observed(
        &sim,
        &model,
        &specs,
        &cfg,
        Some(AggregatorConfig::default()),
        observer,
    )
    .map_err(|e| e.to_string())?;
    Ok((report, readers, workers))
}

fn print_serve_report(report: &BatchReport, readers: usize, workers: usize) {
    println!(
        "{:<12} {:>6} {:>9} {:>9} {:>6} {:>7} {:>12}",
        "stream", "reader", "clock Hz", "readings", "fail", "drops", "p95 lat ms"
    );
    for s in &report.streams {
        println!(
            "{:<12} {:>6} {:>9.1} {:>9} {:>6} {:>7} {:>12.3}",
            s.name,
            s.reader,
            s.fs_hz,
            s.readings.len(),
            s.failures,
            s.groups_dropped,
            s.p95_latency_ns() as f64 / 1e6
        );
    }
    println!(
        "\n{} streams on {} reader(s), {} workers: {} groups in {:.2} s",
        report.streams.len(),
        readers,
        workers,
        report.groups_produced,
        report.elapsed.as_secs_f64()
    );
    println!(
        "throughput {:.1} presses/s, p95 group latency {:.3} ms",
        report.presses_per_sec(),
        report.p95_stream_latency_ns() as f64 / 1e6
    );
    println!(
        "backpressure events {}, queue drops {}, snapshots dropped {}, bursts injected {}",
        report.backpressure_events,
        report.groups_dropped,
        report.snapshots_dropped,
        report.bursts_injected
    );
    for h in &report.health {
        if h.flags.any() {
            println!(
                "degraded: {} ({} of {} windows; snr_below_floor={} queue_saturated={} worker_starved={})",
                h.stream,
                h.degraded_windows,
                h.windows,
                h.flags.snr_below_floor,
                h.flags.queue_saturated,
                h.flags.worker_starved
            );
        }
    }
}

/// Writes the collected trace ring contents as Chrome trace-event JSON.
fn export_trace(path: &str) -> Result<(), String> {
    trace::set_trace_enabled(false);
    let snap = trace::collect();
    std::fs::write(path, snap.chrome_trace()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} trace events across {} lanes ({} dropped) to {path}",
        snap.total_events(),
        snap.lanes.len(),
        snap.dropped
    );
    Ok(())
}

/// Writes (or prints) the metrics registry as Prometheus text.
fn export_metrics(path: Option<&str>) -> Result<(), String> {
    metrics::set_metrics_enabled(false);
    let text = metrics::snapshot().prometheus();
    match path {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote metrics exposition to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let health = HealthSink::enable(args);
    let tracing = args.get("trace").is_some();
    if tracing {
        trace::reset();
        trace::set_trace_enabled(true);
    }
    if args.get("metrics").is_some() {
        metrics::reset();
        metrics::set_metrics_enabled(true);
    }
    let (report, readers, workers) = run_serve_workload(args)?;
    print_serve_report(&report, readers, workers);
    if let Some(path) = args.get("trace") {
        export_trace(path)?;
    }
    if let Some(path) = args.get("metrics") {
        export_metrics(Some(path))?;
    }
    health.finish()
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let out = args.path("out")?;
    trace::reset();
    trace::set_trace_enabled(true);
    let (report, readers, workers) = run_serve_workload(args)?;
    print_serve_report(&report, readers, workers);
    export_trace(&out.display().to_string())
}

fn cmd_metrics(args: &Args) -> Result<(), String> {
    metrics::reset();
    metrics::set_metrics_enabled(true);
    let (report, readers, workers) = run_serve_workload(args)?;
    // summary to stderr so a piped stdout stays pure Prometheus text
    eprintln!(
        "{} streams, {} reader(s), {} workers: {} groups in {:.2} s",
        report.streams.len(),
        readers,
        workers,
        report.groups_produced,
        report.elapsed.as_secs_f64()
    );
    export_metrics(args.get("out"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse(&argv).and_then(|a| a.check_flags(cmd))
    }

    #[test]
    fn serve_rejects_a_flag_it_does_not_read() {
        // the retired superposition switch, spelled in pieces so that a
        // search for the retired name finds no live reference to it
        let retired = concat!("--cross", "-stream");
        match parse("serve", &[retired, "1"]) {
            Ok(_) => panic!("serve accepted {retired}"),
            Err(e) => assert_eq!(e, format!("unknown flag {retired} for serve")),
        }
        // a flag another command reads is still foreign to serve
        assert!(parse("serve", &["--trials", "3"]).is_err());
    }

    #[test]
    fn serve_accepts_its_flag_set() {
        let args = parse(
            "serve",
            &[
                "--streams",
                "8",
                "--presses",
                "2",
                "--readers",
                "2",
                "--workers",
                "4",
                "--queue",
                "4",
                "--faults",
                "harsh",
                "--overflow",
                "drop-newest",
                "--throttle-ms",
                "1",
                "--watch",
                "1",
                "--synth-mode",
                "spectral",
                "--seed",
                "5",
                "--carrier-ghz",
                "0.9",
                "--trace",
                "t.json",
                "--metrics",
                "m.prom",
                "--health-json",
                "h.json",
            ],
        )
        .unwrap_or_else(|e| panic!("valid serve flags rejected: {e}"));
        assert_eq!(args.get("streams"), Some("8"));
    }

    #[test]
    fn number_flags_reject_non_finite_values() {
        for (flag, value) in [
            ("force", "nan"),
            ("location-mm", "inf"),
            ("carrier-ghz", "nan"),
        ] {
            let args = parse("press", &[&format!("--{flag}"), value]).expect("flag parses");
            assert_eq!(
                args.f64_or(flag, 1.0),
                Err(format!("--{flag}: '{value}' is not a finite number"))
            );
        }
        let ok = parse("press", &["--carrier-ghz", "2.4"]).expect("flag parses");
        assert_eq!(ok.f64_or("carrier-ghz", 0.9), Ok(2.4));
    }

    #[test]
    fn serve_synth_mode_has_no_wide_or_row_arm() {
        for mode in ["wide", "row"] {
            let args = parse("serve", &["--synth-mode", mode]).expect("flag parses");
            let err = run_serve_workload(&args).expect_err("retired arm rejected");
            assert_eq!(
                err,
                format!("--synth-mode '{mode}': expected auto|spectral|td")
            );
        }
    }
}
