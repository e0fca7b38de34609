//! `batch8`: one reader, 8 Doppler-orthogonal streams, `run_batch` called
//! back to back.

use std::time::{Duration, Instant};

use rand::RngCore;
use wiforce::batch::{run_batch, BatchConfig, BatchReport, PressSpec, ReaderSpec};
use wiforce::Simulation;
use wiforce_sensor::multi::allocate_frequencies_on_grid;

use crate::report::{self, leaf_ns, Metrics, Tracer};
use crate::yardstick::Yardstick;
use crate::{rng_for, Outcome, Setup};

const STREAMS: usize = 8;
/// Presses per stream in one `run_batch` call. Each stream locks its
/// no-touch reference once, at the start of the call, so accuracy is
/// averaged over many short streams rather than a few long ones.
const PRESSES: usize = 200;
/// Presses per stream in the worker-count determinism check.
const CHECK_PRESSES: usize = 6;
/// Yardstick runs after each untraced call, which scale the call to the
/// reference speed (`yardstick.rs`).
const YARDSTICK_RUNS: usize = 4;
/// The 25 press points (5 forces × 5 locations inside the calibrated
/// domain) every schedule draws from, like the keys of a fingertip UI.
const FORCES_N: [f64; 5] = [1.0, 2.5, 4.0, 5.5, 7.0];
const LOCATIONS_M: [f64; 5] = [0.025, 0.0325, 0.040, 0.0475, 0.055];
const MAX_FORCE_ERR_P50_N: f64 = 1.0;
const MAX_LOC_ERR_P50_MM: f64 = 3.0;

fn point(i: usize) -> PressSpec {
    PressSpec {
        force_n: FORCES_N[i % 5],
        location_m: LOCATIONS_M[(i / 5) % 5],
    }
}

/// Tag clocks on the group's bin grid in the 800–2000 Hz band, so the
/// streams are exactly separable from the shared snapshots.
fn clocks(sim: &Simulation) -> Vec<f64> {
    let grid_hz = 1.0 / (sim.group.n_snapshots as f64 * sim.group.snapshot_period_s);
    allocate_frequencies_on_grid(STREAMS, 800.0, 2000.0, grid_hz)
        .expect("8 clocks fit the 800-2000 Hz band")
}

/// Reader `call` of a run: each stream's schedule drawn from the 25
/// points by the seed.
fn reader(sim: &Simulation, seed: u64, call: u64, presses: usize) -> ReaderSpec {
    let mut rng = rng_for(seed, call);
    let mut spec = ReaderSpec::new(rng.next_u64());
    for (s, fs_hz) in clocks(sim).into_iter().enumerate() {
        let schedule = (0..presses)
            .map(|_| point((rng.next_u64() % 25) as usize))
            .collect();
        spec = spec.stream(&format!("s{s}"), fs_hz, schedule);
    }
    spec
}

fn batch(s: &Setup, spec: &ReaderSpec, workers: usize) -> BatchReport {
    run_batch(
        &s.sim,
        &s.model,
        std::slice::from_ref(spec),
        &BatchConfig::wiforce(workers),
    )
    .expect("a valid 8-stream reader")
}

/// One short batch touching all 25 points, so the response memo and the
/// estimators' plans are warm.
pub fn warm_up(s: &Setup) {
    let mut spec = ReaderSpec::new(0x57A2_7E5D);
    for (st, fs_hz) in clocks(&s.sim).into_iter().enumerate() {
        spec = spec.stream(
            &format!("s{st}"),
            fs_hz,
            (0..4).map(|p| point(st * 4 + p)).collect(),
        );
    }
    batch(s, &spec, s.workers);
}

/// What a run keeps of its `run_batch` calls: each call is folded in as
/// it returns, into sample slots that are resident from the start.
struct Samples {
    /// Produce→consume latency per group, µs, split by whether the call
    /// was traced.
    latency_us: [Vec<f64>; 2],
    force_err_n: Vec<f64>,
    loc_err_mm: Vec<f64>,
    /// Wall time per completed press of each untraced call, µs, as
    /// measured and at the reference speed.
    call_us_per_press: Vec<f64>,
    scaled_us_per_press: Vec<f64>,
    /// Completed presses, and wall time, s, as measured and at the
    /// reference speed, summed over untraced calls.
    readings: u64,
    wall_s: f64,
    scaled_wall_s: f64,
    attempted: u64,
    failed: u64,
    /// First call whose press slots did not all end in a reading or a
    /// counted failure.
    lost_slots: Option<u64>,
    // over traced calls only
    setup_us: Vec<f64>,
    groups: u64,
    consumed: u64,
    worker_wall_ns: f64,
    backpressure_events: u64,
    groups_dropped: u64,
    stream_failures: u64,
}

impl Samples {
    fn new(seconds: f64) -> Self {
        Samples {
            latency_us: [report::resident(seconds), report::resident(seconds)],
            force_err_n: report::resident(seconds),
            loc_err_mm: report::resident(seconds),
            call_us_per_press: Vec::new(),
            scaled_us_per_press: Vec::new(),
            readings: 0,
            wall_s: 0.0,
            scaled_wall_s: 0.0,
            attempted: 0,
            failed: 0,
            lost_slots: None,
            setup_us: Vec::new(),
            groups: 0,
            consumed: 0,
            worker_wall_ns: 0.0,
            backpressure_events: 0,
            groups_dropped: 0,
            stream_failures: 0,
        }
    }

    fn add(
        &mut self,
        call: u64,
        spec: &ReaderSpec,
        r: &BatchReport,
        wall: Duration,
        scale: Option<f64>,
        workers: usize,
    ) {
        let traced = scale.is_none();
        let mut failures = 0;
        for (result, stream) in r.streams.iter().zip(&spec.streams) {
            self.attempted += stream.presses.len() as u64;
            failures += result.failures;
            self.latency_us[usize::from(traced)]
                .extend(result.latencies_ns.iter().map(|&ns| ns as f64 / 1e3));
            for reading in &result.readings {
                let Some(p) = reading.press else { continue };
                let applied = stream.presses[p];
                let got = reading.reading;
                if !got.touched {
                    self.failed += 1;
                    continue;
                }
                self.force_err_n.push((got.force_n - applied.force_n).abs());
                self.loc_err_mm
                    .push((got.location_m - applied.location_m).abs() * 1e3);
            }
        }
        self.failed += failures;
        if r.press_readings() as u64 + failures != (STREAMS * PRESSES) as u64 {
            self.lost_slots.get_or_insert(call);
        }
        if let Some(scale) = scale {
            let readings = r.press_readings() as u64;
            let us_per_press = wall.as_secs_f64() * 1e6 / readings.max(1) as f64;
            self.call_us_per_press.push(us_per_press);
            self.scaled_us_per_press.push(us_per_press * scale);
            self.readings += readings;
            self.wall_s += wall.as_secs_f64();
            self.scaled_wall_s += wall.as_secs_f64() * scale;
            return;
        }
        self.setup_us
            .push(wall.saturating_sub(r.elapsed).as_secs_f64() * 1e6);
        self.groups += r.groups_produced;
        self.consumed += r
            .streams
            .iter()
            .map(|st| st.latencies_ns.len() as u64)
            .sum::<u64>();
        self.worker_wall_ns += workers as f64 * r.elapsed.as_nanos() as f64;
        self.backpressure_events += r.backpressure_events;
        self.groups_dropped += r.groups_dropped;
        self.stream_failures += failures;
    }
}

pub fn run(s: &Setup, seed: u64, seconds: f64, trace: bool, machine: &str) -> Outcome {
    let mut tracer = Tracer::new(1024);
    let mut out = Samples::new(seconds);
    s.sim.channel_cache.reset_response_stats();
    wiforce_telemetry::reset();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut call = 0u64;
    let mut yardstick = Yardstick::new();
    while started.elapsed() < budget {
        let spec = reader(&s.sim, seed, call, PRESSES);
        // a traced run alternates untraced and traced calls
        let traced = trace && call % 2 == 1;
        wiforce_telemetry::set_enabled(traced);
        let t0 = Instant::now();
        let report = if traced {
            tracer.span("batch.run", None, call, || batch(s, &spec, s.workers))
        } else {
            batch(s, &spec, s.workers)
        };
        let wall = t0.elapsed();
        wiforce_telemetry::set_enabled(false);
        let scale = (!traced).then(|| yardstick.scale_now(YARDSTICK_RUNS));
        out.add(call, &spec, &report, wall, scale, s.workers);
        call += 1;
    }
    let telemetry = wiforce_telemetry::take();
    let (hits, misses) = s.sim.channel_cache.response_stats();

    let mut errors = check(s, seed);
    if let Some(call) = out.lost_slots {
        errors.push(format!("batch call {call} lost press slots"));
    }
    report::sort(&mut out.force_err_n);
    report::sort(&mut out.loc_err_mm);
    let mut metrics = Metrics::default();
    if !trace {
        // a press's time here is its call's wall time per completed press;
        // the per-group latency is queue wait between threads, which on a
        // small shared machine measures the scheduler, so it is a
        // per-layer figure
        if out.call_us_per_press.is_empty() {
            errors.push("the run was shorter than one run_batch call".into());
        }
        let readings = out.readings as f64;
        let timing = |per_press: &mut Vec<f64>, wall_s: f64| {
            report::sort(per_press);
            report::Timing {
                p50_us: report::percentile(per_press, 0.5),
                p90_us: report::percentile(per_press, 0.9),
                per_s: readings / wall_s,
            }
        };
        let scaled = timing(&mut out.scaled_us_per_press, out.scaled_wall_s);
        let raw = timing(&mut out.call_us_per_press, out.wall_s);
        report::put_timing(&mut metrics, &scaled, &raw, &yardstick);
        let (force, loc) = (&out.force_err_n, &out.loc_err_mm);
        metrics.put("force_err_p50_n", report::percentile(force, 0.5), "N");
        metrics.put("force_err_p90_n", report::percentile(force, 0.9), "N");
        metrics.put("loc_err_p50_mm", report::percentile(loc, 0.5), "mm");
        metrics.put("loc_err_p90_mm", report::percentile(loc, 0.9), "mm");
        metrics.put(
            "ok_share",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        if report::percentile(force, 0.5) > MAX_FORCE_ERR_P50_N
            || report::percentile(loc, 0.5) > MAX_LOC_ERR_P50_MM
        {
            errors.push("median error above the accuracy floor".into());
        }
        return Outcome {
            metrics,
            attempted: out.attempted,
            failed: out.failed,
            errors,
        };
    }

    for v in out.latency_us.iter_mut() {
        report::sort(v);
    }
    // with nproc workers, the side busy while the other waits is the
    // bottleneck
    let produce_ns = leaf_ns(&telemetry, "batch.produce_group");
    let consume_ns = leaf_ns(&telemetry, "batch.consume");
    metrics.put("batch.groups", out.groups as f64, "count");
    metrics.put(
        "batch.produce_us_per_group",
        produce_ns / 1e3 / out.groups.max(1) as f64,
        "us",
    );
    metrics.put(
        "batch.consume_us_per_group",
        consume_ns / 1e3 / out.consumed.max(1) as f64,
        "us",
    );
    metrics.put(
        "batch.worker_busy_share",
        (produce_ns + consume_ns) / out.worker_wall_ns.max(1.0),
        "ratio",
    );
    metrics.put("batch.worker_busy_ns", produce_ns + consume_ns, "ns");
    metrics.put("batch.worker_wall_ns", out.worker_wall_ns, "ns");
    let lat = &out.latency_us[1];
    metrics.put(
        "batch.group_latency_p50_us",
        report::percentile(lat, 0.5),
        "us",
    );
    metrics.put(
        "batch.group_latency_p99_us",
        report::percentile(lat, 0.99),
        "us",
    );
    metrics.put(
        "batch.backpressure_events",
        out.backpressure_events as f64,
        "count",
    );
    metrics.put("batch.groups_dropped", out.groups_dropped as f64, "count");
    metrics.put("batch.stream_failures", out.stream_failures as f64, "count");
    metrics.put(
        "batch.setup_us_per_run",
        report::median(&mut out.setup_us),
        "us",
    );
    let overhead = report::percentile(lat, 0.5) - report::percentile(&out.latency_us[0], 0.5);
    metrics.put("trace.overhead_p50_us", overhead, "us");
    metrics.put("channel.response_hits", hits as f64, "count");
    metrics.put("channel.response_misses", misses as f64, "count");
    metrics.put(
        "channel.response_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let spectral = telemetry
        .counters
        .get("batch.spectral_groups")
        .is_some_and(|&n| n > 0);
    metrics.put("synth.spectral", f64::from(u8::from(spectral)), "flag");
    metrics.put(
        "synth.chunk_rows",
        wiforce::calibrate::synth_chunk_rows() as f64,
        "count",
    );
    if !spectral {
        errors.push("batch8 ran the time-domain arm".into());
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("trace-batch8.json");
    if let Err(e) = tracer.write(&path, machine) {
        errors.push(format!("writing {}: {e}", path.display()));
    }
    Outcome {
        metrics,
        attempted: out.attempted,
        failed: out.failed,
        errors,
    }
}

/// Per-stream results must not depend on the worker count.
fn check(s: &Setup, seed: u64) -> Vec<String> {
    let spec = reader(&s.sim, seed, u64::MAX, CHECK_PRESSES);
    let one = batch(s, &spec, 1);
    let many = batch(s, &spec, s.workers);
    one.streams
        .iter()
        .zip(&many.streams)
        .filter(|(a, b)| !a.deterministic_eq(b))
        .map(|(a, _)| {
            format!(
                "stream {} differs between 1 and {} workers",
                a.name, s.workers
            )
        })
        .chain((one.streams.len() != STREAMS).then(|| "missing streams".to_string()))
        .collect()
}
