//! `press_td` and `press_spectral`: one client pressing in a closed loop.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use wiforce::tracking::{Tracker, TrackerConfig};
use wiforce::{ForceReading, SensorModel, Simulation, WiForceError};

use crate::report::{self, leaf_ns, Metrics, Tracer};
use crate::yardstick::Yardstick;
use crate::{rng_for, Outcome, Setup, Workload};

/// The residual gate `Simulation::measure_press` applies to the inversion.
const MAX_RESIDUAL_RAD: f64 = 0.35;
/// Presses at the start of every run re-measured through
/// `Simulation::measure_press` and compared bit for bit.
const CHECK_PRESSES: usize = 8;
/// An untraced `press_spectral` run is cut into windows of this length,
/// each followed by a burst of `YARDSTICK_RUNS` yardstick runs that scales
/// its presses to the reference speed (`yardstick.rs`). `press_td` is not
/// scaled: its presses run on the synthesis workers, on both cores, and
/// the yardstick on one core tracked them worse than no scaling at all
/// (quartile spread over seeds 0.18 scaled, 0.06 raw).
const WINDOW: Duration = Duration::from_millis(20);
const YARDSTICK_RUNS: usize = 2;
/// A traced run alternates untraced and traced blocks of this length.
const TRACE_BLOCK: Duration = Duration::from_millis(500);
/// Loose accuracy floor (the paper reports 0.3 N and 0.6 mm median
/// errors): only a broken pipeline misses it.
const MAX_FORCE_ERR_P50_N: f64 = 1.0;
const MAX_LOC_ERR_P50_MM: f64 = 3.0;

/// Calls a layer's public entry point; tracing wraps each call in a span.
trait Probe {
    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn layer<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

struct Traced<'a> {
    tracer: &'a mut Tracer,
    press_span: u32,
    press_id: u64,
}

impl Probe for Traced<'_> {
    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer
            .span(name, Some(self.press_span), self.press_id, f)
    }
}

/// Which layer rejected a press.
#[derive(Debug, Clone, PartialEq)]
enum Failed {
    Phases(WiForceError),
    Invert(WiForceError),
}

/// One press, composed from the public calls `Simulation::measure_press`
/// makes (so its reading is bit-identical to that function's), then
/// smoothed by the tracker. Each call is a layer boundary.
fn press(
    sim: &Simulation,
    model: &SensorModel,
    tracker: &mut Tracker,
    p: &Press,
    rng: &mut StdRng,
    probe: &mut impl Probe,
) -> Result<ForceReading, Failed> {
    let contact = probe.layer("mech", || {
        sim.jittered_contact(p.force_n, p.location_m, &mut *rng)
    });
    let phases = probe
        .layer("phases", || sim.measure_phases(contact.as_ref(), &mut *rng))
        .map_err(Failed::Phases)?;
    let est = probe
        .layer("invert", || {
            model.invert(phases.dphi1_rad, phases.dphi2_rad, MAX_RESIDUAL_RAD)
        })
        .map_err(Failed::Invert)?;
    let reading = ForceReading {
        force_n: est.force_n,
        location_m: est.location_m,
        dphi1_rad: phases.dphi1_rad,
        dphi2_rad: phases.dphi2_rad,
        residual_rad: est.residual_rad,
        touched: contact.is_some(),
    };
    probe.layer("tracker", || tracker.update(&reading));
    Ok(reading)
}

#[derive(Debug, Clone, Copy)]
struct Press {
    id: u64,
    force_n: f64,
    location_m: f64,
}

/// The seed's press schedule: uniform over 0.5–8 N × 22–58 mm, the
/// calibrated domain less a 2 mm margin at each end. Without the margin
/// the 1 mm patch jitter pushes about 1 press in 40 000 past the
/// calibration, and the inversion rejects it.
struct Schedule {
    points: StdRng,
    next_id: u64,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule {
            points: rng_for(seed, u64::MAX),
            next_id: 0,
        }
    }

    fn next(&mut self) -> Press {
        let id = self.next_id;
        self.next_id += 1;
        Press {
            id,
            force_n: 0.5 + 7.5 * self.points.gen::<f64>(),
            location_m: 0.022 + 0.036 * self.points.gen::<f64>(),
        }
    }
}

/// The measurement noise of press `id`: a pure function of the seed.
fn press_rng(seed: u64, id: u64) -> StdRng {
    rng_for(seed, id)
}

/// Warm-up presses at fixed points (not from any run's seed).
pub fn warm_up(s: &Setup) {
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    for (id, &(force_n, location_m)) in [(1.0, 0.025), (3.0, 0.035), (5.0, 0.045), (7.0, 0.055)]
        .iter()
        .enumerate()
    {
        let p = Press {
            id: id as u64,
            force_n,
            location_m,
        };
        let _ = press(
            &s.sim,
            &s.model,
            &mut tracker,
            &p,
            &mut press_rng(0x57A2_7E5D, p.id),
            &mut Untraced,
        );
    }
}

/// What the timed loop keeps: per-press samples in slots that are
/// resident from the start, and the first presses whole, for the check.
struct Samples {
    first: Vec<(Press, Result<ForceReading, Failed>)>,
    /// Wall time per press, µs, split by whether the press was traced.
    wall_us: [Vec<f64>; 2],
    /// `wall_us[0]` at the reference speed.
    scaled_us: Vec<f64>,
    force_err_n: Vec<f64>,
    loc_err_mm: Vec<f64>,
    phases_failed: u64,
    invert_failed: u64,
}

impl Samples {
    /// Scales the untraced presses since the last window by `scale`.
    fn scale_window(&mut self, scale: f64) {
        let done = self.scaled_us.len();
        let window = &self.wall_us[0][done..];
        self.scaled_us.extend(window.iter().map(|us| us * scale));
    }
}

pub fn run(
    workload: Workload,
    s: &Setup,
    seed: u64,
    seconds: f64,
    trace: bool,
    machine: &str,
) -> Outcome {
    let (sim, model) = (&s.sim, s.model.as_ref());
    let mut schedule = Schedule::new(seed);
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    let mut tracer = Tracer::new(if trace { 1 << 16 } else { 0 });
    let mut out = Samples {
        first: Vec::with_capacity(CHECK_PRESSES),
        wall_us: [report::resident(seconds), report::resident(seconds)],
        scaled_us: report::resident(seconds),
        force_err_n: report::resident(seconds),
        loc_err_mm: report::resident(seconds),
        phases_failed: 0,
        invert_failed: 0,
    };

    sim.channel_cache.reset_response_stats();
    wiforce_telemetry::reset();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut yardstick = Yardstick::new();
    let scaled = !trace && workload == Workload::PressSpectral;
    let (mut window_start, mut block_start, mut traced) = (started, started, false);
    while started.elapsed() < budget {
        let p = schedule.next();
        let mut rng = press_rng(seed, p.id);
        let t0 = Instant::now();
        let result = if traced {
            let press_span = tracer.open("press", None, p.id);
            let mut probe = Traced {
                tracer: &mut tracer,
                press_span,
                press_id: p.id,
            };
            let r = press(sim, model, &mut tracker, &p, &mut rng, &mut probe);
            tracer.close(press_span);
            r
        } else {
            press(sim, model, &mut tracker, &p, &mut rng, &mut Untraced)
        };
        out.wall_us[usize::from(traced)].push(t0.elapsed().as_secs_f64() * 1e6);
        match &result {
            Ok(r) => {
                out.force_err_n.push((r.force_n - p.force_n).abs());
                out.loc_err_mm
                    .push((r.location_m - p.location_m).abs() * 1e3);
            }
            Err(Failed::Phases(_)) => out.phases_failed += 1,
            Err(Failed::Invert(_)) => out.invert_failed += 1,
        }
        if out.first.len() < CHECK_PRESSES {
            out.first.push((p, result));
        }
        let now = Instant::now();
        if scaled && now - window_start >= WINDOW {
            out.scale_window(yardstick.scale_now(YARDSTICK_RUNS));
            window_start = Instant::now();
        }
        if trace && now - block_start >= TRACE_BLOCK {
            block_start = now;
            traced = !traced;
            wiforce_telemetry::set_enabled(traced);
        }
    }
    if scaled {
        out.scale_window(yardstick.scale_now(YARDSTICK_RUNS));
    } else {
        out.scale_window(1.0);
    }
    wiforce_telemetry::set_enabled(false);
    let telemetry = wiforce_telemetry::take();
    let (hits, misses) = sim.channel_cache.response_stats();

    let mut errors = check(sim, model, seed, &out.first);
    let failed = out.phases_failed + out.invert_failed;
    let attempted = schedule.next_id;
    report::sort(&mut out.force_err_n);
    report::sort(&mut out.loc_err_mm);
    let mut metrics = Metrics::default();
    if !trace {
        let scaled = report::timing_of(&mut out.scaled_us);
        let raw = report::timing_of(&mut out.wall_us[0]);
        report::put_timing(&mut metrics, &scaled, &raw, &yardstick);
        let (force, loc) = (&out.force_err_n, &out.loc_err_mm);
        metrics.put("force_err_p50_n", report::percentile(force, 0.5), "N");
        metrics.put("force_err_p90_n", report::percentile(force, 0.9), "N");
        metrics.put("loc_err_p50_mm", report::percentile(loc, 0.5), "mm");
        metrics.put("loc_err_p90_mm", report::percentile(loc, 0.9), "mm");
        metrics.put(
            "ok_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        );
        if report::percentile(force, 0.5) > MAX_FORCE_ERR_P50_N
            || report::percentile(loc, 0.5) > MAX_LOC_ERR_P50_MM
        {
            errors.push("median error above the accuracy floor".into());
        }
        return Outcome {
            metrics,
            attempted,
            failed,
            errors,
        };
    }

    let traced_presses = tracer.totals("press").2.max(1) as f64;
    let per_press_us = |name: &str| tracer.totals(name).0 as f64 / 1e3 / traced_presses;
    let layer_us: f64 = ["mech", "phases", "invert", "tracker"]
        .iter()
        .map(|l| per_press_us(l))
        .sum();
    let press_us = per_press_us("press");
    metrics.put("mech.us_per_press", per_press_us("mech"), "us");
    metrics.put("phases.us_per_press", per_press_us("phases"), "us");
    metrics.put("invert.us_per_press", per_press_us("invert"), "us");
    metrics.put("tracker.us_per_press", per_press_us("tracker"), "us");
    let allocs_per_press = |name: &str| tracer.totals(name).1 as f64 / traced_presses;
    metrics.put("mech.allocs_per_press", allocs_per_press("mech"), "count");
    metrics.put(
        "phases.allocs_per_press",
        allocs_per_press("phases"),
        "count",
    );
    metrics.put(
        "invert.allocs_per_press",
        allocs_per_press("invert"),
        "count",
    );

    // sub-layers of `measure_phases`, from the library's own spans;
    // extraction on the time-domain arm runs on the synthesis workers, so
    // its figure is their summed thread time
    let us = |ns: f64| ns / 1e3 / traced_presses;
    let em = leaf_ns(&telemetry, "pipeline.em_transduction");
    let channel_setup = leaf_ns(&telemetry, "pipeline.channel_setup");
    let extract = leaf_ns(&telemetry, "harmonics.extract_lines");
    let synth = leaf_ns(&telemetry, "pipeline.run_snapshots")
        + leaf_ns(&telemetry, "pipeline.spectral_lines");
    metrics.put("phases.em_us_per_press", us(em), "us");
    metrics.put("phases.channel_setup_us_per_press", us(channel_setup), "us");
    metrics.put(
        "phases.synth_self_us_per_press",
        us(synth - em - channel_setup - extract),
        "us",
    );
    metrics.put("phases.extract_us_per_press", us(extract), "us");
    metrics.put("phases.failed", out.phases_failed as f64, "count");
    metrics.put("invert.failed", out.invert_failed as f64, "count");

    metrics.put("layers.sum_ratio", layer_us / press_us, "ratio");
    metrics.put("layers.sum_us_per_press", layer_us, "us");
    metrics.put("layers.press_us_per_press", press_us, "us");
    metrics.put("trace.presses", traced_presses, "count");
    for w in &mut out.wall_us {
        report::sort(w);
    }
    let overhead =
        report::percentile(&out.wall_us[1], 0.5) - report::percentile(&out.wall_us[0], 0.5);
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
        .get("pipeline.spectral_groups")
        .is_some_and(|&n| n > 0);
    metrics.put("synth.spectral", f64::from(u8::from(spectral)), "flag");
    metrics.put(
        "synth.wide",
        f64::from(u8::from(!spectral && sim.synth_wide_enabled())),
        "flag",
    );
    metrics.put(
        "synth.chunk_rows",
        wiforce::calibrate::synth_chunk_rows() as f64,
        "count",
    );
    if spectral != (workload == Workload::PressSpectral) {
        errors.push(format!("{} ran the wrong synthesis arm", workload.name()));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", workload.name()));
    if let Err(e) = tracer.write(&path, machine) {
        errors.push(format!("writing {}: {e}", path.display()));
    }
    Outcome {
        metrics,
        attempted,
        failed,
        errors,
    }
}

/// The composed press must reproduce `Simulation::measure_press` bit for
/// bit on the first presses of the run.
fn check(
    sim: &Simulation,
    model: &SensorModel,
    seed: u64,
    first: &[(Press, Result<ForceReading, Failed>)],
) -> Vec<String> {
    let mut errors = Vec::new();
    for (p, result) in first {
        let reference =
            sim.measure_press(model, p.force_n, p.location_m, &mut press_rng(seed, p.id));
        let same = match (result, &reference) {
            (Ok(a), Ok(b)) => {
                a.touched == b.touched
                    && [
                        (a.force_n, b.force_n),
                        (a.location_m, b.location_m),
                        (a.dphi1_rad, b.dphi1_rad),
                        (a.dphi2_rad, b.dphi2_rad),
                        (a.residual_rad, b.residual_rad),
                    ]
                    .iter()
                    .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Err(Failed::Phases(a) | Failed::Invert(a)), Err(b)) => a == b,
            _ => false,
        };
        if !same {
            errors.push(format!(
                "press {} differs from measure_press: {result:?} vs {reference:?}",
                p.id
            ));
        }
    }
    if first.len() < CHECK_PRESSES {
        errors.push(format!("only {} presses ran", first.len()));
    }
    errors
}
