//! Machine-readable pipeline benchmark: times the end-to-end press
//! pipeline and the snapshot engine under a counting allocator, then
//! writes `BENCH_pipeline.json` at the repo root.
//!
//! Reported metrics:
//! - `presses_per_sec` / `ns_per_press` — full `measure_press` round trips
//!   (sounding, fault injection, harmonic extraction, model inversion)
//!   with the telemetry recorder disabled;
//! - `ns_per_press_telemetry_on` / `telemetry_overhead_pct` — the same
//!   loop with the recorder enabled, quantifying the cost of spans,
//!   counters, and histograms on the hot path;
//! - `ns_per_group` / `allocs_per_group` — one 625×64 phase group
//!   synthesized through the counter-addressed `run_snapshots_into` on
//!   one worker into a reused [`wiforce_dsp::SnapshotMatrix`]: wall time
//!   and heap allocations per steady-state group;
//! - `synth_workers` — the worker count the press loop ran with
//!   (`WIFORCE_SYNTH_WORKERS` or the machine's parallelism);
//! - `throughput` — the multi-stream batch engine (`wiforce::batch`) at
//!   1/4/8 frequency-multiplexed streams: aggregate `presses_per_sec`
//!   and `p95_stream_latency_ns` per point. Because every stream of a
//!   reader rides the *same* channel sounding, aggregate throughput must
//!   scale superlinearly in wall-clock terms (≥ 2.5× at 8 streams vs 1) —
//!   `check_artifacts` gates on this;
//! - `observability` — trace-ring totals from the telemetry-on loop
//!   (events captured, ring-overflow drops, configured ring capacity)
//!   plus the metrics-registry series count; the on-blocks run with the
//!   ring and registry enabled, so the overhead gate covers them;
//! - `stage_breakdown` — per-stage ns-per-press from the telemetry-on
//!   loop's spans (synth = snapshot synthesis incl. sounding + frontend,
//!   spectrum = harmonic extraction, estimator = model inversion,
//!   tracker = Kalman smoothing) plus the channel-cache hit rate, so a
//!   perf regression names the stage that caused it;
//! - `schema_version` / `git_rev` — artifact provenance for CI checks.
//!
//! Pass `--quick` for fewer iterations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::batch::{run_batch, BatchConfig, ReaderSpec};
use wiforce::pipeline::{PressNoise, Simulation, TagClock};
use wiforce::tracking::{Tracker, TrackerConfig};
use wiforce_dsp::SnapshotMatrix;
use wiforce_telemetry::json::JsonWriter;

/// Version of the BENCH_pipeline.json layout, bumped on breaking changes.
/// v3 added the `throughput` batch-engine section; v4 the
/// `stage_breakdown` section (per-stage ns-per-press + cache hit rate);
/// v5 the counter-synthesis fields: `synth_workers` (worker threads the
/// press loop ran with), `ns_per_group_parallel` (one phase group through
/// the parallel counter path), and `telemetry_overhead_raw_pct` (the
/// signed measured ratio behind the floored `telemetry_overhead_pct`);
/// v6 the `observability` section (trace-ring event/drop totals, ring
/// capacity, metrics-registry series count) — and, significantly, the
/// telemetry-on blocks now run with the trace ring *and* the metrics
/// registry enabled, so `telemetry_overhead_pct` gates the full
/// observability stack, not just the recorder;
/// v7 the `synth_wide` section: the counter group timed with the SoA
/// wide path forced on vs off (`ns_per_group_on` / `ns_per_group_off`,
/// bitwise-identical output either way);
/// v8 the wide-batching / response-table fields: a top-level `quick`
/// flag (gates relax on quick artifacts), the `calibration` object (the
/// one-shot SoA chunk-width probe's verdict, also written to
/// `CALIBRATION_synth.json`) and `response_table_hit_rate` (steady-state
/// per-scene sounding-response memo hit rate under zeroed patch jitter);
/// the batch press count is 8 per stream in full mode (2 quick) so the
/// steady state dominates the fixed per-run cost;
/// v9 the spectral-synthesis fields: the `synth_spectral` object times
/// the direct line-synthesis path (`WIFORCE_SYNTH_SPECTRAL`) that never
/// materializes time-domain snapshots — `ns_per_press` /
/// `presses_per_sec` from a sequential press loop (gated < 1 ms/press on
/// full artifacts) and `presses_per_sec_8_streams` /
/// `p95_stream_latency_ns` from an 8-stream spectral batch run (gated
/// ≥ 5000 presses/sec on full artifacts). Two measurement fixes ride
/// along: `observability.metrics_series` is now harvested *after* the
/// instrumented 8-stream observed batch run (the registry's per-stream
/// series were previously missed, freezing the field at 1) together with
/// the new `observability.metrics_streams` it is gated against, and the
/// paired off/on overhead blocks rise from 7 to 11 in full mode (the
/// count is recorded as `overhead_blocks`) so the median behind
/// `telemetry_overhead_raw_pct` rests on more ratio samples;
/// v10 measures `ns_per_group` / `allocs_per_group` on the counter path
/// (the sequential snapshot path is gone) and drops `ns_per_group_parallel`.
/// Keys that described the retired adaptive snapshot budget and batch
/// payload superposition arms are no longer written; the `throughput`
/// points run the default batch producer.
const BENCH_SCHEMA_VERSION: u32 = 10;

/// A pass-through allocator that counts every allocation, so the bench
/// can assert the steady-state snapshot loop is allocation-free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Times `press_iters` presses (each smoothed through a [`Tracker`], so
/// the stage breakdown covers the full reading path), returning ns per
/// press.
fn time_presses(
    sim: &Simulation,
    model: &wiforce::calib::SensorModel,
    rng: &mut StdRng,
    press_iters: usize,
) -> f64 {
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    let t0 = Instant::now();
    for _ in 0..press_iters {
        let reading = sim.measure_press(model, 4.0, 0.040, rng).expect("press");
        let _span = wiforce_telemetry::span!("bench.tracker");
        tracker.update(&reading);
    }
    t0.elapsed().as_nanos() as f64 / press_iters as f64
}

/// Sums the telemetry-on loop's span totals whose path leaf is `leaf`,
/// normalised to ns per press.
fn stage_ns_per_press(
    telemetry: &wiforce_telemetry::TelemetrySnapshot,
    leaf: &str,
    press_iters: usize,
) -> f64 {
    telemetry
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .map(|(_, h)| h.sum)
        .sum::<f64>()
        / press_iters as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // 11 paired off/on blocks in full mode: the gated overhead is the
    // median of the per-pair ratios, and more pairs both tighten it and
    // let single-block scheduler spikes fall outside the middle
    let blocks = if quick { 3 } else { 11 };
    let block_iters = if quick { 3 } else { 5 };
    let press_iters = blocks * block_iters;
    let group_iters = if quick { 10 } else { 50 };

    // --- end-to-end presses, telemetry off vs on ----------------------
    // One long loop per mode is at the mercy of scheduler and frequency
    // jitter (single 25-press runs swing ±15% on a busy box), far more
    // than the few-percent overhead being gated. So the two modes run as
    // alternating short blocks: the headline `ns_per_press` is the best
    // off-block (jitter is strictly additive, so the minimum is the
    // honest cost), and the gated overhead is the *median* of the
    // per-pair on/off ratios — each ratio compares adjacent blocks under
    // near-identical machine conditions, so slow drift cancels and a
    // single noisy block cannot swing the median.
    let mut sim = Simulation::paper_default(2.4e9);
    sim.reference_groups = 1;
    sim.measure_groups = 1;
    let model = sim.vna_calibration().expect("calibration");
    let mut rng = StdRng::seed_from_u64(3);
    // warm up thread-local FFT plans, scratch buffers, and the TSC
    // calibration the telemetry-on stage clocks convert through
    sim.measure_press(&model, 4.0, 0.040, &mut rng)
        .expect("warmup press");
    wiforce_telemetry::fastclock::ns_per_tick();

    wiforce_telemetry::reset();
    wiforce_telemetry::trace::reset();
    wiforce_telemetry::metrics::reset();
    let mut ns_per_press = f64::INFINITY;
    let mut ns_per_press_on = f64::INFINITY;
    let mut ratios = Vec::with_capacity(blocks);
    let mut trace_events = 0u64;
    let mut trace_dropped = 0u64;
    for _ in 0..blocks {
        let off = time_presses(&sim, &model, &mut rng, block_iters);
        // the "on" cost covers the whole observability stack: recorder
        // spans/counters, SPSC trace-ring events, and metrics-registry
        // updates — the ≤12% gate holds with everything enabled
        wiforce_telemetry::set_enabled(true);
        wiforce_telemetry::trace::set_trace_enabled(true);
        wiforce_telemetry::metrics::set_metrics_enabled(true);
        let on = time_presses(&sim, &model, &mut rng, block_iters);
        wiforce_telemetry::set_enabled(false);
        wiforce_telemetry::trace::set_trace_enabled(false);
        wiforce_telemetry::metrics::set_metrics_enabled(false);
        // drain the rings between blocks so a long bench can't overflow
        // them; the drop counter is cumulative, so keep the latest
        let ring = wiforce_telemetry::trace::collect();
        trace_events += ring.total_events() as u64;
        trace_dropped = ring.dropped;
        ns_per_press = ns_per_press.min(off);
        ns_per_press_on = ns_per_press_on.min(on);
        ratios.push(on / off);
    }
    let telemetry = wiforce_telemetry::take();
    ratios.sort_by(f64::total_cmp);
    let presses_per_sec = 1e9 / ns_per_press;
    // the raw median ratio can dip below zero when block noise exceeds
    // the true overhead; report the signed measurement for diagnostics
    // but floor the headline (an overhead cannot be negative)
    let overhead_raw_pct = 100.0 * (ratios[ratios.len() / 2] - 1.0);
    let overhead_pct = overhead_raw_pct.max(0.0);

    // --- stage breakdown from the telemetry-on loop -------------------
    let synth_ns = stage_ns_per_press(&telemetry, "pipeline.run_snapshots", press_iters);
    let spectrum_ns = stage_ns_per_press(&telemetry, "harmonics.extract_lines", press_iters);
    let estimator_ns = stage_ns_per_press(&telemetry, "pipeline.model_invert", press_iters);
    let tracker_ns = stage_ns_per_press(&telemetry, "bench.tracker", press_iters);
    // cache stats live on the shared slot (not in telemetry, which must
    // stay deterministic across thread counts); totals cover the warmup
    // press (the single build) plus both timed loops
    let (cache_hits, cache_misses) = sim.channel_cache.stats();
    let cache_hit_rate = if cache_hits + cache_misses > 0 {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    } else {
        0.0
    };

    // --- steady-state snapshot groups ---------------------------------
    // one group at a time through the counter-addressed stream on a
    // single worker: a worker pool adds a job handle per call, and the
    // allocation count must not depend on the pool size (the determinism
    // diff compares it across worker counts)
    let synth_workers = wiforce::parallel::default_workers();
    let sim = Simulation::paper_default(2.4e9);
    let single = Simulation {
        synth_workers: Some(1),
        ..sim.clone()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_seed(0xBE7C);
    let mut stream = SnapshotMatrix::default();
    // warm up: first fill grows the buffer to capacity once
    single.run_snapshots_into(None, 1, &mut clock, &mut noise, &mut stream);

    let allocs_before = alloc_count();
    let t0 = Instant::now();
    for _ in 0..group_iters {
        stream.clear();
        single.run_snapshots_into(None, 1, &mut clock, &mut noise, &mut stream);
    }
    let group_elapsed = t0.elapsed();
    let allocs = alloc_count() - allocs_before;
    let ns_per_group = group_elapsed.as_nanos() as f64 / group_iters as f64;
    let allocs_per_group = allocs as f64 / group_iters as f64;

    // --- wide vs row counter synthesis ---------------------------------
    // the same counter group with the structure-of-arrays wide path
    // forced on vs off; the outputs are bitwise identical, so the delta
    // is purely what plane-major synthesis buys
    let mut wide_times = [0.0f64; 2];
    for (i, wide) in [true, false].into_iter().enumerate() {
        let mut sim_w = sim.clone();
        sim_w.synth_wide = Some(wide);
        let mut rng = StdRng::seed_from_u64(7);
        let mut clock = TagClock::new(&mut rng);
        let mut noise = PressNoise::from_seed(0xBE7C);
        stream.clear();
        sim_w.run_snapshots_into(None, 1, &mut clock, &mut noise, &mut stream);
        let t0 = Instant::now();
        for _ in 0..group_iters {
            stream.clear();
            sim_w.run_snapshots_into(None, 1, &mut clock, &mut noise, &mut stream);
        }
        wide_times[i] = t0.elapsed().as_nanos() as f64 / group_iters as f64;
    }
    let [ns_per_group_wide_on, ns_per_group_wide_off] = wide_times;

    // --- response-table steady state -----------------------------------
    // repeated presses at one (force, location) with patch jitter zeroed:
    // the warmup press populates the per-scene response memo, after which
    // every press gathers its prepared sounding tables instead of
    // recomputing them. The paper-default patch jitter is deliberately
    // zeroed — it uniquifies the contact per press, which the memo cannot
    // (and should not) absorb.
    let mut sim_r = Simulation::paper_default(2.4e9);
    sim_r.reference_groups = 1;
    sim_r.measure_groups = 1;
    sim_r.patch_position_jitter_m = 0.0;
    sim_r.patch_edge_jitter_m = 0.0;
    let model_r = sim_r.vna_calibration().expect("calibration");
    let mut rng_r = StdRng::seed_from_u64(19);
    sim_r
        .measure_press(&model_r, 4.0, 0.040, &mut rng_r)
        .expect("response-table warmup press");
    sim_r.channel_cache.reset_response_stats();
    for _ in 0..5 {
        sim_r
            .measure_press(&model_r, 4.0, 0.040, &mut rng_r)
            .expect("response-table press");
    }
    let (rt_hits, rt_misses) = sim_r.channel_cache.response_stats();
    let response_table_hit_rate = if rt_hits + rt_misses > 0 {
        rt_hits as f64 / (rt_hits + rt_misses) as f64
    } else {
        0.0
    };

    // --- spectral direct line synthesis --------------------------------
    // the same sequential press loop with spectral synthesis forced on:
    // the pipeline produces the two consumed harmonic lines directly
    // (deterministic response tables + noise by DFT unitarity at K bins),
    // so the 625×64 waveform and its extraction never happen. This is a
    // different noise realization than the time-domain paths, which is
    // why it is a separate gated section rather than the headline.
    let mut sim_s = Simulation::paper_default(2.4e9);
    sim_s.reference_groups = 1;
    sim_s.measure_groups = 1;
    sim_s.synth_spectral = Some(true);
    let model_s = sim_s.vna_calibration().expect("calibration");
    let mut rng_s = StdRng::seed_from_u64(3);
    sim_s
        .measure_press(&model_s, 4.0, 0.040, &mut rng_s)
        .expect("spectral warmup press");
    let mut ns_per_press_spectral = f64::INFINITY;
    for _ in 0..blocks {
        let t = time_presses(&sim_s, &model_s, &mut rng_s, block_iters);
        ns_per_press_spectral = ns_per_press_spectral.min(t);
    }
    let spectral_presses_per_sec = 1e9 / ns_per_press_spectral;

    // --- multi-stream batch throughput --------------------------------
    // one reader, N frequency-multiplexed tags sharing its snapshots:
    // the expensive channel sounding amortizes across streams, so
    // aggregate presses/sec grows near-linearly in N on any core count
    let sim = Simulation::paper_default(2.4e9);
    let batch_model = std::sync::Arc::new(sim.vna_calibration().expect("calibration"));
    let batch_presses = if quick { 2 } else { 8 };
    let mut throughput = Vec::new();
    for &n_streams in &[1usize, 4, 8] {
        let spec = ReaderSpec::frequency_multiplexed(n_streams, batch_presses, 17, &sim.group)
            .expect("frequency allocation");
        let cfg = BatchConfig::wiforce(n_streams);
        let mut best = (0.0f64, 0u64);
        // best-of-3: the ≥1200 presses/sec gate compares against machine
        // capability, not scheduler luck, and jitter is strictly additive
        for _ in 0..3 {
            let report = run_batch(&sim, &batch_model, std::slice::from_ref(&spec), &cfg)
                .expect("batch throughput run");
            if report.presses_per_sec() > best.0 {
                best = (report.presses_per_sec(), report.p95_stream_latency_ns());
            }
        }
        throughput.push((n_streams, cfg.workers, best.0, best.1));
    }

    // 8-stream batch with spectral synthesis on: the producer walks each
    // stream's state weights once per group and emits the two lines
    // directly, so the aggregate rate is gated an order of magnitude
    // above the time-domain floor on full artifacts
    let mut sim_sb = sim.clone();
    sim_sb.synth_spectral = Some(true);
    let spec = ReaderSpec::frequency_multiplexed(8, batch_presses, 17, &sim_sb.group)
        .expect("frequency allocation");
    let cfg = BatchConfig::wiforce(8);
    let mut spectral_best = (0.0f64, 0u64);
    for _ in 0..3 {
        let report = run_batch(&sim_sb, &batch_model, std::slice::from_ref(&spec), &cfg)
            .expect("spectral batch throughput run");
        if report.presses_per_sec() > spectral_best.0 {
            spectral_best = (report.presses_per_sec(), report.p95_stream_latency_ns());
        }
    }
    let (spectral_batch_pps, spectral_batch_p95) = spectral_best;

    // untimed observed re-run at the top stream count: the timed loops
    // keep telemetry off, so the metrics registry's per-stream series,
    // whose count the artifact reports, are harvested from one extra
    // instrumented run
    wiforce_telemetry::reset();
    wiforce_telemetry::metrics::reset();
    wiforce_telemetry::metrics::set_metrics_enabled(true);
    wiforce_telemetry::set_enabled(true);
    let spec = ReaderSpec::frequency_multiplexed(8, batch_presses, 17, &sim.group)
        .expect("frequency allocation");
    let cfg = BatchConfig::wiforce(8);
    wiforce::batch::run_batch_observed(
        &sim,
        &batch_model,
        std::slice::from_ref(&spec),
        &cfg,
        None,
        None,
    )
    .expect("observed batch run");
    wiforce_telemetry::set_enabled(false);
    wiforce_telemetry::metrics::set_metrics_enabled(false);
    let _ = wiforce_telemetry::take();
    // the engine folds its per-stream counters into the registry at run
    // completion, so the series count reflects real batch observability
    // (one-plus series per stream), not the single-stream press loop
    let metrics_streams = 8u64;
    let metrics_series = wiforce_telemetry::metrics::snapshot().series_count() as u64;
    let cal = *wiforce::calibrate::calibration();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.integer("schema_version", u64::from(BENCH_SCHEMA_VERSION));
    w.string("git_rev", env!("GIT_REV"));
    w.boolean("quick", quick);
    w.integer("press_iters", press_iters as u64);
    w.number("ns_per_press", ns_per_press.round());
    w.number("presses_per_sec", (presses_per_sec * 100.0).round() / 100.0);
    w.number("ns_per_press_telemetry_on", ns_per_press_on.round());
    w.number(
        "telemetry_overhead_pct",
        (overhead_pct * 100.0).round() / 100.0,
    );
    w.number(
        "telemetry_overhead_raw_pct",
        (overhead_raw_pct * 100.0).round() / 100.0,
    );
    w.integer("overhead_blocks", blocks as u64);
    w.integer(
        "telemetry_spans_recorded",
        telemetry.spans.values().map(|s| s.count).sum::<u64>(),
    );
    w.integer("synth_workers", synth_workers as u64);
    w.integer("group_iters", group_iters as u64);
    w.number("ns_per_group", ns_per_group.round());
    w.number(
        "allocs_per_group",
        (allocs_per_group * 100.0).round() / 100.0,
    );
    w.number(
        "response_table_hit_rate",
        (response_table_hit_rate * 10000.0).round() / 10000.0,
    );
    w.begin_object_key("calibration");
    w.boolean("wide_default", cal.wide_default);
    w.integer("chunk_rows", cal.chunk_rows as u64);
    w.number("ns_per_row_wide", cal.ns_per_row_wide.round());
    w.number("ns_per_row_narrow", cal.ns_per_row_narrow.round());
    w.boolean("probed", cal.probed);
    w.end_object();
    w.begin_object_key("synth_spectral");
    w.number("ns_per_press", ns_per_press_spectral.round());
    w.number(
        "presses_per_sec",
        (spectral_presses_per_sec * 100.0).round() / 100.0,
    );
    w.number(
        "presses_per_sec_8_streams",
        (spectral_batch_pps * 100.0).round() / 100.0,
    );
    w.integer("p95_stream_latency_ns", spectral_batch_p95);
    w.end_object();
    w.begin_object_key("synth_wide");
    w.number("ns_per_group_on", ns_per_group_wide_on.round());
    w.number("ns_per_group_off", ns_per_group_wide_off.round());
    w.end_object();
    w.begin_object_key("observability");
    w.integer("trace_events", trace_events);
    w.integer("trace_dropped", trace_dropped);
    w.integer(
        "trace_ring_capacity",
        wiforce_telemetry::trace::ring_capacity() as u64,
    );
    w.integer("metrics_series", metrics_series);
    w.integer("metrics_streams", metrics_streams);
    w.end_object();
    w.begin_object_key("stage_breakdown");
    w.number("synth_ns_per_press", synth_ns.round());
    w.number("spectrum_ns_per_press", spectrum_ns.round());
    w.number("estimator_ns_per_press", estimator_ns.round());
    w.number("tracker_ns_per_press", tracker_ns.round());
    w.number("cache_hit_rate", (cache_hit_rate * 1000.0).round() / 1000.0);
    w.end_object();
    w.begin_array_key("throughput");
    for &(streams, workers, pps, p95) in &throughput {
        w.begin_object();
        w.integer("streams", streams as u64);
        w.integer("workers", workers as u64);
        w.number("presses_per_sec", (pps * 100.0).round() / 100.0);
        w.integer("p95_stream_latency_ns", p95);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let json = w.finish();

    let root = wiforce_bench::experiments::repo_root();
    let path = root.join("BENCH_pipeline.json");
    std::fs::write(&path, &json).expect("write BENCH_pipeline.json");
    let cal_path = root.join("CALIBRATION_synth.json");
    std::fs::write(&cal_path, cal.to_json_stamped(env!("GIT_REV")))
        .expect("write CALIBRATION_synth.json");
    println!("{json}");
    println!("wrote {}", path.display());
    println!("wrote {}", cal_path.display());
}
