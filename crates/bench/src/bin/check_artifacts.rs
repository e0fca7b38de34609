//! CI artifact validator: parses `BENCH_pipeline.json` and/or a
//! `PipelineHealth` report with the telemetry crate's own JSON parser and
//! asserts the structure CI (and downstream dashboards) rely on — no
//! `jq`, no serde.
//!
//! ```text
//! check_artifacts --bench BENCH_pipeline.json --health health.json \
//!                 [--trace trace.json] [--metrics metrics.prom] \
//!                 [--calibration CALIBRATION_synth.json] \
//!                 [--baseline BENCH_baseline.json]
//! ```
//!
//! Any input flag may be omitted; at least one is required. Exits
//! non-zero with a list of violations when a file fails validation.
//!
//! `--trace` validates a Chrome trace-event export (`wiforce-cli
//! trace`): structure, span balance, flow binding, and the
//! ring-overflow gate (`otherData.dropped_events` must be 0).
//! `--metrics` validates Prometheus text exposition (`wiforce-cli
//! metrics`): grammar, `# TYPE` coverage, summary completeness, and the
//! presence of per-stream series. Both are backed by
//! [`wiforce_bench::observability`].
//!
//! `--calibration` validates the standalone `CALIBRATION_synth.json`
//! probe verdict: structure plus the schema-v2 provenance pair
//! (`schema_version` + `git_rev`), so the `--revs` / `--expect-rev`
//! staleness gates below cover it exactly like the bench baseline.
//!
//! `--revs` takes a `git log` listing (one rev per line, short or full)
//! and fails when each committed artifact's `git_rev` (`--baseline` when
//! given, else `--bench`; plus `--calibration` when given) names no
//! commit in it — a stale-baseline trap.
//!
//! With `--baseline`, the `--bench` artifact is additionally compared
//! against the given committed baseline with
//! [`wiforce_bench::regression::compare`]: a `ns_per_press` regression
//! beyond the limit or a missing/flat batch `throughput` section fails
//! the run. The before/after table is printed to stdout and, when
//! `$GITHUB_STEP_SUMMARY` is set, appended to the CI job summary.
//!
//! The separate `--diff A.json B.json` mode backs the CI determinism
//! job: it compares two artifacts field-by-field with
//! [`wiforce_bench::regression::diff_ignoring_timing`], ignoring only
//! timing-derived keys, and exits non-zero on any other difference —
//! counter-based synthesis must produce identical results at any
//! `WIFORCE_SYNTH_WORKERS` setting.

use wiforce_bench::{observability, regression};
use wiforce_telemetry::json::{parse, Value};

/// Collects human-readable violations for one document.
struct Checker<'a> {
    file: &'a str,
    errors: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(file: &'a str) -> Self {
        Checker {
            file,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.errors.push(format!("{}: {msg}", self.file));
    }

    /// Requires `key` to be a finite number, optionally `> 0`.
    fn number(&mut self, root: &Value, key: &str, positive: bool) {
        match root.get(key).and_then(Value::as_f64) {
            None => self.fail(format!("missing numeric key '{key}'")),
            Some(v) if !v.is_finite() => self.fail(format!("'{key}' is not finite")),
            Some(v) if positive && v <= 0.0 => self.fail(format!("'{key}' = {v}, expected > 0")),
            Some(_) => {}
        }
    }

    /// Requires `key` to be a non-empty string.
    fn string(&mut self, root: &Value, key: &str) {
        match root.get(key).and_then(Value::as_str) {
            None => self.fail(format!("missing string key '{key}'")),
            Some("") => self.fail(format!("'{key}' is empty")),
            Some(_) => {}
        }
    }
}

fn check_bench(file: &str, root: &Value) -> Vec<String> {
    let mut c = Checker::new(file);
    c.number(root, "schema_version", true);
    c.string(root, "git_rev");
    c.number(root, "press_iters", true);
    c.number(root, "ns_per_press", true);
    c.number(root, "presses_per_sec", true);
    c.number(root, "ns_per_press_telemetry_on", true);
    c.number(root, "telemetry_overhead_pct", false);
    c.number(root, "ns_per_group", true);
    c.number(root, "allocs_per_group", false);

    // schema v4: per-stage breakdown + telemetry-overhead ceiling
    let schema = root
        .get("schema_version")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    if schema >= 4.0 {
        match root.get("stage_breakdown") {
            None => c.fail("missing 'stage_breakdown' object (schema v4)".into()),
            Some(sb) => {
                for key in regression::STAGE_BREAKDOWN_METRICS {
                    if sb.get(key).and_then(Value::as_f64).is_none() {
                        c.fail(format!("stage_breakdown missing numeric key '{key}'"));
                    }
                }
            }
        }
        if let Some(v) = root.get("telemetry_overhead_pct").and_then(Value::as_f64) {
            if v > regression::MAX_TELEMETRY_OVERHEAD_PCT {
                c.fail(format!(
                    "telemetry_overhead_pct = {v:.2} exceeds the {:.1}% ceiling",
                    regression::MAX_TELEMETRY_OVERHEAD_PCT
                ));
            }
        }
    }

    // schema v5: counter-synthesis fields, floored overhead, and the
    // stage-sum reconciliation gate
    if schema >= 5.0 {
        c.number(root, "synth_workers", true);
        // v10 folded the parallel group timing into `ns_per_group`
        if schema < 10.0 {
            c.number(root, "ns_per_group_parallel", true);
        }
        c.number(root, "telemetry_overhead_raw_pct", false);
        if let Some(v) = root.get("telemetry_overhead_pct").and_then(Value::as_f64) {
            if v < 0.0 {
                c.fail(format!(
                    "telemetry_overhead_pct = {v:.2} is negative — schema v5 floors it at 0 \
                     (the signed measurement belongs in telemetry_overhead_raw_pct)"
                ));
            }
            // the floored field must be exactly max(raw, 0): the two
            // come from the same off/on pair, so any daylight between
            // them means one was edited or computed from different runs
            if let Some(raw) = root
                .get("telemetry_overhead_raw_pct")
                .and_then(Value::as_f64)
            {
                let floored = raw.max(0.0);
                if (v - floored).abs() > 1e-9 {
                    c.fail(format!(
                        "telemetry_overhead_pct = {v:.4} but \
                         max(telemetry_overhead_raw_pct, 0) = {floored:.4} — \
                         the floored field must equal the raw field clamped at 0"
                    ));
                }
            }
        }
        // the four per-stage times must add up to roughly the measured
        // press: a stage that silently stops being recorded collapses
        // the sum, a double-counted one inflates it
        let stage = |key: &str| {
            root.get("stage_breakdown")
                .and_then(|sb| sb.get(key))
                .and_then(Value::as_f64)
        };
        let sum: Option<f64> = [
            "synth_ns_per_press",
            "spectrum_ns_per_press",
            "estimator_ns_per_press",
            "tracker_ns_per_press",
        ]
        .iter()
        .map(|k| stage(k))
        .sum();
        if let (Some(sum), Some(total)) = (
            sum,
            root.get("ns_per_press_telemetry_on")
                .and_then(Value::as_f64),
        ) {
            if total > 0.0 {
                let ratio = sum / total;
                if !(regression::STAGE_SUM_MIN_RATIO..=regression::STAGE_SUM_MAX_RATIO)
                    .contains(&ratio)
                {
                    c.fail(format!(
                        "stage_breakdown sums to {sum:.0} ns = {ratio:.2}× \
                         ns_per_press_telemetry_on ({total:.0} ns), outside the \
                         [{:.2}, {:.2}] reconciliation band",
                        regression::STAGE_SUM_MIN_RATIO,
                        regression::STAGE_SUM_MAX_RATIO
                    ));
                }
            }
        }
    }

    // schema v6: the observability section — the telemetry-on blocks run
    // with the trace ring and metrics registry live, so events must have
    // been recorded, nothing may have been dropped (the per-block drain
    // keeps the rings far from full), and the registry must export series
    if schema >= 6.0 {
        match root.get("observability") {
            None => c.fail("missing 'observability' object (schema v6)".into()),
            Some(obs) => {
                let mut obs_num = |key: &str, positive: bool| match obs
                    .get(key)
                    .and_then(Value::as_f64)
                {
                    None => c.fail(format!("observability missing numeric key '{key}'")),
                    Some(v) if !v.is_finite() => c.fail(format!("observability.{key} not finite")),
                    Some(v) if positive && v <= 0.0 => {
                        c.fail(format!("observability.{key} = {v}, expected > 0"))
                    }
                    Some(_) => {}
                };
                obs_num("trace_events", true);
                obs_num("trace_ring_capacity", true);
                obs_num("metrics_series", true);
                match obs.get("trace_dropped").and_then(Value::as_f64) {
                    None => c.fail("observability missing numeric key 'trace_dropped'".into()),
                    Some(d) if d > 0.0 => c.fail(format!(
                        "observability.trace_dropped = {d} — the trace ring overflowed \
                         during the benchmark, expected 0"
                    )),
                    _ => {}
                }
            }
        }
    }

    // schema v7: the synth_wide section — wide vs row group timings
    if schema >= 7.0 {
        match root.get("synth_wide") {
            None => c.fail("missing 'synth_wide' object (schema v7)".into()),
            Some(sw) => {
                for key in ["ns_per_group_on", "ns_per_group_off"] {
                    match sw.get(key).and_then(Value::as_f64) {
                        None => c.fail(format!("synth_wide missing numeric key '{key}'")),
                        Some(v) if !(v > 0.0 && v.is_finite()) => {
                            c.fail(format!("synth_wide.{key} = {v}, expected > 0"))
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }

    // schema v8: the wide-batching / response-table gates — these are
    // absolute (no baseline needed): the calibrated wide default must
    // win, the response memo must absorb steady-state presses, the
    // steady-state group must stay near allocation-free, and a full
    // artifact must clear the 8-stream throughput floor
    if schema >= 8.0 {
        let quick = root.get("quick").and_then(Value::as_bool);
        if quick.is_none() {
            c.fail("missing boolean key 'quick' (schema v8)".into());
        }
        match root.get("calibration") {
            None => c.fail("missing 'calibration' object (schema v8)".into()),
            Some(cal) => {
                for key in ["chunk_rows", "ns_per_row_wide", "ns_per_row_narrow"] {
                    if cal.get(key).and_then(Value::as_f64).is_none() {
                        c.fail(format!("calibration missing numeric key '{key}'"));
                    }
                }
                for key in ["wide_default", "probed"] {
                    if cal.get(key).and_then(Value::as_bool).is_none() {
                        c.fail(format!("calibration missing boolean key '{key}'"));
                    }
                }
            }
        }
        match root.get("response_table_hit_rate").and_then(Value::as_f64) {
            None => c.fail("missing numeric key 'response_table_hit_rate' (schema v8)".into()),
            Some(r) if r < regression::MIN_RESPONSE_TABLE_HIT_RATE => c.fail(format!(
                "response_table_hit_rate = {r:.4} below the {:.2} floor — steady-state \
                 presses are rebuilding press-invariant sounding tables",
                regression::MIN_RESPONSE_TABLE_HIT_RATE
            )),
            _ => {}
        }
        if let Some(v) = root.get("allocs_per_group").and_then(Value::as_f64) {
            if v > regression::MAX_ALLOCS_PER_GROUP {
                c.fail(format!(
                    "allocs_per_group = {v:.1} exceeds the {:.0} ceiling",
                    regression::MAX_ALLOCS_PER_GROUP
                ));
            }
        }
        let sw = |key: &str| {
            root.get("synth_wide")
                .and_then(|sw| sw.get(key))
                .and_then(Value::as_f64)
        };
        if let (Some(on), Some(off)) = (sw("ns_per_group_on"), sw("ns_per_group_off")) {
            if off > 0.0 && on / off > regression::MAX_WIDE_ON_OFF_RATIO {
                c.fail(format!(
                    "synth_wide.ns_per_group_on = {on:.0} is {:.2}× ns_per_group_off = \
                     {off:.0} (limit {:.2}×) — wide synthesis is enabled but losing",
                    on / off,
                    regression::MAX_WIDE_ON_OFF_RATIO
                ));
            }
        }
        if quick == Some(false) {
            match root
                .get("throughput")
                .and_then(Value::as_array)
                .and_then(|points| {
                    points
                        .iter()
                        .find(|p| p.get("streams").and_then(Value::as_f64) == Some(8.0))
                })
                .and_then(|p| p.get("presses_per_sec"))
                .and_then(Value::as_f64)
            {
                None => c.fail("full v8 artifact lacks the 8-stream throughput point".into()),
                Some(pps) if pps < regression::MIN_THROUGHPUT_8_STREAMS_PPS => c.fail(format!(
                    "throughput[streams=8].presses_per_sec = {pps:.0} below the {:.0} floor",
                    regression::MIN_THROUGHPUT_8_STREAMS_PPS
                )),
                _ => {}
            }
        }
    }

    // schema v9: spectral direct line synthesis + the observability
    // measurement fixes. The spectral section carries its own absolute
    // perf gates on full artifacts (no baseline needed): the whole point
    // of skipping the waveform is a sub-millisecond sequential press and
    // an 8-stream rate an order of magnitude above the time-domain
    // floor. The metrics-series count must now reflect the instrumented
    // batch run's per-stream series, not the single-stream press loop.
    if schema >= 9.0 {
        let quick = root.get("quick").and_then(Value::as_bool);
        c.number(root, "overhead_blocks", true);
        match root.get("synth_spectral") {
            None => c.fail("missing 'synth_spectral' object (schema v9)".into()),
            Some(ss) => {
                for key in regression::SYNTH_SPECTRAL_METRICS {
                    match ss.get(key).and_then(Value::as_f64) {
                        None => c.fail(format!("synth_spectral missing numeric key '{key}'")),
                        Some(v) if !(v > 0.0 && v.is_finite()) => {
                            c.fail(format!("synth_spectral.{key} = {v}, expected > 0"))
                        }
                        Some(_) => {}
                    }
                }
                if quick == Some(false) {
                    if let Some(ns) = ss.get("ns_per_press").and_then(Value::as_f64) {
                        if ns > regression::MAX_SPECTRAL_NS_PER_PRESS {
                            c.fail(format!(
                                "synth_spectral.ns_per_press = {ns:.0} exceeds the \
                                 {:.0} ns ceiling — direct line synthesis is not \
                                 delivering its sub-millisecond press",
                                regression::MAX_SPECTRAL_NS_PER_PRESS
                            ));
                        }
                    }
                    if let Some(pps) = ss.get("presses_per_sec_8_streams").and_then(Value::as_f64) {
                        if pps < regression::MIN_SPECTRAL_THROUGHPUT_8_STREAMS_PPS {
                            c.fail(format!(
                                "synth_spectral.presses_per_sec_8_streams = {pps:.0} \
                                 below the {:.0} floor",
                                regression::MIN_SPECTRAL_THROUGHPUT_8_STREAMS_PPS
                            ));
                        }
                    }
                }
            }
        }
        let obs = |key: &str| {
            root.get("observability")
                .and_then(|o| o.get(key))
                .and_then(Value::as_f64)
        };
        match (obs("metrics_series"), obs("metrics_streams")) {
            (_, None) => {
                c.fail("observability missing numeric key 'metrics_streams' (schema v9)".into())
            }
            (Some(series), Some(streams)) if series < streams => c.fail(format!(
                "observability.metrics_series = {series:.0} below the stream count \
                 {streams:.0} — the registry harvest missed the batch run's \
                 per-stream series (the pre-v9 bug this field now gates)"
            )),
            _ => {}
        }
    }

    // schema v3: the batch-engine throughput section
    match root.get("throughput").and_then(Value::as_array) {
        None => c.fail("missing 'throughput' array (batch engine section)".into()),
        Some(points) => {
            for want in regression::REQUIRED_STREAM_POINTS {
                let Some(point) = points
                    .iter()
                    .find(|p| p.get("streams").and_then(Value::as_f64) == Some(want as f64))
                else {
                    c.fail(format!("'throughput' lacks the {want}-stream point"));
                    continue;
                };
                for key in ["workers", "presses_per_sec", "p95_stream_latency_ns"] {
                    if point.get(key).and_then(Value::as_f64).is_none() {
                        c.fail(format!("throughput[streams={want}] missing '{key}'"));
                    }
                }
            }
        }
    }
    c.errors
}

/// Validates the standalone `CALIBRATION_synth.json` probe verdict:
/// structure plus the v2 provenance pair (`schema_version` + `git_rev`)
/// the `--revs` / `--expect-rev` staleness gates key on. A committed
/// calibration without provenance can silently pin a chunk width probed
/// on a machine (and code) nobody remembers.
fn check_calibration(file: &str, root: &Value) -> Vec<String> {
    let mut c = Checker::new(file);
    match root.get("schema_version").and_then(Value::as_f64) {
        None => c.fail("missing numeric key 'schema_version' (calibration v2)".into()),
        Some(v) if v < 2.0 => c.fail(format!(
            "schema_version = {v} predates the provenance stamp — regenerate \
             CALIBRATION_synth.json with bench_json"
        )),
        Some(_) => {}
    }
    c.string(root, "git_rev");
    for key in ["chunk_rows", "ns_per_row_wide", "ns_per_row_narrow"] {
        c.number(root, key, true);
    }
    for key in ["wide_default", "probed"] {
        if root.get(key).and_then(Value::as_bool).is_none() {
            c.fail(format!("missing boolean key '{key}'"));
        }
    }
    c.errors
}

fn check_health(file: &str, root: &Value) -> Vec<String> {
    let mut c = Checker::new(file);
    c.number(root, "schema_version", true);

    // yield and lock state must be present (null only when the relevant
    // subsystem never ran; the CLI `health` command runs them all)
    for key in ["snapshot_yield", "estimator_reference_locked"] {
        if root.get(key).is_none() {
            c.fail(format!("missing key '{key}'"));
        }
    }

    // schema v3: response-table / wide-batching gauges (null when the
    // relevant path never ran, but the keys must exist)
    if root
        .get("schema_version")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
        >= 3.0
    {
        for key in ["response_table_hit_rate", "synth_chunk_rows"] {
            if root.get(key).is_none() {
                c.fail(format!("missing key '{key}' (health schema v3)"));
            }
        }
    }

    // per-stage latency percentiles
    match root.get("stages").and_then(Value::as_array) {
        None => c.fail("missing 'stages' array".into()),
        Some([]) => c.fail("'stages' is empty — no spans were recorded".into()),
        Some(stages) => {
            for stage in stages {
                c.string(stage, "name");
                for key in ["count", "p50_ns", "p95_ns", "max_ns", "total_ns"] {
                    c.number(stage, key, false);
                }
            }
        }
    }

    // counters and gauges objects
    for key in ["counters", "gauges"] {
        if !matches!(root.get(key), Some(Value::Obj(_))) {
            c.fail(format!("missing object key '{key}'"));
        }
    }
    if root.get("observations").and_then(Value::as_array).is_none() {
        c.fail("missing 'observations' array".into());
    }
    c.errors
}

/// Reads and parses one JSON artifact.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: unreadable: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

/// Runs a check over the parsed file, accumulating violations.
fn check_file(
    path: &str,
    errors: &mut Vec<String>,
    check: impl FnOnce(&str, &Value) -> Vec<String>,
) {
    match std::fs::read_to_string(path) {
        Err(e) => errors.push(format!("{path}: unreadable: {e}")),
        Ok(text) => match parse(&text) {
            Err(e) => errors.push(format!("{path}: invalid JSON: {e}")),
            Ok(root) => errors.extend(check(path, &root)),
        },
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let arg = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let bench = arg("--bench");
    let health = arg("--health");
    let baseline = arg("--baseline");
    let trace = arg("--trace");
    let metrics = arg("--metrics");
    let calibration = arg("--calibration");
    let revs = arg("--revs");
    let expect_rev = arg("--expect-rev");

    // determinism mode: `--diff A B` compares two artifacts produced by
    // the same build under different worker counts / SIMD backends and
    // fails on any difference outside timing-derived keys
    if let Some(i) = argv.iter().position(|a| a == "--diff") {
        let (Some(a_path), Some(b_path)) = (argv.get(i + 1), argv.get(i + 2)) else {
            eprintln!("--diff requires two file arguments");
            std::process::exit(2);
        };
        match (load(a_path), load(b_path)) {
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("FAIL {e}");
                std::process::exit(1);
            }
            (Ok(a), Ok(b)) => {
                let diffs = regression::diff_ignoring_timing(&a, &b);
                if diffs.is_empty() {
                    println!("{a_path} vs {b_path}: identical modulo timing keys");
                    std::process::exit(0);
                }
                for d in &diffs {
                    eprintln!("FAIL {a_path} vs {b_path}: {d}");
                }
                std::process::exit(1);
            }
        }
    }

    if bench.is_none()
        && health.is_none()
        && trace.is_none()
        && metrics.is_none()
        && calibration.is_none()
    {
        eprintln!(
            "usage: check_artifacts [--bench BENCH_pipeline.json] [--health health.json] \
             [--trace trace.json] [--metrics metrics.prom] \
             [--calibration CALIBRATION_synth.json] \
             [--baseline BENCH_baseline.json] [--revs git-log.txt] \
             [--expect-rev SHA] | --diff A.json B.json"
        );
        std::process::exit(2);
    }
    if baseline.is_some() && bench.is_none() {
        eprintln!("--baseline requires --bench");
        std::process::exit(2);
    }
    if revs.is_some() && baseline.is_none() && bench.is_none() && calibration.is_none() {
        eprintln!("--revs requires --bench, --baseline, or --calibration");
        std::process::exit(2);
    }
    if expect_rev.is_some() && bench.is_none() && calibration.is_none() {
        eprintln!("--expect-rev requires --bench or --calibration");
        std::process::exit(2);
    }

    let mut errors = Vec::new();
    if let Some(path) = &bench {
        check_file(path, &mut errors, check_bench);
    }
    if let Some(path) = &health {
        check_file(path, &mut errors, check_health);
    }
    if let Some(path) = &calibration {
        check_file(path, &mut errors, check_calibration);
    }
    if let Some(path) = &trace {
        check_file(path, &mut errors, |file, root| {
            observability::validate_chrome_trace(root)
                .into_iter()
                .map(|v| format!("{file}: {v}"))
                .collect()
        });
    }
    if let Some(path) = &metrics {
        // Prometheus exposition is not JSON — read and validate as text
        match std::fs::read_to_string(path) {
            Err(e) => errors.push(format!("{path}: unreadable: {e}")),
            Ok(text) => errors.extend(
                observability::validate_prometheus(&text)
                    .into_iter()
                    .map(|v| format!("{path}: {v}")),
            ),
        }
    }

    // provenance gate: the committed artifact's git_rev must name a
    // commit from the provided `git log` listing (one rev per line,
    // short or full), catching a baseline that went stale because nobody
    // regenerated it after landing perf-relevant changes. Applies to the
    // --baseline artifact when given (that is the committed one), else
    // to --bench.
    if let Some(revs_path) = &revs {
        // the committed bench baseline and the committed calibration
        // verdict both go stale the same way; each provided artifact's
        // git_rev must name a commit from the listing
        let targets: Vec<&String> = baseline
            .as_ref()
            .or(bench.as_ref())
            .into_iter()
            .chain(calibration.as_ref())
            .collect();
        match std::fs::read_to_string(revs_path) {
            Err(e) => errors.push(format!("{revs_path}: unreadable: {e}")),
            Ok(revlist) => {
                for target in targets {
                    match load(target) {
                        Err(e) => errors.push(e),
                        Ok(doc) => match doc.get("git_rev").and_then(Value::as_str) {
                            None | Some("") => errors
                                .push(format!("{target}: missing 'git_rev' for the --revs check")),
                            Some(rev) => {
                                let known = revlist
                                    .split_whitespace()
                                    .any(|r| r.starts_with(rev) || rev.starts_with(r));
                                if !known {
                                    errors.push(format!(
                                        "{target}: git_rev {rev:?} does not match any commit in \
                                         {revs_path} — the committed artifact is stale; \
                                         regenerate it with bench_json and commit the result"
                                    ));
                                }
                            }
                        },
                    }
                }
            }
        }
    }

    // build-provenance gate: a freshly generated --bench artifact must be
    // stamped with the rev it was built from. CI passes the checkout SHA;
    // a mismatch means the bench binary was built before HEAD moved (the
    // stale-GIT_REV bug the build script's rerun-if-changed now prevents)
    if let Some(want) = &expect_rev {
        // a freshly generated calibration carries the same stamp as the
        // bench artifact it was written alongside — check both
        for fresh_path in bench.iter().chain(calibration.iter()) {
            match load(fresh_path) {
                Err(e) => errors.push(e),
                Ok(doc) => match doc.get("git_rev").and_then(Value::as_str) {
                    None | Some("") => {
                        errors.push(format!("{fresh_path}: missing 'git_rev' for --expect-rev"))
                    }
                    Some(rev) => {
                        if !(rev.starts_with(want.as_str()) || want.starts_with(rev)) {
                            errors.push(format!(
                                "{fresh_path}: git_rev {rev:?} does not match the expected \
                                 build rev {want:?} — the bench binary carries a stale stamp"
                            ));
                        }
                    }
                },
            }
        }
    }

    // perf-regression gate: fresh --bench vs committed --baseline
    if let (Some(base_path), Some(fresh_path)) = (&baseline, &bench) {
        match (load(base_path), load(fresh_path)) {
            (Err(e), _) | (_, Err(e)) => errors.push(e),
            (Ok(base), Ok(fresh)) => {
                let cmp = regression::compare(&base, &fresh);
                let table = cmp.markdown_table();
                println!("{table}");
                if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
                    use std::io::Write;
                    if let Ok(mut f) = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&summary)
                    {
                        let _ = writeln!(f, "{table}");
                    }
                }
                for v in cmp.violations {
                    errors.push(format!("{fresh_path} vs {base_path}: {v}"));
                }
            }
        }
    }

    if errors.is_empty() {
        for path in [bench, health, trace, metrics, calibration]
            .into_iter()
            .flatten()
        {
            println!("{path}: OK");
        }
    } else {
        for e in &errors {
            eprintln!("FAIL {e}");
        }
        std::process::exit(1);
    }
}
