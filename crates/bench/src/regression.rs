//! Perf-regression gate over `BENCH_pipeline.json` artifacts.
//!
//! CI regenerates the benchmark on every run and compares it against the
//! committed baseline with [`compare`]: the hot-path metric
//! (`ns_per_press`) may not regress by more than [`MAX_REGRESSION_PCT`],
//! and the fresh artifact must carry a complete batch-engine
//! `throughput` section ([`REQUIRED_STREAM_POINTS`]) demonstrating at
//! least [`MIN_STREAM_SPEEDUP`]× aggregate presses/sec at the largest
//! stream count versus one stream. Everything else is reported
//! informationally in a before/after table suitable for a GitHub job
//! summary ([`Comparison::markdown_table`]).
//!
//! The comparison logic is a plain function over parsed JSON values so
//! it unit-tests without touching the filesystem; `check_artifacts`
//! wires it to files and exit codes.

use wiforce_telemetry::json::Value;

/// Hard ceiling on how much slower a gated metric may get, percent.
///
/// The gate compares two single runs of a timing benchmark on a shared
/// one-core CI box; the press loop's observed run-to-run spread is
/// ~±10%, so the ceiling sits above the noise floor while still
/// catching real multi-stage regressions.
pub const MAX_REGRESSION_PCT: f64 = 25.0;

/// Hard ceiling on how much `stage_breakdown.synth_ns_per_press` may
/// regress, percent. Tighter than the headline gate: the synthesis stage
/// is the pipeline's dominant cost and its per-stage time is a span
/// aggregate over every telemetry-on press (less noisy than a single
/// wall-clock pair), so a 15% move is a real regression, not jitter.
pub const MAX_SYNTH_STAGE_REGRESSION_PCT: f64 = 15.0;

/// Maximum absolute growth of `allocs_per_group` over the baseline.
/// Allocation counts are near-deterministic (the counting allocator sees
/// the same steady-state loop every run), so any growth beyond a couple
/// of stray allocations is a real hot-path regression — this metric
/// drifted 6 → 13 while it was informational, which is exactly what the
/// gate now prevents.
pub const MAX_ALLOCS_PER_GROUP_GROWTH: f64 = 2.0;

/// Stream counts the fresh artifact's `throughput` section must cover.
pub const REQUIRED_STREAM_POINTS: [u64; 3] = [1, 4, 8];

/// Minimum aggregate presses/sec speedup at the largest required stream
/// count relative to one stream (the sounding-amortization guarantee).
///
/// The ideal ratio is `8(s+x)/(s+8x)` for shared sounding cost `s` and
/// per-stream cost `x`; with the sounding now ~5× faster than at v3 the
/// non-amortizing stages (demux copy, Goertzel extraction, model
/// inversion) cap it near 3.2×, so the gate sits at 2.5× — low enough
/// not to flake on scheduler jitter, high enough that it fails if the
/// sounding stops being shared.
pub const MIN_STREAM_SPEEDUP: f64 = 2.5;

/// Hard ceiling on `telemetry_overhead_pct`: recording spans and counters
/// may not cost more than this fraction of the telemetry-off hot path
/// (enforced by `check_artifacts` on schema-v4 artifacts).
///
/// Recalibrated from 5% with the counter-synthesis path: with the
/// recorder enabled the workers accumulate per-snapshot tick counts and
/// the calling thread replays them (plus the fused-extraction spans) in
/// deterministic order after the join, which prices the median a few
/// points above zero, and single-core CI runs of the off/on pair swing
/// ±3 points on top. The ceiling sits above that floor while still
/// catching a recorder that starts allocating or locking per snapshot.
pub const MAX_TELEMETRY_OVERHEAD_PCT: f64 = 12.0;

/// Reconciliation band for the schema-v5 stage-sum check: the four
/// per-stage `*_ns_per_press` entries must sum to within this band of
/// `ns_per_press_telemetry_on`. The band is deliberately loose — the
/// stages are span/tick aggregates averaged over every telemetry-on
/// block while the headline is the best block, the fused streaming path
/// counts spectrum extraction both inside the synthesis wall time and as
/// its own thread-time stage, and parallel synthesis makes thread time
/// exceed wall time — but it still catches a stage that silently stops
/// being recorded (sum collapses toward 0) or double-counts wildly.
pub const STAGE_SUM_MIN_RATIO: f64 = 0.35;
/// Upper edge of the stage-sum reconciliation band (see
/// [`STAGE_SUM_MIN_RATIO`]).
pub const STAGE_SUM_MAX_RATIO: f64 = 2.5;

/// Ceiling on `synth_wide.ns_per_group_on / ns_per_group_off` for v8
/// artifacts: the calibrated default may only run the wide SoA path when
/// it actually wins, so an artifact where wide costs more than the row
/// path (beyond timing noise on one 50-iteration pair) means the
/// chunk-width calibration is broken or being ignored.
pub const MAX_WIDE_ON_OFF_RATIO: f64 = 1.05;

/// Floor on the steady-state `response_table_hit_rate` for v8 artifacts:
/// with patch jitter zeroed, every post-warmup press must gather its
/// prepared sounding tables from the per-scene response memo.
pub const MIN_RESPONSE_TABLE_HIT_RATE: f64 = 0.99;

/// Absolute ceiling on `allocs_per_group` for v8 artifacts. The pooled
/// scratch and response tables brought the steady-state sequential group
/// to a handful of allocations; this gate keeps it there independently of
/// what any baseline says.
pub const MAX_ALLOCS_PER_GROUP: f64 = 6.0;

/// Floor on aggregate batch throughput at the 8-stream point for full
/// (non-`quick`) v8 artifacts, presses per second across all streams.
pub const MIN_THROUGHPUT_8_STREAMS_PPS: f64 = 1200.0;

/// Ceiling on `synth_spectral.ns_per_press` for full v9 artifacts: the
/// spectral path synthesizes the two consumed lines directly (O(K) work
/// per group instead of O(N·K) waveform + O(N log N) extraction), so a
/// sequential press must come in under a millisecond — roughly 3× faster
/// than the time-domain headline has ever been. Breaching it means the
/// fast path fell back to waveform synthesis or grew a hidden O(N·K)
/// stage.
pub const MAX_SPECTRAL_NS_PER_PRESS: f64 = 1_000_000.0;

/// Floor on `synth_spectral.presses_per_sec_8_streams` for full v9
/// artifacts: an 8-stream spectral batch run must clear 5000 aggregate
/// presses/sec — an order of magnitude above the time-domain
/// [`MIN_THROUGHPUT_8_STREAMS_PPS`] floor, which is the whole point of
/// skipping the waveform.
pub const MIN_SPECTRAL_THROUGHPUT_8_STREAMS_PPS: f64 = 5000.0;

/// Keys of the v9 `synth_spectral` object (all timing-derived, so the
/// determinism diff skips them via [`is_timing_key`]'s patterns).
pub const SYNTH_SPECTRAL_METRICS: [&str; 4] = [
    "ns_per_press",
    "presses_per_sec",
    "presses_per_sec_8_streams",
    "p95_stream_latency_ns",
];

/// Keys of the schema-v4 `stage_breakdown` object, reported per-stage in
/// the before/after table so a `ns_per_press` move names its stage.
pub const STAGE_BREAKDOWN_METRICS: [&str; 5] = [
    "synth_ns_per_press",
    "spectrum_ns_per_press",
    "estimator_ns_per_press",
    "tracker_ns_per_press",
    "cache_hit_rate",
];

/// One before/after line of the comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name as it appears in the artifact.
    pub metric: String,
    /// Baseline value, if the baseline artifact has the key.
    pub baseline: Option<f64>,
    /// Fresh value, if the fresh artifact has the key.
    pub fresh: Option<f64>,
    /// Relative change in percent, `(fresh - baseline) / baseline`.
    pub delta_pct: Option<f64>,
    /// Whether this row participates in the pass/fail gate.
    pub gated: bool,
}

impl Row {
    fn build(metric: &str, baseline: &Value, fresh: &Value, gated: bool) -> Row {
        let b = baseline.get(metric).and_then(Value::as_f64);
        let f = fresh.get(metric).and_then(Value::as_f64);
        let delta_pct = match (b, f) {
            (Some(b), Some(f)) if b != 0.0 => Some(100.0 * (f - b) / b),
            _ => None,
        };
        Row {
            metric: metric.to_string(),
            baseline: b,
            fresh: f,
            delta_pct,
            gated,
        }
    }
}

/// The outcome of one baseline-vs-fresh comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Before/after rows, gated metrics first.
    pub rows: Vec<Row>,
    /// Human-readable gate violations; empty means the gate passes.
    pub violations: Vec<String>,
}

impl Comparison {
    /// `true` when no gated metric regressed and the throughput section
    /// is complete.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// GitHub-flavoured markdown before/after table plus a verdict line,
    /// ready for `$GITHUB_STEP_SUMMARY`.
    pub fn markdown_table(&self) -> String {
        let mut out = String::from("### Pipeline benchmark vs baseline\n\n");
        out.push_str("| metric | baseline | fresh | Δ% | gate |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        for row in &self.rows {
            let fmt = |v: Option<f64>| match v {
                Some(v) => format!("{v:.2}"),
                None => "—".to_string(),
            };
            let delta = match row.delta_pct {
                Some(d) => format!("{d:+.1}%"),
                None => "—".to_string(),
            };
            let gate = if !row.gated {
                "info"
            } else if self
                .violations
                .iter()
                .any(|v| v.starts_with(row.metric.as_str()))
            {
                "**FAIL**"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                row.metric,
                fmt(row.baseline),
                fmt(row.fresh),
                delta,
                gate
            ));
        }
        out.push('\n');
        if self.passed() {
            out.push_str("✅ no perf regression\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("❌ {v}\n"));
            }
        }
        out
    }
}

/// Extracts `presses_per_sec` per stream count from an artifact's
/// `throughput` array, in file order.
fn throughput_points(doc: &Value) -> Option<Vec<(u64, f64, Option<f64>)>> {
    let arr = doc.get("throughput").and_then(Value::as_array)?;
    let mut out = Vec::new();
    for entry in arr {
        let streams = entry.get("streams").and_then(Value::as_f64)? as u64;
        let pps = entry.get("presses_per_sec").and_then(Value::as_f64)?;
        let p95 = entry.get("p95_stream_latency_ns").and_then(Value::as_f64);
        out.push((streams, pps, p95));
    }
    Some(out)
}

/// Compares a fresh `BENCH_pipeline.json` document against the committed
/// baseline. Gates: `ns_per_press` may not regress more than
/// [`MAX_REGRESSION_PCT`]; the fresh `throughput` section must cover
/// [`REQUIRED_STREAM_POINTS`] with positive throughput and latency keys
/// and scale by [`MIN_STREAM_SPEEDUP`] at the top point.
pub fn compare(baseline: &Value, fresh: &Value) -> Comparison {
    let mut rows = Vec::new();
    let mut violations = Vec::new();

    // gated hot-path metric (lower is better)
    let row = Row::build("ns_per_press", baseline, fresh, true);
    match (row.fresh, row.delta_pct) {
        (None, _) => violations.push("ns_per_press is missing from the fresh artifact".to_string()),
        (Some(_), Some(d)) if d > MAX_REGRESSION_PCT => violations.push(format!(
            "ns_per_press regressed {d:+.1}% (limit {MAX_REGRESSION_PCT:.0}%)"
        )),
        _ => {}
    }
    rows.push(row);

    // gated allocation count: near-deterministic, so growth beyond a
    // couple of stray allocations is a real hot-path regression
    let allocs = Row::build("allocs_per_group", baseline, fresh, true);
    if let (Some(b), Some(f)) = (allocs.baseline, allocs.fresh) {
        if f > b + MAX_ALLOCS_PER_GROUP_GROWTH {
            violations.push(format!(
                "allocs_per_group grew from {b:.1} to {f:.1} \
                 (allowed +{MAX_ALLOCS_PER_GROUP_GROWTH:.0})"
            ));
        }
    }
    rows.push(allocs);

    // informational context
    for metric in ["presses_per_sec", "ns_per_group", "telemetry_overhead_pct"] {
        rows.push(Row::build(metric, baseline, fresh, false));
    }

    // wide-path guard (schema v7+): the calibrated default must keep the
    // SoA path at least as fast as the row path. Gated on the fresh
    // artifact alone — the ratio needs no baseline — and reported as a
    // before/after row so a drift in either leg is visible.
    let wide = |doc: &Value, key: &str| {
        doc.get("synth_wide")
            .and_then(|sw| sw.get(key))
            .and_then(Value::as_f64)
    };
    for key in ["ns_per_group_on", "ns_per_group_off"] {
        let b = wide(baseline, key);
        let f = wide(fresh, key);
        if b.is_some() || f.is_some() {
            rows.push(Row {
                metric: format!("synth_wide.{key}"),
                baseline: b,
                fresh: f,
                delta_pct: match (b, f) {
                    (Some(b), Some(f)) if b != 0.0 => Some(100.0 * (f - b) / b),
                    _ => None,
                },
                gated: key == "ns_per_group_on",
            });
        }
    }
    if let (Some(on), Some(off)) = (
        wide(fresh, "ns_per_group_on"),
        wide(fresh, "ns_per_group_off"),
    ) {
        if off > 0.0 && on / off > MAX_WIDE_ON_OFF_RATIO {
            violations.push(format!(
                "synth_wide.ns_per_group_on = {on:.0} is {:.2}× ns_per_group_off = {off:.0} \
                 (limit {MAX_WIDE_ON_OFF_RATIO:.2}×) — the wide path is enabled but losing; \
                 the chunk-width calibration should have fallen back to the row path",
                on / off
            ));
        }
    }

    // schema v4+: per-stage deltas. The synthesis stage is gated on its
    // own (it dominates the press and its span aggregate is less noisy
    // than the wall-clock headline); the rest name the stage that moved.
    let stage = |doc: &Value, key: &str| {
        doc.get("stage_breakdown")
            .and_then(|sb| sb.get(key))
            .and_then(Value::as_f64)
    };
    for key in STAGE_BREAKDOWN_METRICS {
        let b = stage(baseline, key);
        let f = stage(fresh, key);
        let delta_pct = match (b, f) {
            (Some(b), Some(f)) if b != 0.0 => Some(100.0 * (f - b) / b),
            _ => None,
        };
        let gated = key == "synth_ns_per_press";
        if gated {
            if let Some(d) = delta_pct {
                if d > MAX_SYNTH_STAGE_REGRESSION_PCT {
                    violations.push(format!(
                        "stage_breakdown.synth_ns_per_press regressed {d:+.1}% \
                         (limit {MAX_SYNTH_STAGE_REGRESSION_PCT:.0}%)"
                    ));
                }
            }
        }
        if b.is_some() || f.is_some() {
            rows.push(Row {
                metric: format!("stage_breakdown.{key}"),
                baseline: b,
                fresh: f,
                delta_pct,
                gated,
            });
        }
    }

    // throughput section: structural completeness is gated
    let base_points = throughput_points(baseline).unwrap_or_default();
    match throughput_points(fresh) {
        None => violations.push(
            "fresh artifact is missing the 'throughput' section \
             (streams/presses_per_sec/p95_stream_latency_ns)"
                .to_string(),
        ),
        Some(points) => {
            for want in REQUIRED_STREAM_POINTS {
                let Some(&(_, pps, p95)) = points.iter().find(|(s, _, _)| *s == want) else {
                    violations.push(format!("throughput section lacks the {want}-stream point"));
                    continue;
                };
                if pps <= 0.0 {
                    violations.push(format!(
                        "throughput[streams={want}].presses_per_sec = {pps}, expected > 0"
                    ));
                }
                if p95.is_none() {
                    violations.push(format!(
                        "throughput[streams={want}] is missing 'p95_stream_latency_ns'"
                    ));
                }
                let base_pps = base_points
                    .iter()
                    .find(|(s, _, _)| *s == want)
                    .map(|&(_, pps, _)| pps);
                let delta_pct = base_pps
                    .filter(|b| *b != 0.0)
                    .map(|b| 100.0 * (pps - b) / b);
                rows.push(Row {
                    metric: format!("throughput[{want}].presses_per_sec"),
                    baseline: base_pps,
                    fresh: Some(pps),
                    delta_pct,
                    gated: false,
                });
            }
            let one = points.iter().find(|(s, _, _)| *s == 1).map(|p| p.1);
            let top_streams = *REQUIRED_STREAM_POINTS.iter().max().expect("non-empty");
            let top = points
                .iter()
                .find(|(s, _, _)| *s == top_streams)
                .map(|p| p.1);
            if let (Some(one), Some(top)) = (one, top) {
                if one > 0.0 && top / one < MIN_STREAM_SPEEDUP {
                    violations.push(format!(
                        "aggregate speedup at {top_streams} streams is {:.2}×, \
                         expected ≥ {MIN_STREAM_SPEEDUP:.1}×",
                        top / one
                    ));
                }
            }
        }
    }

    Comparison { rows, violations }
}

/// Returns `true` when a JSON key names a timing-dependent quantity that
/// legitimately varies between runs (and between worker counts): span
/// durations, latencies, throughput rates, overhead ratios, and the
/// worker-count knobs themselves. Everything else — counts, counters,
/// gauges, observation histograms, yields — is expected to be
/// bit-deterministic for a fixed seed regardless of
/// `WIFORCE_SYNTH_WORKERS`, which is what [`diff_ignoring_timing`]
/// checks.
pub fn is_timing_key(key: &str) -> bool {
    key.ends_with("_ns")
        || key.starts_with("ns_per")
        || key.contains("_ns_per")
        || key.contains("per_sec")
        || key.contains("latency")
        || key.contains("overhead")
        || key == "synth_workers"
        || key == "workers"
        || key == "git_rev"
        // schema-v6 observability section: event counts vary with lane
        // registration order and how work lands on workers, and the
        // registry's per-worker label set follows the worker count
        || key == "trace_events"
        || key == "trace_dropped"
        || key == "metrics_series"
        // schema-v8 wide-batching fields: the chunk-width probe times the
        // machine, so its verdict (and the chunk width it chose)
        // legitimately differs between runs and hosts
        || key == "calibration"
        || key == "chunk_rows"
        || key == "wide_default"
        // the response memo's counters are shared across synth workers
        // and a racing double-build counts as an extra miss, so the
        // cumulative rate differs by scheduling accident (the bench's
        // own steady-state measurement — warm memo, then count — is
        // what the ≥ 0.99 gate checks instead)
        || key == "response_table_hit_rate"
}

fn diff_walk(path: &str, a: &Value, b: &Value, out: &mut Vec<String>) {
    const MAX_DIFFS: usize = 64;
    if out.len() >= MAX_DIFFS {
        return;
    }
    match (a, b) {
        (Value::Obj(ka), Value::Obj(kb)) => {
            for (k, va) in ka {
                if is_timing_key(k) {
                    continue;
                }
                let child = format!("{path}.{k}");
                match kb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_walk(&child, va, vb, out),
                    None => out.push(format!("{child}: present in A, missing in B")),
                }
            }
            for (k, _) in kb {
                if !is_timing_key(k) && !ka.iter().any(|(ka, _)| ka == k) {
                    out.push(format!("{path}.{k}: present in B, missing in A"));
                }
            }
        }
        (Value::Arr(xa), Value::Arr(xb)) => {
            if xa.len() != xb.len() {
                out.push(format!(
                    "{path}: array length {} in A vs {} in B",
                    xa.len(),
                    xb.len()
                ));
                return;
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_walk(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        (Value::Num(na), Value::Num(nb)) => {
            // deterministic outputs must match exactly (they are the same
            // bits formatted by the same writer)
            if na != nb && !(na.is_nan() && nb.is_nan()) {
                out.push(format!("{path}: {na} in A vs {nb} in B"));
            }
        }
        (Value::Str(sa), Value::Str(sb)) => {
            if sa != sb {
                out.push(format!("{path}: {sa:?} in A vs {sb:?} in B"));
            }
        }
        (Value::Bool(ba), Value::Bool(bb)) => {
            if ba != bb {
                out.push(format!("{path}: {ba} in A vs {bb} in B"));
            }
        }
        (Value::Null, Value::Null) => {}
        _ => out.push(format!("{path}: type mismatch between A and B")),
    }
}

/// Structurally compares two JSON artifacts while skipping keys that
/// [`is_timing_key`] classifies as run-dependent. Returns the list of
/// differences (empty = deterministically equal). CI runs this over
/// health and bench artifacts produced at `WIFORCE_SYNTH_WORKERS=1`
/// vs `=8` to pin the counter path's worker-count invariance end to end.
pub fn diff_ignoring_timing(a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff_walk("$", a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiforce_telemetry::json::parse;

    fn doc(ns_per_press: f64, throughput: &str) -> Value {
        parse(&format!(
            r#"{{
                "schema_version": 3,
                "git_rev": "abc",
                "ns_per_press": {ns_per_press},
                "presses_per_sec": {},
                "ns_per_group": 6000000,
                "allocs_per_group": 6,
                "telemetry_overhead_pct": 10.0,
                "throughput": {throughput}
            }}"#,
            1e9 / ns_per_press
        ))
        .expect("test doc parses")
    }

    fn full_throughput() -> String {
        let body = REQUIRED_STREAM_POINTS
            .iter()
            .map(|s| {
                format!(
                    r#"{{"streams": {s}, "workers": {s}, "presses_per_sec": {}, "p95_stream_latency_ns": 5000000}}"#,
                    *s as f64 * 100.0
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!("[{body}]")
    }

    #[test]
    fn equal_artifacts_pass() {
        let base = doc(2e7, &full_throughput());
        let cmp = compare(&base, &base);
        assert!(cmp.passed(), "{:?}", cmp.violations);
        assert!(cmp.markdown_table().contains("✅"));
    }

    #[test]
    fn small_regression_passes_large_fails() {
        let base = doc(2e7, &full_throughput());
        let ok = doc(2e7 * 1.20, &full_throughput());
        assert!(compare(&base, &ok).passed());

        let bad = doc(2e7 * 1.30, &full_throughput());
        let cmp = compare(&base, &bad);
        assert!(!cmp.passed());
        assert!(
            cmp.violations[0].contains("ns_per_press"),
            "{:?}",
            cmp.violations
        );
        assert!(cmp.markdown_table().contains("**FAIL**"));
    }

    #[test]
    fn improvement_always_passes() {
        let base = doc(2e7, &full_throughput());
        let faster = doc(2e7 * 0.5, &full_throughput());
        assert!(compare(&base, &faster).passed());
    }

    #[test]
    fn missing_throughput_section_fails() {
        let base = doc(2e7, &full_throughput());
        let fresh = parse(
            r#"{"schema_version": 2, "git_rev": "abc", "ns_per_press": 2e7,
                "presses_per_sec": 50.0, "ns_per_group": 6e6, "allocs_per_group": 6}"#,
        )
        .unwrap();
        let cmp = compare(&base, &fresh);
        assert!(!cmp.passed());
        assert!(cmp.violations.iter().any(|v| v.contains("throughput")));
    }

    #[test]
    fn missing_stream_point_fails() {
        let base = doc(2e7, &full_throughput());
        let fresh = doc(
            2e7,
            r#"[{"streams": 1, "workers": 1, "presses_per_sec": 100.0,
                 "p95_stream_latency_ns": 5000000},
                {"streams": 4, "workers": 4, "presses_per_sec": 400.0,
                 "p95_stream_latency_ns": 5000000}]"#,
        );
        let cmp = compare(&base, &fresh);
        assert!(!cmp.passed());
        assert!(
            cmp.violations.iter().any(|v| v.contains("8-stream")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn insufficient_speedup_fails() {
        let base = doc(2e7, &full_throughput());
        let flat = doc(
            2e7,
            r#"[{"streams": 1, "workers": 1, "presses_per_sec": 100.0,
                 "p95_stream_latency_ns": 5000000},
                {"streams": 4, "workers": 4, "presses_per_sec": 150.0,
                 "p95_stream_latency_ns": 5000000},
                {"streams": 8, "workers": 8, "presses_per_sec": 200.0,
                 "p95_stream_latency_ns": 5000000}]"#,
        );
        let cmp = compare(&base, &flat);
        assert!(!cmp.passed());
        assert!(
            cmp.violations.iter().any(|v| v.contains("speedup")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn baseline_without_throughput_still_gates_fresh() {
        // upgrading from a v2 baseline: fresh must carry the section even
        // though the baseline predates it
        let base = parse(
            r#"{"schema_version": 2, "git_rev": "old", "ns_per_press": 2e7,
                "presses_per_sec": 50.0, "ns_per_group": 6e6, "allocs_per_group": 6}"#,
        )
        .unwrap();
        let fresh = doc(2e7, &full_throughput());
        let cmp = compare(&base, &fresh);
        assert!(cmp.passed(), "{:?}", cmp.violations);
    }

    #[test]
    fn stage_breakdown_rows_are_reported_not_gated() {
        let base = doc(2e7, &full_throughput());
        let with_stages = parse(&format!(
            r#"{{
                "schema_version": 4,
                "git_rev": "abc",
                "ns_per_press": 2e7,
                "presses_per_sec": 50.0,
                "ns_per_group": 6000000,
                "allocs_per_group": 6,
                "telemetry_overhead_pct": 3.0,
                "stage_breakdown": {{
                    "synth_ns_per_press": 9000000,
                    "spectrum_ns_per_press": 600000,
                    "estimator_ns_per_press": 2000,
                    "tracker_ns_per_press": 500,
                    "cache_hit_rate": 1.0
                }},
                "throughput": {}
            }}"#,
            full_throughput()
        ))
        .unwrap();
        // v3 baseline without the section: fresh stages still listed
        let cmp = compare(&base, &with_stages);
        assert!(cmp.passed(), "{:?}", cmp.violations);
        let md = cmp.markdown_table();
        assert!(md.contains("stage_breakdown.synth_ns_per_press"), "{md}");
        // v4 vs v4: deltas computed; the synthesis stage carries its own
        // gate, the remaining stages stay informational
        let cmp2 = compare(&with_stages, &with_stages);
        let row = cmp2
            .rows
            .iter()
            .find(|r| r.metric == "stage_breakdown.synth_ns_per_press")
            .expect("stage row");
        assert_eq!(row.delta_pct, Some(0.0));
        assert!(row.gated);
        let spectrum = cmp2
            .rows
            .iter()
            .find(|r| r.metric == "stage_breakdown.spectrum_ns_per_press")
            .expect("spectrum row");
        assert!(!spectrum.gated);
    }

    #[test]
    fn diff_ignores_timing_keys_but_flags_real_drift() {
        let a = parse(
            r#"{"schema_version": 5, "ns_per_press": 100, "synth_workers": 1,
                "telemetry_spans_recorded": 42, "git_rev": "aaa",
                "counters": {"pipeline.presses": 9, "faults.snapshots_dropped": 3},
                "stages": [{"name": "pipeline.run_snapshots", "count": 2, "p95_ns": 5}],
                "throughput": [{"streams": 1, "workers": 1, "presses_per_sec": 10.0}]}"#,
        )
        .unwrap();
        let b = parse(
            r#"{"schema_version": 5, "ns_per_press": 999, "synth_workers": 8,
                "telemetry_spans_recorded": 42, "git_rev": "bbb",
                "counters": {"pipeline.presses": 9, "faults.snapshots_dropped": 3},
                "stages": [{"name": "pipeline.run_snapshots", "count": 2, "p95_ns": 7000}],
                "throughput": [{"streams": 1, "workers": 1, "presses_per_sec": 55.5}]}"#,
        )
        .unwrap();
        // only timing keys differ → deterministically equal
        assert_eq!(diff_ignoring_timing(&a, &b), Vec::<String>::new());

        // a drifted counter is a real difference
        let c = parse(
            r#"{"schema_version": 5, "ns_per_press": 100, "synth_workers": 1,
                "telemetry_spans_recorded": 41, "git_rev": "aaa",
                "counters": {"pipeline.presses": 9, "faults.snapshots_dropped": 4},
                "stages": [{"name": "pipeline.run_snapshots", "count": 3, "p95_ns": 5}],
                "throughput": [{"streams": 1, "workers": 1, "presses_per_sec": 10.0}]}"#,
        )
        .unwrap();
        let diffs = diff_ignoring_timing(&a, &c);
        assert!(
            diffs.iter().any(|d| d.contains("snapshots_dropped")),
            "{diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("telemetry_spans_recorded")),
            "{diffs:?}"
        );
        assert!(diffs.iter().any(|d| d.contains("count")), "{diffs:?}");
    }

    #[test]
    fn diff_flags_missing_keys_and_shape_changes() {
        let a = parse(r#"{"counters": {"x": 1}, "stages": [{"name": "s"}]}"#).unwrap();
        let b = parse(r#"{"counters": {}, "stages": []}"#).unwrap();
        let diffs = diff_ignoring_timing(&a, &b);
        assert!(
            diffs.iter().any(|d| d.contains("missing in B")),
            "{diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("array length")),
            "{diffs:?}"
        );
        let c = parse(r#"{"counters": 3, "stages": [{"name": "s"}]}"#).unwrap();
        assert!(diff_ignoring_timing(&a, &c)
            .iter()
            .any(|d| d.contains("type mismatch")));
    }

    fn doc_with_stages(ns_per_press: f64, synth_ns: f64, allocs: f64) -> Value {
        parse(&format!(
            r#"{{
                "schema_version": 7,
                "git_rev": "abc",
                "ns_per_press": {ns_per_press},
                "presses_per_sec": {},
                "ns_per_group": 6000000,
                "allocs_per_group": {allocs},
                "telemetry_overhead_pct": 3.0,
                "stage_breakdown": {{
                    "synth_ns_per_press": {synth_ns},
                    "spectrum_ns_per_press": 600000,
                    "estimator_ns_per_press": 2000,
                    "tracker_ns_per_press": 500,
                    "cache_hit_rate": 1.0
                }},
                "throughput": {}
            }}"#,
            1e9 / ns_per_press,
            full_throughput()
        ))
        .expect("test doc parses")
    }

    #[test]
    fn synth_stage_gate_catches_its_own_regression() {
        let base = doc_with_stages(2e7, 3.0e6, 6.0);
        // the stage regresses 20% while the headline stays flat — the
        // per-stage gate must catch what the 25% headline gate misses
        let bad = doc_with_stages(2e7, 3.6e6, 6.0);
        let cmp = compare(&base, &bad);
        assert!(!cmp.passed());
        assert!(
            cmp.violations
                .iter()
                .any(|v| v.starts_with("stage_breakdown.synth_ns_per_press")),
            "{:?}",
            cmp.violations
        );
        // the headline row must not be marked FAIL by the stage violation
        let md = cmp.markdown_table();
        assert!(
            md.contains("| ns_per_press | 20000000.00 | 20000000.00 | +0.0% | ok |"),
            "{md}"
        );
        // within the limit passes
        let ok = doc_with_stages(2e7, 3.4e6, 6.0);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn allocs_per_group_growth_fails() {
        let base = doc_with_stages(2e7, 3.0e6, 6.0);
        // the historical 6 → 13 drift must now fail
        let drifted = doc_with_stages(2e7, 3.0e6, 13.0);
        let cmp = compare(&base, &drifted);
        assert!(!cmp.passed());
        assert!(
            cmp.violations
                .iter()
                .any(|v| v.starts_with("allocs_per_group")),
            "{:?}",
            cmp.violations
        );
        // a couple of stray allocations stay within tolerance
        let ok = doc_with_stages(2e7, 3.0e6, 7.5);
        assert!(compare(&base, &ok).passed());
        // improvement is always fine
        let better = doc_with_stages(2e7, 3.0e6, 0.0);
        assert!(compare(&base, &better).passed());
    }

    #[test]
    fn markdown_table_lists_all_rows() {
        let base = doc(2e7, &full_throughput());
        let md = compare(&base, &base).markdown_table();
        for needle in [
            "ns_per_press",
            "presses_per_sec",
            "ns_per_group",
            "throughput[8].presses_per_sec",
        ] {
            assert!(md.contains(needle), "missing {needle} in:\n{md}");
        }
    }
}
