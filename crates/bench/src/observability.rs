//! Structural validators for the observability artifacts CI produces:
//! Chrome trace-event JSON (`wiforce-cli serve --trace`) and Prometheus
//! text exposition (`wiforce-cli serve --metrics`).
//!
//! Both validators are plain functions from parsed input to a list of
//! human-readable violations (empty = valid), mirroring
//! [`crate::regression::compare`]: `check_artifacts` wires them to files
//! and exit codes, the CI observability job wires those to a red build.
//!
//! The trace validator doubles as the ring-overflow gate: a non-zero
//! `otherData.dropped_events` is a violation, because a trace with holes
//! cannot back the flow-matching checks (and CI runs are sized to fit
//! the per-thread rings).

use wiforce_telemetry::json::Value;

/// Chrome trace-event phases the WiForce exporter emits (metadata,
/// span begin/end, instant, flow start/end, counter).
pub const KNOWN_PHASES: [&str; 7] = ["M", "B", "E", "i", "s", "f", "C"];

/// Validates a parsed Chrome trace-event document. Checks, in order:
///
/// - `traceEvents` is a non-empty array containing at least one
///   non-metadata event;
/// - every event carries `name`/`ph`/`pid`/`tid`, the phase is one of
///   [`KNOWN_PHASES`], and non-metadata events have a finite `ts`;
/// - process and thread metadata (`process_name`, ≥ 1 `thread_name`)
///   are present so Perfetto labels the lanes;
/// - span begins and ends balance per lane (depth never goes negative,
///   every lane ends at depth 0);
/// - every flow end (`ph:"f"`) binds to a flow start (`ph:"s"`) with
///   the same name and id;
/// - `otherData` reports `ns_per_tick > 0`, `lanes ≥ 1`, and
///   `dropped_events == 0` (the ring-overflow gate).
pub fn validate_chrome_trace(doc: &Value) -> Vec<String> {
    let mut v = Vec::new();

    let Some(events) = doc.get("traceEvents").and_then(Value::as_array) else {
        return vec!["trace: missing 'traceEvents' array".to_string()];
    };
    if events.is_empty() {
        v.push("trace: 'traceEvents' is empty".to_string());
    }

    let mut non_meta = 0usize;
    let mut thread_names = 0usize;
    let mut saw_process_name = false;
    // (lane, open span depth) and (name, id) of open flows
    let mut depth: Vec<(u64, i64)> = Vec::new();
    let mut flow_starts: Vec<(String, u64)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let name = ev.get("name").and_then(Value::as_str);
        let ph = ev.get("ph").and_then(Value::as_str);
        let tid = ev.get("tid").and_then(Value::as_f64);
        if name.is_none() || ph.is_none() {
            v.push(format!("trace: event[{i}] lacks 'name' or 'ph'"));
            continue;
        }
        let (name, ph) = (name.unwrap(), ph.unwrap());
        if !KNOWN_PHASES.contains(&ph) {
            v.push(format!("trace: event[{i}] has unknown phase {ph:?}"));
            continue;
        }
        if ev.get("pid").and_then(Value::as_f64).is_none() || tid.is_none() {
            v.push(format!("trace: event[{i}] ({name}) lacks 'pid'/'tid'"));
            continue;
        }
        let tid = tid.unwrap() as u64;
        if ph == "M" {
            match name {
                "process_name" => saw_process_name = true,
                "thread_name" => thread_names += 1,
                _ => {}
            }
            continue;
        }
        non_meta += 1;
        match ev.get("ts").and_then(Value::as_f64) {
            Some(ts) if ts.is_finite() && ts >= 0.0 => {}
            _ => v.push(format!("trace: event[{i}] ({name}) has no finite 'ts'")),
        }
        match ph {
            "B" | "E" => {
                let d = match depth.iter_mut().find(|(l, _)| *l == tid) {
                    Some((_, d)) => d,
                    None => {
                        depth.push((tid, 0));
                        &mut depth.last_mut().expect("just pushed").1
                    }
                };
                *d += if ph == "B" { 1 } else { -1 };
                if *d < 0 {
                    v.push(format!(
                        "trace: lane {tid} closes span {name:?} with no open span"
                    ));
                    *d = 0; // report once, keep scanning
                }
            }
            "s" | "f" => {
                let id = ev.get("id").and_then(Value::as_f64).map(|x| x as u64);
                let Some(id) = id else {
                    v.push(format!("trace: flow event[{i}] ({name}) lacks 'id'"));
                    continue;
                };
                if ph == "s" {
                    flow_starts.push((name.to_string(), id));
                } else if !flow_starts.iter().any(|(n, fi)| n == name && *fi == id) {
                    v.push(format!(
                        "trace: flow end {name:?} id {id} has no matching start"
                    ));
                }
            }
            "C" => {
                let has_value = ev
                    .get("args")
                    .map(|a| a.get("value").and_then(Value::as_f64).is_some())
                    .unwrap_or(false);
                if !has_value {
                    v.push(format!(
                        "trace: counter event[{i}] ({name}) lacks args.value"
                    ));
                }
            }
            _ => {}
        }
    }

    if non_meta == 0 {
        v.push("trace: no timeline events (metadata only)".to_string());
    }
    if !saw_process_name {
        v.push("trace: missing 'process_name' metadata".to_string());
    }
    if thread_names == 0 {
        v.push("trace: missing 'thread_name' metadata".to_string());
    }
    for (lane, d) in &depth {
        if *d != 0 {
            v.push(format!("trace: lane {lane} leaves {d} span(s) open"));
        }
    }

    match doc.get("otherData") {
        None => v.push("trace: missing 'otherData'".to_string()),
        Some(other) => {
            match other.get("dropped_events").and_then(Value::as_f64) {
                None => v.push("trace: otherData lacks 'dropped_events'".to_string()),
                Some(d) if d > 0.0 => v.push(format!(
                    "trace: ring overflow dropped {d} event(s), expected 0"
                )),
                _ => {}
            }
            match other.get("ns_per_tick").and_then(Value::as_f64) {
                Some(n) if n > 0.0 => {}
                _ => v.push("trace: otherData.ns_per_tick must be > 0".to_string()),
            }
            match other.get("lanes").and_then(Value::as_f64) {
                Some(l) if l >= 1.0 => {}
                _ => v.push("trace: otherData.lanes must be >= 1".to_string()),
            }
        }
    }

    v
}

/// `true` when `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A parsed exposition sample: metric name, label pairs, value text.
type Sample<'a> = (&'a str, Vec<(&'a str, &'a str)>, &'a str);

/// Splits a sample line into (metric name, label pairs, value text).
fn parse_sample(line: &str) -> Option<Sample<'_>> {
    let (series, value) = line.rsplit_once(' ')?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut pairs = Vec::new();
            if !body.is_empty() {
                for pair in body.split(',') {
                    let (k, quoted) = pair.split_once('=')?;
                    let val = quoted.strip_prefix('"')?.strip_suffix('"')?;
                    pairs.push((k, val));
                }
            }
            (name, pairs)
        }
        None => (series, Vec::new()),
    };
    Some((name, labels, value))
}

/// Validates Prometheus text exposition as produced by
/// `MetricsSnapshot::prometheus`. Checks:
///
/// - every non-comment line parses as `name[{k="v",…}] value` with a
///   grammar-legal metric name and a float (or `NaN`/`±Inf`) value;
/// - every sample's family (name with `_sum`/`_count` stripped) was
///   announced by a preceding `# TYPE family counter|gauge|summary`
///   line, and no family is announced twice (as it would be if a
///   counter and a gauge shared a name);
/// - summaries carry `quantile` series plus `_sum`/`_count`;
/// - at least one sample is labelled `stream="…"` (the per-stream
///   series the batch engine is contracted to export).
pub fn validate_prometheus(text: &str) -> Vec<String> {
    let mut v = Vec::new();
    if text.trim().is_empty() {
        return vec!["metrics: exposition is empty".to_string()];
    }

    // family -> type, in announcement order
    let mut families: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    let mut stream_labelled = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(fam), Some(ty), None)
                    if valid_metric_name(fam)
                        && ["counter", "gauge", "summary", "histogram", "untyped"]
                            .contains(&ty) =>
                {
                    if families.iter().any(|(f, _)| f == fam) {
                        v.push(format!("metrics: line {n}: family {fam} announced twice"));
                    }
                    families.push((fam.to_string(), ty.to_string()));
                }
                _ => v.push(format!("metrics: line {n}: malformed TYPE line {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let Some((name, labels, value)) = parse_sample(line) else {
            v.push(format!("metrics: line {n}: unparseable sample {line:?}"));
            continue;
        };
        samples += 1;
        if !valid_metric_name(name) {
            v.push(format!("metrics: line {n}: illegal metric name {name:?}"));
        }
        if value.parse::<f64>().is_err() && !["NaN", "+Inf", "-Inf"].contains(&value) {
            v.push(format!("metrics: line {n}: unparseable value {value:?}"));
        }
        let family = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| families.iter().any(|(fam, ty)| fam == f && ty == "summary"))
            .unwrap_or(name);
        if !families.iter().any(|(fam, _)| fam == family) {
            v.push(format!(
                "metrics: line {n}: sample {name:?} has no preceding TYPE line"
            ));
        }
        if labels.iter().any(|(k, _)| *k == "stream") {
            stream_labelled += 1;
        }
    }

    if samples == 0 {
        v.push("metrics: no samples (comments only)".to_string());
    }
    if stream_labelled == 0 {
        v.push("metrics: no per-stream series (no sample with a stream=\"…\" label)".to_string());
    }

    // each announced summary must actually export quantile + _sum + _count
    for (fam, ty) in &families {
        if ty != "summary" {
            continue;
        }
        let has = |needle: &str| text.lines().any(|l| l.starts_with(needle));
        if !text
            .lines()
            .any(|l| l.starts_with(fam.as_str()) && l.contains("quantile=\""))
        {
            v.push(format!("metrics: summary {fam} exports no quantile series"));
        }
        if !has(&format!("{fam}_sum")) || !has(&format!("{fam}_count")) {
            v.push(format!("metrics: summary {fam} lacks _sum/_count series"));
        }
    }

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiforce_telemetry::json::parse;

    fn trace_doc(body_events: &str, dropped: u64) -> Value {
        parse(&format!(
            r#"{{"traceEvents": [
                {{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                  "args": {{"name": "wiforce"}}}},
                {{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                  "args": {{"name": "worker-0"}}}},
                {body_events}
            ],
            "otherData": {{"dropped_events": {dropped}, "ns_per_tick": 1.0,
                           "lanes": 1}}}}"#
        ))
        .expect("trace doc parses")
    }

    const BALANCED: &str = r#"
        {"name": "batch.run", "ph": "B", "cat": "wiforce", "ts": 0.0,
         "pid": 1, "tid": 1},
        {"name": "batch.handoff", "ph": "s", "cat": "flow", "ts": 1.0,
         "pid": 1, "tid": 1, "id": 7},
        {"name": "batch.handoff", "ph": "f", "cat": "flow", "ts": 2.0,
         "pid": 1, "tid": 1, "bp": "e", "id": 7},
        {"name": "batch.queue_depth.0", "ph": "C", "cat": "wiforce",
         "ts": 3.0, "pid": 1, "tid": 1, "args": {"value": 2}},
        {"name": "batch.run", "ph": "E", "cat": "wiforce", "ts": 4.0,
         "pid": 1, "tid": 1}"#;

    #[test]
    fn well_formed_trace_passes() {
        let doc = trace_doc(BALANCED, 0);
        assert_eq!(validate_chrome_trace(&doc), Vec::<String>::new());
    }

    #[test]
    fn dropped_events_gate_fires() {
        let doc = trace_doc(BALANCED, 3);
        let v = validate_chrome_trace(&doc);
        assert!(v.iter().any(|e| e.contains("ring overflow")), "{v:?}");
    }

    #[test]
    fn unbalanced_spans_flagged() {
        let doc = trace_doc(
            r#"{"name": "a", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}"#,
            0,
        );
        let v = validate_chrome_trace(&doc);
        assert!(v.iter().any(|e| e.contains("open")), "{v:?}");

        let doc = trace_doc(
            r#"{"name": "a", "ph": "E", "ts": 0.0, "pid": 1, "tid": 1}"#,
            0,
        );
        let v = validate_chrome_trace(&doc);
        assert!(v.iter().any(|e| e.contains("no open span")), "{v:?}");
    }

    #[test]
    fn orphan_flow_end_flagged() {
        let doc = trace_doc(
            r#"{"name": "h", "ph": "f", "ts": 0.0, "pid": 1, "tid": 1,
                "bp": "e", "id": 9}"#,
            0,
        );
        let v = validate_chrome_trace(&doc);
        assert!(v.iter().any(|e| e.contains("no matching start")), "{v:?}");
    }

    #[test]
    fn missing_sections_flagged() {
        let doc = parse(r#"{"foo": 1}"#).unwrap();
        let v = validate_chrome_trace(&doc);
        assert!(v[0].contains("traceEvents"), "{v:?}");

        let doc = parse(r#"{"traceEvents": []}"#).unwrap();
        let v = validate_chrome_trace(&doc);
        assert!(v.iter().any(|e| e.contains("empty")), "{v:?}");
        assert!(v.iter().any(|e| e.contains("otherData")), "{v:?}");
    }

    const GOOD_PROM: &str = "\
# TYPE wiforce_batch_presses_served counter
wiforce_batch_presses_served{stream=\"s0\"} 7
wiforce_batch_presses_served{stream=\"s1\"} 9
# TYPE wiforce_batch_workers gauge
wiforce_batch_workers 4
# TYPE wiforce_batch_group_latency_ns summary
wiforce_batch_group_latency_ns{stream=\"s0\",quantile=\"0.5\"} 2048
wiforce_batch_group_latency_ns{stream=\"s0\",quantile=\"0.95\"} 4096
wiforce_batch_group_latency_ns{stream=\"s0\",quantile=\"0.99\"} 4096
wiforce_batch_group_latency_ns_sum{stream=\"s0\"} 6144
wiforce_batch_group_latency_ns_count{stream=\"s0\"} 3
";

    #[test]
    fn well_formed_prometheus_passes() {
        assert_eq!(validate_prometheus(GOOD_PROM), Vec::<String>::new());
    }

    #[test]
    fn prometheus_missing_type_line_flagged() {
        let v = validate_prometheus("wiforce_x{stream=\"s0\"} 1\n");
        assert!(v.iter().any(|e| e.contains("no preceding TYPE")), "{v:?}");
    }

    #[test]
    fn prometheus_family_announced_twice_flagged() {
        let text = "# TYPE wiforce_x counter\nwiforce_x{stream=\"s0\"} 1\n\
                    # TYPE wiforce_x gauge\nwiforce_x{stream=\"s1\"} 2\n";
        let v = validate_prometheus(text);
        assert!(v.iter().any(|e| e.contains("announced twice")), "{v:?}");
    }

    #[test]
    fn prometheus_requires_stream_series() {
        let v = validate_prometheus("# TYPE wiforce_x counter\nwiforce_x 1\n");
        assert!(v.iter().any(|e| e.contains("per-stream")), "{v:?}");
    }

    #[test]
    fn prometheus_bad_lines_flagged() {
        let text = "# TYPE wiforce_x counter\nwiforce_x{stream=\"s0\"} not_a_number\n\
                    9bad{stream=\"s0\"} 1\n";
        let v = validate_prometheus(text);
        assert!(v.iter().any(|e| e.contains("unparseable value")), "{v:?}");
        assert!(v.iter().any(|e| e.contains("illegal metric name")), "{v:?}");
    }

    #[test]
    fn prometheus_incomplete_summary_flagged() {
        let text = "# TYPE wiforce_lat summary\nwiforce_lat{stream=\"s0\",quantile=\"0.5\"} 1\n";
        let v = validate_prometheus(text);
        assert!(v.iter().any(|e| e.contains("_sum/_count")), "{v:?}");
    }

    #[test]
    fn prometheus_empty_flagged() {
        assert!(validate_prometheus("")[0].contains("empty"));
        let v = validate_prometheus("# TYPE wiforce_x counter\n");
        assert!(v.iter().any(|e| e.contains("no samples")), "{v:?}");
    }
}
