//! Prometheus text exposition of a run's telemetry.
//!
//! There is no metrics store of its own: a [`MetricsSnapshot`] is a
//! plain value built from data a run already holds. The recorder
//! snapshot that `--health-json` reads maps onto unlabelled series
//! ([`MetricsSnapshot::from_telemetry`]); a batch run adds its
//! `{reader, stream}`-labelled per-stream series from its report
//! (`wiforce::batch::BatchReport::metrics`). [`MetricsSnapshot::prometheus`]
//! renders the result in Prometheus text exposition format, so one
//! recording feeds the health report and the exposition alike.

use crate::{Histogram, TelemetrySnapshot};
use std::collections::BTreeMap;

/// One metric series identity: a family name plus its sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric family name (dotted WiForce convention, e.g.
    /// `batch.presses_served`; sanitized for Prometheus on render).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// A series identity; label order does not matter.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A set of metric series ready for exposition. Keys are sorted, so the
/// rendered text is deterministic and every family's series are
/// adjacent.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter series.
    pub counters: BTreeMap<SeriesKey, u64>,
    /// Gauge series.
    pub gauges: BTreeMap<SeriesKey, f64>,
    /// Histogram series, rendered as summaries.
    pub histograms: BTreeMap<SeriesKey, Histogram>,
}

/// Maps a dotted WiForce metric name onto the Prometheus grammar:
/// `wiforce_` prefix, `[a-zA-Z0-9_:]` body, leading digits guarded.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("wiforce_");
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
}

fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Maps a recorder snapshot onto unlabelled series: every counter,
    /// gauge and observation under its own name, and every span path
    /// `p` as a summary `span.p_ns` of its durations in nanoseconds.
    pub fn from_telemetry(snap: &TelemetrySnapshot) -> MetricsSnapshot {
        let key = |name: &str| SeriesKey::new(name, &[]);
        MetricsSnapshot {
            counters: snap.counters.iter().map(|(k, &v)| (key(k), v)).collect(),
            gauges: snap.gauges.iter().map(|(k, &v)| (key(k), v)).collect(),
            histograms: snap
                .observations
                .iter()
                .map(|(k, h)| (key(k), h.clone()))
                .chain(
                    snap.spans
                        .iter()
                        .map(|(path, h)| (key(&format!("span.{path}_ns")), h.clone())),
                )
                .collect(),
        }
    }

    /// Total number of exported series (histograms count once each).
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Looks up a counter by name and exact label set.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&SeriesKey::new(name, labels)).copied()
    }

    /// Looks up a gauge by name and exact label set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&SeriesKey::new(name, labels)).copied()
    }

    /// Renders Prometheus text exposition: counters and gauges as-is,
    /// histograms as summaries (p50/p95/p99 quantile series plus `_sum`
    /// and `_count`). Families are announced once with a `# TYPE` line;
    /// series order is deterministic (sorted keys).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let type_line = |out: &mut String, last: &mut String, fam: &str, ty: &str| {
            if *last != fam {
                out.push_str("# TYPE ");
                out.push_str(fam);
                out.push(' ');
                out.push_str(ty);
                out.push('\n');
                *last = fam.to_string();
            }
        };
        for (key, v) in &self.counters {
            let fam = sanitize(&key.name);
            type_line(&mut out, &mut last_family, &fam, "counter");
            out.push_str(&fam);
            render_labels(&mut out, &key.labels, None);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (key, v) in &self.gauges {
            let fam = sanitize(&key.name);
            type_line(&mut out, &mut last_family, &fam, "gauge");
            out.push_str(&fam);
            render_labels(&mut out, &key.labels, None);
            out.push(' ');
            out.push_str(&render_f64(*v));
            out.push('\n');
        }
        for (key, h) in &self.histograms {
            let fam = sanitize(&key.name);
            type_line(&mut out, &mut last_family, &fam, "summary");
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&fam);
                render_labels(&mut out, &key.labels, Some(("quantile", label)));
                out.push(' ');
                out.push_str(&render_f64(h.quantile(q)));
                out.push('\n');
            }
            out.push_str(&fam);
            out.push_str("_sum");
            render_labels(&mut out, &key.labels, None);
            out.push(' ');
            out.push_str(&render_f64(h.sum));
            out.push('\n');
            out.push_str(&fam);
            out.push_str("_count");
            render_labels(&mut out, &key.labels, None);
            out.push(' ');
            out.push_str(&h.count.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_telemetry_maps_every_family() {
        let mut t = TelemetrySnapshot::default();
        t.counters.insert("faults.snapshots_dropped".into(), 3);
        t.gauges.insert("batch.workers".into(), 4.0);
        let mut h = Histogram::default();
        h.record(10.0);
        t.observations.insert("batch.queue_depth".into(), h.clone());
        t.spans
            .insert("batch.consume/pipeline.model_invert".into(), h);
        let snap = MetricsSnapshot::from_telemetry(&t);
        assert_eq!(snap.series_count(), 4);
        assert_eq!(snap.counter("faults.snapshots_dropped", &[]), Some(3));
        assert_eq!(snap.gauge("batch.workers", &[]), Some(4.0));
        assert!(snap
            .histograms
            .contains_key(&SeriesKey::new("batch.queue_depth", &[])));
        let text = snap.prometheus();
        assert!(
            text.contains("# TYPE wiforce_span_batch_consume_pipeline_model_invert_ns summary"),
            "{text}"
        );
    }

    #[test]
    fn label_order_does_not_split_series() {
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert(SeriesKey::new("x", &[("a", "1"), ("b", "2")]), 1);
        snap.counters
            .insert(SeriesKey::new("x", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counter("x", &[("b", "2"), ("a", "1")]), Some(2));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut snap = MetricsSnapshot::default();
        let s0 = [("stream", "s0")];
        snap.counters
            .insert(SeriesKey::new("batch.presses_served", &s0), 7);
        snap.gauges
            .insert(SeriesKey::new("estimator.locked", &s0), 1.0);
        let mut h = Histogram::default();
        h.record(2048.0);
        snap.histograms
            .insert(SeriesKey::new("batch.group_latency_ns", &s0), h);
        let text = snap.prometheus();
        assert!(
            text.contains("# TYPE wiforce_batch_presses_served counter"),
            "{text}"
        );
        assert!(text.contains("wiforce_batch_presses_served{stream=\"s0\"} 7"));
        assert!(text.contains("# TYPE wiforce_estimator_locked gauge"));
        assert!(text.contains("# TYPE wiforce_batch_group_latency_ns summary"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("wiforce_batch_group_latency_ns_count{stream=\"s0\"} 1"));
        assert!(text.contains("wiforce_batch_group_latency_ns_sum{stream=\"s0\"} 2048"));
        // every non-comment line is `name[{labels}] value`
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty());
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "bad value {value}"
            );
        }
    }

    #[test]
    fn sanitize_maps_dots_and_guards_digits() {
        assert_eq!(sanitize("batch.queue_peak"), "wiforce_batch_queue_peak");
        assert_eq!(sanitize("9lives"), "wiforce__9lives");
        assert_eq!(sanitize("a-b c"), "wiforce_a_b_c");
    }
}
