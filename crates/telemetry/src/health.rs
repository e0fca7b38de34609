//! The pipeline health report: a serializable aggregate of everything a
//! running WiForce reader should surface to its operator — per-stage
//! latency percentiles, throughput counters, and signal-quality gauges
//! (harmonic-line SNR, reference-lock state, snapshot yield under fault
//! injection).
//!
//! Built from a [`TelemetrySnapshot`] (one thread's recordings, or the
//! index-ordered merge of many — see `wiforce_bench::montecarlo`), and
//! written as JSON by the crate's own tiny writer so the report can be
//! produced from `wiforce-cli --health-json`, `repro_all`, and CI without
//! external dependencies.

use crate::json::JsonWriter;
use crate::{Histogram, TelemetrySnapshot};

/// Current `PipelineHealth` JSON schema version. Bump when keys change.
/// v3 added `response_table_hit_rate` (per-scene sounding-response memo
/// hits over total lookups; null before any lookup) and a gauge of the
/// SoA chunk width a startup probe chose.
/// v4 removed the keys of two retired synthesis arms: the adaptive
/// snapshot budget's yield (added in v2) and the superposition batch
/// occupancy (added in v3).
/// v5 replaced the chunk-width gauge (the width is now a constant) with
/// `plane_row_share`.
/// v6 removed `plane_row_share`: every time-domain snapshot goes through
/// one block step, so there is no second path to report.
pub const HEALTH_SCHEMA_VERSION: u64 = 6;

/// Latency statistics for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Hierarchical span path (e.g. `"pipeline.measure_press"`).
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Median latency, ns (bucket resolution).
    pub p50_ns: f64,
    /// 95th-percentile latency, ns (bucket resolution).
    pub p95_ns: f64,
    /// Worst observed latency, ns (exact).
    pub max_ns: f64,
    /// Total time spent in the stage, ns.
    pub total_ns: f64,
}

impl StageStats {
    fn from_histogram(name: &str, h: &Histogram) -> Self {
        StageStats {
            name: name.to_string(),
            count: h.count,
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            max_ns: if h.count == 0 { 0.0 } else { h.max },
            total_ns: h.sum,
        }
    }
}

/// Summary statistics for one value histogram (observations).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationStats {
    /// Observation name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Median (bucket resolution).
    pub p50: f64,
    /// 95th percentile (bucket resolution).
    pub p95: f64,
    /// Exact maximum.
    pub max: f64,
}

/// The aggregated health report.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineHealth {
    /// Report schema version ([`HEALTH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Per-stage latency stats, sorted by span path.
    pub stages: Vec<StageStats>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-value gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Value-histogram summaries, sorted by name.
    pub observations: Vec<ObservationStats>,
    /// Fraction of sounded snapshots that survived fault injection
    /// (1.0 when no snapshots were dropped; `None` when nothing ran).
    pub snapshot_yield: Option<f64>,
    /// `true` when the streaming estimator reported a locked no-touch
    /// reference (`None` when no estimator ran).
    pub reference_locked: Option<bool>,
    /// Hit rate of the per-scene sounding-response memo (`None` before
    /// any lookup was recorded).
    pub response_table_hit_rate: Option<f64>,
}

impl PipelineHealth {
    /// Aggregates a telemetry snapshot into a report.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> Self {
        let stages = snap
            .spans
            .iter()
            .map(|(name, h)| StageStats::from_histogram(name, h))
            .collect();
        let counters: Vec<(String, u64)> =
            snap.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
        let gauges: Vec<(String, f64)> = snap.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect();
        let observations = snap
            .observations
            .iter()
            .map(|(name, h)| ObservationStats {
                name: name.clone(),
                count: h.count,
                mean: h.mean(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                max: if h.count == 0 { 0.0 } else { h.max },
            })
            .collect();

        let counter = |name: &str| snap.counters.get(name).copied();
        let snapshot_yield = counter("pipeline.snapshots_total").map(|total| {
            let dropped = counter("faults.snapshots_dropped").unwrap_or(0);
            if total == 0 {
                1.0
            } else {
                1.0 - dropped as f64 / total as f64
            }
        });
        let reference_locked = snap
            .gauges
            .get("estimator.reference_locked")
            .map(|&v| v != 0.0);
        let response_table_hit_rate = snap.gauges.get("pipeline.response_table_hit_rate").copied();

        PipelineHealth {
            schema_version: HEALTH_SCHEMA_VERSION,
            stages,
            counters,
            gauges,
            observations,
            snapshot_yield,
            reference_locked,
            response_table_hit_rate,
        }
    }

    /// Builds the report from this thread's recorder, draining it.
    pub fn collect() -> Self {
        Self::from_snapshot(&crate::take())
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.integer("schema_version", self.schema_version);
        match self.snapshot_yield {
            Some(y) => w.number("snapshot_yield", y),
            None => w.number("snapshot_yield", f64::NAN), // serialized as null
        };
        match self.reference_locked {
            Some(locked) => w.boolean("estimator_reference_locked", locked),
            None => w.number("estimator_reference_locked", f64::NAN),
        };
        match self.response_table_hit_rate {
            Some(r) => w.number("response_table_hit_rate", r),
            None => w.number("response_table_hit_rate", f64::NAN),
        };
        w.begin_array_key("stages");
        for s in &self.stages {
            w.begin_object();
            w.string("name", &s.name)
                .integer("count", s.count)
                .number("p50_ns", s.p50_ns)
                .number("p95_ns", s.p95_ns)
                .number("max_ns", s.max_ns)
                .number("total_ns", s.total_ns);
            w.end_object();
        }
        w.end_array();
        w.begin_object_key("counters");
        for (k, v) in &self.counters {
            w.integer(k, *v);
        }
        w.end_object();
        w.begin_object_key("gauges");
        for (k, v) in &self.gauges {
            w.number(k, *v);
        }
        w.end_object();
        w.begin_array_key("observations");
        for o in &self.observations {
            w.begin_object();
            w.string("name", &o.name)
                .integer("count", o.count)
                .number("mean", o.mean)
                .number("p50", o.p50)
                .number("p95", o.p95)
                .number("max", o.max);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Finds a stage by exact span path.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up an observation summary by name.
    pub fn observation(&self, name: &str) -> Option<&ObservationStats> {
        self.observations.iter().find(|o| o.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        let mut h = Histogram::default();
        for v in [1000.0, 2000.0, 3000.0] {
            h.record(v);
        }
        snap.spans.insert("pipeline.measure_press".into(), h);
        snap.counters.insert("pipeline.snapshots_total".into(), 100);
        snap.counters.insert("faults.snapshots_dropped".into(), 4);
        snap.gauges.insert("pipeline.line_to_floor_db".into(), 31.5);
        snap.gauges.insert("estimator.reference_locked".into(), 1.0);
        snap.gauges
            .insert("pipeline.response_table_hit_rate".into(), 0.44);
        let mut obs = Histogram::default();
        obs.record(0.2);
        snap.observations
            .insert("tracker.force_innovation_n".into(), obs);
        snap
    }

    #[test]
    fn derives_yield_and_lock_state() {
        let health = PipelineHealth::from_snapshot(&sample_snapshot());
        assert_eq!(health.schema_version, HEALTH_SCHEMA_VERSION);
        assert!((health.snapshot_yield.unwrap() - 0.96).abs() < 1e-12);
        assert_eq!(health.response_table_hit_rate, Some(0.44));
        assert_eq!(health.reference_locked, Some(true));
        let stage = health.stage("pipeline.measure_press").unwrap();
        assert_eq!(stage.count, 3);
        assert_eq!(stage.max_ns, 3000.0);
        assert!((stage.total_ns - 6000.0).abs() < 1e-9);
        assert_eq!(health.counter("pipeline.snapshots_total"), Some(100));
        assert_eq!(health.gauge("pipeline.line_to_floor_db"), Some(31.5));
    }

    #[test]
    fn empty_snapshot_reports_unknowns() {
        let health = PipelineHealth::from_snapshot(&TelemetrySnapshot::default());
        assert_eq!(health.snapshot_yield, None);
        assert_eq!(health.response_table_hit_rate, None);
        assert_eq!(health.reference_locked, None);
        assert!(health.stages.is_empty());
        // and the JSON still parses with the required keys present
        let v = json::parse(&health.to_json()).unwrap();
        assert_eq!(v.get("snapshot_yield"), Some(&json::Value::Null));
        assert_eq!(v.get("response_table_hit_rate"), Some(&json::Value::Null));
        assert!(v.get("stages").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn json_round_trip_preserves_structure() {
        let health = PipelineHealth::from_snapshot(&sample_snapshot());
        let text = health.to_json();
        let v = json::parse(&text).expect("health JSON parses");
        assert_eq!(
            v.get("schema_version").unwrap().as_f64(),
            Some(HEALTH_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            v.get("estimator_reference_locked"),
            Some(&json::Value::Bool(true))
        );
        assert_eq!(
            v.get("response_table_hit_rate").unwrap().as_f64(),
            Some(0.44)
        );
        let stages = v.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(
            stages[0].get("name").unwrap().as_str(),
            Some("pipeline.measure_press")
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("faults.snapshots_dropped")
                .unwrap()
                .as_f64(),
            Some(4.0)
        );
        let obs = v.get("observations").unwrap().as_array().unwrap();
        assert_eq!(
            obs[0].get("name").unwrap().as_str(),
            Some("tracker.force_innovation_n")
        );
    }
}
