//! Output side of the benchmark: percentiles, the result line, the
//! `machine` block, and the span trace written when a traced run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::yardstick::Yardstick;

/// Nearest-rank percentile of an ascending slice (0 when empty), so every
/// reported percentile is a value that was actually measured.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sample slots per second of run allocated up front; far above the
/// fastest workload's rate.
const SAMPLES_PER_S: f64 = 25_000.0;

/// An empty sample vector whose slots for a `seconds`-long run are
/// already resident, so peak RSS does not depend on how many samples the
/// run took.
pub fn resident(seconds: f64) -> Vec<f64> {
    let mut v = vec![f64::NAN; (seconds * SAMPLES_PER_S) as usize];
    v.clear();
    v
}

/// Timing figures of a run: press p50 and p90, µs, and presses per second.
pub struct Timing {
    pub p50_us: f64,
    pub p90_us: f64,
    pub per_s: f64,
}

/// Puts the three timing metrics, at the yardstick's reference speed where
/// the workload is scaled, and prints the run's raw figures and yardstick
/// (`null` when unscaled) on a line of their own.
pub fn put_timing(metrics: &mut Metrics, scaled: &Timing, raw: &Timing, yard: &Yardstick) {
    metrics.put("press_p50_us", scaled.p50_us, "us");
    metrics.put("press_p90_us", scaled.p90_us, "us");
    metrics.put("presses_per_s", scaled.per_s, "1/s");
    println!(
        "{{\"speed\": {{\"yardstick_median_us\": {}, \"yardstick_runs\": {}, \"reference_us\": {}, \"raw\": {{\"press_p50_us\": {}, \"press_p90_us\": {}, \"presses_per_s\": {}}}}}}}",
        if yard.samples() == 0 {
            "null".to_string()
        } else {
            yard.median_us().to_string()
        },
        yard.samples(),
        crate::yardstick::REFERENCE_US,
        raw.p50_us,
        raw.p90_us,
        raw.per_s,
    );
}

/// `Timing` of per-press samples, µs, from a closed loop: the rate is the
/// samples over their summed time. Sorts `us`.
pub fn timing_of(us: &mut [f64]) -> Timing {
    let per_s = us.len() as f64 * 1e6 / us.iter().sum::<f64>();
    sort(us);
    Timing {
        p50_us: percentile(us, 0.5),
        p90_us: percentile(us, 0.9),
        per_s,
    }
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Adds 0 for every listed metric the workload did not measure: the
    /// layer does not run on it.
    pub fn fill_missing(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            if !self.0.iter().any(|(n, _, _)| *n == name) {
                self.put(name, 0.0, unit);
            }
        }
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result object the benchmark prints as its last line. Values
    /// keep every digit (`f64` Display is shortest round-trip).
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN/inf; a non-finite value already failed the
            // run through `all_finite`
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set of this process, MB (`VmHWM`; 0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine the figures came from: cores, CPU model, SIMD arm, and the
/// one-shot synthesis calibration, whose timing-driven wide/row verdict
/// and chunk width can make `press_td` bimodal across processes.
pub fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
        .replace(['"', '\\'], "_");
    let cal = wiforce::calibrate::calibration();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"simd_backend\": \"{}\", \"calibration\": {{\"wide_default\": {}, \"chunk_rows\": {}, \"ns_per_row_wide\": {}, \"ns_per_row_narrow\": {}, \"probed\": {}}}}}",
        wiforce_dsp::kernels::backend().name(),
        cal.wide_default,
        cal.chunk_rows,
        cal.ns_per_row_wide,
        cal.ns_per_row_narrow,
        cal.probed,
    )
}

/// One benchmark span: a call into a layer's public entry point.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`] (`None` at top).
    pub parent: Option<u32>,
    /// The press (or batch call) this span belongs to.
    pub id: u64,
    /// Heap allocations made by every thread during the call.
    pub allocs: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder of a traced run, written out when it ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::close`]. Growing the buffer
    /// happens before the allocation counter is read, so it is charged to
    /// no layer.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, id: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.spans.reserve(self.spans.len().max(1024));
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            allocs: crate::alloc::count(),
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        let end_ns = self.now_ns();
        let allocs = crate::alloc::count();
        let rec = &mut self.spans[span as usize];
        rec.end_ns = end_ns;
        rec.allocs = allocs - rec.allocs;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// `(total ns, total allocations, count)` over spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0, 0), |(ns, a, n), s| {
                (ns + s.dur_ns(), a + s.allocs, n + 1)
            })
    }

    /// Writes the spans as Chrome trace-event JSON (viewable in Perfetto),
    /// with the machine block as metadata.
    pub fn write(&self, path: &Path, machine: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"otherData\": {{\"machine\": {machine}}}, \"traceEvents\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{},\"allocs\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.allocs,
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Sum of span totals in a recorder snapshot whose path ends in `leaf`, ns.
pub fn leaf_ns(snap: &wiforce_telemetry::TelemetrySnapshot, leaf: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .map(|(_, h)| h.sum)
        .sum()
}
