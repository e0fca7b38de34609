//! Multi-stream batch estimation engine.
//!
//! The serving-shaped substrate of the ROADMAP north star: run N
//! independent sensor streams (distinct tags, press profiles, fault
//! regimes) through the estimation pipeline concurrently on a fixed
//! worker pool, with bounded queues, backpressure, and deterministic
//! per-stream results at any thread count.
//!
//! ## Shape
//!
//! Work is organised as **readers** and **streams**. One
//! [`ReaderSpec`] models one physical reader front end whose snapshot
//! stream carries several frequency-multiplexed tags (paper §7: tags
//! toggling at different clocks land in separate Doppler bins). A
//! *producer* work item synthesises one phase group of shared snapshots
//! for a reader — one channel sounding serves every tag riding it — and
//! fans it out through a [`wiforce_reader::stream::TagDemux`] into each
//! stream's bounded queue. A *consumer* work item drains one stream's
//! queue into that stream's sticky state: its [`ForceEstimator`]
//! (reference lock), [`Tracker`], and the calibration inversion LUT
//! ([`SensorModel`]) shared read-only across all workers.
//!
//! ## Determinism
//!
//! Each reader has exactly one logical producer, which draws its stream
//! clocks and one reader key from its seed and addresses every later
//! draw by `(key, group)`, so the synthesized group sequence is a pure
//! function of the spec;
//! each stream's queue is FIFO and its consumer is claimed exclusively,
//! so groups reach the estimator in sequence order. Per-stream estimates
//! are therefore bit-identical at any worker count — the same
//! press-index-ordered merge discipline as `run_sweep`. Wall-clock
//! artifacts (queue depths, latencies, span durations) are excluded from
//! that guarantee; see [`StreamResult::deterministic_eq`].
//!
//! ## Backpressure
//!
//! Under the default [`OverflowPolicy::Stall`], a producer is runnable
//! only while **all** of its streams' queues have room
//! ([`TagDemux::can_accept`]); a full queue anywhere stalls the whole
//! reader until a consumer drains, and each stall transition is counted
//! in [`BatchReport::backpressure_events`]. Under
//! [`OverflowPolicy::DropNewest`] the producer never stalls: streams
//! whose queue is full lose the new group instead
//! ([`TagDemux::fan_out_lossy`]), counted per stream in
//! [`StreamResult::groups_dropped`]. Whichever policy runs, the
//! accounting invariant `produced == consumed + dropped` holds per
//! stream at any worker count.
//!
//! ## Observability
//!
//! All instrumentation is gated and free when off: recorder telemetry
//! behind [`wiforce_telemetry::enabled`], and trace events (spans, flow
//! arrows produce→consume, queue-depth counter tracks) behind
//! [`wiforce_telemetry::trace::trace_enabled`]. The per-stream
//! accounting (consumed, dropped, served, failed, queue peak, latency)
//! lives on each [`StreamResult`] whether or not either gate is on;
//! [`BatchReport::metrics`] renders it, `{reader, stream}`-labelled,
//! together with a recorder snapshot as one Prometheus view.
//! [`run_batch_observed`] additionally folds per-group samples into a
//! [`HealthAggregator`], emitting completed [`StreamWindow`]s to an
//! optional observer callback while the batch runs.

use crate::calib::SensorModel;
use crate::estimator::{EstimatorConfig, ForceEstimator, ForceReading};
use crate::harmonics::PhaseGroupConfig;
use crate::multisensor::ContinuumSurface;
use crate::pipeline::{
    fill_state_spectra, spectral_row_var, BlockTally, BlockTruth, GroupPlan, PressNoise,
    Simulation, Sounder, SoundingStep, SpectralLines, TagClock, CHUNK_ROWS,
};
use crate::tracking::{TrackedReading, Tracker, TrackerConfig};
use crate::WiForceError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wiforce_channel::cache::ChannelCache;
use wiforce_channel::faults::FaultConfig;
use wiforce_channel::{Frontend, Scene};
use wiforce_dsp::rng::CounterRng;
use wiforce_dsp::{Complex, SnapshotMatrix};
use wiforce_reader::stream::{GroupItem, TagDemux};
use wiforce_reader::ChannelSounder;
use wiforce_sensor::clock::WindowWalker;
use wiforce_sensor::multi::allocate_frequencies_on_grid;
use wiforce_sensor::tag::ContactState;
use wiforce_sensor::SensorTag;
use wiforce_telemetry::metrics::{MetricsSnapshot, SeriesKey};
use wiforce_telemetry::trace;
use wiforce_telemetry::{
    AggregatorConfig, HealthAggregator, Histogram, Recording, Scope, StreamHealth, StreamWindow,
    TelemetrySnapshot, WindowSample,
};

/// One scheduled press on a stream's force/location timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressSpec {
    /// Applied force, N (0 for an intentionally quiet slot).
    pub force_n: f64,
    /// Press location along the beam, m.
    pub location_m: f64,
}

/// One per-tag stream of a reader: a tag clock plus its press schedule.
///
/// The stream sees `reference_groups` quiet groups (its estimator locks
/// the no-touch reference), then one phase group per press, in order.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Display name (telemetry keys derive from it).
    pub name: String,
    /// Tag base clock, Hz. Streams of one reader must be distinct; use
    /// [`allocate_frequencies_on_grid`] to keep them Doppler-orthogonal.
    pub fs_hz: f64,
    /// Press schedule, one group each after the reference groups.
    pub presses: Vec<PressSpec>,
}

/// One physical reader: a shared snapshot stream carrying several
/// frequency-multiplexed tag streams, with its own fault regime and
/// seed. Faults on one reader can never touch another reader's streams
/// (independent keys), which is what the fault-isolation tests pin down.
#[derive(Debug, Clone)]
pub struct ReaderSpec {
    /// The tag streams riding this reader's snapshots.
    pub streams: Vec<StreamSpec>,
    /// Channel-level fault injection for this reader.
    pub faults: FaultConfig,
    /// Seed of the reader's tag clock phases and of its noise key (noise,
    /// clutter, clock wander).
    pub seed: u64,
}

impl ReaderSpec {
    /// An empty reader with the given seed and no faults.
    pub fn new(seed: u64) -> Self {
        ReaderSpec {
            streams: Vec::new(),
            faults: FaultConfig::none(),
            seed,
        }
    }

    /// Sets the fault regime.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Appends one stream.
    pub fn stream(mut self, name: &str, fs_hz: f64, presses: Vec<PressSpec>) -> Self {
        self.streams.push(StreamSpec {
            name: name.to_string(),
            fs_hz,
            presses,
        });
        self
    }

    /// Builds a reader of `n_streams` Doppler-orthogonal tags with a
    /// deterministic spread of press profiles — the standard throughput
    /// workload. Clocks come from [`allocate_frequencies_on_grid`] at the
    /// group's bin spacing in the 800–2000 Hz band (keeping every `4fs`
    /// line under the snapshot-rate Nyquist), so the streams are exactly
    /// separable from the shared snapshot rows.
    pub fn frequency_multiplexed(
        n_streams: usize,
        presses_per_stream: usize,
        seed: u64,
        group: &crate::harmonics::PhaseGroupConfig,
    ) -> Result<Self, WiForceError> {
        let grid_hz = 1.0 / (group.n_snapshots as f64 * group.snapshot_period_s);
        let freqs = allocate_frequencies_on_grid(n_streams, 800.0, 2000.0, grid_hz)
            .map_err(|e| WiForceError::Config(e.to_string()))?;
        let mut spec = ReaderSpec::new(seed);
        for (s, fs) in freqs.into_iter().enumerate() {
            let presses = (0..presses_per_stream)
                .map(|p| PressSpec {
                    force_n: 1.5 + 0.9 * ((s + p) % 5) as f64,
                    location_m: 0.020 + 0.010 * ((2 * s + p) % 6) as f64,
                })
                .collect();
            spec = spec.stream(&format!("s{s}"), fs, presses);
        }
        Ok(spec)
    }

    /// Builds a reader from a [`ContinuumSurface`]: one stream per strip,
    /// with each 2-D press `(force, x, y)` split across strips by
    /// [`ContinuumSurface::split_force`]. Strips off the press path get a
    /// zero-force slot so press indices stay aligned across streams.
    pub fn for_surface(surface: &ContinuumSurface, presses: &[(f64, f64, f64)], seed: u64) -> Self {
        let mut spec = ReaderSpec::new(seed);
        let sims = surface.simulations();
        for (i, sim) in sims.iter().enumerate() {
            let schedule = presses
                .iter()
                .map(|&(force_n, x_m, y_m)| PressSpec {
                    force_n: surface.split_force(force_n, y_m)[i],
                    location_m: x_m,
                })
                .collect();
            spec = spec.stream(&format!("strip{i}"), sim.group.line1_hz, schedule);
        }
        spec
    }

    fn max_presses(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.presses.len())
            .max()
            .unwrap_or(0)
    }
}

/// What a reader's producer does when one of its stream queues is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Stall the whole reader until every queue has room (the default).
    /// No group is ever lost, drop counters read 0, and per-stream
    /// results stay bit-identical at any worker count.
    #[default]
    Stall,
    /// Keep producing: a stream whose queue is full loses the new group
    /// (via [`TagDemux::fan_out_lossy`]), counted in
    /// [`StreamResult::groups_dropped`]. Models a live front end
    /// outrunning a slow consumer. Which groups survive depends on
    /// scheduling, so readings are **not** worker-count invariant under
    /// this policy — only the per-stream accounting invariant
    /// `produced == consumed + dropped` is.
    DropNewest,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Worker threads (clamped to ≥ 1). Results never depend on this.
    pub workers: usize,
    /// Per-stream snapshot-queue capacity in groups (clamped to ≥ 1);
    /// the backpressure bound.
    pub queue_capacity: usize,
    /// Quiet groups each stream's estimator averages into its no-touch
    /// reference before the press schedule starts.
    pub reference_groups: usize,
    /// Full-queue behaviour; see [`OverflowPolicy`].
    pub overflow: OverflowPolicy,
    /// Artificial per-group delay inside every consumer — a testing aid
    /// that makes consumers reliably slower than producers so
    /// backpressure and overflow paths actually exercise. `None` (no
    /// delay) outside tests.
    pub consume_throttle: Option<Duration>,
}

impl BatchConfig {
    /// Paper-cadence defaults at the given worker count.
    pub fn wiforce(workers: usize) -> Self {
        BatchConfig {
            workers,
            queue_capacity: 4,
            reference_groups: 2,
            overflow: OverflowPolicy::Stall,
            consume_throttle: None,
        }
    }
}

/// One emitted per-group result of a stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamReading {
    /// Group sequence number on the reader timeline.
    pub group: u64,
    /// Press index this group measures (`None` for post-schedule
    /// quiet groups on streams shorter than their reader's longest).
    pub press: Option<usize>,
    /// The raw estimator reading.
    pub reading: ForceReading,
    /// The Kalman-smoothed reading.
    pub tracked: TrackedReading,
}

/// Everything one stream produced over the batch.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Stream name from the spec.
    pub name: String,
    /// Reader index in the spec slice.
    pub reader: usize,
    /// Tag base clock, Hz.
    pub fs_hz: f64,
    /// Per-group readings in group order (starts once the reference
    /// locks, i.e. at group `reference_groups`).
    pub readings: Vec<StreamReading>,
    /// Groups whose estimate failed (e.g. model inversion rejected); the
    /// stream keeps running past them.
    pub failures: u64,
    /// Wall-clock produce→consumed latency per consumed group, ns
    /// (scheduling-dependent; excluded from determinism).
    pub latencies_ns: Vec<u64>,
    /// Groups this stream lost to a full queue under
    /// [`OverflowPolicy::DropNewest`] (always 0 under `Stall`).
    /// Scheduling-dependent, so excluded from
    /// [`StreamResult::deterministic_eq`]; the per-stream accounting
    /// `produced == consumed + dropped` holds at any worker count.
    pub groups_dropped: u64,
    /// Deepest this stream's queue got, in groups (at most the queue
    /// capacity). Scheduling-dependent, like `groups_dropped`.
    pub queue_peak: usize,
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

impl StreamResult {
    /// Bit-exact comparison of everything the determinism guarantee
    /// covers: names, schedule positions, raw and tracked estimates, and
    /// failure counts — but not wall-clock latencies.
    pub fn deterministic_eq(&self, other: &StreamResult) -> bool {
        self.name == other.name
            && self.reader == other.reader
            && bits_eq(self.fs_hz, other.fs_hz)
            && self.failures == other.failures
            && self.readings.len() == other.readings.len()
            && self.readings.iter().zip(&other.readings).all(|(a, b)| {
                a.group == b.group
                    && a.press == b.press
                    && a.reading.touched == b.reading.touched
                    && bits_eq(a.reading.force_n, b.reading.force_n)
                    && bits_eq(a.reading.location_m, b.reading.location_m)
                    && bits_eq(a.reading.dphi1_rad, b.reading.dphi1_rad)
                    && bits_eq(a.reading.dphi2_rad, b.reading.dphi2_rad)
                    && bits_eq(a.reading.residual_rad, b.reading.residual_rad)
                    && a.tracked.touched == b.tracked.touched
                    && bits_eq(a.tracked.force_n, b.tracked.force_n)
                    && bits_eq(a.tracked.location_m, b.tracked.location_m)
            })
    }

    /// 95th-percentile consume latency, ns (0 when nothing ran).
    pub fn p95_latency_ns(&self) -> u64 {
        p95(&self.latencies_ns)
    }
}

fn p95(latencies: &[u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() as f64 * 0.95).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The whole batch's outcome.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-stream results, in (reader, stream) spec order.
    pub streams: Vec<StreamResult>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Phase groups synthesised across all readers.
    pub groups_produced: u64,
    /// Producer stall transitions caused by a full stream queue.
    pub backpressure_events: u64,
    /// Snapshots dropped by fault injection across all readers (plain
    /// count — available even when telemetry recording is disabled).
    pub snapshots_dropped: u64,
    /// Interference bursts injected across all readers.
    pub bursts_injected: u64,
    /// Groups lost to full queues across all streams (0 under
    /// [`OverflowPolicy::Stall`]).
    pub groups_dropped: u64,
    /// Rolling per-stream health (latency percentiles, degradation
    /// flags) when the run was started through [`run_batch_observed`]
    /// with an aggregator config; empty otherwise.
    pub health: Vec<StreamHealth>,
    /// Deterministically merged telemetry of the run (already absorbed
    /// into the caller's recorder), plus the engine's wall-clock
    /// aggregates (`batch.queue_depth`, `batch.queue_occupancy`,
    /// `batch.group_latency_ns`).
    pub telemetry: TelemetrySnapshot,
}

impl BatchReport {
    /// Completed press measurements (readings at press slots) across all
    /// streams.
    pub fn press_readings(&self) -> usize {
        self.streams
            .iter()
            .flat_map(|s| &s.readings)
            .filter(|r| r.press.is_some())
            .count()
    }

    /// Aggregate press throughput over the run's wall clock.
    pub fn presses_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.press_readings() as f64 / secs
    }

    /// 95th-percentile produce→consume group latency across all streams,
    /// ns.
    pub fn p95_stream_latency_ns(&self) -> u64 {
        let all: Vec<u64> = self
            .streams
            .iter()
            .flat_map(|s| s.latencies_ns.iter().copied())
            .collect();
        p95(&all)
    }

    /// [`StreamResult::deterministic_eq`] over every stream.
    pub fn deterministic_eq(&self, other: &BatchReport) -> bool {
        self.streams.len() == other.streams.len()
            && self
                .streams
                .iter()
                .zip(&other.streams)
                .all(|(a, b)| a.deterministic_eq(b))
    }

    /// The run as metric series: `snap` (a recorder snapshot, e.g.
    /// [`Self::telemetry`] or everything the caller recorded around the
    /// run) as unlabelled series, plus per stream, labelled
    /// `{reader, stream}`: `batch.groups_consumed`,
    /// `batch.groups_dropped`, `batch.presses_served`,
    /// `batch.estimate_failures`, the `batch.queue_peak` gauge and a
    /// `batch.group_latency_ns` summary. The per-stream series come from
    /// [`Self::streams`], so they are present with the recorder off.
    pub fn metrics(&self, snap: &TelemetrySnapshot) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::from_telemetry(snap);
        for s in &self.streams {
            let reader = s.reader.to_string();
            let key = |name: &str| {
                SeriesKey::new(
                    name,
                    &[("reader", reader.as_str()), ("stream", s.name.as_str())],
                )
            };
            let presses = s.readings.iter().filter(|r| r.press.is_some()).count();
            for (name, n) in [
                ("batch.groups_consumed", s.latencies_ns.len() as u64),
                ("batch.groups_dropped", s.groups_dropped),
                ("batch.presses_served", presses as u64),
                ("batch.estimate_failures", s.failures),
            ] {
                m.counters.insert(key(name), n);
            }
            m.gauges
                .insert(key("batch.queue_peak"), s.queue_peak as f64);
            let mut latency = Histogram::default();
            for &ns in &s.latencies_ns {
                latency.record(ns as f64);
            }
            m.histograms.insert(key("batch.group_latency_ns"), latency);
        }
        m
    }
}

/// Per-stream synthesis state inside a reader's producer: the tag, its
/// free-running clock, and the precomputed reflection table per schedule
/// slot (index 0 = untouched, 1 + p = press p).
struct StreamSynth {
    tag: SensorTag,
    /// Tag base clock, Hz — the spectral path's line frequencies
    /// (`fs`, `4fs`) derive from it.
    fs_hz: f64,
    clock: TagClock,
    /// The group in production's closed-form clock, planned from `clock`.
    plan: GroupPlan,
    /// Integration-window state walk over `plan`'s instants.
    walk: WindowWalker,
    /// Slot tables live behind `Arc`s out of the scene's response memo:
    /// the reflection network is identical across streams (clocks never
    /// enter it), so the untouched table and every repeated
    /// (force, location) contact are built once per scene and shared.
    tables: Vec<Arc<Vec<[Complex; 4]>>>,
    n_presses: usize,
}

impl StreamSynth {
    fn slot_for_group(&self, group: u64, reference_groups: usize) -> usize {
        (group as usize)
            .checked_sub(reference_groups)
            .filter(|p| *p < self.n_presses)
            .map_or(0, |p| 1 + p)
    }

    fn table_for_group(&self, group: u64, reference_groups: usize) -> &[[Complex; 4]] {
        self.tables[self.slot_for_group(group, reference_groups)].as_slice()
    }
}

/// The single logical producer of one reader: owns all synthesis state,
/// so the group sequence is deterministic no matter which worker thread
/// runs it. The reader's seed draws only the tag clocks and one reader
/// key at build; group `seq` is then addressed by `(key, seq)` the way a
/// press addresses its groups, wander draws and noise lanes alike. The
/// press-invariant channel state comes from the template
/// simulation's [`wiforce_channel::SharedChannelCache`], so N readers on
/// one scene evaluate the static response exactly once between them.
struct ReaderProducer {
    streams: Vec<StreamSynth>,
    scene: Scene,
    cache: Arc<ChannelCache>,
    sounder: Sounder,
    frontend: Frontend,
    /// This reader's fault regime.
    faults: FaultConfig,
    /// The reader key and the next group's index.
    noise: PressNoise,
    /// The snapshot grid (`n_snapshots`, `snapshot_period_s`).
    group: PhaseGroupConfig,
    t_int: f64,
    wander_ppm: f64,
    reference_groups: usize,
    /// Fault tallies over the groups produced so far.
    snapshots_dropped: u64,
    bursts_injected: u64,
    /// Spectral-domain line synthesis resolved from the template
    /// ([`Simulation::synth_spectral_enabled`]) and this reader's
    /// eligibility ([`Simulation::spectral_eligible_under`] its faults).
    /// Takes priority over the time-domain rows when engaged.
    spectral: bool,
    /// Per-snapshot, per-subcarrier estimate-noise sigma (per component)
    /// of the sounder — the unitarity input of the spectral path. 0 when
    /// `spectral` is off.
    sigma_est: f64,
    /// Time-domain scratch: row-major truth plane for one snapshot block.
    truth_plane: Vec<Complex>,
    /// Spectral scratch: one line's complex normals, the subcarriers'
    /// noise and the line's common-mode jitter.
    normals: Vec<Complex>,
    /// Spectral scratch: one stream's per-state backscatter spectra.
    spectra: Vec<Complex>,
    /// Snapshot matrices previously handed out; any entry whose consumers
    /// have all dropped (strong count back to 1) is recycled, so steady
    /// state reuses the group-sized buffers instead of reallocating.
    retired: Vec<Arc<SnapshotMatrix>>,
}

impl ReaderProducer {
    fn build(sim: &Simulation, spec: &ReaderSpec, cfg: &BatchConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        // the subcarrier grid depends only on the sounder and scene, both
        // shared across streams — compute it once for every table below
        let freqs = sim.subcarrier_freqs_hz();
        let cache = sim.channel_cache.get_or_build(&sim.scene, &freqs);
        // spectral-domain line synthesis never materializes snapshots at
        // all. It is accuracy-gated, not bit-pinned, so it only engages
        // on the explicit opt-in ([`Simulation::synth_spectral_enabled`])
        // inside its validity envelope under this reader's faults.
        let sigma_est = sim.sounder.estimate_noise_sigma(sim.frontend.noise_floor);
        let spectral = sim.synth_spectral_enabled() && sim.spectral_eligible_under(&spec.faults);
        // Slot tables are built once per distinct contact of this
        // reader's schedules. The reflection network depends only on the
        // tag's electrical parts (line, switches, splitter) — identical
        // for every stream, since `wiforce_prototype` varies only the
        // clocks with `fs` — and the contact, which is fully identified by
        // its two port lengths. So the untouched table comes from the
        // memoized EM plan, and each repeated (force, location) pair
        // across streams shares one table. Contact tables stay out of the
        // response memo, which holds only press-invariant entries.
        let mut sim_rep = sim.clone();
        if let Some(s0) = spec.streams.first() {
            sim_rep.tag = SensorTag::wiforce_prototype(s0.fs_hz);
        }
        let mut slot_tables: HashMap<[u64; 2], Arc<Vec<[Complex; 4]>>> = HashMap::new();
        let mut slot = |contact: Option<&ContactState>| -> Arc<Vec<[Complex; 4]>> {
            // port lengths are finite (clamped to [0, beam length]), so the
            // all-ones NaN pattern can never collide with a real contact
            let words = contact.map_or([u64::MAX, u64::MAX], |c| {
                [c.port1_short_m.to_bits(), c.port2_short_m.to_bits()]
            });
            slot_tables
                .entry(words)
                .or_insert_with(|| sim_rep.tag_response_table(&cache, contact))
                .clone()
        };
        let streams: Vec<StreamSynth> = spec
            .streams
            .iter()
            .map(|s| {
                let contacts = std::iter::once(None).chain(
                    s.presses
                        .iter()
                        .map(|p| sim_rep.contact_for(p.force_n, p.location_m)),
                );
                let tables = contacts.map(|c| slot(c.as_ref())).collect();
                StreamSynth {
                    tag: SensorTag::wiforce_prototype(s.fs_hz),
                    fs_hz: s.fs_hz,
                    clock: TagClock::new(&mut rng),
                    plan: GroupPlan::default(),
                    walk: WindowWalker::default(),
                    tables,
                    n_presses: s.presses.len(),
                }
            })
            .collect();
        ReaderProducer {
            streams,
            scene: sim.scene.clone(),
            cache,
            sounder: sim.sounder,
            frontend: sim.frontend,
            faults: spec.faults,
            // drawn after every stream's clock
            noise: PressNoise::from_rng(&mut rng),
            group: sim.group,
            t_int: sim.sounder.integration_window_s(),
            wander_ppm: sim.tag_clock_wander_ppm,
            reference_groups: cfg.reference_groups,
            snapshots_dropped: 0,
            bursts_injected: 0,
            spectral,
            sigma_est: sigma_est.unwrap_or(0.0),
            truth_plane: Vec::new(),
            normals: Vec::new(),
            spectra: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// Pops a retired snapshot matrix whose consumers have all dropped
    /// (producer's clone is the sole owner) and clears it for reuse, or
    /// allocates a fresh one. Keeps steady-state group synthesis at a
    /// handful of allocations per group.
    fn reclaim_matrix(&mut self, width: usize) -> SnapshotMatrix {
        for i in 0..self.retired.len() {
            if Arc::strong_count(&self.retired[i]) == 1 {
                let arc = self.retired.swap_remove(i);
                let mut m = Arc::try_unwrap(arc).expect("sole owner checked above");
                m.clear();
                m.set_width(width);
                return m;
            }
        }
        SnapshotMatrix::new(width)
    }

    /// Synthesises the next phase group: the shared preamble (reclaim
    /// the group matrix, plan every stream's clock with
    /// [`TagClock::plan_group`], the streams drawing their wander in
    /// stream order from the group's one cursor), then one of two line
    /// sources — [`Self::spectral_lines`] or [`Self::time_domain_rows`],
    /// both addressed by `(reader key, seq)` — then the group's counters.
    /// Returns the group behind an [`Arc`] whose buffer is recycled once
    /// every consumer has dropped it.
    fn produce_group(&mut self) -> (u64, Arc<SnapshotMatrix>) {
        let _span = wiforce_telemetry::span!("batch.produce_group");
        let seq = self.noise.take_group();
        let mut out = self.reclaim_matrix(self.cache.statics.len());
        let mut cursor = CounterRng::for_group(self.noise.key(), seq);
        for s in self.streams.iter_mut() {
            s.plan = s.clock.plan_group(
                seq,
                &mut cursor,
                self.wander_ppm,
                self.faults.tag_clock_ppm,
                s.fs_hz,
                &self.group,
            );
        }
        let (dropped, bursts) = if self.spectral {
            self.spectral_lines(seq, &mut out);
            (0, 0)
        } else {
            self.time_domain_rows(seq, &mut out)
        };
        self.snapshots_dropped += dropped;
        self.bursts_injected += bursts;
        let n = self.group.n_snapshots as u64;
        let exact_evals: u64 = self
            .streams
            .iter_mut()
            .map(|s| s.walk.take_exact_evals())
            .sum();
        if wiforce_telemetry::enabled() {
            wiforce_telemetry::counter!("batch.groups_produced", 1);
            if self.spectral {
                wiforce_telemetry::counter!("batch.spectral_groups", 1);
            }
            wiforce_telemetry::counter!("clock.walk_exact_evals", exact_evals);
            // a spectral group still stands in for n soundings of reader time
            wiforce_telemetry::counter!("pipeline.snapshots_total", n);
            wiforce_telemetry::counter!("faults.snapshots_dropped", dropped);
            wiforce_telemetry::counter!("faults.bursts_injected", bursts);
        }
        let group = Arc::new(out);
        self.retired.push(Arc::clone(&group));
        (seq.into(), group)
    }

    /// Time-domain line source: the group's `n` shared snapshot rows —
    /// one channel sounding per snapshot serves every tag stream. Each
    /// block of [`CHUNK_ROWS`] rows evaluates its truth plane
    /// ([`eval_shared_truth`]) and goes through
    /// [`SoundingStep::sound_block`], the press engine's draw order.
    /// Returns the group's `(dropped, bursts)` tallies.
    fn time_domain_rows(&mut self, seq: u32, out: &mut SnapshotMatrix) -> (u64, u64) {
        let key = self.noise.key();
        let n = self.group.n_snapshots;
        let width = self.cache.statics.len();
        let t_snap = self.group.snapshot_period_s;
        let (t_int, reference_groups) = (self.t_int, self.reference_groups);
        out.reserve_rows(n);
        let ReaderProducer {
            streams,
            scene,
            cache,
            sounder,
            frontend,
            faults,
            truth_plane,
            ..
        } = self;
        // the scene runs on the reader's clock, which every stream's plan
        // carries
        let t_reader0 = streams.first().map_or(0.0, |s| s.plan.t_reader0);
        let step = SoundingStep {
            sounder,
            frontend,
            faults,
            cache,
        };
        let mut tally = BlockTally::default();
        let region = out.extend_rows(n);
        let mut s0 = 0;
        while s0 < n {
            let rows = CHUNK_ROWS.min(n - s0);
            truth_plane.clear();
            truth_plane.resize(rows * width, Complex::ZERO);
            for (r, row) in truth_plane.chunks_exact_mut(width).enumerate() {
                let snap = s0 + r;
                let t_reader = t_reader0 + snap as f64 * t_snap;
                eval_shared_truth(
                    streams,
                    scene,
                    cache,
                    seq.into(),
                    reference_groups,
                    t_int,
                    snap,
                    t_reader,
                    row,
                );
            }
            step.sound_block(
                (key, seq, 0),
                s0..s0 + rows,
                BlockTruth::Plane(truth_plane),
                region,
                &mut tally,
            );
            s0 += rows;
        }
        (tally.dropped, tally.bursts)
    }

    /// Spectral line source: produces each stream's two consumed
    /// spectral lines *directly* — no time-domain snapshots ever exist.
    /// `out` gets `2·n_streams` rows (rows `2i`/`2i+1` are stream `i`'s
    /// `fs`/`4fs` lines across subcarriers, phase-referenced to the
    /// group's reader start time), which consumers feed straight to
    /// [`ForceEstimator::push_lines`].
    ///
    /// Per stream, one walk of the group's integration windows
    /// ([`WindowWalker`], the weights the time-domain rows use) sums each
    /// state's window-weighted line phasors `E_σ` and fractional counts
    /// `n_σ`; the press arm's finisher ([`SpectralLines`]) turns them into
    /// lines with `D̄ = (Σ_σ E_σ)/N`.
    fn spectral_lines(&mut self, seq: u32, out: &mut SnapshotMatrix) {
        let key = self.noise.key();
        let n = self.group.n_snapshots;
        let t_snap = self.group.snapshot_period_s;
        let start_s = self.group.group_start_s(seq.into());
        let t_int = self.t_int;
        let reference_groups = self.reference_groups;
        let var_row = spectral_row_var(self.sigma_est, &self.frontend, self.cache.full_scale);
        out.reserve_rows(2 * self.streams.len());
        let ReaderProducer {
            streams,
            cache,
            frontend,
            normals,
            spectra,
            ..
        } = self;
        let inv_n = 1.0 / n as f64;
        for s in streams.iter_mut() {
            let line_hz = [s.fs_hz, 4.0 * s.fs_hz];
            let rot = line_hz.map(|f| Complex::cis(-wiforce_dsp::TAU * f * t_snap));
            let mut ph = [Complex::ONE; 2];
            let mut e = [[Complex::ZERO; 4]; 2];
            let mut counts = [0.0f64; 4];
            for snap in 0..n {
                let t_tag = s.plan.t_tag0 + snap as f64 * s.plan.dt_eff;
                let w = s.walk.weights(&s.tag.clocks, t_tag, t_int);
                for q in 0..4 {
                    if w[q] != 0.0 {
                        e[0][q] += ph[0].scale(w[q]);
                        e[1][q] += ph[1].scale(w[q]);
                        counts[q] += w[q];
                    }
                }
                ph[0] *= rot[0];
                ph[1] *= rot[1];
            }
            fill_state_spectra(
                &cache.gains,
                s.table_for_group(seq.into(), reference_groups),
                spectra,
            );
            let lines_of = SpectralLines {
                statics: &cache.statics,
                spectra,
                var_row,
                jitter_rad: frontend.phase_jitter_rad,
                n,
                start_s,
                key,
                group_id: seq,
            };
            for (f_hz, e) in line_hz.into_iter().zip(&e) {
                // D̄ = (Σ_σ E_σ)/N exactly (≈0 on the integer line bins)
                let dbar = (e[0] + e[1] + e[2] + e[3]).scale(inv_n);
                lines_of.finish(f_hz, e, &counts, dbar, normals, out.push_row_default());
            }
        }
    }
}

/// Evaluates snapshot `snap` of the group in production, at reader time
/// `t_reader`, into `row`: each stream's tag state-weighted response at
/// its plan's tag time onto the static channel, then any mover Doppler —
/// the truth rows [`ReaderProducer::time_domain_rows`] hands the sounder.
#[allow(clippy::too_many_arguments)]
fn eval_shared_truth(
    streams: &mut [StreamSynth],
    scene: &Scene,
    cache: &ChannelCache,
    seq: u64,
    reference_groups: usize,
    t_int: f64,
    snap: usize,
    t_reader: f64,
    row: &mut [Complex],
) {
    row.copy_from_slice(&cache.statics);
    for s in streams.iter_mut() {
        let t_tag = s.plan.t_tag0 + snap as f64 * s.plan.dt_eff;
        // average the switch state over the sounder's integration
        // window: instantaneous sampling aliases the square-wave
        // drive's high harmonics onto *other* tags' Doppler bins
        // (see `ClockPair::state_weights`), leaking press phase
        // across frequency-multiplexed streams
        let w = s.walk.weights(&s.tag.clocks, t_tag, t_int);
        let table = s.table_for_group(seq, reference_groups);
        if let Some(pure) = (0..4).find(|&q| w[q] == 1.0) {
            // no drive edge inside the window — one pure state
            wiforce_dsp::kernels::accumulate_state(row, &cache.gains, table, pure);
        } else {
            wiforce_dsp::kernels::blend_states(row, &cache.gains, table, &w);
        }
    }
    if !scene.movers.is_empty() {
        for (h, &f) in row.iter_mut().zip(&cache.freqs_hz) {
            *h += scene.dynamic_response(f, t_reader);
        }
    }
}

/// One stream's sticky consumer state: estimator, tracker, accumulated
/// results.
struct StreamConsumer {
    name: String,
    reader: usize,
    fs_hz: f64,
    n_presses: usize,
    reference_groups: usize,
    estimator: ForceEstimator,
    tracker: Tracker,
    readings: Vec<StreamReading>,
    failures: u64,
    latencies_ns: Vec<u64>,
    /// Testing aid: sleep this long per consumed group (see
    /// [`BatchConfig::consume_throttle`]).
    throttle: Option<Duration>,
    /// Spectral transport: when set, each received matrix carries
    /// pre-extracted lines instead of snapshots, and this stream's two
    /// lines live at rows `2·lines_row` (`fs`) and `2·lines_row + 1`
    /// (`4fs`). `None` means the classic time-domain snapshot layout.
    lines_row: Option<usize>,
}

impl StreamConsumer {
    fn consume(&mut self, items: &[GroupItem]) {
        let _span = wiforce_telemetry::span!("batch.consume");
        for item in items {
            if let Some(delay) = self.throttle {
                std::thread::sleep(delay);
            }
            // each item is one complete phase group shared (behind an
            // `Arc`) by every stream on the reader: the bulk push
            // extracts this stream's lines straight from the shared
            // matrix instead of copying n_snapshots rows per stream;
            // on the spectral transport the matrix already holds each
            // stream's extracted lines, so extraction is skipped
            let pushed = match self.lines_row {
                Some(i) => {
                    let m = &item.snapshots;
                    self.estimator.push_lines(crate::harmonics::GroupLines {
                        p1: m.row(2 * i).to_vec(),
                        p2: m.row(2 * i + 1).to_vec(),
                    })
                }
                None => self.estimator.push_group(&item.snapshots),
            };
            match pushed {
                Ok(Some(reading)) => {
                    let tracked = self.tracker.update(&reading);
                    let press = (item.seq as usize)
                        .checked_sub(self.reference_groups)
                        .filter(|p| *p < self.n_presses);
                    self.readings.push(StreamReading {
                        group: item.seq,
                        press,
                        reading,
                        tracked,
                    });
                }
                Ok(None) => {}
                Err(_) => self.failures += 1,
            }
            self.latencies_ns
                .push(item.produced.elapsed().as_nanos() as u64);
        }
    }

    fn into_result(self) -> StreamResult {
        StreamResult {
            name: self.name,
            reader: self.reader,
            fs_hz: self.fs_hz,
            readings: self.readings,
            failures: self.failures,
            latencies_ns: self.latencies_ns,
            groups_dropped: 0,
            queue_peak: 0,
        }
    }
}

/// Scheduler state behind the pool's mutex.
struct Sched {
    producers: Vec<Option<Box<ReaderProducer>>>,
    producer_claimed: Vec<bool>,
    produced: Vec<u64>,
    total: Vec<u64>,
    blocked: Vec<bool>,
    demux: Vec<TagDemux>,
    consumers: Vec<Option<Box<StreamConsumer>>>,
    consumer_claimed: Vec<bool>,
    /// flat stream index → (reader, local stream index)
    locate: Vec<(usize, usize)>,
    queue_peak: Vec<usize>,
    backpressure_events: u64,
    overflow: OverflowPolicy,
    /// Per flat stream: groups lost to a full queue (DropNewest only).
    dropped: Vec<u64>,
    depth_hist: Histogram,
    occupancy_hist: Histogram,
    /// Rolling health windows, fed as consumers drain (present only on
    /// observed runs).
    health: Option<HealthAggregator>,
    prod_telem: Vec<Vec<(u64, Recording)>>,
    cons_telem: Vec<Vec<(u64, Recording)>>,
}

impl Sched {
    fn finished(&self) -> bool {
        self.produced
            .iter()
            .zip(&self.total)
            .all(|(done, total)| done == total)
            && self.producer_claimed.iter().all(|c| !c)
            && self.consumer_claimed.iter().all(|c| !c)
            && self.demux.iter().all(TagDemux::is_empty)
    }
}

struct Shared {
    sched: Mutex<Sched>,
    cv: Condvar,
    /// Every produced group and consumed drain records under the caller's
    /// open spans; the recordings merge in sequence order.
    telemetry: Scope,
}

fn worker_loop(shared: &Shared, observer: Option<&(dyn Fn(&StreamWindow) + Sync)>) {
    let mut guard = shared.sched.lock().expect("scheduler lock");
    loop {
        let drop_newest = guard.overflow == OverflowPolicy::DropNewest;
        // a stream with queued groups and an unclaimed consumer
        let consumable = (0..guard.consumers.len()).find(|&i| {
            let (r, l) = guard.locate[i];
            !guard.consumer_claimed[i] && guard.demux[r].depth(l) > 0
        });
        // a reader with groups left — under Stall, also room in every
        // stream queue; under DropNewest a full queue drops instead
        let producible = (0..guard.producers.len()).find(|&r| {
            !guard.producer_claimed[r]
                && guard.produced[r] < guard.total[r]
                && (drop_newest || guard.demux[r].can_accept())
        });
        // Stall drains ahead of producing (keeps queues shallow);
        // DropNewest produces first, so a slow consumer genuinely sees
        // the front end outrun it
        let consume_now = match (drop_newest, consumable, producible) {
            (false, Some(flat), _) => Some(flat),
            (true, Some(flat), None) => Some(flat),
            _ => None,
        };
        if let Some(flat) = consume_now {
            let (r, l) = guard.locate[flat];
            guard.consumer_claimed[flat] = true;
            let items = guard.demux[r].drain(l);
            let capacity = guard.demux[r].capacity();
            let mut state = guard.consumers[flat].take().expect("consumer parked");
            drop(guard);
            if trace::trace_enabled() {
                trace::instant("batch.consume.stream", flat as u64);
                for item in &items {
                    trace::flow_end("batch.handoff", ((flat as u64) << 32) | item.seq);
                }
            }
            let latency_mark = state.latencies_ns.len();
            let failure_mark = state.failures;
            let ((), snap) = shared.telemetry.capture(|| state.consume(&items));
            // one health sample per drained group: its produce→consume
            // latency, the backlog it sat in, and whether an estimate
            // failed while working it off
            let occupancy = items.len() as f64 / capacity as f64;
            let mut failures_left = (state.failures - failure_mark) as usize;
            let samples: Vec<WindowSample> = state.latencies_ns[latency_mark..]
                .iter()
                .map(|&ns| {
                    let failed = failures_left > 0;
                    failures_left = failures_left.saturating_sub(1);
                    WindowSample {
                        latency_ns: ns as f64,
                        queue_occupancy: occupancy,
                        failed,
                    }
                })
                .collect();
            guard = shared.sched.lock().expect("scheduler lock");
            if let Some(snap) = snap {
                guard.cons_telem[flat].push((items[0].seq, snap));
            }
            let mut windows = Vec::new();
            if let Some(agg) = guard.health.as_mut() {
                // key by reader as well: stream names are only unique
                // within one reader spec
                let scoped = format!("r{}/{}", state.reader, state.name);
                for s in samples {
                    if let Some(w) = agg.record(&scoped, s) {
                        windows.push(w);
                    }
                }
            }
            guard.consumers[flat] = Some(state);
            guard.consumer_claimed[flat] = false;
            shared.cv.notify_all();
            if let (Some(observe), false) = (observer, windows.is_empty()) {
                // emit completed windows outside the scheduler lock — the
                // observer may print or write
                drop(guard);
                for w in &windows {
                    observe(w);
                }
                guard = shared.sched.lock().expect("scheduler lock");
            }
            continue;
        }
        if let Some(r) = producible {
            guard.producer_claimed[r] = true;
            let mut prod = guard.producers[r].take().expect("producer parked");
            drop(guard);
            let ((seq, matrix), snap) = shared.telemetry.capture(|| prod.produce_group());
            let item = GroupItem {
                seq,
                snapshots: matrix,
                produced: Instant::now(),
            };
            guard = shared.sched.lock().expect("scheduler lock");
            if let Some(snap) = snap {
                guard.prod_telem[r].push((seq, snap));
            }
            let dropped_locals: Vec<usize> = if drop_newest {
                guard.demux[r].fan_out_lossy(item)
            } else {
                guard.demux[r]
                    .fan_out(item)
                    .expect("space was reserved under the lock");
                Vec::new()
            };
            let occupancy = guard.demux[r].occupancy();
            guard.occupancy_hist.record(occupancy);
            let mut deepest = 0;
            for flat in 0..guard.locate.len() {
                let (reader, local) = guard.locate[flat];
                if reader == r {
                    let depth = guard.demux[r].depth(local);
                    deepest = deepest.max(depth);
                    guard.queue_peak[flat] = guard.queue_peak[flat].max(depth);
                    if dropped_locals.contains(&local) {
                        guard.dropped[flat] += 1;
                        trace::instant("batch.queue_drop", flat as u64);
                    } else if trace::trace_enabled() {
                        // flow arrow from this enqueue to the drain that
                        // will consume it
                        trace::flow_start("batch.handoff", ((flat as u64) << 32) | seq);
                    }
                }
            }
            trace::counter_value("batch.queue_depth", deepest as u64, r as u64);
            guard.depth_hist.record(deepest as f64);
            guard.produced[r] += 1;
            guard.blocked[r] = false;
            guard.producers[r] = Some(prod);
            guard.producer_claimed[r] = false;
            shared.cv.notify_all();
            continue;
        }
        if guard.finished() {
            shared.cv.notify_all();
            return;
        }
        // nothing runnable: count producers stalled on a full queue
        // (once per stall transition), then wait for a state change
        for r in 0..guard.producers.len() {
            if !guard.producer_claimed[r]
                && guard.produced[r] < guard.total[r]
                && !guard.demux[r].can_accept()
                && !guard.blocked[r]
            {
                guard.blocked[r] = true;
                guard.backpressure_events += 1;
            }
        }
        guard = shared.cv.wait(guard).expect("scheduler lock");
    }
}

/// Runs N streams across the given readers on a fixed worker pool.
///
/// `sim` is the shared template (scene, sounder, front end, group
/// cadence, mechanics); each reader overlays its own tags, faults, and
/// RNG seed. `model` is the calibration inversion LUT every stream's
/// estimator shares read-only. Per-stream results are bit-identical for
/// any `cfg.workers` (see the module docs); the run's merged telemetry
/// is absorbed into the caller's recorder.
pub fn run_batch(
    sim: &Simulation,
    model: &Arc<SensorModel>,
    readers: &[ReaderSpec],
    cfg: &BatchConfig,
) -> Result<BatchReport, WiForceError> {
    run_batch_observed(sim, model, readers, cfg, None, None)
}

/// [`run_batch`] with incremental health reporting: per-group samples
/// (latency, backlog occupancy, failures) fold into a
/// [`HealthAggregator`] as consumers drain, and every completed
/// [`StreamWindow`] — percentiles plus degradation flags — is handed to
/// `observer` while the batch is still running (from a worker thread,
/// outside the scheduler lock). Partial windows are flushed at the end;
/// the final per-stream rollup lands in [`BatchReport::health`].
pub fn run_batch_observed(
    sim: &Simulation,
    model: &Arc<SensorModel>,
    readers: &[ReaderSpec],
    cfg: &BatchConfig,
    health: Option<AggregatorConfig>,
    observer: Option<&(dyn Fn(&StreamWindow) + Sync)>,
) -> Result<BatchReport, WiForceError> {
    if readers.is_empty() || readers.iter().any(|r| r.streams.is_empty()) {
        return Err(WiForceError::Config(
            "batch needs at least one reader with at least one stream".into(),
        ));
    }
    for spec in readers {
        for (i, a) in spec.streams.iter().enumerate() {
            for b in &spec.streams[i + 1..] {
                if (a.fs_hz - b.fs_hz).abs() < 1e-9 {
                    return Err(WiForceError::Config(format!(
                        "streams {:?} and {:?} share clock {} Hz on one reader",
                        a.name, b.name, a.fs_hz
                    )));
                }
            }
        }
    }
    let workers = cfg.workers.max(1);
    let capacity = cfg.queue_capacity.max(1);

    let mut producers = Vec::new();
    let mut demux = Vec::new();
    let mut consumers = Vec::new();
    let mut locate = Vec::new();
    let mut total = Vec::new();
    for (r, spec) in readers.iter().enumerate() {
        let producer = ReaderProducer::build(sim, spec, cfg);
        let spectral = producer.spectral;
        total.push((cfg.reference_groups + spec.max_presses()) as u64);
        let mut dx = TagDemux::new(capacity);
        for (l, s) in spec.streams.iter().enumerate() {
            dx.register();
            locate.push((r, l));
            let est_cfg = EstimatorConfig {
                group: crate::harmonics::PhaseGroupConfig {
                    line1_hz: s.fs_hz,
                    line2_hz: 4.0 * s.fs_hz,
                    ..sim.group
                },
                reference_groups: cfg.reference_groups,
                ..EstimatorConfig::wiforce(s.fs_hz)
            };
            consumers.push(Some(Box::new(StreamConsumer {
                name: s.name.clone(),
                reader: r,
                fs_hz: s.fs_hz,
                n_presses: s.presses.len(),
                reference_groups: cfg.reference_groups,
                estimator: ForceEstimator::new(est_cfg, model.as_ref().clone()),
                tracker: Tracker::new(TrackerConfig::wiforce()),
                readings: Vec::new(),
                failures: 0,
                latencies_ns: Vec::new(),
                throttle: cfg.consume_throttle,
                lines_row: spectral.then_some(l),
            })));
        }
        producers.push(Some(Box::new(producer)));
        demux.push(dx);
    }
    let n_streams = locate.len();
    let n_readers = readers.len();
    let shared = Shared {
        sched: Mutex::new(Sched {
            producers,
            producer_claimed: vec![false; n_readers],
            produced: vec![0; n_readers],
            total,
            blocked: vec![false; n_readers],
            demux,
            consumers,
            consumer_claimed: vec![false; n_streams],
            locate,
            queue_peak: vec![0; n_streams],
            backpressure_events: 0,
            overflow: cfg.overflow,
            dropped: vec![0; n_streams],
            depth_hist: Histogram::default(),
            occupancy_hist: Histogram::default(),
            health: health.map(HealthAggregator::new),
            prod_telem: vec![Vec::new(); n_readers],
            cons_telem: vec![Vec::new(); n_streams],
        }),
        cv: Condvar::new(),
        telemetry: wiforce_telemetry::scope(),
    };

    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| worker_loop(&shared, observer)))
            .collect();
        for handle in handles {
            handle.join().expect("batch worker panicked");
        }
    });
    let elapsed = started.elapsed();

    let mut sched = shared.sched.into_inner().expect("scheduler lock");
    let groups_produced = sched.produced.iter().sum();
    let (mut snapshots_dropped, mut bursts_injected) = (0u64, 0u64);
    for p in sched.producers.iter().flatten() {
        snapshots_dropped += p.snapshots_dropped;
        bursts_injected += p.bursts_injected;
    }
    let streams: Vec<StreamResult> = sched
        .consumers
        .iter_mut()
        .enumerate()
        .map(|(flat, c)| {
            let mut result = c.take().expect("consumer parked at shutdown").into_result();
            result.groups_dropped = sched.dropped[flat];
            result.queue_peak = sched.queue_peak[flat];
            result
        })
        .collect();
    let groups_dropped: u64 = sched.dropped.iter().sum();

    // close out partial health windows and take the final rollup
    let health_rollup: Vec<StreamHealth> = match sched.health.as_mut() {
        Some(agg) => {
            let leftovers = agg.flush_all();
            if let Some(observe) = observer {
                for w in &leftovers {
                    observe(w);
                }
            }
            agg.health()
        }
        None => Vec::new(),
    };

    // deterministic telemetry merge: producer recordings in (reader,
    // seq) order, then consumer recordings in (stream, first-seq) order —
    // independent of which worker ran what, exactly like `run_sweep`
    for per_item in sched.prod_telem.iter_mut().chain(&mut sched.cons_telem) {
        per_item.sort_by_key(|(seq, _)| *seq);
    }
    let items = sched.prod_telem.iter().chain(&sched.cons_telem);
    let mut merged = shared
        .telemetry
        .snapshot(items.flatten().map(|(_, rec)| rec));
    // engine-level aggregates (wall-clock / scheduling dependent)
    merged
        .observations
        .insert("batch.queue_depth".into(), sched.depth_hist.clone());
    merged
        .observations
        .insert("batch.queue_occupancy".into(), sched.occupancy_hist.clone());
    let mut latency_hist = Histogram::default();
    for s in &streams {
        for &ns in &s.latencies_ns {
            latency_hist.record(ns as f64);
        }
    }
    merged
        .observations
        .insert("batch.group_latency_ns".into(), latency_hist);
    merged.counters.insert(
        "batch.backpressure_events".into(),
        sched.backpressure_events,
    );
    // worker-count invariant under the default Stall policy (always 0)
    merged
        .counters
        .insert("batch.groups_dropped".into(), groups_dropped);
    merged
        .gauges
        .insert("batch.streams".into(), n_streams as f64);
    merged.gauges.insert("batch.workers".into(), workers as f64);
    wiforce_telemetry::absorb(&merged);

    Ok(BatchReport {
        streams,
        elapsed,
        groups_produced,
        backpressure_events: sched.backpressure_events,
        snapshots_dropped,
        bursts_injected,
        groups_dropped,
        health: health_rollup,
        telemetry: merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> (Simulation, Arc<SensorModel>) {
        let sim = Simulation::paper_default(0.9e9);
        let model = Arc::new(sim.vna_calibration().expect("calibration"));
        (sim, model)
    }

    #[test]
    fn scalar_hold_reaches_batch_workers() {
        // a health window closes on every consumed group and is handed
        // to the observer on the batch worker that consumed it
        use wiforce_dsp::kernels::{backend, hold_scalar, Backend};
        let (sim, model) = template();
        let spec = ReaderSpec::frequency_multiplexed(2, 1, 0x5CA1, &sim.group).expect("allocation");
        let seen = Mutex::new(Vec::new());
        let _one = crate::SCALAR_HOLDS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let _scalar = hold_scalar();
        run_batch_observed(
            &sim,
            &model,
            std::slice::from_ref(&spec),
            &BatchConfig::wiforce(2),
            Some(AggregatorConfig {
                window: 1,
                ..AggregatorConfig::default()
            }),
            Some(&|_: &StreamWindow| {
                let on = (std::thread::current().id(), backend());
                seen.lock().expect("observer log").push(on);
            }),
        )
        .expect("batch runs");
        let seen = seen.into_inner().expect("observer log");
        let caller = std::thread::current().id();
        assert!(
            seen.iter().any(|&(t, _)| t != caller),
            "no window on a worker"
        );
        assert!(seen.iter().all(|&(_, b)| b == Backend::Scalar), "{seen:?}");
    }

    #[test]
    fn results_are_worker_count_invariant() {
        // clean, under burst faults, and with a mover (per-snapshot
        // truth planes through the block step)
        let (sim, model) = template();
        let mut moving = sim.clone();
        moving
            .scene
            .movers
            .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
        let bursty = FaultConfig {
            burst_prob: 0.02,
            burst_rel_amp: 0.1,
            ..FaultConfig::none()
        };
        for (name, sim, faults) in [
            ("clean", &sim, FaultConfig::none()),
            ("bursts", &sim, bursty),
            ("movers", &moving, FaultConfig::none()),
        ] {
            let spec = ReaderSpec::frequency_multiplexed(2, 2, 0xBEEF, &sim.group)
                .expect("allocation")
                .with_faults(faults);
            let run = |workers: usize| {
                let cfg = BatchConfig {
                    workers,
                    ..BatchConfig::wiforce(workers)
                };
                run_batch(sim, &model, std::slice::from_ref(&spec), &cfg).expect("batch runs")
            };
            let single = run(1);
            let pooled = run(8);
            assert!(
                single.deterministic_eq(&pooled),
                "1-worker and 8-worker runs disagree ({name})"
            );
            assert_eq!(
                single.bursts_injected > 0,
                faults.burst_prob > 0.0,
                "{name}"
            );
            // every stream measured both presses
            for s in &single.streams {
                let presses: Vec<usize> = s.readings.iter().filter_map(|r| r.press).collect();
                assert_eq!(presses, vec![0, 1], "{name}: stream {} schedule", s.name);
            }
            assert_eq!(single.press_readings(), 4, "{name}");
        }
    }

    #[test]
    fn spectral_batch_is_worker_invariant() {
        crate::each_backend(|| {
            // the spectral producer keys every noise lane by (reader key,
            // group, bin, lane), so readings must be bit-identical at any
            // worker count
            let (mut sim, model) = template();
            sim.synth_spectral = Some(true);
            let spec =
                ReaderSpec::frequency_multiplexed(4, 2, 0x5BEC, &sim.group).expect("allocation");
            let run = |workers: usize| {
                run_batch(
                    &sim,
                    &model,
                    std::slice::from_ref(&spec),
                    &BatchConfig::wiforce(workers),
                )
                .expect("batch runs")
            };
            let base = run(1);
            for workers in [2, 8] {
                let other = run(workers);
                assert!(
                    base.deterministic_eq(&other),
                    "spectral batch diverged at workers {workers}"
                );
            }
            assert_eq!(base.press_readings(), 8);
            // and it is a genuinely different noise realization than the
            // time-domain producer — not accidentally routed through it
            let mut sim_td = sim.clone();
            sim_td.synth_spectral = Some(false);
            let legacy = run_batch(
                &sim_td,
                &model,
                std::slice::from_ref(&spec),
                &BatchConfig::wiforce(1),
            )
            .expect("batch runs");
            assert!(!base.deterministic_eq(&legacy));
        });
    }

    #[test]
    fn spectral_batch_line_noise_matches_model() {
        crate::each_backend(|| {
            // the batch source's line noise must meet the same model as the
            // press arm's (`pipeline::tests::spectral_line_noise_moments_and_ks_match_model`):
            // each produced line minus its noiseless twin — a producer built
            // from the same spec, so the same clocks, group keys and press
            // schedule — is circular white Gaussian noise of the modeled
            // per-component σ, over the air and through the Fig. 16 phantom
            let mut phantom = Simulation::paper_default(0.9e9);
            phantom.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 50.0);
            for (label, mut sim) in [
                ("over the air", Simulation::paper_default(2.4e9)),
                ("tissue phantom", phantom),
            ] {
                sim.synth_spectral = Some(true);
                sim.frontend.phase_jitter_rad = 0.0; // isolate additive noise
                sim.frontend.adc_enob_bits = 0; // no quantization term
                let spec = ReaderSpec::frequency_multiplexed(2, 1, 0x5EED, &sim.group)
                    .expect("allocation");
                let cfg = BatchConfig::wiforce(1);
                let mut quiet = sim.clone();
                quiet.frontend.noise_floor = 0.0;
                let mut noisy = ReaderProducer::build(&sim, &spec, &cfg);
                let mut twin = ReaderProducer::build(&quiet, &spec, &cfg);
                assert!(noisy.spectral && twin.spectral, "{label}");
                let sigma_est = noisy.sigma_est;
                let sigmas: Vec<f64> = spec
                    .streams
                    .iter()
                    .flat_map(|s| [s.fs_hz, 4.0 * s.fs_hz])
                    .map(|f| {
                        crate::line_noise_check::modeled_sigma(
                            sigma_est * sigma_est,
                            f,
                            sim.group.snapshot_period_s,
                            sim.group.n_snapshots,
                        )
                    })
                    .collect();
                let width = noisy.cache.statics.len();
                let mut residuals = vec![vec![Vec::new(); width]; sigmas.len()];
                for _ in 0..64 {
                    let (_, got) = noisy.produce_group();
                    let (_, want) = twin.produce_group();
                    for (li, bins) in residuals.iter_mut().enumerate() {
                        for (k, samples) in bins.iter_mut().enumerate() {
                            samples.push(got.row(li)[k] - want.row(li)[k]);
                        }
                    }
                }
                crate::line_noise_check::check_circular_white_noise(label, &residuals, &sigmas);
            }
        });
    }

    #[test]
    fn spectral_batch_jitter_covariance_matches_model() {
        crate::each_backend(|| {
            // the batch source draws its jitter as the press arm does, one J
            // per line: each line minus its noiseless, jitter-free twin must
            // have the cross-subcarrier covariance
            // 2σ_line²·δ_kk′ + meanP[k]·meanP[k′]*·σ_θ²(1−|D̄|²)/N over the air
            // and at the Fig. 16 phantom's SNR. One stream, so a time-domain
            // producer on the same spec gives each group's mean row
            let mut phantom = Simulation::paper_default(0.9e9);
            phantom.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 50.0);
            for (label, mut sim) in [
                ("over the air", Simulation::paper_default(2.4e9)),
                ("tissue phantom", phantom),
            ] {
                sim.synth_spectral = Some(true);
                sim.frontend.adc_enob_bits = 0; // no quantization term
                let spec =
                    ReaderSpec::frequency_multiplexed(1, 1, 0xC0F, &sim.group).expect("allocation");
                let cfg = BatchConfig::wiforce(1);
                let mut quiet = sim.clone();
                quiet.frontend.noise_floor = 0.0;
                quiet.frontend.phase_jitter_rad = 0.0;
                let mut quiet_td = quiet.clone();
                quiet_td.synth_spectral = Some(false);
                let mut noisy = ReaderProducer::build(&sim, &spec, &cfg);
                let mut twin = ReaderProducer::build(&quiet, &spec, &cfg);
                let mut rows = ReaderProducer::build(&quiet_td, &spec, &cfg);
                assert!(noisy.spectral && twin.spectral && !rows.spectral, "{label}");
                let (n, t_snap) = (sim.group.n_snapshots, sim.group.snapshot_period_s);
                let width = noisy.cache.statics.len();
                let draws = 256;
                let mut residuals = vec![vec![Vec::with_capacity(draws); width]; 2];
                let mut mean_p = Vec::with_capacity(draws);
                for _ in 0..draws {
                    let (_, got) = noisy.produce_group();
                    let (_, want) = twin.produce_group();
                    let (_, td) = rows.produce_group();
                    for (li, bins) in residuals.iter_mut().enumerate() {
                        for (k, samples) in bins.iter_mut().enumerate() {
                            samples.push(got.row(li)[k] - want.row(li)[k]);
                        }
                    }
                    let mut mean = vec![Complex::ZERO; width];
                    for row in td.rows() {
                        for (m, &x) in mean.iter_mut().zip(row) {
                            *m += x.scale(1.0 / n as f64);
                        }
                    }
                    mean_p.push(mean);
                }
                let fs = spec.streams[0].fs_hz;
                for (li, f_hz) in [fs, 4.0 * fs].into_iter().enumerate() {
                    use crate::line_noise_check as lnc;
                    let sigma_line = lnc::modeled_sigma(noisy.sigma_est.powi(2), f_hz, t_snap, n);
                    let jitter = sim.frontend.phase_jitter_rad;
                    let var_j = jitter * jitter * lnc::shrink(f_hz, t_snap, n) / n as f64;
                    let power = lnc::check_jitter_covariance(
                        &format!("{label} line {li}"),
                        &residuals[li],
                        &mean_p,
                        sigma_line,
                        var_j,
                    );
                    println!(
                        "{label} line {li}: off-diagonal jitter covariance up to {power:.1} σ"
                    );
                    assert!(label != "over the air" || power > 10.0, "{label}: {power}");
                }
            }
        });
    }

    #[test]
    fn spectral_and_time_domain_batch_keep_long_clocks_on_the_edge_walk() {
        crate::each_backend(|| {
            // a batch stream's tag clock runs on from the start of the run;
            // the group planner folds it back by whole base periods, so a
            // stream already past 2²⁰ periods of its 2fs drive clock (where
            // the edge walks stop and every window would take the exact
            // split) walks the edges as a fresh stream does, on both line
            // sources. Windows that straddle an edge take the exact split on
            // any clock (~10% at the paper grid), so the long stream is held
            // to the fresh stream's share plus 1% of its windows
            let sim = Simulation::paper_default(0.9e9);
            let spec =
                ReaderSpec::frequency_multiplexed(1, 0, 0x10C, &sim.group).expect("allocation");
            let fs = spec.streams[0].fs_hz;
            let groups = 8;
            let windows = (groups * sim.group.n_snapshots) as u64;
            let _gate = crate::TELEMETRY_GATE
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for spectral in [true, false] {
                let mut sim = sim.clone();
                sim.synth_spectral = Some(spectral);
                let exact_from = |start_s: f64| {
                    let mut producer = ReaderProducer::build(&sim, &spec, &BatchConfig::wiforce(1));
                    assert_eq!(producer.spectral, spectral);
                    producer.streams[0].clock.t_tag += start_s;
                    wiforce_telemetry::set_enabled(true);
                    wiforce_telemetry::reset();
                    for _ in 0..groups {
                        producer.produce_group();
                    }
                    let snap = wiforce_telemetry::take();
                    wiforce_telemetry::set_enabled(false);
                    snap.counters["clock.walk_exact_evals"]
                };
                let fresh = exact_from(0.0);
                let long = exact_from(1.5 * 1_048_576.0 / (2.0 * fs));
                println!(
                    "spectral {spectral}: {fresh} (fresh), {long} (long) of {windows} windows exact"
                );
                assert!(
                    fresh * 5 <= windows && long * 100 <= fresh * 100 + windows,
                    "spectral {spectral}: {fresh} (fresh), {long} (long) of {windows} windows exact"
                );
            }
        });
    }

    /// The worst relative distance, per stream, of the spectral
    /// producer's lines from the mean-subtracted DFT of the time-domain
    /// producer's rows at the same bins, over every group of `spec`'s
    /// schedule, both producers built from `sim` (noise, jitter and ADC
    /// off) and the same spec.
    fn spectral_vs_time_domain_dft(sim: &Simulation, spec: &ReaderSpec) -> Vec<f64> {
        let cfg = BatchConfig::wiforce(1);
        let build = |spectral: bool| {
            let mut sim = sim.clone();
            sim.synth_spectral = Some(spectral);
            ReaderProducer::build(&sim, spec, &cfg)
        };
        let (mut lines, mut rows) = (build(true), build(false));
        assert!(lines.spectral && !rows.spectral);
        let group_s = sim.group.n_snapshots as f64 * sim.group.snapshot_period_s;
        let mut worst = vec![0.0f64; spec.streams.len()];
        for _ in 0..cfg.reference_groups + spec.max_presses() {
            let (seq, got) = lines.produce_group();
            let (_, td) = rows.produce_group();
            for (i, st) in spec.streams.iter().enumerate() {
                let group = crate::harmonics::PhaseGroupConfig {
                    line1_hz: st.fs_hz,
                    line2_hz: 4.0 * st.fs_hz,
                    ..sim.group
                };
                let want = crate::harmonics::extract_lines(&group, td.view(), seq as f64 * group_s);
                for (li, want) in [&want.p1, &want.p2].into_iter().enumerate() {
                    let err = crate::line_noise_check::line_rel_err(got.row(2 * i + li), want);
                    worst[i] = worst[i].max(err);
                }
            }
        }
        worst
    }

    #[test]
    fn spectral_batch_lines_match_time_domain_dft() {
        crate::each_backend(|| {
            // the deterministic half of the batch spectral model: noiseless,
            // each stream's lines must equal the mean-subtracted DFT of the
            // time-domain rows the same spec produces — the same window
            // weights, clocks and press schedule. One stream alone is exact
            // to rounding; beside a second tag, the rows also carry that
            // tag's modulation, whose window-averaged harmonics leak into the
            // first tag's bins, which the per-stream lines leave out
            let mut sim = Simulation::paper_default(0.9e9);
            sim.frontend.noise_floor = 0.0;
            sim.frontend.phase_jitter_rad = 0.0;
            sim.frontend.adc_enob_bits = 0;
            let alone = spectral_vs_time_domain_dft(
                &sim,
                &ReaderSpec::frequency_multiplexed(1, 2, 0xD7F, &sim.group).unwrap(),
            );
            let shared = spectral_vs_time_domain_dft(
                &sim,
                &ReaderSpec::frequency_multiplexed(2, 2, 0xD7F, &sim.group).unwrap(),
            );
            println!("one stream: {alone:?}; two streams: {shared:?}");
            assert!(alone[0] < 1e-9, "one stream: relative error {:e}", alone[0]);
            // measured: 3.2e-5 and 6.3e-4 of the line
            for (i, err) in shared.iter().enumerate() {
                assert!(*err < 2e-3, "two streams, stream {i}: leakage {err:e}");
            }
        });
    }

    #[test]
    fn spectral_batch_falls_back_when_ineligible() {
        crate::each_dispatch(|workers| {
            // movers break the static-scene premise of the spectral model;
            // with the flag forced on the producer must silently take the
            // time-domain arm and reproduce it bit for bit
            let (mut sim, model) = template();
            sim.scene
                .movers
                .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
            let spec =
                ReaderSpec::frequency_multiplexed(2, 2, 0xFA11, &sim.group).expect("allocation");
            let run = |spectral: bool| {
                let mut sim_s = sim.clone();
                sim_s.synth_spectral = Some(spectral);
                run_batch(
                    &sim_s,
                    &model,
                    std::slice::from_ref(&spec),
                    &BatchConfig::wiforce(workers),
                )
                .expect("batch runs")
            };
            let off = run(false);
            let on = run(true);
            assert!(
                off.deterministic_eq(&on),
                "ineligible spectral request must fall back to the time-domain arm"
            );
            assert!(off.press_readings() > 0);
        });
    }

    #[test]
    fn spectral_batch_estimates_stay_accurate() {
        crate::each_dispatch(|workers| {
            // direct line synthesis changes the noise realization, not the
            // physics: per-stream force/location estimates must land inside
            // press-separating tolerances (2.4 GHz, where the inversion is
            // well-conditioned; the 900 MHz inversion's skew would fold
            // noise-realization differences into N-scale force spread — see
            // pressed_streams_report_their_own_forces)
            let mut sim = Simulation::paper_default(2.4e9);
            sim.synth_spectral = Some(true);
            let model = Arc::new(sim.vna_calibration().expect("calibration"));
            let grid = 1.0 / (sim.group.n_snapshots as f64 * sim.group.snapshot_period_s);
            let clocks = allocate_frequencies_on_grid(2, 800.0, 2000.0, grid).unwrap();
            let spec = ReaderSpec::new(0x57EC)
                .stream(
                    "hard",
                    clocks[0],
                    vec![PressSpec {
                        force_n: 5.0,
                        location_m: 0.030,
                    }],
                )
                .stream(
                    "soft",
                    clocks[1],
                    vec![PressSpec {
                        force_n: 2.0,
                        location_m: 0.050,
                    }],
                );
            let report = run_batch(
                &sim,
                &model,
                std::slice::from_ref(&spec),
                &BatchConfig::wiforce(workers),
            )
            .expect("batch runs");
            let hard = &report.streams[0].readings[0];
            let soft = &report.streams[1].readings[0];
            assert!(hard.reading.touched && soft.reading.touched);
            assert!(
                (hard.reading.force_n - 5.0).abs() < 2.2,
                "hard force {}",
                hard.reading.force_n
            );
            assert!(
                (soft.reading.force_n - 2.0).abs() < 1.0,
                "soft force {}",
                soft.reading.force_n
            );
            assert!(
                (hard.reading.location_m - 0.030).abs() < 5e-3,
                "hard location {}",
                hard.reading.location_m
            );
            assert!(
                (soft.reading.location_m - 0.050).abs() < 5e-3,
                "soft location {}",
                soft.reading.location_m
            );
        });
    }

    #[test]
    fn pressed_streams_report_their_own_forces() {
        let (sim, model) = template();
        let grid = 1.0 / (sim.group.n_snapshots as f64 * sim.group.snapshot_period_s);
        let clocks = allocate_frequencies_on_grid(2, 800.0, 2000.0, grid).unwrap();
        let spec = ReaderSpec::new(7)
            .stream(
                "hard",
                clocks[0],
                vec![PressSpec {
                    force_n: 5.0,
                    location_m: 0.030,
                }],
            )
            .stream(
                "soft",
                clocks[1],
                vec![PressSpec {
                    force_n: 2.0,
                    location_m: 0.050,
                }],
            );
        let report = run_batch(
            &sim,
            &model,
            std::slice::from_ref(&spec),
            &BatchConfig::wiforce(2),
        )
        .expect("batch runs");
        let hard = &report.streams[0].readings[0];
        let soft = &report.streams[1].readings[0];
        assert!(hard.reading.touched && soft.reading.touched);
        // tolerance covers the 900 MHz inversion's high skew: single-stream
        // presses at 5 N / 30 mm land anywhere in ~4.6–6.9 N across seeds
        // (patch-position jitter through the cubic model), and this test
        // only needs to tell "own press" (5 N) apart from the other
        // stream's (2 N)
        assert!(
            (hard.reading.force_n - 5.0).abs() < 2.2,
            "hard force {}",
            hard.reading.force_n
        );
        assert!(
            (soft.reading.force_n - 2.0).abs() < 1.0,
            "soft force {}",
            soft.reading.force_n
        );
        assert!(
            (hard.reading.location_m - 0.030).abs() < 5e-3,
            "hard location {}",
            hard.reading.location_m
        );
        assert!(
            (soft.reading.location_m - 0.050).abs() < 5e-3,
            "soft location {}",
            soft.reading.location_m
        );
    }

    #[test]
    fn hard_press_does_not_leak_into_quiet_stream() {
        // regression for multi-tag cross-talk: with the integration-window
        // state averaging (and its scratch-buffer fast path) a hard press
        // on one stream must not register on a frequency-multiplexed
        // neighbour that stays untouched
        let (sim, model) = template();
        let grid = 1.0 / (sim.group.n_snapshots as f64 * sim.group.snapshot_period_s);
        let clocks = allocate_frequencies_on_grid(2, 800.0, 2000.0, grid).unwrap();
        let spec = ReaderSpec::new(21)
            .stream(
                "pressed",
                clocks[0],
                vec![PressSpec {
                    force_n: 5.5,
                    location_m: 0.030,
                }],
            )
            .stream(
                "quiet",
                clocks[1],
                vec![PressSpec {
                    force_n: 0.0,
                    location_m: 0.030,
                }],
            );
        let report = run_batch(
            &sim,
            &model,
            std::slice::from_ref(&spec),
            &BatchConfig::wiforce(2),
        )
        .expect("batch runs");
        let pressed = &report.streams[0].readings[0];
        let quiet = &report.streams[1].readings[0];
        assert!(pressed.reading.touched, "pressed stream must detect");
        assert!(
            !quiet.reading.touched,
            "quiet stream caught cross-talk: force {} dphi1 {}",
            quiet.reading.force_n, quiet.reading.dphi1_rad
        );
    }

    #[test]
    fn channel_cache_shares_one_entry_across_readers() {
        crate::each_dispatch(|workers| {
            let (sim, model) = template();
            let spec_a =
                ReaderSpec::frequency_multiplexed(2, 1, 0xA, &sim.group).expect("allocation");
            let spec_b =
                ReaderSpec::frequency_multiplexed(2, 1, 0xB, &sim.group).expect("allocation");
            sim.channel_cache.reset_stats();
            let report = run_batch(
                &sim,
                &model,
                &[spec_a, spec_b],
                &BatchConfig::wiforce(workers),
            )
            .expect("batch runs");
            assert!(report.press_readings() > 0);
            let (hits, misses) = sim.channel_cache.stats();
            assert!(misses <= 1, "one scene, at most one build: {misses}");
            assert!(hits >= 1, "second reader should hit the shared entry");
        });
    }

    #[test]
    fn bounded_queue_never_overflows() {
        let (sim, model) = template();
        let spec = ReaderSpec::frequency_multiplexed(2, 2, 3, &sim.group).expect("allocation");
        let cfg = BatchConfig {
            workers: 2,
            queue_capacity: 1,
            ..BatchConfig::wiforce(2)
        };
        let report =
            run_batch(&sim, &model, std::slice::from_ref(&spec), &cfg).expect("batch runs");
        for s in &report.streams {
            assert!(s.queue_peak <= 1, "stream {} peak {}", s.name, s.queue_peak);
            assert_eq!(s.latencies_ns.len(), 4, "all groups consumed");
        }
        assert_eq!(report.groups_produced, 4);
    }

    #[test]
    fn duplicate_clocks_rejected() {
        let (sim, model) = template();
        let spec =
            ReaderSpec::new(1)
                .stream("a", 1000.0, Vec::new())
                .stream("b", 1000.0, Vec::new());
        let err = run_batch(
            &sim,
            &model,
            std::slice::from_ref(&spec),
            &BatchConfig::wiforce(1),
        )
        .unwrap_err();
        assert!(matches!(err, WiForceError::Config(_)));
    }

    #[test]
    fn surface_spec_splits_presses_across_strips() {
        let surface = ContinuumSurface::new(0.9e9, 3, 0.012).expect("surface");
        let spec = ReaderSpec::for_surface(&surface, &[(4.0, 0.030, 0.012)], 9);
        assert_eq!(spec.streams.len(), 3);
        // press directly over strip 1: full force there, zero elsewhere
        assert_eq!(spec.streams[0].presses[0].force_n, 0.0);
        assert!((spec.streams[1].presses[0].force_n - 4.0).abs() < 1e-9);
        assert_eq!(spec.streams[2].presses[0].force_n, 0.0);
    }
}
