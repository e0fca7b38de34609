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
//! Each reader has exactly one logical producer with its own seeded RNG,
//! so the synthesized group sequence is a pure function of the spec;
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
//! behind [`wiforce_telemetry::enabled`], trace events (spans, flow
//! arrows produce→consume, queue-depth counter tracks) behind
//! [`wiforce_telemetry::trace::trace_enabled`], and the process-wide
//! metrics registry behind [`wiforce_telemetry::metrics::metrics_enabled`].
//! [`run_batch_observed`] additionally folds per-group samples into a
//! [`HealthAggregator`], emitting completed [`StreamWindow`]s to an
//! optional observer callback while the batch runs.

use crate::calib::SensorModel;
use crate::estimator::{EstimatorConfig, ForceEstimator, ForceReading};
use crate::multisensor::ContinuumSurface;
use crate::pipeline::{Simulation, Sounder, TagClock};
use crate::tracking::{TrackedReading, Tracker, TrackerConfig};
use crate::WiForceError;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wiforce_channel::cache::ChannelCache;
use wiforce_channel::faults::{FaultConfig, FaultInjector};
use wiforce_channel::{Frontend, Scene};
use wiforce_dsp::{Complex, SnapshotMatrix};
use wiforce_reader::stream::{GroupItem, TagDemux};
use wiforce_reader::ChannelSounder;
use wiforce_sensor::clock::WindowWalker;
use wiforce_sensor::multi::allocate_frequencies_on_grid;
use wiforce_sensor::tag::ContactState;
use wiforce_sensor::SensorTag;
use wiforce_telemetry::metrics;
use wiforce_telemetry::trace;
use wiforce_telemetry::{
    AggregatorConfig, HealthAggregator, Histogram, StreamHealth, StreamWindow, TelemetrySnapshot,
    WindowSample,
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
/// frequency-multiplexed tag streams, with its own fault regime and RNG
/// seed. Faults on one reader can never touch another reader's streams
/// (independent RNGs), which is what the fault-isolation tests pin down.
#[derive(Debug, Clone)]
pub struct ReaderSpec {
    /// The tag streams riding this reader's snapshots.
    pub streams: Vec<StreamSpec>,
    /// Channel-level fault injection for this reader.
    pub faults: FaultConfig,
    /// Seed of the reader's producer RNG (noise, clutter, clock wander).
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
    /// Integration-window state walk over `clock`'s instants.
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

/// The single logical producer of one reader: owns the RNG and all
/// synthesis state, so the group sequence is deterministic no matter
/// which worker thread runs it. The press-invariant channel state comes
/// from the template simulation's [`wiforce_channel::SharedChannelCache`],
/// so N readers on one scene evaluate the static response exactly once
/// between them.
struct ReaderProducer {
    streams: Vec<StreamSynth>,
    scene: Scene,
    cache: Arc<ChannelCache>,
    sounder: Sounder,
    frontend: Frontend,
    injector: FaultInjector,
    rng: StdRng,
    n_snapshots: usize,
    t_snap: f64,
    t_int: f64,
    wander_ppm: f64,
    reference_groups: usize,
    groups_done: u64,
    truth: Vec<Complex>,
    /// Wide synthesis resolved from the template (flag, else env, else
    /// the startup calibration's verdict).
    wide: bool,
    /// Spectral-domain line synthesis resolved from the template
    /// ([`Simulation::synth_spectral_enabled`]) and this reader's
    /// eligibility (static scene, no mid-stream fault draws, white
    /// estimate noise, mean-subtracted-DFT extraction). Takes priority
    /// over the wide path when engaged.
    spectral: bool,
    /// Per-snapshot, per-subcarrier estimate-noise sigma (per component)
    /// of the sounder — the unitarity input of the spectral path. 0 when
    /// `spectral` is off.
    sigma_est: f64,
    /// Wide-path scratch: row-major truth plane for one snapshot block.
    truth_plane: Vec<Complex>,
    /// Wide-path scratch: pre-drawn sounder normals, `rows ×
    /// seq_normals_per_estimate`, drawn in exact row-path stream order.
    normals: Vec<f64>,
    /// Wide-path scratch: one pre-drawn jitter normal per snapshot
    /// (only drawn when the front end actually jitters).
    jitters: Vec<f64>,
    /// Box–Muller uniform scratch for the pre-draw.
    u1s: Vec<f64>,
    u2s: Vec<f64>,
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
        let cache = if sim.use_channel_cache {
            sim.channel_cache.get_or_build(&sim.scene, &freqs)
        } else {
            Arc::new(ChannelCache::build(&sim.scene, &freqs))
        };
        // spectral-domain line synthesis never materializes snapshots at
        // all: it needs a sounder with a hashable prepared transform, a
        // static scene (mover Doppler is channel-domain and
        // time-varying), no mid-stream fault draws, white sounder
        // estimate noise (for the unitarity argument) and the
        // mean-subtracted-DFT extraction the line model reproduces. It
        // is accuracy-gated, not bit-pinned, so it only engages on the
        // explicit opt-in ([`Simulation::synth_spectral_enabled`]).
        let sigma_est = sim.sounder.estimate_noise_sigma(sim.frontend.noise_floor);
        let spectral = sim.synth_spectral_enabled()
            && sim.group.method == crate::harmonics::ExtractionMethod::MeanSubtractedDft
            && sim.sounder.response_token().is_some()
            && sigma_est.is_some()
            && sim.scene.movers.is_empty()
            && spec.faults.snapshot_drop_prob == 0.0
            && spec.faults.burst_prob == 0.0;
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
                    walk: WindowWalker::default(),
                    tables,
                    n_presses: s.presses.len(),
                }
            })
            .collect();
        let truth = vec![Complex::ZERO; cache.statics.len()];
        ReaderProducer {
            streams,
            scene: sim.scene.clone(),
            cache,
            sounder: sim.sounder,
            frontend: sim.frontend,
            injector: FaultInjector::new(spec.faults),
            rng,
            n_snapshots: sim.group.n_snapshots,
            t_snap: sim.group.snapshot_period_s,
            t_int: sim.sounder.integration_window_s(),
            wander_ppm: sim.tag_clock_wander_ppm,
            reference_groups: cfg.reference_groups,
            groups_done: 0,
            truth,
            wide: sim.synth_wide_enabled(),
            spectral,
            sigma_est: sigma_est.unwrap_or(0.0),
            truth_plane: Vec::new(),
            normals: Vec::new(),
            jitters: Vec::new(),
            u1s: Vec::new(),
            u2s: Vec::new(),
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

    /// Synthesises the next phase group of shared snapshots: one channel
    /// sounding per snapshot serves every tag stream, with the same
    /// drop/burst/front-end discipline as `Simulation::run_snapshots_into`.
    /// Returns the group behind an [`Arc`] whose buffer is recycled once
    /// every consumer has dropped it.
    fn produce_group(&mut self) -> (u64, Arc<SnapshotMatrix>) {
        if self.spectral {
            return self.produce_group_spectral();
        }
        let _span = wiforce_telemetry::span!("batch.produce_group");
        let seq = self.groups_done;
        self.groups_done += 1;
        let n = self.n_snapshots;
        let width = self.cache.statics.len();
        let mut out = self.reclaim_matrix(width);
        out.reserve_rows(n);
        let drift_ppm = self.injector.config().tag_clock_ppm;
        let t_snap = self.t_snap;
        let t_int = self.t_int;
        let wander_ppm = self.wander_ppm;
        let reference_groups = self.reference_groups;
        // faults that draw from (or consult) the RNG mid-stream keep the
        // row path; otherwise snapshots can pre-draw their scalars and
        // plane-synthesize in blocks — bit-identical by construction
        let wide_normals = if self.wide
            && self.injector.config().snapshot_drop_prob == 0.0
            && self.injector.config().burst_prob == 0.0
        {
            self.sounder.seq_normals_per_estimate()
        } else {
            None
        };
        let ReaderProducer {
            streams,
            scene,
            cache,
            sounder,
            frontend,
            injector,
            rng,
            truth,
            truth_plane,
            normals,
            jitters,
            u1s,
            u2s,
            retired,
            ..
        } = self;
        let has_movers = !scene.movers.is_empty();
        for s in streams.iter_mut() {
            s.clock.step_group(wander_ppm, rng);
        }
        if let Some(npr) = wide_normals {
            // wide path: per block, evaluate the truth plane and pre-draw
            // each snapshot's scalars in exact row-path stream order
            // (2·n sounder normals, then the jitter normal iff the front
            // end jitters), then hand the whole block to the sounder's
            // plane kernel and apply the front end per row
            const WIDE_ROWS: usize = 64;
            let noise_std = frontend.noise_floor;
            let mut done = 0;
            while done < n {
                let rows = WIDE_ROWS.min(n - done);
                truth_plane.clear();
                truth_plane.resize(rows * width, Complex::ZERO);
                normals.clear();
                normals.resize(rows * npr, 0.0);
                jitters.clear();
                jitters.resize(rows, 0.0);
                for r in 0..rows {
                    eval_shared_truth(
                        streams,
                        scene,
                        cache,
                        seq,
                        reference_groups,
                        t_snap,
                        t_int,
                        drift_ppm,
                        has_movers,
                        &mut truth_plane[r * width..(r + 1) * width],
                    );
                    wiforce_dsp::rng::draw_box_muller_uniforms(rng, npr, u1s, u2s);
                    wiforce_dsp::fastmath::standard_normals_from_uniforms(
                        u1s,
                        u2s,
                        &mut normals[r * npr..(r + 1) * npr],
                    );
                    if frontend.phase_jitter_rad > 0.0 {
                        jitters[r] = wiforce_dsp::rng::standard_normal(rng);
                    }
                }
                let est = out.extend_rows(rows);
                let ok = sounder.estimate_rows_prenoise_into(truth_plane, noise_std, normals, est);
                assert!(ok, "seq_normals_per_estimate implies a wide rows path");
                for (r, row) in est.chunks_exact_mut(width).enumerate() {
                    frontend.process_with_jitter_normal(jitters[r], row, cache.full_scale);
                }
                done += rows;
            }
        } else {
            for _snap in 0..n {
                eval_shared_truth(
                    streams,
                    scene,
                    cache,
                    seq,
                    reference_groups,
                    t_snap,
                    t_int,
                    drift_ppm,
                    has_movers,
                    truth,
                );
                if injector.drops_snapshot(rng) {
                    if out.n_rows() > 0 {
                        out.push_copy_of_last();
                    } else {
                        out.push_row(truth);
                    }
                } else {
                    let row = out.push_row_default();
                    sounder.estimate_into(truth, frontend.noise_floor, rng, row);
                    injector.maybe_burst(rng, row, cache.direct_amp);
                    frontend.process(rng, row, cache.full_scale);
                }
            }
        }
        let exact_evals: u64 = streams.iter_mut().map(|s| s.walk.take_exact_evals()).sum();
        if wiforce_telemetry::enabled() {
            wiforce_telemetry::counter!("batch.groups_produced", 1);
            wiforce_telemetry::counter!("pipeline.snapshots_total", n as u64);
            wiforce_telemetry::counter!("clock.walk_exact_evals", exact_evals);
            wiforce_telemetry::counter!("faults.snapshots_dropped", 0);
            wiforce_telemetry::counter!("faults.bursts_injected", 0);
        }
        let group = Arc::new(out);
        retired.push(Arc::clone(&group));
        (seq, group)
    }

    /// Spectral-domain twin of [`Self::produce_group`]: produces each
    /// stream's two consumed spectral lines *directly* — no time-domain
    /// snapshots ever exist. The returned matrix has `2·n_streams` rows
    /// (rows `2i`/`2i+1` are stream `i`'s `fs`/`4fs` lines across
    /// subcarriers, phase-referenced to the group's reader start time),
    /// which consumers feed straight to [`ForceEstimator::push_lines`].
    ///
    /// Model per stream line `ω = 2π·f·T` (see
    /// `Simulation::synth_lines_spectral` for the derivation):
    /// deterministic term `Σ_σ gains[k]·table[k][σ]·W_σ(ω)` from one
    /// O(N) walk of the integration-window state weights (statics cancel
    /// exactly under mean subtraction); noise by DFT unitarity as
    /// circular Gaussian of per-component std
    /// `√((σ_est² + step²/12)·(1−|D̄|²)/N)` drawn from a Philox cursor
    /// keyed `(key, group, bin)`; and the per-snapshot front-end phase
    /// jitter drawn once per group and projected onto every line, so the
    /// jitter correlation across streams and lines of the shared
    /// time-domain rows is preserved. One sequential RNG draw per group
    /// (the press key).
    fn produce_group_spectral(&mut self) -> (u64, Arc<SnapshotMatrix>) {
        let _span = wiforce_telemetry::span!("batch.produce_group");
        let seq = self.groups_done;
        self.groups_done += 1;
        let n = self.n_snapshots;
        let width = self.cache.statics.len();
        let drift_ppm = self.injector.config().tag_clock_ppm;
        let t_snap = self.t_snap;
        let t_int = self.t_int;
        let wander_ppm = self.wander_ppm;
        let reference_groups = self.reference_groups;
        let sigma_est = self.sigma_est;
        let mut out = self.reclaim_matrix(width);
        out.reserve_rows(2 * self.streams.len());
        let ReaderProducer {
            streams,
            cache,
            frontend,
            rng,
            normals,
            jitters,
            retired,
            ..
        } = self;
        for s in streams.iter_mut() {
            s.clock.step_group(wander_ppm, rng);
        }
        // one sequential draw per group; every noise lane after it is a
        // pure function of (key, group, bin, lane)
        let key = rng.next_u64();

        // quantization folded in as additive uniform noise of variance
        // step²/12 (valid because the front-end jitter dithers ≳1 LSB)
        let step = if frontend.adc_enob_bits > 0 && cache.full_scale > 0.0 {
            2.0 * cache.full_scale / (1u64 << frontend.adc_enob_bits.min(62)) as f64
        } else {
            0.0
        };
        let var_row = sigma_est * sigma_est + step * step / 12.0;

        // the common-mode jitter sequence θ_s rotates every subcarrier
        // of a snapshot identically in the time domain, so it is drawn
        // once per group and projected onto each consumed line
        let jitter_rad = frontend.phase_jitter_rad;
        jitters.clear();
        jitters.resize(n, 0.0);
        if jitter_rad > 0.0 {
            let mut cursor =
                wiforce_dsp::rng::CounterRng::for_spectral(key, seq as u32, SPECTRAL_JITTER_BIN);
            cursor.fill_normals(jitters);
            for t in jitters.iter_mut() {
                *t *= jitter_rad;
            }
        }
        let tacc: f64 = jitters.iter().sum();

        let inv_n = 1.0 / n as f64;
        let start_s = seq as f64 * n as f64 * t_snap;
        for s in streams.iter_mut() {
            let line_hz = [s.fs_hz, 4.0 * s.fs_hz];
            let rot = [
                Complex::cis(-wiforce_dsp::TAU * line_hz[0] * t_snap),
                Complex::cis(-wiforce_dsp::TAU * line_hz[1] * t_snap),
            ];
            let mut ph = [Complex::ONE; 2];
            let mut e = [[Complex::ZERO; 4]; 2];
            let mut j = [Complex::ZERO; 2];
            let mut counts = [0.0f64; 4];
            for &th in jitters.iter().take(n) {
                let t_tag = s.clock.advance(t_snap, drift_ppm);
                let w = s.walk.weights(&s.tag.clocks, t_tag, t_int);
                for q in 0..4 {
                    if w[q] != 0.0 {
                        e[0][q] += ph[0].scale(w[q]);
                        e[1][q] += ph[1].scale(w[q]);
                        counts[q] += w[q];
                    }
                }
                if jitter_rad > 0.0 {
                    j[0] += ph[0].scale(th);
                    j[1] += ph[1].scale(th);
                }
                ph[0] *= rot[0];
                ph[1] *= rot[1];
            }
            let table = s.table_for_group(seq, reference_groups);
            for li in 0..2 {
                // D̄ = (Σ_σ E_σ)/N exactly (≈0 on the integer line bins)
                let dbar = (e[li][0] + e[li][1] + e[li][2] + e[li][3]).scale(inv_n);
                let wc = [
                    (e[li][0] - dbar.scale(counts[0])).scale(inv_n),
                    (e[li][1] - dbar.scale(counts[1])).scale(inv_n),
                    (e[li][2] - dbar.scale(counts[2])).scale(inv_n),
                    (e[li][3] - dbar.scale(counts[3])).scale(inv_n),
                ];
                let shrink = (1.0 - dbar.norm_sqr()).max(0.0);
                let sigma_line = (var_row * shrink * inv_n).sqrt();
                // mean-subtracted jitter projection J = Σθ·e/N − θ̄·D̄
                let jline = j[li].scale(inv_n) - dbar.scale(tacc * inv_n);
                let reference = Complex::cis(-wiforce_dsp::TAU * line_hz[li] * start_s);
                normals.clear();
                normals.resize(2 * width, 0.0);
                let mut cursor = wiforce_dsp::rng::CounterRng::for_spectral(
                    key,
                    seq as u32,
                    wiforce_dsp::rng::spectral_bin_id(line_hz[li]),
                );
                cursor.fill_normals(normals);
                let row = out.push_row_default();
                for (k, slot) in row.iter_mut().enumerate() {
                    let t = &table[k];
                    let det = cache.gains[k]
                        * (t[0] * wc[0] + t[1] * wc[1] + t[2] * wc[2] + t[3] * wc[3]);
                    let mean_p = cache.statics[k]
                        + cache.gains[k]
                            * (t[0].scale(counts[0] * inv_n)
                                + t[1].scale(counts[1] * inv_n)
                                + t[2].scale(counts[2] * inv_n)
                                + t[3].scale(counts[3] * inv_n));
                    let noise_k =
                        Complex::new(normals[2 * k], normals[2 * k + 1]).scale(sigma_line);
                    *slot = reference * (det + noise_k + Complex::I * mean_p * jline);
                }
            }
        }
        let exact_evals: u64 = streams.iter_mut().map(|s| s.walk.take_exact_evals()).sum();
        if wiforce_telemetry::enabled() {
            wiforce_telemetry::counter!("batch.groups_produced", 1);
            wiforce_telemetry::counter!("batch.spectral_groups", 1);
            wiforce_telemetry::counter!("clock.walk_exact_evals", exact_evals);
            // the group still stands in for n soundings of reader time
            wiforce_telemetry::counter!("pipeline.snapshots_total", n as u64);
            wiforce_telemetry::counter!("faults.snapshots_dropped", 0);
            wiforce_telemetry::counter!("faults.bursts_injected", 0);
        }
        let group = Arc::new(out);
        retired.push(Arc::clone(&group));
        (seq, group)
    }
}

/// Philox "bin" coordinate of the per-group common-mode jitter draw on
/// the spectral path — far outside the centi-hertz ids of any real line
/// ([`wiforce_dsp::rng::spectral_bin_id`] of tag clocks stays under
/// ~1 MHz·100), so the jitter lanes can never collide with line noise.
const SPECTRAL_JITTER_BIN: u32 = u32::MAX;

/// Evaluates the next snapshot's true shared channel into `row`: advance
/// every stream's tag clock, accumulate each tag's state-weighted
/// response onto the static channel, then add any mover Doppler. This is
/// the one truth writer both producer paths use, so the wide block path
/// is arithmetically identical to the row path.
#[allow(clippy::too_many_arguments)]
fn eval_shared_truth(
    streams: &mut [StreamSynth],
    scene: &Scene,
    cache: &ChannelCache,
    seq: u64,
    reference_groups: usize,
    t_snap: f64,
    t_int: f64,
    drift_ppm: f64,
    has_movers: bool,
    row: &mut [Complex],
) {
    let t_reader = streams[0].clock.reader_time_s();
    row.copy_from_slice(&cache.statics);
    for s in streams.iter_mut() {
        let t_tag = s.clock.advance(t_snap, drift_ppm);
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
    if has_movers {
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
        if wiforce_telemetry::enabled() {
            wiforce_telemetry::counter_owned(
                format!("batch.stream.{}.groups", self.name),
                items.len() as u64,
            );
            if let Some(last) = self.readings.last() {
                wiforce_telemetry::gauge_owned(
                    format!("batch.stream.{}.last_force_n", self.name),
                    last.reading.force_n,
                );
            }
            wiforce_telemetry::gauge_owned(
                format!("batch.stream.{}.readings", self.name),
                self.readings.len() as f64,
            );
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
    /// Per flat stream: groups drained into the consumer.
    consumed: Vec<u64>,
    depth_hist: Histogram,
    occupancy_hist: Histogram,
    /// Rolling health windows, fed as consumers drain (present only on
    /// observed runs).
    health: Option<HealthAggregator>,
    prod_telem: Vec<Vec<(u64, TelemetrySnapshot)>>,
    cons_telem: Vec<Vec<(u64, TelemetrySnapshot)>>,
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
}

fn worker_loop(shared: &Shared, observer: Option<&(dyn Fn(&StreamWindow) + Sync)>) {
    let telemetry_on = wiforce_telemetry::enabled();
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
            if telemetry_on {
                wiforce_telemetry::reset();
            }
            let latency_mark = state.latencies_ns.len();
            let failure_mark = state.failures;
            state.consume(&items);
            let snap = telemetry_on.then(wiforce_telemetry::take);
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
                        snr_db: None,
                        queue_occupancy: occupancy,
                        failed,
                    }
                })
                .collect();
            guard = shared.sched.lock().expect("scheduler lock");
            if let Some(snap) = snap {
                guard.cons_telem[flat].push((items[0].seq, snap));
            }
            guard.consumed[flat] += items.len() as u64;
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
            if telemetry_on {
                wiforce_telemetry::reset();
            }
            let (seq, matrix) = prod.produce_group();
            let snap = telemetry_on.then(wiforce_telemetry::take);
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
            dx.register(s.fs_hz);
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
            consumed: vec![0; n_streams],
            depth_hist: Histogram::default(),
            occupancy_hist: Histogram::default(),
            health: health.map(HealthAggregator::new),
            prod_telem: vec![Vec::new(); n_readers],
            cons_telem: vec![Vec::new(); n_streams],
        }),
        cv: Condvar::new(),
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
        snapshots_dropped += p.injector.dropped_count() as u64;
        bursts_injected += p.injector.burst_count() as u64;
    }
    let streams: Vec<StreamResult> = sched
        .consumers
        .iter_mut()
        .enumerate()
        .map(|(flat, c)| {
            let mut result = c.take().expect("consumer parked at shutdown").into_result();
            result.groups_dropped = sched.dropped[flat];
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

    // deterministic telemetry merge: producer snapshots in (reader, seq)
    // order, then consumer snapshots in (stream, first-seq) order —
    // independent of which worker ran what, exactly like `run_sweep`
    let mut merged = TelemetrySnapshot::default();
    for per_reader in &mut sched.prod_telem {
        per_reader.sort_by_key(|(seq, _)| *seq);
        for (_, snap) in per_reader.iter() {
            merged.merge_from(snap);
        }
    }
    for per_stream in &mut sched.cons_telem {
        per_stream.sort_by_key(|(seq, _)| *seq);
        for (_, snap) in per_stream.iter() {
            merged.merge_from(snap);
        }
    }
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
    for (flat, s) in streams.iter().enumerate() {
        // reader-scoped: same-named streams on different readers must
        // not overwrite each other's peaks
        merged.gauges.insert(
            format!("batch.stream.r{}.{}.queue_peak", s.reader, s.name),
            sched.queue_peak[flat] as f64,
        );
    }
    wiforce_telemetry::absorb(&merged);

    // feed the process-wide metrics registry from the already-merged
    // per-stream accounting (deterministic order, no worker-side cost)
    if metrics::metrics_enabled() {
        metrics::counter_add("batch.runs", &[], 1);
        metrics::counter_add("batch.backpressure_stalls", &[], sched.backpressure_events);
        metrics::gauge_set("batch.workers", &[], workers as f64);
        metrics::gauge_set("batch.streams", &[], n_streams as f64);
        let (hits, misses) = sim.channel_cache.stats();
        metrics::counter_add("channel_cache.hits", &[], hits);
        metrics::counter_add("channel_cache.misses", &[], misses);
        let (rhits, rmisses) = sim.channel_cache.response_stats();
        if rhits + rmisses > 0 {
            metrics::gauge_set(
                "response_table.hit_rate",
                &[],
                rhits as f64 / (rhits + rmisses) as f64,
            );
        }
        metrics::gauge_set(
            "pipeline.synth_chunk_rows",
            &[],
            crate::calibrate::synth_chunk_rows() as f64,
        );
        for (flat, s) in streams.iter().enumerate() {
            let reader = s.reader.to_string();
            let labels = [("reader", reader.as_str()), ("stream", s.name.as_str())];
            metrics::counter_add("batch.groups_consumed", &labels, sched.consumed[flat]);
            metrics::counter_add("batch.groups_dropped", &labels, sched.dropped[flat]);
            let presses = s.readings.iter().filter(|r| r.press.is_some()).count();
            metrics::counter_add("batch.presses_served", &labels, presses as u64);
            metrics::counter_add("batch.estimate_failures", &labels, s.failures);
            metrics::gauge_set("batch.queue_peak", &labels, sched.queue_peak[flat] as f64);
            for &ns in &s.latencies_ns {
                metrics::observe("batch.group_latency_ns", &labels, ns as f64);
            }
        }
    }

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
    fn results_are_worker_count_invariant() {
        let (sim, model) = template();
        let spec = ReaderSpec::frequency_multiplexed(2, 2, 0xBEEF, &sim.group).expect("allocation");
        let run = |workers: usize| {
            let cfg = BatchConfig {
                workers,
                ..BatchConfig::wiforce(workers)
            };
            run_batch(&sim, &model, std::slice::from_ref(&spec), &cfg).expect("batch runs")
        };
        let single = run(1);
        let pooled = run(8);
        assert!(
            single.deterministic_eq(&pooled),
            "1-worker and 8-worker runs disagree"
        );
        // every stream measured both presses
        for s in &single.streams {
            let presses: Vec<usize> = s.readings.iter().filter_map(|r| r.press).collect();
            assert_eq!(presses, vec![0, 1], "stream {} schedule", s.name);
        }
        assert_eq!(single.press_readings(), 4);
    }

    #[test]
    fn wide_producer_matches_row_path_bitwise() {
        // the wide block path pre-draws the same scalars the row path
        // draws, in the same stream order, so every reading must be
        // bit-identical with the flag on or off — including with movers
        // (the truth plane is per-row either way) and at any worker count
        let (mut sim, model) = template();
        for movers in [false, true] {
            if movers {
                sim.scene
                    .movers
                    .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
            }
            let spec =
                ReaderSpec::frequency_multiplexed(2, 2, 0xD1CE, &sim.group).expect("allocation");
            let run = |wide: bool, workers: usize| {
                let mut sim_w = sim.clone();
                sim_w.synth_wide = Some(wide);
                run_batch(
                    &sim_w,
                    &model,
                    std::slice::from_ref(&spec),
                    &BatchConfig::wiforce(workers),
                )
                .expect("batch runs")
            };
            let row = run(false, 1);
            let wide1 = run(true, 1);
            let wide8 = run(true, 8);
            assert!(
                row.deterministic_eq(&wide1),
                "wide producer diverged from row path (movers: {movers})"
            );
            assert!(
                wide1.deterministic_eq(&wide8),
                "wide producer lost worker invariance (movers: {movers})"
            );
            assert!(row.press_readings() > 0);
        }
    }

    #[test]
    fn spectral_batch_is_worker_invariant() {
        // the spectral producer draws one press key per group and keys
        // every noise lane by (key, group, bin, lane), so readings must
        // be bit-identical at any worker count
        let (mut sim, model) = template();
        sim.synth_spectral = Some(true);
        let spec = ReaderSpec::frequency_multiplexed(4, 2, 0x5BEC, &sim.group).expect("allocation");
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
        // time-domain row path — not accidentally routed through it
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
    }

    #[test]
    fn spectral_batch_falls_back_when_ineligible() {
        // movers break the static-scene premise of the spectral model;
        // with the flag forced on the producer must silently take the
        // time-domain arm and reproduce it bit for bit
        let (mut sim, model) = template();
        sim.scene
            .movers
            .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
        let spec = ReaderSpec::frequency_multiplexed(2, 2, 0xFA11, &sim.group).expect("allocation");
        let run = |spectral: bool| {
            let mut sim_s = sim.clone();
            sim_s.synth_spectral = Some(spectral);
            run_batch(
                &sim_s,
                &model,
                std::slice::from_ref(&spec),
                &BatchConfig::wiforce(1),
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
    }

    #[test]
    fn spectral_batch_estimates_stay_accurate() {
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
            &BatchConfig::wiforce(2),
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
        let (sim, model) = template();
        let spec_a = ReaderSpec::frequency_multiplexed(2, 1, 0xA, &sim.group).expect("allocation");
        let spec_b = ReaderSpec::frequency_multiplexed(2, 1, 0xB, &sim.group).expect("allocation");
        sim.channel_cache.reset_stats();
        let report = run_batch(&sim, &model, &[spec_a, spec_b], &BatchConfig::wiforce(2))
            .expect("batch runs");
        assert!(report.press_readings() > 0);
        let (hits, misses) = sim.channel_cache.stats();
        assert!(misses <= 1, "one scene, at most one build: {misses}");
        assert!(hits >= 1, "second reader should hit the shared entry");
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
            let peak = report
                .telemetry
                .gauges
                .get(&format!("batch.stream.r{}.{}.queue_peak", s.reader, s.name))
                .copied()
                .expect("queue peak gauge");
            assert!(peak <= 1.0, "stream {} peak {}", s.name, peak);
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
