//! End-to-end simulation pipeline.
//!
//! Binds every substrate together into the paper's measurement loop:
//!
//! ```text
//! press → mechanics → contact patch → tag reflection Γ(f,t)
//!       → scene channel H[k,n] → OFDM sounding (+noise) → front end
//!       → phase groups → differential phases → model inversion → (F, x̂)
//! ```
//!
//! One [`Simulation`] value describes a full experimental setup (scene,
//! tag, reader, front end, mechanics, faults); methods produce calibrated
//! models, single-press measurements, and streaming runs for the paper's
//! experiments. Everything is deterministic given the caller's RNG.

use crate::calib::{CalibrationSample, LocationData, SensorModel};
use crate::diffphase::{differential, Averaging, DiffPhases};
use crate::estimator::ForceReading;
use crate::harmonics::{
    emit_extraction_telemetry, extract_lines_quiet, ExtractionMethod, GroupLines, PhaseGroupConfig,
};
use crate::{parallel, WiForceError};
use rand::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use wiforce_channel::cache::{ChannelCache, SharedChannelCache};
use wiforce_channel::faults::{FaultConfig, FaultInjector};
use wiforce_channel::{Frontend, Scene, StaticMultipath};
use wiforce_dsp::rng::{standard_normal, CounterRng};
use wiforce_dsp::{Complex, SnapshotMatrix, SnapshotView};
use wiforce_mech::contact::ContactSolver;
use wiforce_mech::{AnalyticContactModel, ContactPatch, ForceTransducer, Indenter, SensorMech};
use wiforce_reader::fmcw::FmcwSounder;
use wiforce_reader::sounder::PreparedChannel;
use wiforce_reader::{ChannelSounder, OfdmSounder};
use wiforce_sensor::tag::ContactState;
use wiforce_sensor::SensorTag;
use wiforce_telemetry::trace;

/// Which mechanical contact model drives the simulation.
#[derive(Debug, Clone)]
pub enum Transducer {
    /// Fast phenomenological model (default for Monte-Carlo sweeps).
    Analytic(AnalyticContactModel),
    /// Full finite-difference unilateral-contact solver.
    FiniteDifference(ContactSolver),
}

impl ForceTransducer for Transducer {
    fn length_m(&self) -> f64 {
        match self {
            Transducer::Analytic(m) => m.length_m(),
            Transducer::FiniteDifference(s) => s.length_m(),
        }
    }

    fn contact_patch(&self, force_n: f64, location_m: f64) -> Option<ContactPatch> {
        match self {
            Transducer::Analytic(m) => m.contact_patch(force_n, location_m),
            Transducer::FiniteDifference(s) => s.contact_patch(force_n, location_m),
        }
    }
}

/// The reader waveform driving the channel sounding (the algorithm is
/// waveform-agnostic, paper §3.3).
#[derive(Debug, Clone, Copy)]
pub enum Sounder {
    /// The paper's OFDM reader.
    Ofdm(OfdmSounder),
    /// An FMCW chirp sounder on the same grid.
    Fmcw(FmcwSounder),
}

impl ChannelSounder for Sounder {
    fn frequency_offsets_hz(&self) -> Vec<f64> {
        match self {
            Sounder::Ofdm(s) => s.frequency_offsets_hz(),
            Sounder::Fmcw(s) => s.frequency_offsets_hz(),
        }
    }

    fn snapshot_period_s(&self) -> f64 {
        match self {
            Sounder::Ofdm(s) => s.snapshot_period_s(),
            Sounder::Fmcw(s) => s.snapshot_period_s(),
        }
    }

    fn integration_window_s(&self) -> f64 {
        match self {
            Sounder::Ofdm(s) => s.integration_window_s(),
            Sounder::Fmcw(s) => s.integration_window_s(),
        }
    }

    fn estimate(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<Complex> {
        match self {
            Sounder::Ofdm(s) => s.estimate(true_channel, noise_std, rng),
            Sounder::Fmcw(s) => s.estimate(true_channel, noise_std, rng),
        }
    }

    fn estimate_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        rng: &mut dyn rand::RngCore,
        out: &mut [Complex],
    ) {
        match self {
            Sounder::Ofdm(s) => s.estimate_into(true_channel, noise_std, rng, out),
            Sounder::Fmcw(s) => s.estimate_into(true_channel, noise_std, rng, out),
        }
    }

    fn prepare(&self, true_channel: &[Complex]) -> PreparedChannel {
        match self {
            Sounder::Ofdm(s) => s.prepare(true_channel),
            Sounder::Fmcw(s) => s.prepare(true_channel),
        }
    }

    fn estimate_counter_into(
        &self,
        true_channel: &[Complex],
        noise_std: f64,
        cursor: &mut CounterRng,
        out: &mut [Complex],
    ) {
        match self {
            Sounder::Ofdm(s) => s.estimate_counter_into(true_channel, noise_std, cursor, out),
            Sounder::Fmcw(s) => s.estimate_counter_into(true_channel, noise_std, cursor, out),
        }
    }

    fn estimate_prepared_counter_into(
        &self,
        prepared: &PreparedChannel,
        noise_std: f64,
        cursor: &mut CounterRng,
        out: &mut [Complex],
    ) {
        match self {
            Sounder::Ofdm(s) => s.estimate_prepared_counter_into(prepared, noise_std, cursor, out),
            Sounder::Fmcw(s) => s.estimate_prepared_counter_into(prepared, noise_std, cursor, out),
        }
    }

    fn estimate_prepared_counter_rows_into(
        &self,
        prepared: &[PreparedChannel],
        states: &[u8],
        noise_std: f64,
        key: u64,
        group: u32,
        snap0: u32,
        out: &mut [Complex],
    ) -> Option<u32> {
        match self {
            Sounder::Ofdm(s) => s.estimate_prepared_counter_rows_into(
                prepared, states, noise_std, key, group, snap0, out,
            ),
            Sounder::Fmcw(s) => s.estimate_prepared_counter_rows_into(
                prepared, states, noise_std, key, group, snap0, out,
            ),
        }
    }

    fn response_token(&self) -> Option<u64> {
        match self {
            Sounder::Ofdm(s) => s.response_token(),
            Sounder::Fmcw(s) => s.response_token(),
        }
    }

    fn estimate_noise_sigma(&self, noise_std: f64) -> Option<f64> {
        match self {
            Sounder::Ofdm(s) => s.estimate_noise_sigma(noise_std),
            Sounder::Fmcw(s) => s.estimate_noise_sigma(noise_std),
        }
    }

    fn seq_normals_per_estimate(&self) -> Option<usize> {
        match self {
            Sounder::Ofdm(s) => s.seq_normals_per_estimate(),
            Sounder::Fmcw(s) => s.seq_normals_per_estimate(),
        }
    }

    fn estimate_rows_prenoise_into(
        &self,
        truths: &[Complex],
        noise_std: f64,
        normals: &[f64],
        out: &mut [Complex],
    ) -> bool {
        match self {
            Sounder::Ofdm(s) => s.estimate_rows_prenoise_into(truths, noise_std, normals, out),
            Sounder::Fmcw(s) => s.estimate_rows_prenoise_into(truths, noise_std, normals, out),
        }
    }
}

/// A complete simulated experimental setup.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Over-the-air scene (geometry, clutter, tissue, blockage).
    pub scene: Scene,
    /// The tag under test.
    pub tag: SensorTag,
    /// The reader's channel sounder.
    pub sounder: Sounder,
    /// Receiver front end.
    pub frontend: Frontend,
    /// Fault injection profile.
    pub faults: FaultConfig,
    /// Phase-group processing configuration.
    pub group: PhaseGroupConfig,
    /// Subcarrier-combining scheme.
    pub averaging: Averaging,
    /// Mechanical transducer.
    pub transducer: Transducer,
    /// No-touch reference groups averaged before a measurement.
    pub reference_groups: usize,
    /// Measurement groups averaged per press reading.
    pub measure_groups: usize,
    /// RMS per-group wander of the tag's free-running clock, ppm
    /// (the unsynchronized Arduino of §4.4).
    pub tag_clock_wander_ppm: f64,
    /// Estimate the tag's actual clock offset from the reference groups'
    /// inter-group phase slope and de-rotate all line values accordingly.
    /// The paper reads fixed nominal bins (its lab tag was close enough);
    /// tracking makes the pipeline robust to the free-running tag clock's
    /// constant ppm error (see `faults.tag_clock_ppm` and the
    /// `end_to_end` robustness test). Needs ≥3 reference groups to do
    /// more good than harm.
    pub track_tag_clock: bool,
    /// Per-press RMS jitter of the whole contact patch's position, m —
    /// indenter placement repeatability plus Ecoflex viscoelastic memory
    /// shift where the patch lands press-to-press (the dominant source of
    /// the paper's ~0.6–0.9 mm location error).
    pub patch_position_jitter_m: f64,
    /// Per-press RMS jitter of each patch edge independently, m — contact
    /// hysteresis scatter (visible as spread in the paper's Table 1
    /// measurement clouds); this component perturbs the patch width and
    /// therefore the force estimate.
    pub patch_edge_jitter_m: f64,
    /// Reuse the press-invariant channel state across `run_snapshots`
    /// calls via [`SharedChannelCache`] (on by default). Turning it off
    /// re-evaluates the scene every call — bit-identical output, used by
    /// the cache-equivalence fixture tests.
    pub use_channel_cache: bool,
    /// Worker threads for counter synthesis. `None` defers to
    /// `WIFORCE_SYNTH_WORKERS` / the machine's parallelism (see
    /// [`crate::parallel::default_workers`]); results are bit-identical
    /// at any setting.
    pub synth_workers: Option<usize>,
    /// Structure-of-arrays wide synthesis: whole snapshot chunks go
    /// through one plane-kernel sounder call instead of row-at-a-time
    /// estimation. `None` defers to `WIFORCE_SYNTH_WIDE` (default on);
    /// `Some(false)` pins the row path. The wide path is bitwise
    /// identical to the row path — fixture-pinned — so this flag trades
    /// nothing but speed. Falls back to rows automatically for sounders
    /// without a wide entry (FMCW), moving scenes, and snapshot-drop
    /// fault runs.
    pub synth_wide: Option<bool>,
    /// Spectral-domain direct line synthesis: skip the time-domain
    /// snapshots entirely and generate the harmonic spectral lines at the
    /// consumed bins — the deterministic tag/scene contribution from a
    /// closed-form state walk, the noise from Philox draws keyed
    /// `(press key, group, bin)` (DFT unitarity: white time-domain
    /// estimate noise is white at every line). `None` defers to
    /// `WIFORCE_SYNTH_SPECTRAL` (default off). The spectral path is
    /// *not* bit-identical to the time-domain reference — it is
    /// distribution-equivalent and accuracy-gated by fixtures — so the
    /// counter/wide paths above remain the bit-pinned reference. Falls
    /// back to time-domain synthesis automatically for configurations
    /// outside its validity envelope (see `Simulation::spectral_eligible`).
    pub synth_spectral: Option<bool>,
    /// The shared cache slot. `Clone` shares it, so cloned simulations
    /// (batch workers) reuse one entry; fingerprint checks rebuild it on
    /// any scene mutation.
    pub channel_cache: SharedChannelCache,
}

impl Simulation {
    /// The paper's default setup at the given carrier (0.9 or 2.4 GHz):
    /// Fig. 12 geometry with office clutter, USRP front end, prototype tag
    /// at `fs` = 1 kHz, analytic mechanics with the actuator tip.
    pub fn paper_default(carrier_hz: f64) -> Self {
        let mut scene = Scene::fig12(carrier_hz);
        // deterministic office clutter, ~30% of the direct amplitude
        let mut clutter_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xC1_C1);
        let direct_amp = scene.direct_response(carrier_hz).abs();
        scene.multipath = StaticMultipath::office(&mut clutter_rng, direct_amp);
        let fs = 1000.0;
        Simulation {
            scene,
            tag: SensorTag::wiforce_prototype(fs),
            sounder: Sounder::Ofdm(OfdmSounder::wiforce()),
            frontend: Frontend::usrp_n210(),
            faults: FaultConfig::none(),
            group: PhaseGroupConfig::wiforce(fs),
            averaging: Averaging::Coherent,
            transducer: Transducer::Analytic(AnalyticContactModel::new(
                SensorMech::wiforce_prototype(),
                Indenter::actuator_tip(),
            )),
            reference_groups: 2,
            measure_groups: 2,
            tag_clock_wander_ppm: 1.0,
            track_tag_clock: false,
            patch_position_jitter_m: 1.0e-3,
            patch_edge_jitter_m: 0.25e-3,
            use_channel_cache: true,
            synth_workers: None,
            synth_wide: None,
            synth_spectral: None,
            channel_cache: SharedChannelCache::new(),
        }
    }

    /// Resolves the wide-synthesis flag: explicit field, else the
    /// `WIFORCE_SYNTH_WIDE` environment toggle (read once), else the
    /// one-shot startup calibration's verdict — wide defaults on only
    /// when it actually beats the row path on this machine
    /// ([`crate::calibrate::calibration`]). Either answer is
    /// bit-identical; the flag trades nothing but speed.
    pub fn synth_wide_enabled(&self) -> bool {
        static ENV: OnceLock<Option<bool>> = OnceLock::new();
        self.synth_wide.unwrap_or_else(|| {
            ENV.get_or_init(|| {
                std::env::var("WIFORCE_SYNTH_WIDE")
                    .ok()
                    .map(|v| !(v == "0" || v.eq_ignore_ascii_case("off")))
            })
            .unwrap_or_else(|| crate::calibrate::calibration().wide_default)
        })
    }

    /// Resolves the spectral-synthesis flag: explicit field, else the
    /// `WIFORCE_SYNTH_SPECTRAL` environment toggle (read once), else off.
    /// Unlike the wide flag this is an accuracy-class switch, not a pure
    /// speed knob: the spectral path is distribution-equivalent (fixture
    /// gated), not bit-identical, so it never defaults on.
    pub fn synth_spectral_enabled(&self) -> bool {
        static ENV: OnceLock<bool> = OnceLock::new();
        self.synth_spectral.unwrap_or_else(|| {
            *ENV.get_or_init(|| {
                std::env::var("WIFORCE_SYNTH_SPECTRAL")
                    .map(|v| !(v == "0" || v.eq_ignore_ascii_case("off")))
                    .unwrap_or(false)
            })
        })
    }

    /// Whether this configuration is inside the spectral path's validity
    /// envelope. The closed-form line model needs: the mean-subtracted
    /// DFT extraction (the model *is* that transform), a static scene
    /// (movers make the per-snapshot truth time-varying), no
    /// snapshot-drop or burst faults (both act on whole time-domain
    /// rows), a sounder with white uniform estimate noise
    /// ([`ChannelSounder::estimate_noise_sigma`]), and a hashable sounder
    /// configuration for the per-bin response memo. Anything else falls
    /// back to the time-domain counter path.
    pub fn spectral_eligible(&self) -> bool {
        self.group.method == ExtractionMethod::MeanSubtractedDft
            && self.scene.movers.is_empty()
            && self.faults.snapshot_drop_prob == 0.0
            && self.faults.burst_prob == 0.0
            && self.sounder.response_token().is_some()
            && self
                .sounder
                .estimate_noise_sigma(self.frontend.noise_floor)
                .is_some()
    }

    /// Same setup with the finite-difference mechanics (slower, used for
    /// cross-validation experiments).
    pub fn with_fd_mechanics(mut self) -> Self {
        self.transducer = Transducer::FiniteDifference(ContactSolver::new(
            SensorMech::wiforce_prototype(),
            Indenter::actuator_tip(),
        ));
        self
    }

    /// Swaps in the FMCW sounder (waveform-agnostic ablation). The FMCW
    /// sweep period differs slightly from the OFDM frame, so the phase
    /// group is re-derived to keep the lines on integer bins.
    pub fn with_fmcw_sounder(mut self) -> Self {
        let fmcw = FmcwSounder::matched_to_ofdm();
        self.sounder = Sounder::Fmcw(fmcw);
        self.group.snapshot_period_s = fmcw.snapshot_period_s();
        self
    }

    /// Replaces the indenter on the analytic transducer (e.g. fingertip).
    pub fn with_indenter(mut self, indenter: Indenter) -> Self {
        self.transducer = Transducer::Analytic(AnalyticContactModel::new(
            SensorMech::wiforce_prototype(),
            indenter,
        ));
        self
    }

    /// Contact state for a press, or `None` below the touch threshold.
    pub fn contact_for(&self, force_n: f64, location_m: f64) -> Option<ContactState> {
        self.transducer
            .contact_patch(force_n, location_m)
            .map(|p| ContactState::from_patch(&p, self.transducer.length_m()))
    }

    /// Emits the channel cache's cumulative response-table hit rate and
    /// the calibrated SoA chunk width as gauges, for health reports.
    ///
    /// Deliberately *not* called from the per-press hot path: the memo's
    /// hit/miss counters are shared across workers and build races count
    /// as extra misses, so a mid-run reading differs by scheduling
    /// accident and would break telemetry-merge determinism across
    /// thread counts. Drivers call this once after a run completes; the
    /// hit-rate key is a timing-class field in artifact diffs.
    pub fn emit_cache_gauges(&self) {
        let (h, m) = self.channel_cache.response_stats();
        if h + m > 0 {
            wiforce_telemetry::gauge!(
                "pipeline.response_table_hit_rate",
                h as f64 / (h + m) as f64
            );
        }
        wiforce_telemetry::gauge!(
            "pipeline.synth_chunk_rows",
            crate::calibrate::synth_chunk_rows() as f64
        );
    }

    /// Absolute subcarrier frequencies, Hz.
    pub fn subcarrier_freqs_hz(&self) -> Vec<f64> {
        self.sounder
            .frequency_offsets_hz()
            .into_iter()
            .map(|df| self.scene.carrier_hz + df)
            .collect()
    }

    /// Memo token of the tag's reflection network: its electrical
    /// parameters ([`SensorTag::electrical_words`]), clocks excluded.
    fn tag_token(&self) -> u64 {
        wiforce_channel::cache::config_token(self.tag.electrical_words())
    }

    /// The tag's antenna reflection per subcarrier of `cache`'s grid for
    /// each of the four switch-state combinations (index `on1 | on2 << 1`),
    /// for a fixed contact. The clock pair then selects a column per
    /// snapshot — this turns the per-snapshot tag evaluation into a table
    /// lookup.
    ///
    /// Both come from the tag's [`wiforce_sensor::ResponsePlan`] on the
    /// grid, memoized on the cache entry's response memo under
    /// [`Self::tag_token`]: the untouched table is part of the plan, and a
    /// contact table costs two stub reflections per subcarrier. Contact
    /// tables are never memoized — a jittered contact never recurs.
    pub(crate) fn tag_response_table(
        &self,
        cache: &ChannelCache,
        contact: Option<&ContactState>,
    ) -> Arc<Vec<[Complex; 4]>> {
        cache
            .response_tables(self.tag_token(), EM_PLAN_SALT, || {
                self.tag.response_plan(&cache.freqs_hz)
            })
            .table(contact)
    }

    /// Builds the four per-tag-state prepared channels for a static scene.
    ///
    /// The untouched table (`untouched`) is press-invariant, so its
    /// prepared states are memoized under [`Self::tag_token`]: for
    /// sounders whose preparation is a pure function of hashable
    /// configuration ([`ChannelSounder::response_token`] returns `Some`)
    /// the whole `Vec<PreparedChannel>` sits in the channel-cache entry's
    /// response memo, so every reference press skips both the truth-plane
    /// evaluation and the per-state `prepare` (symbol multiply + IFFT);
    /// other sounders keep their truth planes on the one-entry plane
    /// memo. A contact table's states are built inline and never
    /// memoized. Cached and rebuilt states are bit-identical — `prepare`
    /// is deterministic — which the cache-equivalence fixtures pin.
    fn prepare_states(
        &self,
        cache: &ChannelCache,
        table: &[[Complex; 4]],
        untouched: bool,
    ) -> Arc<Vec<PreparedChannel>> {
        let _s = wiforce_telemetry::span!("pipeline.prepare_states");
        let n_cols = cache.statics.len();
        let planes = || {
            let mut planes = vec![Complex::ZERO; 4 * n_cols];
            for state in 0..4 {
                wiforce_dsp::kernels::synth_truth(
                    &mut planes[state * n_cols..(state + 1) * n_cols],
                    &cache.statics,
                    &cache.gains,
                    table,
                    state,
                );
            }
            planes
        };
        let prepare = |planes: &[Complex]| -> Vec<PreparedChannel> {
            (0..4)
                .map(|state| {
                    self.sounder
                        .prepare(&planes[state * n_cols..(state + 1) * n_cols])
                })
                .collect()
        };
        if !untouched {
            return Arc::new(prepare(&planes()));
        }
        let token = self.tag_token();
        match self.sounder.response_token() {
            Some(cfg_token) => cache.response_tables(token, cfg_token, || prepare(&planes())),
            None => Arc::new(prepare(&cache.state_planes(token, 4, planes).planes)),
        }
    }

    /// Simulates `n_groups` worth of raw channel-estimate snapshots for a
    /// fixed contact state — the stream a real reader would hand to
    /// [`crate::ForceEstimator`].
    ///
    /// `clock_state` carries the tag's free-running clock phase across
    /// calls (it keeps running between reference and measurement), and
    /// `noise` the counter-addressed noise stream: every draw comes from
    /// the splittable Philox stream keyed by the press key, so snapshot
    /// groups synthesize in parallel on the worker pool and the output is
    /// bit-identical at any worker count (and under
    /// `WIFORCE_FORCE_SCALAR`). Successive calls on one `noise` continue
    /// its group index, so a stream built call by call never repeats a
    /// noise realization.
    pub fn run_snapshots(
        &self,
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
    ) -> SnapshotMatrix {
        let mut out = SnapshotMatrix::default();
        self.run_snapshots_into(contact, n_groups, clock_state, noise, &mut out);
        out
    }

    /// Like [`Self::run_snapshots`], but appends the snapshots to a
    /// caller-provided matrix, reusing its capacity — the streaming path.
    pub fn run_snapshots_into(
        &self,
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
        out: &mut SnapshotMatrix,
    ) {
        let freqs = self.subcarrier_freqs_hz();
        self.synth_counter(&freqs, contact, n_groups, clock_state, noise, out, None);
    }

    /// Simulates `n_groups` phase groups for a fixed contact state,
    /// returning the extracted line values per group. Each snapshot group
    /// is handed to line extraction by whichever worker finishes it,
    /// while other groups are still synthesizing.
    pub fn run_groups(
        &self,
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
    ) -> Vec<GroupLines> {
        let freqs = self.subcarrier_freqs_hz();
        let spec = FusedExtraction {
            cfg: &self.group,
            floor_cfg: None,
            first_start: clock_state.reader_time_s(),
        };
        let mut scratch = SnapshotMatrix::default();
        self.synth_counter(
            &freqs,
            contact,
            n_groups,
            clock_state,
            noise,
            &mut scratch,
            Some(&spec),
        )
        .0
    }

    /// Channel set-up and EM transduction shared by both line sources:
    /// the scene's press-invariant channel-cache entry on the grid
    /// `freqs`, and the tag's per-state reflection table for `contact`.
    fn channel_and_table(
        &self,
        freqs: &[f64],
        contact: Option<&ContactState>,
    ) -> (Arc<ChannelCache>, Arc<Vec<[Complex; 4]>>) {
        let cache = {
            let _s = wiforce_telemetry::span!("pipeline.channel_setup");
            if self.use_channel_cache {
                self.channel_cache.get_or_build(&self.scene, freqs)
            } else {
                Arc::new(ChannelCache::build(&self.scene, freqs))
            }
        };
        let table = {
            let _s = wiforce_telemetry::span!("pipeline.em_transduction");
            self.tag_response_table(&cache, contact)
        };
        (cache, table)
    }

    /// Walks the tag clock through `n_groups` phase groups, drawing each
    /// group's wander from the counter stream, and hands each group a
    /// closed-form local clock: snapshot `s` of a group reads
    /// `t_tag0 + s·dt_eff`, where `dt_eff` folds the group's wander and
    /// the constant drift fault. The walk is inherently sequential but
    /// cheap (one wander draw per group), so it runs on the calling
    /// thread before any group is synthesized.
    fn plan_groups(
        &self,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
    ) -> Vec<GroupPlan> {
        let n = self.group.n_snapshots as f64;
        let t_snap = self.group.snapshot_period_s;
        (0..n_groups)
            .map(|_| {
                let group_id = noise.next_group;
                noise.next_group = noise.next_group.wrapping_add(1);
                let mut group_rng = CounterRng::for_group(noise.key, group_id);
                clock_state.step_group(self.tag_clock_wander_ppm, &mut group_rng);
                let dt_eff =
                    t_snap * (1.0 + (clock_state.wander_ppm + self.faults.tag_clock_ppm) * 1e-6);
                let plan = GroupPlan {
                    group_id,
                    t_tag0: clock_state.t_tag,
                    t_reader0: clock_state.t_reader,
                    dt_eff,
                };
                clock_state.t_tag += n * dt_eff;
                clock_state.t_reader += n * t_snap;
                plan
            })
            .collect()
    }

    /// The parallel counter-addressed synthesis engine behind
    /// [`Self::run_snapshots_into`] and the fused group path.
    ///
    /// The calling thread lays out per-group plans ([`Self::plan_groups`]),
    /// then the press becomes a bag of disjoint row-range chunks over the
    /// preallocated region of `out`, executed by [`parallel::run_chunks`].
    /// Each snapshot draws its noise from
    /// [`CounterRng::for_snapshot`]`(key, group, snapshot)` in a fixed
    /// order (drop decision → sounder noise → burst → front end), so the
    /// result is a pure function of the press key regardless of worker
    /// count or chunk interleaving.
    ///
    /// With `fused`, the worker that completes a group's last chunk runs
    /// line extraction on it immediately ([`extract_lines_quiet`] — no
    /// telemetry from worker threads); the floor probe rides on group 0.
    /// All telemetry is re-emitted deterministically on the calling
    /// thread after the join.
    #[allow(clippy::too_many_arguments)]
    fn synth_counter(
        &self,
        freqs: &[f64],
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
        out: &mut SnapshotMatrix,
        fused: Option<&FusedExtraction<'_>>,
    ) -> (Vec<GroupLines>, Option<GroupLines>) {
        let _span = wiforce_telemetry::span!("pipeline.run_snapshots");
        let telem = wiforce_telemetry::enabled();
        use wiforce_telemetry::fastclock;
        let (cache, table) = self.channel_and_table(freqs, contact);
        let statics = &cache.statics;
        let gains = &cache.gains;
        let direct_amp = cache.direct_amp;
        let full_scale = cache.full_scale;
        let n_cols = statics.len();
        let n = self.group.n_snapshots;
        let t_snap = self.group.snapshot_period_s;
        let has_movers = !self.scene.movers.is_empty();
        let key = noise.key;

        let prepared: Option<Arc<Vec<PreparedChannel>>> =
            (!has_movers).then(|| self.prepare_states(&cache, &table, contact.is_none()));
        let plans = self.plan_groups(n_groups, clock_state, noise);

        out.set_width(n_cols);
        if n_groups == 0 || n == 0 {
            return (Vec::new(), None);
        }
        // snapshot drops hold the previous *row*, so a group with drops
        // enabled must synthesize in order as one chunk (the fallback for
        // a drop on a group's first snapshot is the noiseless truth — the
        // boundary is per group, which keeps groups independent)
        // chunk width comes from the one-shot startup calibration
        // (`WIFORCE_SYNTH_CHUNK_ROWS` overrides); any width produces the
        // same bits because every draw is counter-addressed
        let chunk_cap = crate::calibrate::synth_chunk_rows();
        let chunk_rows = if self.faults.snapshot_drop_prob > 0.0 {
            n
        } else {
            chunk_cap.min(n)
        };
        let chunks_per_group = n.div_ceil(chunk_rows);
        let n_chunks = n_groups * chunks_per_group;
        let region = out.extend_rows(n_groups * n);
        let region_ptr = region.as_mut_ptr() as usize;

        let group_s = n as f64 * t_snap;
        let line_slots: Vec<OnceLock<GroupLines>> =
            (0..n_groups).map(|_| OnceLock::new()).collect();
        let floor_slot: OnceLock<GroupLines> = OnceLock::new();
        let chunks_left: Vec<AtomicUsize> = (0..n_groups)
            .map(|_| AtomicUsize::new(chunks_per_group))
            .collect();
        let (eval_ticks, eval_n) = (AtomicU64::new(0), AtomicU64::new(0));
        let (sounder_ticks, sounder_n) = (AtomicU64::new(0), AtomicU64::new(0));
        let (frontend_ticks, frontend_n) = (AtomicU64::new(0), AtomicU64::new(0));
        let (extract_ticks, extract_n) = (AtomicU64::new(0), AtomicU64::new(0));
        let exact_evals = AtomicU64::new(0);
        let dropped = AtomicUsize::new(0);
        let bursts = AtomicUsize::new(0);

        // wide (plane) synthesis eligibility: one sounder call fills a
        // whole chunk of snapshot rows, so it needs the prepared
        // static-scene fast path and drop-free rows (a drop holds the
        // previous row, serializing the group). Wide chunks are at most
        // CHUNK_ROWS, so the per-chunk state table lives on the stack —
        // the wide path adds no per-chunk heap traffic.
        let wide = self.synth_wide_enabled()
            && prepared.is_some()
            && self.faults.snapshot_drop_prob == 0.0;

        // Synthesizes rows [s0, s1) of group `g` straight into the output
        // region — one chunk of the work bag. Local tallies flush to the
        // shared atomics per call.
        let synth_rows = |g: usize, s0: usize, s1: usize| {
            let plan = &plans[g];
            let rows = s1 - s0;
            // Safety: callers hand each invocation a row range no other
            // in-flight invocation overlaps — chunk ranges are disjoint by
            // construction — and the region outlives the run_chunks call.
            let base = unsafe {
                std::slice::from_raw_parts_mut(
                    (region_ptr as *mut Complex).add((g * n + s0) * n_cols),
                    rows * n_cols,
                )
            };
            let (mut l_eval_t, mut l_eval_n) = (0_u64, 0_u64);
            let (mut l_sounder_t, mut l_sounder_n) = (0_u64, 0_u64);
            let (mut l_frontend_t, mut l_frontend_n) = (0_u64, 0_u64);
            let (mut l_dropped, mut l_bursts) = (0_usize, 0_usize);
            let mut l_exact = 0_u64;
            let mut wide_done = false;
            if wide && rows <= chunk_cap {
                if let Some(states) = prepared.as_deref() {
                    // the tag-state walk is the whole channel evaluation
                    // on the prepared path: an O(1) table index per row
                    let mut st = [0u8; crate::calibrate::MAX_CHUNK_ROWS];
                    let mut runs = self.tag.clocks.runs(plan.t_tag0, plan.dt_eff, s0..s1);
                    let mut filled = 0;
                    for (state, len) in runs.by_ref() {
                        st[filled..filled + len].fill(state as u8);
                        filled += len;
                    }
                    l_exact += runs.exact_evals();
                    let t1 = telem.then(fastclock::ticks);
                    if let Some(lanes) = self.sounder.estimate_prepared_counter_rows_into(
                        states,
                        &st[..rows],
                        self.frontend.noise_floor,
                        key,
                        plan.group_id,
                        s0 as u32,
                        base,
                    ) {
                        l_eval_n += rows as u64;
                        let t2 = telem.then(fastclock::ticks);
                        if let (Some(a), Some(b)) = (t1, t2) {
                            l_sounder_t += b.wrapping_sub(a);
                            l_sounder_n += rows as u64;
                        }
                        for s in s0..s1 {
                            let row_off = (s - s0) * n_cols;
                            let row = &mut base[row_off..row_off + n_cols];
                            // a fresh cursor skipped past the sounder's
                            // lanes is state-identical to the cursor the
                            // row path hands the fault/front-end stages,
                            // so their draws stay bit-equal
                            let mut cursor = CounterRng::for_snapshot(key, plan.group_id, s as u32);
                            cursor.skip_normals(lanes as usize);
                            if self.faults.apply_burst(&mut cursor, row, direct_amp) {
                                l_bursts += 1;
                            }
                            self.frontend.process(&mut cursor, row, full_scale);
                        }
                        if let Some(b) = t2 {
                            l_frontend_t += fastclock::ticks().wrapping_sub(b);
                            l_frontend_n += rows as u64;
                        }
                        wide_done = true;
                    }
                }
            }
            let mut truth = if has_movers && !wide_done {
                vec![Complex::ZERO; n_cols]
            } else {
                Vec::new()
            };
            // row-at-a-time reference path (and the fallback for sounders
            // without a wide entry): empty range when the plane call above
            // already synthesized the chunk
            let row_range = if wide_done { s0..s0 } else { s0..s1 };
            let mut runs = self
                .tag
                .clocks
                .runs(plan.t_tag0, plan.dt_eff, row_range.clone());
            let states = runs
                .by_ref()
                .flat_map(|(state, len)| std::iter::repeat_n(state, len));
            for (s, state_idx) in row_range.zip(states) {
                let row_off = (s - s0) * n_cols;
                let t_reader = plan.t_reader0 + s as f64 * t_snap;
                let mut cursor = CounterRng::for_snapshot(key, plan.group_id, s as u32);
                match &prepared {
                    Some(_) => l_eval_n += 1,
                    None => {
                        let t0 = telem.then(fastclock::ticks);
                        for (k, h) in truth.iter_mut().enumerate() {
                            *h = statics[k]
                                + gains[k] * table[k][state_idx]
                                + self.scene.dynamic_response(freqs[k], t_reader);
                        }
                        if let Some(t) = t0 {
                            l_eval_t += fastclock::ticks().wrapping_sub(t);
                            l_eval_n += 1;
                        }
                    }
                }
                if self.faults.decide_drop(&mut cursor) {
                    l_dropped += 1;
                    if s > s0 {
                        base.copy_within((row_off - n_cols)..row_off, row_off);
                    } else {
                        let truth_row: &[Complex] = match &prepared {
                            Some(states) => &states[state_idx].truth,
                            None => &truth,
                        };
                        base[row_off..row_off + n_cols].copy_from_slice(truth_row);
                    }
                    continue;
                }
                let row = &mut base[row_off..row_off + n_cols];
                let t1 = telem.then(fastclock::ticks);
                match &prepared {
                    Some(states) => self.sounder.estimate_prepared_counter_into(
                        &states[state_idx],
                        self.frontend.noise_floor,
                        &mut cursor,
                        row,
                    ),
                    None => self.sounder.estimate_counter_into(
                        &truth,
                        self.frontend.noise_floor,
                        &mut cursor,
                        row,
                    ),
                }
                let t2 = telem.then(fastclock::ticks);
                if let (Some(a), Some(b)) = (t1, t2) {
                    l_sounder_t += b.wrapping_sub(a);
                    l_sounder_n += 1;
                }
                if self.faults.apply_burst(&mut cursor, row, direct_amp) {
                    l_bursts += 1;
                }
                self.frontend.process(&mut cursor, row, full_scale);
                if let Some(b) = t2 {
                    l_frontend_t += fastclock::ticks().wrapping_sub(b);
                    l_frontend_n += 1;
                }
            }
            l_exact += runs.exact_evals();
            exact_evals.fetch_add(l_exact, Ordering::Relaxed);
            eval_ticks.fetch_add(l_eval_t, Ordering::Relaxed);
            eval_n.fetch_add(l_eval_n, Ordering::Relaxed);
            sounder_ticks.fetch_add(l_sounder_t, Ordering::Relaxed);
            sounder_n.fetch_add(l_sounder_n, Ordering::Relaxed);
            frontend_ticks.fetch_add(l_frontend_t, Ordering::Relaxed);
            frontend_n.fetch_add(l_frontend_n, Ordering::Relaxed);
            if l_dropped > 0 {
                dropped.fetch_add(l_dropped, Ordering::Relaxed);
            }
            if l_bursts > 0 {
                bursts.fetch_add(l_bursts, Ordering::Relaxed);
            }
        };

        let workers = self.synth_workers.unwrap_or_else(parallel::default_workers);

        let worker = |ci: usize| {
            let g = ci / chunks_per_group;
            let c = ci % chunks_per_group;
            let s0 = c * chunk_rows;
            let s1 = ((c + 1) * chunk_rows).min(n);
            synth_rows(g, s0, s1);
            let plan = &plans[g];
            // fused streaming: the worker that retires a group's last
            // chunk extracts its lines right away (AcqRel pairs the row
            // writes of every sibling chunk with this read)
            if let Some(spec) = fused {
                // flow arrows tie every synthesis chunk to the extraction
                // it feeds; ids are (group_id, chunk) so arrows from
                // different groups never merge
                let flow_id = ((plan.group_id as u64) << 16) | c as u64;
                trace::flow_start("synth.handoff", flow_id);
                if chunks_left[g].fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _extract = trace::span_arg("spectrum.extract", plan.group_id as u64);
                    if trace::trace_enabled() {
                        for cc in 0..chunks_per_group {
                            let id = ((plan.group_id as u64) << 16) | cc as u64;
                            trace::flow_end("synth.handoff", id);
                        }
                    }
                    let t0 = telem.then(fastclock::ticks);
                    // Safety: all chunks of group g have finished writing.
                    let rows = unsafe {
                        std::slice::from_raw_parts(
                            (region_ptr as *const Complex).add(g * n * n_cols),
                            n * n_cols,
                        )
                    };
                    let start_s = spec.first_start + g as f64 * group_s;
                    let lines = extract_lines_quiet(
                        spec.cfg,
                        SnapshotView::from_flat(n_cols, rows),
                        start_s,
                    );
                    let mut extracted = 1;
                    if g == 0 {
                        if let Some(fc) = spec.floor_cfg {
                            let fl = extract_lines_quiet(
                                fc,
                                SnapshotView::from_flat(n_cols, rows),
                                spec.first_start,
                            );
                            let _ = floor_slot.set(fl);
                            extracted += 1;
                        }
                    }
                    let _ = line_slots[g].set(lines);
                    if let Some(t) = t0 {
                        extract_ticks
                            .fetch_add(fastclock::ticks().wrapping_sub(t), Ordering::Relaxed);
                        extract_n.fetch_add(extracted, Ordering::Relaxed);
                    }
                }
            }
        };
        parallel::run_chunks(workers, n_chunks, &worker);

        // fold fault tallies through an injector so the fault counters are
        // declared even on clean runs (an add of 0 never double-counts)
        let total_dropped = dropped.into_inner();
        let mut injector = FaultInjector::new(self.faults);
        injector.add_external(total_dropped, bursts.into_inner());

        let lines: Vec<GroupLines> = if fused.is_some() {
            line_slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("fused extraction ran for every group")
                })
                .collect()
        } else {
            Vec::new()
        };
        let floor = floor_slot.into_inner();

        if telem {
            let ns_per_tick = fastclock::ns_per_tick();
            wiforce_telemetry::span_bulk(
                "pipeline.channel_eval",
                eval_n.into_inner(),
                eval_ticks.into_inner() as f64 * ns_per_tick,
            );
            wiforce_telemetry::span_bulk(
                "pipeline.sounder",
                sounder_n.into_inner(),
                sounder_ticks.into_inner() as f64 * ns_per_tick,
            );
            wiforce_telemetry::span_bulk(
                "pipeline.frontend",
                frontend_n.into_inner(),
                frontend_ticks.into_inner() as f64 * ns_per_tick,
            );
            let total = (n_groups * n) as u64;
            wiforce_telemetry::counter!("pipeline.snapshots_total", total);
            wiforce_telemetry::counter!("clock.walk_exact_evals", exact_evals.into_inner());
            let yielded = total.saturating_sub(total_dropped as u64);
            wiforce_telemetry::gauge!(
                "pipeline.snapshot_yield",
                if total == 0 {
                    1.0
                } else {
                    yielded as f64 / total as f64
                }
            );
            // deterministic re-emission of the extraction telemetry the
            // workers withheld: one bulk span for the thread time, then
            // the per-group counters/gauges in group order (floor last)
            if let Some(spec) = fused {
                wiforce_telemetry::span_bulk(
                    "harmonics.extract_lines",
                    extract_n.into_inner(),
                    extract_ticks.into_inner() as f64 * ns_per_tick,
                );
                for l in &lines {
                    emit_extraction_telemetry(spec.cfg, l);
                }
                if let (Some(fc), Some(fl)) = (spec.floor_cfg, floor.as_ref()) {
                    emit_extraction_telemetry(fc, fl);
                }
            }
        }
        (lines, floor)
    }

    /// Measures the differential phases of one press (Eq. 4–5): no-touch
    /// reference groups, the tag-detection check against an off-line
    /// floor, optional tag-clock derotation, then touched groups combined
    /// coherently against the reference.
    ///
    /// The only draws taken from `rng` are the tag clock's phase and the
    /// press key of the counter noise stream. The lines come from one of
    /// two sources, chosen once per press: spectral direct synthesis when
    /// enabled and inside its validity envelope
    /// ([`Self::spectral_eligible`]), else time-domain counter synthesis
    /// with extraction fused onto the synthesis workers.
    pub fn measure_phases<R: Rng>(
        &self,
        contact: Option<&ContactState>,
        rng: &mut R,
    ) -> Result<DiffPhases, WiForceError> {
        let _span = wiforce_telemetry::span!("pipeline.measure_phases");
        let mut clock = TagClock::new(rng);
        let mut noise = PressNoise::from_rng(rng);
        // the subcarrier grid is press-invariant: computed once and shared
        // by both synthesis calls
        let freqs = self.subcarrier_freqs_hz();
        let spectral = self.synth_spectral_enabled() && self.spectral_eligible();
        let mut scratch = SnapshotMatrix::default();
        let mut synth_groups =
            |contact: Option<&ContactState>,
             n_groups: usize,
             floor_cfg: Option<&PhaseGroupConfig>| {
                let spec = FusedExtraction {
                    cfg: &self.group,
                    floor_cfg,
                    first_start: clock.reader_time_s(),
                };
                if spectral {
                    self.synth_lines_spectral(
                        &freqs, contact, n_groups, &mut clock, &mut noise, &spec,
                    )
                } else {
                    scratch.clear();
                    self.synth_counter(
                        &freqs,
                        contact,
                        n_groups,
                        &mut clock,
                        &mut noise,
                        &mut scratch,
                        Some(&spec),
                    )
                }
            };

        // tag-detection floor: off-line bins (1.37·fs and 2.61·fs) of the
        // first reference group, probed alongside its lines
        let off_cfg = PhaseGroupConfig {
            line1_hz: self.group.line1_hz * 1.37,
            line2_hz: self.group.line1_hz * 2.61,
            ..self.group
        };
        let (mut refs, floor_lines) = synth_groups(None, self.reference_groups, Some(&off_cfg));
        let floor = floor_lines
            .expect("floor probe rides on the first reference group")
            .mean_power();

        // optional tag-clock tracking: estimate the constant line-frequency
        // offset from the reference groups' phase slope and de-rotate
        let group_s = self.group.n_snapshots as f64 * self.group.snapshot_period_s;
        let df_hz = if self.track_tag_clock && refs.len() >= 2 {
            estimate_line_offset_hz(&refs, group_s)
        } else {
            0.0
        };
        // groups[g] is the press's group `first + g`
        let derotate_groups = |groups: &mut [GroupLines], first: usize| {
            if df_hz != 0.0 {
                for (g, lines) in groups.iter_mut().enumerate() {
                    derotate(lines, df_hz, (first + g) as f64 * group_s);
                }
            }
        };
        derotate_groups(&mut refs, 0);
        let reference = average_lines(&refs);

        let line_db = 10.0 * (reference.mean_power() / floor.max(1e-300)).log10();
        wiforce_telemetry::gauge!("pipeline.line_to_floor_db", line_db);
        if line_db < 6.0 {
            wiforce_telemetry::counter!("pipeline.tag_not_detected", 1);
            return Err(WiForceError::TagNotDetected {
                line_to_floor_db: line_db,
            });
        }

        let (mut meass, _) = synth_groups(contact, self.measure_groups, None);
        derotate_groups(&mut meass, self.reference_groups);
        // average the differential phases across measurement groups
        // (coherently, via the summed conj products)
        let mut acc1 = Complex::ZERO;
        let mut acc2 = Complex::ZERO;
        let mut power = 0.0;
        for m in &meass {
            let d = differential(&reference, m, self.averaging);
            acc1 += Complex::cis(d.dphi1_rad);
            acc2 += Complex::cis(d.dphi2_rad);
            power += d.line_power;
        }
        Ok(DiffPhases {
            dphi1_rad: acc1.arg(),
            dphi2_rad: acc2.arg(),
            line_power: power / meass.len() as f64,
        })
    }

    /// Generates the spectral lines of `n_groups` phase groups directly
    /// at the consumed bins, without synthesizing time-domain snapshots.
    ///
    /// Model (per group, per consumed line `ω = 2π·f·T`): the
    /// mean-subtracted DFT is linear, so the line splits into
    ///
    /// - a **deterministic** term `ref(ω)·Σ_σ W_σ(ω)·B_σ[k]`, where
    ///   `B_σ[k] = gains[k]·table[k][σ]` is the press-invariant per-state
    ///   backscatter spectrum (memoized on the channel cache's response
    ///   memo) and `W_σ(ω) = (E_σ(ω) − n_σ·D̄(ω))/N` comes from one O(N)
    ///   walk of the tag's switch-state sequence — the exact group plan
    ///   (wander, drift, fractional start phase) the time-domain path
    ///   uses. Statics cancel exactly under mean subtraction.
    /// - a **noise** term: by DFT unitarity, white per-snapshot estimate
    ///   noise of per-component std `σ_est` (plus quantization treated as
    ///   additive uniform noise of variance `step²/12`, valid when the
    ///   front-end jitter dithers ≳1 LSB) lands on the mean-subtracted
    ///   line as circular Gaussian with per-component std
    ///   `√((σ_est² + step²/12)·(1−|D̄|²)/N)`, drawn per subcarrier from
    ///   a Philox cursor keyed `(press key, group, bin)`.
    /// - a **common-mode jitter** term: per-snapshot phase jitter `θ_s`
    ///   contributes `i·meanP[k]·J(ω)` with one shared
    ///   `J ~ CN(0, σ_θ²·(1−|D̄|²)/N)` per (group, line) — preserving the
    ///   cross-subcarrier correlation the time path produces.
    ///
    /// All draws are pure functions of `(press key, group, bin, lane)`
    /// and the walk runs on the calling thread, so the output is
    /// bit-deterministic across worker counts and SIMD dispatch arms.
    /// The result is distribution-equivalent — not bit-identical — to
    /// time-domain synthesis + extraction, and is gated by statistical
    /// and end-to-end accuracy fixtures.
    fn synth_lines_spectral(
        &self,
        freqs: &[f64],
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
        spec: &FusedExtraction<'_>,
    ) -> (Vec<GroupLines>, Option<GroupLines>) {
        let _span = wiforce_telemetry::span!("pipeline.spectral_lines");
        let (cache, table) = self.channel_and_table(freqs, contact);
        let k_sub = cache.statics.len();
        let n = self.group.n_snapshots;
        let t_snap = self.group.snapshot_period_s;
        let key = noise.key;
        let sigma_est = self
            .sounder
            .estimate_noise_sigma(self.frontend.noise_floor)
            .expect("spectral path gated on white estimate noise");
        // quantization folded in as additive uniform noise
        let step = if self.frontend.adc_enob_bits > 0 && cache.full_scale > 0.0 {
            2.0 * cache.full_scale / (1u64 << self.frontend.adc_enob_bits.min(62)) as f64
        } else {
            0.0
        };
        let var_row = sigma_est * sigma_est + step * step / 12.0;

        // per-state backscatter spectra: the untouched ones are
        // press-invariant and memoized beside the EM plan (salted key,
        // distinct value type); a contact's are built inline
        let build_spectra = || {
            let mut rows = vec![Complex::ZERO; 4 * k_sub];
            for state in 0..4 {
                for k in 0..k_sub {
                    rows[state * k_sub + k] = cache.gains[k] * table[k][state];
                }
            }
            SpectralStateSpectra { rows }
        };
        let spectra = if contact.is_none() {
            cache.response_tables(self.tag_token(), SPECTRAL_TABLE_SALT, build_spectra)
        } else {
            Arc::new(build_spectra())
        };

        let group_s = n as f64 * t_snap;
        let mut groups = Vec::with_capacity(n_groups);
        let mut floor_out: Option<GroupLines> = None;
        let mut normals = Vec::new();
        let mut exact_evals = 0;
        for (g, plan) in self
            .plan_groups(n_groups, clock_state, noise)
            .iter()
            .enumerate()
        {
            // consumed lines this group: the two tag lines, plus the two
            // floor-probe bins on group 0 when requested
            let with_floor = g == 0 && spec.floor_cfg.is_some();
            let mut line_hz = [spec.cfg.line1_hz, spec.cfg.line2_hz, 0.0, 0.0];
            let mut nf = 2;
            if with_floor {
                let fc = spec.floor_cfg.expect("checked");
                line_hz[2] = fc.line1_hz;
                line_hz[3] = fc.line2_hz;
                nf = 4;
            }

            // one O(N) edge-driven state walk accumulating E_σ(ω) per
            // consumed line via phasor recurrences
            let mut e_acc = [[Complex::ZERO; 4]; 4]; // [line][state]
            let mut counts = [0u64; 4];
            let mut rot = [Complex::ONE; 4];
            for (fi, r) in rot.iter_mut().enumerate().take(nf) {
                *r = Complex::cis(-wiforce_dsp::TAU * line_hz[fi] * t_snap);
            }
            let mut runs = self.tag.clocks.runs(plan.t_tag0, plan.dt_eff, 0..n);
            if with_floor {
                accumulate_state_phasors::<4>(&mut runs, &rot, &mut e_acc, &mut counts);
            } else {
                accumulate_state_phasors::<2>(&mut runs, &rot, &mut e_acc, &mut counts);
            }
            exact_evals += runs.exact_evals();
            let inv_n = 1.0 / n as f64;
            let cbar = [
                counts[0] as f64 * inv_n,
                counts[1] as f64 * inv_n,
                counts[2] as f64 * inv_n,
                counts[3] as f64 * inv_n,
            ];

            // the line-invariant mean row, written into each line's
            // output and turned into that line in place
            let mut mean_p: Vec<Complex> = (0..k_sub)
                .map(|k| {
                    let b = |state: usize| spectra.rows[state * k_sub + k];
                    cache.statics[k]
                        + b(0).scale(cbar[0])
                        + b(1).scale(cbar[1])
                        + b(2).scale(cbar[2])
                        + b(3).scale(cbar[3])
                })
                .collect();
            let start_s = spec.first_start + g as f64 * group_s;
            let mut line_out = |fi: usize, mut out: Vec<Complex>| -> Vec<Complex> {
                let f_hz = line_hz[fi];
                // D̄ = (Σ_σ E_σ)/N exactly (0 at nonzero integer bins)
                let dbar = (e_acc[fi][0] + e_acc[fi][1] + e_acc[fi][2] + e_acc[fi][3]).scale(inv_n);
                let w = [
                    (e_acc[fi][0] - dbar.scale(counts[0] as f64)).scale(inv_n),
                    (e_acc[fi][1] - dbar.scale(counts[1] as f64)).scale(inv_n),
                    (e_acc[fi][2] - dbar.scale(counts[2] as f64)).scale(inv_n),
                    (e_acc[fi][3] - dbar.scale(counts[3] as f64)).scale(inv_n),
                ];
                let shrink = (1.0 - dbar.norm_sqr()).max(0.0);
                let sigma_line = (var_row * shrink * inv_n).sqrt();
                let sigma_jit = self.frontend.phase_jitter_rad * (shrink * inv_n * 0.5).sqrt();
                let reference = Complex::cis(-wiforce_dsp::TAU * f_hz * start_s);
                let mut cursor = CounterRng::for_spectral(
                    key,
                    plan.group_id,
                    wiforce_dsp::rng::spectral_bin_id(f_hz),
                );
                normals.clear();
                normals.resize(2 * k_sub + 2, 0.0);
                cursor.fill_normals(&mut normals);
                let jc = Complex::new(normals[2 * k_sub], normals[2 * k_sub + 1]).scale(sigma_jit);
                for (k, slot) in out.iter_mut().enumerate() {
                    let b = |state: usize| spectra.rows[state * k_sub + k];
                    let det = b(0) * w[0] + b(1) * w[1] + b(2) * w[2] + b(3) * w[3];
                    let noise_k =
                        Complex::new(normals[2 * k], normals[2 * k + 1]).scale(sigma_line);
                    *slot = reference * (det + noise_k + Complex::I * *slot * jc);
                }
                out
            };
            let lines = GroupLines {
                p1: line_out(0, mean_p.clone()),
                p2: line_out(
                    1,
                    if with_floor {
                        mean_p.clone()
                    } else {
                        std::mem::take(&mut mean_p)
                    },
                ),
            };
            if with_floor {
                floor_out = Some(GroupLines {
                    p1: line_out(2, mean_p.clone()),
                    p2: line_out(3, mean_p),
                });
            }
            wiforce_telemetry::counter!("pipeline.spectral_groups", 1);
            emit_extraction_telemetry(spec.cfg, &lines);
            groups.push(lines);
        }
        wiforce_telemetry::counter!("clock.walk_exact_evals", exact_evals);
        (groups, floor_out)
    }

    /// Like [`Self::contact_for`] but with the per-press mechanical
    /// jitter applied — what an actual press produces.
    pub fn jittered_contact<R: Rng>(
        &self,
        force_n: f64,
        location_m: f64,
        rng: &mut R,
    ) -> Option<ContactState> {
        let _span = wiforce_telemetry::span!("pipeline.mech_solve");
        let mut c = self.contact_for(force_n, location_m)?;
        let len = self.transducer.length_m();
        // common patch-position shift (moves port-1 length up, port-2 down)
        if self.patch_position_jitter_m > 0.0 {
            let shift = self.patch_position_jitter_m * standard_normal(rng);
            c.port1_short_m += shift;
            c.port2_short_m -= shift;
        }
        // independent edge scatter
        if self.patch_edge_jitter_m > 0.0 {
            c.port1_short_m += self.patch_edge_jitter_m * standard_normal(rng);
            c.port2_short_m += self.patch_edge_jitter_m * standard_normal(rng);
        }
        c.port1_short_m = c.port1_short_m.clamp(0.0, len);
        c.port2_short_m = c.port2_short_m.clamp(0.0, len);
        Some(c)
    }

    /// Full single-press measurement: mechanics → wireless phases → model
    /// inversion.
    pub fn measure_press<R: Rng>(
        &self,
        model: &SensorModel,
        force_n: f64,
        location_m: f64,
        rng: &mut R,
    ) -> Result<ForceReading, WiForceError> {
        let _span = wiforce_telemetry::span!("pipeline.measure_press");
        wiforce_telemetry::counter!("pipeline.presses", 1);
        let contact = self.jittered_contact(force_n, location_m, rng);
        let phases = self.measure_phases(contact.as_ref(), rng)?;
        let est = {
            let _s = wiforce_telemetry::span!("pipeline.model_invert");
            model.invert(phases.dphi1_rad, phases.dphi2_rad, 0.35)?
        };
        Ok(ForceReading {
            force_n: est.force_n,
            location_m: est.location_m,
            dphi1_rad: phases.dphi1_rad,
            dphi2_rad: phases.dphi2_rad,
            residual_rad: est.residual_rad,
            touched: contact.is_some(),
        })
    }

    /// Wired VNA calibration (paper §4.2): sweeps forces at the five
    /// calibration locations, reading differential phases directly off the
    /// sensor line with the VNA model, and fits the cubic sensor model.
    pub fn vna_calibration(&self) -> Result<SensorModel, WiForceError> {
        self.vna_calibration_at(&[0.020, 0.030, 0.040, 0.050, 0.060], 16)
    }

    /// VNA calibration at explicit locations with `n_forces` force steps
    /// up to 8 N.
    pub fn vna_calibration_at(
        &self,
        locations_m: &[f64],
        n_forces: usize,
    ) -> Result<SensorModel, WiForceError> {
        let data: Vec<LocationData> = locations_m
            .iter()
            .map(|&loc| {
                let forces: Vec<f64> = (1..=n_forces)
                    .map(|i| 8.0 * i as f64 / n_forces as f64)
                    .collect();
                let mut phi1 = Vec::with_capacity(n_forces);
                let mut phi2 = Vec::with_capacity(n_forces);
                for &f in &forces {
                    let (p1, p2) = self.vna_phases(f, loc);
                    phi1.push(p1);
                    phi2.push(p2);
                }
                // phases wrap within a force sweep at higher carriers —
                // unwrap along force so the cubic sees a continuous curve
                // (inversion compares modulo 2π, so the branch choice is
                // immaterial)
                let phi1 = wiforce_dsp::phase::unwrap(&phi1);
                let phi2 = wiforce_dsp::phase::unwrap(&phi2);
                LocationData {
                    location_m: loc,
                    samples: forces
                        .iter()
                        .zip(phi1.iter().zip(&phi2))
                        .map(|(&f, (&p1, &p2))| CalibrationSample {
                            force_n: f,
                            phi1_rad: p1,
                            phi2_rad: p2,
                        })
                        .collect(),
                }
            })
            .collect();
        SensorModel::fit(&data, 3)
    }

    /// Over-the-air calibration (no VNA): measures the differential phases
    /// wirelessly at the given locations and force steps, averaging `reps`
    /// presses per point, and fits the cubic model. This is how a deployed
    /// system without bench equipment would self-calibrate; systematic
    /// pipeline effects (switch imperfections, residual leakage) are
    /// absorbed into the model instead of appearing as estimation bias.
    pub fn wireless_calibration_at<R: Rng>(
        &self,
        locations_m: &[f64],
        n_forces: usize,
        reps: usize,
        rng: &mut R,
    ) -> Result<SensorModel, WiForceError> {
        let mut data = Vec::with_capacity(locations_m.len());
        for &loc in locations_m {
            let forces: Vec<f64> = (1..=n_forces)
                .map(|i| 8.0 * i as f64 / n_forces as f64)
                .collect();
            let mut phi1 = Vec::with_capacity(n_forces);
            let mut phi2 = Vec::with_capacity(n_forces);
            for &f in &forces {
                let mut acc1 = Complex::ZERO;
                let mut acc2 = Complex::ZERO;
                for _ in 0..reps.max(1) {
                    let contact = self.jittered_contact(f, loc, rng);
                    let d = self.measure_phases(contact.as_ref(), rng)?;
                    acc1 += Complex::cis(d.dphi1_rad);
                    acc2 += Complex::cis(d.dphi2_rad);
                }
                phi1.push(acc1.arg());
                phi2.push(acc2.arg());
            }
            let phi1 = wiforce_dsp::phase::unwrap(&phi1);
            let phi2 = wiforce_dsp::phase::unwrap(&phi2);
            data.push(LocationData {
                location_m: loc,
                samples: forces
                    .iter()
                    .zip(phi1.iter().zip(&phi2))
                    .map(|(&f, (&p1, &p2))| CalibrationSample {
                        force_n: f,
                        phi1_rad: p1,
                        phi2_rad: p2,
                    })
                    .collect(),
            });
        }
        SensorModel::fit(&data, 3)
    }

    /// Ground-truth (VNA) differential phases for a press, at the carrier.
    pub fn vna_phases(&self, force_n: f64, location_m: f64) -> (f64, f64) {
        let far = self.tag.switch2.off_termination();
        match self.contact_for(force_n, location_m) {
            None => (0.0, 0.0),
            Some(c) => {
                let f = self.scene.carrier_hz;
                let p1 = self.tag.line.differential_phase(f, c.port1_short_m, far);
                let p2 = self.tag.line.differential_phase(f, c.port2_short_m, far);
                (p1, p2)
            }
        }
    }
}

/// The per-press handle on the counter-addressed noise stream: one Philox
/// key (drawn once per press from the caller's `Rng`) plus the running
/// group index. Every Gaussian the synthesis consumes is a pure function
/// of `(key, group, snapshot, lane)`, so the same `PressNoise` always
/// reproduces the same press regardless of worker count, chunking, or
/// SIMD backend.
#[derive(Debug, Clone)]
pub struct PressNoise {
    key: u64,
    next_group: u32,
}

impl PressNoise {
    /// Draws a fresh press key from the caller's RNG (with the tag clock's
    /// phase, the only draw a press takes from it).
    pub fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        PressNoise {
            key: rng.gen::<u64>(),
            next_group: 0,
        }
    }

    /// A press keyed directly — for fixtures that pin exact realizations.
    pub fn from_seed(key: u64) -> Self {
        PressNoise { key, next_group: 0 }
    }

    /// The press key.
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// Memo salt of the tag's [`wiforce_sensor::ResponsePlan`] among the
/// `response_tables` entries keyed by the same tag token (`b"emplan01"`
/// as a u64).
const EM_PLAN_SALT: u64 = 0x656d_706c_616e_3031;

/// Memo salt of the untouched spectral per-state backscatter spectra
/// among the `response_tables` entries keyed by the same tag token
/// (`b"spectbl1"` as a u64).
const SPECTRAL_TABLE_SALT: u64 = 0x7370_6563_7462_6c31;

/// Adds each snapshot's line phasors `e^{-jωs}` into `e_acc[line][state]`
/// for the first `NF` lines, run by run of the drive state. Within a run
/// the phasors and the state's partial sums stay in registers; the sums
/// take their terms in snapshot order, exactly as a per-snapshot loop
/// would.
fn accumulate_state_phasors<const NF: usize>(
    runs: impl Iterator<Item = (usize, usize)>,
    rot: &[Complex; 4],
    e_acc: &mut [[Complex; 4]; 4],
    counts: &mut [u64; 4],
) {
    let mut ph = [Complex::ONE; NF];
    for (state, len) in runs {
        counts[state] += len as u64;
        let mut acc: [Complex; NF] = std::array::from_fn(|fi| e_acc[fi][state]);
        for _ in 0..len {
            for fi in 0..NF {
                acc[fi] += ph[fi];
                ph[fi] *= rot[fi];
            }
        }
        for (fi, a) in acc.into_iter().enumerate() {
            e_acc[fi][state] = a;
        }
    }
}

/// Per-state backscatter line spectra for the spectral synthesis
/// path: `rows[state * k_sub + k] = gains[k] * table[k][state]`, i.e. the
/// subcarrier response the sounder would estimate if the tag sat in
/// `state` for the whole snapshot (statics excluded — those cancel in the
/// mean-subtracted DFT and only enter through the jitter coupling term).
struct SpectralStateSpectra {
    rows: Vec<Complex>,
}

/// Closed-form per-group clock handed to synthesis workers: snapshot `s`
/// of the group evaluates the tag modulation at `t_tag0 + s·dt_eff` and
/// the scene at `t_reader0 + s·t_snap`.
struct GroupPlan {
    group_id: u32,
    t_tag0: f64,
    t_reader0: f64,
    dt_eff: f64,
}

/// Streaming-extraction request for [`Simulation::synth_counter`].
struct FusedExtraction<'a> {
    cfg: &'a PhaseGroupConfig,
    /// Off-line floor probe configuration, extracted from group 0's rows
    /// (the tag-detection floor rides on the first reference group).
    floor_cfg: Option<&'a PhaseGroupConfig>,
    /// Reader time of the first synthesized snapshot.
    first_start: f64,
}

/// The tag's free-running clock: tracks accumulated time including drift
/// and wander, so modulation edges stay phase-continuous across groups.
#[derive(Debug, Clone)]
pub struct TagClock {
    /// Accumulated tag-clock time, s.
    t_tag: f64,
    /// Accumulated reader-clock time, s (advances exactly one snapshot
    /// period per snapshot; used as the phase reference for extraction).
    t_reader: f64,
    /// Current fractional frequency error, ppm.
    wander_ppm: f64,
}

impl TagClock {
    /// Starts a clock at a random initial phase (the tag and reader are
    /// unsynchronized, §4.4).
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        TagClock {
            t_tag: rng.gen::<f64>() * 1e-3,
            t_reader: 0.0,
            wander_ppm: 0.0,
        }
    }

    /// Updates the per-group wander: mean-reverting random walk with RMS
    /// `sigma_ppm`.
    pub(crate) fn step_group<R: Rng + ?Sized>(&mut self, sigma_ppm: f64, rng: &mut R) {
        if sigma_ppm > 0.0 {
            self.wander_ppm = 0.8 * self.wander_ppm + 0.6 * sigma_ppm * standard_normal(rng);
        }
    }

    /// Advances by one reader snapshot period, returning the tag-local
    /// time used to evaluate the modulation waveforms. `drift_ppm` is the
    /// constant clock frequency error (fault injection).
    pub(crate) fn advance(&mut self, t_snap: f64, drift_ppm: f64) -> f64 {
        let t = self.t_tag;
        self.t_tag += t_snap * (1.0 + (self.wander_ppm + drift_ppm) * 1e-6);
        self.t_reader += t_snap;
        t
    }

    /// Reader-clock time of the next snapshot, s.
    pub fn reader_time_s(&self) -> f64 {
        self.t_reader
    }
}

/// Estimates the tag's base-clock frequency offset (Hz at `fs`) from the
/// phase slope across consecutive reference groups, combining both lines
/// (the `4fs` line sees 4× the offset).
pub fn estimate_line_offset_hz(groups: &[GroupLines], group_s: f64) -> f64 {
    assert!(groups.len() >= 2);
    let mut acc1 = Complex::ZERO;
    let mut acc2 = Complex::ZERO;
    for w in groups.windows(2) {
        for k in 0..w[0].p1.len() {
            acc1 += w[1].p1[k] * w[0].p1[k].conj();
            acc2 += w[1].p2[k] * w[0].p2[k].conj();
        }
    }
    let slope1 = acc1.arg(); // rad per group at fs
    let slope2 = acc2.arg(); // rad per group at 4fs
                             // weight the 4fs line by its 4× sensitivity
    let df1 = slope1 / (wiforce_dsp::TAU * group_s);
    let df2 = slope2 / (wiforce_dsp::TAU * group_s) / 4.0;
    0.5 * (df1 + df2)
}

/// De-rotates a group's line values for a base-clock offset of `df_hz`
/// observed at reader time `t_s` (the `4fs` line rotates 4× faster).
fn derotate(lines: &mut GroupLines, df_hz: f64, t_s: f64) {
    let r1 = Complex::cis(-wiforce_dsp::TAU * df_hz * t_s);
    let r2 = Complex::cis(-wiforce_dsp::TAU * 4.0 * df_hz * t_s);
    lines.p1.iter_mut().for_each(|z| *z *= r1);
    lines.p2.iter_mut().for_each(|z| *z *= r2);
}

/// Averages line vectors across groups (coherent per subcarrier).
pub fn average_lines(groups: &[GroupLines]) -> GroupLines {
    assert!(!groups.is_empty(), "cannot average zero groups");
    let k = groups[0].p1.len();
    let mut p1 = vec![Complex::ZERO; k];
    let mut p2 = vec![Complex::ZERO; k];
    for g in groups {
        for i in 0..k {
            p1[i] += g.p1[i];
            p2[i] += g.p2[i];
        }
    }
    let inv = 1.0 / groups.len() as f64;
    p1.iter_mut().for_each(|z| *z = z.scale(inv));
    p2.iter_mut().for_each(|z| *z = z.scale(inv));
    GroupLines { p1, p2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harmonics::extract_lines;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_sim(carrier: f64) -> Simulation {
        // fewer groups for test speed
        let mut sim = Simulation::paper_default(carrier);
        sim.reference_groups = 1;
        sim.measure_groups = 1;
        sim
    }

    #[test]
    fn tag_tables_match_golden_bits() {
        // FNV bit-hashes of the untouched table and three contact tables
        // at both carriers, recorded before the tables came from the
        // precomputed EM plan: the plan must not move a single bit
        let golden: [(f64, [u64; 4]); 2] = [
            (
                0.9e9,
                [
                    0xfe31_a4ee_846e_478d,
                    0x845e_adc5_0798_3abc,
                    0x1f4e_591c_5901_4480,
                    0xbf46_6c29_5c80_145c,
                ],
            ),
            (
                2.4e9,
                [
                    0xc023_063d_c947_7c49,
                    0xd17c_f70f_9536_e131,
                    0x6474_6a4e_e7c7_5fe1,
                    0xe917_0b04_6824_c1fe,
                ],
            ),
        ];
        for (carrier, hashes) in golden {
            let sim = fast_sim(carrier);
            let cache = ChannelCache::build(&sim.scene, &sim.subcarrier_freqs_hz());
            let contacts = [
                None,
                sim.contact_for(1.0, 0.025),
                sim.contact_for(4.0, 0.040),
                sim.contact_for(7.5, 0.058),
            ];
            for (c, want) in contacts.iter().zip(hashes) {
                let table = sim.tag_response_table(&cache, c.as_ref());
                let got = wiforce_channel::cache::plane_token(table.iter().flatten());
                assert_eq!(got, want, "carrier {carrier}, contact {c:?}");
            }
        }
    }

    #[test]
    fn tag_table_matches_direct_evaluation() {
        let sim = fast_sim(0.9e9);
        let contact = sim.contact_for(4.0, 0.040);
        let freqs = sim.subcarrier_freqs_hz();
        let cache = ChannelCache::build(&sim.scene, &freqs);
        let table = sim.tag_response_table(&cache, contact.as_ref());
        // compare against SensorTag::antenna_reflection at times with known
        // switch states: t=0 → switch1 on (25% duty), t chosen in switch2 window
        let t_s1_on = 0.1e-3; // inside [0, 0.25 ms)
        let t_s2_on = 0.3e-3; // inside [0.25, 0.375 ms)
        let t_idle = 0.45e-3; // both off
        for (k, &f) in freqs.iter().enumerate().step_by(13) {
            let g1 = sim.tag.antenna_reflection(f, t_s1_on, contact.as_ref());
            assert!((g1 - table[k][1]).abs() < 1e-12);
            let g2 = sim.tag.antenna_reflection(f, t_s2_on, contact.as_ref());
            assert!((g2 - table[k][2]).abs() < 1e-12);
            let gi = sim.tag.antenna_reflection(f, t_idle, contact.as_ref());
            assert!((gi - table[k][0]).abs() < 1e-12);
        }
    }

    #[test]
    fn channel_cache_on_off_is_bit_identical() {
        // the tentpole equivalence fixture: cached and uncached snapshot
        // synthesis must agree bit-for-bit, before and after a scene
        // mutation (fingerprint invalidation), with and without movers
        // (prepared-state vs full evaluation path)
        let run = |sim: &Simulation, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clock = TagClock::new(&mut rng);
            let mut noise = PressNoise::from_rng(&mut rng);
            let contact = sim.contact_for(3.0, 0.030);
            sim.run_snapshots(contact.as_ref(), 2, &mut clock, &mut noise)
        };
        let mut cached = fast_sim(0.9e9);
        let mut uncached = fast_sim(0.9e9);
        uncached.use_channel_cache = false;
        assert!(cached.use_channel_cache, "cache defaults on");

        let a = run(&cached, 42);
        let b = run(&uncached, 42);
        assert_eq!(a.n_rows(), b.n_rows());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }

        // mutate the scene: the cached run must rebuild, not serve stale
        // statics — and with movers present the prepared path disables
        for sim in [&mut cached, &mut uncached] {
            sim.scene.direct_blockage_db = 7.0;
            sim.scene
                .movers
                .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
        }
        let a2 = run(&cached, 43);
        let b2 = run(&uncached, 43);
        assert_eq!(a2.n_rows(), b2.n_rows());
        for (x, y) in a2.as_slice().iter().zip(b2.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
        // and the mutation actually changed the channel
        assert_ne!(
            a.as_slice()[0].re.to_bits(),
            a2.as_slice()[0].re.to_bits(),
            "scene mutation should alter the synthesized snapshots"
        );
    }

    #[test]
    fn randomized_scene_mutations_never_serve_stale_tables() {
        // Proptest-style stress on the invalidation story: an RNG-driven
        // chain of scene mutations (geometry, power, blockage, clutter,
        // movers, tissue excess) applied identically to a cached and an
        // uncached simulation. After every mutation the cached run must
        // match the uncached run bit-for-bit — neither the channel-cache
        // fingerprint nor the response-table memo may serve anything
        // built under a previous scene — and each mutation must actually
        // change the synthesized snapshots (same press seed throughout,
        // so the scene is the only varying input; every mutation arm is
        // chosen to be output-visible, not merely fingerprint-visible).
        use rand::Rng;
        let run = |sim: &Simulation| {
            let mut rng = StdRng::seed_from_u64(77);
            let mut clock = TagClock::new(&mut rng);
            let mut noise = PressNoise::from_rng(&mut rng);
            let contact = sim.contact_for(3.0, 0.030);
            sim.run_snapshots(contact.as_ref(), 2, &mut clock, &mut noise)
        };
        let bits_eq = |a: &wiforce_dsp::SnapshotMatrix, b: &wiforce_dsp::SnapshotMatrix| {
            a.n_rows() == b.n_rows()
                && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| {
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                })
        };
        let mut cached = fast_sim(0.9e9);
        let mut uncached = fast_sim(0.9e9);
        uncached.use_channel_cache = false;
        assert!(
            cached.sounder.response_token().is_some(),
            "paper-default sounder must expose a response token so this \
             exercise actually goes through the response-table memo"
        );

        let mut prev = run(&cached);
        assert!(bits_eq(&prev, &run(&uncached)), "warm pass diverged");

        let mut mutator = StdRng::seed_from_u64(0x5CEE_4E11);
        for round in 0..8u32 {
            let choice: u32 = mutator.gen::<u32>() % 6;
            // never a no-op: deltas live in [0.5, 1.5)
            let delta = 0.5 + mutator.gen::<f64>();
            let clutter_seed: u64 = mutator.gen();
            for sim in [&mut cached, &mut uncached] {
                let scene = &mut sim.scene;
                match choice {
                    0 => scene.tag_pos_m[1] += 0.01 * delta,
                    1 => scene.tx_power_dbm += delta,
                    2 => scene.direct_blockage_db += delta,
                    3 => scene.antenna_gain_dbi += 0.5 * delta,
                    4 => {
                        let mut r = StdRng::seed_from_u64(clutter_seed);
                        scene.multipath =
                            wiforce_channel::multipath::StaticMultipath::office(&mut r, 0.5);
                    }
                    // (not tissue_excess_db_per_pass: with `tissue: None`
                    // it invalidates the fingerprint but is an output
                    // no-op, which the changed-output assertion forbids)
                    _ => scene.rx_pos_m[0] += 0.01 * delta,
                }
            }

            let (_, rebuilds_before) = cached.channel_cache.stats();
            let a = run(&cached);
            let b = run(&uncached);
            assert!(
                bits_eq(&a, &b),
                "round {round} (mutation {choice}): cached run diverged from uncached"
            );
            assert_ne!(
                a.as_slice()[0].re.to_bits(),
                prev.as_slice()[0].re.to_bits(),
                "round {round} (mutation {choice}): scene mutation was a no-op"
            );
            // the mutated fingerprint forced a rebuild — the memo lives
            // on the entry, so a rebuild discards every cached table...
            let (_, rebuilds_after) = cached.channel_cache.stats();
            assert!(
                rebuilds_after > rebuilds_before,
                "round {round}: mutation must invalidate the cache entry"
            );
            let (h_mid, m_mid) = cached.channel_cache.response_stats();
            assert!(
                m_mid >= 1,
                "round {round}: the fresh entry must rebuild response tables"
            );
            // ...and an identical repeat is served purely from the memo
            let a_again = run(&cached);
            assert!(
                bits_eq(&a, &a_again),
                "round {round}: memo-served repeat diverged"
            );
            let (h_after, m_after) = cached.channel_cache.response_stats();
            assert_eq!(
                m_after, m_mid,
                "round {round}: repeat run must not miss the response memo"
            );
            assert!(
                h_after > h_mid,
                "round {round}: repeat run must hit the response memo"
            );
            prev = a;
        }
    }

    #[test]
    fn snapshot_stream_is_worker_count_invariant() {
        // the tentpole fixture: the counter-addressed path must produce
        // bit-identical snapshots at any worker count — clean, under
        // heavy fault injection (whole-group chunks), and with movers
        // (per-snapshot channel evaluation)
        let mut faulty = fast_sim(0.9e9);
        faulty.faults = wiforce_channel::faults::FaultConfig::saturating();
        let mut moving = fast_sim(0.9e9);
        moving
            .scene
            .movers
            .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
        for (name, base) in [
            ("clean", fast_sim(0.9e9)),
            ("faulty", faulty),
            ("movers", moving),
        ] {
            let run = |workers: usize| {
                let mut sim = base.clone();
                sim.synth_workers = Some(workers);
                let mut rng = StdRng::seed_from_u64(1);
                let mut clock = TagClock::new(&mut rng);
                let mut noise = PressNoise::from_seed(0xFEED_F00D);
                let contact = sim.contact_for(3.0, 0.030);
                let m = sim.run_snapshots(contact.as_ref(), 3, &mut clock, &mut noise);
                (m, clock.t_tag.to_bits(), clock.t_reader.to_bits())
            };
            let (m1, t1, r1) = run(1);
            let (m4, t4, r4) = run(4);
            let (m8, t8, r8) = run(8);
            assert_eq!(m1.n_rows(), m4.n_rows());
            for (x, y) in m1.as_slice().iter().zip(m4.as_slice()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{name} 1 vs 4");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{name} 1 vs 4");
            }
            for (x, y) in m1.as_slice().iter().zip(m8.as_slice()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{name} 1 vs 8");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{name} 1 vs 8");
            }
            assert_eq!((t1, r1), (t4, r4), "{name} clock state");
            assert_eq!((t1, r1), (t8, r8), "{name} clock state");
        }
    }

    #[test]
    fn snapshot_stream_is_a_pure_function_of_the_key() {
        let sim = fast_sim(0.9e9);
        let run = |key: u64| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut clock = TagClock::new(&mut rng);
            let mut noise = PressNoise::from_seed(key);
            sim.run_snapshots(None, 1, &mut clock, &mut noise)
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().iter().zip(c.as_slice()).any(|(x, y)| x != y));
    }

    #[test]
    fn fused_extraction_matches_unfused_bitwise() {
        // the streaming synth→spectrum path must yield the same lines as
        // extracting from the assembled matrix afterwards
        let mut sim = fast_sim(0.9e9);
        sim.synth_workers = Some(4);
        let contact = sim.contact_for(4.0, 0.040);
        let n_groups = 3;

        let mut rng = StdRng::seed_from_u64(3);
        let mut clock_a = TagClock::new(&mut rng);
        let mut noise_a = PressNoise::from_seed(0xABCD);
        let first_start = clock_a.reader_time_s();
        let fused = sim.run_groups(contact.as_ref(), n_groups, &mut clock_a, &mut noise_a);

        let mut rng = StdRng::seed_from_u64(3);
        let mut clock_b = TagClock::new(&mut rng);
        let mut noise_b = PressNoise::from_seed(0xABCD);
        let snaps = sim.run_snapshots(contact.as_ref(), n_groups, &mut clock_b, &mut noise_b);
        let n = sim.group.n_snapshots;
        let group_s = n as f64 * sim.group.snapshot_period_s;
        assert_eq!(fused.len(), n_groups);
        for (g, fused_lines) in fused.iter().enumerate() {
            let lines = extract_lines(
                &sim.group,
                snaps.rows_view(g * n, n),
                first_start + g as f64 * group_s,
            );
            for (a, b) in fused_lines.p1.iter().zip(&lines.p1) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            for (a, b) in fused_lines.p2.iter().zip(&lines.p2) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn wide_synthesis_matches_row_path_bitwise() {
        // the tentpole fixture: exact-mode wide (plane-kernel) synthesis
        // must be bitwise identical to the row-at-a-time path — clean,
        // under burst faults (cursor repositioning after the plane fill),
        // with snapshot drops (wide falls back to rows), and with movers
        // (no prepared states, row path throughout) — at 1/4/8 workers.
        let mut bursty = fast_sim(0.9e9);
        bursty.faults = wiforce_channel::faults::FaultConfig {
            burst_prob: 0.2,
            ..wiforce_channel::faults::FaultConfig::none()
        };
        let mut faulty = fast_sim(0.9e9);
        faulty.faults = wiforce_channel::faults::FaultConfig::saturating();
        let mut moving = fast_sim(0.9e9);
        moving
            .scene
            .movers
            .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
        for (name, base) in [
            ("clean", fast_sim(0.9e9)),
            ("bursty", bursty),
            ("faulty", faulty),
            ("movers", moving),
        ] {
            for workers in [1usize, 4, 8] {
                let run = |wide: bool| {
                    let mut sim = base.clone();
                    sim.synth_workers = Some(workers);
                    sim.synth_wide = Some(wide);
                    let mut rng = StdRng::seed_from_u64(21);
                    let mut clock = TagClock::new(&mut rng);
                    let mut noise = PressNoise::from_seed(0xD1CE_0000 + workers as u64);
                    let contact = sim.contact_for(3.0, 0.030);
                    sim.run_snapshots(contact.as_ref(), 3, &mut clock, &mut noise)
                };
                let w = run(true);
                let r = run(false);
                assert_eq!(w.n_rows(), r.n_rows());
                for (i, (x, y)) in w.as_slice().iter().zip(r.as_slice()).enumerate() {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "{name} w{workers} at {i}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "{name} w{workers} at {i}");
                }
            }
        }
    }

    #[test]
    fn wide_fused_lines_match_row_path_bitwise() {
        // the fused synth→spectrum stream must be wide/row agnostic too
        // (the extracted lines are functions of the synthesized bits)
        let contact_sim = fast_sim(0.9e9);
        let contact = contact_sim.contact_for(4.0, 0.040);
        let run = |wide: bool| {
            let mut sim = fast_sim(0.9e9);
            sim.synth_workers = Some(4);
            sim.synth_wide = Some(wide);
            let mut rng = StdRng::seed_from_u64(23);
            let mut clock = TagClock::new(&mut rng);
            let mut noise = PressNoise::from_seed(0xBEEF);
            sim.run_groups(contact.as_ref(), 3, &mut clock, &mut noise)
        };
        let w = run(true);
        let r = run(false);
        assert_eq!(w.len(), r.len());
        for (a, b) in w.iter().zip(&r) {
            for (x, y) in a.p1.iter().chain(&a.p2).zip(b.p1.iter().chain(&b.p2)) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn multi_tag_crosstalk_stays_low_under_parallel_synthesis() {
        // two FMCW tags modulating at different fs share one scene; their
        // backscatter superposes at the reader. Each tag's lines must
        // survive the other's presence — the counter/fused path may not
        // smear energy across tag bins (satellite check for the
        // waveform-agnostic claim under parallel synthesis).
        let mk = |fs: f64| {
            let mut sim = fast_sim(0.9e9).with_fmcw_sounder();
            sim.synth_workers = Some(8);
            sim.tag = wiforce_sensor::SensorTag::wiforce_prototype(fs);
            sim.group.line1_hz = fs;
            sim.group.line2_hz = 4.0 * fs;
            sim
        };
        let sim_a = mk(1000.0);
        let sim_b = mk(1300.0);
        let contact = sim_a.contact_for(4.0, 0.040);

        let synth = |sim: &Simulation, key: u64, contact: Option<&ContactState>| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut clock = TagClock::new(&mut rng);
            let mut noise = PressNoise::from_seed(key);
            sim.run_snapshots(contact, 1, &mut clock, &mut noise)
        };
        let a = synth(&sim_a, 0xA, contact.as_ref());
        let b = synth(&sim_b, 0xB, None);
        // superpose: both matrices contain the static scene once, so the
        // two-tag channel is a + b − statics
        let freqs = sim_a.subcarrier_freqs_hz();
        let statics = ChannelCache::build(&sim_a.scene, &freqs).statics;
        let n_cols = statics.len();
        let combined: Vec<Complex> = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .enumerate()
            .map(|(i, (&x, &y))| x + y - statics[i % n_cols])
            .collect();
        let combined = SnapshotView::from_flat(n_cols, &combined);

        let n = sim_a.group.n_snapshots;
        for (sim, solo) in [(&sim_a, &a), (&sim_b, &b)] {
            let alone = extract_lines(&sim.group, solo.rows_view(0, n), 0.0);
            let both = extract_lines(&sim.group, combined.rows_view(0, n), 0.0);
            let d = differential(&alone, &both, Averaging::Coherent);
            let tol = 5.0f64.to_radians();
            assert!(
                d.dphi1_rad.abs() < tol,
                "fs {} line1 {}",
                sim.group.line1_hz,
                d.dphi1_rad
            );
            assert!(
                d.dphi2_rad.abs() < tol,
                "fs {} line2 {}",
                sim.group.line1_hz,
                d.dphi2_rad
            );
            // and the line power holds up (within 3 dB)
            let ratio = both.mean_power() / alone.mean_power();
            assert!((0.5..2.0).contains(&ratio), "power ratio {ratio}");
        }
    }

    #[test]
    fn vna_phases_zero_below_threshold() {
        let sim = fast_sim(0.9e9);
        assert_eq!(sim.vna_phases(0.0, 0.040), (0.0, 0.0));
    }

    #[test]
    fn vna_phases_monotone_in_force() {
        // as force grows the shorting point moves toward the port, the
        // touched reflection accumulates *less* line phase, and the
        // differential (reference − touched) therefore decreases
        // monotonically past the initial contact jump
        let sim = fast_sim(0.9e9);
        let mut prev = f64::INFINITY;
        for f in [1.0, 2.0, 4.0, 6.0, 8.0] {
            let (p1, _) = sim.vna_phases(f, 0.040);
            assert!(p1 < prev, "{p1} !< {prev} at {f} N");
            prev = p1;
        }
    }

    #[test]
    fn calibration_fits() {
        let sim = fast_sim(0.9e9);
        let model = sim.vna_calibration().unwrap();
        assert_eq!(model.locations_m().len(), 5);
    }

    #[test]
    fn wireless_phases_track_vna() {
        // the central correctness property: the wireless pipeline's
        // differential phases must match the wired VNA ground truth
        let sim = fast_sim(0.9e9);
        let mut rng = StdRng::seed_from_u64(11);
        let (v1, v2) = sim.vna_phases(4.0, 0.040);
        let contact = sim.contact_for(4.0, 0.040);
        let w = sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
        let tol = 3.0f64.to_radians();
        assert!(
            (w.dphi1_rad - v1).abs() < tol,
            "port1 {} vs {}",
            w.dphi1_rad,
            v1
        );
        assert!(
            (w.dphi2_rad - v2).abs() < tol,
            "port2 {} vs {}",
            w.dphi2_rad,
            v2
        );
    }

    #[test]
    fn end_to_end_press_estimation() {
        let sim = fast_sim(2.4e9);
        let model = sim.vna_calibration().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let r = sim.measure_press(&model, 4.0, 0.040, &mut rng).unwrap();
        assert!(r.touched);
        assert!((r.force_n - 4.0).abs() < 1.0, "force {}", r.force_n);
        assert!((r.location_m - 0.040).abs() < 5e-3, "loc {}", r.location_m);
    }

    #[test]
    fn no_press_measures_near_zero_phase() {
        let sim = fast_sim(0.9e9);
        let mut rng = StdRng::seed_from_u64(3);
        let w = sim.measure_phases(None, &mut rng).unwrap();
        assert!(w.dphi1_rad.abs() < 2.0f64.to_radians(), "{}", w.dphi1_rad);
        assert!(w.dphi2_rad.abs() < 2.0f64.to_radians());
    }

    #[test]
    fn phantom_without_plate_fails_detection() {
        // §5.2: without the metal plate the backscatter sits below the
        // ADC floor and the tag cannot be decoded
        let mut sim = fast_sim(0.9e9);
        sim.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let res = sim.measure_phases(None, &mut rng);
        assert!(
            matches!(res, Err(WiForceError::TagNotDetected { .. })),
            "expected detection failure, got {res:?}"
        );
    }

    #[test]
    fn phantom_with_plate_works() {
        let mut sim = fast_sim(0.9e9);
        // ≈50 dB of direct-path knockdown, as in the Fig. 16 experiment
        sim.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 50.0);
        let mut rng = StdRng::seed_from_u64(10);
        let contact = sim.contact_for(4.0, 0.060);
        let w = sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
        let (v1, _) = sim.vna_phases(4.0, 0.060);
        // through the phantom the line SNR is much lower, so allow a few
        // degrees more than over the air (paper: 0.62 N vs 0.56 N median)
        assert!(
            (w.dphi1_rad - v1).abs() < 10.0f64.to_radians(),
            "{} vs {v1}",
            w.dphi1_rad
        );
    }

    #[test]
    fn spectral_phases_track_vna() {
        // accuracy smoke test for the spectral arm: generating the lines
        // directly — no time-domain snapshots — must still land on the
        // wired VNA ground truth within the same tolerance the
        // time-domain paths are held to
        let mut sim = fast_sim(0.9e9);
        sim.synth_spectral = Some(true);
        assert!(
            sim.spectral_eligible(),
            "paper default must be spectral-eligible"
        );
        let (v1, v2) = sim.vna_phases(4.0, 0.040);
        let contact = sim.contact_for(4.0, 0.040);
        let mut rng = StdRng::seed_from_u64(11);
        let w = sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
        let tol = 3.0f64.to_radians();
        assert!((w.dphi1_rad - v1).abs() < tol, "{} vs {v1}", w.dphi1_rad);
        assert!((w.dphi2_rad - v2).abs() < tol, "{} vs {v2}", w.dphi2_rad);
    }

    #[test]
    fn spectral_path_is_bit_deterministic_across_dispatch_knobs() {
        // the spectral walk runs on the calling thread and draws only
        // from counter cursors, so worker count, wide mode, and the
        // channel cache must not move a single bit — and the press must
        // differ from the counter path's realization (proof the dispatch
        // actually took the spectral arm)
        let contact = fast_sim(0.9e9).contact_for(3.0, 0.030);
        let run = |spectral: bool, workers: usize, wide: bool, cache: bool| {
            let mut sim = fast_sim(0.9e9);
            sim.synth_spectral = Some(spectral);
            sim.synth_workers = Some(workers);
            sim.synth_wide = Some(wide);
            sim.use_channel_cache = cache;
            let mut rng = StdRng::seed_from_u64(77);
            let w = sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
            (
                w.dphi1_rad.to_bits(),
                w.dphi2_rad.to_bits(),
                w.line_power.to_bits(),
            )
        };
        let base = run(true, 1, false, true);
        assert_eq!(base, run(true, 1, false, true), "same-seed repeat");
        assert_eq!(base, run(true, 4, true, true), "workers/wide knobs");
        assert_eq!(base, run(true, 8, false, false), "uncached channel");
        assert_ne!(
            base,
            run(false, 1, false, true),
            "spectral press must be a distinct realization from counter"
        );
    }

    #[test]
    fn spectral_dispatch_falls_back_when_ineligible() {
        // movers and faults disqualify the spectral model; the dispatch
        // must silently take the bit-pinned counter path so enabling
        // WIFORCE_SYNTH_SPECTRAL is always safe
        let mut moving = fast_sim(0.9e9);
        moving
            .scene
            .movers
            .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
        let mut bursty = fast_sim(0.9e9);
        bursty.faults = wiforce_channel::faults::FaultConfig {
            burst_prob: 0.2,
            ..wiforce_channel::faults::FaultConfig::none()
        };
        for (name, base) in [("movers", moving), ("bursty", bursty)] {
            let run = |spectral: bool| {
                let mut sim = base.clone();
                sim.synth_spectral = Some(spectral);
                assert!(!sim.spectral_eligible(), "{name} must be ineligible");
                let mut rng = StdRng::seed_from_u64(13);
                let contact = sim.contact_for(3.0, 0.030);
                let w = sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
                (w.dphi1_rad.to_bits(), w.dphi2_rad.to_bits())
            };
            assert_eq!(run(true), run(false), "{name}: fallback diverged");
        }
    }

    #[test]
    fn spectral_floor_probe_detects_missing_tag() {
        // §5.2 detection failure must survive the spectral floor probe:
        // without the metal plate the line-to-floor margin collapses even
        // when both the line and the floor are synthesized spectrally
        let mut sim = fast_sim(0.9e9);
        sim.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 0.0);
        sim.synth_spectral = Some(true);
        assert!(sim.spectral_eligible());
        let mut rng = StdRng::seed_from_u64(9);
        let res = sim.measure_phases(None, &mut rng);
        assert!(
            matches!(res, Err(WiForceError::TagNotDetected { .. })),
            "expected detection failure, got {res:?}"
        );
    }

    #[test]
    fn spectral_press_takes_the_edge_walk() {
        // the paper-default spectral press evaluates the clocks one
        // snapshot at a time only before clock 2's first edge and where
        // an edge nearly meets a snapshot; a group that fell back to a
        // per-snapshot walk would put all of its snapshots on the counter
        let mut sim = Simulation::paper_default(0.9e9);
        sim.synth_spectral = Some(true);
        assert!(sim.spectral_eligible());
        wiforce_telemetry::set_enabled(true);
        wiforce_telemetry::reset();
        let mut rng = StdRng::seed_from_u64(0xED6E);
        for i in 0..16 {
            let contact = sim.jittered_contact(1.0 + 0.4 * i as f64, 0.030, &mut rng);
            sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
        }
        let snap = wiforce_telemetry::take();
        wiforce_telemetry::set_enabled(false);
        let groups = snap.counters["pipeline.spectral_groups"];
        let exact = snap.counters["clock.walk_exact_evals"];
        let snapshots = groups * sim.group.n_snapshots as u64;
        assert!(groups >= 16, "{groups} spectral groups");
        assert!(
            exact * 100 <= snapshots,
            "{exact} exact clock evaluations over {snapshots} snapshots"
        );
    }

    /// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
    /// approximation (|ε| < 1.5e-7 — far below the KS tolerance).
    fn std_normal_cdf(x: f64) -> f64 {
        let z = x / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z.abs());
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-z * z).exp();
        let erf = if z < 0.0 { -erf } else { erf };
        0.5 * (1.0 + erf)
    }

    #[test]
    fn spectral_line_noise_moments_and_ks_match_model() {
        // the spectral arm is accuracy-gated, not bit-pinned, so this
        // fixture checks the *statistics* the unitarity argument
        // promises: across 64 independent press keys the per-bin noise
        // must be circular Gaussian around the deterministic line with
        // per-component std σ_est·√((1−|D̄|²)/N) — first moments, per-bin
        // and pooled second moments, and a KS test of the normalized
        // residuals against N(0,1)
        let mut sim = Simulation::paper_default(2.4e9);
        sim.synth_spectral = Some(true);
        sim.frontend.phase_jitter_rad = 0.0; // isolate additive noise
        sim.frontend.adc_enob_bits = 0; // no quantization term
        sim.tag_clock_wander_ppm = 0.0; // same state walk for every key
        assert!(sim.spectral_eligible());
        let freqs = sim.subcarrier_freqs_hz();
        let n = sim.group.n_snapshots;
        let t_snap = sim.group.snapshot_period_s;
        let sigma_est = sim
            .sounder
            .estimate_noise_sigma(sim.frontend.noise_floor)
            .expect("white estimate noise");

        // modeled per-component std at a line: the mean-subtraction
        // shrink uses the same geometric phasor sum the synth path walks
        let sigma_line = |f_hz: f64| {
            let rot = Complex::cis(-wiforce_dsp::TAU * f_hz * t_snap);
            let mut acc = Complex::ZERO;
            let mut ph = Complex::ONE;
            for _ in 0..n {
                acc += ph;
                ph *= rot;
            }
            let dbar = acc.scale(1.0 / n as f64);
            (sigma_est * sigma_est * (1.0 - dbar.norm_sqr()).max(0.0) / n as f64).sqrt()
        };
        let sigmas = [
            sigma_line(sim.group.line1_hz),
            sigma_line(sim.group.line2_hz),
        ];

        let synth = |sim: &Simulation, seed: u64| -> GroupLines {
            let mut clock_rng = StdRng::seed_from_u64(42);
            let mut clock = TagClock::new(&mut clock_rng);
            let mut noise = PressNoise::from_seed(seed);
            let spec = FusedExtraction {
                cfg: &sim.group,
                floor_cfg: None,
                first_start: clock.reader_time_s(),
            };
            let (mut groups, floor) =
                sim.synth_lines_spectral(&freqs, None, 1, &mut clock, &mut noise, &spec);
            assert!(floor.is_none());
            groups.pop().expect("one group")
        };

        // the noiseless twin pins the deterministic part exactly, so the
        // residuals need no empirical-mean estimate (and the first-moment
        // check is a real one)
        let mut quiet = sim.clone();
        quiet.frontend.noise_floor = 0.0;
        let det = synth(&quiet, 0);

        const SEEDS: u64 = 64;
        let k_sub = freqs.len();
        // residual components per [line][bin]
        let mut comps = vec![vec![Vec::<f64>::new(); k_sub]; 2];
        for seed in 0..SEEDS {
            let lines = synth(&sim, 1000 + seed);
            for (li, (got, want)) in [(&lines.p1, &det.p1), (&lines.p2, &det.p2)]
                .into_iter()
                .enumerate()
            {
                for k in 0..k_sub {
                    let r = got[k] - want[k];
                    comps[li][k].push(r.re);
                    comps[li][k].push(r.im);
                }
            }
        }

        let mut z_all = Vec::new();
        for li in 0..2 {
            let sigma = sigmas[li];
            assert!(sigma > 0.0);
            for (k, samples) in comps[li].iter().enumerate() {
                let m = samples.len() as f64;
                let mean = samples.iter().sum::<f64>() / m;
                // first moment: the sample mean of S·2 components sits
                // within 5 standard errors of zero
                assert!(
                    mean.abs() < 5.0 * sigma / m.sqrt(),
                    "line {li} bin {k}: residual mean {mean:e} vs σ {sigma:e}"
                );
                // per-bin second moment: χ² spread over 128 samples is
                // ~12% relative, so [0.55, 1.6] is a 4σ band
                let var = samples.iter().map(|x| x * x).sum::<f64>() / m;
                let ratio = var / (sigma * sigma);
                assert!(
                    (0.55..1.6).contains(&ratio),
                    "line {li} bin {k}: variance ratio {ratio}"
                );
                z_all.extend(samples.iter().map(|x| x / sigma));
            }
        }

        // pooled second moment: 16k samples pin the global scale to ~1%
        let m = z_all.len() as f64;
        let pooled = z_all.iter().map(|z| z * z).sum::<f64>() / m;
        assert!(
            (0.94..1.06).contains(&pooled),
            "pooled variance ratio {pooled}"
        );

        // KS against N(0,1) — α ≈ 0.001 critical value is 1.95/√M
        z_all.sort_by(f64::total_cmp);
        let mut d_max = 0.0f64;
        for (i, z) in z_all.iter().enumerate() {
            let cdf = std_normal_cdf(*z);
            let lo = i as f64 / m;
            let hi = (i + 1) as f64 / m;
            d_max = d_max.max((cdf - lo).abs()).max((hi - cdf).abs());
        }
        assert!(
            d_max < 2.0 / m.sqrt(),
            "KS statistic {d_max} over {m} samples"
        );
    }

    #[test]
    fn average_lines_averages() {
        let g1 = GroupLines {
            p1: vec![Complex::ONE],
            p2: vec![Complex::ZERO],
        };
        let g2 = GroupLines {
            p1: vec![Complex::I],
            p2: vec![Complex::ZERO],
        };
        let avg = average_lines(&[g1, g2]);
        assert!((avg.p1[0] - Complex::new(0.5, 0.5)).abs() < 1e-12);
    }
}
