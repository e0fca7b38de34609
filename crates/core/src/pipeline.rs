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
    emit_extraction_telemetry, finish_group, fold_block, ExtractionMethod, GroupLines,
    PhaseGroupConfig, PrefixPhasors,
};
use crate::{parallel, WiForceError};
use rand::Rng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wiforce_channel::cache::{config_token, ChannelCache, SharedChannelCache};
use wiforce_channel::faults::FaultConfig;
use wiforce_channel::{Frontend, Scene, StaticMultipath};
use wiforce_dsp::kernels::LineTerms;
use wiforce_dsp::rng::{standard_normal, CounterRng};
use wiforce_dsp::{Complex, SnapshotMatrix, SnapshotView};
use wiforce_mech::contact::ContactSolver;
use wiforce_mech::{AnalyticContactModel, ContactPatch, ForceTransducer, Indenter, SensorMech};
use wiforce_reader::fmcw::FmcwSounder;
use wiforce_reader::sounder::sound_rows;
use wiforce_reader::{ChannelSounder, OfdmSounder};
use wiforce_sensor::tag::{ContactState, ResponsePlan};
use wiforce_sensor::{ClockPair, SensorTag};
use wiforce_telemetry::trace;

/// Snapshot rows per synthesis chunk: the unit of work handed to a
/// synthesis worker and of one sounder block call. Counter noise
/// is addressed by `(key, group, snapshot, lane)`, so the width changes
/// scheduling only, never the output bits.
pub const CHUNK_ROWS: usize = 64;

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

    fn response_token(&self) -> u64 {
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
    /// Worker threads for counter synthesis. `None` takes the machine's
    /// parallelism (see [`crate::parallel::default_workers`]); results
    /// are bit-identical at any setting.
    pub synth_workers: Option<usize>,
    /// Spectral-domain direct line synthesis: skip the time-domain
    /// snapshots entirely and generate the harmonic spectral lines at the
    /// consumed bins — the deterministic tag/scene contribution from a
    /// closed-form state walk, the noise from Philox draws keyed
    /// `(press key, group, bin)` (DFT unitarity: white time-domain
    /// estimate noise is white at every line). `None` means the
    /// time-domain arm, as does `Some(false)`. The spectral path is
    /// *not* bit-identical to the time-domain reference — it is
    /// distribution-equivalent and accuracy-gated by fixtures — so the
    /// time-domain counter path remains the bit-pinned reference. Falls
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
            synth_workers: None,
            synth_spectral: None,
            channel_cache: SharedChannelCache::new(),
        }
    }

    /// Whether time-domain snapshots come from the sounder's estimate
    /// law ([`ChannelSounder::estimate_noise_sigma`] is `Some`: OFDM)
    /// rather than from its estimator run once per snapshot (FMCW). A
    /// property of the sounder, not a switch; see
    /// [`wiforce_reader::sounder::sound_rows`].
    pub fn synth_wide_enabled(&self) -> bool {
        self.sounder
            .estimate_noise_sigma(self.frontend.noise_floor)
            .is_some()
    }

    /// Resolves the spectral-synthesis flag: the explicit field, else off.
    /// This is an accuracy-class switch,
    /// not a pure speed knob: the spectral path is distribution-equivalent
    /// (fixture gated), not bit-identical, so it never defaults on.
    pub fn synth_spectral_enabled(&self) -> bool {
        self.synth_spectral.unwrap_or(false)
    }

    /// Whether this configuration is inside the spectral path's validity
    /// envelope. The closed-form line model needs: the mean-subtracted
    /// DFT extraction (the model *is* that transform), a static scene
    /// (movers make the per-snapshot truth time-varying), no
    /// snapshot-drop or burst faults (both act on whole time-domain
    /// rows), and a sounder with white uniform estimate noise
    /// ([`ChannelSounder::estimate_noise_sigma`]). Anything else falls
    /// back to the time-domain counter path.
    pub fn spectral_eligible(&self) -> bool {
        self.spectral_eligible_under(&self.faults)
    }

    /// [`Self::spectral_eligible`] with `faults` in place of the
    /// configuration's own (the batch engine injects per-reader faults).
    pub(crate) fn spectral_eligible_under(&self, faults: &FaultConfig) -> bool {
        self.group.method == ExtractionMethod::MeanSubtractedDft
            && self.scene.movers.is_empty()
            && faults.snapshot_drop_prob == 0.0
            && faults.burst_prob == 0.0
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

    /// Emits the channel cache's cumulative response-table hit rate as a
    /// gauge, for health reports.
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
        self.em_plan(cache, self.tag_token()).table(contact)
    }

    /// The tag's [`ResponsePlan`] on `cache`'s grid, memoized on the cache
    /// entry under the tag token `token` ([`Self::tag_token`]).
    fn em_plan(&self, cache: &ChannelCache, token: u64) -> Arc<ResponsePlan> {
        cache.response_tables(token, EM_PLAN_SALT, || {
            self.tag.response_plan(&cache.freqs_hz)
        })
    }

    /// Builds the four per-tag-state true channels of a static scene,
    /// state-major (`4 × grid`).
    ///
    /// The untouched table (`untouched`) is press-invariant, so its state
    /// rows sit in the channel-cache entry's response memo under
    /// `(tag token, `[`ChannelSounder::response_token`]`)`: every
    /// reference press skips the truth evaluation. A contact table's
    /// states are built inline and never memoized. Cached and rebuilt
    /// rows are bit-identical, which the cache-equivalence fixtures pin.
    fn state_truths(
        &self,
        tables: &PressTables,
        table: &[[Complex; 4]],
        untouched: bool,
    ) -> Arc<Vec<Complex>> {
        let cache = &tables.cache;
        let _s = wiforce_telemetry::span!("pipeline.state_truths");
        let n_cols = cache.statics.len();
        let build = || -> Vec<Complex> {
            let mut rows = vec![Complex::ZERO; 4 * n_cols];
            for (state, row) in rows.chunks_exact_mut(n_cols).enumerate() {
                wiforce_dsp::kernels::synth_truth(row, &cache.statics, &cache.gains, table, state);
            }
            rows
        };
        if untouched {
            cache.response_tables(tables.token, self.sounder.response_token(), build)
        } else {
            Arc::new(build())
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
    /// bit-identical at any worker count and SIMD dispatch. Successive
    /// calls on one `noise` continue
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
        self.synth_counter(
            &mut None,
            &freqs,
            contact,
            n_groups,
            clock_state,
            noise,
            RowSink::Rows(out),
        );
    }

    /// Fetches the press-invariant state of [`PressTables`]: the scene's
    /// channel-cache entry on the grid `freqs` (`pipeline.channel_setup`),
    /// then the tag token and EM plan (`pipeline.em_transduction`).
    fn press_tables(&self, freqs: &[f64]) -> PressTables {
        let cache = {
            let _s = wiforce_telemetry::span!("pipeline.channel_setup");
            self.channel_cache.get_or_build(&self.scene, freqs)
        };
        let _s = wiforce_telemetry::span!("pipeline.em_transduction");
        let token = self.tag_token();
        let plan = self.em_plan(&cache, token);
        PressTables {
            cache,
            token,
            plan,
            untouched_spectra: None,
            tag_prefix: None,
            floor_prefix: None,
            normals: Vec::new(),
        }
    }

    /// Walks the tag clock through `n_groups` phase groups, each planned
    /// by [`TagClock::plan_group`] from its own group cursor. The walk is
    /// inherently sequential but cheap (one wander draw per group), so it
    /// runs on the calling thread: the time-domain engine collects the
    /// plans before any group is synthesized, the spectral arm walks them
    /// as it goes.
    fn plan_groups<'a>(
        &'a self,
        n_groups: usize,
        clock_state: &'a mut TagClock,
        noise: &'a mut PressNoise,
    ) -> impl Iterator<Item = GroupPlan> + 'a {
        (0..n_groups).map(move |_| {
            let group_id = noise.take_group();
            clock_state.plan_group(
                group_id,
                &mut CounterRng::for_group(noise.key, group_id),
                self.tag_clock_wander_ppm,
                self.faults.tag_clock_ppm,
                self.tag.clocks.base_freq_hz(),
                &self.group,
            )
        })
    }

    /// The parallel counter-addressed synthesis engine behind
    /// [`Self::run_snapshots_into`] and the time-domain press.
    ///
    /// The calling thread lays out per-group plans ([`Self::plan_groups`]),
    /// then the groups become a bag of disjoint row-range chunks executed
    /// by [`parallel::run_chunks`]. Each block of a chunk goes through
    /// [`SoundingStep::sound_block`], which owns the per-snapshot draw
    /// order, so the result is a pure function of the press key regardless
    /// of worker count or chunk interleaving.
    ///
    /// `sink` says where a sounded block goes: into the caller's matrix,
    /// or — for a press — into the worker's block buffer ([`BLOCK`]),
    /// folded at once into its group's line partials ([`fold_block`]),
    /// group 0's floor-probe bins included. Blocks start at multiples of
    /// [`CHUNK_ROWS`] from the group start, so the partials never depend
    /// on the chunking; the calling thread then finishes each group from
    /// its partials in block order ([`finish_group`]). Workers record like
    /// any thread, and [`parallel::run_chunks`] replays their recordings
    /// in chunk order.
    ///
    /// `tables` is the press's [`PressTables`] slot: fetched here when
    /// empty, reused as is otherwise.
    #[allow(clippy::too_many_arguments)]
    fn synth_counter(
        &self,
        tables: &mut Option<PressTables>,
        freqs: &[f64],
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
        sink: RowSink<'_>,
    ) -> (Vec<GroupLines>, Option<GroupLines>) {
        let _span = wiforce_telemetry::span!("pipeline.run_snapshots");
        let tables = tables.get_or_insert_with(|| self.press_tables(freqs));
        let table = tables.contact_table(contact);
        let n = self.group.n_snapshots;
        let t_snap = self.group.snapshot_period_s;
        let has_movers = !self.scene.movers.is_empty();
        let key = noise.key;

        let state_truths: Option<Arc<Vec<Complex>>> =
            (!has_movers).then(|| self.state_truths(tables, &table, contact.is_none()));
        let plans: Vec<GroupPlan> = self.plan_groups(n_groups, clock_state, noise).collect();
        let PressTables {
            cache,
            tag_prefix,
            floor_prefix,
            ..
        } = tables;
        let cache: &ChannelCache = cache;
        let statics = &cache.statics;
        let gains = &cache.gains;
        let n_cols = statics.len();

        let (region_ptr, fused) = match sink {
            RowSink::Rows(out) => {
                out.set_width(n_cols);
                (out.extend_rows(n_groups * n).as_mut_ptr() as usize, None)
            }
            RowSink::Lines(spec) => (0, Some(spec)),
        };
        // the folded bins' phasor tables: the lines', then the floor
        // probe's, which only group 0 folds
        let mut bins: Vec<&PrefixPhasors> = Vec::new();
        let mut n_tag = 0;
        if let Some(spec) = fused {
            let tag = fold_tables(cache, tag_prefix, spec.cfg);
            let floor = spec
                .floor_cfg
                .map(|fc| fold_tables(cache, floor_prefix, fc));
            n_tag = tag.len();
            bins.extend(tag.iter().chain(floor.into_iter().flatten()));
        }
        let bins_of = |g: usize| if g == 0 { &bins[..] } else { &bins[..n_tag] };
        if n_groups == 0 || n == 0 {
            return (Vec::new(), None);
        }
        // snapshot drops hold the previous *row*, so a group with drops
        // enabled must synthesize in order as one chunk (the fallback for
        // a drop on a group's first snapshot is the noiseless truth — the
        // boundary is per group, which keeps groups independent)
        let chunk_rows = if self.faults.snapshot_drop_prob > 0.0 {
            n
        } else {
            CHUNK_ROWS.min(n)
        };
        let chunks_per_group = n.div_ceil(chunk_rows);
        let n_chunks = n_groups * chunks_per_group;

        // line partials, group after group, one slab per block: the
        // column sums, then one row per folded bin
        let n_blocks = n.div_ceil(CHUNK_ROWS);
        let slab_len = |g: usize| (1 + bins_of(g).len()) * n_cols;
        let group_at = |g: usize| match g {
            0 => 0,
            _ => n_blocks * (slab_len(0) + (g - 1) * slab_len(1)),
        };
        let mut partials = vec![Complex::ZERO; fused.map_or(0, |_| group_at(n_groups))];
        let partials_ptr = partials.as_mut_ptr() as usize;
        let flow_id = |group_id: u32, c: usize| (u64::from(group_id) << 16) | c as u64;

        let exact_evals = AtomicU64::new(0);
        let dropped = AtomicU64::new(0);
        let bursts = AtomicU64::new(0);
        let step = SoundingStep {
            sounder: &self.sounder,
            frontend: &self.frontend,
            faults: &self.faults,
            cache,
        };

        // Synthesizes rows [s0, s1) of group `g` — one chunk of the work
        // bag — in blocks of at most CHUNK_ROWS rows: the block's tag
        // states (or its truth plane when movers make every snapshot's
        // channel distinct), then one sound_block call into the sink.
        // Per-block tables live on the stack; local tallies flush to the
        // shared atomics per call.
        let synth_rows = |g: usize, s0: usize, s1: usize, buf: &mut Vec<Complex>| {
            let plan = &plans[g];
            let mut tally = BlockTally::default();
            let mut l_exact = 0;
            let mut truths = Vec::new();
            let mut b0 = s0;
            while b0 < s1 {
                let b1 = (b0 + CHUNK_ROWS).min(s1);
                let rows = b1 - b0;
                let mut st = [0u8; CHUNK_ROWS];
                let mut runs = self.tag.clocks.runs(plan.t_tag0, plan.dt_eff, b0..b1);
                let mut filled = 0;
                for (state, len) in runs.by_ref() {
                    st[filled..filled + len].fill(state as u8);
                    filled += len;
                }
                l_exact += runs.exact_evals();
                let st = &st[..rows];
                let truth = match state_truths.as_deref() {
                    Some(states) => BlockTruth::States(states, st),
                    None => {
                        let _eval = wiforce_telemetry::span!("pipeline.channel_eval");
                        truths.resize(rows * n_cols, Complex::ZERO);
                        for (r, truth) in truths.chunks_exact_mut(n_cols).enumerate() {
                            let t_reader = plan.t_reader0 + (b0 + r) as f64 * t_snap;
                            for (k, h) in truth.iter_mut().enumerate() {
                                *h = statics[k]
                                    + gains[k] * table[k][usize::from(st[r])]
                                    + self.scene.dynamic_response(freqs[k], t_reader);
                            }
                        }
                        BlockTruth::Plane(&truths)
                    }
                };
                if fused.is_none() {
                    // Safety: callers hand each invocation a row range no
                    // other in-flight invocation overlaps — chunk ranges
                    // are disjoint by construction — and the region
                    // outlives the run_chunks call.
                    let chunk = unsafe {
                        std::slice::from_raw_parts_mut(
                            (region_ptr as *mut Complex).add((g * n + s0) * n_cols),
                            (s1 - s0) * n_cols,
                        )
                    };
                    let block = (b0 - s0)..(b1 - s0);
                    step.sound_block((key, plan.group_id, s0), block, truth, chunk, &mut tally);
                    b0 = b1;
                    continue;
                }
                // row 0 of the buffer holds the row before the block: the
                // one a drop on the block's first row holds (drops make a
                // group one chunk, so it is this chunk's previous block);
                // a drop on the group's first row holds its truth
                buf.resize((CHUNK_ROWS + 1) * n_cols, Complex::ZERO);
                let (snap0, block, region) = match b0 {
                    0 => (0, 0..rows, &mut buf[n_cols..]),
                    _ => (b0 - 1, 1..rows + 1, &mut buf[..]),
                };
                step.sound_block(
                    (key, plan.group_id, snap0),
                    block,
                    truth,
                    region,
                    &mut tally,
                );
                let len = slab_len(g);
                // Safety: the (group, block) slab belongs to the one
                // invocation that sounds the block, and the partials
                // outlive the run_chunks call.
                let slab = unsafe {
                    std::slice::from_raw_parts_mut(
                        (partials_ptr as *mut Complex).add(group_at(g) + b0 / CHUNK_ROWS * len),
                        len,
                    )
                };
                let block_rows = SnapshotView::from_flat(n_cols, &buf[n_cols..(rows + 1) * n_cols]);
                let fold = wiforce_telemetry::span!("harmonics.extract_lines");
                fold_block(block_rows, b0, bins_of(g), slab);
                drop(fold);
                buf.copy_within(rows * n_cols..(rows + 1) * n_cols, 0);
                b0 = b1;
            }
            exact_evals.fetch_add(l_exact, Ordering::Relaxed);
            if tally.dropped > 0 {
                dropped.fetch_add(tally.dropped, Ordering::Relaxed);
            }
            if tally.bursts > 0 {
                bursts.fetch_add(tally.bursts, Ordering::Relaxed);
            }
        };

        let workers = self.synth_workers.unwrap_or_else(parallel::default_workers);
        let worker = |ci: usize| {
            let g = ci / chunks_per_group;
            let c = ci % chunks_per_group;
            let s0 = c * chunk_rows;
            let s1 = ((c + 1) * chunk_rows).min(n);
            BLOCK.with_borrow_mut(|buf| synth_rows(g, s0, s1, buf));
            if fused.is_some() {
                // flow arrows tie every synthesis chunk to its group's
                // finish; ids are (group_id, chunk) so arrows from
                // different groups never merge
                trace::flow_start("synth.handoff", flow_id(plans[g].group_id, c));
            }
        };
        parallel::run_chunks(workers, n_chunks, &worker);

        // the fault counters are declared even on clean runs (an add of 0
        // never double-counts)
        let total_dropped = dropped.into_inner();
        wiforce_telemetry::counter!("faults.snapshots_dropped", total_dropped);
        wiforce_telemetry::counter!("faults.bursts_injected", bursts.into_inner());

        let mut lines = Vec::new();
        let mut floor = None;
        if let Some(spec) = fused {
            let group_s = n as f64 * t_snap;
            for (g, plan) in plans.iter().enumerate() {
                if trace::trace_enabled() {
                    for c in 0..chunks_per_group {
                        trace::flow_end("synth.handoff", flow_id(plan.group_id, c));
                    }
                }
                let _finish = wiforce_telemetry::span!("harmonics.extract_lines");
                let (group, probe) = finish_group(
                    spec.cfg,
                    spec.floor_cfg.filter(|_| g == 0),
                    bins_of(g),
                    &partials[group_at(g)..group_at(g + 1)],
                    n_cols,
                    spec.first_start + g as f64 * group_s,
                );
                emit_extraction_telemetry(spec.cfg, &group);
                lines.push(group);
                floor = floor.or(probe);
            }
        }

        if wiforce_telemetry::enabled() {
            let total = (n_groups * n) as u64;
            let yielded = total.saturating_sub(total_dropped);
            wiforce_telemetry::counter!("pipeline.snapshots_total", total);
            wiforce_telemetry::counter!("clock.walk_exact_evals", exact_evals.into_inner());
            wiforce_telemetry::gauge!("pipeline.snapshot_yield", yielded as f64 / total as f64);
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
    /// with each sounded block folded into line partials on the synthesis
    /// workers.
    pub fn measure_phases<R: Rng>(
        &self,
        contact: Option<&ContactState>,
        rng: &mut R,
    ) -> Result<DiffPhases, WiForceError> {
        let _span = wiforce_telemetry::span!("pipeline.measure_phases");
        if self.reference_groups == 0 || self.measure_groups == 0 || self.group.n_snapshots == 0 {
            return Err(WiForceError::Config(format!(
                "a press needs reference groups, measurement groups and snapshots \
                 (reference_groups {}, measure_groups {}, n_snapshots {})",
                self.reference_groups, self.measure_groups, self.group.n_snapshots
            )));
        }
        let mut clock = TagClock::new(rng);
        let mut noise = PressNoise::from_rng(rng);
        // the subcarrier grid is press-invariant: computed once and shared
        // by both synthesis calls
        let freqs = self.subcarrier_freqs_hz();
        let spectral = self.synth_spectral_enabled() && self.spectral_eligible();
        // fetched by the reference call, reused by the measurement call
        let mut tables: Option<PressTables> = None;
        // `spent`: groups whose buffers the spectral arm may reuse
        let mut synth_groups = |contact: Option<&ContactState>,
                                n_groups: usize,
                                floor_cfg: Option<&PhaseGroupConfig>,
                                spent: Vec<GroupLines>| {
            let spec = FusedExtraction {
                cfg: &self.group,
                floor_cfg,
                first_start: clock.reader_time_s(),
            };
            if spectral {
                self.synth_lines_spectral(
                    &mut tables,
                    &freqs,
                    contact,
                    n_groups,
                    &mut clock,
                    &mut noise,
                    &spec,
                    spent,
                )
            } else {
                self.synth_counter(
                    &mut tables,
                    &freqs,
                    contact,
                    n_groups,
                    &mut clock,
                    &mut noise,
                    RowSink::Lines(&spec),
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
        let (mut refs, floor_lines) =
            synth_groups(None, self.reference_groups, Some(&off_cfg), Vec::new());
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

        // the averaged reference is all that is left of `refs`: the
        // measurement groups take over its buffers
        let (mut meass, _) = synth_groups(contact, self.measure_groups, None, refs);
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
    /// Per group, [`state_sums`] sums the state runs of the exact group
    /// plan the time-domain path uses (wander, drift, fractional start
    /// phase) over memoized prefix tables in O(edges), and the shared
    /// finisher [`SpectralLines`] turns the sums into each consumed line,
    /// with `D̄ = P[N]/N`.
    ///
    /// All draws are pure functions of `(press key, group, bin, lane)`
    /// and the walk runs on the calling thread, so the output is
    /// bit-deterministic across worker counts and SIMD dispatch arms.
    /// The result is distribution-equivalent — not bit-identical — to
    /// time-domain synthesis + extraction, and is gated by statistical
    /// and end-to-end accuracy fixtures.
    ///
    /// `tables` is the press's [`PressTables`] slot, filled here as on
    /// [`Self::synth_counter`]; every call sharing it takes the same
    /// `spec.cfg` (its tag-line prefix tables are fetched once). The
    /// returned groups are written into `spent`'s Vec and line buffers
    /// (a press's measurement call takes its reference call's groups),
    /// so only groups and lines beyond those allocate.
    #[allow(clippy::too_many_arguments)]
    fn synth_lines_spectral(
        &self,
        tables: &mut Option<PressTables>,
        freqs: &[f64],
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
        spec: &FusedExtraction<'_>,
        spent: Vec<GroupLines>,
    ) -> (Vec<GroupLines>, Option<GroupLines>) {
        let _span = wiforce_telemetry::span!("pipeline.spectral_lines");
        let tables = tables.get_or_insert_with(|| self.press_tables(freqs));
        let table = tables.contact_table(contact);
        let PressTables {
            cache,
            token,
            untouched_spectra,
            tag_prefix: tag_slot,
            floor_prefix: floor_slot,
            normals,
            ..
        } = tables;
        let k_sub = cache.statics.len();
        let n = self.group.n_snapshots;
        let t_snap = self.group.snapshot_period_s;
        let sigma_est = self
            .sounder
            .estimate_noise_sigma(self.frontend.noise_floor)
            .expect("spectral path gated on white estimate noise");

        // per-state backscatter spectra: the untouched ones are
        // press-invariant and memoized beside the EM plan (salted key,
        // distinct value type); a contact's are built inline
        let build_spectra = || {
            let mut rows = Vec::new();
            fill_state_spectra(&cache.gains, &table, &mut rows);
            rows
        };
        let spectra = if contact.is_none() {
            Arc::clone(untouched_spectra.get_or_insert_with(|| {
                cache.response_tables(*token, SPECTRAL_TABLE_SALT, build_spectra)
            }))
        } else {
            Arc::new(build_spectra())
        };

        // the two lines' prefix tables (the mean-subtracted DFT folds
        // exactly its lines)
        let tag_prefix = fold_tables(cache, tag_slot, spec.cfg);
        let floor_prefix = spec.floor_cfg.map(|fc| fold_tables(cache, floor_slot, fc));

        let group_s = n as f64 * t_snap;
        let mut lines_of = SpectralLines {
            statics: &cache.statics,
            spectra: &spectra,
            var_row: spectral_row_var(sigma_est, &self.frontend, cache.full_scale),
            jitter_rad: self.frontend.phase_jitter_rad,
            n,
            start_s: 0.0,
            key: noise.key,
            group_id: 0,
        };
        let mut groups = spent;
        groups.truncate(n_groups);
        groups.reserve(n_groups - groups.len());
        let mut floor_out: Option<GroupLines> = None;
        let mut exact_evals = 0;
        for (g, plan) in self.plan_groups(n_groups, clock_state, noise).enumerate() {
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

            let (p1, p2) = (&tag_prefix[0], &tag_prefix[1]);
            let tables: [&PrefixPhasors; 4] = match floor_prefix {
                Some(f) if with_floor => [p1, p2, &f[0], &f[1]],
                _ => [p1, p2, p1, p2],
            };
            let sums = state_sums(&self.tag.clocks, plan.t_tag0, plan.dt_eff, &tables[..nf]);
            exact_evals += sums.exact_evals;
            lines_of.start_s = spec.first_start + g as f64 * group_s;
            lines_of.group_id = plan.group_id;
            // integer counts convert to f64 exactly
            let counts = sums.counts.map(|c| c as f64);
            let mut line = |fi: usize, out: &mut Vec<Complex>| {
                out.resize(k_sub, Complex::ZERO);
                let dbar = tables[fi].total().scale(1.0 / n as f64);
                lines_of.finish(line_hz[fi], &sums.e[fi], &counts, dbar, normals, out);
            };
            if g == groups.len() {
                groups.push(GroupLines {
                    p1: Vec::new(),
                    p2: Vec::new(),
                });
            }
            let lines = &mut groups[g];
            line(0, &mut lines.p1);
            line(1, &mut lines.p2);
            if with_floor {
                let mut floor = GroupLines {
                    p1: Vec::new(),
                    p2: Vec::new(),
                };
                line(2, &mut floor.p1);
                line(3, &mut floor.p2);
                floor_out = Some(floor);
            }
            wiforce_telemetry::counter!("pipeline.spectral_groups", 1);
            emit_extraction_telemetry(spec.cfg, &groups[g]);
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
/// key (drawn once per press from the caller's `Rng`, or once per batch
/// reader from its seed) plus the running group index. Every Gaussian the synthesis consumes is a pure function
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

    /// The next group index, consumed.
    pub(crate) fn take_group(&mut self) -> u32 {
        let group = self.next_group;
        self.next_group = group.wrapping_add(1);
        group
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

/// Memo salt of a line set's [`PrefixPhasors`] tables among the
/// `response_tables` entries, whose token is the [`config_token`] of
/// (fold bins' Hz, snapshot period, N) (`b"prefix01"` as a u64).
const PREFIX_TABLE_SALT: u64 = 0x7072_6566_6978_3031;

/// Per-state line phasor sums of one phase group; see [`state_sums`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateSums {
    /// `e[line][σ] = E_σ(ω) = Σ_{s in state σ} e^{-jωs}` for each line
    /// asked for (unused lines stay zero), states indexed
    /// `on1 | on2 << 1`.
    pub e: [[Complex; 4]; 4],
    /// `n_σ`: the snapshots in each state.
    pub counts: [u64; 4],
    /// Clock evaluations the walk took exactly (`clock.walk_exact_evals`).
    pub exact_evals: u64,
}

/// The per-state sums `E_σ(ω)` and counts `n_σ` of the group whose
/// snapshot `s` samples the drive at `t0 + s·dt`, for up to four lines
/// given by their prefix tables (all over the same `N`), in O(edges):
/// each state run `[a, b)` of [`ClockPair::runs`] adds `P[b] − P[a]` to
/// its state's sum and `b − a` to its count.
pub fn state_sums(clocks: &ClockPair, t0: f64, dt: f64, lines: &[&PrefixPhasors]) -> StateSums {
    assert!((1..=4).contains(&lines.len()), "one to four lines per walk");
    let n = lines[0].snapshots();
    debug_assert!(lines.iter().all(|p| p.snapshots() == n), "one N per walk");
    let mut runs = clocks.runs(t0, dt, 0..n);
    let mut e = [[Complex::ZERO; 4]; 4];
    let mut counts = [0u64; 4];
    let mut start = 0;
    for (state, len) in runs.by_ref() {
        let r = start..start + len;
        counts[state] += len as u64;
        for (el, p) in e.iter_mut().zip(lines) {
            el[state] += p.over(&r);
        }
        start = r.end;
    }
    StateSums {
        e,
        counts,
        exact_evals: runs.exact_evals(),
    }
}

/// Fills `rows` with the per-state backscatter spectra `B_σ[k]` at
/// `σ·k_sub + k`: `gains[k]·table[k][σ]`, the estimate of a tag held in
/// state σ for a whole snapshot, statics excluded.
pub(crate) fn fill_state_spectra(
    gains: &[Complex],
    table: &[[Complex; 4]],
    rows: &mut Vec<Complex>,
) {
    rows.clear();
    for state in 0..4 {
        rows.extend(gains.iter().zip(table).map(|(g, t)| *g * t[state]));
    }
}

/// The per-snapshot, per-component variance a spectral line source
/// projects onto its lines: the sounder's estimate noise `σ_est²` plus
/// ADC quantization as additive uniform noise of variance `step²/12`,
/// valid when the front-end jitter dithers ≳1 LSB.
pub(crate) fn spectral_row_var(sigma_est: f64, frontend: &Frontend, full_scale: f64) -> f64 {
    let step = if frontend.adc_enob_bits > 0 && full_scale > 0.0 {
        2.0 * full_scale / (1u64 << frontend.adc_enob_bits.min(62)) as f64
    } else {
        0.0
    };
    sigma_est * sigma_est + step * step / 12.0
}

/// The line finisher both spectral line sources share: one phase group
/// of one tag. The press arm and the batch producer differ only in where
/// the sums `E_σ` and counts `n_σ` come from: the press samples the drive
/// state at each snapshot instant ([`state_sums`]), the batch weights
/// each state by its share of the sounder's integration window.
pub(crate) struct SpectralLines<'a> {
    /// Static channel per subcarrier.
    pub statics: &'a [Complex],
    /// Per-state backscatter spectra `B_σ[k]` ([`fill_state_spectra`]).
    pub spectra: &'a [Complex],
    /// Per-snapshot estimate-noise variance per component
    /// ([`spectral_row_var`]).
    pub var_row: f64,
    /// Per-snapshot common-mode phase jitter σ_θ, rad RMS.
    pub jitter_rad: f64,
    /// Snapshots in the group, `N`.
    pub n: usize,
    /// Reader time of the group's first snapshot, s: the lines' phase
    /// reference.
    pub start_s: f64,
    /// Philox address of the group's draws: each line's cursor is
    /// `(key, group_id, spectral_bin_id(line))`.
    pub key: u64,
    pub group_id: u32,
}

impl SpectralLines<'_> {
    /// Writes into `out` the consumed line at `f_hz` (`ω = 2π·f·T`),
    /// given its per-state sums `e[σ] = E_σ(ω)`, the state counts `n_σ`
    /// and the mean line phasor `D̄(ω) = (Σ_s e^{-jωs})/N`. The
    /// mean-subtracted DFT is linear, so the line splits into
    ///
    /// - a **deterministic** term `Σ_σ B_σ[k]·W_σ(ω)` with
    ///   `W_σ = (E_σ − n_σ·D̄)/N` (statics cancel exactly under mean
    ///   subtraction);
    /// - a **noise** term: by DFT unitarity, white per-snapshot noise of
    ///   per-component variance `var_row` lands on the mean-subtracted
    ///   line as circular Gaussian with per-component std
    ///   `√(var_row·(1−|D̄|²)/N)`, one complex normal per subcarrier from
    ///   the line's Philox cursor (one counter block per value, both
    ///   Box–Muller components);
    /// - a **common-mode jitter** term: per-snapshot phase jitter `θ_s`
    ///   contributes `i·meanP[k]·J(ω)`, with the group's mean row
    ///   `meanP[k] = statics[k] + Σ_σ B_σ[k]·n_σ/N` and one shared
    ///   `J ~ CN(0, σ_θ²·(1−|D̄|²)/N)` per line — the cursor's
    ///   `k_sub`-th complex normal — preserving the cross-subcarrier
    ///   correlation the time path produces. At integer bins below N/2
    ///   (`D̄ = 0`) the DFTs of white real θ are independent circular
    ///   Gaussians of exactly that variance, so one draw per bin has the
    ///   time path's joint law.
    ///
    /// The whole line is rotated by the reference `e^{-j2πf·start_s}`.
    /// This computes the per-line scalars and the draws; the
    /// per-subcarrier loop is the dispatched
    /// [`wiforce_dsp::kernels::spectral_line`].
    pub(crate) fn finish(
        &self,
        f_hz: f64,
        e: &[Complex; 4],
        counts: &[f64; 4],
        dbar: Complex,
        normals: &mut Vec<Complex>,
        out: &mut [Complex],
    ) {
        let k_sub = self.statics.len();
        let inv_n = 1.0 / self.n as f64;
        let w: [Complex; 4] = std::array::from_fn(|q| (e[q] - dbar.scale(counts[q])).scale(inv_n));
        let shrink = (1.0 - dbar.norm_sqr()).max(0.0);
        let sigma_line = (self.var_row * shrink * inv_n).sqrt();
        let sigma_jit = self.jitter_rad * (shrink * inv_n * 0.5).sqrt();
        let reference = Complex::cis(-wiforce_dsp::TAU * f_hz * self.start_s);
        let mut cursor = CounterRng::for_spectral(
            self.key,
            self.group_id,
            wiforce_dsp::rng::spectral_bin_id(f_hz),
        );
        normals.clear();
        normals.resize(k_sub + 1, Complex::ZERO);
        cursor.fill_complex_normals(normals);
        let terms = LineTerms {
            cbar: counts.map(|c| c * inv_n),
            w,
            sigma_line,
            jitter: normals[k_sub].scale(sigma_jit),
            reference,
        };
        let spectra = std::array::from_fn(|state| &self.spectra[state * k_sub..][..k_sub]);
        wiforce_dsp::kernels::spectral_line(out, self.statics, spectra, normals, &terms);
    }
}

/// Closed-form per-group clock ([`TagClock::plan_group`]): snapshot `s`
/// of the group evaluates the tag modulation at `t_tag0 + s·dt_eff` and
/// the scene at `t_reader0 + s·t_snap`.
#[derive(Default)]
pub(crate) struct GroupPlan {
    pub(crate) group_id: u32,
    pub(crate) t_tag0: f64,
    pub(crate) t_reader0: f64,
    pub(crate) dt_eff: f64,
}

/// Where one block's noiseless channel comes from.
#[derive(Clone, Copy)]
pub(crate) enum BlockTruth<'a> {
    /// A static scene: the four per-state true channels, state-major,
    /// and each row's tag state.
    States(&'a [Complex], &'a [u8]),
    /// One true channel per row, row-major: movers, or the batch
    /// producer's multi-stream blend.
    Plane(&'a [Complex]),
}

impl<'a> BlockTruth<'a> {
    /// Row `r`'s noiseless channel.
    fn row(self, r: usize, width: usize) -> &'a [Complex] {
        let at = match self {
            BlockTruth::States(_, st) => usize::from(st[r]),
            BlockTruth::Plane(_) => r,
        };
        let (BlockTruth::States(rows, _) | BlockTruth::Plane(rows)) = self;
        &rows[at * width..(at + 1) * width]
    }
}

/// Running tallies of [`SoundingStep::sound_block`] calls.
#[derive(Default)]
pub(crate) struct BlockTally {
    /// Rows held by a snapshot drop.
    pub(crate) dropped: u64,
    /// Rows hit by a burst fault.
    pub(crate) bursts: u64,
}

/// What a time-domain sounding needs besides its truth: the sounder, the
/// receiver, the fault regime and the scene's channel-cache entry (grid
/// width, burst scale, AGC full scale).
pub(crate) struct SoundingStep<'a> {
    pub(crate) sounder: &'a Sounder,
    pub(crate) frontend: &'a Frontend,
    pub(crate) faults: &'a FaultConfig,
    pub(crate) cache: &'a ChannelCache,
}

impl SoundingStep<'_> {
    /// Sounds rows `block` of `region` — at most [`CHUNK_ROWS`] — whose
    /// row 0 is snapshot `snap0` of group `group` under press key `key`.
    /// This is the one place the time-domain draw order lives, for press
    /// and batch alike: cursors at [`CounterRng::for_snapshot`]`(key,
    /// group, snapshot)`, the drop decisions, the sounder's block
    /// ([`sound_rows`]: the estimate law where the sounder declares one,
    /// else its estimator per row; each cursor ends where the estimator
    /// would leave it), then per row either the drop hold — the previous
    /// row of `region`, or the row's truth on `region`'s first row — or
    /// the burst fault and the front end.
    pub(crate) fn sound_block(
        &self,
        (key, group, snap0): (u64, u32, usize),
        block: std::ops::Range<usize>,
        truth: BlockTruth<'_>,
        region: &mut [Complex],
        tally: &mut BlockTally,
    ) {
        let width = self.cache.statics.len();
        let rows = block.len();
        let mut cursors: [CounterRng; CHUNK_ROWS] = std::array::from_fn(|r| {
            CounterRng::for_snapshot(key, group, (snap0 + block.start + r) as u32)
        });
        let cursors = &mut cursors[..rows];
        let mut drops = [false; CHUNK_ROWS];
        for (drop, cursor) in drops.iter_mut().zip(cursors.iter_mut()) {
            *drop = self.faults.decide_drop(cursor);
        }
        let noise = self.frontend.noise_floor;
        let out = &mut region[block.start * width..block.end * width];
        let sounder = wiforce_telemetry::span!("pipeline.sounder");
        sound_rows(self.sounder, |r| truth.row(r, width), noise, cursors, out);
        drop(sounder);
        let _frontend = wiforce_telemetry::span!("pipeline.frontend");
        for (r, cursor) in cursors.iter_mut().enumerate() {
            let at = (block.start + r) * width;
            if drops[r] {
                tally.dropped += 1;
                if at > 0 {
                    region.copy_within(at - width..at, at);
                } else {
                    region[..width].copy_from_slice(truth.row(r, width));
                }
                continue;
            }
            let row = &mut region[at..at + width];
            tally.bursts += u64::from(self.faults.apply_burst(cursor, row, self.cache.direct_amp));
            self.frontend.process(cursor, row, self.cache.full_scale);
        }
    }
}

/// Where [`Simulation::synth_counter`] puts each sounded block.
enum RowSink<'a> {
    /// Appended to the caller's matrix: the snapshot stream.
    Rows(&'a mut SnapshotMatrix),
    /// Folded into line partials and finished into each group's lines.
    Lines(&'a FusedExtraction<'a>),
}

thread_local! {
    /// A synthesis worker's block buffer for [`RowSink::Lines`]: the row
    /// before the block, then the block's rows. Each thread allocates it
    /// once.
    static BLOCK: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
}

/// Line request for [`Simulation::synth_counter`] and the spectral arm.
struct FusedExtraction<'a> {
    cfg: &'a PhaseGroupConfig,
    /// Off-line floor probe configuration, read from group 0 alongside
    /// its lines (the tag-detection floor rides on the first reference
    /// group).
    floor_cfg: Option<&'a PhaseGroupConfig>,
    /// Reader time of the first synthesized snapshot.
    first_start: f64,
}

/// The press-invariant state both synthesis calls of a press share. The
/// press's first call fetches it, inside its synthesis span, so the
/// channel-setup and EM spans stay nested in synthesis; the second call
/// reuses it. The spectral arm's entries are fetched on first use.
struct PressTables {
    /// The scene's channel-cache entry on the subcarrier grid.
    cache: Arc<ChannelCache>,
    /// [`Simulation::tag_token`].
    token: u64,
    /// The tag's EM response plan on the cache's grid.
    plan: Arc<ResponsePlan>,
    /// The untouched per-state backscatter spectra.
    untouched_spectra: Option<Arc<Vec<Complex>>>,
    /// Prefix tables of the tag lines' fold bins ([`fold_tables`]).
    tag_prefix: Option<Arc<Vec<PrefixPhasors>>>,
    /// Prefix tables of the floor probe's fold bins.
    floor_prefix: Option<Arc<Vec<PrefixPhasors>>>,
    /// The line finisher's normals scratch.
    normals: Vec<Complex>,
}

impl PressTables {
    /// The tag's per-state reflection table for `contact`, from the EM
    /// plan.
    fn contact_table(&self, contact: Option<&ContactState>) -> Arc<Vec<[Complex; 4]>> {
        let _s = wiforce_telemetry::span!("pipeline.em_transduction");
        self.plan.table(contact)
    }
}

/// The prefix tables of `cfg`'s fold bins
/// ([`PhaseGroupConfig::fold_bins`]; the mean-subtracted DFT's are its two
/// lines), kept in the press's `slot`: press-invariant, so memoized on the
/// channel cache by (bins, snapshot period, N).
fn fold_tables<'s>(
    cache: &ChannelCache,
    slot: &'s mut Option<Arc<Vec<PrefixPhasors>>>,
    cfg: &PhaseGroupConfig,
) -> &'s [PrefixPhasors] {
    let (t_snap, n) = (cfg.snapshot_period_s, cfg.n_snapshots);
    slot.get_or_insert_with(|| {
        let words = cfg.fold_bins().map(f64::to_bits);
        let token = config_token(words.chain([t_snap.to_bits(), n as u64]));
        cache.response_tables(token, PREFIX_TABLE_SALT, || {
            cfg.fold_bins()
                .map(|f_hz| PrefixPhasors::new(f_hz, t_snap, n))
                .collect()
        })
    })
}

/// Base periods after which [`TagClock::plan_group`] folds the tag time
/// back: 2¹⁶, well inside the edge walks' 2²⁰ periods of a `2fs` clock.
const TAG_REBASE_PERIODS: f64 = 65_536.0;

/// The tag's free-running clock: tracks accumulated time including drift
/// and wander, so modulation edges stay phase-continuous across groups.
#[derive(Debug, Clone)]
pub struct TagClock {
    /// Accumulated tag-clock time, s.
    pub(crate) t_tag: f64,
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

    /// Plans phase group `group_id` of `group.n_snapshots` snapshots, the
    /// one tag-time model of both engines. It steps the wander (a
    /// mean-reverting random walk with RMS `sigma_ppm`, drawn from
    /// `cursor`), takes whole base periods `1/base_hz` — on which the
    /// drive repeats — off the tag time once it passes
    /// [`TAG_REBASE_PERIODS`] of them, so a long stream stays inside the
    /// edge walks' domain, and returns the group's closed-form clock,
    /// whose step folds the wander and the constant drift fault
    /// `drift_ppm`. The clock then stands at the group's end.
    pub(crate) fn plan_group(
        &mut self,
        group_id: u32,
        cursor: &mut CounterRng,
        sigma_ppm: f64,
        drift_ppm: f64,
        base_hz: f64,
        group: &PhaseGroupConfig,
    ) -> GroupPlan {
        if sigma_ppm > 0.0 {
            self.wander_ppm = 0.8 * self.wander_ppm + 0.6 * sigma_ppm * standard_normal(cursor);
        }
        let period_s = 1.0 / base_hz;
        if self.t_tag >= TAG_REBASE_PERIODS * period_s {
            self.t_tag = self.t_tag.rem_euclid(period_s);
        }
        let t_snap = group.snapshot_period_s;
        let n = group.n_snapshots as f64;
        let plan = GroupPlan {
            group_id,
            t_tag0: self.t_tag,
            t_reader0: self.t_reader,
            dt_eff: t_snap * (1.0 + (self.wander_ppm + drift_ppm) * 1e-6),
        };
        self.t_tag += n * plan.dt_eff;
        self.t_reader += n * t_snap;
        plan
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
        // precomputed EM plan: the plan must not move a single bit. The
        // contact tables were re-recorded when the load-spreading width
        // became the exact fixed point (a ≤ 3.3e-10 m move)
        let golden: [(f64, [u64; 4]); 2] = [
            (
                0.9e9,
                [
                    0xfe31_a4ee_846e_478d,
                    0x0775_69d0_7c69_1097,
                    0x2ac1_d776_005a_a354,
                    0xb46f_83d3_7277_076f,
                ],
            ),
            (
                2.4e9,
                [
                    0xc023_063d_c947_7c49,
                    0xaeed_ba6c_b679_a95e,
                    0x47ce_50bf_9a54_6a5d,
                    0xdc53_ad6d_ab95_229d,
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
                let got = config_token(
                    table
                        .iter()
                        .flatten()
                        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
                );
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
        crate::each_dispatch(|workers| {
            // the cache-equivalence fixture: synthesis through a warm channel
            // cache must match a cold `ChannelCache::build` (the reference's
            // slot is invalidated before every run) bit for bit, for both
            // sounders, untouched and pressed, before and after a scene
            // mutation (fingerprint invalidation), with and without movers
            // (per-state truths vs per-snapshot truth planes)
            let run = |sim: &Simulation, seed: u64, contact: Option<&ContactState>| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut clock = TagClock::new(&mut rng);
                let mut noise = PressNoise::from_rng(&mut rng);
                sim.run_snapshots(contact, 2, &mut clock, &mut noise)
            };
            let cold = |sim: &Simulation, seed: u64, contact: Option<&ContactState>| {
                sim.channel_cache.invalidate();
                run(sim, seed, contact)
            };
            let assert_bits_eq = |a: &SnapshotMatrix, b: &SnapshotMatrix, what: &str| {
                assert_eq!(a.n_rows(), b.n_rows(), "{what}");
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}");
                }
            };
            for (name, mut cached, mut reference) in [
                ("ofdm", fast_sim(0.9e9), fast_sim(0.9e9)),
                (
                    "fmcw",
                    fast_sim(0.9e9).with_fmcw_sounder(),
                    fast_sim(0.9e9).with_fmcw_sounder(),
                ),
            ] {
                cached.synth_workers = Some(workers);
                reference.synth_workers = Some(workers);
                let contact = cached.contact_for(3.0, 0.030);
                let untouched = run(&cached, 41, None);
                assert_bits_eq(&untouched, &cold(&reference, 41, None), name);
                // the second untouched run takes its state truths from the
                // response memo: two hits (the EM plan and the states), no miss
                let (h0, m0) = cached.channel_cache.response_stats();
                assert_bits_eq(&untouched, &run(&cached, 41, None), name);
                let (h1, m1) = cached.channel_cache.response_stats();
                assert_eq!((h1 - h0, m1), (2, m0), "{name}: untouched states memo hit");

                let a = run(&cached, 42, contact.as_ref());
                assert_bits_eq(&a, &cold(&reference, 42, contact.as_ref()), name);

                // mutate the scene: the cached run must rebuild, not serve stale
                // statics — and with movers present the state truths go unused
                for sim in [&mut cached, &mut reference] {
                    sim.scene.direct_blockage_db = 7.0;
                    sim.scene
                        .movers
                        .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
                }
                let a2 = run(&cached, 43, contact.as_ref());
                assert_bits_eq(&a2, &cold(&reference, 43, contact.as_ref()), name);
                // and the mutation actually changed the channel
                assert_ne!(
                    a.as_slice()[0].re.to_bits(),
                    a2.as_slice()[0].re.to_bits(),
                    "{name}: scene mutation should alter the synthesized snapshots"
                );
            }
        });
    }

    #[test]
    fn randomized_scene_mutations_never_serve_stale_tables() {
        // Proptest-style stress on the invalidation story: an RNG-driven
        // chain of scene mutations (geometry, power, blockage, clutter,
        // movers, tissue excess) applied identically to a cached
        // simulation and a reference whose slot is invalidated before
        // every run (a cold `ChannelCache::build`). After every mutation
        // the cached run must match the cold run bit-for-bit — neither the channel-cache
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
        let cold = |sim: &Simulation| {
            sim.channel_cache.invalidate();
            run(sim)
        };
        let mut cached = fast_sim(0.9e9);
        let mut reference = fast_sim(0.9e9);

        let mut prev = run(&cached);
        assert!(bits_eq(&prev, &cold(&reference)), "warm pass diverged");

        let mut mutator = StdRng::seed_from_u64(0x5CEE_4E11);
        for round in 0..8u32 {
            let choice: u32 = mutator.gen::<u32>() % 6;
            // never a no-op: deltas live in [0.5, 1.5)
            let delta = 0.5 + mutator.gen::<f64>();
            let clutter_seed: u64 = mutator.gen();
            for sim in [&mut cached, &mut reference] {
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
            let b = cold(&reference);
            assert!(
                bits_eq(&a, &b),
                "round {round} (mutation {choice}): cached run diverged from cold"
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
            // four workers on the detected dispatch, against one and
            // eight under each dispatch
            let (want, t, r) = run(4);
            crate::each_dispatch(|workers| {
                let (m, tw, rw) = run(workers);
                assert_eq!(m.n_rows(), want.n_rows());
                for (x, y) in m.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "{name} {workers} vs 4");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "{name} {workers} vs 4");
                }
                assert_eq!((tw, rw), (t, r), "{name} clock state");
            });
        }
    }

    #[test]
    fn snapshot_stream_is_a_pure_function_of_the_key() {
        crate::each_dispatch(|workers| {
            let mut sim = fast_sim(0.9e9);
            sim.synth_workers = Some(workers);
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
        });
    }

    /// Simulates `n_groups` phase groups of `sim` for a fixed contact
    /// state, returning the line values per group, folded while they are
    /// sounded, and the lines of `floor_cfg` from group 0.
    fn run_groups(
        sim: &Simulation,
        contact: Option<&ContactState>,
        n_groups: usize,
        clock_state: &mut TagClock,
        noise: &mut PressNoise,
        floor_cfg: Option<&PhaseGroupConfig>,
    ) -> (Vec<GroupLines>, Option<GroupLines>) {
        let spec = FusedExtraction {
            cfg: &sim.group,
            floor_cfg,
            first_start: clock_state.reader_time_s(),
        };
        let freqs = sim.subcarrier_freqs_hz();
        let sink = RowSink::Lines(&spec);
        sim.synth_counter(
            &mut None,
            &freqs,
            contact,
            n_groups,
            clock_state,
            noise,
            sink,
        )
    }

    /// The off-line floor probe of `sim`'s press (as in
    /// [`Simulation::measure_phases`]).
    fn floor_probe(sim: &Simulation) -> PhaseGroupConfig {
        PhaseGroupConfig {
            line1_hz: sim.group.line1_hz * 1.37,
            line2_hz: sim.group.line1_hz * 2.61,
            ..sim.group
        }
    }

    /// `n_groups` groups of one press of `sim` at 4 N, 60 mm, as the
    /// press folds them (with the floor probe on group 0) and as
    /// `extract` reads them from the stored snapshot stream of the same
    /// key, in pairs `(folded, stored)`: each group's lines, then group
    /// 0's floor probe.
    fn folded_and_stored(
        sim: &Simulation,
        n_groups: usize,
        extract: impl Fn(&PhaseGroupConfig, SnapshotView<'_>, f64) -> GroupLines,
    ) -> Vec<(GroupLines, GroupLines)> {
        let contact = sim.contact_for(4.0, 0.060);
        let off_cfg = floor_probe(sim);
        let start = || {
            let mut rng = StdRng::seed_from_u64(3);
            (TagClock::new(&mut rng), PressNoise::from_seed(0xABCD))
        };
        let (mut clock, mut noise) = start();
        let first_start = clock.reader_time_s();
        let (folded, floor) = run_groups(
            sim,
            contact.as_ref(),
            n_groups,
            &mut clock,
            &mut noise,
            Some(&off_cfg),
        );
        let (mut clock, mut noise) = start();
        let snaps = sim.run_snapshots(contact.as_ref(), n_groups, &mut clock, &mut noise);
        let n = sim.group.n_snapshots;
        let group_s = n as f64 * sim.group.snapshot_period_s;
        let stored = |cfg, g: usize| {
            extract(
                cfg,
                snaps.rows_view(g * n, n),
                first_start + g as f64 * group_s,
            )
        };
        assert_eq!(folded.len(), n_groups);
        let floor = floor.expect("group 0 folds the floor probe");
        let mut pairs: Vec<_> = folded
            .into_iter()
            .enumerate()
            .map(|(g, lines)| (lines, stored(&sim.group, g)))
            .collect();
        pairs.push((floor, stored(&off_cfg, 0)));
        pairs
    }

    #[test]
    fn fused_extraction_matches_unfused_bitwise() {
        // the press's fold of each sounded block must yield the same lines
        // as extract_lines over the stored group: clean (64-row chunks),
        // under snapshot drops (one chunk per group on the press, the
        // held row carried across its blocks; 64-row blocks in
        // extract_lines) and with least squares, group 0's floor probe
        // included, at 1 and 8 workers under both dispatches
        let mut dropping = fast_sim(0.9e9);
        dropping.faults.snapshot_drop_prob = 0.2;
        let mut ls = fast_sim(0.9e9);
        ls.group.method = ExtractionMethod::LeastSquares;
        let cases = [
            ("clean", fast_sim(0.9e9)),
            ("drops", dropping),
            ("least squares", ls),
        ];
        crate::each_dispatch(|workers| {
            for (name, base) in &cases {
                let mut sim = base.clone();
                sim.synth_workers = Some(workers);
                for (i, (got, want)) in folded_and_stored(&sim, 3, extract_lines).iter().enumerate()
                {
                    let bits = |l: &GroupLines| -> Vec<(u64, u64)> {
                        l.p1.iter()
                            .chain(&l.p2)
                            .map(|z| (z.re.to_bits(), z.im.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(got), bits(want), "{name}, {workers} workers, set {i}");
                }
            }
        });
        // the drops reach a block's first row, whose hold is the previous
        // block's last row
        let sim = &cases[1].1;
        let mut rng = StdRng::seed_from_u64(3);
        let mut clock = TagClock::new(&mut rng);
        let snaps = sim.run_snapshots(None, 3, &mut clock, &mut PressNoise::from_seed(0xABCD));
        let n = sim.group.n_snapshots;
        let held = (1..3 * n).filter(|&s| s % n > 0 && (s % n).is_multiple_of(CHUNK_ROWS));
        assert!(held.into_iter().any(|s| snaps.row(s) == snaps.row(s - 1)));
    }

    /// Today's two-pass extraction, kept as the fold's rounding
    /// reference: for the mean-subtracted DFT a mean pass, then
    /// `Σ(x_s − m)·p_s` with the phasor recurrence run from the group's
    /// first snapshot; for least squares the normal equations of the
    /// `cis` tone basis (DC, f1, 2f1, f2).
    fn two_pass_lines(cfg: &PhaseGroupConfig, group: SnapshotView<'_>, start_s: f64) -> GroupLines {
        let (n, width) = (group.n_rows(), group.n_cols());
        let inv_n = 1.0 / n as f64;
        let tau = wiforce_dsp::TAU;
        let f_norms = [cfg.line1_hz, cfg.line2_hz].map(|f| f * cfg.snapshot_period_s);
        let [p1, p2] = match cfg.method {
            ExtractionMethod::MeanSubtractedDft => {
                let mut means = vec![Complex::ZERO; width];
                for row in group.rows() {
                    for (m, &x) in means.iter_mut().zip(row) {
                        *m += x;
                    }
                }
                means.iter_mut().for_each(|m| *m = m.scale(inv_n));
                let centred: Vec<Complex> = group
                    .rows()
                    .flat_map(|row| row.iter().zip(&means).map(|(&x, &m)| x - m))
                    .collect();
                let acc = wiforce_dsp::fft::goertzel_columns(&centred, width, &f_norms);
                [0, 1].map(|l| acc[l].iter().map(|z| z.scale(inv_n)).collect::<Vec<_>>())
            }
            ExtractionMethod::LeastSquares => {
                let shared = 2.0 * cfg.line1_hz * cfg.snapshot_period_s;
                let basis: Vec<Vec<Complex>> = [0.0, f_norms[0], shared, f_norms[1]]
                    .iter()
                    .map(|&f| (0..n).map(|i| Complex::cis(tau * f * i as f64)).collect())
                    .collect();
                let gram = wiforce_dsp::linalg::Matrix::from_fn(8, 8, |r, c| {
                    let g: Complex = basis[r / 2]
                        .iter()
                        .zip(&basis[c / 2])
                        .map(|(x, y)| x.conj() * *y)
                        .sum();
                    match (r % 2, c % 2) {
                        (0, 0) | (1, 1) => g.re,
                        (0, 1) => -g.im,
                        _ => g.im,
                    }
                });
                let mut lines = [Vec::new(), Vec::new()];
                for k in 0..width {
                    let rhs: Vec<f64> = basis
                        .iter()
                        .flat_map(|b| {
                            let d: Complex = b
                                .iter()
                                .zip(group.rows())
                                .map(|(bn, row)| bn.conj() * row[k])
                                .sum();
                            [d.re, d.im]
                        })
                        .collect();
                    let sol = gram.solve(&rhs).expect("gram matrix nonsingular");
                    lines[0].push(Complex::new(sol[2], sol[3]));
                    lines[1].push(Complex::new(sol[6], sol[7]));
                }
                lines
            }
        };
        let rotate = |p: Vec<Complex>, f: f64| -> Vec<Complex> {
            let r = Complex::cis(-tau * f * start_s);
            p.into_iter().map(|z| z * r).collect()
        };
        GroupLines {
            p1: rotate(p1, cfg.line1_hz),
            p2: rotate(p2, cfg.line2_hz),
        }
    }

    #[test]
    fn fold_matches_two_pass_extraction_within_rounding() {
        // the fold takes the mean off once (`S − m·P[N]`) and sums 64-row
        // block partials; the two-pass extraction subtracts the mean from
        // every sample. On real press groups they may differ by rounding
        // only: the default group, group 0's non-integer floor bins, the
        // Fig. 16 phantom (low line SNR), and least squares at N = 600,
        // where the lines are off-bin and the phase reference of later
        // groups matters
        let mut phantom = fast_sim(0.9e9);
        phantom.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 50.0);
        let mut ls = fast_sim(0.9e9);
        ls.group.method = ExtractionMethod::LeastSquares;
        ls.group.n_snapshots = 600;
        let mut worst = 0.0f64;
        for (name, sim) in [
            ("default", fast_sim(0.9e9)),
            ("phantom", phantom),
            ("least squares", ls),
        ] {
            for (i, (got, want)) in folded_and_stored(&sim, 3, two_pass_lines)
                .iter()
                .enumerate()
            {
                for (got, want) in [(&got.p1, &want.p1), (&got.p2, &want.p2)] {
                    let err = crate::line_noise_check::line_rel_err(got, want);
                    worst = worst.max(err);
                    assert!(err < 1e-9, "{name}, set {i}: relative error {err:e}");
                }
            }
        }
        println!("fold vs two-pass extraction: worst relative error {worst:e}");
    }

    #[test]
    fn zero_group_counts_are_config_errors() {
        // a press needs a reference group (its floor probe rides on the
        // first), a measurement group and snapshots, on either arm
        for (reference, measure, n) in [(0, 1, 625), (1, 0, 625), (1, 1, 0)] {
            for spectral in [false, true] {
                let mut sim = fast_sim(0.9e9);
                sim.reference_groups = reference;
                sim.measure_groups = measure;
                sim.group.n_snapshots = n;
                sim.synth_spectral = Some(spectral);
                let res = sim.measure_phases(None, &mut StdRng::seed_from_u64(5));
                assert!(
                    matches!(res, Err(WiForceError::Config(_))),
                    "groups ({reference}, {measure}), {n} snapshots, spectral {spectral}: {res:?}"
                );
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
        crate::each_dispatch(|workers| {
            // accuracy smoke test for the spectral arm: generating the lines
            // directly — no time-domain snapshots — must still land on the
            // wired VNA ground truth within the same tolerance the
            // time-domain paths are held to
            let mut sim = fast_sim(0.9e9);
            sim.synth_spectral = Some(true);
            sim.synth_workers = Some(workers);
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
        });
    }

    #[test]
    fn spectral_path_is_bit_deterministic_across_dispatch_knobs() {
        // the spectral walk runs on the calling thread and draws only
        // from counter cursors, so worker count, SIMD dispatch and the
        // channel cache must not move a single bit — and the press must differ from
        // the counter path's realization (proof the dispatch actually
        // took the spectral arm). Warm runs share one cache slot; a cold
        // run starts from an invalidated one.
        let warm = fast_sim(0.9e9);
        let contact = warm.contact_for(3.0, 0.030);
        let run = |spectral: bool, workers: usize, cache: bool| {
            let mut sim = warm.clone();
            sim.synth_spectral = Some(spectral);
            sim.synth_workers = Some(workers);
            if !cache {
                sim.channel_cache = SharedChannelCache::new();
            }
            let mut rng = StdRng::seed_from_u64(77);
            let w = sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
            (
                w.dphi1_rad.to_bits(),
                w.dphi2_rad.to_bits(),
                w.line_power.to_bits(),
            )
        };
        let base = run(true, 4, true);
        crate::each_dispatch(|workers| {
            assert_eq!(base, run(true, workers, true), "workers {workers}");
            assert_eq!(
                base,
                run(true, workers, false),
                "uncached, workers {workers}"
            );
        });
        assert_ne!(
            base,
            run(false, 1, true),
            "spectral press must be a distinct realization from counter"
        );
    }

    #[test]
    fn spectral_dispatch_falls_back_when_ineligible() {
        crate::each_dispatch(|workers| {
            // movers and faults disqualify the spectral model; the dispatch
            // must silently take the bit-pinned counter path so selecting
            // the spectral arm is always safe
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
                    sim.synth_workers = Some(workers);
                    assert!(!sim.spectral_eligible(), "{name} must be ineligible");
                    let mut rng = StdRng::seed_from_u64(13);
                    let contact = sim.contact_for(3.0, 0.030);
                    let w = sim.measure_phases(contact.as_ref(), &mut rng).unwrap();
                    (w.dphi1_rad.to_bits(), w.dphi2_rad.to_bits())
                };
                assert_eq!(run(true), run(false), "{name}: fallback diverged");
            }
        });
    }

    #[test]
    fn spectral_floor_probe_detects_missing_tag() {
        crate::each_dispatch(|workers| {
            // §5.2 detection failure must survive the spectral floor probe:
            // without the metal plate the line-to-floor margin collapses even
            // when both the line and the floor are synthesized spectrally
            let mut sim = fast_sim(0.9e9);
            sim.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 0.0);
            sim.synth_spectral = Some(true);
            sim.synth_workers = Some(workers);
            assert!(sim.spectral_eligible());
            let mut rng = StdRng::seed_from_u64(9);
            let res = sim.measure_phases(None, &mut rng);
            assert!(
                matches!(res, Err(WiForceError::TagNotDetected { .. })),
                "expected detection failure, got {res:?}"
            );
        });
    }

    #[test]
    fn spectral_press_takes_the_edge_walk() {
        crate::each_backend(|| {
            // the paper-default spectral press evaluates the clocks one
            // snapshot at a time only before clock 2's first edge and where
            // an edge nearly meets a snapshot; a group that fell back to a
            // per-snapshot walk would put all of its snapshots on the counter
            let mut sim = Simulation::paper_default(0.9e9);
            sim.synth_spectral = Some(true);
            assert!(sim.spectral_eligible());
            let _gate = crate::TELEMETRY_GATE
                .lock()
                .unwrap_or_else(|e| e.into_inner());
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
        });
    }

    /// The per-snapshot recurrence [`state_sums`] replaced, kept as its
    /// reference: adds each snapshot's line phasors `e^{-jωs}` into
    /// `e_acc[line][state]` for the first `NF` lines, run by run of the
    /// drive state, taking the terms in snapshot order.
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

    /// [`state_sums`] against the recurrence on `groups` random phase
    /// groups of the paper grid: both clock schemes (the strawman's
    /// switches overlap, so state 3 is exercised), the press arm's four
    /// lines, wandering tag clocks, and a quarter of the groups starting
    /// before a clock's first rise. Counts and exact evaluations must
    /// agree exactly, the sums within 1e-12.
    fn check_state_sums_against_recurrence(groups: usize, seed: u64) {
        let (n, t_snap) = (625, 57.6e-6);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut worst = 0.0f64;
        for g in 0..groups {
            let fs = match g % 3 {
                0 => 1000.0,
                1 => 1234.5,
                _ => wiforce_dsp::rng::uniform(&mut rng, 800.0, 2000.0),
            };
            let clocks = if g % 4 == 3 {
                ClockPair::naive(fs)
            } else {
                ClockPair::wiforce(fs)
            };
            let t0 = if g % 4 == 1 {
                wiforce_dsp::rng::uniform(&mut rng, -1.0, 1.0) / fs
            } else {
                wiforce_dsp::rng::uniform(&mut rng, 0.0, 40e-3)
            };
            let dt = t_snap * (1.0 + wiforce_dsp::rng::uniform(&mut rng, -50.0, 50.0) * 1e-6);
            let line_hz = [fs, 4.0 * fs, 1.37 * fs, 2.61 * fs];
            let tables = line_hz.map(|f| PrefixPhasors::new(f, t_snap, n));
            let rot = line_hz.map(|f| Complex::cis(-wiforce_dsp::TAU * f * t_snap));
            let nf = if g % 2 == 0 { 2 } else { 4 };
            let mut want = [[Complex::ZERO; 4]; 4];
            let mut counts = [0u64; 4];
            let mut runs = clocks.runs(t0, dt, 0..n);
            if nf == 4 {
                accumulate_state_phasors::<4>(&mut runs, &rot, &mut want, &mut counts);
            } else {
                accumulate_state_phasors::<2>(&mut runs, &rot, &mut want, &mut counts);
            }
            let refs: Vec<&PrefixPhasors> = tables.iter().take(nf).collect();
            let got = state_sums(&clocks, t0, dt, &refs);
            let context = format!("group {g}: {clocks:?} t0 = {t0:e} dt = {dt:e}");
            assert_eq!(got.counts, counts, "{context}");
            assert_eq!(got.exact_evals, runs.exact_evals(), "{context}");
            // lines past the `nf` asked for stay zero on both sides
            for (fi, (got_l, want_l)) in got.e.iter().zip(&want).enumerate() {
                for (q, (&g, &w)) in got_l.iter().zip(want_l).enumerate() {
                    let err = (g - w).abs();
                    worst = worst.max(err);
                    assert!(err <= 1e-12, "{context} line {fi} state {q}: error {err:e}");
                }
            }
        }
        println!("state sums vs recurrence: worst error {worst:e} over {groups} groups");
    }

    #[test]
    fn state_sums_match_the_per_snapshot_recurrence() {
        check_state_sums_against_recurrence(4_000, 0x5EC7_0001);
    }

    #[test]
    #[ignore = "full-size state-sum reference sweep; run in release"]
    fn state_sums_match_the_per_snapshot_recurrence_full_size() {
        check_state_sums_against_recurrence(200_000, 0x5EC7_0002);
    }

    #[test]
    fn inversion_counts_readings_pinned_to_the_box() {
        // a press past the 8 N calibration bound reads as saturated; one
        // inside the box does not
        let sim = Simulation::paper_default(2.4e9);
        let model = sim.vna_calibration().unwrap();
        let _gate = crate::TELEMETRY_GATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        wiforce_telemetry::set_enabled(true);
        wiforce_telemetry::reset();
        for (force, location) in [(8.5, 0.040), (4.0, 0.040), (3.0, 0.031)] {
            let (p1, p2) = sim.vna_phases(force, location);
            model.invert(p1, p2, 0.35).unwrap();
        }
        let snap = wiforce_telemetry::take();
        wiforce_telemetry::set_enabled(false);
        assert_eq!(snap.counters.get("invert.at_bound"), Some(&1));
    }

    #[test]
    fn floor_probe_is_not_a_line_group_on_either_arm() {
        // the off-line floor probe feeds `pipeline.line_to_floor_db` only:
        // on both arms a press records exactly its reference and measured
        // groups under `harmonics.*`
        let _gate = crate::TELEMETRY_GATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for spectral in [false, true] {
            let mut sim = Simulation::paper_default(2.4e9);
            sim.synth_spectral = Some(spectral);
            let model = sim.vna_calibration().unwrap();
            wiforce_telemetry::set_enabled(true);
            wiforce_telemetry::reset();
            let mut rng = StdRng::seed_from_u64(11);
            sim.measure_press(&model, 4.0, 0.040, &mut rng).unwrap();
            let snap = wiforce_telemetry::take();
            wiforce_telemetry::set_enabled(false);
            let ran_spectral = snap.counters.contains_key("pipeline.spectral_groups");
            assert_eq!(ran_spectral, spectral);
            assert!(snap.gauges.contains_key("pipeline.line_to_floor_db"));
            let groups = (sim.reference_groups + sim.measure_groups) as u64;
            assert_eq!(
                snap.counters["harmonics.goertzel_groups"], groups,
                "spectral {spectral}"
            );
            for line in ["harmonics.line1_power", "harmonics.line2_power"] {
                assert_eq!(
                    snap.observations[line].count, groups,
                    "spectral {spectral}: {line}"
                );
            }
        }
    }

    #[test]
    fn spectral_lines_reuse_spent_buffers_bitwise() {
        crate::each_backend(|| {
            // writing into a spent Vec — fewer, as many or more groups than
            // asked for, lines of any length — gives the same bits as fresh
            // buffers, floor probe included
            let sim = Simulation::paper_default(2.4e9);
            let freqs = sim.subcarrier_freqs_hz();
            let off_cfg = PhaseGroupConfig {
                line1_hz: sim.group.line1_hz * 1.37,
                ..sim.group
            };
            let contact = sim.contact_for(4.0, 0.040);
            let run = |spent: Vec<GroupLines>| {
                let mut rng = StdRng::seed_from_u64(0x5BE7);
                let mut clock = TagClock::new(&mut rng);
                let mut noise = PressNoise::from_rng(&mut rng);
                let spec = FusedExtraction {
                    cfg: &sim.group,
                    floor_cfg: Some(&off_cfg),
                    first_start: clock.reader_time_s(),
                };
                let (lines, floor) = sim.synth_lines_spectral(
                    &mut None,
                    &freqs,
                    contact.as_ref(),
                    3,
                    &mut clock,
                    &mut noise,
                    &spec,
                    spent,
                );
                let floor = floor.expect("floor probe on group 0");
                let bits =
                    |v: &[Complex]| v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect();
                let mut all: Vec<(u64, u64)> = bits(&floor.p1);
                all.extend(bits(&floor.p2));
                for l in &lines {
                    all.extend(bits(&l.p1));
                    all.extend(bits(&l.p2));
                }
                (lines.len(), all)
            };
            let stale = |groups: usize, len: usize| {
                (0..groups)
                    .map(|_| GroupLines {
                        p1: vec![Complex::new(f64::NAN, 1.0); len],
                        p2: vec![Complex::I; len + 3],
                    })
                    .collect::<Vec<_>>()
            };
            let fresh = run(Vec::new());
            assert_eq!(fresh.0, 3);
            for spent in [stale(2, 64), stale(3, 5), stale(5, 70)] {
                assert_eq!(run(spent), fresh);
            }
        });
    }

    /// One spectral phase group of an untouched press under key `seed`,
    /// its tag clock always started from the same draw, so with wander
    /// off every key walks the same states.
    fn spectral_group(sim: &Simulation, seed: u64) -> GroupLines {
        let mut clock = TagClock::new(&mut StdRng::seed_from_u64(42));
        let mut noise = PressNoise::from_seed(seed);
        let spec = FusedExtraction {
            cfg: &sim.group,
            floor_cfg: None,
            first_start: clock.reader_time_s(),
        };
        let freqs = sim.subcarrier_freqs_hz();
        let (mut groups, floor) = sim.synth_lines_spectral(
            &mut None,
            &freqs,
            None,
            1,
            &mut clock,
            &mut noise,
            &spec,
            Vec::new(),
        );
        assert!(floor.is_none());
        groups.pop().expect("one group")
    }

    #[test]
    fn spectral_press_jitter_covariance_matches_model() {
        crate::each_dispatch(|workers| {
            // with phase jitter on, each line minus its noiseless, jitter-free
            // twin carries the common-mode term i·meanP[k]·J on every
            // subcarrier at once: its covariance across subcarrier pairs must
            // be 2σ_line²·δ_kk′ + meanP[k]·meanP[k′]*·σ_θ²(1−|D̄|²)/N, the
            // cross-subcarrier structure Ablation 1's combiners consume — over
            // the air at 2.4 GHz, at the Fig. 16 phantom's SNR and at the
            // midpoint of the Fig. 18 line, its weakest point
            let mut phantom = Simulation::paper_default(0.9e9);
            phantom.scene = Scene::tissue_phantom(0.9e9, 50.0);
            let mut midpoint = Simulation::paper_default(0.9e9);
            midpoint.scene = Scene::fig18(0.9e9, 2.0);
            for (label, mut sim) in [
                ("over the air", Simulation::paper_default(2.4e9)),
                ("tissue phantom", phantom),
                ("Fig. 18 midpoint", midpoint),
            ] {
                sim.synth_spectral = Some(true);
                sim.synth_workers = Some(workers);
                sim.frontend.adc_enob_bits = 0; // no quantization term
                sim.tag_clock_wander_ppm = 0.0; // same state walk for every key
                assert!(sim.spectral_eligible(), "{label}");
                assert!(sim.frontend.phase_jitter_rad > 0.0, "{label}");
                let mut quiet = sim.clone();
                quiet.frontend.noise_floor = 0.0;
                quiet.frontend.phase_jitter_rad = 0.0;
                let det = spectral_group(&quiet, 0);
                // the group's mean row, from the noiseless time-domain rows of
                // the same plan
                let rows = quiet.run_snapshots(
                    None,
                    1,
                    &mut TagClock::new(&mut StdRng::seed_from_u64(42)),
                    &mut PressNoise::from_seed(0),
                );
                let n = sim.group.n_snapshots;
                let mut mean_p = vec![Complex::ZERO; rows.n_cols()];
                for row in rows.rows() {
                    for (m, &x) in mean_p.iter_mut().zip(row) {
                        *m += x.scale(1.0 / n as f64);
                    }
                }
                let draws = 400;
                let k_sub = mean_p.len();
                let mut residuals = vec![vec![Vec::with_capacity(draws); k_sub]; 2];
                for seed in 0..draws as u64 {
                    let lines = spectral_group(&sim, 1000 + seed);
                    for (li, (got, want)) in [(&lines.p1, &det.p1), (&lines.p2, &det.p2)]
                        .into_iter()
                        .enumerate()
                    {
                        for k in 0..k_sub {
                            residuals[li][k].push(got[k] - want[k]);
                        }
                    }
                }
                let sigma_est = sim
                    .sounder
                    .estimate_noise_sigma(sim.frontend.noise_floor)
                    .expect("white estimate noise");
                let t_snap = sim.group.snapshot_period_s;
                for (li, f_hz) in [sim.group.line1_hz, sim.group.line2_hz]
                    .into_iter()
                    .enumerate()
                {
                    use crate::line_noise_check as lnc;
                    let sigma_line = lnc::modeled_sigma(sigma_est * sigma_est, f_hz, t_snap, n);
                    let jitter = sim.frontend.phase_jitter_rad;
                    let var_j = jitter * jitter * lnc::shrink(f_hz, t_snap, n) / n as f64;
                    let power = lnc::check_jitter_covariance(
                        &format!("{label} line {li}"),
                        &residuals[li],
                        &vec![mean_p.clone(); draws],
                        sigma_line,
                        var_j,
                    );
                    println!(
                        "{label} line {li}: off-diagonal jitter covariance up to {power:.1} σ"
                    );
                    // over the air the jitter term dominates the line noise, so
                    // a missing or decorrelated one could not pass
                    assert!(label != "over the air" || power > 10.0, "{label}: {power}");
                }
            }
        });
    }

    #[test]
    fn spectral_line_noise_moments_and_ks_match_model() {
        crate::each_backend(|| {
            // the spectral arm is accuracy-gated, not bit-pinned, so this
            // fixture checks the *statistics* the unitarity argument
            // promises: across 64 independent press keys the residual of each
            // line against its noiseless twin must be circular white Gaussian
            // noise of per-component std σ_est·√((1−|D̄|²)/N) — moments, KS,
            // re/im and adjacent-subcarrier correlations — over the air at
            // 2.4 GHz, through the Fig. 16 tissue phantom (with its metal
            // plate) at 900 MHz, where the lines sit far closer to the floor,
            // and at the midpoint of the Fig. 18 line, 2 m from either end
            let mut phantom = Simulation::paper_default(0.9e9);
            phantom.scene = Scene::tissue_phantom(0.9e9, 50.0);
            let mut midpoint = Simulation::paper_default(0.9e9);
            midpoint.scene = Scene::fig18(0.9e9, 2.0);
            for (label, mut sim) in [
                ("over the air", Simulation::paper_default(2.4e9)),
                ("tissue phantom", phantom),
                ("Fig. 18 midpoint", midpoint),
            ] {
                sim.synth_spectral = Some(true);
                sim.frontend.phase_jitter_rad = 0.0; // isolate additive noise
                sim.frontend.adc_enob_bits = 0; // no quantization term
                sim.tag_clock_wander_ppm = 0.0; // same state walk for every key
                assert!(sim.spectral_eligible(), "{label}");
                let freqs = sim.subcarrier_freqs_hz();
                let sigma_est = sim
                    .sounder
                    .estimate_noise_sigma(sim.frontend.noise_floor)
                    .expect("white estimate noise");
                let sigmas = [sim.group.line1_hz, sim.group.line2_hz].map(|f| {
                    crate::line_noise_check::modeled_sigma(
                        sigma_est * sigma_est,
                        f,
                        sim.group.snapshot_period_s,
                        sim.group.n_snapshots,
                    )
                });

                // the noiseless twin pins the deterministic part exactly, so
                // the residuals need no empirical-mean estimate (and the
                // first-moment check is a real one)
                let mut quiet = sim.clone();
                quiet.frontend.noise_floor = 0.0;
                let det = spectral_group(&quiet, 0);
                let k_sub = freqs.len();
                let mut residuals = vec![vec![Vec::new(); k_sub]; 2];
                for seed in 0..64 {
                    let lines = spectral_group(&sim, 1000 + seed);
                    for (li, (got, want)) in [(&lines.p1, &det.p1), (&lines.p2, &det.p2)]
                        .into_iter()
                        .enumerate()
                    {
                        for k in 0..k_sub {
                            residuals[li][k].push(got[k] - want[k]);
                        }
                    }
                }
                // how close to the floor the lines sit: per-bin line power
                // over noise power
                let snr_db = 10.0
                    * (det.p1.iter().map(|z| z.norm_sqr()).sum::<f64>()
                        / (k_sub as f64 * 2.0 * sigmas[0] * sigmas[0]))
                        .log10();
                println!("{label}: port-1 line {snr_db:.1} dB over its noise");
                crate::line_noise_check::check_circular_white_noise(label, &residuals, &sigmas);
            }
        });
    }

    #[test]
    fn spectral_press_lines_match_time_domain_dft() {
        crate::each_dispatch(|workers| {
            // the deterministic half of the spectral model: with no noise
            // floor, no phase jitter and no ADC both arms are noiseless, and
            // the spectral lines (state sums + shared finisher) must equal
            // the mean-subtracted DFT the fused time-domain extraction takes
            // of the same group plan — tag lines and floor-probe bins, with
            // and without a contact, wander on
            let mut worst = 0.0f64;
            for carrier in [0.9e9, 2.4e9] {
                let mut sim = Simulation::paper_default(carrier);
                sim.synth_workers = Some(workers);
                sim.frontend.noise_floor = 0.0;
                sim.frontend.phase_jitter_rad = 0.0;
                sim.frontend.adc_enob_bits = 0;
                assert!(sim.spectral_eligible());
                let freqs = sim.subcarrier_freqs_hz();
                let off_cfg = PhaseGroupConfig {
                    line1_hz: sim.group.line1_hz * 1.37,
                    line2_hz: sim.group.line1_hz * 2.61,
                    ..sim.group
                };
                for contact in [None, sim.contact_for(4.0, 0.040)] {
                    let mut rng = StdRng::seed_from_u64(0xDF7);
                    let clock = TagClock::new(&mut rng);
                    let noise = PressNoise::from_rng(&mut rng);
                    let spec = FusedExtraction {
                        cfg: &sim.group,
                        floor_cfg: Some(&off_cfg),
                        first_start: clock.reader_time_s(),
                    };
                    let (lines, floor) = sim.synth_lines_spectral(
                        &mut None,
                        &freqs,
                        contact.as_ref(),
                        3,
                        &mut clock.clone(),
                        &mut noise.clone(),
                        &spec,
                        Vec::new(),
                    );
                    let (td_lines, td_floor) = sim.synth_counter(
                        &mut None,
                        &freqs,
                        contact.as_ref(),
                        3,
                        &mut clock.clone(),
                        &mut noise.clone(),
                        RowSink::Lines(&spec),
                    );
                    let pairs = lines.iter().zip(&td_lines).chain(std::iter::once((
                        floor.as_ref().unwrap(),
                        td_floor.as_ref().unwrap(),
                    )));
                    for (g, (got, want)) in pairs.enumerate() {
                        for (got, want) in [(&got.p1, &want.p1), (&got.p2, &want.p2)] {
                            let err = crate::line_noise_check::line_rel_err(got, want);
                            worst = worst.max(err);
                            assert!(
                                err < 1e-9,
                                "{carrier:e} Hz, contact {}: group {g} error {err:e}",
                                contact.is_some()
                            );
                        }
                    }
                }
            }
            println!("spectral press vs time-domain DFT: worst relative error {worst:e}");
        });
    }

    /// A static scene's sounding set-up for the block tests: the
    /// untouched per-state truths, the channel-cache entry and a row's
    /// tag states cycling through all four.
    fn block_setup(
        sim: &Simulation,
        rows: usize,
    ) -> (Arc<Vec<Complex>>, Arc<ChannelCache>, Vec<u8>) {
        let freqs = sim.subcarrier_freqs_hz();
        let tables = sim.press_tables(&freqs);
        let table = tables.contact_table(None);
        let truths = sim.state_truths(&tables, &table, true);
        let states = (0..rows).map(|r| ((r * 7 / 3) % 4) as u8).collect();
        (truths, Arc::clone(&tables.cache), states)
    }

    /// Group `group` of `states.len()` rows through
    /// [`SoundingStep::sound_block`] in [`CHUNK_ROWS`] blocks, as the
    /// press engine runs it.
    fn sound_group(
        step: &SoundingStep<'_>,
        (key, group): (u64, u32),
        truths: &[Complex],
        states: &[u8],
    ) -> (Vec<Complex>, BlockTally) {
        let width = step.cache.statics.len();
        let mut region = vec![Complex::ZERO; states.len() * width];
        let mut tally = BlockTally::default();
        for b0 in (0..states.len()).step_by(CHUNK_ROWS) {
            let b1 = (b0 + CHUNK_ROWS).min(states.len());
            let truth = BlockTruth::States(truths, &states[b0..b1]);
            step.sound_block((key, group, 0), b0..b1, truth, &mut region, &mut tally);
        }
        (region, tally)
    }

    /// The per-row reference of [`sound_group`]: each snapshot's cursor,
    /// its drop decision, the sounder's own estimator on that cursor,
    /// then the drop hold or the burst fault and the front end.
    fn sound_group_by_rows(
        step: &SoundingStep<'_>,
        (key, group): (u64, u32),
        truths: &[Complex],
        states: &[u8],
    ) -> Vec<Complex> {
        let width = step.cache.statics.len();
        let mut region = vec![Complex::ZERO; states.len() * width];
        for (r, &st) in states.iter().enumerate() {
            let truth = &truths[usize::from(st) * width..][..width];
            let mut cursor = CounterRng::for_snapshot(key, group, r as u32);
            let dropped = step.faults.decide_drop(&mut cursor);
            let (done, rest) = region.split_at_mut(r * width);
            let row = &mut rest[..width];
            step.sounder
                .estimate_counter_into(truth, step.frontend.noise_floor, &mut cursor, row);
            if dropped {
                row.copy_from_slice(if r > 0 {
                    &done[(r - 1) * width..]
                } else {
                    truth
                });
                continue;
            }
            step.faults
                .apply_burst(&mut cursor, row, step.cache.direct_amp);
            step.frontend
                .process(&mut cursor, row, step.cache.full_scale);
        }
        region
    }

    /// Drop and burst faults frequent enough that a 625-row group holds
    /// both, and a front end whose phase jitter draws after them.
    fn faulted(mut sim: Simulation) -> Simulation {
        sim.faults.snapshot_drop_prob = 0.05;
        sim.faults.burst_prob = 0.05;
        sim.frontend.adc_enob_bits = 0; // no quantization edge to flip
        sim
    }

    #[test]
    fn fmcw_sound_block_matches_row_estimates_bitwise() {
        // FMCW declares no estimate law, so a block runs its estimator on
        // every row: with drop and burst faults on, the block path must
        // reproduce the per-row draw order bit for bit
        let sim = faulted(Simulation::paper_default(2.4e9).with_fmcw_sounder());
        assert!(!sim.synth_wide_enabled());
        let (truths, cache, states) = block_setup(&sim, sim.group.n_snapshots);
        let step = SoundingStep {
            sounder: &sim.sounder,
            frontend: &sim.frontend,
            faults: &sim.faults,
            cache: &cache,
        };
        let (block, tally) = sound_group(&step, (0x51CA, 3), &truths, &states);
        assert!(tally.dropped > 0 && tally.bursts > 0, "both faults fired");
        let rows = sound_group_by_rows(&step, (0x51CA, 3), &truths, &states);
        for (i, (a, b)) in block.iter().zip(&rows).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "re@{i}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "im@{i}");
        }
    }

    #[test]
    fn sound_block_leaves_cursors_where_rows_do() {
        // The lane contract of the law draw: with drop and burst faults
        // on, each row's burst and front-end draws must come from the
        // lanes they take after the estimator, `n` lanes past the drop
        // decision. At zero receiver noise the law gives the truth and
        // the estimator the truth to rounding, so any lane slip shows as
        // a burst or jitter draw from the wrong lanes.
        for scalar in [false, true] {
            let _scalar = scalar.then(wiforce_dsp::kernels::hold_scalar);
            let mut sim = faulted(Simulation::paper_default(2.4e9));
            sim.frontend.noise_floor = 0.0;
            assert!(sim.synth_wide_enabled());
            let (truths, cache, states) = block_setup(&sim, sim.group.n_snapshots);
            let step = SoundingStep {
                sounder: &sim.sounder,
                frontend: &sim.frontend,
                faults: &sim.faults,
                cache: &cache,
            };
            let (block, tally) = sound_group(&step, (0x1A4E, 5), &truths, &states);
            assert!(tally.dropped > 0 && tally.bursts > 0, "both faults fired");
            let rows = sound_group_by_rows(&step, (0x1A4E, 5), &truths, &states);
            let scale = truths.iter().map(|h| h.abs()).fold(0.0, f64::max);
            for (i, (a, b)) in block.iter().zip(&rows).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-12 * scale,
                    "element {i}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn sound_block_is_exact_at_zero_noise() {
        // σ = 0: the law gives every row its truth exactly
        let mut sim = Simulation::paper_default(2.4e9);
        sim.frontend = ideal_frontend(0.0);
        let (truths, cache, states) = block_setup(&sim, 200);
        let step = SoundingStep {
            sounder: &sim.sounder,
            frontend: &sim.frontend,
            faults: &sim.faults,
            cache: &cache,
        };
        let (block, _) = sound_group(&step, (7, 0), &truths, &states);
        let width = cache.statics.len();
        for (r, row) in block.chunks_exact(width).enumerate() {
            let st = usize::from(states[r]);
            assert_eq!(row, &truths[st * width..(st + 1) * width], "row {r}");
        }
    }

    /// A front end that passes estimates through untouched (no phase
    /// jitter, no quantization) at receiver noise `noise_floor`.
    fn ideal_frontend(noise_floor: f64) -> wiforce_channel::Frontend {
        wiforce_channel::Frontend {
            noise_floor,
            phase_jitter_rad: 0.0,
            adc_enob_bits: 0,
        }
    }

    /// The law fixture: `draws` snapshots of a real scene's per-state
    /// truths through [`SoundingStep::sound_block`] (drawn from the
    /// estimate law) and through the OFDM estimator row by row, on the
    /// same truths. Each path's error must be circular white Gaussian of
    /// the advertised per-component σ — per-subcarrier mean and
    /// variance, re/im and adjacent-subcarrier correlations, KS — and
    /// the two paths' full cross-subcarrier covariance matrices must
    /// agree with the white model and with each other, entry by entry,
    /// and pass a two-sample KS test.
    fn check_estimate_law(label: &str, sim: &Simulation, draws: usize) {
        let (truths, cache, states) = block_setup(sim, draws);
        let width = cache.statics.len();
        let sigma = sim
            .sounder
            .estimate_noise_sigma(sim.frontend.noise_floor)
            .expect("OFDM declares its law");
        let step = SoundingStep {
            sounder: &sim.sounder,
            frontend: &sim.frontend,
            faults: &sim.faults,
            cache: &cache,
        };
        let errors = |est: &[Complex]| -> Vec<Vec<Complex>> {
            (0..width)
                .map(|k| {
                    (0..draws)
                        .map(|r| est[r * width + k] - truths[usize::from(states[r]) * width + k])
                        .collect()
                })
                .collect()
        };
        let law = errors(&sound_group(&step, (0x1A3, 2), &truths, &states).0);
        let rows = errors(&sound_group_by_rows(&step, (0x1A4, 2), &truths, &states));
        let line = |e: &Vec<Vec<Complex>>| vec![e.clone()];
        crate::line_noise_check::check_circular_white_noise(
            &format!("{label}, law"),
            &line(&law),
            &[sigma],
        );
        crate::line_noise_check::check_circular_white_noise(
            &format!("{label}, estimator"),
            &line(&rows),
            &[sigma],
        );

        // cross-subcarrier covariance C[k][k'] = mean of e_k·e_k'*: the
        // white model is 2σ²·δ; one draw's Re/Im products have variance
        // 2σ⁴ off the diagonal and |e_k|² has 4σ⁴ on it
        let s = draws as f64;
        let var = 2.0 * sigma * sigma;
        let cov = |e: &Vec<Vec<Complex>>, k: usize, j: usize| -> Complex {
            e[k].iter()
                .zip(&e[j])
                .map(|(a, b)| *a * b.conj())
                .sum::<Complex>()
                .scale(1.0 / s)
        };
        for k in 0..width {
            for j in k..width {
                let (a, b) = (cov(&law, k, j), cov(&rows, k, j));
                let model = if j == k { var } else { 0.0 };
                let se = if j == k { var } else { var / 2f64.sqrt() } / s.sqrt();
                for (part, x, y) in [("re", a.re, b.re), ("im", a.im, b.im)] {
                    let m = if part == "re" { model } else { 0.0 };
                    for (path, v) in [("law", x), ("estimator", y)] {
                        assert!(
                            (v - m).abs() < 5.0 * se,
                            "{label}: {path} cov[{k}][{j}].{part} = {v:e}, model {m:e} (σ {se:e})"
                        );
                    }
                    assert!(
                        (x - y).abs() < 5.0 * se * 2f64.sqrt(),
                        "{label}: cov[{k}][{j}].{part} law {x:e} vs estimator {y:e}"
                    );
                }
            }
        }

        // two-sample KS on the normalized components of both paths
        let pooled = |e: &Vec<Vec<Complex>>| -> Vec<f64> {
            let mut z: Vec<f64> = e
                .iter()
                .flatten()
                .flat_map(|v| [v.re / sigma, v.im / sigma])
                .collect();
            z.sort_by(f64::total_cmp);
            z
        };
        let (x, y) = (pooled(&law), pooled(&rows));
        let m = x.len() as f64;
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < x.len() && j < y.len() {
            if x[i] <= y[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 - j as f64).abs() / m);
        }
        // α ≈ 0.001: 1.95·√(2/m) for two samples of m
        assert!(
            d < 1.95 * (2.0 / m).sqrt(),
            "{label}: two-sample KS {d} over {m} components each"
        );
    }

    #[test]
    fn sound_block_error_matches_estimator_law_at_default_snr() {
        let mut sim = Simulation::paper_default(2.4e9);
        sim.frontend = ideal_frontend(sim.frontend.noise_floor);
        check_estimate_law("over the air", &sim, 2048);
    }

    #[test]
    fn sound_block_error_matches_estimator_law_at_low_snr() {
        // the Fig. 16 tissue phantom with its metal plate, where the tag
        // lines sit far closer to the floor
        let mut sim = Simulation::paper_default(0.9e9);
        sim.scene = Scene::tissue_phantom(0.9e9, 50.0);
        sim.frontend = ideal_frontend(sim.frontend.noise_floor);
        let (truths, _, _) = block_setup(&sim, 1);
        let sigma = sim
            .sounder
            .estimate_noise_sigma(sim.frontend.noise_floor)
            .unwrap();
        let scale = truths.iter().map(|h| h.abs()).fold(0.0, f64::max);
        println!("tissue phantom: truth {scale:e} vs per-component error σ {sigma:e}");
        check_estimate_law("tissue phantom", &sim, 2048);
        // and at a receiver noise that buries the whole channel
        sim.frontend.noise_floor *= 100.0 * scale / sigma;
        check_estimate_law("tissue phantom, noise over the channel", &sim, 2048);
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
