//! Streaming force estimator.
//!
//! The deployment-shaped API: feed channel-estimate snapshots as the
//! reader produces them; the estimator groups them, locks a no-touch
//! reference, and emits a `(force, location)` reading per phase group.
//! This is what a real WiForce reader would run online, and what the
//! fingertip/UI experiments (§5.3) drive. [`health_run`] drives it,
//! with a press and the sample-level receiver, for the health report.

use crate::calib::SensorModel;
use crate::diffphase::{differential, Averaging};
use crate::harmonics::{extract_lines, GroupLines, PhaseGroupConfig};
use crate::pipeline::{average_lines, PressNoise, Simulation, TagClock};
use crate::tracking::{Tracker, TrackerConfig};
use crate::WiForceError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce_dsp::phase::wrap_to_pi;
use wiforce_dsp::{Complex, SnapshotMatrix};
use wiforce_telemetry::PipelineHealth;

/// Configuration for the streaming estimator.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Phase-group processing parameters.
    pub group: PhaseGroupConfig,
    /// Subcarrier combining.
    pub averaging: Averaging,
    /// Number of initial groups averaged into the no-touch reference.
    pub reference_groups: usize,
    /// Phase magnitude (rad) below which the sensor is reported untouched.
    pub touch_threshold_rad: f64,
    /// Maximum accepted model-inversion residual, rad.
    pub max_residual_rad: f64,
}

impl EstimatorConfig {
    /// Paper-default configuration for base clock `fs_hz`.
    pub fn wiforce(fs_hz: f64) -> Self {
        EstimatorConfig {
            group: PhaseGroupConfig::wiforce(fs_hz),
            averaging: Averaging::Coherent,
            reference_groups: 3,
            touch_threshold_rad: 1.2f64.to_radians(),
            max_residual_rad: 0.35,
        }
    }
}

/// One emitted reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceReading {
    /// Estimated force, N (0 when untouched).
    pub force_n: f64,
    /// Estimated press location, m (NaN when untouched).
    pub location_m: f64,
    /// Port-1 differential phase, rad.
    pub dphi1_rad: f64,
    /// Port-2 differential phase, rad.
    pub dphi2_rad: f64,
    /// Model-inversion residual, rad (0 when untouched).
    pub residual_rad: f64,
    /// Whether a touch was detected.
    pub touched: bool,
}

/// Streaming estimator state machine.
#[derive(Debug, Clone)]
pub struct ForceEstimator {
    cfg: EstimatorConfig,
    model: SensorModel,
    buffer: SnapshotMatrix,
    reference_accum: Vec<GroupLines>,
    reference: Option<GroupLines>,
    groups_seen: usize,
    /// The smallest phase magnitude a calibrated press produces
    /// ([`lightest_press_rad`]).
    lightest_press_rad: f64,
}

/// `max(|φ₁|, |φ₂|)` of the lightest calibrated force, minimized over
/// the calibration locations: no press the model was calibrated on reads
/// smaller.
fn lightest_press_rad(model: &SensorModel) -> f64 {
    let (f_lo, _) = model.force_range_n();
    model
        .curves()
        .iter()
        .map(|c| {
            let p1 = wrap_to_pi(c.poly1.eval(f_lo)).abs();
            p1.max(wrap_to_pi(c.poly2.eval(f_lo)).abs())
        })
        .fold(f64::INFINITY, f64::min)
}

impl ForceEstimator {
    /// Creates an estimator with a calibrated model.
    pub fn new(cfg: EstimatorConfig, model: SensorModel) -> Self {
        wiforce_telemetry::gauge!("estimator.reference_locked", 0.0);
        ForceEstimator {
            cfg,
            lightest_press_rad: lightest_press_rad(&model),
            model,
            buffer: SnapshotMatrix::default(),
            reference_accum: Vec::new(),
            reference: None,
            groups_seen: 0,
        }
    }

    /// `true` once the no-touch reference is locked.
    pub fn reference_locked(&self) -> bool {
        self.reference.is_some()
    }

    /// Number of complete phase groups consumed.
    pub fn groups_seen(&self) -> usize {
        self.groups_seen
    }

    /// Pushes one channel-estimate snapshot (one per sounding frame).
    ///
    /// The snapshot is copied into a flat, capacity-reusing group buffer,
    /// so a steady-state stream performs no per-snapshot allocation.
    ///
    /// Returns a reading when a phase group completes after the reference
    /// is locked; `Ok(None)` while filling groups or acquiring the
    /// reference.
    pub fn push_snapshot(
        &mut self,
        snapshot: &[Complex],
    ) -> Result<Option<ForceReading>, WiForceError> {
        self.buffer.push_row(snapshot);
        if self.buffer.n_rows() < self.cfg.group.n_snapshots {
            return Ok(None);
        }
        // take the buffer so the group can borrow it while `self` stays
        // mutable; its capacity is handed back (cleared) afterwards
        let buffer = std::mem::take(&mut self.buffer);
        let result = self.process_group(buffer.view());
        self.buffer = buffer;
        self.buffer.clear();
        result
    }

    /// Pushes one complete phase group without copying.
    ///
    /// The batch engine shares each synthesized snapshot matrix across
    /// every frequency-multiplexed stream on a reader; feeding it here
    /// extracts this stream's lines straight from the shared buffer
    /// instead of re-copying `n_snapshots` rows per stream the way
    /// [`Self::push_snapshot`] must. Falls back to row-wise pushes (and
    /// returns the last reading completed, if any) when the internal
    /// buffer holds a partial group or `group` is not exactly one group
    /// long.
    pub fn push_group(
        &mut self,
        group: &SnapshotMatrix,
    ) -> Result<Option<ForceReading>, WiForceError> {
        if self.buffer.n_rows() == 0 && group.n_rows() == self.cfg.group.n_snapshots {
            return self.process_group(group.view());
        }
        let mut last = Ok(None);
        for row in group.rows() {
            match self.push_snapshot(row) {
                Ok(None) => {}
                done => last = done,
            }
        }
        last
    }

    /// The reader time the estimator expects the *next* group to start
    /// at, [`PhaseGroupConfig::group_start_s`] of its group count: lines
    /// pushed pre-extracted (the spectral batch producer references
    /// group `g` at the same expression) land on the rotation extraction
    /// would apply.
    pub fn next_group_start_s(&self) -> f64 {
        self.cfg.group.group_start_s(self.groups_seen as u64)
    }

    /// Pushes one phase group's pre-extracted spectral lines.
    ///
    /// The spectral batch path synthesizes each group's lines directly —
    /// no time-domain snapshots ever exist — so extraction is skipped
    /// entirely; reference locking, differential phases, and inversion
    /// run unchanged. The lines must be phase-referenced to
    /// [`Self::next_group_start_s`].
    pub fn push_lines(&mut self, lines: GroupLines) -> Result<Option<ForceReading>, WiForceError> {
        self.process_lines(lines)
    }

    /// Shared group-completion pipeline: harmonic extraction, reference
    /// handling, differential phases, model inversion.
    fn process_group(
        &mut self,
        group: wiforce_dsp::SnapshotView<'_>,
    ) -> Result<Option<ForceReading>, WiForceError> {
        // counted once per completed group (not per push): the per-sample
        // counter lookup was a measurable share of telemetry-on overhead
        wiforce_telemetry::counter!(
            "estimator.snapshots_pushed",
            self.cfg.group.n_snapshots as u64
        );
        let lines = extract_lines(&self.cfg.group, group, self.next_group_start_s());
        self.process_lines(lines)
    }

    /// Group-completion tail shared by the extraction and pre-extracted
    /// (spectral) paths: reference handling, differential phases, model
    /// inversion.
    fn process_lines(&mut self, lines: GroupLines) -> Result<Option<ForceReading>, WiForceError> {
        let _span = wiforce_telemetry::span!("estimator.group");
        self.groups_seen += 1;
        wiforce_telemetry::counter!("estimator.groups", 1);
        wiforce_telemetry::gauge!("estimator.groups_seen", self.groups_seen as f64);

        // acquisition phase: accumulate the reference
        if self.reference.is_none() {
            self.reference_accum.push(lines);
            if self.reference_accum.len() >= self.cfg.reference_groups {
                self.reference = Some(average_lines(&self.reference_accum));
                self.reference_accum.clear();
                wiforce_telemetry::counter!("estimator.reference_locks", 1);
                wiforce_telemetry::gauge!("estimator.reference_locked", 1.0);
            }
            return Ok(None);
        }

        let reference = self.reference.as_ref().expect("locked above");
        let d = differential(reference, &lines, self.cfg.averaging);
        let magnitude = d.dphi1_rad.abs().max(d.dphi2_rad.abs());
        wiforce_telemetry::observe!("estimator.group_phase_mag_rad", magnitude);
        let untouched = || {
            wiforce_telemetry::counter!("estimator.readings_untouched", 1);
            Ok(Some(ForceReading {
                force_n: 0.0,
                location_m: f64::NAN,
                dphi1_rad: d.dphi1_rad,
                dphi2_rad: d.dphi2_rad,
                residual_rad: 0.0,
                touched: false,
            }))
        };
        if magnitude < self.cfg.touch_threshold_rad {
            return untouched();
        }
        let est = match self
            .model
            .invert(d.dphi1_rad, d.dphi2_rad, self.cfg.max_residual_rad)
        {
            Ok(est) => est,
            // phases the model cannot explain and smaller than any
            // calibrated press: an untouched group's noise that crossed
            // the touch threshold, not a press
            Err(WiForceError::OutOfModelRange { .. }) if magnitude < self.lightest_press_rad => {
                return untouched();
            }
            Err(e) => {
                wiforce_telemetry::counter!("estimator.inversion_failures", 1);
                return Err(e);
            }
        };
        wiforce_telemetry::counter!("estimator.readings_touched", 1);
        Ok(Some(ForceReading {
            force_n: est.force_n,
            location_m: est.location_m,
            dphi1_rad: d.dphi1_rad,
            dphi2_rad: d.dphi2_rad,
            residual_rad: est.residual_rad,
            touched: true,
        }))
    }
}

/// The `wiforce-cli health` workload with the telemetry recorder on, as
/// a [`PipelineHealth`] report: one calibrated press of `force_n` at
/// `location_m` through `sim` (mechanics, EM transduction, channel,
/// sounder, fault injection, harmonic extraction, model inversion), the
/// streaming estimator with Kalman tracking over a quiet-then-pressed
/// stream, and the sample-level stream receiver's preamble sync and
/// frame decode. The recorder is reset first and switched off once the
/// report is taken; `seed` fixes every draw.
pub fn health_run(
    sim: &Simulation,
    model: SensorModel,
    force_n: f64,
    location_m: f64,
    seed: u64,
) -> Result<PipelineHealth, WiForceError> {
    wiforce_telemetry::reset();
    wiforce_telemetry::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. one calibrated press through the batch pipeline
    sim.measure_press(&model, force_n, location_m, &mut rng)?;

    // 2. streaming estimator + tracker over a quiet-then-pressed stream
    let cfg = EstimatorConfig {
        group: sim.group,
        reference_groups: 1,
        ..EstimatorConfig::wiforce(1000.0)
    };
    let mut est = ForceEstimator::new(cfg, model);
    let mut tracker = Tracker::new(TrackerConfig::wiforce());
    let mut clock = TagClock::new(&mut rng);
    let mut noise = PressNoise::from_rng(&mut rng);
    let quiet = sim.run_snapshots(None, 1, &mut clock, &mut noise);
    for s in quiet.rows() {
        est.push_snapshot(s)?;
    }
    let contact = sim.jittered_contact(force_n, location_m, &mut rng);
    let pressed = sim.run_snapshots(contact.as_ref(), 1, &mut clock, &mut noise);
    for s in pressed.rows() {
        if let Some(r) = est.push_snapshot(s)? {
            tracker.update(&r);
        }
    }

    // 3. sample-level receiver: preamble sync + per-frame channel decode
    let sounder = wiforce_reader::ofdm::OfdmSounder::wiforce();
    let chans: Vec<Vec<Complex>> = (0..4)
        .map(|f| {
            (0..sounder.n_subcarriers)
                .map(|k| Complex::from_polar(0.5, 0.02 * k as f64 + 0.05 * f as f64))
                .collect()
        })
        .collect();
    let rx = wiforce_reader::stream::simulate_rx_stream(&sounder, &chans, 1e-4, 64, &mut rng);
    let receiver = wiforce_reader::stream::StreamReceiver::new(sounder);
    if receiver.process(&rx).is_none() {
        return Err(WiForceError::Config(
            "stream receiver failed to sync".into(),
        ));
    }

    // cache gauges are end-of-run only (mid-run readings of the shared
    // memo counters are scheduling-dependent)
    sim.emit_cache_gauges();
    wiforce_telemetry::set_enabled(false);
    Ok(PipelineHealth::collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Simulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wiforce_dsp::TAU;

    /// Builds snapshots with a synthetic tag line consistent with a model
    /// press (we reuse the full Simulation for realistic streams in
    /// integration tests; here a lighter synthetic keeps unit tests fast).
    fn synthetic_snapshots(
        cfg: &PhaseGroupConfig,
        n_groups: usize,
        phi1: f64,
        phi2: f64,
    ) -> Vec<Vec<Complex>> {
        let k = 8;
        let amp = 1e-3;
        (0..n_groups * cfg.n_snapshots)
            .map(|i| {
                let t = i as f64 * cfg.snapshot_period_s;
                let tone1 = Complex::cis(TAU * cfg.line1_hz * t - phi1) * amp;
                let tone2 = Complex::cis(TAU * cfg.line2_hz * t - phi2) * amp;
                (0..k)
                    .map(|kk| Complex::from_polar(0.1, kk as f64 * 0.3) + tone1 + tone2)
                    .collect()
            })
            .collect()
    }

    fn model() -> SensorModel {
        Simulation::paper_default(0.9e9).vna_calibration().unwrap()
    }

    #[test]
    fn locks_reference_then_reports() {
        let sim = Simulation::paper_default(0.9e9);
        let cfg = EstimatorConfig {
            reference_groups: 2,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, model());

        // reference stream: zero phases
        for s in synthetic_snapshots(&cfg.group, 2, 0.0, 0.0) {
            assert!(est.push_snapshot(&s).unwrap().is_none());
        }
        assert!(est.reference_locked());

        // touched stream with the VNA phases of a 4 N press at 40 mm
        let (p1, p2) = sim.vna_phases(4.0, 0.040);
        let mut readings = Vec::new();
        for s in synthetic_snapshots(&cfg.group, 2, p1, p2) {
            if let Some(r) = est.push_snapshot(&s).unwrap() {
                readings.push(r);
            }
        }
        assert_eq!(readings.len(), 2);
        for r in readings {
            assert!(r.touched);
            assert!((r.force_n - 4.0).abs() < 0.6, "force {}", r.force_n);
            assert!((r.location_m - 0.040).abs() < 4e-3, "loc {}", r.location_m);
        }
    }

    #[test]
    fn untouched_reports_zero_force() {
        let cfg = EstimatorConfig {
            reference_groups: 1,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, model());
        for s in synthetic_snapshots(&cfg.group, 1, 0.0, 0.0) {
            est.push_snapshot(&s).unwrap();
        }
        let mut out = None;
        for s in synthetic_snapshots(&cfg.group, 1, 0.0, 0.0) {
            if let Some(r) = est.push_snapshot(&s).unwrap() {
                out = Some(r);
            }
        }
        let r = out.unwrap();
        assert!(!r.touched);
        assert_eq!(r.force_n, 0.0);
        assert!(r.location_m.is_nan());
    }

    #[test]
    fn sub_press_phases_the_model_rejects_read_untouched() {
        // an untouched group's noise can cross the 1.2° touch threshold;
        // phases that small are no calibrated press, so the model rejects
        // them, and the estimator must read the group as untouched — while
        // a rejected group as large as a real press stays an error
        let m = model();
        let cfg = EstimatorConfig {
            reference_groups: 1,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let small = (0.4f64.to_radians(), 2.0f64.to_radians());
        let large = (150f64.to_radians(), -150f64.to_radians());
        for (p1, p2) in [small, large] {
            assert!(matches!(
                m.invert(p1, p2, cfg.max_residual_rad),
                Err(WiForceError::OutOfModelRange { .. })
            ));
        }
        assert!(lightest_press_rad(&m) > 20f64.to_radians());
        let read = |(p1, p2): (f64, f64)| {
            let mut est = ForceEstimator::new(cfg, m.clone());
            for s in synthetic_snapshots(&cfg.group, 1, 0.0, 0.0) {
                est.push_snapshot(&s).unwrap();
            }
            let mut out = Ok(None);
            for s in synthetic_snapshots(&cfg.group, 1, p1, p2) {
                out = est.push_snapshot(&s);
            }
            out
        };
        let r = read(small).unwrap().expect("one reading");
        assert!(!r.touched);
        assert_eq!(r.force_n, 0.0);
        assert!(r.dphi2_rad > cfg.touch_threshold_rad);
        assert!(matches!(
            read(large),
            Err(WiForceError::OutOfModelRange { .. })
        ));
    }

    #[test]
    fn groups_counted() {
        let cfg = EstimatorConfig {
            reference_groups: 1,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, model());
        for s in synthetic_snapshots(&cfg.group, 3, 0.0, 0.0) {
            let _ = est.push_snapshot(&s).unwrap();
        }
        assert_eq!(est.groups_seen(), 3);
    }

    #[test]
    fn partial_group_returns_none() {
        let cfg = EstimatorConfig::wiforce(1000.0);
        let mut est = ForceEstimator::new(cfg, model());
        let r = est.push_snapshot(&[Complex::ZERO; 4]).unwrap();
        assert!(r.is_none());
        assert_eq!(est.groups_seen(), 0);
    }

    use rand::Rng;

    #[test]
    fn streaming_matches_batch_on_simulated_channel() {
        // run the estimator on genuinely simulated snapshots and check the
        // reading against the pressed ground truth
        let mut sim = Simulation::paper_default(2.4e9);
        sim.reference_groups = 1;
        sim.measure_groups = 1;
        let m = sim.vna_calibration().unwrap();
        let cfg = EstimatorConfig {
            reference_groups: 1,
            group: sim.group,
            ..EstimatorConfig::wiforce(1000.0)
        };
        let mut est = ForceEstimator::new(cfg, m);
        let mut rng = StdRng::seed_from_u64(77);

        // hand the estimator raw snapshots from the pipeline: first an
        // untouched stretch, then a 5 N press at 30 mm
        let mut clock = crate::pipeline::TagClock::new(&mut rng);
        let mut noise = crate::pipeline::PressNoise::from_rng(&mut rng);
        let quiet = sim.run_snapshots(None, 1, &mut clock, &mut noise);
        for s in quiet.rows() {
            let _ = est.push_snapshot(s).unwrap();
        }
        let contact = sim.contact_for(5.0, 0.030);
        let pressed = sim.run_snapshots(contact.as_ref(), 1, &mut clock, &mut noise);
        let mut reading = None;
        for s in pressed.rows() {
            if let Some(r) = est.push_snapshot(s).unwrap() {
                reading = Some(r);
            }
        }
        let r = reading.expect("one group of readings");
        assert!(r.touched);
        // the phase-force curve flattens near 5–7 N, so a ~1° systematic
        // phase offset maps to >1 N there; allow that margin
        assert!((r.force_n - 5.0).abs() < 1.6, "force {}", r.force_n);
        assert!((r.location_m - 0.030).abs() < 5e-3, "loc {}", r.location_m);
        let _ = rng.gen::<u8>();
    }
}
