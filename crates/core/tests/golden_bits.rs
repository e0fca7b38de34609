//! Golden bit-hashes of end-to-end readings.
//!
//! Each hash is FNV-1a over the raw bits of every output field. The
//! default-path pins were recorded before the EM plan, the fmod-free clock
//! and the fmod-free phase wrap replaced the per-press recomputation; the
//! branch pins (tag-clock tracking, a failed tag detection, drop and burst
//! faults, the FMCW reader, a two-call snapshot stream) were recorded
//! before the press measurement was folded into one driver. Those changes
//! are exact rewrites, so the readings must not move by one bit; any
//! change to these constants is a change in what the system reports.
//!
//! Beside every reading pin sits a companion hash over only what the
//! inverter does not produce: the differential phases, the touch flag,
//! error strings, group indices and failure counts. The companions were
//! recorded while the inverter was still a grid search; the reading pins
//! and the inversion lattice were re-recorded when seeded, box-constrained
//! Gauss–Newton replaced it, and the unchanged companions prove that
//! change moved only `force_n`, `location_m` and `residual_rad`.
//!
//! Every reading pin, the spectral companions and the inversion lattice
//! were re-recorded again when the load-spreading width became the exact
//! root of its fixed-point equation (it had stopped up to 3.3e-10 m
//! short): the contacts, and through the VNA calibration the model, moved
//! by that much. The time-domain companions held, since the quantizing
//! front end absorbs a change that small; the spectral arm has no
//! quantizer.
//!
//! The pins that reach a spectral line source (spectral press, tracked
//! clock, undetected tag, spectral and multiplexed spectral batch) were
//! re-recorded once more when the spectral arm moved to prefix-table
//! run sums (reassociated `E_σ`) and to complex line-noise draws
//! (one Philox block per value): the statistical fixtures are their
//! gate. Every time-domain, FMCW, faulted, snapshot-stream and
//! inversion-lattice pin held.
//!
//! The two spectral batch pins were re-recorded when the batch producer
//! moved onto the press arm's line finisher and its one common-mode
//! jitter draw per line (it had projected a per-snapshot jitter sequence
//! onto every line): a new noise realization of the same distribution at
//! the on-grid lines these runs use. Every press pin held bit for bit.
//!
//! The mover press and the faulted, mover and FMCW batch pins were
//! recorded while each engine still kept a row-at-a-time loop beside its
//! plane-kernel loop for movers, snapshot drops and the FMCW reader,
//! before those loops were folded into the sounder's block API.
//!
//! Every pin that reaches the OFDM time-domain sounder (time-domain,
//! tracked-clock and undetected-tag presses, faulted and mover presses,
//! the snapshot stream, and the time-domain, faulted and mover batches)
//! was re-recorded when its per-snapshot noise became one complex
//! Box–Muller pair per sample (one Philox block, was two): a new
//! realization of the same circular white noise, gated by the OFDM
//! statistical fixtures. The burst decisions that follow the sounder on
//! each snapshot's cursor moved with it (the faulted batch injects 144
//! bursts, was 139). Every spectral pin and spectral half, both FMCW
//! pins and the inversion lattice held bit for bit.
//!
//! All six batch pins were re-recorded when the batch producer moved
//! onto the press's group planner: each group's tag clocks are now the
//! closed-form plan `t_tag0 + s·dt_eff` (was a running sum), and the
//! wander draws and every noise lane are addressed by the reader key and
//! the group index (were a fresh key and wander draws per group from the
//! reader's sequential RNG). The noise law is unchanged, only its
//! realization moved, gated by the batch statistical and equivalence
//! fixtures; the faulted batch now drops 157 snapshots and injects 148
//! bursts (was 150 and 144). Every press pin held bit for bit.
//!
//! Every pin that reaches the OFDM time-domain sounder (time-domain,
//! tracked-clock and undetected-tag presses, faulted and mover presses,
//! the snapshot stream, and the time-domain, faulted and mover batches)
//! was re-recorded when its snapshots came to be drawn from the OFDM
//! estimator's exact law, `truth + σ·g` on the lanes the estimator
//! takes, instead of running the preamble, FFT and equalizer per row: a
//! new realization of the same estimate error, gated by the law
//! fixtures in `pipeline::tests` after every statistical fixture passed
//! unchanged. The faulted batch still drops 157 snapshots and injects
//! 148 bursts: the draws after the sounder keep their lanes. Every
//! spectral pin and spectral half, both FMCW pins and the inversion
//! lattice held bit for bit.
//!
//! Every pin is checked at 1 and 8 synthesis workers (batch workers for
//! the batch pins), under the detected SIMD dispatch and again with it
//! held to the scalar bodies: none of them may move a pin.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use wiforce::batch::{run_batch, BatchConfig, PressSpec, ReaderSpec};
use wiforce::{ForceReading, SensorModel, Simulation, WiForceError};
use wiforce_dsp::hash::Fnv;
use wiforce_dsp::kernels::hold_scalar;

/// Runs `check` at 1 and 8 workers (the argument), under the detected
/// dispatch and then held to scalar. One pin at a time: a hold reaches
/// every thread, so a concurrent pin's detected pass would run scalar.
fn each_dispatch(mut check: impl FnMut(usize)) {
    static DISPATCH: Mutex<()> = Mutex::new(());
    let _one = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    for scalar in [false, true] {
        let _scalar = scalar.then(hold_scalar);
        check(1);
        check(8);
    }
}

fn hash_reading(h: &mut Fnv, r: &ForceReading) {
    for v in [
        r.force_n,
        r.location_m,
        r.dphi1_rad,
        r.dphi2_rad,
        r.residual_rad,
    ] {
        h.f64(v);
    }
    h.word(r.touched as u64);
}

/// A reading pin and its inversion-free companion, fed in lockstep.
struct Pins {
    all: Fnv,
    phases: Fnv,
}

impl Pins {
    fn new() -> Self {
        Pins {
            all: Fnv::new(),
            phases: Fnv::new(),
        }
    }
    fn word(&mut self, w: u64) {
        self.all.word(w);
        self.phases.word(w);
    }
    fn reading(&mut self, r: &ForceReading) {
        hash_reading(&mut self.all, r);
        self.phases.f64(r.dphi1_rad);
        self.phases.f64(r.dphi2_rad);
        self.phases.word(r.touched as u64);
    }
    fn result(&mut self, r: &Result<ForceReading, WiForceError>) {
        match r {
            Ok(r) => {
                self.word(0);
                self.reading(r);
            }
            Err(e) => {
                self.word(1);
                for b in e.to_string().bytes() {
                    self.word(b as u64);
                }
            }
        }
    }
    fn finish(&self) -> (u64, u64) {
        (self.all.finish(), self.phases.finish())
    }
}

fn setup(spectral: bool, workers: usize) -> (Simulation, SensorModel) {
    let mut sim = Simulation::paper_default(0.9e9);
    sim.synth_spectral = Some(spectral);
    sim.synth_workers = Some(workers);
    let model = sim.vna_calibration().expect("VNA calibration fits");
    (sim, model)
}

/// Seeded presses over the calibrated domain, hashed in order (reading pin
/// and companion), with the number that produced a reading.
fn presses_hash(sim: &Simulation, model: &SensorModel, presses: u64) -> ((u64, u64), u64) {
    let mut h = Pins::new();
    let mut ok = 0;
    for i in 0..presses {
        let force = 0.5 + 7.5 * ((i * 7) % presses) as f64 / presses as f64;
        let location = 0.022 + 0.036 * ((i * 5) % presses) as f64 / presses as f64;
        let mut rng = StdRng::seed_from_u64(0x601D_0000 + i);
        let r = sim.measure_press(model, force, location, &mut rng);
        ok += r.is_ok() as u64;
        h.result(&r);
    }
    (h.finish(), ok)
}

fn press_hash(spectral: bool, presses: u64, workers: usize) -> (u64, u64) {
    let (sim, model) = setup(spectral, workers);
    let (hash, ok) = presses_hash(&sim, &model, presses);
    assert!(ok * 4 >= presses * 3, "{ok} of {presses} presses read");
    hash
}

#[test]
fn spectral_press_readings_match_golden_bits() {
    each_dispatch(|workers| {
        assert_eq!(
            press_hash(true, 16, workers),
            (0x4010_2608_86ca_7c3e, 0xaa57_1d50_559c_e80d)
        );
    });
}

#[test]
fn time_domain_press_readings_match_golden_bits() {
    each_dispatch(|workers| {
        assert_eq!(
            press_hash(false, 4, workers),
            (0x8771_9a2d_15f7_b216, 0x5725_2392_7070_65aa)
        );
    });
}

/// Presses through the driver branches the default configuration skips:
/// tag-clock tracking under drift, a failed tag detection, snapshot-drop
/// and burst faults, and the FMCW reader. Configurations outside the
/// spectral envelope fall back to the time-domain arm, so their spectral
/// run must hash the same.
fn branch_hash(
    spectral: bool,
    configure: impl Fn(&mut Simulation),
    presses: u64,
    workers: usize,
) -> ((u64, u64), u64) {
    let (mut sim, model) = setup(spectral, workers);
    configure(&mut sim);
    presses_hash(&sim, &model, presses)
}

fn tracked_clock(sim: &mut Simulation) {
    sim.track_tag_clock = true;
    sim.reference_groups = 3;
    sim.faults.tag_clock_ppm = 40.0;
}

fn phantom_without_plate(sim: &mut Simulation) {
    sim.scene = wiforce_channel::Scene::tissue_phantom(0.9e9, 0.0);
}

fn dropped_and_burst(sim: &mut Simulation) {
    dropped_and_burst_faults(&mut sim.faults);
}

fn dropped_and_burst_faults(faults: &mut wiforce_channel::faults::FaultConfig) {
    faults.snapshot_drop_prob = 0.05;
    faults.burst_prob = 0.05;
    faults.burst_rel_amp = 0.1;
}

fn fmcw(sim: &mut Simulation) {
    *sim = sim.clone().with_fmcw_sounder();
}

fn walker(sim: &mut Simulation) {
    sim.scene
        .movers
        .push(wiforce_channel::movers::MovingScatterer::walker(0.15));
}

#[test]
fn tracked_clock_press_readings_match_golden_bits() {
    each_dispatch(|workers| {
        assert_eq!(
            branch_hash(false, tracked_clock, 2, workers),
            ((0xdb91_4a4f_660f_600d, 0xe5b5_47f8_6eb5_39cc), 2)
        );
        assert_eq!(
            branch_hash(true, tracked_clock, 4, workers),
            ((0x9ecf_421c_2754_2393, 0xb3fc_3f3c_798f_1b46), 4)
        );
    });
}

#[test]
fn undetected_tag_errors_match_golden_bits() {
    each_dispatch(|workers| {
        assert_eq!(
            branch_hash(false, phantom_without_plate, 2, workers),
            ((0x8a51_c29d_3d8f_f70b, 0x8a51_c29d_3d8f_f70b), 0)
        );
        assert_eq!(
            branch_hash(true, phantom_without_plate, 2, workers),
            ((0xf1ab_b1c4_be40_f06a, 0xf1ab_b1c4_be40_f06a), 0)
        );
    });
}

#[test]
fn faulted_time_domain_press_readings_match_golden_bits() {
    each_dispatch(|workers| {
        let td = branch_hash(false, dropped_and_burst, 2, workers);
        assert_eq!(td, ((0x3af9_9ec9_c968_1944, 0x95a1_a26a_ea66_5f6f), 2));
        assert_eq!(branch_hash(true, dropped_and_burst, 2, workers), td);
    });
}

#[test]
fn fmcw_press_readings_match_golden_bits() {
    each_dispatch(|workers| {
        let td = branch_hash(false, fmcw, 2, workers);
        assert_eq!(td, ((0x147c_67bc_872a_7c81, 0x6a68_4672_6fd9_d3f8), 2));
        assert_eq!(branch_hash(true, fmcw, 2, workers), td);
    });
}

#[test]
fn mover_press_readings_match_golden_bits() {
    each_dispatch(|workers| {
        let td = branch_hash(false, walker, 2, workers);
        assert_eq!(td, ((0xf303_8be7_b8ba_30d6, 0x0186_9415_4216_b4dd), 2));
        assert_eq!(branch_hash(true, walker, 2, workers), td);
    });
}

/// A quiet group then a pressed group appended to one matrix through the
/// counter-addressed stream, hashed over every sample and the clock.
#[test]
fn snapshot_stream_matches_golden_bits() {
    use wiforce::pipeline::{PressNoise, TagClock};
    each_dispatch(|workers| {
        let (sim, _) = setup(false, workers);
        let mut rng = StdRng::seed_from_u64(0x57_2EA3);
        let mut clock = TagClock::new(&mut rng);
        let mut noise = PressNoise::from_rng(&mut rng);
        let mut stream = wiforce_dsp::SnapshotMatrix::default();
        sim.run_snapshots_into(None, 1, &mut clock, &mut noise, &mut stream);
        let contact = sim.jittered_contact(4.0, 0.040, &mut rng);
        sim.run_snapshots_into(contact.as_ref(), 1, &mut clock, &mut noise, &mut stream);
        assert_eq!(stream.n_rows(), 2 * sim.group.n_snapshots);
        let mut h = Fnv::new();
        for z in stream.as_slice() {
            h.f64(z.re);
            h.f64(z.im);
        }
        h.f64(clock.reader_time_s());
        assert_eq!(h.finish(), 0x9cd0_9924_190b_ee9d);
    });
}

#[test]
fn invert_lattice_matches_golden_bits() {
    each_dispatch(|workers| {
        let (_, model) = setup(true, workers);
        let mut h = Fnv::new();
        let n = 17;
        for i in 0..n {
            for j in 0..n {
                let phi1 = -3.2 + 6.4 * i as f64 / (n - 1) as f64;
                let phi2 = -3.2 + 6.4 * j as f64 / (n - 1) as f64;
                let est = model
                    .invert(phi1, phi2, f64::INFINITY)
                    .expect("finite phases invert");
                for v in [est.force_n, est.location_m, est.residual_rad] {
                    h.f64(v);
                }
            }
        }
        assert_eq!(h.finish(), 0x3885_3488_3411_85f6);
    });
}

/// A two-stream batch with three presses per stream on `workers` batch
/// workers, hashed in stream order.
fn batch_hash(spectral: bool, workers: usize) -> (u64, u64) {
    branch_batch_hash(
        spectral,
        |_| {},
        wiforce_channel::faults::FaultConfig::none(),
        workers,
    )
    .0
}

/// [`batch_hash`] on a reconfigured simulation under reader `faults`,
/// with the run's `(snapshots dropped, bursts injected)` tallies.
fn branch_batch_hash(
    spectral: bool,
    configure: impl Fn(&mut Simulation),
    faults: wiforce_channel::faults::FaultConfig,
    workers: usize,
) -> ((u64, u64), (u64, u64)) {
    let (mut sim, model) = setup(spectral, workers);
    configure(&mut sim);
    let model = std::sync::Arc::new(model);
    let presses = |k: usize| -> Vec<PressSpec> {
        (0..3)
            .map(|p| PressSpec {
                force_n: 1.0 + 2.0 * ((p + k) % 3) as f64,
                location_m: 0.03 + 0.01 * p as f64,
            })
            .collect()
    };
    let spec = ReaderSpec::new(0xBA7C_4001)
        .stream("a", 1000.0, presses(0))
        .stream("b", 1250.0, presses(1))
        .with_faults(faults);
    let report = run_batch(
        &sim,
        &model,
        std::slice::from_ref(&spec),
        &BatchConfig::wiforce(workers),
    )
    .expect("a valid two-stream reader");
    let mut h = Pins::new();
    for s in &report.streams {
        h.word(s.failures);
        for r in &s.readings {
            h.word(r.group);
            h.reading(&r.reading);
        }
    }
    (
        h.finish(),
        (report.snapshots_dropped, report.bursts_injected),
    )
}

#[test]
fn spectral_batch_readings_match_golden_bits() {
    each_dispatch(|workers| {
        assert_eq!(
            batch_hash(true, workers),
            (0x434b_cd66_34cd_7c54, 0x0d3d_25d5_ba8d_e5f6)
        );
    });
}

#[test]
fn time_domain_batch_readings_match_golden_bits() {
    each_dispatch(|workers| {
        assert_eq!(
            batch_hash(false, workers),
            (0x2b37_9301_6fdd_1310, 0x5107_cca1_296a_8acc)
        );
    });
}

/// Batches through the producer branches the default configuration
/// skips: snapshot-drop and burst faults, a moving scatterer, and the
/// FMCW reader.
#[test]
fn faulted_time_domain_batch_readings_match_golden_bits() {
    let mut faults = wiforce_channel::faults::FaultConfig::none();
    dropped_and_burst_faults(&mut faults);
    each_dispatch(|workers| {
        assert_eq!(
            branch_batch_hash(false, |_| {}, faults, workers),
            ((0x53a5_52f8_9746_eac7, 0x645b_4366_6bcc_ce8d), (157, 148))
        );
    });
}

#[test]
fn mover_batch_readings_match_golden_bits() {
    let faults = wiforce_channel::faults::FaultConfig::none();
    each_dispatch(|workers| {
        assert_eq!(
            branch_batch_hash(false, walker, faults, workers).0,
            (0x3875_55a9_e333_4012, 0x8436_0f6c_1883_dc47)
        );
    });
}

#[test]
fn fmcw_batch_readings_match_golden_bits() {
    let faults = wiforce_channel::faults::FaultConfig::none();
    each_dispatch(|workers| {
        assert_eq!(
            branch_batch_hash(false, fmcw, faults, workers).0,
            (0x2fb0_09df_9e82_bd6f, 0x443c_d03c_b8bc_eb3b)
        );
    });
}

/// The 8-stream spectral batch on the 800–2000 Hz frequency-multiplexed
/// plan: every producer window sees several streams' clock edges.
#[test]
fn multiplexed_spectral_batch_readings_match_golden_bits() {
    each_dispatch(|workers| {
        let (sim, model) = setup(true, workers);
        let model = std::sync::Arc::new(model);
        let spec = ReaderSpec::frequency_multiplexed(8, 3, 0xBA7C_8008, &sim.group)
            .expect("8 clocks fit the 800-2000 Hz band");
        let report = run_batch(
            &sim,
            &model,
            std::slice::from_ref(&spec),
            &BatchConfig::wiforce(workers),
        )
        .expect("a valid 8-stream reader");
        assert!(report.streams.iter().all(|s| s.readings.len() >= 3));
        let mut h = Pins::new();
        for s in &report.streams {
            h.word(s.failures);
            h.word(s.readings.len() as u64);
            for r in &s.readings {
                h.word(r.group);
                h.reading(&r.reading);
            }
        }
        assert_eq!(h.finish(), (0xc8de_8154_a8bd_4658, 0xdd6d_9d56_30ab_34ed));
    });
}
