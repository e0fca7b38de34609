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

use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::batch::{run_batch, BatchConfig, PressSpec, ReaderSpec};
use wiforce::{ForceReading, SensorModel, Simulation, WiForceError};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
    fn reading(&mut self, r: &ForceReading) {
        for v in [
            r.force_n,
            r.location_m,
            r.dphi1_rad,
            r.dphi2_rad,
            r.residual_rad,
        ] {
            self.f64(v);
        }
        self.word(r.touched as u64);
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
}

fn setup(spectral: bool) -> (Simulation, SensorModel) {
    let mut sim = Simulation::paper_default(0.9e9);
    sim.synth_spectral = Some(spectral);
    let model = sim.vna_calibration().expect("VNA calibration fits");
    (sim, model)
}

/// Seeded presses over the calibrated domain, hashed in order, with the
/// number that produced a reading.
fn presses_hash(sim: &Simulation, model: &SensorModel, presses: u64) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut ok = 0;
    for i in 0..presses {
        let force = 0.5 + 7.5 * ((i * 7) % presses) as f64 / presses as f64;
        let location = 0.022 + 0.036 * ((i * 5) % presses) as f64 / presses as f64;
        let mut rng = StdRng::seed_from_u64(0x601D_0000 + i);
        let r = sim.measure_press(model, force, location, &mut rng);
        ok += r.is_ok() as u64;
        h.result(&r);
    }
    (h.0, ok)
}

fn press_hash(spectral: bool, presses: u64) -> u64 {
    let (sim, model) = setup(spectral);
    let (hash, ok) = presses_hash(&sim, &model, presses);
    assert!(ok * 4 >= presses * 3, "{ok} of {presses} presses read");
    hash
}

#[test]
fn spectral_press_readings_match_golden_bits() {
    assert_eq!(press_hash(true, 16), 0xd34b_e798_14d1_0ca2);
}

#[test]
fn time_domain_press_readings_match_golden_bits() {
    assert_eq!(press_hash(false, 4), 0x3bc8_5837_6e9b_405c);
}

/// Presses through the driver branches the default configuration skips:
/// tag-clock tracking under drift, a failed tag detection, snapshot-drop
/// and burst faults, and the FMCW reader. Configurations outside the
/// spectral envelope fall back to the time-domain arm, so their spectral
/// run must hash the same.
fn branch_hash(spectral: bool, configure: impl Fn(&mut Simulation), presses: u64) -> (u64, u64) {
    let (mut sim, model) = setup(spectral);
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
    sim.faults.snapshot_drop_prob = 0.05;
    sim.faults.burst_prob = 0.05;
    sim.faults.burst_rel_amp = 0.1;
}

fn fmcw(sim: &mut Simulation) {
    *sim = sim.clone().with_fmcw_sounder();
}

#[test]
fn tracked_clock_press_readings_match_golden_bits() {
    assert_eq!(
        branch_hash(false, tracked_clock, 2),
        (0xcb46_3e13_a112_4fb0, 2)
    );
    assert_eq!(
        branch_hash(true, tracked_clock, 4),
        (0xce27_855d_acc5_1bc9, 4)
    );
}

#[test]
fn undetected_tag_errors_match_golden_bits() {
    assert_eq!(
        branch_hash(false, phantom_without_plate, 2),
        (0x311f_0e07_71b3_99cd, 0)
    );
    assert_eq!(
        branch_hash(true, phantom_without_plate, 2),
        (0xe4d1_b381_b59b_50e0, 0)
    );
}

#[test]
fn faulted_time_domain_press_readings_match_golden_bits() {
    let td = branch_hash(false, dropped_and_burst, 2);
    assert_eq!(td, (0xd16c_5e1b_d325_22da, 2));
    assert_eq!(branch_hash(true, dropped_and_burst, 2), td);
}

#[test]
fn fmcw_press_readings_match_golden_bits() {
    let td = branch_hash(false, fmcw, 2);
    assert_eq!(td, (0x7661_7266_c56e_403a, 2));
    assert_eq!(branch_hash(true, fmcw, 2), td);
}

/// A quiet group then a pressed group appended to one matrix through the
/// counter-addressed stream, hashed over every sample and the clock.
#[test]
fn snapshot_stream_matches_golden_bits() {
    use wiforce::pipeline::{PressNoise, TagClock};
    let (sim, _) = setup(false);
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
    assert_eq!(h.0, 0x302d_02da_004f_fbe5);
}

#[test]
fn invert_lattice_matches_golden_bits() {
    let (_, model) = setup(true);
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
    assert_eq!(h.0, 0x4301_1d57_1819_8736);
}

/// A two-stream batch with three presses per stream, hashed in stream
/// order.
fn batch_hash(spectral: bool) -> u64 {
    let (sim, model) = setup(spectral);
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
        .stream("b", 1250.0, presses(1));
    let report = run_batch(
        &sim,
        &model,
        std::slice::from_ref(&spec),
        &BatchConfig::wiforce(2),
    )
    .expect("a valid two-stream reader");
    let mut h = Fnv::new();
    for s in &report.streams {
        h.word(s.failures);
        for r in &s.readings {
            h.word(r.group);
            h.reading(&r.reading);
        }
    }
    h.0
}

#[test]
fn spectral_batch_readings_match_golden_bits() {
    assert_eq!(batch_hash(true), 0x43a9_0777_dbe9_42e4);
}

#[test]
fn time_domain_batch_readings_match_golden_bits() {
    assert_eq!(batch_hash(false), 0xc825_530f_147d_c067);
}

/// The 8-stream spectral batch on the 800–2000 Hz frequency-multiplexed
/// plan: every producer window sees several streams' clock edges.
#[test]
fn multiplexed_spectral_batch_readings_match_golden_bits() {
    let (sim, model) = setup(true);
    let model = std::sync::Arc::new(model);
    let spec = ReaderSpec::frequency_multiplexed(8, 3, 0xBA7C_8008, &sim.group)
        .expect("8 clocks fit the 800-2000 Hz band");
    let report = run_batch(
        &sim,
        &model,
        std::slice::from_ref(&spec),
        &BatchConfig::wiforce(2),
    )
    .expect("a valid 8-stream reader");
    assert!(report.streams.iter().all(|s| s.readings.len() >= 3));
    let mut h = Fnv::new();
    for s in &report.streams {
        h.word(s.failures);
        h.word(s.readings.len() as u64);
        for r in &s.readings {
            h.word(r.group);
            h.reading(&r.reading);
        }
    }
    assert_eq!(h.0, 0xb76d_1360_8bda_29da);
}
