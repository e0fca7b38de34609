//! Golden bit-hashes of end-to-end readings.
//!
//! Each hash is FNV-1a over the raw bits of every output field, recorded
//! from the implementation before the EM plan, the fmod-free clock and the
//! fmod-free phase wrap replaced the per-press recomputation. Those
//! changes are exact rewrites, so the readings must not move by one bit;
//! any change to these constants is a change in what the system reports.

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

/// Seeded presses over the calibrated domain, hashed in order.
fn press_hash(spectral: bool, presses: u64) -> u64 {
    let (sim, model) = setup(spectral);
    let mut h = Fnv::new();
    let mut ok = 0;
    for i in 0..presses {
        let force = 0.5 + 7.5 * ((i * 7) % presses) as f64 / presses as f64;
        let location = 0.022 + 0.036 * ((i * 5) % presses) as f64 / presses as f64;
        let mut rng = StdRng::seed_from_u64(0x601D_0000 + i);
        let r = sim.measure_press(&model, force, location, &mut rng);
        ok += r.is_ok() as u64;
        h.result(&r);
    }
    assert!(ok * 4 >= presses * 3, "{ok} of {presses} presses read");
    h.0
}

#[test]
fn spectral_press_readings_match_golden_bits() {
    assert_eq!(press_hash(true, 16), 0xd34b_e798_14d1_0ca2);
}

#[test]
fn time_domain_press_readings_match_golden_bits() {
    assert_eq!(press_hash(false, 4), 0x3bc8_5837_6e9b_405c);
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
