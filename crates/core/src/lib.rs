#![warn(missing_docs)]

//! # wiforce
//!
//! WiForce: wireless sensing and localization of contact forces on a space
//! continuum — a full software reproduction of the NSDI 2021 system.
//!
//! WiForce is a battery-free force sensor: a soft-beam microstrip line
//! whose contact patch moves with applied force, read wirelessly by
//! observing the phase of backscattered, switch-modulated reflections.
//! This crate is the paper's *contribution* layer; the physics it runs on
//! (beam mechanics, transmission lines, channels, SDR sounding) lives in
//! the `wiforce-*` substrate crates.
//!
//! Pipeline (paper §3):
//!
//! 1. A reader sounds the channel every ~57.6 µs → `H[k, n]`
//!    (`wiforce-reader`).
//! 2. [`harmonics`] — group snapshots into *phase groups* and take the
//!    Doppler-domain transform at the tag's modulation lines `fs`/`4fs`,
//!    isolating each sensor end from static multipath (Eq. 1–3).
//! 3. [`diffphase`] — conjugate-multiply against a no-touch reference and
//!    average across subcarriers to extract the two differential phases
//!    (Eq. 4–5).
//! 4. [`calib`] + [`model`] — the §4.2 sensor model: cubic phase-force fits
//!    per calibration location, interpolated across the continuum and
//!    inverted to `(force, location)`.
//! 5. [`estimator`] — the streaming end-to-end estimator.
//! 6. [`pipeline`] — simulation orchestration binding scene + tag + reader
//!    + mechanics for the paper's experiments.
//! 7. [`multisensor`] — the §7 2-D continuum extension.
//! 8. [`spectrum`] — Doppler spectra and automatic tag discovery (find
//!    unknown tags by their `fs`/`4fs` line-pair signature).
//! 9. [`record`] — capture/replay of channel-estimate streams (`.wifs`
//!    files), for reproducible offline analysis.
//!
//! ## Quick start
//!
//! ```
//! use wiforce::pipeline::Simulation;
//! use rand::SeedableRng;
//!
//! // Paper Fig. 12 setup at 2.4 GHz, actuator pressing at 40 mm.
//! let sim = Simulation::paper_default(2.4e9);
//! let model = sim.vna_calibration().expect("calibration");
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let reading = sim
//!     .measure_press(&model, 4.0, 0.040, &mut rng)
//!     .expect("press readable");
//! assert!((reading.force_n - 4.0).abs() < 1.0);
//! assert!((reading.location_m - 0.040).abs() < 0.005);
//! ```

pub mod batch;
pub mod calib;
pub mod calibrate;
pub mod diffphase;
pub mod estimator;
pub mod harmonics;
#[cfg(test)]
mod line_noise_check;
/// Serializes the tests that flip the process-wide telemetry gate, so
/// one test switching it off cannot blank another's recording.
#[cfg(test)]
static TELEMETRY_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Serializes the tests that hold the SIMD dispatch to scalar: a hold
/// reaches every thread, so it would turn another test's detected pass
/// into a second scalar one.
#[cfg(test)]
static SCALAR_HOLDS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `check` under the detected SIMD dispatch, then again with it held
/// to the scalar bodies: every backend must give the same bits.
#[cfg(test)]
fn each_backend(mut check: impl FnMut()) {
    let _one = SCALAR_HOLDS.lock().unwrap_or_else(|e| e.into_inner());
    check();
    let _scalar = wiforce_dsp::kernels::hold_scalar();
    check();
}

/// [`each_backend`] at 1 and 8 workers, the argument `check` sets on the
/// simulations or batches it runs.
#[cfg(test)]
fn each_dispatch(mut check: impl FnMut(usize)) {
    each_backend(|| {
        check(1);
        check(8);
    });
}
pub mod model;
pub mod multisensor;
pub mod parallel;
pub mod pipeline;
pub mod record;
pub mod spectrum;
pub mod tracking;

pub use calib::SensorModel;
pub use estimator::{EstimatorConfig, ForceEstimator, ForceReading};
pub use harmonics::PhaseGroupConfig;
pub use pipeline::Simulation;

/// Errors surfaced by the WiForce core.
#[derive(Debug, Clone, PartialEq)]
pub enum WiForceError {
    /// Calibration data insufficient or inconsistent.
    Calibration(String),
    /// The measured phases fall outside the calibrated model's range.
    OutOfModelRange {
        /// Port-1 differential phase, rad.
        phi1: f64,
        /// Port-2 differential phase, rad.
        phi2: f64,
    },
    /// The tag's modulation line was not detectable above the floor.
    TagNotDetected {
        /// Measured line-to-floor power ratio, dB.
        line_to_floor_db: f64,
    },
    /// Configuration invariant violated.
    Config(String),
}

impl std::fmt::Display for WiForceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WiForceError::Calibration(msg) => write!(f, "calibration error: {msg}"),
            WiForceError::OutOfModelRange { phi1, phi2 } => write!(
                f,
                "phases ({:.1}°, {:.1}°) outside the calibrated range",
                phi1.to_degrees(),
                phi2.to_degrees()
            ),
            WiForceError::TagNotDetected { line_to_floor_db } => {
                write!(
                    f,
                    "tag modulation line not detected ({line_to_floor_db:.1} dB above floor)"
                )
            }
            WiForceError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for WiForceError {}
