//! One module per reproduced table/figure. Each exposes
//! `run(quick: bool) -> Report` — `run(quick: bool, arm: SynthArm)` where
//! it builds a [`Simulation`] — printing its series to stdout and
//! returning paper-vs-measured records; the `repro_all` binary collects
//! every report into `EXPERIMENTS.md`.

use wiforce::pipeline::Simulation;

pub mod ablations;
pub mod doppler;
pub mod fig04;
pub mod fig05;
pub mod fig07;
pub mod fig10;
pub mod fig13_14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod hysteresis;
pub mod power;
pub mod table1;

/// The synthesis arm an experiment's simulations run on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SynthArm {
    /// The bit-pinned time-domain reference.
    #[default]
    TimeDomain,
    /// Spectral direct line synthesis; configurations outside its
    /// validity envelope fall back to the time-domain arm.
    Spectral,
}

impl SynthArm {
    /// Parses a `--synth-mode` value: `td` or `spectral`.
    pub fn parse(mode: &str) -> Result<Self, String> {
        match mode {
            "td" => Ok(SynthArm::TimeDomain),
            "spectral" => Ok(SynthArm::Spectral),
            other => Err(format!("--synth-mode '{other}': expected td|spectral")),
        }
    }

    /// [`Simulation::paper_default`] on this arm.
    pub fn paper_default(self, carrier_hz: f64) -> Simulation {
        let mut sim = Simulation::paper_default(carrier_hz);
        sim.synth_spectral = Some(self == SynthArm::Spectral);
        sim
    }
}

/// Resolves the repository root (for writing EXPERIMENTS.md) from the
/// bench crate's manifest directory.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}
