#![warn(missing_docs)]

//! # wiforce-em
//!
//! RF/electromagnetics substrate for the WiForce reproduction.
//!
//! The WiForce sensor is electrically an air-substrate microstrip
//! transmission line (paper §4.1/Appendix): 2.5 mm signal trace suspended
//! 0.63 mm above a 6 mm ground trace, 80 mm long, broadband to 3 GHz. A
//! press shorts the line at the contact-patch edges, and the reflected
//! phase encodes how far the signal travelled before the short. The paper
//! characterizes all of this with a VNA and Ansys HFSS; this crate provides
//! the software equivalents:
//!
//! * [`microstrip`] — impedance (the paper's Appendix formula), effective
//!   permittivity, propagation constant, conductor loss.
//! * [`twoport`] — complex ABCD two-port algebra, cascading, and
//!   S-parameter conversion in a 50 Ω system.
//! * [`materials`] — complex-permittivity dielectrics, including the
//!   gelatin tissue-phantom layers (muscle/fat/skin) of §5.2.
//! * [`sensor_line`] — the sensor as an RF network: per-port reflection
//!   coefficients given a contact patch and the far-end termination.
//! * [`vna`] — a two-port vector-network-analyzer simulator (Fig. 10,
//!   Table 1 wired baselines).
//! * [`calkit`] — one-port error model + Short-Open-Load calibration
//!   (why the wired ground truth can be trusted to sub-degree phase).
//! * [`hfss`] — a parametric solver stand-in for the Appendix's HFSS study
//!   of trace-ratio vs ground-width (Fig. 19).

pub mod antenna;
pub mod calkit;
pub mod hfss;
pub mod materials;
pub mod microstrip;
pub mod sensor_line;
pub mod twoport;
pub mod vna;

pub use materials::Dielectric;
pub use microstrip::Microstrip;
pub use sensor_line::{LineAt, SensorLine, Termination};
pub use twoport::{Abcd, SParams};

/// Reference system impedance, Ω.
pub const Z_REF: f64 = 50.0;

/// Vacuum permeability, H/m.
pub const MU0: f64 = 1.256_637_062_12e-6;

/// Vacuum permittivity, F/m.
pub const EPS0: f64 = 8.854_187_812_8e-12;
