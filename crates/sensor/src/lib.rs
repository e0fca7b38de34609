#![warn(missing_docs)]

//! # wiforce-sensor
//!
//! The WiForce tag: everything that sits on the sensed object.
//!
//! The tag is passive RF machinery (paper §3.2/§4.3): the microstrip sensor
//! line, one reflective RF switch per port, a duty-cycled two-clock driver,
//! a splitter, and a single antenna. The clocking is the paper's creative
//! bit — a 25 %-duty clock at `fs` and a 75 %-duty clock at `2fs` (driving
//! an active-low switch), phase-aligned so that **at most one switch is on
//! at any instant**. That yields clean, intermodulation-free modulation
//! lines at `fs` (port 1) and `4fs` (port 2), which the reader separates in
//! the Doppler domain.
//!
//! * [`clock`] — duty-cycled square-wave clocks, the WiForce pair, the
//!   naive 50/50 pair (the §3.2 strawman that intermodulates), and Fourier
//!   analysis of the resulting modulation.
//! * [`switch`] — reflective/absorptive RF switch models (HMC544AE-like).
//! * [`splitter`] — the 2-way power splitter combining the two branches.
//! * [`tag`] — the assembled tag: time-varying antenna reflection
//!   coefficient given the mechanical contact state.
//! * [`power`] — the §4.3 power budget: clock + switch drive in a chosen
//!   CMOS node (< 1 µW at 65 nm).
//! * [`harvest`] — RF energy harvesting: quantifies the §6 battery-free
//!   claim (feasibility radius where harvested power covers the budget).
//! * [`multi`] — multiple tags at distinct clock frequencies (the §7 2-D
//!   continuum extension).

pub mod clock;
pub mod harvest;
pub mod multi;
pub mod power;
pub mod splitter;
pub mod switch;
pub mod tag;

pub use clock::{ClockPair, DutyClock};
pub use splitter::Splitter;
pub use switch::RfSwitch;
pub use tag::{ResponsePlan, SensorTag};
