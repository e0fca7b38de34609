#![warn(missing_docs)]

//! # wiforce-channel
//!
//! Wireless-channel substrate for the WiForce reproduction.
//!
//! The paper's evaluations happen over the air in cluttered indoor rooms
//! (Fig. 12), through gelatin tissue phantoms (§5.2, Fig. 15), and across
//! a range of TX–sensor–RX geometries (§5.4, Fig. 18). This crate models
//! all of that as a linear time-varying frequency response
//!
//! ```text
//! H(f, t) = H_direct(f) + H_multipath(f) + g_backscatter(f)·Γ_tag(f, t)
//! ```
//!
//! plus receiver realities: thermal noise, finite ADC dynamic range (the
//! 60 dB USRP limitation that forces the paper's metal-plate isolation in
//! the phantom experiment), and injectable faults.
//!
//! * [`cache`] — press-invariant channel cache (static response,
//!   backscatter gain, AGC full scale) shared read-only by the pipeline
//!   and batch workers, fingerprint-invalidated on any scene change.
//! * [`pathloss`] — Friis one-way and radar-style two-way backscatter
//!   budgets.
//! * [`multipath`] — static indoor clutter as a sum of discrete paths.
//! * [`scene`] — TX/tag/RX geometry + clutter + optional tissue wall:
//!   produces per-subcarrier, per-snapshot channels.
//! * [`frontend`] — thermal noise floor, AGC + ADC quantization, dynamic
//!   range, direct-path blockage.
//! * [`movers`] — moving scatterers (real Doppler) for the §3.3
//!   interference-separation experiment.
//! * [`faults`] — snapshot dropouts, tag clock drift, interference bursts
//!   (for robustness testing, smoltcp-style).

pub mod cache;
pub mod faults;
pub mod frontend;
pub mod movers;
pub mod multipath;
pub mod pathloss;
pub mod scene;

pub use cache::{ChannelCache, SharedChannelCache};
pub use frontend::Frontend;
pub use multipath::StaticMultipath;
pub use scene::Scene;
