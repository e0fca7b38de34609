#![warn(missing_docs)]

//! # wiforce-reader
//!
//! Wireless-reader substrate for the WiForce reproduction.
//!
//! Paper §4.4: "The main task of the wireless reader is to transmit the
//! OFDM waveform and periodically estimate the channel, so that phase
//! changes at the shifted frequencies from the sensor can be read
//! wirelessly." The prototype reader is a USRP N210 sounding a 64-
//! subcarrier, 12.5 MHz OFDM preamble every 720 samples (57.6 µs), giving
//! a ±8.68 kHz unambiguous Doppler band for the tag's 1/4 kHz lines.
//!
//! WiForce's algorithm is *waveform-agnostic* (§3.3): anything producing
//! periodic wideband channel estimates works. This crate provides:
//!
//! * [`ofdm`] — preamble generation, waveform-level synthesis, and
//!   least-squares channel estimation (the paper's reader).
//! * [`fmcw`] — a chirp sounder producing the same per-frequency channel
//!   samples, demonstrating the waveform-agnostic claim.
//! * [`sounder`] — the common [`sounder::ChannelSounder`] trait.
//! * [`stream`] — the sample-level TX/RX chain: continuous frame stream,
//!   preamble acquisition, per-frame channel estimation.
//! * [`sync`] — preamble detection by cross-correlation (frame timing).

pub mod fmcw;
pub mod ofdm;
pub mod sounder;
pub mod stream;
pub mod sync;

pub use ofdm::OfdmSounder;
pub use sounder::ChannelSounder;
