#![warn(missing_docs)]

//! # wiforce-dsp
//!
//! Signal-processing substrate for the WiForce reproduction.
//!
//! WiForce's sensing algorithm lives entirely in the complex-baseband domain:
//! the reader takes periodic wideband channel estimates, isolates the tag in
//! the Doppler domain with an FFT across snapshots, reads differential phases
//! via conjugate multiplication, and fits/inverts cubic phase-force models.
//! This crate provides every numerical primitive those steps need, with no
//! external numerics dependencies:
//!
//! * [`Complex`] — a minimal, fully-featured `f64` complex number.
//! * [`fft`] — radix-2 and Bluestein FFTs, the Goertzel single-bin DFT used
//!   for cheap harmonic extraction, and a reference DFT for testing.
//! * [`linalg`] — small dense matrices with LU solve and least squares.
//! * [`polyfit`] — polynomial least-squares fitting (the paper's cubic
//!   phase-force model) and evaluation utilities.
//! * [`stats`] — means, medians, percentiles, empirical CDFs, circular
//!   statistics for phase data.
//! * [`phase`] — wrapping, unwrapping and angle conversions.
//! * [`interp`] — 1-D and 2-D interpolation on sorted grids.
//! * [`stft`] — short-time Fourier transform for Doppler waterfalls.
//! * [`window`] — spectral windows.
//! * [`signal`] — convolution / correlation helpers used by preamble sync.
//! * [`snapshots`] — flat row-major snapshot-stream storage
//!   ([`snapshots::SnapshotMatrix`]) shared by the whole pipeline.
//! * [`rng`] — seeded Gaussian / complex-Gaussian sampling (Box–Muller).
//! * [`fastmath`] — vectorizable polynomial `ln`/`cos` kernels backing the
//!   bulk noise synthesis.
//! * [`kernels`] — runtime-dispatched (AVX2/AVX-512/NEON, scalar
//!   fallback) SIMD instantiations of every hot inner loop; all paths
//!   bit-identical.
//! * [`hash`] — the FNV-1a word hasher behind every configuration token.
//!
//! Everything is deterministic given caller-provided RNGs and is `f64`
//! throughout.

pub mod complex;
pub mod fastmath;
pub mod fft;
pub mod hash;
pub mod interp;
pub mod kernels;
pub mod linalg;
pub mod phase;
pub mod polyfit;
pub mod rng;
pub mod signal;
pub mod snapshots;
pub mod stats;
pub mod stft;
pub mod window;

pub use complex::Complex;
pub use snapshots::{SnapshotMatrix, SnapshotView};

/// Speed of light in vacuum, m/s.
pub const C0: f64 = 299_792_458.0;

/// Convenience: π as `f64`.
pub const PI: f64 = std::f64::consts::PI;

/// Convenience: 2π as `f64`.
pub const TAU: f64 = std::f64::consts::TAU;
