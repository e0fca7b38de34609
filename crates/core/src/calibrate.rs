//! The synthesis dispatch as the repository benchmark's `machine` block
//! reports it.
//!
//! Time-domain synthesis decides from the configuration alone: snapshots
//! come from the sounder's estimate law wherever
//! [`crate::Simulation::synth_wide_enabled`] says so, in blocks of
//! [`crate::pipeline::CHUNK_ROWS`] rows. Nothing here is
//! measured; the two functions below exist only for that benchmark
//! block and its `synth.chunk_rows` ledger row, and go when the
//! benchmark drops them.

use crate::pipeline::CHUNK_ROWS;

/// The synthesis dispatch as the benchmark's `machine` block reports it.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Whether the block step is the default where eligible (always).
    pub wide_default: bool,
    /// SoA chunk width, [`CHUNK_ROWS`].
    pub chunk_rows: usize,
    /// Unmeasured; 0.
    pub ns_per_row_wide: f64,
    /// Unmeasured; 0.
    pub ns_per_row_narrow: f64,
    /// Always false: nothing is probed.
    pub probed: bool,
}

/// The fixed dispatch, for the benchmark's `machine` block only.
pub fn calibration() -> &'static Calibration {
    static CAL: Calibration = Calibration {
        wide_default: true,
        chunk_rows: CHUNK_ROWS,
        ns_per_row_wide: 0.0,
        ns_per_row_narrow: 0.0,
        probed: false,
    };
    &CAL
}

/// [`CHUNK_ROWS`], for the benchmark's per-layer ledger only.
pub fn synth_chunk_rows() -> usize {
    CHUNK_ROWS
}
