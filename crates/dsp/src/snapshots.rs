//! Flat, row-major storage for channel-estimate snapshot streams.
//!
//! The WiForce pipeline moves phase groups of `n_snapshots × k_sub`
//! complex channel estimates (625 × 64 by default, one group every
//! 36 ms). Storing them as `Vec<Vec<Complex>>` costs one heap allocation
//! per snapshot and scatters the group across the heap, which both
//! dominates the simulator's inner loop and defeats the cache during
//! harmonic extraction. [`SnapshotMatrix`] keeps a whole stream in one
//! contiguous buffer: rows are snapshots (time), columns are subcarriers
//! (frequency), and the buffer's capacity is reusable across groups via
//! [`SnapshotMatrix::clear`].
//!
//! [`SnapshotView`] is the borrowed counterpart used by consumers
//! (extraction, Doppler spectra, replay) so sub-ranges of a stream can be
//! processed without copying.

use crate::complex::Complex;

/// Owned row-major matrix of channel-estimate snapshots.
///
/// Row `n` holds snapshot `n`; column `k` holds subcarrier `k`. The
/// column count is fixed by the first row pushed (or at construction) and
/// enforced on every subsequent row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotMatrix {
    n_cols: usize,
    data: Vec<Complex>,
}

impl SnapshotMatrix {
    /// Creates an empty matrix with `n_cols` subcarriers per snapshot.
    pub fn new(n_cols: usize) -> Self {
        SnapshotMatrix {
            n_cols,
            data: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity reserved for `rows` snapshots.
    pub fn with_capacity(n_cols: usize, rows: usize) -> Self {
        SnapshotMatrix {
            n_cols,
            data: Vec::with_capacity(n_cols * rows),
        }
    }

    /// Builds a matrix from an existing flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `n_cols` (for
    /// `n_cols == 0` the buffer must be empty).
    pub fn from_flat(n_cols: usize, data: Vec<Complex>) -> Self {
        if n_cols == 0 {
            assert!(data.is_empty(), "zero-width matrix cannot hold data");
        } else {
            assert_eq!(
                data.len() % n_cols,
                0,
                "flat buffer is not a whole number of rows"
            );
        }
        SnapshotMatrix { n_cols, data }
    }

    /// Builds a matrix by copying a slice of equal-length rows.
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<Complex>]) -> Self {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut m = SnapshotMatrix::with_capacity(n_cols, rows.len());
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Number of snapshots (rows) currently stored.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.n_cols).unwrap_or(0)
    }

    /// Number of subcarriers (columns) per snapshot.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// `true` if no snapshots are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes all snapshots, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Keeps only the first `rows` snapshots.
    pub fn truncate(&mut self, rows: usize) {
        self.data.truncate(rows * self.n_cols);
    }

    /// Reserves capacity for `rows` additional snapshots.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.data.reserve(rows * self.n_cols);
    }

    /// Appends one snapshot by copy.
    ///
    /// An empty matrix with zero width adopts the width of the first row,
    /// so `SnapshotMatrix::default()` can buffer a stream whose subcarrier
    /// count is only known at the first snapshot.
    ///
    /// # Panics
    /// Panics if `row.len()` does not match the matrix width.
    pub fn push_row(&mut self, row: &[Complex]) {
        if self.n_cols == 0 && self.data.is_empty() {
            self.n_cols = row.len();
        }
        assert_eq!(row.len(), self.n_cols, "snapshot width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Sets the width of an empty zero-width matrix, so producers that
    /// fill rows in place via [`Self::push_row_default`] can adopt a width
    /// the same way [`Self::push_row`] does.
    ///
    /// # Panics
    /// Panics if the matrix already holds data of a different width.
    pub fn set_width(&mut self, n_cols: usize) {
        if self.n_cols == 0 && self.data.is_empty() {
            self.n_cols = n_cols;
        }
        assert_eq!(self.n_cols, n_cols, "snapshot width mismatch");
    }

    /// Appends one zeroed snapshot and returns it for in-place filling —
    /// the allocation-free write path for producers.
    pub fn push_row_default(&mut self) -> &mut [Complex] {
        let start = self.data.len();
        self.data.resize(start + self.n_cols, Complex::ZERO);
        &mut self.data[start..]
    }

    /// Appends `rows` zeroed snapshots in one resize and returns the new
    /// region as a flat mutable slice (`rows × n_cols` elements, row
    /// major). Parallel producers split this region into disjoint
    /// per-worker row ranges and fill them concurrently.
    ///
    /// # Panics
    /// Panics if the width has not been set (via [`Self::set_width`] or a
    /// prior row) — a zero-width bulk append would be unrecoverable.
    pub fn extend_rows(&mut self, rows: usize) -> &mut [Complex] {
        assert!(self.n_cols > 0, "set_width before extend_rows");
        let start = self.data.len();
        self.data.resize(start + rows * self.n_cols, Complex::ZERO);
        &mut self.data[start..]
    }

    /// Snapshot `n` as a slice.
    #[inline]
    pub fn row(&self, n: usize) -> &[Complex] {
        &self.data[n * self.n_cols..(n + 1) * self.n_cols]
    }

    /// Snapshot `n` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, n: usize) -> &mut [Complex] {
        &mut self.data[n * self.n_cols..(n + 1) * self.n_cols]
    }

    /// The most recent snapshot, if any.
    pub fn last_row(&self) -> Option<&[Complex]> {
        if self.is_empty() {
            None
        } else {
            Some(self.row(self.n_rows() - 1))
        }
    }

    /// Iterates over snapshots in time order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, Complex> {
        // chunks_exact(0) panics; an empty matrix yields no rows.
        self.data.chunks_exact(self.n_cols.max(1))
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Borrowed view of the whole matrix.
    #[inline]
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            n_cols: self.n_cols,
            data: &self.data,
        }
    }

    /// Borrowed view of rows `start..start + rows`.
    ///
    /// # Panics
    /// Panics if the range exceeds the stored rows.
    pub fn rows_view(&self, start: usize, rows: usize) -> SnapshotView<'_> {
        assert!(start + rows <= self.n_rows(), "row range out of bounds");
        SnapshotView {
            n_cols: self.n_cols,
            data: &self.data[start * self.n_cols..(start + rows) * self.n_cols],
        }
    }
}

/// Borrowed row-major view over a snapshot stream (or a sub-range of one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotView<'a> {
    n_cols: usize,
    data: &'a [Complex],
}

impl<'a> SnapshotView<'a> {
    /// Wraps a flat row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `n_cols`.
    pub fn from_flat(n_cols: usize, data: &'a [Complex]) -> Self {
        if n_cols == 0 {
            assert!(data.is_empty(), "zero-width view cannot hold data");
        } else {
            assert_eq!(
                data.len() % n_cols,
                0,
                "flat slice is not a whole number of rows"
            );
        }
        SnapshotView { n_cols, data }
    }

    /// Number of snapshots (rows) in the view.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.n_cols).unwrap_or(0)
    }

    /// Number of subcarriers (columns) per snapshot.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// `true` if the view holds no snapshots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Snapshot `n` as a slice.
    #[inline]
    pub fn row(&self, n: usize) -> &'a [Complex] {
        &self.data[n * self.n_cols..(n + 1) * self.n_cols]
    }

    /// Iterates over snapshots in time order.
    pub fn rows(&self) -> std::slice::ChunksExact<'a, Complex> {
        self.data.chunks_exact(self.n_cols.max(1))
    }

    /// The underlying flat slice, row-major.
    #[inline]
    pub fn as_slice(&self) -> &'a [Complex] {
        self.data
    }

    /// Sub-view of rows `start..start + rows`.
    ///
    /// # Panics
    /// Panics if the range exceeds the view's rows.
    pub fn rows_view(&self, start: usize, rows: usize) -> SnapshotView<'a> {
        assert!(start + rows <= self.n_rows(), "row range out of bounds");
        SnapshotView {
            n_cols: self.n_cols,
            data: &self.data[start * self.n_cols..(start + rows) * self.n_cols],
        }
    }
}

impl<'a> From<&'a SnapshotMatrix> for SnapshotView<'a> {
    fn from(m: &'a SnapshotMatrix) -> Self {
        m.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex {
        Complex::from_re(re)
    }

    #[test]
    fn push_and_read_rows() {
        let mut m = SnapshotMatrix::new(3);
        m.push_row(&[c(1.0), c(2.0), c(3.0)]);
        m.push_row(&[c(4.0), c(5.0), c(6.0)]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.row(1)[0], c(4.0));
        assert_eq!(m.rows().count(), 2);
        assert_eq!(m.last_row().unwrap()[2], c(6.0));
    }

    #[test]
    fn default_adopts_width_of_first_row() {
        let mut m = SnapshotMatrix::default();
        assert_eq!(m.n_cols(), 0);
        m.push_row(&[c(1.0), c(2.0)]);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.n_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_rows_rejected() {
        let mut m = SnapshotMatrix::new(2);
        m.push_row(&[c(1.0)]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = SnapshotMatrix::with_capacity(4, 8);
        for _ in 0..8 {
            m.push_row_default();
        }
        let cap = m.data.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.data.capacity(), cap);
        // width survives a clear — the next group reuses the same layout
        assert_eq!(m.n_cols(), 4);
    }

    #[test]
    fn push_row_default_is_zeroed_and_writable() {
        let mut m = SnapshotMatrix::new(2);
        m.push_row(&[c(9.0), c(9.0)]);
        let r = m.push_row_default();
        assert_eq!(r, &[Complex::ZERO, Complex::ZERO]);
        r[1] = c(5.0);
        assert_eq!(m.row(1)[1], c(5.0));
    }

    #[test]
    fn extend_rows_appends_zeroed_region() {
        let mut m = SnapshotMatrix::new(3);
        m.push_row(&[c(1.0), c(2.0), c(3.0)]);
        let region = m.extend_rows(4);
        assert_eq!(region.len(), 12);
        assert!(region.iter().all(|&z| z == Complex::ZERO));
        region[3] = c(7.0); // row 2 (second appended), col 0
        assert_eq!(m.n_rows(), 5);
        assert_eq!(m.row(0)[0], c(1.0));
        assert_eq!(m.row(2)[0], c(7.0));
    }

    #[test]
    #[should_panic(expected = "set_width")]
    fn extend_rows_requires_width() {
        let mut m = SnapshotMatrix::default();
        let _ = m.extend_rows(2);
    }

    #[test]
    fn views_and_ranges() {
        let mut m = SnapshotMatrix::new(2);
        for i in 0..6 {
            m.push_row(&[c(i as f64), c(-(i as f64))]);
        }
        let v = m.view();
        assert_eq!(v.n_rows(), 6);
        let mid = m.rows_view(2, 3);
        assert_eq!(mid.n_rows(), 3);
        assert_eq!(mid.row(0)[0], c(2.0));
        let sub = mid.rows_view(1, 1);
        assert_eq!(sub.row(0)[0], c(3.0));
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![vec![c(1.0), c(2.0)], vec![c(3.0), c(4.0)]];
        let m = SnapshotMatrix::from_rows(&rows);
        assert_eq!(m.n_rows(), 2);
        for (mr, vr) in m.rows().zip(&rows) {
            assert_eq!(mr, vr.as_slice());
        }
    }

    #[test]
    fn from_flat_round_trip() {
        let m = SnapshotMatrix::from_flat(2, vec![c(1.0), c(2.0), c(3.0), c(4.0)]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row(1), &[c(3.0), c(4.0)]);
        assert_eq!(SnapshotView::from_flat(2, m.as_slice()).n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn from_flat_rejects_partial_rows() {
        let _ = SnapshotMatrix::from_flat(2, vec![c(1.0)]);
    }

    #[test]
    fn empty_matrix_yields_no_rows() {
        let m = SnapshotMatrix::default();
        assert_eq!(m.rows().count(), 0);
        assert_eq!(m.view().rows().count(), 0);
        assert!(m.last_row().is_none());
    }
}
