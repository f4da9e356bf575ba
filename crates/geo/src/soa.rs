//! Structure-of-arrays (SoA) point storage.
//!
//! The per-tick kernels — DBSCAN's grid scan, the threshold-aware Hausdorff
//! tests, MBR/centroid construction — spend their time streaming coordinates.
//! Storing points as parallel `xs`/`ys` columns instead of interleaved
//! [`Point`] structs keeps those streams dense (one cache line carries eight
//! coordinates of the axis being scanned instead of four) and lets the
//! compiler vectorise the min/max/sum reductions.
//!
//! Two pieces:
//!
//! * [`PointColumns`] — an owning pair of `Vec<f64>` columns.  A whole tick's
//!   clusters share one `PointColumns` arena with per-cluster ranges (see
//!   `gpdt-clustering`'s snapshot storage).
//! * [`PointsView`] — a borrowed slice of both columns, `Copy` and cheap to
//!   re-slice: the one input of every geometry and clustering kernel.  A
//!   caller holding `&[Point]` converts once with
//!   [`PointColumns::from_points`].

use crate::mbr::Mbr;
use crate::point::Point;
use std::ops::Range;

/// A borrowed columnar point sequence: parallel `xs`/`ys` slices.
///
/// Obtained from [`PointColumns::view`]/[`PointColumns::slice`] or built
/// directly from two equal-length slices with [`PointsView::new`].
#[derive(Debug, Clone, Copy)]
pub struct PointsView<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
}

impl<'a> PointsView<'a> {
    /// Creates a view over two parallel coordinate slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn new(xs: &'a [f64], ys: &'a [f64]) -> Self {
        assert_eq!(
            xs.len(),
            ys.len(),
            "PointsView requires parallel columns of equal length"
        );
        PointsView { xs, ys }
    }

    /// An empty view.
    #[inline]
    pub const fn empty() -> Self {
        PointsView { xs: &[], ys: &[] }
    }

    /// Number of points in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if the view contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The X column.
    #[inline]
    pub fn xs(&self) -> &'a [f64] {
        self.xs
    }

    /// The Y column.
    #[inline]
    pub fn ys(&self) -> &'a [f64] {
        self.ys
    }

    /// Materialises point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Re-slices the view to `range`.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> PointsView<'a> {
        PointsView {
            xs: &self.xs[range.clone()],
            ys: &self.ys[range],
        }
    }

    /// Iterates over the points, materialising each.
    pub fn iter(&self) -> impl Iterator<Item = Point> + 'a {
        self.xs
            .iter()
            .zip(self.ys.iter())
            .map(|(&x, &y)| Point::new(x, y))
    }

    /// Collects the view into an owned `Vec<Point>` (AoS).
    pub fn to_points(&self) -> Vec<Point> {
        self.iter().collect()
    }

    /// Minimum bounding rectangle of the view, `None` when empty.
    pub fn mbr(&self) -> Option<Mbr> {
        Mbr::from_columns(self.xs, self.ys)
    }

    /// Centroid of the view, `None` when empty.
    pub fn centroid(&self) -> Option<Point> {
        Point::centroid_columns(self.xs, self.ys)
    }
}

/// An owning pair of parallel coordinate columns.
///
/// The storage behind [`PointsView`]: a flat `xs` column and a flat `ys`
/// column of equal length.  Snapshot-cluster sets store one `PointColumns`
/// arena per tick and hand out per-cluster ranges into it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointColumns {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl PointColumns {
    /// Creates an empty column pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty column pair with room for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        PointColumns {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    /// Builds columns from an AoS slice.
    pub fn from_points(points: &[Point]) -> Self {
        let mut cols = Self::with_capacity(points.len());
        cols.extend_from_points(points);
        cols
    }

    /// Builds columns from already-split coordinate vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn from_vecs(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(
            xs.len(),
            ys.len(),
            "PointColumns requires parallel columns of equal length"
        );
        PointColumns { xs, ys }
    }

    /// Number of points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Appends one point.
    #[inline]
    pub fn push(&mut self, p: Point) {
        self.push_xy(p.x, p.y);
    }

    /// Appends one point given as raw coordinates.
    #[inline]
    pub fn push_xy(&mut self, x: f64, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Appends every point of an AoS slice.
    fn extend_from_points(&mut self, points: &[Point]) {
        self.xs.reserve(points.len());
        self.ys.reserve(points.len());
        for p in points {
            self.xs.push(p.x);
            self.ys.push(p.y);
        }
    }

    /// Clears both columns, keeping capacity.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
    }

    /// The X column.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The Y column.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Materialises point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// A view over all points.
    #[inline]
    pub fn view(&self) -> PointsView<'_> {
        PointsView {
            xs: &self.xs,
            ys: &self.ys,
        }
    }

    /// A view over the points in `range`.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> PointsView<'_> {
        PointsView {
            xs: &self.xs[range.clone()],
            ys: &self.ys[range],
        }
    }

    /// Bytes of coordinate payload held live (excluding spare capacity).
    ///
    /// Used by the out-of-core layer to account resident cluster-arena
    /// memory; two `f64` per point.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.xs.len() * 2 * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        vec![
            Point::new(1.0, 2.0),
            Point::new(-3.0, 4.5),
            Point::new(0.25, -7.0),
        ]
    }

    #[test]
    fn columns_round_trip_points() {
        let pts = pts();
        let cols = PointColumns::from_points(&pts);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.view().to_points(), pts);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(cols.point(i), *p);
        }
    }

    #[test]
    fn view_slicing_matches_slice_semantics() {
        let pts = pts();
        let cols = PointColumns::from_points(&pts);
        let mid = cols.slice(1..3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.to_points(), &pts[1..3]);
        let re = mid.slice(1..2);
        assert_eq!(re.to_points(), &pts[2..3]);
        assert!(cols.slice(1..1).is_empty());
    }

    #[test]
    fn view_mbr_and_centroid_match_aos() {
        let pts = pts();
        let cols = PointColumns::from_points(&pts);
        assert_eq!(cols.view().mbr(), Mbr::from_points(&pts));
        assert_eq!(cols.view().centroid(), Point::centroid(&pts));
        assert_eq!(PointColumns::new().view().mbr(), None);
        assert_eq!(PointColumns::new().view().centroid(), None);
    }

    #[test]
    fn payload_bytes_counts_two_f64_per_point() {
        let cols = PointColumns::from_points(&pts());
        assert_eq!(cols.payload_bytes(), 3 * 16);
    }

    #[test]
    #[should_panic(expected = "parallel columns")]
    fn mismatched_columns_panic() {
        PointsView::new(&[1.0], &[]);
    }

    #[test]
    fn push_and_clear() {
        let mut cols = PointColumns::with_capacity(2);
        cols.push(Point::new(1.0, 2.0));
        cols.push_xy(3.0, 4.0);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.xs(), &[1.0, 3.0]);
        assert_eq!(cols.ys(), &[2.0, 4.0]);
        cols.clear();
        assert!(cols.is_empty());
    }
}
