//! Axis-aligned minimum bounding rectangles.
//!
//! Besides the usual containment/intersection predicates the module provides
//! the two rectangle-based lower bounds for the Hausdorff distance used by
//! the crowd-discovery range search:
//!
//! * [`Mbr::min_distance`] — `dmin(M(ci), M(cj))`, the minimum distance
//!   between two rectangles (Lemma 2 of the paper),
//! * [`Mbr::side_distance`] — `dside(M(ci), M(cj))`, the maximum over the
//!   four sides of `M(ci)` of the minimum distance between the side and
//!   `M(cj)` (Lemma 3), which is a tighter lower bound.

use crate::point::Point;

/// An axis-aligned minimum bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Mbr {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `min_x > max_x` or `min_y > max_y`.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x <= max_x && min_y <= max_y,
            "invalid MBR: ({min_x}, {min_y}) - ({max_x}, {max_y})"
        );
        Mbr {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The degenerate rectangle covering a single point.
    pub fn from_point(p: Point) -> Self {
        Mbr::new(p.x, p.y, p.x, p.y)
    }

    /// The tightest rectangle enclosing all `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_points(points: &[Point]) -> Option<Self> {
        let first = points.first()?;
        let mut mbr = Mbr::from_point(*first);
        for p in &points[1..] {
            mbr.expand_to_point(*p);
        }
        Some(mbr)
    }

    /// The tightest rectangle enclosing a point set given as parallel
    /// coordinate columns.
    ///
    /// Columnar twin of [`Mbr::from_points`]; each column is reduced by the
    /// dispatched SIMD min/max kernel ([`crate::simd::dispatch`]).  Min/max
    /// is order-independent on the finite coordinates stored here, so this
    /// agrees exactly with the expanding AoS sweep.  Returns `None` for
    /// empty columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    pub fn from_columns(xs: &[f64], ys: &[f64]) -> Option<Self> {
        assert_eq!(xs.len(), ys.len(), "coordinate columns must be parallel");
        let d = crate::simd::dispatch();
        let (min_x, max_x) = d.column_min_max(xs)?;
        let (min_y, max_y) = d.column_min_max(ys)?;
        Some(Mbr {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Semi-perimeter (used by R-tree split heuristics).
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Grows the rectangle so it also covers `p`.
    fn expand_to_point(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grows the rectangle so it also covers `other`.
    pub fn expand_to_mbr(&mut self, other: &Mbr) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// The union of two rectangles.
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut m = *self;
        m.expand_to_mbr(other);
        m
    }

    /// The rectangle enlarged by `delta` on every side.
    ///
    /// This is the window used by the simple R-tree range search (`SR`): any
    /// cluster whose MBR does not intersect the enlarged window has
    /// `dmin > delta` and can be pruned.
    pub fn enlarged(&self, delta: f64) -> Mbr {
        Mbr::new(
            self.min_x - delta,
            self.min_y - delta,
            self.max_x + delta,
            self.max_y + delta,
        )
    }

    /// Returns `true` if the rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Returns `true` if `other` lies fully inside `self`.
    #[inline]
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    /// Area growth needed to also cover `other` (R-tree insertion heuristic).
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        self.union(other).area() - self.area()
    }

    /// `dmin`: minimum distance between two rectangles; zero if they
    /// intersect.
    ///
    /// By Lemma 2 of the paper `dmin(M(ci), M(cj)) ≤ dH(ci, cj)`, so any pair
    /// with `dmin > δ` can be pruned without looking at the points.
    pub fn min_distance(&self, other: &Mbr) -> f64 {
        let dx = (self.min_x - other.max_x)
            .max(0.0)
            .max(other.min_x - self.max_x);
        let dy = (self.min_y - other.max_y)
            .max(0.0)
            .max(other.min_y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// The four sides of the rectangle as degenerate rectangles.
    ///
    /// Order: bottom, top, left, right.
    pub fn sides(&self) -> [Mbr; 4] {
        [
            Mbr::new(self.min_x, self.min_y, self.max_x, self.min_y),
            Mbr::new(self.min_x, self.max_y, self.max_x, self.max_y),
            Mbr::new(self.min_x, self.min_y, self.min_x, self.max_y),
            Mbr::new(self.max_x, self.min_y, self.max_x, self.max_y),
        ]
    }

    /// `dside`: the tighter Hausdorff lower bound of Lemma 3.
    ///
    /// For every side `la` of `self`, the cluster bounded by `self` has at
    /// least one point on `la`, and that point is at distance at least
    /// `dmin(la, other)` from the other cluster.  Taking the maximum over the
    /// four sides therefore still lower-bounds the (directed, and hence the
    /// symmetric) Hausdorff distance.
    pub fn side_distance(&self, other: &Mbr) -> f64 {
        self.sides()
            .iter()
            .map(|side| side.min_distance(other))
            .fold(0.0, f64::max)
    }

    /// Returns `true` if every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.min_x.is_finite()
            && self.min_y.is_finite()
            && self.max_x.is_finite()
            && self.max_y.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Mbr {
        Mbr::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        let m = Mbr::from_points(&pts).unwrap();
        assert_eq!(m, Mbr::new(-2.0, -1.0, 4.0, 5.0));
        for p in &pts {
            assert!(m.contains_mbr(&Mbr::new(p.x, p.y, p.x, p.y)));
        }
        assert!(Mbr::from_points(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid MBR")]
    fn new_rejects_inverted_rectangle() {
        let _ = Mbr::new(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn geometry_accessors() {
        let m = Mbr::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(m.width(), 4.0);
        assert_eq!(m.height(), 2.0);
        assert_eq!(m.area(), 8.0);
        assert_eq!(m.margin(), 6.0);
        assert_eq!(m.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn union_and_enlargement() {
        let a = unit();
        let b = Mbr::new(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&b);
        assert_eq!(u, Mbr::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(a.enlargement(&b), 9.0 - 1.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn intersects_and_containment() {
        let a = unit();
        assert!(a.intersects(&Mbr::new(0.5, 0.5, 2.0, 2.0)));
        assert!(a.intersects(&Mbr::new(1.0, 1.0, 2.0, 2.0))); // touching corner
        assert!(!a.intersects(&Mbr::new(1.1, 1.1, 2.0, 2.0)));
        assert!(a.contains_mbr(&Mbr::new(0.2, 0.2, 0.8, 0.8)));
        assert!(!a.contains_mbr(&Mbr::new(0.2, 0.2, 1.2, 0.8)));
    }

    #[test]
    fn enlarged_grows_every_side() {
        let e = unit().enlarged(2.0);
        assert_eq!(e, Mbr::new(-2.0, -2.0, 3.0, 3.0));
    }

    #[test]
    fn min_distance_between_rectangles() {
        let a = unit();
        assert_eq!(a.min_distance(&Mbr::new(0.5, 0.5, 2.0, 2.0)), 0.0);
        // Horizontally separated by 2.
        assert_eq!(a.min_distance(&Mbr::new(3.0, 0.0, 4.0, 1.0)), 2.0);
        // Diagonally separated: dx = 3, dy = 4 -> 5.
        assert_eq!(a.min_distance(&Mbr::new(4.0, 5.0, 6.0, 7.0)), 5.0);
        // Symmetry.
        let b = Mbr::new(4.0, 5.0, 6.0, 7.0);
        assert_eq!(a.min_distance(&b), b.min_distance(&a));
    }

    #[test]
    fn side_distance_dominates_min_distance() {
        let a = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let b = Mbr::new(12.0, 0.0, 14.0, 10.0);
        let dmin = a.min_distance(&b);
        let dside = a.side_distance(&b);
        assert_eq!(dmin, 2.0);
        // The left side of `a` is 12 away from `b`, so dside = 12.
        assert_eq!(dside, 12.0);
        assert!(dside >= dmin);
    }

    #[test]
    fn side_distance_zero_when_equal() {
        let a = unit();
        assert_eq!(a.side_distance(&a), 0.0);
    }

    #[test]
    fn side_distance_for_contained_rectangle() {
        // `b` strictly inside `a`: every side of `a` is at positive distance
        // from `b`, so dside > 0 even though dmin = 0 — consistent with the
        // Hausdorff distance also being positive in this configuration.
        let a = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let b = Mbr::new(4.0, 4.0, 6.0, 6.0);
        assert_eq!(a.min_distance(&b), 0.0);
        assert_eq!(a.side_distance(&b), 4.0);
    }

    #[test]
    fn sides_are_degenerate_and_on_boundary() {
        let m = Mbr::new(0.0, 0.0, 2.0, 3.0);
        let sides = m.sides();
        assert_eq!(sides[0], Mbr::new(0.0, 0.0, 2.0, 0.0));
        assert_eq!(sides[1], Mbr::new(0.0, 3.0, 2.0, 3.0));
        assert_eq!(sides[2], Mbr::new(0.0, 0.0, 0.0, 3.0));
        assert_eq!(sides[3], Mbr::new(2.0, 0.0, 2.0, 3.0));
        for s in &sides {
            assert!(m.contains_mbr(s));
        }
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(unit().is_finite());
        let mut m = unit();
        m.max_x = f64::NAN;
        assert!(!m.is_finite());
    }
}
