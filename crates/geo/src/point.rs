//! 2-D points and Euclidean distance.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A point in the plane.
///
/// Coordinates are metres in a local planar projection.  The paper's
/// trajectory samples and snapshot-cluster members are all represented by
/// `Point`s after interpolation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting (metres).
    pub x: f64,
    /// Northing (metres).
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a new point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this in hot loops when only comparisons against a squared
    /// threshold are needed; it avoids the square root.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns `true` if the distance to `other` does not exceed `threshold`.
    #[inline]
    pub fn within(&self, other: &Point, threshold: f64) -> bool {
        self.distance_sq(other) <= threshold * threshold
    }

    /// Linear interpolation between `self` and `other`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`.  Used by the trajectory
    /// crate to create the *virtual points* of unsynchronised trajectories.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Midpoint of `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// The centroid of a non-empty slice of points.
    ///
    /// Returns `None` for an empty slice.
    pub fn centroid(points: &[Point]) -> Option<Point> {
        if points.is_empty() {
            return None;
        }
        // Accumulate in the canonical striped order shared by every SIMD
        // level so the AoS centroid stays bit-identical to
        // [`Point::centroid_columns`] (sums are associativity-sensitive;
        // min/max reductions are not).
        let n = points.len() as f64;
        let sx = crate::simd::sum_striped_by(points.len(), |i| points[i].x);
        let sy = crate::simd::sum_striped_by(points.len(), |i| points[i].y);
        Some(Point::new(sx / n, sy / n))
    }

    /// The centroid of a point set given as parallel coordinate columns.
    ///
    /// Columnar twin of [`Point::centroid`]; the two must agree bit-for-bit
    /// on the same point set, so both accumulate in the canonical striped
    /// order of [`crate::simd`] (which every dispatched sum kernel
    /// reproduces exactly).
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    pub fn centroid_columns(xs: &[f64], ys: &[f64]) -> Option<Point> {
        assert_eq!(xs.len(), ys.len(), "coordinate columns must be parallel");
        if xs.is_empty() {
            return None;
        }
        let d = crate::simd::dispatch();
        let n = xs.len() as f64;
        let sx = d.column_sum(xs);
        let sy = d.column_sum(ys);
        Some(Point::new(sx / n, sy / n))
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-3.25, 8.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new(7.0, 11.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn within_respects_threshold() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(a.within(&b, 5.0));
        assert!(a.within(&b, 5.1));
        assert!(!a.within(&b, 4.9));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, 10.0));
        assert_eq!(a.midpoint(&b), Point::new(5.0, 10.0));
    }

    #[test]
    fn centroid_of_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        assert_eq!(Point::centroid(&pts), Some(Point::new(1.0, 1.0)));
        assert_eq!(Point::centroid(&[]), None);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a + b, Point::new(4.0, 6.0));
        assert_eq!(b - a, Point::new(2.0, 2.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, 2.0));
    }

    #[test]
    fn conversions() {
        let p: Point = (3.0, 4.0).into();
        assert_eq!(p, Point::new(3.0, 4.0));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (3.0, 4.0));
    }

    #[test]
    fn display_formats_two_decimals() {
        assert_eq!(Point::new(1.234, 5.678).to_string(), "(1.23, 5.68)");
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
