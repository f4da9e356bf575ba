//! Uniform grid geometry and affect regions.
//!
//! The grid-based range search (§III-A.2 of the paper) partitions space into
//! square cells whose side length is `√2/2·δ`.  Two facts drive the pruning
//! and refinement logic:
//!
//! * any two points inside the *same* cell are at distance at most `δ`
//!   (the cell diagonal is exactly `δ`), and
//! * a point in cell `g` can only be within `δ` of points that lie in the
//!   *affect region* `AR(g)` of `g` (Definition 5): the cells `g'` with
//!   `|Δrow| ≤ 2`, `|Δcol| ≤ 2` and `|Δrow| + |Δcol| < 4`.
//!
//! [`GridGeometry`] owns only the geometry (origin and cell size); the actual
//! per-timestamp cell lists and inverted lists live in `gpdt-index`.

use crate::point::Point;

/// Cell indices from [`clamped_cell_index`] lie within `±CELL_INDEX_LIMIT`.
pub const CELL_INDEX_LIMIT: i32 = 1 << 30;

/// Floor of `v` — a coordinate divided by the cell side — clamped to
/// `±CELL_INDEX_LIMIT`; NaN maps to `-CELL_INDEX_LIMIT` (`f64::max` returns
/// its non-NaN operand).
///
/// The one coordinate-to-cell rule of the flat-key grids (the DBSCAN ε-grid,
/// `gpdt-index`'s cluster grid): no coordinate, however far or non-finite,
/// can overflow their neighbour arithmetic.  Clamping is monotone, so two
/// points within a cell side of each other still land at most one cell
/// apart; a cell on the limit is unbounded, which only matters to a caller
/// that reads "same cell" as "near".
#[inline]
pub fn clamped_cell_index(v: f64) -> i32 {
    let limit = f64::from(CELL_INDEX_LIMIT);
    let clamped = v.max(-limit).min(limit);
    // Adding 1.5·2⁵² leaves the nearest integer in the low mantissa bits: a
    // float-to-int conversion that, unlike `as`, vectorises.
    let nearest = (clamped + 6_755_399_441_055_744.0).to_bits() as u32 as i32;
    nearest - i32::from(f64::from(nearest) > clamped)
}

/// Integer coordinates of a grid cell (column, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellCoord {
    /// Column index (x direction).
    pub col: i64,
    /// Row index (y direction).
    pub row: i64,
}

impl CellCoord {
    /// Creates a cell coordinate.
    pub const fn new(col: i64, row: i64) -> Self {
        CellCoord { col, row }
    }

    /// Chebyshev-style membership test for the affect region of `self`
    /// relative to `other` (Definition 5 of the paper): the definition
    /// [`GridGeometry::AFFECT_OFFSETS`] is checked against.
    #[cfg(test)]
    fn in_affect_region_of(&self, other: &CellCoord) -> bool {
        let dc = (self.col - other.col).abs();
        let dr = (self.row - other.row).abs();
        dc <= 2 && dr <= 2 && dc + dr < 4
    }
}

/// The geometry of a uniform grid: an origin and a square cell size.
///
/// The same `GridGeometry` is shared by the cluster indexes of *all*
/// timestamps, which is one of the advantages the paper claims for the grid
/// index over per-timestamp R-trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeometry {
    origin: Point,
    cell_size: f64,
}

impl GridGeometry {
    /// Creates a grid with an explicit origin and cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(origin: Point, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        GridGeometry { origin, cell_size }
    }

    /// Creates the grid prescribed by the paper for a variation threshold
    /// `delta`: square cells with side `√2/2·δ` anchored at the origin.
    ///
    /// With this side length the cell diagonal equals `δ`, so two points in
    /// the same cell are never more than `δ` apart.
    pub fn for_delta(delta: f64) -> Self {
        assert!(
            delta.is_finite() && delta > 0.0,
            "delta must be positive and finite, got {delta}"
        );
        GridGeometry::new(Point::ORIGIN, delta * std::f64::consts::FRAC_1_SQRT_2)
    }

    /// The side length of a cell.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The grid origin.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The cell containing point `p`.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> CellCoord {
        self.cell_of_xy(p.x, p.y)
    }

    /// The cell containing the point `(x, y)` given as raw coordinates.
    ///
    /// Columnar twin of [`GridGeometry::cell_of`] for callers scanning
    /// `xs`/`ys` columns.
    #[inline]
    pub fn cell_of_xy(&self, x: f64, y: f64) -> CellCoord {
        CellCoord {
            col: ((x - self.origin.x) / self.cell_size).floor() as i64,
            row: ((y - self.origin.y) / self.cell_size).floor() as i64,
        }
    }

    /// The lower-left corner of a cell.
    #[cfg(test)]
    fn cell_min_corner(&self, cell: &CellCoord) -> Point {
        Point::new(
            self.origin.x + cell.col as f64 * self.cell_size,
            self.origin.y + cell.row as f64 * self.cell_size,
        )
    }

    /// The centre point of a cell.
    #[cfg(test)]
    fn cell_center(&self, cell: &CellCoord) -> Point {
        let min = self.cell_min_corner(cell);
        Point::new(min.x + self.cell_size / 2.0, min.y + self.cell_size / 2.0)
    }

    /// The 21 cell offsets of an affect region (Definition 5): the 5×5 block
    /// minus its four corners, in column-major order.  A `const` table so hot
    /// loops can walk a cell's affect region without allocating.
    pub const AFFECT_OFFSETS: [(i64, i64); 21] = [
        (-2, -1),
        (-2, 0),
        (-2, 1),
        (-1, -2),
        (-1, -1),
        (-1, 0),
        (-1, 1),
        (-1, 2),
        (0, -2),
        (0, -1),
        (0, 0),
        (0, 1),
        (0, 2),
        (1, -2),
        (1, -1),
        (1, 0),
        (1, 1),
        (1, 2),
        (2, -1),
        (2, 0),
        (2, 1),
    ];

    /// The affect region of `cell` (Definition 5): all cells that may contain
    /// a point within `δ` of some point in `cell`.
    ///
    /// The region is the 5×5 block centred on `cell` minus its four corners —
    /// 21 cells in total.
    #[cfg(test)]
    fn affect_region(&self, cell: &CellCoord) -> Vec<CellCoord> {
        Self::AFFECT_OFFSETS
            .iter()
            .map(|&(dc, dr)| CellCoord::new(cell.col + dc, cell.row + dr))
            .collect()
    }

    /// Minimum distance between two cells (between their closed extents).
    #[cfg(test)]
    fn cell_min_distance(&self, a: &CellCoord, b: &CellCoord) -> f64 {
        let gap = |d: i64| -> f64 {
            if d.abs() <= 1 {
                0.0
            } else {
                (d.abs() - 1) as f64 * self.cell_size
            }
        };
        let dx = gap(a.col - b.col);
        let dy = gap(a.row - b.row);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_delta_cell_diagonal_equals_delta() {
        let delta = 300.0;
        let g = GridGeometry::for_delta(delta);
        let diag = g.cell_size() * std::f64::consts::SQRT_2;
        assert!((diag - delta).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_non_positive_delta() {
        let _ = GridGeometry::for_delta(0.0);
    }

    #[test]
    fn clamped_cell_index_floors_and_saturates() {
        for (v, cell) in [
            (0.0, 0),
            (-0.0, 0),
            (0.999, 0),
            (1.0, 1),
            (-1e-9, -1),
            (-1.0, -1),
            (-1.5, -2),
            (2.5, 2),
            (123_456.75, 123_456),
            (-123_456.75, -123_457),
        ] {
            assert_eq!(clamped_cell_index(v), cell, "floor of {v}");
        }
        let limit = CELL_INDEX_LIMIT;
        assert_eq!(clamped_cell_index(f64::from(limit) - 0.5), limit - 1);
        for v in [f64::from(limit), 1e15, 1e300, f64::INFINITY] {
            assert_eq!(clamped_cell_index(v), limit, "{v} saturates");
        }
        for v in [-f64::from(limit), -1e15, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(clamped_cell_index(v), -limit, "{v} saturates");
        }
    }

    #[test]
    fn cell_of_maps_points_to_expected_cells() {
        let g = GridGeometry::new(Point::ORIGIN, 10.0);
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), CellCoord::new(0, 0));
        assert_eq!(g.cell_of(&Point::new(9.999, 9.999)), CellCoord::new(0, 0));
        assert_eq!(g.cell_of(&Point::new(10.0, 0.0)), CellCoord::new(1, 0));
        assert_eq!(g.cell_of(&Point::new(-0.001, 5.0)), CellCoord::new(-1, 0));
        assert_eq!(g.cell_of(&Point::new(25.0, -13.0)), CellCoord::new(2, -2));
    }

    #[test]
    fn cell_of_respects_origin() {
        let g = GridGeometry::new(Point::new(100.0, 200.0), 10.0);
        assert_eq!(g.cell_of(&Point::new(100.0, 200.0)), CellCoord::new(0, 0));
        assert_eq!(g.cell_of(&Point::new(95.0, 195.0)), CellCoord::new(-1, -1));
    }

    #[test]
    fn points_in_same_cell_are_within_delta() {
        let delta = 120.0;
        let g = GridGeometry::for_delta(delta);
        let cell = CellCoord::new(3, -2);
        let min = g.cell_min_corner(&cell);
        let eps = 1e-9;
        let a = Point::new(min.x + eps, min.y + eps);
        let b = Point::new(min.x + g.cell_size() - eps, min.y + g.cell_size() - eps);
        assert_eq!(g.cell_of(&a), cell);
        assert_eq!(g.cell_of(&b), cell);
        assert!(a.distance(&b) <= delta);
    }

    #[test]
    fn affect_offsets_table_matches_definition() {
        let mut expected = Vec::new();
        for dc in -2i64..=2 {
            for dr in -2i64..=2 {
                if dc.abs() + dr.abs() < 4 {
                    expected.push((dc, dr));
                }
            }
        }
        assert_eq!(GridGeometry::AFFECT_OFFSETS.to_vec(), expected);
    }

    #[test]
    fn affect_region_has_21_cells_and_matches_definition() {
        let g = GridGeometry::for_delta(100.0);
        let c = CellCoord::new(5, 5);
        let ar = g.affect_region(&c);
        assert_eq!(ar.len(), 21);
        assert!(ar.contains(&c));
        // Corners of the 5x5 block are excluded.
        assert!(!ar.contains(&CellCoord::new(3, 3)));
        assert!(!ar.contains(&CellCoord::new(7, 7)));
        assert!(!ar.contains(&CellCoord::new(3, 7)));
        assert!(!ar.contains(&CellCoord::new(7, 3)));
        // Straight-line extremes are included.
        assert!(ar.contains(&CellCoord::new(3, 5)));
        assert!(ar.contains(&CellCoord::new(5, 7)));
        for cell in &ar {
            assert!(cell.in_affect_region_of(&c));
        }
    }

    #[test]
    fn cells_outside_affect_region_are_farther_than_delta() {
        // The definition's purpose: a point in a cell outside AR(g) is always
        // farther than delta from any point in g.
        let delta = 100.0;
        let g = GridGeometry::for_delta(delta);
        let c = CellCoord::new(0, 0);
        for dc in -4i64..=4 {
            for dr in -4i64..=4 {
                let other = CellCoord::new(dc, dr);
                if !other.in_affect_region_of(&c) {
                    assert!(
                        g.cell_min_distance(&c, &other) > delta - 1e-9,
                        "cell {other:?} outside AR but min distance {} <= delta",
                        g.cell_min_distance(&c, &other)
                    );
                }
            }
        }
    }

    #[test]
    fn cell_min_distance_adjacent_is_zero() {
        let g = GridGeometry::new(Point::ORIGIN, 10.0);
        assert_eq!(
            g.cell_min_distance(&CellCoord::new(0, 0), &CellCoord::new(1, 1)),
            0.0
        );
        assert_eq!(
            g.cell_min_distance(&CellCoord::new(0, 0), &CellCoord::new(3, 0)),
            20.0
        );
        let d = g.cell_min_distance(&CellCoord::new(0, 0), &CellCoord::new(3, 3));
        assert!((d - (800.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn cell_center_is_inside_cell() {
        let g = GridGeometry::new(Point::new(-50.0, 20.0), 7.5);
        let cell = CellCoord::new(4, -3);
        let center = g.cell_center(&cell);
        assert_eq!(g.cell_of(&center), cell);
    }
}

#[cfg(test)]
// Deterministic seeded-random property checks (the container builds offline,
// so these use the vendored `rand` shim instead of `proptest`).
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every point maps to a cell whose extent contains it.
    #[test]
    fn cell_of_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x61);
        for _ in 0..512 {
            let size = rng.gen_range(1.0..1000.0);
            let g = GridGeometry::new(Point::ORIGIN, size);
            let p = Point::new(rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6));
            let cell = g.cell_of(&p);
            let min = g.cell_min_corner(&cell);
            assert!(p.x >= min.x - 1e-6 && p.x <= min.x + size + 1e-6);
            assert!(p.y >= min.y - 1e-6 && p.y <= min.y + size + 1e-6);
        }
    }

    /// Two points in the same cell of a `for_delta` grid are within delta.
    #[test]
    fn same_cell_implies_within_delta() {
        let mut rng = StdRng::seed_from_u64(0x62);
        for _ in 0..512 {
            let delta = rng.gen_range(10.0..1000.0);
            let g = GridGeometry::for_delta(delta);
            let a = Point::new(rng.gen_range(-1e5..1e5), rng.gen_range(-1e5..1e5));
            let cell = g.cell_of(&a);
            let min = g.cell_min_corner(&cell);
            let (dx, dy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let b = Point::new(
                min.x + dx * g.cell_size() * 0.999,
                min.y + dy * g.cell_size() * 0.999,
            );
            if g.cell_of(&b) == cell {
                assert!(a.distance(&b) <= delta + 1e-6);
            }
        }
    }

    /// Points in cells outside each other's affect region are farther
    /// apart than delta.
    #[test]
    fn outside_affect_region_implies_far() {
        let mut rng = StdRng::seed_from_u64(0x63);
        for _ in 0..512 {
            let delta = rng.gen_range(10.0..500.0);
            let g = GridGeometry::for_delta(delta);
            let a = Point::new(rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4));
            let b = Point::new(rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4));
            let ca = g.cell_of(&a);
            let cb = g.cell_of(&b);
            if !cb.in_affect_region_of(&ca) {
                assert!(a.distance(&b) > delta - 1e-6);
            }
        }
    }

    /// Affect-region membership is symmetric.
    #[test]
    fn affect_region_symmetric() {
        let mut rng = StdRng::seed_from_u64(0x64);
        for _ in 0..512 {
            let a = CellCoord::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
            let b = CellCoord::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
            assert_eq!(a.in_affect_region_of(&b), b.in_affect_region_of(&a));
        }
    }
}
