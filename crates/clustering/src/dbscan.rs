//! DBSCAN density-based clustering with a grid-accelerated neighbour search.
//!
//! This is the clustering primitive behind Definition 1 (snapshot cluster) of
//! the paper.  The implementation follows the classic DBSCAN formulation of
//! Ester et al.: core points have at least `min_pts` points (themselves
//! included) within radius `eps`; clusters are the maximal sets of
//! density-connected points; border points are attached to the first cluster
//! that reaches them; everything else is noise.
//!
//! The ε-neighbourhood query is served by a uniform grid with cell side
//! `eps`, so a query only inspects the 3×3 block of cells around the query
//! point instead of the whole snapshot.  The grid is a flat bucket (CSR)
//! structure inside a reusable [`DbscanScratch`] arena, built in time linear
//! in the snapshot: one pass turns every point into a packed integer cell
//! key, a table with one slot per cell of the cells' bounding box is counted
//! and prefix-summed into bucket offsets, the points are scattered into
//! their buckets, and each point's three 3×1 neighbour ranges are read
//! straight off the table.  Only a snapshot whose box is too sparse for a
//! table (a few points, far apart) sorts its points by key instead.  Callers
//! that cluster many snapshots (the cluster database builders, the streaming
//! clusterer) keep one scratch alive and pass it to [`dbscan_with`], making
//! the per-snapshot hot path free of heap allocation apart from the output
//! itself.
//!
//! The result is canonical — clusters numbered by their lowest seed index, a
//! border point in the earliest-discovered cluster that reaches it, members
//! sorted — so it depends on neither the cell order nor the order of points
//! inside a bucket.

use gpdt_geo::bvs::BitVector;
use gpdt_geo::grid::clamped_cell_index;
use gpdt_geo::{Point, PointsView};

use crate::params::ClusteringParams;

const UNVISITED: u32 = u32::MAX;
const NOISE: u32 = u32::MAX - 1;

/// Result of running DBSCAN on a set of points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbscanResult {
    /// For each cluster, the indices (into the input slice) of its members,
    /// sorted in increasing order.
    pub clusters: Vec<Vec<usize>>,
    /// Number of input points (the indices `clusters` does not name are
    /// noise).
    len: usize,
}

impl DbscanResult {
    /// Groups the final per-point labels into member lists by counting:
    /// each list is allocated at its exact size and filled in index order,
    /// so it comes out sorted.
    fn from_labels(cluster_count: usize, labels: &[u32]) -> Self {
        let mut sizes = vec![0usize; cluster_count];
        for &label in labels {
            if label != NOISE {
                sizes[label as usize] += 1;
            }
        }
        let mut clusters: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (idx, &label) in labels.iter().enumerate() {
            if label != NOISE {
                clusters[label as usize].push(idx);
            }
        }
        DbscanResult {
            clusters,
            len: labels.len(),
        }
    }

    /// Indices of the points assigned to no cluster, in increasing order.
    pub fn noise(&self) -> Vec<usize> {
        let mut clustered = vec![false; self.len];
        for &idx in self.clusters.iter().flatten() {
            clustered[idx] = true;
        }
        (0..self.len).filter(|&idx| !clustered[idx]).collect()
    }

    /// Cluster label of point `idx`: `Some(cluster_index)` or `None` for
    /// noise.  Searches the member lists; a caller labelling every point
    /// should walk [`Self::clusters`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not an index into the clustered point slice.
    pub fn label_of(&self, idx: usize) -> Option<usize> {
        assert!(idx < self.len, "point index {idx} out of range");
        self.clusters
            .iter()
            .position(|members| members.binary_search(&idx).is_ok())
    }
}

/// Flipping the sign bit biases an `i32` cell index into an order-preserving
/// `u32`.
const CELL_BIAS: u32 = 1 << 31;
/// One column step of a packed cell key.
const COLUMN: u64 = 1 << 32;

/// The packed key of the cell `(col, row)` (biased indices): column in the
/// high half, row in the low half, so keys order by (column, row) and a step
/// to a neighbouring cell is one addition.  Indices are clamped
/// ([`clamped_cell_index`]) to the middle half of the `u32` range, so no step
/// carries from one half into the other.
#[inline]
fn pack_cell(col: u32, row: u32) -> u64 {
    u64::from(col) << 32 | u64::from(row)
}

/// Biased cell index of a coordinate along one axis.
#[inline]
fn axis_cell(v: f64, eps: f64) -> u32 {
    clamped_cell_index(v / eps) as u32 ^ CELL_BIAS
}

#[inline]
fn column_of(key: u64) -> u32 {
    (key >> 32) as u32
}

#[inline]
fn row_of(key: u64) -> u32 {
    key as u32
}

/// The cells' bounding box gets a table, rather than the points a sort, when
/// it has at most this many cells per point.
const TABLED_BOX_CELLS_PER_POINT: u64 = 16;

/// Reusable scratch arena for [`dbscan_with`]: the CSR grid buffers and the
/// per-point working state.  Create one (cheap, all-empty) and reuse it
/// across snapshots; every buffer is resized in place, so steady-state
/// clustering performs no heap allocation beyond the returned result.
#[derive(Debug, Clone, Default)]
pub struct DbscanScratch {
    /// Packed cell key of each point.
    keys: Vec<u64>,
    /// Bucket offsets over the cells' bounding box, one slot per cell
    /// (column by column, a border of empty cells all around): the bucket of
    /// slot `s` is `box_starts[s]..box_starts[s + 1]`.  Unused when the box
    /// is too sparse for a table.
    box_starts: Vec<u32>,
    /// The sparse box's stand-ins for the table: the point indices sorted by
    /// cell key, the occupied cells' keys in ascending order and their
    /// bucket offsets (one trailing sentinel).
    order: Vec<u32>,
    cells: Vec<u64>,
    starts: Vec<u32>,
    /// Number of occupied cells.
    cell_count: usize,
    /// The bucket payload, cell by cell in key order, as three parallel
    /// columns (SoA): coordinates split into `bxs`/`bys` so the ε-scan
    /// streams two dense `f64` arrays, with the original point index
    /// alongside in `bidx`.
    bxs: Vec<f64>,
    bys: Vec<f64>,
    bidx: Vec<u32>,
    /// Per point: the three contiguous bucket ranges covering the 3×3
    /// neighbourhood of its cell (buckets are in (col, row) order, so for
    /// each of the three columns the rows `r-1..=r+1` form one contiguous
    /// run).  The ε-query walks these precomputed ranges without any lookup.
    neighbor_ranges: Vec<[(u32, u32); 3]>,
    /// Per-point cluster label during the sweep.
    labels: Vec<u32>,
    /// BFS expansion frontier of the cluster under construction.
    frontier: Vec<u32>,
    /// ε-neighbourhood query output buffer.
    neighbors: Vec<u32>,
    /// Points already pushed onto some cluster's frontier (enqueueing a
    /// point twice is a no-op, so the bit lets us skip the duplicate push).
    enqueued: BitVector,
}

impl DbscanScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        DbscanScratch::default()
    }

    /// Rebuilds the CSR grid over `points` with cell side `eps`, in time
    /// linear in the points and in the cells of their bounding box — or,
    /// when that box is too sparse to tabulate, with one sort of the points
    /// by their integer keys.  Public for the `micro` benchmark, which times
    /// this stage on its own.
    #[doc(hidden)]
    pub fn build_grid(&mut self, points: PointsView<'_>, eps: f64) {
        let n = points.len();
        if n == 0 {
            self.cell_count = 0;
            return;
        }
        self.keys.clear();
        self.keys.extend(
            points
                .iter()
                .map(|p| pack_cell(axis_cell(p.x, eps), axis_cell(p.y, eps))),
        );
        self.bxs.resize(n, 0.0);
        self.bys.resize(n, 0.0);
        self.bidx.resize(n, 0);
        self.neighbor_ranges.resize(n, [(0, 0); 3]);

        let bounds = |axis: fn(u64) -> u32| {
            let cells = self.keys.iter().map(|&key| axis(key));
            cells.fold((u32::MAX, 0), |(min, max), cell| {
                (min.min(cell), max.max(cell))
            })
        };
        let (min_col, max_col) = bounds(column_of);
        let (min_row, max_row) = bounds(row_of);
        // The box with its border: no neighbour of an occupied cell falls
        // outside, so reading a neighbourhood needs no edge case.
        let height = u64::from(max_row - min_row) + 3;
        let slots = (u64::from(max_col - min_col) + 3) * height;
        if slots <= TABLED_BOX_CELLS_PER_POINT * n as u64 {
            self.tabulate(points, (min_col, min_row), height as usize, slots as usize);
        } else {
            self.sort_into_cells(points);
        }
    }

    /// The grid of a box small enough for a table: count the points of each
    /// slot, prefix-sum the counts into bucket offsets, scatter, and read
    /// every point's neighbour ranges off the offsets.
    fn tabulate(
        &mut self,
        points: PointsView<'_>,
        (min_col, min_row): (u32, u32),
        height: usize,
        slots: usize,
    ) {
        let slot_of = |key: u64| {
            (column_of(key) - min_col + 1) as usize * height + (row_of(key) - min_row + 1) as usize
        };
        // Counts go in two slots up: after the prefix sum `table[s + 1]` is
        // where slot `s` starts, the scatter advances it to where the slot
        // ends — which is where slot `s + 1` starts, so afterwards
        // `table[s]..table[s + 1]` is the bucket of slot `s`.
        let table = &mut self.box_starts;
        table.clear();
        table.resize(slots + 2, 0);
        for &key in &self.keys {
            table[slot_of(key) + 2] += 1;
        }
        self.cell_count = 0;
        let mut running = 0;
        for count in table.iter_mut() {
            self.cell_count += usize::from(*count != 0);
            running += *count;
            *count = running;
        }
        for (i, &key) in self.keys.iter().enumerate() {
            let cursor = &mut table[slot_of(key) + 1];
            let pos = *cursor as usize;
            *cursor += 1;
            self.bxs[pos] = points.xs()[i];
            self.bys[pos] = points.ys()[i];
            self.bidx[pos] = i as u32;
        }
        // A column's slots are consecutive, so rows `r-1..=r+1` of each of
        // the three columns around a cell are one run of the bucket payload.
        for (ranges, &key) in self.neighbor_ranges.iter_mut().zip(&self.keys) {
            let left = slot_of(key) - height;
            for (k, range) in ranges.iter_mut().enumerate() {
                let same_row = left + k * height;
                *range = (table[same_row - 1], table[same_row + 2]);
            }
        }
    }

    /// The grid of a sparse box: sort the points by cell key (through an
    /// index, the keys stay plain integers), cut the sorted run into cells,
    /// and find each cell's neighbour ranges with forward cursors.
    fn sort_into_cells(&mut self, points: PointsView<'_>) {
        let keys = &self.keys;
        self.order.clear();
        self.order.extend(0..keys.len() as u32);
        self.order.sort_unstable_by_key(|&i| keys[i as usize]);
        self.cells.clear();
        self.starts.clear();
        for (pos, &i) in self.order.iter().enumerate() {
            let key = keys[i as usize];
            if self.cells.last() != Some(&key) {
                self.cells.push(key);
                self.starts.push(pos as u32);
            }
            self.bxs[pos] = points.xs()[i as usize];
            self.bys[pos] = points.ys()[i as usize];
            self.bidx[pos] = i;
        }
        self.starts.push(keys.len() as u32);
        self.cell_count = self.cells.len();

        // Cells ascend by (column, row), so for each of the three
        // neighbouring columns the first cell at or past row `r - 1` and the
        // first cell past row `r + 1` only ever move forward: six cursors,
        // each crossing `cells` once.
        let (mut lo, mut hi) = ([0usize; 3], [0usize; 3]);
        for (cell, &key) in self.cells.iter().enumerate() {
            let mut ranges = [(0u32, 0u32); 3];
            for (k, range) in ranges.iter_mut().enumerate() {
                let same_row = key - COLUMN + k as u64 * COLUMN;
                while lo[k] < self.cell_count && self.cells[lo[k]] < same_row - 1 {
                    lo[k] += 1;
                }
                while hi[k] < self.cell_count && self.cells[hi[k]] <= same_row + 1 {
                    hi[k] += 1;
                }
                *range = (self.starts[lo[k]], self.starts[hi[k]]);
            }
            for pos in self.starts[cell]..self.starts[cell + 1] {
                self.neighbor_ranges[self.bidx[pos as usize] as usize] = ranges;
            }
        }
    }

    /// Writes the indices of all points within `eps` of `points[idx]`
    /// (including `idx` itself) into the `neighbors` buffer.
    fn find_neighbors(&mut self, points: PointsView<'_>, idx: usize, eps: f64) {
        let (px, py) = (points.xs()[idx], points.ys()[idx]);
        let eps_sq = eps * eps;
        self.neighbors.clear();
        // The ε-scan runs on the dispatched SIMD kernel.  It pushes matches
        // in bucket order with an exact comparison, so the neighbour list is
        // identical to a scalar scan at every level.
        let d = gpdt_geo::simd::dispatch();
        for &(lo, hi) in &self.neighbor_ranges[idx] {
            let (lo, hi) = (lo as usize, hi as usize);
            d.filter_within(
                &self.bxs[lo..hi],
                &self.bys[lo..hi],
                &self.bidx[lo..hi],
                px,
                py,
                eps_sq,
                &mut self.neighbors,
            );
        }
    }
}

/// Runs DBSCAN over `points` with the given parameters.
///
/// The result's clusters are reported in order of discovery (by lowest seed
/// index) with their member index lists sorted.
///
/// Allocates a fresh scratch arena per call; snapshot-per-snapshot callers
/// should hold a [`DbscanScratch`] and use [`dbscan_with`] instead.
pub fn dbscan(points: PointsView<'_>, params: &ClusteringParams) -> DbscanResult {
    dbscan_with(points, params, &mut DbscanScratch::new())
}

/// Runs DBSCAN over `points`, reusing `scratch` for every intermediate
/// buffer.  Produces exactly the same result as [`dbscan`].
pub fn dbscan_with(
    points: PointsView<'_>,
    params: &ClusteringParams,
    scratch: &mut DbscanScratch,
) -> DbscanResult {
    {
        let _span = gpdt_obs::span!("dbscan.grid");
        scratch.build_grid(points, params.eps);
    }
    scratch.labels.clear();
    scratch.labels.resize(points.len(), UNVISITED);
    scratch.enqueued.reset(points.len());
    let mut cluster_count: u32 = 0;

    for start in 0..points.len() {
        if scratch.labels[start] != UNVISITED {
            continue;
        }
        scratch.find_neighbors(points, start, params.eps);
        if scratch.neighbors.len() < params.min_pts {
            scratch.labels[start] = NOISE;
            continue;
        }
        // `start` is a core point: begin a new cluster and expand it.
        let cluster_id = cluster_count;
        cluster_count += 1;
        scratch.labels[start] = cluster_id;

        scratch.frontier.clear();
        for i in 0..scratch.neighbors.len() {
            let q = scratch.neighbors[i];
            if !scratch.enqueued.get(q as usize) {
                scratch.enqueued.set(q as usize, true);
                scratch.frontier.push(q);
            }
        }
        let mut cursor = 0;
        while cursor < scratch.frontier.len() {
            let q = scratch.frontier[cursor] as usize;
            cursor += 1;
            if scratch.labels[q] == NOISE {
                // Border point previously marked noise: claim it.
                scratch.labels[q] = cluster_id;
                continue;
            }
            if scratch.labels[q] != UNVISITED {
                continue;
            }
            scratch.labels[q] = cluster_id;
            scratch.find_neighbors(points, q, params.eps);
            if scratch.neighbors.len() >= params.min_pts {
                // `q` is itself a core point: its neighbourhood joins the
                // expansion frontier (each point at most once — a duplicate
                // enqueue would be skipped by the label check anyway).
                for i in 0..scratch.neighbors.len() {
                    let r = scratch.neighbors[i];
                    if !scratch.enqueued.get(r as usize) {
                        scratch.enqueued.set(r as usize, true);
                        scratch.frontier.push(r);
                    }
                }
            }
        }
    }

    let result = DbscanResult::from_labels(cluster_count as usize, &scratch.labels);
    if gpdt_obs::enabled() {
        let clustered: usize = result.clusters.iter().map(Vec::len).sum();
        gpdt_obs::counter!("dbscan.grid.cells").add(scratch.cell_count as u64);
        gpdt_obs::counter!("dbscan.points.noise").add((points.len() - clustered) as u64);
    }
    result
}

/// Brute-force DBSCAN used as a test oracle: identical semantics, O(n²)
/// neighbour search.
#[doc(hidden)]
pub fn dbscan_bruteforce(points: &[Point], params: &ClusteringParams) -> DbscanResult {
    let neighbors_of = |idx: usize| -> Vec<usize> {
        let eps_sq = params.eps * params.eps;
        points
            .iter()
            .enumerate()
            .filter_map(|(j, q)| (points[idx].distance_sq(q) <= eps_sq).then_some(j))
            .collect()
    };
    let mut labels = vec![UNVISITED; points.len()];
    let mut cluster_count: u32 = 0;
    for start in 0..points.len() {
        if labels[start] != UNVISITED {
            continue;
        }
        let neighbors = neighbors_of(start);
        if neighbors.len() < params.min_pts {
            labels[start] = NOISE;
            continue;
        }
        let cluster_id = cluster_count;
        cluster_count += 1;
        labels[start] = cluster_id;
        let mut frontier = neighbors;
        let mut cursor = 0;
        while cursor < frontier.len() {
            let q = frontier[cursor];
            cursor += 1;
            if labels[q] == NOISE {
                labels[q] = cluster_id;
                continue;
            }
            if labels[q] != UNVISITED {
                continue;
            }
            labels[q] = cluster_id;
            let q_neighbors = neighbors_of(q);
            if q_neighbors.len() >= params.min_pts {
                frontier.extend(q_neighbors);
            }
        }
    }
    DbscanResult::from_labels(cluster_count as usize, &labels)
}

/// [`dbscan`] over rows, as the oracle takes them.
#[cfg(test)]
fn dbscan_rows(points: &[Point], params: &ClusteringParams) -> DbscanResult {
    dbscan(gpdt_geo::PointColumns::from_points(points).view(), params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn empty_input() {
        let r = dbscan_rows(&[], &ClusteringParams::new(1.0, 2));
        assert!(r.clusters.is_empty());
        assert!(r.noise().is_empty());
    }

    #[test]
    fn single_point_is_noise_unless_min_pts_one() {
        let p = pts(&[(0.0, 0.0)]);
        let r = dbscan_rows(&p, &ClusteringParams::new(1.0, 2));
        assert!(r.clusters.is_empty());
        assert_eq!(r.noise(), vec![0]);

        let r1 = dbscan_rows(&p, &ClusteringParams::new(1.0, 1));
        assert_eq!(r1.clusters, vec![vec![0]]);
        assert!(r1.noise().is_empty());
    }

    #[test]
    fn two_well_separated_blobs() {
        let mut coords = Vec::new();
        for i in 0..5 {
            coords.push((i as f64 * 0.5, 0.0));
        }
        for i in 0..4 {
            coords.push((100.0 + i as f64 * 0.5, 0.0));
        }
        let p = pts(&coords);
        let r = dbscan_rows(&p, &ClusteringParams::new(1.0, 3));
        assert_eq!(r.clusters.len(), 2);
        assert_eq!(r.clusters[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(r.clusters[1], vec![5, 6, 7, 8]);
        assert!(r.noise().is_empty());
    }

    #[test]
    fn isolated_outlier_is_noise() {
        let p = pts(&[
            (0.0, 0.0),
            (0.5, 0.0),
            (1.0, 0.0),
            (0.5, 0.5),
            (500.0, 500.0),
        ]);
        let r = dbscan_rows(&p, &ClusteringParams::new(1.0, 3));
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.noise(), vec![4]);
        assert_eq!(r.label_of(0), Some(0));
        assert_eq!(r.label_of(4), None);
    }

    #[test]
    fn chain_is_density_connected() {
        // A chain of points each within eps of the next: all of them are
        // density-reachable from the ends through core points.
        let p: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.9, 0.0)).collect();
        let r = dbscan_rows(&p, &ClusteringParams::new(1.0, 2));
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].len(), 10);
    }

    #[test]
    fn border_point_between_two_clusters_assigned_once() {
        // Two dense blobs share one border point in the middle; it must end
        // up in exactly one cluster so that clusters never overlap.
        let mut coords = vec![];
        for i in 0..4 {
            coords.push((i as f64 * 0.4, 0.0)); // left blob: 0..4
        }
        coords.push((2.0, 0.0)); // border point, index 4
        for i in 0..4 {
            coords.push((2.8 + i as f64 * 0.4, 0.0)); // right blob: 5..9
        }
        let p = pts(&coords);
        let r = dbscan_rows(&p, &ClusteringParams::new(0.9, 3));
        let total: usize = r.clusters.iter().map(Vec::len).sum();
        assert_eq!(total + r.noise().len(), p.len());
        let appearing: usize = r
            .clusters
            .iter()
            .map(|c| c.iter().filter(|&&i| i == 4).count())
            .sum();
        assert_eq!(
            appearing, 1,
            "border point must belong to exactly one cluster"
        );
    }

    #[test]
    fn clusters_partition_points_with_noise() {
        let p: Vec<Point> = (0..50)
            .map(|i| Point::new((i % 7) as f64 * 3.0, (i / 7) as f64 * 3.0))
            .collect();
        let r = dbscan_rows(&p, &ClusteringParams::new(3.5, 4));
        let mut all: Vec<usize> = r.clusters.iter().flatten().copied().collect();
        all.extend(r.noise());
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn labels_agree_with_cluster_membership() {
        let p: Vec<Point> = (0..60)
            .map(|i| Point::new((i % 9) as f64 * 2.5, (i / 9) as f64 * 2.5))
            .collect();
        let r = dbscan_rows(&p, &ClusteringParams::new(3.0, 3));
        for (ci, members) in r.clusters.iter().enumerate() {
            for &m in members {
                assert_eq!(r.label_of(m), Some(ci));
            }
        }
        for m in r.noise() {
            assert_eq!(r.label_of(m), None);
        }
    }

    #[test]
    fn grid_matches_bruteforce_on_structured_scene() {
        let mut coords = Vec::new();
        for i in 0..20 {
            coords.push((i as f64 * 7.0, (i % 3) as f64 * 5.0));
        }
        for i in 0..15 {
            coords.push((200.0 + (i % 5) as f64 * 2.0, (i / 5) as f64 * 2.0));
        }
        let p = pts(&coords);
        for (eps, m) in [(3.0, 2), (6.0, 3), (10.0, 4), (25.0, 5)] {
            let params = ClusteringParams::new(eps, m);
            let fast = dbscan_rows(&p, &params);
            let slow = dbscan_bruteforce(&p, &params);
            assert_eq!(fast.clusters, slow.clusters, "eps={eps} m={m}");
            assert_eq!(fast.noise(), slow.noise(), "eps={eps} m={m}");
        }
    }
}

#[cfg(test)]
// Deterministic seeded-random property checks (the container builds offline,
// so these use the vendored `rand` shim instead of `proptest`).
mod proptests {
    use super::*;
    use gpdt_geo::PointColumns;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(rng: &mut StdRng) -> Vec<Point> {
        let n = rng.gen_range(0..60);
        (0..n)
            .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
            .collect()
    }

    fn random_params(rng: &mut StdRng) -> ClusteringParams {
        ClusteringParams::new(rng.gen_range(0.5..40.0), rng.gen_range(1usize..6))
    }

    /// The grid-accelerated implementation agrees with the brute-force
    /// oracle.
    #[test]
    fn grid_equals_bruteforce() {
        let mut rng = StdRng::seed_from_u64(0xd1);
        for _ in 0..128 {
            let points = random_points(&mut rng);
            let params = random_params(&mut rng);
            let fast = dbscan_rows(&points, &params);
            let slow = dbscan_bruteforce(&points, &params);
            assert_eq!(fast, slow);
        }
    }

    /// A scratch arena reused across many differently-sized snapshots gives
    /// exactly the same result as a fresh run and the brute-force oracle.
    #[test]
    fn reused_scratch_equals_fresh_and_oracles() {
        let mut rng = StdRng::seed_from_u64(0xd5);
        let mut scratch = DbscanScratch::new();
        for _ in 0..128 {
            let points = random_points(&mut rng);
            let params = random_params(&mut rng);
            let columns = PointColumns::from_points(&points);
            let reused = dbscan_with(columns.view(), &params, &mut scratch);
            assert_eq!(reused, dbscan_rows(&points, &params));
            assert_eq!(reused, dbscan_bruteforce(&points, &params));
        }
    }

    /// The point families the integer cell keys make risky, each held to
    /// the brute-force oracle through ONE scratch arena, so consecutive
    /// snapshots differ wildly in size, extent and in which way their cells
    /// get ranked (box walk or key sort).
    #[test]
    fn grid_equals_bruteforce_on_adversarial_families_through_one_scratch() {
        let mut rng = StdRng::seed_from_u64(0xd7);
        let mut scratch = DbscanScratch::new();
        let mut check = |label: &str, points: &[Point], eps: f64| {
            for min_pts in [1, 2, 4] {
                let params = ClusteringParams::new(eps, min_pts);
                let columns = PointColumns::from_points(points);
                let fast = dbscan_with(columns.view(), &params, &mut scratch);
                let slow = dbscan_bruteforce(points, &params);
                assert_eq!(fast, slow, "{label}, eps={eps} min_pts={min_pts}");
            }
        };
        let eps = 10.0;
        let jitter = |rng: &mut StdRng, n: usize, cx: f64, cy: f64, spread: f64| -> Vec<Point> {
            (0..n)
                .map(|_| {
                    Point::new(
                        cx + rng.gen_range(-spread..spread),
                        cy + rng.gen_range(-spread..spread),
                    )
                })
                .collect()
        };

        // A large dense snapshot first, so every buffer is bigger than what
        // follows needs.
        check("dense", &jitter(&mut rng, 2_000, 0.0, 0.0, 300.0), eps);
        check(
            "negative quadrant",
            &jitter(&mut rng, 300, -5_000.0, -7_000.0, 80.0),
            eps,
        );
        // Exactly on cell borders, both signs, neighbours exactly eps apart.
        let lattice: Vec<Point> = (-6..=6)
            .flat_map(|i| (-6..=6).map(move |j| Point::new(f64::from(i) * eps, f64::from(j) * eps)))
            .collect();
        check("on cell borders", &lattice, eps);
        check("on cell borders, eps just short", &lattice, eps * 0.999);
        check(
            "one cell",
            &jitter(&mut rng, 150, 1_234.0, -1_234.0, 0.4),
            eps,
        );
        check("a single point", &[Point::new(-3.0, 4.0)], eps);
        // One point per cell: a 3-eps lattice (box walked) ...
        let sparse_lattice: Vec<Point> = lattice
            .iter()
            .map(|p| Point::new(p.x * 3.0, p.y * 3.0))
            .collect();
        check("one point per cell", &sparse_lattice, eps);
        // ... and a few tight groups scattered over a box of ~10¹⁰ cells,
        // far too sparse to walk (keys sorted).
        let mut scattered = Vec::new();
        for _ in 0..12 {
            let (cx, cy) = (rng.gen_range(-5e5..5e5), rng.gen_range(-5e5..5e5));
            scattered.extend(jitter(&mut rng, 5, cx, cy, 8.0));
        }
        check("sparse box", &scattered, eps);
        // Beyond the clamp: whole groups share the limit cell, on each side
        // and in each corner, with ordinary points in between.
        let mut far = jitter(&mut rng, 40, 0.0, 0.0, 30.0);
        for (sx, sy) in [
            (1.0, 1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
            (1.0, 0.0),
        ] {
            for k in 0..6 {
                far.push(Point::new(
                    sx * 1e15 + f64::from(k) * 4.0,
                    sy * 1e15 - f64::from(k) * 4.0,
                ));
            }
        }
        check("coordinates at 1e15", &far, eps);
        // Straddling the clamp limit itself.
        let limit = f64::from(gpdt_geo::grid::CELL_INDEX_LIMIT) * eps;
        let straddle: Vec<Point> = (-8..=8)
            .map(|k| Point::new(limit + f64::from(k) * 3.0, -limit + f64::from(k) * 3.0))
            .collect();
        check("straddling the clamp", &straddle, eps);
        // Non-finite coordinates match nothing, themselves included.
        let mut hostile = jitter(&mut rng, 60, 50.0, 50.0, 25.0);
        hostile.extend([
            Point::new(f64::NAN, 50.0),
            Point::new(50.0, f64::NAN),
            Point::new(f64::NAN, f64::NAN),
            Point::new(f64::INFINITY, 50.0),
            Point::new(f64::INFINITY, 50.0),
            Point::new(f64::NEG_INFINITY, f64::INFINITY),
            Point::new(50.0, f64::NEG_INFINITY),
        ]);
        check("non-finite", &hostile, eps);
        check("empty", &[], eps);
        check(
            "dense again",
            &jitter(&mut rng, 1_000, 40.0, -40.0, 200.0),
            eps,
        );
    }

    /// Clusters and noise together partition the input exactly.
    #[test]
    fn output_is_partition() {
        let mut rng = StdRng::seed_from_u64(0xd2);
        for _ in 0..128 {
            let points = random_points(&mut rng);
            let params = random_params(&mut rng);
            let r = dbscan_rows(&points, &params);
            let mut all: Vec<usize> = r.clusters.iter().flatten().copied().collect();
            all.extend(r.noise());
            all.sort_unstable();
            assert_eq!(all, (0..points.len()).collect::<Vec<_>>());
        }
    }

    /// Every cluster is non-empty and contains at least one core point
    /// (the seed it was grown from).
    #[test]
    fn clusters_contain_a_core_point() {
        let mut rng = StdRng::seed_from_u64(0xd3);
        for _ in 0..128 {
            let points = random_points(&mut rng);
            let params = random_params(&mut rng);
            let r = dbscan_rows(&points, &params);
            let eps_sq = params.eps * params.eps;
            for c in &r.clusters {
                assert!(!c.is_empty());
                let has_core = c.iter().any(|&i| {
                    points
                        .iter()
                        .filter(|q| points[i].distance_sq(q) <= eps_sq)
                        .count()
                        >= params.min_pts
                });
                assert!(has_core);
            }
        }
    }

    /// No noise point is a core point: every core point ends up in some
    /// cluster.
    #[test]
    fn noise_points_are_not_core() {
        let mut rng = StdRng::seed_from_u64(0xd4);
        for _ in 0..128 {
            let points = random_points(&mut rng);
            let params = random_params(&mut rng);
            let r = dbscan_rows(&points, &params);
            let eps_sq = params.eps * params.eps;
            for i in r.noise() {
                let degree = points
                    .iter()
                    .filter(|q| points[i].distance_sq(q) <= eps_sq)
                    .count();
                assert!(degree < params.min_pts);
            }
        }
    }
}
