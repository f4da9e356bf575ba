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
//! key and folds the cells' bounding box, a table with one slot per cell of
//! that box is counted and prefix-summed into bucket offsets, the points are
//! scattered into their buckets, and each point's block is three runs of
//! cells, one per column.  Only a snapshot whose box is too sparse for a
//! table (a few points, far apart) sorts its points by key instead.
//!
//! The grid's counts decide which ε-scans run at all.  A point's
//! ε-neighbourhood is a subset of its block, so a block holding fewer than
//! `min_pts` points proves the point is not core without a scan: a start
//! point becomes noise, a frontier point joins as a border point.  And a
//! frontier point whose block holds no point that is not yet enqueued
//! cannot add to the frontier, core or not, so it is not scanned either; a
//! per-cell count of the points not yet enqueued answers that in at most
//! nine reads.  Both skips are exact, so the result equals a scan of every
//! point (`dbscan_bruteforce` is the oracle the tests hold it to).
//!
//! Callers that cluster many snapshots (the cluster database builders, the
//! streaming clusterer) keep one scratch alive and pass it to
//! [`dbscan_with`], making the per-snapshot hot path free of heap allocation
//! apart from the output itself.
//!
//! The result is canonical — clusters numbered by their lowest seed index, a
//! border point in the earliest-discovered cluster that reaches it, members
//! sorted — so it depends on neither the cell order nor the order of points
//! inside a bucket.

use gpdt_geo::bvs::BitVector;
use gpdt_geo::grid::clamped_cell_index;
use gpdt_geo::{Point, PointColumns, PointsView};
use gpdt_trajectory::ObjectId;

use crate::params::ClusteringParams;

const UNVISITED: u32 = u32::MAX;
const NOISE: u32 = u32::MAX - 1;

/// Result of running DBSCAN on a set of points: the clusters' member
/// indices (into the input) in one flat array, cluster after cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbscanResult {
    /// Member indices, each cluster's run sorted in increasing order.
    members: Vec<u32>,
    /// Cluster `c` is `members[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
}

impl DbscanResult {
    /// Groups the final per-point labels into member runs by counting: the
    /// members are allocated at their exact size and filled in index order,
    /// so each run comes out sorted.
    fn from_labels(cluster_count: usize, labels: &[u32]) -> Self {
        // Counts go in two slots up, as in the grid's table: after the
        // prefix sum `offsets[c + 1]` is where cluster `c` starts, the
        // scatter advances it to where `c` ends, and the last slot (the
        // total, never advanced) is dropped.
        let mut offsets = vec![0u32; cluster_count + 2];
        for &label in labels {
            if label != NOISE {
                offsets[label as usize + 2] += 1;
            }
        }
        for c in 2..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut members = vec![0u32; offsets[cluster_count + 1] as usize];
        for (idx, &label) in labels.iter().enumerate() {
            if label != NOISE {
                let cursor = &mut offsets[label as usize + 1];
                members[*cursor as usize] = idx as u32;
                *cursor += 1;
            }
        }
        offsets.pop();
        DbscanResult { members, offsets }
    }

    /// Every clustered point's index, cluster after cluster; the points it
    /// does not name are noise.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The clusters in order of discovery, each as its sorted member
    /// indices.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
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

/// Reusable scratch arena for [`dbscan_with`]: the CSR grid buffers, the
/// per-point working state, and the snapshot columns the cluster database
/// builders cluster.  Create one (cheap, all-empty) and reuse it across
/// snapshots; every buffer is resized in place, so steady-state clustering
/// performs no heap allocation beyond the returned result.
#[derive(Debug, Clone, Default)]
pub struct DbscanScratch {
    /// Packed cell key of each point.
    keys: Vec<u64>,
    /// Bucket offsets by cell id: the bucket of cell `c` is
    /// `starts[c]..starts[c + 1]`.  A tabulated box numbers its cells by
    /// slot (column by column, a border of empty cells all around); a
    /// sorted one numbers its occupied cells in key order.
    starts: Vec<u32>,
    /// The sparse box's sort: the point indices ordered by cell key, and the
    /// occupied cells' keys in ascending order.
    order: Vec<u32>,
    cells: Vec<u64>,
    /// Number of occupied cells.
    cell_count: usize,
    /// The bucket payload, cell by cell in key order, as three parallel
    /// columns (SoA): coordinates split into `bxs`/`bys` so the ε-scan
    /// streams two dense `f64` arrays, with the original point index
    /// alongside in `bidx`.
    bxs: Vec<f64>,
    bys: Vec<f64>,
    bidx: Vec<u32>,
    /// Per point: its cell id.
    cell_of: Vec<u32>,
    /// Per point: its 3×3 block as three half-open runs of cell ids, one per
    /// column (cells are numbered by (column, row), so the rows `r-1..=r+1`
    /// of a column are consecutive ids, and their buckets one contiguous
    /// run of the payload).
    blocks: Vec<[(u32, u32); 3]>,
    /// Per cell id: how many of its points no frontier has taken yet.
    pending: Vec<u32>,
    /// Per-point cluster label during the sweep.
    labels: Vec<u32>,
    /// The clusters' BFS frontiers, one after the other.  A point is
    /// enqueued at most once, by the cluster it joins, so a finished
    /// cluster's run is exactly its members; it is sorted in place and
    /// `offsets` marks where it ends.
    frontier: Vec<u32>,
    offsets: Vec<u32>,
    /// ε-neighbourhood query output buffer.
    neighbors: Vec<u32>,
    /// Points already pushed onto some cluster's frontier (enqueueing a
    /// point twice is a no-op, so the bit lets us skip the duplicate push).
    enqueued: BitVector,
    /// The snapshot the cluster database builders fill and cluster: object
    /// ids and their positions.
    pub(crate) snapshot_ids: Vec<ObjectId>,
    pub(crate) snapshot_cols: PointColumns,
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
        // One pass keys the points and folds the cells' bounding box.
        let (mut min_col, mut max_col) = (u32::MAX, 0);
        let (mut min_row, mut max_row) = (u32::MAX, 0);
        self.keys.clear();
        self.keys
            .extend(points.xs().iter().zip(points.ys()).map(|(&x, &y)| {
                let (col, row) = (axis_cell(x, eps), axis_cell(y, eps));
                min_col = min_col.min(col);
                max_col = max_col.max(col);
                min_row = min_row.min(row);
                max_row = max_row.max(row);
                pack_cell(col, row)
            }));
        self.bxs.resize(n, 0.0);
        self.bys.resize(n, 0.0);
        self.bidx.resize(n, 0);
        self.cell_of.resize(n, 0);
        self.blocks.resize(n, [(0, 0); 3]);

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
    /// every point's block straight off its slot.
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
        let table = &mut self.starts;
        table.clear();
        table.resize(slots + 2, 0);
        self.cell_count = 0;
        for (cell, &key) in self.cell_of.iter_mut().zip(&self.keys) {
            let slot = slot_of(key);
            *cell = slot as u32;
            self.cell_count += usize::from(table[slot + 2] == 0);
            table[slot + 2] += 1;
        }
        self.pending.clear();
        self.pending.extend_from_slice(&table[2..]);
        let mut running = 0;
        for count in table.iter_mut() {
            running += *count;
            *count = running;
        }
        for (i, &slot) in self.cell_of.iter().enumerate() {
            let cursor = &mut table[slot as usize + 1];
            let pos = *cursor as usize;
            *cursor += 1;
            self.bxs[pos] = points.xs()[i];
            self.bys[pos] = points.ys()[i];
            self.bidx[pos] = i as u32;
        }
        // A column's slots are consecutive, so rows `r-1..=r+1` of each of
        // the three columns around a cell are one run of slots.
        let height = height as u32;
        for (block, &slot) in self.blocks.iter_mut().zip(&self.cell_of) {
            let left = slot - height;
            for (k, run) in block.iter_mut().enumerate() {
                let same_row = left + k as u32 * height;
                *run = (same_row - 1, same_row + 2);
            }
        }
    }

    /// The grid of a sparse box: sort the points by cell key (through an
    /// index, the keys stay plain integers), cut the sorted run into cells,
    /// and find each cell's block with forward cursors.
    fn sort_into_cells(&mut self, points: PointsView<'_>) {
        let keys = &self.keys;
        self.order.clear();
        self.order.extend(0..keys.len() as u32);
        self.order.sort_unstable_by_key(|&i| keys[i as usize]);
        self.cells.clear();
        self.starts.clear();
        self.pending.clear();
        for (pos, &i) in self.order.iter().enumerate() {
            let key = keys[i as usize];
            if self.cells.last() != Some(&key) {
                self.cells.push(key);
                self.starts.push(pos as u32);
                self.pending.push(0);
            }
            *self.pending.last_mut().expect("a cell was pushed") += 1;
            self.cell_of[i as usize] = self.cells.len() as u32 - 1;
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
            let mut block = [(0u32, 0u32); 3];
            for (k, run) in block.iter_mut().enumerate() {
                let same_row = key - COLUMN + k as u64 * COLUMN;
                while lo[k] < self.cell_count && self.cells[lo[k]] < same_row - 1 {
                    lo[k] += 1;
                }
                while hi[k] < self.cell_count && self.cells[hi[k]] <= same_row + 1 {
                    hi[k] += 1;
                }
                *run = (lo[k] as u32, hi[k] as u32);
            }
            for pos in self.starts[cell]..self.starts[cell + 1] {
                self.blocks[self.bidx[pos as usize] as usize] = block;
            }
        }
    }

    /// Number of points in the 3×3 block of `idx`'s cell: an upper bound on
    /// the size of its ε-neighbourhood.
    #[inline]
    fn block_len(&self, idx: usize) -> usize {
        self.blocks[idx]
            .iter()
            .map(|&(lo, hi)| (self.starts[hi as usize] - self.starts[lo as usize]) as usize)
            .sum()
    }

    /// Whether every point in the block of `idx`'s cell is already enqueued.
    #[inline]
    fn block_taken(&self, idx: usize) -> bool {
        self.blocks[idx].iter().all(|&(lo, hi)| {
            self.pending[lo as usize..hi as usize]
                .iter()
                .all(|&p| p == 0)
        })
    }

    /// Pushes `q` onto the frontier unless some frontier has taken it.
    #[inline]
    fn enqueue(&mut self, q: u32) {
        if !self.enqueued.get(q as usize) {
            self.enqueued.set(q as usize, true);
            self.pending[self.cell_of[q as usize] as usize] -= 1;
            self.frontier.push(q);
        }
    }

    /// [`Self::enqueue`]s every point of the `neighbors` buffer.
    fn enqueue_neighbors(&mut self) {
        for i in 0..self.neighbors.len() {
            self.enqueue(self.neighbors[i]);
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
        for &(lo, hi) in &self.blocks[idx] {
            let (lo, hi) = (
                self.starts[lo as usize] as usize,
                self.starts[hi as usize] as usize,
            );
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
    scratch.frontier.clear();
    scratch.offsets.clear();
    scratch.offsets.push(0);
    let mut cluster_count: u32 = 0;
    let (mut scans, mut pruned) = (0u64, 0u64);

    for start in 0..points.len() {
        if scratch.labels[start] != UNVISITED {
            continue;
        }
        if scratch.block_len(start) < params.min_pts {
            pruned += 1;
            scratch.labels[start] = NOISE;
            continue;
        }
        scans += 1;
        scratch.find_neighbors(points, start, params.eps);
        if scratch.neighbors.len() < params.min_pts {
            scratch.labels[start] = NOISE;
            continue;
        }
        // `start` is a core point: begin a new cluster and expand it.
        let cluster_id = cluster_count;
        cluster_count += 1;
        scratch.labels[start] = cluster_id;

        // The start goes first: its own ε-ball may not hold it (non-finite
        // coordinates), but its cluster's run must.
        let first = scratch.frontier.len();
        scratch.enqueue(start as u32);
        scratch.enqueue_neighbors();
        let mut cursor = first;
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
            // Too few points around `q` for it to be core, or none left for
            // it to enqueue: either way its scan would add nothing.
            if scratch.block_len(q) < params.min_pts || scratch.block_taken(q) {
                pruned += 1;
                continue;
            }
            scans += 1;
            scratch.find_neighbors(points, q, params.eps);
            if scratch.neighbors.len() >= params.min_pts {
                // `q` is itself a core point: its neighbourhood joins the
                // expansion frontier (each point at most once — a duplicate
                // enqueue would be skipped by the label check anyway).
                scratch.enqueue_neighbors();
            }
        }
        scratch.frontier[first..].sort_unstable();
        scratch.offsets.push(scratch.frontier.len() as u32);
    }

    // Exact-size copies: the result keeps no slack.
    let result = DbscanResult {
        members: scratch.frontier.to_vec(),
        offsets: scratch.offsets.to_vec(),
    };
    if gpdt_obs::enabled() {
        gpdt_obs::counter!("dbscan.grid.cells").add(scratch.cell_count as u64);
        gpdt_obs::counter!("dbscan.points.noise").add((points.len() - result.members.len()) as u64);
        gpdt_obs::counter!("dbscan.scans").add(scans);
        gpdt_obs::counter!("dbscan.scans_pruned").add(pruned);
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

/// Point families at the edges of the block-count bound and the enqueued
/// skip, laid out for the ε returned beside them and for `min_pts` from 1 to
/// 5: blocks of exactly one to six points (in one cell, and spread over
/// three), blocks full of points whose ε-balls hold fewer, pairs exactly ε
/// apart across a cell border, and duplicate points.  Coordinates are
/// integers, so every "exactly ε" is exact.  A test fixture, shared by the
/// unit tests and the SIMD equivalence suite.
#[doc(hidden)]
pub fn bound_edge_families() -> (f64, Vec<(&'static str, Vec<Point>)>) {
    let p = |x: i32, y: i32| Point::new(f64::from(x), f64::from(y));
    // Groups of k points, 60 apart: each group's block holds exactly k.
    let mut in_one_cell = Vec::new();
    let mut over_three_cells = Vec::new();
    for k in 1..=6 {
        let x0 = 60 * k;
        for j in 0..k {
            in_one_cell.push(p(x0 + 1 + j, 2 + j));
            // The same k spread evenly over 19 units: from the group's
            // first cell into its third.
            over_three_cells.push(p(x0 + 1 + j * 19 / (k - 1).max(1), 500));
        }
    }
    // A centre with eight points 14 away along the axes and diagonals:
    // all in its 3×3 block, none within ε.  Then the same with three and
    // with four of them 9 away, so the centre's ball holds four and five.
    let ring = |cx: i32, cy: i32, near: usize| {
        let mut points = vec![p(cx, cy)];
        let dirs = [
            (1, 0),
            (0, 1),
            (-1, 0),
            (0, -1),
            (1, 1),
            (-1, 1),
            (1, -1),
            (-1, -1),
        ];
        for (i, &(dx, dy)) in dirs.iter().enumerate() {
            let r = if i < near { 9 } else { 14 };
            points.push(p(cx + dx * r, cy + dy * r));
        }
        points
    };
    let mut sparse_balls = ring(5, 5, 0);
    sparse_balls.extend(ring(105, 5, 3));
    sparse_balls.extend(ring(205, 5, 4));
    // Pairs exactly ε apart across a vertical, a horizontal and a corner
    // border (a 6-8-10 triangle), and a chain of them.
    let mut exactly_eps = vec![p(-3, 5), p(7, 5), p(45, -4), p(45, 6)];
    exactly_eps.extend([p(97, 96), p(103, 104)]);
    exactly_eps.extend((0..6).map(|i| p(200 + 10 * i, 200)));
    // Copies of one point: 3 alone, 5 alone, 4 beside a single point, and
    // copies on a cell corner.
    let mut duplicates = Vec::new();
    duplicates.extend([p(0, 0); 3]);
    duplicates.extend([p(100, 3); 5]);
    duplicates.extend([p(200, 200); 4]);
    duplicates.push(p(209, 200));
    duplicates.extend([p(300, 300); 2]);
    duplicates.extend([p(305, 300), p(305, 300)]);
    let families = vec![
        ("blocks of k points in one cell", in_one_cell),
        ("blocks of k points over three cells", over_three_cells),
        ("full blocks, sparse balls", sparse_balls),
        ("pairs exactly eps apart across a border", exactly_eps),
        ("duplicate points", duplicates),
    ];
    (10.0, families)
}

/// [`dbscan`] over rows, as the oracle takes them.
#[cfg(test)]
fn dbscan_rows(points: &[Point], params: &ClusteringParams) -> DbscanResult {
    dbscan(gpdt_geo::PointColumns::from_points(points).view(), params)
}

/// Indices of the `n` input points no cluster names, in increasing order.
#[cfg(test)]
fn noise(r: &DbscanResult, n: usize) -> Vec<usize> {
    let mut clustered = vec![false; n];
    for &idx in r.members() {
        clustered[idx as usize] = true;
    }
    (0..n).filter(|&idx| !clustered[idx]).collect()
}

/// Cluster label of point `idx`: `Some(cluster_index)` or `None` for noise.
#[cfg(test)]
fn label_of(r: &DbscanResult, idx: usize) -> Option<usize> {
    r.clusters()
        .position(|members| members.binary_search(&(idx as u32)).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// The clusters as member lists, to compare against literals.
    fn groups(r: &DbscanResult) -> Vec<Vec<usize>> {
        r.clusters()
            .map(|c| c.iter().map(|&i| i as usize).collect())
            .collect()
    }

    #[test]
    fn empty_input() {
        let r = dbscan_rows(&[], &ClusteringParams::new(1.0, 2));
        assert_eq!(r.clusters().len(), 0);
        assert!(noise(&r, 0).is_empty());
    }

    #[test]
    fn single_point_is_noise_unless_min_pts_one() {
        let p = pts(&[(0.0, 0.0)]);
        let r = dbscan_rows(&p, &ClusteringParams::new(1.0, 2));
        assert_eq!(r.clusters().len(), 0);
        assert_eq!(noise(&r, p.len()), vec![0]);

        let r1 = dbscan_rows(&p, &ClusteringParams::new(1.0, 1));
        assert_eq!(groups(&r1), vec![vec![0]]);
        assert!(noise(&r1, 1).is_empty());
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
        assert_eq!(r.clusters().len(), 2);
        assert_eq!(groups(&r)[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(groups(&r)[1], vec![5, 6, 7, 8]);
        assert!(noise(&r, p.len()).is_empty());
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
        assert_eq!(r.clusters().len(), 1);
        assert_eq!(noise(&r, p.len()), vec![4]);
        assert_eq!(label_of(&r, 0), Some(0));
        assert_eq!(label_of(&r, 4), None);
    }

    #[test]
    fn chain_is_density_connected() {
        // A chain of points each within eps of the next: all of them are
        // density-reachable from the ends through core points.
        let p: Vec<Point> = (0..10).map(|i| Point::new(i as f64 * 0.9, 0.0)).collect();
        let r = dbscan_rows(&p, &ClusteringParams::new(1.0, 2));
        assert_eq!(r.clusters().len(), 1);
        assert_eq!(groups(&r)[0].len(), 10);
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
        let total = r.members().len();
        assert_eq!(total + noise(&r, p.len()).len(), p.len());
        let appearing = r.members().iter().filter(|&&i| i == 4).count();
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
        let mut all: Vec<usize> = r.members().iter().map(|&i| i as usize).collect();
        all.extend(noise(&r, p.len()));
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn labels_agree_with_cluster_membership() {
        let p: Vec<Point> = (0..60)
            .map(|i| Point::new((i % 9) as f64 * 2.5, (i / 9) as f64 * 2.5))
            .collect();
        let r = dbscan_rows(&p, &ClusteringParams::new(3.0, 3));
        for (ci, members) in r.clusters().enumerate() {
            for &m in members {
                assert_eq!(label_of(&r, m as usize), Some(ci));
            }
        }
        for m in noise(&r, p.len()) {
            assert_eq!(label_of(&r, m), None);
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
            assert_eq!(fast, slow, "eps={eps} m={m}");
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
            for min_pts in 1..=5 {
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
        // The edges of the block-count bound and the enqueued skip.
        let (edge_eps, families) = bound_edge_families();
        for (label, points) in families {
            check(label, &points, edge_eps);
        }
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
            let mut all: Vec<usize> = r.members().iter().map(|&i| i as usize).collect();
            all.extend(noise(&r, points.len()));
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
            for c in r.clusters() {
                assert!(!c.is_empty());
                let has_core = c.iter().any(|&i| {
                    points
                        .iter()
                        .filter(|q| points[i as usize].distance_sq(q) <= eps_sq)
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
            for i in noise(&r, points.len()) {
                let degree = points
                    .iter()
                    .filter(|q| points[i].distance_sq(q) <= eps_sq)
                    .count();
                assert!(degree < params.min_pts);
            }
        }
    }
}
