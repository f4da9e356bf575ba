//! The grid index over snapshot clusters (§III-A.2 of the paper).
//!
//! All timestamps share a single [`GridGeometry`] whose cell side is
//! `√2/2·δ`.  For one timestamp's cluster set the index stores
//!
//! * a **cell list** per cluster (`c.cl`) — the cells occupied by the
//!   cluster's points, with the points grouped by cell, and
//! * the **inverted lists** (`g.inv`) — which clusters occupy a cell — kept
//!   per 4×4 block of cells and reached through an open-addressed table
//!   keyed by the packed block.
//!
//! Everything is laid out flat, CSR-style, and every point of every cluster
//! is bucketed exactly **once**: because the geometry is shared, the bucketed
//! form of cluster `i` at tick `t − 1` ([`GridClusterIndex::cluster`]) *is*
//! the query against the index of tick `t`.  Only a cluster that comes from
//! outside any index is bucketed again ([`GridClusterIndex::bucket`]), into a
//! reusable [`BucketedQuery`].
//!
//! [`GridClusterIndex::search`] works in the paper's pruning/refinement
//! style, with nothing on the per-query path allocating:
//!
//! 1. *Pruning*: a cluster `cj` survives only if its cell list intersects the
//!    affect region of **every** cell of the query cluster `ci` — otherwise
//!    some point of `ci` is farther than `δ` from all of `cj`.  Such a `cj`
//!    has a cell in the affect region of `ci`'s *first* cell, and the 5×5
//!    cells around a cell always fall in 2×2 blocks, so four inverted lists
//!    are looked up; each cluster met there (once: a per-cluster stamp)
//!    passes a cell-bounding-box reject and is then checked against every
//!    query cell on the two sorted cell lists.
//! 2. *Refinement*: points of either cluster lying in cells shared by both
//!    are within `δ` of the other cluster for free (the cell diagonal is
//!    `δ`); a merge walk over the two sorted cell lists finds the unshared
//!    cells, and each of their points is tested only against the other
//!    cluster's points inside the cell's affect region.  This decides
//!    `dH ≤ δ` exactly, without ever computing the full Hausdorff distance.
//!
//! # Cell keys and far coordinates
//!
//! A cell is a packed `u64`: biased 32-bit column in the high half, biased
//! row in the low half, so keys order by (column, row) and a step to another
//! cell is one subtraction.  Cell indices are clamped to `±2³⁰` per axis and a non-finite
//! coordinate maps to the `−2³⁰` cell, so no coordinate can overflow the
//! neighbour arithmetic.  Clamping is monotone — two points within `δ` still
//! land at most two cells apart, so pruning stays a superset — but a cell on
//! the limit is unbounded, so the "shared cell ⇒ within `δ`" shortcut is
//! switched off for any cluster touching it and its points are always tested
//! exactly.  A NaN coordinate therefore never matches anything, exactly as in
//! the brute-force Hausdorff test.

use gpdt_geo::grid::clamped_cell_index;
use gpdt_geo::simd::{self, KernelDispatch};
use gpdt_geo::{GridGeometry, PointsView};

/// Cell indices are clamped to `±CELL_LIMIT` per axis.
const CELL_LIMIT: i32 = gpdt_geo::grid::CELL_INDEX_LIMIT;
/// Flipping the sign bit biases an `i32` cell index into an order-preserving
/// `u32`.
const CELL_BIAS: u32 = 1 << 31;
const LIMIT_LOW: u32 = CELL_BIAS - CELL_LIMIT as u32;
const LIMIT_HIGH: u32 = CELL_BIAS + CELL_LIMIT as u32;
/// Vacant slot of the block table (no key has a zero column: biased cell
/// columns start at `LIMIT_LOW`, block columns at a quarter of that).
const VACANT: u64 = 0;
/// Fibonacci hashing multiplier (2⁶⁴/φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The biased cell index of `v` (see [`clamped_cell_index`]).
#[inline]
fn axis_cell(v: f64) -> u32 {
    clamped_cell_index(v) as u32 ^ CELL_BIAS
}

#[inline]
fn column_of(key: u64) -> u32 {
    (key >> 32) as u32
}

#[inline]
fn row_of(key: u64) -> u32 {
    key as u32
}

/// The 4×4-cell block a cell lies in, as a packed key of its own (block
/// column and row are the cell's shifted down by two bits).
#[inline]
fn block_of(cell: u64) -> u64 {
    (cell >> 2) & 0x3FFF_FFFF_3FFF_FFFF
}

/// Is cell `a` in the affect region of cell `b` (Definition 5)?
#[inline]
fn in_affect_region(a: u64, b: u64) -> bool {
    let dc = column_of(a).abs_diff(column_of(b));
    let dr = row_of(a).abs_diff(row_of(b));
    dc <= 2 && dr <= 2 && dc + dr < 4
}

/// Bounding box of a cluster's cells, in biased cell indices.
#[derive(Debug, Clone, Copy)]
struct CellBox {
    min_col: u32,
    max_col: u32,
    min_row: u32,
    max_row: u32,
}

impl CellBox {
    /// Does this box, grown by two cells on every side, contain `other`?
    /// Necessary for every cell of `other` to lie in the affect region of
    /// some cell of `self`.
    #[inline]
    fn reaches(&self, other: &CellBox) -> bool {
        other.min_col + 2 >= self.min_col
            && other.max_col <= self.max_col + 2
            && other.min_row + 2 >= self.min_row
            && other.max_row <= self.max_row + 2
    }

    /// Does the box touch a clamped (unbounded) cell?
    #[inline]
    fn touches_limit(&self) -> bool {
        self.min_col == LIMIT_LOW
            || self.max_col == LIMIT_HIGH
            || self.min_row == LIMIT_LOW
            || self.max_row == LIMIT_HIGH
    }
}

/// A cluster whose cell box has at most this many cells is grouped by a
/// counting pass over the box; a larger one by sorting.
const COUNTED_BOX_CELLS: u64 = 256;

/// Buffers of [`CellBuckets::push_cluster`].
#[derive(Debug, Clone, Default)]
struct SortScratch {
    /// Per point: its cell column and row.
    cols: Vec<u32>,
    rows: Vec<u32>,
    /// Per cell of a small box: its point count, then its fill cursor.
    ends: Vec<u32>,
    /// (cell, point) pairs of a cluster whose box is larger than that.
    order: Vec<(u64, u32)>,
}

/// Point sets grouped by cell, CSR-style: the storage behind both the index
/// (all clusters of a tick back to back) and an external query (one).
#[derive(Debug, Clone, Default)]
struct CellBuckets {
    /// Occupied cells, ascending within each cluster.
    cells: Vec<u64>,
    /// Parallel to `cells`: start of the cell's points in `xs`/`ys`; the end
    /// is the next entry (one trailing sentinel closes the last cell).
    starts: Vec<u32>,
    /// Point coordinates grouped by (cluster, cell), as parallel columns so
    /// refinement probes stream dense `f64` runs.
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl CellBuckets {
    fn clear(&mut self) {
        self.cells.clear();
        self.starts.clear();
        self.xs.clear();
        self.ys.clear();
    }

    /// Appends one cluster's points grouped by cell and returns the bounding
    /// box of its cells.  (An empty point set has no cells, is never reached
    /// by a search, and its box never consulted.)
    fn push_cluster(
        &mut self,
        geometry: &GridGeometry,
        points: PointsView<'_>,
        sort: &mut SortScratch,
    ) -> CellBox {
        let (xs, ys) = (points.xs(), points.ys());
        let (origin, size) = (geometry.origin(), geometry.cell_size());
        let n = xs.len();
        let SortScratch {
            cols,
            rows,
            ends,
            order,
        } = sort;
        cols.clear();
        cols.extend(xs.iter().map(|&x| axis_cell((x - origin.x) / size)));
        rows.clear();
        rows.extend(ys.iter().map(|&y| axis_cell((y - origin.y) / size)));
        let mut bounds = CellBox {
            min_col: LIMIT_HIGH,
            max_col: LIMIT_LOW,
            min_row: LIMIT_HIGH,
            max_row: LIMIT_LOW,
        };
        for &col in cols.iter() {
            bounds.min_col = bounds.min_col.min(col);
            bounds.max_col = bounds.max_col.max(col);
        }
        for &row in rows.iter() {
            bounds.min_row = bounds.min_row.min(row);
            bounds.max_row = bounds.max_row.max(row);
        }
        if n == 0 {
            return bounds;
        }
        let base = self.xs.len();
        let width = u64::from(bounds.max_col - bounds.min_col) + 1;
        let height = u64::from(bounds.max_row - bounds.min_row) + 1;
        let area = width * height;
        if area <= COUNTED_BOX_CELLS {
            // The usual cluster: its box has few cells, so one counting pass
            // over the box (column-major, the key order) sizes every cell
            // and a second places the points — no sort, no permutation.
            let height = height as u32;
            let slot = |col: u32, row: u32| {
                ((col - bounds.min_col) * height + (row - bounds.min_row)) as usize
            };
            ends.clear();
            ends.resize(area as usize, 0);
            for (&col, &row) in cols.iter().zip(rows.iter()) {
                ends[slot(col, row)] += 1;
            }
            let mut filled = base as u32;
            let mut slots = ends.iter_mut();
            for col in bounds.min_col..=bounds.max_col {
                for (row, end) in (bounds.min_row..=bounds.max_row).zip(&mut slots) {
                    if *end > 0 {
                        self.cells.push(u64::from(col) << 32 | u64::from(row));
                        self.starts.push(filled);
                    }
                    filled += std::mem::replace(end, filled);
                }
            }
            self.xs.resize(base + n, 0.0);
            self.ys.resize(base + n, 0.0);
            for (i, (&col, &row)) in cols.iter().zip(rows.iter()).enumerate() {
                let end = &mut ends[slot(col, row)];
                self.xs[*end as usize] = xs[i];
                self.ys[*end as usize] = ys[i];
                *end += 1;
            }
        } else {
            // A sprawling box: order the points by (cell, index).
            order.clear();
            order.extend(
                (cols.iter().zip(rows.iter()).zip(0u32..))
                    .map(|((&col, &row), i)| (u64::from(col) << 32 | u64::from(row), i)),
            );
            order.sort_unstable();
            let mut previous = VACANT;
            for &(key, i) in order.iter() {
                if key != previous {
                    previous = key;
                    self.cells.push(key);
                    self.starts.push(self.xs.len() as u32);
                }
                self.xs.push(xs[i as usize]);
                self.ys.push(ys[i as usize]);
            }
        }
        bounds
    }

    /// Closes the last cell's point range.
    fn seal(&mut self) {
        self.starts.push(self.xs.len() as u32);
    }
}

/// A cluster bucketed under a grid geometry — the form every query takes.
/// Borrowed either from the index holding the cluster
/// ([`GridClusterIndex::cluster`]) or from the buffers an external one was
/// bucketed into ([`GridClusterIndex::bucket`]).
#[derive(Debug, Clone, Copy)]
pub struct BucketedCluster<'a> {
    geometry: &'a GridGeometry,
    /// The cluster's cell list, ascending.
    cells: &'a [u64],
    /// `cells.len() + 1` offsets into `xs`/`ys`.
    starts: &'a [u32],
    xs: &'a [f64],
    ys: &'a [f64],
    bounds: CellBox,
}

/// Reusable buffers for [`GridClusterIndex::bucket`]: hold one and reuse it
/// across external queries so bucketing allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BucketedQuery {
    buckets: CellBuckets,
    sort: SortScratch,
}

/// Reusable buffers for [`GridClusterIndex::build`]: hold one per worker and
/// reuse it across ticks, so a build's only allocations are the index's own
/// arrays.
#[derive(Debug, Clone, Default)]
pub struct GridBuildScratch {
    sort: SortScratch,
    /// Every (cluster, inverted list) membership, in cluster order.
    pair_lists: Vec<(u32, u32)>,
    /// Per inverted list: its length, then its fill cursor.
    list_fill: Vec<u32>,
    /// Per inverted list: the last cluster counted into it.
    list_last: Vec<u32>,
}

/// Reusable pruning state for [`GridClusterIndex::search`]; one may serve
/// any number of indexes.
#[derive(Debug, Clone, Default)]
pub struct GridSearchScratch {
    /// Per cluster id: the stamp of the last query that met the cluster.
    marks: Vec<u64>,
    /// The current query's stamp; 64 bits never wrap.
    epoch: u64,
    /// The clusters that survived pruning.
    reached: Vec<u32>,
}

/// Grid index over the clusters of one timestamp.
#[derive(Debug, Clone)]
pub struct GridClusterIndex {
    geometry: GridGeometry,
    /// `len() + 1` offsets into `buckets.cells`, one range per cluster.
    cluster_cells: Vec<u32>,
    cluster_bounds: Vec<CellBox>,
    buckets: CellBuckets,
    /// Open-addressed block → inverted-list table (linear probing, load
    /// factor ≤ ½, capacity a power of two).
    table_keys: Vec<u64>,
    table_lists: Vec<u32>,
    table_shift: u32,
    /// Per inverted list: its range in `inv_ids` (one trailing sentinel).
    inv_starts: Vec<u32>,
    /// Cluster ids occupying each block, ascending.
    inv_ids: Vec<u32>,
}

impl GridClusterIndex {
    /// Builds the index for a set of clusters, given as point sets.
    ///
    /// Cluster `i` in the input is referred to as id `i` in all query
    /// results.
    pub fn build(
        geometry: GridGeometry,
        clusters: &[PointsView<'_>],
        scratch: &mut GridBuildScratch,
    ) -> Self {
        let GridBuildScratch {
            sort,
            pair_lists,
            list_fill,
            list_last,
        } = scratch;
        // A cluster has at most as many cells as points; the cell arrays
        // give the slack back once the count is known.
        let total_points: usize = clusters.iter().map(|c| c.len()).sum();
        let mut buckets = CellBuckets {
            cells: Vec::with_capacity(total_points),
            starts: Vec::with_capacity(total_points + 1),
            xs: Vec::with_capacity(total_points),
            ys: Vec::with_capacity(total_points),
        };
        let mut cluster_cells = Vec::with_capacity(clusters.len() + 1);
        let mut cluster_bounds = Vec::with_capacity(clusters.len());
        cluster_cells.push(0);
        for cluster in clusters {
            cluster_bounds.push(buckets.push_cluster(&geometry, *cluster, sort));
            cluster_cells.push(buckets.cells.len() as u32);
        }
        buckets.seal();
        buckets.cells.shrink_to_fit();
        buckets.starts.shrink_to_fit();

        // Inverted lists by counting through the block table: one pass to
        // count each block's occupants, one to place them.  Clusters are
        // visited in id order, so every list comes out ascending and a
        // cluster's repeat visit to a block is the list's last entry.
        let capacity = (buckets.cells.len() * 2).next_power_of_two().max(16);
        let mut table_keys = vec![VACANT; capacity];
        let mut table_lists = vec![0u32; capacity];
        let table_shift = 64 - capacity.trailing_zeros();
        pair_lists.clear();
        list_fill.clear();
        list_last.clear();
        for (id, range) in cluster_cells.windows(2).enumerate() {
            let mut previous = VACANT;
            for &cell in &buckets.cells[range[0] as usize..range[1] as usize] {
                let key = block_of(cell);
                if key == previous {
                    continue;
                }
                previous = key;
                let mut slot = (key.wrapping_mul(HASH_MUL) >> table_shift) as usize;
                while table_keys[slot] != key && table_keys[slot] != VACANT {
                    slot = (slot + 1) & (capacity - 1);
                }
                if table_keys[slot] == VACANT {
                    table_keys[slot] = key;
                    table_lists[slot] = list_fill.len() as u32;
                    list_fill.push(0);
                    list_last.push(u32::MAX);
                }
                let list = table_lists[slot] as usize;
                if list_last[list] == id as u32 {
                    continue;
                }
                list_last[list] = id as u32;
                list_fill[list] += 1;
                pair_lists.push((id as u32, list as u32));
            }
        }
        let mut inv_starts = Vec::with_capacity(list_fill.len() + 1);
        let mut filled = 0u32;
        for fill in list_fill.iter_mut() {
            inv_starts.push(filled);
            filled += std::mem::replace(fill, filled);
        }
        inv_starts.push(filled);
        let mut inv_ids = vec![0u32; filled as usize];
        for &(id, list) in pair_lists.iter() {
            let cursor = &mut list_fill[list as usize];
            inv_ids[*cursor as usize] = id;
            *cursor += 1;
        }
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("index.grid.cells_bucketed").add(buckets.cells.len() as u64);
        }
        GridClusterIndex {
            geometry,
            cluster_cells,
            cluster_bounds,
            buckets,
            table_keys,
            table_lists,
            table_shift,
            inv_starts,
            inv_ids,
        }
    }

    /// The shared grid geometry.
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Number of indexed clusters.
    pub fn len(&self) -> usize {
        self.cluster_bounds.len()
    }

    /// Returns `true` if no cluster is indexed.
    pub fn is_empty(&self) -> bool {
        self.cluster_bounds.is_empty()
    }

    /// Indexed cluster `idx` in bucketed form: its cell list and points as
    /// they were grouped when this index was built.  This is the query to
    /// run against the next timestamp's index — no re-bucketing.
    pub fn cluster(&self, idx: usize) -> BucketedCluster<'_> {
        let (start, end) = (
            self.cluster_cells[idx] as usize,
            self.cluster_cells[idx + 1] as usize,
        );
        BucketedCluster {
            geometry: &self.geometry,
            cells: &self.buckets.cells[start..end],
            starts: &self.buckets.starts[start..=end],
            xs: &self.buckets.xs,
            ys: &self.buckets.ys,
            bounds: self.cluster_bounds[idx],
        }
    }

    /// Buckets an external query cluster under this index's geometry, into
    /// the caller's reusable buffers.
    pub fn bucket<'q>(
        &'q self,
        points: PointsView<'_>,
        query: &'q mut BucketedQuery,
    ) -> BucketedCluster<'q> {
        query.buckets.clear();
        let bounds = query
            .buckets
            .push_cluster(&self.geometry, points, &mut query.sort);
        query.buckets.seal();
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("index.grid.cells_bucketed").add(query.buckets.cells.len() as u64);
        }
        BucketedCluster {
            geometry: &self.geometry,
            cells: &query.buckets.cells,
            starts: &query.buckets.starts,
            xs: &query.buckets.xs,
            ys: &query.buckets.ys,
            bounds,
        }
    }

    /// Range search: writes the ids of all indexed clusters within Hausdorff
    /// distance `delta` of `query` to `out`, ascending, and returns the
    /// number of candidates that survived pruning and had to be refined.
    ///
    /// `delta` must be the threshold the geometry was made for
    /// ([`GridGeometry::for_delta`]).
    ///
    /// # Panics
    ///
    /// Panics if `query` was bucketed under a different geometry.
    pub fn search(
        &self,
        query: BucketedCluster<'_>,
        delta: f64,
        scratch: &mut GridSearchScratch,
        out: &mut Vec<usize>,
    ) -> usize {
        assert!(
            *query.geometry == self.geometry,
            "query bucketed under a different grid geometry"
        );
        out.clear();
        let cell_probes = self.prune(&query, scratch);
        let kernels = simd::dispatch();
        let delta_sq = delta * delta;
        let mut point_tests = 0u64;
        // A clamped cell is unbounded: sharing it proves nothing.
        let query_bounded = !query.bounds.touches_limit();
        for &id in &scratch.reached {
            let candidate = self.cluster(id as usize);
            let shortcut = query_bounded && !candidate.bounds.touches_limit();
            if covered_by(
                &query,
                &candidate,
                shortcut,
                delta_sq,
                kernels,
                &mut point_tests,
            ) && covered_by(
                &candidate,
                &query,
                shortcut,
                delta_sq,
                kernels,
                &mut point_tests,
            ) {
                out.push(id as usize);
            }
        }
        // The survivors come in table order; callers get ids ascending.
        out.sort_unstable();
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("index.grid.cell_probes").add(cell_probes);
            gpdt_obs::counter!("index.grid.candidates").add(scratch.reached.len() as u64);
            gpdt_obs::counter!("index.grid.refine_point_tests").add(point_tests);
        }
        scratch.reached.len()
    }

    /// **Pruning phase**: leaves in `scratch.reached` the ids of the indexed
    /// clusters whose cell list intersects the affect region of every query
    /// cell and whose cell box is mutually within reach of the query's — a
    /// superset of the clusters within Hausdorff distance `δ`.  Returns the
    /// number of table probes.
    ///
    /// Such a cluster has a cell in the affect region of the query's *first*
    /// cell, so only the blocks around that cell are looked up; each cluster
    /// found there is then checked against every query cell on the two
    /// sorted cell lists directly.
    fn prune(&self, query: &BucketedCluster<'_>, scratch: &mut GridSearchScratch) -> u64 {
        let GridSearchScratch {
            marks,
            epoch,
            reached,
        } = scratch;
        reached.clear();
        let Some(&first) = query.cells.first() else {
            return 0;
        };
        if marks.len() < self.len() {
            marks.resize(self.len(), 0);
        }
        *epoch += 1;
        let mask = self.table_keys.len() - 1;
        // The 5×5 cells around `first` fall in exactly 2×2 blocks (clamped
        // cell indices leave room for the two-cell step).
        let corner = block_of(first - ((2 << 32) + 2));
        let blocks = [
            corner,
            corner + 1,
            corner + (1 << 32),
            corner + (1 << 32) + 1,
        ];
        for key in blocks {
            let mut slot = (key.wrapping_mul(HASH_MUL) >> self.table_shift) as usize;
            while self.table_keys[slot] != key && self.table_keys[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            if self.table_keys[slot] == VACANT {
                continue;
            }
            let list = self.table_lists[slot] as usize;
            for &id in
                &self.inv_ids[self.inv_starts[list] as usize..self.inv_starts[list + 1] as usize]
            {
                // A cluster occupying several of the blocks is met once.
                if std::mem::replace(&mut marks[id as usize], *epoch) == *epoch {
                    continue;
                }
                let bounds = &self.cluster_bounds[id as usize];
                let (start, end) = (
                    self.cluster_cells[id as usize] as usize,
                    self.cluster_cells[id as usize + 1] as usize,
                );
                if query.bounds.reaches(bounds)
                    && bounds.reaches(&query.bounds)
                    && reached_from_every_cell(query.cells, &self.buckets.cells[start..end])
                {
                    reached.push(id);
                }
            }
        }
        blocks.len() as u64
    }
}

/// The cells of the ascending list `cells` that lie in the affect region of
/// `cell`, by index, given `at`: the first index whose cell is not below
/// `cell`.  Keys order by column first, so the cells within two columns of
/// `cell` are one run around `at`.
#[inline]
fn affect_cells(cells: &[u64], at: usize, cell: u64) -> impl Iterator<Item = usize> + '_ {
    let mut first = at;
    while first > 0 && column_of(cells[first - 1]) + 2 >= column_of(cell) {
        first -= 1;
    }
    (first..cells.len())
        .take_while(move |&k| column_of(cells[k]) <= column_of(cell) + 2)
        .filter(move |&k| in_affect_region(cells[k], cell))
}

/// Does `candidate` (an ascending cell list) intersect the affect region of
/// every cell of `query` (likewise)?
fn reached_from_every_cell(query: &[u64], candidate: &[u64]) -> bool {
    let mut at = 0;
    query.iter().all(|&cell| {
        while at < candidate.len() && candidate[at] < cell {
            at += 1;
        }
        affect_cells(candidate, at, cell).next().is_some()
    })
}

/// One direction of the **refinement phase**: does every point of `from`
/// have a point of `to` within `√delta_sq`?  Points in a cell both clusters
/// occupy do by construction (when `shortcut` holds); every other point is
/// tested against the points of `to` in its cell's affect region.
fn covered_by(
    from: &BucketedCluster<'_>,
    to: &BucketedCluster<'_>,
    shortcut: bool,
    delta_sq: f64,
    kernels: &KernelDispatch,
    point_tests: &mut u64,
) -> bool {
    // Merge walk: `at` is the first cell of `to` not below the current cell
    // of `from` (both lists ascend).
    let mut at = 0;
    for (i, &cell) in from.cells.iter().enumerate() {
        while at < to.cells.len() && to.cells[at] < cell {
            at += 1;
        }
        if shortcut && to.cells.get(at) == Some(&cell) {
            continue;
        }
        // The point ranges of the affect-region cells of `to`, merged where
        // adjacent (consecutive cells hold consecutive points).
        let mut ranges = [(0usize, 0usize); GridGeometry::AFFECT_OFFSETS.len()];
        let mut range_count = 0;
        for k in affect_cells(to.cells, at, cell) {
            let (lo, hi) = (to.starts[k] as usize, to.starts[k + 1] as usize);
            if range_count > 0 && ranges[range_count - 1].1 == lo {
                ranges[range_count - 1].1 = hi;
            } else {
                ranges[range_count] = (lo, hi);
                range_count += 1;
            }
        }
        for p in from.starts[i] as usize..from.starts[i + 1] as usize {
            *point_tests += 1;
            let (px, py) = (from.xs[p], from.ys[p]);
            // Exact comparison — identical verdict at every SIMD level.
            if !ranges[..range_count].iter().any(|&(lo, hi)| {
                kernels.any_within(&to.xs[lo..hi], &to.ys[lo..hi], px, py, delta_sq)
            }) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_geo::{hausdorff_within, Point, PointColumns};

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let angle = i as f64 * 2.39996; // golden-angle spiral
                let r = spread * (i as f64 / n as f64).sqrt();
                Point::new(cx + r * angle.cos(), cy + r * angle.sin())
            })
            .collect()
    }

    /// AoS rows convert to columns at the edge: the index takes views only.
    fn columns(clusters: &[Vec<Point>]) -> Vec<PointColumns> {
        clusters
            .iter()
            .map(|c| PointColumns::from_points(c))
            .collect()
    }

    fn build(delta: f64, clusters: &[Vec<Point>]) -> GridClusterIndex {
        let cols = columns(clusters);
        let views: Vec<_> = cols.iter().map(|c| c.view()).collect();
        GridClusterIndex::build(
            GridGeometry::for_delta(delta),
            &views,
            &mut GridBuildScratch::default(),
        )
    }

    /// Range search for an external query, plus the candidate count.
    fn search(index: &GridClusterIndex, query: &[Point], delta: f64) -> (Vec<usize>, usize) {
        let cols = PointColumns::from_points(query);
        let mut bucketed = BucketedQuery::default();
        let mut out = Vec::new();
        let candidates = index.search(
            index.bucket(cols.view(), &mut bucketed),
            delta,
            &mut GridSearchScratch::default(),
            &mut out,
        );
        (out, candidates)
    }

    /// The ids that survive pruning for an external query, ascending.
    fn candidates(index: &GridClusterIndex, query: &[Point]) -> Vec<u32> {
        let cols = PointColumns::from_points(query);
        let mut bucketed = BucketedQuery::default();
        let mut scratch = GridSearchScratch::default();
        index.prune(&index.bucket(cols.view(), &mut bucketed), &mut scratch);
        scratch.reached.sort_unstable();
        scratch.reached
    }

    fn exact(clusters: &[Vec<Point>], query: &[Point], delta: f64) -> Vec<usize> {
        let query = PointColumns::from_points(query);
        (columns(clusters).iter().enumerate())
            .filter(|(_, c)| hausdorff_within(query.view(), c.view(), delta))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn build_populates_cell_and_inverted_lists() {
        let clusters = vec![blob(0.0, 0.0, 10, 30.0), blob(1000.0, 0.0, 8, 20.0)];
        let index = build(100.0, &clusters);
        assert_eq!(index.len(), 2);
        assert!(!index.is_empty());
        let geometry = *index.geometry();
        for (id, points) in clusters.iter().enumerate() {
            let cluster = index.cluster(id);
            assert!(!cluster.cells.is_empty());
            assert!(cluster.cells.windows(2).all(|w| w[0] < w[1]));
            // Every point sits in the bucket of its own cell, and none is
            // lost.
            let mut seen = 0;
            for (k, &cell) in cluster.cells.iter().enumerate() {
                for p in cluster.starts[k] as usize..cluster.starts[k + 1] as usize {
                    let at = geometry.cell_of_xy(cluster.xs[p], cluster.ys[p]);
                    assert_eq!((column_of(cell) ^ CELL_BIAS) as i32 as i64, at.col);
                    assert_eq!((row_of(cell) ^ CELL_BIAS) as i32 as i64, at.row);
                    seen += 1;
                }
            }
            assert_eq!(seen, points.len());
        }
        // The clusters are far apart: every inverted list holds exactly one
        // of them, and both are listed.
        assert!(index.inv_starts.windows(2).all(|w| w[1] - w[0] == 1));
        assert!(index.inv_ids.contains(&0) && index.inv_ids.contains(&1));
    }

    #[test]
    fn prepared_query_cells_match_cell_list_of() {
        // Bucketing a cluster as an external query groups it exactly as
        // indexing it does.
        let cluster = blob(120.0, -40.0, 25, 90.0);
        let index = build(75.0, std::slice::from_ref(&cluster));
        let cols = PointColumns::from_points(&cluster);
        let mut bucketed = BucketedQuery::default();
        let query = index.bucket(cols.view(), &mut bucketed);
        let indexed = index.cluster(0);
        assert_eq!(query.cells, indexed.cells);
        assert_eq!(query.starts, indexed.starts);
        assert_eq!((query.xs, query.ys), (indexed.xs, indexed.ys));
        assert_eq!(*query.starts.last().unwrap() as usize, cluster.len());
    }

    #[test]
    fn far_clusters_are_pruned() {
        let clusters = vec![blob(0.0, 0.0, 10, 30.0), blob(5000.0, 5000.0, 10, 30.0)];
        let index = build(100.0, &clusters);
        assert_eq!(candidates(&index, &blob(10.0, 10.0, 12, 25.0)), vec![0]);
    }

    #[test]
    fn identical_cluster_is_always_within_delta() {
        let cluster = blob(500.0, 300.0, 20, 40.0);
        let index = build(50.0, std::slice::from_ref(&cluster));
        assert_eq!(search(&index, &cluster, 50.0).0, vec![0]);
    }

    #[test]
    fn range_search_matches_exact_hausdorff_test() {
        let delta = 120.0;
        let clusters = vec![
            blob(0.0, 0.0, 15, 50.0),
            blob(80.0, 40.0, 12, 60.0),
            blob(400.0, 0.0, 10, 30.0),
            blob(90.0, -60.0, 18, 45.0),
            blob(-200.0, 150.0, 9, 25.0),
        ];
        let index = build(delta, &clusters);
        let query = blob(30.0, 10.0, 14, 55.0);
        let (got, candidates) = search(&index, &query, delta);
        assert_eq!(got, exact(&clusters, &query, delta));
        assert!(candidates >= got.len() && candidates <= clusters.len());
    }

    #[test]
    fn empty_query_yields_no_candidates() {
        let index = build(100.0, &[blob(0.0, 0.0, 5, 10.0)]);
        assert_eq!(search(&index, &[], 100.0), (vec![], 0));
    }

    #[test]
    fn empty_index_yields_no_results() {
        let index = build(100.0, &[]);
        assert!(index.is_empty());
        assert_eq!(search(&index, &blob(0.0, 0.0, 5, 10.0), 100.0), (vec![], 0));
    }

    #[test]
    fn elongated_cluster_pruned_by_every_cell_requirement() {
        // A candidate overlapping only one end of a long query cluster is
        // pruned because it misses the affect region of the far end's cells.
        let long_query: Vec<Point> = (0..40).map(|i| Point::new(i as f64 * 25.0, 0.0)).collect();
        let index = build(50.0, &[blob(0.0, 10.0, 10, 20.0)]);
        assert!(candidates(&index, &long_query).is_empty());
    }

    #[test]
    fn far_and_non_finite_coordinates_never_overflow_or_match_wrongly() {
        let delta = 100.0;
        let clusters = vec![
            blob(0.0, 0.0, 6, 30.0),
            vec![Point::new(1e300, 1e300), Point::new(1e300, -1e300)],
            vec![Point::new(2e300, 1e300), Point::new(2e300, -1e300)],
            vec![Point::new(10.0, 10.0), Point::new(f64::NAN, 0.0)],
            vec![Point::new(f64::INFINITY, 5.0)],
            vec![Point::new(-1e300, f64::NEG_INFINITY)],
        ];
        let index = build(delta, &clusters);
        for (id, query) in clusters.iter().enumerate() {
            // Clusters 1 and 2 saturate into the same clamped cells but are
            // 1e300 apart; a NaN or infinite coordinate matches nothing, not
            // even itself.
            let expected = exact(&clusters, query, delta);
            assert_eq!(search(&index, query, delta).0, expected, "cluster {id}");
            assert_eq!(expected, if id <= 2 { vec![id] } else { vec![] });
        }
    }

    #[test]
    fn sprawling_boxes_take_the_sort_path_and_agree() {
        // Clusters whose cell box exceeds the counting table (here ≥ 40×40
        // cells) go through the comparison sort; results stay exact.
        let delta = 50.0;
        let diagonal = |dx: f64| -> Vec<Point> {
            (0..60)
                .map(|i| Point::new(dx + i as f64 * 30.0, i as f64 * 30.0))
                .collect()
        };
        let clusters = vec![diagonal(0.0), diagonal(20.0), diagonal(400.0)];
        let index = build(delta, &clusters);
        assert!(index.cluster(0).cells.len() > 40);
        for query in &clusters {
            assert_eq!(
                search(&index, query, delta).0,
                exact(&clusters, query, delta)
            );
        }
        assert_eq!(search(&index, &clusters[0], delta).0, vec![0, 1]);
    }
}

#[cfg(test)]
// Deterministic seeded-random property checks (the container builds offline,
// so these use the vendored `rand` shim instead of `proptest`).
mod proptests {
    use super::*;
    use gpdt_geo::{hausdorff_within, Point, PointColumns};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cluster(rng: &mut StdRng) -> Vec<Point> {
        let cx = rng.gen_range(-500.0..500.0);
        let cy = rng.gen_range(-500.0..500.0);
        let n = rng.gen_range(1..20);
        (0..n)
            .map(|_| {
                Point::new(
                    cx + rng.gen_range(-80.0..80.0),
                    cy + rng.gen_range(-80.0..80.0),
                )
            })
            .collect()
    }

    fn random_clusters(rng: &mut StdRng) -> Vec<PointColumns> {
        let n = rng.gen_range(0..8);
        (0..n)
            .map(|_| PointColumns::from_points(&random_cluster(rng)))
            .collect()
    }

    fn exact(clusters: &[PointColumns], query: &PointColumns, delta: f64) -> Vec<usize> {
        (0..clusters.len())
            .filter(|&i| hausdorff_within(query.view(), clusters[i].view(), delta))
            .collect()
    }

    /// The grid range search returns exactly the clusters within Hausdorff
    /// distance delta (agrees with the exact predicate), with every scratch
    /// reused across rounds of different sizes.
    #[test]
    fn grid_range_search_is_exact() {
        let mut rng = StdRng::seed_from_u64(0xa1);
        let mut build_scratch = GridBuildScratch::default();
        let mut search_scratch = GridSearchScratch::default();
        let mut bucketed = BucketedQuery::default();
        let mut out = Vec::new();
        for _ in 0..256 {
            let clusters = random_clusters(&mut rng);
            let query = PointColumns::from_points(&random_cluster(&mut rng));
            let delta = rng.gen_range(20.0..400.0);
            let views: Vec<_> = clusters.iter().map(|c| c.view()).collect();
            let index =
                GridClusterIndex::build(GridGeometry::for_delta(delta), &views, &mut build_scratch);
            let candidates = index.search(
                index.bucket(query.view(), &mut bucketed),
                delta,
                &mut search_scratch,
                &mut out,
            );
            assert_eq!(out, exact(&clusters, &query, delta));
            assert!(candidates >= out.len());
        }
    }

    /// Candidate generation never prunes a true result (it is a superset
    /// of the exact answer).
    #[test]
    fn candidates_are_superset_of_exact() {
        let mut rng = StdRng::seed_from_u64(0xa2);
        let mut scratch = GridSearchScratch::default();
        let mut bucketed = BucketedQuery::default();
        for _ in 0..256 {
            let clusters = random_clusters(&mut rng);
            let query = PointColumns::from_points(&random_cluster(&mut rng));
            let delta = rng.gen_range(20.0..400.0);
            let views: Vec<_> = clusters.iter().map(|c| c.view()).collect();
            let index = GridClusterIndex::build(
                GridGeometry::for_delta(delta),
                &views,
                &mut GridBuildScratch::default(),
            );
            index.prune(&index.bucket(query.view(), &mut bucketed), &mut scratch);
            for id in exact(&clusters, &query, delta) {
                assert!(
                    scratch.reached.contains(&(id as u32)),
                    "true result {id} was pruned"
                );
            }
        }
    }

    /// A reused build scratch never changes the built index's answers.
    #[test]
    fn scratch_reuse_matches_fresh_build() {
        let mut rng = StdRng::seed_from_u64(0xa3);
        let mut scratch = GridBuildScratch::default();
        let mut search_scratch = GridSearchScratch::default();
        let mut bucketed = BucketedQuery::default();
        let (mut from_reused, mut from_fresh) = (Vec::new(), Vec::new());
        for _ in 0..128 {
            let clusters = random_clusters(&mut rng);
            let query = PointColumns::from_points(&random_cluster(&mut rng));
            let delta = rng.gen_range(20.0..400.0);
            let geometry = GridGeometry::for_delta(delta);
            let views: Vec<_> = clusters.iter().map(|c| c.view()).collect();
            let reused = GridClusterIndex::build(geometry, &views, &mut scratch);
            let fresh = GridClusterIndex::build(geometry, &views, &mut GridBuildScratch::default());
            reused.search(
                reused.bucket(query.view(), &mut bucketed),
                delta,
                &mut search_scratch,
                &mut from_reused,
            );
            fresh.search(
                fresh.bucket(query.view(), &mut bucketed),
                delta,
                &mut search_scratch,
                &mut from_fresh,
            );
            assert_eq!(from_reused, from_fresh);
        }
    }

    /// A cluster read out of the index it was bucketed in gives the same
    /// answer, candidate for candidate, as the same cluster bucketed again
    /// as an external query.
    #[test]
    fn reused_buckets_match_external_queries() {
        let mut rng = StdRng::seed_from_u64(0xa5);
        let mut build_scratch = GridBuildScratch::default();
        let mut search_scratch = GridSearchScratch::default();
        let mut bucketed = BucketedQuery::default();
        let (mut reused, mut external) = (Vec::new(), Vec::new());
        for _ in 0..128 {
            let delta = rng.gen_range(20.0..400.0);
            let geometry = GridGeometry::for_delta(delta);
            let previous = random_clusters(&mut rng);
            let next = random_clusters(&mut rng);
            let previous_views: Vec<_> = previous.iter().map(|c| c.view()).collect();
            let next_views: Vec<_> = next.iter().map(|c| c.view()).collect();
            let previous_index =
                GridClusterIndex::build(geometry, &previous_views, &mut build_scratch);
            let next_index = GridClusterIndex::build(geometry, &next_views, &mut build_scratch);
            for (id, query) in previous.iter().enumerate() {
                let a = next_index.search(
                    previous_index.cluster(id),
                    delta,
                    &mut search_scratch,
                    &mut reused,
                );
                let b = next_index.search(
                    next_index.bucket(query.view(), &mut bucketed),
                    delta,
                    &mut search_scratch,
                    &mut external,
                );
                assert_eq!((a, &reused), (b, &external));
                assert_eq!(reused, exact(&next, query, delta));
            }
        }
    }

    #[test]
    #[should_panic(expected = "different grid geometry")]
    fn a_query_bucketed_under_another_geometry_is_refused() {
        let cluster = PointColumns::from_points(&[Point::new(0.0, 0.0)]);
        let mut scratch = GridBuildScratch::default();
        let coarse = GridClusterIndex::build(
            GridGeometry::for_delta(300.0),
            &[cluster.view()],
            &mut scratch,
        );
        let fine = GridClusterIndex::build(
            GridGeometry::for_delta(100.0),
            &[cluster.view()],
            &mut scratch,
        );
        fine.search(
            coarse.cluster(0),
            100.0,
            &mut GridSearchScratch::default(),
            &mut Vec::new(),
        );
    }
}
