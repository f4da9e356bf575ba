//! Range-search strategies for crowd discovery.
//!
//! Algorithm 1 asks, for every cluster that can be the last of a crowd
//! candidate, which clusters at the *next* timestamp lie within Hausdorff
//! distance `δ`.  The paper evaluates three ways of answering this (§III-A);
//! all of them are available here behind [`RangeSearchStrategy`], plus a
//! brute-force baseline and the join the sweep uses by default:
//!
//! * [`RangeSearchStrategy::BruteForce`] — test every cluster with the
//!   early-exit Hausdorff threshold check.
//! * [`RangeSearchStrategy::RTreeDmin`] (**SR**) — R-tree over cluster MBRs,
//!   candidates pruned with the `dmin` lower bound (Lemma 2), survivors
//!   refined with the exact threshold check.
//! * [`RangeSearchStrategy::RTreeDside`] (**IR**) — R-tree candidates pruned
//!   with the tighter `dside` bound (Lemma 3), then refined.
//! * [`RangeSearchStrategy::Grid`] (**GRID**) — the shared-geometry grid
//!   index whose pruning/refinement decides `dH ≤ δ` without exact Hausdorff
//!   computations (§III-A.2).
//! * [`RangeSearchStrategy::Join`] (**JOIN**) — the tick's bounds sorted
//!   along x ([`SortedBounds`]): two binary searches open a window, three
//!   comparisons prune inside it, survivors are refined.
//!
//! A [`TickSearcher`] is built once per timestamp from that timestamp's
//! cluster set and then queried once per cluster of the timestamp before:
//! the answers depend on the two cluster sets only, so the discovery sweep
//! finds every tick pair's edges before it extends a candidate.

use std::cell::RefCell;

use gpdt_clustering::{SnapshotCluster, SnapshotClusterSet};
use gpdt_geo::{GridGeometry, Mbr, PointsView};
use gpdt_index::{
    rtree::Entry, BucketedQuery, GridBuildScratch, GridClusterIndex, GridSearchScratch, RTree,
};

/// The pruning scheme used by the crowd-discovery range search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RangeSearchStrategy {
    /// Exhaustively test every cluster (no index).
    BruteForce,
    /// R-tree pruning with the `dmin` lower bound (the paper's **SR**).
    RTreeDmin,
    /// R-tree pruning with the `dside` lower bound (the paper's **IR**).
    RTreeDside,
    /// Grid index with affect-region pruning and grid refinement (the
    /// paper's **GRID**).  All timestamps share one geometry, so the sweep
    /// buckets each cluster once and reuses tick `t − 1`'s buckets as the
    /// queries against tick `t`.
    Grid,
    /// Sorted-bounds join ([`SortedBounds`]).  The default: a tick's
    /// structure is built once and queried about once per cluster, so what
    /// an index costs to build is never earned back; a sort is the cheapest
    /// build there is.  README "Range-search strategies" has the measured
    /// per-strategy times.
    #[default]
    Join,
}

impl RangeSearchStrategy {
    /// All strategies: the paper's, in the order its figures list them,
    /// then the join.
    pub const ALL: [RangeSearchStrategy; 5] = [
        RangeSearchStrategy::BruteForce,
        RangeSearchStrategy::RTreeDmin,
        RangeSearchStrategy::RTreeDside,
        RangeSearchStrategy::Grid,
        RangeSearchStrategy::Join,
    ];

    /// Short label used in benchmark output (matches the paper's legend).
    pub fn label(&self) -> &'static str {
        match self {
            RangeSearchStrategy::BruteForce => "BRUTE",
            RangeSearchStrategy::RTreeDmin => "SR",
            RangeSearchStrategy::RTreeDside => "IR",
            RangeSearchStrategy::Grid => "GRID",
            RangeSearchStrategy::Join => "JOIN",
        }
    }
}

impl std::fmt::Display for RangeSearchStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Statistics of one range search, used by the ablation benchmarks to compare
/// the pruning power of the strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Number of candidate clusters that survived index pruning and had to be
    /// refined.
    pub candidates: usize,
    /// Number of candidates confirmed to be within `δ`.
    pub results: usize,
}

/// The bounds of some of a tick's clusters as columns sorted by `min_x`: the
/// index of [`RangeSearchStrategy::Join`], and the one kernel behind every
/// "which of these clusters are within `δ` of that one" scan that brings its
/// own choice of clusters and of pairs (`gpdt-shard`'s cross edges).
///
/// Every side of a cluster's bounding box holds one of its points (the
/// premise of Lemma 3), and within Hausdorff distance `δ` that point has a
/// partner in the other cluster: `dH ≤ δ` puts the two left sides within `δ`
/// of each other, and so the right, bottom and top ones.  A query therefore
/// meets only the boxes whose left side is within `δ` of its own — two
/// binary searches — and refines those whose other three sides are too:
/// near-linear in the two ticks where they spread out along x, all pairs at
/// worst.
#[derive(Debug, Clone, Default)]
pub struct SortedBounds {
    ids: Vec<u32>,
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
}

impl SortedBounds {
    /// Sorts the bounds of the clusters `ids` picks out of `clusters`.  A box
    /// without an x extent (every coordinate NaN) is left out: it is within
    /// `δ` of nothing.
    pub fn build(clusters: &[SnapshotCluster], ids: impl IntoIterator<Item = usize>) -> Self {
        let mbr = |id: u32| clusters[id as usize].mbr();
        let order = ids.into_iter().map(|id| (mbr(id as u32).min_x, id as u32));
        let mut order: Vec<(f64, u32)> = order.filter(|o| !o.0.is_nan()).collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let column = |side: fn(&Mbr) -> f64| order.iter().map(|o| side(mbr(o.1))).collect();
        SortedBounds {
            ids: order.iter().map(|o| o.1).collect(),
            min_x: column(|m| m.min_x),
            min_y: column(|m| m.min_y),
            max_x: column(|m| m.max_x),
            max_y: column(|m| m.max_y),
        }
    }

    /// Writes into `out`, ascending, the indexed clusters within Hausdorff
    /// distance `delta` of `query` among those `pair` admits; `clusters` is
    /// the slice the index was built over.  Returns how many admitted boxes
    /// of the window were compared with the query's and how many of them
    /// went on to the exact check (which begins with `dmin`, Lemma 2).
    pub fn search(
        &self,
        clusters: &[SnapshotCluster],
        query: &SnapshotCluster,
        delta: f64,
        mut pair: impl FnMut(usize) -> bool,
        out: &mut Vec<usize>,
    ) -> (usize, usize) {
        out.clear();
        let q = query.mbr();
        // The very subtractions the point kernels make, which round
        // monotonically: a pair left out here has a leftmost point more than
        // δ along x from every point of the other cluster.
        let from = self.min_x.partition_point(|&x| q.min_x - x > delta);
        let len = self.min_x[from..].partition_point(|&x| x - q.min_x <= delta);
        let (mut tested, mut refined) = (0, 0);
        for i in from..from + len {
            let id = self.ids[i] as usize;
            if !pair(id) {
                continue;
            }
            tested += 1;
            // NaN (an unbounded box against another) is within δ of nothing.
            let near = |a: f64, b: f64| (a - b).abs() <= delta;
            if near(self.max_x[i], q.max_x)
                & near(self.min_y[i], q.min_y)
                & near(self.max_y[i], q.max_y)
            {
                refined += 1;
                if query.within_hausdorff(&clusters[id], delta) {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        (tested, refined)
    }
}

enum TickIndex {
    Brute,
    RTree { tree: RTree, use_dside: bool },
    Grid(GridClusterIndex),
    Join(SortedBounds),
}

/// Reusable buffers for [`TickSearcher::build_with`]: the R-tree entry list
/// and the grid index's build scratch.  One searcher is built per tick of the
/// discovery sweep; a worker holding a `SearcherScratch` across its ticks
/// rebuilds indexes without per-tick temporary allocations.
#[derive(Default)]
pub struct SearcherScratch {
    entries: Vec<Entry>,
    grid: GridBuildScratch,
}

/// The grid search's per-query buffers: the bucketed form of an external
/// query and the pruning stamps.
#[derive(Default)]
struct GridQueryState {
    query: BucketedQuery,
    search: GridSearchScratch,
}

thread_local! {
    /// [`TickSearcher::search_into`] takes `&self` and a searcher outlives
    /// the `SearcherScratch` it was built with, so the query buffers cannot
    /// ride on either; they are pure scratch, kept once per thread and reused
    /// by every grid searcher queried there.
    static GRID_QUERY: RefCell<GridQueryState> = RefCell::default();
}

impl SearcherScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        SearcherScratch::default()
    }
}

/// A per-timestamp search structure over one snapshot-cluster set.
pub struct TickSearcher<'a> {
    set: &'a SnapshotClusterSet,
    delta: f64,
    /// Clusters with fewer members are never reported.
    min_len: usize,
    index: TickIndex,
}

impl<'a> TickSearcher<'a> {
    /// Builds the searcher for `set` under the chosen `strategy` and
    /// variation threshold `delta`.
    pub fn build(strategy: RangeSearchStrategy, set: &'a SnapshotClusterSet, delta: f64) -> Self {
        Self::build_with(strategy, set, delta, &mut SearcherScratch::new())
    }

    /// Like [`TickSearcher::build`], reusing the caller's scratch buffers.
    pub fn build_with(
        strategy: RangeSearchStrategy,
        set: &'a SnapshotClusterSet,
        delta: f64,
        scratch: &mut SearcherScratch,
    ) -> Self {
        Self::build_qualifying(strategy, set, delta, 0, scratch)
    }

    /// [`TickSearcher::build_with`] over the clusters that can be crowd
    /// members — those with at least `min_len` objects; the others are
    /// neither indexed (SR, IR, JOIN) nor refined.
    pub(crate) fn build_qualifying(
        strategy: RangeSearchStrategy,
        set: &'a SnapshotClusterSet,
        delta: f64,
        min_len: usize,
        scratch: &mut SearcherScratch,
    ) -> Self {
        let qualifying = || (0..set.clusters.len()).filter(|&id| set.clusters[id].len() >= min_len);
        let index = match strategy {
            RangeSearchStrategy::BruteForce => TickIndex::Brute,
            RangeSearchStrategy::RTreeDmin | RangeSearchStrategy::RTreeDside => {
                scratch.entries.clear();
                scratch.entries.extend(qualifying().map(|id| Entry {
                    id,
                    mbr: *set.clusters[id].mbr(),
                }));
                TickIndex::RTree {
                    tree: RTree::bulk_load_slice(&mut scratch.entries),
                    use_dside: strategy == RangeSearchStrategy::RTreeDside,
                }
            }
            RangeSearchStrategy::Grid => {
                let geometry = GridGeometry::for_delta(delta);
                // Columnar views straight out of the tick's shared arena —
                // no per-cluster point copies.
                let point_sets: Vec<PointsView<'_>> =
                    set.clusters.iter().map(|c| c.points()).collect();
                TickIndex::Grid(GridClusterIndex::build(
                    geometry,
                    &point_sets,
                    &mut scratch.grid,
                ))
            }
            RangeSearchStrategy::Join => {
                TickIndex::Join(SortedBounds::build(&set.clusters, qualifying()))
            }
        };
        TickSearcher {
            set,
            delta,
            min_len,
            index,
        }
    }

    /// The timestamp's cluster set this searcher covers.
    pub fn cluster_set(&self) -> &SnapshotClusterSet {
        self.set
    }

    /// Indices (into the cluster set) of all clusters within Hausdorff
    /// distance `δ` of `query`.
    pub fn search(&self, query: &SnapshotCluster) -> Vec<usize> {
        let mut out = Vec::new();
        self.search_into(query, &mut out);
        out
    }

    /// Like [`Self::search`], writing the result into a reusable buffer and
    /// returning the pruning statistics.
    pub fn search_into(&self, query: &SnapshotCluster, out: &mut Vec<usize>) -> SearchStats {
        self.search_from(None, query, out).1
    }

    /// [`Self::search_into`] for the edge phase of the sweep, where `query`
    /// is cluster `idx` of the tick before; also returns how many bounds the
    /// strategy compared with the query's one by one (JOIN's window — the
    /// others report what their pruning handed on).  Under GRID, with
    /// `prev` the searcher of that tick, the query's cells and points are
    /// read straight out of `prev`'s index (the geometry is shared by all
    /// timestamps) instead of being bucketed again.
    pub(crate) fn search_from(
        &self,
        prev: Option<(&TickSearcher<'_>, usize)>,
        query: &SnapshotCluster,
        out: &mut Vec<usize>,
    ) -> (usize, SearchStats) {
        out.clear();
        let clusters = &self.set.clusters;
        let qualifies = |id: usize| clusters[id].len() >= self.min_len;
        let (tested, candidates) = match &self.index {
            TickIndex::Brute => {
                let ids = (0..clusters.len()).filter(|&id| qualifies(id));
                let within = |&id: &usize| query.within_hausdorff(&clusters[id], self.delta);
                out.extend(ids.clone().filter(within));
                let all = ids.count();
                (all, all)
            }
            TickIndex::RTree { tree, use_dside } => {
                let ids = if *use_dside {
                    tree.range_by_side_distance(query.mbr(), self.delta)
                } else {
                    tree.range_by_min_distance(query.mbr(), self.delta)
                };
                let candidates = ids.len();
                out.extend(
                    ids.into_iter()
                        .filter(|&i| query.within_hausdorff(&clusters[i], self.delta)),
                );
                (candidates, candidates)
            }
            TickIndex::Grid(index) => GRID_QUERY.with(|state| {
                let state = &mut *state.borrow_mut();
                let bucketed = match prev {
                    Some((
                        TickSearcher {
                            index: TickIndex::Grid(prev),
                            ..
                        },
                        idx,
                    )) if prev.geometry() == index.geometry() => prev.cluster(idx),
                    // An external query: bucket it (into the thread's
                    // reusable buffers), then prune and refine.
                    _ => index.bucket(query.points(), &mut state.query),
                };
                let candidates = index.search(bucketed, self.delta, &mut state.search, out);
                out.retain(|&id| qualifies(id));
                (candidates, candidates)
            }),
            TickIndex::Join(bounds) => bounds.search(clusters, query, self.delta, |_| true, out),
        };
        let stats = SearchStats {
            candidates,
            results: out.len(),
        };
        (tested, stats)
    }

    /// Like [`Self::search`] but also reports pruning statistics.
    #[cfg(test)]
    fn search_with_stats(&self, query: &SnapshotCluster) -> (Vec<usize>, SearchStats) {
        let mut out = Vec::new();
        let stats = self.search_into(query, &mut out);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_geo::Point;
    use gpdt_trajectory::ObjectId;

    fn blob(time: u32, first_id: u32, cx: f64, cy: f64, n: usize, spread: f64) -> SnapshotCluster {
        let members: Vec<ObjectId> = (0..n as u32).map(|i| ObjectId::new(first_id + i)).collect();
        let points: Vec<Point> = (0..n)
            .map(|i| {
                let angle = i as f64 * 2.39996;
                let r = spread * ((i + 1) as f64 / n as f64).sqrt();
                Point::new(cx + r * angle.cos(), cy + r * angle.sin())
            })
            .collect();
        SnapshotCluster::new(time, members, points)
    }

    fn test_set() -> SnapshotClusterSet {
        SnapshotClusterSet {
            time: 1,
            clusters: vec![
                blob(1, 0, 0.0, 0.0, 8, 40.0),
                blob(1, 100, 150.0, 0.0, 6, 30.0),
                blob(1, 200, 2_000.0, 2_000.0, 10, 50.0),
                blob(1, 300, 60.0, 60.0, 7, 35.0),
            ],
        }
    }

    #[test]
    fn all_strategies_agree_with_bruteforce() {
        let set = test_set();
        let delta = 200.0;
        let query = blob(0, 900, 20.0, 10.0, 9, 45.0);

        let brute = TickSearcher::build(RangeSearchStrategy::BruteForce, &set, delta);
        let expected = brute.search(&query);
        assert!(!expected.is_empty());

        for strategy in RangeSearchStrategy::ALL {
            let searcher = TickSearcher::build(strategy, &set, delta);
            assert_eq!(searcher.search(&query), expected, "strategy {strategy}");
        }
    }

    #[test]
    fn far_query_matches_nothing_under_all_strategies() {
        let set = test_set();
        let delta = 100.0;
        let query = blob(0, 900, -50_000.0, -50_000.0, 5, 20.0);
        for strategy in RangeSearchStrategy::ALL {
            let searcher = TickSearcher::build(strategy, &set, delta);
            assert!(searcher.search(&query).is_empty(), "strategy {strategy}");
        }
    }

    #[test]
    fn pruning_candidates_do_not_exceed_bruteforce_and_cover_results() {
        let set = test_set();
        let delta = 250.0;
        let query = blob(0, 900, 40.0, 20.0, 9, 45.0);
        let brute = TickSearcher::build(RangeSearchStrategy::BruteForce, &set, delta);
        let (expected, brute_stats) = brute.search_with_stats(&query);
        assert_eq!(brute_stats.candidates, set.clusters.len());
        for strategy in RangeSearchStrategy::ALL {
            let searcher = TickSearcher::build(strategy, &set, delta);
            let (results, stats) = searcher.search_with_stats(&query);
            assert_eq!(results, expected);
            assert!(stats.candidates <= brute_stats.candidates);
            assert!(stats.candidates >= stats.results);
            assert_eq!(stats.results, expected.len());
        }
    }

    #[test]
    fn dside_prunes_at_least_as_well_as_dmin() {
        let set = test_set();
        let delta = 150.0;
        let query = blob(0, 900, 10.0, 5.0, 9, 45.0);
        let sr = TickSearcher::build(RangeSearchStrategy::RTreeDmin, &set, delta);
        let ir = TickSearcher::build(RangeSearchStrategy::RTreeDside, &set, delta);
        let (_, sr_stats) = sr.search_with_stats(&query);
        let (_, ir_stats) = ir.search_with_stats(&query);
        assert!(ir_stats.candidates <= sr_stats.candidates);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(RangeSearchStrategy::BruteForce.label(), "BRUTE");
        assert_eq!(RangeSearchStrategy::RTreeDmin.to_string(), "SR");
        assert_eq!(RangeSearchStrategy::RTreeDside.to_string(), "IR");
        assert_eq!(RangeSearchStrategy::Grid.to_string(), "GRID");
        assert_eq!(RangeSearchStrategy::Join.to_string(), "JOIN");
        assert_eq!(RangeSearchStrategy::default(), RangeSearchStrategy::Join);
    }

    #[test]
    fn empty_cluster_set_yields_no_results() {
        let set = SnapshotClusterSet {
            time: 5,
            clusters: vec![],
        };
        let query = blob(4, 0, 0.0, 0.0, 5, 10.0);
        for strategy in RangeSearchStrategy::ALL {
            let searcher = TickSearcher::build(strategy, &set, 100.0);
            assert!(searcher.search(&query).is_empty());
        }
    }
}
