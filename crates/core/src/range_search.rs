//! Range-search strategies for crowd discovery.
//!
//! Algorithm 1 repeatedly asks, for the last cluster of each crowd candidate,
//! which clusters at the *next* timestamp lie within Hausdorff distance `δ`.
//! The paper evaluates three ways of answering this (§III-A); all of them are
//! available here behind [`RangeSearchStrategy`], plus a brute-force baseline:
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
//!
//! A [`TickSearcher`] is built once per timestamp from that timestamp's
//! cluster set and then queried once per crowd candidate.

use std::cell::RefCell;

use gpdt_clustering::{SnapshotCluster, SnapshotClusterSet};
use gpdt_geo::{GridGeometry, PointsView};
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
    /// paper's **GRID**).  The default: all timestamps share one geometry, so
    /// the sweep buckets each cluster once and reuses tick `t − 1`'s buckets
    /// as the queries against tick `t`.  README "Performance" has the
    /// measured per-strategy sweep times.
    #[default]
    Grid,
}

impl RangeSearchStrategy {
    /// All strategies, in the order the paper's figures list them.
    pub const ALL: [RangeSearchStrategy; 4] = [
        RangeSearchStrategy::BruteForce,
        RangeSearchStrategy::RTreeDmin,
        RangeSearchStrategy::RTreeDside,
        RangeSearchStrategy::Grid,
    ];

    /// Short label used in benchmark output (matches the paper's legend).
    pub fn label(&self) -> &'static str {
        match self {
            RangeSearchStrategy::BruteForce => "BRUTE",
            RangeSearchStrategy::RTreeDmin => "SR",
            RangeSearchStrategy::RTreeDside => "IR",
            RangeSearchStrategy::Grid => "GRID",
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

impl gpdt_obs::MetricSource for SearchStats {
    fn metric_prefix(&self) -> &'static str {
        "search"
    }
    fn metric_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("candidates", self.candidates as u64),
            ("results", self.results as u64),
        ]
    }
}

enum TickIndex {
    Brute,
    RTree { tree: RTree, use_dside: bool },
    Grid(GridClusterIndex),
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
        let index = match strategy {
            RangeSearchStrategy::BruteForce => TickIndex::Brute,
            RangeSearchStrategy::RTreeDmin | RangeSearchStrategy::RTreeDside => {
                scratch.entries.clear();
                scratch.entries.extend(
                    set.clusters
                        .iter()
                        .enumerate()
                        .map(|(id, c)| Entry { id, mbr: *c.mbr() }),
                );
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
        };
        TickSearcher { set, delta, index }
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
        out.clear();
        let candidates = match &self.index {
            TickIndex::Brute => {
                out.extend(
                    self.set
                        .clusters
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| query.within_hausdorff(c, self.delta))
                        .map(|(i, _)| i),
                );
                self.set.clusters.len()
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
                        .filter(|&i| query.within_hausdorff(&self.set.clusters[i], self.delta)),
                );
                candidates
            }
            // An external query: bucket it (into the thread's reusable
            // buffers), then prune and refine.
            TickIndex::Grid(index) => GRID_QUERY.with(|state| {
                let state = &mut *state.borrow_mut();
                let bucketed = index.bucket(query.points(), &mut state.query);
                index.search(bucketed, self.delta, &mut state.search, out)
            }),
        };
        SearchStats {
            candidates,
            results: out.len(),
        }
    }

    /// [`Self::search_into`] for cluster `idx` of the set `prev` covers — the
    /// sweep's query, the last cluster of a candidate ending one tick
    /// earlier.  Under GRID the query's cells and points are read straight
    /// out of `prev`'s index (the geometry is shared by all timestamps)
    /// instead of being bucketed again.
    pub(crate) fn search_from(
        &self,
        prev: &TickSearcher<'_>,
        idx: usize,
        out: &mut Vec<usize>,
    ) -> SearchStats {
        if let (TickIndex::Grid(index), TickIndex::Grid(prev_index)) = (&self.index, &prev.index) {
            if index.geometry() == prev_index.geometry() {
                let candidates = GRID_QUERY.with(|state| {
                    let search = &mut state.borrow_mut().search;
                    index.search(prev_index.cluster(idx), self.delta, search, out)
                });
                return SearchStats {
                    candidates,
                    results: out.len(),
                };
            }
        }
        self.search_into(&prev.set.clusters[idx], out)
    }

    /// Like [`Self::search`] but also reports pruning statistics.
    pub fn search_with_stats(&self, query: &SnapshotCluster) -> (Vec<usize>, SearchStats) {
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

        for strategy in [
            RangeSearchStrategy::RTreeDmin,
            RangeSearchStrategy::RTreeDside,
            RangeSearchStrategy::Grid,
        ] {
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
        for strategy in [
            RangeSearchStrategy::RTreeDmin,
            RangeSearchStrategy::RTreeDside,
            RangeSearchStrategy::Grid,
        ] {
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
        assert_eq!(RangeSearchStrategy::default(), RangeSearchStrategy::Grid);
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
