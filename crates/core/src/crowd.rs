//! Crowds and closed-crowd discovery (Algorithm 1 of the paper).

use gpdt_clustering::{ClusterDatabase, ClusterId};
use gpdt_trajectory::{TimeInterval, Timestamp};

use crate::par::{default_threads, fan_out_threads, par_map_with};
use crate::params::CrowdParams;
use crate::range_search::{RangeSearchStrategy, SearcherScratch, TickSearcher};

/// A crowd (Definition 2): a sequence of snapshot clusters at consecutive
/// timestamps whose consecutive Hausdorff distances stay below `δ`, each with
/// at least `mc` members, lasting at least `kc` ticks.
///
/// A `Crowd` value references its clusters by [`ClusterId`]; the cluster
/// contents live in the [`ClusterDatabase`].  The same type is also used for
/// *crowd candidates* (sequences that satisfy the distance and support
/// constraints but are still shorter than `kc`) inside the discovery sweep
/// and the incremental frontier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Crowd {
    clusters: Vec<ClusterId>,
}

impl Crowd {
    /// Creates a crowd from cluster references at consecutive timestamps.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or the timestamps are not consecutive.
    pub fn new(clusters: Vec<ClusterId>) -> Self {
        Self::try_new(clusters).unwrap_or_else(|why| panic!("{why}"))
    }

    /// Creates a crowd from cluster references, refusing a sequence that is
    /// empty or whose timestamps are not consecutive (each one tick after
    /// the last, with no wrap past `u32::MAX`).  [`Crowd::new`] and decoding
    /// build through this rule, and the other constructors keep it, so a
    /// `Crowd` value never breaks it.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated rule.
    pub fn try_new(clusters: Vec<ClusterId>) -> Result<Self, &'static str> {
        if clusters.is_empty() {
            return Err("a crowd needs at least one cluster");
        }
        if clusters
            .windows(2)
            .any(|w| w[0].time.checked_add(1) != Some(w[1].time))
        {
            return Err("crowd clusters must be at consecutive timestamps");
        }
        Ok(Crowd { clusters })
    }

    /// A single-cluster sequence (the seed of a crowd candidate).
    pub fn single(id: ClusterId) -> Self {
        Crowd { clusters: vec![id] }
    }

    /// The referenced clusters, in time order.
    pub fn cluster_ids(&self) -> &[ClusterId] {
        &self.clusters
    }

    /// The number of clusters, i.e. the lifetime `Cr.τ`.
    pub fn lifetime(&self) -> u32 {
        self.clusters.len() as u32
    }

    /// Number of clusters (same as [`Self::lifetime`], usize-typed).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Always `false`: crowds are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First timestamp.
    pub fn start_time(&self) -> Timestamp {
        self.clusters[0].time
    }

    /// Last timestamp.
    pub fn end_time(&self) -> Timestamp {
        self.clusters[self.clusters.len() - 1].time
    }

    /// The covered time interval.
    pub fn interval(&self) -> TimeInterval {
        TimeInterval::new(self.start_time(), self.end_time())
    }

    /// The last cluster reference.
    pub fn last(&self) -> ClusterId {
        self.clusters[self.clusters.len() - 1]
    }

    /// The crowd extended by one more cluster at the next timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `next.time` is not exactly one tick after the current end.
    pub fn extended(&self, next: ClusterId) -> Crowd {
        self.clone().into_extended(next)
    }

    /// Consumes the crowd and extends it by one more cluster, reusing its
    /// id-sequence allocation (the discovery sweep's common single-extension
    /// case never copies the sequence).
    ///
    /// # Panics
    ///
    /// Panics if `next.time` is not exactly one tick after the current end.
    pub fn into_extended(mut self, next: ClusterId) -> Crowd {
        assert!(
            self.end_time().checked_add(1) == Some(next.time),
            "extension cluster must be at the next timestamp"
        );
        self.clusters.push(next);
        self
    }

    /// The contiguous sub-crowd covering positions `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn sub_crowd(&self, start: usize, end: usize) -> Crowd {
        assert!(
            start < end && end <= self.clusters.len(),
            "invalid sub-crowd range"
        );
        Crowd {
            clusters: self.clusters[start..end].to_vec(),
        }
    }

    /// Returns `true` if `self` appears in `other` as a contiguous window.
    ///
    /// Cluster ids carry their timestamp, so the window can only sit where
    /// the start times put it: one slice comparison, no sliding.
    pub fn is_window_of(&self, other: &Crowd) -> bool {
        let Some(offset) = self.start_time().checked_sub(other.start_time()) else {
            return false;
        };
        let offset = offset as usize;
        other.clusters.get(offset..offset + self.len()) == Some(self.clusters.as_slice())
    }

    /// Returns `true` if the sequence satisfies all crowd requirements of
    /// Definition 2 against the given cluster database.
    ///
    /// Used by tests and by property checks; the discovery sweep maintains
    /// the invariants incrementally and does not need to call this.
    pub fn is_valid_crowd(&self, cdb: &ClusterDatabase, params: &CrowdParams) -> bool {
        if self.lifetime() < params.kc {
            return false;
        }
        for id in &self.clusters {
            match cdb.cluster(*id) {
                Some(c) if c.len() >= params.mc => {}
                _ => return false,
            }
        }
        for w in self.clusters.windows(2) {
            let (Some(a), Some(b)) = (cdb.cluster(w[0]), cdb.cluster(w[1])) else {
                return false;
            };
            if !a.within_hausdorff(b, params.delta) {
                return false;
            }
        }
        true
    }
}

/// Result of a closed-crowd discovery sweep.
#[derive(Debug, Clone, Default)]
pub struct CrowdDiscoveryResult {
    /// All closed crowds found (lifetime ≥ `kc`, not extensible).
    pub closed_crowds: Vec<Crowd>,
    /// All cluster sequences that end at the final timestamp of the swept
    /// interval — closed crowds and still-too-short candidates alike.  This
    /// is the set `CS` the incremental algorithm (§III-C.1) resumes from.
    pub frontier: Vec<Crowd>,
}

/// The δ-edges leading into one tick, tail by tail, and what finding them
/// cost.
#[derive(Default)]
struct PairEdges {
    /// `heads[offsets[g]..offsets[g + 1]]` are the clusters of the tick, by
    /// ascending index, that have `mc` members and lie within `δ` of cluster
    /// `g` of the tick before.
    offsets: Vec<u32>,
    heads: Vec<u32>,
    /// Range searches issued, bounds they compared, exact Hausdorff checks.
    work: [u64; 3],
}

impl PairEdges {
    fn heads_of(&self, tail: usize) -> &[u32] {
        &self.heads[self.offsets[tail] as usize..self.offsets[tail + 1] as usize]
    }
}

/// What an edge-phase worker keeps from one tick pair to the next: reusable
/// buffers, and the searcher it built last — its heads are the next pair's
/// tails, which GRID queries by their buckets.
type EdgeWorker<'a> = (SearcherScratch, Option<TickSearcher<'a>>, Vec<usize>);

/// Closed-crowd discovery (Algorithm 1), parameterised by the range-search
/// strategy.
///
/// Which clusters at `t` are within `δ` of a cluster at `t − 1` depends on
/// the two cluster sets only, never on the candidates, so the run has two
/// phases.  The **edge phase** finds each tick pair's edges once — only
/// clusters with `mc` members are indexed or queried, one query per tail
/// however many candidates end there — in parallel across pairs.  The
/// **sweep phase**, inherently sequential (candidates at tick `t` depend on
/// the candidates at `t − 1`), extends, seeds and closes candidates along
/// those edges without a range search of its own.
#[derive(Debug, Clone, Copy)]
pub struct CrowdDiscovery {
    params: CrowdParams,
    strategy: RangeSearchStrategy,
    threads: usize,
}

impl CrowdDiscovery {
    /// Creates a discovery sweep with the given parameters and range-search
    /// strategy, using all available cores for the edge phase (the count is
    /// resolved once per process, so a sweep is free to build).
    pub fn new(params: CrowdParams, strategy: RangeSearchStrategy) -> Self {
        CrowdDiscovery {
            params,
            strategy,
            threads: default_threads(),
        }
    }

    /// Overrides the number of worker threads of the edge phase (clamped to
    /// at least 1; results do not depend on the thread count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The crowd parameters.
    pub fn params(&self) -> &CrowdParams {
        &self.params
    }

    /// Runs the sweep over the whole cluster database.
    pub fn run(&self, cdb: &ClusterDatabase) -> CrowdDiscoveryResult {
        let Some(domain) = cdb.time_domain() else {
            return CrowdDiscoveryResult::default();
        };
        self.run_resumed(cdb, domain.start, Vec::new())
    }

    /// Resumes the sweep at `start_time` with an initial candidate set
    /// (the incremental crowd-extension entry point, §III-C.1).
    ///
    /// `seed` must contain only sequences ending at `start_time - 1`; the
    /// sweep processes timestamps `start_time ..= cdb.end` and reports closed
    /// crowds discovered from the seed onwards (seeds that cannot be extended
    /// are emitted as closed if they are long enough).
    pub fn run_resumed(
        &self,
        cdb: &ClusterDatabase,
        start_time: Timestamp,
        seed: Vec<Crowd>,
    ) -> CrowdDiscoveryResult {
        self.run_resumed_observed(cdb, start_time, seed, None)
    }

    /// The edges from tick `t − 1` into tick `t`.  The tails are the
    /// clusters of `t − 1` with `mc` members — each is the last cluster of a
    /// candidate: it extended one or seeded one — or, where `t` is the first
    /// tick of a resumed run, the last clusters of its seeds, `seed_tails`.
    fn pair_edges<'a>(
        &self,
        cdb: &'a ClusterDatabase,
        t: Timestamp,
        seed_tails: Option<&[usize]>,
        (scratch, carried, near): &mut EdgeWorker<'a>,
    ) -> PairEdges {
        let previous = carried.take();
        if seed_tails.is_some_and(<[usize]>::is_empty) {
            // Nothing ends before the first tick of a fresh run.
            return PairEdges::default();
        }
        let heads = cdb
            .set_at(t)
            .expect("contiguous cluster database covers every tick of its domain");
        let tails = cdb
            .set_at(t - 1)
            .expect("candidate clusters exist in the database");
        let (mc, delta) = (self.params.mc, self.params.delta);
        let searcher = TickSearcher::build_qualifying(self.strategy, heads, delta, mc, scratch);
        let previous = previous.filter(|p| p.cluster_set().time == tails.time);
        let mut edges = PairEdges::default();
        edges.offsets.reserve(tails.len() + 1);
        edges.offsets.push(0);
        for (g, tail) in tails.clusters.iter().enumerate() {
            let queried = match seed_tails {
                Some(seeds) => seeds.binary_search(&g).is_ok(),
                None => tail.len() >= mc,
            };
            if queried {
                let prev = previous.as_ref().map(|p| (p, g));
                let (tested, stats) = searcher.search_from(prev, tail, near);
                edges.heads.extend(near.iter().map(|&h| h as u32));
                for (sum, n) in edges.work.iter_mut().zip([1, tested, stats.candidates]) {
                    *sum += n as u64;
                }
            }
            edges.offsets.push(edges.heads.len() as u32);
        }
        *carried = Some(searcher);
        edges
    }

    /// Like [`CrowdDiscovery::run_resumed`], additionally invoking `observer`
    /// after every processed tick `t` with the complete candidate set ending
    /// at `t` (the paper's per-tick `V`).
    ///
    /// This is the per-tick hook a cross-shard merger needs: a sharded
    /// deployment runs one sweep per partition and must later splice crowd
    /// prefixes that reach a partition boundary onto extensions discovered in
    /// a neighbouring partition, which requires the candidate sequences *as
    /// they were* at the boundary tick — state the batch-level result no
    /// longer contains.  The observer is a pure tap: it cannot alter the
    /// sweep and the result is identical to the unobserved run.
    pub fn run_resumed_observed(
        &self,
        cdb: &ClusterDatabase,
        start_time: Timestamp,
        seed: Vec<Crowd>,
        mut observer: Option<&mut dyn FnMut(Timestamp, &[Crowd])>,
    ) -> CrowdDiscoveryResult {
        let Some(domain) = cdb.time_domain() else {
            return CrowdDiscoveryResult {
                closed_crowds: Vec::new(),
                frontier: seed,
            };
        };
        debug_assert!(
            seed.iter().all(|c| c.end_time() + 1 == start_time),
            "seed sequences must end right before the resume point"
        );
        let ticks: Vec<Timestamp> = (start_time.max(domain.start)..=domain.end).collect();

        // Edge phase: one list per tick, each independent of the others and
        // of the sweep state.  A worker keeps its buffers (and the previous
        // pair's searcher) for its whole chunk of consecutive ticks.
        let mut seed_tails: Vec<usize> = seed.iter().map(|c| c.last().index).collect();
        seed_tails.sort_unstable();
        seed_tails.dedup();
        let clusters: usize = ticks
            .iter()
            .filter_map(|&t| cdb.set_at(t))
            .map(|s| s.len())
            .sum();
        let threads = fan_out_threads(clusters, self.threads);
        let edges: Vec<PairEdges> =
            par_map_with(&ticks, threads, EdgeWorker::default, |worker, &t| {
                let seed_tails = (t == ticks[0]).then_some(seed_tails.as_slice());
                self.pair_edges(cdb, t, seed_tails, worker)
            });
        if gpdt_obs::enabled() {
            let sum = |k: usize| edges.iter().map(|e| e.work[k]).sum::<u64>();
            gpdt_obs::counter!("engine.edges.queries").add(sum(0));
            gpdt_obs::counter!("engine.edges.bounds_tested").add(sum(1));
            gpdt_obs::counter!("engine.edges.hausdorff_tests").add(sum(2));
            gpdt_obs::counter!("engine.edges.found")
                .add(edges.iter().map(|e| e.heads.len() as u64).sum());
        }

        // Sweep phase.  V: the current crowd candidates, all ending at the
        // previously processed timestamp.
        let mut closed: Vec<Crowd> = Vec::new();
        let mut candidates: Vec<Crowd> = seed;
        let mut next_candidates: Vec<Crowd> = Vec::new();
        let mut absorbed: Vec<bool> = Vec::new();
        for (&t, edges) in ticks.iter().zip(&edges) {
            let set = cdb
                .set_at(t)
                .expect("contiguous cluster database covers every tick of its domain");
            // Indices of clusters at `t` that extended at least one
            // candidate; they must not seed new candidates (they are already
            // covered by a longer sequence).
            absorbed.clear();
            absorbed.resize(set.clusters.len(), false);

            for candidate in candidates.drain(..) {
                let heads = edges.heads_of(candidate.last().index);
                for &idx in heads {
                    absorbed[idx as usize] = true;
                }
                match heads.split_last() {
                    None => {
                        if candidate.lifetime() >= self.params.kc {
                            // Lemma 1: a crowd that cannot be extended by any
                            // qualifying cluster at the next timestamp is
                            // closed.
                            closed.push(candidate);
                        }
                    }
                    Some((&last_idx, rest)) => {
                        for &idx in rest {
                            next_candidates
                                .push(candidate.extended(ClusterId::new(t, idx as usize)));
                        }
                        // The final extension consumes the candidate, reusing
                        // its id-sequence allocation.
                        next_candidates
                            .push(candidate.into_extended(ClusterId::new(t, last_idx as usize)));
                    }
                }
            }

            // Clusters that extended nothing become fresh single-cluster
            // candidates (provided they meet the support threshold).
            for (idx, cluster) in set.clusters.iter().enumerate() {
                if !absorbed[idx] && cluster.len() >= self.params.mc {
                    next_candidates.push(Crowd::single(ClusterId::new(t, idx)));
                }
            }
            std::mem::swap(&mut candidates, &mut next_candidates);
            if let Some(observer) = observer.as_deref_mut() {
                observer(t, &candidates);
            }
        }

        // End of the time domain: candidates long enough are closed crowds
        // (they cannot be extended within this database).  All remaining
        // candidates form the frontier for a future incremental extension.
        for candidate in &candidates {
            if candidate.lifetime() >= self.params.kc {
                closed.push(candidate.clone());
            }
        }
        CrowdDiscoveryResult {
            closed_crowds: closed,
            frontier: candidates,
        }
    }
}

/// Convenience wrapper: discovers all closed crowds of a cluster database.
pub fn discover_closed_crowds(
    cdb: &ClusterDatabase,
    params: &CrowdParams,
    strategy: RangeSearchStrategy,
) -> Vec<Crowd> {
    CrowdDiscovery::new(*params, strategy)
        .run(cdb)
        .closed_crowds
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_clustering::{SnapshotCluster, SnapshotClusterSet};
    use gpdt_geo::Point;
    use gpdt_trajectory::ObjectId;

    /// Builds a cluster whose points are a tight blob at (cx, cy).
    fn blob(time: u32, ids: &[u32], cx: f64, cy: f64) -> SnapshotCluster {
        let members: Vec<ObjectId> = ids.iter().map(|&i| ObjectId::new(i)).collect();
        let points: Vec<Point> = ids
            .iter()
            .enumerate()
            .map(|(k, _)| Point::new(cx + k as f64, cy))
            .collect();
        SnapshotCluster::new(time, members, points)
    }

    fn params(mc: usize, kc: u32, delta: f64) -> CrowdParams {
        CrowdParams::new(mc, kc, delta)
    }

    #[test]
    fn try_new_refuses_what_new_panics_on() {
        let ids = |ticks: &[u32]| ticks.iter().map(|&t| ClusterId::new(t, 0)).collect();
        assert!(Crowd::try_new(ids(&[7, 8, 9])).is_ok());
        assert!(Crowd::try_new(ids(&[u32::MAX])).is_ok());
        for refused in [&[][..], &[3, 5], &[4, 4], &[5, 4], &[u32::MAX, 0]] {
            assert!(Crowd::try_new(ids(refused)).is_err(), "{refused:?}");
            let panicked = std::panic::catch_unwind(|| Crowd::new(ids(refused)));
            assert!(panicked.is_err(), "{refused:?}");
        }
        // Extension keeps the rule at the end of time too.
        let last = Crowd::single(ClusterId::new(u32::MAX, 0));
        let wrapped = std::panic::catch_unwind(|| last.extended(ClusterId::new(0, 0)));
        assert!(wrapped.is_err());
    }

    #[test]
    fn crowd_accessors() {
        let crowd = Crowd::new(vec![
            ClusterId::new(3, 0),
            ClusterId::new(4, 1),
            ClusterId::new(5, 0),
        ]);
        assert_eq!(crowd.lifetime(), 3);
        assert_eq!(crowd.len(), 3);
        assert!(!crowd.is_empty());
        assert_eq!(crowd.start_time(), 3);
        assert_eq!(crowd.end_time(), 5);
        assert_eq!(crowd.interval(), TimeInterval::new(3, 5));
        assert_eq!(crowd.last(), ClusterId::new(5, 0));
        let extended = crowd.extended(ClusterId::new(6, 2));
        assert_eq!(extended.lifetime(), 4);
        let sub = extended.sub_crowd(1, 3);
        assert_eq!(sub.start_time(), 4);
        assert_eq!(sub.end_time(), 5);
        assert!(sub.is_window_of(&extended));
        assert!(!extended.is_window_of(&sub));
    }

    #[test]
    fn is_window_of_aligns_by_time() {
        let ids = |start: u32, indices: &[usize]| -> Crowd {
            Crowd::new(
                indices
                    .iter()
                    .enumerate()
                    .map(|(k, &index)| ClusterId::new(start + k as u32, index))
                    .collect(),
            )
        };
        let whole = ids(10, &[0, 1, 2, 1, 0]);
        assert!(whole.is_window_of(&whole));
        assert!(ids(10, &[0, 1]).is_window_of(&whole), "prefix");
        assert!(ids(13, &[1, 0]).is_window_of(&whole), "suffix");
        assert!(ids(11, &[1, 2, 1]).is_window_of(&whole), "inside");
        // Right ticks, another cluster; right clusters, other ticks.
        assert!(!ids(11, &[1, 2, 2]).is_window_of(&whole));
        assert!(!ids(12, &[1, 2, 1]).is_window_of(&whole));
        // Starting before, ending after, or altogether elsewhere.
        assert!(!ids(9, &[0, 0, 1]).is_window_of(&whole));
        assert!(!ids(13, &[1, 0, 0]).is_window_of(&whole));
        assert!(!ids(15, &[0]).is_window_of(&whole));
        assert!(!ids(0, &[0]).is_window_of(&whole));
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn crowd_rejects_time_gaps() {
        let _ = Crowd::new(vec![ClusterId::new(0, 0), ClusterId::new(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "next timestamp")]
    fn extension_must_advance_time_by_one() {
        let crowd = Crowd::single(ClusterId::new(5, 0));
        let _ = crowd.extended(ClusterId::new(7, 0));
    }

    /// The running example of the paper's Figure 2: eight timestamps, cluster
    /// rows laid out so that clusters in the same or adjacent "rows" are
    /// within δ of each other.  With `kc = 4` the discovery must find exactly
    /// the three closed crowds listed in Figure 2b (at t9 in the paper; here
    /// the archive simply ends at t8).
    fn figure2_database() -> (ClusterDatabase, Vec<Vec<u32>>) {
        // Rows are y-positions separated by 100; δ = 150 makes same-row and
        // adjacent-row clusters "close" while skipping a row is too far.
        // Each cluster holds 3 objects so mc = 3 keeps every cluster eligible.
        //
        // Layout (timestamps 1..=8), matching the paper's Figure 2a:
        //   row 0: c1_1 c1_2 c1_3 c1_4 c1_5 c1_6          (t1..t6)
        //   row 1:                c2_5                      (t5)  [adjacent to row 0]
        //   row 2:           c2_2 c2_3                      (t2..t3)  -- adjacent to row 1? no: rows 1 and 2 adjacent
        //   row 3:                c3_5 c3_6? ...
        // To keep the example faithful we place clusters on rows such that the
        // paper's adjacency table holds; see the assertions below.
        let mut sets = Vec::new();
        let ids = |base: u32| -> Vec<u32> { vec![base, base + 1, base + 2] };
        let row_y = |row: u32| row as f64 * 100.0;

        // Per timestamp: list of (row, unique id base), where |row difference|
        // <= 1 <=> the clusters are within δ.  The rows reproduce the paper's
        // Figure 2a:
        //   row 1:                     c1^6
        //   row 2:           c1^3 c1^4 c1^5
        //   row 3: c1^1 c1^2           c2^5
        //   row 4:      c2^2 c2^3      c3^5
        //   row 5:                     c2^6 c1^7 c1^8
        //   row 6:                     c3^6
        let layout: Vec<Vec<(u32, u32)>> = vec![
            vec![(3, 10)],                   // t1: c1^1
            vec![(3, 20), (4, 23)],          // t2: c1^2, c2^2
            vec![(2, 30), (4, 33)],          // t3: c1^3, c2^3
            vec![(2, 40)],                   // t4: c1^4
            vec![(2, 50), (3, 53), (4, 56)], // t5: c1^5, c2^5, c3^5
            vec![(1, 60), (5, 63), (6, 66)], // t6: c1^6, c2^6, c3^6
            vec![(5, 70)],                   // t7: c1^7
            vec![(5, 80)],                   // t8: c1^8
        ];
        for (i, clusters) in layout.iter().enumerate() {
            let t = (i + 1) as u32;
            let set = SnapshotClusterSet {
                time: t,
                clusters: clusters
                    .iter()
                    .map(|&(row, base)| blob(t, &ids(base), 0.0, row_y(row)))
                    .collect(),
            };
            sets.push(set);
        }
        let member_bases: Vec<Vec<u32>> = layout
            .iter()
            .map(|cs| cs.iter().map(|&(_, b)| b).collect())
            .collect();
        (ClusterDatabase::from_sets(sets), member_bases)
    }

    #[test]
    fn figure2_example_finds_expected_closed_crowds() {
        let (cdb, _) = figure2_database();
        let p = params(3, 4, 150.0);
        for strategy in RangeSearchStrategy::ALL {
            let result = CrowdDiscovery::new(p, strategy).run(&cdb);
            let mut found: Vec<Vec<(u32, usize)>> = result
                .closed_crowds
                .iter()
                .map(|c| {
                    c.cluster_ids()
                        .iter()
                        .map(|id| (id.time, id.index))
                        .collect()
                })
                .collect();
            found.sort();
            // Expected (in (time, index-within-tick) notation):
            //  - <c1^1..c1^4, c2^5>           = (1,0)(2,0)(3,0)(4,0)(5,1)
            //  - <c1^1..c1^6> through row 2/1 = (1,0)(2,0)(3,0)(4,0)(5,0)(6,0)
            //  - <c3^5, c2^6, c1^7, c1^8>     = (5,2)(6,1)(7,0)(8,0)
            let mut expected = vec![
                vec![(1, 0), (2, 0), (3, 0), (4, 0), (5, 1)],
                vec![(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)],
                vec![(5, 2), (6, 1), (7, 0), (8, 0)],
            ];
            expected.sort();
            assert_eq!(found, expected, "strategy {strategy}");

            // Frontier (Figure 4's CS): the sequences ending at t8.
            let mut frontier: Vec<Vec<(u32, usize)>> = result
                .frontier
                .iter()
                .map(|c| {
                    c.cluster_ids()
                        .iter()
                        .map(|id| (id.time, id.index))
                        .collect()
                })
                .collect();
            frontier.sort();
            let mut expected_frontier = vec![
                vec![(5, 2), (6, 1), (7, 0), (8, 0)],
                vec![(6, 2), (7, 0), (8, 0)],
            ];
            expected_frontier.sort();
            assert_eq!(frontier, expected_frontier, "strategy {strategy}");
        }
    }

    #[test]
    fn all_closed_crowds_are_valid_and_closed() {
        let (cdb, _) = figure2_database();
        let p = params(3, 4, 150.0);
        let result = CrowdDiscovery::new(p, RangeSearchStrategy::Grid).run(&cdb);
        assert!(!result.closed_crowds.is_empty());
        for crowd in &result.closed_crowds {
            assert!(crowd.is_valid_crowd(&cdb, &p));
            // No other closed crowd strictly contains this one as a window.
            for other in &result.closed_crowds {
                if other == crowd {
                    continue;
                }
                assert!(
                    !(crowd.is_window_of(other) && other.len() > crowd.len()),
                    "crowd is contained in a longer closed crowd"
                );
            }
        }
    }

    #[test]
    fn support_threshold_filters_small_clusters() {
        // Three objects per cluster; mc = 4 means no crowd at all.
        let (cdb, _) = figure2_database();
        let p = params(4, 4, 150.0);
        let result = CrowdDiscovery::new(p, RangeSearchStrategy::Grid).run(&cdb);
        assert!(result.closed_crowds.is_empty());
        assert!(result.frontier.is_empty());
    }

    #[test]
    fn lifetime_threshold_filters_short_sequences() {
        let (cdb, _) = figure2_database();
        // kc = 7: the longest chain has 6 clusters, so nothing qualifies.
        let p = params(3, 7, 150.0);
        let result = CrowdDiscovery::new(p, RangeSearchStrategy::Grid).run(&cdb);
        assert!(result.closed_crowds.is_empty());
        // The frontier still tracks the sequences ending at t8.
        assert_eq!(result.frontier.len(), 2);
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let cdb = ClusterDatabase::new();
        let p = params(3, 3, 100.0);
        let result = CrowdDiscovery::new(p, RangeSearchStrategy::Grid).run(&cdb);
        assert!(result.closed_crowds.is_empty());
        assert!(result.frontier.is_empty());
    }

    #[test]
    fn stationary_blob_yields_single_closed_crowd() {
        // One stable blob over 10 ticks: exactly one closed crowd covering
        // the whole interval, which is also the only frontier entry.
        let sets: Vec<SnapshotClusterSet> = (0..10u32)
            .map(|t| SnapshotClusterSet {
                time: t,
                clusters: vec![blob(t, &[1, 2, 3, 4], 50.0, 50.0)],
            })
            .collect();
        let cdb = ClusterDatabase::from_sets(sets);
        let p = params(3, 5, 100.0);
        let result = CrowdDiscovery::new(p, RangeSearchStrategy::Grid).run(&cdb);
        assert_eq!(result.closed_crowds.len(), 1);
        assert_eq!(result.closed_crowds[0].lifetime(), 10);
        assert_eq!(result.frontier.len(), 1);
        assert_eq!(result.frontier[0], result.closed_crowds[0]);
    }

    #[test]
    fn moving_blob_breaks_when_jump_exceeds_delta() {
        // The blob teleports at t=5 by more than δ: two separate closed
        // crowds.
        let sets: Vec<SnapshotClusterSet> = (0..10u32)
            .map(|t| {
                let cx = if t < 5 { 0.0 } else { 10_000.0 };
                SnapshotClusterSet {
                    time: t,
                    clusters: vec![blob(t, &[1, 2, 3], cx, 0.0)],
                }
            })
            .collect();
        let cdb = ClusterDatabase::from_sets(sets);
        let p = params(3, 4, 200.0);
        let result = CrowdDiscovery::new(p, RangeSearchStrategy::Grid).run(&cdb);
        assert_eq!(result.closed_crowds.len(), 2);
        let mut lifetimes: Vec<u32> = result.closed_crowds.iter().map(Crowd::lifetime).collect();
        lifetimes.sort_unstable();
        assert_eq!(lifetimes, vec![5, 5]);
    }

    #[test]
    fn observer_sees_every_tick_candidate_set_without_changing_results() {
        let (cdb, _) = figure2_database();
        let p = params(3, 4, 150.0);
        let discovery = CrowdDiscovery::new(p, RangeSearchStrategy::Grid);
        let unobserved = discovery.run(&cdb);

        let mut per_tick: Vec<(Timestamp, Vec<Crowd>)> = Vec::new();
        let mut observer = |t: Timestamp, candidates: &[Crowd]| {
            per_tick.push((t, candidates.to_vec()));
        };
        let observed = discovery.run_resumed_observed(&cdb, 1, Vec::new(), Some(&mut observer));
        assert_eq!(observed.closed_crowds, unobserved.closed_crowds);
        assert_eq!(observed.frontier, unobserved.frontier);

        // One callback per tick of the domain, in time order, every candidate
        // ending exactly at the callback's tick; the last callback carries the
        // frontier.
        assert_eq!(
            per_tick.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
        for (t, candidates) in &per_tick {
            assert!(candidates.iter().all(|c| c.end_time() == *t));
        }
        assert_eq!(per_tick.last().unwrap().1, observed.frontier);
    }

    #[test]
    fn discover_helper_returns_closed_crowds_only() {
        let (cdb, _) = figure2_database();
        let p = params(3, 4, 150.0);
        let crowds = discover_closed_crowds(&cdb, &p, RangeSearchStrategy::BruteForce);
        assert_eq!(crowds.len(), 3);
    }
}
