//! Snapshot clusters and the snapshot-cluster database `CDB`.
//!
//! Storage is columnar: all clusters of one timestamp share a single
//! structure-of-arrays arena (one `ObjectId` column plus parallel `xs`/`ys`
//! coordinate columns behind `Arc`s) and each [`SnapshotCluster`] holds a
//! `(start, end)` range into it.  Cloning a cluster — or partitioning a
//! tick's clusters across shards — bumps two reference counts instead of
//! copying point data, and the per-tick kernels (Hausdorff tests, index
//! builds) stream dense coordinate columns.

use std::sync::Arc;

use gpdt_geo::{hausdorff_within, Mbr, Point, PointColumns, PointsView};
use gpdt_trajectory::{ObjectId, TimeInterval, Timestamp, TrajectoryDatabase};

use crate::dbscan::{dbscan_with, DbscanScratch};
use crate::params::ClusteringParams;

/// A snapshot cluster (Definition 1): a maximal group of objects whose
/// positions at one timestamp are density-connected.
///
/// The member ids and coordinates live in an `Arc`-shared per-tick arena;
/// the cluster itself is a range into it plus the cached MBR/centroid, so
/// `clone()` is cheap and clusters of one tick stay cache-adjacent.
#[derive(Debug, Clone)]
pub struct SnapshotCluster {
    time: Timestamp,
    /// Shared member-id arena of the tick (sorted within each cluster range).
    ids: Arc<[ObjectId]>,
    /// Shared coordinate arena of the tick, parallel to `ids`.
    cols: Arc<PointColumns>,
    /// This cluster's range within the arenas.
    start: u32,
    end: u32,
    mbr: Mbr,
    centroid: Point,
}

impl SnapshotCluster {
    /// Creates a cluster from parallel member/point lists.
    ///
    /// Builds a private single-cluster arena; clusters that should share one
    /// arena per tick are built through [`SnapshotClusterSetBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if the lists are empty or have different lengths.
    pub fn new(time: Timestamp, members: Vec<ObjectId>, points: Vec<Point>) -> Self {
        assert!(!members.is_empty(), "a snapshot cluster cannot be empty");
        assert_eq!(
            members.len(),
            points.len(),
            "members and points must be parallel"
        );
        let mut builder = SnapshotClusterSetBuilder::new(time);
        for (&id, p) in members.iter().zip(&points) {
            builder.push_member(id, p.x, p.y);
        }
        builder.end_cluster();
        builder.finish().clusters.pop().expect("one cluster")
    }

    /// The timestamp of the cluster.
    pub fn time(&self) -> Timestamp {
        self.time
    }

    /// Member object ids, sorted.
    pub fn members(&self) -> &[ObjectId] {
        &self.ids[self.start as usize..self.end as usize]
    }

    /// Member positions, parallel to [`Self::members`], as a columnar view.
    pub fn points(&self) -> PointsView<'_> {
        self.cols.slice(self.start as usize..self.end as usize)
    }

    /// Number of member objects (`|c_t|`, compared against the crowd support
    /// threshold `mc`).
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Always `false`: clusters are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The minimum bounding rectangle of the member positions.
    pub fn mbr(&self) -> &Mbr {
        &self.mbr
    }

    /// Centroid of the member positions (cached at construction).
    pub fn centroid(&self) -> Point {
        self.centroid
    }

    /// Returns `true` if the object is a member.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.members().binary_search(&id).is_ok()
    }

    /// Threshold test `dH(self, other) ≤ delta` with early exit.
    ///
    /// The cached MBRs give a free lower bound first (Lemma 2:
    /// `dmin(MBR) ≤ dH`), so far-apart clusters are rejected without touching
    /// any point.
    pub fn within_hausdorff(&self, other: &SnapshotCluster, delta: f64) -> bool {
        if self.mbr.min_distance(other.mbr()) > delta {
            return false;
        }
        hausdorff_within(self.points(), other.points(), delta)
    }
}

impl PartialEq for SnapshotCluster {
    /// Logical equality: same timestamp, members and coordinates.  Two
    /// clusters compare equal regardless of which arena holds their data or
    /// where their ranges start.
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.members() == other.members()
            && self.points().xs() == other.points().xs()
            && self.points().ys() == other.points().ys()
    }
}

/// Incrementally builds one tick's [`SnapshotClusterSet`] with all clusters
/// sharing a single column arena.
///
/// Feed clusters member by member ([`Self::push_member`]) and seal each with
/// [`Self::end_cluster`]; members go straight into the arena columns and a
/// cluster is re-ordered only if it was not fed in object-id order.
/// `finish()` freezes the arenas behind `Arc`s and computes each cluster's
/// cached MBR and centroid from its column range.
#[derive(Debug)]
pub struct SnapshotClusterSetBuilder {
    time: Timestamp,
    ids: Vec<ObjectId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ranges: Vec<(u32, u32)>,
}

impl SnapshotClusterSetBuilder {
    /// Starts a builder for timestamp `time`.
    pub fn new(time: Timestamp) -> Self {
        Self::with_capacity(time, 0, 0)
    }

    /// A builder whose arena holds exactly `members` members in `clusters`
    /// clusters without growing, so the finished set keeps no slack.
    fn with_capacity(time: Timestamp, members: usize, clusters: usize) -> Self {
        SnapshotClusterSetBuilder {
            time,
            ids: Vec::with_capacity(members),
            xs: Vec::with_capacity(members),
            ys: Vec::with_capacity(members),
            ranges: Vec::with_capacity(clusters),
        }
    }

    /// Where the cluster currently being fed starts in the arena.
    fn open_start(&self) -> usize {
        self.ranges.last().map_or(0, |&(_, end)| end as usize)
    }

    /// Adds one member to the cluster currently being built.
    pub fn push_member(&mut self, id: ObjectId, x: f64, y: f64) {
        self.ids.push(id);
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Seals the cluster currently being built.
    ///
    /// # Panics
    ///
    /// Panics if no member was pushed since the last seal.
    pub fn end_cluster(&mut self) {
        self.seal(self.ids.len());
    }

    /// Seals the arena rows from the open cluster's start up to `end` as one
    /// cluster, re-ordered by object id only if they are not in order.
    fn seal(&mut self, end: usize) {
        let start = self.open_start();
        assert!(end > start, "a snapshot cluster cannot be empty");
        if !self.ids[start..end].windows(2).all(|w| w[0] <= w[1]) {
            // Stable sort by id, so members with a duplicate id keep the
            // order they were fed in.
            let mut members: Vec<(ObjectId, f64, f64)> = (start..end)
                .map(|k| (self.ids[k], self.xs[k], self.ys[k]))
                .collect();
            members.sort_by_key(|&(id, _, _)| id);
            for (k, (id, x, y)) in members.into_iter().enumerate() {
                self.ids[start + k] = id;
                self.xs[start + k] = x;
                self.ys[start + k] = y;
            }
        }
        self.ranges.push((start as u32, end as u32));
    }

    /// Freezes the arenas and returns the finished set.
    ///
    /// # Panics
    ///
    /// Panics if a cluster is still being fed (members pushed without a
    /// sealing [`Self::end_cluster`]).
    pub fn finish(self) -> SnapshotClusterSet {
        assert!(
            self.open_start() == self.ids.len(),
            "unfinished cluster: call end_cluster() before finish()"
        );
        let ids: Arc<[ObjectId]> = self.ids.into();
        let cols = Arc::new(PointColumns::from_vecs(self.xs, self.ys));
        let clusters = self
            .ranges
            .iter()
            .map(|&(start, end)| {
                let view = cols.slice(start as usize..end as usize);
                SnapshotCluster {
                    time: self.time,
                    ids: Arc::clone(&ids),
                    cols: Arc::clone(&cols),
                    start,
                    end,
                    mbr: view.mbr().expect("non-empty"),
                    centroid: view.centroid().expect("non-empty"),
                }
            })
            .collect();
        SnapshotClusterSet {
            time: self.time,
            clusters,
        }
    }
}

/// Identifier of a snapshot cluster inside a [`ClusterDatabase`]: the
/// timestamp and the position within that timestamp's cluster set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId {
    /// The timestamp of the cluster.
    pub time: Timestamp,
    /// Index within the cluster set of that timestamp.
    pub index: usize,
}

impl ClusterId {
    /// Creates a cluster id.
    pub const fn new(time: Timestamp, index: usize) -> Self {
        ClusterId { time, index }
    }
}

/// All snapshot clusters of one timestamp (`C_t` in the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotClusterSet {
    /// The timestamp shared by all clusters in the set.
    pub time: Timestamp,
    /// The clusters, in discovery order.
    pub clusters: Vec<SnapshotCluster>,
}

impl SnapshotClusterSet {
    /// One tick's set from filled arena columns and its cluster lengths in
    /// order: the set [`SnapshotClusterSetBuilder`] finishes with when the
    /// same members are pushed one by one and a cluster is sealed after each
    /// length — sorted the same way, with the same cached MBRs and
    /// centroids — without pushing them one by one.  The coordinate
    /// columns become the arena as they are.
    ///
    /// # Panics
    ///
    /// Panics if the columns are not parallel, hold more than `u32::MAX`
    /// members, or the lengths include a zero or do not add up to them.
    pub fn from_columns(
        time: Timestamp,
        ids: Vec<ObjectId>,
        xs: Vec<f64>,
        ys: Vec<f64>,
        lens: impl ExactSizeIterator<Item = usize>,
    ) -> Self {
        assert!(
            ids.len() == xs.len() && ids.len() == ys.len(),
            "member and coordinate columns must be parallel"
        );
        assert!(
            ids.len() <= u32::MAX as usize,
            "a tick arena is u32-indexed"
        );
        let mut builder = SnapshotClusterSetBuilder {
            time,
            ids,
            xs,
            ys,
            ranges: Vec::with_capacity(lens.len()),
        };
        for len in lens {
            let end = builder.open_start() + len;
            assert!(
                end <= builder.ids.len(),
                "cluster lengths overrun the columns"
            );
            builder.seal(end);
        }
        builder.finish()
    }

    /// Number of clusters at this timestamp.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` if no cluster exists at this timestamp.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Iterates over `(ClusterId, &SnapshotCluster)` pairs.
    pub fn iter_ids(&self) -> impl Iterator<Item = (ClusterId, &SnapshotCluster)> {
        self.clusters
            .iter()
            .enumerate()
            .map(move |(i, c)| (ClusterId::new(self.time, i), c))
    }

    /// Bytes of member-id and coordinate payload held live by this set's
    /// arenas.
    ///
    /// Clusters sharing one arena (the normal case: one arena per tick) are
    /// counted once; the arena pointers are deduplicated.  This is the
    /// figure the out-of-core ingest layer budgets against.
    pub fn arena_bytes(&self) -> usize {
        let mut seen: Vec<*const PointColumns> = Vec::new();
        let mut bytes = 0;
        for c in &self.clusters {
            let ptr = Arc::as_ptr(&c.cols);
            if !seen.contains(&ptr) {
                seen.push(ptr);
                bytes += c.cols.payload_bytes() + c.ids.len() * std::mem::size_of::<ObjectId>();
            }
        }
        bytes
    }
}

/// The snapshot-cluster database `CDB`: one [`SnapshotClusterSet`] per
/// timestamp over a contiguous time interval.
#[derive(Debug, Clone, Default)]
pub struct ClusterDatabase {
    sets: Vec<SnapshotClusterSet>,
}

impl ClusterDatabase {
    /// Creates an empty cluster database.
    pub fn new() -> Self {
        ClusterDatabase::default()
    }

    /// Builds the cluster database by clustering every snapshot of the
    /// trajectory database over its full time domain.
    ///
    /// Objects present at a timestamp (after linear interpolation) are
    /// clustered with DBSCAN; noise objects simply do not appear in any
    /// cluster for that timestamp.
    pub fn build(db: &TrajectoryDatabase, params: &ClusteringParams) -> Self {
        match db.time_domain() {
            Some(domain) => Self::build_interval(db, params, domain),
            None => ClusterDatabase::new(),
        }
    }

    /// Builds the cluster database over an explicit time interval.
    pub fn build_interval(
        db: &TrajectoryDatabase,
        params: &ClusteringParams,
        interval: TimeInterval,
    ) -> Self {
        Self::build_interval_with(db, params, interval, &mut DbscanScratch::new())
    }

    /// Like [`ClusterDatabase::build_interval`] but clusters through a
    /// caller-provided scratch arena, so repeated builds (e.g. the streaming
    /// clusterer's tick-by-tick batches) reuse their buffers across calls.
    pub(crate) fn build_interval_with(
        db: &TrajectoryDatabase,
        params: &ClusteringParams,
        interval: TimeInterval,
        scratch: &mut DbscanScratch,
    ) -> Self {
        let sets = interval
            .iter()
            .map(|t| Self::cluster_snapshot(db, params, t, scratch))
            .collect();
        ClusterDatabase { sets }
    }

    /// Builds the cluster database in parallel across timestamps using
    /// `threads` worker threads.
    ///
    /// Produces exactly the same result as [`ClusterDatabase::build_interval`];
    /// per-timestamp clustering is embarrassingly parallel.
    pub fn build_parallel(
        db: &TrajectoryDatabase,
        params: &ClusteringParams,
        interval: TimeInterval,
        threads: usize,
    ) -> Self {
        let threads = threads.max(1);
        let ticks: Vec<Timestamp> = interval.iter().collect();
        let mut sets: Vec<Option<SnapshotClusterSet>> = vec![None; ticks.len()];
        let chunk = ticks.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (tick_chunk, out_chunk) in ticks.chunks(chunk).zip(sets.chunks_mut(chunk)) {
                scope.spawn(move || {
                    // One scratch arena per worker, reused across its ticks.
                    let mut scratch = DbscanScratch::new();
                    for (t, slot) in tick_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(Self::cluster_snapshot(db, params, *t, &mut scratch));
                    }
                });
            }
        });
        ClusterDatabase {
            sets: sets.into_iter().map(|s| s.expect("filled")).collect(),
        }
    }

    fn cluster_snapshot(
        db: &TrajectoryDatabase,
        params: &ClusteringParams,
        t: Timestamp,
        scratch: &mut DbscanScratch,
    ) -> SnapshotClusterSet {
        // The snapshot arrives as the columns DBSCAN scans, in the scratch's
        // reused buffers; the clusters' shared arena is gathered from them at
        // its exact size.  Ids ascend along the snapshot and member indices
        // along each cluster, so members arrive sorted.
        let mut ids = std::mem::take(&mut scratch.snapshot_ids);
        let mut cols = std::mem::take(&mut scratch.snapshot_cols);
        db.snapshot_columns_into(t, &mut ids, &mut cols);
        let result = {
            let _span = gpdt_obs::span!("dbscan.snapshot");
            dbscan_with(cols.view(), params, scratch)
        };
        let mut builder = SnapshotClusterSetBuilder::with_capacity(
            t,
            result.members().len(),
            result.clusters().len(),
        );
        for members in result.clusters() {
            for &i in members {
                let i = i as usize;
                builder.push_member(ids[i], cols.xs()[i], cols.ys()[i]);
            }
            builder.end_cluster();
        }
        scratch.snapshot_ids = ids;
        scratch.snapshot_cols = cols;
        builder.finish()
    }

    /// Creates a database directly from per-timestamp cluster sets.
    ///
    /// The sets must be ordered by timestamp and contiguous (each timestamp
    /// exactly one larger than the previous).  Used by tests and by the
    /// synthetic crowd generators in the benchmark harness.
    ///
    /// # Panics
    ///
    /// Panics if the sets are not contiguous in time.
    pub fn from_sets(sets: Vec<SnapshotClusterSet>) -> Self {
        for w in sets.windows(2) {
            assert_eq!(
                w[1].time,
                w[0].time + 1,
                "cluster sets must cover contiguous timestamps"
            );
        }
        ClusterDatabase { sets }
    }

    /// Number of timestamps covered.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Returns `true` if the database covers no timestamps.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The covered time interval, or `None` if empty.
    pub fn time_domain(&self) -> Option<TimeInterval> {
        match (self.sets.first(), self.sets.last()) {
            (Some(first), Some(last)) => Some(TimeInterval::new(first.time, last.time)),
            _ => None,
        }
    }

    /// The cluster set at timestamp `t`, if covered.
    pub fn set_at(&self, t: Timestamp) -> Option<&SnapshotClusterSet> {
        let first = self.sets.first()?.time;
        if t < first {
            return None;
        }
        self.sets.get((t - first) as usize)
    }

    /// The cluster referenced by `id`, if it exists.
    pub fn cluster(&self, id: ClusterId) -> Option<&SnapshotCluster> {
        self.set_at(id.time)?.clusters.get(id.index)
    }

    /// Iterates over the cluster sets in time order.
    pub fn iter(&self) -> impl Iterator<Item = &SnapshotClusterSet> {
        self.sets.iter()
    }

    /// Total number of snapshot clusters across all timestamps.
    pub fn total_clusters(&self) -> usize {
        self.sets.iter().map(|s| s.clusters.len()).sum()
    }

    /// Bytes of cluster-arena payload held live across all timestamps
    /// (see [`SnapshotClusterSet::arena_bytes`]).
    pub fn arena_bytes(&self) -> usize {
        self.sets.iter().map(|s| s.arena_bytes()).sum()
    }

    /// Consumes the database into its per-timestamp sets, in time order.
    ///
    /// The out-of-core ingest driver uses this to feed a pre-built database
    /// to an engine batch by batch while *dropping* each batch from the
    /// source side, so the engine's retention policy actually frees arena
    /// memory instead of keeping it alive through the source's `Arc` clones.
    pub fn into_sets(self) -> Vec<SnapshotClusterSet> {
        self.sets
    }

    /// Drops every cluster set strictly older than `t` and returns how many
    /// ticks were evicted.
    ///
    /// This is the primitive behind bounded cluster-database retention: a
    /// streaming engine only ever revisits the ticks its open crowd
    /// candidates reference (plus the trailing `kc` window), so everything
    /// older can be reclaimed once the referencing crowds finalize.  Lookups
    /// for evicted ticks ([`Self::set_at`], [`Self::cluster`]) return `None`
    /// afterwards; [`Self::time_domain`] shrinks from the front.
    pub fn evict_before(&mut self, t: Timestamp) -> usize {
        let Some(first) = self.sets.first().map(|s| s.time) else {
            return 0;
        };
        if t <= first {
            return 0;
        }
        let drop = (t - first) as usize;
        let drop = drop.min(self.sets.len());
        self.sets.drain(..drop);
        drop
    }

    /// Appends the cluster sets of a newer batch (incremental update).
    ///
    /// # Panics
    ///
    /// Panics if `newer` does not start exactly one tick after the current
    /// last timestamp (or if either database is empty, in which case there is
    /// nothing meaningful to append to/from).
    pub fn append(&mut self, newer: ClusterDatabase) {
        let last = self
            .time_domain()
            .expect("cannot append to an empty cluster database")
            .end;
        let newer_start = newer
            .time_domain()
            .expect("cannot append an empty cluster database")
            .start;
        assert_eq!(
            newer_start,
            last + 1,
            "appended batch must start right after the existing time domain"
        );
        self.sets.extend(newer.sets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_geo::hausdorff_distance;
    use gpdt_trajectory::Trajectory;

    fn cluster(time: Timestamp, ids: &[u32], pts: &[(f64, f64)]) -> SnapshotCluster {
        SnapshotCluster::new(
            time,
            ids.iter().map(|&i| ObjectId::new(i)).collect(),
            pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        )
    }

    #[test]
    fn cluster_members_sorted_and_queried() {
        let c = cluster(3, &[5, 1, 9], &[(5.0, 0.0), (1.0, 0.0), (9.0, 0.0)]);
        assert_eq!(
            c.members(),
            &[ObjectId::new(1), ObjectId::new(5), ObjectId::new(9)]
        );
        // Points stay parallel to their member after sorting.
        assert_eq!(c.points().point(0), Point::new(1.0, 0.0));
        assert_eq!(c.points().point(2), Point::new(9.0, 0.0));
        assert!(c.contains(ObjectId::new(5)));
        assert!(!c.contains(ObjectId::new(2)));
        assert_eq!(c.len(), 3);
        assert_eq!(c.time(), 3);
        assert_eq!(c.mbr(), &Mbr::new(1.0, 0.0, 9.0, 0.0));
        assert_eq!(c.centroid(), Point::new(5.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_cluster_rejected() {
        let _ = SnapshotCluster::new(0, vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_lengths_rejected() {
        let _ = SnapshotCluster::new(0, vec![ObjectId::new(1)], vec![]);
    }

    #[test]
    fn hausdorff_between_clusters() {
        let a = cluster(0, &[1, 2], &[(0.0, 0.0), (1.0, 0.0)]);
        let b = cluster(1, &[1, 2], &[(0.0, 3.0), (1.0, 3.0)]);
        assert_eq!(hausdorff_distance(a.points(), b.points()), 3.0);
        assert!(a.within_hausdorff(&b, 3.0));
        assert!(!a.within_hausdorff(&b, 2.9));
    }

    fn dense_blob_db() -> TrajectoryDatabase {
        // Five objects stay clustered near the origin for ticks 0..=2, one
        // object wanders far away.
        let mut trajs = Vec::new();
        for i in 0..5u32 {
            let x = i as f64 * 10.0;
            trajs.push(Trajectory::from_points(
                ObjectId::new(i),
                vec![(0, (x, 0.0)), (1, (x, 5.0)), (2, (x, 10.0))],
            ));
        }
        trajs.push(Trajectory::from_points(
            ObjectId::new(99),
            vec![(0, (5000.0, 5000.0)), (2, (6000.0, 6000.0))],
        ));
        TrajectoryDatabase::from_trajectories(trajs)
    }

    #[test]
    fn build_produces_one_cluster_per_tick() {
        let db = dense_blob_db();
        let params = ClusteringParams::new(15.0, 3);
        let cdb = ClusterDatabase::build(&db, &params);
        assert_eq!(cdb.len(), 3);
        assert_eq!(cdb.time_domain(), Some(TimeInterval::new(0, 2)));
        for set in cdb.iter() {
            assert_eq!(set.len(), 1, "tick {}", set.time);
            assert_eq!(set.clusters[0].len(), 5);
            assert!(!set.clusters[0].contains(ObjectId::new(99)));
        }
        assert_eq!(cdb.total_clusters(), 3);
    }

    #[test]
    fn build_parallel_matches_sequential() {
        let db = dense_blob_db();
        let params = ClusteringParams::new(15.0, 3);
        let interval = db.time_domain().unwrap();
        let seq = ClusterDatabase::build_interval(&db, &params, interval);
        for threads in [1, 2, 4] {
            let par = ClusterDatabase::build_parallel(&db, &params, interval, threads);
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(seq.iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn set_at_and_cluster_lookup() {
        let db = dense_blob_db();
        let cdb = ClusterDatabase::build(&db, &ClusteringParams::new(15.0, 3));
        assert!(cdb.set_at(1).is_some());
        assert!(cdb.set_at(3).is_none());
        assert!(cdb.cluster(ClusterId::new(1, 0)).is_some());
        assert!(cdb.cluster(ClusterId::new(1, 5)).is_none());
        assert!(cdb.cluster(ClusterId::new(9, 0)).is_none());
    }

    #[test]
    fn from_sets_requires_contiguous_time() {
        let sets = vec![
            SnapshotClusterSet {
                time: 4,
                clusters: vec![cluster(4, &[1], &[(0.0, 0.0)])],
            },
            SnapshotClusterSet {
                time: 5,
                clusters: vec![],
            },
        ];
        let cdb = ClusterDatabase::from_sets(sets);
        assert_eq!(cdb.time_domain(), Some(TimeInterval::new(4, 5)));
        assert!(cdb.set_at(3).is_none());
        assert_eq!(cdb.set_at(4).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn from_sets_rejects_gaps() {
        let sets = vec![
            SnapshotClusterSet {
                time: 0,
                clusters: vec![],
            },
            SnapshotClusterSet {
                time: 2,
                clusters: vec![],
            },
        ];
        let _ = ClusterDatabase::from_sets(sets);
    }

    #[test]
    fn append_extends_time_domain() {
        let db = dense_blob_db();
        let params = ClusteringParams::new(15.0, 3);
        let mut first = ClusterDatabase::build_interval(&db, &params, TimeInterval::new(0, 1));
        let second = ClusterDatabase::build_interval(&db, &params, TimeInterval::new(2, 2));
        first.append(second);
        assert_eq!(first.time_domain(), Some(TimeInterval::new(0, 2)));
        assert_eq!(first.len(), 3);
    }

    #[test]
    #[should_panic(expected = "right after")]
    fn append_rejects_non_adjacent_batch() {
        let db = dense_blob_db();
        let params = ClusteringParams::new(15.0, 3);
        let mut first = ClusterDatabase::build_interval(&db, &params, TimeInterval::new(0, 0));
        let second = ClusterDatabase::build_interval(&db, &params, TimeInterval::new(2, 2));
        first.append(second);
    }

    #[test]
    fn evict_before_drops_leading_ticks_only() {
        let db = dense_blob_db();
        let params = ClusteringParams::new(15.0, 3);
        let mut cdb = ClusterDatabase::build(&db, &params);
        assert_eq!(cdb.evict_before(0), 0, "t before the domain is a no-op");
        assert_eq!(cdb.evict_before(2), 2);
        assert_eq!(cdb.time_domain(), Some(TimeInterval::new(2, 2)));
        assert!(cdb.set_at(1).is_none());
        assert!(cdb.cluster(ClusterId::new(0, 0)).is_none());
        assert!(cdb.cluster(ClusterId::new(2, 0)).is_some());
        // Appending after eviction still works off the (shrunk) domain.
        let next = ClusterDatabase::from_sets(vec![SnapshotClusterSet {
            time: 3,
            clusters: vec![],
        }]);
        cdb.append(next);
        assert_eq!(cdb.time_domain(), Some(TimeInterval::new(2, 3)));
        // Evicting past the end empties the database.
        assert_eq!(cdb.evict_before(10), 2);
        assert!(cdb.is_empty());
        assert_eq!(cdb.evict_before(10), 0);
    }

    #[test]
    fn builder_shares_one_arena_per_tick() {
        let mut b = SnapshotClusterSetBuilder::new(2);
        b.push_member(ObjectId::new(3), 3.0, 0.0);
        b.push_member(ObjectId::new(1), 1.0, 0.0);
        b.end_cluster();
        b.push_member(ObjectId::new(7), 7.0, 0.0);
        b.push_member(ObjectId::new(5), 5.0, 0.0);
        b.end_cluster();
        let set = b.finish();
        assert_eq!(set.len(), 2);
        // Members are sorted within each cluster, points stay parallel.
        assert_eq!(
            set.clusters[0].members(),
            &[ObjectId::new(1), ObjectId::new(3)]
        );
        assert_eq!(set.clusters[0].points().xs(), &[1.0, 3.0]);
        assert_eq!(
            set.clusters[1].members(),
            &[ObjectId::new(5), ObjectId::new(7)]
        );
        // Both clusters reference the same arena...
        assert!(Arc::ptr_eq(&set.clusters[0].cols, &set.clusters[1].cols));
        // ...so the arena is counted once: 4 points × (16 coord + 4 id) bytes.
        assert_eq!(set.arena_bytes(), 4 * 20);
        // Logical equality is layout-independent: a standalone cluster with
        // its own arena compares equal to the arena-backed one.
        let standalone = cluster(2, &[1, 3], &[(1.0, 0.0), (3.0, 0.0)]);
        assert_eq!(set.clusters[0], standalone);
        // A clone shares its arena (counted once); a separately built twin
        // does not (counted again).
        let twin = cluster(2, &[1, 3], &[(1.0, 0.0), (3.0, 0.0)]);
        let shared = SnapshotClusterSet {
            time: 2,
            clusters: vec![standalone.clone(), standalone],
        };
        assert_eq!(shared.arena_bytes(), 2 * 20);
        let distinct = SnapshotClusterSet {
            time: 2,
            clusters: vec![shared.clusters[0].clone(), twin],
        };
        assert_eq!(distinct.arena_bytes(), 2 * 2 * 20);
    }

    #[test]
    fn built_sets_share_arena_and_match_new() {
        let db = dense_blob_db();
        let params = ClusteringParams::new(15.0, 3);
        let cdb = ClusterDatabase::build(&db, &params);
        assert!(cdb.arena_bytes() > 0);
        for set in cdb.iter() {
            for w in set.clusters.windows(2) {
                assert!(Arc::ptr_eq(&w[0].cols, &w[1].cols));
            }
            for c in &set.clusters {
                // Rebuilding through SnapshotCluster::new (private arena)
                // reproduces the identical cluster, cached fields included.
                let rebuilt =
                    SnapshotCluster::new(c.time(), c.members().to_vec(), c.points().to_points());
                assert_eq!(&rebuilt, c);
                assert_eq!(rebuilt.mbr(), c.mbr());
                assert_eq!(rebuilt.centroid(), c.centroid());
            }
        }
    }

    #[test]
    #[should_panic(expected = "unfinished cluster")]
    fn builder_rejects_unsealed_cluster() {
        let mut b = SnapshotClusterSetBuilder::new(0);
        b.push_member(ObjectId::new(1), 0.0, 0.0);
        let _ = b.finish();
    }

    #[test]
    fn iter_ids_enumerates_clusters() {
        let set = SnapshotClusterSet {
            time: 7,
            clusters: vec![
                cluster(7, &[1], &[(0.0, 0.0)]),
                cluster(7, &[2], &[(100.0, 0.0)]),
            ],
        };
        let ids: Vec<ClusterId> = set.iter_ids().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ClusterId::new(7, 0), ClusterId::new(7, 1)]);
    }
}
