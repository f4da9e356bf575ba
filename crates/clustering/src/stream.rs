//! Streaming snapshot clustering: cluster newly appended ticks on demand.
//!
//! The discovery engine ingests trajectory data tick-by-tick (or in arbitrary
//! batches); re-clustering the whole history on every arrival would defeat
//! the incremental algorithms it feeds.  [`StreamingClusterer`] keeps a
//! cursor into the time domain and clusters only the snapshots that appeared
//! since the previous call, reusing the scoped-thread parallelism of
//! [`ClusterDatabase::build_parallel`] (per-timestamp clustering is
//! embarrassingly parallel).

use gpdt_trajectory::{TimeInterval, Timestamp, TrajectoryDatabase};

use crate::dbscan::DbscanScratch;
use crate::params::ClusteringParams;
use crate::snapshot::ClusterDatabase;

/// A stateful snapshot clusterer over a growing trajectory database.
///
/// Each [`advance`](StreamingClusterer::advance) call clusters exactly the
/// timestamps between the cursor (initially the database's first timestamp)
/// and the database's current end, then moves the cursor past them.  The
/// concatenation of the returned batches is identical to a one-shot
/// [`ClusterDatabase::build`] over the final database.
#[derive(Debug, Clone)]
pub struct StreamingClusterer {
    params: ClusteringParams,
    threads: usize,
    /// The first tick the next advance clusters: `None` before the first
    /// advance or seek (the database's first tick then), and past
    /// `Timestamp::MAX` once that last representable tick is clustered, so
    /// the cursor never wraps.
    next: Option<u64>,
    /// DBSCAN scratch arena reused across `advance` calls on the
    /// single-threaded path, so tick-by-tick streaming stays allocation-free
    /// in steady state.
    scratch: DbscanScratch,
}

impl StreamingClusterer {
    /// Creates a clusterer with its cursor at the start of the (future)
    /// database, using all available cores.  The core count is resolved once
    /// per process ([`gpdt_obs::host_threads`]), so a clusterer is free to
    /// build.
    pub fn new(params: ClusteringParams) -> Self {
        StreamingClusterer {
            params,
            threads: gpdt_obs::host_threads(),
            next: None,
            scratch: DbscanScratch::new(),
        }
    }

    /// Overrides the number of worker threads (clamped to at least 1; the
    /// thread count never changes the produced clusters).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The clustering parameters.
    pub fn params(&self) -> &ClusteringParams {
        &self.params
    }

    /// The first timestamp the next [`advance`](StreamingClusterer::advance)
    /// will cluster, or `None` if nothing has been clustered yet (the cursor
    /// then starts at the database's first timestamp) or the cursor is past
    /// `Timestamp::MAX` (every later advance is empty).
    pub fn next_time(&self) -> Option<Timestamp> {
        self.next.and_then(|next| Timestamp::try_from(next).ok())
    }

    /// Moves the cursor so the next advance starts at `t`.
    pub fn seek(&mut self, t: Timestamp) {
        self.next = Some(u64::from(t));
    }

    /// Moves the cursor just past `t`: the next advance starts at `t + 1`,
    /// and clusters nothing if `t` is `Timestamp::MAX`.
    pub fn seek_past(&mut self, t: Timestamp) {
        self.next = Some(u64::from(t) + 1);
    }

    /// Clusters every not-yet-clustered snapshot of `db` (cursor through the
    /// database's last timestamp) and returns them as a batch; the batch is
    /// empty when the database holds no new ticks.
    pub fn advance(&mut self, db: &TrajectoryDatabase) -> ClusterDatabase {
        let Some(domain) = db.time_domain() else {
            return ClusterDatabase::new();
        };
        self.advance_until(db, domain.end)
    }

    /// Like [`advance`](StreamingClusterer::advance) but stops at `end`
    /// (inclusive) instead of the database's last timestamp, allowing a large
    /// backlog to be drained in controlled slices.
    pub fn advance_until(&mut self, db: &TrajectoryDatabase, end: Timestamp) -> ClusterDatabase {
        let Some(domain) = db.time_domain() else {
            return ClusterDatabase::new();
        };
        let start = self.next.unwrap_or(u64::from(domain.start));
        let end = end.min(domain.end);
        if start > u64::from(end) {
            return ClusterDatabase::new();
        }
        self.next = Some(u64::from(end) + 1);
        let interval = TimeInterval::new(start as Timestamp, end);
        // Small batches (the tick-by-tick streaming steady state) are not
        // worth a thread spawn; run them through the long-lived scratch
        // arena instead.  Results never depend on the path taken.
        if self.threads == 1 || interval.len() < 2 {
            ClusterDatabase::build_interval_with(db, &self.params, interval, &mut self.scratch)
        } else {
            ClusterDatabase::build_parallel(db, &self.params, interval, self.threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_trajectory::{ObjectId, Trajectory};

    fn blob_db(duration: u32) -> TrajectoryDatabase {
        let trajs: Vec<Trajectory> = (0..6u32)
            .map(|i| {
                let x = i as f64 * 10.0;
                Trajectory::from_points(
                    ObjectId::new(i),
                    (0..duration)
                        .map(|t| (t, (x, t as f64 * 3.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        TrajectoryDatabase::from_trajectories(trajs)
    }

    #[test]
    fn advancing_in_slices_equals_one_shot_build() {
        let db = blob_db(12);
        let params = ClusteringParams::new(80.0, 3);
        let reference = ClusterDatabase::build(&db, &params);

        for slice in [1u32, 3, 5, 12] {
            let mut clusterer = StreamingClusterer::new(params).with_threads(2);
            let mut accumulated: Option<ClusterDatabase> = None;
            loop {
                let upto = clusterer.next_time().unwrap_or(0) + slice - 1;
                let batch = clusterer.advance_until(&db, upto);
                if batch.is_empty() {
                    break;
                }
                match accumulated.as_mut() {
                    None => accumulated = Some(batch),
                    Some(acc) => acc.append(batch),
                }
            }
            let accumulated = accumulated.expect("clustered something");
            assert_eq!(accumulated.len(), reference.len(), "slice {slice}");
            for (a, b) in accumulated.iter().zip(reference.iter()) {
                assert_eq!(a, b, "slice {slice}");
            }
        }
    }

    #[test]
    fn advance_is_idempotent_once_caught_up() {
        let db = blob_db(5);
        let mut clusterer = StreamingClusterer::new(ClusteringParams::new(80.0, 3));
        let first = clusterer.advance(&db);
        assert_eq!(first.len(), 5);
        assert_eq!(clusterer.next_time(), Some(5));
        assert!(clusterer.advance(&db).is_empty());
    }

    #[test]
    fn seek_repositions_the_cursor() {
        let db = blob_db(8);
        let mut clusterer = StreamingClusterer::new(ClusteringParams::new(80.0, 3));
        clusterer.seek(6);
        let batch = clusterer.advance(&db);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.time_domain().unwrap().start, 6);
    }

    /// A cursor past the last representable tick is exhausted: every later
    /// advance is empty.
    #[test]
    fn cursor_saturates_at_the_last_representable_tick() {
        let max = Timestamp::MAX;
        let db = TrajectoryDatabase::from_trajectories((0..4u32).map(|i| {
            let x = f64::from(i) * 10.0;
            Trajectory::from_points(ObjectId::new(i), [(max - 1, (x, 0.0)), (max, (x, 5.0))])
        }));
        let mut clusterer = StreamingClusterer::new(ClusteringParams::new(80.0, 3));
        let first = clusterer.advance(&db);
        assert_eq!(first.len(), 2);
        assert_eq!(first.total_clusters(), 2);
        assert_eq!(
            clusterer.next_time(),
            None,
            "no tick follows Timestamp::MAX"
        );
        assert!(clusterer.advance(&db).is_empty());
        assert!(clusterer.advance_until(&db, max).is_empty());

        clusterer.seek_past(max - 1);
        assert_eq!(clusterer.next_time(), Some(max));
        assert_eq!(clusterer.advance(&db).len(), 1);
        clusterer.seek_past(max);
        assert!(clusterer.advance(&db).is_empty());
    }

    #[test]
    fn empty_database_yields_empty_batch() {
        let mut clusterer = StreamingClusterer::new(ClusteringParams::new(80.0, 3));
        assert!(clusterer.advance(&TrajectoryDatabase::new()).is_empty());
        assert_eq!(clusterer.next_time(), None);
    }
}
