//! The moving-object (trajectory) database `ODB`.

use std::collections::btree_map::{BTreeMap, Entry};

use gpdt_geo::{Point, PointColumns};

use crate::trajectory::{Sample, Trajectory};
use crate::types::{ObjectId, TimeInterval, Timestamp};

/// The positions of all tracked objects at one time point.
///
/// This is the input of the snapshot-clustering phase: for every object whose
/// lifespan covers the tick, its (possibly interpolated) location.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The tick this snapshot describes.
    pub time: Timestamp,
    /// `(object, location)` pairs, sorted by object id.
    pub positions: Vec<(ObjectId, Point)>,
}

impl Snapshot {
    /// Number of objects present at this tick.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if no object is present at this tick.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// A database of moving-object trajectories over a discretised time domain.
///
/// This corresponds to `ODB` with time domain `TDB` in the paper.  The time
/// domain is the union of all trajectory lifespans, `[min_time, max_time]`.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryDatabase {
    trajectories: BTreeMap<ObjectId, Trajectory>,
    /// The hull of all lifespans, kept current by [`Self::insert`] (the only
    /// way a trajectory enters) so that reading it costs nothing.
    domain: Option<TimeInterval>,
}

impl TrajectoryDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        TrajectoryDatabase::default()
    }

    /// Creates a database from a collection of trajectories.
    ///
    /// If several trajectories share an object id their samples are merged.
    pub fn from_trajectories(trajectories: impl IntoIterator<Item = Trajectory>) -> Self {
        let mut db = TrajectoryDatabase::new();
        for t in trajectories {
            db.insert(t);
        }
        db
    }

    /// Inserts a trajectory, or merges it into the one already stored for
    /// its object (samples at the same tick: the inserted one wins).
    ///
    /// Appending samples later than everything stored for the object — what
    /// a stream does — costs the appended samples, not the stored history.
    pub fn insert(&mut self, trajectory: Trajectory) {
        let span = trajectory.lifespan();
        self.domain = Some(self.domain.map_or(span, |d| {
            TimeInterval::new(d.start.min(span.start), d.end.max(span.end))
        }));
        match self.trajectories.entry(trajectory.id()) {
            Entry::Occupied(existing) => existing.into_mut().merge(trajectory),
            Entry::Vacant(slot) => {
                slot.insert(trajectory);
            }
        }
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Returns `true` if the database holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// The trajectory of `id`, if tracked.
    pub fn get(&self, id: ObjectId) -> Option<&Trajectory> {
        self.trajectories.get(&id)
    }

    /// Iterator over all trajectories, ordered by object id.
    pub fn iter(&self) -> impl Iterator<Item = &Trajectory> {
        self.trajectories.values()
    }

    /// The time domain `TDB`: the interval spanned by all lifespans, or
    /// `None` for an empty database.
    pub fn time_domain(&self) -> Option<TimeInterval> {
        self.domain
    }

    /// The snapshot of all object locations at tick `t`.
    ///
    /// Objects whose lifespan does not cover `t` are absent; objects without
    /// an exact sample at `t` contribute a linearly interpolated virtual
    /// point, exactly as prescribed in §II of the paper.
    pub fn snapshot(&self, t: Timestamp) -> Snapshot {
        let _span = gpdt_obs::span!("trajectory.snapshot");
        Snapshot {
            time: t,
            positions: self.positions_at(t).collect(),
        }
    }

    /// The snapshot at tick `t` as parallel columns — object ids, ascending,
    /// and their locations — the layout snapshot clustering scans and
    /// publishes, so nothing is converted on the way.
    pub fn snapshot_columns(&self, t: Timestamp) -> (Vec<ObjectId>, PointColumns) {
        let mut ids = Vec::with_capacity(self.len());
        let mut cols = PointColumns::with_capacity(self.len());
        self.snapshot_columns_into(t, &mut ids, &mut cols);
        (ids, cols)
    }

    /// [`Self::snapshot_columns`] into caller-owned buffers: both are
    /// cleared and refilled, so a caller that keeps them across ticks
    /// allocates only while a snapshot outgrows every earlier one.
    pub fn snapshot_columns_into(
        &self,
        t: Timestamp,
        ids: &mut Vec<ObjectId>,
        cols: &mut PointColumns,
    ) {
        let _span = gpdt_obs::span!("trajectory.snapshot");
        ids.clear();
        cols.clear();
        for (id, position) in self.positions_at(t) {
            ids.push(id);
            cols.push(position);
        }
    }

    fn positions_at(&self, t: Timestamp) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.trajectories
            .values()
            .filter_map(move |traj| traj.position_at(t).map(|p| (traj.id(), p)))
    }

    /// Total number of stored samples across all trajectories.
    pub fn total_samples(&self) -> usize {
        self.trajectories.values().map(|t| t.len()).sum()
    }
}

/// Incremental builder for a [`TrajectoryDatabase`].
///
/// Collects raw `(object, tick, position)` observations in any order and
/// assembles them into trajectories.
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    samples: BTreeMap<ObjectId, Vec<Sample>>,
}

impl DatabaseBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DatabaseBuilder::default()
    }

    /// Records one observation.
    pub fn push(&mut self, id: ObjectId, time: Timestamp, position: Point) -> &mut Self {
        self.samples
            .entry(id)
            .or_default()
            .push(Sample::new(time, position));
        self
    }

    /// Builds the database; objects with no observations are absent.
    pub fn build(self) -> TrajectoryDatabase {
        TrajectoryDatabase::from_trajectories(
            self.samples
                .into_iter()
                .map(|(id, samples)| Trajectory::new(id, samples)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TrajectoryDatabase {
        TrajectoryDatabase::from_trajectories(vec![
            Trajectory::from_points(ObjectId::new(1), vec![(0, (0.0, 0.0)), (10, (10.0, 0.0))]),
            Trajectory::from_points(ObjectId::new(2), vec![(5, (0.0, 5.0)), (15, (0.0, 15.0))]),
            Trajectory::from_points(ObjectId::new(3), vec![(20, (1.0, 1.0))]),
        ])
    }

    #[test]
    fn time_domain_spans_all_lifespans() {
        assert_eq!(db().time_domain(), Some(TimeInterval::new(0, 20)));
        assert_eq!(TrajectoryDatabase::new().time_domain(), None);
    }

    /// Location of `id` in `snapshot`, if the object is present.
    fn position_of(snapshot: &Snapshot, id: ObjectId) -> Option<Point> {
        let found = snapshot.positions.iter().find(|(oid, _)| *oid == id);
        found.map(|&(_, point)| point)
    }

    #[test]
    fn snapshot_contains_only_live_objects() {
        let db = db();
        let s0 = db.snapshot(0);
        assert_eq!(s0.len(), 1);
        assert_eq!(
            position_of(&s0, ObjectId::new(1)),
            Some(Point::new(0.0, 0.0))
        );

        let s7 = db.snapshot(7);
        assert_eq!(s7.len(), 2);
        // Object 1 interpolated at t=7 -> (7, 0); object 2 at t=7 -> (0, 7).
        assert_eq!(
            position_of(&s7, ObjectId::new(1)),
            Some(Point::new(7.0, 0.0))
        );
        assert_eq!(
            position_of(&s7, ObjectId::new(2)),
            Some(Point::new(0.0, 7.0))
        );
        assert_eq!(position_of(&s7, ObjectId::new(3)), None);

        let s20 = db.snapshot(20);
        assert_eq!(s20.len(), 1);
        assert!(!s20.is_empty());
        assert_eq!(
            position_of(&s20, ObjectId::new(3)),
            Some(Point::new(1.0, 1.0))
        );
    }

    #[test]
    fn snapshot_positions_sorted_by_object_id() {
        let s = db().snapshot(7);
        let ids: Vec<u32> = s.positions.iter().map(|(id, _)| id.raw()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    /// One pair of buffers refilled tick after tick, through snapshots that
    /// grow, shrink to nothing and grow again, always equals a fresh
    /// `snapshot_columns`.
    #[test]
    fn snapshot_columns_into_reused_buffers_equals_snapshot_columns() {
        // Object `i` lives over ticks `i..=3 * i + 2`, so the snapshot
        // grows and then shrinks; tick 200 lies past every lifespan.
        let db = TrajectoryDatabase::from_trajectories((0..40u32).map(|i| {
            Trajectory::from_points(
                ObjectId::new(i),
                (i..=3 * i + 2)
                    .step_by(2)
                    .map(|t| (t, (f64::from(i), f64::from(t)))),
            )
        }));
        let (mut ids, mut cols) = (Vec::new(), PointColumns::new());
        let mut sizes = Vec::new();
        for t in [60, 0, 1, 200, 30, 119, 45, 200, 3, 90, 60] {
            db.snapshot_columns_into(t, &mut ids, &mut cols);
            assert_eq!(
                (ids.clone(), cols.clone()),
                db.snapshot_columns(t),
                "tick {t}"
            );
            sizes.push(ids.len());
        }
        assert_eq!(sizes[3], 0);
        assert!(sizes[0] > sizes[1] && sizes[4] > sizes[3] && sizes[9] < sizes[0]);
    }

    #[test]
    fn insert_merges_same_object() {
        let mut db = TrajectoryDatabase::new();
        db.insert(Trajectory::from_points(
            ObjectId::new(1),
            vec![(0, (0.0, 0.0))],
        ));
        db.insert(Trajectory::from_points(
            ObjectId::new(1),
            vec![(5, (5.0, 0.0))],
        ));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(ObjectId::new(1)).unwrap().len(), 2);
        assert_eq!(db.total_samples(), 2);
    }

    /// The time domain recomputed from the stored trajectories.
    fn recomputed_domain(db: &TrajectoryDatabase) -> Option<TimeInterval> {
        let start = db.iter().map(|t| t.lifespan().start).min()?;
        let end = db.iter().map(|t| t.lifespan().end).max()?;
        Some(TimeInterval::new(start, end))
    }

    #[test]
    fn cached_domain_and_merges_match_a_rebuild_under_interleaved_inserts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x91);
        let mut db = TrajectoryDatabase::new();
        // Every sample ever inserted, in insertion order: rebuilding each
        // object with `Trajectory::new` (later observation wins) is the
        // reference for both the appending and the merging path.
        let mut inserted: BTreeMap<ObjectId, Vec<Sample>> = BTreeMap::new();
        for round in 0u32..300 {
            let id = ObjectId::new(rng.gen_range(0u32..6));
            let last = db.get(id).map(|t| t.lifespan().end);
            let start = match last {
                // A stream's append: strictly after everything stored.
                Some(last) if round % 3 != 0 => last + rng.gen_range(1u32..4),
                // Anywhere: before, inside (overwriting ticks) or after.
                _ => rng.gen_range(0u32..600),
            };
            let samples: Vec<Sample> = (0..rng.gen_range(1u32..5))
                .map(|k| Sample::new(start + k * 2, Point::new(f64::from(round), f64::from(k))))
                .collect();
            inserted.entry(id).or_default().extend(&samples);
            db.insert(Trajectory::new(id, samples));
            assert_eq!(db.time_domain(), recomputed_domain(&db), "round {round}");
        }
        for (id, samples) in inserted {
            assert_eq!(db.get(id), Some(&Trajectory::new(id, samples)));
        }
        let sliced = TrajectoryDatabase::from_trajectories(
            db.iter()
                .filter_map(|t| t.slice(TimeInterval::new(100, 220))),
        );
        assert_eq!(sliced.time_domain(), recomputed_domain(&sliced));
    }

    #[test]
    fn builder_assembles_per_object_trajectories() {
        let mut b = DatabaseBuilder::new();
        b.push(ObjectId::new(1), 2, Point::new(1.0, 1.0));
        b.push(ObjectId::new(2), 0, Point::new(0.0, 0.0));
        b.push(ObjectId::new(1), 0, Point::new(0.0, 0.0));
        let db = b.build();
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(ObjectId::new(1)).unwrap().len(), 2);
        assert_eq!(
            db.get(ObjectId::new(1)).unwrap().lifespan(),
            TimeInterval::new(0, 2)
        );
    }

    #[test]
    fn empty_database_properties() {
        let db = TrajectoryDatabase::new();
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
        assert_eq!(db.total_samples(), 0);
        assert!(db.snapshot(0).is_empty());
    }
}
