//! A single moving object's trajectory.

use gpdt_geo::Point;

use crate::types::{ObjectId, TimeInterval, Timestamp};

/// One timestamped location sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The tick at which the location was observed.
    pub time: Timestamp,
    /// The observed location.
    pub position: Point,
}

impl Sample {
    /// Creates a sample.
    pub const fn new(time: Timestamp, position: Point) -> Self {
        Sample { time, position }
    }
}

/// The trajectory of a single moving object.
///
/// A trajectory is a polyline given as a finite sequence of timestamped
/// locations over a closed time interval (§II of the paper).  Samples are
/// kept sorted by timestamp; different objects may have different lifespans
/// and sampling rates.  Locations at unsampled ticks inside the lifespan are
/// produced by linear interpolation ([`Trajectory::position_at`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    id: ObjectId,
    samples: Vec<Sample>,
    /// First and last sample tick, kept beside the sample buffer's handle:
    /// a position lookup checks them on every call and should not have to
    /// fetch the buffer's two ends for it.
    lifespan: TimeInterval,
}

impl Trajectory {
    /// Creates a trajectory from unordered samples.
    ///
    /// Samples are sorted by timestamp; duplicate timestamps keep the last
    /// occurrence (later observations overwrite earlier ones).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn new(id: ObjectId, mut samples: Vec<Sample>) -> Self {
        assert!(
            !samples.is_empty(),
            "a trajectory needs at least one sample"
        );
        samples.sort_by_key(|s| s.time);
        samples.dedup_by(|later, earlier| {
            if later.time == earlier.time {
                // keep the later observation's position
                earlier.position = later.position;
                true
            } else {
                false
            }
        });
        let lifespan = TimeInterval::new(samples[0].time, samples[samples.len() - 1].time);
        Trajectory {
            id,
            samples,
            lifespan,
        }
    }

    /// Convenience constructor from `(timestamp, (x, y))` pairs.
    pub fn from_points(
        id: ObjectId,
        points: impl IntoIterator<Item = (Timestamp, (f64, f64))>,
    ) -> Self {
        let samples = points
            .into_iter()
            .map(|(t, (x, y))| Sample::new(t, Point::new(x, y)))
            .collect();
        Trajectory::new(id, samples)
    }

    /// The object this trajectory belongs to.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always `false`: trajectories have at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The lifespan `o.τ` of the object: the closed interval from the first
    /// to the last sample.
    pub fn lifespan(&self) -> TimeInterval {
        self.lifespan
    }

    /// The location `o(t)` of the object at tick `t`.
    ///
    /// Returns the sampled position if `t` is a sample tick; otherwise, if
    /// `t` falls strictly inside the lifespan, the *virtual point* obtained
    /// by linear interpolation between the neighbouring samples; and `None`
    /// if `t` lies outside the lifespan (the object is not being tracked).
    ///
    /// The lookup first probes the interpolated index
    /// `(t − t₀)·(n − 1)/(tₙ − t₀)` — just `t − t₀` when every tick is
    /// sampled: on a regularly sampled trajectory (a GPS feed) that is the
    /// sample at or just before `t`, so the call reads two samples, O(1), and
    /// keeps no cursor between calls.  A miss falls back
    /// to a binary search of the side of the probe `t` lies on.
    pub fn position_at(&self, t: Timestamp) -> Option<Point> {
        let idx = self.floor_index(t)?;
        let before = &self.samples[idx];
        if before.time == t {
            return Some(before.position);
        }
        // `t` is inside the lifespan and past `before`, so a later sample exists.
        let after = &self.samples[idx + 1];
        let span = (after.time - before.time) as f64;
        let frac = (t - before.time) as f64 / span;
        Some(before.position.lerp(&after.position, frac))
    }

    /// Index of the last sample at or before `t`, or `None` if `t` lies
    /// outside the lifespan: the probe-then-search of [`Self::position_at`].
    fn floor_index(&self, t: Timestamp) -> Option<usize> {
        let samples = &self.samples;
        let last = samples.len() - 1;
        let (t0, tn) = (self.lifespan.start, self.lifespan.end);
        if t < t0 || t > tn {
            return None;
        }
        if last == 0 {
            return Some(0);
        }
        // A trajectory sampled every tick (`last == tn − t0`) holds `t` at
        // `t − t0`, no division needed.  Otherwise `last < tn − t0 < 2³²`
        // (timestamps are strictly increasing), so the product fits in 64
        // bits and the quotient is at most `last`.
        let offset = t - t0;
        let probe = if last as u64 == u64::from(tn - t0) {
            offset as usize
        } else {
            (u64::from(offset) * last as u64 / u64::from(tn - t0)) as usize
        };
        let at_or_before = |s: &Sample| s.time <= t;
        Some(if samples[probe].time > t {
            // `samples[0].time ≤ t`, so the partition point is at least 1.
            samples[..probe].partition_point(at_or_before) - 1
        } else if probe < last && samples[probe + 1].time <= t {
            probe + samples[probe + 1..].partition_point(at_or_before)
        } else {
            probe
        })
    }

    /// Appends a sample; it must be strictly later than the current last
    /// sample.
    ///
    /// Used by the incremental pipeline when new trajectory batches arrive.
    ///
    /// # Errors
    ///
    /// Returns an error if `sample.time` is not strictly greater than the
    /// last sample's timestamp.
    pub fn append(&mut self, sample: Sample) -> Result<(), AppendError> {
        if sample.time <= self.lifespan.end {
            return Err(AppendError {
                last: self.lifespan.end,
                attempted: sample.time,
            });
        }
        self.samples.push(sample);
        self.lifespan.end = sample.time;
        Ok(())
    }

    /// Merges another trajectory of the same object into this one, a sample
    /// of `other` replacing one of `self` at the same tick.
    ///
    /// When `other` starts after `self` ends — the only case a stream
    /// produces — its samples are appended in place; otherwise the union is
    /// re-sorted and deduplicated as in [`Trajectory::new`].
    pub(crate) fn merge(&mut self, other: Trajectory) {
        debug_assert_eq!(self.id, other.id, "merging different objects");
        if other.lifespan.start > self.lifespan.end {
            self.samples.extend_from_slice(&other.samples);
            self.lifespan.end = other.lifespan.end;
        } else {
            let mut samples = std::mem::take(&mut self.samples);
            samples.extend_from_slice(&other.samples);
            *self = Trajectory::new(self.id, samples);
        }
    }

    /// The sub-trajectory restricted to `interval`, if any samples fall
    /// inside it.
    pub fn slice(&self, interval: TimeInterval) -> Option<Trajectory> {
        let samples: Vec<Sample> = self
            .samples
            .iter()
            .filter(|s| interval.contains(s.time))
            .copied()
            .collect();
        if samples.is_empty() {
            None
        } else {
            Some(Trajectory::new(self.id, samples))
        }
    }
}

/// Error returned by [`Trajectory::append`] when the new sample does not
/// advance time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendError {
    /// Timestamp of the current last sample.
    pub last: Timestamp,
    /// Timestamp of the rejected sample.
    pub attempted: Timestamp,
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "appended sample at t={} does not advance past last sample at t={}",
            self.attempted, self.last
        )
    }
}

impl std::error::Error for AppendError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory::from_points(
            ObjectId::new(1),
            vec![(0, (0.0, 0.0)), (10, (100.0, 0.0)), (20, (100.0, 100.0))],
        )
    }

    #[test]
    fn samples_are_sorted_on_construction() {
        let t = Trajectory::from_points(
            ObjectId::new(7),
            vec![(20, (2.0, 0.0)), (0, (0.0, 0.0)), (10, (1.0, 0.0))],
        );
        let times: Vec<Timestamp> = t.samples().iter().map(|s| s.time).collect();
        assert_eq!(times, vec![0, 10, 20]);
    }

    #[test]
    fn duplicate_timestamps_keep_last_observation() {
        let t = Trajectory::new(
            ObjectId::new(1),
            vec![
                Sample::new(5, Point::new(1.0, 1.0)),
                Sample::new(5, Point::new(2.0, 2.0)),
            ],
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.position_at(5), Some(Point::new(2.0, 2.0)));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trajectory_rejected() {
        let _ = Trajectory::new(ObjectId::new(0), vec![]);
    }

    #[test]
    fn lifespan_covers_first_to_last() {
        assert_eq!(traj().lifespan(), TimeInterval::new(0, 20));
    }

    #[test]
    fn position_at_sample_ticks() {
        let t = traj();
        assert_eq!(t.position_at(0), Some(Point::new(0.0, 0.0)));
        assert_eq!(t.position_at(10), Some(Point::new(100.0, 0.0)));
        assert_eq!(t.position_at(20), Some(Point::new(100.0, 100.0)));
    }

    #[test]
    fn position_at_interpolates_virtual_points() {
        let t = traj();
        assert_eq!(t.position_at(5), Some(Point::new(50.0, 0.0)));
        assert_eq!(t.position_at(15), Some(Point::new(100.0, 50.0)));
        assert_eq!(t.position_at(1), Some(Point::new(10.0, 0.0)));
    }

    #[test]
    fn position_outside_lifespan_is_none() {
        let t = traj();
        assert_eq!(t.position_at(21), None);
        let t2 = Trajectory::from_points(ObjectId::new(2), vec![(5, (0.0, 0.0)), (9, (4.0, 0.0))]);
        assert_eq!(t2.position_at(4), None);
        assert_eq!(t2.position_at(10), None);
    }

    #[test]
    fn append_advancing_sample() {
        let mut t = traj();
        assert!(t.append(Sample::new(25, Point::new(0.0, 0.0))).is_ok());
        assert_eq!(t.lifespan(), TimeInterval::new(0, 25));
    }

    #[test]
    fn append_non_advancing_sample_is_rejected() {
        let mut t = traj();
        let err = t.append(Sample::new(20, Point::new(0.0, 0.0))).unwrap_err();
        assert_eq!(err.last, 20);
        assert_eq!(err.attempted, 20);
        assert!(err.to_string().contains("does not advance"));
    }

    #[test]
    fn slice_restricts_to_interval() {
        let t = traj();
        let s = t.slice(TimeInterval::new(5, 20)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.lifespan(), TimeInterval::new(10, 20));
        assert!(t.slice(TimeInterval::new(30, 40)).is_none());
    }

    /// The binary search `position_at` used before it probed: the reference
    /// the probing lookup must match bit for bit.
    fn position_at_reference(traj: &Trajectory, t: Timestamp) -> Option<Point> {
        let samples = traj.samples();
        if t < samples[0].time || t > samples[samples.len() - 1].time {
            return None;
        }
        match samples.binary_search_by_key(&t, |s| s.time) {
            Ok(idx) => Some(samples[idx].position),
            Err(idx) => {
                let (before, after) = (&samples[idx - 1], &samples[idx]);
                let span = (after.time - before.time) as f64;
                let frac = (t - before.time) as f64 / span;
                Some(before.position.lerp(&after.position, frac))
            }
        }
    }

    /// Checks `position_at` against the reference at every
    /// tick of the lifespan (`probes` of them when it is huge), its two ends
    /// and the ticks just outside.
    fn assert_matches_reference(traj: &Trajectory, probes: u32) {
        let life = traj.lifespan();
        let step = ((life.end - life.start) / probes).max(1);
        let inside = (life.start..=life.end).step_by(step as usize);
        let around = [
            life.start.checked_sub(1),
            Some(life.start),
            Some(life.end),
            life.end.checked_add(1),
            Some(0),
            Some(Timestamp::MAX),
        ];
        let sample_ticks = traj
            .samples()
            .iter()
            .flat_map(|s| [s.time.checked_sub(1), Some(s.time), s.time.checked_add(1)]);
        for t in inside.chain(around.into_iter().chain(sample_ticks).flatten()) {
            let got = traj.position_at(t);
            let want = position_at_reference(traj, t);
            assert_eq!(
                got.map(|p| (p.x.to_bits(), p.y.to_bits())),
                want.map(|p| (p.x.to_bits(), p.y.to_bits())),
                "object {} at t={t}",
                traj.id()
            );
        }
    }

    fn wobbly(t: Timestamp) -> (f64, f64) {
        let t = f64::from(t);
        (t * 0.37 + (t * 0.01).sin() * 1e4, 1e5 - t * 1.13)
    }

    #[test]
    fn position_at_equals_reference_search_on_every_sampling_shape() {
        let id = ObjectId::new(9);
        let from_ticks = |ticks: Vec<Timestamp>| {
            Trajectory::from_points(id, ticks.into_iter().map(|t| (t, wobbly(t))))
        };
        // Dense (the probe hits), regular with a stride (the probe brackets),
        // with a gap, front- and back-loaded (the probe lands far off on
        // either side), one and two samples.
        assert_matches_reference(&from_ticks((100..1540).collect()), u32::MAX);
        assert_matches_reference(&from_ticks((0..400).map(|i| 7 + i * 5).collect()), u32::MAX);
        assert_matches_reference(&from_ticks((0..300).chain(900..1200).collect()), u32::MAX);
        assert_matches_reference(
            &from_ticks((0..200).chain([5_000, 5_001, 9_999]).collect()),
            u32::MAX,
        );
        assert_matches_reference(
            &from_ticks([3, 4_000].into_iter().chain(9_800..10_000).collect()),
            u32::MAX,
        );
        assert_matches_reference(&from_ticks(vec![42]), u32::MAX);
        assert_matches_reference(&from_ticks(vec![42, 43]), u32::MAX);
        assert_matches_reference(&from_ticks(vec![10, 90]), u32::MAX);
    }

    #[test]
    fn position_at_equals_reference_search_on_random_irregular_trajectories() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x84);
        for round in 0..200 {
            let n = rng.gen_range(1..80);
            // Mixed strides: runs of consecutive ticks between long jumps.
            let mut t = rng.gen_range(0u32..50);
            let mut ticks = Vec::with_capacity(n);
            for _ in 0..n {
                ticks.push(t);
                t += if rng.gen_bool(0.7) {
                    1
                } else {
                    rng.gen_range(2..400)
                };
            }
            let traj = Trajectory::from_points(
                ObjectId::new(round),
                ticks.into_iter().map(|t| (t, wobbly(t))),
            );
            assert_matches_reference(&traj, u32::MAX);
        }
    }

    #[test]
    fn position_at_probe_does_not_overflow_near_the_timestamp_limit() {
        let id = ObjectId::new(9);
        let max = Timestamp::MAX;
        // A lifespan as wide as the time domain, densely sampled at its far
        // end: `(t − t₀)·(n − 1)` exceeds 32 bits by a wide margin.
        let ticks = [0, 1, 2].into_iter().chain(max - 5_000..=max);
        let wide = Trajectory::from_points(id, ticks.map(|t| (t, wobbly(t))));
        assert_matches_reference(&wide, 4_096);
        let late = Trajectory::from_points(id, (max - 300..=max).map(|t| (t, wobbly(t))));
        assert_matches_reference(&late, u32::MAX);
        assert_eq!(late.position_at(max - 301), None);
        // One and two samples at the limit, every tick sampled (the probe is
        // `t − t₀`, no division) or not.
        for ticks in [vec![max], vec![max - 1, max], vec![max - 9, max]] {
            let short = Trajectory::from_points(id, ticks.into_iter().map(|t| (t, wobbly(t))));
            assert_matches_reference(&short, u32::MAX);
        }
    }

    #[test]
    fn single_sample_trajectory_interpolation() {
        let t = Trajectory::from_points(ObjectId::new(4), vec![(7, (3.0, 4.0))]);
        assert_eq!(t.position_at(7), Some(Point::new(3.0, 4.0)));
        assert_eq!(t.position_at(6), None);
        assert_eq!(t.position_at(8), None);
        assert_eq!(t.lifespan().len(), 1);
    }
}

#[cfg(test)]
// Deterministic seeded-random property checks (the container builds offline,
// so these use the vendored `rand` shim instead of `proptest`).
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_samples(rng: &mut StdRng) -> Vec<(Timestamp, (f64, f64))> {
        let n = rng.gen_range(1..40);
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(0u32..1000),
                    (rng.gen_range(-1e5..1e5), rng.gen_range(-1e5..1e5)),
                )
            })
            .collect()
    }

    /// Interpolated positions always lie inside the bounding box of the
    /// neighbouring samples (convexity of linear interpolation).
    #[test]
    fn interpolation_stays_in_sample_bbox() {
        let mut rng = StdRng::seed_from_u64(0x81);
        for _ in 0..256 {
            let samples = random_samples(&mut rng);
            let t = rng.gen_range(0u32..1000);
            let traj = Trajectory::from_points(ObjectId::new(0), samples);
            if let Some(p) = traj.position_at(t) {
                let min_x = traj
                    .samples()
                    .iter()
                    .map(|s| s.position.x)
                    .fold(f64::INFINITY, f64::min);
                let max_x = traj
                    .samples()
                    .iter()
                    .map(|s| s.position.x)
                    .fold(f64::NEG_INFINITY, f64::max);
                let min_y = traj
                    .samples()
                    .iter()
                    .map(|s| s.position.y)
                    .fold(f64::INFINITY, f64::min);
                let max_y = traj
                    .samples()
                    .iter()
                    .map(|s| s.position.y)
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!(p.x >= min_x - 1e-6 && p.x <= max_x + 1e-6);
                assert!(p.y >= min_y - 1e-6 && p.y <= max_y + 1e-6);
            }
        }
    }

    /// `position_at` is defined exactly on the lifespan.
    #[test]
    fn position_defined_iff_in_lifespan() {
        let mut rng = StdRng::seed_from_u64(0x82);
        for _ in 0..256 {
            let samples = random_samples(&mut rng);
            let t = rng.gen_range(0u32..1100);
            let traj = Trajectory::from_points(ObjectId::new(0), samples);
            let lifespan = traj.lifespan();
            assert_eq!(traj.position_at(t).is_some(), lifespan.contains(t));
        }
    }

    /// Sample timestamps are strictly increasing after construction.
    #[test]
    fn samples_strictly_increasing() {
        let mut rng = StdRng::seed_from_u64(0x83);
        for _ in 0..256 {
            let samples = random_samples(&mut rng);
            let traj = Trajectory::from_points(ObjectId::new(0), samples);
            for w in traj.samples().windows(2) {
                assert!(w[0].time < w[1].time);
            }
        }
    }
}
