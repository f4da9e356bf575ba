//! [`Encode`]/[`Decode`] implementations for the workspace's domain types.
//!
//! Every implementation validates the type's invariants on decode and reports
//! violations as [`DecodeError::Corrupt`] instead of hitting the constructor
//! panics the in-memory API uses for programmer errors: a store or checkpoint
//! file is external input and must never abort the process.
//!
//! Types that cache derived geometry (cluster MBRs and centroids) are
//! serialised from their defining data only — members and points — and the
//! caches are deterministically recomputed by the constructors on decode, so
//! a decoded value is always indistinguishable from the originally encoded
//! one.

use gpdt_clustering::{ClusterDatabase, ClusterId, SnapshotClusterSet};
use gpdt_core::{
    Crowd, CrowdParams, CrowdRecord, Gathering, GatheringConfig, GatheringParams,
    RangeSearchStrategy, TadVariant,
};
use gpdt_geo::{Mbr, Point};
use gpdt_trajectory::{ObjectId, Sample, TimeInterval, Trajectory, TrajectoryDatabase};

use crate::codec::{column, decode_column, read_array, Decode, DecodeError, Encode};
use gpdt_clustering::ClusteringParams;

/// A coordinate word, refused unless finite.
fn finite(word: [u8; 8]) -> Result<f64, DecodeError> {
    Some(f64::from_le_bytes(word))
        .filter(|v| v.is_finite())
        .ok_or(DecodeError::Corrupt("non-finite point coordinate"))
}

/// A member-id word of a column.
pub(crate) fn object_id(word: [u8; 4]) -> Result<ObjectId, DecodeError> {
    Ok(ObjectId::new(u32::from_le_bytes(word)))
}

/// A cluster-id word of a column: the tick, then the index as a `u64`.
fn cluster_id(word: [u8; 12]) -> Result<ClusterId, DecodeError> {
    let mut r = &word[..];
    Ok(ClusterId::new(u32::decode(&mut r)?, usize::decode(&mut r)?))
}

impl Encode for Point {
    fn encode(&self, out: &mut Vec<u8>) {
        self.x.encode(out);
        self.y.encode(out);
    }
}

impl Decode for Point {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let x = finite(read_array(r)?)?;
        Ok(Point::new(x, finite(read_array(r)?)?))
    }
}

impl Encode for Mbr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.min_x.encode(out);
        self.min_y.encode(out);
        self.max_x.encode(out);
        self.max_y.encode(out);
    }
}

/// [`Mbr`] decoding's rule, which `PatternRecord::validate` shares: finite
/// corners, minimum ≤ maximum (`Mbr::new` asserts only the order).
pub(crate) fn mbr_is_valid(mbr: &Mbr) -> bool {
    let corners = [mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y];
    corners.iter().all(|v| v.is_finite()) && mbr.min_x <= mbr.max_x && mbr.min_y <= mbr.max_y
}

impl Decode for Mbr {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let mbr = Mbr {
            min_x: f64::decode(r)?,
            min_y: f64::decode(r)?,
            max_x: f64::decode(r)?,
            max_y: f64::decode(r)?,
        };
        if !mbr_is_valid(&mbr) {
            return Err(DecodeError::Corrupt("invalid MBR corners"));
        }
        Ok(mbr)
    }
}

impl Encode for ObjectId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }
}

impl Decode for ObjectId {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ObjectId::new(u32::decode(r)?))
    }
}

impl Encode for TimeInterval {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
    }
}

impl Decode for TimeInterval {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let start = u32::decode(r)?;
        let end = u32::decode(r)?;
        if start > end {
            return Err(DecodeError::Corrupt("reversed time interval"));
        }
        Ok(TimeInterval::new(start, end))
    }
}

impl Encode for Sample {
    fn encode(&self, out: &mut Vec<u8>) {
        self.time.encode(out);
        self.position.encode(out);
    }
}

impl Decode for Sample {
    const MIN_BYTES: usize = 20;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let time = u32::decode(r)?;
        let position = Point::decode(r)?;
        Ok(Sample::new(time, position))
    }
}

impl Encode for Trajectory {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id().encode(out);
        self.samples().encode(out);
    }
}

impl Decode for Trajectory {
    const MIN_BYTES: usize = 12;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let id = ObjectId::decode(r)?;
        let samples: Vec<Sample> = Vec::decode(r)?;
        if samples.is_empty() {
            return Err(DecodeError::Corrupt("trajectory without samples"));
        }
        Ok(Trajectory::new(id, samples))
    }
}

impl Encode for TrajectoryDatabase {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for trajectory in self.iter() {
            trajectory.encode(out);
        }
    }
}

impl Decode for TrajectoryDatabase {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let trajectories: Vec<Trajectory> = Vec::decode(r)?;
        Ok(TrajectoryDatabase::from_trajectories(trajectories))
    }
}

impl Encode for ClusteringParams {
    fn encode(&self, out: &mut Vec<u8>) {
        self.eps.encode(out);
        self.min_pts.encode(out);
    }
}

impl Decode for ClusteringParams {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let eps = f64::decode(r)?;
        let min_pts = usize::decode(r)?;
        if !(eps.is_finite() && eps > 0.0) || min_pts == 0 {
            return Err(DecodeError::Corrupt("invalid clustering parameters"));
        }
        Ok(ClusteringParams::new(eps, min_pts))
    }
}

impl Encode for CrowdParams {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mc.encode(out);
        self.kc.encode(out);
        self.delta.encode(out);
    }
}

impl Decode for CrowdParams {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let mc = usize::decode(r)?;
        let kc = u32::decode(r)?;
        let delta = f64::decode(r)?;
        if mc == 0 || kc == 0 || !(delta.is_finite() && delta > 0.0) {
            return Err(DecodeError::Corrupt("invalid crowd parameters"));
        }
        Ok(CrowdParams::new(mc, kc, delta))
    }
}

impl Encode for GatheringParams {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mp.encode(out);
        self.kp.encode(out);
    }
}

impl Decode for GatheringParams {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let mp = usize::decode(r)?;
        let kp = u32::decode(r)?;
        if mp == 0 || kp == 0 {
            return Err(DecodeError::Corrupt("invalid gathering parameters"));
        }
        Ok(GatheringParams::new(mp, kp))
    }
}

impl Encode for GatheringConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.clustering.encode(out);
        self.crowd.encode(out);
        self.gathering.encode(out);
    }
}

impl Decode for GatheringConfig {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let config = GatheringConfig {
            clustering: ClusteringParams::decode(r)?,
            crowd: CrowdParams::decode(r)?,
            gathering: GatheringParams::decode(r)?,
        };
        config
            .validate()
            .map_err(|_| DecodeError::Corrupt("inconsistent gathering configuration"))?;
        Ok(config)
    }
}

impl Encode for RangeSearchStrategy {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            RangeSearchStrategy::BruteForce => 0,
            RangeSearchStrategy::RTreeDmin => 1,
            RangeSearchStrategy::RTreeDside => 2,
            RangeSearchStrategy::Grid => 3,
            RangeSearchStrategy::Join => 4,
        };
        tag.encode(out);
    }
}

impl Decode for RangeSearchStrategy {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(RangeSearchStrategy::BruteForce),
            1 => Ok(RangeSearchStrategy::RTreeDmin),
            2 => Ok(RangeSearchStrategy::RTreeDside),
            3 => Ok(RangeSearchStrategy::Grid),
            4 => Ok(RangeSearchStrategy::Join),
            _ => Err(DecodeError::Corrupt("unknown range-search strategy tag")),
        }
    }
}

impl Encode for TadVariant {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            TadVariant::BruteForce => 0,
            TadVariant::Tad => 1,
            TadVariant::TadStar => 2,
        };
        tag.encode(out);
    }
}

impl Decode for TadVariant {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(TadVariant::BruteForce),
            1 => Ok(TadVariant::Tad),
            2 => Ok(TadVariant::TadStar),
            _ => Err(DecodeError::Corrupt("unknown detection variant tag")),
        }
    }
}

impl Encode for ClusterId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.time.encode(out);
        self.index.encode(out);
    }
}

impl Decode for ClusterId {
    const MIN_BYTES: usize = 12;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        cluster_id(read_array(r)?)
    }
}

impl Encode for SnapshotClusterSet {
    /// Columnar set frame: timestamp, cluster count, per-cluster lengths,
    /// then the tick's shared arenas as flat columns — all member ids, all x
    /// coordinates, all y coordinates.  One length prefix and three
    /// homogeneous streams instead of a header per cluster.
    fn encode(&self, out: &mut Vec<u8>) {
        self.time.encode(out);
        self.clusters.len().encode(out);
        for c in &self.clusters {
            c.len().encode(out);
        }
        for c in &self.clusters {
            for &id in c.members() {
                id.encode(out);
            }
        }
        for c in &self.clusters {
            for &x in c.points().xs() {
                x.encode(out);
            }
        }
        for c in &self.clusters {
            for &y in c.points().ys() {
                y.encode(out);
            }
        }
    }
}

impl Decode for SnapshotClusterSet {
    const MIN_BYTES: usize = 12;
    /// The lengths, then each column as one block straight into the tick's
    /// arena.
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let time = u32::decode(r)?;
        let lens = decode_column(r, |word| match u64::from_le_bytes(word) {
            0 => Err(DecodeError::Corrupt("empty snapshot cluster")),
            len => Ok(len),
        })?;
        let mut total = 0u64;
        for &len in &lens {
            total = total
                .checked_add(len)
                .filter(|&t| t <= u64::from(u32::MAX))
                .ok_or(DecodeError::Corrupt("cluster arena length overflows"))?;
        }
        let total = total as usize;
        let ids = column(r, total, object_id)?;
        let xs = column(r, total, finite)?;
        let ys = column(r, total, finite)?;
        let lens = lens.iter().map(|&len| len as usize);
        Ok(SnapshotClusterSet::from_columns(time, ids, xs, ys, lens))
    }
}

impl Encode for ClusterDatabase {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for set in self.iter() {
            set.encode(out);
        }
    }
}

impl Decode for ClusterDatabase {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let sets: Vec<SnapshotClusterSet> = Vec::decode(r)?;
        if sets
            .windows(2)
            .any(|w| w[0].time.checked_add(1) != Some(w[1].time))
        {
            return Err(DecodeError::Corrupt(
                "cluster sets do not cover contiguous timestamps",
            ));
        }
        Ok(ClusterDatabase::from_sets(sets))
    }
}

impl Encode for Crowd {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cluster_ids().encode(out);
    }
}

impl Decode for Crowd {
    const MIN_BYTES: usize = 8;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        Crowd::try_new(decode_column(r, cluster_id)?).map_err(DecodeError::Corrupt)
    }
}

impl Encode for Gathering {
    fn encode(&self, out: &mut Vec<u8>) {
        self.crowd().encode(out);
        self.participators().encode(out);
    }
}

impl Decode for Gathering {
    const MIN_BYTES: usize = 16;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let crowd = Crowd::decode(r)?;
        let participators = decode_column(r, object_id)?;
        Ok(Gathering::from_parts(crowd, participators))
    }
}

impl Encode for CrowdRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.crowd.encode(out);
        self.gatherings.encode(out);
    }
}

impl Decode for CrowdRecord {
    const MIN_BYTES: usize = 16;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let crowd = Crowd::decode(r)?;
        let gatherings: Vec<Gathering> = Vec::decode(r)?;
        Ok(CrowdRecord { crowd, gatherings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};
    use gpdt_clustering::SnapshotCluster;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = encode_to_vec(value);
        let back: T = decode_from_slice(&bytes).expect("roundtrip decodes");
        assert_eq!(&back, value);
    }

    /// Decoding any strict prefix must fail with a clean error, never panic.
    fn assert_truncations_fail<T: Encode + Decode + std::fmt::Debug>(value: &T) {
        let bytes = encode_to_vec(value);
        for cut in 0..bytes.len() {
            let err =
                decode_from_slice::<T>(&bytes[..cut]).expect_err("truncated input must not decode");
            assert!(
                matches!(err, DecodeError::UnexpectedEof | DecodeError::Corrupt(_)),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    fn random_point(rng: &mut StdRng) -> Point {
        Point::new(rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6))
    }

    fn random_cluster(rng: &mut StdRng, time: u32) -> SnapshotCluster {
        let n = rng.gen_range(1..8usize);
        let mut members: Vec<ObjectId> = Vec::with_capacity(n);
        while members.len() < n {
            let id = ObjectId::new(rng.gen_range(0u32..500));
            if !members.contains(&id) {
                members.push(id);
            }
        }
        let points: Vec<Point> = (0..n).map(|_| random_point(rng)).collect();
        SnapshotCluster::new(time, members, points)
    }

    fn random_cdb(rng: &mut StdRng) -> ClusterDatabase {
        let start = rng.gen_range(0u32..50);
        let ticks = rng.gen_range(1u32..8);
        let sets: Vec<SnapshotClusterSet> = (start..start + ticks)
            .map(|t| {
                let clusters = (0..rng.gen_range(0usize..4))
                    .map(|_| random_cluster(rng, t))
                    .collect();
                SnapshotClusterSet { time: t, clusters }
            })
            .collect();
        ClusterDatabase::from_sets(sets)
    }

    fn random_crowd(rng: &mut StdRng) -> Crowd {
        let start = rng.gen_range(0u32..100);
        let len = rng.gen_range(1u32..10);
        Crowd::new(
            (start..start + len)
                .map(|t| ClusterId::new(t, rng.gen_range(0usize..5)))
                .collect(),
        )
    }

    fn random_gathering(rng: &mut StdRng) -> Gathering {
        let participators: Vec<ObjectId> = (0..rng.gen_range(0usize..12))
            .map(|_| ObjectId::new(rng.gen_range(0u32..300)))
            .collect();
        Gathering::from_parts(random_crowd(rng), participators)
    }

    fn random_trajectory(rng: &mut StdRng) -> Trajectory {
        let n = rng.gen_range(1usize..20);
        let mut time = rng.gen_range(0u32..10);
        let samples: Vec<Sample> = (0..n)
            .map(|_| {
                let s = Sample::new(time, random_point(rng));
                time += rng.gen_range(1u32..5);
                s
            })
            .collect();
        Trajectory::new(ObjectId::new(rng.gen_range(0u32..100)), samples)
    }

    #[test]
    fn geometry_and_id_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0xA1);
        for _ in 0..128 {
            roundtrip(&random_point(&mut rng));
            let a = random_point(&mut rng);
            let b = random_point(&mut rng);
            roundtrip(&Mbr::new(
                a.x.min(b.x),
                a.y.min(b.y),
                a.x.max(b.x),
                a.y.max(b.y),
            ));
            roundtrip(&ObjectId::new(rng.gen_range(0u32..u32::MAX)));
            let t1 = rng.gen_range(0u32..1000);
            let t2 = rng.gen_range(0u32..1000);
            roundtrip(&TimeInterval::new(t1.min(t2), t1.max(t2)));
            roundtrip(&ClusterId::new(
                rng.gen_range(0u32..1000),
                rng.gen_range(0usize..64),
            ));
        }
    }

    #[test]
    fn trajectory_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0xA2);
        for _ in 0..64 {
            roundtrip(&random_trajectory(&mut rng));
        }
        let db = TrajectoryDatabase::from_trajectories((0..5).map(|_| random_trajectory(&mut rng)));
        let bytes = encode_to_vec(&db);
        let back: TrajectoryDatabase = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.len(), db.len());
        for (a, b) in back.iter().zip(db.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn cluster_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0xA3);
        for _ in 0..64 {
            let cdb = random_cdb(&mut rng);
            let bytes = encode_to_vec(&cdb);
            let back: ClusterDatabase = decode_from_slice(&bytes).unwrap();
            assert_eq!(back.time_domain(), cdb.time_domain());
            for (a, b) in back.iter().zip(cdb.iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn pattern_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0xA4);
        for _ in 0..64 {
            roundtrip(&random_crowd(&mut rng));
            roundtrip(&random_gathering(&mut rng));
            let record = CrowdRecord {
                crowd: random_crowd(&mut rng),
                gatherings: (0..rng.gen_range(0usize..4))
                    .map(|_| random_gathering(&mut rng))
                    .collect(),
            };
            let bytes = encode_to_vec(&record);
            let back: CrowdRecord = decode_from_slice(&bytes).unwrap();
            assert_eq!(back.crowd, record.crowd);
            assert_eq!(back.gatherings, record.gatherings);
        }
    }

    #[test]
    fn params_roundtrips() {
        roundtrip(&ClusteringParams::paper_default());
        roundtrip(&CrowdParams::paper_default());
        roundtrip(&GatheringParams::paper_default());
        roundtrip(&GatheringConfig::paper_default());
        for strategy in RangeSearchStrategy::ALL {
            roundtrip(&strategy);
        }
        for variant in TadVariant::ALL {
            roundtrip(&variant);
        }
    }

    #[test]
    fn truncated_domain_values_fail_cleanly() {
        let mut rng = StdRng::seed_from_u64(0xA5);
        assert_truncations_fail(&random_crowd(&mut rng));
        assert_truncations_fail(&random_gathering(&mut rng));
        assert_truncations_fail(&random_trajectory(&mut rng));
        assert_truncations_fail(&GatheringConfig::paper_default());
        assert_truncations_fail(&random_cdb(&mut rng));
    }

    #[test]
    fn corrupt_domain_values_are_rejected() {
        // Reversed interval.
        let mut bytes = Vec::new();
        9u32.encode(&mut bytes);
        3u32.encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<TimeInterval>(&bytes),
            Err(DecodeError::Corrupt(_))
        ));

        // Empty crowd.
        let bytes = encode_to_vec(&Vec::<ClusterId>::new());
        assert!(matches!(
            decode_from_slice::<Crowd>(&bytes),
            Err(DecodeError::Corrupt(_))
        ));

        // Crowd with a time gap, and one that wraps past the last tick.
        for ids in [[0, 2], [u32::MAX, 0]] {
            let bytes = encode_to_vec(&ids.map(|t| ClusterId::new(t, 0)).to_vec());
            assert!(matches!(
                decode_from_slice::<Crowd>(&bytes),
                Err(DecodeError::Corrupt(_))
            ));
        }

        // Unknown enum tags.
        assert!(matches!(
            decode_from_slice::<RangeSearchStrategy>(&[9]),
            Err(DecodeError::Corrupt(_))
        ));
        assert!(matches!(
            decode_from_slice::<TadVariant>(&[9]),
            Err(DecodeError::Corrupt(_))
        ));

        // Non-contiguous cluster databases: a gap, and a wrap past the
        // last tick.
        let mut rng = StdRng::seed_from_u64(0xA6);
        for times in [[0, 2], [u32::MAX, 0]] {
            let sets = times.map(|time| SnapshotClusterSet {
                time,
                clusters: vec![random_cluster(&mut rng, time)],
            });
            let bytes = encode_to_vec(&sets.to_vec());
            assert!(matches!(
                decode_from_slice::<ClusterDatabase>(&bytes),
                Err(DecodeError::Corrupt(_))
            ));
        }

        // Inconsistent configuration (kp > kc).
        let mut bytes = Vec::new();
        ClusteringParams::paper_default().encode(&mut bytes);
        CrowdParams::new(15, 5, 300.0).encode(&mut bytes);
        GatheringParams::new(10, 15).encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<GatheringConfig>(&bytes),
            Err(DecodeError::Corrupt(_))
        ));

        // Non-finite point.
        let mut bytes = Vec::new();
        f64::NAN.encode(&mut bytes);
        0.0f64.encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<Point>(&bytes),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn columnar_set_decode_rebuilds_one_shared_arena() {
        let mut rng = StdRng::seed_from_u64(0xA7);
        let clusters: Vec<SnapshotCluster> = (0..4).map(|_| random_cluster(&mut rng, 3)).collect();
        let set = SnapshotClusterSet { time: 3, clusters };
        let back: SnapshotClusterSet = decode_from_slice(&encode_to_vec(&set)).unwrap();
        assert_eq!(back.time, set.time);
        assert_eq!(back.clusters, set.clusters);
        // The decoded clusters must live back to back in a single tick
        // arena: each cluster's coordinate slice starts exactly where the
        // previous one ends.
        for pair in back.clusters.windows(2) {
            let (a, b) = (pair[0].points(), pair[1].points());
            assert_eq!(a.xs().as_ptr_range().end, b.xs().as_ptr_range().start);
            assert_eq!(a.ys().as_ptr_range().end, b.ys().as_ptr_range().start);
        }
    }

    #[test]
    fn corrupt_columnar_set_frames_are_rejected() {
        // A zero cluster length.
        let mut bytes = Vec::new();
        7u32.encode(&mut bytes);
        1usize.encode(&mut bytes);
        0usize.encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<SnapshotClusterSet>(&bytes),
            Err(DecodeError::Corrupt("empty snapshot cluster"))
        ));

        // A non-finite coordinate in the x column.
        let mut bytes = Vec::new();
        7u32.encode(&mut bytes);
        1usize.encode(&mut bytes);
        1usize.encode(&mut bytes);
        ObjectId::new(1).encode(&mut bytes);
        f64::INFINITY.encode(&mut bytes);
        0.0f64.encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<SnapshotClusterSet>(&bytes),
            Err(DecodeError::Corrupt("non-finite point coordinate"))
        ));

        // Cluster lengths whose sum overflows the u32 arena range.
        let mut bytes = Vec::new();
        7u32.encode(&mut bytes);
        2usize.encode(&mut bytes);
        (u32::MAX as usize).encode(&mut bytes);
        (u32::MAX as usize).encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<SnapshotClusterSet>(&bytes),
            Err(DecodeError::Corrupt("cluster arena length overflows"))
        ));
    }
}
