//! Sharded-engine checkpoints: serialise a [`ShardedEngine`] so a partitioned
//! stream can resume after a crash at any tick boundary.
//!
//! A sharded checkpoint holds the cluster history once — in the
//! coordinator's global (retention-bounded) cluster database — next to the
//! rest of the merge state: the partitioner, the open merge paths, the
//! cross-edge endpoint sets and the merged finalized records.  Each shard
//! then adds a [`ShardState`]: its first retained tick, its tick count, its
//! finalized records and its frontier.  Neither the per-tick partition
//! layouts nor the shards' own cluster databases are stored — the
//! partitioner is a deterministic function of the cluster contents, so
//! [`ShardedEngine::from_parts`] rebuilds the layouts from the stored
//! database, derives every shard's database through them, and rejects a
//! shard section whose frontier is not what a sweep of that database leaves
//! behind.
//!
//! ```
//! use gpdt_core::GatheringConfig;
//! use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};
//! use gpdt_store::EngineCheckpoint;
//! use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
//!
//! let db = TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
//!     Trajectory::from_points(
//!         ObjectId::new(i),
//!         (0..8u32).map(|t| (t, (i as f64 * 10.0, t as f64))).collect::<Vec<_>>(),
//!     )
//! }));
//! let config = GatheringConfig::builder()
//!     .clustering(gpdt_core::ClusteringParams::new(60.0, 3))
//!     .crowd(gpdt_core::CrowdParams::new(4, 4, 100.0))
//!     .gathering(gpdt_core::GatheringParams::new(3, 3))
//!     .build()
//!     .unwrap();
//!
//! // Stream half, checkpoint, "crash", restore, stream the rest.
//! let partitioner = Partitioner::Grid(GridPartitioner::new(400.0));
//! let mut engine = ShardedEngine::new(config, 3, partitioner);
//! engine.ingest_trajectories_until(&db, 3);
//! let mut bytes = Vec::new();
//! engine.checkpoint(&mut bytes);
//! drop(engine);
//!
//! let mut resumed = ShardedEngine::restore(&mut bytes.as_slice()).unwrap();
//! resumed.ingest_trajectories(&db);
//!
//! let mut uninterrupted = ShardedEngine::new(config, 3, partitioner);
//! uninterrupted.ingest_trajectories(&db);
//! assert_eq!(resumed.gatherings(), uninterrupted.gatherings());
//! ```

use gpdt_clustering::{ClusterDatabase, ClusterId};
use gpdt_core::{Crowd, CrowdRecord, GatheringConfig, RangeSearchStrategy, TadVariant};
use gpdt_shard::{GridPartitioner, Partitioner, ShardState, ShardedEngine, MAX_SHARDS};

use crate::checkpoint::EngineCheckpoint;
use crate::codec::{read_header, write_header, Decode, DecodeError, Encode};

/// Magic string at the start of every sharded checkpoint.
pub const SHARDED_CHECKPOINT_MAGIC: [u8; 8] = *b"GPDTSHC\0";

/// Current sharded-checkpoint format version, the only one read or written.
///
/// Version history:
///
/// * **1**, **2** — every shard section was a whole embedded engine
///   checkpoint, cluster database included (row-oriented, then columnar).
/// * **3** — shard sections are [`ShardState`]s; the global cluster database
///   is the only copy of the history.
pub const SHARDED_CHECKPOINT_VERSION: u16 = 3;

impl Encode for Partitioner {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Partitioner::Grid(grid) => {
                0u8.encode(out);
                grid.cell_side().encode(out);
                let (ox, oy) = grid.origin();
                ox.encode(out);
                oy.encode(out);
            }
            Partitioner::HashByObject => 1u8.encode(out),
        }
    }
}

impl Decode for Partitioner {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => {
                let cell_side = f64::decode(r)?;
                let ox = f64::decode(r)?;
                let oy = f64::decode(r)?;
                if !(cell_side.is_finite() && cell_side > 0.0 && ox.is_finite() && oy.is_finite()) {
                    return Err(DecodeError::Corrupt("invalid grid partitioner geometry"));
                }
                Ok(Partitioner::Grid(GridPartitioner::with_origin(
                    cell_side, ox, oy,
                )))
            }
            1 => Ok(Partitioner::HashByObject),
            _ => Err(DecodeError::Corrupt("unknown partitioner tag")),
        }
    }
}

impl Encode for ShardState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.first_tick.encode(out);
        self.ticks_ingested.encode(out);
        self.finalized.encode(out);
        self.frontier.encode(out);
    }
}

impl Decode for ShardState {
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ShardState {
            first_tick: Option::decode(r)?,
            ticks_ingested: u64::decode(r)?,
            finalized: Vec::decode(r)?,
            frontier: Vec::decode(r)?,
        })
    }
}

impl EngineCheckpoint for ShardedEngine {
    fn checkpoint(&self, out: &mut Vec<u8>) {
        write_header(out, &SHARDED_CHECKPOINT_MAGIC, SHARDED_CHECKPOINT_VERSION);
        self.config().encode(out);
        self.strategy().encode(out);
        self.variant().encode(out);
        self.partitioner().encode(out);
        self.cluster_database().encode(out);
        self.merge_frontier().encode(out);
        self.cross_edge_heads().encode(out);
        self.cross_edge_tails().encode(out);
        self.finalized_records().encode(out);
        // The shard count, then a section per shard.
        self.shard_states().encode(out);
    }

    fn restore(r: &mut &[u8]) -> Result<Self, DecodeError> {
        read_header(r, &SHARDED_CHECKPOINT_MAGIC, SHARDED_CHECKPOINT_VERSION)?;
        let config = GatheringConfig::decode(r)?;
        let strategy = RangeSearchStrategy::decode(r)?;
        let variant = TadVariant::decode(r)?;
        let partitioner = Partitioner::decode(r)?;
        let cdb = ClusterDatabase::decode(r)?;
        let merge: Vec<Crowd> = Vec::decode(r)?;
        let cross_in: Vec<ClusterId> = Vec::decode(r)?;
        let cross_out: Vec<ClusterId> = Vec::decode(r)?;
        let finalized: Vec<CrowdRecord> = Vec::decode(r)?;
        // No engine runs more shards than `MAX_SHARDS`; a count beyond it
        // must not have its sections read, nor size the per-tick layouts.
        let shard_count = u64::decode(r)?;
        if shard_count == 0 || shard_count > MAX_SHARDS as u64 {
            return Err(DecodeError::Corrupt("implausible shard count"));
        }
        let shards = (0..shard_count)
            .map(|_| ShardState::decode(r))
            .collect::<Result<Vec<_>, _>>()?;
        ShardedEngine::from_parts(
            config,
            strategy,
            variant,
            partitioner,
            shards,
            cdb,
            merge,
            cross_in,
            cross_out,
            finalized,
        )
        .map_err(DecodeError::Corrupt)
    }
}

/// Convenience wrapper: checkpoints a sharded engine into a byte vector.
pub fn sharded_checkpoint_to_vec(engine: &ShardedEngine) -> Vec<u8> {
    let mut out = Vec::new();
    sharded_checkpoint_into_vec(engine, &mut out);
    out
}

/// Checkpoints a sharded engine into `out`, replacing its contents and
/// reusing its allocation.
pub(crate) fn sharded_checkpoint_into_vec(engine: &ShardedEngine, out: &mut Vec<u8>) {
    out.clear();
    engine.checkpoint(out);
}

/// Convenience wrapper: restores a sharded engine from a byte slice,
/// requiring the slice to be consumed exactly.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or trailing bytes.
pub fn restore_sharded_from_slice(mut bytes: &[u8]) -> Result<ShardedEngine, DecodeError> {
    let engine = ShardedEngine::restore(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(DecodeError::Corrupt("trailing bytes after checkpoint"));
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_core::{
        ClusteringParams, CrowdParams, GatheringEngine, GatheringParams, RetentionPolicy,
    };
    use gpdt_shard::ShardedUpdate;
    use gpdt_trajectory::{ObjectId, Timestamp, Trajectory, TrajectoryDatabase};

    fn config() -> GatheringConfig {
        GatheringConfig::builder()
            .clustering(ClusteringParams::new(60.0, 3))
            .crowd(CrowdParams::new(3, 3, 120.0))
            .gathering(GatheringParams::new(3, 3))
            .build()
            .unwrap()
    }

    fn drifting_db(ticks: u32) -> TrajectoryDatabase {
        TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
            Trajectory::from_points(
                ObjectId::new(i),
                (0..ticks)
                    .map(|t| (t, (f64::from(t) * 60.0 + f64::from(i) * 8.0, f64::from(i))))
                    .collect::<Vec<_>>(),
            )
        }))
    }

    fn partitioner() -> Partitioner {
        Partitioner::Grid(GridPartitioner::new(150.0))
    }

    /// A two-shard engine eight ticks into the drift, and its shard states.
    fn drifted() -> (ShardedEngine, Vec<ShardState>) {
        let mut engine = ShardedEngine::new(config(), 2, partitioner());
        engine.ingest_trajectories(&drifting_db(8));
        let states = engine.shard_states();
        (engine, states)
    }

    /// `engine`'s checkpoint with its shard sections replaced: the header
    /// says `version`, the count field `count`, and `sections` follow.
    fn forge(engine: &ShardedEngine, version: u16, count: u64, sections: &[ShardState]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &SHARDED_CHECKPOINT_MAGIC, version);
        engine.config().encode(&mut bytes);
        engine.strategy().encode(&mut bytes);
        engine.variant().encode(&mut bytes);
        engine.partitioner().encode(&mut bytes);
        engine.cluster_database().encode(&mut bytes);
        engine.merge_frontier().encode(&mut bytes);
        engine.cross_edge_heads().encode(&mut bytes);
        engine.cross_edge_tails().encode(&mut bytes);
        engine.finalized_records().encode(&mut bytes);
        count.encode(&mut bytes);
        for state in sections {
            state.encode(&mut bytes);
        }
        bytes
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match restore_sharded_from_slice(bytes) {
            Err(DecodeError::Corrupt(_)) => {}
            other => panic!(
                "{what}: expected Corrupt, got {:?}",
                other.map(|_| "an engine")
            ),
        }
    }

    #[test]
    fn partitioner_codec_roundtrips_and_rejects_garbage() {
        for p in [
            Partitioner::Grid(GridPartitioner::with_origin(250.0, -3.0, 7.5)),
            Partitioner::HashByObject,
        ] {
            let bytes = crate::codec::encode_to_vec(&p);
            let back: Partitioner = crate::codec::decode_from_slice(&bytes).unwrap();
            assert_eq!(back, p);
        }
        assert!(matches!(
            crate::codec::decode_from_slice::<Partitioner>(&[9]),
            Err(DecodeError::Corrupt(_))
        ));
        // Grid with a non-finite side is rejected, not a panic.
        let mut bytes = vec![0u8];
        f64::NAN.encode(&mut bytes);
        0.0f64.encode(&mut bytes);
        0.0f64.encode(&mut bytes);
        assert!(matches!(
            crate::codec::decode_from_slice::<Partitioner>(&bytes),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_sharded_engine_roundtrips() {
        let engine = ShardedEngine::new(config(), 4, partitioner());
        let bytes = sharded_checkpoint_to_vec(&engine);
        let back = restore_sharded_from_slice(&bytes).unwrap();
        assert_eq!(back.shard_count(), 4);
        assert_eq!(back.partitioner(), engine.partitioner());
        assert!(back.time_domain().is_none());
        assert!(back.closed_crowds().is_empty());
    }

    #[test]
    fn mid_stream_sharded_state_roundtrips_and_resumes_identically() {
        let db = drifting_db(14);
        let mut engine = ShardedEngine::new(config(), 3, partitioner());
        engine.ingest_trajectories_until(&db, 7);

        let bytes = sharded_checkpoint_to_vec(&engine);
        let mut restored = restore_sharded_from_slice(&bytes).unwrap();
        assert_eq!(restored.closed_crowds(), engine.closed_crowds());
        assert_eq!(restored.gatherings(), engine.gatherings());
        assert_eq!(restored.finalized_records(), engine.finalized_records());
        assert_eq!(sharded_checkpoint_to_vec(&restored), bytes);

        restored.ingest_trajectories(&db);
        engine.ingest_trajectories(&db);
        assert_eq!(restored.closed_crowds(), engine.closed_crowds());
        assert_eq!(restored.gatherings(), engine.gatherings());
        assert_eq!(
            sharded_checkpoint_to_vec(&restored),
            sharded_checkpoint_to_vec(&engine)
        );
    }

    /// Four taxis sampled at the last two representable ticks, crossing a
    /// cell border between them: two shards find what one engine does, a
    /// second ingest is a no-op, and a checkpoint taken there restores
    /// equal — under both retention policies.
    #[test]
    fn the_last_representable_tick_does_not_wrap() {
        let max = Timestamp::MAX;
        let config = GatheringConfig::builder()
            .clustering(ClusteringParams::new(60.0, 3))
            .crowd(CrowdParams::new(3, 2, 120.0))
            .gathering(GatheringParams::new(3, 2))
            .build()
            .unwrap();
        let db = TrajectoryDatabase::from_trajectories((0..4u32).map(|i| {
            let x = 100.0 + f64::from(i) * 10.0;
            Trajectory::from_points(
                ObjectId::new(i),
                [(max - 1, (x, 0.0)), (max, (x + 60.0, 0.0))],
            )
        }));
        for retention in [RetentionPolicy::KeepAll, RetentionPolicy::Bounded] {
            let mut single = GatheringEngine::new(config).with_retention(retention);
            single.ingest_trajectories(&db);
            let mut sharded =
                ShardedEngine::new(config, 2, partitioner()).with_retention(retention);
            sharded.ingest_trajectories(&db);
            assert_eq!(sharded.time_domain(), single.time_domain());
            assert_eq!(sharded.stats().cross_edges, 1, "{retention:?}");
            assert_eq!(sharded.closed_crowds(), single.closed_crowds());
            assert_eq!(sharded.gatherings(), single.gatherings());
            assert_eq!(sharded.gatherings().len(), 1, "{retention:?}");
            assert_eq!(sharded.finalized_records(), single.finalized_records());

            let bytes = sharded_checkpoint_to_vec(&sharded);
            assert_eq!(sharded.ingest_trajectories(&db), ShardedUpdate::default());
            assert_eq!(sharded_checkpoint_to_vec(&sharded), bytes);

            let mut restored = restore_sharded_from_slice(&bytes)
                .unwrap()
                .with_retention(retention);
            assert_eq!(restored.time_domain(), sharded.time_domain());
            assert_eq!(restored.closed_crowds(), sharded.closed_crowds());
            assert_eq!(restored.gatherings(), sharded.gatherings());
            assert_eq!(restored.finalized_records(), sharded.finalized_records());
            assert_eq!(restored.ingest_trajectories(&db), ShardedUpdate::default());
            assert_eq!(sharded_checkpoint_to_vec(&restored), bytes);
        }
    }

    #[test]
    fn truncations_never_panic() {
        let (engine, states) = drifted();
        let bytes = sharded_checkpoint_to_vec(&engine);
        assert_eq!(
            bytes,
            forge(&engine, SHARDED_CHECKPOINT_VERSION, 2, &states),
            "the forging helper writes the real layout"
        );
        for cut in 0..bytes.len() {
            assert!(
                restore_sharded_from_slice(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert_corrupt(&trailing, "trailing byte");
    }

    #[test]
    fn older_versions_are_unsupported() {
        let (engine, states) = drifted();
        for version in [1, 2, SHARDED_CHECKPOINT_VERSION + 1] {
            assert!(matches!(
                restore_sharded_from_slice(&forge(&engine, version, 2, &states)),
                Err(DecodeError::UnsupportedVersion { found, supported: SHARDED_CHECKPOINT_VERSION })
                    if found == version
            ));
        }
    }

    #[test]
    fn shard_count_mismatch_is_rejected() {
        // Seven groups lingering in seven grid cells, so either deal leaves
        // every shard with several frontier paths.
        let lingering = TrajectoryDatabase::from_trajectories((0..28u32).map(|i| {
            let x = f64::from(i / 4) * 1_000.0 + f64::from(i % 4) * 8.0;
            Trajectory::from_points(
                ObjectId::new(i),
                (0..8u32)
                    .map(|t| (t, (x, f64::from(t))))
                    .collect::<Vec<_>>(),
            )
        }));
        let mut engine = ShardedEngine::new(config(), 2, partitioner());
        engine.ingest_trajectories(&lingering);
        let states = engine.shard_states();
        // One section short of the declared count: the input just ends.
        assert!(matches!(
            restore_sharded_from_slice(&forge(
                &engine,
                SHARDED_CHECKPOINT_VERSION,
                2,
                &states[..1]
            )),
            Err(DecodeError::UnexpectedEof)
        ));
        // A count the sections agree with but the checkpointed engine did
        // not have: the partitioner deals the clusters out three ways, and
        // the two real frontiers no longer fit what they are dealt.
        let mut three = states.clone();
        three.push(ShardState {
            first_tick: states[0].first_tick,
            ticks_ingested: states[0].ticks_ingested,
            ..ShardState::default()
        });
        assert_corrupt(
            &forge(&engine, SHARDED_CHECKPOINT_VERSION, 3, &three),
            "three shards for a two-shard stream",
        );
        // Counts no machine has are refused before anything is sized by them.
        for count in [0, MAX_SHARDS as u64 + 1, u64::MAX] {
            assert_corrupt(
                &forge(&engine, SHARDED_CHECKPOINT_VERSION, count, &states),
                "implausible count",
            );
        }
    }

    #[test]
    fn hostile_shard_sections_are_corrupt_not_a_panic() {
        let (engine, states) = drifted();
        let domain = engine.time_domain().unwrap();
        let busy = (0..2)
            .find(|&s| !states[s].frontier.is_empty())
            .expect("the drift is on some shard's frontier");
        let forged = |edit: &dyn Fn(&mut Vec<ShardState>)| {
            let mut sections = states.clone();
            edit(&mut sections);
            forge(&engine, SHARDED_CHECKPOINT_VERSION, 2, &sections)
        };

        assert_corrupt(&forged(&|s| s.swap(0, 1)), "swapped sections");
        assert_corrupt(
            &forged(&|s| {
                let (crowd, _) = &mut s[busy].frontier[0];
                *crowd = Crowd::new(vec![ClusterId::new(crowd.end_time(), 999)]);
            }),
            "frontier id past the shard's last tick",
        );
        assert_corrupt(
            &forged(&|s| {
                let gathering = gpdt_core::Gathering::from_parts(
                    Crowd::new(vec![ClusterId::new(domain.end, 999)]),
                    Vec::new(),
                );
                s[busy].frontier[0].1.push(gathering);
            }),
            "frontier gathering id that does not resolve",
        );
        assert_corrupt(
            &forged(&|s| {
                let crowd = Crowd::new(vec![ClusterId::new(domain.end, 999)]);
                s[busy].finalized.push(CrowdRecord {
                    crowd,
                    gatherings: Vec::new(),
                });
            }),
            "finalized id that does not resolve",
        );
        assert_corrupt(
            &forged(&|s| s[busy].frontier.clear()),
            "frontier missing a cluster",
        );
        for first_tick in [None, Some(domain.end + 1), Some(u32::MAX)] {
            assert_corrupt(
                &forged(&|s| s[0].first_tick = first_tick),
                "first retained tick outside the global domain",
            );
        }
        assert_corrupt(
            &forged(&|s| s[0].ticks_ingested = 0),
            "fewer ticks ingested than retained",
        );

        // A forged length is read up to, never allocated for: the section's
        // frontier claims u64::MAX entries and the input simply runs out.
        let mut bytes = forge(&engine, SHARDED_CHECKPOINT_VERSION, 2, &states[..1]);
        states[1].first_tick.encode(&mut bytes);
        states[1].ticks_ingested.encode(&mut bytes);
        states[1].finalized.encode(&mut bytes);
        u64::MAX.encode(&mut bytes);
        assert!(matches!(
            restore_sharded_from_slice(&bytes),
            Err(DecodeError::UnexpectedEof)
        ));
    }
}
