//! Sharded-engine checkpoints: serialise a [`ShardedEngine`] so a partitioned
//! stream can resume after a crash at any tick boundary.
//!
//! A sharded checkpoint is the composition of the per-shard
//! [`EngineCheckpoint`]s with the coordinator state the merge pass needs:
//! the partitioner, the global (retention-bounded) cluster database, the
//! open merge paths, the cross-edge endpoint sets and the merged finalized
//! records.  The per-tick partition layouts are *not* stored — the
//! partitioner is a deterministic function of the cluster contents, so
//! [`ShardedEngine::from_parts`] rebuilds them from the stored database and
//! cross-checks them against the shard engines' own databases, rejecting a
//! checkpoint whose pieces disagree.
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
//! engine.checkpoint(&mut bytes).unwrap();
//! drop(engine);
//!
//! let mut resumed = ShardedEngine::restore(&mut bytes.as_slice()).unwrap();
//! resumed.ingest_trajectories(&db);
//!
//! let mut uninterrupted = ShardedEngine::new(config, 3, partitioner);
//! uninterrupted.ingest_trajectories(&db);
//! assert_eq!(resumed.gatherings(), uninterrupted.gatherings());
//! ```

use std::io::{self, Read, Write};

use gpdt_clustering::{ClusterDatabase, ClusterId};
use gpdt_core::{
    Crowd, CrowdRecord, GatheringConfig, GatheringEngine, RangeSearchStrategy, TadVariant,
};
use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};

use crate::checkpoint::EngineCheckpoint;
use crate::codec::{read_header, write_header, Decode, DecodeError, Encode};

/// Magic string at the start of every sharded checkpoint.
pub const SHARDED_CHECKPOINT_MAGIC: [u8; 8] = *b"GPDTSHC\0";

/// Current sharded-checkpoint format version.
///
/// Moves in lockstep with [`crate::CHECKPOINT_VERSION`]: v2 switches the
/// merged cluster database to the columnar set frames (the embedded per-shard
/// engine checkpoints carry their own versioned headers).
pub const SHARDED_CHECKPOINT_VERSION: u16 = 2;

/// An upper bound nobody reasonable exceeds; a corrupt shard count must not
/// drive a decode loop for billions of engines.
const MAX_SHARDS: u64 = 1 << 16;

impl Encode for Partitioner {
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        match self {
            Partitioner::Grid(grid) => {
                0u8.encode(w)?;
                grid.cell_side().encode(w)?;
                let (ox, oy) = grid.origin();
                ox.encode(w)?;
                oy.encode(w)
            }
            Partitioner::HashByObject => 1u8.encode(w),
        }
    }
}

impl Decode for Partitioner {
    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, DecodeError> {
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

impl EngineCheckpoint for ShardedEngine {
    fn checkpoint<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        write_header(w, &SHARDED_CHECKPOINT_MAGIC, SHARDED_CHECKPOINT_VERSION)?;
        self.config().encode(w)?;
        self.strategy().encode(w)?;
        self.variant().encode(w)?;
        self.partitioner().encode(w)?;
        self.cluster_database().encode(w)?;
        self.merge_frontier().encode(w)?;
        self.cross_edge_heads().encode(w)?;
        self.cross_edge_tails().encode(w)?;
        self.finalized_records().encode(w)?;
        (self.shard_count() as u64).encode(w)?;
        for engine in self.shard_engines() {
            engine.checkpoint(w)?;
        }
        Ok(())
    }

    fn restore<R: Read + ?Sized>(r: &mut R) -> Result<Self, DecodeError> {
        let version = read_header(r, &SHARDED_CHECKPOINT_MAGIC, SHARDED_CHECKPOINT_VERSION)?;
        let config = GatheringConfig::decode(r)?;
        let strategy = RangeSearchStrategy::decode(r)?;
        let variant = TadVariant::decode(r)?;
        let partitioner = Partitioner::decode(r)?;
        let cdb = if version == 1 {
            crate::model::decode_cluster_database_v1(r)?
        } else {
            ClusterDatabase::decode(r)?
        };
        let merge: Vec<Crowd> = Vec::decode(r)?;
        let cross_in: Vec<ClusterId> = Vec::decode(r)?;
        let cross_out: Vec<ClusterId> = Vec::decode(r)?;
        let finalized: Vec<CrowdRecord> = Vec::decode(r)?;
        let shard_count = u64::decode(r)?;
        if shard_count == 0 || shard_count > MAX_SHARDS {
            return Err(DecodeError::Corrupt("implausible shard count"));
        }
        let mut shards = Vec::with_capacity(shard_count as usize);
        for _ in 0..shard_count {
            shards.push(GatheringEngine::restore(r)?);
        }
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
    engine
        .checkpoint(out)
        .expect("writing to a Vec never fails");
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
    use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};
    use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};

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
        f64::NAN.encode(&mut bytes).unwrap();
        0.0f64.encode(&mut bytes).unwrap();
        0.0f64.encode(&mut bytes).unwrap();
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
        assert_eq!(
            restored.finalized_records().len(),
            engine.finalized_records().len()
        );

        restored.ingest_trajectories(&db);
        engine.ingest_trajectories(&db);
        assert_eq!(restored.closed_crowds(), engine.closed_crowds());
        assert_eq!(restored.gatherings(), engine.gatherings());
    }

    #[test]
    fn truncations_never_panic() {
        let db = drifting_db(8);
        let mut engine = ShardedEngine::new(config(), 2, partitioner());
        engine.ingest_trajectories(&db);
        let bytes = sharded_checkpoint_to_vec(&engine);
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                restore_sharded_from_slice(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            restore_sharded_from_slice(&trailing),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn shard_count_mismatch_is_rejected() {
        // Re-encode a valid checkpoint with one shard engine chopped off:
        // the declared count no longer matches and decoding must fail
        // cleanly (either truncation or a corruption error).
        let db = drifting_db(8);
        let mut engine = ShardedEngine::new(config(), 2, partitioner());
        engine.ingest_trajectories(&db);

        let mut bytes = Vec::new();
        write_header(
            &mut bytes,
            &SHARDED_CHECKPOINT_MAGIC,
            SHARDED_CHECKPOINT_VERSION,
        )
        .unwrap();
        engine.config().encode(&mut bytes).unwrap();
        engine.strategy().encode(&mut bytes).unwrap();
        engine.variant().encode(&mut bytes).unwrap();
        engine.partitioner().encode(&mut bytes).unwrap();
        engine.cluster_database().encode(&mut bytes).unwrap();
        engine.merge_frontier().encode(&mut bytes).unwrap();
        engine.cross_edge_heads().encode(&mut bytes).unwrap();
        engine.cross_edge_tails().encode(&mut bytes).unwrap();
        engine.finalized_records().encode(&mut bytes).unwrap();
        2u64.encode(&mut bytes).unwrap();
        engine.shard_engines()[0].checkpoint(&mut bytes).unwrap();
        assert!(restore_sharded_from_slice(&bytes).is_err());
    }
}
