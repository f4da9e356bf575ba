//! Engine checkpoints: serialise a [`GatheringEngine`] so a stream can
//! resume after a crash at any tick boundary.
//!
//! A checkpoint captures the complete discovery state exposed by the engine's
//! accessors — configuration, algorithm choices, the accumulated snapshot
//! cluster database, the finalized crowd records and the Lemma 4 frontier.
//! The streaming clusterer's state is fully derived (its parameters live in
//! the configuration and its cursor is re-aligned to the end of the cluster
//! database before every trajectory ingest), so it is reconstructed rather
//! than stored; its scratch arena is a cache and never affects results.
//!
//! [`restore`](EngineCheckpoint::restore) therefore yields an engine whose
//! observable behaviour — every future [`ingest`] and every accessor — is
//! identical to the checkpointed one's, which is verified by the randomized
//! `checkpoint_restore` equivalence test at the workspace root.
//!
//! [`ingest`]: GatheringEngine::ingest_clusters
//!
//! ```
//! use gpdt_core::{GatheringConfig, GatheringEngine};
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
//! // Stream half the history, checkpoint, "crash", restore, stream the rest.
//! let mut engine = GatheringEngine::new(config);
//! engine.ingest_trajectories_until(&db, 3);
//! let mut bytes = Vec::new();
//! engine.checkpoint(&mut bytes);
//! drop(engine);
//!
//! let mut resumed = GatheringEngine::restore(&mut bytes.as_slice()).unwrap();
//! resumed.ingest_trajectories(&db);
//!
//! let mut uninterrupted = GatheringEngine::new(config);
//! uninterrupted.ingest_trajectories(&db);
//! assert_eq!(resumed.gatherings(), uninterrupted.gatherings());
//! ```

use gpdt_clustering::ClusterDatabase;
use gpdt_core::{
    Crowd, CrowdRecord, Gathering, GatheringConfig, GatheringEngine, RangeSearchStrategy,
    TadVariant,
};

use crate::codec::{read_header, write_header, Decode, DecodeError, Encode};

/// Magic string at the start of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"GPDTCKP\0";

/// The checkpoint format version, the only one [`EngineCheckpoint::restore`]
/// reads: columnar cluster-set frames — each tick writes per-cluster lengths
/// followed by flat member-id, x and y columns, mirroring the in-memory
/// shared-arena layout.  (Version 1 had one row-oriented frame per cluster.)
pub const CHECKPOINT_VERSION: u16 = 2;

/// Checkpoint/restore hooks for the discovery engine.
///
/// Implemented for [`GatheringEngine`] and the sharded engine.  A
/// checkpoint is written to a `Vec<u8>` and read back from a byte slice —
/// a file's contents for durability, or state shipped between processes.
pub trait EngineCheckpoint: Sized {
    /// Appends the complete discovery state to `out`.
    fn checkpoint(&self, out: &mut Vec<u8>);

    /// Reconstructs an engine from a checkpoint produced by
    /// [`checkpoint`](Self::checkpoint), advancing `r` past it.
    ///
    /// The thread count is reset to the machine default (it is a property of
    /// the host, not of the discovery state); chain
    /// [`GatheringEngine::with_threads`] to override.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the input is truncated, from an
    /// unsupported format version, or internally inconsistent (e.g. a crowd
    /// referencing a cluster missing from the stored database).
    fn restore(r: &mut &[u8]) -> Result<Self, DecodeError>;
}

impl EngineCheckpoint for GatheringEngine {
    fn checkpoint(&self, out: &mut Vec<u8>) {
        write_header(out, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        self.config().encode(out);
        self.strategy().encode(out);
        self.variant().encode(out);
        self.cluster_database().encode(out);
        self.finalized_records().encode(out);
        self.frontier().encode(out);
    }

    fn restore(r: &mut &[u8]) -> Result<Self, DecodeError> {
        read_header(r, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let config = GatheringConfig::decode(r)?;
        let strategy = RangeSearchStrategy::decode(r)?;
        let variant = TadVariant::decode(r)?;
        let cdb = ClusterDatabase::decode(r)?;
        let finalized: Vec<CrowdRecord> = Vec::decode(r)?;
        let frontier: Vec<(Crowd, Vec<Gathering>)> = Vec::decode(r)?;

        // Cross-checks: the pieces decoded fine individually, but a crowd
        // referencing a missing cluster or a frontier entry not ending at the
        // frontier time would make the engine panic later; reject now.
        //
        // Finalized records are never re-resolved by the engine, so under
        // bounded retention their leading ticks may legitimately have been
        // evicted before the checkpoint was written: the containment check
        // for them skips ticks older than the stored database's first tick.
        // Frontier crowds are still extended and detected against the
        // database, so they get the strict check.  An *empty* database with
        // finalized records is always corrupt — eviction keeps at least one
        // tick of any stream that ever finalized anything — so it gets no
        // leniency.
        let domain = cdb.time_domain();
        let end = domain.map(|d| d.end);
        let crowd_ok = |crowd: &Crowd| {
            crowd
                .cluster_ids()
                .iter()
                .all(|&id| cdb.cluster(id).is_some())
        };
        let retained_ok = |crowd: &Crowd| {
            crowd
                .cluster_ids()
                .iter()
                .all(|&id| cdb.cluster(id).is_some() || domain.is_some_and(|d| id.time < d.start))
        };
        for record in &finalized {
            if !retained_ok(&record.crowd)
                || record.gatherings.iter().any(|g| !retained_ok(g.crowd()))
            {
                return Err(DecodeError::Corrupt(
                    "finalized crowd references a cluster missing from the database",
                ));
            }
        }
        for (crowd, gatherings) in &frontier {
            if !crowd_ok(crowd) || gatherings.iter().any(|g| !crowd_ok(g.crowd())) {
                return Err(DecodeError::Corrupt(
                    "frontier crowd references a cluster missing from the database",
                ));
            }
            if Some(crowd.end_time()) != end {
                return Err(DecodeError::Corrupt(
                    "frontier crowd does not end at the last ingested timestamp",
                ));
            }
        }
        Ok(GatheringEngine::from_parts(
            config, strategy, variant, cdb, finalized, frontier,
        ))
    }
}

/// Convenience wrapper: checkpoints an engine into a fresh byte vector.
pub fn checkpoint_to_vec(engine: &GatheringEngine) -> Vec<u8> {
    let mut out = Vec::new();
    checkpoint_into_vec(engine, &mut out);
    out
}

/// Checkpoints an engine into `out`, replacing its contents and reusing its
/// allocation.
pub(crate) fn checkpoint_into_vec(engine: &GatheringEngine, out: &mut Vec<u8>) {
    let _span = gpdt_obs::span!("store.checkpoint");
    out.clear();
    engine.checkpoint(out);
}

/// Convenience wrapper: restores an engine from a byte slice, requiring the
/// slice to be consumed exactly.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or trailing bytes.
pub fn restore_from_slice(mut bytes: &[u8]) -> Result<GatheringEngine, DecodeError> {
    let _span = gpdt_obs::span!("store.restore");
    let engine = GatheringEngine::restore(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(DecodeError::Corrupt("trailing bytes after checkpoint"));
    }
    Ok(engine)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};
    use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};

    fn config() -> GatheringConfig {
        GatheringConfig::builder()
            .clustering(ClusteringParams::new(60.0, 3))
            .crowd(CrowdParams::new(3, 4, 100.0))
            .gathering(GatheringParams::new(3, 3))
            .build()
            .unwrap()
    }

    fn lingering_db(objects: u32, duration: u32) -> TrajectoryDatabase {
        TrajectoryDatabase::from_trajectories((0..objects).map(|i| {
            Trajectory::from_points(
                ObjectId::new(i),
                (0..duration)
                    .map(|t| (t, (i as f64 * 10.0, t as f64 * 2.0)))
                    .collect::<Vec<_>>(),
            )
        }))
    }

    #[test]
    fn empty_engine_roundtrips() {
        let engine = GatheringEngine::new(config())
            .with_strategy(RangeSearchStrategy::RTreeDside)
            .with_variant(TadVariant::Tad);
        let bytes = checkpoint_to_vec(&engine);
        let back = restore_from_slice(&bytes).unwrap();
        assert_eq!(back.config(), engine.config());
        assert_eq!(back.strategy(), RangeSearchStrategy::RTreeDside);
        assert_eq!(back.variant(), TadVariant::Tad);
        assert!(back.time_domain().is_none());
        assert!(back.closed_crowds().is_empty());
    }

    #[test]
    fn mid_stream_state_roundtrips_exactly() {
        let db = lingering_db(5, 12);
        let mut engine = GatheringEngine::new(config());
        engine.ingest_trajectories_until(&db, 7);

        let bytes = checkpoint_to_vec(&engine);
        let back = restore_from_slice(&bytes).unwrap();
        assert_eq!(back.time_domain(), engine.time_domain());
        assert_eq!(
            back.finalized_records().len(),
            engine.finalized_records().len()
        );
        assert_eq!(back.frontier().len(), engine.frontier().len());
        assert_eq!(back.closed_crowds(), engine.closed_crowds());
        assert_eq!(back.gatherings(), engine.gatherings());
    }

    /// `engine`'s checkpoint with its cluster database and frontier swapped
    /// for `cdb` and `frontier`: state no engine holds.
    fn forged(
        engine: &GatheringEngine,
        cdb: &ClusterDatabase,
        frontier: &Vec<(Crowd, Vec<Gathering>)>,
    ) -> Result<GatheringEngine, DecodeError> {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        engine.config().encode(&mut bytes);
        engine.strategy().encode(&mut bytes);
        engine.variant().encode(&mut bytes);
        cdb.encode(&mut bytes);
        engine.finalized_records().encode(&mut bytes);
        frontier.encode(&mut bytes);
        restore_from_slice(&bytes)
    }

    /// An engine fed `ticks` ticks of five objects that gather for six
    /// ticks and scatter for three, repeatedly, one tick at a time: crowds
    /// keep finalizing mid-stream, and under bounded retention each ingest
    /// evicts the ticks no open crowd still references.
    pub(crate) fn gather_scatter_engine(
        ticks: u32,
        retention: gpdt_core::RetentionPolicy,
    ) -> GatheringEngine {
        let db = TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
            let at = |t: u32| match t % 9 < 6 {
                true => f64::from(i) * 10.0 + f64::from(t / 9) * 700.0,
                false => f64::from(i) * 50_000.0 + f64::from(t),
            };
            Trajectory::from_points(
                ObjectId::new(i),
                (0..ticks).map(|t| (t, (at(t), 0.0))).collect::<Vec<_>>(),
            )
        }));
        let mut engine = GatheringEngine::new(config()).with_retention(retention);
        for t in 0..ticks {
            engine.ingest_trajectories_until(&db, t);
        }
        engine
    }

    /// Legitimate bounded-retention state: finalized records whose leading
    /// ticks were evicted, beside an open frontier.
    fn evicted_engine() -> GatheringEngine {
        let mut engine = gather_scatter_engine(24, gpdt_core::RetentionPolicy::Bounded);
        engine.evict_retired_clusters();
        engine
    }

    #[test]
    fn evicted_history_is_tolerated_but_empty_database_is_not() {
        // Finalized records whose leading ticks were evicted still restore.
        let engine = evicted_engine();
        assert!(!engine.finalized_records().is_empty());
        let first_retained = engine.cluster_database().time_domain().unwrap().start;
        assert!(
            engine.finalized_records()[0].crowd.start_time() < first_retained,
            "the scenario must actually evict finalized history"
        );
        let bytes = checkpoint_to_vec(&engine);
        let back = restore_from_slice(&bytes).unwrap();
        assert_eq!(back.closed_crowds(), engine.closed_crowds());

        // Corrupt state: an empty cluster database alongside finalized
        // records (no eviction schedule can produce this) is rejected.
        assert!(matches!(
            forged(&engine, &ClusterDatabase::new(), &Vec::new()),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_or_mutated_checkpoints_fail_typed_or_restore_a_working_engine() {
        // Every truncation fails.  The checkpoint carries a magic and a
        // version but no checksum, so a byte mutation may decode: it must
        // then restore an engine that checkpoints and finishes.  Nothing
        // may panic.
        let engine = evicted_engine();
        let bytes = checkpoint_to_vec(&engine);
        assert!(!engine.finalized_records().is_empty() && !engine.frontier().is_empty());
        for (at, &b) in bytes.iter().enumerate() {
            assert!(restore_from_slice(&bytes[..at]).is_err(), "cut at {at}");
            for byte in [b ^ 0x01, b ^ 0x80, 0x00, 0xFF, b.wrapping_add(1)] {
                let mut mutant = bytes.clone();
                mutant[at] = byte;
                let run = std::panic::catch_unwind(|| {
                    if let Ok(engine) = restore_from_slice(&mutant) {
                        checkpoint_to_vec(&engine);
                        engine.finish();
                    }
                });
                assert!(run.is_ok(), "byte {at} set to {byte:#04x} panicked");
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let engine = GatheringEngine::new(config());
        let bytes = checkpoint_to_vec(&engine);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            restore_from_slice(&wrong_magic),
            Err(DecodeError::BadMagic { .. })
        ));

        let mut wrong_version = bytes.clone();
        // The version is the u16 right after the 8-byte magic.
        wrong_version[8] = 0xFF;
        wrong_version[9] = 0xFF;
        assert!(matches!(
            restore_from_slice(&wrong_version),
            Err(DecodeError::UnsupportedVersion { .. })
        ));

        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            restore_from_slice(&trailing),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn inconsistent_state_is_rejected() {
        let db = lingering_db(5, 8);
        let mut engine = GatheringEngine::new(config());
        engine.ingest_trajectories(&db);

        // Hand-craft a checkpoint whose frontier crowd ends too early: encode
        // the same engine but with a frontier shifted out of its database.
        let bogus_frontier = vec![(
            Crowd::new(vec![gpdt_clustering::ClusterId::new(0, 0)]),
            Vec::new(),
        )];
        assert!(matches!(
            forged(&engine, engine.cluster_database(), &bogus_frontier),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn gathering_referencing_a_missing_cluster_is_rejected() {
        let db = lingering_db(5, 8);
        let mut engine = GatheringEngine::new(config());
        engine.ingest_trajectories(&db);
        assert!(!engine.frontier().is_empty());

        // Re-encode the engine with a frontier gathering whose crowd points
        // at a cluster index that does not exist: the record's own crowd is
        // fine, so only the per-gathering cross-check can catch it.
        let (crowd, _) = engine.frontier()[0].clone();
        let bogus_gathering = Gathering::from_parts(
            Crowd::new(vec![gpdt_clustering::ClusterId::new(crowd.end_time(), 999)]),
            Vec::new(),
        );
        let frontier = vec![(crowd, vec![bogus_gathering])];
        assert!(matches!(
            forged(&engine, engine.cluster_database(), &frontier),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn older_versions_are_unsupported() {
        let db = lingering_db(5, 12);
        let mut engine = GatheringEngine::new(config());
        engine.ingest_trajectories_until(&db, 7);
        let bytes = checkpoint_to_vec(&engine);
        for version in [0, 1, CHECKPOINT_VERSION + 1, u16::MAX] {
            // The version is the little-endian u16 right after the magic.
            let mut forged = bytes.clone();
            forged[8..10].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                restore_from_slice(&forged),
                Err(DecodeError::UnsupportedVersion { found, supported: CHECKPOINT_VERSION })
                    if found == version
            ));
        }
    }
}
