//! Out-of-core ingest: stream snapshot-cluster history through a
//! bounded-retention engine in budget-sized batches.
//!
//! The full-history pipeline keeps every tick's cluster arenas resident for
//! the whole run, which caps the workload size at whatever fits in RAM.
//! [`ingest_bounded`] instead
//!
//! 1. slices the incoming cluster sets into batches whose shared column
//!    arenas fit a fraction of the byte budget (see
//!    [`crate::env::mem_budget`]),
//! 2. runs the engine under [`RetentionPolicy::Bounded`](gpdt_core::RetentionPolicy) so ticks no future
//!    discovery step can touch are evicted between batches, and
//! 3. spills each batch's freshly finalized crowd records into a durable
//!    [`PatternStore`] *before* the eviction that would make their cluster
//!    references unresolvable, then drains them from the engine
//!    ([`GatheringEngine::drain_finalized`]) so the record history stops
//!    accumulating in RAM too.
//!
//! Discovery output is identical to a single-batch run: the engine's
//! resumed sweep is exact under any batch slicing, and the spilled records
//! plus the engine's final frontier together are exactly the single-batch
//! engine's closed crowds and gatherings.
//!
//! The *peak* of resident arena bytes still depends on the data, not only on
//! the budget: eviction cannot release ticks an open crowd still references,
//! so a crowd spanning the entire stream pins the entire stream.  Workloads
//! with finite crowd lifetimes (any realistic one) stay near the budget.
//!
//! [`ingest_resilient`] is the crash-safe variant: it slices against
//! *precomputed* batch boundaries (`batch_boundaries`) so every
//! incarnation of a run cuts the stream identically, fsyncs the store at
//! each boundary, and hands the caller a serializable [`ResilientCursor`]
//! (engine checkpoint + progress counters) after every batch.  A process
//! that dies mid-run restores the last cursor and continues; records the
//! previous incarnation already made durable are verified and skipped, so
//! the recovered store is byte-identical to an uninterrupted run.

use gpdt_clustering::{ClusterDatabase, SnapshotClusterSet};
use gpdt_core::GatheringEngine;
use gpdt_store::{PatternRecord, PatternStore, StoreError};

/// What one [`ingest_bounded`] run did, for logging and regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfCoreReport {
    /// The byte budget the batches were sized against.
    pub budget_bytes: usize,
    /// Number of ingest batches the stream was sliced into.
    pub batches: usize,
    /// Largest engine-resident cluster-arena footprint observed, measured
    /// right after each ingest (before the post-spill eviction).
    pub peak_arena_bytes: usize,
    /// Finalized crowd records spilled to the store.
    pub spilled_records: usize,
}

/// Streams `sets` into `engine` in batches sized to `budget_bytes`,
/// spilling finalized records into `store` as they close.
///
/// The engine should be configured with
/// [`RetentionPolicy::Bounded`](gpdt_core::RetentionPolicy::Bounded);
/// without it the driver still produces correct output but nothing is ever
/// evicted, so memory stays unbounded.  The engine's remaining frontier is
/// *not* archived — call [`PatternStore::archive_closed_frontier`] after the
/// stream ends if the store should become a complete archive.
///
/// Each batch's spill ends with the store's write barrier
/// ([`PatternStore::flush`]), so its records reach the segment file
/// together and a write error surfaces here rather than at the store's
/// drop.  They are crash-durable only after [`PatternStore::sync`].
///
/// # Errors
///
/// Propagates store errors, the barrier's included; records acknowledged
/// before a failure stay in the store, queued for its next barrier.
pub fn ingest_bounded<I>(
    engine: &mut GatheringEngine,
    sets: I,
    budget_bytes: usize,
    store: &mut PatternStore,
) -> Result<OutOfCoreReport, StoreError>
where
    I: IntoIterator<Item = SnapshotClusterSet>,
{
    let batch_budget = batch_budget(budget_bytes);
    let mut report = OutOfCoreReport {
        budget_bytes,
        batches: 0,
        peak_arena_bytes: 0,
        spilled_records: 0,
    };
    let mut batch: Vec<SnapshotClusterSet> = Vec::new();
    let mut batch_bytes = 0usize;
    for set in sets {
        // A batch always takes at least one set, so a single tick larger
        // than the budget degrades to tick-at-a-time ingest instead of
        // stalling.
        batch_bytes += set.arena_bytes();
        batch.push(set);
        if batch_bytes >= batch_budget {
            flush(engine, store, &mut batch, &mut report)?;
            batch_bytes = 0;
        }
    }
    flush(engine, store, &mut batch, &mut report)?;
    Ok(report)
}

/// A batch gets a quarter of the budget: the rest is headroom for the
/// retained window (the trailing `kc` ticks plus whatever the frontier
/// still references) that coexists with each incoming batch.
fn batch_budget(budget_bytes: usize) -> usize {
    (budget_bytes / 4).max(1)
}

/// Ingests one pending batch, spills what it finalized and writes it out,
/// then evicts.
fn flush(
    engine: &mut GatheringEngine,
    store: &mut PatternStore,
    batch: &mut Vec<SnapshotClusterSet>,
    report: &mut OutOfCoreReport,
) -> Result<(), StoreError> {
    if batch.is_empty() {
        return Ok(());
    }
    engine.ingest_clusters(ClusterDatabase::from_sets(std::mem::take(batch)));
    report.batches += 1;
    report.peak_arena_bytes = report
        .peak_arena_bytes
        .max(engine.cluster_database().arena_bytes());
    // Spill while the records' clusters are still resident: the engine's
    // deferred eviction has not run since these crowds closed.
    for record in engine.drain_finalized() {
        store.append_crowd_record(&record, engine.cluster_database())?;
        report.spilled_records += 1;
    }
    store.flush()?;
    // The spilled records no longer pin history; reclaim eagerly instead of
    // waiting for the next ingest's deferred eviction.
    engine.evict_retired_clusters();
    Ok(())
}

/// End-exclusive batch boundaries for [`ingest_resilient`], computed from
/// the whole stream up front.
///
/// The slicing rule is the same as [`ingest_bounded`]'s, but because the
/// boundaries are a pure function of `(sets, budget_bytes)`, every
/// incarnation of a resilient run — including one resumed after a crash —
/// cuts the stream at exactly the same ticks, which is what makes engine
/// checkpoints taken at boundaries interchangeable across incarnations.
fn batch_boundaries(sets: &[SnapshotClusterSet], budget_bytes: usize) -> Vec<usize> {
    let batch_budget = batch_budget(budget_bytes);
    let mut bounds = Vec::new();
    let mut batch_bytes = 0usize;
    for (i, set) in sets.iter().enumerate() {
        batch_bytes += set.arena_bytes();
        if batch_bytes >= batch_budget {
            bounds.push(i + 1);
            batch_bytes = 0;
        }
    }
    if bounds.last() != Some(&sets.len()) && !sets.is_empty() {
        bounds.push(sets.len());
    }
    bounds
}

/// Resume point produced after every completed batch of
/// [`ingest_resilient`].
///
/// Serialize it with [`ResilientCursor::to_vec`], persist it atomically
/// (e.g. [`gpdt_store::write_file_atomic`]), and on restart decode it with
/// [`ResilientCursor::from_slice`], restore the engine from
/// [`ResilientCursor::engine`], and call [`ingest_resilient`] again with
/// `next_batch`/`produced`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientCursor {
    /// Index of the next batch to ingest, in the precomputed slicing.
    pub next_batch: u64,
    /// Engine-finalized records accounted for so far (verified or
    /// appended).  The store may be *ahead* of this after a crash — the
    /// resumed run re-verifies the overlap — but never behind it, because
    /// the store is fsynced before the cursor is handed out.
    pub produced: u64,
    /// Engine checkpoint bytes ([`gpdt_store::checkpoint_to_vec`]).
    pub engine: Vec<u8>,
}

impl ResilientCursor {
    /// Serializes the cursor: two little-endian `u64` counters followed by
    /// the engine checkpoint (which carries its own magic and checksum).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.engine.len());
        out.extend_from_slice(&self.next_batch.to_le_bytes());
        out.extend_from_slice(&self.produced.to_le_bytes());
        out.extend_from_slice(&self.engine);
        out
    }

    /// Decodes a cursor written by [`ResilientCursor::to_vec`]; `None` if
    /// the buffer is too short to hold the counters.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 16 {
            return None;
        }
        let next_batch = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let produced = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        Some(Self {
            next_batch,
            produced,
            engine: bytes[16..].to_vec(),
        })
    }
}

/// Crash-safe variant of [`ingest_bounded`]: resumable from a
/// [`ResilientCursor`], with the store fsynced at every batch boundary.
///
/// For a fresh run pass `start_batch = 0`, `produced = 0`; to resume, pass
/// the last persisted cursor's counters and an engine restored from its
/// checkpoint bytes.  While `produced` lags `store.len()` the re-finalized
/// records are compared against the stored ones and skipped instead of
/// re-appended, so a store that outlived the checkpoint (appends after the
/// cursor was written) is never double-appended.
///
/// `after_batch` runs once per completed batch with the fresh cursor; its
/// error aborts the run (the store keeps everything already synced).
///
/// # Errors
///
/// Propagates store errors and `after_batch` errors.  Returns
/// [`StoreError::InvalidRecord`] if a re-finalized record differs from the
/// stored record it should match — the store belongs to a different run
/// and resuming into it would corrupt the archive.
pub fn ingest_resilient<F>(
    engine: &mut GatheringEngine,
    sets: &[SnapshotClusterSet],
    budget_bytes: usize,
    store: &mut PatternStore,
    start_batch: usize,
    produced: usize,
    mut after_batch: F,
) -> Result<OutOfCoreReport, StoreError>
where
    F: FnMut(&ResilientCursor) -> Result<(), StoreError>,
{
    let bounds = batch_boundaries(sets, budget_bytes);
    let mut produced = produced;
    let mut report = OutOfCoreReport {
        budget_bytes,
        batches: 0,
        peak_arena_bytes: 0,
        spilled_records: 0,
    };
    for (b, &end) in bounds.iter().enumerate().skip(start_batch) {
        let begin = if b == 0 { 0 } else { bounds[b - 1] };
        engine.ingest_clusters(ClusterDatabase::from_sets(sets[begin..end].to_vec()));
        report.batches += 1;
        report.peak_arena_bytes = report
            .peak_arena_bytes
            .max(engine.cluster_database().arena_bytes());
        for record in engine.drain_finalized() {
            if produced < store.len() {
                // A previous incarnation already made this record durable:
                // verify instead of duplicating it.
                let got = PatternRecord::from_crowd_record(&record, engine.cluster_database());
                if got != store.records()[produced] {
                    return Err(StoreError::InvalidRecord(
                        "resumed ingest diverges from the stored records",
                    ));
                }
            } else {
                store.append_crowd_record(&record, engine.cluster_database())?;
                report.spilled_records += 1;
            }
            produced += 1;
        }
        engine.evict_retired_clusters();
        // The cursor promises `store.len() >= produced`; make the appends
        // durable before handing it out.
        store.sync()?;
        let cursor = ResilientCursor {
            next_batch: (b + 1) as u64,
            produced: produced as u64,
            engine: gpdt_store::checkpoint_to_vec(engine),
        };
        after_batch(&cursor)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_core::{
        ClusteringParams, CrowdParams, GatheringConfig, GatheringParams, RetentionPolicy,
    };
    use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};

    fn config() -> GatheringConfig {
        GatheringConfig::builder()
            .clustering(ClusteringParams::new(60.0, 3))
            .crowd(CrowdParams::new(3, 4, 100.0))
            .gathering(GatheringParams::new(3, 3))
            .build()
            .unwrap()
    }

    /// Objects that repeatedly gather for six ticks and scatter for three:
    /// crowds have finite lifetimes, so bounded retention actually evicts.
    fn gather_scatter_cdb(objects: u32, duration: u32) -> ClusterDatabase {
        let db = TrajectoryDatabase::from_trajectories((0..objects).map(|i| {
            Trajectory::from_points(
                ObjectId::new(i),
                (0..duration)
                    .map(|t| {
                        let x = if t % 9 < 6 {
                            f64::from(i) * 10.0 + f64::from(t / 9) * 700.0
                        } else {
                            f64::from(i) * 50_000.0 + f64::from(t)
                        };
                        (t, (x, 0.0))
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        ClusterDatabase::build(&db, &config().clustering)
    }

    #[test]
    fn bounded_ingest_matches_single_batch_output() {
        let cdb = gather_scatter_cdb(5, 45);

        let mut reference = GatheringEngine::new(config());
        reference.ingest_clusters(cdb.clone());
        let want_crowds = reference.closed_crowds();
        let want_gatherings = reference.gatherings();
        assert!(!want_crowds.is_empty(), "scenario must produce crowds");

        let dir = crate::env::scratch_dir("ooc-match");
        let mut store = PatternStore::open(&dir).unwrap();
        let mut engine = GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
        let report = ingest_bounded(&mut engine, cdb.into_sets(), 4 << 10, &mut store).unwrap();
        store.archive_closed_frontier(&engine).unwrap();

        assert!(report.batches > 1, "a 4 KiB budget must force batching");
        assert!(report.spilled_records > 0, "mid-stream crowds must spill");
        assert_eq!(store.len(), want_crowds.len());
        let mut got: Vec<_> = store.records().iter().map(|r| r.crowd.clone()).collect();
        got.sort_by(gpdt_core::canonical_crowd_order);
        assert_eq!(got, want_crowds);
        let stored_gatherings: usize = store.records().iter().map(|r| r.gatherings.len()).sum();
        assert_eq!(stored_gatherings, want_gatherings.len());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_arena_stays_under_budget() {
        let cdb = gather_scatter_cdb(6, 90);
        let full_bytes = cdb.arena_bytes();
        let budget = full_bytes / 4;

        let dir = crate::env::scratch_dir("ooc-budget");
        let mut store = PatternStore::open(&dir).unwrap();
        let mut engine = GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
        let report = ingest_bounded(&mut engine, cdb.into_sets(), budget, &mut store).unwrap();

        assert!(
            report.peak_arena_bytes <= budget,
            "peak {} exceeds budget {} (full history: {})",
            report.peak_arena_bytes,
            budget,
            full_bytes
        );
        assert!(report.peak_arena_bytes < full_bytes);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_survive_drained_engines() {
        // A drained, evicted engine is still valid checkpoint input (the
        // restore cross-checks tolerate missing pre-eviction history).
        use gpdt_store::EngineCheckpoint;
        let cdb = gather_scatter_cdb(5, 45);
        let dir = crate::env::scratch_dir("ooc-ckpt");
        let mut store = PatternStore::open(&dir).unwrap();
        let mut engine = GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
        ingest_bounded(&mut engine, cdb.into_sets(), 4 << 10, &mut store).unwrap();
        let bytes = gpdt_store::checkpoint_to_vec(&engine);
        let back = gpdt_store::restore_from_slice(&bytes).unwrap();
        assert_eq!(back.frontier(), engine.frontier());
        assert_eq!(
            bytes,
            {
                let mut again = Vec::new();
                back.checkpoint(&mut again).unwrap();
                again
            },
            "restore → checkpoint must be a fixed point"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resilient_boundaries_cover_the_stream() {
        let cdb = gather_scatter_cdb(5, 45);
        let sets = cdb.into_sets();
        let bounds = batch_boundaries(&sets, 4 << 10);
        assert!(bounds.len() > 1, "a 4 KiB budget must force batching");
        assert_eq!(*bounds.last().unwrap(), sets.len());
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(batch_boundaries(&[], 4 << 10).is_empty());
    }

    #[test]
    fn resilient_ingest_resumes_byte_identically() {
        let cdb = gather_scatter_cdb(5, 45);
        let sets = cdb.into_sets();
        let budget = 4 << 10;

        // Reference: an uninterrupted resilient run.
        let ref_dir = crate::env::scratch_dir("ooc-res-ref");
        let mut ref_store = PatternStore::open(&ref_dir).unwrap();
        let mut ref_engine =
            GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
        let report = ingest_resilient(&mut ref_engine, &sets, budget, &mut ref_store, 0, 0, |_| {
            Ok(())
        })
        .unwrap();
        assert!(report.batches > 2, "scenario must span several batches");
        assert!(report.spilled_records > 0);

        // Interrupted run: abort after the second batch boundary, keeping
        // the cursor the incarnation would have persisted.
        let dir = crate::env::scratch_dir("ooc-res-resume");
        let mut cursors: Vec<ResilientCursor> = Vec::new();
        {
            let mut store = PatternStore::open(&dir).unwrap();
            let mut engine =
                GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
            let err = ingest_resilient(&mut engine, &sets, budget, &mut store, 0, 0, |c| {
                cursors.push(c.clone());
                if cursors.len() == 2 {
                    Err(StoreError::InvalidRecord("simulated crash"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert!(matches!(err, StoreError::InvalidRecord("simulated crash")));
        }
        let cursor = cursors.last().unwrap();
        assert_eq!(
            ResilientCursor::from_slice(&cursor.to_vec()).as_ref(),
            Some(cursor),
            "cursor must round-trip through its byte encoding"
        );

        // Resume in a fresh "process": reopen the store, restore the engine.
        let mut store = PatternStore::open(&dir).unwrap();
        let mut engine = gpdt_store::restore_from_slice(&cursor.engine)
            .unwrap()
            .with_retention(RetentionPolicy::Bounded);
        ingest_resilient(
            &mut engine,
            &sets,
            budget,
            &mut store,
            cursor.next_batch as usize,
            cursor.produced as usize,
            |_| Ok(()),
        )
        .unwrap();

        assert_eq!(store.records(), ref_store.records());
        assert_eq!(engine.frontier(), ref_engine.frontier());
        drop(store);
        drop(ref_store);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn resilient_ingest_rejects_foreign_stores() {
        let cdb = gather_scatter_cdb(5, 45);
        let sets = cdb.into_sets();
        let shifted = gather_scatter_cdb(4, 45);

        // Fill the store from a *different* scenario, then resume over it
        // as if its records belonged to ours: the overlap check must trip.
        let dir = crate::env::scratch_dir("ooc-res-foreign");
        let mut store = PatternStore::open(&dir).unwrap();
        let mut other = GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
        ingest_resilient(
            &mut other,
            &shifted.into_sets(),
            4 << 10,
            &mut store,
            0,
            0,
            |_| Ok(()),
        )
        .unwrap();
        assert!(!store.is_empty());

        let mut engine = GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
        let err = ingest_resilient(&mut engine, &sets, 4 << 10, &mut store, 0, 0, |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidRecord(_)), "{err}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
