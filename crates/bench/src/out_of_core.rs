//! Out-of-core ingest: stream snapshot-cluster history through a
//! bounded-retention engine in budget-sized batches, resumably.
//!
//! The full-history pipeline keeps every tick's cluster arenas resident for
//! the whole run, which caps the workload size at whatever fits in RAM.
//! [`ingest_resilient`] instead slices the stream into batches whose arenas
//! fit a fraction of the byte budget (see [`crate::env::mem_budget`]) and
//! runs the engine under
//! [`RetentionPolicy::Bounded`](gpdt_core::RetentionPolicy::Bounded).
//! After each batch it drains the freshly finalized records
//! ([`GatheringEngine::drain_finalized`]) into [`PatternStore::spill`] —
//! *before* the eviction that would make their cluster references
//! unresolvable — evicts, fsyncs the store and hands the engine and its
//! progress counters to the caller's hook, where a crash-safe caller
//! persists its resume point (the crash lattice of [`crate::fault_sweep`]
//! writes an engine checkpoint there).  The boundaries are fixed up front,
//! so a resumed incarnation cuts the stream at the same ticks, and its spill
//! verifies what the store already holds instead of appending it twice.
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

use gpdt_clustering::{ClusterDatabase, SnapshotClusterSet};
use gpdt_core::GatheringEngine;
use gpdt_store::{PatternStore, SpillStop, StoreError};

/// What one [`ingest_resilient`] run did, for logging and regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutOfCoreReport {
    /// Number of ingest batches this run ingested.
    pub batches: usize,
    /// Largest engine-resident cluster-arena footprint observed, measured
    /// right after each ingest (before the post-spill eviction).
    pub peak_arena_bytes: usize,
    /// Finalized crowd records spilled to the store, verified or appended.
    pub spilled_records: usize,
}

/// End-exclusive batch boundaries for [`ingest_resilient`], computed from
/// the whole stream up front.
///
/// A batch closes once its sets' arenas reach a quarter of the budget (the
/// rest is headroom for the retained window — the trailing `kc` ticks plus
/// whatever the frontier still references), and always takes at least one
/// set, so a tick larger than that degrades to tick-at-a-time ingest
/// instead of stalling.  The boundaries are a pure function of `(sets,
/// budget_bytes)`, which is what makes engine checkpoints taken at them
/// interchangeable across incarnations.
fn batch_boundaries(sets: &[SnapshotClusterSet], budget_bytes: usize) -> Vec<usize> {
    let batch_budget = (budget_bytes / 4).max(1);
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

/// Streams `sets` into `engine` in batches sized to `budget_bytes`,
/// spilling finalized records into `store` as they close, with the store
/// fsynced at every batch boundary.
///
/// For a fresh run pass `start_batch = 0`, `produced = 0`.  To resume, pass
/// the counters the last completed `after_batch(engine, next_batch,
/// produced)` call was handed and an engine restored from a checkpoint of
/// that engine: `produced` is the archive position of the next record the
/// engine finalizes.  The hook runs after the store is synced; its error
/// aborts the run.
///
/// Without [`RetentionPolicy::Bounded`](gpdt_core::RetentionPolicy::Bounded)
/// the output is still correct, but nothing is evicted.  The engine's
/// remaining frontier is *not* archived — call
/// [`PatternStore::archive_closed_frontier`] after the stream ends if the
/// store should become a complete archive.
///
/// # Errors
///
/// Propagates store errors and `after_batch` errors.  Returns
/// [`StoreError::InvalidRecord`] if the store is behind `produced` or a
/// re-finalized record differs from the stored record it should match —
/// the store belongs to a different run and resuming into it would corrupt
/// the archive.
pub fn ingest_resilient<F>(
    engine: &mut GatheringEngine,
    sets: &[SnapshotClusterSet],
    budget_bytes: usize,
    store: &mut PatternStore,
    start_batch: usize,
    mut produced: usize,
    mut after_batch: F,
) -> Result<OutOfCoreReport, StoreError>
where
    F: FnMut(&GatheringEngine, usize, usize) -> Result<(), StoreError>,
{
    // `spill` checks this too, but only while a batch remains: a resume
    // from the final boundary would otherwise accept a short store.
    if store.len() < produced {
        return Err(SpillStop::Behind.into());
    }
    let bounds = batch_boundaries(sets, budget_bytes);
    let mut report = OutOfCoreReport::default();
    for (b, &end) in bounds.iter().enumerate().skip(start_batch) {
        let begin = if b == 0 { 0 } else { bounds[b - 1] };
        engine.ingest_clusters(ClusterDatabase::from_sets(sets[begin..end].to_vec()));
        report.batches += 1;
        report.peak_arena_bytes = report
            .peak_arena_bytes
            .max(engine.cluster_database().arena_bytes());
        // Spill while the records' clusters are still resident: the engine's
        // deferred eviction has not run since these crowds closed.
        let records = engine.drain_finalized();
        let spill = store.spill(&records, produced, engine.cluster_database());
        if let Some(stop) = spill.stop {
            return Err(stop.into());
        }
        produced += spill.accounted;
        report.spilled_records += spill.accounted;
        // The spilled records no longer pin history; reclaim eagerly instead
        // of waiting for the next ingest's deferred eviction.
        engine.evict_retired_clusters();
        // A resume point promises `store.len() >= produced`; make the
        // appends durable before handing it out.
        store.sync()?;
        after_batch(engine, b + 1, produced)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sweep::sweep_workload;
    use gpdt_core::{GatheringConfig, RetentionPolicy};

    fn bounded(config: GatheringConfig) -> GatheringEngine {
        GatheringEngine::new(config).with_retention(RetentionPolicy::Bounded)
    }

    /// A fresh run with no resume hook.
    fn ingest(
        engine: &mut GatheringEngine,
        sets: &[SnapshotClusterSet],
        budget_bytes: usize,
        store: &mut PatternStore,
    ) -> OutOfCoreReport {
        ingest_resilient(engine, sets, budget_bytes, store, 0, 0, |_, _, _| Ok(())).unwrap()
    }

    #[test]
    fn bounded_ingest_matches_single_batch_output() {
        let (config, sets) = sweep_workload(5, 45);
        let mut reference = GatheringEngine::new(config);
        reference.ingest_clusters(ClusterDatabase::from_sets(sets.clone()));
        let want_crowds = reference.closed_crowds();
        let want_gatherings = reference.gatherings();
        assert!(!want_crowds.is_empty(), "scenario must produce crowds");

        let dir = crate::env::scratch_dir("ooc-match");
        let mut store = PatternStore::open(&dir).unwrap();
        let mut engine = bounded(config);
        let report = ingest(&mut engine, &sets, 4 << 10, &mut store);
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
        let (config, sets) = sweep_workload(6, 90);
        let full_bytes = ClusterDatabase::from_sets(sets.clone()).arena_bytes();
        let budget = full_bytes / 4;

        let dir = crate::env::scratch_dir("ooc-budget");
        let mut store = PatternStore::open(&dir).unwrap();
        let report = ingest(&mut bounded(config), &sets, budget, &mut store);

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
        let (config, sets) = sweep_workload(5, 45);
        let dir = crate::env::scratch_dir("ooc-ckpt");
        let mut store = PatternStore::open(&dir).unwrap();
        let mut engine = bounded(config);
        ingest(&mut engine, &sets, 4 << 10, &mut store);
        let bytes = gpdt_store::checkpoint_to_vec(&engine);
        let back = gpdt_store::restore_from_slice(&bytes).unwrap();
        assert_eq!(back.frontier(), engine.frontier());
        let again = gpdt_store::checkpoint_to_vec(&back);
        assert_eq!(bytes, again, "restore → checkpoint must be a fixed point");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resilient_boundaries_cover_the_stream() {
        let (_, sets) = sweep_workload(5, 45);
        let bounds = batch_boundaries(&sets, 4 << 10);
        assert!(bounds.len() > 1, "a 4 KiB budget must force batching");
        assert_eq!(*bounds.last().unwrap(), sets.len());
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(batch_boundaries(&[], 4 << 10).is_empty());
    }

    /// A resume point as a crash-safe caller would persist it from the hook:
    /// the engine checkpoint and the two counters.
    type ResumePoint = (Vec<u8>, usize, usize);

    /// Runs the 5-object workload from scratch into a store at `dir`,
    /// keeping every resume point the hook is handed; the run is cut after
    /// the second.
    fn two_resume_points(dir: &std::path::Path) -> Vec<ResumePoint> {
        let (config, sets) = sweep_workload(5, 45);
        let mut points = Vec::new();
        let mut store = PatternStore::open(dir).unwrap();
        let hook = |e: &GatheringEngine, next, produced| {
            points.push((gpdt_store::checkpoint_to_vec(e), next, produced));
            match points.len() {
                2 => Err(StoreError::InvalidRecord("simulated crash")),
                _ => Ok(()),
            }
        };
        let result = ingest_resilient(&mut bounded(config), &sets, 4 << 10, &mut store, 0, 0, hook);
        assert!(matches!(
            result,
            Err(StoreError::InvalidRecord("simulated crash"))
        ));
        points
    }

    /// Restores the engine of a resume point and runs the rest of the
    /// 5-object workload.
    fn resume(
        store: &mut PatternStore,
        (engine, next, produced): &ResumePoint,
    ) -> Result<GatheringEngine, StoreError> {
        let (_, sets) = sweep_workload(5, 45);
        let mut engine = gpdt_store::restore_from_slice(engine)
            .unwrap()
            .with_retention(RetentionPolicy::Bounded);
        ingest_resilient(
            &mut engine,
            &sets,
            4 << 10,
            store,
            *next,
            *produced,
            |_, _, _| Ok(()),
        )?;
        Ok(engine)
    }

    #[test]
    fn resilient_ingest_resumes_byte_identically() {
        let (config, sets) = sweep_workload(5, 45);

        // Reference: an uninterrupted run.
        let ref_dir = crate::env::scratch_dir("ooc-res-ref");
        let mut ref_store = PatternStore::open(&ref_dir).unwrap();
        let mut ref_engine = bounded(config);
        let report = ingest(&mut ref_engine, &sets, 4 << 10, &mut ref_store);
        assert!(report.batches > 2, "scenario must span several batches");
        assert!(report.spilled_records > 0);

        // Interrupted run: abort after the second batch boundary, then
        // resume in a fresh "process" from the last resume point.
        let dir = crate::env::scratch_dir("ooc-res-resume");
        let points = two_resume_points(&dir);
        let mut store = PatternStore::open(&dir).unwrap();
        let engine = resume(&mut store, points.last().unwrap()).unwrap();

        assert_eq!(store.records(), ref_store.records());
        assert_eq!(engine.frontier(), ref_engine.frontier());
        drop((store, ref_store));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn resuming_over_a_store_behind_the_resume_point_is_refused() {
        // A resume point that has accounted for records, replayed over a
        // store that never saw them: appending would put the next record
        // at the wrong id, so the driver refuses before touching the store.
        let dir = crate::env::scratch_dir("ooc-res-behind-src");
        let points = two_resume_points(&dir);
        let point = points.last().unwrap();
        assert!(
            point.2 > 0,
            "the resume point must have accounted for records"
        );

        let fresh = crate::env::scratch_dir("ooc-res-behind");
        let mut store = PatternStore::open(&fresh).unwrap();
        let err = resume(&mut store, point).unwrap_err();
        assert!(matches!(err, StoreError::InvalidRecord(_)), "{err}");
        assert!(store.is_empty(), "no record may be appended out of place");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh);
    }

    #[test]
    fn resuming_at_the_last_boundary_over_a_short_store_is_refused() {
        // The final resume point leaves no batch to ingest, so no spill
        // runs; the store's length must still be checked against it.
        let (config, sets) = sweep_workload(5, 45);
        let dir = crate::env::scratch_dir("ooc-res-last-src");
        let mut store = PatternStore::open(&dir).unwrap();
        let mut last = None;
        let hook = |e: &GatheringEngine, next, produced| {
            last = Some((gpdt_store::checkpoint_to_vec(e), next, produced));
            Ok(())
        };
        ingest_resilient(&mut bounded(config), &sets, 4 << 10, &mut store, 0, 0, hook).unwrap();
        let point = last.unwrap();
        assert_eq!(point.1, batch_boundaries(&sets, 4 << 10).len());
        assert!(point.2 > 0, "the run must have spilled records");

        let fresh = crate::env::scratch_dir("ooc-res-last");
        let mut empty = PatternStore::open(&fresh).unwrap();
        let err = resume(&mut empty, &point).unwrap_err();
        assert!(matches!(err, StoreError::InvalidRecord(_)), "{err}");
        // Over the full store the same resume point is a no-op.
        resume(&mut store, &point).unwrap();
        drop((store, empty));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh);
    }

    #[test]
    fn resilient_ingest_rejects_foreign_stores() {
        let (config, sets) = sweep_workload(5, 45);
        let (_, shifted) = sweep_workload(4, 45);

        // Fill the store from a *different* scenario, then resume over it
        // as if its records belonged to ours: the overlap check must trip.
        let dir = crate::env::scratch_dir("ooc-res-foreign");
        let mut store = PatternStore::open(&dir).unwrap();
        ingest(&mut bounded(config), &shifted, 4 << 10, &mut store);
        assert!(!store.is_empty());

        let err = ingest_resilient(
            &mut bounded(config),
            &sets,
            4 << 10,
            &mut store,
            0,
            0,
            |_, _, _| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::InvalidRecord(_)), "{err}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
