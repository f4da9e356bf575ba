//! Crash-lattice and fault-recovery suite: every durability claim of the
//! store/service stack, exercised under deterministic fault schedules.
//!
//! * The **crash lattice** kills the storage backend at ≥ 200 seeded
//!   mutating-operation points — covering appends, segment rotations and
//!   checkpoint-cursor writes — recovers, resumes, and requires the final
//!   store to be *byte-identical* to an uninterrupted run (zero data loss
//!   past the last acknowledged fsync).
//! * A second lattice layers transient short writes and fsync failures on
//!   top of the kills, driving the restart-from-cursor path.
//! * **TailRepair** is exercised on real, current-codec (v2 columnar
//!   payload) frames — including a torn write landing exactly on a
//!   segment-rotation boundary — instead of hand-forged v1-era tails.
//! * The **sharded panic lattice** injects a worker panic, then a deadline
//!   overrun, into every (batch, shard) cell of a multi-batch ingest and
//!   requires in-process recovery — from a snapshot without cluster history
//!   — with outputs and checkpoint bytes identical to an undisturbed run,
//!   under both retention policies.
//! * A **bounded sharded checkpoint** taken while the shards' eviction
//!   horizons differ restores and resumes byte-identically.

use gpdt_bench::fault_sweep::{crash_lattice, sweep_workload, LatticeConfig};
use gpdt_clustering::ClusterDatabase;
use gpdt_core::{
    ClusteringParams, CrowdParams, GatheringConfig, GatheringEngine, GatheringParams,
    RetentionPolicy,
};
use gpdt_shard::{GridPartitioner, Partitioner, ShardFault, ShardedEngine};
use gpdt_store::{
    restore_sharded_from_slice, sharded_checkpoint_to_vec, PatternStore, StoreOptions,
};
use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpdt-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Crash lattice
// ---------------------------------------------------------------------------

#[test]
fn crash_lattice_200_kill_points_recover_byte_identically() {
    let (config, sets) = sweep_workload(8, 135);
    let cfg = LatticeConfig {
        seed: 0x2013_1CDE,
        points: 200,
        ..LatticeConfig::default()
    };
    let outcome = crash_lattice(&cfg, &config, &sets);
    assert!(outcome.passed(), "violations: {:#?}", outcome.violations);
    assert_eq!(outcome.points, 200);
    // Every sampled point lies inside the reference op schedule, so every
    // kill must actually fire (a lattice that never crashes proves nothing).
    assert_eq!(outcome.kills_fired, 200);
    assert!(outcome.incarnations > 200, "each kill costs a restart");
}

#[test]
fn crash_lattice_with_transient_faults_still_recovers() {
    let (config, sets) = sweep_workload(8, 135);
    let cfg = LatticeConfig {
        seed: 0xFA_0175,
        points: 64,
        transient_write_one_in: Some(7),
        transient_sync_one_in: Some(11),
        ..LatticeConfig::default()
    };
    let outcome = crash_lattice(&cfg, &config, &sets);
    assert!(outcome.passed(), "violations: {:#?}", outcome.violations);
    assert!(
        outcome.transient_restarts > 0,
        "1-in-7 write faults must actually fire somewhere in 64 runs"
    );
}

// ---------------------------------------------------------------------------
// TailRepair on current-codec frames
// ---------------------------------------------------------------------------

/// Discovery output to feed the stores: real records with columnar
/// cluster-set payloads, i.e. frames as today's codec writes them.
fn store_workload() -> (GatheringEngine, usize) {
    let (config, sets) = sweep_workload(6, 90);
    let mut engine = GatheringEngine::new(config);
    engine.ingest_clusters(ClusterDatabase::from_sets(sets));
    let n = engine.finalized_records().len();
    assert!(n >= 6, "workload must finalize several records, got {n}");
    (engine, n)
}

/// Small segments so the record stream spans several rotations.
fn small_segments() -> StoreOptions {
    StoreOptions {
        max_segment_bytes: 512,
        ..StoreOptions::default()
    }
}

/// Spills records `0..n` into a fresh store in `dir` and syncs it.
fn build_store(dir: &PathBuf, engine: &GatheringEngine, n: usize) -> PatternStore {
    let mut store = PatternStore::open_with(dir, small_segments()).unwrap();
    let spill = store.spill(
        &engine.finalized_records()[..n],
        0,
        engine.cluster_database(),
    );
    assert!(spill.stop.is_none(), "{spill:?}");
    store.sync().unwrap();
    store
}

/// Sorted `(name, bytes)` of every segment file in `dir`.
fn segment_files(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn torn_v2_frame_mid_segment_is_repaired_and_rewritten_identically() {
    let (engine, n) = store_workload();

    let ref_dir = temp_dir("torn-mid-ref");
    let reference = build_store(&ref_dir, &engine, n);
    drop(reference);

    let dir = temp_dir("torn-mid");
    let store = build_store(&dir, &engine, n);
    drop(store);

    // Tear the last frame: drop the final 3 bytes of its checksum, exactly
    // what a crash mid-`write` leaves behind.
    let (last_name, last_bytes) = segment_files(&dir).pop().unwrap();
    assert!(last_bytes.len() > 3);
    let torn_len = last_bytes.len() as u64 - 3;
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(&last_name))
        .unwrap()
        .set_len(torn_len)
        .unwrap();

    let mut store = PatternStore::open_with(&dir, small_segments()).unwrap();
    let repair = store.tail_repair().expect("the torn tail must be reported");
    assert!(repair.segment.ends_with(&last_name));
    assert!(repair.dropped_bytes > 0);
    assert_eq!(store.len(), n - 1, "exactly the torn record is dropped");

    // Re-appending the lost record must reproduce the reference store byte
    // for byte — the repair truncated to a frame boundary, nothing else.
    let spill = store.spill(
        &engine.finalized_records()[n - 1..],
        n - 1,
        engine.cluster_database(),
    );
    assert!(spill.stop.is_none(), "{spill:?}");
    store.sync().unwrap();
    drop(store);
    assert_eq!(segment_files(&dir), segment_files(&ref_dir));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn torn_frame_exactly_on_rotation_boundary_is_repaired() {
    let (engine, n) = store_workload();

    let ref_dir = temp_dir("torn-rot-ref");
    drop(build_store(&ref_dir, &engine, n));

    // Build record by record until an append triggers a segment rotation:
    // record `k` is then the *first* frame of the fresh segment.
    let dir = temp_dir("torn-rot");
    let mut store = PatternStore::open_with(&dir, small_segments()).unwrap();
    let cdb = engine.cluster_database();
    let mut rotated_at = None;
    for (k, record) in engine.finalized_records()[..n].iter().enumerate() {
        let before = segment_files(&dir).len();
        store.append_crowd_record(record, cdb).unwrap();
        store.sync().unwrap();
        if segment_files(&dir).len() > before && before > 0 {
            rotated_at = Some(k);
            break;
        }
    }
    let k = rotated_at.expect("512-byte segments must rotate within the workload");
    drop(store);

    // Tear the rotated-into segment down to its header plus a few bytes of
    // the first frame: the crash happened exactly on the rotation boundary,
    // mid-way through the first write into the new segment.
    let (last_name, last_bytes) = segment_files(&dir).pop().unwrap();
    let header = 10u64; // magic (8) + u16 version
    assert!(last_bytes.len() as u64 > header + 5);
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(&last_name))
        .unwrap()
        .set_len(header + 5)
        .unwrap();

    // The earlier segments still hold records, so this is a routine repair,
    // not an `EmptySalvage` refusal.
    let mut store = PatternStore::open_with(&dir, small_segments()).unwrap();
    let repair = store
        .tail_repair()
        .expect("the torn boundary write must be reported");
    assert_eq!(repair.dropped_bytes, 5);
    assert_eq!(store.len(), k, "everything before the rotation survives");

    // Resume the interrupted append stream; the result must equal a store
    // that never crashed.
    let spill = store.spill(&engine.finalized_records()[k..n], k, cdb);
    assert!(spill.stop.is_none(), "{spill:?}");
    store.sync().unwrap();
    drop(store);
    assert_eq!(segment_files(&dir), segment_files(&ref_dir));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ---------------------------------------------------------------------------
// Sharded panic lattice
// ---------------------------------------------------------------------------

/// Five objects drifting along +x across grid cells, so crowds keep
/// crossing shard borders and every shard does real work.
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

fn sharded_config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(60.0, 3))
        .crowd(CrowdParams::new(3, 3, 120.0))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .unwrap()
}

/// Five objects that gather for four ticks and scatter for three, a cell
/// further along each time: crowds keep finalizing, so bounded retention has
/// history to evict between the faults.
fn cycling_db(ticks: u32) -> TrajectoryDatabase {
    TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
        Trajectory::from_points(
            ObjectId::new(i),
            (0..ticks)
                .map(|t| {
                    let x = if t % 7 < 4 {
                        f64::from(t / 7) * 130.0 + f64::from(i) * 9.0
                    } else {
                        f64::from(i) * 50_000.0 + f64::from(t) * 11.0
                    };
                    (t, (x, 0.0))
                })
                .collect::<Vec<_>>(),
        )
    }))
}

#[test]
fn sharded_panic_lattice_recovers_in_process_byte_identically() {
    sharded_fault_lattice(&drifting_db(16), RetentionPolicy::KeepAll);
    sharded_fault_lattice(&drifting_db(16), RetentionPolicy::Bounded);
    let resident = sharded_fault_lattice(&cycling_db(22), RetentionPolicy::Bounded);
    assert!(
        resident < 22,
        "the cycling lattice must run with evicted history"
    );
}

/// Returns the ticks an undisturbed engine still holds at the end.
fn sharded_fault_lattice(db: &TrajectoryDatabase, retention: RetentionPolicy) -> usize {
    let config = sharded_config();
    let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
    let shards = 3usize;

    let mut single = GatheringEngine::new(config);
    single.ingest_trajectories(db);
    let reference = (single.closed_crowds(), single.gatherings());
    assert!(!reference.0.is_empty(), "the workload must form a crowd");

    // One fault per (batch, shard) cell of the lattice, each in a fresh
    // engine: a panic, then a stall past the worker deadline.  Recovery must
    // happen inside the process (no restart) from a snapshot that holds no
    // cluster history — the shard's database is derived again from the
    // coordinator's — and leave the engine byte-identical to an undisturbed
    // one: outputs, finalized feed and checkpoint, whether history is kept
    // or evicted.
    let last = db.time_domain().unwrap().end;
    let ends: Vec<u32> = (2..last).step_by(2).chain([last]).collect();
    let mut resident = 0;
    let faults = [
        (ShardFault::PanicOnce, None),
        (
            ShardFault::StallOnce(Duration::from_millis(400)),
            Some(Duration::from_millis(60)),
        ),
    ];
    for (fault, deadline) in faults {
        let fresh = || {
            let engine = ShardedEngine::new(config, shards, partitioner).with_retention(retention);
            match deadline {
                Some(deadline) => engine.with_worker_deadline(deadline),
                None => engine,
            }
        };
        let mut clean = fresh();
        for &end in &ends {
            clean.ingest_trajectories_until(db, end);
        }
        assert_eq!((clean.closed_crowds(), clean.gatherings()), reference);
        let clean_checkpoint = sharded_checkpoint_to_vec(&clean);
        resident = clean.cluster_database().len();

        for batch in 0..ends.len() {
            for shard in 0..shards {
                let cell = format!("{retention:?}, {fault:?}, batch {batch}, shard {shard}");
                let mut faulty = fresh();
                for (b, &end) in ends.iter().enumerate() {
                    if b == batch {
                        faulty.inject_shard_fault(shard, fault);
                    }
                    faulty.ingest_trajectories_until(db, end);
                }
                assert_eq!(
                    (faulty.closed_crowds(), faulty.gatherings()),
                    reference,
                    "{cell}"
                );
                assert_eq!(
                    faulty.finalized_records(),
                    clean.finalized_records(),
                    "{cell}"
                );
                assert_eq!(
                    sharded_checkpoint_to_vec(&faulty),
                    clean_checkpoint,
                    "{cell}"
                );
                // Exactly the injected worker is rebuilt — unless a busy
                // host makes a healthy one overrun the deadline too, which
                // costs a rebuild and nothing else.
                assert!(faulty.restarts()[shard] >= 1, "{cell}");
                if deadline.is_none() {
                    assert_eq!(faulty.restarts().iter().sum::<u64>(), 1, "{cell}");
                }
            }
        }
    }
    resident
}

#[test]
fn bounded_sharded_checkpoint_resumes_with_uneven_eviction_horizons() {
    // One group lingers for the whole stream on one side of the map while
    // others gather and scatter elsewhere: the lingering group's shard must
    // keep its history from tick 0, the other shards evict as they go.
    let lingering = (0..4u32).map(|i| {
        Trajectory::from_points(
            ObjectId::new(i),
            (0..40u32)
                .map(|t| (t, (f64::from(i) * 9.0, f64::from(t) * 0.5)))
                .collect::<Vec<_>>(),
        )
    });
    let cycling = (0..4u32).map(|i| {
        Trajectory::from_points(
            ObjectId::new(100 + i),
            (0..40u32)
                .map(|t| {
                    let x = if t % 8 < 5 {
                        3_000.0 + f64::from(t / 8) * 170.0 + f64::from(i) * 9.0
                    } else {
                        50_000.0 + f64::from(i) * 5_000.0 + f64::from(t)
                    };
                    (t, (x, 40.0))
                })
                .collect::<Vec<_>>(),
        )
    });
    let db = TrajectoryDatabase::from_trajectories(lingering.chain(cycling));
    let config = sharded_config();
    let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
    let fresh =
        || ShardedEngine::new(config, 4, partitioner).with_retention(RetentionPolicy::Bounded);

    let mut single = GatheringEngine::new(config);
    single.ingest_trajectories(&db);

    let mut uneven_seen = false;
    for crash_at in [9u32, 17, 22, 30] {
        let mut uninterrupted = fresh();
        let mut engine = fresh();
        for t in 0..=crash_at {
            uninterrupted.ingest_trajectories_until(&db, t);
            engine.ingest_trajectories_until(&db, t);
        }
        let horizons: Vec<u32> = engine
            .shard_engines()
            .iter()
            .map(|e| e.time_domain().unwrap().start)
            .collect();
        uneven_seen |= horizons.iter().min() != horizons.iter().max();
        let bytes = sharded_checkpoint_to_vec(&engine);
        drop(engine); // the "crash"

        let mut resumed = restore_sharded_from_slice(&bytes)
            .expect("checkpoint restores")
            .with_retention(RetentionPolicy::Bounded);
        assert_eq!(
            sharded_checkpoint_to_vec(&resumed),
            bytes,
            "crash at {crash_at}"
        );
        for t in crash_at + 1..40 {
            uninterrupted.ingest_trajectories_until(&db, t);
            resumed.ingest_trajectories_until(&db, t);
        }
        assert_eq!(resumed.closed_crowds(), single.closed_crowds());
        assert_eq!(resumed.gatherings(), single.gatherings());
        assert_eq!(
            resumed.finalized_records(),
            uninterrupted.finalized_records()
        );
        assert_eq!(
            sharded_checkpoint_to_vec(&resumed),
            sharded_checkpoint_to_vec(&uninterrupted),
            "crash at {crash_at}"
        );
    }
    assert!(uneven_seen, "the shards must evict to different horizons");
}

#[test]
fn sharded_checkpoint_after_a_manual_eviction_restores_and_resumes() {
    // `evict_retired_clusters` by hand trims the global database at once and
    // leaves the shards to follow at their next ingest: a checkpoint taken
    // in between must start no shard before the history it is derived from.
    let db = cycling_db(30);
    let config = sharded_config();
    let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
    let mut single = GatheringEngine::new(config);
    single.ingest_trajectories(&db);

    for retention in [RetentionPolicy::KeepAll, RetentionPolicy::Bounded] {
        let fresh = || ShardedEngine::new(config, 3, partitioner).with_retention(retention);
        let mut evicted_ahead_of_a_shard = false;
        for crash_at in [9u32, 12, 16, 23] {
            let mut uninterrupted = fresh();
            let mut engine = fresh();
            for t in 0..=crash_at {
                uninterrupted.ingest_trajectories_until(&db, t);
                engine.ingest_trajectories_until(&db, t);
            }
            engine.evict_retired_clusters();
            let retained_from = engine.time_domain().unwrap().start;
            let shard_starts = engine.shard_engines().iter();
            evicted_ahead_of_a_shard |= shard_starts
                .map(|e| e.time_domain().unwrap().start)
                .any(|start| start < retained_from);
            let bytes = sharded_checkpoint_to_vec(&engine);

            let context = format!("{retention:?}, crash at {crash_at}");
            let mut resumed = restore_sharded_from_slice(&bytes)
                .unwrap_or_else(|e| panic!("{context}: {e}"))
                .with_retention(retention);
            assert_eq!(sharded_checkpoint_to_vec(&resumed), bytes, "{context}");
            // The engine that evicted goes on too, losing a shard next batch.
            engine.inject_shard_fault(crash_at as usize % 3, ShardFault::PanicOnce);
            for t in crash_at + 1..30 {
                uninterrupted.ingest_trajectories_until(&db, t);
                engine.ingest_trajectories_until(&db, t);
                resumed.ingest_trajectories_until(&db, t);
            }
            for survivor in [&engine, &resumed] {
                assert_eq!(survivor.closed_crowds(), single.closed_crowds());
                assert_eq!(survivor.gatherings(), single.gatherings());
                assert_eq!(
                    survivor.finalized_records(),
                    uninterrupted.finalized_records(),
                    "{context}"
                );
            }
            assert_eq!(
                sharded_checkpoint_to_vec(&resumed),
                sharded_checkpoint_to_vec(&engine),
                "{context}"
            );
        }
        assert!(
            evicted_ahead_of_a_shard,
            "{retention:?}: the eviction must get ahead of some shard"
        );
    }
}
