//! The service's panic lattice: an ingest panic injected at *every* batch of
//! a stream — for both retention policies, across the service's
//! recovery-point refreshes (every 16 batches) — must leave no trace in the
//! discovery output, the durable history or the bytes of a checkpoint taken
//! at the end.
//!
//! Beside it, the two-tier check on the recovery point itself, at several
//! cadences: what the service keeps by topping up (cheap, structural) is
//! validated against the exact figure (the live engine's serialised
//! checkpoint) after every refresh, and a point must survive the live engine
//! evicting ticks the point still holds.

mod common;

use std::sync::Arc;

use common::PanicOnNth;

use gpdt_clustering::{ClusterDatabase, ClusteringParams};
use gpdt_core::{
    Crowd, CrowdParams, Gathering, GatheringConfig, GatheringEngine, GatheringParams,
    RetentionPolicy,
};
use gpdt_store::{
    checkpoint_to_vec, FaultVfs, MonitorService, PatternRecord, PatternStore, RecoveryPoint,
    StoreOptions,
};
use gpdt_trajectory::{ObjectId, TimeInterval, Trajectory, TrajectoryDatabase};

const CYCLES: u32 = 6;
const TICKS: u32 = 7 * CYCLES;

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(60.0, 3))
        .crowd(CrowdParams::new(3, 3, 120.0))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .unwrap()
}

/// Five objects that gather for four ticks and scatter for three, at a venue
/// that moves on every cycle, beside five that drift together for five
/// ticks and scatter for two, out of phase with the first
/// group: some crowd is always open, and none for long — bounded retention
/// evicts all along the stream.
fn batches() -> Vec<ClusterDatabase> {
    let scattered = |i: u32, tick: u32| f64::from(i) * 50_000.0 + f64::from(tick) * 11.0;
    let gatherers = (0..5u32).map(|i| {
        let points = (0..TICKS).map(|tick| {
            let x = if tick % 7 < 4 {
                f64::from(tick / 7) * 130.0 + f64::from(i) * 9.0
            } else {
                scattered(i, tick)
            };
            (tick, (x, 0.0))
        });
        Trajectory::from_points(ObjectId::new(i), points.collect::<Vec<_>>())
    });
    let drifters = (10..15u32).map(|i| {
        let points = (0..TICKS).map(|tick| {
            let x = if (tick + 3) % 7 < 5 {
                f64::from(tick) * 60.0 + f64::from(i) * 8.0
            } else {
                scattered(i, tick)
            };
            (tick, (x, 2_000.0))
        });
        Trajectory::from_points(ObjectId::new(i), points.collect::<Vec<_>>())
    });
    let db = TrajectoryDatabase::from_trajectories(gatherers.chain(drifters));
    (0..TICKS)
        .map(|t| {
            ClusterDatabase::build_interval(&db, &config().clustering, TimeInterval::new(t, t))
        })
        .collect()
}

fn fresh(retention: RetentionPolicy) -> GatheringEngine {
    GatheringEngine::new(config()).with_retention(retention)
}

fn outputs(engine: &GatheringEngine) -> (Vec<Crowd>, Vec<Gathering>) {
    (engine.closed_crowds(), engine.gatherings())
}

/// Everything a run leaves behind that a panic must not change.
#[derive(Debug, PartialEq)]
struct Trail {
    crowds: Vec<Crowd>,
    gatherings: Vec<Gathering>,
    records: Vec<PatternRecord>,
    checkpoint: Vec<u8>,
}

/// Streams `batches` through a service whose engine panics at batch
/// `panic_at`; returns the trail, the panics recovered and the engine.
fn run(
    batches: &[ClusterDatabase],
    retention: RetentionPolicy,
    panic_at: Option<u64>,
) -> (Trail, u64, GatheringEngine) {
    let vfs = Arc::new(FaultVfs::new(16));
    let store = PatternStore::open_at(vfs, "/lattice", StoreOptions::default()).unwrap();
    let engine = PanicOnNth {
        inner: fresh(retention),
        panic_at,
        seen: 0,
    };
    let outcome = MonitorService::run(engine, store, |handle| {
        for batch in batches {
            handle.ingest(batch.clone());
        }
        handle.flush();
        (handle.checkpoint().unwrap(), handle.stats())
    });
    let (checkpoint, stats) = outcome.value;
    assert_eq!(stats.batches_rejected, 0);
    assert_eq!(
        outcome.errors.len() as u64,
        stats.panics_recovered,
        "{:?}",
        outcome.errors
    );
    let (crowds, gatherings) = outputs(&outcome.engine.inner);
    let trail = Trail {
        crowds,
        gatherings,
        records: outcome.store.records().to_vec(),
        checkpoint,
    };
    (trail, stats.panics_recovered, outcome.engine.inner)
}

#[test]
fn a_panic_at_any_batch_leaves_no_trace_single_engine() {
    let batches = batches();
    for retention in [RetentionPolicy::KeepAll, RetentionPolicy::Bounded] {
        let (reference, panics, engine) = run(&batches, retention, None);
        assert_eq!(panics, 0);
        assert!(reference.gatherings.len() >= CYCLES as usize);
        assert!(reference.records.len() >= CYCLES as usize);
        let resident = engine.cluster_database().len();
        match retention {
            RetentionPolicy::KeepAll => assert_eq!(resident, TICKS as usize),
            // Bounded retention must really evict: at most 10 of the 42
            // ticks stay.
            RetentionPolicy::Bounded => assert!(resident <= 10, "{resident} ticks resident"),
        }
        for panic_at in 1..=batches.len() as u64 {
            let (trail, panics, _) = run(&batches, retention, Some(panic_at));
            let cell = format!("{retention:?}, panic at batch {panic_at}");
            assert_eq!(panics, 1, "{cell}");
            assert!(trail == reference, "{cell}: the panic left a trace");
        }
    }
}

/// The worker's refresh loop by hand: after every refresh the engine rebuilt
/// from the point must serialise to the live engine's checkpoint, and the
/// counts the refreshes report must add up to what was ingested and
/// finalized.
fn point_tracks_engine(retention: RetentionPolicy, interval: usize) {
    let mut engine = fresh(retention);
    let mut point = RecoveryPoint::of(&engine);
    let mut replay = Vec::new();
    let (mut ticks, mut records) = (0, 0);
    for batch in batches() {
        engine.ingest_clusters(batch.clone());
        replay.push(batch);
        if replay.len() == interval {
            let (more_ticks, more_records) = point.top_up(&engine, &mut replay);
            assert!(replay.is_empty());
            ticks += more_ticks;
            records += more_records;
            let rebuilt = point.restore(&engine);
            assert_eq!(checkpoint_to_vec(&rebuilt), checkpoint_to_vec(&engine));
            assert_eq!(outputs(&rebuilt), outputs(&engine));
        }
    }
    let topped_up = u64::from(TICKS) - replay.len() as u64;
    assert_eq!(ticks, topped_up);
    if replay.is_empty() {
        assert_eq!(records, engine.finalized_records().len() as u64);
    }
}

#[test]
fn the_rebuilt_engine_serialises_like_the_live_one_after_every_refresh() {
    for retention in [RetentionPolicy::KeepAll, RetentionPolicy::Bounded] {
        for interval in [1, 3, 7] {
            point_tracks_engine(retention, interval);
        }
    }
}

/// A point taken mid-gathering, then a live engine that scatters and evicts
/// the very ticks the point's frontier stands on: the point owns its spine,
/// so the rebuild and the replay end where the live engine is.
#[test]
fn a_point_survives_the_eviction_of_the_ticks_it_holds() {
    let batches = batches();
    let mut engine = fresh(RetentionPolicy::Bounded);
    let (taken_after, panic_after) = (10, 23);
    for batch in &batches[..taken_after] {
        engine.ingest_clusters(batch.clone());
    }
    let point = RecoveryPoint::of(&engine);
    let held_from = engine.cluster_database().time_domain().unwrap().start;
    for batch in &batches[taken_after..panic_after] {
        engine.ingest_clusters(batch.clone());
    }
    let live_from = engine.cluster_database().time_domain().unwrap().start;
    assert!(
        live_from > held_from + 5,
        "the live engine still holds what the point does ({held_from} → {live_from})"
    );
    let mut rebuilt = point.restore(&engine);
    for batch in &batches[taken_after..panic_after] {
        rebuilt.ingest_clusters(batch.clone());
    }
    assert_eq!(checkpoint_to_vec(&rebuilt), checkpoint_to_vec(&engine));
    for batch in &batches[panic_after..] {
        engine.ingest_clusters(batch.clone());
        rebuilt.ingest_clusters(batch.clone());
    }
    assert_eq!(checkpoint_to_vec(&rebuilt), checkpoint_to_vec(&engine));
    assert_eq!(outputs(&rebuilt), outputs(&engine));
}
