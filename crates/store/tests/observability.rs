//! The supervision story as seen through `gpdt-obs`: a seeded fault run
//! must leave the same trail in the metrics registry, on the `/health`
//! surface and in the flight recorder — with the events in causal order
//! (retries → panic → recovery, degraded enter before exit) and the
//! counters agreeing exactly with what the service itself reports in its
//! [`gpdt_store::ServiceStats`].
//!
//! Everything lives in ONE `#[test]`: the registry, the gate and the
//! flight recorder are process-wide, and a second test thread would race
//! the counter deltas.

mod common;

use common::PanicOnNth;
use gpdt_clustering::{ClusterDatabase, ClusterId, ClusteringParams};
use gpdt_core::{Crowd, CrowdParams, GatheringConfig, GatheringEngine, GatheringParams};
use gpdt_geo::Mbr;
use gpdt_store::{
    FaultPlan, FaultVfs, MonitorService, PatternRecord, PatternStore, StoreOptions, Vfs,
};
use gpdt_trajectory::{ObjectId, TimeInterval, Trajectory, TrajectoryDatabase};
use std::path::Path;
use std::sync::Arc;

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(60.0, 3))
        .crowd(CrowdParams::new(3, 3, 100.0))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .unwrap()
}

/// Two lingering blobs, one after the other, so crowds finalize (and hit
/// the faulty store) while the stream is still running.
fn scene() -> TrajectoryDatabase {
    let mut trajectories = Vec::new();
    for i in 0..4u32 {
        trajectories.push(Trajectory::from_points(
            ObjectId::new(i),
            (0..8u32)
                .map(|t| (t, (f64::from(i) * 10.0, f64::from(t))))
                .collect::<Vec<_>>(),
        ));
    }
    for i in 10..14u32 {
        trajectories.push(Trajectory::from_points(
            ObjectId::new(i),
            (10..20u32)
                .map(|t| (t, (5_000.0 + f64::from(i) * 10.0, f64::from(t))))
                .collect::<Vec<_>>(),
        ));
    }
    TrajectoryDatabase::from_trajectories(trajectories)
}

fn tick_batches(db: &TrajectoryDatabase) -> Vec<ClusterDatabase> {
    db.time_domain()
        .unwrap()
        .iter()
        .map(|t| ClusterDatabase::build_interval(db, &config().clustering, TimeInterval::new(t, t)))
        .collect()
}

/// Sequence number of the first flight event of `kind` at or after `from`.
fn first_seq(events: &[gpdt_obs::FlightEvent], kind: &str, from: u64) -> Option<u64> {
    events
        .iter()
        .find(|e| e.kind == kind && e.seq >= from)
        .map(|e| e.seq)
}

#[test]
fn seeded_fault_run_is_observable_end_to_end() {
    // The gate and the registry are process-wide; force observability on
    // regardless of the environment, and measure counters as deltas from
    // whatever this process recorded before the run.
    gpdt_obs::set_enabled(true);
    let dump = std::env::temp_dir().join(format!("gpdt-obs-test-dump-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    std::env::set_var("GPDT_OBS_DUMP", &dump);

    let before = gpdt_obs::registry().snapshot();
    let base = |name: &str| before.counter(name).unwrap_or(0);
    let (retries0, panics0, recovered0, degraded0, batches0) = (
        base("service.retries"),
        base("service.worker_panics"),
        base("service.panics_recovered"),
        base("service.degraded.entries"),
        base("service.batches"),
    );
    let seq0 = gpdt_obs::flight().recorded();

    let db = scene();
    let batches = tick_batches(&db);
    let mut reference = GatheringEngine::new(config());
    reference.ingest_trajectories(&db);
    let reference = reference.finish();

    // A seeded fault VFS under tiny segments, so every append rotates and
    // the transient write/fsync faults actually bite.
    let vfs = FaultVfs::new(0x0B5_2013);
    let store = PatternStore::open_at(
        Arc::new(vfs.clone()),
        "/svc",
        StoreOptions {
            max_segment_bytes: 64,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let engine = PanicOnNth {
        inner: GatheringEngine::new(config()),
        panic_at: Some(5),
        seen: 0,
    };
    let outcome = MonitorService::run(engine, store, |handle| {
        // Act 1: transient faults force retries that succeed; batch 5
        // panics the worker, which is rebuilt from the recovery point.
        vfs.set_plan(FaultPlan {
            transient_write_one_in: Some(3),
            transient_sync_one_in: Some(3),
            ..FaultPlan::default()
        });
        // Split before the first crowd finalizes (t=8): its append — the
        // first store traffic — must land in act 2, where writes fail.
        let mid = 6;
        for batch in batches.iter().take(mid).cloned() {
            handle.ingest(batch);
        }
        handle.flush();
        let act1 = handle.stats();
        assert_eq!(act1.panics_recovered, 1, "{act1:?}");
        assert_eq!(act1.degraded_since, None);

        // Act 2: every write fails, the retry budget runs out, the
        // service degrades — then the weather clears and it recovers.
        vfs.set_plan(FaultPlan {
            transient_write_one_in: Some(1),
            ..FaultPlan::default()
        });
        for batch in batches.iter().skip(mid).cloned() {
            handle.ingest(batch);
        }
        handle.flush();
        assert!(handle.stats().degraded_since.is_some());
        // The process-wide health surface mirrors the transition (this is
        // what the /health endpoint serves).
        let health = gpdt_obs::health::info();
        assert!(health.degraded_since.is_some(), "{health:?}");
        assert!(gpdt_obs::health::degraded_since_nanos().is_some());
        // On demand: the flight recorder over the service channel.
        let journal = handle.flight_recorder();
        assert!(journal.contains("service.degraded.enter"), "{journal}");

        vfs.clear_faults();
        assert!(handle.try_recover());
        handle.flush();
        handle.stats()
    });
    let stats = outcome.value;
    assert_eq!(stats.degraded_since, None);
    let health = gpdt_obs::health::info();
    assert_eq!(
        health.degraded_since, None,
        "recovery must clear the health surface: {health:?}"
    );
    assert_eq!(
        health.last_ingest_tick.map(u64::from),
        Some(u64::from(db.time_domain().unwrap().end))
    );
    assert!(stats.retries > 0, "{stats:?}");
    assert_eq!(stats.panics_recovered, 1);
    assert_eq!(outcome.engine.inner.closed_crowds(), reference.crowds);
    assert_eq!(outcome.engine.inner.gatherings(), reference.gatherings);

    // The registry counters agree exactly with what the service reports.
    let after = gpdt_obs::registry().snapshot();
    let delta = |name: &str, from: u64| after.counter(name).unwrap_or(0) - from;
    assert_eq!(delta("service.retries", retries0), stats.retries);
    assert_eq!(delta("service.worker_panics", panics0), 1);
    assert_eq!(
        delta("service.panics_recovered", recovered0),
        stats.panics_recovered
    );
    assert_eq!(delta("service.degraded.entries", degraded0), 1);
    assert_eq!(delta("service.batches", batches0), stats.batches_ingested);
    // `/health` reports that same counter as its ingest progress.
    let body = gpdt_obs::health::render_json(&[], gpdt_obs::flight());
    let applied = after.counter("service.batches").unwrap();
    assert!(
        body.contains(&format!("\"batches_applied\":{applied},")),
        "{body}"
    );

    // The flight recorder holds the causal sequence: a retry, then the
    // worker panic and its recovery, then degraded enter before exit.
    let events: Vec<gpdt_obs::FlightEvent> = gpdt_obs::flight()
        .events()
        .into_iter()
        .filter(|e| e.seq >= seq0)
        .collect();
    let retry = first_seq(&events, "service.retry", seq0).expect("retry event");
    let panicked = first_seq(&events, "service.worker.panic", seq0).expect("panic event");
    let recovered =
        first_seq(&events, "service.panic.recovered", panicked).expect("recovery event");
    let enter = first_seq(&events, "service.degraded.enter", seq0).expect("degraded-enter event");
    let exit = first_seq(&events, "service.degraded.exit", enter).expect("degraded-exit event");
    assert!(
        panicked < recovered,
        "panic #{panicked} before recovery #{recovered}"
    );
    assert!(recovered < enter, "act 1 recovery before act 2 degradation");
    assert!(enter < exit, "degraded enter #{enter} before exit #{exit}");
    assert!(
        first_seq(&events, "service.backoff", retry.saturating_sub(1)).is_some(),
        "retries must journal their backoff sleeps"
    );

    // Degraded-mode entry dumped the journal as a post-mortem artifact.
    let dumped = std::fs::read_to_string(&dump).expect("degraded entry writes the dump");
    assert!(dumped.contains("service.degraded.enter"), "{dumped}");
    std::env::remove_var("GPDT_OBS_DUMP");
    let _ = std::fs::remove_file(&dump);

    recovery_point_work_is_counted();
    replay_work_is_counted();
    group_commit_writes_are_counted();
}

/// Group commit as counts that repeat exactly: appends only queue their
/// frames, a `sync` writes the whole group with one `write`, and a group
/// that fills writes itself out, once per 256 KiB — so a regression to a
/// write per record fails a count, not a timer.  (Called from the one
/// `#[test]`: the registry is process-wide.)
fn group_commit_writes_are_counted() {
    const GROUP_BYTES: u64 = 256 * 1024;
    const HEADER: u64 = 10;
    let writes = || {
        gpdt_obs::registry()
            .snapshot()
            .counter("vfs.write")
            .unwrap_or(0)
    };
    let vfs = FaultVfs::new(11);
    let segment = Path::new("/group/seg-00000001.gpdt");
    let mut store =
        PatternStore::open_at(Arc::new(vfs.clone()), "/group", StoreOptions::default()).unwrap();
    // One record over and over: every frame has the same length.
    let record = PatternRecord {
        crowd: Crowd::new(vec![ClusterId::new(3, 0), ClusterId::new(4, 1)]),
        mbr: Mbr::new(0.0, 0.0, 10.0, 10.0),
        gatherings: Vec::new(),
    };

    let before = writes();
    for _ in 0..100 {
        store.append(record.clone()).unwrap();
    }
    assert_eq!(writes() - before, 0, "appends only queue their frames");
    store.sync().unwrap();
    assert_eq!(writes() - before, 1, "one write for the whole group");
    let frame = (vfs.file_len(segment).unwrap() - HEADER) / 100;

    // The append that fills a group writes it: four full groups, then the
    // remainder at the barrier.
    let per_group = GROUP_BYTES.div_ceil(frame);
    let before = writes();
    for _ in 0..4 * per_group + 3 {
        store.append(record.clone()).unwrap();
    }
    assert_eq!(writes() - before, 4, "one write per full group");
    store.sync().unwrap();
    assert_eq!(writes() - before, 5);
    assert_eq!(
        vfs.file_len(segment).unwrap(),
        HEADER + (100 + 4 * per_group + 3) * frame
    );

    // Drop cannot return a failed write: the frames it loses are counted
    // and journalled instead of vanishing without a trace.
    let full = vfs.file_len(segment).unwrap();
    vfs.set_plan(FaultPlan {
        capacity: Some(full as usize),
        ..FaultPlan::default()
    });
    store.append(record.clone()).unwrap();
    store.append(record).unwrap();
    let lost = |s: &gpdt_obs::Snapshot| s.counter("store.drop.unwritten_bytes").unwrap_or(0);
    let before = lost(&gpdt_obs::registry().snapshot());
    let seq = gpdt_obs::flight().recorded();
    drop(store);
    vfs.clear_faults();
    assert_eq!(lost(&gpdt_obs::registry().snapshot()) - before, 2 * frame);
    let events = gpdt_obs::flight().events();
    assert!(first_seq(&events, "store.drop.write_failed", seq).is_some());
    assert_eq!(vfs.file_len(segment).unwrap(), full, "no torn frame");
}

/// `(frames, bytes, postings)` replayed so far, and how many reopens the
/// `store.reopen.replay` and `store.reopen.index` spans timed.
type ReplayWork = ((u64, u64, u64), [u64; 2]);

fn replay_work(snapshot: &gpdt_obs::Snapshot) -> ReplayWork {
    let counter = |name| snapshot.counter(name).unwrap_or(0);
    let timed = |name| snapshot.histogram(name).map_or(0, |h| h.count);
    (
        (
            counter("store.replay.frames"),
            counter("store.replay.bytes"),
            counter("store.replay.postings"),
        ),
        [timed("store.reopen.replay"), timed("store.reopen.index")],
    )
}

/// What one `PatternStore::open` of `vfs`'s store adds to the replay
/// counters, and the number of records it replayed.
fn reopen(vfs: &FaultVfs, options: StoreOptions) -> (ReplayWork, usize) {
    let (before, timed_before) = replay_work(&gpdt_obs::registry().snapshot());
    let store = PatternStore::open_at(Arc::new(vfs.clone()), "/replay", options).unwrap();
    let (after, timed_after) = replay_work(&gpdt_obs::registry().snapshot());
    let work = (
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        [0, 1].map(|i| timed_after[i] - timed_before[i]),
    );
    (work, store.len())
}

/// `(postings, folds, timed folds)` that appends have posted to the
/// participation log and folded into its column so far.
fn append_work(snapshot: &gpdt_obs::Snapshot) -> (u64, u64, u64) {
    (
        snapshot.counter("store.append.postings").unwrap_or(0),
        snapshot.counter("store.participation.folds").unwrap_or(0),
        snapshot
            .histogram("store.participation.fold")
            .map_or(0, |h| h.count),
    )
}

/// Replay's work is the log itself: one frame per stored record, every
/// byte of every segment and one posting per distinct participator of each
/// stored gathering, the same on each reopen, nothing with `GPDT_OBS=off`.
/// The appends that wrote the store posted those same postings, and folded
/// them into the column at some of its segment rotations (the first always,
/// as the column starts empty; not every one), one span per fold.  (Called
/// from the one `#[test]`: the registry is process-wide.)
fn replay_work_is_counted() {
    let options = StoreOptions {
        max_segment_bytes: 256,
        ..StoreOptions::default()
    };
    let vfs = FaultVfs::new(3);
    let mut engine = GatheringEngine::new(config());
    engine.ingest_trajectories(&scene());
    let (postings_before, folds_before, timed_before) =
        append_work(&gpdt_obs::registry().snapshot());
    let mut store = PatternStore::open_at(Arc::new(vfs.clone()), "/replay", options).unwrap();
    for _ in 0..4 {
        let at = store.len();
        let spill = store.spill(engine.finalized_records(), at, engine.cluster_database());
        assert!(spill.stop.is_none(), "{spill:?}");
        store.archive_closed_frontier(&engine).unwrap();
    }
    store.sync().unwrap();
    let (stored, segments) = (store.len() as u64, store.segment_count());
    assert!(segments >= 3, "{segments} segments");
    let mut postings = 0;
    for gathering in store.records().iter().flat_map(|r| &r.gatherings) {
        let mut objects = gathering.participators.clone();
        objects.dedup();
        postings += objects.len() as u64;
    }
    assert!(postings > stored, "{postings} postings");
    let (posted, folds, timed) = append_work(&gpdt_obs::registry().snapshot());
    let rotations = u64::from(segments) - 1;
    let (posted, folds, timed) = (
        posted - postings_before,
        folds - folds_before,
        timed - timed_before,
    );
    assert_eq!(posted, postings, "appends post each posting once");
    assert_eq!(timed, folds, "one span per fold");
    assert!(
        (1..rotations).contains(&folds),
        "{folds} folds at {rotations} rotations: the first folds, not every one"
    );
    drop(store);
    let on_disk: u64 = (1..=segments)
        .map(|i| {
            vfs.file_len(format!("/replay/seg-{i:08}.gpdt").as_ref())
                .unwrap()
        })
        .sum();

    let (first, len) = reopen(&vfs, options);
    assert_eq!(len as u64, stored);
    assert_eq!(first, ((stored, on_disk, postings), [1, 1]));
    let (second, _) = reopen(&vfs, options);
    assert_eq!(second, first, "replay counters must repeat exactly");

    gpdt_obs::set_enabled(false);
    let (silent, len) = reopen(&vfs, options);
    gpdt_obs::set_enabled(true);
    assert_eq!(
        silent,
        ((0, 0, 0), [0, 0]),
        "GPDT_OBS=off must record nothing"
    );
    assert_eq!(len as u64, stored);
}

/// `(refreshes, ticks copied, records copied)` of the recovery point so far.
fn recovery_work(snapshot: &gpdt_obs::Snapshot) -> (u64, u64, u64) {
    (
        snapshot
            .histogram("service.recovery.refresh")
            .map_or(0, |h| h.count),
        snapshot
            .counter("service.recovery.ticks_copied")
            .unwrap_or(0),
        snapshot
            .counter("service.recovery.records_copied")
            .unwrap_or(0),
    )
}

/// One undisturbed pass of the scene through a service, which refreshes its
/// recovery point every 16 batches: the recovery work the registry gained
/// over it, and the service's last stats.
fn clean_run() -> ((u64, u64, u64), gpdt_store::ServiceStats) {
    let before = recovery_work(&gpdt_obs::registry().snapshot());
    let store = PatternStore::open_at(
        Arc::new(FaultVfs::new(1)),
        "/clean",
        StoreOptions::default(),
    )
    .unwrap();
    let engine = GatheringEngine::new(config());
    let batches = tick_batches(&scene());
    let outcome = MonitorService::run(engine, store, |handle| {
        for batch in batches {
            handle.ingest(batch);
        }
        handle.flush();
        handle.stats()
    });
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let after = recovery_work(&gpdt_obs::registry().snapshot());
    let gained = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    (gained, outcome.value)
}

/// The "proportional to change" claim as counts that repeat exactly: what
/// the recovery point copies is what was ingested and finalized — once, not
/// once per refresh — the same on every run, and nothing with `GPDT_OBS=off`.
/// (Called from the one `#[test]`: the registry is process-wide.)
fn recovery_point_work_is_counted() {
    let (first, stats) = clean_run();
    // Twenty one-tick batches, one refresh after the sixteenth: it copies
    // those sixteen ticks and the one record finalized by then (the first
    // blob's crowd, closed at t=8).
    assert_eq!(stats.ticks_ingested, 20);
    assert_eq!(first, (1, 16, 1));
    let (second, _) = clean_run();
    assert_eq!(second, first, "work counters must repeat exactly");

    gpdt_obs::set_enabled(false);
    let (silent, stats) = clean_run();
    gpdt_obs::set_enabled(true);
    assert_eq!(silent, (0, 0, 0), "GPDT_OBS=off must record nothing");
    assert_eq!(stats.ticks_ingested, 20);
}
