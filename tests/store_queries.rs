//! PatternStore query equivalence on real discovery output: the indexed
//! region × time-window queries must return exactly the gatherings a full
//! scan over all stored records finds, the store must survive a reopen
//! byte-identically, and the concurrent `MonitorService` path must produce
//! the same durable state as offline appends.

use gathering_patterns::prelude::*;
use gpdt_core::GatheringEngine;
use gpdt_store::{PatternStore, StoreOptions};
use gpdt_trajectory::TimeInterval;
use gpdt_workload::EventRates;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpdt-store-queries-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario(seed: u64, duration: u32) -> gpdt_workload::GeneratedScenario {
    let mut config = ScenarioConfig::small_demo(seed);
    config.num_taxis = 150;
    config.duration = duration;
    config.area_size = 8_000.0;
    config.event_rates = EventRates {
        jams_per_hour: [8.0, 8.0, 8.0],
        venues_per_hour: [5.0, 5.0, 5.0],
        convoys_per_hour: [2.0, 2.0, 2.0],
    };
    generate_scenario(&config)
}

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(10, 8, 300.0))
        .gathering(GatheringParams::new(8, 6))
        .build()
        .unwrap()
}

/// Runs discovery to completion and stores every record — including the
/// final frontier's closed crowds, so the store sees everything a batch run
/// reports.
fn populated_store(dir: &PathBuf) -> PatternStore {
    let scenario = scenario(555, 60);
    let config = config();
    let mut engine = GatheringEngine::new(config);
    engine.ingest_trajectories(&scenario.database);

    // Tiny segments force several rotations, so the reopen path replays a
    // multi-segment log.
    let mut store = PatternStore::open_with(
        dir,
        StoreOptions {
            max_segment_bytes: 2048,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let spill = store.spill(engine.finalized_records(), 0, engine.cluster_database());
    assert!(spill.stop.is_none(), "{spill:?}");
    // Frontier crowds long enough to be closed *so far* are patterns too;
    // store them the way a monitor shutting down cleanly would.
    store.archive_closed_frontier(&engine).unwrap();
    store.sync().unwrap();
    assert!(
        store.len() >= 5,
        "scenario must produce a meaningful store, got {} records",
        store.len()
    );
    store
}

#[test]
fn region_time_queries_equal_full_scans_and_survive_reopen() {
    let dir = temp_dir("equivalence");
    let store = populated_store(&dir);
    let mut rng = StdRng::seed_from_u64(77);

    // The store's overall extent, to aim the random query boxes at.
    let extent = store
        .records()
        .iter()
        .fold(None::<Mbr>, |acc, r| match acc {
            None => Some(r.mbr),
            Some(mut m) => {
                m.expand_to_mbr(&r.mbr);
                Some(m)
            }
        })
        .expect("non-empty store");

    let reopened = PatternStore::open(&dir).unwrap();
    assert_eq!(reopened.len(), store.len());
    assert_eq!(reopened.records(), store.records());

    for round in 0..100 {
        let t1 = rng.gen_range(0u32..70);
        let t2 = rng.gen_range(0u32..70);
        let window = TimeInterval::new(t1.min(t2), t1.max(t2));
        let x = rng.gen_range(extent.min_x - 500.0..extent.max_x);
        let y = rng.gen_range(extent.min_y - 500.0..extent.max_y);
        let region = Mbr::new(
            x,
            y,
            x + rng.gen_range(10.0..4_000.0),
            y + rng.gen_range(10.0..4_000.0),
        );

        // Indexed query vs. exhaustive scan.
        let got: Vec<(usize, usize)> = store
            .query_gatherings(&region, window)
            .iter()
            .map(|hit| (hit.record, hit.index))
            .collect();
        let expected: Vec<(usize, usize)> = store
            .records()
            .iter()
            .enumerate()
            .flat_map(|(id, record)| {
                record
                    .gatherings
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| {
                        g.mbr.intersects(&region)
                            && g.interval.start <= window.end
                            && g.interval.end >= window.start
                    })
                    .map(move |(index, _)| (id, index))
            })
            .collect();
        assert_eq!(got, expected, "round {round}: region {region:?} × {window}");

        // The reopened store answers identically.
        let reopened_got: Vec<(usize, usize)> = reopened
            .query_gatherings(&region, window)
            .iter()
            .map(|hit| (hit.record, hit.index))
            .collect();
        assert_eq!(reopened_got, got, "round {round}: reopen mismatch");

        // Interval-only index agrees with a scan as well.
        let ids = store.crowds_in_window(window);
        let expected_ids: Vec<usize> = store
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                let iv = r.interval();
                iv.start <= window.end && iv.end >= window.start
            })
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, expected_ids, "round {round}: window {window}");
    }

    // Participation histories match a scan, for every object ever stored.
    let mut objects: Vec<ObjectId> = store
        .records()
        .iter()
        .flat_map(|r| r.gatherings.iter().flat_map(|g| g.participators.clone()))
        .collect();
    objects.sort_unstable();
    objects.dedup();
    assert!(!objects.is_empty());
    for object in objects {
        let got: Vec<(usize, usize)> = store
            .object_history(object)
            .iter()
            .map(|hit| (hit.record, hit.index))
            .collect();
        let expected: Vec<(usize, usize)> = store
            .records()
            .iter()
            .enumerate()
            .flat_map(|(id, r)| {
                r.gatherings
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.participators.binary_search(&object).is_ok())
                    .map(move |(index, _)| (id, index))
            })
            .collect();
        assert_eq!(got, expected, "object {object}");
    }

    // Top-k ranking: sorted by participator count, ties by position; the
    // prefix property holds for every k.
    let all = store.top_k_gatherings(usize::MAX);
    let total: usize = store.records().iter().map(|r| r.gatherings.len()).sum();
    assert_eq!(all.len(), total);
    for pair in all.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let key = |h: &gpdt_store::GatheringHit| {
            (
                usize::MAX - h.gathering.participators.len(),
                h.record,
                h.index,
            )
        };
        assert!(key(a) <= key(b), "top-k ordering violated");
    }
    for k in [0, 1, 3, total, total + 5] {
        let top = store.top_k_gatherings(k);
        assert_eq!(top.len(), k.min(total));
        assert_eq!(&all[..top.len()], top.as_slice());
    }

    drop(store);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn service_produces_the_same_store_as_offline_appends() {
    let duration = 50u32;
    let scenario = scenario(4040, duration);
    let config = config();

    // Offline: run the engine to completion, append all finalized records.
    let offline_dir = temp_dir("offline");
    let mut engine = GatheringEngine::new(config);
    engine.ingest_trajectories(&scenario.database);
    let mut offline = PatternStore::open(&offline_dir).unwrap();
    let spill = offline.spill(engine.finalized_records(), 0, engine.cluster_database());
    assert!(spill.stop.is_none(), "{spill:?}");

    // Online: the same stream through the concurrent service, with queries
    // racing the ingestion.
    let service_dir = temp_dir("service");
    let store = PatternStore::open(&service_dir).unwrap();
    let outcome = MonitorService::run(GatheringEngine::new(config), store, |handle| {
        for t in 0..duration {
            let batch = ClusterDatabase::build_interval(
                &scenario.database,
                &config.clustering,
                TimeInterval::new(t, t),
            );
            handle.ingest(batch);
            // Interleave queries with the ingestion to exercise the lock.
            if t % 7 == 0 {
                let _ = handle.top_k(5);
            }
        }
        handle.flush();
    });
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);

    assert_eq!(outcome.store.records(), offline.records());
    assert_eq!(outcome.engine.closed_crowds(), engine.closed_crowds());

    drop(offline);
    drop(outcome);
    std::fs::remove_dir_all(&offline_dir).unwrap();
    std::fs::remove_dir_all(&service_dir).unwrap();
}
