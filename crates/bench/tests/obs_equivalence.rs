//! Telemetry must never change results: the fig5 mining path — clustering,
//! the streaming engine, the out-of-core driver, the pattern store, and the
//! fault-injection VFS underneath — produces identical output with the
//! observability stack on and off.  This is the in-process version of the
//! CI step that byte-compares `BENCH_fig5.json` across `GPDT_OBS` modes.
//!
//! One `#[test]`: the gate is process-wide state.

use gpdt_bench::fault_sweep::mine_under_faults;
use gpdt_bench::out_of_core::ingest_resilient;
use gpdt_bench::scenarios::clustered_day;
use gpdt_clustering::SnapshotClusterSet;
use gpdt_core::{CrowdParams, GatheringConfig, GatheringEngine, GatheringParams, RetentionPolicy};
use gpdt_store::PatternStore;
use gpdt_workload::Weather;

fn config(clustering: gpdt_clustering::ClusteringParams) -> GatheringConfig {
    GatheringConfig {
        clustering,
        crowd: CrowdParams::new(5, 6, 300.0),
        gathering: GatheringParams::new(3, 4),
    }
}

/// The fig5 healthy path at toy scale, summarised as a `Debug` string (a
/// byte-compare proxy covering records, crowds and gatherings).
fn mine(tag: &str, sets: &[SnapshotClusterSet], config: &GatheringConfig) -> String {
    let mut engine = GatheringEngine::new(*config).with_retention(RetentionPolicy::Bounded);
    let dir = gpdt_bench::env::scratch_dir(tag);
    let mut store = PatternStore::open(&dir).expect("open scratch store");
    // A tiny budget forces many batches through the spill path.
    ingest_resilient(&mut engine, sets, 1 << 20, &mut store, 0, 0, |_, _, _| {
        Ok(())
    })
    .expect("spill records");
    store
        .archive_closed_frontier(&engine)
        .expect("archive frontier");
    let summary = format!(
        "{:?}|{:?}|{:?}",
        store.records(),
        engine.closed_crowds(),
        engine.gatherings()
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    summary
}

#[test]
fn mining_output_is_identical_with_observability_on_and_off() {
    // The fault plan kills the backend half-way through a fault-free run's
    // mutating operations (every group write, fsync, segment rotation and
    // cursor write counts), so mining crosses it whatever the day's size.
    let day = clustered_day(2013, Weather::Snowy, 140, 240);
    let config = config(day.clustering);
    let sets = day.clusters.into_sets();

    gpdt_obs::set_enabled(true);
    let healthy_on = mine("obs-eq-on", &sets, &config);
    let (faulty_on, incarnations_on, restarts_on) =
        mine_under_faults(0xF00D, &config, &sets, 1 << 20);

    gpdt_obs::set_enabled(false);
    let healthy_off = mine("obs-eq-off", &sets, &config);
    let (faulty_off, incarnations_off, restarts_off) =
        mine_under_faults(0xF00D, &config, &sets, 1 << 20);
    gpdt_obs::set_enabled(true);

    assert!(
        healthy_on.contains("Gathering") || !healthy_on.is_empty(),
        "the workload must produce something to compare"
    );
    assert_eq!(healthy_on, healthy_off, "telemetry changed mining output");

    // The fault schedule is seeded rng state; instrumentation consuming a
    // single draw would shift every kill point.  Identical incarnation and
    // restart counts prove the schedule — not just the end state — matched.
    assert_eq!(faulty_on, faulty_off, "telemetry changed fault recovery");
    assert_eq!(incarnations_on, incarnations_off);
    assert_eq!(restarts_on, restarts_off);
    assert!(
        incarnations_on > 1,
        "the fault plan must actually have killed the backend"
    );
}
