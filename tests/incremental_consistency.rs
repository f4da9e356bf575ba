//! Incremental-vs-batch consistency on realistic data: feeding the cluster
//! stream in batches must yield exactly the crowds and gatherings of a
//! from-scratch run, regardless of how the stream is sliced.  Both paths run
//! through the same `GatheringEngine`; this exercises the Lemma 4 resumption
//! and Theorem 2 reuse against the one-big-batch special case.

use gathering_patterns::prelude::*;
use gpdt_clustering::ClusterDatabase as CDB;
use gpdt_trajectory::TimeInterval;
use gpdt_workload::EventRates;

fn scenario(seed: u64, duration: u32) -> gpdt_workload::GeneratedScenario {
    let mut config = ScenarioConfig::small_demo(seed);
    config.num_taxis = 220;
    config.duration = duration;
    config.area_size = 9_000.0;
    config.event_rates = EventRates {
        jams_per_hour: [7.0, 7.0, 7.0],
        venues_per_hour: [4.0, 4.0, 4.0],
        convoys_per_hour: [2.0, 2.0, 2.0],
    };
    generate_scenario(&config)
}

#[test]
fn incremental_ingestion_matches_batch_run_for_several_slicings() {
    let duration = 120u32;
    let scenario = scenario(99, duration);
    let clustering = ClusteringParams::new(200.0, 5);

    // Batch reference: the one-big-batch special case of the engine.
    let config = GatheringConfig::builder()
        .clustering(clustering)
        .crowd(CrowdParams::new(12, 15, 300.0))
        .gathering(GatheringParams::new(8, 10))
        .build()
        .unwrap();
    let mut batch = GatheringEngine::new(config);
    batch.ingest_clusters(CDB::build(&scenario.database, &clustering));
    let batch_result = batch.finish();
    assert!(!batch_result.crowds.is_empty());

    for batch_minutes in [20u32, 40, 60] {
        let mut incremental = GatheringEngine::new(config);
        let mut start = 0u32;
        while start < duration {
            let end = (start + batch_minutes - 1).min(duration - 1);
            let batch = CDB::build_interval(
                &scenario.database,
                &clustering,
                TimeInterval::new(start, end),
            );
            incremental.ingest_clusters(batch);
            start = end + 1;
        }
        assert_eq!(
            incremental.closed_crowds(),
            batch_result.crowds,
            "closed crowds diverge for {batch_minutes}-minute batches"
        );
        assert_eq!(
            incremental.gatherings(),
            batch_result.gatherings,
            "closed gatherings diverge for {batch_minutes}-minute batches"
        );
    }
}
