//! Quickstart: generate a small synthetic scene and discover its gathering
//! patterns.
//!
//! Run with `cargo run --example quickstart --release`.

use gathering_patterns::prelude::*;
use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};

fn main() {
    // 1. A small synthetic scene: ~60 taxis over one hour of a morning peak,
    //    with traffic jams, venue drop-offs and convoy flows planted by the
    //    generator.
    let scenario = generate_scenario(&ScenarioConfig::small_demo(42));
    println!(
        "generated {} taxis x {} minutes ({} samples), {} planted events",
        scenario.database.len(),
        scenario.config.duration,
        scenario.database.total_samples(),
        scenario.events.len()
    );

    // 2. Configure the discovery pipeline.  The thresholds are scaled-down
    //    versions of the paper's defaults, appropriate for the small fleet.
    let config = GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(10, 15, 300.0))
        .gathering(GatheringParams::new(8, 10))
        .build()
        .expect("consistent parameters");

    // 3. Run snapshot clustering, closed-crowd discovery and closed-gathering
    //    detection over the whole database.
    let mut engine = GatheringEngine::new(config);
    engine.ingest_trajectories(&scenario.database);
    let result = engine.finish();

    println!(
        "snapshot clusters: {}, closed crowds: {}, closed gatherings: {}",
        result.clusters.total_clusters(),
        result.crowd_count(),
        result.gathering_count()
    );

    // 4. Inspect the gatherings.
    for (i, gathering) in result.gatherings.iter().enumerate() {
        let interval = gathering.crowd().interval();
        println!(
            "gathering #{i}: minutes {}..={} ({} min), {} participators",
            interval.start,
            interval.end,
            gathering.lifetime(),
            gathering.participators().len(),
        );
    }
    if result.gatherings.is_empty() {
        println!("no gathering found at these thresholds — try lowering mp/kp");
    }
}
