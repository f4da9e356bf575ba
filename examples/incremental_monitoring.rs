//! Incremental monitoring: handle trajectory data that arrives in batches.
//!
//! A monitoring deployment receives new GPS data periodically (the paper
//! appends a day at a time).  Re-running discovery from scratch on the whole
//! history gets slower with every batch; the streaming [`GatheringEngine`]
//! clusters only the newly arrived snapshots and resumes crowd discovery
//! from its saved frontier (Lemma 4), updating gatherings with the Theorem 2
//! shortcut.
//!
//! This example replays a three-hour scenario into the engine in 30-minute
//! slices and prints what each update adds, then cross-checks the final
//! state against a from-scratch batch run — which is itself just the
//! one-big-batch special case of the same engine.
//!
//! Run with `cargo run --example incremental_monitoring --release`.

use gathering_patterns::prelude::*;
use gpdt_workload::EventRates;

fn main() {
    let mut config = ScenarioConfig::small_demo(11);
    config.num_taxis = 250;
    config.duration = 180;
    config.area_size = 10_000.0;
    config.event_rates = EventRates {
        jams_per_hour: [5.0, 5.0, 5.0],
        venues_per_hour: [3.0, 3.0, 3.0],
        convoys_per_hour: [2.0, 2.0, 2.0],
    };
    let scenario = generate_scenario(&config);

    let discovery_config = GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(12, 15, 300.0))
        .gathering(GatheringParams::new(10, 12))
        .build()
        .expect("valid parameters");

    let mut monitor = GatheringEngine::new(discovery_config);

    let batch_minutes = 30u32;
    for batch_idx in 0..(config.duration / batch_minutes) {
        let through = (batch_idx + 1) * batch_minutes - 1;
        // In a real deployment the new GPS points would be appended to the
        // database between calls; here the history already exists and the
        // engine replays it slice by slice, clustering only the new ticks.
        let update = monitor.ingest_trajectories_until(&scenario.database, through);
        println!(
            "batch {:>2} (minutes {:>3}..{:<3}): {} crowds finalised ({} extended from the frontier), {} gatherings",
            batch_idx + 1,
            batch_idx * batch_minutes,
            through,
            update.new_closed_crowds,
            update.extended_from_frontier,
            update.new_gatherings,
        );
    }

    let final_crowds = monitor.closed_crowds();
    let final_gatherings = monitor.gatherings();
    println!(
        "\nafter all batches: {} closed crowds, {} closed gatherings",
        final_crowds.len(),
        final_gatherings.len()
    );

    // Cross-check against a from-scratch batch run over the full history.
    let mut batch_run = GatheringEngine::new(discovery_config);
    batch_run.ingest_trajectories(&scenario.database);
    let batch_run = batch_run.finish();
    println!(
        "from-scratch run finds {} closed crowds — incremental and batch results {}",
        batch_run.crowds.len(),
        if batch_run.crowds == final_crowds && batch_run.gatherings == final_gatherings {
            "agree"
        } else {
            "DISAGREE (this would be a bug)"
        }
    );
}
