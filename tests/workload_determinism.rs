//! Workload determinism: a `ScenarioConfig` is a complete, reproducible
//! description of its dataset, and the quickstart flow runs end-to-end.

use gathering_patterns::prelude::*;
use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};
use gpdt_trajectory::io;

#[test]
fn same_seed_produces_byte_identical_dataset() {
    let config = ScenarioConfig::small_demo(20260730);
    let a = generate_scenario(&config);
    let b = generate_scenario(&config);

    // The canonical text serialization must match byte for byte.
    let text_a = io::to_string(&a.database);
    let text_b = io::to_string(&b.database);
    assert_eq!(text_a.as_bytes(), text_b.as_bytes());

    // The planted ground truth must match as well.
    assert_eq!(a.events, b.events);
}

#[test]
fn dataset_roundtrips_through_text_format() {
    let scenario = generate_scenario(&ScenarioConfig::small_demo(77));
    let text = io::to_string(&scenario.database);
    let parsed = io::from_str(&text).expect("parse back our own serialization");
    assert_eq!(parsed.len(), scenario.database.len());
    assert_eq!(parsed.total_samples(), scenario.database.total_samples());
    // Re-serializing must reproduce the same bytes (canonical form).
    assert_eq!(io::to_string(&parsed), text);
}

#[test]
fn different_seeds_produce_different_datasets() {
    let a = generate_scenario(&ScenarioConfig::small_demo(1));
    let b = generate_scenario(&ScenarioConfig::small_demo(2));
    assert_ne!(io::to_string(&a.database), io::to_string(&b.database));
}

/// The quickstart example's logic, end-to-end: generate, configure, discover.
#[test]
fn quickstart_flow_runs_end_to_end() {
    let scenario = generate_scenario(&ScenarioConfig::small_demo(42));
    assert!(!scenario.database.is_empty());
    assert_eq!(
        scenario.database.total_samples(),
        scenario.database.len() * scenario.config.duration as usize
    );

    let config = GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(10, 15, 300.0))
        .gathering(GatheringParams::new(8, 10))
        .build()
        .expect("consistent parameters");

    let mut engine = GatheringEngine::new(config);
    engine.ingest_trajectories(&scenario.database);
    let result = engine.finish();

    // The pipeline must produce a cluster database covering the scenario and
    // internally consistent pattern counts; gatherings are always derived
    // from discovered crowds.
    assert!(result.clusters.total_clusters() > 0);
    assert!(result.gathering_count() <= result.crowd_count() * 4);
    for gathering in &result.gatherings {
        let interval = gathering.crowd().interval();
        assert!(interval.start <= interval.end);
        assert!(!gathering.participators().is_empty());
    }
}
