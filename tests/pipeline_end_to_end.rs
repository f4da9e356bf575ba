//! End-to-end integration tests: synthetic workload → clustering → crowds →
//! gatherings, checked against the generator's planted ground truth.

use gathering_patterns::prelude::*;
use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};
use gpdt_workload::{EventKind, EventRates};

/// A rush-hour scenario with enough planted structure to be interesting but
/// small enough for CI.
fn scenario() -> gpdt_workload::GeneratedScenario {
    let mut config = ScenarioConfig::small_demo(2024);
    config.num_taxis = 300;
    config.duration = 150;
    config.area_size = 12_000.0;
    config.event_rates = EventRates {
        jams_per_hour: [6.0, 6.0, 6.0],
        venues_per_hour: [4.0, 4.0, 4.0],
        convoys_per_hour: [2.0, 2.0, 2.0],
    };
    generate_scenario(&config)
}

fn discover(scenario: &gpdt_workload::GeneratedScenario) -> gpdt_core::DiscoveryResult {
    let mut engine = GatheringEngine::new(pipeline_config());
    engine.ingest_trajectories(&scenario.database);
    engine.finish()
}

fn pipeline_config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(12, 15, 300.0))
        .gathering(GatheringParams::new(10, 12))
        .build()
        .unwrap()
}

#[test]
fn planted_jams_are_recovered_as_gatherings() {
    let scenario = scenario();
    let jams = scenario.events_of_kind(EventKind::TrafficJam);
    assert!(!jams.is_empty(), "the scenario must plant at least one jam");

    let result = discover(&scenario);
    assert!(result.crowd_count() > 0);
    assert!(result.gathering_count() > 0);

    // Every planted jam that ran long enough must be matched by a gathering
    // that overlaps it in time and shares most of its committed core.
    let mut recovered = 0usize;
    for jam in &jams {
        if jam.duration() < 25 {
            continue; // too short for the configured kc once arrival time is accounted for
        }
        let matched = result.gatherings.iter().any(|g| {
            g.crowd().interval().intersect(&jam.interval).is_some()
                && jam
                    .core_members
                    .iter()
                    .filter(|m| g.participators().contains(m))
                    .count()
                    >= jam.core_members.len() / 2
        });
        if matched {
            recovered += 1;
        }
    }
    let eligible = jams.iter().filter(|j| j.duration() >= 25).count();
    assert!(
        recovered * 10 >= eligible * 8,
        "recovered only {recovered}/{eligible} planted jams"
    );
}

#[test]
fn venue_churn_does_not_produce_gatherings_of_transients() {
    let scenario = scenario();
    let venues = scenario.events_of_kind(EventKind::Venue);
    assert!(!venues.is_empty());
    let result = discover(&scenario);

    // No gathering should list five or more of a venue's transient visitors
    // as participators: they never stay `kp` minutes at the venue.  (A taxi
    // that later commits to a jam or convoy is excluded from the check —
    // there it legitimately becomes a participator.)
    let committed_elsewhere: std::collections::HashSet<ObjectId> = scenario
        .events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::Venue))
        .flat_map(|e| e.core_members.iter().copied())
        .collect();
    for venue in &venues {
        for gathering in &result.gatherings {
            let transient_participators = venue
                .transient_members
                .iter()
                .filter(|m| !committed_elsewhere.contains(m))
                .filter(|m| gathering.participators().contains(m))
                .count();
            assert!(
                transient_participators < 5,
                "a gathering claims {transient_participators} transient venue visitors as participators"
            );
        }
    }
}

#[test]
fn gatherings_respect_configured_thresholds() {
    let scenario = scenario();
    let config = pipeline_config();
    let result = discover(&scenario);
    for gathering in &result.gatherings {
        assert!(gathering.lifetime() >= config.crowd.kc);
        assert!(gathering.participators().len() >= config.gathering.mp);
        // Every cluster of the gathering holds at least mp participators.
        for id in gathering.crowd().cluster_ids() {
            let cluster = result.clusters.cluster(*id).unwrap();
            assert!(cluster.len() >= config.crowd.mc);
            let present = gathering
                .participators()
                .iter()
                .filter(|p| cluster.contains(**p))
                .count();
            assert!(present >= config.gathering.mp);
        }
    }
    for crowd in &result.crowds {
        assert!(crowd.is_valid_crowd(&result.clusters, &config.crowd));
    }
}
