//! Baseline miners on the synthetic workload: planted convoy flows must be
//! recovered by the convoy and swarm miners, and the gathering pipeline must
//! distinguish jams (gatherings) from platoons and venue churn.

use gathering_patterns::prelude::*;
use gpdt_baselines::{
    discover_closed_swarms_from_clusters, discover_convoys_from_clusters, ConvoyParams, SwarmParams,
};
use gpdt_core::ClusteringParams;
use gpdt_workload::{EventKind, EventRates};

fn convoy_heavy_scenario() -> gpdt_workload::GeneratedScenario {
    let mut config = ScenarioConfig::small_demo(314);
    config.num_taxis = 250;
    config.duration = 120;
    config.area_size = 15_000.0;
    config.event_rates = EventRates {
        jams_per_hour: [2.0, 2.0, 2.0],
        venues_per_hour: [1.0, 1.0, 1.0],
        convoys_per_hour: [10.0, 10.0, 10.0],
    };
    generate_scenario(&config)
}

#[test]
fn planted_convoy_flows_are_found_by_convoy_and_swarm_miners() {
    let scenario = convoy_heavy_scenario();
    let flows = scenario.events_of_kind(EventKind::ConvoyFlow);
    assert!(!flows.is_empty());

    let clustering = ClusteringParams::new(200.0, 5);
    let clusters = ClusterDatabase::build(&scenario.database, &clustering);

    let convoys = discover_convoys_from_clusters(&clusters, &ConvoyParams::new(10, 8, clustering));
    let swarms =
        discover_closed_swarms_from_clusters(&clusters, &SwarmParams::new(10, 8, clustering));
    assert!(!convoys.is_empty(), "no convoys found for planted flows");
    assert!(!swarms.is_empty(), "no swarms found for planted flows");

    // Every sufficiently long planted flow is matched by a convoy that shares
    // most of its members and overlaps it in time.
    for flow in flows.iter().filter(|f| f.duration() >= 10) {
        let matched = convoys.iter().any(|c| {
            let shared = flow
                .core_members
                .iter()
                .filter(|m| c.objects.contains(m))
                .count();
            let overlap = c
                .interval()
                .and_then(|iv| iv.intersect(&flow.interval))
                .is_some();
            shared >= flow.core_members.len() * 2 / 3 && overlap
        });
        assert!(
            matched,
            "planted convoy flow starting at {} was not recovered",
            flow.interval.start
        );
    }
}

#[test]
fn every_gathering_is_explained_by_a_planted_committed_group() {
    // Two kinds of planted events can legitimately satisfy the gathering
    // definition: traffic jams (stationary committed core) and long, slow
    // convoy flows (a platoon whose per-minute Hausdorff drift stays below
    // δ and whose members are committed for the whole flow).  Venue churn
    // and background traffic must never explain a gathering.
    let scenario = convoy_heavy_scenario();
    let config = GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(gpdt_core::CrowdParams::new(12, 15, 300.0))
        .gathering(gpdt_core::GatheringParams::new(10, 12))
        .build()
        .unwrap();
    let mut engine = GatheringEngine::new(config);
    engine.ingest_trajectories(&scenario.database);
    let result = engine.finish();
    let committed_events: Vec<_> = scenario
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TrafficJam | EventKind::ConvoyFlow))
        .collect();
    for gathering in &result.gatherings {
        let explained = committed_events.iter().any(|event| {
            gathering
                .crowd()
                .interval()
                .intersect(&event.interval)
                .is_some()
                && event
                    .core_members
                    .iter()
                    .filter(|m| gathering.participators().contains(m))
                    .count()
                    >= config.gathering.mp / 2
        });
        assert!(
            explained,
            "a gathering was found that no planted committed group explains ({} participators)",
            gathering.participators().len()
        );
    }
}
