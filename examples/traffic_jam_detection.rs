//! Traffic-jam detection: the paper's motivating application.
//!
//! Generates a rush-hour scenario with planted traffic jams and venue
//! hotspots, runs the gathering pipeline, and checks the discovered
//! gatherings against the planted ground truth: jams (durable, committed
//! membership) should be recovered as gatherings, while venue drop-off spots
//! (high churn) should at best appear as crowds.
//!
//! Run with `cargo run --example traffic_jam_detection --release`.

use gathering_patterns::prelude::*;
use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};
use gpdt_workload::{EventKind, EventRates};

fn main() {
    // A rush-hour slice with aggressive jam rates so the example always has
    // ground truth to compare against.
    let mut config = ScenarioConfig::small_demo(7);
    config.num_taxis = 300;
    config.duration = 180;
    config.area_size = 12_000.0;
    config.event_rates = EventRates {
        jams_per_hour: [6.0, 6.0, 6.0],
        venues_per_hour: [4.0, 4.0, 4.0],
        convoys_per_hour: [2.0, 2.0, 2.0],
    };
    let scenario = generate_scenario(&config);

    let jams = scenario.events_of_kind(EventKind::TrafficJam);
    let venues = scenario.events_of_kind(EventKind::Venue);
    println!(
        "planted ground truth: {} traffic jams, {} venue hotspots",
        jams.len(),
        venues.len()
    );

    let pipeline_config = GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(12, 15, 300.0))
        .gathering(GatheringParams::new(10, 12))
        .build()
        .expect("consistent parameters");
    let mut engine = GatheringEngine::new(pipeline_config);
    engine.ingest_trajectories(&scenario.database);
    let result = engine.finish();
    println!(
        "discovered {} closed crowds and {} closed gatherings",
        result.crowd_count(),
        result.gathering_count()
    );

    // Match each planted jam against the discovered gatherings by time
    // overlap and participator membership.
    let mut recovered = 0usize;
    for jam in &jams {
        let hit = result.gatherings.iter().find(|g| {
            let overlap = g.crowd().interval().intersect(&jam.interval).is_some();
            let committed = jam
                .core_members
                .iter()
                .filter(|m| g.participators().contains(m))
                .count();
            overlap && committed >= jam.core_members.len() / 2
        });
        match hit {
            Some(g) => {
                recovered += 1;
                println!(
                    "  jam at ({:7.0},{:7.0}) minutes {:>3}..{:<3} -> gathering with {} participators, minutes {}..{}",
                    jam.center.x,
                    jam.center.y,
                    jam.interval.start,
                    jam.interval.end,
                    g.participators().len(),
                    g.crowd().interval().start,
                    g.crowd().interval().end,
                );
            }
            None => println!(
                "  jam at ({:7.0},{:7.0}) minutes {:>3}..{:<3} -> NOT recovered",
                jam.center.x, jam.center.y, jam.interval.start, jam.interval.end
            ),
        }
    }
    println!(
        "recovered {recovered}/{} planted jams as gatherings",
        jams.len()
    );

    // Venue hotspots should not produce gatherings: their members churn too
    // fast to become participators.  A false positive is a gathering whose
    // crowd passes through the venue site while it is active and whose
    // participators are drawn from the venue's churners.
    let venue_gatherings = venues
        .iter()
        .filter(|v| {
            result.gatherings.iter().any(|g| {
                let overlaps = g.crowd().interval().intersect(&v.interval).is_some();
                let at_venue = g.crowd().cluster_ids().iter().any(|&id| {
                    result
                        .clusters
                        .cluster(id)
                        .is_some_and(|c| c.centroid().distance(&v.center) < 500.0)
                });
                overlaps
                    && at_venue
                    && v.transient_members
                        .iter()
                        .filter(|m| g.participators().contains(m))
                        .count()
                        >= 5
            })
        })
        .count();
    println!(
        "venue hotspots wrongly reported as gatherings: {venue_gatherings}/{}",
        venues.len()
    );
}
