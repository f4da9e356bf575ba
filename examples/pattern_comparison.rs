//! Pattern comparison: gathering vs convoy vs swarm vs moving cluster.
//!
//! Reproduces the intuition of the paper's Figure 1 on three hand-crafted
//! scenes:
//!
//! 1. A *stable event with churn* (a celebration / jam): members come and go
//!    but a committed core stays — a gathering, but not a convoy or swarm of
//!    the full attendance.
//! 2. A *travelling platoon*: objects move together across the city — a
//!    convoy and swarm, and (because it moves smoothly) also a crowd, but its
//!    members never linger anywhere.
//! 3. A *busy intersection*: different vehicles pass through a dense spot at
//!    every minute — a dense area, but neither a gathering nor a convoy.
//!
//! Run with `cargo run --example pattern_comparison --release`.

use gathering_patterns::prelude::*;
use gpdt_baselines::{
    discover_closed_swarms, discover_convoys, discover_moving_clusters, ConvoyParams,
    MovingClusterParams, SwarmParams,
};
use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};
use gpdt_trajectory::Trajectory;

/// Scene 1: an event at a fixed venue.  Ten core attendees stay for the whole
/// 30 minutes; a rotating cast of visitors stays 3 minutes each.
fn stable_event_scene() -> TrajectoryDatabase {
    let mut trajectories = Vec::new();
    let venue = (5_000.0, 5_000.0);
    for i in 0..10u32 {
        let (dx, dy) = ((i % 5) as f64 * 20.0, (i / 5) as f64 * 20.0);
        trajectories.push(Trajectory::from_points(
            ObjectId::new(i),
            (0..30u32)
                .map(|t| (t, (venue.0 + dx, venue.1 + dy + (t % 3) as f64)))
                .collect::<Vec<_>>(),
        ));
    }
    // Visitors: each present for 3 minutes, then far away.
    for v in 0..9u32 {
        let id = 100 + v;
        let start = v * 3;
        trajectories.push(Trajectory::from_points(
            ObjectId::new(id),
            (0..30u32)
                .map(|t| {
                    if t >= start && t < start + 3 {
                        (t, (venue.0 + 60.0, venue.1 + v as f64 * 10.0))
                    } else {
                        (t, (40_000.0 + id as f64 * 1_000.0, 40_000.0))
                    }
                })
                .collect::<Vec<_>>(),
        ));
    }
    TrajectoryDatabase::from_trajectories(trajectories)
}

/// Scene 2: a platoon of 12 vehicles crossing the city together.
fn platoon_scene() -> TrajectoryDatabase {
    let mut trajectories = Vec::new();
    for i in 0..12u32 {
        let (dx, dy) = ((i % 4) as f64 * 25.0, (i / 4) as f64 * 25.0);
        trajectories.push(Trajectory::from_points(
            ObjectId::new(i),
            (0..30u32)
                .map(|t| (t, (1_000.0 + t as f64 * 250.0 + dx, 2_000.0 + dy)))
                .collect::<Vec<_>>(),
        ));
    }
    TrajectoryDatabase::from_trajectories(trajectories)
}

/// Scene 3: a busy intersection — every minute a different set of vehicles
/// occupies it.
fn intersection_scene() -> TrajectoryDatabase {
    let spot = (3_000.0, 3_000.0);
    let mut trajectories = Vec::new();
    for wave in 0..30u32 {
        for j in 0..12u32 {
            let id = 1_000 + wave * 12 + j;
            trajectories.push(Trajectory::from_points(
                ObjectId::new(id),
                (0..30u32)
                    .map(|t| {
                        if t == wave {
                            (t, (spot.0 + j as f64 * 15.0, spot.1))
                        } else {
                            (t, (80_000.0 + id as f64 * 500.0, 80_000.0))
                        }
                    })
                    .collect::<Vec<_>>(),
            ));
        }
    }
    TrajectoryDatabase::from_trajectories(trajectories)
}

fn analyse(name: &str, db: &TrajectoryDatabase) {
    let clustering = ClusteringParams::new(200.0, 5);
    let config = GatheringConfig::builder()
        .clustering(clustering)
        .crowd(CrowdParams::new(8, 10, 300.0))
        .gathering(GatheringParams::new(6, 8))
        .build()
        .expect("consistent parameters");
    let mut engine = GatheringEngine::new(config);
    engine.ingest_trajectories(db);
    let result = engine.finish();

    let convoys = discover_convoys(db, &ConvoyParams::new(8, 10, clustering));
    let swarms = discover_closed_swarms(db, &SwarmParams::new(8, 10, clustering));
    let moving = discover_moving_clusters(db, &MovingClusterParams::new(0.6, 10, clustering));

    println!(
        "{name:<22} crowds: {:>2}  gatherings: {:>2}  convoys: {:>2}  swarms: {:>2}  moving clusters: {:>2}",
        result.crowd_count(),
        result.gathering_count(),
        convoys.len(),
        swarms.len(),
        moving.len()
    );
}

fn main() {
    println!("pattern counts per scene (thresholds: 8 objects, ~10 minutes)\n");
    analyse("stable event + churn", &stable_event_scene());
    analyse("travelling platoon", &platoon_scene());
    analyse("busy intersection", &intersection_scene());
    println!(
        "\nExpected: the stable event is a gathering (committed core) even though its full \
         attendance is never a convoy/swarm; the platoon is a convoy/swarm/moving cluster; the \
         intersection produces at most transient density but no gathering."
    );
}
