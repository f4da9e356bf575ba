//! The telemetry that explains a tick of the monitoring path — snapshot,
//! DBSCAN grid, the edge phase's range searches, occurrence-table upkeep —
//! pinned on a fixed seeded scene, so a stage that starts doing different
//! work shows without a timer.
//!
//! A test binary of its own: the registry is process-wide, and a sibling
//! test clustering on another thread would move the counters.

use gpdt_clustering::{ClusterDatabase, ClusteringParams, SnapshotCluster, SnapshotClusterSet};
use gpdt_core::{CrowdParams, GatheringConfig, GatheringEngine, GatheringParams};
use gpdt_geo::Point;
use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TICKS: u32 = 40;

const COUNTERS: [&str; 8] = [
    "dbscan.grid.cells",
    "dbscan.points.noise",
    "engine.occurrence.extended",
    "engine.occurrence.rebuilt",
    "engine.edges.queries",
    "engine.edges.bounds_tested",
    "engine.edges.hausdorff_tests",
    "engine.edges.found",
];
const SPANS: [&str; 3] = ["trajectory.snapshot", "dbscan.grid", "dbscan.snapshot"];

fn readings() -> (Vec<u64>, Vec<u64>) {
    let snapshot = gpdt_obs::registry().snapshot();
    (
        COUNTERS
            .iter()
            .map(|name| snapshot.counter(name).unwrap_or(0))
            .collect(),
        SPANS
            .iter()
            .map(|name| snapshot.histogram(name).map_or(0, |h| h.count))
            .collect(),
    )
}

/// Four groups of six that stay together for the whole scene — two of them
/// drifting apart from a common start, so one crowd branches — among thirty
/// loners spread over the map.
fn scene() -> TrajectoryDatabase {
    let mut rng = StdRng::seed_from_u64(0x7e1e);
    let mut trajectories = Vec::new();
    let mut id = 0;
    for group in 0..4u32 {
        let (gx, gy) = (f64::from(group / 2) * 3_000.0, f64::from(group % 2) * 40.0);
        let drift = if group % 2 == 0 { 6.0 } else { -6.0 };
        for _ in 0..6 {
            let (ox, oy) = (rng.gen_range(-30.0..30.0), rng.gen_range(-30.0..30.0));
            let points = (0..TICKS).map(|t| (t, (gx + ox, gy + oy + drift * f64::from(t))));
            trajectories.push(Trajectory::from_points(ObjectId::new(id), points));
            id += 1;
        }
    }
    for _ in 0..30 {
        let (x, y) = (
            rng.gen_range(-8_000.0..8_000.0),
            rng.gen_range(2_000.0..9_000.0),
        );
        let points = (0..TICKS).map(|t| (t, (x + f64::from(t) * 3.0, y)));
        trajectories.push(Trajectory::from_points(ObjectId::new(id), points));
        id += 1;
    }
    TrajectoryDatabase::from_trajectories(trajectories)
}

/// Streams the scene one tick at a time; returns the gatherings found.
fn workload(db: &TrajectoryDatabase) -> usize {
    let config = GatheringConfig {
        clustering: ClusteringParams::new(100.0, 4),
        crowd: CrowdParams::new(4, 5, 150.0),
        gathering: GatheringParams::new(4, 5),
    };
    let mut engine = GatheringEngine::new(config).with_threads(1);
    for t in 0..TICKS {
        engine.ingest_trajectories_until(db, t);
    }
    engine.gatherings().len()
}

#[test]
fn stage_counters_and_spans_are_pinned_on_a_seeded_scene_and_silent_when_off() {
    let db = scene();
    gpdt_obs::set_enabled(false);
    let before = readings();
    let gatherings = workload(&db);
    assert_eq!(readings(), before, "observability off: nothing may move");

    gpdt_obs::set_enabled(true);
    assert_eq!(workload(&db), gatherings);
    let after = readings();
    let moved = |after: &[u64], before: &[u64]| -> Vec<u64> {
        after.iter().zip(before).map(|(a, b)| a - b).collect()
    };
    // One snapshot, one grid and one DBSCAN run a tick.
    assert_eq!(moved(&after.1, &before.1), vec![u64::from(TICKS); 3]);
    // Occupied ε-cells summed over the ticks, and the thirty loners as noise
    // on each of them.  Then the occurrence tables: each of the two starting
    // crowds has its table built once, on the tick it reaches `kc` clusters;
    // every later tick extends it, and where a crowd forks both branches
    // extend the parent's table — nothing is built a second time.
    // The edge phase: one query for each cluster of the groups but the last
    // tick's (the loners never cluster), the bounds in JOIN's windows, those
    // it sent on to the exact check, the edges found.
    assert_eq!(gatherings, 4);
    assert_eq!(
        moved(&after.0, &before.0),
        vec![1_532, 30 * 40, 121, 2, 127, 227, 129, 129]
    );

    // Twelve ticks of two clusters further than ε and nearer than δ apart:
    // every cluster leads to both of the next tick, 2¹² crowds by the end —
    // and two range searches a tick pair, not one per candidate, in one
    // batch and tick by tick, where the seeds share their last clusters.
    let cluster = |t: u32, y: f64| {
        let members = (0..4).map(ObjectId::new).collect();
        let points = (0..4).map(|k| Point::new(f64::from(k) * 10.0, y)).collect();
        SnapshotCluster::new(t, members, points)
    };
    let chain: Vec<SnapshotClusterSet> = (0..12)
        .map(|time| SnapshotClusterSet {
            time,
            clusters: vec![cluster(time, 0.0), cluster(time, 250.0)],
        })
        .collect();
    let config = GatheringConfig {
        clustering: ClusteringParams::new(200.0, 4),
        crowd: CrowdParams::new(4, 12, 300.0),
        gathering: GatheringParams::new(4, 12),
    };
    for batch_ticks in [12, 1] {
        let before = readings().0;
        let mut engine = GatheringEngine::new(config).with_threads(1);
        for batch in chain.chunks(batch_ticks) {
            engine.ingest_clusters(ClusterDatabase::from_sets(batch.to_vec()));
        }
        assert_eq!(engine.closed_crowds().len(), 1 << 12);
        let edges = moved(&readings().0, &before)[4..].to_vec();
        assert_eq!(edges, vec![22, 44, 44, 44], "{batch_ticks}-tick batches");
        assert!(edges[0] <= engine.stats().resident_clusters as u64);
    }
}
