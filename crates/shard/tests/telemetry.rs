//! The sharded engine's deterministic work counters, pinned on a seeded
//! stream so a change in what the merge scans, indexes or logs shows without
//! a timer.
//!
//! A test binary of its own with one test: the `gpdt_obs` counters are
//! process-wide, and a sibling test ingesting on another thread would move
//! them.

use gpdt_clustering::{ClusterDatabase, SnapshotClusterSet};
use gpdt_core::{ClusteringParams, CrowdParams, GatheringConfig, GatheringParams};
use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine, ShardedStats};
use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 5] = [
    "shard.boundary.clusters",
    "shard.merge.pairs_tested",
    "shard.merge.hausdorff_tests",
    "shard.merge.index_builds",
    "shard.prefixes.logged",
];

fn counters() -> [u64; 5] {
    NAMES.map(|name| gpdt_obs::registry().counter(name).get())
}

fn work(stats: &ShardedStats) -> [u64; 5] {
    [
        stats.boundary_clusters,
        stats.merge_pairs_tested,
        stats.merge_hausdorff_tests,
        stats.merge_index_builds,
        stats.prefixes_logged,
    ]
}

/// Twenty-four groups, a kilometre apart so their crowds never branch into
/// each other, each on a correlated random walk over 400-unit cells with
/// steps below δ: the crowds live long and keep crossing cell borders.  Now
/// and then a group's first member strays for a tick, which hands the
/// cluster to another lead object — the hash partitioner's border.
fn stream() -> TrajectoryDatabase {
    let mut rng = StdRng::seed_from_u64(0x7e1e);
    let mut trajectories = Vec::new();
    for group in 0..24u32 {
        let mut cx = f64::from(group % 6) * 1_000.0 + rng.gen_range(-80.0..80.0);
        let mut cy = f64::from(group / 6) * 1_000.0 + rng.gen_range(-80.0..80.0);
        let mut members: Vec<Vec<(u32, (f64, f64))>> = vec![Vec::new(); 5];
        for t in 0..40u32 {
            cx += rng.gen_range(-60.0..60.0);
            cy += rng.gen_range(-60.0..60.0);
            let strays = rng.gen_range(0u32..6) == 0;
            for (k, points) in members.iter_mut().enumerate() {
                let away = if strays && k == 0 { 400.0 } else { 0.0 };
                points.push((
                    t,
                    (cx + k as f64 * 9.0, cy + away + rng.gen_range(-6.0..6.0)),
                ));
            }
        }
        trajectories.extend(members.into_iter().enumerate().map(|(k, points)| {
            Trajectory::from_points(ObjectId::new(group * 10 + k as u32), points)
        }));
    }
    TrajectoryDatabase::from_trajectories(trajectories)
}

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(45.0, 3))
        .crowd(CrowdParams::new(3, 3, 110.0))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .unwrap()
}

/// Streams the clustered day in five-tick batches; returns the final stats.
fn run(clusters: &ClusterDatabase, partitioner: Partitioner, threads: usize) -> ShardedStats {
    let mut engine = ShardedEngine::new(config(), 4, partitioner).with_threads(threads);
    let sets: Vec<SnapshotClusterSet> = clusters.iter().cloned().collect();
    for batch in sets.chunks(5) {
        engine.ingest_clusters(ClusterDatabase::from_sets(batch.to_vec()));
    }
    engine.stats()
}

#[test]
fn work_counters_are_pinned_repeatable_and_silent_when_off() {
    let grid = Partitioner::Grid(GridPartitioner::new(400.0));
    let clusters = ClusterDatabase::build(&stream(), &config().clustering);
    let run = |partitioner, threads| run(&clusters, partitioner, threads);

    gpdt_obs::set_enabled(false);
    let before = counters();
    let quiet = run(grid, 2);
    assert_eq!(
        counters(),
        before,
        "observability off: the counters must not move"
    );

    gpdt_obs::set_enabled(true);
    let stats = run(grid, 2);
    let moved: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        moved,
        work(&stats),
        "the registry counts what the stats count"
    );
    assert_eq!(work(&stats), work(&quiet), "and the stats count either way");

    // The same stream, the same work: run to run and for any thread budget.
    for threads in [1, 2, 4] {
        let again = run(grid, threads);
        assert_eq!(work(&again), work(&stats), "{threads} threads");
        assert_eq!(again.cross_edges, stats.cross_edges);
        assert_eq!(again.imported_paths, stats.imported_paths);
    }

    // Boundary clusters flagged; boundary pairs of different shards the
    // sweep along x put to the MBR test; of those, pairs that reached the
    // Hausdorff check; ticks the replay indexed (none: a few dozen open
    // paths against twenty-four clusters is what it scans — the crowded
    // stream of `tests/shard_equivalence.rs` is where it indexes); prefixes
    // the shards logged for it.
    assert_eq!(work(&stats), [677, 461, 96, 0, 96]);
    assert_eq!((stats.cross_edges, stats.imported_paths), (96, 19));
    assert!(stats.prefixes_logged >= stats.imported_paths);

    // Without spatial locality every cluster is boundary and most paths are
    // tainted.
    let hash = run(Partitioner::HashByObject, 2);
    assert_eq!(work(&hash), [960, 890, 209, 0, 209]);
    assert_eq!(work(&run(Partitioner::HashByObject, 1)), work(&hash));
    assert!(hash.prefixes_logged >= hash.imported_paths);
}
