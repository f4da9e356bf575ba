//! Randomized sharding-equivalence suite: for every tested shard count,
//! partitioner and range-search strategy, the `ShardedEngine`'s canonical
//! output (closed crowds *and* closed gatherings) must be identical to a
//! single `GatheringEngine` over the same stream — the sharding analogue of
//! the batch-slicing independence bar set by `streaming_equivalence.rs`.
//!
//! The workloads are built to stress the merge: groups of objects drift
//! across grid-cell borders, split, approach each other and churn members,
//! so crowds regularly straddle shard boundaries, seed spuriously on the
//! far side and branch through cross-shard edges.
//!
//! The cross edges themselves — found by pairing boundary clusters before
//! the shards run — are checked against an all-pairs oracle on families
//! built to sit exactly on the partitioner's edge cases.

use gpdt_clustering::{ClusterDatabase, ClusterId, SnapshotCluster, SnapshotClusterSet};
use gpdt_core::{
    ClusteringParams, CrowdParams, GatheringConfig, GatheringEngine, GatheringParams,
    RangeSearchStrategy, RetentionPolicy, TadVariant,
};
use gpdt_geo::Point;
use gpdt_shard::{cross_edges, GridPartitioner, Partitioner, ShardedEngine, TickLayout};
use gpdt_trajectory::{ObjectId, Timestamp, Trajectory, TrajectoryDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(45.0, 3))
        .crowd(CrowdParams::new(3, 3, 110.0))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .unwrap()
}

/// Groups doing a correlated random walk: most steps stay within `δ` so the
/// group's cluster chain survives, occasional teleports break it, member
/// churn makes some clusters drop below `mc`/`mp`, and the walk freely
/// wanders across the 200-unit grid cells used by the spatial partitioner.
fn random_scenario(rng: &mut StdRng, groups: usize, ticks: u32) -> TrajectoryDatabase {
    let mut trajectories: Vec<(ObjectId, Vec<(Timestamp, (f64, f64))>)> = Vec::new();
    let mut next_id = 0u32;
    for _ in 0..groups {
        let members = rng.gen_range(4usize..7);
        let ids: Vec<ObjectId> = (0..members)
            .map(|_| {
                let id = ObjectId::new(next_id);
                next_id += 1;
                id
            })
            .collect();
        let mut cx = rng.gen_range(-500.0..500.0);
        let mut cy = rng.gen_range(-500.0..500.0);
        let mut group: Vec<(ObjectId, Vec<(Timestamp, (f64, f64))>)> =
            ids.iter().map(|&id| (id, Vec::new())).collect();
        for t in 0..ticks {
            if rng.gen_range(0u32..12) == 0 {
                // Teleport: breaks the crowd chain.
                cx = rng.gen_range(-500.0..500.0);
                cy = rng.gen_range(-500.0..500.0);
            } else {
                // Drift, frequently crossing the 200-unit cell borders.
                cx += rng.gen_range(-70.0..70.0);
                cy += rng.gen_range(-70.0..70.0);
            }
            for (k, (_, points)) in group.iter_mut().enumerate() {
                // Member churn: an object occasionally wanders off for a
                // tick, shrinking the cluster (or dissolving it).
                if rng.gen_range(0u32..10) == 0 {
                    points.push((t, (cx + 5_000.0 + k as f64 * 900.0, cy - 7_000.0)));
                } else {
                    let jitter_x = rng.gen_range(-12.0..12.0);
                    let jitter_y = rng.gen_range(-12.0..12.0);
                    points.push((t, (cx + k as f64 * 9.0 + jitter_x, cy + jitter_y)));
                }
            }
        }
        trajectories.extend(group);
    }
    TrajectoryDatabase::from_trajectories(
        trajectories
            .into_iter()
            .map(|(id, points)| Trajectory::from_points(id, points)),
    )
}

/// Feeds the database in random slices.
fn ingest_sliced_single(engine: &mut GatheringEngine, db: &TrajectoryDatabase, rng: &mut StdRng) {
    let domain = db.time_domain().unwrap();
    let mut at = domain.start;
    while at <= domain.end {
        let end = (at + rng.gen_range(1u32..6)).min(domain.end);
        engine.ingest_trajectories_until(db, end);
        at = end + 1;
    }
}

fn ingest_sliced_sharded(engine: &mut ShardedEngine, db: &TrajectoryDatabase, rng: &mut StdRng) {
    let domain = db.time_domain().unwrap();
    let mut at = domain.start;
    while at <= domain.end {
        let end = (at + rng.gen_range(1u32..6)).min(domain.end);
        engine.ingest_trajectories_until(db, end);
        at = end + 1;
    }
}

#[test]
fn sharded_output_is_canonical_for_all_shard_counts_partitioners_strategies() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0001);
    let mut crowds_seen = 0usize;
    let mut cross_edges_seen = 0u64;
    for trial in 0..5 {
        let ticks = rng.gen_range(22u32..34);
        let db = random_scenario(&mut rng, 4, ticks);
        let variant = if trial % 2 == 0 {
            TadVariant::TadStar
        } else {
            TadVariant::Tad
        };

        let mut single = GatheringEngine::new(config()).with_variant(variant);
        single.ingest_trajectories(&db);
        let reference = (single.closed_crowds(), single.gatherings());
        crowds_seen += reference.0.len();

        let partitioners = [
            Partitioner::Grid(GridPartitioner::new(200.0)),
            Partitioner::HashByObject,
        ];
        for strategy in RangeSearchStrategy::ALL {
            for partitioner in partitioners {
                for shards in SHARD_COUNTS {
                    let mut sharded = ShardedEngine::new(config(), shards, partitioner)
                        .with_strategy(strategy)
                        .with_variant(variant);
                    ingest_sliced_sharded(&mut sharded, &db, &mut rng);
                    assert_eq!(
                        sharded.closed_crowds(),
                        reference.0,
                        "crowds diverged: trial {trial}, {shards} shards, {partitioner}, {strategy}"
                    );
                    assert_eq!(
                        sharded.gatherings(),
                        reference.1,
                        "gatherings diverged: trial {trial}, {shards} shards, {partitioner}, {strategy}"
                    );
                    cross_edges_seen += sharded.stats().cross_edges;
                }
            }
        }
    }
    // The scenarios must actually exercise the interesting machinery.
    assert!(crowds_seen > 10, "workload produced too few crowds");
    assert!(
        cross_edges_seen > 50,
        "workload never crossed shard borders"
    );
}

#[test]
fn sharded_slicing_matches_single_engine_slicing() {
    // Both sides sliced randomly (differently): output must still agree.
    let mut rng = StdRng::seed_from_u64(0x5AAD_0002);
    for _ in 0..3 {
        let db = random_scenario(&mut rng, 3, 26);
        let mut single = GatheringEngine::new(config());
        ingest_sliced_single(&mut single, &db, &mut rng);

        let mut sharded =
            ShardedEngine::new(config(), 4, Partitioner::Grid(GridPartitioner::new(200.0)));
        ingest_sliced_sharded(&mut sharded, &db, &mut rng);
        assert_eq!(sharded.closed_crowds(), single.closed_crowds());
        assert_eq!(sharded.gatherings(), single.gatherings());
    }
}

#[test]
fn bounded_retention_never_changes_sharded_output() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0003);
    for _ in 0..2 {
        let db = random_scenario(&mut rng, 3, 30);
        let mut single = GatheringEngine::new(config());
        single.ingest_trajectories(&db);

        for partitioner in [
            Partitioner::Grid(GridPartitioner::new(200.0)),
            Partitioner::HashByObject,
        ] {
            let mut bounded = ShardedEngine::new(config(), 4, partitioner)
                .with_retention(RetentionPolicy::Bounded);
            ingest_sliced_sharded(&mut bounded, &db, &mut rng);
            assert_eq!(bounded.closed_crowds(), single.closed_crowds());
            assert_eq!(bounded.gatherings(), single.gatherings());
        }
    }
}

#[test]
fn sharded_crash_and_restore_reproduces_the_uninterrupted_run() {
    // Crash at a random tick boundary, restore from the checkpoint bytes,
    // feed the remainder: the restored run must be indistinguishable from
    // the uninterrupted sharded run (and hence from the single engine).
    use gpdt_store::{restore_sharded_from_slice, sharded_checkpoint_to_vec};

    let mut rng = StdRng::seed_from_u64(0x5AAD_0005);
    for trial in 0..3 {
        let ticks = rng.gen_range(20u32..30);
        let db = random_scenario(&mut rng, 3, ticks);
        let partitioner = if trial == 2 {
            Partitioner::HashByObject
        } else {
            Partitioner::Grid(GridPartitioner::new(200.0))
        };
        let crash_at = rng.gen_range(1u32..ticks - 1);

        let mut engine = ShardedEngine::new(config(), 4, partitioner);
        engine.ingest_trajectories_until(&db, crash_at);
        let bytes = sharded_checkpoint_to_vec(&engine);
        drop(engine); // the "crash"

        let mut restored = restore_sharded_from_slice(&bytes).expect("checkpoint restores");
        restored.ingest_trajectories(&db);

        let mut uninterrupted = ShardedEngine::new(config(), 4, partitioner);
        uninterrupted.ingest_trajectories_until(&db, crash_at);
        uninterrupted.ingest_trajectories(&db);

        assert_eq!(
            restored.closed_crowds(),
            uninterrupted.closed_crowds(),
            "trial {trial}, crash at t={crash_at}"
        );
        assert_eq!(restored.gatherings(), uninterrupted.gatherings());
        assert_eq!(
            restored.finalized_records().len(),
            uninterrupted.finalized_records().len()
        );

        let mut single = GatheringEngine::new(config());
        single.ingest_trajectories(&db);
        assert_eq!(restored.closed_crowds(), single.closed_crowds());
        assert_eq!(restored.gatherings(), single.gatherings());
    }
}

#[test]
fn brute_force_variant_and_strategy_agree_on_a_small_stream() {
    // The quadratic baseline is kept out of the big loop; one compact stream
    // checks the remaining variant axis under sharding.
    let mut rng = StdRng::seed_from_u64(0x5AAD_0004);
    let db = random_scenario(&mut rng, 2, 16);
    let mut single = GatheringEngine::new(config()).with_variant(TadVariant::BruteForce);
    single.ingest_trajectories(&db);

    let mut sharded =
        ShardedEngine::new(config(), 3, Partitioner::Grid(GridPartitioner::new(200.0)))
            .with_strategy(RangeSearchStrategy::BruteForce)
            .with_variant(TadVariant::BruteForce);
    sharded.ingest_trajectories(&db);
    assert_eq!(sharded.closed_crowds(), single.closed_crowds());
    assert_eq!(sharded.gatherings(), single.gatherings());
}

// ---------------------------------------------------------------------------
// Cross edges: boundary-pair scan ≡ all-pairs oracle
// ---------------------------------------------------------------------------

const CELL: f64 = 400.0;

/// A cluster at tick `t` with the given points; `lead` is its smallest
/// object id (what the hash partitioner goes by).
fn cluster(t: Timestamp, lead: u32, points: &[(f64, f64)]) -> SnapshotCluster {
    SnapshotCluster::new(
        t,
        (0..points.len() as u32)
            .map(|i| ObjectId::new(lead + i))
            .collect(),
        points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
    )
}

/// Four points around `(cx, cy)`, their mean exactly there.
fn around(cx: f64, cy: f64) -> [(f64, f64); 4] {
    [
        (cx - 8.0, cy - 4.0),
        (cx + 8.0, cy - 4.0),
        (cx - 4.0, cy + 4.0),
        (cx + 4.0, cy + 4.0),
    ]
}

fn database(ticks: Vec<Vec<SnapshotCluster>>) -> ClusterDatabase {
    ClusterDatabase::from_sets(
        ticks
            .into_iter()
            .enumerate()
            .map(|(t, clusters)| SnapshotClusterSet {
                time: t as Timestamp,
                clusters,
            })
            .collect(),
    )
}

/// The adversarial families, each a short cluster stream (δ = 110, `mc` = 3,
/// 400-unit cells): what the boundary flag, the shard assignment or the
/// `mc` filter could get wrong if any of them were off by an ulp or a `<`.
fn families() -> Vec<(&'static str, ClusterDatabase)> {
    let ticks = 9u32;
    let stream = |at: &dyn Fn(u32) -> Vec<SnapshotCluster>| database((0..ticks).map(at).collect());
    vec![
        // A group whose centroid lands exactly on a cell border (x = 800,
        // then y = 400) on every other tick and a hair to either side of it
        // in between: `floor` puts the border itself into the upper cell.
        (
            "centroid on a cell border",
            stream(&|t| {
                let nudge = [0.0, -1e-9, 0.0, 1e-9][t as usize % 4];
                vec![
                    cluster(t, 10 + t % 3, &around(2.0 * CELL + nudge, 90.0)),
                    cluster(t, 40 + t % 2, &around(1_730.0, CELL + nudge)),
                ]
            }),
        ),
        // A column of points at x = 690, deep inside its cell but for the
        // δ-inflated box ending exactly on the border x = 800, alternating
        // with the same column *on* that border: Hausdorff distance exactly
        // δ, head centroid exactly on the first cell the inflation reaches.
        (
            "inflated box touching a border",
            stream(&|t| {
                let x = 2.0 * CELL
                    - if t % 2 == 0 {
                        config().crowd.delta
                    } else {
                        0.0
                    };
                let column: Vec<(f64, f64)> =
                    (0..4).map(|k| (x, 150.0 + 9.0 * f64::from(k))).collect();
                vec![
                    cluster(t, 10 + t % 3, &column),
                    cluster(t, 70, &around(2_310.0, 2_190.0 + f64::from(t))),
                ]
            }),
        ),
        // A cluster 18 × 18 cells wide (its inflation overlaps more than 256
        // cells, so it is boundary without a cell being looked at) drifting
        // across a border, next to ordinary ones.
        (
            "a cluster spanning more than 256 cells",
            stream(&|t| {
                let shift = f64::from(t) * 40.0;
                let wide: Vec<(f64, f64)> = (0..19)
                    .flat_map(|i| (0..19).map(move |j| (f64::from(i) * CELL, f64::from(j) * CELL)))
                    .map(|(x, y)| (x + shift - 100.0, y + 55.0))
                    .collect();
                vec![
                    cluster(t, 1_000 + t % 2, &wide),
                    cluster(t, 10, &around(-650.0 + shift, -300.0)),
                ]
            }),
        ),
        // Pairs straddling a border: two-member clusters (below `mc`) linked
        // to each other and to qualifying ones — edges of the δ-graph that
        // are not edges of the crowd graph.
        (
            "sub-mc boundary clusters",
            stream(&|t| {
                let side = if t % 2 == 0 { -14.0 } else { 14.0 };
                vec![
                    cluster(t, 10, &around(3.0 * CELL + side, 50.0)[..2]),
                    cluster(t, 20 + t % 2, &around(3.0 * CELL - side, 120.0)),
                    cluster(t, 30, &around(CELL + side, 3.0 * CELL - side)[..2]),
                ]
            }),
        ),
    ]
}

/// Every edge of the crowd graph between consecutive ticks whose endpoints
/// the partitioner puts on different shards, by testing all pairs.
fn oracle_edges(
    cdb: &ClusterDatabase,
    partitioner: &Partitioner,
    shards: usize,
) -> Vec<(ClusterId, ClusterId)> {
    let crowd = config().crowd;
    let mut edges = Vec::new();
    for next in cdb.iter().skip(1) {
        let prev = cdb.set_at(next.time - 1).unwrap();
        for (tail_id, tail) in prev.iter_ids() {
            for (head_id, head) in next.iter_ids() {
                if tail.len() >= crowd.mc
                    && head.len() >= crowd.mc
                    && tail.within_hausdorff(head, crowd.delta)
                    && partitioner.shard_of(tail, shards) != partitioner.shard_of(head, shards)
                {
                    edges.push((tail_id, head_id));
                }
            }
        }
    }
    edges
}

#[test]
fn boundary_pair_scan_finds_exactly_the_all_pairs_cross_edges() {
    let mut rng = StdRng::seed_from_u64(0x5AAD_0006);
    let crowd = config().crowd;
    let mut streams = families();
    let walk = random_scenario(&mut rng, 4, 24);
    streams.push((
        "random walk",
        ClusterDatabase::build(&walk, &config().clustering),
    ));

    for (family, cdb) in &streams {
        let mut single = GatheringEngine::new(config());
        single.ingest_clusters(cdb.clone());
        let mut family_edges = 0;
        for partitioner in [
            Partitioner::Grid(GridPartitioner::new(CELL)),
            Partitioner::HashByObject,
        ] {
            for shards in SHARD_COUNTS {
                let context = format!("{family}, {shards} shards, {partitioner}");
                let oracle = oracle_edges(cdb, &partitioner, shards);
                family_edges += oracle.len();

                // The scan itself, tick by tick.
                let layouts: Vec<TickLayout> = cdb
                    .iter()
                    .map(|set| TickLayout::build(set, &partitioner, crowd.delta, shards))
                    .collect();
                let (mut pairs_tested, mut hausdorff_tests) = (0, 0);
                let mut scanned = Vec::new();
                for (t, next) in cdb.iter().enumerate().skip(1) {
                    let prev = cdb.set_at(next.time - 1).unwrap();
                    let found = cross_edges(
                        (&layouts[t - 1], prev),
                        (&layouts[t], next),
                        crowd.mc,
                        crowd.delta,
                    );
                    assert!(found.edges.is_sorted(), "{context}");
                    pairs_tested += found.pairs_tested;
                    hausdorff_tests += found.hausdorff_tests;
                    scanned.extend(found.edges.into_iter().map(|(g, d)| {
                        (
                            ClusterId::new(prev.time, g as usize),
                            ClusterId::new(next.time, d as usize),
                        )
                    }));
                }
                scanned.sort();
                assert_eq!(scanned, oracle, "{context}");
                assert!(hausdorff_tests >= oracle.len() as u64);
                assert!(pairs_tested >= hausdorff_tests);

                // The engine, under a random slicing: the same edges, and
                // the single engine's output.
                let mut sharded = ShardedEngine::new(config(), shards, partitioner);
                let mut sets = cdb.iter().cloned().collect::<Vec<_>>();
                while !sets.is_empty() {
                    let take = rng.gen_range(1usize..5).min(sets.len());
                    sharded
                        .ingest_clusters(ClusterDatabase::from_sets(sets.drain(..take).collect()));
                }
                let mut tails: Vec<ClusterId> = oracle.iter().map(|e| e.0).collect();
                let mut heads: Vec<ClusterId> = oracle.iter().map(|e| e.1).collect();
                tails.sort();
                tails.dedup();
                heads.sort();
                heads.dedup();
                let stats = sharded.stats();
                assert_eq!(stats.cross_edges, oracle.len() as u64, "{context}");
                assert_eq!(sharded.cross_edge_tails(), tails, "{context}");
                assert_eq!(sharded.cross_edge_heads(), heads, "{context}");
                assert_eq!(stats.merge_pairs_tested, pairs_tested, "{context}");
                assert_eq!(sharded.closed_crowds(), single.closed_crowds(), "{context}");
                assert_eq!(sharded.gatherings(), single.gatherings(), "{context}");
            }
        }
        assert!(
            family_edges > 0,
            "{family}: the family never crossed a shard border"
        );
    }
}

#[test]
fn crowded_merge_replay_indexes_the_tick_and_matches_the_single_engine() {
    // A thousand groups standing a cell apart, every one a crowd of its own,
    // their lead object alternating from tick to tick: under the hash
    // partitioner most of them change shards every tick, so the replay
    // carries hundreds of tainted paths into ticks of a thousand clusters —
    // past what it scans, into the index it builds instead.
    let groups = 1_000u32;
    let ticks = (0..8u32).map(|t| {
        let group = |g: u32| {
            let at = around(f64::from(g % 40) * CELL, f64::from(g / 40) * CELL);
            cluster(t, 10 * g + t % 2, &at)
        };
        (0..groups).map(group).collect()
    });
    let cdb = database(ticks.collect());
    let mut single = GatheringEngine::new(config());
    single.ingest_clusters(cdb.clone());
    assert_eq!(single.closed_crowds().len(), groups as usize);

    let mut sharded = ShardedEngine::new(config(), 4, Partitioner::HashByObject);
    let mut sets = cdb.iter().cloned().collect::<Vec<_>>();
    for take in [3, 1, 4] {
        sharded.ingest_clusters(ClusterDatabase::from_sets(sets.drain(..take).collect()));
    }
    let stats = sharded.stats();
    // Three in four groups are tainted from the second tick on; the first
    // tick has no edge leading in and the second no path open yet.
    assert_eq!((stats.open_merge_paths, stats.merge_index_builds), (755, 6));
    assert_eq!(sharded.closed_crowds(), single.closed_crowds());
    assert_eq!(sharded.gatherings(), single.gatherings());
}
