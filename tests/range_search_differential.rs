//! Seeded differential suite for the range search: on adversarial cluster
//! families GRID ≡ SR ≡ IR ≡ `BruteForce`, query by query through
//! [`TickSearcher`] (the external-query path) and tick by tick through
//! [`CrowdDiscovery`] (where GRID reuses the previous tick's buckets as the
//! queries).
//!
//! The families aim at what a bucketing index gets wrong first: points
//! exactly on cell borders and at negative coordinates, cluster pairs at
//! exactly δ, single-point clusters, hundreds of clusters in one cell, an
//! empty tick between populated ones, a thousand clusters in a tick, and one
//! scratch reused across ticks of very different sizes.  Far-away and
//! non-finite coordinates are held to GRID ≡ `BruteForce` only: the R-tree
//! bulk load refuses non-finite MBRs.

use gpdt_clustering::{ClusterDatabase, SnapshotCluster, SnapshotClusterSet};
use gpdt_core::{CrowdDiscovery, CrowdParams, RangeSearchStrategy, SearcherScratch, TickSearcher};
use gpdt_geo::{GridGeometry, Point};
use gpdt_trajectory::ObjectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DELTA: f64 = 100.0;

/// Builds one tick's cluster set from point sets; members are fresh ids.
fn tick(time: u32, clusters: Vec<Vec<Point>>) -> SnapshotClusterSet {
    let mut next_id = 0u32;
    SnapshotClusterSet {
        time,
        clusters: clusters
            .into_iter()
            .map(|points| {
                let members = (0..points.len() as u32)
                    .map(|k| ObjectId::new(next_id + k))
                    .collect();
                next_id += points.len() as u32;
                SnapshotCluster::new(time, members, points)
            })
            .collect(),
    }
}

fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Point> {
    (0..n)
        .map(|_| {
            Point::new(
                cx + rng.gen_range(-spread..spread),
                cy + rng.gen_range(-spread..spread),
            )
        })
        .collect()
}

/// `n` blobs scattered over a square of the given half-width.
fn scattered(rng: &mut StdRng, n: usize, half_width: f64) -> Vec<Vec<Point>> {
    (0..n)
        .map(|_| {
            let cx = rng.gen_range(-half_width..half_width);
            let cy = rng.gen_range(-half_width..half_width);
            let size = rng.gen_range(1..12);
            blob(rng, cx, cy, size, 60.0)
        })
        .collect()
}

/// Clusters whose points sit exactly on cell corners and edges, on both
/// sides of the origin.
fn on_cell_borders(rng: &mut StdRng, n: usize) -> Vec<Vec<Point>> {
    let side = GridGeometry::for_delta(DELTA).cell_size();
    (0..n)
        .map(|_| {
            let (col, row) = (rng.gen_range(-6..6i32), rng.gen_range(-6..6i32));
            (0..rng.gen_range(1..6))
                .map(|_| {
                    let x = f64::from(col + rng.gen_range(0..2)) * side;
                    // Half the points on a corner, half on a vertical edge.
                    let y = if rng.gen_range(0..2) == 0 {
                        f64::from(row + rng.gen_range(0..2)) * side
                    } else {
                        f64::from(row) * side + rng.gen_range(0.0..side)
                    };
                    Point::new(x, y)
                })
                .collect()
        })
        .collect()
}

/// Every cluster of `base` moved by a vector of length exactly `DELTA`
/// (axis-aligned or a 3-4-5 triangle, so the length is exact in `f64`).
fn shifted_by_exactly_delta(rng: &mut StdRng, base: &[Vec<Point>]) -> Vec<Vec<Point>> {
    let steps = [
        (DELTA, 0.0),
        (0.0, -DELTA),
        (0.6 * DELTA, 0.8 * DELTA),
        (-0.8 * DELTA, 0.6 * DELTA),
    ];
    base.iter()
        .map(|points| {
            let (dx, dy) = steps[rng.gen_range(0..steps.len())];
            points
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy))
                .collect()
        })
        .collect()
}

/// The adversarial day: consecutive ticks of very different shapes and
/// sizes, each family next to one it can match.
fn adversarial_ticks(seed: u64) -> Vec<SnapshotClusterSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;
    let borders = on_cell_borders(rng, 40);
    let at_delta = shifted_by_exactly_delta(rng, &borders);
    let singles: Vec<Vec<Point>> = (0..60)
        .map(|_| {
            vec![Point::new(
                rng.gen_range(-300.0..300.0),
                rng.gen_range(-300.0..300.0),
            )]
        })
        .collect();
    let singles_at_delta = shifted_by_exactly_delta(rng, &singles);
    // Hundreds of clusters inside one cell (and its neighbours' edges).
    let side = GridGeometry::for_delta(DELTA).cell_size();
    let crowded: Vec<Vec<Point>> = (0..120)
        .map(|_| {
            let size = rng.gen_range(1..4);
            blob(rng, -2.5 * side, 3.5 * side, size, side / 2.0)
        })
        .collect();
    let many = scattered(rng, 1_000, 2_500.0);
    let many_moved: Vec<Vec<Point>> = many
        .iter()
        .map(|points| {
            let (dx, dy) = (rng.gen_range(-70.0..70.0), rng.gen_range(-70.0..70.0));
            points
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy))
                .collect()
        })
        .collect();
    let sprawling: Vec<Vec<Point>> = (0..3)
        .map(|k| {
            (0..80)
                .map(|i| {
                    Point::new(
                        f64::from(i) * 45.0 + f64::from(k) * 30.0,
                        f64::from(i) * 45.0,
                    )
                })
                .collect()
        })
        .collect();
    let families = vec![
        scattered(rng, 3, 200.0),
        borders,
        at_delta,
        Vec::new(), // an empty tick between populated ones
        singles,
        singles_at_delta,
        crowded.clone(),
        crowded,
        many,
        many_moved,
        scattered(rng, 1, 100.0),
        sprawling.clone(),
        sprawling,
        scattered(rng, 40, 400.0),
    ];
    families
        .into_iter()
        .enumerate()
        .map(|(t, clusters)| tick(t as u32, clusters))
        .collect()
}

#[test]
fn every_strategy_answers_every_query_like_bruteforce() {
    let ticks = adversarial_ticks(0x13d);
    // One scratch per strategy for the whole day: ticks of 0, 1, 40 and 1000
    // clusters rebuild through the same buffers.
    let mut scratches: Vec<SearcherScratch> = RangeSearchStrategy::ALL
        .iter()
        .map(|_| SearcherScratch::new())
        .collect();
    let (mut expected, mut got) = (Vec::new(), Vec::new());
    let mut matched = 0;
    for pair in ticks.windows(2) {
        let searchers: Vec<TickSearcher<'_>> = RangeSearchStrategy::ALL
            .iter()
            .zip(&mut scratches)
            .map(|(&strategy, scratch)| {
                TickSearcher::build_with(strategy, &pair[1], DELTA, scratch)
            })
            .collect();
        for (q, query) in pair[0].clusters.iter().enumerate() {
            let brute = searchers[0].search_into(query, &mut expected);
            assert_eq!(brute.candidates, pair[1].len());
            matched += expected.len();
            for (searcher, strategy) in searchers.iter().zip(RangeSearchStrategy::ALL).skip(1) {
                let stats = searcher.search_into(query, &mut got);
                assert_eq!(
                    got, expected,
                    "{strategy}: query {q} of tick {} against tick {}",
                    pair[0].time, pair[1].time
                );
                assert_eq!(stats.results, expected.len());
                assert!(stats.candidates >= stats.results && stats.candidates <= pair[1].len());
            }
        }
    }
    assert!(
        matched > 1_000,
        "only {matched} matches: the day is vacuous"
    );
}

#[test]
fn every_strategy_sweeps_the_adversarial_day_alike() {
    let cdb = ClusterDatabase::from_sets(adversarial_ticks(0x13e));
    let params = CrowdParams::new(1, 2, DELTA);
    let reference = CrowdDiscovery::new(params, RangeSearchStrategy::BruteForce)
        .with_threads(1)
        .run(&cdb);
    assert!(reference.closed_crowds.len() > 100);
    for strategy in RangeSearchStrategy::ALL.into_iter().skip(1) {
        for threads in [1, 2] {
            let result = CrowdDiscovery::new(params, strategy)
                .with_threads(threads)
                .run(&cdb);
            assert_eq!(
                result.closed_crowds, reference.closed_crowds,
                "{strategy}, {threads} threads"
            );
            assert_eq!(
                result.frontier, reference.frontier,
                "{strategy}, {threads} threads"
            );
        }
    }
}

/// Two ticks holding ordinary clusters beside far-away ones (their cells
/// saturate) and ones with a NaN or infinite coordinate (which match
/// nothing, not even themselves).
fn far_and_non_finite_ticks() -> Vec<SnapshotClusterSet> {
    let mut rng = StdRng::seed_from_u64(0x13f);
    let clusters = vec![
        blob(&mut rng, 0.0, 0.0, 6, 40.0),
        vec![Point::new(1e300, 1e300), Point::new(1e300, -1e300)],
        vec![Point::new(2e300, 1e300), Point::new(2e300, -1e300)],
        vec![Point::new(20.0, 20.0), Point::new(f64::NAN, 0.0)],
        vec![Point::new(f64::NEG_INFINITY, 0.0)],
        vec![Point::new(-1e300, f64::INFINITY)],
        blob(&mut rng, -40.0, 30.0, 5, 40.0),
    ];
    (0..3).map(|t| tick(t, clusters.clone())).collect()
}

#[test]
fn grid_matches_bruteforce_on_far_and_non_finite_clusters() {
    let ticks = far_and_non_finite_ticks();
    let brute = TickSearcher::build(RangeSearchStrategy::BruteForce, &ticks[1], DELTA);
    let grid = TickSearcher::build(RangeSearchStrategy::Grid, &ticks[1], DELTA);
    for (q, query) in ticks[0].clusters.iter().enumerate() {
        let expected = brute.search(query);
        assert_eq!(grid.search(query), expected, "query {q}");
        // The far clusters match their own copies only; the non-finite ones
        // nothing.
        match q {
            1 | 2 => assert_eq!(expected, vec![q]),
            3..=5 => assert!(expected.is_empty()),
            _ => assert!(expected.contains(&q)),
        }
    }
    let cdb = ClusterDatabase::from_sets(ticks);
    let params = CrowdParams::new(1, 2, DELTA);
    let reference = CrowdDiscovery::new(params, RangeSearchStrategy::BruteForce).run(&cdb);
    let swept = CrowdDiscovery::new(params, RangeSearchStrategy::Grid).run(&cdb);
    assert_eq!(swept.closed_crowds, reference.closed_crowds);
    assert_eq!(swept.frontier, reference.frontier);
}
