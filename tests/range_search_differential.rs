//! Seeded differential suite for the range search: on adversarial cluster
//! families JOIN ≡ GRID ≡ SR ≡ IR ≡ `BruteForce`, query by query through
//! [`TickSearcher`] (the external-query path), tick by tick through
//! [`CrowdDiscovery`] (where GRID reuses the previous tick's buckets as the
//! queries), and tick pair by tick pair against the edge list the definition
//! gives.
//!
//! The families aim at what a bucketing index gets wrong first: points
//! exactly on cell borders and at negative coordinates, cluster pairs at
//! exactly δ, single-point clusters, hundreds of clusters in one cell, an
//! empty tick between populated ones, a thousand clusters in a tick, and one
//! scratch reused across ticks of very different sizes — and at what a scan
//! along x does: bounds exactly δ and one ulp either side of it apart, one
//! very wide cluster among narrow ones, a whole tick sharing one `min_x`.
//! Far-away and non-finite coordinates are held to GRID ≡ JOIN ≡
//! `BruteForce` only: the R-tree bulk load refuses non-finite MBRs.

use gpdt_clustering::{ClusterDatabase, SnapshotCluster, SnapshotClusterSet};
use gpdt_core::{
    ClusteringParams, CrowdDiscovery, CrowdParams, GatheringConfig, GatheringEngine,
    GatheringParams, RangeSearchStrategy, RetentionPolicy, SearcherScratch, TickSearcher,
};
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

/// One tick per family, from tick `first` on.
fn ticks_of(first: u32, families: Vec<Vec<Vec<Point>>>) -> Vec<SnapshotClusterSet> {
    let timed = families.into_iter().zip(first..);
    timed.map(|(clusters, t)| tick(t, clusters)).collect()
}

/// The adversarial day: consecutive ticks of very different shapes and
/// sizes, each family next to one it can match.
fn adversarial_ticks(seed: u64) -> Vec<SnapshotClusterSet> {
    ticks_of(0, adversarial_families(seed))
}

fn adversarial_families(seed: u64) -> Vec<Vec<Vec<Point>>> {
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
    vec![
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
    ]
}

/// What a scan along x gets wrong first.  Three-point columns (so `max_x` is
/// `min_x`) next to copies moved along x by exactly δ and by one ulp less and
/// more, both ways, and two-column clusters those copies start δ right of or
/// reach both columns of from the left; one cluster a hundred times as wide
/// as the blobs strung along it, then all of them nudged; forty clusters
/// that all start at `x = 0`, then the same again a little further up.
fn sort_axis_families(seed: u64) -> Vec<Vec<Vec<Point>>> {
    let rng = &mut StdRng::seed_from_u64(seed);
    let columns = |xs: &[f64], y: f64| -> Vec<Point> {
        let column = |&x| (0..3).map(move |k| Point::new(x, y + 20.0 * f64::from(k)));
        xs.iter().flat_map(column).collect()
    };
    let ulp = DELTA * f64::EPSILON;
    let steps = [
        DELTA,
        DELTA - ulp,
        DELTA + ulp,
        -DELTA,
        ulp - DELTA,
        -DELTA - ulp,
    ];
    let rows = || {
        steps
            .iter()
            .zip(0u8..)
            .map(|(&step, row)| (step, 500.0 * f64::from(row)))
    };
    let tails = rows().flat_map(|(_, y)| [columns(&[0.0], y), columns(&[-40.0, 0.0], y + 1e4)]);
    let heads = rows().flat_map(|(step, y)| [columns(&[step], y), columns(&[step], y + 1e4)]);
    let along = |rng: &mut StdRng, y: f64| -> Vec<Vec<Point>> {
        let snake = (0..90).map(|i| Point::new(f64::from(i) * 45.0 - 2_000.0, y));
        let blobs = (0..30).map(|i| blob(rng, f64::from(i) * 130.0 - 1_950.0, y + 60.0, 4, 20.0));
        std::iter::once(snake.collect()).chain(blobs).collect()
    };
    let flush = |rng: &mut StdRng, dy: f64| -> Vec<Vec<Point>> {
        let rows = (0..40).map(|i| f64::from(i) * 70.0 + dy);
        rows.map(|y| [blob(rng, 60.0, y, 3, 50.0), vec![Point::new(0.0, y)]].concat())
            .collect()
    };
    vec![
        tails.collect(),
        heads.collect(),
        along(rng, 0.0),
        along(rng, 35.0),
        flush(rng, 0.0),
        flush(rng, 40.0),
    ]
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

/// The edge list of a tick pair by the definition: both clusters with `mc`
/// members, every point of either with a point of the other within δ.
fn edges_by_definition(
    tails: &SnapshotClusterSet,
    heads: &SnapshotClusterSet,
    mc: usize,
) -> Vec<(usize, usize)> {
    let covered = |from: &SnapshotCluster, to: &SnapshotCluster| {
        let mut points = from.points().iter();
        points.all(|a| {
            to.points()
                .iter()
                .any(|b| a.distance_sq(&b) <= DELTA * DELTA)
        })
    };
    let mut edges = Vec::new();
    for (g, tail) in tails.clusters.iter().enumerate() {
        for (h, head) in heads.clusters.iter().enumerate() {
            if tail.len() >= mc && head.len() >= mc && covered(tail, head) && covered(head, tail) {
                edges.push((g, h));
            }
        }
    }
    edges
}

/// The edge list the discovery works from, read off an engine's output: with
/// `kc = 1` the closed crowds of two clusters are the edges.  Streamed in one
/// batch, the pair is an ordinary one; a tick at a time under bounded
/// retention, the engine resumes at the second tick with the first as the
/// oldest it retains (the empty tick before it is evicted on the way).
fn edges_of_an_engine(
    strategy: RangeSearchStrategy,
    pair: &[SnapshotClusterSet],
    mc: usize,
    batch_ticks: usize,
) -> Vec<(usize, usize)> {
    let config = GatheringConfig::builder()
        .clustering(ClusteringParams::new(DELTA, 1))
        .crowd(CrowdParams::new(mc, 1, DELTA))
        .gathering(GatheringParams::new(1, 1))
        .build()
        .unwrap();
    let mut engine = GatheringEngine::new(config)
        .with_strategy(strategy)
        .with_retention(RetentionPolicy::Bounded);
    let ticks = [
        tick(pair[0].time - 1, Vec::new()),
        pair[0].clone(),
        pair[1].clone(),
    ];
    for batch in ticks.chunks(batch_ticks) {
        engine.ingest_clusters(ClusterDatabase::from_sets(batch.to_vec()));
    }
    let first = engine.time_domain().unwrap().start;
    assert_eq!(
        first + 1 == pair[1].time,
        batch_ticks == 1,
        "retained from {first}"
    );
    let crowds = engine.closed_crowds();
    let edges = crowds.iter().filter(|c| c.len() == 2);
    edges
        .map(|c| (c.cluster_ids()[0].index, c.last().index))
        .collect()
}

#[test]
fn every_strategy_works_from_the_edge_list_of_the_definition() {
    let mut families = adversarial_families(0x140);
    families.extend(sort_axis_families(0x141));
    let ticks = ticks_of(1, families);
    // Every third cluster or so of the scattered families has fewer than
    // three points; the single-point families have nothing else.
    let mc = 3;
    let mut found = 0;
    for pair in ticks.windows(2) {
        let expected = edges_by_definition(&pair[0], &pair[1], mc);
        found += expected.len();
        for strategy in RangeSearchStrategy::ALL {
            for batch_ticks in [3, 1] {
                let found = edges_of_an_engine(strategy, pair, mc, batch_ticks);
                let t = pair[1].time;
                assert_eq!(
                    found, expected,
                    "{strategy} into tick {t}, {batch_ticks} a batch"
                );
            }
        }
    }
    assert!(found > 1_000, "only {found} edges: the day is vacuous");
    // The columns a step of at most δ away, either way; the two-column
    // clusters a step of at most δ to the left of.
    let columns = &ticks[adversarial_families(0x140).len()..];
    assert_eq!(
        edges_by_definition(&columns[0], &columns[1], mc),
        [(0, 0), (2, 2), (6, 6), (7, 7), (8, 8), (9, 9)]
    );
}

#[test]
fn every_strategy_sweeps_the_adversarial_day_alike() {
    // Two days and the sort-axis families on end: enough clusters in one
    // batch for the edge phase to fan out on the two-thread runs.
    let mut families = adversarial_families(0x13e);
    families.extend(adversarial_families(0x13d));
    families.extend(sort_axis_families(0x13c));
    let cdb = ClusterDatabase::from_sets(ticks_of(0, families));
    assert!(cdb.total_clusters() >= 4_096, "below the fan-out threshold");
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
    let join = TickSearcher::build(RangeSearchStrategy::Join, &ticks[1], DELTA);
    for (q, query) in ticks[0].clusters.iter().enumerate() {
        let expected = brute.search(query);
        assert_eq!(grid.search(query), expected, "query {q}");
        assert_eq!(join.search(query), expected, "query {q}");
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
    for strategy in [RangeSearchStrategy::Grid, RangeSearchStrategy::Join] {
        let swept = CrowdDiscovery::new(params, strategy).run(&cdb);
        assert_eq!(swept.closed_crowds, reference.closed_crowds, "{strategy}");
        assert_eq!(swept.frontier, reference.frontier, "{strategy}");
    }
}
