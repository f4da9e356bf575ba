//! Microbenchmarks of the hot-path kernels, and of the choices the product
//! makes between live paths.
//!
//! * **DBSCAN** — the arena-backed CSR-grid implementation
//!   ([`gpdt_clustering::dbscan_with`] with a reused scratch) on dense blob
//!   fields and on a city-sparse snapshot (most blocks too thin for a core
//!   point, so most ε-scans are skipped), and its ε-grid
//!   build on its own on a dense snapshot (a cell table) and a sparse one
//!   (points sorted by cell key).
//! * **`hausdorff_within`** — the grid-bucketed threshold test, the
//!   brute-force pair scan and the calibrated dispatch between them, on
//!   cluster pairs near the decision boundary; and the SIMD kernels at the
//!   scalar and the best detected level.
//! * **`TickSearcher` construction** — per-tick index build under every
//!   range-search strategy, with the reusable [`SearcherScratch`] — and one
//!   tick of **grid range searches**: the previous tick's buckets reused as
//!   the queries, the same queries bucketed again, and SR.
//! * **The sharded merge replay's probe** — one tick of open paths by the
//!   early-exit scan and by an index, where the replay's choice crosses over.
//! * **The sweep's edge phase on its own** (`tick_pair_edges`) — every
//!   strategy finding the δ-edges of two hours of an event-dense day, one
//!   tick pair at a time, at about 46, 180 and 380 clusters a tick (1 500,
//!   6 000 and 12 000 taxis at one density, scaled by `GPDT_SCALE`), the edge
//!   sets asserted equal before anything is timed.
//! * **One engine ingest's fixed cost** (`engine_ingest`) — a one-tick batch
//!   with no cluster large enough to seed a crowd, beside one uncached probe
//!   of the host's thread count for scale.
//! * **The checkpoint codec** (`codec`) — on the `city_stream` day: the
//!   restore of its day-end engine checkpoint, one midday cluster set's
//!   decode, one stored record's decode and the checkpoint's encode.
//!
//! A group measures something the product runs.  A before/after group whose
//! "before" lives only in this file is deleted once its numbers are recorded
//! in `CHANGES.md`.
//!
//! Run with `cargo run -q --release -p gpdt-bench --bin micro`; set
//! `CRITERION_SHIM_ITERS` to raise the per-benchmark iteration count.
//! Results are printed and serialised to `BENCH_micro.json` (honouring
//! `GPDT_BENCH_DIR`), with one speedup row per pair of live paths.

use std::sync::Arc;

use criterion::{black_box, BatchSize, Criterion};
use gpdt_bench::report::{BenchReport, Table};
use gpdt_clustering::{
    dbscan_with, ClusterDatabase, ClusterId, ClusteringParams, DbscanScratch, SnapshotCluster,
    SnapshotClusterSet,
};
use gpdt_core::{
    Crowd, GatheringConfig, GatheringEngine, RangeSearchStrategy, SearcherScratch, TickSearcher,
};
use gpdt_geo::simd::{best_level, KernelDispatch, SimdLevel};
use gpdt_geo::{
    bucketed_pair_cutoff, hausdorff_within, hausdorff_within_bruteforce, hausdorff_within_bucketed,
    Mbr, Point, PointColumns,
};
use gpdt_store::{
    checkpoint_to_vec, decode_from_slice, encode_to_vec, restore_from_slice, FaultVfs,
    PatternRecord, PatternStore, StoreOptions, StoredGathering,
};
use gpdt_trajectory::{ObjectId, Timestamp, TrajectoryDatabase};
use gpdt_workload::{generate_scenario, EventRates, ScenarioConfig, Weather};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A field of dense blobs, the shape DBSCAN sees in one snapshot.
fn blob_field(rng: &mut StdRng, blobs: usize, per_blob: usize, spread: f64) -> Vec<Point> {
    let mut points = Vec::with_capacity(blobs * per_blob);
    for _ in 0..blobs {
        let cx = rng.gen_range(-10_000.0..10_000.0);
        let cy = rng.gen_range(-10_000.0..10_000.0);
        for _ in 0..per_blob {
            points.push(Point::new(
                cx + rng.gen_range(-spread..spread),
                cy + rng.gen_range(-spread..spread),
            ));
        }
    }
    points
}

/// One blob of `n` points around a centre, for the Hausdorff benches.
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

/// A city snapshot's density: 1 200 taxis over a 20 km square, 216 of them
/// (18 %) gathered at twelve venues and the rest cruising alone — the
/// points whose block holds fewer than `min_pts` and so are never scanned.
fn city_sparse(rng: &mut StdRng) -> Vec<Point> {
    let mut points = Vec::with_capacity(1_200);
    for _ in 0..12 {
        let (cx, cy) = (
            rng.gen_range(-9_000.0..9_000.0),
            rng.gen_range(-9_000.0..9_000.0),
        );
        points.extend(blob(rng, cx, cy, 18, 150.0));
    }
    while points.len() < 1_200 {
        points.push(Point::new(
            rng.gen_range(-10_000.0..10_000.0),
            rng.gen_range(-10_000.0..10_000.0),
        ));
    }
    points
}

fn bench_dbscan(c: &mut Criterion, rng: &mut StdRng) {
    let params = ClusteringParams::new(200.0, 5);
    let mut scratch = DbscanScratch::new();
    let mut group = c.benchmark_group("dbscan");
    for &(blobs, per_blob) in &[(12usize, 40usize), (60, 60)] {
        let columns = PointColumns::from_points(&blob_field(rng, blobs, per_blob, 300.0));
        group.bench_function(format!("csr_arena/{}", columns.len()), |b| {
            b.iter(|| dbscan_with(black_box(columns.view()), &params, &mut scratch))
        });
    }
    let columns = PointColumns::from_points(&city_sparse(rng));
    group.bench_function(format!("city_sparse/{}", columns.len()), |b| {
        b.iter(|| dbscan_with(black_box(columns.view()), &params, &mut scratch))
    });
    group.finish();
}

fn bench_hausdorff(c: &mut Criterion, rng: &mut StdRng) {
    let delta = 300.0;
    // The targeted path: large *elongated* clusters (traffic along a road),
    // where each point's δ-neighbours are a tiny fraction of the other set
    // and the pair scan goes quadratic.  The snake length grows with n at
    // fixed point spacing (δ/2, so dH ≤ δ holds and neither side exits
    // early); points are shuffled so the scan cannot ride insertion-order
    // locality.
    let mut snake = |n: usize, y0: f64| -> Vec<Point> {
        let spacing = delta / 2.0;
        let mut pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as f64 * spacing + rng.gen_range(-40.0..40.0),
                    y0 + rng.gen_range(-40.0..40.0),
                )
            })
            .collect();
        // Fisher–Yates shuffle.
        for i in (1..pts.len()).rev() {
            pts.swap(i, rng.gen_range(0..i + 1));
        }
        pts
    };
    let mut group = c.benchmark_group("hausdorff_within");
    for &n in &[512usize, 2048] {
        let p = PointColumns::from_points(&snake(n, 0.0));
        let q = PointColumns::from_points(&snake(n, 100.0));
        let (p, q) = (p.view(), q.view());
        group.bench_function(format!("bucketed/{n}"), |b| {
            b.iter(|| hausdorff_within_bucketed(black_box(p), black_box(q), delta))
        });
        group.bench_function(format!("bruteforce/{n}"), |b| {
            b.iter(|| hausdorff_within_bruteforce(black_box(p), black_box(q), delta))
        });
        // The production entry point: picks bucketed vs brute by the
        // calibrated pair-count cutoff.
        group.bench_function(format!("dispatched/{n}"), |b| {
            b.iter(|| hausdorff_within(black_box(p), black_box(q), delta))
        });
    }
    group.finish();
}

/// The three SIMD kernel families, scalar vs the best detected level, fed
/// the same columns through explicit [`KernelDispatch`] tables (so the
/// global `GPDT_SIMD` resolution cannot skew the comparison).
fn bench_simd_kernels(c: &mut Criterion, rng: &mut StdRng) {
    let scalar = KernelDispatch::for_level(SimdLevel::Scalar).expect("scalar always available");
    let best = KernelDispatch::for_level(best_level()).expect("best level is detected");
    let mut group = c.benchmark_group("simd");
    for &n in &[512usize, 4096] {
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1_000.0..1_000.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-1_000.0..1_000.0)).collect();
        let ids: Vec<u32> = (0..n as u32).collect();
        // ~¼ of the points inside the radius: matches kept common but not
        // dominant, like a DBSCAN ε-scan over a 3×3 cell block.
        let r_sq = 500.0 * 500.0;
        for (label, d) in [("scalar", scalar), (best_level().label(), best)] {
            let mut out: Vec<u32> = Vec::with_capacity(n);
            group.bench_function(format!("neighbor_scan/{label}/{n}"), |b| {
                b.iter(|| {
                    out.clear();
                    d.filter_within(
                        black_box(&xs),
                        black_box(&ys),
                        &ids,
                        13.0,
                        -27.0,
                        r_sq,
                        &mut out,
                    );
                    out.len()
                })
            });
            group.bench_function(format!("hausdorff_min/{label}/{n}"), |b| {
                b.iter(|| {
                    d.min_dist_sq_bounded(
                        black_box(&xs),
                        black_box(&ys),
                        13.0,
                        -27.0,
                        f64::NEG_INFINITY,
                    )
                })
            });
            group.bench_function(format!("mbr_centroid/{label}/{n}"), |b| {
                b.iter(|| {
                    let mm_x = d.column_min_max(black_box(&xs));
                    let mm_y = d.column_min_max(black_box(&ys));
                    let sx = d.column_sum(black_box(&xs));
                    let sy = d.column_sum(black_box(&ys));
                    (mm_x, mm_y, sx, sy)
                })
            });
        }
    }
    group.finish();
}

fn bench_tick_searcher(c: &mut Criterion, rng: &mut StdRng) {
    let delta = 300.0;
    let clusters: Vec<SnapshotCluster> = (0..48)
        .map(|i| {
            let (cx, cy) = (
                rng.gen_range(-8_000.0..8_000.0),
                rng.gen_range(-8_000.0..8_000.0),
            );
            let pts = blob(rng, cx, cy, 30, 200.0);
            let members = (0..pts.len() as u32)
                .map(|k| ObjectId::new(i * 1_000 + k))
                .collect();
            SnapshotCluster::new(0, members, pts)
        })
        .collect();
    let set = SnapshotClusterSet { time: 0, clusters };
    let mut scratch = SearcherScratch::new();
    let mut group = c.benchmark_group("tick_searcher_build");
    for strategy in RangeSearchStrategy::ALL {
        group.bench_function(strategy.label(), |b| {
            b.iter(|| TickSearcher::build_with(strategy, black_box(&set), delta, &mut scratch))
        });
    }
    group.finish();

    // The grid index build from the tick's shared column arena (what
    // `TickSearcher` feeds it).
    let views: Vec<gpdt_geo::PointsView<'_>> = set.clusters.iter().map(|c| c.points()).collect();
    let geometry = gpdt_geo::GridGeometry::for_delta(delta);
    let mut grid_scratch = gpdt_index::GridBuildScratch::default();
    let mut group = c.benchmark_group("grid_index_build");
    group.bench_function("soa", |b| {
        b.iter(|| {
            gpdt_index::GridClusterIndex::build(geometry, black_box(&views), &mut grid_scratch)
        })
    });
    group.finish();

    // One tick's worth of range searches against the next tick (every
    // cluster drifted by under δ/4, so each query has a match to refine):
    // the sweep's query — the previous tick's buckets reused as they are —
    // against the same query bucketed again as an external one, and against
    // SR (R-tree `dmin` pruning + exact Hausdorff) on the same sets.
    let next = SnapshotClusterSet {
        time: 1,
        clusters: set
            .clusters
            .iter()
            .map(|c| {
                let (dx, dy) = (rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                let pts = c.points().iter().map(|p| Point::new(p.x + dx, p.y + dy));
                SnapshotCluster::new(1, c.members().to_vec(), pts.collect())
            })
            .collect(),
    };
    let next_views: Vec<_> = next.clusters.iter().map(|c| c.points()).collect();
    let prev_index = gpdt_index::GridClusterIndex::build(geometry, &views, &mut grid_scratch);
    let next_index = gpdt_index::GridClusterIndex::build(geometry, &next_views, &mut grid_scratch);
    let sr = TickSearcher::build_with(RangeSearchStrategy::RTreeDmin, &next, delta, &mut scratch);
    let mut search_scratch = gpdt_index::GridSearchScratch::default();
    let mut bucketed = gpdt_index::BucketedQuery::default();
    let mut out = Vec::new();
    let mut group = c.benchmark_group("grid_index_search");
    group.bench_function("bucket_reuse", |b| {
        b.iter(|| {
            (0..prev_index.len())
                .map(|i| {
                    let query = black_box(&prev_index).cluster(i);
                    next_index.search(query, delta, &mut search_scratch, &mut out);
                    out.len()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("external", |b| {
        b.iter(|| {
            black_box(&views)
                .iter()
                .map(|v| {
                    let query = next_index.bucket(*v, &mut bucketed);
                    next_index.search(query, delta, &mut search_scratch, &mut out);
                    out.len()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("sr", |b| {
        b.iter(|| {
            black_box(&set.clusters)
                .iter()
                .map(|q| sr.search_into(q, &mut out).results)
                .sum::<usize>()
        })
    });
    group.finish();
}

/// The δ-edges of every tick pair of `sets` between clusters with `mc`
/// members, as `(head tick, tail, head)`: one searcher a tick, one query a
/// qualifying tail — the sweep's edge phase through the public searcher (so
/// GRID buckets each query afresh; group `grid_index_search` has what reusing
/// the previous tick's buckets saves it inside the engine).
fn tick_pair_edges(
    strategy: RangeSearchStrategy,
    sets: &[&SnapshotClusterSet],
    (mc, delta): (usize, f64),
    scratch: &mut SearcherScratch,
) -> Vec<(Timestamp, usize, usize)> {
    let (mut edges, mut near) = (Vec::new(), Vec::new());
    for pair in sets.windows(2) {
        let searcher = TickSearcher::build_with(strategy, pair[1], delta, scratch);
        for (g, tail) in pair[0].clusters.iter().enumerate() {
            if tail.len() >= mc {
                searcher.search_into(tail, &mut near);
                let heads = near.iter().filter(|&&h| pair[1].clusters[h].len() >= mc);
                edges.extend(heads.map(|&h| (pair[1].time, g, h)));
            }
        }
    }
    edges
}

/// Two evening hours of the e2e archive's kind of day (snow, eight times the
/// city's event rates, 23 taxis a km²) at three fleet sizes; returns the
/// table of ms per pass, strategy by density.
fn bench_tick_pair_edges(c: &mut Criterion) -> Table {
    let params = (8, 200.0);
    let city = EventRates::city_default();
    let rates = EventRates {
        jams_per_hour: city.jams_per_hour.map(|r| r * 8.0),
        venues_per_hour: city.venues_per_hour.map(|r| r * 8.0),
        convoys_per_hour: city.convoys_per_hour.map(|r| r * 8.0),
    };
    let fleets = [(1_500, 8_000.0), (6_000, 16_000.0), (12_000, 32_000.0)];
    let mut columns = vec!["strategy".to_string()];
    let mut group = c.benchmark_group("tick_pair_edges");
    for (taxis, area_size) in fleets {
        let day = generate_scenario(&ScenarioConfig {
            num_taxis: gpdt_bench::scenarios::scaled(taxis),
            duration: 120,
            start_minute_of_day: 17 * 60,
            area_size,
            event_rates: rates,
            ..ScenarioConfig::single_day(2013, Weather::Snowy)
        });
        let clusters = ClusterDatabase::build(&day.database, &ClusteringParams::paper_default());
        let sets: Vec<&SnapshotClusterSet> = clusters.iter().collect();
        let mut scratch = SearcherScratch::new();
        let brute = RangeSearchStrategy::BruteForce;
        let expected = tick_pair_edges(brute, &sets, params, &mut scratch);
        let a_tick = clusters.total_clusters() / sets.len();
        columns.push(format!("{a_tick} clusters a tick"));
        for strategy in RangeSearchStrategy::ALL {
            let found = tick_pair_edges(strategy, &sets, params, &mut scratch);
            assert_eq!(found, expected, "{strategy} at {taxis} taxis");
            group.bench_function(format!("{strategy}/{taxis}"), |b| {
                b.iter(|| tick_pair_edges(strategy, black_box(&sets), params, &mut scratch).len())
            });
        }
    }
    group.finish();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("Tick-pair edges — ms per 120 ticks", &columns);
    for strategy in RangeSearchStrategy::ALL {
        let ms = fleets.iter().map(|(taxis, _)| {
            let ns = mean_ns(c, &format!("tick_pair_edges/{strategy}/{taxis}"));
            format!("{:.2}", ns.expect("measured above") / 1e6)
        });
        table.add_row(std::iter::once(strategy.to_string()).chain(ms).collect());
    }
    table
}

/// The DBSCAN ε-grid alone, on the `city_stream` day (1 200 taxis): the
/// midday snapshot (its cells' box gets a table), and the same taxis on a map
/// forty times as wide, which is too sparse for one (the points are sorted by
/// cell key instead).
fn bench_dbscan_grid(c: &mut Criterion, db: &TrajectoryDatabase) {
    let ticks = db
        .time_domain()
        .expect("a generated day is not empty")
        .len();
    let eps = 200.0;
    let (_, midday) = db.snapshot_columns(ticks / 2);
    let spread = PointColumns::from_vecs(
        midday.xs().iter().map(|x| x * 40.0).collect(),
        midday.ys().iter().map(|y| y * 40.0).collect(),
    );
    let mut scratch = DbscanScratch::new();
    let mut group = c.benchmark_group("dbscan_grid_build");
    for (label, columns) in [("table", &midday), ("sorted", &spread)] {
        group.bench_function(format!("{label}/{}", columns.len()), |b| {
            b.iter(|| scratch.build_grid(black_box(columns.view()), eps))
        });
    }
    group.finish();
}

/// `count` blobs of 30 taxis scattered over a map that grows with `count`
/// (about one blob per 1.3 km², the density of the e2e archive), and the same
/// blobs one tick later, each drifted by up to a third of δ.
fn consecutive_ticks(
    rng: &mut StdRng,
    count: usize,
    delta: f64,
) -> (SnapshotClusterSet, SnapshotClusterSet) {
    let half = (count as f64 * 1.3e6).sqrt() / 2.0;
    let mut ticks = [Vec::new(), Vec::new()];
    for i in 0..count as u32 {
        let (cx, cy) = (rng.gen_range(-half..half), rng.gen_range(-half..half));
        let (dx, dy) = (
            rng.gen_range(-delta / 3.0..delta / 3.0),
            rng.gen_range(-delta / 3.0..delta / 3.0),
        );
        let before = blob(rng, cx, cy, 30, 120.0);
        let after: Vec<Point> = before
            .iter()
            .map(|p| Point::new(p.x + dx, p.y + dy))
            .collect();
        for (t, points) in [before, after].into_iter().enumerate() {
            let members = (0..30).map(|k| ObjectId::new(i * 100 + k)).collect();
            ticks[t].push(SnapshotCluster::new(t as Timestamp, members, points));
        }
    }
    let [clusters, next] = ticks;
    (
        SnapshotClusterSet { time: 0, clusters },
        SnapshotClusterSet {
            time: 1,
            clusters: next,
        },
    )
}

/// One tick of the sharded merge replay: every open tainted path probes the
/// tick for its continuations, with the early-exit scan (an MBR test per path
/// and cluster) or through an index built over the tick first — where the
/// replay's choice between the two crosses over.
fn bench_shard_merge(c: &mut Criterion, rng: &mut StdRng) {
    let delta = 200.0;
    let (mut scratch, mut near) = (SearcherScratch::new(), Vec::new());
    let mut group = c.benchmark_group("shard_merge_advance");
    for (count, paths) in [
        (200usize, 16usize),
        (200, 200),
        (2_000, 200),
        (2_000, 2_000),
    ] {
        let (lasts, tick) = consecutive_ticks(rng, count, delta);
        for (label, strategy) in [
            ("scan", RangeSearchStrategy::BruteForce),
            ("index", RangeSearchStrategy::default()),
        ] {
            group.bench_function(format!("{label}/{count}x{paths}"), |b| {
                b.iter(|| {
                    let tick = black_box(&tick);
                    let searcher = TickSearcher::build_with(strategy, tick, delta, &mut scratch);
                    let mut continuations = 0;
                    for last in &lasts.clusters[..paths] {
                        searcher.search_into(last, &mut near);
                        continuations += near.len();
                    }
                    continuations
                })
            });
        }
    }
    group.finish();
}

/// The fixed cost of one engine ingest: a one-tick batch whose only cluster
/// is too small to seed a crowd, so neither phase of the sweep nor gathering
/// detection has work to do.  Beside it, for scale, one uncached ask of the
/// OS for the host's thread count, which the engine reads from a cache.
fn bench_engine_ingest(c: &mut Criterion) {
    let mut engine = GatheringEngine::new(GatheringConfig::paper_default());
    let mut next_tick: Timestamp = 0;
    let mut group = c.benchmark_group("engine_ingest");
    group.bench_function("one_tick", |b| {
        b.iter_batched(
            || {
                let time = next_tick;
                next_tick += 1;
                let members = (0..3).map(ObjectId::new).collect();
                let points = (0..3).map(|k| Point::new(f64::from(k), 0.0)).collect();
                let clusters = vec![SnapshotCluster::new(time, members, points)];
                ClusterDatabase::from_sets(vec![SnapshotClusterSet { time, clusters }])
            },
            |batch| engine.ingest_clusters(batch),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("host_probe", |b| b.iter(gpdt_obs::probe_host_threads));
    group.finish();
}

/// The checkpoint codec on the `city_stream` day: the restore of its
/// day-end engine checkpoint, one midday cluster set's decode, one stored
/// record's decode (the record with the most participators), and the
/// checkpoint's encode.
fn bench_codec(c: &mut Criterion, db: &TrajectoryDatabase) {
    let config = GatheringConfig::paper_default();
    let mut engine = GatheringEngine::new(config);
    engine.ingest_clusters(ClusterDatabase::build(db, &config.clustering));
    let checkpoint = checkpoint_to_vec(&engine);
    let cdb = engine.cluster_database();
    let midday = cdb.iter().nth(cdb.len() / 2).expect("a day has ticks");
    let set = encode_to_vec(midday);
    let record = engine
        .finalized_records()
        .iter()
        .map(|r| PatternRecord::from_crowd_record(r, cdb))
        .max_by_key(|r| {
            r.gatherings
                .iter()
                .map(|g| g.participators.len())
                .sum::<usize>()
        })
        .expect("a city day finalizes crowds");
    let record = encode_to_vec(&record);
    let mut group = c.benchmark_group("codec");
    group.bench_function(format!("restore/city_day_end/{}", checkpoint.len()), |b| {
        b.iter(|| restore_from_slice(black_box(&checkpoint)).expect("restores"))
    });
    group.bench_function(format!("cluster_set_decode/{}", set.len()), |b| {
        b.iter(|| decode_from_slice::<SnapshotClusterSet>(black_box(&set)).expect("decodes"))
    });
    group.bench_function(format!("record_decode/{}", record.len()), |b| {
        b.iter(|| decode_from_slice::<PatternRecord>(black_box(&record)).expect("decodes"))
    });
    group.bench_function(
        format!("checkpoint_encode/city_day_end/{}", checkpoint.len()),
        |b| b.iter(|| checkpoint_to_vec(black_box(&engine))),
    );
    group.finish();
}

/// `n` stored records around 256 venues: crowds of 15 to 119 ticks over a
/// 100 000-tick axis, each with one gathering of 10 to 39 draws from 30 000
/// objects (about 24 distinct).
fn venue_records(rng: &mut StdRng, n: usize) -> Vec<PatternRecord> {
    let venues: Vec<(f64, f64)> = (0..256)
        .map(|_| {
            (
                rng.gen_range(-50_000.0..50_000.0),
                rng.gen_range(-50_000.0..50_000.0),
            )
        })
        .collect();
    (0..n)
        .map(|_| {
            let (vx, vy) = venues[rng.gen_range(0..venues.len())];
            let x = vx + rng.gen_range(-400.0..400.0);
            let y = vy + rng.gen_range(-400.0..400.0);
            let (w, h) = (rng.gen_range(50.0..600.0), rng.gen_range(50.0..600.0));
            let start = rng.gen_range(0u32..100_000);
            let crowd = Crowd::new(
                (start..start + rng.gen_range(15u32..120))
                    .map(|t| ClusterId::new(t, rng.gen_range(0usize..4)))
                    .collect(),
            );
            let mut participators: Vec<ObjectId> = (0..rng.gen_range(10..40))
                .map(|_| ObjectId::new(rng.gen_range(0u32..30_000)))
                .collect();
            participators.sort_unstable();
            participators.dedup();
            PatternRecord {
                gatherings: vec![StoredGathering {
                    interval: crowd.interval(),
                    mbr: Mbr::new(x, y, x + w * 0.8, y + h * 0.8),
                    participators,
                }],
                crowd,
                mbr: Mbr::new(x, y, x + w, y + h),
            }
        })
        .collect()
}

/// The pattern store on an in-memory backend, 30 000 venue records:
///
/// * `store_append` — the 30 000 appends and the closing `sync` into a fresh
///   store: frames queued, the indexes updated, the participation postings
///   logged and folded into the column at segment rotations; once with the
///   default 8 MiB segments (three rotations) and once with 64 KiB ones
///   (about 470 rotations, where a fold at every rotation would move the
///   whole column each time);
/// * `store_reopen` — a reopen: every frame checksummed, decoded and
///   checked, and the interval index, R-tree and participation index built;
/// * `store_history/{live,reopened}` — one iteration asks the history of
///   1 000 objects, on the store the appends left (the postings since the
///   last fold still in the log) and on the reopened one (all in the
///   column).
fn bench_store(c: &mut Criterion, rng: &mut StdRng) {
    let records = venue_records(rng, 30_000);
    let objects: Vec<ObjectId> = (0..1_000)
        .map(|_| ObjectId::new(rng.gen_range(0u32..30_000)))
        .collect();
    let small_segments = StoreOptions {
        max_segment_bytes: 64 << 10,
        ..StoreOptions::default()
    };
    let fill_with = |vfs: &Arc<FaultVfs>, dir: &str, records: Vec<PatternRecord>, options| {
        let mut store =
            PatternStore::open_at(vfs.clone(), dir, options).expect("opens an empty store");
        for record in records {
            store.append(record).expect("appends");
        }
        store.sync().expect("syncs");
        store
    };
    let fill = |vfs: &Arc<FaultVfs>, dir: &str, records: Vec<PatternRecord>| {
        fill_with(vfs, dir, records, StoreOptions::default())
    };
    let histories = |store: &PatternStore| {
        objects
            .iter()
            .map(|&object| store.object_history(object).len())
            .sum::<usize>()
    };

    let mut group = c.benchmark_group("store_append");
    group.bench_function("venues/30000", |b| {
        b.iter_batched(
            || (Arc::new(FaultVfs::new(0)), records.clone()),
            |(vfs, records)| fill(&vfs, "/append", records),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("venues_64k_segments/30000", |b| {
        b.iter_batched(
            || (Arc::new(FaultVfs::new(0)), records.clone()),
            |(vfs, records)| fill_with(&vfs, "/append", records, small_segments),
            BatchSize::PerIteration,
        )
    });
    group.finish();

    let vfs = Arc::new(FaultVfs::new(0));
    let live = fill(&vfs, "/reopen", records);
    let mut group = c.benchmark_group("store_history");
    group.bench_function("live/30000", |b| b.iter(|| histories(&live)));
    group.finish();
    drop(live);

    let mut group = c.benchmark_group("store_reopen");
    group.bench_function("venues/30000", |b| {
        b.iter(|| {
            PatternStore::open_at(vfs.clone(), "/reopen", StoreOptions::default()).expect("reopens")
        })
    });
    group.finish();

    let reopened =
        PatternStore::open_at(vfs.clone(), "/reopen", StoreOptions::default()).expect("reopens");
    let mut group = c.benchmark_group("store_history");
    group.bench_function("reopened/30000", |b| b.iter(|| histories(&reopened)));
    group.finish();
}

/// Mean time of the report entry whose name starts with `prefix`, in ns.
fn mean_ns(c: &Criterion, prefix: &str) -> Option<f64> {
    c.reports()
        .iter()
        .find(|(name, _)| name.starts_with(prefix))
        .map(|(_, d)| d.as_nanos() as f64)
}

/// Interleaved min-of-rounds timing of both single `hausdorff_within`
/// strategies and the dispatched entry point, on the benchmark's snake
/// shape.  Each round times one call of each path back to back, and every
/// path keeps its best round: a load spike hits all three paths of a round
/// equally, so the comparison stays honest where sequential means do not.
fn time_dispatch_tracking(rng: &mut StdRng, n: usize) -> (f64, f64, f64) {
    use std::time::Instant;
    let delta = 300.0;
    let spacing = delta / 2.0;
    let mut snake = |y0: f64| -> Vec<Point> {
        let mut pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as f64 * spacing + rng.gen_range(-40.0..40.0),
                    y0 + rng.gen_range(-40.0..40.0),
                )
            })
            .collect();
        for i in (1..pts.len()).rev() {
            pts.swap(i, rng.gen_range(0..i + 1));
        }
        pts
    };
    let p = PointColumns::from_points(&snake(0.0));
    let q = PointColumns::from_points(&snake(100.0));
    let (p, q) = (p.view(), q.view());
    let mut best = [u128::MAX; 3];
    // One untimed round to warm caches, the allocator, and the calibration
    // `OnceLock`; then the timed rounds.
    for round in 0..10 {
        let t = Instant::now();
        black_box(hausdorff_within_bucketed(black_box(p), black_box(q), delta));
        let bucketed = t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(hausdorff_within_bruteforce(
            black_box(p),
            black_box(q),
            delta,
        ));
        let brute = t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(hausdorff_within(black_box(p), black_box(q), delta));
        let dispatched = t.elapsed().as_nanos();
        if round > 0 {
            best[0] = best[0].min(bucketed);
            best[1] = best[1].min(brute);
            best[2] = best[2].min(dispatched);
        }
    }
    (best[0] as f64, best[1] as f64, best[2] as f64)
}

/// Interleaved min-of-rounds timing of one span-instrumented stage with the
/// observability gate forced on vs off.  The stage is a real kernel (DBSCAN
/// over a blob field) behind a [`gpdt_obs::span!`], so the measured delta is
/// exactly what instrumentation adds to a hot path: one gate load when off,
/// one `Instant` pair plus a histogram record when on.  Returns
/// `(on_ns, off_ns)` best-of-rounds; the caller restores the gate.
fn time_obs_ablation(rng: &mut StdRng) -> (f64, f64) {
    use std::time::Instant;
    let params = ClusteringParams::new(200.0, 5);
    let mut scratch = DbscanScratch::new();
    let columns = PointColumns::from_points(&blob_field(rng, 60, 60, 300.0));
    let mut stage = || {
        let _span = gpdt_obs::span!("micro.obs_probe");
        black_box(dbscan_with(
            black_box(columns.view()),
            &params,
            &mut scratch,
        ))
    };
    let mut best = [u128::MAX; 2];
    for round in 0..12 {
        gpdt_obs::set_enabled(true);
        let t = Instant::now();
        for _ in 0..4 {
            stage();
        }
        let on = t.elapsed().as_nanos();
        gpdt_obs::set_enabled(false);
        let t = Instant::now();
        for _ in 0..4 {
            stage();
        }
        let off = t.elapsed().as_nanos();
        if round > 0 {
            best[0] = best[0].min(on);
            best[1] = best[1].min(off);
        }
    }
    (best[0] as f64 / 4.0, best[1] as f64 / 4.0)
}

/// The worst-case variant of [`time_obs_ablation`]: the same interleaved
/// timing, but with the whole telemetry plane live — the windowed sampler at
/// a 10ms cadence (25x the default), the HTTP responder bound on loopback,
/// and a scraper thread hammering `/metrics` with ~200µs pauses.  The
/// sampler and scraper run through BOTH phases so their load is symmetric;
/// the on/off ratio therefore still isolates what the gate adds to the
/// instrumented hot path, now while the registry is being snapshotted and
/// served concurrently.
fn time_obs_ablation_scraped(rng: &mut StdRng) -> (f64, f64) {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let sampler = gpdt_obs::Sampler::start(
        Duration::from_millis(10),
        gpdt_obs::registry(),
        None,
        gpdt_obs::flight(),
    );
    let server = gpdt_obs::TelemetryServer::bind("127.0.0.1:0", gpdt_obs::ServeContext::global())
        .expect("binding a loopback port for the scrape ablation");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper_stop = Arc::clone(&stop);
    let scraper = std::thread::spawn(move || {
        let mut body = String::new();
        while !scraper_stop.load(Ordering::Relaxed) {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n");
                body.clear();
                let _ = s.read_to_string(&mut body);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    let result = time_obs_ablation(rng);
    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("the scraper thread never panics");
    drop(server);
    drop(sampler);
    result
}

fn main() {
    let mut criterion = Criterion::default();
    let mut rng = StdRng::seed_from_u64(2013);
    bench_dbscan(&mut criterion, &mut rng);
    bench_hausdorff(&mut criterion, &mut rng);
    bench_tick_searcher(&mut criterion, &mut rng);
    bench_simd_kernels(&mut criterion, &mut rng);
    // The e2e `city_stream` day: 1 200 taxis, 1 440 ticks.
    let day =
        generate_scenario(&ScenarioConfig::single_day(2013, Weather::Clear).with_taxis(1_200));
    bench_dbscan_grid(&mut criterion, &day.database);
    bench_shard_merge(&mut criterion, &mut rng);
    let edge_table = bench_tick_pair_edges(&mut criterion);
    bench_engine_ingest(&mut criterion);
    bench_codec(&mut criterion, &day.database);
    bench_store(&mut criterion, &mut rng);

    let mut report = BenchReport::new("micro");
    let mut results = Table::new("Microbenchmarks — mean ns per iteration", &["bench", "ns"]);
    for (name, mean) in criterion.reports() {
        results.add_row(vec![name.clone(), format!("{}", mean.as_nanos())]);
    }
    report.print_and_add(results);

    let mut speedups = Table::new("Live-path speedups (slower / faster)", &["path", "speedup"]);
    for (path, fast, slow) in [
        // One tick of GRID range searches: the previous tick's buckets
        // reused as the queries against re-bucketing each query, and against
        // SR on the same sets.
        (
            "grid search (bucket reuse vs external)",
            "grid_index_search/bucket_reuse",
            "grid_index_search/external",
        ),
        (
            "grid search (bucket reuse vs SR)",
            "grid_index_search/bucket_reuse",
            "grid_index_search/sr",
        ),
        // The DBSCAN ε-grid's two layouts.
        (
            "dbscan grid build (table vs sorted, 1200 pts)",
            "dbscan_grid_build/table/1200",
            "dbscan_grid_build/sorted/1200",
        ),
    ] {
        if let (Some(f), Some(s)) = (mean_ns(&criterion, fast), mean_ns(&criterion, slow)) {
            speedups.add_row(vec![path.to_string(), format!("{:.2}x", s / f)]);
        }
    }
    report.print_and_add(speedups);
    report.print_and_add(edge_table);

    // Kernel-level SIMD ablation: the same columns through the scalar table
    // and the best detected level's table.  >1.00x means SIMD is faster.
    let best = best_level().label();
    let mut simd = Table::new(
        "SIMD vs scalar (scalar ns / simd ns)",
        &["kernel", "speedup"],
    );
    simd.add_row(vec!["level".to_string(), best.to_string()]);
    for &n in &[512usize, 4096] {
        for kernel in ["neighbor_scan", "hausdorff_min", "mbr_centroid"] {
            if let (Some(s), Some(v)) = (
                mean_ns(&criterion, &format!("simd/{kernel}/scalar/{n}")),
                mean_ns(&criterion, &format!("simd/{kernel}/{best}/{n}")),
            ) {
                simd.add_row(vec![format!("{kernel} ({n})"), format!("{:.2}x", s / v)]);
            }
        }
    }
    report.print_and_add(simd);

    // The calibrated bucketed-vs-brute crossover, plus the guard the
    // calibration exists to enforce: the dispatched `hausdorff_within` path
    // must track the best single strategy (≤ 5% overhead) at every
    // benchmarked size — the n=512 regression of the hardcoded cutoff.
    //
    // The guard times the three paths itself, interleaved, instead of
    // comparing the shim means above: the shim runs each benchmark in its
    // own contiguous window, and on a loaded single-core host two windows
    // minutes apart drift by more than the 5% bound even for *the same*
    // kernel.  One call of each path per round with min-of-rounds cancels
    // that drift.
    let mut calib = Table::new("Hausdorff dispatch calibration", &["quantity", "value"]);
    calib.add_row(vec![
        "bucketed_pair_cutoff (pairs)".to_string(),
        bucketed_pair_cutoff().to_string(),
    ]);
    for &n in &[512usize, 2048] {
        let (bucketed, brute, dispatched) = time_dispatch_tracking(&mut rng, n);
        let best_single = bucketed.min(brute);
        calib.add_row(vec![
            format!("bucketed / brute / dispatched ({n}), ns"),
            format!("{bucketed:.0} / {brute:.0} / {dispatched:.0}"),
        ]);
        calib.add_row(vec![
            format!("dispatched vs best single ({n})"),
            format!("{:.2}x", dispatched / best_single),
        ]);
        assert!(
            dispatched <= best_single * 1.05,
            "dispatched hausdorff_within at n={n} is {:.1}% slower than the best \
             single strategy ({dispatched:.0} ns vs {best_single:.0} ns; \
             cutoff {} pairs) — calibration picked the wrong kernel",
            (dispatched / best_single - 1.0) * 100.0,
            bucketed_pair_cutoff(),
        );
    }
    report.print_and_add(calib);

    // The calibration probe curve recorded by `gpdt_geo::hausdorff` when the
    // cutoff is resolved by timing (one gauge per probed size, brute and
    // bucketed): makes the decision data inspectable from BENCH_micro.json
    // instead of requiring a rerun under a debugger.  Empty when
    // observability is off.
    let mut probes = Table::new(
        "Hausdorff calibration probes (registry gauges)",
        &["gauge", "value"],
    );
    for (name, value) in &gpdt_obs::registry().snapshot().gauges {
        if name.starts_with("hausdorff.") {
            probes.add_row(vec![name.clone(), value.to_string()]);
        }
    }
    report.print_and_add(probes);

    // Observability-overhead gate: a span-instrumented kernel with GPDT_OBS
    // forced on must stay within 5% of the same kernel with it off.  Same
    // interleaved min-of-rounds idiom as the dispatch guard above.  The
    // second round is the worst case: the full telemetry plane live —
    // sampler at 10ms, HTTP endpoint bound, a concurrent /metrics scraper —
    // held to the same ceiling.
    let obs_was_enabled = gpdt_obs::enabled();
    let (obs_on, obs_off) = time_obs_ablation(&mut rng);
    let (scr_on, scr_off) = time_obs_ablation_scraped(&mut rng);
    gpdt_obs::set_enabled(obs_was_enabled);
    let mut obs = Table::new(
        "Observability overhead (GPDT_OBS ablation)",
        &["quantity", "value"],
    );
    obs.add_row(vec![
        "instrumented dbscan, obs on / off (ns)".to_string(),
        format!("{obs_on:.0} / {obs_off:.0}"),
    ]);
    obs.add_row(vec![
        "on vs off".to_string(),
        format!("{:.3}x", obs_on / obs_off),
    ]);
    obs.add_row(vec![
        "under 10ms sampler + live scraper, on / off (ns)".to_string(),
        format!("{scr_on:.0} / {scr_off:.0}"),
    ]);
    obs.add_row(vec![
        "on vs off (scraped)".to_string(),
        format!("{:.3}x", scr_on / scr_off),
    ]);
    report.print_and_add(obs);
    assert!(
        obs_on <= obs_off * 1.05,
        "observability-on run is {:.1}% slower than observability-off \
         ({obs_on:.0} ns vs {obs_off:.0} ns) — the span/registry hot path \
         regressed past the 5% budget",
        (obs_on / obs_off - 1.0) * 100.0,
    );
    assert!(
        scr_on <= scr_off * 1.05,
        "observability-on run under an active sampler and scraper is {:.1}% \
         slower than observability-off under the same load ({scr_on:.0} ns \
         vs {scr_off:.0} ns) — snapshotting or serving the registry now \
         perturbs the instrumented hot path past the 5% budget",
        (scr_on / scr_off - 1.0) * 100.0,
    );

    report.write_logged();
    gpdt_bench::report::write_obs_sidecar("micro");
}
