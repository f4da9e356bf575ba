//! SIMD ≡ scalar bit-identity: every vector kernel must be observationally
//! indistinguishable from the scalar reference at every feature level the
//! machine supports.
//!
//! * Kernel level: random coordinate columns — including the NaN-free edge
//!   shapes (empty, length 1, length ≡ 1 mod the widest lane count,
//!   duplicated points) — through every kernel of every available
//!   [`SimdLevel`], asserting bit-equal outputs against the scalar table.
//! * Entry-point level: the public geometry functions that route through the
//!   global dispatch table return bit-identical results whichever level is
//!   forced — and the Hausdorff entry points return, at every level, what a
//!   naive double loop over the paper's definition returns.
//! * Engine level: a fig5-slice run with the kernels pinned to scalar
//!   (`GPDT_SIMD=off`) produces a byte-identical checkpoint to a run on the
//!   auto-selected level.

use gpdt_bench::scenarios::clustered_scenario;
use gpdt_clustering::dbscan::{bound_edge_families, dbscan_bruteforce};
use gpdt_clustering::{dbscan, dbscan_with, ClusterDatabase, ClusteringParams, DbscanScratch};
use gpdt_core::{
    CrowdParams, GatheringConfig, GatheringEngine, GatheringParams, RangeSearchStrategy,
};
use gpdt_geo::simd::{available_levels, force_dispatch_level, KernelDispatch, SimdLevel};
use gpdt_geo::{
    directed_hausdorff, hausdorff_distance, hausdorff_within, hausdorff_within_bruteforce,
    hausdorff_within_bucketed, Mbr, Point, PointColumns, PointsView,
};
use gpdt_store::checkpoint_to_vec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serialises the tests that mutate the process-global dispatch override.
/// (Forcing a level cannot change any observable result — that is the whole
/// point of this suite — but restoring `None` concurrently with another
/// forced section would make failures non-reproducible.)
static DISPATCH_OVERRIDE: Mutex<()> = Mutex::new(());

/// Runs `f` with the global dispatch forced to `level`, restoring auto
/// resolution afterwards even on panic.
fn with_forced<R>(level: Option<SimdLevel>, f: impl FnOnce() -> R) -> R {
    let _guard = DISPATCH_OVERRIDE.lock().unwrap();
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            force_dispatch_level(None);
        }
    }
    let _restore = Restore;
    force_dispatch_level(level);
    f()
}

/// Column lengths covering the vector-width edge cases: empty, single
/// element, one past a lane boundary for both 2- and 4-wide units, and runs
/// long enough to exercise the block loops plus every tail length.
const EDGE_LENGTHS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33];

fn random_columns(rng: &mut StdRng, n: usize, extent: f64) -> (Vec<f64>, Vec<f64>) {
    let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-extent..extent)).collect();
    let mut ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-extent..extent)).collect();
    // Duplicate a random prefix of points over random positions so ties are
    // common (exercises the min/max/compare tie behaviour).
    if n >= 2 && rng.gen_range(0..3) == 0 {
        for _ in 0..n / 2 {
            let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
            xs[dst] = xs[src];
            ys[dst] = ys[src];
        }
    }
    (xs, ys)
}

#[test]
fn kernels_bit_identical_across_levels_on_random_columns() {
    let mut rng = StdRng::seed_from_u64(0x51D0);
    let scalar = KernelDispatch::for_level(SimdLevel::Scalar).unwrap();
    let levels = available_levels();
    assert!(!levels.is_empty());

    let mut sizes: Vec<usize> = EDGE_LENGTHS.to_vec();
    sizes.extend((0..8).map(|_| rng.gen_range(34..400usize)));

    for &n in &sizes {
        for round in 0..6 {
            let extent = if round % 2 == 0 { 100.0 } else { 10_000.0 };
            let (xs, ys) = random_columns(&mut rng, n, extent);
            let ids: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7)).collect();
            let px = rng.gen_range(-extent..extent);
            let py = rng.gen_range(-extent..extent);
            // Radii spanning "none match" to "all match", including exact
            // squared distances so ties on the boundary are hit.
            let mut radii = vec![0.0, extent * extent / 16.0, extent * extent * 8.0];
            if n > 0 {
                let k = rng.gen_range(0..n);
                let (dx, dy) = (xs[k] - px, ys[k] - py);
                radii.push(dx * dx + dy * dy);
            }

            let mut want = Vec::new();
            for &r_sq in &radii {
                want.clear();
                scalar.filter_within(&xs, &ys, &ids, px, py, r_sq, &mut want);
                let want_any = scalar.any_within(&xs, &ys, px, py, r_sq);
                for &level in levels {
                    let d = KernelDispatch::for_level(level).unwrap();
                    let mut got = Vec::new();
                    d.filter_within(&xs, &ys, &ids, px, py, r_sq, &mut got);
                    assert_eq!(got, want, "filter_within {level:?} n={n} r_sq={r_sq}");
                    assert_eq!(
                        d.any_within(&xs, &ys, px, py, r_sq),
                        want_any,
                        "any_within {level:?} n={n} r_sq={r_sq}"
                    );
                }
            }

            // Full scans (no early exit) must agree bit-for-bit.
            let want_min = scalar.min_dist_sq_bounded(&xs, &ys, px, py, f64::NEG_INFINITY);
            let want_mm_x = scalar.column_min_max(&xs);
            let want_mm_y = scalar.column_min_max(&ys);
            let want_sum_x = scalar.column_sum(&xs);
            let want_sum_y = scalar.column_sum(&ys);
            for &level in levels {
                let d = KernelDispatch::for_level(level).unwrap();
                assert_eq!(
                    d.min_dist_sq_bounded(&xs, &ys, px, py, f64::NEG_INFINITY)
                        .to_bits(),
                    want_min.to_bits(),
                    "min_dist_sq_bounded {level:?} n={n}"
                );
                let mm_x = d.column_min_max(&xs);
                let mm_y = d.column_min_max(&ys);
                assert_eq!(
                    mm_x.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                    want_mm_x.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                    "column_min_max(xs) {level:?} n={n}"
                );
                assert_eq!(
                    mm_y.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                    want_mm_y.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                    "column_min_max(ys) {level:?} n={n}"
                );
                assert_eq!(
                    d.column_sum(&xs).to_bits(),
                    want_sum_x.to_bits(),
                    "column_sum(xs) {level:?} n={n}"
                );
                assert_eq!(
                    d.column_sum(&ys).to_bits(),
                    want_sum_y.to_bits(),
                    "column_sum(ys) {level:?} n={n}"
                );
            }
        }
    }
}

/// The early-exit variant never returns a value above the true minimum, and
/// any early-exited value is at or below the bound — the only contract the
/// Hausdorff caller relies on for its bit-identical public result.
#[test]
fn bounded_min_early_exit_contract_holds_at_every_level() {
    let mut rng = StdRng::seed_from_u64(0x51D1);
    for _ in 0..80 {
        let n = rng.gen_range(1..200usize);
        let (xs, ys) = random_columns(&mut rng, n, 500.0);
        let px = rng.gen_range(-500.0..500.0);
        let py = rng.gen_range(-500.0..500.0);
        let scalar = KernelDispatch::for_level(SimdLevel::Scalar).unwrap();
        let exact = scalar.min_dist_sq_bounded(&xs, &ys, px, py, f64::NEG_INFINITY);
        for &level in available_levels() {
            let d = KernelDispatch::for_level(level).unwrap();
            for stop in [0.0, exact * 0.5, exact, exact * 2.0, f64::INFINITY] {
                let got = d.min_dist_sq_bounded(&xs, &ys, px, py, stop);
                assert!(got >= exact, "{level:?}: returned below the true minimum");
                assert!(
                    got.to_bits() == exact.to_bits() || got <= stop,
                    "{level:?}: early exit above the bound (got {got}, stop {stop})"
                );
            }
        }
    }
}

#[test]
fn public_entry_points_level_independent() {
    let mut rng = StdRng::seed_from_u64(0x51D2);
    let mut cases = Vec::new();
    for _ in 0..10 {
        let n = rng.gen_range(1..150usize);
        let m = rng.gen_range(1..150usize);
        cases.push((
            random_columns(&mut rng, n, 800.0),
            random_columns(&mut rng, m, 800.0),
        ));
    }
    let params = ClusteringParams::new(120.0, 3);

    // Reference outputs on the scalar kernels...
    let reference: Vec<_> = with_forced(Some(SimdLevel::Scalar), || {
        cases
            .iter()
            .map(|((pxs, pys), (qxs, qys))| {
                let p = PointsView::new(pxs, pys);
                let q = PointsView::new(qxs, qys);
                (
                    hausdorff_distance(p, q).to_bits(),
                    Mbr::from_columns(pxs, pys),
                    Point::centroid_columns(pxs, pys),
                    dbscan(p, &params),
                )
            })
            .collect()
    });

    // ...must be reproduced exactly by every other level.
    for &level in available_levels() {
        let got: Vec<_> = with_forced(Some(level), || {
            cases
                .iter()
                .map(|((pxs, pys), (qxs, qys))| {
                    let p = PointsView::new(pxs, pys);
                    let q = PointsView::new(qxs, qys);
                    (
                        hausdorff_distance(p, q).to_bits(),
                        Mbr::from_columns(pxs, pys),
                        Point::centroid_columns(pxs, pys),
                        dbscan(p, &params),
                    )
                })
                .collect()
        });
        assert_eq!(got, reference, "{level:?} diverged from scalar");
    }
}

/// `max_{p∈P} min_{q∈Q} d²(p, q)`, squared, by the definition: a double loop
/// with no early exit and no vector unit.  A distance that is NaN is never a
/// minimum, so a point with nothing to compare against is infinitely far.
fn naive_directed_sq(from: PointsView<'_>, to: PointsView<'_>) -> f64 {
    let mut worst = 0.0;
    for p in from.iter() {
        let mut best = f64::INFINITY;
        for q in to.iter() {
            let d = p.distance_sq(&q);
            if d < best {
                best = d;
            }
        }
        if best > worst {
            worst = best;
        }
    }
    worst
}

/// `dH(P, Q) ≤ threshold` by the definition: every point of either set has a
/// point of the other within the threshold.
fn naive_within(p: PointsView<'_>, q: PointsView<'_>, threshold: f64) -> bool {
    let covered = |from: PointsView<'_>, to: PointsView<'_>| {
        from.iter().all(|a| {
            to.iter()
                .any(|b| a.distance_sq(&b) <= threshold * threshold)
        })
    };
    covered(p, q) && covered(q, p)
}

/// The Hausdorff entry points against the definition, at every dispatch
/// level: sizes on both sides of the inline-scalar bypass (8) and of the 2-
/// and 4-lane block boundaries, duplicated points, one set repeating the
/// other, non-finite coordinates, and thresholds at the exact distance and
/// one ulp either side of it.
#[test]
fn hausdorff_entry_points_match_the_naive_definition_at_every_level() {
    struct Case {
        p: PointColumns,
        q: PointColumns,
        directed: (f64, f64),
        within: Vec<(f64, bool)>,
    }
    let mut rng = StdRng::seed_from_u64(0x51D7);
    let mut cases = Vec::new();
    for &n in &EDGE_LENGTHS {
        for &m in &EDGE_LENGTHS {
            for shape in 0..3 {
                let (pxs, pys) = random_columns(&mut rng, n, 500.0);
                let (mut qxs, mut qys) = random_columns(&mut rng, m, 500.0);
                let shared = n.min(m);
                match shape {
                    // Q repeats P as far as both go: distances of exactly 0.
                    1 => {
                        qxs[..shared].copy_from_slice(&pxs[..shared]);
                        qys[..shared].copy_from_slice(&pys[..shared]);
                    }
                    // Non-finite coordinates in Q; every kernel below runs
                    // both ways round, so they are met as `from` and as `to`.
                    2 => {
                        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
                        for k in (0..m).step_by(3) {
                            qxs[k] = hostile[rng.gen_range(0..hostile.len())];
                            qys[k] = hostile[rng.gen_range(0..hostile.len())];
                        }
                    }
                    _ => {}
                }
                let p = PointColumns::from_vecs(pxs, pys);
                let q = PointColumns::from_vecs(qxs, qys);
                let directed = (
                    naive_directed_sq(p.view(), q.view()).sqrt(),
                    naive_directed_sq(q.view(), p.view()).sqrt(),
                );
                // Around each directed distance — the larger one is dH —
                // exactly at it and one ulp either side.
                let mut thresholds = vec![0.0, f64::INFINITY, f64::NAN];
                for d in [directed.0, directed.1] {
                    thresholds.extend([d / 2.0, d, d * 2.0]);
                    if d > 0.0 && d.is_finite() {
                        let (below, above) = (d.to_bits() - 1, d.to_bits() + 1);
                        thresholds.extend([f64::from_bits(below), f64::from_bits(above)]);
                    }
                }
                let within = thresholds
                    .into_iter()
                    .map(|t| (t, naive_within(p.view(), q.view(), t)))
                    .collect();
                cases.push(Case {
                    p,
                    q,
                    directed,
                    within,
                });
            }
        }
    }

    type Within = fn(PointsView<'_>, PointsView<'_>, f64) -> bool;
    let kernels: [(&str, Within); 3] = [
        ("dispatched", hausdorff_within),
        ("bruteforce", hausdorff_within_bruteforce),
        ("bucketed", hausdorff_within_bucketed),
    ];
    for &level in available_levels() {
        with_forced(Some(level), || {
            for (i, case) in cases.iter().enumerate() {
                let (p, q) = (case.p.view(), case.q.view());
                let at = format!("{level:?} case {i} ({} x {} points)", p.len(), q.len());
                let (pq, qp) = case.directed;
                assert_eq!(directed_hausdorff(p, q).to_bits(), pq.to_bits(), "{at}");
                assert_eq!(directed_hausdorff(q, p).to_bits(), qp.to_bits(), "{at}");
                assert_eq!(
                    hausdorff_distance(p, q).to_bits(),
                    pq.max(qp).to_bits(),
                    "{at}"
                );
                for &(threshold, want) in &case.within {
                    for (name, kernel) in kernels {
                        assert_eq!(kernel(p, q, threshold), want, "{at} {name} at {threshold}");
                        assert_eq!(kernel(q, p, threshold), want, "{at} {name} at {threshold}");
                    }
                }
            }
        });
    }
}

/// AoS and SoA centroids share the canonical striped accumulation order, so
/// they agree bit-for-bit at every dispatch level.
#[test]
fn centroid_layouts_agree_at_every_level() {
    let mut rng = StdRng::seed_from_u64(0x51D3);
    for _ in 0..40 {
        let n = rng.gen_range(1..300usize);
        let (xs, ys) = random_columns(&mut rng, n, 2_000.0);
        let points: Vec<Point> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| Point::new(x, y))
            .collect();
        let aos = Point::centroid(&points).unwrap();
        for &level in available_levels() {
            let soa = with_forced(Some(level), || Point::centroid_columns(&xs, &ys).unwrap());
            assert_eq!(
                (soa.x.to_bits(), soa.y.to_bits()),
                (aos.x.to_bits(), aos.y.to_bits()),
                "{level:?}: SoA centroid diverged from AoS"
            );
        }
    }
}

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(10, 10, 300.0))
        .gathering(GatheringParams::new(8, 8))
        .build()
        .unwrap()
}

/// Ingests `sets` in random contiguous chunks.
fn ingest_sliced(
    engine: &mut GatheringEngine,
    sets: &[gpdt_clustering::SnapshotClusterSet],
    rng: &mut StdRng,
) {
    let mut i = 0;
    while i < sets.len() {
        let take = rng.gen_range(1..=4usize.min(sets.len() - i));
        let chunk: Vec<_> = sets[i..i + take].to_vec();
        engine.ingest_clusters(ClusterDatabase::from_sets(chunk));
        i += take;
    }
}

/// The engine-level guarantee behind the CI `GPDT_SIMD=off` vs `auto` fig5
/// comparison: a full discovery run on forced-scalar kernels checkpoints
/// byte-identically to one on the auto-selected level, for every strategy
/// and under randomized ingest slicing.
#[test]
fn engine_checkpoints_byte_identical_scalar_vs_auto() {
    let cs = clustered_scenario(0x51D4, 120, 60);
    let sets = cs.clusters.clone().into_sets();
    let mut rng = StdRng::seed_from_u64(0x51D5);

    for strategy in RangeSearchStrategy::ALL {
        // `GPDT_SIMD=off`: everything pinned to the scalar kernels.
        let want = with_forced(Some(SimdLevel::Scalar), || {
            let mut engine = GatheringEngine::new(config()).with_strategy(strategy);
            engine.ingest_clusters(cs.clusters.clone());
            checkpoint_to_vec(&engine)
        });
        // `GPDT_SIMD=auto`: best detected level, sliced ingest on top.
        let got = with_forced(None, || {
            let mut engine = GatheringEngine::new(config()).with_strategy(strategy);
            ingest_sliced(&mut engine, &sets, &mut rng);
            checkpoint_to_vec(&engine)
        });
        assert_eq!(
            got, want,
            "{strategy:?}: SIMD level left a byte-level fingerprint in the checkpoint"
        );
    }
}

/// Sanity on the kernel scan itself at engine scale: DBSCAN over a clustered
/// snapshot's columns equals, at every level, the brute-force oracle over the
/// same points as rows.
#[test]
fn dbscan_layout_and_level_blind_on_clustered_data() {
    let mut rng = StdRng::seed_from_u64(0x51D6);
    for _ in 0..10 {
        // A few dense blobs so core/border/noise cases all occur.
        let mut points = Vec::new();
        for _ in 0..rng.gen_range(2..5) {
            let (cx, cy) = (
                rng.gen_range(-3_000.0..3_000.0),
                rng.gen_range(-3_000.0..3_000.0),
            );
            for _ in 0..rng.gen_range(5..60) {
                points.push(Point::new(
                    cx + rng.gen_range(-150.0..150.0),
                    cy + rng.gen_range(-150.0..150.0),
                ));
            }
        }
        let cols = PointColumns::from_points(&points);
        let params = ClusteringParams::new(100.0, 4);
        let want = dbscan_bruteforce(&points, &params);
        for &level in available_levels() {
            let got = with_forced(Some(level), || dbscan(cols.view(), &params));
            assert_eq!(got, want, "{level:?}");
        }
    }
}

/// The edges of DBSCAN's block-count bound and enqueued skip — blocks of
/// exactly `min_pts − 1` and `min_pts` points, full blocks with sparse
/// ε-balls, pairs exactly ε apart across a cell border, duplicate points,
/// `min_pts = 1` — equal the brute-force oracle at every level, through one
/// reused scratch.
#[test]
fn dbscan_bound_edges_level_blind() {
    let mut scratch = DbscanScratch::new();
    let (eps, families) = bound_edge_families();
    for (label, points) in families {
        let cols = PointColumns::from_points(&points);
        for min_pts in 1..=5 {
            let params = ClusteringParams::new(eps, min_pts);
            let want = dbscan_bruteforce(&points, &params);
            for &level in available_levels() {
                let got = with_forced(Some(level), || {
                    dbscan_with(cols.view(), &params, &mut scratch)
                });
                assert_eq!(got, want, "{label}, min_pts={min_pts}, {level:?}");
            }
        }
    }
}
