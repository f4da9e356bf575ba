//! DBSCAN's work counters on a fixed scene: `dbscan.scans` counts the
//! ε-scans that ran and `dbscan.scans_pruned` the ones the grid's counts
//! proved unnecessary, beside `dbscan.grid.cells` and `dbscan.points.noise`.
//!
//! One `#[test]`: the registry is process-wide, and a second test thread
//! would race the counter deltas.

use gpdt_clustering::{dbscan, ClusteringParams};
use gpdt_geo::PointColumns;

const COUNTERS: [&str; 4] = [
    "dbscan.scans",
    "dbscan.scans_pruned",
    "dbscan.grid.cells",
    "dbscan.points.noise",
];

fn counters() -> [u64; 4] {
    let snapshot = gpdt_obs::registry().snapshot();
    COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
}

#[test]
fn scans_and_pruned_scans_on_two_blobs_and_isolated_points() {
    gpdt_obs::set_enabled(true);
    // ε = 10, min_pts = 3.  Two blobs of ten points, each inside one cell,
    // and five isolated points, each alone in its 3×3 block.
    let mut cols = PointColumns::new();
    for (cx, cy) in [(0.0, 0.0), (100.0, 0.0)] {
        for k in 0..10 {
            cols.push_xy(cx + 1.0 + f64::from(k) * 0.8, cy + 1.0 + f64::from(k % 3));
        }
    }
    for k in 0..5 {
        cols.push_xy(-500.0 + f64::from(k) * 200.0, 500.0);
    }
    let params = ClusteringParams::new(10.0, 3);

    let before = counters();
    let result = dbscan(cols.view(), &params);
    let after = counters();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();

    assert_eq!(result.clusters().len(), 2);
    assert_eq!(result.members().len(), 20);
    // Each blob's first point is scanned and found core; that enqueues its
    // whole cell, so the other nine are pruned as already taken.  The
    // isolated points' blocks hold one point each: pruned, never scanned.
    assert_eq!(
        delta,
        [2, 18 + 5, 7, 5],
        "{COUNTERS:?} before {before:?} after {after:?}"
    );

    // Every point leaves "unvisited" once, scanned or pruned.
    assert_eq!(delta[0] + delta[1], cols.len() as u64);

    // With the gate off nothing is counted.
    gpdt_obs::set_enabled(false);
    let before = counters();
    dbscan(cols.view(), &params);
    assert_eq!(counters(), before);
}
