//! The grid index's deterministic work counters, pinned on a fixed seeded
//! scene so a pruning or refinement regression shows without a timer.
//!
//! A test binary of its own: the counters are process-wide, and a sibling
//! test searching a grid on another thread would move them.

use gpdt_geo::{GridGeometry, PointColumns};
use gpdt_index::{BucketedQuery, GridBuildScratch, GridClusterIndex, GridSearchScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 4] = [
    "index.grid.cells_bucketed",
    "index.grid.cell_probes",
    "index.grid.candidates",
    "index.grid.refine_point_tests",
];

fn counters() -> [u64; 4] {
    NAMES.map(|name| gpdt_obs::registry().counter(name).get())
}

/// Two consecutive ticks of 60 blobs each; every blob of the first tick
/// drifts by up to half a δ into the second.
fn scene() -> (Vec<PointColumns>, Vec<PointColumns>) {
    let mut rng = StdRng::seed_from_u64(0x6a1d);
    let mut previous = Vec::new();
    let mut next = Vec::new();
    for _ in 0..60 {
        let (cx, cy) = (
            rng.gen_range(-1_500.0..1_500.0),
            rng.gen_range(-1_500.0..1_500.0),
        );
        let (dx, dy) = (rng.gen_range(-75.0..75.0), rng.gen_range(-75.0..75.0));
        let mut before = PointColumns::new();
        let mut after = PointColumns::new();
        for _ in 0..rng.gen_range(3..40) {
            let (x, y) = (
                cx + rng.gen_range(-120.0..120.0),
                cy + rng.gen_range(-120.0..120.0),
            );
            before.push_xy(x, y);
            after.push_xy(
                x + dx + rng.gen_range(-20.0..20.0),
                y + dy + rng.gen_range(-20.0..20.0),
            );
        }
        previous.push(before);
        next.push(after);
    }
    (previous, next)
}

/// Builds both ticks' indexes, then searches every cluster of the first tick
/// against the second — once from the first index's buckets, once bucketed
/// again as an external query.  Returns the number of results.
fn workload() -> usize {
    let delta = 150.0;
    let geometry = GridGeometry::for_delta(delta);
    let (previous, next) = scene();
    let mut build_scratch = GridBuildScratch::default();
    let views: Vec<_> = previous.iter().map(|c| c.view()).collect();
    let previous_index = GridClusterIndex::build(geometry, &views, &mut build_scratch);
    let views: Vec<_> = next.iter().map(|c| c.view()).collect();
    let next_index = GridClusterIndex::build(geometry, &views, &mut build_scratch);
    let mut scratch = GridSearchScratch::default();
    let mut bucketed = BucketedQuery::default();
    let mut out = Vec::new();
    let mut results = 0;
    for (id, cluster) in previous.iter().enumerate() {
        next_index.search(previous_index.cluster(id), delta, &mut scratch, &mut out);
        results += out.len();
        let query = next_index.bucket(cluster.view(), &mut bucketed);
        next_index.search(query, delta, &mut scratch, &mut out);
        results += out.len();
    }
    results
}

#[test]
fn work_counters_are_pinned_on_a_seeded_scene_and_silent_when_off() {
    gpdt_obs::set_enabled(false);
    let before = counters();
    let results = workload();
    assert_eq!(
        counters(),
        before,
        "observability off: the counters must not move"
    );

    gpdt_obs::set_enabled(true);
    assert_eq!(workload(), results);
    let after = counters();
    let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    // cells_bucketed: both builds plus the 60 external queries; cell_probes:
    // four block lookups for each of the 120 searches; candidates and point
    // tests: what the pruning let through (for 138 results) and what the
    // refinement then had to test.
    assert_eq!(results, 138);
    assert_eq!(moved, vec![1_186, 480, 262, 1_506]);
}
