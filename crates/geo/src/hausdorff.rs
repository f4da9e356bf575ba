//! Hausdorff distance between point sets.
//!
//! The paper measures the geometric variation between two consecutive
//! snapshot clusters with the (symmetric) Hausdorff distance
//!
//! ```text
//! dH(P, Q) = max{ max_{p∈P} min_{q∈Q} d(p, q),  max_{q∈Q} min_{p∈P} d(p, q) }
//! ```
//!
//! The crowd-discovery range search never needs the exact value — it only
//! needs to know whether `dH ≤ δ` — so this module also provides
//! [`hausdorff_within`], an early-exit threshold test that is the workhorse
//! of the refinement step.
//!
//! For large point sets the threshold test buckets one side into a uniform
//! grid with cell side `δ` ([`hausdorff_within_bucketed`]): a point can only
//! have a `δ`-neighbour inside the 3×3 block of cells around its own cell
//! (the cell side equals the threshold), so each probe inspects a handful of
//! points instead of the whole other set, replacing the O(|P|·|Q|)
//! worst case with near-linear work.  [`hausdorff_within`] dispatches between
//! the brute-force scan and the bucketed test by input size, so callers keep
//! a single entry point.

use crate::grid::clamped_cell_index;
use crate::point::Point;
use crate::simd::dispatch;
use crate::soa::PointsView;
use std::sync::OnceLock;

/// Directed Hausdorff distance `h(P → Q) = max_{p∈P} min_{q∈Q} d(p, q)`.
///
/// Returns `0.0` when `from` is empty (there is nothing to be far away) and
/// `f64::INFINITY` when `from` is non-empty but `to` is empty.
pub fn directed_hausdorff(from: PointsView<'_>, to: PointsView<'_>) -> f64 {
    if from.is_empty() {
        return 0.0;
    }
    if to.is_empty() {
        return f64::INFINITY;
    }
    // The inner min-reduction stops early once it is at or below the current
    // worst: such a minimum cannot raise the directed distance and is
    // discarded below, so the early exit — which may differ across SIMD
    // levels — never shows in the result.
    let d = dispatch();
    let mut worst_sq: f64 = 0.0;
    for p in from.iter() {
        let best_sq = d.min_dist_sq_bounded(to.xs(), to.ys(), p.x, p.y, worst_sq);
        if best_sq > worst_sq {
            worst_sq = best_sq;
        }
    }
    worst_sq.sqrt()
}

/// Symmetric Hausdorff distance between two point sets.
///
/// If both sets are empty the distance is `0.0`; if exactly one is empty it
/// is `f64::INFINITY`.
pub fn hausdorff_distance(p: PointsView<'_>, q: PointsView<'_>) -> f64 {
    directed_hausdorff(p, q).max(directed_hausdorff(q, p))
}

/// Pair-count ceiling used when the calibration probe never sees the
/// bucketed kernel win: well beyond the largest probed size the brute-force
/// scan's O(|P|·|Q|) worst case is ruinous regardless of what the probe's
/// shapes measured, so bucketing takes over there no matter what.
const MAX_PAIR_CUTOFF_FALLBACK: usize = 2 * 4096 * 4096;

/// Sizes (points per side) probed by [`calibrate_pair_cutoff`].  The top
/// size sits above the largest cluster the benchmarks exercise: the SIMD
/// min-reduction moves the brute/bucketed crossover surprisingly high, so
/// the probe has to look there to find it.
const CALIBRATION_SIZES: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];

/// The pair-count cutoff above which [`hausdorff_within`] switches from the
/// brute-force scan to the grid-bucketed test.
///
/// Resolved once per process by a one-shot calibration probe that measures
/// both kernels on this machine and picks the crossover.  Both kernels are
/// exact, so the cutoff affects speed only — never answers.
pub fn bucketed_pair_cutoff() -> usize {
    static CUTOFF: OnceLock<usize> = OnceLock::new();
    *CUTOFF.get_or_init(calibrate_pair_cutoff)
}

/// One-shot calibration: times the brute-force and bucketed threshold tests
/// on deterministic elongated-cluster ("snake") shapes — the adversarial
/// case for the scan's early exit — at increasing per-side sizes, and
/// returns `s²` for the smallest size `s` where bucketing won, or a large
/// ceiling when it never did.  Takes a few milliseconds, runs at most once
/// per process (first threshold test), and the choice cannot change any
/// result because both kernels are exact.
fn calibrate_pair_cutoff() -> usize {
    let delta = 300.0;
    let mut cutoff = MAX_PAIR_CUTOFF_FALLBACK;
    for &n in &CALIBRATION_SIZES {
        let (pxs, pys) = calibration_snake(n, 0x9e37_79b9_7f4a_7c15, delta, 0.0);
        let (qxs, qys) = calibration_snake(n, 0xd1b5_4a32_d192_ed03, delta, delta / 3.0);
        let p = PointsView::new(&pxs, &pys);
        let q = PointsView::new(&qxs, &qys);
        // Alternate the kernels over several rounds and keep each one's best
        // time, so a stray scheduler blip on one round cannot flip the
        // comparison.
        let (mut brute_best, mut bucketed_best) = (u64::MAX, u64::MAX);
        for _ in 0..5 {
            let (_, brute) = gpdt_obs::time_nanos(|| {
                std::hint::black_box(hausdorff_within_bruteforce(p, q, delta))
            });
            brute_best = brute_best.min(brute);
            let (_, bucketed) = gpdt_obs::time_nanos(|| {
                std::hint::black_box(hausdorff_within_bucketed(p, q, delta))
            });
            bucketed_best = bucketed_best.min(bucketed);
        }
        if gpdt_obs::enabled() {
            let r = gpdt_obs::registry();
            r.gauge(&format!("hausdorff.calib.brute_ns.{n}"))
                .set(brute_best);
            r.gauge(&format!("hausdorff.calib.bucketed_ns.{n}"))
                .set(bucketed_best);
        }
        if cutoff == MAX_PAIR_CUTOFF_FALLBACK && bucketed_best < brute_best {
            cutoff = n * n;
            if !gpdt_obs::enabled() {
                break;
            }
            // With observability on, keep probing the remaining sizes so the
            // registry records the full brute/bucketed curve — the probe runs
            // once per process, so the extra milliseconds are noise.
        }
    }
    if gpdt_obs::enabled() {
        gpdt_obs::registry()
            .gauge("hausdorff.cutoff_pairs")
            .set(cutoff as u64);
    }
    cutoff
}

/// A deterministic elongated cluster for the calibration probe: points
/// strung along a line at `delta / 2` spacing with bounded jitter, visited
/// in shuffled order (matching the `micro` benchmark's adversarial snake
/// shape, including its ±`delta`/7.5 jitter and the `y0` offset between the
/// two sides of a pair).  Plain xorshift so the probe needs no RNG
/// dependency and produces the same shapes in every process.
fn calibration_snake(n: usize, seed: u64, delta: f64, y0: f64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let jitter_amp = delta / 7.5;
    let mut jitter = move || ((next() % 2048) as f64 / 1024.0 - 1.0) * jitter_amp;
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        xs.push(i as f64 * (delta / 2.0) + jitter());
        ys.push(y0 + jitter());
    }
    // Fisher–Yates so the scan order is not the spatial order (the
    // early-exit scan would otherwise look unrealistically good).
    let mut state2 = seed ^ 0x5bf0_3635;
    let mut next2 = move || {
        state2 ^= state2 << 13;
        state2 ^= state2 >> 7;
        state2 ^= state2 << 17;
        state2
    };
    for i in (1..n).rev() {
        let j = (next2() % (i as u64 + 1)) as usize;
        xs.swap(i, j);
        ys.swap(i, j);
    }
    (xs, ys)
}

/// Threshold test: is `dH(P, Q) ≤ threshold`?
///
/// Exits as soon as some point is found whose nearest neighbour in the other
/// set is farther than `threshold`, which makes the common "clusters are far
/// apart" case cheap.  Large inputs are answered by the grid-bucketed test
/// ([`hausdorff_within_bucketed`]); small ones by the direct scan
/// ([`hausdorff_within_bruteforce`]).  Both are exact — the choice never
/// changes the answer.
pub fn hausdorff_within(p: PointsView<'_>, q: PointsView<'_>, threshold: f64) -> bool {
    if p.len().saturating_mul(q.len()) >= bucketed_pair_cutoff() {
        hausdorff_within_bucketed(p, q, threshold)
    } else {
        hausdorff_within_bruteforce(p, q, threshold)
    }
}

/// Threshold test by direct scan over all point pairs (with early exit).
pub fn hausdorff_within_bruteforce(p: PointsView<'_>, q: PointsView<'_>, threshold: f64) -> bool {
    directed_within(p, q, threshold) && directed_within(q, p, threshold)
}

/// Threshold test with each side bucketed into a uniform grid of cell side
/// `threshold`: any `threshold`-neighbour of a point lies in the 3×3 cell
/// block around it, so each probe touches only the points of that block.
///
/// Exact — agrees with [`hausdorff_within_bruteforce`] on every input.
pub fn hausdorff_within_bucketed(p: PointsView<'_>, q: PointsView<'_>, threshold: f64) -> bool {
    if !(threshold.is_finite() && threshold > 0.0) {
        // Degenerate thresholds cannot define a grid; the scan handles them.
        return hausdorff_within_bruteforce(p, q, threshold);
    }
    if p.is_empty() || q.is_empty() {
        return p.is_empty() && q.is_empty();
    }
    let q_buckets = CellBuckets::build(q, threshold);
    if !q_buckets.covers(p) {
        return false;
    }
    let p_buckets = CellBuckets::build(p, threshold);
    p_buckets.covers(q)
}

/// Directed threshold test: is `h(from → to) ≤ threshold`?
fn directed_within(from: PointsView<'_>, to: PointsView<'_>, threshold: f64) -> bool {
    if from.is_empty() {
        return true;
    }
    if to.is_empty() {
        return false;
    }
    let thr_sq = threshold * threshold;
    let d = dispatch();
    from.iter()
        .all(|p| d.any_within(to.xs(), to.ys(), p.x, p.y, thr_sq))
}

/// One side of the bucketed threshold test: the points copied into cell
/// order (CSR-style — contiguous per-cell slices under sorted unique cell
/// keys), so every probe is a straight-line scan of two dense columns.
struct CellBuckets {
    threshold: f64,
    thr_sq: f64,
    /// The point coordinates, grouped by cell, as parallel columns.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Sorted unique cell keys, parallel to `starts`.
    cells: Vec<(i32, i32)>,
    /// Offsets into `xs`/`ys` (one trailing sentinel).
    starts: Vec<u32>,
}

impl CellBuckets {
    /// The cell of a point: clamped, so that no coordinate, however far or
    /// non-finite, overflows the neighbour arithmetic of [`Self::covers`].
    #[inline]
    fn cell_of(&self, x: f64, y: f64) -> (i32, i32) {
        (
            clamped_cell_index(x / self.threshold),
            clamped_cell_index(y / self.threshold),
        )
    }

    fn build(input: PointsView<'_>, threshold: f64) -> Self {
        let mut buckets = CellBuckets {
            threshold,
            thr_sq: threshold * threshold,
            xs: Vec::with_capacity(input.len()),
            ys: Vec::with_capacity(input.len()),
            cells: Vec::new(),
            starts: Vec::new(),
        };
        // Cell keys are cached up front: computing them inside the sort
        // comparator would redo the float division O(n log n) times.
        let keys: Vec<(i32, i32)> = input.iter().map(|p| buckets.cell_of(p.x, p.y)).collect();
        let mut order: Vec<u32> = (0..input.len() as u32).collect();
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        for &i in &order {
            let k = keys[i as usize];
            if buckets.cells.last() != Some(&k) {
                buckets.cells.push(k);
                buckets.starts.push(buckets.xs.len() as u32);
            }
            buckets.xs.push(input.xs()[i as usize]);
            buckets.ys.push(input.ys()[i as usize]);
        }
        buckets.starts.push(input.len() as u32);
        buckets
    }

    /// `true` if every point of `from` has a bucketed point within the
    /// threshold, i.e. the directed test `h(from → bucketed) ≤ threshold`.
    fn covers(&self, from: PointsView<'_>) -> bool {
        // Probe the point's own cell first: when the sets overlap, the
        // nearest neighbour is usually right there, and the ring cells hold
        // mostly too-far points.
        const PROBES: [(i32, i32); 9] = [
            (0, 0),
            (-1, -1),
            (-1, 0),
            (-1, 1),
            (0, -1),
            (0, 1),
            (1, -1),
            (1, 0),
            (1, 1),
        ];
        let d = dispatch();
        'outer: for Point { x: px, y: py } in from.iter() {
            let (cx, cy) = self.cell_of(px, py);
            for (dx, dy) in PROBES {
                let Ok(cell) = self.cells.binary_search(&(cx + dx, cy + dy)) else {
                    continue;
                };
                let (lo, hi) = (self.starts[cell] as usize, self.starts[cell + 1] as usize);
                if d.any_within(&self.xs[lo..hi], &self.ys[lo..hi], px, py, self.thr_sq) {
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::PointColumns;

    fn pts(coords: &[(f64, f64)]) -> PointColumns {
        let (xs, ys) = coords.iter().copied().unzip();
        PointColumns::from_vecs(xs, ys)
    }

    #[test]
    fn identical_sets_have_zero_distance() {
        let p = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]);
        assert_eq!(hausdorff_distance(p.view(), p.view()), 0.0);
        assert!(hausdorff_within(p.view(), p.view(), 0.0));
    }

    #[test]
    fn singleton_sets() {
        let p = pts(&[(0.0, 0.0)]);
        let q = pts(&[(3.0, 4.0)]);
        assert_eq!(hausdorff_distance(p.view(), q.view()), 5.0);
        assert!(hausdorff_within(p.view(), q.view(), 5.0));
        assert!(!hausdorff_within(p.view(), q.view(), 4.999));
    }

    #[test]
    fn asymmetric_directed_distances() {
        // Q is a superset-ish spread: every point of P is near Q, but Q has a
        // far outlier, so the directed distances differ.
        let p = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let q = pts(&[(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)]);
        assert_eq!(directed_hausdorff(p.view(), q.view()), 0.0);
        assert_eq!(directed_hausdorff(q.view(), p.view()), 9.0);
        assert_eq!(hausdorff_distance(p.view(), q.view()), 9.0);
    }

    #[test]
    fn symmetric_in_arguments() {
        let p = pts(&[(0.0, 0.0), (5.0, 5.0), (2.0, 8.0)]);
        let q = pts(&[(1.0, 1.0), (6.0, 4.0)]);
        assert_eq!(
            hausdorff_distance(p.view(), q.view()),
            hausdorff_distance(q.view(), p.view())
        );
    }

    #[test]
    fn empty_set_conventions() {
        let p = pts(&[(0.0, 0.0)]);
        let (p, empty) = (p.view(), PointsView::empty());
        assert_eq!(directed_hausdorff(empty, p), 0.0);
        assert_eq!(directed_hausdorff(p, empty), f64::INFINITY);
        assert_eq!(hausdorff_distance(empty, empty), 0.0);
        assert_eq!(hausdorff_distance(p, empty), f64::INFINITY);
        assert!(hausdorff_within(empty, empty, 0.0));
        assert!(!hausdorff_within(p, empty, 1e12));
    }

    #[test]
    fn within_agrees_with_exact_distance() {
        let p = pts(&[(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]);
        let q = pts(&[(0.5, 0.5), (3.5, 0.5), (4.0, 3.0)]);
        let d = hausdorff_distance(p.view(), q.view());
        assert!(hausdorff_within(p.view(), q.view(), d));
        assert!(hausdorff_within(p.view(), q.view(), d + 1e-9));
        assert!(!hausdorff_within(p.view(), q.view(), d - 1e-9));
    }

    #[test]
    fn translation_shifts_distance_for_singletons() {
        let p = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let q = pts(&[(7.0, 0.0), (8.0, 0.0)]);
        // A pure translation of a set by (7, 0): each point's nearest
        // neighbour is at most 7 away and the extremes are exactly 7.
        assert_eq!(hausdorff_distance(p.view(), q.view()), 7.0);
    }
}

#[cfg(test)]
// Deterministic seeded-random property checks (the container builds offline,
// so these use the vendored `rand` shim instead of `proptest`).
mod proptests {
    use super::*;
    use crate::soa::PointColumns;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(rng: &mut StdRng, max: usize) -> PointColumns {
        let n = rng.gen_range(1..max);
        let mut cols = PointColumns::with_capacity(n);
        for _ in 0..n {
            cols.push_xy(
                rng.gen_range(-1000.0..1000.0),
                rng.gen_range(-1000.0..1000.0),
            );
        }
        cols
    }

    /// dH is symmetric.
    #[test]
    fn hausdorff_symmetry() {
        let mut rng = StdRng::seed_from_u64(0x71);
        for _ in 0..256 {
            let p = random_points(&mut rng, 12);
            let q = random_points(&mut rng, 12);
            let d1 = hausdorff_distance(p.view(), q.view());
            let d2 = hausdorff_distance(q.view(), p.view());
            assert!((d1 - d2).abs() < 1e-9);
        }
    }

    /// dH(P, P) = 0 (identity of indiscernibles, one direction).
    #[test]
    fn hausdorff_self_zero() {
        let mut rng = StdRng::seed_from_u64(0x72);
        for _ in 0..256 {
            let p = random_points(&mut rng, 12);
            assert_eq!(hausdorff_distance(p.view(), p.view()), 0.0);
        }
    }

    /// Triangle inequality over point sets.
    #[test]
    fn hausdorff_triangle_inequality() {
        let mut rng = StdRng::seed_from_u64(0x73);
        for _ in 0..256 {
            let p = random_points(&mut rng, 8);
            let q = random_points(&mut rng, 8);
            let r = random_points(&mut rng, 8);
            let pq = hausdorff_distance(p.view(), q.view());
            let qr = hausdorff_distance(q.view(), r.view());
            let pr = hausdorff_distance(p.view(), r.view());
            assert!(pr <= pq + qr + 1e-9);
        }
    }

    /// The threshold test agrees with the exact computation.
    #[test]
    fn within_matches_exact() {
        let mut rng = StdRng::seed_from_u64(0x74);
        for _ in 0..256 {
            let p = random_points(&mut rng, 10);
            let q = random_points(&mut rng, 10);
            let thr = rng.gen_range(0.0..2000.0);
            let d = hausdorff_distance(p.view(), q.view());
            assert_eq!(hausdorff_within(p.view(), q.view(), thr), d <= thr);
        }
    }

    /// The grid-bucketed threshold test is exact: it agrees with the
    /// brute-force scan (and the exact distance) on arbitrary inputs,
    /// including sizes well below the dispatch cutoff and empty sets.
    #[test]
    fn bucketed_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(0x76);
        for round in 0..512 {
            let p = random_points(&mut rng, 40);
            let q = random_points(&mut rng, 40);
            let (p, q) = (p.view(), q.view());
            // Mix thresholds around the typical inter-set distances so both
            // outcomes are exercised, including near-tie values.
            let thr = match round % 3 {
                0 => rng.gen_range(1.0..100.0),
                1 => rng.gen_range(100.0..3000.0),
                _ => hausdorff_distance(p, q),
            };
            let brute = hausdorff_within_bruteforce(p, q, thr);
            let bucketed = hausdorff_within_bucketed(p, q, thr);
            assert_eq!(bucketed, brute, "round {round} thr {thr}");
            assert_eq!(hausdorff_within(p, q, thr), brute, "round {round}");
        }
    }

    /// The bucketed test handles empty sets and degenerate thresholds with
    /// the same conventions as the scan.
    #[test]
    fn bucketed_edge_cases() {
        let (origin, far) = (
            PointColumns::from_vecs(vec![0.0], vec![0.0]),
            PointColumns::from_vecs(vec![3.0], vec![4.0]),
        );
        let (p, empty) = (origin.view(), PointsView::empty());
        assert!(hausdorff_within_bucketed(empty, empty, 10.0));
        assert!(!hausdorff_within_bucketed(p, empty, 10.0));
        assert!(!hausdorff_within_bucketed(empty, p, 10.0));
        assert!(hausdorff_within_bucketed(p, p, 0.0));
        assert!(!hausdorff_within_bucketed(p, far.view(), f64::NAN));
    }

    /// Lemma 2 and Lemma 3: dmin ≤ dside ≤ dH for the sets' MBRs.
    #[test]
    fn mbr_bounds_lower_bound_hausdorff() {
        let mut rng = StdRng::seed_from_u64(0x75);
        for _ in 0..256 {
            let p = random_points(&mut rng, 12);
            let q = random_points(&mut rng, 12);
            let mp = p.view().mbr().unwrap();
            let mq = q.view().mbr().unwrap();
            let dh = hausdorff_distance(p.view(), q.view());
            let dmin = mp.min_distance(&mq);
            let dside = mp.side_distance(&mq).max(mq.side_distance(&mp));
            assert!(dmin <= dside + 1e-9);
            assert!(dmin <= dh + 1e-9);
            assert!(mp.side_distance(&mq) <= dh + 1e-9);
            assert!(mq.side_distance(&mp) <= dh + 1e-9);
            assert!(dside <= dh + 1e-9);
        }
    }
}
