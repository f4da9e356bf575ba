//! Incremental discovery for growing trajectory databases (§III-C).
//!
//! When a new batch of trajectory data is appended to the database, a full
//! re-computation becomes increasingly expensive.  The paper exploits two
//! facts:
//!
//! * **Crowd extension (Lemma 4)** — only cluster sequences that end at the
//!   last timestamp of the old database can possibly be extended; everything
//!   else is already final.  [`CrowdDiscovery::run_resumed`](crate::crowd::CrowdDiscovery::run_resumed) restarts
//!   Algorithm 1 at the first new timestamp with the saved frontier as the
//!   candidate set.
//! * **Gathering update (Theorem 2)** — when an old crowd is extended into a
//!   longer one, the closed gatherings to the left of the right-most invalid
//!   cluster that lies within the old part (or at the first new cluster) are
//!   unchanged; only the region to its right needs a fresh Test-and-Divide.
//!
//! Both are packaged into the streaming
//! [`GatheringEngine`](crate::engine::GatheringEngine); this module keeps
//! [`update_gatherings`], the Theorem 2 primitive the engine (and the
//! Figure 8b benchmark) builds on.

use gpdt_clustering::ClusterDatabase;

use crate::crowd::Crowd;
use crate::gathering::{detect_with_occurrence, CrowdOccurrence, Gathering, TadVariant};
use crate::params::GatheringParams;

/// Re-detects the closed gatherings of an *extended* crowd, reusing the
/// gatherings already known for its old prefix (Theorem 2).
///
/// * `new_crowd` — the extended crowd `⟨c_i, ..., c_n, c_{n+1}, ..., c_m⟩`;
/// * `old_len` — the length of the old prefix (`n - i + 1`);
/// * `old_gatherings` — the closed gatherings previously found in the prefix.
///
/// Builds the extended crowd's occurrence table from scratch; the engine,
/// which carries each open crowd's table from tick to tick, runs the same
/// update over the table it already has.
pub fn update_gatherings(
    new_crowd: &Crowd,
    cdb: &ClusterDatabase,
    old_len: usize,
    old_gatherings: &[Gathering],
    params: &GatheringParams,
    kc: u32,
    variant: TadVariant,
) -> Vec<Gathering> {
    let occ = CrowdOccurrence::build(new_crowd, cdb);
    update_gatherings_with(
        new_crowd,
        &occ,
        old_len,
        old_gatherings,
        params,
        kc,
        variant,
    )
}

/// [`update_gatherings`] over the extended crowd's occurrence table `occ`:
/// the old gatherings that Theorem 2 proves stable are copied over and
/// Test-and-Divide only runs on the part to the right of the pivot invalid
/// cluster.
pub(crate) fn update_gatherings_with(
    new_crowd: &Crowd,
    occ: &CrowdOccurrence,
    old_len: usize,
    old_gatherings: &[Gathering],
    params: &GatheringParams,
    kc: u32,
    variant: TadVariant,
) -> Vec<Gathering> {
    assert!(
        old_len <= new_crowd.len(),
        "old prefix cannot be longer than the extended crowd"
    );

    if variant == TadVariant::BruteForce {
        // The brute-force enumerator has no divide step to restrict, so the
        // Theorem 2 shortcut does not apply; detect over the whole crowd.
        return detect_with_occurrence(new_crowd, occ, params, kc, variant);
    }

    // Find the invalid clusters of the extended crowd (positions with fewer
    // than mp participators w.r.t. the whole extended crowd).
    let invalid = crate::gathering::find_invalid_positions(occ, params, 0, new_crowd.len());

    // The pivot: the right-most invalid cluster at a position ≤ old_len
    // (i.e. inside the old crowd or at the first new cluster, 0-based index
    // old_len is the first new cluster).
    let pivot = invalid.iter().copied().filter(|&j| j <= old_len).max();

    let Some(pivot) = pivot else {
        // No invalid cluster in the reusable region: Theorem 2 gives no
        // shortcut, fall back to a full detection on the extended crowd.
        return detect_with_occurrence(new_crowd, occ, params, kc, variant);
    };

    // Left of the pivot: the old closed gatherings there are still closed and
    // unchanged.
    let pivot_time = new_crowd.cluster_ids()[pivot].time;
    let mut result: Vec<Gathering> = old_gatherings
        .iter()
        .filter(|g| g.crowd().end_time() < pivot_time)
        .cloned()
        .collect();

    // Right of the pivot: run Test-and-Divide on that region only, reusing
    // the signatures already built for the whole extended crowd.
    if pivot + 1 < new_crowd.len() {
        result.extend(crate::gathering::detect_in_range(
            new_crowd,
            occ,
            params,
            kc,
            variant,
            pivot + 1,
            new_crowd.len(),
        ));
    }
    result.sort_by_key(|g| (g.crowd().start_time(), g.crowd().end_time()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crowd::CrowdDiscovery;
    use crate::engine::GatheringEngine;
    use crate::params::{CrowdParams, GatheringConfig};
    use crate::range_search::RangeSearchStrategy;
    use gpdt_clustering::{ClusterId, ClusteringParams, SnapshotCluster, SnapshotClusterSet};
    use gpdt_geo::Point;
    use gpdt_trajectory::{ObjectId, Timestamp};

    /// Builds a cluster database with a single cluster per tick whose
    /// membership is given explicitly; all clusters sit at the same location
    /// so every consecutive pair is within any reasonable δ.
    fn membership_cdb(start: Timestamp, memberships: &[&[u32]]) -> ClusterDatabase {
        let sets: Vec<SnapshotClusterSet> = memberships
            .iter()
            .enumerate()
            .map(|(i, ids)| {
                let t = start + i as u32;
                SnapshotClusterSet {
                    time: t,
                    clusters: vec![SnapshotCluster::new(
                        t,
                        ids.iter().map(|&i| ObjectId::new(i)).collect(),
                        ids.iter()
                            .enumerate()
                            .map(|(k, _)| Point::new(k as f64, 0.0))
                            .collect(),
                    )],
                }
            })
            .collect();
        ClusterDatabase::from_sets(sets)
    }

    /// An engine over pre-clustered batches with `mc = kc = mp = kp = 3`.
    fn engine() -> GatheringEngine {
        GatheringEngine::new(GatheringConfig {
            clustering: ClusteringParams::paper_default(),
            crowd: CrowdParams::new(3, 3, 100.0),
            gathering: GatheringParams::new(3, 3),
        })
    }

    fn single_cluster_crowd(start: Timestamp, len: usize) -> Crowd {
        Crowd::new(
            (0..len)
                .map(|i| ClusterId::new(start + i as u32, 0))
                .collect(),
        )
    }

    #[test]
    fn update_gatherings_matches_full_recomputation() {
        // Old crowd: positions 0..5 (objects 1-3 stable, position 3 invalid).
        // Extension: positions 6..9 where objects 1-3 return.
        let memberships: Vec<&[u32]> = vec![
            &[1, 2, 3],
            &[1, 2, 3],
            &[1, 2, 3],
            &[7, 8, 9],
            &[1, 2, 3],
            &[1, 2, 3],
            &[1, 2, 3],
            &[1, 2, 3],
            &[1, 2, 3],
        ];
        let cdb = membership_cdb(0, &memberships);
        let params = GatheringParams::new(3, 3);
        let kc = 3;
        let old_len = 6;
        let old_crowd = single_cluster_crowd(0, old_len);
        let new_crowd = single_cluster_crowd(0, memberships.len());

        let old_gatherings = crate::gathering::detect_closed_gatherings(
            &old_crowd,
            &cdb,
            &params,
            kc,
            TadVariant::TadStar,
        );
        // Only the prefix before the invalid cluster qualifies in the old
        // crowd; the two positions after it are too short to host a crowd.
        assert_eq!(old_gatherings.len(), 1);
        assert_eq!(old_gatherings[0].lifetime(), 3);

        let updated = update_gatherings(
            &new_crowd,
            &cdb,
            old_len,
            &old_gatherings,
            &params,
            kc,
            TadVariant::TadStar,
        );
        let recomputed = crate::gathering::detect_closed_gatherings(
            &new_crowd,
            &cdb,
            &params,
            kc,
            TadVariant::TadStar,
        );
        assert_eq!(updated, recomputed);
        assert_eq!(updated.len(), 2);
        // The stable gathering before the pivot is exactly the old one.
        assert_eq!(updated[0], old_gatherings[0]);
        // Right of the pivot a new, longer gathering emerged from the
        // extension (positions 4..8).
        assert_eq!(updated[1].lifetime(), 5);
    }

    #[test]
    fn update_gatherings_without_reusable_pivot_falls_back() {
        // Every cluster valid: no invalid pivot in the old region, so the
        // update must simply recompute (and agree with recomputation).
        let memberships: Vec<&[u32]> = vec![&[1, 2, 3]; 8];
        let cdb = membership_cdb(0, &memberships);
        let params = GatheringParams::new(3, 3);
        let new_crowd = single_cluster_crowd(0, 8);
        let old_crowd = single_cluster_crowd(0, 5);
        let old = crate::gathering::detect_closed_gatherings(
            &old_crowd,
            &cdb,
            &params,
            3,
            TadVariant::TadStar,
        );
        let updated = update_gatherings(&new_crowd, &cdb, 5, &old, &params, 3, TadVariant::TadStar);
        let recomputed = crate::gathering::detect_closed_gatherings(
            &new_crowd,
            &cdb,
            &params,
            3,
            TadVariant::TadStar,
        );
        assert_eq!(updated, recomputed);
        assert_eq!(updated.len(), 1);
        assert_eq!(updated[0].lifetime(), 8);
    }

    #[test]
    #[should_panic(expected = "old prefix cannot be longer")]
    fn update_gatherings_rejects_bad_prefix_length() {
        let memberships: Vec<&[u32]> = vec![&[1, 2, 3]; 4];
        let cdb = membership_cdb(0, &memberships);
        let crowd = single_cluster_crowd(0, 4);
        let _ = update_gatherings(
            &crowd,
            &cdb,
            10,
            &[],
            &GatheringParams::new(2, 2),
            2,
            TadVariant::TadStar,
        );
    }

    fn incremental_equals_batch(memberships: &[&[u32]], split: usize) {
        let mut inc = engine();
        let (crowd_params, gathering_params) = (inc.config().crowd, inc.config().gathering);

        // Batch run over everything at once.
        let full_cdb = membership_cdb(0, memberships);
        let discovery = CrowdDiscovery::new(crowd_params, RangeSearchStrategy::Grid);
        let batch_crowds = discovery.run(&full_cdb).closed_crowds;
        let mut batch_gatherings: Vec<Gathering> = batch_crowds
            .iter()
            .flat_map(|c| {
                crate::gathering::detect_closed_gatherings(
                    c,
                    &full_cdb,
                    &gathering_params,
                    crowd_params.kc,
                    TadVariant::TadStar,
                )
            })
            .collect();
        batch_gatherings.sort_by_key(|g| (g.crowd().start_time(), g.crowd().end_time()));

        // Incremental run: first `split` ticks, then the rest.
        inc.ingest_clusters(membership_cdb(0, &memberships[..split]));
        inc.ingest_clusters(membership_cdb(split as u32, &memberships[split..]));

        let mut inc_crowds = inc.closed_crowds();
        let mut expected_crowds = batch_crowds;
        inc_crowds.sort_by_key(|c| (c.start_time(), c.end_time()));
        expected_crowds.sort_by_key(|c| (c.start_time(), c.end_time()));
        assert_eq!(inc_crowds, expected_crowds);

        let inc_gatherings = inc.gatherings();
        assert_eq!(inc_gatherings, batch_gatherings);
    }

    #[test]
    fn incremental_matches_batch_on_stable_group() {
        let memberships: Vec<&[u32]> = vec![&[1, 2, 3]; 10];
        incremental_equals_batch(&memberships, 6);
    }

    #[test]
    fn incremental_matches_batch_with_membership_churn() {
        let memberships: Vec<&[u32]> = vec![
            &[1, 2, 3],
            &[1, 2, 3, 4],
            &[2, 3, 4],
            &[9, 8, 7],
            &[1, 2, 3],
            &[1, 2, 3],
            &[1, 2, 3],
            &[4, 5, 6],
            &[4, 5, 6],
            &[4, 5, 6],
        ];
        for split in [3, 5, 7] {
            incremental_equals_batch(&memberships, split);
        }
    }

    #[test]
    fn ingest_summary_counts_extensions() {
        let mut inc = engine();
        let first: Vec<&[u32]> = vec![&[1, 2, 3]; 4];
        let update1 = inc.ingest_clusters(membership_cdb(0, &first));
        // The single stable crowd ends at the frontier, so it is reported as
        // closed-so-far but stays extendable.
        assert_eq!(update1.new_closed_crowds, 1);
        assert_eq!(inc.closed_crowds().len(), 1);
        assert_eq!(inc.gatherings().len(), 1);

        let second: Vec<&[u32]> = vec![&[1, 2, 3]; 3];
        let update2 = inc.ingest_clusters(membership_cdb(4, &second));
        assert_eq!(update2.new_closed_crowds, 1);
        assert_eq!(update2.extended_from_frontier, 1);
        let crowds = inc.closed_crowds();
        assert_eq!(crowds.len(), 1);
        assert_eq!(crowds[0].lifetime(), 7);
        let gatherings = inc.gatherings();
        assert_eq!(gatherings.len(), 1);
        assert_eq!(gatherings[0].lifetime(), 7);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut inc = engine();
        let update = inc.ingest_clusters(ClusterDatabase::new());
        assert_eq!(update.new_closed_crowds, 0);
        assert!(inc.closed_crowds().is_empty());
    }
}
