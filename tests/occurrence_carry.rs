//! The engine carries every open crowd's occurrence table from tick to tick
//! and extends it instead of rebuilding it.  On a stream whose crowds branch
//! and merge all the time, that must change nothing: streamed one tick at a
//! time, in ragged batches, or with a checkpoint → restore in the middle
//! (which drops every carried table, so the next extension rebuilds it), the
//! gatherings equal those of a one-batch engine that never carried a table,
//! and an engine restored from a checkpoint stays byte-identical to the one
//! that wrote it — for all three detection variants.

use gathering_patterns::prelude::*;
use gpdt_clustering::{SnapshotClusterSet, SnapshotClusterSetBuilder};
use gpdt_core::GatheringEngine;
use gpdt_store::{checkpoint_to_vec, restore_from_slice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LANES: u32 = 7;
const LANE_GAP: f64 = 100.0;
/// Clusters in the same or in adjacent lanes are within δ, others are not.
const DELTA: f64 = 130.0;

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(3, 4, DELTA))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .unwrap()
}

/// A cluster stream over a row of lanes.  Each tick a lane holds a cluster
/// with some probability, made of most of the lane's resident crew and a
/// few passers-by; a cluster continues every cluster of the previous tick
/// in its own and its two neighbouring lanes, so crowds fork wherever two
/// neighbouring lanes are occupied after one and join where one follows two.
/// The occupancy keeps the forking just subcritical.
fn lane_stream(seed: u64, ticks: u32) -> Vec<SnapshotClusterSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ticks)
        .map(|t| {
            let mut builder = SnapshotClusterSetBuilder::new(t);
            for lane in 0..LANES {
                if !rng.gen_bool(0.3) {
                    continue;
                }
                let mut members: Vec<u32> = (0..6).map(|k| lane * 10 + k).collect();
                members.retain(|_| rng.gen_bool(0.75));
                for _ in 0..rng.gen_range(0u32..3) {
                    members.push(1_000 + rng.gen_range(0u32..40));
                }
                members.sort_unstable();
                members.dedup();
                if members.is_empty() {
                    continue;
                }
                for &member in &members {
                    let x = f64::from(lane) * LANE_GAP + f64::from(member % 10);
                    builder.push_member(ObjectId::new(member), x, f64::from(member % 7));
                }
                builder.end_cluster();
            }
            builder.finish()
        })
        .collect()
}

fn batch(stream: &[SnapshotClusterSet], from: usize, to: usize) -> ClusterDatabase {
    ClusterDatabase::from_sets(stream[from..to].to_vec())
}

fn engine(variant: TadVariant, threads: usize) -> GatheringEngine {
    GatheringEngine::new(config())
        .with_variant(variant)
        .with_threads(threads)
}

#[test]
fn carried_tables_change_neither_gatherings_nor_checkpoints() {
    let ticks = 90usize;
    let mut rng = StdRng::seed_from_u64(0xca44);
    let mut gatherings_seen = 0;
    let mut widest_frontier = 0;
    for seed in 0..4u64 {
        let stream = lane_stream(seed, ticks as u32);
        for variant in TadVariant::ALL {
            let label = format!("seed {seed}, {variant}");
            // The reference never extends a table: with no old frontier,
            // every crowd's table is built from scratch.
            let mut reference = engine(variant, 1);
            reference.ingest_clusters(batch(&stream, 0, ticks));
            let expected_crowds = reference.closed_crowds();
            let expected = reference.gatherings();
            gatherings_seen += expected.len();

            // One tick at a time; at two random ticks a twin is restored
            // from a checkpoint — no carried tables — and streamed alongside.
            // From there on the two must write the same bytes at every tick.
            let mut ticked = engine(variant, 2);
            let mut twins: Vec<GatheringEngine> = Vec::new();
            let cuts = [
                rng.gen_range(5..ticks / 2),
                rng.gen_range(ticks / 2..ticks - 1),
            ];
            for t in 0..ticks {
                ticked.ingest_clusters(batch(&stream, t, t + 1));
                widest_frontier = widest_frontier.max(ticked.frontier().len());
                let bytes = checkpoint_to_vec(&ticked);
                for twin in &mut twins {
                    twin.ingest_clusters(batch(&stream, t, t + 1));
                    assert!(
                        checkpoint_to_vec(twin) == bytes,
                        "{label}: twin diverged at t={t}"
                    );
                }
                if cuts.contains(&t) {
                    let twin = restore_from_slice(&bytes).expect("restore the checkpoint");
                    assert!(
                        checkpoint_to_vec(&twin) == bytes,
                        "{label}: round trip at t={t}"
                    );
                    twins.push(twin);
                }
            }
            assert_eq!(
                ticked.closed_crowds(),
                expected_crowds,
                "{label}: ticked crowds"
            );
            assert_eq!(ticked.gatherings(), expected, "{label}: ticked");
            for twin in &twins {
                assert_eq!(twin.gatherings(), expected, "{label}: restored twin");
            }

            // Ragged batches (tables extended by several clusters at once),
            // with one restore at a batch edge.
            let mut ragged = engine(variant, 2);
            let mut from = 0;
            let mut restored = false;
            while from < ticks {
                let to = (from + rng.gen_range(1usize..8)).min(ticks);
                ragged.ingest_clusters(batch(&stream, from, to));
                if !restored && to > ticks / 3 {
                    let bytes = checkpoint_to_vec(&ragged);
                    ragged = restore_from_slice(&bytes).expect("restore the checkpoint");
                    restored = true;
                }
                from = to;
            }
            assert_eq!(
                ragged.closed_crowds(),
                expected_crowds,
                "{label}: ragged crowds"
            );
            assert_eq!(ragged.gatherings(), expected, "{label}: ragged");
        }
    }
    // The stream has to exercise what the test is about.
    assert!(gatherings_seen > 50, "only {gatherings_seen} gatherings");
    assert!(widest_frontier >= 4, "the frontier never branched");
}
