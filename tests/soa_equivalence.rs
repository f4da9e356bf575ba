//! The columnar cluster arenas leave no fingerprint in the output: the full
//! engine produces **byte-identical checkpoints** for every range-search
//! strategy, no matter how the ingest stream is sliced — the shared per-tick
//! arenas, the canonical orders and the columnar codec frames see only the
//! data, never how it arrived.

use gpdt_bench::scenarios::clustered_scenario;
use gpdt_clustering::{ClusterDatabase, ClusteringParams};
use gpdt_core::{
    CrowdParams, GatheringConfig, GatheringEngine, GatheringParams, RangeSearchStrategy,
};
use gpdt_store::checkpoint_to_vec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[test]
fn engine_checkpoints_are_byte_identical_across_slicings() {
    let cs = clustered_scenario(0xBEEF, 120, 60);
    let sets = cs.clusters.clone().into_sets();
    let mut rng = StdRng::seed_from_u64(0x51C);

    for strategy in RangeSearchStrategy::ALL {
        let mut reference = GatheringEngine::new(config()).with_strategy(strategy);
        reference.ingest_clusters(cs.clusters.clone());
        let want = checkpoint_to_vec(&reference);

        for round in 0..3 {
            let mut engine = GatheringEngine::new(config()).with_strategy(strategy);
            ingest_sliced(&mut engine, &sets, &mut rng);
            assert_eq!(
                checkpoint_to_vec(&engine),
                want,
                "{strategy:?} round {round}: sliced ingest left a byte-level fingerprint"
            );
        }
    }
}
