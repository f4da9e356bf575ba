//! `sharded_stream`: the pre-clustered archive through a two-shard
//! `ShardedEngine` in 10-tick batches.
//!
//! Partition, parallel shard ingest and the sequential merge replay carry
//! the cost; DBSCAN is bypassed and there is no store, so a change to
//! either must leave this workload where it was.  A few batches before the
//! end the engine is checkpointed (`sharded_checkpoint_to_vec`); recovery
//! restores that file and replays the remaining batches.

use std::time::Instant;

use gpdt_clustering::ClusterDatabase;
use gpdt_core::{Crowd, Gathering, GatheringEngine};
use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};
use gpdt_store::{restore_sharded_from_slice, sharded_checkpoint_to_vec};

use super::archive_mine::Archive;
use super::{
    clustered_point_bytes, elapsed_ms, elapsed_us, Checks, Metrics, PassEnv, PassStats, Workload,
};
use crate::inputs::{slice_batches, Digest};
use crate::layers;
use crate::spans::Recorder;

const BATCH_TICKS: u32 = 10;
const SHARDS: usize = 2;
const CELL_SIDE: f64 = 1_500.0;
/// Batches ingested after the checkpoint and replayed by recovery.
const BATCHES_AFTER_CHECKPOINT: usize = 4;

pub struct ShardedStream;

pub struct Input {
    archive: Archive,
    batches: Vec<ClusterDatabase>,
    /// Batches ingested before the checkpoint.
    checkpoint_at: usize,
}

pub struct Artifacts {
    crowds: Vec<Crowd>,
    gatherings: Vec<Gathering>,
    recovered: Option<(Vec<Crowd>, Vec<Gathering>)>,
}

fn sharded(input: &Input, shards: usize) -> ShardedEngine {
    ShardedEngine::new(
        input.archive.config,
        shards,
        Partitioner::Grid(GridPartitioner::new(CELL_SIDE)),
    )
}

impl Workload for ShardedStream {
    const NAME: &'static str = "sharded_stream";
    /// 144 batches a pass support p90 within each pass.
    const TAIL_Q: f64 = 0.9;
    type Input = Input;
    type Artifacts = Artifacts;

    fn setup(seed: u64, scale: f64, rec: &mut Recorder) -> Input {
        let archive = Archive::build(seed, scale, rec);
        let batches = slice_batches(&archive.clusters, BATCH_TICKS);
        let checkpoint_at = batches
            .len()
            .saturating_sub(BATCHES_AFTER_CHECKPOINT)
            .max(1);
        Input {
            archive,
            batches,
            checkpoint_at,
        }
    }

    fn sizes(input: &Input) -> Vec<(&'static str, f64)> {
        vec![
            ("taxis", input.archive.taxis as f64),
            ("ticks", input.archive.clusters.len() as f64),
            ("points", input.archive.points as f64),
            ("clusters", input.archive.clusters.total_clusters() as f64),
            ("batches", input.batches.len() as f64),
            ("batch_ticks", f64::from(BATCH_TICKS)),
            ("shards", SHARDS as f64),
        ]
    }

    fn input_digest(input: &Input) -> u64 {
        input.archive.digest()
    }

    fn pass(input: &Input, env: &mut PassEnv<'_>) -> (PassStats, Artifacts) {
        let checkpoint_file = env.dir.join("sharded.ckpt");
        let mut stats = PassStats {
            ingest_items: input.archive.points,
            attempted: input.batches.len() as u64 + 2,
            ..PassStats::default()
        };
        let mut engine = sharded(input, SHARDS);
        for (i, batch) in input.batches.iter().enumerate() {
            if i == input.checkpoint_at {
                let start = Instant::now();
                let token = env.rec.open("store.checkpoint.sharded.encode", 0);
                let bytes = sharded_checkpoint_to_vec(&engine);
                env.rec.close(token);
                stats.checkpoint_ms.push(elapsed_ms(start));
                stats.durable_bytes = bytes.len() as u64;
                let token = env.rec.open("harness.io", 0);
                std::fs::write(&checkpoint_file, &bytes).expect("write the checkpoint file");
                env.rec.close(token);
            }
            let start = Instant::now();
            let token = env.rec.open("shard.engine", i as u64);
            engine.ingest_clusters(batch.clone());
            env.rec.close(token);
            stats.op_us.push(elapsed_us(start));
        }
        stats.ingest_s = stats.op_us.iter().sum::<f64>() / 1e6;

        let start = Instant::now();
        let whole = env.rec.open("recover", 0);
        let token = env.rec.open("recover.restore", 0);
        let restored = std::fs::read(&checkpoint_file)
            .ok()
            .and_then(|bytes| restore_sharded_from_slice(&bytes).ok());
        env.rec.close(token);
        let recovered = match restored {
            Some(mut resumed) => {
                let token = env.rec.open("recover.replay", 0);
                for batch in &input.batches[input.checkpoint_at..] {
                    resumed.ingest_clusters(batch.clone());
                }
                env.rec.close(token);
                stats.recover_ms.push(elapsed_ms(start));
                Some((resumed.closed_crowds(), resumed.gatherings()))
            }
            None => {
                stats.failed += 1;
                None
            }
        };
        env.rec.close(whole);

        if env.rec.is_on() {
            let load = engine.stats();
            let clusters: Vec<f64> = load
                .per_shard
                .iter()
                .map(|s| s.resident_clusters as f64)
                .collect();
            let mean = clusters.iter().sum::<f64>() / clusters.len().max(1) as f64;
            let busiest = clusters.iter().copied().fold(0.0, f64::max);
            let total_ns =
                (load.partition_nanos + load.shard_ingest_nanos + load.merge_nanos).max(1);
            stats.layer = vec![
                ("shard.partition.busy_ms", load.partition_nanos as f64 / 1e6),
                ("shard.ingest.busy_ms", load.shard_ingest_nanos as f64 / 1e6),
                ("shard.merge.busy_ms", load.merge_nanos as f64 / 1e6),
                (
                    "shard.merge_share",
                    load.merge_nanos as f64 / total_ns as f64,
                ),
                ("shard.cross_edges", load.cross_edges as f64),
                ("shard.imported_paths", load.imported_paths as f64),
                ("shard.dropped_records", load.dropped_records as f64),
                (
                    "shard.load_skew",
                    if mean > 0.0 { busiest / mean } else { 0.0 },
                ),
                ("store.checkpoint.encode.bytes", stats.durable_bytes as f64),
            ];
        }
        (
            stats,
            Artifacts {
                crowds: engine.closed_crowds(),
                gatherings: engine.gatherings(),
                recovered,
            },
        )
    }

    fn user_bytes(input: &Input, _artifacts: &Artifacts) -> u64 {
        let checkpoint_tick = input.batches[input.checkpoint_at]
            .time_domain()
            .map_or(0, |d| d.start);
        clustered_point_bytes(&input.archive.clusters, checkpoint_tick)
    }

    fn verify(input: &Input, artifacts: &Artifacts, checks: &mut Checks) -> u64 {
        // Second path: one engine, one batch.
        let mut single = GatheringEngine::new(input.archive.config).with_threads(1);
        single.ingest_clusters(input.archive.clusters.clone());
        checks.check(
            "sharded crowds = single engine",
            artifacts.crowds == single.closed_crowds(),
        );
        checks.check(
            "sharded gatherings = single engine",
            artifacts.gatherings == single.gatherings(),
        );
        checks.check(
            "recovered-and-resumed = uninterrupted",
            artifacts
                .recovered
                .as_ref()
                .is_some_and(|(c, g)| *c == artifacts.crowds && *g == artifacts.gatherings),
        );
        let mut digest = Digest::default();
        for crowd in &artifacts.crowds {
            digest.update(crowd);
        }
        for gathering in &artifacts.gatherings {
            digest.update(gathering);
        }
        digest.finish()
    }

    fn replay(input: &Input, _artifacts: &Artifacts, env: &mut PassEnv<'_>, metrics: &mut Metrics) {
        let archive = &input.archive;
        archive.dbscan_layer_values(metrics);
        archive.replay_discovery_layers(3, env.rec, metrics);

        // The same batches through one shard and through a bare engine:
        // what sharding costs before it has anything to parallelise.
        let token = env.rec.open("shard.one_shard", 0);
        let start = Instant::now();
        let mut one = sharded(input, 1);
        for batch in &input.batches {
            one.ingest_clusters(batch.clone());
        }
        metrics.set("shard.one_shard.busy_ms", elapsed_ms(start));
        env.rec.close(token);
        let (single_ms, _) = layers::engine_ingest(
            &input.batches,
            GatheringEngine::new(archive.config),
            env.rec,
            metrics,
        );
        metrics.set("core.engine.ingest.busy_ms", single_ms);
        metrics.set("shard.single_engine.busy_ms", single_ms);
    }
}
