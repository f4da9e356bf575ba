//! `archive_mine`: the paper's offline mining use.
//!
//! An event-dense snowy day is clustered in set-up; the timed pass feeds
//! the cluster history to a single-threaded `GatheringEngine` under
//! `RetentionPolicy::Bounded` in 60-tick batches, moving each batch's
//! finalized records into a `PatternStore` (`drain_finalized` →
//! `append_crowd_record`), then archives the closed frontier and syncs.
//! DBSCAN is bypassed, so index build, range search, Hausdorff, TAD\* and
//! the store append are the whole timed cost.  Four times a pass, the last
//! time before the final batch, the state is made durable (store sync +
//! engine checkpoint); a copy of the files at that last point, with a torn
//! tail, is what recovery starts from.

use std::time::Instant;

use gpdt_clustering::{ClusterDatabase, StreamingClusterer};
use gpdt_core::{
    CrowdRecord, GatheringConfig, GatheringEngine, RangeSearchStrategy, RetentionPolicy,
};
use gpdt_store::{checkpoint_to_vec, restore_from_slice, PatternRecord, PatternStore};
use gpdt_workload::generate_scenario;

use super::{
    clustered_point_bytes, copy_dir, dir_bytes, elapsed_ms, elapsed_us, payload_bytes, tear_tail,
    Checks, Metrics, PassEnv, PassStats, Workload,
};
use crate::inputs::{archive_scenario, canonical_records, digest_clusters, slice_batches, Digest};
use crate::layers;
use crate::spans::Recorder;

const BATCH_TICKS: u32 = 60;
/// A durable point (store sync + engine checkpoint) is taken before every
/// sixth batch and before the last, four a pass: `checkpoint_ms` is mostly
/// an fsync, and an fsync's latency needs many samples to settle.
const CHECKPOINT_EVERY: usize = 6;

/// The pre-clustered archive `archive_mine` and `sharded_stream` share.
pub struct Archive {
    pub clusters: ClusterDatabase,
    pub config: GatheringConfig,
    pub taxis: usize,
    /// Object·ticks behind the clusters.
    pub points: u64,
}

impl Archive {
    /// Generates the scenario and clusters every snapshot (all cores).
    pub fn build(seed: u64, scale: f64, rec: &mut Recorder) -> Archive {
        let (scenario_config, config) = archive_scenario(seed, scale);
        let scenario = rec.time("workload.generate", 0, || {
            generate_scenario(&scenario_config)
        });
        let clusters = rec.time("clustering.dbscan", 0, || {
            StreamingClusterer::new(config.clustering).advance(&scenario.database)
        });
        Archive {
            clusters,
            config,
            taxis: scenario.database.len(),
            points: scenario.database.total_samples() as u64,
        }
    }

    pub fn digest(&self) -> u64 {
        let mut digest = Digest::default();
        digest.update(&self.config);
        digest_clusters(&mut digest, &self.clusters);
        digest.finish()
    }

    /// The clustering counts of set-up, reported in traced runs.
    pub fn dbscan_layer_values(&self, metrics: &mut Metrics) {
        let clustered: usize = self
            .clusters
            .iter()
            .flat_map(|set| set.clusters.iter())
            .map(|c| c.len())
            .sum();
        metrics.set("workload.points", self.points as f64);
        metrics.set("clustering.dbscan.points_in", self.points as f64);
        metrics.set(
            "clustering.dbscan.clusters_out",
            self.clusters.total_clusters() as f64,
        );
        metrics.set(
            "clustering.dbscan.clustered_point_ratio",
            clustered as f64 / (self.points as f64).max(1.0),
        );
        metrics.set(
            "clustering.dbscan.ns_per_point",
            metrics.get("clustering.dbscan.busy_ms") * 1e6 / (self.points as f64).max(1.0),
        );
        metrics.set(
            "geo.hausdorff.cutoff_pairs",
            gpdt_geo::bucketed_pair_cutoff() as f64,
        );
    }

    /// The layer replays both archive workloads run: Hausdorff, the three
    /// indexes, the three sweeps and both detection variants.
    pub fn replay_discovery_layers(&self, seed: u64, rec: &mut Recorder, metrics: &mut Metrics) {
        let delta = self.config.crowd.delta;
        layers::hausdorff(&self.clusters, delta, rec, metrics);
        layers::index(&self.clusters, delta, rec, metrics);
        let closed = layers::sweep(&self.clusters, self.config.crowd, rec, metrics);
        layers::gathering(&closed, &self.clusters, &self.config, seed, rec, metrics);
    }
}

pub struct ArchiveMine;

pub struct Input {
    archive: Archive,
    batches: Vec<ClusterDatabase>,
}

pub struct Artifacts {
    records: Vec<PatternRecord>,
    recovered: Option<Vec<PatternRecord>>,
    /// User bytes of the clusters resident when the engine was checkpointed.
    checkpointed_point_bytes: u64,
}

fn miner(config: GatheringConfig) -> GatheringEngine {
    GatheringEngine::new(config)
        .with_threads(1)
        .with_retention(RetentionPolicy::Bounded)
}

/// Ingests one batch and moves what it finalized into the store; returns
/// `(appended, refused)`.
fn mine_batch(
    engine: &mut GatheringEngine,
    store: &mut PatternStore,
    batch: &ClusterDatabase,
    unit: u64,
    rec: &mut Recorder,
) -> (u64, u64) {
    let token = rec.open("core.engine.ingest", unit);
    engine.ingest_clusters(batch.clone());
    rec.close(token);
    let token = rec.open("store.append", unit);
    let finalized = engine.drain_finalized();
    let outcome = append_all(store, &finalized, engine);
    rec.close(token);
    outcome
}

fn append_all(
    store: &mut PatternStore,
    records: &[CrowdRecord],
    engine: &GatheringEngine,
) -> (u64, u64) {
    let mut refused = 0;
    for record in records {
        if store
            .append_crowd_record(record, engine.cluster_database())
            .is_err()
        {
            refused += 1;
        }
    }
    (records.len() as u64 - refused, refused)
}

/// Archives the closed frontier and syncs: the end of a mining run.
fn finish(engine: &GatheringEngine, store: &mut PatternStore, rec: &mut Recorder) -> (u64, u64) {
    let token = rec.open("store.append", u64::MAX);
    let archived = store.archive_closed_frontier(engine);
    rec.close(token);
    let token = rec.open("store.sync", u64::MAX);
    let synced = store.sync();
    rec.close(token);
    (
        archived.as_ref().map_or(0, |n| *n as u64),
        u64::from(archived.is_err()) + u64::from(synced.is_err()),
    )
}

impl Workload for ArchiveMine {
    const NAME: &'static str = "archive_mine";
    /// 24 batches a pass: p90 is the highest percentile the pooled batch
    /// latencies of five passes support.
    const TAIL_Q: f64 = 0.9;
    const MIN_PASSES: usize = 5;
    type Input = Input;
    type Artifacts = Artifacts;

    fn setup(seed: u64, scale: f64, rec: &mut Recorder) -> Input {
        let archive = Archive::build(seed, scale, rec);
        let batches = slice_batches(&archive.clusters, BATCH_TICKS);
        Input { archive, batches }
    }

    fn sizes(input: &Input) -> Vec<(&'static str, f64)> {
        vec![
            ("taxis", input.archive.taxis as f64),
            ("ticks", input.archive.clusters.len() as f64),
            ("points", input.archive.points as f64),
            ("clusters", input.archive.clusters.total_clusters() as f64),
            ("batches", input.batches.len() as f64),
            ("batch_ticks", f64::from(BATCH_TICKS)),
        ]
    }

    fn input_digest(input: &Input) -> u64 {
        input.archive.digest()
    }

    fn pass(input: &Input, env: &mut PassEnv<'_>) -> (PassStats, Artifacts) {
        let store_dir = env.dir.join("store");
        let crashed_dir = env.dir.join("crashed");
        let checkpoint_file = env.dir.join("engine.ckpt");
        let mut stats = PassStats {
            ingest_items: input.archive.points,
            ..PassStats::default()
        };
        let mut appended = 0u64;
        let mut syncs = 0u64;

        let token = env.rec.open("store.open", 0);
        let mut store = env
            .open_store(&store_dir, false)
            .expect("open a fresh store");
        let mut engine = miner(input.archive.config);
        env.rec.close(token);

        let last = input.batches.len() - 1;
        let mut checkpoint_bytes = 0u64;
        let mut stored_at_checkpoint = 0usize;
        let mut checkpointed_point_bytes = 0u64;
        for (i, batch) in input.batches.iter().enumerate() {
            if i == last || (i > 0 && i % CHECKPOINT_EVERY == 0) {
                // A durable point: store synced, engine state serialised.
                let start = Instant::now();
                let token = env.rec.open("store.checkpoint", i as u64);
                let synced = store.sync();
                let bytes = checkpoint_to_vec(&engine);
                env.rec.close(token);
                stats.checkpoint_ms.push(elapsed_ms(start));
                stats.attempted += 1;
                stats.failed += u64::from(synced.is_err());
                syncs += 1;
                if i == last {
                    // The last durable point is the one recovery starts from.
                    let token = env.rec.open("harness.io", 0);
                    checkpoint_bytes = bytes.len() as u64;
                    stored_at_checkpoint = store.len();
                    checkpointed_point_bytes =
                        clustered_point_bytes(engine.cluster_database(), u32::MAX);
                    std::fs::write(&checkpoint_file, &bytes).expect("write the checkpoint file");
                    copy_dir(&store_dir, &crashed_dir).expect("copy the store at the checkpoint");
                    tear_tail(&crashed_dir).expect("tear the copy's tail");
                    env.rec.close(token);
                }
            }
            let start = Instant::now();
            let token = env.rec.open("batch", i as u64);
            let (ok, refused) = mine_batch(&mut engine, &mut store, batch, i as u64, env.rec);
            env.rec.close(token);
            stats.op_us.push(elapsed_us(start));
            appended += ok;
            stats.attempted += 1 + ok + refused;
            stats.failed += refused;
        }
        let start = Instant::now();
        let (archived, errors) = finish(&engine, &mut store, env.rec);
        stats.ingest_s = stats.op_us.iter().sum::<f64>() / 1e6 + start.elapsed().as_secs_f64();
        appended += archived;
        syncs += 1;
        stats.attempted += archived + 1;
        stats.failed += errors;
        let records = store.records().to_vec();
        drop(store);
        stats.durable_bytes = checkpoint_bytes + dir_bytes(&store_dir);

        // Cold recovery: from the files of the durable point to the end of
        // the run.
        let start = Instant::now();
        let whole = env.rec.open("recover", 0);
        stats.attempted += 1;
        let token = env.rec.open("recover.restore", 0);
        let restored = std::fs::read(&checkpoint_file)
            .ok()
            .and_then(|bytes| restore_from_slice(&bytes).ok())
            .map(|e| e.with_threads(1).with_retention(RetentionPolicy::Bounded));
        env.rec.close(token);
        let token = env.rec.open("recover.reopen", 0);
        let reopened = env.open_store(&crashed_dir, stored_at_checkpoint == 0);
        env.rec.close(token);
        let recovered = match (restored, reopened) {
            (Some(mut engine), Ok(mut store)) => {
                let token = env.rec.open("recover.replay", 0);
                let (_, refused) = mine_batch(
                    &mut engine,
                    &mut store,
                    &input.batches[last],
                    u64::MAX,
                    env.rec,
                );
                let (_, errors) = finish(&engine, &mut store, env.rec);
                env.rec.close(token);
                stats.failed += refused + errors;
                stats.recover_ms.push(elapsed_ms(start));
                Some(store.records().to_vec())
            }
            _ => {
                stats.failed += 1;
                None
            }
        };
        env.rec.close(whole);

        if env.rec.is_on() {
            stats.layer = vec![
                ("store.append.records", appended as f64),
                ("store.sync.calls", syncs as f64),
                (
                    "store.bytes_per_record",
                    dir_bytes(&store_dir) as f64 / (appended as f64).max(1.0),
                ),
            ];
        }
        (
            stats,
            Artifacts {
                records,
                recovered,
                checkpointed_point_bytes,
            },
        )
    }

    fn user_bytes(_input: &Input, artifacts: &Artifacts) -> u64 {
        artifacts.checkpointed_point_bytes + payload_bytes(&artifacts.records)
    }

    fn verify(input: &Input, artifacts: &Artifacts, checks: &mut Checks) -> u64 {
        let config = input.archive.config;
        // Second path: unbounded retention, one batch, nothing drained.
        let mut reference = GatheringEngine::new(config).with_threads(1);
        reference.ingest_clusters(input.archive.clusters.clone());
        let kc = config.crowd.kc;
        let expected = canonical_records(
            reference
                .finalized_records()
                .iter()
                .cloned()
                .chain(
                    reference
                        .frontier()
                        .iter()
                        .filter(|(crowd, _)| crowd.lifetime() >= kc)
                        .map(|(crowd, gatherings)| CrowdRecord {
                            crowd: crowd.clone(),
                            gatherings: gatherings.clone(),
                        }),
                )
                .map(|record| {
                    PatternRecord::from_crowd_record(&record, reference.cluster_database())
                }),
        );
        let stored = canonical_records(artifacts.records.iter().cloned());
        checks.check(
            "bounded + drained store = unbounded one-batch engine",
            stored == expected,
        );

        // Third path: the same discovery through the R-tree with dside.
        let mut by_rtree = GatheringEngine::new(config)
            .with_threads(1)
            .with_strategy(RangeSearchStrategy::RTreeDside);
        by_rtree.ingest_clusters(input.archive.clusters.clone());
        checks.check(
            "GRID crowds = IR crowds",
            reference.closed_crowds() == by_rtree.closed_crowds(),
        );
        checks.check(
            "GRID gatherings = IR gatherings",
            reference.gatherings() == by_rtree.gatherings(),
        );
        checks.check(
            "recovered-and-resumed store = uninterrupted",
            artifacts.recovered.as_ref() == Some(&artifacts.records),
        );

        let mut digest = Digest::default();
        for record in &stored {
            digest.update_bytes(record);
        }
        digest.finish()
    }

    fn replay(input: &Input, artifacts: &Artifacts, env: &mut PassEnv<'_>, metrics: &mut Metrics) {
        let archive = &input.archive;
        archive.dbscan_layer_values(metrics);
        archive.replay_discovery_layers(2, env.rec, metrics);
        // The traced passes timed the engine and the appends in place; the
        // replays add what a pass cannot see: the per-batch distribution and
        // engine load, decile throughput, reopen cost.
        let (_, at_end) =
            layers::engine_ingest(&input.batches, miner(archive.config), env.rec, metrics);
        layers::codec(&artifacts.records, env.rec, metrics);
        layers::checkpoint(&at_end, env.rec, metrics);
        let timed_in_place = [
            "store.append.busy_ms",
            "store.append.records",
            "store.sync.busy_ms",
            "store.sync.calls",
        ];
        layers::store_replay(&artifacts.records, &timed_in_place, env, metrics);
    }
}
