//! The sharded discovery engine and its exact cross-shard merge.
//!
//! See the [crate docs](crate) for the correctness argument.  The data flow
//! per ingested batch:
//!
//! ```text
//!                        global cluster batch
//!                               │
//!                    ┌──────────┴──────────┐  Partitioner (per tick)
//!                    ▼                     ▼
//!              shard 0 batch   ...   shard N-1 batch      (+ per-tick layout,
//!                    │                     │                boundary flags)
//!              GatheringEngine       GatheringEngine       parked threads,
//!              (observer logs        (observer logs        one per shard
//!               boundary prefixes)    boundary prefixes)
//!                    └──────────┬──────────┘
//!                               ▼
//!                        merge replay (sequential, per tick):
//!                          1. find cross-shard edges among boundary clusters
//!                          2. splice logged prefixes onto cross extensions
//!                          3. extend tainted paths against the global tick
//!                               │
//!                               ▼
//!            finalized records = filtered shard output ∪ merged paths
//! ```

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gpdt_clustering::{ClusterDatabase, ClusterId, SnapshotClusterSet, StreamingClusterer};
use gpdt_core::par::par_map;
use gpdt_core::{
    canonical_crowd_order, canonical_gathering_order, detect_closed_gatherings, Crowd, CrowdRecord,
    Gathering, GatheringConfig, GatheringEngine, RangeSearchStrategy, RetentionPolicy,
    SearcherScratch, TadVariant, TickSearcher,
};
use gpdt_trajectory::{TimeInterval, Timestamp, TrajectoryDatabase};

use crate::partition::Partitioner;

/// Where every global cluster of one tick lives: the per-tick output of the
/// partitioner, kept for remapping shard-local results back to global
/// cluster ids.
#[derive(Debug, Clone)]
struct TickLayout {
    time: Timestamp,
    /// Shard of each global cluster index.
    shard: Vec<u32>,
    /// Within-shard index of each global cluster index.
    local: Vec<u32>,
    /// Per shard: local index → global index.
    to_global: Vec<Vec<u32>>,
    /// Global indices of boundary-adjacent clusters, ascending.
    boundary: Vec<u32>,
}

/// Partitions one tick's cluster set into its [`TickLayout`]: the single
/// source of truth for layout construction, shared by live ingestion and
/// checkpoint restore so a restored engine re-derives byte-identical
/// layouts from the same partitioner.
fn build_layout(
    set: &SnapshotClusterSet,
    partitioner: &Partitioner,
    delta: f64,
    shard_count: usize,
) -> TickLayout {
    let n = set.clusters.len();
    let mut layout = TickLayout {
        time: set.time,
        shard: Vec::with_capacity(n),
        local: Vec::with_capacity(n),
        to_global: vec![Vec::new(); shard_count],
        boundary: Vec::new(),
    };
    for (gidx, cluster) in set.clusters.iter().enumerate() {
        let s = partitioner.shard_of(cluster, shard_count);
        layout.shard.push(s as u32);
        layout.local.push(layout.to_global[s].len() as u32);
        layout.to_global[s].push(gidx as u32);
        if partitioner.is_boundary(cluster, delta, shard_count) {
            layout.boundary.push(gidx as u32);
        }
    }
    layout
}

fn layout_at(layouts: &VecDeque<TickLayout>, t: Timestamp) -> Option<&TickLayout> {
    let first = layouts.front()?.time;
    if t < first {
        return None;
    }
    layouts.get((t - first) as usize)
}

/// Rewrites a shard-local crowd into global cluster ids.
fn remap_crowd(layouts: &VecDeque<TickLayout>, crowd: &Crowd, shard: usize) -> Crowd {
    Crowd::new(
        crowd
            .cluster_ids()
            .iter()
            .map(|id| {
                let layout =
                    layout_at(layouts, id.time).expect("crowd spans retained tick layouts");
                ClusterId::new(id.time, layout.to_global[shard][id.index] as usize)
            })
            .collect(),
    )
}

/// Ingests one shard's partitioned batch into its engine, collecting the
/// per-tick boundary-candidate log the merge replay splices from.  The one
/// ingest body both the parallel workers and the supervisor's rebuild path
/// run, so a rebuilt shard is byte-identical to an undisturbed one.
///
/// `fault`, if armed, fires at the first observer callback — mid-ingest by
/// design, leaving the engine half-mutated for the supervisor to discard.
fn ingest_with_boundary_log(
    engine: &mut GatheringEngine,
    sets: Vec<SnapshotClusterSet>,
    bits: &[Vec<bool>],
    batch_start: Timestamp,
    fault: Option<ShardFault>,
) -> Vec<(Timestamp, Vec<Crowd>)> {
    let mut log: Vec<(Timestamp, Vec<Crowd>)> = Vec::new();
    let mut fired = false;
    let mut observer = |t: Timestamp, candidates: &[Crowd]| {
        if !fired {
            fired = true;
            match fault {
                Some(ShardFault::PanicOnce) => panic!("injected shard worker fault"),
                Some(ShardFault::StallOnce(pause)) => std::thread::sleep(pause),
                None => {}
            }
        }
        let tick_bits = &bits[(t - batch_start) as usize];
        let kept: Vec<Crowd> = candidates
            .iter()
            .filter(|c| tick_bits[c.last().index])
            .cloned()
            .collect();
        if !kept.is_empty() {
            log.push((t, kept));
        }
    };
    engine.ingest_clusters_observed(ClusterDatabase::from_sets(sets), Some(&mut observer));
    log
}

/// Sorted-vec membership sets for cross-edge endpoints.  Small (only
/// boundary clusters actually incident to a cross edge enter), queried on
/// every merge decision, pruned by retention.
#[derive(Debug, Clone, Default)]
struct CrossSet {
    ids: Vec<ClusterId>,
}

impl CrossSet {
    fn insert(&mut self, id: ClusterId) {
        if let Err(pos) = self.ids.binary_search(&id) {
            self.ids.insert(pos, id);
        }
    }

    fn contains(&self, id: &ClusterId) -> bool {
        self.ids.binary_search(id).is_ok()
    }

    fn retain_from(&mut self, t: Timestamp) {
        self.ids.retain(|id| id.time >= t);
    }
}

/// Summary of one sharded ingestion step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedUpdate {
    /// Records (crowd + gatherings) finalized by this batch, after the merge.
    pub new_finalized: usize,
    /// Cross-shard edges discovered in this batch.
    pub new_cross_edges: u64,
    /// Boundary prefixes spliced into the merge sweep in this batch.
    pub new_imported_paths: u64,
    /// Shard-local records dropped because a cross edge invalidated them.
    pub new_dropped_records: u64,
}

/// Per-shard load snapshot (see [`ShardedStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Ticks resident in the shard's cluster database.
    pub resident_ticks: usize,
    /// Snapshot clusters resident in the shard.
    pub resident_clusters: usize,
    /// Open crowd candidates on the shard's frontier.
    pub open_sequences: usize,
    /// Records the shard has finalized so far (before merge filtering).
    pub finalized_records: usize,
    /// Objects clustered on this shard at the last ingested tick — the
    /// instantaneous balance indicator.
    pub last_tick_objects: usize,
    /// Times this shard's worker was rebuilt from its in-memory snapshot
    /// after a panic or a deadline overrun.
    pub restarts: u64,
}

/// Supervision policy for the per-shard ingest workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSupervision {
    /// Wall-clock budget for one batch's parallel shard ingestion.  A worker
    /// that has not reported back when it expires is abandoned and its shard
    /// rebuilt from the retained snapshot; `None` (the default) waits
    /// indefinitely, so the coordinator ingests one shard itself instead of
    /// idling — panics are still caught and recovered either way.
    pub worker_deadline: Option<Duration>,
    /// Snapshots of the shard engines are refreshed after this many batches;
    /// the coordinator retains the partitioned inputs of every batch since
    /// the last snapshot, so a rebuilt shard replays at most this many
    /// batches.
    pub snapshot_interval: u64,
}

impl Default for ShardSupervision {
    fn default() -> Self {
        ShardSupervision {
            worker_deadline: None,
            snapshot_interval: 16,
        }
    }
}

/// A fault injected into one shard's next ingest worker (chaos testing —
/// see [`ShardedEngine::inject_shard_fault`]).  Fires mid-ingest, at the
/// worker's first per-tick observer callback, so the abandoned engine is
/// genuinely half-mutated when the supervisor rebuilds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Panic once inside the worker.
    PanicOnce,
    /// Stall the worker for this long before continuing normally (pair with
    /// a shorter [`ShardSupervision::worker_deadline`] to exercise the
    /// abandon-and-rebuild path).
    StallOnce(Duration),
}

/// A point-in-time snapshot of the sharded engine's load and merge cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Number of shards.
    pub shard_count: usize,
    /// Ticks ingested since construction/restore.
    pub ticks_ingested: u64,
    /// Merged finalized records accumulated so far.
    pub finalized_records: usize,
    /// Tainted paths currently tracked by the merge sweep.
    pub open_merge_paths: usize,
    /// Cross-shard edges discovered so far.
    pub cross_edges: u64,
    /// Boundary prefixes spliced into the merge sweep so far.
    pub imported_paths: u64,
    /// Records finalized by the merge sweep itself (cross-border crowds).
    pub merge_finalized: u64,
    /// Shard-local records dropped as invalidated by a cross edge.
    pub dropped_records: u64,
    /// Nanoseconds spent partitioning batches.
    pub partition_nanos: u64,
    /// Nanoseconds spent in parallel shard ingestion (wall clock).
    pub shard_ingest_nanos: u64,
    /// Nanoseconds spent in the sequential merge replay — the overhead a
    /// sharded deployment pays on top of the per-shard sweeps.
    pub merge_nanos: u64,
    /// Per-shard load.
    pub per_shard: Vec<ShardLoad>,
}

impl gpdt_obs::MetricSource for ShardedStats {
    fn metric_prefix(&self) -> &'static str {
        "shard"
    }
    fn metric_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("shard_count", self.shard_count as u64),
            ("ticks_ingested", self.ticks_ingested),
            ("finalized_records", self.finalized_records as u64),
            ("open_merge_paths", self.open_merge_paths as u64),
            ("cross_edges", self.cross_edges),
            ("imported_paths", self.imported_paths),
            ("merge_finalized", self.merge_finalized),
            ("dropped_records", self.dropped_records),
            ("partition_nanos", self.partition_nanos),
            ("shard_ingest_nanos", self.shard_ingest_nanos),
            ("merge_nanos", self.merge_nanos),
            ("restarts", self.per_shard.iter().map(|l| l.restarts).sum()),
        ]
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// One parked ingest thread per shard, started on first use and kept for the
/// engine's lifetime.  Starting a thread per shard per batch costs an `mmap`,
/// a `clone` and a `munmap` each — 50 to 250 µs on a small VM, a third of a
/// 10-tick batch and the part of it that differs from run to run; a parked
/// thread costs one futex wake.  Dropping the engine hangs up the channels
/// and the threads exit.
#[derive(Debug, Default)]
struct WorkerPool {
    workers: Vec<Option<mpsc::Sender<Job>>>,
}

impl WorkerPool {
    /// Hands `job` to shard `s`'s thread.
    fn run(&mut self, s: usize, job: Job) {
        if self.workers.len() <= s {
            self.workers.resize_with(s + 1, || None);
        }
        let worker = self.workers[s].get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel::<Job>();
            std::thread::spawn(move || rx.into_iter().for_each(|job| job()));
            tx
        });
        // Jobs catch their own panics, so the thread is there to receive.
        worker.send(job).expect("shard worker thread is alive");
    }

    /// Gives up on shard `s`'s thread (it overran the deadline): it exits
    /// once its current job returns, and the next batch starts a fresh one
    /// instead of queueing behind it.
    fn retire(&mut self, s: usize) {
        if let Some(worker) = self.workers.get_mut(s) {
            *worker = None;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    ticks: u64,
    cross_edges: u64,
    imported: u64,
    merge_finalized: u64,
    dropped: u64,
    partition_nanos: u64,
    shard_nanos: u64,
    merge_nanos: u64,
}

/// `N` independent [`GatheringEngine`]s behind a single-engine-equivalent
/// facade.  See the [module](self) docs and the crate-level docs.
#[derive(Debug)]
pub struct ShardedEngine {
    config: GatheringConfig,
    strategy: RangeSearchStrategy,
    variant: TadVariant,
    threads: usize,
    retention: RetentionPolicy,
    partitioner: Partitioner,
    shards: Vec<GatheringEngine>,
    /// Finalized records already pulled (and merge-filtered) per shard.
    consumed: Vec<usize>,
    clusterer: StreamingClusterer,
    /// The global cluster database (retention-bounded like the engines').
    cdb: ClusterDatabase,
    layouts: VecDeque<TickLayout>,
    /// Cluster ids with a cross-shard in-edge: locally seeded paths starting
    /// here are spurious (globally absorbed).
    cross_in: CrossSet,
    /// Cluster ids with a cross-shard out-edge: locally closed paths ending
    /// here closed too early (globally extensible).
    cross_out: CrossSet,
    /// The merge sweep's candidate set: every global path containing at
    /// least one cross-shard edge, ending at the current last tick.
    merge: Vec<Crowd>,
    finalized: Vec<CrowdRecord>,
    counters: Counters,
    supervision: ShardSupervision,
    /// Per-shard engine clones taken at the last snapshot point; `None`
    /// until the first supervised ingest (or after a builder invalidated
    /// them).
    snapshots: Option<Vec<GatheringEngine>>,
    /// Partitioned inputs of every batch since the last snapshot, indexed
    /// `[batch][shard]` — what a rebuilt shard replays.
    retained_batches: Vec<Vec<Vec<SnapshotClusterSet>>>,
    /// Per-shard worker rebuild counts.
    restarts: Vec<u64>,
    /// Chaos hooks: a fault each shard's next worker fires mid-ingest.
    pending_faults: Vec<Option<ShardFault>>,
    workers: WorkerPool,
}

impl ShardedEngine {
    /// Creates a sharded engine with `shard_count` shards (≥ 1) and the
    /// default algorithm choices (grid range search, TAD\*, all cores split
    /// across the shards).
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn new(config: GatheringConfig, shard_count: usize, partitioner: Partitioner) -> Self {
        assert!(
            shard_count >= 1,
            "a sharded engine needs at least one shard"
        );
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let per_shard = (threads / shard_count).max(1);
        ShardedEngine {
            config,
            strategy: RangeSearchStrategy::default(),
            variant: TadVariant::default(),
            threads,
            retention: RetentionPolicy::KeepAll,
            partitioner,
            shards: (0..shard_count)
                .map(|_| GatheringEngine::new(config).with_threads(per_shard))
                .collect(),
            consumed: vec![0; shard_count],
            clusterer: StreamingClusterer::new(config.clustering).with_threads(threads),
            cdb: ClusterDatabase::new(),
            layouts: VecDeque::new(),
            cross_in: CrossSet::default(),
            cross_out: CrossSet::default(),
            merge: Vec::new(),
            finalized: Vec::new(),
            counters: Counters::default(),
            supervision: ShardSupervision::default(),
            snapshots: None,
            retained_batches: Vec::new(),
            restarts: vec![0; shard_count],
            pending_faults: vec![None; shard_count],
            workers: WorkerPool::default(),
        }
    }

    /// Drops the supervision snapshots: the builders below reconfigure the
    /// shard engines, so clones taken earlier no longer match them.  A fresh
    /// snapshot is taken at the next ingest.
    fn invalidate_snapshots(&mut self) {
        self.snapshots = None;
        self.retained_batches.clear();
    }

    /// Overrides the range-search strategy (propagated to every shard).
    pub fn with_strategy(mut self, strategy: RangeSearchStrategy) -> Self {
        self.strategy = strategy;
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|e| e.with_strategy(strategy))
            .collect();
        self.invalidate_snapshots();
        self
    }

    /// Overrides the gathering-detection variant (propagated to every shard).
    pub fn with_variant(mut self, variant: TadVariant) -> Self {
        self.variant = variant;
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|e| e.with_variant(variant))
            .collect();
        self.invalidate_snapshots();
        self
    }

    /// Overrides the total worker-thread budget; each shard engine gets an
    /// equal slice (at least one).  Never changes results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        let per_shard = (self.threads / self.shards.len()).max(1);
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|e| e.with_threads(per_shard))
            .collect();
        self.clusterer = self.clusterer.clone().with_threads(self.threads);
        self.invalidate_snapshots();
        self
    }

    /// Overrides the retention policy, on the global database and every
    /// shard alike (see
    /// [`RetentionPolicy`]).  Never changes discovery output.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|e| e.with_retention(retention))
            .collect();
        self.invalidate_snapshots();
        self
    }

    /// Overrides the worker supervision policy (see [`ShardSupervision`]).
    /// Like the thread budget, a host choice: it never changes results.
    pub fn with_supervision(mut self, supervision: ShardSupervision) -> Self {
        self.supervision = supervision;
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &GatheringConfig {
        &self.config
    }

    /// The configured range-search strategy.
    pub fn strategy(&self) -> RangeSearchStrategy {
        self.strategy
    }

    /// The configured detection variant.
    pub fn variant(&self) -> TadVariant {
        self.variant
    }

    /// The configured partitioner.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The configured total worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// The configured worker supervision policy.
    pub fn supervision(&self) -> ShardSupervision {
        self.supervision
    }

    /// Per-shard worker rebuild counts (panics caught + deadline overruns),
    /// indexed by shard.
    pub fn restarts(&self) -> &[u64] {
        &self.restarts
    }

    /// Arms a one-shot fault that `shard`'s next ingest worker fires
    /// mid-ingest — the chaos hook the supervision tests drive.  Output is
    /// unaffected: the supervisor rebuilds the shard and the batch completes
    /// byte-identical to an undisturbed run.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn inject_shard_fault(&mut self, shard: usize, fault: ShardFault) {
        self.pending_faults[shard] = Some(fault);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines (for inspection and checkpointing).
    pub fn shard_engines(&self) -> &[GatheringEngine] {
        &self.shards
    }

    /// The global (retention-bounded) cluster database.
    pub fn cluster_database(&self) -> &ClusterDatabase {
        &self.cdb
    }

    /// The time interval ingested so far, or `None` before the first batch.
    pub fn time_domain(&self) -> Option<TimeInterval> {
        self.cdb.time_domain()
    }

    /// The merged finalized records, in a canonical per-batch order: crowds
    /// whose discovery can never change again, with shard-local ids already
    /// rewritten to global ones.  The stable feed for a durable store.
    pub fn finalized_records(&self) -> &[CrowdRecord] {
        &self.finalized
    }

    /// The merge sweep's open paths (every tainted path ending at the last
    /// tick), for checkpointing.
    pub fn merge_frontier(&self) -> &[Crowd] {
        &self.merge
    }

    /// Cluster ids carrying a cross-shard in-edge (sorted), for
    /// checkpointing.
    pub fn cross_edge_heads(&self) -> &[ClusterId] {
        &self.cross_in.ids
    }

    /// Cluster ids carrying a cross-shard out-edge (sorted), for
    /// checkpointing.
    pub fn cross_edge_tails(&self) -> &[ClusterId] {
        &self.cross_out.ids
    }

    /// A snapshot of load and merge cost.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            shard_count: self.shards.len(),
            ticks_ingested: self.counters.ticks,
            finalized_records: self.finalized.len(),
            open_merge_paths: self.merge.len(),
            cross_edges: self.counters.cross_edges,
            imported_paths: self.counters.imported,
            merge_finalized: self.counters.merge_finalized,
            dropped_records: self.counters.dropped,
            partition_nanos: self.counters.partition_nanos,
            shard_ingest_nanos: self.counters.shard_nanos,
            merge_nanos: self.counters.merge_nanos,
            per_shard: self
                .shards
                .iter()
                .enumerate()
                .map(|(s, engine)| {
                    let cdb = engine.cluster_database();
                    let last_tick_objects = cdb
                        .time_domain()
                        .and_then(|d| cdb.set_at(d.end))
                        .map_or(0, |set| set.clusters.iter().map(|c| c.len()).sum());
                    ShardLoad {
                        resident_ticks: cdb.len(),
                        resident_clusters: cdb.total_clusters(),
                        open_sequences: engine.frontier().len(),
                        finalized_records: engine.finalized_records().len(),
                        last_tick_objects,
                        restarts: self.restarts[s],
                    }
                })
                .collect(),
        }
    }

    /// Clusters and ingests every not-yet-seen snapshot of `db` (the
    /// trajectory-level convenience entry; clustering runs globally, exactly
    /// as a single engine would, before the partitioned ingest).
    pub fn ingest_trajectories(&mut self, db: &TrajectoryDatabase) -> ShardedUpdate {
        let Some(domain) = db.time_domain() else {
            return ShardedUpdate::default();
        };
        self.ingest_trajectories_until(db, domain.end)
    }

    /// Like [`Self::ingest_trajectories`] but stops at timestamp `end`.
    pub fn ingest_trajectories_until(
        &mut self,
        db: &TrajectoryDatabase,
        end: Timestamp,
    ) -> ShardedUpdate {
        if let Some(domain) = self.cdb.time_domain() {
            self.clusterer.seek(domain.end + 1);
        }
        let batch = self.clusterer.advance_until(db, end);
        self.ingest_clusters(batch)
    }

    /// Ingests the next batch of (globally clustered) snapshot clusters:
    /// partitions it, feeds every shard in parallel, then runs the merge
    /// replay.  The batch must start exactly one tick after the data
    /// ingested so far.
    pub fn ingest_clusters(&mut self, batch: ClusterDatabase) -> ShardedUpdate {
        if batch.is_empty() {
            return ShardedUpdate::default();
        }
        let batch_domain = batch.time_domain().expect("non-empty batch");
        let before = self.counters;

        // Deferred retention, exactly like the single engine: what the
        // previous batch retired is evicted now, so records finalized then
        // stayed resolvable for any store mirroring `finalized_records`.
        if self.retention == RetentionPolicy::Bounded {
            self.evict_retired_clusters();
        }

        let prev_end = self.cdb.time_domain().map(|d| d.end);

        // 1. Boundary-candidate logs, seeded with each shard's current
        // frontier: the candidate sequences ending at the previous last tick
        // that a cross edge into the first new tick might need as prefixes.
        let shard_count = self.shards.len();
        let mut logs: Vec<Vec<(Timestamp, Vec<Crowd>)>> = vec![Vec::new(); shard_count];
        if let Some(pe) = prev_end {
            let layout = layout_at(&self.layouts, pe).expect("previous tick layout is retained");
            for (s, engine) in self.shards.iter().enumerate() {
                let kept: Vec<Crowd> = engine
                    .frontier()
                    .iter()
                    .map(|(c, _)| c)
                    .filter(|c| {
                        let gidx = layout.to_global[s][c.last().index];
                        layout.boundary.binary_search(&gidx).is_ok()
                    })
                    .cloned()
                    .collect();
                if !kept.is_empty() {
                    logs[s].push((pe, kept));
                }
            }
        }

        // 2. Partition the batch tick by tick: shard assignment, boundary
        // flags, the global↔local index maps and the per-shard sub-batches.
        let t0 = Instant::now();
        let delta = self.config.crowd.delta;
        let mut local_sets: Vec<Vec<SnapshotClusterSet>> =
            vec![Vec::with_capacity(batch.len()); shard_count];
        let mut boundary_bits: Vec<Vec<Vec<bool>>> =
            vec![Vec::with_capacity(batch.len()); shard_count];
        for set in batch.iter() {
            let layout = build_layout(set, &self.partitioner, delta, shard_count);
            let mut bits: Vec<Vec<bool>> = layout
                .to_global
                .iter()
                .map(|locals| vec![false; locals.len()])
                .collect();
            for &gidx in &layout.boundary {
                let s = layout.shard[gidx as usize] as usize;
                bits[s][layout.local[gidx as usize] as usize] = true;
            }
            for (s, tick_bits) in bits.into_iter().enumerate() {
                local_sets[s].push(SnapshotClusterSet {
                    time: set.time,
                    clusters: layout.to_global[s]
                        .iter()
                        .map(|&gidx| set.clusters[gidx as usize].clone())
                        .collect(),
                });
                boundary_bits[s].push(tick_bits);
            }
            self.layouts.push_back(layout);
        }
        let partition_nanos = t0.elapsed().as_nanos() as u64;
        self.counters.partition_nanos += partition_nanos;
        if gpdt_obs::enabled() {
            gpdt_obs::histogram!("shard.partition").record(partition_nanos);
        }

        match self.cdb.time_domain() {
            None => self.cdb = batch,
            Some(_) => self.cdb.append(batch),
        }
        self.counters.ticks += u64::from(batch_domain.len());

        // 3. Parallel shard ingestion, each shard logging its boundary
        // candidates per tick through the observer tap.  Workers own their
        // engine for the batch: a panicking or deadline-overrunning worker
        // is abandoned and its shard rebuilt from the retained snapshot plus
        // a replay of the batches since, so one bad worker cannot poison the
        // coordinator and the rebuilt shard is byte-identical.
        let t1 = Instant::now();
        let batch_start = batch_domain.start;
        if self.snapshots.is_none() {
            self.snapshots = Some(self.shards.clone());
            self.retained_batches.clear();
        }
        let (tx, rx) = mpsc::channel();
        // Without a deadline the coordinator blocks until every worker has
        // reported, so it works the largest sub-batch itself: the wake-up of
        // the other shards' threads passes while it is busy rather than while
        // it waits.  With a deadline every shard goes to a thread, because
        // only a thread can be abandoned.
        let inline = match self.supervision.worker_deadline {
            None => (0..shard_count).max_by_key(|&s| {
                local_sets[s]
                    .iter()
                    .map(|set| set.clusters.len())
                    .sum::<usize>()
            }),
            Some(_) => None,
        };
        let mut job = |s: usize, mut engine: GatheringEngine| {
            let sets = local_sets[s].clone();
            let bits = boundary_bits[s].clone();
            let fault = self.pending_faults[s].take();
            let tx = tx.clone();
            move || {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    ingest_with_boundary_log(&mut engine, sets, &bits, batch_start, fault)
                }));
                // The receiver hangs up once the deadline passes; a failed
                // send is exactly the abandoned-worker case.
                let _ = tx.send((s, outcome.ok().map(|log| (engine, log))));
            }
        };
        let mut own = None;
        for (s, engine) in self.shards.drain(..).enumerate() {
            if Some(s) == inline {
                own = Some(engine);
            } else {
                self.workers.run(s, Box::new(job(s, engine)));
            }
        }
        if let Some((s, engine)) = inline.zip(own) {
            job(s, engine)();
        }
        drop(tx);
        let mut results: Vec<Option<(GatheringEngine, Vec<(Timestamp, Vec<Crowd>)>)>> =
            (0..shard_count).map(|_| None).collect();
        let mut seen = vec![false; shard_count];
        let mut pending = shard_count;
        while pending > 0 {
            let message = match self.supervision.worker_deadline {
                None => rx.recv().ok(),
                Some(budget) => match budget.checked_sub(t1.elapsed()) {
                    None => None,
                    Some(left) => rx.recv_timeout(left).ok(),
                },
            };
            let Some((s, payload)) = message else { break };
            if seen[s] {
                continue;
            }
            seen[s] = true;
            pending -= 1;
            results[s] = payload;
        }
        drop(rx);
        for s in (0..shard_count).filter(|&s| !seen[s]) {
            self.workers.retire(s);
        }
        for (s, slot) in results.into_iter().enumerate() {
            match slot {
                Some((engine, log)) => {
                    self.shards.push(engine);
                    logs[s].extend(log);
                }
                None => {
                    // Panicked, stalled past the deadline, or never reported:
                    // rebuild from the snapshot, replay the retained batches,
                    // then run the current batch inline — with its boundary
                    // log, which the merge replay below still needs.
                    let snapshots = self.snapshots.as_ref().expect("snapshot taken above");
                    let mut engine = snapshots[s].clone();
                    for past in &self.retained_batches {
                        engine.ingest_clusters(ClusterDatabase::from_sets(past[s].clone()));
                    }
                    let log = ingest_with_boundary_log(
                        &mut engine,
                        local_sets[s].clone(),
                        &boundary_bits[s],
                        batch_start,
                        None,
                    );
                    self.shards.push(engine);
                    logs[s].extend(log);
                    self.restarts[s] += 1;
                    if gpdt_obs::enabled() {
                        gpdt_obs::counter!("shard.rebuilds").inc();
                        gpdt_obs::record_event(
                            "shard.rebuild",
                            Some(batch_start),
                            format!(
                                "shard {s} worker lost (panic/deadline); rebuilt from \
                                 snapshot + {} retained batches",
                                self.retained_batches.len()
                            ),
                        );
                    }
                }
            }
        }
        self.retained_batches.push(local_sets);
        if self.retained_batches.len() as u64 >= self.supervision.snapshot_interval.max(1) {
            self.snapshots = Some(self.shards.clone());
            self.retained_batches.clear();
        }
        let shard_nanos = t1.elapsed().as_nanos() as u64;
        self.counters.shard_nanos += shard_nanos;
        if gpdt_obs::enabled() {
            gpdt_obs::histogram!("shard.ingest").record(shard_nanos);
        }

        // 4. Merge replay: one sequential pass over the batch's ticks.
        let t2 = Instant::now();
        let mc = self.config.crowd.mc;
        let kc = self.config.crowd.kc;
        let cdb = &self.cdb;
        let layouts = &self.layouts;
        let cross_in = &mut self.cross_in;
        let cross_out = &mut self.cross_out;
        let counters = &mut self.counters;
        let mut merge = std::mem::take(&mut self.merge);
        let mut merge_closed: Vec<Crowd> = Vec::new();
        let mut scratch = SearcherScratch::new();
        let mut near: Vec<usize> = Vec::new();
        for t in batch_domain.iter() {
            let set = cdb.set_at(t).expect("batch tick was just appended");
            let layout = layout_at(layouts, t).expect("batch tick layout was just pushed");

            // The merge has work at this tick only if tainted paths are open
            // or a qualifying boundary tail at t-1 could start a cross edge;
            // otherwise skip the tick — and its global index build, the
            // dominant replay cost — entirely.
            let prev = t
                .checked_sub(1)
                .and_then(|pt| layout_at(layouts, pt).zip(cdb.set_at(pt)));
            let tails = prev.as_ref().map_or(0, |(pl, ps)| {
                pl.boundary
                    .iter()
                    .filter(|&&gidx| ps.clusters[gidx as usize].len() >= mc)
                    .count()
            });
            let boundary_work = tails > 0;
            if merge.is_empty() && !boundary_work {
                continue;
            }
            // Every strategy returns the same result set (a repo invariant,
            // exercised by the strategy-equivalence tests), so for a handful
            // of probes the early-exit scan beats paying a full per-tick
            // index build.  Re-measured after the grid rewrite (`e2e run
            // --workload sharded_stream --trace 1`, three runs each way):
            // always building the configured index costs 59–67 ms of merge
            // replay a pass against 52–63 ms with this fork (merge share
            // 0.26–0.27 against 0.23–0.25) — about a tenth, so it stays.
            let tick_strategy = if merge.len() + tails <= 16 {
                RangeSearchStrategy::BruteForce
            } else {
                self.strategy
            };
            let searcher = TickSearcher::build_with(tick_strategy, set, delta, &mut scratch);

            // 4a. Cross-shard edges between t-1 and t, splicing logged
            // prefixes onto each cross extension.  Only boundary clusters
            // can be incident to one (partitioner guarantee).
            let mut imports: Vec<Crowd> = Vec::new();
            if boundary_work {
                let prev_t = t - 1;
                let (prev_layout, prev_set) = prev.expect("boundary_work implies a previous tick");
                for &gidx in &prev_layout.boundary {
                    let tail = &prev_set.clusters[gidx as usize];
                    if tail.len() < mc {
                        continue;
                    }
                    let tail_shard = prev_layout.shard[gidx as usize];
                    searcher.search_into(tail, &mut near);
                    for &didx in &near {
                        if set.clusters[didx].len() < mc || layout.shard[didx] == tail_shard {
                            continue;
                        }
                        // A cross edge.  Its endpoints invalidate local
                        // seeds/closures; its traversals are re-derived
                        // here from the logged prefixes.
                        cross_out.insert(ClusterId::new(prev_t, gidx as usize));
                        cross_in.insert(ClusterId::new(t, didx));
                        counters.cross_edges += 1;
                        let local_tail = prev_layout.local[gidx as usize] as usize;
                        let Some((_, prefixes)) = logs[tail_shard as usize]
                            .iter()
                            .find(|(lt, _)| *lt == prev_t)
                        else {
                            continue;
                        };
                        for prefix in prefixes.iter().filter(|p| p.last().index == local_tail) {
                            let global = remap_crowd(layouts, prefix, tail_shard as usize);
                            // A spuriously seeded prefix is itself the
                            // suffix of tainted paths already tracked by
                            // the merge sweep — importing it would
                            // double-count.
                            if cross_in.contains(&global.cluster_ids()[0]) {
                                continue;
                            }
                            imports.push(global.extended(ClusterId::new(t, didx)));
                            counters.imported += 1;
                        }
                    }
                }
            }

            // 4b. Advance the tainted paths one tick against the *global*
            // cluster set — exactly the single engine's extension rule.
            let mut next_merge: Vec<Crowd> = Vec::with_capacity(merge.len() + imports.len());
            for path in merge.drain(..) {
                let last = cdb
                    .cluster(path.last())
                    .expect("merge paths stay within retained history");
                searcher.search_into(last, &mut near);
                near.retain(|&didx| set.clusters[didx].len() >= mc);
                match near.split_last() {
                    None => {
                        if path.lifetime() >= kc {
                            merge_closed.push(path);
                        }
                    }
                    Some((&last_idx, rest)) => {
                        for &didx in rest {
                            next_merge.push(path.extended(ClusterId::new(t, didx)));
                        }
                        next_merge.push(path.into_extended(ClusterId::new(t, last_idx)));
                    }
                }
            }
            next_merge.extend(imports);
            merge = next_merge;
        }
        self.merge = merge;
        // The replay loop above is the cost sharding *adds*; gathering
        // detection below is work a single engine performs anyway, so it is
        // excluded from the reported merge overhead.
        let merge_nanos = t2.elapsed().as_nanos() as u64;
        counters.merge_nanos += merge_nanos;
        if gpdt_obs::enabled() {
            gpdt_obs::histogram!("shard.merge").record(merge_nanos);
        }

        // Gathering detection for the merged crowds (no shard computed them),
        // fanned out across the thread budget.
        counters.merge_finalized += merge_closed.len() as u64;
        let config = &self.config;
        let variant = self.variant;
        let mut pending: Vec<CrowdRecord> = par_map(&merge_closed, self.threads, |crowd| {
            let gatherings = detect_closed_gatherings(crowd, cdb, &config.gathering, kc, variant);
            CrowdRecord {
                crowd: crowd.clone(),
                gatherings,
            }
        });

        // 5. Pull the shards' newly finalized records, dropping the ones a
        // cross edge invalidated (their corrected counterparts come out of
        // the merge sweep) and rewriting the rest to global ids.
        for s in 0..shard_count {
            let records = self.shards[s].finalized_records();
            for record in &records[self.consumed[s]..] {
                let crowd = remap_crowd(layouts, &record.crowd, s);
                let first = crowd.cluster_ids()[0];
                let last = *crowd.cluster_ids().last().expect("crowds are non-empty");
                if cross_in.contains(&first) || cross_out.contains(&last) {
                    counters.dropped += 1;
                    continue;
                }
                let gatherings = record
                    .gatherings
                    .iter()
                    .map(|g| {
                        Gathering::from_parts(
                            remap_crowd(layouts, g.crowd(), s),
                            g.participators().to_vec(),
                        )
                    })
                    .collect();
                pending.push(CrowdRecord { crowd, gatherings });
            }
            self.consumed[s] = records.len();
        }
        pending.sort_by(|a, b| canonical_crowd_order(&a.crowd, &b.crowd));
        let new_finalized = pending.len();
        self.finalized.extend(pending);

        ShardedUpdate {
            new_finalized,
            new_cross_edges: self.counters.cross_edges - before.cross_edges,
            new_imported_paths: self.counters.imported - before.imported,
            new_dropped_records: self.counters.dropped - before.dropped,
        }
    }

    /// All currently known closed crowds, in the canonical order — identical
    /// to a single engine's [`closed_crowds`](GatheringEngine::closed_crowds)
    /// over the same stream.
    pub fn closed_crowds(&self) -> Vec<Crowd> {
        let kc = self.config.crowd.kc;
        let mut crowds: Vec<Crowd> = self.finalized.iter().map(|r| r.crowd.clone()).collect();
        for (s, engine) in self.shards.iter().enumerate() {
            for (crowd, _) in engine.frontier() {
                if crowd.lifetime() < kc {
                    continue;
                }
                let global = remap_crowd(&self.layouts, crowd, s);
                if self.cross_in.contains(&global.cluster_ids()[0]) {
                    continue; // spurious local seed; the merge sweep owns it
                }
                crowds.push(global);
            }
        }
        crowds.extend(self.merge.iter().filter(|c| c.lifetime() >= kc).cloned());
        crowds.sort_by(canonical_crowd_order);
        crowds
    }

    /// All currently known closed gatherings, in the canonical order —
    /// identical to a single engine's
    /// [`gatherings`](GatheringEngine::gatherings) over the same stream.
    pub fn gatherings(&self) -> Vec<Gathering> {
        let kc = self.config.crowd.kc;
        let mut out: Vec<Gathering> = self
            .finalized
            .iter()
            .flat_map(|r| r.gatherings.iter().cloned())
            .collect();
        for (s, engine) in self.shards.iter().enumerate() {
            for (crowd, gatherings) in engine.frontier() {
                if crowd.lifetime() < kc {
                    continue;
                }
                let global = remap_crowd(&self.layouts, crowd, s);
                if self.cross_in.contains(&global.cluster_ids()[0]) {
                    continue;
                }
                out.extend(gatherings.iter().map(|g| {
                    Gathering::from_parts(
                        remap_crowd(&self.layouts, g.crowd(), s),
                        g.participators().to_vec(),
                    )
                }));
            }
        }
        for path in self.merge.iter().filter(|c| c.lifetime() >= kc) {
            out.extend(detect_closed_gatherings(
                path,
                &self.cdb,
                &self.config.gathering,
                kc,
                self.variant,
            ));
        }
        out.sort_by(canonical_gathering_order);
        out
    }

    /// Evicts every retained tick no future merge or remap step can touch:
    /// older than the trailing `kc` window, every shard-frontier start and
    /// every open merge path's start.  Returns the number of evicted ticks.
    ///
    /// Runs automatically (one ingest step deferred) under
    /// [`RetentionPolicy::Bounded`]; the shard engines evict their own
    /// databases with the same policy.
    pub fn evict_retired_clusters(&mut self) -> usize {
        let Some(domain) = self.cdb.time_domain() else {
            return 0;
        };
        let mut keep_from = (domain.end + 1).saturating_sub(self.config.crowd.kc);
        for engine in &self.shards {
            for (crowd, _) in engine.frontier() {
                keep_from = keep_from.min(crowd.start_time());
            }
        }
        for path in &self.merge {
            keep_from = keep_from.min(path.start_time());
        }
        let evicted = self.cdb.evict_before(keep_from);
        while self
            .layouts
            .front()
            .is_some_and(|layout| layout.time < keep_from)
        {
            self.layouts.pop_front();
        }
        self.cross_in.retain_from(keep_from);
        self.cross_out.retain_from(keep_from);
        evicted
    }

    /// Reassembles a sharded engine from externally persisted state (the
    /// restore half of the `gpdt-store` sharded checkpoint).
    ///
    /// The per-tick layouts are *not* part of the persisted state: the
    /// partitioner is deterministic in the cluster contents, so they are
    /// rebuilt by re-partitioning the stored global database — and
    /// cross-checked against the shard engines' own databases.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency between the parts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        config: GatheringConfig,
        strategy: RangeSearchStrategy,
        variant: TadVariant,
        partitioner: Partitioner,
        shard_engines: Vec<GatheringEngine>,
        cdb: ClusterDatabase,
        merge: Vec<Crowd>,
        cross_in: Vec<ClusterId>,
        cross_out: Vec<ClusterId>,
        finalized: Vec<CrowdRecord>,
    ) -> Result<Self, &'static str> {
        if shard_engines.is_empty() {
            return Err("a sharded engine needs at least one shard");
        }
        let shard_count = shard_engines.len();
        let domain = cdb.time_domain();
        let end = domain.map(|d| d.end);

        // Rebuild the per-tick layouts from the partitioner (the same
        // `build_layout` the live ingest uses, so a restored engine derives
        // byte-identical layouts).
        let delta = config.crowd.delta;
        let layouts: VecDeque<TickLayout> = cdb
            .iter()
            .map(|set| build_layout(set, &partitioner, delta, shard_count))
            .collect();

        // Cross-checks against the shard engines: every retained local tick
        // must hold exactly the clusters the partitioner assigns to that
        // shard, in layout order.  Count-only checking would let a
        // re-encoded checkpoint with swapped shard sections restore and then
        // remap local ids through the wrong `to_global` table.
        for (s, engine) in shard_engines.iter().enumerate() {
            if engine.time_domain().map(|d| d.end) != end {
                return Err("shard engine time domain disagrees with the global database");
            }
            let local = engine.cluster_database();
            for layout in &layouts {
                // A tick absent from the shard was evicted locally; nothing
                // to check there.
                let Some(set) = local.set_at(layout.time) else {
                    continue;
                };
                let global = cdb
                    .set_at(layout.time)
                    .expect("layouts mirror the database");
                if set.len() != layout.to_global[s].len()
                    || !layout.to_global[s]
                        .iter()
                        .zip(&set.clusters)
                        .all(|(&gidx, cluster)| global.clusters[gidx as usize] == *cluster)
                {
                    return Err("shard clusters disagree with the partitioner assignment");
                }
            }
        }
        for path in &merge {
            if Some(path.end_time()) != end {
                return Err("merge path does not end at the last ingested timestamp");
            }
            if path
                .cluster_ids()
                .iter()
                .any(|&id| cdb.cluster(id).is_none())
            {
                return Err("merge path references a cluster missing from the database");
            }
        }
        if cross_in.windows(2).any(|w| w[0] >= w[1]) || cross_out.windows(2).any(|w| w[0] >= w[1]) {
            return Err("cross-edge sets must be sorted and duplicate-free");
        }
        // Finalized records tolerate ticks evicted by bounded retention
        // (anything older than the retained window) but must otherwise
        // resolve — the same leniency the single-engine restore applies.
        let retained_ok = |crowd: &Crowd| {
            crowd
                .cluster_ids()
                .iter()
                .all(|&id| cdb.cluster(id).is_some() || domain.is_some_and(|d| id.time < d.start))
        };
        for record in &finalized {
            if !retained_ok(&record.crowd)
                || record.gatherings.iter().any(|g| !retained_ok(g.crowd()))
            {
                return Err("finalized record references a cluster missing from the database");
            }
        }

        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let per_shard = (threads / shard_count).max(1);
        let mut clusterer = StreamingClusterer::new(config.clustering).with_threads(threads);
        if let Some(d) = domain {
            clusterer.seek(d.end + 1);
        }
        let consumed = shard_engines
            .iter()
            .map(|e| e.finalized_records().len())
            .collect();
        Ok(ShardedEngine {
            config,
            strategy,
            variant,
            threads,
            retention: RetentionPolicy::KeepAll,
            partitioner,
            shards: shard_engines
                .into_iter()
                .map(|e| {
                    e.with_strategy(strategy)
                        .with_variant(variant)
                        .with_threads(per_shard)
                })
                .collect(),
            consumed,
            clusterer,
            cdb,
            layouts,
            cross_in: CrossSet { ids: cross_in },
            cross_out: CrossSet { ids: cross_out },
            merge,
            finalized,
            counters: Counters::default(),
            supervision: ShardSupervision::default(),
            snapshots: None,
            retained_batches: Vec::new(),
            restarts: vec![0; shard_count],
            pending_faults: vec![None; shard_count],
            workers: WorkerPool::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::GridPartitioner;
    use gpdt_core::{ClusteringParams, CrowdParams, GatheringParams};
    use gpdt_trajectory::{ObjectId, Trajectory};

    fn config() -> GatheringConfig {
        GatheringConfig::builder()
            .clustering(ClusteringParams::new(60.0, 3))
            .crowd(CrowdParams::new(3, 3, 120.0))
            .gathering(GatheringParams::new(3, 3))
            .build()
            .unwrap()
    }

    /// A blob of five objects drifting steadily along +x: with a small grid
    /// cell it crosses several cell (and shard) borders over its lifetime.
    fn drifting_db(ticks: u32) -> TrajectoryDatabase {
        TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
            Trajectory::from_points(
                ObjectId::new(i),
                (0..ticks)
                    .map(|t| (t, (f64::from(t) * 60.0 + f64::from(i) * 8.0, f64::from(i))))
                    .collect::<Vec<_>>(),
            )
        }))
    }

    fn outputs(engine: &ShardedEngine) -> (Vec<Crowd>, Vec<Gathering>) {
        (engine.closed_crowds(), engine.gatherings())
    }

    #[test]
    fn border_crossing_crowd_matches_single_engine() {
        let db = drifting_db(12);
        let mut single = GatheringEngine::new(config());
        single.ingest_trajectories(&db);
        let reference = (single.closed_crowds(), single.gatherings());
        assert!(!reference.0.is_empty(), "the drift must form a crowd");

        for shards in [1usize, 2, 4, 7] {
            // Cell side 150 with delta 120: the blob is boundary-adjacent
            // almost everywhere, exercising the merge hard.
            let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
            let mut sharded = ShardedEngine::new(config(), shards, partitioner);
            let update = sharded.ingest_trajectories(&db);
            assert_eq!(outputs(&sharded), reference, "{shards} shards");
            if shards > 1 {
                // The drift crosses cells; with >1 shard some crossing must
                // actually change shards for this layout... not guaranteed
                // for every hash layout, so only assert the bookkeeping is
                // consistent.
                let stats = sharded.stats();
                assert_eq!(stats.cross_edges, update.new_cross_edges);
            }
        }
    }

    #[test]
    fn sliced_ingest_matches_one_shot() {
        let db = drifting_db(14);
        let partitioner = Partitioner::Grid(GridPartitioner::new(200.0));
        let mut whole = ShardedEngine::new(config(), 3, partitioner);
        whole.ingest_trajectories(&db);

        let mut sliced = ShardedEngine::new(config(), 3, partitioner);
        for end in [2u32, 3, 7, 8, 13] {
            sliced.ingest_trajectories_until(&db, end);
        }
        assert_eq!(outputs(&sliced), outputs(&whole));
        assert_eq!(
            sliced.finalized_records().len(),
            whole.finalized_records().len()
        );
    }

    #[test]
    fn hash_partitioner_matches_single_engine() {
        let db = drifting_db(10);
        let mut single = GatheringEngine::new(config());
        single.ingest_trajectories(&db);

        let mut sharded = ShardedEngine::new(config(), 4, Partitioner::HashByObject);
        sharded.ingest_trajectories(&db);
        assert_eq!(sharded.closed_crowds(), single.closed_crowds());
        assert_eq!(sharded.gatherings(), single.gatherings());
    }

    #[test]
    fn bounded_retention_is_output_neutral_and_bounded() {
        // Gather-scatter cycles so the frontier resets and eviction can bite.
        let cycles = 8u32;
        let mut trajectories: Vec<(u32, Vec<(u32, (f64, f64))>)> =
            (0..5u32).map(|i| (i, Vec::new())).collect();
        for cycle in 0..cycles {
            for t in 0..7u32 {
                let tick = cycle * 7 + t;
                for (i, points) in trajectories.iter_mut() {
                    let x = if t < 4 {
                        f64::from(cycle) * 130.0 + f64::from(*i) * 9.0
                    } else {
                        f64::from(*i) * 50_000.0 + f64::from(tick) * 11.0
                    };
                    points.push((tick, (x, 0.0)));
                }
            }
        }
        let db = TrajectoryDatabase::from_trajectories(
            trajectories
                .into_iter()
                .map(|(i, pts)| Trajectory::from_points(ObjectId::new(i), pts)),
        );

        let partitioner = Partitioner::Grid(GridPartitioner::new(180.0));
        let mut keep_all = ShardedEngine::new(config(), 3, partitioner);
        let mut bounded =
            ShardedEngine::new(config(), 3, partitioner).with_retention(RetentionPolicy::Bounded);
        let domain = db.time_domain().unwrap();
        let mut max_resident = 0;
        for t in domain.iter() {
            keep_all.ingest_trajectories_until(&db, t);
            bounded.ingest_trajectories_until(&db, t);
            max_resident = max_resident.max(bounded.cluster_database().len());
        }
        assert_eq!(outputs(&bounded), outputs(&keep_all));
        assert_eq!(
            keep_all.cluster_database().len(),
            (7 * cycles) as usize,
            "keep-all retains the full stream"
        );
        assert!(
            max_resident <= 10,
            "bounded retention kept {max_resident} ticks resident"
        );
    }

    #[test]
    fn stats_track_shard_load() {
        let db = drifting_db(9);
        let mut sharded =
            ShardedEngine::new(config(), 2, Partitioner::Grid(GridPartitioner::new(150.0)));
        sharded.ingest_trajectories(&db);
        let stats = sharded.stats();
        assert_eq!(stats.shard_count, 2);
        assert_eq!(stats.ticks_ingested, 9);
        assert_eq!(stats.per_shard.len(), 2);
        let objects: usize = stats.per_shard.iter().map(|s| s.last_tick_objects).sum();
        assert_eq!(objects, 5, "every object is clustered on exactly one shard");
        assert_eq!(stats.finalized_records, sharded.finalized_records().len());
    }

    #[test]
    fn empty_ingest_is_a_no_op() {
        let mut sharded =
            ShardedEngine::new(config(), 2, Partitioner::Grid(GridPartitioner::new(100.0)));
        assert_eq!(
            sharded.ingest_clusters(ClusterDatabase::new()),
            ShardedUpdate::default()
        );
        assert!(sharded.time_domain().is_none());
        assert!(sharded.closed_crowds().is_empty());
        assert!(sharded.gatherings().is_empty());
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let db = drifting_db(10);
        let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
        let mut sharded = ShardedEngine::new(config(), 3, partitioner);
        sharded.ingest_trajectories_until(&db, 6);
        let reference_now = outputs(&sharded);

        // Disassemble through the public accessors, reassemble, compare —
        // then continue both and compare again.
        let rebuilt = ShardedEngine::from_parts(
            *sharded.config(),
            sharded.strategy(),
            sharded.variant(),
            *sharded.partitioner(),
            sharded
                .shard_engines()
                .iter()
                .map(|e| {
                    GatheringEngine::from_parts(
                        *e.config(),
                        e.strategy(),
                        e.variant(),
                        e.cluster_database().clone(),
                        e.finalized_records().to_vec(),
                        e.frontier().to_vec(),
                    )
                })
                .collect(),
            sharded.cluster_database().clone(),
            sharded.merge_frontier().to_vec(),
            sharded.cross_edge_heads().to_vec(),
            sharded.cross_edge_tails().to_vec(),
            sharded.finalized_records().to_vec(),
        )
        .expect("valid parts reassemble");
        assert_eq!(outputs(&rebuilt), reference_now);

        let mut rebuilt = rebuilt;
        rebuilt.ingest_trajectories(&db);
        sharded.ingest_trajectories(&db);
        assert_eq!(outputs(&rebuilt), outputs(&sharded));

        // A finalized record referencing a cluster absent from the (non-
        // evicted) database is rejected.
        let mut bogus = sharded.finalized_records().to_vec();
        if let Some(first) = bogus.first_mut() {
            first.crowd = Crowd::new(vec![ClusterId::new(first.crowd.start_time(), 999)]);
            let err = ShardedEngine::from_parts(
                *sharded.config(),
                sharded.strategy(),
                sharded.variant(),
                *sharded.partitioner(),
                sharded
                    .shard_engines()
                    .iter()
                    .map(|e| {
                        GatheringEngine::from_parts(
                            *e.config(),
                            e.strategy(),
                            e.variant(),
                            e.cluster_database().clone(),
                            e.finalized_records().to_vec(),
                            e.frontier().to_vec(),
                        )
                    })
                    .collect(),
                sharded.cluster_database().clone(),
                sharded.merge_frontier().to_vec(),
                sharded.cross_edge_heads().to_vec(),
                sharded.cross_edge_tails().to_vec(),
                bogus,
            )
            .unwrap_err();
            assert!(err.contains("finalized record"), "{err}");
        }

        // A merge path not ending at the domain end is rejected.
        let err = ShardedEngine::from_parts(
            *sharded.config(),
            sharded.strategy(),
            sharded.variant(),
            *sharded.partitioner(),
            vec![GatheringEngine::new(*sharded.config())],
            ClusterDatabase::new(),
            vec![Crowd::new(vec![ClusterId::new(3, 0)])],
            Vec::new(),
            Vec::new(),
            Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("merge path"));
    }

    #[test]
    fn panicking_shard_worker_is_rebuilt_byte_identically() {
        let db = drifting_db(14);
        let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
        let mut clean = ShardedEngine::new(config(), 3, partitioner);
        let mut faulty = ShardedEngine::new(config(), 3, partitioner);
        let domain = db.time_domain().unwrap();
        for (batch, end) in [3u32, 7, 10, domain.end].into_iter().enumerate() {
            if batch == 2 {
                faulty.inject_shard_fault(0, ShardFault::PanicOnce);
                faulty.inject_shard_fault(2, ShardFault::PanicOnce);
            }
            clean.ingest_trajectories_until(&db, end);
            faulty.ingest_trajectories_until(&db, end);
        }
        assert_eq!(outputs(&faulty), outputs(&clean));
        assert_eq!(faulty.finalized_records(), clean.finalized_records());
        assert_eq!(faulty.restarts(), &[1, 0, 1]);
        assert_eq!(clean.restarts(), &[0, 0, 0]);
        let stats = faulty.stats();
        assert_eq!(
            stats.per_shard.iter().map(|l| l.restarts).sum::<u64>(),
            2,
            "restart counts surface in the per-shard load report"
        );
    }

    #[test]
    fn stalled_shard_worker_is_abandoned_and_rebuilt() {
        let db = drifting_db(12);
        let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
        let mut clean = ShardedEngine::new(config(), 2, partitioner);
        clean.ingest_trajectories(&db);

        let supervision = ShardSupervision {
            worker_deadline: Some(Duration::from_millis(40)),
            snapshot_interval: 2,
        };
        let mut stalled =
            ShardedEngine::new(config(), 2, partitioner).with_supervision(supervision);
        let domain = db.time_domain().unwrap();
        let mut fired = false;
        for end in [2u32, 5, 8, domain.end] {
            if !fired {
                stalled.inject_shard_fault(1, ShardFault::StallOnce(Duration::from_secs(5)));
                fired = true;
            }
            stalled.ingest_trajectories_until(&db, end);
        }
        assert_eq!(outputs(&stalled), outputs(&clean));
        assert_eq!(stalled.restarts(), &[0, 1]);
    }

    #[test]
    fn snapshot_interval_refresh_keeps_rebuilds_exact() {
        // A tiny snapshot interval forces several snapshot refreshes across
        // the batches, and a late fault exercises the replay-from-refresh
        // path rather than replay-from-genesis.
        let db = drifting_db(16);
        let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
        let mut clean = ShardedEngine::new(config(), 3, partitioner);
        clean.ingest_trajectories(&db);

        let supervision = ShardSupervision {
            worker_deadline: None,
            snapshot_interval: 1,
        };
        let mut faulty = ShardedEngine::new(config(), 3, partitioner).with_supervision(supervision);
        let domain = db.time_domain().unwrap();
        let ends = [1u32, 3, 5, 7, 9, 11, 13, domain.end];
        for (batch, end) in ends.into_iter().enumerate() {
            if batch == 6 {
                faulty.inject_shard_fault(1, ShardFault::PanicOnce);
            }
            faulty.ingest_trajectories_until(&db, end);
        }
        assert_eq!(outputs(&faulty), outputs(&clean));
        assert_eq!(faulty.finalized_records(), clean.finalized_records());
        assert_eq!(faulty.restarts(), &[0, 1, 0]);
    }
}
