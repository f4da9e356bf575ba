//! The sharded discovery engine and its exact cross-shard merge.
//!
//! See the [crate docs](crate) for the correctness argument.  The data flow
//! per ingested batch:
//!
//! ```text
//!                        global cluster batch
//!                               │  Partitioner, per tick: shard, local index,
//!                               ▼  boundary flag of every cluster
//!          global ClusterDatabase + TickLayout ring     (the one copy of history)
//!                               │
//!          1. cross edges, before any shard runs: boundary(t-1) × boundary(t)
//!             pairs of different shards, both ≥ mc, MBR dmin ≤ δ, then dH ≤ δ
//!                    ┌──────────┴──────────┐
//!                    ▼                     ▼
//!              shard 0 sets    ...   shard N-1 sets       derived through the
//!              GatheringEngine       GatheringEngine      layouts; parked threads,
//!              (observer logs the    (observer logs the   one per shard
//!               candidates ending     candidates ending
//!               at a cross tail)      at a cross tail)
//!                    └──────────┬──────────┘
//!                               ▼
//!          2. merge replay (sequential; only ticks with an edge or an open path):
//!               splice the logged prefixes onto the edges,
//!               extend the tainted paths against the global tick
//!                               │
//!                               ▼
//!            finalized records = filtered shard output ∪ merged paths
//! ```
//!
//! A shard's cluster database is a view of the global one through the
//! layouts' `to_global` tables, so nothing else holds a copy of it: the
//! supervision snapshot and the `gpdt-store` checkpoint keep a
//! [`ShardState`] per shard and derive the shard's database again when they
//! need the engine back.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gpdt_clustering::{ClusterDatabase, ClusterId, StreamingClusterer};
use gpdt_core::par::{fan_out_threads, par_map};
use gpdt_core::{
    canonical_crowd_order, canonical_gathering_order, detect_closed_gatherings, Crowd, CrowdRecord,
    Gathering, GatheringConfig, GatheringEngine, RangeSearchStrategy, RetentionPolicy,
    SearcherScratch, TadVariant, TickSearcher,
};
use gpdt_trajectory::{TimeInterval, Timestamp, TrajectoryDatabase};

use crate::history::{cross_edges, records_resolve, resolves, History, ShardState, TickLayout};
use crate::partition::Partitioner;

/// The open merge paths probe a tick with the early-exit scan — an MBR test
/// per path and cluster, then the Hausdorff check — while that comes to no
/// more MBR tests than this; beyond it they build the configured index over
/// the tick once and share it.  Measured (`micro`, group
/// `shard_merge_advance`, clusters × paths, scan / GRID index): 200 × 16
/// 10 / 58 µs, 200 × 200 123 / 157 µs, 2 000 × 200 862 / 837 µs,
/// 2 000 × 2 000 8.9 / 2.4 ms — the scan costs about 2 ns a test, the index
/// about 0.3 µs a cluster to build and under 1 µs a path to ask, so they
/// break even near 400 000 tests on a large tick and later on a small one.
const SCAN_MAX_MERGE_TESTS: usize = 1 << 19;

/// The most shards an engine runs — each has a thread of its own and a row
/// in every tick's layout — and so the most a checkpoint can claim.
pub const MAX_SHARDS: usize = 1 << 10;

/// Per tick (where there are any), the candidates a shard logged at its cross
/// tails.
type TailLog = Vec<(Timestamp, Vec<Crowd>)>;

/// The candidates whose last cluster is one of `tails` (ascending local
/// indices).
fn ending_at<'a>(tails: &[u32], candidates: impl IntoIterator<Item = &'a Crowd>) -> Vec<Crowd> {
    let at_tail = |c: &&Crowd| tails.binary_search(&(c.last().index as u32)).is_ok();
    candidates.into_iter().filter(at_tail).cloned().collect()
}

/// Ingests one shard's batch into its engine, logging per tick the
/// candidates that end at a cross tail — the prefixes the merge replay
/// splices onto that tail's cross edges.  `tails[i]` holds the ascending
/// local indices of the cross tails at tick `first_tail_tick + i`.  The one
/// ingest body both the parallel workers and the supervisor's rebuild path
/// run, so a rebuilt shard is byte-identical to an undisturbed one.
///
/// `fault`, if armed, fires at the first observer callback — mid-ingest by
/// design, leaving the engine half-mutated for the supervisor to discard.
fn ingest_logging_cross_tails(
    engine: &mut GatheringEngine,
    batch: ClusterDatabase,
    tails: &[Vec<u32>],
    first_tail_tick: Timestamp,
    fault: Option<ShardFault>,
) -> TailLog {
    let mut log = TailLog::new();
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
        let tick_tails = &tails[(t - first_tail_tick) as usize];
        if !tick_tails.is_empty() {
            log.push((t, ending_at(tick_tails, candidates)));
        }
    };
    engine.ingest_clusters_observed(batch, Some(&mut observer));
    log
}

/// The first tick a shard's database is derived from, given the first the
/// global one retains: a shard evicts at its next ingest what the coordinator
/// has evicted already, so until then it may reach back past the history it
/// would be derived from — and never needs to, its frontier starts later.
fn first_derived_tick(
    engine: &GatheringEngine,
    retained_from: Option<Timestamp>,
) -> Option<Timestamp> {
    engine.time_domain().map(|d| d.start).max(retained_from)
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

/// Snapshots of the shard states are refreshed after this many batches; a
/// rebuilt shard replays the batches since the last snapshot out of the
/// global database, at most this many.  (Bounded retention also refreshes
/// them whenever it evicts a tick a snapshot starts at.)
const SNAPSHOT_INTERVAL: usize = 16;

/// A fault injected into one shard's next ingest worker (chaos testing —
/// see [`ShardedEngine::inject_shard_fault`]).  Fires mid-ingest, at the
/// worker's first per-tick observer callback, so the abandoned engine is
/// genuinely half-mutated when the supervisor rebuilds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Panic once inside the worker.
    PanicOnce,
    /// Stall the worker for this long before continuing normally (pair with
    /// a shorter [`ShardedEngine::with_worker_deadline`] to exercise the
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
    /// Boundary-adjacent clusters the partitioner flagged.
    pub boundary_clusters: u64,
    /// Boundary pairs of different shards (both ≥ `mc`) the cross-edge sweep
    /// put to the MBR test.
    pub merge_pairs_tested: u64,
    /// Of those, pairs the MBR bound let through to the Hausdorff check.
    pub merge_hausdorff_tests: u64,
    /// Ticks the merge replay built a range-search index over.
    pub merge_index_builds: u64,
    /// Candidate prefixes the shards logged for the merge replay.
    pub prefixes_logged: u64,
    /// Nanoseconds spent partitioning batches.
    pub partition_nanos: u64,
    /// Nanoseconds spent in parallel shard ingestion (wall clock).
    pub shard_ingest_nanos: u64,
    /// Nanoseconds of that spent refreshing the supervisor's snapshots.
    pub snapshot_nanos: u64,
    /// Nanoseconds spent in the sequential cross-edge scan and merge replay
    /// — the overhead a sharded deployment pays on top of the per-shard
    /// sweeps.
    pub merge_nanos: u64,
    /// Per-shard load.
    pub per_shard: Vec<ShardLoad>,
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
    clusterer: StreamingClusterer,
    history: History,
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
    /// The cumulative fields of [`ShardedStats`]; [`Self::stats`] adds the
    /// instantaneous ones.
    counters: ShardedStats,
    /// Wall-clock budget for one batch's parallel shard ingestion (see
    /// [`Self::with_worker_deadline`]); `None` waits indefinitely.
    worker_deadline: Option<Duration>,
    /// Per-shard state as of the last snapshot point (construction, restore
    /// or refresh): what a lost shard is rebuilt from.
    snapshots: Vec<ShardState>,
    /// Time domains of the batches ingested since the last snapshot — what a
    /// rebuilt shard replays, out of the global database.
    retained_batches: Vec<TimeInterval>,
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
    /// Panics if `shard_count` is zero or above [`MAX_SHARDS`].
    pub fn new(config: GatheringConfig, shard_count: usize, partitioner: Partitioner) -> Self {
        let no_history = Self::from_parts(
            config,
            RangeSearchStrategy::default(),
            TadVariant::default(),
            partitioner,
            vec![ShardState::default(); shard_count],
            ClusterDatabase::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        no_history.unwrap_or_else(|reason| panic!("{reason}"))
    }

    fn map_shards(mut self, f: impl Fn(GatheringEngine) -> GatheringEngine) -> Self {
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(f)
            .collect();
        self
    }

    /// Overrides the range-search strategy (propagated to every shard).
    pub fn with_strategy(mut self, strategy: RangeSearchStrategy) -> Self {
        self.strategy = strategy;
        self.map_shards(|e| e.with_strategy(strategy))
    }

    /// Overrides the gathering-detection variant (propagated to every shard).
    pub fn with_variant(mut self, variant: TadVariant) -> Self {
        self.variant = variant;
        self.map_shards(|e| e.with_variant(variant))
    }

    /// Overrides the total worker-thread budget; each shard engine gets an
    /// equal slice (at least one).  Never changes results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.clusterer = self.clusterer.clone().with_threads(self.threads);
        let per_shard = self.threads_per_shard();
        self.map_shards(|e| e.with_threads(per_shard))
    }

    fn threads_per_shard(&self) -> usize {
        // Counted off the snapshots: the engines are out with their workers
        // when a rebuild asks.
        (self.threads / self.snapshots.len()).max(1)
    }

    /// Overrides the retention policy, on the global database and every
    /// shard alike (see
    /// [`RetentionPolicy`]).  Never changes discovery output.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self.map_shards(|e| e.with_retention(retention))
    }

    /// Sets a wall-clock budget for one batch's parallel shard ingestion.
    /// A worker that has not reported back when it expires is abandoned and
    /// its shard rebuilt from the retained snapshot.  Without one (the
    /// default) the coordinator waits indefinitely, so it ingests one shard
    /// itself instead of idling; panics are caught and recovered either
    /// way.  Like the thread budget, a host choice: it never changes results.
    pub fn with_worker_deadline(mut self, deadline: Duration) -> Self {
        self.worker_deadline = Some(deadline);
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
        &self.history.cdb
    }

    /// The time interval ingested so far, or `None` before the first batch.
    pub fn time_domain(&self) -> Option<TimeInterval> {
        self.history.cdb.time_domain()
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
        let load = |(s, engine): (usize, &GatheringEngine)| {
            let cdb = engine.cluster_database();
            let last_set = cdb.time_domain().and_then(|d| cdb.set_at(d.end));
            ShardLoad {
                resident_ticks: cdb.len(),
                resident_clusters: cdb.total_clusters(),
                open_sequences: engine.frontier().len(),
                finalized_records: engine.finalized_records().len(),
                last_tick_objects: last_set
                    .map_or(0, |set| set.clusters.iter().map(|c| c.len()).sum()),
                restarts: self.restarts[s],
            }
        };
        ShardedStats {
            shard_count: self.shards.len(),
            finalized_records: self.finalized.len(),
            open_merge_paths: self.merge.len(),
            per_shard: self.shards.iter().enumerate().map(load).collect(),
            ..self.counters.clone()
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
        if let Some(domain) = self.time_domain() {
            self.clusterer.seek_past(domain.end);
        }
        let batch = self.clusterer.advance_until(db, end);
        self.ingest_clusters(batch)
    }

    /// Every shard's [`ShardState`] as it stands: with the global
    /// [`cluster database`](Self::cluster_database), all there is to
    /// checkpoint of the shards.
    pub fn shard_states(&self) -> Vec<ShardState> {
        let mut states = Vec::new();
        self.top_up_shard_states(&mut states);
        states
    }

    /// Brings `states` — one per shard, as an earlier call for this engine
    /// left them, or empty — up to the shards' engines: first tick and tick
    /// count are noted, the frontier is replaced, the finalized records —
    /// append-only — are topped up.  Costs what the shards finalized and hold
    /// open since `states` was last brought up, not what they retain.
    fn top_up_shard_states(&self, states: &mut Vec<ShardState>) {
        states.resize_with(self.shards.len(), ShardState::default);
        let retained_from = self.time_domain().map(|d| d.start);
        for (state, engine) in states.iter_mut().zip(&self.shards) {
            state.first_tick = first_derived_tick(engine, retained_from);
            state.ticks_ingested = engine.ticks_ingested();
            let kept = state.finalized.len();
            state
                .finalized
                .extend_from_slice(&engine.finalized_records()[kept..]);
            state.frontier.clear();
            state.frontier.extend_from_slice(engine.frontier());
        }
    }

    /// Brings every shard's snapshot up to its engine.
    fn refresh_snapshots(&mut self) {
        let t0 = Instant::now();
        let mut snapshots = std::mem::take(&mut self.snapshots);
        self.top_up_shard_states(&mut snapshots);
        self.snapshots = snapshots;
        self.retained_batches.clear();
        self.counters.snapshot_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Shard `s` as it stood before the batch starting at `batch_start`: its
    /// snapshot over its derived database, then the batches since replayed.
    fn rebuild_shard(&self, s: usize, batch_start: Timestamp) -> GatheringEngine {
        let replayed = self.retained_batches.first();
        let snapshot_end = replayed.map_or(batch_start, |d| d.start).checked_sub(1);
        let snapshot = self.snapshots[s].clone();
        let restored = self.history.restore_shard(
            s,
            snapshot,
            snapshot_end,
            self.config,
            self.strategy,
            self.variant,
        );
        let mut engine = restored
            .expect("a snapshot fits the history it was taken over")
            .with_threads(self.threads_per_shard())
            .with_retention(self.retention);
        for past in &self.retained_batches {
            engine.ingest_clusters(self.history.shard_database(s, *past));
        }
        engine
    }

    /// Ingests the next batch of (globally clustered) snapshot clusters:
    /// partitions it, finds its cross-shard edges, feeds every shard in
    /// parallel, then runs the merge replay.
    ///
    /// # Panics
    ///
    /// Panics — before anything is changed — if the batch does not start
    /// exactly one tick after the data ingested so far.
    pub fn ingest_clusters(&mut self, batch: ClusterDatabase) -> ShardedUpdate {
        let Some(batch_domain) = batch.time_domain() else {
            return ShardedUpdate::default();
        };
        let prev_end = self.time_domain().map(|d| d.end);
        assert!(
            prev_end.is_none_or(|end| end.checked_add(1) == Some(batch_domain.start)),
            "a batch must start right after the ingested time domain"
        );
        let before = self.counters.clone();
        let batch_start = batch_domain.start;
        let batch_len = batch_domain.len() as usize;
        let shard_count = self.shards.len();

        // Deferred retention, exactly like the single engine: what the
        // previous batch retired is evicted now, so records finalized then
        // stayed resolvable for any store mirroring `finalized_records`.
        if self.retention == RetentionPolicy::Bounded {
            self.evict_retired_clusters();
        }

        // 1. Partition the batch tick by tick — shard assignment, boundary
        // flags, the global↔local index maps — and append it to the global
        // database; each shard's sub-batch is a view of that.
        let t0 = Instant::now();
        let delta = self.config.crowd.delta;
        for set in batch.iter() {
            let layout = TickLayout::build(set, &self.partitioner, delta, shard_count);
            self.counters.boundary_clusters += layout.boundary.len() as u64;
            self.history.layouts.push_back(layout);
        }
        match prev_end {
            None => self.history.cdb = batch,
            Some(_) => self.history.cdb.append(batch),
        }
        self.counters.ticks_ingested += batch_len as u64;
        let mut inputs: Vec<Option<ClusterDatabase>> = (0..shard_count)
            .map(|s| Some(self.history.shard_database(s, batch_domain)))
            .collect();
        let partition_nanos = t0.elapsed().as_nanos() as u64;
        self.counters.partition_nanos += partition_nanos;

        // 2. The batch's cross-shard edges, tick by tick, before any shard
        // runs: `edges[i]` lead into tick `batch_start + i`, and
        // `tails[s][i]` are shard `s`'s local indices of their tails (one
        // tick earlier; ascending, as the boundary lists are).  Their
        // endpoints invalidate local seeds and closures; their traversals
        // are re-derived by the replay from the prefixes logged at the tails.
        let t1 = Instant::now();
        let mc = self.config.crowd.mc;
        let mut edges: Vec<Vec<(u32, u32)>> = Vec::with_capacity(batch_len);
        let mut tails: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); batch_len + 1]; shard_count];
        for (i, t) in batch_domain.iter().enumerate() {
            let head = self.history.tick(t).expect("batch tick was just appended");
            let Some(tail) = t.checked_sub(1).and_then(|t| self.history.tick(t)) else {
                edges.push(Vec::new());
                continue;
            };
            let found = cross_edges(tail, head, mc, delta);
            self.counters.merge_pairs_tested += found.pairs_tested;
            self.counters.merge_hausdorff_tests += found.hausdorff_tests;
            for &(g, d) in &found.edges {
                self.cross_out.insert(ClusterId::new(t - 1, g as usize));
                self.cross_in.insert(ClusterId::new(t, d as usize));
                let tick_tails = &mut tails[tail.0.shard[g as usize] as usize][i];
                let local = tail.0.local[g as usize];
                if tick_tails.last() != Some(&local) {
                    tick_tails.push(local);
                }
            }
            self.counters.cross_edges += found.edges.len() as u64;
            edges.push(found.edges);
        }
        // The prefixes at the previous last tick come off the shards'
        // frontiers: the candidates ending at a tail of the first new tick's
        // edges.
        let mut logs: Vec<TailLog> = vec![Vec::new(); shard_count];
        for (s, engine) in self.shards.iter().enumerate() {
            if let Some(end) = prev_end.filter(|_| !tails[s][0].is_empty()) {
                let candidates = engine.frontier().iter().map(|(c, _)| c);
                logs[s].push((end, ending_at(&tails[s][0], candidates)));
            }
        }
        let edge_nanos = t1.elapsed().as_nanos() as u64;

        // 3. Parallel shard ingestion, each shard logging the candidates at
        // its cross tails through the observer tap.  Workers own their
        // engine for the batch: a panicking or deadline-overrunning worker
        // is abandoned and its shard rebuilt from the retained snapshot plus
        // a replay of the batches since, so one bad worker cannot poison the
        // coordinator and the rebuilt shard is byte-identical.
        let t2 = Instant::now();
        let consumed: Vec<usize> = self
            .shards
            .iter()
            .map(|e| e.finalized_records().len())
            .collect();
        let (tx, rx) = mpsc::channel();
        // Without a deadline the coordinator blocks until every worker has
        // reported, so it works the largest sub-batch itself: the wake-up of
        // the other shards' threads passes while it is busy rather than while
        // it waits.  With a deadline every shard goes to a thread, because
        // only a thread can be abandoned.
        let deadline = self.worker_deadline;
        let size = |s: &usize| {
            inputs[*s]
                .as_ref()
                .map_or(0, ClusterDatabase::total_clusters)
        };
        let inline = (0..shard_count)
            .max_by_key(size)
            .filter(|_| deadline.is_none());
        let mut job = |s: usize, mut engine: GatheringEngine| {
            let input = inputs[s].take().expect("one job per shard");
            let tails = tails[s][1..].to_vec();
            let fault = self.pending_faults[s].take();
            let tx = tx.clone();
            move || {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    ingest_logging_cross_tails(&mut engine, input, &tails, batch_start, fault)
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
        // Per shard: nothing heard yet, or what its worker reported — its
        // engine and log, or that it panicked.
        let mut reports: Vec<Option<Option<(GatheringEngine, TailLog)>>> =
            (0..shard_count).map(|_| None).collect();
        while reports.iter().any(Option::is_none) {
            let message = match deadline.map(|budget| budget.checked_sub(t2.elapsed())) {
                None => rx.recv().ok(),
                Some(left) => left.and_then(|left| rx.recv_timeout(left).ok()),
            };
            let Some((s, report)) = message else { break };
            reports[s].get_or_insert(report);
        }
        drop(rx);
        for (s, report) in reports.into_iter().enumerate() {
            if report.is_none() {
                self.workers.retire(s);
            }
            let (engine, log) = report.flatten().unwrap_or_else(|| {
                // Panicked, stalled past the deadline, or never reported:
                // rebuild, then run the current batch inline — with its
                // cross-tail log, which the merge replay still needs.
                let mut engine = self.rebuild_shard(s, batch_start);
                let input = self.history.shard_database(s, batch_domain);
                let tails = &tails[s][1..];
                let log = ingest_logging_cross_tails(&mut engine, input, tails, batch_start, None);
                self.restarts[s] += 1;
                if gpdt_obs::enabled() {
                    gpdt_obs::counter!("shard.rebuilds").inc();
                    gpdt_obs::health::note_shard_restarts(&self.restarts);
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
                (engine, log)
            });
            self.shards.push(engine);
            logs[s].extend(log);
        }
        self.retained_batches.push(batch_domain);
        if self.retained_batches.len() >= SNAPSHOT_INTERVAL {
            self.refresh_snapshots();
        }
        let logged = logs.iter().flatten().map(|(_, prefixes)| prefixes.len());
        self.counters.prefixes_logged += logged.sum::<usize>() as u64;
        let shard_nanos = t2.elapsed().as_nanos() as u64;
        self.counters.shard_ingest_nanos += shard_nanos;

        // 4. Merge replay: one sequential pass over the batch's ticks that
        // have an edge leading in or a tainted path open.
        let t3 = Instant::now();
        let kc = self.config.crowd.kc;
        let history = &self.history;
        let cross_in = &self.cross_in;
        let counters = &mut self.counters;
        let mut merge = std::mem::take(&mut self.merge);
        let mut merge_closed: Vec<Crowd> = Vec::new();
        let mut scratch = SearcherScratch::new();
        let mut near: Vec<usize> = Vec::new();
        for (t, found) in batch_domain.iter().zip(&edges) {
            if merge.is_empty() && found.is_empty() {
                continue;
            }
            let (_, set) = history.tick(t).expect("batch tick was just appended");

            // 4a. Splice the logged prefixes onto each cross edge.
            let mut imports: Vec<Crowd> = Vec::new();
            for &(g, d) in found {
                let (tail_layout, _) = history.tick(t - 1).expect("edge tail tick");
                let tail_shard = tail_layout.shard[g as usize] as usize;
                let local_tail = tail_layout.local[g as usize] as usize;
                let logged = logs[tail_shard].iter().find(|(lt, _)| *lt == t - 1);
                let prefixes = logged.map_or(&[][..], |(_, prefixes)| prefixes.as_slice());
                for prefix in prefixes.iter().filter(|p| p.last().index == local_tail) {
                    let global = history.remap(prefix, tail_shard);
                    // A spuriously seeded prefix is itself the suffix of
                    // tainted paths already tracked by the merge sweep —
                    // importing it would double-count.
                    if !cross_in.contains(&global.cluster_ids()[0]) {
                        imports.push(global.into_extended(ClusterId::new(t, d as usize)));
                        counters.imported_paths += 1;
                    }
                }
            }

            // 4b. Advance the tainted paths one tick against the *global*
            // cluster set — exactly the single engine's extension rule,
            // whichever strategy answers it (every strategy returns the same
            // result set: a repo invariant the equivalence tests exercise).
            let tick_strategy = if merge.len() * set.clusters.len() <= SCAN_MAX_MERGE_TESTS {
                RangeSearchStrategy::BruteForce
            } else {
                self.strategy
            };
            counters.merge_index_builds +=
                u64::from(tick_strategy != RangeSearchStrategy::BruteForce);
            let searcher = TickSearcher::build_with(tick_strategy, set, delta, &mut scratch);
            let mut next_merge: Vec<Crowd> = Vec::with_capacity(merge.len() + imports.len());
            for path in merge.drain(..) {
                let last = history.cdb.cluster(path.last());
                let last = last.expect("merge paths stay within retained history");
                searcher.search_into(last, &mut near);
                near.retain(|&didx| set.clusters[didx].len() >= mc);
                match near.split_last() {
                    None if path.lifetime() >= kc => merge_closed.push(path),
                    None => {}
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
        // The edge scan and the replay loop are the cost sharding *adds*;
        // gathering detection below is work a single engine performs anyway,
        // so it is excluded from the reported merge overhead.
        let merge_nanos = edge_nanos + t3.elapsed().as_nanos() as u64;
        counters.merge_nanos += merge_nanos;

        // Gathering detection for the merged crowds (no shard computed them),
        // fanned out across the thread budget by the engine's own rule: a
        // batch's few merged crowds stay on this thread.
        counters.merge_finalized += merge_closed.len() as u64;
        let (gathering, variant) = (&self.config.gathering, self.variant);
        let clusters_to_visit: usize = merge_closed.iter().map(Crowd::len).sum();
        let threads = fan_out_threads(clusters_to_visit, self.threads);
        let mut pending: Vec<CrowdRecord> = par_map(&merge_closed, threads, |crowd| {
            let gatherings = detect_closed_gatherings(crowd, &history.cdb, gathering, kc, variant);
            CrowdRecord {
                crowd: crowd.clone(),
                gatherings,
            }
        });

        // 5. Pull the shards' newly finalized records, dropping the ones a
        // cross edge invalidated (their corrected counterparts come out of
        // the merge sweep) and rewriting the rest to global ids.
        for (s, engine) in self.shards.iter().enumerate() {
            for record in &engine.finalized_records()[consumed[s]..] {
                let crowd = history.remap(&record.crowd, s);
                if cross_in.contains(&crowd.cluster_ids()[0])
                    || self.cross_out.contains(&crowd.last())
                {
                    counters.dropped_records += 1;
                    continue;
                }
                let gatherings = record.gatherings.iter();
                let gatherings = gatherings.map(|g| history.remap_gathering(g, s)).collect();
                pending.push(CrowdRecord { crowd, gatherings });
            }
        }
        pending.sort_by(|a, b| canonical_crowd_order(&a.crowd, &b.crowd));
        let new_finalized = pending.len();
        self.finalized.extend(pending);

        let now = &self.counters;
        if gpdt_obs::enabled() {
            gpdt_obs::histogram!("shard.partition").record(partition_nanos);
            gpdt_obs::histogram!("shard.ingest").record(shard_nanos);
            gpdt_obs::histogram!("shard.merge").record(merge_nanos);
            gpdt_obs::counter!("shard.boundary.clusters")
                .add(now.boundary_clusters - before.boundary_clusters);
            gpdt_obs::counter!("shard.merge.pairs_tested")
                .add(now.merge_pairs_tested - before.merge_pairs_tested);
            gpdt_obs::counter!("shard.merge.hausdorff_tests")
                .add(now.merge_hausdorff_tests - before.merge_hausdorff_tests);
            gpdt_obs::counter!("shard.merge.index_builds")
                .add(now.merge_index_builds - before.merge_index_builds);
            gpdt_obs::counter!("shard.prefixes.logged")
                .add(now.prefixes_logged - before.prefixes_logged);
        }
        ShardedUpdate {
            new_finalized,
            new_cross_edges: now.cross_edges - before.cross_edges,
            new_imported_paths: now.imported_paths - before.imported_paths,
            new_dropped_records: now.dropped_records - before.dropped_records,
        }
    }

    /// The shards' frontier crowds that are closed as the data stands, with
    /// their cached gatherings and their shard — less the spurious local
    /// seeds, which the merge sweep owns.
    fn closed_frontier(&self) -> impl Iterator<Item = (usize, Crowd, &[Gathering])> {
        let entries = self.shards.iter().enumerate();
        let entries = entries.flat_map(|(s, engine)| engine.frontier().iter().map(move |e| (s, e)));
        entries
            .filter(|(_, (crowd, _))| crowd.lifetime() >= self.config.crowd.kc)
            .map(|(s, (crowd, gatherings))| {
                (s, self.history.remap(crowd, s), gatherings.as_slice())
            })
            .filter(|(_, global, _)| !self.cross_in.contains(&global.cluster_ids()[0]))
    }

    /// All currently known closed crowds, in the canonical order — identical
    /// to a single engine's [`closed_crowds`](GatheringEngine::closed_crowds)
    /// over the same stream.
    pub fn closed_crowds(&self) -> Vec<Crowd> {
        let kc = self.config.crowd.kc;
        let mut crowds: Vec<Crowd> = self.finalized.iter().map(|r| r.crowd.clone()).collect();
        crowds.extend(self.closed_frontier().map(|(_, global, _)| global));
        crowds.extend(self.merge.iter().filter(|c| c.lifetime() >= kc).cloned());
        crowds.sort_by(canonical_crowd_order);
        crowds
    }

    /// All currently known closed gatherings, in the canonical order —
    /// identical to a single engine's
    /// [`gatherings`](GatheringEngine::gatherings) over the same stream.
    pub fn gatherings(&self) -> Vec<Gathering> {
        let kc = self.config.crowd.kc;
        let finalized = self.finalized.iter().flat_map(|r| &r.gatherings);
        let mut out: Vec<Gathering> = finalized.cloned().collect();
        for (s, _, gatherings) in self.closed_frontier() {
            out.extend(
                gatherings
                    .iter()
                    .map(|g| self.history.remap_gathering(g, s)),
            );
        }
        for path in self.merge.iter().filter(|c| c.lifetime() >= kc) {
            out.extend(detect_closed_gatherings(
                path,
                &self.history.cdb,
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
    /// databases with the same policy, at their next ingest.  Safe to call by
    /// hand at any time, before a checkpoint say: snapshots and
    /// [`Self::shard_states`] start a shard no earlier than the global
    /// database does.
    pub fn evict_retired_clusters(&mut self) -> usize {
        let Some(domain) = self.time_domain() else {
            return 0;
        };
        let frontiers = self.shards.iter().flat_map(|e| e.frontier());
        let open = frontiers.map(|(crowd, _)| crowd).chain(&self.merge);
        let horizon = domain.end.saturating_sub(self.config.crowd.kc - 1);
        let keep_from = open.map(Crowd::start_time).fold(horizon, Timestamp::min);
        let evicted = self.history.cdb.evict_before(keep_from);
        self.history.layouts.drain(..evicted);
        self.cross_in.retain_from(keep_from);
        self.cross_out.retain_from(keep_from);
        // A snapshot that starts at an evicted tick could no longer be
        // rebuilt from, so it is brought up to date instead.
        if self
            .snapshots
            .iter()
            .any(|s| s.first_tick < Some(keep_from))
        {
            self.refresh_snapshots();
        }
        evicted
    }

    /// Reassembles a sharded engine from externally persisted state (the
    /// restore half of the `gpdt-store` sharded checkpoint).
    ///
    /// Neither the per-tick layouts nor the shards' cluster databases are
    /// part of the persisted state: the partitioner is deterministic in the
    /// cluster contents, so the layouts are rebuilt by re-partitioning the
    /// stored global database and each shard's database is derived through
    /// them from its `first_tick` on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency between the parts.
    pub fn from_parts(
        config: GatheringConfig,
        strategy: RangeSearchStrategy,
        variant: TadVariant,
        partitioner: Partitioner,
        shard_states: Vec<ShardState>,
        cdb: ClusterDatabase,
        merge: Vec<Crowd>,
        cross_in: Vec<ClusterId>,
        cross_out: Vec<ClusterId>,
        finalized: Vec<CrowdRecord>,
    ) -> Result<Self, &'static str> {
        if shard_states.is_empty() || shard_states.len() > MAX_SHARDS {
            return Err("a sharded engine has between one and MAX_SHARDS shards");
        }
        let shard_count = shard_states.len();
        let domain = cdb.time_domain();
        // The same `TickLayout::build` the live ingest uses, so a restored
        // engine derives byte-identical layouts.
        let layout = |set| TickLayout::build(set, &partitioner, config.crowd.delta, shard_count);
        let layouts = cdb.iter().map(layout).collect();
        let history = History { cdb, layouts };
        let last = domain.map(|d| d.end);
        let restore = |(s, state): (usize, &ShardState)| {
            history.restore_shard(s, state.clone(), last, config, strategy, variant)
        };
        let shards: Vec<GatheringEngine> = shard_states
            .iter()
            .enumerate()
            .map(restore)
            .collect::<Result<_, _>>()?;

        if merge.iter().any(|path| Some(path.end_time()) != last) {
            return Err("merge path does not end at the last ingested timestamp");
        }
        if merge.iter().any(|path| !resolves(&history.cdb, path, None)) {
            return Err("merge path references a cluster missing from the database");
        }
        if cross_in.windows(2).any(|w| w[0] >= w[1]) || cross_out.windows(2).any(|w| w[0] >= w[1]) {
            return Err("cross-edge sets must be sorted and duplicate-free");
        }
        if !records_resolve(&history.cdb, &finalized, domain.map(|d| d.start)) {
            return Err("finalized record references a cluster missing from the database");
        }

        let mut clusterer = StreamingClusterer::new(config.clustering);
        if let Some(last) = last {
            clusterer.seek_past(last);
        }
        let threads = gpdt_obs::host_threads();
        let engine = ShardedEngine {
            config,
            strategy,
            variant,
            threads,
            retention: RetentionPolicy::KeepAll,
            partitioner,
            shards,
            clusterer,
            history,
            cross_in: CrossSet { ids: cross_in },
            cross_out: CrossSet { ids: cross_out },
            merge,
            finalized,
            counters: ShardedStats::default(),
            worker_deadline: None,
            snapshots: shard_states,
            retained_batches: Vec::new(),
            restarts: vec![0; shard_count],
            pending_faults: vec![None; shard_count],
            workers: WorkerPool::default(),
        };
        Ok(engine.with_threads(threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::GridPartitioner;
    use gpdt_clustering::SnapshotClusterSet;
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
    #[should_panic(expected = "MAX_SHARDS")]
    fn more_shards_than_a_checkpoint_can_claim_are_refused_up_front() {
        let partitioner = Partitioner::HashByObject;
        assert_eq!(
            ShardedEngine::new(config(), MAX_SHARDS, partitioner).shard_count(),
            MAX_SHARDS
        );
        ShardedEngine::new(config(), MAX_SHARDS + 1, partitioner);
    }

    #[test]
    fn misplaced_batches_are_refused_before_anything_changes() {
        let clusters = ClusterDatabase::build(&drifting_db(14), &config().clustering);
        let sets: Vec<SnapshotClusterSet> = clusters.iter().cloned().collect();
        let batch =
            |ticks: std::ops::Range<usize>| ClusterDatabase::from_sets(sets[ticks].to_vec());
        let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
        for retention in [RetentionPolicy::KeepAll, RetentionPolicy::Bounded] {
            let fresh = || ShardedEngine::new(config(), 3, partitioner).with_retention(retention);
            let (mut engine, mut undisturbed) = (fresh(), fresh());
            for ticks in [0..4, 4..8] {
                engine.ingest_clusters(batch(ticks.clone()));
                undisturbed.ingest_clusters(batch(ticks));
            }
            let before = (engine.stats(), outputs(&engine));
            let resident = engine.cluster_database().time_domain();
            // One batch leaves a gap after tick 7, the other overlaps it.
            for misplaced in [9..12, 6..10] {
                let refused = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    engine.ingest_clusters(batch(misplaced))
                }));
                assert!(refused.is_err(), "{retention:?}");
                assert_eq!((engine.stats(), outputs(&engine)), before, "{retention:?}");
                assert_eq!(engine.cluster_database().time_domain(), resident);
            }
            assert_eq!(
                engine.ingest_clusters(batch(8..14)),
                undisturbed.ingest_clusters(batch(8..14))
            );
            assert_eq!(outputs(&engine), outputs(&undisturbed));
            assert_eq!(engine.finalized_records(), undisturbed.finalized_records());
        }
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let db = drifting_db(10);
        let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
        let mut sharded = ShardedEngine::new(config(), 3, partitioner);
        sharded.ingest_trajectories_until(&db, 6);
        let reference_now = outputs(&sharded);

        // Disassemble through the public accessors — the shards as their
        // history-free states — reassemble, compare; then continue both and
        // compare again.
        let reassemble = |states: Vec<ShardState>, finalized: Vec<CrowdRecord>| {
            ShardedEngine::from_parts(
                *sharded.config(),
                sharded.strategy(),
                sharded.variant(),
                *sharded.partitioner(),
                states,
                sharded.cluster_database().clone(),
                sharded.merge_frontier().to_vec(),
                sharded.cross_edge_heads().to_vec(),
                sharded.cross_edge_tails().to_vec(),
                finalized,
            )
        };
        let states = sharded.shard_states();
        let rebuilt = reassemble(states.clone(), sharded.finalized_records().to_vec())
            .expect("valid parts reassemble");
        assert_eq!(outputs(&rebuilt), reference_now);
        for (derived, live) in rebuilt.shard_engines().iter().zip(sharded.shard_engines()) {
            assert_eq!(derived.stats(), live.stats());
            assert!(derived
                .cluster_database()
                .iter()
                .eq(live.cluster_database().iter()));
        }

        // A finalized record referencing a cluster absent from the (non-
        // evicted) database is rejected.
        let mut bogus = sharded.finalized_records().to_vec();
        if let Some(first) = bogus.first_mut() {
            first.crowd = Crowd::new(vec![ClusterId::new(first.crowd.start_time(), 999)]);
            let err = reassemble(states.clone(), bogus).unwrap_err();
            assert!(err.contains("finalized record"), "{err}");
        }

        // Shard sections in the wrong order, one shard section too many, and
        // a shard that claims history the global database no longer has.
        let mut swapped = states.clone();
        swapped.rotate_left(1);
        assert!(reassemble(swapped, Vec::new()).is_err());
        let mut extra = states.clone();
        extra.push(ShardState::default());
        assert!(reassemble(extra, Vec::new()).is_err());
        let mut early = states;
        early[0].first_tick = None;
        let err = reassemble(early, Vec::new()).unwrap_err();
        assert!(err.contains("first retained tick"), "{err}");

        let mut rebuilt = rebuilt;
        rebuilt.ingest_trajectories(&db);
        sharded.ingest_trajectories(&db);
        assert_eq!(outputs(&rebuilt), outputs(&sharded));

        // A merge path not ending at the domain end is rejected.
        let err = ShardedEngine::from_parts(
            *sharded.config(),
            sharded.strategy(),
            sharded.variant(),
            *sharded.partitioner(),
            vec![ShardState::default()],
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

        let mut stalled = ShardedEngine::new(config(), 2, partitioner)
            .with_worker_deadline(Duration::from_millis(40));
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
        // One-tick batches past the snapshot interval force a refresh, and a
        // late fault exercises the replay-from-refresh path rather than
        // replay-from-genesis.
        let db = drifting_db(24);
        let partitioner = Partitioner::Grid(GridPartitioner::new(150.0));
        let mut clean = ShardedEngine::new(config(), 3, partitioner);
        clean.ingest_trajectories(&db);

        let mut faulty = ShardedEngine::new(config(), 3, partitioner);
        let fault_at = SNAPSHOT_INTERVAL as u32 + 3;
        for t in db.time_domain().unwrap().iter() {
            if t == fault_at {
                // Refreshed after tick 15: the rebuild replays ticks 16–18.
                assert_eq!(faulty.retained_batches.len(), 3);
                faulty.inject_shard_fault(1, ShardFault::PanicOnce);
            }
            faulty.ingest_trajectories_until(&db, t);
        }
        assert_eq!(outputs(&faulty), outputs(&clean));
        assert_eq!(faulty.finalized_records(), clean.finalized_records());
        assert_eq!(faulty.restarts(), &[0, 1, 0]);
    }
}
