//! The streaming-first discovery engine.
//!
//! [`GatheringEngine`] is the single implementation of gathering discovery in
//! this crate: it ingests trajectory or snapshot-cluster data tick-by-tick
//! (or in arbitrary batches) and maintains the set of closed crowds and
//! closed gatherings incrementally.  A batch run is one big ingest followed
//! by [`GatheringEngine::finish`], so Algorithm 1 resumption (Lemma 4) and
//! the Theorem 2 gathering update exist exactly once.
//!
//! Per tick, the engine:
//!
//! 1. clusters newly appended snapshots on demand (when fed trajectories)
//!    with a [`StreamingClusterer`], in parallel across timestamps;
//! 2. resumes Algorithm 1 from the saved frontier (Lemma 4: only cluster
//!    sequences ending at the previous last timestamp can be extended): the
//!    δ-edges of every tick pair are found first, each once and in parallel
//!    across pairs, and the candidates are then extended along them;
//! 3. detects the closed gatherings of every newly closed crowd in parallel,
//!    reusing the gatherings of an extended crowd's old prefix (Theorem 2)
//!    instead of re-running Test-and-Divide from scratch.
//!
//! Results are independent of the batch slicing, the range-search strategy,
//! the detection variant and the thread count: the accessor methods return
//! crowds and gatherings in a canonical order, so feeding the same data one
//! tick at a time or as one big batch yields identical output.
//!
//! ```
//! use gpdt_core::{GatheringConfig, GatheringEngine};
//! use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
//!
//! // Five objects linger together for eight ticks.
//! let db = TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
//!     Trajectory::from_points(
//!         ObjectId::new(i),
//!         (0..8u32).map(|t| (t, (i as f64 * 10.0, t as f64))).collect::<Vec<_>>(),
//!     )
//! }));
//!
//! let config = GatheringConfig::builder()
//!     .clustering(gpdt_core::ClusteringParams::new(60.0, 3))
//!     .crowd(gpdt_core::CrowdParams::new(4, 4, 100.0))
//!     .gathering(gpdt_core::GatheringParams::new(3, 3))
//!     .build()
//!     .unwrap();
//!
//! // Stream the trajectory history into the engine in two arbitrary slices:
//! // the engine clusters the new ticks, extends the crowd frontier and
//! // updates the gatherings after each call.
//! let mut engine = GatheringEngine::new(config);
//! engine.ingest_trajectories_until(&db, 4);
//! let update = engine.ingest_trajectories(&db);
//! assert_eq!(update.new_closed_crowds, 1);
//! assert_eq!(engine.gatherings().len(), 1);
//! ```

use gpdt_clustering::{ClusterDatabase, StreamingClusterer};
use gpdt_trajectory::{TimeInterval, Timestamp, TrajectoryDatabase};

use crate::crowd::{Crowd, CrowdDiscovery};
use crate::gathering::{detect_with_occurrence, CrowdOccurrence, Gathering, TadVariant};
use crate::incremental::update_gatherings_with;
use crate::par::{default_threads, fan_out_threads, par_map};
use crate::params::GatheringConfig;
use crate::range_search::RangeSearchStrategy;

/// One closed crowd together with its closed gatherings.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdRecord {
    /// The closed crowd.
    pub crowd: Crowd,
    /// The closed gatherings detected within it.
    pub gatherings: Vec<Gathering>,
}

/// Summary of one engine ingestion step.
#[derive(Debug, Clone, Default)]
pub struct EngineUpdate {
    /// Closed crowds that became final during this update (including old
    /// frontier sequences that could not be extended).
    pub new_closed_crowds: usize,
    /// How many of those were extensions of sequences saved in the frontier
    /// of the previous database state.
    pub extended_from_frontier: usize,
    /// Gatherings detected in the newly closed crowds.
    pub new_gatherings: usize,
}

/// The full output of one discovery run (see [`GatheringEngine::finish`]).
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// The snapshot-cluster database produced by the clustering phase.
    pub clusters: ClusterDatabase,
    /// All closed crowds.
    pub crowds: Vec<Crowd>,
    /// All closed gatherings, across all crowds, ordered by start time.
    pub gatherings: Vec<Gathering>,
}

impl DiscoveryResult {
    /// Number of closed crowds.
    pub fn crowd_count(&self) -> usize {
        self.crowds.len()
    }

    /// Number of closed gatherings.
    pub fn gathering_count(&self) -> usize {
        self.gatherings.len()
    }
}

impl EngineUpdate {
    fn merge(&mut self, other: EngineUpdate) {
        self.new_closed_crowds += other.new_closed_crowds;
        self.extended_from_frontier += other.extended_from_frontier;
        self.new_gatherings += other.new_gatherings;
    }
}

/// How long the engine keeps old snapshot clusters in memory.
///
/// Crowd discovery only ever revisits the ticks referenced by its open
/// frontier sequences (for gathering detection once they close) plus the
/// trailing `kc` window; every older tick is dead weight once the crowds
/// spanning it have finalized.  [`RetentionPolicy::Bounded`] evicts those
/// ticks, keeping the resident cluster database proportional to the crowd
/// lifetimes instead of the stream length.  Eviction is deferred by one
/// ingest step so callers (e.g. a durable store mirroring
/// [`GatheringEngine::finalized_records`]) can still resolve the clusters of
/// records finalized by the previous batch.
///
/// The policy never changes discovery output — only which historical ticks
/// remain addressable through [`GatheringEngine::cluster_database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Keep every ingested tick (the default; required when the full history
    /// must stay queryable through the engine itself).
    #[default]
    KeepAll,
    /// Evict ticks older than the last `kc` once no frontier sequence
    /// references them.
    Bounded,
}

/// A point-in-time snapshot of the engine's internal load, for observability
/// (mirrored by the `gpdt-store` monitor service's stats surface).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Ticks ingested since this engine value was constructed (or restored).
    pub ticks_ingested: u64,
    /// Ticks currently resident in the cluster database (equals
    /// `ticks_ingested` under [`RetentionPolicy::KeepAll`], bounded under
    /// [`RetentionPolicy::Bounded`]).
    pub resident_ticks: usize,
    /// Snapshot clusters currently resident.
    pub resident_clusters: usize,
    /// Open frontier sequences (crowd candidates ending at the last tick).
    pub open_sequences: usize,
    /// Finalized crowd records accumulated so far.
    pub finalized_records: usize,
    /// Closed gatherings inside the finalized records.
    pub finalized_gatherings: usize,
}

/// Streaming discovery engine maintaining closed crowds and gatherings over
/// an ever-growing trajectory/cluster history.
///
/// See the [module documentation](self) for the data flow and a usage
/// example.
#[derive(Debug, Clone)]
pub struct GatheringEngine {
    config: GatheringConfig,
    strategy: RangeSearchStrategy,
    variant: TadVariant,
    threads: usize,
    retention: RetentionPolicy,
    ticks_ingested: u64,
    clusterer: StreamingClusterer,
    cdb: ClusterDatabase,
    /// Closed crowds (with their gatherings) whose last cluster is strictly
    /// before the current frontier time — they can never change again.
    finalized: Vec<CrowdRecord>,
    /// Cluster sequences ending at the last ingested timestamp (the paper's
    /// `CS`), kept for extension; for those that are already closed crowds we
    /// cache their gatherings so the Theorem 2 update can reuse them.
    frontier: Vec<(Crowd, Vec<Gathering>)>,
    /// The occurrence table of each frontier entry that is a closed crowd,
    /// parallel to `frontier`: derived state (never serialised), carried so
    /// that the next Theorem 2 update extends it by the new clusters instead
    /// of rebuilding it from the crowd's first one.  `None` for sequences
    /// still shorter than `kc` and after a restore; the table is then built
    /// when the crowd is next detected.
    frontier_tables: Vec<Option<CrowdOccurrence>>,
}

impl GatheringEngine {
    /// Creates an empty engine with the default (fastest) algorithm choices:
    /// the sorted-bounds join, TAD\* detection, all available cores.
    pub fn new(config: GatheringConfig) -> Self {
        let threads = default_threads();
        GatheringEngine {
            config,
            strategy: RangeSearchStrategy::default(),
            variant: TadVariant::TadStar,
            threads,
            retention: RetentionPolicy::KeepAll,
            ticks_ingested: 0,
            clusterer: StreamingClusterer::new(config.clustering).with_threads(threads),
            cdb: ClusterDatabase::new(),
            finalized: Vec::new(),
            frontier: Vec::new(),
            frontier_tables: Vec::new(),
        }
    }

    /// Overrides the crowd-discovery range-search strategy.
    pub fn with_strategy(mut self, strategy: RangeSearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the gathering-detection algorithm.
    pub fn with_variant(mut self, variant: TadVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Overrides the worker-thread count for the parallel stages (snapshot
    /// clustering, per-tick index construction, per-crowd gathering
    /// detection).  Clamped to at least 1; never changes the results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.clusterer = self.clusterer.with_threads(self.threads);
        self
    }

    /// Overrides the cluster-database retention policy (see
    /// [`RetentionPolicy`]).  A host choice like the thread count: it never
    /// changes discovery output and is not part of a checkpoint.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &GatheringConfig {
        &self.config
    }

    /// The configured retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`EngineStats::ticks_ingested`] alone — a field read, where
    /// [`Self::stats`] walks the resident ticks and the finalized records.
    pub fn ticks_ingested(&self) -> u64 {
        self.ticks_ingested
    }

    /// A snapshot of the engine's internal load.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            ticks_ingested: self.ticks_ingested,
            resident_ticks: self.cdb.len(),
            resident_clusters: self.cdb.total_clusters(),
            open_sequences: self.frontier.len(),
            finalized_records: self.finalized.len(),
            finalized_gatherings: self.finalized.iter().map(|r| r.gatherings.len()).sum(),
        }
    }

    /// Evicts every cluster set no future discovery step can touch: ticks
    /// older than both the trailing `kc` window and the earliest tick any
    /// frontier sequence references.  Returns the number of evicted ticks.
    ///
    /// Called automatically (one ingest step deferred) under
    /// [`RetentionPolicy::Bounded`]; safe to call manually at any time —
    /// discovery output is unaffected, only
    /// [`Self::cluster_database`] lookups for evicted ticks start returning
    /// `None`.
    pub fn evict_retired_clusters(&mut self) -> usize {
        let Some(domain) = self.cdb.time_domain() else {
            return 0;
        };
        // `kc >= 1` (validated), so the horizon never passes the last tick
        // and the database never empties from under the frontier.
        let horizon = domain.end.saturating_sub(self.config.crowd.kc - 1);
        let keep_from = self
            .frontier
            .iter()
            .map(|(c, _)| c.start_time())
            .min()
            .map_or(horizon, |f| f.min(horizon));
        self.cdb.evict_before(keep_from)
    }

    /// The configured range-search strategy.
    pub fn strategy(&self) -> RangeSearchStrategy {
        self.strategy
    }

    /// The configured detection variant.
    pub fn variant(&self) -> TadVariant {
        self.variant
    }

    /// The accumulated snapshot-cluster database.
    pub fn cluster_database(&self) -> &ClusterDatabase {
        &self.cdb
    }

    /// The finalized crowd records, in discovery order: closed crowds (with
    /// their gatherings) whose last cluster is strictly before the frontier
    /// time, so they can never change again.
    ///
    /// This is the stable part of the engine state: entries are only ever
    /// appended, never mutated, which makes the slice the natural feed for a
    /// durable pattern store (see the `gpdt-store` crate).
    pub fn finalized_records(&self) -> &[CrowdRecord] {
        &self.finalized
    }

    /// Removes and returns the finalized crowd records accumulated so far.
    ///
    /// Discovery only ever reads the cluster database and the frontier, so
    /// draining is invisible to future ingests.  It is the memory-bounding
    /// counterpart of [`Self::finalized_records`]: an out-of-core driver
    /// moves each batch's finalized records into a durable store *before*
    /// the next ingest evicts the cluster ticks they reference, and the
    /// engine stops retaining the (unbounded) record history in RAM.
    /// Aggregate accessors such as [`Self::closed_crowds`] subsequently
    /// cover only the records still held; the caller owns the full history.
    pub fn drain_finalized(&mut self) -> Vec<CrowdRecord> {
        std::mem::take(&mut self.finalized)
    }

    /// The extension frontier (the paper's `CS`): every cluster sequence
    /// ending at the last ingested timestamp, paired with its cached
    /// gatherings (empty for sequences still shorter than `kc`).
    ///
    /// Together with [`Self::finalized_records`], the configuration and the
    /// cluster database this is the complete discovery state; `gpdt-store`
    /// serialises it so a stream can resume after a crash.
    pub fn frontier(&self) -> &[(Crowd, Vec<Gathering>)] {
        &self.frontier
    }

    /// Reassembles an engine from externally persisted state (the restore
    /// half of the `gpdt-store` checkpoint hooks).
    ///
    /// The caller must pass back exactly what the accessors of a previous
    /// engine exposed: the configuration, algorithm choices, accumulated
    /// cluster database, finalized records and frontier.  The streaming
    /// clusterer is reconstructed from the configuration with its cursor
    /// aligned to the end of `cdb` (its scratch state is a cache and never
    /// affects results).  Thread count resets to the machine default; chain
    /// [`Self::with_threads`] to override.
    pub fn from_parts(
        config: GatheringConfig,
        strategy: RangeSearchStrategy,
        variant: TadVariant,
        cdb: ClusterDatabase,
        finalized: Vec<CrowdRecord>,
        frontier: Vec<(Crowd, Vec<Gathering>)>,
    ) -> Self {
        let threads = default_threads();
        let mut clusterer = StreamingClusterer::new(config.clustering).with_threads(threads);
        if let Some(domain) = cdb.time_domain() {
            clusterer.seek_past(domain.end);
        }
        debug_assert!(
            frontier
                .iter()
                .all(|(c, _)| Some(c.end_time()) == cdb.time_domain().map(|d| d.end)),
            "frontier sequences must end at the last ingested timestamp"
        );
        GatheringEngine {
            config,
            strategy,
            variant,
            threads,
            retention: RetentionPolicy::KeepAll,
            ticks_ingested: 0,
            clusterer,
            cdb,
            finalized,
            frontier_tables: vec![None; frontier.len()],
            frontier,
        }
    }

    /// Sets the [`EngineStats::ticks_ingested`] count, which
    /// [`Self::from_parts`] starts at zero: a shard engine its supervisor
    /// reassembled mid-stream goes on counting where the lost one stopped.
    /// Part of that restore door, not of the builder surface.
    #[doc(hidden)]
    pub fn with_ticks_ingested(mut self, ticks: u64) -> Self {
        self.ticks_ingested = ticks;
        self
    }

    /// The time interval ingested so far, or `None` before the first batch.
    pub fn time_domain(&self) -> Option<TimeInterval> {
        self.cdb.time_domain()
    }

    /// Clusters and ingests every not-yet-seen snapshot of `db`.
    ///
    /// The trajectory database may grow between calls; each call picks up
    /// exactly the timestamps appended since the previous one.  Snapshots are
    /// clustered in parallel across timestamps before the incremental
    /// discovery step runs.
    pub fn ingest_trajectories(&mut self, db: &TrajectoryDatabase) -> EngineUpdate {
        let Some(domain) = db.time_domain() else {
            return EngineUpdate::default();
        };
        self.ingest_trajectories_until(db, domain.end)
    }

    /// Like [`ingest_trajectories`](Self::ingest_trajectories) but stops at
    /// timestamp `end` (inclusive), so a long history can be replayed in
    /// controlled slices.
    pub fn ingest_trajectories_until(
        &mut self,
        db: &TrajectoryDatabase,
        end: Timestamp,
    ) -> EngineUpdate {
        // Keep the clustering cursor aligned with the ingested history even
        // if the caller interleaved direct cluster batches.
        if let Some(domain) = self.cdb.time_domain() {
            self.clusterer.seek_past(domain.end);
        }
        let batch = {
            let _span = gpdt_obs::span!("engine.dbscan");
            self.clusterer.advance_until(db, end)
        };
        self.ingest_clusters(batch)
    }

    /// Ingests the next batch of snapshot clusters.
    ///
    /// The batch must start exactly one tick after the data ingested so far
    /// (or may be the first batch).  Returns a summary of what changed.
    pub fn ingest_clusters(&mut self, batch: ClusterDatabase) -> EngineUpdate {
        self.ingest_clusters_observed(batch, None)
    }

    /// Like [`Self::ingest_clusters`], additionally invoking `observer` after
    /// every processed tick `t` with the complete crowd-candidate set ending
    /// at `t` (see
    /// [`CrowdDiscovery::run_resumed_observed`]).
    ///
    /// The observer is a pure tap for cross-engine coordination (the
    /// `gpdt-shard` merger records boundary-adjacent candidates through it);
    /// results are identical to the unobserved ingest.
    pub fn ingest_clusters_observed(
        &mut self,
        batch: ClusterDatabase,
        observer: Option<&mut dyn FnMut(Timestamp, &[Crowd])>,
    ) -> EngineUpdate {
        if batch.is_empty() {
            return EngineUpdate::default();
        }
        // Deferred retention: evict what the *previous* batch retired, so the
        // records it finalized stayed resolvable until now.
        if self.retention == RetentionPolicy::Bounded {
            self.evict_retired_clusters();
        }
        self.ticks_ingested += u64::from(batch.time_domain().expect("non-empty batch").len());
        let resume_at: Timestamp = batch.time_domain().expect("non-empty batch").start;
        match self.cdb.time_domain() {
            None => self.cdb = batch,
            Some(_) => self.cdb.append(batch),
        }

        // Resume Algorithm 1 from the saved frontier (Lemma 4: nothing else
        // can be extended).
        let seeds: Vec<Crowd> = self.frontier.iter().map(|(c, _)| c.clone()).collect();
        let old_frontier = std::mem::take(&mut self.frontier);
        let mut old_tables = std::mem::take(&mut self.frontier_tables);
        let discovery =
            CrowdDiscovery::new(self.config.crowd, self.strategy).with_threads(self.threads);
        let result = {
            let _span = gpdt_obs::span!("engine.sweep");
            discovery.run_resumed_observed(&self.cdb, resume_at, seeds, observer)
        };
        let end = self.cdb.time_domain().expect("non-empty").end;

        // Closed crowds reported by the resumed run are final unless they end
        // at the new frontier time (then they stay extendable).  The frontier
        // sequences that are not closed crowds are all still shorter than kc
        // (the sweep reports every end-of-domain candidate with lifetime >= kc
        // as closed), so they carry no gatherings yet.
        let closed = result.closed_crowds;
        debug_assert!(
            result
                .frontier
                .iter()
                .all(|c| (c.lifetime() >= self.config.crowd.kc) == closed.contains(c)),
            "a frontier sequence is in the closed set exactly when it is long enough to be a crowd"
        );
        let leftovers: Vec<Crowd> = result
            .frontier
            .into_iter()
            .filter(|c| c.lifetime() < self.config.crowd.kc)
            .collect();

        // Each closed crowd that extends an old frontier crowd inherits that
        // crowd's occurrence table, grown by the clusters it adds — moved to
        // its last heir, cloned for the others where the crowd branched.
        let span = gpdt_obs::span!("engine.gathering");
        let prefixes: Vec<Option<usize>> = closed
            .iter()
            .map(|crowd| self.reusable_prefix(crowd, &old_frontier))
            .collect();
        let mut last_heir = vec![usize::MAX; old_frontier.len()];
        for (i, prefix) in prefixes.iter().enumerate() {
            if let Some(p) = *prefix {
                last_heir[p] = i;
            }
        }
        let mut inherited: Vec<Option<CrowdOccurrence>> = Vec::with_capacity(closed.len());
        for (i, (crowd, prefix)) in closed.iter().zip(&prefixes).enumerate() {
            inherited.push(prefix.and_then(|p| {
                let mut table = if last_heir[p] == i {
                    old_tables[p].take()
                } else {
                    old_tables[p].clone()
                }?;
                table.extend(crowd, &self.cdb);
                Some(table)
            }));
        }
        if gpdt_obs::enabled() {
            let extended = inherited.iter().flatten().count();
            gpdt_obs::counter!("engine.occurrence.extended").add(extended as u64);
            gpdt_obs::counter!("engine.occurrence.rebuilt").add((closed.len() - extended) as u64);
        }

        // Per-crowd gathering detection is independent across crowds: fan it
        // out, preserving order — when there is enough of it to pay for
        // starting threads, which a tick's handful of open crowds is not.
        // Extensions of old frontier crowds reuse the prefix gatherings via
        // the Theorem 2 update; a crowd without an inherited table builds
        // its own here, in parallel.
        let clusters_to_visit: usize = closed.iter().map(Crowd::len).sum();
        let threads = fan_out_threads(clusters_to_visit, self.threads);
        let jobs: Vec<usize> = (0..closed.len()).collect();
        let detected: Vec<(Vec<Gathering>, Option<CrowdOccurrence>)> =
            par_map(&jobs, threads, |&i| {
                let built = inherited[i]
                    .is_none()
                    .then(|| CrowdOccurrence::build(&closed[i], &self.cdb));
                let table = built
                    .as_ref()
                    .or(inherited[i].as_ref())
                    .expect("inherited or built");
                let old = prefixes[i].map(|p| &old_frontier[p]);
                (self.detect_for(&closed[i], table, old), built)
            });
        drop(span);

        let mut update = EngineUpdate::default();
        for ((crowd, (gatherings, built)), inherited) in
            closed.into_iter().zip(detected).zip(inherited)
        {
            update.merge(EngineUpdate {
                new_closed_crowds: 1,
                extended_from_frontier: usize::from(
                    old_frontier
                        .iter()
                        .any(|(old, _)| old.len() < crowd.len() && old.is_window_of(&crowd)),
                ),
                new_gatherings: gatherings.len(),
            });
            if crowd.end_time() < end {
                self.finalized.push(CrowdRecord { crowd, gatherings });
            } else {
                self.frontier.push((crowd, gatherings));
                self.frontier_tables.push(built.or(inherited));
            }
        }
        self.frontier
            .extend(leftovers.into_iter().map(|crowd| (crowd, Vec::new())));
        self.frontier_tables.resize(self.frontier.len(), None);
        update
    }

    /// The old frontier entry whose gatherings (and occurrence table) the
    /// Theorem 2 update of `crowd` starts from: the longest old frontier
    /// crowd that is a prefix of `crowd`, provided it was already a crowd.
    fn reusable_prefix(
        &self,
        crowd: &Crowd,
        old_frontier: &[(Crowd, Vec<Gathering>)],
    ) -> Option<usize> {
        old_frontier
            .iter()
            .enumerate()
            .filter(|(_, (old, _))| {
                old.len() <= crowd.len() && old.cluster_ids() == &crowd.cluster_ids()[..old.len()]
            })
            .max_by_key(|(_, (old, _))| old.len())
            .filter(|(_, (old, _))| old.lifetime() >= self.config.crowd.kc)
            .map(|(index, _)| index)
    }

    /// Detects the closed gatherings of one crowd from its occurrence
    /// table, reusing the cached gatherings of the old frontier crowd it
    /// extends (Theorem 2); a from-scratch Test-and-Divide otherwise.
    fn detect_for(
        &self,
        crowd: &Crowd,
        table: &CrowdOccurrence,
        old: Option<&(Crowd, Vec<Gathering>)>,
    ) -> Vec<Gathering> {
        let (params, kc) = (&self.config.gathering, self.config.crowd.kc);
        match old {
            Some((old, old_gatherings)) => update_gatherings_with(
                crowd,
                table,
                old.len(),
                old_gatherings,
                params,
                kc,
                self.variant,
            ),
            None => detect_with_occurrence(crowd, table, params, kc, self.variant),
        }
    }

    /// All currently known closed crowds, in canonical order: the finalized
    /// ones plus frontier sequences that are long enough (they are closed
    /// *with respect to the data seen so far*).
    pub fn closed_crowds(&self) -> Vec<Crowd> {
        let mut crowds: Vec<Crowd> = self.finalized.iter().map(|r| r.crowd.clone()).collect();
        crowds.extend(
            self.frontier
                .iter()
                .filter(|(c, _)| c.lifetime() >= self.config.crowd.kc)
                .map(|(c, _)| c.clone()),
        );
        crowds.sort_by(Self::crowd_order);
        crowds
    }

    /// All currently known closed gatherings, in canonical order.
    pub fn gatherings(&self) -> Vec<Gathering> {
        let mut out: Vec<Gathering> = self
            .finalized
            .iter()
            .flat_map(|r| r.gatherings.iter().cloned())
            .collect();
        out.extend(
            self.frontier
                .iter()
                .filter(|(c, _)| c.lifetime() >= self.config.crowd.kc)
                .flat_map(|(_, gs)| gs.iter().cloned()),
        );
        out.sort_by(|a, b| {
            Self::crowd_order(a.crowd(), b.crowd())
                .then_with(|| a.participators().cmp(b.participators()))
        });
        out
    }

    /// The canonical crowd ordering used by the accessors (see
    /// [`canonical_crowd_order`]).
    fn crowd_order(a: &Crowd, b: &Crowd) -> std::cmp::Ordering {
        canonical_crowd_order(a, b)
    }

    /// Consumes the engine and packages its current state as a
    /// [`DiscoveryResult`].
    ///
    /// Equivalent to collecting [`Self::closed_crowds`] and
    /// [`Self::gatherings`], but drains the engine state instead of cloning
    /// it.
    pub fn finish(self) -> DiscoveryResult {
        let kc = self.config.crowd.kc;
        let mut crowds: Vec<Crowd> = Vec::with_capacity(self.finalized.len());
        let mut gatherings: Vec<Gathering> = Vec::new();
        for record in self.finalized {
            crowds.push(record.crowd);
            gatherings.extend(record.gatherings);
        }
        for (crowd, crowd_gatherings) in self.frontier {
            if crowd.lifetime() >= kc {
                crowds.push(crowd);
                gatherings.extend(crowd_gatherings);
            }
        }
        crowds.sort_by(Self::crowd_order);
        gatherings.sort_by(|a, b| {
            Self::crowd_order(a.crowd(), b.crowd())
                .then_with(|| a.participators().cmp(b.participators()))
        });
        DiscoveryResult {
            clusters: self.cdb,
            crowds,
            gatherings,
        }
    }
}

/// The canonical crowd ordering every accessor of this crate sorts by: time
/// interval first, then the referenced cluster sequence.  Total for any set
/// of crowds discovered over one cluster database, so output order never
/// depends on batch slicing, thread count — or, for a sharded deployment,
/// on which shard discovered the crowd.
pub fn canonical_crowd_order(a: &Crowd, b: &Crowd) -> std::cmp::Ordering {
    a.start_time()
        .cmp(&b.start_time())
        .then(a.end_time().cmp(&b.end_time()))
        .then_with(|| a.cluster_ids().cmp(b.cluster_ids()))
}

/// The canonical gathering ordering: by host crowd, then participator set.
pub fn canonical_gathering_order(a: &Gathering, b: &Gathering) -> std::cmp::Ordering {
    canonical_crowd_order(a.crowd(), b.crowd())
        .then_with(|| a.participators().cmp(b.participators()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CrowdParams, GatheringParams};
    use gpdt_clustering::{ClusteringParams, SnapshotCluster, SnapshotClusterSet};
    use gpdt_geo::Point;
    use gpdt_trajectory::{ObjectId, Trajectory};

    fn config(kc: u32) -> GatheringConfig {
        GatheringConfig {
            clustering: ClusteringParams::new(60.0, 3),
            crowd: CrowdParams::new(3, kc, 100.0),
            gathering: GatheringParams::new(3, 3),
        }
    }

    fn lingering_db(objects: u32, duration: u32) -> TrajectoryDatabase {
        TrajectoryDatabase::from_trajectories((0..objects).map(|i| {
            Trajectory::from_points(
                ObjectId::new(i),
                (0..duration)
                    .map(|t| (t, (i as f64 * 10.0, t as f64 * 2.0)))
                    .collect::<Vec<_>>(),
            )
        }))
    }

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

    /// Four taxis sampled at the last two representable ticks: the first
    /// ingest takes both, the second is an empty no-op.
    #[test]
    fn ingest_at_the_last_representable_tick_does_not_wrap() {
        let max = Timestamp::MAX;
        let db = TrajectoryDatabase::from_trajectories((0..4u32).map(|i| {
            let x = f64::from(i) * 10.0;
            Trajectory::from_points(ObjectId::new(i), [(max - 1, (x, 0.0)), (max, (x, 5.0))])
        }));
        for retention in [RetentionPolicy::KeepAll, RetentionPolicy::Bounded] {
            let mut engine = GatheringEngine::new(config(2)).with_retention(retention);
            engine.ingest_trajectories(&db);
            let before = engine.stats();
            assert_eq!(before.ticks_ingested, 2);
            assert_eq!(engine.time_domain(), Some(TimeInterval::new(max - 1, max)));
            let update = engine.ingest_trajectories(&db);
            assert_eq!(update.new_closed_crowds, 0);
            assert_eq!(engine.stats(), before, "{retention:?}");
            assert_eq!(engine.evict_retired_clusters(), 0);
        }
    }

    #[test]
    fn trajectory_streaming_matches_cluster_streaming() {
        let db = lingering_db(5, 10);
        let mut by_trajectory = GatheringEngine::new(config(4));
        by_trajectory.ingest_trajectories_until(&db, 3);
        by_trajectory.ingest_trajectories(&db);

        let mut by_clusters = GatheringEngine::new(config(4));
        let full = ClusterDatabase::build(&db, &config(4).clustering);
        by_clusters.ingest_clusters(full);

        assert_eq!(by_trajectory.closed_crowds(), by_clusters.closed_crowds());
        assert_eq!(by_trajectory.gatherings(), by_clusters.gatherings());
        assert_eq!(by_trajectory.time_domain(), by_clusters.time_domain());
    }

    #[test]
    fn single_batch_and_per_tick_ingestion_agree() {
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
        let mut whole = GatheringEngine::new(config(3));
        whole.ingest_clusters(membership_cdb(0, &memberships));

        let mut ticked = GatheringEngine::new(config(3));
        for (i, m) in memberships.iter().enumerate() {
            ticked.ingest_clusters(membership_cdb(i as u32, &[m]));
        }

        assert_eq!(whole.closed_crowds(), ticked.closed_crowds());
        assert_eq!(whole.gatherings(), ticked.gatherings());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let db = lingering_db(6, 12);
        let reference = {
            let mut e = GatheringEngine::new(config(4)).with_threads(1);
            e.ingest_trajectories(&db);
            (e.closed_crowds(), e.gatherings())
        };
        for threads in [2, 4, 16] {
            let mut e = GatheringEngine::new(config(4)).with_threads(threads);
            e.ingest_trajectories(&db);
            assert_eq!(e.closed_crowds(), reference.0, "{threads} threads");
            assert_eq!(e.gatherings(), reference.1, "{threads} threads");
        }
    }

    #[test]
    fn update_counters_track_frontier_extensions() {
        let first: Vec<&[u32]> = vec![&[1, 2, 3]; 4];
        let mut engine = GatheringEngine::new(config(3));
        let update1 = engine.ingest_clusters(membership_cdb(0, &first));
        assert_eq!(update1.new_closed_crowds, 1);
        assert_eq!(update1.extended_from_frontier, 0);

        let second: Vec<&[u32]> = vec![&[1, 2, 3]; 3];
        let update2 = engine.ingest_clusters(membership_cdb(4, &second));
        assert_eq!(update2.new_closed_crowds, 1);
        assert_eq!(update2.extended_from_frontier, 1);
        let crowds = engine.closed_crowds();
        assert_eq!(crowds.len(), 1);
        assert_eq!(crowds[0].lifetime(), 7);
    }

    #[test]
    fn empty_ingest_is_a_no_op() {
        let mut engine = GatheringEngine::new(config(3));
        let update = engine.ingest_clusters(ClusterDatabase::new());
        assert_eq!(update.new_closed_crowds, 0);
        assert!(engine.closed_crowds().is_empty());
        assert!(engine.time_domain().is_none());
        let update = engine.ingest_trajectories(&TrajectoryDatabase::new());
        assert_eq!(update.new_closed_crowds, 0);
    }

    #[test]
    fn bounded_retention_keeps_output_and_bounds_residency() {
        // Blobs linger for 5 ticks, scatter for 3, repeat: frontier resets
        // regularly, so bounded retention can reclaim nearly everything.
        let cycles = 12u32;
        let mut trajectories: Vec<(u32, Vec<(u32, (f64, f64))>)> =
            (0..5u32).map(|i| (i, Vec::new())).collect();
        for cycle in 0..cycles {
            for t in 0..8u32 {
                let tick = cycle * 8 + t;
                for (i, points) in trajectories.iter_mut() {
                    let x = if t < 5 {
                        f64::from(*i) * 10.0
                    } else {
                        // Scattered: pairwise distances far exceed eps.
                        f64::from(*i) * 10_000.0 + f64::from(tick)
                    };
                    points.push((tick, (x, f64::from(cycle) * 7.0)));
                }
            }
        }
        let db = TrajectoryDatabase::from_trajectories(
            trajectories
                .into_iter()
                .map(|(i, pts)| Trajectory::from_points(ObjectId::new(i), pts)),
        );

        let mut keep_all = GatheringEngine::new(config(3));
        let mut bounded = GatheringEngine::new(config(3)).with_retention(RetentionPolicy::Bounded);
        let domain = db.time_domain().unwrap();
        let mut max_resident = 0;
        for t in domain.iter() {
            keep_all.ingest_trajectories_until(&db, t);
            bounded.ingest_trajectories_until(&db, t);
            max_resident = max_resident.max(bounded.cluster_database().len());
        }
        // Output is identical; residency stays bounded by the crowd span
        // (5-tick crowds + kc trailing window + one deferred batch), far
        // below the 96-tick stream.
        assert_eq!(bounded.closed_crowds(), keep_all.closed_crowds());
        assert_eq!(bounded.gatherings(), keep_all.gatherings());
        assert_eq!(keep_all.cluster_database().len(), 8 * cycles as usize);
        assert!(
            max_resident <= 10,
            "bounded retention kept {max_resident} ticks resident"
        );
        let stats = bounded.stats();
        assert_eq!(stats.ticks_ingested, u64::from(8 * cycles));
        assert!(stats.resident_ticks <= 10);
        assert_eq!(stats.finalized_records, keep_all.finalized_records().len());
    }

    #[test]
    fn finish_packages_the_streamed_state() {
        let db = lingering_db(5, 8);
        let mut engine = GatheringEngine::new(config(4));
        engine.ingest_trajectories_until(&db, 2);
        engine.ingest_trajectories(&db);
        let crowds = engine.closed_crowds();
        let gatherings = engine.gatherings();
        let result = engine.finish();
        assert_eq!(result.crowds, crowds);
        assert_eq!(result.gatherings, gatherings);
        assert_eq!(result.clusters.len(), 8);
    }

    /// Ten objects linger around a venue for 12 ticks while five other
    /// objects drive through without stopping.
    fn venue_scene() -> TrajectoryDatabase {
        let mut trajectories = Vec::new();
        for i in 0..10u32 {
            let x = 100.0 + (i % 5) as f64 * 8.0;
            let y = 200.0 + (i / 5) as f64 * 8.0;
            let samples: Vec<(u32, (f64, f64))> =
                (0..12u32).map(|t| (t, (x + (t as f64 * 0.5), y))).collect();
            trajectories.push(Trajectory::from_points(ObjectId::new(i), samples));
        }
        // Pass-through traffic: fast movers that never linger.
        for i in 10..15u32 {
            let samples: Vec<(u32, (f64, f64))> = (0..12u32)
                .map(|t| (t, (t as f64 * 400.0, 3_000.0 + i as f64 * 500.0)))
                .collect();
            trajectories.push(Trajectory::from_points(ObjectId::new(i), samples));
        }
        TrajectoryDatabase::from_trajectories(trajectories)
    }

    fn venue_config() -> GatheringConfig {
        GatheringConfig::builder()
            .clustering(ClusteringParams::new(30.0, 4))
            .crowd(CrowdParams::new(5, 6, 60.0))
            .gathering(GatheringParams::new(5, 6))
            .build()
            .unwrap()
    }

    fn discover(mut engine: GatheringEngine, db: &TrajectoryDatabase) -> DiscoveryResult {
        engine.ingest_trajectories(db);
        engine.finish()
    }

    #[test]
    fn finds_the_planted_gathering() {
        let result = discover(GatheringEngine::new(venue_config()), &venue_scene());
        assert_eq!(result.crowd_count(), 1);
        assert_eq!(result.gathering_count(), 1);
        let g = &result.gatherings[0];
        assert_eq!(g.lifetime(), 12);
        assert_eq!(g.participators().len(), 10);
        // Pass-through objects never participate.
        for i in 10..15u32 {
            assert!(!g.participators().contains(&ObjectId::new(i)));
        }
    }

    #[test]
    fn strategy_and_variant_choices_do_not_change_results() {
        let db = venue_scene();
        let reference = discover(GatheringEngine::new(venue_config()), &db);
        for strategy in RangeSearchStrategy::ALL {
            for variant in TadVariant::ALL {
                let engine = GatheringEngine::new(venue_config())
                    .with_strategy(strategy)
                    .with_variant(variant);
                let result = discover(engine, &db);
                assert_eq!(result.crowds, reference.crowds, "{strategy}/{variant}");
                assert_eq!(
                    result.gatherings, reference.gatherings,
                    "{strategy}/{variant}"
                );
            }
        }
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let result = discover(
            GatheringEngine::new(venue_config()),
            &TrajectoryDatabase::new(),
        );
        assert_eq!(result.crowd_count(), 0);
        assert_eq!(result.gathering_count(), 0);
        assert!(result.clusters.is_empty());
    }
}
