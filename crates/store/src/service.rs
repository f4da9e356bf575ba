//! The monitoring façade: one supervised ingestion thread feeding a
//! [`GatheringEngine`] and a [`PatternStore`], while any number of caller
//! threads run store queries concurrently.
//!
//! Following the `par.rs` idiom of `gpdt-core`, the service is built from
//! `std::thread::scope` and `std::sync::mpsc` channels — no runtime, no
//! external dependencies.  [`MonitorService::run`] owns the engine for the
//! duration of a scope: an ingest worker drains a command channel
//! (cluster batches, flush barriers, checkpoint requests) and appends every
//! newly finalized crowd record to the store behind an `RwLock`, while the
//! caller's closure — and any threads it spawns — issues queries through the
//! shared [`ServiceHandle`].  When the closure returns, the channel closes,
//! the worker drains and exits, and the engine and store are handed back.
//!
//! Because the worker is the only writer and queries take the read lock,
//! queries never block each other; a query racing an ingest sees either the
//! store before or after that batch's records, never a torn state.  Call
//! [`ServiceHandle::flush`] first for deterministic results.
//!
//! # Supervision
//!
//! The worker classifies every store fault through
//! [`StoreError::is_transient`] and reacts accordingly:
//!
//! * **Transient faults** (interrupted writes, racing I/O) are retried in
//!   place, up to 4 times, with exponential backoff from 1 ms to at most
//!   50 ms and seeded jitter.  Successful retries are invisible except for
//!   the [`ServiceStats::retries`] counter.
//! * **Exhausted retries** flip the service into *degraded mode*: ingest is
//!   queued (up to 4 096 batches; a batch beyond that is dropped and
//!   reported), queries and checkpoints are rejected with
//!   [`ServiceError::Degraded`], and the next batch or an explicit
//!   [`ServiceHandle::try_recover`] re-probes the store.  On recovery the
//!   queue drains in order, so the engine and store end up exactly where an
//!   undisturbed run would.
//! * **Fatal faults** (invalid records, a store that diverges from the
//!   engine's finalized feed) halt durable storage for the session while
//!   discovery continues — retrying could never succeed.
//! * **Worker panics** during ingestion are caught: the engine is rebuilt
//!   from the worker's *recovery point*, the batches since are replayed
//!   (at most 16: the point is refreshed every 16 batches), and the
//!   offending batch is retried once.  The output is byte-identical to a
//!   run without the panic.
//!
//! # The recovery point
//!
//! A recovery point is the discovery state as of the last refresh, held
//! structurally — nothing is serialised on the ingest path:
//!
//! * its own spine of the cluster history (a [`ClusterDatabase`] whose
//!   per-tick arenas are reference-counted and shared with the engine's, so
//!   a tick is copied once, when it arrives),
//! * the finalized feed, append-only and so only ever topped up,
//! * the Lemma 4 frontier and the tick count.
//!
//! A refresh *moves* the batches ingested since the last one onto the spine,
//! lets go of the ticks the engine has retired, tops the feed up and
//! replaces the frontier: its cost follows what changed, not what the
//! engine retains.  The point shares no mutable state with the engine —
//! the spine and both vectors are its own, and the shared arenas are
//! immutable — and it is only written after a batch has been ingested
//! whole, so an engine a panic left half-mutated cannot reach it.  Recovery
//! goes through the engine's checked door, [`GatheringEngine::from_parts`],
//! never around it.
//!
//! Records reach the store through [`PatternStore::spill`], the one loop
//! from an engine to the log; the worker only maps its outcome onto retry,
//! degrade or halt.  A store *ahead* of its engine (the engine restarted
//! from an older checkpoint) is resumed by verification: the spill skips
//! each re-finalized record that equals the stored record at its index, so
//! recovery never duplicates records; a mismatch halts durable storage
//! (that store is not this engine's history).
//!
//! ```
//! use gpdt_clustering::ClusterDatabase;
//! use gpdt_core::{GatheringConfig, GatheringEngine};
//! use gpdt_store::{MonitorService, PatternStore};
//! use gpdt_trajectory::{ObjectId, TimeInterval, Trajectory, TrajectoryDatabase};
//!
//! // Five objects linger together for six ticks, then scatter — the crowd
//! // they form is finalized (and stored) once the scattered ticks arrive.
//! let db = TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
//!     Trajectory::from_points(
//!         ObjectId::new(i),
//!         (0..10u32)
//!             .map(|t| {
//!                 let x = if t < 6 { f64::from(i) * 10.0 } else { f64::from(i) * 10_000.0 };
//!                 (t, (x, t as f64))
//!             })
//!             .collect::<Vec<_>>(),
//!     )
//! }));
//! let config = GatheringConfig::builder()
//!     .clustering(gpdt_core::ClusteringParams::new(60.0, 3))
//!     .crowd(gpdt_core::CrowdParams::new(4, 4, 100.0))
//!     .gathering(gpdt_core::GatheringParams::new(3, 3))
//!     .build()
//!     .unwrap();
//!
//! let dir = std::env::temp_dir().join(format!("gpdt-doc-service-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = PatternStore::open(&dir).unwrap();
//! let engine = GatheringEngine::new(config);
//!
//! let outcome = MonitorService::run(engine, store, |handle| {
//!     // Feed the live stream one tick at a time...
//!     for t in 0..10u32 {
//!         let batch = ClusterDatabase::build_interval(
//!             &db,
//!             &config.clustering,
//!             TimeInterval::new(t, t),
//!         );
//!         handle.ingest(batch);
//!     }
//!     // ...and query the durable history at any point.
//!     handle.flush();
//!     handle.top_k(3).unwrap().len()
//! });
//! assert!(outcome.errors.is_empty());
//! assert_eq!(outcome.value, 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use gpdt_clustering::ClusterDatabase;
use gpdt_core::{Crowd, CrowdRecord, EngineStats, Gathering, GatheringEngine};
use gpdt_geo::Mbr;
use gpdt_trajectory::{ObjectId, TimeInterval, Timestamp};

use crate::store::{GatheringHit, PatternStore, RecordId, SpillStop, StoreError};

/// Commands processed by the ingest worker, in FIFO order.
enum Command {
    /// Ingest one cluster batch and store the newly finalized records.
    Clusters(ClusterDatabase),
    /// Barrier: acknowledged only after every earlier command finished.
    Flush(SyncSender<()>),
    /// Serialise the engine state (after flushing the store so checkpoint
    /// and store stay in lockstep).
    Checkpoint(SyncSender<Result<Vec<u8>, ServiceError>>),
    /// Snapshot the service/engine counters.
    Stats(SyncSender<ServiceStats>),
    /// Probe a degraded store and drain the ingest queue on success.
    TryRecover(SyncSender<bool>),
    /// Dump the flight recorder as JSON, on demand (the in-band variant of
    /// the automatic dumps on panic and degraded entry).
    FlightRecorder(SyncSender<String>),
}

/// How long either end of the service's channels polls for the other end's
/// next message before it goes to sleep in the channel.
///
/// In a stream the worker's next batch, and the caller's flush
/// acknowledgement, are tens of microseconds away — less than it costs to
/// put a thread to sleep and wake it up again, twice a tick.  Anything
/// further off (an idle stream, a checkpoint) is slept through as before.
const HANDOFF_POLL: Duration = Duration::from_micros(200);

/// `rx.recv()`, after polling for up to [`HANDOFF_POLL`] — on a machine with
/// a second core for the sender to run on meanwhile (the core count is
/// asked of the OS once per process: [`gpdt_obs::host_threads`]).
fn recv_soon<T>(rx: &Receiver<T>) -> Result<T, mpsc::RecvError> {
    if gpdt_obs::host_threads() > 1 {
        let start = Instant::now();
        while start.elapsed() < HANDOFF_POLL {
            match rx.try_recv() {
                Ok(message) => return Ok(message),
                Err(TryRecvError::Disconnected) => return Err(mpsc::RecvError),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
    }
    rx.recv()
}

/// What [`MonitorService::run`] drives: a [`GatheringEngine`], or a wrapper
/// around one.  The worker reads everything it needs — the finalized feed,
/// the cluster database those records resolve against, checkpoints, stats —
/// off [`MonitoredEngine::engine`]; only ingestion and the rebuild after a
/// panic go through the wrapper, which is the seam the service's panic tests
/// inject through.
pub trait MonitoredEngine: Send {
    /// The engine behind this value.
    fn engine(&self) -> &GatheringEngine;
    /// Ingests one cluster batch (adjacency already validated).
    fn ingest_batch(&mut self, batch: ClusterDatabase);
    /// This value around `engine`, the engine a
    /// [recovery point](self#the-recovery-point) rebuilt.
    fn rebuilt(&self, engine: GatheringEngine) -> Self
    where
        Self: Sized;
}

impl MonitoredEngine for GatheringEngine {
    fn engine(&self) -> &GatheringEngine {
        self
    }

    fn ingest_batch(&mut self, batch: ClusterDatabase) {
        self.ingest_clusters(batch);
    }

    fn rebuilt(&self, engine: GatheringEngine) -> Self {
        engine
    }
}

/// A consistent snapshot of the service's ingestion counters and the
/// engine's load, taken by the ingest worker between commands (so it never
/// races a batch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cluster batches applied so far.
    pub batches_ingested: u64,
    /// Batches rejected (non-adjacent start, or twice-panicking).
    pub batches_rejected: u64,
    /// Ticks applied so far.
    pub ticks_ingested: u64,
    /// Records the engine has finalized.
    pub finalized_records: usize,
    /// Records durably stored (trails `finalized_records` only transiently,
    /// or when durable storage halted).
    pub stored_records: usize,
    /// Store appends retried after a transient fault.
    pub retries: u64,
    /// Ingestion panics recovered from the in-memory recovery point.
    pub panics_recovered: u64,
    /// If degraded, the batch count when degradation began.
    pub degraded_since: Option<u64>,
    /// Batches queued while degraded.
    pub queued_batches: usize,
    /// The engine's load ([`GatheringEngine::stats`]).
    pub engine: EngineStats,
}

/// Typed rejections surfaced by [`ServiceHandle`] queries and checkpoints.
#[derive(Debug)]
pub enum ServiceError {
    /// Durable storage is degraded: transient faults exhausted the retry
    /// budget.  Ingest is queued and queries are rejected until a batch or
    /// [`ServiceHandle::try_recover`] brings the store back.
    Degraded {
        /// The batch count when degradation began.
        since_batch: u64,
        /// The fault that exhausted the retry budget.
        reason: String,
    },
    /// The request cannot be served in the current state (halted or lagging
    /// durable storage); retrying without intervention will not help.
    Refused(String),
    /// A store fault surfaced directly (e.g. the fsync of a checkpoint).
    Store(StoreError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Degraded {
                since_batch,
                reason,
            } => write!(f, "service degraded since batch {since_batch}: {reason}"),
            ServiceError::Refused(reason) => write!(f, "{reason}"),
            ServiceError::Store(err) => write!(f, "store error: {err}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Store(err) => Some(err),
            _ => None,
        }
    }
}

impl From<StoreError> for ServiceError {
    fn from(err: StoreError) -> Self {
        ServiceError::Store(err)
    }
}

/// Transient-fault retries before the service enters degraded mode.
const MAX_RETRIES: u32 = 4;
/// First retry delay; attempt `n` waits up to `BASE_BACKOFF * 2^(n-1)`.
const BASE_BACKOFF: Duration = Duration::from_millis(1);
/// Ceiling on any single backoff delay.
const MAX_BACKOFF: Duration = Duration::from_millis(50);
/// Seed for the backoff jitter (each delay is drawn from 50–100% of the
/// exponential ceiling, so colliding retries de-synchronise).
const JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Batches between refreshes of the in-memory recovery point: the most a
/// panic recovery replays.  A refresh costs what those batches added,
/// whatever the interval.
const RECOVERY_INTERVAL: usize = 16;
/// Most batches queued while degraded; beyond this, batches are dropped
/// (and reported) rather than exhausting memory.
const MAX_QUEUED_BATCHES: usize = 4096;

/// Everything [`MonitorService::run`] hands back: the engine and store (for
/// continued use, checkpointing or clean shutdown) plus the closure's result
/// and any ingestion errors.
#[derive(Debug)]
pub struct MonitorOutcome<T, E = GatheringEngine> {
    /// The engine, caught up with every ingested batch.
    pub engine: E,
    /// The store, holding every finalized record.
    pub store: PatternStore,
    /// The closure's return value.
    pub value: T,
    /// Ingestion-side errors (rejected batches, store faults, recovered
    /// panics), in occurrence order.  Ingestion continues past errors; an
    /// empty list means every batch was applied and stored undisturbed.
    pub errors: Vec<String>,
}

/// The concurrent monitoring service.  See the [module docs](self).
#[derive(Debug)]
pub struct MonitorService;

impl MonitorService {
    /// Runs the service for the duration of `f`.
    ///
    /// The engine must be the producer of the store's existing records: a
    /// freshly restored checkpoint next to its store (even an *older*
    /// checkpoint — re-finalized records are verified against the stored
    /// ones and skipped), or a fresh engine next to an empty store.  A store
    /// whose records diverge from what the engine finalizes is detected and
    /// excluded from further appends (reported via
    /// [`MonitorOutcome::errors`]); such an archive is an end state for
    /// queries, not a resumable companion.
    ///
    /// # Panics
    ///
    /// Panics if the ingest worker itself panicked (panics raised *inside*
    /// batch ingestion are caught and recovered; malformed batches and store
    /// faults are reported via [`MonitorOutcome::errors`]).
    pub fn run<E, T, F>(engine: E, store: PatternStore, f: F) -> MonitorOutcome<T, E>
    where
        E: MonitoredEngine,
        F: FnOnce(&ServiceHandle<'_>) -> T,
    {
        // Bring up the live telemetry plane (sampler, SLO watchdog, and the
        // /metrics + /health + /flightrec endpoint) if the environment asks
        // for it; a no-op otherwise, and idempotent across nested services.
        gpdt_obs::telemetry_from_env();
        let store = RwLock::new(store);
        let errors = Mutex::new(Vec::new());
        let degraded = RwLock::new(None);
        let (tx, rx) = mpsc::channel::<Command>();

        let (value, engine) = std::thread::scope(|scope| {
            let store_ref = &store;
            let errors_ref = &errors;
            let degraded_ref = &degraded;
            let worker = scope.spawn(move || {
                IngestWorker::new(engine, store_ref, errors_ref, degraded_ref).run(rx)
            });
            let handle = ServiceHandle {
                tx: &tx,
                store: &store,
                degraded: &degraded,
            };
            let value = f(&handle);
            drop(tx); // closes the channel; the worker drains and exits
            let engine = worker
                .join()
                .expect("the ingest worker catches in-batch panics and never panics itself");
            (value, engine)
        });

        MonitorOutcome {
            engine,
            store: store.into_inner().expect("no thread holds the store lock"),
            value,
            errors: errors.into_inner().expect("no thread holds the error lock"),
        }
    }
}

/// The discovery state as of the last refresh, held structurally: what
/// panic recovery rebuilds the engine from (see the
/// [module docs](self#the-recovery-point)).  Public for the panic lattice,
/// which drives a point without a service around it.
#[doc(hidden)]
pub struct RecoveryPoint {
    /// The point's own spine of the cluster history: the engine's database
    /// as of the refresh, tick arenas shared with it.
    history: ClusterDatabase,
    /// The finalized feed as of the refresh.
    finalized: Vec<CrowdRecord>,
    /// The Lemma 4 frontier as of the refresh.
    frontier: Vec<(Crowd, Vec<Gathering>)>,
    /// The engine's tick count as of the refresh.
    ticks_ingested: u64,
}

impl RecoveryPoint {
    /// The point of an engine as the service is handed it — fresh, or
    /// restored with a history, whose spine is cloned this once.
    pub fn of(engine: &GatheringEngine) -> Self {
        RecoveryPoint {
            history: engine.cluster_database().clone(),
            finalized: engine.finalized_records().to_vec(),
            frontier: engine.frontier().to_vec(),
            ticks_ingested: engine.ticks_ingested(),
        }
    }

    /// Brings the point up to `engine`, which has ingested exactly `replay`
    /// since the last refresh: the batches are moved onto the spine, the
    /// ticks the engine has retired meanwhile are let go, the finalized feed
    /// is topped up and the frontier replaced.  Returns the ticks and the
    /// finalized records the point took on — over a run, what the engine
    /// ingested and finalized.
    pub fn top_up(
        &mut self,
        engine: &GatheringEngine,
        replay: &mut Vec<ClusterDatabase>,
    ) -> (u64, u64) {
        let mut ticks = 0;
        for batch in replay.drain(..) {
            ticks += batch.len() as u64;
            if self.history.is_empty() {
                self.history = batch;
            } else {
                self.history.append(batch);
            }
        }
        let resident = engine.cluster_database().time_domain();
        if let Some(resident) = resident {
            self.history.evict_before(resident.start);
        }
        debug_assert_eq!(self.history.time_domain(), resident);
        let fresh = &engine.finalized_records()[self.finalized.len()..];
        self.finalized.extend_from_slice(fresh);
        self.frontier.clear();
        self.frontier.extend_from_slice(engine.frontier());
        self.ticks_ingested = engine.ticks_ingested();
        (ticks, fresh.len() as u64)
    }

    /// The engine as of the last refresh, rebuilt under `engine`'s
    /// configuration and host-side knobs (threads, retention) — which no
    /// ingest touches, so they are good to read even off an engine a panic
    /// left half-mutated.
    pub fn restore(&self, engine: &GatheringEngine) -> GatheringEngine {
        GatheringEngine::from_parts(
            *engine.config(),
            engine.strategy(),
            engine.variant(),
            self.history.clone(),
            self.finalized.clone(),
            self.frontier.clone(),
        )
        .with_ticks_ingested(self.ticks_ingested)
        .with_threads(engine.threads())
        .with_retention(engine.retention())
    }
}

/// The ingest worker: drains commands, feeds the engine (recovering from
/// panics), mirrors newly finalized records into the store (retrying
/// transient faults, degrading when they persist).
struct IngestWorker<'a, E: MonitoredEngine> {
    engine: E,
    store: &'a RwLock<PatternStore>,
    errors: &'a Mutex<Vec<String>>,
    degraded: &'a RwLock<Option<(u64, String)>>,
    /// Jitter rng state (xorshift64; never zero).
    rng: u64,
    /// Engine-finalized records accounted for in the store, as a prefix:
    /// either appended by us or verified equal to a pre-existing record.
    accounted: usize,
    /// The last spill stopped on a store error, so frames may still be
    /// queued: the write barrier is still owed.
    unflushed: bool,
    /// `false` once a fatal fault halted durable storage for the session.
    storing: bool,
    /// Batches queued while degraded, drained in order on recovery.
    queue: VecDeque<ClusterDatabase>,
    /// What panic recovery rebuilds the engine from.
    recovery: RecoveryPoint,
    /// Batches ingested since `recovery` was last refreshed, for replay.
    replay: Vec<ClusterDatabase>,
    /// Length of the last durable checkpoint, which sizes the next one's
    /// buffer.
    checkpoint_len: usize,
    batches_ingested: u64,
    batches_rejected: u64,
    ticks_ingested: u64,
    retries: u64,
    panics_recovered: u64,
    /// Last tick applied, stamped onto flight-recorder events.
    last_tick: Option<Timestamp>,
}

impl<'a, E: MonitoredEngine> IngestWorker<'a, E> {
    fn new(
        engine: E,
        store: &'a RwLock<PatternStore>,
        errors: &'a Mutex<Vec<String>>,
        degraded: &'a RwLock<Option<(u64, String)>>,
    ) -> Self {
        let recovery = RecoveryPoint::of(engine.engine());
        IngestWorker {
            engine,
            store,
            errors,
            degraded,
            rng: JITTER_SEED | 1,
            accounted: 0,
            unflushed: false,
            storing: true,
            queue: VecDeque::new(),
            recovery,
            replay: Vec::new(),
            checkpoint_len: 0,
            batches_ingested: 0,
            batches_rejected: 0,
            ticks_ingested: 0,
            retries: 0,
            panics_recovered: 0,
            last_tick: None,
        }
    }

    fn run(mut self, rx: Receiver<Command>) -> E {
        // Startup reconciliation: the store may lag the engine (a fresh
        // store next to a restored checkpoint — backfill) or lead it (the
        // engine restored from an *older* checkpoint — the overlap will be
        // verified record by record as the engine re-finalizes it).
        let stored = self.store_len();
        let finalized = self.engine.engine().finalized_records().len();
        self.accounted = stored.min(finalized);
        if stored < finalized {
            if let Err(reason) = self.catch_up() {
                self.enter_degraded(reason);
            }
        }

        while let Ok(command) = recv_soon(&rx) {
            match command {
                Command::Clusters(batch) => {
                    // While degraded, each incoming batch re-probes the store
                    // once (no backoff — the channel must keep draining).
                    if !self.is_degraded() || self.probe_recovery(false) {
                        self.apply_batch(batch);
                    } else {
                        self.enqueue(batch);
                    }
                }
                Command::Flush(ack) => {
                    let _ = ack.send(());
                }
                Command::Stats(reply) => {
                    let _ = reply.send(self.snapshot());
                }
                Command::TryRecover(reply) => {
                    let _ = reply.send(self.probe_recovery(true));
                }
                Command::Checkpoint(reply) => {
                    let _ = reply.send(self.handle_checkpoint());
                }
                Command::FlightRecorder(reply) => {
                    let _ = reply.send(gpdt_obs::flight().to_json());
                }
            }
        }
        self.engine
    }

    fn report(&self, message: String) {
        self.errors
            .lock()
            .expect("error list lock is never poisoned")
            .push(message);
    }

    fn store_len(&self) -> usize {
        self.store
            .read()
            .expect("store lock is never poisoned")
            .len()
    }

    fn is_degraded(&self) -> bool {
        self.degraded
            .read()
            .expect("degraded flag lock is never poisoned")
            .is_some()
    }

    fn enter_degraded(&mut self, reason: String) {
        self.report(format!(
            "durable storage degraded after batch {}: {reason}; queueing ingest until recovery",
            self.batches_ingested
        ));
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("service.degraded.entries").inc();
            gpdt_obs::record_event(
                "service.degraded.enter",
                self.last_tick,
                format!("after batch {}: {reason}", self.batches_ingested),
            );
            // Degraded entry is a post-mortem moment: persist the event
            // trail now, in case the process never recovers.
            gpdt_obs::flight().dump();
            gpdt_obs::health::set_degraded(self.batches_ingested, &reason);
        }
        *self
            .degraded
            .write()
            .expect("degraded flag lock is never poisoned") = Some((self.batches_ingested, reason));
    }

    fn exit_degraded(&mut self) {
        if gpdt_obs::enabled() && self.is_degraded() {
            gpdt_obs::record_event(
                "service.degraded.exit",
                self.last_tick,
                format!("recovered at batch {}", self.batches_ingested),
            );
            gpdt_obs::health::set_recovered();
        }
        *self
            .degraded
            .write()
            .expect("degraded flag lock is never poisoned") = None;
    }

    fn enqueue(&mut self, batch: ClusterDatabase) {
        if self.queue.len() >= MAX_QUEUED_BATCHES {
            self.report(format!(
                "degraded ingest queue full ({} batches); dropping incoming batch",
                self.queue.len()
            ));
            self.batches_rejected += 1;
        } else {
            self.queue.push_back(batch);
        }
    }

    /// While degraded: probe the store (with the full retry budget when
    /// `patient`), and on success drain the queue in order.  Returns whether
    /// the service left degraded mode with storage working.
    fn probe_recovery(&mut self, patient: bool) -> bool {
        if !self.is_degraded() {
            return self.storing;
        }
        let probed = if patient {
            self.catch_up().is_ok()
        } else {
            self.sync_store().is_ok()
        };
        if !probed {
            return false;
        }
        self.exit_degraded();
        let drained = self.queue.len();
        if self.storing {
            self.report(format!(
                "durable storage recovered; draining {drained} queued batches"
            ));
        } else {
            self.report(format!(
                "durable storage halted permanently; draining {drained} queued batches into the \
                 engine only"
            ));
        }
        while let Some(batch) = self.queue.pop_front() {
            self.apply_batch(batch);
            if self.is_degraded() {
                break; // the store failed again; keep the rest queued
            }
        }
        self.storing && !self.is_degraded()
    }

    /// The normal-path ingestion of one batch: adjacency check, panic-safe
    /// engine ingest, then the store sync (entering degraded mode if the
    /// retry budget runs out).
    fn apply_batch(&mut self, batch: ClusterDatabase) {
        let Some(batch_domain) = batch.time_domain() else {
            return; // empty batches are no-ops
        };
        // `ingest_clusters` treats a non-adjacent batch as a programmer
        // error and panics; a long-running service rejects it instead and
        // keeps serving.
        if let Some(resident) = self.engine.engine().cluster_database().time_domain() {
            let expected = resident.end + 1;
            if batch_domain.start != expected {
                self.report(format!(
                    "rejected batch starting at t={} (expected t={expected})",
                    batch_domain.start
                ));
                self.batches_rejected += 1;
                return;
            }
        }
        if !self.ingest_recovering(&batch) {
            return;
        }
        self.batches_ingested += 1;
        self.ticks_ingested += u64::from(batch_domain.len());
        self.last_tick = Some(batch_domain.end);
        if gpdt_obs::enabled() {
            // `service.batches` feeds the watchdog's ingest-stall rule and
            // `/health`'s `batches_applied`; the health surface tracks the
            // last tick.
            gpdt_obs::counter!("service.batches").inc();
            gpdt_obs::health::note_ingest(self.last_tick);
        }
        self.replay.push(batch);
        if self.replay.len() >= RECOVERY_INTERVAL {
            self.refresh_recovery_point();
        }
        if self.storing {
            if let Err(reason) = self.catch_up() {
                self.enter_degraded(reason);
            }
        }
    }

    /// Feeds one batch to the engine, recovering from a panic by rebuilding
    /// the engine from the recovery point, replaying the batches since and
    /// retrying the batch once.  Returns whether the batch was applied.
    fn ingest_recovering(&mut self, batch: &ClusterDatabase) -> bool {
        let first =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.engine.ingest_batch(batch.clone())));
        if first.is_ok() {
            return true;
        }
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("service.worker_panics").inc();
            gpdt_obs::record_event(
                "service.worker.panic",
                batch.time_domain().map(|d| d.start),
                "ingestion panicked; rebuilding the engine from the recovery point",
            );
        }
        self.restore_and_replay();
        let retry =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.engine.ingest_batch(batch.clone())));
        match retry {
            Ok(()) => {
                self.panics_recovered += 1;
                if gpdt_obs::enabled() {
                    gpdt_obs::counter!("service.panics_recovered").inc();
                    gpdt_obs::record_event(
                        "service.panic.recovered",
                        batch.time_domain().map(|d| d.start),
                        "recovery-point restore + replay + retry succeeded",
                    );
                }
                self.report(format!(
                    "ingestion panicked on the batch starting at t={:?}; recovered from the \
                     in-memory recovery point and retried successfully",
                    batch.time_domain().map(|d| d.start)
                ));
                true
            }
            Err(_) => {
                // The batch panics deterministically; restore once more so
                // the half-mutated engine never leaks into later batches.
                self.restore_and_replay();
                self.report(format!(
                    "ingestion panicked twice on the batch starting at t={:?}; batch rejected",
                    batch.time_domain().map(|d| d.start)
                ));
                self.batches_rejected += 1;
                false
            }
        }
    }

    fn restore_and_replay(&mut self) {
        self.engine = self
            .engine
            .rebuilt(self.recovery.restore(self.engine.engine()));
        for past in &self.replay {
            self.engine.ingest_batch(past.clone());
        }
    }

    /// Moves the panic-recovery point up to the engine's current state, at
    /// the cost of what the replayed batches added (see
    /// [`RecoveryPoint::top_up`]).
    fn refresh_recovery_point(&mut self) {
        let _span = gpdt_obs::span!("service.recovery.refresh");
        let (ticks, records) = self.recovery.top_up(self.engine.engine(), &mut self.replay);
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("service.recovery.ticks_copied").add(ticks);
            gpdt_obs::counter!("service.recovery.records_copied").add(records);
        }
    }

    /// Brings the store in sync with the engine's finalized feed, retrying
    /// transient faults with backoff.  `Err` carries the reason once the
    /// retry budget is exhausted; fatal faults halt storage and return
    /// `Ok` (there is nothing left to retry).
    fn catch_up(&mut self) -> Result<(), String> {
        self.retrying("catch_up", Self::sync_store)
            .map_err(|err| err.to_string())
    }

    /// Runs `op` until it succeeds or fails for good, retrying a transient
    /// store fault up to `MAX_RETRIES` times with backoff.
    fn retrying(
        &mut self,
        site: &str,
        mut op: impl FnMut(&mut Self) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut attempt: u32 = 0;
        loop {
            match op(self) {
                Err(err) if err.is_transient() && attempt < MAX_RETRIES => {
                    attempt += 1;
                    self.retries += 1;
                    self.note_retry(site, attempt, &err.to_string());
                    std::thread::sleep(self.backoff_delay(attempt));
                }
                result => return result,
            }
        }
    }

    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let ceiling = BASE_BACKOFF.saturating_mul(1u32 << exp).min(MAX_BACKOFF);
        let nanos = ceiling.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Jitter: a seeded draw from 50–100% of the exponential ceiling.
        let jittered = nanos / 2 + self.next_rand() % (nanos / 2 + 1);
        if gpdt_obs::enabled() {
            gpdt_obs::record_event(
                "service.backoff",
                self.last_tick,
                format!("attempt {attempt}: sleeping {jittered}ns"),
            );
        }
        Duration::from_nanos(jittered)
    }

    /// Journals one transient-fault retry (counter + flight event).
    fn note_retry(&self, site: &str, attempt: u32, error: &str) {
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("service.retries").inc();
            gpdt_obs::record_event(
                "service.retry",
                self.last_tick,
                format!("{site} attempt {attempt}: {error}"),
            );
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// One [`PatternStore::spill`] of the engine's unaccounted finalized
    /// records, mapped onto the supervision policy.  `Err` is a transient
    /// fault, retried from where the spill stopped — a barrier write it
    /// could not finish is owed even by a pass with nothing left to append.
    /// A fatal fault (invalid record, divergent store) halts durable storage
    /// — discovery keeps running — and returns `Ok`: retrying could never
    /// succeed, so it must not livelock.
    fn sync_store(&mut self) -> Result<(), StoreError> {
        let engine = self.engine.engine();
        let records = engine.finalized_records();
        if self.accounted >= records.len() && !self.unflushed {
            return Ok(());
        }
        let first = self.accounted;
        let spill = self
            .store
            .write()
            .expect("store lock is never poisoned")
            .spill(&records[first..], first, engine.cluster_database());
        self.accounted += spill.accounted;
        let at = self.accounted;
        self.unflushed = matches!(spill.stop, Some(SpillStop::Store(_)));
        let reason = match spill.stop {
            None => return Ok(()),
            Some(SpillStop::Store(err)) if err.is_transient() => return Err(err),
            Some(SpillStop::Behind) => {
                format!("the store holds fewer than the {at} records accounted for")
            }
            // Under bounded retention a record can only outlive its clusters
            // if the store lagged across an eviction (a halted or chronically
            // failing store).
            Some(SpillStop::Unresolvable) => format!(
                "finalized record #{at} references evicted clusters (store lagged across a \
                 retention eviction)"
            ),
            Some(SpillStop::Diverged) => format!(
                "stored record #{at} diverges from what this engine finalizes — not this \
                 engine's history"
            ),
            Some(SpillStop::Store(err)) if at == records.len() => {
                format!("the store failed to write finalized records up to #{at} ({err})")
            }
            Some(SpillStop::Store(err)) => {
                format!("finalized record #{at} was refused by the store ({err})")
            }
        };
        self.report(format!(
            "{reason}; halting durable storage, discovery continues"
        ));
        self.storing = false;
        Ok(())
    }

    fn handle_checkpoint(&mut self) -> Result<Vec<u8>, ServiceError> {
        // The advertised contract is a *consistent* (checkpoint, store)
        // pair: retry any backfill a transient error left pending, and
        // refuse the checkpoint if the store still lags the engine.
        if self.storing && !self.is_degraded() {
            if let Err(reason) = self.catch_up() {
                self.enter_degraded(reason);
            }
        }
        if let Some((since_batch, reason)) = self
            .degraded
            .read()
            .expect("degraded flag lock is never poisoned")
            .clone()
        {
            return Err(ServiceError::Degraded {
                since_batch,
                reason,
            });
        }
        if !self.storing {
            return Err(ServiceError::Refused(
                "durable storage is halted (see the service error list); checkpoint refused"
                    .to_string(),
            ));
        }
        if self.accounted < self.engine.engine().finalized_records().len() {
            return Err(ServiceError::Refused(
                "store is lagging the engine's finalized records; checkpoint refused".to_string(),
            ));
        }
        self.retrying("checkpoint_sync", |worker| {
            worker
                .store
                .write()
                .expect("store lock is never poisoned")
                .sync()
        })?;
        // The one place the service serialises the engine: once, into a
        // buffer sized by the previous durable checkpoint, handed over as is.
        // (Its pages are fresh, which costs the encode ~0.2 µs a KB here; a
        // buffer kept warm between calls is what the recovery refresh was.)
        let mut bytes = Vec::with_capacity(self.checkpoint_len + self.checkpoint_len / 8);
        crate::checkpoint::checkpoint_into_vec(self.engine.engine(), &mut bytes);
        self.checkpoint_len = bytes.len();
        // A consistent (checkpoint, store) pair is also the freshest
        // possible panic-recovery point.
        self.refresh_recovery_point();
        Ok(bytes)
    }

    fn snapshot(&self) -> ServiceStats {
        let engine = self.engine.engine().stats();
        ServiceStats {
            batches_ingested: self.batches_ingested,
            batches_rejected: self.batches_rejected,
            ticks_ingested: self.ticks_ingested,
            finalized_records: engine.finalized_records,
            stored_records: self.store_len(),
            retries: self.retries,
            panics_recovered: self.panics_recovered,
            degraded_since: self
                .degraded
                .read()
                .expect("degraded flag lock is never poisoned")
                .as_ref()
                .map(|(since, _)| *since),
            queued_batches: self.queue.len(),
            engine,
        }
    }
}

/// The caller-side handle of a running [`MonitorService`].
///
/// Cheap to share (`&ServiceHandle` is `Send + Sync`): spawn as many query
/// threads as needed inside the service closure.
#[derive(Debug)]
pub struct ServiceHandle<'a> {
    tx: &'a Sender<Command>,
    store: &'a RwLock<PatternStore>,
    degraded: &'a RwLock<Option<(u64, String)>>,
}

impl ServiceHandle<'_> {
    /// Enqueues one cluster batch for ingestion and returns immediately.
    ///
    /// Batches are applied in submission order.  A batch that does not start
    /// right after the engine's current time domain is rejected (reported in
    /// [`MonitorOutcome::errors`]); empty batches are ignored.  While the
    /// service is degraded, batches are queued and drained on recovery.
    pub fn ingest(&self, batch: ClusterDatabase) {
        self.tx
            .send(Command::Clusters(batch))
            .expect("the ingest worker outlives every handle");
    }

    /// Blocks until every previously enqueued batch has been ingested and
    /// its finalized records stored.  Queries after a flush are
    /// deterministic.
    pub fn flush(&self) {
        let (ack, wait) = mpsc::sync_channel(0);
        self.tx
            .send(Command::Flush(ack))
            .expect("the ingest worker outlives every handle");
        recv_soon(&wait).expect("the ingest worker answers every flush");
    }

    /// Flushes, fsyncs the store and serialises the engine state — a
    /// consistent (checkpoint, store) pair for crash recovery.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Degraded`] while the store is degraded,
    /// [`ServiceError::Refused`] when durable storage halted or lags the
    /// engine, [`ServiceError::Store`] for a direct store fault; the engine
    /// serialisation itself cannot fail.
    pub fn checkpoint(&self) -> Result<Vec<u8>, ServiceError> {
        let (reply, wait) = mpsc::sync_channel(0);
        self.tx
            .send(Command::Checkpoint(reply))
            .expect("the ingest worker outlives every handle");
        wait.recv()
            .expect("the ingest worker answers every checkpoint request")
    }

    /// Probes a degraded store with the full retry budget and drains the
    /// ingest queue on success; returns whether the service is healthy
    /// (never was degraded, or recovered) with durable storage working.
    pub fn try_recover(&self) -> bool {
        let (reply, wait) = mpsc::sync_channel(0);
        self.tx
            .send(Command::TryRecover(reply))
            .expect("the ingest worker outlives every handle");
        wait.recv()
            .expect("the ingest worker answers every recovery probe")
    }

    /// Number of records currently stored.
    pub fn stored(&self) -> usize {
        self.read().len()
    }

    /// A consistent snapshot of the service's ingestion counters and the
    /// engine's load (taken by the ingest worker, so it reflects every batch
    /// enqueued before this call once they have been applied — call
    /// [`ServiceHandle::flush`] first for a quiescent snapshot).
    pub fn stats(&self) -> ServiceStats {
        let (reply, wait) = mpsc::sync_channel(0);
        self.tx
            .send(Command::Stats(reply))
            .expect("the ingest worker outlives every handle");
        wait.recv()
            .expect("the ingest worker answers every stats request")
    }

    /// The flight recorder's JSON dump, on demand — the same document the
    /// service writes on panic or degraded entry, but taken by the ingest
    /// worker between commands, so it reflects every batch enqueued before
    /// this call once they have been applied.  Returns an empty event list
    /// when `GPDT_OBS=off`.
    pub fn flight_recorder(&self) -> String {
        let (reply, wait) = mpsc::sync_channel(0);
        self.tx
            .send(Command::FlightRecorder(reply))
            .expect("the ingest worker outlives every handle");
        wait.recv()
            .expect("the ingest worker answers every flight-recorder request")
    }

    /// The region × time-window query (see
    /// [`PatternStore::query_gatherings`]); results are owned so the store
    /// lock is released before returning.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Degraded`] while the store is degraded (the durable
    /// history is behind the stream; answers would be stale).
    pub fn query_gatherings(
        &self,
        region: &Mbr,
        window: TimeInterval,
    ) -> Result<Vec<GatheringHit>, ServiceError> {
        self.guard()?;
        Ok(self.read().query_gatherings(region, window))
    }

    /// Record ids of crowds active during `window`
    /// (see [`PatternStore::crowds_in_window`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Degraded`] while the store is degraded.
    pub fn crowds_in_window(&self, window: TimeInterval) -> Result<Vec<RecordId>, ServiceError> {
        self.guard()?;
        Ok(self.read().crowds_in_window(window))
    }

    /// The participation history of one object
    /// (see [`PatternStore::object_history`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Degraded`] while the store is degraded.
    pub fn object_history(&self, object: ObjectId) -> Result<Vec<GatheringHit>, ServiceError> {
        self.guard()?;
        Ok(self.read().object_history(object))
    }

    /// The `k` most-attended stored gatherings
    /// (see [`PatternStore::top_k_gatherings`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Degraded`] while the store is degraded.
    pub fn top_k(&self, k: usize) -> Result<Vec<GatheringHit>, ServiceError> {
        self.guard()?;
        Ok(self.read().top_k_gatherings(k))
    }

    fn guard(&self) -> Result<(), ServiceError> {
        if let Some((since_batch, reason)) = self
            .degraded
            .read()
            .expect("degraded flag lock is never poisoned")
            .clone()
        {
            return Err(ServiceError::Degraded {
                since_batch,
                reason,
            });
        }
        Ok(())
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, PatternStore> {
        self.store.read().expect("store lock is never poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreOptions;
    use crate::vfs::{FaultPlan, FaultVfs};
    use gpdt_core::{
        ClusteringParams, CrowdParams, DiscoveryResult, GatheringConfig, GatheringParams,
    };
    use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gpdt-service-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> GatheringConfig {
        GatheringConfig::builder()
            .clustering(ClusteringParams::new(60.0, 3))
            .crowd(CrowdParams::new(3, 3, 100.0))
            .gathering(GatheringParams::new(3, 3))
            .build()
            .unwrap()
    }

    /// Two separate lingering blobs, one after the other, so at least two
    /// crowds finalize at different times.
    fn scene() -> TrajectoryDatabase {
        let mut trajectories = Vec::new();
        for i in 0..4u32 {
            trajectories.push(Trajectory::from_points(
                ObjectId::new(i),
                (0..8u32)
                    .map(|t| (t, (i as f64 * 10.0, t as f64)))
                    .collect::<Vec<_>>(),
            ));
        }
        for i in 10..14u32 {
            trajectories.push(Trajectory::from_points(
                ObjectId::new(i),
                (10..20u32)
                    .map(|t| (t, (5_000.0 + f64::from(i) * 10.0, t as f64)))
                    .collect::<Vec<_>>(),
            ));
        }
        TrajectoryDatabase::from_trajectories(trajectories)
    }

    /// The uninterrupted one-batch run the service's output is held to.
    fn offline_run(db: &TrajectoryDatabase) -> DiscoveryResult {
        let mut engine = GatheringEngine::new(config());
        engine.ingest_trajectories(db);
        engine.finish()
    }

    fn tick_batches(db: &TrajectoryDatabase) -> Vec<ClusterDatabase> {
        let domain = db.time_domain().unwrap();
        domain
            .iter()
            .map(|t| {
                ClusterDatabase::build_interval(db, &config().clustering, TimeInterval::new(t, t))
            })
            .collect()
    }

    #[test]
    fn service_matches_offline_run_and_serves_queries() {
        let db = scene();
        let reference = offline_run(&db);
        assert!(reference.crowd_count() >= 2);

        let dir = temp_dir("match");
        let store = PatternStore::open(&dir).unwrap();
        let engine = GatheringEngine::new(config());
        let outcome = MonitorService::run(engine, store, |handle| {
            for batch in tick_batches(&db) {
                handle.ingest(batch);
            }
            handle.flush();
            (
                handle.stored(),
                handle.top_k(10).unwrap(),
                handle.object_history(ObjectId::new(0)).unwrap(),
            )
        });
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);

        // The engine matches an offline batch run...
        assert_eq!(outcome.engine.closed_crowds(), reference.crowds);
        assert_eq!(outcome.engine.gatherings(), reference.gatherings);

        // ...and the store holds every *finalized* record (the final
        // frontier crowd only finalizes once later data arrives).
        let (stored, top, history) = outcome.value;
        assert_eq!(stored, outcome.engine.finalized_records().len());
        assert!(!top.is_empty());
        assert!(!history.is_empty());

        // Reopening the store finds the same records.
        drop(outcome.store);
        let reopened = PatternStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), stored);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_queries_run_during_ingestion() {
        let db = scene();
        let dir = temp_dir("concurrent");
        let store = PatternStore::open(&dir).unwrap();
        let engine = GatheringEngine::new(config());
        let outcome = MonitorService::run(engine, store, |handle| {
            std::thread::scope(|scope| {
                let ingester = scope.spawn(|| {
                    for batch in tick_batches(&db) {
                        handle.ingest(batch);
                    }
                    handle.flush();
                });
                // Hammer queries from two threads while ingestion runs; the
                // count is monotone because the store is append-only.
                let mut watchers = Vec::new();
                for _ in 0..2 {
                    watchers.push(scope.spawn(|| {
                        let mut last = 0;
                        for _ in 0..200 {
                            let now = handle.stored();
                            assert!(now >= last, "store count went backwards");
                            last = now;
                            let _ = handle.top_k(3).unwrap();
                            let _ = handle.crowds_in_window(TimeInterval::new(0, 100)).unwrap();
                        }
                    }));
                }
                ingester.join().unwrap();
                for watcher in watchers {
                    watcher.join().unwrap();
                }
            });
            handle.stored()
        });
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        assert_eq!(outcome.value, outcome.engine.finalized_records().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_adjacent_batches_are_rejected_not_fatal() {
        let db = scene();
        let batches = tick_batches(&db);
        let dir = temp_dir("reject");
        let store = PatternStore::open(&dir).unwrap();
        let engine = GatheringEngine::new(config());
        let outcome = MonitorService::run(engine, store, |handle| {
            handle.ingest(batches[0].clone());
            handle.ingest(batches[5].clone()); // gap: rejected
            handle.ingest(batches[1].clone()); // still accepted
            handle.flush();
        });
        assert_eq!(outcome.errors.len(), 1);
        assert!(
            outcome.errors[0].contains("rejected batch"),
            "{:?}",
            outcome.errors
        );
        assert_eq!(outcome.engine.time_domain(), Some(TimeInterval::new(0, 1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_through_the_service_is_restorable() {
        let db = scene();
        let batches = tick_batches(&db);
        let dir = temp_dir("checkpoint");
        let store = PatternStore::open(&dir).unwrap();
        let engine = GatheringEngine::new(config());
        let outcome = MonitorService::run(engine, store, |handle| {
            for batch in batches.iter().take(12).cloned() {
                handle.ingest(batch);
            }
            handle.checkpoint().unwrap()
        });
        assert!(outcome.errors.is_empty());

        // Restore mid-stream, feed the rest, compare with the uninterrupted
        // engine continuing from the same point.
        let mut restored = crate::checkpoint::restore_from_slice(&outcome.value).unwrap();
        let mut uninterrupted = outcome.engine;
        for batch in batches.iter().skip(12) {
            restored.ingest_clusters(batch.clone());
            uninterrupted.ingest_clusters(batch.clone());
        }
        assert_eq!(restored.closed_crowds(), uninterrupted.closed_crowds());
        assert_eq!(restored.gatherings(), uninterrupted.gatherings());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_snapshot_tracks_ingestion_and_engine_load() {
        let db = scene();
        let batches = tick_batches(&db);
        let total_ticks = batches.len() as u64;
        let dir = temp_dir("stats");
        let store = PatternStore::open(&dir).unwrap();
        let engine = GatheringEngine::new(config());
        let outcome = MonitorService::run(engine, store, |handle| {
            for batch in batches.iter().cloned() {
                handle.ingest(batch);
            }
            handle.flush();
            let mid = handle.stats();
            handle.ingest(batches[3].clone()); // non-adjacent: rejected
            handle.flush();
            (mid, handle.stats())
        });
        let (mid, end) = outcome.value;
        assert_eq!(mid.batches_ingested, total_ticks);
        assert_eq!(mid.batches_rejected, 0);
        assert_eq!(mid.ticks_ingested, total_ticks);
        assert_eq!(
            mid.finalized_records,
            outcome.engine.finalized_records().len()
        );
        assert_eq!(mid.stored_records, mid.finalized_records);
        assert_eq!(mid.retries, 0);
        assert_eq!(mid.panics_recovered, 0);
        assert_eq!(mid.degraded_since, None);
        assert_eq!(mid.queued_batches, 0);
        assert_eq!(mid.engine, outcome.engine.stats());
        assert!(mid.engine.resident_ticks > 0);
        assert!(mid.engine.resident_clusters > 0);
        assert_eq!(end.batches_rejected, 1);
        assert_eq!(end.ticks_ingested, total_ticks);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restored_engine_backfills_a_lagging_store() {
        let db = scene();
        let mut engine = GatheringEngine::new(config());
        engine.ingest_trajectories(&db);
        let finalized = engine.finalized_records().len();
        assert!(finalized >= 1);

        // Fresh (empty) store next to an engine with history: the worker
        // catches the store up before processing any command.
        let dir = temp_dir("backfill");
        let store = PatternStore::open(&dir).unwrap();
        let outcome = MonitorService::run(engine, store, |handle| {
            handle.flush();
            handle.stored()
        });
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.value, finalized);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Like [`scene`] but with four consecutive blobs, so several crowds
    /// finalize (and are appended) while the stream is still running.
    fn long_scene() -> TrajectoryDatabase {
        let mut trajectories = Vec::new();
        for blob in 0..4u32 {
            let start = blob * 10;
            for i in 0..4u32 {
                trajectories.push(Trajectory::from_points(
                    ObjectId::new(blob * 100 + i),
                    (start..start + 8)
                        .map(|t| {
                            (
                                t,
                                (f64::from(blob) * 5_000.0 + f64::from(i) * 10.0, t as f64),
                            )
                        })
                        .collect::<Vec<_>>(),
                ));
            }
        }
        TrajectoryDatabase::from_trajectories(trajectories)
    }

    #[test]
    fn transient_store_faults_are_retried_invisibly() {
        let db = long_scene();
        let reference = offline_run(&db);
        assert!(reference.crowd_count() >= 4);

        // Tiny segments force a rotation (flush + sync + create, all VFS
        // traffic) on nearly every append, so the one-in-three transient
        // write and fsync faults actually bite.  On this seed no sync pass
        // fails five times running, which would exhaust the budget of four
        // retries and degrade.
        let vfs = FaultVfs::new(0xBEEF);
        let store = PatternStore::open_at(
            Arc::new(vfs.clone()),
            "/svc",
            StoreOptions {
                max_segment_bytes: 64,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        vfs.set_plan(FaultPlan {
            transient_write_one_in: Some(3),
            transient_sync_one_in: Some(3),
            ..FaultPlan::default()
        });
        let outcome = MonitorService::run(GatheringEngine::new(config()), store, |handle| {
            let domain = db.time_domain().unwrap();
            for t in domain.iter() {
                handle.ingest(ClusterDatabase::build_interval(
                    &db,
                    &config().clustering,
                    TimeInterval::new(t, t),
                ));
            }
            handle.flush();
            (handle.stored(), handle.stats())
        });
        let (stored, stats) = outcome.value;
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        assert_eq!(outcome.engine.closed_crowds(), reference.crowds);
        assert_eq!(stored, outcome.engine.finalized_records().len());
        assert!(stored >= 3, "several crowds must have been stored mid-run");
        assert!(
            stats.retries > 0,
            "the fault schedule must have forced at least one retry"
        );
        assert_eq!(stats.degraded_since, None);
    }

    #[test]
    fn persistent_faults_degrade_and_recovery_drains_the_queue() {
        // The scene, then empty ticks: the first crowd's record fails at
        // t=8, and the 4 097 one-tick batches after it — one more than the
        // degraded queue holds — arrive while the store keeps failing.
        let db = scene();
        let last = 8 + MAX_QUEUED_BATCHES as Timestamp + 1;
        let batches: Vec<ClusterDatabase> = (0..=last)
            .map(|t| {
                ClusterDatabase::build_interval(&db, &config().clustering, TimeInterval::new(t, t))
            })
            .collect();
        let scene_ticks = db.time_domain().unwrap().len() as usize;
        let mut undisturbed = GatheringEngine::new(config());
        for batch in batches.iter().cloned() {
            undisturbed.ingest_clusters(batch);
        }

        let vfs = FaultVfs::new(0xD1CE);
        let store = PatternStore::open_at(
            Arc::new(vfs.clone()),
            "/svc",
            StoreOptions {
                max_segment_bytes: 256,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let outcome = MonitorService::run(GatheringEngine::new(config()), store, |handle| {
            // The first batches land healthily — before any crowd
            // finalizes (the first blob's crowd closes at t=8).
            for batch in batches.iter().take(6).cloned() {
                handle.ingest(batch);
            }
            handle.flush();
            assert_eq!(handle.stats().degraded_since, None);

            // Now every write fails: the first crowd's record cannot be
            // stored, the retry budget runs out, the service degrades.
            vfs.set_plan(FaultPlan {
                transient_write_one_in: Some(1),
                ..FaultPlan::default()
            });
            for batch in batches[6..scene_ticks].iter().cloned() {
                handle.ingest(batch);
            }
            handle.flush();
            let degraded = handle.stats();
            assert_eq!(degraded.degraded_since, Some(9), "{degraded:?}");
            assert_eq!(degraded.queued_batches, scene_ticks - 9, "{degraded:?}");
            assert!(matches!(
                handle.top_k(3),
                Err(ServiceError::Degraded { .. })
            ));
            assert!(matches!(
                handle.checkpoint(),
                Err(ServiceError::Degraded { .. })
            ));
            assert!(!handle.try_recover(), "the store is still failing");

            // Still failing, the queue fills: the batch past its bound is
            // dropped and reported, not queued.
            for batch in batches[scene_ticks..].iter().cloned() {
                handle.ingest(batch);
            }
            handle.flush();
            let full = handle.stats();
            assert_eq!(full.queued_batches, MAX_QUEUED_BATCHES, "{full:?}");
            assert_eq!(full.batches_rejected, 1, "{full:?}");

            // The weather clears: recovery drains the queue in order, and
            // the caller sends the dropped batch again.
            vfs.clear_faults();
            assert!(handle.try_recover());
            handle.ingest(batches[last as usize].clone());
            handle.flush();
            let healthy = handle.stats();
            assert_eq!(healthy.degraded_since, None);
            assert_eq!(healthy.queued_batches, 0);
            assert_eq!(healthy.batches_ingested, batches.len() as u64);
            (handle.stored(), healthy)
        });
        let (stored, healthy) = outcome.value;
        // The degradation, the one dropped batch and the recovery were
        // reported...
        assert!(
            outcome
                .errors
                .iter()
                .any(|e| e.contains("degraded after batch 9")),
            "{:?}",
            outcome.errors
        );
        let dropped: Vec<&String> = outcome
            .errors
            .iter()
            .filter(|e| e.contains("queue full"))
            .collect();
        assert_eq!(
            dropped,
            ["degraded ingest queue full (4096 batches); dropping incoming batch"]
        );
        assert!(
            outcome.errors.iter().any(|e| e.contains("recovered")),
            "{:?}",
            outcome.errors
        );
        // ...and the end state is exactly what an undisturbed run produces.
        assert_eq!(outcome.engine.closed_crowds(), undisturbed.closed_crowds());
        assert_eq!(outcome.engine.gatherings(), undisturbed.gatherings());
        assert_eq!(
            outcome.engine.finalized_records(),
            undisturbed.finalized_records()
        );
        assert!(!undisturbed.finalized_records().is_empty());
        assert_eq!(stored, outcome.engine.finalized_records().len());
        assert!(healthy.retries > 0);
    }

    /// A [`MonitoredEngine`] wrapper that panics on the `n`-th ingested
    /// batch — once; the wrapper rebuilt from a recovery point is benign.
    struct PanicOnNth {
        inner: GatheringEngine,
        panic_at: Option<u64>,
        seen: u64,
    }

    impl MonitoredEngine for PanicOnNth {
        fn engine(&self) -> &GatheringEngine {
            &self.inner
        }
        fn ingest_batch(&mut self, batch: ClusterDatabase) {
            self.seen += 1;
            if self.panic_at == Some(self.seen) {
                self.panic_at = None;
                panic!("injected ingest panic");
            }
            self.inner.ingest_clusters(batch);
        }
        fn rebuilt(&self, engine: GatheringEngine) -> Self {
            PanicOnNth {
                inner: engine,
                panic_at: None,
                seen: self.seen,
            }
        }
    }

    #[test]
    fn ingest_panic_is_recovered_with_identical_output() {
        let db = scene();
        let reference = offline_run(&db);

        let dir = temp_dir("panic");
        let store = PatternStore::open(&dir).unwrap();
        let engine = PanicOnNth {
            inner: GatheringEngine::new(config()),
            panic_at: Some(13),
            seen: 0,
        };
        let outcome = MonitorService::run(engine, store, |handle| {
            for batch in tick_batches(&db) {
                handle.ingest(batch);
            }
            handle.flush();
            (handle.stored(), handle.stats())
        });
        let (stored, stats) = outcome.value;
        assert_eq!(stats.panics_recovered, 1);
        assert_eq!(outcome.errors.len(), 1, "{:?}", outcome.errors);
        assert!(
            outcome.errors[0].contains("recovered"),
            "{:?}",
            outcome.errors
        );
        // The panic (and the restore + replay it forced) left no trace in
        // the discovery output or the durable history.
        assert_eq!(outcome.engine.inner.closed_crowds(), reference.crowds);
        assert_eq!(outcome.engine.inner.gatherings(), reference.gatherings);
        assert_eq!(stored, outcome.engine.inner.finalized_records().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_ahead_of_engine_is_verified_and_skipped() {
        let db = scene();
        let batches = tick_batches(&db);
        let dir = temp_dir("ahead");

        // First run: checkpoint early, then keep streaming, so the store
        // ends up holding records the checkpointed engine has not finalized.
        let first = MonitorService::run(
            GatheringEngine::new(config()),
            PatternStore::open(&dir).unwrap(),
            |handle| {
                for batch in batches.iter().take(6).cloned() {
                    handle.ingest(batch);
                }
                let ckpt = handle.checkpoint().unwrap();
                for batch in batches.iter().skip(6).cloned() {
                    handle.ingest(batch);
                }
                handle.flush();
                (ckpt, handle.stored())
            },
        );
        assert!(first.errors.is_empty(), "{:?}", first.errors);
        let (ckpt, stored_after_first) = first.value;
        drop(first.store);

        // Second run resumes from the *older* checkpoint against the full
        // store: every re-finalized record is verified against the stored
        // one and skipped, never duplicated.
        let engine = crate::checkpoint::restore_from_slice(&ckpt).unwrap();
        let resumed = MonitorService::run(engine, PatternStore::open(&dir).unwrap(), |handle| {
            for batch in batches.iter().skip(6).cloned() {
                handle.ingest(batch);
            }
            handle.flush();
            handle.stored()
        });
        assert!(resumed.errors.is_empty(), "{:?}", resumed.errors);
        assert_eq!(resumed.value, stored_after_first, "no duplicates, no loss");
        assert_eq!(resumed.engine.finalized_records().len(), stored_after_first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn divergent_store_halts_durable_storage() {
        let db = scene();
        let batches = tick_batches(&db);
        let dir = temp_dir("diverge");

        // Populate the store with one configuration's records...
        let first = MonitorService::run(
            GatheringEngine::new(config()),
            PatternStore::open(&dir).unwrap(),
            |handle| {
                for batch in batches.iter().cloned() {
                    handle.ingest(batch);
                }
                handle.flush();
                handle.stored()
            },
        );
        assert!(first.value >= 1);
        drop(first.store);

        // ...then resume a fresh engine over a *shifted* copy of the scene:
        // the crowds it finalizes live at different coordinates, so the
        // first re-finalized record diverges from the stored one.  The
        // divergence halts storage; the store is never corrupted by appends
        // from a foreign engine.
        let shifted = TrajectoryDatabase::from_trajectories((0..4u32).map(|i| {
            Trajectory::from_points(
                ObjectId::new(i),
                (0..8u32)
                    .map(|t| (t, (1_000.0 + f64::from(i) * 10.0, t as f64)))
                    .collect::<Vec<_>>(),
            )
        }));
        let outcome = MonitorService::run(
            GatheringEngine::new(config()),
            PatternStore::open(&dir).unwrap(),
            |handle| {
                for t in shifted.time_domain().unwrap().iter() {
                    handle.ingest(ClusterDatabase::build_interval(
                        &shifted,
                        &config().clustering,
                        TimeInterval::new(t, t),
                    ));
                }
                // One empty tick so the blob's crowd actually finalizes.
                handle.ingest(ClusterDatabase::build_interval(
                    &db,
                    &config().clustering,
                    TimeInterval::new(8, 9),
                ));
                handle.flush();
                handle.stored()
            },
        );
        assert!(
            outcome.errors.iter().any(|e| e.contains("diverges")),
            "{:?}",
            outcome.errors
        );
        assert_eq!(outcome.value, first.value, "the store was left untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
