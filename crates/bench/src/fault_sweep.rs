//! Deterministic crash-lattice sweeps over the fault-injection VFS.
//!
//! The durability claim of the resilient ingest pipeline is absolute: *kill
//! the storage backend at any mutating operation, reboot, resume — the
//! recovered store is byte-identical to an uninterrupted run*.  This module
//! turns that claim into a sweep that can be run both as a test
//! (`tests/fault_recovery.rs`) and as a CI job (`cargo run -p gpdt-bench
//! --bin fault`):
//!
//! 1. A reference run executes the workload on a fault-free
//!    [`FaultVfs`] and snapshots every segment file plus the total count of
//!    mutating VFS operations — the size of the kill lattice.
//! 2. [`crash_lattice`] replays the same workload once per kill point.
//!    Each point arms `kill_at = k`, drives incarnations of
//!    [`ingest_resilient`] in a loop —
//!    crash, [`FaultVfs::crash_recover`], restore the resume cursor the
//!    driver's per-batch hook persisted (progress counters plus an engine
//!    checkpoint), resume — until one incarnation completes, then
//!    compares the surviving segment bytes against the reference.
//!
//! The driver writes the store only through
//! [`PatternStore::spill`](gpdt_store::PatternStore::spill), the spill the
//! monitoring service runs too, so the kills land inside it.
//!
//! Transient faults (short writes, failed fsyncs) can be layered on top;
//! the incarnation loop treats a transient error like a supervised process
//! restart (reload the cursor, try again) and counts it separately.
//!
//! Everything is seeded: a failing sweep is reproduced by re-running with
//! the seed it prints.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpdt_clustering::{ClusterDatabase, SnapshotClusterSet};
use gpdt_core::{
    ClusteringParams, CrowdParams, GatheringConfig, GatheringEngine, GatheringParams,
    RetentionPolicy,
};
use gpdt_store::{
    checkpoint_to_vec, read_file_opt, restore_from_slice, write_file_atomic, FaultPlan, FaultVfs,
    PatternStore, StoreError, StoreOptions, Vfs,
};
use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};

use crate::out_of_core::ingest_resilient;

/// Virtual store directory inside the fault VFS.
const STORE_DIR: &str = "/lattice/store";
/// Virtual path of the persisted resume cursor.
const CURSOR_PATH: &str = "/lattice/cursor.ckpt";

/// The resume point an incarnation persists after every batch of
/// [`ingest_resilient`]: the driver's two progress counters, then an engine
/// checkpoint (which carries a magic and a version, but no checksum — the
/// file is written atomically instead).  The store is fsynced before the
/// cursor is written, so it is never behind `produced`.
struct ResilientCursor {
    next_batch: u64,
    produced: u64,
    engine: Vec<u8>,
}

impl ResilientCursor {
    fn to_vec(&self) -> Vec<u8> {
        let counters = [self.next_batch, self.produced].map(u64::to_le_bytes);
        [&counters[0][..], &counters[1], &self.engine].concat()
    }

    /// `None` if the buffer is too short to hold the counters.
    fn from_slice(bytes: &[u8]) -> Option<Self> {
        let (next_batch, rest) = bytes.split_first_chunk::<8>()?;
        let (produced, engine) = rest.split_first_chunk::<8>()?;
        Some(Self {
            next_batch: u64::from_le_bytes(*next_batch),
            produced: u64::from_le_bytes(*produced),
            engine: engine.to_vec(),
        })
    }
}

/// Shape of one crash-lattice sweep.
#[derive(Debug, Clone, Copy)]
pub struct LatticeConfig {
    /// Seed for both the kill-point sampling and every per-point VFS.
    pub seed: u64,
    /// Number of randomized kill points (the lattice size).
    pub points: usize,
    /// Byte budget handed to the resilient ingest driver.
    pub budget_bytes: usize,
    /// Segment rotation threshold — small values put rotation boundaries
    /// inside the lattice so kills land on them too.
    pub max_segment_bytes: u64,
    /// Optional transient short-write rate (one in N), layered on top of
    /// the kills after the first crash recovery.
    pub transient_write_one_in: Option<u64>,
    /// Optional transient fsync-failure rate (one in N).
    pub transient_sync_one_in: Option<u64>,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig {
            seed: 0x1CDE_2013,
            points: 200,
            // Small batches and segments pack the op schedule with batch
            // boundaries and rotations, so random kill points land on the
            // interesting transitions too.
            budget_bytes: 1 << 10,
            max_segment_bytes: 512,
            transient_write_one_in: None,
            transient_sync_one_in: None,
        }
    }
}

/// What one [`crash_lattice`] sweep observed.
#[derive(Debug, Clone, Default)]
pub struct LatticeOutcome {
    /// Kill points exercised.
    pub points: usize,
    /// Points where the kill actually fired mid-run (the rest landed past
    /// the workload's final operation and completed untouched).
    pub kills_fired: usize,
    /// Total incarnations across all points (≥ one per point).
    pub incarnations: usize,
    /// Incarnations restarted because of an injected *transient* fault
    /// rather than a kill.
    pub transient_restarts: usize,
    /// Human-readable descriptions of every broken invariant; empty means
    /// the sweep held.
    pub violations: Vec<String>,
}

impl LatticeOutcome {
    /// Whether every kill point recovered byte-identically.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A small deterministic gather/scatter workload for sweeps: `objects`
/// objects gather for six ticks and scatter for three, repeatedly, so
/// crowds keep finalizing mid-stream and the store sees a steady append
/// schedule.
#[must_use]
pub fn sweep_workload(objects: u32, duration: u32) -> (GatheringConfig, Vec<SnapshotClusterSet>) {
    let config = GatheringConfig::builder()
        .clustering(ClusteringParams::new(60.0, 3))
        .crowd(CrowdParams::new(3, 4, 100.0))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .expect("sweep workload config is valid");
    let db = TrajectoryDatabase::from_trajectories((0..objects).map(|i| {
        Trajectory::from_points(
            ObjectId::new(i),
            (0..duration)
                .map(|t| {
                    let x = if t % 9 < 6 {
                        f64::from(i) * 10.0 + f64::from(t / 9) * 700.0
                    } else {
                        f64::from(i) * 50_000.0 + f64::from(t)
                    };
                    (t, (x, 0.0))
                })
                .collect::<Vec<_>>(),
        )
    }));
    let sets = ClusterDatabase::build(&db, &config.clustering).into_sets();
    (config, sets)
}

/// What a completed incarnation chain ends with.
struct CompletedRun {
    /// The final incarnation's engine (holds the un-archived frontier).
    engine: GatheringEngine,
    /// The final incarnation's open store.
    store: PatternStore,
    /// Incarnations it took (≥ 1).
    incarnations: usize,
    /// Incarnations restarted by an injected transient fault (not a kill).
    transient_restarts: usize,
}

/// Runs one complete incarnation chain (resume-until-done) on `vfs`.
fn run_to_completion(
    vfs: &FaultVfs,
    config: &GatheringConfig,
    sets: &[SnapshotClusterSet],
    budget_bytes: usize,
    max_segment_bytes: u64,
) -> Result<CompletedRun, String> {
    // Far above anything a healthy schedule needs: a single kill costs one
    // extra incarnation, and transient rates are well below 1-in-2.
    const MAX_INCARNATIONS: usize = 64;
    let mut incarnations = 0usize;
    let mut transient_restarts = 0usize;
    loop {
        incarnations += 1;
        if incarnations > MAX_INCARNATIONS {
            return Err(format!(
                "no incarnation out of {MAX_INCARNATIONS} completed; the schedule livelocked"
            ));
        }
        match run_incarnation(vfs, config, sets, budget_bytes, max_segment_bytes) {
            Ok((engine, store)) => {
                return Ok(CompletedRun {
                    engine,
                    store,
                    incarnations,
                    transient_restarts,
                })
            }
            Err(err) => {
                if vfs.killed() {
                    // The planned crash: reboot and resume from the cursor.
                    vfs.crash_recover();
                } else if err.is_transient() {
                    // An injected short write / failed fsync surfaced to the
                    // driver; a supervisor would restart it from the cursor.
                    transient_restarts += 1;
                } else {
                    return Err(format!("fatal error while recovering: {err}"));
                }
            }
        }
    }
}

/// One incarnation: load the cursor, open the store, resume the resilient
/// ingest, persist a fresh cursor after every batch.
fn run_incarnation(
    vfs: &FaultVfs,
    config: &GatheringConfig,
    sets: &[SnapshotClusterSet],
    budget_bytes: usize,
    max_segment_bytes: u64,
) -> Result<(GatheringEngine, PatternStore), StoreError> {
    let cursor = read_file_opt(vfs, Path::new(CURSOR_PATH))?.and_then(|b| {
        // The cursor is written atomically, so a decodable-but-short file
        // cannot occur; `None` only ever means "no cursor yet".
        ResilientCursor::from_slice(&b)
    });
    let (mut engine, start_batch, produced) = match &cursor {
        Some(c) => {
            let engine = restore_from_slice(&c.engine)
                .map_err(|_| StoreError::InvalidRecord("corrupt resilient cursor"))?
                .with_retention(RetentionPolicy::Bounded);
            (engine, c.next_batch as usize, c.produced as usize)
        }
        None => (
            GatheringEngine::new(*config).with_retention(RetentionPolicy::Bounded),
            0,
            0,
        ),
    };
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut store = PatternStore::open_at(
        arc,
        PathBuf::from(STORE_DIR),
        StoreOptions {
            max_segment_bytes,
            // Only when the resume point predates the first acknowledged
            // record is "the log decoded to nothing" a legitimate crash
            // outcome rather than corruption.
            allow_empty_salvage: produced == 0,
        },
    )?;
    ingest_resilient(
        &mut engine,
        sets,
        budget_bytes,
        &mut store,
        start_batch,
        produced,
        |engine, next_batch, produced| {
            let cursor = ResilientCursor {
                next_batch: next_batch as u64,
                produced: produced as u64,
                engine: checkpoint_to_vec(engine),
            };
            write_file_atomic(vfs, Path::new(CURSOR_PATH), &cursor.to_vec())?;
            Ok(())
        },
    )?;
    Ok((engine, store))
}

/// Sorted `(file name, bytes)` snapshot of every store segment in the VFS.
fn segment_bytes(vfs: &FaultVfs) -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(STORE_DIR);
    let mut names = vfs.list_dir(&dir).unwrap_or_default();
    names.retain(|n| n.starts_with("seg-"));
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = vfs.read_file(&dir.join(&n)).unwrap_or_default();
            (n, bytes)
        })
        .collect()
}

/// Runs the workload once on a fault-free VFS; returns the segment-file
/// snapshot (the byte-identical target) and the total number of mutating
/// VFS operations (the kill-lattice extent).
#[must_use]
fn reference_run(
    config: &GatheringConfig,
    sets: &[SnapshotClusterSet],
    budget_bytes: usize,
    max_segment_bytes: u64,
) -> (Vec<(String, Vec<u8>)>, u64) {
    let vfs = FaultVfs::new(0);
    let _ = run_incarnation(&vfs, config, sets, budget_bytes, max_segment_bytes)
        .expect("reference run on a fault-free vfs cannot fail");
    (segment_bytes(&vfs), vfs.ops())
}

/// Mines `sets` to completion under a rolling fault schedule: a guaranteed
/// kill half-way through a fault-free run's mutating operations, a
/// repeating kill every `kill_every` operations after each recovery, and a
/// sprinkle of transient short writes and fsync failures — then archives
/// the surviving engine's closed frontier exactly like a healthy shutdown
/// would.
///
/// Returns the final records plus `(incarnations, transient_restarts)` so
/// callers can log how rough the ride was.  Because every recovery is
/// byte-identical, the records equal a fault-free run's; `fig5` uses this
/// to produce the *same* BENCH JSON with `GPDT_FAULT_SEED` set.
///
/// # Panics
///
/// Panics if the schedule cannot complete (a durability bug — exactly what
/// the CI smoke wants to catch loudly).
#[must_use]
pub fn mine_under_faults(
    seed: u64,
    config: &GatheringConfig,
    sets: &[SnapshotClusterSet],
    budget_bytes: usize,
) -> (Vec<gpdt_store::PatternRecord>, usize, usize) {
    // Segments of a few records each: a day's store rotates, and so folds
    // its participation log, several times under the faults below.
    const MAX_SEGMENT_BYTES: u64 = 4 * 1024;
    // The kill point comes from the workload's own operation count, as the
    // crash lattice's do, so it lands mid-run however few batches the
    // budget makes of the input (a one-batch day included).
    let (_, total_ops) = reference_run(config, sets, budget_bytes, MAX_SEGMENT_BYTES);
    // Transient faults also scale with the operation count: a run expects
    // about two of them at any scale.  Each one restarts and re-mines the
    // current batch, so a fixed rate would restart a day more often the
    // more it writes.
    let transient_one_in = (total_ops / 2).max(2);
    let vfs = FaultVfs::with_plan(
        seed,
        FaultPlan {
            // The re-armed kill is generous so even a huge batch can finish
            // between crashes instead of livelocking.
            kill_at: Some((total_ops / 2).max(1)),
            kill_every: Some(20_000),
            transient_write_one_in: Some(transient_one_in),
            transient_sync_one_in: Some(transient_one_in),
            capacity: None,
        },
    );
    let done = run_to_completion(&vfs, config, sets, budget_bytes, MAX_SEGMENT_BYTES)
        .expect("fault-injected mining must recover to completion");
    let CompletedRun {
        engine,
        mut store,
        incarnations,
        transient_restarts,
    } = done;
    // The stream is over; archive the frontier the way a clean shutdown
    // does.  The weather clears first: the archive spills at the store's
    // end, with no resume point of its own to verify against, so
    // restarting it mid-way would append its records twice — faults stop
    // at the ingest boundary.
    vfs.clear_faults();
    store
        .archive_closed_frontier(&engine)
        .expect("archiving on a fault-free vfs cannot fail");
    (store.records().to_vec(), incarnations, transient_restarts)
}

/// Runs the full crash lattice: for each of `cfg.points` seeded kill
/// points, crash + recover until completion and compare the surviving
/// store against the fault-free reference byte for byte.
#[must_use]
pub fn crash_lattice(
    cfg: &LatticeConfig,
    config: &GatheringConfig,
    sets: &[SnapshotClusterSet],
) -> LatticeOutcome {
    let (want, total_ops) = reference_run(config, sets, cfg.budget_bytes, cfg.max_segment_bytes);
    assert!(total_ops > 0, "the workload must touch storage");

    let mut outcome = LatticeOutcome {
        points: cfg.points,
        ..LatticeOutcome::default()
    };
    let mut rng = cfg.seed | 1;
    for point in 0..cfg.points {
        // xorshift64; the first two points pin the lattice's edges.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let kill_at = match point {
            0 => 1,
            1 => total_ops,
            _ => 1 + rng % total_ops,
        };
        let vfs = FaultVfs::with_plan(
            cfg.seed ^ kill_at.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            FaultPlan {
                kill_at: Some(kill_at),
                transient_write_one_in: cfg.transient_write_one_in,
                transient_sync_one_in: cfg.transient_sync_one_in,
                ..FaultPlan::default()
            },
        );
        match run_to_completion(&vfs, config, sets, cfg.budget_bytes, cfg.max_segment_bytes) {
            Ok(done) => {
                drop((done.engine, done.store));
                outcome.incarnations += done.incarnations;
                outcome.transient_restarts += done.transient_restarts;
                if done.incarnations > 1 || vfs.killed() {
                    outcome.kills_fired += 1;
                }
                let got = segment_bytes(&vfs);
                if got != want {
                    outcome.violations.push(format!(
                        "kill point {kill_at}/{total_ops}: recovered store differs from the \
                         uninterrupted run ({} vs {} segments)",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(why) => outcome
                .violations
                .push(format!("kill point {kill_at}/{total_ops}: {why}")),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_run_is_deterministic() {
        let (config, sets) = sweep_workload(6, 90);
        let (a, ops_a) = reference_run(&config, &sets, 2 << 10, 512);
        let (b, ops_b) = reference_run(&config, &sets, 2 << 10, 512);
        assert_eq!(ops_a, ops_b);
        assert_eq!(a, b);
        assert!(
            a.len() > 1,
            "a 512-byte rotation threshold must produce several segments"
        );
    }

    #[test]
    fn small_lattice_recovers_byte_identically() {
        // The full ≥200-point lattice lives in `tests/fault_recovery.rs`;
        // this keeps a fast tripwire next to the harness itself.
        let (config, sets) = sweep_workload(6, 90);
        let cfg = LatticeConfig {
            points: 16,
            budget_bytes: 2 << 10,
            ..LatticeConfig::default()
        };
        let outcome = crash_lattice(&cfg, &config, &sets);
        assert!(outcome.passed(), "violations: {:#?}", outcome.violations);
        assert!(outcome.kills_fired > 0, "some kills must actually fire");
    }

    #[test]
    fn fault_injected_mining_matches_clean_output() {
        let (config, sets) = sweep_workload(6, 90);
        let clean = FaultVfs::new(0);
        let (engine, mut store) =
            run_incarnation(&clean, &config, &sets, 2 << 10, 4 * 1024 * 1024).unwrap();
        store.archive_closed_frontier(&engine).unwrap();
        let want = store.records().to_vec();
        assert!(!want.is_empty());

        let (got, incarnations, _) = mine_under_faults(0xFA_017, &config, &sets, 2 << 10);
        assert!(incarnations > 1, "the mid-run kill must fire");
        assert_eq!(got, want);
    }
}
