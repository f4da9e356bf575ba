//! `city_stream`: the production monitoring path, end to end.
//!
//! One clear synthetic day under the paper's thresholds, streamed by one
//! closed-loop client a tick at a time — snapshot → DBSCAN
//! (`StreamingClusterer::advance_until`) → `ServiceHandle::ingest` →
//! `flush` — through `MonitorService<GatheringEngine>` with every default
//! (GRID, TAD\*, default `SupervisorPolicy`) onto a real-fs `PatternStore`.
//! The day has five crash sites: 32 ticks before each fifth of the day ends
//! the service checkpoints, and at its end the files as they are then — that
//! checkpoint and the store, a torn half-frame appended to its last
//! segment — are set aside.  After the day, cold recovery from each site is
//! timed: restore, reopen (tail repair), replay the 32 ticks.

use std::path::PathBuf;
use std::time::Instant;

use gpdt_clustering::StreamingClusterer;
use gpdt_core::{GatheringConfig, GatheringEngine};
use gpdt_store::{restore_from_slice, MonitorService, PatternRecord, ServiceHandle};
use gpdt_trajectory::{Timestamp, TrajectoryDatabase};
use gpdt_workload::{generate_scenario, GeneratedScenario};

use super::{
    clustered_point_bytes, copy_dir, dir_bytes, elapsed_ms, elapsed_us, payload_bytes, tear_tail,
    Checks, Metrics, PassEnv, PassStats, Workload,
};
use crate::inputs::{canonical_records, city_scenario, slice_batches, Digest};
use crate::layers;
use crate::spans::Recorder;

/// Ticks streamed between a checkpoint and the crash that follows it, and
/// replayed by the recovery.
const TICKS_AFTER_CHECKPOINT: u32 = 32;
/// Crashes a day: it is cut into this many equal stretches, each ending in
/// a crash.  Spread over the day — rather than five times at midnight —
/// the checkpoints and recoveries see small and large engine states, quiet
/// and busy hours, so their medians depend less on what one seed happened
/// to put into one half-hour.
const CRASH_POINTS: u32 = 5;

pub struct CityStream;

pub struct Input {
    scenario: GeneratedScenario,
    config: GatheringConfig,
    ticks: u32,
    /// The ticks before which the service checkpoints, ascending.
    checkpoint_ticks: Vec<Timestamp>,
}

/// The files one crash leaves behind.
struct CrashSite {
    checkpoint_file: PathBuf,
    /// A copy of the store directory at the crash, its last append torn.
    crashed_dir: PathBuf,
    /// First tick after the checkpoint.
    resume_at: Timestamp,
    /// First tick the crashed service never saw.
    crash_at: Timestamp,
    /// Records stored when it crashed.
    stored: usize,
}

/// The state a run ends in: the engine and the store's records.
pub struct EndState {
    engine: GatheringEngine,
    records: Vec<PatternRecord>,
}

/// Where one recovery ended up.
pub struct Recovered {
    crash_at: Timestamp,
    stored_at_crash: usize,
    end: EndState,
}

pub struct Artifacts {
    uninterrupted: EndState,
    recovered: Vec<Recovered>,
}

/// One closed-loop tick: cluster the snapshot, hand it over, wait for it to
/// be ingested and stored.  Returns the latency in microseconds.
fn tick(
    handle: &ServiceHandle<'_>,
    clusterer: &mut StreamingClusterer,
    db: &TrajectoryDatabase,
    t: Timestamp,
    rec: &mut Recorder,
    clustered: &mut (u64, u64),
) -> f64 {
    let start = Instant::now();
    let whole = rec.open("tick", u64::from(t));
    let token = rec.open("clustering.dbscan", u64::from(t));
    let batch = clusterer.advance_until(db, t);
    rec.close(token);
    if rec.is_on() {
        clustered.0 += batch.total_clusters() as u64;
        clustered.1 += batch
            .iter()
            .flat_map(|set| set.clusters.iter())
            .map(|c| c.len() as u64)
            .sum::<u64>();
    }
    let token = rec.open("store.service", u64::from(t));
    handle.ingest(batch);
    handle.flush();
    rec.close(token);
    rec.close(whole);
    elapsed_us(start)
}

impl Workload for CityStream {
    const NAME: &'static str = "city_stream";
    const TAIL_Q: f64 = 0.99;
    type Input = Input;
    type Artifacts = Artifacts;

    fn setup(seed: u64, scale: f64, rec: &mut Recorder) -> Input {
        let (scenario_config, config) = city_scenario(seed, scale);
        let scenario = rec.time("workload.generate", 0, || {
            generate_scenario(&scenario_config)
        });
        let ticks = scenario_config.duration;
        Input {
            scenario,
            config,
            ticks,
            checkpoint_ticks: (1..=CRASH_POINTS)
                .map(|i| i * ticks / CRASH_POINTS - TICKS_AFTER_CHECKPOINT)
                .collect(),
        }
    }

    fn sizes(input: &Input) -> Vec<(&'static str, f64)> {
        vec![
            ("taxis", input.scenario.database.len() as f64),
            ("ticks", f64::from(input.ticks)),
            ("points", input.scenario.database.total_samples() as f64),
            ("crash_points", f64::from(CRASH_POINTS)),
            ("ticks_replayed", f64::from(TICKS_AFTER_CHECKPOINT)),
        ]
    }

    fn input_digest(input: &Input) -> u64 {
        let mut digest = Digest::default();
        digest.update(&input.config);
        for trajectory in input.scenario.database.iter() {
            digest.update(trajectory);
        }
        digest.finish()
    }

    fn pass(input: &Input, env: &mut PassEnv<'_>) -> (PassStats, Artifacts) {
        let db = &input.scenario.database;
        let store_dir = env.dir.join("store");
        let mut stats = PassStats {
            ingest_items: db.total_samples() as u64,
            ..PassStats::default()
        };

        let token = env.rec.open("store.open", 0);
        let store = env
            .open_store(&store_dir, false)
            .expect("open a fresh store");
        let engine = GatheringEngine::new(input.config);
        let mut clusterer = StreamingClusterer::new(input.config.clustering).with_threads(1);
        env.rec.close(token);

        // The uninterrupted day.  At each checkpoint tick the service
        // checkpoints; a stretch later the files as they are then — the
        // checkpoint and the store with a torn last append — are set aside
        // as a crash site.
        let mut clustered = (0u64, 0u64);
        let mut sites: Vec<CrashSite> = Vec::new();
        let mut checkpoint_bytes = 0u64;
        let outcome = {
            let rec = &mut *env.rec;
            let dir = &env.dir;
            MonitorService::run(engine, store, |handle| {
                for t in 0..input.ticks {
                    if input.checkpoint_ticks.contains(&t) {
                        let unit = sites.len() as u64;
                        let start = Instant::now();
                        let token = rec.open("store.checkpoint", unit);
                        let result = handle.checkpoint();
                        rec.close(token);
                        stats.attempted += 1;
                        match result {
                            Ok(bytes) => {
                                stats.checkpoint_ms.push(elapsed_ms(start));
                                let token = rec.open("harness.io", unit);
                                let site = CrashSite {
                                    checkpoint_file: dir.join(format!("engine-{unit}.ckpt")),
                                    crashed_dir: dir.join(format!("crashed-{unit}")),
                                    resume_at: t,
                                    crash_at: t + TICKS_AFTER_CHECKPOINT,
                                    stored: 0,
                                };
                                checkpoint_bytes = bytes.len() as u64;
                                std::fs::write(&site.checkpoint_file, &bytes)
                                    .expect("write the checkpoint file");
                                sites.push(site);
                                rec.close(token);
                            }
                            Err(_) => stats.failed += 1,
                        }
                    }
                    stats
                        .op_us
                        .push(tick(handle, &mut clusterer, db, t, rec, &mut clustered));
                    if let Some(site) = sites.last_mut().filter(|s| s.crash_at == t + 1) {
                        let token = rec.open("harness.io", u64::from(t));
                        site.stored = handle.stored();
                        copy_dir(&store_dir, &site.crashed_dir)
                            .expect("copy the store as it crashed");
                        tear_tail(&site.crashed_dir).expect("tear the copy's tail");
                        rec.close(token);
                    }
                }
            })
        };
        stats.ingest_s = stats.op_us.iter().sum::<f64>() / 1e6;
        stats.attempted += u64::from(input.ticks);
        stats.failed += outcome.errors.len() as u64;
        let uninterrupted = EndState {
            records: outcome.store.records().to_vec(),
            engine: outcome.engine,
        };
        drop(outcome.store);
        stats.durable_bytes = checkpoint_bytes + dir_bytes(&store_dir);

        // Cold recovery, once per crash site: everything is gone but the
        // site's files.
        let mut recovered = Vec::with_capacity(sites.len());
        for (i, site) in sites.iter().enumerate() {
            let start = Instant::now();
            let whole = env.rec.open("recover", i as u64);
            stats.attempted += 1;
            let token = env.rec.open("recover.restore", i as u64);
            let restored = std::fs::read(&site.checkpoint_file)
                .ok()
                .and_then(|bytes| restore_from_slice(&bytes).ok());
            env.rec.close(token);
            let token = env.rec.open("recover.reopen", i as u64);
            // A store that was empty at the crash salvages nothing from its
            // torn tail; recovery knows that and says so.
            let reopened = env.open_store(&site.crashed_dir, site.stored == 0);
            env.rec.close(token);
            let (Some(engine), Ok(store)) = (restored, reopened) else {
                stats.failed += 1;
                env.rec.close(whole);
                continue;
            };
            let token = env.rec.open("recover.replay", i as u64);
            let mut clusterer = StreamingClusterer::new(input.config.clustering).with_threads(1);
            clusterer.seek(site.resume_at);
            let outcome = MonitorService::run(engine, store, |handle| {
                for t in site.resume_at..site.crash_at {
                    handle.ingest(clusterer.advance_until(db, t));
                }
                handle.flush();
            });
            env.rec.close(token);
            env.rec.close(whole);
            stats.recover_ms.push(elapsed_ms(start));
            stats.failed += outcome.errors.len() as u64;
            recovered.push(Recovered {
                crash_at: site.crash_at,
                stored_at_crash: site.stored,
                end: EndState {
                    records: outcome.store.records().to_vec(),
                    engine: outcome.engine,
                },
            });
        }

        // The five sites differ by design (an engine five times as large at
        // midnight as at dawn): a pass counts as the mean over its sites, so
        // that the medians over passes are not drawn from a wide mixture.
        for samples in [&mut stats.checkpoint_ms, &mut stats.recover_ms] {
            if !samples.is_empty() {
                *samples = vec![samples.iter().sum::<f64>() / samples.len() as f64];
            }
        }

        if env.rec.is_on() {
            let points = db.total_samples() as f64;
            stats.layer = vec![
                ("clustering.dbscan.points_in", points),
                ("clustering.dbscan.clusters_out", clustered.0 as f64),
                (
                    "clustering.dbscan.clustered_point_ratio",
                    clustered.1 as f64 / points.max(1.0),
                ),
            ];
        }
        (
            stats,
            Artifacts {
                uninterrupted,
                recovered,
            },
        )
    }

    fn user_bytes(input: &Input, artifacts: &Artifacts) -> u64 {
        let run = &artifacts.uninterrupted;
        let last_checkpoint = input.checkpoint_ticks.last().copied().unwrap_or(0);
        clustered_point_bytes(run.engine.cluster_database(), last_checkpoint)
            + payload_bytes(&run.records)
    }

    fn verify(input: &Input, artifacts: &Artifacts, checks: &mut Checks) -> u64 {
        let run = &artifacts.uninterrupted;
        // Second path: one engine, one batch, over the run's own clusters.
        let mut reference = GatheringEngine::new(input.config).with_threads(1);
        reference.ingest_clusters(run.engine.cluster_database().clone());
        checks.check(
            "streamed crowds = one-batch engine over the run's own clusters",
            run.engine.closed_crowds() == reference.closed_crowds(),
        );
        checks.check(
            "streamed gatherings = one-batch engine over the run's own clusters",
            run.engine.gatherings() == reference.gatherings(),
        );
        let expected =
            canonical_records(reference.finalized_records().iter().map(|record| {
                PatternRecord::from_crowd_record(record, reference.cluster_database())
            }));
        let stored = canonical_records(run.records.iter().cloned());
        checks.check(
            "stored records = the reference's finalized records",
            stored == expected,
        );
        checks.check(
            "every tick of the day was ingested",
            run.engine.time_domain().map(|d| (d.start, d.end)) == Some((0, input.ticks - 1)),
        );
        // Every recovery must end where the uninterrupted run was at that
        // tick: the store a prefix of the final store, as long as it was at
        // the crash; the last one at the very end state.
        checks.check(
            "every crash site was recovered",
            artifacts.recovered.len() == input.checkpoint_ticks.len(),
        );
        checks.check(
            "recovered-and-resumed stores = uninterrupted at each crash tick",
            artifacts.recovered.iter().all(|r| {
                r.end.records.len() == r.stored_at_crash && run.records.starts_with(&r.end.records)
            }),
        );
        let at_end = artifacts
            .recovered
            .last()
            .filter(|r| r.crash_at == input.ticks);
        checks.check(
            "recovered-and-resumed crowds = uninterrupted",
            at_end.is_some_and(|r| r.end.engine.closed_crowds() == run.engine.closed_crowds()),
        );
        checks.check(
            "recovered-and-resumed gatherings = uninterrupted",
            at_end.is_some_and(|r| r.end.engine.gatherings() == run.engine.gatherings()),
        );
        checks.check(
            "recovered-and-resumed store = uninterrupted",
            at_end.is_some_and(|r| r.end.records == run.records),
        );

        let mut digest = Digest::default();
        for record in &stored {
            digest.update_bytes(record);
        }
        for crowd in run.engine.closed_crowds() {
            digest.update(&crowd);
        }
        for gathering in run.engine.gatherings() {
            digest.update(&gathering);
        }
        digest.finish()
    }

    fn replay(input: &Input, artifacts: &Artifacts, env: &mut PassEnv<'_>, metrics: &mut Metrics) {
        let db = &input.scenario.database;
        let run = &artifacts.uninterrupted;
        let clusters = run.engine.cluster_database();
        let delta = input.config.crowd.delta;
        metrics.set("workload.points", db.total_samples() as f64);
        metrics.set(
            "geo.hausdorff.cutoff_pairs",
            gpdt_geo::bucketed_pair_cutoff() as f64,
        );

        let token = env.rec.open("trajectory.snapshot", 0);
        let start = Instant::now();
        let mut seen = 0usize;
        for t in 0..input.ticks {
            seen += std::hint::black_box(db.snapshot(t)).len();
        }
        metrics.set("trajectory.snapshot.busy_ms", elapsed_ms(start));
        env.rec.close(token);
        metrics.set("trajectory.snapshot.calls", f64::from(input.ticks));
        let dbscan_ms = metrics.get("clustering.dbscan.busy_ms");
        metrics.set(
            "clustering.dbscan.ns_per_point",
            dbscan_ms * 1e6 / seen.max(1) as f64,
        );

        layers::hausdorff(clusters, delta, env.rec, metrics);
        layers::index(clusters, delta, env.rec, metrics);
        let closed = layers::sweep(clusters, input.config.crowd, env.rec, metrics);
        layers::gathering(&closed, clusters, &input.config, 1, env.rec, metrics);
        let (engine_ms, _) = layers::engine_ingest(
            &slice_batches(clusters, 1),
            GatheringEngine::new(input.config),
            env.rec,
            metrics,
        );
        metrics.set("core.engine.ingest.busy_ms", engine_ms);
        layers::codec(&run.records, env.rec, metrics);
        layers::checkpoint(&run.engine, env.rec, metrics);
        // The service appends inside its worker, where the harness cannot
        // put a span: every store number here comes from the replay.
        let append_ms = layers::store_replay(&run.records, &[], env, metrics);

        // What the service adds on top of the engine and the store: channel
        // hand-off, the worker's recovery-checkpoint refresh, the flush wait.
        let service_ms = metrics.get("store.service.busy_ms");
        let overhead_ms = (service_ms - engine_ms - append_ms).max(0.0);
        metrics.set("store.service.overhead_ms", overhead_ms);
        if service_ms > 0.0 {
            metrics.set("store.service.overhead_share", overhead_ms / service_ms);
        }
    }
}
