//! Layer replay: feeds a run's recorded inputs to each layer's public entry
//! point from the harness thread and reports busy time and work counts at
//! that boundary.  Replay numbers say what a layer costs on its own; the
//! traced passes say what it costs in place.

use std::path::Path;
use std::time::Instant;

use gpdt_clustering::{ClusterDatabase, SnapshotCluster};
use gpdt_core::{
    detect_closed_gatherings, Crowd, CrowdDiscovery, CrowdParams, GatheringConfig, GatheringEngine,
    RangeSearchStrategy, SearcherScratch, TadVariant, TickSearcher,
};
use gpdt_store::{
    checkpoint_to_vec, decode_from_slice, encode_to_vec, restore_from_slice, PatternRecord,
    PatternStore, StoreError,
};

use crate::inputs::synthetic_crowd;
use crate::spans::Recorder;
use crate::stats::{percentile, sorted};
use crate::workloads::{elapsed_ms, Metrics, PassEnv};

/// The paper's three indexed strategies with the labels used in metric names.
pub const STRATEGIES: [(RangeSearchStrategy, &str); 3] = [
    (RangeSearchStrategy::Grid, "grid"),
    (RangeSearchStrategy::RTreeDmin, "sr"),
    (RangeSearchStrategy::RTreeDside, "ir"),
];

/// Synthetic crowds added to the gathering-detection replay, and their length.
const SYNTHETIC_CROWDS: u64 = 200;
const SYNTHETIC_CROWD_LEN: usize = 120;

/// `geo.hausdorff.*`: the thresholded Hausdorff test over every pair of
/// consecutive-tick clusters whose bounding boxes are within `delta`.
pub fn hausdorff(cdb: &ClusterDatabase, delta: f64, rec: &mut Recorder, metrics: &mut Metrics) {
    let mut pairs: Vec<(&SnapshotCluster, &SnapshotCluster)> = Vec::new();
    let sets: Vec<_> = cdb.iter().collect();
    for window in sets.windows(2) {
        for a in &window[0].clusters {
            for b in &window[1].clusters {
                if a.mbr().min_distance(b.mbr()) <= delta {
                    pairs.push((a, b));
                }
            }
        }
    }
    let token = rec.open("geo.hausdorff", 0);
    let start = Instant::now();
    let within = pairs
        .iter()
        .filter(|(a, b)| a.within_hausdorff(b, delta))
        .count();
    let busy_ms = elapsed_ms(start);
    rec.close(token);
    metrics.set("geo.hausdorff.busy_ms", busy_ms);
    metrics.set("geo.hausdorff.pairs", pairs.len() as f64);
    metrics.set(
        "geo.hausdorff.within_ratio",
        ratio(within as f64, pairs.len() as f64),
    );
}

/// `index.build.*` / `index.search.*`: per tick, build the searcher over
/// tick `t + 1` and search every cluster of tick `t` against it.
pub fn index(cdb: &ClusterDatabase, delta: f64, rec: &mut Recorder, metrics: &mut Metrics) {
    let sets: Vec<_> = cdb.iter().collect();
    for (strategy, label) in STRATEGIES {
        let token = rec.open("index.replay", 0);
        let mut scratch = SearcherScratch::new();
        let mut out = Vec::new();
        let (mut build_s, mut search_s) = (0.0, 0.0);
        let (mut clusters_in, mut queries, mut candidates, mut results) = (0usize, 0, 0, 0);
        for window in sets.windows(2) {
            let start = Instant::now();
            let searcher = TickSearcher::build_with(strategy, window[1], delta, &mut scratch);
            build_s += start.elapsed().as_secs_f64();
            clusters_in += window[1].len();
            let start = Instant::now();
            for query in &window[0].clusters {
                let stats = searcher.search_into(query, &mut out);
                candidates += stats.candidates;
                results += stats.results;
            }
            search_s += start.elapsed().as_secs_f64();
            queries += window[0].len();
        }
        rec.close(token);
        metrics.set(&format!("index.build.{label}.busy_ms"), build_s * 1e3);
        metrics.set(
            &format!("index.build.{label}.clusters_in"),
            clusters_in as f64,
        );
        metrics.set(&format!("index.search.{label}.busy_ms"), search_s * 1e3);
        metrics.set(&format!("index.search.{label}.queries"), queries as f64);
        metrics.set(
            &format!("index.search.{label}.candidates"),
            candidates as f64,
        );
        metrics.set(&format!("index.search.{label}.results"), results as f64);
        metrics.set(
            &format!("index.search.{label}.precision"),
            ratio(results as f64, candidates as f64),
        );
    }
}

/// `core.sweep.*`: Algorithm 1 over the whole cluster database, once per
/// strategy on one thread.  Returns the closed crowds (the same under every
/// strategy).  Call after [`index`]: `core.sweep.self_ms` subtracts its
/// grid build and search times.
pub fn sweep(
    cdb: &ClusterDatabase,
    params: CrowdParams,
    rec: &mut Recorder,
    metrics: &mut Metrics,
) -> Vec<Crowd> {
    let mut closed = Vec::new();
    for (strategy, label) in STRATEGIES {
        let token = rec.open("core.sweep", 0);
        let start = Instant::now();
        let result = CrowdDiscovery::new(params, strategy)
            .with_threads(1)
            .run(cdb);
        metrics.set(&format!("core.sweep.{label}.busy_ms"), elapsed_ms(start));
        rec.close(token);
        closed = result.closed_crowds;
    }
    metrics.set("core.sweep.closed_crowds", closed.len() as f64);
    let own = metrics.get("core.sweep.grid.busy_ms")
        - metrics.get("index.build.grid.busy_ms")
        - metrics.get("index.search.grid.busy_ms");
    metrics.set("core.sweep.self_ms", own.max(0.0));
    closed
}

/// `core.gathering.*`: TAD and TAD\* over the run's closed crowds plus 200
/// seeded jam-like synthetic crowds of length 120.
pub fn gathering(
    closed: &[Crowd],
    cdb: &ClusterDatabase,
    config: &GatheringConfig,
    seed: u64,
    rec: &mut Recorder,
    metrics: &mut Metrics,
) {
    let synthetic: Vec<(ClusterDatabase, Crowd)> = (0..SYNTHETIC_CROWDS)
        .map(|i| {
            synthetic_crowd(
                seed.wrapping_mul(1_000).wrapping_add(i),
                SYNTHETIC_CROWD_LEN,
            )
        })
        .collect();
    let kc = config.crowd.kc;
    for (variant, label) in [(TadVariant::Tad, "tad"), (TadVariant::TadStar, "tadstar")] {
        let token = rec.open("core.gathering", 0);
        let start = Instant::now();
        let mut found = 0usize;
        for crowd in closed {
            found += detect_closed_gatherings(crowd, cdb, &config.gathering, kc, variant).len();
        }
        for (own_cdb, crowd) in &synthetic {
            found += detect_closed_gatherings(crowd, own_cdb, &config.gathering, kc, variant).len();
        }
        metrics.set(
            &format!("core.gathering.{label}.busy_ms"),
            elapsed_ms(start),
        );
        rec.close(token);
        metrics.set(
            &format!("core.gathering.{label}.crowds_in"),
            (closed.len() + synthetic.len()) as f64,
        );
        metrics.set(
            &format!("core.gathering.{label}.gatherings_out"),
            found as f64,
        );
    }
}

/// `core.engine.*` except `core.engine.ingest.busy_ms`: a bare engine over
/// the identical batches.  Returns the busy time in milliseconds — the
/// caller reports it unless its passes timed the engine in place — and the
/// engine as the batches left it.
pub fn engine_ingest(
    batches: &[ClusterDatabase],
    mut engine: GatheringEngine,
    rec: &mut Recorder,
    metrics: &mut Metrics,
) -> (f64, GatheringEngine) {
    let token = rec.open("core.engine.replay", 0);
    let mut per_batch_ms = Vec::with_capacity(batches.len());
    let mut open_max = 0usize;
    for batch in batches {
        let start = Instant::now();
        engine.ingest_clusters(batch.clone());
        per_batch_ms.push(elapsed_ms(start));
        // Bounded retention hands records to a store; mirror the drain so
        // the replay's memory matches the pass.
        engine.drain_finalized();
        open_max = open_max.max(engine.stats().open_sequences);
    }
    rec.close(token);
    let busy_ms: f64 = per_batch_ms.iter().sum();
    let ordered = sorted(per_batch_ms);
    if !ordered.is_empty() {
        metrics.set("core.engine.ingest.p50_ms", percentile(&ordered, 0.5));
        metrics.set("core.engine.ingest.p99_ms", percentile(&ordered, 0.99));
    }
    metrics.set("core.engine.open_sequences_max", open_max as f64);
    metrics.set(
        "core.engine.resident_clusters",
        engine.stats().resident_clusters as f64,
    );
    (busy_ms, engine)
}

/// `store.codec.*`: encode every record, then decode every buffer.
pub fn codec(records: &[PatternRecord], rec: &mut Recorder, metrics: &mut Metrics) {
    let token = rec.open("store.codec", 0);
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = records.iter().map(encode_to_vec).collect();
    metrics.set("store.codec.encode.busy_ms", elapsed_ms(start));
    metrics.set(
        "store.codec.encode.bytes",
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
    );
    let start = Instant::now();
    let decoded = encoded
        .iter()
        .filter(|bytes| decode_from_slice::<PatternRecord>(bytes).is_ok())
        .count();
    metrics.set("store.codec.decode.busy_ms", elapsed_ms(start));
    rec.close(token);
    assert_eq!(decoded, records.len(), "every encoded record decodes");
}

/// `store.checkpoint.*` for a single engine: serialise, then restore.
pub fn checkpoint(engine: &GatheringEngine, rec: &mut Recorder, metrics: &mut Metrics) {
    let token = rec.open("store.checkpoint", 0);
    let start = Instant::now();
    let bytes = checkpoint_to_vec(engine);
    metrics.set("store.checkpoint.encode.busy_ms", elapsed_ms(start));
    metrics.set("store.checkpoint.encode.bytes", bytes.len() as f64);
    let start = Instant::now();
    let restored = restore_from_slice(&bytes);
    metrics.set("store.checkpoint.restore.busy_ms", elapsed_ms(start));
    rec.close(token);
    assert!(restored.is_ok(), "a fresh checkpoint restores");
}

/// What appending a record set to a fresh store, syncing it and reopening
/// it measured.
pub struct AppendRun {
    /// The reopened store.
    pub store: PatternStore,
    pub append_s: f64,
    pub sync_s: f64,
    pub reopen_s: f64,
    /// Wall time of each tenth of the appends, in order.
    pub decile_s: [f64; 10],
    pub appended: usize,
    pub failed: usize,
    pub segment_bytes: u64,
}

impl AppendRun {
    /// The `store.append.*`, `store.sync.*`, `store.reopen.*` and
    /// `store.bytes_per_record` values of this run.
    pub fn layer_values(&self) -> Vec<(&'static str, f64)> {
        let per_decile = (self.appended + self.failed) as f64 / 10.0;
        vec![
            ("store.append.busy_ms", self.append_s * 1e3),
            ("store.append.records", self.appended as f64),
            ("store.append.failed", self.failed as f64),
            (
                "store.append.first_decile_per_s",
                ratio(per_decile, self.decile_s[0]),
            ),
            (
                "store.append.last_decile_per_s",
                ratio(per_decile, self.decile_s[9]),
            ),
            ("store.sync.busy_ms", self.sync_s * 1e3),
            ("store.sync.calls", 1.0),
            ("store.reopen.busy_ms", self.reopen_s * 1e3),
            (
                "store.reopen.segments",
                f64::from(self.store.segment_count()),
            ),
            (
                "store.bytes_per_record",
                ratio(self.segment_bytes as f64, self.appended as f64),
            ),
        ]
    }
}

/// Appends `records` to a fresh store in `dir`, syncs, drops the store and
/// reopens it (replaying every segment).
///
/// # Errors
///
/// Returns the store's error when it cannot be opened, synced or reopened;
/// refused appends are counted, not returned.
pub fn append_sync_reopen(
    records: Vec<PatternRecord>,
    dir: &Path,
    env: &mut PassEnv<'_>,
) -> Result<AppendRun, StoreError> {
    let mut store = env.open_store(dir, false)?;
    let total = records.len();
    let mut decile_s = [0.0; 10];
    let (mut appended, mut failed) = (0, 0);
    let token = env.rec.open("store.append", 0);
    let start = Instant::now();
    let mut decile_start = start;
    for (i, record) in records.into_iter().enumerate() {
        match store.append(record) {
            Ok(_) => appended += 1,
            Err(_) => failed += 1,
        }
        // Record `i` closes decile `d` when it is the last with i*10/total == d.
        if (i + 1) * 10 / total.max(1) > i * 10 / total.max(1) {
            let now = Instant::now();
            decile_s[(i * 10 / total.max(1)).min(9)] += (now - decile_start).as_secs_f64();
            decile_start = now;
        }
    }
    let append_s = start.elapsed().as_secs_f64();
    env.rec.close(token);

    let token = env.rec.open("store.sync", 0);
    let start = Instant::now();
    store.sync()?;
    let sync_s = start.elapsed().as_secs_f64();
    env.rec.close(token);
    drop(store);
    let segment_bytes = crate::workloads::dir_bytes(dir);

    let token = env.rec.open("store.reopen", 0);
    let start = Instant::now();
    let store = env.open_store(dir, false)?;
    let reopen_s = start.elapsed().as_secs_f64();
    env.rec.close(token);
    Ok(AppendRun {
        store,
        append_s,
        sync_s,
        reopen_s,
        decile_s,
        appended,
        failed,
        segment_bytes,
    })
}

/// Replays `records` onto a fresh store under `env.dir` and reports the
/// store layer's metrics, except those in `timed_in_place` (which the
/// caller's passes measured where the appends really happen).  Returns the
/// replay's append time in milliseconds.
pub fn store_replay(
    records: &[PatternRecord],
    timed_in_place: &[&str],
    env: &mut PassEnv<'_>,
    metrics: &mut Metrics,
) -> f64 {
    let dir = env.dir.join("append-replay");
    match append_sync_reopen(records.to_vec(), &dir, env) {
        Ok(run) => {
            for (name, value) in run.layer_values() {
                if !timed_in_place.contains(&name) {
                    metrics.set(name, value);
                }
            }
            run.append_s * 1e3
        }
        Err(_) => 0.0,
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
