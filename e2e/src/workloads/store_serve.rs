//! `store_serve`: the store layer on its own.
//!
//! Seeded synthetic records (256 venues) go straight into a `PatternStore`;
//! the engine does nothing.  A pass has four phases:
//!
//! * **A** append every record, then `sync` — the ingest;
//! * **B** drop the store and `PatternStore::open` it again (full replay) —
//!   the recovery;
//! * **C** one closed-loop client runs the query mix (45 % region × window,
//!   25 % window-only, 25 % object history, 5 % top-10) once untimed, then
//!   timed — the operation latencies;
//! * **D** reads beside writes: further appends with eight mix queries after
//!   each, and a `sync` after every hundredth — the checkpoints.  A query-side gain that
//!   taxes `append`, or an append-side gain that delays index visibility,
//!   shows here as a loss.

use std::time::Instant;

use gpdt_store::{PatternRecord, PatternStore};

use super::{
    dir_bytes, elapsed_ms, elapsed_us, payload_bytes, Checks, Metrics, PassEnv, PassStats, Workload,
};
use crate::inputs::{
    query_mix, scaled, synthetic_records, Digest, Query, MIXED_APPENDS, MIXED_QUERIES_PER_APPEND,
    STORE_QUERIES, STORE_RECORDS,
};
use crate::layers;
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted};

/// Phase D syncs after every hundredth append (five times at scale 1).
const SYNC_EVERY: usize = 100;

pub struct StoreServe;

pub struct Input {
    /// Appended in phase A.
    records: Vec<PatternRecord>,
    /// Appended in phase D.
    late_records: Vec<PatternRecord>,
    /// Phase C.
    queries: Vec<Query>,
    /// Phase D, eight after each append.
    mixed_queries: Vec<Query>,
}

pub struct Artifacts {
    /// The store as phase D left it.
    store: PatternStore,
    /// Hit count of every phase-C query, in order.
    hits: Vec<usize>,
    appended: usize,
    reopened: usize,
}

/// Runs one query; returns its hit count.
fn run(store: &PatternStore, query: &Query) -> usize {
    match query {
        Query::RegionWindow(region, window) => store.query_gatherings(region, *window).len(),
        Query::Window(window) => store.crowds_in_window(*window).len(),
        Query::ObjectHistory(object) => store.object_history(*object).len(),
        Query::TopK(k) => store.top_k_gatherings(*k).len(),
    }
}

/// The full-scan answer to a query, from `records()` alone.
fn scan(store: &PatternStore, query: &Query) -> usize {
    let overlaps = |a: gpdt_trajectory::TimeInterval, b: gpdt_trajectory::TimeInterval| {
        a.start <= b.end && a.end >= b.start
    };
    let gatherings = || store.records().iter().flat_map(|r| r.gatherings.iter());
    match query {
        Query::RegionWindow(region, window) => gatherings()
            .filter(|g| g.mbr.intersects(region) && overlaps(g.interval, *window))
            .count(),
        Query::Window(window) => store
            .records()
            .iter()
            .filter(|r| overlaps(r.interval(), *window))
            .count(),
        Query::ObjectHistory(object) => gatherings()
            .filter(|g| g.participators.binary_search(object).is_ok())
            .count(),
        Query::TopK(k) => gatherings().count().min(*k),
    }
}

impl Workload for StoreServe {
    const NAME: &'static str = "store_serve";
    const TAIL_Q: f64 = 0.99;
    type Input = Input;
    type Artifacts = Artifacts;

    fn setup(seed: u64, scale: f64, rec: &mut Recorder) -> Input {
        let token = rec.open("workload.generate", 0);
        let n = scaled(STORE_RECORDS, scale, 200);
        let late = scaled(MIXED_APPENDS, scale, 10);
        let mut records = synthetic_records(n + late, seed);
        let late_records = records.split_off(n);
        // The query count is not scaled: p99 needs its thousand samples.
        let queries = query_mix(STORE_QUERIES, seed);
        let mixed_queries = query_mix(late * MIXED_QUERIES_PER_APPEND, seed ^ 0xD);
        rec.close(token);
        Input {
            records,
            late_records,
            queries,
            mixed_queries,
        }
    }

    fn sizes(input: &Input) -> Vec<(&'static str, f64)> {
        vec![
            ("records", input.records.len() as f64),
            ("queries", input.queries.len() as f64),
            ("mixed_appends", input.late_records.len() as f64),
            ("mixed_queries", input.mixed_queries.len() as f64),
        ]
    }

    fn input_digest(input: &Input) -> u64 {
        let mut digest = Digest::default();
        for record in input.records.iter().chain(&input.late_records) {
            digest.update(record);
        }
        for query in input.queries.iter().chain(&input.mixed_queries) {
            digest.update_bytes(format!("{query:?}").as_bytes());
        }
        digest.finish()
    }

    fn pass(input: &Input, env: &mut PassEnv<'_>) -> (PassStats, Artifacts) {
        let store_dir = env.dir.join("store");
        let mut stats = PassStats::default();

        // Cloning the records is the harness's cost, not the store's.
        let token = env.rec.open("harness.clone", 0);
        let batch = input.records.clone();
        let late = input.late_records.clone();
        env.rec.close(token);

        // Phases A and B.
        let run_ab = layers::append_sync_reopen(batch, &store_dir, env)
            .expect("append, sync and reopen the store");
        stats.ingest_items = run_ab.appended as u64;
        stats.ingest_s = run_ab.append_s + run_ab.sync_s;
        stats.recover_ms.push(run_ab.reopen_s * 1e3);
        stats.attempted += input.records.len() as u64 + 2;
        stats.failed += run_ab.failed as u64;
        let mut layer = run_ab.layer_values();
        let reopened = run_ab.store.len();
        let mut store = run_ab.store;

        // Phase C.
        let token = env.rec.open("store.query.warm", 0);
        for query in &input.queries {
            std::hint::black_box(run(&store, query));
        }
        env.rec.close(token);
        let token = env.rec.open("store.query", 0);
        let mut hits = Vec::with_capacity(input.queries.len());
        for query in &input.queries {
            let start = Instant::now();
            let found = run(&store, query);
            stats.op_us.push(elapsed_us(start));
            hits.push(found);
        }
        env.rec.close(token);
        stats.attempted += input.queries.len() as u64;

        // Phase D.
        let token = env.rec.open("store.mixed", 0);
        let mut mixed = input.mixed_queries.iter();
        let mut appended = run_ab.appended;
        let mut mixed_s = 0.0;
        let mut segment = Instant::now();
        for (i, record) in late.into_iter().enumerate() {
            match store.append(record) {
                Ok(_) => appended += 1,
                Err(_) => stats.failed += 1,
            }
            for query in mixed.by_ref().take(MIXED_QUERIES_PER_APPEND) {
                std::hint::black_box(run(&store, query));
            }
            if (i + 1) % SYNC_EVERY == 0 || i + 1 == input.late_records.len() {
                // A durable point, timed on its own and kept out of the
                // mixed throughput.
                mixed_s += segment.elapsed().as_secs_f64();
                let start = Instant::now();
                stats.failed += u64::from(store.sync().is_err());
                stats.checkpoint_ms.push(elapsed_ms(start));
                stats.attempted += 1;
                segment = Instant::now();
            }
        }
        let mixed_ops = input.late_records.len() + input.mixed_queries.len();
        env.rec.close(token);
        stats.attempted += mixed_ops as u64;
        stats.durable_bytes = dir_bytes(&store_dir);

        if env.rec.is_on() {
            let mut by_kind: [Vec<f64>; 4] = Default::default();
            let mut region_hits = 0usize;
            for ((query, us), found) in input.queries.iter().zip(&stats.op_us).zip(&hits) {
                by_kind[query.kind()].push(*us);
                if query.kind() == 0 {
                    region_hits += found;
                }
            }
            const P50: [&str; 4] = [
                "store.query.region_window.p50_us",
                "store.query.window.p50_us",
                "store.query.object_history.p50_us",
                "store.query.top_k.p50_us",
            ];
            for (name, samples) in P50.into_iter().zip(&by_kind) {
                layer.push((name, median(samples)));
            }
            layer.push((
                "store.query.region_window.hits_per_query",
                region_hits as f64 / by_kind[0].len().max(1) as f64,
            ));
            layer.push((
                "store.query.mix.p999_us",
                percentile(&sorted(stats.op_us.clone()), 0.999),
            ));
            layer.push(("store.mixed.ops_per_s", mixed_ops as f64 / mixed_s));
            stats.layer = layer;
        }
        (
            stats,
            Artifacts {
                store,
                hits,
                appended,
                reopened,
            },
        )
    }

    fn user_bytes(_input: &Input, artifacts: &Artifacts) -> u64 {
        payload_bytes(artifacts.store.records())
    }

    fn verify(input: &Input, artifacts: &Artifacts, checks: &mut Checks) -> u64 {
        checks.check(
            "reopen replayed every appended record",
            artifacts.reopened == input.records.len(),
        );
        checks.check(
            "the store holds every record of both phases",
            artifacts.store.len() == input.records.len() + input.late_records.len()
                && artifacts.appended == artifacts.store.len(),
        );
        // Indexed ≡ full scan on every hundredth query of each kind (the
        // store has grown since phase C, so both sides are asked again).
        let mut sampled = [0usize; 4];
        let mut agree = true;
        for query in &input.queries {
            let kind = query.kind();
            sampled[kind] += 1;
            if sampled[kind] % 100 == 1 {
                agree &= run(&artifacts.store, query) == scan(&artifacts.store, query);
            }
        }
        checks.check("indexed queries = full scan on a 1 % sample", agree);

        let mut digest = Digest::default();
        for hits in &artifacts.hits {
            digest.update_u64(*hits as u64);
        }
        digest.update_u64(artifacts.store.len() as u64);
        for hit in artifacts.store.top_k_gatherings(10) {
            digest.update_u64(hit.record as u64);
        }
        digest.finish()
    }

    fn replay(input: &Input, _artifacts: &Artifacts, env: &mut PassEnv<'_>, metrics: &mut Metrics) {
        metrics.set(
            "geo.hausdorff.cutoff_pairs",
            gpdt_geo::bucketed_pair_cutoff() as f64,
        );
        layers::codec(&input.records, env.rec, metrics);
    }
}
