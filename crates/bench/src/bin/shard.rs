//! Sharded-ingest throughput sweep (`BENCH_shard.json`).
//!
//! Streams one synthetic city scenario through a single `GatheringEngine`
//! (the baseline) and through `ShardedEngine`s at shard counts from 1 up to
//! the machine's core count, reporting end-to-end ingest throughput in
//! objects·ticks/s plus the merge overhead — the sequential replay cost a
//! sharded deployment pays on top of the per-shard sweeps — **reported, not
//! hidden**: on a single-core host the sharded rows cannot beat the
//! baseline, and the overhead column is exactly why.
//!
//! Every shard count runs twice: under the spatial grid partitioner and
//! under the `hash-by-object` fallback, whose merge degenerates towards a
//! full sweep (every cluster is boundary-adjacent) — included to keep the
//! cost of giving up spatial locality honest.
//!
//! Sizes honour `GPDT_SCALE`; scratch and report locations honour
//! `GPDT_SCRATCH_DIR` / `GPDT_BENCH_DIR` (see `gpdt_bench::env`).  Run with
//! `cargo run -p gpdt-bench --release --bin shard`.

use std::time::Duration;

use gpdt_bench::report::{measure_with, BenchReport, MeasureOpts, Table};
use gpdt_bench::scenarios::{clustered_scenario, scaled};
use gpdt_clustering::ClusterDatabase;
use gpdt_core::{CrowdParams, GatheringConfig, GatheringEngine, GatheringParams};
use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};
use gpdt_trajectory::TimeInterval;

/// Ticks per ingest batch: large enough to amortise the per-batch fan-out,
/// small enough that the stream is genuinely incremental.
const BATCH_TICKS: u32 = 10;

fn main() {
    let opts = MeasureOpts::from_env();
    let taxis = scaled(1500);
    let minutes = 120u32;
    let clustered = clustered_scenario(17, taxis, minutes);
    let config = GatheringConfig::builder()
        .clustering(clustered.clustering)
        .crowd(CrowdParams::new(15, 20, 300.0))
        .gathering(GatheringParams::new(10, 15))
        .build()
        .expect("valid parameters");

    // Pre-slice the cluster stream once; every engine ingests identical
    // batches.
    let batches = slice_batches(&clustered.clusters, BATCH_TICKS);
    let work = (taxis as u64) * u64::from(minutes);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shard_counts: Vec<usize> = Vec::new();
    let mut n = 1;
    while n < cores {
        shard_counts.push(n);
        n *= 2;
    }
    shard_counts.push(cores);
    if cores == 1 {
        // Still exercise the merge machinery so the overhead is visible.
        shard_counts.push(2);
    }

    let mut report = BenchReport::new("shard");
    let mut table = Table::new(
        format!(
            "Sharded ingest — {taxis} taxis × {minutes} min, batches of {BATCH_TICKS} ticks, \
             {cores} core(s)"
        ),
        &[
            "configuration",
            "runtime (s)",
            "objects·ticks/s",
            "merge overhead",
            "cross edges",
            "gatherings",
        ],
    );

    // Baseline: the single engine.
    let (single, single_time) = measure_with(opts, || {
        let mut engine = GatheringEngine::new(config);
        for batch in &batches {
            engine.ingest_clusters(batch.clone());
        }
        engine
    });
    let reference = single.gatherings();
    table.add_row(vec![
        "single engine".into(),
        secs(single_time),
        throughput(work, single_time),
        "-".into(),
        "-".into(),
        reference.len().to_string(),
    ]);
    println!(
        "single engine: {} gatherings in {}s",
        reference.len(),
        secs(single_time)
    );

    // Every shard count under the spatial partitioner and under the
    // locality-oblivious fallback.
    for partitioner in [
        Partitioner::Grid(GridPartitioner::new(1_500.0)),
        Partitioner::HashByObject,
    ] {
        for &shards in &shard_counts {
            run_sharded(
                &mut table,
                opts,
                &batches,
                config,
                shards,
                partitioner,
                work,
                &reference,
            );
        }
    }

    report.print_and_add(table);
    report.write_logged();
    println!(
        "Expected shape: on a multi-core host the grid rows overtake the single engine as \
         shards approach the core count while merge overhead stays in single-digit percent; \
         the hash rows show the fallback's merge approaching a full sweep.  On one core the \
         sharded rows pay the merge overhead with nothing to parallelise against."
    );
}

#[allow(clippy::too_many_arguments)]
fn run_sharded(
    table: &mut Table,
    opts: MeasureOpts,
    batches: &[ClusterDatabase],
    config: GatheringConfig,
    shards: usize,
    partitioner: Partitioner,
    work: u64,
    reference: &[gpdt_core::Gathering],
) {
    let (engine, time) = measure_with(opts, || {
        let mut engine = ShardedEngine::new(config, shards, partitioner);
        for batch in batches {
            engine.ingest_clusters(batch.clone());
        }
        engine
    });
    let gatherings = engine.gatherings();
    assert_eq!(
        gatherings, reference,
        "sharded output diverged from the single engine ({shards} shards, {partitioner})"
    );
    let stats = engine.stats();
    // Counters come from the engine of the final timed run, `time` is the
    // best-of-N wall clock: the ratio slightly overstates the overhead on
    // noisy hosts, which is the honest direction to err in.
    let total_nanos = time.as_nanos().max(1) as f64;
    let overhead = (stats.partition_nanos + stats.merge_nanos) as f64 / total_nanos * 100.0;
    table.add_row(vec![
        format!("{shards} shards, {}", partitioner.label()),
        secs(time),
        throughput(work, time),
        format!("{overhead:.1}%"),
        stats.cross_edges.to_string(),
        gatherings.len().to_string(),
    ]);
    println!(
        "{shards} shards ({}): {}s, merge overhead {overhead:.1}%, {} cross edges",
        partitioner.label(),
        secs(time),
        stats.cross_edges
    );
}

/// Slices a prebuilt cluster database into contiguous ingest batches.
fn slice_batches(clusters: &ClusterDatabase, ticks_per_batch: u32) -> Vec<ClusterDatabase> {
    let Some(domain) = clusters.time_domain() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut at = domain.start;
    while at <= domain.end {
        let end = (at + ticks_per_batch - 1).min(domain.end);
        let sets = TimeInterval::new(at, end)
            .iter()
            .map(|t| clusters.set_at(t).expect("contiguous domain").clone())
            .collect();
        out.push(ClusterDatabase::from_sets(sets));
        at = end + 1;
    }
    out
}

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

fn throughput(work: u64, d: Duration) -> String {
    format!("{:.0}", work as f64 / d.as_secs_f64())
}
