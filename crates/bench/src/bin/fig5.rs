//! Figure 5 — effectiveness study.
//!
//! Reproduces the two charts of the paper's §IV-A on the synthetic workload:
//!
//! * Figure 5a: number of closed crowds / closed gatherings / closed swarms /
//!   convoys per day, grouped by time-of-day regime (peak / work / casual).
//! * Figure 5b: the same counts grouped by weather (clear / rainy / snowy).
//!
//! Run with `cargo run -p gpdt-bench --release --bin fig5`.  The fleet size
//! and day length are scaled down from the paper's 30 000-taxi dataset; set
//! `GPDT_SCALE` to adjust.

use gpdt_baselines::{
    discover_closed_swarms_from_clusters, discover_convoys_from_clusters, ConvoyParams, SwarmParams,
};
use gpdt_bench::env;
use gpdt_bench::fault_sweep::mine_under_faults;
use gpdt_bench::out_of_core::ingest_resilient;
use gpdt_bench::report::{BenchReport, Table};
use gpdt_bench::scenarios::{clustered_day, scaled};
use gpdt_clustering::ClusteringParams;
use gpdt_core::{CrowdParams, GatheringConfig, GatheringEngine, GatheringParams, RetentionPolicy};
use gpdt_store::PatternStore;
use gpdt_trajectory::TimeInterval;
use gpdt_workload::{Regime, Weather};

/// Discovery thresholds, scaled from the paper's settings (`mc=15, δ=300,
/// kc=20, kp=15, mp=10`) so that the scaled-down fleet still produces a
/// meaningful number of patterns.
struct Thresholds {
    crowd: CrowdParams,
    gathering: GatheringParams,
    convoy_m: usize,
    convoy_k: u32,
    swarm_m: usize,
    swarm_k: usize,
}

fn thresholds() -> Thresholds {
    Thresholds {
        crowd: CrowdParams::new(15, 20, 300.0),
        gathering: GatheringParams::new(10, 15),
        convoy_m: 15,
        convoy_k: 10,
        swarm_m: 15,
        swarm_k: 10,
    }
}

#[derive(Default)]
struct Counts {
    crowds: usize,
    gatherings: usize,
    swarms: usize,
    convoys: usize,
}

/// Counts the four pattern kinds per time-of-day regime for one day.
fn count_by_regime(seed: u64, weather: Weather, start_of_day: u32) -> [Counts; 3] {
    let th = thresholds();
    let num_taxis = scaled(900);
    let duration = 1_440u32;
    let day_start = std::time::Instant::now();
    let cs = clustered_day(seed, weather, num_taxis, duration);

    // Baselines.
    let baseline_clustering = ClusteringParams::new(200.0, 5);
    let convoys = discover_convoys_from_clusters(
        &cs.clusters,
        &ConvoyParams::new(th.convoy_m, th.convoy_k, baseline_clustering),
    );
    let swarms = discover_closed_swarms_from_clusters(
        &cs.clusters,
        &SwarmParams::new(th.swarm_m, th.swarm_k, baseline_clustering),
    );

    // Crowds and gatherings via the streaming engine, driven out of core:
    // the day's cluster history goes in as budget-sized batches under
    // bounded retention, finalized patterns spill to a scratch pattern
    // store, and the counts are read back from the store.  Keeps the
    // engine-resident arenas bounded so a full-scale day fits in RAM.
    //
    // With `GPDT_FAULT_SEED` set the same mining runs on the fault-injection
    // VFS instead: the backend is killed mid-run (plus injected short writes
    // and fsync failures), recovered and resumed until completion.  Recovery
    // is byte-identical, so the records — and therefore the BENCH JSON —
    // must equal the fault-free run's; CI diffs the two outputs.
    let budget = env::mem_budget();
    let config = GatheringConfig {
        clustering: cs.clustering,
        crowd: th.crowd,
        gathering: th.gathering,
    };
    let sets = cs.clusters.into_sets();
    let records = if let Some(fault_seed) = env::fault_seed() {
        let (records, incarnations, transient_restarts) =
            mine_under_faults(fault_seed ^ seed, &config, &sets, budget);
        eprintln!(
            "[fig5] mined one {weather:?} day ({num_taxis} taxis) in {:.1?} under injected \
             faults ({incarnations} incarnations, {transient_restarts} transient restarts, \
             {} records recovered)",
            day_start.elapsed(),
            records.len(),
        );
        records
    } else {
        let mut engine = GatheringEngine::new(config).with_retention(RetentionPolicy::Bounded);
        let store_dir = env::scratch_dir(&format!("fig5-{seed}"));
        let mut store = PatternStore::open(&store_dir).expect("open scratch pattern store");
        let ooc = ingest_resilient(&mut engine, &sets, budget, &mut store, 0, 0, |_, _, _| {
            Ok(())
        })
        .expect("spill finalized patterns");
        store
            .archive_closed_frontier(&engine)
            .expect("archive frontier");
        let records = store.records().to_vec();
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
        // One progress line per simulated day: the full run mines four days
        // and swarm mining dominates, so silence would look like a hang.
        eprintln!(
            "[fig5] mined one {weather:?} day ({num_taxis} taxis) in {:.1?} \
             ({} ingest batches under a {:.0} MiB budget, peak arenas {:.1} MiB, {} records spilled)",
            day_start.elapsed(),
            ooc.batches,
            budget as f64 / (1 << 20) as f64,
            ooc.peak_arena_bytes as f64 / (1 << 20) as f64,
            ooc.spilled_records,
        );
        records
    };

    // The slot of the regime an interval's midpoint falls in.
    let slot = |interval: TimeInterval| match Regime::for_minute_of_day(
        start_of_day + (interval.start + interval.end) / 2,
    ) {
        Regime::Peak => 0,
        Regime::Work => 1,
        Regime::Casual => 2,
    };
    let mut out: [Counts; 3] = Default::default();
    for record in &records {
        out[slot(record.interval())].crowds += 1;
        for gathering in &record.gatherings {
            out[slot(gathering.interval)].gatherings += 1;
        }
    }
    for interval in swarms.iter().filter_map(|s| s.interval()) {
        out[slot(interval)].swarms += 1;
    }
    for interval in convoys.iter().filter_map(|c| c.interval()) {
        out[slot(interval)].convoys += 1;
    }
    out
}

fn main() {
    // A crash mid-run should leave the supervision-event trail on disk.
    gpdt_obs::install_panic_hook();
    // Serve /metrics + /health when GPDT_METRICS_ADDR is set (no-op without
    // it); the CI byte-compare step holds this to "scraping never changes
    // the report".
    gpdt_obs::telemetry_from_env();
    let seed = 2013;
    let mut report = BenchReport::new("fig5");

    // ---- Figure 5a: patterns per time of day (clear weather) -------------
    let by_regime = count_by_regime(seed, Weather::Clear, 0);
    let mut fig5a = Table::new(
        "Figure 5a — average number of patterns per day vs time of day",
        &[
            "time of day",
            "closed crowds",
            "closed gatherings",
            "closed swarms",
            "convoys",
        ],
    );
    for (i, regime) in Regime::ALL.iter().enumerate() {
        fig5a.add_row(vec![
            regime.to_string(),
            by_regime[i].crowds.to_string(),
            by_regime[i].gatherings.to_string(),
            by_regime[i].swarms.to_string(),
            by_regime[i].convoys.to_string(),
        ]);
    }
    report.print_and_add(fig5a);

    // ---- Figure 5b: patterns per day vs weather ---------------------------
    let mut fig5b = Table::new(
        "Figure 5b — average number of patterns per day vs weather",
        &[
            "weather",
            "closed crowds",
            "closed gatherings",
            "closed swarms",
            "convoys",
        ],
    );
    for (w_i, weather) in Weather::ALL.iter().enumerate() {
        let per_regime = count_by_regime(seed + 1 + w_i as u64, *weather, 0);
        let total = |f: fn(&Counts) -> usize| per_regime.iter().map(f).sum::<usize>();
        fig5b.add_row(vec![
            weather.to_string(),
            total(|c| c.crowds).to_string(),
            total(|c| c.gatherings).to_string(),
            total(|c| c.swarms).to_string(),
            total(|c| c.convoys).to_string(),
        ]);
    }
    report.print_and_add(fig5b);
    report.write_logged();
    // Per-stage latency breakdown (dbscan/sweep/gathering/store/vfs) as a
    // sidecar: BENCH_fig5.json itself is byte-compared across CI runs.
    gpdt_bench::report::write_obs_sidecar("fig5");

    println!(
        "Expected shape (paper): most gatherings in peak time; many crowds but few gatherings in \
         casual time; snowy > rainy > clear for crowds/gatherings; swarms roughly weather-insensitive."
    );
}
