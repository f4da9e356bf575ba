//! Streaming/batch equivalence: the `GatheringEngine` must produce exactly
//! the crowds and gatherings of one whole-database ingest, no matter how
//! the input stream is sliced — one tick at a time, ragged random chunks or
//! one big batch — for every range-search strategy × detection variant
//! combination.  And as many crowds as there are paths to count in the
//! cluster graph.

use gathering_patterns::prelude::*;
use gpdt_clustering::ClusterDatabase;
use gpdt_core::{detect_closed_gatherings, discover_closed_crowds};
use gpdt_trajectory::TimeInterval;
use gpdt_workload::EventRates;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scenario(seed: u64, duration: u32) -> gpdt_workload::GeneratedScenario {
    let mut config = ScenarioConfig::small_demo(seed);
    config.num_taxis = 150;
    config.duration = duration;
    config.area_size = 8_000.0;
    config.event_rates = EventRates {
        jams_per_hour: [8.0, 8.0, 8.0],
        venues_per_hour: [4.0, 4.0, 4.0],
        convoys_per_hour: [2.0, 2.0, 2.0],
    };
    generate_scenario(&config)
}

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(10, 10, 300.0))
        .gathering(GatheringParams::new(8, 8))
        .build()
        .unwrap()
}

/// Sorts crowds into the engine's canonical order.
fn canonical_crowds(mut crowds: Vec<Crowd>) -> Vec<Crowd> {
    crowds.sort_by_key(|c| (c.start_time(), c.end_time(), c.cluster_ids().to_vec()));
    crowds
}

/// Sorts gatherings into the engine's canonical order.
fn canonical_gatherings(mut gatherings: Vec<Gathering>) -> Vec<Gathering> {
    gatherings.sort_by_key(|g| {
        (
            g.crowd().start_time(),
            g.crowd().end_time(),
            g.crowd().cluster_ids().to_vec(),
            g.participators().to_vec(),
        )
    });
    gatherings
}

/// How many closed crowds there must be, without enumerating one: the edges
/// between consecutive ticks (both clusters with `mc` members, within δ) make
/// a DAG, a closed crowd is a path of at least `kc` clusters from a cluster
/// nothing leads into to one nothing leads out of, and paths are counted by
/// the tick they start at — linear in the edges where the crowds themselves
/// can be exponentially many.
fn closed_crowd_count(cdb: &ClusterDatabase, params: &CrowdParams) -> u64 {
    let sets: Vec<_> = cdb.iter().collect();
    let kc = params.kc as usize;
    // `open[g][s]`: paths from a source of tick `s` to cluster `g` of the
    // tick before the current one.
    let mut open: Vec<Vec<u64>> = Vec::new();
    let mut closed = 0u64;
    let long_enough = |starts: &[u64], end: usize| -> u64 {
        starts.iter().take((end + 2).saturating_sub(kc)).sum()
    };
    for (t, set) in sets.iter().enumerate() {
        let mut next = vec![vec![0u64; sets.len()]; set.len()];
        let mut extended = vec![false; open.len()];
        for (h, head) in set.clusters.iter().enumerate() {
            if head.len() < params.mc {
                continue;
            }
            for (g, starts) in open.iter().enumerate() {
                let tail = &sets[t - 1].clusters[g];
                if tail.len() >= params.mc && tail.within_hausdorff(head, params.delta) {
                    extended[g] = true;
                    for (sum, n) in next[h].iter_mut().zip(starts) {
                        *sum += n;
                    }
                }
            }
            if next[h].iter().all(|&n| n == 0) {
                next[h][t] = 1;
            }
        }
        for (starts, _) in open.iter().zip(extended).filter(|(_, e)| !e) {
            closed += long_enough(starts, t - 1);
        }
        open = next;
    }
    closed
        + open
            .iter()
            .map(|s| long_enough(s, sets.len() - 1))
            .sum::<u64>()
}

/// Splits `0..duration` into ragged chunk widths drawn from `rng`.
fn ragged_splits(rng: &mut StdRng, duration: u32) -> Vec<u32> {
    let mut widths = Vec::new();
    let mut covered = 0u32;
    while covered < duration {
        let w = rng.gen_range(1..=7u32).min(duration - covered);
        widths.push(w);
        covered += w;
    }
    widths
}

#[test]
fn engine_matches_pipeline_for_all_slicings_strategies_and_variants() {
    let duration = 60u32;
    let scenario = scenario(4242, duration);
    let config = config();
    let full_clusters = ClusterDatabase::build(&scenario.database, &config.clustering);
    let crowds_to_find = closed_crowd_count(&full_clusters, &config.crowd);
    let mut rng = StdRng::seed_from_u64(7);

    for strategy in RangeSearchStrategy::ALL {
        for variant in TadVariant::ALL {
            let fresh = GatheringEngine::new(config)
                .with_strategy(strategy)
                .with_variant(variant);
            let mut whole = fresh.clone();
            whole.ingest_trajectories(&scenario.database);
            let reference = whole.finish();
            assert!(
                reference.crowd_count() > 0,
                "the scenario must produce crowds for the test to be meaningful"
            );
            // Every slicing below is held to these crowds, so to this count.
            assert_eq!(
                reference.crowd_count() as u64,
                crowds_to_find,
                "{strategy}/{variant} crowds against the path count"
            );

            // Anchor the reference outside the engine: the whole-database
            // ingest must match the direct composition of
            // Algorithm 1 and Test-and-Divide, so an engine bug cannot slip
            // through by altering reference and streamed results alike.
            let independent_crowds = canonical_crowds(discover_closed_crowds(
                &full_clusters,
                &config.crowd,
                strategy,
            ));
            assert_eq!(
                reference.crowds, independent_crowds,
                "{strategy}/{variant} independent crowd composition"
            );
            let independent_gatherings = canonical_gatherings(
                independent_crowds
                    .iter()
                    .flat_map(|c| {
                        detect_closed_gatherings(
                            c,
                            &full_clusters,
                            &config.gathering,
                            config.crowd.kc,
                            variant,
                        )
                    })
                    .collect(),
            );
            assert_eq!(
                reference.gatherings, independent_gatherings,
                "{strategy}/{variant} independent gathering composition"
            );

            // Slicing 1: one big batch of pre-built clusters.
            let mut engine = fresh.clone();
            engine.ingest_clusters(full_clusters.clone());
            assert_eq!(
                engine.closed_crowds(),
                reference.crowds,
                "{strategy}/{variant} one batch"
            );
            assert_eq!(
                engine.gatherings(),
                reference.gatherings,
                "{strategy}/{variant} one batch"
            );

            // Slicing 2: one tick at a time, streamed from the trajectories
            // (the engine clusters each new tick on demand).
            let mut engine = fresh.clone();
            for t in 0..duration {
                engine.ingest_trajectories_until(&scenario.database, t);
            }
            assert_eq!(
                engine.closed_crowds(),
                reference.crowds,
                "{strategy}/{variant} per tick"
            );
            assert_eq!(
                engine.gatherings(),
                reference.gatherings,
                "{strategy}/{variant} per tick"
            );

            // Slicing 3: ragged random cluster batches.
            let widths = ragged_splits(&mut rng, duration);
            let mut engine = fresh.clone();
            let mut start = 0u32;
            for w in &widths {
                let interval = TimeInterval::new(start, start + w - 1);
                let batch = ClusterDatabase::build_interval(
                    &scenario.database,
                    &config.clustering,
                    interval,
                );
                engine.ingest_clusters(batch);
                start += w;
            }
            assert_eq!(
                engine.closed_crowds(),
                reference.crowds,
                "{strategy}/{variant} ragged {widths:?}"
            );
            assert_eq!(
                engine.gatherings(),
                reference.gatherings,
                "{strategy}/{variant} ragged {widths:?}"
            );
        }
    }
}

#[test]
fn interleaving_trajectory_and_cluster_ingestion_is_consistent() {
    let duration = 50u32;
    let scenario = scenario(99, duration);
    let config = config();
    let fresh = GatheringEngine::new(config);
    let mut whole = fresh.clone();
    whole.ingest_trajectories(&scenario.database);
    let reference = whole.finish();

    // First half streamed from trajectories, second half as cluster batches.
    let mut engine = fresh.clone();
    engine.ingest_trajectories_until(&scenario.database, duration / 2 - 1);
    let rest = ClusterDatabase::build_interval(
        &scenario.database,
        &config.clustering,
        TimeInterval::new(duration / 2, duration - 1),
    );
    engine.ingest_clusters(rest);
    assert_eq!(engine.closed_crowds(), reference.crowds);
    assert_eq!(engine.gatherings(), reference.gatherings);

    // And the other way round: clusters first, trajectories afterwards (the
    // engine re-aligns its clustering cursor).
    let mut engine = fresh.clone();
    let head = ClusterDatabase::build_interval(
        &scenario.database,
        &config.clustering,
        TimeInterval::new(0, duration / 2 - 1),
    );
    engine.ingest_clusters(head);
    engine.ingest_trajectories(&scenario.database);
    assert_eq!(engine.closed_crowds(), reference.crowds);
    assert_eq!(engine.gatherings(), reference.gatherings);
}

/// GRID's edge phase queries tick `t` with the buckets of tick `t − 1`'s
/// index; that hand-over must survive the start of a worker's chunk of ticks
/// and an engine resume, where the previous tick has no index and the seeds
/// are bucketed afresh.  A 100-tick run sliced into 1-, 7- and
/// 60-tick batches, on one and two threads, must give the crowds, gatherings
/// and per-tick observer callbacks of the one-batch run — and of IR.  JOIN,
/// whose resumed runs query the seeds' last clusters once each, is held to
/// the same.
#[test]
fn grid_bucket_reuse_survives_window_boundaries_and_resumes() {
    let duration = 100u32;
    let scenario = scenario(1313, duration);
    let config = config();
    let full = ClusterDatabase::build(&scenario.database, &config.clustering);

    // Feeds `full` in `width`-tick batches; returns crowds, gatherings and
    // the observer log with each tick's candidate set in canonical order.
    let run = |strategy: RangeSearchStrategy, threads: usize, width: u32| {
        let mut engine = GatheringEngine::new(config)
            .with_strategy(strategy)
            .with_threads(threads);
        let mut log: Vec<(u32, Vec<Crowd>)> = Vec::new();
        let mut observer = |t: u32, candidates: &[Crowd]| {
            log.push((t, canonical_crowds(candidates.to_vec())));
        };
        let mut start = 0u32;
        while start < duration {
            let end = (start + width).min(duration);
            let sets = (start..end)
                .map(|t| full.set_at(t).expect("contiguous").clone())
                .collect();
            engine.ingest_clusters_observed(ClusterDatabase::from_sets(sets), Some(&mut observer));
            start = end;
        }
        (engine.closed_crowds(), engine.gatherings(), log)
    };

    let reference = run(RangeSearchStrategy::RTreeDside, 1, duration);
    assert!(reference.0.len() > 5 && !reference.1.is_empty());
    assert_eq!(
        reference.0.len() as u64,
        closed_crowd_count(&full, &config.crowd)
    );
    assert_eq!(
        reference.2.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
        (0..duration).collect::<Vec<_>>()
    );
    for strategy in [RangeSearchStrategy::Grid, RangeSearchStrategy::Join] {
        for threads in [1, 2] {
            for width in [duration, 1, 7, 60] {
                let got = run(strategy, threads, width);
                let context = format!("{strategy}, {threads} threads, {width}-tick batches");
                assert_eq!(got.0, reference.0, "crowds: {context}");
                assert_eq!(got.1, reference.1, "gatherings: {context}");
                assert_eq!(got.2, reference.2, "observer: {context}");
            }
        }
    }
}
