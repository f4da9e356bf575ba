//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics.  `BENCHMARK.json` at the
//! repository root declares the same names; a test holds the two together.

/// Which direction of change is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "city_stream",
        "Production monitoring path, one tick at a time: DBSCAN and the service's recovery checkpoint dominate; sweep small, store nearly idle.",
    ),
    (
        "archive_mine",
        "Offline mining of a pre-clustered event-dense day: DBSCAN bypassed, so index, Hausdorff, TAD* and store append are the timed cost.",
    ),
    (
        "sharded_stream",
        "Same archive through a 2-shard engine in 10-tick batches: partition, parallel ingest and merge replay dominate; no DBSCAN or store work.",
    ),
    (
        "store_serve",
        "Synthetic records straight into the store, then a query mix and reads beside writes: the store does all the work, the engine none.",
    ),
];

/// Every workload reports every one of these (the driver's contract), each
/// measured on the workload's own path; README.md gives the per-workload
/// definitions.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_latency_p50_us", "us", Better::Lower, 0.25),
    e2e("op_latency_tail_us", "us", Better::Lower, 0.25),
    e2e("checkpoint_ms", "ms", Better::Lower, 0.25),
    e2e("durable_bytes_per_user_byte", "ratio", Better::Lower, 0.05),
    e2e("recover_ms", "ms", Better::Lower, 0.25),
    e2e("pass_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.2),
];

use Better::{Higher, Lower};

pub const PER_LAYER: [MetricSpec; 104] = [
    layer("workload.generate.busy_ms", "ms", Lower),
    layer("workload.points", "count", Higher),
    layer("trajectory.snapshot.busy_ms", "ms", Lower),
    layer("trajectory.snapshot.calls", "count", Lower),
    layer("clustering.dbscan.busy_ms", "ms", Lower),
    layer("clustering.dbscan.points_in", "count", Higher),
    layer("clustering.dbscan.clusters_out", "count", Higher),
    layer("clustering.dbscan.clustered_point_ratio", "ratio", Higher),
    layer("clustering.dbscan.ns_per_point", "ns", Lower),
    layer("geo.hausdorff.busy_ms", "ms", Lower),
    layer("geo.hausdorff.pairs", "count", Lower),
    layer("geo.hausdorff.within_ratio", "ratio", Higher),
    layer("geo.hausdorff.cutoff_pairs", "count", Lower),
    layer("index.build.grid.busy_ms", "ms", Lower),
    layer("index.build.grid.clusters_in", "count", Higher),
    layer("index.build.sr.busy_ms", "ms", Lower),
    layer("index.build.sr.clusters_in", "count", Higher),
    layer("index.build.ir.busy_ms", "ms", Lower),
    layer("index.build.ir.clusters_in", "count", Higher),
    layer("index.search.grid.busy_ms", "ms", Lower),
    layer("index.search.grid.queries", "count", Higher),
    layer("index.search.grid.candidates", "count", Lower),
    layer("index.search.grid.results", "count", Higher),
    layer("index.search.grid.precision", "ratio", Higher),
    layer("index.search.sr.busy_ms", "ms", Lower),
    layer("index.search.sr.queries", "count", Higher),
    layer("index.search.sr.candidates", "count", Lower),
    layer("index.search.sr.results", "count", Higher),
    layer("index.search.sr.precision", "ratio", Higher),
    layer("index.search.ir.busy_ms", "ms", Lower),
    layer("index.search.ir.queries", "count", Higher),
    layer("index.search.ir.candidates", "count", Lower),
    layer("index.search.ir.results", "count", Higher),
    layer("index.search.ir.precision", "ratio", Higher),
    layer("core.sweep.grid.busy_ms", "ms", Lower),
    layer("core.sweep.sr.busy_ms", "ms", Lower),
    layer("core.sweep.ir.busy_ms", "ms", Lower),
    layer("core.sweep.closed_crowds", "count", Higher),
    layer("core.sweep.self_ms", "ms", Lower),
    layer("core.gathering.tad.busy_ms", "ms", Lower),
    layer("core.gathering.tad.crowds_in", "count", Higher),
    layer("core.gathering.tad.gatherings_out", "count", Higher),
    layer("core.gathering.tadstar.busy_ms", "ms", Lower),
    layer("core.gathering.tadstar.crowds_in", "count", Higher),
    layer("core.gathering.tadstar.gatherings_out", "count", Higher),
    layer("core.engine.ingest.busy_ms", "ms", Lower),
    layer("core.engine.ingest.p50_ms", "ms", Lower),
    layer("core.engine.ingest.p99_ms", "ms", Lower),
    layer("core.engine.open_sequences_max", "count", Lower),
    layer("core.engine.resident_clusters", "count", Lower),
    layer("shard.partition.busy_ms", "ms", Lower),
    layer("shard.ingest.busy_ms", "ms", Lower),
    layer("shard.merge.busy_ms", "ms", Lower),
    layer("shard.merge_share", "ratio", Lower),
    layer("shard.cross_edges", "count", Lower),
    layer("shard.imported_paths", "count", Lower),
    layer("shard.dropped_records", "count", Lower),
    layer("shard.load_skew", "ratio", Lower),
    layer("shard.one_shard.busy_ms", "ms", Lower),
    layer("shard.single_engine.busy_ms", "ms", Lower),
    layer("store.codec.encode.busy_ms", "ms", Lower),
    layer("store.codec.encode.bytes", "count", Lower),
    layer("store.codec.decode.busy_ms", "ms", Lower),
    layer("store.append.busy_ms", "ms", Lower),
    layer("store.append.records", "count", Higher),
    layer("store.append.failed", "count", Lower),
    layer("store.append.first_decile_per_s", "1/s", Higher),
    layer("store.append.last_decile_per_s", "1/s", Higher),
    layer("store.sync.busy_ms", "ms", Lower),
    layer("store.sync.calls", "count", Lower),
    layer("store.reopen.busy_ms", "ms", Lower),
    layer("store.reopen.segments", "count", Lower),
    layer("store.bytes_per_record", "count", Lower),
    layer("store.query.region_window.p50_us", "us", Lower),
    layer("store.query.window.p50_us", "us", Lower),
    layer("store.query.object_history.p50_us", "us", Lower),
    layer("store.query.top_k.p50_us", "us", Lower),
    layer("store.query.region_window.hits_per_query", "count", Higher),
    layer("store.query.mix.p999_us", "us", Lower),
    layer("store.mixed.ops_per_s", "1/s", Higher),
    layer("store.checkpoint.encode.busy_ms", "ms", Lower),
    layer("store.checkpoint.encode.bytes", "count", Lower),
    layer("store.checkpoint.restore.busy_ms", "ms", Lower),
    layer("store.checkpoint.sharded.encode.busy_ms", "ms", Lower),
    layer("store.service.busy_ms", "ms", Lower),
    layer("store.service.overhead_ms", "ms", Lower),
    layer("store.service.overhead_share", "ratio", Lower),
    layer("store.vfs.writes", "count", Lower),
    layer("store.vfs.bytes_written", "count", Lower),
    layer("store.vfs.fsyncs", "count", Lower),
    layer("store.vfs.write.busy_ms", "ms", Lower),
    layer("store.vfs.fsync.busy_ms", "ms", Lower),
    layer("store.vfs.writes_per_record", "ratio", Lower),
    layer("obs.overhead_ratio", "ratio", Lower),
    layer("obs.span.engine.sweep.sum_ms", "ms", Lower),
    layer("obs.span.engine.gathering.sum_ms", "ms", Lower),
    layer("obs.span.dbscan.snapshot.sum_ms", "ms", Lower),
    layer("obs.span.store.append.sum_ms", "ms", Lower),
    layer("obs.span.vfs.fsync.sum_ms", "ms", Lower),
    layer("obs.span.shard.merge.sum_ms", "ms", Lower),
    layer("harness.unattributed_share", "ratio", Lower),
    layer("harness.warmup_ms", "ms", Lower),
    layer("harness.passes.untraced", "count", Higher),
    layer("harness.passes.traced", "count", Higher),
];

/// Registry span histograms read back in traced runs and reported as
/// `obs.span.<name>.sum_ms`.  (`engine.dbscan` is only recorded by
/// `ingest_trajectories`, which no workload calls, so DBSCAN is read through
/// `dbscan.snapshot`.)
pub const REGISTRY_SPANS: [&str; 6] = [
    "engine.sweep",
    "engine.gathering",
    "dbscan.snapshot",
    "store.append",
    "vfs.fsync.nanos",
    "shard.merge",
];

/// Cross-checks of a traced run: the registry sums on the left, recorded
/// inside the program, should add up to the outside-in number on the right.
pub const CROSS_CHECKS: [(&[&str], &str); 5] = [
    (
        &["engine.sweep", "engine.gathering"],
        "core.engine.ingest.busy_ms",
    ),
    (&["dbscan.snapshot"], "clustering.dbscan.busy_ms"),
    (&["store.append"], "store.append.busy_ms"),
    (&["vfs.fsync.nanos"], "store.vfs.fsync.busy_ms"),
    (&["shard.merge"], "shard.merge.busy_ms"),
];

/// The `obs.span.*.sum_ms` metric a registry histogram is reported under.
pub fn registry_metric(histogram: &str) -> String {
    format!("obs.span.{}.sum_ms", histogram.trim_end_matches(".nanos"))
}

pub fn per_layer(name: &str) -> Option<&'static MetricSpec> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn registry_spans_map_onto_declared_metrics() {
        for histogram in REGISTRY_SPANS {
            assert!(
                per_layer(&registry_metric(histogram)).is_some(),
                "{histogram}"
            );
        }
        for (inside, outside) in CROSS_CHECKS {
            assert!(
                inside.iter().all(|h| REGISTRY_SPANS.contains(h)),
                "{inside:?}"
            );
            assert!(per_layer(outside).is_some(), "{outside}");
        }
    }
}
