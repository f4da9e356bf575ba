//! The one copy of history a sharded engine keeps, and how its shards derive
//! from it.
//!
//! The coordinator's global [`ClusterDatabase`] is mirrored tick for tick by
//! the partitioner's [`TickLayout`]s.  A shard's own cluster database is a
//! view of the global one through a layout's `to_global` table — clusters are
//! reference-counted, so deriving it copies no point — which is what lets a
//! supervision snapshot and a checkpoint's shard section be a [`ShardState`]:
//! everything a shard engine holds *besides* its history.  The same layouts
//! carry the boundary flags the [`cross_edges`] scan pairs up.

use std::collections::VecDeque;

use gpdt_clustering::{ClusterDatabase, ClusterId, SnapshotClusterSet};
use gpdt_core::{
    Crowd, CrowdRecord, Gathering, GatheringConfig, GatheringEngine, RangeSearchStrategy,
    SortedBounds, TadVariant,
};
use gpdt_trajectory::{TimeInterval, Timestamp};

use crate::partition::Partitioner;

/// Where every global cluster of one tick lives: the per-tick output of the
/// partitioner, kept for remapping shard-local results back to global
/// cluster ids, for deriving a shard's cluster sets from the global ones and
/// for the [`cross_edges`] scan.
#[derive(Debug, Clone)]
pub struct TickLayout {
    pub(crate) time: Timestamp,
    /// Shard of each global cluster index.
    pub(crate) shard: Vec<u32>,
    /// Within-shard index of each global cluster index.
    pub(crate) local: Vec<u32>,
    /// Per shard: local index → global index.
    pub(crate) to_global: Vec<Vec<u32>>,
    /// Global indices of boundary-adjacent clusters, ascending.
    pub(crate) boundary: Vec<u32>,
}

impl TickLayout {
    /// Partitions one tick's cluster set: the single source of truth for
    /// layout construction, shared by live ingestion and checkpoint restore
    /// so a restored engine re-derives byte-identical layouts from the same
    /// partitioner.
    pub fn build(
        set: &SnapshotClusterSet,
        partitioner: &Partitioner,
        delta: f64,
        shard_count: usize,
    ) -> Self {
        let n = set.clusters.len();
        let mut layout = TickLayout {
            time: set.time,
            shard: Vec::with_capacity(n),
            local: Vec::with_capacity(n),
            to_global: vec![Vec::new(); shard_count],
            boundary: Vec::new(),
        };
        for (gidx, cluster) in set.clusters.iter().enumerate() {
            let s = partitioner.shard_of(cluster, shard_count);
            layout.shard.push(s as u32);
            layout.local.push(layout.to_global[s].len() as u32);
            layout.to_global[s].push(gidx as u32);
            if partitioner.is_boundary(cluster, delta, shard_count) {
                layout.boundary.push(gidx as u32);
            }
        }
        layout
    }
}

/// What [`cross_edges`] found between two consecutive ticks, and what it
/// cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossEdges {
    /// The edges as (tail, head) global indices, ascending.
    pub edges: Vec<(u32, u32)>,
    /// Pairs of different shards put to the MBR test.
    pub pairs_tested: u64,
    /// Of those, pairs the MBR bound let through to the Hausdorff check.
    pub hausdorff_tests: u64,
}

/// The cross-shard edges from one tick into the next: every pair of clusters
/// of different shards, both with at least `mc` members, within Hausdorff
/// distance `δ`.  Only boundary clusters are paired — the partitioner's
/// boundary guarantee holds for either endpoint of a cross edge, so the scan
/// is exhaustive (under [`Partitioner::HashByObject`] every cluster is
/// boundary).  The scan itself is the single engine's [`SortedBounds`] over
/// the eligible heads, admitting the pairs of different shards.
pub fn cross_edges(
    (tail_layout, tail_set): (&TickLayout, &SnapshotClusterSet),
    (head_layout, head_set): (&TickLayout, &SnapshotClusterSet),
    mc: usize,
    delta: f64,
) -> CrossEdges {
    let eligible = |layout: &TickLayout, set: &SnapshotClusterSet| -> Vec<usize> {
        let boundary = layout.boundary.iter().map(|&g| g as usize);
        boundary.filter(|&g| set.clusters[g].len() >= mc).collect()
    };
    let heads = SortedBounds::build(&head_set.clusters, eligible(head_layout, head_set));
    let mut found = CrossEdges::default();
    let mut near: Vec<usize> = Vec::new();
    for g in eligible(tail_layout, tail_set) {
        let other_shard = |d: usize| head_layout.shard[d] != tail_layout.shard[g];
        let tail = &tail_set.clusters[g];
        let (tested, refined) =
            heads.search(&head_set.clusters, tail, delta, other_shard, &mut near);
        found.pairs_tested += tested as u64;
        found.hausdorff_tests += refined as u64;
        found
            .edges
            .extend(near.iter().map(|&d| (g as u32, d as u32)));
    }
    found
}

/// What one shard's engine holds besides its configuration and its cluster
/// database.  With the database derived from the global one (from
/// `first_tick` on) this is the whole shard: the supervisor's snapshot and
/// the shard section of a `gpdt-store` checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardState {
    /// First tick the shard's database is derived from — the first it
    /// retains, but none the global database has let go; `None` before the
    /// first batch.
    pub first_tick: Option<Timestamp>,
    /// The shard engine's `ticks_ingested` count.
    pub ticks_ingested: u64,
    /// The shard's finalized records (shard-local cluster ids).
    pub finalized: Vec<CrowdRecord>,
    /// The shard's frontier (shard-local cluster ids).
    pub frontier: Vec<(Crowd, Vec<Gathering>)>,
}

/// Whether every cluster `crowd` references from tick `from` on (all of them
/// for `None`) exists in `cdb`.
pub(crate) fn resolves(cdb: &ClusterDatabase, crowd: &Crowd, from: Option<Timestamp>) -> bool {
    let ids = crowd.cluster_ids().iter();
    ids.skip_while(|id| Some(id.time) < from)
        .all(|&id| cdb.cluster(id).is_some())
}

/// [`resolves`] for the crowds and gathering crowds of finalized records,
/// which tolerate ticks evicted by bounded retention (anything older than
/// `from`, the first retained tick) — the leniency the single-engine restore
/// applies.
pub(crate) fn records_resolve(
    cdb: &ClusterDatabase,
    records: &[CrowdRecord],
    from: Option<Timestamp>,
) -> bool {
    let crowds = records
        .iter()
        .flat_map(|r| std::iter::once(&r.crowd).chain(r.gatherings.iter().map(Gathering::crowd)));
    crowds.into_iter().all(|crowd| resolves(cdb, crowd, from))
}

/// The one copy of history: the global (retention-bounded) cluster database
/// and, tick for tick, the partitioner's layout of it.
#[derive(Debug, Default)]
pub(crate) struct History {
    pub(crate) cdb: ClusterDatabase,
    pub(crate) layouts: VecDeque<TickLayout>,
}

impl History {
    /// Tick `t`'s layout and cluster set, while retained.
    pub(crate) fn tick(&self, t: Timestamp) -> Option<(&TickLayout, &SnapshotClusterSet)> {
        let first = self.layouts.front()?.time;
        let layout = self.layouts.get(t.checked_sub(first)? as usize)?;
        Some((layout, self.cdb.set_at(t)?))
    }

    /// Rewrites a shard-local crowd into global cluster ids.
    pub(crate) fn remap(&self, crowd: &Crowd, shard: usize) -> Crowd {
        let global = |id: &ClusterId| {
            let (layout, _) = self.tick(id.time).expect("crowd spans retained ticks");
            ClusterId::new(id.time, layout.to_global[shard][id.index] as usize)
        };
        Crowd::new(crowd.cluster_ids().iter().map(global).collect())
    }

    pub(crate) fn remap_gathering(&self, gathering: &Gathering, shard: usize) -> Gathering {
        let crowd = self.remap(gathering.crowd(), shard);
        Gathering::from_parts(crowd, gathering.participators().to_vec())
    }

    /// Shard `shard`'s cluster database over `ticks` (retained), through the
    /// layouts: clusters are shared with the global database, never copied.
    /// The range is closed, so it reaches `Timestamp::MAX` without a bound
    /// past it.
    pub(crate) fn shard_database(&self, shard: usize, ticks: TimeInterval) -> ClusterDatabase {
        let first = self
            .layouts
            .front()
            .map_or(ticks.start, |layout| layout.time);
        let sets = self.cdb.iter().zip(&self.layouts);
        let sets = sets.skip((ticks.start - first) as usize);
        let sets = sets.take((ticks.end - ticks.start) as usize + 1);
        ClusterDatabase::from_sets(
            sets.map(|(set, layout)| SnapshotClusterSet {
                time: set.time,
                clusters: layout.to_global[shard]
                    .iter()
                    .map(|&gidx| set.clusters[gidx as usize].clone())
                    .collect(),
            })
            .collect(),
        )
    }

    /// Shard `shard`'s engine as `state` describes it at the end of tick
    /// `last` (`None`: before the first tick), over its database derived
    /// from `state.first_tick` on: the one way back from a [`ShardState`],
    /// for the supervisor's rebuild and for checkpoint restore.
    ///
    /// # Errors
    ///
    /// `state` must fit that database, and its frontier be what a sweep of
    /// it leaves behind — which the state of another shard, or of another
    /// shard count, is not.
    pub(crate) fn restore_shard(
        &self,
        shard: usize,
        state: ShardState,
        last: Option<Timestamp>,
        config: GatheringConfig,
        strategy: RangeSearchStrategy,
        variant: TadVariant,
    ) -> Result<GatheringEngine, &'static str> {
        let retained_from = self.cdb.time_domain().map(|d| d.start);
        let local = match (state.first_tick, last) {
            (Some(first), Some(last))
                if retained_from.is_some_and(|r| r <= first) && first <= last =>
            {
                self.shard_database(shard, TimeInterval::new(first, last))
            }
            (None, _) if retained_from.is_none_or(|r| last.is_none_or(|last| last < r)) => {
                ClusterDatabase::new()
            }
            _ => return Err("shard's first retained tick lies outside the global database"),
        };
        if state.ticks_ingested < local.len() as u64 {
            return Err("shard retains more ticks than it ingested");
        }
        // Finalized records are never resolved again and may reach back past
        // the retained window; everything on the frontier is still extended
        // and detected against the database.
        if !records_resolve(&local, &state.finalized, state.first_tick) {
            return Err("shard's finalized record references a cluster missing from its database");
        }
        // What the sweep leaves on a frontier: paths of the shard's own
        // cluster graph ending at the last tick, at least one at every
        // cluster there that has `mc` members and none anywhere else.
        let crowd = config.crowd;
        let end = local.time_domain().map(|d| d.end);
        let mut covered: Vec<bool> = end
            .and_then(|end| local.set_at(end))
            .map_or_else(Vec::new, |set| {
                set.clusters.iter().map(|c| c.len() < crowd.mc).collect()
            });
        for (path, gatherings) in &state.frontier {
            if Some(path.end_time()) != end
                || !resolves(&local, path, None)
                || gatherings
                    .iter()
                    .any(|g| !resolves(&local, g.crowd(), None))
            {
                return Err("shard's frontier does not resolve in its database");
            }
            let clusters: Vec<_> = path
                .cluster_ids()
                .iter()
                .filter_map(|&id| local.cluster(id))
                .collect();
            if clusters.iter().any(|c| c.len() < crowd.mc)
                || clusters
                    .windows(2)
                    .any(|w| !w[0].within_hausdorff(w[1], crowd.delta))
            {
                return Err("shard's frontier is not a path of its cluster graph");
            }
            covered[path.last().index] = true;
        }
        if covered.contains(&false) {
            return Err("shard's frontier misses a cluster of its last tick");
        }
        Ok(GatheringEngine::from_parts(
            config,
            strategy,
            variant,
            local,
            state.finalized,
            state.frontier,
        )
        .with_ticks_ingested(state.ticks_ingested))
    }
}
