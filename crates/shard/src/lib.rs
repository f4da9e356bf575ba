//! Sharded multi-engine ingest with an exact cross-shard crowd merge.
//!
//! The discovery work of `gpdt-core` is inherently per-region — snapshot
//! clustering, crowd sweeping and gathering detection all operate on
//! spatially local data — yet a single [`GatheringEngine`] funnels every
//! cluster through one sweep.  This crate partitions the per-tick snapshot
//! clusters across `N` independent engines and recombines their results so
//! that the output is **identical to a single-engine run for any shard
//! count and either partitioner** (the same bar the streaming engine sets
//! for batch-slicing independence).
//!
//! # Why an exact merge is possible
//!
//! Crowd discovery (Algorithm 1) is path enumeration over a static DAG: the
//! nodes are the snapshot clusters with at least `mc` members, and there is
//! an edge between clusters at consecutive ticks iff their Hausdorff
//! distance is at most `δ`.  The closed crowds are exactly the
//! source-to-sink paths of that DAG (length ≥ `kc`), and gathering
//! detection reads only the clusters of its own crowd.  A shard engine
//! therefore discovers exactly the paths of the subgraph induced by its
//! clusters; everything it can get wrong involves a **cross-shard edge**:
//!
//! * a locally seeded path whose start has a cross-shard in-edge is
//!   spurious (globally the start is absorbed by a longer path);
//! * a locally closed path whose end has a cross-shard out-edge closed too
//!   early (globally it extends into the neighbouring shard);
//! * paths containing a cross-shard edge are discovered by no shard at all.
//!
//! The [`ShardedEngine`] repairs all three deterministically, and finds the
//! cross edges *first* — before a shard has seen the batch.  The
//! partitioner's boundary guarantee holds for **either** endpoint of a cross
//! edge (if `dH(c, d) ≤ δ`, each cluster lies inside the other's
//! `δ`-inflated bounding box, so neither box stays within cells of one
//! shard), hence every cross edge between ticks `t − 1` and `t` joins a
//! boundary cluster of `t − 1` to a boundary cluster of `t`: pairing those
//! two short lists ([`cross_edges`]: different shards, both with `mc`
//! members, through the single engine's sorted-bounds kernel — like sides of
//! the two boxes within `δ`, then the Hausdorff test) is exhaustive, with no
//! index over the tick.  Knowing the edges up front,
//! each shard logs — via the per-tick observer hook of
//! [`CrowdDiscovery::run_resumed_observed`](gpdt_core::CrowdDiscovery::run_resumed_observed)
//! — only the candidates that end at the tail of one; the merge replay then
//! drops the local results an edge invalidates, splices the logged prefixes
//! onto the edges, and carries the *tainted* paths forward against the
//! global cluster sets.  With the spatial [`GridPartitioner`] the boundary
//! lists are a thin slice of a tick; the [`Partitioner::HashByObject`]
//! fallback treats every cluster as boundary (correct for arbitrary data;
//! the scan sweeps the heads along x, so it stays near-linear in them, and
//! the replay approaches a full sweep).
//!
//! # One copy of history
//!
//! The coordinator's global cluster database, mirrored tick for tick by the
//! partitioner's [`TickLayout`]s, is the only copy of the cluster history
//! that is ever copied, serialised or indexed.  A shard's own database is a
//! view of it through a layout (reference-counted clusters, no point
//! copied), so what the supervisor snapshots and what a `gpdt-store`
//! checkpoint writes per shard is a [`ShardState`] — first retained tick,
//! tick count, finalized records, frontier — and the shard's engine is
//! rebuilt from that plus its derived database, byte-identical, when a
//! worker is lost or a checkpoint restored.
//!
//! ```
//! use gpdt_core::{GatheringConfig, GatheringEngine};
//! use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};
//! use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
//!
//! let db = TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
//!     Trajectory::from_points(
//!         ObjectId::new(i),
//!         (0..8u32).map(|t| (t, (i as f64 * 10.0, t as f64))).collect::<Vec<_>>(),
//!     )
//! }));
//! let config = GatheringConfig::builder()
//!     .clustering(gpdt_core::ClusteringParams::new(60.0, 3))
//!     .crowd(gpdt_core::CrowdParams::new(4, 4, 100.0))
//!     .gathering(gpdt_core::GatheringParams::new(3, 3))
//!     .build()
//!     .unwrap();
//!
//! let partitioner = Partitioner::Grid(GridPartitioner::new(400.0));
//! let mut sharded = ShardedEngine::new(config, 4, partitioner);
//! sharded.ingest_trajectories(&db);
//!
//! let mut single = GatheringEngine::new(config);
//! single.ingest_trajectories(&db);
//! assert_eq!(sharded.closed_crowds(), single.closed_crowds());
//! assert_eq!(sharded.gatherings(), single.gatherings());
//! ```
//!
//! [`GatheringEngine`]: gpdt_core::GatheringEngine

pub mod engine;
pub mod history;
pub mod partition;

pub use engine::{ShardFault, ShardLoad, ShardedEngine, ShardedStats, ShardedUpdate, MAX_SHARDS};
pub use history::{cross_edges, CrossEdges, ShardState, TickLayout};
pub use partition::{GridPartitioner, Partitioner};
