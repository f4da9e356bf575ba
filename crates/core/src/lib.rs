//! Discovery of gathering patterns from trajectories.
//!
//! This crate implements the primary contribution of *"On Discovery of
//! Gathering Patterns from Trajectories"* (Zheng et al., ICDE 2013):
//!
//! * [`params`] — the parameter sets of the problem statement
//!   (`mc`, `kc`, `δ` for crowds; `mp`, `kp` for gatherings) with validation.
//! * [`crowd`] — the [`Crowd`] pattern and **Algorithm 1**, the closed-crowd
//!   discovery sweep over the snapshot-cluster database.
//! * [`range_search`] — the pluggable range-search strategies used by
//!   Algorithm 1: brute force, R-tree with `dmin` (SR), R-tree with `dside`
//!   (IR) and the grid index (GRID).
//! * [`bvs`] — bit-vector signatures and the word-parallel population-count
//!   kernel used by TAD\* (re-exported from `gpdt-geo`, where the type lives
//!   so lower layers can share it).
//! * [`gathering`] — the [`Gathering`] pattern, participator computation and
//!   the three detection algorithms (brute force, TAD, TAD\*).
//! * [`engine`] — the streaming [`GatheringEngine`], the single
//!   implementation of discovery: it ingests trajectory/cluster data
//!   tick-by-tick (or in arbitrary batches) and maintains closed crowds and
//!   gatherings incrementally, parallelising snapshot clustering, per-tick
//!   index construction and per-crowd gathering detection.
//! * [`incremental`] — the Theorem 2 gathering-update primitive
//!   ([`update_gatherings`](incremental::update_gatherings)).
//!
//! [`GatheringEngine`] is the one entry point: a batch run ingests the whole
//! database once and calls [`GatheringEngine::finish`]; continuously
//! arriving data is ingested slice by slice into the same engine.
//!
//! ```
//! use gpdt_core::{ClusteringParams, CrowdParams, GatheringConfig, GatheringEngine,
//!                 GatheringParams};
//! use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
//!
//! // Five objects stay together for six ticks: one crowd, one gathering.
//! let db = TrajectoryDatabase::from_trajectories((0..5u32).map(|i| {
//!     Trajectory::from_points(
//!         ObjectId::new(i),
//!         (0..6u32).map(|t| (t, (i as f64 * 10.0, t as f64))).collect::<Vec<_>>(),
//!     )
//! }));
//!
//! let config = GatheringConfig::builder()
//!     .clustering(ClusteringParams::new(60.0, 3))
//!     .crowd(CrowdParams::new(4, 4, 100.0))
//!     .gathering(GatheringParams::new(3, 3))
//!     .build()
//!     .unwrap();
//!
//! let mut engine = GatheringEngine::new(config);
//! engine.ingest_trajectories(&db);
//! assert_eq!(engine.finish().gatherings.len(), 1);
//! ```

pub mod crowd;
pub mod engine;
pub mod gathering;
pub mod incremental;
pub mod par;
pub mod params;
pub mod range_search;

pub use crowd::{discover_closed_crowds, Crowd, CrowdDiscovery, CrowdDiscoveryResult};
pub use engine::{
    canonical_crowd_order, canonical_gathering_order, CrowdRecord, DiscoveryResult, EngineStats,
    EngineUpdate, GatheringEngine, RetentionPolicy,
};
pub use gathering::{detect_closed_gatherings, CrowdOccurrence, Gathering, TadVariant};
pub use gpdt_geo::bvs;
pub use gpdt_geo::bvs::BitVector;
pub use params::{
    ConfigError, CrowdParams, GatheringConfig, GatheringConfigBuilder, GatheringParams,
};
pub use range_search::{RangeSearchStrategy, SearcherScratch, SortedBounds, TickSearcher};

// Re-export the parameter type of the clustering phase so downstream users
// only need this crate for configuration.
pub use gpdt_clustering::ClusteringParams;
