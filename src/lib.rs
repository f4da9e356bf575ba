//! # gathering-patterns
//!
//! A Rust reproduction of *"On Discovery of Gathering Patterns from
//! Trajectories"* (Kai Zheng, Yu Zheng, Nicholas Jing Yuan, Shuo Shang —
//! ICDE 2013).
//!
//! This facade crate re-exports the workspace crates so downstream users can
//! depend on a single package:
//!
//! * [`geo`] — points, MBRs, Hausdorff distance, grid geometry.
//! * [`trajectory`] — moving-object trajectories and the trajectory database.
//! * [`clustering`] — DBSCAN snapshot clustering.
//! * [`index`] — R-tree and grid indexes over snapshot clusters.
//! * [`core`] — crowds, gatherings, TAD/TAD\*, incremental discovery.
//! * [`shard`] — sharded multi-engine ingest with the exact cross-shard
//!   crowd merge.
//! * [`store`] — durable pattern store, engine checkpoints and the
//!   concurrent monitoring service.
//! * [`baselines`] — flock, convoy, swarm and moving-cluster miners.
//! * [`workload`] — synthetic taxi-trajectory workload generator.
//!
//! ## Quickstart
//!
//! ```
//! use gathering_patterns::prelude::*;
//!
//! // Generate a small synthetic scene with one planted gathering.
//! let scenario = ScenarioConfig::small_demo(42);
//! let dataset = generate_scenario(&scenario);
//!
//! // Configure the discovery engine.
//! let config = GatheringConfig::builder()
//!     .clustering(ClusteringParams::new(60.0, 3))
//!     .crowd(CrowdParams::new(3, 3, 120.0))
//!     .gathering(GatheringParams::new(3, 2))
//!     .build()
//!     .expect("valid parameters");
//!
//! let mut engine = GatheringEngine::new(config);
//! engine.ingest_trajectories(&dataset.database);
//! println!("found {} gatherings", engine.finish().gatherings.len());
//! ```

pub use gpdt_baselines as baselines;
pub use gpdt_clustering as clustering;
pub use gpdt_core as core;
pub use gpdt_geo as geo;
pub use gpdt_index as index;
pub use gpdt_obs as obs;
pub use gpdt_shard as shard;
pub use gpdt_store as store;
pub use gpdt_trajectory as trajectory;
pub use gpdt_workload as workload;

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use gpdt_clustering::{ClusterDatabase, ClusteringParams, SnapshotCluster};
    pub use gpdt_core::{
        Crowd, CrowdParams, EngineUpdate, Gathering, GatheringConfig, GatheringEngine,
        GatheringParams, RangeSearchStrategy, TadVariant,
    };
    pub use gpdt_geo::{Mbr, Point};
    pub use gpdt_obs::{ServeContext, TelemetryServer};
    pub use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};
    pub use gpdt_store::{
        EngineCheckpoint, MonitorService, PatternRecord, PatternStore, StoredGathering,
    };
    pub use gpdt_trajectory::{ObjectId, Timestamp, Trajectory, TrajectoryDatabase};
    pub use gpdt_workload::{generate_scenario, ScenarioConfig, Weather};
}
