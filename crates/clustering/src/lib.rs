//! Density-based snapshot clustering.
//!
//! The first phase of the gathering-discovery pipeline (§III of the paper)
//! runs density-based clustering on the positions of all objects at every
//! time point of the database, producing the *snapshot cluster database*
//! `CDB = {C_{t1}, ..., C_{tn}}`.
//!
//! * [`dbscan()`] — a DBSCAN implementation with a grid-accelerated
//!   ε-neighbourhood search (Ester et al., KDD 1996 — reference \[14\] of the
//!   paper).
//! * [`snapshot`] — [`SnapshotCluster`], the per-timestamp cluster sets and
//!   the [`ClusterDatabase`] consumed by crowd discovery.
//! * [`stream`] — [`StreamingClusterer`], which clusters newly appended
//!   snapshots on demand for the streaming discovery engine.

pub mod dbscan;
pub mod params;
pub mod snapshot;
pub mod stream;

pub use dbscan::{dbscan, dbscan_with, DbscanResult, DbscanScratch};
pub use params::ClusteringParams;
pub use snapshot::{
    ClusterDatabase, ClusterId, SnapshotCluster, SnapshotClusterSet, SnapshotClusterSetBuilder,
};
pub use stream::StreamingClusterer;
