//! Spatial indexes over snapshot clusters.
//!
//! The crowd-discovery range search must repeatedly answer the question
//! *"which clusters at the next timestamp are within Hausdorff distance δ of
//! this cluster?"*.  This crate provides the two index families the paper
//! evaluates (§III-A):
//!
//! * [`rtree`] — an R-tree over cluster MBRs supporting
//!   * the **SR** query (prune with `dmin`, Lemma 2) and
//!   * the **IR** query (prune with the tighter `dside` bound, Lemma 3);
//! * [`grid`] — a grid index sharing one [`gpdt_geo::GridGeometry`] across
//!   all timestamps, with per-cluster cell lists, inverted lists per block
//!   of cells and the affect-region pruning + refinement of §III-A.2 (the **GRID**
//!   strategy), which decides `dH ≤ δ` without ever computing an exact
//!   Hausdorff distance.  Because the geometry is shared, a cluster bucketed
//!   for one timestamp's index is the ready-made query against the next.
//!
//! Both indexes are generic over "a set of point sets": they know nothing
//! about object ids or timestamps, which keeps them reusable and keeps this
//! crate's dependencies to `gpdt-geo` (and `gpdt-obs` for the grid's work
//! counters) only.

pub mod grid;
pub mod rtree;

pub use grid::{
    BucketedCluster, BucketedQuery, GridBuildScratch, GridClusterIndex, GridSearchScratch,
};
pub use rtree::RTree;
