//! Geometric primitives for gathering-pattern discovery.
//!
//! This crate provides the spatial substrate used by the rest of the
//! workspace:
//!
//! * [`Point`] — a 2-D point with Euclidean distance operations,
//! * [`Mbr`] — axis-aligned minimum bounding rectangles with the
//!   rectangle/rectangle and side/rectangle minimum-distance functions that
//!   back the `dmin` (Lemma 2) and `dside` (Lemma 3) lower bounds of the
//!   paper,
//! * [`hausdorff`] — exact and threshold-aware Hausdorff distance between
//!   point sets (Definition in §II of the paper),
//! * [`grid`] — the uniform grid geometry (cell side = √2/2·δ) and the
//!   *affect region* of a cell (Definition 5),
//! * [`bvs`] — bit-vector signatures with word-parallel population count and
//!   set operations, shared by TAD\* and the swarm miner,
//! * [`soa`] — structure-of-arrays point storage: [`PointColumns`] and the
//!   borrowed [`PointsView`], the one input of the hot kernels,
//! * [`simd`] — runtime-dispatched AVX2/SSE2/scalar kernels for the hot
//!   column loops (ε-neighbourhood filtering, nearest-point reductions,
//!   min/max/sum column folds), bit-identical across levels and pinnable
//!   via `GPDT_SIMD`.
//!
//! All distances are plain Euclidean distances in metres; the workspace
//! treats trajectory coordinates as already projected onto a local planar
//! coordinate system.

pub mod bvs;
pub mod grid;
pub mod hausdorff;
pub mod mbr;
pub mod point;
pub mod simd;
pub mod soa;

pub use bvs::BitVector;
pub use grid::{CellCoord, GridGeometry};
pub use hausdorff::{
    bucketed_pair_cutoff, directed_hausdorff, hausdorff_distance, hausdorff_within,
    hausdorff_within_bruteforce, hausdorff_within_bucketed,
};
pub use mbr::Mbr;
pub use point::Point;
pub use simd::{available_levels, dispatch, KernelDispatch, SimdLevel};
pub use soa::{PointColumns, PointsView};
