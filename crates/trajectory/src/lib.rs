//! Trajectory data model.
//!
//! This crate implements the moving-object database model of §II of the
//! paper:
//!
//! * a [`Trajectory`] is a finite sequence of timestamped locations of one
//!   moving object,
//! * a [`TrajectoryDatabase`] holds the trajectories of all objects over a
//!   discretised time domain and can produce the *snapshot* of all object
//!   positions at a time point, creating **virtual points by linear
//!   interpolation** for objects whose samples are not synchronised with the
//!   time domain,
//! * [`io`] provides a small line-oriented text format for persisting and
//!   reloading trajectory datasets (object id, timestamp, x, y per line).
//!
//! Timestamps are indices into the discretised time domain (`u32`); the
//! paper uses one-minute granularity but nothing in this crate depends on
//! the physical duration of a tick.

pub mod database;
pub mod io;
pub mod trajectory;
pub mod types;

pub use database::{DatabaseBuilder, Snapshot, TrajectoryDatabase};
pub use trajectory::{Sample, Trajectory};
pub use types::{ObjectId, TimeInterval, Timestamp};
