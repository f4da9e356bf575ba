//! Durability and queries for gathering-pattern discovery.
//!
//! The discovery engine of `gpdt-core` is memory-only: a crash loses the
//! Lemma 4 frontier and every finalized crowd, and once discovery has moved
//! on there is no way to ask *"which gatherings were active in region `R`
//! during `[t1, t2]`?"*.  This crate adds the missing persistence layer:
//!
//! * [`codec`] + [`model`] — a hand-rolled, versioned binary codec (the build
//!   container has no crates.io access, so no `serde`): [`Encode`]/[`Decode`]
//!   implementations for trajectories, snapshot clusters, crowds, gatherings
//!   and every parameter type, with strict validation so malformed files fail
//!   with a [`DecodeError`] instead of a panic.
//! * [`checkpoint`] — [`EngineCheckpoint`], serialising the **full**
//!   [`GatheringEngine`](gpdt_core::GatheringEngine) state (configuration,
//!   cluster database, finalized records, frontier) so a stream can resume
//!   after a crash at any tick boundary with output identical to an
//!   uninterrupted run.
//! * [`store`] — the durable [`PatternStore`]: an append-only segment log of
//!   finalized crowd records with an in-memory interval index over lifespans
//!   and an R-tree (reusing `gpdt-index`) over crowd MBRs, answering
//!   region × time-window queries, per-object participation history and
//!   top-k gatherings by participator count.  Finalized records enter it
//!   through [`PatternStore::spill`], which verifies what the store already
//!   holds, appends the rest and reports where and why it stopped; the
//!   service, the out-of-core driver and the frontier archive all use it.
//! * [`sharded`] — checkpoint/restore for the partitioned
//!   [`ShardedEngine`](gpdt_shard::ShardedEngine), a batch path beside the
//!   service: the coordinator's global cluster database and merge state,
//!   plus each shard's history-free [`ShardState`](gpdt_shard::ShardState).
//! * [`service`] — [`MonitorService`], the concurrent façade: one ingestion
//!   thread feeds a [`GatheringEngine`](gpdt_core::GatheringEngine) and the
//!   store while any number of caller threads run queries (std scoped
//!   threads + channels, no runtime), with a [`ServiceStats`] snapshot of
//!   its counters and the engine's load, retry/backoff on transient store
//!   faults, and a degraded mode that queues ingest while storage is down.
//!   Its supervision settings (retry budget, backoff, recovery-point
//!   cadence, queue bound) are fixed constants, listed in the
//!   [`service`] module docs.
//! * [`vfs`] — the pluggable storage backend: [`RealVfs`] maps to `std::fs`,
//!   the seeded [`FaultVfs`] injects short writes, torn frames, fsync
//!   failures, `ENOSPC` and crash points deterministically, so every
//!   durability claim is tested under real fault schedules.
//!
//! The workspace-root tests `checkpoint_restore.rs` and `store_queries.rs`
//! verify the two load-bearing equivalences: restore-at-any-boundary ≡
//! uninterrupted discovery, and indexed queries ≡ full scans.

pub mod checkpoint;
pub mod codec;
pub mod model;
pub mod service;
pub mod sharded;
pub mod store;
pub mod vfs;

pub use checkpoint::{
    checkpoint_to_vec, restore_from_slice, EngineCheckpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use codec::{decode_from_slice, encode_to_vec, Decode, DecodeError, Encode, CODEC_VERSION};
#[doc(hidden)]
pub use service::RecoveryPoint;
pub use service::{
    MonitorOutcome, MonitorService, MonitoredEngine, ServiceError, ServiceHandle, ServiceStats,
};
pub use sharded::{
    restore_sharded_from_slice, sharded_checkpoint_to_vec, SHARDED_CHECKPOINT_MAGIC,
    SHARDED_CHECKPOINT_VERSION,
};
pub use store::{
    GatheringHit, PatternRecord, PatternStore, RecordId, Spill, SpillStop, StoreError,
    StoreOptions, StoredGathering, TailRepair, SEGMENT_MAGIC, SEGMENT_VERSION,
};
pub use vfs::{read_file_opt, write_file_atomic, FaultPlan, FaultVfs, RealVfs, Vfs, VfsFile};
