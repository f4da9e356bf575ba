//! The wire format, pinned: fixed seeded values encode to bytes whose
//! FNV-1a digests are constants, and decoding those bytes and encoding the
//! result gives the same bytes back.
//!
//! The values are a set of [`PatternRecord`]s, one segment file, an engine
//! checkpoint under each retention policy and a two-shard checkpoint.  The
//! benchmark's input and output digests are FNV-1a over the same encodings,
//! so a codec change that moves one byte fails here first.

use std::path::Path;
use std::sync::Arc;

use gpdt_clustering::{ClusterDatabase, ClusteringParams};
use gpdt_core::{CrowdParams, GatheringConfig, GatheringEngine, GatheringParams, RetentionPolicy};
use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};
use gpdt_store::codec::fnv1a;
use gpdt_store::{
    checkpoint_to_vec, decode_from_slice, encode_to_vec, restore_from_slice,
    restore_sharded_from_slice, sharded_checkpoint_to_vec, FaultVfs, PatternRecord, PatternStore,
    StoreOptions, Vfs,
};
use gpdt_trajectory::TimeInterval;
use gpdt_workload::{generate_scenario, EventRates, ScenarioConfig};

const TICKS: u32 = 48;

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(200.0, 5))
        .crowd(CrowdParams::new(10, 8, 300.0))
        .gathering(GatheringParams::new(8, 6))
        .build()
        .unwrap()
}

/// One cluster database per tick of a seeded, event-dense 48-minute scene.
fn batches() -> Vec<ClusterDatabase> {
    let mut scenario = ScenarioConfig::small_demo(2026);
    scenario.num_taxis = 120;
    scenario.duration = TICKS;
    scenario.area_size = 7_000.0;
    scenario.event_rates = EventRates {
        jams_per_hour: [8.0, 8.0, 8.0],
        venues_per_hour: [4.0, 4.0, 4.0],
        convoys_per_hour: [2.0, 2.0, 2.0],
    };
    let db = generate_scenario(&scenario).database;
    (0..TICKS)
        .map(|t| {
            ClusterDatabase::build_interval(&db, &config().clustering, TimeInterval::new(t, t))
        })
        .collect()
}

fn engine(retention: RetentionPolicy) -> GatheringEngine {
    let mut engine = GatheringEngine::new(config()).with_retention(retention);
    for batch in batches() {
        engine.ingest_clusters(batch);
    }
    engine
}

/// Writes `records` to a store of one segment and returns the segment's
/// bytes.
fn segment_of(records: &[PatternRecord]) -> Vec<u8> {
    let vfs = FaultVfs::new(1);
    let mut store =
        PatternStore::open_at(Arc::new(vfs.clone()), "/wire", StoreOptions::default()).unwrap();
    for record in records {
        store.append(record.clone()).unwrap();
    }
    store.sync().unwrap();
    assert_eq!(store.segment_count(), 1);
    drop(store);
    vfs.read_file(Path::new("/wire/seg-00000001.gpdt")).unwrap()
}

/// The records a store holding only `segment` reopens to.
fn reopened(segment: &[u8]) -> Vec<PatternRecord> {
    let vfs = FaultVfs::new(1);
    gpdt_store::write_file_atomic(&vfs, Path::new("/wire/seg-00000001.gpdt"), segment).unwrap();
    let store = PatternStore::open_at(Arc::new(vfs), "/wire", StoreOptions::default()).unwrap();
    assert!(store.tail_repair().is_none());
    store.records().to_vec()
}

#[test]
fn encodings_are_pinned_and_roundtrip_byte_for_byte() {
    let keep_all = engine(RetentionPolicy::KeepAll);
    let bounded = engine(RetentionPolicy::Bounded);
    assert!(!keep_all.finalized_records().is_empty() && !keep_all.frontier().is_empty());
    assert!(
        bounded.cluster_database().time_domain().unwrap().start > 0,
        "bounded retention must have evicted ticks"
    );
    let mut sharded = ShardedEngine::new(
        config(),
        2,
        Partitioner::Grid(GridPartitioner::new(1_500.0)),
    );
    for batch in batches() {
        sharded.ingest_clusters(batch);
    }
    assert!(
        sharded.stats().cross_edges > 0,
        "the shards must share edges"
    );

    let records: Vec<PatternRecord> = keep_all
        .finalized_records()
        .iter()
        .map(|r| PatternRecord::from_crowd_record(r, keep_all.cluster_database()))
        .collect();
    assert!(records.iter().any(|r| !r.gatherings.is_empty()));
    let record_bytes = encode_to_vec(&records);
    let segment = segment_of(&records);
    let keep_all_bytes = checkpoint_to_vec(&keep_all);
    let bounded_bytes = checkpoint_to_vec(&bounded);
    let sharded_bytes = sharded_checkpoint_to_vec(&sharded);

    let digests = [
        ("records", fnv1a(&record_bytes), record_bytes.len()),
        ("segment", fnv1a(&segment), segment.len()),
        (
            "keep-all checkpoint",
            fnv1a(&keep_all_bytes),
            keep_all_bytes.len(),
        ),
        (
            "bounded checkpoint",
            fnv1a(&bounded_bytes),
            bounded_bytes.len(),
        ),
        (
            "two-shard checkpoint",
            fnv1a(&sharded_bytes),
            sharded_bytes.len(),
        ),
    ];
    // (what, FNV-1a, bytes) under checkpoint v2, segment v3 and sharded
    // checkpoint v3: a change here is a format change.
    let pinned: [(&str, u64, usize); 5] = [
        ("records", 0x63f7263ab3d89d85, 1568),
        ("segment", 0xc0070715507d244c, 1618),
        ("keep-all checkpoint", 0xf2f0c8b94d0874ec, 50764),
        ("bounded checkpoint", 0x6701611f74fad2f9, 38204),
        ("two-shard checkpoint", 0xcf18f15698be5b8e, 52711),
    ];
    assert_eq!(digests, pinned);

    // Decoding and encoding again gives the same bytes.
    let back: Vec<PatternRecord> = decode_from_slice(&record_bytes).unwrap();
    assert_eq!(encode_to_vec(&back), record_bytes);
    assert_eq!(segment_of(&reopened(&segment)), segment);
    for bytes in [&keep_all_bytes, &bounded_bytes] {
        assert_eq!(
            &checkpoint_to_vec(&restore_from_slice(bytes).unwrap()),
            bytes
        );
    }
    assert_eq!(
        sharded_checkpoint_to_vec(&restore_sharded_from_slice(&sharded_bytes).unwrap()),
        sharded_bytes
    );
}
