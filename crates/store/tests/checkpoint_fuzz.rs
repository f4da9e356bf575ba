//! Seeded, structure-aware forging of the checkpoint readers'
//! length prefixes.
//!
//! An engine checkpoint (bounded retention, evicted history, an open
//! frontier) and a two-shard checkpoint are written once.  A layout walker
//! re-encodes each through the public codec and notes where every length
//! prefix sits: tick count, cluster counts and member lengths, crowd and
//! participator vectors, the finalized and frontier vectors, and the
//! sharded checkpoint's merge paths, cross edges, shard count and shard
//! sections.  Each prefix is then forged up to `u64::MAX`, and each input
//! is cut at every offset.  Every case must end in a typed
//! [`DecodeError`](gpdt_store::DecodeError) or in an engine that
//! checkpoints and finishes; none may panic, and none may allocate beyond
//! what the input's length explains.
//!
//! One `#[test]`: the allocation check reads the process's peak virtual
//! size, which a second test thread would disturb.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpdt_clustering::{ClusterDatabase, ClusteringParams};
use gpdt_core::{
    Crowd, CrowdParams, CrowdRecord, Gathering, GatheringConfig, GatheringEngine, GatheringParams,
    RetentionPolicy,
};
use gpdt_shard::{GridPartitioner, Partitioner, ShardedEngine};
use gpdt_store::{
    checkpoint_to_vec, restore_from_slice, restore_sharded_from_slice, sharded_checkpoint_to_vec,
    Encode,
};
use gpdt_trajectory::{ObjectId, Trajectory, TrajectoryDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TICKS: u32 = 30;

fn config() -> GatheringConfig {
    GatheringConfig::builder()
        .clustering(ClusteringParams::new(60.0, 3))
        .crowd(CrowdParams::new(3, 4, 100.0))
        .gathering(GatheringParams::new(3, 3))
        .build()
        .unwrap()
}

/// Three groups of five taxis, out of phase: each gathers for six ticks
/// and scatters for three, so crowds keep closing while others are open,
/// and the groups drift across grid cells.
fn trajectories() -> TrajectoryDatabase {
    let mut rng = StdRng::seed_from_u64(0xC4E);
    TrajectoryDatabase::from_trajectories((0..15u32).map(|i| {
        let group = i / 5;
        let points = (0..TICKS)
            .map(|t| {
                let x = match (t + 3 * group) % 9 < 6 {
                    true => f64::from(group * 400 + i % 5 * 10 + t * 20),
                    false => f64::from(i) * 50_000.0 + f64::from(t),
                };
                let y = f64::from(group) * 100.0;
                (
                    t,
                    (x + rng.gen_range(0.0..5.0), y + rng.gen_range(0.0..5.0)),
                )
            })
            .collect::<Vec<_>>();
        Trajectory::from_points(ObjectId::new(i), points)
    }))
}

/// A checkpoint re-encoded piece by piece, with the offset and meaning of
/// every length prefix in it.
#[derive(Default)]
struct Layout {
    bytes: Vec<u8>,
    lengths: Vec<(usize, &'static str)>,
}

impl Layout {
    fn value<T: Encode + ?Sized>(&mut self, value: &T) {
        value.encode(&mut self.bytes);
    }

    fn len(&mut self, len: usize, what: &'static str) {
        self.lengths.push((self.bytes.len(), what));
        self.value(&len);
    }

    fn clusters(&mut self, cdb: &ClusterDatabase) {
        self.len(cdb.len(), "tick count");
        for set in cdb.iter() {
            // Time, cluster count, one length per cluster, then columns.
            let at = self.bytes.len();
            self.value(set);
            self.lengths.push((at + 4, "cluster count"));
            for k in 0..set.len() {
                self.lengths.push((at + 12 + 8 * k, "member length"));
            }
        }
    }

    fn crowd(&mut self, crowd: &Crowd) {
        self.len(crowd.cluster_ids().len(), "crowd clusters");
        for id in crowd.cluster_ids() {
            self.value(id);
        }
    }

    fn gatherings(&mut self, gatherings: &[Gathering]) {
        self.len(gatherings.len(), "gatherings");
        for gathering in gatherings {
            self.crowd(gathering.crowd());
            self.len(gathering.participators().len(), "participators");
            for id in gathering.participators() {
                self.value(id);
            }
        }
    }

    fn finalized(&mut self, records: &[CrowdRecord], what: &'static str) {
        self.len(records.len(), what);
        for record in records {
            self.crowd(&record.crowd);
            self.gatherings(&record.gatherings);
        }
    }

    fn frontier(&mut self, frontier: &[(Crowd, Vec<Gathering>)], what: &'static str) {
        self.len(frontier.len(), what);
        for (crowd, gatherings) in frontier {
            self.crowd(crowd);
            self.gatherings(gatherings);
        }
    }

    fn engine(engine: &GatheringEngine) -> Self {
        let mut layout = Layout {
            bytes: checkpoint_to_vec(engine)[..10].to_vec(),
            ..Layout::default()
        };
        layout.value(engine.config());
        layout.value(&engine.strategy());
        layout.value(&engine.variant());
        layout.clusters(engine.cluster_database());
        layout.finalized(engine.finalized_records(), "finalized");
        layout.frontier(engine.frontier(), "frontier");
        layout
    }

    fn sharded(engine: &ShardedEngine) -> Self {
        let mut layout = Layout {
            bytes: sharded_checkpoint_to_vec(engine)[..10].to_vec(),
            ..Layout::default()
        };
        layout.value(engine.config());
        layout.value(&engine.strategy());
        layout.value(&engine.variant());
        layout.value(engine.partitioner());
        layout.clusters(engine.cluster_database());
        layout.len(engine.merge_frontier().len(), "merge paths");
        for crowd in engine.merge_frontier() {
            layout.crowd(crowd);
        }
        for (ids, what) in [
            (engine.cross_edge_heads(), "cross-edge heads"),
            (engine.cross_edge_tails(), "cross-edge tails"),
        ] {
            layout.len(ids.len(), what);
            for id in ids {
                layout.value(id);
            }
        }
        layout.finalized(engine.finalized_records(), "finalized");
        let states = engine.shard_states();
        layout.len(states.len(), "shard count");
        for state in &states {
            layout.value(&state.first_tick);
            layout.value(&state.ticks_ingested);
            layout.finalized(&state.finalized, "shard finalized");
            layout.frontier(&state.frontier, "shard frontier");
        }
        layout
    }
}

/// Peak virtual size of this process in KiB, where the platform says.
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Whether `restore` made a working engine of `bytes` (`false`: a typed
/// error).  A panic anywhere fails the case.
fn survives(label: &str, restore: &dyn Fn(&[u8]) -> bool, bytes: &[u8]) -> bool {
    catch_unwind(AssertUnwindSafe(|| restore(bytes)))
        .unwrap_or_else(|_| panic!("{label}: panicked"))
}

/// Every length prefix of `layout` forged, and every cut of its bytes.
/// `prefixes` names the kinds of prefix the layout must hold.
fn forge_and_cut(
    name: &str,
    layout: &Layout,
    prefixes: &[&str],
    restore: &dyn Fn(&[u8]) -> bool,
    rng: &mut StdRng,
) {
    let kinds: BTreeSet<&str> = layout.lengths.iter().map(|&(_, what)| what).collect();
    assert_eq!(kinds, prefixes.iter().copied().collect(), "{name}");
    let bytes = &layout.bytes;
    assert!(survives(name, restore, bytes), "{name}: pristine");
    for &(at, what) in &layout.lengths {
        let real = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let left = (bytes.len() - at - 8) as u64;
        for forged in [
            0,
            real.saturating_sub(1),
            real + 1,
            left,
            left + 1,
            rng.gen_range(left + 1..1 << 40),
            u64::from(u32::MAX) + 1,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let mut mutant = bytes.clone();
            mutant[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let label = format!("{name}: {what} at {at} forged {real} -> {forged}");
            // Whatever decodes runs on; no length past the input's end does.
            let restored = survives(&label, restore, &mutant);
            assert!(forged <= left || !restored, "{label}: decoded");
        }
    }
    for cut in 0..bytes.len() {
        let label = format!("{name}: cut at {cut}");
        assert!(
            !survives(&label, restore, &bytes[..cut]),
            "{label}: decoded"
        );
    }
}

#[test]
fn forged_lengths_and_cuts_fail_typed_or_restore_a_working_engine() {
    let db = trajectories();
    let mut engine = GatheringEngine::new(config()).with_retention(RetentionPolicy::Bounded);
    let grid = Partitioner::Grid(GridPartitioner::new(300.0));
    let mut sharded = ShardedEngine::new(config(), 2, grid);
    for t in 0..TICKS {
        engine.ingest_trajectories_until(&db, t);
        sharded.ingest_trajectories_until(&db, t);
    }
    engine.evict_retired_clusters();
    assert!(engine.cluster_database().time_domain().unwrap().start > 0);
    assert!(sharded.stats().cross_edges > 0);

    let single = Layout::engine(&engine);
    assert_eq!(single.bytes, checkpoint_to_vec(&engine), "engine layout");
    let two = Layout::sharded(&sharded);
    assert_eq!(
        two.bytes,
        sharded_checkpoint_to_vec(&sharded),
        "sharded layout"
    );

    let baseline = vm_peak_kib();
    let mut rng = StdRng::seed_from_u64(0x1E6);
    let restore_single = |bytes: &[u8]| match restore_from_slice(bytes) {
        Ok(engine) => {
            checkpoint_to_vec(&engine);
            engine.finish();
            true
        }
        Err(_) => false,
    };
    let restore_sharded = |bytes: &[u8]| match restore_sharded_from_slice(bytes) {
        Ok(engine) => {
            sharded_checkpoint_to_vec(&engine);
            engine.closed_crowds();
            engine.gatherings();
            true
        }
        Err(_) => false,
    };
    let common = [
        "tick count",
        "cluster count",
        "member length",
        "crowd clusters",
        "gatherings",
        "participators",
        "finalized",
    ];
    let mut prefixes = common.to_vec();
    prefixes.push("frontier");
    forge_and_cut("engine", &single, &prefixes, &restore_single, &mut rng);
    let mut prefixes = common.to_vec();
    prefixes.extend([
        "merge paths",
        "cross-edge heads",
        "cross-edge tails",
        "shard count",
        "shard finalized",
        "shard frontier",
    ]);
    forge_and_cut("two-shard", &two, &prefixes, &restore_sharded, &mut rng);

    // No case allocated what the bytes do not explain: a forged length is
    // checked against the bytes left before it sizes anything.
    if let (Some(before), Some(after)) = (baseline, vm_peak_kib()) {
        let input_kib = (single.bytes.len() + two.bytes.len()) as u64 / 1024 + 1;
        assert!(
            after - before <= 64 * 1024 + 16 * input_kib,
            "peak virtual size grew by {} KiB over {input_kib} KiB of checkpoints",
            after - before
        );
    }
}
