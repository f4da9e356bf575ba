//! Seeded inputs: scenarios, ingest batches, synthetic store records and
//! crowds, the query mix, and the digests that pin them.
//!
//! The same seed always gives the same inputs; the program under test only
//! ever sees the generated inputs, never the seed or the workload's name.

use gpdt_clustering::{ClusterDatabase, ClusterId, SnapshotCluster, SnapshotClusterSet};
use gpdt_core::{ClusteringParams, Crowd, CrowdParams, GatheringConfig, GatheringParams};
use gpdt_geo::{Mbr, Point};
use gpdt_store::codec::fnv1a;
use gpdt_store::{encode_to_vec, Encode, PatternRecord, StoredGathering};
use gpdt_trajectory::{ObjectId, TimeInterval};
use gpdt_workload::{EventRates, ScenarioConfig, Weather};

/// Reference sizes at `--scale 1`.  The issue's starting sizes (6000 / 3000
/// taxis, 100 000 records) are scaled down uniformly so that the driver's 92
/// runs — three processes each, with a set-up, an untimed pass and several
/// timed passes — fit the contract's total-time cap.
pub const CITY_TAXIS: usize = 1200;
pub const ARCHIVE_TAXIS: usize = 1500;
pub const STORE_RECORDS: usize = 30_000;
pub const STORE_QUERIES: usize = 2_000;
pub const MIXED_APPENDS: usize = 500;
pub const MIXED_QUERIES_PER_APPEND: usize = 8;

/// Scales a reference size, never below `floor`.
pub fn scaled(size: usize, scale: f64, floor: usize) -> usize {
    ((size as f64 * scale).round() as usize).max(floor)
}

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the repository's vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Uniform in `[lo, hi)`; `hi > lo`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo)) as u32
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `city_stream`: one clear synthetic day under the paper's thresholds.
pub fn city_scenario(seed: u64, scale: f64) -> (ScenarioConfig, GatheringConfig) {
    let scenario =
        ScenarioConfig::single_day(seed, Weather::Clear).with_taxis(scaled(CITY_TAXIS, scale, 20));
    (scenario, GatheringConfig::paper_default())
}

/// `archive_mine` / `sharded_stream`: an event-dense snowy day on a small
/// map with loosened thresholds, so the sweep, Hausdorff tests, TAD\* and
/// the store append carry real work (about 900 closed crowds at scale 1).
///
/// δ equals ε here, not the paper's 300 > 200.  With δ > ε two venues whose
/// clusters sit between ε and δ apart are separate clusters that link to
/// each other at every tick, so the closed crowds double with each tick they
/// coexist: on this map some seeds then yield three times the usual crowds,
/// and one in a hundred or so never finishes (seed 17631218485132288293 was
/// stopped at 6.5 GB after three minutes).  A benchmark must end.
pub fn archive_scenario(seed: u64, scale: f64) -> (ScenarioConfig, GatheringConfig) {
    let mut rates = EventRates::city_default();
    for rate in rates
        .jams_per_hour
        .iter_mut()
        .chain(rates.venues_per_hour.iter_mut())
        .chain(rates.convoys_per_hour.iter_mut())
    {
        *rate *= 8.0;
    }
    let mut scenario = ScenarioConfig::single_day(seed, Weather::Snowy).with_taxis(scaled(
        ARCHIVE_TAXIS,
        scale,
        20,
    ));
    scenario.area_size = 8_000.0;
    scenario.event_rates = rates;
    let config = GatheringConfig::builder()
        .clustering(ClusteringParams::paper_default())
        .crowd(CrowdParams::new(8, 10, 200.0))
        .gathering(GatheringParams::new(5, 6))
        .build()
        .expect("valid thresholds");
    (scenario, config)
}

/// Slices a cluster database into contiguous ingest batches (cluster sets
/// are reference-counted, so a batch is cheap to clone per pass).
pub fn slice_batches(clusters: &ClusterDatabase, ticks_per_batch: u32) -> Vec<ClusterDatabase> {
    let Some(domain) = clusters.time_domain() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut at = domain.start;
    while at <= domain.end {
        let end = (at + ticks_per_batch - 1).min(domain.end);
        let sets = TimeInterval::new(at, end)
            .iter()
            .map(|t| clusters.set_at(t).expect("contiguous domain").clone())
            .collect();
        out.push(ClusterDatabase::from_sets(sets));
        at = end + 1;
    }
    out
}

/// Synthetic pattern records with clustered geometry: gatherings pop up
/// around 256 venues over a long time axis, which gives the R-tree and the
/// interval index realistic selectivity.  (The shape of the repository's
/// `store` bench generator, kept here so that harness can change freely.)
pub fn synthetic_records(n: usize, seed: u64) -> Vec<PatternRecord> {
    let mut rng = Rng64::new(seed ^ 0xBE9C);
    let venues: Vec<(f64, f64)> = (0..256)
        .map(|_| {
            (
                rng.f64_in(-50_000.0, 50_000.0),
                rng.f64_in(-50_000.0, 50_000.0),
            )
        })
        .collect();
    (0..n)
        .map(|_| {
            let (vx, vy) = venues[rng.index(venues.len())];
            let x = vx + rng.f64_in(-400.0, 400.0);
            let y = vy + rng.f64_in(-400.0, 400.0);
            let w = rng.f64_in(50.0, 600.0);
            let h = rng.f64_in(50.0, 600.0);
            let start = rng.u32_in(0, 100_000);
            let len = rng.u32_in(15, 120);
            let crowd = Crowd::new(
                (start..start + len)
                    .map(|t| ClusterId::new(t, rng.index(4)))
                    .collect(),
            );
            let count = 10 + rng.index(30);
            let mut participators: Vec<ObjectId> = (0..count)
                .map(|_| ObjectId::new(rng.u32_in(0, 30_000)))
                .collect();
            participators.sort_unstable();
            participators.dedup();
            let interval = crowd.interval();
            PatternRecord {
                crowd,
                mbr: Mbr::new(x, y, x + w, y + h),
                gatherings: vec![StoredGathering {
                    interval,
                    mbr: Mbr::new(x, y, x + w * 0.8, y + h * 0.8),
                    participators,
                }],
            }
        })
        .collect()
}

/// One store query of the serving mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    RegionWindow(Mbr, TimeInterval),
    Window(TimeInterval),
    ObjectHistory(ObjectId),
    TopK(usize),
}

impl Query {
    /// Index into per-kind tables, in the order of the variants.
    pub fn kind(&self) -> usize {
        match self {
            Query::RegionWindow(..) => 0,
            Query::Window(_) => 1,
            Query::ObjectHistory(_) => 2,
            Query::TopK(_) => 3,
        }
    }
}

/// The serving mix: of every 20 queries, 9 region × window, 5 window-only,
/// 5 object histories and 1 top-10 (45 / 25 / 25 / 5 %), interleaved.
pub fn query_mix(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = Rng64::new(seed ^ 0x9E4C);
    (0..n)
        .map(|i| {
            let x = rng.f64_in(-50_000.0, 50_000.0);
            let y = rng.f64_in(-50_000.0, 50_000.0);
            let t = rng.u32_in(0, 100_000);
            let region = Mbr::new(
                x,
                y,
                x + rng.f64_in(200.0, 5_000.0),
                y + rng.f64_in(200.0, 5_000.0),
            );
            let window = TimeInterval::new(t, t + rng.u32_in(10, 2_000));
            let object = ObjectId::new(rng.u32_in(0, 30_000));
            // 7 is coprime to 20, so the kinds interleave instead of
            // arriving in runs.
            match (i * 7) % 20 {
                0..=8 => Query::RegionWindow(region, window),
                9..=13 => Query::Window(window),
                14..=18 => Query::ObjectHistory(object),
                _ => Query::TopK(10),
            }
        })
        .collect()
}

/// A jam-like synthetic crowd of `length` single-cluster ticks: 18 dedicated
/// objects present 90 % of the time, 8 one-off churn objects per cluster and
/// 8 % disrupted clusters that force Test-and-Divide to recurse.  (The
/// `jam_like` shape of the repository's `synth.rs`.)
pub fn synthetic_crowd(seed: u64, length: usize) -> (ClusterDatabase, Crowd) {
    let mut rng = Rng64::new(seed);
    let mut next_churn_id = 10_000u32;
    let mut sets = Vec::with_capacity(length);
    for t in 0..length as u32 {
        let disrupted = rng.unit() < 0.08;
        let mut members: Vec<ObjectId> = Vec::new();
        for d in 0..18u32 {
            let presence = if disrupted { 0.1 } else { 0.9 };
            if rng.unit() < presence {
                members.push(ObjectId::new(d));
            }
        }
        for _ in 0..8 {
            members.push(ObjectId::new(next_churn_id));
            next_churn_id += 1;
        }
        let points: Vec<Point> = (0..members.len())
            .map(|k| Point::new(k as f64 * 2.0, (k % 5) as f64 * 2.0))
            .collect();
        sets.push(SnapshotClusterSet {
            time: t,
            clusters: vec![SnapshotCluster::new(t, members, points)],
        });
    }
    let crowd = Crowd::new((0..length as u32).map(|t| ClusterId::new(t, 0)).collect());
    (ClusterDatabase::from_sets(sets), crowd)
}

/// A running FNV-1a digest over codec-encoded values: each part is hashed
/// with [`gpdt_store::codec::fnv1a`] and folded into the state, so large
/// inputs are digested piece by piece instead of through one huge buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(fnv1a(&[]))
    }
}

impl Digest {
    pub fn update<T: Encode + ?Sized>(&mut self, value: &T) {
        self.update_bytes(&encode_to_vec(value));
    }

    pub fn update_bytes(&mut self, bytes: &[u8]) {
        let mut fold = [0u8; 16];
        fold[..8].copy_from_slice(&self.0.to_le_bytes());
        fold[8..].copy_from_slice(&fnv1a(bytes).to_le_bytes());
        self.0 = fnv1a(&fold);
    }

    pub fn update_u64(&mut self, value: u64) {
        self.update_bytes(&value.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a cluster database, tick by tick.
pub fn digest_clusters(digest: &mut Digest, clusters: &ClusterDatabase) {
    for set in clusters.iter() {
        digest.update(set);
    }
}

/// Encoded records sorted bytewise: a canonical multiset form, so two record
/// sets compare equal whatever order they were finalized in.
pub fn canonical_records(records: impl IntoIterator<Item = PatternRecord>) -> Vec<Vec<u8>> {
    let mut encoded: Vec<Vec<u8>> = records.into_iter().map(|r| encode_to_vec(&r)).collect();
    encoded.sort_unstable();
    encoded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(synthetic_records(50, 3), synthetic_records(50, 3));
        assert_ne!(synthetic_records(50, 3), synthetic_records(50, 4));
        assert_eq!(query_mix(200, 3), query_mix(200, 3));
        let (a, _) = synthetic_crowd(5, 40);
        let (b, _) = synthetic_crowd(5, 40);
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
    }

    #[test]
    fn query_mix_has_the_stated_shares() {
        let mix = query_mix(4_000, 1);
        let mut counts = [0usize; 4];
        for q in &mix {
            counts[q.kind()] += 1;
        }
        assert_eq!(counts, [1_800, 1_000, 1_000, 200]);
    }

    #[test]
    fn records_satisfy_the_store_invariant() {
        for record in synthetic_records(200, 9) {
            record.validate().expect("valid record");
        }
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::default();
        a.update_u64(1);
        a.update_u64(2);
        let mut b = Digest::default();
        b.update_u64(2);
        b.update_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.update_u64(1);
        c.update_u64(2);
        assert_eq!(a.finish(), c.finish());
    }
}
