//! Gatherings, participators and the Test-and-Divide detection algorithms.
//!
//! A crowd is a **gathering** (Definition 4) when every one of its snapshot
//! clusters contains at least `mp` **participators** — objects that appear in
//! at least `kp` (possibly non-consecutive) clusters of the crowd
//! (Definition 3).  Gatherings do *not* have the downward-closure property,
//! so detection cannot grow them incrementally; instead the paper proposes
//! **Test-and-Divide (TAD)**:
//!
//! 1. test the whole crowd — if it is a gathering it is closed (Theorem 1)
//!    and is returned immediately;
//! 2. otherwise remove the *invalid clusters* (those with fewer than `mp`
//!    participators), which splits the crowd into contiguous pieces, and
//!    recurse into every piece that is still long enough to be a crowd.
//!
//! **TAD\*** performs the same recursion but represents each object's
//! occurrence as a bit-vector signature built once for the whole crowd;
//! counting occurrences in a sub-crowd is then a masked population count and
//! dividing is just a narrowing of the active range.
//!
//! A quadratic **brute-force** enumerator over all contiguous sub-crowds is
//! provided as the baseline of the paper's Figure 7.

use gpdt_clustering::ClusterDatabase;
use gpdt_trajectory::ObjectId;

use crate::bvs::popcount_tree;
use crate::crowd::Crowd;
use crate::params::GatheringParams;

/// The algorithm used to detect closed gatherings within a crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TadVariant {
    /// Enumerate all contiguous sub-crowds from longest to shortest.
    BruteForce,
    /// Test-and-Divide with straightforward per-object occurrence counting.
    Tad,
    /// Test-and-Divide with bit-vector signatures and word-parallel popcounts.
    #[default]
    TadStar,
}

impl TadVariant {
    /// All variants in the order of the paper's Figure 7 legend.
    pub const ALL: [TadVariant; 3] = [TadVariant::BruteForce, TadVariant::Tad, TadVariant::TadStar];

    /// Short label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            TadVariant::BruteForce => "brute-force",
            TadVariant::Tad => "TAD",
            TadVariant::TadStar => "TAD*",
        }
    }
}

impl std::fmt::Display for TadVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A closed gathering: the sub-crowd together with its participator set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gathering {
    crowd: Crowd,
    participators: Vec<ObjectId>,
}

impl Gathering {
    /// Reassembles a gathering from its parts (the deserialisation path of
    /// the `gpdt-store` codec); `participators` is sorted if it is not
    /// already.
    ///
    /// The caller is responsible for the parts actually describing a
    /// gathering of some cluster database — this constructor performs no
    /// semantic validation beyond the `Crowd` invariants.
    pub fn from_parts(crowd: Crowd, mut participators: Vec<ObjectId>) -> Self {
        participators.sort_unstable();
        Gathering {
            crowd,
            participators,
        }
    }

    /// The sub-crowd forming the gathering.
    pub fn crowd(&self) -> &Crowd {
        &self.crowd
    }

    /// The participators (objects appearing in at least `kp` clusters of the
    /// gathering), sorted by object id.
    pub fn participators(&self) -> &[ObjectId] {
        &self.participators
    }

    /// Lifetime of the gathering in ticks.
    pub fn lifetime(&self) -> u32 {
        self.crowd.lifetime()
    }
}

/// The per-object occurrence table of one crowd.
///
/// Row `i` is the bit-vector signature `B(o_i)` of the `i`-th distinct object
/// appearing anywhere in the crowd: bit `j` is set iff the object is a member
/// of the crowd's `j`-th snapshot cluster.  Shared by every recursion level
/// of TAD/TAD\* and by the incremental gathering update.
///
/// The table grows with its crowd: [`Self::extend`] appends the clusters a
/// longer crowd adds, at the cost of those clusters alone, and
/// [`Self::build`] is `extend` from the empty table.  The engine keeps one
/// table per open crowd and extends it every tick instead of rebuilding it
/// from the crowd's first cluster.  Everything is stored flat — signatures
/// as fixed-stride words, cluster memberships as one CSR — so cloning a table
/// where a crowd branches is a handful of `memcpy`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrowdOccurrence {
    /// The distinct objects, in first-appearance order.
    objects: Vec<ObjectId>,
    /// `(object, its index in objects)`, ascending by object: the lookup
    /// side of [`Self::extend`].  Object ids come from outside the program,
    /// so this is a sorted list rather than a map with a cheap hash.
    by_id: Vec<(ObjectId, u32)>,
    /// Signature words, object-major: object `i` owns
    /// `words[i * stride..(i + 1) * stride]`.
    words: Vec<u64>,
    /// Words per signature; `64 * stride` is at least the crowd length.
    stride: usize,
    /// CSR over the clusters: cluster `j`'s members, as indices into
    /// `objects`, are `members[member_starts[j]..member_starts[j + 1]]`.
    member_starts: Vec<u32>,
    members: Vec<u32>,
}

impl CrowdOccurrence {
    /// Builds the occurrence table of `crowd` from the cluster database.
    ///
    /// # Panics
    ///
    /// Panics if the crowd references clusters missing from the database.
    pub fn build(crowd: &Crowd, cdb: &ClusterDatabase) -> Self {
        let mut table = CrowdOccurrence {
            objects: Vec::new(),
            by_id: Vec::new(),
            words: Vec::new(),
            stride: 1,
            member_starts: vec![0],
            members: Vec::new(),
        };
        table.extend(crowd, cdb);
        table
    }

    /// Appends the clusters `crowd` has beyond this table's length.
    ///
    /// The table must have been built for a prefix of `crowd`: only the
    /// lengths are compared, the clusters already covered are not re-read.
    ///
    /// # Panics
    ///
    /// Panics if `crowd` is shorter than the table or references clusters
    /// missing from the database.
    pub fn extend(&mut self, crowd: &Crowd, cdb: &ClusterDatabase) {
        let covered = self.crowd_len();
        assert!(
            covered <= crowd.len(),
            "an occurrence table extends to a longer crowd, not a shorter one"
        );
        self.widen_signatures(crowd.len().div_ceil(64));
        for (pos, id) in crowd.cluster_ids().iter().enumerate().skip(covered) {
            let cluster = cdb
                .cluster(*id)
                .expect("crowd references a cluster missing from the database");
            // Members ascend by id, so each lookup searches only past the
            // previous one's place (at it, for a repeated id).
            let mut from = 0;
            for &obj in cluster.members() {
                let idx = match self.by_id[from..].binary_search_by_key(&obj, |&(o, _)| o) {
                    Ok(at) => {
                        from += at;
                        self.by_id[from].1
                    }
                    Err(at) => {
                        from += at;
                        let idx = self.objects.len() as u32;
                        self.objects.push(obj);
                        self.by_id.insert(from, (obj, idx));
                        self.words.resize(self.words.len() + self.stride, 0);
                        idx
                    }
                };
                self.words[idx as usize * self.stride + pos / 64] |= 1 << (pos % 64);
                self.members.push(idx);
            }
            self.member_starts.push(self.members.len() as u32);
        }
    }

    /// Re-lays the signatures out at `stride` words each, if that is wider
    /// than they are (once per 64 clusters of growth).
    fn widen_signatures(&mut self, stride: usize) {
        if stride <= self.stride {
            return;
        }
        let mut words = vec![0; self.objects.len() * stride];
        for (wide, narrow) in words
            .chunks_exact_mut(stride)
            .zip(self.words.chunks_exact(self.stride))
        {
            wide[..self.stride].copy_from_slice(narrow);
        }
        self.words = words;
        self.stride = stride;
    }

    /// Number of distinct objects appearing in the crowd.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of snapshot clusters in the crowd.
    pub fn crowd_len(&self) -> usize {
        self.member_starts.len() - 1
    }

    /// The distinct objects, in first-appearance order.
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// Bit `pos` of the signature of object `idx`: is the object a member of
    /// the crowd's `pos`-th cluster?
    ///
    /// # Panics
    ///
    /// Panics if `idx` or `pos` is out of range.
    fn occurs(&self, idx: usize, pos: usize) -> bool {
        assert!(pos < self.crowd_len(), "cluster position out of range");
        (self.signature(idx)[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// The signature words of object `idx`.
    fn signature(&self, idx: usize) -> &[u64] {
        &self.words[idx * self.stride..(idx + 1) * self.stride]
    }

    /// The members of cluster `pos`, as indices into [`Self::objects`].
    fn members_of(&self, pos: usize) -> &[u32] {
        &self.members[self.member_starts[pos] as usize..self.member_starts[pos + 1] as usize]
    }

    /// A signature-shaped mask with ones exactly in `[start, end)`.
    fn range_mask(&self, start: usize, end: usize) -> Vec<u64> {
        let mut mask = vec![0u64; self.stride];
        for pos in start..end {
            mask[pos / 64] |= 1 << (pos % 64);
        }
        mask
    }

    /// Occurrence count of object `idx` within positions `[start, end)`,
    /// counted naively (the TAD path).
    fn count_in_range_naive(&self, idx: usize, start: usize, end: usize) -> u32 {
        (start..end).filter(|&pos| self.occurs(idx, pos)).count() as u32
    }

    /// Occurrence count of object `idx` under `mask` using the word-parallel
    /// popcount (the TAD\* path).
    fn count_in_mask(&self, idx: usize, mask: &[u64]) -> u32 {
        self.signature(idx)
            .iter()
            .zip(mask)
            .map(|(&sig, &mask)| popcount_tree(sig & mask))
            .sum()
    }
}

/// Outcome of testing one contiguous range of a crowd.
enum TestOutcome {
    /// The range is a gathering; the payload is the participator list
    /// (indices into the occurrence table).
    Gathering(Vec<usize>),
    /// The range is not a gathering; the payload lists the invalid positions
    /// (absolute positions within the original crowd).
    Invalid(Vec<usize>),
}

/// Tests whether the contiguous range `[start, end)` of the crowd is a
/// gathering; `use_bvs` selects between naive counting (TAD) and masked
/// popcounts (TAD\*).
fn test_range(
    occ: &CrowdOccurrence,
    params: &GatheringParams,
    start: usize,
    end: usize,
    use_bvs: bool,
) -> TestOutcome {
    let mask = use_bvs.then(|| occ.range_mask(start, end));
    // Step 1: find the participators of the sub-crowd.
    let is_participator: Vec<bool> = (0..occ.object_count())
        .map(|idx| {
            let count = match &mask {
                Some(mask) => occ.count_in_mask(idx, mask),
                None => occ.count_in_range_naive(idx, start, end),
            };
            count >= params.kp
        })
        .collect();
    // Step 2: every cluster of the sub-crowd needs at least mp participators.
    let mut invalid = Vec::new();
    for pos in start..end {
        let participators_here = occ
            .members_of(pos)
            .iter()
            .filter(|&&obj| is_participator[obj as usize])
            .count();
        if participators_here < params.mp {
            invalid.push(pos);
        }
    }
    if invalid.is_empty() {
        let participators = (0..occ.object_count())
            .filter(|&i| is_participator[i])
            .collect();
        TestOutcome::Gathering(participators)
    } else {
        TestOutcome::Invalid(invalid)
    }
}

/// Positions within `[start, end)` whose cluster has fewer than `mp`
/// participators of that range — the *invalid clusters* the divide step
/// removes.  Exposed for the incremental gathering update, which needs the
/// invalid positions of the whole extended crowd to locate its pivot.
pub(crate) fn find_invalid_positions(
    occ: &CrowdOccurrence,
    params: &GatheringParams,
    start: usize,
    end: usize,
) -> Vec<usize> {
    match test_range(occ, params, start, end, true) {
        TestOutcome::Gathering(_) => Vec::new(),
        TestOutcome::Invalid(invalid) => invalid,
    }
}

fn make_gathering(
    crowd: &Crowd,
    occ: &CrowdOccurrence,
    start: usize,
    end: usize,
    participator_indices: &[usize],
) -> Gathering {
    let mut participators: Vec<ObjectId> = participator_indices
        .iter()
        .map(|&i| occ.objects[i])
        .collect();
    participators.sort();
    Gathering {
        crowd: crowd.sub_crowd(start, end),
        participators,
    }
}

/// Test-and-Divide (Algorithm 2), shared by TAD and TAD\*.
#[allow(clippy::too_many_arguments)]
fn tad_recursive(
    crowd: &Crowd,
    occ: &CrowdOccurrence,
    params: &GatheringParams,
    kc: u32,
    start: usize,
    end: usize,
    use_bvs: bool,
    out: &mut Vec<Gathering>,
) {
    if ((end - start) as u32) < kc {
        return;
    }
    match test_range(occ, params, start, end, use_bvs) {
        TestOutcome::Gathering(participators) => {
            out.push(make_gathering(crowd, occ, start, end, &participators));
        }
        TestOutcome::Invalid(invalid) => {
            // Divide: recurse into the maximal runs between invalid clusters.
            let mut run_start = start;
            for &bad in &invalid {
                if bad > run_start {
                    tad_recursive(crowd, occ, params, kc, run_start, bad, use_bvs, out);
                }
                run_start = bad + 1;
            }
            if end > run_start {
                tad_recursive(crowd, occ, params, kc, run_start, end, use_bvs, out);
            }
        }
    }
}

/// Brute-force baseline: enumerate contiguous sub-crowds from longest to
/// shortest and keep those that are gatherings and not contained in an
/// already-reported one.
fn brute_force(
    crowd: &Crowd,
    occ: &CrowdOccurrence,
    params: &GatheringParams,
    kc: u32,
) -> Vec<Gathering> {
    let n = crowd.len();
    let mut accepted: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    let mut len = n;
    while len as u32 >= kc {
        for start in 0..=(n - len) {
            let end = start + len;
            if accepted.iter().any(|&(s, e, _)| s <= start && end <= e) {
                continue;
            }
            if let TestOutcome::Gathering(participators) =
                test_range(occ, params, start, end, false)
            {
                accepted.push((start, end, participators));
            }
        }
        len -= 1;
    }
    accepted.sort_by_key(|&(s, e, _)| (s, e));
    accepted
        .into_iter()
        .map(|(s, e, p)| make_gathering(crowd, occ, s, e, &p))
        .collect()
}

/// Detects all closed gatherings within one closed crowd.
///
/// `kc` is the crowd lifetime threshold (a divided piece shorter than `kc` is
/// no longer a crowd and cannot host a gathering).  The returned gatherings
/// are sorted by their position within the crowd.
pub fn detect_closed_gatherings(
    crowd: &Crowd,
    cdb: &ClusterDatabase,
    params: &GatheringParams,
    kc: u32,
    variant: TadVariant,
) -> Vec<Gathering> {
    let occ = CrowdOccurrence::build(crowd, cdb);
    detect_with_occurrence(crowd, &occ, params, kc, variant)
}

/// Like [`detect_closed_gatherings`] but reuses a pre-built occurrence table
/// (the incremental gathering update builds the table once for the extended
/// crowd).
pub fn detect_with_occurrence(
    crowd: &Crowd,
    occ: &CrowdOccurrence,
    params: &GatheringParams,
    kc: u32,
    variant: TadVariant,
) -> Vec<Gathering> {
    detect_in_range(crowd, occ, params, kc, variant, 0, crowd.len())
}

/// Detects the closed gatherings of the contiguous sub-crowd covering
/// positions `[start, end)` of `crowd`, reusing the crowd's occurrence table.
///
/// This is the entry point of the Theorem 2 gathering update: the bit-vector
/// signatures of the extended crowd are built once and the recursion is
/// restricted to the region right of the pivot invalid cluster.
pub fn detect_in_range(
    crowd: &Crowd,
    occ: &CrowdOccurrence,
    params: &GatheringParams,
    kc: u32,
    variant: TadVariant,
    start: usize,
    end: usize,
) -> Vec<Gathering> {
    assert!(
        start <= end && end <= crowd.len(),
        "invalid detection range"
    );
    let mut out = Vec::new();
    if start == end {
        return out;
    }
    match variant {
        TadVariant::BruteForce => {
            // The brute-force baseline always enumerates the full crowd; it is
            // only meaningful on the whole range.
            assert!(
                start == 0 && end == crowd.len(),
                "the brute-force variant does not support range-restricted detection"
            );
            out = brute_force(crowd, occ, params, kc);
        }
        TadVariant::Tad => tad_recursive(crowd, occ, params, kc, start, end, false, &mut out),
        TadVariant::TadStar => tad_recursive(crowd, occ, params, kc, start, end, true, &mut out),
    }
    out.sort_by_key(|g| (g.crowd().start_time(), g.crowd().end_time()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpdt_clustering::{ClusterId, SnapshotCluster, SnapshotClusterSet};
    use gpdt_geo::Point;

    /// Builds a cluster database holding a single "crowd" whose membership at
    /// each position is given explicitly.  Geometry is irrelevant for
    /// gathering detection, so all points are placed at the origin area.
    fn membership_database(memberships: &[&[u32]]) -> (ClusterDatabase, Crowd) {
        let sets: Vec<SnapshotClusterSet> = memberships
            .iter()
            .enumerate()
            .map(|(t, ids)| {
                let t = t as u32;
                SnapshotClusterSet {
                    time: t,
                    clusters: vec![SnapshotCluster::new(
                        t,
                        ids.iter().map(|&i| ObjectId::new(i)).collect(),
                        ids.iter()
                            .enumerate()
                            .map(|(k, _)| Point::new(k as f64, 0.0))
                            .collect(),
                    )],
                }
            })
            .collect();
        let crowd = Crowd::new(
            (0..memberships.len())
                .map(|t| ClusterId::new(t as u32, 0))
                .collect(),
        );
        (ClusterDatabase::from_sets(sets), crowd)
    }

    /// The paper's Figure 3 example: eight clusters, six objects,
    /// kc = kp = 3, mc = mp = 3.  TAD must output exactly <c1..c4> as a
    /// gathering.
    fn figure3() -> (ClusterDatabase, Crowd) {
        membership_database(&[
            &[2, 3, 4],    // c1: o2 o3 o4
            &[1, 2, 3, 5], // c2: o1 o2 o3 o5
            &[1, 2, 4, 5], // c3: o1 o2 o4 o5
            &[2, 3, 4, 5], // c4: o2 o3 o4 o5
            &[1, 4, 6],    // c5: o1 o4 o6
            &[1, 3, 4, 6], // c6: o1 o3 o4 o6
            &[2, 3, 4],    // c7: o2 o3 o4
            &[2, 3, 4],    // c8: o2 o3 o4
        ])
    }

    #[test]
    fn occurrence_table_matches_figure3_signatures() {
        let (cdb, crowd) = figure3();
        let occ = CrowdOccurrence::build(&crowd, &cdb);
        assert_eq!(occ.crowd_len(), 8);
        assert_eq!(occ.object_count(), 6);
        // Expected signatures from the paper (left-to-right = positions 0..8):
        let expected: &[(u32, [u8; 8])] = &[
            (1, [0, 1, 1, 0, 1, 1, 0, 0]),
            (2, [1, 1, 1, 1, 0, 0, 1, 1]),
            (3, [1, 1, 0, 1, 0, 1, 1, 1]),
            (4, [1, 0, 1, 1, 1, 1, 1, 1]),
            (5, [0, 1, 1, 1, 0, 0, 0, 0]),
            (6, [0, 0, 0, 0, 1, 1, 0, 0]),
        ];
        for &(obj, bits) in expected {
            let idx = occ
                .objects()
                .iter()
                .position(|&o| o == ObjectId::new(obj))
                .unwrap();
            for (pos, &bit) in bits.iter().enumerate() {
                assert_eq!(
                    occ.occurs(idx, pos),
                    bit == 1,
                    "object o{obj} position {pos}"
                );
            }
        }
    }

    #[test]
    fn extending_a_table_equals_building_it_for_the_longer_crowd() {
        // Long enough to widen the signatures twice (past 64 and 128
        // clusters); objects come and go, some ids repeat inside a cluster.
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let memberships: Vec<Vec<u32>> = (0..150)
            .map(|pos| {
                let mut ids: Vec<u32> = (0..40u32)
                    .filter(|id| (id + pos / 30) % 4 != 0 && next() % 3 != 0)
                    .collect();
                ids.push(100 + pos);
                ids.push(7);
                ids.push(7);
                ids
            })
            .collect();
        let refs: Vec<&[u32]> = memberships.iter().map(|v| v.as_slice()).collect();
        let (cdb, crowd) = membership_database(&refs);
        let whole = CrowdOccurrence::build(&crowd, &cdb);
        assert_eq!(whole.crowd_len(), 150);
        for (pos, members) in memberships.iter().enumerate() {
            for (idx, object) in whole.objects().iter().enumerate() {
                assert_eq!(whole.occurs(idx, pos), members.contains(&object.raw()));
            }
        }
        // In one step, one cluster at a time, and in ragged steps.
        for first in [1, 2, 63, 64, 65, 127, 128, 149] {
            let mut table = CrowdOccurrence::build(&crowd.sub_crowd(0, first), &cdb);
            table.extend(&crowd, &cdb);
            assert_eq!(table, whole, "extended from {first} in one step");
        }
        let mut table = CrowdOccurrence::build(&crowd.sub_crowd(0, 1), &cdb);
        let mut ragged = table.clone();
        for len in 2..=150 {
            table.extend(&crowd.sub_crowd(0, len), &cdb);
            assert_eq!(
                table,
                CrowdOccurrence::build(&crowd.sub_crowd(0, len), &cdb)
            );
            if len % 7 == 0 || len == 150 {
                ragged.extend(&crowd.sub_crowd(0, len), &cdb);
                assert_eq!(ragged, table, "ragged steps up to {len}");
            }
        }
        // Extending to the same crowd is a no-op.
        table.extend(&crowd, &cdb);
        assert_eq!(table, whole);
    }

    #[test]
    fn figure3_example_all_variants_find_crowd_prefix_gathering() {
        let (cdb, crowd) = figure3();
        let params = GatheringParams::new(3, 3);
        for variant in TadVariant::ALL {
            let gatherings = detect_closed_gatherings(&crowd, &cdb, &params, 3, variant);
            assert_eq!(gatherings.len(), 1, "variant {variant}");
            let g = &gatherings[0];
            assert_eq!(g.crowd().start_time(), 0);
            assert_eq!(g.crowd().end_time(), 3);
            assert_eq!(g.lifetime(), 4);
            // Within <c1..c4>, o1 appears twice (< kp) so the participators
            // are o2, o3, o4, o5.
            assert_eq!(
                g.participators(),
                &[
                    ObjectId::new(2),
                    ObjectId::new(3),
                    ObjectId::new(4),
                    ObjectId::new(5)
                ]
            );
        }
    }

    #[test]
    fn whole_crowd_gathering_is_returned_immediately() {
        // Three dedicated objects present everywhere: the whole crowd is a
        // gathering and is closed.
        let (cdb, crowd) =
            membership_database(&[&[1, 2, 3, 9], &[1, 2, 3], &[1, 2, 3, 7], &[1, 2, 3]]);
        let params = GatheringParams::new(3, 4);
        for variant in TadVariant::ALL {
            let gatherings = detect_closed_gatherings(&crowd, &cdb, &params, 3, variant);
            assert_eq!(gatherings.len(), 1);
            assert_eq!(gatherings[0].crowd(), &crowd);
            assert_eq!(
                gatherings[0].participators(),
                &[ObjectId::new(1), ObjectId::new(2), ObjectId::new(3)]
            );
        }
    }

    #[test]
    fn no_gathering_when_membership_churns_completely() {
        // Every cluster has enough members but no object stays long enough to
        // be a participator.
        let (cdb, crowd) =
            membership_database(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9], &[10, 11, 12]]);
        let params = GatheringParams::new(2, 2);
        for variant in TadVariant::ALL {
            assert!(
                detect_closed_gatherings(&crowd, &cdb, &params, 2, variant).is_empty(),
                "variant {variant}"
            );
        }
    }

    #[test]
    fn gathering_absent_in_parts_but_present_in_whole() {
        // The paper's motivating example for the lack of downward closure:
        // c1..c4 over objects o1..o4 with kp = 3, mp = 2.  Neither <c1,c2,c3>
        // nor <c2,c3,c4> is a gathering, but the whole crowd is.
        let (cdb, crowd) = membership_database(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4], &[2, 3, 4]]);
        let params = GatheringParams::new(2, 3);
        // Sanity: the 3-length prefixes/suffixes are not gatherings.
        let prefix = crowd.sub_crowd(0, 3);
        let occ_prefix = CrowdOccurrence::build(&prefix, &cdb);
        assert!(matches!(
            test_range(&occ_prefix, &params, 0, 3, true),
            TestOutcome::Invalid(_)
        ));
        // The whole crowd is one closed gathering.
        for variant in TadVariant::ALL {
            let gatherings = detect_closed_gatherings(&crowd, &cdb, &params, 3, variant);
            assert_eq!(gatherings.len(), 1, "variant {variant}");
            assert_eq!(gatherings[0].crowd(), &crowd);
        }
    }

    #[test]
    fn divide_produces_two_disjoint_gatherings() {
        // Objects 1..3 stick around for the first four clusters, objects
        // 11..13 for the last four; the middle cluster has only transient
        // members, so TAD splits there and finds two gatherings.
        let (cdb, crowd) = membership_database(&[
            &[1, 2, 3],
            &[1, 2, 3, 50],
            &[1, 2, 3],
            &[1, 2, 3],
            &[60, 61, 62],
            &[11, 12, 13],
            &[11, 12, 13, 70],
            &[11, 12, 13],
            &[11, 12, 13],
        ]);
        let params = GatheringParams::new(3, 4);
        for variant in TadVariant::ALL {
            let gatherings = detect_closed_gatherings(&crowd, &cdb, &params, 4, variant);
            assert_eq!(gatherings.len(), 2, "variant {variant}");
            assert_eq!(gatherings[0].crowd().interval().start, 0);
            assert_eq!(gatherings[0].crowd().interval().end, 3);
            assert_eq!(gatherings[1].crowd().interval().start, 5);
            assert_eq!(gatherings[1].crowd().interval().end, 8);
        }
    }

    #[test]
    fn divided_piece_shorter_than_kc_is_discarded() {
        // The valid run after the invalid cluster is only 2 long; with kc = 3
        // it cannot host a gathering.
        let (cdb, crowd) = membership_database(&[
            &[1, 2, 3],
            &[1, 2, 3],
            &[1, 2, 3],
            &[9, 8, 7],
            &[1, 2, 3],
            &[1, 2, 3],
        ]);
        let params = GatheringParams::new(3, 3);
        for variant in TadVariant::ALL {
            let gatherings = detect_closed_gatherings(&crowd, &cdb, &params, 3, variant);
            assert_eq!(gatherings.len(), 1, "variant {variant}");
            assert_eq!(gatherings[0].crowd().interval().start, 0);
            assert_eq!(gatherings[0].crowd().interval().end, 2);
        }
    }

    #[test]
    fn tad_and_tadstar_and_bruteforce_agree_on_randomised_memberships() {
        // Deterministic pseudo-random memberships over 20 positions and 12
        // objects; all three variants must agree exactly.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let n = 8 + (next() % 16) as usize;
            let memberships: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mut ids: Vec<u32> = (1..=12u32).filter(|_| next() % 3 != 0).collect();
                    if ids.is_empty() {
                        ids.push(1);
                    }
                    ids
                })
                .collect();
            let refs: Vec<&[u32]> = memberships.iter().map(|v| v.as_slice()).collect();
            let (cdb, crowd) = membership_database(&refs);
            let params = GatheringParams::new(3, 4);
            let kc = 4;
            let brute = detect_closed_gatherings(&crowd, &cdb, &params, kc, TadVariant::BruteForce);
            let tad = detect_closed_gatherings(&crowd, &cdb, &params, kc, TadVariant::Tad);
            let tadstar = detect_closed_gatherings(&crowd, &cdb, &params, kc, TadVariant::TadStar);
            assert_eq!(tad, tadstar, "trial {trial}");
            assert_eq!(brute, tad, "trial {trial}");
        }
    }

    #[test]
    fn variant_labels() {
        assert_eq!(TadVariant::BruteForce.label(), "brute-force");
        assert_eq!(TadVariant::Tad.to_string(), "TAD");
        assert_eq!(TadVariant::TadStar.to_string(), "TAD*");
        assert_eq!(TadVariant::default(), TadVariant::TadStar);
    }
}
