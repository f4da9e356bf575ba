//! Seeded, structure-aware mutation fuzzing of the segment decoder.
//!
//! A small store of three segments is written once; every case then mutates
//! a copy of its bytes where the frame layout says it hurts — torn tails,
//! flipped bytes, forged length prefixes, resealed hostile payloads, swapped
//! frames, a version-2 header — and reopens it.  Every reopen must end in a
//! typed error or in records the writer wrote, with any dropped tail reported
//! as a [`TailRepair`](gpdt_store::TailRepair); none may panic, keep a record
//! whose checksum fails, or allocate beyond what the file's length explains.
//!
//! One `#[test]`: the allocation check reads the process's peak virtual
//! size, which a second test thread would disturb.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use gpdt_clustering::ClusterId;
use gpdt_core::Crowd;
use gpdt_geo::Mbr;
use gpdt_store::codec::xxh64;
use gpdt_store::{
    write_file_atomic, DecodeError, Encode, FaultVfs, PatternRecord, PatternStore, StoreError,
    StoreOptions, StoredGathering, Vfs, SEGMENT_VERSION,
};
use gpdt_trajectory::{ObjectId, TimeInterval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIR: &str = "/fuzz";
const HEADER: usize = 10;

fn options() -> StoreOptions {
    StoreOptions {
        max_segment_bytes: 1_024,
        ..StoreOptions::default()
    }
}

fn segment_path(index: usize) -> PathBuf {
    PathBuf::from(format!("{DIR}/seg-{index:08}.gpdt"))
}

fn random_record(rng: &mut StdRng) -> PatternRecord {
    let start = rng.gen_range(0u32..1_000);
    let ids = (start..start + rng.gen_range(1u32..6))
        .map(|t| ClusterId::new(t, rng.gen_range(0usize..4)))
        .collect();
    let crowd = Crowd::new(ids);
    let (x, y) = (rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4));
    let gatherings = (0..rng.gen_range(0usize..3))
        .map(|_| {
            let (gx, gy) = (x + rng.gen_range(0.0..250.0), y + rng.gen_range(0.0..250.0));
            let mut participators: Vec<ObjectId> = (0..rng.gen_range(1usize..8))
                .map(|_| ObjectId::new(rng.gen_range(0u32..64)))
                .collect();
            participators.sort_unstable();
            participators.dedup();
            StoredGathering {
                interval: crowd.interval(),
                mbr: Mbr::new(gx, gy, gx + 100.0, gy + 100.0),
                participators,
            }
        })
        .collect();
    PatternRecord {
        crowd,
        mbr: Mbr::new(x, y, x + 500.0, y + 500.0),
        gatherings,
    }
}

/// The store every case starts from.
struct Pristine {
    segments: Vec<Vec<u8>>,
    records: Vec<PatternRecord>,
}

impl Pristine {
    fn write() -> Self {
        let vfs = FaultVfs::new(1);
        let mut store = PatternStore::open_at(Arc::new(vfs.clone()), DIR, options()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xF022);
        let mut in_last = 0;
        while store.segment_count() < 3 || in_last < 4 {
            let before = store.segment_count();
            store.append(random_record(&mut rng)).unwrap();
            in_last = if store.segment_count() == before {
                in_last + 1
            } else {
                1
            };
        }
        store.sync().unwrap();
        assert_eq!(store.segment_count(), 3);
        let records = store.records().to_vec();
        drop(store);
        let segments = (1..=3)
            .map(|i| vfs.read_file(&segment_path(i)).unwrap())
            .collect();
        Pristine { segments, records }
    }

    /// Byte offsets of the frames of segment `s` (0-based), and its end.
    fn frames(&self, s: usize) -> Vec<usize> {
        let bytes = &self.segments[s];
        let mut offsets = vec![HEADER];
        while *offsets.last().unwrap() < bytes.len() {
            let at = *offsets.last().unwrap();
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            offsets.push(at + 4 + len + 8);
        }
        assert_eq!(offsets.last(), Some(&bytes.len()));
        offsets
    }

    /// Records stored before segment `s`.
    fn records_before(&self, s: usize) -> usize {
        (0..s).map(|i| self.frames(i).len() - 1).sum()
    }
}

/// Reopens a store made of `segments`; a panic is reported with the case.
fn reopen(label: &str, segments: &[Vec<u8>]) -> Result<PatternStore, StoreError> {
    let vfs = FaultVfs::new(7);
    for (i, bytes) in segments.iter().enumerate() {
        write_file_atomic(&vfs, &segment_path(i + 1), bytes).unwrap();
    }
    catch_unwind(AssertUnwindSafe(|| {
        PatternStore::open_at(Arc::new(vfs), DIR, options())
    }))
    .unwrap_or_else(|_| panic!("{label}: open panicked"))
}

/// What a damaged segment must come to: an error naming segment `s` (a
/// sealed one), or the records before the damaged frame with the rest of
/// the last segment dropped and reported.
fn expect_damage(
    p: &Pristine,
    label: &str,
    s: usize,
    frame: usize,
    got: Result<PatternStore, StoreError>,
) {
    let last = s == p.segments.len() - 1;
    match got {
        Err(StoreError::Segment { path, source }) if !last => {
            assert_eq!(path, segment_path(s + 1), "{label}");
            assert!(
                matches!(
                    source,
                    DecodeError::UnexpectedEof | DecodeError::ChecksumMismatch
                ),
                "{label}: {source:?}"
            );
        }
        Ok(store) if last => {
            let kept = p.records_before(s) + frame;
            assert_eq!(store.records(), &p.records[..kept], "{label}");
            let repair = store
                .tail_repair()
                .unwrap_or_else(|| panic!("{label}: unreported"));
            assert_eq!(repair.segment, segment_path(s + 1), "{label}");
        }
        other => panic!("{label}: {:?}", other.map(|s| s.len())),
    }
}

/// Peak virtual size of this process in KiB, where the platform says.
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn mutated_segments_reopen_typed_or_repaired() {
    let p = Pristine::write();
    let last = p.segments.len() - 1;
    let baseline = vm_peak_kib();
    let mut rng = StdRng::seed_from_u64(0x5E6);
    let with = |s: usize, bytes: Vec<u8>| {
        let mut segments = p.segments.clone();
        segments[s] = bytes;
        segments
    };

    // The pristine store reopens whole.
    let store = reopen("pristine", &p.segments).unwrap();
    assert_eq!(store.records(), p.records.as_slice());
    assert!(store.tail_repair().is_none());
    drop(store);

    // A torn last segment at every byte: the whole frames before the cut
    // survive; a cut inside the header or a frame is repaired and reported.
    let frames = p.frames(last);
    for cut in 0..p.segments[last].len() {
        let label = format!("truncate last at {cut}");
        let store = reopen(&label, &with(last, p.segments[last][..cut].to_vec()))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let whole = frames.iter().skip(1).filter(|&&end| end <= cut).count();
        assert_eq!(
            store.records(),
            &p.records[..p.records_before(last) + whole],
            "{label}"
        );
        let clean = cut == 0 || frames.contains(&cut);
        assert_eq!(store.tail_repair().is_none(), clean, "{label}");
    }

    // Every byte of the first three frames of a sealed segment and of the
    // last one, flipped: no single-byte change gets past the checksum.
    for s in [1, last] {
        let frames = p.frames(s);
        for frame in 0..3 {
            for at in frames[frame]..frames[frame + 1] {
                let mut bytes = p.segments[s].clone();
                bytes[at] ^= rng.gen_range(1u8..=255);
                let label = format!("segment {s} frame {frame}: flip byte {at}");
                expect_damage(&p, &label, s, frame, reopen(&label, &with(s, bytes)));
            }
        }
    }

    // Forged length prefixes on those frames.
    for s in [1, last] {
        let frames = p.frames(s);
        for frame in 0..3 {
            let at = frames[frame];
            let len = (frames[frame + 1] - at - 12) as u32;
            for forged in [0, len - 1, len + 1, 1 << 30, (1 << 30) + 1, u32::MAX] {
                let mut bytes = p.segments[s].clone();
                bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                let label = format!("segment {s} frame {frame}: length {forged}");
                expect_damage(&p, &label, s, frame, reopen(&label, &with(s, bytes)));
            }
        }
    }

    // Hostile payloads under a valid checksum: a byte of the last segment's
    // first frames flipped and the frame resealed under its record id, so
    // the codec and the record checks see it.  Whatever comes back was
    // validated.
    let frames = p.frames(last);
    for frame in 0..3 {
        let (start, end) = (frames[frame] + 4, frames[frame + 1] - 8);
        let id = (p.records_before(last) + frame) as u64;
        for at in start..end {
            let mut bytes = p.segments[last].clone();
            bytes[at] ^= rng.gen_range(1u8..=255);
            let sum = xxh64(&bytes[start..end], id);
            bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
            let label = format!("last segment frame {frame}: resealed flip at {at}");
            match reopen(&label, &with(last, bytes)) {
                Err(StoreError::Segment { .. }) => {}
                Ok(store) => {
                    let mutated = p.records_before(last) + frame;
                    for (i, record) in store.records().iter().enumerate() {
                        assert_eq!(record.validate(), Ok(()), "{label}");
                        if i != mutated {
                            assert_eq!(record, &p.records[i], "{label}");
                        }
                    }
                }
                Err(other) => panic!("{label}: {other}"),
            }
        }
    }

    // Two whole frames swapped: each checksum is seeded with its record id,
    // so the first frame out of place fails — damage in a sealed segment, a
    // reported repair in the last — and the swapped ids never reopen.
    for s in [1, last] {
        let f = p.frames(s);
        let bytes = &p.segments[s];
        let mut swapped = bytes[..f[0]].to_vec();
        swapped.extend_from_slice(&bytes[f[1]..f[2]]);
        swapped.extend_from_slice(&bytes[f[0]..f[1]]);
        swapped.extend_from_slice(&bytes[f[2]..]);
        let label = format!("segment {s}: frames 0 and 1 swapped");
        expect_damage(&p, &label, s, 0, reopen(&label, &with(s, swapped)));
    }

    // A version-2 header, sealed or last: the one version is 3.
    for s in [0, last] {
        let mut bytes = p.segments[s].clone();
        bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
        let label = format!("segment {s}: version 2");
        match reopen(&label, &with(s, bytes)) {
            Err(StoreError::Segment {
                path,
                source:
                    DecodeError::UnsupportedVersion {
                        found: 2,
                        supported,
                    },
            }) => {
                assert_eq!(path, segment_path(s + 1));
                assert_eq!(supported, SEGMENT_VERSION);
            }
            other => panic!("{label}: {:?}", other.map(|s| s.len())),
        }
    }

    forged_records_are_refused(&p);

    // No case allocated what the bytes do not explain: a forged 1 GiB
    // prefix reads nothing it was not handed.
    if let (Some(before), Some(after)) = (baseline, vm_peak_kib()) {
        let store_kib = p.segments.iter().map(Vec::len).sum::<usize>() as u64 / 1024;
        assert!(
            after - before <= 64 * 1024 + 16 * store_kib,
            "peak virtual size grew by {} KiB over a {store_kib} KiB store",
            after - before
        );
    }
}

/// A record's payload from its parts, as `PatternRecord::encode` lays it
/// out — with no check on any of them.
fn payload(ticks: &[ClusterId], mbr: Mbr, gatherings: &[StoredGathering]) -> Vec<u8> {
    let mut out = Vec::new();
    ticks.encode(&mut out);
    mbr.encode(&mut out);
    gatherings.encode(&mut out);
    out
}

/// Segment `s` with frame `frame` replaced by `payload`, sealed under the
/// frame's record id so that only the record checks can refuse it.
fn reseal(p: &Pristine, s: usize, frame: usize, payload: &[u8]) -> Vec<Vec<u8>> {
    let f = p.frames(s);
    let id = (p.records_before(s) + frame) as u64;
    let bytes = &p.segments[s];
    let mut forged = bytes[..f[frame]].to_vec();
    forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    forged.extend_from_slice(payload);
    forged.extend_from_slice(&xxh64(payload, id).to_le_bytes());
    forged.extend_from_slice(&bytes[f[frame + 1]..]);
    let mut segments = p.segments.clone();
    segments[s] = forged;
    segments
}

/// Each rule a stored record keeps, broken by one resealed frame in a
/// sealed segment and in the last: the field rules decoding enforces and
/// the containment rules replay checks after it.  A frame whose checksum
/// holds was written whole, so it is damage in either place — a typed
/// error naming the segment — never a torn tail to cut away.
fn forged_records_are_refused(p: &Pristine) {
    let ticks: Vec<ClusterId> = (10..14).map(|t| ClusterId::new(t, 0)).collect();
    let mbr = Mbr::new(0.0, 0.0, 100.0, 100.0);
    let gathering = StoredGathering {
        interval: TimeInterval::new(11, 12),
        mbr: Mbr::new(10.0, 10.0, 20.0, 20.0),
        participators: vec![ObjectId::new(1), ObjectId::new(2), ObjectId::new(2)],
    };
    let with = |change: fn(&mut StoredGathering)| {
        let mut g = gathering.clone();
        change(&mut g);
        vec![g]
    };
    let nan = Mbr {
        max_x: f64::NAN,
        ..mbr
    };
    let inverted = Mbr {
        min_x: 150.0,
        ..mbr
    };
    let gapped: Vec<ClusterId> = [10, 11, 13].map(|t| ClusterId::new(t, 0)).to_vec();
    let cases = [
        ("non-consecutive ticks", payload(&gapped, mbr, &[])),
        ("no ticks", payload(&[], mbr, &[])),
        ("non-finite record MBR", payload(&ticks, nan, &[])),
        ("inverted record MBR", payload(&ticks, inverted, &[])),
        (
            "reversed gathering lifespan",
            payload(
                &ticks,
                mbr,
                &with(|g| g.interval = TimeInterval { start: 12, end: 11 }),
            ),
        ),
        (
            "non-finite gathering MBR",
            payload(&ticks, mbr, &with(|g| g.mbr.min_y = f64::INFINITY)),
        ),
        (
            "inverted gathering MBR",
            payload(&ticks, mbr, &with(|g| g.mbr.max_y = 5.0)),
        ),
        (
            "gathering MBR outside the record's",
            payload(&ticks, mbr, &with(|g| g.mbr.max_x = 120.0)),
        ),
        (
            "gathering lifespan outside the record's",
            payload(&ticks, mbr, &with(|g| g.interval.end = 14)),
        ),
        (
            "unsorted participators",
            payload(&ticks, mbr, &with(|g| g.participators.reverse())),
        ),
    ];
    let last = p.segments.len() - 1;
    for s in [1, last] {
        // The forge itself is sound: a rule-abiding record in the same
        // place reopens, and is the record read back.
        let sound = std::slice::from_ref(&gathering);
        let store = reopen(
            "sound forge",
            &reseal(p, s, 1, &payload(&ticks, mbr, sound)),
        )
        .unwrap();
        let at = p.records_before(s) + 1;
        assert_eq!(store.records()[at].gatherings, sound);
        assert_eq!(store.len(), p.records.len());
        assert!(store.tail_repair().is_none());
        drop(store);

        for (rule, forged) in &cases {
            let label = format!("segment {s}: {rule}");
            match reopen(&label, &reseal(p, s, 1, forged)) {
                Err(StoreError::Segment {
                    path,
                    source: DecodeError::Corrupt(_),
                }) => assert_eq!(path, segment_path(s + 1), "{label}"),
                other => panic!("{label}: {:?}", other.map(|s| s.len())),
            }
        }
    }
}
