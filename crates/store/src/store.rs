//! The durable pattern store: an append-only segment log of finalized crowd
//! records with in-memory query indexes.
//!
//! # On-disk format
//!
//! A store is a directory of numbered segment files (`seg-00000001.gpdt`,
//! `seg-00000002.gpdt`, ...).  Each segment starts with an 8-byte magic
//! string and a `u16` format version, followed by a sequence of framed
//! records:
//!
//! ```text
//! ┌─────────────┬───────────────────┬──────────────────┐
//! │ u32 length  │ payload (length)  │ u64 XXH64 sum    │
//! └─────────────┴───────────────────┴──────────────────┘
//! ```
//!
//! The payload is one [`PatternRecord`] in the [`crate::codec`] format, sealed
//! with [`xxh64`] seeded with the record's id, so the checksum seals where a
//! frame sits in the log as well as what it holds: a frame moved to another
//! position fails it.  The log is append-only: records are never rewritten,
//! and a new segment is started once the active one exceeds
//! [`StoreOptions::max_segment_bytes`].
//!
//! # Group commit
//!
//! [`PatternStore::append`] encodes each frame in place at the end of one
//! group buffer; the buffer reaches the segment file with a single `write`
//! once it holds 256 KiB, or at a barrier — the end of a
//! [`PatternStore::spill`], [`PatternStore::sync`], a segment rotation or
//! drop.  A failed group write
//! truncates the file back to its last whole frame and keeps the group
//! queued for the next barrier, so the log never holds a torn frame.
//!
//! # Replay
//!
//! On [`PatternStore::open`] every segment is replayed in one pass — frames
//! parsed in place, each record held to what [`PatternRecord::validate`]
//! asks of an appended one: decoding enforces its field rules, and replay
//! checks the containment rules decoding cannot see — then the indexes are
//! built in bulk.  A torn tail in the *last* segment (the crash-during-write
//! case) is truncated away, while damage anywhere else is reported as an
//! error.
//!
//! # Query indexes
//!
//! Replay builds, and every append maintains, three in-memory indexes:
//!
//! * an **interval index** over crowd lifespans, answering "which records
//!   were active during `[t1, t2]`";
//! * an **R-tree** (reusing [`gpdt_index::RTree`]) over crowd MBRs, answering
//!   "which records touched region `R`";
//! * a **participation index** mapping each object to the gatherings it
//!   participated in, as 8-byte `(record, gathering)` postings in two
//!   tiers: a shared column holding each object's postings as one run, and
//!   a flat log of the postings appended since, chained per object newest
//!   first.  An append pushes its postings onto the log; a segment
//!   rotation folds the log into the column in one counted pass (each
//!   object's new postings counted, the runs moved up to make room, the log
//!   scattered in append order) once the log holds at least a quarter as
//!   many postings as the column, so the moves stay amortised O(1) a
//!   posting; replay builds the column with the same count, placement and
//!   scatter.  A history reads the object's run, then its chain reversed.
//!
//! [`PatternStore::query_gatherings`] combines the first two for the
//! region × time-window query of the ROADMAP's monitoring story;
//! [`PatternStore::object_history`] and [`PatternStore::top_k_gatherings`]
//! serve the per-object and ranking paths.

use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpdt_clustering::ClusterDatabase;
use gpdt_core::{Crowd, CrowdRecord, GatheringEngine};
use gpdt_geo::Mbr;
use gpdt_index::rtree::Entry;
use gpdt_index::RTree;
use gpdt_trajectory::{ObjectId, TimeInterval, Timestamp};

use crate::codec::{
    decode_column, decode_from_slice, read_header, write_header, xxh64, Decode, DecodeError, Encode,
};
use crate::model::{mbr_is_valid, object_id};
use crate::vfs::{RealVfs, Vfs, VfsFile};

/// Magic string at the start of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"GPDTSEG\0";

/// Current segment format version (3: frames sealed with XXH64 seeded with
/// the record id).
pub const SEGMENT_VERSION: u16 = 3;

/// Number of bytes of a segment header.
const SEGMENT_HEADER_BYTES: u64 = 10;

/// Largest frame payload either side accepts: no writer comes near it, so a
/// longer length prefix means the bytes at the cursor are not a frame.
const FRAME_CAP: usize = 1 << 30;

/// Bytes of queued frames that make the active group full: the append that
/// reaches it writes the group out.
const GROUP_BYTES: usize = 256 * 1024;

/// Identifier of a record within a store: its zero-based append position.
pub type RecordId = usize;

/// One gathering as stored: its lifespan, bounding rectangle and
/// participator set.
///
/// Unlike the in-engine [`gpdt_core::Gathering`], the stored form carries its
/// own geometry — the store outlives the engine's cluster database, so
/// region queries cannot chase [`gpdt_clustering::ClusterId`] references.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredGathering {
    /// The gathering's lifespan.
    pub interval: TimeInterval,
    /// Union of the MBRs of the gathering's snapshot clusters.
    pub mbr: Mbr,
    /// The participators, sorted by object id.
    pub participators: Vec<ObjectId>,
}

/// One finalized crowd with its gatherings, in storable form: the crowd's
/// cluster references plus the denormalised geometry needed for queries.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternRecord {
    /// The closed crowd (cluster references, for traceability back into a
    /// cluster database).
    pub crowd: Crowd,
    /// Union of the MBRs of the crowd's snapshot clusters.
    pub mbr: Mbr,
    /// The closed gatherings detected within the crowd.
    pub gatherings: Vec<StoredGathering>,
}

impl PatternRecord {
    /// Converts an engine [`CrowdRecord`] into storable form, resolving the
    /// cluster references against `cdb` to compute the crowd and gathering
    /// MBRs.
    ///
    /// # Panics
    ///
    /// Panics if the record references clusters missing from `cdb` (engine
    /// records always resolve against the engine's own database).
    pub fn from_crowd_record(record: &CrowdRecord, cdb: &ClusterDatabase) -> Self {
        let mbr = crowd_mbr(&record.crowd, cdb);
        let gatherings = record
            .gatherings
            .iter()
            .map(|g| StoredGathering {
                interval: g.crowd().interval(),
                mbr: crowd_mbr(g.crowd(), cdb),
                participators: g.participators().to_vec(),
            })
            .collect();
        PatternRecord {
            crowd: record.crowd.clone(),
            mbr,
            gatherings,
        }
    }

    /// The crowd's lifespan.
    pub fn interval(&self) -> TimeInterval {
        self.crowd.interval()
    }

    /// Checks every invariant a stored record holds: the field rules the
    /// codec enforces on decode (finite and ordered MBRs, forward gathering
    /// lifespans; a [`Crowd`]'s consecutive ticks hold by construction) and
    /// the containment rules it does not — every gathering's MBR and
    /// lifespan lie within the record's, and participator lists are sorted.
    ///
    /// Records produced by [`PatternRecord::from_crowd_record`] satisfy this
    /// by construction (a gathering is a sub-crowd); hand-built records are
    /// checked by [`PatternStore::append`], because a gathering sticking out
    /// of its record's MBR would be invisible to the R-tree pruning of
    /// [`PatternStore::query_gatherings`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !mbr_is_valid(&self.mbr) {
            return Err("record MBR corners are not finite and ordered");
        }
        for gathering in &self.gatherings {
            if gathering.interval.start > gathering.interval.end {
                return Err("gathering lifespan is reversed");
            }
            if !mbr_is_valid(&gathering.mbr) {
                return Err("gathering MBR corners are not finite and ordered");
            }
        }
        self.check_containment()
    }

    /// The half of [`PatternRecord::validate`] that decoding does not
    /// enforce, and all that replay checks on a decoded record.
    fn check_containment(&self) -> Result<(), &'static str> {
        let interval = self.crowd.interval();
        for gathering in &self.gatherings {
            if !self.mbr.contains_mbr(&gathering.mbr) {
                return Err("gathering MBR extends outside the record MBR");
            }
            if gathering.interval.start < interval.start || gathering.interval.end > interval.end {
                return Err("gathering lifespan extends outside the crowd lifespan");
            }
            if gathering.participators.windows(2).any(|w| w[0] > w[1]) {
                return Err("gathering participators are not sorted");
            }
        }
        Ok(())
    }
}

/// Union of the MBRs of a crowd's snapshot clusters.
fn crowd_mbr(crowd: &Crowd, cdb: &ClusterDatabase) -> Mbr {
    let mut ids = crowd.cluster_ids().iter();
    let first = ids.next().expect("crowds are non-empty");
    let mut mbr = *cdb
        .cluster(*first)
        .expect("crowd references a cluster missing from the database")
        .mbr();
    for id in ids {
        mbr.expand_to_mbr(
            cdb.cluster(*id)
                .expect("crowd references a cluster missing from the database")
                .mbr(),
        );
    }
    mbr
}

impl Encode for StoredGathering {
    fn encode(&self, out: &mut Vec<u8>) {
        self.interval.encode(out);
        self.mbr.encode(out);
        self.participators.encode(out);
    }
}

impl Decode for StoredGathering {
    const MIN_BYTES: usize = 48;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let interval = TimeInterval::decode(r)?;
        let mbr = Mbr::decode(r)?;
        let participators = decode_column(r, object_id)?;
        Ok(StoredGathering {
            interval,
            mbr,
            participators,
        })
    }
}

impl Encode for PatternRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.crowd.encode(out);
        self.mbr.encode(out);
        self.gatherings.encode(out);
    }
}

impl Decode for PatternRecord {
    const MIN_BYTES: usize = 48;
    fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
        let crowd = Crowd::decode(r)?;
        let mbr = Mbr::decode(r)?;
        let gatherings: Vec<StoredGathering> = Vec::decode(r)?;
        Ok(PatternRecord {
            crowd,
            mbr,
            gatherings,
        })
    }
}

/// A query hit: one stored gathering together with the record it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct GatheringHit {
    /// The record the gathering was stored under.
    pub record: RecordId,
    /// Position of the gathering within that record.
    pub index: usize,
    /// The gathering itself.
    pub gathering: StoredGathering,
}

/// Tuning knobs of a [`PatternStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Segment rotation threshold: once the active segment reaches this many
    /// bytes, the next append starts a new segment.
    pub max_segment_bytes: u64,
    /// Accept an open that salvaged *zero* records from a non-empty torn
    /// segment (normally reported as [`StoreError::EmptySalvage`], because
    /// "the whole log decoded to nothing" usually means the wrong directory
    /// or wholesale corruption, not a routine crash).  Crash-recovery paths
    /// that *know* the store was empty at the crash — a restored checkpoint
    /// with zero finalized records — set this to proceed.
    pub allow_empty_salvage: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            // Small enough that a long-running monitor produces several
            // segments (the compaction unit), large enough that a segment
            // amortises its header and file-system metadata.
            max_segment_bytes: 8 * 1024 * 1024,
            allow_empty_salvage: false,
        }
    }
}

/// Error opening, replaying or appending to a store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error while listing, opening, writing or truncating segments.
    Io(io::Error),
    /// A segment other than the last one is damaged (a torn tail in the last
    /// segment is repaired silently instead).
    Segment {
        /// The damaged segment file.
        path: PathBuf,
        /// What was wrong with it.
        source: DecodeError,
    },
    /// An appended record fails [`PatternRecord::validate`], exceeds the
    /// frame-size cap, or would get a record id past `u32::MAX` (the
    /// participation index's posting width).  Always fatal for *this record*
    /// — retrying cannot help — but the store itself stays healthy.
    InvalidRecord(&'static str),
    /// Segment files exist but replay salvaged zero records while dropping a
    /// torn tail: indistinguishable from opening the wrong directory or from
    /// wholesale corruption, so it is reported instead of silently yielding
    /// an "empty" store.  Set [`StoreOptions::allow_empty_salvage`] when the
    /// empty result is known to be correct (e.g. restoring from a checkpoint
    /// taken before the first append was acknowledged).
    EmptySalvage {
        /// The torn segment the records would have lived in.
        segment: PathBuf,
        /// How many bytes of undecodable tail it carried.
        dropped_bytes: u64,
    },
}

impl StoreError {
    /// Whether retrying the failed operation can plausibly succeed.
    ///
    /// This is the single classification point the
    /// [`MonitorService`](crate::service::MonitorService) retry policy keys
    /// off: transient errors get bounded backoff-and-retry, fatal ones halt
    /// durable storage immediately.  Damage, invalid records and empty
    /// salvages are always fatal; I/O errors are fatal when the kind is
    /// structural (`NotFound`, `PermissionDenied`, `AlreadyExists`,
    /// `InvalidInput`, `InvalidData`, `Unsupported`, `UnexpectedEof`) or the
    /// OS reports `ENOSPC`, and transient otherwise (`Interrupted`,
    /// `TimedOut`, `WouldBlock`, unclassified OS errors).
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(err) => {
                // A full disk reports a generic kind on some platforms; the
                // raw errno is the reliable signal.
                if err.raw_os_error() == Some(28) {
                    return false;
                }
                !matches!(
                    err.kind(),
                    io::ErrorKind::NotFound
                        | io::ErrorKind::PermissionDenied
                        | io::ErrorKind::AlreadyExists
                        | io::ErrorKind::InvalidInput
                        | io::ErrorKind::InvalidData
                        | io::ErrorKind::Unsupported
                        | io::ErrorKind::UnexpectedEof
                )
            }
            StoreError::Segment { .. }
            | StoreError::InvalidRecord(_)
            | StoreError::EmptySalvage { .. } => false,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::Segment { path, source } => {
                write!(f, "damaged segment {}: {source}", path.display())
            }
            StoreError::InvalidRecord(why) => write!(f, "invalid record: {why}"),
            StoreError::EmptySalvage {
                segment,
                dropped_bytes,
            } => write!(
                f,
                "segment {} salvaged zero records while dropping {dropped_bytes} torn bytes; \
                 refusing to treat the store as empty",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::Segment { source, .. } => Some(source),
            StoreError::InvalidRecord(_) | StoreError::EmptySalvage { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// Interval index over record lifespans: an ordered map from
/// `(start, record)` to the lifespan's end, beside the longest lifespan seen.
/// An insert costs `O(log n)` wherever its start falls; a window query walks
/// only the records that start within `longest` ticks before the window or
/// inside it, since none that starts earlier can reach it.
#[derive(Debug, Default)]
struct IntervalIndex {
    ends: BTreeMap<(Timestamp, RecordId), Timestamp>,
    /// `end - start` of the longest lifespan inserted.
    longest: Timestamp,
}

impl IntervalIndex {
    /// Adds record `id`'s lifespan.
    fn insert(&mut self, interval: TimeInterval, id: RecordId) {
        let span = interval.end.saturating_sub(interval.start);
        self.longest = self.longest.max(span);
        self.ends.insert((interval.start, id), interval.end);
    }

    /// Record ids whose interval intersects `window`, ascending.
    fn stab(&self, window: TimeInterval) -> Vec<RecordId> {
        let earliest = window.start.saturating_sub(self.longest);
        let starts = (earliest, RecordId::MIN)..=(window.end, RecordId::MAX);
        let mut out: Vec<RecordId> = self
            .ends
            .range(starts)
            .filter(|&(_, &end)| end >= window.start)
            .map(|(&(_, id), _)| id)
            .collect();
        out.sort_unstable();
        out
    }
}

/// One pass over lifespans in any order (replay hands them over in record
/// order): the map is built in bulk from the sorted run.
impl FromIterator<(TimeInterval, RecordId)> for IntervalIndex {
    fn from_iter<I: IntoIterator<Item = (TimeInterval, RecordId)>>(lifespans: I) -> Self {
        let mut longest = 0;
        let ends = lifespans.into_iter().map(|(interval, id)| {
            longest = longest.max(interval.end.saturating_sub(interval.start));
            ((interval.start, id), interval.end)
        });
        let ends = ends.collect();
        IntervalIndex { ends, longest }
    }
}

/// The participation index's hasher, the folded multiply of hashbrown's
/// default `foldhash`: state ^ word times an odd key, the 128-bit product's
/// halves folded.  Both keys come from std's `RandomState` once per map, so
/// crafted object ids cannot choose buckets.
#[derive(Debug, Clone, Copy)]
struct FoldHasher {
    seed: u64,
    multiplier: u64,
    state: u64,
}

impl Default for FoldHasher {
    fn default() -> Self {
        let keys = RandomState::new();
        FoldHasher {
            seed: keys.hash_one(0u64),
            multiplier: keys.hash_one(1u64) | 1,
            state: 0,
        }
    }
}

impl BuildHasher for FoldHasher {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            state: self.seed,
            ..*self
        }
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.state ^ n) * u128::from(self.multiplier);
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The participation index: each object's `(record, gathering index)`
/// postings, in `(record, index)` order, in two tiers.
///
/// Every object gets a dense slot the first time it is posted.  The first
/// tier is a shared column of 8-byte postings: slot `s`'s folded postings
/// are one run, `column[offsets[s]..offsets[s + 1]]`, and a slot first seen
/// after the last fold has no run.  The second is a flat log of the postings
/// posted since: an append pushes one 16-byte [`Delta`] per posting, links
/// it from slot `s`'s [`Head`], which chains `s`'s delta postings newest
/// first, and counts it there.  A fold merges the log into the column in
/// one counted pass — the runs moved up to their new starts from the top
/// down, the log scattered in append order — and replay builds the column
/// with the same count, placement and scatter, straight from the records.
/// A fold moves the whole column, so a store folds at a segment rotation
/// only once the log holds at least a [`FOLD_SHARE`]th as many postings as
/// the column (see [`Participation::due`]); one that never rotates is the
/// log alone.
///
/// Neither tier unmaps a large buffer while appends run: both grow by
/// reallocation (a mapped buffer is remapped, not freed), and a fold
/// empties the log but keeps its capacity.  Freeing a mapped multi-MiB
/// buffer raises glibc's dynamic mmap threshold, which moved a later
/// reopen's allocations onto the heap and slowed it.
#[derive(Debug, Default)]
struct Participation {
    slots: HashMap<ObjectId, u32, FoldHasher>,
    offsets: Vec<usize>,
    column: Vec<(u32, u32)>,
    log: Vec<Delta>,
    heads: Vec<Head>,
}

/// Slot `s`'s postings not yet in the column.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// Log position of the newest ([`NONE`] if none).
    newest: u32,
    /// How many there are.
    count: u32,
}

impl Head {
    const EMPTY: Head = Head {
        newest: NONE,
        count: 0,
    };
}

/// A delta posting: `(record, index)` of slot `slot`'s object, and the log
/// position of the same object's previous delta posting ([`NONE`] if none).
#[derive(Debug, Clone, Copy)]
struct Delta {
    slot: u32,
    record: u32,
    index: u32,
    prev: u32,
}

/// No log position: the end of a slot's chain of delta postings.
const NONE: u32 = u32::MAX;

/// A rotation folds once the log holds at least `1 / FOLD_SHARE` of the
/// column's postings.  Each fold moves at most `FOLD_SHARE` column
/// postings per log posting it folds in, so a posting costs amortised
/// O(1) moves however many segments a store has (a fold at every rotation
/// would cost O(segments²)), and the log holds at most a quarter of the
/// column plus a segment's postings.
const FOLD_SHARE: usize = 4;

impl Participation {
    /// Indexes `records`, whose ids are their positions, as one folded
    /// column: every posting's object given a slot and each slot's postings
    /// counted, the runs placed, then each posting written into its run in
    /// record order — no per-object allocation and no log.
    fn build(records: &[PatternRecord]) -> Self {
        let mut index = Participation::default();
        let mut slots = Vec::new();
        for (record, id) in records.iter().zip(0..) {
            for_each_posting(id, record, |object, _| slots.push(index.slot(object)));
        }
        index.heads = vec![Head::EMPTY; index.slots.len()];
        for &slot in &slots {
            index.heads[slot as usize].count += 1;
        }
        index.place(slots.len());
        let mut slots = slots.into_iter();
        for (record, id) in records.iter().zip(0..) {
            for_each_posting(id, record, |_, posting| {
                let slot = slots.next().expect("counted above");
                put(&mut index.offsets, &mut index.column, slot, posting);
            });
        }
        index.heads.fill(Head::EMPTY);
        index
    }

    /// `object`'s slot, the next one if it has none yet.
    fn slot(&mut self, object: ObjectId) -> u32 {
        let next = self.slots.len();
        *self
            .slots
            .entry(object)
            .or_insert_with(|| u32::try_from(next).expect("object ids are u32, so slots are too"))
    }

    /// Posts record `id` to the log; returns how many postings it added.
    fn post(&mut self, id: u32, record: &PatternRecord) -> usize {
        let before = self.log.len();
        for_each_posting(id, record, |object, (record, index)| {
            if self.log.len() == NONE as usize {
                self.fold();
            }
            let slot = self.slot(object);
            if slot as usize == self.heads.len() {
                self.heads.push(Head::EMPTY);
            }
            let head = &mut self.heads[slot as usize];
            let prev = std::mem::replace(&mut head.newest, self.log.len() as u32);
            head.count += 1;
            self.log.push(Delta {
                slot,
                record,
                index,
                prev,
            });
        });
        self.log.len() - before
    }

    /// Whether a segment rotation should fold: the log holds postings, at
    /// least a [`FOLD_SHARE`]th as many as the column.
    fn due(&self) -> bool {
        !self.log.is_empty() && self.log.len() * FOLD_SHARE >= self.column.len()
    }

    /// Merges the log into the column: the runs placed for the counted
    /// postings, the log scattered in append order, then emptied.
    fn fold(&mut self) {
        if self.log.is_empty() {
            return;
        }
        self.place(self.log.len());
        for delta in &self.log {
            let posting = (delta.record, delta.index);
            put(&mut self.offsets, &mut self.column, delta.slot, posting);
        }
        self.log.clear();
        self.heads.fill(Head::EMPTY);
    }

    /// Makes room for `added` postings, counted per slot in its [`Head`]:
    /// grows the column in place and moves each run up to its new start,
    /// top slot first so no run is overwritten before it moves.  It leaves
    /// `offsets[s + 1]` where slot `s`'s new postings go; writing them with
    /// [`put`] moves it on to the run's end, which is where run `s + 1`
    /// starts.
    fn place(&mut self, added: usize) {
        let end = self.offsets.last().copied().unwrap_or(0);
        self.offsets.resize(self.heads.len() + 1, end);
        self.column.resize(end + added, (0, 0));
        let mut top = self.column.len();
        for s in (0..self.heads.len()).rev() {
            let (start, stop) = (self.offsets[s], self.offsets[s + 1]);
            let cursor = top - self.heads[s].count as usize;
            top = cursor - (stop - start);
            self.column.copy_within(start..stop, top);
            self.offsets[s + 1] = cursor;
        }
    }

    /// `object`'s folded run, in `(record, index)` order, and its delta
    /// postings, newest first.
    fn of(&self, object: ObjectId) -> (&[(u32, u32)], impl Iterator<Item = (u32, u32)> + '_) {
        let slot = self.slots.get(&object).map(|&slot| slot as usize);
        let run = slot
            .filter(|&slot| slot + 1 < self.offsets.len())
            .map_or(&[][..], |slot| {
                &self.column[self.offsets[slot]..self.offsets[slot + 1]]
            });
        // An empty log chains nothing: a reopened store's history never
        // reads the heads.
        let newest = match slot {
            Some(slot) if !self.log.is_empty() => self.heads[slot].newest,
            _ => NONE,
        };
        let chain = std::iter::successors(self.delta(newest), |d| self.delta(d.prev));
        (run, chain.map(|d| (d.record, d.index)))
    }

    /// The delta posting at log position `at`, `None` at [`NONE`].
    fn delta(&self, at: u32) -> Option<Delta> {
        let at = (at != NONE).then_some(at as usize)?;
        Some(self.log[at])
    }
}

/// Writes `posting` at slot `slot`'s cursor (see [`Participation::place`]).
fn put(offsets: &mut [usize], column: &mut [(u32, u32)], slot: u32, posting: (u32, u32)) {
    let cursor = &mut offsets[slot as usize + 1];
    column[*cursor] = posting;
    *cursor += 1;
}

/// Calls `post` with each of record `id`'s postings, gathering by
/// gathering; a gathering index fits a `u32`, as a frame holds at most
/// [`FRAME_CAP`] bytes.  Participator lists are sorted, and adjacent
/// duplicates are skipped so a sloppily built record cannot double-count a
/// hit.
fn for_each_posting(id: u32, record: &PatternRecord, mut post: impl FnMut(ObjectId, (u32, u32))) {
    for (gathering, index) in record.gatherings.iter().zip(0..) {
        let mut previous = None;
        for &object in &gathering.participators {
            if previous != Some(object) {
                post(object, (id, index));
            }
            previous = Some(object);
        }
    }
}

/// The open write handle of the active (last) segment and its group of
/// queued frames.
#[derive(Debug)]
struct ActiveSegment {
    index: u32,
    file: Box<dyn VfsFile>,
    /// Bytes of the segment written to the file (header included).
    bytes: u64,
    /// Whole frames appended but not yet written, in append order.
    pending: Vec<u8>,
    /// A failed write may have left bytes past `bytes` in the file that its
    /// truncation could not remove: cut them before the next write.
    torn: bool,
}

impl ActiveSegment {
    fn new(index: u32, file: Box<dyn VfsFile>, bytes: u64) -> Self {
        ActiveSegment {
            index,
            file,
            bytes,
            pending: Vec::new(),
            torn: false,
        }
    }
}

/// Report of a torn-tail repair performed while opening a store: bytes past
/// the last intact record of the final segment were dropped.
///
/// A repair is the expected aftermath of a crash mid-append; a *large*
/// `dropped_bytes` on a store that was cleanly [`sync`](PatternStore::sync)ed
/// may instead indicate media corruption worth investigating — the dropped
/// data is gone either way, so callers that care should surface this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailRepair {
    /// The repaired (last) segment file.
    pub segment: PathBuf,
    /// Number of bytes dropped from its tail.
    pub dropped_bytes: u64,
}

/// How far one [`PatternStore::spill`] got.
#[derive(Debug)]
#[must_use = "a spill that stopped early says why, and may carry a store error"]
pub struct Spill {
    /// Records accounted for, verified or appended: `records[..accounted]`
    /// now sit at archive positions `first..first + accounted`.
    pub accounted: usize,
    /// Why the pass stopped at `records[accounted]` (or at the barrier),
    /// `None` if it accounted for every record.
    pub stop: Option<SpillStop>,
}

/// Why a [`PatternStore::spill`] stopped early.
#[derive(Debug)]
pub enum SpillStop {
    /// The store holds fewer records than `first`: the records before the
    /// feed are missing, and appending it would misplace every record.
    Behind,
    /// The record differs from the one stored at its position: the store
    /// holds another run's history.
    Diverged,
    /// The record references clusters the database no longer holds.
    Unresolvable,
    /// Its append, or the closing barrier, failed; classify with
    /// [`StoreError::is_transient`].
    Store(StoreError),
}

impl From<SpillStop> for StoreError {
    fn from(stop: SpillStop) -> Self {
        StoreError::InvalidRecord(match stop {
            SpillStop::Behind => "the store is behind the resume point",
            SpillStop::Diverged => "resumed ingest diverges from the stored records",
            SpillStop::Unresolvable => "record references clusters no longer resident",
            SpillStop::Store(err) => return err,
        })
    }
}

/// An append-only, durable store of finalized [`PatternRecord`]s with
/// region × time, per-object and top-k query paths.
///
/// See the [module documentation](self) for the file format and index
/// design.
#[derive(Debug)]
pub struct PatternStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    options: StoreOptions,
    records: Vec<PatternRecord>,
    intervals: IntervalIndex,
    rtree: RTree,
    participation: Participation,
    active: ActiveSegment,
    tail_repair: Option<TailRepair>,
}

impl PatternStore {
    /// Opens (or creates) the store in `dir` with default options, replaying
    /// all existing segments.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on I/O failure or when any segment other
    /// than the last is damaged; a torn tail in the last segment is
    /// truncated away (crash recovery) and reported via
    /// [`PatternStore::tail_repair`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Like [`PatternStore::open`] with explicit [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// See [`PatternStore::open`].
    pub fn open_with(dir: impl AsRef<Path>, options: StoreOptions) -> Result<Self, StoreError> {
        Self::open_at(Arc::new(RealVfs), dir, options)
    }

    /// Like [`PatternStore::open_with`] against an explicit storage backend
    /// — the seam the fault-injection tests use to run the exact production
    /// store code over a [`FaultVfs`](crate::vfs::FaultVfs).
    ///
    /// # Errors
    ///
    /// See [`PatternStore::open`], plus [`StoreError::EmptySalvage`] when a
    /// torn log decodes to zero records (see
    /// [`StoreOptions::allow_empty_salvage`]).
    pub fn open_at(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;

        let replay = gpdt_obs::span!("store.reopen.replay");
        let segments = Self::list_segments(vfs.as_ref(), &dir)?;
        let mut replayed: Vec<PatternRecord> = Vec::new();
        let mut tail_repair = None;
        let active = match segments.last().copied() {
            None => Self::create_segment(vfs.as_ref(), &dir, 1)?,
            Some(last) => {
                let mut active = None;
                for &index in &segments {
                    let path = segment_path(&dir, index);
                    let is_last = index == last;
                    let before = replayed.len();
                    let valid_len =
                        Self::replay_segment(vfs.as_ref(), &path, is_last, &mut replayed)?;
                    if gpdt_obs::enabled() {
                        let frames = (replayed.len() - before) as u64;
                        gpdt_obs::counter!("store.replay.frames").add(frames);
                        gpdt_obs::counter!("store.replay.bytes").add(valid_len);
                    }
                    if is_last {
                        // Reopen the tail segment for appending, dropping any
                        // torn bytes past the last intact record — and report
                        // the repair, so callers can tell a routine crash
                        // cleanup from unexpected data loss.
                        let on_disk = vfs.file_len(&path)?;
                        if on_disk > valid_len {
                            // A torn log that decodes to *nothing* is more
                            // likely the wrong directory or wholesale
                            // corruption than a routine crash; refuse to
                            // pass it off as an empty store unless the
                            // caller opted in (and refuse *before* the
                            // destructive truncation below).
                            if replayed.is_empty() && !options.allow_empty_salvage {
                                return Err(StoreError::EmptySalvage {
                                    segment: path.clone(),
                                    dropped_bytes: on_disk - valid_len,
                                });
                            }
                            tail_repair = Some(TailRepair {
                                segment: path.clone(),
                                dropped_bytes: on_disk - valid_len,
                            });
                            if gpdt_obs::enabled() {
                                gpdt_obs::counter!("store.tail_repairs").inc();
                                gpdt_obs::record_event(
                                    "tail.repair",
                                    None,
                                    format!(
                                        "dropped {} torn bytes from {}",
                                        on_disk - valid_len,
                                        path.display()
                                    ),
                                );
                            }
                            vfs.truncate(&path, valid_len)?;
                        }
                        let mut file = vfs.open_append(&path)?;
                        let mut bytes = valid_len;
                        if valid_len < SEGMENT_HEADER_BYTES {
                            // Not even the header survived (crash during
                            // rotation): rewrite it so the segment is whole
                            // again.
                            write_segment_header(&mut *file)?;
                            bytes = SEGMENT_HEADER_BYTES;
                        }
                        active = Some(ActiveSegment::new(index, file, bytes));
                    }
                }
                active.expect("the last segment produced the active handle")
            }
        };
        drop(replay);

        let index = gpdt_obs::span!("store.reopen.index");
        // Record ids fit a `u32`: `replay_segment` refuses any past it.
        let participation = Participation::build(&replayed);
        if gpdt_obs::enabled() {
            let postings = participation.column.len() as u64;
            gpdt_obs::counter!("store.replay.postings").add(postings);
        }
        let entries = replayed
            .iter()
            .zip(0..)
            .map(|(r, id)| Entry { mbr: r.mbr, id });
        let intervals = replayed
            .iter()
            .map(PatternRecord::interval)
            .zip(0..)
            .collect();
        let rtree = RTree::bulk_load(entries.collect());
        drop(index);
        Ok(PatternStore {
            vfs,
            dir,
            options,
            intervals,
            rtree,
            records: replayed,
            participation,
            active,
            tail_repair,
        })
    }

    /// Lists the segment indices present in `dir` and verifies they form a
    /// gap-free run: a missing middle segment would silently shift every
    /// later record id, so it is a hard error, not a recoverable tail.
    ///
    /// Only exact writer-produced names (`seg-` + 8 digits + `.gpdt`) count;
    /// stray files that merely look similar are ignored rather than replayed
    /// twice under a duplicate index.
    fn list_segments(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<u32>, StoreError> {
        let mut out = Vec::new();
        for name in vfs.list_dir(dir)? {
            if let Some(index) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".gpdt"))
                .filter(|digits| digits.len() == 8 && digits.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|digits| digits.parse::<u32>().ok())
            {
                out.push(index);
            }
        }
        out.sort_unstable();
        // The writer always starts the run at 1, so a first index above 1 is
        // a lost leading segment, not a different numbering scheme.
        if out.first().is_some_and(|&first| first != 1) {
            return Err(StoreError::Segment {
                path: segment_path(dir, 1),
                source: DecodeError::Corrupt("segment file missing from the sequence"),
            });
        }
        if let Some(gap) = out.windows(2).find(|w| w[1] != w[0] + 1) {
            return Err(StoreError::Segment {
                path: segment_path(dir, gap[0] + 1),
                source: DecodeError::Corrupt("segment file missing from the sequence"),
            });
        }
        Ok(out)
    }

    /// Creates a fresh segment file with its header written and fsynced (a
    /// crash must not be able to leave a sealed predecessor pointing at a
    /// successor with a torn header).
    ///
    /// On a header-write failure the just-created file is removed again, so
    /// a transient fault mid-rotation does not leave an orphan that would
    /// turn the retry's `create_new` into a spurious `AlreadyExists`.
    fn create_segment(vfs: &dyn Vfs, dir: &Path, index: u32) -> Result<ActiveSegment, StoreError> {
        let path = segment_path(dir, index);
        let mut file = vfs.create_new(&path)?;
        let written = write_segment_header(&mut *file).and_then(|()| file.sync());
        if let Err(err) = written {
            drop(file);
            // Best-effort: a failure here only re-creates the
            // crash-during-rotation case replay already repairs.
            let _ = vfs.remove_file(&path);
            return Err(err.into());
        }
        Ok(ActiveSegment::new(index, file, SEGMENT_HEADER_BYTES))
    }

    /// Replays one segment, pushing its records onto `out`; returns the byte
    /// length of the intact prefix.
    ///
    /// For the last segment a torn tail ends the replay silently — including
    /// a tail so torn that not even the header survived (a crash during
    /// rotation), signalled by returning `0` so the caller rewrites the
    /// header.  For any other segment damage is an error.
    fn replay_segment(
        vfs: &dyn Vfs,
        path: &Path,
        tolerate_tail: bool,
        out: &mut Vec<PatternRecord>,
    ) -> Result<u64, StoreError> {
        let damaged = |source: DecodeError| StoreError::Segment {
            path: path.to_path_buf(),
            source,
        };
        let data = vfs.read_file(path)?;
        if let Err(err) = read_header(&mut data.as_slice(), &SEGMENT_MAGIC, SEGMENT_VERSION) {
            if tolerate_tail && matches!(err, DecodeError::UnexpectedEof) {
                return Ok(0);
            }
            return Err(damaged(err));
        }
        let mut offset = SEGMENT_HEADER_BYTES as usize;
        while offset < data.len() {
            match parse_frame(&data[offset..], out.len() as u64) {
                Ok((record, frame_len)) if u32::try_from(out.len()).is_ok() => {
                    out.push(record);
                    offset += frame_len;
                }
                Ok(_) => return Err(damaged(DecodeError::Corrupt("record id past u32::MAX"))),
                Err(err) => {
                    let torn = matches!(
                        err,
                        DecodeError::UnexpectedEof | DecodeError::ChecksumMismatch
                    );
                    if tolerate_tail && torn {
                        break;
                    }
                    return Err(damaged(err));
                }
            }
        }
        Ok(offset as u64)
    }

    /// Appends a record to the log and indexes it.
    ///
    /// An acknowledged record is indexed at once and its frame queued in the
    /// active group.  The frame reaches the segment file when the group
    /// fills (256 KiB), at a barrier — the end of a [`PatternStore::spill`],
    /// [`PatternStore::sync`], a segment rotation or drop; it is
    /// crash-durable after the next [`PatternStore::sync`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidRecord`] if the record fails
    /// [`PatternRecord::validate`], is too large for a frame or would get an
    /// id past `u32::MAX`, and propagates I/O errors of the group write or
    /// rotation this append triggers — classify with
    /// [`StoreError::is_transient`] before retrying.  On an error the
    /// record's own frame is taken back out and nothing is indexed; frames
    /// acknowledged before it stay queued for the next barrier, and the
    /// segment file never holds a torn frame, so the append can simply be
    /// retried.
    pub fn append(&mut self, record: PatternRecord) -> Result<RecordId, StoreError> {
        let _span = gpdt_obs::span!("store.append");
        record.validate().map_err(StoreError::InvalidRecord)?;
        let Ok(posting_id) = u32::try_from(self.records.len()) else {
            return Err(StoreError::InvalidRecord("record id past u32::MAX"));
        };
        let frame_len = queue_frame(&mut self.active.pending, &record, posting_id)?;
        if let Err(err) = self.commit_frame(frame_len) {
            // The frame is still the last thing queued: only bytes before
            // it are ever written or moved.
            let pending = &mut self.active.pending;
            pending.truncate(pending.len() - frame_len);
            return Err(err);
        }
        let id = self.records.len();
        self.intervals.insert(record.interval(), id);
        self.rtree.insert(Entry {
            mbr: record.mbr,
            id,
        });
        let postings = self.participation.post(posting_id, &record);
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("store.append.postings").add(postings as u64);
        }
        self.records.push(record);
        Ok(id)
    }

    /// Places the frame just queued: seals the active segment first when the
    /// frame would overflow it (the frame opens the next one), then writes
    /// the group out once it is full.
    fn commit_frame(&mut self, frame_len: usize) -> Result<(), StoreError> {
        let before = self.active.pending.len() - frame_len;
        let segment_bytes = self.active.bytes + before as u64;
        if segment_bytes + frame_len as u64 > self.options.max_segment_bytes
            && segment_bytes > SEGMENT_HEADER_BYTES
        {
            self.rotate(before)?;
        }
        if self.active.pending.len() >= GROUP_BYTES {
            self.write_pending(self.active.pending.len())?;
        }
        Ok(())
    }

    /// Writes the first `len` queued bytes — whole frames — to the active
    /// segment with one `write_all`.
    ///
    /// On failure the file is truncated back to its written length, so it
    /// never holds a torn frame, and the bytes stay queued for the next
    /// barrier to retry.
    fn write_pending(&mut self, len: usize) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let active = &mut self.active;
        let path = || segment_path(&self.dir, active.index);
        if active.torn {
            self.vfs.truncate(&path(), active.bytes)?;
            active.torn = false;
        }
        if let Err(err) = active.file.write_all(&active.pending[..len]) {
            active.torn = self.vfs.truncate(&path(), active.bytes).is_err();
            return Err(err);
        }
        active.bytes += len as u64;
        active.pending.drain(..len);
        Ok(())
    }

    /// Converts and appends one engine [`CrowdRecord`] (see
    /// [`PatternRecord::from_crowd_record`]).
    ///
    /// # Errors
    ///
    /// Propagates errors of [`PatternStore::append`].
    pub fn append_crowd_record(
        &mut self,
        record: &CrowdRecord,
        cdb: &ClusterDatabase,
    ) -> Result<RecordId, StoreError> {
        self.append(PatternRecord::from_crowd_record(record, cdb))
    }

    /// Brings the store up to a feed of finalized records — the one path
    /// from an engine to the log.  `records[0]` belongs at archive position
    /// `first`: records the store already holds are verified, the rest
    /// appended, and the pass ends with the write barrier.
    ///
    /// The store must hold a *prefix* of the feed, so the pass stops at the
    /// first record it cannot account for, and [`Spill::accounted`] is where
    /// the next pass resumes: a failed append takes its frame back, so a
    /// retry from there neither skips nor duplicates a record.  Each record
    /// is resolved against `cdb` first: under bounded retention one that
    /// lagged across an eviction no longer can be.  A barrier error is
    /// reported when nothing stopped the pass earlier.
    pub fn spill(&mut self, records: &[CrowdRecord], first: usize, cdb: &ClusterDatabase) -> Spill {
        let resolves = |c: &Crowd| c.cluster_ids().iter().all(|&id| cdb.cluster(id).is_some());
        let mut spill = Spill {
            accounted: 0,
            stop: None,
        };
        if self.records.len() < first {
            spill.stop = Some(SpillStop::Behind);
            return spill;
        }
        for record in records {
            let at = first + spill.accounted;
            if !resolves(&record.crowd) || !record.gatherings.iter().all(|g| resolves(g.crowd())) {
                spill.stop = Some(SpillStop::Unresolvable);
                break;
            }
            if at < self.records.len() {
                if self.records[at] != PatternRecord::from_crowd_record(record, cdb) {
                    spill.stop = Some(SpillStop::Diverged);
                    break;
                }
            } else if let Err(err) = self.append_crowd_record(record, cdb) {
                spill.stop = Some(SpillStop::Store(err));
                return spill;
            }
            spill.accounted += 1;
        }
        if let Err(err) = self.flush() {
            spill.stop.get_or_insert(SpillStop::Store(err));
        }
        spill
    }

    /// Archives the engine's frontier crowds that are already long enough to
    /// count as closed (the engine's own `closed_crowds` rule), returning
    /// how many records were appended.
    ///
    /// This is the *final-shutdown* step: afterwards the store also holds
    /// records the engine never finalized, making it a finished archive for
    /// queries — do not resume a
    /// [`MonitorService`](crate::service::MonitorService) with it (the
    /// service detects the mismatch and refuses to append).
    ///
    /// The records go through [`PatternStore::spill`] at the store's end,
    /// so the archived records are in the segment file — crash-durable
    /// after [`PatternStore::sync`] — and a write error surfaces here
    /// rather than at drop.
    ///
    /// # Errors
    ///
    /// Propagates errors of [`PatternStore::append`] and of the barrier.
    /// Records acknowledged before the failure stay in the store, queued
    /// for the next barrier.
    pub fn archive_closed_frontier(
        &mut self,
        engine: &GatheringEngine,
    ) -> Result<usize, StoreError> {
        let kc = engine.config().crowd.kc;
        let closed: Vec<CrowdRecord> = engine
            .frontier()
            .iter()
            .filter(|(crowd, _)| crowd.lifetime() >= kc)
            .map(|(crowd, gatherings)| CrowdRecord {
                crowd: crowd.clone(),
                gatherings: gatherings.clone(),
            })
            .collect();
        let spill = self.spill(&closed, self.len(), engine.cluster_database());
        spill
            .stop
            .map_or(Ok(spill.accounted), |stop| Err(stop.into()))
    }

    /// Seals the active segment durably — its first `sealed` queued bytes
    /// written and fsynced — and starts the next one, which takes over the
    /// rest of the group; then folds the participation log into its column
    /// if it is [due](Participation::due).
    fn rotate(&mut self, sealed: usize) -> Result<(), StoreError> {
        let _span = gpdt_obs::span!("store.rotate");
        if gpdt_obs::enabled() {
            gpdt_obs::counter!("store.rotations").inc();
        }
        // The sealed segment will never be written (or fsynced) again, so it
        // must hit stable storage now — otherwise a later `sync()` would
        // claim durability for records living only in the page cache of a
        // file nobody syncs.
        self.write_pending(sealed)?;
        self.active.file.sync()?;
        let mut next = Self::create_segment(self.vfs.as_ref(), &self.dir, self.active.index + 1)?;
        next.pending = std::mem::take(&mut self.active.pending);
        self.active = next;
        if self.participation.due() {
            let _fold = gpdt_obs::span!("store.participation.fold");
            if gpdt_obs::enabled() {
                gpdt_obs::counter!("store.participation.folds").inc();
            }
            self.participation.fold();
        }
        Ok(())
    }

    /// The write barrier: writes every queued frame to the active segment.
    ///
    /// # Errors
    ///
    /// Propagates the write's I/O error; the frames stay queued, and the
    /// file holds none of them.
    fn flush(&mut self) -> Result<(), StoreError> {
        self.write_pending(self.active.pending.len())?;
        Ok(())
    }

    /// Writes every queued frame and fsyncs the active segment, making all
    /// appended records crash-durable.
    ///
    /// # Errors
    ///
    /// Propagates write and fsync I/O errors.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        self.active.file.sync()?;
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage backend this store runs against — checkpoint files that
    /// must share the store's fate (and its injected faults) are written
    /// through the same backend.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// The torn-tail repair performed while opening this store, if any.
    pub fn tail_repair(&self) -> Option<&TailRepair> {
        self.tail_repair.as_ref()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in append order.
    pub fn records(&self) -> &[PatternRecord] {
        &self.records
    }

    /// The record with the given id, if it exists.
    pub fn get(&self, id: RecordId) -> Option<&PatternRecord> {
        self.records.get(id)
    }

    /// Number of segment files written so far.
    pub fn segment_count(&self) -> u32 {
        self.active.index
    }

    /// Record ids of crowds whose lifespan intersects `window`, ascending.
    pub fn crowds_in_window(&self, window: TimeInterval) -> Vec<RecordId> {
        self.intervals.stab(window)
    }

    /// The region × time-window query: all stored gatherings whose MBR
    /// intersects `region` **and** whose lifespan intersects `window`,
    /// ordered by `(record, index)`.
    ///
    /// Candidate records are pruned with the R-tree first and the interval
    /// index second; only survivors are checked gathering by gathering.
    pub fn query_gatherings(&self, region: &Mbr, window: TimeInterval) -> Vec<GatheringHit> {
        let mut hits = Vec::new();
        for id in self.rtree.window_query(region) {
            let record = &self.records[id];
            let interval = record.interval();
            if interval.start > window.end || interval.end < window.start {
                continue;
            }
            for (index, gathering) in record.gatherings.iter().enumerate() {
                if gathering.interval.start <= window.end
                    && gathering.interval.end >= window.start
                    && gathering.mbr.intersects(region)
                {
                    hits.push(GatheringHit {
                        record: id,
                        index,
                        gathering: gathering.clone(),
                    });
                }
            }
        }
        hits
    }

    /// The participation history of one object: every stored gathering it
    /// participated in, ordered by `(record, index)` (which is
    /// finalization order).
    pub fn object_history(&self, object: ObjectId) -> Vec<GatheringHit> {
        let hit = |(record, index): (u32, u32)| {
            let (record, index) = (record as RecordId, index as usize);
            GatheringHit {
                record,
                index,
                gathering: self.records[record].gatherings[index].clone(),
            }
        };
        let (run, delta) = self.participation.of(object);
        let mut hits: Vec<GatheringHit> = run.iter().copied().map(hit).collect();
        hits.extend(delta.map(hit));
        hits[run.len()..].reverse();
        hits
    }

    /// The `k` stored gatherings with the most participators, largest first;
    /// ties broken by `(record, index)` so the ranking is deterministic.
    pub fn top_k_gatherings(&self, k: usize) -> Vec<GatheringHit> {
        // A heap of the `k` best seen so far, the least of them on top: one
        // pass, nothing kept between calls, only the winners cloned.  Ranks
        // order by attendance, then towards the *earlier* `(record, index)`.
        let mut best = BinaryHeap::with_capacity(k.min(self.records.len()));
        for (id, record) in self.records.iter().enumerate() {
            for (index, gathering) in record.gatherings.iter().enumerate() {
                let rank = (gathering.participators.len(), Reverse((id, index)));
                if best.len() < k {
                    best.push(Reverse(rank));
                } else if best.peek().is_some_and(|least| rank > least.0) {
                    best.pop();
                    best.push(Reverse(rank));
                }
            }
        }
        // Ascending `Reverse(rank)`: best first.
        best.into_sorted_vec()
            .into_iter()
            .map(|Reverse((_, Reverse((record, index))))| GatheringHit {
                record,
                index,
                gathering: self.records[record].gatherings[index].clone(),
            })
            .collect()
    }
}

impl Drop for PatternStore {
    /// Writes the queued group out.  Drop cannot return the write's error:
    /// frames it fails to write are lost, so it is counted
    /// (`store.drop.unwritten_bytes`) and journalled in the flight
    /// recorder.  Callers that must see the error end with a
    /// [`PatternStore::spill`] or [`PatternStore::sync`].
    fn drop(&mut self) {
        let unwritten = self.active.pending.len();
        if let Err(err) = self.flush() {
            if gpdt_obs::enabled() {
                gpdt_obs::counter!("store.drop.unwritten_bytes").add(unwritten as u64);
                gpdt_obs::record_event(
                    "store.drop.write_failed",
                    None,
                    format!(
                        "{unwritten} queued bytes never reached segment {}: {err}",
                        self.active.index
                    ),
                );
            }
        }
    }
}

/// Writes a segment header with one `write`, so it never lands in two
/// pieces.
fn write_segment_header(file: &mut dyn VfsFile) -> io::Result<()> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    write_header(&mut header, &SEGMENT_MAGIC, SEGMENT_VERSION);
    file.write_all(&header)
}

/// Encodes record `id`'s frame in place at the end of `pending`: a length
/// placeholder, the payload straight after it, the length patched in and
/// the XXH64 sealed under the id.  Returns the frame's length; a payload
/// past [`FRAME_CAP`] — which replay would refuse — is taken back out.
fn queue_frame(
    pending: &mut Vec<u8>,
    record: &PatternRecord,
    id: u32,
) -> Result<usize, StoreError> {
    let start = pending.len();
    pending.extend_from_slice(&[0; 4]);
    record.encode(pending);
    let len = pending.len() - start - 4;
    if len > FRAME_CAP {
        pending.truncate(start);
        return Err(StoreError::InvalidRecord(
            "record payload exceeds the 1 GiB frame cap",
        ));
    }
    pending[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = xxh64(&pending[start + 4..], u64::from(id));
    pending.extend_from_slice(&sum.to_le_bytes());
    Ok(pending.len() - start)
}

/// Parses the frame of record `id` at the start of `bytes` in place: the
/// validated record and the frame's length.  A length past [`FRAME_CAP`]
/// reads as truncation, so a garbage tail after a crash is repaired rather
/// than fatal; a frame sealed under another id fails its checksum.
fn parse_frame(bytes: &[u8], id: u64) -> Result<(PatternRecord, usize), DecodeError> {
    let (len, rest) = bytes
        .split_first_chunk::<4>()
        .ok_or(DecodeError::UnexpectedEof)?;
    let len = u32::from_le_bytes(*len) as usize;
    if len > FRAME_CAP {
        return Err(DecodeError::UnexpectedEof);
    }
    let (payload, rest) = rest
        .split_at_checked(len)
        .ok_or(DecodeError::UnexpectedEof)?;
    let sum = rest.first_chunk::<8>().ok_or(DecodeError::UnexpectedEof)?;
    if u64::from_le_bytes(*sum) != xxh64(payload, id) {
        return Err(DecodeError::ChecksumMismatch);
    }
    let record: PatternRecord = decode_from_slice(payload)?;
    record.check_containment().map_err(DecodeError::Corrupt)?;
    Ok((record, 4 + len + 8))
}

/// Path of segment `index` inside `dir`.
fn segment_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("seg-{index:08}.gpdt"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::gather_scatter_engine;
    use crate::codec::encode_to_vec;
    use crate::vfs::{FaultPlan, FaultVfs};
    use gpdt_clustering::ClusterId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fs::OpenOptions;

    /// A unique fresh directory under the system temp dir.
    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gpdt-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(start: Timestamp, len: u32, x: f64, participators: &[u32]) -> PatternRecord {
        let crowd = Crowd::new((start..start + len).map(|t| ClusterId::new(t, 0)).collect());
        let interval = crowd.interval();
        let mut participators: Vec<ObjectId> =
            participators.iter().map(|&i| ObjectId::new(i)).collect();
        participators.sort_unstable();
        participators.dedup();
        PatternRecord {
            crowd,
            mbr: Mbr::new(x, 0.0, x + 100.0, 100.0),
            gatherings: vec![StoredGathering {
                interval,
                mbr: Mbr::new(x, 0.0, x + 50.0, 50.0),
                participators,
            }],
        }
    }

    #[test]
    fn append_reopen_roundtrip() {
        let dir = temp_store_dir("roundtrip");
        let mut ids = Vec::new();
        {
            let mut store = PatternStore::open(&dir).unwrap();
            assert!(store.is_empty());
            for i in 0..10u32 {
                ids.push(
                    store
                        .append(record(i * 5, 4, f64::from(i) * 500.0, &[i, i + 1]))
                        .unwrap(),
                );
            }
            store.sync().unwrap();
            assert_eq!(store.len(), 10);
        }
        let store = PatternStore::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        for (i, rec) in store.records().iter().enumerate() {
            assert_eq!(
                rec,
                &record(i as u32 * 5, 4, i as f64 * 500.0, &[i as u32, i as u32 + 1])
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = temp_store_dir("rotate");
        let options = StoreOptions {
            max_segment_bytes: 256,
            ..StoreOptions::default()
        };
        {
            let mut store = PatternStore::open_with(&dir, options).unwrap();
            for i in 0..20u32 {
                store.append(record(i, 3, f64::from(i), &[i])).unwrap();
            }
            assert!(store.segment_count() > 1, "rotation must have happened");
            store.sync().unwrap();
        }
        let store = PatternStore::open_with(&dir, options).unwrap();
        assert_eq!(store.len(), 20);
        for (i, rec) in store.records().iter().enumerate() {
            assert_eq!(rec.interval().start, i as u32);
        }
        // Appending after reopen continues in the tail segment.
        let mut store = store;
        store.append(record(99, 2, 0.0, &[7])).unwrap();
        assert_eq!(store.len(), 21);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_store_dir("torn");
        {
            let mut store = PatternStore::open(&dir).unwrap();
            for i in 0..5u32 {
                store.append(record(i, 2, 0.0, &[i])).unwrap();
            }
            store.sync().unwrap();
        }
        // Corrupt the log by chopping bytes off the tail (a crashed append).
        let path = segment_path(&dir, 1);
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let store = PatternStore::open(&dir).unwrap();
        assert_eq!(store.len(), 4, "the torn record is dropped");
        // The repair is reported, not silent.
        let repair = store.tail_repair().expect("repair must be reported");
        assert_eq!(repair.segment, path);
        assert!(repair.dropped_bytes > 0);
        // The file was truncated back to its intact prefix, so appending
        // again yields a clean log.
        let mut store = store;
        store.append(record(50, 2, 0.0, &[1])).unwrap();
        store.sync().unwrap();
        let reopened = PatternStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 5);
        assert!(
            reopened.tail_repair().is_none(),
            "clean log needs no repair"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_in_a_sealed_segment_is_an_error() {
        let dir = temp_store_dir("sealed-damage");
        let options = StoreOptions {
            max_segment_bytes: 256,
            ..StoreOptions::default()
        };
        {
            let mut store = PatternStore::open_with(&dir, options).unwrap();
            for i in 0..20u32 {
                store.append(record(i, 3, f64::from(i), &[i])).unwrap();
            }
            assert!(store.segment_count() > 1);
            store.sync().unwrap();
        }
        // Flip a payload byte in the first (sealed) segment.
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match PatternStore::open_with(&dir, options) {
            Err(StoreError::Segment { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected a segment error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_header_after_rotation_is_repaired() {
        let dir = temp_store_dir("torn-header");
        {
            let mut store = PatternStore::open(&dir).unwrap();
            for i in 0..3u32 {
                store.append(record(i, 2, 0.0, &[i])).unwrap();
            }
            store.sync().unwrap();
        }
        // A crash during rotation can leave the new last segment with only a
        // few header bytes on disk.
        std::fs::write(segment_path(&dir, 2), [0x47, 0x50, 0x44]).unwrap();
        let mut store = PatternStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3, "segment 1's records survive");
        let repair = store.tail_repair().expect("repair must be reported");
        assert_eq!(repair.segment, segment_path(&dir, 2));
        assert_eq!(repair.dropped_bytes, 3);
        // The rewritten header makes the segment appendable and replayable.
        store.append(record(50, 2, 0.0, &[9])).unwrap();
        store.sync().unwrap();
        drop(store);
        let reopened = PatternStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 4);
        assert!(reopened.tail_repair().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_middle_segment_is_a_hard_error() {
        let dir = temp_store_dir("gap");
        let options = StoreOptions {
            max_segment_bytes: 256,
            ..StoreOptions::default()
        };
        {
            let mut store = PatternStore::open_with(&dir, options).unwrap();
            for i in 0..20u32 {
                store.append(record(i, 3, f64::from(i), &[i])).unwrap();
            }
            assert!(store.segment_count() >= 3);
            store.sync().unwrap();
        }
        std::fs::remove_file(segment_path(&dir, 2)).unwrap();
        match PatternStore::open_with(&dir, options) {
            Err(StoreError::Segment { path, source }) => {
                assert_eq!(path, segment_path(&dir, 2));
                assert!(matches!(source, DecodeError::Corrupt(_)));
            }
            other => panic!("expected a gap error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_segment_version_is_rejected() {
        let dir = temp_store_dir("version");
        {
            let mut store = PatternStore::open(&dir).unwrap();
            store.append(record(0, 2, 0.0, &[1])).unwrap();
            store.sync().unwrap();
        }
        let path = segment_path(&dir, 1);
        let pristine = std::fs::read(&path).unwrap();
        // A future version, version 1 exactly (the FNV-1a-sealed layout) and
        // version 2 (XXH64 at seed 0, blind to a frame's position): layouts
        // this reader no longer understands.
        for found in [0xFFFF, 1, 2] {
            let mut bytes = pristine.clone();
            bytes[8..10].copy_from_slice(&u16::to_le_bytes(found));
            std::fs::write(&path, &bytes).unwrap();
            match PatternStore::open(&dir) {
                Err(StoreError::Segment { source, .. }) => assert!(
                    matches!(
                        source,
                        DecodeError::UnsupportedVersion { found: f, supported: SEGMENT_VERSION }
                            if f == found
                    ),
                    "{source:?}"
                ),
                other => panic!("expected a version error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queries_match_full_scans_on_random_stores() {
        let dir = temp_store_dir("queries");
        let mut rng = StdRng::seed_from_u64(0x57013);
        let mut store = PatternStore::open(&dir).unwrap();
        for _ in 0..60 {
            let start = rng.gen_range(0u32..200);
            let len = rng.gen_range(1u32..20);
            let x = rng.gen_range(-5_000.0..5_000.0);
            let participators: Vec<u32> = (0..rng.gen_range(1u32..20))
                .map(|_| rng.gen_range(0u32..40))
                .collect();
            store.append(record(start, len, x, &participators)).unwrap();
        }

        for _ in 0..50 {
            let t1 = rng.gen_range(0u32..220);
            let t2 = rng.gen_range(0u32..220);
            let window = TimeInterval::new(t1.min(t2), t1.max(t2));
            let x = rng.gen_range(-6_000.0..5_000.0);
            let y = rng.gen_range(-100.0..100.0);
            let region = Mbr::new(x, y, x + rng.gen_range(10.0..2_000.0), y + 100.0);

            let got = store.query_gatherings(&region, window);
            let mut expected = Vec::new();
            for (id, rec) in store.records().iter().enumerate() {
                for (index, g) in rec.gatherings.iter().enumerate() {
                    if g.mbr.intersects(&region)
                        && g.interval.start <= window.end
                        && g.interval.end >= window.start
                    {
                        expected.push((id, index));
                    }
                }
            }
            let got_keys: Vec<(usize, usize)> = got.iter().map(|h| (h.record, h.index)).collect();
            assert_eq!(got_keys, expected);

            // Window-only index agrees with a scan too.
            let ids = store.crowds_in_window(window);
            let expected_ids: Vec<RecordId> = store
                .records()
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.interval().start <= window.end && r.interval().end >= window.start
                })
                .map(|(id, _)| id)
                .collect();
            assert_eq!(ids, expected_ids);
        }

        // Object history agrees with a scan.
        for raw in 0..40u32 {
            let object = ObjectId::new(raw);
            let got: Vec<(usize, usize)> = store
                .object_history(object)
                .iter()
                .map(|h| (h.record, h.index))
                .collect();
            let expected: Vec<(usize, usize)> = store
                .records()
                .iter()
                .enumerate()
                .flat_map(|(id, r)| {
                    r.gatherings
                        .iter()
                        .enumerate()
                        .filter(|(_, g)| g.participators.contains(&object))
                        .map(move |(index, _)| (id, index))
                })
                .collect();
            assert_eq!(got, expected, "object {object}");
        }

        // Top-k is the sorted prefix of the full ranking.
        let all = store.top_k_gatherings(usize::MAX);
        for w in all.windows(2) {
            assert!(w[0].gathering.participators.len() >= w[1].gathering.participators.len());
        }
        let top3 = store.top_k_gatherings(3);
        assert_eq!(top3.len(), 3);
        assert_eq!(&all[..3], top3.as_slice());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record of up to three gatherings whose participator lists are
    /// sorted but may repeat an object (drawn from `0..40`).
    fn record_with_repeats(rng: &mut StdRng) -> PatternRecord {
        let mut rec = record(rng.gen_range(0u32..200), 6, rng.gen_range(-1e3..1e3), &[0]);
        let template = rec.gatherings[0].clone();
        rec.gatherings = (0..rng.gen_range(0usize..4))
            .map(|_| {
                let mut participators: Vec<ObjectId> = (0..rng.gen_range(1usize..12))
                    .map(|_| ObjectId::new(rng.gen_range(0u32..40)))
                    .collect();
                participators.sort_unstable();
                StoredGathering {
                    participators,
                    ..template.clone()
                }
            })
            .collect();
        rec
    }

    /// Every object's history, and an absent object's, equals a scan.
    fn assert_histories_match_a_scan(store: &PatternStore, state: &str) {
        for raw in 0..=40u32 {
            let object = ObjectId::new(raw);
            let got: Vec<(usize, usize)> = store
                .object_history(object)
                .iter()
                .map(|h| (h.record, h.index))
                .collect();
            let mut expected = Vec::new();
            for (id, rec) in store.records().iter().enumerate() {
                for (index, g) in rec.gatherings.iter().enumerate() {
                    if g.participators.contains(&object) {
                        expected.push((id, index));
                    }
                }
            }
            assert_eq!(got, expected, "{state}: object {object}");
        }
    }

    /// First of the objects that only late records (see [`late_record`])
    /// hold; `record_with_repeats` draws from `0..40`.
    const LATE: u32 = 1_000;

    /// A record whose one gathering holds late object `LATE + n` alone.
    fn late_record(rng: &mut StdRng, n: u32) -> PatternRecord {
        record(
            rng.gen_range(0u32..200),
            6,
            rng.gen_range(-1e3..1e3),
            &[LATE + n],
        )
    }

    /// Every query path equals a full scan of the records: the history of
    /// every object in `0..=40` (40 is never drawn) and of the first eight
    /// late objects, `query_gatherings` and `crowds_in_window` on random
    /// regions and windows, and `top_k_gatherings` against the full
    /// ranking.
    fn assert_queries_match_scans(store: &PatternStore, state: &str, rng: &mut StdRng) {
        let records = store.records();
        let keys = |hits: Vec<GatheringHit>| -> Vec<(RecordId, usize)> {
            hits.iter().map(|h| (h.record, h.index)).collect()
        };
        let all = || {
            records.iter().enumerate().flat_map(|(id, r)| {
                r.gatherings
                    .iter()
                    .enumerate()
                    .map(move |(index, g)| ((id, index), g))
            })
        };
        for raw in (0..=40u32).chain(LATE..LATE + 8) {
            let object = ObjectId::new(raw);
            let expected: Vec<_> = all()
                .filter(|(_, g)| g.participators.contains(&object))
                .map(|(key, _)| key)
                .collect();
            let got = keys(store.object_history(object));
            assert_eq!(got, expected, "{state}: object {object}");
        }
        for _ in 0..20 {
            let (t1, t2) = (rng.gen_range(0u32..220), rng.gen_range(0u32..220));
            let window = TimeInterval::new(t1.min(t2), t1.max(t2));
            let x = rng.gen_range(-1_200.0..1_000.0);
            let region = Mbr::new(x, -20.0, x + rng.gen_range(10.0..600.0), 80.0);
            let overlaps = |i: TimeInterval| i.start <= window.end && i.end >= window.start;
            let expected: Vec<_> = all()
                .filter(|(_, g)| g.mbr.intersects(&region) && overlaps(g.interval))
                .map(|(key, _)| key)
                .collect();
            let got = keys(store.query_gatherings(&region, window));
            assert_eq!(got, expected, "{state}: {region:?} × {window:?}");
            let expected: Vec<RecordId> = (0..records.len())
                .filter(|&id| overlaps(records[id].interval()))
                .collect();
            assert_eq!(
                store.crowds_in_window(window),
                expected,
                "{state}: {window:?}"
            );
        }
        let mut ranking: Vec<_> = all()
            .map(|(key, g)| (Reverse(g.participators.len()), key))
            .collect();
        ranking.sort_unstable();
        for k in [0, 1, 5, ranking.len()] {
            let expected: Vec<_> = ranking.iter().take(k).map(|&(_, key)| key).collect();
            assert_eq!(
                keys(store.top_k_gatherings(k)),
                expected,
                "{state}: top {k}"
            );
        }
    }

    /// Appends, reopens, more appends and a torn-tail reopen of stores
    /// whose segments hold a few records each, so that postings move from
    /// the log to the column many times: in every state every query path
    /// equals a scan, including the history of an object first seen after
    /// the last segment rotation.
    #[test]
    fn object_history_matches_a_scan_across_reopens() {
        for seed in [0x415, 0x416, 0x417] {
            let vfs = Arc::new(FaultVfs::new(seed));
            let dir = Path::new("/history");
            let options = StoreOptions {
                max_segment_bytes: if seed % 2 == 0 { 256 } else { 512 },
                ..StoreOptions::default()
            };
            let open = || PatternStore::open_at(vfs.clone(), dir, options).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut late = 0;
            let mut append = |store: &mut PatternStore, rng: &mut StdRng, n: usize| {
                for _ in 0..n {
                    store.append(record_with_repeats(rng)).unwrap();
                }
                // A rotation this append starts happens before its
                // postings: the late object is always in the log.
                store.append(late_record(rng, late)).unwrap();
                late += 1;
            };
            let mut store = open();
            append(&mut store, &mut rng, 80);
            assert!(
                store
                    .records()
                    .iter()
                    .flat_map(|r| &r.gatherings)
                    .any(|g| g.participators.windows(2).any(|w| w[0] == w[1])),
                "some list must repeat an object"
            );
            assert_queries_match_scans(&store, "appended", &mut rng);
            drop(store);

            let mut store = open();
            assert!(store.segment_count() >= 3, "{}", store.segment_count());
            assert_eq!(store.len(), 81);
            assert_queries_match_scans(&store, "reopened", &mut rng);
            append(&mut store, &mut rng, 40);
            assert_queries_match_scans(&store, "appended after a reopen", &mut rng);
            drop(store);

            let mut store = open();
            assert_eq!(store.len(), 122);
            assert_queries_match_scans(&store, "reopened twice", &mut rng);
            append(&mut store, &mut rng, 10);
            let last = segment_path(dir, store.segment_count());
            drop(store);

            // A torn tail: the last frame loses its checksum's last byte.
            vfs.truncate(&last, vfs.file_len(&last).unwrap() - 1)
                .unwrap();
            let mut store = open();
            assert!(store.tail_repair().is_some());
            assert_eq!(store.len(), 132);
            assert_queries_match_scans(&store, "reopened over a torn tail", &mut rng);
            append(&mut store, &mut rng, 1);
            assert_queries_match_scans(&store, "appended after a repair", &mut rng);
        }
    }

    /// An append that fails at its rotation's group write or fsync posts
    /// nothing, a fold then leaves every answer as it was, and the retry
    /// posts the record once.
    #[test]
    fn a_failed_append_posts_nothing() {
        let vfs = Arc::new(FaultVfs::new(0xFA11));
        let options = StoreOptions {
            max_segment_bytes: 512,
            ..StoreOptions::default()
        };
        let mut store = PatternStore::open_at(vfs.clone(), Path::new("/failed"), options).unwrap();
        let mut rng = StdRng::seed_from_u64(0xFA11);
        let faults = [
            FaultPlan {
                transient_write_one_in: Some(1),
                ..FaultPlan::default()
            },
            FaultPlan {
                transient_sync_one_in: Some(1),
                ..FaultPlan::default()
            },
        ];
        let histories = |store: &PatternStore| -> Vec<Vec<GatheringHit>> {
            (0..=40)
                .map(|raw| store.object_history(ObjectId::new(raw)))
                .collect()
        };
        for round in 0..8 {
            let at = ["group write", "rotation fsync"][round % 2];
            for _ in 0..rng.gen_range(0..6) {
                store.append(record_with_repeats(&mut rng)).unwrap();
            }
            vfs.set_plan(faults[round % 2]);
            let segments = store.segment_count();
            let (record, err) = loop {
                let record = record_with_repeats(&mut rng);
                let len = store.len();
                match store.append(record.clone()) {
                    Ok(_) => assert_eq!(store.segment_count(), segments, "{at}"),
                    Err(err) => {
                        assert_eq!(store.len(), len, "{at}");
                        break (record, err);
                    }
                }
            };
            assert!(err.is_transient(), "{at}: {err}");
            assert_eq!(store.segment_count(), segments, "{at}");
            assert_histories_match_a_scan(&store, at);
            let before = histories(&store);
            store.participation.fold();
            assert_eq!(histories(&store), before, "{at}: a fold moved an answer");

            vfs.clear_faults();
            let id = store.append(record).unwrap();
            assert_eq!(id + 1, store.len());
            assert_eq!(store.segment_count(), segments + 1, "{at}");
            assert_histories_match_a_scan(&store, &format!("{at}, retried"));
        }
        store.sync().unwrap();
        let appended = store.records().to_vec();
        drop(store);
        let store = PatternStore::open_at(vfs, Path::new("/failed"), options).unwrap();
        assert_eq!(store.records(), appended.as_slice());
        assert_histories_match_a_scan(&store, "reopened");
    }

    /// A store that rotates at nearly every append folds only once its log
    /// holds a quarter of the column: each posting is moved amortised O(1)
    /// times, and the column grows geometrically from fold to fold.
    #[test]
    fn folds_move_each_posting_a_bounded_number_of_times() {
        let mut store = mem_store(256);
        let mut rng = StdRng::seed_from_u64(0xF01D);
        let (mut folds, mut moved) = (0, 0);
        for _ in 0..2_000 {
            let column = store.participation.column.len();
            store.append(record_with_repeats(&mut rng)).unwrap();
            if store.participation.column.len() > column {
                folds += 1;
                moved += column;
            }
        }
        let index = &store.participation;
        let postings = index.column.len() + index.log.len();
        assert!(store.segment_count() > 1_000, "{}", store.segment_count());
        assert!(
            moved <= FOLD_SHARE * postings,
            "{moved} moves for {postings} postings"
        );
        let growth = 1.0 + 1.0 / FOLD_SHARE as f64;
        let most = 2 + ((postings as f64).ln() / growth.ln()) as usize;
        assert!((2..=most).contains(&folds), "{folds} folds, at most {most}");
        assert_histories_match_a_scan(&store, "after many rotations");
    }

    #[test]
    fn interval_index_matches_a_scan_inserted_or_built_in_bulk() {
        let mut rng = StdRng::seed_from_u64(0x1D8);
        // Short lifespans in random start order, and a few that outlast the
        // rest by far: a window long after their start must still find them.
        let lifespans: Vec<TimeInterval> = (0..400)
            .map(|i| {
                let start = rng.gen_range(0u32..5_000);
                let len = if i % 97 == 0 {
                    3_000
                } else {
                    rng.gen_range(0u32..40)
                };
                TimeInterval::new(start, start + len)
            })
            .collect();
        let mut inserted = IntervalIndex::default();
        for (id, &lifespan) in lifespans.iter().enumerate() {
            inserted.insert(lifespan, id);
        }
        let built: IntervalIndex = lifespans.iter().copied().zip(0..).collect();
        let mut windows: Vec<TimeInterval> = (0..300)
            .map(|_| {
                let start = rng.gen_range(0u32..9_000);
                TimeInterval::new(start, start + rng.gen_range(0u32..500))
            })
            .collect();
        windows.push(TimeInterval::new(0, 0));
        windows.push(TimeInterval::new(0, u32::MAX));
        for window in windows {
            let expected: Vec<RecordId> = (0..lifespans.len())
                .filter(|&id| {
                    lifespans[id].start <= window.end && lifespans[id].end >= window.start
                })
                .collect();
            assert_eq!(inserted.stab(window), expected, "{window:?}");
            assert_eq!(built.stab(window), expected, "{window:?} (bulk)");
        }
        assert!(IntervalIndex::default()
            .stab(TimeInterval::new(0, 9))
            .is_empty());
    }

    #[test]
    fn top_k_is_the_prefix_of_the_full_sort_under_heavy_ties() {
        let dir = temp_store_dir("topk");
        let mut rng = StdRng::seed_from_u64(0x70b);
        let mut store = PatternStore::open(&dir).unwrap();
        for i in 0..120u32 {
            // Attendance between 1 and 4 only, and up to three gatherings a
            // record: nearly every rank is shared.
            let mut rec = record(i, 6, f64::from(i) * 10.0, &[0]);
            let template = rec.gatherings[0].clone();
            rec.gatherings = (0..rng.gen_range(0usize..4))
                .map(|_| StoredGathering {
                    participators: (0..rng.gen_range(1u32..5)).map(ObjectId::new).collect(),
                    ..template.clone()
                })
                .collect();
            store.append(rec).unwrap();
        }
        let mut ranking: Vec<(usize, RecordId, usize)> = Vec::new();
        for (id, rec) in store.records().iter().enumerate() {
            for (index, g) in rec.gatherings.iter().enumerate() {
                ranking.push((g.participators.len(), id, index));
            }
        }
        ranking.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let n = ranking.len();
        assert!(n > 100);
        for k in [0, 1, 10, n, n + 5, usize::MAX] {
            let hits = store.top_k_gatherings(k);
            let got: Vec<(usize, RecordId, usize)> = hits
                .iter()
                .map(|h| (h.gathering.participators.len(), h.record, h.index))
                .collect();
            assert_eq!(got, ranking[..k.min(n)], "k = {k}");
            for hit in &hits {
                assert_eq!(
                    hit.gathering,
                    store.records()[hit.record].gatherings[hit.index]
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_rejects_records_violating_the_containment_invariant() {
        let dir = temp_store_dir("invariant");
        let mut store = PatternStore::open(&dir).unwrap();

        // Gathering MBR sticking out of the record MBR.
        let mut bad = record(0, 4, 0.0, &[1, 2]);
        bad.gatherings[0].mbr = Mbr::new(-50.0, 0.0, 10.0, 10.0);
        let err = store.append(bad).unwrap_err();
        assert!(matches!(err, StoreError::InvalidRecord(_)), "{err}");
        assert!(!err.is_transient(), "invalid records must not be retried");

        // Gathering lifespan outside the crowd lifespan.
        let mut bad = record(10, 4, 0.0, &[1, 2]);
        bad.gatherings[0].interval = TimeInterval::new(9, 13);
        let err = store.append(bad).unwrap_err();
        assert!(matches!(err, StoreError::InvalidRecord(_)), "{err}");

        // Unsorted participators.
        let mut bad = record(0, 4, 0.0, &[1, 2]);
        bad.gatherings[0].participators = vec![ObjectId::new(5), ObjectId::new(1)];
        let err = store.append(bad).unwrap_err();
        assert!(matches!(err, StoreError::InvalidRecord(_)), "{err}");

        // Nothing was written or indexed, and good appends still work.
        assert!(store.is_empty());
        store.append(record(0, 4, 0.0, &[1, 2])).unwrap();
        assert_eq!(store.len(), 1);
        drop(store);
        assert_eq!(PatternStore::open(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every record replay would refuse is refused by `append` first: a store
    /// that acknowledged it could never be opened again.
    #[test]
    fn append_refuses_exactly_what_replay_refuses() {
        let dir = temp_store_dir("replayable");
        let mut store = PatternStore::open(&dir).unwrap();
        store.append(record(0, 4, 0.0, &[1, 2])).unwrap();
        store.sync().unwrap();

        let inf = Mbr::new(0.0, 0.0, f64::INFINITY, 1.0);
        let nan = Mbr {
            min_x: f64::NAN,
            ..Mbr::new(0.0, 0.0, 1.0, 1.0)
        };
        let inverted = Mbr {
            min_y: 5.0,
            ..Mbr::new(0.0, 0.0, 1.0, 1.0)
        };
        let mut refused: Vec<PatternRecord> = Vec::new();
        for mbr in [inf, nan, inverted] {
            // On the record itself, with no gathering to be contained.
            let mut bad = record(10, 4, 0.0, &[1]);
            bad.mbr = mbr;
            bad.gatherings.clear();
            refused.push(bad);
            // On a gathering inside an everything-covering record MBR.
            let mut bad = record(10, 4, 0.0, &[1]);
            bad.mbr = Mbr::new(-f64::MAX, -f64::MAX, f64::MAX, f64::MAX);
            bad.gatherings[0].mbr = mbr;
            refused.push(bad);
        }
        // A reversed gathering lifespan inside the crowd's.
        let mut bad = record(10, 4, 0.0, &[1]);
        bad.gatherings[0].interval = TimeInterval { start: 12, end: 11 };
        refused.push(bad);

        for bad in refused {
            // Exactly what replay does with the frame: decode, then validate.
            let replayed = decode_from_slice::<PatternRecord>(&encode_to_vec(&bad))
                .map_err(|_| ())
                .and_then(|r| r.validate().map_err(|_| ()));
            assert!(replayed.is_err(), "replay accepts {bad:?}");
            let err = store.append(bad.clone()).unwrap_err();
            assert!(
                matches!(err, StoreError::InvalidRecord(_)),
                "{bad:?}: {err}"
            );
        }
        store.append(record(20, 4, 0.0, &[3])).unwrap();
        store.sync().unwrap();
        drop(store);
        let reopened = PatternStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.tail_repair().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A frame whose checksum holds but whose record breaks containment —
    /// something only a forger writes — is damage, never indexed.
    #[test]
    fn replay_validates_frames_that_decode() {
        let dir = temp_store_dir("forged");
        {
            let mut store = PatternStore::open(&dir).unwrap();
            store.append(record(0, 4, 0.0, &[1, 2])).unwrap();
            store.sync().unwrap();
        }
        let mut forged = record(5, 4, 0.0, &[1]);
        forged.gatherings[0].mbr = Mbr::new(500.0, 0.0, 600.0, 50.0);
        let payload = encode_to_vec(&forged);
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        // Sealed as record 1, the position it is forged into.
        bytes.extend_from_slice(&xxh64(&payload, 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match PatternStore::open(&dir) {
            Err(StoreError::Segment {
                source: DecodeError::Corrupt(why),
                ..
            }) => assert!(why.contains("gathering MBR"), "{why}"),
            other => panic!("expected a corrupt segment, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_record_salvage_is_reported_not_silent() {
        let dir = temp_store_dir("empty-salvage");
        {
            let mut store = PatternStore::open(&dir).unwrap();
            store.append(record(0, 4, 0.0, &[1, 2])).unwrap();
            store.sync().unwrap();
        }
        // Corrupt the single record's frame: replay now salvages nothing
        // from a segment that clearly held data.
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[SEGMENT_HEADER_BYTES as usize + 6] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        match PatternStore::open(&dir) {
            Err(StoreError::EmptySalvage {
                segment,
                dropped_bytes,
            }) => {
                assert_eq!(segment, path);
                assert!(dropped_bytes > 0);
            }
            other => panic!("expected EmptySalvage, got {other:?}"),
        }
        // The refusal is non-destructive: the damaged bytes are still there.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // The escape hatch: callers that know empty is correct may proceed,
        // and the repair is then reported the usual way.
        let salvage = PatternStore::open_with(
            &dir,
            StoreOptions {
                allow_empty_salvage: true,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert!(salvage.is_empty());
        assert!(salvage.tail_repair().is_some());
        drop(salvage);

        // A genuinely empty store (header-only segment) keeps opening
        // silently — EmptySalvage is about dropped bytes, not emptiness.
        let empty_dir = temp_store_dir("empty-clean");
        drop(PatternStore::open(&empty_dir).unwrap());
        let clean = PatternStore::open(&empty_dir).unwrap();
        assert!(clean.is_empty());
        assert!(clean.tail_repair().is_none());
        drop(clean);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty_dir).unwrap();
    }

    #[test]
    fn fault_vfs_backed_store_round_trips_and_repairs() {
        // The exact production store code over the in-memory fault backend:
        // append, rotate, crash with an un-synced tail, reopen, verify the
        // synced prefix survived intact.
        let vfs = Arc::new(FaultVfs::new(0xF00D));
        let dir = PathBuf::from("/store");
        let options = StoreOptions {
            max_segment_bytes: 256,
            ..StoreOptions::default()
        };
        let mut store = PatternStore::open_at(vfs.clone(), &dir, options).unwrap();
        for i in 0..12u32 {
            store.append(record(i, 3, f64::from(i), &[i])).unwrap();
        }
        assert!(store.segment_count() > 1, "rotation must happen");
        store.sync().unwrap();
        let synced = store.len();
        // More appends that are written at drop but never synced, then a
        // crash.
        for i in 12..16u32 {
            store.append(record(i, 3, f64::from(i), &[i])).unwrap();
        }
        drop(store);
        vfs.kill_after(1);
        let _ = vfs.create_dir_all(Path::new("/x"));
        vfs.crash_recover();

        let store = PatternStore::open_at(vfs.clone(), &dir, options).unwrap();
        assert!(store.len() >= synced, "synced records must survive");
        assert!(store.len() <= 16);
        for (i, rec) in store.records().iter().enumerate() {
            assert_eq!(rec.interval().start, i as u32, "prefix must be intact");
        }
    }

    /// The records of the whole frames in a segment's bytes, the first with
    /// id `first`, and whether those frames run exactly to its end.
    fn whole_frames(bytes: &[u8], first: u64) -> (Vec<PatternRecord>, bool) {
        let mut records = Vec::new();
        let mut offset = SEGMENT_HEADER_BYTES as usize;
        while let Ok((record, len)) = parse_frame(&bytes[offset..], first + records.len() as u64) {
            records.push(record);
            offset += len;
        }
        (records, offset == bytes.len())
    }

    #[test]
    fn failed_group_writes_leave_no_torn_frame_and_the_next_sync_retries() {
        let vfs = Arc::new(FaultVfs::new(0x6C0));
        let dir = PathBuf::from("/group");
        let path = segment_path(&dir, 1);
        let mut store = PatternStore::open_at(vfs.clone(), &dir, StoreOptions::default()).unwrap();
        vfs.set_plan(FaultPlan {
            transient_write_one_in: Some(2),
            ..FaultPlan::default()
        });
        // Frames of about 4 KiB: a group fills every 64 appends or so.
        let participators: Vec<u32> = (0..1_000).collect();
        let (mut failed, mut written) = (0, 0);
        for i in 0..400u32 {
            let before = vfs.file_len(&path).unwrap();
            match store.append(record(i, 2, 0.0, &participators)) {
                Ok(_) => {}
                Err(err) => {
                    assert!(err.is_transient(), "{err}");
                    assert_eq!(vfs.file_len(&path).unwrap(), before, "append {i}");
                    failed += 1;
                }
            }
            // The file holds whole frames of acknowledged records only.
            let (on_disk, whole) = whole_frames(&vfs.read_file(&path).unwrap(), 0);
            assert!(whole, "append {i}: a torn frame on disk");
            assert_eq!(on_disk, store.records()[..on_disk.len()], "append {i}");
            written = on_disk.len();
        }
        assert!(
            failed > 0,
            "one-in-two write faults must fail a group write"
        );
        assert!(written > 0, "some group writes must succeed mid-run");
        assert_eq!(store.len(), 400 - failed);
        assert!(written < store.len(), "acknowledged records stay queued");

        // The next barrier retries the queued group until a write succeeds.
        let mut attempts = 0;
        while let Err(err) = store.sync() {
            assert!(err.is_transient(), "{err}");
            attempts += 1;
            assert!(attempts < 64, "sync never succeeded");
        }
        let (on_disk, whole) = whole_frames(&vfs.read_file(&path).unwrap(), 0);
        assert!(whole);
        assert_eq!(on_disk, store.records());

        // A group write that runs out of space part-way is cut back.
        let full = vfs.file_len(&path).unwrap();
        vfs.set_plan(FaultPlan {
            capacity: Some(full as usize + 1_000),
            ..FaultPlan::default()
        });
        let err = (400..500u32)
            .find_map(|i| store.append(record(i, 2, 0.0, &participators)).err())
            .expect("a full group must hit the capacity");
        assert!(!err.is_transient(), "ENOSPC is fatal: {err}");
        assert_eq!(vfs.file_len(&path).unwrap(), full);
        vfs.clear_faults();
        store.sync().unwrap();
        let acknowledged = store.records().to_vec();
        drop(store);
        let reopened = PatternStore::open_at(vfs, &dir, StoreOptions::default()).unwrap();
        assert_eq!(reopened.records(), acknowledged.as_slice());
        assert!(reopened.tail_repair().is_none());
    }

    /// Every segment's bytes, in order.
    fn segments(store: &PatternStore) -> Vec<Vec<u8>> {
        (1..=store.segment_count())
            .map(|i| store.vfs.read_file(&segment_path(&store.dir, i)).unwrap())
            .collect()
    }

    /// A store on a fresh in-memory backend.
    fn mem_store(max_segment_bytes: u64) -> PatternStore {
        let options = StoreOptions {
            max_segment_bytes,
            ..StoreOptions::default()
        };
        PatternStore::open_at(Arc::new(FaultVfs::new(0)), Path::new("/s"), options).unwrap()
    }

    /// How far a spill got, and the name of what stopped it.
    fn outcome(spill: &Spill) -> (usize, &'static str) {
        let stop = match &spill.stop {
            None => "done",
            Some(SpillStop::Behind) => "behind",
            Some(SpillStop::Diverged) => "diverged",
            Some(SpillStop::Unresolvable) => "unresolvable",
            Some(SpillStop::Store(_)) => "store",
        };
        (spill.accounted, stop)
    }

    #[test]
    fn spill_verifies_the_overlap_then_appends_the_rest() {
        let engine = gather_scatter_engine(45, gpdt_core::RetentionPolicy::KeepAll);
        let (records, cdb) = (engine.finalized_records(), engine.cluster_database());
        assert!(records.len() >= 3, "scenario must finalize crowds");
        let mut store = mem_store(8 << 20);
        assert_eq!(outcome(&store.spill(&records[..2], 0, cdb)), (2, "done"));
        // The store is two records ahead of the feed's start: those two are
        // verified, the rest appended, and the barrier writes them out.
        assert_eq!(
            outcome(&store.spill(records, 0, cdb)),
            (records.len(), "done")
        );
        let want: Vec<PatternRecord> = records
            .iter()
            .map(|r| PatternRecord::from_crowd_record(r, cdb))
            .collect();
        assert_eq!(store.records(), want.as_slice());
        let (vfs, options) = (store.vfs(), store.options);
        drop(store);
        let reopened = PatternStore::open_at(vfs, Path::new("/s"), options).unwrap();
        assert_eq!(reopened.records(), want.as_slice());
    }

    #[test]
    fn spill_stops_where_the_store_diverges_or_is_behind_and_leaves_the_file_alone() {
        let engine = gather_scatter_engine(45, gpdt_core::RetentionPolicy::KeepAll);
        let (records, cdb) = (engine.finalized_records(), engine.cluster_database());
        let mut store = mem_store(8 << 20);
        store.append_crowd_record(&records[0], cdb).unwrap();
        store.append_crowd_record(&records[2], cdb).unwrap();
        store.sync().unwrap();
        let before = segments(&store);
        assert_eq!(outcome(&store.spill(records, 0, cdb)), (1, "diverged"));
        // A feed that starts past the store's end would misplace its records.
        assert_eq!(outcome(&store.spill(&records[3..], 3, cdb)), (0, "behind"));
        assert_eq!(store.len(), 2);
        assert_eq!(segments(&store), before);
    }

    #[test]
    fn spill_stops_at_a_record_whose_clusters_were_evicted() {
        // The store spills what closed by tick 15, then lags while the engine
        // runs on and bounded retention evicts the ticks of what it
        // finalized since.
        let early = gather_scatter_engine(15, gpdt_core::RetentionPolicy::KeepAll);
        let mut engine = gather_scatter_engine(45, gpdt_core::RetentionPolicy::Bounded);
        engine.evict_retired_clusters();
        let (spilled, records) = (early.finalized_records().len(), engine.finalized_records());
        assert_eq!(records[..spilled], early.finalized_records()[..]);
        assert!(
            records.len() > spilled + 1,
            "records must close after the lag"
        );
        let mut store = mem_store(8 << 20);
        let spill = store.spill(early.finalized_records(), 0, early.cluster_database());
        assert_eq!(outcome(&spill), (spilled, "done"));
        let spill = store.spill(&records[spilled..], spilled, engine.cluster_database());
        assert_eq!(outcome(&spill), (0, "unresolvable"));
        assert_eq!(store.len(), spilled);
    }

    #[test]
    fn a_spill_cut_by_a_transient_write_resumes_where_it_stopped() {
        let engine = gather_scatter_engine(90, gpdt_core::RetentionPolicy::KeepAll);
        let (records, cdb) = (engine.finalized_records(), engine.cluster_database());
        // Small segments: every few appends rotate, which writes and fsyncs
        // mid-spill.
        let mut want = mem_store(256);
        assert_eq!(
            outcome(&want.spill(records, 0, cdb)),
            (records.len(), "done")
        );
        let vfs = Arc::new(FaultVfs::new(0x5911));
        let mut store = PatternStore::open_at(vfs.clone(), Path::new("/s"), want.options).unwrap();
        vfs.set_plan(FaultPlan {
            transient_write_one_in: Some(3),
            ..FaultPlan::default()
        });
        let spill = store.spill(records, 0, cdb);
        let Some(SpillStop::Store(err)) = &spill.stop else {
            panic!("a one-in-three write fault must cut the spill: {spill:?}");
        };
        assert!(err.is_transient(), "{err}");
        assert!(
            spill.accounted < records.len(),
            "the cut must fall mid-spill"
        );
        assert_eq!(store.len(), spill.accounted);
        // Only whole frames of acknowledged records are on disk.
        let mut on_disk = Vec::new();
        for bytes in segments(&store) {
            let (frames, whole) = whole_frames(&bytes, on_disk.len() as u64);
            assert!(whole, "a torn frame on disk");
            on_disk.extend(frames);
        }
        assert_eq!(on_disk, store.records()[..on_disk.len()]);

        vfs.clear_faults();
        let rest = store.spill(&records[spill.accounted..], spill.accounted, cdb);
        assert_eq!(outcome(&rest), (records.len() - spill.accounted, "done"));
        store.sync().unwrap();
        want.sync().unwrap();
        assert_eq!(store.records(), want.records());
        assert_eq!(segments(&store), segments(&want));
    }

    #[test]
    fn empty_window_and_region_yield_empty_results() {
        let dir = temp_store_dir("empty");
        let mut store = PatternStore::open(&dir).unwrap();
        store.append(record(10, 5, 0.0, &[1, 2, 3])).unwrap();
        // Disjoint in time.
        assert!(store
            .query_gatherings(
                &Mbr::new(-10.0, -10.0, 200.0, 200.0),
                TimeInterval::new(100, 120)
            )
            .is_empty());
        // Disjoint in space.
        assert!(store
            .query_gatherings(
                &Mbr::new(9_000.0, 9_000.0, 9_100.0, 9_100.0),
                TimeInterval::new(0, 50)
            )
            .is_empty());
        assert!(store.object_history(ObjectId::new(99)).is_empty());
        assert!(store.top_k_gatherings(0).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
