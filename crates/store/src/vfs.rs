//! Pluggable storage backend: a minimal virtual filesystem trait with a
//! real-filesystem implementation and a deterministic fault-injecting
//! in-memory implementation.
//!
//! Everything [`crate::PatternStore`] and the checkpoint helpers touch on
//! disk goes through a [`Vfs`], so the exact same store code can run against
//! the real filesystem ([`RealVfs`]) or against a seeded [`FaultVfs`] that
//! injects short writes, torn frames at byte granularity, fsync failures,
//! `ENOSPC`, and whole-process crash points (dropping everything that was
//! never fsynced).  Fault schedules are pure functions of the seed and the
//! operation count, so every failure a test finds is replayable.
//!
//! The surface is intentionally tiny — append-oriented, no random-access
//! writes — because that is all an append-only segment log and
//! atomic-rename checkpoint files need.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A writable file handle produced by a [`Vfs`].
///
/// Handles are append-only: bytes go at the end of the file, and [`sync`]
/// makes everything written so far durable (survive a [`FaultVfs`] crash).
///
/// [`sync`]: VfsFile::sync
pub trait VfsFile: Write + Send + Sync + fmt::Debug {
    /// Flushes and makes all bytes written so far durable.
    fn sync(&mut self) -> io::Result<()>;
}

/// The storage backend the pattern store and checkpoint I/O run against.
///
/// Paths are interpreted by the backend: [`RealVfs`] hands them to the OS,
/// [`FaultVfs`] keys an in-memory map with them.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Lists the *file names* (not full paths) of regular files in `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Reads a whole file.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The current length of the file at `path`.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Truncates the file at `path` to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Creates a new file, failing if it already exists.
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for appending (creating it if missing).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file; missing files are an error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The real filesystem: every method maps directly onto `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

#[derive(Debug)]
struct RealFile(std::fs::File);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.0.write(buf)?;
        record_write(written);
        Ok(written)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for RealFile {
    fn sync(&mut self) -> io::Result<()> {
        if gpdt_obs::enabled() {
            let (result, nanos) = gpdt_obs::time_nanos(|| self.0.sync_all());
            result?;
            record_sync(nanos);
        } else {
            self.0.sync_all()?;
        }
        Ok(())
    }
}

/// Registry taps shared by every [`Vfs`] implementation: each successful
/// write/sync bumps process-wide `vfs.*` counters.  Only completed operations
/// count, so the numbers mean "data that actually reached the file layer".
fn record_write(bytes: usize) {
    if gpdt_obs::enabled() {
        gpdt_obs::counter!("vfs.write").inc();
        gpdt_obs::counter!("vfs.bytes_written").add(bytes as u64);
    }
}

fn record_sync(nanos: u64) {
    if gpdt_obs::enabled() {
        gpdt_obs::counter!("vfs.fsync").inc();
        // The latency histogram behind the watchdog's fsync-p99 rule.  The
        // timing happens outside the fault plan, so it never perturbs the
        // RNG draw sequence.
        gpdt_obs::histogram!("vfs.fsync.nanos").record(nanos);
    }
}

/// One injected fault fired: bumps the aggregate `vfs.fault.injected`
/// counter, a per-kind counter, and journals the kind to the flight
/// recorder.  Never touches the fault plan's RNG, so instrumented and
/// uninstrumented runs see identical fault schedules.
fn record_fault(kind: &'static str) {
    if gpdt_obs::enabled() {
        gpdt_obs::counter!("vfs.fault.injected").inc();
        gpdt_obs::registry().counter(kind).inc();
        gpdt_obs::record_event(kind, None, "injected by FaultVfs plan");
    }
}

impl Vfs for RealVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Append mode, as the trait promises: after a truncation the next
        // write lands at the new end, not at the old offset past it.
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// What faults a [`FaultVfs`] injects, beyond the explicit kill point.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Kill the backend at exactly this mutating-operation count.
    pub kill_at: Option<u64>,
    /// After a [`FaultVfs::crash_recover`], re-arm the kill this many
    /// mutating operations later (a repeating crash schedule).
    pub kill_every: Option<u64>,
    /// Fail roughly one in N writes with a transient
    /// [`io::ErrorKind::TimedOut`] error that leaves the file untouched
    /// (`Interrupted` would be swallowed by std's `write_all` retry loop).
    pub transient_write_one_in: Option<u64>,
    /// Fail roughly one in N syncs with a transient error; the data stays
    /// written but not durable.
    pub transient_sync_one_in: Option<u64>,
    /// Total byte capacity across all files; writes that would exceed it
    /// fail with `ENOSPC`.
    pub capacity: Option<usize>,
}

/// One in-memory file: the volatile contents plus how much of it has been
/// made durable by an fsync.
#[derive(Debug, Default, Clone)]
struct MemFile {
    data: Vec<u8>,
    durable_len: usize,
}

#[derive(Debug)]
struct FaultState {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: BTreeSet<PathBuf>,
    plan: FaultPlan,
    rng: u64,
    /// Count of mutating operations performed so far.
    ops: u64,
    killed: bool,
}

impl FaultState {
    fn next_rand(&mut self) -> u64 {
        // xorshift64: deterministic, seed-stable across platforms.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn dead(&self) -> io::Result<()> {
        if self.killed {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "storage backend crashed (injected kill point)",
            ));
        }
        Ok(())
    }

    /// Counts one mutating operation; returns an error exactly at the
    /// planned kill point (marking the backend dead).
    fn mutate(&mut self) -> io::Result<()> {
        self.dead()?;
        self.ops += 1;
        if self.plan.kill_at == Some(self.ops) {
            self.killed = true;
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "storage backend crashed (injected kill point)",
            ));
        }
        Ok(())
    }

    fn total_bytes(&self) -> usize {
        self.files.values().map(|f| f.data.len()).sum()
    }
}

/// A deterministic fault-injecting in-memory filesystem.
///
/// Cloning shares the underlying state, so the store, the checkpoint writer
/// and the test driver all observe the same files and the same fault
/// schedule.
///
/// The durability model is that of a journalling filesystem with cheap
/// metadata commits: file creation, rename and removal take effect
/// immediately, while file *contents* beyond the last [`VfsFile::sync`] are
/// volatile.  A crash (the planned kill point) makes every subsequent
/// operation fail; [`crash_recover`] then simulates the reboot — each file
/// keeps its durable prefix plus a seeded-random slice of the un-synced
/// tail, which is exactly how torn frames at byte granularity arise.
///
/// [`crash_recover`]: FaultVfs::crash_recover
#[derive(Debug, Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// A fault VFS with the given seed and no faults planned.
    pub fn new(seed: u64) -> Self {
        Self::with_plan(seed, FaultPlan::default())
    }

    /// A fault VFS with an explicit fault plan.
    pub fn with_plan(seed: u64, plan: FaultPlan) -> Self {
        FaultVfs {
            state: Arc::new(Mutex::new(FaultState {
                files: BTreeMap::new(),
                dirs: BTreeSet::new(),
                plan,
                // A zero seed would pin xorshift at zero forever.
                rng: seed | 1,
                ops: 0,
                killed: false,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault vfs state poisoned")
    }

    /// Mutating operations performed so far (used to size kill-point sweeps).
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Whether the planned kill point has fired.
    pub fn killed(&self) -> bool {
        self.lock().killed
    }

    /// Arms (or re-arms) a kill at `ops() + n` mutating operations.
    pub fn kill_after(&self, n: u64) {
        let mut s = self.lock();
        s.plan.kill_at = Some(s.ops + n);
    }

    /// Simulates the post-crash reboot: every file keeps its durable prefix
    /// plus a seeded-random number of bytes from the un-synced tail (torn
    /// writes at byte granularity), everything surviving becomes durable,
    /// and the backend comes back to life.
    ///
    /// If the plan sets `kill_every`, the next kill is re-armed that many
    /// operations out.
    pub fn crash_recover(&self) {
        let mut s = self.lock();
        let FaultState { files, rng, .. } = &mut *s;
        for file in files.values_mut() {
            let tail = file.data.len() - file.durable_len;
            if tail > 0 {
                // Keep 0..=tail bytes of the volatile suffix.
                let mut x = *rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *rng = x;
                let keep = (x as usize) % (tail + 1);
                file.data.truncate(file.durable_len + keep);
            }
            file.durable_len = file.data.len();
        }
        s.killed = false;
        s.plan.kill_at = s.plan.kill_every.map(|n| s.ops + n.max(1));
        if gpdt_obs::enabled() {
            gpdt_obs::record_event(
                "vfs.crash_recover",
                None,
                format!("rebooted after {} mutating ops", s.ops),
            );
        }
    }

    /// Drops every planned fault (the backend becomes reliable), without
    /// touching file contents.
    pub fn clear_faults(&self) {
        let mut s = self.lock();
        s.plan = FaultPlan::default();
        s.killed = false;
    }

    /// Replaces the fault plan mid-flight (file contents untouched), so a
    /// test can let a store open healthily and then turn the weather bad.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.lock().plan = plan;
    }
}

/// A write handle into a [`FaultVfs`] file.
#[derive(Debug)]
struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut s = self.state.lock().expect("fault vfs state poisoned");
        s.dead()?;
        // Transient failure: nothing written, safe to retry.
        if let Some(n) = s.plan.transient_write_one_in {
            if n > 0 && s.next_rand().is_multiple_of(n) {
                record_fault("vfs.fault.transient_write");
                // `TimedOut` rather than `Interrupted`: std's `write_all`
                // and `BufWriter` auto-retry `Interrupted`, which would hide
                // the fault from the caller entirely.
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "transient write failure (injected)",
                ));
            }
        }
        // ENOSPC: partial progress up to the capacity, then a hard error.
        let mut len = buf.len();
        if let Some(cap) = s.plan.capacity {
            let used = s.total_bytes();
            let room = cap.saturating_sub(used);
            if room == 0 {
                record_fault("vfs.fault.enospc");
                return Err(io::Error::from_raw_os_error(28)); // ENOSPC
            }
            len = len.min(room);
        }
        if let Err(e) = s.mutate() {
            record_fault("vfs.fault.kill");
            // The kill point tears this very write: a seeded prefix lands in
            // the volatile file contents even though the caller sees an
            // error.  (Without this, kills could only land on frame
            // boundaries and torn-tail repair would go untested.)
            let keep = (s.next_rand() as usize) % (buf.len() + 1);
            if keep > 0 {
                s.files
                    .entry(self.path.clone())
                    .or_default()
                    .data
                    .extend_from_slice(&buf[..keep]);
            }
            return Err(e);
        }
        let file = s.files.entry(self.path.clone()).or_default();
        file.data.extend_from_slice(&buf[..len]);
        record_write(len);
        Ok(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.state.lock().expect("fault vfs state poisoned").dead()
    }
}

impl VfsFile for FaultFile {
    fn sync(&mut self) -> io::Result<()> {
        let start = gpdt_obs::enabled().then(std::time::Instant::now);
        let mut s = self.state.lock().expect("fault vfs state poisoned");
        if let Some(n) = s.plan.transient_sync_one_in {
            if n > 0 && s.next_rand().is_multiple_of(n) {
                record_fault("vfs.fault.transient_sync");
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "transient fsync failure (injected)",
                ));
            }
        }
        s.mutate()?;
        if let Some(file) = s.files.get_mut(&self.path) {
            file.durable_len = file.data.len();
        }
        record_sync(start.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0));
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.mutate()?;
        s.dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let s = self.lock();
        s.dead()?;
        if !s.dirs.contains(dir) && !s.files.keys().any(|p| p.parent() == Some(dir)) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such directory"));
        }
        Ok(s.files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name())
            .filter_map(|n| n.to_str().map(str::to_owned))
            .collect())
    }

    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.lock();
        s.dead()?;
        s.files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let s = self.lock();
        s.dead()?;
        s.files
            .get(path)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.lock();
        s.mutate()?;
        let file = s
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        file.data.truncate(len as usize);
        file.durable_len = file.durable_len.min(file.data.len());
        Ok(())
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.lock();
        s.mutate()?;
        if s.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "file already exists",
            ));
        }
        s.files.insert(path.to_path_buf(), MemFile::default());
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.lock();
        s.dead()?;
        s.files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.mutate()?;
        let file = s
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        s.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.mutate()?;
        s.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().files.contains_key(path)
    }
}

/// Atomically replaces the file at `path` with `bytes`: write to a
/// temporary sibling, sync, then rename over the target.
///
/// A crash at any point leaves either the old contents or the new contents
/// at `path`, never a torn mix — the property the checkpoint files rely on.
pub fn write_file_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    if vfs.exists(&tmp) {
        vfs.remove_file(&tmp)?;
    }
    let mut file = vfs.create_new(&tmp)?;
    file.write_all(bytes)?;
    file.flush()?;
    file.sync()?;
    drop(file);
    vfs.rename(&tmp, path)
}

/// Reads a whole file, mapping "not found" to `None` and every other error
/// through.
pub fn read_file_opt(vfs: &dyn Vfs, path: &Path) -> io::Result<Option<Vec<u8>>> {
    match vfs.read_file(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_vfs_round_trips_files() {
        let dir = std::env::temp_dir().join(format!("gpdt-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = RealVfs;
        vfs.create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        let mut f = vfs.create_new(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read_file(&path).unwrap(), b"hello");
        assert_eq!(vfs.file_len(&path).unwrap(), 5);
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(b" world").unwrap();
        f.flush().unwrap();
        drop(f);
        assert_eq!(vfs.read_file(&path).unwrap(), b"hello world");
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.read_file(&path).unwrap(), b"hello");
        assert_eq!(vfs.list_dir(&dir).unwrap(), vec!["a.bin".to_string()]);
        let moved = dir.join("b.bin");
        vfs.rename(&path, &moved).unwrap();
        assert!(!vfs.exists(&path));
        assert!(vfs.exists(&moved));
        vfs.remove_file(&moved).unwrap();
        assert!(vfs.list_dir(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_vfs_mirrors_the_real_semantics_when_healthy() {
        let vfs = FaultVfs::new(7);
        let dir = Path::new("/store");
        vfs.create_dir_all(dir).unwrap();
        let path = dir.join("a.bin");
        let mut f = vfs.create_new(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(
            vfs.create_new(&path).is_err(),
            "create_new must not clobber"
        );
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(b" world").unwrap();
        drop(f);
        assert_eq!(vfs.read_file(&path).unwrap(), b"hello world");
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.file_len(&path).unwrap(), 5);
        assert_eq!(vfs.list_dir(dir).unwrap(), vec!["a.bin".to_string()]);
        assert!(vfs.list_dir(Path::new("/missing")).is_err());
    }

    #[test]
    fn crash_drops_unsynced_bytes_but_never_durable_ones() {
        let vfs = FaultVfs::new(42);
        let path = Path::new("/store/a.bin");
        vfs.create_dir_all(Path::new("/store")).unwrap();
        let mut f = vfs.create_new(path).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        f.write_all(b" volatile tail").unwrap();
        drop(f);
        // Arm a kill at the next mutating operation.
        vfs.kill_after(1);
        let mut f = vfs.open_append(path).unwrap();
        assert!(f.write_all(b"x").is_err(), "the armed kill must fire");
        assert!(vfs.killed());
        assert!(vfs.read_file(path).is_err(), "dead backends fail reads too");
        vfs.crash_recover();
        let data = vfs.read_file(path).unwrap();
        assert!(data.starts_with(b"durable"), "durable prefix must survive");
        assert!(
            data.len() <= b"durable volatile tailx".len(),
            "recovery never invents bytes"
        );
    }

    #[test]
    fn torn_tails_vary_with_the_seed() {
        let lens: Vec<usize> = (0..16)
            .map(|seed| {
                let vfs = FaultVfs::new(seed);
                let path = Path::new("/f");
                let mut f = vfs.create_new(path).unwrap();
                f.write_all(b"synced").unwrap();
                f.sync().unwrap();
                f.write_all(&[0xAB; 64]).unwrap();
                drop(f);
                vfs.kill_after(1);
                let _ = vfs.remove_file(Path::new("/nonexistent"));
                vfs.crash_recover();
                vfs.file_len(path).unwrap() as usize
            })
            .collect();
        assert!(lens.iter().all(|&l| (6..=70).contains(&l)));
        assert!(
            lens.iter().collect::<std::collections::BTreeSet<_>>().len() > 1,
            "different seeds must tear at different points: {lens:?}"
        );
    }

    #[test]
    fn capacity_produces_enospc() {
        let vfs = FaultVfs::with_plan(
            3,
            FaultPlan {
                capacity: Some(8),
                ..FaultPlan::default()
            },
        );
        let path = Path::new("/f");
        let mut f = vfs.create_new(path).unwrap();
        let err = f.write_all(&[0u8; 64]).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "must surface ENOSPC");
        assert_eq!(vfs.file_len(path).unwrap(), 8, "partial progress to cap");
    }

    #[test]
    fn transient_faults_are_timeouts_and_side_effect_free() {
        let vfs = FaultVfs::with_plan(
            9,
            FaultPlan {
                transient_write_one_in: Some(2),
                ..FaultPlan::default()
            },
        );
        let path = Path::new("/f");
        let mut f = vfs.create_new(path).unwrap();
        let mut failures = 0;
        let mut written = 0u64;
        for _ in 0..64 {
            match f.write(b"abcd") {
                Ok(n) => written += n as u64,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::TimedOut);
                    failures += 1;
                }
            }
        }
        assert!(failures > 0, "a one-in-2 plan must fail sometimes");
        assert_eq!(vfs.file_len(path).unwrap(), written);
    }

    #[test]
    fn atomic_write_is_old_or_new_across_crashes() {
        for kill in 1..8u64 {
            let vfs = FaultVfs::new(1000 + kill);
            let path = Path::new("/ckpt");
            write_file_atomic(&vfs, path, b"old-contents").unwrap();
            vfs.kill_after(kill);
            let _ = write_file_atomic(&vfs, path, b"new-contents!");
            vfs.crash_recover();
            let got = read_file_opt(&vfs, path).unwrap().unwrap_or_default();
            assert!(
                got == b"old-contents" || got == b"new-contents!",
                "kill {kill}: checkpoint file torn: {got:?}"
            );
        }
    }

    #[test]
    fn fault_schedules_are_deterministic() {
        let run = || {
            let vfs = FaultVfs::new(77);
            let path = Path::new("/f");
            let mut f = vfs.create_new(path).unwrap();
            f.write_all(b"synced").unwrap();
            f.sync().unwrap();
            f.write_all(&[7; 100]).unwrap();
            drop(f);
            vfs.kill_after(1);
            let _ = vfs.create_dir_all(Path::new("/d"));
            vfs.crash_recover();
            vfs.read_file(path).unwrap()
        };
        assert_eq!(run(), run());
    }
}
