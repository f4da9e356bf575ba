//! A counting storage backend for traced runs.
//!
//! Wraps [`RealVfs`] behind the public [`Vfs`]/[`VfsFile`] traits and counts
//! and times every write and fsync that reaches the file layer.  With one
//! client and no timers the counts repeat exactly, so a change to how the
//! store batches its writes is visible on a noisy box.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpdt_store::{RealVfs, Vfs, VfsFile};

/// Totals since construction.  Relaxed ordering: these are statistics read
/// after the writers have finished.
#[derive(Debug, Default)]
pub struct VfsCounts {
    pub writes: AtomicU64,
    pub bytes_written: AtomicU64,
    pub fsyncs: AtomicU64,
    pub write_ns: AtomicU64,
    pub fsync_ns: AtomicU64,
}

/// A copy of [`VfsCounts`] at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsTotals {
    pub writes: u64,
    pub bytes_written: u64,
    pub fsyncs: u64,
    pub write_ns: u64,
    pub fsync_ns: u64,
}

impl VfsTotals {
    pub fn since(&self, earlier: &VfsTotals) -> VfsTotals {
        VfsTotals {
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
            write_ns: self.write_ns - earlier.write_ns,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
        }
    }
}

#[derive(Debug, Default)]
pub struct CountingVfs {
    inner: RealVfs,
    counts: Arc<VfsCounts>,
}

impl CountingVfs {
    pub fn new() -> Self {
        CountingVfs::default()
    }

    pub fn totals(&self) -> VfsTotals {
        let c = &self.counts;
        VfsTotals {
            writes: c.writes.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            write_ns: c.write_ns.load(Ordering::Relaxed),
            fsync_ns: c.fsync_ns.load(Ordering::Relaxed),
        }
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            counts: Arc::clone(&self.counts),
        })
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<VfsCounts>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let written = self.inner.write(buf)?;
        let nanos = start.elapsed().as_nanos() as u64;
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes_written
            .fetch_add(written as u64, Ordering::Relaxed);
        self.counts.write_ns.fetch_add(nanos, Ordering::Relaxed);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        self.inner.sync()?;
        let nanos = start.elapsed().as_nanos() as u64;
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.counts.fsync_ns.fetch_add(nanos, Ordering::Relaxed);
        Ok(())
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(self.inner.create_new(path)?))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(self.inner.open_append(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::synthetic_records;
    use gpdt_store::{encode_to_vec, PatternStore, StoreOptions};

    #[test]
    fn counts_every_byte_of_a_three_record_store() {
        let dir = crate::scratch_root().join(format!("vfs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = Arc::new(CountingVfs::new());
        let records = synthetic_records(3, 11);
        let payload: u64 = records
            .iter()
            .map(|r| encode_to_vec(r).len() as u64 + 12) // u32 length + u64 checksum
            .sum();
        let mut store =
            PatternStore::open_at(vfs.clone(), &dir, StoreOptions::default()).expect("open");
        for record in records {
            store.append(record).expect("append");
        }
        store.sync().expect("sync");
        drop(store);

        let totals = vfs.totals();
        let on_disk: u64 = std::fs::read_dir(&dir)
            .expect("store dir")
            .map(|e| e.expect("entry").metadata().expect("metadata").len())
            .sum();
        assert_eq!(
            totals.bytes_written, on_disk,
            "every byte on disk was counted"
        );
        // Segment header (8-byte magic + u16 version) plus the three frames.
        assert_eq!(totals.bytes_written, 10 + payload);
        assert!(totals.writes >= 3);
        assert!(totals.fsyncs >= 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
