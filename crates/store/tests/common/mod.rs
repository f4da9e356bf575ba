//! Shared by the integration tests of this crate.

use gpdt_clustering::ClusterDatabase;
use gpdt_core::GatheringEngine;
use gpdt_store::MonitoredEngine;

/// Panics on the `n`-th ingested batch, once; the wrapper rebuilt from a
/// recovery point is benign.
pub struct PanicOnNth {
    pub inner: GatheringEngine,
    pub panic_at: Option<u64>,
    pub seen: u64,
}

impl MonitoredEngine for PanicOnNth {
    fn engine(&self) -> &GatheringEngine {
        &self.inner
    }
    fn ingest_batch(&mut self, batch: ClusterDatabase) {
        self.seen += 1;
        if self.panic_at == Some(self.seen) {
            self.panic_at = None;
            panic!("injected ingest panic");
        }
        self.inner.ingest_clusters(batch);
    }
    fn rebuilt(&self, engine: GatheringEngine) -> Self {
        PanicOnNth {
            inner: engine,
            panic_at: None,
            seen: self.seen,
        }
    }
}
