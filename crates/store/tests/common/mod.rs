//! Shared by the integration tests of this crate.

use gpdt_clustering::ClusterDatabase;
use gpdt_core::CrowdRecord;
use gpdt_store::{EngineLoad, MonitoredEngine};

/// Panics on the `n`-th ingested batch, once; the wrapper rebuilt from a
/// recovery point is benign.
pub struct PanicOnNth<E> {
    pub inner: E,
    pub panic_at: Option<u64>,
    pub seen: u64,
}

impl<E: MonitoredEngine> MonitoredEngine for PanicOnNth<E> {
    type OpenState = E::OpenState;

    fn ingest_batch(&mut self, batch: ClusterDatabase) {
        self.seen += 1;
        if self.panic_at == Some(self.seen) {
            self.panic_at = None;
            panic!("injected ingest panic");
        }
        self.inner.ingest_batch(batch);
    }
    fn finalized_feed(&self) -> &[CrowdRecord] {
        self.inner.finalized_feed()
    }
    fn resolve_database(&self) -> &ClusterDatabase {
        self.inner.resolve_database()
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        self.inner.checkpoint_into(out);
    }
    fn note_open_state(&self, open: &mut E::OpenState) {
        self.inner.note_open_state(open);
    }
    fn reassemble(
        &self,
        history: ClusterDatabase,
        finalized: Vec<CrowdRecord>,
        open: &E::OpenState,
    ) -> Self {
        PanicOnNth {
            inner: self.inner.reassemble(history, finalized, open),
            panic_at: None,
            seen: self.seen,
        }
    }
    fn load(&self) -> EngineLoad {
        self.inner.load()
    }
}
