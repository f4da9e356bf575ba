//! The flight recorder: a bounded in-memory ring of structured supervision
//! events (retries, backoffs, worker panics, degraded transitions, shard
//! rebuilds, tail repairs, injected faults), dumpable to JSON so a crash
//! leaves a post-mortem artifact instead of a bare exit code.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::registry::json_string;

/// Default ring capacity: enough for the whole crash lattice without ever
/// growing, small enough to be free to keep around.
const DEFAULT_CAPACITY: usize = 1024;

/// One recorded supervision event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number, never reused even after the ring wraps —
    /// a gap between consecutive dumped events means the ring dropped some.
    pub seq: u64,
    /// Engine tick the event refers to, when one is in scope.
    pub tick: Option<u32>,
    /// Stable event kind, e.g. `"service.retry"` or `"shard.rebuild"`.
    pub kind: &'static str,
    /// Free-form human-readable context.
    pub detail: String,
}

impl FlightEvent {
    fn to_json(&self) -> String {
        let mut out = format!("{{\"seq\":{},\"tick\":", self.seq);
        match self.tick {
            Some(t) => out.push_str(&t.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"kind\":");
        out.push_str(&json_string(self.kind));
        out.push_str(",\"detail\":");
        out.push_str(&json_string(&self.detail));
        out.push('}');
        out
    }
}

struct Ring {
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

/// A bounded ring buffer of [`FlightEvent`]s.  See the [crate docs](crate).
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` most-recent events.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring {
                next_seq: 0,
                events: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        // Poisoning cannot leave the ring in a broken state (every mutation
        // is a single push/pop), so keep recording through it.
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends an event, evicting the oldest once the ring is full.
    /// A no-op while observability is [off](crate::enabled).
    pub fn record(&self, kind: &'static str, tick: Option<u32>, detail: impl Into<String>) {
        if !crate::enabled() {
            return;
        }
        let mut ring = self.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(FlightEvent {
            seq,
            tick,
            kind,
            detail: detail.into(),
        });
    }

    /// Total events ever recorded (including ones the ring has dropped).
    pub fn recorded(&self) -> u64 {
        self.lock().next_seq
    }

    /// Events the ring has evicted to stay within capacity — nonzero means
    /// the dump is a suffix of the real history, not all of it.
    pub fn dropped(&self) -> u64 {
        let ring = self.lock();
        ring.next_seq - ring.events.len() as u64
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Serialises the retained events as
    /// `{"recorded":N,"dropped":N,"events":[{"seq":..,"tick":..,"kind":..,
    /// "detail":..},..]}` — `dropped` counts ring evictions, so saturation
    /// is visible in the dump instead of silent.
    pub fn to_json(&self) -> String {
        let ring = self.lock();
        let mut out = format!(
            "{{\"recorded\":{},\"dropped\":{},\"events\":[",
            ring.next_seq,
            ring.next_seq - ring.events.len() as u64
        );
        for (i, event) in ring.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Writes the JSON dump to `path` (atomically enough for a post-mortem:
    /// single create + write + flush).
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.flush()
    }

    /// Writes the JSON dump to [`crate::dump_path`], reporting failures to
    /// stderr instead of propagating them — dump sites are always on error
    /// paths already.
    pub fn dump(&self) {
        let path = crate::dump_path();
        if let Err(e) = self.dump_to(&path) {
            eprintln!(
                "gpdt-obs: flight-recorder dump to {} failed: {e}",
                path.display()
            );
        }
    }
}

/// The global flight recorder, holding the last 1024 events.
pub fn flight() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(FlightRecorder::default)
}

/// Records into the [global recorder](flight) — the one-line call sites use.
pub fn record_event(kind: &'static str, tick: Option<u32>, detail: impl Into<String>) {
    flight().record(kind, tick, detail);
}

/// Installs a process panic hook (once; later calls are no-ops) that dumps
/// the global flight recorder to [`crate::dump_path`] before the default
/// hook runs, so a crashed run leaves its event trail on disk.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if crate::enabled() {
            record_event("panic", None, info.to_string());
            flight().dump();
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5u32 {
            rec.record("test.event", Some(i), format!("event {i}"));
        }
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 2);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2, "oldest two evicted");
        assert_eq!(events[2].seq, 4);
        assert_eq!(events[2].tick, Some(4));
        assert_eq!(events[2].detail, "event 4");
    }

    #[test]
    fn json_dump_round_trips_shape_and_escaping() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record("service.retry", Some(7), "attempt 1 of 3, \"transient\"");
        rec.record("service.degraded.enter", None, "line1\nline2");
        let json = rec.to_json();
        assert_eq!(
            json,
            "{\"recorded\":2,\"dropped\":0,\"events\":[\
             {\"seq\":0,\"tick\":7,\"kind\":\"service.retry\",\
             \"detail\":\"attempt 1 of 3, \\\"transient\\\"\"},\
             {\"seq\":1,\"tick\":null,\"kind\":\"service.degraded.enter\",\
             \"detail\":\"line1\\nline2\"}]}"
        );
    }

    #[test]
    fn dump_to_writes_the_json_file() {
        let dir = std::env::temp_dir().join("gpdt-obs-recorder-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.json");
        let rec = FlightRecorder::with_capacity(4);
        rec.record("tail.repair", Some(3), "truncated 12 bytes");
        rec.dump_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"kind\":\"tail.repair\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_respects_the_gate() {
        let _guard = crate::gate_test_lock();
        let rec = FlightRecorder::with_capacity(4);
        crate::set_enabled(false);
        rec.record("test.gated", None, "dropped");
        assert_eq!(rec.recorded(), 0);
        crate::set_enabled(true);
        rec.record("test.gated", None, "kept");
        assert_eq!(rec.recorded(), 1);
    }
}
