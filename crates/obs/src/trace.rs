//! Chrome-trace span capture: when `GPDT_TRACE=<path>` is set, every
//! [`span!`](crate::span) records a complete event (`"ph":"X"`) into a
//! bounded per-thread buffer, and [`dump_if_enabled`] writes the whole
//! capture as trace-event-format JSON loadable in `chrome://tracing` or
//! Perfetto — a real timeline of dbscan→sweep→gathering→merge per tick.
//!
//! Capture piggybacks on the span guards, so it only sees what the
//! histogram layer sees and costs nothing when off (spans check one relaxed
//! atomic load before touching a buffer).  Buffers are bounded per thread;
//! overflow increments a drop count surfaced in the dump's `otherData`, so
//! saturation is visible instead of silent.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::registry::json_string;

/// Per-thread event bound: ~64Ki complete events (~1.5MB) before dropping.
const PER_THREAD_CAP: usize = 1 << 16;

/// One complete ("X") trace event, timestamped against the process epoch.
#[derive(Debug, Clone)]
struct TraceEvent {
    name: &'static str,
    ts_nanos: u64,
    dur_nanos: u64,
}

struct ThreadBuf {
    tid: u32,
    thread_name: String,
    events: Vec<TraceEvent>,
    dropped: u64,
}

fn buffers() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<Mutex<ThreadBuf>>> =
        const { std::cell::OnceCell::new() };
}

/// Capture gate: 0 = unresolved, 1 = off, 2 = on.
static TRACE_GATE: AtomicU8 = AtomicU8::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Whether span capture is on — resolved once from `GPDT_TRACE` (set and
/// non-empty means on) and cached, so the steady-state cost on every span
/// drop is one relaxed atomic load.
fn capture_enabled() -> bool {
    match TRACE_GATE.load(Ordering::Relaxed) {
        0 => {
            let on = trace_path().is_some();
            TRACE_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        state => state == 2,
    }
}

/// Overrides the `GPDT_TRACE` capture gate for this process.
#[cfg(test)]
fn set_capture_for_tests(on: bool) {
    TRACE_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The trace output path from `GPDT_TRACE`, if set and non-empty.
fn trace_path() -> Option<PathBuf> {
    match std::env::var_os("GPDT_TRACE") {
        Some(v) if !v.is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// The process epoch all trace timestamps are measured from.  Initialised on
/// first use; [`crate::now_nanos`] shares it, so sampler windows and trace
/// events live on the same clock.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Records one completed span into this thread's buffer.  Called from
/// [`Span::drop`](crate::Span); a no-op unless capture is on.
pub(crate) fn record_span(name: &'static str, start: Instant, dur_nanos: u64) {
    if !capture_enabled() {
        return;
    }
    let ts_nanos = start.saturating_duration_since(epoch()).as_nanos() as u64;
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                thread_name: std::thread::current()
                    .name()
                    .unwrap_or("worker")
                    .to_string(),
                events: Vec::new(),
                dropped: 0,
            }));
            lock(buffers()).push(Arc::clone(&buf));
            buf
        });
        let mut buf = lock(buf);
        if buf.events.len() < PER_THREAD_CAP {
            buf.events.push(TraceEvent {
                name,
                ts_nanos,
                dur_nanos,
            });
        } else {
            buf.dropped += 1;
        }
    });
}

/// Total events captured so far across all threads (tests, progress lines).
fn captured_events() -> u64 {
    lock(buffers())
        .iter()
        .map(|b| lock(b).events.len() as u64)
        .sum()
}

/// Serialises every thread's capture as Chrome trace-event-format JSON:
/// thread-name metadata events plus one `"ph":"X"` complete event per span,
/// `ts`/`dur` in microseconds.
pub fn to_json() -> String {
    let buffers = lock(buffers());
    let mut dropped = 0u64;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for buf in buffers.iter() {
        let buf = lock(buf);
        dropped += buf.dropped;
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            buf.tid,
            json_string(&buf.thread_name)
        ));
        for event in &buf.events {
            out.push_str(&format!(
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                buf.tid,
                json_string(event.name),
                event.ts_nanos as f64 / 1_000.0,
                event.dur_nanos as f64 / 1_000.0,
            ));
        }
    }
    out.push_str(&format!(
        "],\"otherData\":{{\"dropped_events\":\"{dropped}\"}}}}"
    ));
    out
}

/// Writes the capture to `path`.
pub fn dump_to(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_json())
}

/// Writes the capture to the `GPDT_TRACE` path if tracing is on, reporting
/// the destination (or a failure) on stderr.  The fig bins call this once at
/// exit through the report writer, so every bench run with `GPDT_TRACE` set
/// leaves a timeline behind.
pub fn dump_if_enabled() {
    let Some(path) = trace_path() else { return };
    match dump_to(&path) {
        Ok(()) => eprintln!(
            "gpdt-obs: wrote {} trace events to {}",
            captured_events(),
            path.display()
        ),
        Err(e) => eprintln!("gpdt-obs: trace dump to {} failed: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Capture state is process-global, so one test exercises the whole
    // surface to avoid cross-test interference under the parallel harness.
    #[test]
    fn capture_records_spans_and_dumps_valid_trace_json() {
        let _guard = crate::gate_test_lock();
        crate::set_enabled(true);
        set_capture_for_tests(true);
        {
            let _span = crate::span!("trace.stage.a");
            std::hint::black_box(3u64);
        }
        std::thread::Builder::new()
            .name("trace-worker".into())
            .spawn(|| {
                let _span = crate::span!("trace.stage.b");
            })
            .unwrap()
            .join()
            .unwrap();
        set_capture_for_tests(false);

        let before = captured_events();
        assert!(before >= 2, "both spans captured (got {before})");
        {
            let _span = crate::span!("trace.stage.gated");
        }
        assert_eq!(captured_events(), before, "capture off records nothing");

        let json = to_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"trace.stage.a\""));
        assert!(json.contains("\"name\":\"trace.stage.b\""));
        assert!(json.contains("\"args\":{\"name\":\"trace-worker\"}"));
        assert!(json.ends_with("\"otherData\":{\"dropped_events\":\"0\"}}"));

        let dir = std::env::temp_dir().join("gpdt-obs-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        dump_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
