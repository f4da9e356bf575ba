//! Process-wide observability for the gathering-patterns stack: a lock-free
//! metrics registry, scoped stage spans, and a bounded flight recorder for
//! supervision events.
//!
//! The design follows the two-tier telemetry pattern: **cheap always-on
//! primitives** on the hot path (a counter bump is one relaxed atomic add, a
//! span is two `Instant::now` calls plus three adds) and **periodic exact
//! snapshots** read by whoever wants them ([`Registry::snapshot`] never
//! stops writers).  Three surfaces:
//!
//! * [`registry`] — named [`Counter`]s, [`Gauge`]s and fixed-bucket log2
//!   latency [`Histogram`]s (p50/p95/p99 derivable from the buckets).
//!   Registration takes a short-lived lock once per call site; updates are
//!   lock-free thereafter.  The [`counter!`], [`gauge!`] and [`span!`]
//!   macros cache the registered handle in a call-site `OnceLock` so hot
//!   loops never touch the registration lock.
//! * [`span!`] — a scoped timer guard: everything between construction and
//!   drop is recorded, in nanoseconds, into the named histogram.
//! * [`flight`] — a bounded ring buffer of structured supervision events
//!   (retries, panics, degraded transitions, shard rebuilds, tail repairs,
//!   injected faults) with tick timestamps, dumpable to JSON so a crash
//!   leaves a post-mortem artifact instead of a bare exit code.
//!
//! On top of the primitives sits the **live telemetry plane**
//! ([`telemetry_from_env`]): a background [`Sampler`] diffing registry
//! snapshots into windowed [`TimeSeries`] rings (the age of a counter's last
//! change, "fsync p99 over the last 10s"), a dependency-free HTTP responder
//! ([`TelemetryServer`]) serving `/metrics` (Prometheus text exposition,
//! [`expo`]), `/health` ([`health`]) and `/flightrec`, an SLO [`Watchdog`]
//! journalling `watchdog.fired`/`watchdog.cleared` transitions, and a
//! Chrome-trace span capture ([`trace`], `GPDT_TRACE=<path>`) loadable in
//! Perfetto.
//!
//! Everything is gated by the `GPDT_OBS` environment variable (`on` by
//! default; `off`/`0`/`false` disables).  Disabled call sites reduce to one
//! relaxed atomic load ([`enabled`]) — telemetry can never change results,
//! only record them, and the `fig5` byte-compare CI steps hold the stack to
//! that even while it is being scraped under load.
//!
//! `GPDT_OBS_DUMP` sets where flight-recorder dumps land (default
//! `gpdt-flightrec.json` under the system temp directory).

pub mod expo;
pub mod health;
mod http;
mod recorder;
mod registry;
mod series;
mod span;
pub mod trace;
pub mod watchdog;

pub use http::{ServeContext, TelemetryServer};
pub use recorder::{flight, install_panic_hook, record_event, FlightEvent, FlightRecorder};
pub use registry::{registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use series::{sample_interval_from_env, Sampler, TimeSeries};
pub use span::{time_nanos, Span};
pub use watchdog::{Rule, RuleKind, Verdict, Watchdog};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Gate state: 0 = unresolved, 1 = off, 2 = on.
static GATE: AtomicU8 = AtomicU8::new(0);

/// Whether observability is on — the pointer-sized check every instrumented
/// call site performs first.
///
/// Resolved once from `GPDT_OBS` (default: on; `off`, `0` or `false`
/// disable) and cached in a static, so the steady-state cost is a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        0 => resolve_gate(),
        state => state == 2,
    }
}

/// Reads `GPDT_OBS` and caches the verdict.
#[cold]
fn resolve_gate() -> bool {
    let on = match std::env::var("GPDT_OBS") {
        Ok(v) => {
            let v = v.trim();
            !(v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => true,
    };
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Overrides the `GPDT_OBS` gate for this process.
///
/// For tests and the micro-benchmark overhead ablation, which must compare
/// on- and off-mode within one process.  Regular code should leave the gate
/// to the environment.
pub fn set_enabled(on: bool) {
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// How many threads this process may run at once: the host's available
/// parallelism, at least 1.
///
/// Resolved once per process and cached, so that no engine, clusterer or
/// service start asks the OS again: every thread budget in the workspace
/// defaults to this value.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(probe_host_threads)
}

/// Asks the OS what [`host_threads`] caches.  The answer reads the
/// scheduler's affinity mask and the cgroup's CPU quota, some tens of
/// microseconds; `clippy.toml` disallows the direct call everywhere but
/// here.  Uncached: for timing the probe itself (`--bin micro`).
#[allow(clippy::disallowed_methods)]
pub fn probe_host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where flight-recorder dumps are written: `GPDT_OBS_DUMP`, defaulting to
/// `gpdt-flightrec.json` under the system temp directory.
///
/// The default deliberately avoids the current directory: dumps fire from
/// library code (degraded-mode entry, the panic hook), and a `cargo test`
/// run entering degraded mode on purpose must not litter the source tree.
/// Set `GPDT_OBS_DUMP` for a stable post-mortem location (CI does).
pub fn dump_path() -> PathBuf {
    std::env::var_os("GPDT_OBS_DUMP")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("gpdt-flightrec.json"))
}

/// Nanoseconds since the process telemetry epoch — the one clock the
/// sampler's windows, the watchdog's verdicts, and the trace events all
/// share.  The epoch is the first call from any of them (monotonic, so
/// never negative or jumping).
pub fn now_nanos() -> u64 {
    trace::epoch().elapsed().as_nanos() as u64
}

/// Starts the process-wide live telemetry plane from the environment, once;
/// later calls are no-ops.  A no-op too when observability is off.
///
/// * `GPDT_METRICS_ADDR=<host:port>` binds the scrape endpoint
///   (`/metrics`, `/health`, `/flightrec`) and implies the sampler.
/// * `GPDT_OBS_SAMPLE_MS=<ms>` starts the windowed sampler at that cadence
///   even with no endpoint (the watchdog journals to the flight recorder
///   regardless of anyone scraping).
///
/// The sampler and server are leaked: this is the serve-until-exit path
/// (`MonitorService::run`, the fig bins).  Tests wanting start/stop control
/// construct [`Sampler`] and [`TelemetryServer`] directly instead.
pub fn telemetry_from_env() {
    static STARTED: AtomicBool = AtomicBool::new(false);
    if STARTED.swap(true, Ordering::SeqCst) || !enabled() {
        return;
    }
    let addr = std::env::var("GPDT_METRICS_ADDR")
        .ok()
        .filter(|a| !a.trim().is_empty());
    let sample_requested = std::env::var_os("GPDT_OBS_SAMPLE_MS").is_some();
    if addr.is_none() && !sample_requested {
        return;
    }
    let watchdog = Arc::new(Watchdog::standard());
    let sampler = Sampler::start(
        sample_interval_from_env(),
        registry(),
        Some(Arc::clone(&watchdog)),
        flight(),
    );
    let series = sampler.series();
    std::mem::forget(sampler); // serve until process exit
    if let Some(addr) = addr {
        let ctx = ServeContext {
            registry: registry(),
            recorder: flight(),
            series: Some(series),
            watchdog: Some(watchdog),
        };
        match TelemetryServer::bind(&addr, ctx) {
            Ok(server) => {
                eprintln!(
                    "gpdt-obs: serving /metrics /health /flightrec on http://{}",
                    server.local_addr()
                );
                std::mem::forget(server);
            }
            Err(e) => eprintln!("gpdt-obs: GPDT_METRICS_ADDR={addr} bind failed: {e}"),
        }
    }
}

/// Serialises tests that touch the global gate (it is process-wide state and
/// the test harness runs threads in parallel).
#[cfg(test)]
pub(crate) fn gate_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_defaults_on_and_overrides_stick() {
        let _guard = gate_test_lock();
        // Force re-resolution from the environment, which does not set
        // GPDT_OBS under `cargo test` — so the default must be on.
        GATE.store(0, Ordering::Relaxed);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn dump_path_defaults_under_temp() {
        let path = dump_path();
        assert!(path.to_string_lossy().ends_with("gpdt-flightrec.json"));
        assert!(path.starts_with(std::env::temp_dir()));
    }
}
