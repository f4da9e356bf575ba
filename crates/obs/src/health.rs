//! Process-wide health state for the `/health` endpoint: whether the
//! service is up or degraded (and since when), how far ingest has advanced,
//! and per-shard restart counts.  `MonitorService` pushes transitions and
//! progress here, a sharded engine its restart counts when one changes; the
//! telemetry server and the watchdog's degraded-dwell rule read them.
//! `/health`'s count of applied batches is the registry's `service.batches`
//! counter, which the service bumps per batch.

use std::sync::Mutex;

use crate::recorder::FlightRecorder;
use crate::registry::json_string;
use crate::watchdog::Verdict;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthInfo {
    /// Whether the supervised service is running degraded, and the batch and
    /// epoch-nanos instant it entered that state.
    pub degraded_since: Option<(u64, u64)>,
    /// Reason the service degraded, when it has.
    pub degraded_reason: String,
    /// Latest engine tick the service applied.
    pub last_ingest_tick: Option<u32>,
    /// Per-shard worker restart counts (empty for a single-engine service).
    pub shard_restarts: Vec<u64>,
}

fn state() -> &'static Mutex<HealthInfo> {
    static STATE: Mutex<HealthInfo> = Mutex::new(HealthInfo {
        degraded_since: None,
        degraded_reason: String::new(),
        last_ingest_tick: None,
        shard_restarts: Vec::new(),
    });
    &STATE
}

fn lock() -> std::sync::MutexGuard<'static, HealthInfo> {
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Marks the service degraded as of `batch` (stamped with the current
/// epoch-nanos) — called on degraded-mode entry.
pub fn set_degraded(batch: u64, reason: &str) {
    let mut s = lock();
    if s.degraded_since.is_none() {
        s.degraded_since = Some((batch, crate::now_nanos()));
    }
    s.degraded_reason = reason.to_string();
}

/// Clears the degraded flag — called when supervised recovery succeeds.
pub fn set_recovered() {
    let mut s = lock();
    s.degraded_since = None;
    s.degraded_reason.clear();
}

/// The counter of batches the service has applied: `/health`'s
/// `batches_applied` and the watchdog's ingest-stall input.
pub(crate) const BATCHES_COUNTER: &str = "service.batches";

/// Records ingest progress after an applied batch.
pub fn note_ingest(tick: Option<u32>) {
    if tick.is_some() {
        lock().last_ingest_tick = tick;
    }
}

/// Records the per-shard restart counts — called by the sharded engine when
/// it rebuilds a shard, so a batch without a restart costs nothing here.
pub fn note_shard_restarts(shard_restarts: &[u64]) {
    lock().shard_restarts = shard_restarts.to_vec();
}

/// Epoch-nanos the service has been degraded since, if it is — the
/// watchdog's degraded-dwell input.
pub fn degraded_since_nanos() -> Option<u64> {
    lock().degraded_since.map(|(_, nanos)| nanos)
}

/// A copy of the current health state.
pub fn info() -> HealthInfo {
    lock().clone()
}

/// Resets the process-wide state (tests only — health is global).
pub fn reset_for_tests() {
    *lock() = HealthInfo::default();
}

/// Renders the `/health` JSON body: overall status (`"degraded"` when the
/// service is degraded **or** any watchdog rule is firing), degraded-since
/// coordinates, ingest progress, per-shard restarts, watchdog verdicts and
/// flight-recorder saturation.
pub fn render_json(verdicts: &[Verdict], recorder: &FlightRecorder) -> String {
    let info = info();
    let now = crate::now_nanos();
    let watchdog_firing = verdicts.iter().any(|v| v.fired);
    let degraded = info.degraded_since.is_some() || watchdog_firing;
    let mut out = String::from("{\"status\":");
    out.push_str(if degraded { "\"degraded\"" } else { "\"up\"" });
    out.push_str(",\"degraded_since_batch\":");
    match info.degraded_since {
        Some((batch, _)) => out.push_str(&batch.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"degraded_for_ms\":");
    match info.degraded_since {
        Some((_, nanos)) => {
            out.push_str(&(now.saturating_sub(nanos) / 1_000_000).to_string());
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"degraded_reason\":");
    out.push_str(&json_string(&info.degraded_reason));
    out.push_str(",\"last_ingest_tick\":");
    match info.last_ingest_tick {
        Some(t) => out.push_str(&t.to_string()),
        None => out.push_str("null"),
    }
    let batches = crate::registry().counter_value(BATCHES_COUNTER);
    out.push_str(&format!(",\"batches_applied\":{}", batches.unwrap_or(0)));
    out.push_str(",\"shard_restarts\":[");
    for (i, n) in info.shard_restarts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&n.to_string());
    }
    out.push_str("],\"watchdog\":[");
    for (i, v) in verdicts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_json());
    }
    out.push_str(&format!(
        "],\"flight_events_recorded\":{},\"flight_events_dropped\":{},\"uptime_ms\":{}}}",
        recorder.recorded(),
        recorder.dropped(),
        now / 1_000_000,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Health is process-global state, so one serialized test covers the
    // transitions end to end.
    #[test]
    fn health_transitions_and_json_render() {
        let _guard = crate::gate_test_lock();
        crate::set_enabled(true);
        reset_for_tests();
        let rec = FlightRecorder::with_capacity(4);

        let json = render_json(&[], &rec);
        assert!(json.starts_with("{\"status\":\"up\",\"degraded_since_batch\":null"));
        assert!(json.contains("\"shard_restarts\":[]"));
        assert!(json.contains("\"watchdog\":[]"));

        let batches = crate::registry().counter(BATCHES_COUNTER);
        let applied = batches.get() + 2;
        note_ingest(Some(41));
        batches.inc();
        note_shard_restarts(&[0, 2]);
        note_ingest(Some(42));
        batches.inc();
        set_degraded(7, "checkpoint failed: \"disk\"");
        let json = render_json(&[], &rec);
        assert!(json.starts_with("{\"status\":\"degraded\",\"degraded_since_batch\":7"));
        assert!(json.contains("\"degraded_reason\":\"checkpoint failed: \\\"disk\\\"\""));
        assert!(json.contains("\"last_ingest_tick\":42"));
        assert!(json.contains(&format!("\"batches_applied\":{applied},")));
        assert!(json.contains("\"shard_restarts\":[0,2]"));
        assert!(degraded_since_nanos().is_some());

        // A later degradation reason updates, but the entry instant sticks.
        let first = info().degraded_since;
        set_degraded(9, "still down");
        assert_eq!(info().degraded_since, first);

        set_recovered();
        assert_eq!(degraded_since_nanos(), None);
        let verdict = Verdict {
            rule: "fsync_p99".to_string(),
            fired: true,
            detail: "p99 12ms > 2ms".to_string(),
        };
        let json = render_json(&[verdict], &rec);
        assert!(
            json.starts_with("{\"status\":\"degraded\""),
            "a firing watchdog flips status even when the service is up"
        );
        assert!(json.contains("\"rule\":\"fsync_p99\""));
        reset_for_tests();
    }
}
