//! Windowed time-series over registry snapshots: a sampler thread (or an
//! injected clock, in tests) diffs consecutive [`Snapshot`]s into bounded
//! rings of per-window deltas, turning lifetime aggregates into live
//! queries — "how long since ingest last moved", "fsync p99 over the last
//! ten seconds" — without ever touching the hot-path atomics beyond the
//! reads a snapshot already does.
//!
//! All timestamps are nanoseconds since the process epoch shared with the
//! trace layer ([`crate::now_nanos`]), so sampler windows, trace events and
//! watchdog verdicts line up on one clock.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::recorder::FlightRecorder;
use crate::registry::{HistogramSnapshot, Registry, Snapshot};
use crate::watchdog::Watchdog;

/// Default ring bound: at the default 250ms cadence this retains ~4 minutes
/// of windows per metric.
const DEFAULT_WINDOWS: usize = 1024;

/// Default sampling cadence when `GPDT_OBS_SAMPLE_MS` is unset.
const DEFAULT_SAMPLE_MS: u64 = 250;

/// One sampling window: the half-open time range and the delta observed in
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Window<T> {
    /// Window start, nanoseconds since the process epoch.
    start_nanos: u64,
    /// Window end (the sample instant), nanoseconds since the process epoch.
    end_nanos: u64,
    /// What changed inside the window.
    delta: T,
}

#[derive(Debug, Default)]
struct CounterSeries {
    last: u64,
    last_change_nanos: Option<u64>,
    windows: VecDeque<Window<u64>>,
}

#[derive(Debug, Default)]
struct HistSeries {
    last: HistogramSnapshot,
    windows: VecDeque<Window<HistogramSnapshot>>,
}

/// The windowed delta store.  Feed it snapshots through [`sample`]
/// (the [`Sampler`] thread does, tests drive it with an injected clock) and
/// query rates and windowed quantiles back out.
///
/// [`sample`]: TimeSeries::sample
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    counters: BTreeMap<String, CounterSeries>,
    hists: BTreeMap<String, HistSeries>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::with_capacity(DEFAULT_WINDOWS)
    }
}

impl TimeSeries {
    /// A series retaining at most `capacity` windows per metric.
    pub fn with_capacity(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// Ingests one snapshot taken at `now_nanos`, recording one delta window
    /// per counter and histogram.  The first window of a metric starts at
    /// the epoch (0), so window deltas always sum to the metric's lifetime
    /// total.  Irregular cadence is fine: windows carry their real bounds,
    /// and every query below works off those, not an assumed tick width.
    ///
    /// Gauges are last-value-wins and already live in the snapshot, so they
    /// are not windowed here.
    pub fn sample(&mut self, now_nanos: u64, snap: &Snapshot) {
        for (name, value) in &snap.counters {
            let series = self.counters.entry(name.clone()).or_default();
            let start = series.windows.back().map(|w| w.end_nanos).unwrap_or(0);
            let delta = value.saturating_sub(series.last);
            if delta > 0 {
                series.last_change_nanos = Some(now_nanos);
            }
            series.last = *value;
            if series.windows.len() == self.capacity {
                series.windows.pop_front();
            }
            series.windows.push_back(Window {
                start_nanos: start,
                end_nanos: now_nanos,
                delta,
            });
        }
        for (name, hist) in &snap.histograms {
            let series = self.hists.entry(name.clone()).or_default();
            let start = series.windows.back().map(|w| w.end_nanos).unwrap_or(0);
            let delta = diff_hist(&series.last, hist);
            series.last = hist.clone();
            if series.windows.len() == self.capacity {
                series.windows.pop_front();
            }
            series.windows.push_back(Window {
                start_nanos: start,
                end_nanos: now_nanos,
                delta,
            });
        }
    }

    /// The retained windows of a counter, oldest first.
    #[cfg(test)]
    fn counter_windows(&self, name: &str) -> Vec<Window<u64>> {
        self.counters
            .get(name)
            .map(|s| s.windows.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Sum of the retained window deltas of a counter — equals the counter's
    /// lifetime total as long as the ring has not evicted.
    #[cfg(test)]
    fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map(|s| s.windows.iter().map(|w| w.delta).sum())
            .unwrap_or(0)
    }

    /// The counter's rate per second over the windows whose end falls in
    /// `(now - lookback, now]`: total delta divided by the time those
    /// windows actually cover.  `None` when no window qualifies.
    #[cfg(test)]
    fn rate_per_sec(&self, name: &str, lookback: Duration, now_nanos: u64) -> Option<f64> {
        let series = self.counters.get(name)?;
        let cutoff = now_nanos.saturating_sub(lookback.as_nanos() as u64);
        let mut delta = 0u64;
        let mut covered = 0u64;
        for w in series.windows.iter().rev() {
            if w.end_nanos <= cutoff {
                break;
            }
            delta += w.delta;
            covered += w.end_nanos - w.start_nanos;
        }
        if covered == 0 {
            return None;
        }
        Some(delta as f64 * 1e9 / covered as f64)
    }

    /// Nanoseconds since the counter last moved, or `None` if it has never
    /// moved inside the retained history — the ingest-stall primitive.
    pub fn age_of_last_change(&self, name: &str, now_nanos: u64) -> Option<u64> {
        let changed = self.counters.get(name)?.last_change_nanos?;
        Some(now_nanos.saturating_sub(changed))
    }

    /// The merged histogram delta over the windows whose end falls in
    /// `(now - lookback, now]` — "the fsync latency distribution of the last
    /// ten seconds", ready for [`HistogramSnapshot::quantile`].  `None` when
    /// no window qualifies.
    pub fn histogram_over(
        &self,
        name: &str,
        lookback: Duration,
        now_nanos: u64,
    ) -> Option<HistogramSnapshot> {
        let series = self.hists.get(name)?;
        let cutoff = now_nanos.saturating_sub(lookback.as_nanos() as u64);
        let mut merged: Option<HistogramSnapshot> = None;
        for w in series.windows.iter().rev() {
            if w.end_nanos <= cutoff {
                break;
            }
            let merged = merged.get_or_insert_with(|| HistogramSnapshot {
                buckets: vec![0; w.delta.buckets.len()],
                ..HistogramSnapshot::default()
            });
            merged.count += w.delta.count;
            merged.sum = merged.sum.wrapping_add(w.delta.sum);
            for (into, from) in merged.buckets.iter_mut().zip(&w.delta.buckets) {
                *into += from;
            }
        }
        merged
    }
}

/// The per-window histogram delta between two cumulative snapshots.
/// Buckets, count and sum diff exactly; `min`/`max` are lifetime values (a
/// cumulative min/max cannot be windowed), so the delta carries the newer
/// snapshot's values for them.
fn diff_hist(prev: &HistogramSnapshot, cur: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: cur.count.saturating_sub(prev.count),
        sum: cur.sum.wrapping_sub(prev.sum),
        min: cur.min,
        max: cur.max,
        buckets: cur
            .buckets
            .iter()
            .zip(prev.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(c, p)| c.saturating_sub(*p))
            .collect(),
    }
}

/// The sampling cadence: `GPDT_OBS_SAMPLE_MS` (clamped to at least 1ms),
/// defaulting to `DEFAULT_SAMPLE_MS` (250ms).
pub fn sample_interval_from_env() -> Duration {
    let ms = std::env::var("GPDT_OBS_SAMPLE_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_SAMPLE_MS)
        .max(1);
    Duration::from_millis(ms)
}

/// The background sampling thread: snapshots `registry` every `interval`
/// into a shared [`TimeSeries`] and, when a [`Watchdog`] is attached, lets
/// it evaluate its rules against the fresh windows.  Dropping the handle
/// stops and joins the thread.
pub struct Sampler {
    series: Arc<Mutex<TimeSeries>>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `registry` every `interval`.  The watchdog, when
    /// given, journals its verdict transitions into `recorder`.
    pub fn start(
        interval: Duration,
        registry: &'static Registry,
        watchdog: Option<Arc<Watchdog>>,
        recorder: &'static FlightRecorder,
    ) -> Sampler {
        let series = Arc::new(Mutex::new(TimeSeries::default()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread_series = Arc::clone(&series);
        let thread_shutdown = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("gpdt-obs-sampler".into())
            .spawn(move || {
                while !thread_shutdown.load(Ordering::Relaxed) {
                    if crate::enabled() {
                        let now = crate::now_nanos();
                        let snap = registry.snapshot();
                        let mut series = lock(&thread_series);
                        series.sample(now, &snap);
                        if let Some(watchdog) = &watchdog {
                            watchdog.evaluate(&series, now, recorder);
                        }
                    }
                    // Sleep in short slices so drop-to-join stays prompt even
                    // at second-scale cadences.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !thread_shutdown.load(Ordering::Relaxed) {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawning the sampler thread never fails");
        Sampler {
            series,
            shutdown,
            thread: Some(thread),
        }
    }

    /// The shared series the thread is filling — clone it into whoever
    /// queries the windows (the telemetry server does).
    pub fn series(&self) -> Arc<Mutex<TimeSeries>> {
        Arc::clone(&self.series)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
    }
}

/// Lock helper keeping queries alive through a poisoned mutex (a sampler
/// panic must not take the serving surface down with it).
pub fn lock(series: &Mutex<TimeSeries>) -> std::sync::MutexGuard<'_, TimeSeries> {
    series.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    const MS: u64 = 1_000_000;

    #[test]
    fn windowed_rates_with_an_irregular_injected_clock() {
        let r = Registry::default();
        let c = r.counter("ts.events");
        let mut series = TimeSeries::with_capacity(16);

        // Regular tick, a skipped tick (double-length window), and a long
        // stall: rates must come from real window bounds, not tick counts.
        c.add(100);
        series.sample(1_000 * MS, &r.snapshot());
        c.add(50);
        series.sample(2_000 * MS, &r.snapshot());
        // Sampler missed a tick: next window spans 2s.
        c.add(300);
        series.sample(4_000 * MS, &r.snapshot());
        // Nothing happens for 6s.
        series.sample(10_000 * MS, &r.snapshot());

        let windows = series.counter_windows("ts.events");
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].start_nanos, 0, "first window starts at epoch");
        assert_eq!(windows[2].start_nanos, 2_000 * MS);
        assert_eq!(windows[2].end_nanos, 4_000 * MS);
        assert_eq!(windows[2].delta, 300);
        assert_eq!(series.counter_total("ts.events"), 450);

        // Last 2s covers only the empty stall window.
        let rate = series
            .rate_per_sec("ts.events", Duration::from_secs(2), 10_000 * MS)
            .unwrap();
        assert_eq!(rate, 0.0);
        // Last 8s reaches back through the skipped-tick window: 300 events
        // over the 8 covered seconds.
        let rate = series
            .rate_per_sec("ts.events", Duration::from_secs(8), 10_000 * MS)
            .unwrap();
        assert!((rate - 300.0 / 8.0).abs() < 1e-9, "got {rate}");
        // Whole history: 450 events over 10s.
        let rate = series
            .rate_per_sec("ts.events", Duration::from_secs(60), 10_000 * MS)
            .unwrap();
        assert!((rate - 45.0).abs() < 1e-9, "got {rate}");

        assert_eq!(
            series.age_of_last_change("ts.events", 10_000 * MS),
            Some(6_000 * MS),
            "counter last moved at the 4s sample"
        );
        assert_eq!(
            series.rate_per_sec("ts.missing", Duration::from_secs(1), 0),
            None
        );
    }

    #[test]
    fn windowed_histogram_quantiles_see_only_their_window() {
        let r = Registry::default();
        let h = r.histogram("ts.lat");
        let mut series = TimeSeries::with_capacity(16);

        // Window 1: fast samples.  Window 2: slow ones.
        for _ in 0..100 {
            h.record(1_000);
        }
        series.sample(1_000 * MS, &r.snapshot());
        for _ in 0..100 {
            h.record(1_000_000);
        }
        series.sample(2_000 * MS, &r.snapshot());

        // A 1s lookback at t=2s sees only the slow window, while the
        // lifetime aggregate would blend both.
        let recent = series
            .histogram_over("ts.lat", Duration::from_secs(1), 2_000 * MS)
            .unwrap();
        assert_eq!(recent.count, 100);
        assert_eq!(recent.quantile(0.50), (1 << 20) - 1);
        let whole = series
            .histogram_over("ts.lat", Duration::from_secs(10), 2_000 * MS)
            .unwrap();
        assert_eq!(whole.count, 200);
        assert_eq!(whole.quantile(0.50), 1023);
        assert_eq!(whole.sum, 100 * 1_000 + 100 * 1_000_000);
    }

    #[test]
    fn ring_eviction_keeps_the_newest_windows() {
        let r = Registry::default();
        let c = r.counter("ts.ring");
        let mut series = TimeSeries::with_capacity(3);
        for i in 1..=5u64 {
            c.add(i);
            series.sample(i * 1_000 * MS, &r.snapshot());
        }
        let windows = series.counter_windows("ts.ring");
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].delta, 3);
        assert_eq!(windows[2].delta, 5);
        assert_eq!(windows[2].end_nanos, 5_000 * MS);
    }

    #[test]
    fn sampler_deltas_sum_to_writer_totals_under_concurrency() {
        let r: &'static Registry = Box::leak(Box::default());
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let mut series = TimeSeries::with_capacity(1 << 20);
        let series_ref = &mut series;
        let done = std::sync::atomic::AtomicUsize::new(0);
        let done = &done;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                scope.spawn(move || {
                    let shared = r.counter("sc.shared");
                    let own = r.counter(&format!("sc.own.{w}"));
                    let h = r.histogram("sc.lat");
                    for i in 0..PER_WRITER {
                        shared.inc();
                        own.inc();
                        h.record(i % 4096);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Sample continuously while the writers run, with a synthetic
            // clock (the windows' bounds are irrelevant here — only that the
            // deltas tile the counter's history exactly).
            let mut now = 0u64;
            while done.load(Ordering::Relaxed) < WRITERS {
                now += MS;
                series_ref.sample(now, &r.snapshot());
                std::thread::yield_now();
            }
            // One final sample after all writers joined captures the tail.
            series_ref.sample(now + MS, &r.snapshot());
        });
        assert_eq!(
            series.counter_total("sc.shared"),
            WRITERS as u64 * PER_WRITER,
            "window deltas must tile the contended counter exactly"
        );
        for w in 0..WRITERS {
            assert_eq!(series.counter_total(&format!("sc.own.{w}")), PER_WRITER);
        }
        // Merge every retained histogram window (query at the last window's
        // end with a lookback far past the synthetic clock range) and check
        // the deltas tile the histogram.
        let last_end = series
            .counter_windows("sc.shared")
            .last()
            .map(|w| w.end_nanos)
            .unwrap();
        let whole = series
            .histogram_over("sc.lat", Duration::from_secs(1 << 30), last_end)
            .unwrap();
        assert_eq!(whole.count, WRITERS as u64 * PER_WRITER);
        assert_eq!(whole.buckets.iter().sum::<u64>(), whole.count);
        assert!(series.counter_windows("sc.shared").len() >= 2);
    }

    #[test]
    fn sampler_thread_fills_the_series_and_stops_on_drop() {
        let _guard = crate::gate_test_lock();
        crate::set_enabled(true);
        let r: &'static Registry = Box::leak(Box::default());
        let rec: &'static FlightRecorder = Box::leak(Box::new(FlightRecorder::with_capacity(8)));
        r.counter("st.ticks").add(5);
        let sampler = Sampler::start(Duration::from_millis(1), r, None, rec);
        let series = sampler.series();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            // One window of the counter per sample taken.
            if lock(&series).counter_windows("st.ticks").len() >= 3 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never sampled"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(sampler);
        let total = lock(&series).counter_total("st.ticks");
        assert_eq!(total, 5);
    }
}
