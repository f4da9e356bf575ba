//! The process-wide metrics registry: named atomic counters, gauges and
//! log2-bucket latency histograms.
//!
//! Registration (name → handle) takes a short-lived mutex and leaks the
//! metric so the returned reference is `'static`; every subsequent update is
//! a relaxed atomic operation and never blocks.  Snapshots read the same
//! atomics, so writers are never stopped — a snapshot taken mid-update sees
//! each metric at some valid recent value, and a snapshot taken after
//! writers quiesce is exact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins measurement (queue depths, calibration results).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i >= 1` holds
/// values with `i` significant bits (`2^(i-1) ..= 2^i - 1`), up to bucket 64.
const BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples (latencies in
/// nanoseconds, byte counts, ...).
///
/// Recording is three relaxed atomic adds; quantiles (p50/p95/p99) are
/// derived from a [`HistogramSnapshot`], with each bucket answered by its
/// upper bound, so a derived quantile is exact to within a factor of two —
/// plenty for "which stage dominates" questions.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index of a sample: its significant-bit count.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value a bucket can hold (its reported representative).
pub(crate) fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample recorded (`0` before any sample lands).
    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX && self.count() == 0 {
            0
        } else {
            v
        }
    }

    /// Largest sample recorded (`0` before any sample lands).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (exact, not a bucket bound; `0` when empty).
    pub min: u64,
    /// Largest sample (exact, not a bucket bound; `0` when empty).
    pub max: u64,
    /// Per-bucket sample counts (see [`Histogram`] for the bucket layout).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (0.0 ..= 1.0), reported as the upper bound
    /// of the bucket the quantile falls into; `0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), clamped to at least the first sample.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(index);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// The mean sample, rounded down; `0` for an empty histogram.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct Names {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    histograms: BTreeMap<String, &'static Histogram>,
}

/// The process-wide metric namespace.  See the [crate docs](crate).
#[derive(Default)]
pub struct Registry {
    names: Mutex<Names>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, Names> {
        self.names.lock().expect("metric registration never panics")
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// The handle is `'static`: cache it (the [`counter!`](crate::counter)
    /// macro does) and updates never touch the registration lock again.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut names = self.lock();
        if let Some(c) = names.counters.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::default());
        names.counters.insert(name.to_string(), c);
        c
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut names = self.lock();
        if let Some(g) = names.gauges.get(name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::default());
        names.gauges.insert(name.to_string(), g);
        g
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut names = self.lock();
        if let Some(h) = names.histograms.get(name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::default());
        names.histograms.insert(name.to_string(), h);
        h
    }

    /// The value of the counter registered under `name`, if one is;
    /// unlike [`Registry::counter`] it registers nothing.
    pub(crate) fn counter_value(&self, name: &str) -> Option<u64> {
        self.lock().counters.get(name).map(|c| c.get())
    }

    /// A point-in-time copy of every registered metric, taken without
    /// stopping writers.  Names come out sorted.
    pub fn snapshot(&self) -> Snapshot {
        let names = self.lock();
        Snapshot {
            counters: names
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: names
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: names
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` histogram pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// The snapshot of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Serialises the snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
    /// "sum":..,"min":..,"max":..,"mean":..,"p50":..,"p95":..,"p99":..}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_pairs(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        push_pairs(&mut out, &self.gauges);
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\
                 \"p95\":{},\"p99\":{}}}",
                json_string(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
        }
        out.push_str("}}");
        out
    }
}

fn push_pairs(out: &mut String, pairs: &[(String, u64)]) {
    for (i, (name, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(name));
        out.push(':');
        out.push_str(&value.to_string());
    }
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Returns the cached counter for a static name, registering on first use.
///
/// Expands to a call-site `OnceLock`, so the registration lock is taken at
/// most once per site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Returns the cached gauge for a static name, registering on first use.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Returns the cached histogram for a static name, registering on first use.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let r = Registry::default();
        let c = r.counter("t.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("t.count").get(), 5, "same name, same handle");

        let g = r.gauge("t.gauge");
        g.set(11);
        assert_eq!(g.get(), 11);

        let h = r.histogram("t.hist");
        for v in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_006);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(Histogram::default().min(), 0, "empty histogram reports 0");

        let snap = r.snapshot();
        assert_eq!(snap.counter("t.count"), Some(5));
        assert_eq!(snap.gauge("t.gauge"), Some(11));
        assert_eq!(snap.histogram("t.hist").unwrap().count, 6);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn histogram_quantiles_land_in_log2_buckets() {
        let h = Histogram::default();
        // 90 fast samples (~1µs) and 10 slow ones (~1ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        // p50/p90 land in the 1µs bucket (upper bound 1023), p95/p99 in the
        // 1ms bucket (upper bound 2^20 - 1).
        assert_eq!(s.quantile(0.50), 1023);
        assert_eq!(s.quantile(0.90), 1023);
        assert_eq!(s.quantile(0.95), (1 << 20) - 1);
        assert_eq!(s.quantile(0.99), (1 << 20) - 1);
        assert_eq!(s.quantile(1.0), (1 << 20) - 1);
        assert_eq!(s.mean(), (90 * 1_000 + 10 * 1_000_000) / 100);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn snapshot_serialises_sorted_json() {
        let r = Registry::default();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.gauge("g").set(9);
        r.histogram("h").record(3);
        let json = r.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.one\":1,\"b.two\":2},\"gauges\":{\"g\":9},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":3,\"min\":3,\"max\":3,\
             \"mean\":3,\"p50\":3,\"p95\":3,\"p99\":3}}}"
        );
    }

    #[test]
    fn concurrent_writers_and_snapshotter_stay_exact() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let r: &'static Registry = Box::leak(Box::default());
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                scope.spawn(move || {
                    // Half the writers share one counter, half use their own,
                    // and everyone hammers one shared histogram.
                    let shared = r.counter("cc.shared");
                    let own = r.counter(&format!("cc.own.{w}"));
                    let h = r.histogram("cc.lat");
                    for i in 0..PER_WRITER {
                        shared.inc();
                        own.inc();
                        h.record(i % 4096);
                    }
                });
            }
            let stop_ref = &stop;
            scope.spawn(move || {
                // Concurrent snapshots must never block writers or observe
                // impossible values (counts above the final totals).  Note a
                // mid-flight histogram may transiently show bucket totals a
                // hair ahead of `count` (record() is three separate relaxed
                // adds), so only monotone upper bounds are asserted here.
                while !stop_ref.load(Ordering::Relaxed) {
                    let snap = r.snapshot();
                    if let Some(v) = snap.counter("cc.shared") {
                        assert!(v <= WRITERS as u64 * PER_WRITER);
                    }
                    if let Some(h) = snap.histogram("cc.lat") {
                        assert!(h.buckets.iter().sum::<u64>() <= WRITERS as u64 * PER_WRITER);
                    }
                    std::thread::yield_now();
                }
            });
            // Let the writers run against live snapshots for a moment, then
            // release the snapshotter; the scope joins everyone.
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                stop_ref.store(true, Ordering::Relaxed);
            });
        });
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("cc.shared"),
            Some(WRITERS as u64 * PER_WRITER),
            "contended counter must be exact after writers join"
        );
        for w in 0..WRITERS {
            assert_eq!(snap.gauge(&format!("cc.own.{w}")), None);
            assert_eq!(
                snap.counter(&format!("cc.own.{w}")),
                Some(PER_WRITER),
                "writer {w}'s private counter must be exact"
            );
        }
        let h = snap.histogram("cc.lat").unwrap();
        assert_eq!(h.count, WRITERS as u64 * PER_WRITER);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }
}
