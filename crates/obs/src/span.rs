//! Scoped stage timers: everything between a [`Span`]'s construction and its
//! drop is recorded, in nanoseconds, into a named latency histogram.

use std::time::Instant;

use crate::registry::Histogram;

/// A scoped timer guard.
///
/// Usually constructed through the [`span!`](crate::span) macro, which
/// caches the histogram handle per call site and skips the clock reads
/// entirely when observability is off (the disabled guard holds two `None`s
/// and its drop is a no-op).
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    start: Option<Instant>,
    hist: Option<&'static Histogram>,
    name: &'static str,
}

impl Span {
    /// A live span named `name` recording into `hist` when dropped.  The
    /// name doubles as the trace-event label when `GPDT_TRACE` capture is
    /// on (see [`crate::trace`]).
    pub fn active(name: &'static str, hist: &'static Histogram) -> Span {
        Span {
            start: Some(Instant::now()),
            hist: Some(hist),
            name,
        }
    }

    /// A disabled span whose drop does nothing.
    pub fn disabled() -> Span {
        Span {
            start: None,
            hist: None,
            name: "",
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(start), Some(hist)) = (self.start, self.hist) {
            let nanos = start.elapsed().as_nanos() as u64;
            hist.record(nanos);
            crate::trace::record_span(self.name, start, nanos);
        }
    }
}

/// Times a closure, returning its result and the elapsed nanoseconds.
///
/// The shared timing helper for calibration probes and benches — one
/// monotonic-clock idiom instead of scattered `Instant::now()` pairs.
pub fn time_nanos<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Opens a scoped stage timer recording into the named histogram.
///
/// ```
/// let _span = gpdt_obs::span!("engine.dbscan");
/// // ... stage body; elapsed nanoseconds recorded when `_span` drops ...
/// ```
///
/// When observability is off this is one relaxed atomic load and a no-op
/// guard; when on, the histogram handle comes from a call-site `OnceLock`,
/// so hot loops never touch the registration lock.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::Span::active($name, $crate::histogram!($name))
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_into_its_histogram_on_drop() {
        let r = Registry::default();
        let h = r.histogram("sp.stage");
        {
            let _span = Span::active("sp.stage", h);
            std::hint::black_box(17u64);
        }
        assert_eq!(h.count(), 1);

        {
            let _span = Span::disabled();
        }
        assert_eq!(h.count(), 1, "disabled span must not record");
    }

    #[test]
    fn time_nanos_returns_the_closure_result() {
        let (value, nanos) = time_nanos(|| (0..100u64).sum::<u64>());
        assert_eq!(value, 4950);
        // A monotonic clock can legally report 0ns for a trivial closure;
        // just check it did not come back absurd.
        assert!(nanos < 1_000_000_000);
    }

    #[test]
    fn span_macro_respects_the_gate() {
        let _guard = crate::gate_test_lock();
        crate::set_enabled(false);
        {
            let _span = crate::span!("sp.gated");
        }
        assert_eq!(crate::registry().histogram("sp.gated").count(), 0);

        crate::set_enabled(true);
        {
            let _span = crate::span!("sp.gated");
        }
        assert_eq!(crate::registry().histogram("sp.gated").count(), 1);
    }
}
