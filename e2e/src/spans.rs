//! The harness's own span recorder.
//!
//! Spans are recorded around the harness's calls into each layer's public
//! API (tracing inside the program is a later change), kept in memory, and
//! written out as Chrome trace JSON when the run ends.  Every span carries
//! the span that caused it and the id of the unit of work (tick, batch,
//! query) it belongs to; a layer's self time is its duration minus the part
//! of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder.
    pub parent: Option<usize>,
    /// Timed pass the span belongs to.
    pub pass: u32,
    /// Tick, batch or operation id shared by the spans of one unit of work.
    pub unit: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::open`]; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Token(Option<usize>);

/// In-memory span store.  When off, `open`/`close` are a branch each, so
/// untraced runs pay nothing for the instrumentation points.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Pass number stamped onto spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, unit: u64) -> Token {
        if !self.on {
            return Token(None);
        }
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            pass: self.pass,
            unit,
        });
        self.stack.push(index);
        Token(Some(index))
    }

    /// Closes a span (and any span opened inside it that was left open).
    pub fn close(&mut self, token: Token) {
        let Some(index) = token.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let token = self.open(name, unit);
        let out = f();
        self.close(token);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in milliseconds of the spans called `name`, per pass.
    pub fn busy_ms_by_pass(&self, name: &str) -> Vec<f64> {
        let mut per_pass: BTreeMap<u32, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_pass.entry(span.pass).or_default() += span.duration_ns();
        }
        per_pass.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Writes the spans as Chrome trace JSON (complete events, microseconds).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"pass\":{},\"unit\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.pass,
                span.unit
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are counted once,
/// and a child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // Grandchildren do not count against the root twice.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)), // overlaps a by 20
            span("c", 190, 260, Some(0)), // sticks out of the parent
            span("d", 120, 140, Some(0)), // wholly inside a
        ];
        // Covered: [110,170) = 60 plus [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_is_free_when_off() {
        let mut rec = Recorder::new(true);
        rec.set_pass(3);
        let outer = rec.open("outer", 7);
        rec.time("inner", 7, || std::hint::black_box(1 + 1));
        rec.close(outer);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        assert_eq!(rec.spans()[1].pass, 3);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert_eq!(rec.busy_ms_by_pass("inner").len(), 1);
        assert!(rec.to_chrome_trace().contains("\"name\":\"inner\""));

        let mut off = Recorder::new(false);
        let token = off.open("x", 0);
        off.close(token);
        assert!(off.spans().is_empty());
    }
}
