//! Measurement, plain-text table and JSON-report helpers for the figure
//! binaries.
//!
//! Each `figN` binary prints its tables as text (for eyeballing against the
//! paper) and also serialises them to `BENCH_figN.json` via [`BenchReport`],
//! so the performance trajectory can be tracked across commits by machines
//! (CI uploads the JSON files as artifacts).

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Runs `f` once and returns its result together with the elapsed wall time.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Measurement policy: best-of-N timing, after a warmup run when N > 1.
///
/// A single cold run is noisy at the scaled-down sizes CI uses; a warmup run
/// populates caches/branch predictors and the minimum over `runs` repetitions
/// is the conventional low-noise estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureOpts {
    /// Number of timed runs; the fastest is reported.  Must be at least 1.
    pub runs: usize,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        MeasureOpts { runs: 1 }
    }
}

impl MeasureOpts {
    /// Reads the policy from the environment: `GPDT_BENCH_RUNS` (default 1).
    pub fn from_env() -> Self {
        MeasureOpts {
            runs: crate::env::runs(),
        }
    }
}

/// Runs `f` under the given policy and returns the last run's result together
/// with the *fastest* observed wall time.  More than one timed run is
/// preceded by one untimed warmup run.
pub fn measure_with<T>(opts: MeasureOpts, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(opts.runs >= 1, "at least one timed run is required");
    if opts.runs > 1 {
        let _ = f();
    }
    let (mut value, mut best) = measure(&mut f);
    for _ in 1..opts.runs {
        let (v, d) = measure(&mut f);
        value = v;
        best = best.min(d);
    }
    (value, best)
}

/// A small fixed-width text table, printed in the same row/series layout as
/// the paper's figures so the output can be compared against them directly.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let format_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to standard output.
    fn print(&self) {
        println!("{}", self.render());
    }

    /// Serialises the table as a JSON object
    /// (`{"title": ..., "header": [...], "rows": [[...]]}`).
    pub fn to_json(&self) -> String {
        let header = self
            .header
            .iter()
            .map(|h| json_string(h))
            .collect::<Vec<_>>()
            .join(",");
        let rows = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    "[{}]",
                    row.iter()
                        .map(|c| json_string(c))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"title\":{},\"header\":[{}],\"rows\":[{}]}}",
            json_string(&self.title),
            header,
            rows
        )
    }
}

/// Machine-readable counterpart of one figure binary's text output.
///
/// Collects the binary's tables and writes them as `BENCH_<name>.json`,
/// annotated with the active `GPDT_SCALE`, so successive runs can be diffed
/// across commits.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    tables: Vec<Table>,
}

impl BenchReport {
    /// Creates an empty report for the figure `name` (e.g. `"fig5"`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    /// Prints a table to standard output and adds it to the report.
    pub fn print_and_add(&mut self, table: Table) {
        table.print();
        self.tables.push(table);
    }

    /// Adds a table to the report without printing it.
    pub fn add(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Serialises the whole report as one JSON object.
    pub fn to_json(&self) -> String {
        let tables = self
            .tables
            .iter()
            .map(Table::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"name\":{},\"gpdt_scale\":{},\"tables\":[{}]}}",
            json_string(&self.name),
            crate::scenarios::scale(),
            tables
        )
    }

    /// The destination path: `BENCH_<name>.json` inside `GPDT_BENCH_DIR`
    /// (default: the current directory).
    pub fn path(&self) -> PathBuf {
        crate::env::report_dir().join(format!("BENCH_{}.json", self.name))
    }

    /// Writes the report to [`Self::path`] and returns the path written.
    ///
    /// Creates `GPDT_BENCH_DIR` if it does not exist yet, so pointing a run
    /// at a fresh directory (as the CI `cmp` steps do) just works.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = self.path();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the report next to the text tables, logging the outcome instead
    /// of failing the run if the filesystem refuses (benchmark numbers were
    /// already printed).
    pub fn write_logged(&self) {
        match self.write() {
            Ok(path) => eprintln!("[{}] wrote {}", self.name, path.display()),
            Err(err) => eprintln!("[{}] could not write JSON report: {err}", self.name),
        }
    }
}

/// Writes the process-wide metrics-registry snapshot as the sidecar
/// `BENCH_<name>_obs.json` next to the regular report, so every figure run
/// leaves a per-stage latency/counter breakdown alongside its numbers.
///
/// A *separate* file, deliberately: CI byte-compares the primary
/// `BENCH_<name>.json` reports across runs (out-of-core vs in-memory,
/// SIMD on vs off, crash-kill vs clean), and per-stage timings would differ
/// on every run.  No-op (with a note) when `GPDT_OBS=off`.
pub fn write_obs_sidecar(name: &str) {
    // Flush the Chrome-trace span capture first (a no-op unless `GPDT_TRACE`
    // is set): the sidecar call marks the end of a fig run, which is exactly
    // when the timeline is complete.
    gpdt_obs::trace::dump_if_enabled();
    if !gpdt_obs::enabled() {
        eprintln!("[{name}] GPDT_OBS=off; skipping metrics sidecar");
        return;
    }
    let path = crate::env::report_dir().join(format!("BENCH_{name}_obs.json"));
    let json = gpdt_obs::registry().snapshot().to_json();
    match path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, &json))
    {
        Ok(()) => eprintln!("[{name}] wrote {}", path.display()),
        Err(err) => eprintln!("[{name}] could not write metrics sidecar: {err}"),
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
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

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_value_and_positive_time() {
        let (value, elapsed) = measure(|| (0..1000).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn measure_with_runs_warmup_and_reports_best() {
        let mut calls = 0usize;
        let (value, best) = measure_with(MeasureOpts { runs: 3 }, || {
            calls += 1;
            calls
        });
        // One warmup + three timed runs; the value is from the last run.
        assert_eq!(calls, 4);
        assert_eq!(value, 4);
        assert!(best.as_nanos() > 0);
    }

    #[test]
    fn measure_opts_default_is_single_cold_run() {
        let opts = MeasureOpts::default();
        assert_eq!(opts.runs, 1);
        let mut calls = 0usize;
        let _ = measure_with(opts, || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    #[should_panic(expected = "at least one timed run")]
    fn measure_with_rejects_zero_runs() {
        let _ = measure_with(MeasureOpts { runs: 0 }, || ());
    }

    #[test]
    fn table_renders_aligned_rows() {
        let mut t = Table::new("demo", &["x", "runtime (s)"]);
        t.add_row(vec!["5".into(), "0.123".into()]);
        t.add_row(vec!["100".into(), "1.5".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("runtime (s)"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn table_serialises_to_json() {
        let mut t = Table::new("demo \"quoted\"", &["x", "y"]);
        t.add_row(vec!["1".into(), "a\nb".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"demo \\\"quoted\\\"\",\"header\":[\"x\",\"y\"],\
             \"rows\":[[\"1\",\"a\\nb\"]]}"
        );
    }

    #[test]
    fn report_collects_tables_and_writes_json() {
        let dir = std::env::temp_dir().join("gpdt_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Temp-scoped env var would race other tests; build the path by hand
        // instead and only test the serialisation + explicit write.
        let mut report = BenchReport::new("figtest");
        let mut t = Table::new("t1", &["a"]);
        t.add_row(vec!["1".into()]);
        report.add(t);
        let json = report.to_json();
        assert!(json.starts_with("{\"name\":\"figtest\",\"gpdt_scale\":"));
        assert!(json.contains("\"tables\":[{\"title\":\"t1\""));
        let path = dir.join("BENCH_figtest.json");
        std::fs::write(&path, &json).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
    }

    #[test]
    fn report_default_path_is_bench_name_json() {
        let report = BenchReport::new("fig9");
        assert!(report.path().to_string_lossy().ends_with("BENCH_fig9.json"));
    }

    #[test]
    fn secs_formats_milliseconds() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }
}
