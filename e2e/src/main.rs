//! `e2e`: the repository's end-to-end benchmark (see `README.md` beside
//! `Cargo.toml`, and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! e2e run [--workload W] [--seed S] [--seconds N] [--scale F] [--trace [0|1]]
//!         [--sets N] [--out FILE]
//! e2e compare A.json B.json
//! ```
//!
//! With `--workload`, the workload runs in this process and the last line of
//! standard output is the result object of the driver's contract.  Without,
//! every workload runs in a fresh child process (so `peak_rss_mib` is per
//! workload), the results are tabulated, and `--sets 2` repeats everything
//! and compares the two sets against the benchmark's own bounds.
//!
//! The benchmark imports only the library crates' public API, so refactors
//! of the figure harness cannot change what is measured.

mod counting_vfs;
mod inputs;
mod json;
mod layers;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use spec::{Better, END_TO_END, WORKLOADS};
use workloads::{drive, Report, RunOpts};

const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 1;
/// An untraced run of one workload is measured in this many processes, one
/// after the other, each with a share of the time budget and inputs of its
/// own, generated from a seed derived from the run's.  On the reference box a
/// process keeps whatever speed its heap layout and placement gave it, so a
/// longer run in one process is no steadier than a short one; the median
/// over three processes is — and over three inputs it also depends less on
/// what one seed happened to put into its day.
const PARTS: usize = 3;
/// Set-ups of a run that is measured in one process.
const SETUPS: usize = 3;

/// Root of everything the benchmark writes, inside the checkout it runs in.
pub fn scratch_root() -> PathBuf {
    std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".e2e_scratch")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => RunArgs::parse(&args[1..]).and_then(|run| run.execute()),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(Exit::usage(
            "usage: e2e run [--workload W] [--seed S] [--seconds N] [--scale F] [--trace [0|1]] \
             [--sets N] [--out FILE]\n       e2e compare A.json B.json",
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(exit) => {
            eprintln!("e2e: {}", exit.message);
            ExitCode::from(exit.code)
        }
    }
}

/// A failed command: what to say and the exit code (1 = a check failed or a
/// metric got worse, 2 = the command could not run as asked).
struct Exit {
    code: u8,
    message: String,
}

impl Exit {
    fn usage(message: impl Into<String>) -> Exit {
        Exit {
            code: 2,
            message: message.into(),
        }
    }

    fn failed(message: impl Into<String>) -> Exit {
        Exit {
            code: 1,
            message: message.into(),
        }
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    sets: usize,
    out: Option<PathBuf>,
    /// Set by a run for the processes it starts: measure here, set up once.
    part: bool,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, Exit> {
        let mut run = RunArgs {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            scale: 1.0,
            trace: false,
            sets: 1,
            out: None,
            part: false,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            // `--trace` may stand alone; every other flag takes a value.
            let value = args.get(i + 1).map(String::as_str);
            if flag == "--part" {
                run.part = true;
                i += 1;
                continue;
            }
            if flag == "--trace" {
                match value {
                    Some("0") | Some("1") => {
                        run.trace = value == Some("1");
                        i += 2;
                    }
                    _ => {
                        run.trace = true;
                        i += 1;
                    }
                }
                continue;
            }
            let value = value.ok_or_else(|| Exit::usage(format!("{flag} needs a value")))?;
            let bad = || Exit::usage(format!("{flag}: cannot use {value:?}"));
            match flag {
                "--workload" => {
                    if !WORKLOADS.iter().any(|(name, _)| *name == value) {
                        return Err(Exit::usage(format!("unknown workload {value:?}")));
                    }
                    run.workload = Some(value.to_string());
                }
                "--seed" => run.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    run.seconds = value
                        .parse()
                        .ok()
                        .filter(|s| (0.0..=600.0).contains(s))
                        .ok_or_else(bad)?;
                }
                "--scale" => {
                    run.scale = value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 16.0)
                        .ok_or_else(bad)?;
                }
                "--sets" => {
                    run.sets = value
                        .parse()
                        .ok()
                        .filter(|n| (1..=16).contains(n))
                        .ok_or_else(bad)?;
                }
                "--out" => run.out = Some(PathBuf::from(value)),
                _ => return Err(Exit::usage(format!("unknown flag {flag}"))),
            }
            i += 2;
        }
        Ok(run)
    }

    fn execute(self) -> Result<(), Exit> {
        if cfg!(debug_assertions) {
            return Err(Exit::usage(
                "refusing to measure a debug build; run with `cargo run --release`",
            ));
        }
        let cleared = clear_gpdt_env();
        match &self.workload {
            Some(workload) if self.part || self.trace => self.run_here(workload, &cleared),
            Some(workload) => self.run_parts(workload, &cleared),
            None => self.run_children(&cleared),
        }
    }

    /// Prints a finished run: the metric lines, the detail line results files
    /// are built from, and the contract's result object as the last line.
    fn finish(&self, report: &Report) -> Result<(), Exit> {
        print_report(report);
        println!("#detail {}", detail_json(report).write());
        println!("{}", contract_json(report).write());
        if report.correct() {
            Ok(())
        } else {
            Err(Exit::failed(format!(
                "{}: {} of {} operations or checks failed",
                report.workload, report.failed, report.attempted
            )))
        }
    }

    /// The arguments that make another process repeat this run's settings.
    fn child_command(
        &self,
        exe: &Path,
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
    ) -> Command {
        let mut command = Command::new(exe);
        command
            .arg("run")
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--scale", &self.scale.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit());
        if let Some(out) = &self.out {
            command.arg("--out").arg(out);
        }
        command
    }

    /// An untraced run of one workload: `PARTS` processes one after the
    /// other, each measuring for its share of the budget, combined by median.
    fn run_parts(&self, workload: &str, cleared: &[String]) -> Result<(), Exit> {
        let exe = std::env::current_exe()
            .map_err(|e| Exit::usage(format!("cannot find this executable: {e}")))?;
        println!("# {}", Json::Obj(machine_meta(cleared)).write());
        let mut parts = Vec::with_capacity(PARTS);
        for part in 0..PARTS {
            // `output` waits for the process; nothing outlives this call.
            let seed = part_seed(self.seed, part);
            let output = self
                .child_command(&exe, workload, seed, self.seconds / PARTS as f64, false)
                .arg("--part")
                .output()
                .map_err(|e| Exit::usage(format!("cannot start part {part} of {workload}: {e}")))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let report = detail_of(&stdout)
                .and_then(|detail| report_from_detail(&detail))
                .ok_or_else(|| {
                    Exit::failed(format!("part {part} of {workload} printed no result"))
                })?;
            let values: Vec<String> = report
                .metrics
                .iter()
                .map(|(name, value, ..)| format!("{name}={value}"))
                .collect();
            println!("# part {part} {workload} seed={seed} {}", values.join(" "));
            parts.push(report);
        }
        self.finish(&Report::combine(self.seed, &parts))
    }

    /// Runs one workload in this process and prints the contract's result
    /// object as the last line.
    fn run_here(&self, workload: &str, cleared: &[String]) -> Result<(), Exit> {
        let scratch = scratch_root().join(format!("{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch)
            .map_err(|e| Exit::usage(format!("cannot create {}: {e}", scratch.display())))?;
        let opts = RunOpts {
            seed: self.seed,
            seconds: self.seconds,
            scale: self.scale,
            trace: self.trace,
            setups: if self.part { 1 } else { SETUPS },
            trace_file: trace_file(self.out.as_deref(), workload),
            scratch: scratch.clone(),
        };
        println!("# {}", Json::Obj(machine_meta(cleared)).write());
        let report = run_workload(workload, &opts);
        let _ = std::fs::remove_dir_all(&scratch);
        self.finish(&report)
    }

    /// Runs every workload in a child process of its own, `sets` times.
    fn run_children(&self, cleared: &[String]) -> Result<(), Exit> {
        let exe = std::env::current_exe()
            .map_err(|e| Exit::usage(format!("cannot find this executable: {e}")))?;
        let mut sets = Vec::new();
        let mut all_correct = true;
        for set in 0..self.sets {
            let mut results = Vec::new();
            for (workload, _) in WORKLOADS {
                let mut merged: Option<Json> = None;
                for trace in [false, true] {
                    if trace && !self.trace {
                        continue;
                    }
                    println!(
                        "## set {} · {workload} · {}",
                        set + 1,
                        if trace { "traced" } else { "untraced" }
                    );
                    // `output` waits for the child; nothing outlives this call.
                    let output = self
                        .child_command(&exe, workload, self.seed, self.seconds, trace)
                        .output()
                        .map_err(|e| {
                            Exit::usage(format!("cannot start the {workload} run: {e}"))
                        })?;
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    for line in stdout
                        .lines()
                        .filter(|l| !l.starts_with("#detail ") && !l.starts_with('{'))
                    {
                        println!("{line}");
                    }
                    all_correct &= output.status.success();
                    let detail = detail_of(&stdout).ok_or_else(|| {
                        Exit::failed(format!("the {workload} run printed no result"))
                    })?;
                    merged = Some(match merged {
                        None => detail,
                        // The traced run rides along whole, under its own key.
                        Some(Json::Obj(mut untraced)) => {
                            untraced.push(("traced".to_string(), detail));
                            Json::Obj(untraced)
                        }
                        Some(other) => other,
                    });
                }
                results.push(merged.expect("the untraced run always happens"));
            }
            sets.push(Json::obj(vec![("workloads", Json::Arr(results))]));
        }

        let mut meta = machine_meta(cleared);
        meta.push(("git_commit".to_string(), Json::str(git_commit())));
        meta.push(("seed".to_string(), Json::Num(self.seed as f64)));
        meta.push(("seconds".to_string(), Json::Num(self.seconds)));
        meta.push(("scale".to_string(), Json::Num(self.scale)));
        let document = Json::obj(vec![
            ("benchmark", Json::str("e2e")),
            ("meta", Json::Obj(meta)),
            ("sets", Json::Arr(sets)),
        ]);
        if let Some(out) = &self.out {
            std::fs::write(out, document.write() + "\n")
                .map_err(|e| Exit::usage(format!("cannot write {}: {e}", out.display())))?;
            println!("## results written to {}", out.display());
        }
        let mut agree = true;
        if self.sets >= 2 {
            let sets = document
                .get("sets")
                .and_then(Json::as_arr)
                .expect("just built");
            println!("## set 1 against set 2");
            agree = compare(&sets[..1], &sets[1..2]);
        }
        if !all_correct {
            return Err(Exit::failed("an operation or output check failed"));
        }
        if !agree {
            return Err(Exit::failed(
                "the sets disagree beyond the benchmark's bounds",
            ));
        }
        Ok(())
    }
}

/// The seed of part `part` of the run seeded `seed`, mixed so that
/// neighbouring run seeds share no inputs.
fn part_seed(seed: u64, part: usize) -> u64 {
    inputs::Rng64::new(seed ^ (part as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

fn run_workload(workload: &str, opts: &RunOpts) -> Report {
    use workloads::{archive_mine, city_stream, sharded_stream, store_serve};
    match workload {
        "city_stream" => drive::<city_stream::CityStream>(opts),
        "archive_mine" => drive::<archive_mine::ArchiveMine>(opts),
        "sharded_stream" => drive::<sharded_stream::ShardedStream>(opts),
        "store_serve" => drive::<store_serve::StoreServe>(opts),
        other => unreachable!("{other} passed argument validation"),
    }
}

/// Removes every `GPDT_*` variable (they tune the system under test) and
/// returns the names removed.
fn clear_gpdt_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("GPDT_"))
        .collect();
    for name in &names {
        // No other thread exists yet: this runs first in `main`.
        std::env::remove_var(name);
    }
    names
}

/// Where a traced run of `workload` writes its Chrome trace: beside the
/// results file when there is one, else under the scratch root.
fn trace_file(out: Option<&Path>, workload: &str) -> PathBuf {
    match out {
        Some(out) => out.with_extension(format!("trace-{workload}.json")),
        None => scratch_root().join(format!("trace-{workload}.json")),
    }
}

fn machine_meta(cleared: &[String]) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".to_string(), Json::Num(nproc as f64)),
        (
            "simd".to_string(),
            Json::str(gpdt_geo::dispatch().level().label()),
        ),
        (
            "hausdorff_cutoff_pairs".to_string(),
            Json::Num(gpdt_geo::bucketed_pair_cutoff() as f64),
        ),
        ("rustc".to_string(), Json::str(env!("E2E_RUSTC_VERSION"))),
        (
            "cleared_env".to_string(),
            Json::Arr(cleared.iter().map(Json::str).collect()),
        ),
    ]
}

/// The commit of the enclosing git checkout, if there is one.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `name workload value unit` for every metric, then checks and findings.
fn print_report(report: &Report) {
    for (name, value, unit, n) in &report.metrics {
        println!("{name} {} {value} {unit} n={n}", report.workload);
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failure_ratio {} {ratio} ratio n={}",
        report.workload, report.attempted
    );
    for (name, value) in &report.sizes {
        println!("# size {} {name} {value}", report.workload);
    }
    println!(
        "# digests {} input {:016x} output {:016x}",
        report.workload, report.input_digest, report.output_digest
    );
    for (name, ok) in &report.checks {
        println!(
            "# check {} {} {name}",
            report.workload,
            if *ok { "ok" } else { "FAILED" }
        );
    }
    for finding in &report.findings {
        println!("# finding {} {finding}", report.workload);
    }
}

fn metrics_json(report: &Report, with_n: bool) -> Json {
    Json::Obj(
        report
            .metrics
            .iter()
            .map(|(name, value, unit, n)| {
                let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(*unit))];
                if with_n {
                    fields.push(("n", Json::Num(*n as f64)));
                }
                (name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The result object of the driver's contract: exactly these four keys.
fn contract_json(report: &Report) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(report, false)),
    ])
}

/// Everything a results file keeps about one run of one workload.
fn detail_json(report: &Report) -> Json {
    let metrics_key = if report.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    Json::obj(vec![
        ("name", Json::str(report.workload)),
        ("seed", Json::Num(report.seed as f64)),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "input_digest",
            Json::str(format!("{:016x}", report.input_digest)),
        ),
        (
            "output_digest",
            Json::str(format!("{:016x}", report.output_digest)),
        ),
        (
            "sizes",
            Json::Obj(
                report
                    .sizes
                    .iter()
                    .map(|(name, value)| (name.to_string(), Json::Num(*value)))
                    .collect(),
            ),
        ),
        (metrics_key, metrics_json(report, true)),
        (
            "checks",
            Json::Arr(
                report
                    .checks
                    .iter()
                    .map(|(name, ok)| {
                        Json::obj(vec![
                            ("name", Json::str(name.as_str())),
                            ("ok", Json::Bool(*ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "findings",
            Json::Arr(
                report
                    .findings
                    .iter()
                    .map(|f| Json::str(f.as_str()))
                    .collect(),
            ),
        ),
    ])
}

/// The detail object a finished run printed among its output lines.
fn detail_of(stdout: &str) -> Option<Json> {
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("#detail "))
        .and_then(|line| Json::parse(line).ok())
}

/// Reads back what [`detail_json`] wrote (metric and workload names are
/// looked up in the declared tables).
fn report_from_detail(detail: &Json) -> Option<Report> {
    let name = detail.get("name")?.as_str()?;
    let workload = WORKLOADS.iter().map(|(w, _)| *w).find(|w| *w == name)?;
    let trace = detail.get("per_layer").is_some();
    let (table, declared) = if trace {
        (detail.get("per_layer")?, &spec::PER_LAYER[..])
    } else {
        (detail.get("end_to_end")?, &END_TO_END[..])
    };
    let metrics = declared
        .iter()
        .map(|m| {
            let entry = table.get(m.name)?;
            Some((
                m.name,
                entry.get("value")?.as_f64()?,
                m.unit,
                entry.get("n")?.as_f64()? as usize,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let digest = |key: &str| u64::from_str_radix(detail.get(key)?.as_str()?, 16).ok();
    let Json::Obj(sizes) = detail.get("sizes")? else {
        return None;
    };
    Some(Report {
        workload,
        seed: detail.get("seed")?.as_f64()? as u64,
        trace,
        metrics,
        attempted: detail.get("attempted")?.as_f64()? as u64,
        failed: detail.get("failed")?.as_f64()? as u64,
        checks: detail
            .get("checks")?
            .as_arr()?
            .iter()
            .map(|c| {
                Some((
                    c.get("name")?.as_str()?.to_string(),
                    c.get("ok")?.as_bool()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?,
        input_digest: digest("input_digest")?,
        output_digest: digest("output_digest")?,
        sizes: sizes
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<Vec<_>>>()?,
        findings: detail
            .get("findings")?
            .as_arr()?
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
    })
}

fn compare_files(a: &str, b: &str) -> Result<(), Exit> {
    let load = |path: &str| -> Result<Json, Exit> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Exit::usage(format!("cannot read {path}: {e}")))?;
        Json::parse(&text).map_err(|e| Exit::usage(format!("{path}: {e}")))
    };
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    let sets = |doc: &Json, path: &str| -> Result<Vec<Json>, Exit> {
        doc.get("sets")
            .and_then(Json::as_arr)
            .filter(|sets| !sets.is_empty())
            .map(<[Json]>::to_vec)
            .ok_or_else(|| Exit::usage(format!("{path} holds no result sets")))
    };
    println!("## base {a} against {b}");
    if compare(&sets(&a_doc, a)?, &sets(&b_doc, b)?) {
        Ok(())
    } else {
        Err(Exit::failed(
            "a metric is worse than its bound allows, or digests differ",
        ))
    }
}

/// One workload's entry in every result set that has one.
fn entries_of<'a>(sets: &'a [Json], workload: &'a str) -> impl Iterator<Item = &'a Json> {
    sets.iter().filter_map(move |set| {
        set.get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
    })
}

/// Every value of one end-to-end metric of one workload across result sets.
fn values_of(sets: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    entries_of(sets, workload)
        .filter_map(|w| w.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn digests_of(sets: &[Json], workload: &str) -> Vec<(String, String)> {
    entries_of(sets, workload)
        .filter_map(|w| {
            Some((
                w.get("input_digest")?.as_str()?.to_string(),
                w.get("output_digest")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// How a change from `base` to `new` reads against a bound.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Ok,
    Worse,
    /// The base's own run-to-run spread is wider than the bound.
    Unresolved,
}

/// Judges one metric: `worse` when the new median is worse than the base
/// median by more than `bound`; `unresolved` instead of either answer when
/// the base's own spread exceeds the bound — unless every new run reads
/// better than every base run.
fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let ratio = if base_median != 0.0 {
        new_median / base_median
    } else {
        1.0
    };
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let span = |v: &[f64]| {
        let v = stats::sorted(v.to_vec());
        (v[0], v[v.len() - 1])
    };
    let ((base_lo, base_hi), (new_lo, new_hi)) = (span(base), span(new));
    let spread = if base_median != 0.0 {
        (base_hi - base_lo) / base_median.abs()
    } else {
        0.0
    };
    let all_better = match better {
        Better::Lower => new_hi < base_lo,
        Better::Higher => new_lo > base_hi,
    };
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

/// Prints, per workload and end-to-end metric, both medians, the ratio with
/// its base, the bound and the verdict.  Returns whether nothing is worse
/// and every digest is identical.
fn compare(base: &[Json], new: &[Json]) -> bool {
    let mut fine = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for (workload, _) in WORKLOADS {
        for spec in END_TO_END {
            let (a, b) = (
                values_of(base, workload, spec.name),
                values_of(new, workload, spec.name),
            );
            if a.is_empty() || b.is_empty() {
                println!("{workload:<16} {:<20} missing on one side", spec.name);
                fine = false;
                continue;
            }
            let (ratio, verdict) = judge(&a, &b, spec.better, spec.bound);
            fine &= verdict != Verdict::Worse;
            println!(
                "{workload:<16} {:<20} {:>14.4} {:>14.4} {:>8.3} {:>5.0}%  {}",
                spec.name,
                stats::median(&a),
                stats::median(&b),
                ratio,
                spec.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let mut digests = digests_of(base, workload);
        digests.extend(digests_of(new, workload));
        let same = digests.windows(2).all(|w| w[0] == w[1]);
        println!(
            "{workload:<16} digests {}",
            if same { "identical" } else { "DIFFER" }
        );
        fine &= same;
    }
    fine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_right_direction() {
        assert_eq!(judge(&[100.0], &[109.0], Better::Lower, 0.1).1, Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[111.0], Better::Lower, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(judge(&[100.0], &[50.0], Better::Lower, 0.1).1, Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[89.0], Better::Higher, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(judge(&[100.0], &[91.0], Better::Higher, 0.1).1, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[109.0], Better::Lower, 0.1).0, 1.09);
    }

    #[test]
    fn judge_reports_a_noisy_base_as_unresolved() {
        // The base alone spreads 30 %: a 20 % loss cannot be told from noise.
        let base = [90.0, 100.0, 120.0];
        assert_eq!(
            judge(&base, &[120.0], Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        // Unless every new run beats every base run.
        assert_eq!(
            judge(&base, &[80.0, 85.0], Better::Lower, 0.1).1,
            Verdict::Ok
        );
    }

    #[test]
    fn parts_combine_by_median_and_fold_their_digests() {
        let part = |value: f64, digest: u64, held: bool| Report {
            workload: "city_stream",
            seed: digest,
            trace: false,
            metrics: vec![("pass_s", value, "s", 2)],
            attempted: 10,
            failed: u64::from(!held),
            checks: vec![("outputs agree".to_string(), held)],
            input_digest: digest,
            output_digest: digest + 1,
            sizes: Vec::new(),
            findings: Vec::new(),
        };
        let parts = [part(3.0, 7, true), part(1.0, 8, true), part(2.0, 9, true)];
        let combined = Report::combine(42, &parts);
        assert_eq!(combined.metrics, vec![("pass_s", 2.0, "s", 6)]);
        assert_eq!(
            (combined.seed, combined.attempted, combined.failed),
            (42, 30, 0)
        );
        assert!(combined.correct());
        // The digests depend on every part and on their order.
        let reordered =
            Report::combine(42, &[parts[1].clone(), parts[0].clone(), parts[2].clone()]);
        assert_ne!(combined.input_digest, reordered.input_digest);
        assert_eq!(
            combined.input_digest,
            Report::combine(42, &parts).input_digest
        );
        // One failing part fails the run.
        let failing = Report::combine(42, &[part(3.0, 7, true), part(1.0, 8, false)]);
        assert!(!failing.correct());
        assert_eq!(failing.failed, 1);

        let seeds: Vec<u64> = (0..4)
            .flat_map(|seed| (0..PARTS).map(move |p| part_seed(seed, p)))
            .collect();
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_eq!(part_seed(3, 1), part_seed(3, 1));
    }

    #[test]
    fn trace_flag_stands_alone_or_takes_a_digit() {
        let parse =
            |args: &[&str]| RunArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--trace"]).ok().is_some_and(|r| r.trace));
        assert!(parse(&["--trace", "0", "--seed", "9"])
            .ok()
            .is_some_and(|r| !r.trace && r.seed == 9));
        assert!(parse(&["--trace", "--seed", "9"])
            .ok()
            .is_some_and(|r| r.trace && r.seed == 9));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--sets", "0"]).is_err());
    }

    #[test]
    fn bench_dir_stays_off_the_figure_harness() {
        // The benchmark must not import the `gpdt-bench` crate, or a
        // refactor there could change what is measured.  (The needles are
        // assembled so that this file does not contain them.)
        let needles = [["gpdt", "bench::"].join("_"), ["gpdt", "bench ="].join("-")];
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut stack = vec![root.to_path_buf()];
        let mut checked = 0;
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(dir).expect("readable source tree") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    if path.file_name().is_some_and(|n| n != "target") {
                        stack.push(path);
                    }
                } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                    let text = std::fs::read_to_string(&path).expect("readable source");
                    for needle in &needles {
                        assert!(
                            !text.contains(needle),
                            "{} uses the figure harness",
                            path.display()
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked >= 10, "the walk found the sources");
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("missing {key}"))
        };

        let declared: Vec<(&str, &str)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        assert_eq!(declared, WORKLOADS.to_vec());

        let metric = |m: &'_ Json| -> (String, String, String, Option<f64>) {
            (
                field(m, "name").to_string(),
                field(m, "unit").to_string(),
                field(m, "better").to_string(),
                m.get("bound").and_then(Json::as_f64),
            )
        };
        let end_to_end: Vec<_> = list("end_to_end").iter().map(metric).collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);
        let per_layer: Vec<_> = list("per_layer").iter().map(metric).collect();
        let expected: Vec<_> = spec::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(per_layer, expected);

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .file_name()
            .and_then(|n| n.to_str())
            .expect("package directory");
        let paths: Vec<&str> = list("paths").iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, [dir]);
        let command: Vec<&str> = list("command").iter().filter_map(Json::as_str).collect();
        assert!(
            command.contains(&format!("{dir}/Cargo.toml").as_str()),
            "{command:?}"
        );
        assert_eq!(command.last(), Some(&"run"));
    }

    /// Every workload at a fiftieth of its size, untraced and traced: each
    /// declared metric comes out exactly once, in declared order, with its
    /// unit and a well-formed name, and every output check passes.
    #[test]
    fn smoke_run_emits_every_declared_metric_once() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let scratch =
                    scratch_root().join(format!("smoke-{}-{workload}-{trace}", std::process::id()));
                let _ = std::fs::remove_dir_all(&scratch);
                std::fs::create_dir_all(&scratch).expect("scratch directory");
                let opts = RunOpts {
                    seed: 3,
                    seconds: 0.0,
                    scale: 0.02,
                    trace,
                    setups: 1,
                    trace_file: scratch.join("trace.json"),
                    scratch: scratch.clone(),
                };
                let report = run_workload(workload, &opts);
                let failed: Vec<_> = report.checks.iter().filter(|(_, ok)| !ok).collect();
                assert!(
                    report.correct(),
                    "{workload} trace={trace}: {failed:?}, {} failed operations",
                    report.failed
                );
                assert!(report.attempted >= 1);

                let declared: Vec<(&str, &str)> = if trace {
                    spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
                } else {
                    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
                };
                let emitted: Vec<(&str, &str)> = report
                    .metrics
                    .iter()
                    .map(|(name, _, unit, _)| (*name, *unit))
                    .collect();
                assert_eq!(emitted, declared, "{workload} trace={trace}");
                for (name, value, unit, _) in &report.metrics {
                    assert!(value.is_finite(), "{workload} {name}");
                    assert!(!unit.is_empty(), "{workload} {name}");
                    assert!(
                        name.bytes()
                            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                        "{name}"
                    );
                    if !trace {
                        assert!(*value > 0.0, "{workload} {name} must never read 0");
                    }
                }
                if trace {
                    let text = std::fs::read_to_string(&opts.trace_file)
                        .expect("a Chrome trace was written");
                    let events = Json::parse(&text).expect("the trace parses");
                    assert!(events
                        .get("traceEvents")
                        .and_then(Json::as_arr)
                        .is_some_and(|e| !e.is_empty()));
                }
                // The result object has exactly the contract's keys.
                let Json::Obj(fields) = contract_json(&report) else {
                    panic!("an object")
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                std::fs::remove_dir_all(&scratch).expect("cleanup");
            }
        }
    }
}
