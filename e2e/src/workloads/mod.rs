//! The workload driver: warm-up, set-up, an untimed pass, timed passes,
//! output checks, and — in a traced run — traced passes plus layer replay.
//!
//! A *pass* is one complete execution of a workload on fresh state; a run
//! repeats passes until its time budget is spent and reports medians, so a
//! single disturbed pass does not move a metric.

pub mod archive_mine;
pub mod city_stream;
pub mod sharded_stream;
pub mod store_serve;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gpdt_clustering::ClusterDatabase;
use gpdt_store::{encode_to_vec, PatternRecord, PatternStore, StoreError, StoreOptions};
use gpdt_trajectory::Timestamp;

use crate::counting_vfs::{CountingVfs, VfsTotals};
use crate::spans::{self_times_ns, Recorder};
use crate::spec::{self, CROSS_CHECKS, END_TO_END, PER_LAYER, REGISTRY_SPANS};
use crate::stats::{median, percentile, sorted, tail};

/// Fewest passes of each kind (untraced, traced) in a traced run.
const MIN_TRACE_PASSES: usize = 3;
/// Pass number stamped on layer-replay spans in the Chrome trace.
const REPLAY_PASS: u32 = 9_999;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub trace: bool,
    /// How often the inputs are generated; `setup_s` is the median.
    pub setups: usize,
    /// Private scratch directory of this process (inside the checkout).
    pub scratch: PathBuf,
    /// Where a traced run writes its Chrome trace.
    pub trace_file: PathBuf,
}

/// What one pass hands to a workload: a fresh directory, the span recorder
/// (off in untraced passes) and, in traced passes only, the counting
/// storage backend.
pub struct PassEnv<'a> {
    pub dir: PathBuf,
    pub rec: &'a mut Recorder,
    pub vfs: Option<Arc<CountingVfs>>,
}

impl PassEnv<'_> {
    /// Opens a store the way the pass should: on the real file system
    /// untraced, through the counting backend when traced.
    pub fn open_store(
        &self,
        dir: &Path,
        allow_empty_salvage: bool,
    ) -> Result<PatternStore, StoreError> {
        let options = StoreOptions {
            allow_empty_salvage,
            ..StoreOptions::default()
        };
        match &self.vfs {
            Some(vfs) => PatternStore::open_at(vfs.clone(), dir, options),
            None => PatternStore::open_with(dir, options),
        }
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Items ingested (object·ticks, or records on `store_serve`) and the
    /// wall time of the timed ingest.
    pub ingest_items: u64,
    pub ingest_s: f64,
    /// Latency of every closed-loop operation, in microseconds.
    pub op_us: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    /// Bytes a restart needs: checkpoint file plus store segments.
    pub durable_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values read at the layer boundary during this pass.
    pub layer: Vec<(&'static str, f64)>,
}

/// Outcome of the output checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub results: Vec<(String, bool)>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.results.push((name.to_string(), ok));
    }

    pub fn failed(&self) -> u64 {
        self.results.iter().filter(|(_, ok)| !ok).count() as u64
    }
}

/// Per-layer values of a traced run, checked against the declared names.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name `spec::PER_LAYER` does not declare: an undeclared
    /// metric would silently vanish from the output.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            spec::per_layer(name).is_some(),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload {
    const NAME: &'static str;
    /// The tail percentile of `op_latency_tail_us`.
    const TAIL_Q: f64;
    /// Fewest timed passes of an untraced run: enough for `TAIL_Q` to have
    /// ten samples beyond it.
    const MIN_PASSES: usize = 2;
    type Input;
    /// State of the last pass, kept for the output checks and layer replay.
    type Artifacts;

    /// Builds the inputs from the seed.  `rec` is on in traced runs.
    fn setup(seed: u64, scale: f64, rec: &mut Recorder) -> Self::Input;
    fn sizes(input: &Self::Input) -> Vec<(&'static str, f64)>;
    fn input_digest(input: &Self::Input) -> u64;
    fn pass(input: &Self::Input, env: &mut PassEnv<'_>) -> (PassStats, Self::Artifacts);
    /// Bytes of user data behind the last pass's durable state: 20 per
    /// clustered object·tick the checkpoint holds (id and two coordinates)
    /// plus the codec payload of every stored record.
    fn user_bytes(input: &Self::Input, artifacts: &Self::Artifacts) -> u64;
    /// Checks the outputs against a second path; returns the output digest.
    fn verify(input: &Self::Input, artifacts: &Self::Artifacts, checks: &mut Checks) -> u64;
    /// Feeds the recorded inputs to each layer's public entry point.
    fn replay(
        input: &Self::Input,
        artifacts: &Self::Artifacts,
        env: &mut PassEnv<'_>,
        metrics: &mut Metrics,
    );
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// `(name, value, unit, sample count)` in declared order.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub input_digest: u64,
    pub output_digest: u64,
    pub sizes: Vec<(String, f64)>,
    pub findings: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Combines the reports of the parts of one run — each measured in a
    /// process of its own, on inputs of its own — into the report of `seed`:
    /// every metric is the median over the parts (so what differs from
    /// process to process or from input to input moves a metric only if it
    /// hit most parts), operations and failures add up, a check holds if it
    /// held in every part, and the digests are folded in part order.
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn combine(seed: u64, parts: &[Report]) -> Report {
        let mut combined = parts.first().expect("at least one part").clone();
        combined.seed = seed;
        for (i, metric) in combined.metrics.iter_mut().enumerate() {
            let values: Vec<f64> = parts.iter().map(|p| p.metrics[i].1).collect();
            metric.1 = median(&values);
            metric.3 = parts.iter().map(|p| p.metrics[i].3).sum();
        }
        combined.attempted = parts.iter().map(|p| p.attempted).sum();
        combined.failed = parts.iter().map(|p| p.failed).sum();
        for (name, ok) in &mut combined.checks {
            *ok = parts
                .iter()
                .all(|p| p.checks.iter().any(|(n, held)| n == name && *held));
        }
        let fold = |digest_of: fn(&Report) -> u64| {
            let mut digest = crate::inputs::Digest::default();
            for part in parts {
                digest.update_u64(digest_of(part));
            }
            digest.finish()
        };
        combined.input_digest = fold(|p| p.input_digest);
        combined.output_digest = fold(|p| p.output_digest);
        combined.findings = parts
            .iter()
            .flat_map(|p| p.findings.iter().cloned())
            .collect();
        combined
    }
}

struct TimedPass {
    wall_s: f64,
    stats: PassStats,
    vfs: VfsTotals,
    /// `obs.span.*.sum_ms` of the pass: registry histogram sums, after minus
    /// before.
    registry_ms: Vec<(String, f64)>,
}

/// Runs passes one at a time, keeping only the latest pass's artifacts.
struct Runner<'a, W: Workload> {
    input: &'a W::Input,
    opts: &'a RunOpts,
    rec: Recorder,
    vfs: Arc<CountingVfs>,
    passes: u32,
    artifacts: Option<W::Artifacts>,
}

impl<'a, W: Workload> Runner<'a, W> {
    fn new(input: &'a W::Input, opts: &'a RunOpts) -> Self {
        Runner {
            input,
            opts,
            rec: Recorder::new(false),
            vfs: Arc::new(CountingVfs::new()),
            passes: 0,
            artifacts: None,
        }
    }

    /// One pass on fresh state.  A traced pass runs with observability on,
    /// the harness recorder on and the counting storage backend; an
    /// untraced pass with all three off.
    fn pass(&mut self, traced: bool) -> TimedPass {
        // The previous pass's state is released before this one is timed.
        drop(self.artifacts.take());
        let number = self.passes;
        self.passes += 1;
        let dir = self.opts.scratch.join(format!("pass-{number}"));
        std::fs::create_dir_all(&dir).expect("create the pass directory");
        gpdt_obs::set_enabled(traced);
        self.rec.set_on(traced);
        self.rec.set_pass(number);
        let vfs_before = self.vfs.totals();
        let registry_before = traced.then(registry_sums);
        let mut env = PassEnv {
            dir: dir.clone(),
            rec: &mut self.rec,
            vfs: traced.then(|| self.vfs.clone()),
        };
        let wall = Instant::now();
        let root = env.rec.open("pass", u64::from(number));
        let (stats, artifacts) = W::pass(self.input, &mut env);
        env.rec.close(root);
        let wall_s = wall.elapsed().as_secs_f64();
        gpdt_obs::set_enabled(false);
        self.rec.set_on(false);
        let registry_ms = registry_before.map_or_else(Vec::new, |before| {
            registry_sums()
                .into_iter()
                .zip(before)
                .map(|((name, after), (_, before))| {
                    (spec::registry_metric(name), (after - before) as f64 / 1e6)
                })
                .collect()
        });
        self.artifacts = Some(artifacts);
        let _ = std::fs::remove_dir_all(&dir);
        TimedPass {
            wall_s,
            stats,
            vfs: self.vfs.totals().since(&vfs_before),
            registry_ms,
        }
    }
}

/// Whether another round of passes fits the time budget: a round is only
/// started when the previous one's length says it can finish in time.
fn another_round(
    rounds: usize,
    min_rounds: usize,
    started: Instant,
    last_round_s: f64,
    budget: f64,
) -> bool {
    rounds < min_rounds || started.elapsed().as_secs_f64() + last_round_s <= budget
}

/// Sum in nanoseconds of each cross-checked registry span histogram.
fn registry_sums() -> Vec<(&'static str, u64)> {
    let snapshot = gpdt_obs::registry().snapshot();
    REGISTRY_SPANS
        .iter()
        .map(|name| (*name, snapshot.histogram(name).map_or(0, |h| h.sum)))
        .collect()
}

/// Touches everything that initialises lazily — SIMD dispatch, the
/// Hausdorff cutoff probe, registry handles, the allocator's first pages —
/// so the first timed pass does not pay for it.
fn warm_up(scratch: &Path) {
    use gpdt_core::{GatheringConfig, GatheringEngine};
    use gpdt_workload::{generate_scenario, ScenarioConfig};

    std::hint::black_box(gpdt_geo::dispatch().level());
    std::hint::black_box(gpdt_geo::bucketed_pair_cutoff());
    let scenario = generate_scenario(&ScenarioConfig::small_demo(1));
    let dir = scratch.join("warmup");
    for obs in [true, false] {
        gpdt_obs::set_enabled(obs);
        let mut engine = GatheringEngine::new(GatheringConfig::paper_default());
        engine.ingest_trajectories(&scenario.database);
        std::hint::black_box(engine.gatherings().len());
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = PatternStore::open(&dir).expect("open the warm-up store");
        for record in crate::inputs::synthetic_records(32, 1) {
            store.append(record).expect("append to the warm-up store");
        }
        store.sync().expect("sync the warm-up store");
        std::hint::black_box(store.top_k_gatherings(3).len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one workload and builds its report: end-to-end metrics untraced,
/// per-layer metrics traced.
pub fn drive<W: Workload>(opts: &RunOpts) -> Report {
    let mut findings = Vec::new();
    let warm = Instant::now();
    warm_up(&opts.scratch);
    let warmup_ms = warm.elapsed().as_secs_f64() * 1e3;
    gpdt_obs::set_enabled(false);

    // Set-up, several times: the median is reported, the last is used.
    let mut setup_rec = Recorder::new(opts.trace);
    let mut setup_s = Vec::with_capacity(opts.setups);
    let mut input = None;
    for i in 0..opts.setups.max(1) {
        drop(input.take());
        setup_rec.set_pass(i as u32);
        let start = Instant::now();
        input = Some(W::setup(opts.seed, opts.scale, &mut setup_rec));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let input = input.expect("set-up ran");
    let input_digest = W::input_digest(&input);

    // Timed passes.  An untraced run times untraced passes only; a traced
    // run alternates untraced and traced passes, so that their quotient
    // (`obs.overhead_ratio`) is not an artefact of which half ran first.
    let mut runner = Runner::<W>::new(&input, opts);
    // One untimed pass first: it fills caches and the allocator, and brings
    // the machine from its after-idle speed to the speed it sustains.
    runner.pass(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let min_rounds = if opts.trace {
        MIN_TRACE_PASSES
    } else {
        W::MIN_PASSES
    };
    let started = Instant::now();
    let mut last_round_s = 0.0;
    while another_round(
        untraced.len(),
        min_rounds,
        started,
        last_round_s,
        opts.seconds,
    ) {
        let round = Instant::now();
        untraced.push(runner.pass(false));
        if opts.trace {
            traced.push(runner.pass(true));
        }
        last_round_s = round.elapsed().as_secs_f64();
    }
    let peak_rss_mib = peak_rss_mib();

    let mut checks = Checks::default();
    let artifacts = runner.artifacts.take().expect("at least one pass ran");
    let output_digest = W::verify(&input, &artifacts, &mut checks);

    let mut attempted: u64 = untraced
        .iter()
        .chain(&traced)
        .map(|p| p.stats.attempted)
        .sum();
    let mut failed: u64 = untraced.iter().chain(&traced).map(|p| p.stats.failed).sum();

    let metrics = if opts.trace {
        let mut rec = runner.rec;
        let mut metrics = Metrics::default();
        metrics.set("harness.warmup_ms", warmup_ms);
        metrics.set("harness.passes.untraced", untraced.len() as f64);
        metrics.set("harness.passes.traced", traced.len() as f64);
        for name in ["workload.generate", "clustering.dbscan"] {
            let per_setup = setup_rec.busy_ms_by_pass(name);
            if !per_setup.is_empty() {
                metrics.set(&format!("{name}.busy_ms"), median(&per_setup));
            }
        }
        layer_metrics_of_passes(&traced, &rec, &mut metrics);
        // Each traced pass against the untraced pass that ran just before it.
        let ratios: Vec<f64> = traced
            .iter()
            .zip(&untraced)
            .map(|(with, without)| with.wall_s / without.wall_s)
            .collect();
        metrics.set("obs.overhead_ratio", median(&ratios));

        rec.set_on(true);
        rec.set_pass(REPLAY_PASS);
        let dir = opts.scratch.join("replay");
        std::fs::create_dir_all(&dir).expect("create the replay directory");
        let mut env = PassEnv {
            dir: dir.clone(),
            rec: &mut rec,
            vfs: None,
        };
        W::replay(&input, &artifacts, &mut env, &mut metrics);
        let _ = std::fs::remove_dir_all(&dir);
        let records = metrics.get("store.append.records");
        if records > 0.0 {
            metrics.set(
                "store.vfs.writes_per_record",
                metrics.get("store.vfs.writes") / records,
            );
        }

        findings.extend(trace_findings(&metrics));
        if let Some(parent) = opts.trace_file.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(err) = std::fs::write(&opts.trace_file, rec.to_chrome_trace()) {
            findings.push(format!(
                "could not write {}: {err}",
                opts.trace_file.display()
            ));
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, metrics.get(m.name), m.unit, traced.len()))
            .collect()
    } else {
        let passes = untraced.len();
        let of = |f: &dyn Fn(&TimedPass) -> f64| -> f64 {
            median(&untraced.iter().map(f).collect::<Vec<f64>>())
        };
        let pooled = |f: &dyn Fn(&PassStats) -> &Vec<f64>| -> Vec<f64> {
            untraced
                .iter()
                .flat_map(|p| f(&p.stats).iter().copied())
                .collect()
        };
        let op_samples: Vec<Vec<f64>> = untraced.iter().map(|p| p.stats.op_us.clone()).collect();
        let (tail_us, tail_n) = tail(&op_samples, W::TAIL_Q).unwrap_or_else(|| {
            checks.check("op_latency_tail_us has ten samples beyond it", false);
            let pool = sorted(op_samples.iter().flatten().copied().collect());
            (pool.last().copied().unwrap_or(0.0), pool.len())
        });
        let checkpoint_ms = pooled(&|s| &s.checkpoint_ms);
        let recover_ms = pooled(&|s| &s.recover_ms);
        let values: [(f64, usize); 9] = [
            (median(&setup_s), setup_s.len()),
            (
                of(&|p| p.stats.ingest_items as f64 / p.stats.ingest_s),
                passes,
            ),
            (
                of(&|p| percentile(&sorted(p.stats.op_us.clone()), 0.5)),
                op_samples[0].len(),
            ),
            (tail_us, tail_n),
            (median(&checkpoint_ms), checkpoint_ms.len()),
            (
                untraced.last().expect("passes ran").stats.durable_bytes as f64
                    / (W::user_bytes(&input, &artifacts) as f64).max(1.0),
                1,
            ),
            (median(&recover_ms), recover_ms.len()),
            (of(&|p| p.wall_s), passes),
            (peak_rss_mib, 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (value, n))| (m.name, value, m.unit, n))
            .collect()
    };

    attempted += checks.results.len() as u64;
    failed += checks.failed();
    Report {
        workload: W::NAME,
        seed: opts.seed,
        trace: opts.trace,
        metrics,
        attempted,
        failed,
        checks: checks.results,
        input_digest,
        output_digest,
        sizes: W::sizes(&input)
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        findings,
    }
}

/// Per-layer metrics every workload derives the same way from its traced
/// passes: values read at layer boundaries, span totals, storage-backend
/// counts, registry sums and the unattributed share of the pass.
fn layer_metrics_of_passes(traced: &[TimedPass], rec: &Recorder, metrics: &mut Metrics) {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in traced {
        for (name, value) in &pass.stats.layer {
            by_name.entry(name).or_default().push(*value);
        }
        for (name, value) in &pass.registry_ms {
            by_name.entry(name).or_default().push(*value);
        }
    }
    for (name, values) in by_name {
        metrics.set(name, median(&values));
    }
    // A span named after a `*.busy_ms` metric is that layer's busy time.
    for spec in PER_LAYER.iter().filter(|m| m.name.ends_with(".busy_ms")) {
        let per_pass = rec.busy_ms_by_pass(spec.name.trim_end_matches(".busy_ms"));
        if !per_pass.is_empty() {
            metrics.set(spec.name, median(&per_pass));
        }
    }
    let of = |f: &dyn Fn(&VfsTotals) -> u64| -> f64 {
        median(
            &traced
                .iter()
                .map(|p| f(&p.vfs) as f64)
                .collect::<Vec<f64>>(),
        )
    };
    metrics.set("store.vfs.writes", of(&|v| v.writes));
    metrics.set("store.vfs.bytes_written", of(&|v| v.bytes_written));
    metrics.set("store.vfs.fsyncs", of(&|v| v.fsyncs));
    metrics.set("store.vfs.write.busy_ms", of(&|v| v.write_ns) / 1e6);
    metrics.set("store.vfs.fsync.busy_ms", of(&|v| v.fsync_ns) / 1e6);
    let self_ns = self_times_ns(rec.spans());
    let shares: Vec<f64> = rec
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(span, _)| span.name == "pass" && span.duration_ns() > 0)
        .map(|(span, own)| *own as f64 / span.duration_ns() as f64)
        .collect();
    metrics.set("harness.unattributed_share", median(&shares));
}

/// The guards and cross-checks a traced run reports as findings (never as
/// failures): tracing overhead, unattributed time, registry gaps.
fn trace_findings(metrics: &Metrics) -> Vec<String> {
    let mut findings = Vec::new();
    let overhead = metrics.get("obs.overhead_ratio");
    if overhead > 1.05 {
        findings.push(format!(
            "obs.overhead_ratio {overhead:.3} is above the 1.05 ceiling"
        ));
    }
    let unattributed = metrics.get("harness.unattributed_share");
    if unattributed > 0.10 {
        findings.push(format!(
            "harness.unattributed_share {unattributed:.3} is above 0.10"
        ));
    }
    for (inside, outside) in CROSS_CHECKS {
        let inside_ms: f64 = inside
            .iter()
            .map(|histogram| metrics.get(&spec::registry_metric(histogram)))
            .sum();
        let outside_ms = metrics.get(outside);
        if inside_ms > 0.0 && outside_ms > 0.0 {
            let gap = (outside_ms - inside_ms) / outside_ms;
            if gap.abs() > 0.15 {
                findings.push(format!(
                    "registry {} sums to {inside_ms:.1} ms inside the program, {outside} reads \
                     {outside_ms:.1} ms from outside: gap {:+.0} % of the outside number",
                    inside.join(" + "),
                    gap * 100.0
                ));
            }
        }
    }
    findings
}

/// `VmHWM` of this process in MiB (Linux; `0` where `/proc` is missing).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---- helpers shared by the workloads ----

pub fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

pub fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Bytes of user data in the clusters of the ticks before `end`: a `u32` id
/// and two `f64` coordinates per member.
pub fn clustered_point_bytes(clusters: &ClusterDatabase, end: Timestamp) -> u64 {
    clusters
        .iter()
        .filter(|set| set.time < end)
        .flat_map(|set| set.clusters.iter())
        .map(|c| c.len() as u64 * 20)
        .sum()
}

/// Codec payload bytes of a record set.
pub fn payload_bytes(records: &[PatternRecord]) -> u64 {
    records.iter().map(|r| encode_to_vec(r).len() as u64).sum()
}

/// Copies the regular files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Total size of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    })
}

/// Appends a torn half-frame to the last segment of a store directory: a
/// length prefix promising 200 bytes followed by only 100, which is what a
/// crash in the middle of an append leaves behind.
pub fn tear_tail(store_dir: &Path) -> std::io::Result<()> {
    let last = std::fs::read_dir(store_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "gpdt"))
        .max()
        .ok_or_else(|| std::io::Error::other("store directory has no segment"))?;
    let mut file = std::fs::OpenOptions::new().append(true).open(last)?;
    file.write_all(&200u32.to_le_bytes())?;
    file.write_all(&[0xAB; 100])
}
