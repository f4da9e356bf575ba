//! The `GPDT_*` environment variables, in one table.
//!
//! The six the benchmark harness reads are parsed here and nowhere else.  The
//! other six belong to `gpdt-geo` (one) and `gpdt-obs` (five), which read them
//! where they act on them; this module only documents those.
//!
//! | Variable | Read by | Meaning |
//! |---|---|---|
//! | `GPDT_SCALE` | [`scale`] | global size multiplier for scenario presets (a float in `(0, 100]`, default 1.0) |
//! | `GPDT_BENCH_RUNS` | [`runs`] | timed repetitions per measurement, best-of-N, after one warmup run when N > 1 (default 1) |
//! | `GPDT_BENCH_DIR` | [`report_dir`] | directory receiving the `BENCH_*.json` reports (default: cwd) |
//! | `GPDT_SCRATCH_DIR` | [`scratch_dir`] | parent for throwaway on-disk state (stores, checkpoints); default: the system temp dir |
//! | `GPDT_MEM_BUDGET` | [`mem_budget`] | cluster-arena byte budget for out-of-core ingest, with optional `k`/`m`/`g` suffix (default: a conservative share of the machine's memory) |
//! | `GPDT_FAULT_SEED` | [`fault_seed`] | arms the fault-injection VFS in binaries that support it (`fig5`, `fault`) with this deterministic seed; unset = real filesystem, no faults |
//! | `GPDT_SIMD` | `gpdt_geo::simd::dispatch` | pins the geometry kernel level: `off`/`scalar`, `sse2`, `avx2`, or `auto` (default: best level the CPU supports; every level is bit-identical, so this only affects speed) |
//! | `GPDT_OBS` | `gpdt_obs::enabled` | observability gate: `off`/`0`/`false` disables the metrics registry, stage spans and flight recorder (default: on; telemetry never changes results — the fig5 byte-compare CI step holds the stack to that) |
//! | `GPDT_OBS_DUMP` | `gpdt_obs::dump_path` | destination of flight-recorder JSON dumps, written on panic, on degraded-mode entry and at the end of fault-injection runs (default: `gpdt-flightrec.json` under the system temp dir) |
//! | `GPDT_METRICS_ADDR` | `gpdt_obs::telemetry_from_env` | binds the live telemetry endpoint (`/metrics` Prometheus exposition, `/health` JSON, `/flightrec`) on `host:port` (port `0` = OS-assigned) and implies the sampler; unset = no listener (the default) |
//! | `GPDT_OBS_SAMPLE_MS` | `gpdt_obs::sample_interval_from_env` | cadence of the windowed time-series sampler in milliseconds (default 250); setting it starts the sampler + SLO watchdog even without an endpoint |
//! | `GPDT_TRACE` | `gpdt_obs::trace` | writes every `span!` as a Chrome trace-event (`chrome://tracing` / Perfetto) to this path at the end of fig-bin runs; unset = no capture |

use std::path::PathBuf;

/// The largest `GPDT_SCALE` accepted: ten times the largest any script uses,
/// and small enough that no preset count overflows when multiplied by it.
const MAX_SCALE: f64 = 100.0;

/// The global scale factor read from `GPDT_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("GPDT_SCALE")
        .ok()
        .and_then(|v| parse_scale(&v))
        .unwrap_or(1.0)
}

/// A scale factor in `(0, MAX_SCALE]`; `None` for anything else (`inf` and
/// `NaN` parse as floats, so the range check is what rejects them).
fn parse_scale(s: &str) -> Option<f64> {
    let v = s.trim().parse::<f64>().ok()?;
    (v > 0.0 && v <= MAX_SCALE).then_some(v)
}

/// Timed repetitions per measurement from `GPDT_BENCH_RUNS` (default 1).
pub fn runs() -> usize {
    std::env::var("GPDT_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(1)
}

/// The directory `BENCH_*.json` reports are written to: `GPDT_BENCH_DIR`,
/// defaulting to the current directory.
pub fn report_dir() -> PathBuf {
    std::env::var_os("GPDT_BENCH_DIR").map_or_else(PathBuf::new, PathBuf::from)
}

/// A fresh scratch directory for throwaway on-disk state (pattern stores,
/// checkpoints): `<GPDT_SCRATCH_DIR or system temp>/gpdt-<tag>-<pid>`.
///
/// The directory is *not* created — stores create their own — but any
/// previous leftover under the same name is removed, so crashed runs cannot
/// poison the next one.  Callers should remove it when done.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("GPDT_SCRATCH_DIR").map_or_else(std::env::temp_dir, PathBuf::from);
    let dir = base.join(format!("gpdt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The cluster-arena memory budget from `GPDT_MEM_BUDGET` (bytes, optional
/// case-insensitive `k`/`m`/`g` binary suffix; e.g. `256m`).
///
/// Unset or unparsable values fall back to `default_mem_budget`, matching
/// the other variables' parse-failure behaviour.
pub fn mem_budget() -> usize {
    std::env::var("GPDT_MEM_BUDGET")
        .ok()
        .and_then(|v| parse_bytes(&v))
        .filter(|&b| b > 0)
        .unwrap_or_else(default_mem_budget)
}

/// The fault-injection seed from `GPDT_FAULT_SEED`, or `None` when unset
/// or unparsable (the default: run on the real filesystem, no faults).
///
/// Binaries that support fault injection (`fig5`, `fault`) use this seed to
/// build a deterministic [`gpdt_store::FaultVfs`] plan, so a failing sweep
/// is reproducible by exporting the same seed.
pub fn fault_seed() -> Option<u64> {
    std::env::var("GPDT_FAULT_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
}

/// Parses a byte count with an optional binary suffix (`k`, `m`, `g`).
fn parse_bytes(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, unit) = match t.as_bytes().last()? {
        b'k' | b'K' => (&t[..t.len() - 1], 1usize << 10),
        b'm' | b'M' => (&t[..t.len() - 1], 1 << 20),
        b'g' | b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.trim().parse::<usize>().ok()?.checked_mul(unit)
}

/// The conservative default budget when `GPDT_MEM_BUDGET` is unset: a
/// quarter of the machine's available memory (total memory when
/// availability is not reported), clamped to [64 MiB, 4 GiB]; 512 MiB when
/// `/proc/meminfo` is unreadable (non-Linux hosts, locked-down containers).
///
/// The budget covers the dominant allocation — the per-tick cluster arenas —
/// not the whole process, hence the conservative quarter.
fn default_mem_budget() -> usize {
    const MIN: usize = 64 << 20;
    const MAX: usize = 4 << 30;
    const FALLBACK: usize = 512 << 20;
    meminfo_kib()
        .map_or(FALLBACK, |kib| (kib.saturating_mul(1024)) / 4)
        .clamp(MIN, MAX)
}

/// Reads `MemAvailable` (preferring it) or `MemTotal` from `/proc/meminfo`,
/// in KiB.
fn meminfo_kib() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let field = |key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    field("MemAvailable:").or_else(|| field("MemTotal:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_without_env() {
        // The test environment sets none of the variables.
        assert!(scale() > 0.0);
        assert!(runs() >= 1);
        assert!(report_dir().as_os_str().is_empty() || report_dir().is_dir());
        assert!(mem_budget() >= 64 << 20);
        assert_eq!(fault_seed(), None);
    }

    #[test]
    fn scale_must_be_positive_finite_and_bounded() {
        for garbage in ["inf", "-inf", "NaN", "1e300", "0", "-1", "", "ten"] {
            assert_eq!(parse_scale(garbage), None, "{garbage:?}");
        }
        assert_eq!(parse_scale("  0.05 "), Some(0.05));
        assert_eq!(parse_scale("10"), Some(10.0));
        assert_eq!(parse_scale("100"), Some(MAX_SCALE));
        assert_eq!(parse_scale("100.5"), None);
    }

    #[test]
    fn byte_sizes_parse_with_and_without_suffix() {
        assert_eq!(parse_bytes("1048576"), Some(1 << 20));
        assert_eq!(parse_bytes("16k"), Some(16 << 10));
        assert_eq!(parse_bytes("256M"), Some(256 << 20));
        assert_eq!(parse_bytes(" 2 g "), Some(2 << 30));
        assert_eq!(parse_bytes("garbage"), None);
        assert_eq!(parse_bytes("-1m"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("99999999999999999999g"), None);
    }

    #[test]
    fn scratch_dir_is_unique_per_tag_and_clean() {
        let a = scratch_dir("env-test-a");
        let b = scratch_dir("env-test-b");
        assert_ne!(a, b);
        assert!(!a.exists(), "scratch dir must start clean");
        std::fs::create_dir_all(&a).unwrap();
        std::fs::write(a.join("junk"), b"x").unwrap();
        // Re-requesting the same tag wipes the leftover.
        let a2 = scratch_dir("env-test-a");
        assert_eq!(a, a2);
        assert!(!a2.exists());
    }
}
