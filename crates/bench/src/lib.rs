//! Benchmark and figure-regeneration harness.
//!
//! Every experiment figure of the paper's evaluation (§IV) has a binary in
//! `src/bin/` that regenerates the corresponding table of numbers:
//!
//! | Paper figure | Binary | What it prints |
//! |---|---|---|
//! | Fig 5a/5b | `fig5` | pattern counts per time-of-day regime and weather |
//! | Fig 6a/6b/6c | `fig6` | crowd-discovery runtime for SR/IR/GRID vs `mc`, `δ`, `|ODB|` |
//! | Fig 7a/7b/7c | `fig7` | gathering-detection runtime for brute-force/TAD/TAD\* vs `mp`, `kp`, `Cr.τ` |
//! | Fig 8a/8b | `fig8` | incremental vs re-computation runtimes |
//!
//! Kernel-level microbenchmarks are the `micro` binary; the crash lattice is
//! `fault`.
//!
//! The library part of this crate holds the pieces the binaries share:
//! deterministic synthetic-crowd construction ([`synth`]), scaled-down
//! scenario presets ([`scenarios`]) and measurement/table helpers
//! ([`report`]).

pub mod env;
pub mod fault_sweep;
pub mod out_of_core;
pub mod report;
pub mod scenarios;
pub mod synth;

pub use fault_sweep::{crash_lattice, LatticeConfig, LatticeOutcome};
pub use out_of_core::{ingest_resilient, OutOfCoreReport};
pub use report::{measure, measure_with, BenchReport, MeasureOpts, Table};
pub use scenarios::{clustered_scenario, ClusteredScenario};
