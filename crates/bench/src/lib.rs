//! # qn-bench — benchmark harnesses reproducing the paper's evaluation
//!
//! One `cargo bench` target per table/figure of the paper (all
//! `harness = false`, printing the same rows/series the paper plots),
//! plus Criterion micro-benchmarks of the core data structures, which
//! print their timings and write no baseline.
//!
//! The crate is split by responsibility:
//!
//! * [`scenarios`] — one simulation run of one configuration at one
//!   seed; pure functions of their arguments;
//! * [`sweep`] — [`run_sweep`], which runs one scenario per seed on
//!   scoped worker threads (bit-identical to serial at any
//!   `QNP_THREADS`), the Fig 5 sample sweep and the env knobs;
//! * [`report`] — machine-readable JSON baselines
//!   (`target/qnp-bench/<figure>.json`) and the equality check behind
//!   `cargo run --example bench_diff`;
//! * [`shapes`] — the paper-shape assertions of the figure benches.
//!
//! Environment knobs (documented in EXPERIMENTS.md):
//!
//! * `QNP_RUNS` — number of seeds averaged per configuration (default
//!   varies per figure; the paper uses 100);
//! * `QNP_PAIRS` — pairs per request for Fig 8 (paper: 100);
//! * `QNP_THREADS` — sweep worker threads (default: available
//!   parallelism);
//! * `QNP_BASELINE_DIR` — where JSON baselines land (default
//!   `target/qnp-bench`).

pub mod report;
pub mod scenarios;
pub mod shapes;
pub mod sweep;

pub use report::{baseline_dir, diff_baselines, diff_dirs, Baseline, DiffReport, FigureDiff, Json};
pub use scenarios::*;
pub use shapes::Shapes;
pub use sweep::*;
