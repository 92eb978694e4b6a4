//! # qn-exec — deterministic parallel experiment engine
//!
//! The paper's evaluation averages every figure over ~100 independent
//! seeds; those sweeps are embarrassingly parallel across seeds. This
//! crate provides the machinery to exploit that **without giving up the
//! workspace's determinism invariant** (equal seeds ⇒ bit-identical
//! results):
//!
//! * [`ThreadPool`] — a hand-rolled, work-distributing pool built on
//!   `std::thread` and `std::sync::mpsc` channels only (the build
//!   environment has no crates.io access, so no rayon);
//! * [`Scenario`] / [`run_sweep`] — a seed-sweep abstraction that farms
//!   one simulation per seed out to the pool and returns the points **in
//!   seed order**, bit-identical to the serial path regardless of thread
//!   count.
//!
//! Determinism holds because each scenario run is a pure function of its
//! seed (the simulation stack shares no mutable state between runs) and
//! results are committed by job index, not completion order. Worker
//! panics are caught per job and re-raised on the submitting thread,
//! first failing seed first.
//!
//! The thread count comes from the `QNP_THREADS` environment variable,
//! defaulting to the machine's available parallelism (see [`threads`]).

mod pool;
mod sweep;

pub use pool::ThreadPool;
pub use sweep::{run_sweep, run_sweep_with, threads, Scenario};
