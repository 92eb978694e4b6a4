//! Edge cases of the sweep runner: degenerate seed lists, thread
//! counts exceeding the work, deterministic panic propagation and the
//! `QNP_THREADS` knob.

use qn_bench::{run_sweep_with, threads};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A zero-seed sweep is a no-op at any thread count: no worker starts,
/// and the result is simply empty.
#[test]
fn zero_seed_sweeps_are_empty() {
    for threads in [1usize, 2, 8, 64] {
        let out: Vec<u64> = run_sweep_with(threads, &[], |s| s * 3);
        assert!(out.is_empty(), "threads={threads}");
    }
}

/// More workers than seeds: every seed still runs exactly once and
/// results stay in seed order.
#[test]
fn more_threads_than_seeds() {
    let runs = AtomicUsize::new(0);
    let out = run_sweep_with(64, &[10, 20, 30], |seed| {
        runs.fetch_add(1, Ordering::SeqCst);
        seed + 1
    });
    assert_eq!(out, vec![11, 21, 31]);
    assert_eq!(runs.into_inner(), 3, "each seed runs exactly once");
}

/// When several seeds panic, the panic re-raised is the one of the
/// *first failing seed index*, even if a later seed finishes (and
/// fails) first. Failures are as deterministic as successes.
#[test]
fn first_failing_seed_wins_regardless_of_completion_order() {
    let seeds: Vec<u64> = (0..8).collect();
    // Seed 2, the earliest to fail, waits until seed 5 has failed.
    let (five_failed, wake) = (Mutex::new(false), Condvar::new());
    let err = panic::catch_unwind(|| {
        run_sweep_with(4, &seeds, |seed| {
            if seed == 2 {
                let mut failed = five_failed.lock().expect("no panic holding the flag");
                while !*failed {
                    failed = wake.wait(failed).expect("no panic holding the flag");
                }
                drop(failed);
                panic!("seed index 2 failed");
            }
            if seed == 5 {
                *five_failed.lock().expect("no panic holding the flag") = true;
                wake.notify_all();
            }
            if seed >= 5 {
                panic!("seed index {seed} failed");
            }
            seed
        })
    })
    .expect_err("sweep must propagate a panic");
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert_eq!(msg, "seed index 2 failed");
}

/// A panic at the very first seed index propagates with its payload.
#[test]
fn panic_at_index_zero_propagates() {
    let err = panic::catch_unwind(|| {
        run_sweep_with(3, &[7, 8, 9], |seed| {
            if seed == 7 {
                panic!("boom at the head");
            }
            seed
        })
    })
    .expect_err("sweep must propagate the panic");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "boom at the head");
}

/// `QNP_THREADS` parsing: unset uses the detected default, positive
/// integers are honoured, and zero or garbage **fails fast** — a typo'd
/// knob must never silently degrade to a different thread count. Runs
/// in one test to keep the env-var mutation sequential; no other test
/// in this file reads the variable.
#[test]
fn qnp_threads_parsing() {
    let default = {
        std::env::remove_var("QNP_THREADS");
        threads()
    };
    assert!(default >= 1);

    std::env::set_var("QNP_THREADS", "3");
    assert_eq!(threads(), 3);

    for bad in ["0", "not-a-number", "-2", ""] {
        std::env::set_var("QNP_THREADS", bad);
        let err = panic::catch_unwind(threads)
            .expect_err("zero/garbage QNP_THREADS must fail fast, not fall back");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("invalid QNP_THREADS") && msg.contains("positive integer"),
            "QNP_THREADS={bad:?} panic message: {msg:?}"
        );
    }

    std::env::remove_var("QNP_THREADS");
    assert_eq!(threads(), default);
}
