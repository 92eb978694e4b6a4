//! Seed sweeps: [`run_sweep`] runs one scenario per seed on scoped
//! worker threads, and the env knobs size the sweeps.
//!
//! A sweep takes an explicit seed list and returns the per-seed points
//! **in seed order**, bit-identical to the serial loop at any
//! `QNP_THREADS`: each run is a pure function of its seed, and each
//! result is stored by seed index, never by completion order.
//! Aggregation (means over seeds) always folds in seed order for the
//! same reason.

use qn_hardware::device::QubitId;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::pairs::PairStore;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Read an unsigned env-var knob; unset means `default`.
///
/// # Panics
///
/// If the variable is set to anything that is not an unsigned integer
/// (`QNP_RUNS=2x`): a typo'd knob must not silently run the default
/// sweep, the rule `QNP_THREADS` already follows.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            panic!(
                "invalid {name}={raw:?}: must be an unsigned integer \
                 (unset it to use the default {default})"
            )
        }),
    }
}

/// `QNP_RUNS` (seeds per configuration).
pub fn runs(default: u64) -> u64 {
    env_u64("QNP_RUNS", default)
}

/// `QNP_PAIRS` (pairs per request for Fig 8).
pub fn pairs(default: u64) -> u64 {
    env_u64("QNP_PAIRS", default)
}

/// `QNP_WIRE` — run wire-aware scenarios (Fig 9 and the open-world
/// workloads) with `signalling_on_wire` (link announcements + routing
/// INSTALL/TEARDOWN as classical-plane frames, acked and retransmitted).
/// Off by default: the baselines in `baselines/` pin the idealised
/// planes, and a `QNP_WIRE=1` run is diffed against its own reference
/// in `baselines/wire/` instead.
pub fn wire_on() -> bool {
    env_u64("QNP_WIRE", 0) != 0
}

/// `QNP_THREADS` (sweep worker threads), defaulting to the machine's
/// available parallelism (at least 1).
///
/// # Panics
///
/// If `QNP_THREADS` is set to zero or anything that is not a positive
/// integer: a typo'd knob must not silently run on a different thread
/// count.
pub fn threads() -> usize {
    match std::env::var("QNP_THREADS") {
        Err(_) => thread::available_parallelism().map_or(1, |n| n.get()),
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!(
                "invalid QNP_THREADS={raw:?}: must be a positive integer \
                 (unset it to use the detected parallelism)"
            ),
        },
    }
}

/// The consecutive seed block `base..base + n` every figure sweeps over.
pub fn seed_block(base: u64, n: u64) -> Vec<u64> {
    (base..base + n).collect()
}

/// Mean over the finite entries; NaN if none are finite.
pub fn mean_finite(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        if v.is_finite() {
            sum += v;
            count += 1;
        }
    }
    if count > 0 {
        sum / count as f64
    } else {
        f64::NAN
    }
}

/// Run `f` once per seed on [`threads()`] workers; the points come
/// back in seed order. See [`run_sweep_with`].
pub fn run_sweep<P: Send>(seeds: &[u64], f: impl Fn(u64) -> P + Sync) -> Vec<P> {
    run_sweep_with(threads(), seeds, f)
}

/// Run `f` once per seed on `threads` scoped workers.
///
/// For any thread count:
///
/// * `result[i]` is `f(seeds[i])`: workers claim seed indices from a
///   shared counter and store each result in that index's slot;
/// * the output is **bit-identical** to the serial loop, which runs
///   when `threads` or the seed count is at most 1;
/// * if any run panics, every other run still finishes, and then the
///   panic of the **first failing seed** (in seed order) is re-raised
///   with its own payload, so failures are as deterministic as
///   successes.
pub fn run_sweep_with<P: Send>(
    threads: usize,
    seeds: &[u64],
    f: impl Fn(u64) -> P + Sync,
) -> Vec<P> {
    let workers = threads.min(seeds.len());
    if workers <= 1 {
        return seeds.iter().map(|&seed| f(seed)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<thread::Result<P>>>> =
        seeds.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Relaxed: the counter only hands out indices; the slot
                // mutexes and the scope's join publish the results.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(seed)));
                *slots[i].lock().expect("no run panics holding a slot") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let outcome = slot.into_inner().expect("no run panics holding a slot");
            match outcome.expect("every seed index is claimed once") {
                Ok(point) => point,
                Err(payload) => panic::resume_unwind(payload),
            }
        })
        .collect()
}

/// One Fig 5 sample: the wall-clock wait for a heralded link-pair and
/// the oracle fidelity of the *previous* pair after idling in electron
/// memory for that wait (the steady-state link pipeline: each pair
/// waits for its successor before being consumed).
#[derive(Clone, Copy, Debug)]
pub struct Fig5Sample {
    /// Generation time of the pair (ms).
    pub time_ms: f64,
    /// Oracle fidelity to the announced Bell state after idling for
    /// `time_ms` with the simulation hardware's electron T1/T2.
    pub fidelity: f64,
}

/// Fig 5 sweep: the `total`-sample budget is split into chunks of
/// `chunk`, each drawing from its own RNG substream (chunk index =
/// sweep seed, computed here — unlike the figure sweeps there is no
/// meaningful external seed axis), so the sample set is independent of
/// the thread count. The last chunk draws only the remainder: exactly
/// `total` samples come back.
///
/// Each sample also drives the full quantum kernel — heralded-state
/// construction, T1/T2 memory decay, oracle fidelity — through the
/// representation selected by `QNP_QSTATE`, from a *separate* RNG
/// substream so the generation-time statistics stay bit-identical to
/// the pre-quantum-leg baselines.
pub fn fig5_sweep(chunk: u64, total: u64, fidelity: f64) -> Vec<Vec<Fig5Sample>> {
    let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
    let alpha = physics
        .alpha_for_fidelity(fidelity)
        .expect("fidelity attainable in the lab configuration");
    let p = physics.success_prob(alpha);
    let cycle_ms = physics.cycle_time().as_millis_f64();
    let rep = StateRep::from_env();
    let chunk_indices = seed_block(0, total.div_ceil(chunk));
    run_sweep(&chunk_indices, |index| {
        let mut rng = SimRng::substream_indexed(1, "fig5", index);
        let mut qrng = SimRng::substream_indexed(1, "fig5q", index);
        let mut store = PairStore::new(rep);
        let params = *physics.params();
        let n = chunk.min(total.saturating_sub(index * chunk));
        (0..n)
            .map(|_| {
                let time_ms = cycle_ms * rng.geometric(p) as f64;
                let announced = physics.sample_announced(&mut qrng);
                let state = physics.heralded_pair(alpha, announced, rep);
                let id = store.create_pair(
                    SimTime::ZERO,
                    state,
                    announced,
                    [
                        (
                            NodeId(0),
                            QubitId(0),
                            params.electron_t1,
                            params.electron_t2,
                        ),
                        (
                            NodeId(1),
                            QubitId(0),
                            params.electron_t1,
                            params.electron_t2,
                        ),
                    ],
                );
                let idle = SimTime::ZERO + SimDuration::from_secs_f64(time_ms / 1e3);
                let f = store.fidelity_to(id, announced, idle);
                store.discard(id);
                Fig5Sample {
                    time_ms,
                    fidelity: f,
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_parse() {
        assert_eq!(env_u64("QNP_NOT_SET_EVER", 7), 7);
    }

    #[test]
    fn seed_block_is_consecutive() {
        assert_eq!(seed_block(1000, 3), vec![1000, 1001, 1002]);
        assert!(seed_block(5, 0).is_empty());
    }

    #[test]
    fn mean_finite_skips_nan() {
        assert_eq!(mean_finite([1.0, f64::NAN, 3.0]), 2.0);
        assert!(mean_finite([f64::NAN]).is_nan());
    }

    #[test]
    fn results_come_back_in_seed_order() {
        // Seed 0 cannot finish before seed 1 has, so completion order
        // inverts seed order on every run.
        let (finished, wake) = (Mutex::new(false), std::sync::Condvar::new());
        let out = run_sweep_with(2, &[0, 1], |seed| {
            let mut done = finished.lock().expect("no panic holding the flag");
            if seed == 1 {
                *done = true;
                wake.notify_all();
            }
            while !*done {
                done = wake.wait(done).expect("no panic holding the flag");
            }
            seed * 10
        });
        assert_eq!(out, [0, 10]);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let seeds: Vec<u64> = (0..40).collect();
        let f = |seed: u64| {
            // A deterministic but seed-sensitive computation.
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xdead_beef;
            for _ in 0..100 {
                x = x.rotate_left(17).wrapping_mul(0xc2b2ae3d27d4eb4f);
            }
            x
        };
        let serial: Vec<u64> = seeds.iter().map(|&seed| f(seed)).collect();
        // Zero threads runs the serial path rather than nothing.
        for threads in [0, 1, 2, 3, 8] {
            assert_eq!(
                run_sweep_with(threads, &seeds, f),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn first_failing_seed_panic_wins() {
        let seeds: Vec<u64> = (0..8).collect();
        let err = panic::catch_unwind(|| {
            run_sweep_with(4, &seeds, |seed| {
                if seed >= 3 {
                    panic!("seed {seed} failed");
                }
                seed
            })
        })
        .expect_err("sweep must propagate the panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "seed 3 failed");
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let none: Vec<u64> = run_sweep_with(8, &[], |s| s);
        assert!(none.is_empty());
        assert_eq!(run_sweep_with(8, &[41], |s| s + 1), vec![42]);
    }
}
