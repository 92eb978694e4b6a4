//! Sweep definitions: each figure's per-seed loop, hoisted out of the
//! bench targets and run through the `qn_exec` parallel engine.
//!
//! Every function here takes an explicit seed list and returns the
//! per-seed points **in seed order**; `qn_exec` guarantees the result is
//! bit-identical to the serial loop at any `QNP_THREADS`. Aggregation
//! (means over seeds) always folds in seed order for the same reason.

use crate::scenarios::{
    chain_point_scenario, cutoff_point_scenario, fig10ab_scenario, fig10c_scenario, fig11_scenario,
    fig8_scenario, fig9_scenario, wide_dumbbell_scenario, ChainPoint, CutoffPoint, Fig10Point,
    Fig10Variant, Fig10cPoint, Fig8Point, Fig9Point, WideDumbbellPoint,
};
use qn_exec::run_sweep;
use qn_hardware::device::QubitId;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::pairs::PairStore;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_routing::{CircuitPlan, CutoffPolicy};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

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

/// `QNP_WIRE` — run wire-aware scenarios with `signalling_on_wire`
/// (link announcements + routing INSTALL/TEARDOWN as classical-plane
/// frames, acked and retransmitted). Off by default: the committed
/// baselines pin the idealised planes, so a `QNP_WIRE=1` run is
/// informational and must not be diffed against them.
pub fn wire_on() -> bool {
    env_u64("QNP_WIRE", 0) != 0
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
    run_sweep(
        move |index: u64| {
            let mut rng = SimRng::substream_indexed(1, "fig5", index);
            let mut qrng = SimRng::substream_indexed(1, "fig5q", index);
            let mut store = PairStore::with_rep(rep);
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
        },
        &chunk_indices,
    )
}

/// Fig 8 sweep: one multiplexing run per seed.
#[allow(clippy::too_many_arguments)]
pub fn fig8_sweep(
    seeds: &[u64],
    n_circuits: usize,
    n_requests: usize,
    n_pairs: u64,
    fidelity: f64,
    cutoff: CutoffPolicy,
    horizon: SimDuration,
) -> Vec<Fig8Point> {
    run_sweep(
        move |seed: u64| {
            fig8_scenario(
                seed, n_circuits, n_requests, n_pairs, fidelity, cutoff, horizon,
            )
        },
        seeds,
    )
}

/// Fig 9 sweep: one latency/throughput run per seed.
pub fn fig9_sweep(seeds: &[u64], congested: bool, interval: SimDuration) -> Vec<Fig9Point> {
    run_sweep(
        move |seed: u64| fig9_scenario(seed, congested, interval),
        seeds,
    )
}

/// Open-world workload sweep: one sustained-traffic run per seed.
pub fn openworld_sweep(
    seeds: &[u64],
    cfg: &crate::scenarios::OpenWorldConfig,
) -> Vec<crate::scenarios::OpenWorldPoint> {
    let cfg = cfg.clone();
    run_sweep(
        move |seed: u64| crate::scenarios::openworld_scenario(seed, &cfg),
        seeds,
    )
}

/// Chaos workload sweep: one component-fault churn run per seed.
pub fn chaos_sweep(
    seeds: &[u64],
    cfg: &crate::scenarios::ChaosConfig,
) -> Vec<crate::scenarios::ChaosPoint> {
    let cfg = cfg.clone();
    run_sweep(
        move |seed: u64| crate::scenarios::chaos_scenario(seed, &cfg),
        seeds,
    )
}

/// Fig 10a,b sweep: one decoherence run per seed.
pub fn fig10ab_sweep(seeds: &[u64], t2: f64, variant: Fig10Variant) -> Vec<Fig10Point> {
    run_sweep(move |seed: u64| fig10ab_scenario(seed, t2, variant), seeds)
}

/// Fig 10c sweep: one message-delay run per seed.
pub fn fig10c_sweep(seeds: &[u64], extra_delay: SimDuration) -> Vec<Fig10cPoint> {
    run_sweep(move |seed: u64| fig10c_scenario(seed, extra_delay), seeds)
}

/// Fig 11 sweep: one near-term run per seed.
pub fn fig11_sweep(seeds: &[u64], n_pairs: u64) -> Vec<(Vec<f64>, f64)> {
    run_sweep(move |seed: u64| fig11_scenario(seed, n_pairs), seeds)
}

/// Chain-length ablation sweep: one chain run per seed.
pub fn chain_sweep(
    seeds: &[u64],
    n_nodes: usize,
    plan: &CircuitPlan,
    fidelity: f64,
    n_pairs: u64,
    horizon: SimDuration,
) -> Vec<ChainPoint> {
    let plan = plan.clone();
    run_sweep(
        move |seed: u64| chain_point_scenario(seed, n_nodes, &plan, fidelity, n_pairs, horizon),
        seeds,
    )
}

/// Cutoff ablation sweep: one dumbbell run per seed.
pub fn cutoff_sweep(
    seeds: &[u64],
    t2: f64,
    plan: &CircuitPlan,
    horizon: SimDuration,
) -> Vec<CutoffPoint> {
    let plan = plan.clone();
    run_sweep(
        move |seed: u64| cutoff_point_scenario(seed, t2, &plan, horizon),
        seeds,
    )
}

/// Widened-dumbbell diversity sweep: one run per seed.
pub fn wide_dumbbell_sweep(
    seeds: &[u64],
    width: usize,
    n_pairs: u64,
    fidelity: f64,
    cutoff: CutoffPolicy,
    horizon: SimDuration,
) -> Vec<WideDumbbellPoint> {
    run_sweep(
        move |seed: u64| wide_dumbbell_scenario(seed, width, n_pairs, fidelity, cutoff, horizon),
        seeds,
    )
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
}
