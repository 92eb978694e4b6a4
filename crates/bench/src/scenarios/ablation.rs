//! Ablation scenarios: chain-length scaling and the cutoff sweep.
//!
//! Bodies hoisted out of `benches/ablation_chain_length.rs` and
//! `benches/ablation_cutoff.rs` so the seed loops can run through
//! [`crate::run_sweep`].

use super::keep_request;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_netsim::build::NetworkBuilder;
use qn_routing::{chain, dumbbell, CircuitPlan};
use qn_sim::{NodeId, SimDuration, SimTime};

/// Result of one chain-length configuration at one seed.
#[derive(Clone, Copy, Debug)]
pub struct ChainPoint {
    /// Seconds per delivered pair (NaN if the request never completed).
    pub per_pair_latency: f64,
    /// Mean delivered fidelity (NaN if nothing was delivered).
    pub mean_fidelity: f64,
}

/// One run of the chain-length ablation: `n_pairs` pairs over an
/// `n_nodes` chain with the given pre-computed plan.
pub fn chain_point_scenario(
    seed: u64,
    n_nodes: usize,
    plan: &CircuitPlan,
    fidelity: f64,
    n_pairs: u64,
    horizon: SimDuration,
) -> ChainPoint {
    let topology = chain(n_nodes, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(seed).build();
    let tail = NodeId(n_nodes as u32 - 1);
    let vc = sim.install_plan(plan.clone());
    sim.submit_at(
        SimTime::ZERO,
        vc,
        keep_request(1, NodeId(0), tail, fidelity, n_pairs),
    );
    sim.run_until(SimTime::ZERO + horizon);
    let app = sim.app();
    ChainPoint {
        per_pair_latency: app
            .request_latency(vc, qn_net::RequestId(1))
            .map(|l| l.as_secs_f64() / n_pairs as f64)
            .unwrap_or(f64::NAN),
        mean_fidelity: app.mean_fidelity(vc, NodeId(0)).unwrap_or(f64::NAN),
    }
}

/// Result of one cutoff-sweep configuration at one seed.
#[derive(Clone, Copy, Debug)]
pub struct CutoffPoint {
    /// Confirmed deliveries per second over the horizon.
    pub throughput: f64,
    /// Mean delivered fidelity (NaN if nothing was delivered).
    pub mean_fidelity: f64,
    /// Mean delivered fidelity over the deliveries without a readout
    /// frame error (NaN if there were none).
    pub mean_fidelity_true_frame: f64,
    /// Pairs released unused (cutoff discards, cross-check failures…).
    pub discards: u64,
}

/// One run of the cutoff ablation: a long-running request over the
/// dumbbell at T2* = `t2`, with the plan's cutoff overridden.
pub fn cutoff_point_scenario(
    seed: u64,
    t2: f64,
    plan: &CircuitPlan,
    horizon: SimDuration,
) -> CutoffPoint {
    let (topology, d) = dumbbell(
        HardwareParams::simulation().with_electron_t2(t2),
        FibreParams::lab_2m(),
    );
    let mut sim = NetworkBuilder::new(topology).seed(seed).build();
    let fidelity = plan.e2e_fidelity;
    let vc = sim.install_plan(plan.clone());
    sim.submit_at(
        SimTime::ZERO,
        vc,
        keep_request(1, d.a0, d.b0, fidelity, u64::MAX / 2),
    );
    sim.run_until(SimTime::ZERO + horizon);
    let app = sim.app();
    CutoffPoint {
        throughput: app.confirmed_deliveries(vc, d.a0, SimTime::ZERO, SimTime::MAX) as f64
            / horizon.as_secs_f64(),
        mean_fidelity: app.mean_fidelity(vc, d.a0).unwrap_or(f64::NAN),
        mean_fidelity_true_frame: app.mean_fidelity_true_frame(vc, d.a0).unwrap_or(f64::NAN),
        discards: sim.discarded_pairs(),
    }
}
