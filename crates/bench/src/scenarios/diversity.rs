//! Scenario diversity: the widened-dumbbell workload axis.
//!
//! The paper evaluates a fixed 2×2 dumbbell; the sweep runner makes it
//! cheap to also ask how the bottleneck behaves as the number of
//! straight-across circuits contending for MA–MB grows. `width = 2` is
//! the topology of Fig 7.

use super::keep_request;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_net::CircuitId;
use qn_netsim::build::NetworkBuilder;
use qn_routing::{wide_dumbbell, CutoffPolicy};
use qn_sim::{SimDuration, SimTime};

/// Result of one widened-dumbbell configuration at one seed.
#[derive(Clone, Copy, Debug)]
pub struct WideDumbbellPoint {
    /// Circuits opened (= the width).
    pub circuits: usize,
    /// Confirmed pairs per second across every circuit, over the
    /// measurement window.
    pub aggregate_throughput: f64,
}

/// One run over a `width`-wide dumbbell: a long-running request on each
/// straight-across circuit (Ai–Bi), all submitted at t = 0 and all
/// contending for the single MA–MB bottleneck, as in Fig 10's
/// scenarios. Pairs are counted at the heads over `window`, after
/// `warmup` has let every circuit reach its steady state.
pub fn wide_dumbbell_scenario(
    seed: u64,
    width: usize,
    fidelity: f64,
    cutoff: CutoffPolicy,
    warmup: SimDuration,
    window: SimDuration,
) -> WideDumbbellPoint {
    let (topology, w) = wide_dumbbell(width, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(seed).build();
    let pairs = w.straight_pairs();
    let vcs: Vec<CircuitId> = pairs
        .iter()
        .map(|(h, t)| {
            sim.open_circuit(*h, *t, fidelity, cutoff)
                .expect("straight-across circuit plan must be feasible")
        })
        .collect();
    for (i, ((h, t), vc)) in pairs.iter().zip(&vcs).enumerate() {
        sim.submit_at(
            SimTime::ZERO,
            *vc,
            keep_request(i as u64 + 1, *h, *t, fidelity, u64::MAX / 2),
        );
    }
    let (t0, t1) = (SimTime::ZERO + warmup, SimTime::ZERO + warmup + window);
    sim.run_until(t1);
    let app = sim.app();
    let delivered: usize = pairs
        .iter()
        .zip(&vcs)
        .map(|((h, _), vc)| app.confirmed_deliveries(*vc, *h, t0, t1))
        .sum();
    WideDumbbellPoint {
        circuits: vcs.len(),
        aggregate_throughput: delivered as f64 / window.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_one_delivers_pairs_in_the_window() {
        let p = wide_dumbbell_scenario(
            1,
            1,
            0.8,
            CutoffPolicy::short(),
            SimDuration::from_millis(500),
            SimDuration::from_secs(1),
        );
        assert_eq!(p.circuits, 1);
        assert!(p.aggregate_throughput > 0.0);
    }
}
