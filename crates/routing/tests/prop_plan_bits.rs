//! `Controller::plan` against a reference written here: the plain
//! four-round fixed-point loop on a freshly built `LinkPhysics`, with no
//! early exit, no remembered fidelity peak and no remembered plan. Every
//! plan field is compared bit for bit (`f64::to_bits`), the cutoff and
//! the errors exactly, over chains, the grid and the dumbbell, all three
//! cutoff policies, end-to-end targets from 0.5 to 0.99 and T2 from 0.2
//! to 60 s: on a cold topology, on the same one warm, on a clone, and
//! after the topology grew by a link.

use proptest::prelude::*;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_routing::budget::required_link_fidelity;
use qn_routing::topology::{chain, dumbbell, grid};
use qn_routing::{CircuitPlan, Controller, CutoffPolicy, PlanError, Topology};
use qn_sim::{LinkId, NodeId, SimDuration};

/// The fields of a plan, floats as bits.
type PlanBits = (Vec<NodeId>, [u64; 5], SimDuration);

fn bits(plan: &CircuitPlan) -> PlanBits {
    (
        plan.path.clone(),
        [
            plan.e2e_fidelity.to_bits(),
            plan.link_fidelity.to_bits(),
            plan.alpha.to_bits(),
            plan.max_lpr.to_bits(),
            plan.max_eer.to_bits(),
        ],
        plan.cutoff,
    )
}

/// The controller's algorithm, always running all four rounds.
fn reference_plan(
    topology: &Topology,
    policy: CutoffPolicy,
    head: NodeId,
    tail: NodeId,
    f_e2e: f64,
) -> Result<PlanBits, PlanError> {
    let path = topology
        .shortest_path(head, tail)
        .ok_or(PlanError::NoPath)?;
    if path.len() < 2 {
        return Err(PlanError::NoPath);
    }
    let n_links = path.len() - 1;
    let link = topology.link(topology.link_between(path[0], path[1]).unwrap());
    let physics = LinkPhysics::new(*link.physics.params(), *link.physics.fibre());
    let params = physics.params();
    let mut f_link = f_e2e;
    let mut alpha = physics
        .alpha_for_fidelity(f_link)
        .ok_or(PlanError::FidelityUnattainable)?;
    let mut cutoff = policy.evaluate(&physics, f_link, alpha);
    for _ in 0..4 {
        f_link = required_link_fidelity(params, n_links, f_e2e, cutoff)
            .ok_or(PlanError::FidelityUnattainable)?;
        alpha = physics
            .alpha_for_fidelity(f_link)
            .ok_or(PlanError::FidelityUnattainable)?;
        cutoff = policy.evaluate(&physics, f_link, alpha);
    }
    let max_lpr = 1.0 / physics.expected_pair_time(alpha).as_secs_f64().max(1e-12);
    let max_eer = max_lpr / 2.0;
    Ok((
        path,
        [
            f_e2e.to_bits(),
            f_link.to_bits(),
            alpha.to_bits(),
            max_lpr.to_bits(),
            max_eer.to_bits(),
        ],
        cutoff,
    ))
}

fn policy() -> impl Strategy<Value = CutoffPolicy> {
    prop_oneof![
        (0.005f64..0.05).prop_map(|fraction| CutoffPolicy::FidelityLoss { fraction }),
        (0.5f64..0.95).prop_map(|probability| CutoffPolicy::GenerationQuantile { probability }),
        (1u64..200).prop_map(|ms| CutoffPolicy::Manual(SimDuration::from_millis(ms))),
    ]
}

/// Topology 0-5: a chain of 2-7 nodes; 6: the 3×3 grid; 7: the dumbbell.
fn topology(kind: usize, params: HardwareParams, fibre: FibreParams) -> Topology {
    match kind {
        0..=5 => chain(kind + 2, params, fibre),
        6 => grid(3, 3, params, fibre),
        _ => dumbbell(params, fibre).0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every plan (or error) equals the four-round reference, bit for
    /// bit, whether derived or remembered.
    #[test]
    fn plan_matches_four_round_reference(
        kind in 0usize..8,
        near_term in (0u8..4).prop_map(|k| k == 0),
        t2 in 0.2f64..60.0,
        policy in policy(),
        f_e2e in 0.5f64..0.99,
        ends in (0usize..9, 0usize..16),
    ) {
        let (params, fibre) = if near_term {
            (HardwareParams::near_term(), FibreParams::telecom(25_000.0))
        } else {
            (HardwareParams::simulation(), FibreParams::lab_2m())
        };
        let t = topology(kind, params.with_electron_t2(t2), fibre);
        // Distinct ends, except `head == tail` (no path) one time in 16.
        let nodes = t.nodes();
        let n = nodes.len();
        let head = ends.0 % n;
        let tail = if ends.1 == 0 { head } else { (head + 1 + ends.1 % (n - 1)) % n };
        let (head, tail) = (nodes[head], nodes[tail]);
        let check = |t: &Topology, stage: &str| -> Result<(), TestCaseError> {
            let got = Controller::new(t, policy).plan(head, tail, f_e2e).map(|p| bits(&p));
            let want = reference_plan(t, policy, head, tail, f_e2e);
            prop_assert_eq!(
                &got, &want,
                "{} plan, {:?} {}→{} at F={} with T2={}", stage, policy, head, tail, f_e2e, t2
            );
            Ok(())
        };
        // The first plan is derived, the second remembered.
        check(&t, "derived")?;
        check(&t, "remembered")?;
        check(&t.clone(), "cloned")?;
        // A new link from the head to the tail (or, when they coincide,
        // to a new node) can shorten the path: the grown topology must
        // plan afresh, not answer from what it remembered.
        let mut t = t;
        let to = if head == tail { NodeId(n as u32) } else { tail };
        let physics = t.link(LinkId(0)).physics.clone();
        t.add_link(head, to, physics);
        check(&t, "grown")?;
        check(&t, "grown, remembered")?;
    }
}
