//! The central routing controller (§5: "a rudimentary algorithm that
//! runs in a central controller and assumes all links and nodes are
//! identical").
//!
//! Given a pair of end-nodes and an end-to-end fidelity target it
//! computes a [`CircuitPlan`]: the path, the per-link fidelity (via the
//! worst-case budget of [`crate::budget`]), the cutoff timeout, and the
//! rate allocations (max-LPR per link, max-EER for the circuit).

use crate::budget::{self, CutoffPolicy};
use crate::topology::Topology;
use qn_sim::{NodeId, SimDuration};

/// Why a circuit could not be planned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanError {
    /// No path between the end-nodes.
    NoPath,
    /// The fidelity target is unattainable on this path even with the
    /// best link fidelity the hardware can produce.
    FidelityUnattainable,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoPath => write!(f, "no path between the requested end-nodes"),
            PlanError::FidelityUnattainable => {
                write!(f, "end-to-end fidelity unattainable on this path")
            }
        }
    }
}

/// The controller's output for one circuit.
#[derive(Clone, Debug)]
pub struct CircuitPlan {
    /// Node sequence, head-end first.
    pub path: Vec<NodeId>,
    /// Requested end-to-end fidelity.
    pub e2e_fidelity: f64,
    /// Required fidelity of every link-pair on the path.
    pub link_fidelity: f64,
    /// Bright-state parameter the links will use.
    pub alpha: f64,
    /// Cutoff timeout distributed to the intermediate nodes.
    pub cutoff: SimDuration,
    /// Max link-pair rate allocated per link (pairs/s).
    pub max_lpr: f64,
    /// Max end-to-end rate allocated to the circuit (pairs/s).
    pub max_eer: f64,
}

impl CircuitPlan {
    /// Number of links on the path.
    pub fn n_links(&self) -> usize {
        self.path.len() - 1
    }
}

/// The central controller.
pub struct Controller<'a> {
    topology: &'a Topology,
    cutoff_policy: CutoffPolicy,
}

impl<'a> Controller<'a> {
    /// A controller over `topology` using the given cutoff policy.
    pub fn new(topology: &'a Topology, cutoff_policy: CutoffPolicy) -> Self {
        Controller {
            topology,
            cutoff_policy,
        }
    }

    /// Plan a circuit from `head` to `tail` with end-to-end fidelity
    /// `f_e2e`: derived on the first call with these arguments and
    /// cutoff policy, and remembered by the topology (see [`Topology`]).
    pub fn plan(&self, head: NodeId, tail: NodeId, f_e2e: f64) -> Result<CircuitPlan, PlanError> {
        let key = (head, tail, f_e2e.to_bits(), self.cutoff_policy.key());
        self.topology.plan(key, || self.derive(head, tail, f_e2e))
    }

    /// Derive the plan [`Controller::plan`] remembers.
    ///
    /// Cutoff and link fidelity are mutually dependent (the budget needs
    /// the cutoff; the generation-quantile cutoff needs α which needs the
    /// link fidelity), so the controller iterates the pair towards a fixed
    /// point for at most four rounds. Each round is a pure function of the
    /// cutoff it starts from, so the loop stops as soon as a round returns
    /// that cutoff unchanged: every later round would repeat it exactly.
    fn derive(&self, head: NodeId, tail: NodeId, f_e2e: f64) -> Result<CircuitPlan, PlanError> {
        let path = self
            .topology
            .shortest_path(head, tail)
            .ok_or(PlanError::NoPath)?;
        if path.len() < 2 {
            return Err(PlanError::NoPath);
        }
        let n_links = path.len() - 1;
        // All links identical (paper assumption): take the first link's
        // physics as representative.
        let link_id = self
            .topology
            .link_between(path[0], path[1])
            .expect("path edges exist");
        let physics = &self.topology.link(link_id).physics;
        let params = physics.params();

        // Fixed-point iteration over (cutoff, link fidelity).
        let mut f_link = f_e2e; // starting guess
        let mut alpha = physics
            .alpha_for_fidelity(f_link)
            .ok_or(PlanError::FidelityUnattainable)?;
        let mut cutoff = self.cutoff_policy.evaluate(physics, f_link, alpha);
        for _ in 0..4 {
            let required = budget::required_link_fidelity(params, n_links, f_e2e, cutoff)
                .ok_or(PlanError::FidelityUnattainable)?;
            let a = physics
                .alpha_for_fidelity(required)
                .ok_or(PlanError::FidelityUnattainable)?;
            f_link = required;
            alpha = a;
            let next = self.cutoff_policy.evaluate(physics, f_link, alpha);
            if next == cutoff {
                break;
            }
            cutoff = next;
        }

        // Rate allocations. The link can produce pairs at most at
        // 1/expected_pair_time; end-to-end pairs need one pair per link
        // plus headroom for cutoff discards (factor 2, conservative).
        let max_lpr = 1.0 / physics.expected_pair_time(alpha).as_secs_f64().max(1e-12);
        let max_eer = max_lpr / 2.0;

        Ok(CircuitPlan {
            path,
            e2e_fidelity: f_e2e,
            link_fidelity: f_link,
            alpha,
            cutoff,
            max_lpr,
            max_eer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{chain, dumbbell};
    use qn_hardware::params::{FibreParams, HardwareParams};

    fn lab_dumbbell() -> (Topology, crate::topology::Dumbbell) {
        dumbbell(HardwareParams::simulation(), FibreParams::lab_2m())
    }

    #[test]
    fn plans_a0_to_b0() {
        let (t, d) = lab_dumbbell();
        let c = Controller::new(&t, CutoffPolicy::short());
        let plan = c.plan(d.a0, d.b0, 0.9).unwrap();
        assert_eq!(plan.path, vec![d.a0, d.ma, d.mb, d.b0]);
        assert_eq!(plan.n_links(), 3);
        assert!(plan.link_fidelity > 0.9, "links beat the e2e target");
        assert!(plan.link_fidelity < 1.0);
        assert!(plan.alpha > 0.0 && plan.alpha <= 0.5);
        assert!(plan.max_lpr > 0.0);
        assert!(plan.max_eer > 0.0 && plan.max_eer < plan.max_lpr);
        assert!(plan.cutoff > SimDuration::ZERO);
    }

    #[test]
    fn lower_fidelity_circuits_get_higher_alpha_and_rate() {
        let (t, d) = lab_dumbbell();
        let c = Controller::new(&t, CutoffPolicy::short());
        let p09 = c.plan(d.a0, d.b0, 0.9).unwrap();
        let p08 = c.plan(d.a1, d.b1, 0.8).unwrap();
        assert!(p08.alpha > p09.alpha);
        assert!(p08.max_lpr > p09.max_lpr);
    }

    #[test]
    fn impossible_target_errors() {
        let (t, d) = lab_dumbbell();
        let c = Controller::new(&t, CutoffPolicy::short());
        assert_eq!(
            c.plan(d.a0, d.b0, 0.999).unwrap_err(),
            PlanError::FidelityUnattainable
        );
    }

    #[test]
    fn non_finite_target_is_unattainable() {
        let (t, d) = lab_dumbbell();
        for policy in [CutoffPolicy::short(), CutoffPolicy::long()] {
            let c = Controller::new(&t, policy);
            for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(
                    c.plan(d.a0, d.b0, f).unwrap_err(),
                    PlanError::FidelityUnattainable,
                    "f_e2e {f}"
                );
            }
        }
    }

    #[test]
    fn disconnected_nodes_error() {
        let t = chain(3, HardwareParams::simulation(), FibreParams::lab_2m());
        let c = Controller::new(&t, CutoffPolicy::short());
        assert_eq!(
            c.plan(qn_sim::NodeId(0), qn_sim::NodeId(9), 0.8)
                .unwrap_err(),
            PlanError::NoPath
        );
    }

    #[test]
    fn short_cutoff_improves_rates_vs_long() {
        // Fig 8 d–f vs a–c: the short cutoff lets links run at lower
        // fidelity, i.e. higher alpha, i.e. higher LPR.
        let (t, d) = lab_dumbbell();
        let short = Controller::new(&t, CutoffPolicy::short())
            .plan(d.a0, d.b0, 0.9)
            .unwrap();
        let long = Controller::new(&t, CutoffPolicy::long())
            .plan(d.a0, d.b0, 0.9)
            .unwrap();
        assert!(short.cutoff < long.cutoff);
        assert!(
            short.link_fidelity <= long.link_fidelity + 1e-12,
            "short cutoff must not demand more of the links"
        );
        assert!(short.max_lpr >= long.max_lpr);
    }

    #[test]
    fn manual_cutoff_respected() {
        let (t, d) = lab_dumbbell();
        let manual = SimDuration::from_millis(7);
        let c = Controller::new(&t, CutoffPolicy::Manual(manual));
        let plan = c.plan(d.a0, d.b0, 0.8).unwrap();
        assert_eq!(plan.cutoff, manual);
    }
}
