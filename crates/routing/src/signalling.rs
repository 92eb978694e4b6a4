//! The signalling protocol: source-routed virtual-circuit installation
//! (§3.3: "Installing virtual circuits will be the task of a signalling
//! protocol. This is similar to how RSVP-TE is used to install MPLS
//! virtual circuits").
//!
//! Given a [`CircuitPlan`] from the controller, the signaller:
//!
//! * allocates a link-unique **link-label** on every link of the path
//!   (the MPLS-label analogue the QNP uses as its link layer Purpose ID);
//! * produces one [`RoutingEntry`] per node with the seven fields of
//!   §4.1 plus the cutoff;
//! * records the circuit for teardown.
//!
//! The simulation runtime feeds the entries to the nodes as
//! `InstallCircuit` inputs and opens the per-hop reliable transport
//! connections the QNP requires.

use crate::controller::CircuitPlan;
use crate::topology::Topology;
use qn_link::LinkLabel;
use qn_net::ids::CircuitId;
use qn_net::routing_table::{DownstreamHop, RoutingEntry, UpstreamHop};
use qn_sim::{LinkId, NodeId};
use std::collections::HashMap;

/// A fully installed circuit: entries per node plus label allocations.
#[derive(Clone, Debug)]
pub struct InstalledCircuit {
    /// The circuit id allocated by the signaller.
    pub circuit: CircuitId,
    /// The path, head-end first.
    pub path: Vec<NodeId>,
    /// `(node, entry)` pairs to install, in path order.
    pub entries: Vec<(NodeId, RoutingEntry)>,
    /// The label allocated on each link of the path, in path order.
    pub labels: Vec<(LinkId, LinkLabel)>,
    /// The plan the circuit was built from.
    pub plan: CircuitPlan,
}

/// The source-routed signalling protocol.
pub struct Signaller {
    next_circuit: u64,
    /// Per-link label allocator: labels are link-unique, not global.
    next_label: HashMap<LinkId, u32>,
    installed: HashMap<u64, InstalledCircuit>,
}

impl Default for Signaller {
    fn default() -> Self {
        Self::new()
    }
}

impl Signaller {
    /// A signaller with no circuits.
    pub fn new() -> Self {
        Signaller {
            next_circuit: 1,
            next_label: HashMap::new(),
            installed: HashMap::new(),
        }
    }

    /// Install a circuit along `plan`'s path. Returns the per-node
    /// routing entries for the runtime to deliver.
    pub fn install(&mut self, topology: &Topology, plan: CircuitPlan) -> InstalledCircuit {
        let circuit = CircuitId(self.next_circuit);
        self.next_circuit += 1;
        let path = plan.path.clone();
        assert!(path.len() >= 2, "a circuit spans at least one link");

        // Allocate one link-unique label per link on the path.
        let mut labels = Vec::with_capacity(path.len() - 1);
        for hop in path.windows(2) {
            let link = topology
                .link_between(hop[0], hop[1])
                .expect("plan path must follow topology links");
            let counter = self.next_label.entry(link).or_insert(0);
            let label = LinkLabel(*counter);
            *counter += 1;
            labels.push((link, label));
        }

        // Build per-node entries.
        let mut entries = Vec::with_capacity(path.len());
        for (i, node) in path.iter().enumerate() {
            let upstream = (i > 0).then(|| UpstreamHop {
                node: path[i - 1],
                label: labels[i - 1].1,
            });
            let downstream = (i + 1 < path.len()).then(|| DownstreamHop {
                node: path[i + 1],
                label: labels[i].1,
                min_fidelity: plan.link_fidelity,
                max_lpr: plan.max_lpr,
            });
            entries.push((
                *node,
                RoutingEntry {
                    circuit,
                    upstream,
                    downstream,
                    max_eer: plan.max_eer,
                    cutoff: plan.cutoff,
                },
            ));
        }

        let installed = InstalledCircuit {
            circuit,
            path,
            entries,
            labels,
            plan,
        };
        self.installed.insert(circuit.0, installed.clone());
        installed
    }

    /// Tear a circuit down; returns its record if it existed.
    pub fn teardown(&mut self, circuit: CircuitId) -> Option<InstalledCircuit> {
        self.installed.remove(&circuit.0)
    }

    /// Look up an installed circuit.
    pub fn circuit(&self, circuit: CircuitId) -> Option<&InstalledCircuit> {
        self.installed.get(&circuit.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CutoffPolicy;
    use crate::controller::Controller;
    use crate::topology::dumbbell;
    use qn_hardware::params::{FibreParams, HardwareParams};
    use qn_net::routing_table::Role;

    fn setup() -> (Topology, crate::topology::Dumbbell) {
        dumbbell(HardwareParams::simulation(), FibreParams::lab_2m())
    }

    #[test]
    fn install_produces_consistent_entries() {
        let (t, d) = setup();
        let plan = Controller::new(&t, CutoffPolicy::short())
            .plan(d.a0, d.b0, 0.9)
            .unwrap();
        let mut s = Signaller::new();
        let inst = s.install(&t, plan);
        assert_eq!(inst.entries.len(), 4);
        assert_eq!(inst.labels.len(), 3);

        // Roles along the path.
        assert_eq!(inst.entries[0].1.role(), Role::HeadEnd);
        assert_eq!(inst.entries[1].1.role(), Role::Intermediate);
        assert_eq!(inst.entries[2].1.role(), Role::Intermediate);
        assert_eq!(inst.entries[3].1.role(), Role::TailEnd);

        // Adjacent entries agree on labels: node i's downstream label ==
        // node i+1's upstream label.
        for w in inst.entries.windows(2) {
            let down = w[0].1.downstream.as_ref().unwrap();
            let up = w[1].1.upstream.as_ref().unwrap();
            assert_eq!(down.label, up.label);
            assert_eq!(down.node, w[1].0);
            assert_eq!(up.node, w[0].0);
        }
    }

    #[test]
    fn labels_are_link_unique_across_circuits() {
        let (t, d) = setup();
        let c = Controller::new(&t, CutoffPolicy::short());
        let mut s = Signaller::new();
        let i1 = s.install(&t, c.plan(d.a0, d.b0, 0.9).unwrap());
        let i2 = s.install(&t, c.plan(d.a1, d.b1, 0.8).unwrap());
        // Both circuits cross the MA-MB bottleneck; their labels on that
        // link must differ.
        let bottleneck = t.link_between(d.ma, d.mb).unwrap();
        let l1 = i1.labels.iter().find(|(l, _)| *l == bottleneck).unwrap().1;
        let l2 = i2.labels.iter().find(|(l, _)| *l == bottleneck).unwrap().1;
        assert_ne!(l1, l2);
        assert_ne!(i1.circuit, i2.circuit);
        assert!(s.circuit(i1.circuit).is_some() && s.circuit(i2.circuit).is_some());
    }

    #[test]
    fn teardown_removes_circuit() {
        let (t, d) = setup();
        let c = Controller::new(&t, CutoffPolicy::short());
        let mut s = Signaller::new();
        let inst = s.install(&t, c.plan(d.a0, d.b1, 0.8).unwrap());
        assert!(s.circuit(inst.circuit).is_some());
        assert!(s.teardown(inst.circuit).is_some());
        assert!(s.teardown(inst.circuit).is_none());
        assert!(s.circuit(inst.circuit).is_none());
    }

    #[test]
    fn entries_carry_plan_parameters() {
        let (t, d) = setup();
        let plan = Controller::new(&t, CutoffPolicy::short())
            .plan(d.a0, d.b0, 0.9)
            .unwrap();
        let f_link = plan.link_fidelity;
        let cutoff = plan.cutoff;
        let mut s = Signaller::new();
        let inst = s.install(&t, plan);
        for (_, e) in &inst.entries {
            assert_eq!(e.cutoff, cutoff);
            if let Some(down) = &e.downstream {
                assert_eq!(down.min_fidelity, f_link);
            }
        }
    }
}
