//! High-level simulation façade: build a network, install circuits, run
//! scenarios, read metrics.

use crate::app::AppHarness;
use crate::classical::{ClassicalFaults, ClassicalStats};
use crate::faults::FaultPlan;
use crate::runtime::{CheckpointPolicy, Ev, NetworkModel, RuntimeConfig};
use qn_net::ids::{CircuitId, RequestId};
use qn_net::node::NodeStats;
use qn_net::request::UserRequest;
use qn_routing::budget::CutoffPolicy;
use qn_routing::controller::{CircuitPlan, Controller, PlanError};
use qn_routing::signalling::Signaller;
use qn_routing::topology::Topology;
use qn_sim::{NodeId, RunOutcome, SimDuration, SimTime, Simulation, Trace};

/// Builder for a [`NetSim`].
pub struct NetworkBuilder {
    topology: Topology,
    seed: u64,
    cfg: RuntimeConfig,
}

impl NetworkBuilder {
    /// Start building over a topology.
    pub fn new(topology: Topology) -> Self {
        NetworkBuilder {
            topology,
            seed: 1,
            cfg: RuntimeConfig::default(),
        }
    }

    /// Set the run's RNG seed (same seed ⇒ identical run).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inject extra per-hop message delay (Fig 10c sweep).
    pub fn extra_message_delay(mut self, d: SimDuration) -> Self {
        self.cfg.extra_message_delay = d;
        self
    }

    /// Inject classical-plane faults: seeded drop / duplication /
    /// reordering / byte corruption of the encoded signalling frames.
    /// Default is [`ClassicalFaults::OFF`] — the reliable in-order
    /// plane, bit-identical to a run without this call. An invalid
    /// config makes [`NetworkBuilder::build`] panic.
    pub fn classical_faults(mut self, faults: ClassicalFaults) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Expire unconfirmed end-node pairs after `d` (faulty-plane
    /// resilience: frees qubits whose TRACK/EXPIRE was lost). Off by
    /// default; end-nodes never need timers on a reliable plane.
    pub fn track_timeout(mut self, d: SimDuration) -> Self {
        self.cfg.track_timeout = Some(d);
        self
    }

    /// Near-term hardware mode: one shared electron per node plus
    /// `carbons` storage qubits (Fig 11).
    pub fn near_term(mut self, carbons: usize) -> Self {
        self.cfg.near_term = Some(carbons);
        self
    }

    /// Disable intermediate cutoffs (the Fig 10 oracle baseline).
    pub fn disable_cutoff(mut self) -> Self {
        self.cfg.disable_cutoff = true;
        self
    }

    /// Whole-store decoherence checkpointing. The default
    /// ([`CheckpointPolicy::OnTouch`]) advances pairs lazily at exactly
    /// the times operations touch them (baseline-bit-identical);
    /// [`CheckpointPolicy::Interval`] additionally runs the slab sweep
    /// (`PairStore::advance_all`) on a fixed period — pair sustained
    /// open-world runs with `run_until`, since the checkpoint event
    /// reschedules itself.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.cfg.checkpoint = policy;
        self
    }

    /// Record a human-readable protocol trace.
    pub fn with_trace(mut self) -> Self {
        self.cfg.trace = true;
        self
    }

    /// Carry link-layer (PAIR_READY) and routing-signalling
    /// (INSTALL/TEARDOWN) frames over the classical plane — real
    /// latency, batching and fault exposure — and enable the hop-by-hop
    /// signalling acks plus end-to-end TRACK acknowledgement and
    /// retransmission. Off by default: every recorded baseline was
    /// produced without it and stays bit-identical.
    pub fn signalling_on_wire(mut self) -> Self {
        self.cfg.signalling_on_wire = true;
        self
    }

    /// Inject component faults: a seeded schedule of link and node
    /// outages (scripted windows plus MTBF/MTTR schedules, see
    /// [`FaultPlan`]). The default empty plan schedules no events and
    /// draws no randomness — bit-identical to a run without this call.
    /// An invalid plan makes [`NetworkBuilder::build`] panic.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Build the simulation.
    ///
    /// # Panics
    ///
    /// Before any event is scheduled, if the classical faults fail
    /// [`ClassicalFaults::validate`] (a probability outside `[0, 1]`, or
    /// duplicate/reorder faults without a `reorder_window`) or the fault
    /// plan fails [`FaultPlan::validate`] against the topology (an
    /// unknown link or node, overlapping outages of one component, an
    /// outage ending past the horizon, a stochastic schedule without
    /// positive moments or a horizon): failing at build beats a run that
    /// silently degenerates.
    pub fn build(self) -> NetSim {
        let topology = self.topology.clone();
        let checkpoint = self.cfg.checkpoint;
        let fault_plan = self.cfg.fault_plan.clone();
        let seed = self.seed;
        let model = NetworkModel::new(self.topology, self.seed, self.cfg);
        let mut sim = Simulation::new(model);
        if let CheckpointPolicy::Interval(dt) = checkpoint {
            sim.schedule_at(SimTime::ZERO + dt, Ev::Checkpoint);
        }
        // Expand the component-fault plan into concrete scheduled
        // events before the run starts: deterministic per (plan, seed),
        // independent of everything the simulation itself draws. The
        // empty plan expands to nothing and touches no RNG.
        if !fault_plan.is_empty() {
            for (at, event) in fault_plan.expand(seed) {
                sim.schedule_at(at, Ev::ComponentFault { event });
            }
        }
        NetSim {
            sim,
            signaller: Signaller::new(),
            topology,
        }
    }
}

/// A ready-to-run network simulation.
pub struct NetSim {
    sim: Simulation<NetworkModel>,
    signaller: Signaller,
    topology: Topology,
}

impl NetSim {
    /// Plan and install a circuit between two end-nodes at the given
    /// end-to-end fidelity, using the controller with `cutoff` policy.
    pub fn open_circuit(
        &mut self,
        head: NodeId,
        tail: NodeId,
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Result<CircuitId, PlanError> {
        let plan = Controller::new(&self.topology, cutoff).plan(head, tail, fidelity)?;
        Ok(self.install_plan(plan))
    }

    /// Install a circuit from an explicit plan (e.g. hand-tuned routing
    /// tables, as the paper does for Fig 11).
    pub fn install_plan(&mut self, plan: CircuitPlan) -> CircuitId {
        let installed = self.signaller.install(&self.topology, plan);
        // With `signalling_on_wire` the entries are not installed here:
        // the INSTALL chain walks the path over the classical plane,
        // kicked off at the head as the run's first event.
        if self.sim.model_mut().install_circuit(&installed) {
            self.sim.schedule_at(
                self.sim.now(),
                Ev::SignalKick {
                    circuit: installed.circuit,
                },
            );
        }
        installed.circuit
    }

    /// Schedule an application request submission at an absolute time.
    pub fn submit_at(&mut self, at: SimTime, circuit: CircuitId, request: UserRequest) {
        self.sim
            .schedule_at(at, Ev::SubmitRequest { circuit, request });
    }

    /// Schedule a request cancellation at an absolute time.
    pub fn cancel_at(&mut self, at: SimTime, circuit: CircuitId, request: RequestId) {
        self.sim
            .schedule_at(at, Ev::CancelRequest { circuit, request });
    }

    /// Schedule a circuit teardown (loss of classical connectivity or
    /// operator action): the QNP aborts outstanding requests and
    /// notifies applications, per §4.1 "Classical communication and link
    /// reliability".
    pub fn close_circuit_at(&mut self, at: SimTime, circuit: CircuitId) {
        self.signaller.teardown(circuit);
        self.sim.schedule_at(at, Ev::Teardown { circuit });
    }

    /// Run until `horizon` (or quiescence).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.sim.run_until(horizon)
    }

    /// Run until no events remain.
    pub fn run(&mut self) -> RunOutcome {
        self.sim.run()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Application observations.
    pub fn app(&self) -> &AppHarness {
        &self.sim.model().app
    }

    /// The recorded trace (enable with [`NetworkBuilder::with_trace`]).
    pub fn trace(&self) -> &Trace {
        &self.sim.model().trace
    }

    /// Confirmed deliveries whose protocol-claimed Bell state differs
    /// from the pair's announced frame. Swap readout errors do not count
    /// here, since the flipped readout set that frame too; see
    /// [`NetSim::readout_frame_errors`].
    pub fn state_mismatches(&self) -> u64 {
        self.sim.model().state_mismatches
    }

    /// Confirmed deliveries whose pair's true frame differs from its
    /// announced one: a swap readout error flipped the frame, so the pair
    /// is not the Bell state it is tracked as.
    pub fn readout_frame_errors(&self) -> u64 {
        self.sim.model().readout_frame_errors
    }

    /// Total pairs released unused (cutoff discards, cross-check
    /// failures, surplus generation).
    pub fn discarded_pairs(&self) -> u64 {
        self.sim.model().discarded_pairs
    }

    /// Classical-plane traffic counters: frames sent/delivered and the
    /// faults injected (all fault counters zero on the default reliable
    /// plane).
    pub fn classical_stats(&self) -> ClassicalStats {
        self.sim.model().classical_stats()
    }

    /// Protocol resilience counters aggregated over all nodes: the
    /// anomalous inputs (duplicates, stale references, misroutes) the
    /// QNP absorbed. All zero on the default reliable plane.
    pub fn node_stats(&self) -> NodeStats {
        self.sim.model().node_stats()
    }

    /// Number of live entangled pairs (diagnostics).
    pub fn live_pairs(&self) -> usize {
        self.sim.model().pairs.len()
    }

    /// Timers currently armed with the scheduler: cutoffs, track
    /// expiries and retransmits. Zero after a settled run — chaos tests
    /// assert this to prove fault schedules leak nothing.
    pub fn armed_timers(&self) -> usize {
        self.sim.model().armed_timers()
    }

    /// Correlator state the runtime retains (live pair ends plus
    /// PAIR_READY dedup records). Zero after a settled run.
    pub fn retained_correlators(&self) -> usize {
        self.sim.model().retained_correlators()
    }

    /// Device qubits held by a pair end or by an attempt or move in
    /// flight, over all nodes. Zero after a settled run.
    pub fn reserved_qubits(&self) -> usize {
        self.sim.model().reserved_qubits()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Direct access to the model (examples and advanced tests).
    pub fn model_mut(&mut self) -> &mut NetworkModel {
        self.sim.model_mut()
    }

    /// The circuit plan metadata installed for `circuit`.
    pub fn installed(
        &self,
        circuit: CircuitId,
    ) -> Option<&qn_routing::signalling::InstalledCircuit> {
        self.signaller.circuit(circuit)
    }
}
