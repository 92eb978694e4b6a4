//! The two ways a workload drives the simulator.
//!
//! * [`Facade`] is the public `NetworkBuilder`/`NetSim` path a user
//!   writes. It carries no instrumentation and gives the end-to-end
//!   numbers.
//! * [`Traced`] rebuilds the same engine from the public parts
//!   (`Simulation`, `NetworkModel`, `Controller`, `Signaller`) with the
//!   model wrapped in [`Profiled`], which times every
//!   `NetworkModel::handle` call by event kind; the workload's own
//!   routing calls are timed too. Both paths issue the same scheduler
//!   calls in the same order, so they simulate the same trajectory; the
//!   correctness gate checks that they do.

use std::time::{Duration, Instant};

use qn_hardware::StateRep;
use qn_net::{CircuitId, UserRequest};
use qn_netsim::{
    AppHarness, CheckpointPolicy, ClassicalFaults, Ev, NetSim, NetworkBuilder, NetworkModel,
    RuntimeConfig,
};
use qn_routing::{Controller, CutoffPolicy, PlanError, Signaller, Topology};
use qn_sim::{Context, Model, NodeId, SimDuration, SimTime, Simulation};

/// The runtime options a workload sets. Everything else keeps the
/// library default.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Pair-state representation. The façade reads it from `QNP_QSTATE`,
    /// which the benchmark pins before it builds anything.
    pub rep: StateRep,
    /// The Fig 10 oracle baseline: no intermediate cutoffs.
    pub disable_cutoff: bool,
    /// Periodic whole-store decoherence sweep.
    pub checkpoint: Option<SimDuration>,
    /// Link-layer and routing signalling on the classical wire.
    pub wire: bool,
    /// End-node timeout for unconfirmed pairs.
    pub track_timeout: Option<SimDuration>,
    /// Message-level faults of the classical plane.
    pub faults: ClassicalFaults,
}

impl Options {
    /// The library defaults under a given state representation.
    pub fn new(rep: StateRep) -> Self {
        Options {
            rep,
            disable_cutoff: false,
            checkpoint: None,
            wire: false,
            track_timeout: None,
            faults: ClassicalFaults::OFF,
        }
    }
}

/// What a workload needs from a simulator.
pub trait Net: Sized {
    /// Build the network, before any event is scheduled by the workload.
    fn build(topology: Topology, seed: u64, opts: &Options) -> Self;
    /// Plan and install a circuit.
    fn open_circuit(
        &mut self,
        head: NodeId,
        tail: NodeId,
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Result<CircuitId, PlanError>;
    /// Schedule a request submission.
    fn submit_at(&mut self, at: SimTime, circuit: CircuitId, request: UserRequest);
    /// Forget the circuit's routing record and schedule its teardown.
    fn close_circuit_at(&mut self, at: SimTime, circuit: CircuitId);
    /// Dispatch events up to `horizon`.
    fn run_until(&mut self, horizon: SimTime);
    /// Events dispatched so far.
    fn events(&self) -> u64;
    /// The network model, for its counters and application records.
    fn model(&mut self) -> &mut NetworkModel;
    /// The application records.
    fn app(&mut self) -> &AppHarness {
        &self.model().app
    }
    /// Host time by span, when the run is traced.
    fn profile(&self) -> Option<&Profile> {
        None
    }
}

/// The public façade, untouched.
pub struct Facade(NetSim);

impl Net for Facade {
    fn build(topology: Topology, seed: u64, opts: &Options) -> Self {
        debug_assert_eq!(StateRep::from_env(), opts.rep, "QNP_QSTATE must be pinned");
        let mut b = NetworkBuilder::new(topology).seed(seed);
        if opts.disable_cutoff {
            b = b.disable_cutoff();
        }
        if let Some(dt) = opts.checkpoint {
            b = b.checkpoint(CheckpointPolicy::Interval(dt));
        }
        if opts.wire {
            b = b.signalling_on_wire();
        }
        if let Some(d) = opts.track_timeout {
            b = b.track_timeout(d);
        }
        if opts.faults.enabled() {
            b = b.classical_faults(opts.faults);
        }
        Facade(b.build())
    }

    fn open_circuit(
        &mut self,
        head: NodeId,
        tail: NodeId,
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Result<CircuitId, PlanError> {
        self.0.open_circuit(head, tail, fidelity, cutoff)
    }

    fn submit_at(&mut self, at: SimTime, circuit: CircuitId, request: UserRequest) {
        self.0.submit_at(at, circuit, request);
    }

    fn close_circuit_at(&mut self, at: SimTime, circuit: CircuitId) {
        self.0.close_circuit_at(at, circuit);
    }

    fn run_until(&mut self, horizon: SimTime) {
        self.0.run_until(horizon);
    }

    fn events(&self) -> u64 {
        self.0.events_processed()
    }

    fn model(&mut self) -> &mut NetworkModel {
        self.0.model_mut()
    }
}

/// Where host time goes. Event spans are named after the layer whose
/// handler runs; the last two are the workload's own routing calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `Ev::BatchDeliver`: decode and handle a batch of frames.
    PlaneDeliver,
    /// The wire-signalling timers.
    SignalTimer,
    /// `Ev::GenDone` (and the near-term `Ev::MoveDone`).
    LinkGen,
    /// `Ev::SwapDone`.
    QuantumSwap,
    /// `Ev::MeasureDone`.
    QuantumMeasure,
    /// `Ev::Cutoff`.
    QnpCutoff,
    /// `Ev::Checkpoint`.
    PairsCheckpoint,
    /// `Ev::SubmitRequest` and `Ev::CancelRequest`.
    AppSubmit,
    /// `Ev::Teardown`.
    AppTeardown,
    /// `Ev::ComponentFault`.
    Faults,
    /// The workload's `Controller::plan` calls.
    RoutingPlan,
    /// The workload's `Signaller::install` + `NetworkModel::install_circuit`
    /// and `Signaller::teardown` calls.
    RoutingInstall,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 12] = [
        Span::PlaneDeliver,
        Span::SignalTimer,
        Span::LinkGen,
        Span::QuantumSwap,
        Span::QuantumMeasure,
        Span::QnpCutoff,
        Span::PairsCheckpoint,
        Span::AppSubmit,
        Span::AppTeardown,
        Span::Faults,
        Span::RoutingPlan,
        Span::RoutingInstall,
    ];

    /// Whether the span times the workload's own routing calls rather
    /// than an event handler.
    pub fn is_routing(self) -> bool {
        matches!(self, Span::RoutingPlan | Span::RoutingInstall)
    }

    /// The span an event's handler is charged to. No wildcard arm: a new
    /// event kind fails this build until it is given a layer.
    pub fn of(ev: &Ev) -> Span {
        match ev {
            Ev::BatchDeliver { .. } => Span::PlaneDeliver,
            Ev::TrackExpiry { .. }
            | Ev::OrphanCheck { .. }
            | Ev::TrackRetransmit { .. }
            | Ev::SignalKick { .. }
            | Ev::SignalRetransmit { .. }
            | Ev::RequestResend { .. } => Span::SignalTimer,
            Ev::GenDone { .. } | Ev::MoveDone { .. } => Span::LinkGen,
            Ev::SwapDone { .. } => Span::QuantumSwap,
            Ev::MeasureDone { .. } => Span::QuantumMeasure,
            Ev::Cutoff { .. } => Span::QnpCutoff,
            Ev::Checkpoint => Span::PairsCheckpoint,
            Ev::SubmitRequest { .. } | Ev::CancelRequest { .. } => Span::AppSubmit,
            Ev::Teardown { .. } => Span::AppTeardown,
            Ev::ComponentFault { .. } => Span::Faults,
        }
    }
}

/// Host time and call counts per [`Span`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Total time per span, indexed like [`Span::ALL`].
    pub time: [Duration; Span::ALL.len()],
    /// Calls per span.
    pub calls: [u64; Span::ALL.len()],
    /// The part of the routing spans spent after the first event, inside
    /// the run's wall time (the rest falls in set-up).
    pub routing_in_run: Duration,
}

impl Profile {
    fn add(&mut self, span: Span, d: Duration) {
        self.time[span as usize] += d;
        self.calls[span as usize] += 1;
    }

    /// Accumulate another profile.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..Span::ALL.len() {
            self.time[i] += other.time[i];
            self.calls[i] += other.calls[i];
        }
        self.routing_in_run += other.routing_in_run;
    }
}

/// `NetworkModel` with a stopwatch around each `handle` call.
pub struct Profiled {
    /// The wrapped model.
    pub model: NetworkModel,
    /// What the stopwatch recorded.
    pub profile: Profile,
}

impl Model for Profiled {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Context<'_, Ev>) {
        let span = Span::of(&event);
        let start = Instant::now();
        self.model.handle(now, event, ctx);
        self.profile.add(span, start.elapsed());
    }
}

/// The traced path: the façade's steps, rebuilt from public parts and
/// timed.
pub struct Traced {
    sim: Simulation<Profiled>,
    signaller: Signaller,
    topology: Topology,
    running: bool,
}

impl Traced {
    fn routing_span(&mut self, span: Span, start: Instant) {
        let d = start.elapsed();
        let profile = &mut self.sim.model_mut().profile;
        profile.add(span, d);
        if self.running {
            profile.routing_in_run += d;
        }
    }
}

impl Net for Traced {
    fn build(topology: Topology, seed: u64, opts: &Options) -> Self {
        // The same config `NetworkBuilder` assembles for these options.
        let cfg = RuntimeConfig {
            state_rep: opts.rep,
            disable_cutoff: opts.disable_cutoff,
            checkpoint: match opts.checkpoint {
                Some(dt) => CheckpointPolicy::Interval(dt),
                None => CheckpointPolicy::OnTouch,
            },
            signalling_on_wire: opts.wire,
            track_timeout: opts.track_timeout,
            faults: opts.faults,
            ..RuntimeConfig::default()
        };
        let model = NetworkModel::new(topology.clone(), seed, cfg);
        let mut sim = Simulation::new(Profiled {
            model,
            profile: Profile::default(),
        });
        if let Some(dt) = opts.checkpoint {
            sim.schedule_at(SimTime::ZERO + dt, Ev::Checkpoint);
        }
        Traced {
            sim,
            signaller: Signaller::new(),
            topology,
            running: false,
        }
    }

    fn open_circuit(
        &mut self,
        head: NodeId,
        tail: NodeId,
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Result<CircuitId, PlanError> {
        let start = Instant::now();
        let plan = Controller::new(&self.topology, cutoff).plan(head, tail, fidelity);
        self.routing_span(Span::RoutingPlan, start);
        let plan = plan?;
        let start = Instant::now();
        let installed = self.signaller.install(&self.topology, plan);
        if self.sim.model_mut().model.install_circuit(&installed) {
            let now = self.sim.now();
            self.sim.schedule_at(
                now,
                Ev::SignalKick {
                    circuit: installed.circuit,
                },
            );
        }
        self.routing_span(Span::RoutingInstall, start);
        Ok(installed.circuit)
    }

    fn submit_at(&mut self, at: SimTime, circuit: CircuitId, request: UserRequest) {
        self.sim
            .schedule_at(at, Ev::SubmitRequest { circuit, request });
    }

    fn close_circuit_at(&mut self, at: SimTime, circuit: CircuitId) {
        let start = Instant::now();
        self.signaller.teardown(circuit);
        self.routing_span(Span::RoutingInstall, start);
        self.sim.schedule_at(at, Ev::Teardown { circuit });
    }

    fn run_until(&mut self, horizon: SimTime) {
        self.running = true;
        self.sim.run_until(horizon);
    }

    fn events(&self) -> u64 {
        self.sim.processed()
    }

    fn model(&mut self) -> &mut NetworkModel {
        &mut self.sim.model_mut().model
    }

    fn profile(&self) -> Option<&Profile> {
        Some(&self.sim.model().profile)
    }
}
