//! End-to-end model of the **netsim runtime**: random user-visible
//! operation sequences — request submissions, cancellations and time
//! advances — run against the *real* full-stack simulation
//! (`qn_netsim::NetSim` over a 3-node repeater chain), checked against
//! a reference bookkeeping model of the network-layer service contract.
//!
//! The reference model does not re-simulate physics; it tracks what the
//! paper's service definition (§3.2) lets an application rely on:
//!
//! * accepted bounded requests deliver **at most `n`** confirmed pairs
//!   per end, with dense per-end sequence numbers `0..k`;
//! * delivered counts are monotone, and completion is reported exactly
//!   once, precisely when the head-end's count reaches `n` (or the
//!   request is cancelled);
//! * after a settle (long quiescent run on the reliable default plane)
//!   every accepted request has completed and no entangled pairs leak;
//! * every acceptance/completion event corresponds to a submitted
//!   request.
//!
//! Divergences shrink to a minimal operation sequence. The injected
//! [`NetsimFault`]s break the *runtime* (not the checker): the
//! meta-test in `crates/testkit/tests/netsim_model.rs` proves a runtime
//! fault is caught and shrinks to the minimal reproduction.

use crate::ModelSpec;
use proptest::prelude::*;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_net::{Address, AppEvent, CircuitId, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::build::{NetSim, NetworkBuilder};
use qn_netsim::{ClassicalFaults, FaultPlan};
use qn_routing::{chain, CutoffPolicy};
use qn_sim::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// One user-visible operation against the running network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetOp {
    /// Submit a KEEP request for `pairs` pairs at the head-end.
    Submit {
        /// Number of pairs requested (small: the chain must finish them
        /// within one settle horizon).
        pairs: u8,
    },
    /// Advance simulated time by `millis` milliseconds.
    Advance {
        /// Milliseconds to run.
        millis: u16,
    },
    /// Cancel the `idx`-th submitted request (modulo the submit count).
    Cancel {
        /// Index into the submission order.
        idx: u8,
    },
    /// Run 60 s of simulated time — long enough on the reliable plane
    /// for every outstanding bounded request to finish, then drain.
    Settle,
}

/// Deliberately-injected **runtime** faults for the meta-tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetsimFault {
    /// The classical plane drops every message: FORWARD/TRACK never
    /// arrive, so no request can ever complete.
    DropAllMessages,
    /// An absurdly short end-node track-timeout: pairs are expired
    /// before their confirmation can possibly arrive (the timeout fires
    /// at 1 µs; even one hop of signalling takes longer).
    ExpirePairsInstantly,
}

/// Reference bookkeeping for one request.
#[derive(Clone, Debug)]
struct ReqModel {
    n: u64,
    accepted: bool,
    cancelled: bool,
    /// Confirmed deliveries at the head, as last observed.
    last_head: u64,
    /// Completion observed (from the app-event log).
    completed: bool,
}

/// The reference model: submission bookkeeping + the observation
/// horizon already checked (events/deliveries are append-only logs, so
/// each `check` pass only consumes the new suffix).
pub struct NetsimModel {
    requests: BTreeMap<u64, ReqModel>,
    submit_order: Vec<u64>,
    next_id: u64,
    events_seen: usize,
}

/// The system under test: the real full-stack simulation.
pub struct NetsimSystem {
    sim: NetSim,
    vc: CircuitId,
    head: NodeId,
    tail: NodeId,
}

/// The spec: 3-node chain, one circuit, seeded runtime.
pub struct NetsimSpec {
    seed: u64,
    fault: Option<NetsimFault>,
    wired: bool,
    chaos: bool,
}

impl NetsimSpec {
    /// A faithful runtime.
    pub fn new(seed: u64) -> Self {
        NetsimSpec {
            seed,
            fault: None,
            wired: false,
            chaos: false,
        }
    }

    /// A runtime with an injected fault (meta-tests).
    pub fn with_fault(seed: u64, fault: NetsimFault) -> Self {
        NetsimSpec {
            seed,
            fault: Some(fault),
            wired: false,
            chaos: false,
        }
    }

    /// A faithful runtime with `signalling_on_wire` enabled: PAIR_READY
    /// and INSTALL/TEARDOWN ride the classical plane, TRACKs are
    /// acknowledged end-to-end and retransmitted. The service contract
    /// the checker enforces is identical — wire signalling must be
    /// invisible to applications on a fault-free plane.
    pub fn wired(seed: u64) -> Self {
        NetsimSpec {
            seed,
            fault: None,
            wired: true,
            chaos: false,
        }
    }

    /// A wired runtime under **component-fault chaos**: both links of
    /// the chain churn through a seed-derived stochastic MTBF/MTTR
    /// schedule for the first two simulated seconds. The checker keeps
    /// the safety half of the contract — at most `n` confirmed pairs
    /// per end, dense sequences, completion reported exactly once —
    /// and drops the liveness half (a request may legitimately starve
    /// while its hop is dark). After every settle (which runs far past
    /// the churn horizon) nothing may leak: zero live pairs, zero armed
    /// timers, zero retained correlator state.
    pub fn chaos(seed: u64) -> Self {
        NetsimSpec {
            seed,
            fault: None,
            wired: true,
            chaos: true,
        }
    }
}

impl NetsimSpec {
    fn check_against_system(
        &self,
        model: &mut NetsimModel,
        system: &NetsimSystem,
        settled: bool,
    ) -> Result<(), String> {
        let app = system.sim.app();

        // Consume the new app events.
        let events = &app.events;
        for (_, _, ev) in &events[model.events_seen..] {
            match ev {
                AppEvent::RequestAccepted(id) => {
                    let r = model
                        .requests
                        .get_mut(&id.0)
                        .ok_or_else(|| format!("acceptance for unknown request {id}"))?;
                    r.accepted = true;
                }
                AppEvent::RequestCompleted(id) => {
                    let r = model
                        .requests
                        .get_mut(&id.0)
                        .ok_or_else(|| format!("completion for unknown request {id}"))?;
                    if r.completed {
                        return Err(format!("request {id} completed twice"));
                    }
                    r.completed = true;
                }
                AppEvent::RequestRejected(id, reason) => {
                    if self.chaos {
                        // A request can land while its hop is dark;
                        // rejection is terminal, like a cancellation.
                        if let Some(r) = model.requests.get_mut(&id.0) {
                            r.cancelled = true;
                        }
                    } else {
                        return Err(format!("unexpected rejection of {id}: {reason}"));
                    }
                }
                _ => {}
            }
        }
        model.events_seen = events.len();

        for (id, r) in &mut model.requests {
            let rid = RequestId(*id);
            let head = count_confirmed(app, system.vc, system.head, rid);
            let tail = count_confirmed(app, system.vc, system.tail, rid);
            // At most n per end, never shrinking.
            for (name, count) in [("head", head), ("tail", tail)] {
                if count > r.n {
                    return Err(format!(
                        "request {rid}: {count} confirmed at {name} exceeds n={}",
                        r.n
                    ));
                }
            }
            if head < r.last_head {
                return Err(format!(
                    "request {rid}: confirmed count shrank {} -> {head}",
                    r.last_head
                ));
            }
            r.last_head = head;
            // Dense sequence numbers per end.
            for node in [system.head, system.tail] {
                let mut seqs: Vec<u64> = app
                    .deliveries
                    .iter()
                    .filter(|d| d.node == node && d.request == rid)
                    .map(|d| d.sequence)
                    .collect();
                seqs.sort_unstable();
                for (i, s) in seqs.iter().enumerate() {
                    if *s != i as u64 {
                        return Err(format!(
                            "request {rid}: sequence numbers at {node} not dense: {seqs:?}"
                        ));
                    }
                }
            }
            // Completion accounting: completed heads delivered exactly n
            // (unless cancelled early).
            if r.completed && !r.cancelled && head != r.n {
                return Err(format!(
                    "request {rid} completed with {head}/{} confirmed at the head",
                    r.n
                ));
            }
            // Liveness: only guaranteed on a fault-free runtime — under
            // component churn a request may starve while its hop is dark.
            if settled && r.accepted && !r.completed && !self.chaos {
                return Err(format!(
                    "request {rid} still incomplete after settling ({head}/{} at head)",
                    r.n
                ));
            }
        }

        if settled && system.sim.live_pairs() != 0 {
            return Err(format!(
                "{} entangled pairs leaked after settling",
                system.sim.live_pairs()
            ));
        }
        if settled && self.chaos {
            // The chaos bar: a settle runs far past the churn horizon,
            // so every fault schedule must end with nothing retained.
            if system.sim.armed_timers() != 0 {
                return Err(format!(
                    "{} timers still armed after settling under chaos",
                    system.sim.armed_timers()
                ));
            }
            if system.sim.retained_correlators() != 0 {
                return Err(format!(
                    "{} correlator records retained after settling under chaos",
                    system.sim.retained_correlators()
                ));
            }
        }
        Ok(())
    }
}

fn count_confirmed(
    app: &qn_netsim::AppHarness,
    vc: CircuitId,
    node: NodeId,
    request: RequestId,
) -> u64 {
    app.deliveries
        .iter()
        .filter(|d| {
            d.circuit == vc
                && d.node == node
                && d.request == request
                && matches!(
                    d.payload,
                    qn_netsim::Payload::Qubit { .. } | qn_netsim::Payload::Measurement { .. }
                )
        })
        .count() as u64
}

impl ModelSpec for NetsimSpec {
    type Op = NetOp;
    type Model = NetsimModel;
    type System = NetsimSystem;

    fn new_model(&self) -> NetsimModel {
        NetsimModel {
            requests: BTreeMap::new(),
            submit_order: Vec::new(),
            next_id: 1,
            events_seen: 0,
        }
    }

    fn new_system(&self) -> NetsimSystem {
        let topology = chain(3, HardwareParams::simulation(), FibreParams::lab_2m());
        let mut b = NetworkBuilder::new(topology).seed(self.seed);
        match self.fault {
            Some(NetsimFault::DropAllMessages) => {
                b = b.classical_faults(ClassicalFaults {
                    drop: 1.0,
                    ..ClassicalFaults::OFF
                });
            }
            Some(NetsimFault::ExpirePairsInstantly) => {
                b = b.track_timeout(SimDuration::from_micros(1));
            }
            None => {}
        }
        if self.wired {
            b = b.signalling_on_wire();
        }
        if self.chaos {
            // Seed-derived stochastic churn on both hops for the first
            // two seconds; the track timeout reclaims endpoint pairs
            // whose confirmations died on a dark hop.
            b = b.track_timeout(SimDuration::from_secs(2)).fault_plan(
                FaultPlan::new()
                    .horizon(SimTime::ZERO + SimDuration::from_secs(2))
                    .link_mtbf(
                        NodeId(0),
                        NodeId(1),
                        SimDuration::from_millis(500),
                        SimDuration::from_millis(50),
                    )
                    .link_mtbf(
                        NodeId(1),
                        NodeId(2),
                        SimDuration::from_millis(500),
                        SimDuration::from_millis(50),
                    ),
            );
        }
        let mut sim = b.build();
        let (head, tail) = (NodeId(0), NodeId(2));
        let vc = sim
            .open_circuit(head, tail, 0.8, CutoffPolicy::short())
            .expect("chain circuit plans");
        NetsimSystem {
            sim,
            vc,
            head,
            tail,
        }
    }

    fn op_strategy(&self) -> BoxedStrategy<NetOp> {
        prop_oneof![
            (1u8..=3).prop_map(|pairs| NetOp::Submit { pairs }),
            (1u16..=50).prop_map(|millis| NetOp::Advance { millis }),
            any::<u8>().prop_map(|idx| NetOp::Cancel { idx }),
            Just(NetOp::Settle),
        ]
        .boxed()
    }

    fn precondition(&self, model: &NetsimModel, op: &NetOp) -> bool {
        match op {
            // Cancelling with no submissions is meaningless; skipping
            // (not failing) keeps subsequences runnable for shrinking.
            NetOp::Cancel { .. } => !model.submit_order.is_empty(),
            _ => true,
        }
    }

    fn apply(
        &self,
        model: &mut NetsimModel,
        system: &mut NetsimSystem,
        op: &NetOp,
    ) -> Result<(), String> {
        let now = system.sim.now();
        let mut settled = false;
        match op {
            NetOp::Submit { pairs } => {
                let id = model.next_id;
                model.next_id += 1;
                model.submit_order.push(id);
                model.requests.insert(
                    id,
                    ReqModel {
                        n: *pairs as u64,
                        accepted: false,
                        cancelled: false,
                        last_head: 0,
                        completed: false,
                    },
                );
                system.sim.submit_at(
                    now,
                    system.vc,
                    UserRequest {
                        id: RequestId(id),
                        head: Address {
                            node: system.head,
                            identifier: 0,
                        },
                        tail: Address {
                            node: system.tail,
                            identifier: 0,
                        },
                        min_fidelity: 0.8,
                        demand: Demand::Pairs {
                            n: *pairs as u64,
                            deadline: None,
                        },
                        request_type: RequestType::Keep,
                        final_state: None,
                    },
                );
                // Deliver the submission event itself.
                system.sim.run_until(now);
            }
            NetOp::Advance { millis } => {
                system
                    .sim
                    .run_until(now + SimDuration::from_millis(*millis as u64));
            }
            NetOp::Cancel { idx } => {
                let id = model.submit_order[*idx as usize % model.submit_order.len()];
                if let Some(r) = model.requests.get_mut(&id) {
                    // Cancelling an already-completed request is a no-op.
                    if !r.completed {
                        r.cancelled = true;
                    }
                }
                system.sim.cancel_at(now, system.vc, RequestId(id));
                system.sim.run_until(now);
            }
            NetOp::Settle => {
                system.sim.run_until(now + SimDuration::from_secs(60));
                settled = true;
            }
        }
        self.check_against_system(model, system, settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_ops;

    #[test]
    fn submit_settle_passes_on_the_faithful_runtime() {
        let ops = [
            NetOp::Submit { pairs: 2 },
            NetOp::Advance { millis: 20 },
            NetOp::Settle,
        ];
        let spec = NetsimSpec::new(11);
        match run_ops(&spec, &ops) {
            Ok(applied) => assert_eq!(applied, 3),
            Err(d) => panic!("faithful runtime diverged: step {} — {}", d.step, d.message),
        }
    }

    #[test]
    fn submit_settle_passes_with_signalling_on_wire() {
        // The same contract must hold when every signalling frame rides
        // the classical plane: installs walk the path, PAIR_READY pays
        // latency, TRACKs get acked. Applications cannot tell.
        let ops = [
            NetOp::Submit { pairs: 2 },
            NetOp::Advance { millis: 20 },
            NetOp::Submit { pairs: 1 },
            NetOp::Settle,
        ];
        let spec = NetsimSpec::wired(11);
        match run_ops(&spec, &ops) {
            Ok(applied) => assert_eq!(applied, 4),
            Err(d) => panic!("wired runtime diverged: step {} — {}", d.step, d.message),
        }
    }

    #[test]
    fn submit_settle_passes_under_component_chaos() {
        // Link churn during the first two seconds: safety (at most n,
        // dense sequences, exactly-once completion) plus zero-leak
        // after the settle must hold whatever the schedule does.
        let ops = [
            NetOp::Submit { pairs: 2 },
            NetOp::Advance { millis: 300 },
            NetOp::Submit { pairs: 1 },
            NetOp::Settle,
        ];
        let spec = NetsimSpec::chaos(11);
        match run_ops(&spec, &ops) {
            Ok(applied) => assert_eq!(applied, 4),
            Err(d) => panic!("chaos runtime diverged: step {} — {}", d.step, d.message),
        }
    }

    #[test]
    fn cancel_before_any_submit_is_skipped() {
        let ops = [NetOp::Cancel { idx: 0 }, NetOp::Settle];
        let spec = NetsimSpec::new(12);
        match run_ops(&spec, &ops) {
            Ok(applied) => assert_eq!(applied, 1, "cancel must be skipped"),
            Err(d) => panic!("diverged: step {} — {}", d.step, d.message),
        }
    }
}
