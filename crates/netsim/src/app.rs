//! The application harness: records everything the network delivers,
//! annotated with oracle ground truth, and derives the metrics the
//! paper's figures plot (request latency, throughput, fidelity).

use qn_net::events::{AppEvent, DeliveryKind};
use qn_net::ids::{CircuitId, RequestId};
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_sim::{NodeId, SimTime};
use std::collections::HashMap;

/// One delivery as observed by an application, annotated with the
/// simulation oracle's ground truth.
#[derive(Clone, Debug)]
pub struct DeliveryRecord {
    /// When the delivery happened.
    pub time: SimTime,
    /// Receiving node.
    pub node: NodeId,
    /// Circuit it arrived on.
    pub circuit: CircuitId,
    /// Request served.
    pub request: RequestId,
    /// Per-request delivery sequence at this end.
    pub sequence: u64,
    /// End-to-end entangled pair identifier (equal at both ends; `None`
    /// for unconfirmed EARLY deliveries).
    pub chain: Option<qn_net::events::ChainId>,
    /// What was delivered.
    pub payload: Payload,
    /// True fidelity of the pair to the protocol-claimed Bell state at
    /// delivery time (oracle; `None` for measurement deliveries and early
    /// qubit halves).
    pub oracle_fidelity: Option<f64>,
    /// Whether the protocol's tracked Bell state matched the pair's
    /// announced frame. A swap readout error does not break this: the
    /// flipped readout set the announced frame too (see `frame_error`).
    pub state_consistent: Option<bool>,
    /// Whether a swap readout error left the pair's true frame different
    /// from its announced one, so the pair is not the Bell state it is
    /// tracked as (`None` where `oracle_fidelity` is `None`).
    pub frame_error: Option<bool>,
}

/// Delivery payload, mirroring [`DeliveryKind`] without the pair end.
#[derive(Clone, Copy, Debug)]
pub enum Payload {
    /// A confirmed qubit (KEEP).
    Qubit {
        /// Claimed Bell state.
        state: BellState,
    },
    /// An early qubit (EARLY, unconfirmed).
    EarlyQubit {
        /// Announced (link-level) state at delivery.
        state: BellState,
    },
    /// Tracking info for an early qubit.
    EarlyTracking {
        /// Confirmed Bell state.
        state: BellState,
    },
    /// A measurement outcome (MEASURE).
    Measurement {
        /// Reported outcome bit.
        outcome: bool,
        /// Basis measured.
        basis: Pauli,
        /// Claimed Bell state.
        state: BellState,
    },
}

impl Payload {
    pub(crate) fn from_kind(kind: &DeliveryKind) -> Payload {
        match kind {
            DeliveryKind::Qubit { state, .. } => Payload::Qubit { state: *state },
            DeliveryKind::EarlyQubit { state, .. } => Payload::EarlyQubit { state: *state },
            DeliveryKind::EarlyTracking { state, .. } => Payload::EarlyTracking { state: *state },
            DeliveryKind::Measurement {
                outcome,
                basis,
                state,
            } => Payload::Measurement {
                outcome: *outcome,
                basis: *basis,
                state: *state,
            },
        }
    }
}

/// Everything applications observed during a run.
#[derive(Default)]
pub struct AppHarness {
    /// All deliveries, in time order.
    pub deliveries: Vec<DeliveryRecord>,
    /// All lifecycle notifications.
    pub events: Vec<(SimTime, NodeId, AppEvent)>,
    /// Submission times (set by the scenario driver).
    pub submitted: HashMap<(CircuitId, RequestId), SimTime>,
    /// Completion times (RequestCompleted at the head-end).
    pub completed: HashMap<(CircuitId, RequestId), SimTime>,
}

impl AppHarness {
    /// Record a lifecycle event.
    pub(crate) fn on_event(
        &mut self,
        time: SimTime,
        node: NodeId,
        circuit: CircuitId,
        ev: AppEvent,
    ) {
        if let AppEvent::RequestCompleted(id) = ev {
            self.completed.entry((circuit, id)).or_insert(time);
        }
        self.events.push((time, node, ev));
    }

    /// Latency of a request: submission to head-end completion.
    pub fn request_latency(
        &self,
        circuit: CircuitId,
        request: RequestId,
    ) -> Option<qn_sim::SimDuration> {
        let start = self.submitted.get(&(circuit, request))?;
        let end = self.completed.get(&(circuit, request))?;
        Some(end.since(*start))
    }

    /// All completed request latencies on a circuit, in request order.
    pub fn latencies(&self, circuit: CircuitId) -> Vec<(RequestId, qn_sim::SimDuration)> {
        let mut v: Vec<(RequestId, qn_sim::SimDuration)> = self
            .completed
            .keys()
            .filter(|(c, _)| *c == circuit)
            .filter_map(|(c, r)| self.request_latency(*c, *r).map(|l| (*r, l)))
            .collect();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    /// Confirmed pair deliveries on a circuit at a given node within a
    /// window (KEEP qubits and measurement outcomes count; early halves
    /// don't until confirmed).
    pub fn confirmed_deliveries(
        &self,
        circuit: CircuitId,
        node: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> usize {
        self.deliveries
            .iter()
            .filter(|d| {
                d.circuit == circuit
                    && d.node == node
                    && d.time >= from
                    && d.time <= to
                    && !matches!(d.payload, Payload::EarlyQubit { .. })
            })
            .count()
    }

    /// Deliveries whose oracle fidelity clears `threshold`.
    pub fn good_deliveries(
        &self,
        circuit: CircuitId,
        node: NodeId,
        threshold: f64,
        from: SimTime,
        to: SimTime,
    ) -> usize {
        self.deliveries
            .iter()
            .filter(|d| {
                d.circuit == circuit
                    && d.node == node
                    && d.time >= from
                    && d.time <= to
                    && d.oracle_fidelity.map(|f| f >= threshold).unwrap_or(false)
            })
            .count()
    }

    /// Mean oracle fidelity of confirmed deliveries on a circuit at a node.
    pub fn mean_fidelity(&self, circuit: CircuitId, node: NodeId) -> Option<f64> {
        self.mean_oracle_fidelity(circuit, node, |_| true)
    }

    /// [`AppHarness::mean_fidelity`] over the deliveries without a
    /// readout frame error (see [`DeliveryRecord::frame_error`]).
    pub fn mean_fidelity_true_frame(&self, circuit: CircuitId, node: NodeId) -> Option<f64> {
        self.mean_oracle_fidelity(circuit, node, |d| d.frame_error == Some(false))
    }

    fn mean_oracle_fidelity(
        &self,
        circuit: CircuitId,
        node: NodeId,
        keep: impl Fn(&DeliveryRecord) -> bool,
    ) -> Option<f64> {
        let fs: Vec<f64> = self
            .deliveries
            .iter()
            .filter(|d| d.circuit == circuit && d.node == node && keep(d))
            .filter_map(|d| d.oracle_fidelity)
            .collect();
        if fs.is_empty() {
            None
        } else {
            Some(fs.iter().sum::<f64>() / fs.len() as f64)
        }
    }

    /// Fraction of confirmed deliveries whose protocol-tracked state
    /// agreed with the pair's announced frame.
    pub fn state_consistency(&self) -> Option<f64> {
        let checks: Vec<bool> = self
            .deliveries
            .iter()
            .filter_map(|d| d.state_consistent)
            .collect();
        if checks.is_empty() {
            None
        } else {
            Some(checks.iter().filter(|b| **b).count() as f64 / checks.len() as f64)
        }
    }

    /// Times at which confirmed pairs were delivered at a node (Fig 11's
    /// arrival series).
    pub fn delivery_times(&self, circuit: CircuitId, node: NodeId) -> Vec<SimTime> {
        self.deliveries
            .iter()
            .filter(|d| {
                d.circuit == circuit
                    && d.node == node
                    && !matches!(d.payload, Payload::EarlyQubit { .. })
            })
            .map(|d| d.time)
            .collect()
    }

    /// Measurement outcome stream at a node, keyed by the end-to-end
    /// entangled pair identifier (for the QKD example).
    pub fn measurements(
        &self,
        circuit: CircuitId,
        node: NodeId,
    ) -> Vec<(qn_net::events::ChainId, bool, Pauli, BellState)> {
        self.deliveries
            .iter()
            .filter(|d| d.circuit == circuit && d.node == node)
            .filter_map(|d| match d.payload {
                Payload::Measurement {
                    outcome,
                    basis,
                    state,
                } => d.chain.map(|c| (c, outcome, basis, state)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_sim::SimDuration;

    #[test]
    fn latency_accounting() {
        let mut app = AppHarness::default();
        let c = CircuitId(1);
        let r = RequestId(1);
        app.submitted.insert((c, r), SimTime::from_ps(1000));
        app.on_event(
            SimTime::from_ps(5000),
            NodeId(0),
            c,
            AppEvent::RequestCompleted(r),
        );
        assert_eq!(app.request_latency(c, r), Some(SimDuration::from_ps(4000)));
        assert_eq!(app.latencies(c).len(), 1);
    }

    #[test]
    fn delivery_filters() {
        let mut app = AppHarness::default();
        let c = CircuitId(1);
        app.deliveries.push(DeliveryRecord {
            time: SimTime::from_ps(10),
            node: NodeId(0),
            circuit: c,
            request: RequestId(1),
            sequence: 0,
            chain: None,
            payload: Payload::Qubit {
                state: BellState::PHI_PLUS,
            },
            oracle_fidelity: Some(0.93),
            state_consistent: Some(true),
            frame_error: Some(false),
        });
        app.deliveries.push(DeliveryRecord {
            time: SimTime::from_ps(20),
            node: NodeId(0),
            circuit: c,
            request: RequestId(1),
            sequence: 1,
            chain: None,
            payload: Payload::EarlyQubit {
                state: BellState::PSI_PLUS,
            },
            oracle_fidelity: None,
            state_consistent: None,
            frame_error: None,
        });
        assert_eq!(
            app.confirmed_deliveries(c, NodeId(0), SimTime::ZERO, SimTime::MAX),
            1
        );
        assert_eq!(
            app.good_deliveries(c, NodeId(0), 0.9, SimTime::ZERO, SimTime::MAX),
            1
        );
        assert_eq!(
            app.good_deliveries(c, NodeId(0), 0.95, SimTime::ZERO, SimTime::MAX),
            0
        );
        assert_eq!(app.mean_fidelity(c, NodeId(0)), Some(0.93));
        assert_eq!(app.mean_fidelity_true_frame(c, NodeId(0)), Some(0.93));
        assert_eq!(app.state_consistency(), Some(1.0));
    }
}
