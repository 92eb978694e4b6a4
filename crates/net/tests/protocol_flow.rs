//! End-to-end protocol-flow tests for the QNP state machines.
//!
//! A miniature deterministic "wire" harness drives a chain of
//! [`QnpNode`]s: messages hop instantly in FIFO order, swaps complete
//! with scripted outcomes, and the test injects link pairs by hand. No
//! simulator, no randomness — every Appendix C rule is exercised under
//! full control, including message orderings the event-driven runtime
//! would only produce rarely.

use qn_net::events::{AppEvent, Delivery, DeliveryKind, NetInput, NetOutput, PairInfo};
use qn_net::ids::{Address, CircuitId, Correlator, RequestId};
use qn_net::messages::{Complete, Expire, Forward, Message, Track};
use qn_net::node::SWAP_RECORDS;
use qn_net::request::{Demand, RequestType, UserRequest};
use qn_net::routing_table::{DownstreamHop, LinkSide, RoutingEntry, UpstreamHop};
use qn_net::QnpNode;
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_sim::NodeId;
use std::collections::{HashMap, VecDeque};

const VC: CircuitId = CircuitId(1);

/// Pending physical operations the harness "hardware" owes the nodes.
#[derive(Debug)]
struct PendingSwap {
    node: usize,
    up: Correlator,
    down: Correlator,
}

struct Harness {
    nodes: Vec<QnpNode>,
    queue: VecDeque<(usize, NetInput)>,
    /// Scripted Bell outcomes for swaps, consumed in order.
    swap_outcomes: VecDeque<BellState>,
    pending_swaps: VecDeque<PendingSwap>,
    /// Auto-complete swaps as soon as they start.
    auto_swap: bool,
    /// Pending measurements (node, pair, basis).
    pending_measures: VecDeque<(usize, Correlator, Pauli)>,
    auto_measure: Option<bool>,
    // Observed effects.
    deliveries: Vec<(usize, Delivery)>,
    notifications: Vec<(usize, AppEvent)>,
    discards: Vec<(usize, Correlator)>,
    link_submits: Vec<(usize, LinkSide)>,
    link_stops: Vec<(usize, LinkSide)>,
    armed_cutoffs: HashMap<Correlator, (usize, LinkSide)>,
    sent_messages: Vec<(usize, &'static str)>,
    next_seq: u64,
}

impl Harness {
    /// A linear circuit over `n` nodes (node ids 0..n-1, head = 0). The
    /// harness delivers every message once, so no TRACK is duplicated.
    fn chain(n: usize) -> Self {
        let mut nodes: Vec<QnpNode> = (0..n)
            .map(|i| QnpNode::new(NodeId(i as u32), false))
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            let upstream = (i > 0).then(|| UpstreamHop {
                node: NodeId((i - 1) as u32),
                label: qn_link::LinkLabel((i - 1) as u32),
            });
            let downstream = (i + 1 < n).then(|| DownstreamHop {
                node: NodeId((i + 1) as u32),
                label: qn_link::LinkLabel(i as u32),
                min_fidelity: 0.95,
                max_lpr: 50.0,
            });
            let entry = RoutingEntry {
                circuit: VC,
                upstream,
                downstream,
                max_eer: 10.0,
                cutoff: qn_sim::SimDuration::from_millis(100),
            };
            let mut outs = Vec::new();
            node.handle(NetInput::InstallCircuit { entry }, &mut outs);
            assert!(outs.is_empty(), "install produces no effects");
        }
        Harness {
            nodes,
            queue: VecDeque::new(),
            swap_outcomes: VecDeque::new(),
            pending_swaps: VecDeque::new(),
            auto_swap: true,
            pending_measures: VecDeque::new(),
            auto_measure: None,
            deliveries: Vec::new(),
            notifications: Vec::new(),
            discards: Vec::new(),
            link_submits: Vec::new(),
            link_stops: Vec::new(),
            armed_cutoffs: HashMap::new(),
            sent_messages: Vec::new(),
            next_seq: 0,
        }
    }

    fn submit_request(&mut self, req: UserRequest) {
        self.queue.push_back((
            0,
            NetInput::UserRequest {
                circuit: VC,
                request: req,
            },
        ));
        self.drive();
    }

    /// Inject a link pair on link (i, i+1) of the chain.
    fn link_pair(&mut self, link: usize, announced: BellState) -> Correlator {
        let pair = Correlator {
            node_a: NodeId(link as u32),
            node_b: NodeId((link + 1) as u32),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let info = PairInfo { pair, announced };
        self.queue.push_back((
            link,
            NetInput::LinkPair {
                circuit: VC,
                side: LinkSide::Downstream,
                info,
            },
        ));
        self.queue.push_back((
            link + 1,
            NetInput::LinkPair {
                circuit: VC,
                side: LinkSide::Upstream,
                info,
            },
        ));
        self.drive();
        pair
    }

    fn fire_cutoff(&mut self, corr: Correlator) {
        let (node, side) = self
            .armed_cutoffs
            .remove(&corr)
            .expect("cutoff must be armed");
        self.queue.push_back((
            node,
            NetInput::CutoffExpired {
                circuit: VC,
                side,
                correlator: corr,
            },
        ));
        self.drive();
    }

    fn complete_next_swap(&mut self) {
        let swap = self.pending_swaps.pop_front().expect("a swap is pending");
        let outcome = self
            .swap_outcomes
            .pop_front()
            .unwrap_or(BellState::PHI_PLUS);
        self.queue.push_back((
            swap.node,
            NetInput::SwapCompleted {
                circuit: VC,
                up: swap.up,
                down: swap.down,
                outcome,
            },
        ));
        self.drive();
    }

    fn complete_next_measure(&mut self, outcome: bool) {
        let (node, pair, _basis) = self
            .pending_measures
            .pop_front()
            .expect("a measurement is pending");
        self.queue.push_back((
            node,
            NetInput::MeasureCompleted {
                circuit: VC,
                correlator: pair,
                outcome,
            },
        ));
        self.drive();
    }

    fn drive(&mut self) {
        while let Some((node_idx, input)) = self.queue.pop_front() {
            let mut outs = Vec::new();
            self.nodes[node_idx].handle(input, &mut outs);
            for out in outs {
                self.process(node_idx, out);
            }
            // Auto-complete hardware ops if configured.
            if self.auto_swap {
                while !self.pending_swaps.is_empty() {
                    let swap = self.pending_swaps.pop_front().unwrap();
                    let outcome = self
                        .swap_outcomes
                        .pop_front()
                        .unwrap_or(BellState::PHI_PLUS);
                    self.queue.push_back((
                        swap.node,
                        NetInput::SwapCompleted {
                            circuit: VC,
                            up: swap.up,
                            down: swap.down,
                            outcome,
                        },
                    ));
                }
            }
            if let Some(outcome) = self.auto_measure {
                while let Some((node, pair, _)) = self.pending_measures.pop_front() {
                    self.queue.push_back((
                        node,
                        NetInput::MeasureCompleted {
                            circuit: VC,
                            correlator: pair,
                            outcome,
                        },
                    ));
                }
            }
        }
    }

    fn process(&mut self, node_idx: usize, out: NetOutput) {
        match out {
            NetOutput::Send(toward, msg) => {
                let to = match toward {
                    LinkSide::Upstream => {
                        node_idx.checked_sub(1).expect("head cannot send upstream")
                    }
                    LinkSide::Downstream => node_idx + 1,
                };
                assert!(to < self.nodes.len(), "tail cannot send downstream");
                self.sent_messages.push((node_idx, msg.kind_name()));
                self.queue.push_back((
                    to,
                    NetInput::Message {
                        from: toward.opposite(),
                        msg,
                    },
                ));
            }
            NetOutput::StartSwap { up, down } => {
                self.pending_swaps.push_back(PendingSwap {
                    node: node_idx,
                    up,
                    down,
                });
            }
            NetOutput::SetCutoff { pair, side, .. } => {
                self.armed_cutoffs.insert(pair, (node_idx, side));
            }
            NetOutput::CancelCutoff { pair } => {
                self.armed_cutoffs.remove(&pair);
            }
            NetOutput::MeasureNow { pair, basis } => {
                self.pending_measures.push_back((node_idx, pair, basis));
            }
            NetOutput::Deliver(d) => self.deliveries.push((node_idx, d)),
            NetOutput::Notify(ev) => self.notifications.push((node_idx, ev)),
            NetOutput::DiscardPair { pair } => self.discards.push((node_idx, pair)),
            NetOutput::LinkSubmit { side, .. } => self.link_submits.push((node_idx, side)),
            NetOutput::LinkStop { side, .. } => self.link_stops.push((node_idx, side)),
            NetOutput::LinkSetWeight { .. }
            | NetOutput::ApplyCorrection { .. }
            | NetOutput::TrackAcked { .. } => {}
        }
    }

    fn deliveries_at(&self, node: usize) -> Vec<&Delivery> {
        self.deliveries
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, d)| d)
            .collect()
    }
}

fn keep_request(id: u64, n: u64) -> UserRequest {
    UserRequest {
        id: RequestId(id),
        head: Address {
            node: NodeId(0),
            identifier: 10,
        },
        tail: Address {
            node: NodeId(3),
            identifier: 20,
        },
        min_fidelity: 0.8,
        demand: Demand::Pairs { n, deadline: None },
        request_type: RequestType::Keep,
        final_state: None,
    }
}

#[test]
fn four_node_chain_delivers_pair_at_both_ends() {
    let mut h = Harness::chain(4);
    h.submit_request(keep_request(1, 1));
    // FORWARD propagated: head + both mids submit on their downstream link.
    assert_eq!(h.link_submits.len(), 3);
    assert!(h
        .notifications
        .contains(&(0, AppEvent::RequestAccepted(RequestId(1)))));

    // Pairs appear on all three links (Fig 6's flow).
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_MINUS);
    h.link_pair(2, BellState::PSI_PLUS);

    // Both ends deliver exactly once.
    let head = h.deliveries_at(0);
    let tail = h.deliveries_at(3);
    assert_eq!(head.len(), 1, "head delivers one pair");
    assert_eq!(tail.len(), 1, "tail delivers one pair");

    // The tracked state must XOR-combine all announced states and swap
    // outcomes; auto-swaps used Φ+ (identity), so:
    let expected = BellState::PSI_PLUS
        .combine(BellState::PSI_MINUS, BellState::PHI_PLUS)
        .combine(BellState::PSI_PLUS, BellState::PHI_PLUS);
    for d in head.iter().chain(tail.iter()) {
        match d.kind {
            DeliveryKind::Qubit { state, .. } => assert_eq!(state, expected),
            _ => panic!("KEEP delivers qubits"),
        }
        assert_eq!(d.request, RequestId(1));
        assert_eq!(d.sequence, 0);
    }
    // Addresses point at the right endpoints.
    assert_eq!(
        head[0].address,
        Address {
            node: NodeId(0),
            identifier: 10
        }
    );
    assert_eq!(
        tail[0].address,
        Address {
            node: NodeId(3),
            identifier: 20
        }
    );

    // Request completed at the head; COMPLETE reached everyone; links stop.
    assert!(h
        .notifications
        .contains(&(0, AppEvent::RequestCompleted(RequestId(1)))));
    assert_eq!(h.link_stops.len(), 3, "all three links stopped");
}

#[test]
fn both_ends_same_state_with_random_swap_outcomes() {
    // Scripted non-identity outcomes: both ends must still report the
    // same (correct) Bell state.
    let mut h = Harness::chain(4);
    h.swap_outcomes = VecDeque::from(vec![BellState::PSI_MINUS, BellState::PHI_MINUS]);
    h.submit_request(keep_request(1, 1));
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    h.link_pair(2, BellState::PSI_MINUS);

    let states: Vec<BellState> = h
        .deliveries
        .iter()
        .map(|(_, d)| match d.kind {
            DeliveryKind::Qubit { state, .. } => state,
            _ => panic!(),
        })
        .collect();
    assert_eq!(states.len(), 2);
    assert_eq!(states[0], states[1], "ends must agree on the Bell state");
    let expected = BellState::PSI_PLUS
        .combine(BellState::PSI_PLUS, BellState::PSI_MINUS)
        .combine(BellState::PSI_MINUS, BellState::PHI_MINUS);
    assert_eq!(states[0], expected);
}

#[test]
fn track_before_swap_waits_for_swap_record() {
    // Disable auto-swap: pairs on links 0 and 2 arrive and send TRACKs
    // through node 1/2 before any swap happens.
    let mut h = Harness::chain(4);
    h.auto_swap = false;
    h.submit_request(keep_request(1, 1));
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(2, BellState::PSI_PLUS);
    assert!(h.deliveries.is_empty());
    // Now the middle link pair arrives; swaps become possible.
    h.link_pair(1, BellState::PSI_PLUS);
    assert!(h.deliveries.is_empty(), "swaps still pending");
    h.complete_next_swap();
    h.complete_next_swap();
    assert_eq!(h.deliveries.len(), 2, "both ends deliver after swaps");
}

#[test]
fn swap_serialisation_one_at_a_time() {
    let mut h = Harness::chain(3);
    h.auto_swap = false;
    h.submit_request(keep_request(1, 2));
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    // Only one swap may start although two matches exist.
    assert_eq!(h.pending_swaps.len(), 1);
    h.complete_next_swap();
    // Completion triggers the next one.
    assert_eq!(h.pending_swaps.len(), 1);
    h.complete_next_swap();
    assert_eq!(h.deliveries.len(), 4, "two pairs × two ends");
}

#[test]
fn cutoff_discard_generates_expire_and_frees_both_ends() {
    let mut h = Harness::chain(3);
    h.auto_swap = false;
    h.submit_request(keep_request(1, 1));
    // Pair on link 0 only; the repeater (node 1) holds a qubit with a
    // cutoff armed; both end TRACKs … head's TRACK sits at node 1.
    let pair = h.link_pair(0, BellState::PSI_PLUS);
    assert!(h.armed_cutoffs.contains_key(&pair));
    // Cutoff fires: node 1 discards and (TRACK already arrived) bounces
    // EXPIRE back to the head.
    h.fire_cutoff(pair);
    // Node 1 discarded its view of the pair; the head discarded its end.
    assert_eq!(h.discards.len(), 2);
    assert!(h.discards.iter().any(|(n, _)| *n == 1));
    assert!(h.discards.iter().any(|(n, _)| *n == 0));
    // Chain can still complete afterwards with fresh pairs.
    h.auto_swap = true;
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    assert_eq!(h.deliveries.len(), 2);
}

#[test]
fn cutoff_before_track_uses_discard_record() {
    // The discard record path of Algorithm 9/8: the qubit expires before
    // the TRACK arrives (possible with slow control planes).
    let mut h = Harness::chain(3);
    h.auto_swap = false;
    h.submit_request(keep_request(1, 1));

    // Build the pair by hand so we can delay the head's LINK rule (and
    // therefore its TRACK) until after the cutoff fired at node 1.
    let corr = Correlator {
        node_a: NodeId(0),
        node_b: NodeId(1),
        seq: 999,
    };
    let info = PairInfo {
        pair: corr,
        announced: BellState::PSI_PLUS,
    };
    // Node 1 (repeater) learns of the pair first.
    h.queue.push_back((
        1,
        NetInput::LinkPair {
            circuit: VC,
            side: LinkSide::Upstream,
            info,
        },
    ));
    h.drive();
    // Cutoff fires before the head's TRACK exists anywhere.
    h.fire_cutoff(corr);
    assert_eq!(h.discards.len(), 1, "repeater discarded only");
    // Now the head processes its link pair and sends its TRACK; node 1
    // must convert it into an EXPIRE (via the discard record).
    h.queue.push_back((
        0,
        NetInput::LinkPair {
            circuit: VC,
            side: LinkSide::Downstream,
            info,
        },
    ));
    h.drive();
    assert_eq!(h.discards.len(), 2, "head freed its end after EXPIRE");
    assert!(h
        .sent_messages
        .iter()
        .any(|(n, k)| *n == 1 && *k == "EXPIRE"));
}

#[test]
fn measure_request_withholds_result_until_track() {
    let mut h = Harness::chain(3);
    h.auto_swap = true;
    h.auto_measure = None; // manual measurement completion
    let mut req = keep_request(1, 1);
    req.request_type = RequestType::Measure(Pauli::Z);
    h.submit_request(req);

    h.link_pair(0, BellState::PSI_PLUS);
    // Only the head saw a pair so far; it issued MeasureNow.
    assert_eq!(h.pending_measures.len(), 1);
    h.link_pair(1, BellState::PSI_PLUS);
    // The tail's pair arrived too; its MeasureNow is pending as well.
    assert_eq!(h.pending_measures.len(), 2);
    // Swap done, TRACKs delivered — but the outcomes are missing, so no
    // delivery yet ("the result is withheld until the tracking messages
    // arrive").
    assert!(h.deliveries.is_empty());
    h.complete_next_measure(true);
    h.complete_next_measure(false);
    assert_eq!(h.deliveries.len(), 2);
    for (_, d) in &h.deliveries {
        match d.kind {
            DeliveryKind::Measurement { basis, .. } => assert_eq!(basis, Pauli::Z),
            _ => panic!("MEASURE requests deliver measurement outcomes"),
        }
    }
}

#[test]
fn measure_outcome_before_track_also_works() {
    let mut h = Harness::chain(3);
    h.auto_swap = false; // keep the TRACKs stuck at the repeater
    h.auto_measure = None;
    let mut req = keep_request(1, 1);
    req.request_type = RequestType::Measure(Pauli::X);
    h.submit_request(req);
    h.link_pair(0, BellState::PSI_PLUS);
    // Outcomes arrive while the swap (and thus TRACK forwarding) is stuck.
    h.complete_next_measure(true);
    assert!(h.deliveries.is_empty());
    h.link_pair(1, BellState::PSI_PLUS);
    h.complete_next_measure(false);
    assert!(h.deliveries.is_empty(), "swap still pending");
    h.auto_swap = true;
    h.complete_next_swap();
    assert_eq!(h.deliveries.len(), 2);
}

#[test]
fn early_request_delivers_qubit_immediately() {
    let mut h = Harness::chain(3);
    h.auto_swap = false;
    let mut req = keep_request(1, 1);
    req.request_type = RequestType::Early;
    h.submit_request(req);
    h.link_pair(0, BellState::PSI_PLUS);
    // Head and tail … only the head's link has a pair; the head delivered
    // the qubit early, the tail has nothing yet.
    let head = h.deliveries_at(0);
    assert_eq!(head.len(), 1);
    assert!(matches!(head[0].kind, DeliveryKind::EarlyQubit { .. }));
    // Tracking confirmation arrives after the swap.
    h.link_pair(1, BellState::PSI_PLUS);
    h.complete_next_swap();
    let head = h.deliveries_at(0);
    assert_eq!(head.len(), 2);
    assert!(matches!(head[1].kind, DeliveryKind::EarlyTracking { .. }));
}

#[test]
fn early_pair_expiry_notifies_app_instead_of_discarding() {
    let mut h = Harness::chain(3);
    h.auto_swap = false;
    let mut req = keep_request(1, 1);
    req.request_type = RequestType::Early;
    h.submit_request(req);
    let pair = h.link_pair(0, BellState::PSI_PLUS);
    assert_eq!(h.deliveries_at(0).len(), 1, "early qubit handed out");
    h.fire_cutoff(pair);
    // The head must NOT discard a qubit the app owns; it notifies instead.
    assert!(h.discards.iter().all(|(n, _)| *n != 0));
    assert!(h.notifications.iter().any(|(n, ev)| *n == 0
        && matches!(ev, AppEvent::EarlyPairExpired { request, .. } if *request == RequestId(1))));
}

#[test]
fn final_state_correction_applied_at_head() {
    let mut h = Harness::chain(3);
    let mut req = keep_request(1, 1);
    req.final_state = Some(BellState::PHI_PLUS);
    h.submit_request(req);
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    // Both ends must report the corrected state.
    for (_, d) in &h.deliveries {
        match d.kind {
            DeliveryKind::Qubit { state, .. } => assert_eq!(state, BellState::PHI_PLUS),
            _ => panic!(),
        }
    }
    assert_eq!(h.deliveries.len(), 2);
}

#[test]
fn two_requests_aggregate_on_one_circuit() {
    let mut h = Harness::chain(3);
    h.submit_request(keep_request(1, 2));
    h.submit_request(keep_request(2, 2));
    for _ in 0..4 {
        h.link_pair(0, BellState::PSI_PLUS);
        h.link_pair(1, BellState::PSI_PLUS);
    }
    // All four chains delivered; both requests completed.
    assert_eq!(h.deliveries_at(0).len(), 4);
    assert_eq!(h.deliveries_at(2).len(), 4);
    assert!(h
        .notifications
        .contains(&(0, AppEvent::RequestCompleted(RequestId(1)))));
    assert!(h
        .notifications
        .contains(&(0, AppEvent::RequestCompleted(RequestId(2)))));
    // Sequence numbers are per request.
    let mut per_req: HashMap<RequestId, Vec<u64>> = HashMap::new();
    for d in h.deliveries_at(0) {
        per_req.entry(d.request).or_default().push(d.sequence);
    }
    for (_, seqs) in per_req {
        assert_eq!(seqs, vec![0, 1]);
    }
}

#[test]
fn head_and_tail_assign_consistently() {
    // With symmetric round-robin demux and clean in-order chains the
    // cross-check should pass every time: no discards at the end-nodes.
    let mut h = Harness::chain(3);
    h.submit_request(keep_request(1, 3));
    h.submit_request(keep_request(2, 3));
    for _ in 0..6 {
        h.link_pair(0, BellState::PSI_PLUS);
        h.link_pair(1, BellState::PSI_PLUS);
    }
    assert_eq!(h.deliveries.len(), 12);
    assert!(h.discards.is_empty(), "no cross-check failures expected");
}

#[test]
fn policing_rejects_and_shapes() {
    let mut h = Harness::chain(3);
    // max_eer = 10 in the harness.
    let mut r1 = keep_request(1, 100);
    r1.demand = Demand::Rate { pairs_per_sec: 8.0 };
    h.submit_request(r1);
    assert!(h
        .notifications
        .contains(&(0, AppEvent::RequestAccepted(RequestId(1)))));

    let mut r2 = keep_request(2, 100);
    r2.demand = Demand::Rate { pairs_per_sec: 5.0 };
    h.submit_request(r2);
    assert!(h
        .notifications
        .contains(&(0, AppEvent::RequestShaped(RequestId(2)))));

    let mut r3 = keep_request(3, 100);
    r3.demand = Demand::Rate {
        pairs_per_sec: 50.0,
    };
    h.submit_request(r3);
    assert!(h
        .notifications
        .iter()
        .any(|(n, ev)| *n == 0 && matches!(ev, AppEvent::RequestRejected(RequestId(3), _))));

    // Cancelling request 1 frees bandwidth; request 2 activates.
    h.queue.push_back((
        0,
        NetInput::CancelRequest {
            circuit: VC,
            request: RequestId(1),
        },
    ));
    h.drive();
    assert!(h
        .notifications
        .contains(&(0, AppEvent::RequestAccepted(RequestId(2)))));
}

#[test]
fn duplicate_request_id_rejected() {
    let mut h = Harness::chain(3);
    h.submit_request(keep_request(1, 5));
    h.submit_request(keep_request(1, 5));
    assert!(h
        .notifications
        .iter()
        .any(|(_, ev)| matches!(ev, AppEvent::RequestRejected(RequestId(1), _))));
}

#[test]
fn unsolicited_pairs_are_discarded() {
    // A pair arriving with no active requests must be released.
    let mut h = Harness::chain(3);
    h.submit_request(keep_request(1, 1));
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    let before = h.discards.len();
    // Request complete; the link keeps producing one more pair.
    h.link_pair(0, BellState::PSI_PLUS);
    assert!(h.discards.len() > before, "surplus pair must be discarded");
}

#[test]
fn teardown_aborts_and_notifies() {
    let mut h = Harness::chain(3);
    h.auto_swap = false;
    h.submit_request(keep_request(1, 2));
    h.link_pair(0, BellState::PSI_PLUS);
    h.queue
        .push_back((0, NetInput::TeardownCircuit { circuit: VC }));
    h.drive();
    assert!(h
        .notifications
        .iter()
        .any(|(n, ev)| *n == 0 && matches!(ev, AppEvent::CircuitDown(_))));
    // The head's in-transit pair was released.
    assert!(h.discards.iter().any(|(n, _)| *n == 0));
}

#[test]
fn two_node_circuit_single_link_works() {
    // Degenerate circuit: head and tail adjacent, no swaps at all.
    let mut h = Harness::chain(2);
    h.submit_request(UserRequest {
        tail: Address {
            node: NodeId(1),
            identifier: 20,
        },
        ..keep_request(1, 2)
    });
    h.link_pair(0, BellState::PSI_MINUS);
    h.link_pair(0, BellState::PSI_PLUS);
    assert_eq!(h.deliveries.len(), 4);
    // States delivered must equal the announced link states.
    let states: Vec<BellState> = h
        .deliveries
        .iter()
        .map(|(_, d)| match d.kind {
            DeliveryKind::Qubit { state, .. } => state,
            _ => panic!(),
        })
        .collect();
    assert!(states.contains(&BellState::PSI_MINUS));
    assert!(states.contains(&BellState::PSI_PLUS));
}

#[test]
fn five_node_chain_three_swaps() {
    let mut h = Harness::chain(5);
    h.swap_outcomes = VecDeque::from(vec![
        BellState::PHI_MINUS,
        BellState::PSI_PLUS,
        BellState::PSI_MINUS,
    ]);
    h.submit_request(UserRequest {
        tail: Address {
            node: NodeId(4),
            identifier: 20,
        },
        ..keep_request(1, 1)
    });
    let links = [
        BellState::PSI_PLUS,
        BellState::PSI_MINUS,
        BellState::PSI_PLUS,
        BellState::PSI_MINUS,
    ];
    for (i, b) in links.iter().enumerate() {
        h.link_pair(i, *b);
    }
    assert_eq!(h.deliveries.len(), 2);
    let states: Vec<BellState> = h
        .deliveries
        .iter()
        .map(|(_, d)| match d.kind {
            DeliveryKind::Qubit { state, .. } => state,
            _ => panic!(),
        })
        .collect();
    assert_eq!(states[0], states[1]);
}

#[test]
fn middle_link_expiry_breaks_only_the_affected_side() {
    // Four nodes; pairs exist on links 0 and 1 and have been swapped at
    // node 1, so a chain spans nodes 0..2. The pair on link 1 also has a
    // queued twin at node 2 (downstream side). When node 2's cutoff for
    // its upstream pair fires, the head-side chain must break (EXPIRE to
    // the head), while the tail side — which has no chain yet — is
    // unaffected and can still complete once fresh pairs arrive.
    let mut h = Harness::chain(4);
    h.auto_swap = true;
    h.submit_request(keep_request(1, 1));

    h.link_pair(0, BellState::PSI_PLUS);
    let p1 = h.link_pair(1, BellState::PSI_PLUS);
    // Swap happened at node 1 (auto); node 2 still holds its end of p1
    // in the upstream queue with a cutoff armed.
    assert!(h.armed_cutoffs.contains_key(&p1));
    let discards_before = h.discards.len();
    h.fire_cutoff(p1);
    // Node 2 discarded its end; the head's TRACK (waiting at node 2)
    // converts into an EXPIRE that travels to node 0 which frees its end.
    assert!(h.discards.len() >= discards_before + 2);
    assert!(h
        .sent_messages
        .iter()
        .any(|(n, k)| *n == 2 && *k == "EXPIRE"));
    assert!(h.deliveries.is_empty());

    // Fresh pairs on all three links complete the request.
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    h.link_pair(2, BellState::PSI_PLUS);
    assert_eq!(h.deliveries.len(), 2, "request completes after recovery");
}

#[test]
fn expire_relays_through_multiple_intermediates() {
    // Five-node chain; the tail-adjacent pair expires at node 3 after the
    // head's TRACK has travelled through nodes 1 and 2 (their swaps done).
    let mut h = Harness::chain(5);
    h.auto_swap = true;
    h.submit_request(UserRequest {
        tail: Address {
            node: NodeId(4),
            identifier: 20,
        },
        ..keep_request(1, 1)
    });
    h.link_pair(0, BellState::PSI_PLUS);
    h.link_pair(1, BellState::PSI_PLUS);
    let p = h.link_pair(2, BellState::PSI_PLUS);
    // Chain now spans nodes 0..3 (two swaps done); node 3 holds the end
    // of p with a cutoff armed, and the head's TRACK waits there.
    h.fire_cutoff(p);
    // The EXPIRE must traverse nodes 2 and 1 on its way to the head.
    let expire_hops: Vec<usize> = h
        .sent_messages
        .iter()
        .filter(|(_, k)| *k == "EXPIRE")
        .map(|(n, _)| *n)
        .collect();
    assert!(expire_hops.contains(&3), "origin of the EXPIRE");
    assert!(
        expire_hops.contains(&2) && expire_hops.contains(&1),
        "relay hops"
    );
    // The head freed its qubit.
    assert!(h.discards.iter().any(|(n, _)| *n == 0));
    assert!(h.deliveries.is_empty());
}

/// Teardown at an end-node releases its in-transit pairs in ascending
/// correlator order, not in the order of the map that holds them: the
/// order decides which qubits the runtime frees first, so it must not
/// hang on the map's hasher or layout. The map iterates these eight
/// correlators out of order, so the test fails if teardown stops
/// sorting.
#[test]
fn teardown_releases_in_transit_pairs_in_correlator_order() {
    let teardown = |request_type: RequestType| {
        let mut node = QnpNode::new(NodeId(0), false);
        let mut outs = Vec::new();
        let entry = RoutingEntry {
            circuit: VC,
            upstream: None,
            downstream: Some(DownstreamHop {
                node: NodeId(1),
                label: qn_link::LinkLabel(0),
                min_fidelity: 0.95,
                max_lpr: 50.0,
            }),
            max_eer: 10.0,
            cutoff: qn_sim::SimDuration::from_millis(100),
        };
        node.handle(NetInput::InstallCircuit { entry }, &mut outs);
        let request = UserRequest {
            request_type,
            ..keep_request(1, 8)
        };
        node.handle(
            NetInput::UserRequest {
                circuit: VC,
                request,
            },
            &mut outs,
        );
        // Announced out of correlator order.
        for seq in [5u64, 2, 7, 0, 3, 6, 1, 4] {
            let pair = Correlator {
                node_a: NodeId(0),
                node_b: NodeId(1),
                seq,
            };
            let info = PairInfo {
                pair,
                announced: BellState::PHI_PLUS,
            };
            node.handle(
                NetInput::LinkPair {
                    circuit: VC,
                    side: LinkSide::Downstream,
                    info,
                },
                &mut outs,
            );
        }
        assert_eq!(node.in_transit_len(VC), 8);
        outs.clear();
        node.handle(NetInput::TeardownCircuit { circuit: VC }, &mut outs);
        outs
    };
    for request_type in [RequestType::Keep, RequestType::Early] {
        let outs = teardown(request_type);
        let released: Vec<u64> = outs
            .iter()
            .filter_map(|out| match out {
                NetOutput::DiscardPair { pair }
                | NetOutput::Notify(AppEvent::EarlyPairExpired { pair, .. }) => Some(pair.seq),
                _ => None,
            })
            .collect();
        assert_eq!(released, (0..8).collect::<Vec<_>>(), "{request_type:?}");
    }
}

/// A repeater between node 0 (upstream) and node 2 (downstream),
/// driven input by input, on a classical plane that can deliver a TRACK
/// twice if `duplicate_tracks`.
fn repeater(duplicate_tracks: bool) -> QnpNode {
    let mut node = QnpNode::new(NodeId(1), duplicate_tracks);
    let entry = RoutingEntry {
        circuit: VC,
        upstream: Some(UpstreamHop {
            node: NodeId(0),
            label: qn_link::LinkLabel(0),
        }),
        downstream: Some(DownstreamHop {
            node: NodeId(2),
            label: qn_link::LinkLabel(1),
            min_fidelity: 0.95,
            max_lpr: 50.0,
        }),
        max_eer: 10.0,
        cutoff: qn_sim::SimDuration::from_millis(100),
    };
    let mut outs = Vec::new();
    node.handle(NetInput::InstallCircuit { entry }, &mut outs);
    node
}

/// Hand the repeater a link pair on `side`; returns its correlator and
/// the node's outputs.
fn repeater_pair(
    node: &mut QnpNode,
    side: LinkSide,
    seq: u64,
    announced: BellState,
) -> (Correlator, Vec<NetOutput>) {
    let (node_a, node_b) = match side {
        LinkSide::Upstream => (NodeId(0), NodeId(1)),
        LinkSide::Downstream => (NodeId(1), NodeId(2)),
    };
    let correlator = Correlator {
        node_a,
        node_b,
        seq,
    };
    let info = PairInfo {
        pair: correlator,
        announced,
    };
    let mut outs = Vec::new();
    node.handle(
        NetInput::LinkPair {
            circuit: VC,
            side,
            info,
        },
        &mut outs,
    );
    (correlator, outs)
}

/// The TRACK an end-node originates for its link pair `origin`.
fn track_for(origin: Correlator, announced: BellState) -> Track {
    Track {
        circuit: VC,
        request: RequestId(1),
        head_identifier: 10,
        tail_identifier: 20,
        origin,
        link: origin,
        outcome_state: announced,
        epoch: None,
    }
}

/// Hand the repeater one message from `from`; returns its outputs.
fn message_from(node: &mut QnpNode, from: LinkSide, msg: Message) -> Vec<NetOutput> {
    let mut outs = Vec::new();
    node.handle(NetInput::Message { from, msg }, &mut outs);
    outs
}

/// Swap the repeater's pairs `seq` (upstream) and `seq + 1`
/// (downstream) with `outcome`; returns their correlators and the
/// completion's outputs.
fn repeater_swap(
    node: &mut QnpNode,
    seq: u64,
    announced: [BellState; 2],
    outcome: BellState,
) -> (Correlator, Correlator, Vec<NetOutput>) {
    let (up, _) = repeater_pair(node, LinkSide::Upstream, seq, announced[0]);
    let (down, outs) = repeater_pair(node, LinkSide::Downstream, seq + 1, announced[1]);
    assert!(outs
        .iter()
        .any(|o| matches!(o, NetOutput::StartSwap { .. })));
    let mut outs = Vec::new();
    node.handle(
        NetInput::SwapCompleted {
            circuit: VC,
            up,
            down,
            outcome,
        },
        &mut outs,
    );
    (up, down, outs)
}

/// A duplicated TRACK finds its swap record consumed; the repeater
/// re-forwards the rewritten copy it relayed the first time, out of the
/// opposite side, and counts it — on either side.
#[test]
fn repeater_relays_a_duplicate_track_on_either_side() {
    let mut node = repeater(true);
    let announced = [BellState::PSI_PLUS, BellState::PSI_MINUS];
    let outcome = BellState::PHI_MINUS;
    let (up, down, outs) = repeater_swap(&mut node, 0, announced, outcome);
    assert!(
        outs.is_empty(),
        "no TRACK waited, so only records: {outs:?}"
    );

    let mut relayed = 0;
    for (from, here, there) in [
        (LinkSide::Upstream, (up, announced[0]), (down, announced[1])),
        (
            LinkSide::Downstream,
            (down, announced[1]),
            (up, announced[0]),
        ),
    ] {
        let track = track_for(here.0, here.1);
        let mut copies = Vec::new();
        for _ in 0..2 {
            match &message_from(&mut node, from, Message::Track(track))[..] {
                [NetOutput::Send(side, Message::Track(t))] => copies.push((*side, *t)),
                outs => panic!("TRACK from {from:?}: {outs:?}"),
            }
        }
        let expected = Track {
            link: there.0,
            outcome_state: here.1.combine(there.1, outcome),
            ..track
        };
        assert_eq!(copies[0], (from.opposite(), expected), "from {from:?}");
        assert_eq!(
            copies[1], copies[0],
            "the duplicate leaves as the first did"
        );
        relayed += 1;
        assert_eq!(node.stats.duplicate_tracks_relayed, relayed);
    }
    assert_eq!(node.stats.total(), relayed);
    assert_eq!(node.relayed_tracks_len(VC), 2);
}

/// On a plane that delivers each TRACK once, the repeater relays a TRACK
/// from either side across its swap and keeps no copy of it: no
/// duplicate could ever read one.
#[test]
fn repeater_keeps_no_relayed_tracks_without_duplicates() {
    let mut node = repeater(false);
    let announced = [BellState::PSI_PLUS, BellState::PSI_MINUS];
    let outcome = BellState::PHI_MINUS;
    let (up, down, _) = repeater_swap(&mut node, 0, announced, outcome);
    assert_eq!(node.swap_records_len(VC), 2);
    for (from, here, there) in [
        (LinkSide::Upstream, (up, announced[0]), (down, announced[1])),
        (
            LinkSide::Downstream,
            (down, announced[1]),
            (up, announced[0]),
        ),
    ] {
        let track = track_for(here.0, here.1);
        let expected = Track {
            link: there.0,
            outcome_state: here.1.combine(there.1, outcome),
            ..track
        };
        match &message_from(&mut node, from, Message::Track(track))[..] {
            [NetOutput::Send(side, Message::Track(t))] => {
                assert_eq!((*side, *t), (from.opposite(), expected), "from {from:?}")
            }
            outs => panic!("TRACK from {from:?}: {outs:?}"),
        }
    }
    assert_eq!(node.swap_records_len(VC), 0);
    assert_eq!(node.relayed_tracks_len(VC), 0);
    assert_eq!(node.stats.total(), 0);
}

/// A swap record whose chain broke on the far side never meets its
/// TRACK. Each side keeps only the newest `SWAP_RECORDS`, so a circuit
/// that outlives more broken chains than that holds no more: the oldest
/// records go first, and the newest still relays its TRACK.
#[test]
fn repeater_swap_records_stay_bounded_over_broken_chains() {
    let mut node = repeater(false);
    let announced = [BellState::PHI_PLUS; 2];
    let chains: Vec<_> = (0..SWAP_RECORDS as u64 + 100)
        .map(|chain| {
            let (up, down, outs) =
                repeater_swap(&mut node, 2 * chain, announced, BellState::PHI_PLUS);
            assert!(outs.is_empty(), "{outs:?}");
            (up, down)
        })
        .collect();
    assert_eq!(node.swap_records_len(VC), 2 * SWAP_RECORDS);
    let track_from_upstream = |node: &mut QnpNode, up| {
        message_from(
            node,
            LinkSide::Upstream,
            Message::Track(track_for(up, BellState::PHI_PLUS)),
        )
    };
    let outs = track_from_upstream(&mut node, chains[0].0);
    assert!(outs.is_empty(), "the oldest record is gone: {outs:?}");
    let (up, down) = chains[chains.len() - 1];
    let outs = track_from_upstream(&mut node, up);
    assert!(
        matches!(&outs[..], [NetOutput::Send(LinkSide::Downstream, Message::Track(t))] if t.link == down),
        "{outs:?}"
    );
    assert_eq!(node.swap_records_len(VC), 2 * SWAP_RECORDS - 1);
}

/// A TRACK for a pair the cutoff discarded bounces an EXPIRE back
/// toward its sender, and so does its duplicate: the discard record is
/// kept after the first match — on either side.
#[test]
fn tracks_for_a_discarded_pair_bounce_expires_on_either_side() {
    let mut node = repeater(true);
    for (seq, from) in LinkSide::BOTH.into_iter().enumerate() {
        let (corr, outs) = repeater_pair(&mut node, from, seq as u64, BellState::PSI_PLUS);
        assert!(
            outs.iter()
                .any(|o| matches!(o, NetOutput::SetCutoff { side, .. } if *side == from)),
            "{outs:?}"
        );
        let mut outs = Vec::new();
        node.handle(
            NetInput::CutoffExpired {
                circuit: VC,
                side: from,
                correlator: corr,
            },
            &mut outs,
        );
        assert!(
            matches!(&outs[..], [NetOutput::DiscardPair { pair }] if *pair == corr),
            "{outs:?}"
        );
        let track = track_for(corr, BellState::PSI_PLUS);
        for copy in 0..2 {
            match &message_from(&mut node, from, Message::Track(track))[..] {
                [NetOutput::Send(side, Message::Expire(e))] => {
                    assert_eq!(*side, from, "copy {copy} from {from:?}");
                    assert_eq!(
                        *e,
                        Expire {
                            circuit: VC,
                            origin: corr
                        }
                    );
                }
                outs => panic!("copy {copy} of a TRACK from {from:?}: {outs:?}"),
            }
        }
    }
    assert_eq!(node.stats.total(), 0, "bounces are not anomalies");
}

/// A repeater keeps one set of active requests and drives its
/// downstream link request from it: the first FORWARD submits, a later
/// request's FORWARD re-weights, a repeated FORWARD is relayed and
/// counted but submits nothing, the COMPLETE that empties the set stops
/// the link once, a COMPLETE for a request the set does not hold is
/// relayed with no stop, and a FORWARD after its COMPLETE is absorbed.
#[test]
fn repeater_drives_its_downstream_link_from_one_request_set() {
    let mut node = repeater(false);
    let label = qn_link::LinkLabel(1);
    let forward = |request, rate| Forward {
        circuit: VC,
        request: RequestId(request),
        head_identifier: 10,
        tail_identifier: 20,
        request_type: RequestType::Keep,
        number_of_pairs: Some(4),
        final_state: None,
        rate,
    };
    let complete = |request, rate| Complete {
        circuit: VC,
        request: RequestId(request),
        head_identifier: 10,
        tail_identifier: 20,
        rate,
    };
    let mut from_upstream = |msg| message_from(&mut node, LinkSide::Upstream, msg);
    // The downstream hop's max_lpr is 50 and the circuit's max_eer 10,
    // so a request rate r weighs 5 r.
    let (f1, f2) = (forward(1, 2.0), forward(2, 5.0));
    let outs = from_upstream(Message::Forward(f1));
    assert!(
        matches!(&outs[..], [
            NetOutput::LinkSubmit { side: LinkSide::Downstream, label: l, weight, .. },
            NetOutput::Send(LinkSide::Downstream, Message::Forward(f)),
        ] if *l == label && *weight == 10.0 && *f == f1),
        "first FORWARD: {outs:?}"
    );
    let outs = from_upstream(Message::Forward(f1));
    assert!(
        matches!(&outs[..], [NetOutput::Send(LinkSide::Downstream, Message::Forward(f))] if *f == f1),
        "repeated FORWARD: {outs:?}"
    );
    let outs = from_upstream(Message::Forward(f2));
    assert!(
        matches!(&outs[..], [
            NetOutput::LinkSetWeight { side: LinkSide::Downstream, label: l, weight },
            NetOutput::Send(LinkSide::Downstream, Message::Forward(f)),
        ] if *l == label && *weight == 25.0 && *f == f2),
        "second request's FORWARD: {outs:?}"
    );
    let (c1, c2) = (complete(1, 3.0), complete(2, 0.0));
    let outs = from_upstream(Message::Complete(c1));
    assert!(
        matches!(&outs[..], [
            NetOutput::LinkSetWeight { side: LinkSide::Downstream, label: l, weight },
            NetOutput::Send(LinkSide::Downstream, Message::Complete(c)),
        ] if *l == label && *weight == 15.0 && *c == c1),
        "COMPLETE leaving a request: {outs:?}"
    );
    let outs = from_upstream(Message::Complete(c2));
    assert!(
        matches!(&outs[..], [
            NetOutput::LinkStop { side: LinkSide::Downstream, label: l },
            NetOutput::Send(LinkSide::Downstream, Message::Complete(c)),
        ] if *l == label && *c == c2),
        "COMPLETE emptying the set: {outs:?}"
    );
    for c in [c2, complete(9, 0.0)] {
        let outs = from_upstream(Message::Complete(c));
        assert!(
            matches!(&outs[..], [NetOutput::Send(LinkSide::Downstream, Message::Complete(relayed))] if *relayed == c),
            "COMPLETE for a request not in the set: {outs:?}"
        );
    }
    let outs = from_upstream(Message::Forward(f1));
    assert!(
        matches!(&outs[..], [NetOutput::Send(LinkSide::Downstream, Message::Forward(f))] if *f == f1),
        "FORWARD after its COMPLETE: {outs:?}"
    );
    assert_eq!(node.stats.duplicate_forwards, 2);
    assert_eq!(node.stats.duplicate_completes, 2);
    let mut outs = Vec::new();
    node.handle(NetInput::TeardownCircuit { circuit: VC }, &mut outs);
    assert!(
        !outs.iter().any(|o| matches!(o, NetOutput::LinkStop { .. })),
        "the link was already stopped: {outs:?}"
    );
}
