//! TRACK retransmission and wire-signalling recovery: the bounded,
//! deterministically-backed-off retransmit machinery that makes the
//! QNP's confirmation plane survive a lossy classical network, and the
//! pins proving it costs nothing when switched off.

use qn_hardware::params::{FibreParams, HardwareParams};
use qn_net::{Address, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::build::{NetSim, NetworkBuilder};
use qn_netsim::ClassicalFaults;
use qn_routing::{chain, CutoffPolicy};
use qn_sim::{NodeId, SimDuration, SimTime};

fn keep(id: u64, head: NodeId, tail: NodeId, f: f64, n: u64) -> UserRequest {
    UserRequest {
        id: RequestId(id),
        head: Address {
            node: head,
            identifier: 0,
        },
        tail: Address {
            node: tail,
            identifier: 0,
        },
        min_fidelity: f,
        demand: Demand::Pairs { n, deadline: None },
        request_type: RequestType::Keep,
        final_state: None,
    }
}

fn trajectory(sim: &NetSim) -> Vec<(u64, u32, u64, u64)> {
    sim.app()
        .deliveries
        .iter()
        .map(|d| (d.time.as_ps(), d.node.0, d.request.0, d.sequence))
        .collect()
}

fn wired_run(seed: u64, faults: ClassicalFaults, n: u64) -> NetSim {
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology)
        .seed(seed)
        .signalling_on_wire()
        .classical_faults(faults)
        .track_timeout(SimDuration::from_secs(2))
        .build();
    let (head, tail) = (NodeId(0), NodeId(3));
    let vc = sim
        .open_circuit(head, tail, 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, head, tail, 0.8, n));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    sim
}

#[test]
fn backoff_schedule_is_deterministic_per_seed() {
    // The retransmit backoff is a pure doubling of a fixed base — no
    // RNG draw anywhere in the timer path — so under identical
    // drop faults the full retransmission schedule, and with it every
    // downstream delivery, replays bit-for-bit from the seed alone.
    let faults = ClassicalFaults {
        drop: 0.15,
        ..ClassicalFaults::OFF
    };
    let a = wired_run(501, faults, 5);
    let b = wired_run(501, faults, 5);
    assert!(
        a.classical_stats().track_retransmits + a.classical_stats().signal_retransmits > 0,
        "no retransmissions sampled: {:?}",
        a.classical_stats()
    );
    assert_eq!(trajectory(&a), trajectory(&b));
    assert_eq!(a.classical_stats(), b.classical_stats());
    assert_eq!(a.node_stats(), b.node_stats());
    assert_eq!(a.events_processed(), b.events_processed());
    // A different seed samples different drops and a different
    // retransmission history.
    let c = wired_run(502, faults, 5);
    assert_ne!(trajectory(&a), trajectory(&c));
}

#[test]
fn duplicate_tracks_are_absorbed_and_reacked() {
    // 50% duplication on the wire: TRACKs (and their retransmissions)
    // arrive multiply at the far end. The receiver must absorb the
    // copies — a bounded request still confirms exactly n pairs per
    // end — while re-acking each duplicate so a sender whose ack was
    // the lost frame still converges.
    let faults = ClassicalFaults {
        duplicate: 0.5,
        reorder_window: SimDuration::from_millis(1),
        ..ClassicalFaults::OFF
    };
    let sim = wired_run(601, faults, 4);
    let s = sim.classical_stats();
    assert!(s.duplicated > 0, "no duplicates sampled");
    let app = sim.app();
    assert!(app
        .completed
        .contains_key(&(qn_net::CircuitId(1), RequestId(1))));
    for node in [NodeId(0), NodeId(3)] {
        assert_eq!(
            app.confirmed_deliveries(qn_net::CircuitId(1), node, SimTime::ZERO, SimTime::MAX),
            4,
            "{node}: duplicated TRACKs changed the confirmed count"
        );
    }
    // Every endpoint TRACK copy drew an ack: with duplication the plane
    // acked more often than the minimum one-per-pair.
    assert!(
        s.track_acks > 8,
        "duplicate TRACKs must be re-acked, got {} acks",
        s.track_acks
    );
    let ns = sim.node_stats();
    assert!(
        ns.total() > 0,
        "duplication should surface as absorbed anomalies: {ns:?}"
    );
}

#[test]
fn retransmit_budget_exhaustion_is_counted() {
    // A lossy plane (15% drops) on the default retry budget: TRACKs
    // held at the repeaters outlive their doubling timers, so some
    // retransmit chains exhaust their attempts and are abandoned —
    // counted, never looping forever — while the request still confirms
    // pairs, each at most once.
    let faults = ClassicalFaults {
        drop: 0.15,
        ..ClassicalFaults::OFF
    };
    let n = 5;
    let sim = wired_run(501, faults, n);
    let s = sim.classical_stats();
    assert!(
        s.retransmits_abandoned > 0,
        "15% drops must exhaust some retransmit chains: {s:?}"
    );
    for node in [NodeId(0), NodeId(3)] {
        let confirmed =
            sim.app()
                .confirmed_deliveries(qn_net::CircuitId(1), node, SimTime::ZERO, SimTime::MAX);
        assert!(
            confirmed > 0 && confirmed as u64 <= n,
            "{node}: {confirmed} confirmed deliveries for a request of {n}"
        );
    }
}

#[test]
fn unwired_run_arms_no_retransmit_ack_or_request_copy() {
    // Without `signalling_on_wire` the wire machinery never runs: no
    // TRACK or signalling retransmit, no ack and no request copy. This
    // is what keeps the committed unwired baselines bit-identical.
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(4242).build();
    let vc = sim
        .open_circuit(NodeId(0), NodeId(3), 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(3), 0.8, 6));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(45));
    assert_eq!(
        sim.app()
            .confirmed_deliveries(vc, NodeId(0), SimTime::ZERO, SimTime::MAX),
        6
    );
    let s = sim.classical_stats();
    assert_eq!(
        s.track_retransmits
            + s.signal_retransmits
            + s.request_retransmits
            + s.track_acks
            + s.signal_acks,
        0,
        "wire machinery ran on an unwired plane: {s:?}"
    );
}

/// A wired 4-chain whose hops each add `extra_ms` of message delay: one
/// 5-pair KEEP request at F 0.8 on the short cutoff, 30 s horizon.
fn slow_hop_run(extra_ms: u64) -> NetSim {
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology)
        .seed(7)
        .signalling_on_wire()
        .extra_message_delay(SimDuration::from_millis(extra_ms))
        .build();
    let (head, tail) = (NodeId(0), NodeId(3));
    let vc = sim
        .open_circuit(head, tail, 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, head, tail, 0.8, 5));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    sim
}

#[test]
fn wired_hops_slower_than_the_retransmit_base_deliver_their_pairs() {
    // A PAIR_READY takes one hop latency to arrive, so an orphan check
    // that fired after a fixed 10 ms reclaimed every pair on a hop
    // slower than that and the request never completed. The check now
    // waits at least the hop's round trip.
    for extra_ms in [11, 20] {
        let sim = slow_hop_run(extra_ms);
        for node in [NodeId(0), NodeId(3)] {
            assert_eq!(
                sim.app().confirmed_deliveries(
                    qn_net::CircuitId(1),
                    node,
                    SimTime::ZERO,
                    SimTime::MAX
                ),
                5,
                "{node} at {extra_ms} ms extra delay"
            );
        }
    }
}
