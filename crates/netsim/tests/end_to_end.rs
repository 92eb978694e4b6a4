//! Integration tests of the full simulation stack: routing + signalling
//! + QNP + link layer + hardware + events, on the paper's topologies.

use qn_hardware::params::{FibreParams, HardwareParams};
use qn_net::{Address, CircuitId, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::build::{NetSim, NetworkBuilder};
use qn_netsim::Payload;
use qn_quantum::gates::Pauli;
use qn_routing::{chain, dumbbell, CutoffPolicy};
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

fn lab_dumbbell(seed: u64) -> (NetSim, qn_routing::Dumbbell) {
    let (topology, d) = dumbbell(HardwareParams::simulation(), FibreParams::lab_2m());
    (NetworkBuilder::new(topology).seed(seed).build(), d)
}

#[test]
fn delivers_pairs_above_fidelity_threshold() {
    let (mut sim, d) = lab_dumbbell(11);
    let f = 0.85;
    let vc = sim
        .open_circuit(d.a0, d.b0, f, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, d.a0, d.b0, f, 5));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));

    let app = sim.app();
    assert!(
        app.completed.contains_key(&(vc, RequestId(1))),
        "request must complete"
    );
    // Both ends deliver all five pairs.
    assert_eq!(
        app.confirmed_deliveries(vc, d.a0, SimTime::ZERO, SimTime::MAX),
        5
    );
    assert_eq!(
        app.confirmed_deliveries(vc, d.b0, SimTime::ZERO, SimTime::MAX),
        5
    );
    // Oracle fidelities clear the threshold on average (individual pairs
    // fluctuate with the sampled noise).
    let mean = app.mean_fidelity(vc, d.a0).unwrap();
    assert!(
        mean >= f - 0.05,
        "mean delivered fidelity {mean} too far below target {f}"
    );
    // The protocol's Bell-state claims agree with the omniscient tracker
    // (readout fidelity 0.998 ⇒ rare mismatches only).
    assert!(app.state_consistency().unwrap() > 0.9);
}

#[test]
fn same_seed_reproduces_identical_runs() {
    let run = |seed| {
        let (mut sim, d) = lab_dumbbell(seed);
        let vc = sim
            .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
            .unwrap();
        sim.submit_at(SimTime::ZERO, vc, keep(1, d.a0, d.b0, 0.85, 4));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let times: Vec<u64> = sim
            .app()
            .deliveries
            .iter()
            .map(|r| r.time.as_ps())
            .collect();
        (times, sim.events_processed())
    };
    let (t1, e1) = run(42);
    let (t2, e2) = run(42);
    let (t3, _) = run(43);
    assert_eq!(t1, t2, "same seed must reproduce byte-identical timing");
    assert_eq!(e1, e2);
    assert_ne!(t1, t3, "different seeds must diverge");
}

#[test]
fn two_circuits_share_the_bottleneck() {
    let (mut sim, d) = lab_dumbbell(7);
    let v1 = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    let v2 = sim
        .open_circuit(d.a1, d.b1, 0.85, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, v1, keep(1, d.a0, d.b0, 0.85, 6));
    sim.submit_at(SimTime::ZERO, v2, keep(1, d.a1, d.b1, 0.85, 6));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let app = sim.app();
    assert!(app.completed.contains_key(&(v1, RequestId(1))));
    assert!(app.completed.contains_key(&(v2, RequestId(1))));
    // Fair sharing: latencies within a factor ~3 of each other.
    let l1 = app.request_latency(v1, RequestId(1)).unwrap().as_secs_f64();
    let l2 = app.request_latency(v2, RequestId(1)).unwrap().as_secs_f64();
    let ratio = (l1 / l2).max(l2 / l1);
    assert!(ratio < 3.0, "latencies {l1:.2}s vs {l2:.2}s too unequal");
}

#[test]
fn short_memory_lifetimes_cause_discards_but_protocol_still_delivers() {
    // T2 = 0.5 s: pairs decohere fast; the cutoff discards many but the
    // protocol keeps functioning (the Fig 10 property).
    let params = HardwareParams::simulation().with_electron_t2(0.5);
    let (topology, d) = dumbbell(params, FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(3).build();
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.8, CutoffPolicy::long())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, d.a0, d.b0, 0.8, 3));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let app = sim.app();
    assert!(
        app.completed.contains_key(&(vc, RequestId(1))),
        "protocol must still deliver with short memories"
    );
    let mean = app.mean_fidelity(vc, d.a0).unwrap();
    assert!(mean > 0.7, "delivered fidelity {mean} collapsed");
}

#[test]
fn oracle_baseline_runs_without_cutoffs() {
    let params = HardwareParams::simulation().with_electron_t2(1.0);
    let (topology, d) = dumbbell(params, FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology)
        .seed(5)
        .disable_cutoff()
        .build();
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.8, CutoffPolicy::long())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, d.a0, d.b0, 0.8, 10));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
    let app = sim.app();
    let total = app.confirmed_deliveries(vc, d.a0, SimTime::ZERO, SimTime::MAX);
    let good = app.good_deliveries(vc, d.a0, 0.8, SimTime::ZERO, SimTime::MAX);
    assert!(total > 0, "baseline must deliver pairs");
    // Without cutoffs some delivered pairs fall below threshold — the
    // oracle filters them (that is the baseline's defining behaviour).
    assert!(good <= total);
}

#[test]
fn excessive_message_delay_destroys_fidelity_not_liveness() {
    // Fig 10c: delays beyond the cutoff leave the quantum plane running
    // (swaps don't block on messages) but delivered pairs are stale.
    let params = HardwareParams::simulation().with_electron_t2(1.6);
    let (topology, d) = dumbbell(params, FibreParams::lab_2m());
    let mut fast = NetworkBuilder::new(topology.clone()).seed(9).build();
    let mut slow = NetworkBuilder::new(topology)
        .seed(9)
        .extra_message_delay(SimDuration::from_millis(60))
        .build();
    for sim in [&mut fast, &mut slow] {
        let vc = sim
            .open_circuit(d.a0, d.b0, 0.8, CutoffPolicy::short())
            .unwrap();
        sim.submit_at(SimTime::ZERO, vc, keep(1, d.a0, d.b0, 0.8, 5));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    }
    let vc = CircuitId(1);
    let f_fast = fast.app().mean_fidelity(vc, d.a0).unwrap();
    assert!(
        f_fast > 0.75,
        "fast control plane should deliver good pairs, got {f_fast}"
    );
    // The slow control plane must still *deliver* (liveness) …
    let slow_count = slow
        .app()
        .confirmed_deliveries(vc, d.a0, SimTime::ZERO, SimTime::MAX);
    assert!(slow_count > 0, "deliveries must not stall on slow messages");
    // … but with clearly degraded fidelity.
    let f_slow = slow.app().mean_fidelity(vc, d.a0).unwrap();
    assert!(
        f_slow < f_fast,
        "60 ms extra delay should hurt fidelity: {f_slow} vs {f_fast}"
    );
}

#[test]
fn measure_requests_produce_correlated_outcomes() {
    let (mut sim, d) = lab_dumbbell(21);
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    let req = UserRequest {
        request_type: RequestType::Measure(Pauli::Z),
        // Measure in a fixed Bell frame so outcomes correlate simply.
        final_state: Some(qn_quantum::BellState::PHI_PLUS),
        ..keep(1, d.a0, d.b0, 0.85, 20)
    };
    sim.submit_at(SimTime::ZERO, vc, req);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    let app = sim.app();
    let head = app.measurements(vc, d.a0);
    let tail = app.measurements(vc, d.b0);
    assert_eq!(head.len(), 20, "head outcomes");
    assert_eq!(tail.len(), 20, "tail outcomes");
    // Match by sequence; Φ+ measured in Z⊗Z correlates. With ~0.87 state
    // fidelity + readout noise expect ≥70 % agreement, ≫50 % random.
    let mut agree = 0;
    for (chain, o, _, _) in &head {
        if let Some((_, o2, _, _)) = tail.iter().find(|(c, _, _, _)| c == chain) {
            if o == o2 {
                agree += 1;
            }
        }
    }
    assert!(
        agree >= 14,
        "Z-outcomes should correlate strongly: {agree}/20"
    );
}

#[test]
fn early_requests_deliver_then_confirm() {
    let (mut sim, d) = lab_dumbbell(31);
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    let req = UserRequest {
        request_type: RequestType::Early,
        ..keep(1, d.a0, d.b0, 0.85, 3)
    };
    sim.submit_at(SimTime::ZERO, vc, req);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let app = sim.app();
    let early: usize = app
        .deliveries
        .iter()
        .filter(|r| matches!(r.payload, Payload::EarlyQubit { .. }))
        .count();
    let tracking: usize = app
        .deliveries
        .iter()
        .filter(|r| matches!(r.payload, Payload::EarlyTracking { .. }))
        .count();
    assert!(early >= 6, "both ends deliver early qubits: {early}");
    assert!(tracking >= 6, "tracking info follows: {tracking}");
    assert!(app.completed.contains_key(&(vc, RequestId(1))));
}

#[test]
fn final_state_requests_deliver_requested_bell_state() {
    let (mut sim, d) = lab_dumbbell(41);
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    let req = UserRequest {
        final_state: Some(qn_quantum::BellState::PHI_PLUS),
        ..keep(1, d.a0, d.b0, 0.85, 4)
    };
    sim.submit_at(SimTime::ZERO, vc, req);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let app = sim.app();
    let mut head_deliveries = 0;
    for rec in app.deliveries.iter().filter(|r| r.circuit == vc) {
        match rec.payload {
            Payload::Qubit { state } => {
                assert_eq!(state, qn_quantum::BellState::PHI_PLUS);
            }
            _ => panic!("KEEP request delivers qubits"),
        }
        if let Some(f) = rec.oracle_fidelity {
            assert!(f > 0.7, "pair fidelity {f}");
        }
        // The head corrects before delivering, so its claims must match
        // the omniscient frame (the tail may deliver pre-correction).
        if rec.node == d.a0 {
            head_deliveries += 1;
            assert_eq!(rec.state_consistent, Some(true));
        }
    }
    assert_eq!(head_deliveries, 4);
}

#[test]
fn near_term_chain_delivers_f05_pairs() {
    // Fig 11 smoke test: 3 nodes, 2 × 25 km, near-term hardware, one
    // communication qubit per node, carbon storage, F = 0.5.
    let topology = chain(
        3,
        HardwareParams::near_term(),
        FibreParams::telecom(25_000.0),
    );
    let mut sim = NetworkBuilder::new(topology).seed(13).near_term(2).build();
    // Hand-tuned plan, as the paper does ("As our routing protocol does
    // not work well in this environment we manually populate the routing
    // tables").
    let plan = qn_routing::CircuitPlan {
        path: vec![NodeId(0), NodeId(1), NodeId(2)],
        e2e_fidelity: 0.5,
        link_fidelity: 0.82,
        alpha: 0.1,
        cutoff: SimDuration::from_millis(1500),
        max_lpr: 5.0,
        max_eer: 1.0,
    };
    let vc = sim.install_plan(plan);
    sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(2), 0.5, 6));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(1800));
    let app = sim.app();
    let delivered = app.confirmed_deliveries(vc, NodeId(0), SimTime::ZERO, SimTime::MAX);
    assert!(
        delivered >= 6,
        "near-term hardware must still deliver (got {delivered})"
    );
    // The hand-tuned plan targets F = 0.5 exactly, so individual deliveries
    // straddle the bound and the sample mean lands on either side of it
    // (the paper reports "average fidelity ≈ 0.5"; across seeds this
    // scenario's six-pair mean spans roughly 0.45-0.52). The band rejects
    // systematic degradation while tolerating that sampling noise.
    let mean = app.mean_fidelity(vc, NodeId(0)).unwrap();
    assert!(
        (0.48..0.60).contains(&mean),
        "delivered fidelity {mean} too far from the F = 0.5 target"
    );
}

#[test]
fn refused_link_request_is_traced_where_it_was_submitted() {
    // A plan whose link fidelity no link can produce: the head's link
    // request is refused at admission. The QNP has no input for a
    // refusal, so it is one trace row at the submitting node, the same
    // with signalling on the wire or off, and it costs no frame: beyond
    // a run that submits nothing, the plane carries the FORWARD only.
    let run = |wired: bool, submit: bool| {
        let topology = chain(2, HardwareParams::simulation(), FibreParams::lab_2m());
        let mut b = NetworkBuilder::new(topology).seed(5).with_trace();
        if wired {
            b = b.signalling_on_wire();
        }
        let mut sim = b.build();
        let vc = sim.install_plan(qn_routing::CircuitPlan {
            path: vec![NodeId(0), NodeId(1)],
            e2e_fidelity: 0.999_999,
            link_fidelity: 0.999_999,
            alpha: 0.1,
            cutoff: SimDuration::from_millis(100),
            max_lpr: 5.0,
            max_eer: 1.0,
        });
        if submit {
            sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(1), 0.9, 1));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        sim
    };
    let refusals = |sim: &NetSim| -> Vec<(SimTime, String, String)> {
        sim.trace()
            .rows()
            .iter()
            .filter(|r| r.text.contains("rejected"))
            .map(|r| (r.time, r.source.clone(), r.text.clone()))
            .collect()
    };
    let rows = refusals(&run(false, true));
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!((rows[0].0, rows[0].1.as_str()), (SimTime::ZERO, "n0"));
    assert!(rows[0].2.contains("unattainable"), "{rows:?}");
    assert_eq!(refusals(&run(true, true)), rows);
    for wired in [false, true] {
        let with = run(wired, true).classical_stats().sent;
        let without = run(wired, false).classical_stats().sent;
        assert_eq!(with, without + 1, "wired: {wired}");
    }
}

#[test]
fn no_leaked_pairs_after_completion() {
    let (mut sim, d) = lab_dumbbell(51);
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, d.a0, d.b0, 0.85, 3));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    assert!(sim.app().completed.contains_key(&(vc, RequestId(1))));
    // After completion + drain, no pairs should linger (links stopped,
    // queues drained by cutoffs).
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    assert_eq!(sim.live_pairs(), 0, "pairs leaked after completion");
}

#[test]
fn sequential_requests_on_one_circuit() {
    let (mut sim, d) = lab_dumbbell(61);
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    for i in 0..3 {
        sim.submit_at(
            SimTime::ZERO + SimDuration::from_secs(i * 5),
            vc,
            keep(i + 1, d.a0, d.b0, 0.85, 2),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let app = sim.app();
    for i in 1..=3 {
        assert!(
            app.completed.contains_key(&(vc, RequestId(i))),
            "request {i} incomplete"
        );
    }
    assert_eq!(
        app.confirmed_deliveries(vc, d.a0, SimTime::ZERO, SimTime::MAX),
        6
    );
}

#[test]
fn ring_topology_circuit_works_end_to_end() {
    // A 6-node ring: the controller must pick one direction around the
    // ring and the circuit must function like any chain.
    let topology = qn_routing::ring(6, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(91).build();
    let vc = sim
        .open_circuit(NodeId(0), NodeId(2), 0.85, CutoffPolicy::short())
        .unwrap();
    let path = sim.installed(vc).unwrap().path.clone();
    assert_eq!(path.len(), 3, "two hops around the ring: {path:?}");
    sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(2), 0.85, 3));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    assert!(sim.app().completed.contains_key(&(vc, RequestId(1))));
    assert_eq!(
        sim.app()
            .confirmed_deliveries(vc, NodeId(0), SimTime::ZERO, SimTime::MAX),
        3
    );
}

#[test]
fn near_term_runs_are_deterministic_too() {
    let fingerprint = |seed: u64| -> Vec<u64> {
        let topology = chain(
            3,
            HardwareParams::near_term(),
            FibreParams::telecom(25_000.0),
        );
        let mut sim = NetworkBuilder::new(topology)
            .seed(seed)
            .near_term(2)
            .build();
        let plan = qn_routing::CircuitPlan {
            path: vec![NodeId(0), NodeId(1), NodeId(2)],
            e2e_fidelity: 0.5,
            link_fidelity: 0.82,
            alpha: 0.1,
            cutoff: SimDuration::from_millis(1500),
            max_lpr: 5.0,
            max_eer: 1.0,
        };
        let vc = sim.install_plan(plan);
        sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(2), 0.5, 2));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
        sim.app()
            .deliveries
            .iter()
            .map(|r| r.time.as_ps())
            .collect()
    };
    assert_eq!(fingerprint(13), fingerprint(13));
}

#[test]
fn tracking_is_exact_with_perfect_readout() {
    // With perfect readout the announced swap outcomes are always true,
    // so the QNP's lazy XOR tracking must agree with the omniscient
    // tracker on every single delivery.
    let mut params = HardwareParams::simulation();
    params.gates.readout.fidelity0 = 1.0;
    params.gates.readout.fidelity1 = 1.0;
    let (topology, d) = dumbbell(params, FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(101).build();
    let vc = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, d.a0, d.b0, 0.85, 12));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    assert_eq!(
        sim.app().state_consistency(),
        Some(1.0),
        "perfect readout must give exact tracking"
    );
    assert_eq!(sim.state_mismatches(), 0);
}
