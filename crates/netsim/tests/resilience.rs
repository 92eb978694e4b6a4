//! Resilience scenarios: circuit teardown mid-flight and the faulty
//! classical plane — the paper's §4.1 "Classical
//! communication and link reliability" behaviours, plus what happens
//! when that reliability assumption is *broken* (drop / duplication /
//! reordering / corruption sweeps on chain and widened-dumbbell
//! topologies).

use qn_hardware::params::{FibreParams, HardwareParams};
use qn_net::{Address, AppEvent, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::build::{NetSim, NetworkBuilder};
use qn_netsim::ClassicalFaults;
use qn_routing::{chain, dumbbell, wide_dumbbell, CutoffPolicy};
use qn_sim::{NodeId, SimDuration, SimTime};

fn keep(id: u64, head: qn_sim::NodeId, tail: qn_sim::NodeId, f: f64, n: u64) -> UserRequest {
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

#[test]
fn teardown_mid_flight_aborts_cleanly() {
    let (topology, d) = dumbbell(HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(81).build();
    let v1 = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    let v2 = sim
        .open_circuit(d.a1, d.b1, 0.85, CutoffPolicy::short())
        .unwrap();
    // A huge request on v1 that cannot complete before the teardown, and
    // a normal one on v2 that must be unaffected.
    sim.submit_at(SimTime::ZERO, v1, keep(1, d.a0, d.b0, 0.85, 1_000_000));
    sim.submit_at(SimTime::ZERO, v2, keep(1, d.a1, d.b1, 0.85, 5));
    sim.close_circuit_at(SimTime::ZERO + SimDuration::from_millis(200), v1);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

    let app = sim.app();
    // v1's application was told the circuit went down.
    assert!(
        app.events
            .iter()
            .any(|(_, _, ev)| matches!(ev, AppEvent::CircuitDown(c) if *c == v1)),
        "CircuitDown notification missing"
    );
    // v2 completed untouched.
    assert!(app.completed.contains_key(&(v2, RequestId(1))));
    assert_eq!(
        app.confirmed_deliveries(v2, d.a1, SimTime::ZERO, SimTime::MAX),
        5
    );
    // No quantum memory leaked: pairs of the torn-down circuit were
    // released (cutoffs + teardown discards drain the rest).
    sim.run_until(sim.now() + SimDuration::from_secs(5));
    assert_eq!(sim.live_pairs(), 0, "pairs leaked after teardown");
}

#[test]
fn teardown_before_any_request_is_a_noop_for_others() {
    let (topology, d) = dumbbell(HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(82).build();
    let v1 = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .unwrap();
    let v2 = sim
        .open_circuit(d.a0, d.b1, 0.85, CutoffPolicy::short())
        .unwrap();
    sim.close_circuit_at(SimTime::ZERO, v1);
    sim.submit_at(
        SimTime::ZERO + SimDuration::from_millis(1),
        v2,
        keep(1, d.a0, d.b1, 0.85, 3),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    assert!(sim.app().completed.contains_key(&(v2, RequestId(1))));
}

// ---------------------------------------------------------------------
// Faulty classical plane
// ---------------------------------------------------------------------

/// A delivery trajectory fingerprint: (time ps, node, request, sequence)
/// per delivery, in order — byte-for-byte comparable across runs.
fn trajectory(sim: &NetSim) -> Vec<(u64, u32, u64, u64)> {
    sim.app()
        .deliveries
        .iter()
        .map(|d| (d.time.as_ps(), d.node.0, d.request.0, d.sequence))
        .collect()
}

fn chain_run(seed: u64, faults: Option<ClassicalFaults>, n: u64) -> NetSim {
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut b = NetworkBuilder::new(topology).seed(seed);
    if let Some(f) = faults {
        b = b
            .classical_faults(f)
            .track_timeout(SimDuration::from_secs(2));
    }
    let mut sim = b.build();
    let (head, tail) = (NodeId(0), NodeId(3));
    let vc = sim
        .open_circuit(head, tail, 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, head, tail, 0.8, n));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(45));
    sim
}

#[test]
fn faults_off_reproduces_the_fault_free_trajectory_bit_identically() {
    // Plumbing an explicit all-zero fault config (and no track timeout)
    // must not perturb a single RNG draw or delivery time relative to
    // the default build.
    let base = chain_run(4242, None, 6);
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology)
        .seed(4242)
        .classical_faults(ClassicalFaults::OFF)
        .build();
    let vc = sim
        .open_circuit(NodeId(0), NodeId(3), 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(3), 0.8, 6));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(45));

    assert_eq!(trajectory(&base), trajectory(&sim));
    assert_eq!(base.events_processed(), sim.events_processed());
    let (s1, s2) = (base.classical_stats(), sim.classical_stats());
    assert_eq!(s1, s2);
    assert_eq!(s1.dropped + s1.duplicated + s1.reordered + s1.corrupted, 0);
    assert_eq!(s1.decode_failures, 0);
    assert_eq!(s1.decode_failures_by_kind, [0; 6]);
    assert_eq!(s1.link_decode_failures_by_kind, [0; 4]);
    // Batching observability: every delivered frame rode in exactly one
    // batch, and the counters are internally consistent.
    assert!(s1.batches > 0, "no batches opened");
    assert!(s1.batches <= s1.delivered);
    assert!(s1.frames_per_batch() >= 1.0);
    assert!(s1.bytes_coalesced <= s1.wire_bytes);
    assert_eq!(
        base.node_stats().total(),
        0,
        "no anomalies on a clean plane"
    );
}

#[test]
fn fault_sweep_on_chain_is_deterministic_and_survivable() {
    let sweep = [
        ClassicalFaults {
            drop: 0.05,
            ..ClassicalFaults::OFF
        },
        ClassicalFaults {
            duplicate: 0.15,
            reorder_window: SimDuration::from_millis(1),
            ..ClassicalFaults::OFF
        },
        ClassicalFaults {
            reorder: 0.25,
            reorder_window: SimDuration::from_millis(2),
            ..ClassicalFaults::OFF
        },
        ClassicalFaults {
            drop: 0.05,
            duplicate: 0.1,
            reorder: 0.15,
            reorder_window: SimDuration::from_millis(1),
            corrupt: 0.05,
        },
    ];
    for (i, faults) in sweep.iter().enumerate() {
        let seed = 9000 + i as u64;
        let a = chain_run(seed, Some(*faults), 8);
        let b = chain_run(seed, Some(*faults), 8);
        // Determinism per seed: identical trajectories, stats, counters.
        assert_eq!(trajectory(&a), trajectory(&b), "faults[{i}] diverged");
        assert_eq!(a.classical_stats(), b.classical_stats());
        assert_eq!(a.node_stats(), b.node_stats());
        assert_eq!(a.events_processed(), b.events_processed());
        // The run survived: no panic, no leaked quantum memory beyond
        // what in-flight chains legitimately hold, and the fault
        // classes actually fired.
        let s = a.classical_stats();
        if faults.drop > 0.0 {
            assert!(s.dropped > 0, "faults[{i}]: no drops sampled");
        }
        if faults.duplicate > 0.0 {
            assert!(s.duplicated > 0, "faults[{i}]: no duplicates sampled");
        }
        if faults.reorder > 0.0 {
            assert!(s.reordered > 0, "faults[{i}]: no reorders sampled");
        }
        if faults.corrupt > 0.0 {
            assert!(s.corrupted > 0, "faults[{i}]: no corruption sampled");
        }
    }
}

#[test]
fn drop_faults_still_deliver_with_track_timeout_reclaiming_qubits() {
    // 5% per-hop drops on a 4-chain: progress must continue because the
    // track-timeout reclaims end-node qubits whose TRACK was lost.
    let sim = chain_run(
        77,
        Some(ClassicalFaults {
            drop: 0.05,
            ..ClassicalFaults::OFF
        }),
        8,
    );
    let delivered = sim.app().confirmed_deliveries(
        qn_net::CircuitId(1),
        NodeId(0),
        SimTime::ZERO,
        SimTime::MAX,
    );
    assert!(
        delivered >= 4,
        "only {delivered}/8 confirmed under 5% drops"
    );
    let stats = sim.classical_stats();
    assert!(stats.dropped > 0);
    // The protocol absorbed the fallout without leaking: anomaly
    // counters account for the losses.
    let ns = sim.node_stats();
    assert!(
        ns.expired_in_transit > 0 || ns.stale_tracks > 0 || ns.stale_expires > 0,
        "drops should surface as absorbed anomalies: {ns:?}"
    );
}

#[test]
fn corruption_is_counted_and_absorbed() {
    // Heavy corruption: some frames fail to decode (counted + dropped),
    // some decode into different valid messages the rules must absorb;
    // the run must neither panic nor wedge the other circuit's traffic.
    // A flipped bit lands in an integer payload most of the time (the
    // message still decodes, just with different content), so
    // undecodable frames are a minority: accumulate over seeds until
    // both outcomes have been observed.
    let mut corrupted = 0;
    let mut failures = 0;
    for seed in 550..560 {
        let sim = chain_run(
            seed,
            Some(ClassicalFaults {
                corrupt: 0.5,
                ..ClassicalFaults::OFF
            }),
            6,
        );
        let s = sim.classical_stats();
        assert!(s.decode_failures <= s.corrupted);
        // Per-kind breakdown: every counted failure lands in exactly one
        // bucket, so the buckets always sum back to the totals.
        assert_eq!(
            s.decode_failures_by_kind.iter().sum::<u64>(),
            s.decode_failures,
            "QNP decode-failure buckets must sum to the total: {s:?}"
        );
        assert_eq!(
            s.link_decode_failures_by_kind.iter().sum::<u64>(),
            s.link_decode_failures,
            "link decode-failure buckets must sum to the total: {s:?}"
        );
        corrupted += s.corrupted;
        failures += s.decode_failures;
    }
    assert!(
        corrupted > 100,
        "too little corruption sampled: {corrupted}"
    );
    assert!(
        failures > 0,
        "bit flips should produce at least one undecodable frame ({corrupted} corrupted)"
    );
    assert!(failures < corrupted, "most single-bit flips still decode");
}

#[test]
fn fault_sweep_on_wide_dumbbell_is_deterministic_per_seed() {
    let faults = ClassicalFaults {
        drop: 0.03,
        duplicate: 0.08,
        reorder: 0.1,
        reorder_window: SimDuration::from_millis(1),
        corrupt: 0.03,
    };
    let run = |seed: u64| {
        let (topology, d) = wide_dumbbell(3, HardwareParams::simulation(), FibreParams::lab_2m());
        let mut sim = NetworkBuilder::new(topology)
            .seed(seed)
            .classical_faults(faults)
            .track_timeout(SimDuration::from_secs(2))
            .build();
        let mut vcs = Vec::new();
        for (i, (a, b)) in d.straight_pairs().into_iter().enumerate() {
            let vc = sim.open_circuit(a, b, 0.8, CutoffPolicy::short()).unwrap();
            sim.submit_at(SimTime::ZERO, vc, keep(i as u64 + 1, a, b, 0.8, 4));
            vcs.push(vc);
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(45));
        sim
    };
    for seed in [31, 32] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(trajectory(&a), trajectory(&b), "seed {seed} diverged");
        assert_eq!(a.classical_stats(), b.classical_stats());
        assert_eq!(a.node_stats(), b.node_stats());
        // All three circuits make progress despite the shared faulty
        // bottleneck.
        let total: u64 = a.app().deliveries.len() as u64;
        assert!(total > 0, "seed {seed}: nothing delivered at all");
    }
    // Different seeds sample different fault patterns.
    assert_ne!(trajectory(&run(31)), trajectory(&run(32)));
}

#[test]
fn shared_bottleneck_traffic_coalesces_into_batches() {
    // Three circuits crossing the same widened-dumbbell bottleneck emit
    // same-tick frames between the same node pairs; the classical plane
    // must group those under shared delivery events and account for the
    // saved deliveries in its counters.
    let (topology, d) = wide_dumbbell(3, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(31).build();
    for (i, (a, b)) in d.straight_pairs().into_iter().enumerate() {
        let vc = sim.open_circuit(a, b, 0.8, CutoffPolicy::short()).unwrap();
        sim.submit_at(SimTime::ZERO, vc, keep(i as u64 + 1, a, b, 0.8, 4));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(45));
    let s = sim.classical_stats();
    assert!(
        s.batches < s.delivered,
        "no coalescing observed: {} batches for {} frames",
        s.batches,
        s.delivered
    );
    assert!(s.frames_per_batch() > 1.0);
    assert!(
        s.bytes_coalesced > 0 && s.bytes_coalesced < s.wire_bytes,
        "coalesced byte accounting off: {} of {}",
        s.bytes_coalesced,
        s.wire_bytes
    );
    // Nothing was lost to coalescing: all frames still arrived.
    assert_eq!(s.sent, s.delivered);
    assert_eq!(s.decode_failures, 0);
}

#[test]
fn duplication_storm_does_not_double_deliver() {
    // 60% duplication: every confirmation may arrive twice. Bounded
    // requests must still deliver exactly n pairs per end, never more
    // (duplicate TRACK/COMPLETE absorption).
    let sim = chain_run(
        808,
        Some(ClassicalFaults {
            duplicate: 0.6,
            reorder_window: SimDuration::from_millis(1),
            ..ClassicalFaults::OFF
        }),
        5,
    );
    let s = sim.classical_stats();
    assert!(s.duplicated > 0);
    for node in [NodeId(0), NodeId(3)] {
        let confirmed =
            sim.app()
                .confirmed_deliveries(qn_net::CircuitId(1), node, SimTime::ZERO, SimTime::MAX);
        assert!(
            confirmed <= 5,
            "{node}: {confirmed} > 5 confirmed deliveries under duplication"
        );
    }
    let ns = sim.node_stats();
    assert!(
        ns.duplicate_forwards + ns.duplicate_completes + ns.stale_tracks + ns.stale_expires > 0,
        "duplication should surface as absorbed anomalies: {ns:?}"
    );
}

#[test]
fn track_timeout_on_a_clean_plane_is_invisible() {
    // Satellite of the TRACK-retransmission work: arming the per-pair
    // expiry timer must be free on a fault-free plane. Every armed
    // timer is cancelled when its pair resolves (delivery, discard,
    // swap consumption), cancelled events are never dispatched, and
    // arming draws no randomness — so a run with the timeout enabled
    // is bit-identical to one without it: same delivery trajectory,
    // same processed-event count, zero spurious discards.
    let base = chain_run(4242, None, 6);
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology)
        .seed(4242)
        .track_timeout(SimDuration::from_secs(2))
        .build();
    let vc = sim
        .open_circuit(NodeId(0), NodeId(3), 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(3), 0.8, 6));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(45));

    assert_eq!(trajectory(&base), trajectory(&sim));
    assert_eq!(
        base.events_processed(),
        sim.events_processed(),
        "a completed pair saw its expiry fire"
    );
    assert_eq!(base.discarded_pairs(), sim.discarded_pairs());
    assert_eq!(base.node_stats(), sim.node_stats());
}

// ---------------------------------------------------------------------
// Signalling on the wire
// ---------------------------------------------------------------------

fn wired_chain_run(seed: u64, faults: Option<ClassicalFaults>, n: u64) -> NetSim {
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut b = NetworkBuilder::new(topology)
        .seed(seed)
        .signalling_on_wire();
    if let Some(f) = faults {
        b = b
            .classical_faults(f)
            .track_timeout(SimDuration::from_secs(2));
    }
    let mut sim = b.build();
    let (head, tail) = (NodeId(0), NodeId(3));
    let vc = sim
        .open_circuit(head, tail, 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, head, tail, 0.8, n));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    sim
}

#[test]
fn wire_signalling_fault_free_completes_with_acked_tracks() {
    // With `signalling_on_wire` the INSTALL chain walks the path, every
    // PAIR_READY pays classical latency, and each endpoint TRACK is
    // acknowledged end-to-end. On a fault-free plane nothing is lost
    // and the request completes with every counter consistent. (TRACK
    // retransmits still fire: the end-to-end ack takes a full chain
    // round-trip, longer than the retransmit base — the receiver's
    // dedup absorbs the copies.)
    let sim = wired_chain_run(91, None, 6);
    let app = sim.app();
    assert!(app
        .completed
        .contains_key(&(qn_net::CircuitId(1), RequestId(1))));
    for node in [NodeId(0), NodeId(3)] {
        assert_eq!(
            app.confirmed_deliveries(qn_net::CircuitId(1), node, SimTime::ZERO, SimTime::MAX),
            6,
            "{node} must confirm all 6 pairs"
        );
    }
    let s = sim.classical_stats();
    // The hop-by-hop install chain acked at every hop, every endpoint
    // TRACK drew an ack, and nothing was lost on the wire.
    assert!(s.signal_acks >= 3, "install acks missing: {s:?}");
    assert!(s.track_acks > 0, "no TRACK acks on the wire");
    assert_eq!(s.dropped + s.corrupted, 0);
    assert_eq!(s.signal_retransmits, 0, "INSTALL acks are one hop: {s:?}");
    assert_eq!(s.request_retransmits, 0, "redundancy needs a lossy wire");
    assert_eq!(s.link_decode_failures + s.signal_decode_failures, 0);
}

#[test]
fn wire_signalling_survives_heavy_drops_exactly_once() {
    // The acceptance bar: 20% per-hop frame drops with signalling on
    // the wire. Lost INSTALLs are retransmitted hop-by-hop, lost
    // PAIR_READYs are reclaimed by the orphan timeout, lost TRACKs are
    // retransmitted by the originating end-node until acked — the
    // bounded request still completes with exactly n confirmed pairs
    // per end, never more, and no quantum memory leaks.
    let faults = ClassicalFaults {
        drop: 0.2,
        ..ClassicalFaults::OFF
    };
    let run = |seed| wired_chain_run(seed, Some(faults), 4);
    let mut sim = run(97);
    let app = sim.app();
    assert!(
        app.completed
            .contains_key(&(qn_net::CircuitId(1), RequestId(1))),
        "request did not complete under 20% drops"
    );
    for node in [NodeId(0), NodeId(3)] {
        assert_eq!(
            app.confirmed_deliveries(qn_net::CircuitId(1), node, SimTime::ZERO, SimTime::MAX),
            4,
            "{node}: over- or under-delivery under drops"
        );
    }
    let s = sim.classical_stats();
    assert!(s.dropped > 0, "no drops sampled");
    assert!(
        s.track_retransmits + s.signal_retransmits > 0,
        "drops this heavy must trigger retransmission: {s:?}"
    );
    // Determinism: the whole faulty wired run is a pure function of the
    // seed.
    let again = run(97);
    assert_eq!(trajectory(&sim), trajectory(&again));
    assert_eq!(sim.classical_stats(), again.classical_stats());
    assert_eq!(sim.node_stats(), again.node_stats());
    assert_eq!(sim.events_processed(), again.events_processed());
    // Drain: timeouts reclaim every orphaned pair.
    sim.run_until(sim.now() + SimDuration::from_secs(10));
    assert_eq!(sim.live_pairs(), 0, "pairs leaked under wire drops");
}
