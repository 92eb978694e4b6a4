//! Component-fault chaos scenarios: scheduled link outages and node
//! crashes from a [`FaultPlan`], the PR-9 robustness tentpole. The
//! acceptance bar: a mid-run outage of the middle link of a wired
//! 4-chain (and separately a crash/restart of a repeater) degrades
//! gracefully — bounded requests still complete exactly once per end
//! after recovery, torn-down circuits are reported to their end-nodes,
//! and after a settle window no pairs, timers, or correlator state
//! leak. Every faulted run is a pure function of its seed, and an
//! empty plan is bit-invisible.

use qn_hardware::params::{FibreParams, HardwareParams};
use qn_net::{Address, AppEvent, CircuitId, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::build::{NetSim, NetworkBuilder};
use qn_netsim::FaultPlan;
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

/// Delivery trajectory fingerprint, byte-for-byte comparable.
fn trajectory(sim: &NetSim) -> Vec<(u64, u32, u64, u64)> {
    sim.app()
        .deliveries
        .iter()
        .map(|d| (d.time.as_ps(), d.node.0, d.request.0, d.sequence))
        .collect()
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Settle, then assert the run left nothing behind: no live pairs, no
/// armed timers (cutoffs / track expiries / retransmits / signal
/// retries), no retained correlator state (pair ends + dedup records).
fn assert_zero_leak(sim: &mut NetSim, what: &str) {
    sim.run_until(sim.now() + SimDuration::from_secs(10));
    assert_eq!(sim.live_pairs(), 0, "{what}: pairs leaked");
    assert_eq!(sim.armed_timers(), 0, "{what}: timers leaked");
    assert_eq!(
        sim.retained_correlators(),
        0,
        "{what}: correlator state leaked"
    );
}

/// A wired 4-chain run with an optional fault plan: one bounded Keep
/// request across the full chain (fault-free it completes in ~170 ms),
/// run to `horizon_s` seconds.
fn wired_chaos_run(seed: u64, plan: Option<FaultPlan>, n: u64, horizon_s: u64) -> NetSim {
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut b = NetworkBuilder::new(topology)
        .seed(seed)
        .signalling_on_wire()
        .track_timeout(SimDuration::from_secs(2));
    if let Some(p) = plan {
        b = b.fault_plan(p);
    }
    let mut sim = b.build();
    let (head, tail) = (NodeId(0), NodeId(3));
    let vc = sim
        .open_circuit(head, tail, 0.8, CutoffPolicy::short())
        .unwrap();
    sim.submit_at(SimTime::ZERO, vc, keep(1, head, tail, 0.8, n));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(horizon_s));
    sim
}

#[test]
fn empty_fault_plan_is_bit_invisible() {
    // Configuring an explicitly empty plan must not perturb a single
    // RNG draw, event or counter relative to a build without one.
    let base = wired_chaos_run(4100, None, 6, 60);
    let with_plan = wired_chaos_run(4100, Some(FaultPlan::new()), 6, 60);
    assert_eq!(trajectory(&base), trajectory(&with_plan));
    assert_eq!(base.events_processed(), with_plan.events_processed());
    assert_eq!(base.classical_stats(), with_plan.classical_stats());
    assert_eq!(base.node_stats(), with_plan.node_stats());
    assert_eq!(base.discarded_pairs(), with_plan.discarded_pairs());
}

#[test]
fn mid_run_middle_link_outage_completes_exactly_once() {
    // The acceptance scenario: the middle link (1–2) of the wired
    // 4-chain goes dark from 50 ms to 250 ms, squarely inside the
    // request's fault-free lifetime. Generation on the hop halts, its
    // live pairs are scrapped through the expiry machinery, frames on
    // the hop are eaten — and after recovery the bounded request still
    // completes with exactly n confirmed pairs per end, because lost
    // TRACKs are retransmitted and reclaimed qubits regenerate.
    let plan = || {
        FaultPlan::new().link_outage(
            NodeId(1),
            NodeId(2),
            at_ms(50),
            SimDuration::from_millis(200),
        )
    };
    let run = |seed| wired_chaos_run(seed, Some(plan()), 8, 60);
    let mut sim = run(4207);
    let app = sim.app();
    assert!(
        app.completed.contains_key(&(CircuitId(1), RequestId(1))),
        "request did not complete after the outage"
    );
    for node in [NodeId(0), NodeId(3)] {
        assert_eq!(
            app.confirmed_deliveries(CircuitId(1), node, SimTime::ZERO, SimTime::MAX),
            8,
            "{node}: over- or under-delivery across the outage"
        );
    }
    // The outage actually interrupted the run: no end-to-end pair can
    // form without the middle hop, so the request finished only after
    // the link came back.
    let last = trajectory(&sim).last().unwrap().0;
    assert!(
        last > at_ms(250).as_ps(),
        "request finished at {last} ps, before the link recovered"
    );
    // Frames really were eaten on the dead hop (TRACK retransmits keep
    // probing it during the outage).
    let s = sim.classical_stats();
    assert!(s.dropped > 0, "no frames dropped on the dead hop: {s:?}");
    // Determinism: the faulted run is a pure function of the seed.
    let again = run(4207);
    assert_eq!(trajectory(&sim), trajectory(&again));
    assert_eq!(sim.classical_stats(), again.classical_stats());
    assert_eq!(sim.node_stats(), again.node_stats());
    assert_eq!(sim.events_processed(), again.events_processed());
    // Different seeds sample different trajectories around the outage.
    assert_ne!(trajectory(&sim), trajectory(&run(4208)));
    assert_zero_leak(&mut sim, "link outage");
}

#[test]
fn repeater_crash_reports_circuit_down_and_serves_after_restart() {
    // Repeater 1 crashes at 50 ms (volatile protocol state lost, its
    // qubits freed, timers disarmed) and restarts at 150 ms. The
    // unbounded-ish request through it cannot survive: the circuit is
    // torn down end-to-end and both end-nodes hear CircuitDown. After
    // the restart the node re-registers its links: a fresh circuit over
    // the same path completes a new request.
    let run = |seed: u64| -> NetSim {
        let plan =
            FaultPlan::new().node_outage(NodeId(1), at_ms(50), SimDuration::from_millis(100));
        let mut sim = wired_chaos_run(seed, Some(plan), 1_000, 1);
        // Past the restart: the crashed node is live again with empty
        // protocol state. Re-provision and go again.
        let vc2 = sim
            .open_circuit(NodeId(0), NodeId(3), 0.8, CutoffPolicy::short())
            .unwrap();
        sim.submit_at(sim.now(), vc2, keep(2, NodeId(0), NodeId(3), 0.8, 4));
        sim.run_until(sim.now() + SimDuration::from_secs(30));
        sim
    };
    let mut sim = run(4301);
    let app = sim.app();
    // The crash killed circuit 1 and both end-nodes were told.
    for node in [NodeId(0), NodeId(3)] {
        assert!(
            app.events.iter().any(|(_, n, ev)| *n == node
                && matches!(ev, AppEvent::CircuitDown(c) if *c == CircuitId(1))),
            "{node}: no CircuitDown for the circuit through the crashed repeater"
        );
    }
    assert!(
        !app.completed.contains_key(&(CircuitId(1), RequestId(1))),
        "a request through a crashed repeater cannot complete"
    );
    // The replacement circuit over the restarted repeater delivered
    // exactly once per end.
    assert!(
        app.completed.contains_key(&(CircuitId(2), RequestId(2))),
        "restarted repeater did not serve the replacement circuit"
    );
    for node in [NodeId(0), NodeId(3)] {
        assert_eq!(
            app.confirmed_deliveries(CircuitId(2), node, SimTime::ZERO, SimTime::MAX),
            4,
            "{node}: replacement circuit over- or under-delivered"
        );
    }
    // Determinism across repeats.
    let again = run(4301);
    assert_eq!(trajectory(&sim), trajectory(&again));
    assert_eq!(sim.classical_stats(), again.classical_stats());
    assert_eq!(sim.node_stats(), again.node_stats());
    assert_eq!(sim.events_processed(), again.events_processed());
    assert_zero_leak(&mut sim, "repeater crash");
}

#[test]
fn stochastic_fault_schedule_is_deterministic_and_leak_free() {
    // MTBF/MTTR churn on the middle link: failures drawn from the
    // dedicated "component-faults" substream, so the run stays a pure
    // function of the seed and every outage recovers.
    let plan = || {
        FaultPlan::new()
            .horizon(SimTime::ZERO + SimDuration::from_secs(2))
            .link_mtbf(
                NodeId(1),
                NodeId(2),
                SimDuration::from_millis(300),
                SimDuration::from_millis(100),
            )
    };
    assert!(!plan().expand(4400).is_empty(), "churn plan drew no faults");
    let run = |seed| wired_chaos_run(seed, Some(plan()), 8, 30);
    let mut sim = run(4400);
    let again = run(4400);
    assert_eq!(trajectory(&sim), trajectory(&again));
    assert_eq!(sim.classical_stats(), again.classical_stats());
    assert_eq!(sim.node_stats(), again.node_stats());
    assert_eq!(sim.events_processed(), again.events_processed());
    assert_ne!(trajectory(&sim), trajectory(&run(4401)));
    // Progress under churn: the 100 ms repairs leave enough up-time for
    // the bounded request to finish inside the 30 s horizon.
    assert!(
        sim.app()
            .completed
            .contains_key(&(CircuitId(1), RequestId(1))),
        "request starved under churn"
    );
    assert_zero_leak(&mut sim, "stochastic churn");
}
