//! Determinism regression: two runs with the same seed must be
//! bit-identical — same event trace, same deliveries, same statistics.
//! This is the property the named RNG substreams of `qn_sim::SimRng`
//! exist to protect; any accidental nondeterminism (hash-map iteration
//! order, uninitialised state, wall-clock leakage) shows up here.

use qn_hardware::params::{FibreParams, HardwareParams};
use qn_net::{Address, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::build::{NetSim, NetworkBuilder};
use qn_routing::{chain, dumbbell, wide_dumbbell, CutoffPolicy, Dumbbell};
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

/// A workload busy enough to exercise swaps, cutoffs and multiplexing:
/// two circuits over the dumbbell bottleneck, three requests.
fn run_scenario(seed: u64) -> (NetSim, Dumbbell) {
    let (topology, d) = dumbbell(HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology)
        .seed(seed)
        .with_trace()
        .build();
    let vc0 = sim
        .open_circuit(d.a0, d.b0, 0.85, CutoffPolicy::short())
        .expect("plan a0-b0");
    let vc1 = sim
        .open_circuit(d.a1, d.b1, 0.8, CutoffPolicy::short())
        .expect("plan a1-b1");
    sim.submit_at(SimTime::ZERO, vc0, keep(1, d.a0, d.b0, 0.85, 3));
    sim.submit_at(SimTime::ZERO, vc1, keep(2, d.a1, d.b1, 0.8, 2));
    sim.submit_at(
        SimTime::ZERO + SimDuration::from_secs(2),
        vc0,
        keep(3, d.a0, d.b0, 0.85, 1),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
    (sim, d)
}

/// One delivery: time (ps), node, request, sequence and the bits of
/// the oracle fidelity.
type DeliveryRow = (u64, u32, u64, u64, Option<u64>);

/// Everything observable about a run, with floats captured bit-exactly.
fn fingerprint(sim: &NetSim) -> (String, u64, u64, Vec<DeliveryRow>) {
    let deliveries = sim
        .app()
        .deliveries
        .iter()
        .map(|r| {
            (
                r.time.as_ps(),
                r.node.0,
                r.request.0,
                r.sequence,
                r.oracle_fidelity.map(f64::to_bits),
            )
        })
        .collect();
    (
        sim.trace().render(),
        sim.events_processed(),
        sim.discarded_pairs(),
        deliveries,
    )
}

#[test]
fn same_seed_reproduces_trace_and_stats_exactly() {
    let (a, _) = run_scenario(2026);
    let (b, _) = run_scenario(2026);
    let fa = fingerprint(&a);
    let fb = fingerprint(&b);
    assert_eq!(fa.1, fb.1, "event counts diverged");
    assert_eq!(fa.2, fb.2, "discard counts diverged");
    assert_eq!(fa.3, fb.3, "deliveries diverged");
    assert_eq!(fa.0, fb.0, "event traces diverged");
    assert!(!fa.3.is_empty(), "scenario must actually deliver pairs");
    assert!(!fa.0.is_empty(), "trace must actually record rows");
}

#[test]
fn different_seeds_diverge() {
    let (a, _) = run_scenario(2026);
    let (b, _) = run_scenario(2027);
    // Entanglement generation is stochastic, so distinct seeds must give
    // distinct sample paths (equality here would mean the seed is ignored).
    assert_ne!(fingerprint(&a).0, fingerprint(&b).0);
}

/// One run over a `width`-wide dumbbell: a straight-across circuit per
/// end-node pair, one request per circuit, everything contending for
/// the MA–MB bottleneck.
fn run_wide_scenario(seed: u64, width: usize) -> NetSim {
    let (topology, w) = wide_dumbbell(width, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology)
        .seed(seed)
        .with_trace()
        .build();
    for (i, (head, tail)) in w.straight_pairs().into_iter().enumerate() {
        let vc = sim
            .open_circuit(head, tail, 0.8, CutoffPolicy::short())
            .expect("straight-across circuit plan must be feasible");
        sim.submit_at(SimTime::ZERO, vc, keep(i as u64 + 1, head, tail, 0.8, 2));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(12));
    sim
}

/// The determinism guarantee is not a width-2 special case: the
/// generalised `wide_dumbbell(width)` topologies must reproduce
/// bit-identically too (more circuits, more links, more RNG
/// substreams — more surface for ordering bugs).
#[test]
fn wide_dumbbells_reproduce_exactly() {
    for width in [3usize, 4] {
        let a = run_wide_scenario(4040 + width as u64, width);
        let b = run_wide_scenario(4040 + width as u64, width);
        let fa = fingerprint(&a);
        let fb = fingerprint(&b);
        assert_eq!(fa.1, fb.1, "width {width}: event counts diverged");
        assert_eq!(fa.2, fb.2, "width {width}: discard counts diverged");
        assert_eq!(fa.3, fb.3, "width {width}: deliveries diverged");
        assert_eq!(fa.0, fb.0, "width {width}: event traces diverged");
        assert!(
            !fa.3.is_empty(),
            "width {width}: scenario must actually deliver pairs"
        );
    }
}

/// Distinct widths are genuinely distinct workloads (a width regression
/// that quietly builds the same network would defeat the test above).
#[test]
fn wide_dumbbell_widths_diverge() {
    let w3 = run_wide_scenario(99, 3);
    let w4 = run_wide_scenario(99, 4);
    assert_ne!(fingerprint(&w3).0, fingerprint(&w4).0);
    assert!(fingerprint(&w4).1 > 0);
}

#[test]
fn completion_times_are_reproducible() {
    let (a, _) = run_scenario(77);
    let (b, _) = run_scenario(77);
    let mut ca: Vec<_> = a
        .app()
        .completed
        .iter()
        .map(|(k, v)| (*k, v.as_ps()))
        .collect();
    let mut cb: Vec<_> = b
        .app()
        .completed
        .iter()
        .map(|(k, v)| (*k, v.as_ps()))
        .collect();
    ca.sort();
    cb.sort();
    assert!(
        !ca.is_empty(),
        "scenario must complete at least one request"
    );
    assert_eq!(ca, cb);
}

/// The paper's Fig 6 scenario as `examples/sequence_trace` runs it: one
/// single-pair request over the 4-node chain, seed 11.
fn fig6_trace() -> String {
    let topology = chain(4, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut sim = NetworkBuilder::new(topology).seed(11).with_trace().build();
    let vc = sim
        .open_circuit(NodeId(0), NodeId(3), 0.8, CutoffPolicy::short())
        .expect("plan");
    let mut request = keep(1, NodeId(0), NodeId(3), 0.8, 1);
    request.head.identifier = 1;
    request.tail.identifier = 1;
    sim.submit_at(SimTime::ZERO, vc, request);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    sim.trace().render()
}

/// Row count and FNV-1a digest of the seed-2026 dumbbell trace.
const ROWS_2026: usize = 127;
const DIGEST_2026: u64 = 0x8c3d_0135_9cd2_1158;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The trace text is part of the observable output (`sequence_trace`
/// prints it), so it is pinned byte for byte: the Fig 6 rendering
/// against a golden file, and the busier dumbbell run above — swaps,
/// cutoffs and discards — by row count and digest.
#[test]
fn trace_text_is_pinned() {
    assert_eq!(fig6_trace(), include_str!("golden/fig6_trace.txt"));
    let (sim, _) = run_scenario(2026);
    let render = sim.trace().render();
    assert_eq!(sim.trace().rows().len(), ROWS_2026);
    assert_eq!(fnv1a(render.as_bytes()), DIGEST_2026, "{render}");
}

/// Delivery count and FNV-1a digest of the near-term chain's run.
const NEAR_TERM_DELIVERIES: usize = 4;
const NEAR_TERM_DIGEST: u64 = 0xecb3_3506_51dd_4151;

/// The near-term chain of `end_to_end.rs`
/// (`near_term_runs_are_deterministic_too`: three nodes 25 km apart
/// with carbon storage, seed 13, two pairs over 120 s), pinned by each
/// delivery's time in ps and oracle-fidelity bits (0 when absent), both
/// little-endian. Every link attempt dephases each other pair end held
/// at both ends of the link, so a change to which pairs that noise
/// reaches moves the fidelities this digest covers.
#[test]
fn near_term_trajectory_is_pinned() {
    let topology = chain(
        3,
        HardwareParams::near_term(),
        FibreParams::telecom(25_000.0),
    );
    let mut sim = NetworkBuilder::new(topology).seed(13).near_term(2).build();
    let vc = sim.install_plan(qn_routing::CircuitPlan {
        path: vec![NodeId(0), NodeId(1), NodeId(2)],
        e2e_fidelity: 0.5,
        link_fidelity: 0.82,
        alpha: 0.1,
        cutoff: SimDuration::from_millis(1500),
        max_lpr: 5.0,
        max_eer: 1.0,
    });
    sim.submit_at(SimTime::ZERO, vc, keep(1, NodeId(0), NodeId(2), 0.5, 2));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    let deliveries = &sim.app().deliveries;
    let bytes: Vec<u8> = deliveries
        .iter()
        .flat_map(|r| {
            let fidelity = r.oracle_fidelity.map_or(0, f64::to_bits);
            [r.time.as_ps().to_le_bytes(), fidelity.to_le_bytes()]
        })
        .flatten()
        .collect();
    let digest = fnv1a(&bytes);
    assert_eq!(deliveries.len(), NEAR_TERM_DELIVERIES);
    assert_eq!(digest, NEAR_TERM_DIGEST, "{digest:016x}");
}
