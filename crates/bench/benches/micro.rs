//! Criterion micro-benchmarks of the core data structures: the event
//! queue, the n-qubit density matrix's dense products (an ideal Bell
//! measurement, the distillation register's gate noise), the memory
//! decay of a dense pair, the heralded-state construction, the link's
//! time-share schedule, the Bell tracking algebra, the two pair-state
//! representations side by side (`*_bell` vs `*_dm`), the pair slab,
//! the wire decoder a corrupted frame goes through (`message_parse`),
//! the classical plane's per-frame path (`plane_track_per_frame`), and
//! circuit planning
//! (`link_alpha_for_fidelity`, `controller_plan_grid_miss` and
//! `controller_plan_grid_hit`).
//!
//! A developer tool: it prints each timing and writes no baseline, since
//! wall-clock timings never equal a committed reference.
//! Run: `cargo bench --bench micro [-- <name substring>]`.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use qn_hardware::device::QubitId;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::pairs::{PairStore, SwapNoise};
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_link::{LinkLabel, LinkProtocol, LinkRequest};
use qn_net::wire::Frame;
use qn_net::{
    CircuitId, Complete, Correlator, Epoch, Expire, Forward, LinkSide, Message, RequestId,
    RequestType, Track,
};
use qn_netsim::{ClassicalFaults, ClassicalPlane};
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_quantum::measure::bell_measure_ideal;
use qn_quantum::pairstate::PairState;
use qn_quantum::{channels, CMatrix, DensityMatrix, C64};
use qn_routing::{grid, Controller, CutoffPolicy};
use qn_sim::{EventQueue, NodeId, SimDuration, SimRng, SimTime};

/// A hold model of the event queue's traffic on `openworld_wire`: 300
/// events pending, and each step pops the earliest and schedules at its
/// time plus a delay on a µs, ms, 10 ms or 2 s scale. Every sixth step
/// also arms a 10 ms timer that is cancelled three steps later, so
/// about 1.17 events are scheduled per pop and one in seven is
/// cancelled. A sample is 1,000 steps.
fn bench_event_queue(c: &mut Criterion) {
    const HOLD: usize = 300;
    let mut rng = SimRng::from_seed(0x51);
    let scales_ps = [1e6, 1e9, 1e10, 2e12];
    let delays: Vec<SimDuration> = (0..4096)
        .map(|i| SimDuration::from_ps((scales_ps[i % 4] * rng.range_f64(0.5, 1.5)) as u64))
        .collect();
    c.bench_function("event_queue_hold", |b| {
        let mut q = EventQueue::new();
        for (i, d) in delays.iter().take(HOLD).enumerate() {
            q.push(SimTime::ZERO + *d, i as u64);
        }
        let mut timers = [None; 3];
        let mut step = 0usize;
        b.iter(|| {
            for _ in 0..1000 {
                let (now, event) = q.pop().expect("events are held");
                q.push(now + delays[step % delays.len()], event);
                if let Some(timer) = timers[step % 3].take() {
                    q.cancel(timer);
                }
                if step.is_multiple_of(6) {
                    let timer = now + SimDuration::from_millis(10);
                    timers[step % 3] = Some(q.push(timer, event));
                }
                step += 1;
            }
            q.len()
        });
    });
}

/// An X-form pair state with the six nonzeros of a heralded pair after
/// some decay: the diagonal and the |01⟩⟨10| coherence.
fn x_pair() -> DensityMatrix {
    let mut m = CMatrix::zeros(4, 4);
    for (i, p) in [0.02, 0.47, 0.48, 0.03].into_iter().enumerate() {
        m[(i, i)] = C64::real(p);
    }
    m[(1, 2)] = C64::real(0.4);
    m[(2, 1)] = C64::real(0.4);
    DensityMatrix::from_matrix(m)
}

fn bench_density_matrix(c: &mut Criterion) {
    c.bench_function("ideal_bell_measurement_4q", |b| {
        let joint = BellState::PHI_PLUS
            .density()
            .tensor(&BellState::PSI_PLUS.density());
        b.iter(|| bell_measure_ideal(&joint, 1, 2, 0.3));
    });

    c.bench_function("dm_register_depolarizing_2q", |b| {
        // The dense distillation circuit's gate noise on its joint
        // register [a0, a1, b0, b1]: the 16-term set, applied to a
        // fresh X⊗X register each time.
        let noise = SwapNoise::from_params(&HardwareParams::simulation(), StateRep::Dm);
        let kraus = channels::depolarizing_2q(noise.p_two_qubit());
        let register = x_pair().tensor(&x_pair());
        b.iter_batched(
            || register.clone(),
            |mut joint| {
                joint.apply_kraus(&kraus, &[1, 2]);
                joint
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("dm_pair_decay", |b| {
        // The memory decay every touch of a dense pair runs on each end:
        // amplitude damping, then dephasing, at a Fig 10 T2*.
        let gamma = channels::damping_prob(1e-3, 3600.0);
        let p = channels::dephasing_prob(1e-3, 1.6);
        let pair = PairState::from_density(x_pair(), StateRep::Dm);
        b.iter_batched(
            || pair.clone(),
            |mut state| {
                state.amplitude_damp(0, gamma);
                state.dephase(0, p);
                state
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("heralded_state_construction", |b| {
        let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
        b.iter(|| physics.heralded_state(0.05, BellState::PSI_PLUS));
    });
}

/// The same four pair-level operations under both `QNP_QSTATE`
/// representations: single-qubit gate application, the two-qubit
/// depolarizing channel, the full noisy entanglement swap, and one
/// BBPSSW distillation round. Each representation's swap noise is built
/// once, with the conditional-map tables or POVM elements it runs on,
/// as each node's is when a simulation is built.
fn bench_pair_representations(c: &mut Criterion) {
    let params = HardwareParams::simulation();
    for rep in [StateRep::Bell, StateRep::Dm] {
        let tag = rep.as_str();
        let noise = SwapNoise::from_params(&params, rep);

        c.bench_function(&format!("pair_gate_apply_{tag}"), |b| {
            let mut state = PairState::from_density(BellState::PSI_PLUS.density(), rep);
            b.iter(|| {
                state.apply_pauli(0, Pauli::X);
                state.apply_pauli(1, Pauli::Z);
            });
        });

        c.bench_function(&format!("pair_kraus_2q_{tag}"), |b| {
            let mut state = PairState::from_density(BellState::PSI_PLUS.density(), rep);
            b.iter(|| state.depolarize_2q(1e-3));
        });

        c.bench_function(&format!("pair_swap_{tag}"), |b| {
            let mut store = PairStore::new(rep);
            let mut rng = SimRng::from_seed(7);
            let t_done = SimTime::ZERO + SimDuration::from_micros(500);
            b.iter(|| {
                let mut mk = |na: u32, nb: u32, qa: u32, qb: u32| {
                    store.create(
                        SimTime::ZERO,
                        BellState::PSI_PLUS.density(),
                        BellState::PSI_PLUS,
                        [
                            (NodeId(na), QubitId(qa), 3600.0, 60.0),
                            (NodeId(nb), QubitId(qb), 3600.0, 60.0),
                        ],
                    )
                };
                let a = mk(0, 1, 0, 0);
                let b_ = mk(1, 2, 1, 0);
                let res = store.swap(a, b_, NodeId(1), t_done, &noise, &mut rng);
                store.discard(res.new_pair);
            });
        });

        c.bench_function(&format!("pair_distill_{tag}"), |b| {
            let mut store = PairStore::new(rep);
            let mut rng = SimRng::from_seed(11);
            b.iter(|| {
                let mut mk = |q: u32| {
                    store.create(
                        SimTime::ZERO,
                        BellState::PHI_PLUS.density(),
                        BellState::PHI_PLUS,
                        [
                            (NodeId(0), QubitId(q), 3600.0, 60.0),
                            (NodeId(1), QubitId(q), 3600.0, 60.0),
                        ],
                    )
                };
                let keep = mk(0);
                let sac = mk(1);
                let res = store.distill(keep, sac, SimTime::ZERO, &noise, &mut rng);
                store.discard(res.kept);
            });
        });
    }
}

/// The controller's inversions: the fastest α meeting a fidelity target
/// on one link (the link layer runs it on each new minimum fidelity it
/// admits), and a whole plan corner to corner across the 3×3 grid with
/// the short cutoff. A topology remembers its plans, so the plan is
/// timed twice: derived (`_miss`: a fresh grid per sample, its links'
/// fidelity peaks already scanned, so the planner itself is timed) and
/// remembered (`_hit`: what the open-world workloads pay for each
/// arriving circuit after the first of its shape).
fn bench_planning(c: &mut Criterion) {
    let (params, fibre) = (HardwareParams::simulation(), FibreParams::lab_2m());
    c.bench_function("link_alpha_for_fidelity", |b| {
        let physics = LinkPhysics::new(params, fibre);
        b.iter(|| physics.alpha_for_fidelity(black_box(0.9)));
    });

    c.bench_function("controller_plan_grid_miss", |b| {
        b.iter_batched(
            || {
                let topology = grid(3, 3, params, fibre);
                for link in topology.links() {
                    link.physics.max_fidelity();
                }
                topology
            },
            |topology| {
                let plan = Controller::new(&topology, CutoffPolicy::short()).plan(
                    NodeId(0),
                    NodeId(8),
                    black_box(0.8),
                );
                (plan, topology)
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("controller_plan_grid_hit", |b| {
        let topology = grid(3, 3, params, fibre);
        let controller = Controller::new(&topology, CutoffPolicy::short());
        b.iter(|| controller.plan(NodeId(0), NodeId(8), black_box(0.8)));
    });
}

/// The link's time-share schedule: `LinkProtocol::next_action` and a
/// charge, 100 times over four weighted requests.
fn bench_link_scheduler(c: &mut Criterion) {
    let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
    c.bench_function("time_share_scheduler_4_labels", |b| {
        b.iter_batched(
            || {
                let mut p =
                    LinkProtocol::new((NodeId(0), NodeId(1)), physics.clone(), StateRep::Bell);
                for i in 0..4 {
                    p.submit(LinkRequest {
                        label: LinkLabel(i),
                        min_fidelity: 0.8,
                        weight: 1.0 + i as f64,
                    })
                    .expect("F = 0.8 is attainable");
                }
                p
            },
            |mut p| {
                for _ in 0..100 {
                    let spec = p.next_action().unwrap();
                    p.on_generation_aborted(spec.label, SimDuration::from_micros(10));
                }
                p
            },
            BatchSize::SmallInput,
        );
    });
}

/// A representative mix of QNP data-plane messages: TRACKs dominate the
/// wire in a running network (one per link-pair per hop), with FORWARD /
/// COMPLETE / EXPIRE control traffic around them.
fn message_mix() -> Vec<Message> {
    let corr = |seq: u64| Correlator {
        node_a: NodeId(3),
        node_b: NodeId(4),
        seq,
    };
    let mut msgs = Vec::new();
    for i in 0..16u64 {
        msgs.push(Message::Track(Track {
            circuit: CircuitId(7),
            request: RequestId(i % 3),
            head_identifier: 0,
            tail_identifier: 1,
            origin: corr(i),
            link: corr(i + 100),
            outcome_state: BellState::from_index((i % 4) as usize),
            epoch: if i % 2 == 0 { Some(Epoch(i)) } else { None },
        }));
    }
    msgs.push(Message::Forward(Forward {
        circuit: CircuitId(7),
        request: RequestId(2),
        head_identifier: 0,
        tail_identifier: 1,
        request_type: RequestType::Keep,
        number_of_pairs: Some(8),
        final_state: Some(BellState::PHI_PLUS),
        rate: 125.0,
    }));
    msgs.push(Message::Complete(Complete {
        circuit: CircuitId(7),
        request: RequestId(2),
        head_identifier: 0,
        tail_identifier: 1,
        rate: 0.0,
    }));
    msgs.push(Message::Expire(Expire {
        circuit: CircuitId(7),
        origin: corr(9),
    }));
    msgs
}

/// The wire decoder, which the classical plane runs on every frame a
/// corruption fault flips.
fn bench_message_codec(c: &mut Criterion) {
    let frames: Vec<Vec<u8>> = message_mix()
        .into_iter()
        .map(|m| Frame::Qnp(m).wire_bytes())
        .collect();

    c.bench_function("message_parse", |b| {
        // Full decode plus the per-variant fields a dispatcher would
        // read (TRACK's continuation correlator).
        b.iter(|| {
            let mut acc = 0u64;
            for f in &frames {
                let Ok(Frame::Qnp(m)) = Frame::decode(f) else {
                    unreachable!("the mix holds QNP frames only")
                };
                acc = acc.wrapping_add(m.circuit().0);
                if let Message::Track(t) = m {
                    acc = acc.wrapping_add(t.link.seq);
                }
            }
            acc
        });
    });
}

/// The classical plane's per-frame path on a fault-free plane: one
/// TRACK sent with `transmit`, its group drained with `take_batch` and
/// handed back with `recycle`, as the runtime sends and delivers it.
fn bench_plane(c: &mut Criterion) {
    let track = Frame::Qnp(message_mix()[0]);
    c.bench_function("plane_track_per_frame", |b| {
        let mut plane = ClassicalPlane::new(1, ClassicalFaults::OFF);
        let (from, to) = (NodeId(0), NodeId(1));
        let latency = SimDuration::from_micros(5);
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_ps(1);
            let [opened, _] = plane.transmit(
                from,
                to,
                LinkSide::Upstream,
                now,
                latency,
                black_box(&track),
            );
            let group = opened.expect("a lone frame opens its group");
            let arrivals = plane.take_batch(group.id).expect("the group is open");
            let delivered = arrivals.len();
            plane.recycle(arrivals);
            delivered
        });
    });
}

/// The pair slab's hot paths: steady-state churn with id-heavy access
/// (`slab_vs_map_lookup_churn/slab`, the sustained-traffic kernel) and
/// the whole-store decoherence sweep with real elapsed time
/// (`slab_vs_map_decoherence_sweep/slab`). The names keep the labels
/// their earlier timings were recorded with; the map layout they were
/// once compared with is gone.
fn bench_slab_store(c: &mut Criterion) {
    use qn_hardware::pairs::PairId;
    use qn_quantum::pairstate::BellDiagonal;

    const LIVE: usize = 256;
    const CHURN: usize = 32;
    let (t1, t2) = (3600.0, 60.0);
    let bell = || PairState::Bell(BellDiagonal::from_bell_state(BellState::PHI_PLUS));
    let mk_slab = || {
        let mut store = PairStore::new(StateRep::Bell);
        let ids: Vec<PairId> = (0..LIVE)
            .map(|_| {
                store.create_pair(
                    SimTime::ZERO,
                    bell(),
                    BellState::PHI_PLUS,
                    [
                        (NodeId(0), QubitId(0), t1, t2),
                        (NodeId(1), QubitId(0), t1, t2),
                    ],
                )
            })
            .collect();
        (store, ids)
    };

    // Sustained traffic: every live pair's handle is resolved several
    // times per protocol step (generation bookkeeping, swap operands,
    // cutoff checks, delivery — a dozen-odd lookups over a pair's life),
    // the store sweeps at the current time (no elapsed decay: the
    // common checkpoint-right-after-activity case), and the oldest
    // pairs churn out as fresh ones arrive.
    const LOOKUP_PASSES: usize = 8;
    c.bench_function("slab_vs_map_lookup_churn/slab", |b| {
        let (mut store, ids) = mk_slab();
        let mut ids: std::collections::VecDeque<PairId> = ids.into();
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..LOOKUP_PASSES {
                for id in &ids {
                    acc += store.get(*id).map_or(0, |p| p.announced.index());
                }
            }
            store.advance_all(SimTime::ZERO);
            for _ in 0..CHURN {
                let old = ids.pop_front().expect("ring is never empty");
                store.discard(old);
                ids.push_back(store.create_pair(
                    SimTime::ZERO,
                    bell(),
                    BellState::PHI_PLUS,
                    [
                        (NodeId(0), QubitId(0), t1, t2),
                        (NodeId(1), QubitId(0), t1, t2),
                    ],
                ));
            }
            acc
        });
    });

    // The wired checkpoint sweep with genuinely elapsed time: the
    // per-pair exponentials and the decay math, not just the traversal.
    c.bench_function("slab_vs_map_decoherence_sweep/slab", |b| {
        let (mut store, _ids) = mk_slab();
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_millis(1);
            store.advance_all(now);
        });
    });
}

fn bench_bell_algebra(c: &mut Criterion) {
    c.bench_function("bell_combine_chain_64", |b| {
        let states: Vec<BellState> = (0..64).map(|i| BellState::from_index(i % 4)).collect();
        b.iter(|| {
            let mut acc = BellState::PHI_PLUS;
            for (i, s) in states.iter().enumerate() {
                acc = acc.combine(*s, BellState::from_index((i * 7) % 4));
            }
            acc
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_density_matrix,
    bench_pair_representations,
    bench_planning,
    bench_link_scheduler,
    bench_message_codec,
    bench_plane,
    bench_slab_store,
    bench_bell_algebra
);
criterion_main!(benches);
