//! Three-way representation-agreement suite (hardware level): two
//! [`PairStore`]s — one on the Bell-diagonal fast path, one on dense
//! density matrices — driven through identical random sequences of
//! decoherence, Pauli-frame, swap, distillation and measurement
//! operations, with the two-bit Pauli-frame algebra as the third,
//! independent reference for the announced Bell state.
//!
//! After every operation the suite asserts, for every live pair:
//!
//! * all four Bell-diagonal coefficients agree across representations
//!   to 1e-12 (so do trace, purity and both marginal measurement
//!   probabilities);
//! * sampled outcomes (swap announcements, distillation verdicts,
//!   readouts) are *identical* — the representations follow the same
//!   trajectory, not merely the same statistics;
//! * both stores' announced state equals the Pauli-frame prediction.
//!
//! The pairs live on short-T1/T2 memories and every op advances
//! simulated time, so amplitude damping — the channel that forces the
//! fast path to carry population asymmetries — is exercised heavily.

use proptest::prelude::*;
use qn_hardware::device::QubitId;
use qn_hardware::pairs::{PairId, PairStore, SwapNoise};
use qn_hardware::params::HardwareParams;
use qn_hardware::StateRep;
use qn_quantum::bell::BellState;
use qn_quantum::gates::Pauli;
use qn_quantum::DensityMatrix;
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};
use qn_testkit::{ModelSpec, ModelTest};

const EPS: f64 = 1e-12;

/// P spans nodes (0,1); Q spans (1,2) — the swap partner; R spans
/// (0,1) in parallel with P — the distillation partner.
const SPANS: [(u32, u32); 3] = [(0, 1), (1, 2), (0, 1)];
/// Short memories: damping and dephasing are both significant on the
/// advance steps below.
const T1: f64 = 0.9;
const T2: f64 = 0.6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// A tracked Pauli correction on one end of one pair.
    Pauli { pair: u8, end: bool, which: u8 },
    /// Extra (nuclear-spin) dephasing on one end.
    Dephase { pair: u8, end: bool, lambda: f64 },
    /// Depolarize one end (the abandoned-end re-initialisation path).
    DepolEnd { pair: u8, end: bool, p: f64 },
    /// Advance simulated time and charge T1/T2 decay on one pair.
    Advance { pair: u8, dt_ms: u16 },
    /// Entanglement swap of P and Q at node 1; the world then resets
    /// with fresh pairs derived from `fresh`.
    Swap { fresh: u8 },
    /// BBPSSW distillation keeping P, sacrificing R; then reset.
    Distill { fresh: u8 },
    /// Measure both ends of P (basis 0 = X, 1 = Y, 2 = Z); then reset.
    Measure { basis: u8, fresh: u8 },
}

impl Op {
    fn pair_index(p: u8) -> usize {
        (p % 3) as usize
    }
}

/// The Pauli-frame reference: the announced Bell state a perfect
/// tracker assigns to each of the three slots.
#[derive(Clone, Copy, Debug)]
struct Frames([BellState; 3]);

struct World {
    bell: PairStore,
    dense: PairStore,
    rng_bell: SimRng,
    rng_dense: SimRng,
    now: SimTime,
    /// `(bell id, dense id)` per slot.
    ids: [(PairId, PairId); 3],
    noise: SwapNoise,
    params: HardwareParams,
}

/// Werner state of fidelity `f`, rotated into the `announced` frame.
fn werner_in_frame(f: f64, announced: BellState) -> DensityMatrix {
    let w = qn_quantum::formulas::werner_param(f);
    let phi = BellState::PHI_PLUS.density();
    let mixed = DensityMatrix::maximally_mixed(2);
    let mut state =
        DensityMatrix::from_matrix(&phi.matrix().scale(w) + &mixed.matrix().scale(1.0 - w));
    let corr = BellState::PHI_PLUS.correction_to(announced);
    if corr != Pauli::I {
        state.apply_unitary(&corr.matrix(), &[1]);
    }
    state
}

/// The deterministic fresh frames/fidelities a reset op installs.
fn fresh_spec(fresh: u8) -> ([BellState; 3], f64) {
    let frames = [
        BellState::from_index((fresh & 0b11) as usize),
        BellState::from_index(((fresh >> 2) & 0b11) as usize),
        BellState::from_index(((fresh >> 4) & 0b11) as usize),
    ];
    let f = 0.7 + 0.25 * ((fresh >> 6) as f64 / 3.0);
    (frames, f)
}

impl World {
    fn create_slot(&mut self, slot: usize, announced: BellState, f: f64) {
        let (na, nb) = SPANS[slot];
        let state = werner_in_frame(f, announced);
        let ends = [
            (NodeId(na), QubitId(slot as u32), T1, T2),
            (NodeId(nb), QubitId(slot as u32), T1, T2),
        ];
        let b = self.bell.create(self.now, state.clone(), announced, ends);
        let d = self.dense.create(self.now, state, announced, ends);
        self.ids[slot] = (b, d);
    }

    fn reset_slots(&mut self, slots: &[usize], fresh: u8, frames: &mut Frames) {
        let (new_frames, f) = fresh_spec(fresh);
        for &slot in slots {
            let (b, d) = self.ids[slot];
            self.bell.discard(b);
            self.dense.discard(d);
            self.create_slot(slot, new_frames[slot], f);
            frames.0[slot] = new_frames[slot];
        }
    }
}

struct ThreeWaySpec;

impl ModelSpec for ThreeWaySpec {
    type Op = Op;
    type Model = Frames;
    type System = World;

    fn new_model(&self) -> Frames {
        Frames([
            BellState::PHI_PLUS,
            BellState::PSI_PLUS,
            BellState::PSI_MINUS,
        ])
    }

    fn new_system(&self) -> World {
        let params = HardwareParams::simulation();
        let mut world = World {
            bell: PairStore::new(StateRep::Bell),
            dense: PairStore::new(StateRep::Dm),
            rng_bell: SimRng::from_seed(0xB0B),
            rng_dense: SimRng::from_seed(0xB0B),
            now: SimTime::ZERO,
            ids: [(PairId(0), PairId(0)); 3],
            noise: SwapNoise::from_params(&params, StateRep::Bell),
            params,
        };
        let frames = self.new_model();
        for slot in 0..3 {
            world.create_slot(slot, frames.0[slot], 0.85);
        }
        world
    }

    fn op_strategy(&self) -> BoxedStrategy<Op> {
        prop_oneof![
            (0u8..3, any::<bool>(), 0u8..3).prop_map(|(pair, end, which)| Op::Pauli {
                pair,
                end,
                which
            }),
            (0u8..3, any::<bool>(), 0.0f64..0.5).prop_map(|(pair, end, lambda)| Op::Dephase {
                pair,
                end,
                lambda
            }),
            (0u8..3, any::<bool>(), 0.0f64..1.0).prop_map(|(pair, end, p)| Op::DepolEnd {
                pair,
                end,
                p
            }),
            (0u8..3, 1u16..300).prop_map(|(pair, dt_ms)| Op::Advance { pair, dt_ms }),
            any::<u8>().prop_map(|fresh| Op::Swap { fresh }),
            any::<u8>().prop_map(|fresh| Op::Distill { fresh }),
            (0u8..3, any::<u8>()).prop_map(|(basis, fresh)| Op::Measure { basis, fresh }),
        ]
        .boxed()
    }

    fn apply(&self, frames: &mut Frames, w: &mut World, op: &Op) -> Result<(), String> {
        match *op {
            Op::Pauli { pair, end, which } => {
                let slot = Op::pair_index(pair);
                let (b, d) = w.ids[slot];
                let (na, nb) = SPANS[slot];
                let node = NodeId(if end { nb } else { na });
                let pauli = match which {
                    0 => Pauli::X,
                    1 => Pauli::Y,
                    _ => Pauli::Z,
                };
                w.bell.apply_pauli(b, node, pauli, w.now);
                w.dense.apply_pauli(d, node, pauli, w.now);
                let f = frames.0[slot];
                frames.0[slot] =
                    BellState::from_bits(f.x ^ (pauli != Pauli::Z), f.z ^ (pauli != Pauli::X));
            }
            Op::Dephase { pair, end, lambda } => {
                let slot = Op::pair_index(pair);
                let (b, d) = w.ids[slot];
                let (na, nb) = SPANS[slot];
                let node = NodeId(if end { nb } else { na });
                w.bell.apply_dephasing(b, node, lambda);
                w.dense.apply_dephasing(d, node, lambda);
            }
            Op::DepolEnd { pair, end, p } => {
                let slot = Op::pair_index(pair);
                let (b, d) = w.ids[slot];
                let (na, nb) = SPANS[slot];
                let node = NodeId(if end { nb } else { na });
                w.bell.depolarize_end(b, node, p);
                w.dense.depolarize_end(d, node, p);
            }
            Op::Advance { pair, dt_ms } => {
                let slot = Op::pair_index(pair);
                let (b, d) = w.ids[slot];
                w.now += SimDuration::from_millis(u64::from(dt_ms));
                w.bell.advance(b, w.now);
                w.dense.advance(d, w.now);
            }
            Op::Swap { fresh } => {
                let (pb, pd) = w.ids[0];
                let (qb, qd) = w.ids[1];
                let noise = w.noise;
                let rb = w
                    .bell
                    .swap(pb, qb, NodeId(1), w.now, &noise, &mut w.rng_bell);
                let rd = w
                    .dense
                    .swap(pd, qd, NodeId(1), w.now, &noise, &mut w.rng_dense);
                if rb.outcome != rd.outcome {
                    return Err(format!(
                        "swap outcomes diverge: bell {} vs dense {}",
                        rb.outcome, rd.outcome
                    ));
                }
                let expect = frames.0[0].combine(frames.0[1], rb.outcome);
                for (store, res, tag) in [(&w.bell, &rb, "bell"), (&w.dense, &rd, "dense")] {
                    let announced = store.get(res.new_pair).expect("joined pair").announced;
                    if announced != expect {
                        return Err(format!(
                            "{tag} post-swap announced {announced} vs frame {expect}"
                        ));
                    }
                }
                compare_pair(
                    w.bell.get(rb.new_pair),
                    w.dense.get(rd.new_pair),
                    "post-swap",
                )?;
                w.bell.discard(rb.new_pair);
                w.dense.discard(rd.new_pair);
                // Recreate P and Q (R is untouched: only pass its slot
                // through so the frame stays in sync).
                w.reset_slots(&[0, 1], fresh, frames);
            }
            Op::Distill { fresh } => {
                let (pb, pd) = w.ids[0];
                let (rb, rd) = w.ids[2];
                let noise = w.noise;
                let resb = w.bell.distill(pb, rb, w.now, &noise, &mut w.rng_bell);
                let resd = w.dense.distill(pd, rd, w.now, &noise, &mut w.rng_dense);
                if resb.success != resd.success {
                    return Err(format!(
                        "distill verdicts diverge: bell {} vs dense {}",
                        resb.success, resd.success
                    ));
                }
                compare_pair(
                    w.bell.get(resb.kept),
                    w.dense.get(resd.kept),
                    "post-distill",
                )?;
                // Both representations leave the kept pair in the Φ+
                // frame.
                frames.0[0] = BellState::PHI_PLUS;
                let announced = w.bell.get(resb.kept).expect("kept").announced;
                if announced != BellState::PHI_PLUS {
                    return Err("distill must leave the kept pair in the Φ+ frame".into());
                }
                w.bell.discard(resb.kept);
                w.dense.discard(resd.kept);
                w.reset_slots(&[0, 2], fresh, frames);
            }
            Op::Measure { basis, fresh } => {
                let (pb, pd) = w.ids[0];
                let basis = match basis {
                    0 => Pauli::X,
                    1 => Pauli::Y,
                    _ => Pauli::Z,
                };
                let readout = w.params.gates.readout;
                for node in [NodeId(0), NodeId(1)] {
                    let mb = w
                        .bell
                        .measure_end(pb, node, basis, &readout, w.now, &mut w.rng_bell);
                    let md =
                        w.dense
                            .measure_end(pd, node, basis, &readout, w.now, &mut w.rng_dense);
                    if (mb.true_outcome, mb.reported) != (md.true_outcome, md.reported) {
                        return Err(format!(
                            "readout at {node} diverges: bell {mb:?} vs dense {md:?}"
                        ));
                    }
                }
                if !w.bell.fully_measured(pb) || !w.dense.fully_measured(pd) {
                    return Err("both ends measured but pair not fully measured".into());
                }
                w.reset_slots(&[0], fresh, frames);
            }
        }
        Ok(())
    }

    fn invariants(&self, frames: &Frames, w: &World) -> Result<(), String> {
        for slot in 0..3 {
            let (b, d) = w.ids[slot];
            let pb = w.bell.get(b);
            let pd = w.dense.get(d);
            compare_pair(pb, pd, &format!("slot {slot}"))?;
            let announced = pb.expect("live").announced;
            if announced != frames.0[slot] {
                return Err(format!(
                    "slot {slot}: announced {announced} vs frame {}",
                    frames.0[slot]
                ));
            }
        }
        Ok(())
    }
}

/// Numeric agreement between the two representations of one pair.
fn compare_pair(
    bell: Option<qn_hardware::PairView<'_>>,
    dense: Option<qn_hardware::PairView<'_>>,
    what: &str,
) -> Result<(), String> {
    let (bell, dense) = match (bell, dense) {
        (Some(b), Some(d)) => (b, d),
        _ => return Err(format!("{what}: liveness diverges")),
    };
    if bell.announced != dense.announced {
        return Err(format!(
            "{what}: announced {} vs {}",
            bell.announced, dense.announced
        ));
    }
    let (sb, sd) = (bell.state(), dense.state());
    for target in BellState::ALL {
        let fb = sb.fidelity_bell(target);
        let fd = sd.fidelity_bell(target);
        if (fb - fd).abs() > EPS {
            return Err(format!("{what}: coeff {target} {fb} vs {fd}"));
        }
    }
    for end in 0..2 {
        if (sb.prob_one(end) - sd.prob_one(end)).abs() > EPS {
            return Err(format!("{what}: prob_one({end}) diverges"));
        }
    }
    if (sb.trace() - sd.trace()).abs() > EPS {
        return Err(format!("{what}: trace diverges"));
    }
    if (sb.purity() - sd.purity()).abs() > EPS {
        return Err(format!("{what}: purity diverges"));
    }
    Ok(())
}

#[test]
fn representations_agree_across_protocol_sequences() {
    ModelTest::new("hardware_threeway_agreement", ThreeWaySpec)
        .cases(64)
        .max_ops(40)
        .run();
}

/// The same harness with perfect gates/readout: distillation and swap
/// then follow the textbook algebra exactly, and the Pauli frame is
/// predictive for the whole (noiseless-channel) op subset.
#[test]
fn representations_agree_with_perfect_circuits() {
    struct PerfectSpec;
    impl ModelSpec for PerfectSpec {
        type Op = Op;
        type Model = Frames;
        type System = World;
        fn new_model(&self) -> Frames {
            ThreeWaySpec.new_model()
        }
        fn new_system(&self) -> World {
            let mut w = ThreeWaySpec.new_system();
            let readout = qn_hardware::ReadoutSpec {
                fidelity0: 1.0,
                fidelity1: 1.0,
                duration: 0.0,
            };
            // Built for the Bell store: it serves the dense one too.
            w.noise = SwapNoise::new(0.0, 0.0, readout, StateRep::Bell);
            w
        }
        fn op_strategy(&self) -> BoxedStrategy<Op> {
            prop_oneof![
                any::<u8>().prop_map(|fresh| Op::Swap { fresh }),
                any::<u8>().prop_map(|fresh| Op::Distill { fresh }),
                (0u8..3, any::<u8>()).prop_map(|(basis, fresh)| Op::Measure { basis, fresh }),
            ]
            .boxed()
        }
        fn apply(&self, m: &mut Frames, s: &mut World, op: &Op) -> Result<(), String> {
            ThreeWaySpec.apply(m, s, op)
        }
        fn invariants(&self, m: &Frames, s: &World) -> Result<(), String> {
            ThreeWaySpec.invariants(m, s)
        }
    }
    ModelTest::new("hardware_threeway_perfect_circuits", PerfectSpec)
        .cases(32)
        .max_ops(24)
        .run();
}
