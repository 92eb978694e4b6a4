//! Slot-reuse invisibility suite: two slab-backed [`PairStore`]s — one
//! fresh, one whose slab has been churned hard (pairs created and
//! discarded so every later allocation lands in a recycled slot with a
//! bumped generation) — driven through identical random sequences of
//! decoherence sweeps, swaps, distillations, measurements and further
//! mid-sequence churn, with identical RNG streams.
//!
//! After every operation the suite asserts that the physics is
//! **bit-identical** across the two stores: announced Bell states,
//! swap outcomes, distillation verdicts, raw and reported readouts,
//! and every Bell-diagonal coefficient compared via `f64::to_bits`.
//! The handles themselves differ — the churned store hands out high
//! generations from its free list while the fresh store counts up from
//! slot zero — which is exactly the point: slab bookkeeping (slot
//! index, generation, free-list order) must never leak into a pair's
//! quantum trajectory.
//!
//! The suite also pins the stale-handle contract under reuse: every
//! handle discarded during churn keeps resolving to `None` even after
//! its slot has been re-occupied.

use proptest::prelude::*;
use qn_hardware::device::QubitId;
use qn_hardware::pairs::{PairId, PairStore, SwapNoise};
use qn_hardware::params::HardwareParams;
use qn_hardware::StateRep;
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::{BellDiagonal, PairState};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};
use qn_testkit::{ModelSpec, ModelTest};

/// P spans nodes (0,1); Q spans (1,2) — the swap partner; R spans
/// (0,1) in parallel with P — the distillation partner.
const SPANS: [(u32, u32); 3] = [(0, 1), (1, 2), (0, 1)];
/// Short memories so the decoherence sweep does real work on every
/// advance.
const T1: f64 = 0.9;
const T2: f64 = 0.6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Advance simulated time and sweep every live pair in both stores.
    Advance { dt_ms: u16 },
    /// Entanglement swap of P and Q at node 1; then refresh both slots.
    Swap { fresh: u8 },
    /// BBPSSW distillation keeping P, sacrificing R; then refresh.
    Distill { fresh: u8 },
    /// Measure both ends of P (basis selects X/Y/Z); then refresh.
    Measure { basis: u8, fresh: u8 },
    /// Create `1 + k % 7` transient pairs in both stores and discard
    /// them in LIFO order — mid-sequence churn that shifts the two
    /// stores' free lists further apart.
    Churn { k: u8 },
}

struct World {
    /// The fresh store: slots fill 0, 1, 2, … with generation 0.
    fresh: PairStore,
    /// The churned store: every allocation recycles a freed slot.
    worn: PairStore,
    rng_fresh: SimRng,
    rng_worn: SimRng,
    now: SimTime,
    /// `(fresh id, worn id)` per logical slot — the ids differ, the
    /// physics must not.
    ids: [(PairId, PairId); 3],
    /// Handles discarded from the worn store during pre-churn; must
    /// stay `None` forever, even once their slots are re-occupied.
    tombstones: Vec<PairId>,
    noise: SwapNoise,
    params: HardwareParams,
}

/// The deterministic fresh frames/fidelity a refresh op installs.
fn fresh_spec(fresh: u8) -> ([BellState; 3], f64) {
    let frames = [
        BellState::from_index((fresh & 0b11) as usize),
        BellState::from_index(((fresh >> 2) & 0b11) as usize),
        BellState::from_index(((fresh >> 4) & 0b11) as usize),
    ];
    let f = 0.7 + 0.25 * ((fresh >> 6) as f64 / 3.0);
    (frames, f)
}

/// Werner state of fidelity `f` in the `announced` frame, as a
/// Bell-diagonal — mixed enough that distillation verdicts and
/// readouts depend on the state, not just the frame.
fn werner_bell(f: f64, announced: BellState) -> PairState {
    let rest = (1.0 - f) / 3.0;
    let mut coeffs = [rest; 4];
    coeffs[announced.index()] = f;
    PairState::Bell(BellDiagonal::from_bell_coeffs(coeffs))
}

impl World {
    fn create_slot(&mut self, slot: usize, announced: BellState, f: f64) {
        let (na, nb) = SPANS[slot];
        let ends = [
            (NodeId(na), QubitId(slot as u32), T1, T2),
            (NodeId(nb), QubitId(slot as u32), T1, T2),
        ];
        let a = self
            .fresh
            .create_pair(self.now, werner_bell(f, announced), announced, ends);
        let b = self
            .worn
            .create_pair(self.now, werner_bell(f, announced), announced, ends);
        self.ids[slot] = (a, b);
    }

    fn reset_slots(&mut self, slots: &[usize], fresh: u8) {
        let (frames, f) = fresh_spec(fresh);
        for &slot in slots {
            let (a, b) = self.ids[slot];
            self.fresh.discard(a);
            self.worn.discard(b);
            self.create_slot(slot, frames[slot], f);
        }
    }
}

/// Bit-exact agreement between the two stores' views of one pair.
fn compare_pair(w: &World, fresh: PairId, worn: PairId, what: &str) -> Result<(), String> {
    let (a, b) = match (w.fresh.get(fresh), w.worn.get(worn)) {
        (Some(a), Some(b)) => (a, b),
        (a, b) => {
            return Err(format!(
                "{what}: liveness diverges (fresh {}, worn {})",
                a.is_some(),
                b.is_some()
            ))
        }
    };
    if a.announced != b.announced {
        return Err(format!(
            "{what}: announced {} vs {}",
            a.announced, b.announced
        ));
    }
    if a.created != b.created {
        return Err(format!("{what}: creation time diverges"));
    }
    let (sa, sb) = (a.state(), b.state());
    for target in BellState::ALL {
        let (fa, fb) = (sa.fidelity_bell(target), sb.fidelity_bell(target));
        if fa.to_bits() != fb.to_bits() {
            return Err(format!(
                "{what}: coeff {target} not bit-identical: {fa:?} vs {fb:?}"
            ));
        }
    }
    for end in 0..2 {
        if sa.prob_one(end).to_bits() != sb.prob_one(end).to_bits() {
            return Err(format!("{what}: prob_one({end}) not bit-identical"));
        }
    }
    Ok(())
}

struct ReuseSpec;

impl ModelSpec for ReuseSpec {
    type Op = Op;
    type Model = ();
    type System = World;

    fn new_model(&self) {}

    fn new_system(&self) -> World {
        let params = HardwareParams::simulation();
        let mut world = World {
            fresh: PairStore::new(StateRep::Bell),
            worn: PairStore::new(StateRep::Bell),
            rng_fresh: SimRng::substream(0x51AB, "reuse"),
            rng_worn: SimRng::substream(0x51AB, "reuse"),
            now: SimTime::ZERO,
            ids: [(PairId(0), PairId(0)); 3],
            tombstones: Vec::new(),
            noise: SwapNoise::from_params(&params, StateRep::Bell),
            params,
        };
        // Wear the worn store in: occupy a dozen slots, then free them
        // in creation order (so the LIFO free list hands slots back in
        // *reverse*), leaving every future allocation on a recycled
        // slot with generation ≥ 1.
        let mut churned = Vec::new();
        for i in 0..12u32 {
            let id = world.worn.create_pair(
                world.now,
                werner_bell(0.9, BellState::PHI_PLUS),
                BellState::PHI_PLUS,
                [
                    (NodeId(0), QubitId(i), T1, T2),
                    (NodeId(1), QubitId(i), T1, T2),
                ],
            );
            churned.push(id);
        }
        for id in &churned {
            world.worn.discard(*id);
        }
        world.tombstones = churned;
        for slot in 0..3 {
            let (frames, f) = fresh_spec(0b10_01_00);
            world.create_slot(slot, frames[slot], f);
        }
        world
    }

    fn op_strategy(&self) -> BoxedStrategy<Op> {
        prop_oneof![
            (1u16..300).prop_map(|dt_ms| Op::Advance { dt_ms }),
            any::<u8>().prop_map(|fresh| Op::Swap { fresh }),
            any::<u8>().prop_map(|fresh| Op::Distill { fresh }),
            (0u8..3, any::<u8>()).prop_map(|(basis, fresh)| Op::Measure { basis, fresh }),
            any::<u8>().prop_map(|k| Op::Churn { k }),
        ]
        .boxed()
    }

    fn apply(&self, _model: &mut (), w: &mut World, op: &Op) -> Result<(), String> {
        match *op {
            Op::Advance { dt_ms } => {
                w.now += SimDuration::from_millis(u64::from(dt_ms));
                w.fresh.advance_all(w.now);
                w.worn.advance_all(w.now);
            }
            Op::Swap { fresh } => {
                let (pa, pb) = w.ids[0];
                let (qa, qb) = w.ids[1];
                let noise = w.noise;
                let ra = w
                    .fresh
                    .swap(pa, qa, NodeId(1), w.now, &noise, &mut w.rng_fresh);
                let rb = w
                    .worn
                    .swap(pb, qb, NodeId(1), w.now, &noise, &mut w.rng_worn);
                if ra.outcome != rb.outcome {
                    return Err(format!(
                        "swap outcomes diverge: fresh {} vs worn {}",
                        ra.outcome, rb.outcome
                    ));
                }
                if ra
                    .freed
                    .iter()
                    .map(|(n, _)| n)
                    .ne(rb.freed.iter().map(|(n, _)| n))
                {
                    return Err("swap freed different end nodes".into());
                }
                compare_pair(w, ra.new_pair, rb.new_pair, "post-swap")?;
                let fa = w.fresh.fidelity_to(ra.new_pair, ra.outcome, w.now);
                let fb = w.worn.fidelity_to(rb.new_pair, rb.outcome, w.now);
                if fa.to_bits() != fb.to_bits() {
                    return Err(format!("post-swap fidelity {fa:?} vs {fb:?}"));
                }
                w.fresh.discard(ra.new_pair);
                w.worn.discard(rb.new_pair);
                w.reset_slots(&[0, 1], fresh);
            }
            Op::Distill { fresh } => {
                let (pa, pb) = w.ids[0];
                let (ra, rb) = w.ids[2];
                let noise = w.noise;
                let da = w.fresh.distill(pa, ra, w.now, &noise, &mut w.rng_fresh);
                let db = w.worn.distill(pb, rb, w.now, &noise, &mut w.rng_worn);
                if da.success != db.success {
                    return Err(format!(
                        "distill verdicts diverge: fresh {} vs worn {}",
                        da.success, db.success
                    ));
                }
                compare_pair(w, da.kept, db.kept, "post-distill")?;
                w.fresh.discard(da.kept);
                w.worn.discard(db.kept);
                w.reset_slots(&[0, 2], fresh);
            }
            Op::Measure { basis, fresh } => {
                let (pa, pb) = w.ids[0];
                let basis = match basis {
                    0 => qn_quantum::gates::Pauli::X,
                    1 => qn_quantum::gates::Pauli::Y,
                    _ => qn_quantum::gates::Pauli::Z,
                };
                let readout = w.params.gates.readout;
                for node in [NodeId(0), NodeId(1)] {
                    let ma =
                        w.fresh
                            .measure_end(pa, node, basis, &readout, w.now, &mut w.rng_fresh);
                    let mb = w
                        .worn
                        .measure_end(pb, node, basis, &readout, w.now, &mut w.rng_worn);
                    if (ma.true_outcome, ma.reported) != (mb.true_outcome, mb.reported) {
                        return Err(format!(
                            "readout at {node} diverges: fresh {ma:?} vs worn {mb:?}"
                        ));
                    }
                }
                w.reset_slots(&[0], fresh);
            }
            Op::Churn { k } => {
                let count = 1 + (k % 7) as u32;
                let mut transients = Vec::new();
                for i in 0..count {
                    let announced = BellState::from_index((i as usize) % 4);
                    let ends = [
                        (NodeId(2), QubitId(16 + i), T1, T2),
                        (NodeId(3), QubitId(16 + i), T1, T2),
                    ];
                    let a =
                        w.fresh
                            .create_pair(w.now, werner_bell(0.8, announced), announced, ends);
                    let b = w
                        .worn
                        .create_pair(w.now, werner_bell(0.8, announced), announced, ends);
                    compare_pair(w, a, b, "transient")?;
                    transients.push((a, b));
                }
                for (a, b) in transients.into_iter().rev() {
                    let fa = w.fresh.discard(a);
                    let fb = w.worn.discard(b);
                    if fa != fb {
                        return Err(format!("churn discard diverges: {fa:?} vs {fb:?}"));
                    }
                }
                // Stale handles must stay dead no matter how many times
                // their slots have been recycled since.
                for id in w.tombstones.clone() {
                    if w.worn.discard(id).is_some() {
                        return Err(format!("tombstone {:#x} discard was not a no-op", id.0));
                    }
                }
            }
        }
        Ok(())
    }

    fn invariants(&self, _model: &(), w: &World) -> Result<(), String> {
        if w.fresh.len() != w.worn.len() {
            return Err(format!(
                "live counts diverge: fresh {} vs worn {}",
                w.fresh.len(),
                w.worn.len()
            ));
        }
        for slot in 0..3 {
            let (a, b) = w.ids[slot];
            compare_pair(w, a, b, &format!("slot {slot}"))?;
        }
        for id in &w.tombstones {
            if w.worn.get(*id).is_some() {
                return Err(format!(
                    "tombstone {:#x} (slot {}, generation {}) resolved to a live \
                     pair after its slot was recycled",
                    id.0,
                    id.index(),
                    id.generation()
                ));
            }
        }
        Ok(())
    }
}

#[test]
fn slot_reuse_is_invisible_to_pair_trajectories() {
    ModelTest::new("hardware_slab_reuse_invisible", ReuseSpec)
        .cases(64)
        .max_ops(40)
        .run();
}

/// The worn store really is exercising reuse: after the pre-churn, its
/// allocations come back on recycled slots with bumped generations,
/// while the fresh store is still handing out generation-zero slots.
#[test]
fn worn_store_actually_recycles_slots() {
    let w = ReuseSpec.new_system();
    for slot in 0..3 {
        let (a, b) = w.ids[slot];
        assert_eq!(a.generation(), 0, "fresh store must be on generation 0");
        assert!(
            b.generation() >= 1,
            "worn store slot {slot} must be recycled (got generation {})",
            b.generation()
        );
        assert_ne!(a.0, b.0, "handles must differ between the stores");
    }
    assert_eq!(w.fresh.len(), w.worn.len());
}
