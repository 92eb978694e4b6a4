//! The entangled-pair store: the quantum memory content of the network.
//!
//! Every live entangled pair occupies one slot of a **generational
//! slab** — dense `Vec` storage plus a free list. A [`PairId`] packs
//! the slot index with the slot's generation, so handles to discarded
//! pairs are *detected* (lookups return `None`), never silently aliased
//! to the slot's next occupant. The per-pair fields the decoherence
//! sweep touches (end bookkeeping: `last_noise`, T1/T2; the state
//! representation) live in parallel arrays, so [`PairStore::advance_all`]
//! streams them cache-linearly instead of chasing a hash map.
//!
//! The store implements the physical operations of the data plane:
//!
//! * **lazy decoherence** — each end records when its noise was last
//!   advanced; every touch first applies T1 amplitude damping and T2*
//!   dephasing for the elapsed idle time (paper's P4);
//! * **entanglement swap** — the CNOT → H → measure circuit built from
//!   noisy primitives, joining two pairs into one (P2 + P3). The physical
//!   projection uses the *true* measurement outcomes while the announced
//!   two-bit result uses *readout-noisy* bits, exactly reproducing how
//!   readout errors corrupt entanglement tracking on real hardware;
//! * **measurement** of one end with readout error (MEASURE deliveries,
//!   fidelity test rounds);
//! * **Pauli correction**, extra dephasing (nuclear-spin noise), and end
//!   re-targeting (moving a qubit into carbon storage).
//!
//! The store is also the **oracle** used by the Fig 10 baseline: it can
//! report the true fidelity of any pair — the paper's "backdoor mechanism
//! … not available outside of simulations". The QNP itself never calls it.

use crate::device::QubitId;
use crate::params::{HardwareParams, ReadoutSpec};
use qn_quantum::bell::BellState;
use qn_quantum::channels;
use qn_quantum::gates::Pauli;
use qn_quantum::measure::swap_circuit_outcome;
use qn_quantum::pairstate::{BellDiagonal, CondTable, PairState, StateRep, SwapPovm};
use qn_quantum::DensityMatrix;
use qn_sim::{NodeId, SimRng, SimTime};

/// Identifier of a live entangled pair: slot index in the low 32 bits,
/// the slot's generation in the high 32. A store with no churn hands
/// out the same dense `0, 1, 2, …` values the old sequential counter
/// did; once slots are reused the generation half keeps every id ever
/// issued unique, so a stale handle can be detected rather than
/// resolving to the slot's next occupant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PairId(pub u64);

impl PairId {
    /// Pack a slot index and generation.
    pub fn from_parts(index: u32, generation: u32) -> Self {
        PairId(((generation as u64) << 32) | index as u64)
    }

    /// The slab slot this id names.
    pub fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    /// The slot generation this id was issued under.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One end of a pair: which qubit on which node holds it, with its
/// decoherence bookkeeping.
#[derive(Clone, Debug)]
pub struct PairEnd {
    /// The node holding this end.
    pub node: NodeId,
    /// The memory slot on that node.
    pub qubit: QubitId,
    /// T1 of the slot (seconds).
    pub t1: f64,
    /// T2* of the slot (seconds).
    pub t2: f64,
    /// When decoherence was last applied to this end.
    pub last_noise: SimTime,
    /// Set once the end has been measured (its qubit is classical).
    pub measured: bool,
}

/// Borrowed view of one live pair, stitched from the slab's parallel
/// arrays. Cheap to copy; the `id`/`announced`/`created` fields are
/// plain values, the state and ends borrow the store.
#[derive(Clone, Copy)]
pub struct PairView<'a> {
    /// The pair's identity in the store.
    pub id: PairId,
    /// The Bell state a *perfect* tracker would assign: the link layer's
    /// announced state for fresh pairs, XOR-combined through every swap's
    /// announced (readout-noisy) outcome. Protocol-level TRACK accounting
    /// must agree with this (tested), and the oracle measures fidelity
    /// against it.
    pub announced: BellState,
    /// The frame the swaps' *true* outcomes give: `announced`, but
    /// combined through each swap's outcome before readout error. The
    /// two differ exactly when readout errors flipped the pair's frame.
    pub true_frame: BellState,
    /// Creation (heralding or swap-completion) time.
    pub created: SimTime,
    state: &'a PairState,
    ends: &'a [PairEnd; 2],
}

impl<'a> PairView<'a> {
    /// The two ends.
    pub fn ends(&self) -> &'a [PairEnd; 2] {
        self.ends
    }

    /// Index (0/1) of the end on `node`, if any.
    pub fn end_at(&self, node: NodeId) -> Option<usize> {
        self.ends.iter().position(|e| e.node == node)
    }

    /// The current two-qubit state (without advancing decoherence — use
    /// [`PairStore::fidelity_to`] for oracle reads).
    pub fn state(&self) -> &'a PairState {
        self.state
    }
}

/// Per-slot metadata: generation + liveness, and the two small
/// per-pair values that don't participate in the decoherence sweep.
#[derive(Clone, Debug)]
struct SlotMeta {
    generation: u32,
    live: bool,
    announced: BellState,
    true_frame: BellState,
    created: SimTime,
}

/// Placeholder state parked in vacant slots (never observable: every
/// read goes through a generation check first).
fn vacant_state() -> PairState {
    PairState::Bell(BellDiagonal::from_bell_state(BellState::PHI_PLUS))
}

/// Noise model of the swap circuit, derived from [`HardwareParams`],
/// together with the circuit's precomputed form for the representation
/// it runs on: the conditional-map table of each orientation for a
/// Bell-diagonal store, the POVM for a dense one. Both are pure
/// functions of the gate noise, so they are looked up once here, not on
/// every swap.
#[derive(Clone, Copy)]
pub struct SwapNoise {
    p_two_qubit: f64,
    p_single: f64,
    readout: ReadoutSpec,
    form: SwapForm,
}

/// The swap circuit's precomputed form.
#[derive(Clone, Copy)]
enum SwapForm {
    /// [`CondTable::swap`] of orientation `(ia, ib)` at `2·ia + ib`,
    /// `None` where the table is not X-closed.
    Tables([Option<&'static CondTable>; 4]),
    Povm(&'static SwapPovm),
}

impl SwapNoise {
    /// Two-qubit depolarizing `p_two_qubit`, single-qubit depolarizing
    /// `p_single` and `readout`, for a store on representation `rep`. A
    /// swap its form does not serve (a dense pair in a Bell-diagonal
    /// store, a table that is not X-closed, any pair in a dense store
    /// under a noise built for `StateRep::Bell`) looks the POVM up by
    /// its noise; a noise built for `StateRep::Dm` runs every swap
    /// densely.
    pub fn new(p_two_qubit: f64, p_single: f64, readout: ReadoutSpec, rep: StateRep) -> Self {
        let form = match rep {
            StateRep::Bell => SwapForm::Tables(
                [(0, 0), (0, 1), (1, 0), (1, 1)]
                    .map(|(ia, ib)| CondTable::swap(p_two_qubit, p_single, ia, ib)),
            ),
            StateRep::Dm => SwapForm::Povm(SwapPovm::get(p_two_qubit, p_single)),
        };
        SwapNoise {
            p_two_qubit,
            p_single,
            readout,
            form,
        }
    }

    /// Derive from a hardware parameter set, for a store on `rep`.
    pub fn from_params(p: &HardwareParams, rep: StateRep) -> Self {
        SwapNoise::new(
            channels::depolarizing_param_for_fidelity(p.gates.two_qubit.fidelity, 4),
            channels::depolarizing_param_for_fidelity(p.gates.electron_single.fidelity, 2),
            p.gates.readout,
            rep,
        )
    }

    /// Two-qubit depolarizing probability (from the E-C gate fidelity).
    pub fn p_two_qubit(&self) -> f64 {
        self.p_two_qubit
    }

    /// Single-qubit depolarizing probability (from the electron gate).
    pub fn p_single(&self) -> f64 {
        self.p_single
    }

    /// Readout error model.
    pub fn readout(&self) -> &ReadoutSpec {
        &self.readout
    }

    /// The swap table for orientation `(ia, ib)`, if this noise has
    /// tables and that one is X-closed.
    fn table(&self, ia: usize, ib: usize) -> Option<&'static CondTable> {
        match self.form {
            SwapForm::Tables(tables) => tables[2 * ia + ib],
            SwapForm::Povm(_) => None,
        }
    }

    /// The POVM of the dense path.
    fn povm(&self) -> &'static SwapPovm {
        match self.form {
            SwapForm::Povm(povm) => povm,
            SwapForm::Tables(_) => SwapPovm::get(self.p_two_qubit, self.p_single),
        }
    }
}

impl std::fmt::Debug for SwapNoise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwapNoise")
            .field("p_two_qubit", &self.p_two_qubit)
            .field("p_single", &self.p_single)
            .field("readout", &self.readout)
            .finish_non_exhaustive()
    }
}

/// Result of an entanglement swap.
#[derive(Clone, Copy, Debug)]
pub struct SwapResult {
    /// The two-bit outcome *as announced* (includes readout error).
    pub outcome: BellState,
    /// The joined pair's id.
    pub new_pair: PairId,
    /// The qubits freed at the swapping node.
    pub freed: [(NodeId, QubitId); 2],
}

/// Result of measuring one end of a pair.
#[derive(Clone, Copy, Debug)]
pub struct MeasureResult {
    /// The physical outcome that collapsed the state.
    pub true_outcome: bool,
    /// The outcome reported by the (imperfect) readout.
    pub reported: bool,
}

/// All live pairs in the network, stored as a generational slab.
///
/// The store runs on one of two state representations (see
/// [`StateRep`]): the Bell-diagonal closed-form fast path or
/// dense 4×4 density matrices. Both follow the same trajectory —
/// identical RNG draw order and outcomes — the fast path just replaces
/// each operation on sixteen complex entries with a few dozen real
/// multiplies.
///
/// Layout: three parallel arrays indexed by slot — `meta` (generation,
/// liveness, announced frame, creation time), `ends` (the decoherence
/// bookkeeping both sweep paths touch), `states` (the quantum state).
/// Freed slots go on a LIFO free list and are reused under a bumped
/// generation.
pub struct PairStore {
    meta: Vec<SlotMeta>,
    ends: Vec<[PairEnd; 2]>,
    states: Vec<PairState>,
    free: Vec<u32>,
    live: usize,
    rep: StateRep,
}

impl PairStore {
    /// An empty store on the representation `rep`.
    pub fn new(rep: StateRep) -> Self {
        PairStore {
            meta: Vec::new(),
            ends: Vec::new(),
            states: Vec::new(),
            free: Vec::new(),
            live: 0,
            rep,
        }
    }

    /// The active state representation.
    pub fn rep(&self) -> StateRep {
        self.rep
    }

    /// Number of live pairs.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no pairs are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slab slots (live + vacant) — the sweep's stream length.
    pub fn slot_count(&self) -> usize {
        self.meta.len()
    }

    /// Resolve a handle to its slot: the slot must be live *and* on the
    /// same generation the handle was issued under.
    fn slot(&self, id: PairId) -> Option<usize> {
        let i = id.index();
        let m = self.meta.get(i)?;
        (m.live && m.generation == id.generation()).then_some(i)
    }

    /// Claim a slot (reusing the free list LIFO) and place a pair in it.
    fn insert_slot(
        &mut self,
        created: SimTime,
        state: PairState,
        [announced, true_frame]: [BellState; 2],
        ends: [PairEnd; 2],
    ) -> PairId {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                let i = i as usize;
                let m = &mut self.meta[i];
                m.live = true;
                m.announced = announced;
                m.true_frame = true_frame;
                m.created = created;
                self.states[i] = state;
                self.ends[i] = ends;
                PairId::from_parts(i as u32, self.meta[i].generation)
            }
            None => {
                let i = self.meta.len() as u32;
                self.meta.push(SlotMeta {
                    generation: 0,
                    live: true,
                    announced,
                    true_frame,
                    created,
                });
                self.states.push(state);
                self.ends.push(ends);
                PairId::from_parts(i, 0)
            }
        }
    }

    /// Vacate a slot, bumping its generation so outstanding handles go
    /// stale. Returns the slot's state, its announced and true frames,
    /// and its ends.
    fn remove_parts(&mut self, id: PairId) -> Option<(PairState, [BellState; 2], [PairEnd; 2])> {
        let i = self.slot(id)?;
        let m = &mut self.meta[i];
        m.live = false;
        m.generation = m.generation.wrapping_add(1);
        let frames = [m.announced, m.true_frame];
        self.free.push(i as u32);
        self.live -= 1;
        let state = std::mem::replace(&mut self.states[i], vacant_state());
        Some((state, frames, self.ends[i].clone()))
    }

    /// Register a freshly heralded pair. `ends` lists `(node, qubit, t1,
    /// t2)` for each side; end 0 corresponds to qubit 0 of `state`. The
    /// dense input converts to the fast representation when the active
    /// [`StateRep`] allows it (every heralded state is X-form).
    pub fn create(
        &mut self,
        now: SimTime,
        state: DensityMatrix,
        announced: BellState,
        ends: [(NodeId, QubitId, f64, f64); 2],
    ) -> PairId {
        assert_eq!(state.num_qubits(), 2);
        self.create_pair(
            now,
            PairState::from_density(state, self.rep),
            announced,
            ends,
        )
    }

    /// [`PairStore::create`] for a state already in pair-state form
    /// (the heralding fast path constructs [`PairState`] directly).
    pub fn create_pair(
        &mut self,
        now: SimTime,
        state: PairState,
        announced: BellState,
        ends: [(NodeId, QubitId, f64, f64); 2],
    ) -> PairId {
        let mk = |(node, qubit, t1, t2): (NodeId, QubitId, f64, f64)| PairEnd {
            node,
            qubit,
            t1,
            t2,
            last_noise: now,
            measured: false,
        };
        // The link layer heralds the state it announces: no readout
        // error sits between the two frames yet.
        self.insert_slot(now, state, [announced; 2], [mk(ends[0]), mk(ends[1])])
    }

    /// Look up a pair. Stale handles (the slot was freed, possibly
    /// reused) resolve to `None`.
    pub fn get(&self, id: PairId) -> Option<PairView<'_>> {
        let i = self.slot(id)?;
        let m = &self.meta[i];
        Some(PairView {
            id,
            announced: m.announced,
            true_frame: m.true_frame,
            created: m.created,
            state: &self.states[i],
            ends: &self.ends[i],
        })
    }

    /// Whether the pair is still live.
    pub fn contains(&self, id: PairId) -> bool {
        self.slot(id).is_some()
    }

    /// Remove a pair (cutoff discard, delivery consumption). Returns the
    /// qubits freed, for return to the memory manager.
    pub fn discard(&mut self, id: PairId) -> Option<[(NodeId, QubitId); 2]> {
        self.remove_parts(id)
            .map(|(_, _, ends)| [(ends[0].node, ends[0].qubit), (ends[1].node, ends[1].qubit)])
    }

    /// Advance decoherence on both ends to `now`.
    pub fn advance(&mut self, id: PairId, now: SimTime) {
        let i = self.slot(id).expect("advance on dead pair");
        advance_parts(&mut self.states[i], &mut self.ends[i], now);
    }

    /// Advance decoherence on **every** live pair to `now` in one sweep.
    ///
    /// Identical per-pair math to [`advance`] — pairs decay independently
    /// (each end applies only its own T1/T2 channels), so sweeping is
    /// order-insensitive and agrees with per-pair advancement to the
    /// same time bit-for-bit. The slab layout makes this a linear walk
    /// over three parallel arrays in slot order; the runtime drives it
    /// through its checkpoint policy (`CheckpointPolicy` in
    /// `qn_netsim`), which by default checkpoints at exactly the
    /// `SimTime`s the lazy path would touch, keeping baselines
    /// bit-identical.
    ///
    /// [`advance`]: PairStore::advance
    pub fn advance_all(&mut self, now: SimTime) {
        for ((m, ends), state) in self
            .meta
            .iter()
            .zip(self.ends.iter_mut())
            .zip(self.states.iter_mut())
        {
            if !m.live {
                continue;
            }
            advance_parts(state, ends, now);
        }
    }

    /// Oracle: the true fidelity of the pair to `expected` at time `now`.
    ///
    /// Used only by the Fig 10 baseline and by validation tests — the QNP
    /// itself has no access to this (the paper's point about the
    /// "physically impossible" oracle).
    pub fn fidelity_to(&mut self, id: PairId, expected: BellState, now: SimTime) -> f64 {
        self.advance(id, now);
        let i = self.slot(id).expect("fidelity on dead pair");
        self.states[i].fidelity_bell(expected)
    }

    /// Apply a (perfect, per Table 1) Pauli correction to the end on
    /// `node`.
    pub fn apply_pauli(&mut self, id: PairId, node: NodeId, pauli: Pauli, now: SimTime) {
        self.advance(id, now);
        let i = self.slot(id).expect("pauli on dead pair");
        let idx = self.ends[i]
            .iter()
            .position(|e| e.node == node)
            .expect("node does not hold this pair");
        if pauli != Pauli::I {
            self.states[i].apply_pauli(idx, pauli);
        }
        // Move both frames with the correction, so the oracle keeps
        // measuring against what a perfect tracker would expect.
        let m = &mut self.meta[i];
        m.announced = pauli_frame(m.announced, pauli);
        m.true_frame = pauli_frame(m.true_frame, pauli);
    }

    /// Apply extra dephasing (nuclear-spin noise during entanglement
    /// attempts) with phase-flip probability `lambda` to the end on `node`.
    pub fn apply_dephasing(&mut self, id: PairId, node: NodeId, lambda: f64) {
        if lambda <= 0.0 {
            return;
        }
        let i = self.slot(id).expect("dephase on dead pair");
        let idx = self.ends[i]
            .iter()
            .position(|e| e.node == node)
            .expect("node does not hold this pair");
        self.states[i].dephase(idx, lambda.min(0.5));
    }

    /// Fully (or partially) depolarize the end on `node` — the fate of
    /// an abandoned end whose qubit is re-initialised for new attempts.
    pub fn depolarize_end(&mut self, id: PairId, node: NodeId, p: f64) {
        let i = self.slot(id).expect("depolarize on dead pair");
        let idx = self.ends[i]
            .iter()
            .position(|e| e.node == node)
            .expect("node does not hold this pair");
        self.states[i].depolarize(idx, p);
    }

    /// Move the end on `node` to a different memory slot (electron →
    /// carbon storage). `p_move` is the depolarizing probability charged
    /// for the transfer circuit; the end inherits the new slot's T1/T2.
    #[allow(clippy::too_many_arguments)] // a physical move has this many degrees of freedom
    pub fn retarget_end(
        &mut self,
        id: PairId,
        node: NodeId,
        new_qubit: QubitId,
        t1: f64,
        t2: f64,
        p_move: f64,
        now: SimTime,
    ) -> QubitId {
        self.advance(id, now);
        let i = self.slot(id).expect("retarget on dead pair");
        let idx = self.ends[i]
            .iter()
            .position(|e| e.node == node)
            .expect("node does not hold this pair");
        if p_move > 0.0 {
            self.states[i].depolarize(idx, p_move);
        }
        let end = &mut self.ends[i][idx];
        let old = end.qubit;
        end.qubit = new_qubit;
        end.t1 = t1;
        end.t2 = t2;
        old
    }

    /// Measure the end on `node` in the given Pauli basis with readout
    /// noise. The state collapses according to the *true* outcome; the
    /// caller receives both the true and the reported bit.
    pub fn measure_end(
        &mut self,
        id: PairId,
        node: NodeId,
        basis: Pauli,
        readout: &ReadoutSpec,
        now: SimTime,
        rng: &mut SimRng,
    ) -> MeasureResult {
        self.advance(id, now);
        let i = self.slot(id).expect("measure on dead pair");
        let idx = self.ends[i]
            .iter()
            .position(|e| e.node == node)
            .expect("node does not hold this pair");
        assert!(!self.ends[i][idx].measured, "end already measured");
        let true_outcome = self.states[i].measure_pauli(idx, basis, rng.f64());
        self.ends[i][idx].measured = true;
        let reported = apply_readout_error(true_outcome, readout, rng);
        MeasureResult {
            true_outcome,
            reported,
        }
    }

    /// Whether both ends have been measured (the pair carries no more
    /// quantum information and can be discarded).
    pub fn fully_measured(&self, id: PairId) -> bool {
        self.slot(id)
            .map(|i| self.ends[i].iter().all(|e| e.measured))
            .unwrap_or(true)
    }

    /// Entanglement swap at `shared`: join `pa` and `pb` via the noisy
    /// CNOT → H → measure circuit. Consumes both pairs, creates the joined
    /// pair, frees the two qubits at `shared`.
    ///
    /// Call at the *completion* time of the swap operation so that the
    /// decoherence suffered during the (long, 500 µs) gate is charged
    /// before the projection.
    pub fn swap(
        &mut self,
        pa: PairId,
        pb: PairId,
        shared: NodeId,
        now: SimTime,
        noise: &SwapNoise,
        rng: &mut SimRng,
    ) -> SwapResult {
        self.advance(pa, now);
        self.advance(pb, now);
        let (a_state, [a_announced, a_true], a_ends) =
            self.remove_parts(pa).expect("swap: pair A dead");
        let (b_state, [b_announced, b_true], b_ends) =
            self.remove_parts(pb).expect("swap: pair B dead");
        let ia = a_ends
            .iter()
            .position(|e| e.node == shared)
            .expect("pair A not at swap node");
        let ib = b_ends
            .iter()
            .position(|e| e.node == shared)
            .expect("pair B not at swap node");
        let oa = 1 - ia; // outer end of A
        let ob = 1 - ib;

        // Fast path: both states Bell-diagonal and the conditional-map
        // table for this noise/orientation is X-closed — the whole
        // noisy circuit collapses to one 36-term contraction.
        let fast = match (a_state.as_bell(), b_state.as_bell(), noise.table(ia, ib)) {
            (Some(x), Some(y), Some(t)) => {
                let u1 = rng.f64();
                let u2 = rng.f64();
                let (m_control, m_target, post) = t.apply(x, y, u1, u2);
                Some((m_control, m_target, PairState::Bell(post)))
            }
            _ => None,
        };

        let (m_control, m_target, state) = match fast {
            Some(res) => res,
            None => {
                // Dense path: one contraction of both 4×4 states with
                // the POVM element of the sampled outcome. The true
                // outcomes collapse the state.
                let (a, b) = (a_state.to_dense(), b_state.to_dense());
                let u1 = rng.f64();
                let u2 = rng.f64();
                let (m_control, m_target, post) = noise.povm().apply(&a, &b, ia, ib, u1, u2);
                (m_control, m_target, PairState::from_dense(post, self.rep))
            }
        };
        // The true outcomes set the true frame; the announced ones pass
        // through the imperfect readout first.
        let true_frame = a_true.combine(b_true, swap_circuit_outcome(m_control, m_target));
        let r_control = apply_readout_error(m_control, &noise.readout, rng);
        let r_target = apply_readout_error(m_target, &noise.readout, rng);
        let outcome = swap_circuit_outcome(r_control, r_target);

        let announced = a_announced.combine(b_announced, outcome);
        let freed = [
            (a_ends[ia].node, a_ends[ia].qubit),
            (b_ends[ib].node, b_ends[ib].qubit),
        ];
        let ends = [a_ends[oa].clone(), b_ends[ob].clone()];
        let id = self.insert_slot(now, state, [announced, true_frame], ends);
        SwapResult {
            outcome,
            new_pair: id,
            freed,
        }
    }

    /// Replace a pair's state and reference frame wholesale (used by the
    /// distillation circuit, which rebuilds the kept pair's state from
    /// the joint register). Both frames become `announced`: a frame the
    /// inputs carried wrongly is now part of `state`, and the oracle
    /// sees it as lost fidelity.
    pub fn replace_pair_state(&mut self, id: PairId, state: PairState, announced: BellState) {
        let i = self.slot(id).expect("replace on dead pair");
        self.states[i] = state;
        self.meta[i].announced = announced;
        self.meta[i].true_frame = announced;
    }

    /// Iterate over all live pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = PairView<'_>> {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.live)
            .map(move |(i, m)| PairView {
                id: PairId::from_parts(i as u32, m.generation),
                announced: m.announced,
                true_frame: m.true_frame,
                created: m.created,
                state: &self.states[i],
                ends: &self.ends[i],
            })
    }
}

/// Apply elapsed-time T1/T2 decay to both ends of one pair. The single
/// decoherence kernel behind both the lazy per-access path
/// ([`PairStore::advance`]) and the batched sweep
/// ([`PairStore::advance_all`]) — one implementation, so the two paths
/// cannot drift apart.
fn advance_parts(state: &mut PairState, ends: &mut [PairEnd; 2], now: SimTime) {
    for (idx, end) in ends.iter_mut().enumerate() {
        if end.measured {
            end.last_noise = now;
            continue;
        }
        let dt = now.since(end.last_noise).as_secs_f64();
        end.last_noise = now;
        if dt <= 0.0 {
            continue;
        }
        let gamma = channels::damping_prob(dt, end.t1);
        if gamma > 0.0 {
            state.amplitude_damp(idx, gamma);
        }
        let p = channels::dephasing_prob(dt, end.t2);
        if p > 0.0 {
            state.dephase(idx, p);
        }
    }
}

/// `frame` after the Pauli `pauli` acts on one end of the pair.
fn pauli_frame(frame: BellState, pauli: Pauli) -> BellState {
    match pauli {
        Pauli::I => frame,
        Pauli::X => BellState::from_bits(!frame.x, frame.z),
        Pauli::Z => BellState::from_bits(frame.x, !frame.z),
        Pauli::Y => BellState::from_bits(!frame.x, !frame.z),
    }
}

/// Flip a measurement outcome according to the outcome-dependent readout
/// fidelities of Table 1.
fn apply_readout_error(true_outcome: bool, readout: &ReadoutSpec, rng: &mut SimRng) -> bool {
    let fid = if true_outcome {
        readout.fidelity1
    } else {
        readout.fidelity0
    };
    if rng.bernoulli(1.0 - fid) {
        !true_outcome
    } else {
        true_outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_sim::SimDuration;

    fn perfect_readout() -> ReadoutSpec {
        ReadoutSpec {
            fidelity0: 1.0,
            fidelity1: 1.0,
            duration: 0.0,
        }
    }

    fn mk_pair(store: &mut PairStore, t2: f64, bell: BellState, now: SimTime) -> PairId {
        store.create(
            now,
            bell.density(),
            bell,
            [
                (NodeId(0), QubitId(0), 3600.0, t2),
                (NodeId(1), QubitId(0), 3600.0, t2),
            ],
        )
    }

    #[test]
    fn fresh_pair_has_unit_fidelity() {
        let mut store = PairStore::new(StateRep::Bell);
        let id = mk_pair(&mut store, 60.0, BellState::PSI_PLUS, SimTime::ZERO);
        let f = store.fidelity_to(id, BellState::PSI_PLUS, SimTime::ZERO);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn churn_free_ids_are_dense_and_sequential() {
        // Without slot reuse the packed ids match the old sequential
        // counter: 0, 1, 2, … (generation half zero).
        let mut store = PairStore::new(StateRep::Bell);
        for i in 0..5u64 {
            let id = mk_pair(&mut store, 60.0, BellState::PHI_PLUS, SimTime::ZERO);
            assert_eq!(id.0, i);
            assert_eq!(id.generation(), 0);
        }
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn slot_reuse_bumps_generation_and_detects_stale_handles() {
        let mut store = PairStore::new(StateRep::Bell);
        let a = mk_pair(&mut store, 60.0, BellState::PHI_PLUS, SimTime::ZERO);
        store.discard(a).unwrap();
        let b = mk_pair(&mut store, 60.0, BellState::PSI_MINUS, SimTime::ZERO);
        // Same slot, new generation: the handle values differ.
        assert_eq!(b.index(), a.index());
        assert_eq!(b.generation(), a.generation() + 1);
        assert_ne!(a, b);
        // The stale handle does not alias the new occupant.
        assert!(store.get(a).is_none());
        assert!(!store.contains(a));
        assert!(store.discard(a).is_none());
        assert!(store.fully_measured(a));
        assert_eq!(store.get(b).unwrap().announced, BellState::PSI_MINUS);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn idle_pair_decoheres() {
        let mut store = PairStore::new(StateRep::Bell);
        let id = mk_pair(&mut store, 1.0, BellState::PHI_PLUS, SimTime::ZERO);
        let f1 = store.fidelity_to(
            id,
            BellState::PHI_PLUS,
            SimTime::ZERO + SimDuration::from_millis(100),
        );
        let f2 = store.fidelity_to(
            id,
            BellState::PHI_PLUS,
            SimTime::ZERO + SimDuration::from_secs(2),
        );
        assert!(f1 < 1.0);
        assert!(f2 < f1);
        // Fully dephased pair bottoms out at 0.5 (T1 is long).
        let f3 = store.fidelity_to(
            id,
            BellState::PHI_PLUS,
            SimTime::ZERO + SimDuration::from_secs(100),
        );
        assert!((f3 - 0.5).abs() < 0.02, "long-idle fidelity {f3}");
    }

    #[test]
    fn decoherence_matches_analytic_dephasing() {
        let mut store = PairStore::new(StateRep::Bell);
        let t2 = 2.0;
        // Infinite T1 isolates pure dephasing for the analytic comparison.
        let id = store.create(
            SimTime::ZERO,
            BellState::PHI_PLUS.density(),
            BellState::PHI_PLUS,
            [
                (NodeId(0), QubitId(0), f64::INFINITY, t2),
                (NodeId(1), QubitId(0), f64::INFINITY, t2),
            ],
        );
        let t = 0.5;
        let f = store.fidelity_to(
            id,
            BellState::PHI_PLUS,
            SimTime::ZERO + SimDuration::from_secs_f64(t),
        );
        let p = channels::dephasing_prob(t, t2);
        let lambda = qn_quantum::formulas::combine_flip_probs(p, p);
        let expected = qn_quantum::formulas::dephased_pair_fidelity(1.0, lambda);
        assert!(
            (f - expected).abs() < 1e-6,
            "sim {f} vs analytic {expected}"
        );
    }

    #[test]
    fn noiseless_swap_preserves_tracking() {
        let mut store = PairStore::new(StateRep::Bell);
        let now = SimTime::ZERO;
        let a = store.create(
            now,
            BellState::PSI_PLUS.density(),
            BellState::PSI_PLUS,
            [
                (NodeId(0), QubitId(0), 3600.0, 60.0),
                (NodeId(1), QubitId(0), 3600.0, 60.0),
            ],
        );
        let b = store.create(
            now,
            BellState::PSI_MINUS.density(),
            BellState::PSI_MINUS,
            [
                (NodeId(1), QubitId(1), 3600.0, 60.0),
                (NodeId(2), QubitId(0), 3600.0, 60.0),
            ],
        );
        let noise = SwapNoise::new(0.0, 0.0, perfect_readout(), StateRep::Bell);
        let mut rng = SimRng::from_seed(7);
        let res = store.swap(a, b, NodeId(1), now, &noise, &mut rng);
        let pair = store.get(res.new_pair).unwrap();
        assert_eq!(pair.ends()[0].node, NodeId(0));
        assert_eq!(pair.ends()[1].node, NodeId(2));
        assert_eq!(res.freed[0], (NodeId(1), QubitId(0)));
        assert_eq!(res.freed[1], (NodeId(1), QubitId(1)));
        let expected = BellState::PSI_PLUS.combine(BellState::PSI_MINUS, res.outcome);
        assert_eq!(pair.announced, expected);
        let f = store.fidelity_to(res.new_pair, expected, now);
        assert!((f - 1.0).abs() < 1e-9, "noiseless swap fidelity {f}");
        assert!(!store.contains(a));
        assert!(!store.contains(b));
    }

    #[test]
    fn noisy_swap_reduces_fidelity_as_formula_predicts() {
        let mut rng = SimRng::from_seed(11);
        let noise = SwapNoise::new(
            channels::depolarizing_param_for_fidelity(0.998, 4),
            0.0,
            perfect_readout(),
            StateRep::Bell,
        );
        let mut total = 0.0;
        let n = 20;
        for _ in 0..n {
            let mut store = PairStore::new(StateRep::Bell);
            let now = SimTime::ZERO;
            let a = mk_pair(&mut store, 60.0, BellState::PHI_PLUS, now);
            let b = store.create(
                now,
                BellState::PHI_PLUS.density(),
                BellState::PHI_PLUS,
                [
                    (NodeId(1), QubitId(1), 3600.0, 60.0),
                    (NodeId(2), QubitId(0), 3600.0, 60.0),
                ],
            );
            let res = store.swap(a, b, NodeId(1), now, &noise, &mut rng);
            let announced = store.get(res.new_pair).unwrap().announced;
            total += store.fidelity_to(res.new_pair, announced, now);
        }
        let mean = total / n as f64;
        // Perfect inputs through a 0.998-fidelity gate: expect ≈ 0.998
        // minus small residuals; allow generous tolerance for sampling.
        assert!(mean > 0.99 && mean < 1.0, "mean post-swap fidelity {mean}");
    }

    #[test]
    fn readout_error_corrupts_announcement_not_projection() {
        // With fidelity-0 readout the announced bits are always flipped:
        // the announced Bell state is wrong in a *predictable* way.
        let mut store = PairStore::new(StateRep::Bell);
        let now = SimTime::ZERO;
        let a = mk_pair(&mut store, 60.0, BellState::PHI_PLUS, now);
        let b = store.create(
            now,
            BellState::PHI_PLUS.density(),
            BellState::PHI_PLUS,
            [
                (NodeId(1), QubitId(1), 3600.0, 60.0),
                (NodeId(2), QubitId(0), 3600.0, 60.0),
            ],
        );
        let readout = ReadoutSpec {
            fidelity0: 0.0,
            fidelity1: 0.0,
            duration: 0.0,
        };
        let noise = SwapNoise::new(0.0, 0.0, readout, StateRep::Bell);
        let mut rng = SimRng::from_seed(3);
        let res = store.swap(a, b, NodeId(1), now, &noise, &mut rng);
        // Announced state uses double-flipped bits: fidelity of the DM to
        // the announced state is 0 (orthogonal Bell state).
        let pair = store.get(res.new_pair).unwrap();
        let (announced, true_frame) = (pair.announced, pair.true_frame);
        let f = store.fidelity_to(res.new_pair, announced, now);
        assert!(f < 1e-9, "fully wrong readout must mistrack: {f}");
        // The true frame undoes both flips, and the projection follows it.
        assert_eq!(true_frame, BellState::from_bits(!announced.x, !announced.z));
        let f = store.fidelity_to(res.new_pair, true_frame, now);
        assert!((f - 1.0).abs() < 1e-9, "the true frame must track: {f}");
        // A Pauli correction moves both frames alike.
        store.apply_pauli(res.new_pair, NodeId(2), Pauli::X, now);
        let pair = store.get(res.new_pair).unwrap();
        assert_eq!(pair.announced, pauli_frame(announced, Pauli::X));
        assert_eq!(pair.true_frame, pauli_frame(true_frame, Pauli::X));
        assert_ne!(pair.announced, pair.true_frame);
    }

    #[test]
    fn measurement_of_bell_pair_correlates() {
        let mut rng = SimRng::from_seed(5);
        let readout = perfect_readout();
        let mut agree = 0;
        let n = 50;
        for _ in 0..n {
            let mut store = PairStore::new(StateRep::Bell);
            let id = mk_pair(&mut store, 60.0, BellState::PHI_PLUS, SimTime::ZERO);
            let m0 = store.measure_end(id, NodeId(0), Pauli::Z, &readout, SimTime::ZERO, &mut rng);
            let m1 = store.measure_end(id, NodeId(1), Pauli::Z, &readout, SimTime::ZERO, &mut rng);
            assert!(store.fully_measured(id));
            if m0.true_outcome == m1.true_outcome {
                agree += 1;
            }
        }
        assert_eq!(agree, n, "Φ+ must give perfectly correlated Z outcomes");
    }

    #[test]
    fn psi_pairs_anticorrelate_in_z() {
        let mut rng = SimRng::from_seed(9);
        let readout = perfect_readout();
        for _ in 0..20 {
            let mut store = PairStore::new(StateRep::Bell);
            let id = mk_pair(&mut store, 60.0, BellState::PSI_PLUS, SimTime::ZERO);
            let m0 = store.measure_end(id, NodeId(0), Pauli::Z, &readout, SimTime::ZERO, &mut rng);
            let m1 = store.measure_end(id, NodeId(1), Pauli::Z, &readout, SimTime::ZERO, &mut rng);
            assert_ne!(m0.true_outcome, m1.true_outcome);
        }
    }

    #[test]
    fn pauli_correction_changes_frame() {
        let mut store = PairStore::new(StateRep::Bell);
        let id = mk_pair(&mut store, 60.0, BellState::PSI_PLUS, SimTime::ZERO);
        store.apply_pauli(id, NodeId(1), Pauli::X, SimTime::ZERO);
        let pair = store.get(id).unwrap();
        assert_eq!(pair.announced, BellState::PHI_PLUS);
        let f = store.fidelity_to(id, BellState::PHI_PLUS, SimTime::ZERO);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extra_dephasing_reduces_fidelity() {
        let mut store = PairStore::new(StateRep::Bell);
        let id = mk_pair(&mut store, 60.0, BellState::PHI_PLUS, SimTime::ZERO);
        store.apply_dephasing(id, NodeId(0), 0.1);
        let f = store.fidelity_to(id, BellState::PHI_PLUS, SimTime::ZERO);
        assert!((f - 0.9).abs() < 1e-9, "lambda=0.1 should cost 0.1: {f}");
    }

    #[test]
    fn retarget_moves_end_and_charges_noise() {
        let mut store = PairStore::new(StateRep::Bell);
        let id = mk_pair(&mut store, 1.46, BellState::PHI_PLUS, SimTime::ZERO);
        let old = store.retarget_end(id, NodeId(0), QubitId(5), 360.0, 60.0, 0.02, SimTime::ZERO);
        assert_eq!(old, QubitId(0));
        let pair = store.get(id).unwrap();
        let end = &pair.ends()[pair.end_at(NodeId(0)).unwrap()];
        assert_eq!(end.qubit, QubitId(5));
        assert_eq!(end.t2, 60.0);
        let f = store.fidelity_to(id, BellState::PHI_PLUS, SimTime::ZERO);
        assert!(f < 1.0 && f > 0.97, "move noise charged once: {f}");
    }

    #[test]
    fn discard_frees_qubits() {
        let mut store = PairStore::new(StateRep::Bell);
        let id = mk_pair(&mut store, 60.0, BellState::PHI_PLUS, SimTime::ZERO);
        let freed = store.discard(id).unwrap();
        assert_eq!(freed[0], (NodeId(0), QubitId(0)));
        assert!(!store.contains(id));
        assert!(store.discard(id).is_none());
    }
}
