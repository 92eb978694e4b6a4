//! Property tests for the single-click heralding model and the pair
//! store's physical invariants, plus a `qn_testkit` model test of the
//! store's bookkeeping under chain extension / swap / discard.

use proptest::prelude::*;
use qn_hardware::device::QubitId;
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::pairs::{PairId, PairStore, SwapNoise};
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_quantum::bell::BellState;
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};
use qn_testkit::{ModelSpec, ModelTest};
use std::collections::VecDeque;

fn lab() -> LinkPhysics {
    LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m())
}

/// The fidelity peak as `max_fidelity` documents it: the best of 400
/// log-spaced `α` from 1e-4 to 0.5, the first on ties.
fn scanned_peak(physics: &LinkPhysics) -> (f64, f64) {
    let mut best = (0.0, 0.25);
    for i in 1..=400 {
        let alpha = 1e-4 * (0.5f64 / 1e-4).powf(i as f64 / 400.0);
        let f = physics.fidelity(alpha);
        if f > best.0 {
            best = (f, alpha);
        }
    }
    best
}

fn pair_bits((a, b): (f64, f64)) -> (u64, u64) {
    (a.to_bits(), b.to_bits())
}

/// Chain bookkeeping model for the pair store: a repeater chain is
/// extended pair by pair, swapped at its left end, and discarded —
/// exactly the lifecycle the QNP runtime drives. The model tracks pair
/// liveness, endpoint nodes and the announced-state XOR algebra; the
/// system is the real `PairStore` with its noisy swap circuit.
mod chain_model {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ChainOp {
        /// Create a pair extending the chain one node to the right,
        /// announced as Ψ⁻ (`minus`) or Ψ⁺.
        Extend { minus: bool },
        /// Entanglement-swap the two leftmost pairs at their shared node.
        SwapFront,
        /// Discard the leftmost pair.
        DiscardFront,
    }

    #[derive(Clone, Copy, Debug)]
    pub struct Segment {
        pub left: u32,
        pub right: u32,
        pub announced: BellState,
    }

    pub struct ChainSystem {
        pub store: PairStore,
        pub pairs: VecDeque<PairId>,
        pub noise: SwapNoise,
        pub rng: SimRng,
        pub next_node: u32,
    }

    pub struct ChainSpec;

    impl ModelSpec for ChainSpec {
        type Op = ChainOp;
        type Model = VecDeque<Segment>;
        type System = ChainSystem;

        fn new_model(&self) -> VecDeque<Segment> {
            VecDeque::new()
        }

        fn new_system(&self) -> ChainSystem {
            ChainSystem {
                store: PairStore::new(StateRep::Bell),
                pairs: VecDeque::new(),
                noise: SwapNoise::from_params(&HardwareParams::simulation(), StateRep::Bell),
                rng: SimRng::from_seed(7),
                next_node: 0,
            }
        }

        fn op_strategy(&self) -> BoxedStrategy<ChainOp> {
            prop_oneof![
                any::<bool>().prop_map(|minus| ChainOp::Extend { minus }),
                Just(ChainOp::SwapFront),
                Just(ChainOp::DiscardFront),
            ]
            .boxed()
        }

        fn precondition(&self, model: &VecDeque<Segment>, op: &ChainOp) -> bool {
            match op {
                ChainOp::Extend { .. } => model.len() < 6,
                ChainOp::SwapFront => model.len() >= 2,
                ChainOp::DiscardFront => !model.is_empty(),
            }
        }

        fn apply(
            &self,
            model: &mut VecDeque<Segment>,
            system: &mut ChainSystem,
            op: &ChainOp,
        ) -> Result<(), String> {
            match *op {
                ChainOp::Extend { minus } => {
                    let announced = if minus {
                        BellState::PSI_MINUS
                    } else {
                        BellState::PSI_PLUS
                    };
                    let (l, r) = (system.next_node, system.next_node + 1);
                    system.next_node += 1;
                    let id = system.store.create(
                        SimTime::ZERO,
                        announced.density(),
                        announced,
                        [
                            (NodeId(l), QubitId(0), 3600.0, 60.0),
                            (NodeId(r), QubitId(1), 3600.0, 60.0),
                        ],
                    );
                    system.pairs.push_back(id);
                    model.push_back(Segment {
                        left: l,
                        right: r,
                        announced,
                    });
                    Ok(())
                }
                ChainOp::SwapFront => {
                    let (sa, sb) = (model[0], model[1]);
                    if sa.right != sb.left {
                        return Err(format!("model chain discontiguous: {sa:?} then {sb:?}"));
                    }
                    let (pa, pb) = (system.pairs[0], system.pairs[1]);
                    let res = system.store.swap(
                        pa,
                        pb,
                        NodeId(sa.right),
                        SimTime::ZERO,
                        &system.noise,
                        &mut system.rng,
                    );
                    if system.store.contains(pa) || system.store.contains(pb) {
                        return Err("swap must consume both input pairs".to_string());
                    }
                    let joined = system
                        .store
                        .get(res.new_pair)
                        .ok_or("joined pair missing from the store")?;
                    let ends = joined.ends();
                    if ends[0].node != NodeId(sa.left) || ends[1].node != NodeId(sb.right) {
                        return Err(format!(
                            "joined pair spans ({}, {}), model expected ({}, {})",
                            ends[0].node, ends[1].node, sa.left, sb.right
                        ));
                    }
                    if res.freed.iter().any(|(n, _)| *n != NodeId(sa.right)) {
                        return Err(format!(
                            "freed qubits {:?} not all at the swap node n{}",
                            res.freed, sa.right
                        ));
                    }
                    // The announced state must follow the XOR algebra.
                    let expected = sa.announced.combine(sb.announced, res.outcome);
                    if joined.announced != expected {
                        return Err(format!(
                            "announced {} after swap, model expected {expected}",
                            joined.announced
                        ));
                    }
                    system.pairs.pop_front();
                    system.pairs.pop_front();
                    system.pairs.push_front(res.new_pair);
                    model.pop_front();
                    model.pop_front();
                    model.push_front(Segment {
                        left: sa.left,
                        right: sb.right,
                        announced: expected,
                    });
                    Ok(())
                }
                ChainOp::DiscardFront => {
                    let seg = model.pop_front().expect("precondition");
                    let id = system.pairs.pop_front().expect("precondition");
                    let freed = system
                        .store
                        .discard(id)
                        .ok_or("discard of a live pair returned None")?;
                    let nodes: Vec<u32> = freed.iter().map(|(n, _)| n.0).collect();
                    if nodes != vec![seg.left, seg.right] {
                        return Err(format!(
                            "discard freed {nodes:?}, model expected [{}, {}]",
                            seg.left, seg.right
                        ));
                    }
                    if system.store.contains(id) {
                        return Err("discarded pair still in the store".to_string());
                    }
                    Ok(())
                }
            }
        }

        fn invariants(
            &self,
            model: &VecDeque<Segment>,
            system: &ChainSystem,
        ) -> Result<(), String> {
            if system.store.len() != model.len() {
                return Err(format!(
                    "live pairs: store {} vs model {}",
                    system.store.len(),
                    model.len()
                ));
            }
            Ok(())
        }
    }
}

/// Random extend/swap/discard sequences: the pair store's bookkeeping
/// (liveness, endpoints, freed qubits, announced-state algebra) must
/// match the chain model.
#[test]
fn pair_store_matches_chain_model() {
    ModelTest::new("hardware_pair_store_matches_model", chain_model::ChainSpec)
        .cases(128)
        .max_ops(40)
        .run();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rate–fidelity trade-off is a genuine trade-off: on the
    /// operating branch, raising alpha raises the success probability
    /// and lowers the fidelity, monotonically.
    #[test]
    fn alpha_tradeoff_is_monotone(a in 0.01f64..0.45, delta in 0.01f64..0.05) {
        let physics = lab();
        let (_, alpha_peak) = physics.max_fidelity();
        prop_assume!(a >= alpha_peak);
        let b = (a + delta).min(0.5);
        prop_assert!(physics.success_prob(b) > physics.success_prob(a));
        prop_assert!(physics.fidelity(b) <= physics.fidelity(a) + 1e-12);
    }

    /// `alpha_for_fidelity` is a right inverse of `fidelity` wherever it
    /// succeeds, and it always returns the *fastest* compliant alpha
    /// (any higher alpha violates the target).
    #[test]
    fn alpha_for_fidelity_is_tight(target in 0.75f64..0.97) {
        let physics = lab();
        if let Some(alpha) = physics.alpha_for_fidelity(target) {
            prop_assert!(physics.fidelity(alpha) >= target - 1e-6);
            if alpha < 0.5 {
                let above = (alpha * 1.05).min(0.5);
                prop_assert!(
                    physics.fidelity(above) < target + 1e-6,
                    "a faster alpha also satisfies the target — not tight"
                );
            }
        }
    }

    /// The constants a `LinkPhysics` derives once (η, the dark-count
    /// probability, the coherence factor and the attempt cycle time)
    /// equal their formulas over the parameters, its remembered peak
    /// equals a fresh scan, and a clone answers the same whether it was
    /// taken before or after the peak was first computed — all bit for
    /// bit.
    #[test]
    fn derived_constants_match_their_formulas(
        visibility in 0.5f64..1.0,
        delta_phi in 0.0f64..0.5,
        dark_count_rate in 0.0f64..2000.0,
        p_double_excitation in 0.0f64..0.1,
        length_m in 1.0f64..50_000.0,
        target in 0.5f64..1.0,
    ) {
        let params = HardwareParams {
            visibility,
            delta_phi,
            dark_count_rate,
            p_double_excitation,
            ..HardwareParams::near_term()
        };
        let fibre = FibreParams::telecom(length_m);
        let physics = LinkPhysics::new(params, fibre);
        let eta = params.p_zero_phonon
            * params.collection_efficiency
            * fibre.transmissivity(length_m / 2.0)
            * params.p_detection;
        prop_assert_eq!(physics.eta().to_bits(), eta.to_bits());
        prop_assert_eq!(
            physics.p_dark().to_bits(),
            (dark_count_rate * params.tau_w).to_bits()
        );
        prop_assert_eq!(
            physics.coherence().to_bits(),
            (visibility * delta_phi.cos()).to_bits()
        );
        let cycle = params.gates.electron_init.duration
            + params.tau_e
            + fibre.length_m / fibre.speed_m_per_s;
        prop_assert_eq!(
            physics.cycle_time(),
            SimDuration::from_secs_f64(cycle.max(params.mhp_cycle_floor))
        );

        let cold = physics.clone();
        let peak = pair_bits(physics.max_fidelity());
        let warm = physics.clone();
        prop_assert_eq!(peak, pair_bits(scanned_peak(&physics)));
        prop_assert_eq!(peak, pair_bits(physics.max_fidelity()));
        prop_assert_eq!(peak, pair_bits(warm.max_fidelity()));
        prop_assert_eq!(peak, pair_bits(cold.max_fidelity()));
        let alpha = |p: &LinkPhysics| p.alpha_for_fidelity(target).map(f64::to_bits);
        let fresh = LinkPhysics::new(params, fibre);
        prop_assert_eq!(alpha(&physics), alpha(&fresh));
        prop_assert_eq!(alpha(&warm), alpha(&fresh));
        prop_assert_eq!(alpha(&cold), alpha(&fresh));
        prop_assert_eq!(cold.cycle_time(), physics.cycle_time());
    }

    /// Heralded states are valid density matrices for any alpha, and
    /// their fidelity matches the analytic expression.
    #[test]
    fn heralded_states_are_valid(alpha in 0.005f64..0.5, minus in any::<bool>()) {
        let physics = lab();
        let announced = if minus { BellState::PSI_MINUS } else { BellState::PSI_PLUS };
        let rho = physics.heralded_state(alpha, announced);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        prop_assert!(rho.purity() <= 1.0 + 1e-9);
        let f = rho.fidelity_pure(&announced.amplitudes());
        prop_assert!((f - physics.fidelity(alpha)).abs() < 1e-9);
    }

    /// Pair-store physical invariants under random idle/swap sequences:
    /// trace stays 1, fidelity stays in [0,1] and never *increases* from
    /// idling.
    #[test]
    fn decoherence_never_raises_fidelity(
        t2 in 0.1f64..10.0,
        waits_ms in proptest::collection::vec(1u64..2000, 1..8),
    ) {
        let mut store = PairStore::new(StateRep::Bell);
        let id = store.create(
            SimTime::ZERO,
            BellState::PHI_PLUS.density(),
            BellState::PHI_PLUS,
            [
                (NodeId(0), QubitId(0), 3600.0, t2),
                (NodeId(1), QubitId(0), 3600.0, t2),
            ],
        );
        let mut now = SimTime::ZERO;
        let mut last_f = 1.0;
        for w in waits_ms {
            now += SimDuration::from_millis(w);
            let f = store.fidelity_to(id, BellState::PHI_PLUS, now);
            prop_assert!(f <= last_f + 1e-9, "idling increased fidelity: {f} > {last_f}");
            prop_assert!((0.0..=1.0).contains(&f));
            let pair = store.get(id).unwrap();
            prop_assert!((pair.state().trace() - 1.0).abs() < 1e-6);
            last_f = f;
        }
    }

    /// Random chains of noisy swaps keep valid states and the announced
    /// Bell state tracks the physical state's dominant component while
    /// fidelity stays above the mistracking floor.
    #[test]
    fn random_swap_chains_stay_physical(seed in 0u64..500, n_links in 2usize..5) {
        let params = HardwareParams::simulation();
        let noise = SwapNoise::from_params(&params, StateRep::Bell);
        let mut rng = SimRng::from_seed(seed);
        let mut store = PairStore::new(StateRep::Bell);
        let mut pairs = Vec::new();
        for i in 0..n_links {
            let announced = if rng.bernoulli(0.5) { BellState::PSI_PLUS } else { BellState::PSI_MINUS };
            let mut state = BellState::PHI_PLUS.density();
            let corr = BellState::PHI_PLUS.correction_to(announced);
            if corr != qn_quantum::Pauli::I {
                state.apply_unitary(&corr.matrix(), &[1]);
            }
            pairs.push(store.create(
                SimTime::ZERO,
                state,
                announced,
                [
                    (NodeId(i as u32), QubitId(1), 3600.0, 60.0),
                    (NodeId(i as u32 + 1), QubitId(0), 3600.0, 60.0),
                ],
            ));
        }
        // Swap left to right.
        let mut current = pairs[0];
        for (i, next) in pairs.iter().enumerate().skip(1) {
            let res = store.swap(current, *next, NodeId(i as u32), SimTime::ZERO, &noise, &mut rng);
            current = res.new_pair;
        }
        let pair = store.get(current).unwrap();
        prop_assert!((pair.state().trace() - 1.0).abs() < 1e-6);
        let announced = pair.announced;
        let f = store.fidelity_to(current, announced, SimTime::ZERO);
        // With 0.998 gates and 0.998 readout over ≤3 swaps, the announced
        // state should almost always be the dominant component.
        prop_assert!((0.0..=1.0).contains(&f));
    }
}
