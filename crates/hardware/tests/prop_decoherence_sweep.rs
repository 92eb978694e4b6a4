//! Pin the batched decoherence sweep (`PairStore::advance_all`) to the
//! lazy per-pair path (`PairStore::advance`):
//!
//! * same-time sweep vs per-pair advancement is **exact** under the
//!   Bell-diagonal representation (and pinned at 1e-12 under `dm` —
//!   in practice also exact, since both paths run the identical
//!   per-pair kernel);
//! * a sweep at an intermediate checkpoint followed by per-pair
//!   advancement composes with the direct path to within 1e-12 (the
//!   T1/T2 channels are divisible: `exp(-dt1/T) · exp(-dt2/T) =
//!   exp(-(dt1+dt2)/T)` up to rounding).

use proptest::collection::vec;
use proptest::prelude::*;
use qn_hardware::device::QubitId;
use qn_hardware::pairs::{PairId, PairStore};
use qn_quantum::bell::BellState;
use qn_quantum::pairstate::StateRep;
use qn_sim::{NodeId, SimTime};

#[derive(Clone, Debug)]
struct PairSpec {
    t1: f64,
    t2: f64,
    bell: usize,
    created_ps: u64,
}

fn arb_pair() -> BoxedStrategy<PairSpec> {
    (
        0.5f64..3600.0,
        0.05f64..60.0,
        0usize..4,
        0u64..1_000_000_000,
    )
        .prop_map(|(t1, t2, bell, created_ps)| PairSpec {
            t1,
            t2,
            bell,
            created_ps,
        })
        .boxed()
}

fn build(rep: StateRep, specs: &[PairSpec]) -> (PairStore, Vec<PairId>) {
    let mut store = PairStore::new(rep);
    let ids = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let bell = BellState::from_index(s.bell);
            store.create(
                SimTime::from_ps(s.created_ps),
                bell.density(),
                bell,
                [
                    (NodeId(0), QubitId(i as u32), s.t1, s.t2),
                    (NodeId(1), QubitId(i as u32), s.t1, s.t2),
                ],
            )
        })
        .collect();
    (store, ids)
}

fn fidelities(store: &mut PairStore, ids: &[PairId], now: SimTime) -> Vec<f64> {
    let mut out = Vec::new();
    for &id in ids {
        for b in 0..4 {
            out.push(store.fidelity_to(id, BellState::from_index(b), now));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One sweep to `now` == per-pair advancement to `now`: exact under
    /// `bell`, ≤ 1e-12 under `dm`.
    #[test]
    fn sweep_matches_per_pair_advancement(
        specs in vec(arb_pair(), 1..12),
        dt_ps in 1u64..5_000_000_000,
    ) {
        let now = SimTime::from_ps(1_000_000_000 + dt_ps);
        for rep in [StateRep::Bell, StateRep::Dm] {
            let (mut lazy, ids) = build(rep, &specs);
            let (mut swept, ids_b) = build(rep, &specs);
            prop_assert_eq!(&ids, &ids_b);
            for &id in &ids {
                lazy.advance(id, now);
            }
            swept.advance_all(now);
            let fa = fidelities(&mut lazy, &ids, now);
            let fb = fidelities(&mut swept, &ids, now);
            for (i, (a, b)) in fa.iter().zip(&fb).enumerate() {
                match rep {
                    StateRep::Bell => prop_assert_eq!(a, b, "bell rep must be exact (entry {})", i),
                    StateRep::Dm => prop_assert!((a - b).abs() <= 1e-12,
                        "dm entry {} diverged: {} vs {}", i, a, b),
                }
            }
        }
    }

    /// A sweep at an intermediate checkpoint composes with later
    /// advancement: the T1/T2 channels are divisible in time.
    #[test]
    fn sweep_checkpoint_composes_with_later_advancement(
        specs in vec(arb_pair(), 1..12),
        dt1_ps in 1u64..2_000_000_000,
        dt2_ps in 1u64..2_000_000_000,
    ) {
        let mid = SimTime::from_ps(1_000_000_000 + dt1_ps);
        let end = mid + qn_sim::SimDuration::from_ps(dt2_ps);
        for rep in [StateRep::Bell, StateRep::Dm] {
            let (mut direct, ids) = build(rep, &specs);
            let (mut stepped, _) = build(rep, &specs);
            stepped.advance_all(mid);
            stepped.advance_all(end);
            for &id in &ids {
                direct.advance(id, end);
            }
            let fa = fidelities(&mut direct, &ids, end);
            let fb = fidelities(&mut stepped, &ids, end);
            for (i, (a, b)) in fa.iter().zip(&fb).enumerate() {
                prop_assert!((a - b).abs() <= 1e-12,
                    "{:?} entry {} diverged: {} vs {}", rep, i, a, b);
            }
        }
    }
}
