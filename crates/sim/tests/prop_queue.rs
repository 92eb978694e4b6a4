//! Event-queue tests: model-based behaviour checking plus shrinkable
//! invariant properties.
//!
//! The primary test is the `qn_testkit` model test — random
//! push/cancel/pop/pop-until/peek sequences run against both the radix
//! `EventQueue` and a flat-list reference model, comparing every
//! observable (this subsumes the old ad-hoc invariant properties: the
//! model predicts *exact* pop values, not just orderings). Pushes are
//! drawn as offsets from the queue's clock, which a push may not
//! precede. The plain properties below are kept for the orderings they
//! document; they push everything before the first pop.

use proptest::prelude::*;
use qn_sim::{EventQueue, SimTime};
use qn_testkit::models::queue::QueueSpec;
use qn_testkit::ModelTest;

/// Random operation sequences: the queue must agree with the reference
/// model on every pop, peek, cancel result and length. Divergences
/// shrink to a minimal operation sequence.
#[test]
fn queue_matches_reference_model() {
    ModelTest::new("sim_queue_matches_model", QueueSpec)
        .cases(192)
        .max_ops(64)
        .run();
}

proptest! {
    /// Popped events are globally ordered by (time, insertion seq).
    #[test]
    fn pop_order_is_time_then_fifo(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal times");
                }
            }
            prop_assert_eq!(SimTime::from_ps(times[idx]), t);
            last = Some((t, idx));
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exact_subset(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (i, q.push(SimTime::from_ps(*t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            let cancel = cancel_mask.get(*i).copied().unwrap_or(false);
            if cancel {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(*i);
            }
        }
        prop_assert_eq!(q.len(), expected.len());
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, idx)) = q.pop() {
            popped.push(idx);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }
}
