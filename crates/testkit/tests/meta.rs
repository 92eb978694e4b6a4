//! Meta-tests of the model-based harness itself: deliberately-injected
//! protocol bugs must be *caught*, and the reported counterexample must
//! be a *minimal, reproducible* operation sequence (the PR's acceptance
//! demonstration for the shrinking engine + model harness).

use qn_testkit::models::demux::DemuxSpec;
use qn_testkit::models::link::{LinkFault, LinkOp, LinkSpec};
use qn_testkit::models::queue::QueueSpec;
use qn_testkit::models::routing::RoutingSpec;
use qn_testkit::models::slab::SlabSpec;
use qn_testkit::{run_ops, ModelFailure, ModelSpec, ModelTest};

/// Every op-drop from a reported minimal sequence must make the model
/// and system agree again — the definition of local minimality.
fn assert_locally_minimal<S: ModelSpec>(spec: &S, failure: &ModelFailure<S::Op>) {
    assert!(
        run_ops(spec, &failure.minimal).is_err(),
        "the minimal sequence must still diverge"
    );
    for drop in 0..failure.minimal.len() {
        let mut shorter = failure.minimal.clone();
        shorter.remove(drop);
        assert!(
            run_ops(spec, &shorter).is_ok(),
            "dropping op {drop} from the minimal sequence must remove the divergence; \
             sequence: {:?}",
            failure.minimal
        );
    }
}

#[test]
fn faithful_link_protocol_matches_its_model() {
    ModelTest::new("meta_faithful_link", LinkSpec::new())
        .cases(64)
        .run();
}

/// The acceptance scenario: a protocol that silently ignores COMPLETE
/// (stop) is caught, and the counterexample shrinks to exactly the two
/// operations that matter — submit a request, stop it.
#[test]
fn swallowed_stop_is_caught_with_minimal_counterexample() {
    let spec = LinkSpec::with_fault(LinkFault::SwallowStop);
    let test = ModelTest::new("meta_swallowed_stop", spec);
    let failure = test.check().expect_err("the injected bug must be caught");
    assert_eq!(
        failure.minimal.len(),
        2,
        "minimal sequence must be Submit + Stop, got: {:?}",
        failure.minimal
    );
    match (&failure.minimal[0], &failure.minimal[1]) {
        (LinkOp::Submit { label: a, .. }, LinkOp::Stop { label: b }) => {
            assert_eq!(a, b, "the stop must target the submitted request");
        }
        other => panic!("unexpected minimal sequence shape: {other:?}"),
    }
    assert!(failure.shrinks > 0, "the original sequence should shrink");
    assert_locally_minimal(&LinkSpec::with_fault(LinkFault::SwallowStop), &failure);
}

/// An uncharged abort skews the fair-share schedule; the counterexample
/// needs two competing requests, one abort, and one drive to observe
/// the wrong label being scheduled.
#[test]
fn skipped_abort_charge_is_caught() {
    let spec = LinkSpec::with_fault(LinkFault::SkipAbortCharge);
    let failure = ModelTest::new("meta_skipped_charge", spec)
        .check()
        .expect_err("the injected bug must be caught");
    assert!(
        failure.minimal.len() <= 4,
        "Submit + Submit + Abort + Drive suffices, got: {:?}",
        failure.minimal
    );
    assert!(
        failure
            .minimal
            .iter()
            .any(|op| matches!(op, LinkOp::Abort { .. })),
        "the abort is essential: {:?}",
        failure.minimal
    );
    assert_locally_minimal(&LinkSpec::with_fault(LinkFault::SkipAbortCharge), &failure);
}

/// The harness is deterministic end to end: same spec + same test name
/// ⇒ the same generated sequences, the same divergence, and the same
/// minimised counterexample, run after run.
#[test]
fn failures_are_reproducible_across_runs() {
    let run = || {
        ModelTest::new(
            "meta_reproducible",
            LinkSpec::with_fault(LinkFault::SwallowStop),
        )
        .check()
        .expect_err("the injected bug must be caught")
    };
    let first = run();
    let second = run();
    assert_eq!(
        format!("{:?}", first.minimal),
        format!("{:?}", second.minimal),
        "minimal counterexamples must be identical across runs"
    );
    assert_eq!(first.message, second.message);
    assert_eq!(first.step, second.step);
    assert_eq!(
        format!("{:?}", first.original),
        format!("{:?}", second.original)
    );
}

/// A system under test that *panics* (rather than merely diverging) is
/// still caught, shrunk, and reported with a minimal sequence — the
/// crash-bug class must not escape the harness.
#[test]
fn panicking_systems_shrink_to_minimal_sequences() {
    use proptest::prelude::*;

    /// Ops increment a counter; the "system" crashes at 3.
    struct CrashSpec;

    impl ModelSpec for CrashSpec {
        type Op = u8;
        type Model = u32;
        type System = u32;

        fn new_model(&self) -> u32 {
            0
        }

        fn new_system(&self) -> u32 {
            0
        }

        fn op_strategy(&self) -> BoxedStrategy<u8> {
            (0u8..4).boxed()
        }

        fn apply(&self, model: &mut u32, system: &mut u32, _op: &u8) -> Result<(), String> {
            *model += 1;
            *system += 1;
            assert!(*system < 3, "system crashed at the third operation");
            Ok(())
        }
    }

    let failure = ModelTest::new("meta_panicking_system", CrashSpec)
        .check()
        .expect_err("the crash must surface as a divergence, not an unwind");
    assert_eq!(
        failure.minimal.len(),
        3,
        "three ops are needed to reach the crash: {:?}",
        failure.minimal
    );
    assert_eq!(failure.step, 2, "the third op is the one that crashes");
    assert!(
        failure.message.contains("panic: system crashed"),
        "message: {}",
        failure.message
    );
    assert_eq!(failure.minimal, vec![0, 0, 0], "ops shrink to minimum too");
}

/// The reference models themselves hold against the real
/// implementations (the faithful direction of every meta-test above).
#[test]
fn all_reference_models_agree_with_their_systems() {
    ModelTest::new("meta_queue_model", QueueSpec)
        .cases(64)
        .run();
    ModelTest::new("meta_demux_model", DemuxSpec)
        .cases(64)
        .run();
    ModelTest::new("meta_routing_model", RoutingSpec)
        .cases(64)
        .run();
    ModelTest::new("meta_slab_model", SlabSpec).cases(64).run();
}
