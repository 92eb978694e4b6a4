//! End-to-end model test of the netsim runtime (the ROADMAP's open
//! item): random user-request / time-advance sequences against the real
//! full-stack simulation, plus injected-**runtime**-bug meta-tests
//! proving a faulty runtime is caught with a minimal, reproducible
//! operation sequence.

use qn_testkit::models::netsim::{NetOp, NetsimFault, NetsimSpec};
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

/// The faithful runtime satisfies the service contract on every random
/// operation sequence (submissions, cancellations, advances, settles).
#[test]
fn netsim_runtime_matches_model() {
    ModelTest::new("netsim_runtime_matches_model", NetsimSpec::new(7))
        .cases(24)
        .max_ops(10)
        .run();
}

/// The chaos leg: the same random operation sequences against a wired
/// runtime whose links churn through a seed-derived component-fault
/// schedule. Safety (at most n per end, dense sequences, exactly-once
/// completion) and zero-leak-after-settle must hold for every schedule;
/// liveness is waived while hops are dark.
#[test]
fn netsim_chaos_matches_model() {
    ModelTest::new("netsim_chaos_matches_model", NetsimSpec::chaos(17))
        .cases(16)
        .max_ops(8)
        .run();
}

/// Injected runtime fault #1: a classical plane that drops every
/// message. No request can ever complete; the divergence must shrink to
/// the minimal reproduction — submit one request, settle.
#[test]
fn dead_classical_plane_shrinks_to_submit_settle() {
    let spec = NetsimSpec::with_fault(5, NetsimFault::DropAllMessages);
    let failure = ModelTest::new(
        "netsim_dead_plane",
        NetsimSpec::with_fault(5, NetsimFault::DropAllMessages),
    )
    .cases(48)
    .max_ops(8)
    .check()
    .expect_err("a dead classical plane must be caught");
    assert_eq!(
        failure.minimal.len(),
        2,
        "minimal sequence must be Submit + Settle, got: {:?}",
        failure.minimal
    );
    assert!(
        matches!(failure.minimal[0], NetOp::Submit { .. }),
        "first op must submit: {:?}",
        failure.minimal
    );
    assert!(
        matches!(failure.minimal[1], NetOp::Settle),
        "second op must settle: {:?}",
        failure.minimal
    );
    assert_locally_minimal(&spec, &failure);
    // Reproducible: running the harness again yields the same minimum.
    let again = ModelTest::new(
        "netsim_dead_plane",
        NetsimSpec::with_fault(5, NetsimFault::DropAllMessages),
    )
    .cases(48)
    .max_ops(8)
    .check()
    .expect_err("deterministic harness");
    assert_eq!(
        format!("{:?}", again.minimal),
        format!("{:?}", failure.minimal)
    );
}

/// Injected runtime fault #2: a pathological 1 µs track-timeout expires
/// every end-node pair before its confirmation can arrive — the
/// resilience mechanism itself misconfigured into a denial of service.
/// Caught, with the same minimal shape.
#[test]
fn instant_expiry_shrinks_to_submit_settle() {
    let spec = NetsimSpec::with_fault(9, NetsimFault::ExpirePairsInstantly);
    let failure = ModelTest::new(
        "netsim_instant_expiry",
        NetsimSpec::with_fault(9, NetsimFault::ExpirePairsInstantly),
    )
    .cases(48)
    .max_ops(8)
    .check()
    .expect_err("instant expiry must be caught");
    assert_eq!(
        failure.minimal.len(),
        2,
        "minimal sequence must be Submit + Settle, got: {:?}",
        failure.minimal
    );
    assert!(matches!(failure.minimal[0], NetOp::Submit { .. }));
    assert!(matches!(failure.minimal[1], NetOp::Settle));
    assert_locally_minimal(&spec, &failure);
}
