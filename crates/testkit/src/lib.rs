//! `qn_testkit` — model-based testing of the protocol state machines.
//!
//! The paper's correctness argument rests on state-machine behaviour
//! (QNP §4–5): the link layer's generation schedule, the network layer's
//! epoch-versioned demultiplexer, the simulator's event ordering. Unit
//! tests check hand-picked traces and the plain property tests check
//! *invariants*; this crate checks **behaviour**: a random sequence of
//! operations is applied simultaneously to the real implementation and
//! to an independent, deliberately-simple *reference model*, and any
//! observable divergence fails the test. Because the driver runs on the
//! shrinking `proptest` shim, a diverging sequence is minimised to a
//! locally-minimal counterexample — typically the two or three
//! operations that actually matter.
//!
//! # Writing a model
//!
//! Implement [`ModelSpec`]: the operation alphabet (`Op`, with a
//! [`proptest`] strategy), how to build a fresh reference `Model` and
//! real `System`, and [`ModelSpec::apply`], which applies one operation
//! to both and reports any divergence as an `Err(String)`. Optional
//! hooks: [`ModelSpec::precondition`] skips operations that are
//! meaningless in the current model state (skipping, rather than
//! rejecting, keeps every subsequence of a failing sequence runnable —
//! which is what makes shrinking sound), and [`ModelSpec::invariants`]
//! is checked after every applied operation. Then:
//!
//! ```ignore
//! ModelTest::new("my_subsystem_matches_model", MySpec).run();
//! ```
//!
//! Ready-made models for the simulator event queue, the link-layer
//! protocol state machine and the net-layer demultiplexer / routing
//! table live under [`models`]; [`dense`] draws the random dense states
//! the quantum property suites run on, and compares matrices bit for
//! bit.

use proptest::collection::vec;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::{run_property, Config, TestCaseError};
use std::fmt;

pub mod dense;
pub mod models;

/// A subsystem specification: an operation alphabet, a reference model,
/// and the real system under test.
pub trait ModelSpec {
    /// One operation of the subsystem's interface.
    type Op: Clone + fmt::Debug + 'static;
    /// The independent reference implementation.
    type Model;
    /// The real implementation under test.
    type System;

    /// A fresh reference model.
    fn new_model(&self) -> Self::Model;

    /// A fresh system under test.
    fn new_system(&self) -> Self::System;

    /// The operation generator.
    fn op_strategy(&self) -> BoxedStrategy<Self::Op>;

    /// Whether `op` is meaningful in the current model state. Returning
    /// `false` *skips* the operation (it is not an error), so any
    /// subsequence of a generated sequence remains runnable — the
    /// property shrinking relies on.
    fn precondition(&self, _model: &Self::Model, _op: &Self::Op) -> bool {
        true
    }

    /// Apply `op` to both the model and the system, comparing every
    /// observable output. `Err` describes the divergence.
    fn apply(
        &self,
        model: &mut Self::Model,
        system: &mut Self::System,
        op: &Self::Op,
    ) -> Result<(), String>;

    /// Cross-cutting checks run after every applied operation.
    fn invariants(&self, _model: &Self::Model, _system: &Self::System) -> Result<(), String> {
        Ok(())
    }
}

/// A model/system divergence at one step of an operation sequence.
#[derive(Clone, Debug)]
pub struct Divergence<Op> {
    /// Index of the diverging operation within the sequence.
    pub step: usize,
    /// The operation that exposed the divergence.
    pub op: Op,
    /// What differed.
    pub message: String,
}

/// Run one operation sequence against a fresh model + system pair.
/// Returns the number of operations actually applied (preconditions may
/// skip some), or the first divergence. Panics out of the system under
/// test propagate; the [`ModelTest`] driver uses [`run_ops_caught`] so
/// a crashing implementation is still shrunk and reported with its
/// minimal sequence.
pub fn run_ops<S: ModelSpec>(spec: &S, ops: &[S::Op]) -> Result<usize, Divergence<S::Op>> {
    run_ops_inner(spec, ops, false)
}

/// [`run_ops`], but a panic inside `apply`/`invariants` (a crashing
/// system under test) is converted into a [`Divergence`] at the
/// panicking step instead of unwinding.
pub fn run_ops_caught<S: ModelSpec>(spec: &S, ops: &[S::Op]) -> Result<usize, Divergence<S::Op>> {
    run_ops_inner(spec, ops, true)
}

fn run_ops_inner<S: ModelSpec>(
    spec: &S,
    ops: &[S::Op],
    catch_panics: bool,
) -> Result<usize, Divergence<S::Op>> {
    let mut model = spec.new_model();
    let mut system = spec.new_system();
    let mut applied = 0usize;
    for (step, op) in ops.iter().enumerate() {
        if !spec.precondition(&model, op) {
            continue;
        }
        let outcome = if catch_panics {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                spec.apply(&mut model, &mut system, op)
                    .and_then(|()| spec.invariants(&model, &system).map_err(invariant_msg))
            }))
            .unwrap_or_else(|payload| {
                Err(format!(
                    "panic: {}",
                    proptest::test_runner::panic_message(payload.as_ref())
                ))
            })
        } else {
            spec.apply(&mut model, &mut system, op)
                .and_then(|()| spec.invariants(&model, &system).map_err(invariant_msg))
        };
        outcome.map_err(|message| Divergence {
            step,
            op: op.clone(),
            message,
        })?;
        applied += 1;
    }
    Ok(applied)
}

fn invariant_msg(message: String) -> String {
    format!("invariant violated: {message}")
}

/// A failed model test: the diverging operation sequence, minimised.
#[derive(Clone, Debug)]
pub struct ModelFailure<Op> {
    /// The locally-minimal diverging sequence — dropping any single
    /// operation (or simplifying any single operation) makes the model
    /// and system agree again.
    pub minimal: Vec<Op>,
    /// The sequence as originally generated.
    pub original: Vec<Op>,
    /// Step within `minimal` where the divergence fires.
    pub step: usize,
    /// The divergence message at the minimal sequence.
    pub message: String,
    /// Shrink steps accepted while minimising.
    pub shrinks: u64,
    /// Property executions spent shrinking.
    pub shrink_runs: u64,
}

impl<Op: fmt::Debug> ModelFailure<Op> {
    /// Render for a panic message.
    pub fn render(&self, name: &str) -> String {
        let mut out = format!(
            "model test {name} diverged at step {} of the minimal sequence:\n{}\n\
             minimal operation sequence ({} ops, {} shrinks in {} runs):\n",
            self.step,
            self.message,
            self.minimal.len(),
            self.shrinks,
            self.shrink_runs,
        );
        for (i, op) in self.minimal.iter().enumerate() {
            out.push_str(&format!("  [{i}] {op:?}\n"));
        }
        out.push_str(&format!(
            "original diverging sequence ({} ops):\n",
            self.original.len()
        ));
        for (i, op) in self.original.iter().enumerate() {
            out.push_str(&format!("  [{i}] {op:?}\n"));
        }
        out
    }
}

/// The model-test driver: generates random operation sequences, runs
/// them through [`run_ops`], and shrinks any diverging sequence.
pub struct ModelTest<S: ModelSpec> {
    name: String,
    spec: S,
    cases: u32,
    max_ops: usize,
}

impl<S: ModelSpec> ModelTest<S> {
    /// A driver named `name` (the name seeds the deterministic RNG, so
    /// every run of the same test generates and shrinks identically).
    pub fn new(name: &str, spec: S) -> Self {
        ModelTest {
            name: name.to_string(),
            spec,
            cases: 96,
            max_ops: 48,
        }
    }

    /// Number of random sequences to run (default 96; scaled by
    /// `PROPTEST_CASES_MULTIPLIER` like every property test).
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Maximum operations per sequence (default 48).
    pub fn max_ops(mut self, max_ops: usize) -> Self {
        self.max_ops = max_ops;
        self
    }

    /// Run the test, returning the number of passing cases or the
    /// minimised failure. Meta-tests use this to assert on the minimal
    /// counterexample programmatically.
    pub fn check(&self) -> Result<u32, ModelFailure<S::Op>> {
        let config = Config::with_cases(self.cases);
        let strategy = vec(self.spec.op_strategy(), 0..=self.max_ops);
        let spec = &self.spec;
        match run_property(&self.name, &config, &strategy, |ops| {
            match run_ops_caught(spec, &ops) {
                Ok(_) => Ok(()),
                Err(d) => Err(TestCaseError::Fail(format!(
                    "step {}: {} (op {:?})",
                    d.step, d.message, d.op
                ))),
            }
        }) {
            Ok(cases) => Ok(cases),
            Err(failure) => {
                let divergence = run_ops_caught(spec, &failure.minimal)
                    .expect_err("shrinking only accepts sequences that still diverge");
                Err(ModelFailure {
                    minimal: failure.minimal,
                    original: failure.original,
                    step: divergence.step,
                    message: divergence.message,
                    shrinks: failure.stats.accepted,
                    shrink_runs: failure.stats.executions,
                })
            }
        }
    }

    /// Run the test, panicking with the minimised counterexample on
    /// divergence — the entry point for `#[test]` functions.
    pub fn run(&self) {
        if let Err(failure) = self.check() {
            panic!("{}", failure.render(&self.name));
        }
    }
}
