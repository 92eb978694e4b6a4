//! The property runner: deterministic case generation, panic capture,
//! and counterexample minimisation.

use crate::strategy::Strategy;
use crate::tree::{minimize, ShrinkStats};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::panic::{self, AssertUnwindSafe};

/// Deterministic RNG driving all strategy sampling. Like real
/// proptest, it is backed by the `rand` crate (here: the in-tree
/// shim's `StdRng`).
#[derive(Clone, Debug)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        TestRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        Self::from_seed(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen()
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.gen_range(0..n)
    }
}

/// Runner configuration (`ProptestConfig` in the prelude).
#[derive(Clone, Debug)]
pub struct Config {
    pub cases: u32,
    pub max_global_rejects: u32,
    /// Cap on property executions spent shrinking one counterexample.
    pub max_shrink_iters: u64,
}

impl Config {
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// The case count actually run: `cases`, scaled by the
    /// `PROPTEST_CASES_MULTIPLIER` environment knob if set (the CI
    /// nightly job runs the suites at 4x depth this way).
    pub fn resolved_cases(&self) -> u32 {
        match env_knob::<u64>("PROPTEST_CASES_MULTIPLIER") {
            Some(m) => self.cases.saturating_mul(m.min(u64::from(u32::MAX)) as u32),
            None => self.cases,
        }
        .max(1)
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // `PROPTEST_CASES` overrides the default case count, exactly
            // like real proptest; explicit `with_cases` values win.
            cases: env_knob("PROPTEST_CASES").unwrap_or(256),
            max_global_rejects: 65_536,
            max_shrink_iters: env_knob("PROPTEST_MAX_SHRINK_ITERS").unwrap_or(4_096),
        }
    }
}

fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    parse_knob(name, std::env::var(name).ok().as_deref())
}

/// Parse the raw value of the integer knob `name`: unset means `None`
/// (the default), anything that is not a `T` panics with the knob's name
/// and value, so a typo cannot silently run a suite at default depth.
pub(crate) fn parse_knob<T: std::str::FromStr>(name: &str, raw: Option<&str>) -> Option<T> {
    let raw = raw?;
    Some(raw.parse().unwrap_or_else(|_| {
        panic!(
            "invalid {name}={raw:?}: must be an unsigned integer that fits {} \
             (unset it to use the default)",
            std::any::type_name::<T>()
        )
    }))
}

/// Why a single test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the input; the case is not counted.
    Reject(String),
    /// A `prop_assert*!` failed.
    Fail(String),
}

pub type TestCaseResult = Result<(), TestCaseError>;

/// A failed property, after shrinking: the original counterexample, the
/// locally-minimal one, and the failure messages observed at each.
#[derive(Clone, Debug)]
pub struct PropertyFailure<V> {
    /// 1-based index of the failing case.
    pub case: u64,
    /// The counterexample as originally generated.
    pub original: V,
    /// Failure message at the original counterexample.
    pub original_message: String,
    /// The locally-minimal counterexample (no single shrink step keeps
    /// the property failing).
    pub minimal: V,
    /// Failure message at the minimal counterexample.
    pub minimal_message: String,
    /// How much work shrinking did.
    pub stats: ShrinkStats,
}

impl<V> PropertyFailure<V> {
    /// Render the failure for a panic message. `render_value` formats a
    /// counterexample (the macro names each generated binding).
    pub fn render(&self, name: &str, render_value: &dyn Fn(&V) -> String) -> String {
        format!(
            "{name} failed at case {case}:\n{msg}\nminimal failing input \
             ({accepted} shrinks in {execs} runs):\n  {min}\noriginal failing input:\n  {orig}",
            name = name,
            case = self.case,
            msg = self.minimal_message,
            accepted = self.stats.accepted,
            execs = self.stats.executions,
            min = render_value(&self.minimal),
            orig = render_value(&self.original),
        )
    }
}

/// Execute one case, converting panics into failures so they shrink
/// like `prop_assert!` violations do.
fn run_case<V, F: FnMut(V) -> TestCaseResult>(test: &mut F, value: V) -> TestCaseResult {
    match panic::catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(outcome) => outcome,
        Err(payload) => Err(TestCaseError::Fail(format!(
            "panic: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

struct QuietState {
    depth: usize,
    saved: Option<PanicHook>,
}

/// Depth counter shared by every concurrently-shrinking property in the
/// process: the *first* installer saves the real hook, the *last*
/// dropper restores it. A naive save/restore pair per instance would
/// let interleaved install/drop across test threads restore a no-op as
/// the permanent hook.
static QUIET: std::sync::Mutex<QuietState> = std::sync::Mutex::new(QuietState {
    depth: 0,
    saved: None,
});

/// Scoped suppression of the global panic hook (refcounted); restores
/// the original hook when the outermost scope drops, even on unwind.
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        let mut state = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        if state.depth == 0 {
            state.saved = Some(panic::take_hook());
            panic::set_hook(Box::new(|_| {}));
        }
        state.depth += 1;
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let mut state = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        state.depth -= 1;
        if state.depth == 0 {
            if let Some(saved) = state.saved.take() {
                panic::set_hook(saved);
            }
        }
    }
}

/// Best-effort rendering of a caught panic payload (`&str` and `String`
/// payloads cover everything `panic!` produces).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run a property: `cases` inputs sampled from `strategy` on a
/// deterministic per-`name` RNG; on failure, greedily shrink to a local
/// minimum and report both counterexamples.
///
/// This is the engine behind the `proptest!` macro, exposed directly so
/// meta-tests (and `qn_testkit`) can inspect [`PropertyFailure`]
/// programmatically instead of parsing panic messages.
pub fn run_property<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    mut test: F,
) -> Result<u32, Box<PropertyFailure<S::Value>>>
where
    S: Strategy,
    F: FnMut(S::Value) -> TestCaseResult,
{
    let cases = config.resolved_cases();
    let mut rng = TestRng::from_name(name);
    let mut passed: u32 = 0;
    let mut rejected: u32 = 0;
    let mut case: u64 = 0;
    while passed < cases {
        case += 1;
        let tree = strategy.tree(&mut rng);
        match run_case(&mut test, tree.value().clone()) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > config.max_global_rejects {
                    panic!("{name}: too many prop_assume! rejections ({rejected})");
                }
            }
            Err(TestCaseError::Fail(message)) => {
                let original = tree.value().clone();
                // Shrinking a panicking property re-executes it (and
                // re-panics) once per still-failing candidate; silence
                // the panic hook for the duration so the report is the
                // one minimised message, not thousands of backtraces.
                // (Process-global, like real proptest's fork handling:
                // a concurrently-failing test in the same binary would
                // lose its hook output during this window.)
                let _quiet = QuietPanics::install();
                let (minimal, minimal_message, stats) = minimize(
                    tree,
                    message.clone(),
                    config.max_shrink_iters,
                    |candidate| match run_case(&mut test, candidate.clone()) {
                        Err(TestCaseError::Fail(msg)) => Some(msg),
                        // Passing and rejected candidates both end this
                        // branch of the descent.
                        Ok(()) | Err(TestCaseError::Reject(_)) => None,
                    },
                );
                return Err(Box::new(PropertyFailure {
                    case,
                    original,
                    original_message: message,
                    minimal,
                    minimal_message,
                    stats,
                }));
            }
        }
    }
    Ok(passed)
}
