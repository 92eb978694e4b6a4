//! Offline, API-compatible subset of the `proptest` crate.
//!
//! Implements the surface this workspace's property tests use: the
//! `proptest!` macro (with `#![proptest_config(...)]`), range/tuple/`Just`
//! strategies, `prop_map`, `prop_filter`, `prop_oneof!`, `collection::vec`,
//! `any::<T>()`, and the `prop_assert*!`/`prop_assume!` macros — **with
//! shrinking**: every strategy samples a [`tree::ShrinkTree`], and a
//! failing case is greedily minimised to a locally-minimal counterexample
//! before being reported (alongside the original).
//!
//! Differences from real proptest, by design:
//!
//! * cases are sampled from a **deterministic** per-test RNG (seeded from
//!   the test name), so CI failures reproduce locally without a seed file —
//!   and because shrinking consults no RNG, the *minimised* counterexample
//!   is identical run to run;
//! * shrinking is a greedy first-failing-child descent over Hedgehog-style
//!   rose trees (no `simplify`/`complicate` cursor, no fork persistence);
//! * strategy values must be `Clone + Debug + 'static` (real proptest only
//!   needs `Debug`), which every type in this workspace satisfies;
//! * macro arguments are plain identifiers (`x in 0..10`), not arbitrary
//!   patterns.
//!
//! Environment knobs (see EXPERIMENTS.md "Property suites"):
//! `PROPTEST_CASES` overrides the default case count (explicit
//! `with_cases` wins), `PROPTEST_CASES_MULTIPLIER` scales *every* test's
//! case count (the CI nightly-style job sets 4), and
//! `PROPTEST_MAX_SHRINK_ITERS` caps shrink-time property executions.
//! Unset means the default; a value that does not parse panics, naming
//! the knob.

pub mod test_runner;
pub mod tree;

pub mod strategy {
    use crate::test_runner::TestRng;
    use crate::tree::{float_tree, int_tree, join2, ShrinkTree};
    use std::fmt;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A generator of shrinkable values of type `Self::Value`.
    ///
    /// A strategy samples a whole [`ShrinkTree`] — the generated value
    /// plus the lattice of simpler candidates the runner walks when the
    /// property fails.
    pub trait Strategy {
        type Value: Clone + fmt::Debug + 'static;

        /// Sample a value together with its shrink tree.
        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value>;

        /// Sample just the value (no shrinking context).
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            self.tree(rng).into_value()
        }

        fn prop_map<O, F>(self, f: F) -> Map<Self, O>
        where
            Self: Sized,
            O: Clone + fmt::Debug + 'static,
            F: Fn(Self::Value) -> O + 'static,
        {
            Map {
                source: self,
                f: Rc::new(f),
            }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool + 'static,
        {
            Filter {
                source: self,
                whence,
                f: Rc::new(f),
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                sampler: Rc::new(move |rng: &mut TestRng| self.tree(rng)),
            }
        }
    }

    /// Type-erased strategy, the element type of `prop_oneof!` unions.
    pub struct BoxedStrategy<V> {
        #[allow(clippy::type_complexity)]
        sampler: Rc<dyn Fn(&mut TestRng) -> ShrinkTree<V>>,
    }

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                sampler: Rc::clone(&self.sampler),
            }
        }
    }

    impl<V: Clone + fmt::Debug + 'static> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<V> {
            (self.sampler)(rng)
        }
    }

    /// Result of [`Strategy::prop_map`]. The *source* tree shrinks and
    /// every candidate is pushed through the mapping function.
    pub struct Map<S: Strategy, O> {
        source: S,
        f: Rc<dyn Fn(S::Value) -> O>,
    }

    impl<S: Strategy, O: Clone + fmt::Debug + 'static> Strategy for Map<S, O> {
        type Value = O;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<O> {
            self.source.tree(rng).map(Rc::clone(&self.f))
        }
    }

    /// Result of [`Strategy::prop_filter`]; resamples until accepted,
    /// and prunes shrink candidates the predicate rejects.
    pub struct Filter<S: Strategy> {
        source: S,
        whence: &'static str,
        #[allow(clippy::type_complexity)]
        f: Rc<dyn Fn(&S::Value) -> bool>,
    }

    impl<S: Strategy> Strategy for Filter<S> {
        type Value = S::Value;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<S::Value> {
            for _ in 0..10_000 {
                let tree = self.source.tree(rng);
                if (self.f)(tree.value()) {
                    return tree.prune(Rc::clone(&self.f));
                }
            }
            panic!(
                "prop_filter rejected 10000 consecutive samples: {}",
                self.whence
            );
        }
    }

    /// Strategy yielding one fixed value (requires `Clone`); minimal by
    /// definition, so it never shrinks.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone + fmt::Debug + 'static> Strategy for Just<T> {
        type Value = T;

        fn tree(&self, _rng: &mut TestRng) -> ShrinkTree<T> {
            ShrinkTree::leaf(self.0.clone())
        }
    }

    /// Uniform choice between type-erased alternatives (`prop_oneof!`).
    /// Shrinking stays within the sampled alternative.
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V: Clone + fmt::Debug + 'static> Strategy for Union<V> {
        type Value = V;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<V> {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].tree(rng)
        }
    }

    /// Scalars samplable from half-open and inclusive ranges, shrinking
    /// toward the range's lower bound.
    pub trait SampleScalar: Copy + fmt::Debug + 'static {
        fn sample_scalar(rng: &mut TestRng, lo: Self, hi: Self, inclusive: bool) -> Self;
        /// A shrink tree for `value`, descending toward `origin`.
        fn shrink_from(origin: Self, value: Self) -> ShrinkTree<Self>;
    }

    macro_rules! impl_sample_scalar_int {
        ($($t:ty),*) => {$(
            impl SampleScalar for $t {
                fn sample_scalar(rng: &mut TestRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                    let span = (hi as i128) - (lo as i128) + if inclusive { 1 } else { 0 };
                    assert!(span > 0, "cannot sample from an empty range");
                    if span > u64::MAX as i128 {
                        // Full-width inclusive range: every word is a sample.
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span as u64) as i128) as $t
                }

                fn shrink_from(origin: Self, value: Self) -> ShrinkTree<Self> {
                    int_tree(origin as i128, value as i128).map(Rc::new(|v: i128| v as $t))
                }
            }
        )*};
    }
    impl_sample_scalar_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl SampleScalar for f64 {
        fn sample_scalar(rng: &mut TestRng, lo: Self, hi: Self, _inclusive: bool) -> Self {
            assert!(lo < hi, "cannot sample from an empty range");
            let v = lo + (hi - lo) * rng.unit_f64();
            if v >= hi {
                lo
            } else {
                v
            }
        }

        fn shrink_from(origin: Self, value: Self) -> ShrinkTree<Self> {
            float_tree(origin, value, 24)
        }
    }

    impl SampleScalar for f32 {
        fn sample_scalar(rng: &mut TestRng, lo: Self, hi: Self, _inclusive: bool) -> Self {
            assert!(lo < hi, "cannot sample from an empty range");
            let v = lo + (hi - lo) * rng.unit_f64() as f32;
            if v >= hi {
                lo
            } else {
                v
            }
        }

        fn shrink_from(origin: Self, value: Self) -> ShrinkTree<Self> {
            float_tree(origin as f64, value as f64, 24).map(Rc::new(|v: f64| v as f32))
        }
    }

    impl<T: SampleScalar> Strategy for Range<T> {
        type Value = T;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<T> {
            let v = T::sample_scalar(rng, self.start, self.end, false);
            T::shrink_from(self.start, v)
        }
    }

    impl<T: SampleScalar> Strategy for RangeInclusive<T> {
        type Value = T;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<T> {
            let v = T::sample_scalar(rng, *self.start(), *self.end(), true);
            T::shrink_from(*self.start(), v)
        }
    }

    // Tuple strategies: components shrink independently (one at a time),
    // built from nested pair joins.

    impl<A: Strategy> Strategy for (A,) {
        type Value = (A::Value,);

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value> {
            self.0.tree(rng).map(Rc::new(|a| (a,)))
        }
    }

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value> {
            join2(self.0.tree(rng), self.1.tree(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value> {
            join2(join2(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng))
                .map(Rc::new(|((a, b), c)| (a, b, c)))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
        type Value = (A::Value, B::Value, C::Value, D::Value);

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value> {
            join2(
                join2(join2(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
                self.3.tree(rng),
            )
            .map(Rc::new(|(((a, b), c), d)| (a, b, c, d)))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy> Strategy for (A, B, C, D, E) {
        type Value = (A::Value, B::Value, C::Value, D::Value, E::Value);

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value> {
            join2(
                join2(
                    join2(join2(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
                    self.3.tree(rng),
                ),
                self.4.tree(rng),
            )
            .map(Rc::new(|((((a, b), c), d), e)| (a, b, c, d, e)))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy, F: Strategy> Strategy
        for (A, B, C, D, E, F)
    {
        type Value = (A::Value, B::Value, C::Value, D::Value, E::Value, F::Value);

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value> {
            join2(
                join2(
                    join2(
                        join2(join2(self.0.tree(rng), self.1.tree(rng)), self.2.tree(rng)),
                        self.3.tree(rng),
                    ),
                    self.4.tree(rng),
                ),
                self.5.tree(rng),
            )
            .map(Rc::new(|(((((a, b), c), d), e), f)| (a, b, c, d, e, f)))
        }
    }

    /// Full-range strategy backing `any::<T>()`; integers shrink toward
    /// zero, `true` shrinks to `false`.
    pub struct Any<T> {
        _marker: PhantomData<T>,
    }

    impl<T> Any<T> {
        pub fn new() -> Self {
            Any {
                _marker: PhantomData,
            }
        }
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Strategy for Any<bool> {
        type Value = bool;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<bool> {
            if rng.next_u64() & 1 == 1 {
                ShrinkTree::with_children(true, || vec![ShrinkTree::leaf(false)])
            } else {
                ShrinkTree::leaf(false)
            }
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<f64> {
            float_tree(0.0, rng.unit_f64(), 24)
        }
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;

                fn tree(&self, rng: &mut TestRng) -> ShrinkTree<$t> {
                    let v = rng.next_u64() as $t;
                    int_tree(0, v as i128).map(Rc::new(|v: i128| v as $t))
                }
            }
        )*};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod arbitrary {
    use crate::strategy::Any;

    /// Types with a canonical `any::<T>()` strategy.
    pub trait Arbitrary: Sized
    where
        Any<Self>: crate::strategy::Strategy<Value = Self>,
    {
    }

    impl Arbitrary for bool {}
    impl Arbitrary for u8 {}
    impl Arbitrary for u16 {}
    impl Arbitrary for u32 {}
    impl Arbitrary for u64 {}
    impl Arbitrary for usize {}
    impl Arbitrary for i8 {}
    impl Arbitrary for i16 {}
    impl Arbitrary for i32 {}
    impl Arbitrary for i64 {}
    impl Arbitrary for isize {}
    impl Arbitrary for f64 {}

    pub fn any<T: Arbitrary>() -> Any<T>
    where
        Any<T>: crate::strategy::Strategy<Value = T>,
    {
        Any::new()
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use crate::tree::{vec_tree, ShrinkTree};
    use std::ops::{Range, RangeInclusive};

    /// Accepted size arguments of [`vec()`]: `n`, `lo..hi`, `lo..=hi`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a sampled length. Shrinks the
    /// length toward the size range's minimum (chunked element removal)
    /// and individual elements via their own trees.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn tree(&self, rng: &mut TestRng) -> ShrinkTree<Self::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let n = self.size.lo + rng.below(span) as usize;
            let elems = (0..n).map(|_| self.element.tree(rng)).collect();
            vec_tree(elems, self.size.lo)
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// `if !cond { fail the current case }`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` that fails the current case instead of panicking directly.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: `(left == right)`\n  left: `{:?}`,\n right: `{:?}`",
                    left,
                    right
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(*left == *right, $($fmt)*);
            }
        }
    };
}

/// `assert_ne!` counterpart of [`prop_assert_eq!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => {
                $crate::prop_assert!(
                    *left != *right,
                    "assertion failed: `(left != right)`\n  both: `{:?}`",
                    left
                );
            }
        }
    };
}

/// Discard the current case (does not count towards `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// The property-test entry point. Each contained function runs
/// `config.cases` sampled cases (default 256); a failing case is
/// shrunk to a locally-minimal counterexample and both the minimal and
/// the original inputs are reported in the panic message.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    (@impl ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __qnp_config: $crate::test_runner::Config = $config;
                let __qnp_strategy = ($($strategy,)+);
                let __qnp_result = $crate::test_runner::run_property(
                    stringify!($name),
                    &__qnp_config,
                    &__qnp_strategy,
                    |__qnp_vals| {
                        let ($($arg,)+) = __qnp_vals;
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
                if let ::core::result::Result::Err(__qnp_failure) = __qnp_result {
                    let __qnp_render = |__qnp_vals: &_| {
                        let ($(ref $arg,)+) = *__qnp_vals;
                        let __qnp_parts: ::std::vec::Vec<::std::string::String> = vec![
                            $(::std::format!("{} = {:?}", stringify!($arg), $arg)),+
                        ];
                        __qnp_parts.join("\n  ")
                    };
                    ::std::panic!(
                        "{}",
                        __qnp_failure.render(stringify!($name), &__qnp_render)
                    );
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()) $($rest)*);
    };
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..9, y in 0.0f64..1.0, n in 1usize..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn vec_respects_size(v in crate::collection::vec(0u64..100, 2..=5)) {
            prop_assert!(v.len() >= 2 && v.len() <= 5);
            prop_assert!(v.iter().all(|e| *e < 100));
        }

        #[test]
        fn oneof_and_map_compose(op in prop_oneof![
            (0u8..4).prop_map(|v| v as u32),
            Just(99u32),
        ]) {
            prop_assert!(op < 4 || op == 99);
        }

        #[test]
        fn assume_filters(x in 0u8..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn filter_values_satisfy_predicate(
            x in (0u32..100).prop_filter("odd only", |v| v % 2 == 1),
        ) {
            prop_assert!(x % 2 == 1);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(b in any::<bool>()) {
            prop_assert!(b || !b);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[allow(dead_code)]
            fn inner(x in 0u8..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner();
    }

    /// The failure message must carry both the minimal and the original
    /// counterexample, each rendered with its binding name.
    #[test]
    fn failure_message_reports_both_counterexamples() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[allow(dead_code)]
            fn inner(xs in crate::collection::vec(7u64..8, 2), flag in Just(true)) {
                prop_assert!(!flag, "flag was set beside {} elements", xs.len());
            }
        }
        let payload = std::panic::catch_unwind(inner).expect_err("inner must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("minimal failing input"), "message: {msg}");
        assert!(msg.contains("original failing input"), "message: {msg}");
        assert!(msg.contains("xs = [7, 7]"), "message: {msg}");
        assert!(msg.contains("flag = true"), "message: {msg}");
    }

    /// The case-count knobs fail fast. Parsed from raw strings: other
    /// properties in this binary read the real environment variables
    /// concurrently.
    #[test]
    fn env_knobs_fail_fast_on_garbage() {
        use crate::test_runner::parse_knob;
        assert_eq!(parse_knob::<u32>("PROPTEST_CASES", None), None);
        assert_eq!(parse_knob::<u32>("PROPTEST_CASES", Some("0")), Some(0));
        assert_eq!(
            parse_knob::<u32>("PROPTEST_CASES", Some("4294967295")),
            Some(u32::MAX)
        );
        assert_eq!(
            parse_knob::<u64>("PROPTEST_CASES_MULTIPLIER", Some("4")),
            Some(4)
        );
        fn panic_message<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> String {
            let payload = std::panic::catch_unwind(f)
                .err()
                .expect("garbage must panic, not fall back to the default");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }
        for raw in ["4294967296", "-1", ""] {
            let msg = panic_message(|| parse_knob::<u32>("PROPTEST_CASES", Some(raw)));
            assert!(
                msg.contains(&format!("PROPTEST_CASES={raw:?}")),
                "message must name the knob and its value: {msg}"
            );
        }
        let msg = panic_message(|| parse_knob::<u64>("PROPTEST_CASES_MULTIPLIER", Some("4x")));
        assert!(
            msg.contains("PROPTEST_CASES_MULTIPLIER=\"4x\""),
            "message must name the knob and its value: {msg}"
        );
    }

    /// Body panics (not just `prop_assert!` failures) are caught and
    /// shrunk like ordinary failures.
    #[test]
    fn panicking_bodies_shrink_too() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[allow(dead_code)]
            fn inner(x in 0u32..1000) {
                assert!(x < 10, "hard panic at {x}");
                prop_assert!(true);
            }
        }
        let payload = std::panic::catch_unwind(inner).expect_err("inner must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("panic: hard panic at"), "message: {msg}");
        assert!(
            msg.contains("x = 10"),
            "x must shrink to the boundary 10; message: {msg}"
        );
    }
}
