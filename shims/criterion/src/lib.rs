//! Offline, API-compatible subset of the `criterion` crate.
//!
//! Provides the harness surface used by `crates/bench/benches/micro.rs`:
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `Bencher::{iter, iter_batched, iter_batched_ref}`, `BatchSize` and
//! `black_box`. Measurement is deliberately simple — warm up, then run
//! enough iterations to cover a fixed wall-clock window and report
//! mean/min/max per iteration as plain text. No statistics, plots or
//! HTML reports.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How a batched setup amortises across iterations. The shim times every
/// routine invocation individually, so the variants only exist for API
/// compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
    NumBatches(u64),
    NumIterations(u64),
}

/// Per-iteration timing sink handed to the closure of
/// [`Criterion::bench_function`].
pub struct Bencher {
    samples: Vec<Duration>,
    measure_window: Duration,
    warmup_iters: u64,
}

impl Bencher {
    fn new(measure_window: Duration) -> Self {
        Bencher {
            samples: Vec::new(),
            measure_window,
            warmup_iters: 3,
        }
    }

    /// Time `routine` repeatedly until the measurement window is filled.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.warmup_iters {
            black_box(routine());
        }
        let window_start = Instant::now();
        while window_start.elapsed() < self.measure_window || self.samples.is_empty() {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
            if self.samples.len() >= 100_000 {
                break;
            }
        }
    }

    /// Time `routine` on fresh inputs from `setup`; only the routine is
    /// on the clock.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.warmup_iters {
            black_box(routine(setup()));
        }
        let window_start = Instant::now();
        while window_start.elapsed() < self.measure_window || self.samples.is_empty() {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
            if self.samples.len() >= 100_000 {
                break;
            }
        }
    }

    /// Like [`Bencher::iter_batched`] but hands the routine `&mut` input.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        self.iter_batched(setup, |mut input| routine(&mut input), _size);
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.3} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.3} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// The benchmark harness entry point.
pub struct Criterion {
    measure_window: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    /// The measurement window is `QNP_BENCH_WINDOW_MS` milliseconds,
    /// 200 when unset.
    ///
    /// # Panics
    ///
    /// If `QNP_BENCH_WINDOW_MS` is set to anything that is not an
    /// unsigned integer: a typo'd knob must not silently measure with
    /// the default window.
    fn default() -> Self {
        let window_ms = match std::env::var("QNP_BENCH_WINDOW_MS") {
            Err(_) => 200,
            Ok(raw) => raw.parse().unwrap_or_else(|_| {
                panic!(
                    "invalid QNP_BENCH_WINDOW_MS={raw:?}: must be an unsigned integer \
                     (unset it to use the default 200)"
                )
            }),
        };
        Criterion {
            measure_window: Duration::from_millis(window_ms),
            filter: None,
        }
    }
}

impl Criterion {
    /// Parse harness CLI arguments (`cargo bench -- <filter>`); flags the
    /// real criterion accepts are ignored.
    pub fn configure_from_args(mut self) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "benches");
        self.filter = filter;
        self
    }

    /// Override the measurement window (API-compatible knob).
    pub fn measurement_time(mut self, window: Duration) -> Self {
        self.measure_window = window;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher::new(self.measure_window);
        f(&mut bencher);
        if bencher.samples.is_empty() {
            println!("{id:<40} (no samples)");
            return self;
        }
        let total: Duration = bencher.samples.iter().sum();
        let mean = total / bencher.samples.len() as u32;
        let min = *bencher.samples.iter().min().unwrap();
        let max = *bencher.samples.iter().max().unwrap();
        println!(
            "{id:<40} time: [{} {} {}]  ({} samples)",
            format_duration(min),
            format_duration(mean),
            format_duration(max),
            bencher.samples.len()
        );
        self
    }
}

/// Bundle benchmark functions into a group runner, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `fn main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_samples() {
        let mut c = Criterion {
            measure_window: Duration::from_millis(5),
            filter: None,
        };
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| black_box(1u64 + 1));
            ran = true;
        });
        assert!(ran);
    }

    /// `QNP_BENCH_WINDOW_MS`: unset means 200 ms, an unsigned integer
    /// is honoured, anything else fails fast naming the knob and value.
    /// One test, because the environment is process-global.
    #[test]
    fn window_knob_fails_fast_on_garbage() {
        std::env::remove_var("QNP_BENCH_WINDOW_MS");
        assert_eq!(
            Criterion::default().measure_window,
            Duration::from_millis(200)
        );

        std::env::set_var("QNP_BENCH_WINDOW_MS", "30");
        assert_eq!(
            Criterion::default().measure_window,
            Duration::from_millis(30)
        );

        for bad in ["30ms", "-1", "", "1.5"] {
            std::env::set_var("QNP_BENCH_WINDOW_MS", bad);
            let err = std::panic::catch_unwind(|| Criterion::default().measure_window)
                .expect_err("a garbage QNP_BENCH_WINDOW_MS must fail fast, not fall back");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains(&format!("invalid QNP_BENCH_WINDOW_MS={bad:?}")),
                "QNP_BENCH_WINDOW_MS={bad:?} panic message: {msg:?}"
            );
        }

        std::env::remove_var("QNP_BENCH_WINDOW_MS");
        assert_eq!(
            Criterion::default().measure_window,
            Duration::from_millis(200)
        );
    }

    #[test]
    fn iter_batched_consumes_setup_values() {
        let mut b = Bencher::new(Duration::from_millis(2));
        b.iter_batched(
            || vec![1u64, 2, 3],
            |v| v.into_iter().sum::<u64>(),
            BatchSize::SmallInput,
        );
        assert!(!b.samples.is_empty());
    }
}
