//! Offline, API-compatible subset of the `criterion` crate.
//!
//! Provides the harness surface used by `crates/bench/benches/micro.rs`:
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `Bencher::{iter, iter_batched, iter_batched_ref}`, `BatchSize` and
//! `black_box`. Measurement is deliberately simple — warm up, then run
//! enough iterations to cover a fixed wall-clock window and report
//! mean/min/max per iteration as plain text. No statistics, plots or
//! HTML reports.
//!
//! One deliberate extension beyond the real criterion: `criterion_main!`
//! writes a JSON baseline (`<QNP_BASELINE_DIR>/<bench>.json`, default
//! `target/qnp-bench/`) in the same schema as the `qn_bench::report`
//! figure baselines, so `cargo run --example bench_diff` can track
//! micro-benchmark timings alongside the figure metrics.

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

/// One completed benchmark's timing summary (nanoseconds/iteration).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// The `bench_function` id.
    pub id: String,
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Slowest iteration.
    pub max_ns: f64,
    /// Number of timed iterations.
    pub samples: usize,
}

/// The benchmark harness entry point.
pub struct Criterion {
    measure_window: Duration,
    filter: Option<String>,
    results: Vec<BenchResult>,
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
            results: Vec::new(),
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
        self.results.push(BenchResult {
            id: id.to_string(),
            mean_ns: mean.as_nanos() as f64,
            min_ns: min.as_nanos() as f64,
            max_ns: max.as_nanos() as f64,
            samples: bencher.samples.len(),
        });
        self
    }

    /// Results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// Write `results` as a JSON baseline named `bench_name`, in the schema
/// of `qn_bench::report` (hand-rolled here: the shim cannot depend on
/// the workspace it serves). Timings are host-dependent wall-clock
/// noise, so every metric is declared `informational`: the baseline
/// differ reports movements but never classifies them as regressions —
/// a committed micro baseline documents a reference machine, it does
/// not gate CI. `wall_clock_s` (the whole bench run) lands in `meta`.
pub fn write_baseline(
    bench_name: &str,
    results: &[BenchResult],
    wall_clock_s: f64,
) -> std::io::Result<()> {
    // A name filter (`cargo bench --bench micro -- <substring>`) runs
    // only a subset; writing that subset would clobber the full
    // baseline and make every skipped benchmark diff as "missing".
    let filter_active = std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && a != "benches");
    if filter_active {
        println!("# baseline skipped (benchmark name filter active)");
        return Ok(());
    }
    let dir = std::env::var_os("QNP_BASELINE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            // Anchor at the workspace target dir: bench executables run
            // with the package dir as cwd, not the workspace root.
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/qnp-bench")
        });
    std::fs::create_dir_all(&dir)?;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"figure\": {:?},\n", bench_name));
    out.push_str("  \"config\": {},\n");
    out.push_str("  \"directions\": {\n");
    out.push_str("    \"mean_ns\": \"informational\",\n");
    out.push_str("    \"min_ns\": \"informational\",\n");
    out.push_str("    \"max_ns\": \"informational\",\n");
    out.push_str("    \"events_per_sec\": \"informational\",\n");
    out.push_str("    \"samples\": \"informational\"\n");
    out.push_str("  },\n");
    out.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        // Guard division and stay valid JSON ({:?} on NaN would emit a
        // bare `NaN` token the hand-rolled parser rejects).
        let events_per_sec = if r.mean_ns > 0.0 {
            1e9 / r.mean_ns
        } else {
            0.0
        };
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": {:?},\n", r.id));
        out.push_str("      \"metrics\": {\n");
        out.push_str(&format!("        \"mean_ns\": {:?},\n", r.mean_ns));
        out.push_str(&format!("        \"min_ns\": {:?},\n", r.min_ns));
        out.push_str(&format!("        \"max_ns\": {:?},\n", r.max_ns));
        out.push_str(&format!(
            "        \"events_per_sec\": {:?},\n",
            events_per_sec
        ));
        out.push_str(&format!("        \"samples\": {:?}\n", r.samples as f64));
        out.push_str("      }\n");
        out.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"meta\": {\n");
    out.push_str(&format!("    \"wall_clock_s\": {:?}\n", wall_clock_s));
    out.push_str("  }\n");
    out.push_str("}\n");
    let path = dir.join(format!("{bench_name}.json"));
    std::fs::write(&path, out)?;
    println!("# baseline: {}", path.display());
    Ok(())
}

/// Bundle benchmark functions into a group runner, as in real criterion.
/// The generated function returns the group's timing results so
/// `criterion_main!` can write the combined JSON baseline.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() -> ::std::vec::Vec<$crate::BenchResult> {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
            criterion.results().to_vec()
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() -> ::std::vec::Vec<$crate::BenchResult> {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
            criterion.results().to_vec()
        }
    };
}

/// Generate `fn main` running the given groups and writing the bench
/// target's JSON baseline (named after the invoking crate, i.e. the
/// bench target).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let wall_start = ::std::time::Instant::now();
            let mut all: ::std::vec::Vec<$crate::BenchResult> = ::std::vec::Vec::new();
            $( all.extend($group()); )+
            let wall_clock_s = wall_start.elapsed().as_secs_f64();
            if let Err(e) =
                $crate::write_baseline(env!("CARGO_CRATE_NAME"), &all, wall_clock_s)
            {
                eprintln!("warning: could not write bench baseline: {e}");
            }
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
            results: Vec::new(),
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
