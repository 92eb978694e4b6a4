//! Integration coverage for the parallel sweep runner: the sweep
//! results must be bit-identical to the serial path at any thread
//! count, and JSON baselines must round-trip losslessly.

use qn_bench::report::{diff_baselines, Baseline, Direction};
use qn_bench::run_sweep_with;
use qn_bench::scenarios::{fig9_scenario, wide_dumbbell_scenario};
use qn_routing::CutoffPolicy;
use qn_sim::SimDuration;

/// Parallel vs serial: the full per-seed point vectors must match
/// bit-for-bit, for several thread counts (1 is the serial fast path;
/// the others run fewer or more workers than seeds).
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let seeds: Vec<u64> = (40..46).collect();
    let scenario = |seed: u64| {
        wide_dumbbell_scenario(
            seed,
            2,
            0.8,
            CutoffPolicy::short(),
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
        )
    };
    let serial = run_sweep_with(1, &seeds, scenario);
    for threads in [2usize, 4, 16] {
        let parallel = run_sweep_with(threads, &seeds, scenario);
        assert_eq!(parallel.len(), serial.len());
        for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(p.circuits, s.circuits);
            assert_eq!(
                p.aggregate_throughput.to_bits(),
                s.aggregate_throughput.to_bits(),
                "throughput bits differ at seed {} with {threads} threads",
                seeds[i]
            );
        }
    }
}

/// The same guarantee through a full simulation scenario with NaN-able
/// statistics (fig 9 at a sparse interval).
#[test]
fn fig9_sweep_matches_serial_at_8_threads() {
    let seeds: Vec<u64> = (2000..2003).collect();
    let scenario = |seed: u64| fig9_scenario(seed, false, SimDuration::from_millis(2000));
    let serial = run_sweep_with(1, &seeds, scenario);
    let parallel = run_sweep_with(8, &seeds, scenario);
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.throughput.to_bits(), s.throughput.to_bits());
        assert_eq!(p.mean_latency.to_bits(), s.mean_latency.to_bits());
        assert_eq!(p.p5.to_bits(), s.p5.to_bits());
        assert_eq!(p.p95.to_bits(), s.p95.to_bits());
        assert_eq!(p.measured, s.measured);
    }
}

/// Baseline lifecycle: write → parse → diff against itself reports zero
/// regressions, and every metric survives bit-exactly (NaN included).
#[test]
fn baseline_write_parse_diff_round_trip() {
    let seeds: Vec<u64> = (7..10).collect();
    let points = run_sweep_with(2, &seeds, |seed| {
        wide_dumbbell_scenario(
            seed,
            1,
            0.8,
            CutoffPolicy::short(),
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
        )
    });
    let mut baseline = Baseline::new("engine_round_trip")
        .config_num("runs", seeds.len() as f64)
        .direction(
            "aggregate_throughput_pairs_per_s",
            Direction::HigherIsBetter,
        );
    for (seed, p) in seeds.iter().zip(&points) {
        baseline.point(
            format!("seed={seed}"),
            &[
                ("aggregate_throughput_pairs_per_s", p.aggregate_throughput),
                ("nan_metric", f64::NAN),
            ],
        );
    }

    let dir = std::env::temp_dir().join(format!("qnp-bench-test-{}", std::process::id()));
    let path = baseline.write_to(&dir).expect("write baseline");
    let text = std::fs::read_to_string(&path).expect("read baseline back");
    let parsed = Baseline::parse(&text).expect("parse baseline");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(parsed.figure, baseline.figure);
    assert_eq!(parsed.points.len(), baseline.points.len());
    for (a, b) in parsed.points.iter().zip(&baseline.points) {
        assert_eq!(a.label, b.label);
        for ((ka, va), (kb, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "metric {ka} not bit-exact");
        }
    }

    // Self-diff must be clean even at zero tolerance.
    let report = diff_baselines(&baseline, &parsed, 0.0);
    assert_eq!(report.regressions(), 0);
    assert!(
        report.is_clean(),
        "unexpected entries: {:?}",
        report.entries
    );
}
