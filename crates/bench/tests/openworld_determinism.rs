//! Determinism regression suite for the open-world workload engine:
//! the sweep must be a pure function of `(seeds, config)` — the same
//! points, bit for bit, whether it runs serially, on eight worker
//! threads, or twice in a row. This is what lets `baselines/openworld.json`
//! be diffed at `--tolerance 0`.

use qn_bench::run_sweep_with;
use qn_bench::scenarios::{openworld_scenario, OpenWorldConfig, OwArrivals, OwTopology};
use qn_sim::SimDuration;

fn configs() -> Vec<(&'static str, OpenWorldConfig)> {
    vec![
        (
            "chain4/poisson",
            OpenWorldConfig::smoke(
                OwTopology::Chain { n: 4 },
                OwArrivals::Poisson { rate_hz: 0.4 },
                12,
            ),
        ),
        (
            "grid3x2/diurnal",
            OpenWorldConfig::smoke(
                OwTopology::Grid { w: 3, h: 2 },
                OwArrivals::Diurnal {
                    rate_hz: 0.4,
                    depth: 0.8,
                    period: SimDuration::from_secs(20),
                },
                12,
            ),
        ),
    ]
}

/// One worker thread and eight worker threads must produce identical
/// point vectors — the sweep runner stores results by seed index and
/// each run is seed-pure, so the thread count must be unobservable.
#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let seeds: Vec<u64> = (0..6).map(|i| 0xC0FFEE + i).collect();
    for (label, cfg) in configs() {
        let serial = run_sweep_with(1, &seeds, |seed| openworld_scenario(seed, &cfg));
        let parallel = run_sweep_with(8, &seeds, |seed| openworld_scenario(seed, &cfg));
        assert_eq!(
            serial, parallel,
            "{label}: thread count leaked into the workload points"
        );
        // The workload must actually do something, or the equality
        // above is vacuous.
        assert!(
            serial.iter().any(|p| p.requests_completed > 0),
            "{label}: no requests completed — workload too small to test"
        );
    }
}

/// Back-to-back runs of the same sweep must agree exactly — no hidden
/// global state (thread-local RNGs, caches keyed on addresses, time).
#[test]
fn repeated_sweeps_are_bit_identical() {
    let seeds: Vec<u64> = (0..4).map(|i| 0xFEED + i).collect();
    for (label, cfg) in configs() {
        let run = || run_sweep_with(4, &seeds, |seed| openworld_scenario(seed, &cfg));
        assert_eq!(run(), run(), "{label}: repeated sweeps diverged");
    }
}

/// Every simulation-domain metric of a point must be finite — NaN or
/// infinity in a committed baseline would poison `--tolerance 0` diffs.
#[test]
fn points_carry_finite_metrics_only() {
    for (label, cfg) in configs() {
        let p = openworld_scenario(7, &cfg);
        for (name, v) in [
            ("events_per_sim_sec", p.events_per_sim_sec),
            ("requests_per_sim_sec", p.requests_per_sim_sec),
            ("pairs_per_sim_sec", p.pairs_per_sim_sec),
        ] {
            assert!(v.is_finite(), "{label}: {name} is not finite ({v})");
        }
    }
}
