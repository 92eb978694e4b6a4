//! **Open-world workloads** — sustained randomised traffic over chain,
//! wide-dumbbell and grid topologies: Poisson and diurnally-modulated
//! circuit arrivals, heavy-tailed circuit lifetimes and request sizes,
//! periodic whole-store decoherence checkpoints.
//!
//! Two kinds of output:
//! * **simulation-domain throughput** (`events_per_sim_sec`,
//!   `requests_per_sim_sec`, `pairs_per_sim_sec`) — bit-deterministic,
//!   diffed against `baselines/openworld.json` at `--tolerance 0` in
//!   the dm CI leg;
//! * **wall-clock throughput** (`events_per_wall_sec`, recorded per
//!   case in `meta`) — the slab/dense-table performance headline,
//!   machine-dependent and therefore never diffed.
//!
//! Run: `cargo bench --bench openworld`
//! (knobs: `QNP_RUNS` seeds per case, default 3; `QNP_ARRIVALS`
//! arrival budget per run, default 24; `QNP_THREADS` sweep workers).

use qn_bench::{
    env_u64, mean_finite, openworld_scenario, run_sweep, runs, seed_block, threads, Baseline,
    OpenWorldConfig, OwArrivals, OwTopology,
};
use qn_sim::SimDuration;

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(3);
    let budget = env_u64("QNP_ARRIVALS", 24) as usize;
    let seeds = seed_block(3000, n_runs);
    println!("# Open-world workloads (runs={n_runs}, arrival budget={budget})");

    let poisson = OwArrivals::Poisson { rate_hz: 0.4 };
    let diurnal = OwArrivals::Diurnal {
        rate_hz: 0.4,
        depth: 0.8,
        period: SimDuration::from_secs(20),
    };
    let cases: Vec<(&str, OwTopology, OwArrivals)> = vec![
        ("chain4/poisson", OwTopology::Chain { n: 4 }, poisson),
        ("chain4/diurnal", OwTopology::Chain { n: 4 }, diurnal),
        (
            "dumbbell3/poisson",
            OwTopology::WideDumbbell { width: 3 },
            poisson,
        ),
        (
            "dumbbell3/diurnal",
            OwTopology::WideDumbbell { width: 3 },
            diurnal,
        ),
        ("grid3x3/poisson", OwTopology::Grid { w: 3, h: 3 }, poisson),
        ("grid3x3/diurnal", OwTopology::Grid { w: 3, h: 3 }, diurnal),
    ];

    let mut baseline = Baseline::new("openworld")
        .config_num("runs", n_runs as f64)
        .config_num("arrival_budget", budget as f64);

    println!(
        "# case                 circuits   req_done   pairs   events     ev/sim_s   req/sim_s   ev/wall_s"
    );
    let mut total_events = 0u64;
    for (label, topology, arrivals) in cases {
        let cfg = OpenWorldConfig::smoke(topology, arrivals, budget);
        let case_start = std::time::Instant::now();
        let points = run_sweep(&seeds, |seed| openworld_scenario(seed, &cfg));
        let case_wall = case_start.elapsed().as_secs_f64();
        let events: u64 = points.iter().map(|p| p.events_processed).sum();
        total_events += events;
        let circuits: usize = points.iter().map(|p| p.circuits_admitted).sum();
        let done: usize = points.iter().map(|p| p.requests_completed).sum();
        let pairs: usize = points.iter().map(|p| p.pairs_delivered).sum();
        let failures: usize = points.iter().map(|p| p.plan_failures).sum();
        let ev_sim = mean_finite(points.iter().map(|p| p.events_per_sim_sec));
        let req_sim = mean_finite(points.iter().map(|p| p.requests_per_sim_sec));
        let pair_sim = mean_finite(points.iter().map(|p| p.pairs_per_sim_sec));
        let ev_wall = events as f64 / case_wall;
        println!(
            "# {label:20}   {circuits:8}   {done:8}   {pairs:5}   {events:8}   {ev_sim:8.1}   {req_sim:9.4}   {ev_wall:9.0}"
        );
        baseline.point(
            label,
            &[
                ("requests_per_sim_sec", req_sim),
                ("pairs_per_sim_sec", pair_sim),
                ("events_per_sim_sec", ev_sim),
                ("requests_completed", done as f64),
                ("pairs_delivered", pairs as f64),
                ("events_processed", events as f64),
                ("circuits_admitted", circuits as f64),
                ("plan_failures", failures as f64),
            ],
        );
        // Wall-clock throughput is machine-dependent: meta, never diffed.
        baseline = baseline.meta_num(&format!("events_per_wall_sec/{label}"), ev_wall);
    }

    let wall = wall_start.elapsed().as_secs_f64();
    baseline = baseline
        .meta_num("wall_clock_s", wall)
        .meta_num("events_per_wall_sec_total", total_events as f64 / wall);
    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s, {:.0} events/wall-s overall)",
        path.display(),
        threads(),
        wall,
        total_events as f64 / wall
    );
}
