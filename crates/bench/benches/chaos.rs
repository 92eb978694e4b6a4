//! **Chaos** — bounded-request streams over a wired chain whose links
//! churn through a seeded component-fault schedule (the [`FaultPlan`]
//! MTBF/MTTR subsystem): availability, completion rate under churn and
//! recovery latency, with post-settle leak counters pinned at zero.
//!
//! All reported metrics are simulation-domain deterministic (pure
//! functions of `(seed, config)`) and diffed against
//! `baselines/chaos.json` at `--tolerance 0` in both CI quantum-state
//! legs. Wall-clock throughput is recorded per case in `meta`, never
//! diffed.
//!
//! The `lazy` and `ckpt250ms` legs run the same workload under the
//! on-touch and periodic-`Interval` decoherence checkpoint policies;
//! their physical metrics must match (asserted to ≤ 1e-12 in the
//! scenario's unit tests) — only event counts differ.
//!
//! Run: `cargo bench --bench chaos`
//! (knobs: `QNP_RUNS` seeds per case, default 3; `QNP_REQUESTS`
//! requests per run, default 8; `QNP_THREADS` sweep workers).

use qn_bench::{
    chaos_scenario, env_u64, mean_finite, run_sweep, runs, seed_block, threads, Baseline,
    ChaosConfig,
};
use qn_sim::SimDuration;

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(3);
    let n_requests = env_u64("QNP_REQUESTS", 8) as usize;
    let seeds = seed_block(5000, n_runs);
    println!("# Chaos workloads (runs={n_runs}, requests={n_requests})");

    let ckpt = ChaosConfig::smoke(n_requests, None);
    let lazy = ckpt.clone().lazy();
    let mut harsh = ckpt.clone();
    harsh.mttr = SimDuration::from_millis(300);
    let cases: Vec<(&str, ChaosConfig)> = vec![
        ("chain4/lazy", lazy),
        ("chain4/ckpt250ms", ckpt),
        ("chain4/harsh", harsh),
    ];

    let mut baseline = Baseline::new("chaos")
        .config_num("runs", n_runs as f64)
        .config_num("requests", n_requests as f64);

    println!(
        "# case                 avail    outages   req_done   pairs   recovery_s   leaked   events"
    );
    let mut total_events = 0u64;
    for (label, cfg) in cases {
        let case_start = std::time::Instant::now();
        let points = run_sweep(&seeds, |seed| chaos_scenario(seed, &cfg));
        let case_wall = case_start.elapsed().as_secs_f64();
        let events: u64 = points.iter().map(|p| p.events_processed).sum();
        total_events += events;
        let outages: usize = points.iter().map(|p| p.outages).sum();
        let done: usize = points.iter().map(|p| p.requests_completed).sum();
        let axed: usize = points.iter().map(|p| p.requests_cancelled).sum();
        let pairs: usize = points.iter().map(|p| p.pairs_delivered).sum();
        let leaked: usize = points.iter().map(|p| p.leaked).sum();
        let avail = mean_finite(points.iter().map(|p| p.availability));
        let rate = mean_finite(points.iter().map(|p| p.completion_rate));
        let recovery = mean_finite(points.iter().map(|p| p.recovery_latency_s));
        let ev_wall = events as f64 / case_wall;
        println!(
            "# {label:20}   {avail:5.3}   {outages:7}   {done:8}   {pairs:5}   {recovery:10.4}   {leaked:6}   {events:8}"
        );
        baseline.point(
            label,
            &[
                ("completion_rate", rate),
                ("requests_completed", done as f64),
                ("requests_cancelled", axed as f64),
                ("pairs_delivered", pairs as f64),
                ("recovery_latency_s", recovery),
                ("availability", avail),
                ("outages", outages as f64),
                ("leaked", leaked as f64),
                ("events_processed", events as f64),
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
