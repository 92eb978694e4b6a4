//! **Ablation** — path-length scaling and topology diversity.
//!
//! The paper motivates entanglement distillation (§4.3) by noting that
//! the fidelity loss of entanglement swapping "ultimately limits the
//! achievable path length". This sweep quantifies that limit in our
//! model: per-pair latency, the link-fidelity budget the routing
//! controller demands, and the point where a fixed end-to-end target
//! becomes infeasible.
//!
//! A second section sweeps the **widened dumbbell** (the sweep runner's
//! scenario-diversity axis): `width` straight-across circuits all
//! contending for the single MA–MB bottleneck, one request each.
//!
//! Asserted, over the feasible chains: the link-fidelity budget and the
//! per-pair latency per link both rise with the chain length (the
//! latency grows super-linearly). The widened-dumbbell lines are not
//! asserted: one 8-pair request per circuit over a fixed horizon makes
//! the aggregate throughput 8·width/120 by construction. The bench
//! writes its baseline, then exits 1 naming each broken shape.
//!
//! Run: `cargo bench --bench ablation_chain_length`
//! (knobs: `QNP_RUNS`, `QNP_THREADS`).

use qn_bench::{
    chain_point_scenario, mean_finite, run_sweep, runs, seed_block, threads,
    wide_dumbbell_scenario, Baseline, Direction, Shapes,
};
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_routing::{chain, Controller, CutoffPolicy};
use qn_sim::{NodeId, SimDuration};

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(3);
    let fidelity = 0.8;
    let seeds = seed_block(7000, n_runs);
    println!("# Ablation — chain-length scaling at end-to-end F = {fidelity} (runs={n_runs})");
    println!("# nodes   links   link_F_budget   per_pair_latency_s   mean_fidelity");

    let mut baseline = Baseline::new("ablation_chain_length")
        .config_num("runs", n_runs as f64)
        .config_num("fidelity", fidelity)
        .direction("link_fidelity_budget", Direction::Informational)
        .direction("per_pair_latency_s", Direction::LowerIsBetter)
        .direction("mean_request_latency_s", Direction::LowerIsBetter)
        .direction("mean_fidelity", Direction::HigherIsBetter)
        .direction("completed", Direction::HigherIsBetter)
        .direction(
            "aggregate_throughput_pairs_per_s",
            Direction::HigherIsBetter,
        );

    // (link-fidelity budget, per-pair latency per link) of each feasible
    // chain, shortest first.
    let mut feasible = Vec::new();
    for n_nodes in [2usize, 3, 4, 5, 6] {
        let topology = chain(n_nodes, HardwareParams::simulation(), FibreParams::lab_2m());
        let controller = Controller::new(&topology, CutoffPolicy::short());
        let tail = NodeId(n_nodes as u32 - 1);
        let plan = match controller.plan(NodeId(0), tail, fidelity) {
            Ok(p) => p,
            Err(e) => {
                println!("{n_nodes:7}   {:5}   infeasible: {e}", n_nodes - 1);
                baseline.point(
                    format!("chain/nodes={n_nodes}"),
                    &[
                        ("link_fidelity_budget", f64::NAN),
                        ("per_pair_latency_s", f64::NAN),
                        ("mean_fidelity", f64::NAN),
                    ],
                );
                continue;
            }
        };
        let n_pairs = 8u64;
        let points = run_sweep(&seeds, |seed| {
            chain_point_scenario(
                seed,
                n_nodes,
                &plan,
                fidelity,
                n_pairs,
                SimDuration::from_secs(300),
            )
        });
        let latency = mean_finite(points.iter().map(|p| p.per_pair_latency));
        let fid = mean_finite(points.iter().map(|p| p.mean_fidelity));
        let n_links = n_nodes - 1;
        feasible.push((plan.link_fidelity, latency / n_links as f64));
        println!(
            "{n_nodes:7}   {n_links:5}   {:13.4}   {latency:18.3}   {fid:13.4}",
            plan.link_fidelity
        );
        baseline.point(
            format!("chain/nodes={n_nodes}"),
            &[
                ("link_fidelity_budget", plan.link_fidelity),
                ("per_pair_latency_s", latency),
                ("mean_fidelity", fid),
            ],
        );
    }
    println!("#\n# shape checks");
    let mut shapes = Shapes::default();
    shapes.check(
        "the link budget rises with the chain length",
        feasible.windows(2).all(|w| w[1].0 > w[0].0),
    );
    shapes.check(
        "per-pair latency per link rises with the chain length",
        feasible.windows(2).all(|w| w[1].1 > w[0].1),
    );

    // ---- scenario diversity: widened dumbbells --------------------------
    println!("#\n# widened dumbbell — `width` straight-across circuits over one bottleneck");
    println!("# width   completed   mean_latency_s   aggregate_thr_pairs_per_s");
    let div_seeds = seed_block(7500, n_runs);
    for width in [1usize, 2, 3, 4] {
        let points = run_sweep(&div_seeds, |seed| {
            wide_dumbbell_scenario(
                seed,
                width,
                8,
                fidelity,
                CutoffPolicy::short(),
                SimDuration::from_secs(120),
            )
        });
        let completed: usize = points.iter().map(|p| p.completed).sum();
        let circuits: usize = points.iter().map(|p| p.circuits).sum();
        let lat = mean_finite(points.iter().map(|p| p.mean_latency));
        let thr = points.iter().map(|p| p.aggregate_throughput).sum::<f64>() / n_runs as f64;
        println!("{width:5}   {completed:6}/{circuits}   {lat:14.3}   {thr:25.2}");
        baseline.point(
            format!("wide_dumbbell/width={width}"),
            &[
                ("completed", completed as f64),
                // Whole-request latency (8 pairs), not the chain
                // section's per-pair unit.
                ("mean_request_latency_s", lat),
                ("aggregate_throughput_pairs_per_s", thr),
            ],
        );
    }
    println!("#\n# not asserted: each circuit carries one 8-pair request, so the");
    println!("# aggregate throughput is 8·width/120 pairs/s by construction.");

    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s)",
        path.display(),
        threads(),
        wall_start.elapsed().as_secs_f64()
    );
    shapes.finish("ablation_chain_length");
}
