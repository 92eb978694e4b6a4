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
//! contending for the single MA–MB bottleneck, each with a long-running
//! request, their confirmed pairs counted over a fixed window after a
//! warm-up.
//!
//! Asserted, over the feasible chains: the link-fidelity budget and the
//! per-pair latency per link both rise with the chain length (the
//! latency grows super-linearly). Over the widths: the aggregate
//! throughput saturates at the bottleneck rate, so it does not grow
//! past width 2, and each circuit's pair interval rises with the width.
//! The bench writes its baseline, then exits 1 naming each broken
//! shape.
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
        .direction("mean_fidelity", Direction::HigherIsBetter)
        .direction(
            "aggregate_throughput_pairs_per_s",
            Direction::HigherIsBetter,
        )
        .direction("pair_interval_s", Direction::LowerIsBetter);

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
    let (warmup, window) = (SimDuration::from_secs(2), SimDuration::from_secs(10));
    println!("#\n# widened dumbbell — `width` straight-across circuits over one bottleneck,");
    println!(
        "# a long-running request each, pairs counted over {:.0} s after {:.0} s",
        window.as_secs_f64(),
        warmup.as_secs_f64()
    );
    println!("# width   aggregate_thr_pairs_per_s   pair_interval_s");
    let div_seeds = seed_block(7500, n_runs);
    // (aggregate throughput, per-circuit pair interval) by width.
    let mut wide = Vec::new();
    for width in [1usize, 2, 3, 4] {
        let points = run_sweep(&div_seeds, |seed| {
            wide_dumbbell_scenario(seed, width, fidelity, CutoffPolicy::short(), warmup, window)
        });
        let thr = points.iter().map(|p| p.aggregate_throughput).sum::<f64>() / n_runs as f64;
        // A circuit's pair interval: the window over the pairs one
        // circuit confirmed in it (infinite, so skipped, at zero).
        let interval = mean_finite(
            points
                .iter()
                .map(|p| p.circuits as f64 / p.aggregate_throughput),
        );
        wide.push((thr, interval));
        println!("{width:5}   {thr:25.2}   {interval:15.4}");
        baseline.point(
            format!("wide_dumbbell/width={width}"),
            &[
                ("aggregate_throughput_pairs_per_s", thr),
                ("pair_interval_s", interval),
            ],
        );
    }
    println!("#\n# widened-dumbbell shape checks");
    shapes.check(
        "aggregate throughput does not grow past width 2",
        wide[2..].iter().all(|w| w.0 <= wide[1].0),
    );
    shapes.check(
        "each circuit's pair interval rises with the width",
        wide.windows(2).all(|w| w[1].1 > w[0].1),
    );

    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s)",
        path.display(),
        threads(),
        wall_start.elapsed().as_secs_f64()
    );
    shapes.finish("ablation_chain_length");
}
