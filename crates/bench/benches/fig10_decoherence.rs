//! **Figure 10** — robustness against decoherence.
//!
//! * (a,b): throughput of two competing circuits (A0-B0 at F=0.9, A1-B1
//!   at F=0.8) as the memory lifetime T2* shrinks, for the QNP's cutoff
//!   mechanism vs the oracle baseline ("simpler protocol" that discards
//!   end-to-end pairs below fidelity using the simulation's backdoor).
//! * (c): throughput vs injected classical message delay at T2* ≈ 1.6 s;
//!   the dashed vertical line in the paper is the cutoff value.
//!
//! Paper shapes to reproduce: throughput falls with T2*; the F=0.9
//! circuit is hit harder ("low, but not zero"); the cutoff beats the
//! oracle; delay has no effect until it approaches the cutoff.
//!
//! Asserted: cutoff ≥ oracle at the shortest T2*, delay below half the
//! cutoff harmless, delay beyond twice the cutoff collapsing. The bench
//! writes its baseline, then exits 1 naming every broken shape.
//!
//! Run: `cargo bench --bench fig10_decoherence` (knobs: `QNP_RUNS`
//! default 3, `QNP_THREADS` sweep workers).

use qn_bench::{
    fig10ab_scenario, fig10c_scenario, run_sweep, runs, seed_block, threads, Baseline, Direction,
    Fig10Variant, Shapes,
};
use qn_sim::SimDuration;

fn main() {
    let wall_start = std::time::Instant::now();
    let n_runs = runs(3);
    println!("# Figure 10 — decoherence robustness (runs={n_runs})");

    let mut baseline = Baseline::new("fig10_decoherence")
        .config_num("runs", n_runs as f64)
        .direction("thr_f09_pairs_per_s", Direction::HigherIsBetter)
        .direction("thr_f08_pairs_per_s", Direction::HigherIsBetter)
        .direction("good_f09", Direction::HigherIsBetter)
        .direction("good_f08", Direction::HigherIsBetter)
        .direction("raw_f09", Direction::Informational)
        .direction("raw_f08", Direction::Informational)
        .direction("cutoff_s", Direction::Informational);

    // ---- panels (a, b): throughput vs memory lifetime ------------------
    let t2_values = [0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 60.0];
    let ab_seeds = seed_block(3000, n_runs);
    let mut cutoff_thr_at_min = [0.0f64; 2];
    let mut oracle_thr_at_min = [0.0f64; 2];
    for variant in [Fig10Variant::Cutoff, Fig10Variant::OracleBaseline] {
        let variant_key = match variant {
            Fig10Variant::Cutoff => "cutoff",
            Fig10Variant::OracleBaseline => "oracle",
        };
        println!(
            "#\n# panel a/b — variant: {}",
            match variant {
                Fig10Variant::Cutoff => "QNP cutoff",
                Fig10Variant::OracleBaseline => "oracle baseline (no cutoff, oracle filter)",
            }
        );
        println!("# T2_s   thr_F0.9_pairs_per_s   thr_F0.8_pairs_per_s");
        for (i, t2) in t2_values.iter().enumerate() {
            let points = run_sweep(&ab_seeds, |seed| fig10ab_scenario(seed, *t2, variant));
            let a = points.iter().map(|p| p.thr_f09).sum::<f64>() / n_runs as f64;
            let b = points.iter().map(|p| p.thr_f08).sum::<f64>() / n_runs as f64;
            println!("{t2:6.2}   {a:20.2}   {b:20.2}");
            baseline.point(
                format!("ab/{variant_key}/t2={t2}"),
                &[("thr_f09_pairs_per_s", a), ("thr_f08_pairs_per_s", b)],
            );
            if i == 0 {
                match variant {
                    Fig10Variant::Cutoff => cutoff_thr_at_min = [a, b],
                    Fig10Variant::OracleBaseline => oracle_thr_at_min = [a, b],
                }
            }
        }
    }

    // ---- panel (c): throughput vs message delay ------------------------
    println!("#\n# panel c — throughput vs extra per-hop message delay (T2*=1.6 s)");
    println!("# delay_ms   good_F0.9   good_F0.8   raw_F0.9   raw_F0.8");
    let delays_ms = [0u64, 1, 2, 5, 10, 15, 20, 30, 50, 100];
    let c_seeds = seed_block(4000, n_runs);
    let mut series_good = Vec::new();
    let mut cutoff_line = f64::NAN;
    for delay in delays_ms {
        let extra = SimDuration::from_millis(delay);
        let points = run_sweep(&c_seeds, |seed| fig10c_scenario(seed, extra));
        let mut good = [0.0f64; 2];
        let mut raw = [0.0f64; 2];
        for p in &points {
            good[0] += p.good[0];
            good[1] += p.good[1];
            raw[0] += p.raw[0];
            raw[1] += p.raw[1];
            cutoff_line = p.cutoff_s;
        }
        for v in good.iter_mut().chain(raw.iter_mut()) {
            *v /= n_runs as f64;
        }
        println!(
            "{delay:8}   {:9.2}   {:9.2}   {:8.2}   {:8.2}",
            good[0], good[1], raw[0], raw[1]
        );
        baseline.point(
            format!("c/delay_ms={delay}"),
            &[
                ("good_f09", good[0]),
                ("good_f08", good[1]),
                ("raw_f09", raw[0]),
                ("raw_f08", raw[1]),
                ("cutoff_s", cutoff_line),
            ],
        );
        series_good.push((delay as f64 / 1000.0, good[0]));
    }
    println!(
        "# cutoff (dashed line in the paper): {:.1} ms",
        cutoff_line * 1e3
    );

    // ---- shape checks ---------------------------------------------------
    println!("#\n# shape checks");
    let mut shapes = Shapes::default();
    shapes.check(
        format!(
            "cutoff ≥ oracle at shortest T2 ({:.2},{:.2}) vs ({:.2},{:.2})",
            cutoff_thr_at_min[0], cutoff_thr_at_min[1], oracle_thr_at_min[0], oracle_thr_at_min[1],
        ),
        cutoff_thr_at_min[0] >= oracle_thr_at_min[0]
            && cutoff_thr_at_min[1] >= oracle_thr_at_min[1],
    );
    // Delay robustness: useful throughput before the cutoff ≈ at zero
    // delay; beyond the cutoff it collapses.
    let at_zero = series_good.first().map(|p| p.1).unwrap_or(f64::NAN);
    let below: Vec<f64> = series_good
        .iter()
        .filter(|(d, _)| *d < cutoff_line * 0.5)
        .map(|(_, g)| *g)
        .collect();
    let above: Vec<f64> = series_good
        .iter()
        .filter(|(d, _)| *d > cutoff_line * 2.0)
        .map(|(_, g)| *g)
        .collect();
    shapes.check(
        "delay below cutoff leaves useful throughput intact",
        below.iter().all(|g| *g > 0.6 * at_zero),
    );
    shapes.check(
        "delay beyond cutoff collapses useful throughput",
        above.iter().all(|g| *g < 0.5 * at_zero),
    );

    let path = baseline.write().expect("write baseline");
    println!(
        "# baseline: {} ({} threads, wall-clock {:.2} s)",
        path.display(),
        threads(),
        wall_start.elapsed().as_secs_f64()
    );
    shapes.finish("fig10_decoherence");
}
