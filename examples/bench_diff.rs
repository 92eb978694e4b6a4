//! Compare two benchmark baseline directories and flag regressions.
//!
//! ```sh
//! cargo run --release --example bench_diff                  # baselines/ vs target/qnp-bench
//! cargo run --release --example bench_diff -- ref_dir cand_dir
//! cargo run --release --example bench_diff -- --tolerance 0.25 --report-only baselines target/qnp-bench
//! ```
//!
//! For every `<figure>.json` in the reference directory, the candidate's
//! file of the same name is diffed metric by metric; movements beyond
//! the tolerance are classified by each metric's declared direction
//! (throughput down / latency up ⇒ regression). Exits non-zero when a
//! regression, a reference metric/point missing from the candidate, or
//! a reference or candidate file that does not parse is found, unless
//! `--report-only` is given (the CI smoke job's non-blocking mode). A
//! candidate file that does not exist (bench not run) is skipped.
//!
//! Simulation statistics with few seeds are noisy, so the default
//! tolerance is deliberately wide (25 %); the `QNP_RUNS=2` reference
//! under `baselines/` is a smoke reference, not a precision one.

use qn_bench::report::{diff_dirs, DiffKind, FigureDiff};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    reference: PathBuf,
    candidate: PathBuf,
    tolerance: f64,
    /// The tolerance as typed, for the header.
    tolerance_text: String,
    report_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        reference: PathBuf::from("baselines"),
        candidate: qn_bench::baseline_dir(),
        tolerance: 0.25,
        tolerance_text: "0.25".into(),
        report_only: false,
    };
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let v = it.next().expect("--tolerance needs a value");
                args.tolerance = v.parse().expect("--tolerance must be a number");
                args.tolerance_text = v;
            }
            "--report-only" => args.report_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench_diff [--tolerance REL] [--report-only] [REFERENCE_DIR [CANDIDATE_DIR]]"
                );
                std::process::exit(0);
            }
            other => positional.push(PathBuf::from(other)),
        }
    }
    if let Some(p) = positional.first() {
        args.reference = p.clone();
    }
    if let Some(p) = positional.get(1) {
        args.candidate = p.clone();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    println!(
        "# bench_diff — reference {} vs candidate {} (relative tolerance {})",
        args.reference.display(),
        args.candidate.display(),
        args.tolerance_text
    );

    let figures = match diff_dirs(&args.reference, &args.candidate, args.tolerance) {
        Ok(figures) => figures,
        Err(e) => {
            eprintln!(
                "cannot read reference dir {}: {e}",
                args.reference.display()
            );
            return ExitCode::from(2);
        }
    };
    if figures.is_empty() {
        eprintln!("no *.json baselines under {}", args.reference.display());
        return ExitCode::from(2);
    }

    let mut total_regressions = 0usize;
    let mut total_flagged = 0usize;
    let mut total_missing = 0usize;
    let mut total_unreadable = 0usize;
    for (name, diff) in figures {
        let (points, report) = match diff {
            FigureDiff::CandidateMissing => {
                println!("## {name}: candidate missing (bench not run) — skipped");
                continue;
            }
            FigureDiff::Unreadable(e) => {
                // A file that does not parse compares nothing: fail the
                // gate rather than pass it silently.
                println!("## {name}: UNREADABLE — {e}");
                total_unreadable += 1;
                continue;
            }
            FigureDiff::Compared { points, report } => (points, report),
        };
        if report.is_clean() {
            println!("## {name}: clean ({points} points)");
            continue;
        }
        println!(
            "## {name}: {} flagged, {} regressions, {} missing",
            report.entries.len(),
            report.regressions(),
            report.missing()
        );
        for e in &report.entries {
            let tag = match e.kind {
                DiffKind::Regression => "REGRESSION",
                DiffKind::Improvement => "improvement",
                DiffKind::Change => "change",
                DiffKind::Missing => "MISSING",
                DiffKind::New => "new",
            };
            println!(
                "  {tag:<11} {}/{}: {} -> {} ({:+.1}%)",
                e.point,
                e.metric,
                e.reference,
                e.candidate,
                e.rel_change * 100.0
            );
        }
        total_regressions += report.regressions();
        // A reference metric/point absent from the candidate is lost
        // gate coverage — block on it like a regression, otherwise a
        // renamed metric silently stops being guarded.
        total_missing += report.missing();
        total_flagged += report.entries.len();
    }

    println!(
        "#\n# total: {total_flagged} flagged, {total_regressions} regressions, {total_missing} missing, {total_unreadable} unreadable"
    );
    if (total_regressions > 0 || total_missing > 0 || total_unreadable > 0) && !args.report_only {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
