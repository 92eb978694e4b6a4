//! Compare two benchmark baseline directories and fail on any difference.
//!
//! ```sh
//! cargo run --release --example bench_diff                  # baselines/ vs target/qnp-bench
//! cargo run --release --example bench_diff -- ref_dir cand_dir
//! cargo run --release --example bench_diff -- --tolerance 1e-9 baselines target/qnp-bench
//! ```
//!
//! For every `<figure>.json` in the reference directory, the candidate's
//! file of the same name is diffed metric by metric. A metric whose
//! relative change exceeds the tolerance (default 0) in either direction,
//! a NaN on one side only, and a point or metric on one side only are
//! flagged, each printed as reference -> candidate with its relative
//! change. Exits 1 on any flagged entry and on a reference or candidate
//! file that does not parse. A candidate file that does not exist (bench
//! not run) is skipped.

use qn_bench::report::{diff_dirs, FigureDiff};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    reference: PathBuf,
    candidate: PathBuf,
    tolerance: f64,
    /// The tolerance as typed, for the header.
    tolerance_text: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        reference: PathBuf::from("baselines"),
        candidate: qn_bench::baseline_dir(),
        tolerance: 0.0,
        tolerance_text: "0".into(),
    };
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let v = it.next().expect("--tolerance needs a value");
                args.tolerance = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| *t >= 0.0)
                    .expect("--tolerance must be a non-negative number");
                args.tolerance_text = v;
            }
            "--help" | "-h" => {
                println!("usage: bench_diff [--tolerance REL] [REFERENCE_DIR [CANDIDATE_DIR]]");
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

fn show(value: Option<f64>) -> String {
    value.map_or_else(|| "absent".into(), |v| v.to_string())
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

    let mut flagged = 0usize;
    let mut unreadable = 0usize;
    for (name, diff) in figures {
        match diff {
            FigureDiff::CandidateMissing => {
                println!("## {name}: candidate missing (bench not run) — skipped");
            }
            FigureDiff::Unreadable(e) => {
                // A file that does not parse compares nothing: fail the
                // gate rather than pass it silently.
                println!("## {name}: UNREADABLE — {e}");
                unreadable += 1;
            }
            FigureDiff::Compared { points, report } if report.is_clean() => {
                println!("## {name}: clean ({points} points)");
            }
            FigureDiff::Compared { report, .. } => {
                println!("## {name}: {} flagged", report.entries.len());
                for e in &report.entries {
                    println!(
                        "  {}/{}: {} -> {} (relative change {:+.3e})",
                        e.point,
                        e.metric,
                        show(e.reference),
                        show(e.candidate),
                        e.rel_change()
                    );
                }
                flagged += report.entries.len();
            }
        }
    }

    println!("#\n# total: {flagged} flagged, {unreadable} unreadable");
    if flagged + unreadable > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
