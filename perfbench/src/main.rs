//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or, with `all`, each workload in a child process):
//! every configuration once, then the timed ones repeatedly for about
//! `--seconds` of host time. Checks the simulated outcome, prints every
//! metric by name with its unit, and ends with one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero when the correctness gate
//! fails.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use perfbench::net::{Facade, Traced};
use perfbench::report::{end_to_end, json_line, peak_rss_mb, per_layer, Fastest, Metric};
use perfbench::workloads::{Config, Rep, Run, Workload};

/// Fewest timed untraced passes, however long they take.
const MIN_PASSES: usize = 3;
/// Fewest untraced + traced pairs of passes in a traced run.
const MIN_TRACED_PASSES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

/// Refuse the knobs that switch the engine or the signalling mode behind
/// the workload's back, and pin the state representation.
fn pin_environment(workload: Workload) -> Result<(), String> {
    for knob in ["QNP_SHARDS", "QNP_WIRE"] {
        if std::env::var_os(knob).is_some() {
            return Err(format!(
                "{knob} is set; it changes what the workloads simulate, unset it"
            ));
        }
    }
    // `RuntimeConfig::default()` reads the representation from the
    // environment and the façade has no setter for it. The process is
    // still single-threaded here.
    std::env::set_var("QNP_QSTATE", workload.rep().as_str());
    Ok(())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "{:<32} {:>24} {}",
            m.name,
            format!("{:.9}", m.value),
            m.unit
        );
    }
}

/// Run one workload in this process; returns whether it was correct.
fn run_one(workload: Workload, args: &Args) -> bool {
    let seed = args.seed;
    println!(
        "# perfbench workload={} seed={seed} seconds={} trace={}",
        workload.name(),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# env: available_parallelism={} rustc=\"{}\" profile={} qstate={} threads=1{}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        workload.rep().as_str(),
        std::env::var("QNP_THREADS")
            .map(|v| format!(" (QNP_THREADS={v} ignored)"))
            .unwrap_or_default(),
    );

    // The reference run of every configuration doubles as warm-up and
    // gives the simulated metrics. The timed loop then repeats the
    // configurations of the first derived seed in passes; every repeat,
    // untraced or traced, must reproduce its reference outcome exactly.
    let configs = workload.configs(seed, 1.0);
    let timed = &configs[..workload.timed_len()];
    let reference: Vec<Run> = configs.iter().map(Config::run::<Facade>).collect();
    let mut problems = Vec::new();
    if let Err(e) = workload.shape(&configs, &reference) {
        problems.push(e);
    }
    let mut failed = u64::from(!problems.is_empty());
    let mut attempted = configs.len() as u64;
    let mut check = |run: &mut Run, i: usize, what: &str| -> u64 {
        let want = &reference[i].rep.outcome;
        let same = run.rep.outcome == *want;
        if !same {
            problems.push(format!(
                "{what} of {:?}: digest {:016x} differs from the reference's {:016x}",
                configs[i], run.rep.outcome.digest, want.digest
            ));
        }
        // Passes keep only their host times and profile, so holding them
        // does not add to the peak memory the run reports.
        run.rep.outcome.latencies = Vec::new();
        u64::from(!same)
    };

    let min_passes = if args.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut fastest = Fastest::new(timed.len());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while start.elapsed() < budget || untraced.len() < min_passes {
        let mut runs = Vec::with_capacity(timed.len());
        for (i, c) in timed.iter().enumerate() {
            let mut run = c.run::<Facade>();
            failed += check(&mut run, i, "repeat run");
            fastest.record(i, &run.rep);
            runs.push(run.rep);
        }
        untraced.push(Rep::of(&runs));
        if args.trace {
            runs.clear();
            for (i, c) in timed.iter().enumerate() {
                let mut run = c.run::<Traced>();
                failed += check(&mut run, i, "traced run");
                runs.push(run.rep);
            }
            traced.push(Rep::of(&runs));
        }
        attempted += (timed.len() * (1 + usize::from(args.trace))) as u64;
    }
    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("perfbench: {}: {p}", workload.name());
    }

    let out = Rep::of(reference.iter().map(|r| &r.rep)).outcome;
    let e2e = end_to_end(&fastest, &out, peak_rss_mb());
    println!(
        "# simulated: digest={:016x} configurations={} events={} latency_samples={} units={} failed={}",
        out.digest,
        configs.len(),
        out.events,
        out.latencies.len(),
        out.units,
        out.units_failed
    );
    let walls = |passes: &[Rep]| -> Vec<String> {
        passes
            .iter()
            .map(|r| format!("{:.3}", r.wall.as_secs_f64()))
            .collect()
    };
    println!(
        "# timed: {} configurations, pass wall_s untraced=[{}] traced=[{}]",
        timed.len(),
        walls(&untraced).join(" "),
        walls(&traced).join(" ")
    );
    print_metrics("end-to-end", &e2e);
    let shown = if args.trace {
        let timed_out = Rep::of(reference[..timed.len()].iter().map(|r| &r.rep)).outcome;
        let layers = per_layer(&fastest, &untraced, &traced, &timed_out);
        print_metrics("per-layer", &layers);
        layers
    } else {
        e2e
    };
    println!("{}", json_line(correct, attempted, failed, &shown));
    correct
}

/// `--workload all`: each workload in its own process, so each reports
/// its own peak memory.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        let Some(workload) = Workload::from_name(&args.workload) else {
            eprintln!("perfbench: unknown workload {:?}", args.workload);
            return ExitCode::from(2);
        };
        if let Err(e) = pin_environment(workload) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
        run_one(workload, &args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
