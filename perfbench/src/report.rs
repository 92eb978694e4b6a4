//! Turning runs into named metrics.

use std::time::Duration;

use crate::net::Span;
use crate::workloads::{Outcome, Rep};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `layer.quantity` for per-layer metrics.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of host times, in seconds.
pub fn median_s(times: impl IntoIterator<Item = Duration>) -> f64 {
    let mut v: Vec<f64> = times.into_iter().map(|d| d.as_secs_f64()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The fastest set-up and run time seen for each timed configuration.
///
/// Contention from other tenants of the host only ever adds time, and it
/// comes and goes within a second, so the fastest of several runs of the
/// same simulation is the steadiest estimate of its own cost.
#[derive(Debug)]
pub struct Fastest {
    setup: Vec<Duration>,
    wall: Vec<Duration>,
}

impl Fastest {
    /// Nothing seen yet, for `n` configurations.
    pub fn new(n: usize) -> Fastest {
        Fastest {
            setup: vec![Duration::MAX; n],
            wall: vec![Duration::MAX; n],
        }
    }

    /// Record a run of configuration `i`.
    pub fn record(&mut self, i: usize, rep: &Rep) {
        self.setup[i] = self.setup[i].min(rep.setup);
        self.wall[i] = self.wall[i].min(rep.wall);
    }

    /// Summed fastest set-up times, seconds.
    pub fn setup(&self) -> f64 {
        self.setup.iter().sum::<Duration>().as_secs_f64()
    }

    /// Summed fastest run times, seconds.
    pub fn wall(&self) -> f64 {
        self.wall.iter().sum::<Duration>().as_secs_f64()
    }
}

/// Read the process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics: host times of the timed configurations, each
/// at its fastest untraced run ([`Fastest`]), simulated quantities from
/// the workload's outcome.
pub fn end_to_end(fastest: &Fastest, out: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", fastest.wall(), "s"),
        metric("setup_s", fastest.setup(), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric(
            "pairs_per_sim_s",
            ratio(out.pairs as f64, out.sim_seconds),
            "pairs/s",
        ),
        metric(
            "fidelity_mean",
            ratio(out.fidelity_sum, out.fidelity_n as f64),
            "fidelity",
        ),
        metric("latency_p50_sim_s", percentile(&out.latencies, 0.50), "s"),
        metric("latency_p95_sim_s", percentile(&out.latencies, 0.95), "s"),
        metric(
            "requests_failed_share",
            ratio(out.units_failed as f64, out.units as f64),
            "ratio",
        ),
    ]
}

/// Mean traced pass: run wall time and the profile, averaged over passes.
pub struct Layers {
    /// Mean run-phase wall time of the traced passes, seconds.
    pub wall: f64,
    /// Mean span times, seconds, indexed like [`Span::ALL`].
    pub span: [f64; Span::ALL.len()],
    /// Span calls in one pass.
    pub calls: [u64; Span::ALL.len()],
    /// Mean routing time inside the run phase, seconds.
    pub routing_in_run: f64,
}

impl Layers {
    /// Average the traced passes (at least one).
    pub fn of(traced: &[Rep]) -> Layers {
        let n = traced.len() as f64;
        let mut span = [0.0; Span::ALL.len()];
        let mut wall = 0.0;
        let mut routing_in_run = 0.0;
        for r in traced {
            wall += r.wall.as_secs_f64() / n;
            routing_in_run += r.profile.routing_in_run.as_secs_f64() / n;
            for (s, t) in span.iter_mut().zip(r.profile.time) {
                *s += t.as_secs_f64() / n;
            }
        }
        Layers {
            wall,
            span,
            calls: traced[0].profile.calls,
            routing_in_run,
        }
    }

    /// Mean time of one span, seconds.
    pub fn span(&self, s: Span) -> f64 {
        self.span[s as usize]
    }

    /// Span calls per pass.
    pub fn calls(&self, s: Span) -> u64 {
        self.calls[s as usize]
    }

    /// Engine self time: run wall time minus every event span and the
    /// routing calls made during the run.
    pub fn engine_self(&self) -> f64 {
        let events: f64 = Span::ALL
            .into_iter()
            .filter(|s| !s.is_routing())
            .map(|s| self.span(s))
            .sum();
        self.wall - events - self.routing_in_run
    }
}

/// The per-layer metrics of the timed configurations: spans from the
/// traced passes, counts from their outcome `out`, tracing overhead
/// against the untraced passes.
pub fn per_layer(
    fastest: &Fastest,
    untraced: &[Rep],
    traced: &[Rep],
    out: &Outcome,
) -> Vec<Metric> {
    let l = Layers::of(traced);
    let untraced_wall = median_s(untraced.iter().map(|r| r.wall));
    let traced_wall = median_s(traced.iter().map(|r| r.wall));
    let ns = |secs: f64, n: u64| ratio(secs * 1e9, n as f64);
    let events = out.events;
    let pairs_generated = l.calls(Span::LinkGen);
    vec![
        metric("engine.events", events as f64, "count"),
        metric("engine.self_s", l.engine_self(), "s"),
        metric("engine.ns_per_event", ns(fastest.wall(), events), "ns"),
        metric(
            "engine.trace_overhead_share",
            ratio(traced_wall - untraced_wall, untraced_wall),
            "ratio",
        ),
        metric("plane.deliver_s", l.span(Span::PlaneDeliver), "s"),
        metric(
            "plane.ns_per_frame",
            ns(l.span(Span::PlaneDeliver), out.frames_delivered),
            "ns",
        ),
        metric("plane.frames_sent", out.frames_sent as f64, "count"),
        metric(
            "plane.frames_per_batch",
            ratio(out.frames_delivered as f64, out.batches as f64),
            "frames/batch",
        ),
        metric("plane.wire_bytes", out.wire_bytes as f64, "bytes"),
        metric("plane.dropped", out.dropped as f64, "count"),
        metric("plane.decode_failures", out.decode_failures as f64, "count"),
        metric("signal.timer_s", l.span(Span::SignalTimer), "s"),
        metric("signal.retransmits", out.retransmits as f64, "count"),
        metric(
            "signal.retransmits_abandoned",
            out.retransmits_abandoned as f64,
            "count",
        ),
        metric(
            "signal.useful_frame_share",
            ratio(
                out.frames_sent.saturating_sub(out.retransmits) as f64,
                out.frames_sent as f64,
            ),
            "ratio",
        ),
        metric("link.gen_done_s", l.span(Span::LinkGen), "s"),
        metric("link.pairs_generated", pairs_generated as f64, "count"),
        metric(
            "link.ns_per_pair",
            ns(l.span(Span::LinkGen), pairs_generated),
            "ns",
        ),
        metric("quantum.swap_s", l.span(Span::QuantumSwap), "s"),
        metric("quantum.swaps", l.calls(Span::QuantumSwap) as f64, "count"),
        metric(
            "quantum.ns_per_swap",
            ns(l.span(Span::QuantumSwap), l.calls(Span::QuantumSwap)),
            "ns",
        ),
        metric("quantum.measure_s", l.span(Span::QuantumMeasure), "s"),
        metric("qnp.cutoff_s", l.span(Span::QnpCutoff), "s"),
        metric("qnp.cutoffs", l.calls(Span::QnpCutoff) as f64, "count"),
        metric("qnp.anomalies_absorbed", out.anomalies as f64, "count"),
        metric("qnp.state_mismatches", out.state_mismatches as f64, "count"),
        metric("pairs.checkpoint_s", l.span(Span::PairsCheckpoint), "s"),
        metric("pairs.discarded", out.discarded as f64, "count"),
        metric(
            "pairs.discard_share",
            ratio(out.discarded as f64, pairs_generated as f64),
            "ratio",
        ),
        metric("pairs.live_at_end", out.live_at_end as f64, "count"),
        metric("routing.plan_s", l.span(Span::RoutingPlan), "s"),
        metric("routing.install_s", l.span(Span::RoutingInstall), "s"),
        metric("routing.plans", out.plans as f64, "count"),
        metric("routing.plan_failures", out.plan_failures as f64, "count"),
        metric("app.submit_s", l.span(Span::AppSubmit), "s"),
        metric(
            "app.ns_per_submit",
            ns(l.span(Span::AppSubmit), l.calls(Span::AppSubmit)),
            "ns",
        ),
        metric("app.teardown_s", l.span(Span::AppTeardown), "s"),
        metric("app.requests_completed", out.completed as f64, "count"),
        metric("app.latency_samples", out.latencies.len() as f64, "count"),
        metric("faults.component_s", l.span(Span::Faults), "s"),
    ]
}

/// The result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
