//! Open-world workload engine: sustained, randomised traffic over a
//! configurable topology, as opposed to the figures' closed scripted
//! scenarios.
//!
//! Circuits *arrive* (Poisson or diurnally-modulated Poisson), live a
//! heavy-tailed (Pareto) lifetime, carry a heavy-tailed-sized KEEP
//! request, and are torn down — the steady-state churn regime the
//! slab-backed [`qn_hardware::PairStore`] and the runtime's dense
//! per-node/per-link tables are built for. Runs use the periodic
//! decoherence checkpoint ([`CheckpointPolicy::Interval`]) so the
//! whole-store `advance_all` sweep is part of the measured hot path.
//!
//! Like every scenario, [`openworld_scenario`] is a pure function of
//! `(seed, config)`: the workload schedule is precomputed from its own
//! RNG substream before the simulation starts, so the reported
//! simulation-domain metrics (events per *simulated* second, requests
//! per simulated second) are bit-identical across repeats, thread
//! counts and machines — they are gated at `--tolerance 0` in CI.
//! Wall-clock throughput is reported separately by the bench target as
//! non-diffed metadata.

use super::keep_request;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_netsim::app::Payload;
use qn_netsim::build::NetworkBuilder;
use qn_netsim::CheckpointPolicy;
use qn_routing::{chain, grid, wide_dumbbell, CutoffPolicy, Topology};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

/// Topology the open-world traffic runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwTopology {
    /// A linear chain of `n` nodes.
    Chain {
        /// Node count (≥ 2).
        n: usize,
    },
    /// A widened Fig 7 dumbbell: `width` end-nodes per side sharing the
    /// MA–MB bottleneck.
    WideDumbbell {
        /// End-nodes per side (≥ 1).
        width: usize,
    },
    /// A `w × h` grid (row-major dense node ids).
    Grid {
        /// Grid width.
        w: usize,
        /// Grid height.
        h: usize,
    },
}

/// The circuit arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OwArrivals {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Mean arrival rate (circuits per simulated second).
        rate_hz: f64,
    },
    /// Diurnally modulated Poisson: instantaneous rate
    /// `rate_hz * (1 + depth * sin(2πt / period))`, sampled by
    /// thinning against the peak rate. `depth` in `[0, 1)`.
    Diurnal {
        /// Mean arrival rate (circuits per simulated second).
        rate_hz: f64,
        /// Modulation depth in `[0, 1)`.
        depth: f64,
        /// Modulation period.
        period: SimDuration,
    },
}

/// Full configuration of one open-world run.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenWorldConfig {
    /// Topology to run over.
    pub topology: OwTopology,
    /// Circuit arrival process.
    pub arrivals: OwArrivals,
    /// Hard cap on admitted arrivals (the arrival budget; CI smoke runs
    /// use a small fixed budget).
    pub max_arrivals: usize,
    /// Mean circuit lifetime; actual lifetimes are Pareto(α = 1.5)
    /// with this mean (heavy-tailed: a few circuits live very long).
    pub mean_lifetime: SimDuration,
    /// Cap on pairs per request; sizes are Pareto(α = 1.5) floored to
    /// an integer and clamped to `[1, max_pairs]`.
    pub max_pairs: u64,
    /// End-to-end fidelity target for every circuit.
    pub fidelity: f64,
    /// Simulated horizon; the run always ends here.
    pub horizon: SimDuration,
    /// Periodic decoherence checkpoint interval (`None` = the lazy
    /// on-touch default).
    pub checkpoint: Option<SimDuration>,
}

impl OpenWorldConfig {
    /// A small fixed-budget configuration suitable for CI smoke runs:
    /// 60 simulated seconds, at most `budget` arrivals, checkpoint
    /// sweep every 250 ms.
    pub fn smoke(topology: OwTopology, arrivals: OwArrivals, budget: usize) -> Self {
        OpenWorldConfig {
            topology,
            arrivals,
            max_arrivals: budget,
            mean_lifetime: SimDuration::from_secs(12),
            max_pairs: 6,
            fidelity: 0.8,
            horizon: SimDuration::from_secs(60),
            checkpoint: Some(SimDuration::from_millis(250)),
        }
    }
}

/// Deterministic results of one open-world run. Every field is a pure
/// function of `(seed, config)` — no wall-clock anywhere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenWorldPoint {
    /// Circuits admitted (planned and installed).
    pub circuits_admitted: usize,
    /// Arrivals the controller could not plan at the fidelity target.
    pub plan_failures: usize,
    /// Requests that completed before the horizon.
    pub requests_completed: usize,
    /// Confirmed end-to-end pairs delivered (both ends confirmed).
    pub pairs_delivered: usize,
    /// Simulation events processed.
    pub events_processed: u64,
    /// Events per *simulated* second (deterministic).
    pub events_per_sim_sec: f64,
    /// Completed requests per simulated second (deterministic).
    pub requests_per_sim_sec: f64,
    /// Confirmed pairs per simulated second (deterministic).
    pub pairs_per_sim_sec: f64,
}

/// One precomputed circuit arrival.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    at: SimTime,
    head: NodeId,
    tail: NodeId,
    n_pairs: u64,
    lifetime: SimDuration,
}

/// Pareto(α) sample with scale `xm` (support `[xm, ∞)`). For α > 1 the
/// mean is `xm · α / (α − 1)`.
fn pareto(rng: &mut SimRng, xm: f64, alpha: f64) -> f64 {
    xm / (1.0 - rng.f64()).powf(1.0 / alpha)
}

/// The deterministic candidate endpoint pairs for a topology: a small
/// set mixing path lengths, so concurrent circuits contend for shared
/// links.
fn endpoint_candidates(topology: OwTopology) -> Vec<(NodeId, NodeId)> {
    match topology {
        OwTopology::Chain { n } => {
            let last = (n - 1) as u32;
            let mid = last / 2;
            let mut c = vec![(NodeId(0), NodeId(last))];
            if mid > 0 && mid < last {
                c.push((NodeId(0), NodeId(mid)));
                c.push((NodeId(mid), NodeId(last)));
            }
            c
        }
        OwTopology::WideDumbbell { width } => {
            let w = width as u32;
            // Straight-across pairs (Ai, Bi): every circuit crosses the
            // MA-MB bottleneck.
            (0..w).map(|i| (NodeId(i), NodeId(w + 2 + i))).collect()
        }
        OwTopology::Grid { w, h } => {
            let (w, h) = (w as u32, h as u32);
            let id = |x: u32, y: u32| NodeId(y * w + x);
            vec![
                // The two diagonals plus a horizontal mid-row crossing:
                // all route through the grid interior.
                (id(0, 0), id(w - 1, h - 1)),
                (id(w - 1, 0), id(0, h - 1)),
                (id(0, h / 2), id(w - 1, h / 2)),
            ]
        }
    }
}

/// Build the topology for a config.
fn build_topology(topology: OwTopology) -> Topology {
    let (p, f) = (HardwareParams::simulation(), FibreParams::lab_2m());
    match topology {
        OwTopology::Chain { n } => chain(n, p, f),
        OwTopology::WideDumbbell { width } => wide_dumbbell(width, p, f).0,
        OwTopology::Grid { w, h } => grid(w, h, p, f),
    }
}

/// Precompute the whole arrival schedule from the workload's own RNG
/// substream. Doing this before the simulation starts keeps the
/// workload independent of the simulation's internal draws, so the
/// schedule — and therefore every simulation-domain metric — is a pure
/// function of `(seed, config)`.
fn arrival_schedule(seed: u64, cfg: &OpenWorldConfig) -> Vec<Arrival> {
    let candidates = endpoint_candidates(cfg.topology);
    let mut rng = SimRng::substream_indexed(seed, "openworld", 0);
    let horizon_s = cfg.horizon.as_secs_f64();
    // α = 1.5 ⇒ mean = 3·xm, so xm = mean / 3.
    let lifetime_xm = cfg.mean_lifetime.as_secs_f64() / 3.0;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    while out.len() < cfg.max_arrivals {
        match cfg.arrivals {
            OwArrivals::Poisson { rate_hz } => t += rng.exponential(rate_hz),
            OwArrivals::Diurnal {
                rate_hz,
                depth,
                period,
            } => {
                // Thinning: candidate events at the peak rate, accepted
                // with probability λ(t)/λ_peak.
                let peak = rate_hz * (1.0 + depth);
                loop {
                    t += rng.exponential(peak);
                    let phase = t / period.as_secs_f64() * std::f64::consts::TAU;
                    let lambda = rate_hz * (1.0 + depth * phase.sin());
                    if t >= horizon_s || rng.f64() < lambda / peak {
                        break;
                    }
                }
            }
        }
        if t >= horizon_s {
            break;
        }
        let (head, tail) = candidates[rng.below(candidates.len() as u64) as usize];
        let n_pairs = (pareto(&mut rng, 1.0, 1.5).floor() as u64).clamp(1, cfg.max_pairs);
        let lifetime = pareto(&mut rng, lifetime_xm, 1.5);
        out.push(Arrival {
            at: SimTime::ZERO + SimDuration::from_secs_f64(t),
            head,
            tail,
            n_pairs,
            lifetime: SimDuration::from_secs_f64(lifetime),
        });
    }
    out
}

/// One open-world run: install circuits as they arrive, submit their
/// requests, tear them down when their lifetime expires, stop at the
/// horizon.
pub fn openworld_scenario(seed: u64, cfg: &OpenWorldConfig) -> OpenWorldPoint {
    let schedule = arrival_schedule(seed, cfg);
    let mut builder = NetworkBuilder::new(build_topology(cfg.topology)).seed(seed);
    if let Some(dt) = cfg.checkpoint {
        builder = builder.checkpoint(CheckpointPolicy::Interval(dt));
    }
    if crate::sweep::wire_on() {
        builder = builder.signalling_on_wire();
    }
    let mut sim = builder.build();
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut admitted = 0usize;
    let mut failures = 0usize;
    let mut next_request = 1u64;
    for a in &schedule {
        // Advance to the arrival so the circuit is installed at its
        // arrival time (installation is immediate; only the protocol
        // runs through events).
        sim.run_until(a.at);
        match sim.open_circuit(a.head, a.tail, cfg.fidelity, CutoffPolicy::short()) {
            Ok(vc) => {
                admitted += 1;
                sim.submit_at(
                    a.at,
                    vc,
                    keep_request(next_request, a.head, a.tail, cfg.fidelity, a.n_pairs),
                );
                next_request += 1;
                let close = a.at + a.lifetime;
                if close < horizon {
                    sim.close_circuit_at(close, vc);
                }
            }
            Err(_) => failures += 1,
        }
    }
    sim.run_until(horizon);

    let app = sim.app();
    let requests_completed = app.completed.len();
    // A confirmed pair produces one confirmed delivery at each end
    // (Qubit directly, or EarlyQubit later confirmed by EarlyTracking).
    let confirmed_ends = app
        .deliveries
        .iter()
        .filter(|d| {
            matches!(
                d.payload,
                Payload::Qubit { .. } | Payload::EarlyTracking { .. }
            )
        })
        .count();
    let sim_secs = cfg.horizon.as_secs_f64();
    let events_processed = sim.events_processed();
    OpenWorldPoint {
        circuits_admitted: admitted,
        plan_failures: failures,
        requests_completed,
        pairs_delivered: confirmed_ends / 2,
        events_processed,
        events_per_sim_sec: events_processed as f64 / sim_secs,
        requests_per_sim_sec: requests_completed as f64 / sim_secs,
        pairs_per_sim_sec: (confirmed_ends / 2) as f64 / sim_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> OpenWorldConfig {
        OpenWorldConfig::smoke(
            OwTopology::Chain { n: 3 },
            OwArrivals::Poisson { rate_hz: 0.3 },
            8,
        )
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let cfg = smoke_cfg();
        let a = arrival_schedule(42, &cfg);
        let b = arrival_schedule(42, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!((x.head, x.tail), (y.head, y.tail));
            assert_eq!(x.n_pairs, y.n_pairs);
            assert_eq!(x.lifetime, y.lifetime);
        }
        assert!(a.len() <= cfg.max_arrivals);
        let horizon = SimTime::ZERO + cfg.horizon;
        for x in &a {
            assert!(x.at < horizon);
            assert!(x.n_pairs >= 1 && x.n_pairs <= cfg.max_pairs);
        }
    }

    #[test]
    fn diurnal_schedule_respects_budget_and_horizon() {
        let cfg = OpenWorldConfig::smoke(
            OwTopology::Chain { n: 3 },
            OwArrivals::Diurnal {
                rate_hz: 0.5,
                depth: 0.8,
                period: SimDuration::from_secs(20),
            },
            10,
        );
        let a = arrival_schedule(7, &cfg);
        assert!(a.len() <= 10);
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "arrivals must be time-ordered");
        }
    }

    #[test]
    fn scenario_runs_and_delivers() {
        let cfg = smoke_cfg();
        let p = openworld_scenario(42, &cfg);
        assert!(p.circuits_admitted > 0, "workload must admit circuits");
        assert!(p.events_processed > 0);
        assert!(
            p.requests_completed > 0,
            "some request must complete: {p:?}"
        );
        assert!(p.pairs_delivered >= p.requests_completed);
    }

    #[test]
    fn scenario_is_deterministic() {
        let cfg = OpenWorldConfig::smoke(
            OwTopology::Grid { w: 3, h: 2 },
            OwArrivals::Poisson { rate_hz: 0.3 },
            6,
        );
        assert_eq!(openworld_scenario(9, &cfg), openworld_scenario(9, &cfg));
    }

    #[test]
    fn candidates_cover_all_topologies() {
        assert_eq!(endpoint_candidates(OwTopology::Chain { n: 2 }).len(), 1);
        assert_eq!(endpoint_candidates(OwTopology::Chain { n: 5 }).len(), 3);
        assert_eq!(
            endpoint_candidates(OwTopology::WideDumbbell { width: 3 }).len(),
            3
        );
        let g = endpoint_candidates(OwTopology::Grid { w: 3, h: 3 });
        assert_eq!(g.len(), 3);
        for (a, b) in g {
            assert_ne!(a, b);
        }
    }
}
