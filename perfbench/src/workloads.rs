//! The three paper workloads, generic over how the simulator is run
//! ([`Net`]).
//!
//! A workload is a list of *configurations*, one simulation each: every
//! point of its figure under each seed derived from the run's seed. A
//! configuration's simulated outcome is a pure function of its seed; its
//! host time is split at its first dispatched event into set-up and run.

use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use qn_hardware::params::{FibreParams, HardwareParams};
use qn_hardware::StateRep;
use qn_net::{Address, CircuitId, Demand, RequestId, RequestType, UserRequest};
use qn_netsim::{ClassicalFaults, Payload};
use qn_routing::{dumbbell, grid, CutoffPolicy};
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

use crate::net::{Net, Options, Profile};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 9: latency and throughput, empty and congested dumbbell.
    Fig9,
    /// Fig 10a,b: throughput across the T2 grid under dense states.
    Fig10Dm,
    /// Open-world Poisson circuits on a 3×3 grid, signalling on a lossy
    /// wire.
    OpenworldWire,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Fig9, Workload::Fig10Dm, Workload::OpenworldWire];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9 => "fig9",
            Workload::Fig10Dm => "fig10_dm",
            Workload::OpenworldWire => "openworld_wire",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pair-state representation the workload is pinned to.
    pub fn rep(self) -> StateRep {
        match self {
            Workload::Fig9 | Workload::OpenworldWire => StateRep::Bell,
            Workload::Fig10Dm => StateRep::Dm,
        }
    }

    /// Every configuration of the workload for one run seed, with
    /// simulated horizons scaled by `scale` (the benchmark uses 1; tests
    /// use short runs). Seed-major: the configurations of the first
    /// derived seed come first.
    pub fn configs(self, seed: u64, scale: f64) -> Vec<Config> {
        let k = self.seeds_per_run();
        let mut out = Vec::new();
        for i in 0..k {
            let seed = seed.wrapping_mul(k).wrapping_add(i);
            let mut push = |point| out.push(Config { seed, scale, point });
            match self {
                Workload::Fig9 => {
                    for congested in [false, true] {
                        for interval_ms in FIG9_INTERVALS_MS {
                            push(Point::Fig9 {
                                congested,
                                interval_ms,
                            });
                        }
                    }
                }
                Workload::Fig10Dm => {
                    for oracle in [false, true] {
                        for t2 in FIG10_T2_S {
                            push(Point::Fig10 { oracle, t2 });
                        }
                    }
                }
                Workload::OpenworldWire => push(Point::Openworld),
            }
        }
        out
    }

    /// How many of [`Workload::configs`] the timed loop repeats: those
    /// of the first derived seeds, whole figures.
    pub fn timed_len(self) -> usize {
        let per_seed = self.configs(0, 1.0).len() / self.seeds_per_run() as usize;
        per_seed * self.timed_seeds()
    }

    /// Derived seeds whose configurations the timed loop repeats. The
    /// open world's host time differs by up to a sixth from one seed's
    /// arrivals to another's, so it pools four; a Fig 9 or Fig 10 figure
    /// already pools 16 or 18 simulations.
    fn timed_seeds(self) -> usize {
        match self {
            Workload::Fig9 | Workload::Fig10Dm => 1,
            Workload::OpenworldWire => 4,
        }
    }

    /// Run every configuration once and fold the runs.
    pub fn run<N: Net>(self, seed: u64, scale: f64) -> Rep {
        let runs: Vec<Run> = self
            .configs(seed, scale)
            .iter()
            .map(Config::run::<N>)
            .collect();
        Rep::of(runs.iter().map(|r| &r.rep))
    }

    /// Simulation seeds per run of the workload, derived from the run's
    /// seed: enough that the simulated metrics vary little from one run
    /// seed to the next (the backlog tail of Fig 9 and the loss-driven
    /// tail of the open world need the most).
    fn seeds_per_run(self) -> u64 {
        match self {
            Workload::Fig9 => 8,
            Workload::Fig10Dm => 6,
            Workload::OpenworldWire => 12,
        }
    }

    /// The paper shape the workload must reproduce, checked on one run
    /// of each of its configurations, or why it did not.
    pub fn shape(self, configs: &[Config], runs: &[Run]) -> Result<(), String> {
        let points = configs.iter().zip(runs);
        match self {
            // The congested circuit saturates above half the empty rate
            // (throughput over 40–50 s, the best interval of each case).
            Workload::Fig9 => {
                let mut delivered = [[0usize; FIG9_INTERVALS_MS.len()]; 2];
                for (c, r) in points {
                    if let Point::Fig9 {
                        congested,
                        interval_ms,
                    } = c.point
                    {
                        let i = FIG9_INTERVALS_MS.iter().position(|&ms| ms == interval_ms);
                        delivered[usize::from(congested)][i.expect("a Fig 9 interval")] +=
                            r.counted[0];
                    }
                }
                let window = FIG9_WINDOW_S * configs[0].scale;
                let [empty, congested] = delivered.map(|case| {
                    let best = case.into_iter().max().unwrap_or(0);
                    best as f64 / window / self.seeds_per_run() as f64
                });
                if congested <= 0.5 * empty {
                    return Err(format!(
                        "fig9: congested saturation {congested:.2} pairs/s is not above half the empty {empty:.2}"
                    ));
                }
            }
            // At the shortest T2* the cutoff variant delivers at least as
            // many pairs as the oracle on both circuits.
            Workload::Fig10Dm => {
                let mut shortest = [[0usize; 2]; 2];
                for (c, r) in points {
                    if let Point::Fig10 { oracle, t2 } = c.point {
                        if t2 == FIG10_T2_S[0] {
                            let s = &mut shortest[usize::from(oracle)];
                            s[0] += r.counted[0];
                            s[1] += r.counted[1];
                        }
                    }
                }
                let [cutoff, oracle] = shortest;
                if cutoff[0] < oracle[0] || cutoff[1] < oracle[1] {
                    return Err(format!(
                        "fig10: at T2* = {} s the cutoff delivers {cutoff:?} pairs, below the oracle's {oracle:?}",
                        FIG10_T2_S[0]
                    ));
                }
            }
            // Requests complete and the wire loses frames.
            Workload::OpenworldWire => {
                let (completed, dropped) = runs.iter().fold((0, 0), |(c, d), r| {
                    (c + r.rep.outcome.completed, d + r.rep.outcome.dropped)
                });
                if completed == 0 || dropped == 0 {
                    return Err(format!(
                        "openworld_wire: {completed} requests completed, {dropped} frames dropped; both must be positive"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One simulation of a workload: a point of its figure under one seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    /// Simulation seed.
    pub seed: u64,
    /// Factor on the simulated horizons.
    pub scale: f64,
    /// The figure point.
    pub point: Point,
}

/// A point of a workload's figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Point {
    /// Fig 9: the network empty or congested, one request interval.
    Fig9 {
        /// A long-running A1–B1 flow shares the bottleneck.
        congested: bool,
        /// Milliseconds between A0–B0 requests.
        interval_ms: u64,
    },
    /// Fig 10: one memory lifetime, with cutoffs or the oracle.
    Fig10 {
        /// No intermediate cutoffs; pairs below fidelity do not count.
        oracle: bool,
        /// Electron T2*, seconds.
        t2: f64,
    },
    /// The open-world grid.
    Openworld,
}

impl Config {
    /// Build and run the configuration once.
    pub fn run<N: Net>(&self) -> Run {
        match self.point {
            Point::Fig9 {
                congested,
                interval_ms,
            } => fig9::<N>(self.seed, self.scale, congested, interval_ms),
            Point::Fig10 { oracle, t2 } => fig10::<N>(self.seed, self.scale, oracle, t2),
            Point::Openworld => openworld::<N>(self.seed, self.scale),
        }
    }
}

/// The simulated outcome of one or more configurations: every field is a
/// pure function of their seeds.
#[derive(Debug, Default, PartialEq)]
pub struct Outcome {
    /// FNV-1a over each configuration's events processed, sorted
    /// completion set and delivery records, oracle-fidelity bits
    /// included.
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
    /// Simulated seconds run.
    pub sim_seconds: f64,
    /// Confirmed end-to-end pairs (one per pair, not per end).
    pub pairs: u64,
    /// Sum of the delivered pairs' oracle fidelities.
    pub fidelity_sum: f64,
    /// Deliveries with an oracle fidelity.
    pub fidelity_n: u64,
    /// Simulated latency of each unit of service, seconds (see
    /// [`service`]).
    pub latencies: Vec<f64>,
    /// Units of service attempted, refused requests included.
    pub units: u64,
    /// Units of service that failed.
    pub units_failed: u64,
    /// Requests completed.
    pub completed: u64,
    /// `Controller::plan` calls.
    pub plans: u64,
    /// Plans that failed (the request is refused).
    pub plan_failures: u64,
    /// Classical frames submitted, all planes.
    pub frames_sent: u64,
    /// Classical frames delivered.
    pub frames_delivered: u64,
    /// Batch delivery events.
    pub batches: u64,
    /// Encoded bytes submitted.
    pub wire_bytes: u64,
    /// Frames lost on the wire.
    pub dropped: u64,
    /// Frames that failed to decode, all planes.
    pub decode_failures: u64,
    /// Re-sent TRACK, signalling and request frames.
    pub retransmits: u64,
    /// Retransmit timers that gave up.
    pub retransmits_abandoned: u64,
    /// Anomalous inputs the QNP rules absorbed.
    pub anomalies: u64,
    /// Protocol-vs-oracle Bell-state mismatches.
    pub state_mismatches: u64,
    /// Pairs released unused.
    pub discarded: u64,
    /// Pairs alive when each configuration ended.
    pub live_at_end: u64,
}

/// The runs of one or more configurations, folded: their outcome and
/// summed host times.
#[derive(Debug)]
pub struct Rep {
    /// Simulated outcome.
    pub outcome: Outcome,
    /// Host time before each configuration's first event, summed.
    pub setup: Duration,
    /// Host time from each configuration's first event to its end,
    /// summed.
    pub wall: Duration,
    /// Host time by span; empty unless the runs were [`crate::net::Traced`].
    pub profile: Profile,
}

impl Rep {
    /// Fold runs in order: the digest chains theirs, everything else adds
    /// up.
    pub fn of<'a>(runs: impl IntoIterator<Item = &'a Rep>) -> Rep {
        let mut rep = Rep {
            outcome: Outcome {
                digest: FNV_OFFSET,
                ..Outcome::default()
            },
            setup: Duration::ZERO,
            wall: Duration::ZERO,
            profile: Profile::default(),
        };
        for r in runs {
            rep.setup += r.setup;
            rep.wall += r.wall;
            rep.profile.merge(&r.profile);
            rep.outcome.absorb(&r.outcome);
        }
        rep
    }
}

/// One configuration run once.
#[derive(Debug)]
pub struct Run {
    /// Its outcome and host times.
    pub rep: Rep,
    /// Pairs the figure counts, per circuit: A0–B0 deliveries in the
    /// throughput window for Fig 9; deliveries on A0–B0 and A1–B1 for
    /// Fig 10 (confirmed with cutoffs, above the circuit's fidelity for
    /// the oracle).
    pub counted: [usize; 2],
}

/// FNV-1a, 64 bit: a fixed hash, so a digest repeats across processes.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn keep_request(id: u64, head: NodeId, tail: NodeId, fidelity: f64, n: u64) -> UserRequest {
    let address = |node| Address {
        node,
        identifier: 0,
    };
    UserRequest {
        id: RequestId(id),
        head: address(head),
        tail: address(tail),
        min_fidelity: fidelity,
        demand: Demand::Pairs { n, deadline: None },
        request_type: RequestType::Keep,
        final_state: None,
    }
}

/// A long-running request: more pairs than any horizon delivers.
const LONG_RUNNING: u64 = u64::MAX / 2;

/// Simulated time `secs` after zero.
fn at(secs: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(secs)
}

/// One request the workload submitted.
struct Submitted {
    circuit: CircuitId,
    request: RequestId,
    head: NodeId,
    min_fidelity: f64,
    long_running: bool,
}

/// What the workload did in one configuration.
#[derive(Default)]
struct Log {
    submitted: Vec<Submitted>,
    plans: u64,
    refused: u64,
}

impl Log {
    /// Plan and install a circuit, counting the plan and a refusal.
    fn open<N: Net>(
        &mut self,
        net: &mut N,
        (head, tail): (NodeId, NodeId),
        fidelity: f64,
        cutoff: CutoffPolicy,
    ) -> Option<CircuitId> {
        self.plans += 1;
        let vc = net.open_circuit(head, tail, fidelity, cutoff).ok();
        self.refused += u64::from(vc.is_none());
        vc
    }

    /// Submit a request; `n == LONG_RUNNING` marks it long-running.
    fn submit<N: Net>(&mut self, net: &mut N, when: SimTime, circuit: CircuitId, req: UserRequest) {
        self.submitted.push(Submitted {
            circuit,
            request: req.id,
            head: req.head.node,
            min_fidelity: req.min_fidelity,
            long_running: matches!(
                req.demand,
                Demand::Pairs {
                    n: LONG_RUNNING,
                    ..
                }
            ),
        });
        net.submit_at(when, circuit, req);
    }
}

/// The units of service in one configuration: latency samples in
/// seconds, units attempted, units failed. A refused request is a
/// failed unit.
///
/// When the configuration has bounded requests, each is a unit: due time
/// to completion is its latency, and it fails if the horizon comes
/// first. Long-running requests beside them are background load.
///
/// When every request is long-running (they never complete), each pair
/// delivered at a head is a unit: it falls due when the previous one is
/// delivered (the first when the request is due), and it fails if its
/// oracle fidelity is below the request's minimum.
fn service<N: Net>(net: &mut N, log: &Log) -> (Vec<f64>, u64, u64) {
    let app = net.app();
    let mut latencies = Vec::new();
    let (mut units, mut failed) = (log.refused, log.refused);
    if log.submitted.iter().any(|s| !s.long_running) {
        for s in log.submitted.iter().filter(|s| !s.long_running) {
            units += 1;
            match app.request_latency(s.circuit, s.request) {
                Some(d) => latencies.push(d.as_secs_f64()),
                None => failed += 1,
            }
        }
        return (latencies, units, failed);
    }
    for s in &log.submitted {
        let Some(mut due) = app.submitted.get(&(s.circuit, s.request)).copied() else {
            continue;
        };
        for d in app.deliveries.iter().filter(|d| {
            d.circuit == s.circuit
                && d.request == s.request
                && d.node == s.head
                && !matches!(d.payload, Payload::EarlyQubit { .. })
        }) {
            units += 1;
            latencies.push(d.time.since(due).as_secs_f64());
            due = d.time;
            failed += u64::from(d.oracle_fidelity.is_some_and(|f| f < s.min_fidelity));
        }
    }
    (latencies, units, failed)
}

impl Outcome {
    /// Add another outcome's counts and samples, and chain its digest
    /// onto this one.
    fn absorb(&mut self, o: &Outcome) {
        let mut h = Fnv(self.digest);
        o.digest.hash(&mut h);
        self.digest = h.finish();
        self.events += o.events;
        self.sim_seconds += o.sim_seconds;
        self.pairs += o.pairs;
        self.fidelity_sum += o.fidelity_sum;
        self.fidelity_n += o.fidelity_n;
        self.latencies.extend_from_slice(&o.latencies);
        self.units += o.units;
        self.units_failed += o.units_failed;
        self.completed += o.completed;
        self.plans += o.plans;
        self.plan_failures += o.plan_failures;
        self.frames_sent += o.frames_sent;
        self.frames_delivered += o.frames_delivered;
        self.batches += o.batches;
        self.wire_bytes += o.wire_bytes;
        self.dropped += o.dropped;
        self.decode_failures += o.decode_failures;
        self.retransmits += o.retransmits;
        self.retransmits_abandoned += o.retransmits_abandoned;
        self.anomalies += o.anomalies;
        self.state_mismatches += o.state_mismatches;
        self.discarded += o.discarded;
        self.live_at_end += o.live_at_end;
    }
}

impl Run {
    /// Record a finished configuration: host times split at `t[1]`, the
    /// first event, and the outcome.
    fn finish<N: Net>(
        net: &mut N,
        log: &Log,
        horizon: SimTime,
        t: [Instant; 3],
        counted: [usize; 2],
    ) -> Run {
        let (latencies, units, units_failed) = service(net, log);
        let events = net.events();
        let app = net.app();
        let mut h = Fnv(FNV_OFFSET);
        events.hash(&mut h);
        let mut done: Vec<(u64, u64, u64)> = app
            .completed
            .iter()
            .map(|((c, r), t)| (c.0, r.0, t.as_ps()))
            .collect();
        done.sort_unstable();
        done.hash(&mut h);
        let (mut confirmed_ends, mut fidelity_sum, mut fidelity_n) = (0u64, 0.0, 0u64);
        for d in &app.deliveries {
            (d.time.as_ps(), d.node, d.circuit.0, d.request.0, d.sequence).hash(&mut h);
            d.chain.hash(&mut h);
            match d.payload {
                Payload::Qubit { state } => (0u8, state).hash(&mut h),
                Payload::EarlyQubit { state } => (1u8, state).hash(&mut h),
                Payload::EarlyTracking { state } => (2u8, state).hash(&mut h),
                Payload::Measurement {
                    outcome,
                    basis,
                    state,
                } => (3u8, outcome, basis, state).hash(&mut h),
            }
            d.oracle_fidelity.map(f64::to_bits).hash(&mut h);
            d.state_consistent.hash(&mut h);
            if !matches!(d.payload, Payload::EarlyQubit { .. }) {
                confirmed_ends += 1;
            }
            if let Some(f) = d.oracle_fidelity {
                fidelity_sum += f;
                fidelity_n += 1;
            }
        }
        let completed = app.completed.len() as u64;
        let profile = net.profile().map(Profile::clone).unwrap_or_default();
        let model = net.model();
        let cs = model.classical_stats();
        let outcome = Outcome {
            digest: h.finish(),
            events,
            sim_seconds: horizon.since(SimTime::ZERO).as_secs_f64(),
            pairs: confirmed_ends / 2,
            fidelity_sum,
            fidelity_n,
            latencies,
            units,
            units_failed,
            completed,
            plans: log.plans,
            plan_failures: log.refused,
            frames_sent: cs.sent,
            frames_delivered: cs.delivered,
            batches: cs.batches,
            wire_bytes: cs.wire_bytes,
            dropped: cs.dropped,
            decode_failures: cs.decode_failures
                + cs.link_decode_failures
                + cs.signal_decode_failures,
            retransmits: cs.track_retransmits + cs.signal_retransmits + cs.request_retransmits,
            retransmits_abandoned: cs.retransmits_abandoned,
            anomalies: model.node_stats().total(),
            state_mismatches: model.state_mismatches,
            discarded: model.discarded_pairs,
            live_at_end: model.pairs.len() as u64,
        };
        Run {
            rep: Rep {
                outcome,
                setup: t[1] - t[0],
                wall: t[2] - t[1],
                profile,
            },
            counted,
        }
    }
}

/// The paper's Fig 9 request intervals, sparse to past saturation.
const FIG9_INTERVALS_MS: [u64; 8] = [2000, 1000, 500, 300, 200, 150, 100, 70];
/// Fig 9 throughput is counted over `[40 s, 40 s + window)`.
const FIG9_WINDOW_S: f64 = 10.0;

/// Fig 9, one point: 3-pair KEEP requests on A0–B0 every `interval_ms`,
/// the network empty or congested by a long-running A1–B1 flow; requests
/// are issued for 50 s and the run ends at 60 s.
fn fig9<N: Net>(seed: u64, scale: f64, congested: bool, interval_ms: u64) -> Run {
    let fidelity = 0.9;
    let mut log = Log::default();
    let t0 = Instant::now();
    let (topology, d) = dumbbell(HardwareParams::simulation(), FibreParams::lab_2m());
    let mut net = N::build(topology, seed, &Options::new(StateRep::Bell));
    let short = CutoffPolicy::short();
    let vc = log
        .open(&mut net, (d.a0, d.b0), fidelity, short)
        .expect("the Fig 9 circuit is feasible");
    if congested {
        if let Some(vc2) = log.open(&mut net, (d.a1, d.b1), fidelity, short) {
            let req = keep_request(1_000_000, d.a1, d.b1, fidelity, LONG_RUNNING);
            log.submit(&mut net, SimTime::ZERO, vc2, req);
        }
    }
    let interval = SimDuration::from_millis(interval_ms);
    let (mut t, mut id) = (SimTime::ZERO, 1u64);
    while t < at(50.0 * scale) {
        log.submit(&mut net, t, vc, keep_request(id, d.a0, d.b0, fidelity, 3));
        id += 1;
        t += interval;
    }
    let t1 = Instant::now();
    let horizon = at(60.0 * scale);
    net.run_until(horizon);
    let t2 = Instant::now();
    let warmup = 40.0 * scale;
    let delivered =
        net.app()
            .confirmed_deliveries(vc, d.a0, at(warmup), at(warmup + FIG9_WINDOW_S * scale));
    Run::finish(&mut net, &log, horizon, [t0, t1, t2], [delivered, 0])
}

/// The paper's Fig 10 memory lifetimes T2*, seconds, shortest first.
const FIG10_T2_S: [f64; 9] = [0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 60.0];
/// Simulated seconds per Fig 10 point.
const FIG10_HORIZON_S: f64 = 10.0;

/// Fig 10a,b, one point: long-running requests on A0–B0 (F = 0.9) and
/// A1–B1 (F = 0.8) sharing the bottleneck for 10 s at one T2*, with the
/// QNP's cutoffs or with the oracle baseline (no cutoffs; pairs below
/// the circuit's fidelity do not count).
fn fig10<N: Net>(seed: u64, scale: f64, oracle: bool, t2: f64) -> Run {
    let horizon = at(FIG10_HORIZON_S * scale);
    let mut log = Log::default();
    let t0 = Instant::now();
    let params = HardwareParams::simulation().with_electron_t2(t2);
    let (topology, d) = dumbbell(params, FibreParams::lab_2m());
    let mut opts = Options::new(StateRep::Dm);
    opts.disable_cutoff = oracle;
    let mut net = N::build(topology, seed, &opts);
    let circuits = [(d.a0, d.b0, 0.9), (d.a1, d.b1, 0.8)];
    let mut vcs = [None; 2];
    for (k, (h, t, f)) in circuits.into_iter().enumerate() {
        vcs[k] = log.open(&mut net, (h, t), f, CutoffPolicy::long());
        if let Some(vc) = vcs[k] {
            let req = keep_request(k as u64 + 1, h, t, f, LONG_RUNNING);
            log.submit(&mut net, SimTime::ZERO, vc, req);
        }
    }
    let t1 = Instant::now();
    net.run_until(horizon);
    let t2_end = Instant::now();
    let mut counted = [0usize; 2];
    let app = net.app();
    for (k, (h, _, f)) in circuits.into_iter().enumerate() {
        let Some(vc) = vcs[k] else { continue };
        counted[k] = if oracle {
            app.good_deliveries(vc, h, f, SimTime::ZERO, SimTime::MAX)
        } else {
            app.confirmed_deliveries(vc, h, SimTime::ZERO, SimTime::MAX)
        };
    }
    Run::finish(&mut net, &log, horizon, [t0, t1, t2_end], counted)
}

/// Open-world traffic: the 3×3 grid's three crossing endpoint pairs.
fn grid_endpoints() -> [(NodeId, NodeId); 3] {
    [
        (NodeId(0), NodeId(8)),
        (NodeId(2), NodeId(6)),
        (NodeId(3), NodeId(5)),
    ]
}

/// Pareto(α) sample with scale `xm`.
fn pareto(rng: &mut SimRng, xm: f64, alpha: f64) -> f64 {
    xm / (1.0 - rng.f64()).powf(1.0 / alpha)
}

/// One circuit arrival: when, between which ends, how many pairs, and
/// for how long the circuit lives.
struct Arrival {
    at: SimTime,
    ends: (NodeId, NodeId),
    pairs: u64,
    lifetime: SimDuration,
}

/// Open-world arrival rate, circuits per simulated second.
const OW_RATE_HZ: f64 = 3.0;
/// Open-world simulated horizon, seconds.
const OW_HORIZON_S: f64 = 300.0;
/// Mean circuit lifetime, seconds (Pareto, α = 1.5). Short enough that
/// about one request in seven is torn down before it completes.
const OW_MEAN_LIFETIME_S: f64 = 1.0;
/// Pairs per request: Pareto(α = 1.5) from this scale, floored, capped.
const OW_PAIRS_SCALE: f64 = 3.0;
/// The cap on pairs per request.
const OW_MAX_PAIRS: u64 = 10;

/// Poisson arrivals up to the horizon, drawn from the workload's own
/// RNG substream before the simulation starts.
fn arrivals(seed: u64, horizon_s: f64) -> Vec<Arrival> {
    let ends = grid_endpoints();
    let mut rng = SimRng::substream_indexed(seed, "openworld", 0);
    let mut out = Vec::new();
    let mut t = rng.exponential(OW_RATE_HZ);
    while t < horizon_s {
        let ends = ends[rng.below(ends.len() as u64) as usize];
        let pairs = pareto(&mut rng, OW_PAIRS_SCALE, 1.5).floor() as u64;
        let lifetime = pareto(&mut rng, OW_MEAN_LIFETIME_S / 3.0, 1.5);
        out.push(Arrival {
            at: at(t),
            ends,
            pairs: pairs.clamp(1, OW_MAX_PAIRS),
            lifetime: SimDuration::from_secs_f64(lifetime),
        });
        t += rng.exponential(OW_RATE_HZ);
    }
    out
}

/// Open-world traffic on a 3×3 grid: Poisson circuit arrivals, each
/// planned and installed when it arrives, carrying one KEEP request of
/// a Pareto-sized number of pairs, torn down when its Pareto lifetime
/// expires, finished or not. Signalling rides the wire with 1% frame
/// loss, end-nodes time unconfirmed pairs out after 2 s, and the pair
/// store is swept every 250 ms. The loop is open in simulated time: the
/// simulator runs offline, so host-side lateness does not apply.
fn openworld<N: Net>(seed: u64, scale: f64) -> Run {
    let horizon_s = OW_HORIZON_S * scale;
    let fidelity = 0.8;
    let mut log = Log::default();
    let t0 = Instant::now();
    let schedule = arrivals(seed, horizon_s);
    let topology = grid(3, 3, HardwareParams::simulation(), FibreParams::lab_2m());
    let mut opts = Options::new(StateRep::Bell);
    opts.checkpoint = Some(SimDuration::from_millis(250));
    opts.wire = true;
    opts.track_timeout = Some(SimDuration::from_secs(2));
    opts.faults = ClassicalFaults {
        drop: 0.01,
        ..ClassicalFaults::OFF
    };
    let mut net = N::build(topology, seed, &opts);
    let t1 = Instant::now();
    let horizon = at(horizon_s);
    for (i, a) in schedule.iter().enumerate() {
        net.run_until(a.at);
        let Some(vc) = log.open(&mut net, a.ends, fidelity, CutoffPolicy::short()) else {
            continue;
        };
        let req = keep_request(i as u64 + 1, a.ends.0, a.ends.1, fidelity, a.pairs);
        log.submit(&mut net, a.at, vc, req);
        let close = a.at + a.lifetime;
        if close < horizon {
            net.close_circuit_at(close, vc);
        }
    }
    net.run_until(horizon);
    let t2 = Instant::now();
    Run::finish(&mut net, &log, horizon, [t0, t1, t2], [0, 0])
}
