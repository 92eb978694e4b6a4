//! Component fault plans: scheduled link outages and node crashes.
//!
//! Where [`crate::classical::ClassicalFaults`] perturbs individual
//! *messages* (drop / duplicate / reorder / corrupt), a [`FaultPlan`]
//! takes whole *components* out of service: a link stops generating
//! entanglement and eats every classical frame on its hop, a node loses
//! its volatile protocol state. A plan is a list of outages, each a
//! component that goes down and comes back:
//!
//! * **scripted outages** — a link or a node down at an explicit instant
//!   for an explicit duration ([`FaultPlan::link_outage`],
//!   [`FaultPlan::node_outage`]);
//! * **stochastic schedules** — per-link MTBF/MTTR
//!   ([`FaultPlan::link_mtbf`]): exponential up-times and repair-times
//!   expanded into a concrete event list at build time from the
//!   dedicated `"component-faults"` RNG substream, one independent
//!   substream per declared schedule. The expansion happens *before* the
//!   simulation starts, so a faulted run stays a pure function of
//!   `(seed, plan)` and the main simulation streams never observe an
//!   extra draw.
//!
//! Every outage expands to a down event and its up event, so a repair
//! without a failure cannot be written. Two outages of one component
//! that overlap or touch, scripted, drawn or one of each, are one
//! outage from the earlier start to the later end:
//! [`FaultPlan::expand`] merges them, so each component's expanded
//! events alternate down, up. An **empty plan is bit-invisible**:
//! [`FaultPlan::is_empty`] gates all runtime scheduling, so a build
//! without faults performs zero extra event-queue operations and zero
//! RNG draws. [`FaultPlan::validate`] rejects unknown components,
//! outages ending past the declared horizon and malformed stochastic
//! schedules; the network model runs it at build, before any event is
//! queued.

use qn_routing::topology::Topology;
use qn_sim::{NodeId, SimDuration, SimRng, SimTime};

/// One component-level fault event, applied by the runtime at its
/// scheduled instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComponentEvent {
    /// The physical link between `a` and `b` goes down: generation
    /// halts, in-flight generation is aborted, live pairs of the link
    /// are expired, and classical frames on the hop are dropped.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The link comes back up and resumes generation for the requests
    /// still queued on it.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The node crashes: volatile protocol state is lost, its qubits
    /// are freed, its timers disarmed, and every circuit through it is
    /// torn down end-to-end.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// The node restarts with empty protocol state and re-registers its
    /// links; stale correlators arriving later are absorbed as
    /// anomalous inputs.
    NodeRestart {
        /// The restarting node.
        node: NodeId,
    },
}

/// A component a fault plan takes out of service.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Component {
    Link { a: NodeId, b: NodeId },
    Node(NodeId),
}

impl Component {
    /// The event taking the component down and the one bringing it back.
    fn events(self) -> (ComponentEvent, ComponentEvent) {
        match self {
            Component::Link { a, b } => (
                ComponentEvent::LinkDown { a, b },
                ComponentEvent::LinkUp { a, b },
            ),
            Component::Node(node) => (
                ComponentEvent::NodeCrash { node },
                ComponentEvent::NodeRestart { node },
            ),
        }
    }

    /// The same component with a link's endpoints in ascending order, so
    /// `a`–`b` and `b`–`a` compare equal.
    fn canonical(self) -> Self {
        match self {
            Component::Link { a, b } if b < a => Component::Link { a: b, b: a },
            other => other,
        }
    }
}

/// An outage: `component` is down from `start` until `end`.
#[derive(Clone, Copy, Debug)]
struct Outage {
    component: Component,
    start: SimTime,
    end: SimTime,
}

/// Stochastic fault model for one component: mean time between failures
/// and mean time to repair, both exponentially distributed.
#[derive(Clone, Copy, Debug)]
struct FailureModel {
    mtbf: SimDuration,
    mttr: SimDuration,
}

/// A schedule of component faults for one run. See the module docs for
/// the grammar; configure with [`crate::build::NetworkBuilder::fault_plan`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Scripted outages in declaration order.
    outages: Vec<Outage>,
    /// Per-link stochastic schedules in declaration order.
    stochastic: Vec<(Component, FailureModel)>,
    /// Horizon bounding the plan: every scripted outage must end by it
    /// and stochastic expansion stops drawing failures at it. Required
    /// whenever stochastic schedules are declared.
    horizon: Option<SimTime>,
}

impl FaultPlan {
    /// An empty plan (bit-invisible: schedules nothing, draws nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare the plan's horizon: a scripted outage ending after it
    /// fails validation, and stochastic failures are only drawn before
    /// it (each drawn failure still gets its repair, which may land past
    /// the horizon so every outage recovers).
    pub fn horizon(mut self, at: SimTime) -> Self {
        self.horizon = Some(at);
        self
    }

    /// Take the `a`–`b` link down at `down_at` for `duration`.
    pub fn link_outage(
        mut self,
        a: NodeId,
        b: NodeId,
        down_at: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.outages.push(Outage {
            component: Component::Link { a, b },
            start: down_at,
            end: down_at + duration,
        });
        self
    }

    /// Crash `node` at `crash_at` and restart it `duration` later.
    pub fn node_outage(mut self, node: NodeId, crash_at: SimTime, duration: SimDuration) -> Self {
        self.outages.push(Outage {
            component: Component::Node(node),
            start: crash_at,
            end: crash_at + duration,
        });
        self
    }

    /// Stochastic outages for the `a`–`b` link: exponential up-times
    /// with mean `mtbf`, exponential repairs with mean `mttr`, drawn
    /// from this schedule's own `"component-faults"` substream.
    pub fn link_mtbf(mut self, a: NodeId, b: NodeId, mtbf: SimDuration, mttr: SimDuration) -> Self {
        self.stochastic
            .push((Component::Link { a, b }, FailureModel { mtbf, mttr }));
        self
    }

    /// Whether the plan schedules nothing at all. The runtime consults
    /// this once at build: an empty plan adds zero events and zero RNG
    /// draws, keeping the run bit-identical to one without a plan.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.stochastic.is_empty()
    }

    /// Fail-fast validation against the topology the plan will run on.
    /// Rejects unknown links or nodes, a scripted outage ending past the
    /// declared horizon, stochastic schedules without a horizon, and
    /// non-positive or infinite MTBF/MTTR.
    pub fn validate(&self, topology: &Topology) -> Result<(), String> {
        let nodes = topology.nodes();
        let components = self.outages.iter().map(|o| o.component);
        for component in components.chain(self.stochastic.iter().map(|(c, _)| *c)) {
            match component {
                Component::Link { a, b } if topology.link_between(a, b).is_none() => {
                    return Err(format!("fault plan references unknown link {a}–{b}"));
                }
                Component::Node(n) if nodes.binary_search(&n).is_err() => {
                    return Err(format!("fault plan references unknown node {n}"));
                }
                _ => {}
            }
        }
        if let Some(h) = self.horizon {
            if let Some(o) = self.outages.iter().find(|o| o.end > h) {
                return Err(format!(
                    "outage of {:?} ending at {} lies beyond the plan horizon {h}",
                    o.component, o.end
                ));
            }
        }
        for (comp, model) in &self.stochastic {
            if model.mtbf == SimDuration::ZERO || model.mtbf.is_infinite() {
                return Err(format!(
                    "stochastic schedule for {comp:?} needs a positive finite MTBF"
                ));
            }
            if model.mttr == SimDuration::ZERO || model.mttr.is_infinite() {
                return Err(format!(
                    "stochastic schedule for {comp:?} needs a positive finite MTTR"
                ));
            }
            if self.horizon.is_none() {
                return Err(
                    "stochastic fault schedules need a plan horizon (FaultPlan::horizon)".into(),
                );
            }
        }
        Ok(())
    }

    /// Expand the plan into the concrete, time-ordered schedule for
    /// `seed`. Each scripted outage gives its down event and its up
    /// event; each stochastic schedule draws its failure/repair cycle
    /// from `SimRng::substream_indexed(seed, "component-faults", i)`
    /// (one independent substream per declared schedule) until the
    /// horizon. Every drawn failure is paired with its repair even when
    /// the repair lands past the horizon, so stochastic outages always
    /// recover. Outages of one component (a link named either way) that
    /// overlap or touch merge into one, from the earlier start to the
    /// later end, which sits where its first-declared member did, under
    /// that member's naming. Ties are broken by declaration order
    /// (scripted outages first, then each schedule's draws), so the
    /// schedule is a pure function of `(seed, plan)`.
    pub fn expand(&self, seed: u64) -> Vec<(SimTime, ComponentEvent)> {
        let mut outages = self.outages.clone();
        for (i, (comp, model)) in self.stochastic.iter().enumerate() {
            let horizon = self
                .horizon
                .expect("validated: stochastic schedules need a horizon");
            let mut rng = SimRng::substream_indexed(seed, "component-faults", i as u64);
            let fail_rate = 1.0 / model.mtbf.as_secs_f64();
            let repair_rate = 1.0 / model.mttr.as_secs_f64();
            let mut t = SimTime::ZERO;
            loop {
                t += SimDuration::from_secs_f64(rng.exponential(fail_rate));
                if t >= horizon {
                    break;
                }
                let start = t;
                t += SimDuration::from_secs_f64(rng.exponential(repair_rate));
                outages.push(Outage {
                    component: *comp,
                    start,
                    end: t,
                });
            }
        }
        // Sweep each component's outages in start order, keeping with
        // each union the declaration index of its first member.
        let mut order: Vec<usize> = (0..outages.len()).collect();
        order.sort_by_key(|&i| (outages[i].component.canonical(), outages[i].start));
        let mut merged: Vec<(usize, Outage)> = Vec::with_capacity(outages.len());
        for i in order {
            let o = outages[i];
            match merged.last_mut() {
                Some((first, union))
                    if union.component.canonical() == o.component.canonical()
                        && o.start <= union.end =>
                {
                    union.end = union.end.max(o.end);
                    if i < *first {
                        *first = i;
                        union.component = o.component;
                    }
                }
                _ => merged.push((i, o)),
            }
        }
        merged.sort_by_key(|(first, _)| *first);
        let mut schedule = Vec::with_capacity(2 * merged.len());
        for (_, o) in merged {
            let (down, up) = o.component.events();
            schedule.push((o.start, down));
            schedule.push((o.end, up));
        }
        // Stable: events at one instant keep their declaration order.
        schedule.sort_by_key(|(at, _)| *at);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_hardware::params::{FibreParams, HardwareParams};
    use qn_routing::topology::chain;

    fn topo() -> Topology {
        chain(4, HardwareParams::simulation(), FibreParams::lab_2m())
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn dur(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.validate(&topo()).is_ok());
        assert!(plan.expand(7).is_empty());
    }

    #[test]
    fn outage_pairs_expand_in_time_order() {
        let plan = FaultPlan::new()
            .node_outage(NodeId(2), secs(8), dur(2))
            .link_outage(NodeId(1), NodeId(2), secs(3), dur(4));
        assert!(!plan.is_empty());
        assert!(plan.validate(&topo()).is_ok());
        let sched = plan.expand(1);
        assert_eq!(
            sched,
            vec![
                (
                    secs(3),
                    ComponentEvent::LinkDown {
                        a: NodeId(1),
                        b: NodeId(2)
                    }
                ),
                (
                    secs(7),
                    ComponentEvent::LinkUp {
                        a: NodeId(1),
                        b: NodeId(2)
                    }
                ),
                (secs(8), ComponentEvent::NodeCrash { node: NodeId(2) }),
                (secs(10), ComponentEvent::NodeRestart { node: NodeId(2) }),
            ]
        );
    }

    /// One mixed plan at one seed, event by event: two link outages
    /// declared out of time order, a node outage starting the instant
    /// an earlier-declared outage ends (the tie keeps declaration
    /// order), and two MTBF schedules drawn from their own substreams.
    /// Link 0–1's first draw (3.84 s to 5.05 s) overlaps its scripted
    /// 5–7 s outage: the two are one outage from 3.84 s to 7 s.
    #[test]
    fn mixed_plan_expands_to_its_pinned_schedule() {
        let (n0, n1, n2, n3) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let plan = FaultPlan::new()
            .horizon(secs(60))
            .link_outage(n1, n2, secs(20), dur(3))
            .link_outage(n0, n1, secs(5), dur(2))
            .node_outage(n2, secs(7), dur(1))
            .link_mtbf(n0, n1, dur(20), dur(2))
            .link_mtbf(n2, n3, dur(15), dur(1));
        assert!(plan.validate(&topo()).is_ok());
        let down = |a, b| ComponentEvent::LinkDown {
            a: NodeId(a),
            b: NodeId(b),
        };
        let up = |a, b| ComponentEvent::LinkUp {
            a: NodeId(a),
            b: NodeId(b),
        };
        let expected = vec![
            (3_840_780_066_579, down(0, 1)),
            (7_000_000_000_000, up(0, 1)),
            (7_000_000_000_000, ComponentEvent::NodeCrash { node: n2 }),
            (8_000_000_000_000, ComponentEvent::NodeRestart { node: n2 }),
            (15_276_144_683_913, down(2, 3)),
            (15_369_528_791_035, up(2, 3)),
            (20_000_000_000_000, down(1, 2)),
            (23_000_000_000_000, up(1, 2)),
            (26_097_887_521_085, down(0, 1)),
            (30_065_674_411_571, up(0, 1)),
            (37_332_639_006_246, down(2, 3)),
            (38_575_327_214_748, up(2, 3)),
            (44_219_586_674_464, down(2, 3)),
            (45_108_388_409_844, up(2, 3)),
            (45_252_001_151_199, down(2, 3)),
            (46_246_071_566_918, up(2, 3)),
            (51_646_672_910_981, down(0, 1)),
            (52_740_473_115_623, up(0, 1)),
            (54_287_487_482_018, down(2, 3)),
            (56_495_973_178_692, up(2, 3)),
        ];
        let got: Vec<(u64, ComponentEvent)> = plan
            .expand(7)
            .into_iter()
            .map(|(at, ev)| (at.as_ps(), ev))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn unknown_link_rejected() {
        for plan in [
            FaultPlan::new().link_outage(NodeId(0), NodeId(3), secs(1), dur(1)),
            FaultPlan::new()
                .horizon(secs(60))
                .link_mtbf(NodeId(0), NodeId(3), dur(5), dur(1)),
        ] {
            let err = plan.validate(&topo()).unwrap_err();
            assert!(err.contains("unknown link"), "{err}");
        }
    }

    #[test]
    fn unknown_node_rejected() {
        let plan = FaultPlan::new().node_outage(NodeId(9), secs(1), dur(1));
        let err = plan.validate(&topo()).unwrap_err();
        assert!(err.contains("unknown node"), "{err}");
    }

    /// Two outages of one component that overlap or touch expand to one
    /// down/up pair at the union's ends, in either declaration order and
    /// whichever way a link's endpoints are named (the union keeps the
    /// first-declared naming). Disjoint and zero-length outages expand
    /// as declared.
    #[test]
    fn overlapping_outages_merge() {
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        let down = |a, b| ComponentEvent::LinkDown { a, b };
        let up = |a, b| ComponentEvent::LinkUp { a, b };
        let crash = ComponentEvent::NodeCrash { node: n1 };
        let restart = ComponentEvent::NodeRestart { node: n1 };
        let cases = [
            ((1, 3), (2, 3), (1, 5)),
            ((1, 3), (4, 1), (1, 5)),
            ((5, 1), (2, 3), (2, 6)),
            ((1, 10), (3, 1), (1, 11)),
        ];
        for (first, second, (start, end)) in cases {
            let plan = FaultPlan::new()
                .link_outage(n0, n1, secs(first.0), dur(first.1))
                .link_outage(n1, n0, secs(second.0), dur(second.1));
            assert!(plan.validate(&topo()).is_ok());
            assert_eq!(
                plan.expand(1),
                [(secs(start), down(n0, n1)), (secs(end), up(n0, n1))],
                "{first:?} {second:?}"
            );
            let plan = FaultPlan::new()
                .node_outage(n1, secs(first.0), dur(first.1))
                .node_outage(n1, secs(second.0), dur(second.1));
            assert_eq!(
                plan.expand(1),
                [(secs(start), crash), (secs(end), restart)],
                "{first:?} {second:?}"
            );
        }
        let plan = FaultPlan::new()
            .link_outage(n0, n1, secs(5), dur(1))
            .link_outage(n1, n0, secs(1), dur(3))
            .link_outage(n1, n2, secs(2), dur(5))
            .node_outage(n1, secs(1), SimDuration::ZERO)
            .node_outage(n1, secs(2), dur(1));
        assert!(plan.validate(&topo()).is_ok());
        assert_eq!(
            plan.expand(1),
            [
                (secs(1), down(n1, n0)),
                (secs(1), crash),
                (secs(1), restart),
                (secs(2), down(n1, n2)),
                (secs(2), crash),
                (secs(3), restart),
                (secs(4), up(n1, n0)),
                (secs(5), down(n0, n1)),
                (secs(6), up(n0, n1)),
                (secs(7), up(n1, n2)),
            ]
        );
    }

    /// Two MTBF schedules of one link, declared a–b and b–a, draw
    /// overlapping outages; expanded, the link still goes strictly
    /// down, up, down, up, and ends up.
    #[test]
    fn overlapping_schedules_of_one_link_alternate() {
        let (n1, n2, n3) = (NodeId(1), NodeId(2), NodeId(3));
        let (mtbf, mttr) = (dur(10), dur(5));
        let plan = FaultPlan::new()
            .horizon(secs(120))
            .link_mtbf(n1, n2, mtbf, mttr)
            .link_mtbf(n2, n1, mtbf, mttr);
        assert!(plan.validate(&topo()).is_ok());
        let sched = plan.expand(5);
        // The same draws on two links, unmerged.
        let apart = FaultPlan::new()
            .horizon(secs(120))
            .link_mtbf(n1, n2, mtbf, mttr)
            .link_mtbf(n2, n3, mtbf, mttr)
            .expand(5);
        assert!(
            sched.len() < apart.len(),
            "the two schedules' draws must overlap at this seed"
        );
        let mut is_down = false;
        for (at, ev) in &sched {
            match ev {
                ComponentEvent::LinkDown { .. } => {
                    assert!(!is_down, "a second down at {at} before an up");
                    is_down = true;
                }
                ComponentEvent::LinkUp { .. } => {
                    assert!(is_down, "an up at {at} without a down");
                    is_down = false;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(!is_down, "every outage recovers");
    }

    #[test]
    fn event_after_horizon_rejected() {
        let plan =
            FaultPlan::new()
                .horizon(secs(10))
                .link_outage(NodeId(0), NodeId(1), secs(8), dur(3));
        let err = plan.validate(&topo()).unwrap_err();
        assert!(err.contains("beyond the plan horizon"), "{err}");
        let plan =
            FaultPlan::new()
                .horizon(secs(10))
                .link_outage(NodeId(0), NodeId(1), secs(8), dur(2));
        assert!(plan.validate(&topo()).is_ok(), "an outage may end at it");
    }

    #[test]
    fn stochastic_needs_horizon_and_positive_moments() {
        let plan = FaultPlan::new().link_mtbf(NodeId(0), NodeId(1), dur(5), dur(1));
        let err = plan.validate(&topo()).unwrap_err();
        assert!(err.contains("horizon"), "{err}");
        let plan = FaultPlan::new().horizon(secs(60)).link_mtbf(
            NodeId(0),
            NodeId(1),
            SimDuration::ZERO,
            dur(1),
        );
        let err = plan.validate(&topo()).unwrap_err();
        assert!(err.contains("MTBF"), "{err}");
        let plan = FaultPlan::new().horizon(secs(60)).link_mtbf(
            NodeId(2),
            NodeId(3),
            dur(5),
            SimDuration::MAX,
        );
        let err = plan.validate(&topo()).unwrap_err();
        assert!(err.contains("MTTR"), "{err}");
    }

    #[test]
    fn stochastic_expansion_is_seed_deterministic_and_alternating() {
        let plan = FaultPlan::new()
            .horizon(secs(120))
            .link_mtbf(NodeId(1), NodeId(2), dur(10), dur(2))
            .link_mtbf(NodeId(2), NodeId(3), dur(15), dur(3));
        assert!(plan.validate(&topo()).is_ok());
        let sched = plan.expand(42);
        assert_eq!(
            sched,
            plan.expand(42),
            "expansion must be a pure function of the seed"
        );
        assert_ne!(
            sched,
            plan.expand(43),
            "different seeds draw different schedules"
        );
        // Every failure is followed by its recovery, per link.
        let mut down = Vec::new();
        for link in [(NodeId(1), NodeId(2)), (NodeId(2), NodeId(3))] {
            let mut is_down = false;
            let mut failures = 0;
            for (at, ev) in &sched {
                assert!(*at > SimTime::ZERO);
                match *ev {
                    ComponentEvent::LinkDown { a, b } if (a, b) == link => {
                        assert!(!is_down, "no doubled downs on {link:?}");
                        is_down = true;
                        failures += 1;
                    }
                    ComponentEvent::LinkUp { a, b } if (a, b) == link => {
                        assert!(is_down, "up only after down on {link:?}");
                        is_down = false;
                    }
                    _ => {}
                }
            }
            assert!(
                failures > 0,
                "a 120 s horizon at 10/15 s MTBF must draw failures on {link:?}"
            );
            down.push(is_down);
        }
        assert_eq!(down, [false, false], "every outage recovers");
        // Times are non-decreasing.
        for w in sched.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
