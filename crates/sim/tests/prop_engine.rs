//! Engine-level order property: a `Simulation` driven by `run_until` in
//! random horizon steps dispatches exactly what a flat reference
//! simulation dispatches, which scans its pending list for the least
//! `(time, seq)`.
//!
//! Handlers schedule events at random delays (zero included, and times
//! in the past that clamp to the clock), cancel earlier ones and
//! sometimes stop the run. Between runs the test schedules from outside,
//! so events land between a horizon and the next pending event, and
//! some horizons lie behind the clock.

use proptest::collection::vec;
use proptest::prelude::*;
use qn_sim::{Context, EventId, Model, RunOutcome, SimDuration, SimTime, Simulation};
use qn_testkit::models::queue::offset_strategy;

/// Events issued per case at most; schedules past it are skipped.
const MAX_EVENTS: usize = 128;

/// One schedule: `delay` ps after the clock, or with `past` at `delay`
/// ps before it, which the engine clamps to the clock.
#[derive(Clone, Copy, Debug)]
struct Sched {
    delay: u64,
    past: bool,
}

/// What the handler of one dispatch does.
#[derive(Clone, Debug)]
struct Reaction {
    schedule: Vec<Sched>,
    /// Cancel the `i % issued`-th event ever issued.
    cancel: Option<usize>,
    stop: bool,
}

/// One `run_until`, then the events the caller schedules before the
/// next one.
#[derive(Clone, Debug)]
struct Step {
    /// The horizon is this far after the clock, or before it when
    /// `behind`.
    offset: u64,
    behind: bool,
    schedule: Vec<Sched>,
}

fn sched() -> impl Strategy<Value = Sched> {
    (offset_strategy(), any::<bool>()).prop_map(|(delay, past)| Sched { delay, past })
}

fn reaction() -> impl Strategy<Value = Reaction> {
    (
        vec(sched(), 0..3),
        prop_oneof![Just(None), (0usize..64).prop_map(Some)],
        prop_oneof![Just(false), Just(false), Just(false), Just(true)],
    )
        .prop_map(|(schedule, cancel, stop)| Reaction {
            schedule,
            cancel,
            stop,
        })
}

fn step() -> impl Strategy<Value = Step> {
    (
        offset_strategy(),
        prop_oneof![Just(false), Just(false), Just(false), Just(true)],
        vec(sched(), 0..3),
    )
        .prop_map(|(offset, behind, schedule)| Step {
            offset,
            behind,
            schedule,
        })
}

/// The model under test: the `k`-th dispatch runs reaction
/// `k % reactions.len()`. Events are labelled by issue order.
struct Scripted {
    reactions: Vec<Reaction>,
    ids: Vec<EventId>,
    /// `(time ps, label)` of every dispatch.
    log: Vec<(u64, u64)>,
    cancels: Vec<bool>,
}

impl Scripted {
    fn schedule(&mut self, ctx: &mut Context<'_, u64>, s: Sched) {
        if self.ids.len() >= MAX_EVENTS {
            return;
        }
        let label = self.ids.len() as u64;
        let id = if s.past {
            ctx.schedule_at(ctx.now() - SimDuration::from_ps(s.delay), label)
        } else {
            ctx.schedule_in(SimDuration::from_ps(s.delay), label)
        };
        self.ids.push(id);
    }
}

impl Model for Scripted {
    type Event = u64;

    fn handle(&mut self, now: SimTime, label: u64, ctx: &mut Context<'_, u64>) {
        self.log.push((now.as_ps(), label));
        if self.reactions.is_empty() {
            return;
        }
        let reaction = self.reactions[(self.log.len() - 1) % self.reactions.len()].clone();
        for s in reaction.schedule {
            self.schedule(ctx, s);
        }
        if let Some(i) = reaction.cancel {
            let id = self.ids[i % self.ids.len()];
            self.cancels.push(ctx.cancel(id));
        }
        if reaction.stop {
            ctx.stop();
        }
    }
}

/// Schedule `s` from outside the run, through the `Simulation` API.
fn schedule_outside(sim: &mut Simulation<Scripted>, s: Sched) {
    if sim.model().ids.len() >= MAX_EVENTS {
        return;
    }
    let label = sim.model().ids.len() as u64;
    let id = if s.past {
        sim.schedule_at(sim.now() - SimDuration::from_ps(s.delay), label)
    } else {
        sim.schedule_in(SimDuration::from_ps(s.delay), label)
    };
    sim.model_mut().ids.push(id);
}

/// The reference simulation: every event ever issued with its time and
/// liveness, indexed by label, and the least live `(time, label)` found
/// by a scan.
struct Reference {
    reactions: Vec<Reaction>,
    events: Vec<(u64, bool)>,
    now: u64,
    log: Vec<(u64, u64)>,
    cancels: Vec<bool>,
}

impl Reference {
    fn schedule(&mut self, s: Sched) {
        if self.events.len() < MAX_EVENTS {
            // A time in the past clamps to the clock.
            let at = if s.past {
                self.now
            } else {
                self.now.saturating_add(s.delay)
            };
            self.events.push((at, true));
        }
    }

    fn cancel(&mut self, i: usize) -> bool {
        let n = self.events.len();
        std::mem::replace(&mut self.events[i % n].1, false)
    }

    fn pending(&self) -> usize {
        self.events.iter().filter(|e| e.1).count()
    }

    fn run_until(&mut self, horizon: u64) -> RunOutcome {
        loop {
            let next = (0..self.events.len())
                .filter(|&label| self.events[label].1)
                .min_by_key(|&label| (self.events[label].0, label));
            let Some(label) = next else {
                return RunOutcome::QueueEmpty;
            };
            let time = self.events[label].0;
            if time > horizon {
                self.now = self.now.max(horizon);
                return RunOutcome::HorizonReached;
            }
            self.events[label].1 = false;
            self.now = time;
            self.log.push((time, label as u64));
            if self.reactions.is_empty() {
                continue;
            }
            let reaction = self.reactions[(self.log.len() - 1) % self.reactions.len()].clone();
            for s in reaction.schedule {
                self.schedule(s);
            }
            if let Some(i) = reaction.cancel {
                let cancelled = self.cancel(i);
                self.cancels.push(cancelled);
            }
            if reaction.stop {
                return RunOutcome::Stopped;
            }
        }
    }
}

proptest! {
    /// Every `run_until` returns the reference's outcome and leaves the
    /// same clock, pending count and dispatch log; so does the final
    /// drain.
    #[test]
    fn run_until_dispatches_in_time_then_insertion_order(
        seeds in vec(sched(), 1..8),
        reactions in vec(reaction(), 0..6),
        steps in vec(step(), 1..24),
    ) {
        let mut sim = Simulation::new(Scripted {
            reactions: reactions.clone(),
            ids: Vec::new(),
            log: Vec::new(),
            cancels: Vec::new(),
        });
        let mut reference = Reference {
            reactions,
            events: Vec::new(),
            now: 0,
            log: Vec::new(),
            cancels: Vec::new(),
        };
        for &s in &seeds {
            schedule_outside(&mut sim, s);
            reference.schedule(s);
        }
        for (n, step) in steps.iter().enumerate() {
            let now = reference.now;
            let horizon = if step.behind {
                now.saturating_sub(step.offset)
            } else {
                now.saturating_add(step.offset)
            };
            let got = sim.run_until(SimTime::from_ps(horizon));
            let want = reference.run_until(horizon);
            prop_assert_eq!(got, want, "outcome of step {}", n);
            prop_assert_eq!(&sim.model().log, &reference.log, "dispatches after step {}", n);
            prop_assert_eq!(sim.now().as_ps(), reference.now, "clock after step {}", n);
            prop_assert_eq!(sim.pending(), reference.pending(), "pending after step {}", n);
            for &s in &step.schedule {
                schedule_outside(&mut sim, s);
                reference.schedule(s);
            }
        }
        loop {
            let got = sim.run();
            prop_assert_eq!(got, reference.run_until(u64::MAX));
            if got != RunOutcome::Stopped {
                break;
            }
        }
        prop_assert_eq!(&sim.model().log, &reference.log);
        prop_assert_eq!(&sim.model().cancels, &reference.cancels);
        prop_assert_eq!(sim.pending(), 0);
    }
}
