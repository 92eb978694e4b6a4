//! The simulation engine: drives a [`Model`] by popping events off the
//! queue in `(time, insertion)` order and dispatching them.
//!
//! The engine is intentionally minimal — everything domain-specific (nodes,
//! channels, hardware) lives in the model. The model receives a
//! [`Context`] on every dispatch through which it schedules or cancels
//! future events, inspects the clock, and requests a stop.

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A discrete-event model. Implemented by the network runtime.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle a single event at simulated time `now`. New events are
    /// scheduled through `ctx`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut Context<'_, Self::Event>);
}

/// Scheduling handle passed to the model during event dispatch.
pub struct Context<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
    stop: &'a mut bool,
}

impl<'a, E> Context<'a, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Schedule an event at an absolute time. Times in the past are clamped
    /// to "now" (the event still runs after the current one).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.push(at.max(self.now), event)
    }

    /// Cancel a previously scheduled event. Returns `true` if it was still
    /// pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Request the engine to stop after the current event completes.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// Outcome of [`Simulation::run_until`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The queue drained before the horizon.
    QueueEmpty,
    /// The horizon was reached; pending events beyond it remain queued.
    HorizonReached,
    /// The model requested a stop.
    Stopped,
    /// The event budget was exhausted (see [`Simulation::set_event_limit`]).
    EventLimit,
}

/// A discrete-event simulation over a model `M`.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
    event_limit: u64,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation at time zero with an empty queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            event_limit: u64::MAX,
        }
    }

    /// The current simulated time (time of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Borrow the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrow the model (e.g. to extract metrics between phases).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Seed an event before (or between) runs.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        self.queue.push(at.max(self.now), event)
    }

    /// Seed an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Cap the total number of dispatched events; `run*` returns
    /// [`RunOutcome::EventLimit`] once exceeded. A safety valve against
    /// accidental event storms in scenarios and tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Dispatch the single earliest event.
    ///
    /// Returns `None` when an event was dispatched and the run may
    /// continue; otherwise the terminal [`RunOutcome`]: the event
    /// budget was already exhausted ([`RunOutcome::EventLimit`], no
    /// event dispatched), the queue was empty
    /// ([`RunOutcome::QueueEmpty`]), or the dispatched event's handler
    /// requested a stop ([`RunOutcome::Stopped`]) — the same
    /// stop/budget contract as [`Simulation::run_until`], which a
    /// plain `bool` used to silently drop.
    pub fn step(&mut self) -> Option<RunOutcome> {
        if self.processed >= self.event_limit {
            return Some(RunOutcome::EventLimit);
        }
        let Some((time, event)) = self.queue.pop() else {
            return Some(RunOutcome::QueueEmpty);
        };
        self.dispatch(time, event)
    }

    /// Run until the queue drains, the model stops, or `horizon` is reached.
    /// Events scheduled exactly at the horizon are dispatched.
    ///
    /// On [`RunOutcome::HorizonReached`] the clock moves forward to the
    /// horizon, so later scheduling is relative to it, and the caller may
    /// schedule anywhere from there on. A horizon behind the clock
    /// dispatches nothing and leaves the clock where it is: it never runs
    /// backwards.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.processed >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            let Some((time, event)) = self.queue.pop_until(horizon) else {
                if self.queue.is_empty() {
                    return RunOutcome::QueueEmpty;
                }
                // Leave future events queued.
                self.now = self.now.max(horizon);
                return RunOutcome::HorizonReached;
            };
            if let Some(outcome) = self.dispatch(time, event) {
                return outcome;
            }
        }
    }

    /// Hand one popped event to the model. Returns
    /// [`RunOutcome::Stopped`] if its handler requested a stop.
    fn dispatch(&mut self, time: SimTime, event: M::Event) -> Option<RunOutcome> {
        debug_assert!(time >= self.now, "event queue violated time order");
        self.now = time;
        self.processed += 1;
        let mut stop = false;
        let mut ctx = Context {
            queue: &mut self.queue,
            now: time,
            stop: &mut stop,
        };
        self.model.handle(time, event, &mut ctx);
        if stop {
            Some(RunOutcome::Stopped)
        } else {
            None
        }
    }

    /// Run until the queue drains or the model stops.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A model that counts down, rescheduling itself, and records dispatch
    /// times.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    enum Ev {
        Tick,
        StopNow,
    }

    impl Model for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, ctx: &mut Context<'_, Ev>) {
            match event {
                Ev::Tick => {
                    self.fired_at.push(now);
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        ctx.schedule_in(SimDuration::from_micros(10), Ev::Tick);
                    }
                }
                Ev::StopNow => ctx.stop(),
            }
        }
    }

    #[test]
    fn runs_chain_of_events() {
        let mut sim = Simulation::new(Countdown {
            remaining: 3,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert_eq!(sim.model().fired_at.len(), 4);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_micros(30));
    }

    #[test]
    fn horizon_stops_dispatch_but_keeps_events() {
        let mut sim = Simulation::new(Countdown {
            remaining: 100,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        let horizon = SimTime::ZERO + SimDuration::from_micros(25);
        assert_eq!(sim.run_until(horizon), RunOutcome::HorizonReached);
        // Ticks at 0, 10, 20 us dispatched; 30 us still pending.
        assert_eq!(sim.model().fired_at.len(), 3);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), horizon);
        // Resuming dispatches the rest.
        assert_eq!(
            sim.run_until(SimTime::ZERO + SimDuration::from_micros(40)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.model().fired_at.len(), 5);
    }

    #[test]
    fn a_horizon_behind_the_clock_leaves_it_alone() {
        let mut sim = Simulation::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::from_ps(100), Ev::Tick);
        sim.schedule_at(SimTime::from_ps(1_000), Ev::Tick);
        assert_eq!(
            sim.run_until(SimTime::from_ps(500)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.now(), SimTime::from_ps(500));
        assert_eq!(
            sim.run_until(SimTime::from_ps(50)),
            RunOutcome::HorizonReached
        );
        assert_eq!(
            sim.now(),
            SimTime::from_ps(500),
            "the clock must not run backwards"
        );
        // Scheduled relative to 500 ps, so it fires between the two.
        sim.schedule_in(SimDuration::from_ps(10), Ev::Tick);
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        let fired: Vec<u64> = sim.model().fired_at.iter().map(|t| t.as_ps()).collect();
        assert_eq!(fired, [100, 510, 1_000]);
    }

    #[test]
    fn event_exactly_at_horizon_is_dispatched() {
        let mut sim = Simulation::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        let at = SimTime::from_ps(1000);
        sim.schedule_at(at, Ev::Tick);
        assert_eq!(sim.run_until(at), RunOutcome::QueueEmpty);
        assert_eq!(sim.model().fired_at, vec![at]);
    }

    #[test]
    fn model_can_stop_the_run() {
        let mut sim = Simulation::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::from_ps(5), Ev::StopNow);
        sim.schedule_at(SimTime::from_ps(10), Ev::Tick);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert!(sim.model().fired_at.is_empty());
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn event_limit_guards_against_storms() {
        let mut sim = Simulation::new(Countdown {
            remaining: u32::MAX,
            fired_at: vec![],
        });
        sim.set_event_limit(50);
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        assert_eq!(sim.run(), RunOutcome::EventLimit);
        assert_eq!(sim.processed(), 50);
    }

    #[test]
    fn step_dispatches_one_event() {
        let mut sim = Simulation::new(Countdown {
            remaining: 1,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        assert_eq!(sim.step(), None);
        assert_eq!(sim.model().fired_at.len(), 1);
        assert_eq!(sim.step(), None);
        assert_eq!(sim.step(), Some(RunOutcome::QueueEmpty));
    }

    #[test]
    fn step_honours_model_stop_requests() {
        let mut sim = Simulation::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        sim.schedule_at(SimTime::from_ps(5), Ev::StopNow);
        sim.schedule_at(SimTime::from_ps(10), Ev::Tick);
        // The stop request used to be built and then discarded; now the
        // single-step driver sees it too.
        assert_eq!(sim.step(), Some(RunOutcome::Stopped));
        assert_eq!(sim.pending(), 1, "stop leaves later events queued");
    }

    #[test]
    fn step_honours_the_event_limit() {
        let mut sim = Simulation::new(Countdown {
            remaining: u32::MAX,
            fired_at: vec![],
        });
        sim.set_event_limit(2);
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        assert_eq!(sim.step(), None);
        assert_eq!(sim.step(), None);
        // The budget is checked before dispatch, exactly as in
        // `run_until`: the third step dispatches nothing.
        assert_eq!(sim.step(), Some(RunOutcome::EventLimit));
        assert_eq!(sim.processed(), 2);
    }
}
