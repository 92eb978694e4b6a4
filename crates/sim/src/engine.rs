//! The simulation engine: drives a [`Model`] by popping events off the
//! queue in `(time, insertion)` order and dispatching them.
//!
//! The engine is intentionally minimal — everything domain-specific (nodes,
//! channels, hardware) lives in the model. The model receives a
//! [`Context`] on every dispatch through which it schedules or cancels
//! future events and inspects the clock. A run ends when the queue
//! drains or its horizon is reached.

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
}

/// Why [`Simulation::run_until`] returned: a run ends when its queue
/// drains or at its horizon, and nothing else ends it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The queue drained before the horizon.
    QueueEmpty,
    /// The horizon was reached; pending events beyond it remain queued.
    HorizonReached,
}

/// A discrete-event simulation over a model `M`.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation at time zero with an empty queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
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

    /// Run until the queue drains or `horizon` is reached. Events
    /// scheduled exactly at the horizon are dispatched.
    ///
    /// On [`RunOutcome::HorizonReached`] the clock moves forward to the
    /// horizon, so later scheduling is relative to it, and the caller may
    /// schedule anywhere from there on. A horizon behind the clock
    /// dispatches nothing and leaves the clock where it is: it never runs
    /// backwards.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            let Some((time, event)) = self.queue.pop_until(horizon) else {
                if self.queue.is_empty() {
                    return RunOutcome::QueueEmpty;
                }
                // Leave future events queued.
                self.now = self.now.max(horizon);
                return RunOutcome::HorizonReached;
            };
            debug_assert!(time >= self.now, "event queue violated time order");
            self.now = time;
            self.processed += 1;
            let mut ctx = Context {
                queue: &mut self.queue,
                now: time,
            };
            self.model.handle(time, event, &mut ctx);
        }
    }

    /// Run until the queue drains.
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
    }

    impl Model for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, _tick: Ev, ctx: &mut Context<'_, Ev>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(SimDuration::from_micros(10), Ev::Tick);
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
}
