//! # qn-sim — deterministic discrete-event simulation core
//!
//! The simulation engine underlying the QNP reproduction (substitute for
//! the NetSquid engine used in the paper). Design goals, in order:
//!
//! 1. **Determinism** — integer picosecond clock, `(time, insertion)` event
//!    ordering, named RNG substreams. Same seed ⇒ same run, bit for bit.
//! 2. **Simplicity** — single-threaded, no async runtime, no trait-object
//!    event dispatch; the model is a plain state machine handling a typed
//!    event enum (the smoltcp philosophy applied to simulation), and a
//!    run ends when its queue drains or at its horizon.
//! 3. **Testability** — every piece is usable standalone; protocol cores in
//!    the higher crates never depend on this crate's engine, only on its
//!    time types.
//!
//! ## Example
//!
//! ```
//! use qn_sim::{Model, Context, Simulation, SimTime, SimDuration};
//!
//! struct Pinger { pongs: u32 }
//! enum Ev { Ping, Pong }
//!
//! impl Model for Pinger {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, ev: Ev, ctx: &mut Context<'_, Ev>) {
//!         match ev {
//!             Ev::Ping => { ctx.schedule_in(SimDuration::from_micros(5), Ev::Pong); }
//!             Ev::Pong => { self.pongs += 1; }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Pinger { pongs: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Ping);
//! sim.run();
//! assert_eq!(sim.model().pongs, 1);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_micros(5));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod ids;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Context, Model, RunOutcome, Simulation};
pub use ids::{LinkId, NodeId};
pub use queue::{EventId, EventQueue};
pub use rng::{Geometric, SimRng};
pub use stats::Samples;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceKind, TraceRow};
