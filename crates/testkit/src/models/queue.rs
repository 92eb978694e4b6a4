//! Reference model of the simulator's pending-event queue.
//!
//! `qn_sim::EventQueue` is a monotone radix queue over a slab of events:
//! keys sit in buckets by the highest bit in which their time differs
//! from the last popped time, and a cancel empties the event's slot at
//! once while its key is discarded when the queue next meets it. The
//! protocols rely on two behavioural guarantees — global `(time,
//! insertion)` ordering and O(1) cancellation that affects exactly one
//! event. The model below is the obviously-correct version: a flat list
//! scanned linearly for the minimum. Every observable (popped values,
//! peeked times, cancellation results, lengths) must agree exactly.
//!
//! The queue only accepts pushes at or after its clock, the time of the
//! last popped event. So every push is drawn as an offset from the
//! model's clock: small offsets force plenty of equal-time ties (the
//! FIFO case that a careless bucket re-placement gets wrong), a
//! log-uniform range up to 2⁴⁰ ps fills every bucket of a simulation's
//! time span, and rare far offsets reach bit 63 and, saturating,
//! `SimTime::MAX`.

use crate::ModelSpec;
use proptest::prelude::*;
use qn_sim::{EventId, EventQueue, SimTime};

/// One operation of the queue interface. `Push` payloads are the
/// model-assigned insertion index, so popped events are fully
/// identified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueueOp {
    /// Schedule an event `offset_ps` after the clock, saturating at
    /// `SimTime::MAX`.
    Push { offset_ps: u64 },
    /// Cancel the `slot % issued`-th event ever issued (live or not).
    Cancel { slot: usize },
    /// Pop the earliest event and compare it.
    Pop,
    /// Pop the earliest event at or before a horizon `offset_ps` after
    /// the clock, or before it when `behind`, and compare it.
    PopUntil { offset_ps: u64, behind: bool },
    /// Compare the earliest pending time.
    Peek,
}

/// The reference: a flat list of live `(time, insertion index)` entries.
#[derive(Default)]
pub struct QueueModel {
    /// Live events.
    live: Vec<(u64, u64)>,
    /// Liveness of every event ever issued, by insertion index.
    issued: Vec<bool>,
    /// Time of the last popped event, 0 before any pop.
    clock: u64,
}

impl QueueModel {
    fn min_entry(&self) -> Option<(u64, u64)> {
        self.live.iter().copied().min()
    }

    /// Remove the earliest entry if it is at or before `horizon`, and
    /// move the clock to it.
    fn pop_until(&mut self, horizon: u64) -> Option<(u64, u64)> {
        let (time, index) = self.min_entry().filter(|&(time, _)| time <= horizon)?;
        self.issued[index as usize] = false;
        self.live.retain(|&(_, i)| i != index);
        self.clock = time;
        Some((time, index))
    }
}

/// Offsets from a queue's clock, in picoseconds: ties, the buckets of a
/// simulation's time span, and rarely the top bits up to
/// `SimTime::MAX` (add them saturating). The engine-level order
/// property draws its delays and horizons from here too.
pub fn offset_strategy() -> BoxedStrategy<u64> {
    // Uniform in [0, 2^bits): log-uniform over `bits`.
    fn log_uniform(bits: std::ops::RangeInclusive<u32>) -> BoxedStrategy<u64> {
        (bits, any::<u64>())
            .prop_map(|(bits, r)| r.checked_shr(64 - bits).unwrap_or(0))
            .boxed()
    }
    prop_oneof![
        0u64..16,
        0u64..16,
        log_uniform(0..=40),
        log_uniform(0..=40),
        prop_oneof![log_uniform(41..=64), Just(u64::MAX)],
    ]
    .boxed()
}

/// The system under test plus the ids it handed out.
pub struct QueueSystem {
    queue: EventQueue<u64>,
    ids: Vec<EventId>,
}

/// [`ModelSpec`] for the event queue.
pub struct QueueSpec;

impl ModelSpec for QueueSpec {
    type Op = QueueOp;
    type Model = QueueModel;
    type System = QueueSystem;

    fn new_model(&self) -> QueueModel {
        QueueModel::default()
    }

    fn new_system(&self) -> QueueSystem {
        QueueSystem {
            queue: EventQueue::new(),
            ids: Vec::new(),
        }
    }

    fn op_strategy(&self) -> BoxedStrategy<QueueOp> {
        prop_oneof![
            offset_strategy().prop_map(|offset_ps| QueueOp::Push { offset_ps }),
            offset_strategy().prop_map(|offset_ps| QueueOp::Push { offset_ps }),
            (0usize..64).prop_map(|slot| QueueOp::Cancel { slot }),
            Just(QueueOp::Pop),
            (offset_strategy(), any::<bool>())
                .prop_map(|(offset_ps, behind)| QueueOp::PopUntil { offset_ps, behind }),
            Just(QueueOp::Peek),
        ]
        .boxed()
    }

    fn precondition(&self, model: &QueueModel, op: &QueueOp) -> bool {
        match op {
            QueueOp::Cancel { .. } => !model.issued.is_empty(),
            _ => true,
        }
    }

    fn apply(
        &self,
        model: &mut QueueModel,
        system: &mut QueueSystem,
        op: &QueueOp,
    ) -> Result<(), String> {
        match *op {
            QueueOp::Push { offset_ps } => {
                let time_ps = model.clock.saturating_add(offset_ps);
                let index = model.issued.len() as u64;
                let id = system.queue.push(SimTime::from_ps(time_ps), index);
                system.ids.push(id);
                model.live.push((time_ps, index));
                model.issued.push(true);
                Ok(())
            }
            QueueOp::Cancel { slot } => {
                let idx = slot % model.issued.len();
                let expected = model.issued[idx];
                let got = system.queue.cancel(system.ids[idx]);
                if got != expected {
                    return Err(format!(
                        "cancel of event #{idx}: system returned {got}, model expected {expected}"
                    ));
                }
                if expected {
                    model.issued[idx] = false;
                    model.live.retain(|(_, i)| *i != idx as u64);
                }
                Ok(())
            }
            QueueOp::Pop => {
                let expected = model.pop_until(u64::MAX);
                let got = system.queue.pop();
                let got_norm = got.map(|(t, payload)| (t.as_ps(), payload));
                if got_norm != expected {
                    return Err(format!(
                        "pop: system returned {got_norm:?}, model expected {expected:?}"
                    ));
                }
                Ok(())
            }
            QueueOp::PopUntil { offset_ps, behind } => {
                let horizon = if behind {
                    model.clock.saturating_sub(offset_ps)
                } else {
                    model.clock.saturating_add(offset_ps)
                };
                let expected = model.pop_until(horizon);
                let got = system.queue.pop_until(SimTime::from_ps(horizon));
                let got_norm = got.map(|(t, payload)| (t.as_ps(), payload));
                if got_norm != expected {
                    return Err(format!(
                        "pop_until({horizon} ps): system returned {got_norm:?}, \
                         model expected {expected:?}"
                    ));
                }
                Ok(())
            }
            QueueOp::Peek => {
                let expected = model.min_entry().map(|(t, _)| t);
                let got = system.queue.peek_time().map(|t| t.as_ps());
                if got != expected {
                    return Err(format!(
                        "peek_time: system returned {got:?}, model expected {expected:?}"
                    ));
                }
                Ok(())
            }
        }
    }

    fn invariants(&self, model: &QueueModel, system: &QueueSystem) -> Result<(), String> {
        if system.queue.len() != model.live.len() {
            return Err(format!(
                "len: system {} vs model {}",
                system.queue.len(),
                model.live.len()
            ));
        }
        if system.queue.is_empty() != model.live.is_empty() {
            return Err("is_empty disagrees with len".to_string());
        }
        Ok(())
    }
}
