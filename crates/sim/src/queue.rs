//! The pending-event queue: a monotone radix queue over a slab of events.
//!
//! Events pop in `(time, sequence)` order. The sequence number counts
//! insertions, which gives two guarantees the protocols rely on:
//!
//! 1. **Determinism** — ties in simulated time are broken by insertion
//!    order, never by allocation addresses or hash ordering.
//! 2. **FIFO at equal times** — events scheduled earlier fire earlier,
//!    matching the intuition of a causal message sequence.
//!
//! # Design
//!
//! The events themselves live in a slab (`events`, with the sequence
//! number of each slot's occupant in `seqs` and a free list of empty
//! slots). The ordering structure holds only 24-byte keys
//! `(time, seq, slot)`, and an [`EventId`] names `(seq, slot)`.
//!
//! `last` is the time of the last popped event (zero before the first
//! pop), and no pending event is earlier. A key whose time equals `last`
//! waits in the `due` FIFO. Any other key goes to bucket
//! `63 - (time ^ last).leading_zeros()`, the highest bit in which its
//! time differs from `last`; a `u64` mask marks the non-empty buckets.
//! Every key in a lower bucket is earlier than every key in a higher
//! one, so the earliest pending event is in `due` or in the lowest
//! non-empty bucket.
//!
//! A pop takes `due` front to back. When `due` is empty it finds the
//! lowest non-empty bucket and that bucket's live minimum `m`, sets
//! `last = m` and re-places the bucket's keys: they agree with `m` on
//! every bit from the bucket's own upward, so each lands in a lower
//! bucket or in `due`. Keys in higher buckets keep their place, since
//! `m` agrees with the old `last` above the emptied bucket. Each key
//! moves down at most 64 times over its life; on the `openworld_wire`
//! benchmark it moves 1.6 times on average.
//!
//! # Order
//!
//! Every bucket, and `due`, stays in insertion order: a push appends the
//! largest sequence number so far, and a bucket is re-placed only while
//! `due` and every lower bucket are empty, in its own order, so each
//! key it sends down lands behind no later insertion. Equal times always
//! share a bucket and reach `due` together. So events at equal times
//! leave in insertion order, and pops follow `(time, seq)` exactly.
//!
//! # The monotone contract
//!
//! [`EventQueue::push`] requires `time >= last` and panics otherwise: a
//! key behind `last` has no bucket, and accepting it would break the
//! order silently. The engine meets this by clamping every schedule to
//! its clock, which never runs behind `last`.
//! [`EventQueue::pop_until`] returns the earliest event at or before a
//! horizon and never moves `last` past that horizon, so after a run
//! stops at a horizon the caller may still schedule anywhere between
//! the horizon and the next pending event. [`EventQueue::peek_time`]
//! moves nothing.
//!
//! # Cancellation
//!
//! [`EventQueue::cancel`] empties the event's slot at once, dropping
//! the event, if the slot still holds the same sequence number; an id
//! whose event was popped or cancelled, even if its slot has been
//! reused since, cancels nothing. The cancelled event's key stays where
//! it is and is discarded when the queue next meets it, in `due` or
//! while re-placing its bucket.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Identifier of a scheduled event, usable to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// What the ordering structure holds for one scheduled event.
#[derive(Clone, Copy)]
struct Key {
    /// Event time in picoseconds.
    time: u64,
    /// Insertion number; breaks ties in time.
    seq: u64,
    /// Slab slot of the event.
    slot: u32,
}

/// `seqs` entry of an empty slot. Sequence numbers count up from zero,
/// so no event is ever issued this one.
const EMPTY: u64 = u64::MAX;

/// Priority queue of future events.
pub struct EventQueue<E> {
    /// Time of the last popped event, in picoseconds; no pending key is
    /// earlier.
    last: u64,
    /// Keys at time `last`, in insertion order.
    due: VecDeque<Key>,
    /// `buckets[i]` holds, in insertion order, the keys whose time first
    /// differs from `last` at bit `i`.
    buckets: [Vec<Key>; 64],
    /// Bit `i` is set when `buckets[i]` is non-empty.
    occupied: u64,
    /// The slab: the event in each slot, if any.
    events: Vec<Option<E>>,
    /// Sequence number of each slot's event, or [`EMPTY`].
    seqs: Vec<u64>,
    /// Empty slots, reused last-in first-out.
    free: Vec<u32>,
    next_seq: u64,
    /// Events scheduled and not yet popped or cancelled.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            last: 0,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            events: Vec::new(),
            seqs: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `event` at absolute time `time`. Returns an id that can be
    /// passed to [`EventQueue::cancel`].
    ///
    /// # Panics
    ///
    /// If `time` is earlier than the last popped event (see the module
    /// docs on the monotone contract).
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let time = time.as_ps();
        assert!(
            time >= self.last,
            "event pushed at {time} ps, behind the queue's clock at {} ps",
            self.last
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(event);
                self.seqs[slot as usize] = seq;
                slot
            }
            None => {
                let slot = u32::try_from(self.events.len()).expect("at most 2^32 pending events");
                self.events.push(Some(event));
                self.seqs.push(seq);
                slot
            }
        };
        self.live += 1;
        self.place(Key { time, seq, slot });
        EventId { seq, slot }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.seqs.get(id.slot as usize) != Some(&id.seq) {
            return false;
        }
        self.release(id.slot);
        true
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Remove and return the earliest pending event if it is at or before
    /// `horizon`. Returns `None`, and leaves the clock at or before the
    /// horizon, when the queue is empty or its earliest event is later.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let horizon = horizon.as_ps();
        loop {
            if self.due.is_empty() && !self.advance(horizon) {
                return None;
            }
            // Everything in `due` is at `last`.
            if self.last > horizon {
                return None;
            }
            let key = self.due.pop_front().expect("due holds a key");
            if self.is_live(key) {
                return Some((SimTime::from_ps(key.time), self.release(key.slot)));
            }
        }
    }

    /// Time of the earliest pending event, if any. Moves nothing.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.due.iter().any(|&key| self.is_live(key)) {
            return Some(SimTime::from_ps(self.last));
        }
        let mut occupied = self.occupied;
        while occupied != 0 {
            let bucket = occupied.trailing_zeros() as usize;
            let earliest = self.buckets[bucket]
                .iter()
                .filter(|&&key| self.is_live(key))
                .map(|key| key.time)
                .min();
            if let Some(time) = earliest {
                return Some(SimTime::from_ps(time));
            }
            occupied &= occupied - 1;
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `key`'s event is still in its slot.
    fn is_live(&self, key: Key) -> bool {
        self.seqs[key.slot as usize] == key.seq
    }

    /// Empty `slot` and return its event.
    fn release(&mut self, slot: u32) -> E {
        self.seqs[slot as usize] = EMPTY;
        self.free.push(slot);
        self.live -= 1;
        self.events[slot as usize]
            .take()
            .expect("a live slot holds its event")
    }

    /// Append `key` to `due` or to its bucket relative to `last`.
    fn place(&mut self, key: Key) {
        if key.time == self.last {
            self.due.push_back(key);
        } else {
            let bucket = 63 - (key.time ^ self.last).leading_zeros() as usize;
            self.buckets[bucket].push(key);
            self.occupied |= 1 << bucket;
        }
    }

    /// Refill the empty `due` from the lowest bucket that holds a live
    /// key, if that bucket's earliest live key is at or before `horizon`:
    /// move `last` to that key's time and re-place the bucket. Returns
    /// whether `due` now holds a key, which is then live. Cancelled keys
    /// met on the way are discarded.
    fn advance(&mut self, horizon: u64) -> bool {
        while self.occupied != 0 {
            let bucket = self.occupied.trailing_zeros() as usize;
            let mut keys = std::mem::take(&mut self.buckets[bucket]);
            keys.retain(|&key| self.is_live(key));
            let Some(earliest) = keys.iter().map(|key| key.time).min() else {
                // It held cancelled keys only.
                self.occupied &= !(1 << bucket);
                self.buckets[bucket] = keys;
                continue;
            };
            if earliest > horizon {
                self.buckets[bucket] = keys;
                return false;
            }
            self.occupied &= !(1 << bucket);
            self.last = earliest;
            for key in keys.drain(..) {
                self.place(key);
            }
            debug_assert_eq!(self.occupied & (1 << bucket), 0, "re-placed keys go lower");
            // Hand the emptied bucket its allocation back.
            self.buckets[bucket] = keys;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(5), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a), "cancelling a popped event must not succeed");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(5), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventId { seq: 42, slot: 0 }));
        assert!(!q.cancel(EventId { seq: 42, slot: 7 }));
    }

    #[test]
    fn a_stale_id_does_not_cancel_its_slots_next_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert!(q.cancel(a));
        // The freed slot is reused at once.
        let b = q.push(t(2), "b");
        assert_eq!(a.slot, b.slot);
        assert!(!q.cancel(a), "the old id names the old event only");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn pop_until_leaves_later_events_and_the_clock() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(1_000), "b");
        assert_eq!(q.pop_until(t(500)), Some((t(10), "a")));
        assert_eq!(q.pop_until(t(500)), None);
        // The clock stayed at 10 ps: a push between the horizon and the
        // next event is accepted and pops first.
        q.push(t(600), "c");
        assert_eq!(q.pop_until(t(999)), Some((t(600), "c")));
        assert_eq!(q.pop_until(t(999)), None);
        assert_eq!(q.pop_until(t(1_000)), Some((t(1_000), "b")));
    }

    #[test]
    fn pop_until_behind_the_clock_pops_nothing() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(10), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop_until(t(9)), None, "b is due at 10 ps, after 9 ps");
        assert_eq!(q.pop_until(t(10)), Some((t(10), "b")));
    }

    #[test]
    #[should_panic(expected = "behind the queue's clock")]
    fn push_behind_the_clock_panics() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.pop();
        q.push(t(9), "b");
    }

    #[test]
    fn extreme_times_keep_their_order() {
        let mut q = EventQueue::new();
        let top = 1u64 << 63;
        q.push(SimTime::MAX, 3);
        q.push(t(top), 1);
        q.push(t(top | 1), 2);
        q.push(t(top - 1), 0);
        q.push(SimTime::MAX, 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_bucket_of_cancelled_keys_is_skipped() {
        let mut q = EventQueue::new();
        let dead: Vec<_> = (0..8).map(|i| q.push(t(1_000 + i), i)).collect();
        q.push(t(1 << 20), 99);
        for id in dead {
            assert!(q.cancel(id));
        }
        assert_eq!(q.peek_time(), Some(t(1 << 20)));
        assert_eq!(q.pop(), Some((t(1 << 20), 99)));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_cancel_pop_over_many_windows() {
        // Mirror of the qn_testkit queue model's access pattern: push,
        // cancel every third id, pop the rest in order.
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..1000u64).map(|i| q.push(t(i), i)).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*id));
            }
        }
        let mut expect = (0..1000u64).filter(|i| i % 3 != 0);
        while let Some((_, v)) = q.pop() {
            assert_eq!(Some(v), expect.next());
            assert!(!q.cancel(ids[v as usize]), "popped id cannot cancel");
        }
        assert!(expect.next().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
