//! The pending-event queue.
//!
//! A binary heap ordered by `(time, sequence)`. The sequence number is a
//! monotonically increasing insertion counter, which gives two guarantees
//! the protocols rely on:
//!
//! 1. **Determinism** — ties in simulated time are broken by insertion
//!    order, never by allocation addresses or hash ordering.
//! 2. **FIFO at equal times** — events scheduled earlier fire earlier,
//!    matching the intuition of a causal message sequence.
//!
//! Cancellation is lazy: the id is removed from the pending set and the
//! heap entry is dropped when it surfaces. This keeps `cancel` O(1) without
//! intrusive heap surgery.
//!
//! The pending set itself is a dense **bit window** over the monotonic
//! sequence numbers rather than a `HashSet<u64>`: ids are allocated in
//! order and retired roughly in order, so the live ids always occupy a
//! narrow sliding window. One bit per in-window id makes the
//! cancellation check a shift-and-mask instead of a hash lookup, and
//! fully-retired leading words are trimmed as they empty.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a scheduled event, usable to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub(crate) u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A set of `u64` sequence numbers stored as a sliding window of bit
/// words. Inserts are monotonic (each new seq is the largest so far);
/// membership tests and removals below the window's base answer
/// `false` immediately. Leading all-zero words are trimmed on removal,
/// so memory tracks the live span, not the total history.
#[derive(Default)]
struct SeqWindow {
    /// Word index (seq / 64) of `words[0]`.
    base: u64,
    words: VecDeque<u64>,
    live: usize,
}

impl SeqWindow {
    /// Insert `seq` (monotonically increasing across calls).
    fn insert(&mut self, seq: u64) {
        let word = seq / 64;
        if self.words.is_empty() {
            self.base = word;
        }
        debug_assert!(word >= self.base, "inserts must be monotonic");
        while self.base + self.words.len() as u64 <= word {
            self.words.push_back(0);
        }
        let idx = (word - self.base) as usize;
        let bit = 1u64 << (seq % 64);
        debug_assert_eq!(self.words[idx] & bit, 0, "duplicate insert");
        self.words[idx] |= bit;
        self.live += 1;
    }

    /// Test membership without mutating.
    fn contains(&self, seq: u64) -> bool {
        let word = seq / 64;
        if word < self.base {
            return false;
        }
        let idx = (word - self.base) as usize;
        if idx >= self.words.len() {
            return false;
        }
        self.words[idx] & (1u64 << (seq % 64)) != 0
    }

    /// Remove `seq`, reporting whether it was present. Trims leading
    /// all-zero words (amortised O(1)).
    fn remove(&mut self, seq: u64) -> bool {
        let word = seq / 64;
        if word < self.base {
            return false;
        }
        let idx = (word - self.base) as usize;
        if idx >= self.words.len() {
            return false;
        }
        let bit = 1u64 << (seq % 64);
        if self.words[idx] & bit == 0 {
            return false;
        }
        self.words[idx] &= !bit;
        self.live -= 1;
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 1;
        }
        true
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// Priority queue of future events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers of events that are scheduled and not yet popped or
    /// cancelled. An entry surfacing from the heap whose seq is absent here
    /// has been cancelled and is silently dropped.
    pending: SeqWindow,
    next_seq: u64,
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
            heap: BinaryHeap::new(),
            pending: SeqWindow::default(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time`. Returns an id that can be
    /// passed to [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.pending.insert(seq);
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.pending.remove(id.0)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.pending.remove(entry.seq) {
                return Some((entry.time, entry.event));
            }
        }
        None
    }

    /// Time of the earliest pending event, if any. Cancelled entries at the
    /// front are discarded as a side effect.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.pending.contains(entry.seq) {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.len() == 0
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
        assert!(!q.cancel(EventId(42)));
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
    fn seq_window_trims_leading_words() {
        let mut w = SeqWindow::default();
        for s in 0..200u64 {
            w.insert(s);
        }
        assert_eq!(w.len(), 200);
        // Retire the first two words entirely; the window must slide.
        for s in 0..128u64 {
            assert!(w.remove(s));
        }
        assert_eq!(w.base, 2);
        assert_eq!(w.words.len(), 2);
        // Ids below the base answer false without scanning.
        assert!(!w.remove(5));
        assert!(!w.contains(64));
        assert!(w.contains(199));
        assert_eq!(w.len(), 72);
    }

    #[test]
    fn seq_window_sparse_pinning() {
        // One old live id pins the window; later words still work.
        let mut w = SeqWindow::default();
        w.insert(3);
        for s in 640..650u64 {
            w.insert(s);
        }
        assert_eq!(w.base, 0);
        assert!(w.contains(3));
        assert!(!w.contains(100));
        assert!(w.remove(3));
        // Removing the pin trims every empty leading word at once.
        assert_eq!(w.base, 10);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn seq_window_restarts_after_draining() {
        let mut w = SeqWindow::default();
        w.insert(0);
        assert!(w.remove(0));
        assert_eq!(w.len(), 0);
        // A much later insert re-bases the (empty) window.
        w.insert(100_000);
        assert_eq!(w.words.len(), 1);
        assert!(w.contains(100_000));
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
            assert!(!q.cancel(EventId(v)), "popped id cannot cancel");
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
