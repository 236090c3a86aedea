//! The simulation event queue.
//!
//! [`EventQueue`] is a min-heap of `(Time, payload)` entries with **stable
//! ordering**: events at equal times pop in insertion order, so the
//! simulation is deterministic regardless of heap internals. It has no
//! cancellation: the engine retires stale events by a generation counter
//! checked at dispatch, so each pending event is one heap entry and
//! nothing of it remains once it pops.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::Time;

/// A pending event, ordered by `(at, seq)` only so the payload needs no
/// bounds.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Entry<E>) -> Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Entry<E>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Entry<E>) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use nest_simcore::events::EventQueue;
/// use nest_simcore::time::Time;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_nanos(10), "c");
/// q.schedule(Time::from_nanos(5), "a");
/// q.schedule(Time::from_nanos(5), "b");
/// assert_eq!(q.peek_time(), Some(Time::from_nanos(5)));
/// assert_eq!(q.pop(), Some((Time::from_nanos(5), "a")));
/// assert_eq!(q.pop(), Some((Time::from_nanos(5), "b")));
/// assert_eq!(q.pop(), Some((Time::from_nanos(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at time `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Removes and returns the earliest pending event.
    ///
    /// Events at the same time pop in the order they were scheduled.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Returns every pending event in schedule order: ascending fire
    /// time, ties broken by scheduling order (the order [`pop`] would
    /// deliver them).
    ///
    /// Used by snapshots: re-scheduling the returned sequence into a
    /// fresh queue preserves the relative FIFO order of same-time
    /// events, so a restored queue pops bit-identically to the
    /// original — even though the absolute sequence numbers differ.
    ///
    /// [`pop`]: EventQueue::pop
    pub fn pending_in_schedule_order(&self) -> Vec<(Time, &E)> {
        let mut pending: Vec<&Entry<E>> = self.heap.iter().map(|Reverse(e)| e).collect();
        pending.sort();
        pending.into_iter().map(|e| (e.at, &e.event)).collect()
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(30), 3);
        q.schedule(Time::from_nanos(10), 1);
        q.schedule(Time::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }
}
