//! The simulation engine: a clock plus a binary heap of pending events.
//!
//! The engine is deliberately *pull*-based: callers `pop()` events and run
//! their own handler logic. This keeps the kernel free of callback lifetimes
//! and makes protocol state machines (the cluster head, the adversary
//! coordinator, ...) ordinary owned structs that the experiment loop drives.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::SimTime;

/// A heap entry, ordered so the *earliest* `(time, seq)` is the max.
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
        // Reverse so BinaryHeap (a max-heap) yields smallest time first,
        // then smallest sequence number.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event simulation engine.
///
/// The engine owns the virtual clock. Popping an event advances the clock to
/// that event's firing time; time never moves backwards. Events pop in
/// `(time, sequence)` order: same-time events fire in the order they were
/// scheduled.
///
/// ```rust
/// use tibfit_sim::{Engine, SimTime};
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::from_ticks(10), "timeout");
/// engine.schedule_at(SimTime::from_ticks(5), "report");
/// engine.schedule_at(SimTime::from_ticks(10), "poll");
/// let fired: Vec<&str> = std::iter::from_fn(|| engine.pop().map(|(_, e)| e)).collect();
/// assert_eq!(fired, vec!["report", "timeout", "poll"]);
/// assert_eq!(engine.now(), SimTime::from_ticks(10));
/// ```
pub struct Engine<E> {
    now: SimTime,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the next event, advancing the clock to its
    /// firing time. Returns `None` when no event is pending.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { time, event, .. } = self.heap.pop()?;
        self.now = time;
        Some((time, event))
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ticks(10), 'a');
        e.schedule_at(SimTime::from_ticks(20), 'b');
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_ticks(10));
        e.pop();
        assert_eq!(e.now(), SimTime::from_ticks(20));
    }

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ticks(30), 3);
        e.schedule_at(SimTime::from_ticks(10), 1);
        e.schedule_at(SimTime::from_ticks(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ticks(10), ());
        e.pop();
        e.schedule_at(SimTime::from_ticks(5), ());
    }

    #[test]
    fn same_time_events_fifo() {
        let mut e = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime::from_ticks(3), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_on_far_future_ties() {
        // Same-time FIFO holds for events scheduled long before they
        // fire, behind an earlier one that is popped first.
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ticks(1), -1);
        let far = SimTime::from_ticks(10_240);
        for i in 0..100 {
            e.schedule_at(far, i);
        }
        assert_eq!(e.pop(), Some((SimTime::from_ticks(1), -1)));
        let order: Vec<i32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ticks(10), "a");
        e.schedule_at(SimTime::from_ticks(5), "b");
        assert_eq!(e.pop().unwrap().1, "b");
        // Earlier than the pending head, not earlier than the clock.
        e.schedule_at(SimTime::from_ticks(7), "c");
        e.schedule_at(SimTime::from_ticks(5), "d");
        let order: Vec<&str> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!["d", "c", "a"]);
    }

    #[test]
    fn debug_output_nonempty() {
        let e: Engine<()> = Engine::new();
        assert!(format!("{e:?}").contains("Engine"));
    }
}
