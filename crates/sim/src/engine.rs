//! The simulation engine: a clock plus an event queue with cancellable
//! timers.
//!
//! The engine is deliberately *pull*-based: callers `pop()` events and run
//! their own handler logic. This keeps the kernel free of callback lifetimes
//! and makes protocol state machines (the cluster head, the adversary
//! coordinator, ...) ordinary owned structs that the experiment loop drives.

use std::collections::HashSet;

use crate::clock::{Duration, SimTime};
use crate::queue::EventQueue;

/// Identifies a scheduled timer so it can be cancelled before it fires.
///
/// Handles are unique for the lifetime of an [`Engine`]; a handle from one
/// engine is meaningless to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(u64);

/// A discrete-event simulation engine.
///
/// The engine owns the virtual clock. Popping an event advances the clock to
/// that event's firing time; time never moves backwards.
///
/// ```rust
/// use tibfit_sim::{Engine, Duration, SimTime};
///
/// let mut engine = Engine::new();
/// let h = engine.schedule_after(Duration::from_ticks(10), "timeout");
/// engine.schedule_after(Duration::from_ticks(5), "report");
/// engine.cancel(h);
/// let fired: Vec<&str> = std::iter::from_fn(|| engine.pop().map(|(_, e)| e)).collect();
/// assert_eq!(fired, vec!["report"]);
/// assert_eq!(engine.now(), SimTime::from_ticks(5));
/// ```
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<(TimerHandle, E)>,
    cancelled: HashSet<TimerHandle>,
    next_handle: u64,
    dispatched: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            cancelled: HashSet::new(),
            next_handle: 0,
            dispatched: 0,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far (a cheap progress metric).
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedules `event` to fire at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> TimerHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let handle = TimerHandle(self.next_handle);
        self.next_handle += 1;
        self.queue.push(at, (handle, event));
        handle
    }

    /// Schedules `event` to fire `after` from now.
    pub fn schedule_after(&mut self, after: Duration, event: E) -> TimerHandle {
        self.schedule_at(self.now + after, event)
    }

    /// Cancels a pending timer. Returns `true` if the timer had not yet
    /// fired or been cancelled.
    ///
    /// Cancellation is lazy: the entry stays in the heap and is skipped on
    /// pop, which is O(1) here and amortized against the eventual pop.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        if handle.0 >= self.next_handle {
            return false;
        }
        self.cancelled.insert(handle)
    }

    /// Removes and returns the next live event, advancing the clock to its
    /// firing time. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some((time, (handle, event))) = self.queue.pop() {
            if self.cancelled.remove(&handle) {
                continue;
            }
            debug_assert!(time >= self.now, "event queue yielded a past event");
            self.now = time;
            self.dispatched += 1;
            return Some((time, event));
        }
        None
    }

    /// Like [`Engine::pop`] but only yields events firing at or before
    /// `deadline`; later events stay queued and the clock advances to
    /// `deadline` when the horizon is reached.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    // A cancelled head is skipped by pop(); loop again so a
                    // later-but-live event past the deadline is not returned.
                    let (time, (handle, event)) = self.queue.pop().expect("peeked entry vanished");
                    if self.cancelled.remove(&handle) {
                        continue;
                    }
                    self.now = time;
                    self.dispatched += 1;
                    return Some((time, event));
                }
                _ => {
                    if deadline > self.now {
                        self.now = deadline;
                    }
                    return None;
                }
            }
        }
    }

    /// Number of queued entries, including lazily cancelled ones.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no live events remain.
    ///
    /// This is exact even in the presence of lazy cancellation.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.len() == self.cancelled.len()
    }

    /// Live (non-cancelled) pending timers in firing order — the
    /// checkpoint capture path.
    ///
    /// Lazily cancelled entries are compacted away: they would never
    /// fire, so a restored engine does not need them.
    #[must_use]
    pub fn live_entries(&self) -> Vec<(SimTime, &E)> {
        self.queue
            .ordered_entries()
            .into_iter()
            .filter(|(_, (handle, _))| !self.cancelled.contains(handle))
            .map(|(t, (_, e))| (t, e))
            .collect()
    }

    /// Rebuilds an engine from checkpointed state: clock at `now`, the
    /// dispatch counter restored, and `entries` re-scheduled in their
    /// captured firing order (as produced by [`Engine::live_entries`]).
    ///
    /// Returns `None` if any entry fires before `now` — a healthy
    /// engine can never hold such an entry, so the blob is corrupt.
    /// Timer handles are reissued from zero; handles captured before
    /// the snapshot are meaningless against the restored engine.
    #[must_use]
    pub fn from_parts(now: SimTime, dispatched: u64, entries: Vec<(SimTime, E)>) -> Option<Self> {
        let mut engine = Engine::new();
        engine.now = now;
        engine.dispatched = dispatched;
        for (at, event) in entries {
            if at < now {
                return None;
            }
            engine.schedule_at(at, event);
        }
        Some(engine)
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
            .field("pending", &self.queue.len())
            .field("cancelled", &self.cancelled.len())
            .field("dispatched", &self.dispatched)
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
    fn cancelled_timer_does_not_fire() {
        let mut e = Engine::new();
        let h = e.schedule_after(Duration::from_ticks(5), 'x');
        assert!(e.cancel(h));
        assert!(!e.cancel(h), "double-cancel reports false");
        assert_eq!(e.pop(), None);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut e: Engine<()> = Engine::new();
        assert!(!e.cancel(TimerHandle(42)));
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
    fn pop_until_respects_deadline() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ticks(5), 'a');
        e.schedule_at(SimTime::from_ticks(15), 'b');
        assert_eq!(e.pop_until(SimTime::from_ticks(10)), Some((SimTime::from_ticks(5), 'a')));
        assert_eq!(e.pop_until(SimTime::from_ticks(10)), None);
        // Clock advanced to the deadline even though no event fired.
        assert_eq!(e.now(), SimTime::from_ticks(10));
        // The later event is still there.
        assert_eq!(e.pop(), Some((SimTime::from_ticks(15), 'b')));
    }

    #[test]
    fn pop_until_skips_cancelled_head() {
        let mut e = Engine::new();
        let h = e.schedule_at(SimTime::from_ticks(5), 'a');
        e.schedule_at(SimTime::from_ticks(6), 'b');
        e.cancel(h);
        assert_eq!(e.pop_until(SimTime::from_ticks(10)), Some((SimTime::from_ticks(6), 'b')));
    }

    #[test]
    fn is_idle_accounts_for_cancellations() {
        let mut e = Engine::new();
        let h = e.schedule_after(Duration::from_ticks(1), ());
        assert!(!e.is_idle());
        e.cancel(h);
        assert!(e.is_idle());
    }

    #[test]
    fn dispatched_counts_only_live_events() {
        let mut e = Engine::new();
        let h = e.schedule_after(Duration::from_ticks(1), 1);
        e.schedule_after(Duration::from_ticks(2), 2);
        e.cancel(h);
        while e.pop().is_some() {}
        assert_eq!(e.dispatched(), 1);
    }

    #[test]
    fn live_entries_and_from_parts_roundtrip() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_ticks(10), 'a');
        let h = e.schedule_at(SimTime::from_ticks(12), 'x');
        e.schedule_at(SimTime::from_ticks(12), 'b');
        e.schedule_at(SimTime::from_ticks(30), 'c');
        e.cancel(h);
        e.pop(); // fire 'a'; clock at 10, dispatched 1
        let captured: Vec<(SimTime, char)> =
            e.live_entries().into_iter().map(|(t, &c)| (t, c)).collect();
        assert_eq!(
            captured,
            vec![(SimTime::from_ticks(12), 'b'), (SimTime::from_ticks(30), 'c')],
            "cancelled entry must be compacted away"
        );
        let mut restored = Engine::from_parts(e.now(), e.dispatched(), captured).unwrap();
        assert_eq!(restored.now(), e.now());
        assert_eq!(restored.dispatched(), e.dispatched());
        let a: Vec<(SimTime, char)> = std::iter::from_fn(|| e.pop()).collect();
        let b: Vec<(SimTime, char)> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(e.dispatched(), restored.dispatched());
    }

    #[test]
    fn from_parts_rejects_past_entries() {
        let entries = vec![(SimTime::from_ticks(5), ())];
        assert!(Engine::from_parts(SimTime::from_ticks(10), 0, entries).is_none());
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
}
