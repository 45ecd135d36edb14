//! The pending-event queue.
//!
//! [`EventQueue`] is a bucketed timer wheel: the near future (a window of
//! [`WHEEL_SPAN`] ticks) lives in per-tick FIFO buckets indexed by an
//! occupancy bitmap, and far-future timers wait in an overflow binary
//! heap until the window advances over them. Push and pop are O(1) on the
//! wheel fast path — no heap sift, no per-event comparisons — which is
//! what the Monte-Carlo hot loop pays per event.
//!
//! Ordering is *identical* to the previous `BinaryHeap` implementation:
//! events pop in `(time, sequence)` order, where the sequence number makes
//! same-time events pop in insertion (FIFO) order. That equivalence is
//! enforced by a randomized differential test (`tests/differential_queue.rs`)
//! against a plain `BinaryHeap` reference queue kept in the test itself.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::clock::SimTime;

/// Width of the near-term wheel window, in ticks. Must be a power of two.
///
/// Events within `WHEEL_SPAN` ticks of the wheel's base go straight into
/// a per-tick bucket; later events overflow into a heap and are cascaded
/// in when the wheel drains and re-bases. 1024 ticks comfortably covers a
/// `T_out` window plus jitter at paper scale, so in the DES hot loop only
/// the (sparse) far-future ground-truth injections touch the heap.
pub const WHEEL_SPAN: usize = 1024;

const WORDS: usize = WHEEL_SPAN / 64;

/// An entry in the queue; ordered so the *earliest* entry is the heap max.
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

/// A time-ordered queue of pending events with FIFO tie-breaking.
///
/// ```rust
/// use tibfit_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ticks(5), "late");
/// q.push(SimTime::from_ticks(1), "early");
/// q.push(SimTime::from_ticks(1), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_ticks(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_ticks(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_ticks(5), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Per-tick FIFO buckets covering `[base, base + WHEEL_SPAN)`.
    /// Bucket `i` holds events at exactly tick `base + i`, in push order
    /// (ascending sequence number).
    slots: Vec<VecDeque<Entry<E>>>,
    /// One bit per slot: set iff the slot has pending entries.
    occupied: [u64; WORDS],
    /// Tick of slot 0.
    base: u64,
    /// Scan cursor: slots below `cursor` are drained (dead region).
    cursor: usize,
    /// Events at or beyond `base + WHEEL_SPAN`.
    overflow: BinaryHeap<Entry<E>>,
    /// Events pushed at a time the wheel cursor has already passed
    /// (only possible when the queue is driven directly, not via
    /// [`crate::Engine`], whose clock forbids scheduling into the past).
    overdue: BinaryHeap<Entry<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(WHEEL_SPAN);
        slots.resize_with(WHEEL_SPAN, VecDeque::new);
        EventQueue {
            slots,
            occupied: [0; WORDS],
            base: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            overdue: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Enqueues `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { time, seq, event };
        let t = time.ticks();
        if t < self.base {
            self.overdue.push(entry);
            return;
        }
        let rel = t - self.base;
        if rel < self.cursor as u64 {
            // Behind the cursor: the wheel already swept past this tick.
            self.overdue.push(entry);
        } else if rel < WHEEL_SPAN as u64 {
            let idx = rel as usize;
            self.slots[idx].push_back(entry);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        // Overdue entries predate the wheel floor, so they are strictly
        // earlier than anything the wheel or the overflow heap holds.
        if let Some(e) = self.overdue.pop() {
            self.len -= 1;
            return Some((e.time, e.event));
        }
        loop {
            if let Some(idx) = self.next_occupied_slot() {
                self.cursor = idx;
                let slot = &mut self.slots[idx];
                let entry = slot.pop_front().expect("occupied slot was empty");
                if slot.is_empty() {
                    self.occupied[idx / 64] &= !(1 << (idx % 64));
                }
                self.len -= 1;
                return Some((entry.time, entry.event));
            }
            // Wheel drained; cascade the overflow heap into a re-based
            // window. Termination: the overflow is non-empty (len > 0 and
            // every other store is empty) and re-basing always admits at
            // least its minimum entry.
            debug_assert!(!self.overflow.is_empty(), "len desynchronised");
            self.rebase();
        }
    }

    /// Moves the wheel window so it starts at the earliest overflow entry
    /// and drains every overflow entry inside the new window into its
    /// bucket. Heap pops come out in `(time, seq)` order, so each bucket
    /// stays sequence-sorted.
    fn rebase(&mut self) {
        let new_base = self
            .overflow
            .peek()
            .expect("rebase on empty overflow")
            .time
            .ticks();
        self.base = new_base;
        self.cursor = 0;
        while let Some(head) = self.overflow.peek() {
            let rel = head.time.ticks() - self.base;
            if rel >= WHEEL_SPAN as u64 {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry vanished");
            let idx = rel as usize;
            self.slots[idx].push_back(entry);
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Index of the first occupied slot at or after the cursor.
    fn next_occupied_slot(&self) -> Option<usize> {
        let mut word = self.cursor / 64;
        // Mask off bits below the cursor in its word.
        let mut bits = self.occupied[word] & (!0u64 << (self.cursor % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Returns the firing time of the earliest event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.overdue.peek() {
            return Some(e.time);
        }
        if let Some(idx) = self.next_occupied_slot() {
            return self.slots[idx].front().map(|e| e.time);
        }
        self.overflow.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending entry in pop order (`(time, seq)` ascending),
    /// without draining the queue.
    ///
    /// This is the checkpoint capture path: re-pushing the returned
    /// entries into a fresh queue in this order reproduces the exact
    /// pop sequence, because `push` assigns ascending sequence numbers
    /// and pop order is `(time, seq)`. Not on the hot path — it walks
    /// the whole wheel.
    #[must_use]
    pub fn ordered_entries(&self) -> Vec<(SimTime, &E)> {
        let mut all: Vec<(SimTime, u64, &E)> = Vec::with_capacity(self.len);
        for e in self.overdue.iter().chain(self.overflow.iter()) {
            all.push((e.time, e.seq, &e.event));
        }
        for slot in &self.slots {
            for e in slot {
                all.push((e.time, e.seq, &e.event));
            }
        }
        all.sort_unstable_by_key(|&(t, s, _)| (t, s));
        all.into_iter().map(|(t, _, e)| (t, e)).collect()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        for w in 0..WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.slots[idx].clear();
            }
            self.occupied[w] = 0;
        }
        self.overflow.clear();
        self.overdue.clear();
        self.len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_seq", &self.next_seq)
            .field("base", &self.base)
            .field("cursor", &self.cursor)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(30), 3);
        q.push(SimTime::from_ticks(10), 1);
        q.push(SimTime::from_ticks(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ticks(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_on_far_future_ties() {
        // Same-tick FIFO must survive the overflow-heap detour and the
        // rebase cascade.
        let mut q = EventQueue::new();
        let far = SimTime::from_ticks(10 * WHEEL_SPAN as u64);
        for i in 0..100 {
            q.push(far, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(4), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(4)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_sees_overflow_entries() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5 * WHEEL_SPAN as u64), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(5 * WHEEL_SPAN as u64)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::from_ticks(3 * WHEEL_SPAN as u64), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(10), "a");
        q.push(SimTime::from_ticks(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_ticks(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn push_behind_cursor_still_pops_earliest_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(500), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        // Both of these land behind the cursor (the overdue heap) and
        // must come back in time-then-FIFO order.
        q.push(SimTime::from_ticks(400), "b");
        q.push(SimTime::from_ticks(300), "a");
        q.push(SimTime::from_ticks(400), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn window_boundary_spans_are_ordered() {
        // Entries straddling the wheel window: near ones in buckets, far
        // ones in overflow, interleaved pushes.
        let mut q = EventQueue::new();
        let span = WHEEL_SPAN as u64;
        for (t, v) in [(span + 7, 'd'), (3, 'a'), (span - 1, 'c'), (5, 'b'), (4 * span, 'e')] {
            q.push(SimTime::from_ticks(t), v);
        }
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd', 'e']);
    }

    #[test]
    fn ordered_entries_reproduce_pop_order_across_all_stores() {
        // Entries in every store at once: overdue, wheel buckets, and
        // overflow. Rebuilding a queue from the captured order must pop
        // identically to the original.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(500), 0u32);
        assert_eq!(q.pop().unwrap().1, 0); // cursor now at 500
        let times = [400u64, 300, 510, 4000, 510, 300, 900];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ticks(t), i as u32 + 1);
        }
        let captured: Vec<(SimTime, u32)> =
            q.ordered_entries().into_iter().map(|(t, &e)| (t, e)).collect();
        assert_eq!(captured.len(), times.len());
        let mut rebuilt = EventQueue::new();
        for &(t, e) in &captured {
            rebuilt.push(t, e);
        }
        let from_original: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        let from_rebuilt: Vec<(SimTime, u32)> = std::iter::from_fn(|| rebuilt.pop()).collect();
        assert_eq!(from_original, from_rebuilt);
        assert_eq!(from_original.len(), times.len());
    }

    #[test]
    fn ordered_entries_empty_queue() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(q.ordered_entries().is_empty());
    }

    #[test]
    fn debug_output_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
