//! Differential test: the timer-wheel [`EventQueue`] must behave exactly
//! like the reference [`HeapEventQueue`] — same pop sequence (times,
//! payloads, FIFO tie-breaks), same lengths, same peeks — under tens of
//! thousands of randomized operations, including dense same-tick bursts,
//! far-future overflow pushes, pushes behind the cursor, and clears.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tibfit_sim::rng::SimRng;
use tibfit_sim::{EventQueue, SimTime, WHEEL_SPAN};

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
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The `BinaryHeap`-backed queue the timer wheel replaced, kept here as
/// the reference: `(time, sequence)` order, FIFO among same-time events.
struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> HeapEventQueue<E> {
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Drives both queues with an identical op stream and asserts lockstep
/// equality. Each payload is unique so FIFO tie-break violations cannot
/// hide.
fn drive(seed: u64, ops: usize, time_fn: impl Fn(&mut SimRng, u64) -> u64) {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = SimRng::seed_from(seed);
    let mut payload = 0u64;
    let mut last_popped = 0u64;
    for op in 0..ops {
        match rng.uniform_usize(100) {
            // Push-heavy mix so the queues stay populated.
            0..=54 => {
                let t = time_fn(&mut rng, last_popped);
                wheel.push(SimTime::from_ticks(t), payload);
                heap.push(SimTime::from_ticks(t), payload);
                payload += 1;
            }
            55..=94 => {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "pop diverged at op {op} (seed {seed})");
                if let Some((t, _)) = w {
                    last_popped = t.ticks();
                }
            }
            95..=98 => {
                assert_eq!(
                    wheel.peek_time(),
                    heap.peek_time(),
                    "peek diverged at op {op} (seed {seed})"
                );
            }
            _ => {
                wheel.clear();
                heap.clear();
            }
        }
        assert_eq!(wheel.len(), heap.len(), "len diverged at op {op} (seed {seed})");
        assert_eq!(wheel.is_empty(), heap.is_empty());
    }
    // Drain whatever is left and compare the full tail.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        assert_eq!(w, h, "drain diverged (seed {seed})");
        if w.is_none() {
            break;
        }
    }
}

#[test]
fn heap_queue_matches_basic_contract() {
    let mut q = HeapEventQueue::new();
    q.push(SimTime::from_ticks(5), "late");
    q.push(SimTime::from_ticks(1), "early");
    q.push(SimTime::from_ticks(1), "early-second");
    assert_eq!(q.peek_time(), Some(SimTime::from_ticks(1)));
    assert_eq!(q.len(), 3);
    assert_eq!(q.pop(), Some((SimTime::from_ticks(1), "early")));
    assert_eq!(q.pop(), Some((SimTime::from_ticks(1), "early-second")));
    assert_eq!(q.pop(), Some((SimTime::from_ticks(5), "late")));
    assert!(q.is_empty());
    q.push(SimTime::ZERO, "x");
    q.clear();
    assert_eq!(q.pop(), None);
}

#[test]
fn randomized_ops_match_heap_reference() {
    // 10k mixed operations over a horizon that exercises wheel buckets,
    // the overdue path (pushes at/behind the last popped tick), and the
    // overflow heap (pushes beyond the wheel window).
    for seed in [1, 2, 3, 42, 0xDEAD] {
        drive(seed, 10_000, |rng, last| {
            last.saturating_sub(200) + rng.uniform_usize(3 * WHEEL_SPAN) as u64
        });
    }
}

#[test]
fn dense_same_tick_bursts_match() {
    // Heavy tie-breaking: every push lands on one of a handful of ticks.
    for seed in [7, 8] {
        drive(seed, 10_000, |rng, last| last + rng.uniform_usize(3) as u64);
    }
}

#[test]
fn sparse_far_future_matches() {
    // Paper-scale pattern: bursts separated by ~1000-tick gaps, so most
    // pushes cross the wheel window and cascade through the overflow heap.
    for seed in [11, 12] {
        drive(seed, 10_000, |rng, last| {
            last + 1000 * rng.uniform_usize(8) as u64 + rng.uniform_usize(50) as u64
        });
    }
}

#[test]
fn engine_pop_until_semantics_unchanged() {
    // The Engine composes peek + pop; make sure the wheel preserves the
    // horizon behavior the collector poll loop depends on.
    use tibfit_sim::{Duration, Engine};
    let mut e = Engine::new();
    e.schedule_at(SimTime::from_ticks(5), 'a');
    e.schedule_at(SimTime::from_ticks(2000), 'b');
    let h = e.schedule_after(Duration::from_ticks(10), 'c');
    e.cancel(h);
    assert_eq!(e.pop_until(SimTime::from_ticks(100)), Some((SimTime::from_ticks(5), 'a')));
    assert_eq!(e.pop_until(SimTime::from_ticks(100)), None);
    assert_eq!(e.now(), SimTime::from_ticks(100));
    assert_eq!(e.pop(), Some((SimTime::from_ticks(2000), 'b')));
    assert_eq!(e.pop(), None);
}
