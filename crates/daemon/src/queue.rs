//! Bounded per-tenant ingest queues with explicit backpressure,
//! deterministic load-shedding, idempotent dedup, and a recovery
//! replay buffer.
//!
//! ## Admission model
//!
//! Records accumulate in a *pending* set while a tick is open. When
//! the router sees a `T` frame it calls [`SharedQueue::end_tick`],
//! which:
//!
//! 1. **Waits** for the worker only when something it is about to do
//!    depends on the worker's state. There are four such cases:
//!    - **(a)** the tick *sheds* (more pending records than the
//!      budget): the queue drains fully first, so `impact` ranks
//!      against settled positions;
//!    - **(b)** the last issued snapshot tick has not completed: the
//!      worker's [`SharedQueue::snapshot_view`] and
//!      [`SharedQueue::commit_snapshot`] must see exactly that tick's
//!      highwaters, counters and replay buffer;
//!    - **(c)** seeded migration ticks are still replaying;
//!    - **(d)** the records issued but not yet applied would exceed
//!      `capacity`.
//!
//!    Otherwise the batch is issued behind the ones still in flight,
//!    so the worker trails the router by at most one snapshot window.
//!    A wait is explicit backpressure — the router stops consuming
//!    input, which propagates to the upstream socket, instead of
//!    letting the queue grow — and each one is counted.
//! 2. **Admits** at most `tick_budget` pending records, chosen by
//!    highest *trust impact* (how many deployed nodes can sense the
//!    stimulus), ties broken by the stable `(time, src, seq)` key.
//!    Admitted records are applied in `(time, src, seq)` order. A tick
//!    within budget admits everything and never evaluates `impact`.
//! 3. **Sheds** the rest, counting every one (and logging its key when
//!    shed recording is on).
//! 4. **Advances the dedup highwater of every offered record — shed or
//!    admitted.** This is the crash-replay linchpin: a restarted
//!    upstream re-streams the whole file, and a record that was shed in
//!    the first life must not be resurrected in the second (it would no
//!    longer compete against its original tick batch and the runs would
//!    diverge). Highwaters are snapshotted atomically with engine
//!    state, so the shed set is a function of `(seed, stream)` alone —
//!    independent of queue capacity (any capacity ≥ budget) and of
//!    where a crash lands.
//!
//! Because ranking happens only after a full drain, the worker
//! observes every shedding batch against the same engine state in
//! every life of the process — the property the differential shedding
//! tests pin. A batch within budget admits the same records whatever
//! state the engine is in, so it needs no drain.
//!
//! ## Recovery buffer
//!
//! Every issued item is also appended to a *replay buffer* that is
//! cleared only when the worker commits a snapshot. If the worker
//! wedges or panics, the supervisor rebuilds the tenant from its last
//! snapshot and replays the buffer — zero records lost, no dependence
//! on the upstream still having them. Snapshots are suppressed while
//! replaying (the live highwater map is ahead of the buffer cursor, so
//! a mid-replay snapshot would pair an old engine state with future
//! highwaters).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::wire::{Query, Report};

/// Sizing and accounting policy for one tenant's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Hard bound on issued-but-unapplied records.
    pub capacity: usize,
    /// Records admitted per tick; the rest of the tick's offers shed.
    pub tick_budget: usize,
    /// Keep a log of shed `(tick, src, seq)` keys (tests; costs memory
    /// proportional to total sheds).
    pub record_shed: bool,
}

impl QueuePolicy {
    /// Validates the policy: capacity must cover a full budget.
    ///
    /// # Errors
    ///
    /// A static description when `capacity < tick_budget` or either is
    /// zero.
    pub fn validated(self) -> Result<Self, &'static str> {
        if self.tick_budget == 0 {
            return Err("tick_budget must be at least 1");
        }
        if self.capacity < self.tick_budget {
            return Err("queue capacity must be at least the tick budget");
        }
        Ok(self)
    }

    /// Pending records tolerated while a tick is open; beyond this the
    /// newest offer is shed on arrival (arrival-order tail drop,
    /// deterministic for a deterministic stream).
    #[must_use]
    pub fn pending_cap(&self) -> usize {
        self.capacity.saturating_mul(16)
    }
}

/// One unit of work handed to a tenant worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkItem {
    /// Apply a sensor report to the engine.
    Record(Report),
    /// Tick boundary `n`: flush the decision log, maybe snapshot,
    /// acknowledge the drain.
    TickEnd(u64),
    /// Answer a read-only query on stdout.
    Query(Query),
    /// Flush, snapshot, and exit cleanly.
    Shutdown,
}

/// What happened to an offered record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Entered the pending set; admission decided at tick end.
    Pending,
    /// Already seen (at or below the dedup highwater, or already
    /// pending) — dropped idempotently.
    Duplicate,
    /// Pending set at cap — shed on arrival.
    Overflow,
}

/// Counters mirrored into snapshots and the final report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Records offered (post-parse, pre-dedup).
    pub offered: u64,
    /// Records admitted to the engine.
    pub admitted: u64,
    /// Records shed by budget admission at tick end.
    pub shed_budget: u64,
    /// Records shed on arrival by the pending cap.
    pub shed_overflow: u64,
    /// Idempotent duplicate drops.
    pub duplicates: u64,
    /// Tick closes at which the router blocked for the worker: a
    /// shedding tick's full drain, an unfinished snapshot tick or
    /// seeded replay, or the capacity bound (see
    /// [`SharedQueue::end_tick`]). One per blocked close, however long.
    pub backpressure_waits: u64,
}

impl QueueStats {
    /// Total records shed for any reason.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_budget + self.shed_overflow
    }
}

/// Outcome of closing one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickAdmission {
    /// Records admitted this tick.
    pub admitted: usize,
    /// Records shed by budget this tick.
    pub shed: usize,
}

struct QueueState {
    pending: Vec<Report>,
    pending_keys: BTreeSet<(u64, u64)>,
    overflow_keys: Vec<(u64, u64)>,
    ready: VecDeque<WorkItem>,
    replay: Vec<WorkItem>,
    queries: Vec<Query>,
    highwater: BTreeMap<u64, u64>,
    issued_ticks: u64,
    completed_ticks: u64,
    /// The tick that must complete before another is issued: the last
    /// issued snapshot tick, or the last seeded migration tick.
    barrier: u64,
    /// Admitted records of each issued-but-uncompleted tick, oldest
    /// first, and their sum.
    in_flight: VecDeque<(u64, usize)>,
    in_flight_records: usize,
    stats: QueueStats,
    shed_log: Vec<(u64, u64, u64)>,
    closed: bool,
    /// Worker-incarnation fence. [`SharedQueue::recovery_view`] bumps
    /// it, after which the superseded incarnation's `pop`,
    /// `complete_tick`, and snapshot commits are rejected — a worker
    /// the watchdog has replaced (even a false positive under CPU
    /// starvation: it may still be running) can no longer consume
    /// items, acknowledge ticks, or clear the replay buffer out from
    /// under its replacement.
    generation: u64,
}

/// A tenant's ingest queue, shared between the router, its worker, and
/// the watchdog. All waits are condvar-based; poisoned locks are
/// recovered (state is reconstructed from snapshots on worker failure,
/// so a panicking lock-holder cannot corrupt an invariant that
/// matters).
pub struct SharedQueue {
    policy: QueuePolicy,
    snapshot_every: u64,
    state: Mutex<QueueState>,
    work_available: Condvar,
    drained: Condvar,
}

impl SharedQueue {
    /// Creates an empty queue under `policy` whose every tick is a
    /// snapshot tick, so [`SharedQueue::end_tick`] drains the worker
    /// before each tick it issues.
    #[must_use]
    pub fn new(policy: QueuePolicy) -> Self {
        Self::with_snapshot_every(policy, 1)
    }

    /// Creates an empty queue under `policy` for a worker that
    /// snapshots at every tick divisible by `snapshot_every` (clamped
    /// to at least 1). Between snapshot ticks the router issues
    /// batches without waiting for the worker.
    #[must_use]
    pub fn with_snapshot_every(policy: QueuePolicy, snapshot_every: u64) -> Self {
        SharedQueue {
            policy,
            snapshot_every: snapshot_every.max(1),
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                pending_keys: BTreeSet::new(),
                overflow_keys: Vec::new(),
                ready: VecDeque::new(),
                replay: Vec::new(),
                queries: Vec::new(),
                highwater: BTreeMap::new(),
                issued_ticks: 0,
                completed_ticks: 0,
                barrier: 0,
                in_flight: VecDeque::new(),
                in_flight_records: 0,
                stats: QueueStats::default(),
                shed_log: Vec::new(),
                closed: false,
                generation: 0,
            }),
            work_available: Condvar::new(),
            drained: Condvar::new(),
        }
    }

    /// The queue's sizing policy.
    #[must_use]
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Seeds the dedup highwaters (restore path: the snapshot's map).
    pub fn seed_highwater(&self, entries: impl IntoIterator<Item = (u64, u64)>) {
        let mut st = self.lock();
        for (src, seq) in entries {
            let hw = st.highwater.entry(src).or_insert(0);
            *hw = (*hw).max(seq);
        }
    }

    /// Seeds the mirrored counters (restore path).
    pub fn seed_stats(&self, stats: QueueStats) {
        self.lock().stats = stats;
    }

    /// Migration-restore path: marks `issued` ticks as
    /// issued-but-not-yet-complete, so the next [`SharedQueue::end_tick`]
    /// waits for the installed recovery buffer's replay (which completes
    /// ticks `1..=issued`) to settle the engine before admitting a new
    /// batch against it.
    pub fn seed_ticks(&self, issued: u64) {
        let mut st = self.lock();
        st.issued_ticks = issued;
        st.barrier = issued;
    }

    /// Removes and returns the open tick's pending records (migration
    /// capture). Their dedup highwaters are *not* advanced: a re-offer —
    /// whether by the local fallback after a failed transfer or by the
    /// receiving daemon installing the bundle — admits them normally, in
    /// the same tick batch they would have competed in.
    #[must_use]
    pub fn drain_pending(&self) -> Vec<Report> {
        let mut st = self.lock();
        st.pending_keys.clear();
        std::mem::take(&mut st.pending)
    }

    /// Offers a record. Never blocks.
    pub fn offer(&self, report: Report) -> Offer {
        let mut st = self.lock();
        st.stats.offered += 1;
        let key = (report.src, report.seq);
        let seen = st.highwater.get(&report.src).copied().unwrap_or(0) >= report.seq;
        if seen || st.pending_keys.contains(&key) {
            st.stats.duplicates += 1;
            return Offer::Duplicate;
        }
        if st.pending.len() >= self.policy.pending_cap() {
            st.stats.shed_overflow += 1;
            st.overflow_keys.push(key);
            if self.policy.record_shed {
                let tick = st.issued_ticks + 1;
                st.shed_log.push((tick, report.src, report.seq));
            }
            return Offer::Overflow;
        }
        st.pending.push(report);
        st.pending_keys.insert(key);
        Offer::Pending
    }

    /// Queues a read-only query; flushed to the worker at the next tick
    /// boundary (answers reflect end-of-tick state).
    pub fn offer_query(&self, query: Query) {
        self.lock().queries.push(query);
    }

    /// Closes tick `tick`: waits for the worker if the close depends on
    /// its state, admits up to the budget by greatest `impact`, sheds
    /// and highwaters the rest, then issues the batch.
    ///
    /// It waits (once counted in [`QueueStats::backpressure_waits`])
    /// until none of these holds:
    ///
    /// - the tick sheds and any issued tick is unfinished: `impact` is
    ///   evaluated after a full drain, so it sees the engine's settled
    ///   end-of-previous-tick positions — identical in every life of
    ///   the process;
    /// - the last issued snapshot tick, or the last seeded migration
    ///   tick, is unfinished: issuing now would move the highwaters,
    ///   counters and replay buffer under that tick's snapshot;
    /// - the records in flight plus this batch would exceed
    ///   [`QueuePolicy::capacity`].
    ///
    /// A tick within budget admits every pending record and never calls
    /// `impact`.
    pub fn end_tick(&self, tick: u64, impact: impl Fn(&Report) -> u64) -> TickAdmission {
        let mut st = self.lock();
        let sheds = st.pending.len() > self.policy.tick_budget;
        let admit = st.pending.len().min(self.policy.tick_budget);
        let must_wait = |st: &QueueState| {
            let settle = if sheds { st.issued_ticks } else { st.barrier };
            !st.closed
                && (st.completed_ticks < settle
                    || st.in_flight_records + admit > self.policy.capacity)
        };
        if must_wait(&st) {
            st.stats.backpressure_waits += 1;
            while must_wait(&st) {
                st = self
                    .drained
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if st.closed {
            return TickAdmission::default();
        }

        // Merge arrival-overflow keys: highwater mutations happen only
        // here, and never while the worker snapshots (the snapshot tick
        // is a barrier above).
        let overflow: Vec<(u64, u64)> = std::mem::take(&mut st.overflow_keys);
        for (src, seq) in overflow {
            let hw = st.highwater.entry(src).or_insert(0);
            *hw = (*hw).max(seq);
        }

        let key = |r: &Report| (r.time, r.src, r.seq);
        let mut batch = std::mem::take(&mut st.pending);
        st.pending_keys.clear();
        let outcome = TickAdmission {
            admitted: admit,
            shed: batch.len() - admit,
        };
        if sheds {
            let mut ranked: Vec<(u64, usize)> = batch
                .iter()
                .enumerate()
                .map(|(i, r)| (impact(r), i))
                .collect();
            ranked.sort_by(|(ia, a), (ib, b)| {
                ib.cmp(ia).then_with(|| key(&batch[*a]).cmp(&key(&batch[*b])))
            });
            let mut kept = vec![false; batch.len()];
            for &(_, i) in &ranked[..admit] {
                kept[i] = true;
            }
            for &(_, i) in &ranked[admit..] {
                let r = &batch[i];
                let hw = st.highwater.entry(r.src).or_insert(0);
                *hw = (*hw).max(r.seq);
                if self.policy.record_shed {
                    st.shed_log.push((tick, r.src, r.seq));
                }
            }
            let mut kept = kept.into_iter();
            batch.retain(|_| kept.next() == Some(true));
        }
        batch.sort_by_key(key);

        st.stats.shed_budget += outcome.shed as u64;
        st.stats.admitted += outcome.admitted as u64;

        let mut items: Vec<WorkItem> = Vec::with_capacity(admit + 2);
        for r in batch {
            let hw = st.highwater.entry(r.src).or_insert(0);
            *hw = (*hw).max(r.seq);
            items.push(WorkItem::Record(r));
        }
        let queries = std::mem::take(&mut st.queries);
        items.extend(queries.into_iter().map(WorkItem::Query));
        items.push(WorkItem::TickEnd(tick));

        for item in items {
            // Queries are transient reads: re-answering them after a
            // worker restart would double-print, so they stay out of
            // the recovery buffer.
            if !matches!(item, WorkItem::Query(_)) {
                st.replay.push(item.clone());
            }
            st.ready.push_back(item);
        }
        st.issued_ticks = tick;
        if self.is_snapshot_tick(tick) {
            st.barrier = tick;
        }
        if admit > 0 {
            st.in_flight.push_back((tick, admit));
            st.in_flight_records += admit;
        }
        drop(st);
        self.work_available.notify_all();
        outcome
    }

    /// Whether the worker snapshots at tick `tick`. The queue owns the
    /// cadence: [`SharedQueue::end_tick`] holds the next tick back until
    /// this one completes, so the snapshot sees exactly its highwaters.
    #[must_use]
    pub fn is_snapshot_tick(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.snapshot_every)
    }

    /// Waits up to `timeout` for every issued tick to complete, and
    /// returns whether they have. A closed queue counts as settled.
    pub fn wait_settled(&self, timeout: Duration) -> bool {
        let st = self.lock();
        let (st, _) = self
            .drained
            .wait_timeout_while(st, timeout, |st| {
                !st.closed && st.completed_ticks < st.issued_ticks
            })
            .unwrap_or_else(PoisonError::into_inner);
        st.closed || st.completed_ticks >= st.issued_ticks
    }

    /// Blocks until a work item is available (or the queue is closed),
    /// then pops it. `None` means closed-and-empty — or a superseded
    /// `generation` — either way: exit. The generation check comes
    /// first so a replaced-but-still-running worker never steals items
    /// (including the final `Shutdown`) from its replacement.
    pub fn pop(&self, generation: u64) -> Option<WorkItem> {
        let mut st = self.lock();
        loop {
            if st.generation != generation {
                return None;
            }
            if let Some(item) = st.ready.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .work_available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker acknowledgment that tick `tick` (and everything issued
    /// before it) is fully applied. Unblocks [`SharedQueue::end_tick`].
    /// Ignored from a superseded generation: only the live incarnation
    /// may acknowledge progress.
    pub fn complete_tick(&self, generation: u64, tick: u64) {
        let mut st = self.lock();
        if st.generation != generation {
            return;
        }
        st.completed_ticks = st.completed_ticks.max(tick);
        while let Some(&(t, records)) = st.in_flight.front() {
            if t > tick {
                break;
            }
            st.in_flight.pop_front();
            st.in_flight_records -= records;
        }
        drop(st);
        self.drained.notify_all();
    }

    /// Commits a snapshot: runs `write` (the state-file write) and, on
    /// success, clears the replay buffer — atomically with respect to
    /// [`SharedQueue::recovery_view`], under the queue lock. Returns
    /// `Ok(false)` without writing if `generation` is superseded: a
    /// replaced worker must not publish a state file (or clear the
    /// buffer) that its replacement's respawn sequence no longer
    /// accounts for. The write is short (an already-encoded blob written
    /// in place into the older state slot, then one `sync_data`) and
    /// happens only at snapshot ticks, which the router cannot pass
    /// until the commit is done anyway, and at shutdown, so holding the
    /// lock across it is acceptable.
    pub fn commit_snapshot<E>(
        &self,
        generation: u64,
        write: impl FnOnce() -> Result<(), E>,
    ) -> Result<bool, E> {
        let mut st = self.lock();
        if st.generation != generation {
            return Ok(false);
        }
        write()?;
        st.replay.clear();
        Ok(true)
    }

    /// The dedup highwaters and counters, cloned for a snapshot. At a
    /// snapshot tick they are exactly those of that tick's issue: the
    /// router issues nothing further until the tick completes.
    #[must_use]
    pub fn snapshot_view(&self) -> (Vec<(u64, u64)>, QueueStats) {
        let st = self.lock();
        (
            st.highwater.iter().map(|(&s, &q)| (s, q)).collect(),
            st.stats,
        )
    }

    /// Crash recovery: supersedes the current worker generation,
    /// clears undelivered work (the replacement regenerates it from
    /// the buffer), and returns the new generation plus a clone of the
    /// recovery buffer. The buffer itself is retained until the next
    /// snapshot commit, so repeated failures replay from the same
    /// base. Call this *before* reading the tenant state file: the
    /// generation bump is the fence that stops a still-running old
    /// incarnation from committing a newer snapshot after the read.
    #[must_use]
    pub fn recovery_view(&self) -> (u64, Vec<WorkItem>) {
        let mut st = self.lock();
        st.generation += 1;
        st.ready.clear();
        let view = (st.generation, st.replay.clone());
        drop(st);
        // Wake any superseded worker parked in `pop` so it notices the
        // fence and exits instead of sleeping until the next notify.
        self.work_available.notify_all();
        view
    }

    /// Closes the queue after pushing a [`WorkItem::Shutdown`]: the
    /// worker drains remaining work, then exits.
    pub fn close(&self) {
        let mut st = self.lock();
        st.ready.push_back(WorkItem::Shutdown);
        st.closed = true;
        drop(st);
        self.work_available.notify_all();
        self.drained.notify_all();
    }

    /// Whether issued work is still unapplied — the watchdog's "should
    /// the worker be making progress?" predicate.
    #[must_use]
    pub fn has_outstanding(&self) -> bool {
        let st = self.lock();
        st.issued_ticks != st.completed_ticks || !st.ready.is_empty()
    }

    /// Quarantine path: drops undelivered work and marks every issued
    /// tick complete so a router parked in [`SharedQueue::end_tick`]'s
    /// drain wait is released. The recovery buffer is kept — a later
    /// reintegration replays it — so nothing already admitted is lost.
    pub fn abandon_tick(&self) {
        let mut st = self.lock();
        st.ready.clear();
        st.completed_ticks = st.issued_ticks;
        st.in_flight.clear();
        st.in_flight_records = 0;
        drop(st);
        self.drained.notify_all();
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.lock().stats
    }

    /// The shed-key log `(tick, src, seq)` — empty unless
    /// [`QueuePolicy::record_shed`] is set.
    #[must_use]
    pub fn shed_log(&self) -> Vec<(u64, u64, u64)> {
        self.lock().shed_log.clone()
    }

    /// Pending records in the open tick (tests / drain accounting).
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.lock().pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn report(src: u64, seq: u64, x: f64) -> Report {
        Report {
            tenant: 0,
            time: 0,
            src,
            seq,
            x,
            y: 0.0,
        }
    }

    fn policy(capacity: usize, budget: usize) -> QueuePolicy {
        QueuePolicy {
            capacity,
            tick_budget: budget,
            record_shed: true,
        }
        .validated()
        .unwrap()
    }

    #[test]
    fn admission_prefers_impact_then_stream_order() {
        let q = SharedQueue::new(policy(8, 2));
        q.offer(report(1, 1, 1.0));
        q.offer(report(1, 2, 9.0));
        q.offer(report(1, 3, 9.0));
        q.offer(report(1, 4, 5.0));
        // impact = x as a stand-in metric.
        let out = q.end_tick(1, |r| r.x as u64);
        assert_eq!(out, TickAdmission { admitted: 2, shed: 2 });
        // The two x=9 records win; applied in (time, src, seq) order.
        assert_eq!(
            q.pop(0),
            Some(WorkItem::Record(report(1, 2, 9.0)))
        );
        assert_eq!(
            q.pop(0),
            Some(WorkItem::Record(report(1, 3, 9.0)))
        );
        assert_eq!(q.pop(0), Some(WorkItem::TickEnd(1)));
        assert_eq!(q.shed_log(), vec![(1, 1, 4), (1, 1, 1)]);
    }

    #[test]
    fn shed_records_raise_the_highwater() {
        let q = SharedQueue::new(policy(4, 1));
        q.offer(report(7, 1, 0.0));
        q.offer(report(7, 2, 5.0));
        q.end_tick(1, |r| r.x as u64);
        // seq 1 was shed — but re-offering it is still a duplicate.
        assert_eq!(q.offer(report(7, 1, 0.0)), Offer::Duplicate);
        assert_eq!(q.offer(report(7, 2, 5.0)), Offer::Duplicate);
        assert_eq!(q.offer(report(7, 3, 1.0)), Offer::Pending);
        assert_eq!(q.stats().duplicates, 2);
    }

    #[test]
    fn pending_dedup_catches_same_tick_replays() {
        let q = SharedQueue::new(policy(4, 4));
        assert_eq!(q.offer(report(1, 1, 0.0)), Offer::Pending);
        assert_eq!(q.offer(report(1, 1, 0.0)), Offer::Duplicate);
        assert_eq!(q.pending_len(), 1);
    }

    #[test]
    fn pending_overflow_sheds_on_arrival_and_dedups_later() {
        let q = SharedQueue::new(policy(1, 1));
        for seq in 1..=16 {
            assert_eq!(q.offer(report(1, seq, 0.0)), Offer::Pending);
        }
        assert_eq!(q.offer(report(1, 17, 0.0)), Offer::Overflow);
        let out = q.end_tick(1, |_| 0);
        assert_eq!(out.admitted, 1);
        assert_eq!(out.shed, 15);
        // The overflow-shed record is highwatered like any other.
        assert_eq!(q.offer(report(1, 17, 0.0)), Offer::Duplicate);
        assert_eq!(q.stats().shed_overflow, 1);
        assert_eq!(q.stats().shed_budget, 15);
    }

    #[test]
    fn recovery_buffer_replays_since_last_snapshot() {
        let q = SharedQueue::new(policy(8, 8));
        q.offer(report(1, 1, 0.0));
        q.end_tick(1, |_| 0);
        // Worker applies tick 1 and commits a snapshot.
        while let Some(item) = q.pop(0) {
            if matches!(item, WorkItem::TickEnd(_)) {
                break;
            }
        }
        q.complete_tick(0, 1);
        assert_eq!(q.commit_snapshot(0, || Ok::<(), ()>(())), Ok(true));
        // Tick 2 issued but the worker wedges mid-batch.
        q.offer(report(1, 2, 0.0));
        q.offer(report(1, 3, 0.0));
        q.end_tick(2, |_| 0);
        let _ = q.pop(0); // worker consumed one record, then died
        let (generation, buffer) = q.recovery_view();
        assert_eq!(generation, 1);
        assert_eq!(
            buffer,
            vec![
                WorkItem::Record(report(1, 2, 0.0)),
                WorkItem::Record(report(1, 3, 0.0)),
                WorkItem::TickEnd(2),
            ]
        );
        // Undelivered work was cleared — the replacement replays the
        // buffer instead.
        q.close();
        assert_eq!(q.pop(generation), Some(WorkItem::Shutdown));
        assert_eq!(q.pop(generation), None);
    }

    #[test]
    fn close_unblocks_pop_and_end_tick() {
        let q = std::sync::Arc::new(SharedQueue::new(policy(4, 1)));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop(0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Some(WorkItem::Shutdown));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.end_tick(5, |_| 0), TickAdmission::default());
    }

    #[test]
    fn queries_flush_at_tick_end_but_skip_the_replay_buffer() {
        let q = SharedQueue::new(policy(4, 4));
        q.offer_query(Query::Round { tenant: 0 });
        q.offer(report(1, 1, 0.0));
        q.end_tick(1, |_| 0);
        assert_eq!(q.pop(0), Some(WorkItem::Record(report(1, 1, 0.0))));
        assert_eq!(q.pop(0), Some(WorkItem::Query(Query::Round { tenant: 0 })));
        assert_eq!(q.pop(0), Some(WorkItem::TickEnd(1)));
        let (_, buffer) = q.recovery_view();
        assert!(!buffer.iter().any(|i| matches!(i, WorkItem::Query(_))));
    }

    #[test]
    fn superseded_generation_is_fenced_out() {
        let q = std::sync::Arc::new(SharedQueue::new(policy(8, 8)));
        q.offer(report(1, 1, 0.0));
        q.end_tick(1, |_| 0);
        let (generation, buffer) = q.recovery_view();
        assert_eq!(buffer.len(), 2); // record + tick end
        // The old incarnation (generation 0) can no longer consume
        // items, acknowledge ticks, or commit snapshots...
        assert_eq!(q.pop(0), None);
        q.complete_tick(0, 1);
        assert!(q.has_outstanding(), "stale complete_tick must be ignored");
        let mut wrote = false;
        assert_eq!(
            q.commit_snapshot(0, || {
                wrote = true;
                Ok::<(), ()>(())
            }),
            Ok(false)
        );
        assert!(!wrote, "stale snapshot write must not run");
        // ...while the replacement operates normally.
        q.complete_tick(generation, 1);
        assert!(!q.has_outstanding());
        assert_eq!(q.commit_snapshot(generation, || Ok::<(), ()>(())), Ok(true));
        let (_, buffer) = q.recovery_view();
        assert!(buffer.is_empty(), "commit cleared the replay buffer");
        // A stale worker parked in pop is woken by the fence.
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let _ = q.recovery_view();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn drained_pending_records_are_not_highwatered() {
        let q = SharedQueue::new(policy(4, 4));
        q.offer(report(1, 1, 0.0));
        q.offer(report(1, 2, 0.0));
        let captured = q.drain_pending();
        assert_eq!(captured.len(), 2);
        assert_eq!(q.pending_len(), 0);
        // Re-offering the captured records admits them normally.
        assert_eq!(q.offer(report(1, 1, 0.0)), Offer::Pending);
        assert_eq!(q.offer(report(1, 2, 0.0)), Offer::Pending);
    }

    #[test]
    fn seeded_ticks_make_end_tick_wait_for_replay_completion() {
        let q = Arc::new(SharedQueue::with_snapshot_every(policy(4, 4), 4));
        q.seed_ticks(3);
        assert!(q.has_outstanding());
        let h = close_in_background(&q, 4);
        wait_for_backpressure(&q, 1);
        q.complete_tick(0, 2);
        assert!(!h.is_finished(), "ticks 1..=3 all replay first");
        // Replay completing tick 3 releases the parked end_tick.
        q.complete_tick(0, 3);
        assert_eq!(h.join().unwrap(), TickAdmission::default());
    }

    /// Closes `tick` on a router thread, offering nothing first.
    fn close_in_background(
        q: &Arc<SharedQueue>,
        tick: u64,
    ) -> std::thread::JoinHandle<TickAdmission> {
        let q = Arc::clone(q);
        std::thread::spawn(move || q.end_tick(tick, |_| 0))
    }

    /// Spins until `q` has counted `waits` backpressure waits. The
    /// counter moves just before the router parks, and only a worker
    /// call can release it, so a test may then assert it is blocked.
    fn wait_for_backpressure(q: &SharedQueue, waits: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while q.stats().backpressure_waits < waits {
            assert!(Instant::now() < deadline, "end_tick never blocked");
            std::thread::yield_now();
        }
    }

    /// Pops tick `tick`'s items, returning its records.
    fn pop_tick(q: &SharedQueue, tick: u64) -> Vec<Report> {
        let mut records = Vec::new();
        loop {
            match q.pop(0) {
                Some(WorkItem::Record(r)) => records.push(r),
                Some(WorkItem::TickEnd(t)) => {
                    assert_eq!(t, tick);
                    return records;
                }
                other => panic!("unexpected item {other:?}"),
            }
        }
    }

    #[test]
    fn ticks_before_the_snapshot_tick_issue_without_waiting() {
        let q = SharedQueue::with_snapshot_every(policy(64, 4), 4);
        for tick in 1..=3 {
            q.offer(report(1, tick, 0.0));
            q.end_tick(tick, |_| 0);
        }
        assert_eq!(q.stats().backpressure_waits, 0);
        for tick in 1..=3 {
            assert_eq!(pop_tick(&q, tick), vec![report(1, tick, 0.0)]);
        }
        // Tick 4 is the snapshot tick: it too issues behind the rest.
        q.end_tick(4, |_| 0);
        assert_eq!(q.stats().backpressure_waits, 0);
        assert_eq!(pop_tick(&q, 4), Vec::new());
    }

    #[test]
    fn the_tick_after_a_snapshot_tick_waits_for_it() {
        let q = Arc::new(SharedQueue::with_snapshot_every(policy(64, 4), 4));
        for tick in 1..=4 {
            q.end_tick(tick, |_| 0);
        }
        let h = close_in_background(&q, 5);
        wait_for_backpressure(&q, 1);
        for tick in 1..=3 {
            q.complete_tick(0, tick);
            assert!(!h.is_finished(), "end_tick(5) ran before tick 4 completed");
        }
        q.complete_tick(0, 4);
        h.join().unwrap();
        assert_eq!(q.stats().backpressure_waits, 1);
        // Ticks 5..=8 form the next window.
        for tick in 6..=8 {
            q.end_tick(tick, |_| 0);
        }
        assert_eq!(q.stats().backpressure_waits, 1);
    }

    #[test]
    fn a_shedding_tick_waits_for_a_full_drain_and_alone_ranks() {
        let q = Arc::new(SharedQueue::with_snapshot_every(policy(8, 1), 100));
        let ranked = Arc::new(AtomicUsize::new(0));
        let impact = {
            let ranked = Arc::clone(&ranked);
            move |r: &Report| {
                ranked.fetch_add(1, AtomicOrdering::SeqCst);
                r.x as u64
            }
        };
        q.offer(report(1, 1, 0.0));
        q.end_tick(1, impact.clone());
        q.offer(report(1, 2, 0.0));
        q.end_tick(2, impact.clone());
        assert_eq!(ranked.load(AtomicOrdering::SeqCst), 0, "no tick shed yet");
        assert_eq!(q.stats().backpressure_waits, 0);
        for seq in 3..=5 {
            q.offer(report(1, seq, seq as f64));
        }
        let h = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.end_tick(3, impact))
        };
        wait_for_backpressure(&q, 1);
        q.complete_tick(0, 1);
        assert!(!h.is_finished(), "a shedding tick ran with tick 2 in flight");
        assert_eq!(ranked.load(AtomicOrdering::SeqCst), 0);
        q.complete_tick(0, 2);
        assert_eq!(h.join().unwrap(), TickAdmission { admitted: 1, shed: 2 });
        assert_eq!(ranked.load(AtomicOrdering::SeqCst), 3, "ranked once per record");
        pop_tick(&q, 1);
        pop_tick(&q, 2);
        assert_eq!(pop_tick(&q, 3), vec![report(1, 5, 5.0)]);
    }

    #[test]
    fn records_in_flight_never_exceed_capacity() {
        let capacity = 5;
        let q = Arc::new(SharedQueue::with_snapshot_every(policy(capacity, 2), 1_000));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut tick = 0;
                while let Some(item) = q.pop(0) {
                    match item {
                        WorkItem::TickEnd(t) => {
                            tick = t;
                            q.complete_tick(0, t);
                        }
                        WorkItem::Shutdown => break,
                        _ => {}
                    }
                }
                tick
            })
        };
        let mut seq = 0;
        for tick in 1..=200u64 {
            for _ in 0..tick % 3 {
                seq += 1;
                q.offer(report(1, seq, 0.0));
            }
            q.end_tick(tick, |_| 0);
            let st = q.lock();
            assert!(
                st.in_flight_records <= capacity,
                "tick {tick}: {} records in flight",
                st.in_flight_records
            );
        }
        q.close();
        assert_eq!(worker.join().unwrap(), 200);
        assert_eq!(q.stats().admitted, seq);
    }

    #[test]
    fn a_tick_that_would_overfill_the_queue_waits_for_room() {
        let q = Arc::new(SharedQueue::with_snapshot_every(policy(4, 2), 1_000));
        for tick in 1..=2 {
            q.offer(report(1, 2 * tick - 1, 0.0));
            q.offer(report(1, 2 * tick, 0.0));
            q.end_tick(tick, |_| 0);
        }
        assert_eq!(q.stats().backpressure_waits, 0, "4 records fit a capacity of 4");
        q.offer(report(1, 5, 0.0));
        let h = close_in_background(&q, 3);
        wait_for_backpressure(&q, 1);
        assert!(!h.is_finished(), "a 5th record was issued over capacity 4");
        q.complete_tick(0, 1);
        assert_eq!(h.join().unwrap().admitted, 1);
        assert_eq!(q.lock().in_flight_records, 3);
    }

    #[test]
    fn snapshot_view_at_the_snapshot_tick_is_that_ticks_issue() {
        let q = Arc::new(SharedQueue::with_snapshot_every(policy(64, 4), 2));
        q.offer(report(1, 1, 0.0));
        q.end_tick(1, |_| 0);
        q.offer(report(1, 2, 0.0));
        q.offer(report(2, 9, 0.0));
        q.end_tick(2, |_| 0);
        let at_issue = q.snapshot_view();
        // The router runs ahead into tick 3 with newer records and
        // parks at the snapshot-tick barrier.
        q.offer(report(1, 3, 0.0));
        q.offer(report(2, 10, 0.0));
        let h = close_in_background(&q, 3);
        wait_for_backpressure(&q, 1);
        // The worker reaches tick 2's end and snapshots.
        pop_tick(&q, 1);
        pop_tick(&q, 2);
        // Offers are counted as they arrive, so `offered` runs ahead;
        // the highwaters and admission counters are tick 2's.
        let (highwater, stats) = q.snapshot_view();
        assert_eq!(highwater, vec![(1, 2), (2, 9)]);
        assert_eq!(highwater, at_issue.0);
        assert_eq!((stats.admitted, stats.shed_total()), (3, 0));
        assert_eq!(q.commit_snapshot(0, || Ok::<(), ()>(())), Ok(true));
        q.complete_tick(0, 2);
        h.join().unwrap();
        // The commit cleared ticks 1..=2 only; tick 3 is replayable.
        let (_, buffer) = q.recovery_view();
        assert_eq!(buffer.last(), Some(&WorkItem::TickEnd(3)));
        assert_eq!(buffer.len(), 3);
    }

    #[test]
    fn a_plain_queue_drains_every_tick() {
        let q = Arc::new(SharedQueue::new(policy(64, 4)));
        for tick in 1..=3u64 {
            q.offer(report(1, tick, 0.0));
            let h = close_in_background(&q, tick);
            if tick > 1 {
                wait_for_backpressure(&q, tick - 1);
                assert!(!h.is_finished(), "tick {tick} issued before tick {} drained", tick - 1);
                q.complete_tick(0, tick - 1);
            }
            assert_eq!(h.join().unwrap().admitted, 1);
        }
        assert_eq!(q.stats().backpressure_waits, 2);
    }

    #[test]
    fn wait_settled_returns_once_every_issued_tick_completes() {
        let q = Arc::new(SharedQueue::with_snapshot_every(policy(8, 4), 4));
        assert!(!q.is_snapshot_tick(3));
        assert!(q.is_snapshot_tick(4));
        assert!(q.wait_settled(Duration::ZERO), "nothing issued yet");
        q.end_tick(1, |_| 0);
        q.end_tick(2, |_| 0);
        q.complete_tick(0, 1);
        assert!(!q.wait_settled(Duration::from_millis(1)), "tick 2 is in flight");
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.complete_tick(0, 2))
        };
        assert!(q.wait_settled(Duration::from_secs(10)));
        worker.join().unwrap();
        // A quarantine abandons what is in flight, which settles it.
        q.end_tick(3, |_| 0);
        q.abandon_tick();
        assert!(q.wait_settled(Duration::ZERO));
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(QueuePolicy { capacity: 0, tick_budget: 1, record_shed: false }
            .validated()
            .is_err());
        assert!(QueuePolicy { capacity: 4, tick_budget: 0, record_shed: false }
            .validated()
            .is_err());
        assert!(QueuePolicy { capacity: 2, tick_budget: 4, record_shed: false }
            .validated()
            .is_err());
    }
}
