//! Conservative window-synchronized shard scheduler.
//!
//! Large fields decompose into nearly independent shards (one per
//! cluster, or per cluster group) that only couple through messages near
//! shard borders and through periodic control traffic. This module
//! provides the execution substrate for running such shards in parallel
//! **without giving up bit-for-bit reproducibility**:
//!
//! * every shard owns its own state, event queue, and RNG stream (derive
//!   the stream seed with [`stream_seed`] so it depends only on the
//!   master seed and the shard index, never on scheduling order);
//! * shards advance in lockstep *epochs* of a window `W`, chosen no
//!   larger than the minimum cross-shard latency, so anything a shard
//!   sends during epoch `k` can only matter to its peers in epoch `k+1`
//!   (the classic conservative-synchronization bound); the window may
//!   vary per epoch ([`ShardScheduler::step_epoch_window_into`]) when the
//!   caller knows the next cross-shard interaction is farther out;
//! * cross-shard traffic travels in [`Envelope`]s through per-destination
//!   mailboxes that are drained in `(time, src, seq)` order — a total
//!   order that does not depend on which worker thread ran which shard,
//!   so the merged trace is identical for any thread count.
//!
//! Workers are spawned once per scheduler and parked on an epoch barrier
//! between windows; an epoch costs two condvar handshakes, not a round of
//! `thread::spawn`/`join`. Within an epoch, workers claim contiguous
//! chunks of the slot array off an atomic cursor and own their claimed
//! slots outright — no per-slot locking.
//!
//! The scheduler never inspects message payloads; domain logic lives in
//! the [`Shard`] implementation (see `tibfit-experiments::sharded` for
//! the multi-cluster TIBFIT wiring).

// Sanctioned exception to the crate-wide `deny(unsafe_code)`: the
// persistent worker pool hands workers exclusive, cursor-partitioned
// slot ownership (`SlotCell`) and erases the epoch job's lifetime for
// the parked threads. Every `unsafe` block below documents why the
// aliasing/lifetime claim holds.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::cache::CachePadded;
use crate::clock::{Duration, SimTime};

/// Derives the RNG stream seed for one shard (or any numbered stream)
/// from a master seed.
///
/// The derivation is a pure function of `(master, stream)` — two
/// SplitMix64-style avalanche rounds over the pair — so it is independent
/// of the order in which streams are created and of how work is
/// scheduled. Distinct `(master, stream)` pairs produce decorrelated
/// seeds even for adjacent indices.
///
/// ```rust
/// use tibfit_sim::shard::stream_seed;
/// assert_eq!(stream_seed(42, 3), stream_seed(42, 3));
/// assert_ne!(stream_seed(42, 3), stream_seed(42, 4));
/// assert_ne!(stream_seed(42, 3), stream_seed(43, 3));
/// ```
#[must_use]
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Second round decorrelates (master, stream) from (master^1, stream^1)
    // style near-collisions.
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pseudo-shard index used for messages to and from the driver (the
/// base station in the TIBFIT wiring): [`ShardScheduler::inject`] stamps
/// this as `src`, and outbound messages sent to this index are returned
/// from [`ShardScheduler::step_epoch`] instead of being delivered to a
/// shard.
pub const DRIVER: usize = usize::MAX;

/// One cross-shard message: payload plus the `(time, src, seq)` key that
/// totally orders deliveries into a mailbox.
///
/// `seq` is a per-sender monotonic counter, so two envelopes from the
/// same sender never compare equal and the sort below is a total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Simulated delivery time.
    pub time: SimTime,
    /// Sending shard index ([`DRIVER`] for injected input).
    pub src: usize,
    /// Per-sender monotonic sequence number.
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    fn key(&self) -> (SimTime, usize, u64) {
        (self.time, self.src, self.seq)
    }
}

/// Staging area a shard writes its outbound messages into during
/// [`Shard::step`]. The scheduler stamps `src` and `seq` and enforces the
/// conservative horizon: a message to a peer shard may not be timestamped
/// before the end of the epoch that produced it (it could not be
/// delivered in time). Messages to [`DRIVER`] are exempt — the driver
/// consumes them after the epoch completes, never in lockstep, so they
/// may carry their true emission time (e.g. a decision made mid-epoch).
#[derive(Debug)]
pub struct Outbox<M> {
    src: usize,
    seq: u64,
    horizon: SimTime,
    staged: Vec<(usize, Envelope<M>)>,
}

impl<M> Outbox<M> {
    /// Queues `msg` for shard `dst` (or [`DRIVER`]) at simulated time
    /// `time`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is a peer shard and `time` is before the current
    /// epoch's end — such a message would violate the conservative window
    /// bound (the receiver may already have advanced past `time`).
    pub fn send(&mut self, dst: usize, time: SimTime, msg: M) {
        assert!(
            dst == DRIVER || time >= self.horizon,
            "conservative bound violated: message at {time} from shard {} \
             cannot precede the epoch horizon {}",
            self.src,
            self.horizon
        );
        let seq = self.seq;
        self.seq += 1;
        self.staged.push((
            dst,
            Envelope {
                time,
                src: self.src,
                seq,
                msg,
            },
        ));
    }

    /// Number of messages staged so far this epoch.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }
}

/// One independently steppable partition of the simulation.
///
/// `step` must advance local state from the previous epoch boundary to
/// `until`, consuming `inbox` (already sorted by `(time, src, seq)`) and
/// staging any cross-shard messages in `outbox`. Determinism contract:
/// the result of `step` may depend only on the shard's own state and the
/// inbox contents — never on global mutable state, wall-clock time, or
/// the behaviour of sibling shards within the same epoch.
pub trait Shard: Send {
    /// Cross-shard message payload.
    type Msg: Send;

    /// Advances the shard to `until`.
    fn step(&mut self, until: SimTime, inbox: &mut Vec<Envelope<Self::Msg>>, outbox: &mut Outbox<Self::Msg>);
}

/// Why a [`ShardScheduler`] could not be built or driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// The scheduler needs at least one shard.
    NoShards,
    /// The epoch window must be a positive duration.
    ZeroWindow,
    /// At least one worker thread is required.
    ZeroThreads,
    /// A message was addressed to a shard index that does not exist.
    UnknownDestination {
        /// The offending destination index.
        dst: usize,
        /// Number of shards in the scheduler.
        shards: usize,
    },
    /// An injected message was timestamped before the current epoch
    /// boundary and could never be delivered on time.
    InjectInPast {
        /// The requested delivery time.
        time: SimTime,
        /// The scheduler's current time.
        now: SimTime,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "need at least one shard"),
            ShardError::ZeroWindow => write!(f, "epoch window must be positive"),
            ShardError::ZeroThreads => write!(f, "need at least one worker thread"),
            ShardError::UnknownDestination { dst, shards } => {
                write!(f, "message addressed to shard {dst}, but only {shards} shards exist")
            }
            ShardError::InjectInPast { time, now } => {
                write!(f, "cannot inject a message at {time}: scheduler already at {now}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Per-shard slot: the shard itself plus its epoch-local work buffers.
struct Slot<S: Shard> {
    shard: S,
    inbox: Vec<Envelope<S::Msg>>,
    outbox: Outbox<S::Msg>,
}

/// A slot the scheduler can hand to exactly one worker per epoch without
/// a lock.
///
/// Safety invariant: during the parallel phase of an epoch, each slot
/// index is claimed by exactly one thread (a contiguous range handed out
/// by an atomic cursor), so the `&mut` produced from the cell is unique.
/// Outside the parallel phase the scheduler only touches slots through
/// `&mut self` (exclusive) or hands out shared `&` references — and the
/// scheduler itself is `!Sync` (see the `PhantomData<std::cell::Cell<()>>`
/// marker), so those shared references never cross threads.
///
/// Cache-line aligned so adjacent slots in the scheduler's slot array
/// never share a line: during the parallel phase each slot's inbox/outbox
/// headers are written by the worker that claimed it, and an unaligned
/// array would false-share those writes between neighboring workers.
#[repr(align(64))]
struct SlotCell<S: Shard>(UnsafeCell<Slot<S>>);

// Safety: see the invariant on `SlotCell` — cross-thread access only ever
// happens with exclusive, cursor-partitioned ownership, and `S: Send`
// makes moving that access between threads sound.
unsafe impl<S: Shard> Sync for SlotCell<S> {}

/// The persistent worker pool: threads are spawned once, parked on a
/// condvar between epochs, and woken by publishing a job under the state
/// mutex. The mutex/condvar pair provides the acquire/release edges that
/// make the main thread's pre-epoch writes (staged inboxes) visible to
/// workers and the workers' writes visible back to the main thread.
struct PoolState {
    /// The current epoch's job, lifetime-erased. Only valid while
    /// `active > 0` or until [`WorkerPool::run`] returns.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Epoch generation counter; a worker runs one job per generation.
    generation: u64,
    /// Workers still executing the current generation's job.
    active: usize,
    /// Set by [`WorkerPool::drop`]; workers exit on wake.
    shutdown: bool,
    /// First panic payload caught in a worker this generation.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolShared {
    /// Padded so the mutex word, which every worker hammers at epoch
    /// boundaries, does not share a line with the condvars.
    state: CachePadded<Mutex<PoolState>>,
    /// Main → workers: a new generation (or shutdown) is available.
    work: CachePadded<Condvar>,
    /// Workers → main: the last active worker finished.
    done: CachePadded<Condvar>,
}

struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: CachePadded::new(Mutex::new(PoolState {
                job: None,
                generation: 0,
                active: 0,
                shutdown: false,
                panic: None,
            })),
            work: CachePadded::new(Condvar::new()),
            done: CachePadded::new(Condvar::new()),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        let job = {
                            let mut st = shared.state.lock().expect("worker pool poisoned");
                            loop {
                                if st.shutdown {
                                    return;
                                }
                                if st.generation != seen {
                                    seen = st.generation;
                                    break st.job.expect("job published with its generation");
                                }
                                st = shared.work.wait(st).expect("worker pool poisoned");
                            }
                        };
                        let result = catch_unwind(AssertUnwindSafe(job));
                        let mut st = shared.state.lock().expect("worker pool poisoned");
                        if let Err(payload) = result {
                            st.panic.get_or_insert(payload);
                        }
                        st.active -= 1;
                        if st.active == 0 {
                            shared.done.notify_one();
                        }
                    }
                })
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Pool threads (the calling thread participates on top of these).
    fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job` on every pool worker *and* the calling thread, returning
    /// once all of them have finished. Propagates the first panic raised
    /// in any participant.
    fn run(&self, job: &(dyn Fn() + Sync)) {
        // Safety: pure lifetime erasure. We block below until every worker
        // has finished the generation, so no worker can observe `job`
        // after this call returns.
        let job_static: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
        {
            let mut st = self.shared.state.lock().expect("worker pool poisoned");
            st.job = Some(job_static);
            st.generation += 1;
            st.active = self.handles.len();
            self.shared.work.notify_all();
        }
        // The main thread is a worker too; even if its share of the work
        // panics, it must wait for the pool before unwinding (workers may
        // still hold references into the caller's state).
        let main_result = catch_unwind(AssertUnwindSafe(job));
        let mut st = self.shared.state.lock().expect("worker pool poisoned");
        while st.active > 0 {
            st = self.shared.done.wait(st).expect("worker pool poisoned");
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("worker pool poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Cumulative wall-clock breakdown of scheduler time by phase, in
/// nanoseconds, accumulated over every epoch since construction.
///
/// Timing is observational only — it never feeds back into the
/// simulation, so enabling it cannot perturb the deterministic trace.
/// Diff two snapshots of [`ShardScheduler::profile`] to attribute a
/// measured interval.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Staging: draining pending mailboxes into shard inboxes and
    /// sorting them into `(time, src, seq)` order.
    pub stage_ns: u64,
    /// Wall-clock span of the parallel phase (shard work *plus* the
    /// epoch barrier handshakes and any load imbalance).
    pub parallel_ns: u64,
    /// Summed busy time of every parallel-phase participant (pool
    /// workers and the calling thread): shard stepping plus outbox
    /// sorting. `parallel_ns × participants − busy_ns` approximates the
    /// time lost to the barrier and to uneven shard costs.
    pub busy_ns: u64,
    /// Routing: flushing sorted outbox runs into next-epoch mailboxes
    /// and the driver buffer, including the final driver-order sort.
    pub route_ns: u64,
    /// Epochs measured.
    pub epochs: u64,
}

impl PhaseProfile {
    /// Total scheduler wall-clock across the measured phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.stage_ns + self.parallel_ns + self.route_ns
    }

    /// Phase-by-phase difference (`self − earlier`), for attributing a
    /// measured interval between two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &PhaseProfile) -> PhaseProfile {
        PhaseProfile {
            stage_ns: self.stage_ns.saturating_sub(earlier.stage_ns),
            parallel_ns: self.parallel_ns.saturating_sub(earlier.parallel_ns),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            route_ns: self.route_ns.saturating_sub(earlier.route_ns),
            epochs: self.epochs.saturating_sub(earlier.epochs),
        }
    }
}

/// Lockstep scheduler over a set of [`Shard`]s.
///
/// Each [`ShardScheduler::step_epoch`] call advances every shard by one
/// window in parallel (over the configured worker count), then routes the
/// epoch's outbound messages into per-destination mailboxes for the next
/// epoch. Messages addressed to [`DRIVER`] are returned to the caller in
/// `(time, src, seq)` order.
///
/// The trace produced by a run is a pure function of the shards' initial
/// state and the injected inputs — the worker count changes wall-clock
/// time only.
///
/// After a panic propagated out of [`Shard::step`], the shards' state is
/// unspecified; the scheduler itself remains memory-safe to drop.
pub struct ShardScheduler<S: Shard> {
    slots: Vec<SlotCell<S>>,
    /// Staged deliveries for the next epoch, per destination shard.
    pending: Vec<Vec<Envelope<S::Msg>>>,
    pool: Option<WorkerPool>,
    /// Chunk-claim cursor for the parallel phase, reset each epoch.
    /// Padded: every worker increments it, and sharing its line with
    /// `busy` (or the scheduler's cold fields) would false-share the
    /// claim path.
    cursor: CachePadded<AtomicUsize>,
    /// Per-phase wall-clock accumulators (busy time lives in `busy`,
    /// which workers update concurrently).
    profile: PhaseProfile,
    /// Summed worker busy time; an atomic because every parallel-phase
    /// participant adds its own span. Padded away from `cursor`.
    busy: CachePadded<AtomicU64>,
    /// Scratch for the routing phase: `(dst, run_len)` pairs of the
    /// current outbox, reused across epochs.
    route_runs: Vec<(usize, usize)>,
    window: Duration,
    threads: usize,
    now: SimTime,
    epoch: u64,
    driver_seq: u64,
    routed: u64,
    /// Keeps the scheduler `!Sync`: `&self` accessors dereference the
    /// slot cells without locks, which is only sound single-threaded.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<S: Shard> ShardScheduler<S> {
    /// Builds a scheduler over `shards` advancing `window` per epoch with
    /// `threads` workers. For `threads > 1`, `threads.min(shards) - 1`
    /// pool threads are spawned once, up front; the calling thread
    /// contributes the remaining worker during every epoch.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::NoShards`], [`ShardError::ZeroWindow`], or
    /// [`ShardError::ZeroThreads`] on a degenerate configuration.
    pub fn new(shards: Vec<S>, window: Duration, threads: usize) -> Result<Self, ShardError> {
        if shards.is_empty() {
            return Err(ShardError::NoShards);
        }
        if window == Duration::ZERO {
            return Err(ShardError::ZeroWindow);
        }
        if threads == 0 {
            return Err(ShardError::ZeroThreads);
        }
        let n = shards.len();
        let slots = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                SlotCell(UnsafeCell::new(Slot {
                    shard,
                    inbox: Vec::new(),
                    outbox: Outbox {
                        src: i,
                        seq: 0,
                        horizon: SimTime::ZERO,
                        staged: Vec::new(),
                    },
                }))
            })
            .collect();
        let pool_threads = threads.min(n).saturating_sub(1);
        let pool = (pool_threads > 0).then(|| WorkerPool::new(pool_threads));
        Ok(ShardScheduler {
            slots,
            pending: (0..n).map(|_| Vec::new()).collect(),
            pool,
            cursor: CachePadded::new(AtomicUsize::new(0)),
            profile: PhaseProfile::default(),
            busy: CachePadded::new(AtomicU64::new(0)),
            route_runs: Vec::new(),
            window,
            threads,
            now: SimTime::ZERO,
            epoch: 0,
            driver_seq: 0,
            routed: 0,
            _not_sync: PhantomData,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Current simulated time (the last epoch boundary).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Epochs completed so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Total cross-shard envelopes routed so far (driver traffic
    /// included).
    #[must_use]
    pub fn routed_messages(&self) -> u64 {
        self.routed
    }

    /// The configured epoch window.
    #[must_use]
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Persistent pool threads backing the parallel phase (zero when the
    /// scheduler runs single-threaded; the calling thread always works on
    /// top of these).
    #[must_use]
    pub fn pool_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::workers)
    }

    /// Cumulative per-phase wall-clock breakdown since construction.
    ///
    /// `busy_ns` sums every participant's in-phase work, so with `k`
    /// participants it may exceed `parallel_ns` only through clock
    /// skew — in practice `parallel_ns × k − busy_ns` is the barrier +
    /// imbalance overhead the profile exists to expose.
    #[must_use]
    pub fn profile(&self) -> PhaseProfile {
        let mut p = self.profile;
        p.busy_ns = self.busy.load(Ordering::Relaxed);
        p
    }

    /// Read access to one shard (between epochs).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        // Safety: `&self` access happens only between epochs, on the
        // scheduler's owning thread (the scheduler is `!Sync`), and
        // produces a shared reference only.
        let slot = unsafe { &*self.slots[i].0.get() };
        f(&slot.shard)
    }

    /// Mutable access to one shard (between epochs).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn with_shard_mut<R>(&mut self, i: usize, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.slots[i].0.get_mut().shard)
    }

    /// Applies `f` to every shard in index order (between epochs).
    pub fn for_each_shard<R>(&self, mut f: impl FnMut(usize, &S) -> R) -> Vec<R> {
        (0..self.slots.len())
            .map(|i| {
                // Safety: as in `with_shard`.
                let slot = unsafe { &*self.slots[i].0.get() };
                f(i, &slot.shard)
            })
            .collect()
    }

    /// Whether any message waits for delivery in the next epoch (a
    /// driver injection or a routed shard-to-shard envelope).
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending.iter().any(|mailbox| !mailbox.is_empty())
    }

    /// Queues an input message from the driver for delivery to shard
    /// `dst` in the next epoch.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::UnknownDestination`] for an out-of-range
    /// shard index and [`ShardError::InjectInPast`] if `time` precedes
    /// the current epoch boundary.
    pub fn inject(&mut self, dst: usize, time: SimTime, msg: S::Msg) -> Result<(), ShardError> {
        if dst >= self.slots.len() {
            return Err(ShardError::UnknownDestination {
                dst,
                shards: self.slots.len(),
            });
        }
        if time < self.now {
            return Err(ShardError::InjectInPast {
                time,
                now: self.now,
            });
        }
        let seq = self.driver_seq;
        self.driver_seq += 1;
        self.pending[dst].push(Envelope {
            time,
            src: DRIVER,
            seq,
            msg,
        });
        Ok(())
    }

    /// Runs one epoch of the configured window, allocating a fresh vector
    /// for the driver-bound envelopes. Prefer
    /// [`ShardScheduler::step_epoch_into`] on hot paths.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::UnknownDestination`] if a shard addressed a
    /// message to a shard index that does not exist (the epoch's state
    /// changes are kept; the offending message is dropped).
    ///
    /// # Panics
    ///
    /// Propagates panics from [`Shard::step`].
    pub fn step_epoch(&mut self) -> Result<Vec<Envelope<S::Msg>>, ShardError> {
        let mut out = Vec::new();
        let result = self.step_epoch_window_into(self.window, &mut out);
        result.map(|()| out)
    }

    /// Runs one epoch of the configured window, writing the driver-bound
    /// envelopes into `out` (cleared first) so the caller can reuse one
    /// buffer across epochs.
    ///
    /// # Errors
    ///
    /// As [`ShardScheduler::step_epoch`].
    pub fn step_epoch_into(&mut self, out: &mut Vec<Envelope<S::Msg>>) -> Result<(), ShardError> {
        self.step_epoch_window_into(self.window, out)
    }

    /// Runs one epoch of a caller-chosen `window` — the adaptive-window
    /// entry point. The caller asserts that no cross-shard message
    /// produced inside this epoch needs delivery before its end; the
    /// [`Outbox`] horizon check enforces the claim at send time.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::ZeroWindow`] for an empty window, otherwise
    /// as [`ShardScheduler::step_epoch`].
    ///
    /// # Panics
    ///
    /// Propagates panics from [`Shard::step`].
    pub fn step_epoch_window_into(
        &mut self,
        window: Duration,
        out: &mut Vec<Envelope<S::Msg>>,
    ) -> Result<(), ShardError> {
        if window == Duration::ZERO {
            return Err(ShardError::ZeroWindow);
        }
        let until = self.now + window;
        let n = self.slots.len();
        out.clear();

        // Stage inboxes: drain the pending mailboxes into the slots,
        // sorted by the total (time, src, seq) order. The key is unique
        // per envelope, so the unstable sort is exact.
        let t_stage = Instant::now();
        for (i, cell) in self.slots.iter_mut().enumerate() {
            let slot = cell.0.get_mut();
            debug_assert!(slot.inbox.is_empty(), "inbox not drained by step");
            std::mem::swap(&mut slot.inbox, &mut self.pending[i]);
            slot.inbox.sort_unstable_by_key(Envelope::key);
            slot.outbox.horizon = until;
        }
        self.profile.stage_ns += t_stage.elapsed().as_nanos() as u64;

        // Parallel phase: shards are independent within an epoch, so any
        // assignment of shards to workers computes the same result. Each
        // worker also sorts its shards' staged outboxes by (dst, key) on
        // the way out, so the sequential routing phase below sees
        // contiguous per-destination runs — the sort cost parallelizes,
        // the flush does not.
        let t_par = Instant::now();
        match &self.pool {
            None => {
                for cell in &mut self.slots {
                    let slot = cell.0.get_mut();
                    let mut inbox = std::mem::take(&mut slot.inbox);
                    slot.shard.step(until, &mut inbox, &mut slot.outbox);
                    inbox.clear();
                    slot.inbox = inbox; // return the buffer for reuse
                    slot.outbox
                        .staged
                        .sort_unstable_by_key(|(dst, env)| (*dst, env.key()));
                }
                self.busy
                    .fetch_add(t_par.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            Some(pool) => {
                let workers = pool.workers() + 1;
                // ~4 chunks per worker balances load against cursor
                // contention; any chunking computes the same trace.
                let chunk = n.div_ceil(workers * 4).max(1);
                self.cursor.store(0, Ordering::Relaxed);
                let cursor = &self.cursor;
                let slots = &self.slots[..];
                let busy = &self.busy;
                pool.run(&move || {
                    let t_busy = Instant::now();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for cell in &slots[start..(start + chunk).min(n)] {
                            // Safety: this index range was claimed exclusively
                            // off the cursor; no other thread touches it this
                            // epoch.
                            let slot = unsafe { &mut *cell.0.get() };
                            let mut inbox = std::mem::take(&mut slot.inbox);
                            slot.shard.step(until, &mut inbox, &mut slot.outbox);
                            inbox.clear();
                            slot.inbox = inbox;
                            slot.outbox
                                .staged
                                .sort_unstable_by_key(|(dst, env)| (*dst, env.key()));
                        }
                    }
                    busy.fetch_add(t_busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
                });
            }
        }
        self.profile.parallel_ns += t_par.elapsed().as_nanos() as u64;

        // Sequential routing phase, in shard index order: deterministic
        // regardless of which worker ran which shard. Every staged outbox
        // is already (dst, key)-sorted, so each destination is one
        // contiguous run that flushes with a single sized extend instead
        // of a per-message dispatch. Append order into a mailbox is
        // non-semantic — `pending` is key-sorted at the next staging and
        // `out` below — so batching by destination cannot change the
        // trace. (With several misaddressed destinations in one epoch the
        // reported one is now the smallest rather than the first sent;
        // the drop-and-keep-state contract is unchanged.)
        let t_route = Instant::now();
        let mut bad_dst: Option<ShardError> = None;
        for cell in &mut self.slots {
            let slot = cell.0.get_mut();
            let staged = &mut slot.outbox.staged;
            if staged.is_empty() {
                continue;
            }
            self.routed += staged.len() as u64;
            self.route_runs.clear();
            let mut start = 0;
            while start < staged.len() {
                let dst = staged[start].0;
                let mut end = start + 1;
                while end < staged.len() && staged[end].0 == dst {
                    end += 1;
                }
                self.route_runs.push((dst, end - start));
                start = end;
            }
            let mut drained = staged.drain(..);
            for &(dst, len) in &self.route_runs {
                let run = drained.by_ref().take(len).map(|(_, env)| env);
                if dst == DRIVER {
                    out.extend(run);
                } else if dst < n {
                    self.pending[dst].extend(run);
                } else {
                    run.for_each(drop);
                    bad_dst.get_or_insert(ShardError::UnknownDestination { dst, shards: n });
                }
            }
        }
        out.sort_unstable_by_key(Envelope::key);
        self.profile.route_ns += t_route.elapsed().as_nanos() as u64;
        self.profile.epochs += 1;

        self.now = until;
        self.epoch += 1;
        match bad_dst {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Consumes the scheduler, returning the shards in index order.
    #[must_use]
    pub fn into_shards(self) -> Vec<S> {
        self.slots
            .into_iter()
            .map(|cell| cell.0.into_inner().shard)
            .collect()
    }
}

impl<S: Shard> std::fmt::Debug for ShardScheduler<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardScheduler")
            .field("shards", &self.slots.len())
            .field("window", &self.window)
            .field("threads", &self.threads)
            .field("pool_workers", &self.pool_workers())
            .field("now", &self.now)
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Test shard: accumulates received values, adds per-shard random
    /// jitter, and forwards to the next shard in a ring plus a running
    /// checksum to the driver — enough structure to catch ordering or
    /// stream-sharing bugs.
    struct RingShard {
        index: usize,
        n: usize,
        rng: SimRng,
        sum: u64,
        log: Vec<(u64, usize, u64)>,
    }

    impl RingShard {
        fn new(index: usize, n: usize, master: u64) -> Self {
            RingShard {
                index,
                n,
                rng: SimRng::seed_from(stream_seed(master, index as u64)),
                sum: 0,
                log: Vec::new(),
            }
        }
    }

    impl Shard for RingShard {
        type Msg = u64;

        fn step(&mut self, until: SimTime, inbox: &mut Vec<Envelope<u64>>, outbox: &mut Outbox<u64>) {
            for env in inbox.drain(..) {
                self.log.push((env.time.ticks(), env.src, env.msg));
                let jitter = self.rng.uniform_usize(7) as u64;
                self.sum = self.sum.wrapping_add(env.msg + jitter);
                outbox.send((self.index + 1) % self.n, until, env.msg + 1);
                outbox.send(DRIVER, until, self.sum);
            }
        }
    }

    type RingTrace = Vec<(u64, usize, u64)>;

    fn run_ring(threads: usize, epochs: usize) -> (Vec<RingTrace>, RingTrace) {
        let shards: Vec<RingShard> = (0..5).map(|i| RingShard::new(i, 5, 99)).collect();
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), threads).unwrap();
        sched.inject(0, SimTime::from_ticks(0), 100).unwrap();
        sched.inject(3, SimTime::from_ticks(0), 500).unwrap();
        let mut driver: Vec<(u64, usize, u64)> = Vec::new();
        let mut out = Vec::new();
        for _ in 0..epochs {
            sched.step_epoch_into(&mut out).unwrap();
            for env in out.drain(..) {
                driver.push((env.time.ticks(), env.src, env.msg));
            }
        }
        let logs = sched.into_shards().into_iter().map(|s| s.log).collect();
        (logs, driver)
    }

    #[test]
    fn identical_across_thread_counts() {
        let reference = run_ring(1, 12);
        for threads in [2, 4, 8] {
            assert_eq!(run_ring(threads, 12), reference, "threads={threads}");
        }
    }

    #[test]
    fn driver_messages_sorted_by_time_src_seq() {
        let (_, driver) = run_ring(4, 8);
        let mut sorted = driver.clone();
        sorted.sort();
        assert_eq!(driver, sorted);
        assert!(!driver.is_empty());
    }

    #[test]
    fn messages_cross_one_epoch_boundary() {
        // A message sent during epoch k is visible to its destination in
        // epoch k+1, not earlier: shard 1 first logs something in epoch 2
        // (injection lands in epoch 1 at shard 0).
        let (logs, _) = run_ring(1, 3);
        assert_eq!(logs[0][0].0, 0, "shard 0 sees the injected message at t=0");
        assert_eq!(logs[1][0].0, 10, "shard 1 hears from shard 0 one window later");
        assert_eq!(logs[2][0].0, 20, "shard 2 two windows later");
    }

    #[test]
    fn stream_seed_is_order_free_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| stream_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).rev().map(|i| stream_seed(7, i)).collect();
        let b_rev: Vec<u64> = b.into_iter().rev().collect();
        assert_eq!(a, b_rev);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 64, "derived seeds must not collide");
    }

    #[test]
    fn rejects_degenerate_configs() {
        let none: Vec<RingShard> = Vec::new();
        assert_eq!(
            ShardScheduler::new(none, Duration::from_ticks(1), 1).err(),
            Some(ShardError::NoShards)
        );
        let one = vec![RingShard::new(0, 1, 0)];
        assert_eq!(
            ShardScheduler::new(one, Duration::ZERO, 1).err(),
            Some(ShardError::ZeroWindow)
        );
        let one = vec![RingShard::new(0, 1, 0)];
        assert_eq!(
            ShardScheduler::new(one, Duration::from_ticks(1), 0).err(),
            Some(ShardError::ZeroThreads)
        );
    }

    #[test]
    fn inject_validates_destination_and_time() {
        let shards = vec![RingShard::new(0, 1, 0)];
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), 1).unwrap();
        assert_eq!(
            sched.inject(5, SimTime::from_ticks(0), 1).err(),
            Some(ShardError::UnknownDestination { dst: 5, shards: 1 })
        );
        sched.step_epoch().unwrap();
        assert_eq!(
            sched.inject(0, SimTime::from_ticks(3), 1).err(),
            Some(ShardError::InjectInPast {
                time: SimTime::from_ticks(3),
                now: SimTime::from_ticks(10),
            })
        );
        // Error messages render.
        assert!(ShardError::ZeroWindow.to_string().contains("window"));
        assert!(ShardError::NoShards.to_string().contains("shard"));
    }

    #[test]
    fn has_pending_sees_injections_and_routed_envelopes() {
        let shards: Vec<RingShard> = (0..2).map(|i| RingShard::new(i, 2, 7)).collect();
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), 1).unwrap();
        sched.step_epoch().unwrap();
        assert!(!sched.has_pending(), "a quiet epoch leaves nothing in flight");
        sched.inject(1, sched.now(), 5).unwrap();
        assert!(sched.has_pending(), "a driver injection is in flight");
        sched.step_epoch().unwrap();
        assert!(sched.has_pending(), "shard 1 forwarded to shard 0");
    }

    /// A shard that advances a local counter and misaddresses one message
    /// per epoch — used to pin down the drop-and-keep-state contract.
    struct BadDst {
        steps: u64,
    }

    impl Shard for BadDst {
        type Msg = ();
        fn step(&mut self, until: SimTime, inbox: &mut Vec<Envelope<()>>, outbox: &mut Outbox<()>) {
            inbox.clear();
            self.steps += 1;
            outbox.send(7, until, ());
        }
    }

    #[test]
    fn unknown_destination_from_shard_is_reported() {
        let mut sched =
            ShardScheduler::new(vec![BadDst { steps: 0 }], Duration::from_ticks(1), 1).unwrap();
        assert_eq!(
            sched.step_epoch().err(),
            Some(ShardError::UnknownDestination { dst: 7, shards: 1 })
        );
    }

    #[test]
    fn unknown_destination_drops_message_but_keeps_epoch_state() {
        let mut sched =
            ShardScheduler::new(vec![BadDst { steps: 0 }], Duration::from_ticks(10), 1).unwrap();
        for epoch in 1..=3u64 {
            assert_eq!(
                sched.step_epoch().err(),
                Some(ShardError::UnknownDestination { dst: 7, shards: 1 }),
                "epoch {epoch}"
            );
            // The epoch's work is kept: time, epoch count, and shard
            // state all advanced; only the misaddressed envelope is gone.
            assert_eq!(sched.now(), SimTime::from_ticks(10 * epoch));
            assert_eq!(sched.epochs(), epoch);
            assert_eq!(sched.with_shard(0, |s| s.steps), epoch);
        }
        // Nothing leaked into a mailbox.
        assert_eq!(sched.routed_messages(), 3);
    }

    /// One shard spraying a driver message, a valid self-send, and a
    /// misaddressed message in the same epoch: the batched flush must
    /// drop exactly the bad run and deliver the rest.
    struct MixedDst {
        received: u64,
    }

    impl Shard for MixedDst {
        type Msg = u64;
        fn step(&mut self, until: SimTime, inbox: &mut Vec<Envelope<u64>>, outbox: &mut Outbox<u64>) {
            self.received += inbox.len() as u64;
            inbox.clear();
            outbox.send(9, until, 1); // misaddressed
            outbox.send(DRIVER, until, 2);
            outbox.send(0, until, 3); // valid self-send
        }
    }

    #[test]
    fn unknown_destination_run_drops_only_its_own_messages() {
        let mut sched =
            ShardScheduler::new(vec![MixedDst { received: 0 }], Duration::from_ticks(10), 1)
                .unwrap();
        let mut out = Vec::new();
        assert_eq!(
            sched.step_epoch_into(&mut out).err(),
            Some(ShardError::UnknownDestination { dst: 9, shards: 1 })
        );
        assert_eq!(out.len(), 1, "driver message survives the bad sibling run");
        assert_eq!(out[0].msg, 2);
        assert_eq!(
            sched.step_epoch_into(&mut out).err(),
            Some(ShardError::UnknownDestination { dst: 9, shards: 1 })
        );
        assert_eq!(
            sched.with_shard(0, |s| s.received),
            1,
            "the valid self-send was delivered next epoch"
        );
        assert_eq!(sched.routed_messages(), 6);
    }

    #[test]
    fn profile_accumulates_per_phase_time() {
        let shards: Vec<RingShard> = (0..5).map(|i| RingShard::new(i, 5, 99)).collect();
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), 2).unwrap();
        assert_eq!(sched.profile(), PhaseProfile::default());
        sched.inject(0, SimTime::from_ticks(0), 100).unwrap();
        sched.step_epoch().unwrap();
        let after_one = sched.profile();
        assert_eq!(after_one.epochs, 1);
        sched.step_epoch().unwrap();
        sched.step_epoch().unwrap();
        let after_three = sched.profile();
        assert_eq!(after_three.epochs, 3);
        // Accumulators are monotonic, the diff helper attributes the gap.
        let delta = after_three.since(&after_one);
        assert_eq!(delta.epochs, 2);
        assert!(after_three.stage_ns >= after_one.stage_ns);
        assert!(after_three.parallel_ns >= after_one.parallel_ns);
        assert!(after_three.busy_ns >= after_one.busy_ns);
        assert!(after_three.route_ns >= after_one.route_ns);
        assert!(after_three.total_ns() >= after_three.parallel_ns);
        // Three epochs of real shard work register as busy time.
        assert!(after_three.busy_ns > 0, "parallel participants report busy time");
    }

    #[test]
    #[should_panic(expected = "conservative bound violated")]
    fn outbox_rejects_messages_before_horizon() {
        struct Early;
        impl Shard for Early {
            type Msg = ();
            fn step(&mut self, _until: SimTime, _inbox: &mut Vec<Envelope<()>>, outbox: &mut Outbox<()>) {
                outbox.send(0, SimTime::ZERO, ());
            }
        }
        let mut sched = ShardScheduler::new(vec![Early], Duration::from_ticks(10), 1).unwrap();
        let _ = sched.step_epoch();
    }

    #[test]
    fn driver_messages_may_precede_the_horizon() {
        // The driver consumes its mailbox after the epoch, so a mid-epoch
        // timestamp (e.g. a decision time) is legal and preserved.
        struct MidEpoch;
        impl Shard for MidEpoch {
            type Msg = u64;
            fn step(&mut self, until: SimTime, inbox: &mut Vec<Envelope<u64>>, outbox: &mut Outbox<u64>) {
                inbox.clear();
                outbox.send(DRIVER, SimTime::from_ticks(until.ticks() - 5), 1);
            }
        }
        let mut sched = ShardScheduler::new(vec![MidEpoch], Duration::from_ticks(10), 1).unwrap();
        let out = sched.step_epoch().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, SimTime::from_ticks(5));
    }

    #[test]
    #[should_panic(expected = "boom in shard 2")]
    fn worker_panic_propagates_to_the_caller() {
        struct Bomb {
            index: usize,
        }
        impl Shard for Bomb {
            type Msg = ();
            fn step(&mut self, _until: SimTime, inbox: &mut Vec<Envelope<()>>, _outbox: &mut Outbox<()>) {
                inbox.clear();
                assert!(self.index != 2, "boom in shard {}", self.index);
            }
        }
        let shards: Vec<Bomb> = (0..4).map(|index| Bomb { index }).collect();
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(1), 4).unwrap();
        let _ = sched.step_epoch();
    }

    #[test]
    fn pool_runs_job_on_every_worker_and_the_caller() {
        let pool = WorkerPool::new(2);
        let runs = AtomicUsize::new(0);
        for round in 1..=3usize {
            pool.run(&|| {
                runs.fetch_add(1, Ordering::Relaxed);
            });
            // 2 pool workers + the calling thread, every round — the same
            // barrier is reused, not respawned.
            assert_eq!(runs.load(Ordering::Relaxed), 3 * round);
        }
    }

    #[test]
    fn pool_shutdown_on_drop_joins_all_workers() {
        let pool = WorkerPool::new(3);
        let weak = Arc::downgrade(&pool.shared);
        pool.run(&|| {});
        drop(pool);
        // Drop joins every worker; each worker's Arc clone is gone.
        assert_eq!(weak.strong_count(), 0, "workers must exit and drop their handles");
    }

    #[test]
    fn epoch_barrier_reused_across_consecutive_epochs() {
        let shards: Vec<RingShard> = (0..5).map(|i| RingShard::new(i, 5, 99)).collect();
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), 4).unwrap();
        sched.inject(0, SimTime::from_ticks(0), 100).unwrap();
        let workers = sched.pool_workers();
        assert_eq!(workers, 3, "threads=4 ⇒ 3 pool threads + the caller");
        for epoch in 1..=4u64 {
            sched.step_epoch().unwrap();
            assert_eq!(sched.epochs(), epoch);
            assert_eq!(sched.pool_workers(), workers, "no respawn between epochs");
        }
    }

    #[test]
    fn single_thread_spawns_no_pool() {
        let shards = vec![RingShard::new(0, 1, 0)];
        let sched = ShardScheduler::new(shards, Duration::from_ticks(10), 1).unwrap();
        assert_eq!(sched.pool_workers(), 0);
    }

    #[test]
    fn custom_windows_advance_time_and_deliver_across_epochs() {
        fn run(windows: &[u64]) -> (Vec<RingTrace>, RingTrace) {
            let shards: Vec<RingShard> = (0..5).map(|i| RingShard::new(i, 5, 99)).collect();
            let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), 2).unwrap();
            sched.inject(0, SimTime::from_ticks(0), 100).unwrap();
            sched.inject(3, SimTime::from_ticks(0), 500).unwrap();
            let mut driver = Vec::new();
            let mut out = Vec::new();
            for &w in windows {
                sched
                    .step_epoch_window_into(Duration::from_ticks(w), &mut out)
                    .unwrap();
                for env in out.drain(..) {
                    driver.push((env.time.ticks(), env.src, env.msg));
                }
            }
            assert_eq!(sched.now().ticks(), windows.iter().sum::<u64>());
            (sched.into_shards().into_iter().map(|s| s.log).collect(), driver)
        }
        // The ring forwards one hop per epoch regardless of window width,
        // so the per-shard payload sequence is window-independent (only
        // the timestamps stretch).
        let (logs_narrow, _) = run(&[10, 10, 10, 10]);
        let (logs_wide, _) = run(&[40, 5, 25, 10]);
        let strip = |logs: Vec<RingTrace>| -> Vec<Vec<(usize, u64)>> {
            logs.into_iter()
                .map(|l| l.into_iter().map(|(_, src, msg)| (src, msg)).collect())
                .collect()
        };
        assert_eq!(strip(logs_narrow), strip(logs_wide));
    }

    #[test]
    fn zero_custom_window_is_rejected() {
        let shards = vec![RingShard::new(0, 1, 0)];
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), 1).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            sched.step_epoch_window_into(Duration::ZERO, &mut out).err(),
            Some(ShardError::ZeroWindow)
        );
        assert_eq!(sched.epochs(), 0, "a rejected window must not tick the epoch");
    }

    #[test]
    fn bookkeeping_counters_advance() {
        let shards: Vec<RingShard> = (0..3).map(|i| RingShard::new(i, 3, 1)).collect();
        let mut sched = ShardScheduler::new(shards, Duration::from_ticks(10), 2).unwrap();
        assert_eq!(sched.shard_count(), 3);
        assert_eq!(sched.threads(), 2);
        assert_eq!(sched.window(), Duration::from_ticks(10));
        sched.inject(0, SimTime::ZERO, 1).unwrap();
        sched.step_epoch().unwrap();
        sched.step_epoch().unwrap();
        assert_eq!(sched.epochs(), 2);
        assert_eq!(sched.now(), SimTime::from_ticks(20));
        assert!(sched.routed_messages() >= 2);
        let sums = sched.for_each_shard(|_, s| s.sum);
        assert_eq!(sums.len(), 3);
        assert_eq!(sched.with_shard(1, |s| s.index), 1);
    }
}
