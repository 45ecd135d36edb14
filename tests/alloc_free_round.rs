//! Heap allocations per record on the tenant's apply path.
//!
//! A counting global allocator tallies the calls each thread makes
//! (tests run on parallel threads, so a process-wide count would mix
//! them). After a warm-up that grows every reused buffer, applying a
//! record must allocate nothing, except in a re-election round: a
//! cluster that gains a member beyond its largest membership so far
//! grows its buffers by one slot (`reserve_exact`, by design), and the
//! engine then re-sizes its decision buffers for the largest cluster.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tibfit_daemon::tenant::Tenant;
use tibfit_daemon::wire::Report;
use tibfit_daemon::EngineKind;
use tibfit_experiments::replay::FieldScenario;

struct Counting;

thread_local! {
    /// Allocation calls made by this thread (`alloc`, `alloc_zeroed`,
    /// `realloc`).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the counter
// is a const-initialised thread-local `Cell`, which neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Allocation calls of each applied record of `scenario`'s event
/// stream after `warmup` records, as `(round, calls)`.
fn allocations_per_record(
    scenario: FieldScenario,
    warmup: usize,
    measured: usize,
) -> Vec<(u64, u64)> {
    let events = scenario.events(warmup + measured);
    let mut tenant = Tenant::new(0, scenario, EngineKind::Sequential, 1).expect("valid scenario");
    let mut line = String::with_capacity(256);
    let mut out = Vec::with_capacity(measured);
    for (i, e) in events.iter().enumerate() {
        let report = Report {
            tenant: 0,
            time: i as u64 + 1,
            src: 1,
            seq: i as u64 + 1,
            x: e.x,
            y: e.y,
        };
        line.clear();
        let before = calls();
        tenant.apply_into(&report, &mut line);
        let spent = calls() - before;
        if i >= warmup {
            out.push((tenant.round(), spent));
        }
    }
    out
}

/// The records of `per_record` that allocated outside a re-election
/// round.
fn outside_re_election(per_record: &[(u64, u64)], every: u64) -> Vec<(u64, u64)> {
    per_record
        .iter()
        .copied()
        .filter(|&(round, n)| !round.is_multiple_of(every) && n > 0)
        .collect()
}

#[test]
fn a_mobile_record_allocates_only_in_re_election_rounds() {
    for seed in [1u64, 7, 42, 0x5EED] {
        let scenario = FieldScenario::mobile(seed);
        let every = scenario.reelect_every;
        let per_record = allocations_per_record(scenario, 150, 600);
        let outside = outside_re_election(&per_record, every);
        assert!(
            outside.is_empty(),
            "seed {seed}: allocations outside re-election rounds: {outside:?}"
        );
    }
}

#[test]
fn a_big_field_allocates_only_in_re_election_rounds() {
    let scenario = FieldScenario {
        nodes: 4096,
        clusters: 256,
        field: 640.0,
        faulty: 1024,
        ..FieldScenario::mobile(0xB16)
    };
    let every = scenario.reelect_every;
    let per_record = allocations_per_record(scenario, 30, 150);
    let outside = outside_re_election(&per_record, every);
    assert!(
        outside.is_empty(),
        "allocations outside re-election rounds: {outside:?}"
    );
}
