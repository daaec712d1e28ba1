//! Proof of the "zero-cost-when-disabled" recorder contract: recording
//! through a disabled [`Recorder`] performs **zero** heap allocations —
//! the hot path is a single branch on `Option<Arc<Inner>>`. And of the
//! consumers' contract: `perfetto::export` and `trace_hb` allocate per
//! document and per rank, never per record.
//!
//! Uses a counting `#[global_allocator]` with a per-thread counter: the
//! test harness runs the tests (and its own bookkeeping) on other threads,
//! and their allocations must not land in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sw_telemetry::{perfetto, trace_hb, Event, EventRecord, Lane, Recorder};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Bump this thread's counter (a no-op while the thread's TLS is torn down).
fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump
// (const-initialised `Cell`, so the bump itself never allocates) — the
// layout/ownership contracts of `GlobalAlloc` are delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from the matching `alloc` above, which
        // returned a `System` allocation.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `f` on this thread.
fn allocs_of<F: FnMut()>(mut f: F) -> usize {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

#[test]
fn disabled_recorder_is_zero_alloc() {
    let rec = Recorder::off();
    // Record a representative mix of events through the disabled handle:
    // exactly zero allocations, not "few".
    let n = allocs_of(|| {
        for i in 0..10_000u64 {
            rec.record(
                0,
                i,
                Lane::Cpe((i % 8) as u32),
                Event::OffloadStart {
                    patch: i as usize,
                    token: i,
                },
            );
            rec.record(
                0,
                i,
                Lane::Mpe,
                Event::MsgPosted {
                    msg: i,
                    peer: 1,
                    tag: i,
                    bytes: 4096,
                    eager: false,
                },
            );
            rec.record(0, i, Lane::Mpe, Event::Mark { tag: "noop" });
        }
    });
    assert_eq!(
        n, 0,
        "disabled recorder allocated {n} times over 30k record calls; \
         the off path must be branch-only"
    );
    // Cloning a disabled handle is also free (Option<Arc> = None).
    let c = allocs_of(|| {
        for _ in 0..1_000 {
            let r2 = rec.clone();
            std::hint::black_box(&r2);
        }
    });
    assert_eq!(c, 0, "cloning a disabled recorder allocated {c} times");
}

#[test]
fn enabled_recorder_does_allocate_as_a_sanity_check() {
    // The counting allocator sees the enabled path allocate (buffer growth),
    // confirming the harness measures what we think it measures.
    let rec = Recorder::new(1);
    let n = allocs_of(|| {
        for i in 0..1_000u64 {
            rec.record(0, i, Lane::Mpe, Event::Mark { tag: "x" });
        }
    });
    assert!(
        n > 0,
        "enabled recorder recorded 1000 events with 0 allocs?"
    );
}

/// `n` records of one rank in the proportions a traced run produces; with
/// `joins`, kernels fork and join and messages are posted and delivered.
fn rank_buffer(n: usize, joins: bool) -> Vec<EventRecord> {
    let rec = |i: usize, lane, event| EventRecord {
        at_ps: 1_000 * i as u64,
        wall_ns: None,
        lane,
        event,
    };
    (0..n)
        .map(|i| {
            let (patch, token, msg) = (i / 10 % 8, i as u64 / 10, i as u64 / 10);
            let slot = Lane::Cpe((i / 10 % 4) as u32);
            match i % 10 {
                0 => rec(i, Lane::Mpe, Event::TaskStart { patch, stage: 0 }),
                1 => rec(i, Lane::Mpe, Event::TaskEnd { patch, stage: 0 }),
                2 if joins => rec(i, slot, Event::OffloadStart { patch, token }),
                3 => rec(i, slot, Event::DmaIn { bytes: 4096 }),
                4 => rec(i, slot, Event::DmaOut { bytes: 4096 }),
                5 if joins => rec(i, slot, Event::OffloadDone { patch, token }),
                6 if joins => {
                    let post = Event::MsgPosted {
                        msg,
                        peer: 0,
                        tag: 7,
                        bytes: 4096,
                        eager: true,
                    };
                    rec(i, Lane::Mpe, post)
                }
                7 if joins => {
                    let delivery = Event::MsgDelivered {
                        msg,
                        peer: 0,
                        tag: 7,
                        bytes: 4096,
                    };
                    rec(i, Lane::Mpe, delivery)
                }
                8 => rec(i, Lane::Mpe, Event::ProgressCall { actions: 1 }),
                _ => rec(i, Lane::Mpe, Event::Barrier { step: i / 10 }),
            }
        })
        .collect()
}

#[test]
fn export_allocates_per_document_not_per_record() {
    let snap = vec![rank_buffer(10_000, true)];
    let mut json = String::new();
    let n = allocs_of(|| json = perfetto::export(&snap));
    assert!(json.len() > 100 * 10_000, "{} bytes", json.len());
    // The output buffer, the lane list and the three open-span stacks.
    assert!(n <= 8, "export of 10 000 records allocated {n} times");
}

#[test]
fn trace_hb_without_joins_allocates_per_rank_not_per_event() {
    // Program order only: no fork, harvest, delivery or reduction, so no
    // clock version is ever created and every stamp shares version 0.
    let ranks = 4;
    let count = |events: usize| {
        let snap: Vec<_> = (0..ranks).map(|_| rank_buffer(events, false)).collect();
        let mut n_events = 0;
        let n = allocs_of(|| n_events = trace_hb(&snap).n_events());
        assert_eq!(n_events, ranks * events);
        n
    };
    let (small, large) = (count(100), count(10_000));
    assert_eq!(small, large, "allocations grew with the event count");
    assert!(
        large <= 4 * ranks + 8,
        "{large} allocations for {ranks} ranks"
    );
}
