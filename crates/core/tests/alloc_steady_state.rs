//! Proof of the arena-allocation contract behind the PDES engine's hot
//! loop: once warm, the per-step data structures perform **zero** heap
//! allocations in steady state.
//!
//! Two components carry the step loop's former allocation traffic:
//!
//! 1. The [`DataWarehouse`] arena — every timestep allocates and clears the
//!    same `(label, patch)` variable set, and the arena recycles the data
//!    buffers through a pool instead of freeing them (`var/dw.rs`).
//! 2. The [`EventQueue`] — the machine model schedules/pops millions of
//!    events, and the backing `BinaryHeap` retains its capacity across pops
//!    so bounded-occupancy traffic never reallocates.
//!
//! The same contract covers the two host loops that run once per simulated
//! event:
//!
//! 3. `sw-mpi`'s `progress` — its work follows arrivals, so a rank with
//!    nothing arrived allocates nothing however many requests it holds.
//! 4. The scheduler's `on_wake` — a wakeup that finds nothing new (no
//!    arrival, no completion flag) runs the whole MPE loop without touching
//!    the heap.
//!
//! Uses a counting `#[global_allocator]` with a per-thread counter (same
//! pattern as `sw-telemetry/tests/alloc_count.rs`): the harness runs these
//! single-threaded tests on parallel threads, and a neighbour's allocations
//! must not land in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use sw_athread::{cells, CpeTileKernel, Dims3, TileCostModel, TileCtx};
use sw_mpi::{MpiWorld, SharedMpi};
use sw_sim::{EventQueue, Machine, MachineConfig, MachineEvent, SimDur, SimTime};
use sw_telemetry::Recorder;
use uintah_core::schedule::rank::{ReduceCtx, StepCtx};
use uintah_core::schedule::RankSched;
use uintah_core::task::build_rank_plan;
use uintah_core::{
    iv, Application, CcVar, DataWarehouse, ExecMode, Level, LoadBalancer, Region, RunConfig,
    Variant,
};

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

/// One simulated timestep's warehouse traffic: allocate a stage variable
/// per patch, then clear (recycling every buffer into the pool).
fn warehouse_step(dw: &mut DataWarehouse, patches: usize, region: Region) {
    for p in 0..patches {
        let v = dw.allocate(0, p, region);
        v.set(iv(1, 1, 1), p as f64);
    }
    dw.clear();
}

#[test]
fn warehouse_steady_state_is_zero_alloc() {
    let mut dw = DataWarehouse::new();
    let region = Region::of_extent(iv(8, 8, 8)).grow(1);
    // Warm-up: intern the (label, patch) keys and fill the buffer pool.
    warehouse_step(&mut dw, 16, region);
    assert_eq!(dw.pooled(), 16, "warm-up parked every buffer in the pool");
    // Steady state: 1000 allocate/clear cycles over the same key set must
    // be exactly allocation-free — not "few", zero.
    let n = allocs_of(|| {
        for _ in 0..1_000 {
            warehouse_step(&mut dw, 16, region);
        }
    });
    assert_eq!(
        n, 0,
        "steady-state warehouse cycling allocated {n} times over 1000 \
         steps; the arena must recycle every buffer"
    );
}

#[test]
fn warehouse_put_take_cycle_is_zero_alloc_once_warm() {
    // The end-of-step path: `take` the output, copy, `put` it back, `clear`.
    let mut dw = DataWarehouse::new();
    let region = Region::of_extent(iv(4, 4, 4));
    for p in 0..8 {
        dw.allocate(0, p, region);
    }
    dw.clear();
    let n = allocs_of(|| {
        for _ in 0..1_000 {
            for p in 0..8 {
                dw.allocate(0, p, region);
            }
            for p in 0..8 {
                let v = dw.take(0, p).expect("allocated above");
                dw.put(0, p, v);
            }
            dw.clear();
        }
    });
    assert_eq!(
        n, 0,
        "take/put/clear cycling allocated {n} times; ownership moves must \
         not clone or reallocate"
    );
}

#[test]
fn event_queue_steady_state_is_zero_alloc() {
    let mut q: EventQueue<u64> = EventQueue::new();
    // Warm-up: push the queue to its peak occupancy once so the BinaryHeap
    // grows to final capacity.
    for i in 0..64u64 {
        q.schedule_at(SimTime(i), i);
    }
    while q.pop().is_some() {}
    // Steady state: bounded-occupancy schedule/pop churn reuses the
    // retained capacity.
    let mut t = 64u64;
    let n = allocs_of(|| {
        for _ in 0..10_000 {
            for k in 0..32 {
                q.schedule_at(SimTime(t + k), t + k);
            }
            for _ in 0..32 {
                q.pop();
            }
            t += 32;
        }
    });
    assert_eq!(
        n, 0,
        "steady-state event scheduling allocated {n} times over 320k \
         schedule/pop pairs; the heap must retain its capacity"
    );
}

#[test]
fn cold_warehouse_does_allocate_as_a_sanity_check() {
    // The counting allocator sees the cold path allocate (fresh buffers,
    // index growth), confirming the harness measures what we think.
    let n = allocs_of(|| {
        let mut dw = DataWarehouse::new();
        let region = Region::of_extent(iv(8, 8, 8));
        for p in 0..16 {
            dw.allocate(0, p, region);
        }
        std::hint::black_box(&dw);
    });
    assert!(n > 0, "16 cold allocations performed 0 heap allocs?");
}

#[test]
fn progress_with_nothing_arrived_is_zero_alloc() {
    // Rank 0 holds 64 sends in flight (eager payloads and rendezvous RTSs
    // still on the wire) and 64 posted receives; nothing has arrived.
    let mut m = Machine::new(MachineConfig::sw26010(), 2);
    let mut w = MpiWorld::new(2);
    for tag in 0..64u64 {
        let bytes = if tag % 2 == 0 { 512 } else { 1_000_000 };
        w.isend(&mut m.ctx(0), 0, 1, tag, bytes, None, SimTime::ZERO);
        w.irecv(0, 1, tag);
    }
    assert_eq!(w.unacked(0), 64);
    let mut done = Vec::new();
    let n = allocs_of(|| {
        for i in 0..1_000u64 {
            let now = SimTime(i);
            assert_eq!(w.progress(0, &mut m.ctx(0), now), 0);
            assert_eq!(w.test(0, &mut m.ctx(0), now, &mut done).actions, 0);
        }
    });
    assert!(done.is_empty());
    assert_eq!(
        n, 0,
        "2000 library entries with nothing arrived allocated {n} times; \
         progress must cost arrivals, not requests in flight"
    );
    // The traffic is real: once delivered, the peer has work to do.
    while let Some((_, ev)) = m.pop() {
        if let MachineEvent::NetDeliver { token, .. } = ev {
            w.on_wire(token);
        }
    }
    let now = m.now();
    w.irecv(1, 0, 0);
    assert_eq!(w.progress(1, &mut m.ctx(1), now), 1);
}

/// A minimal one-stage application for the scheduler case below; Model
/// mode only consults its cost model.
struct Decay;

impl CpeTileKernel for Decay {
    fn ghost(&self) -> usize {
        1
    }
    fn compute(&self, ctx: &mut TileCtx<'_>) {
        let d = ctx.tile.dims;
        for z in 0..d.2 {
            for y in 0..d.1 {
                for x in 0..d.0 {
                    ctx.out_at(x, y, z, 0.99 * ctx.in_at(x, y, z, 0, 0, 0));
                }
            }
        }
    }
}

impl TileCostModel for Decay {
    fn ghost(&self) -> usize {
        1
    }
    fn flops(&self, d: Dims3) -> u64 {
        100 * cells(d)
    }
    fn exp_flops(&self, _d: Dims3) -> u64 {
        0
    }
    fn exp_calls(&self, _d: Dims3) -> u64 {
        0
    }
}

impl Application for Decay {
    fn name(&self) -> &str {
        "decay"
    }
    fn ghost(&self) -> i64 {
        1
    }
    fn cost(&self) -> &dyn TileCostModel {
        self
    }
    fn kernel(&self, _simd: bool) -> &dyn CpeTileKernel {
        self
    }
    fn bc_flops_per_cell(&self) -> u64 {
        1
    }
    fn stable_dt(&self, _level: &Level) -> f64 {
        1.0
    }
    fn init(&self, _l: &Level, region: &Region, var: &mut CcVar) {
        for c in region.iter() {
            var.set(c, 1.0);
        }
    }
    fn fill_boundary(&self, _l: &Level, region: &Region, var: &mut CcVar, _t: f64) {
        for c in region.iter() {
            var.set(c, 1.0);
        }
    }
}

/// Allocation count of `wakes` back-to-back wakeups of rank 0, each just
/// after its MPE came free.
fn wake(sched: &mut RankSched, ctx: &mut StepCtx<'_>, wakes: u64) -> usize {
    allocs_of(|| {
        for _ in 0..wakes {
            let now = ctx.machine.cg(0).mpe.free_at() + SimDur(1);
            sched.on_wake(ctx, now);
        }
    })
}

#[test]
fn warm_on_wake_with_nothing_arrived_is_zero_alloc() {
    // Four patches along z on two ranks, asynchronous scheduler, Model
    // mode. Only rank 0 is driven, so the ghost message its boundary patch
    // waits for never arrives: every wakeup below finds its requests as it
    // left them.
    let level = Level::new(iv(16, 16, 16), iv(1, 1, 4));
    let assignment = LoadBalancer::Block.assign(&level, 2);
    let plan = build_rank_plan(&level, &assignment, 0, 1);
    assert_eq!((plan.patches.len(), plan.recvs.len()), (2, 1));
    let cfg = MachineConfig::sw26010();
    let mut machine = Machine::new(cfg.clone(), 2);
    let mpi = SharedMpi::new(MpiWorld::new(2));
    let (merged, mut outbox) = (BTreeMap::new(), Vec::new());
    let run = RunConfig {
        steps: 2,
        ..RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, 2)
    };
    let mut sched = RankSched::new(Arc::new(run), 0, plan, &level, Recorder::off(), None);
    let mut ctx = StepCtx {
        machine: machine.ctx(0),
        mpi: &mpi,
        reduce: ReduceCtx {
            merged: &merged,
            outbox: &mut outbox,
        },
        level: &level,
        app: &Decay,
        n_ranks: 2,
    };
    // Step 0 begins: receives and sends posted, the interior patch's
    // kernel offloaded.
    sched.init_run(&mut ctx);
    let &(_, _, kernel_done) = sched.stats.kernel_spans.last().expect("a kernel in flight");
    // While the kernel runs: each wakeup enters the library (receives and
    // sends are open), polls the completion flag, and goes back to sleep.
    let n = wake(&mut sched, &mut ctx, 8);
    assert_eq!(n, 0, "8 wakeups under a running kernel allocated {n} times");
    assert_eq!(sched.stats.kernels, 1, "nothing completed meanwhile");
    // Let the kernel finish and the loop run dry again (warm-up: the
    // completion itself may allocate).
    sched.on_wake(&mut ctx, kernel_done + cfg.flag_poll_interval);
    wake(&mut sched, &mut ctx, 2);
    // Waiting on the remote ghost only.
    let n = wake(&mut sched, &mut ctx, 1_000);
    assert_eq!(
        n, 0,
        "1000 warm wakeups with nothing arrived allocated {n} times; the \
         scheduler must harvest completions, not re-walk its requests"
    );
    assert_eq!(sched.stats.ghosts_received, 0);
    assert_eq!(sched.step(), 0);
    assert!(
        sched.stats.mpe.mpi > SimDur::ZERO,
        "the wakeups did enter the library"
    );
}
