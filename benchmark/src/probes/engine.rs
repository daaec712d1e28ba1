//! Probes of the simulation engine side: `sw-sim` and `sw-mpi`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use burgers::BurgersApp;
use sw_math::ExpKind;
use sw_mpi::{CommConfig, MpiWorld};
use sw_sim::{EventQueue, Machine, MachineConfig, MachineEvent, SimDur, SimTime};
use uintah_core::grid::iv;
use uintah_core::{ExecMode, Level, RunConfig, Simulation, Variant};

use super::{median_of_batches, secs_per_op, ProbeCtx};
use crate::host;
use crate::rng::Rng;
use crate::workloads::{Size, PAPER_LAYOUT};

/// Wall seconds of one Model run of 16x16x512 on 32 CGs, three steps,
/// asynchronous scheduler, under the given engine settings.
fn engine_run(steps: u32, pdes: bool, threads: Option<usize>, telemetry: bool) -> (f64, u64) {
    let level = Level::new(iv(16, 16, 512), PAPER_LAYOUT);
    let app = Arc::new(BurgersApp::new(&level, ExpKind::Fast));
    let mut cfg = RunConfig::paper(Variant::ACC_ASYNC, ExecMode::Model, 32);
    cfg.steps = steps;
    cfg.pdes = pdes;
    cfg.threads = threads;
    cfg.options.telemetry = telemetry;
    let t = Instant::now();
    let report = Simulation::new(level, app, cfg).run();
    (t.elapsed().as_secs_f64(), report.total_time.0)
}

/// Wall-time ratio `base / other` of two engine settings over the same
/// run, which must agree on the virtual clock to the picosecond.
pub(super) fn engine_ratio(
    ctx: &mut ProbeCtx<'_>,
    what: &str,
    base: (bool, Option<usize>, bool),
    other: (bool, Option<usize>, bool),
) -> f64 {
    let steps = if ctx.size == Size::Full { 3 } else { 1 };
    let mut same = true;
    let ratio = median_of_batches(|| {
        let (t_base, v_base) = engine_run(steps, base.0, base.1, base.2);
        let (t_other, v_other) = engine_run(steps, other.0, other.1, other.2);
        same &= v_base == v_other;
        t_base / t_other
    });
    ctx.checks.check(same, || {
        format!("{what} probe: the two settings disagree on the virtual clock")
    });
    ratio
}

/// `sw-sim`: the event queue alone (hold model: pop one, schedule one, on
/// 4096 pending events), the window-barrier merge of 64 outboxes, and the
/// PDES engine against the serial one on one and on two threads.
pub fn sw_sim(ctx: &mut ProbeCtx<'_>) {
    let mut rng = Rng::new(11, 101);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..4096 {
        q.schedule_at(SimTime(rng.below(1_000_000)), i);
    }
    let holds = ctx.iters(200_000);
    let pair_s = secs_per_op(|| {
        for _ in 0..holds {
            let (_, ev) = q.pop().expect("the queue never drains");
            q.schedule_in(SimDur(1 + rng.below(1_000_000)), black_box(ev));
        }
        holds as u64
    });
    ctx.out.insert("sw-sim.queue_mops", 1e-6 / pair_s);

    let n = 64;
    let rounds = ctx.iters(200);
    let mut machine = Machine::new(MachineConfig::sw26010(), n);
    let merge_s = median_of_batches(|| {
        let mut merging = Duration::ZERO;
        for _ in 0..rounds {
            for src in 0..n {
                for hop in 1..=4 {
                    let now = machine.now();
                    machine
                        .ctx(src)
                        .net_send(src, (src + hop) % n, 1024, now, 7);
                }
            }
            let t = Instant::now();
            machine
                .merge_outboxes(None)
                .expect("no window floor, no violation");
            merging += t.elapsed();
            while machine.pop().is_some() {}
        }
        merging.as_secs_f64() / rounds as f64
    });
    ctx.out.insert("sw-sim.merge_outboxes_us", merge_s * 1e6);

    let serial = (false, None, false);
    let one = engine_ratio(ctx, "pdes-1-thread", serial, (true, Some(1), false));
    ctx.out.insert("sw-sim.pdes_1thread_over_serial", one);
    if host::nproc() >= 2 {
        let two = engine_ratio(ctx, "pdes-2-threads", serial, (true, Some(2), false));
        ctx.out.insert("sw-sim.pdes_over_serial", two);
    }
}

/// Messages per second of a 16-rank ring exchange driven to quiescence:
/// every rank posts `fan` sends of `bytes` to its right neighbour and the
/// matching receives, then the machine is drained and every rank
/// progressed until all receives are complete.
fn ring_msgs_per_s(ctx: &mut ProbeCtx<'_>, comm: CommConfig, bytes: u64, fan: u64) -> f64 {
    let n = 16;
    let rounds = ctx.iters(40);
    let mut complete = true;
    let per_msg = secs_per_op(|| {
        let mut machine = Machine::new(MachineConfig::sw26010(), n);
        let mut world = MpiWorld::new(n);
        world.set_comm(comm);
        for round in 0..rounds as u64 {
            let now = machine.now();
            let mut recvs = Vec::new();
            for r in 0..n {
                for f in 0..fan {
                    let tag = round * fan + f;
                    world.isend(&mut machine.ctx(r), r, (r + 1) % n, tag, bytes, None, now);
                    recvs.push(world.irecv((r + 1) % n, r, tag));
                }
            }
            // Alternate wire deliveries and host progress until nothing
            // moves; a staged aggregate only leaves at its deadline.
            let mut now = now;
            loop {
                while let Some((at, ev)) = machine.pop() {
                    now = now.max(at);
                    if let MachineEvent::NetDeliver { token, .. } = ev {
                        world.on_wire(token);
                    }
                }
                let mut acted = 0;
                for r in 0..n {
                    if let Some(flush) = world.next_flush_at(r) {
                        now = now.max(flush);
                    }
                    acted += world.progress(r, &mut machine.ctx(r), now);
                }
                if acted == 0 && machine.peek_time().is_none() {
                    break;
                }
            }
            complete &= recvs.iter().all(|&h| world.recv_done(h));
            for h in recvs {
                world.retire_recv(h);
            }
        }
        complete &= world.quiescent();
        rounds as u64 * n as u64 * fan
    });
    ctx.checks.check(complete, || {
        format!("sw-mpi probe under {comm:?}: the ring exchange did not complete")
    });
    1.0 / per_msg
}

/// `sw-mpi`: the default eager matching path, the aggregated multi-endpoint
/// path and the rendezvous path on the same ring exchange, and one
/// `compact` over 4096 finished receives.
pub fn sw_mpi(ctx: &mut ProbeCtx<'_>) {
    let base = CommConfig::default();
    let eager = ring_msgs_per_s(ctx, base, 1024, 4);
    ctx.out.insert("sw-mpi.match_msgs_per_s", eager);
    let aggregated = CommConfig {
        endpoints: 4,
        agg_bytes: 4096,
        agg_deadline_ps: 5_000_000,
        ..base
    };
    let agg = ring_msgs_per_s(ctx, aggregated, 512, 8);
    ctx.out.insert("sw-mpi.agg_msgs_per_s", agg);
    let rendezvous = CommConfig {
        eager_crossover: Some(256),
        ..base
    };
    let rdv = ring_msgs_per_s(ctx, rendezvous, 1024, 4);
    ctx.out.insert("sw-mpi.rendezvous_msgs_per_s", rdv);

    let finished = ctx.iters(4096).max(64) as u64;
    let compact_s = median_of_batches(|| {
        let mut machine = Machine::new(MachineConfig::sw26010(), 2);
        let mut world = MpiWorld::new(2);
        let mut recvs = Vec::new();
        for tag in 0..finished {
            world.isend(
                &mut machine.ctx(0),
                0,
                1,
                tag,
                64,
                Some(vec![1.0]),
                SimTime::ZERO,
            );
            recvs.push(world.irecv(1, 0, tag));
        }
        while let Some((_, ev)) = machine.pop() {
            if let MachineEvent::NetDeliver { token, .. } = ev {
                world.on_wire(token);
            }
        }
        let now = machine.now();
        world.progress(1, &mut machine.ctx(1), now);
        for h in recvs {
            black_box(world.take_payload(h));
        }
        let t = Instant::now();
        world.compact();
        t.elapsed().as_secs_f64()
    });
    ctx.out.insert("sw-mpi.compact_us", compact_s * 1e6);
}
