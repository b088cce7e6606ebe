//! The deterministic dispatcher: the **only** module that matches raw
//! simulation [`Event`]s or touches the scheduler (lint rule BH01
//! holds everywhere else in `crates/proto`).
//!
//! For every popped event the dispatcher runs the behaviour hooks in
//! fixed stack order — discovery, announce, churn-recovery, scheduling,
//! the optional epidemic push, then custom behaviours in push order;
//! `each_hook` is the one loop that does so — and only then drains the
//! action queue FIFO into the scheduler. Because the scheduler breaks
//! timestamp ties by a canonical `(origin, oseq)` key assigned at
//! insertion, this two-phase scheme inserts events in exactly the order
//! the monolithic handler did, which is what keeps same-seed runs
//! byte-identical across the decomposition (ND01–ND05; pinned by
//! `tests/golden_behaviours.rs`).
//!
//! ## Canonical keys and the obs replay
//!
//! Every scheduler insertion is keyed by the lane of the event being
//! *handled* (`handler_lane`): the probe whose hooks and RNG stream the
//! event drives, or the churn lane for swarm-wide churn events. Equal
//! timestamps therefore pop in `(origin, oseq)` lane order, not in
//! insertion order, and the golden fingerprints pin that order.
//!
//! Obs events do not go straight to the sink. They are tagged with the
//! scheduler key of the handling that emitted them, buffered, and
//! replayed in tag order after the run. For most handlings that is the
//! emission order. Churn handling is the exception: it re-tags its
//! per-probe emissions (`swarm.churn.requests_requeued` and the
//! replacement handshakes) onto the probe's lane
//! (`SwarmCore::tag_probe_sub`), so they replay among that instant's
//! probe-lane events, not after them. The golden obs-log fingerprints
//! of every faulted cell depend on that order.

use super::behaviour::{Actions, Behaviour, BehaviourAction, BehaviourStack, Ctx};
use super::state::Event;
use super::{SwarmCore, SwarmMetrics};
use crate::peer::PeerId;
use netaware_obs::{Level, ProfCell, ProfSpan, ShardBufferSink};
use netaware_sim::{PacketFate, Scheduler, SimTime, ORIGIN_CHURN, ORIGIN_INIT};
use netaware_trace::PayloadKind;
use std::sync::Arc;

/// Pre-registered profiler cells for the dispatch hot path: one per
/// stack member in [`BehaviourStack::hooks`] order (labelled
/// `behaviour.<name>` by [`Behaviour::name`]), one for the
/// receiver-side transfer work, one for the action drain. When the obs
/// handle is not profiling every cell is disabled and
/// [`ProfCell::time`] reduces to a bare closure call, keeping the
/// disabled path within the `obs_overhead` bench budget.
pub(crate) struct DispatchProf {
    hooks: Vec<ProfCell>,
    transfer: ProfCell,
    drain: ProfCell,
}

impl DispatchProf {
    /// Cells under `span` for exactly the members of `stack`; build it
    /// after the last custom behaviour was pushed.
    pub(crate) fn new(span: &ProfSpan, stack: &mut BehaviourStack) -> DispatchProf {
        DispatchProf {
            hooks: stack
                .hooks()
                .map(|b| span.cell(&format!("behaviour.{}", b.name())))
                .collect(),
            transfer: span.cell("transfer.rx"),
            drain: span.cell("drain"),
        }
    }
}

/// Per-lane insertion counters. Each probe lane (`1 + probe_idx`) is
/// advanced only while handling that probe's events, the churn lane
/// only while handling churn events and the init lane only during
/// bootstrap, so every `(origin, oseq)` key is unique and depends only
/// on its lane's own history.
pub(crate) struct LaneSeqs {
    probe: Vec<u32>,
    churn: u32,
    init: u32,
}

impl LaneSeqs {
    pub(crate) fn new(n_probes: usize) -> LaneSeqs {
        LaneSeqs {
            probe: vec![0; n_probes],
            churn: 0,
            init: 0,
        }
    }

    fn next(&mut self, lane: u32) -> u32 {
        let slot = match lane {
            ORIGIN_CHURN => &mut self.churn,
            ORIGIN_INIT => &mut self.init,
            _ => &mut self.probe[lane as usize - 1],
        };
        let s = *slot;
        *slot = slot.wrapping_add(1);
        s
    }
}

/// The lane that handles `ev`: the probe whose hooks (and RNG stream)
/// the event drives, or the churn lane for swarm-wide churn events.
/// Every scheduler insertion made while handling an event is keyed by
/// the handled event's lane.
fn handler_lane(core: &SwarmCore<'_>, ev: &Event) -> u32 {
    match ev {
        Event::Tick(i) | Event::Demand(i) | Event::Halo(i) => 1 + *i,
        Event::Serve { provider, to, .. } => {
            if core.is_probe(*provider) {
                provider.0
            } else {
                // External/source providers are driven by the
                // requesting probe's lane.
                to.0
            }
        }
        Event::ChunkRx { to, .. } | Event::SignalRx { to, .. } | Event::Delivered { to, .. } => {
            to.0
        }
        Event::Depart(_) | Event::Arrive(_) => ORIGIN_CHURN,
    }
}

/// Runs the event loop from time zero to `horizon`: schedules the
/// initial per-probe processes, fires the `on_start` hooks, and
/// dispatches until the queue runs dry or passes the horizon.
pub(crate) fn run(core: &mut SwarmCore<'_>, stack: &mut BehaviourStack, horizon: SimTime) {
    let dspan = core.obs.pspan("swarm.dispatch");
    let prof = DispatchProf::new(&dspan, stack);
    let mut sched: Scheduler<Event> = Scheduler::new();
    let mut seq = LaneSeqs::new(core.n_probes);

    // ---- Bootstrap. ----------------------------------------------------
    // Stagger initial ticks across one tick interval so probes do not
    // act in lockstep. The initial processes are emitted as actions
    // ahead of the start-of-run hooks' (churn seeding lives there), and
    // one drain keys them all on the ORIGIN_INIT lane in emission order.
    let mut actions = Actions::default();
    let ctx = &mut Ctx {
        core: &mut *core,
        actions: &mut actions,
        now: SimTime::ZERO,
    };
    let profile = &ctx.core.cfg.profile;
    let (tick, halo) = (profile.tick_us, profile.halo_contacts_per_sec > 0.0);
    // Demand and halo processes start once the stream exists.
    let warmup = ctx.core.cfg.stream.chunk_interval_us() * (profile.buffer_delay_chunks as u64 + 2);
    for p in 0..ctx.core.n_probes as u32 {
        let offset = ctx.core.rng.range(0..tick.max(1));
        ctx.schedule(SimTime::from_us(offset), Event::Tick(p));
        let d0 = warmup + ctx.core.rng.range(0..1_000_000);
        ctx.schedule(SimTime::from_us(d0), Event::Demand(p));
        if halo {
            let h0 = ctx.core.rng.range(0..2_000_000);
            ctx.schedule(SimTime::from_us(h0), Event::Halo(p));
        }
    }
    each_hook(stack, &prof, ctx, |b, c| b.on_start(c));
    let (now, lane) = (SimTime::ZERO, ORIGIN_INIT);
    prof.drain
        .time(|| drain(core, stack, &mut sched, &mut actions, &mut seq, now, lane));

    // ---- Event loop. ---------------------------------------------------
    // Obs events emitted from here on are tagged and buffered, then
    // replayed in tag order (see the module docs).
    let saved_obs = core.obs.clone();
    let buf = saved_obs.sink().map(|d| {
        let buf = Arc::new(ShardBufferSink::new(d));
        core.obs = saved_obs.fork(buf.clone());
        core.m = SwarmMetrics::register(&core.obs);
        core.obs_tags.sink = Some(buf.clone());
        core.obs_tags.sub_seq = vec![0; core.n_probes];
        buf
    });

    sched.run_window(horizon.as_us() + 1, |sched, now, key, ev| {
        if let Some(sink) = &core.obs_tags.sink {
            sink.set_tag(now.as_us(), key.0, key.1);
        }
        core.obs_tags.in_churn = matches!(ev, Event::Depart(_) | Event::Arrive(_));
        deliver(core, stack, sched, &mut actions, &mut seq, now, ev, &prof);
        core.obs_tags.in_churn = false;
    });

    if let Some(buf) = buf {
        core.obs_tags.sink = None;
        core.obs = saved_obs;
        core.m = SwarmMetrics::register(&core.obs);
        if let Some(dest) = core.obs.sink() {
            netaware_obs::replay_merged(buf.take(), dest.as_ref());
        }
    }

    let dispatched = sched.dispatched();
    core.report.events_dispatched = dispatched;
    dspan.add_events(dispatched);
    dspan.add_sim_us(horizon.as_us());
    let saturated = sched.saturated();
    if saturated > 0 {
        // Past-time insertions were clamped to "now" by the scheduler.
        // Zero on healthy runs — worth a warning when not.
        netaware_obs::event!(
            core.obs,
            Level::Warn,
            "swarm.schedule_saturated",
            horizon,
            "events" = saturated,
        );
    }
}

/// Runs one hook on every stack member in dispatch order, each under
/// its profiler cell. The one place the stack is broadcast to.
fn each_hook(
    stack: &mut BehaviourStack,
    prof: &DispatchProf,
    ctx: &mut Ctx<'_, '_>,
    mut hook: impl FnMut(&mut dyn Behaviour, &mut Ctx<'_, '_>),
) {
    debug_assert_eq!(
        prof.hooks.len(),
        stack.hooks().count(),
        "stale DispatchProf"
    );
    for (b, cell) in stack.hooks().zip(&prof.hooks) {
        cell.time(|| hook(b, ctx));
    }
}

/// Dispatches one event: the receiver-side transfer preambles, hooks in
/// stack order, then the FIFO drain, then — for ticks — the next tick
/// of the protocol clock (after the drained chunk serves, matching the
/// legacy insertion order).
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    sched: &mut Scheduler<Event>,
    actions: &mut Actions,
    seq: &mut LaneSeqs,
    now: SimTime,
    ev: Event,
    prof: &DispatchProf,
) {
    debug_assert!(actions.queue.is_empty(), "scratch action queue not drained");
    let lane = handler_lane(core, &ev);
    let ctx = &mut Ctx {
        core: &mut *core,
        actions: &mut *actions,
        now,
    };
    match &ev {
        Event::Tick(i) => each_hook(stack, prof, ctx, |b, c| b.on_tick(c, *i as usize)),
        Event::Demand(i) => each_hook(stack, prof, ctx, |b, c| b.on_demand(c, *i as usize)),
        Event::Halo(i) => each_hook(stack, prof, ctx, |b, c| b.on_halo(c, *i as usize)),
        &Event::Serve {
            provider,
            to,
            chunk,
            deferred,
        } => {
            if deferred || !serve_preamble(ctx, provider, to, chunk) {
                each_hook(stack, prof, ctx, |b, c| b.on_serve(c, provider, to, chunk));
            }
        }
        Event::ChunkRx {
            to,
            from,
            chunk,
            train,
        } => prof.transfer.time(|| {
            if let Some(ti) = ctx.core.probe_index(*to) {
                ctx.core
                    .receive_chunk_train(ctx.actions, ti, *from, *chunk, train);
            }
        }),
        Event::SignalRx { to, from, size } => prof.transfer.time(|| {
            if let Some(ti) = ctx.core.probe_index(*to) {
                ctx.core.receive_signal(now, *from, ti, *size);
            }
        }),
        &Event::Delivered {
            to,
            from,
            chunk,
            est_bps,
        } => each_hook(stack, prof, ctx, |b, c| {
            b.on_delivered(c, to, from, chunk, est_bps)
        }),
        Event::Depart(id) => each_hook(stack, prof, ctx, |b, c| b.on_depart(c, *id)),
        Event::Arrive(id) => each_hook(stack, prof, ctx, |b, c| b.on_arrive(c, *id)),
    }
    prof.drain
        .time(|| drain(core, stack, sched, actions, seq, now, lane));
    // The dispatcher owns the protocol clock: one tick reschedules the
    // next, inserted after the drained actions (the monolithic handler
    // pushed the chunk serves first, then the tick).
    if let Event::Tick(i) = ev {
        sched.push(
            now + core.cfg.profile.tick_us,
            lane,
            seq.next(lane),
            Event::Tick(i),
        );
    }
}

/// Receiver-side preamble of a chunk request arriving at a *probe*
/// provider: the provider's inbound link fate and the RX capture of the
/// request packet (the sender already ran its half in `signal_tx`).
/// Returns `true` when the serve must NOT proceed now — the request was
/// dropped, or it was delayed and re-scheduled as a deferred serve.
fn serve_preamble(
    ctx: &mut Ctx<'_, '_>,
    provider: PeerId,
    to: PeerId,
    chunk: crate::chunk::ChunkId,
) -> bool {
    let now = ctx.now();
    let core = &mut *ctx.core;
    let Some(pi) = core.probe_index(provider) else {
        return false; // external/source providers have no modelled inbound link
    };
    match core.link_fate(pi, now.as_us()) {
        PacketFate::Dropped => true, // request eaten at the provider's access link
        PacketFate::Pass { extra_delay_us } => {
            let at = now + extra_delay_us;
            let size = crate::message::Signal::ChunkRequest(chunk).wire_size();
            let ttl = core.ttl_to(to, provider);
            core.capture(pi, at, to, provider, size, ttl, PayloadKind::Signaling);
            if extra_delay_us == 0 {
                false
            } else {
                // Fault-delayed: the provider sees the request late.
                ctx.schedule(
                    at,
                    Event::Serve {
                        provider,
                        to,
                        chunk,
                        deferred: true,
                    },
                );
                true
            }
        }
    }
}

/// Drains the action queue FIFO. `Schedule` actions become keyed
/// scheduler insertions in emission order; `Discover` actions re-enter
/// the discovery behaviour (which may emit further actions — the loop runs until the
/// queue is dry).
#[allow(clippy::too_many_arguments)]
fn drain(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    sched: &mut Scheduler<Event>,
    actions: &mut Actions,
    seq: &mut LaneSeqs,
    now: SimTime,
    lane: u32,
) {
    while let Some(action) = actions.queue.pop_front() {
        match action {
            BehaviourAction::Schedule { at, ev } => {
                let oseq = seq.next(lane);
                sched.push(at, lane, oseq, ev);
            }
            BehaviourAction::Discover { probe } => {
                // Dead-peer replacement during churn handling: tag the
                // probe's own lane, like its requeue event.
                core.tag_probe_sub(probe, now);
                let mut ctx = Ctx {
                    core: &mut *core,
                    actions: &mut *actions,
                    now,
                };
                stack.discovery.try_discover(&mut ctx, probe, now.as_us());
            }
        }
    }
}
