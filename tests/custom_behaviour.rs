//! A custom [`Behaviour`] composes against the *public* trait surface:
//! no dispatcher edit, no state-core edit, just `Swarm::push_behaviour`.
//!
//! Two properties are pinned:
//! 1. a pure observer (no RNG draws, no actions) leaves same-seed runs
//!    byte-identical to the plain built-in stack, and
//! 2. an acting behaviour (scheduling events through `Ctx`) genuinely
//!    steers the protocol — the run diverges.
//!
//! A behaviour that schedules into the past also shows the scheduler's
//! saturate-and-count path: the run completes and warns once.

use netaware::obs::{EventSink, FieldValue, Level, RingSink};
use netaware::proto::{
    Behaviour, ChunkId, Ctx, Event, NetworkEnv, PeerId, StreamParams, Swarm, SwarmConfig,
    SwarmReport,
};
use netaware::sim::SimTime;
use netaware::testbed::{BuiltScenario, ScenarioConfig};
use netaware::{AppProfile, Obs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pure observer: tallies deliveries, touches nothing else.
struct DeliveryLedger {
    delivered: Arc<AtomicU64>,
}

impl Behaviour for DeliveryLedger {
    fn on_delivered(
        &mut self,
        _ctx: &mut Ctx,
        _to: PeerId,
        _from: PeerId,
        _chunk: ChunkId,
        _est_bps: u64,
    ) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

/// Acting behaviour: injects one extra halo contact shortly after
/// start-up, spawning a second self-rescheduling halo process on
/// probe 0.
struct ExtraHalo;

impl Behaviour for ExtraHalo {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimTime::from_ms(500), Event::Halo(0));
    }
}

/// How many past-time pushes [`PastHalo`] makes.
const PAST_PUSHES: u64 = 3;

/// Acting behaviour that schedules into the past: on each of the first
/// [`PAST_PUSHES`] ticks after time zero it asks for a halo contact at
/// time zero.
struct PastHalo {
    pushes: Arc<AtomicU64>,
}

impl Behaviour for PastHalo {
    fn on_tick(&mut self, ctx: &mut Ctx, i: usize) {
        if ctx.now() > SimTime::ZERO && self.pushes.load(Ordering::Relaxed) < PAST_PUSHES {
            ctx.schedule(SimTime::ZERO, Event::Halo(i as u32));
            self.pushes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn run_with(
    behaviour: Option<Box<dyn Behaviour>>,
) -> (netaware::trace::TraceSet, SwarmReport) {
    run_observed(behaviour, Obs::default())
}

fn run_observed(
    behaviour: Option<Box<dyn Behaviour>>,
    obs: Obs,
) -> (netaware::trace::TraceSet, SwarmReport) {
    let profile = AppProfile::sopcast();
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 4242,
            scale: 0.02,
            ..Default::default()
        },
        profile.overlay_size,
    );
    let env = NetworkEnv {
        registry: &scenario.registry,
        paths: scenario.paths,
        latency: scenario.latency,
    };
    let cfg = SwarmConfig {
        seed: 4242,
        duration_us: 10_000_000,
        stream: StreamParams::cctv1(),
        profile,
    };
    let mut swarm = Swarm::new(cfg, env, scenario.peer_setup());
    swarm.set_obs(obs);
    if let Some(b) = behaviour {
        swarm.push_behaviour(b);
    }
    swarm.run()
}

#[test]
fn pure_observer_is_byte_invisible() {
    let delivered = Arc::new(AtomicU64::new(0));
    let (with_obs, ra) = run_with(Some(Box::new(DeliveryLedger {
        delivered: delivered.clone(),
    })));
    let (plain, rb) = run_with(None);

    assert!(delivered.load(Ordering::Relaxed) > 0, "observer hook never fired");
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        ra.chunks_delivered,
        "ledger disagrees with the ground-truth report"
    );
    assert_eq!(ra.chunks_delivered, rb.chunks_delivered);
    assert_eq!(with_obs.total_packets(), plain.total_packets());
    assert_eq!(with_obs.total_bytes(), plain.total_bytes());
    for (ta, tb) in with_obs.traces.iter().zip(&plain.traces) {
        assert_eq!(
            ta.records_unsorted(),
            tb.records_unsorted(),
            "observer behaviour perturbed probe {}",
            ta.probe
        );
    }
}

#[test]
fn acting_behaviour_steers_the_run() {
    let (modified, _) = run_with(Some(Box::new(ExtraHalo)));
    let (plain, _) = run_with(None);
    assert_ne!(
        modified.total_packets(),
        plain.total_packets(),
        "injected halo process left no trace"
    );
}

#[test]
fn past_pushes_saturate_and_warn_once() {
    let pushes = Arc::new(AtomicU64::new(0));
    let sink = Arc::new(RingSink::new(1 << 20));
    let obs = Obs::new(sink.clone() as Arc<dyn EventSink>);
    let (_, report) = run_observed(
        Some(Box::new(PastHalo {
            pushes: pushes.clone(),
        })),
        obs,
    );
    assert_eq!(pushes.load(Ordering::Relaxed), PAST_PUSHES);
    assert!(report.chunks_delivered > 0, "run did not complete");
    let warns: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter(|e| e.target == "swarm.schedule_saturated")
        .collect();
    assert_eq!(warns.len(), 1, "expected exactly one saturation warning");
    assert_eq!(warns[0].level, Level::Warn);
    assert_eq!(
        warns[0].fields,
        vec![("events", FieldValue::U64(PAST_PUSHES))]
    );
}
