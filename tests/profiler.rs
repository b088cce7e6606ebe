//! Integration tests for the performance-observability subsystem: the
//! determinism contract of `PerfReport` (byte-identical modulo the
//! declared wall-clock fields), RAII span closure under panics at the
//! full-stack level, and one dispatch-profile node per behaviour-stack
//! member.

use netaware::obs::profile::masked_diff;
use netaware::obs::{PerfMeta, PerfReport, ProfileNode};
use netaware::proto::{Behaviour, NetworkEnv, StreamParams, Swarm, SwarmConfig};
use netaware::testbed::{run_experiment, BuiltScenario, ExperimentOptions, ScenarioConfig};
use netaware::{AppProfile, FaultPlan, Obs};
use std::collections::BTreeMap;

fn profiled_run(seed: u64) -> PerfReport {
    let obs = Obs::profiled();
    let opts = ExperimentOptions {
        seed,
        scale: 0.02,
        duration_us: 10_000_000,
        obs: obs.clone(),
        faults: FaultPlan::none(),
        ..Default::default()
    };
    let _ = run_experiment(AppProfile::tvants(), &opts);
    let meta = PerfMeta {
        scenario: String::from("tvants_clean"),
        toolchain: String::from("rustc integration-test"),
        seed,
        scale_permille: 20,
        sim_secs: 10,
    };
    obs.perf_report(meta).expect("profiled handle")
}

#[test]
fn same_seed_reports_are_byte_identical_modulo_masked_fields() {
    let a = profiled_run(321);
    let b = profiled_run(321);
    // Wall time, allocation counts and throughput are host observations
    // and may differ; everything else — tree shape, call counts,
    // sim-time coverage, record/event/byte tallies, the full metrics
    // snapshot — must replay exactly.
    if let Err(e) = masked_diff(&a.to_json(), &b.to_json()) {
        panic!("same-seed perf reports diverge: {e}");
    }
    // The contract is not vacuous: the unmasked tree carries real
    // deterministic workload tallies.
    let tree = &a.profile;
    let events = tree.total(|n| n.events);
    let records = tree.total(|n| n.records);
    assert!(events > 0, "no events tallied");
    assert!(records > 0, "no records tallied");
    assert_eq!(events, b.profile.total(|n| n.events));
    assert_eq!(records, b.profile.total(|n| n.records));
    // And the full stack actually appears in the tree.
    for path in [
        "testbed.run",
        "testbed.run/swarm.run/swarm.dispatch",
        "testbed.run/swarm.run/swarm.dispatch/behaviour.scheduling",
        "testbed.run/analysis.sweep",
        "testbed.run/analysis.assemble",
        "testbed.run/trace.sink",
    ] {
        assert!(tree.find(path).is_some(), "span {path} missing from tree");
    }
}

#[test]
fn different_seed_reports_differ_even_masked() {
    let a = profiled_run(321);
    let b = profiled_run(654);
    assert!(
        masked_diff(&a.to_json(), &b.to_json()).is_err(),
        "different workloads must not mask to the same report"
    );
}

#[test]
fn panicking_scope_still_closes_the_whole_stack() {
    let obs = Obs::profiled();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let outer = obs.pspan("phase.outer");
        outer.add_events(1);
        let inner = obs.pspan("phase.inner");
        inner.add_events(1);
        panic!("mid-phase failure");
    }));
    assert!(caught.is_err());
    // Both guards unwound: the tree records one completed call each, at
    // the right nesting, and a fresh span opens at the root again.
    {
        let _after = obs.pspan("phase.after");
    }
    let tree = obs.profile_tree().expect("profiling");
    let outer = tree.find("phase.outer").expect("outer closed");
    assert_eq!(outer.calls, 1);
    assert_eq!(tree.find("phase.outer/phase.inner").expect("inner nested").calls, 1);
    assert_eq!(tree.find("phase.after").expect("root-level after panic").calls, 1);
}

/// A custom behaviour that only names itself.
struct Named;

impl Behaviour for Named {
    fn name(&self) -> &'static str {
        "named_spy"
    }
}

/// Runs `profile` (plus an optional custom behaviour) under a profiling
/// obs handle and returns the `swarm.dispatch` children as name → calls.
fn dispatch_children(
    profile: AppProfile,
    custom: Option<Box<dyn Behaviour>>,
) -> BTreeMap<String, u64> {
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 99,
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
        seed: 99,
        duration_us: 5_000_000,
        stream: StreamParams::cctv1(),
        profile,
    };
    let obs = Obs::profiled();
    let mut swarm = Swarm::new(cfg, env, scenario.peer_setup());
    swarm.set_obs(obs.clone());
    if let Some(b) = custom {
        swarm.push_behaviour(b);
    }
    let _ = swarm.run();
    let tree = obs.profile_tree().expect("profiling");
    fn find(n: &ProfileNode) -> Option<&ProfileNode> {
        if n.name == "swarm.dispatch" {
            return Some(n);
        }
        n.children.iter().find_map(find)
    }
    let dispatch = find(&tree).expect("no swarm.dispatch node");
    dispatch
        .children
        .iter()
        .map(|c| (c.name.clone(), c.calls))
        .collect()
}

const BUILTINS: [&str; 4] = [
    "behaviour.announce",
    "behaviour.churn_recovery",
    "behaviour.discovery",
    "behaviour.scheduling",
];

#[test]
fn dispatch_profile_has_one_node_per_stack_member() {
    let pull = dispatch_children(AppProfile::pplive(), None);
    let names: Vec<&str> = pull.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = BUILTINS.to_vec();
    want.extend(["drain", "transfer.rx"]);
    assert_eq!(names, want, "a pull profile has no epidemic node");
    let calls = pull["behaviour.discovery"];
    assert!(calls > 0, "no hook calls tallied");
    for b in BUILTINS {
        assert_eq!(pull[b], calls, "{b} ran a different number of times");
    }

    let push = dispatch_children(AppProfile::epidemic_rp(), None);
    assert_eq!(push.len(), pull.len() + 1);
    assert!(push["behaviour.discovery"] > 0);
    assert_eq!(push["behaviour.epidemic"], push["behaviour.discovery"]);

    let custom = dispatch_children(AppProfile::pplive(), Some(Box::new(Named)));
    assert_eq!(custom.len(), pull.len() + 1);
    assert_eq!(custom["behaviour.named_spy"], custom["behaviour.discovery"]);
}
