//! Smoke tests of the `netaware-cli` binary (built by cargo and located
//! via `CARGO_BIN_EXE_netaware-cli`).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netaware-cli"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = cli().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn testbed_prints_table1() {
    let out = cli().arg("testbed").output().expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("TABLE I"));
    assert!(s.contains("PoliTO"));
    assert!(s.contains("DSL 22/1.8"));
}

#[test]
fn run_produces_tables_and_json() {
    let json = std::env::temp_dir().join("netaware_cli_test.json");
    let out = cli()
        .args([
            "run",
            "tvants",
            "--scale",
            "0.02",
            "--secs",
            "30",
            "--seed",
            "9",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("TABLE IV"));
    assert!(s.contains("friendliness:"));
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let first = &parsed.as_seq().expect("top-level array")[0];
    let app = serde_json::value::field(first.as_map().expect("object"), "app");
    assert_eq!(app.as_str(), Some("TVAnts"));
    let _ = std::fs::remove_file(&json);
}

#[test]
fn run_rejects_unknown_app() {
    let out = cli().args(["run", "napster"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown app"));
}

#[test]
fn run_obs_log_and_metrics_roundtrip() {
    let log = std::env::temp_dir().join("netaware_cli_obs.jsonl");
    let metrics = std::env::temp_dir().join("netaware_cli_metrics.json");
    let out = cli()
        .args(["run", "tvants", "--scale", "0.02", "--secs", "20", "--obs-log"])
        .arg(&log)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("event log written"));
    assert!(err.contains("metrics snapshot written"));

    // The event log is JSONL naming every instrumented layer.
    let body = std::fs::read_to_string(&log).unwrap();
    for target in ["swarm.", "stream.", "pass."] {
        assert!(
            body.contains(&format!("\"target\":\"{target}")),
            "no {target}* events in --obs-log output"
        );
    }

    // The metrics snapshot carries protocol and analysis counters.
    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let counters = serde_json::value::field(snap.as_map().expect("object"), "counters");
    let requested =
        serde_json::value::field(counters.as_map().expect("counters"), "proto.chunks_requested");
    assert!(requested.as_u64().is_some_and(|n| n > 0), "no chunks requested");

    // `obs summarize` renders the same log.
    let out = cli().arg("obs").arg("summarize").arg(&log).output().expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("top targets:"));
    assert!(s.contains("swarm.scheduling.chunk_sched"));
    assert!(s.contains("chunk-scheduler decisions:"));

    // A truncated log (mid-line cut) must fail loudly, not summarize
    // silently short.
    let cut = body.len() - 20;
    std::fs::write(&log, &body.as_bytes()[..cut]).unwrap();
    let out = cli().arg("obs").arg("summarize").arg(&log).output().expect("spawn");
    assert!(!out.status.success(), "truncated log summarized successfully");
    assert!(String::from_utf8_lossy(&out.stderr).contains("line"));

    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn obs_summarize_requires_file() {
    let out = cli().args(["obs", "summarize"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = cli()
        .args(["obs", "summarize", "/nonexistent/netaware.jsonl"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn export_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("netaware_cli_export");
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli()
        .args(["export", "--scale", "0.02", "--secs", "20", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Pick one exported pcap and re-analyze it.
    let pcap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pcap"))
        .expect("an exported pcap");
    let probe = pcap.file_stem().unwrap().to_string_lossy().to_string();
    let out = cli()
        .args(["analyze", "--probe", &probe])
        .arg(&pcap)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("TABLE IV"));
    assert!(s.contains("packets"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A per-process scratch directory under the system temp dir, emptied.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("netaware_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI with `args` and asserts success; returns (stdout, stderr).
fn run_ok(args: &[&str]) -> (String, String) {
    let out = cli().args(args).output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{err}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), err)
}

#[test]
fn analyze_dir_reproduces_run_spill() {
    // `analyze --dir` resolves every corpus against one fixed registry
    // build. The registry is the testbed's constant address plan, so
    // the re-analysis must equal the capturing run's byte for byte,
    // whatever seed and scale the run used.
    for (app, seed, scale) in [("pplive", "7", "0.05"), ("epidemic-rp", "11", "0.03")] {
        let dir = scratch(&format!("reanalyze_{app}"));
        let path = |f: &str| dir.join(f).to_str().unwrap().to_string();
        let (corpus, run_json) = (path("corpus"), path("run.json"));
        let analyze_json = path("analyze.json");
        let run = ["run", app, "--seed", seed, "--scale", scale, "--secs", "20"];
        run_ok(&[&run[..], &["--spill", &corpus, "--json", &run_json]].concat());
        run_ok(&["analyze", "--dir", &corpus, "--json", &analyze_json]);

        let run: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&run_json).unwrap()).unwrap();
        let first = &run.as_seq().expect("top-level array")[0];
        assert_eq!(
            serde_json::to_string_pretty(first).unwrap(),
            std::fs::read_to_string(&analyze_json).unwrap(),
            "{app}: analyze --dir diverged from run --spill"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn suite_spill_leaves_one_corpus_per_app() {
    let dir = scratch("suite_spill");
    let spill = dir.to_str().unwrap();
    let (out, _) = run_ok(&["suite", "--scale", "0.02", "--secs", "10", "--spill", spill]);
    for block in ["TABLE IV", "HOP DISTRIBUTIONS", "NETWORK FRIENDLINESS", "[truth] TVAnts"] {
        assert!(out.contains(block), "suite stdout lacks {block}");
    }
    for app in ["PPLive", "SopCast", "TVAnts"] {
        assert!(dir.join(app).join("manifest.json").is_file(), "no corpus for {app}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timing_lines_come_from_the_profile_only() {
    let dir = scratch("timing");
    let run = ["run", "tvants", "--scale", "0.02", "--secs", "10"];
    let prof = dir.join("prof.json");
    let (_, err) = run_ok(&[&run[..], &["--profile", prof.to_str().unwrap()]].concat());
    assert!(err.contains("timing: testbed.run "), "{err}");
    assert!(err.contains("timing: testbed.run/analysis.sweep "), "{err}");
    assert!(prof.is_file());

    let metrics = dir.join("metrics.json");
    let (_, err) = run_ok(&[&run[..], &["--metrics", metrics.to_str().unwrap()]].concat());
    assert!(!err.contains("timing:"), "--metrics alone printed timings: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
