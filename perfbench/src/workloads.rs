//! The four workloads: inputs derived from the workload seed, set-up,
//! one op, and the output checks that run after each op.
//!
//! Only the layers' plain public entry points are called:
//! `BuiltScenario::build`, `Swarm::new` + `set_faults`,
//! `Swarm::run_into`, `analyze` / `analyze_corpus` and `run_matrix`.

use crate::sink::TimedSink;
use crate::spans::{Recorder, OP};
use crate::stats::op_seed;
use netaware_analysis::scenario::{CellSummary, MatrixReport};
use netaware_analysis::{analyze, analyze_corpus, AnalysisConfig, ExperimentAnalysis};
use netaware_faults::{ChurnPlan, FaultPlan, LinkFaultPlan, SessionModel};
use netaware_proto::{AppProfile, NetworkEnv, StreamParams, Swarm, SwarmConfig, SwarmReport};
use netaware_testbed::{
    run_matrix, BuiltScenario, FaultSpec, MatrixConfig, ScenarioConfig, SessionSpec,
};
use netaware_trace::{CorpusSink, MemorySink, RecordSink, TraceError, TraceSet};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-memory experiment rotating the three paper apps.
    CleanPull,
    /// Faulted experiment spilled to disk and streamed back.
    ChurnSpill,
    /// Re-analysis of corpora captured during set-up.
    CorpusReanalysis,
    /// One in-memory scenario-matrix sweep.
    MatrixBatch,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::CleanPull,
        Workload::ChurnSpill,
        Workload::CorpusReanalysis,
        Workload::MatrixBatch,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CleanPull => "clean_pull",
            Workload::ChurnSpill => "churn_spill",
            Workload::CorpusReanalysis => "corpus_reanalysis",
            Workload::MatrixBatch => "matrix_batch",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size of one simulated experiment.
#[derive(Clone, Copy, Debug)]
struct Size {
    /// Population scale (1.0 = paper-size overlays).
    scale: f64,
    /// Simulated seconds.
    secs: u64,
}

impl Size {
    fn duration_us(self) -> u64 {
        self.secs * 1_000_000
    }
}

/// `clean_pull` experiments.
const PULL: Size = Size {
    scale: 0.05,
    secs: 30,
};
/// `churn_spill` experiments.
const CHURN: Size = Size {
    scale: 0.05,
    secs: 30,
};
/// `corpus_reanalysis` captures.
const CORPUS: Size = Size {
    scale: 0.3,
    secs: 120,
};
/// `matrix_batch` cells.
const MATRIX: Size = Size {
    scale: 0.02,
    secs: 12,
};

/// Passes over the app list in the `clean_pull` rotation. An input's op
/// cost depends on its seed (by up to ~20% under churn), so each run
/// spreads its ops over many seeds to keep runs with different workload
/// seeds comparable.
const PULL_CYCLES: usize = 16;
/// Passes over the app list in the `churn_spill` rotation.
const CHURN_CYCLES: usize = 12;

/// Capture seeds per app in `corpus_reanalysis`. A corpus's size
/// depends on its seed (PPLive: 2.9–3.5 M records), so each run analyses
/// corpora of more than one seed.
const CORPUS_SEEDS: u64 = 2;

/// Warm-up ops per set-up: one per app of a rotation, so `setup_s` does
/// not hang on the cost of a single input.
const WARM_UP_OPS: u64 = 3;

/// One experiment input: an app and a seed.
#[derive(Clone)]
struct Input {
    profile: AppProfile,
    seed: u64,
}

impl Input {
    fn key(&self) -> String {
        format!("{}/{}", self.profile.name, self.seed)
    }
}

/// The op inputs of an app rotation: `cycles` passes over `apps`, each
/// slot with its own derived seed, so consecutive ops change app.
fn rotation(workload_seed: u64, apps: &[AppProfile], cycles: usize) -> Vec<Input> {
    (0..apps.len() * cycles)
        .map(|j| Input {
            profile: apps[j % apps.len()].clone(),
            seed: op_seed(workload_seed, j as u64),
        })
        .collect()
}

/// The `churn_spill` app cycle. A PPLive op costs about four
/// Epidemic-RP ops, so a 1:1 mix would put the median on the boundary
/// between the two cost modes, where it flips with the parity of the op
/// count. One PPLive to two Epidemic-RP keeps the median inside the
/// Epidemic-RP mode and the p90 inside the PPLive one.
fn churn_apps() -> [AppProfile; 3] {
    [
        AppProfile::pplive(),
        AppProfile::epidemic_rp(),
        AppProfile::epidemic_rp(),
    ]
}

/// The fault plan of `churn_spill`: 5% loss, 2 ms jitter, preset churn
/// reshaped by the flash-crowd session model.
fn churn_faults() -> FaultPlan {
    FaultPlan {
        link: LinkFaultPlan {
            loss: 0.05,
            jitter_us: 2_000,
            ..LinkFaultPlan::default()
        },
        churn: Some(ChurnPlan::preset()),
        session: Some(SessionModel::flashcrowd_preset()),
    }
}

/// The `matrix_batch` config: PPLive and Epidemic-RP × baseline and
/// flash-crowd sessions on clean links — four cells of uneven cost.
fn matrix_config(workload_seed: u64, size: Size) -> MatrixConfig {
    MatrixConfig {
        seed: op_seed(workload_seed, 0),
        duration_us: size.duration_us(),
        profiles: vec!["pplive".into(), "epidemic-rp".into()],
        scales: vec![size.scale],
        sessions: vec![
            SessionSpec {
                name: "baseline".into(),
                churn: Some(ChurnPlan::preset()),
                model: None,
            },
            SessionSpec {
                name: "flashcrowd".into(),
                churn: Some(ChurnPlan::preset()),
                model: Some(SessionModel::flashcrowd_preset()),
            },
        ],
        faults: vec![FaultSpec {
            name: "clean".into(),
            link: LinkFaultPlan::default(),
        }],
    }
}

/// A corpus captured during set-up, with what its re-analysis needs.
struct Corpus {
    key: String,
    dir: PathBuf,
    scenario: BuiltScenario,
    duration_us: u64,
    records: u64,
    /// In-memory `analyze` JSON of the same capture.
    reference: String,
}

enum Plan {
    Pull(Vec<Input>),
    Churn(Vec<Input>),
    Corpus(Vec<Corpus>),
    Matrix {
        cfg: MatrixConfig,
        records: u64,
        /// The report rebuilt from the cells run one by one.
        reference: String,
    },
}

/// What one op produced, for the checks and the per-layer counts.
pub enum Output {
    /// A simulated experiment.
    Experiment {
        analysis: ExperimentAnalysis,
        report: SwarmReport,
        /// Records the sink received.
        sunk: u64,
    },
    /// A re-analysed corpus.
    Reanalysis(ExperimentAnalysis),
    /// A matrix sweep.
    Matrix(MatrixReport),
}

/// One op's result.
pub struct OpOut {
    /// Identity of the op's input; equal keys must give equal outputs.
    pub key: String,
    /// Simulated seconds completed (for re-analysis: capture seconds
    /// analysed).
    pub sim_s: f64,
    /// Trace records analysed.
    pub records: u64,
    /// Bytes the sink wrote to disk (traced ops only).
    pub bytes_written: u64,
    /// The outputs themselves.
    pub output: Output,
}

/// A workload, set up and ready to run ops.
pub struct Bench {
    scratch: PathBuf,
    plan: Plan,
}

fn trace_err(e: TraceError) -> String {
    format!("trace error: {e:?}")
}

fn build(rec: &mut Recorder, seed: u64, size: Size, profile: &AppProfile) -> BuiltScenario {
    let s = rec.begin("testbed.build");
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed,
            scale: size.scale,
            ..ScenarioConfig::default()
        },
        profile.overlay_size,
    );
    rec.end(s);
    scenario
}

fn new_swarm<'a>(
    rec: &mut Recorder,
    scenario: &'a BuiltScenario,
    input: &Input,
    size: Size,
    faults: &FaultPlan,
) -> Swarm<'a> {
    let s = rec.begin("proto.new");
    let mut swarm = Swarm::new(
        SwarmConfig {
            seed: input.seed,
            duration_us: size.duration_us(),
            stream: StreamParams::cctv1(),
            profile: input.profile.clone(),
        },
        NetworkEnv {
            registry: &scenario.registry,
            paths: scenario.paths,
            latency: scenario.latency,
        },
        scenario.peer_setup(),
    );
    swarm.set_faults(faults);
    rec.end(s);
    swarm
}

/// `run_into(sink)`; when tracing, through a [`TimedSink`] inside a
/// `proto.run_into` container span. Returns the sink output, the
/// report, and the records sunk as counted by the wrapper (untraced:
/// `None`).
fn capture<S: RecordSink>(
    rec: &mut Recorder,
    swarm: Swarm<'_>,
    sink: S,
) -> Result<(S::Output, SwarmReport, Option<u64>), TraceError> {
    if !rec.is_on() {
        let (out, report) = swarm.run_into(sink)?;
        return Ok((out, report, None));
    }
    let s = rec.begin("proto.run_into");
    let res = swarm.run_into(TimedSink::new(sink, rec));
    rec.end(s);
    let ((out, sunk), report) = res?;
    Ok((out, report, Some(sunk)))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Bench {
    /// Prepares `workload` for seed `seed` under the scratch directory
    /// `scratch` (emptied first), then runs and checks the warm-up ops:
    /// one pass over the first [`WARM_UP_OPS`] inputs.
    pub fn setup(
        workload: Workload,
        seed: u64,
        scratch: &Path,
        checker: &mut Checker,
    ) -> Result<Bench, String> {
        if scratch.exists() {
            std::fs::remove_dir_all(scratch).map_err(|e| format!("clearing scratch: {e}"))?;
        }
        std::fs::create_dir_all(scratch).map_err(|e| format!("creating scratch: {e}"))?;
        let plan = match workload {
            Workload::CleanPull => {
                Plan::Pull(rotation(seed, &AppProfile::paper_apps(), PULL_CYCLES))
            }
            Workload::ChurnSpill => Plan::Churn(rotation(seed, &churn_apps(), CHURN_CYCLES)),
            Workload::CorpusReanalysis => Plan::Corpus(capture_corpora(seed, CORPUS, scratch)?),
            Workload::MatrixBatch => matrix_plan(seed, MATRIX)?,
        };
        let bench = Bench {
            scratch: scratch.to_path_buf(),
            plan,
        };
        for i in 0..WARM_UP_OPS.min(bench.inputs() as u64) {
            let warm = bench.op(i, &mut Recorder::off())?;
            checker.check(&bench, &warm)?;
        }
        Ok(bench)
    }

    /// Distinct op inputs; op `i` runs input `i % inputs()`.
    pub fn inputs(&self) -> usize {
        match &self.plan {
            Plan::Pull(v) | Plan::Churn(v) => v.len(),
            Plan::Corpus(c) => c.len(),
            Plan::Matrix { .. } => 1,
        }
    }

    /// Runs op `i`, recording spans into `rec` when it is on.
    pub fn op(&self, i: u64, rec: &mut Recorder) -> Result<OpOut, String> {
        rec.set_op(i);
        let root = rec.begin(OP);
        let out = match &self.plan {
            Plan::Pull(inputs) => {
                let input = &inputs[i as usize % inputs.len()];
                self.pull_op(input, rec)
            }
            Plan::Churn(inputs) => {
                let input = &inputs[i as usize % inputs.len()];
                self.churn_op(input, i, rec)
            }
            Plan::Corpus(corpora) => reanalysis_op(&corpora[i as usize % corpora.len()], rec),
            Plan::Matrix { cfg, records, .. } => {
                let s = rec.begin("testbed.matrix");
                let report = run_matrix(cfg, 1, None);
                rec.end(s);
                report.map(|r| OpOut {
                    key: "matrix".into(),
                    sim_s: (r.cells.len() as u64 * cfg.duration_us) as f64 / 1e6,
                    records: *records,
                    bytes_written: 0,
                    output: Output::Matrix(r),
                })
            }
        };
        rec.end(root);
        out
    }

    fn pull_op(&self, input: &Input, rec: &mut Recorder) -> Result<OpOut, String> {
        let size = PULL;
        let scenario = build(rec, input.seed, size, &input.profile);
        let swarm = new_swarm(rec, &scenario, input, size, &FaultPlan::none());
        let (traces, report, sunk) = capture(rec, swarm, MemorySink::new()).map_err(trace_err)?;
        let s = rec.begin("analysis");
        let analysis = analyze(
            &traces,
            &scenario.registry,
            &AnalysisConfig::default(),
            &scenario.highbw_probe_ips,
        );
        rec.end(s);
        let sunk = sunk.unwrap_or(traces.total_packets() as u64);
        Ok(OpOut {
            key: input.key(),
            sim_s: size.secs as f64,
            records: analysis.total_packets as u64,
            bytes_written: 0,
            output: Output::Experiment {
                analysis,
                report,
                sunk,
            },
        })
    }

    fn churn_op(&self, input: &Input, i: u64, rec: &mut Recorder) -> Result<OpOut, String> {
        let size = CHURN;
        let dir = self.scratch.join(format!("op-{i}"));
        let scenario = build(rec, input.seed, size, &input.profile);
        let swarm = new_swarm(rec, &scenario, input, size, &churn_faults());
        let s = rec.begin("trace.sink");
        let sink = CorpusSink::create(&dir).map_err(trace_err);
        rec.end(s);
        let (manifest, report, sunk) = capture(rec, swarm, sink?).map_err(trace_err)?;
        let s = rec.begin("analysis");
        let analysis = analyze_corpus(
            &dir,
            &scenario.registry,
            &AnalysisConfig::default(),
            &scenario.highbw_probe_ips,
        );
        rec.end(s);
        let bytes_written = if rec.is_on() { dir_bytes(&dir) } else { 0 };
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        let analysis = analysis.map_err(trace_err)?;
        Ok(OpOut {
            key: input.key(),
            sim_s: size.secs as f64,
            records: analysis.total_packets as u64,
            bytes_written,
            output: Output::Experiment {
                analysis,
                report,
                sunk: sunk.unwrap_or(manifest.total_packets as u64),
            },
        })
    }
}

fn reanalysis_op(corpus: &Corpus, rec: &mut Recorder) -> Result<OpOut, String> {
    let s = rec.begin("analysis");
    let analysis = analyze_corpus(
        &corpus.dir,
        &corpus.scenario.registry,
        &AnalysisConfig::default(),
        &corpus.scenario.highbw_probe_ips,
    );
    rec.end(s);
    let analysis = analysis.map_err(trace_err)?;
    Ok(OpOut {
        key: corpus.key.clone(),
        sim_s: corpus.duration_us as f64 / 1e6,
        records: corpus.records,
        bytes_written: 0,
        output: Output::Reanalysis(analysis),
    })
}

/// Captures [`CORPUS_SEEDS`] corpora per paper app to
/// `scratch/<app>-<k>/`, plus the in-memory analysis of each capture as
/// read back from disk. Consecutive corpora change app.
fn capture_corpora(seed: u64, size: Size, scratch: &Path) -> Result<Vec<Corpus>, String> {
    let mut rec = Recorder::off();
    (0..CORPUS_SEEDS)
        .flat_map(|k| AppProfile::paper_apps().into_iter().map(move |p| (k, p)))
        .map(|(k, profile)| {
            let seed = op_seed(seed, k);
            let input = Input { profile, seed };
            let dir = scratch.join(format!("{}-{k}", input.profile.name.to_lowercase()));
            let scenario = build(&mut rec, seed, size, &input.profile);
            let swarm = new_swarm(&mut rec, &scenario, &input, size, &FaultPlan::none());
            let sink = CorpusSink::create(&dir).map_err(trace_err)?;
            let (manifest, _, _) = capture(&mut rec, swarm, sink).map_err(trace_err)?;
            let set = TraceSet::read_dir(&dir).map_err(trace_err)?;
            let reference = analyze(
                &set,
                &scenario.registry,
                &AnalysisConfig::default(),
                &scenario.highbw_probe_ips,
            )
            .to_json();
            Ok(Corpus {
                key: input.key(),
                dir,
                duration_us: manifest.duration_us,
                records: manifest.total_packets as u64,
                reference,
                scenario,
            })
        })
        .collect()
}

/// The matrix config, and its expected report rebuilt by running each
/// cell on its own (which also counts the records a sweep analyses).
fn matrix_plan(seed: u64, size: Size) -> Result<Plan, String> {
    let cfg = matrix_config(seed, size);
    let swept = run_matrix(&cfg, 1, None)?;
    let mut rec = Recorder::off();
    let mut records = 0;
    let mut cells = Vec::new();
    let mut labels = swept.cells.iter().map(|c| c.cell.clone());
    for pname in &cfg.profiles {
        let profile = AppProfile::by_name(pname).ok_or(format!("unknown profile {pname}"))?;
        for sess in &cfg.sessions {
            for fs in &cfg.faults {
                let input = Input {
                    profile: profile.clone(),
                    seed: cfg.seed,
                };
                let faults = FaultPlan {
                    link: fs.link,
                    churn: sess.churn.clone(),
                    session: sess.model.clone(),
                };
                let scenario = build(&mut rec, cfg.seed, size, &profile);
                let swarm = new_swarm(&mut rec, &scenario, &input, size, &faults);
                let (traces, report, _) =
                    capture(&mut rec, swarm, MemorySink::new()).map_err(trace_err)?;
                let analysis = analyze(
                    &traces,
                    &scenario.registry,
                    &AnalysisConfig::default(),
                    &scenario.highbw_probe_ips,
                );
                records += analysis.total_packets as u64;
                cells.push(CellSummary::from_analysis(
                    labels.next().ok_or("run_matrix returned too few cells")?,
                    profile.name.clone(),
                    size.scale,
                    sess.name.clone(),
                    fs.name.clone(),
                    &analysis,
                    (
                        report.continuity(),
                        report.chunks_delivered,
                        report.chunks_pushed,
                        report.peers_departed,
                        report.peers_arrived,
                    ),
                ));
            }
        }
    }
    let reference = MatrixReport {
        seed: cfg.seed,
        duration_us: cfg.duration_us,
        cells,
    }
    .to_json();
    Ok(Plan::Matrix {
        cfg,
        records,
        reference,
    })
}

/// Checks op outputs, outside the timed window:
/// * the records the sink received equal `analysis.total_packets`;
/// * an input that repeats gives a byte-identical analysis JSON and
///   `SwarmReport`;
/// * a re-analysis equals the in-memory analysis of the same capture;
/// * a matrix sweep equals its cells run one by one.
#[derive(Default)]
pub struct Checker {
    seen: BTreeMap<String, String>,
}

impl Checker {
    /// Checks one op of `bench`.
    pub fn check(&mut self, bench: &Bench, out: &OpOut) -> Result<(), String> {
        let canonical = match (&out.output, &bench.plan) {
            (
                Output::Experiment {
                    analysis,
                    report,
                    sunk,
                },
                _,
            ) => {
                if *sunk != analysis.total_packets as u64 || *sunk == 0 {
                    return Err(format!(
                        "{}: sink received {sunk} records, analysis saw {}",
                        out.key, analysis.total_packets
                    ));
                }
                let report = serde_json::to_string(report).map_err(|e| e.0)?;
                format!("{}\n{report}", analysis.to_json())
            }
            (Output::Reanalysis(analysis), Plan::Corpus(corpora)) => {
                let json = analysis.to_json();
                let corpus = corpora
                    .iter()
                    .find(|c| c.key == out.key)
                    .ok_or(format!("unknown corpus {}", out.key))?;
                if json != corpus.reference {
                    return Err(format!(
                        "{}: re-analysis differs from in-memory analysis",
                        out.key
                    ));
                }
                json
            }
            (Output::Matrix(report), Plan::Matrix { reference, .. }) => {
                let json = report.to_json();
                if &json != reference {
                    return Err("matrix report differs from its cells run one by one".into());
                }
                json
            }
            _ => return Err("op output does not match the workload".into()),
        };
        match self.seen.get(&out.key) {
            Some(first) if *first != canonical => Err(format!(
                "{}: output differs from an earlier op on the same input",
                out.key
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(out.key.clone(), canonical);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(out: &OpOut) -> String {
        match &out.output {
            Output::Experiment {
                analysis,
                report,
                sunk,
            } => format!(
                "{}\n{}\n{sunk}",
                analysis.to_json(),
                serde_json::to_string(report).unwrap()
            ),
            Output::Reanalysis(a) => a.to_json(),
            Output::Matrix(r) => r.to_json(),
        }
    }

    /// At the measured sizes, the first op of each app (or corpus, or
    /// the sweep) gives the same outputs with and without the wrapper.
    #[test]
    fn timing_wrapper_changes_no_output() {
        for w in Workload::ALL {
            let scratch = std::env::temp_dir().join(format!(
                "netaware_perfbench_test_{}_{}",
                w.name(),
                std::process::id()
            ));
            let mut checker = Checker::default();
            let bench = Bench::setup(w, 7, &scratch, &mut checker).unwrap();
            for i in 0..bench.inputs().min(3) as u64 {
                let plain = bench.op(i, &mut Recorder::off()).unwrap();
                let mut rec = Recorder::on();
                let timed = bench.op(i, &mut rec).unwrap();
                assert_eq!(canonical(&plain), canonical(&timed), "{} op {i}", w.name());
                checker.check(&bench, &plain).unwrap();
                checker.check(&bench, &timed).unwrap();
                let t = rec.totals();
                assert_eq!(t.ops, 1);
                let layers: u64 = t.layers.values().map(|l| l.self_ns).sum();
                assert_eq!(layers + t.unattributed_ns(), t.op_wall_ns);
            }
            std::fs::remove_dir_all(&scratch).unwrap();
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_workload_seed() {
        let keys = |seed| -> Vec<String> {
            rotation(seed, &AppProfile::paper_apps(), PULL_CYCLES)
                .iter()
                .map(Input::key)
                .collect()
        };
        assert_eq!(keys(5), keys(5));
        assert_ne!(keys(5), keys(6));
        assert_eq!(keys(5).len(), 3 * PULL_CYCLES);
        assert_eq!(matrix_config(5, MATRIX), matrix_config(5, MATRIX));
        assert_ne!(matrix_config(5, MATRIX).seed, matrix_config(6, MATRIX).seed);
    }

    #[test]
    fn checker_rejects_a_changed_repeat() {
        let scratch =
            std::env::temp_dir().join(format!("netaware_perfbench_check_{}", std::process::id()));
        let mut checker = Checker::default();
        let bench = Bench::setup(Workload::CleanPull, 3, &scratch, &mut checker).unwrap();
        let mut out = bench.op(0, &mut Recorder::off()).unwrap();
        checker.check(&bench, &out).unwrap();
        if let Output::Experiment { report, .. } = &mut out.output {
            report.events_dispatched += 1;
        }
        assert!(checker.check(&bench, &out).is_err());
        if let Output::Experiment { report, sunk, .. } = &mut out.output {
            report.events_dispatched -= 1;
            *sunk += 1;
        }
        assert!(checker.check(&bench, &out).is_err());
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
