//! Outside-in benchmark of the netaware pipeline.
//!
//! ```text
//! netaware-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    [--out DIR] [--rustc VERSION] [--commit ID] [--source-digest HEX]
//! ```
//!
//! One closed-loop client on the main thread runs one op at a time for
//! `S` seconds after set-up, taking a host-speed reading (`speed`)
//! before each op. With `--trace 0` it prints the end-to-end metrics,
//! every time rescaled to the reference host; with `--trace 1` it
//! alternates untraced and traced runs of the same op, prints the
//! per-layer metrics from the traced ones, and writes the traced spans
//! to `DIR/spans-NAME.json`. The last line of stdout is the result
//! object.

mod sink;
mod spans;
mod speed;
mod stats;
mod sys;
mod workloads;

use spans::{Recorder, Totals};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Bench, Checker, OpOut, Output, Workload};

#[global_allocator]
static ALLOC: netaware_obs::alloc::CountingAlloc = netaware_obs::alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Host-speed readings taken between set-ups.
const SETUP_READINGS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    rustc: String,
    commit: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let mut take = |k: &str| kv.remove(k);
    let need = |v: Option<String>, k: &str| v.ok_or(format!("missing --{k}"));
    let num = |v: String, k: &str| v.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let workload = need(take("workload"), "workload")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: num(need(take("seed"), "seed")?, "seed")?,
        seconds: num(need(take("seconds"), "seconds")?, "seconds")?,
        trace: match need(take("trace"), "trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
        out: PathBuf::from(take("out").unwrap_or_else(|| ".bench_build/perfbench".into())),
        rustc: take("rustc").unwrap_or_else(|| "unknown".into()),
        commit: take("commit").unwrap_or_else(|| "unknown".into()),
        source_digest: take("source-digest").unwrap_or_else(|| "unknown".into()),
    };
    match kv.keys().next() {
        Some(k) => Err(format!("unknown flag --{k}")),
        None => Ok(args),
    }
}

/// Per-op samples of one kind of op (untraced or traced).
#[derive(Clone, Default)]
struct Samples {
    /// Index of each op's host-speed reading.
    reading: Vec<usize>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    sim_s: f64,
    records: u64,
}

impl Samples {
    fn add(&mut self, reading: usize, wall: Duration, cpu_ns: u64, out: &OpOut) {
        self.reading.push(reading);
        self.wall_s.push(wall.as_secs_f64());
        self.cpu_s.push(cpu_ns as f64 / 1e9);
        self.sim_s += out.sim_s;
        self.records += out.records;
    }

    /// The same samples with each op's wall and CPU time rescaled to the
    /// reference host by the factor of its reading.
    fn rescaled(&self, factors: &[f64]) -> Samples {
        let scale = |v: &[f64]| -> Vec<f64> {
            v.iter()
                .zip(&self.reading)
                .map(|(t, &r)| t * factors[r])
                .collect()
        };
        Samples {
            wall_s: scale(&self.wall_s),
            cpu_s: scale(&self.cpu_s),
            ..self.clone()
        }
    }

    fn total_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// The end-to-end metrics these samples give, `setup_s` and the peak
    /// resident set aside.
    fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
        let wall = self.total_wall_s();
        let n = self.wall_s.len() as f64;
        vec![
            ("setup_s", setup_s, "s"),
            ("op_s.p50", self.p(50.0), "s"),
            ("op_s.p90", self.p(90.0), "s"),
            ("sim_s_per_wall_s", self.sim_s / wall, "s/s"),
            ("records_per_s", self.records as f64 / wall, "1/s"),
            ("cpu_s_per_op", self.cpu_s.iter().sum::<f64>() / n, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    }

    fn p(&self, pct: f64) -> f64 {
        let mut v = self.wall_s.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, pct)
    }
}

/// Counts a traced op contributes to the per-layer metrics.
#[derive(Clone, Copy, Default)]
struct Counts {
    events: u64,
    delivered: u64,
    lost: u64,
    departed: u64,
    arrived: u64,
    dropped: u64,
    requeued: u64,
    sunk: u64,
    bytes_written: u64,
    records: u64,
    cells: u64,
}

impl Counts {
    fn of(out: &OpOut) -> Counts {
        let mut c = Counts {
            records: out.records,
            bytes_written: out.bytes_written,
            ..Counts::default()
        };
        match &out.output {
            Output::Experiment { report, sunk, .. } => {
                c.events = report.events_dispatched;
                c.delivered = report.chunks_delivered;
                c.lost = report.chunks_lost;
                c.departed = report.peers_departed;
                c.arrived = report.peers_arrived;
                c.dropped = report.packets_dropped;
                c.requeued = report.requests_requeued;
                c.sunk = *sunk;
            }
            Output::Reanalysis(_) => {}
            Output::Matrix(r) => c.cells = r.cells.len() as u64,
        }
        c
    }

    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.delivered += o.delivered;
        self.lost += o.lost;
        self.departed += o.departed;
        self.arrived += o.arrived;
        self.dropped += o.dropped;
        self.requeued += o.requeued;
        self.sunk += o.sunk;
        self.bytes_written += o.bytes_written;
        self.records += o.records;
        self.cells += o.cells;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Minimal JSON string escaping for the stamp values.
fn js(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                js(name),
                js(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-layer metrics of a traced run. Times are means per traced op;
/// counts are means over the distinct inputs seen (`distinct`, first
/// sighting of each), so they repeat exactly for a seed; per-record and
/// per-event costs divide by what every traced op processed (`all`).
fn layer_metrics(
    totals: &Totals,
    all: &Counts,
    distinct: &BTreeMap<String, Counts>,
    trace_overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_op = |ns: u64| ns as f64 / 1e9 / totals.ops.max(1) as f64;
    let keys = distinct.len().max(1) as f64;
    let mut d = Counts::default();
    distinct.values().for_each(|c| d.add(c));
    // In `LAYERS` order.
    let [build, new, run, finalize, sink, an, mx] = spans::LAYERS.map(|l| totals.layer(l));
    // Records reach the analysis layer from outside only where the op
    // calls it; `run_matrix` analyses its cells internally.
    let (analysed, analysed_all) = if an.calls > 0 {
        (d.records as f64 / keys, all.records as f64)
    } else {
        (0.0, 0.0)
    };
    vec![
        ("testbed.build.self_s", per_op(build.self_ns), "s"),
        ("proto.new.self_s", per_op(new.self_ns), "s"),
        ("proto.run.self_s", per_op(run.self_ns), "s"),
        ("proto.run.events", d.events as f64 / keys, "count"),
        (
            "proto.run.ns_per_event",
            ratio(run.self_ns as f64, all.events as f64),
            "ns",
        ),
        (
            "proto.run.allocs_per_event",
            ratio(run.allocs as f64, all.events as f64),
            "count",
        ),
        (
            "proto.run.cpu_per_wall",
            ratio(run.cpu_ns as f64, run.wall_ns as f64),
            "ratio",
        ),
        (
            "proto.run.delivery_ratio",
            ratio(d.delivered as f64, (d.delivered + d.lost) as f64),
            "ratio",
        ),
        ("faults.peers_departed", d.departed as f64 / keys, "count"),
        ("faults.peers_arrived", d.arrived as f64 / keys, "count"),
        ("faults.packets_dropped", d.dropped as f64 / keys, "count"),
        (
            "faults.requests_requeued",
            d.requeued as f64 / keys,
            "count",
        ),
        ("trace.finalize.self_s", per_op(finalize.self_ns), "s"),
        ("trace.sink.self_s", per_op(sink.self_ns), "s"),
        ("trace.sink.records", d.sunk as f64 / keys, "count"),
        (
            "trace.sink.ns_per_record",
            ratio(sink.self_ns as f64, all.sunk as f64),
            "ns",
        ),
        (
            "trace.sink.bytes_written",
            d.bytes_written as f64 / keys,
            "B",
        ),
        ("analysis.self_s", per_op(an.self_ns), "s"),
        ("analysis.records", analysed, "count"),
        (
            "analysis.ns_per_record",
            ratio(an.self_ns as f64, analysed_all),
            "ns",
        ),
        (
            "analysis.cpu_per_wall",
            ratio(an.cpu_ns as f64, an.wall_ns as f64),
            "ratio",
        ),
        (
            "analysis.allocs_per_record",
            ratio(an.allocs as f64, analysed_all),
            "count",
        ),
        ("testbed.matrix.self_s", per_op(mx.self_ns), "s"),
        ("testbed.matrix.cells", d.cells as f64 / keys, "count"),
        (
            "testbed.matrix.cpu_per_wall",
            ratio(mx.cpu_ns as f64, mx.wall_ns as f64),
            "ratio",
        ),
        ("bench.op_wall_s", per_op(totals.op_wall_ns), "s"),
        (
            "bench.unattributed_s",
            per_op(totals.unattributed_ns()),
            "s",
        ),
        ("bench.trace_overhead", trace_overhead, "ratio"),
    ]
}

fn main() {
    if let Err(e) = run() {
        eprintln!("netaware-perfbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let name = args.workload.name();
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let scratch = args.out.join(format!("scratch-{name}"));

    // Set-up, several times: the last one is kept, the median reported,
    // each rescaled by the host-speed readings taken just before and
    // just after it.
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut set_up = None;
    let mut before = speed::readings(SETUP_READINGS);
    for _ in 0..SETUPS {
        drop(set_up.take());
        let mut checker = Checker::default();
        let t = Instant::now();
        let bench = Bench::setup(args.workload, args.seed, &scratch, &mut checker)?;
        let wall = t.elapsed().as_secs_f64();
        let after = speed::readings(SETUP_READINGS);
        let around = [before, after.clone()].concat();
        setup_raw_s.push(wall);
        setup_s.push(wall * speed::NOMINAL_S / median(&around));
        before = after;
        set_up = Some((bench, checker));
    }
    let (bench, mut checker) = set_up.ok_or("no set-up ran")?;

    // Timed closed loop. With tracing, op i/2 runs untraced (even i)
    // then traced (odd i), so both sides see the same op mix.
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut readings = Vec::new();
    let mut rec_off = Recorder::off();
    let mut rec_on = Recorder::on();
    let mut counts = Counts::default();
    let mut distinct: BTreeMap<String, Counts> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    sys::release_free_heap();
    sys::reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget {
        let tracing = args.trace && i % 2 == 1;
        let op = if args.trace { i / 2 } else { i };
        i += 1;
        let rec = if tracing { &mut rec_on } else { &mut rec_off };
        let reading = readings.len();
        readings.push(speed::reading());
        let cpu0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| bench.op(op, rec)));
        let wall = t0.elapsed();
        let cpu = sys::process_cpu_ns().saturating_sub(cpu0);
        attempted += 1;
        let out = match res {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => {
                eprintln!("op {op} failed: {e}");
                failed += 1;
                continue;
            }
            Err(_) => {
                eprintln!("op {op} panicked");
                failed += 1;
                continue;
            }
        };
        if let Err(e) = checker.check(&bench, &out) {
            eprintln!("op {op} output check failed: {e}");
            failed += 1;
            continue;
        }
        if tracing {
            traced.add(reading, wall, cpu, &out);
            let c = Counts::of(&out);
            counts.add(&c);
            distinct.entry(out.key.clone()).or_insert(c);
        } else {
            plain.add(reading, wall, cpu, &out);
        }
    }
    let peak_rss_kib = sys::peak_rss_kib().map_err(|e| format!("reading peak RSS: {e}"))?;
    if plain.wall_s.is_empty() || (args.trace && traced.wall_s.is_empty()) {
        return Err(format!(
            "no op succeeded ({attempted} attempted, {failed} failed)"
        ));
    }
    let factors = speed::factors(&readings);
    let peak_rss_mb = peak_rss_kib as f64 / 1024.0;
    let unadjusted = metrics_json(&plain.end_to_end(median(&setup_raw_s), peak_rss_mb));
    let (plain, traced) = (plain.rescaled(&factors), traced.rescaled(&factors));

    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"setup_runs\": {}, \"distinct_inputs\": {}, \"ops_untraced\": {}, \"ops_traced\": {}, \"percentile_samples\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"error_rate\": {:?}, \"reference_nominal_s\": {:?}, \"reference_s\": {:?}, \"unadjusted\": {unadjusted}}}",
        js(name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        js(&args.rustc),
        js(&args.commit),
        js(&args.source_digest),
        SETUPS,
        bench.inputs(),
        plain.wall_s.len(),
        traced.wall_s.len(),
        plain.wall_s.len(),
        failed as f64 / attempted as f64,
        speed::NOMINAL_S,
        median(&readings),
    );

    let metrics = if args.trace {
        let totals = rec_on.totals();
        let summary = totals.summary(name);
        print!("{summary}");
        let spans_path = args.out.join(format!("spans-{name}.json"));
        std::fs::write(&spans_path, rec_on.to_json(&meta))
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        println!("spans written to {}", spans_path.display());
        let overhead = traced.p(50.0) / plain.p(50.0) - 1.0;
        metrics_json(&layer_metrics(&totals, &counts, &distinct, overhead))
    } else {
        metrics_json(&plain.end_to_end(median(&setup_s), peak_rss_mb))
    };
    drop(bench);
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{meta}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    Ok(())
}
