//! The benchmark's own spans, recorded around each call into a layer.
//!
//! A span has a name, start, end, parent and op id; each end point also
//! carries the process CPU clock and the allocation counter, so a
//! span's CPU and allocation deltas are measured where the work
//! happens. Spans are kept in memory and written out once, when the run
//! ends. A span's *self* time is its duration minus the durations of
//! its child spans (children never overlap: they run in sequence on the
//! one client thread).

use crate::sys;
use netaware_obs::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root span of one op; its self time is the benchmark's unattributed
/// time.
pub const OP: &str = "bench.op";

/// The layers, named by crate, whose self times make up an op. Any
/// span not listed here (the op root, `proto.run_into`) is a container:
/// its self time is unattributed.
pub const LAYERS: [&str; 7] = [
    "testbed.build",
    "proto.new",
    "proto.run",
    "trace.finalize",
    "trace.sink",
    "analysis",
    "testbed.matrix",
];

/// One end point of a span.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    at: Instant,
    cpu_ns: u64,
    allocs: u64,
}

impl Mark {
    /// Reads the wall clock, the process CPU clock and the allocation
    /// counter.
    pub fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_ns: sys::process_cpu_ns(),
            allocs: alloc::snapshot().allocs,
        }
    }
}

/// A closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or container name.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    start: Mark,
    end: Mark,
}

impl Span {
    /// Wall duration, ns.
    pub fn wall_ns(&self) -> u64 {
        self.end
            .at
            .saturating_duration_since(self.start.at)
            .as_nanos() as u64
    }

    /// Process CPU (all threads) over the span, ns.
    pub fn cpu_ns(&self) -> u64 {
        self.end.cpu_ns.saturating_sub(self.start.cpu_ns)
    }

    /// Allocations made (by any thread) over the span.
    pub fn allocs(&self) -> u64 {
        self.end.allocs.saturating_sub(self.start.allocs)
    }
}

/// In-memory span log. A disabled recorder records nothing and reads no
/// clock.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Recorder {
            on: true,
            ..Recorder::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts op `op`: the spans that follow carry its id. Spans a
    /// failed earlier op left open stay unclosed.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
        self.stack.clear();
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = Mark::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = Mark::now();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = end;
    }

    /// Records an already-closed span `[start, end]` inside the
    /// innermost open span.
    pub fn interval(&mut self, name: &'static str, start: Mark, end: Mark) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start,
            end,
        });
    }

    /// Every span recorded so far, in start order of their slots.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals over every recorded op.
    pub fn totals(&self) -> Totals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.wall_ns();
            }
        }
        let mut t = Totals::default();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            if s.name == OP {
                t.ops += 1;
                t.op_wall_ns += s.wall_ns();
            }
            if LAYERS.contains(&s.name) {
                let l = t.layers.entry(s.name).or_default();
                l.self_ns += s.wall_ns().saturating_sub(*child);
                l.wall_ns += s.wall_ns();
                l.cpu_ns += s.cpu_ns();
                l.allocs += s.allocs();
                l.calls += 1;
            }
        }
        t
    }

    /// The span log as JSON: one object per span, times in ns from the
    /// recorder's creation.
    pub fn to_json(&self, header: &str) -> String {
        let ns = |m: &Mark| m.at.saturating_duration_since(self.epoch).as_nanos();
        let mut out = format!("{{\"meta\":{header},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"allocs\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                ns(&s.start),
                ns(&s.end),
                s.cpu_ns(),
                s.allocs(),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Sums over every span of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Self time, ns.
    pub self_ns: u64,
    /// Inclusive wall time, ns.
    pub wall_ns: u64,
    /// Inclusive process CPU, ns.
    pub cpu_ns: u64,
    /// Inclusive allocations.
    pub allocs: u64,
}

/// Per-layer totals of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Ops recorded.
    pub ops: u64,
    /// Sum of op walls, ns.
    pub op_wall_ns: u64,
    /// Layer name → totals (layers never called are absent).
    pub layers: BTreeMap<&'static str, LayerTotal>,
}

impl Totals {
    /// One layer's totals (zero when it was never called).
    pub fn layer(&self, name: &str) -> LayerTotal {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Op wall not covered by any layer's self time, ns.
    pub fn unattributed_ns(&self) -> u64 {
        let attributed: u64 = self.layers.values().map(|l| l.self_ns).sum();
        self.op_wall_ns.saturating_sub(attributed)
    }

    /// Text table: each layer's self time per op and its share of op
    /// wall, then the unattributed rest.
    pub fn summary(&self, workload: &str) -> String {
        let ops = self.ops.max(1) as f64;
        let wall = self.op_wall_ns.max(1) as f64;
        let mut out = format!(
            "layer self time, {workload}: {} traced ops, mean op wall {:.3} ms\n",
            self.ops,
            self.op_wall_ns as f64 / ops / 1e6
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>7} {:>12} {:>8}",
            "layer", "calls", "ms/op", "share"
        );
        let row = |out: &mut String, name: &str, calls: u64, ns: u64| {
            let _ = writeln!(
                out,
                "  {:<18} {:>7} {:>12.3} {:>7.1}%",
                name,
                calls,
                ns as f64 / ops / 1e6,
                100.0 * ns as f64 / wall
            );
        };
        for name in LAYERS {
            if let Some(l) = self.layers.get(name) {
                row(&mut out, name, l.calls, l.self_ns);
            }
        }
        row(
            &mut out,
            "bench.unattributed",
            self.ops,
            self.unattributed_ns(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_plus_unattributed_add_up_to_op_wall() {
        let mut rec = Recorder::on();
        for op in 0..3 {
            rec.set_op(op);
            let root = rec.begin(OP);
            let build = rec.begin("testbed.build");
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.end(build);
            let outer = rec.begin("proto.run_into");
            let a = Mark::now();
            std::thread::sleep(std::time::Duration::from_millis(1));
            let b = Mark::now();
            rec.interval("proto.run", a, b);
            rec.interval("trace.sink", b, Mark::now());
            rec.end(outer);
            rec.end(root);
        }
        let t = rec.totals();
        assert_eq!(t.ops, 3);
        assert_eq!(t.layer("testbed.build").calls, 3);
        assert_eq!(t.layer("analysis").calls, 0);
        let sum: u64 = t.layers.values().map(|l| l.self_ns).sum::<u64>() + t.unattributed_ns();
        assert_eq!(sum, t.op_wall_ns);
        assert!(t.layer("testbed.build").self_ns >= 6_000_000);
        // Every span but the roots has a parent inside the same op.
        for s in rec.spans() {
            match s.parent {
                Some(p) => assert_eq!(rec.spans()[p].op, s.op),
                None => assert_eq!(s.name, OP),
            }
        }
        assert!(rec.to_json("{}").contains("\"name\":\"proto.run\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let id = rec.begin(OP);
        rec.interval("proto.run", Mark::now(), Mark::now());
        rec.end(id);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.totals().ops, 0);
    }
}
