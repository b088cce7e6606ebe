//! A [`RecordSink`] wrapper that timestamps every `sink_probe` call.
//!
//! `Swarm::run_into` first runs the event loop, then finalizes (sorts)
//! and sinks one probe capture at a time, then calls `finish`. From the
//! outside that splits into:
//! * `proto.run` — from the call into `run_into` to the first
//!   `sink_probe` (the event loop plus the first probe's sort);
//! * `trace.finalize` — each gap between one `sink_probe` returning and
//!   the next being called (the next probe's sort);
//! * `trace.sink` — time inside the wrapped sink's `sink_probe` and
//!   `finish`.

use crate::spans::{Mark, Recorder};
use netaware_trace::{ProbeTrace, RecordSink, TraceError};

/// Wraps `inner`, recording spans into `rec` and counting the records
/// it passes on.
pub struct TimedSink<'r, S> {
    inner: S,
    rec: &'r mut Recorder,
    last: Mark,
    first: bool,
    records: u64,
}

impl<'r, S: RecordSink> TimedSink<'r, S> {
    /// Wraps `inner`; call immediately before handing it to `run_into`,
    /// which marks the start of `proto.run`.
    pub fn new(inner: S, rec: &'r mut Recorder) -> Self {
        TimedSink {
            inner,
            rec,
            last: Mark::now(),
            first: true,
            records: 0,
        }
    }

    fn close_gap(&mut self, entry: Mark) {
        let name = if self.first {
            "proto.run"
        } else {
            "trace.finalize"
        };
        self.rec.interval(name, self.last, entry);
        self.first = false;
    }
}

impl<S: RecordSink> RecordSink for TimedSink<'_, S> {
    /// The inner sink's output and the number of records sunk.
    type Output = (S::Output, u64);

    fn sink_probe(&mut self, trace: ProbeTrace) -> Result<(), TraceError> {
        let entry = Mark::now();
        self.close_gap(entry);
        self.records += trace.len() as u64;
        let res = self.inner.sink_probe(trace);
        let exit = Mark::now();
        self.rec.interval("trace.sink", entry, exit);
        self.last = exit;
        res
    }

    fn finish(mut self, app: &str, duration_us: u64) -> Result<Self::Output, TraceError> {
        let entry = Mark::now();
        if self.first {
            // No probe at all: the whole run was the event loop.
            self.close_gap(entry);
        }
        let res = self.inner.finish(app, duration_us);
        self.rec.interval("trace.sink", entry, Mark::now());
        Ok((res?, self.records))
    }
}
