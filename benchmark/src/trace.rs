//! Spans recorded by the benchmark around its calls into each layer.
//!
//! One [`Tracer`] per load-generating thread. Every timed op opens a
//! root `op` span; the calls it makes into the layers open child spans
//! under it, so the spans of one op share its number and each records
//! its parent. `build`, `run` and `publish` are not timed here: they are
//! laid out inside the `update` span from the `UpdateReport` the engine
//! returned. Spans stay in memory; [`Trace::chrome_json`] renders them when the
//! run ends. With tracing off every call returns at once and no clock is
//! read.

use crate::stats::Samples;
use qtask_core::UpdateReport;
use std::fmt::Write as _;
use std::time::Instant;

/// Span names. Layer boundaries, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sp {
    Op,
    Modify,
    Update,
    Build,
    Run,
    Publish,
    Query,
    ViewRead,
    Push,
    ClientEdit,
    PushWait,
    Read,
}

const NAMES: [&str; 12] = [
    "op",
    "modify",
    "update",
    "build",
    "run",
    "publish",
    "query",
    "view.read",
    "push",
    "client.edit",
    "push.wait",
    "read",
];

impl Sp {
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Sp,
    /// The recording thread, as numbered by the workload.
    pub tid: u32,
    /// Number of the op the span belongs to (per tracer).
    pub op: u64,
    /// Index of the span within its op; the root `op` span is 0.
    pub id: u32,
    /// `id` of the span that caused this one; `u32::MAX` for the root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of each span of one op: its duration minus the part of it
/// its direct children cover. Children never overlap (they come from one
/// thread's nested calls), so that part is the sum of their durations.
pub fn self_times(op_spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = op_spans.iter().map(Span::dur).collect();
    for s in op_spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    /// Spans of ops beyond this many are measured, then dropped, so the
    /// trace file stays readable on workloads with 10^5 ops.
    keep_ops: u64,
    op: u64,
    cur: Vec<Span>,
    stack: Vec<u32>,
    kept: Vec<Span>,
    durs: [Samples; NAMES.len()],
    self_sum_ns: [u64; NAMES.len()],
}

impl Tracer {
    /// Tracers of one run share `epoch` so their timestamps line up.
    pub fn new(on: bool, epoch: Instant, tid: u32, keep_ops: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            keep_ops,
            op: 0,
            cur: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            durs: Default::default(),
            self_sum_ns: [0; NAMES.len()],
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: Sp, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.cur.len() as u32;
        self.cur.push(Span {
            name,
            tid: self.tid,
            op: self.op,
            id,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens the root span of the next op at `t0`, the instant the op's
    /// latency is measured from.
    pub fn open_op(&mut self, t0: Instant) {
        if self.on {
            let ns = self.ns(t0);
            let id = self.push(Sp::Op, ns, ns);
            self.stack.push(id);
        }
    }

    /// Closes the op at `end`, the instant its latency is measured to,
    /// and accounts its spans.
    pub fn close_op(&mut self, end: Instant) {
        if !self.on {
            return;
        }
        self.cur[0].end_ns = self.ns(end);
        self.stack.clear();
        let own = self_times(&self.cur);
        for (s, own_ns) in self.cur.iter().zip(own) {
            self.durs[s.name as usize].push(s.dur() as f64);
            self.self_sum_ns[s.name as usize] += own_ns;
        }
        if self.op < self.keep_ops {
            self.kept.extend_from_slice(&self.cur);
        }
        self.cur.clear();
        self.op += 1;
    }

    pub fn begin(&mut self, name: Sp) {
        if self.on {
            let ns = self.ns(Instant::now());
            let id = self.push(name, ns, ns);
            self.stack.push(id);
        }
    }

    pub fn end(&mut self) {
        if self.on {
            let ns = self.ns(Instant::now());
            let id = self.stack.pop().expect("end() without begin()");
            self.cur[id as usize].end_ns = ns;
        }
    }

    /// Ends the open `update` span and lays `build`, `run` and `publish`
    /// out inside it, back to back from its start, with the durations
    /// the engine reported (`publish` is what the report's elapsed time
    /// leaves after the other two), clipped to the span.
    pub fn end_update(&mut self, report: &UpdateReport) {
        if !self.on {
            return;
        }
        self.end();
        let parent = *self.cur.last().expect("update span");
        debug_assert_eq!(parent.name, Sp::Update);
        let build = report.build_elapsed.as_nanos() as u64;
        let run = report.run_elapsed.as_nanos() as u64;
        let publish = (report.elapsed.as_nanos() as u64).saturating_sub(build + run);
        self.stack.push(parent.id);
        let mut at = parent.start_ns;
        for (name, dur) in [(Sp::Build, build), (Sp::Run, run), (Sp::Publish, publish)] {
            let end = (at + dur).min(parent.end_ns);
            self.push(name, at, end);
            at = end;
        }
        self.stack.pop();
    }

    /// Ends recording and hands over what was measured.
    pub fn finish(self) -> Trace {
        Trace {
            spans: self.kept,
            durs: self.durs,
            self_sum_ns: self.self_sum_ns,
        }
    }
}

/// What the tracers of one run measured, threads merged.
#[derive(Default)]
pub struct Trace {
    /// The kept spans: per thread in the order they were opened, which
    /// is parents before children.
    pub spans: Vec<Span>,
    durs: [Samples; NAMES.len()],
    self_sum_ns: [u64; NAMES.len()],
}

impl Trace {
    pub fn merge(tracers: impl IntoIterator<Item = Tracer>) -> Trace {
        let mut all = Trace::default();
        for t in tracers.into_iter().map(Tracer::finish) {
            all.spans.extend(t.spans);
            for i in 0..NAMES.len() {
                all.durs[i].extend(&t.durs[i]);
                all.self_sum_ns[i] += t.self_sum_ns[i];
            }
        }
        all
    }

    pub fn durations(&self, name: Sp) -> &Samples {
        &self.durs[name as usize]
    }

    /// Median duration of the spans named `name`, in nanoseconds.
    pub fn median_ns(&self, name: Sp) -> f64 {
        self.durs[name as usize].median()
    }

    /// `(name, spans, mean duration ns, mean self time ns)` of every
    /// span name that was recorded.
    pub fn self_time_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        (0..NAMES.len())
            .filter(|&i| self.durs[i].len() > 0)
            .map(|i| {
                let n = self.durs[i].len();
                (
                    NAMES[i],
                    n,
                    self.durs[i].mean(),
                    self.self_sum_ns[i] as f64 / n as f64,
                )
            })
            .collect()
    }

    /// Checks the kept spans op by op: every child lies inside its
    /// parent, and the self times of an op's spans add up to no more
    /// than the op. Returns the number of ops checked.
    pub fn check_nesting(&self) -> Result<usize, String> {
        let mut ops = 0;
        let mut rest = &self.spans[..];
        while let Some(root) = rest.first() {
            let len = rest
                .iter()
                .position(|s| (s.tid, s.op) != (root.tid, root.op))
                .unwrap_or(rest.len());
            let (op, tail) = rest.split_at(len);
            for s in op.iter().filter(|s| s.parent != ROOT) {
                let p = op
                    .get(s.parent as usize)
                    .ok_or(format!("op {}: span {} has no parent", s.op, s.id))?;
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.end_ns < s.start_ns {
                    return Err(format!("op {}: span {} leaves its parent", s.op, s.id));
                }
            }
            if self_times(op).iter().sum::<u64>() > root.dur() {
                return Err(format!("op {}: self times exceed the op", root.op));
            }
            ops += 1;
            rest = tail;
        }
        Ok(ops)
    }

    /// The kept spans as Chrome trace JSON (`B`/`E` pairs, microsecond
    /// timestamps, `args` carrying op, span id and parent id).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut open: Vec<&Span> = Vec::new();
        let mut first = true;
        let mut event = |out: &mut String, s: &Span, begin: bool| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            let (ph, ns) = if begin {
                ("B", s.start_ns)
            } else {
                ("E", s.end_ns)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}",
                s.name.name(),
                ns / 1000,
                ns % 1000,
                s.tid
            );
            if begin {
                let _ = write!(out, ",\"args\":{{\"op\":{},\"id\":{}", s.op, s.id);
                if s.parent != ROOT {
                    let _ = write!(out, ",\"parent\":{}", s.parent);
                }
                out.push('}');
            }
            out.push('}');
        };
        for s in &self.spans {
            // Close everything that is not an ancestor of `s`.
            while let Some(top) = open.last() {
                if top.tid == s.tid && top.op == s.op && top.id == s.parent {
                    break;
                }
                event(&mut out, top, false);
                open.pop();
            }
            event(&mut out, s, true);
            open.push(s);
        }
        while let Some(top) = open.pop() {
            event(&mut out, top, false);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: Sp, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tid: 1,
            op: 0,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span(Sp::Op, 0, ROOT, 0, 100),
            span(Sp::Modify, 1, 0, 5, 25),
            span(Sp::Update, 2, 0, 25, 85),
            span(Sp::Build, 3, 2, 25, 35),
            span(Sp::Run, 4, 2, 35, 75),
            span(Sp::Query, 5, 0, 85, 95),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10, 20, 10, 10, 40, 10]);
        // Self times of a span and all below it add up to the span.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn reported_children_are_clipped_into_the_update_span() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch, 7, 10);
        tr.open_op(epoch);
        tr.begin(Sp::Update);
        // A report claiming far more time than the span lasted.
        let report = UpdateReport {
            elapsed: Duration::from_secs(3),
            build_elapsed: Duration::from_secs(1),
            run_elapsed: Duration::from_secs(1),
            ..UpdateReport::default()
        };
        tr.end_update(&report);
        tr.close_op(Instant::now());
        let trace = tr.finish();
        let update = trace.spans[1];
        assert_eq!(update.name, Sp::Update);
        let children: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.parent == update.id)
            .collect();
        assert_eq!(children.len(), 3);
        for c in &children {
            assert!(update.start_ns <= c.start_ns && c.end_ns <= update.end_ns);
        }
        let covered: u64 = children.iter().map(|c| c.dur()).sum();
        assert!(covered <= update.dur());
        let stats = qtask_obs::validate_chrome_trace(&trace.chrome_json()).expect("valid trace");
        assert_eq!((stats.spans, stats.open_spans), (5, 0));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(false, epoch, 1, 10);
        tr.open_op(epoch);
        tr.begin(Sp::Modify);
        tr.end();
        tr.close_op(Instant::now());
        let trace = tr.finish();
        assert!(trace.spans.is_empty());
        assert_eq!(trace.durations(Sp::Op).len(), 0);
    }

    #[test]
    fn threads_export_as_separate_nestings() {
        let epoch = Instant::now();
        let tracers: Vec<Tracer> = (1..=2)
            .map(|tid| {
                let mut tr = Tracer::new(true, epoch, tid, 1);
                for _ in 0..3 {
                    tr.open_op(Instant::now());
                    tr.begin(Sp::Query);
                    tr.end();
                    tr.close_op(Instant::now());
                }
                tr
            })
            .collect();
        let trace = Trace::merge(tracers);
        // Three ops measured per thread, one kept.
        assert_eq!(trace.durations(Sp::Query).len(), 6);
        assert_eq!(trace.spans.len(), 4);
        let stats = qtask_obs::validate_chrome_trace(&trace.chrome_json()).expect("valid trace");
        assert_eq!((stats.spans, stats.open_spans), (4, 0));
    }
}
