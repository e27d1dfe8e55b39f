//! The six workloads and the loop they share.
//!
//! Every workload follows one protocol: make the inputs from the seed
//! (untimed, printed as `gen_s`), set up, run a counted phase of a fixed
//! number of ops (registry counters are read before and after it, so
//! tallies do not depend on how fast the machine is), then a timed phase
//! until the deadline, then check the outputs, then set up a few more
//! times for the median that is `setup_s`.

mod full;
mod inc_mixed;
mod inc_tail;
mod probes;
mod read_write;
mod service;

use crate::emit::Metrics;
use crate::env;
use crate::stats::Samples;
use crate::trace::{Sp, Trace, Tracer};
use qtask_core::Ckt;
use qtask_obs::MetricsSnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 6] = [
    "full.qft",
    "full.adder",
    "inc.mixed",
    "inc.tail",
    "read.beside_write",
    "service.mixed",
];

/// What the command line fixed for one run.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes, one set-up: a correctness pass, not a measurement.
    pub smoke: bool,
    /// Worker threads of the shared executor.
    pub threads: usize,
}

impl Ctx {
    /// Ops whose spans are kept for the trace file.
    fn keep_ops(&self) -> u64 {
        if self.smoke {
            50
        } else {
            1000
        }
    }

    fn tracer(&self, epoch: Instant, tid: u32) -> Tracer {
        Tracer::new(self.trace, epoch, tid, self.keep_ops())
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every gate on the final outputs held.
    pub gates_ok: bool,
    pub metrics: Metrics,
    pub trace: Trace,
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "full.qft" => full::run(name, "qft", 15, ctx),
        "full.adder" => full::run(name, "big_adder", 16, ctx),
        "inc.mixed" => inc_mixed::run(name, ctx),
        "inc.tail" => inc_tail::run(name, ctx),
        "read.beside_write" => read_write::run(name, ctx),
        "service.mixed" => service::run(name, ctx),
        other => Err(format!(
            "unknown workload '{other}'; one of {}",
            NAMES.join(", ")
        )),
    }
}

/// Runs one set-up and times it.
fn timed_setup<S>(setup: impl FnOnce() -> S) -> (S, f64) {
    let t = Instant::now();
    let state = setup();
    (state, t.elapsed().as_secs_f64())
}

/// `setup_s`: the median of the set-up that built the measured state and
/// a few more: as many as fit in about two seconds, three to nine, an
/// odd number (one in a smoke run). Those are made, and dropped, when the
/// run is over and the measured state is gone: set up before it, their
/// leftovers in the allocator moved `peak_rss_bytes` by up to 40% from
/// run to run.
fn setup_s<S>(first_s: f64, ctx: &Ctx, setup: impl Fn() -> S) -> f64 {
    let reps = if ctx.smoke {
        1
    } else {
        ((2.0 / first_s) as usize).clamp(3, 9) | 1
    };
    let mut times = vec![first_s];
    for _ in 1..reps {
        times.push(timed_setup(&setup).1);
    }
    crate::stats::median(&times)
}

/// What one op hands back to the loop.
struct OpOut {
    /// When the queried result was in the caller's hands. Checks made
    /// after this instant cost wall time but no latency.
    end: Instant,
    ok: bool,
    /// Query ops the op completed.
    reads: u64,
}

/// What the ops of one load-generating thread came to.
///
/// A schedule is a cycle of ops of unequal cost, repeated. The gated
/// numbers are taken per cycle and then as the median over cycles: one
/// pass over the schedule always holds the same work, so its mean
/// latency and its rate are steady quantities, and the median over
/// passes shrugs off the passes a noisy neighbour or a stolen vCPU
/// slowed down. The raw latencies are kept for quartiles and the tail.
#[derive(Default)]
struct LoopStats {
    lat_ms: Samples,
    /// Mean op latency of each cycle.
    cycle_ms: Samples,
    /// Ops per second of each cycle, set-up of the next op and checks
    /// of the last included.
    cycle_ops_per_s: Samples,
    cycle_reads_per_s: Samples,
    ops: u64,
    failed: u64,
}

impl LoopStats {
    /// Adds what a thread that ran the same schedule beside this one did.
    fn absorb(&mut self, other: &LoopStats) {
        self.lat_ms.extend(&other.lat_ms);
        self.cycle_ms.extend(&other.cycle_ms);
        self.cycle_ops_per_s.extend(&other.cycle_ops_per_s);
        self.cycle_reads_per_s.extend(&other.cycle_reads_per_s);
        self.ops += other.ops;
        self.failed += other.failed;
    }
}

#[derive(Clone, Copy)]
enum Stop<'a> {
    /// After exactly this many ops (the counted phase).
    Ops(u64),
    /// At the first cycle boundary at or after the instant, so every
    /// run measures whole cycles of its schedule and none is cut short.
    At(Instant),
    /// When another thread says so (a reader beside a writer).
    Flag(&'a AtomicBool),
}

/// Lets the executor's workers park before the next `update_state`.
///
/// This works around a defect in `Executor::run_dirty` at the commit
/// this benchmark was built on: it publishes root jobs one by one while
/// testing `join == 0` on the nodes it has not reached yet, so a worker
/// that is awake runs a root, releases its successor, and the publishing
/// loop then publishes that successor a second time. The node runs
/// twice, the run's pending count reaches zero early, `run_dirty`
/// returns while tasks still use the caller's closure, and the process
/// dies with SIGSEGV. A worker is awake when the caller, woken by the
/// run's last task, took that worker's CPU before it could park; it then
/// stays runnable for up to a scheduler slice. Sleeping once gives it the
/// CPU, and it parks within microseconds. README.md has the details and
/// the fix; remove this with it.
fn settle_pool() {
    std::thread::sleep(Duration::from_micros(100));
}

/// `n` untimed ops at the end of a set-up.
fn warm_up(n: u64, settle: bool, mut op: impl FnMut(u64, &mut Tracer) -> OpOut) {
    let mut off = Tracer::new(false, Instant::now(), 0, 0);
    for i in 0..n {
        if settle {
            settle_pool();
        }
        op(i, &mut off);
    }
}

/// Times `op` until `stop`, in cycles of `cycle` ops. `op` receives the
/// running op number, which carries on across phases. With `settle`,
/// [`settle_pool`] runs before each op: in wall time, outside the op's
/// latency.
fn timed_loop(
    stats: &mut LoopStats,
    tr: &mut Tracer,
    stop: Stop,
    cycle: u64,
    settle: bool,
    mut op: impl FnMut(u64, &mut Tracer) -> OpOut,
) {
    let mut cycle_start = Instant::now();
    let mut last_end = cycle_start;
    let (mut done, mut cycle_lat_ms, mut cycle_reads) = (0u64, 0.0f64, 0u64);
    loop {
        let boundary = done % cycle == 0;
        if boundary && done > 0 {
            let now = Instant::now();
            let wall_s = (now - cycle_start).as_secs_f64();
            stats.cycle_ms.push(cycle_lat_ms / cycle as f64);
            stats.cycle_ops_per_s.push(cycle as f64 / wall_s);
            stats.cycle_reads_per_s.push(cycle_reads as f64 / wall_s);
            (cycle_start, cycle_lat_ms, cycle_reads) = (now, 0.0, 0);
        }
        let finished = match stop {
            Stop::Ops(n) => done >= n,
            Stop::At(deadline) => boundary && done > 0 && last_end >= deadline,
            Stop::Flag(stop) => stop.load(Ordering::Relaxed),
        };
        if finished {
            break;
        }
        if settle {
            settle_pool();
        }
        let t0 = Instant::now();
        tr.open_op(t0);
        let out = op(stats.ops, tr);
        tr.close_op(out.end);
        let lat_ms = (out.end - t0).as_secs_f64() * 1e3;
        stats.lat_ms.push(lat_ms);
        stats.ops += 1;
        stats.failed += u64::from(!out.ok);
        cycle_lat_ms += lat_ms;
        cycle_reads += out.reads;
        last_end = out.end;
        done += 1;
    }
}

/// `update_state` under an `update` span with the report's phases laid
/// out inside it. False when the engine refused.
fn traced_update(ckt: &mut Ckt, tr: &mut Tracer) -> bool {
    tr.begin(Sp::Update);
    match ckt.update_state() {
        Ok(report) => {
            tr.end_update(&report);
            true
        }
        Err(_) => {
            tr.end();
            false
        }
    }
}

/// The end-to-end metrics, the same on every workload. `writes` gives
/// latency and op rate, `reads` the query rate (the same thread's, except
/// where a reader runs beside the writer). Call when the timed phase
/// ends: peak memory is read here. The fifth, `setup_s`, is added when
/// the run is over, see [`setup_s`].
fn end_to_end(m: &mut Metrics, writes: &LoopStats, reads: &LoopStats) {
    m.insert("op_ms", writes.cycle_ms.median());
    m.insert("ops_per_s", writes.cycle_ops_per_s.median());
    m.insert("reads_per_s", reads.cycle_reads_per_s.median());
    m.insert("peak_rss_bytes", env::peak_rss_bytes());
}

/// The tally metrics that carry the name of the registry counter behind
/// them. (`circuit.ops_staged` is the one that does not.)
const TALLIES: &[&str] = &[
    "taskflow.tasks_run",
    "taskflow.steals",
    "taskflow.parks",
    "core.partitions_executed",
    "core.tasks_executed",
    "core.blocks_resolved",
    "core.owner_probes",
    "core.snapshot_blocks_resolved",
    "core.graph_nodes_patched",
    "core.graph_nodes_reused",
    "views.patches",
    "views.full_refreshes",
    "views.blocks_repatched",
    "views.blocks_rescanned",
    "views.push_lagged",
    "service.shed",
    "service.timeouts",
    "service.edits_failed",
];

/// The counted phase: what the process-wide `qtask_obs` registry tallied
/// between [`CountWindow::open`] and [`CountWindow::close`].
struct CountWindow(MetricsSnapshot);

impl CountWindow {
    fn open() -> CountWindow {
        CountWindow(qtask_obs::snapshot())
    }

    fn close(self, m: &mut Metrics) {
        let after = qtask_obs::snapshot();
        let delta = |name: &str| {
            let read = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
            (read(&after) - read(&self.0)) as f64
        };
        for name in TALLIES {
            m.insert(name, delta(name));
        }
        m.insert("circuit.ops_staged", delta("core.staged_ops"));
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        m.insert(
            "core.reuse_ratio",
            ratio(
                delta("core.graph_nodes_reused"),
                delta("core.partitions_executed"),
            ),
        );
        m.insert(
            "views.patch_ratio",
            ratio(
                delta("views.patches"),
                delta("views.patches") + delta("views.full_refreshes"),
            ),
        );
    }
}

/// Mean of what histogram `name` recorded between two snapshots.
fn histogram_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let read = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let ((c0, s0), (c1, s1)) = (read(before), read(after));
    if c1 > c0 {
        (s1 - s0) as f64 / (c1 - c0) as f64
    } else {
        0.0
    }
}

/// The `core` layer's timings, from the spans around the engine calls.
/// `reads_per_op` turns the `query` span into time per query op.
fn core_layer(m: &mut Metrics, trace: &Trace, reads_per_op: f64) {
    let ms = |sp| trace.median_ns(sp) / 1e6;
    m.insert("core.modify_us", trace.median_ns(Sp::Modify) / 1e3);
    m.insert("core.update_ms", ms(Sp::Update));
    m.insert("core.build_ms", ms(Sp::Build));
    m.insert("core.run_ms", ms(Sp::Run));
    m.insert("core.publish_ms", ms(Sp::Publish));
    m.insert(
        "core.query_us",
        trace.median_ns(Sp::Query) / 1e3 / reads_per_op,
    );
}
