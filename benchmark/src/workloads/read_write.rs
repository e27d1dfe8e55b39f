//! `read.beside_write`: one reader querying while one writer edits.
//!
//! The same engine as `inc.mixed`, used differently. `qft` at 14 qubits
//! is built once. A writer thread toggles one mid-circuit level and
//! calls `update_state`, over and over, on an executor one worker short
//! of the pool so the reader has a core. A reader thread takes the
//! latest published `StateSnapshot` and runs one round of queries on it
//! (`state()`, `probabilities()`, `norm_sqr()`, 64 `sample`, 64
//! `amplitude`), over and over. A block-store or snapshot-spine change
//! that buys writes or memory at the cost of reads shows here and
//! nowhere else.
//!
//! `op_ms` and `ops_per_s` are the writer's, `reads_per_s` the reader's.
//! The toggled level is the middle one on every seed (how much an edit
//! re-simulates depends on where it is, and runs must be comparable);
//! the seed draws the amplitudes read and the sampling stream.

use super::{
    core_layer, end_to_end, setup_s, timed_loop, timed_setup, traced_update, warm_up, CountWindow,
    Ctx, LoopStats, OpOut, Outcome, Stop,
};
use crate::emit::Metrics;
use crate::inputs::{self, Fingerprint, Fnv, Loaded};
use crate::trace::{Sp, Trace, Tracer};
use qtask_core::{BlockDelta, Ckt, SimConfig, SnapshotObserver, StateSnapshot};
use qtask_num::vecops;
use qtask_taskflow::Executor;
use rand::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const POINT_READS: usize = 64;
/// Query ops in one reader round.
const ROUND_READS: u64 = 3 + 2 * POINT_READS as u64;
/// Writer ops discarded at the end of each set-up.
const WARM_OPS: u64 = 4;
/// Writer ops in the counted phase.
const COUNT_OPS: u64 = 8;

/// Where the writer's publications reach the reader.
#[derive(Default)]
struct Latest(Mutex<Option<StateSnapshot>>);

impl SnapshotObserver for Latest {
    fn on_publish(&self, snap: &StateSnapshot, _delta: &BlockDelta) {
        *self.0.lock().expect("reader never panics holding it") = Some(snap.clone());
    }
}

struct Writer {
    ckt: Ckt,
    loaded: Loaded,
    level: usize,
}

impl Writer {
    fn op(&mut self, tr: &mut Tracer) -> OpOut {
        tr.begin(Sp::Modify);
        let edited = self.loaded.toggle(&mut self.ckt, self.level).is_ok();
        tr.end();
        let ok = edited && traced_update(&mut self.ckt, tr);
        OpOut {
            end: Instant::now(),
            ok,
            reads: 0,
        }
    }
}

struct Reader<'a> {
    latest: &'a Latest,
    indices: &'a [usize],
    rng: StdRng,
}

impl Reader<'_> {
    /// One round of queries on whatever version is newest.
    fn op(&mut self, tr: &mut Tracer) -> OpOut {
        tr.begin(Sp::Query);
        let snap = self
            .latest
            .0
            .lock()
            .expect("writer never panics holding it")
            .clone();
        let snap = snap.expect("published before the reader starts");
        let state = snap.state();
        let probs = snap.probabilities();
        let norm = snap.norm_sqr();
        for _ in 0..POINT_READS {
            black_box(snap.sample(&mut self.rng));
        }
        let mut mass = 0.0;
        for &idx in self.indices {
            mass += snap.amplitude(idx).norm_sqr();
        }
        tr.end();
        let end = Instant::now();
        // A torn or half-published version would not be normalized.
        let ok = (norm - 1.0).abs() < 1e-9
            && (vecops::norm_sqr(&state) - 1.0).abs() < 1e-9
            && probs.len() == state.len()
            && (0.0..=1.0 + 1e-9).contains(&mass);
        OpOut {
            end,
            ok,
            reads: ROUND_READS,
        }
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let t_gen = Instant::now();
    let n = if ctx.smoke { 8 } else { 14 };
    let circuit = qtask_bench_circuits::build("qft", Some(n)).ok_or("no catalog circuit 'qft'")?;
    let levels = inputs::levels_of(&circuit);
    let level = levels.len() / 2;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let indices: Vec<usize> = (0..POINT_READS)
        .map(|_| rng.random_range(0..circuit.state_len()))
        .collect();
    let (gates, hash) = inputs::circuit_fingerprint(&circuit);
    let mut schedule = Fnv::default();
    schedule.word(level as u64);
    for &i in &indices {
        schedule.word(i as u64);
    }
    inputs::check_fingerprint(
        name,
        ctx.seed,
        ctx.smoke,
        Fingerprint {
            gates,
            circuit: hash,
            schedule: schedule.finish(),
        },
    )?;
    let writer_threads = ctx.threads.saturating_sub(1).max(1);
    println!(
        "# {name} qft qubits={n} gates={gates} toggled level={level} of {} \
         writer pool={writer_threads} gen_s={}",
        levels.len(),
        t_gen.elapsed().as_secs_f64()
    );

    let epoch = Instant::now();
    let setup = || {
        let ex = Arc::new(Executor::new(writer_threads));
        let mut ckt = Ckt::with_executor(n, SimConfig::with_threads(writer_threads), ex);
        let loaded = Loaded::load(&mut ckt, levels.clone());
        let latest = Arc::new(Latest::default());
        ckt.attach_observer(latest.clone());
        ckt.update_state().expect("first simulation");
        let mut writer = Writer { ckt, loaded, level };
        warm_up(WARM_OPS, true, |_, tr| writer.op(tr));
        (writer, latest)
    };
    let ((mut writer, latest), first_setup_s) = timed_setup(setup);

    let mut reader = Reader {
        latest: &latest,
        indices: &indices,
        rng,
    };
    let (mut wtr, mut rtr) = (ctx.tracer(epoch, 1), ctx.tracer(epoch, 2));
    let (mut wstats, mut rstats) = (LoopStats::default(), LoopStats::default());
    let mut m = Metrics::new();
    // One phase: the writer runs to `stop`, the reader until told.
    let mut phase = |stop: Stop| {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                timed_loop(
                    &mut rstats,
                    &mut rtr,
                    Stop::Flag(&done),
                    1,
                    false,
                    |_, tr| reader.op(tr),
                );
            });
            timed_loop(&mut wstats, &mut wtr, stop, 2, true, |_, tr| writer.op(tr));
            done.store(true, Ordering::Relaxed);
        });
    };
    let window = CountWindow::open();
    phase(Stop::Ops(COUNT_OPS));
    window.close(&mut m);
    phase(Stop::At(
        Instant::now() + Duration::from_secs_f64(ctx.seconds),
    ));

    println!(
        "# {name} writer op_ms {}",
        wstats.lat_ms.summary().describe("ms")
    );
    println!(
        "# {name} reader round_ms {} ({ROUND_READS} query ops a round)",
        rstats.lat_ms.summary().describe("ms")
    );
    let (attempted, failed) = (wstats.ops + rstats.ops, wstats.failed + rstats.failed);
    end_to_end(&mut m, &wstats, &rstats);

    let state = writer.ckt.snapshot().state();
    let fresh = inputs::resimulated_state(writer.ckt.circuit());
    let gates_ok = vecops::approx_eq(&state, &fresh, 1e-8);
    if !gates_ok {
        println!("# {name} GATE FAILED: final state differs from a fresh simulation");
    }

    let trace = Trace::merge([wtr, rtr]);
    if ctx.trace {
        core_layer(&mut m, &trace, ROUND_READS as f64);
        m.insert(
            "core.owned_bytes",
            writer.ckt.memory_stats().owned_bytes as f64,
        );
    }
    drop((writer, latest));
    m.insert("setup_s", setup_s(first_setup_s, ctx, setup));
    Ok(Outcome {
        attempted,
        failed,
        gates_ok,
        metrics: m,
        trace,
    })
}
