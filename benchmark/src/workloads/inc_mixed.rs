//! `inc.mixed`: the paper's Fig. 16 edit loop on `qft`.
//!
//! One op toggles a batch of 1-3 whole levels (gates removed if the
//! level is in the circuit, re-inserted if it is out), calls
//! `update_state`, and reads 16 seeded `probability(idx)` from the new
//! snapshot. Kernels and the build/patch path both matter here: this is
//! the representative edit loop.
//!
//! The schedule is one cycle, repeated. A cycle takes each batch out and
//! puts it straight back, so the circuit never drifts away from `qft`
//! and any whole number of cycles measures the same work. How much an
//! edit re-simulates is set by the earliest level it touches, so the
//! first level of each batch is a fixed stratum of the circuit's depth
//! (every run covers the depth evenly) and the seed draws the order of
//! the batches, how many further levels each takes from the levels
//! behind its first, and the indices read.

use super::{
    core_layer, end_to_end, probes, setup_s, timed_loop, timed_setup, traced_update, warm_up,
    CountWindow, Ctx, LoopStats, OpOut, Outcome, Stop,
};
use crate::emit::Metrics;
use crate::inputs::{self, Fingerprint, Fnv, Loaded};
use crate::trace::{Sp, Trace, Tracer};
use qtask_core::{Ckt, SimConfig};
use qtask_num::{vecops, Complex64};
use qtask_taskflow::Executor;
use rand::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const READS: usize = 16;
const STRATA: usize = 16;
/// Cycles discarded at the end of each set-up.
const WARM_CYCLES: u64 = 1;

struct Batch {
    levels: Vec<usize>,
    /// Indices read after taking the batch out, then after putting it
    /// back.
    reads: [Vec<usize>; 2],
}

fn schedule(seed: u64, num_levels: usize, state_len: usize) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let strata = STRATA.min(num_levels);
    let mut batches: Vec<Batch> = (0..strata)
        .map(|j| {
            let first = (2 * j + 1) * num_levels / (2 * strata);
            let mut levels = vec![first];
            for _ in 0..rng.random_range(0..3usize) {
                if first + 1 < num_levels {
                    let extra = rng.random_range(first + 1..num_levels);
                    if !levels.contains(&extra) {
                        levels.push(extra);
                    }
                }
            }
            let mut reads =
                || -> Vec<usize> { (0..READS).map(|_| rng.random_range(0..state_len)).collect() };
            Batch {
                reads: [reads(), reads()],
                levels,
            }
        })
        .collect();
    batches.shuffle(&mut rng);
    batches
}

fn schedule_hash(batches: &[Batch]) -> u64 {
    let mut h = Fnv::default();
    for b in batches {
        h.word(b.levels.len() as u64);
        for &l in &b.levels {
            h.word(l as u64);
        }
        for &i in b.reads.iter().flatten() {
            h.word(i as u64);
        }
    }
    h.finish()
}

struct Editor<'a> {
    ckt: Ckt,
    loaded: Loaded,
    batches: &'a [Batch],
    /// `|amplitude|²` of the unedited circuit, from the oracle.
    reference: &'a [f64],
}

impl Editor<'_> {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> OpOut {
        let cycle_len = 2 * self.batches.len() as u64;
        let step = (i % cycle_len) as usize;
        let (batch, back_in) = (&self.batches[step / 2], step % 2 == 1);
        tr.begin(Sp::Modify);
        let edited = batch
            .levels
            .iter()
            .all(|&lvl| self.loaded.toggle(&mut self.ckt, lvl).is_ok());
        tr.end();
        let updated = edited && traced_update(&mut self.ckt, tr);
        tr.begin(Sp::Query);
        let mut got = [0.0f64; READS];
        let snap = self.ckt.latest_snapshot();
        if let Some(snap) = &snap {
            for (g, &idx) in got.iter_mut().zip(&batch.reads[usize::from(back_in)]) {
                *g = snap.probability(idx);
            }
        }
        tr.end();
        let end = Instant::now();
        // With the batch back in, the circuit is `qft` again and every
        // probability read is known from the oracle.
        let right = got.iter().all(|p| (0.0..=1.0 + 1e-9).contains(p))
            && (!back_in
                || got
                    .iter()
                    .zip(&batch.reads[1])
                    .all(|(p, &idx)| (p - self.reference[idx]).abs() < 1e-9));
        OpOut {
            end,
            ok: updated && snap.is_some() && right,
            reads: READS as u64,
        }
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let t_gen = Instant::now();
    let n = if ctx.smoke { 8 } else { 15 };
    let circuit = qtask_bench_circuits::build("qft", Some(n)).ok_or("no catalog circuit 'qft'")?;
    let levels = inputs::levels_of(&circuit);
    let batches = schedule(ctx.seed, levels.len(), circuit.state_len());
    let (gates, hash) = inputs::circuit_fingerprint(&circuit);
    inputs::check_fingerprint(
        name,
        ctx.seed,
        ctx.smoke,
        Fingerprint {
            gates,
            circuit: hash,
            schedule: schedule_hash(&batches),
        },
    )?;
    let reference = vecops::probabilities(&inputs::oracle_state(&circuit));
    let cycle = 2 * batches.len() as u64;
    println!(
        "# {name} qft qubits={n} gates={gates} levels={} cycle={cycle} ops gen_s={}",
        levels.len(),
        t_gen.elapsed().as_secs_f64()
    );

    let epoch = Instant::now();
    let setup = || {
        let ex = Arc::new(Executor::new(ctx.threads));
        let mut ckt = Ckt::with_executor(n, SimConfig::with_threads(ctx.threads), ex);
        let loaded = Loaded::load(&mut ckt, levels.clone());
        ckt.update_state().expect("first simulation");
        let mut editor = Editor {
            ckt,
            loaded,
            batches: &batches,
            reference: &reference,
        };
        warm_up(WARM_CYCLES * cycle, true, |i, tr| editor.op(i, tr));
        editor
    };
    let (mut editor, first_setup_s) = timed_setup(setup);

    let mut tr = ctx.tracer(epoch, 1);
    let mut stats = LoopStats::default();
    let mut m = Metrics::new();
    let window = CountWindow::open();
    timed_loop(
        &mut stats,
        &mut tr,
        Stop::Ops(cycle),
        cycle,
        true,
        |i, tr| editor.op(i, tr),
    );
    window.close(&mut m);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    timed_loop(
        &mut stats,
        &mut tr,
        Stop::At(deadline),
        cycle,
        true,
        |i, tr| editor.op(i, tr),
    );
    end_to_end(&mut m, &stats, &stats);
    let summary = stats.lat_ms.summary();
    println!("# {name} op_ms {}", summary.describe("ms"));

    // The edited engine must stand where a fresh one would.
    let state: Vec<Complex64> = editor.ckt.snapshot().state();
    let fresh = inputs::resimulated_state(editor.ckt.circuit());
    let gates_ok = vecops::approx_eq(&state, &fresh, 1e-8);
    if !gates_ok {
        println!("# {name} GATE FAILED: final state differs from a fresh simulation");
    }

    let trace = Trace::merge([tr]);
    if ctx.trace {
        core_layer(&mut m, &trace, READS as f64);
        m.insert("core.edit_tail_ms", summary.tail_value());
        m.insert(
            "core.owned_bytes",
            editor.ckt.memory_stats().owned_bytes as f64,
        );
        probes::run(&mut m, editor.ckt.executor());
    }
    drop(editor);
    m.insert("setup_s", setup_s(first_setup_s, ctx, setup));
    Ok(Outcome {
        attempted: stats.ops,
        failed: stats.failed,
        gates_ok,
        metrics: m,
        trace,
    })
}
