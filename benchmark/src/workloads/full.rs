//! `full.qft` and `full.adder`: circuit in, full state out.
//!
//! One op is what a caller with a circuit in hand pays for its state:
//! `Ckt::from_circuit_with_executor` + `update_state` +
//! `snapshot().state()`, on the long-lived shared executor. `qft` puts
//! the register in superposition from the first level, so nearly every
//! row is a dense matrix-vector row; `big_adder` is CX/T-dominated, so
//! nearly every row is a permutation or a diagonal and blocks are
//! shared. A kernel change that helps one and taxes the other shows in
//! the pair.

use super::{
    core_layer, end_to_end, probes, setup_s, timed_loop, timed_setup, traced_update, warm_up,
    CountWindow, Ctx, LoopStats, OpOut, Outcome, Stop,
};
use crate::emit::Metrics;
use crate::inputs::{self, Fingerprint};
use crate::trace::{Sp, Trace, Tracer};
use qtask_circuit::Circuit;
use qtask_core::{Ckt, SimConfig};
use qtask_num::{vecops, Complex64};
use qtask_taskflow::Executor;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Simulations discarded at the end of each set-up.
const WARM_OPS: u64 = 3;
/// Simulations in the counted phase.
const COUNT_OPS: u64 = 4;
/// Single-threaded simulations behind `taskflow.parallel_efficiency`.
const SERIAL_OPS: u64 = 5;

struct Sim<'a> {
    circuit: &'a Circuit,
    reference: &'a [Complex64],
    config: SimConfig,
    owned_bytes: Cell<usize>,
}

impl Sim<'_> {
    /// One op, and the check of its result against the oracle.
    fn op(&self, ex: &Arc<Executor>, tr: &mut Tracer) -> OpOut {
        tr.begin(Sp::Modify);
        let mut ckt =
            Ckt::from_circuit_with_executor(self.circuit, self.config.clone(), Arc::clone(ex));
        tr.end();
        let updated = traced_update(&mut ckt, tr);
        tr.begin(Sp::Query);
        let state = ckt.try_snapshot().map(|snap| snap.state());
        tr.end();
        let end = Instant::now();
        let ok = updated
            && state.is_ok_and(|state| {
                vecops::approx_eq(&state, self.reference, 1e-8)
                    && (vecops::norm_sqr(&state) - 1.0).abs() < 1e-9
            });
        self.owned_bytes.set(ckt.memory_stats().owned_bytes);
        OpOut { end, ok, reads: 1 }
    }
}

pub fn run(name: &str, circuit_name: &str, qubits: u8, ctx: &Ctx) -> Result<Outcome, String> {
    let t_gen = Instant::now();
    let n = if ctx.smoke { 8 } else { qubits };
    let circuit = qtask_bench_circuits::build(circuit_name, Some(n))
        .ok_or(format!("no catalog circuit '{circuit_name}'"))?;
    let (gates, hash) = inputs::circuit_fingerprint(&circuit);
    inputs::check_fingerprint(
        name,
        ctx.seed,
        ctx.smoke,
        Fingerprint {
            gates,
            circuit: hash,
            // The op is the same every time: there is no schedule.
            schedule: inputs::Fnv::default().finish(),
        },
    )?;
    let reference = inputs::oracle_state(&circuit);
    println!(
        "# {name} {circuit_name} qubits={n} gates={gates} gen_s={}",
        t_gen.elapsed().as_secs_f64()
    );

    let sim = Sim {
        circuit: &circuit,
        reference: &reference,
        config: SimConfig::with_threads(ctx.threads),
        owned_bytes: Cell::new(0),
    };
    let epoch = Instant::now();
    let setup = || {
        let ex = Arc::new(Executor::new(ctx.threads));
        warm_up(WARM_OPS, false, |_, tr| sim.op(&ex, tr));
        ex
    };
    let (ex, first_setup_s) = timed_setup(setup);

    let mut tr = ctx.tracer(epoch, 1);
    let mut stats = LoopStats::default();
    let mut m = Metrics::new();
    let window = CountWindow::open();
    timed_loop(
        &mut stats,
        &mut tr,
        Stop::Ops(COUNT_OPS),
        1,
        false,
        |_, tr| sim.op(&ex, tr),
    );
    window.close(&mut m);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    timed_loop(
        &mut stats,
        &mut tr,
        Stop::At(deadline),
        1,
        false,
        |_, tr| sim.op(&ex, tr),
    );
    end_to_end(&mut m, &stats, &stats);
    println!("# {name} op_ms {}", stats.lat_ms.summary().describe("ms"));

    let trace = Trace::merge([tr]);
    let mut failed = stats.failed;
    let mut attempted = stats.ops;
    if ctx.trace {
        core_layer(&mut m, &trace, 1.0);
        m.insert("core.owned_bytes", sim.owned_bytes.get() as f64);
        // The same problem on one worker: the plain serial baseline.
        let serial_ex = Arc::new(Executor::new(1));
        let mut serial = LoopStats::default();
        let mut off = Tracer::new(false, epoch, 0, 0);
        timed_loop(
            &mut serial,
            &mut off,
            Stop::Ops(SERIAL_OPS),
            1,
            false,
            |_, tr| sim.op(&serial_ex, tr),
        );
        failed += serial.failed;
        attempted += serial.ops;
        let serial_ms = serial.cycle_ms.median();
        println!("# {name} serial rerun: 1 thread op_ms={serial_ms} n={SERIAL_OPS}");
        m.insert(
            "taskflow.parallel_efficiency",
            serial_ms / (ctx.threads as f64 * stats.cycle_ms.median()),
        );
        probes::run(&mut m, &ex);
    }
    drop(ex);
    m.insert("setup_s", setup_s(first_setup_s, ctx, setup));
    Ok(Outcome {
        attempted,
        failed,
        gates_ok: failed == 0,
        metrics: m,
        trace,
    })
}
