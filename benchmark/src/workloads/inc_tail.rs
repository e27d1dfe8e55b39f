//! `inc.tail`: a constant, tiny edit at the end of a deep circuit.
//!
//! A 14-qubit H wall, then a chain of 2048 T gates, with a
//! `marginal[11,12,13]` view registered. One op is a `Ckt::edit`
//! transaction that appends a `Ccz(13,12,11)` net (or removes the one
//! the previous op appended), `update_state`, and
//! `ViewHandle::reading()`. The dirty set is one net over an eighth of
//! the blocks whatever the depth, so `circuit` staging, partition
//! linking, retained-graph patching, publication and view patching
//! carry the op and the kernels do almost nothing. A kernel or SIMD
//! change must predict **no change** here.
//!
//! Nothing in the schedule is drawn from the seed: the same two ops
//! alternate. The seed is still printed with the fingerprint.

use super::{
    core_layer, end_to_end, setup_s, timed_loop, timed_setup, traced_update, warm_up, CountWindow,
    Ctx, LoopStats, OpOut, Outcome, Stop,
};
use crate::emit::Metrics;
use crate::inputs::{self, Fingerprint, Fnv};
use crate::stats::Samples;
use crate::trace::{Sp, Trace, Tracer};
use qtask_circuit::{Circuit, CircuitBuilder, EditOp, NetId, StagedBatch};
use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_num::vecops;
use qtask_taskflow::Executor;
use qtask_views::{ProbabilityView, View, ViewHandle, ViewRegistry, ViewValue};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops discarded at the end of each set-up.
const WARM_OPS: u64 = 200;
/// Ops in the counted phase.
const COUNT_OPS: u64 = 2000;
/// Every this-many-th reading is compared with a view built from
/// scratch on the same snapshot.
const CHECK_EVERY: u64 = 1000;

struct Shape {
    qubits: u8,
    depth: usize,
}

impl Shape {
    fn top(&self) -> [u8; 3] {
        [self.qubits - 1, self.qubits - 2, self.qubits - 3]
    }

    fn marginal(&self) -> Vec<u8> {
        let [a, b, c] = self.top();
        vec![c, b, a]
    }

    fn circuit(&self) -> Circuit {
        let mut b = CircuitBuilder::new(self.qubits);
        for q in 0..self.qubits {
            b.gate(GateKind::H, &[q]);
        }
        for _ in 0..self.depth {
            b.gate(GateKind::T, &[self.qubits - 1]);
        }
        b.finish()
    }
}

/// Replays `ops` onto a bare circuit, as the engine's commit does onto
/// its own.
fn apply_ops(circuit: &mut Circuit, ops: Vec<EditOp>) {
    const VALID: &str = "op validated by the staged batch";
    for op in ops {
        match op {
            EditOp::InsertNetFront => {
                circuit.insert_net_front();
            }
            EditOp::PushNet => {
                circuit.push_net();
            }
            EditOp::InsertNetAfter(net) => {
                circuit.insert_net_after(net).expect(VALID);
            }
            EditOp::InsertNetBefore(net) => {
                circuit.insert_net_before(net).expect(VALID);
            }
            EditOp::RemoveNet(net) => {
                circuit.remove_net(net).expect(VALID);
            }
            EditOp::InsertGate { net, gate } => {
                circuit
                    .insert_gate(gate.kind(), net, gate.qubits())
                    .expect(VALID);
            }
            EditOp::RemoveGate(gate) => {
                circuit.remove_gate(gate).expect(VALID);
            }
        }
    }
}

/// The `circuit` layer alone: a bare copy of the engine's circuit on
/// which each op's edit is staged through a `StagedBatch` and replayed,
/// with no engine behind it.
struct Mirror {
    circuit: Circuit,
    tail: Option<NetId>,
    stage_us: Samples,
}

impl Mirror {
    fn step(&mut self, top: &[u8; 3]) {
        const VALID: &str = "the tail toggle is a valid edit";
        let t = Instant::now();
        let mut batch = StagedBatch::new(&self.circuit);
        let tail = match self.tail {
            None => {
                let net = batch.push_net();
                batch.insert_gate(GateKind::Ccz, net, top).expect(VALID);
                Some(net)
            }
            Some(net) => {
                batch.remove_net(net).expect(VALID);
                None
            }
        };
        let ops = batch.into_ops();
        apply_ops(&mut self.circuit, ops);
        self.stage_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.tail = tail;
    }
}

struct Editor<'a> {
    ckt: Ckt,
    view: ViewHandle,
    registry: ViewRegistry,
    shape: &'a Shape,
    /// The appended net while it is in the circuit.
    tail: Option<NetId>,
    /// Only a traced run times the `circuit` layer on the side.
    mirror: Option<Mirror>,
}

impl Editor<'_> {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> OpOut {
        let top = self.shape.top();
        tr.begin(Sp::Modify);
        let edited = match self.tail.take() {
            None => self
                .ckt
                .edit(|tx| {
                    let net = tx.push_net();
                    tx.insert_gate(GateKind::Ccz, net, &top)?;
                    Ok(net)
                })
                .map(|(net, _)| self.tail = Some(net)),
            Some(net) => self.ckt.edit(|tx| tx.remove_net(net)).map(|_| ()),
        };
        tr.end();
        let updated = edited.is_ok() && traced_update(&mut self.ckt, tr);
        tr.begin(Sp::Query);
        tr.begin(Sp::ViewRead);
        let reading = self.view.reading();
        tr.end();
        tr.end();
        let end = Instant::now();

        // A reading must be of the version just published, and every so
        // often is recomputed from nothing.
        let mut ok = updated
            && reading
                .as_ref()
                .is_some_and(|r| r.version == self.ckt.snapshot_version());
        if ok && i.is_multiple_of(CHECK_EVERY) {
            let mut scratch = ProbabilityView::marginal(self.shape.marginal());
            scratch.refresh(&self.ckt.latest_snapshot().expect("published"));
            ok = match (reading.map(|r| r.value), scratch.value()) {
                (Some(ViewValue::Vector(got)), ViewValue::Vector(want)) => {
                    got.len() == want.len()
                        && got.iter().zip(&want).all(|(g, w)| (g - w).abs() < 1e-12)
                }
                _ => false,
            };
        }
        if let Some(mirror) = &mut self.mirror {
            mirror.step(&top);
        }
        OpOut { end, ok, reads: 1 }
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let t_gen = Instant::now();
    let shape = if ctx.smoke {
        Shape {
            qubits: 8,
            depth: 64,
        }
    } else {
        Shape {
            qubits: 14,
            depth: 2048,
        }
    };
    let circuit = shape.circuit();
    let (gates, hash) = inputs::circuit_fingerprint(&circuit);
    let mut schedule = Fnv::default();
    schedule.gate(&(GateKind::Ccz, shape.top().to_vec()));
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
    println!(
        "# {name} H wall + T chain qubits={} depth={} view=marginal{:?} gen_s={}",
        shape.qubits,
        shape.depth,
        shape.marginal(),
        t_gen.elapsed().as_secs_f64()
    );

    let epoch = Instant::now();
    let setup = || {
        let ex = Arc::new(Executor::new(ctx.threads));
        let config = SimConfig::with_threads(ctx.threads);
        let mut ckt = Ckt::from_circuit_with_executor(&circuit, config, ex);
        let registry = ViewRegistry::new();
        registry.attach(&mut ckt);
        let view = registry.register(Box::new(ProbabilityView::marginal(shape.marginal())));
        ckt.update_state().expect("first simulation");
        let mut editor = Editor {
            ckt,
            view,
            registry,
            shape: &shape,
            tail: None,
            mirror: None,
        };
        warm_up(WARM_OPS, false, |i, tr| editor.op(i, tr));
        editor
    };
    let (mut editor, first_setup_s) = timed_setup(setup);
    if ctx.trace {
        editor.mirror = Some(Mirror {
            circuit: editor.ckt.circuit().clone(),
            tail: None,
            stage_us: Samples::default(),
        });
    }

    let count_ops = if ctx.smoke { 20 } else { COUNT_OPS };
    let mut tr = ctx.tracer(epoch, 1);
    let mut stats = LoopStats::default();
    let mut m = Metrics::new();
    let window = CountWindow::open();
    // No settling here: the dirty set is the appended net alone, roots
    // with no dirty successor, which `run_dirty` cannot publish twice.
    timed_loop(
        &mut stats,
        &mut tr,
        Stop::Ops(count_ops),
        2,
        false,
        |i, tr| editor.op(i, tr),
    );
    window.close(&mut m);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    timed_loop(
        &mut stats,
        &mut tr,
        Stop::At(deadline),
        2,
        false,
        |i, tr| editor.op(i, tr),
    );
    end_to_end(&mut m, &stats, &stats);
    let summary = stats.lat_ms.summary();
    println!("# {name} op_ms {}", summary.describe("ms"));

    // Whole cycles leave the circuit as generated; the engine must stand
    // where a fresh one would, and the view must never have fallen back
    // to a full refresh after the first.
    let state = editor.ckt.snapshot().state();
    let fresh = inputs::resimulated_state(editor.ckt.circuit());
    let report = editor.registry.report();
    let gates_ok = vecops::approx_eq(&state, &fresh, 1e-8) && editor.tail.is_none();
    if !gates_ok {
        println!("# {name} GATE FAILED: final state differs from a fresh simulation");
    }
    println!("# {name} {report:?}");

    let trace = Trace::merge([tr]);
    if ctx.trace {
        core_layer(&mut m, &trace, 1.0);
        m.insert("core.edit_tail_ms", summary.tail_value());
        m.insert(
            "core.owned_bytes",
            editor.ckt.memory_stats().owned_bytes as f64,
        );
        m.insert("views.read_us", trace.median_ns(Sp::ViewRead) / 1e3);
        let stage = editor.mirror.as_ref().map(|mi| mi.stage_us.median());
        m.insert("circuit.stage_us", stage.unwrap_or(0.0));
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
