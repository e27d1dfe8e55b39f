//! `service.mixed`: sessions behind the `SessionManager`.
//!
//! Four sessions of 14 qubits, each preloaded with a random circuit of
//! 200 gates and holding one marginal subscription, all on one shared
//! executor. **Closed loop, 1 client, 100 us think time**: the client
//! takes the sessions in turn and sends its next request only when the
//! previous one is answered. One op is one `edit` (push a 3-gate net, or
//! remove a net pushed earlier), the wait until the subscription yields
//! the view at the edit's version, then 4 `snapshot()` + `probability`
//! reads. Mailboxes, writer threads, the shared pool and push slots do
//! the work; engine state is small. No writer is killed here: chaos has
//! its own suite.
//!
//! The issue asked for 2 clients. Two sessions updating at once on one
//! executor crash the process at this commit (see `settle_pool` in
//! `mod.rs`); `CLIENTS` is the only thing to change once that is fixed.
//! It also asked for 12 qubits. There an op is 0.14 ms of which most is
//! four thread wake-ups, and on a virtual machine their cost swings by
//! 60% with the host's mood; at 14 qubits the engine's share is large
//! enough for the number to hold still.
//!
//! Each session's schedule is one cycle of pushes and removals that ends
//! with every pushed net removed again, so circuit depth stays bounded
//! and whole cycles measure the same work.

use super::{
    end_to_end, histogram_mean, setup_s, timed_loop, timed_setup, CountWindow, Ctx, LoopStats,
    OpOut, Outcome, Stop,
};
use crate::emit::Metrics;
use crate::inputs::{self, Fingerprint, Fnv, Gate};
use crate::trace::{Sp, Trace, Tracer};
use qtask_circuit::NetId;
use qtask_core::SimConfig;
use qtask_gates::GateKind;
use qtask_num::vecops;
use qtask_service::{
    ServiceConfig, SessionHandle, SessionManager, SessionState, Subscription, ViewQuery, ViewValue,
};
use qtask_taskflow::Executor;
use rand::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;
const CLIENTS: usize = 1;
/// Edits in one session's cycle: as many removals as pushes.
const WALK: usize = 16;
const READS: usize = 4;
const VIEW_QUBITS: [u8; 3] = [0, 1, 2];
/// Cycles each client discards at the end of each set-up.
const WARM_CYCLES: u64 = 1;
const PUSH_TIMEOUT: Duration = Duration::from_secs(10);
const FIXED_SEED: u64 = 0x5e55_1045;

enum Action {
    Push(Vec<Gate>),
    /// Remove the pushed net at this position (modulo how many are in).
    Remove(usize),
}

struct Step {
    action: Action,
    reads: [usize; READS],
}

/// A push/remove walk that never removes from nothing and ends empty.
/// Which steps push, and which earlier net a removal takes, comes from
/// `shape`, the same on every seed: a removal re-simulates every net
/// pushed after the one it takes, so the shape sets the cost. The seed
/// (`rng`) draws the gates' operands and the indices read.
fn walk(shape: &mut StdRng, rng: &mut StdRng, qubits: u8, state_len: usize) -> Vec<Step> {
    let mut depth = 0usize;
    (0..WALK)
        .map(|i| {
            let left = WALK - i;
            let push = depth == 0 || (depth < left && shape.random_bool(0.5));
            let action = if push {
                depth += 1;
                let mut q: Vec<u8> = (0..qubits).collect();
                q.shuffle(rng);
                Action::Push(vec![
                    (GateKind::H, vec![q[0]]),
                    (GateKind::Rz(rng.random_range(-3.0..3.0)), vec![q[1]]),
                    (GateKind::Cx, vec![q[2], q[3]]),
                ])
            } else {
                depth -= 1;
                Action::Remove(shape.random_range(0..WALK))
            };
            Step {
                action,
                reads: std::array::from_fn(|_| rng.random_range(0..state_len)),
            }
        })
        .collect()
}

struct Plan {
    levels: Vec<Vec<Gate>>,
    steps: Vec<Step>,
}

fn hash_plan(h: &mut Fnv, plan: &Plan) {
    for step in &plan.steps {
        match &step.action {
            Action::Push(gates) => gates.iter().for_each(|g| h.gate(g)),
            Action::Remove(at) => h.word(*at as u64),
        }
        step.reads.iter().for_each(|&i| h.word(i as u64));
    }
}

/// The marginal over `VIEW_QUBITS` of a probability vector: bit `k` of
/// the distribution index is qubit `VIEW_QUBITS[k]`.
fn marginal(probs: &[f64]) -> Vec<f64> {
    let mut dist = vec![0.0; 1 << VIEW_QUBITS.len()];
    for (idx, p) in probs.iter().enumerate() {
        let key = VIEW_QUBITS
            .iter()
            .enumerate()
            .fold(0, |key, (k, &q)| key | ((idx >> q) & 1) << k);
        dist[key] += p;
    }
    dist
}

struct Session<'a> {
    handle: SessionHandle,
    sub: Subscription,
    plan: &'a Plan,
    pushed: Vec<NetId>,
    at: usize,
}

impl Session<'_> {
    fn op(&mut self, tr: &mut Tracer) -> OpOut {
        let step = &self.plan.steps[self.at % WALK];
        self.at += 1;
        tr.begin(Sp::Push);
        tr.begin(Sp::ClientEdit);
        let outcome = match &step.action {
            Action::Push(gates) => {
                let gates = gates.clone();
                let made = Arc::new(Mutex::new(None));
                let slot = Arc::clone(&made);
                let outcome = self.handle.edit(move |tx| {
                    let net = tx.push_net();
                    for (kind, qubits) in &gates {
                        tx.insert_gate(*kind, net, qubits)?;
                    }
                    *slot.lock().expect("edit closure does not panic") = Some(net);
                    Ok(())
                });
                let net = made.lock().expect("edit closure does not panic").take();
                self.pushed.extend(net);
                outcome
            }
            Action::Remove(at) => {
                let net = self.pushed.remove(at % self.pushed.len());
                self.handle.edit(move |tx| tx.remove_net(net))
            }
        };
        tr.end();
        tr.begin(Sp::PushWait);
        let update = outcome.as_ref().ok().and_then(|outcome| loop {
            match self.sub.recv_timeout(PUSH_TIMEOUT) {
                Ok(update) if update.version >= outcome.version => break Some(update),
                Ok(_) => {}
                Err(_) => break None,
            }
        });
        tr.end();
        tr.end();
        let mut snap = None;
        let mut mass = 0.0;
        for &idx in &step.reads {
            tr.begin(Sp::Read);
            snap = self.handle.snapshot();
            mass += snap.as_ref().map_or(f64::NAN, |s| s.probability(idx));
            tr.end();
        }
        let end = Instant::now();

        // The pushed value must be what a query of that version gives.
        // This client is the session's only editor, so the snapshot it
        // reads after its edit is that version.
        let ok = match (update, snap) {
            (Some(update), Some(snap)) if update.version == snap.version() => {
                let want = marginal(&snap.probabilities());
                (0.0..=1.0 + 1e-9).contains(&mass)
                    && matches!(&update.value, ViewValue::Vector(got)
                        if got.len() == want.len()
                            && got.iter().zip(&want).all(|(g, w)| (g - w).abs() < 1e-9))
            }
            _ => false,
        };
        OpOut {
            end,
            ok,
            reads: READS as u64,
        }
    }
}

/// A manager and its sessions; dropping it closes every session and
/// joins their writer threads.
struct Service<'a> {
    mgr: SessionManager,
    clients: Vec<Vec<Session<'a>>>,
}

impl Drop for Service<'_> {
    fn drop(&mut self) {
        self.mgr.shutdown();
    }
}

impl<'a> Service<'a> {
    fn start(plans: &'a [Plan], qubits: u8, threads: usize) -> Service<'a> {
        let cfg = ServiceConfig::default()
            .with_threads(threads)
            .with_max_sessions(SESSIONS)
            .with_default_deadline(Duration::from_secs(30));
        let mgr = SessionManager::with_executor(cfg, Arc::new(Executor::new(threads)));
        let mut sessions = plans.iter().map(|plan| {
            let handle = mgr
                .open(qubits, SimConfig::with_threads(threads))
                .expect("session admitted");
            let levels = plan.levels.clone();
            handle
                .edit(move |tx| {
                    for level in &levels {
                        let net = tx.push_net();
                        for (kind, q) in level {
                            tx.insert_gate(*kind, net, q)?;
                        }
                    }
                    Ok(())
                })
                .expect("preload commits");
            let sub = handle
                .subscribe(ViewQuery::Marginal {
                    qubits: VIEW_QUBITS.to_vec(),
                })
                .expect("subscription admitted");
            Session {
                handle,
                sub,
                plan,
                pushed: Vec::new(),
                at: 0,
            }
        });
        let per_client = SESSIONS / CLIENTS;
        let clients = (0..CLIENTS)
            .map(|_| sessions.by_ref().take(per_client).collect())
            .collect();
        Service { mgr, clients }
    }

    /// Every client runs to `stop` on its own thread, taking its
    /// sessions in turn.
    fn phase(&mut self, stop: Stop, cycle: u64, stats: &mut [LoopStats], tracers: &mut [Tracer]) {
        std::thread::scope(|scope| {
            for ((sessions, stats), tr) in self.clients.iter_mut().zip(stats).zip(tracers) {
                scope.spawn(move || {
                    // The pause before each op is the client's think
                    // time, and it lets the pool settle (see
                    // `settle_pool`): client and writer hand the CPUs
                    // back and forth, and a worker that has not parked
                    // yet only gets one when the client pauses.
                    timed_loop(stats, tr, stop, cycle, true, |i, tr| {
                        let turn = i as usize % sessions.len();
                        sessions[turn].op(tr)
                    });
                });
            }
        });
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let t_gen = Instant::now();
    let (qubits, preload) = if ctx.smoke { (6, 40) } else { (14, 200) };
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut schedule = Fnv::default();
    let mut circuits = Fnv::default();
    let mut gates = 0;
    let plans: Vec<Plan> = (0..SESSIONS)
        .map(|session| {
            // The preloaded circuits and the walks' shapes are the same
            // on every seed (how many dense rows a circuit happens to
            // hold moves memory by 10%, which net a removal takes moves
            // latency by 30%, and runs must be comparable); the seed
            // draws what is pushed and what is read.
            let mut fixed = StdRng::seed_from_u64(FIXED_SEED + session as u64);
            let circuit = qtask_bench_circuits::random::random_circuit(&mut fixed, qubits, preload);
            let (n, hash) = inputs::circuit_fingerprint(&circuit);
            gates += n;
            circuits.word(hash);
            let plan = Plan {
                levels: inputs::levels_of(&circuit),
                steps: walk(&mut fixed, &mut rng, qubits, circuit.state_len()),
            };
            hash_plan(&mut schedule, &plan);
            plan
        })
        .collect();
    inputs::check_fingerprint(
        name,
        ctx.seed,
        ctx.smoke,
        Fingerprint {
            gates,
            circuit: circuits.finish(),
            schedule: schedule.finish(),
        },
    )?;
    // A client's cycle: each of its sessions once through its walk.
    let cycle = (WALK * SESSIONS / CLIENTS) as u64;
    println!(
        "# {name} closed loop, {CLIENTS} client(s), 100 us think time, {SESSIONS} sessions x \
         {qubits} qubits, {preload} preloaded gates each, cycle={cycle} ops a client, gen_s={}",
        t_gen.elapsed().as_secs_f64()
    );

    let epoch = Instant::now();
    let setup = || {
        let mut service = Service::start(&plans, qubits, ctx.threads);
        let mut warm: Vec<LoopStats> = (0..CLIENTS).map(|_| LoopStats::default()).collect();
        let mut off: Vec<Tracer> = (0..CLIENTS)
            .map(|_| Tracer::new(false, epoch, 0, 0))
            .collect();
        service.phase(Stop::Ops(WARM_CYCLES * cycle), cycle, &mut warm, &mut off);
        service
    };
    let (mut service, first_setup_s) = timed_setup(setup);

    let mut stats: Vec<LoopStats> = (0..CLIENTS).map(|_| LoopStats::default()).collect();
    let mut tracers: Vec<Tracer> = (1..=CLIENTS as u32)
        .map(|tid| ctx.tracer(epoch, tid))
        .collect();
    let mut m = Metrics::new();
    let window = CountWindow::open();
    let before = qtask_obs::snapshot();
    service.phase(Stop::Ops(cycle), cycle, &mut stats, &mut tracers);
    window.close(&mut m);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    service.phase(Stop::At(deadline), cycle, &mut stats, &mut tracers);
    let after = qtask_obs::snapshot();

    let mut all = LoopStats::default();
    stats.iter().for_each(|s| all.absorb(s));
    end_to_end(&mut m, &all, &all);
    // The medians are one client's rates; clients run side by side.
    for rate in ["ops_per_s", "reads_per_s"] {
        m.entry(rate).and_modify(|v| *v *= CLIENTS as f64);
    }
    println!("# {name} op_ms {}", all.lat_ms.summary().describe("ms"));

    // Gates: every session ends where a fresh simulation of its circuit
    // would, and shuts down clean.
    let mut gates_ok = true;
    for session in service.clients.iter().flatten() {
        let (circuit, version) = session.handle.circuit().map_err(|e| e.to_string())?;
        let snap = session.handle.snapshot().ok_or("session has no snapshot")?;
        let fresh = inputs::resimulated_state(&circuit);
        if snap.version() != version || !vecops::approx_eq(&snap.state(), &fresh, 1e-8) {
            println!(
                "# {name} GATE FAILED: session {:?} differs from a fresh simulation",
                session.handle.id()
            );
            gates_ok = false;
        }
    }
    for report in service.mgr.shutdown() {
        if report.breaker_tripped || report.state != SessionState::Closed {
            println!("# {name} GATE FAILED: unclean shutdown: {report:?}");
            gates_ok = false;
        }
    }

    let trace = Trace::merge(tracers);
    if ctx.trace {
        let rtt = trace.durations(Sp::ClientEdit).summary();
        println!("# {name} service.edit_rtt {}", rtt.describe("ns"));
        let update_ms = histogram_mean(&before, &after, "core.update_us") / 1e3;
        m.insert("service.edit_rtt_ms", rtt.median / 1e6);
        m.insert("service.edit_rtt_tail_ms", rtt.tail_value() / 1e6);
        m.insert("service.push_ms", trace.median_ns(Sp::Push) / 1e6);
        m.insert("service.read_us", trace.median_ns(Sp::Read) / 1e3);
        m.insert(
            "service.queue_delay_us",
            histogram_mean(&before, &after, "service.queue_delay_us"),
        );
        m.insert("service.overhead_ms", rtt.median / 1e6 - update_ms);
        // The engines sit behind the writers; what they spent comes from
        // the registry's histograms, as means.
        m.insert("core.update_ms", update_ms);
        m.insert(
            "core.build_ms",
            histogram_mean(&before, &after, "core.update_build_us") / 1e3,
        );
        m.insert(
            "core.run_ms",
            histogram_mean(&before, &after, "core.update_run_us") / 1e3,
        );
    }
    drop(service);
    m.insert("setup_s", setup_s(first_setup_s, ctx, setup));
    Ok(Outcome {
        attempted: all.ops,
        failed: all.failed,
        gates_ok,
        metrics: m,
        trace,
    })
}
