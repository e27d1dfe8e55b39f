//! Figure 18: runtime scalability of incremental simulation with
//! increasing core counts — 50 iterations of random mixed insertions and
//! removals (the paper's protocol), for qft and big_adder. The paper
//! observes weaker scaling than full simulation because each incremental
//! update has much less work.

use qtask_bench::*;
use qtask_core::SimConfig;
use qtask_taskflow::Executor;
use rand::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const ITERATIONS: usize = 50;

/// Total runtime of the 50-iteration mixed protocol for one simulator.
fn mixed_protocol_ms(kind: SimKind, n: u8, ex: &Arc<Executor>, levels: &Levels, seed: u64) -> f64 {
    let config = SimConfig::default();
    let mut sim = make_sim(kind, n, ex, &config);
    let mut gate_ids = load_levels(sim.as_mut(), levels);
    sim.update_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut present = vec![true; levels.len()];
    let t0 = Instant::now();
    for _ in 0..ITERATIONS {
        let count = rng.random_range(1..=3usize);
        let mut batch: Vec<usize> = Vec::new();
        while batch.len() < count {
            let lvl = rng.random_range(0..levels.len());
            if !batch.contains(&lvl) {
                batch.push(lvl);
            }
        }
        for &lvl in &batch {
            if present[lvl] {
                for gid in &gate_ids[lvl].1 {
                    sim.remove_gate(*gid).expect("remove");
                }
            } else {
                let net = gate_ids[lvl].0;
                gate_ids[lvl].1 = levels[lvl]
                    .iter()
                    .map(|(kind, qubits)| sim.insert_gate(*kind, net, qubits).expect("insert"))
                    .collect();
            }
            present[lvl] = !present[lvl];
        }
        sim.update_state();
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn run_series(name: &str, opts: &Opts, rows: &mut Vec<String>) {
    let (circuit, n) = opts.build_circuit(name);
    let levels = levels_of(&circuit);
    println!(
        "\nFigure 18 — {name} ({n} qubits, {} gates): {ITERATIONS}-iteration incremental runtime (ms) vs cores",
        circuit.num_gates()
    );
    println!("{:>6} {:>12} {:>12}", "cores", "qTask", "Qulacs-like");
    for threads in [1usize, 2, 4, 8, 12, 16] {
        if threads > qtask_taskflow::default_threads() {
            break;
        }
        let ex = Arc::new(Executor::new(threads));
        // Registry deltas across the qTask runs: incremental updates and
        // the tasks they dispatched, straight from the metrics registry.
        let before = qtask_obs::snapshot();
        let qt = median_of(opts.reps, || {
            mixed_protocol_ms(SimKind::QTask, n, &ex, &levels, 18)
        });
        let after = qtask_obs::snapshot();
        let delta = |k: &str| after.counter(k).unwrap_or(0) - before.counter(k).unwrap_or(0);
        let (updates, tasks) = (delta("core.updates"), delta("core.tasks_executed"));
        let qul = median_of(opts.reps, || {
            mixed_protocol_ms(SimKind::Qulacs, n, &ex, &levels, 18)
        });
        println!("{threads:>6} {qt:>12.2} {qul:>12.2}");
        rows.push(format!(
            "{{\"circuit\": \"{name}\", \"qubits\": {n}, \"threads\": {threads}, \
             \"iterations\": {ITERATIONS}, \"qtask_ms\": {qt:.3}, \"qulacs_ms\": {qul:.3}, \
             \"updates\": {updates}, \"tasks_executed\": {tasks}}}"
        ));
    }
}

fn main() {
    harness_init();
    let opts = Opts::from_env();
    println!("Figure 18 reproduction — incremental-simulation scalability");
    let mut rows = Vec::new();
    run_series("qft", &opts, &mut rows);
    run_series("big_adder", &opts, &mut rows);
    write_scaling_section("incremental", &rows);
}
