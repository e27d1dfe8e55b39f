//! Figure 17: runtime scalability of full simulation with increasing CPU
//! core counts, for qft and big_adder. Both engines should improve with
//! cores and saturate; qTask additionally pipelines across gates (no
//! inter-gate barrier), which is the paper's explanation for its edge.

use qtask_bench::*;
use qtask_core::SimConfig;
use qtask_taskflow::Executor;
use std::sync::Arc;

fn run_series(name: &str, opts: &Opts, rows: &mut Vec<String>) {
    let (circuit, n) = opts.build_circuit(name);
    let levels = levels_of(&circuit);
    println!(
        "\nFigure 17 — {name} ({n} qubits, {} gates): full simulation runtime (ms) vs cores",
        circuit.num_gates()
    );
    println!("{:>6} {:>12} {:>12}", "cores", "qTask", "Qulacs-like");
    let config = SimConfig::default();
    for threads in [1usize, 2, 4, 8, 12, 16] {
        if threads > qtask_taskflow::default_threads() {
            break;
        }
        let ex = Arc::new(Executor::new(threads));
        // Registry deltas across the qTask runs: the trajectory row
        // records how many engine tasks the measured work dispatched.
        let before = qtask_obs::snapshot();
        let qt = median_of(opts.reps, || {
            let mut sim = make_sim(SimKind::QTask, n, &ex, &config);
            full_sim_ms(sim.as_mut(), &levels)
        });
        let tasks = qtask_obs::snapshot()
            .counter("core.tasks_executed")
            .unwrap_or(0)
            - before.counter("core.tasks_executed").unwrap_or(0);
        let qul = median_of(opts.reps, || {
            let mut sim = make_sim(SimKind::Qulacs, n, &ex, &config);
            full_sim_ms(sim.as_mut(), &levels)
        });
        println!("{threads:>6} {qt:>12.2} {qul:>12.2}");
        rows.push(format!(
            "{{\"circuit\": \"{name}\", \"qubits\": {n}, \"threads\": {threads}, \
             \"qtask_ms\": {qt:.3}, \"qulacs_ms\": {qul:.3}, \"tasks_executed\": {tasks}}}"
        ));
    }
}

fn main() {
    harness_init();
    let opts = Opts::from_env();
    println!("Figure 17 reproduction — full-simulation scalability");
    let mut rows = Vec::new();
    run_series("qft", &opts, &mut rows);
    run_series("big_adder", &opts, &mut rows);
    write_scaling_section("full", &rows);
}
