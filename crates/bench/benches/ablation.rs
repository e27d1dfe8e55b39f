//! Ablations of qTask's §III-F design choices:
//!
//! * **Row-order policy** — the paper orders a net's non-superposition
//!   rows by increasing partition block count ("defer heavy partitions");
//!   compared against plain insertion order.
//! * **MxV group cap** — how many superposition gates share one
//!   matrix–vector row (group 1 = gate-at-a-time; larger groups halve
//!   full-vector passes but square the per-amplitude source terms).
//!
//! Block size, the paper's third knob, is swept by `fig19_blocksize`.

use qtask_bench::*;
use qtask_core::{RowOrderPolicy, SimConfig};
use qtask_taskflow::Executor;
use std::sync::Arc;

fn measure(opts: &Opts, ex: &Arc<Executor>, name: &str, config: &SimConfig) -> (f64, f64) {
    let (circuit, n) = opts.build_circuit(name);
    let levels = levels_of(&circuit);
    let full = median_of(opts.reps, || {
        let mut sim = make_sim(SimKind::QTask, n, ex, config);
        full_sim_ms(sim.as_mut(), &levels)
    });
    let inc = median_of(opts.reps, || {
        let mut sim = make_sim(SimKind::QTask, n, ex, config);
        incremental_sim_ms(sim.as_mut(), &levels)
    });
    (full, inc)
}

fn main() {
    harness_init();
    let opts = Opts::from_env();
    let ex = Arc::new(Executor::new(opts.threads));
    println!("Ablation bench ({} threads)\n", opts.threads);

    println!("Row-order policy (paper §III-F2: defer high-block-count partitions):");
    println!(
        "{:<12} {:<22} {:>12} {:>12}",
        "circuit", "policy", "full (ms)", "inc (ms)"
    );
    for name in ["qft", "big_adder", "sat"] {
        for policy in [RowOrderPolicy::SortedByBlockCount, RowOrderPolicy::Append] {
            let config = SimConfig {
                row_order: policy,
                ..SimConfig::default()
            };
            let (full, inc) = measure(&opts, &ex, name, &config);
            println!(
                "{name:<12} {:<22} {full:>12.2} {inc:>12.2}",
                format!("{policy:?}")
            );
        }
    }

    println!("\nMxV group cap (superposition gates per matrix-vector row):");
    println!(
        "{:<12} {:>6} {:>12} {:>12}",
        "circuit", "cap", "full (ms)", "inc (ms)"
    );
    for name in ["qft", "ising", "dnn"] {
        for cap in [1usize, 2, 3, 4] {
            let config = SimConfig {
                mxv_group_max: cap,
                ..SimConfig::default()
            };
            let (full, inc) = measure(&opts, &ex, name, &config);
            println!("{name:<12} {cap:>6} {full:>12.2} {inc:>12.2}");
        }
    }
}
