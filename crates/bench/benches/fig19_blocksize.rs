//! Figure 19: impact of the block size on full and incremental
//! simulation runtime for qft. The paper's U-shape: tiny blocks drown in
//! partitioning/scheduling overhead; huge blocks degenerate to one core.
//!
//! In the paper one block size sets both the copy-on-write unit and the
//! dispatch unit. Here dispatch follows the derived grain
//! (`BlockGeometry::grain`: `max(B, min(4096, 2^n / 8))` amplitudes), so
//! while `B` stays below the grain this sweep moves only the COW
//! granularity — block count, owner lists, per-block copies — at a fixed
//! task shape; only for `B` above the grain does the block size set the
//! dispatch unit again.

use qtask_bench::*;
use qtask_core::SimConfig;
use qtask_taskflow::Executor;
use rand::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    harness_init();
    let opts = Opts::from_env();
    let ex = Arc::new(Executor::new(opts.threads));
    let (circuit, n) = opts.build_circuit("qft");
    let levels = levels_of(&circuit);
    println!(
        "Figure 19 reproduction — qft ({n} qubits, {} gates), {} threads",
        circuit.num_gates(),
        opts.threads
    );
    println!(
        "{:>8} {:>14} {:>16}",
        "log2(B)", "full (ms)", "incremental (ms)"
    );
    // The paper sweeps log2 B in [0, 16]; tiny blocks are extremely slow
    // (millions of partitions), so the default sweep starts at 4
    // (QTASK_BENCH_FULL=1 starts at 0 like the paper).
    let lo = if opts.full { 0 } else { 4 };
    for log_b in (lo..=n as u32).step_by(2) {
        let config = SimConfig {
            block_size: 1usize << log_b,
            ..SimConfig::default()
        };
        let full = median_of(opts.reps, || {
            let mut sim = make_sim(SimKind::QTask, n, &ex, &config);
            full_sim_ms(sim.as_mut(), &levels)
        });
        // Incremental: 20 iterations of random level toggles.
        let inc = median_of(opts.reps, || {
            let mut sim = make_sim(SimKind::QTask, n, &ex, &config);
            let mut gate_ids = load_levels(sim.as_mut(), &levels);
            sim.update_state();
            let mut rng = StdRng::seed_from_u64(19);
            let mut present = vec![true; levels.len()];
            let t0 = Instant::now();
            for _ in 0..20 {
                let lvl = rng.random_range(0..levels.len());
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
                sim.update_state();
            }
            t0.elapsed().as_secs_f64() * 1e3
        });
        println!("{log_b:>8} {full:>14.2} {inc:>16.2}");
    }
}
