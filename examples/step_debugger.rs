//! Step-by-step simulation — the paper's third motivating application
//! ("developers can issue step-by-step simulation calls to debug how
//! qubits change during the implementation of quantum algorithms") —
//! written in the transactional edit/snapshot idiom.
//!
//! Replays a catalog circuit net by net (the Table III incremental
//! protocol). Each level is committed as one [`Ckt::edit`] transaction
//! (a level either lands whole or not at all), and each update publishes
//! a [`StateSnapshot`]; the debugger keeps every level's snapshot, so
//! after the replay it can diff *any* two levels without re-simulating —
//! the per-level views are immutable history.
//!
//! Run with: `cargo run --release --example step_debugger -- [name] [qubits]`

use qtask::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("adder");
    let qubits: Option<u8> = args.get(2).and_then(|s| s.parse().ok());
    let circuit = qtask::bench_circuits::build(name, qubits).unwrap_or_else(|| {
        eprintln!(
            "unknown circuit '{name}'; available: {:?}",
            qtask::bench_circuits::catalog()
                .iter()
                .map(|e| e.name)
                .collect::<Vec<_>>()
        );
        std::process::exit(1);
    });
    let n = circuit.num_qubits();
    println!("stepping '{name}' ({}):", CircuitStats::of(&circuit));

    let mut ckt = Ckt::new(n);
    let mut history: Vec<StateSnapshot> = Vec::new();
    for (level, (_, net)) in circuit.nets().enumerate() {
        // Commit the whole level atomically.
        let mut names = Vec::new();
        ckt.edit(|tx| {
            let dst = tx.push_net();
            for gid in net.gates() {
                let g = circuit.gate(*gid).unwrap();
                names.push(format!("{}{:?}", g.kind().qasm_name(), g.qubits()));
                tx.insert_gate(g.kind(), dst, g.qubits())?;
            }
            Ok(())
        })
        .expect("replaying a valid circuit cannot conflict");
        let report = ckt.update_state().unwrap();
        let snap = ckt.latest_snapshot().expect("update publishes");
        // Per-qubit marginal P(q = 1), read from this level's snapshot.
        let state = snap.state();
        let mut marginals = vec![0.0f64; n as usize];
        for (idx, amp) in state.iter().enumerate() {
            let p = amp.norm_sqr();
            for (q, m) in marginals.iter_mut().enumerate() {
                if idx >> q & 1 == 1 {
                    *m += p;
                }
            }
        }
        let bar: String = marginals
            .iter()
            .rev()
            .map(|m| match (m * 8.0) as usize {
                0 => '·',
                1..=2 => '▁',
                3..=4 => '▄',
                5..=6 => '▆',
                _ => '█',
            })
            .collect();
        let (top_idx, top_p) = qtask::num::vecops::top_k(&state, 1)[0];
        println!(
            "level {level:3} [{bar}] top |{top_idx:0w$b}> p={top_p:.4} \
             ({} gates: {}) [{} parts re-run]",
            net.len(),
            names.join(" "),
            report.partitions_executed,
            w = n as usize,
        );
        history.push(snap);
        if level > 40 {
            println!("… (truncated; circuit has {} levels)", circuit.num_nets());
            break;
        }
    }
    println!("final norm = {:.9}", ckt.snapshot().norm_sqr());

    // The history is immutable: diff the biggest single-level jump
    // without any re-simulation.
    if history.len() >= 2 {
        let (mut jump_level, mut jump) = (1, 0.0f64);
        for (i, pair) in history.windows(2).enumerate() {
            let diff = qtask::num::vecops::max_abs_diff(&pair[0].state(), &pair[1].state());
            if diff > jump {
                jump = diff;
                jump_level = i + 1;
            }
        }
        println!(
            "largest single-level amplitude change: {jump:.4} at level {jump_level} \
             (snapshot v{} -> v{})",
            history[jump_level - 1].version(),
            history[jump_level].version(),
        );
    }
}
