//! Recovery latency vs circuit depth.
//!
//! [`Ckt::recover`] rebuilds every piece of derived sim state
//! (partitions, rows, owner index, snapshot chain) by
//! fully re-executing the retained circuit, so its cost is the cost of
//! a from-scratch simulation at the current depth. This bench charts
//! that cost as the circuit deepens — the price of self-healing a
//! poisoned engine — and emits `BENCH_recovery.json` at the workspace
//! root as the checked-in trajectory point.
//!
//! Depth here is nets; every net carries four gates on disjoint qubits
//! (H, Rz, Cx) so each level adds both superposition and phase/swap work.

use qtask_bench::{harness_init, median_of, Opts};
use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use std::time::Instant;

const N: u8 = 12;
const DEPTHS: [usize; 5] = [2, 4, 8, 16, 32];

fn build_at_depth(depth: usize, threads: usize) -> Ckt {
    let cfg = SimConfig {
        num_threads: threads,
        ..SimConfig::default()
    };
    let mut ckt = Ckt::with_config(N, cfg);
    let n = N as usize;
    for i in 0..depth {
        let net = ckt.push_net();
        let q = |off: usize| ((i + off) % n) as u8;
        ckt.insert_gate(GateKind::H, net, &[q(0)]).unwrap();
        ckt.insert_gate(GateKind::Rz(0.3), net, &[q(3)]).unwrap();
        ckt.insert_gate(GateKind::Cx, net, &[q(5), q(7)]).unwrap();
    }
    ckt.update_state().unwrap();
    ckt
}

fn main() {
    harness_init();
    let opts = Opts::from_env();
    let reps = opts.reps.max(3);
    println!(
        "\nRecovery latency, {N} qubits, {} threads (median of {reps}):",
        opts.threads
    );
    println!(
        "{:<8} {:>7} {:>6} {:>11} {:>13}",
        "depth", "gates", "rows", "partitions", "recover (ms)"
    );

    let mut rows_json = Vec::new();
    for depth in DEPTHS {
        let mut ckt = build_at_depth(depth, opts.threads);
        let report = ckt.recover().unwrap(); // warm-up + structure stats
        let ms = median_of(reps, || {
            let t0 = Instant::now();
            ckt.recover().unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        });
        let gates = ckt.circuit().num_gates();
        println!(
            "{depth:<8} {gates:>7} {:>6} {:>11} {ms:>13.3}",
            report.rows, report.partitions
        );
        rows_json.push(format!(
            "    {{\"depth\": {depth}, \"gates\": {gates}, \"rows\": {}, \
             \"partitions\": {}, \"recover_ms\": {ms:.4}}}",
            report.rows, report.partitions
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"qubits\": {N},\n  \
         \"threads\": {},\n  \"reps\": {reps},\n  \"series\": [\n{}\n  ]\n}}\n",
        opts.threads,
        rows_json.join(",\n")
    );
    // cargo runs benches with the package dir as cwd; the trajectory
    // file lives at the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => println!("\ncould not write {out}: {e}"),
    }
}
