//! Probes of the layers below the engine, run once at the end of a
//! traced run: the flat kernels of `num` and `partition` on one large
//! vector, and the executor's cost per task.
//!
//! The vector holds 2^20 amplitudes (16 MiB). The machine this was
//! built on reports a 260 MiB last-level cache, so the vector is cache
//! resident and the rates below are no measure of memory bandwidth: no
//! roofline ratio is given. Bytes moved are computed from the array
//! size (16 B read and 16 B written per amplitude touched), not
//! measured.

use crate::emit::Metrics;
use crate::stats;
use qtask_gates::matrices;
use qtask_num::{c64, slices, Complex64};
use qtask_partition::kernels;
use qtask_partition::ops::LinearOp;
use qtask_taskflow::{Executor, Taskflow};
use std::hint::black_box;
use std::time::{Duration, Instant};

const QUBITS: u8 = 20;
const MIN_TIME: Duration = Duration::from_millis(100);
const EMPTY_TASKS: usize = 10_000;

/// Amplitudes swept per second by `sweep`, which touches `amps` of them
/// per call. Runs for at least [`MIN_TIME`].
fn rate(amps: usize, mut sweep: impl FnMut()) -> f64 {
    sweep();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < MIN_TIME {
        sweep();
        calls += 1;
    }
    calls as f64 * amps as f64 / start.elapsed().as_secs_f64()
}

pub fn run(m: &mut Metrics, ex: &Executor) {
    let len = 1usize << QUBITS;
    let mut state: Vec<Complex64> = (0..len)
        .map(|i| c64((i % 7) as f64 * 0.1 - 0.3, (i % 5) as f64 * 0.1 - 0.2))
        .collect();
    let items = |n| 0..(n as u64);

    // A general complex unitary and a unit factor off both axes, so the
    // kernels' real/imaginary fast paths are not what is measured.
    let u = matrices::u3(0.3, 0.5, 0.7);
    let butterfly = rate(len, || {
        let (a, b) = state.split_at_mut(len / 2);
        slices::mat2_butterfly_slices(a, b, u.at(0, 0), u.at(0, 1), u.at(1, 0), u.at(1, 1));
    });
    let scale = rate(len, || slices::scale_slice(&mut state, c64(0.6, 0.8)));

    let h = matrices::h();
    let dense = rate(len, || {
        kernels::apply_dense_runs(0, QUBITS / 2, &h, QUBITS, &mut state, items(len / 2));
    });
    let x = LinearOp::AntiDiag {
        controls: 0,
        target: QUBITS / 2,
        a01: Complex64::ONE,
        a10: Complex64::ONE,
    };
    let swap = LinearOp::Swap {
        controls: 0,
        t_lo: QUBITS / 4,
        t_hi: 3 * QUBITS / 4,
    };
    // X exchanges every amplitude with its partner, Swap half of them.
    let linear = rate(len + len / 2, || {
        kernels::apply_linear_runs(&x, QUBITS, &mut state, items(len / 2));
        kernels::apply_linear_runs(&swap, QUBITS, &mut state, items(len / 4));
    });
    black_box(&state);

    let mut tf = Taskflow::with_capacity("empty", EMPTY_TASKS);
    for _ in 0..EMPTY_TASKS {
        tf.emplace_empty("t");
    }
    let per_task_us: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            ex.run(&tf);
            t.elapsed().as_secs_f64() * 1e6 / EMPTY_TASKS as f64
        })
        .collect();

    for (name, amps_per_s) in [
        ("num.butterfly_amps_per_s", butterfly),
        ("num.scale_amps_per_s", scale),
        ("partition.dense_amps_per_s", dense),
        ("partition.linear_amps_per_s", linear),
    ] {
        println!(
            "# probe {name}: 2^{QUBITS} amplitudes (16 MiB), computed {:.2} GB/s moved",
            amps_per_s * 32.0 / 1e9
        );
        m.insert(name, amps_per_s);
    }
    m.insert("taskflow.task_overhead_us", stats::median(&per_task_us));
}
