//! # qTask-rs — task-parallel quantum circuit simulation with incrementality
//!
//! A Rust reproduction of *"qTask: Task-parallel Quantum Circuit
//! Simulation with Incrementality"* (Tsung-Wei Huang, IPDPS 2023). This
//! umbrella crate re-exports the whole workspace; see `DESIGN.md` for the
//! architecture and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ## Quick start
//!
//! The API is an MVCC-style reader/writer split. **Edits** go through
//! [`core::Ckt::edit`]: every modifier in the closure is staged and
//! validated first, then committed atomically — a mid-batch failure
//! (e.g. two gates claiming one qubit in a net) rolls the whole
//! transaction back. **Queries** go through the immutable
//! [`core::StateSnapshot`] each [`core::Ckt::update_state`] publishes:
//! snapshots are `Send + Sync` and versioned, so any number of threads
//! keep reading version *v* while the writer builds *v+1*.
//!
//! ```
//! use qtask::prelude::*;
//!
//! // Listing 1's circuit: five qubits, a net of Hadamards, four CNOTs.
//! let mut ckt = Ckt::new(5);
//! let (q4, q3) = (4, 3);
//! let (g6, _receipt) = ckt
//!     .edit(|tx| {
//!         let net1 = tx.insert_net_front();
//!         let net2 = tx.insert_net_after(net1)?;
//!         for q in 0..5 {
//!             tx.insert_gate(GateKind::H, net1, &[q])?;
//!         }
//!         tx.insert_gate(GateKind::Cx, net2, &[q4, q3])
//!     })
//!     .unwrap();
//! ckt.update_state().unwrap(); // full simulation; publishes snapshot v1
//!
//! // Readers hold version 1 — on this thread or any other.
//! let v1 = ckt.latest_snapshot().unwrap();
//!
//! // Modify and incrementally re-simulate. The failed flip of G6 onto
//! // an occupied qubit pair aborts atomically; the second edit commits.
//! let net2 = ckt.circuit().gate_net(g6).unwrap();
//! assert!(ckt
//!     .edit(|tx| {
//!         tx.remove_gate(g6)?;
//!         tx.insert_gate(GateKind::Cx, net2, &[q3, q4])?;
//!         tx.insert_gate(GateKind::H, net2, &[q4]) // conflict: rolls back
//!     })
//!     .is_err());
//! ckt.edit(|tx| {
//!     tx.remove_gate(g6)?;
//!     tx.insert_gate(GateKind::Cx, net2, &[q3, q4])
//! })
//! .unwrap();
//! ckt.update_state().unwrap(); // incremental: only affected partitions re-run
//!
//! // Version 2 reflects the edit; version 1 is immutable forever.
//! let v2 = ckt.latest_snapshot().unwrap();
//! assert!(v2.version() > v1.version());
//! assert!((v2.norm_sqr() - 1.0).abs() < 1e-9);
//! assert!((v1.norm_sqr() - 1.0).abs() < 1e-9);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `qtask-core` | the incremental engine ([`core::Ckt`]) |
//! | [`circuit`] | `qtask-circuit` | net-structured circuit IR |
//! | [`gates`] | `qtask-gates` | standard gate database |
//! | [`num`] | `qtask-num` | complex numbers, small unitaries |
//! | [`obs`] | `qtask-obs` | metrics registry, tracing spans, Chrome export |
//! | [`partition`] | `qtask-partition` | block partitioning math |
//! | [`taskflow`] | `qtask-taskflow` | work-stealing DAG executor |
//! | [`qasm`] | `qtask-qasm` | OpenQASM 2.0 parser/writer |
//! | [`service`] | `qtask-service` | supervised multi-session service |
//! | [`views`] | `qtask-views` | DBSP-style incremental materialized views |
//! | [`baselines`] | `qtask-baselines` | Qulacs-like / Qiskit-like / naive |
//! | [`bench_circuits`] | `qtask-bench-circuits` | QASMBench-style generators |

#![forbid(unsafe_code)]

pub use qtask_baselines as baselines;
pub use qtask_bench_circuits as bench_circuits;
pub use qtask_circuit as circuit;
pub use qtask_core as core;
pub use qtask_gates as gates;
pub use qtask_num as num;
pub use qtask_obs as obs;
pub use qtask_partition as partition;
pub use qtask_qasm as qasm;
pub use qtask_service as service;
pub use qtask_taskflow as taskflow;
pub use qtask_views as views;

/// The most common imports in one place.
pub mod prelude {
    pub use qtask_baselines::{NaiveSim, QiskitLike, QulacsLike, Simulator};
    pub use qtask_circuit::{
        Circuit, CircuitBuilder, CircuitError, CircuitStats, Gate, GateId, NetId,
    };
    pub use qtask_core::{
        Ckt, EditReceipt, EditTxn, EngineError, InvariantViolation, QueryReport, RecoveryReport,
        RowOrderPolicy, SimConfig, StateSnapshot, UpdateReport,
    };
    pub use qtask_gates::{GateClass, GateKind};
    pub use qtask_num::{c64, Complex64};
    pub use qtask_obs::{MetricsSnapshot, NoopSpan, SpanGuard, TraceSink};
    pub use qtask_service::{
        EditOutcome, RecvError, ServiceConfig, ServiceError, SessionHandle, SessionId,
        SessionManager, SessionReport, SessionState, Subscription, ViewUpdate,
    };
    pub use qtask_taskflow::{Executor, TaskPanic, Taskflow};
    pub use qtask_views::{
        ExpectationView, NormView, ProbabilityView, View, ViewQuery, ViewReading, ViewRegistry,
        ViewReport, ViewValue,
    };
}
