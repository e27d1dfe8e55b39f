//! Baseline simulators for the paper's evaluation (§IV-A).
//!
//! The paper compares qTask against Qulacs and Qiskit — both optimized
//! C++ state-vector simulators *without incrementality*: every update
//! call re-simulates the whole circuit. We rebuild their essential
//! behaviours from scratch:
//!
//! * [`QulacsLike`] — flat state vector, specialized kernels per gate
//!   class (diagonal scaling, anti-diagonal swap, dense butterfly), and
//!   level-synchronized multi-threaded application: each gate is a
//!   parallel-for over disjoint pieces, with a barrier between gates —
//!   the synchronization pattern the paper contrasts qTask's whole-graph
//!   scheduling against (§IV-D).
//! * [`QiskitLike`] — generic dense-matrix dispatch for every gate (no
//!   class specialization) plus a functional per-gate buffer copy,
//!   reproducing the consistently larger constant factor Table III
//!   reports for Qiskit relative to Qulacs.
//! * [`NaiveSim`] — a serial oracle using the shared flat kernels.
//!
//! Each parallel gate cuts its state with `split_at_mut` into one `&mut`
//! piece per task ([`common`]): aligned sub-states while the gate's qubits
//! lie low, lower/upper pairs when it acts on the top qubits. Each task
//! takes its piece as one chunk of a retained fan node; no raw pointer
//! is involved.
//!
//! All three implement [`Simulator`], the modifier-plus-update protocol
//! the benchmark harness drives; the harness adapts `qtask_core::Ckt` to
//! the same trait, so every experiment runs the identical protocol.

#![forbid(unsafe_code)]

pub mod common;
pub mod naive;
pub mod qiskit_like;
pub mod qulacs_like;

pub use common::Simulator;
pub use naive::NaiveSim;
pub use qiskit_like::QiskitLike;
pub use qulacs_like::QulacsLike;
