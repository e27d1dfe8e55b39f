//! Net-structured quantum circuit IR with incremental modifiers.
//!
//! This crate implements the paper's programming model (§III-B): a circuit
//! is an **ordered list of nets**, each net a group of *structurally
//! parallel* gates (no two gates in a net may share a qubit — violating
//! this is an error, matching qTask's thrown exception). The Table II
//! modifier API (`insert_net`, `remove_net`, `insert_gate`, `remove_gate`)
//! lives on [`Circuit`]; the simulator crates wrap it and add the state
//! machinery.
//!
//! [`builder::CircuitBuilder`] offers the conventional "append gates,
//! auto-levelize" construction used when lowering QASM programs — each
//! level becomes one net, the convention the paper follows for QASMBench.
//!
//! [`txn::StagedBatch`] stages a sequence of modifiers against a shadow
//! clone for all-or-nothing application — the circuit-level half of the
//! engine's transactional `edit` API.

#![forbid(unsafe_code)]

pub mod builder;
pub mod circuit;
pub mod dot;
pub mod error;
pub mod gate;
pub mod stats;
pub mod txn;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, GateId, Net, NetId};
pub use error::CircuitError;
pub use gate::Gate;
pub use stats::CircuitStats;
pub use txn::{EditOp, StagedBatch};

/// Maximum supported qubit count. State indices are `usize` and qubit
/// masks are `u64`; 30 qubits (16 GiB of amplitudes) is already beyond
/// a single-node in-memory budget once per-net vectors are added.
pub const MAX_QUBITS: u8 = 30;
