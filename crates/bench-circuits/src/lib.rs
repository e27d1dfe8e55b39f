//! QASMBench-style benchmark circuit generators.
//!
//! The paper evaluates on 20 medium/large QASMBench circuits (Table III).
//! The `.qasm` files themselves are not bundled here, so this crate
//! regenerates structurally equivalent circuits: the same qubit counts,
//! the same algorithmic structure (QFT with decomposed controlled phases,
//! Cuccaro ripple adders with decomposed Toffolis, Bernstein–Vazirani,
//! Trotterized Ising, …), and gate/CNOT counts matching Table III exactly
//! where the structure pins them down (qft, bv, adder, cc families) and
//! within a few percent elsewhere. The actually generated counts are
//! reported by every benchmark run and recorded in EXPERIMENTS.md.
//!
//! Every entry also carries the paper's reported measurements
//! ([`PaperRow`]) so the harness can print paper-vs-measured side by side.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod gens_app;
pub mod gens_core;
pub mod random;

pub use catalog::{build, catalog, BenchEntry, PaperRow};
