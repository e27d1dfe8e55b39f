//! Block partitioning mathematics for state-vector gate operations.
//!
//! This crate implements the paper's §III-C task decomposition, pure of
//! any simulator state so it can be tested exhaustively and reused by the
//! baselines:
//!
//! * [`geometry::BlockGeometry`] — the division of a `2^n` state vector
//!   into power-of-two blocks of `B` amplitudes.
//! * [`pattern::ItemPattern`] — the ordered enumeration of the *work
//!   items* (single amplitudes for diagonal gates, amplitude pairs for
//!   anti-diagonal, permutation and superposition gates) a gate touches.
//!   Random access to the k-th item is O(1)-ish via bit scattering; serial
//!   iteration uses the ascending-submask trick, O(1) per item.
//! * [`ops`] — lowering of a concrete gate (class + control/target bits)
//!   to a [`ops::LinearOp`], superposition gates included.
//! * [`mod@derive`] — tasks are chunks of one dispatch grain
//!   ([`BlockGeometry::grain`]) of consecutive items; consecutive tasks
//!   whose memory regions overlap in block space merge into a
//!   [`derive::PartitionSpec`]. This reproduces the paper's Figures 4–5
//!   exactly (see the tests), where the grain equals the block size.
//! * [`kernels`] — serial/sliced application of those ops to a flat
//!   amplitude vector (shared with the baseline simulators).

#![forbid(unsafe_code)]

pub mod derive;
pub mod geometry;
pub mod kernels;
pub mod ops;
pub mod pattern;

pub use derive::{derive_partitions, PartitionSpec};
pub use geometry::BlockGeometry;
pub use ops::{lower_gate, LinearOp, LoweredGate};
pub use pattern::ItemPattern;
