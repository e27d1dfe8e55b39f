//! Standard quantum gate database for qTask.
//!
//! Implements the OpenQASM standard gates of the paper's Table I
//! (CNOT, X, Y, Z, H, S, SDG, T, TDG, RX, RY, RZ) plus the composition
//! gates the paper explicitly allows (CZ, CCX, SWAP) and the `u1/u2/u3`
//! family QASMBench circuits rely on.
//!
//! The crate's central service is [`GateKind::classify`]: deciding whether
//! a gate *creates superposition*. Non-superposition gates (diagonal or
//! anti-diagonal matrices and permutations) are applied by linear
//! swapping/scaling of amplitude pairs; superposition gates fall back to
//! the state-transformation-matrix path (paper §III-C). The decision is
//! made on the concrete parameter values, so `RX(π)` is recognized as a
//! (phased) bit-flip while `RX(π/2)` is dense — exactly the paper's
//! "RX/RY/RZ of certain degrees that do not form superposition".

#![forbid(unsafe_code)]

pub mod class;
pub mod kind;
pub mod matrices;

pub use class::GateClass;
pub use kind::GateKind;
