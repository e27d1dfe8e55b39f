//! Declarative query descriptions — the wire form of a view.
//!
//! A [`ViewQuery`] is what a client sends over the service boundary when
//! subscribing; [`ViewQuery::build`] validates it against the engine's
//! qubit count and lowers it to the concrete operator. Keeping the
//! closed-world enum (rather than taking a client's `Box<dyn View>`) is
//! what lets the service layer enforce quotas and reject a malformed
//! subscription before it registers anything on the session's engine.

use crate::ops::{ExpectationView, NormView, ProbabilityView, View};

/// A subscribable query over the published state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewQuery {
    /// Σ|ψ|² — the published state's norm², 1 up to
    /// [`qtask_core::SimConfig::norm_tolerance`].
    Norm,
    /// The probability of one computational-basis state.
    Probability { basis: usize },
    /// The marginal distribution over a qubit subset (bit k of the
    /// distribution index is `qubits[k]`).
    Marginal { qubits: Vec<u8> },
    /// A Pauli-string expectation: qubit q carries X iff bit q of
    /// `xmask`, Z iff bit q of `zmask`, Y iff both.
    Pauli { xmask: usize, zmask: usize },
}

/// Why a [`ViewQuery`] was rejected at build time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewQueryError {
    /// `basis` does not index a state of an `num_qubits`-qubit register.
    BasisOutOfRange { basis: usize, num_qubits: u8 },
    /// A marginal qubit index is out of range.
    QubitOutOfRange { qubit: u8, num_qubits: u8 },
    /// A marginal lists the same qubit twice.
    DuplicateQubit { qubit: u8 },
    /// A marginal over zero qubits (the value would be the constant 1).
    EmptyMarginal,
    /// A Pauli mask addresses qubits beyond the register.
    MaskOutOfRange { mask: usize, num_qubits: u8 },
}

impl std::fmt::Display for ViewQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewQueryError::BasisOutOfRange { basis, num_qubits } => {
                write!(
                    f,
                    "basis state {basis} out of range for {num_qubits} qubits"
                )
            }
            ViewQueryError::QubitOutOfRange { qubit, num_qubits } => {
                write!(f, "qubit {qubit} out of range for {num_qubits} qubits")
            }
            ViewQueryError::DuplicateQubit { qubit } => {
                write!(f, "qubit {qubit} listed twice in marginal")
            }
            ViewQueryError::EmptyMarginal => write!(f, "marginal over zero qubits"),
            ViewQueryError::MaskOutOfRange { mask, num_qubits } => {
                write!(
                    f,
                    "Pauli mask {mask:#x} out of range for {num_qubits} qubits"
                )
            }
        }
    }
}

impl std::error::Error for ViewQueryError {}

impl ViewQuery {
    /// Validates the query against an `num_qubits`-qubit register and
    /// lowers it to its operator.
    pub fn build(&self, num_qubits: u8) -> Result<Box<dyn View>, ViewQueryError> {
        let dim = 1usize << num_qubits;
        match self {
            ViewQuery::Norm => Ok(Box::new(NormView::new())),
            ViewQuery::Probability { basis } => {
                if *basis >= dim {
                    return Err(ViewQueryError::BasisOutOfRange {
                        basis: *basis,
                        num_qubits,
                    });
                }
                Ok(Box::new(ProbabilityView::basis(*basis)))
            }
            ViewQuery::Marginal { qubits } => {
                if qubits.is_empty() {
                    return Err(ViewQueryError::EmptyMarginal);
                }
                let mut seen = 0usize;
                for &q in qubits {
                    if q >= num_qubits {
                        return Err(ViewQueryError::QubitOutOfRange {
                            qubit: q,
                            num_qubits,
                        });
                    }
                    if seen & (1 << q) != 0 {
                        return Err(ViewQueryError::DuplicateQubit { qubit: q });
                    }
                    seen |= 1 << q;
                }
                Ok(Box::new(ProbabilityView::marginal(qubits.clone())))
            }
            ViewQuery::Pauli { xmask, zmask } => {
                for &mask in &[*xmask, *zmask] {
                    if mask >= dim {
                        return Err(ViewQueryError::MaskOutOfRange { mask, num_qubits });
                    }
                }
                Ok(Box::new(ExpectationView::pauli(*xmask, *zmask)))
            }
        }
    }

    /// The label the built operator will carry — stable across build
    /// calls, usable as a subscription key.
    pub fn label(&self) -> String {
        match self {
            ViewQuery::Norm => "norm".to_string(),
            ViewQuery::Probability { basis } => format!("prob[{basis}]"),
            ViewQuery::Marginal { qubits } => format!("marginal{qubits:?}"),
            ViewQuery::Pauli { xmask, zmask } => format!("pauli[x={xmask:#x},z={zmask:#x}]"),
        }
    }
}
