//! Typed engine errors, poisoning, and invariant-audit reports.
//!
//! The failure model (see `DESIGN.md` §"Failure model & recovery"):
//! engine state is a long-lived accumulation of incremental updates, so a
//! panic mid-mutation can leave rows, the owner index, and the dirty sets
//! *torn*. Mutating entry points therefore contain panics with
//! `catch_unwind` and flip the engine into a **poisoned** state — every
//! fallible API returns [`EngineError::Poisoned`] from then on, and no
//! new [`crate::StateSnapshot`] is published, until
//! [`crate::Ckt::recover`] rebuilds the simulation state from the
//! retained circuit. Snapshots published before the poisoning stay
//! readable: they never share a torn buffer.

use qtask_circuit::CircuitError;

/// Error type of the engine's fallible API surface.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The engine is poisoned: a previous mutation panicked (or failed a
    /// numerical-health check) and the simulation state may be torn. The
    /// circuit itself is intact; call [`crate::Ckt::recover`] to rebuild.
    Poisoned {
        /// What poisoned the engine (panic message or failed health check).
        reason: String,
    },
    /// A circuit-level validation failure (stale id, net conflict, …) —
    /// the engine state is untouched.
    Circuit(CircuitError),
    /// A published block contained a non-finite amplitude (NaN/Inf),
    /// found by the per-block norm check at publication. The engine is
    /// poisoned; [`crate::Ckt::recover`] rebuilds it.
    NonFinite {
        /// Block index holding the first non-finite amplitude.
        block: usize,
    },
    /// The published state's norm² drifted off unity beyond
    /// [`crate::SimConfig::norm_tolerance`]. The engine is poisoned;
    /// [`crate::Ckt::recover`] rebuilds it.
    NormDrift {
        /// The measured squared norm.
        norm_sqr: f64,
        /// The configured tolerance it exceeded.
        tolerance: f64,
    },
    /// An error injected by an armed `qtask_faults` plan (test builds
    /// with the `faults` feature only). Observable state is unchanged.
    Injected {
        /// The probe site that fired.
        site: String,
    },
    /// [`crate::Ckt::recover`] itself failed; the engine keeps its
    /// previous (typically poisoned) state.
    RecoveryFailed {
        /// Why the rebuild failed.
        reason: String,
    },
}

impl EngineError {
    /// True for [`EngineError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        matches!(self, EngineError::Poisoned { .. })
    }

    /// An [`EngineError::Injected`] for probe site `site`.
    pub fn injected(site: &str) -> EngineError {
        EngineError::Injected {
            site: site.to_string(),
        }
    }
}

impl From<CircuitError> for EngineError {
    fn from(e: CircuitError) -> EngineError {
        EngineError::Circuit(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Poisoned { reason } => {
                write!(f, "engine is poisoned: {reason} (call Ckt::recover)")
            }
            EngineError::Circuit(e) => write!(f, "circuit error: {e}"),
            EngineError::NonFinite { block } => {
                write!(f, "non-finite amplitude in block {block}")
            }
            EngineError::NormDrift {
                norm_sqr,
                tolerance,
            } => write!(
                f,
                "state norm² drifted to {norm_sqr} (tolerance {tolerance})"
            ),
            EngineError::Injected { site } => {
                write!(f, "injected error at fault point '{site}'")
            }
            EngineError::RecoveryFailed { reason } => {
                write!(f, "engine recovery failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

/// One broken engine invariant found by [`crate::Ckt::audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The engine is poisoned (audit reports it first; the remaining
    /// checks still run — they are read-only and panic-contained).
    EnginePoisoned {
        /// The recorded poison reason.
        reason: String,
    },
    /// The per-block owner index is malformed: a list out of row order,
    /// naming a dead row or missing a buffer, or a row owning other
    /// blocks than the ones it writes.
    OwnerIndexMismatch {
        /// What the comparison found.
        detail: String,
    },
    /// The partition graph's edges are incoherent (dangling ids,
    /// asymmetric pred/succ links, or coverage violations).
    GraphIncoherent {
        /// What the graph validation found.
        detail: String,
    },
    /// Resolving a block of the final state panicked (e.g. the owner
    /// index referenced a dead row).
    ResolutionFailure {
        /// The block whose resolution failed.
        block: usize,
    },
    /// A resolved final-state block contains a NaN/Inf amplitude.
    NonFiniteAmplitude {
        /// The offending block.
        block: usize,
    },
    /// The resolved state's norm² is off unity beyond the configured
    /// tolerance.
    NormDrift {
        /// The measured squared norm.
        norm_sqr: f64,
        /// The configured tolerance it exceeded.
        tolerance: f64,
    },
    /// The retained snapshot's version does not match the engine's
    /// publication counter (versions must track publications exactly).
    SnapshotVersionSkew {
        /// Version of the retained snapshot.
        snapshot_version: u64,
        /// The engine's publication counter.
        engine_seq: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::EnginePoisoned { reason } => {
                write!(f, "engine poisoned: {reason}")
            }
            InvariantViolation::OwnerIndexMismatch { detail } => {
                write!(f, "owner index mismatch: {detail}")
            }
            InvariantViolation::GraphIncoherent { detail } => {
                write!(f, "partition graph incoherent: {detail}")
            }
            InvariantViolation::ResolutionFailure { block } => {
                write!(f, "resolution of block {block} panicked")
            }
            InvariantViolation::NonFiniteAmplitude { block } => {
                write!(f, "non-finite amplitude in block {block}")
            }
            InvariantViolation::NormDrift {
                norm_sqr,
                tolerance,
            } => write!(f, "norm² {norm_sqr} off unity beyond {tolerance}"),
            InvariantViolation::SnapshotVersionSkew {
                snapshot_version,
                engine_seq,
            } => write!(
                f,
                "snapshot version {snapshot_version} != engine seq {engine_seq}"
            ),
        }
    }
}

/// Renders a caught panic payload as text.
pub(crate) fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EngineError::Poisoned {
            reason: "task 'x' panicked".into(),
        };
        assert!(e.is_poisoned());
        assert!(e.to_string().contains("recover"));
        let e: EngineError = CircuitError::StaleGate.into();
        assert!(!e.is_poisoned());
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(e, EngineError::Circuit(CircuitError::StaleGate));
        let v = InvariantViolation::SnapshotVersionSkew {
            snapshot_version: 3,
            engine_seq: 4,
        };
        assert!(v.to_string().contains('3'));
    }
}
