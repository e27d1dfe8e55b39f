//! Typed service errors.
//!
//! Every way a request can fail has a variant, so callers can tell
//! *shed* work (admission control, backpressure, deadlines — the
//! request never touched the session's circuit) from *session health*
//! failures (a quarantined, failed, or closed writer). Retryability is
//! a property of the variant: [`ServiceError::is_retryable`] is what a
//! client loop should consult before re-submitting.

use crate::SessionId;
use qtask_core::EngineError;
use std::time::Duration;

/// Error type of the service API surface.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control refused the work before queueing it: the
    /// session limit or a session's view quota is exhausted, the target
    /// session does not exist, a view query is invalid, a new session's
    /// qubit count, block size or mailbox capacity is invalid, or the
    /// caller's thread already holds the session's turn (a request made
    /// from inside the session's own edit closure, which would wait for
    /// itself). Nothing ran. A full line is not a rejection: its callers wait,
    /// and shed with [`ServiceError::Overloaded`].
    Rejected {
        /// Which limit refused the work.
        reason: String,
    },
    /// The session's line of callers waiting for a turn stayed full
    /// until the request's deadline — the session is lagging. The
    /// caller left without a ticket, and the request never ran; snapshot
    /// reads keep serving the last published version.
    Overloaded {
        /// The lagging session.
        session: SessionId,
        /// Its [`crate::ServiceConfig::mailbox_capacity`] (every place in
        /// line was taken).
        mailbox: usize,
    },
    /// The request had not completed by its deadline. Either the
    /// caller's turn had not come by then, and the caller left: the
    /// request never ran. Or the request was running at the deadline:
    /// it completed, and took effect, after it.
    Timeout {
        /// The slow session.
        session: SessionId,
        /// How long the caller actually waited.
        waited: Duration,
    },
    /// The request panicked or the engine poisoned itself while running
    /// it. The session was quarantined and its caller ran recovery
    /// before returning; reads kept serving the last published snapshot,
    /// and the request is retryable once the session has healed.
    SessionPoisoned {
        /// The quarantined session.
        session: SessionId,
        /// The poison/panic reason.
        reason: String,
    },
    /// The circuit breaker tripped: repeated recovery failures put the
    /// session in the terminal `Failed` state. Only
    /// [`crate::SessionManager::close`] (for the autopsy
    /// [`crate::SessionReport`]) is useful now.
    SessionFailed {
        /// The dead session.
        session: SessionId,
    },
    /// The session was closed; its engine is dropped, or is dropped when
    /// the current turn ends.
    SessionClosed {
        /// The closed session.
        session: SessionId,
    },
    /// The engine rejected the transaction (validation failure, numeric
    /// policy, …) without poisoning itself — the session keeps serving
    /// and the circuit is exactly as before the request.
    Engine(EngineError),
    /// An error injected by an armed `qtask_faults` plan (test builds
    /// with the `faults` feature only). Observable state is unchanged.
    Injected {
        /// The probe site that fired.
        site: String,
    },
}

impl ServiceError {
    /// An [`ServiceError::Injected`] for probe site `site`.
    pub fn injected(site: &str) -> ServiceError {
        ServiceError::Injected {
            site: site.to_string(),
        }
    }

    /// True when re-submitting the same request later can succeed: the
    /// failure was load (a line full until the deadline, a session too
    /// slow for it) or a recoverable engine death, not a property of the
    /// request or a terminal session state.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServiceError::Overloaded { .. }
                | ServiceError::Timeout { .. }
                | ServiceError::SessionPoisoned { .. }
        )
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> ServiceError {
        ServiceError::Engine(e)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected { reason } => write!(f, "admission rejected: {reason}"),
            ServiceError::Overloaded { session, mailbox } => write!(
                f,
                "session {session} overloaded: mailbox of {mailbox} stayed full until the deadline"
            ),
            ServiceError::Timeout { session, waited } => write!(
                f,
                "session {session} missed the deadline (waited {waited:?})"
            ),
            ServiceError::SessionPoisoned { session, reason } => write!(
                f,
                "session {session} quarantined: {reason} (recovery in progress; retry later)"
            ),
            ServiceError::SessionFailed { session } => write!(
                f,
                "session {session} failed terminally (circuit breaker tripped)"
            ),
            ServiceError::SessionClosed { session } => write!(f, "session {session} is closed"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Injected { site } => {
                write!(f, "injected error at fault point '{site}'")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_retryability_and_source() {
        let sid = SessionId(7);
        let e = ServiceError::Overloaded {
            session: sid,
            mailbox: 4,
        };
        assert!(e.is_retryable());
        assert!(e.to_string().contains("mailbox"));
        let e = ServiceError::Timeout {
            session: sid,
            waited: Duration::from_millis(10),
        };
        assert!(e.is_retryable());
        let e = ServiceError::SessionPoisoned {
            session: sid,
            reason: "task panicked".into(),
        };
        assert!(e.is_retryable());
        assert!(e.to_string().contains("quarantined"));
        for e in [
            ServiceError::Rejected {
                reason: "quota".into(),
            },
            ServiceError::SessionFailed { session: sid },
            ServiceError::SessionClosed { session: sid },
            ServiceError::injected("service/enqueue"),
        ] {
            assert!(!e.is_retryable(), "{e}");
        }
        let e: ServiceError = EngineError::injected("x").into();
        assert!(!e.is_retryable());
        assert!(std::error::Error::source(&e).is_some());
    }
}
