//! View subscriptions: a client's cursor over one view of the session's
//! [`ViewRegistry`]. The registry slot holds the view's latest value and
//! its version, patched inside every publication; a [`Subscription`]
//! returns it whenever the version is newer than the last one returned.
//! The session never waits for a subscriber: one that falls behind
//! resumes at the *newest* value (never a stale backlog) and counts the
//! versions it skipped.

use crate::{ServiceError, SessionId};
use qtask_core::Ckt;
use qtask_views::{ViewHandle, ViewQuery, ViewReading, ViewRegistry, ViewValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One view value, stamped with the snapshot version it reflects.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewUpdate {
    /// Version of the published snapshot this value was maintained to.
    pub version: u64,
    /// The view's value at that version.
    pub value: ViewValue,
}

/// Why [`Subscription::recv_timeout`] returned without an update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No update arrived within the timeout; the subscription is still
    /// live.
    Timeout,
    /// The session was closed or failed; no further updates will arrive.
    Closed,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "no view update within the timeout"),
            RecvError::Closed => write!(f, "subscription closed"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Registers `query` on `registry`, primed from `ckt`'s latest snapshot,
/// and returns its client end. Runs on the subscribing caller's turn,
/// so quota and registration are serialized with every publication.
pub(crate) fn subscribe(
    registry: &ViewRegistry,
    ckt: &Ckt,
    quota: usize,
    session: SessionId,
    query: ViewQuery,
) -> Result<Subscription, ServiceError> {
    if registry.len() >= quota {
        return Err(ServiceError::Rejected {
            reason: format!("session {session} view quota of {quota} exhausted"),
        });
    }
    let view = query
        .build(ckt.num_qubits())
        .map_err(|e| ServiceError::Rejected {
            reason: format!("invalid view query: {e}"),
        })?;
    let handle = registry.register_on(ckt, view);
    // The primed reading counts as unseen: the first receive returns it.
    let primed = handle.reading().map_or(0, |r| r.version);
    qtask_obs::counter!("views.subscribed").inc();
    Ok(Subscription {
        session,
        query,
        handle,
        seen: AtomicU64::new(primed.saturating_sub(1)),
        lagged: AtomicU64::new(0),
    })
}

/// Client end of one view subscription (see [`crate::SessionHandle::subscribe`]).
///
/// Dropping the subscription unregisters its view at once, freeing the
/// quota slot.
pub struct Subscription {
    session: SessionId,
    query: ViewQuery,
    handle: ViewHandle,
    /// The version last returned.
    seen: AtomicU64,
    lagged: AtomicU64,
}

impl Subscription {
    /// The session this subscription reads from.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The subscribed query.
    pub fn query(&self) -> &ViewQuery {
        &self.query
    }

    /// The view's value if its version is newer than the last one
    /// returned, without blocking.
    pub fn try_recv(&self) -> Option<ViewUpdate> {
        self.recv_until(Some(Instant::now())).ok()
    }

    /// Blocks until the view's version is newer than the last one
    /// returned (or `timeout` elapses / the session closes). A version
    /// published before the call is returned immediately — receiving
    /// is level-triggered, not edge-triggered.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ViewUpdate, RecvError> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    fn recv_until(&self, until: Option<Instant>) -> Result<ViewUpdate, RecvError> {
        loop {
            let seen = self.seen.load(Ordering::Acquire);
            let Some(reading) = self.handle.reading_after(seen, until) else {
                return Err(if self.handle.is_closed() {
                    RecvError::Closed
                } else {
                    RecvError::Timeout
                });
            };
            if let Some(update) = self.deliver(reading) {
                return Ok(update);
            }
        }
    }

    /// Advances the cursor to `reading`, counting the versions skipped
    /// since the last one returned. `None` if a concurrent receive
    /// already returned this version or a newer one.
    fn deliver(&self, reading: ViewReading) -> Option<ViewUpdate> {
        let seen = self.seen.fetch_max(reading.version, Ordering::AcqRel);
        if seen >= reading.version {
            return None;
        }
        let skipped = reading.version - seen - 1;
        if skipped > 0 {
            self.lagged.fetch_add(skipped, Ordering::Relaxed);
            qtask_obs::counter!("views.push_lagged").add(skipped);
        }
        Some(ViewUpdate {
            version: reading.version,
            value: reading.value,
        })
    }

    /// Versions published but never returned, because a newer one was
    /// returned first. A growing value means the client reads slower
    /// than the session publishes; the values it does see are always the
    /// newest.
    pub fn lagged(&self) -> u64 {
        self.lagged.load(Ordering::Relaxed)
    }

    /// True once the session closed or failed. A final unreceived
    /// version may still be pending in [`Subscription::try_recv`].
    pub fn is_closed(&self) -> bool {
        self.handle.is_closed()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.handle.unregister();
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("session", &self.session)
            .field("query", &self.query)
            .field("lagged", &self.lagged())
            .field("closed", &self.is_closed())
            .finish()
    }
}
