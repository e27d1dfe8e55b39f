//! Push delivery for incremental view subscriptions.
//!
//! A [`Subscription`] is the client end of a capacity-one
//! overwrite-latest channel: the writer deposits each new
//! [`ViewUpdate`] into the slot without ever blocking — if the client
//! has not consumed the previous update it is overwritten and the
//! subscription's `lagged` counter advances. Clients that keep up see
//! every version; clients that fall behind always resume at the *newest*
//! value (never a stale backlog), which is the right degradation for a
//! dashboard-style consumer.

use crate::{lock, ServiceError, SessionId};
use qtask_core::Ckt;
use qtask_views::{ViewHandle, ViewQuery, ViewRegistry, ViewValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One pushed view value, stamped with the snapshot version it reflects.
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
    /// The subscription was closed (session closed, failed, or the
    /// subscription itself was dropped); no further updates will arrive.
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

struct SlotState {
    latest: Option<ViewUpdate>,
    closed: bool,
}

/// The capacity-one channel shared by the writer (producer) and one
/// [`Subscription`] (consumer).
pub(crate) struct PushSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    lagged: AtomicU64,
}

impl PushSlot {
    fn new() -> Arc<PushSlot> {
        Arc::new(PushSlot {
            state: Mutex::new(SlotState {
                latest: None,
                closed: false,
            }),
            cv: Condvar::new(),
            lagged: AtomicU64::new(0),
        })
    }

    /// Deposits `update`, overwriting an unconsumed predecessor (counted
    /// as lag). Never blocks on the consumer.
    pub(crate) fn push(&self, update: ViewUpdate) {
        let mut state = lock(&self.state);
        if state.closed {
            return;
        }
        if state.latest.replace(update).is_some() {
            self.lagged.fetch_add(1, Ordering::Relaxed);
            qtask_obs::counter!("views.push_lagged").inc();
        }
        qtask_obs::counter!("views.pushed").inc();
        drop(state);
        self.cv.notify_all();
    }

    /// Marks the channel closed and wakes any blocked consumer. Both
    /// ends may call this (writer on close/failure, consumer on drop).
    pub(crate) fn close(&self) {
        lock(&self.state).closed = true;
        self.cv.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }
}

/// Client end of one view subscription (see [`crate::SessionHandle::subscribe`]).
///
/// Dropping the subscription closes the channel; the writer prunes the
/// underlying view at its next publication, freeing the quota slot.
pub struct Subscription {
    session: SessionId,
    query: ViewQuery,
    slot: Arc<PushSlot>,
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

    /// Takes the latest unconsumed update, if any, without blocking.
    pub fn try_recv(&self) -> Option<ViewUpdate> {
        lock(&self.slot.state).latest.take()
    }

    /// Blocks until an update arrives (or `timeout` elapses / the
    /// channel closes). An update deposited before the call is returned
    /// immediately — the slot is level-triggered, not edge-triggered.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ViewUpdate, RecvError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = lock(&self.slot.state);
        loop {
            if let Some(update) = state.latest.take() {
                return Ok(update);
            }
            if state.closed {
                return Err(RecvError::Closed);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(RecvError::Timeout);
            }
            let (guard, _) = self
                .slot
                .cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    /// Updates overwritten before this client consumed them. A growing
    /// value means the client reads slower than the writer publishes;
    /// the values it does see are always the newest.
    pub fn lagged(&self) -> u64 {
        self.slot.lagged.load(Ordering::Relaxed)
    }

    /// True once the writer (or this end) closed the channel. A final
    /// unconsumed update may still be pending in [`Subscription::try_recv`].
    pub fn is_closed(&self) -> bool {
        self.slot.is_closed()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.slot.close();
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

struct SubEntry {
    handle: ViewHandle,
    slot: Arc<PushSlot>,
    last_pushed: u64,
}

/// Writer-side state of a session's subscriptions: the [`ViewRegistry`]
/// attached to the session's engine plus one [`SubEntry`] per live
/// subscription. Owned by the session's writer; nothing here is shared
/// except the per-subscription slots. Dropping it (session closed or
/// failed) closes every subscription channel.
pub(crate) struct ViewFanout {
    registry: ViewRegistry,
    subs: Vec<SubEntry>,
    quota: usize,
}

impl ViewFanout {
    /// A fanout whose registry is attached to `ckt`; `quota` bounds the
    /// session's live subscriptions.
    pub(crate) fn attach(ckt: &mut Ckt, quota: usize) -> ViewFanout {
        let registry = ViewRegistry::new();
        registry.attach(ckt);
        ViewFanout {
            registry,
            subs: Vec::new(),
            quota,
        }
    }

    /// Drops entries whose client end closed, unregistering their views
    /// so later publications stop paying for them.
    fn prune(&mut self) {
        for entry in self.subs.extract_if(.., |entry| entry.slot.is_closed()) {
            entry.handle.unregister();
        }
    }

    /// Registers `query` as a maintained view and returns the client end.
    /// Runs on the subscribing caller's turn, so quota and registration
    /// are serialized with every publication.
    pub(crate) fn subscribe(
        &mut self,
        ckt: &Ckt,
        session: SessionId,
        query: ViewQuery,
    ) -> Result<Subscription, ServiceError> {
        self.prune();
        if self.subs.len() >= self.quota {
            return Err(ServiceError::Rejected {
                reason: format!("session {session} view quota of {} exhausted", self.quota),
            });
        }
        let view = query
            .build(ckt.num_qubits())
            .map_err(|e| ServiceError::Rejected {
                reason: format!("invalid view query: {e}"),
            })?;
        let handle = self.registry.register_on(ckt, view);
        let slot = PushSlot::new();
        let mut last_pushed = 0;
        if let Some(reading) = handle.reading() {
            last_pushed = reading.version;
            slot.push(ViewUpdate {
                version: reading.version,
                value: reading.value,
            });
        }
        self.subs.push(SubEntry {
            handle,
            slot: Arc::clone(&slot),
            last_pushed,
        });
        qtask_obs::counter!("views.subscribed").inc();
        Ok(Subscription {
            session,
            query,
            slot,
        })
    }

    /// Pushes every view's current reading to its subscriber (skipping
    /// versions already delivered). Called on the turn of each edit that
    /// published, and after recovery.
    pub(crate) fn push_all(&mut self) {
        self.prune();
        for entry in &mut self.subs {
            let Some(reading) = entry.handle.reading() else {
                continue;
            };
            if reading.version <= entry.last_pushed {
                continue;
            }
            entry.last_pushed = reading.version;
            entry.slot.push(ViewUpdate {
                version: reading.version,
                value: reading.value,
            });
        }
    }

    /// The registry's maintenance counters for this session.
    pub(crate) fn report(&self) -> qtask_views::ViewReport {
        self.registry.report()
    }
}

impl Drop for ViewFanout {
    /// Blocked consumers wake with [`RecvError::Closed`].
    fn drop(&mut self) {
        for entry in &self.subs {
            entry.slot.close();
        }
    }
}
