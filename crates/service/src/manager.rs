//! The session manager: admission, multiplexing, lifecycle.

use crate::session::{touch_service_metrics, Shared, Writer};
use crate::{lock, ServiceConfig, ServiceError, SessionHandle, SessionId, SessionReport};
use qtask_core::{BlockGeometry, Ckt, SimConfig};
use qtask_taskflow::Executor;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Multiplexes many circuits (sessions) over one worker pool.
///
/// Each [`SessionManager::open`] admits a session (or rejects it at the
/// [`ServiceConfig::max_sessions`] limit) and hands back a cloneable
/// [`SessionHandle`]. A session owns no thread. Each request runs on its
/// caller's thread, on the caller's turn (a session's callers take
/// turns in order, see [`SessionHandle::edit`]), and its simulation work
/// on that thread plus the manager's [`Executor`], which does simulation
/// work only. N sessions share one set of worker threads, and an idle
/// session costs no thread at all.
///
/// Sessions fail and wait independently: a quarantine or a breaker trip
/// changes no other session's state, and a slow or blocking client
/// closure, or a run of recovery attempts, holds up only its own
/// session's callers. The manager's own lock is never held while a
/// request runs.
pub struct SessionManager {
    cfg: Arc<ServiceConfig>,
    executor: Arc<Executor>,
    inner: Mutex<Inner>,
}

struct Inner {
    next_id: u64,
    sessions: HashMap<u64, SessionHandle>,
}

impl SessionManager {
    /// A manager with its own executor pool of
    /// [`ServiceConfig::num_threads`] workers.
    pub fn new(cfg: ServiceConfig) -> SessionManager {
        let executor = Arc::new(Executor::new(cfg.num_threads));
        SessionManager::with_executor(cfg, executor)
    }

    /// A manager multiplexing sessions over an existing pool.
    pub fn with_executor(cfg: ServiceConfig, executor: Arc<Executor>) -> SessionManager {
        touch_service_metrics();
        SessionManager {
            cfg: Arc::new(cfg),
            executor,
            inner: Mutex::new(Inner {
                next_id: 1,
                sessions: HashMap::new(),
            }),
        }
    }

    /// The shared simulation pool.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Sessions currently holding a slot (everything not yet closed —
    /// failed sessions count until reaped with [`SessionManager::close`]).
    pub fn live_sessions(&self) -> usize {
        lock(&self.inner).sessions.len()
    }

    /// Admits a new session simulating `num_qubits` qubits under
    /// `sim_config` and publishes its baseline snapshot on this thread
    /// before returning (so the returned handle serves reads immediately
    /// and request ordering is deterministic).
    ///
    /// Admission control: a qubit count or block size no engine can
    /// take ([`BlockGeometry::check`]), a
    /// [`ServiceConfig::mailbox_capacity`] of zero (a session that could
    /// only shed), or the [`ServiceConfig::max_sessions`] limit, is
    /// [`ServiceError::Rejected`] — nothing is built. A session whose
    /// engine is broken at birth is still *admitted* (it holds a slot);
    /// the watchdog and breaker run as usual, on this thread, before
    /// `open` returns, and its health is observable via
    /// [`SessionHandle::state`].
    pub fn open(
        &self,
        num_qubits: u8,
        sim_config: SimConfig,
    ) -> Result<SessionHandle, ServiceError> {
        BlockGeometry::check(num_qubits, sim_config.block_size)
            .map_err(|reason| ServiceError::Rejected { reason })?;
        if self.cfg.mailbox_capacity == 0 {
            return Err(ServiceError::Rejected {
                reason: "mailbox capacity of 0 admits no request".to_string(),
            });
        }
        let mut inner = lock(&self.inner);
        if inner.sessions.len() >= self.cfg.max_sessions {
            return Err(ServiceError::Rejected {
                reason: format!("session limit of {} reached", self.cfg.max_sessions),
            });
        }
        let id = SessionId(inner.next_id);
        inner.next_id += 1;
        let ckt = Ckt::with_executor(num_qubits, sim_config, Arc::clone(&self.executor));
        let shared = Arc::new(Shared::new(id, Writer::new(ckt), &self.cfg));
        let handle = SessionHandle { shared };
        inner.sessions.insert(id.0, handle.clone());
        drop(inner);
        handle.shared.publish_baseline();
        Ok(handle)
    }

    /// A fresh handle to an open session.
    pub fn session(&self, id: SessionId) -> Option<SessionHandle> {
        lock(&self.inner).sessions.get(&id.0).cloned()
    }

    /// Closes a session: marks it closing (new requests, and callers
    /// waiting for a place or a turn, get [`ServiceError::SessionClosed`])
    /// and closes it on this thread if no caller holds its turn; else the
    /// holder closes it when its turn ends, and this waits for that,
    /// unless the holder is this thread: an edit closure may close its
    /// own session, and the report then still shows it serving. Frees the
    /// slot and returns the final autopsy. Works on failed sessions too
    /// (that is how their slot is reaped); the report then shows `Failed`.
    pub fn close(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        let handle =
            lock(&self.inner)
                .sessions
                .remove(&id.0)
                .ok_or_else(|| ServiceError::Rejected {
                    reason: format!("unknown session {id}"),
                })?;
        if handle.shared.request_close() {
            handle.wait_for(|s| !s.is_serving(), Duration::MAX);
        }
        Ok(handle.report())
    }

    /// Closes every session (see [`SessionManager::close`]) and returns
    /// the autopsies, ordered by session id.
    pub fn shutdown(&self) -> Vec<SessionReport> {
        let ids: Vec<u64> = {
            let inner = lock(&self.inner);
            let mut ids: Vec<u64> = inner.sessions.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        ids.into_iter()
            .filter_map(|id| self.close(SessionId(id)).ok())
            .collect()
    }

    /// Autopsies of every open session, ordered by session id.
    pub fn reports(&self) -> Vec<SessionReport> {
        let inner = lock(&self.inner);
        let mut reports: Vec<SessionReport> = inner.sessions.values().map(|h| h.report()).collect();
        reports.sort_by_key(|r| r.session);
        reports
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        // Close every session without waiting for the holder of a turn:
        // a blocked client closure could otherwise pin us forever.
        let sessions = std::mem::take(&mut lock(&self.inner).sessions);
        for handle in sessions.into_values() {
            handle.shared.request_close();
        }
    }
}
