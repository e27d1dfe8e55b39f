//! The session manager: admission, multiplexing, lifecycle.

use crate::session::{Envelope, Shared, Supervisor};
use crate::{ServiceConfig, ServiceError, SessionHandle, SessionId, SessionReport, SessionState};
use qtask_core::{BlockGeometry, Ckt, SimConfig};
use qtask_taskflow::Executor;
use std::collections::HashMap;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Entry {
    handle: SessionHandle,
    join: Option<JoinHandle<()>>,
}

/// Multiplexes many circuits (sessions) over one worker pool.
///
/// Each [`SessionManager::open`] admits a session (or rejects it at the
/// [`ServiceConfig::max_sessions`] limit), spawns its supervisor thread,
/// and hands back a cloneable [`SessionHandle`]. All sessions' engines
/// share the manager's [`Executor`], so simulation work from N writers
/// multiplexes over one set of worker threads; supervisor threads
/// themselves only orchestrate (receive, commit, publish) and block on
/// their mailboxes when idle.
///
/// Sibling isolation is structural: a session's quarantine, recovery,
/// or terminal failure touches nothing shared but the (stateless
/// between tasks) executor pool, so other sessions never observe it.
pub struct SessionManager {
    cfg: Arc<ServiceConfig>,
    executor: Arc<Executor>,
    inner: Mutex<Inner>,
}

struct Inner {
    next_id: u64,
    sessions: HashMap<u64, Entry>,
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
        lock(&self.inner)
            .sessions
            .values()
            .filter(|e| e.handle.state() != SessionState::Closed)
            .count()
    }

    /// Admits a new session simulating `num_qubits` qubits under
    /// `sim_config`, spawns its supervised writer, and blocks until the
    /// baseline snapshot is published (so the returned handle serves
    /// reads immediately and request ordering is deterministic).
    ///
    /// Admission control: a qubit count or block size no engine can
    /// take ([`BlockGeometry::check`]), or the
    /// [`ServiceConfig::max_sessions`] limit, is
    /// [`ServiceError::Rejected`] — nothing is spawned. A
    /// session whose engine is broken at birth is still *admitted* (it
    /// holds a slot); its health is observable via
    /// [`SessionHandle::state`] and the watchdog/breaker run as usual.
    pub fn open(
        &self,
        num_qubits: u8,
        sim_config: SimConfig,
    ) -> Result<SessionHandle, ServiceError> {
        BlockGeometry::check(num_qubits, sim_config.block_size)
            .map_err(|reason| ServiceError::Rejected { reason })?;
        let mut inner = lock(&self.inner);
        let live = inner
            .sessions
            .values()
            .filter(|e| e.handle.state() != SessionState::Closed)
            .count();
        if live >= self.cfg.max_sessions {
            return Err(ServiceError::Rejected {
                reason: format!("session limit of {} reached", self.cfg.max_sessions),
            });
        }
        let id = SessionId(inner.next_id);
        inner.next_id += 1;
        let shared = Arc::new(Shared::new(id));
        let (tx, rx) = sync_channel(self.cfg.mailbox_capacity);
        let mut ckt = Ckt::with_executor(num_qubits, sim_config, Arc::clone(&self.executor));
        let views = crate::push::ViewFanout::attach(&mut ckt, self.cfg.view_quota);
        let supervisor = Supervisor {
            ckt,
            rx,
            shared: Arc::clone(&shared),
            cfg: Arc::clone(&self.cfg),
            views,
        };
        let join = std::thread::Builder::new()
            .name(format!("qtask-session-{}", id.0))
            .spawn(move || supervisor.run())
            .expect("spawn session supervisor thread");
        let handle = SessionHandle {
            tx,
            shared,
            cfg: Arc::clone(&self.cfg),
        };
        inner.sessions.insert(
            id.0,
            Entry {
                handle: handle.clone(),
                join: Some(join),
            },
        );
        drop(inner);
        handle.wait_for(|s| s != SessionState::Admitted, self.cfg.default_deadline);
        Ok(handle)
    }

    /// A fresh handle to an open session.
    pub fn session(&self, id: SessionId) -> Option<SessionHandle> {
        lock(&self.inner)
            .sessions
            .get(&id.0)
            .map(|e| e.handle.clone())
    }

    /// Closes a session: asks its writer to stop, joins the supervisor
    /// thread, frees the slot, and returns the final autopsy. Works on
    /// failed sessions too (that is how their slot is reaped); the
    /// report then still shows `Failed`.
    pub fn close(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        let mut entry =
            lock(&self.inner)
                .sessions
                .remove(&id.0)
                .ok_or_else(|| ServiceError::Rejected {
                    reason: format!("unknown session {id}"),
                })?;
        // Blocking send: a busy writer drains its queue first, a dead
        // one has dropped the receiver (send fails, which is fine).
        let _ = entry.handle.tx.send(Envelope::close());
        if let Some(join) = entry.join.take() {
            let _ = join.join();
        }
        Ok(entry.handle.report())
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
        let mut reports: Vec<SessionReport> =
            inner.sessions.values().map(|e| e.handle.report()).collect();
        reports.sort_by_key(|r| r.session);
        reports
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        // Best-effort close; never block in Drop (a caller-held handle
        // clone with a full mailbox could otherwise pin us forever).
        // Writers whose Close did not fit exit anyway once the last
        // handle drops and their mailbox disconnects.
        let inner = lock(&self.inner);
        for entry in inner.sessions.values() {
            let _ = entry.handle.tx.try_send(Envelope::close());
        }
    }
}
