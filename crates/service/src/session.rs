//! One supervised session: a [`Ckt`] behind a fair deadline lock, and
//! the watchdog that heals it.
//!
//! A session owns no thread: each caller runs its own request on its
//! own thread, on its turn. Turns come from a FIFO ticket lock: a caller
//! takes a ticket once fewer than [`ServiceConfig::mailbox_capacity`]
//! callers wait in line, turns come in ticket order, and a caller still
//! waiting for a place or a turn at its deadline leaves without running
//! its request. The lock's mutex also guards the lifecycle state, and
//! one condvar paired with it carries every wait.
//!
//! Each request runs inside `catch_unwind`. A poisoned engine or a
//! panicked request quarantines the session, and its caller runs
//! [`Ckt::recover`] back to back, still on its turn, under a circuit
//! breaker (consecutive failures within a window trip the session to
//! terminal `Failed`). Throughout quarantine and recovery,
//! [`SessionHandle::snapshot`] keeps serving the last *published*
//! [`StateSnapshot`] — reads degrade to staleness, never to torn data
//! or a wedge.

use crate::subscription::{self, Subscription};
use crate::{lock, ServiceConfig, ServiceError};
use qtask_circuit::{Circuit, CircuitError};
use qtask_core::{Ckt, EditReceipt, EditTxn, StateSnapshot};
use qtask_views::{ViewQuery, ViewRegistry, ViewReport};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Opaque session identifier, unique within one [`crate::SessionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Lifecycle state of a session:
/// `Admitted → Active → (Quarantined → Recovered | Failed)* → Closed`.
/// `Recovered` serves exactly like `Active` (it is kept distinct so the
/// autopsy shows the session healed at least once); `Failed` and
/// `Closed` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admission succeeded; the opener has not published the baseline
    /// snapshot yet.
    Admitted,
    /// Serving, never quarantined.
    Active,
    /// A request panicked or the engine poisoned itself; its caller is
    /// running recovery on its turn. Other callers wait for their turn
    /// (or leave at their deadline); reads serve the last published
    /// snapshot.
    Quarantined,
    /// Serving again after at least one successful recovery.
    Recovered,
    /// Terminal: the circuit breaker tripped (too many failed
    /// recoveries). Reads still serve the last published snapshot.
    Failed,
    /// Terminal: closed by the client (or every handle was dropped).
    Closed,
}

impl SessionState {
    /// True for states in which the session accepts new requests.
    pub fn is_serving(self) -> bool {
        matches!(
            self,
            SessionState::Admitted
                | SessionState::Active
                | SessionState::Quarantined
                | SessionState::Recovered
        )
    }
}

/// What a committed service edit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditOutcome {
    /// The transaction's [`EditReceipt`].
    pub receipt: EditReceipt,
    /// Snapshot version published after the edit (readers at this
    /// version or later see the edit).
    pub version: u64,
}

/// Autopsy of a session, available at any time via
/// [`SessionHandle::report`] and returned by
/// [`crate::SessionManager::close`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// The session.
    pub session: SessionId,
    /// Lifecycle state at report time.
    pub state: SessionState,
    /// Edits committed and published.
    pub edits_ok: u64,
    /// Edits that ran and failed (typed error; circuit unchanged).
    pub edits_failed: u64,
    /// Requests shed without a ticket: the line stayed full until their
    /// deadline ([`ServiceError::Overloaded`]).
    pub shed: u64,
    /// Requests whose result was not ready by their caller's deadline:
    /// the caller left before its turn (the request never ran), or the
    /// request ran past the deadline (and took effect late).
    pub timeouts: u64,
    /// Successful recoveries.
    pub recoveries: u64,
    /// Failed recovery attempts.
    pub recovery_failures: u64,
    /// True once the circuit breaker tripped (state is then `Failed`).
    pub breaker_tripped: bool,
    /// Most recent poison/panic/recovery-failure reason.
    pub last_error: Option<String>,
    /// Version of the last published snapshot.
    pub last_version: u64,
    /// The final trace events of the thread that ran the failing request
    /// (rendered, oldest first), captured from its thread-local ring
    /// buffer at quarantine. Empty unless the `obs` feature is enabled
    /// and the session was quarantined at least once.
    pub recent_trace: Vec<String>,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[derive(Default)]
struct Stats {
    edits_ok: AtomicU64,
    edits_failed: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    recoveries: AtomicU64,
    recovery_failures: AtomicU64,
}

/// Interns every `service.*` aggregate a [`SessionReport`] feeds, so
/// metrics expositions cover them all from the first snapshot, even
/// counters whose path never ran (e.g. a recovery failure). Called once
/// per manager; interning an existing handle is a map lookup.
pub(crate) fn touch_service_metrics() {
    let _ = qtask_obs::counter!("service.edits_ok");
    let _ = qtask_obs::counter!("service.edits_failed");
    let _ = qtask_obs::counter!("service.shed");
    let _ = qtask_obs::counter!("service.timeouts");
    let _ = qtask_obs::counter!("service.recoveries");
    let _ = qtask_obs::counter!("service.recovery_failures");
    let _ = qtask_obs::counter!("service.breaker_tripped");
    let _ = qtask_obs::gauge!("service.mailbox_depth");
    let _ = qtask_obs::histogram!("service.queue_delay_us");
}

/// The session's deadline lock and lifecycle, under one mutex.
struct Gate {
    /// Tickets of the callers waiting for a turn, in ticket order.
    line: VecDeque<u64>,
    /// The ticket the next caller gets.
    next_ticket: u64,
    /// The thread holding the turn; set for good once the session closes.
    holder: Option<ThreadId>,
    /// Callers asleep on the condvar for a place or a turn; while there
    /// are none, a turn's end notifies no one.
    sleepers: usize,
    /// Close requested: waiting callers leave, and the session closes
    /// when the current turn ends.
    closing: bool,
    /// Lifecycle state; every change notifies the condvar.
    state: SessionState,
}

impl Gate {
    /// True while callers may take a ticket or a turn.
    fn admits(&self) -> bool {
        !self.closing && self.state.is_serving()
    }

    /// Whether the caller holding `ticket` may take the turn now: the
    /// gate admits, no one holds the turn, and `ticket` is first in line.
    fn turn_is(&self, ticket: u64) -> bool {
        self.admits() && self.holder.is_none() && self.line.front() == Some(&ticket)
    }
}

/// The engine and its views: what a caller runs its request on.
pub(crate) struct Writer {
    ckt: Ckt,
    /// The views subscribed to, attached to `ckt`: every publication
    /// patches them and wakes their waiting subscribers.
    views: ViewRegistry,
}

impl Writer {
    pub(crate) fn new(mut ckt: Ckt) -> Writer {
        let views = ViewRegistry::new();
        views.attach(&mut ckt);
        Writer { ckt, views }
    }
}

impl Drop for Writer {
    /// The session closed or failed, or its last handle went: waiting
    /// subscribers wake with [`crate::RecvError::Closed`].
    fn drop(&mut self) {
        self.views.close();
    }
}

/// One session, shared by every handle clone.
pub(crate) struct Shared {
    id: SessionId,
    cfg: Arc<ServiceConfig>,
    /// The last published snapshot — the degraded-read surface. Written
    /// only by the holder of the turn; read by any number of clients.
    latest: RwLock<Option<StateSnapshot>>,
    stats: Stats,
    last_error: Mutex<Option<String>>,
    recent_trace: Mutex<Vec<String>>,
    gate: Mutex<Gate>,
    /// Signalled on every state change, on close, and whenever a place
    /// or a turn frees while a caller waits.
    changed: Condvar,
    /// Locked only by the holder of the turn; `None` once the session is
    /// `Closed` or `Failed` (dropping it closes every subscription).
    writer: Mutex<Option<Writer>>,
}

impl Shared {
    /// An `Admitted` session over `writer` whose turn the calling thread
    /// holds; the opener must then call [`Shared::publish_baseline`].
    pub(crate) fn new(id: SessionId, writer: Writer, cfg: &Arc<ServiceConfig>) -> Shared {
        Shared {
            id,
            cfg: Arc::clone(cfg),
            latest: RwLock::new(None),
            stats: Stats::default(),
            last_error: Mutex::new(None),
            recent_trace: Mutex::new(Vec::new()),
            gate: Mutex::new(Gate {
                line: VecDeque::new(),
                next_ticket: 0,
                holder: Some(std::thread::current().id()),
                sleepers: 0,
                closing: false,
                state: SessionState::Admitted,
            }),
            changed: Condvar::new(),
            writer: Mutex::new(Some(writer)),
        }
    }

    /// The opener's turn: publishes the baseline snapshot, leaving
    /// `Admitted` only once readers have a consistent |0…0⟩ snapshot to
    /// degrade to. A config broken at birth (e.g. an impossible norm
    /// tolerance) goes straight into the quarantine → breaker path.
    pub(crate) fn publish_baseline(&self) {
        let mut writer = lock(&self.writer);
        let w = writer.as_mut().expect("an admitted session has its engine");
        match w.ckt.try_snapshot() {
            Ok(snap) => {
                self.publish(snap);
                self.set_state(SessionState::Active);
            }
            Err(e) => self.quarantine(&mut writer, e.to_string()),
        }
        self.end_turn(writer);
    }

    /// Waits for a place in line, then for this caller's turn, at most
    /// until `until`, and returns the engine, locked. A closing or
    /// terminal session refuses the caller, and so does a serving one
    /// whose turn this very thread holds — a request made from inside
    /// its own session's edit closure, whose turn could never come — with
    /// [`ServiceError::Rejected`] at once. At `until`, one waiting for a
    /// place is shed with [`ServiceError::Overloaded`], and one in line
    /// gets [`ServiceError::Timeout`]. Either way its request never runs.
    fn take_turn(
        &self,
        start: Instant,
        until: Option<Instant>,
    ) -> Result<MutexGuard<'_, Option<Writer>>, ServiceError> {
        let past_deadline = || until.is_some_and(|t| Instant::now() >= t);
        let mut gate = lock(&self.gate);
        if gate.admits() && gate.holder == Some(std::thread::current().id()) {
            return Err(ServiceError::Rejected {
                reason: format!(
                    "session {} is running this thread's own request: \
                     a request may not call into its own session",
                    self.id
                ),
            });
        }
        loop {
            if !gate.admits() {
                return Err(self.terminal_error(gate.state));
            }
            if gate.line.len() < self.cfg.mailbox_capacity {
                break;
            }
            if past_deadline() {
                self.note_shed();
                return Err(ServiceError::Overloaded {
                    session: self.id,
                    mailbox: self.cfg.mailbox_capacity,
                });
            }
            gate = self.sleep(gate, until);
        }
        let ticket = gate.next_ticket;
        gate.next_ticket += 1;
        gate.line.push_back(ticket);
        let ticketed = Instant::now();
        qtask_obs::gauge!("service.mailbox_depth").inc();
        let turn = loop {
            let turn = gate.turn_is(ticket);
            if turn || !gate.admits() || past_deadline() {
                break turn;
            }
            gate = self.sleep(gate, until);
        };
        self.leave_line(&mut gate, ticket);
        if !gate.admits() {
            return Err(self.terminal_error(gate.state));
        }
        if !turn {
            return Err(self.timeout(start));
        }
        gate.holder = Some(std::thread::current().id());
        drop(gate);
        qtask_obs::histogram!("service.queue_delay_us").record_duration_us(ticketed.elapsed());
        Ok(lock(&self.writer))
    }

    /// Takes `ticket` out of line, for its turn or because its caller
    /// leaves, and wakes the callers that may now take the freed place
    /// or the turn.
    fn leave_line(&self, gate: &mut Gate, ticket: u64) {
        let at = gate.line.iter().position(|&t| t == ticket);
        gate.line
            .remove(at.expect("a caller in line holds its ticket"));
        qtask_obs::gauge!("service.mailbox_depth").dec();
        if gate.sleepers > 0 {
            self.changed.notify_all();
        }
    }

    /// Sleeps on the condvar until notified or `until`.
    fn sleep<'a>(
        &'a self,
        mut gate: MutexGuard<'a, Gate>,
        until: Option<Instant>,
    ) -> MutexGuard<'a, Gate> {
        let left = until.map_or(Duration::MAX, |t| {
            t.saturating_duration_since(Instant::now())
        });
        gate.sleepers += 1;
        gate = self
            .changed
            .wait_timeout(gate, left)
            .unwrap_or_else(|e| e.into_inner())
            .0;
        gate.sleepers -= 1;
        gate
    }

    /// Ends the holder's turn. A closing session closes instead: the
    /// holder drops the engine, which closes every subscription, and
    /// sets `Closed` (a `Failed` session has no engine left and stays
    /// `Failed`); no turn is given again.
    fn end_turn(&self, mut writer: MutexGuard<'_, Option<Writer>>) {
        let mut gate = lock(&self.gate);
        if gate.closing {
            drop(gate);
            if writer.take().is_some() {
                self.set_state(SessionState::Closed);
            }
            return;
        }
        gate.holder = None;
        if gate.sleepers > 0 {
            self.changed.notify_all();
        }
    }

    /// Marks the session closing and wakes every waiting caller. If no
    /// one holds the turn, closes the session on this thread; else the
    /// holder closes it when its turn ends. Returns true when that
    /// holder is another thread, which the caller may wait for.
    pub(crate) fn request_close(&self) -> bool {
        let mut gate = lock(&self.gate);
        gate.closing = true;
        self.changed.notify_all();
        let me = std::thread::current().id();
        if gate.holder.is_some() {
            return gate.holder != Some(me);
        }
        gate.holder = Some(me);
        drop(gate);
        self.end_turn(lock(&self.writer));
        false
    }

    /// A request or the baseline killed the writer: quarantine, then
    /// heal, on the same turn. When the breaker trips, mark terminal
    /// `Failed` and drop the engine; every caller waiting for a turn
    /// wakes with [`ServiceError::SessionFailed`].
    fn quarantine(&self, writer: &mut Option<Writer>, reason: String) {
        // The failure happened on this very thread: its last trace
        // events are still in its ring. Attach them to the autopsy
        // before recovery overwrites the ring.
        self.capture_recent_trace();
        qtask_obs::event!("session/quarantine");
        self.note_error(reason);
        self.set_state(SessionState::Quarantined);
        let w = writer.as_mut().expect("a serving session has its engine");
        if w.heal(self) {
            return;
        }
        qtask_obs::counter!("service.breaker_tripped").inc();
        qtask_obs::event!("session/breaker_trip");
        *writer = None;
        self.set_state(SessionState::Failed);
    }

    /// The terminal error matching a session in `state`.
    fn terminal_error(&self, state: SessionState) -> ServiceError {
        match state {
            SessionState::Failed => ServiceError::SessionFailed { session: self.id },
            _ => ServiceError::SessionClosed { session: self.id },
        }
    }

    fn state(&self) -> SessionState {
        lock(&self.gate).state
    }

    fn set_state(&self, s: SessionState) {
        lock(&self.gate).state = s;
        self.changed.notify_all();
    }

    fn publish(&self, snap: StateSnapshot) {
        *self.latest.write().unwrap_or_else(|e| e.into_inner()) = Some(snap);
    }

    fn snapshot(&self) -> Option<StateSnapshot> {
        self.latest
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn version(&self) -> u64 {
        self.snapshot().map(|s| s.version()).unwrap_or(0)
    }

    fn note_error(&self, reason: String) {
        *lock(&self.last_error) = Some(reason);
    }

    // The note_* methods bump this session's [`Stats`] atomic, which
    // dies with the session, and the registry's process-wide aggregate
    // at the same site: the aggregate is the sum of every session's
    // report, and the registry grows by nothing per session.

    fn note_edit_ok(&self) {
        self.stats.edits_ok.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.edits_ok").inc();
    }

    fn note_edit_failed(&self) {
        self.stats.edits_failed.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.edits_failed").inc();
    }

    fn note_shed(&self) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.shed").inc();
    }

    /// Counts a timeout of a request submitted at `start`; returns its
    /// error.
    fn timeout(&self, start: Instant) -> ServiceError {
        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.timeouts").inc();
        ServiceError::Timeout {
            session: self.id,
            waited: start.elapsed(),
        }
    }

    fn note_recovery(&self) {
        self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.recoveries").inc();
    }

    fn note_recovery_failure(&self) {
        self.stats.recovery_failures.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.recovery_failures").inc();
    }

    /// Captures the current thread's last trace events into the autopsy.
    /// Called right after a request killed the writer, on the thread
    /// that ran the request, so its thread-local ring holds the
    /// failure's immediate history. No-op without `obs`.
    fn capture_recent_trace(&self) {
        #[cfg(feature = "obs")]
        {
            let rendered: Vec<String> = qtask_obs::recent_thread_events(32)
                .iter()
                .map(qtask_obs::TraceEvent::render)
                .collect();
            *lock(&self.recent_trace) = rendered;
        }
    }

    fn report(&self) -> SessionReport {
        let state = self.state();
        SessionReport {
            session: self.id,
            state,
            edits_ok: self.stats.edits_ok.load(Ordering::Relaxed),
            edits_failed: self.stats.edits_failed.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            recoveries: self.stats.recoveries.load(Ordering::Relaxed),
            recovery_failures: self.stats.recovery_failures.load(Ordering::Relaxed),
            breaker_tripped: state == SessionState::Failed,
            last_error: lock(&self.last_error).clone(),
            last_version: self.version(),
            recent_trace: lock(&self.recent_trace).clone(),
        }
    }
}

/// Client handle to one session. Cheap to clone; every clone talks to
/// the same supervised session. Dropping all handles (manager's
/// included) drops the session's engine and closes its subscriptions.
#[derive(Clone)]
pub struct SessionHandle {
    pub(crate) shared: Arc<Shared>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.shared.id)
            .field("state", &self.shared.state())
            .field("version", &self.shared.version())
            .finish()
    }
}

impl SessionHandle {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.shared.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.shared.state()
    }

    /// Blocks until `pred` holds for the session state (or `timeout`
    /// elapses) and returns the state observed last.
    pub fn wait_for(&self, pred: impl Fn(SessionState) -> bool, timeout: Duration) -> SessionState {
        let gate = lock(&self.shared.gate);
        let (gate, _timed_out) = self
            .shared
            .changed
            .wait_timeout_while(gate, timeout, |g| !pred(g.state))
            .unwrap_or_else(|e| e.into_inner());
        gate.state
    }

    /// The last published [`StateSnapshot`] — the degraded-read path.
    /// Takes no turn, so it never waits for the engine: during
    /// quarantine, recovery, and even terminal failure this keeps
    /// serving the newest consistent version.
    pub fn snapshot(&self) -> Option<StateSnapshot> {
        self.shared.snapshot()
    }

    /// Version of the last published snapshot (0 before the baseline).
    pub fn version(&self) -> u64 {
        self.shared.version()
    }

    /// The session's autopsy so far.
    pub fn report(&self) -> SessionReport {
        self.shared.report()
    }

    /// Submits a transactional edit with the configured default
    /// deadline (see [`SessionHandle::edit_with_deadline`]).
    ///
    /// `f` runs on this caller's thread, on its turn, so it may borrow
    /// the caller's locals; while it runs, this session runs nothing
    /// else, and other sessions are not held up. `f` may call into other
    /// sessions, and close any session: closing its own returns at once,
    /// and the session closes when `f`'s edit has committed. Any other
    /// request to its own session would wait for the turn `f` holds, so
    /// it returns [`ServiceError::Rejected`] at once instead, and counts
    /// no timeout.
    pub fn edit<F>(&self, f: F) -> Result<EditOutcome, ServiceError>
    where
        F: FnOnce(&mut EditTxn<'_>) -> Result<(), CircuitError>,
    {
        self.edit_with_deadline(f, self.shared.cfg.default_deadline)
    }

    /// Submits a transactional edit, bounded by `deadline` end to end:
    /// the caller waits for a place in line if the line is full, then
    /// for its turn, then runs `f` as for [`SessionHandle::edit`]. It
    /// returns by `deadline` unless its own edit is running then.
    ///
    /// Failure modes, all typed and all leaving the circuit unchanged:
    /// [`ServiceError::Overloaded`] (the line stayed full until the
    /// deadline; the edit never ran),
    /// [`ServiceError::SessionClosed`] (closed while it waited),
    /// [`ServiceError::Timeout`] (the edit had not completed by the
    /// deadline: either its turn never came, and it never ran, or it
    /// ran past the deadline and committed late),
    /// [`ServiceError::Engine`] (transaction invalid),
    /// [`ServiceError::SessionPoisoned`] (the engine died mid-request;
    /// the session has run recovery).
    pub fn edit_with_deadline<F>(
        &self,
        f: F,
        deadline: Duration,
    ) -> Result<EditOutcome, ServiceError>
    where
        F: FnOnce(&mut EditTxn<'_>) -> Result<(), CircuitError>,
    {
        let shared = &*self.shared;
        self.call(deadline, "session/edit", |w| {
            // Commit, re-simulate, publish. A typed error with a healthy
            // engine leaves the circuit exactly as before (the
            // transaction staged and aborted).
            let committed = w.ckt.edit(f).and_then(|((), receipt)| {
                w.ckt.update_state()?;
                Ok(receipt)
            });
            let receipt = committed.map_err(|e| {
                shared.note_edit_failed();
                ServiceError::Engine(e)
            })?;
            if let Some(snap) = w.ckt.latest_snapshot() {
                shared.publish(snap);
            }
            shared.note_edit_ok();
            Ok(EditOutcome {
                receipt,
                version: w.ckt.snapshot_version(),
            })
        })
    }

    /// Takes a turn, so every request whose caller was in line before
    /// this call has run or left; returns the then-current version.
    pub fn sync(&self) -> Result<u64, ServiceError> {
        self.ask("session/sync", |_| Ok(self.shared.version()))
    }

    /// A clone of the session's circuit and the version it corresponds
    /// to — the resimulation oracle for consistency checks.
    pub fn circuit(&self) -> Result<(Circuit, u64), ServiceError> {
        self.ask("session/inspect", |w| {
            Ok((w.ckt.circuit().clone(), self.shared.version()))
        })
    }

    /// Subscribes to `query` as an incrementally maintained view: on its
    /// turn, the caller registers it on the session's
    /// [`qtask_views::ViewRegistry`] and primes it from the latest
    /// snapshot. Every later publication patches the view in place, and
    /// the [`Subscription`] returns its value as a [`crate::ViewUpdate`]
    /// whenever the version is newer than the last one it returned, so
    /// a slow subscriber lags (counted) but never blocks the session. A
    /// version is received as the engine publishes it, so it may lead
    /// [`SessionHandle::snapshot`] until the edit that published it ends.
    ///
    /// Fails with [`ServiceError::Rejected`] when the query is invalid
    /// for the session's register or the per-session
    /// [`ServiceConfig::view_quota`] is exhausted (dropping a
    /// [`Subscription`] frees its slot at once).
    pub fn subscribe(&self, query: ViewQuery) -> Result<Subscription, ServiceError> {
        let (id, quota) = (self.shared.id, self.shared.cfg.view_quota);
        self.ask("session/subscribe", |w| {
            subscription::subscribe(&w.views, &w.ckt, quota, id, query)
        })
    }

    /// The session's view-maintenance counters ([`ViewReport`]): patches
    /// vs full refreshes, blocks repatched vs rescanned.
    pub fn view_report(&self) -> Result<ViewReport, ServiceError> {
        self.ask("session/view_report", |w| Ok(w.views.report()))
    }

    /// [`SessionHandle::call`] with the default deadline.
    fn ask<T>(
        &self,
        span: &'static str,
        op: impl FnOnce(&mut Writer) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        self.call(self.shared.cfg.default_deadline, span, op)
    }

    /// Shared request mechanics: probe, wait for a place and a turn, run
    /// `op` on the engine on this thread inside `catch_unwind`, end the
    /// turn; one deadline bounds it all. A panic anywhere in `op`
    /// (injected fault, panicking client closure, engine bug) or a
    /// poisoned engine quarantines the session, and the caller gets
    /// [`ServiceError::SessionPoisoned`]. Otherwise the request timed out
    /// exactly when its result was not ready by the deadline.
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn call<T>(
        &self,
        deadline: Duration,
        span: &'static str,
        op: impl FnOnce(&mut Writer) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        qtask_faults::fault_point_err!(
            "service/enqueue",
            ServiceError::injected("service/enqueue")
        );
        let start = Instant::now();
        let until = start.checked_add(deadline);
        let shared = &*self.shared;
        let mut writer = shared.take_turn(start, until)?;
        let w = writer.as_mut().expect("a serving session has its engine");
        let served = {
            let _span = qtask_obs::span!(span);
            catch_unwind(AssertUnwindSafe(|| {
                qtask_faults::fault_point!("service/writer");
                op(w)
            }))
        };
        // Why the request killed the engine, if it did.
        let killed = match &served {
            Ok(_) => w.ckt.poison_reason().map(str::to_string),
            Err(payload) => Some(panic_text(payload.as_ref())),
        };
        let result = match (served, killed) {
            (Ok(result), None) => result,
            (_, reason) => {
                let reason = reason.unwrap_or_default();
                shared.quarantine(&mut writer, reason.clone());
                Err(ServiceError::SessionPoisoned {
                    session: shared.id,
                    reason,
                })
            }
        };
        shared.end_turn(writer);
        match result {
            Err(e @ ServiceError::SessionPoisoned { .. }) => Err(e),
            _ if until.is_some_and(|t| Instant::now() > t) => Err(shared.timeout(start)),
            result => result,
        }
    }
}

impl Writer {
    /// Watchdog: recover the engine under the circuit breaker, attempt
    /// after attempt — [`Ckt::recover`] is a deterministic rebuild, so
    /// waiting between attempts would change nothing. Returns false when
    /// the breaker trips ([`ServiceConfig::breaker_threshold`]
    /// consecutive failures within [`ServiceConfig::breaker_window`]).
    fn heal(&mut self, shared: &Shared) -> bool {
        let _heal_span = qtask_obs::span!("session/heal");
        let mut failures = 0u32;
        let mut window_start = Instant::now();
        loop {
            match attempt_recovery(&mut self.ckt) {
                Ok(()) => {
                    shared.note_recovery();
                    if let Some(snap) = self.ckt.latest_snapshot() {
                        shared.publish(snap);
                    }
                    shared.set_state(SessionState::Recovered);
                    return true;
                }
                Err(e) => {
                    shared.note_recovery_failure();
                    shared.note_error(e.to_string());
                    if window_start.elapsed() > shared.cfg.breaker_window {
                        failures = 0;
                        window_start = Instant::now();
                    }
                    failures += 1;
                    if failures >= shared.cfg.breaker_threshold {
                        return false;
                    }
                }
            }
        }
    }
}

/// One recovery attempt, panic-contained: an unwind out of the recovery
/// path itself (probe or rebuild) must count as a *failed attempt* for
/// the breaker, never unwind out of the holder of the turn.
fn attempt_recovery(ckt: &mut Ckt) -> Result<(), ServiceError> {
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<(), ServiceError> {
        qtask_faults::fault_point_err!(
            "service/recover",
            ServiceError::injected("service/recover")
        );
        ckt.recover().map_err(ServiceError::Engine)?;
        Ok(())
    }));
    match result {
        Ok(r) => r,
        Err(payload) => Err(ServiceError::Engine(
            qtask_core::EngineError::RecoveryFailed {
                reason: panic_text(payload.as_ref()),
            },
        )),
    }
}

#[cfg(test)]
impl SessionHandle {
    /// Callers asleep waiting for a place in line: every sleeper that is
    /// not in line. (A caller in line counts only while it sleeps, so
    /// this never counts more than wait for a place.)
    pub(crate) fn waiting_submitters(&self) -> usize {
        let gate = lock(&self.shared.gate);
        gate.sleepers.saturating_sub(gate.line.len())
    }

    /// Callers in line, waiting for their turn.
    pub(crate) fn callers_in_line(&self) -> usize {
        lock(&self.shared.gate).line.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serving gate with callers 3, 4 and 5 in line and no holder.
    fn gate() -> Gate {
        Gate {
            line: VecDeque::from([3, 4, 5]),
            next_ticket: 6,
            holder: None,
            sleepers: 0,
            closing: false,
            state: SessionState::Active,
        }
    }

    /// The turn goes in ticket order: only the front of the line may
    /// take it, and no one while it is held or the session is closing.
    #[test]
    fn only_the_front_of_the_line_takes_a_free_turn() {
        let free = gate();
        assert!(free.turn_is(3));
        assert!(!free.turn_is(4) && !free.turn_is(5) && !free.turn_is(6));
        let held = Gate {
            holder: Some(std::thread::current().id()),
            ..gate()
        };
        assert!(!held.turn_is(3), "the turn is held");
        let closing = Gate {
            closing: true,
            ..gate()
        };
        assert!(!closing.turn_is(3), "the session is closing");
    }
}
