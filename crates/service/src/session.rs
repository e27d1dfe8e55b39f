//! One supervised session: a [`Ckt`], its bounded mailbox, and the
//! watchdog that heals it.
//!
//! A session owns no thread: its callers serve it in turns. A caller
//! whose request is queued while no one serves (the mailbox's
//! `scheduled` flag is false) serves, on its own thread, the requests
//! queued ahead of its own and then its own, stopping early once its
//! deadline passes, and hands the session on. Other callers wait for
//! their reply or for the turn. The mailbox's mutex also guards the
//! lifecycle state, and one condvar paired with it carries every wait.
//!
//! Each request is served inside `catch_unwind`. A poisoned engine or a
//! panicked request quarantines the session, and the serving caller runs
//! [`Ckt::recover`] back to back under a circuit breaker (consecutive
//! failures within a window trip the session to terminal `Failed`).
//! Throughout quarantine and recovery, [`SessionHandle::snapshot`] keeps
//! serving the last *published* [`StateSnapshot`] — reads degrade to
//! staleness, never to torn data or a wedge.

use crate::push::{Subscription, ViewFanout};
use crate::{lock, ServiceConfig, ServiceError};
use qtask_circuit::{Circuit, CircuitError};
use qtask_core::{Ckt, EditReceipt, EditTxn, StateSnapshot};
use qtask_views::{ViewQuery, ViewReport};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
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
    /// Admission succeeded; the writer has not published its baseline
    /// snapshot yet.
    Admitted,
    /// Serving, never quarantined.
    Active,
    /// A request panicked or the engine poisoned itself; the watchdog
    /// is running recovery. Edits queue (or shed); reads serve the last
    /// published snapshot.
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
    /// True for states in which the writer accepts new requests.
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
    /// Edits that reached the writer and failed (typed error; circuit
    /// unchanged).
    pub edits_failed: u64,
    /// Requests shed before reaching the writer: the mailbox stayed
    /// full until their deadline ([`ServiceError::Overloaded`]).
    pub shed: u64,
    /// Requests whose caller gave up waiting (the writer may have
    /// completed them late).
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

/// The session's mailbox and lifecycle, under one mutex.
struct Mailbox {
    /// Requests with the time each was queued, to price queueing delay.
    queue: VecDeque<(Request, Instant)>,
    /// Requests taken off the queue so far: a request queued behind `n`
    /// others when this read `t` has been served once it exceeds `t + n`.
    taken: u64,
    /// A caller is serving the session; whoever sets it serves.
    scheduled: bool,
    /// Close requested: no request is queued any more, and the serving
    /// caller serves what is queued and then closes the session.
    closing: bool,
    /// Lifecycle state; every change notifies the condvar.
    state: SessionState,
    /// Callers asleep on the condvar (for a slot, a reply or a turn);
    /// the serving caller notifies only when there are some.
    waiting: usize,
}

impl Mailbox {
    /// True while new requests may be queued.
    fn admits(&self) -> bool {
        !self.closing && self.state.is_serving()
    }
}

/// The engine and its views: what a serving caller serves requests with.
pub(crate) struct Writer {
    pub(crate) ckt: Ckt,
    /// View subscriptions: the registry attached to `ckt` plus the push
    /// slot of each live subscriber.
    pub(crate) views: ViewFanout,
}

/// One session, shared by every handle clone.
pub(crate) struct Shared {
    id: SessionId,
    cfg: Arc<ServiceConfig>,
    /// The last published snapshot — the degraded-read surface. Written
    /// only by the serving caller; read by any number of clients.
    latest: RwLock<Option<StateSnapshot>>,
    stats: Stats,
    last_error: Mutex<Option<String>>,
    recent_trace: Mutex<Vec<String>>,
    mailbox: Mutex<Mailbox>,
    /// Signalled on every state change, on close, and after each served
    /// request while a caller waits.
    changed: Condvar,
    /// Locked only by the serving caller; `None` once the session is
    /// `Closed` or `Failed` (dropping it closes every subscription).
    writer: Mutex<Option<Writer>>,
}

impl Shared {
    /// An `Admitted` session serving `writer`, marked as served by its
    /// opener, which must then call [`Shared::publish_baseline`].
    pub(crate) fn new(id: SessionId, writer: Writer, cfg: &Arc<ServiceConfig>) -> Shared {
        Shared {
            id,
            cfg: Arc::clone(cfg),
            latest: RwLock::new(None),
            stats: Stats::default(),
            last_error: Mutex::new(None),
            recent_trace: Mutex::new(Vec::new()),
            mailbox: Mutex::new(Mailbox {
                queue: VecDeque::new(),
                taken: 0,
                scheduled: true,
                closing: false,
                state: SessionState::Admitted,
                waiting: 0,
            }),
            changed: Condvar::new(),
            writer: Mutex::new(Some(writer)),
        }
    }

    /// The opener's turn: publishes the baseline snapshot.
    pub(crate) fn publish_baseline(&self) {
        drop(self.serve(lock(&self.mailbox), 0, None));
    }

    /// Queues `req`, waiting while the mailbox is full (serving its
    /// oldest request if no caller does), and returns the mailbox still
    /// locked with the `taken` count at which `req` has been served. A
    /// closing or terminal session refuses `req`; a mailbox still full at
    /// `until` sheds it with [`ServiceError::Overloaded`].
    fn send(
        &self,
        req: Request,
        until: Option<Instant>,
    ) -> Result<(MutexGuard<'_, Mailbox>, u64), ServiceError> {
        let mut mailbox = lock(&self.mailbox);
        while mailbox.admits() && mailbox.queue.len() >= self.cfg.mailbox_capacity {
            if until.is_some_and(|t| Instant::now() >= t) {
                self.note_shed();
                return Err(ServiceError::Overloaded {
                    session: self.id,
                    mailbox: self.cfg.mailbox_capacity,
                });
            }
            let upto = mailbox.taken + 1;
            mailbox = self.wait_or_serve(mailbox, upto, until);
        }
        if !mailbox.admits() {
            return Err(self.terminal_error(mailbox.state));
        }
        let upto = mailbox.taken + mailbox.queue.len() as u64 + 1;
        mailbox.queue.push_back((req, Instant::now()));
        self.note_enqueued();
        Ok((mailbox, upto))
    }

    /// Takes the turn if no caller serves (serving until `upto` requests
    /// were taken), else sleeps on the condvar, at most until `until`.
    fn wait_or_serve<'a>(
        &'a self,
        mut mailbox: MutexGuard<'a, Mailbox>,
        upto: u64,
        until: Option<Instant>,
    ) -> MutexGuard<'a, Mailbox> {
        if !mailbox.scheduled {
            return self.serve(mailbox, upto, until);
        }
        let left = until.map_or(Duration::MAX, |t| {
            t.saturating_duration_since(Instant::now())
        });
        mailbox.waiting += 1;
        mailbox = self
            .changed
            .wait_timeout(mailbox, left)
            .unwrap_or_else(|e| e.into_inner())
            .0;
        mailbox.waiting -= 1;
        mailbox
    }

    /// Marks the session closing and wakes blocked submitters. An idle
    /// session is closed on this thread, a served one by its serving
    /// caller after the queue; this does not wait for that.
    pub(crate) fn request_close(&self) {
        let mut mailbox = lock(&self.mailbox);
        mailbox.closing = true;
        self.changed.notify_all();
        if !mailbox.scheduled {
            drop(self.serve(mailbox, u64::MAX, None));
        }
    }

    /// Takes a turn serving the session on this thread: sets `scheduled`
    /// and serves queued requests, oldest first, until `upto` have been
    /// taken off the queue in all, the queue is empty, or `until` passed;
    /// then clears the flag for a waiting caller to take the next turn and
    /// returns the mailbox still locked. A closing session is served to
    /// the end (at most a mailbox: nothing new is queued) and closed, and
    /// the flag stays set for good.
    fn serve<'a>(
        &'a self,
        mut mailbox: MutexGuard<'a, Mailbox>,
        upto: u64,
        until: Option<Instant>,
    ) -> MutexGuard<'a, Mailbox> {
        mailbox.scheduled = true;
        drop(mailbox);
        let mut writer = lock(&self.writer);
        if self.state() == SessionState::Admitted {
            // Baseline publish: leave `Admitted` only once readers have
            // a consistent |0…0⟩ snapshot to degrade to. A config broken
            // at birth (e.g. an impossible norm tolerance) goes straight
            // into the quarantine → breaker path instead.
            let w = writer.as_mut().expect("an admitted session has its engine");
            match w.ckt.try_snapshot() {
                Ok(snap) => {
                    self.publish(snap);
                    self.set_state(SessionState::Active);
                }
                Err(e) => self.quarantine(&mut writer, e.to_string()),
            }
        }
        loop {
            let mut mailbox = lock(&self.mailbox);
            // Wakes the callers of a reply just sent, of the slot freed
            // below, or of the turn handed over below.
            if mailbox.waiting > 0 {
                self.changed.notify_all();
            }
            if mailbox.closing && mailbox.queue.is_empty() {
                break;
            }
            let turn_over = mailbox.taken >= upto || until.is_some_and(|t| Instant::now() >= t);
            if mailbox.queue.is_empty() || (turn_over && !mailbox.closing) {
                mailbox.scheduled = false;
                return mailbox;
            }
            mailbox.taken += 1;
            let (req, queued_at) = mailbox.queue.pop_front().expect("the queue is not empty");
            drop(mailbox);
            self.note_dequeued(queued_at.elapsed());
            match writer.as_mut() {
                Some(w) => {
                    if let Err(reason) = w.serve(self, req) {
                        self.quarantine(&mut writer, reason);
                    }
                }
                // Breaker tripped: everything still queued gets the
                // terminal error.
                None => req.refuse(self.terminal_error(self.state())),
            }
        }
        if writer.take().is_some() {
            self.set_state(SessionState::Closed);
        }
        lock(&self.mailbox)
    }

    /// A request or the baseline killed the writer: quarantine, then
    /// heal. When the breaker trips, mark terminal `Failed` and drop the
    /// engine; whoever serves the queue from then on answers each
    /// request still queued with [`ServiceError::SessionFailed`].
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
        lock(&self.mailbox).state
    }

    fn set_state(&self, s: SessionState) {
        lock(&self.mailbox).state = s;
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

    fn note_timeout(&self) {
        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.timeouts").inc();
    }

    fn note_recovery(&self) {
        self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.recoveries").inc();
    }

    fn note_recovery_failure(&self) {
        self.stats.recovery_failures.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("service.recovery_failures").inc();
    }

    fn note_enqueued(&self) {
        qtask_obs::gauge!("service.mailbox_depth").inc();
    }

    fn note_dequeued(&self, queued_for: Duration) {
        qtask_obs::gauge!("service.mailbox_depth").dec();
        qtask_obs::histogram!("service.queue_delay_us").record_duration_us(queued_for);
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

type EditFn = Box<dyn FnOnce(&mut EditTxn<'_>) -> Result<(), CircuitError> + Send>;

/// A request's reply channel: the result and when it was ready.
/// Capacity 1, so the serving caller's send never blocks.
type Reply<T> = SyncSender<(Result<T, ServiceError>, Instant)>;

/// Sends `result`, stamped now; a caller that gave up gets nothing.
fn answer<T>(reply: Reply<T>, result: Result<T, ServiceError>) {
    let _ = reply.send((result, Instant::now()));
}

enum Request {
    Edit {
        op: EditFn,
        reply: Reply<EditOutcome>,
    },
    /// Barrier: replies with the current version once every earlier
    /// request has been processed.
    Sync { reply: Reply<u64> },
    /// Clone of the session's circuit (for oracles/resims) plus the
    /// version it corresponds to.
    Inspect { reply: Reply<(Circuit, u64)> },
    /// Register an incremental view subscription on the session's
    /// registry (quota-checked and primed by the serving caller, so it
    /// serializes naturally with publications).
    Subscribe {
        query: ViewQuery,
        reply: Reply<Subscription>,
    },
    /// The session's view-maintenance counters.
    ViewReport { reply: Reply<ViewReport> },
}

impl Request {
    /// Trace span name for processing this request kind.
    ///
    /// Only evaluated when the `obs` feature is on (the span macro
    /// compiles its argument away otherwise).
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    fn span_name(&self) -> &'static str {
        match self {
            Request::Edit { .. } => "session/edit",
            Request::Sync { .. } => "session/sync",
            Request::Inspect { .. } => "session/inspect",
            Request::Subscribe { .. } => "session/subscribe",
            Request::ViewReport { .. } => "session/view_report",
        }
    }

    /// Answers the request with `err` instead of serving it.
    fn refuse(self, err: ServiceError) {
        match self {
            Request::Edit { reply, .. } => answer(reply, Err(err)),
            Request::Sync { reply } => answer(reply, Err(err)),
            Request::Inspect { reply } => answer(reply, Err(err)),
            Request::Subscribe { reply, .. } => answer(reply, Err(err)),
            Request::ViewReport { reply } => answer(reply, Err(err)),
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
        let mailbox = lock(&self.shared.mailbox);
        let (mailbox, _timed_out) = self
            .shared
            .changed
            .wait_timeout_while(mailbox, timeout, |m| !pred(m.state))
            .unwrap_or_else(|e| e.into_inner());
        mailbox.state
    }

    /// The last published [`StateSnapshot`] — the degraded-read path.
    /// Never blocks on the writer: during quarantine, recovery, and even
    /// terminal failure this keeps serving the newest consistent
    /// version.
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
    /// `f` runs on the thread of whichever caller serves the session
    /// (see [`SessionHandle::edit_with_deadline`]); while it runs, this
    /// session serves nothing else, and other sessions are not held up.
    /// `f` may call into other sessions, even close them, but not into
    /// its own: a request to it times out, and
    /// [`crate::SessionManager::close`] on it never returns, as the
    /// session cannot finish serving while `f` runs.
    pub fn edit<F>(&self, f: F) -> Result<EditOutcome, ServiceError>
    where
        F: FnOnce(&mut EditTxn<'_>) -> Result<(), CircuitError> + Send + 'static,
    {
        self.edit_with_deadline(f, self.shared.cfg.default_deadline)
    }

    /// Submits a transactional edit, bounded by `deadline` end to end:
    /// a caller that finds the mailbox full blocks until a slot frees,
    /// and that wait counts against the same deadline as the reply. `f`
    /// runs on a caller's thread, as for [`SessionHandle::edit`].
    ///
    /// A caller that finds no one serving the session serves, on its own
    /// thread, the requests queued ahead of `f` and then `f`, never one
    /// queued behind, and stops between requests once `deadline` passed:
    /// it returns by `deadline` unless the request it runs then is still
    /// running.
    ///
    /// Failure modes, all typed and all leaving the circuit unchanged:
    /// [`ServiceError::Overloaded`] (mailbox full until the deadline;
    /// the edit was never queued),
    /// [`ServiceError::SessionClosed`] (closed while it waited),
    /// [`ServiceError::Timeout`] (the edit had not completed by the
    /// deadline and may still commit late: one still queued stays
    /// queued, and the next caller to serve the session runs it,
    /// possibly on another client's thread),
    /// [`ServiceError::Engine`] (transaction invalid),
    /// [`ServiceError::SessionPoisoned`] (writer died mid-request; the
    /// watchdog is recovering it).
    pub fn edit_with_deadline<F>(
        &self,
        f: F,
        deadline: Duration,
    ) -> Result<EditOutcome, ServiceError>
    where
        F: FnOnce(&mut EditTxn<'_>) -> Result<(), CircuitError> + Send + 'static,
    {
        self.call(
            |reply| Request::Edit {
                op: Box::new(f),
                reply,
            },
            deadline,
        )
    }

    /// Waits until the writer has processed every request submitted
    /// before this call; returns the then-current version.
    pub fn sync(&self) -> Result<u64, ServiceError> {
        self.ask(|reply| Request::Sync { reply })
    }

    /// A clone of the session's circuit and the version it corresponds
    /// to — the resimulation oracle for consistency checks.
    pub fn circuit(&self) -> Result<(Circuit, u64), ServiceError> {
        self.ask(|reply| Request::Inspect { reply })
    }

    /// Subscribes to `query` as an incrementally maintained view: the
    /// writer registers it on the session's [`qtask_views::ViewRegistry`],
    /// primes it from the latest snapshot, and pushes a [`crate::ViewUpdate`]
    /// after every publication — over a capacity-one overwrite-latest
    /// channel, so a slow subscriber lags (counted) but never blocks the
    /// writer.
    ///
    /// Fails with [`ServiceError::Rejected`] when the query is invalid
    /// for the session's register or the per-session
    /// [`ServiceConfig::view_quota`] is exhausted (dropping a
    /// [`Subscription`] frees its slot at the writer's next publication).
    pub fn subscribe(&self, query: ViewQuery) -> Result<Subscription, ServiceError> {
        self.ask(|reply| Request::Subscribe { query, reply })
    }

    /// The session's view-maintenance counters ([`ViewReport`]): patches
    /// vs full refreshes, blocks repatched vs rescanned.
    pub fn view_report(&self) -> Result<ViewReport, ServiceError> {
        self.ask(|reply| Request::ViewReport { reply })
    }

    /// [`SessionHandle::call`] with the default deadline.
    fn ask<T>(&self, make: impl FnOnce(Reply<T>) -> Request) -> Result<T, ServiceError> {
        self.call(make, self.shared.cfg.default_deadline)
    }

    /// Shared submit mechanics: probe, enqueue (waiting for a slot), then
    /// wait for the reply, taking a turn serving whenever no caller
    /// serves; one deadline bounds it all. The request timed out exactly
    /// when its reply was not ready by the deadline.
    fn call<T>(
        &self,
        make: impl FnOnce(Reply<T>) -> Request,
        deadline: Duration,
    ) -> Result<T, ServiceError> {
        qtask_faults::fault_point_err!(
            "service/enqueue",
            ServiceError::injected("service/enqueue")
        );
        let start = Instant::now();
        let until = start.checked_add(deadline);
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        let shared = &*self.shared;
        let (mut mailbox, upto) = shared.send(make(reply_tx), until)?;
        loop {
            // A reply already sent is received even past the deadline.
            match reply_rx.try_recv() {
                Ok((result, ready)) if until.is_none_or(|t| ready <= t) => return result,
                Ok(_) => break,
                // The request was dropped without a reply: the writer
                // died mid-request and the watchdog took over.
                Err(TryRecvError::Disconnected) => {
                    return Err(ServiceError::SessionPoisoned {
                        session: shared.id,
                        reason: lock(&shared.last_error)
                            .clone()
                            .unwrap_or_else(|| "writer task terminated mid-request".to_string()),
                    });
                }
                Err(TryRecvError::Empty) => {}
            }
            if until.is_some_and(|t| Instant::now() >= t) {
                break;
            }
            // No reply yet: the request is queued, or being served.
            mailbox = shared.wait_or_serve(mailbox, upto, until);
        }
        shared.note_timeout();
        Err(ServiceError::Timeout {
            session: shared.id,
            waited: start.elapsed(),
        })
    }
}

impl Writer {
    /// Serves one request inside `catch_unwind`. `Err` carries why the
    /// writer died — a panic anywhere here (injected fault, panicking
    /// client closure, engine bug) or a poisoned engine — and the serving
    /// caller quarantines. A panic drops the request unanswered: its caller
    /// observes [`ServiceError::SessionPoisoned`].
    fn serve(&mut self, shared: &Shared, req: Request) -> Result<(), String> {
        let _req_span = qtask_obs::span!(req.span_name());
        let served = catch_unwind(AssertUnwindSafe(|| {
            qtask_faults::fault_point!("service/writer");
            match req {
                Request::Sync { reply } => answer(reply, Ok(shared.version())),
                Request::Inspect { reply } => {
                    answer(reply, Ok((self.ckt.circuit().clone(), shared.version())))
                }
                Request::Subscribe { query, reply } => {
                    answer(reply, self.views.subscribe(&self.ckt, shared.id, query))
                }
                Request::ViewReport { reply } => answer(reply, Ok(self.views.report())),
                Request::Edit { op, reply } => match apply_edit(&mut self.ckt, op, shared) {
                    Ok(outcome) => {
                        shared.note_edit_ok();
                        // The publish inside apply_edit already patched
                        // every registered view (registry is an engine
                        // observer); deliver the fresh readings before
                        // taking the next request.
                        self.views.push_all();
                        answer(reply, Ok(outcome));
                    }
                    Err(e) => {
                        shared.note_edit_failed();
                        if self.ckt.is_poisoned() {
                            let reason = self.ckt.poison_reason().unwrap_or("engine poisoned");
                            let reason = reason.to_string();
                            answer(
                                reply,
                                Err(ServiceError::SessionPoisoned {
                                    session: shared.id,
                                    reason: reason.clone(),
                                }),
                            );
                            return Err(reason);
                        }
                        answer(reply, Err(e));
                    }
                },
            }
            Ok(())
        }));
        served.unwrap_or_else(|payload| Err(panic_text(payload.as_ref())))
    }

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
                    // recover() carried the view registry across and
                    // full-refreshed every view from the republished
                    // snapshot; subscribers get the healed values now.
                    self.views.push_all();
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
/// the breaker, never unwind out of the serving caller.
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

/// Commit one transaction, re-simulate, publish. A typed error with a
/// healthy engine leaves the circuit exactly as before (the transaction
/// staged and aborted); a poisoning error is escalated by the caller.
fn apply_edit(ckt: &mut Ckt, op: EditFn, shared: &Shared) -> Result<EditOutcome, ServiceError> {
    let (_, receipt) = ckt.edit(|tx| op(tx)).map_err(ServiceError::Engine)?;
    ckt.update_state().map_err(ServiceError::Engine)?;
    if let Some(snap) = ckt.latest_snapshot() {
        shared.publish(snap);
    }
    Ok(EditOutcome {
        receipt,
        version: ckt.snapshot_version(),
    })
}

#[cfg(test)]
impl SessionHandle {
    /// Callers asleep on the session's condvar (for a mailbox slot, a
    /// reply or a turn).
    pub(crate) fn waiting_submitters(&self) -> usize {
        lock(&self.shared.mailbox).waiting
    }
}
