//! Supervised multi-session simulation service.
//!
//! The MVCC reader/writer split (`qtask-core`) lets any number of
//! threads read version *v* while one writer builds *v+1* — but edits
//! still serialize on `&mut Ckt`. This crate is the service layer that
//! split was designed for: a [`SessionManager`] multiplexes many
//! circuits (*sessions*) over one worker pool. Each session is a
//! supervised engine behind a fair deadline lock: its callers take
//! turns, in the order they arrived, and each runs its own request on
//! its own thread on its turn, publishing versioned snapshots. The
//! pool does simulation work only, no client code. No session owns an
//! OS thread; an idle one costs none.
//!
//! Robustness is the point, threaded through every layer:
//!
//! - **Admission control** — [`ServiceConfig::max_sessions`] bounds the
//!   tenant count and [`ServiceConfig::mailbox_capacity`] bounds each
//!   tenant's callers waiting in line for a turn; that line is a
//!   session's one admission bound. A session past the tenant limit is
//!   typed [`ServiceError::Rejected`]; a caller finding the line full
//!   waits for a place (next bullet). Nothing queues unboundedly.
//! - **Deadlines** — one deadline bounds each request end to end. A
//!   caller that finds the line full waits on the session's condvar
//!   until a place frees, the session closes or fails, or its deadline
//!   passes; only then is it shed with [`ServiceError::Overloaded`].
//!   In line, it waits for its turn, and a caller whose deadline passes
//!   first leaves with [`ServiceError::Timeout`]: its request never
//!   runs. So every caller returns by its deadline unless its own
//!   request is running then; a request that runs past the deadline
//!   still takes effect, and its caller gets
//!   [`ServiceError::Timeout`]. Non-retryable failures surface
//!   immediately, among them a request an edit closure makes to its own
//!   session ([`ServiceError::Rejected`]): it would wait for the turn
//!   its own thread holds.
//! - **Backpressure, graceful degradation** — lines are bounded; when
//!   a request runs long or the session is quarantined, new callers wait
//!   for a place (and shed at their deadline) while
//!   [`SessionHandle::snapshot`], which takes no turn, keeps serving the
//!   last published version: reads degrade to *stale*, never to torn or
//!   blocked.
//! - **Supervision** — each request runs under a watchdog: a panic or
//!   a poisoned engine quarantines the session, and its caller runs
//!   [`qtask_core::Ckt::recover`] under a circuit breaker
//!   ([`ServiceConfig::breaker_threshold`] consecutive failures within
//!   [`ServiceConfig::breaker_window`] trip the terminal `Failed` state
//!   with a [`SessionReport`] autopsy). A failure never reaches a
//!   sibling's state, and a blocking client closure or a recovery
//!   delays only its own session's callers.
//!
//! Session lifecycle (see `DESIGN.md` §"Service & supervision"):
//! `Admitted → Active → (Quarantined → Recovered | Failed)* → Closed`.
//!
//! With the `faults` feature, the service path carries three probe
//! sites — `service/enqueue` (before a caller takes a ticket),
//! `service/writer` (in its turn) and `service/recover` — so the chaos
//! suite (`tests/chaos_service.rs`) can kill a session's engine
//! mid-transaction and assert the service heals.

#![forbid(unsafe_code)]

mod config;
mod error;
mod manager;
mod session;
mod subscription;

pub use config::ServiceConfig;
pub use error::ServiceError;
pub use manager::SessionManager;
pub use session::{EditOutcome, SessionHandle, SessionId, SessionReport, SessionState};
pub use subscription::{RecvError, Subscription, ViewUpdate};
// Convenience re-exports: subscribing needs the query/value vocabulary.
pub use qtask_views::{ViewQuery, ViewReport, ViewValue};

/// std mutexes poison on panic; all service state behind them is plain
/// data (counters, enums, snapshots), so clearing poisoning is sound.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtask_core::SimConfig;
    use qtask_gates::GateKind;
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    fn small_cfg() -> ServiceConfig {
        ServiceConfig::default()
            .with_threads(2)
            .with_default_deadline(Duration::from_secs(10))
    }

    #[test]
    fn open_edit_read_close_roundtrip() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(3, SimConfig::default()).unwrap();
        assert_eq!(h.state(), SessionState::Active);
        let baseline = h.snapshot().expect("baseline snapshot");
        assert_eq!(baseline.amplitude(0).re, 1.0);
        let out = h
            .edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::X, net, &[0])?;
                Ok(())
            })
            .unwrap();
        assert_eq!(out.receipt.gates_inserted, 1);
        assert!(out.version > baseline.version());
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.version(), out.version);
        assert_eq!(snap.amplitude(1).re, 1.0); // |001⟩
        let report = mgr.close(h.id()).unwrap();
        assert_eq!(report.state, SessionState::Closed);
        assert_eq!(report.edits_ok, 1);
        // The handle outlives the close with typed errors, and the
        // degraded-read surface still serves the last version.
        assert!(matches!(
            h.edit(|_| Ok(())),
            Err(ServiceError::SessionClosed { .. })
        ));
        assert_eq!(h.snapshot().unwrap().version(), out.version);
    }

    #[test]
    fn session_limit_rejects_then_frees_on_close() {
        let mgr = SessionManager::new(small_cfg().with_max_sessions(2));
        let a = mgr.open(2, SimConfig::default()).unwrap();
        let _b = mgr.open(2, SimConfig::default()).unwrap();
        assert_eq!(mgr.live_sessions(), 2);
        let err = mgr.open(2, SimConfig::default()).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected { .. }), "{err}");
        mgr.close(a.id()).unwrap();
        assert!(mgr.open(2, SimConfig::default()).is_ok());
        mgr.shutdown();
        assert_eq!(mgr.live_sessions(), 0);
    }

    #[test]
    fn invalid_geometry_is_rejected_not_panicked() {
        let mgr = SessionManager::new(small_cfg());
        let _a = mgr.open(2, SimConfig::default()).unwrap();
        for (n, cfg) in [
            (0, SimConfig::default()),
            (31, SimConfig::default()),
            (3, SimConfig::with_block_size(3)),
        ] {
            let err = mgr.open(n, cfg).unwrap_err();
            assert!(matches!(err, ServiceError::Rejected { .. }), "{err}");
            assert_eq!(mgr.live_sessions(), 1);
        }
        assert!(mgr.open(3, SimConfig::default()).is_ok());
        assert_eq!(mgr.live_sessions(), 2);
        mgr.shutdown();
    }

    #[test]
    fn zero_mailbox_capacity_is_rejected_at_open() {
        let cfg = ServiceConfig {
            mailbox_capacity: 0,
            ..small_cfg()
        };
        let mgr = SessionManager::new(cfg);
        let err = mgr.open(2, SimConfig::default()).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected { .. }), "{err}");
        assert_eq!(mgr.live_sessions(), 0);
    }

    #[test]
    fn invalid_transaction_is_typed_and_state_unchanged() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let v0 = h.version();
        let err = h
            .edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::X, net, &[0])?;
                tx.insert_gate(GateKind::H, net, &[9])?; // out of range
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, ServiceError::Engine(_)), "{err}");
        assert_eq!(h.version(), v0);
        assert_eq!(h.sync().unwrap(), v0);
        let (circuit, _) = h.circuit().unwrap();
        assert_eq!(circuit.num_gates(), 0); // transaction fully rolled back
        mgr.shutdown();
    }

    #[test]
    fn panicked_writer_is_quarantined_and_recovers() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(3, SimConfig::default()).unwrap();
        h.edit(|tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::H, net, &[1])?;
            Ok(())
        })
        .unwrap();
        let v = h.version();
        let before = h.snapshot().unwrap();
        // A panicking client closure kills the writer mid-request.
        let err = h
            .edit(|_| panic!("client bug in edit closure"))
            .unwrap_err();
        assert!(matches!(err, ServiceError::SessionPoisoned { .. }), "{err}");
        let state = h.wait_for(
            |s| matches!(s, SessionState::Recovered | SessionState::Failed),
            Duration::from_secs(30),
        );
        assert_eq!(state, SessionState::Recovered);
        // The circuit survived (panic hit staging, not the engine) and
        // the session serves again; versions stay monotonic.
        let out = h
            .edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::X, net, &[0])?;
                Ok(())
            })
            .unwrap();
        assert!(out.version > v);
        let after = h.snapshot().unwrap();
        assert!(after.version() > before.version());
        let report = mgr.close(h.id()).unwrap();
        assert_eq!(report.recoveries, 1);
        assert!(!report.breaker_tripped);
        assert!(report.last_error.unwrap().contains("client bug"));
    }

    #[test]
    fn breaker_trips_to_failed_without_disturbing_sibling() {
        let mgr = SessionManager::new(small_cfg().with_breaker(2, Duration::from_secs(10)));
        let sibling = mgr.open(2, SimConfig::default()).unwrap();
        sibling
            .edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::X, net, &[1])?;
                Ok(())
            })
            .unwrap();
        let sib_snap = sibling.snapshot().unwrap();
        // An impossible norm tolerance makes every publish — including
        // every recovery's — fail: deterministic breaker trip, no fault
        // injection needed.
        let broken = SimConfig {
            norm_tolerance: -1.0,
            ..SimConfig::default()
        };
        let h = mgr.open(2, broken).unwrap();
        let state = h.wait_for(|s| s == SessionState::Failed, Duration::from_secs(30));
        assert_eq!(state, SessionState::Failed);
        let report = h.report();
        assert!(report.breaker_tripped);
        assert_eq!(report.recovery_failures, 2);
        assert!(report.last_error.is_some());
        // Requests now get the terminal typed error.
        assert!(matches!(
            h.edit(|_| Ok(())),
            Err(ServiceError::SessionFailed { .. })
        ));
        // The sibling never noticed.
        assert_eq!(sibling.state(), SessionState::Active);
        let now = sibling.snapshot().unwrap();
        assert_eq!(now.version(), sib_snap.version());
        assert!(sibling.edit(|_| Ok(())).is_ok());
        let autopsy = mgr.close(h.id()).unwrap();
        assert_eq!(autopsy.state, SessionState::Failed);
        mgr.shutdown();
    }

    #[test]
    fn requests_queued_at_the_breaker_trip_fail_typed() {
        let mgr = SessionManager::new(small_cfg());
        // Every recovery of this engine fails. `open` runs the watchdog
        // on its own thread and returns once the breaker tripped, so
        // these requests are refused at admission. Callers waiting in
        // line when the holder of the turn trips the breaker are tested
        // in `tests/chaos_service.rs`.
        let broken = SimConfig {
            norm_tolerance: -1.0,
            ..SimConfig::default()
        };
        let h = mgr.open(20, broken).unwrap();
        let sync = h.sync();
        let circuit = h.circuit();
        let views = h.view_report();
        assert!(
            matches!(sync, Err(ServiceError::SessionFailed { .. })),
            "{sync:?}"
        );
        assert!(
            matches!(circuit, Err(ServiceError::SessionFailed { .. })),
            "{circuit:?}"
        );
        assert!(
            matches!(views, Err(ServiceError::SessionFailed { .. })),
            "{views:?}"
        );
        assert_eq!(h.report().recovery_failures, 3);
        mgr.shutdown();
    }

    /// The thread of a caller that submitted an edit.
    type Caller = JoinHandle<Result<EditOutcome, ServiceError>>;

    /// An edit on `h` whose closure holds the turn until the returned
    /// sender sends or drops. Returns once the closure runs: the release
    /// and the edit's caller thread.
    fn hold_turn(h: &SessionHandle) -> (mpsc::Sender<()>, Caller) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let held = h.clone();
        let a = std::thread::spawn(move || {
            held.edit(move |_| {
                started_tx.send(()).unwrap();
                let _ = release_rx.recv();
                Ok(())
            })
        });
        started_rx.recv().unwrap(); // A holds the turn: the line is empty.
        (release_tx, a)
    }

    /// Fills `h`'s capacity-1 line: edit A holds the turn (see
    /// [`hold_turn`]), edit B waits behind it with a short deadline and
    /// times out, leaving the line, and then caller F, with the default
    /// deadline, takes the one place in line.
    /// Returns the release, A's caller thread and F's.
    fn hold_full_mailbox(h: &SessionHandle) -> (mpsc::Sender<()>, Caller, Caller) {
        let (release, a) = hold_turn(h);
        let err = h
            .edit_with_deadline(|_| Ok(()), Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Timeout { .. }), "{err}");
        let waiter = h.clone();
        let f = std::thread::spawn(move || waiter.edit(|_| Ok(())));
        let start = Instant::now();
        while h.callers_in_line() < 1 {
            assert!(start.elapsed() < Duration::from_secs(10), "F never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        (release, a, f)
    }

    /// Waits until `n` submitters wait for a place in `h`'s full line.
    fn await_waiting(h: &SessionHandle, n: usize) {
        let start = Instant::now();
        while h.waiting_submitters() < n {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "no submitter blocked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn backpressure_admits_and_sheds_only_at_the_deadline() {
        let mgr = SessionManager::new(small_cfg().with_mailbox_capacity(1));
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let (release, a, f) = hold_full_mailbox(&h);
        let shed = h.report().shed;
        // C waits out its whole deadline for a slot, then sheds typed.
        let start = Instant::now();
        let err = h
            .edit_with_deadline(|_| Ok(()), Duration::from_millis(50))
            .unwrap_err();
        let waited = start.elapsed();
        assert!(matches!(err, ServiceError::Overloaded { .. }), "{err}");
        assert!(waited >= Duration::from_millis(50), "shed after {waited:?}");
        assert_eq!(h.report().shed, shed + 1);
        // Reads keep serving while the writer lags.
        assert!(h.snapshot().is_some());
        // D blocks with the default deadline; releasing A hands the turn
        // to F, which frees F's place, and that must wake D.
        let d_handle = h.clone();
        let d = std::thread::spawn(move || {
            let start = Instant::now();
            (d_handle.edit(|_| Ok(())), start.elapsed())
        });
        await_waiting(&h, 1);
        release.send(()).unwrap();
        let (result, waited) = d.join().unwrap();
        assert!(result.is_ok(), "{result:?}");
        assert!(waited < Duration::from_secs(5), "admitted after {waited:?}");
        assert!(a.join().unwrap().is_ok());
        assert!(f.join().unwrap().is_ok());
        assert_eq!(h.report().shed, shed + 1);
        mgr.shutdown();
    }

    #[test]
    fn close_wakes_a_blocked_submitter() {
        let mgr = SessionManager::new(small_cfg().with_mailbox_capacity(1));
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let (release, a, f) = hold_full_mailbox(&h);
        let e_handle = h.clone();
        let e = std::thread::spawn(move || {
            let start = Instant::now();
            let result = e_handle.edit_with_deadline(|_| Ok(()), Duration::from_secs(5));
            (result, start.elapsed())
        });
        await_waiting(&h, 1);
        std::thread::scope(|s| {
            let closer = s.spawn(|| mgr.close(h.id()));
            let (result, waited) = e.join().unwrap();
            assert!(
                matches!(result, Err(ServiceError::SessionClosed { .. })),
                "{result:?}"
            );
            assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
            assert!(!a.is_finished(), "A must still hold the turn");
            let in_line = f.join().unwrap();
            assert!(
                matches!(in_line, Err(ServiceError::SessionClosed { .. })),
                "{in_line:?}"
            );
            // Dropped here, or by a failed assert above, before the scope
            // joins `closer`, which waits for A to finish.
            drop(release);
            assert!(a.join().unwrap().is_ok());
            let report = closer.join().unwrap().unwrap();
            assert_eq!(report.state, SessionState::Closed);
        });
    }

    #[test]
    fn deadline_times_out_but_work_completes_late() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let err = h
            .edit_with_deadline(
                |tx| {
                    std::thread::sleep(Duration::from_millis(300));
                    let net = tx.push_net();
                    tx.insert_gate(GateKind::X, net, &[0])?;
                    Ok(())
                },
                Duration::from_millis(30),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Timeout { .. }), "{err}");
        // The writer still finished the edit after the caller gave up.
        let v = h.sync().unwrap();
        assert!(v >= 2);
        assert_eq!(h.snapshot().unwrap().amplitude(1).re, 1.0);
        assert_eq!(h.report().timeouts, 1);
        mgr.shutdown();
    }

    #[test]
    fn a_caller_that_times_out_before_its_turn_never_runs() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let (release, a) = hold_turn(&h);
        let before = h.report();
        let err = h
            .edit_with_deadline(
                |tx| {
                    let net = tx.push_net();
                    tx.insert_gate(GateKind::X, net, &[0])?;
                    Ok(())
                },
                Duration::from_millis(20),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Timeout { .. }), "{err}");
        release.send(()).unwrap();
        assert!(a.join().unwrap().is_ok());
        // The timed-out edit left with its caller: no later turn ran it.
        let (circuit, _) = h.circuit().unwrap();
        assert_eq!(circuit.num_gates(), 0);
        let after = h.report();
        assert_eq!(after.edits_ok, before.edits_ok + 1, "only A committed");
        assert_eq!(after.timeouts, before.timeouts + 1);
        mgr.shutdown();
    }

    /// A request an edit closure makes to its own session can never get
    /// the turn the closure holds: it is refused at once, well inside its
    /// 5 s deadline, and counts no timeout. The edit runs on a thread of
    /// its own, which a watchdog waits for, so a call that waits for its
    /// own turn fails the test instead of hanging it.
    #[test]
    fn a_request_from_its_own_sessions_edit_is_rejected_at_once() {
        let mgr = SessionManager::new(small_cfg().with_default_deadline(Duration::from_secs(5)));
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let before = h.report();
        let (done, watchdog) = mpsc::channel();
        let client = h.clone();
        let editor = std::thread::spawn(move || {
            let mut inner = None;
            let outcome = client.edit(|tx| {
                let t0 = Instant::now();
                inner = Some((client.sync(), t0.elapsed()));
                let net = tx.push_net();
                tx.insert_gate(GateKind::X, net, &[0])?;
                Ok(())
            });
            done.send(()).unwrap();
            (outcome, inner.expect("the closure ran"))
        });
        watchdog
            .recv_timeout(Duration::from_secs(30))
            .expect("the re-entrant call hung");
        let (outcome, (inner, waited)) = editor.join().unwrap();
        assert!(
            matches!(inner, Err(ServiceError::Rejected { .. })),
            "{inner:?}"
        );
        assert!(waited < Duration::from_millis(50), "waited {waited:?}");
        assert!(outcome.is_ok(), "the outer edit commits: {outcome:?}");
        assert_eq!(h.snapshot().unwrap().amplitude(1).re, 1.0);
        let after = h.report();
        assert_eq!(after.timeouts, before.timeouts);
        assert_eq!(after.edits_ok, before.edits_ok + 1);
        mgr.shutdown();
    }

    #[test]
    fn turns_come_in_ticket_order() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let (release, a) = hold_turn(&h);
        let order = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let callers: Vec<_> = (0..4)
            .map(|i| {
                let (client, order) = (h.clone(), std::sync::Arc::clone(&order));
                let caller = std::thread::spawn(move || {
                    client.edit(move |_| {
                        order.lock().unwrap().push(i);
                        Ok(())
                    })
                });
                // The next caller comes only once this one is in line.
                let start = Instant::now();
                while h.callers_in_line() < i + 1 {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "{i} never queued"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                caller
            })
            .collect();
        release.send(()).unwrap();
        assert!(a.join().unwrap().is_ok());
        for caller in callers {
            assert!(caller.join().unwrap().is_ok());
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        mgr.shutdown();
    }

    #[test]
    fn subscription_streams_updates_and_counts_maintenance() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(3, SimConfig::default()).unwrap();
        let sub = h
            .subscribe(ViewQuery::Marginal { qubits: vec![0] })
            .unwrap();
        // Primed from the baseline |000⟩ snapshot.
        let first = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.value.as_vector().unwrap(), &[1.0, 0.0]);

        h.edit(|tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::H, net, &[0])?;
            Ok(())
        })
        .unwrap();
        let update = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(update.version > first.version);
        let dist = update.value.as_vector().unwrap();
        assert!((dist[0] - 0.5).abs() < 1e-10 && (dist[1] - 0.5).abs() < 1e-10);

        let report = h.view_report().unwrap();
        assert_eq!(report.views, 1);
        assert!(report.full_refreshes >= 1, "priming rescans");
        mgr.shutdown();
        // Shutdown closes the channel; blocked receivers wake typed.
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            RecvError::Closed
        );
    }

    #[test]
    fn view_quota_rejects_then_drop_frees_the_slot() {
        let mgr = SessionManager::new(small_cfg().with_view_quota(1));
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let sub = h.subscribe(ViewQuery::Norm).unwrap();
        let err = h.subscribe(ViewQuery::Norm).unwrap_err();
        assert!(matches!(err, ServiceError::Rejected { .. }), "{err}");
        // Invalid queries are rejected without consuming quota.
        let err = h
            .subscribe(ViewQuery::Probability { basis: 1 << 10 })
            .unwrap_err();
        assert!(matches!(err, ServiceError::Rejected { .. }), "{err}");
        drop(sub);
        // Dropping the subscription unregistered its view.
        assert_eq!(h.view_report().unwrap().views, 0);
        assert!(h.subscribe(ViewQuery::Norm).is_ok());
        mgr.shutdown();
    }

    #[test]
    fn slow_subscriber_lags_to_latest_without_blocking_writer() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let sub = h.subscribe(ViewQuery::Probability { basis: 1 }).unwrap();
        // Consume the primed baseline so lag counts only overwrites.
        let _ = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        for _ in 0..4 {
            h.edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::X, net, &[0])?;
                Ok(())
            })
            .unwrap();
        }
        // Never consumed in between: the slot holds only the newest
        // value, and the writer finished all four edits regardless.
        let last = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(last.version, h.version());
        assert_eq!(sub.lagged(), 3);
        // 4 X gates: back to |00⟩, P(|01⟩) = 0.
        assert_eq!(last.value.as_scalar().unwrap(), 0.0);
        assert!(sub.try_recv().is_none());
        mgr.shutdown();
    }

    #[test]
    fn subscription_survives_writer_recovery() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(3, SimConfig::default()).unwrap();
        let sub = h.subscribe(ViewQuery::Norm).unwrap();
        let first = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.value.as_scalar().unwrap(), 1.0);
        // Kill the writer mid-request; the watchdog heals the engine and
        // recovery re-primes every view from the republished snapshot.
        let err = h.edit(|_| panic!("injected writer kill")).unwrap_err();
        assert!(matches!(err, ServiceError::SessionPoisoned { .. }), "{err}");
        let state = h.wait_for(
            |s| matches!(s, SessionState::Recovered | SessionState::Failed),
            Duration::from_secs(30),
        );
        assert_eq!(state, SessionState::Recovered);
        h.edit(|tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::H, net, &[1])?;
            Ok(())
        })
        .unwrap();
        let update = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(update.version, h.version());
        assert!((update.value.as_scalar().unwrap() - 1.0).abs() < 1e-10);
        mgr.shutdown();
    }

    // Client threads take their subscriptions with them.
    const _: fn() = || {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Subscription>();
    };

    /// A receive that ends a wait of its own: what it returned, and how
    /// long it waited.
    type Receiver = JoinHandle<(Result<ViewUpdate, RecvError>, Duration)>;

    /// Takes `sub`'s primed reading, then waits for a newer one, up to
    /// 30 s, on a thread of its own. Returns once that thread has had
    /// time to fall asleep.
    fn blocked_receiver(sub: Subscription) -> Receiver {
        assert!(sub.try_recv().is_some(), "primed from the baseline");
        let receiver = std::thread::spawn(move || {
            let start = Instant::now();
            (sub.recv_timeout(Duration::from_secs(30)), start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(100));
        receiver
    }

    /// Joins `receiver`, which must have been woken well before its
    /// timeout, and returns what it received.
    fn woken(receiver: Receiver) -> Result<ViewUpdate, RecvError> {
        let (result, waited) = receiver.join().unwrap();
        assert!(waited < Duration::from_secs(10), "woke after {waited:?}");
        result
    }

    #[test]
    fn a_blocked_receiver_wakes_for_a_commit() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let receiver = blocked_receiver(h.subscribe(ViewQuery::Norm).unwrap());
        let out = h
            .edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::H, net, &[0])?;
                Ok(())
            })
            .unwrap();
        let update = woken(receiver).unwrap();
        assert_eq!(update.version, out.version);
        assert!((update.value.as_scalar().unwrap() - 1.0).abs() < 1e-10);
        mgr.shutdown();
    }

    #[test]
    fn a_blocked_receiver_wakes_closed_when_the_session_closes() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let receiver = blocked_receiver(h.subscribe(ViewQuery::Norm).unwrap());
        mgr.close(h.id()).unwrap();
        assert_eq!(woken(receiver), Err(RecvError::Closed));
    }

    #[test]
    fn a_blocked_receiver_wakes_closed_when_every_handle_drops() {
        let mgr = SessionManager::new(small_cfg());
        let h = mgr.open(2, SimConfig::default()).unwrap();
        let receiver = blocked_receiver(h.subscribe(ViewQuery::Norm).unwrap());
        drop(h);
        drop(mgr);
        assert_eq!(woken(receiver), Err(RecvError::Closed));
    }

    #[test]
    fn sessions_share_one_executor_pool() {
        let mgr = SessionManager::new(small_cfg());
        let before = mgr.executor().tasks_run();
        let handles: Vec<_> = (0..4)
            .map(|_| mgr.open(4, SimConfig::default()).unwrap())
            .collect();
        for h in &handles {
            h.edit(|tx| {
                let net = tx.push_net();
                for q in 0..4 {
                    tx.insert_gate(GateKind::H, net, &[q])?;
                }
                Ok(())
            })
            .unwrap();
        }
        assert!(
            mgr.executor().tasks_run() > before,
            "session work must run on the shared pool"
        );
        for r in mgr.shutdown() {
            assert_eq!(r.state, SessionState::Closed);
            assert_eq!(r.edits_ok, 1);
        }
    }
}
