//! Service-layer integration tests that run in the default (tier-1)
//! build: the degraded-read surface never goes dark or tears while a
//! session is quarantined and recovered, and each request runs on its
//! own caller's thread, on the caller's turn, so a client closure that
//! blocks (or closes another session, or its own) holds up no other
//! session, even on a 1-worker pool, and may borrow its caller's
//! locals. Turns come in order and each caller runs only its own
//! request, so no client's traffic holds another's caller past its
//! deadline. Backpressure (a caller facing a full line waits on the
//! session's condvar for a place, a close or its deadline) and a caller
//! that times out before its turn are tested next to the session code,
//! in `qtask-service`'s own unit tests.

use qtask::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const EPS: f64 = 1e-9;

fn assert_close(got: &[Complex64], want: &[Complex64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.re - w.re).abs() < EPS && (g.im - w.im).abs() < EPS,
            "{ctx}: amplitude {i}: got {g:?}, want {w:?}"
        );
    }
}

/// Satellite: degraded reads vs an oracle. Readers hammering
/// [`SessionHandle::snapshot`] across a writer kill + recovery must
/// always observe some fully published version — correct amplitudes for
/// its version number, monotonically non-decreasing, never `None`,
/// never torn — while the watchdog quarantines and heals the session.
#[test]
fn degraded_reads_serve_last_published_version_through_recovery() {
    let mgr = SessionManager::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_default_deadline(Duration::from_secs(30)),
    );
    let n = 6u8;
    let h = mgr.open(n, SimConfig::default()).unwrap();

    // Build the oracle: every published version's exact amplitudes,
    // recorded from the writer side, cross-checked against a fresh
    // re-simulation of the circuit at that version.
    let mut oracle: HashMap<u64, Vec<Complex64>> = HashMap::new();
    let base = h.snapshot().expect("baseline snapshot");
    oracle.insert(base.version(), base.state());
    for q in 0..4u8 {
        let out = h
            .edit(move |tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::H, net, &[q])?;
                tx.insert_gate(GateKind::Rz(0.25 + q as f64), net, &[(q + 1) % n])?;
                Ok(())
            })
            .unwrap();
        let snap = h.snapshot().unwrap();
        assert_eq!(
            snap.version(),
            out.version,
            "publish must precede the reply"
        );
        let (circuit, cv) = h.circuit().unwrap();
        assert_eq!(cv, out.version);
        let mut resim = Ckt::from_circuit(&circuit, SimConfig::default());
        resim.update_state().unwrap();
        assert_close(
            &snap.state(),
            &resim.latest_snapshot().unwrap().state(),
            "oracle cross-check",
        );
        oracle.insert(out.version, snap.state());
    }
    let v_last = h.version();
    let expect_last = Arc::new(oracle[&v_last].clone());
    let oracle = Arc::new(oracle);
    let pre = h.snapshot().unwrap();

    // Readers spin on the degraded-read surface through the entire
    // quarantine → recovery window.
    let stop = Arc::new(AtomicBool::new(false));
    let total_reads = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let h = h.clone();
            let stop = Arc::clone(&stop);
            let oracle = Arc::clone(&oracle);
            let expect_last = Arc::clone(&expect_last);
            let total_reads = Arc::clone(&total_reads);
            std::thread::spawn(move || {
                let mut last_v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = h.snapshot().expect("degraded reads must never go dark");
                    let v = snap.version();
                    assert!(v >= last_v, "reader {r}: version went backwards");
                    last_v = v;
                    match oracle.get(&v) {
                        // A version we committed: bit-exact, or the read tore.
                        Some(want) => {
                            assert_eq!(snap.state(), *want, "reader {r}: torn read at v{v}")
                        }
                        // Republished by recovery: same circuit (the
                        // panicking edit never committed), newer version.
                        None => {
                            assert!(v > v_last, "reader {r}: unknown version {v}");
                            assert_close(
                                &snap.state(),
                                &expect_last,
                                &format!("reader {r}: recovery republication v{v}"),
                            );
                        }
                    }
                    total_reads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // The kill, quarantine and recovery run on this thread, so let the
    // readers start spinning before it.
    while total_reads.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    // Kill the writer mid-request; the watchdog quarantines and heals.
    let err = h
        .edit(|_| panic!("degraded-reads: client bug"))
        .unwrap_err();
    assert!(matches!(err, ServiceError::SessionPoisoned { .. }), "{err}");
    let state = h.wait_for(
        |s| matches!(s, SessionState::Recovered | SessionState::Failed),
        Duration::from_secs(30),
    );
    assert_eq!(state, SessionState::Recovered);
    // The mailbox is the barrier: once sync answers, the writer is back.
    let v_after = h.sync().unwrap();
    assert!(
        v_after >= v_last,
        "versions must stay monotonic across recovery"
    );

    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }
    assert!(total_reads.load(Ordering::Relaxed) > 0, "readers never ran");

    // Snapshots held across the incident are immutable.
    assert_eq!(pre.version(), v_last);
    assert_eq!(pre.state(), oracle[&v_last]);

    // The session serves on, extending the version history.
    let out = h
        .edit(|tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::X, net, &[5])?;
            Ok(())
        })
        .unwrap();
    assert!(out.version > v_last);
    let report = h.report();
    assert_eq!(report.recoveries, 1);
    assert!(!report.breaker_tripped);
    mgr.shutdown();
}

/// Runs `scenario` on a thread of its own and returns its result, or
/// fails once `limit` has passed: a scenario that hangs fails the test
/// instead of hanging the suite (its thread is left behind).
fn within<T: Send + 'static>(limit: Duration, scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(scenario());
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("scenario still running after {limit:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("scenario panicked"),
    }
}

fn one_worker_manager() -> SessionManager {
    SessionManager::new(
        ServiceConfig::default()
            .with_threads(1)
            .with_default_deadline(Duration::from_secs(10)),
    )
}

/// Session A's edit closure blocks on a channel this test holds. On a
/// 1-worker pool, session B's edit, sync and inspection must each still
/// answer `Ok` within 1 s: B's requests run on B's caller, not behind
/// A's closure.
#[test]
fn a_blocked_edit_closure_holds_up_only_its_own_session() {
    let mgr = one_worker_manager();
    let a = mgr.open(3, SimConfig::default()).unwrap();
    let b = mgr.open(3, SimConfig::default()).unwrap();
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let a_caller = {
        let a = a.clone();
        std::thread::spawn(move || {
            a.edit(move |_| {
                started_tx.send(()).unwrap();
                let _ = release_rx.recv();
                Ok(())
            })
        })
    };
    started_rx.recv().unwrap();
    let b_client = b.clone();
    let timed = within(Duration::from_secs(5), move || {
        let time = |op: &dyn Fn() -> bool| {
            let start = Instant::now();
            (op(), start.elapsed())
        };
        [
            time(&|| {
                b_client
                    .edit(|tx| {
                        let net = tx.push_net();
                        tx.insert_gate(GateKind::H, net, &[0]).map(|_| ())
                    })
                    .is_ok()
            }),
            time(&|| b_client.sync().is_ok()),
            time(&|| b_client.circuit().is_ok()),
        ]
    });
    for (op, (ok, took)) in ["edit", "sync", "circuit"].into_iter().zip(timed) {
        assert!(ok, "B's {op} failed");
        assert!(took < Duration::from_secs(1), "B's {op} took {took:?}");
    }
    assert!(!a_caller.is_finished(), "A's closure must still block");
    assert_eq!(b.circuit().unwrap().0.num_gates(), 1);
    release_tx.send(()).unwrap();
    assert!(a_caller.join().unwrap().is_ok());
    mgr.shutdown();
}

/// An edit closure of session A closes session B: on a 1-worker pool
/// the close returns B's `Closed` report, and A's edit commits.
#[test]
fn an_edit_closure_may_close_another_session() {
    let mgr = Arc::new(one_worker_manager());
    let a = mgr.open(3, SimConfig::default()).unwrap();
    let b = mgr.open(3, SimConfig::default()).unwrap();
    let (report_tx, report_rx) = mpsc::channel();
    let (closer, b_id, a_client) = (Arc::clone(&mgr), b.id(), a.clone());
    let outcome = within(Duration::from_secs(5), move || {
        a_client.edit(move |tx| {
            report_tx.send(closer.close(b_id)).unwrap();
            let net = tx.push_net();
            tx.insert_gate(GateKind::X, net, &[0]).map(|_| ())
        })
    });
    assert!(outcome.is_ok(), "{outcome:?}");
    let report = report_rx.recv().unwrap().expect("B was open");
    assert_eq!(report.session, b.id());
    assert_eq!(report.state, SessionState::Closed);
    assert_eq!(b.state(), SessionState::Closed);
    assert_eq!(mgr.live_sessions(), 1);
    assert_eq!(a.snapshot().unwrap().amplitude(1).re, 1.0);
    mgr.shutdown();
}

/// An edit closure closes its own session on a 1-worker pool: the close
/// returns without waiting for the turn the closure's caller holds, the
/// edit commits, and the session closes when that turn ends.
#[test]
fn an_edit_closure_may_close_its_own_session() {
    let mgr = Arc::new(one_worker_manager());
    let a = mgr.open(3, SimConfig::default()).unwrap();
    let (closer, a_client) = (Arc::clone(&mgr), a.clone());
    let outcome = within(Duration::from_secs(5), move || {
        let id = a_client.id();
        a_client.edit(move |tx| {
            closer.close(id).expect("A was open");
            let net = tx.push_net();
            tx.insert_gate(GateKind::X, net, &[0]).map(|_| ())
        })
    });
    assert!(outcome.is_ok(), "{outcome:?}");
    assert_eq!(a.state(), SessionState::Closed);
    assert_eq!(mgr.live_sessions(), 0);
    let sync = a.sync();
    assert!(
        matches!(sync, Err(ServiceError::SessionClosed { .. })),
        "{sync:?}"
    );
}

/// An edit closure runs on its caller's thread, so it may borrow the
/// caller's locals: here it reads a `Vec` of qubits and counts into a
/// local, neither of which is `'static`.
#[test]
fn an_edit_closure_may_borrow_its_callers_locals() {
    let mgr = one_worker_manager();
    let h = mgr.open(3, SimConfig::default()).unwrap();
    let qubits: Vec<u8> = vec![0, 2];
    let mut inserted = 0;
    h.edit(|tx| {
        let net = tx.push_net();
        for &q in &qubits {
            tx.insert_gate(GateKind::X, net, &[q])?;
            inserted += 1;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(inserted, qubits.len());
    assert_eq!(h.snapshot().unwrap().amplitude(0b101).re, 1.0);
    mgr.shutdown();
}

/// Two clients loop edits on one session while a third calls it with a
/// short deadline. Turns come in order and each caller runs only its
/// own request, so every call of all three returns within a bound of
/// its deadline: no client's traffic holds another's caller.
#[test]
fn callers_of_a_busy_session_each_return_near_their_deadline() {
    const LOOPER_DEADLINE: Duration = Duration::from_millis(100);
    const SHORT_DEADLINE: Duration = Duration::from_millis(20);
    const SLACK: Duration = Duration::from_millis(500);
    let mgr = one_worker_manager();
    let h = mgr.open(3, SimConfig::default()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let slowest = within(Duration::from_secs(10), move || {
        // Each edit holds the session for a while, so requests overlap.
        let edit = |h: &SessionHandle, deadline| {
            let start = Instant::now();
            let result = h.edit_with_deadline(
                |_| {
                    std::thread::sleep(Duration::from_millis(1));
                    Ok(())
                },
                deadline,
            );
            assert!(
                matches!(result, Ok(_) | Err(ServiceError::Timeout { .. })),
                "{result:?}"
            );
            start.elapsed()
        };
        let loopers: Vec<_> = (0..2)
            .map(|_| {
                let (h, stop) = (h.clone(), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let (mut calls, mut slowest) = (0u32, Duration::ZERO);
                    while !stop.load(Ordering::Relaxed) {
                        slowest = slowest.max(edit(&h, LOOPER_DEADLINE));
                        calls += 1;
                    }
                    (calls, slowest)
                })
            })
            .collect();
        let mut short = Duration::ZERO;
        for _ in 0..200 {
            short = short.max(edit(&h, SHORT_DEADLINE));
        }
        stop.store(true, Ordering::Relaxed);
        let loopers: Vec<(u32, Duration)> =
            loopers.into_iter().map(|l| l.join().unwrap()).collect();
        (short, loopers)
    });
    let (short, loopers) = slowest;
    assert!(
        short < SHORT_DEADLINE + SLACK,
        "the short-deadline caller took {short:?}"
    );
    for (calls, slowest) in loopers {
        assert!(calls > 0, "a looping client made no call");
        assert!(
            slowest < LOOPER_DEADLINE + SLACK,
            "a looping client's call took {slowest:?}"
        );
    }
    mgr.shutdown();
}
