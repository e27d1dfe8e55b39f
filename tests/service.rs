//! Service-layer integration tests that run in the default (tier-1)
//! build: the degraded-read surface never goes dark or tears while a
//! session is quarantined and recovered. Backpressure (a caller facing a
//! full mailbox waits on the session's condvar for a slot, a close or
//! its deadline) is tested next to the session code, in `qtask-service`'s
//! own unit tests.

use qtask::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
