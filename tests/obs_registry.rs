//! Tier-1 observability tests that run in the default build: the
//! always-on metrics registry must be exact under contention, it must
//! not grow with the number of sessions ever opened, and the service's
//! unlabeled aggregates must equal the sum of its per-session reports
//! (both are bumped at the same sites, so any drift is a routing bug).
//!
//! The registry is process-global, so these tests live in their own
//! binary and run one at a time (see [`serial`]). The engine-report
//! drift test lives in another binary (`obs_report_drift.rs`): the
//! service tests here drive engine updates that would pollute `core.*`
//! deltas measured in parallel.

use qtask::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Every test here interns metrics or measures registry deltas, so they
/// take turns: a sibling running in parallel would add names or move
/// the `service.*` aggregates under a measurement.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// How far counter `name` moved between two snapshots.
fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// `(counters, gauges, histograms)` registered so far.
fn registry_size() -> (usize, usize, usize) {
    let snap = qtask_obs::snapshot();
    (
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
    )
}

fn x_on(q: u8) -> impl FnOnce(&mut EditTxn<'_>) -> Result<(), CircuitError> + Send + 'static {
    move |tx| {
        let net = tx.push_net();
        tx.insert_gate(GateKind::X, net, &[q]).map(|_| ())
    }
}

/// Two gates on one qubit in one net: the engine rejects the edit.
fn conflicting_edit(tx: &mut EditTxn<'_>) -> Result<(), CircuitError> {
    let net = tx.push_net();
    tx.insert_gate(GateKind::H, net, &[0])?;
    tx.insert_gate(GateKind::X, net, &[0]).map(|_| ())
}

/// Deterministic per-thread value stream (no RNG state shared across
/// threads, so the expected histogram sum is computable up front).
fn lcg_stream(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % 4096
        })
        .collect()
}

/// N threads hammer one counter, one gauge, and one histogram; nothing
/// may be lost, and snapshots taken mid-flight must be monotonic (a
/// coherent read of sharded counters can lag, but never run backwards).
#[test]
fn hammered_metrics_lose_nothing_and_snapshots_are_monotonic() {
    let _serial = serial();
    const THREADS: usize = 8;
    const OPS: usize = 20_000;
    let streams: Vec<Vec<u64>> = (0..THREADS as u64)
        .map(|t| lcg_stream(0x5EED + t, OPS))
        .collect();
    let expected_sum: u64 = streams.iter().flatten().sum();

    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last_count = 0u64;
            let mut last_hist = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = qtask_obs::snapshot();
                let c = snap.counter("test.hammer.count").unwrap_or(0);
                assert!(c >= last_count, "counter ran backwards: {c} < {last_count}");
                last_count = c;
                if let Some(h) = snap.histogram("test.hammer.value") {
                    // Bucket/count increments are separate atomics, so a
                    // mid-record snapshot may be off by the in-flight
                    // records — but never backwards.
                    assert!(h.count >= last_hist, "histogram count ran backwards");
                    last_hist = h.count;
                }
                std::thread::yield_now();
            }
        })
    };

    let workers: Vec<_> = streams
        .into_iter()
        .map(|stream| {
            std::thread::spawn(move || {
                let count = qtask_obs::registry().counter("test.hammer.count");
                let value = qtask_obs::registry().histogram("test.hammer.value");
                let depth = qtask_obs::registry().gauge("test.hammer.depth");
                for v in stream {
                    count.inc();
                    depth.inc();
                    value.record(v);
                    depth.dec();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    watcher.join().unwrap();

    let snap = qtask_obs::snapshot();
    assert_eq!(
        snap.counter("test.hammer.count"),
        Some((THREADS * OPS) as u64),
        "lost counter increments"
    );
    assert_eq!(snap.gauge("test.hammer.depth"), Some(0));
    let h = snap.histogram("test.hammer.value").unwrap();
    assert_eq!(h.count, (THREADS * OPS) as u64, "lost histogram records");
    assert_eq!(h.sum, expected_sum, "histogram sum drifted");
    assert_eq!(
        h.buckets.iter().sum::<u64>(),
        h.count,
        "at rest, buckets must sum to the count"
    );
    assert!(h.quantile(1.0) >= h.quantile(0.5));
}

/// A session's [`SessionReport`] and the registry's `service.*`
/// aggregates are bumped at the same sites, so over one session the
/// aggregates must move by exactly the report — and every aggregate the
/// report feeds must appear in both expositions.
#[test]
fn session_report_counters_match_registry_and_exposition() {
    let _serial = serial();
    let mgr = SessionManager::new(
        ServiceConfig::default()
            .with_threads(1)
            .with_default_deadline(Duration::from_secs(30)),
    );
    let before = qtask_obs::snapshot();
    let h = mgr.open(5, qtask::core::SimConfig::default()).unwrap();
    for q in 0..4u8 {
        h.edit(move |tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::H, net, &[q]).map(|_| ())
        })
        .unwrap();
    }
    assert!(h.edit(conflicting_edit).is_err());
    let report = mgr.close(h.id()).unwrap();

    let snap = qtask_obs::snapshot();
    assert_eq!(report.edits_ok, 4);
    assert_eq!(report.edits_failed, 1);
    let moved = |name: &str| delta(&snap, &before, name);
    assert_eq!(moved("service.edits_ok"), report.edits_ok);
    assert_eq!(moved("service.edits_failed"), report.edits_failed);
    assert_eq!(moved("service.shed"), report.shed);
    assert_eq!(moved("service.timeouts"), report.timeouts);
    assert_eq!(moved("service.recoveries"), report.recoveries);
    assert_eq!(moved("service.recovery_failures"), report.recovery_failures);
    // Queueing-delay histogram saw every dequeued client request.
    let delays = |s: &MetricsSnapshot| s.histogram("service.queue_delay_us").map_or(0, |h| h.count);
    assert!(delays(&snap) - delays(&before) >= report.edits_ok + report.edits_failed);
    // The mailbox gauge returns to level once every session is closed.
    assert_eq!(snap.gauge("service.mailbox_depth"), Some(0));

    // Exposition coverage: every metric the report feeds shows up in
    // both the JSON and the Prometheus text renderings, moved or not.
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    for name in [
        "service.edits_ok",
        "service.edits_failed",
        "service.shed",
        "service.timeouts",
        "service.recoveries",
        "service.recovery_failures",
        "service.breaker_tripped",
        "service.queue_delay_us",
        "service.mailbox_depth",
    ] {
        assert!(json.contains(name), "JSON exposition is missing {name}");
        let prom_name = format!("qtask_{}", name.replace('.', "_"));
        assert!(
            prom.contains(&prom_name),
            "Prometheus exposition is missing {prom_name}"
        );
    }
}

/// Opening and closing sessions must not grow the registry: per-session
/// numbers live in the session's report and die with it, and the
/// registry holds only process-wide aggregates, which equal the sum of
/// every report. Two managers both number their first session 1, which
/// must not merge their counts anywhere.
#[test]
fn registry_is_bounded_and_service_aggregates_are_exact() {
    let _serial = serial();
    let cfg = ServiceConfig::default()
        .with_threads(1)
        .with_mailbox_capacity(1)
        .with_default_deadline(Duration::from_secs(30));
    let (m1, m2) = (SessionManager::new(cfg.clone()), SessionManager::new(cfg));
    let before = qtask_obs::snapshot();
    let a = m1.open(4, qtask::core::SimConfig::default()).unwrap();
    let b = m2.open(4, qtask::core::SimConfig::default()).unwrap();
    assert_eq!(a.id(), SessionId(1));
    assert_eq!(b.id(), SessionId(1));

    // Session a: edits that commit, one the engine rejects, one that
    // times out and one that is shed. Edit A holds the turn, B waits in
    // line behind it and times out, never running, F takes the one
    // place in line with the default deadline, and C finds the line
    // full until its deadline.
    for q in 0..3 {
        a.edit(x_on(q)).unwrap();
    }
    assert!(a.edit(conflicting_edit).is_err());
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let held = a.clone();
    let holder = std::thread::spawn(move || {
        held.edit(move |_| {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
            Ok(())
        })
    });
    started_rx.recv().unwrap();
    let err = a
        .edit_with_deadline(x_on(1), Duration::from_millis(10))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Timeout { .. }), "{err}");
    let in_line = || qtask_obs::snapshot().gauge("service.mailbox_depth");
    let depth = in_line();
    let waiter = a.clone();
    let filler = std::thread::spawn(move || waiter.edit(x_on(1)));
    let start = std::time::Instant::now();
    while in_line() <= depth {
        assert!(start.elapsed() < Duration::from_secs(10), "F never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    let err = a
        .edit_with_deadline(x_on(2), Duration::from_millis(10))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }), "{err}");
    release_tx.send(()).unwrap();
    assert!(holder.join().unwrap().is_ok());
    assert!(filler.join().unwrap().is_ok());
    let mut reports = vec![m1.close(a.id()).unwrap()];
    assert_eq!(reports[0].shed, 1);
    assert_eq!(reports[0].timeouts, 1);
    let first = registry_size();

    // Session b shares a's id on the other manager; its report is its own.
    b.edit(x_on(0)).unwrap();
    reports.push(m2.close(b.id()).unwrap());
    assert_eq!(reports[1].edits_ok, 1);
    assert_eq!(reports[0].edits_ok, 5);

    for i in 0..200u8 {
        let mgr = if i % 2 == 0 { &m1 } else { &m2 };
        let h = mgr.open(4, qtask::core::SimConfig::default()).unwrap();
        h.edit(x_on(i % 4)).unwrap();
        reports.push(mgr.close(h.id()).unwrap());
    }
    assert_eq!((m1.live_sessions(), m2.live_sessions()), (0, 0));
    assert_eq!(
        registry_size(),
        first,
        "the registry grew with sessions opened after the first"
    );

    let after = qtask_obs::snapshot();
    let total = |field: fn(&SessionReport) -> u64| reports.iter().map(field).sum::<u64>();
    assert_eq!(
        delta(&after, &before, "service.edits_ok"),
        total(|r| r.edits_ok)
    );
    assert_eq!(
        delta(&after, &before, "service.edits_failed"),
        total(|r| r.edits_failed)
    );
    assert_eq!(delta(&after, &before, "service.shed"), total(|r| r.shed));
    assert_eq!(
        delta(&after, &before, "service.timeouts"),
        total(|r| r.timeouts)
    );
}

/// `views.registered` sums the views of every live registry: one
/// subscription on each of two sessions counts 2, dropping one leaves 1,
/// and closing everything returns the gauge to where it started. A
/// registry dropped with a view still registered takes it off too.
#[test]
fn registered_views_gauge_sums_every_registry() {
    let _serial = serial();
    let registered = || qtask_obs::snapshot().gauge("views.registered").unwrap_or(0);
    let base = registered();
    let mgr = SessionManager::new(
        ServiceConfig::default()
            .with_threads(1)
            .with_default_deadline(Duration::from_secs(30)),
    );
    let a = mgr.open(3, qtask::core::SimConfig::default()).unwrap();
    let b = mgr.open(3, qtask::core::SimConfig::default()).unwrap();
    let sub_a = a.subscribe(ViewQuery::Norm).unwrap();
    let sub_b = b.subscribe(ViewQuery::Norm).unwrap();
    assert_eq!(registered(), base + 2);
    drop(sub_a);
    assert_eq!(registered(), base + 1);
    mgr.shutdown();
    drop(sub_b);
    assert_eq!(registered(), base);

    let registry = ViewRegistry::new();
    let view = registry.register(Box::new(NormView::new()));
    assert_eq!(registered(), base + 1);
    drop(view);
    drop(registry);
    assert_eq!(registered(), base);
}
