//! A session owns no OS thread: its requests run on the thread of
//! whichever caller serves it, and its engine's runs use that thread
//! plus the manager's pool, which does simulation work only. This test
//! counts the threads of the whole process, so it lives in a test binary
//! of its own, where no other test's threads come and go while it
//! counts.
#![cfg(target_os = "linux")]

use qtask::prelude::*;
use std::time::Duration;

/// The process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

#[test]
fn sessions_add_no_thread_beyond_the_pool() {
    const WORKERS: usize = 2;
    const SESSIONS: usize = 32;
    let before = threads();
    let mgr = SessionManager::new(
        ServiceConfig::default()
            .with_threads(WORKERS)
            .with_default_deadline(Duration::from_secs(30)),
    );
    let handles: Vec<SessionHandle> = (0..SESSIONS)
        .map(|_| mgr.open(4, SimConfig::default()).unwrap())
        .collect();
    for (i, h) in handles.iter().enumerate() {
        let q = (i % 4) as u8;
        h.edit(move |tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::H, net, &[q]).map(|_| ())
        })
        .unwrap();
    }
    let after = threads();
    assert!(
        after <= before + WORKERS,
        "{SESSIONS} sessions on {WORKERS} workers took the process from {before} to {after} threads"
    );
    let reports = mgr.shutdown();
    assert_eq!(reports.len(), SESSIONS);
    for r in reports {
        assert_eq!(r.state, SessionState::Closed);
        assert_eq!(r.edits_ok, 1);
    }
}
