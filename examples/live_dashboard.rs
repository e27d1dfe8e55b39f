//! A terminal "dashboard" fed entirely by push subscriptions:
//!
//! ```sh
//! cargo run --release --example live_dashboard
//! ```
//!
//! Opens N service sessions, subscribes each to a live marginal
//! distribution and the state norm, then streams frames while the
//! writers keep editing underneath. Halfway through, one session's
//! writer is killed mid-edit; the watchdog quarantines and heals it,
//! the registry full-refreshes its views from the recovered snapshot,
//! and the subscription resumes streaming — the dashboard never sees a
//! stale value, only a version gap. The closing stats show the
//! patch-vs-refresh split per session and each subscription's lag.

use qtask::core::SimConfig;
use qtask::prelude::*;
use std::time::Duration;

const SESSIONS: usize = 4;
const ROUNDS: usize = 8;
const QUBITS: u8 = 6;
const FRAME_DEADLINE: Duration = Duration::from_secs(10);

fn bar(p: f64) -> String {
    "#".repeat((p * 24.0).round() as usize)
}

fn main() {
    let mgr = SessionManager::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_view_quota(2)
            .with_default_deadline(Duration::from_secs(30)),
    );
    let sessions: Vec<SessionHandle> = (0..SESSIONS)
        .map(|_| {
            mgr.open(QUBITS, SimConfig::default())
                .expect("open session")
        })
        .collect();

    // Two subscriptions per session — exactly the configured quota.
    let marginals: Vec<Subscription> = sessions
        .iter()
        .map(|h| {
            h.subscribe(ViewQuery::Marginal { qubits: vec![0, 1] })
                .expect("subscribe marginal")
        })
        .collect();
    let norms: Vec<Subscription> = sessions
        .iter()
        .map(|h| h.subscribe(ViewQuery::Norm).expect("subscribe norm"))
        .collect();

    println!(
        "live_dashboard — {SESSIONS} sessions, {ROUNDS} rounds, \
         marginal over qubits [0, 1] pushed after every publication\n"
    );

    for round in 0..ROUNDS {
        // Every session commits one edit that moves the watched marginal.
        for (i, h) in sessions.iter().enumerate() {
            let angle = 0.35 + 0.2 * (round * SESSIONS + i) as f64;
            h.edit(move |tx| {
                let rot = tx.push_net();
                tx.insert_gate(GateKind::Ry(angle), rot, &[0])?;
                let ent = tx.push_net();
                tx.insert_gate(GateKind::Cx, ent, &[0, 1])?;
                Ok(())
            })
            .expect("edit");
        }

        // Kill one writer mid-run: the edit fails, the watchdog heals the
        // session, and its views full-refresh from the recovered state.
        if round == ROUNDS / 2 {
            println!("-- injecting writer kill into session 0 --");
            let _ = sessions[0].edit(|_| panic!("injected writer kill"));
            let state =
                sessions[0].wait_for(|s| s == SessionState::Recovered, Duration::from_secs(30));
            println!("-- session 0 healed, state {state:?} --\n");
        }

        // Render the frame from the pushed updates alone — no queries.
        println!("frame {round}:");
        for (i, sub) in marginals.iter().enumerate() {
            let update = sub.recv_timeout(FRAME_DEADLINE).expect("marginal update");
            let dist = update.value.as_vector().expect("marginal is a vector");
            let norm = norms[i]
                .try_recv()
                .and_then(|u| u.value.as_scalar())
                .unwrap_or(1.0);
            print!("  s{i} v{:<4} |ψ|²={norm:.3} ", update.version);
            for (m, p) in dist.iter().enumerate() {
                print!(" {m:02b}:{p:.3}");
            }
            println!("  [{}]", bar(dist[3]));
        }
        println!();
    }

    println!("maintenance stats:");
    for (i, h) in sessions.iter().enumerate() {
        let vr = h.view_report().expect("view report");
        println!(
            "  s{i}: {} views, {} publishes, {} patches ({} blocks), \
             {} full refreshes ({} blocks), lag {}+{}",
            vr.views,
            vr.publishes,
            vr.patches,
            vr.blocks_repatched,
            vr.full_refreshes,
            vr.blocks_rescanned,
            marginals[i].lagged(),
            norms[i].lagged(),
        );
    }

    let reports = mgr.shutdown();
    let recovered = reports.iter().filter(|r| r.recoveries > 0).count();
    println!("\nsessions recovered: {recovered}");
    assert!(recovered >= 1, "the injected kill must have been healed");
    match marginals[0].recv_timeout(Duration::from_millis(50)) {
        Err(e) => println!("after shutdown the subscription reports: {e}"),
        Ok(u) => println!(
            "after shutdown a final pending update drained: v{}",
            u.version
        ),
    }
}
