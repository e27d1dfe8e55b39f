//! Produces a Chrome-trace JSON of an 8-session service soak:
//!
//! ```sh
//! cargo run --release --features obs --example trace_soak
//! ```
//!
//! then load `qtask_trace.json` in `chrome://tracing` (or
//! <https://ui.perfetto.dev>). Each pool worker and client thread gets a track;
//! zooming into a `session/edit` request shows the nested `update`
//! phases (`partition`/`fuse`/`build`/`kernel`/`snapshot`) and the
//! per-task executor spans underneath. One writer is killed mid-soak so
//! the trace also shows a `session/quarantine` instant, the `session/heal`
//! span, and the recovered session resuming.

#[cfg(not(feature = "obs"))]
fn main() {
    eprintln!("trace_soak needs the tracing feature:");
    eprintln!("    cargo run --release --features obs --example trace_soak");
    std::process::exit(1);
}

#[cfg(feature = "obs")]
fn main() {
    use qtask::obs::{validate_chrome_trace, TraceSink};
    use qtask::prelude::*;
    use std::time::Duration;

    const SESSIONS: usize = 8;
    const EDITS: usize = 6;
    const QUBITS: u8 = 8;

    qtask::obs::set_trace_enabled(true);
    TraceSink::clear_all();

    let mgr = SessionManager::new(
        ServiceConfig::default()
            .with_threads(2)
            .with_default_deadline(Duration::from_secs(30)),
    );
    let sessions: Vec<SessionHandle> = (0..SESSIONS)
        .map(|_| mgr.open(QUBITS, qtask::core::SimConfig::default()).unwrap())
        .collect();

    for round in 0..EDITS {
        for (i, h) in sessions.iter().enumerate() {
            let q = ((round + i) % QUBITS as usize) as u8;
            let p = ((round + i + 3) % QUBITS as usize) as u8;
            h.edit(move |tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::H, net, &[q])?;
                if p != q {
                    tx.insert_gate(GateKind::Rz(0.1 + round as f64), net, &[p])?;
                }
                Ok(())
            })
            .unwrap();
        }
        // Kill one writer mid-soak; the watchdog recovers it and the
        // autopsy keeps its final spans.
        if round == EDITS / 2 {
            let _ = sessions[0].edit(|_| panic!("injected writer kill"));
        }
    }
    for h in &sessions {
        let _ = h.snapshot().unwrap();
    }
    let reports = mgr.shutdown();

    let sink = TraceSink::drain();
    let chrome = sink.export_chrome();
    let stats = validate_chrome_trace(&chrome).expect("trace must validate");
    std::fs::write("qtask_trace.json", &chrome).expect("write qtask_trace.json");

    println!(
        "soaked {SESSIONS} sessions × {EDITS} edits: {} events, {} spans, {} instants",
        stats.events, stats.spans, stats.instants
    );
    let recovered = reports.iter().filter(|r| r.recoveries > 0).count();
    println!("sessions recovered: {recovered}");
    if let Some(r) = reports.iter().find(|r| !r.recent_trace.is_empty()) {
        println!("autopsy of session {} (last writer events):", r.session.0);
        for line in r.recent_trace.iter().rev().take(5).rev() {
            println!("    {line}");
        }
    }
    println!("\nmetrics snapshot:\n{}", qtask_obs::snapshot().to_json());
    println!("\nwrote qtask_trace.json — open it in chrome://tracing");
}
