//! Service soak: a [`SessionManager`] under mixed edit + query traffic.
//!
//! One client thread per session streams transactional edits (with a
//! deliberate writer kill mid-stream, so every run pays one supervised
//! recovery) while a reader thread per session hammers the degraded-read
//! surface. The chart is throughput and latency as the tenant count
//! grows on one shared worker pool — the multi-session contention the
//! service layer exists to manage — and emits `BENCH_service.json` at
//! the workspace root. That file is one run, a smoke point and not a
//! trajectory: its rows spread several-fold between runs of one tree,
//! so a claim about the soak takes interleaved runs of both trees.
//!
//! Every session count runs twice: with readers that spin on
//! `snapshot()`, and with readers that yield the CPU after each read.
//! Each session's requests run on its own client thread, the caller
//! that holds the session's turn, with the pool's workers joining its
//! simulation runs. Spinning readers keep every vCPU busy, so those
//! threads compete with them for the CPU; the yielding series shows the
//! service without that competition.

use qtask_bench::{harness_init, Opts};
use qtask_core::SimConfig;
use qtask_gates::GateKind;
use qtask_service::{ServiceConfig, SessionManager, SessionState};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: u8 = 10;
const EDITS_PER_SESSION: usize = 24;
const SESSION_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 64];

/// How each reader thread paces its snapshot reads.
#[derive(Clone, Copy)]
enum Readers {
    /// Back to back, never giving up the CPU.
    Spin,
    /// `yield_now()` after every read.
    Yield,
}

impl Readers {
    fn name(self) -> &'static str {
        match self {
            Readers::Spin => "spin",
            Readers::Yield => "yield",
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if v.is_empty() {
        return 0.0;
    }
    v[v.len() / 2]
}

struct SoakResult {
    sessions: usize,
    readers: Readers,
    wall_s: f64,
    edits: u64,
    edit_p50_ms: f64,
    edit_max_ms: f64,
    reads: u64,
    recoveries: u64,
}

fn soak(sessions: usize, readers: Readers, threads: usize) -> SoakResult {
    let mgr = SessionManager::new(
        ServiceConfig::default()
            .with_threads(threads)
            .with_max_sessions(sessions)
            .with_default_deadline(Duration::from_secs(60)),
    );
    let handles: Vec<_> = (0..sessions)
        .map(|_| mgr.open(N, SimConfig::default()).expect("open session"))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let reader_threads: Vec<_> = handles
        .iter()
        .map(|h| {
            let h = h.clone();
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = h.snapshot().expect("degraded reads never go dark");
                    std::hint::black_box(snap.version());
                    reads.fetch_add(1, Ordering::Relaxed);
                    if let Readers::Yield = readers {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let t0 = Instant::now();
    let clients: Vec<_> = handles
        .iter()
        .map(|h| {
            let h = h.clone();
            std::thread::spawn(move || {
                let n = N as usize;
                let mut latencies = Vec::with_capacity(EDITS_PER_SESSION);
                for i in 0..EDITS_PER_SESSION {
                    if i == EDITS_PER_SESSION / 2 {
                        // Kill the writer mid-soak: the watchdog must
                        // absorb it without collapsing throughput.
                        let err = h.edit(|_| panic!("soak: injected client bug"));
                        assert!(err.is_err(), "panicking closure cannot commit");
                        h.sync().expect("writer back after recovery");
                    }
                    let q = |off: usize| ((3 * i + off) % n) as u8;
                    let (a, b, c, d) = (q(0), q(1), q(4), q(7));
                    let e0 = Instant::now();
                    h.edit(move |tx| {
                        let net = tx.push_net();
                        tx.insert_gate(GateKind::H, net, &[a])?;
                        tx.insert_gate(GateKind::Rz(0.3), net, &[b])?;
                        tx.insert_gate(GateKind::Cx, net, &[c, d])?;
                        Ok(())
                    })
                    .expect("soak edit");
                    latencies.push(e0.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();

    let mut latencies = Vec::new();
    for client in clients {
        latencies.extend(client.join().expect("client thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for reader in reader_threads {
        reader.join().expect("reader thread");
    }

    let mut recoveries = 0u64;
    for report in mgr.shutdown() {
        assert_eq!(report.state, SessionState::Closed);
        assert!(!report.breaker_tripped, "soak must never trip the breaker");
        recoveries += report.recoveries;
    }
    SoakResult {
        sessions,
        readers,
        wall_s,
        edits: latencies.len() as u64,
        edit_p50_ms: median(latencies.clone()),
        edit_max_ms: latencies.iter().cloned().fold(0.0, f64::max),
        reads: reads.load(Ordering::Relaxed),
        recoveries,
    }
}

fn main() {
    harness_init();
    // The soak kills each writer once on purpose; keep those panics out
    // of the output (the session's watchdog contains them) but let real
    // ones through.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("soak: injected client bug"));
        if !injected {
            default_hook(info);
        }
    }));
    let opts = Opts::from_env();
    println!(
        "\nService soak, {N} qubits, {} pool threads, {EDITS_PER_SESSION} \
         edits/session (+1 writer kill each):",
        opts.threads
    );
    println!(
        "{:<9} {:<7} {:>8} {:>10} {:>11} {:>11} {:>10} {:>10}",
        "sessions", "readers", "edits", "edits/s", "p50 (ms)", "max (ms)", "reads/s", "recoveries"
    );

    let mut rows_json = Vec::new();
    for readers in [Readers::Spin, Readers::Yield] {
        for sessions in SESSION_COUNTS {
            let r = soak(sessions, readers, opts.threads);
            let edit_rate = r.edits as f64 / r.wall_s;
            let read_rate = r.reads as f64 / r.wall_s;
            println!(
                "{:<9} {:<7} {:>8} {:>10.1} {:>11.3} {:>11.3} {:>10.0} {:>10}",
                r.sessions,
                r.readers.name(),
                r.edits,
                edit_rate,
                r.edit_p50_ms,
                r.edit_max_ms,
                read_rate,
                r.recoveries
            );
            rows_json.push(format!(
                "    {{\"sessions\": {}, \"readers\": \"{}\", \"edits\": {}, \
                 \"edit_throughput_per_s\": {:.2}, \"edit_p50_ms\": {:.4}, \
                 \"edit_max_ms\": {:.4}, \"reads\": {}, \"read_throughput_per_s\": {:.0}, \
                 \"recoveries\": {}}}",
                r.sessions,
                r.readers.name(),
                r.edits,
                edit_rate,
                r.edit_p50_ms,
                r.edit_max_ms,
                r.reads,
                read_rate,
                r.recoveries
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"service_soak\",\n  \"qubits\": {N},\n  \
         \"threads\": {},\n  \"edits_per_session\": {EDITS_PER_SESSION},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        opts.threads,
        rows_json.join(",\n")
    );
    // cargo runs benches with the package dir as cwd; the trajectory
    // file lives at the workspace root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => println!("\ncould not write {out}: {e}"),
    }
}
