//! Incremental view maintenance vs from-scratch re-query.
//!
//! The qtask-views pitch in one chart: a subscribed query holding
//! per-block partial aggregates pays O(|Δ∩B|) per publication — the
//! write set of the toggle, not the state — while a poll-style reader
//! recomputes the same answer over every block of every new snapshot.
//!
//! Protocol: a 14-qubit circuit (an H wall for a dense state, then a
//! depth-`d` T chain) publishes one toggle of a `Ccz(13,12,11)` at the
//! tail. That toggle's write set is exactly the blocks where all three
//! control/target bits can be set — 32 of 256 at block size 64 — and is
//! *independent of depth*. A recording observer captures the published
//! `(snapshot, delta)` pair once; the measurement then times
//! [`View::patch`] against that pair (idempotent: partials are
//! recomputed from the snapshot and the delta's block norms) vs a
//! from-scratch [`View::refresh`].
//!
//! Emits `BENCH_views.json` at the workspace root: per depth, the
//! median patch and re-query microseconds plus their ratio. The
//! acceptance gate is patch flat in depth and ≥5x cheaper than re-query
//! from depth 512 up.

use qtask_bench::{harness_init, median_of, write_bench_json, Opts};
use qtask_core::{BlockDelta, Ckt, SimConfig, SnapshotObserver, StateSnapshot};
use qtask_gates::GateKind;
use qtask_views::{ProbabilityView, View};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N: u8 = 14;
const BLOCK: usize = 64;
const DEPTHS: [usize; 6] = [64, 128, 256, 512, 1024, 2048];
/// Patch/refresh calls per timed sample (one call is sub-millisecond).
const INNER: usize = 64;

/// Captures the latest published `(snapshot, delta)` pair.
struct Recorder(Mutex<Option<(StateSnapshot, BlockDelta)>>);

impl SnapshotObserver for Recorder {
    fn on_publish(&self, snap: &StateSnapshot, delta: &BlockDelta) {
        *self.0.lock().unwrap() = Some((snap.clone(), delta.clone()));
    }
}

/// Builds the depth-`d` circuit, publishes the baseline, then captures
/// the `(snapshot, delta)` of one tail `Ccz` insertion.
fn capture_toggle(depth: usize, threads: usize) -> (StateSnapshot, BlockDelta) {
    let mut cfg = SimConfig::with_block_size(BLOCK);
    cfg.num_threads = threads;
    let mut ckt = Ckt::with_config(N, cfg);
    let wall = ckt.push_net();
    for q in 0..N {
        ckt.insert_gate(GateKind::H, wall, &[q]).unwrap();
    }
    for _ in 0..depth {
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::T, net, &[13]).unwrap();
    }
    ckt.update_state().unwrap();
    let rec = Arc::new(Recorder(Mutex::new(None)));
    ckt.attach_observer(rec.clone());
    let tail = ckt.push_net();
    ckt.insert_gate(GateKind::Ccz, tail, &[13, 12, 11]).unwrap();
    ckt.update_state().unwrap();
    let captured = rec.0.lock().unwrap().take().expect("publication observed");
    captured
}

fn main() {
    harness_init();
    let opts = Opts::from_env();
    let reps = opts.reps.max(3);
    println!(
        "\nView maintenance vs re-query — {N} qubits, block size {BLOCK}, \
         {} threads, marginal over [11,12,13] (median of {reps} × {INNER}):",
        opts.threads
    );
    println!(
        "{:<8} {:>7} {:>8} {:>12} {:>13} {:>9}",
        "depth", "dirty", "blocks", "patch (µs)", "requery (µs)", "speedup"
    );

    let mut rows_json = Vec::new();
    for depth in DEPTHS {
        let (snap, delta) = capture_toggle(depth, opts.threads);
        let blocks = snap.geometry().num_blocks();
        assert!(!delta.full, "tail toggle must publish an incremental delta");

        // The subscribed view, primed at the captured version; patching
        // the same delta again recomputes the same dirty partials.
        let mut view = ProbabilityView::marginal(vec![11, 12, 13]);
        view.refresh(&snap);
        let patch_us = median_of(reps, || {
            let t0 = Instant::now();
            for _ in 0..INNER {
                view.patch(&snap, &delta);
            }
            t0.elapsed().as_secs_f64() * 1e6 / INNER as f64
        });

        // The poll-style reader: every new version, scan every block.
        let mut scratch = ProbabilityView::marginal(vec![11, 12, 13]);
        let requery_us = median_of(reps, || {
            let t0 = Instant::now();
            for _ in 0..INNER {
                scratch.refresh(&snap);
            }
            t0.elapsed().as_secs_f64() * 1e6 / INNER as f64
        });
        assert_eq!(view.value(), scratch.value(), "patched == re-queried");

        let speedup = requery_us / patch_us;
        println!(
            "{depth:<8} {:>7} {blocks:>8} {patch_us:>12.2} {requery_us:>13.2} {speedup:>8.1}x",
            delta.dirty.len()
        );
        rows_json.push(format!(
            "    {{\"depth\": {depth}, \"dirty_blocks\": {}, \"blocks\": {blocks}, \
             \"patch_us\": {patch_us:.3}, \"requery_us\": {requery_us:.3}, \
             \"speedup\": {speedup:.2}}}",
            delta.dirty.len()
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"view_maintenance\",\n  \"qubits\": {N},\n  \
         \"block_size\": {BLOCK},\n  \"threads\": {},\n  \"reps\": {reps},\n  \
         \"view\": \"marginal[11,12,13]\",\n  \"series\": [\n{}\n  ]\n}}\n",
        opts.threads,
        rows_json.join(",\n")
    );
    write_bench_json("BENCH_views.json", &json);
}
