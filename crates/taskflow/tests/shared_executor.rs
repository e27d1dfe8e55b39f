//! Many callers, one pool: every `run_dirty` on a shared executor must
//! invoke each dirty payload exactly once, and the thread that calls a
//! run takes part in it.
//!
//! With several callers the workers never park, so a worker can finish a
//! run's first root — and release that root's successor — while the
//! caller is still publishing. A caller that decided what a root is at
//! that moment published the released successor a second time: the node
//! ran twice, the run's pending count reached zero early, and
//! `run_dirty` returned while tasks were still using the caller's
//! closure. The window only needs a busy pool, so the callers below
//! start together and hammer short graphs whose first root completes
//! instantly (a barrier, or a fan's entry node). Callers also execute
//! each other's published jobs, so the same hammer checks that a job
//! run by a foreign caller still counts once, in its own run.

use qtask_taskflow::{Executor, NodeId, RetainedGraph};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

const CALLERS: usize = 4;
const ROUNDS: usize = 40_000;
const FAN: u32 = 3;

/// The hammer graph: barrier -> single -> single, and a fan of `FAN`
/// chunks -> single. Payload + chunk is unique per invoke.
fn hammer_graph() -> (RetainedGraph, [NodeId; 5]) {
    let mut g = RetainedGraph::new();
    let name: Arc<str> = Arc::from("n");
    let sync = g.insert(0, 0, Arc::clone(&name));
    let b = g.insert(1, 1, Arc::clone(&name));
    let c = g.insert(2, 1, Arc::clone(&name));
    g.add_edge(sync, b);
    g.add_edge(b, c);
    let fan = g.insert(3, FAN, Arc::clone(&name));
    let post = g.insert(3 + u64::from(FAN), 1, Arc::clone(&name));
    g.add_edge(fan, post);
    (g, [sync, b, c, fan, post])
}

/// Runs the hammer graph until `rounds` runs are done or `stop` is set,
/// asserting after every run that each payload was invoked exactly once
/// (the barrier's payload, slot 0, never).
fn hammer(ex: &Executor, caller: usize, rounds: usize, stop: &AtomicBool) {
    let (mut g, nodes) = hammer_graph();
    let hits: Vec<AtomicU32> = (0..=3 + FAN).map(|_| AtomicU32::new(0)).collect();
    for round in 0..rounds {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        for id in nodes {
            g.mark_dirty(id);
        }
        let stats = ex
            .run_dirty(&mut g, &|payload, chunk| {
                hits[payload as usize + chunk as usize].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(stats.tasks_run, 3 + FAN as usize);
        for (slot, hit) in hits.iter().enumerate() {
            let want = u32::from(slot != 0);
            assert_eq!(
                hit.swap(0, Ordering::SeqCst),
                want,
                "caller {caller}, round {round}: invoke count of slot {slot}"
            );
        }
    }
}

#[test]
fn shared_executor_invokes_each_dirty_payload_exactly_once() {
    let ex = Executor::new(2);
    let start = Barrier::new(CALLERS);
    let never = AtomicBool::new(false);
    thread::scope(|s| {
        for caller in 0..CALLERS {
            let (ex, start, never) = (&ex, &start, &never);
            s.spawn(move || {
                start.wait();
                hammer(ex, caller, ROUNDS, never);
            });
        }
    });
}

/// A run whose ready set is never wider than one job is executed by the
/// caller alone: its one ready job is never published, so no worker can
/// pick it up. A linear partition whose items fit one grain is such a
/// run — a fan of one chunk materializes as a single run node.
#[test]
fn width_one_runs_stay_on_the_caller() {
    let ex = Executor::new(2);
    let caller = thread::current().id();
    let name: Arc<str> = Arc::from("n");

    let mut single = RetainedGraph::new();
    let only = single.insert(0, 1, Arc::clone(&name));

    let mut chain = RetainedGraph::new();
    let sync = chain.insert(0, 0, Arc::clone(&name));
    let b = chain.insert(1, 1, Arc::clone(&name));
    let c = chain.insert(2, 1, Arc::clone(&name));
    chain.add_edge(sync, b);
    chain.add_edge(b, c);

    let mut one_chunk = RetainedGraph::new();
    let fan = one_chunk.insert(0, 1, Arc::clone(&name));
    let post = one_chunk.insert(1, 1, Arc::clone(&name));
    one_chunk.add_edge(fan, post);

    let shapes: [(&str, &mut RetainedGraph, Vec<NodeId>, usize); 3] = [
        ("single", &mut single, vec![only], 1),
        (
            "barrier -> single -> single",
            &mut chain,
            vec![sync, b, c],
            2,
        ),
        (
            "one-chunk fan -> single",
            &mut one_chunk,
            vec![fan, post],
            2,
        ),
    ];
    for (shape, graph, nodes, invokes) in shapes {
        let elsewhere = Mutex::new(Vec::new());
        let calls = AtomicU32::new(0);
        for _ in 0..1000 {
            for &id in &nodes {
                graph.mark_dirty(id);
            }
            ex.run_dirty(graph, &|_payload, chunk| {
                assert_eq!(chunk, 0);
                calls.fetch_add(1, Ordering::Relaxed);
                let here = thread::current();
                if here.id() != caller {
                    elsewhere
                        .lock()
                        .unwrap()
                        .push(here.name().map(str::to_owned));
                }
            })
            .unwrap();
        }
        assert_eq!(calls.into_inner(), 1000 * invokes as u32, "{shape}");
        let elsewhere = elsewhere.into_inner().unwrap();
        assert!(
            elsewhere.is_empty(),
            "{shape}: {} invokes left the caller, e.g. on {:?}",
            elsewhere.len(),
            elsewhere[0]
        );
    }
}

/// A panic in a job the caller executes itself is contained exactly like
/// one on a worker: the run reports it as a `TaskPanic` naming the node,
/// and the executor stays usable — for this caller and for a second one
/// hammering the pool the whole time.
#[test]
fn caller_executed_panic_is_contained() {
    /// Stops the hammering caller even when an assertion below fails, so
    /// the scope does not wait for it forever.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let ex = Executor::new(2);
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let (ex_ref, done_ref) = (&ex, &done);
        let other = s.spawn(move || hammer(ex_ref, 1, usize::MAX, done_ref));
        let stop = StopOnDrop(&done);

        let caller = thread::current().id();
        let mut boom = RetainedGraph::new();
        let root = boom.insert(7, 1, Arc::from("boom"));
        let mut fine = RetainedGraph::new();
        let ok = fine.insert(8, 1, Arc::from("fine"));
        for round in 0..200 {
            boom.mark_dirty(root);
            let err = ex
                .run_dirty(&mut boom, &|payload, _chunk| {
                    assert_eq!(thread::current().id(), caller, "ran off the caller");
                    panic!("payload {payload} exploded");
                })
                .unwrap_err();
            assert_eq!(&*err.task, "boom", "round {round}");
            assert_eq!(err.message, "payload 7 exploded", "round {round}");

            fine.mark_dirty(ok);
            let invoked = AtomicU32::new(0);
            let stats = ex
                .run_dirty(&mut fine, &|_, _| {
                    invoked.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            assert_eq!(
                (stats.tasks_run, invoked.into_inner()),
                (1, 1),
                "round {round}"
            );
        }
        drop(stop);
        other
            .join()
            .expect("the hammering caller kept exactly-once counts");
    });
}
