//! Many callers, one pool: every `run_dirty` on a shared executor must
//! invoke each dirty payload exactly once.
//!
//! With several callers the workers never park, so a worker can finish a
//! run's first root — and release that root's successor — while the
//! caller is still publishing. A caller that decided what a root is at
//! that moment published the released successor a second time: the node
//! ran twice, the run's pending count reached zero early, and
//! `run_dirty` returned while tasks were still using the caller's
//! closure. The window only needs a busy pool, so the callers below
//! start together and hammer short graphs whose first root completes
//! instantly (a barrier, or a fan's entry node).

use qtask_taskflow::{Executor, RetainedGraph};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

const CALLERS: usize = 4;
const ROUNDS: usize = 40_000;
const FAN: u32 = 3;

#[test]
fn shared_executor_invokes_each_dirty_payload_exactly_once() {
    let ex = Executor::new(2);
    let start = Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (ex, start) = (&ex, &start);
            s.spawn(move || {
                let mut g = RetainedGraph::new();
                let name: Arc<str> = Arc::from("n");
                // barrier -> single -> single
                let sync = g.insert(0, 0, Arc::clone(&name));
                let b = g.insert(1, 1, Arc::clone(&name));
                let c = g.insert(2, 1, Arc::clone(&name));
                g.add_edge(sync, b);
                g.add_edge(b, c);
                // fan -> single
                let fan = g.insert(3, FAN, Arc::clone(&name));
                let post = g.insert(3 + u64::from(FAN), 1, Arc::clone(&name));
                g.add_edge(fan, post);
                // One counter per invoke: payload + chunk is unique.
                let hits: Vec<AtomicU32> = (0..=3 + FAN).map(|_| AtomicU32::new(0)).collect();
                start.wait();
                for round in 0..ROUNDS {
                    for id in [sync, b, c, fan, post] {
                        g.mark_dirty(id);
                    }
                    let stats = ex
                        .run_dirty(&mut g, &|payload, chunk| {
                            hits[payload as usize + chunk as usize].fetch_add(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    assert_eq!(stats.tasks_run, 3 + FAN as usize);
                    for (slot, hit) in hits.iter().enumerate() {
                        // Slot 0 is the barrier's payload: never invoked.
                        let want = u32::from(slot != 0);
                        assert_eq!(
                            hit.swap(0, Ordering::SeqCst),
                            want,
                            "caller {caller}, round {round}: invoke count of slot {slot}"
                        );
                    }
                }
            });
        }
    });
}
