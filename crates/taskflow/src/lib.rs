//! A work-stealing task-graph executor — the from-scratch substitute for
//! the Taskflow C++ library the paper builds on (the paper's reference
//! 31).
//!
//! qTask uses exactly two Taskflow features (paper §III-F):
//!
//! 1. **Static tasking** — a DAG of named tasks with precedence edges,
//!    used for inter-gate operation parallelism between partitions.
//! 2. **Joined subflows** — a task that fans out into parallel child
//!    tasks; its successors wait for all of them. Used for intra-gate
//!    operation parallelism inside a partition.
//!
//! Both are shapes of one run: a DAG of run nodes that call a run-level
//! `invoke(payload, chunk)` closure. A [`RetainedGraph`] node with
//! `chunks == 1` is a static task, one with `chunks > 1` is the joined
//! fan, and [`Executor::run_dirty`] re-executes just the dirty part of
//! such a graph — the engine's path. A throwaway [`Taskflow`] of boxed
//! closures ([`Executor::run`]) goes through the same run path with one
//! node per closure. Runs are executed by a persistent pool of workers
//! with crossbeam-deque work stealing and condition-variable parking —
//! the "work-stealing runtime" of the paper's reference 47 — and by the
//! thread that called the run, which executes ready work of its own run
//! until it is done (Taskflow's `corun`). A run that is never more than
//! one job wide runs on the caller alone, without waking a worker.
//! Workers execute run jobs and nothing else: whatever calls a run (an
//! engine's `update_state`, a service session's request) supplies its
//! own thread, and the pool adds its workers to that run.
//!
//! # Example
//! ```
//! use qtask_taskflow::{Executor, RetainedGraph, Taskflow};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let executor = Executor::new(4);
//! let counter = AtomicUsize::new(0);
//!
//! // Static tasks with a precedence edge.
//! let mut tf = Taskflow::new("demo");
//! let a = tf.emplace("a", || { counter.fetch_add(1, Ordering::SeqCst); });
//! let b = tf.emplace("b", || { counter.fetch_add(1, Ordering::SeqCst); });
//! tf.precede(a, b);
//! executor.run(&tf);
//! assert_eq!(counter.load(Ordering::SeqCst), 2);
//!
//! // A retained graph: one task, then a joined fan of 8 chunks.
//! let mut graph = RetainedGraph::new();
//! let first = graph.insert(0, 1, "first".into());
//! let fan = graph.insert(1, 8, "fan".into());
//! graph.add_edge(first, fan);
//! let stats = executor
//!     .run_dirty(&mut graph, &|_payload, _chunk| {
//!         counter.fetch_add(1, Ordering::SeqCst);
//!     })
//!     .unwrap();
//! assert_eq!(stats.tasks_run, 9);
//! assert_eq!(counter.load(Ordering::SeqCst), 11);
//! ```

pub mod executor;
pub mod graph;
pub mod retained;

pub use executor::{Executor, TaskPanic};
pub use graph::{TaskRef, Taskflow};
pub use retained::{DirtyRunStats, NodeId, RetainedGraph};

/// A sensible default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
