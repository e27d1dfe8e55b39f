//! A retained task graph: built once, patched per edit, re-run many times.
//!
//! [`Taskflow`](crate::Taskflow) graphs are throwaway — every run re-boxes
//! every closure and re-wires every edge, so a caller that executes the
//! same (slowly evolving) DAG over and over pays graph-sized build cost
//! per run. A [`RetainedGraph`] keeps the *structure* alive across runs:
//! nodes have stable generational ids, edges are patched incrementally,
//! and each node carries a dirty flag.
//! [`Executor::run_dirty`](crate::Executor::run_dirty) then executes exactly the dirty subset,
//! touching nothing proportional to the full graph.
//!
//! Closures are the reason retained graphs are usually awkward in Rust: a
//! stored `Box<dyn Fn() + 'env>` would freeze the caller's borrows for
//! the graph's whole lifetime. Retained nodes therefore store no closures
//! at all — only an opaque `u64` payload (e.g. an arena key packed with
//! [`qtask_util::Key::to_bits`]) and a chunk count. The *caller* supplies
//! one `invoke(payload, chunk)` closure per run; it borrows freely
//! because `run_dirty` blocks until the run completes, the same scoping
//! argument `Executor::run` already makes for `Taskflow` closures.
//!
//! A node's `chunks` field encodes its execution shape:
//!
//! * `0` — a pure synchronization barrier; completes without invoking.
//! * `1` — one `invoke(payload, 0)` call.
//! * `n > 1` — `n` parallel `invoke(payload, chunk)` calls fanned out
//!   under an implicit entry/exit barrier pair (the retained analogue of
//!   a joined subflow: successors wait for every chunk).
//!
//! The graph counts structural patches ([`RetainedGraph::take_patches`])
//! and distinguishes nodes created since the last run from re-executed
//! veterans ([`DirtyRunStats::nodes_reused`]) so callers can assert
//! incrementality ("this edit patched O(edit) nodes, not O(graph)").

use qtask_util::{define_key, Arena};
use std::sync::Arc;

define_key! {
    /// Stable handle to a retained-graph node.
    pub struct NodeId;
}

pub(crate) struct RetainedNode {
    /// Opaque caller payload handed to `invoke`.
    pub(crate) payload: u64,
    /// Execution shape: 0 = barrier, 1 = single call, n = parallel fan.
    pub(crate) chunks: u32,
    /// Display/attribution name (task spans, panic reports).
    pub(crate) name: Arc<str>,
    pub(crate) succs: Vec<NodeId>,
    pub(crate) preds: Vec<NodeId>,
    /// Included in the next `run_dirty`.
    pub(crate) dirty: bool,
    /// Created since the last run (not yet a "reused" node).
    pub(crate) fresh: bool,
    /// Materialization scratch: first/last run-node index of this node in
    /// the current `run_dirty` (only meaningful while `dirty` is set).
    pub(crate) run_entry: u32,
    pub(crate) run_exit: u32,
}

/// Statistics of one [`Executor::run_dirty`](crate::Executor::run_dirty)
/// call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirtyRunStats {
    /// Dirty graph nodes executed (barriers included).
    pub nodes_run: usize,
    /// Executed nodes that predate the current edit window — they were
    /// *reused* from a previous run rather than freshly inserted.
    pub nodes_reused: usize,
    /// `invoke` calls performed (chunk fan-outs count each chunk).
    pub tasks_run: usize,
}

/// A persistent DAG of payload-carrying nodes, patched in place by edits
/// and executed by [`Executor::run_dirty`](crate::Executor::run_dirty).
#[derive(Default)]
pub struct RetainedGraph {
    pub(crate) nodes: Arena<RetainedNode>,
    /// Dirty nodes in insertion order (deduplicated via the node flag).
    pub(crate) dirty: Vec<NodeId>,
    /// Structural patches (node/edge inserts and removals) since the
    /// last [`RetainedGraph::take_patches`].
    patches: usize,
    /// Reusable run-node storage for `run_dirty` (grows to the dirty
    /// set's high-water mark, then re-runs allocation-free).
    pub(crate) pool: crate::executor::RunPool,
}

impl RetainedGraph {
    /// Creates an empty graph.
    pub fn new() -> RetainedGraph {
        RetainedGraph::default()
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes currently marked dirty.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Inserts a node (initially dirty: a node that has never run has no
    /// materialized output). `chunks` fixes the execution shape — see the
    /// module docs.
    pub fn insert(&mut self, payload: u64, chunks: u32, name: Arc<str>) -> NodeId {
        self.patches += 1;
        let id = NodeId::from(self.nodes.insert(RetainedNode {
            payload,
            chunks,
            name,
            succs: Vec::new(),
            preds: Vec::new(),
            dirty: false,
            fresh: true,
            run_entry: 0,
            run_exit: 0,
        }));
        self.mark_dirty(id);
        id
    }

    /// Removes a node, detaching every incident edge. Stale ids are
    /// ignored (idempotent, like arena removal).
    pub fn remove(&mut self, id: NodeId) {
        let Some(node) = self.nodes.remove(id.key()) else {
            return;
        };
        self.patches += 1;
        for p in &node.preds {
            if let Some(pred) = self.nodes.get_mut(p.key()) {
                pred.succs.retain(|&s| s != id);
                self.patches += 1;
            }
        }
        for s in &node.succs {
            if let Some(succ) = self.nodes.get_mut(s.key()) {
                succ.preds.retain(|&p| p != id);
                self.patches += 1;
            }
        }
        if node.dirty {
            self.dirty.retain(|&d| d != id);
        }
    }

    /// Adds a precedence edge `a -> b` (deduplicated).
    ///
    /// # Panics
    /// Panics if either id is stale or `a == b`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "self edge in retained graph");
        if self.nodes[a.key()].succs.contains(&b) {
            return;
        }
        self.patches += 1;
        self.nodes[a.key()].succs.push(b);
        self.nodes[b.key()].preds.push(a);
    }

    /// Marks a node for the next run. Idempotent.
    pub fn mark_dirty(&mut self, id: NodeId) {
        let node = &mut self.nodes[id.key()];
        if !node.dirty {
            node.dirty = true;
            self.dirty.push(id);
        }
    }

    /// The node's caller payload.
    pub fn payload(&self, id: NodeId) -> u64 {
        self.nodes[id.key()].payload
    }

    /// Successors of `id` (live view of the patched edge list).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.key()].succs
    }

    /// Predecessors of `id`, in the order their edges were added.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.key()].preds
    }

    /// True if `id` points at a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains(id.key())
    }

    /// Structural patches since the last call, resetting the counter.
    /// One insert, one edge add, and each edge detach of a removal all
    /// count individually, so the value bounds the graph-maintenance
    /// work an edit performed.
    pub fn take_patches(&mut self) -> usize {
        std::mem::take(&mut self.patches)
    }

    /// Drops every node and resets counters (used on engine recovery,
    /// where the graph is rebuilt from scratch).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.dirty.clear();
        self.patches = 0;
    }

    /// Asserts pred/succ symmetry and edge liveness — the graph-side
    /// invariants `run_dirty` relies on. Test/debug helper.
    pub fn validate(&self) -> Result<(), String> {
        for (key, node) in self.nodes.iter() {
            for s in &node.succs {
                let succ = self
                    .nodes
                    .get(s.key())
                    .ok_or_else(|| format!("dead successor {s:?} of {key:?}"))?;
                if !succ.preds.contains(&NodeId::from(key)) {
                    return Err(format!("asymmetric edge {key:?} -> {s:?}"));
                }
            }
            for p in &node.preds {
                let pred = self
                    .nodes
                    .get(p.key())
                    .ok_or_else(|| format!("dead predecessor {p:?} of {key:?}"))?;
                if !pred.succs.contains(&NodeId::from(key)) {
                    return Err(format!("asymmetric edge {p:?} <- {key:?}"));
                }
            }
        }
        for d in &self.dirty {
            if !self.nodes.contains(d.key()) {
                return Err(format!("dead node {d:?} in dirty list"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn name(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn insert_marks_dirty_and_counts_patches() {
        let mut g = RetainedGraph::new();
        let a = g.insert(1, 1, name("a"));
        let b = g.insert(2, 1, name("b"));
        g.add_edge(a, b);
        g.add_edge(a, b); // deduplicated: no extra patch
        assert_eq!(g.dirty_len(), 2);
        assert_eq!(g.take_patches(), 3);
        assert_eq!(g.take_patches(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn remove_detaches_edges_and_dirty() {
        let mut g = RetainedGraph::new();
        let a = g.insert(1, 1, name("a"));
        let b = g.insert(2, 1, name("b"));
        let c = g.insert(3, 1, name("c"));
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.remove(b);
        assert!(!g.contains(b));
        assert!(g.succs(a).is_empty());
        assert!(g.preds(c).is_empty());
        assert_eq!(g.dirty_len(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn run_dirty_respects_edges_and_clears_flags() {
        let ex = Executor::new(4);
        let mut g = RetainedGraph::new();
        let log = Mutex::new(Vec::new());
        let a = g.insert(10, 1, name("a"));
        let b = g.insert(20, 1, name("b"));
        let c = g.insert(30, 1, name("c"));
        g.add_edge(a, b);
        g.add_edge(b, c);
        let stats = ex
            .run_dirty(&mut g, &|payload, _chunk| {
                log.lock().unwrap().push(payload);
            })
            .unwrap();
        assert_eq!(stats.nodes_run, 3);
        assert_eq!(stats.nodes_reused, 0);
        assert_eq!(stats.tasks_run, 3);
        assert_eq!(*log.lock().unwrap(), vec![10, 20, 30]);
        assert_eq!(g.dirty_len(), 0);

        // A second run touches only the re-marked subset — and those
        // nodes now count as reused.
        log.lock().unwrap().clear();
        g.mark_dirty(b);
        g.mark_dirty(c);
        let stats = ex
            .run_dirty(&mut g, &|payload, _chunk| {
                log.lock().unwrap().push(payload);
            })
            .unwrap();
        assert_eq!(stats.nodes_run, 2);
        assert_eq!(stats.nodes_reused, 2);
        assert_eq!(*log.lock().unwrap(), vec![20, 30]);
    }

    #[test]
    fn barriers_and_chunk_fans() {
        let ex = Executor::new(4);
        let mut g = RetainedGraph::new();
        let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let after = AtomicUsize::new(0);
        let sync = g.insert(0, 0, name("sync"));
        let fan = g.insert(7, 8, name("fan"));
        let post = g.insert(9, 1, name("post"));
        g.add_edge(sync, fan);
        g.add_edge(fan, post);
        let stats = ex
            .run_dirty(&mut g, &|payload, chunk| {
                if payload == 7 {
                    hits[chunk as usize].fetch_add(1, Ordering::SeqCst);
                } else {
                    // Successors of a fan wait for every chunk.
                    assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
                    after.fetch_add(1, Ordering::SeqCst);
                }
            })
            .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert_eq!(after.load(Ordering::SeqCst), 1);
        assert_eq!(stats.nodes_run, 3);
        assert_eq!(stats.tasks_run, 9); // 8 chunks + post; the barrier invokes nothing
    }

    #[test]
    fn clean_predecessors_do_not_gate_dirty_nodes() {
        let ex = Executor::new(2);
        let mut g = RetainedGraph::new();
        let a = g.insert(1, 1, name("a"));
        let b = g.insert(2, 1, name("b"));
        g.add_edge(a, b);
        let ran = AtomicUsize::new(0);
        ex.run_dirty(&mut g, &|_, _| {
            ran.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        // Only b dirty: its clean predecessor must not deadlock the run.
        g.mark_dirty(b);
        ran.store(0, Ordering::SeqCst);
        let stats = ex.run_dirty(&mut g, &|p, _| {
            assert_eq!(p, 2);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(stats.unwrap().nodes_run, 1);
    }

    #[test]
    fn empty_dirty_set_is_noop() {
        let ex = Executor::new(2);
        let mut g = RetainedGraph::new();
        let stats = ex
            .run_dirty(&mut g, &|_, _| panic!("nothing to run"))
            .unwrap();
        assert_eq!(stats, DirtyRunStats::default());
    }

    #[test]
    fn panic_is_reported_and_graph_reusable() {
        let ex = Executor::new(2);
        let mut g = RetainedGraph::new();
        let a = g.insert(1, 1, name("fine"));
        let b = g.insert(2, 1, name("kaboom"));
        g.add_edge(a, b);
        let err = ex
            .run_dirty(&mut g, &|p, _| {
                if p == 2 {
                    panic!("retained task exploded");
                }
            })
            .unwrap_err();
        assert_eq!(&*err.task, "kaboom");
        assert!(err.message.contains("retained task exploded"));
        // The graph survives: re-mark and run clean.
        g.mark_dirty(a);
        g.mark_dirty(b);
        let ran = AtomicUsize::new(0);
        ex.run_dirty(&mut g, &|_, _| {
            ran.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn interleaved_edits_and_runs_stay_consistent() {
        let ex = Executor::new(4);
        let mut g = RetainedGraph::new();
        let mut ids = Vec::new();
        let sum = AtomicUsize::new(0);
        for round in 0..20u64 {
            let id = g.insert(round, 1, name("n"));
            if let Some(&prev) = ids.last() {
                g.add_edge(prev, id);
            }
            ids.push(id);
            if round % 3 == 2 {
                let victim = ids.remove(ids.len() / 2);
                g.remove(victim);
            }
            g.validate().unwrap();
            ex.run_dirty(&mut g, &|p, _| {
                sum.fetch_add(p as usize, Ordering::SeqCst);
            })
            .unwrap();
            assert_eq!(g.dirty_len(), 0);
        }
        assert!(sum.load(Ordering::SeqCst) > 0);
    }
}
