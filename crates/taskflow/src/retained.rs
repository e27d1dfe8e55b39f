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
//! at all — only a caller payload of any `P: Sync` (the record the node
//! stands for, so the node's id is that record's id) and a chunk count.
//! The *caller* supplies one `invoke(&payload, chunk)` closure per run; it
//! borrows freely because `run_dirty` blocks until the run completes, the
//! same scoping argument `Executor::run` already makes for `Taskflow`
//! closures.
//!
//! A node's `chunks` field encodes its execution shape:
//!
//! * `0` — a pure synchronization barrier; completes without invoking.
//! * `1` — one `invoke(&payload, 0)` call.
//! * `n > 1` — `n` parallel `invoke(&payload, chunk)` calls fanned out
//!   under an implicit entry/exit barrier pair (the retained analogue of
//!   a joined subflow: successors wait for every chunk).
//!
//! The dirty nodes are kept as a list in the order they were marked.
//! [`RetainedGraph::close_dirty`] extends it to its successor closure —
//! everything downstream of a dirty node must re-run too — and
//! `run_dirty` executes and clears it.
//!
//! The graph counts structural patches ([`RetainedGraph::take_patches`])
//! so a user can assert incrementality ("this edit patched O(edit)
//! nodes, not O(graph)").

use qtask_util::{define_key, Arena};
use std::sync::Arc;

define_key! {
    /// Stable handle to a retained-graph node.
    pub struct NodeId;
}

pub(crate) struct RetainedNode<P> {
    /// Caller payload handed to `invoke`.
    pub(crate) payload: P,
    /// Execution shape: 0 = barrier, 1 = single call, n = parallel fan.
    pub(crate) chunks: u32,
    /// Display/attribution name (task spans, panic reports).
    pub(crate) name: Arc<str>,
    pub(crate) succs: Vec<NodeId>,
    pub(crate) preds: Vec<NodeId>,
    /// Included in the next `run_dirty`.
    pub(crate) dirty: bool,
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
    /// `invoke` calls performed (chunk fan-outs count each chunk).
    pub tasks_run: usize,
}

/// A persistent DAG of payload-carrying nodes, patched in place by edits
/// and executed by [`Executor::run_dirty`](crate::Executor::run_dirty).
pub struct RetainedGraph<P = u64> {
    pub(crate) nodes: Arena<RetainedNode<P>>,
    /// Dirty nodes in the order they were marked (deduplicated via the
    /// node flag).
    pub(crate) dirty: Vec<NodeId>,
    /// Structural patches (node/edge inserts and removals) since the
    /// last [`RetainedGraph::take_patches`].
    patches: usize,
    /// Reusable run-node storage for `run_dirty` (grows to the dirty
    /// set's high-water mark, then re-runs allocation-free).
    pub(crate) pool: crate::executor::RunPool,
}

impl<P> Default for RetainedGraph<P> {
    fn default() -> Self {
        RetainedGraph {
            nodes: Arena::new(),
            dirty: Vec::new(),
            patches: 0,
            pool: crate::executor::RunPool::default(),
        }
    }
}

impl<P> std::ops::Index<NodeId> for RetainedGraph<P> {
    type Output = P;

    /// The node's payload.
    ///
    /// # Panics
    /// Panics if `id` is stale.
    fn index(&self, id: NodeId) -> &P {
        &self.nodes[id.key()].payload
    }
}

impl<P> RetainedGraph<P> {
    /// Creates an empty graph.
    pub fn new() -> RetainedGraph<P> {
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

    /// The dirty nodes, in the order they were marked.
    pub fn dirty_nodes(&self) -> &[NodeId] {
        &self.dirty
    }

    /// True if `id` is live and marked for the next run.
    pub fn is_dirty(&self, id: NodeId) -> bool {
        self.nodes.get(id.key()).is_some_and(|n| n.dirty)
    }

    /// Inserts a node (initially dirty: a node that has never run has no
    /// materialized output). `chunks` fixes the execution shape — see the
    /// module docs.
    pub fn insert(&mut self, payload: P, chunks: u32, name: Arc<str>) -> NodeId {
        self.patches += 1;
        let id = NodeId::from(self.nodes.insert(RetainedNode {
            payload,
            chunks,
            name,
            succs: Vec::new(),
            preds: Vec::new(),
            dirty: false,
            run_entry: 0,
            run_exit: 0,
        }));
        self.mark_dirty(id);
        id
    }

    /// Removes a node, detaching every incident edge and dropping it from
    /// the dirty list, and returns its payload. Stale ids are ignored
    /// (idempotent, like arena removal).
    pub fn remove(&mut self, id: NodeId) -> Option<P> {
        let node = self.nodes.remove(id.key())?;
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
        Some(node.payload)
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

    /// Marks every successor of a dirty node dirty, transitively, so the
    /// dirty set is successor-closed. A worklist over the dirty list
    /// itself: every listed node — including the ones that start dirty,
    /// as every new node does — has its successors expanded once.
    pub fn close_dirty(&mut self) {
        let (nodes, dirty) = (&mut self.nodes, &mut self.dirty);
        let mut next = 0;
        while let Some(&id) = dirty.get(next) {
            next += 1;
            for i in 0..nodes[id.key()].succs.len() {
                let s = nodes[id.key()].succs[i];
                let succ = &mut nodes[s.key()];
                if !succ.dirty {
                    succ.dirty = true;
                    dirty.push(s);
                }
            }
        }
    }

    /// The payload of `id`, or `None` if it is stale.
    pub fn get(&self, id: NodeId) -> Option<&P> {
        self.nodes.get(id.key()).map(|n| &n.payload)
    }

    /// Every live node with its payload, in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.nodes
            .iter()
            .map(|(key, node)| (NodeId::from(key), &node.payload))
    }

    /// Successors of `id` (live view of the patched edge list).
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.key()].succs
    }

    /// Predecessors of `id`, in the order their edges were added.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.key()].preds
    }

    /// Structural patches since the last call, resetting the counter.
    /// One insert, one edge add, and each edge detach of a removal all
    /// count individually, so the value bounds the graph-maintenance
    /// work an edit performed.
    pub fn take_patches(&mut self) -> usize {
        std::mem::take(&mut self.patches)
    }

    /// Asserts pred/succ symmetry and edge liveness, and that the dirty
    /// flags and the dirty list agree: every listed node is live and
    /// flagged, no node is listed twice, and every flagged node is
    /// listed — the graph-side invariants `run_dirty` relies on.
    /// Test/debug helper.
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
        let mut listed = std::collections::HashSet::new();
        for &d in &self.dirty {
            match self.nodes.get(d.key()) {
                None => return Err(format!("dead node {d:?} in dirty list")),
                Some(node) if !node.dirty => {
                    return Err(format!("unflagged node {d:?} in dirty list"))
                }
                Some(_) if !listed.insert(d) => {
                    return Err(format!("dirty list holds {d:?} twice"))
                }
                Some(_) => {}
            }
        }
        let flagged = self.nodes.iter().filter(|(_, n)| n.dirty).count();
        if flagged != listed.len() {
            return Err(format!(
                "{flagged} nodes flagged dirty, {} listed",
                listed.len()
            ));
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
        assert_eq!(g.remove(b), Some(2));
        assert!(g.get(b).is_none());
        assert_eq!(g.remove(b), None);
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
                log.lock().unwrap().push(*payload);
            })
            .unwrap();
        assert_eq!(stats.nodes_run, 3);
        assert_eq!(stats.tasks_run, 3);
        assert_eq!(*log.lock().unwrap(), vec![10, 20, 30]);
        assert_eq!(g.dirty_len(), 0);

        // A second run touches only the re-marked subset.
        log.lock().unwrap().clear();
        g.mark_dirty(b);
        g.mark_dirty(c);
        let stats = ex
            .run_dirty(&mut g, &|payload, _chunk| {
                log.lock().unwrap().push(*payload);
            })
            .unwrap();
        assert_eq!(stats.nodes_run, 2);
        assert_eq!(*log.lock().unwrap(), vec![20, 30]);
    }

    /// A fresh node that feeds a clean chain is dirty from its insert;
    /// closing the dirty set must still expand it, so everything
    /// downstream re-runs after it.
    #[test]
    fn close_dirty_expands_nodes_that_start_dirty() {
        let ex = Executor::new(2);
        let mut g = RetainedGraph::new();
        let log = Mutex::new(Vec::new());
        let run = |g: &mut RetainedGraph<char>| {
            ex.run_dirty(g, &|payload, _chunk| {
                log.lock().unwrap().push(*payload);
            })
            .unwrap()
        };
        let a = g.insert('a', 1, name("a"));
        let b = g.insert('b', 1, name("b"));
        let c = g.insert('c', 1, name("c"));
        g.add_edge(a, b);
        g.add_edge(b, c);
        run(&mut g);
        log.lock().unwrap().clear();

        let d = g.insert('d', 1, name("d"));
        g.add_edge(d, b);
        assert_eq!(g.dirty_nodes(), [d]);
        g.close_dirty();
        assert_eq!(g.dirty_nodes(), [d, b, c]);
        assert!(!g.is_dirty(a));
        g.validate().unwrap();
        let stats = run(&mut g);
        assert_eq!(*log.lock().unwrap(), ['d', 'b', 'c']);
        assert_eq!(stats.nodes_run, 3);
        assert!(!g.is_dirty(b));
    }

    #[test]
    fn validate_catches_dirty_flag_and_list_disagreement() {
        let mut g = RetainedGraph::new();
        let a = g.insert(1, 1, name("a"));
        let b = g.insert(2, 1, name("b"));
        g.validate().unwrap();
        g.dirty.push(a);
        assert!(g.validate().unwrap_err().contains("twice"));
        g.dirty.clear();
        assert!(g.validate().unwrap_err().contains("flagged"));
        g.dirty.push(a);
        g.dirty.push(b);
        g.nodes[b.key()].dirty = false;
        assert!(g.validate().unwrap_err().contains("unflagged"));
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
                if *payload == 7 {
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
            assert_eq!(*p, 2);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(stats.unwrap().nodes_run, 1);
    }

    #[test]
    fn empty_dirty_set_is_noop() {
        let ex = Executor::new(2);
        let mut g: RetainedGraph = RetainedGraph::new();
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
                if *p == 2 {
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
                sum.fetch_add(*p as usize, Ordering::SeqCst);
            })
            .unwrap();
            assert_eq!(g.dirty_len(), 0);
        }
        assert!(sum.load(Ordering::SeqCst) > 0);
    }
}
