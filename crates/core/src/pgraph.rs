//! Partition-graph maintenance: the paper's §III-D algorithms.
//!
//! * **Linking** new partitions: find, per block each spans, the
//!   *nearest* earlier partition covering that block (its predecessors)
//!   and the nearest later one (its successors). The paper walks the row
//!   list outward until every block is covered (Figure 9's walk) —
//!   O(depth) per link; we answer the same query from the per-block
//!   `CoverageIndex` (`crate::coverage`): registering a partition in a
//!   block's sorted cover list yields its two neighbours, O(1) when it
//!   appends and one binary search otherwise, which keeps a
//!   constant-size edit's cost independent of circuit depth. The two
//!   formulations return the same set: a partition contributes a block
//!   in the row walk exactly when it is that block's nearest cover.
//!   Modifiers only queue the partitions they create; one batch pass,
//!   `Ckt::link_pending`, links the queue in row order.
//! * **Removing** a row: detach every partition, reconnect each removed
//!   partition's predecessors to its successors where their block ranges
//!   overlap inside the removed range (Figure 7), and mark the successors
//!   dirty.
//!
//! The partitions live in the retained task graph (`Ckt::graph`): each
//! partition is its node's payload, so a [`PartId`] is a node id, the
//! graph's edges are the partition edges and its dirty list is the
//! frontier. Nothing maps between the two.

use crate::engine::Ckt;
use crate::row::{PartId, RowId};

impl Ckt {
    /// Links every partition created since the last pass: registers each
    /// in the coverage index and adds its edges, the queue taken in row
    /// order. Called once at the end of [`Ckt::from_circuit`], at the end
    /// of every public modifier (a batch of one row or one sync + MxV
    /// pair) and inside [`Ckt::edit`] commits, before any removal — whose
    /// orphan re-scan needs a complete index — and at the end.
    ///
    /// Per (partition, block), registration returns the block's nearest
    /// registered covers before and after the partition, and the pass
    /// adds an edge from the one and to the other. In row order every
    /// earlier cover is already registered, so the predecessor is the
    /// final nearest one; a successor is the nearest that existed before
    /// the batch, and a later queued partition landing in between links
    /// itself to both. So every edge joins the nearest covers of some
    /// block at the time it is added, and every pair of nearest covers is
    /// joined. A whole-circuit build appends to every list: no search,
    /// and none of the redundant `pred → succ` edges that replaying it
    /// gate at a time leaves behind whenever a later-inserted row (a
    /// net's sync + MxV pair, say) lands between two linked ones.
    ///
    /// ## Deviation from the paper: no transitive-edge pruning
    ///
    /// The paper additionally removes direct `pred → succ` edges between
    /// the discovered endpoints ("since dependency constraints are
    /// transitive"). Randomized differential testing against a
    /// from-scratch oracle showed that rule to be **unsound** under later
    /// removals: pruning `p → s` leaves s's block coverage guarded only
    /// by a waypoint path `p → N → s`, and subsequent insertions can
    /// re-route that path through nodes (`p → N' → … → s`) that do not
    /// themselves cover the blocks in question. When such a waypoint row
    /// is later removed, `s` is not among the removed partitions'
    /// successors for those blocks, so no local reconnection rule (the
    /// paper's Figure 7 included) can know to re-link `p → s` — and a
    /// later change to `p` then never re-dirties `s`, leaving stale
    /// amplitudes (see `tests/pruning_regression.rs` for the distilled
    /// 5-qubit counterexample). Keeping the direct edges preserves the
    /// invariant that every partition's predecessors cover its whole
    /// block span, which makes both the removal re-scan and the
    /// frontier's successor closure sound. The cost is a modestly denser
    /// graph; correctness first.
    pub(crate) fn link_pending(&mut self) {
        if self.pending_links.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.pending_links);
        let label_of_row = |rows: &qtask_util::LinkedArena<crate::row::Row>, row: RowId| {
            rows.order_label(row.key())
                .expect("queued partitions have live rows")
        };
        queue.sort_by_cached_key(|&pid| label_of_row(&self.rows, self.graph[pid].row));
        let (mut preds, mut succs) = (Vec::new(), Vec::new());
        for &pid in &queue {
            qtask_faults::fault_point!("engine/graph_patch");
            let (row, lo, hi) = {
                let p = &self.graph[pid];
                (p.row, p.spec.block_lo, p.spec.block_hi)
            };
            let label = label_of_row(&self.rows, row);
            let (rows, parts) = (&self.rows, &self.graph);
            // Neighbouring blocks mostly share their last cover: remember
            // the last label looked up.
            let seen = std::cell::Cell::new(None::<(PartId, u64)>);
            let label_of = |p: PartId| match seen.get() {
                Some((q, l)) if q == p => l,
                _ => {
                    let l = label_of_row(rows, parts[p].row);
                    seen.set(Some((p, l)));
                    l
                }
            };
            for b in lo..=hi {
                let (pred, succ) = self.coverage.insert(b as usize, pid, label, label_of);
                for (hit, found) in [(pred, &mut preds), (succ, &mut succs)] {
                    if let Some(q) = hit.filter(|q| !found.contains(q)) {
                        found.push(q);
                    }
                }
            }
            for p in preds.drain(..) {
                self.graph.add_edge(p, pid);
            }
            for s in succs.drain(..) {
                self.graph.add_edge(pid, s);
            }
        }
        queue.clear();
        self.pending_links = queue;
    }

    /// Nearest earlier partitions covering blocks `[lo, hi]` from
    /// (exclusive) `from_row`: per block, a binary search in the coverage
    /// index for the closest cover strictly before `from_row`'s order
    /// label, deduplicated across blocks.
    fn coverage_scan(&self, from_row: RowId, lo: u32, hi: u32) -> Vec<PartId> {
        let limit = self
            .rows
            .order_label(from_row.key())
            .expect("coverage scan starts at a live row");
        let label_of = |pid: PartId| {
            self.rows
                .order_label(self.graph[pid].row.key())
                .expect("cover rows are live")
        };
        let mut found = Vec::new();
        for b in lo..=hi {
            if let Some(q) = self.coverage.last_before(b as usize, limit, label_of) {
                if !found.contains(&q) {
                    found.push(q);
                }
            }
        }
        found
    }

    /// Removes a row and all its partitions, reconnecting each orphaned
    /// successor to its true nearest writers and marking the successors
    /// dirty (paper Figure 7 + §III-E removal rule).
    ///
    /// The paper reconnects "preceding partitions to successor partitions
    /// if an overlap exists in their blocks", i.e. pairs from
    /// `preds(R) × succs(R)`. That is insufficient once Figure 9's
    /// transitive-edge pruning has run: pruning replaces a covering edge
    /// `p → s` by the path `p → R → s` even when R covers only part of
    /// the `p ∩ s` overlap, so after pruning `preds(s)` may no longer
    /// cover all of s's blocks — and when R is later removed, the true
    /// writer `p` of the uncovered blocks is not in `preds(R)` and the
    /// pairwise reconnect misses it, leaving `s` unreachable from future
    /// modifications of `p` (a stale-amplitude bug, found by randomized
    /// differential testing). We therefore re-run the backward coverage
    /// scan for every successor, which restores the nearest-writer
    /// invariant exactly.
    pub(crate) fn remove_row(&mut self, row_id: RowId) {
        debug_assert!(
            self.pending_links.is_empty(),
            "removal before the link pass"
        );
        // Strip the row's blocks from the owner index while its order
        // label is still readable (the index is sorted by label). A row
        // can only own blocks it writes, so scan those, not the whole
        // state. The blocks it did own change their final resolution
        // without any simulation, so they are also exactly what the next
        // snapshot capture must re-resolve.
        let rows = &self.rows;
        let label_of = |r: RowId| {
            rows.order_label(r.key())
                .expect("owner index holds only live rows")
        };
        let n = self.circuit.num_qubits();
        for b in rows[row_id.key()].written_blocks(&self.graph, &self.geom, n) {
            if self.owners.remove(b, row_id, label_of) {
                self.snap_dirty.insert(b);
            }
        }
        // Strip the row's partitions from the coverage index while the
        // row's order label is still readable (the index is sorted by
        // label); the orphan re-scan below must not see them as covers.
        {
            let rows = &self.rows;
            let parts = &self.graph;
            let label_of = |pid: PartId| {
                rows.order_label(parts[pid].row.key())
                    .expect("cover rows are live")
            };
            for &pid in &rows[row_id.key()].parts {
                let spec = &parts[pid].spec;
                for b in spec.block_lo..=spec.block_hi {
                    self.coverage.remove(b as usize, pid, label_of);
                }
            }
        }
        let row = self
            .rows
            .remove(row_id.key())
            .expect("remove_row on a live row");
        qtask_faults::fault_point!("engine/graph_patch");
        let mut orphaned: Vec<PartId> = Vec::new();
        for pid in row.parts {
            orphaned.extend_from_slice(self.graph.succs(pid));
            // Retained-graph removal detaches every incident edge and
            // drops the node from the frontier, so the reconnection scan
            // below patches a graph with no stale nodes.
            self.graph.remove(pid).expect("row partition is live");
        }
        // Re-derive each orphan's predecessor set by a fresh backward
        // coverage scan (existing edges are kept; add_edge deduplicates).
        orphaned.sort_unstable();
        orphaned.dedup();
        for s in orphaned {
            self.graph.mark_dirty(s);
            let (s_row, lo, hi) = {
                let p = &self.graph[s];
                (p.row, p.spec.block_lo, p.spec.block_hi)
            };
            for p in self.coverage_scan(s_row, lo, hi) {
                self.graph.add_edge(p, s);
            }
        }
        // The row's vector (and its owned blocks) drops here; inherited
        // reads now resolve through to earlier rows — removal needs no
        // simulation until `update_state`.
    }

    /// Debug validation: the retained graph's own invariants (edge
    /// symmetry and liveness, dirty flags agreeing with the frontier
    /// list), partitions of live rows, edges that only point from earlier
    /// rows to later rows (acyclic by construction) between overlapping
    /// spans, and coverage-index coherence. Used by tests.
    pub fn validate_graph(&self) -> Result<(), String> {
        self.graph.validate()?;
        for (pid, part) in self.graph.iter() {
            if !self.rows.contains(part.row.key()) {
                return Err(format!("{pid:?} points at a dead row"));
            }
        }
        // Row order index for direction checks.
        let mut order = std::collections::HashMap::new();
        for (i, k) in self.rows.keys().enumerate() {
            order.insert(RowId(k), i);
        }
        for (pid, part) in self.graph.iter() {
            for &s in self.graph.succs(pid) {
                let succ = &self.graph[s];
                if order[&part.row] >= order[&succ.row] {
                    return Err(format!(
                        "edge {pid:?} -> {s:?} does not advance in row order"
                    ));
                }
                if !part.spec.blocks_intersect(&succ.spec) {
                    return Err(format!("edge {pid:?} -> {s:?} without block overlap"));
                }
            }
        }
        // Coverage-index coherence: every live partition is indexed for
        // exactly its span, every entry is live, and lists stay sorted by
        // row label.
        let mut expected = 0usize;
        for (pid, part) in self.graph.iter() {
            for b in part.spec.block_lo..=part.spec.block_hi {
                if !self.coverage.covers_of(b as usize).contains(&pid) {
                    return Err(format!("{pid:?} missing from coverage index at block {b}"));
                }
                expected += 1;
            }
        }
        if self.coverage.len() != expected {
            return Err(format!(
                "coverage index holds {} entries, expected {expected} (stale covers)",
                self.coverage.len()
            ));
        }
        for b in 0..self.geom.num_blocks() {
            let mut prev = None;
            for &pid in self.coverage.covers_of(b) {
                let part = self
                    .graph
                    .get(pid)
                    .ok_or_else(|| format!("coverage index holds dead {pid:?} at block {b}"))?;
                let label = self
                    .rows
                    .order_label(part.row.key())
                    .ok_or_else(|| format!("coverage entry {pid:?} points at a dead row"))?;
                if prev.is_some_and(|p| p >= label) {
                    return Err(format!("coverage list for block {b} out of label order"));
                }
                prev = Some(label);
            }
        }
        Ok(())
    }
}

impl Ckt {
    /// Debug validation of the operational soundness invariant: for every
    /// partition `s` and every block `b` it spans, the nearest earlier
    /// partition covering `b` (s's true data source ordering-wise) has a
    /// direct edge to `s` — otherwise a dirty source could fail to
    /// re-dirty `s`. `Ckt::link_pending` and `remove_row`'s orphan
    /// re-scan both add exactly these edges, and a direct edge is
    /// stronger than the path the frontier's successor closure needs.
    pub fn validate_reachability(&self) -> Result<(), String> {
        for k in self.rows.keys() {
            let row = &self.rows[k];
            for &pid in &row.parts {
                let part = &self.graph[pid];
                let (lo, hi) = (part.spec.block_lo, part.spec.block_hi);
                for c in self.coverage_scan(part.row, lo, hi) {
                    let src = &self.graph[c];
                    if !self.graph.preds(pid).contains(&c) {
                        return Err(format!(
                            "no edge from {}[{},{}] to {}[{},{}]",
                            self.rows[src.row.key()].label,
                            src.spec.block_lo,
                            src.spec.block_hi,
                            row.label,
                            lo,
                            hi
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::engine::Ckt;
    use qtask_circuit::{GateId, NetId};
    use qtask_gates::GateKind;
    use rand::prelude::*;

    /// Walks `rows` backwards from every partition, block by block, to the
    /// nearest earlier partition covering the block (the paper's Figure 9
    /// walk, with no coverage index) and asserts the retained graph holds
    /// the direct edge from that cover to the partition.
    fn assert_nearest_covers_linked(ckt: &Ckt, at: &str) {
        for k in ckt.rows.keys() {
            for &pid in &ckt.rows[k].parts {
                let part = &ckt.graph[pid];
                for b in part.spec.block_lo..=part.spec.block_hi {
                    let mut earlier =
                        std::iter::successors(ckt.rows.prev(k), |&r| ckt.rows.prev(r));
                    let cover = earlier.find_map(|r| {
                        ckt.rows[r].parts.iter().copied().find(|q| {
                            let spec = &ckt.graph[*q].spec;
                            spec.block_lo <= b && b <= spec.block_hi
                        })
                    });
                    if let Some(c) = cover {
                        assert!(
                            ckt.graph.preds(pid).contains(&c),
                            "{at}: no edge {c:?} -> {pid:?} for block {b}"
                        );
                    }
                }
            }
        }
    }

    fn random_gate(rng: &mut StdRng, n: u8, nets: &[NetId]) -> (GateKind, Vec<u8>, NetId) {
        let kinds = [
            GateKind::H,
            GateKind::X,
            GateKind::T,
            GateKind::Ry(0.4),
            GateKind::Cx,
            GateKind::Cz,
            GateKind::Ccx,
        ];
        let kind = kinds[rng.random_range(0..kinds.len())];
        let mut qubits: Vec<u8> = (0..n).collect();
        qubits.shuffle(rng);
        qubits.truncate(kind.arity());
        (kind, qubits, nets[rng.random_range(0..nets.len())])
    }

    /// A seeded storm of inserts, removals and multi-op edits keeps a
    /// direct edge from every block's nearest earlier cover.
    #[test]
    fn every_nearest_cover_has_a_direct_edge() {
        let mut rng = StdRng::seed_from_u64(32);
        for trial in 0..8 {
            let n = rng.random_range(5..=7u8);
            let mut cfg = SimConfig::with_block_size(1 << rng.random_range(0..=4u32));
            cfg.num_threads = 1;
            let mut ckt = Ckt::with_config(n, cfg);
            let nets: Vec<NetId> = (0..5).map(|_| ckt.push_net()).collect();
            let mut live: Vec<GateId> = Vec::new();
            for step in 0..60 {
                match rng.random_range(0..10) {
                    0..=4 => {
                        let (kind, qubits, net) = random_gate(&mut rng, n, &nets);
                        live.extend(ckt.insert_gate(kind, net, &qubits).ok());
                    }
                    5..=7 if !live.is_empty() => {
                        let g = live.swap_remove(rng.random_range(0..live.len()));
                        ckt.remove_gate(g).unwrap();
                    }
                    _ => {
                        let mut victims = Vec::new();
                        for _ in 0..rng.random_range(0..=2) {
                            if !live.is_empty() {
                                victims.push(live.swap_remove(rng.random_range(0..live.len())));
                            }
                        }
                        let adds: Vec<_> = (0..rng.random_range(1..=3))
                            .map(|_| random_gate(&mut rng, n, &nets))
                            .collect();
                        let (added, _) = ckt
                            .edit(|tx| {
                                for &g in &victims {
                                    tx.remove_gate(g)?;
                                }
                                Ok(adds
                                    .iter()
                                    .filter_map(|(k, q, net)| tx.insert_gate(*k, *net, q).ok())
                                    .collect::<Vec<_>>())
                            })
                            .unwrap();
                        live.extend(added);
                    }
                }
                assert_nearest_covers_linked(&ckt, &format!("trial {trial} step {step}"));
                if rng.random_bool(0.3) {
                    ckt.update_state().unwrap();
                }
            }
        }
    }
}
