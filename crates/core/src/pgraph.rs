//! Partition-graph maintenance: the paper's §III-D algorithms.
//!
//! * **Linking** a new partition: find, per block it spans, the *nearest*
//!   earlier partition covering that block (its predecessors) and the
//!   nearest later one (its successors). The paper walks the row list
//!   outward until every block is covered (Figure 9's walk) — O(depth)
//!   per link; we answer the same query from the per-block
//!   `CoverageIndex` (`crate::coverage`) by binary search, O(span · log
//!   covers), which keeps a constant-size edit's cost independent of
//!   circuit depth. The two formulations return the same set: a
//!   partition contributes a block in the row walk exactly when it is
//!   that block's nearest cover.
//! * **Removing** a row: detach every partition, reconnect each removed
//!   partition's predecessors to its successors where their block ranges
//!   overlap inside the removed range (Figure 7), and push the successors
//!   onto the frontier.

use crate::engine::Ckt;
use crate::row::{PartId, RowId};

impl Ckt {
    /// Adds edge `a → b` if absent, mirroring it into the retained task
    /// graph so `update_state` never has to re-derive precedence.
    pub(crate) fn add_edge(&mut self, a: PartId, b: PartId) {
        debug_assert_ne!(a, b);
        let pa = &mut self.parts[a.key()];
        if !pa.succs.contains(&b) {
            pa.succs.push(b);
            self.parts[b.key()].preds.push(a);
            let (na, nb) = (self.parts[a.key()].node, self.parts[b.key()].node);
            self.graph.add_edge(na, nb);
        }
    }

    /// Links a freshly created partition into the graph: backward
    /// coverage scan for predecessors, forward for successors.
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
    /// block span, which makes both the removal re-scan and frontier DFS
    /// sound. The cost is a modestly denser graph; correctness first.
    pub(crate) fn link_partition(&mut self, pid: PartId) {
        let (row_id, lo, hi) = {
            let p = &self.parts[pid.key()];
            (p.row, p.spec.block_lo, p.spec.block_hi)
        };
        let preds = self.coverage_scan(row_id, lo, hi, Direction::Backward);
        let succs = self.coverage_scan(row_id, lo, hi, Direction::Forward);
        for &p in &preds {
            self.add_edge(p, pid);
        }
        for &s in &succs {
            self.add_edge(pid, s);
        }
    }

    /// Nearest partitions covering blocks `[lo, hi]` in direction `dir`
    /// from (exclusive) `from_row`: per block, a binary search in the
    /// coverage index for the closest cover strictly before/after
    /// `from_row`'s order label, deduplicated across blocks.
    fn coverage_scan(&self, from_row: RowId, lo: u32, hi: u32, dir: Direction) -> Vec<PartId> {
        let limit = self
            .rows
            .order_label(from_row.key())
            .expect("coverage scan starts at a live row");
        let label_of = |pid: PartId| {
            self.rows
                .order_label(self.parts[pid.key()].row.key())
                .expect("cover rows are live")
        };
        let mut found = Vec::new();
        for b in lo..=hi {
            let hit = match dir {
                Direction::Backward => self.coverage.last_before(b as usize, limit, label_of),
                Direction::Forward => self.coverage.first_after(b as usize, limit, label_of),
            };
            if let Some(q) = hit {
                if !found.contains(&q) {
                    found.push(q);
                }
            }
        }
        found
    }

    /// Removes a row and all its partitions, reconnecting each orphaned
    /// successor to its true nearest writers and seeding the frontier
    /// with the successors (paper Figure 7 + §III-E removal rule).
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
        // Strip the row's blocks from the owner index while its order
        // label is still readable (the index is sorted by label). A row
        // can only own blocks inside its partitions' spans, so scan
        // those, not the whole state. The same blocks change their final
        // resolution without any simulation, so they are also exactly
        // what the next snapshot capture must re-resolve.
        for pid in &self.rows[row_id.key()].parts {
            let spec = &self.parts[pid.key()].spec;
            for b in spec.block_lo as usize..=spec.block_hi as usize {
                if self.rows[row_id.key()].vector.owns(b) {
                    self.owners.remove(b, row_id, |r| {
                        self.rows
                            .order_label(r.key())
                            .expect("owner index holds only live rows")
                    });
                    self.snap_dirty.insert(b);
                }
            }
        }
        // Strip the row's partitions from the coverage index while the
        // row's order label is still readable (the index is sorted by
        // label); the orphan re-scan below must not see them as covers.
        {
            let rows = &self.rows;
            let parts = &self.parts;
            let label_of = |pid: PartId| {
                rows.order_label(parts[pid.key()].row.key())
                    .expect("cover rows are live")
            };
            for pid in &rows[row_id.key()].parts.clone() {
                let spec = &parts[pid.key()].spec;
                for b in spec.block_lo..=spec.block_hi {
                    self.coverage.remove(b as usize, *pid, label_of);
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
            let part = self.parts.remove(pid.key()).expect("row partition is live");
            // Retained-graph removal detaches every incident edge, so the
            // reconnection scan below patches a graph with no stale nodes.
            self.graph.remove(part.node);
            self.frontier.remove(&pid);
            // Detach.
            for p in &part.preds {
                self.parts[p.key()].succs.retain(|s| *s != pid);
            }
            for s in &part.succs {
                self.parts[s.key()].preds.retain(|p| *p != pid);
            }
            orphaned.extend(part.succs.iter().copied());
            self.frontier.extend(part.succs.iter().copied());
        }
        // Re-derive each orphan's predecessor set by a fresh backward
        // coverage scan (existing edges are kept; add_edge deduplicates).
        orphaned.sort_unstable();
        orphaned.dedup();
        for s in orphaned {
            if !self.parts.contains(s.key()) {
                continue;
            }
            let (s_row, lo, hi) = {
                let p = &self.parts[s.key()];
                (p.row, p.spec.block_lo, p.spec.block_hi)
            };
            let preds = self.coverage_scan(s_row, lo, hi, Direction::Backward);
            for p in preds {
                self.add_edge(p, s);
            }
        }
        // The row's vector (and its owned blocks) drops here; inherited
        // reads now resolve through to earlier rows — removal needs no
        // simulation until `update_state`.
    }

    /// Debug validation: edge symmetry, acyclicity-by-construction
    /// (edges only point from earlier rows to later rows), and
    /// frontier liveness. Used by tests.
    pub fn validate_graph(&self) -> Result<(), String> {
        // Row order index for direction checks.
        let mut order = std::collections::HashMap::new();
        for (i, k) in self.rows.keys().enumerate() {
            order.insert(RowId(k), i);
        }
        for (k, part) in self.parts.iter() {
            let pid = PartId(k);
            if !self.rows.contains(part.row.key()) {
                return Err(format!("{pid:?} points at a dead row"));
            }
            for s in &part.succs {
                let succ = self
                    .parts
                    .get(s.key())
                    .ok_or_else(|| format!("{pid:?} has dead succ {s:?}"))?;
                if !succ.preds.contains(&pid) {
                    return Err(format!("asymmetric edge {pid:?} -> {s:?}"));
                }
                if order[&part.row] >= order[&succ.row] {
                    return Err(format!(
                        "edge {pid:?} -> {s:?} does not advance in row order"
                    ));
                }
                if !part.spec.blocks_intersect(&succ.spec) {
                    return Err(format!("edge {pid:?} -> {s:?} without block overlap"));
                }
            }
            for p in &part.preds {
                let pred = self
                    .parts
                    .get(p.key())
                    .ok_or_else(|| format!("{pid:?} has dead pred {p:?}"))?;
                if !pred.succs.contains(&pid) {
                    return Err(format!("asymmetric edge {p:?} -> {pid:?}"));
                }
            }
        }
        for f in &self.frontier {
            if !self.parts.contains(f.key()) {
                return Err(format!("frontier holds dead partition {f:?}"));
            }
        }
        // Coverage-index coherence: every live partition is indexed for
        // exactly its span, every entry is live, and lists stay sorted by
        // row label.
        let mut expected = 0usize;
        for (k, part) in self.parts.iter() {
            let pid = PartId(k);
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
        // Retained-graph coherence: exactly one live node per partition,
        // carrying that partition's packed id, with every partition edge
        // mirrored (plus the graph's own symmetry/liveness invariants).
        self.graph.validate()?;
        if self.graph.len() != self.parts.len() {
            return Err(format!(
                "retained graph holds {} nodes for {} partitions",
                self.graph.len(),
                self.parts.len()
            ));
        }
        for (k, part) in self.parts.iter() {
            let pid = PartId(k);
            if !self.graph.contains(part.node) {
                return Err(format!("{pid:?} points at a dead retained node"));
            }
            if self.graph.payload(part.node) != k.to_bits() {
                return Err(format!("{pid:?}'s retained node carries a foreign payload"));
            }
            for s in &part.succs {
                if !self
                    .graph
                    .succs(part.node)
                    .contains(&self.parts[s.key()].node)
                {
                    return Err(format!(
                        "partition edge {pid:?} -> {s:?} missing from the retained graph"
                    ));
                }
            }
        }
        for b in 0..self.geom.num_blocks() {
            let mut prev = None;
            for &pid in self.coverage.covers_of(b) {
                let part = self
                    .parts
                    .get(pid.key())
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

#[derive(Clone, Copy)]
enum Direction {
    Backward,
    Forward,
}

impl Ckt {
    /// Expensive debug validation of the operational soundness invariant:
    /// for every partition `s` and every block `b` it spans, the nearest
    /// earlier partition covering `b` (s's true data source ordering-wise)
    /// must reach `s` through successor edges — otherwise a dirty source
    /// could fail to re-dirty `s`. Transitive pruning makes the edge
    /// indirect but must preserve the path.
    pub fn validate_reachability(&self) -> Result<(), String> {
        use std::collections::HashSet;
        for k in self.rows.keys() {
            let row = &self.rows[k];
            for pid in &row.parts {
                let part = &self.parts[pid.key()];
                let (lo, hi) = (part.spec.block_lo, part.spec.block_hi);
                // Nearest covers of s.
                let covers = self.coverage_scan(part.row, lo, hi, Direction::Backward);
                for c in covers {
                    // BFS forward from c, looking for pid.
                    let mut seen: HashSet<PartId> = HashSet::new();
                    let mut stack = vec![c];
                    let mut found = false;
                    while let Some(x) = stack.pop() {
                        if x == *pid {
                            found = true;
                            break;
                        }
                        if seen.insert(x) {
                            stack.extend(self.parts[x.key()].succs.iter().copied());
                        }
                    }
                    if !found {
                        let src = &self.parts[c.key()];
                        return Err(format!(
                            "no path from {}[{},{}] to {}[{},{}]",
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
