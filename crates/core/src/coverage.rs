//! The coverage index: O(log covers) nearest-partition resolution for
//! partition-graph linking.
//!
//! Linking a partition asks, per block it spans, "which is the nearest
//! earlier (or later) partition covering this block?" — and registering
//! it answers that question for free: its neighbours in the block's
//! sorted list ([`CoverageIndex::insert`]). The legacy
//! implementation answered by walking the row list outward from the new
//! partition's row — O(live rows) per link, which makes a depth-`d`
//! circuit pay O(d) per structural edit and defeats the incrementality
//! the write path is meant to have.
//!
//! `CoverageIndex` keeps, per block, the list of partitions whose block
//! span *covers* that block, sorted by the owning rows' order-maintenance
//! labels ([`qtask_util::LinkedArena::order_label`]). The nearest cover
//! in either direction becomes a binary search — O(log covers-of-block),
//! independent of circuit depth.
//!
//! This is the structural sibling of [`crate::owners::OwnerIndex`]: the
//! owner index tracks which rows have *materialized* a block (a runtime
//! property mutated by executing tasks, hence its per-block locks), while
//! the coverage index tracks which partitions *span* a block (a static
//! property of the partition layout, mutated only under `&mut Ckt` — so
//! it needs no locks).
//!
//! # Consistency model
//!
//! The index stores [`PartId`]s, never labels: whole-list relabels change
//! label values but never relative order, so a list sorted by label stays
//! sorted and every operation re-reads current labels through its
//! `label_of` accessor. Within one row, partitions are block-disjoint, so
//! a block's list holds at most one partition per row and labels are
//! strictly increasing — binary search needs no tie-breaking.

use crate::row::PartId;

/// Per-block sorted lists of covering partitions.
pub(crate) struct CoverageIndex {
    /// `blocks[b]` = partitions spanning block `b`, ascending by the
    /// owning row's order label.
    blocks: Vec<Vec<PartId>>,
}

impl CoverageIndex {
    /// An empty index over `num_blocks` blocks.
    pub(crate) fn new(num_blocks: usize) -> CoverageIndex {
        CoverageIndex {
            blocks: (0..num_blocks).map(|_| Vec::new()).collect(),
        }
    }

    /// Records `pid`, whose row has order label `label`, as covering
    /// block `b`, and returns its neighbours in the list: the nearest
    /// earlier and later covers. `label_of` must return the *current*
    /// order label of a live partition's row.
    ///
    /// Appending is O(1): when the list is empty or ends before `label`,
    /// the old last cover is the predecessor and there is no successor.
    /// Otherwise one binary search places `pid`; its neighbours are then
    /// what [`Self::last_before`] and a search for the first later cover
    /// would return.
    pub(crate) fn insert(
        &mut self,
        b: usize,
        pid: PartId,
        label: u64,
        label_of: impl Fn(PartId) -> u64,
    ) -> (Option<PartId>, Option<PartId>) {
        let list = &mut self.blocks[b];
        match list.last() {
            Some(&last) if label_of(last) >= label => {
                let pos = list.partition_point(|&p| label_of(p) < label);
                debug_assert!(
                    label_of(list[pos]) > label,
                    "two partitions of one row cover the same block"
                );
                list.insert(pos, pid);
                (pos.checked_sub(1).map(|i| list[i]), Some(list[pos + 1]))
            }
            last => {
                let pred = last.copied();
                list.push(pid);
                (pred, None)
            }
        }
    }

    /// Removes `pid` from block `b`'s cover list, if present.
    pub(crate) fn remove(&mut self, b: usize, pid: PartId, label_of: impl Fn(PartId) -> u64) {
        let list = &mut self.blocks[b];
        let label = label_of(pid);
        let pos = list.partition_point(|&p| label_of(p) < label);
        if list.get(pos) == Some(&pid) {
            list.remove(pos);
        }
    }

    /// The cover of block `b` with the greatest label strictly below
    /// `limit`, or `None` when no earlier cover exists.
    pub(crate) fn last_before(
        &self,
        b: usize,
        limit: u64,
        label_of: impl Fn(PartId) -> u64,
    ) -> Option<PartId> {
        let list = &self.blocks[b];
        let pos = list.partition_point(|&p| label_of(p) < limit);
        pos.checked_sub(1).map(|i| list[i])
    }

    /// Debug snapshot of block `b`'s cover list, in order.
    pub(crate) fn covers_of(&self, b: usize) -> &[PartId] {
        &self.blocks[b]
    }

    /// Total entries across all blocks (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.blocks.iter().map(|l| l.len()).sum()
    }
}
