//! The owner index: O(log owners) copy-on-write block resolution.
//!
//! The COW chain answers "who wrote block `b` last, as seen from row
//! `r`?". The legacy implementation walks the row list backward — O(live
//! rows) per lookup, which makes a depth-`d` circuit pay O(d) per block
//! read and defeats the incrementality the engine exists to provide.
//!
//! `OwnerIndex` keeps, per block, the list of rows that own (have
//! materialized) that block, sorted by the rows' order-maintenance labels
//! ([`qtask_util::LinkedArena::order_label`]). Resolution becomes a
//! binary search for the greatest owner strictly before the reader — O(log
//! owners-of-block), independent of circuit depth.
//!
//! # Consistency model
//!
//! The index stores [`RowId`]s, never labels: whole-list relabels change
//! label values but never relative order, so a list sorted by label stays
//! sorted and comparisons simply re-read current labels through the
//! accessor passed to each operation.
//!
//! Entries are updated from two contexts:
//!
//! * **Engine mutation** (`&mut Ckt`): row removal strips the row's owned
//!   blocks from the index before the row leaves the arena.
//! * **Task execution** (shared `&Ckt` via [`crate::exec::ExecView`]):
//!   when a partition task publishes a block its row did not previously
//!   own, it inserts the row under the block's mutex. The partition
//!   graph's dependency edges guarantee a reader's nearest earlier writer
//!   has fully published before the reader runs, so a reader never races
//!   the insertion it depends on; inserts for unrelated (later) rows are
//!   serialized by the per-block lock.
//!
//! [`OwnerIndex::last_before`] additionally tolerates benign staleness: a
//! candidate that turns out not to own the block (e.g. its buffer was
//! reclaimed by `take_reusable_arc` during its own re-execution) can be
//! skipped by retrying with that candidate's label as the new upper
//! bound.

use crate::cow::BlockData;
use crate::row::RowId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Resolution-path counters, accumulated across one `update_state` and
/// surfaced in [`crate::UpdateReport`]. Shared by all executing tasks.
#[derive(Default)]
pub struct ResolveStats {
    /// Block resolutions performed (chain lookups).
    pub blocks_resolved: AtomicU64,
    /// Owner probes: rows visited by the legacy walk, or binary-search
    /// steps + candidate checks with the owner index.
    pub owner_probes: AtomicU64,
}

impl ResolveStats {
    /// Resets both counters.
    pub fn reset(&self) {
        self.blocks_resolved.store(0, Ordering::Relaxed);
        self.owner_probes.store(0, Ordering::Relaxed);
    }

    /// Current `(blocks_resolved, owner_probes)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.blocks_resolved.load(Ordering::Relaxed),
            self.owner_probes.load(Ordering::Relaxed),
        )
    }
}

/// Per-block sorted lists of owning rows.
pub struct OwnerIndex {
    /// `blocks[b]` = rows owning block `b`, ascending by order label.
    blocks: Vec<Mutex<Vec<RowId>>>,
}

impl OwnerIndex {
    /// An empty index over `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> OwnerIndex {
        OwnerIndex {
            blocks: (0..num_blocks).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of blocks indexed.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Records `row` as an owner of block `b`. Idempotent. `label_of`
    /// must return the *current* order label of a live row.
    pub fn add(&self, b: usize, row: RowId, label_of: impl Fn(RowId) -> u64) {
        let mut list = self.blocks[b].lock();
        let label = label_of(row);
        let pos = list.partition_point(|&r| label_of(r) < label);
        if list.get(pos) != Some(&row) {
            debug_assert!(
                list.get(pos).is_none_or(|&r| label_of(r) > label),
                "two distinct rows share an order label"
            );
            list.insert(pos, row);
        }
    }

    /// Removes `row` from block `b`'s owner list, if present.
    pub fn remove(&self, b: usize, row: RowId, label_of: impl Fn(RowId) -> u64) {
        let mut list = self.blocks[b].lock();
        let label = label_of(row);
        let pos = list.partition_point(|&r| label_of(r) < label);
        if list.get(pos) == Some(&row) {
            list.remove(pos);
        }
    }

    /// The owner of block `b` with the greatest label strictly below
    /// `limit`, or `None` when no earlier owner exists. Probe counts
    /// (binary-search steps + the candidate fetch) are added to `stats`.
    /// `limit == u64::MAX` ("after every row", the final-state reader)
    /// is answered by the list's last entry in one probe: labels are
    /// below `u64::MAX`, so the search would land there anyway.
    pub fn last_before(
        &self,
        b: usize,
        limit: u64,
        label_of: impl Fn(RowId) -> u64,
        stats: &ResolveStats,
    ) -> Option<RowId> {
        let list = self.blocks[b].lock();
        if limit == u64::MAX {
            stats.owner_probes.fetch_add(1, Ordering::Relaxed);
            return list.last().copied();
        }
        let pos = list.partition_point(|&r| label_of(r) < limit);
        stats.owner_probes.fetch_add(
            (usize::BITS - list.len().leading_zeros()) as u64 + 1,
            Ordering::Relaxed,
        );
        pos.checked_sub(1).map(|i| list[i])
    }

    /// Resolves block `b` as seen from a reader at label `limit`
    /// (exclusive; `u64::MAX` = "after every row"): the nearest earlier
    /// owner's data, skipping stale candidates whose buffer `fetch`
    /// cannot produce. Returns `None` when the block bottoms out at the
    /// implicit initial state. This is the one shared walk behind both
    /// the executor's `resolve_before` and snapshot capture's
    /// `resolve_final_data`.
    pub fn resolve_before(
        &self,
        b: usize,
        mut limit: u64,
        label_of: impl Fn(RowId) -> u64,
        fetch: impl Fn(RowId) -> Option<BlockData>,
        stats: &ResolveStats,
    ) -> Option<BlockData> {
        stats.blocks_resolved.fetch_add(1, Ordering::Relaxed);
        // Normally the first candidate owns the block; the loop only
        // re-runs on benign staleness (see module docs).
        while let Some(owner) = self.last_before(b, limit, &label_of, stats) {
            if let Some(data) = fetch(owner) {
                return Some(data);
            }
            limit = label_of(owner);
        }
        None
    }

    /// Drops every entry (used when the engine is rebuilt).
    pub fn clear(&mut self) {
        for list in &self.blocks {
            list.lock().clear();
        }
    }

    /// Debug snapshot of block `b`'s owner list, in order.
    pub fn owners_of(&self, b: usize) -> Vec<RowId> {
        self.blocks[b].lock().clone()
    }

    /// Total entries across all blocks (diagnostics).
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|l| l.lock().len()).sum()
    }

    /// True if no block has any owner.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtask_util::arena::Key;
    use rand::prelude::*;

    fn row(i: u64) -> RowId {
        RowId(Key::from_bits(i))
    }

    #[test]
    fn final_reader_takes_last_owner_and_matches_binary_search() {
        let mut rng = StdRng::seed_from_u64(0x0_7e25);
        let mut reclaimed_last = 0;
        for case in 0..500 {
            // Row i has a random, strictly increasing label.
            let rows = rng.random_range(1..64u64);
            let mut labels = Vec::with_capacity(rows as usize);
            let mut label = 0u64;
            for _ in 0..rows {
                label += rng.random_range(1..1u64 << 20);
                labels.push(label);
            }
            let label_of = |r: RowId| labels[r.key().to_bits() as usize];
            let index = OwnerIndex::new(1);
            // Insert a random subset of the rows, in random order.
            let mut owners: Vec<u64> = (0..rows).filter(|_| rng.random_bool(0.6)).collect();
            owners.shuffle(&mut rng);
            for &i in &owners {
                index.add(0, row(i), label_of);
            }
            // Reclaim a random subset of buffers; every few cases the
            // last owner's, so the retry must fall back to an earlier one.
            let last = owners.iter().copied().max();
            let reclaimed: Vec<u64> = owners
                .iter()
                .copied()
                .filter(|&i| (case % 4 == 0 && Some(i) == last) || rng.random_bool(0.2))
                .collect();
            if last.is_some_and(|l| reclaimed.contains(&l)) {
                reclaimed_last += 1;
            }
            let fetch = |r: RowId| {
                let i = r.key().to_bits();
                (!reclaimed.contains(&i))
                    .then(|| BlockData::new(vec![qtask_num::c64(i as f64, 0.0)]))
            };
            let fast = ResolveStats::default();
            let got = index.resolve_before(0, u64::MAX, label_of, fetch, &fast);
            // Every label is below `u64::MAX - 1`, so this limit takes the
            // binary search and must find the same owner.
            let slow = ResolveStats::default();
            let want = index.resolve_before(0, u64::MAX - 1, label_of, fetch, &slow);
            assert_eq!(got, want, "case {case}");
            if last.is_some_and(|l| !reclaimed.contains(&l)) {
                assert_eq!(fast.snapshot(), (1, 1), "case {case}: one probe");
            }
        }
        assert!(
            reclaimed_last > 100,
            "stale last owner exercised {reclaimed_last}x"
        );
    }
}
