//! The owner index: the one record of which rows wrote each block, and
//! with what data (paper §III-F3's copy-on-write rows).
//!
//! For every block, `OwnerIndex` keeps the rows that materialized it,
//! each with its buffer, sorted by the rows' order-maintenance labels
//! ([`qtask_util::LinkedArena::order_label`]). A row that did not write a
//! block has no entry: it inherits the block from the nearest earlier
//! owner, bottoming out at the implicit |0…0⟩ initial state. Resolution
//! is one binary search for the greatest owner strictly before the
//! reader — O(log owners-of-block), independent of circuit depth.
//!
//! # Consistency model
//!
//! The index stores [`RowId`]s, never labels: whole-list relabels change
//! label values but never relative order, so a list sorted by label stays
//! sorted and comparisons simply re-read current labels through the
//! accessor passed to each operation.
//!
//! Entries change in two contexts:
//!
//! * **Engine mutation** (`&mut Ckt`): row removal strips the row's
//!   entries before the row leaves the arena ([`OwnerIndex::remove`]).
//! * **Task execution** (shared `&Ckt` via [`crate::exec::ExecView`]): a
//!   task [`take`](OwnerIndex::take)s its row's buffer of a block,
//!   rewrites it, and [`publish`](OwnerIndex::publish)es it back,
//!   inserting the entry on the row's first execution. The partition
//!   graph's dependency edges order every task that writes a block
//!   against every task that reads it from a later row, so a reader's
//!   nearest earlier owner has published before the reader runs; the
//!   per-block mutex serializes the rest.
//!
//! An entry's buffer is out (`None`) only while its own row's task is
//! rewriting it. Resolution walks back past such entries, which only a
//! task torn by a panic leaves behind — [`crate::Ckt::audit`] still
//! resolves every block of a poisoned engine.

use crate::cow::BlockData;
use crate::row::RowId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resolution-path counters, accumulated across one `update_state` and
/// surfaced in [`crate::UpdateReport`]. Shared by all executing tasks.
#[derive(Default)]
pub struct ResolveStats {
    /// Block resolutions performed.
    pub blocks_resolved: AtomicU64,
    /// Owner probes: binary-search steps plus the candidate check of
    /// each resolution (one for a final-state read).
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

/// Per-block sorted lists of owning rows and their buffers.
pub struct OwnerIndex {
    blocks: Vec<Mutex<OwnerList>>,
}

/// One block's owners: row ids ascending by order label, each row's buffer
/// at the same position. Parallel vectors, not one of pairs: the search
/// reads only packed row ids, and 16-byte pairs made glibc return and
/// re-fault 2–3× more memory between full `qft` simulations.
#[derive(Default)]
struct OwnerList {
    rows: Vec<RowId>,
    data: Vec<Option<BlockData>>,
}

impl OwnerList {
    /// Position of the first entry at or after `label`.
    fn search(&self, label: u64, label_of: impl Fn(RowId) -> u64) -> usize {
        self.rows.partition_point(|&r| label_of(r) < label)
    }

    /// The buffer of the nearest entry before `pos` that holds one.
    fn held_before(&self, pos: usize) -> Option<BlockData> {
        self.data[..pos].iter().rev().find_map(Option::clone)
    }

    /// Takes `row`'s buffer out of the entry at `pos` when the entry is
    /// the row's and nothing else shares the buffer.
    fn take_at(&mut self, pos: usize, row: RowId) -> Option<BlockData> {
        if self.rows.get(pos) != Some(&row) {
            return None;
        }
        self.data[pos].take_if(|d| Arc::strong_count(d) == 1)
    }
}

/// Counts one resolution search over a list of `len` entries.
fn count_search(len: usize, stats: &ResolveStats) {
    stats.blocks_resolved.fetch_add(1, Ordering::Relaxed);
    stats.owner_probes.fetch_add(
        (usize::BITS - len.leading_zeros()) as u64 + 1,
        Ordering::Relaxed,
    );
}

impl OwnerIndex {
    /// An empty index over `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> OwnerIndex {
        OwnerIndex {
            blocks: (0..num_blocks).map(|_| Mutex::default()).collect(),
        }
    }

    /// Resolves block `b` as seen from a reader at label `limit`
    /// (exclusive; `u64::MAX` = "after every row"): the buffer of the
    /// nearest earlier entry that holds one, or `None` when the block
    /// bottoms out at the implicit initial state. One lock, one search;
    /// `limit == u64::MAX` (the final-state reader) starts from the
    /// list's end in one probe, since every label is below it. This is
    /// the resolution behind the executor's reads and snapshot capture.
    pub fn resolve_before(
        &self,
        b: usize,
        limit: u64,
        label_of: impl Fn(RowId) -> u64,
        stats: &ResolveStats,
    ) -> Option<BlockData> {
        let list = self.blocks[b].lock();
        let pos = if limit == u64::MAX {
            stats.blocks_resolved.fetch_add(1, Ordering::Relaxed);
            stats.owner_probes.fetch_add(1, Ordering::Relaxed);
            list.rows.len()
        } else {
            count_search(list.rows.len(), stats);
            list.search(limit, label_of)
        };
        list.held_before(pos)
    }

    /// Takes `row`'s own buffer of block `b` for rewriting in place, when
    /// nothing else shares it; a shared buffer stays published and the
    /// caller writes a fresh one. With `resolve`, the same lock and search
    /// also resolve the block before `row`, counted there as one
    /// resolution. Returns `(taken, resolved, position)`; the position is
    /// for [`Self::publish`]. Only the row's own task may call this: the
    /// entry stays out until it publishes.
    pub fn take(
        &self,
        b: usize,
        row: RowId,
        label_of: impl Fn(RowId) -> u64,
        resolve: Option<&ResolveStats>,
    ) -> (Option<BlockData>, Option<BlockData>, usize) {
        let mut list = self.blocks[b].lock();
        let pos = list.search(label_of(row), label_of);
        let resolved = resolve.and_then(|stats| {
            count_search(list.rows.len(), stats);
            list.held_before(pos)
        });
        (list.take_at(pos, row), resolved, pos)
    }

    /// Publishes `data` as `row`'s buffer of block `b`, inserting the
    /// entry on the row's first execution. `hint` is the position
    /// [`Self::take`] returned; it is reused while the entry there is
    /// still the row's.
    pub fn publish(
        &self,
        b: usize,
        row: RowId,
        data: BlockData,
        hint: usize,
        label_of: impl Fn(RowId) -> u64,
    ) {
        let mut list = self.blocks[b].lock();
        let pos = match list.rows.get(hint) {
            Some(&r) if r == row => hint,
            _ => list.search(label_of(row), &label_of),
        };
        if list.rows.get(pos) == Some(&row) {
            list.data[pos] = Some(data);
        } else {
            debug_assert!(
                list.rows
                    .get(pos)
                    .is_none_or(|&r| label_of(r) > label_of(row)),
                "two distinct rows share an order label"
            );
            list.rows.insert(pos, row);
            list.data.insert(pos, Some(data));
        }
    }

    /// Removes `row`'s entry of block `b`. Returns whether it had one.
    pub fn remove(&self, b: usize, row: RowId, label_of: impl Fn(RowId) -> u64) -> bool {
        let mut list = self.blocks[b].lock();
        let pos = list.search(label_of(row), label_of);
        let owned = list.rows.get(pos) == Some(&row);
        if owned {
            list.rows.remove(pos);
            list.data.remove(pos);
        }
        owned
    }

    /// Debug snapshot of block `b`'s entries, `(row, buffer)` in order; a
    /// buffer is `None` while its row's own task rewrites it.
    pub fn entries(&self, b: usize) -> Vec<(RowId, Option<BlockData>)> {
        let list = self.blocks[b].lock();
        list.rows
            .iter()
            .copied()
            .zip(list.data.iter().cloned())
            .collect()
    }

    /// Total entries across all blocks: the owned blocks of every row.
    pub fn num_entries(&self) -> usize {
        self.blocks.iter().map(|l| l.lock().rows.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtask_num::c64;
    use qtask_util::arena::Key;
    use rand::prelude::*;

    fn row(i: u64) -> RowId {
        RowId(Key::from_bits(i))
    }

    /// Row `i` has label `i`.
    fn label(r: RowId) -> u64 {
        r.key().to_bits()
    }

    fn buf(v: f64) -> BlockData {
        Arc::new(vec![c64(v, 0.0); 4])
    }

    #[test]
    fn publish_and_remove() {
        let index = OwnerIndex::new(2);
        let stats = ResolveStats::default();
        assert_eq!(index.num_entries(), 0);
        assert_eq!(index.resolve_before(1, u64::MAX, label, &stats), None);
        index.publish(1, row(3), buf(1.0), 0, label);
        index.publish(1, row(1), buf(0.5), 0, label);
        assert_eq!(index.num_entries(), 2);
        let rows: Vec<RowId> = index.entries(1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![row(1), row(3)], "kept in row order");
        assert_eq!(
            index.resolve_before(1, u64::MAX, label, &stats).unwrap()[0].re,
            1.0
        );
        assert_eq!(
            index.resolve_before(1, 3, label, &stats).unwrap()[0].re,
            0.5
        );
        assert_eq!(index.resolve_before(1, 1, label, &stats), None);
        assert!(index.remove(1, row(3), label));
        assert!(!index.remove(1, row(3), label));
        assert_eq!(
            index.resolve_before(1, u64::MAX, label, &stats).unwrap()[0].re,
            0.5
        );
    }

    #[test]
    fn sharing_is_by_pointer() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        let data = buf(1.0);
        index.publish(0, row(1), Arc::clone(&data), 0, label);
        let read = index.resolve_before(0, u64::MAX, label, &stats).unwrap();
        assert!(Arc::ptr_eq(&read, &data));
        // Three holders: data, read, the entry.
        assert_eq!(Arc::strong_count(&data), 3);
        index.remove(0, row(1), label);
        assert_eq!(Arc::strong_count(&data), 2);
    }

    #[test]
    fn take_then_publish_keeps_allocation() {
        let index = OwnerIndex::new(1);
        index.publish(0, row(2), buf(1.0), 0, label);
        let (taken, _, pos) = index.take(0, row(2), label, None);
        let mut arc = taken.expect("uniquely held");
        let ptr = Arc::as_ptr(&arc);
        Arc::get_mut(&mut arc).unwrap()[0] = c64(2.0, 0.0);
        index.publish(0, row(2), arc, pos, label);
        let back = index.entries(0)[0].1.clone().unwrap();
        assert_eq!(Arc::as_ptr(&back), ptr);
        assert_eq!(back[0].re, 2.0);
    }

    #[test]
    fn shared_buffer_is_not_taken_and_stays_published() {
        let index = OwnerIndex::new(1);
        index.publish(0, row(2), buf(1.0), 0, label);
        let stats = ResolveStats::default();
        let hold = index.resolve_before(0, u64::MAX, label, &stats).unwrap();
        let (taken, _, _) = index.take(0, row(2), label, None);
        assert!(taken.is_none());
        let still = index.resolve_before(0, u64::MAX, label, &stats).unwrap();
        assert!(Arc::ptr_eq(&still, &hold));
        // Another row's take never reaches this row's buffer.
        drop((hold, still));
        assert!(index.take(0, row(5), label, None).0.is_none());
        assert!(index.entries(0)[0].1.is_some());
    }

    #[test]
    fn resolution_skips_a_taken_buffer() {
        let index = OwnerIndex::new(1);
        index.publish(0, row(1), buf(1.0), 0, label);
        index.publish(0, row(2), buf(2.0), 0, label);
        let (taken, _, _) = index.take(0, row(2), label, None);
        assert!(taken.is_some());
        let stats = ResolveStats::default();
        let got = index.resolve_before(0, u64::MAX, label, &stats).unwrap();
        assert_eq!(got[0].re, 1.0, "walked back to the earlier owner");
        assert_eq!(stats.snapshot(), (1, 1), "still one search");
    }

    #[test]
    fn final_reader_takes_last_owner_and_matches_binary_search() {
        let mut rng = StdRng::seed_from_u64(0x0_7e25);
        let mut taken_last = 0;
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
            // Publish a random subset of the rows, in random order.
            let mut owners: Vec<u64> = (0..rows).filter(|_| rng.random_bool(0.6)).collect();
            owners.shuffle(&mut rng);
            for &i in &owners {
                index.publish(
                    0,
                    row(i),
                    BlockData::new(vec![c64(i as f64, 0.0)]),
                    0,
                    label_of,
                );
            }
            // Take a random subset of buffers out; every few cases the
            // last owner's, so resolution must walk back to an earlier one.
            let last = owners.iter().copied().max();
            let mut out = Vec::new();
            for &i in &owners {
                if (case % 4 == 0 && Some(i) == last) || rng.random_bool(0.2) {
                    out.push(
                        index
                            .take(0, row(i), label_of, None)
                            .0
                            .expect("uniquely held"),
                    );
                }
            }
            if last.is_some_and(|l| out.iter().any(|d| d[0].re == l as f64)) {
                taken_last += 1;
            }
            let fast = ResolveStats::default();
            let got = index.resolve_before(0, u64::MAX, label_of, &fast);
            // Every label is below `u64::MAX - 1`, so this limit takes the
            // binary search and must find the same owner.
            let slow = ResolveStats::default();
            let want = index.resolve_before(0, u64::MAX - 1, label_of, &slow);
            assert_eq!(got, want, "case {case}");
            let held = owners
                .iter()
                .filter(|&&i| !out.iter().any(|d| d[0].re == i as f64));
            assert_eq!(
                got.map(|d| d[0].re as u64),
                held.max().copied(),
                "case {case}"
            );
            assert_eq!(fast.snapshot(), (1, 1), "case {case}: one probe");
        }
        assert!(taken_last > 100, "taken last owner exercised {taken_last}x");
    }
}
