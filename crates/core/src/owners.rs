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
//!   task takes its row's buffer of a block ([`OwnerIndex::take_own`]) or
//!   its transient predecessor's ([`OwnerIndex::take_input`]), rewrites
//!   it, and [`publish`](OwnerIndex::publish)es it back, inserting the
//!   entry on the row's first execution. The partition graph's
//!   dependency edges order every task that writes a block against every
//!   task that reads it from a later row, so a reader's nearest earlier
//!   owner has published before the reader runs; the per-block mutex
//!   serializes the rest.
//!
//! An entry without a buffer (`None`) has lost it to the block's next
//! writer — it is *evicted* — or has it out while its own row's task
//! rewrites it. Resolution never walks past one: no task of the run
//! reads an evicted entry (its next writer took it), nor an entry that
//! is out (its readers wait for the task), and a later read
//! re-materializes it first, where no task runs (`Ckt::rematerialize`)
//! — which also repairs an entry a panicking task left out, so
//! [`crate::Ckt::audit`] still resolves every block of a poisoned
//! engine.

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
    /// Owner probes: the label comparisons each resolution's search
    /// made (one for a final-state read or a tail append).
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

/// What [`OwnerIndex::take_input`] hands a task that rewrites a block.
pub enum Input {
    /// The predecessor entry's buffer, holding the block as seen before
    /// the row; that entry is now evicted.
    Taken(BlockData),
    /// The block as seen before the row (`None`: the initial state), and
    /// the row's own unshared buffer to refill, when it has one.
    Resolved {
        /// The nearest earlier held buffer.
        before: Option<BlockData>,
        /// The row's own buffer.
        own: Option<BlockData>,
    },
}

/// Per-block sorted lists of owning rows and their buffers.
pub struct OwnerIndex {
    blocks: Vec<Mutex<OwnerList>>,
}

/// One block's owners: row ids ascending by order label, each row's buffer
/// at the same position. Parallel vectors, not one of pairs: the search
/// reads only packed row ids, and 16-byte pairs made glibc return and
/// re-fault 2–3× more memory between full `qft` simulations (a 16-byte
/// buffer slot slowed the incremental Table III protocol on big_adder@16
/// by a fifth).
#[derive(Default)]
struct OwnerList {
    rows: Vec<RowId>,
    data: Vec<Option<BlockData>>,
}

impl OwnerList {
    /// Position of the first entry at or after `label`, and the probes
    /// (label comparisons) that took: one when every entry is before it
    /// (a row appended at the tail) or the list is empty, else one more
    /// per binary-search step over the rest.
    fn search(&self, label: u64, label_of: impl Fn(RowId) -> u64) -> (usize, u64) {
        let Some((&last, rest)) = self.rows.split_last() else {
            return (0, 1);
        };
        if label_of(last) < label {
            return (self.rows.len(), 1);
        }
        let mut probes = 1;
        let pos = rest.partition_point(|&r| {
            probes += 1;
            label_of(r) < label
        });
        (pos, probes)
    }

    /// The buffer of the nearest entry before `pos` (`None`: the initial
    /// state); `Err` names its row when it has no buffer.
    fn buffer_before(&self, pos: usize) -> Result<Option<BlockData>, RowId> {
        let Some(at) = pos.checked_sub(1) else {
            return Ok(None);
        };
        self.data[at].clone().map(Some).ok_or(self.rows[at])
    }

    /// Takes the buffer out of the entry at `pos` when nothing else
    /// shares it.
    fn take_unique(&mut self, pos: usize) -> Option<BlockData> {
        self.data
            .get_mut(pos)?
            .take_if(|d| Arc::strong_count(d) == 1)
    }

    /// Takes `row`'s own buffer out of the entry at `pos` when the entry
    /// is the row's and nothing else shares the buffer.
    fn take_at(&mut self, pos: usize, row: RowId) -> Option<BlockData> {
        (self.rows.get(pos) == Some(&row)).then(|| self.take_unique(pos))?
    }
}

/// Counts one resolution that took `probes` owner probes.
fn count_search(probes: u64, stats: &ResolveStats) {
    stats.blocks_resolved.fetch_add(1, Ordering::Relaxed);
    stats.owner_probes.fetch_add(probes, Ordering::Relaxed);
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
    /// nearest earlier entry, or `None` when the block bottoms out at the
    /// implicit initial state; `Err` names that entry's row when it has
    /// no buffer, to be re-materialized first. One lock, one search;
    /// `limit == u64::MAX` (the final-state reader) starts from the
    /// list's end in one probe, since every label is below it. This is
    /// the resolution behind the executor's reads and snapshot capture.
    pub fn resolve_before(
        &self,
        b: usize,
        limit: u64,
        label_of: impl Fn(RowId) -> u64,
        stats: &ResolveStats,
    ) -> Result<Option<BlockData>, RowId> {
        let list = self.blocks[b].lock();
        let (pos, probes) = if limit == u64::MAX {
            (list.rows.len(), 1)
        } else {
            list.search(limit, label_of)
        };
        count_search(probes, stats);
        list.buffer_before(pos)
    }

    /// The row whose evicted entry of block `b` a read before label
    /// `limit` would land on, if any; counts no resolution.
    pub fn evicted_before(
        &self,
        b: usize,
        limit: u64,
        label_of: impl Fn(RowId) -> u64,
    ) -> Option<RowId> {
        let list = self.blocks[b].lock();
        list.buffer_before(list.search(limit, label_of).0).err()
    }

    /// Takes `row`'s own buffer of block `b` for rewriting in place, when
    /// nothing else shares it; a shared buffer stays published and the
    /// caller writes a fresh one. Returns it with the position for
    /// [`Self::publish`]. Only the row's own task may call this: the
    /// entry stays out until it publishes.
    pub fn take_own(
        &self,
        b: usize,
        row: RowId,
        label_of: impl Fn(RowId) -> u64,
    ) -> (Option<BlockData>, usize) {
        let mut list = self.blocks[b].lock();
        let pos = list.search(label_of(row), label_of).0;
        (list.take_at(pos, row), pos)
    }

    /// The input of `row`'s rewrite of block `b`, under one lock and one
    /// search, counted as one resolution: the predecessor entry's buffer,
    /// evicting the entry, when `takeable` says its row may lose it and
    /// nothing else holds it; else the block resolved before `row`, with
    /// the row's own buffer as for [`Self::take_own`]. Returns the
    /// position for [`Self::publish`]. Panics when the resolution lands
    /// on an entry without a buffer.
    pub fn take_input(
        &self,
        b: usize,
        row: RowId,
        label_of: impl Fn(RowId) -> u64,
        stats: &ResolveStats,
        takeable: impl Fn(RowId) -> bool,
    ) -> (Input, usize) {
        let mut list = self.blocks[b].lock();
        let (pos, probes) = list.search(label_of(row), label_of);
        count_search(probes, stats);
        if pos > 0 && takeable(list.rows[pos - 1]) {
            if let Some(taken) = list.take_unique(pos - 1) {
                return (Input::Taken(taken), pos);
            }
        }
        let before = list.buffer_before(pos).unwrap_or_else(|evicted| {
            panic!("block {b}: resolution reached the evicted entry of {evicted:?}")
        });
        let own = list.take_at(pos, row);
        (Input::Resolved { before, own }, pos)
    }

    /// Publishes `data` as `row`'s buffer of block `b`, inserting the
    /// entry on the row's first execution. `hint` is the position a take
    /// returned; it is reused while the entry there is still the row's.
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
            _ => list.search(label_of(row), &label_of).0,
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
        let pos = list.search(label_of(row), label_of).0;
        let owned = list.rows.get(pos) == Some(&row);
        if owned {
            list.rows.remove(pos);
            list.data.remove(pos);
        }
        owned
    }

    /// Debug snapshot of block `b`'s entries, `(row, buffer)` in order; a
    /// buffer is `None` when the entry is evicted.
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

    /// Entries that have not been evicted: the buffers the index holds.
    pub fn num_held(&self) -> usize {
        let held = |l: &Mutex<OwnerList>| l.lock().data.iter().flatten().count();
        self.blocks.iter().map(held).sum()
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

    /// The value of a resolution that must not land on an evicted entry.
    fn held(got: Result<Option<BlockData>, RowId>) -> Option<BlockData> {
        got.expect("no evicted entry on the way")
    }

    #[test]
    fn publish_and_remove() {
        let index = OwnerIndex::new(2);
        let stats = ResolveStats::default();
        assert_eq!(index.num_entries(), 0);
        assert_eq!(held(index.resolve_before(1, u64::MAX, label, &stats)), None);
        index.publish(1, row(3), buf(1.0), 0, label);
        index.publish(1, row(1), buf(0.5), 0, label);
        assert_eq!(index.num_entries(), 2);
        let rows: Vec<RowId> = index.entries(1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![row(1), row(3)], "kept in row order");
        let final_read = held(index.resolve_before(1, u64::MAX, label, &stats));
        assert_eq!(final_read.unwrap()[0].re, 1.0);
        let before_3 = held(index.resolve_before(1, 3, label, &stats));
        assert_eq!(before_3.unwrap()[0].re, 0.5);
        assert_eq!(held(index.resolve_before(1, 1, label, &stats)), None);
        assert!(index.remove(1, row(3), label));
        assert!(!index.remove(1, row(3), label));
        let final_read = held(index.resolve_before(1, u64::MAX, label, &stats));
        assert_eq!(final_read.unwrap()[0].re, 0.5);
    }

    #[test]
    fn sharing_is_by_pointer() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        let data = buf(1.0);
        index.publish(0, row(1), Arc::clone(&data), 0, label);
        let read = held(index.resolve_before(0, u64::MAX, label, &stats)).unwrap();
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
        let (taken, pos) = index.take_own(0, row(2), label);
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
        let hold = held(index.resolve_before(0, u64::MAX, label, &stats)).unwrap();
        let (taken, _) = index.take_own(0, row(2), label);
        assert!(taken.is_none());
        let still = held(index.resolve_before(0, u64::MAX, label, &stats)).unwrap();
        assert!(Arc::ptr_eq(&still, &hold));
        // Another row's take never reaches this row's buffer.
        drop((hold, still));
        assert!(index.take_own(0, row(5), label).0.is_none());
        assert!(index.entries(0)[0].1.is_some());
    }

    /// A resolution counts the comparisons its search made: one at the
    /// tail or in an empty list, the tail check plus the binary-search
    /// steps over the rest otherwise.
    #[test]
    fn probes_count_the_comparisons_made() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        held(index.resolve_before(0, 5, label, &stats));
        assert_eq!(stats.snapshot(), (1, 1), "empty list");
        for i in 1..=8 {
            index.publish(0, row(i), buf(i as f64), 0, label);
        }
        stats.reset();
        held(index.resolve_before(0, 9, label, &stats));
        assert_eq!(stats.snapshot(), (1, 1), "after the tail");
        stats.reset();
        held(index.resolve_before(0, 4, label, &stats));
        let (resolved, probes) = stats.snapshot();
        // The tail check, then a binary search over the other 7.
        assert_eq!(resolved, 1);
        assert!((2..=5).contains(&probes), "{probes} probes");
    }

    /// A buffer its own task has out is not walked past either: the
    /// read reports the entry, as for an evicted one, and still counts
    /// one search.
    #[test]
    fn resolution_stops_at_a_taken_buffer() {
        let index = OwnerIndex::new(1);
        index.publish(0, row(1), buf(1.0), 0, label);
        index.publish(0, row(2), buf(2.0), 0, label);
        let (taken, pos) = index.take_own(0, row(2), label);
        let stats = ResolveStats::default();
        let got = index.resolve_before(0, u64::MAX, label, &stats);
        assert_eq!(got, Err(row(2)), "not walked back to the earlier owner");
        assert_eq!(stats.snapshot(), (1, 1), "still one search");
        index.publish(0, row(2), taken.expect("uniquely held"), pos, label);
        let got = held(index.resolve_before(0, u64::MAX, label, &stats)).unwrap();
        assert_eq!(got[0].re, 2.0);
    }

    /// The take: a row's input is its predecessor's buffer itself — same
    /// allocation, no copy — and the predecessor entry keeps its row id
    /// but loses its buffer, counted as evicted and not as held.
    #[test]
    fn take_input_takes_the_predecessor_buffer_whole() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        let data = buf(1.0);
        let ptr = Arc::as_ptr(&data);
        index.publish(0, row(1), data, 0, label);
        let (input, pos) = index.take_input(0, row(3), label, &stats, |r| r == row(1));
        let Input::Taken(mut arc) = input else {
            panic!("a unique, takeable predecessor buffer is taken");
        };
        assert_eq!(Arc::as_ptr(&arc), ptr, "the same allocation");
        assert_eq!(stats.snapshot().0, 1, "counted as one resolution");
        Arc::get_mut(&mut arc).unwrap()[0] = c64(3.0, 0.0);
        index.publish(0, row(3), arc, pos, label);
        let entries = index.entries(0);
        assert_eq!(entries[0], (row(1), None));
        assert_eq!(entries[1].1.as_ref().unwrap()[0].re, 3.0);
        assert_eq!((index.num_entries(), index.num_held()), (2, 1));
        // Re-publishing the evicted entry holds it again.
        index.publish(0, row(1), buf(1.0), 0, label);
        assert_eq!(index.num_held(), 2);
    }

    /// A predecessor stays in place when its row may not lose it or when
    /// anything else holds its buffer: the input is then resolved (a
    /// copy's source) and the row's own buffer taken back.
    #[test]
    fn take_input_leaves_retained_and_shared_predecessors() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        index.publish(0, row(1), buf(1.0), 0, label);
        index.publish(0, row(3), buf(9.0), 0, label);
        // Not takeable: a checkpoint, or a row of an earlier run.
        let (input, pos) = index.take_input(0, row(3), label, &stats, |_| false);
        let Input::Resolved { before, own } = input else {
            panic!("a retained predecessor is not taken");
        };
        assert_eq!(before.unwrap()[0].re, 1.0);
        index.publish(0, row(3), own.expect("own buffer back"), pos, label);
        // Takeable, but a reader pins it.
        let pin = held(index.resolve_before(0, 3, label, &stats)).unwrap();
        let (input, _) = index.take_input(0, row(3), label, &stats, |_| true);
        assert!(matches!(input, Input::Resolved { .. }));
        assert!(index.entries(0)[0].1.is_some());
        drop(pin);
    }

    /// Resolution never walks past an evicted entry: a read that lands on
    /// one reports its row (or, inside a task, panics), and
    /// `evicted_before` finds it without counting a resolution.
    #[test]
    fn reads_stop_at_an_evicted_entry() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        index.publish(0, row(1), buf(1.0), 0, label);
        index.publish(0, row(2), buf(2.0), 0, label);
        let (input, pos) = index.take_input(0, row(4), label, &stats, |_| true);
        let Input::Taken(arc) = input else {
            panic!("takeable");
        };
        index.publish(0, row(4), arc, pos, label);
        // Row 1 is held, but the walk back from row 3 meets row 2 first.
        assert_eq!(index.resolve_before(0, 3, label, &stats), Err(row(2)));
        assert_eq!(index.evicted_before(0, 3, label), Some(row(2)));
        assert_eq!(index.evicted_before(0, 2, label), None);
        assert_eq!(index.evicted_before(0, u64::MAX, label), None);
        stats.reset();
        let crossing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.take_input(0, row(3), label, &stats, |_| false);
        }));
        assert!(crossing.is_err(), "a task's read must not cross it");
        // Removing the evicted entry's taker leaves it last.
        assert!(index.remove(0, row(4), label));
        assert_eq!(
            index.resolve_before(0, u64::MAX, label, &stats),
            Err(row(2))
        );
        assert!(index.remove(0, row(2), label));
        assert_eq!(index.num_held(), index.num_entries());
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
            // last owner's, so the final read must report it.
            let last = owners.iter().copied().max();
            let mut out = Vec::new();
            for &i in &owners {
                if (case % 4 == 0 && Some(i) == last) || rng.random_bool(0.2) {
                    out.push(
                        index
                            .take_own(0, row(i), label_of)
                            .0
                            .expect("uniquely held"),
                    );
                }
            }
            let last_out = last.is_some_and(|l| out.iter().any(|d| d[0].re == l as f64));
            taken_last += usize::from(last_out);
            let fast = ResolveStats::default();
            let got = index.resolve_before(0, u64::MAX, label_of, &fast);
            // Every label is below `u64::MAX - 1`, so this limit takes the
            // binary search and must find the same owner.
            let slow = ResolveStats::default();
            let want = index.resolve_before(0, u64::MAX - 1, label_of, &slow);
            assert_eq!(got, want, "case {case}");
            match last {
                Some(l) if last_out => assert_eq!(got, Err(row(l)), "case {case}"),
                _ => assert_eq!(
                    got.map(|d| d.map(|d| d[0].re as u64)),
                    Ok(last),
                    "case {case}"
                ),
            }
            assert_eq!(fast.snapshot(), (1, 1), "case {case}: one probe");
        }
        assert!(taken_last > 100, "taken last owner exercised {taken_last}x");
    }
}
