//! The owner index: the one record of which rows wrote each block, and
//! with what data (paper §III-F3's copy-on-write rows).
//!
//! For every block, `OwnerIndex` keeps the rows that materialized it,
//! each with its buffer, sorted by the rows' order-maintenance labels
//! ([`qtask_util::LinkedArena::order_label`]). A row that did not write a
//! block has no entry: it inherits the block from the nearest earlier
//! owner, bottoming out at the implicit |0…0⟩ initial state.
//!
//! # Finding an entry
//!
//! A task that rewrites a block finds its row's entry in three steps,
//! cheapest first:
//!
//! 1. the list's *finger*, the position of its last take or publish, and
//!    the slot after it, compared by [`RowId`] — no label read. A run
//!    rewrites each block in row order, so a re-executed row's entry sits
//!    just after the previous writer's;
//! 2. the tail, one label comparison: a row appended after every owner;
//! 3. a binary search over the rest, O(log owners-of-block), independent
//!    of circuit depth.
//!
//! Reads "before label `limit`" (snapshot capture, a non-local MxV row's
//! sources) take steps 2 and 3. A publish inserts at the position its
//! take returned, with no search of its own.
//!
//! # Consistency model
//!
//! The index stores [`RowId`]s, never labels: whole-list relabels change
//! label values but never relative order, so a list sorted by label stays
//! sorted and comparisons simply re-read current labels through the
//! accessor passed to each operation. The finger is only a hint: it is
//! trusted only when the row id it points at is the one sought.
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
//!   owner has published before the reader runs, and no other task
//!   changes a list between one task's take and its publish; the
//!   per-block mutex serializes the rest.
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
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resolution-path counters, accumulated across one `update_state` and
/// surfaced in [`crate::UpdateReport`]. Shared by all executing tasks,
/// each of which adds its own [`Tally`] once, when it ends.
#[derive(Default)]
pub struct ResolveStats {
    /// Block resolutions performed.
    pub blocks_resolved: AtomicU64,
    /// Owner probes: the label comparisons each resolution's search
    /// made — none when the entry sat at the list's finger or the slot
    /// after it, one for a final-state read or a tail append.
    pub owner_probes: AtomicU64,
}

/// One task's resolution counts, kept without atomics and added to its
/// [`ResolveStats`] when dropped.
pub struct Tally<'a> {
    stats: &'a ResolveStats,
    blocks_resolved: Cell<u64>,
    owner_probes: Cell<u64>,
}

impl Tally<'_> {
    /// Counts one resolution that took `probes` owner probes.
    fn count(&self, probes: u64) {
        self.blocks_resolved.set(self.blocks_resolved.get() + 1);
        self.owner_probes.set(self.owner_probes.get() + probes);
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        if self.blocks_resolved.get() > 0 {
            let stats = self.stats;
            stats
                .blocks_resolved
                .fetch_add(self.blocks_resolved.get(), Ordering::Relaxed);
            stats
                .owner_probes
                .fetch_add(self.owner_probes.get(), Ordering::Relaxed);
        }
    }
}

impl ResolveStats {
    /// A tally that adds to these counters when dropped.
    pub fn tally(&self) -> Tally<'_> {
        Tally {
            stats: self,
            blocks_resolved: Cell::new(0),
            owner_probes: Cell::new(0),
        }
    }

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
    /// The position of the last take or publish; a hint, see [`Self::locate`].
    finger: usize,
}

impl OwnerList {
    /// Position of `row`'s entry, or of the first entry after it, and the
    /// probes that took: none when the entry sits at the finger or the
    /// slot after it, else those of [`Self::search`].
    fn locate(&self, row: RowId, label_of: impl Fn(RowId) -> u64) -> (usize, u64) {
        let f = self.finger;
        if self.rows.get(f) == Some(&row) {
            return (f, 0);
        }
        if self.rows.get(f + 1) == Some(&row) {
            return (f + 1, 0);
        }
        self.search(label_of(row), label_of)
    }

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
        tally: &Tally<'_>,
    ) -> Result<Option<BlockData>, RowId> {
        let list = self.blocks[b].lock();
        let (pos, probes) = if limit == u64::MAX {
            (list.rows.len(), 1)
        } else {
            list.search(limit, label_of)
        };
        tally.count(probes);
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
        let pos = list.locate(row, label_of).0;
        list.finger = pos;
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
        tally: &Tally<'_>,
        takeable: impl Fn(RowId) -> bool,
    ) -> (Input, usize) {
        let mut list = self.blocks[b].lock();
        let (pos, probes) = list.locate(row, label_of);
        tally.count(probes);
        list.finger = pos;
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

    /// Publishes `data` as `row`'s buffer of block `b` at `pos`, the
    /// position the row's take returned, inserting the entry there on the
    /// row's first execution. No search: no other task changes the list
    /// between one task's take and its publish (checked in debug builds).
    pub fn publish(
        &self,
        b: usize,
        row: RowId,
        data: BlockData,
        pos: usize,
        label_of: impl Fn(RowId) -> u64,
    ) {
        let mut list = self.blocks[b].lock();
        if list.rows.get(pos) != Some(&row) {
            debug_assert_eq!(
                pos,
                list.search(label_of(row), &label_of).0,
                "block {b}: the list changed between take and publish"
            );
            list.rows.insert(pos, row);
            list.data.insert(pos, None);
        }
        list.data[pos] = Some(data);
        list.finger = pos;
    }

    /// Removes `row`'s entry of block `b`. Returns whether it had one.
    pub fn remove(&self, b: usize, row: RowId, label_of: impl Fn(RowId) -> u64) -> bool {
        let mut list = self.blocks[b].lock();
        let pos = list.locate(row, label_of).0;
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

    /// Publishes `data` as `row`'s buffer of block `b` at the position
    /// its take returns, as a task does.
    fn put(
        index: &OwnerIndex,
        b: usize,
        r: RowId,
        data: BlockData,
        label_of: impl Fn(RowId) -> u64,
    ) {
        let (_, pos) = index.take_own(b, r, &label_of);
        index.publish(b, r, data, pos, label_of);
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
        assert_eq!(
            held(index.resolve_before(1, u64::MAX, label, &stats.tally())),
            None
        );
        put(&index, 1, row(3), buf(1.0), label);
        put(&index, 1, row(1), buf(0.5), label);
        assert_eq!(index.num_entries(), 2);
        let rows: Vec<RowId> = index.entries(1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(rows, vec![row(1), row(3)], "kept in row order");
        let final_read = held(index.resolve_before(1, u64::MAX, label, &stats.tally()));
        assert_eq!(final_read.unwrap()[0].re, 1.0);
        let before_3 = held(index.resolve_before(1, 3, label, &stats.tally()));
        assert_eq!(before_3.unwrap()[0].re, 0.5);
        assert_eq!(
            held(index.resolve_before(1, 1, label, &stats.tally())),
            None
        );
        assert!(index.remove(1, row(3), label));
        assert!(!index.remove(1, row(3), label));
        let final_read = held(index.resolve_before(1, u64::MAX, label, &stats.tally()));
        assert_eq!(final_read.unwrap()[0].re, 0.5);
    }

    #[test]
    fn sharing_is_by_pointer() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        let data = buf(1.0);
        put(&index, 0, row(1), Arc::clone(&data), label);
        let read = held(index.resolve_before(0, u64::MAX, label, &stats.tally())).unwrap();
        assert!(Arc::ptr_eq(&read, &data));
        // Three holders: data, read, the entry.
        assert_eq!(Arc::strong_count(&data), 3);
        index.remove(0, row(1), label);
        assert_eq!(Arc::strong_count(&data), 2);
    }

    #[test]
    fn take_then_publish_keeps_allocation() {
        let index = OwnerIndex::new(1);
        put(&index, 0, row(2), buf(1.0), label);
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
        put(&index, 0, row(2), buf(1.0), label);
        let stats = ResolveStats::default();
        let hold = held(index.resolve_before(0, u64::MAX, label, &stats.tally())).unwrap();
        let (taken, _) = index.take_own(0, row(2), label);
        assert!(taken.is_none());
        let still = held(index.resolve_before(0, u64::MAX, label, &stats.tally())).unwrap();
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
        held(index.resolve_before(0, 5, label, &stats.tally()));
        assert_eq!(stats.snapshot(), (1, 1), "empty list");
        for i in 1..=8 {
            put(&index, 0, row(i), buf(i as f64), label);
        }
        stats.reset();
        held(index.resolve_before(0, 9, label, &stats.tally()));
        assert_eq!(stats.snapshot(), (1, 1), "after the tail");
        stats.reset();
        held(index.resolve_before(0, 4, label, &stats.tally()));
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
        put(&index, 0, row(1), buf(1.0), label);
        put(&index, 0, row(2), buf(2.0), label);
        let (taken, pos) = index.take_own(0, row(2), label);
        let stats = ResolveStats::default();
        let got = index.resolve_before(0, u64::MAX, label, &stats.tally());
        assert_eq!(got, Err(row(2)), "not walked back to the earlier owner");
        assert_eq!(stats.snapshot(), (1, 1), "still one search");
        index.publish(0, row(2), taken.expect("uniquely held"), pos, label);
        let got = held(index.resolve_before(0, u64::MAX, label, &stats.tally())).unwrap();
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
        put(&index, 0, row(1), data, label);
        let (input, pos) = index.take_input(0, row(3), label, &stats.tally(), |r| r == row(1));
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
        put(&index, 0, row(1), buf(1.0), label);
        assert_eq!(index.num_held(), 2);
    }

    /// A predecessor stays in place when its row may not lose it or when
    /// anything else holds its buffer: the input is then resolved (a
    /// copy's source) and the row's own buffer taken back.
    #[test]
    fn take_input_leaves_retained_and_shared_predecessors() {
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        put(&index, 0, row(1), buf(1.0), label);
        put(&index, 0, row(3), buf(9.0), label);
        // Not takeable: a checkpoint, or a row of an earlier run.
        let (input, pos) = index.take_input(0, row(3), label, &stats.tally(), |_| false);
        let Input::Resolved { before, own } = input else {
            panic!("a retained predecessor is not taken");
        };
        assert_eq!(before.unwrap()[0].re, 1.0);
        index.publish(0, row(3), own.expect("own buffer back"), pos, label);
        // Takeable, but a reader pins it.
        let pin = held(index.resolve_before(0, 3, label, &stats.tally())).unwrap();
        let (input, _) = index.take_input(0, row(3), label, &stats.tally(), |_| true);
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
        put(&index, 0, row(1), buf(1.0), label);
        put(&index, 0, row(2), buf(2.0), label);
        let (input, pos) = index.take_input(0, row(4), label, &stats.tally(), |_| true);
        let Input::Taken(arc) = input else {
            panic!("takeable");
        };
        index.publish(0, row(4), arc, pos, label);
        // Row 1 is held, but the walk back from row 3 meets row 2 first.
        assert_eq!(
            index.resolve_before(0, 3, label, &stats.tally()),
            Err(row(2))
        );
        assert_eq!(index.evicted_before(0, 3, label), Some(row(2)));
        assert_eq!(index.evicted_before(0, 2, label), None);
        assert_eq!(index.evicted_before(0, u64::MAX, label), None);
        stats.reset();
        let crossing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.take_input(0, row(3), label, &stats.tally(), |_| false);
        }));
        assert!(crossing.is_err(), "a task's read must not cross it");
        // Removing the evicted entry's taker leaves it last.
        assert!(index.remove(0, row(4), label));
        assert_eq!(
            index.resolve_before(0, u64::MAX, label, &stats.tally()),
            Err(row(2))
        );
        assert!(index.remove(0, row(2), label));
        assert_eq!(index.num_held(), index.num_entries());
    }

    /// The finger is only a hint. Through seeded publishes (appended and
    /// in the middle), takes, evictions and removals (the finger's own
    /// row among them), every lookup lands where the plain search does.
    #[test]
    fn finger_lookups_match_the_plain_search() {
        let mut rng = StdRng::seed_from_u64(0xf1_6e25);
        let index = OwnerIndex::new(1);
        let stats = ResolveStats::default();
        let (mut hits, mut finger_removals, mut middle_inserts) = (0, 0, 0);
        for step in 0..5000 {
            let (at_finger, after_finger) = {
                let list = index.blocks[0].lock();
                let at = |pos: usize| list.rows.get(pos).copied();
                (at(list.finger), at(list.finger + 1))
            };
            let r = match rng.random_range(0..3) {
                0 => at_finger,
                1 => after_finger,
                _ => None,
            }
            .unwrap_or_else(|| row(rng.random_range(0..64)));
            {
                let list = index.blocks[0].lock();
                let (got, probes) = list.locate(r, label);
                assert_eq!(got, list.search(label(r), label).0, "step {step}");
                hits += usize::from(probes == 0);
            }
            match rng.random_range(0..4) {
                0 => {
                    let list = index.blocks[0].lock();
                    let middle = list.rows.last().is_some_and(|&l| label(l) > label(r));
                    middle_inserts += usize::from(middle && !list.rows.contains(&r));
                    drop(list);
                    put(&index, 0, r, buf(1.0), label);
                }
                1 => {
                    // Re-materialize an evicted predecessor first, as a run
                    // does before its tasks start.
                    if let Some(evicted) = index.evicted_before(0, label(r), label) {
                        put(&index, 0, evicted, buf(2.0), label);
                    }
                    let takeable = rng.random_bool(0.5);
                    let (input, pos) = index.take_input(0, r, label, &stats.tally(), |_| takeable);
                    let data = match input {
                        Input::Taken(data) => data,
                        Input::Resolved { own, .. } => own.unwrap_or_else(|| buf(3.0)),
                    };
                    index.publish(0, r, data, pos, label);
                }
                2 => {
                    let (own, pos) = index.take_own(0, r, label);
                    index.publish(0, r, own.unwrap_or_else(|| buf(4.0)), pos, label);
                }
                _ => {
                    let victim = match at_finger {
                        Some(f) if rng.random_bool(0.5) => f,
                        _ => r,
                    };
                    finger_removals += usize::from(Some(victim) == at_finger);
                    index.remove(0, victim, label);
                }
            }
        }
        assert!(hits > 1000, "{hits} finger hits");
        assert!(finger_removals > 100, "{finger_removals} finger removals");
        assert!(middle_inserts > 100, "{middle_inserts} middle inserts");
    }

    /// A run rewrites each block in row order, so re-executing a chain of
    /// 64 rows, each taking its transient predecessor's buffer and
    /// publishing its own, finds every entry at the finger: past the
    /// first take, which searches, no label is compared at all.
    #[test]
    fn in_order_reexecution_compares_no_labels() {
        let index = OwnerIndex::new(1);
        for i in 0..64 {
            put(&index, 0, row(i), buf(i as f64), label);
        }
        let compared = std::cell::Cell::new(0u64);
        let counting = |r: RowId| {
            compared.set(compared.get() + 1);
            label(r)
        };
        let stats = ResolveStats::default();
        for i in 0..64 {
            let before = compared.get();
            let (input, pos) = index.take_input(0, row(i), counting, &stats.tally(), |_| true);
            let data = match input {
                Input::Taken(data) => data,
                Input::Resolved { own, .. } => own.expect("the row's own buffer"),
            };
            index.publish(0, row(i), data, pos, counting);
            if i > 0 {
                assert_eq!(compared.get(), before, "row {i} compared labels");
            }
        }
        let (resolved, probes) = stats.snapshot();
        assert_eq!(resolved, 64);
        // The first take's search: its own label, then the probes.
        assert_eq!(probes + 1, compared.get(), "only the first take searched");
        assert_eq!((index.num_entries(), index.num_held()), (64, 1));
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
                put(
                    &index,
                    0,
                    row(i),
                    BlockData::new(vec![c64(i as f64, 0.0)]),
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
            let got = index.resolve_before(0, u64::MAX, label_of, &fast.tally());
            // Every label is below `u64::MAX - 1`, so this limit takes the
            // binary search and must find the same owner.
            let slow = ResolveStats::default();
            let want = index.resolve_before(0, u64::MAX - 1, label_of, &slow.tally());
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
