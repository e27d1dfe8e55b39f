//! Engine introspection: final-block resolution, memory accounting and
//! the `debug_*` views of rows and partitions.
//!
//! State is read through [`crate::StateSnapshot`] alone
//! ([`crate::Ckt::latest_snapshot`], [`crate::Ckt::snapshot`]); this
//! module holds the resolution step snapshot capture is built on and the
//! structural queries tests and diagnostics use.

use crate::cow::BlockData;
use crate::engine::Ckt;
use crate::owners::ResolveStats;
use crate::row::{PartId, RowId};
use qtask_num::Complex64;
use std::collections::HashMap;

/// One [`Ckt::debug_partitions`] entry:
/// `(label, block_lo, block_hi, preds, succs, in_frontier)`.
pub type PartitionDebug = (String, u32, u32, Vec<usize>, Vec<usize>, bool);

/// Memory accounting snapshot (the engine-side view of Table III's `mem`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Rows currently alive.
    pub rows: usize,
    /// Partitions currently alive.
    pub partitions: usize,
    /// Block buffers the rows hold: owner-index entries not evicted.
    /// After a full simulation, those of the checkpoints, the untaken MxV
    /// rows and each block's last two writers — not every row's.
    pub owned_blocks: usize,
    /// Bytes of those buffers' amplitudes.
    pub owned_bytes: usize,
}

impl Ckt {
    /// Resolves block `b` of the final state against `stats` counters:
    /// the last owner of `b` in row order, or `None` for the implicit
    /// initial state — the last entry of the owner index's list, one
    /// probe (a reader "after every row"). When that entry is evicted (a
    /// removal left it last), it is re-materialized first and the block
    /// resolved again. Used by snapshot capture and [`Ckt::audit`].
    pub(crate) fn resolve_final_data(&self, b: usize, stats: &ResolveStats) -> Option<BlockData> {
        let label_of = |r: RowId| {
            self.rows
                .order_label(r.key())
                .expect("owner index holds only live rows")
        };
        let tally = stats.tally();
        self.owners
            .resolve_before(b, u64::MAX, label_of, &tally)
            .unwrap_or_else(|_| {
                self.rematerialize(b, u64::MAX, stats);
                self.owners
                    .resolve_before(b, u64::MAX, label_of, &tally)
                    .expect("a re-materialized entry is held")
            })
    }

    /// Debug introspection: every partition as
    /// `(label, block_lo, block_hi, preds, succs, in_frontier)`, in row
    /// order. For tests and diagnostics.
    pub fn debug_partitions(&self) -> Vec<PartitionDebug> {
        let index = |ids: &[PartId]| ids.iter().map(|p| p.key().index()).collect();
        let mut out = Vec::new();
        for k in self.rows.keys() {
            let row = &self.rows[k];
            for &pid in &row.parts {
                let part = &self.graph[pid];
                out.push((
                    row.label.to_string(),
                    part.spec.block_lo,
                    part.spec.block_hi,
                    index(self.graph.preds(pid)),
                    index(self.graph.succs(pid)),
                    self.graph.is_dirty(pid),
                ));
            }
        }
        out
    }

    /// Debug introspection: per-row `(label, owned block ids)`, in row
    /// order, with each row's gate kind when it has one.
    pub fn debug_rows(&self) -> Vec<(String, Vec<usize>)> {
        let mut owned = self.owned_blocks_by_row();
        self.rows
            .keys()
            .map(|k| {
                let blocks = owned.remove(&RowId(k)).unwrap_or_default();
                (self.rows[k].label.to_string(), blocks)
            })
            .collect()
    }

    /// Every row's owned blocks, ascending, read off the owner index.
    pub(crate) fn owned_blocks_by_row(&self) -> HashMap<RowId, Vec<usize>> {
        let mut owned: HashMap<RowId, Vec<usize>> = HashMap::new();
        for b in 0..self.geom.num_blocks() {
            for (row, _) in self.owners.entries(b) {
                owned.entry(row).or_default().push(b);
            }
        }
        owned
    }

    /// Memory accounting across all rows: owned blocks are the buffers
    /// the owner index holds; evicted entries own none.
    pub fn memory_stats(&self) -> MemStats {
        let bs = self.geom.block_size();
        let owned_blocks = self.owners.num_held();
        MemStats {
            rows: self.rows.len(),
            partitions: self.graph.len(),
            owned_blocks,
            owned_bytes: owned_blocks * bs * std::mem::size_of::<Complex64>(),
        }
    }
}
