//! Rows and partitions: the simulator's internal graph node types.
//!
//! A row is one gate: its op over amplitudes or amplitude pairs
//! ([`LinearOp`]; a superposition gate is a 2×2 matrix over pairs) and
//! its block-disjoint partitions. The blocks it writes live in the owner
//! index ([`crate::owners::OwnerIndex`]), keyed by [`RowId`].

use qtask_circuit::NetId;
use qtask_partition::{BlockGeometry, LinearOp, PartitionSpec};
use qtask_taskflow::RetainedGraph;
use qtask_util::define_key;
use std::sync::atomic::AtomicU64;

define_key! {
    /// Stable handle to a row (one layer of the COW vector chain).
    pub struct RowId;
}

/// Stable handle to a partition: the id of the retained task-graph node
/// whose payload it is.
pub use qtask_taskflow::NodeId as PartId;

/// One layer of the state chain: a gate's op and its partitions.
pub struct Row {
    /// The net this row belongs to.
    pub net: NetId,
    /// What the row computes: one op over amplitudes or amplitude pairs.
    pub op: LinearOp,
    /// Partitions of this row, ordered by `block_lo` (block-disjoint).
    pub parts: Vec<PartId>,
    /// Largest partition block span — the row-ordering sort key.
    pub max_part_blocks: u32,
    /// The run in which this row is transient, its buffers free for the
    /// next writer of each block to take (0 = none).
    pub transient: u64,
    /// Display label for DOT dumps (e.g. "G8").
    pub label: std::sync::Arc<str>,
}

impl Row {
    /// The blocks this row's tasks write, ascending: the union of
    /// [`Partition::written_blocks`] over its partitions. A row that has
    /// run owns exactly these.
    pub(crate) fn written_blocks<'a>(
        &'a self,
        parts: &'a RetainedGraph<Partition>,
        geom: &BlockGeometry,
        n_qubits: u8,
    ) -> impl Iterator<Item = usize> + 'a {
        let geom = *geom;
        self.parts
            .iter()
            .flat_map(move |&pid| parts[pid].written_blocks(&self.op, &geom, n_qubits))
    }
}

/// A node of the task graph: a group of consecutive blocks of one row.
/// It is the payload of its node in the engine's retained task graph,
/// which holds its edges and its dirty flag.
pub struct Partition {
    /// The row this partition belongs to.
    pub row: RowId,
    /// Block range and item-rank range.
    pub spec: PartitionSpec,
    /// The run this partition only passes through: it joins it to order
    /// a replay before its reader, and executes nothing (0 = none).
    pub(crate) pass: AtomicU64,
}

impl Partition {
    /// The blocks this partition's tasks write when its row computes
    /// `op`, ascending: the span blocks the pattern touches (a span can
    /// hold blocks its items never touch).
    pub(crate) fn written_blocks(
        &self,
        op: &LinearOp,
        geom: &BlockGeometry,
        n_qubits: u8,
    ) -> impl Iterator<Item = usize> {
        let log2_block = geom.block_size().trailing_zeros();
        let pattern = op.pattern(n_qubits);
        (self.spec.block_lo as usize..self.spec.block_hi as usize + 1)
            .filter(move |&b| pattern.touches_block(b as u64, log2_block))
    }
}
