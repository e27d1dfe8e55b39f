//! Rows and partitions: the simulator's internal graph node types.
//!
//! A row holds what it computes and its partitions; the blocks it writes
//! live in the owner index ([`crate::owners::OwnerIndex`]), keyed by
//! [`RowId`].

use qtask_circuit::{GateId, NetId};
use qtask_num::Mat2;
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

/// One dense (superposing) factor of a net's matrix–vector row.
#[derive(Clone, Copy, Debug)]
pub struct DenseFactor {
    /// The contributing gate.
    pub gate: GateId,
    /// Control bit mask (all must be 1 for the factor to act).
    pub controls: u64,
    /// Target qubit.
    pub target: u8,
    /// The 2×2 matrix applied to the target.
    pub mat: Mat2,
}

/// What a row computes.
pub enum RowKind {
    /// Pure synchronization before a matrix–vector row; owns no blocks.
    Sync,
    /// The net's grouped superposition gates: a sparse matrix–vector
    /// product, one partition per grain of blocks
    /// ([`qtask_partition::BlockGeometry::grain`]), rows derived on the
    /// fly.
    MxV,
    /// A single non-superposition gate applied by pair swapping/scaling.
    Linear(LinearOp),
}

/// One layer of the state chain: a gate (or gate group) and its
/// partitions.
pub struct Row {
    /// The net this row belongs to.
    pub net: NetId,
    /// What the row computes.
    pub kind: RowKind,
    /// The owning gate for `Linear` rows.
    pub gate: Option<GateId>,
    /// Dense factors for `MxV` rows (kept sorted by target for
    /// deterministic output).
    pub dense: Vec<DenseFactor>,
    /// Fused sparse-row operator over `dense` ([`crate::fused::FusedOp`]).
    /// Built in `update_state` for dirty rows (`None` after that only for
    /// groups too wide to fuse); invalidated by every modifier that
    /// changes the factor group.
    pub fused: Option<crate::fused::FusedOp>,
    /// Partitions of this row, ordered by `block_lo` (block-disjoint).
    pub parts: Vec<PartId>,
    /// Largest partition block span — the row-ordering sort key.
    pub max_part_blocks: u32,
    /// The run in which this row is transient, its buffers free for the
    /// next writer of each block to take (0 = none).
    pub transient: u64,
    /// Display label for DOT dumps (e.g. "G8" or "MxV(net3)").
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
            .flat_map(move |&pid| parts[pid].written_blocks(&self.kind, &geom, n_qubits))
    }

    /// Whether a partition of this row reads blocks it does not write:
    /// true for an MxV row with a target at or above the block width,
    /// whose sources lie in other blocks. A *block-local* MxV row (every
    /// target below the block width; controls anywhere) reads only the
    /// blocks it writes, as a linear row does. The rule stops at the
    /// block, not at the grain: taking the buffers of a row that writes
    /// every block evicts a whole state, which lengthens later edits'
    /// replays (DESIGN.md, "Fused MxV operators").
    pub(crate) fn reads_all_blocks(&self, block_size: usize) -> bool {
        matches!(self.kind, RowKind::MxV)
            && self.dense.iter().any(|f| 1usize << f.target >= block_size)
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
    /// `kind`, ascending: its whole span for an MxV partition, the span
    /// blocks the pattern touches for a linear one (a linear span can
    /// hold blocks its items never touch), none for a sync barrier.
    pub(crate) fn written_blocks(
        &self,
        kind: &RowKind,
        geom: &BlockGeometry,
        n_qubits: u8,
    ) -> impl Iterator<Item = usize> {
        let log2_block = geom.block_size().trailing_zeros();
        let span = self.spec.block_lo as usize..self.spec.block_hi as usize + 1;
        let (span, pattern) = match kind {
            RowKind::Sync => (0..0, None),
            RowKind::MxV => (span, None),
            RowKind::Linear(op) => (span, Some(op.pattern(n_qubits))),
        };
        span.filter(move |&b| {
            pattern
                .as_ref()
                .is_none_or(|p| p.touches_block(b as u64, log2_block))
        })
    }
}
