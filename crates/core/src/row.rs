//! Rows and partitions: the simulator's internal graph node types.

use crate::cow::{BlockData, RowVector};
use parking_lot::Mutex;
use qtask_circuit::{GateId, NetId};
use qtask_num::Mat2;
use qtask_partition::{LinearOp, PartitionSpec};
use qtask_util::define_key;

define_key! {
    /// Stable handle to a row (one layer of the COW vector chain).
    pub struct RowId;
}

define_key! {
    /// Stable handle to a partition (one node of the task graph).
    pub struct PartId;
}

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

/// One layer of the state chain: a gate (or gate group) plus its
/// copy-on-write output vector and its partitions.
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
    /// Fused sparse-row cache over `dense` ([`crate::fused::FusedOp`]).
    /// Built lazily in `update_state` (`None` after that only for groups
    /// too wide to fuse); invalidated by every modifier that changes the
    /// factor group. Shared (`Arc`) between rows whose
    /// factor groups have identical content, via
    /// [`crate::fused::FusedCache`].
    pub fused: Option<std::sync::Arc<crate::fused::FusedOp>>,
    /// Partitions of this row, ordered by `block_lo` (block-disjoint).
    pub parts: Vec<PartId>,
    /// The row's COW output vector.
    pub vector: RowVector,
    /// Largest partition block span — the row-ordering sort key.
    pub max_part_blocks: u32,
    /// Display label for DOT dumps (e.g. "G8" or "MxV(net3)").
    pub label: std::sync::Arc<str>,
}

/// A node of the task graph: a group of consecutive blocks of one row.
pub struct Partition {
    /// The row this partition belongs to.
    pub row: RowId,
    /// Block range and item-rank range.
    pub spec: PartitionSpec,
    /// Nearest earlier partitions that jointly cover this partition's
    /// blocks (execution must wait for them).
    pub preds: Vec<PartId>,
    /// Partitions whose coverage includes this one, looking forward.
    pub succs: Vec<PartId>,
    /// Pool of working-set entry vectors for this partition's linear
    /// tasks ([`crate::exec`]'s `BlockSet`). A task pops a vector on
    /// entry and pushes it back (drained, capacity intact) after
    /// publishing, so warm re-executions of linear rows allocate nothing
    /// — the linear-row counterpart of the MxV path's
    /// [`crate::cow::RowVector::take_reusable_arc`] reuse. Concurrent
    /// tasks of one partition each pop their own vector; the pool grows
    /// to the high-water concurrency and stays there.
    pub scratch: Mutex<Vec<Vec<(usize, BlockData)>>>,
    /// This partition's node in the engine's retained task graph
    /// ([`qtask_taskflow::RetainedGraph`]). Assigned when the partition is
    /// linked; [`qtask_taskflow::NodeId::DANGLING`] until then.
    pub node: qtask_taskflow::NodeId,
}

impl Partition {
    /// Creates an unlinked partition.
    pub fn new(row: RowId, spec: PartitionSpec) -> Partition {
        Partition {
            row,
            spec,
            preds: Vec::new(),
            succs: Vec::new(),
            scratch: Mutex::new(Vec::new()),
            node: qtask_taskflow::NodeId::DANGLING,
        }
    }
}
