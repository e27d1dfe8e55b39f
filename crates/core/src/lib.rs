//! The qTask engine: task-parallel incremental quantum circuit simulation.
//!
//! [`Ckt`] is the crate's public type, mirroring the paper's `qTask ckt(5)`
//! object. Its API falls into the paper's three categories (§III-B):
//!
//! * **Circuit modifiers** — [`Ckt::insert_net_after`], [`Ckt::remove_net`],
//!   [`Ckt::insert_gate`], [`Ckt::remove_gate`] (Table II). Every modifier
//!   incrementally restructures the internal partition graph and records
//!   *frontier* partitions. [`Ckt::edit`] wraps any sequence of them into
//!   an atomic transaction: staged against a shadow, committed only if
//!   every op validates, so a mid-batch failure leaves no partial state.
//! * **State update** — [`Ckt::update_state`] re-simulates exactly the
//!   frontier and the partitions downstream of it, in parallel, on the
//!   work-stealing executor, then publishes an immutable versioned
//!   [`StateSnapshot`]. Building a circuit from scratch and calling
//!   `update_state` once is the full-simulation special case.
//! * **Query** — every state read goes through an immutable
//!   [`StateSnapshot`] ([`StateSnapshot::amplitude`],
//!   [`StateSnapshot::state`], [`StateSnapshot::probabilities`],
//!   [`StateSnapshot::sample`]): `Send + Sync`, so readers on any thread
//!   keep querying version *v* while the writer builds *v+1*.
//!   [`Ckt::latest_snapshot`] is what the last update published;
//!   [`Ckt::snapshot`] also republishes the blocks removals changed, so
//!   removing the circuit's last gate and reading needs no simulation at
//!   all. Capture
//!   work is counted by [`QueryReport`]; [`Ckt::dump_graph`] renders the
//!   partition graph.
//!
//! Internally (paper §III-C–F):
//!
//! * Each gate contributes a **row** — its private logical state vector,
//!   stored copy-on-write per block ([`cow`]) in the owner index
//!   ([`owners`]). A net's superposition gates share one matrix–vector
//!   row preceded by a `sync` row. Rows run together are transient
//!   between ⌈√n⌉-spaced checkpoints: a linear row rewrites its
//!   predecessor's buffer in place, and an evicted block is recomputed
//!   from the nearest held one only when read again.
//! * Rows split into **partitions** of consecutive blocks ([`qtask_partition`]);
//!   partitions form the task graph, linked by nearest-overlap coverage
//!   scans ([`pgraph`]).
//! * Each partition is the payload of its node in the engine's persistent
//!   [`qtask_taskflow::RetainedGraph`], and the graph's dirty list is the
//!   frontier. `update_state` closes the dirty set over successor edges
//!   ([`close_dirty`](qtask_taskflow::RetainedGraph::close_dirty)) and
//!   executes it with one
//!   [`run_dirty`](qtask_taskflow::Executor::run_dirty) call; a
//!   partition's intra-partition tasks are its node's parallel chunks
//!   ([`exec`]).

#![forbid(unsafe_code)]

pub mod config;
pub(crate) mod coverage;
pub mod cow;
pub mod delta;
pub mod dump;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fused;
pub mod owners;
pub mod pgraph;
pub mod queries;
pub mod row;
pub mod snapshot;
pub mod spine;
#[doc(hidden)]
pub mod test_support;
pub mod txn;

pub use config::{RowOrderPolicy, SimConfig};
pub use delta::{block_norm_sqr, BlockDelta, SnapshotObserver};
pub use engine::{Ckt, RecoveryReport, UpdateReport};
pub use error::{EngineError, InvariantViolation};
pub use owners::OwnerIndex;
pub use qtask_partition::BlockGeometry;
pub use row::{PartId, RowId};
pub use snapshot::{QueryReport, StateSnapshot};
pub use spine::Spine;
pub use txn::{EditReceipt, EditTxn};
