//! Engine configuration.

/// Where a newly inserted gate's row is placed within its net's row
/// sequence (paper §III-F2 and the ablation bench).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOrderPolicy {
    /// The paper's heuristic: "connect them in an increasing order of
    /// block count in partitions", deferring partitions with large block
    /// spans (which fan out widely) as late as possible.
    SortedByBlockCount,
    /// Simple insertion order — the ablation baseline.
    Append,
}

/// How copy-on-write block reads find the owning row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvePolicy {
    /// Binary-search the per-block owner index: O(log owners-of-block)
    /// per lookup, independent of circuit depth. The default.
    OwnerIndex,
    /// Walk the row list backward until an owner is found: O(live rows)
    /// per lookup. Kept for the ablation bench and as a differential
    /// oracle for the index.
    ChainWalk,
}

/// How partition tasks apply gate arithmetic to block buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Run-decomposed batched kernels: Diag as strided slice scaling,
    /// AntiDiag/Swap as whole-run two-slice butterflies, and MxV through
    /// the precomputed [`crate::fused::FusedOp`] row cache. The default.
    Batched,
    /// One amplitude (pair) at a time, with on-the-fly MxV row expansion.
    /// Kept for the ablation bench and as a differential oracle for the
    /// batched path.
    Scalar,
}

/// Whether [`crate::Ckt::update_state`] publishes a
/// [`crate::StateSnapshot`] of the resolved state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotPolicy {
    /// Publish a fresh snapshot at every update (incremental capture:
    /// only the update's write set is re-resolved). The default — this is
    /// what lets readers on other threads query version *v* while the
    /// writer builds *v+1*. While an external reader holds the previous
    /// snapshot, re-executed blocks copy-on-write fork instead of reusing
    /// their buffers (isolation costs the reader's pins, nothing else).
    Publish,
    /// Never publish. [`crate::Ckt::snapshot`] still captures one-off
    /// snapshots on demand, but the engine retains no reference, so no
    /// block is ever pinned and the warm update path stays
    /// allocation-free unconditionally. For the ablation bench and
    /// allocation-profile tests.
    Disabled,
}

/// What the engine does when the published state's norm drifts off unity
/// (or an amplitude goes non-finite) — checked at snapshot publication,
/// i.e. under [`SnapshotPolicy::Publish`] only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericalPolicy {
    /// Norm drift beyond [`SimConfig::norm_tolerance`] is an error: the
    /// update fails with [`crate::EngineError::NormDrift`] and the engine
    /// poisons itself (the state is numerically broken; recover or
    /// rebuild). The default.
    Strict,
    /// Drift is absorbed: the engine records a renormalization scale
    /// `1/√(norm²)` applied by every query, and counts the event in
    /// [`crate::UpdateReport::drift_events`]. Non-finite amplitudes are
    /// still an error — NaN cannot be scaled away.
    Renormalize,
}

/// Tunables of a [`crate::Ckt`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Block size in amplitudes; a power of two. The paper's default is 256.
    /// This is the copy-on-write unit; tasks are dispatched by the larger
    /// derived grain ([`qtask_partition::BlockGeometry::grain`]).
    pub block_size: usize,
    /// Worker threads for the executor (ignored when an executor is shared
    /// via [`crate::Ckt::with_executor`]).
    pub num_threads: usize,
    /// Row ordering policy within a net.
    pub row_order: RowOrderPolicy,
    /// Maximum superposition gates grouped into one matrix–vector row.
    ///
    /// The paper groups *all* of a net's superposition gates into one MxV
    /// row, whose on-the-fly row derivation costs `2^g` source terms per
    /// output amplitude — exponential in the group size, fine at Figure
    /// 2's scale but intractable for a rotation layer across 26 qubits.
    /// We therefore chain several sync+MxV pairs per net once a group
    /// exceeds this cap (grouping still halves the number of full-vector
    /// passes relative to gate-at-a-time baselines). The ablation bench
    /// sweeps this knob.
    pub mxv_group_max: usize,
    /// How block reads resolve the COW chain (see `DESIGN.md`).
    pub resolve: ResolvePolicy,
    /// How partition tasks apply gate arithmetic (see `DESIGN.md`).
    pub kernels: KernelPolicy,
    /// Whether updates publish [`crate::StateSnapshot`]s (see `DESIGN.md`).
    pub snapshots: SnapshotPolicy,
    /// Numerical-health policy at publish time (see `DESIGN.md`).
    pub numerics: NumericalPolicy,
    /// Allowed `|norm² − 1|` before [`SimConfig::numerics`] engages.
    /// The default (1e-6) is far above honest f64 rounding across deep
    /// circuits and far below any real corruption.
    pub norm_tolerance: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            block_size: 256,
            num_threads: qtask_taskflow::default_threads(),
            row_order: RowOrderPolicy::SortedByBlockCount,
            mxv_group_max: 2,
            resolve: ResolvePolicy::OwnerIndex,
            kernels: KernelPolicy::Batched,
            snapshots: SnapshotPolicy::Publish,
            numerics: NumericalPolicy::Strict,
            norm_tolerance: 1e-6,
        }
    }
}

impl SimConfig {
    /// Config with a specific block size.
    pub fn with_block_size(block_size: usize) -> SimConfig {
        SimConfig {
            block_size,
            ..SimConfig::default()
        }
    }

    /// Config with a specific thread count.
    pub fn with_threads(num_threads: usize) -> SimConfig {
        SimConfig {
            num_threads,
            ..SimConfig::default()
        }
    }

    /// This config with the given resolve policy.
    pub fn with_resolve(mut self, resolve: ResolvePolicy) -> SimConfig {
        self.resolve = resolve;
        self
    }

    /// This config with the given kernel policy.
    pub fn with_kernels(mut self, kernels: KernelPolicy) -> SimConfig {
        self.kernels = kernels;
        self
    }

    /// This config with the given snapshot policy.
    pub fn with_snapshots(mut self, snapshots: SnapshotPolicy) -> SimConfig {
        self.snapshots = snapshots;
        self
    }

    /// This config with the given numerical policy.
    pub fn with_numerics(mut self, numerics: NumericalPolicy) -> SimConfig {
        self.numerics = numerics;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.block_size, 256);
        assert_eq!(c.row_order, RowOrderPolicy::SortedByBlockCount);
        assert_eq!(c.resolve, ResolvePolicy::OwnerIndex);
        assert_eq!(c.kernels, KernelPolicy::Batched);
        assert_eq!(c.snapshots, SnapshotPolicy::Publish);
        assert!(c.num_threads >= 1);
        let c = c.with_resolve(ResolvePolicy::ChainWalk);
        assert_eq!(c.resolve, ResolvePolicy::ChainWalk);
        let c = c.with_kernels(KernelPolicy::Scalar);
        assert_eq!(c.kernels, KernelPolicy::Scalar);
        let c = c.with_snapshots(SnapshotPolicy::Disabled);
        assert_eq!(c.snapshots, SnapshotPolicy::Disabled);
        assert_eq!(c.numerics, NumericalPolicy::Strict);
        assert!(c.norm_tolerance > 0.0);
        let c = c.with_numerics(NumericalPolicy::Renormalize);
        assert_eq!(c.numerics, NumericalPolicy::Renormalize);
    }
}
