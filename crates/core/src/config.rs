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
    /// Allowed `|norm² − 1|` at publication: beyond it the update fails
    /// with [`crate::EngineError::NormDrift`] and the engine poisons
    /// itself (see `DESIGN.md`, "Numerical health"). The default (1e-6)
    /// is far above honest f64 rounding across deep circuits and far
    /// below any real corruption.
    pub norm_tolerance: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            block_size: 256,
            num_threads: qtask_taskflow::default_threads(),
            row_order: RowOrderPolicy::SortedByBlockCount,
            mxv_group_max: 2,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.block_size, 256);
        assert_eq!(c.row_order, RowOrderPolicy::SortedByBlockCount);
        assert!(c.num_threads >= 1);
        assert_eq!(c.mxv_group_max, 2);
        assert!(c.norm_tolerance > 0.0);
    }
}
