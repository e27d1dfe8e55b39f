//! Per-publication write-set records ([`BlockDelta`]) and the observer
//! hook ([`SnapshotObserver`]) that delivers them.
//!
//! Every [`crate::Ckt::update_state`] publication already knows its exact
//! write set — the `snap_dirty` bookkeeping that drives incremental
//! capture. [`BlockDelta`] surfaces that knowledge alongside the
//! published [`StateSnapshot`], so downstream consumers (materialized
//! views, push subscriptions) can re-evaluate a query over Δ∩B instead of
//! recomputing it over the whole state — the DBSP/IVM delta-propagation
//! idiom applied to snapshot versions.
//!
//! Deltas are *cumulative write sets*, not value diffs: a dirty block
//! means "this block's resolved contents may differ from the previous
//! version" (partition execution, or a removed row that used to own it).
//! Consumers holding per-block partial aggregates subtract the stale
//! block contribution and re-add the fresh one; everything else carries
//! over.

use crate::snapshot::StateSnapshot;
use qtask_num::Complex64;

/// Squared norm of one block's amplitudes, summed in index order
/// (`None` = the implicit |0…0⟩ block: 1.0 for block 0, else 0.0).
///
/// The one block-norm pass: the engine computes it for its norm check
/// and ships it in [`BlockDelta::norms`], [`StateSnapshot::norm_sqr`]
/// sums it per block, and views that need a block's whole-block mass
/// recompute it with this same function on refresh, so patched and
/// refreshed partials are `==`, not merely close.
pub fn block_norm_sqr(b: usize, raw: Option<&[Complex64]>) -> f64 {
    match raw {
        Some(d) => d.iter().fold(0.0, |acc, z| acc + z.norm_sqr()),
        None => {
            if b == 0 {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// The write set of one snapshot publication, in block granularity.
#[derive(Clone, Debug)]
pub struct BlockDelta {
    /// Version of the snapshot this delta produced.
    pub version: u64,
    /// Version the delta applies on top of (0 = none: first publication).
    pub prev_version: u64,
    /// Blocks whose resolved contents may have changed since
    /// `prev_version`, ascending. Folds in both executed partitions and
    /// blocks surrendered by removed rows. Empty when `full` is set.
    pub dirty: Vec<usize>,
    /// `norms[i]` is the squared norm ([`block_norm_sqr`]) of
    /// block `dirty[i]` in the new version — the value the engine's norm
    /// check already computed, so consumers need not rescan a block for
    /// its total mass. Parallel to `dirty`; empty when `full` is set.
    pub norms: Vec<f64>,
    /// True when no previous spine existed and every block was resolved
    /// from scratch (first publication, or one following a recovery):
    /// consumers must rebuild, not patch.
    pub full: bool,
}

impl BlockDelta {
    /// `(block, norm)` for every dirty block, ascending. Panics when
    /// `norms` is not parallel to `dirty` (a hand-built delta missing
    /// them) rather than patching with a stale block mass.
    pub fn dirty_norms(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert_eq!(
            self.norms.len(),
            self.dirty.len(),
            "BlockDelta::norms must parallel dirty"
        );
        self.dirty.iter().copied().zip(self.norms.iter().copied())
    }

    /// The delta announcing a from-scratch rebuild of `snap` (used after
    /// [`crate::Ckt::recover`], whose publication supersedes every prior
    /// version).
    pub fn full_refresh(snap: &StateSnapshot) -> BlockDelta {
        BlockDelta {
            version: snap.version(),
            prev_version: 0,
            dirty: Vec::new(),
            norms: Vec::new(),
            full: true,
        }
    }
}

/// A publication hook: attached to a [`crate::Ckt`] via
/// [`crate::Ckt::attach_observer`], it runs synchronously inside the
/// publish path, after the new snapshot became `latest`.
///
/// Contract for implementors: `on_publish` runs on the writer thread
/// with the engine lock held (morally — the engine is `&mut` behind the
/// call), so it must be fast and must **not** panic: an escaping panic
/// is contained by the engine's poisoning guards and takes the whole
/// engine down with it. Consumers that can fail (e.g. view patching)
/// must degrade internally — qtask-views falls back to a full refresh.
///
/// Observers survive [`crate::Ckt::recover`]: the rebuilt engine carries
/// them over and immediately delivers a [`BlockDelta::full_refresh`] for
/// its recovery publication.
pub trait SnapshotObserver: Send + Sync {
    /// Called once per publication with the snapshot that just became
    /// latest and the write set that produced it.
    fn on_publish(&self, snap: &StateSnapshot, delta: &BlockDelta);
}
