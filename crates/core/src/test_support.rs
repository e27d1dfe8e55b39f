//! Hidden hooks for the workspace's own integration tests.
//!
//! The allocation-profile test (`tests/mxv_alloc.rs`) must re-run the
//! partition execution path *in isolation* — outside `update_state`,
//! whose graph construction legitimately allocates — inside a binary
//! whose global allocator counts every heap call. The engine internals it
//! needs are `pub(crate)`, so this module re-exposes exactly the
//! operations the test performs. The oracle checks of the transaction and
//! chaos suites read [`full_state`], which resolves every block from the
//! rows, and differential tests compare the default engine against one
//! that [`retain_every_row`]. Not a public API; hidden from docs and
//! subject to change.

use crate::engine::Ckt;
use crate::exec;
use crate::row::PartId;
use qtask_num::Complex64;

/// All partitions, in row order.
pub fn linear_partitions(ckt: &Ckt) -> Vec<PartId> {
    ckt.rows
        .keys()
        .flat_map(|k| ckt.rows[k].parts.clone())
        .collect()
}

/// Drops the engine's own reference to its latest snapshot. That snapshot
/// pins every block of the final state, so without this re-executed
/// partitions copy-on-write fork their output blocks instead of
/// reclaiming them. The next publication resolves every block afresh.
pub fn unpin_snapshot(ckt: &mut Ckt) {
    ckt.latest = None;
}

/// The state resolved afresh from the engine's rows and owner index:
/// unpins the latest snapshot, so the publication this triggers resolves
/// every block instead of reusing the clean entries of the previous
/// spine. Tests compare it against oracles to check the rows themselves,
/// not a cached capture. Publishes a new snapshot version.
pub fn full_state(ckt: &mut Ckt) -> Vec<Complex64> {
    unpin_snapshot(ckt);
    ckt.snapshot().state()
}

/// Re-executes the given partitions once, serially, on the
/// calling thread, each as a single whole-range task (the `n_tasks <= 1`
/// shape of `update_state`), taking no predecessor's buffer. Idempotent:
/// tasks re-materialize their blocks from the *previous* row's resolved
/// content before applying the gate, so run in row order they also
/// refill every entry a transient row had evicted.
pub fn reexec_linear_partitions(ckt: &Ckt, pids: &[PartId]) {
    let view = ckt.exec_view(&ckt.resolve_stats);
    for &pid in pids {
        let part = &ckt.graph[pid];
        exec::exec_linear_partition(view, part, part.spec.item_start..part.spec.item_end);
    }
}

/// Makes every row of `ckt` a retained checkpoint from its next run on,
/// across [`Ckt::recover`] too: no row's buffers are ever taken by the
/// next writer, so every owner-index entry stays held — the
/// every-row-retained engine differential tests compare the default one
/// against.
pub fn retain_every_row(ckt: &mut Ckt) {
    ckt.retain_all = true;
}
