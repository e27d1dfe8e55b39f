//! Engine reports vs the global metrics registry.
//!
//! `UpdateReport` and `RecoveryReport` counters are routed through the
//! same qtask-obs counters at the same sites, so the per-call structs
//! and the registry can never disagree. This test
//! asserts that equality over a mixed workload by diffing registry
//! snapshots around it.
//!
//! It lives in its own test binary on purpose: the registry is
//! process-global, and any sibling test that drives the engine (the
//! service soaks) would pollute the `core.*` deltas.

use qtask::prelude::*;

fn delta(after: &qtask_obs::MetricsSnapshot, before: &qtask_obs::MetricsSnapshot, k: &str) -> u64 {
    after.counter(k).unwrap_or(0) - before.counter(k).unwrap_or(0)
}

#[test]
fn engine_reports_and_registry_agree() {
    let before = qtask_obs::snapshot();

    let mut ckt = Ckt::new(6);
    let mut updates: Vec<UpdateReport> = Vec::new();
    for q in 0..4u8 {
        ckt.edit(|tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::H, net, &[q])?;
            tx.insert_gate(GateKind::Cx, net, &[(q + 1) % 6, (q + 2) % 6])
        })
        .unwrap();
        updates.push(ckt.update_state().unwrap());
    }
    // An empty-frontier update exercises the early-return path, which
    // must be counted like any other.
    updates.push(ckt.update_state().unwrap());
    // Recovery reports through the same helper as a regular update.
    let recovery: RecoveryReport = ckt.recover().unwrap();
    updates.push(recovery.update.clone());

    let after = qtask_obs::snapshot();
    let d = |k: &str| delta(&after, &before, k);

    assert_eq!(d("core.updates"), updates.len() as u64);
    assert_eq!(
        d("core.partitions_executed"),
        updates.iter().map(|u| u.partitions_executed as u64).sum()
    );
    assert_eq!(
        d("core.tasks_executed"),
        updates.iter().map(|u| u.tasks_executed as u64).sum()
    );
    assert_eq!(
        d("core.blocks_resolved"),
        updates.iter().map(|u| u.blocks_resolved).sum()
    );
    assert_eq!(
        d("core.owner_probes"),
        updates.iter().map(|u| u.owner_probes).sum()
    );
    assert_eq!(
        d("core.snapshot_blocks_resolved"),
        updates.iter().map(|u| u.snapshot_blocks_resolved).sum()
    );
    assert_eq!(d("core.recoveries"), 1);
    assert_eq!(d("core.recovery_failures"), 0);

    // Latency histograms saw exactly one record per call.
    let hist_count = |k: &str| {
        after.histogram(k).map(|h| h.count).unwrap_or(0)
            - before.histogram(k).map(|h| h.count).unwrap_or(0)
    };
    assert_eq!(hist_count("core.update_us"), updates.len() as u64);
    assert_eq!(hist_count("core.recover_us"), 1);

    // Exposition coverage: every counter the engine reports surface is
    // present in both renderings.
    let json = after.to_json();
    let prom = after.to_prometheus();
    for name in [
        "core.updates",
        "core.partitions_executed",
        "core.tasks_executed",
        "core.blocks_resolved",
        "core.owner_probes",
        "core.snapshot_blocks_resolved",
        "core.recoveries",
        "core.recovery_failures",
        "core.update_us",
        "core.recover_us",
    ] {
        assert!(json.contains(name), "JSON exposition is missing {name}");
        let prom_name = format!("qtask_{}", name.replace('.', "_"));
        assert!(
            prom.contains(&prom_name),
            "Prometheus exposition is missing {prom_name}"
        );
    }
}
