//! Transactional circuit edits: the writer half of the engine's
//! MVCC-style reader/writer split.
//!
//! [`Ckt::edit`] runs a closure against an [`EditTxn`] that *stages*
//! modifiers in a journal overlay over the live circuit
//! ([`qtask_circuit::StagedBatch`]) instead of mutating the engine. Only
//! when the whole closure succeeds are the validated ops replayed through
//! the engine's real modifiers — so a mid-sequence failure (a
//! [`CircuitError::NetConflict`] three gates into a batch, say) leaves
//! the circuit, the partition graph, the frontier, and the owner index
//! exactly as they were, instead of the half-mutated state direct
//! modifier calls produce. Staging costs O(ops staged), not O(circuit):
//! nothing is cloned, the overlay just journals deltas over a borrow.
//!
//! Ids handed out during staging are the real ids of the committed
//! edit (see `qtask_circuit::txn` for why id prediction is exact), so
//! closures capture them directly:
//!
//! ```
//! use qtask_core::Ckt;
//! use qtask_gates::GateKind;
//!
//! let mut ckt = Ckt::new(3);
//! let (gid, receipt) = ckt
//!     .edit(|tx| {
//!         let net = tx.push_net();
//!         tx.insert_gate(GateKind::H, net, &[0])
//!     })
//!     .expect("no conflicts");
//! assert_eq!(receipt.gates_inserted, 1);
//! ckt.update_state().unwrap();
//! ckt.remove_gate(gid).expect("the staged id is live after commit");
//! ```

use crate::engine::Ckt;
use crate::error::EngineError;
use qtask_circuit::{CircuitError, EditOp, Gate, GateId, NetId, StagedBatch};
use qtask_gates::GateKind;

/// What a committed [`Ckt::edit`] transaction did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditReceipt {
    /// Modifier ops applied, in staging order.
    pub ops_applied: usize,
    /// Gates inserted by the transaction.
    pub gates_inserted: usize,
    /// Gates removed (directly or via net removal).
    pub gates_removed: usize,
    /// Nets inserted.
    pub nets_inserted: usize,
    /// Nets removed.
    pub nets_removed: usize,
    /// Frontier size after commit — the partitions the next
    /// [`Ckt::update_state`] will start from.
    pub frontier_len: usize,
}

/// A transaction over a [`Ckt`]'s circuit: stages modifiers, commits
/// atomically. Obtained through [`Ckt::edit`].
///
/// Every staged modifier validates eagerly against the effective circuit
/// (the live circuit plus all earlier staged ops, merged through the
/// batch's journal overlay), returning the same [`CircuitError`]s the
/// direct modifiers raise. Returning an `Err` from the `edit` closure —
/// or propagating one of these with `?` — aborts the whole transaction.
pub struct EditTxn<'c> {
    batch: StagedBatch<'c>,
    gates_removed: usize,
}

impl EditTxn<'_> {
    /// Number of qubits of the circuit under edit.
    pub fn num_qubits(&self) -> u8 {
        self.batch.num_qubits()
    }

    /// The gate behind `id` *as it will be after commit* (staged inserts
    /// are visible, staged removals are not).
    pub fn gate(&self, id: GateId) -> Option<Gate> {
        self.batch.gate(id)
    }

    /// The net a live gate belongs to, in the post-commit view.
    pub fn gate_net(&self, id: GateId) -> Option<NetId> {
        self.batch.gate_net(id)
    }

    /// True if `net` is live in the post-commit view.
    pub fn contains_net(&self, net: NetId) -> bool {
        self.batch.contains_net(net)
    }

    /// Number of gates of `net` in the post-commit view, if live.
    pub fn net_len(&self, net: NetId) -> Option<usize> {
        self.batch.net_len(net)
    }

    /// Number of ops staged so far.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Stages an empty net at the front.
    pub fn insert_net_front(&mut self) -> NetId {
        self.batch.insert_net_front()
    }

    /// Stages an empty net at the back.
    pub fn push_net(&mut self) -> NetId {
        self.batch.push_net()
    }

    /// Stages an empty net right after `after`.
    pub fn insert_net_after(&mut self, after: NetId) -> Result<NetId, CircuitError> {
        self.batch.insert_net_after(after)
    }

    /// Stages an empty net right before `before`.
    pub fn insert_net_before(&mut self, before: NetId) -> Result<NetId, CircuitError> {
        self.batch.insert_net_before(before)
    }

    /// Stages the removal of a net and all its gates.
    pub fn remove_net(&mut self, net: NetId) -> Result<(), CircuitError> {
        self.gates_removed += self.batch.net_len(net).unwrap_or_default();
        self.batch.remove_net(net)
    }

    /// Stages a gate insertion (validated against the shadow: qubit
    /// range and the intra-net structural-parallelism rule).
    pub fn insert_gate(
        &mut self,
        kind: GateKind,
        net: NetId,
        qubits: &[u8],
    ) -> Result<GateId, CircuitError> {
        self.batch.insert_gate(kind, net, qubits)
    }

    /// Stages a gate removal.
    pub fn remove_gate(&mut self, gate: GateId) -> Result<(), CircuitError> {
        self.batch.remove_gate(gate)?;
        self.gates_removed += 1;
        Ok(())
    }
}

impl Ckt {
    /// Runs `f` as an atomic edit transaction.
    ///
    /// All modifiers issued through the [`EditTxn`] are staged and
    /// validated first; the engine (circuit, rows, partitions, frontier,
    /// owner index) is mutated only if `f` returns `Ok`. On `Err` the
    /// engine is untouched — `debug_partitions`, `validate_owner_index`,
    /// and every snapshot read answer exactly as before the call.
    ///
    /// Returns the closure's value alongside an [`EditReceipt`]. As with
    /// the direct modifiers, call [`Ckt::update_state`] after committing
    /// to re-simulate (and publish a fresh [`crate::StateSnapshot`]).
    ///
    /// Failure semantics: a closure `Err` (or a panic *in the closure*)
    /// leaves the engine untouched — staging only reads it. Circuit
    /// errors surface as [`EngineError::Circuit`]. Only the commit replay
    /// mutates the engine; a panic there is contained and poisons it like
    /// any direct modifier.
    pub fn edit<T>(
        &mut self,
        f: impl FnOnce(&mut EditTxn<'_>) -> Result<T, CircuitError>,
    ) -> Result<(T, EditReceipt), EngineError> {
        self.ensure_healthy()?;
        qtask_faults::fault_point_err!("txn/edit_begin", EngineError::injected("txn/edit_begin"));
        let mut txn = EditTxn {
            batch: StagedBatch::new(self.circuit()),
            gates_removed: 0,
        };
        let value = f(&mut txn).map_err(EngineError::Circuit)?;
        let gates_removed = txn.gates_removed;
        let ops = txn.batch.into_ops();
        let receipt = self.contain(move |ckt| ckt.commit_ops(ops, gates_removed))?;
        Ok((value, receipt))
    }

    /// Replays a validated op list through the real modifiers. Runs under
    /// panic containment ([`Ckt::edit`]). Inserted gates queue their
    /// partitions, which are linked in one batch before any removal —
    /// whose orphan re-scan needs a complete coverage index — and at the
    /// end.
    fn commit_ops(
        &mut self,
        ops: Vec<EditOp>,
        gates_removed: usize,
    ) -> Result<EditReceipt, EngineError> {
        let mut receipt = EditReceipt {
            ops_applied: ops.len(),
            gates_removed,
            ..EditReceipt::default()
        };
        // Every op was validated on the overlay, and the engine modifiers
        // are deterministic replays of the same circuit mutations, so a
        // failure here is an engine bug, not a user error.
        const COMMIT: &str = "op validated on the staging overlay must commit";
        qtask_faults::fault_point!("txn/overlay_commit");
        self.staged_ops_pending += receipt.ops_applied;
        for op in ops {
            qtask_faults::fault_point!("txn/commit_op");
            match op {
                EditOp::InsertNetFront => {
                    self.insert_net_front();
                    receipt.nets_inserted += 1;
                }
                EditOp::PushNet => {
                    self.push_net();
                    receipt.nets_inserted += 1;
                }
                EditOp::InsertNetAfter(after) => {
                    self.insert_net_after(after).expect(COMMIT);
                    receipt.nets_inserted += 1;
                }
                EditOp::InsertNetBefore(before) => {
                    self.insert_net_before(before).expect(COMMIT);
                    receipt.nets_inserted += 1;
                }
                EditOp::RemoveNet(net) => {
                    self.link_pending();
                    self.remove_net_inner(net).expect(COMMIT);
                    receipt.nets_removed += 1;
                }
                EditOp::InsertGate { net, gate } => {
                    self.insert_gate_inner(gate.kind(), net, gate.qubits())
                        .expect(COMMIT);
                    receipt.gates_inserted += 1;
                }
                EditOp::RemoveGate(gate) => {
                    self.link_pending();
                    self.remove_gate_inner(gate).expect(COMMIT);
                }
            }
        }
        self.link_pending();
        receipt.frontier_len = self.frontier_len();
        Ok(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn two_net_ckt() -> (Ckt, NetId, NetId) {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(4, cfg);
        let n1 = ckt.push_net();
        let n2 = ckt.push_net();
        (ckt, n1, n2)
    }

    #[test]
    fn commit_applies_all_ops_and_ids_are_live() {
        let (mut ckt, n1, _) = two_net_ckt();
        let ((h, cx), receipt) = ckt
            .edit(|tx| {
                let h = tx.insert_gate(GateKind::H, n1, &[0])?;
                let mid = tx.insert_net_after(n1)?;
                let cx = tx.insert_gate(GateKind::Cx, mid, &[0, 1])?;
                Ok((h, cx))
            })
            .unwrap();
        assert_eq!(receipt.ops_applied, 3);
        assert_eq!(receipt.gates_inserted, 2);
        assert_eq!(receipt.nets_inserted, 1);
        assert!(receipt.frontier_len > 0);
        assert_eq!(ckt.circuit().num_gates(), 2);
        assert!(ckt.circuit().gate(h).is_some());
        assert!(ckt.circuit().gate(cx).is_some());
        ckt.update_state().unwrap();
        // The staged ids drive later direct modifiers.
        ckt.remove_gate(cx).unwrap();
        ckt.remove_gate(h).unwrap();
        ckt.update_state().unwrap();
        assert!(ckt.latest_snapshot().unwrap().amplitude(0).is_one(1e-12));
    }

    #[test]
    fn failed_transaction_rolls_everything_back() {
        let (mut ckt, n1, n2) = two_net_ckt();
        ckt.insert_gate(GateKind::H, n1, &[0]).unwrap();
        ckt.insert_gate(GateKind::Cx, n2, &[0, 1]).unwrap();
        ckt.update_state().unwrap();
        let parts_before = ckt.debug_partitions();
        let rows_before = ckt.debug_rows();
        let state_before = crate::test_support::full_state(&mut ckt);

        let err = ckt
            .edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::X, net, &[2])?;
                tx.insert_gate(GateKind::X, net, &[3])?;
                // Conflicts with the staged X on qubit 2: aborts the lot.
                tx.insert_gate(GateKind::Cz, net, &[2, 3])?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Circuit(CircuitError::NetConflict { qubit: 2 })
        );
        assert_eq!(ckt.circuit().num_gates(), 2);
        assert_eq!(ckt.circuit().num_nets(), 2);
        assert_eq!(ckt.debug_partitions(), parts_before);
        assert_eq!(ckt.debug_rows(), rows_before);
        assert_eq!(ckt.frontier_len(), 0);
        ckt.validate_owner_index().unwrap();
        ckt.validate_graph().unwrap();
        assert_eq!(crate::test_support::full_state(&mut ckt), state_before);
    }

    #[test]
    fn closure_error_aborts_even_after_valid_stages() {
        let (mut ckt, n1, _) = two_net_ckt();
        let err = ckt
            .edit(|tx| {
                tx.insert_gate(GateKind::H, n1, &[0])?;
                Err::<(), _>(CircuitError::StaleGate)
            })
            .unwrap_err();
        assert_eq!(err, EngineError::Circuit(CircuitError::StaleGate));
        assert_eq!(ckt.circuit().num_gates(), 0);
        assert_eq!(ckt.num_rows(), 0);
    }

    #[test]
    fn remove_net_receipt_counts_its_gates() {
        let (mut ckt, n1, _) = two_net_ckt();
        ckt.insert_gate(GateKind::H, n1, &[0]).unwrap();
        ckt.insert_gate(GateKind::X, n1, &[1]).unwrap();
        let (_, receipt) = ckt.edit(|tx| tx.remove_net(n1)).unwrap();
        assert_eq!(receipt.nets_removed, 1);
        assert_eq!(receipt.gates_removed, 2);
        assert_eq!(ckt.circuit().num_nets(), 1);
        assert_eq!(ckt.num_rows(), 0);
    }

    #[test]
    fn txn_shadow_view_reflects_staged_ops() {
        let (mut ckt, n1, _) = two_net_ckt();
        ckt.edit(|tx| {
            assert!(tx.is_empty());
            let g = tx.insert_gate(GateKind::H, n1, &[0])?;
            assert_eq!(tx.len(), 1);
            assert_eq!(tx.num_qubits(), 4);
            assert!(tx.gate(g).is_some());
            assert_eq!(tx.gate_net(g), Some(n1));
            assert_eq!(tx.net_len(n1), Some(1));
            // The real circuit is untouched mid-transaction.
            Ok(())
        })
        .unwrap();
        assert_eq!(ckt.circuit().num_gates(), 1);
    }
}
