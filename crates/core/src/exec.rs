//! Partition execution kernels over copy-on-write blocks.
//!
//! A partition task walks its items one low-side block at a time: it
//! acquires the block (and the partner block, when a pair op's partner
//! lies in another) holding the *previous* row's content, applies the
//! items in place, and publishes at once. An item is a scaled amplitude,
//! a swapped or swap-and-scaled pair, or, for a superposition gate, a
//! pair under the gate's 2×2 matrix. Tasks of one partition touch
//! disjoint blocks (each is whole dispatch grains,
//! [`BlockGeometry::grain`]) and a task acquires no block twice, so tasks
//! synchronize only on the per-block owner-list locks.
//!
//! Items run as contiguous slices ([`qtask_num::slices`]), and the block
//! loop is bit-identical to its scalar item loop (checked by this
//! module's tests).
//!
//! Acquiring a block for an in-place rewrite allocates and copies
//! nothing when the predecessor entry is transient: the task takes that
//! buffer whole ([`OwnerIndex::take_input`]), evicting the entry.
//! Otherwise (a checkpoint, a row of an earlier run, a pinned buffer, or
//! the block's last writer as the taker) it copies the input into its
//! own buffer, taken back with its `Arc` wrapper, or into a fresh one
//! when the row has none. So re-executing a partition whose buffers are
//! held touches the heap not at all. A task counts its resolutions in a
//! [`Tally`] of its own and adds them to the run's [`ResolveStats`] once,
//! when it ends.

use crate::cow::{BlockData, Resolved};
use crate::owners::{Input, OwnerIndex, ResolveStats, Tally};
use crate::row::{Partition, Row, RowId};
use qtask_num::{slices, Complex64};
use qtask_partition::{kernels, BlockGeometry, LinearOp};
use qtask_util::LinkedArena;
use std::sync::Arc;

/// Shared read-only view of the engine internals used by executing tasks.
/// Mutation happens only through the owner index's per-block locks.
#[derive(Clone, Copy)]
pub struct ExecView<'a> {
    /// All rows in order.
    pub rows: &'a LinkedArena<Row>,
    /// Per-block owner lists.
    pub owners: &'a OwnerIndex,
    /// Resolution counters for the current update.
    pub stats: &'a ResolveStats,
    /// Block geometry.
    pub geom: BlockGeometry,
    /// Qubit count.
    pub n_qubits: u8,
    /// The run being executed, whose [`Row::transient`] rows lose their
    /// buffers to the next writer; 0 outside a run (no takes).
    pub run: u64,
    /// Per block, its last writer; read only for the blocks the run
    /// writes.
    pub last_writer: &'a [Option<RowId>],
}

impl ExecView<'_> {
    #[inline]
    fn label_of(&self, row: RowId) -> u64 {
        self.rows
            .order_label(row.key())
            .expect("owner index holds only live rows")
    }
}

/// One task's access to the owner index: the row it writes, and its
/// resolution counts.
struct Task<'a> {
    view: ExecView<'a>,
    row: RowId,
    tally: Tally<'a>,
}

impl<'a> Task<'a> {
    fn new(view: ExecView<'a>, row: RowId) -> Task<'a> {
        Task {
            view,
            row,
            tally: view.stats.tally(),
        }
    }

    /// Acquires block `b` for rewriting in place, holding the previous
    /// row's content: the predecessor's buffer when its row is transient
    /// in this run and this row is not the block's last writer, else a
    /// copy in the row's own buffer or a fresh one. Returns it with its
    /// owner-list position for [`Self::publish`].
    fn acquire(&self, b: usize) -> (BlockData, usize) {
        let view = &self.view;
        let may_take = view.run != 0 && view.last_writer[b] != Some(self.row);
        let (input, pos) = view.owners.take_input(
            b,
            self.row,
            |r| view.label_of(r),
            &self.tally,
            |pred| may_take && view.rows[pred.key()].transient == view.run,
        );
        let resolved = |before: Option<BlockData>| before.map_or(Resolved::Initial, Resolved::Data);
        let data = match input {
            Input::Taken(arc) => arc,
            Input::Resolved {
                before,
                own: Some(mut arc),
            } => {
                resolved(before).fill_into(b, unique(&mut arc));
                arc
            }
            Input::Resolved { before, own: None } => {
                // Simulated allocation failure lands here: the cold path
                // that materializes a fresh working buffer.
                qtask_faults::fault_point!("exec/alloc_block");
                Arc::new(resolved(before).to_vec(b, view.geom.block_size()))
            }
        };
        (data, pos)
    }

    /// Publishes `data` as block `b` of the row into the owner index at
    /// `pos` (from the acquisition). All executor-side publications go
    /// through here, so one probe covers every publication
    /// (`exec/publish_row` panics mid-publish; `exec/corrupt_row` poisons
    /// an amplitude with NaN/Inf to exercise the publication norm check).
    fn publish(&self, b: usize, data: BlockData, pos: usize) {
        qtask_faults::fault_point!("exec/publish_row");
        #[cfg(feature = "faults")]
        let mut data = data;
        qtask_faults::fault_point_corrupt!("exec/corrupt_row", |v: f64| {
            if let Some(buf) = Arc::get_mut(&mut data) {
                if let Some(z) = buf.first_mut() {
                    *z = Complex64 { re: v, im: v };
                }
            }
        });
        let view = &self.view;
        view.owners
            .publish(b, self.row, data, pos, |r| view.label_of(r));
    }
}

/// The mutable amplitudes of an acquired block.
#[inline]
fn unique(data: &mut BlockData) -> &mut [Complex64] {
    Arc::get_mut(data).expect("acquired blocks are unique")
}

/// Executes the item-rank range `ranks` of a partition: the body of one
/// intra-partition task.
pub fn exec_linear_partition(view: ExecView<'_>, part: &Partition, ranks: std::ops::Range<u64>) {
    qtask_faults::fault_point!("exec/linear_task");
    let op = view.rows[part.row.key()].op;
    linear_blocks(&Task::new(view, part.row), &op, ranks);
}
/// The linear kernel: the rank range is walked one low-side block at a
/// time, and each block's share of the pattern is replayed as runs.
///
/// The rank bits scatter into the free index bits lowest first, so the
/// `2^popcount(free ∩ in-block bits)` ranks of an aligned group fill
/// exactly one low block (the paper's "replacing the x's with the binary
/// string of a multiple of B"). Per group the loop acquires the low block
/// — plus its partner block when the partner bits reach the block width —
/// applies the group, and publishes. Low blocks of distinct groups differ
/// above the block width and a partner block is never a low block, so no
/// block is acquired twice. Inside the block, a run is
/// `2^trailing_ones(in-block free bits)` consecutive amplitudes, and run
/// starts enumerate the submasks of the remaining in-block free bits.
/// Partner bits are never free, so a pair op's partner run sits at a
/// constant offset: inside the block, or at the same offsets of the
/// partner block.
///
/// Task ranges are multiples of the power-of-two dispatch grain, which is
/// at least a block, so they always cover whole groups (asserted).
fn linear_blocks(task: &Task<'_>, op: &LinearOp, ranks: std::ops::Range<u64>) {
    let geom = &task.view.geom;
    let pattern = op.pattern(task.view.n_qubits);
    let in_block = geom.block_size() as u64 - 1;
    let free_in = pattern.free_mask & in_block;
    let per_block = 1u64 << free_in.count_ones();
    assert!(
        ranks.start.is_multiple_of(per_block) && ranks.end.is_multiple_of(per_block),
        "task ranks {ranks:?} split a block of {per_block} items"
    );
    let run = 1usize << free_in.trailing_ones();
    let starts = free_in & !(run as u64 - 1);
    let mut first = ranks.start;
    while first < ranks.end {
        let low = pattern.nth_low(first);
        first += per_block;
        let (bl, ol) = (geom.block_of(low as usize), low & in_block);
        let (mut lo, lo_pos) = task.acquire(bl);
        let buf = unique(&mut lo);
        match *op {
            LinearOp::Diag { target, d0, d1, .. } => {
                let block_start = (low & !in_block) as usize;
                for_each_submask(starts, |s| {
                    let o = (ol | s) as usize;
                    kernels::scale_diag_run(&mut buf[o..o + run], block_start + o, target, d0, d1);
                });
            }
            LinearOp::AntiDiag { .. } | LinearOp::Swap { .. } | LinearOp::Dense { .. } => {
                let high = pattern.partner(low);
                let (bh, oh) = (geom.block_of(high as usize), high & in_block);
                if bh == bl {
                    for_each_submask(starts, |s| {
                        let (o, p) = ((ol | s) as usize, (oh | s) as usize);
                        debug_assert!(o + run <= p, "pair runs overlap");
                        let (a, b) = buf.split_at_mut(p);
                        pair_run(op, &mut a[o..o + run], &mut b[..run]);
                    });
                } else {
                    let (mut hi, hi_pos) = task.acquire(bh);
                    let bufh = unique(&mut hi);
                    for_each_submask(starts, |s| {
                        let (o, p) = ((ol | s) as usize, (oh | s) as usize);
                        pair_run(op, &mut buf[o..o + run], &mut bufh[p..p + run]);
                    });
                    task.publish(bh, hi, hi_pos);
                }
            }
        }
        task.publish(bl, lo, lo_pos);
    }
}

/// Calls `f` on every submask of `mask` in ascending order, zero first.
#[inline]
fn for_each_submask(mask: u64, mut f: impl FnMut(u64)) {
    let mut s = 0u64;
    loop {
        f(s);
        s = s.wrapping_sub(mask) & mask;
        if s == 0 {
            return;
        }
    }
}

/// Applies a pair op to a low run and its partner run.
#[inline]
fn pair_run(op: &LinearOp, lows: &mut [Complex64], highs: &mut [Complex64]) {
    match *op {
        LinearOp::AntiDiag { a01, a10, .. } => slices::butterfly_slices(lows, highs, a01, a10),
        LinearOp::Swap { .. } => lows.swap_with_slice(highs),
        LinearOp::Dense { mat, .. } => butterfly(lows, highs, mat),
        LinearOp::Diag { .. } => unreachable!("diagonal ops have no partner"),
    }
}

/// `(lo[k], hi[k]) ← M · (lo[k], hi[k])`, each output summing its two
/// terms as [`qtask_num::Mat2::apply`] does, so it is `==` the scalar
/// item loop; an all-real matrix (H, Ry) takes the real path, which
/// differs only in the sign of a zero.
#[inline]
fn butterfly(lo: &mut [Complex64], hi: &mut [Complex64], mat: qtask_num::Mat2) {
    let m = [mat.at(0, 0), mat.at(0, 1), mat.at(1, 0), mat.at(1, 1)];
    let [m00, m01, m10, m11] = m;
    if m.iter().all(|c| c.im == 0.0) {
        slices::mat2_butterfly_slices(lo, hi, m00, m01, m10, m11);
        return;
    }
    for (x, y) in lo.iter_mut().zip(hi) {
        let (a, b) = (*x, *y);
        *x = m00 * a + m01 * b;
        *y = m10 * a + m11 * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Ckt;
    use qtask_gates::GateKind;
    use rand::prelude::*;
    use std::collections::BTreeMap;

    /// One random net: gates on disjoint qubits, covering every linear
    /// class plus controlled and uncontrolled superposition gates.
    fn random_net(rng: &mut StdRng, n: u8) -> Vec<(GateKind, Vec<u8>)> {
        const KINDS: [GateKind; 14] = [
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::H,
            GateKind::S,
            GateKind::T,
            GateKind::Rz(0.9),
            GateKind::Ry(1.3),
            GateKind::U3(0.3, 0.8, 1.1),
            GateKind::Cx,
            GateKind::Cz,
            GateKind::Ch,
            GateKind::Swap,
            GateKind::Ccx,
        ];
        let mut free: Vec<u8> = (0..n).collect();
        let mut net = Vec::new();
        for _ in 0..rng.random_range(1..=4) {
            let kind = KINDS[rng.random_range(0..KINDS.len())];
            if free.len() < kind.arity() {
                continue;
            }
            let qubits = (0..kind.arity())
                .map(|_| free.swap_remove(rng.random_range(0..free.len())))
                .collect();
            net.push((kind, qubits));
        }
        net
    }

    /// Block `b` as seen before `task`'s row: the previous row's content.
    fn resolve_before(task: &Task<'_>, b: usize) -> Resolved {
        let view = &task.view;
        let limit = view.label_of(task.row);
        let data = view
            .owners
            .resolve_before(b, limit, |r| view.label_of(r), &task.tally);
        data.expect("every row is retained")
            .map_or(Resolved::Initial, Resolved::Data)
    }

    /// The scalar item loop, one amplitude (pair) per step: the reference
    /// the block loop must match. Materializes the blocks it touches into
    /// a map of its own, resolved from the rows before `row_id`.
    fn linear_scalar(
        view: &ExecView<'_>,
        row_id: RowId,
        op: &LinearOp,
        pattern: &qtask_partition::ItemPattern,
        ranks: std::ops::Range<u64>,
    ) -> BTreeMap<usize, Vec<Complex64>> {
        let geom = &view.geom;
        let task = Task::new(*view, row_id);
        let mut blocks = BTreeMap::new();
        for low in pattern.iter_lows(ranks) {
            let low = low as usize;
            let high = pattern.partner(low as u64) as usize;
            let (bl, bh) = (geom.block_of(low), geom.block_of(high));
            let (ol, oh) = (geom.offset_in_block(low), geom.offset_in_block(high));
            for b in [bl, bh] {
                blocks
                    .entry(b)
                    .or_insert_with(|| resolve_before(&task, b).to_vec(b, geom.block_size()));
            }
            let (x, y) = (blocks[&bl][ol], blocks[&bh][oh]);
            let (new_x, new_y) = match *op {
                LinearOp::Diag { target, d0, d1, .. } => {
                    let d = if low & (1usize << target) != 0 {
                        d1
                    } else {
                        d0
                    };
                    (x * d, y * d)
                }
                LinearOp::AntiDiag { a01, a10, .. } => (a01 * y, a10 * x),
                LinearOp::Swap { .. } => (y, x),
                LinearOp::Dense { mat, .. } => mat.apply(x, y),
            };
            blocks.get_mut(&bh).unwrap()[oh] = new_y;
            blocks.get_mut(&bl).unwrap()[ol] = new_x;
        }
        blocks
    }

    /// Publishes `data` as `row`'s block `b`, in place of the row's own
    /// buffer, at the position a task's take returns.
    fn put(view: &ExecView<'_>, row: RowId, b: usize, data: BlockData) {
        let label = |r| view.label_of(r);
        let (_, pos) = view.owners.take_own(b, row, label);
        view.owners.publish(b, row, data, pos, label);
    }

    /// Which pattern shapes the block loop met, so the bit-exactness test
    /// can insist that every branch of it ran.
    #[derive(Debug, Default)]
    struct Shapes {
        /// Pair ops whose partner lies in the same block.
        in_block_partner: usize,
        /// Pair ops whose partner bits all lie at or above the block width.
        above_block_partner: usize,
        /// Swaps with `t_lo` inside the block and `t_hi` above it.
        straddling_swap: usize,
        /// Controls below and at or above the block width at once.
        split_controls: usize,
        /// Runs of one amplitude inside blocks of several.
        unit_runs: usize,
        /// Superposition gates, by an all-real matrix and by a complex one.
        dense_real: usize,
        dense_complex: usize,
        /// Superposition gates whose partner lies in another block.
        dense_above_block: usize,
        /// Superposition gates with a control inside the block.
        dense_in_block_control: usize,
    }

    impl Shapes {
        fn record(&mut self, op: &LinearOp, pattern: &qtask_partition::ItemPattern, bs: usize) {
            let in_block = bs as u64 - 1;
            let partner_bits = pattern.partner_clear | pattern.partner_set;
            if pattern.is_pair() && partner_bits & !in_block == 0 {
                self.in_block_partner += 1;
            }
            if pattern.is_pair() && partner_bits & in_block == 0 {
                self.above_block_partner += 1;
            }
            let (LinearOp::Diag { controls, .. }
            | LinearOp::AntiDiag { controls, .. }
            | LinearOp::Swap { controls, .. }
            | LinearOp::Dense { controls, .. }) = *op;
            if let LinearOp::Dense { mat, .. } = *op {
                let real = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(r, c)| mat.at(r, c).im == 0.0);
                if real.iter().all(|&r| r) {
                    self.dense_real += 1;
                } else {
                    self.dense_complex += 1;
                }
                self.dense_above_block += usize::from(partner_bits & in_block == 0);
                self.dense_in_block_control += usize::from(controls & in_block != 0);
            }
            if let LinearOp::Swap { t_lo, t_hi, .. } = *op {
                if 1u64 << t_lo <= in_block && 1u64 << t_hi > in_block {
                    self.straddling_swap += 1;
                }
            }
            if controls & in_block != 0 && controls & !in_block != 0 {
                self.split_controls += 1;
            }
            if bs > 1 && (pattern.free_mask & in_block).trailing_ones() == 0 {
                self.unit_runs += 1;
            }
        }
    }

    /// Runs a linear partition through `exec_linear_partition` and
    /// `linear_scalar` and compares the blocks they materialize: the
    /// scalar map against the row's owner-index entries the kernel
    /// published.
    fn check_linear(
        view: &ExecView<'_>,
        row_id: RowId,
        op: &LinearOp,
        part: &Partition,
        shapes: &mut Shapes,
    ) {
        let pattern = op.pattern(view.n_qubits);
        shapes.record(op, &pattern, view.geom.block_size());
        let ranks = part.spec.item_start..part.spec.item_end;
        let want = linear_scalar(view, row_id, op, &pattern, ranks.clone());
        // Poison the row's published blocks, so a block the kernel does
        // not rewrite and publish fails the comparison.
        for &b in want.keys() {
            let nan = Complex64 {
                re: f64::NAN,
                im: f64::NAN,
            };
            put(view, row_id, b, Arc::new(vec![nan; view.geom.block_size()]));
        }
        exec_linear_partition(*view, part, ranks);
        let got: BTreeMap<usize, Vec<Complex64>> = (part.spec.block_lo as usize
            ..=part.spec.block_hi as usize)
            .filter_map(|b| {
                let (_, data) = view.owners.entries(b).into_iter().find(|e| e.0 == row_id)?;
                Some((b, data.expect("published").to_vec()))
            })
            .collect();
        assert_eq!(got, want, "{}", view.rows[row_id.key()].label);
    }

    /// The block loop agrees bit-for-bit with its scalar reference. On
    /// random circuits and geometries (3–8 qubits, blocks of 1–64), each
    /// partition runs through both `exec_linear_partition` and
    /// `linear_scalar` from the same resolved inputs. Every row is
    /// retained, so each row's inputs stay readable.
    #[test]
    fn batched_kernels_match_scalar_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(20260729);
        let mut shapes = Shapes::default();
        for _ in 0..240 {
            let n = rng.random_range(3..=8u8);
            let mut cfg = SimConfig::with_block_size(1 << rng.random_range(0..=6u32));
            cfg.num_threads = 1;
            let mut ckt = Ckt::with_config(n, cfg);
            crate::test_support::retain_every_row(&mut ckt);
            for _ in 0..rng.random_range(2..=5) {
                let net = ckt.push_net();
                for (kind, qubits) in random_net(&mut rng, n) {
                    ckt.insert_gate(kind, net, &qubits).unwrap();
                }
            }
            ckt.update_state().unwrap();
            let view = ckt.exec_view(&ckt.resolve_stats);
            for k in ckt.rows.keys() {
                for &pid in &ckt.rows[k].parts {
                    let op = ckt.rows[k].op;
                    check_linear(&view, RowId(k), &op, &ckt.graph[pid], &mut shapes);
                }
            }
            assert_eq!(ckt.audit(), vec![], "republished rows stay coherent");
        }
        assert!(shapes.in_block_partner > 0, "{shapes:?}");
        assert!(shapes.above_block_partner > 0, "{shapes:?}");
        assert!(shapes.straddling_swap > 0, "{shapes:?}");
        assert!(shapes.split_controls > 0, "{shapes:?}");
        assert!(shapes.unit_runs > 0, "{shapes:?}");
        assert!(shapes.dense_real > 0, "{shapes:?}");
        assert!(shapes.dense_complex > 0, "{shapes:?}");
        assert!(shapes.dense_above_block > 0, "{shapes:?}");
        assert!(shapes.dense_in_block_control > 0, "{shapes:?}");
    }
}
