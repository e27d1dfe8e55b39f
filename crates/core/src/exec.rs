//! Partition execution kernels over copy-on-write blocks.
//!
//! A linear partition task materializes fresh copies of the blocks its
//! items touch (reading through the COW chain of the *previous* row),
//! applies the swap/scale items, and publishes the blocks into its row's
//! vector. Distinct tasks of one partition touch disjoint blocks — the
//! chunk size is the power-of-two dispatch grain
//! ([`BlockGeometry::grain`], a whole number of blocks), so task
//! boundaries align with the scattered-bit structure of the item pattern
//! at or above the block width — and tasks publish independently with no
//! synchronization beyond the slot locks.
//!
//! An MxV partition computes a grain of output blocks of the net's
//! grouped superposition operator, one block at a time: each output
//! amplitude accumulates its fused sparse row
//! ([`crate::fused::FusedOp`], precomputed once per group change) against
//! sources read through the COW chain.
//!
//! Linear items are applied a whole *run* at a time when the item pattern
//! has runs longer than one amplitude: the pattern decomposes into maximal
//! contiguous low-index stretches ([`qtask_partition::ItemPattern::iter_runs`]),
//! so Diag becomes strided slice scaling and AntiDiag/Swap become
//! two-slice butterflies over the block buffers — the autovectorized
//! primitives in [`qtask_num::slices`]. Run-less patterns (target qubit 0)
//! take the one-amplitude-at-a-time loop, and MxV groups too wide to fuse
//! re-expand their factor product per amplitude. Each batched kernel is
//! bit-identical to its scalar counterpart (checked by this module's
//! tests).
//!
//! Steady-state incremental updates are allocation-free: re-executing
//! partitions reclaim their previously published buffers *with* their
//! `Arc` wrapper ([`crate::cow::RowVector::take_reusable_arc`]), mutate in
//! place, and republish the same allocation.

use crate::cow::{BlockData, Resolved};
use crate::fused::FusedOp;
use crate::owners::{OwnerIndex, ResolveStats};
use crate::row::{PartId, Partition, Row, RowId, RowKind};
use qtask_num::{slices, Complex64};
use qtask_partition::{kernels, BlockGeometry, LinearOp};
use qtask_util::{Arena, LinkedArena};
use std::sync::Arc;

/// Shared read-only view of the engine internals used by executing tasks.
/// Mutation happens only through the row vectors' slot locks and the
/// owner index's per-block locks.
#[derive(Clone, Copy)]
pub struct ExecView<'a> {
    /// All rows in order.
    pub rows: &'a LinkedArena<Row>,
    /// All partitions.
    pub parts: &'a Arena<Partition>,
    /// Per-block owner lists.
    pub owners: &'a OwnerIndex,
    /// Resolution counters for the current update.
    pub stats: &'a ResolveStats,
    /// Block geometry.
    pub geom: BlockGeometry,
    /// Qubit count.
    pub n_qubits: u8,
}

impl<'a> ExecView<'a> {
    #[inline]
    fn label_of(&self, row: RowId) -> u64 {
        self.rows
            .order_label(row.key())
            .expect("owner index holds only live rows")
    }

    /// Resolves block `b` as seen *before* `row` (i.e. the previous row's
    /// logical content).
    pub fn resolve_before(&self, row: RowId, b: usize) -> Resolved {
        self.owners
            .resolve_before(
                b,
                self.label_of(row),
                |r| self.label_of(r),
                |r| self.rows[r.key()].vector.owned(b),
                self.stats,
            )
            .map_or(Resolved::Initial, Resolved::Data)
    }

    /// Publishes `data` as block `b` of `row`, registering the row in the
    /// owner index. All executor-side publications go through here so the
    /// index never misses an ownership change — and so one probe covers
    /// every publication (`exec/publish_row` panics mid-publish;
    /// `exec/corrupt_row` poisons an amplitude with NaN/Inf to exercise
    /// the numerical policy).
    pub fn publish(&self, row_id: RowId, row: &Row, b: usize, data: BlockData) {
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
        row.vector.publish(b, data);
        self.owners.add(b, row_id, |r| self.label_of(r));
    }
}

/// A small ordered working set of materialized blocks for one task. Each
/// entry keeps its `Arc` wrapper (uniquely owned by construction), so
/// publication moves the allocation instead of re-wrapping it. The entry
/// vector itself is borrowed from the partition's scratch pool
/// ([`Partition::scratch`]) and returned after publication, so warm
/// re-executions allocate nothing.
struct BlockSet {
    entries: Vec<(usize, BlockData)>,
}

impl BlockSet {
    /// Pops an entry vector from the partition's pool (or starts an
    /// empty one the pool will absorb afterwards).
    fn from_pool(part: &Partition) -> BlockSet {
        let entries = part.scratch.lock().pop().unwrap_or_default();
        debug_assert!(entries.is_empty(), "pooled scratch returned drained");
        BlockSet { entries }
    }

    /// Index of block `b`, materializing it from `view` if needed. The
    /// row's stale output buffer for `b` is reclaimed when uniquely owned,
    /// so repeated incremental updates allocate nothing.
    fn ensure(&mut self, view: &ExecView<'_>, row_id: RowId, row: &Row, b: usize) -> usize {
        // Blocks arrive in short runs; scan from the back.
        if let Some(pos) = self.entries.iter().rposition(|(blk, _)| *blk == b) {
            return pos;
        }
        let resolved = view.resolve_before(row_id, b);
        let data = match row.vector.take_reusable_arc(b) {
            Some(mut arc) => {
                let buf = Arc::get_mut(&mut arc).expect("reclaimed buffer is unique");
                resolved.fill_into(b, buf);
                arc
            }
            None => {
                // Simulated allocation failure lands here: the cold path
                // that materializes a fresh working buffer.
                qtask_faults::fault_point!("exec/alloc_block");
                Arc::new(resolved.to_vec(b, view.geom.block_size()))
            }
        };
        self.entries.push((b, data));
        self.entries.len() - 1
    }

    /// Mutable buffer of entry `i`.
    #[inline]
    fn buf_mut(&mut self, i: usize) -> &mut [Complex64] {
        Arc::get_mut(&mut self.entries[i].1).expect("working blocks are unique")
    }

    /// Two distinct mutable buffers.
    fn pair_mut(&mut self, i: usize, j: usize) -> (&mut [Complex64], &mut [Complex64]) {
        debug_assert_ne!(i, j);
        let (lo, hi, swap) = if i < j { (i, j, false) } else { (j, i, true) };
        let (a, b) = self.entries.split_at_mut(hi);
        let first = Arc::get_mut(&mut a[lo].1).expect("working blocks are unique");
        let second = Arc::get_mut(&mut b[0].1).expect("working blocks are unique");
        if swap {
            (second, first)
        } else {
            (first, second)
        }
    }

    /// Publishes every materialized block and returns the drained entry
    /// vector to the partition's pool. Tasks of one partition touch
    /// disjoint blocks, so these publications never collide.
    fn publish(mut self, view: &ExecView<'_>, row_id: RowId, row: &Row, part: &Partition) {
        for (b, data) in self.entries.drain(..) {
            view.publish(row_id, row, b, data);
        }
        part.scratch.lock().push(self.entries);
    }
}

/// Executes the item-rank range `ranks` of a linear partition: the body of
/// one intra-partition task.
pub fn exec_linear_partition(view: ExecView<'_>, pid: PartId, ranks: std::ops::Range<u64>) {
    qtask_faults::fault_point!("exec/linear_task");
    let part = &view.parts[pid.key()];
    let row_id = part.row;
    let row = &view.rows[row_id.key()];
    let RowKind::Linear(op) = row.kind else {
        unreachable!("linear execution on non-linear row");
    };
    let pattern = op.pattern(view.n_qubits);
    let mut blocks = BlockSet::from_pool(part);
    // Run decomposition only pays when runs are real (length > 1).
    if pattern.run_len_log2() > 0 {
        linear_batched(&view, row_id, row, &op, &pattern, &mut blocks, ranks);
    } else {
        linear_scalar(&view, row_id, row, &op, &pattern, &mut blocks, ranks);
    }
    blocks.publish(&view, row_id, row, part);
}

/// The scalar item loop: one amplitude (pair) per step — the path of
/// run-less patterns and the reference [`linear_batched`] must match.
fn linear_scalar(
    view: &ExecView<'_>,
    row_id: RowId,
    row: &Row,
    op: &LinearOp,
    pattern: &qtask_partition::ItemPattern,
    blocks: &mut BlockSet,
    ranks: std::ops::Range<u64>,
) {
    let geom = &view.geom;
    for low in pattern.iter_lows(ranks) {
        let low = low as usize;
        match *op {
            LinearOp::Diag { target, d0, d1, .. } => {
                let pos = blocks.ensure(view, row_id, row, geom.block_of(low));
                let off = geom.offset_in_block(low);
                let d = if low & (1usize << target) != 0 {
                    d1
                } else {
                    d0
                };
                blocks.buf_mut(pos)[off] *= d;
            }
            LinearOp::AntiDiag { a01, a10, .. } => {
                let high = pattern.partner(low as u64) as usize;
                let (bl, bh) = (geom.block_of(low), geom.block_of(high));
                let (ol, oh) = (geom.offset_in_block(low), geom.offset_in_block(high));
                if bl == bh {
                    let pos = blocks.ensure(view, row_id, row, bl);
                    let buf = blocks.buf_mut(pos);
                    let (x, y) = (buf[ol], buf[oh]);
                    buf[ol] = a01 * y;
                    buf[oh] = a10 * x;
                } else {
                    let pl = blocks.ensure(view, row_id, row, bl);
                    let ph = blocks.ensure(view, row_id, row, bh);
                    let (bufl, bufh) = blocks.pair_mut(pl, ph);
                    let (x, y) = (bufl[ol], bufh[oh]);
                    bufl[ol] = a01 * y;
                    bufh[oh] = a10 * x;
                }
            }
            LinearOp::Swap { .. } => {
                let high = pattern.partner(low as u64) as usize;
                let (bl, bh) = (geom.block_of(low), geom.block_of(high));
                let (ol, oh) = (geom.offset_in_block(low), geom.offset_in_block(high));
                if bl == bh {
                    let pos = blocks.ensure(view, row_id, row, bl);
                    blocks.buf_mut(pos).swap(ol, oh);
                } else {
                    let pl = blocks.ensure(view, row_id, row, bl);
                    let ph = blocks.ensure(view, row_id, row, bh);
                    let (bufl, bufh) = blocks.pair_mut(pl, ph);
                    std::mem::swap(&mut bufl[ol], &mut bufh[oh]);
                }
            }
        }
    }
}

/// The batched path: whole runs of consecutive items applied as slice
/// operations, split at block boundaries.
///
/// Geometry invariants (checked by debug asserts): a run's low indices are
/// consecutive and start aligned to the run span, so with power-of-two
/// blocks a segment clipped at a low-side block boundary never straddles a
/// boundary on the partner side — the partner offset is the low offset
/// shifted by a constant that is either block-local or a whole multiple of
/// the block size.
fn linear_batched(
    view: &ExecView<'_>,
    row_id: RowId,
    row: &Row,
    op: &LinearOp,
    pattern: &qtask_partition::ItemPattern,
    blocks: &mut BlockSet,
    ranks: std::ops::Range<u64>,
) {
    let geom = &view.geom;
    let bs = geom.block_size();
    for run in pattern.iter_runs(ranks) {
        let len = run.len as usize;
        let mut done = 0usize;
        while done < len {
            let low = run.low_start as usize + done;
            let bl = geom.block_of(low);
            let ol = geom.offset_in_block(low);
            let seg = (bs - ol).min(len - done);
            match *op {
                LinearOp::Diag { target, d0, d1, .. } => {
                    let pos = blocks.ensure(view, row_id, row, bl);
                    let buf = blocks.buf_mut(pos);
                    kernels::scale_diag_run(&mut buf[ol..ol + seg], low, target, d0, d1);
                }
                LinearOp::AntiDiag { a01, a10, .. } => {
                    let high = pattern.partner(low as u64) as usize;
                    let (bh, oh) = (geom.block_of(high), geom.offset_in_block(high));
                    debug_assert!(oh + seg <= bs, "partner run straddles a block");
                    if bl == bh {
                        let pos = blocks.ensure(view, row_id, row, bl);
                        let buf = blocks.buf_mut(pos);
                        debug_assert!(ol + seg <= oh, "pair slices overlap");
                        let (a, b) = buf.split_at_mut(oh);
                        slices::butterfly_slices(&mut a[ol..ol + seg], &mut b[..seg], a01, a10);
                    } else {
                        let pl = blocks.ensure(view, row_id, row, bl);
                        let ph = blocks.ensure(view, row_id, row, bh);
                        let (bufl, bufh) = blocks.pair_mut(pl, ph);
                        slices::butterfly_slices(
                            &mut bufl[ol..ol + seg],
                            &mut bufh[oh..oh + seg],
                            a01,
                            a10,
                        );
                    }
                }
                LinearOp::Swap { .. } => {
                    let high = pattern.partner(low as u64) as usize;
                    let (bh, oh) = (geom.block_of(high), geom.offset_in_block(high));
                    debug_assert!(oh + seg <= bs, "partner run straddles a block");
                    if bl == bh {
                        let pos = blocks.ensure(view, row_id, row, bl);
                        let buf = blocks.buf_mut(pos);
                        debug_assert!(ol + seg <= oh, "pair slices overlap");
                        let (a, b) = buf.split_at_mut(oh);
                        a[ol..ol + seg].swap_with_slice(&mut b[..seg]);
                    } else {
                        let pl = blocks.ensure(view, row_id, row, bl);
                        let ph = blocks.ensure(view, row_id, row, bh);
                        let (bufl, bufh) = blocks.pair_mut(pl, ph);
                        bufl[ol..ol + seg].swap_with_slice(&mut bufh[oh..oh + seg]);
                    }
                }
            }
            done += seg;
        }
    }
}

/// Resolved source blocks of one MxV task, in a fixed-capacity cache:
/// sources cluster into at most `2^g` distinct blocks, so [`Self::CAP`]
/// slots cover every practical group without heap allocation. Overflow
/// reads fall through to direct resolution (correct, just uncached).
struct SourceCache {
    entries: [Option<(usize, Resolved)>; SourceCache::CAP],
    len: usize,
}

impl SourceCache {
    /// Covers every distinct source block of a group with `2^g ≤ 16`
    /// fused entries; wider groups (signature near `MAX_SIG_BITS`) spill
    /// to uncached resolution, trading lookups for zero allocation.
    const CAP: usize = 16;

    fn new() -> SourceCache {
        SourceCache {
            entries: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    #[inline]
    fn read(&mut self, view: &ExecView<'_>, row_id: RowId, sb: usize, so: usize) -> Complex64 {
        for e in self.entries[..self.len].iter().flatten() {
            if e.0 == sb {
                return e.1.read(sb, so);
            }
        }
        let resolved = view.resolve_before(row_id, sb);
        let v = resolved.read(sb, so);
        if self.len < Self::CAP {
            self.entries[self.len] = Some((sb, resolved));
            self.len += 1;
        }
        v
    }
}

/// Executes one MxV partition: computes each output block of its span
/// of the net's grouped superposition operator.
pub fn exec_mxv_partition(view: ExecView<'_>, pid: PartId) {
    qtask_faults::fault_point!("exec/mxv_task");
    let part = &view.parts[pid.key()];
    let row_id = part.row;
    let row = &view.rows[row_id.key()];
    debug_assert!(matches!(row.kind, RowKind::MxV));
    let bs = view.geom.block_size();
    for block in part.spec.block_lo as usize..=part.spec.block_hi as usize {
        let mut out_arc = row.vector.take_reusable_arc(block).unwrap_or_else(|| {
            qtask_faults::fault_point!("exec/alloc_block");
            Arc::new(vec![Complex64::ZERO; bs])
        });
        let out = Arc::get_mut(&mut out_arc).expect("output buffer is unique");
        let base = block * bs;
        match row.fused {
            Some(ref fused) => mxv_fused(&view, row_id, fused, base, out),
            None => mxv_scalar(&view, row_id, row, base, out),
        }
        view.publish(row_id, row, block, out_arc);
    }
}

/// The fused path: per amplitude, gather the signature bits, look up the
/// precomputed sparse row, multiply-accumulate. Zero heap allocation.
///
/// When no signature bit lies inside the block (every control and target
/// at or above the block width), the whole output block shares one fused
/// row and each entry's sources form one whole source block at identical
/// offsets — the accumulation collapses to one
/// [`slices::accumulate_scaled`] per entry, resolving each source block
/// once per block instead of once per amplitude. Both paths add the same
/// terms in the same order, so results stay `==`-identical.
fn mxv_fused(
    view: &ExecView<'_>,
    row_id: RowId,
    fused: &FusedOp,
    base: usize,
    out: &mut [Complex64],
) {
    let geom = &view.geom;
    if fused.sig_mask() & (out.len() as u64 - 1) == 0 {
        out.fill(Complex64::ZERO);
        for &(xor, coef) in fused.row_of(base as u64) {
            // xor ⊆ sig bits, all ≥ the block width: same in-block offset.
            let sb = geom.block_of(base ^ (xor as usize));
            match view.resolve_before(row_id, sb) {
                Resolved::Data(d) => slices::accumulate_scaled(out, &d, coef),
                Resolved::Initial => {
                    if sb == 0 {
                        out[0] += coef;
                    }
                }
            }
        }
        return;
    }
    let mut cache = SourceCache::new();
    for (off, out_v) in out.iter_mut().enumerate() {
        let i = (base + off) as u64;
        let mut acc = Complex64::ZERO;
        for &(xor, coef) in fused.row_of(i) {
            let src = (i ^ xor) as usize;
            let sb = geom.block_of(src);
            let so = geom.offset_in_block(src);
            acc += coef * cache.read(view, row_id, sb, so);
        }
        *out_v = acc;
    }
}

/// The scalar path: re-expand the factor product for every output
/// amplitude ("recursive tensor products… stop at zero and identity
/// patterns"). The path of groups whose signature exceeds
/// [`FusedOp::MAX_SIG_BITS`], and the reference [`mxv_fused`] must match.
fn mxv_scalar(view: &ExecView<'_>, row_id: RowId, row: &Row, base: usize, out: &mut [Complex64]) {
    let geom = &view.geom;
    // Resolved source-block cache (sources cluster into few blocks).
    let mut cache: Vec<(usize, Resolved)> = Vec::with_capacity(4);
    // Scratch contribution lists, reused across output amplitudes.
    let mut contrib: Vec<(u64, Complex64)> = Vec::with_capacity(8);
    let mut next: Vec<(u64, Complex64)> = Vec::with_capacity(8);
    let tol = qtask_gates::class::CLASSIFY_TOL;
    for (off, out_v) in out.iter_mut().enumerate() {
        let i = (base + off) as u64;
        contrib.clear();
        contrib.push((i, Complex64::ONE));
        for f in &row.dense {
            if i & f.controls != f.controls {
                continue; // identity row of this factor
            }
            let tbit = 1u64 << f.target;
            let out_bit = usize::from(i & tbit != 0);
            next.clear();
            for &(src, coef) in &contrib {
                for (in_bit, m) in [(0usize, f.mat.at(out_bit, 0)), (1, f.mat.at(out_bit, 1))] {
                    if m.is_zero(tol) {
                        continue;
                    }
                    let nsrc = if in_bit == 0 { src & !tbit } else { src | tbit };
                    next.push((nsrc, coef * m));
                }
            }
            std::mem::swap(&mut contrib, &mut next);
        }
        let mut acc = Complex64::ZERO;
        for &(src, coef) in &contrib {
            let sb = geom.block_of(src as usize);
            let so = geom.offset_in_block(src as usize);
            let resolved = match cache.iter().rposition(|(b, _)| *b == sb) {
                Some(pos) => &cache[pos].1,
                None => {
                    let r = view.resolve_before(row_id, sb);
                    cache.push((sb, r));
                    &cache.last().unwrap().1
                }
            };
            acc += coef * resolved.read(sb, so);
        }
        *out_v = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Ckt;
    use qtask_gates::GateKind;
    use rand::prelude::*;

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

    /// A task's materialized blocks in block order, for comparison.
    fn sorted_blocks(set: &BlockSet) -> Vec<(usize, &[Complex64])> {
        let mut blocks: Vec<_> = set.entries.iter().map(|(b, d)| (*b, &d[..])).collect();
        blocks.sort_by_key(|(b, _)| *b);
        blocks
    }

    /// Runs a linear partition through `linear_batched` and `linear_scalar`
    /// and compares the blocks they materialize.
    fn check_linear(view: &ExecView<'_>, row_id: RowId, op: &LinearOp, part: &Partition) {
        let row = &view.rows[row_id.key()];
        let pattern = op.pattern(view.n_qubits);
        let ranks = part.spec.item_start..part.spec.item_end;
        let mut batched = BlockSet::from_pool(part);
        let mut scalar = BlockSet {
            entries: Vec::new(),
        };
        linear_batched(view, row_id, row, op, &pattern, &mut batched, ranks.clone());
        linear_scalar(view, row_id, row, op, &pattern, &mut scalar, ranks);
        assert_eq!(
            sorted_blocks(&batched),
            sorted_blocks(&scalar),
            "{}",
            row.label
        );
        // The batched run reclaimed the row's buffers: hand them back.
        batched.publish(view, row_id, row, part);
    }

    /// Runs every output block of an MxV partition through `mxv_fused`
    /// and `mxv_scalar`. Returns whether the whole-block shortcut ran.
    fn check_mxv(view: &ExecView<'_>, row_id: RowId, part: &Partition) -> bool {
        let row = &view.rows[row_id.key()];
        let fused = row.fused.as_ref().expect("groups of ≤3 gates fuse");
        let bs = view.geom.block_size();
        for block in part.spec.block_lo as usize..=part.spec.block_hi as usize {
            let (mut got, mut want) = (vec![Complex64::ZERO; bs], vec![Complex64::ZERO; bs]);
            mxv_fused(view, row_id, fused, block * bs, &mut got);
            mxv_scalar(view, row_id, row, block * bs, &mut want);
            assert_eq!(got, want, "{} block {block}", row.label);
        }
        fused.sig_mask() & (bs as u64 - 1) == 0
    }

    /// Runs [`check_mxv`] on every MxV partition of an updated circuit and
    /// returns, per partition, whether the whole-block shortcut ran.
    fn check_all_mxv(ckt: &Ckt) -> Vec<bool> {
        let view = ExecView {
            rows: &ckt.rows,
            parts: &ckt.parts,
            owners: &ckt.owners,
            stats: &ckt.resolve_stats,
            geom: ckt.geom,
            n_qubits: ckt.num_qubits(),
        };
        let mut paths = Vec::new();
        for k in ckt.rows.keys() {
            if matches!(ckt.rows[k].kind, RowKind::MxV) {
                for pid in &ckt.rows[k].parts {
                    paths.push(check_mxv(&view, RowId(k), &ckt.parts[pid.key()]));
                }
            }
        }
        paths
    }

    /// The scalar MxV path stays available and agrees with the fused
    /// path bit-for-bit. Qubit 0 lies inside the 4-amplitude block, so
    /// the fused path runs per amplitude.
    #[test]
    fn scalar_and_fused_mxv_agree_exactly() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(5, cfg);
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
        ckt.insert_gate(GateKind::U3(0.3, 0.8, 1.1), net, &[3])
            .unwrap();
        ckt.update_state().unwrap();
        let paths = check_all_mxv(&ckt);
        assert!(!paths.is_empty(), "no MxV partition ran");
        assert!(paths.iter().all(|&whole| !whole));
    }

    /// When every signature bit sits at or above the block width, the
    /// fused path takes the whole-block `accumulate_scaled` shortcut —
    /// and must still agree exactly with the scalar expansion.
    #[test]
    fn whole_block_fused_path_agrees_exactly() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(6, cfg);
        let net = ckt.push_net();
        // Targets 3 and 5 and control 4 are all ≥ log2(block) = 2:
        // sig_mask & (block-1) == 0 → block-uniform fused rows.
        ckt.insert_gate(GateKind::H, net, &[3]).unwrap();
        ckt.insert_gate(GateKind::Ch, net, &[4, 5]).unwrap();
        let tail = ckt.push_net();
        ckt.insert_gate(GateKind::U3(0.7, 0.2, 1.9), tail, &[5])
            .unwrap();
        ckt.update_state().unwrap();
        let paths = check_all_mxv(&ckt);
        assert!(!paths.is_empty(), "no MxV partition ran");
        assert!(paths.iter().all(|&whole| whole));
        let norm: f64 = ckt.state().iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    /// Every batched kernel agrees bit-for-bit with its scalar reference.
    /// On random circuits and geometries, each linear partition runs
    /// through both `linear_batched` and `linear_scalar`, and each MxV
    /// output block through both `mxv_fused` and `mxv_scalar`, from the
    /// same resolved inputs.
    #[test]
    fn batched_kernels_match_scalar_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(20260729);
        let (mut whole_block, mut per_amplitude, mut multi_block) = (0, 0, 0);
        for _ in 0..60 {
            let n = rng.random_range(3..=8u8);
            let mut cfg = SimConfig::with_block_size(1 << rng.random_range(0..=5u32));
            cfg.num_threads = 1;
            cfg.mxv_group_max = rng.random_range(1..=3);
            let mut ckt = Ckt::with_config(n, cfg);
            for _ in 0..rng.random_range(2..=5) {
                let net = ckt.push_net();
                for (kind, qubits) in random_net(&mut rng, n) {
                    ckt.insert_gate(kind, net, &qubits).unwrap();
                }
            }
            ckt.update_state().unwrap();
            let view = ExecView {
                rows: &ckt.rows,
                parts: &ckt.parts,
                owners: &ckt.owners,
                stats: &ckt.resolve_stats,
                geom: ckt.geom,
                n_qubits: n,
            };
            for k in ckt.rows.keys() {
                for pid in &ckt.rows[k].parts {
                    let part = &ckt.parts[pid.key()];
                    match ckt.rows[k].kind {
                        RowKind::Sync => {}
                        RowKind::Linear(op) => check_linear(&view, RowId(k), &op, part),
                        RowKind::MxV => {
                            if check_mxv(&view, RowId(k), part) {
                                whole_block += 1;
                            } else {
                                per_amplitude += 1;
                            }
                            if part.spec.block_hi > part.spec.block_lo {
                                multi_block += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(ckt.audit(), vec![], "republished rows stay coherent");
        }
        assert!(whole_block > 0, "whole-block fused shortcut never ran");
        assert!(per_amplitude > 0, "per-amplitude fused path never ran");
        assert!(multi_block > 0, "no MxV partition spanned several blocks");
    }
}
