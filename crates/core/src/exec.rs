//! Partition execution kernels over copy-on-write blocks.
//!
//! A linear partition task walks its items one low-side block at a time:
//! it acquires the block (and the partner block, when a pair op's partner
//! lies in another) holding the *previous* row's content, applies the
//! swap/scale items in place, and publishes at once. Tasks of one
//! partition touch disjoint blocks (each is whole dispatch grains,
//! [`BlockGeometry::grain`]) and a task acquires no block twice, so tasks
//! synchronize only on the per-block owner-list locks.
//!
//! An MxV partition computes a grain of output blocks of the net's
//! grouped superposition operator ([`crate::fused::FusedOp`], precomputed
//! once per group change). A *block-local* group (every target below the
//! block width; `Row::reads_all_blocks` false) reads only the block it
//! writes, so it acquires that block as a linear row does and computes
//! its output there in place:
//!
//! * a one-factor row applies the factor's 2×2 matrix as a butterfly
//!   over each amplitude and its partner across the target bit, one
//!   fused-row lookup per run of amplitudes that share it, skipping
//!   identity rows (a control unsatisfied);
//! * a group of several factors computes one *run* at a time from a
//!   per-thread copy of the block's input: the offsets below the lowest
//!   in-block signature bit share one fused row, and each of its entries
//!   accumulates one contiguous source run.
//!
//! Any other group reads its sources from other blocks through the owner
//! index, run by run, into the row's own buffers or fresh ones.
//!
//! Linear items run as contiguous slices ([`qtask_num::slices`]); MxV
//! groups too wide to fuse re-expand their factor product per amplitude.
//! Each kernel is bit-identical to its scalar reference (checked by this
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
use crate::fused::FusedOp;
use crate::owners::{Input, OwnerIndex, ResolveStats, Tally};
use crate::row::{Partition, Row, RowId, RowKind};
use qtask_num::{slices, Complex64};
use qtask_partition::{kernels, BlockGeometry, LinearOp};
use qtask_util::LinkedArena;
use std::cell::RefCell;
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

    /// Resolves block `b` as seen *before* the row (i.e. the previous
    /// row's logical content). Panics when the read lands on an evicted
    /// entry: the run re-materializes every such entry before any task
    /// starts.
    fn resolve_before(&self, b: usize) -> Resolved {
        let view = &self.view;
        view.owners
            .resolve_before(
                b,
                view.label_of(self.row),
                |r| view.label_of(r),
                &self.tally,
            )
            .unwrap_or_else(|evicted| {
                panic!("block {b}: resolution reached the evicted entry of {evicted:?}")
            })
            .map_or(Resolved::Initial, Resolved::Data)
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

    /// Block `b`'s output buffer when the row's sources lie elsewhere:
    /// the row's own unshared buffer, or a fresh zeroed one.
    fn take_own(&self, b: usize) -> (BlockData, usize) {
        let view = &self.view;
        let (own, pos) = view.owners.take_own(b, self.row, |r| view.label_of(r));
        let data = own.unwrap_or_else(|| {
            qtask_faults::fault_point!("exec/alloc_block");
            Arc::new(vec![Complex64::ZERO; view.geom.block_size()])
        });
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

/// Executes the item-rank range `ranks` of a linear partition: the body of
/// one intra-partition task.
pub fn exec_linear_partition(view: ExecView<'_>, part: &Partition, ranks: std::ops::Range<u64>) {
    qtask_faults::fault_point!("exec/linear_task");
    let RowKind::Linear(op) = view.rows[part.row.key()].kind else {
        unreachable!("linear execution on non-linear row");
    };
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
            LinearOp::AntiDiag { .. } | LinearOp::Swap { .. } => {
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
        LinearOp::Diag { .. } => unreachable!("diagonal ops have no partner"),
    }
}

/// Resolved source blocks of one non-local MxV output block, in a
/// fixed-capacity cache: sources cluster into at most `2^g` distinct
/// blocks, so [`Self::CAP`] slots cover every practical group without
/// heap allocation. Past that, a miss overwrites the oldest slot
/// (correct, just resolved again when read again).
struct SourceCache {
    entries: [(usize, Resolved); SourceCache::CAP],
    misses: usize,
}

impl SourceCache {
    /// Covers every distinct source block of a group with `2^g ≤ 16`
    /// fused entries; wider groups (signature near `MAX_SIG_BITS`) cycle
    /// through the slots, trading lookups for zero allocation.
    const CAP: usize = 16;

    fn new() -> SourceCache {
        SourceCache {
            entries: std::array::from_fn(|_| (usize::MAX, Resolved::Initial)),
            misses: 0,
        }
    }

    /// Block `sb` resolved before the task's row, once per block while it fits.
    #[inline]
    fn get(&mut self, task: &Task<'_>, sb: usize) -> &Resolved {
        let filled = self.misses.min(Self::CAP);
        let at = match self.entries[..filled].iter().position(|e| e.0 == sb) {
            Some(at) => at,
            None => {
                let at = self.misses % Self::CAP;
                self.misses += 1;
                self.entries[at] = (sb, task.resolve_before(sb));
                at
            }
        };
        &self.entries[at].1
    }
}

thread_local! {
    /// The input of a block-local MxV block, copied out of the buffer its
    /// output overwrites: one per thread, sized on first use, reused after.
    static LOCAL_INPUT: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Executes one MxV partition: computes each output block of its span
/// of the net's grouped superposition operator, in place for a
/// block-local group (`Row::reads_all_blocks` false), as butterflies
/// when it has one factor; otherwise from sources resolved through the
/// owner index into the row's own buffers, or fresh ones.
pub fn exec_mxv_partition(view: ExecView<'_>, part: &Partition) {
    qtask_faults::fault_point!("exec/mxv_task");
    let task = Task::new(view, part.row);
    let row = &view.rows[part.row.key()];
    debug_assert!(matches!(row.kind, RowKind::MxV));
    let bs = view.geom.block_size();
    let in_place = row.fused.is_some() && !row.reads_all_blocks(bs);
    for block in part.spec.block_lo as usize..=part.spec.block_hi as usize {
        let base = block * bs;
        let (mut data, pos) = if in_place {
            task.acquire(block)
        } else {
            task.take_own(block)
        };
        let out = unique(&mut data);
        match (&row.fused, &row.dense[..]) {
            (Some(fused), [factor]) if in_place => mxv_pairs(fused, factor.target, base, out),
            (Some(fused), _) if in_place => mxv_local(fused, base, out),
            (Some(fused), _) => mxv_fused(&task, fused, base, out),
            (None, _) => mxv_scalar(&task, row, base, out),
        }
        task.publish(block, data, pos);
    }
}

/// The one-factor block-local path, in place: each amplitude `i` of the
/// block with the target bit clear pairs with `i | 2^target`. Runs of
/// `run` low amplitudes sit `2^target` before their partners, and the
/// amplitudes below the lowest other in-block signature bit share one
/// matrix ([`pair_matrix`]), looked up once for each such segment.
fn mxv_pairs(fused: &FusedOp, target: u8, base: usize, out: &mut [Complex64]) {
    let tbit = 1usize << target;
    let others = fused.sig_mask() & !(tbit as u64) & (out.len() as u64 - 1);
    let seg = if others == 0 {
        out.len()
    } else {
        1 << others.trailing_zeros()
    };
    let run = seg.min(tbit);
    let mut m = None;
    for (k, pair) in out.chunks_exact_mut(2 * tbit).enumerate() {
        let (los, his) = pair.split_at_mut(tbit);
        for s in (0..tbit).step_by(run) {
            let o = 2 * tbit * k + s;
            if o.is_multiple_of(seg) {
                m = pair_matrix(fused, base + o, tbit);
            }
            if let Some(m) = m {
                butterfly(&mut los[s..s + run], &mut his[s..s + run], m);
            }
        }
    }
}

/// The 2×2 matrix `[m00, m01, m10, m11]` of a one-factor row at the
/// pair of `i` (target bit clear) and `i | tbit`, read from their fused
/// rows: a term the row drops is a zero. `None` for identity rows.
fn pair_matrix(fused: &FusedOp, i: usize, tbit: usize) -> Option<[Complex64; 4]> {
    let (lo, hi) = (fused.row_of(i as u64), fused.row_of((i | tbit) as u64));
    let identity = [(0, Complex64::ONE)];
    if lo == identity && hi == identity {
        return None;
    }
    let mut m = [Complex64::ZERO; 4];
    for &(xor, coef) in lo {
        m[usize::from(xor != 0)] = coef;
    }
    for &(xor, coef) in hi {
        m[2 + usize::from(xor == 0)] = coef;
    }
    Some(m)
}

/// `(lo[k], hi[k]) ← M · (lo[k], hi[k])`. Each output adds its two terms
/// as the fused row lists them, the low source's first, so it is
/// `==` [`mxv_scalar`]; an all-real matrix (H, Ry) takes the real path,
/// which differs only in the sign of a zero.
#[inline]
fn butterfly(lo: &mut [Complex64], hi: &mut [Complex64], m: [Complex64; 4]) {
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

/// The run length of a fused group over blocks of `block_size`: the
/// offsets below the lowest in-block signature bit share one fused row,
/// and each entry's sources form one contiguous, aligned slice. A group
/// with no signature bit inside the block runs the whole block as one.
fn run_len(fused: &FusedOp, block_size: usize) -> usize {
    match fused.sig_mask() & (block_size as u64 - 1) {
        0 => block_size,
        in_block => 1 << in_block.trailing_zeros(),
    }
}

/// The run-wise fused kernel: per run of [`run_len`] output amplitudes,
/// look up the fused row once and hand `add` each `(source start,
/// coefficient)` entry, in row order, to accumulate into the zeroed
/// run. Every amplitude thus sums the same terms in the same order as
/// [`mxv_scalar`], so the result is `==`-identical.
#[inline]
fn mxv_runs(
    fused: &FusedOp,
    base: usize,
    out: &mut [Complex64],
    mut add: impl FnMut(&mut [Complex64], usize, Complex64),
) {
    let run = run_len(fused, out.len());
    for (k, dst) in out.chunks_exact_mut(run).enumerate() {
        dst.fill(Complex64::ZERO);
        let i = base + k * run;
        for &(xor, coef) in fused.row_of(i as u64) {
            add(dst, i ^ xor as usize, coef);
        }
    }
}

/// The block-local path: `out` holds the block's input on entry and its
/// output on return. Every source lies in the block (the xor of an entry
/// is a subset of the target bits, all below the block width), so the
/// input is copied once into this thread's scratch and each entry is one
/// [`slices::accumulate_scaled`] over a run of it.
fn mxv_local(fused: &FusedOp, base: usize, out: &mut [Complex64]) {
    LOCAL_INPUT.with_borrow_mut(|input| {
        input.clear();
        input.extend_from_slice(out);
        mxv_runs(fused, base, out, |dst, src, coef| {
            let so = src - base;
            slices::accumulate_scaled(dst, &input[so..so + dst.len()], coef);
        });
    });
}

/// The non-local fused path: each entry's source run is read from its
/// block resolved through the owner index, once per source block and
/// output block. Zero heap allocation.
fn mxv_fused(task: &Task<'_>, fused: &FusedOp, base: usize, out: &mut [Complex64]) {
    let geom = task.view.geom;
    let mut cache = SourceCache::new();
    mxv_runs(fused, base, out, |dst, src, coef| {
        let (sb, so) = (geom.block_of(src), geom.offset_in_block(src));
        match cache.get(task, sb) {
            Resolved::Data(d) => slices::accumulate_scaled(dst, &d[so..so + dst.len()], coef),
            // The initial state's one nonzero amplitude: global index 0,
            // which starts its run.
            Resolved::Initial if src == 0 => dst[0] += coef * Complex64::ONE,
            Resolved::Initial => {}
        }
    });
}

/// The scalar path: re-expand the factor product for every output
/// amplitude ("recursive tensor products… stop at zero and identity
/// patterns"). The path of groups whose signature exceeds
/// [`FusedOp::MAX_SIG_BITS`], and the reference the fused paths must
/// match.
fn mxv_scalar(task: &Task<'_>, row: &Row, base: usize, out: &mut [Complex64]) {
    let geom = &task.view.geom;
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
                    let r = task.resolve_before(sb);
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
                    .or_insert_with(|| task.resolve_before(b).to_vec(b, geom.block_size()));
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
            | LinearOp::Swap { controls, .. }) = *op;
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

    /// Which run shapes the MxV kernels met, so the bit-exactness test
    /// can insist that every branch of them ran.
    #[derive(Debug, Default)]
    struct MxvShapes {
        /// Runs of one amplitude inside blocks of several.
        unit_runs: usize,
        /// Runs longer than one amplitude and shorter than the block.
        partial_runs: usize,
        /// Runs of a whole block of several.
        whole_block_runs: usize,
        /// Block-local partitions, run in place.
        local: usize,
        /// Block-local groups with a control at or above the block width.
        local_high_control: usize,
        /// Partitions spanning several blocks.
        multi_block: usize,
        /// One-factor partitions run as in-place butterflies, by an
        /// all-real matrix and by a complex one.
        pairs_real: usize,
        pairs_complex: usize,
        /// Butterflies at target 0: runs of one amplitude.
        pairs_target_0: usize,
        /// Butterflies with a control inside the block.
        pairs_in_block_control: usize,
    }

    impl MxvShapes {
        fn record(&mut self, row: &Row, part: &Partition, run: usize, bs: usize) {
            if bs > 1 {
                match run {
                    1 => self.unit_runs += 1,
                    r if r == bs => self.whole_block_runs += 1,
                    _ => self.partial_runs += 1,
                }
            }
            if row.reads_all_blocks(bs) {
                // read through the owner index
            } else if let [f] = row.dense[..] {
                let m = [
                    f.mat.at(0, 0),
                    f.mat.at(0, 1),
                    f.mat.at(1, 0),
                    f.mat.at(1, 1),
                ];
                if m.iter().all(|c| c.im == 0.0) {
                    self.pairs_real += 1;
                } else {
                    self.pairs_complex += 1;
                }
                self.pairs_target_0 += usize::from(f.target == 0 && bs > 1);
                self.pairs_in_block_control += usize::from(f.controls & (bs as u64 - 1) != 0);
            } else {
                self.local += 1;
                if row.dense.iter().any(|f| f.controls >= bs as u64) {
                    self.local_high_control += 1;
                }
            }
            if part.spec.block_hi > part.spec.block_lo {
                self.multi_block += 1;
            }
        }
    }

    /// Runs every output block of an MxV partition through `mxv_fused`
    /// and `mxv_scalar`, then the partition itself through
    /// `exec_mxv_partition` (in place for a block-local group, as
    /// butterflies when it has one factor) from the same input, and
    /// requires all three `==`. Returns the run length.
    fn check_mxv(view: &ExecView<'_>, row_id: RowId, part: &Partition) -> usize {
        let row = &view.rows[row_id.key()];
        let fused = row.fused.as_ref().expect("groups of ≤3 gates fuse");
        let bs = view.geom.block_size();
        let blocks = part.spec.block_lo as usize..=part.spec.block_hi as usize;
        let task = Task::new(*view, row_id);
        let mut want = Vec::new();
        for block in blocks.clone() {
            let (mut got, mut scalar) = (vec![Complex64::ZERO; bs], vec![Complex64::ZERO; bs]);
            mxv_fused(&task, fused, block * bs, &mut got);
            mxv_scalar(&task, row, block * bs, &mut scalar);
            assert_eq!(got, scalar, "{} block {block}", row.label);
            want.push(scalar);
        }
        // Poison the row's blocks, so a block the partition does not
        // rewrite and publish fails the comparison.
        let nan = Complex64 {
            re: f64::NAN,
            im: f64::NAN,
        };
        for b in blocks.clone() {
            put(view, row_id, b, Arc::new(vec![nan; bs]));
        }
        exec_mxv_partition(*view, part);
        for (block, want) in blocks.zip(&want) {
            let (_, data) = view
                .owners
                .entries(block)
                .into_iter()
                .find(|e| e.0 == row_id)
                .expect("published");
            assert_eq!(
                &*data.expect("held"),
                want,
                "{} block {block} executed",
                row.label
            );
        }
        run_len(fused, bs)
    }

    /// Runs [`check_mxv`] on every MxV partition of an updated circuit and
    /// returns, per partition, whether its runs span the whole block.
    fn check_all_mxv(ckt: &Ckt) -> Vec<bool> {
        let view = ckt.exec_view(&ckt.resolve_stats);
        let bs = view.geom.block_size();
        let mut paths = Vec::new();
        for k in ckt.rows.keys() {
            if matches!(ckt.rows[k].kind, RowKind::MxV) {
                for &pid in &ckt.rows[k].parts {
                    paths.push(check_mxv(&view, RowId(k), &ckt.graph[pid]) == bs);
                }
            }
        }
        paths
    }

    /// The scalar MxV path stays available and agrees with the fused
    /// path bit-for-bit. Qubit 0 lies inside the 4-amplitude block, so
    /// the fused path runs one amplitude per run.
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
    /// fused path runs the whole block as one run — and must still agree
    /// exactly with the scalar expansion.
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
        let norm = ckt.latest_snapshot().unwrap().norm_sqr();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    /// Every kernel agrees bit-for-bit with its scalar reference. On
    /// random circuits and geometries (3–8 qubits, blocks of 1–64), each
    /// linear partition runs through both `exec_linear_partition` and
    /// `linear_scalar`, and each MxV output block through `mxv_fused`,
    /// `mxv_scalar` and `exec_mxv_partition` (in place for a block-local
    /// group, as butterflies when it has one factor), from the same
    /// resolved inputs. Every row is retained, so
    /// each row's inputs stay readable.
    #[test]
    fn batched_kernels_match_scalar_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(20260729);
        let mut shapes = Shapes::default();
        let mut mxv_shapes = MxvShapes::default();
        for _ in 0..240 {
            let n = rng.random_range(3..=8u8);
            let mut cfg = SimConfig::with_block_size(1 << rng.random_range(0..=6u32));
            cfg.num_threads = 1;
            cfg.mxv_group_max = rng.random_range(1..=3);
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
                    let part = &ckt.graph[pid];
                    match ckt.rows[k].kind {
                        RowKind::Sync => {}
                        RowKind::Linear(op) => {
                            check_linear(&view, RowId(k), &op, part, &mut shapes);
                        }
                        RowKind::MxV => {
                            let run = check_mxv(&view, RowId(k), part);
                            mxv_shapes.record(&ckt.rows[k], part, run, view.geom.block_size());
                        }
                    }
                }
            }
            assert_eq!(ckt.audit(), vec![], "republished rows stay coherent");
        }
        assert!(shapes.in_block_partner > 0, "{shapes:?}");
        assert!(shapes.above_block_partner > 0, "{shapes:?}");
        assert!(shapes.straddling_swap > 0, "{shapes:?}");
        assert!(shapes.split_controls > 0, "{shapes:?}");
        assert!(shapes.unit_runs > 0, "{shapes:?}");
        assert!(mxv_shapes.unit_runs > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.partial_runs > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.whole_block_runs > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.local > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.local_high_control > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.multi_block > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.pairs_real > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.pairs_complex > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.pairs_target_0 > 0, "{mxv_shapes:?}");
        assert!(mxv_shapes.pairs_in_block_control > 0, "{mxv_shapes:?}");
    }
}
