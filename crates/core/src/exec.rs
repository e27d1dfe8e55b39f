//! Partition execution kernels over copy-on-write blocks.
//!
//! A linear partition task walks its items one low-side block at a time:
//! it acquires the block (and the partner block, when a pair op's partner
//! lies in another) as a fresh copy of the *previous* row's content,
//! applies the swap/scale items, and publishes at once. Tasks of one partition touch disjoint
//! blocks (each is whole dispatch grains, [`BlockGeometry::grain`]) and a
//! task acquires no block twice, so tasks synchronize only on the
//! per-block owner-list locks.
//!
//! An MxV partition computes a grain of output blocks of the net's
//! grouped superposition operator, one block at a time: each output
//! amplitude accumulates its fused sparse row
//! ([`crate::fused::FusedOp`], precomputed once per group change) against
//! sources resolved through the owner index.
//!
//! Linear items run as contiguous slices ([`qtask_num::slices`]); MxV
//! groups too wide to fuse re-expand their factor product per amplitude.
//! Each kernel is bit-identical to its scalar reference (checked by this
//! module's tests).
//!
//! Steady-state incremental updates are allocation-free: re-executing
//! partitions take their previously published buffers back *with* their
//! `Arc` wrapper ([`OwnerIndex::take`]), mutate in place, and republish
//! the same allocation.

use crate::cow::{BlockData, Resolved};
use crate::fused::FusedOp;
use crate::owners::{OwnerIndex, ResolveStats};
use crate::row::{Partition, Row, RowId, RowKind};
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
            .resolve_before(b, self.label_of(row), |r| self.label_of(r), self.stats)
            .map_or(Resolved::Initial, Resolved::Data)
    }

    /// Acquires block `b` of `row` for rewriting, filled with the
    /// previous row's content: the row's own buffer when it can be taken
    /// back, a fresh one otherwise. Returns it with its owner-list
    /// position for [`Self::publish`].
    fn acquire(&self, row: RowId, b: usize) -> (BlockData, usize) {
        let (own, before, pos) = self
            .owners
            .take(b, row, |r| self.label_of(r), Some(self.stats));
        let resolved = before.map_or(Resolved::Initial, Resolved::Data);
        let data = match own {
            Some(mut arc) => {
                resolved.fill_into(b, unique(&mut arc));
                arc
            }
            None => {
                // Simulated allocation failure lands here: the cold path
                // that materializes a fresh working buffer.
                qtask_faults::fault_point!("exec/alloc_block");
                Arc::new(resolved.to_vec(b, self.geom.block_size()))
            }
        };
        (data, pos)
    }

    /// Publishes `data` as block `b` of `row` into the owner index at
    /// `pos` (from the acquisition). All executor-side publications go
    /// through here, so one probe covers every publication
    /// (`exec/publish_row` panics mid-publish; `exec/corrupt_row` poisons
    /// an amplitude with NaN/Inf to exercise the numerical policy).
    pub fn publish(&self, row: RowId, b: usize, data: BlockData, pos: usize) {
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
        self.owners.publish(b, row, data, pos, |r| self.label_of(r));
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
    let row_id = part.row;
    let RowKind::Linear(op) = view.rows[row_id.key()].kind else {
        unreachable!("linear execution on non-linear row");
    };
    linear_blocks(&view, row_id, &op, ranks);
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
fn linear_blocks(view: &ExecView<'_>, row_id: RowId, op: &LinearOp, ranks: std::ops::Range<u64>) {
    let geom = &view.geom;
    let pattern = op.pattern(view.n_qubits);
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
        let (mut lo, lo_pos) = view.acquire(row_id, bl);
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
                    let (mut hi, hi_pos) = view.acquire(row_id, bh);
                    let bufh = unique(&mut hi);
                    for_each_submask(starts, |s| {
                        let (o, p) = ((ol | s) as usize, (oh | s) as usize);
                        pair_run(op, &mut buf[o..o + run], &mut bufh[p..p + run]);
                    });
                    view.publish(row_id, bh, hi, hi_pos);
                }
            }
        }
        view.publish(row_id, bl, lo, lo_pos);
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
pub fn exec_mxv_partition(view: ExecView<'_>, part: &Partition) {
    qtask_faults::fault_point!("exec/mxv_task");
    let row_id = part.row;
    let row = &view.rows[row_id.key()];
    debug_assert!(matches!(row.kind, RowKind::MxV));
    let bs = view.geom.block_size();
    for block in part.spec.block_lo as usize..=part.spec.block_hi as usize {
        let (own, _, pos) = view.owners.take(block, row_id, |r| view.label_of(r), None);
        let mut out_arc = own.unwrap_or_else(|| {
            qtask_faults::fault_point!("exec/alloc_block");
            Arc::new(vec![Complex64::ZERO; bs])
        });
        let out = unique(&mut out_arc);
        let base = block * bs;
        match row.fused {
            Some(ref fused) => mxv_fused(&view, row_id, fused, base, out),
            None => mxv_scalar(&view, row_id, row, base, out),
        }
        view.publish(row_id, block, out_arc, pos);
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
        let mut blocks = BTreeMap::new();
        for low in pattern.iter_lows(ranks) {
            let low = low as usize;
            let high = pattern.partner(low as u64) as usize;
            let (bl, bh) = (geom.block_of(low), geom.block_of(high));
            let (ol, oh) = (geom.offset_in_block(low), geom.offset_in_block(high));
            for b in [bl, bh] {
                blocks
                    .entry(b)
                    .or_insert_with(|| view.resolve_before(row_id, b).to_vec(b, geom.block_size()));
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
            let poisoned = Arc::new(vec![nan; view.geom.block_size()]);
            view.owners
                .publish(b, row_id, poisoned, 0, |r| view.label_of(r));
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
            owners: &ckt.owners,
            stats: &ckt.resolve_stats,
            geom: ckt.geom,
            n_qubits: ckt.num_qubits(),
        };
        let mut paths = Vec::new();
        for k in ckt.rows.keys() {
            if matches!(ckt.rows[k].kind, RowKind::MxV) {
                for &pid in &ckt.rows[k].parts {
                    paths.push(check_mxv(&view, RowId(k), &ckt.graph[pid]));
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
        let norm = ckt.latest_snapshot().unwrap().norm_sqr();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    /// Every kernel agrees bit-for-bit with its scalar reference. On
    /// random circuits and geometries (3–8 qubits, blocks of 1–64), each
    /// linear partition runs through both `exec_linear_partition` and
    /// `linear_scalar`, and each MxV output block through both
    /// `mxv_fused` and `mxv_scalar`, from the same resolved inputs.
    #[test]
    fn batched_kernels_match_scalar_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(20260729);
        let (mut whole_block, mut per_amplitude, mut multi_block) = (0, 0, 0);
        let mut shapes = Shapes::default();
        for _ in 0..80 {
            let n = rng.random_range(3..=8u8);
            let mut cfg = SimConfig::with_block_size(1 << rng.random_range(0..=6u32));
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
                owners: &ckt.owners,
                stats: &ckt.resolve_stats,
                geom: ckt.geom,
                n_qubits: n,
            };
            for k in ckt.rows.keys() {
                for &pid in &ckt.rows[k].parts {
                    let part = &ckt.graph[pid];
                    match ckt.rows[k].kind {
                        RowKind::Sync => {}
                        RowKind::Linear(op) => {
                            check_linear(&view, RowId(k), &op, part, &mut shapes);
                        }
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
        assert!(shapes.in_block_partner > 0, "{shapes:?}");
        assert!(shapes.above_block_partner > 0, "{shapes:?}");
        assert!(shapes.straddling_swap > 0, "{shapes:?}");
        assert!(shapes.split_controls > 0, "{shapes:?}");
        assert!(shapes.unit_runs > 0, "{shapes:?}");
        assert!(whole_block > 0, "whole-block fused shortcut never ran");
        assert!(per_amplitude > 0, "per-amplitude fused path never ran");
        assert!(multi_block > 0, "no MxV partition spanned several blocks");
    }
}
