//! The view operators: per-block partial aggregates over a snapshot,
//! patchable in O(|Δ∩B|) from a [`BlockDelta`].
//!
//! Every operator follows the same discipline:
//!
//! * **Per-block partials.** Aggregates are computed block by block from
//!   [`StateSnapshot::raw_block`] — the same values the snapshot's scalar
//!   queries report — and [`View::value`] reads the running total as is.
//! * **Subtract-old / add-new.** [`View::patch`] retires each dirty
//!   block's stale contribution from the running total, rescans exactly
//!   that block, and adds the fresh contribution back. Applying the same
//!   patch twice is a no-op (the partial converges to the same value),
//!   which keeps patching restartable.
//! * **Support closure.** An operator whose block-b partial reads other
//!   blocks (the off-diagonal Pauli pairing) widens the dirty set to the
//!   blocks whose partials could observe the change — the analogue of
//!   cynos's Min/Max re-scan rule.

use crate::value::{PatchStats, ViewValue};
use qtask_core::{block_norm_sqr, BlockDelta, StateSnapshot};
use qtask_num::{c64, Complex64};
use std::sync::Arc;

/// A materialized view over the published state: holds per-block partial
/// aggregates and a running total, maintained by delta propagation.
///
/// Implementations must keep [`View::patch`] equivalent to a
/// [`View::refresh`] at the same version — the differential suite
/// asserts it at every published version, removals and late
/// registrations included.
pub trait View: Send {
    /// Human-readable label (used by registries and subscriptions).
    fn label(&self) -> &str;

    /// Rebuilds every partial from scratch against `snap`.
    fn refresh(&mut self, snap: &StateSnapshot);

    /// Patches the partials for `delta`'s dirty blocks against `snap`.
    /// Only sound when this view was last refreshed/patched at
    /// `delta.prev_version` — the registry enforces that and falls back
    /// to [`View::refresh`] on any gap.
    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats;

    /// The current value.
    fn value(&self) -> ViewValue;
}

// ---- NormView -----------------------------------------------------------

/// Maintains Σ|ψ|² — the snapshot's [`StateSnapshot::norm_sqr`] as a
/// materialized view. One `f64` partial per block.
pub struct NormView {
    partials: Vec<f64>,
    total: f64,
}

impl NormView {
    pub fn new() -> NormView {
        NormView {
            partials: Vec::new(),
            total: 0.0,
        }
    }

    /// The per-block partials, one per block.
    pub fn partials(&self) -> &[f64] {
        &self.partials
    }
}

impl Default for NormView {
    fn default() -> Self {
        NormView::new()
    }
}

impl View for NormView {
    fn label(&self) -> &str {
        "norm"
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        let nb = snap.geometry().num_blocks();
        self.partials.clear();
        self.partials.resize(nb, 0.0);
        self.total = 0.0;
        for b in 0..nb {
            let p = block_norm_sqr(b, snap.raw_block(b));
            self.partials[b] = p;
            self.total += p;
        }
    }

    fn patch(&mut self, _snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats {
        // The engine already normed every dirty block: no amplitude read.
        for (b, p) in delta.dirty_norms() {
            self.total -= self.partials[b];
            self.partials[b] = p;
            self.total += p;
        }
        PatchStats {
            blocks_scanned: delta.dirty.len(),
        }
    }

    fn value(&self) -> ViewValue {
        ViewValue::Scalar(self.total)
    }
}

// ---- ProbabilityView ----------------------------------------------------

enum ProbKind {
    /// One basis state's probability.
    Basis(usize),
    /// Marginal distribution over a qubit subset.
    Marginal(Marginal),
}

/// A marginal over `qubits` (output bit k of the distribution index is
/// qubit `qubits[k]` of the basis state), with its bin index split at
/// the block width: qubits above it select one bin per block, qubits
/// inside it spread a block's amplitudes over bins through `lo_bin`.
struct Marginal {
    qubits: Vec<u8>,
    /// Block size the split was made for (0 = not split yet).
    block_size: usize,
    /// `(block-index bit, output bit)` of every above-block qubit.
    hi: Vec<(u32, u32)>,
    /// `lo_bin[off]` = in-block part of the bin index of offset `off`;
    /// empty when no marginal qubit lies inside the block, i.e. every
    /// block lands in one bin.
    lo_bin: Vec<usize>,
}

impl Marginal {
    /// Splits the qubits at `block_size` (a power of two); a no-op when
    /// already split for it.
    fn split(&mut self, block_size: usize) {
        if self.block_size == block_size {
            return;
        }
        let log2_block = block_size.trailing_zeros();
        let (hi, lo): (Vec<_>, Vec<_>) = (0u32..)
            .zip(&self.qubits)
            .map(|(k, &q)| (u32::from(q), k))
            .partition(|&(q, _)| q >= log2_block);
        self.hi = hi.into_iter().map(|(q, k)| (q - log2_block, k)).collect();
        self.lo_bin = if lo.is_empty() {
            Vec::new()
        } else {
            (0..block_size)
                .map(|off| lo.iter().map(|&(q, k)| ((off >> q) & 1) << k).sum())
                .collect()
        };
        self.block_size = block_size;
    }

    /// The above-block part of block `b`'s bin indices.
    fn hi_bin(&self, b: usize) -> usize {
        self.hi.iter().map(|&(bit, k)| ((b >> bit) & 1) << k).sum()
    }

    /// Block `b`'s histogram into the zeroed `out`. `norm` yields the
    /// block's squared norm and is only called when the whole block
    /// lands in one bin.
    fn partial(&self, snap: &StateSnapshot, b: usize, norm: impl FnOnce() -> f64, out: &mut [f64]) {
        let hi = self.hi_bin(b);
        if self.lo_bin.is_empty() {
            out[hi] = norm();
            return;
        }
        match snap.raw_block(b) {
            Some(d) => {
                for (z, &lo) in d.iter().zip(&self.lo_bin) {
                    out[hi | lo] += z.norm_sqr();
                }
            }
            None => {
                // Implicit |0…0⟩: basis state 0 lands in bin 0.
                if b == 0 {
                    out[0] += 1.0;
                }
            }
        }
    }
}

impl ProbKind {
    /// Block `b`'s partial into `out`; `norm` as in [`Marginal::partial`].
    fn partial(&self, snap: &StateSnapshot, b: usize, norm: impl FnOnce() -> f64, out: &mut [f64]) {
        out.fill(0.0);
        match self {
            ProbKind::Basis(idx) => {
                if snap.geometry().block_of(*idx) == b {
                    out[0] = snap.probability(*idx);
                }
            }
            ProbKind::Marginal(m) => m.partial(snap, b, norm, out),
        }
    }
}

/// Maintains basis-state or marginal probabilities. Per-block partials
/// are a `dims`-long histogram (dims = 1 for basis, 2^k for a k-qubit
/// marginal). A patch costs O(|Δ∩B| · block) when a marginal qubit lies
/// inside the block and O(|Δ∩B| · dims) otherwise (the block's mass
/// comes from [`BlockDelta::norms`]), regardless of depth.
pub struct ProbabilityView {
    kind: ProbKind,
    dims: usize,
    /// `num_blocks × dims`, row-major by block.
    partials: Vec<f64>,
    totals: Vec<f64>,
    label: String,
}

impl ProbabilityView {
    /// The per-block partial histograms, `num_blocks × dims`
    /// row-major by block.
    pub fn partials(&self) -> &[f64] {
        &self.partials
    }

    /// The probability of one basis state (a scalar view).
    pub fn basis(idx: usize) -> ProbabilityView {
        ProbabilityView {
            label: format!("prob[{idx}]"),
            kind: ProbKind::Basis(idx),
            dims: 1,
            partials: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// The marginal distribution over `qubits` (a 2^k vector view; bit k
    /// of the distribution index is `qubits[k]`).
    pub fn marginal(qubits: Vec<u8>) -> ProbabilityView {
        ProbabilityView {
            label: format!("marginal{qubits:?}"),
            dims: 1 << qubits.len(),
            kind: ProbKind::Marginal(Marginal {
                qubits,
                block_size: 0,
                hi: Vec::new(),
                lo_bin: Vec::new(),
            }),
            partials: Vec::new(),
            totals: Vec::new(),
        }
    }
}

impl View for ProbabilityView {
    fn label(&self) -> &str {
        &self.label
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        let geom = snap.geometry();
        if let ProbKind::Marginal(m) = &mut self.kind {
            m.split(geom.block_size());
        }
        let nb = geom.num_blocks();
        self.partials.clear();
        self.partials.resize(nb * self.dims, 0.0);
        self.totals.clear();
        self.totals.resize(self.dims, 0.0);
        for b in 0..nb {
            let row = &mut self.partials[b * self.dims..(b + 1) * self.dims];
            self.kind
                .partial(snap, b, || block_norm_sqr(b, snap.raw_block(b)), row);
            for (t, v) in self.totals.iter_mut().zip(row.iter()) {
                *t += v;
            }
        }
    }

    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats {
        for (b, norm) in delta.dirty_norms() {
            let row = &mut self.partials[b * self.dims..(b + 1) * self.dims];
            for (t, v) in self.totals.iter_mut().zip(row.iter()) {
                *t -= v;
            }
            self.kind.partial(snap, b, || norm, row);
            for (t, v) in self.totals.iter_mut().zip(row.iter()) {
                *t += v;
            }
        }
        PatchStats {
            blocks_scanned: delta.dirty.len(),
        }
    }

    fn value(&self) -> ViewValue {
        match self.kind {
            ProbKind::Basis(_) => ViewValue::Scalar(self.totals.first().copied().unwrap_or(0.0)),
            ProbKind::Marginal(_) => ViewValue::Vector(self.totals.clone()),
        }
    }
}

// ---- ExpectationView ----------------------------------------------------

enum ObsKind {
    /// ⟨ψ| diag(w) |ψ⟩ for a basis-indexed weight function.
    Diagonal(Arc<dyn Fn(usize) -> f64 + Send + Sync>),
    /// A Pauli string: X-support `xmask`, Z-support `zmask` (Y = both).
    /// `phase` is the Hermitian prefactor i^{|Y|}.
    Pauli {
        xmask: usize,
        zmask: usize,
        phase: Complex64,
    },
}

/// Maintains an observable expectation value ⟨ψ|O|ψ⟩. Diagonal
/// observables patch exactly the dirty blocks; a Pauli string with
/// X-support widens each dirty block to its pairing partner
/// (`b ^ (xmask >> log2(block_size))`) — the support closure.
pub struct ExpectationView {
    kind: ObsKind,
    partials: Vec<Complex64>,
    /// Reused buffer for a Pauli patch's widened, deduplicated block set.
    rescan: Vec<usize>,
    total: Complex64,
    label: String,
}

fn expectation_partial(kind: &ObsKind, snap: &StateSnapshot, b: usize) -> Complex64 {
    let geom = snap.geometry();
    let bs = geom.block_size();
    let block = snap.raw_block(b);
    let amp_at = |off: usize| match block {
        Some(d) => d[off],
        None => {
            if b == 0 && off == 0 {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        }
    };
    match kind {
        ObsKind::Diagonal(w) => {
            let mut acc = 0.0;
            for off in 0..bs {
                let p = amp_at(off).norm_sqr();
                if p != 0.0 {
                    acc += p * w(b * bs + off);
                }
            }
            Complex64::real(acc)
        }
        ObsKind::Pauli {
            xmask,
            zmask,
            phase,
        } => {
            let mut acc = Complex64::ZERO;
            for off in 0..bs {
                let zm = amp_at(off);
                if zm == Complex64::ZERO {
                    continue;
                }
                let m = b * bs + off;
                let partner = m ^ xmask;
                let zp = snap.amplitude(partner);
                let sign = if (partner & zmask).count_ones() & 1 == 1 {
                    -1.0
                } else {
                    1.0
                };
                acc += zm.conj() * zp * *phase * sign;
            }
            acc
        }
    }
}

impl ExpectationView {
    /// A diagonal observable: `weight(j)` is O's eigenvalue on basis
    /// state `j`.
    pub fn diagonal(
        label: impl Into<String>,
        weight: impl Fn(usize) -> f64 + Send + Sync + 'static,
    ) -> ExpectationView {
        ExpectationView {
            kind: ObsKind::Diagonal(Arc::new(weight)),
            partials: Vec::new(),
            rescan: Vec::new(),
            total: Complex64::ZERO,
            label: label.into(),
        }
    }

    /// A Pauli-string observable: qubit q carries X iff bit q of
    /// `xmask`, Z iff bit q of `zmask`, Y iff both. Masks are in basis
    /// index space (bit q ↔ qubit q).
    pub fn pauli(xmask: usize, zmask: usize) -> ExpectationView {
        // P = i^{|Y|} · X^x Z^z is Hermitian with this prefactor.
        let phase = match (xmask & zmask).count_ones() % 4 {
            0 => Complex64::ONE,
            1 => Complex64::I,
            2 => c64(-1.0, 0.0),
            _ => c64(0.0, -1.0),
        };
        ExpectationView {
            label: format!("pauli[x={xmask:#x},z={zmask:#x}]"),
            kind: ObsKind::Pauli {
                xmask,
                zmask,
                phase,
            },
            partials: Vec::new(),
            rescan: Vec::new(),
            total: Complex64::ZERO,
        }
    }
}

impl View for ExpectationView {
    fn label(&self) -> &str {
        &self.label
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        let nb = snap.geometry().num_blocks();
        self.partials.clear();
        self.partials.resize(nb, Complex64::ZERO);
        self.total = Complex64::ZERO;
        for b in 0..nb {
            let p = expectation_partial(&self.kind, snap, b);
            self.partials[b] = p;
            self.total += p;
        }
    }

    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats {
        // Support closure: block b's partial reads block b ^ xhi (the
        // Pauli pairing partner), so a dirty partner invalidates b too.
        let mut rescan = std::mem::take(&mut self.rescan);
        let blocks: &[usize] = match &self.kind {
            ObsKind::Diagonal(_) => &delta.dirty,
            ObsKind::Pauli { xmask, .. } => {
                let bs = snap.geometry().block_size();
                let xhi = xmask >> bs.trailing_zeros();
                rescan.clear();
                rescan.extend(delta.dirty.iter().flat_map(|&b| [b, b ^ xhi]));
                rescan.sort_unstable();
                rescan.dedup();
                &rescan
            }
        };
        for &b in blocks {
            self.total -= self.partials[b];
            let p = expectation_partial(&self.kind, snap, b);
            self.partials[b] = p;
            self.total += p;
        }
        let blocks_scanned = blocks.len();
        self.rescan = rescan;
        PatchStats { blocks_scanned }
    }

    fn value(&self) -> ViewValue {
        ViewValue::Scalar(self.total.re)
    }
}
