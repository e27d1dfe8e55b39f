//! Precomputed fused MxV row operators.
//!
//! An MxV row applies a net's grouped superposition gates as one sparse
//! matrix–vector product. The scalar path re-derives each output row on
//! the fly: for every output amplitude it expands the factor product into
//! up to `2^g` `(source, coefficient)` terms, with `Vec` pushes per
//! amplitude. But the row structure does not depend on the full output
//! index — only on its bits at the *signature* positions (the union of
//! every factor's controls and target). [`FusedOp`] precomputes, once per
//! group change, the fused sparse row for each of the `2^s` signature
//! patterns: a flat `(source-xor, coefficient)` entry list. Execution then
//! reduces to gather-bits → slice lookup → multiply-accumulate, with zero
//! per-amplitude allocation.
//!
//! Each MxV row owns its operator ([`crate::row::Row::fused`]), built
//! serially in `update_state` for dirty rows and invalidated by the
//! modifiers that change the group (`add_dense_factor`, dense gate
//! removal). Groups whose signature exceeds [`FusedOp::MAX_SIG_BITS`]
//! decline to build and fall back to the scalar expansion.

use crate::row::DenseFactor;
use qtask_num::Complex64;

/// Scatters the low bits of `k` over the set bits of `mask`
/// (the inverse of [`gather_bits`]).
fn scatter_bits(mut k: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    while mask != 0 && k != 0 {
        let bit = mask & mask.wrapping_neg();
        if k & 1 != 0 {
            out |= bit;
        }
        k >>= 1;
        mask &= mask - 1;
    }
    out
}

/// Compresses the bits of `i` at the set positions of `mask` into a dense
/// low-bit pattern id.
#[inline]
fn gather_bits(i: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    let mut bit = 0u32;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        if i & low != 0 {
            out |= 1u64 << bit;
        }
        bit += 1;
        mask &= mask - 1;
    }
    out
}

/// The fused sparse-row representation of one MxV factor group.
pub struct FusedOp {
    /// Bit positions the row structure depends on: union of all factor
    /// controls and targets.
    sig_mask: u64,
    /// Per-pattern entry ranges into `entries`; length `2^s + 1`.
    offsets: Vec<u32>,
    /// Flat `(source-xor, coefficient)` entries. The xor is a subset of
    /// the factors' target bits, so `src = i ^ xor`.
    entries: Vec<(u64, Complex64)>,
}

impl FusedOp {
    /// Signature width cap: beyond this the pattern table (`2^s` rows)
    /// stops paying for itself and the scalar expansion takes over.
    pub const MAX_SIG_BITS: u32 = 16;

    /// Builds the fused operator for a factor list, or `None` when the
    /// signature is too wide. The expansion per pattern replicates the
    /// scalar path exactly (same factor order, same multiply nesting), so
    /// fused execution is bit-identical to on-the-fly derivation.
    pub fn build(factors: &[DenseFactor]) -> Option<FusedOp> {
        let mut sig_mask = 0u64;
        for f in factors {
            sig_mask |= f.controls | (1u64 << f.target);
        }
        let s = sig_mask.count_ones();
        if s > Self::MAX_SIG_BITS {
            return None;
        }
        let num_patterns = 1usize << s;
        let tol = qtask_gates::class::CLASSIFY_TOL;
        let mut offsets = Vec::with_capacity(num_patterns + 1);
        let mut entries: Vec<(u64, Complex64)> = Vec::with_capacity(num_patterns);
        let mut contrib: Vec<(u64, Complex64)> = Vec::with_capacity(8);
        let mut next: Vec<(u64, Complex64)> = Vec::with_capacity(8);
        offsets.push(0);
        for p in 0..num_patterns {
            let i = scatter_bits(p as u64, sig_mask);
            contrib.clear();
            contrib.push((i, Complex64::ONE));
            for f in factors {
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
            entries.extend(contrib.iter().map(|&(src, coef)| (src ^ i, coef)));
            offsets.push(entries.len() as u32);
        }
        Some(FusedOp {
            sig_mask,
            offsets,
            entries,
        })
    }

    /// The fused sparse row of output amplitude `i`: its
    /// `(source-xor, coefficient)` entries. Allocation-free.
    #[inline]
    pub fn row_of(&self, i: u64) -> &[(u64, Complex64)] {
        let p = gather_bits(i, self.sig_mask) as usize;
        &self.entries[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// The signature bit positions (union of factor controls and targets).
    /// The executor uses this to detect block-uniform rows: when no
    /// signature bit lies inside a block, one fused row covers the block.
    #[inline]
    pub fn sig_mask(&self) -> u64 {
        self.sig_mask
    }

    /// Total entries across all patterns (diagnostics).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtask_circuit::GateId;
    use qtask_gates::GateKind;
    use qtask_num::Mat2;

    fn factor(controls: u64, target: u8, mat: Mat2) -> DenseFactor {
        DenseFactor {
            gate: GateId::DANGLING,
            controls,
            target,
            mat,
        }
    }

    /// Scalar on-the-fly expansion of one output row (mirrors the exec
    /// scalar path) — the differential oracle for the fused build.
    fn scalar_row(factors: &[DenseFactor], i: u64) -> Vec<(u64, Complex64)> {
        let tol = qtask_gates::class::CLASSIFY_TOL;
        let mut contrib = vec![(i, Complex64::ONE)];
        for f in factors {
            if i & f.controls != f.controls {
                continue;
            }
            let tbit = 1u64 << f.target;
            let out_bit = usize::from(i & tbit != 0);
            let mut next = Vec::new();
            for &(src, coef) in &contrib {
                for (in_bit, m) in [(0usize, f.mat.at(out_bit, 0)), (1, f.mat.at(out_bit, 1))] {
                    if m.is_zero(tol) {
                        continue;
                    }
                    let nsrc = if in_bit == 0 { src & !tbit } else { src | tbit };
                    next.push((nsrc, coef * m));
                }
            }
            contrib = next;
        }
        contrib
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let mask = 0b1011_0100u64;
        for k in 0..16u64 {
            let spread = scatter_bits(k, mask);
            assert_eq!(spread & !mask, 0);
            assert_eq!(gather_bits(spread, mask), k);
        }
    }

    #[test]
    fn fused_rows_match_scalar_expansion() {
        let h = GateKind::H.base_matrix().unwrap();
        let u = GateKind::U3(0.3, 0.8, 1.1).base_matrix().unwrap();
        let cases: Vec<Vec<DenseFactor>> = vec![
            vec![factor(0, 2, h)],
            vec![factor(0, 1, h), factor(0, 4, u)],
            vec![factor(1 << 3, 0, h), factor(0, 5, u)],
            vec![factor(1 << 0, 2, h), factor(1 << 2, 4, u), factor(0, 6, h)],
        ];
        for factors in cases {
            let fused = FusedOp::build(&factors).expect("small signature");
            for i in 0..(1u64 << 7) {
                let want = scalar_row(&factors, i);
                let got: Vec<(u64, Complex64)> = fused
                    .row_of(i)
                    .iter()
                    .map(|&(xor, coef)| (i ^ xor, coef))
                    .collect();
                assert_eq!(got.len(), want.len(), "i={i}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "i={i}");
                    // Bit-identical: same multiply sequence at build time.
                    assert_eq!(g.1, w.1, "i={i}");
                }
            }
        }
    }

    #[test]
    fn too_wide_signature_declines() {
        let h = GateKind::H.base_matrix().unwrap();
        let wide = ((1u64 << 40) - 1) & !(1 << 2);
        assert!(FusedOp::build(&[factor(wide, 2, h)]).is_none());
    }
}
