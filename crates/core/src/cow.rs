//! Copy-on-write blocks (paper §III-F3).
//!
//! Every row stands for a logical full state vector — the state after its
//! gate — but physically owns at most the blocks its gate touched; every
//! other block is logically the same block one row earlier. The owned
//! blocks live in the owner index ([`crate::owners::OwnerIndex`]), which
//! resolves a read to the nearest earlier owner in one binary search,
//! bottoming out at the implicit |0…0⟩ initial state — which is never
//! materialized, so an untouched 26-qubit block costs nothing.
//!
//! Not every owned block keeps its buffer: within a run, a transient
//! row hands it on to the block's next writer when that writer reads
//! only the blocks it writes — a linear row, or an MxV row whose every
//! target lies below the block width — which rewrites it in place, and
//! the row's entry is *evicted*. Checkpoints (every
//! ⌈√n⌉-th of the n rows run together) and each block's last two writers
//! keep theirs, so a full simulation holds O(√n) states, not n. An
//! evicted block is recomputed from the nearest held entry only when
//! read. This module holds the block buffer type and the resolution
//! result.

use qtask_num::Complex64;
use std::sync::Arc;

/// A block's worth of amplitudes, shared between rows until rewritten.
///
/// `Arc<Vec<…>>` rather than `Arc<[…]>`: publishing a freshly computed
/// buffer is then a pointer move instead of a second 4 KiB copy, and a
/// uniquely held block can be taken — by the next writer of a transient
/// row's block ([`crate::OwnerIndex::take_input`]), or back by its own
/// row when its partition re-executes ([`crate::OwnerIndex::take_own`])
/// — and rewritten in place without allocating.
pub type BlockData = Arc<Vec<Complex64>>;

/// The resolution result for one block.
pub enum Resolved {
    /// A materialized block.
    Data(BlockData),
    /// The implicit |0…0⟩ initial state: amplitude 1 at global index 0,
    /// zero elsewhere.
    Initial,
}

impl Resolved {
    /// Reads the amplitude at in-block `offset`, given the block index.
    #[inline]
    pub fn read(&self, block: usize, offset: usize) -> Complex64 {
        match self {
            Resolved::Data(d) => d[offset],
            Resolved::Initial => {
                if block == 0 && offset == 0 {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                }
            }
        }
    }

    /// Copies the block's contents into a fresh buffer.
    pub fn to_vec(&self, block: usize, block_size: usize) -> Vec<Complex64> {
        match self {
            Resolved::Data(d) => d.as_ref().clone(),
            Resolved::Initial => {
                let mut v = vec![Complex64::ZERO; block_size];
                if block == 0 {
                    v[0] = Complex64::ONE;
                }
                v
            }
        }
    }

    /// Copies the block's contents into an existing buffer.
    pub fn fill_into(&self, block: usize, buf: &mut [Complex64]) {
        match self {
            Resolved::Data(d) => buf.copy_from_slice(d),
            Resolved::Initial => {
                buf.fill(Complex64::ZERO);
                if block == 0 {
                    buf[0] = Complex64::ONE;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_initial_reads() {
        let r = Resolved::Initial;
        assert!(r.read(0, 0).is_one(0.0));
        assert!(r.read(0, 3).is_zero(0.0));
        assert!(r.read(5, 0).is_zero(0.0));
        let v = r.to_vec(0, 4);
        assert!(v[0].is_one(0.0));
        assert!(v[1..].iter().all(|z| z.is_zero(0.0)));
        let v = r.to_vec(3, 4);
        assert!(v.iter().all(|z| z.is_zero(0.0)));
    }
}
