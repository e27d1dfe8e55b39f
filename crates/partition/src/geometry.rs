//! Block geometry: how a `2^n` state vector divides into blocks, and how
//! many amplitudes one dispatched task covers.

/// Amplitudes one dispatched task covers at most: 4096 × 16 B = 64 KiB,
/// enough work to amortize a task's creation, linking and scheduling.
const GRAIN_MAX: usize = 4096;

/// Fewest grains a full-width row splits into, so a small state still
/// offers the pool parallel work.
const MIN_GRAINS: usize = 8;

/// The division of a state vector into equal, power-of-two-sized blocks
/// (the paper's data blocks; default size 256 amplitudes).
///
/// The block is the copy-on-write unit; the [grain](Self::grain) is the
/// dispatch unit. Both are powers of two and the grain is a whole number
/// of blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockGeometry {
    num_qubits: u8,
    /// log2 of the block size in amplitudes.
    log2_block: u8,
}

impl BlockGeometry {
    /// The one rule for a valid geometry: 1..=30 qubits and a
    /// power-of-two block size. [`BlockGeometry::new`] asserts it;
    /// callers holding untrusted input check it first.
    pub fn check(num_qubits: u8, block_size: usize) -> Result<(), String> {
        if !(1..=30).contains(&num_qubits) {
            return Err(format!("{num_qubits} qubits: supported range is 1..=30"));
        }
        if !block_size.is_power_of_two() {
            return Err(format!("block size {block_size} is not 2^k"));
        }
        Ok(())
    }

    /// Creates a geometry. Panics unless [`BlockGeometry::check`] passes.
    /// `block_size` is clamped to the state length (a small circuit gets
    /// one block, which is why the paper notes 8-qubit circuits show no
    /// task parallelism at the default 256).
    pub fn new(num_qubits: u8, block_size: usize) -> BlockGeometry {
        if let Err(why) = BlockGeometry::check(num_qubits, block_size) {
            panic!("{why}");
        }
        let state_len = 1usize << num_qubits;
        let clamped = block_size.min(state_len);
        BlockGeometry {
            num_qubits,
            log2_block: clamped.trailing_zeros() as u8,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> u8 {
        self.num_qubits
    }

    /// Amplitudes in the state vector (`2^n`).
    #[inline]
    pub fn state_len(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Amplitudes per block.
    #[inline]
    pub fn block_size(&self) -> usize {
        1usize << self.log2_block
    }

    /// Dispatch grain in amplitudes (items for a linear op):
    /// `max(block_size, min(4096, state_len / 8))`. Partitions chunk
    /// their items by it, so one task
    /// does 64 KiB of work while a full-width row still splits into at
    /// least 8 tasks. It depends on the geometry alone — never on the
    /// thread count — so graph shape and results are machine-independent.
    #[inline]
    pub fn grain(&self) -> usize {
        (self.state_len() / MIN_GRAINS)
            .min(GRAIN_MAX)
            .max(self.block_size())
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.state_len() >> self.log2_block
    }

    /// The block containing state index `idx`.
    #[inline]
    pub fn block_of(&self, idx: usize) -> usize {
        idx >> self.log2_block
    }

    /// The state-index range `[start, end)` of block `b`.
    #[inline]
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let start = b << self.log2_block;
        start..start + self.block_size()
    }

    /// Offset of `idx` within its block.
    #[inline]
    pub fn offset_in_block(&self, idx: usize) -> usize {
        idx & (self.block_size() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_geometry() {
        // 5 qubits, block size 4 — the Figure 4 setup.
        let g = BlockGeometry::new(5, 4);
        assert_eq!(g.state_len(), 32);
        assert_eq!(g.block_size(), 4);
        assert_eq!(g.num_blocks(), 8);
        assert_eq!(g.block_of(16), 4);
        assert_eq!(g.block_of(31), 7);
        assert_eq!(g.block_range(4), 16..20);
        assert_eq!(g.offset_in_block(18), 2);
    }

    #[test]
    fn clamps_block_to_state() {
        // The paper's default 256-amplitude block on an 8-qubit state is
        // exactly one block; on smaller states it clamps.
        let g = BlockGeometry::new(3, 256);
        assert_eq!(g.block_size(), 8);
        assert_eq!(g.num_blocks(), 1);
        let g = BlockGeometry::new(8, 256);
        assert_eq!(g.num_blocks(), 1);
        let g = BlockGeometry::new(10, 256);
        assert_eq!(g.num_blocks(), 4);
    }

    #[test]
    fn grain_is_64k_but_at_least_a_block_and_an_eighth_row() {
        // Figure 4 setup: 32 / 8 = 4 = block, grain == block.
        assert_eq!(BlockGeometry::new(5, 4).grain(), 4);
        // An eighth of the state, above the block.
        assert_eq!(BlockGeometry::new(10, 4).grain(), 128);
        assert_eq!(BlockGeometry::new(15, 256).grain(), 4096);
        // Capped at 64 KiB of amplitudes.
        assert_eq!(BlockGeometry::new(20, 256).grain(), 4096);
        // Never below one block, never a fraction of one.
        assert_eq!(BlockGeometry::new(20, 1 << 14).grain(), 1 << 14);
        assert_eq!(BlockGeometry::new(2, 1).grain(), 1);
        for n in 1..=20u8 {
            for log_b in 0..=n {
                let g = BlockGeometry::new(n, 1 << log_b);
                assert!(g.grain().is_power_of_two());
                assert_eq!(g.grain() % g.block_size(), 0);
                assert!(g.grain() <= g.state_len());
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = BlockGeometry::new(5, 3);
    }

    #[test]
    fn block_one_amplitude() {
        let g = BlockGeometry::new(4, 1);
        assert_eq!(g.num_blocks(), 16);
        assert_eq!(g.block_of(7), 7);
        assert_eq!(g.block_range(7), 7..8);
    }
}
