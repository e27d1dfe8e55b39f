//! Partition derivation: tasks of one grain of items, merged by block
//! overlap.
//!
//! Paper §III-C, reverse-engineered from Figures 4, 5 and 9 (the worked
//! G6–G10 examples are unit tests below): items are chunked into tasks of
//! [`BlockGeometry::grain`] consecutive items (the paper chunks by the
//! block size; the two agree in the Figure 4 setup, and the grain only
//! grows past the block on larger states); a task's memory region is
//! `[low(first), high(last)]`; consecutive tasks whose regions share a
//! block merge into one partition, whose tasks later run as the parallel
//! chunks of one retained-graph node (the paper's intra-gate subflow).
//!
//! A region may include blocks none of its items touch. Distinct tasks
//! of one partition still touch disjoint block sets: a task is an aligned
//! power-of-two run of item ranks no smaller than a block, so two items
//! of different tasks differ in a free index bit at or above the block
//! width, which the partner transform never changes.

use crate::geometry::BlockGeometry;
use crate::pattern::ItemPattern;

/// One partition: a group of consecutive data blocks plus the item-rank
/// range it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// First covered block (inclusive).
    pub block_lo: u32,
    /// Last covered block (inclusive).
    pub block_hi: u32,
    /// First item rank (inclusive).
    pub item_start: u64,
    /// One past the last item rank.
    pub item_end: u64,
}

impl PartitionSpec {
    /// Number of blocks spanned.
    pub fn num_blocks(&self) -> u32 {
        self.block_hi - self.block_lo + 1
    }

    /// Number of items.
    pub fn num_items(&self) -> u64 {
        self.item_end - self.item_start
    }

    /// Number of intra-partition tasks for a given chunk size.
    pub fn num_tasks(&self, chunk: u64) -> u64 {
        self.num_items().div_ceil(chunk)
    }

    /// Item-rank sub-ranges of the intra-partition tasks.
    pub fn task_ranges(&self, chunk: u64) -> impl Iterator<Item = std::ops::Range<u64>> + '_ {
        let (start, end) = (self.item_start, self.item_end);
        (0..self.num_tasks(chunk)).map(move |t| {
            let s = start + t * chunk;
            s..(s + chunk).min(end)
        })
    }

    /// True if this partition's block range intersects another's.
    pub fn blocks_intersect(&self, other: &PartitionSpec) -> bool {
        self.block_lo <= other.block_hi && other.block_lo <= self.block_hi
    }
}

/// Derives the partitions of a linear op's touched-item pattern.
///
/// Tasks are chunks of `geom.grain()` consecutive items; consecutive
/// tasks merge when their regions overlap in block space. The result is
/// ordered and block-disjoint.
pub fn derive_partitions(pattern: &ItemPattern, geom: &BlockGeometry) -> Vec<PartitionSpec> {
    let chunk = geom.grain() as u64;
    let total = pattern.num_items();
    let num_tasks = total.div_ceil(chunk);
    let mut out: Vec<PartitionSpec> = Vec::new();
    for t in 0..num_tasks {
        let start = t * chunk;
        let end = ((t + 1) * chunk).min(total);
        let lo_idx = pattern.nth_low(start);
        let hi_idx = pattern.nth_max_index(end - 1);
        let blk_lo = geom.block_of(lo_idx as usize) as u32;
        let blk_hi = geom.block_of(hi_idx as usize) as u32;
        match out.last_mut() {
            Some(last) if blk_lo <= last.block_hi => {
                // Overlapping memory regions: same partition (intra-gate
                // parallelism inside it).
                last.block_hi = last.block_hi.max(blk_hi);
                last.item_end = end;
            }
            _ => out.push(PartitionSpec {
                block_lo: blk_lo,
                block_hi: blk_hi,
                item_start: start,
                item_end: end,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::LinearOp;
    use qtask_num::Complex64;

    fn cnot(control: u8, target: u8) -> LinearOp {
        LinearOp::AntiDiag {
            controls: 1u64 << control,
            target,
            a01: Complex64::ONE,
            a10: Complex64::ONE,
        }
    }

    fn blocks(parts: &[PartitionSpec]) -> Vec<(u32, u32)> {
        parts.iter().map(|p| (p.block_lo, p.block_hi)).collect()
    }

    /// The Figure 4/5 worked examples: 5 qubits, block size 4.
    #[test]
    fn paper_figure5_examples() {
        let geom = BlockGeometry::new(5, 4);
        // G6 = CNOT(control q4, target q3): one partition over blocks 4..7
        // with two intra-partition tasks ([16,27] and [20,31]).
        let g6 = derive_partitions(&cnot(4, 3).pattern(5), &geom);
        assert_eq!(blocks(&g6), vec![(4, 7)]);
        assert_eq!(g6[0].num_tasks(4), 2);
        let tasks: Vec<_> = g6[0].task_ranges(4).collect();
        assert_eq!(tasks, vec![0..4, 4..8]);
        // G7 = CNOT(q4, q1): two partitions [16,23], [24,31].
        let g7 = derive_partitions(&cnot(4, 1).pattern(5), &geom);
        assert_eq!(blocks(&g7), vec![(4, 5), (6, 7)]);
        assert!(g7.iter().all(|p| p.num_tasks(4) == 1));
        // G8 = CNOT(q3, q2): partitions over blocks {2,3} and {6,7}.
        let g8 = derive_partitions(&cnot(3, 2).pattern(5), &geom);
        assert_eq!(blocks(&g8), vec![(2, 3), (6, 7)]);
        // G9 = CNOT(q2, q0): partitions over blocks {1,2,3} and {5,6,7}
        // ("two partitions each spanning three consecutive data blocks").
        let g9 = derive_partitions(&cnot(2, 0).pattern(5), &geom);
        assert_eq!(blocks(&g9), vec![(1, 3), (5, 7)]);
        // G10 = CNOT(q2, q1): same spans as Figure 9's table.
        let g10 = derive_partitions(&cnot(2, 1).pattern(5), &geom);
        assert_eq!(blocks(&g10), vec![(1, 3), (5, 7)]);
    }

    #[test]
    fn diagonal_partitions_are_single_blocks() {
        // Z q2 on 5 qubits, B=4: touched = blocks {1},{3},{5},{7}.
        let geom = BlockGeometry::new(5, 4);
        let op = LinearOp::Diag {
            controls: 0,
            target: 2,
            d0: Complex64::ONE,
            d1: -Complex64::ONE,
        };
        let parts = derive_partitions(&op.pattern(5), &geom);
        assert_eq!(blocks(&parts), vec![(1, 1), (3, 3), (5, 5), (7, 7)]);
        // RZ q2 (touches all): every block its own partition.
        let op = LinearOp::Diag {
            controls: 0,
            target: 2,
            d0: Complex64::exp_i(-0.1),
            d1: Complex64::exp_i(0.1),
        };
        let parts = derive_partitions(&op.pattern(5), &geom);
        assert_eq!(parts.len(), 8);
        assert!(parts.iter().all(|p| p.num_blocks() == 1));
    }

    #[test]
    fn single_block_geometry_single_partition() {
        let geom = BlockGeometry::new(5, 256); // clamps to 32: one block
        let parts = derive_partitions(&cnot(4, 3).pattern(5), &geom);
        assert_eq!(blocks(&parts), vec![(0, 0)]);
        assert_eq!(parts[0].num_items(), 8);
    }

    #[test]
    fn high_target_bit_merges_everything() {
        // X on the MSB: pairs span half the vector; the first task's
        // region covers blocks [0, mid] and the next starts inside it, so
        // everything merges into one partition of grain-sized tasks.
        let geom = BlockGeometry::new(6, 4);
        assert_eq!(geom.grain(), 8);
        let op = LinearOp::AntiDiag {
            controls: 0,
            target: 5,
            a01: Complex64::ONE,
            a10: Complex64::ONE,
        };
        let parts = derive_partitions(&op.pattern(6), &geom);
        assert_eq!(parts.len(), 1);
        assert_eq!((parts[0].block_lo, parts[0].block_hi), (0, 15));
        assert_eq!(parts[0].num_items(), 32);
        assert_eq!(parts[0].num_tasks(8), 4);
    }

    #[test]
    fn low_target_bit_gives_max_parallelism() {
        // X on qubit 0: pairs are block-local and tasks don't overlap, so
        // every task is its own partition. At grain == block (5 qubits,
        // B=4) a task of 4 pairs covers 8 amplitudes = 2 blocks; at
        // 6 qubits the grain is 8 pairs = 16 amplitudes = 4 blocks, and
        // the vector splits into 4 independent single-task partitions.
        let op = LinearOp::AntiDiag {
            controls: 0,
            target: 0,
            a01: Complex64::ONE,
            a10: Complex64::ONE,
        };
        for (n, parts_len, span, items) in [(5u8, 4usize, 2u32, 4u64), (6, 4, 4, 8)] {
            let geom = BlockGeometry::new(n, 4);
            let parts = derive_partitions(&op.pattern(n), &geom);
            assert_eq!(parts.len(), parts_len, "{n} qubits");
            assert!(parts.iter().all(|p| p.num_blocks() == span
                && p.num_items() == items
                && p.num_tasks(geom.grain() as u64) == 1));
        }
    }

    /// A random linear op on `n >= 2` qubits: diagonal, anti-diagonal or
    /// swap, with random controls.
    fn random_op(rng: &mut rand::rngs::StdRng, n: u8) -> LinearOp {
        use rand::prelude::*;
        let target = rng.random_range(0..n);
        let other = (target + rng.random_range(1..n)) % n;
        let mut controls = 0u64;
        for q in 0..n {
            if q != target && q != other && rng.random_bool(0.2) {
                controls |= 1 << q;
            }
        }
        match rng.random_range(0..4u32) {
            0 => LinearOp::Swap {
                controls,
                t_lo: target.min(other),
                t_hi: target.max(other),
            },
            1 => LinearOp::Diag {
                controls,
                target,
                d0: Complex64::exp_i(0.3),
                d1: -Complex64::ONE,
            },
            2 => LinearOp::Diag {
                controls,
                target,
                d0: Complex64::ONE,
                d1: -Complex64::ONE,
            },
            _ => LinearOp::AntiDiag {
                controls,
                target,
                a01: Complex64::ONE,
                a10: Complex64::ONE,
            },
        }
    }

    /// The partition invariants the engine relies on: item ranges tile,
    /// spans are ordered and disjoint, every touched index lies in its
    /// span, and the grain-sized tasks of one partition touch pairwise
    /// disjoint block sets (the lock-free per-block publish in the
    /// engine's executor depends on it).
    fn assert_partition_invariants(pattern: &ItemPattern, geom: &BlockGeometry) {
        let parts = derive_partitions(pattern, geom);
        // 1. Item ranges tile 0..num_items exactly.
        let mut next = 0u64;
        for p in &parts {
            assert_eq!(p.item_start, next);
            assert!(p.item_end > p.item_start);
            next = p.item_end;
        }
        assert_eq!(next, pattern.num_items());
        // 2. Block ranges are ordered and disjoint.
        for w in parts.windows(2) {
            assert!(w[0].block_hi < w[1].block_lo, "{:?}", blocks(&parts));
        }
        for p in &parts {
            let mut claimed = std::collections::HashMap::new();
            for (task, ranks) in p.task_ranges(geom.grain() as u64).enumerate() {
                for low in pattern.iter_lows(ranks) {
                    for idx in [low, pattern.partner(low)] {
                        let b = geom.block_of(idx as usize) as u32;
                        // 3. Every touched index lies inside its span.
                        assert!(p.block_lo <= b && b <= p.block_hi);
                        // 4. No block is touched by two tasks.
                        let owner = *claimed.entry(b).or_insert(task);
                        assert_eq!(owner, task, "block {b} shared by tasks {owner} and {task}");
                    }
                }
            }
        }
    }

    /// Random ops over geometries at and above grain == block. The
    /// grain > block cases must include real multi-task fans, or the
    /// disjointness check would test nothing.
    #[test]
    fn properties_on_random_ops() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let mut multi_task = 0;
        for _ in 0..2000 {
            let n = rng.random_range(2..=12u8);
            let block: usize = 1 << rng.random_range(0..=6u32);
            let geom = BlockGeometry::new(n, block);
            let pattern = random_op(&mut rng, n).pattern(n);
            assert_partition_invariants(&pattern, &geom);
            let chunk = geom.grain() as u64;
            if geom.grain() > geom.block_size() {
                multi_task += derive_partitions(&pattern, &geom)
                    .iter()
                    .filter(|p| p.num_tasks(chunk) > 1)
                    .count();
            }
        }
        assert!(multi_task >= 30, "{multi_task}");
    }
}
