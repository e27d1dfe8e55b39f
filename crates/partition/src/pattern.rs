//! Ordered enumeration of the state indices a linear gate op touches.
//!
//! A non-superposition gate touches a regular, periodic set of indices:
//! those whose control bits are 1 (and, for pair ops, whose target bit is
//! 0 — the pair's low half). The k-th touched low index is obtained by
//! scattering the bits of `k` into the *free* bit positions; serial
//! iteration uses the ascending-submask trick `s = (s - m) & m`. This is
//! the machinery behind the paper's "the memory region of a block can be
//! quickly decided by replacing the x's with the binary string of a
//! multiple of B" and its symmetry observation.

/// The touched-index pattern of a linear gate operation.
///
/// Low indices are `base | scatter(k, free_mask)` for `k` in
/// `0..num_items()`; for pair items the high partner is
/// `(low & !partner_clear) | partner_set`. Single-index items have both
/// partner masks zero (partner == low).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItemPattern {
    /// Bits forced to 1 in every low index (controls, and fixed target bits).
    pub base: u64,
    /// Bits that enumerate freely.
    pub free_mask: u64,
    /// Bits cleared to obtain the partner index.
    pub partner_clear: u64,
    /// Bits set to obtain the partner index.
    pub partner_set: u64,
}

impl ItemPattern {
    /// Number of touched items (`2^popcount(free_mask)`).
    #[inline]
    pub fn num_items(&self) -> u64 {
        1u64 << self.free_mask.count_ones()
    }

    /// True if items are pairs (anti-diagonal / swap ops).
    #[inline]
    pub fn is_pair(&self) -> bool {
        self.partner_clear != 0 || self.partner_set != 0
    }

    /// The k-th low index, by scattering `k`'s bits over `free_mask`.
    pub fn nth_low(&self, k: u64) -> u64 {
        debug_assert!(k < self.num_items());
        let mut result = self.base;
        let mut mask = self.free_mask;
        let mut k = k;
        while mask != 0 && k != 0 {
            let bit = mask & mask.wrapping_neg(); // lowest set bit
            if k & 1 != 0 {
                result |= bit;
            }
            k >>= 1;
            mask &= mask - 1;
        }
        result
    }

    /// The partner (high) index of a low index. Equals `low` for
    /// single-index items.
    #[inline]
    pub fn partner(&self, low: u64) -> u64 {
        (low & !self.partner_clear) | self.partner_set
    }

    /// True if some item touches block `b` of `2^log2_block` amplitudes,
    /// through its low index or its partner. O(1): a block is touched
    /// when its index bits at or above the block width match the fixed
    /// (non-free) bits of the low index or of the partner there — every
    /// bit below the block width can be chosen freely inside the block.
    #[inline]
    pub fn touches_block(&self, b: u64, log2_block: u32) -> bool {
        let fixed_above = !self.free_mask & (u64::MAX << log2_block);
        let start = b << log2_block;
        (start ^ self.base) & fixed_above == 0
            || (start ^ self.partner(self.base)) & fixed_above == 0
    }

    /// Largest state index the item of rank `k` touches.
    #[inline]
    pub fn nth_max_index(&self, k: u64) -> u64 {
        let low = self.nth_low(k);
        self.partner(low).max(low)
    }

    /// log2 of the maximal run length: the number of free bits forming a
    /// contiguous span at bit 0. Within an aligned chunk of `2^r` ranks the
    /// scattered bits land in positions `0..r`, so consecutive ranks map to
    /// *consecutive* low indices — a run the batched kernels process as one
    /// slice. Zero means every run is a single item (the scalar case).
    #[inline]
    pub fn run_len_log2(&self) -> u32 {
        self.free_mask.trailing_ones()
    }

    /// Decomposes the rank range into maximal contiguous low-index runs.
    ///
    /// Each yielded [`Run`] satisfies `nth_low(rank_start + j) ==
    /// low_start + j` for `j < len`; for pair patterns the partners are
    /// `partner(low_start) + j` (the partner masks only touch bits at or
    /// above [`Self::run_len_log2`], so both sides advance in lockstep).
    /// O(1) per run after one [`Self::nth_low`] for the first.
    pub fn iter_runs(&self, ranks: std::ops::Range<u64>) -> RunIter {
        let span = 1u64 << self.run_len_log2();
        let above = self.free_mask & !(span - 1);
        let end = ranks.end.max(ranks.start);
        RunIter {
            base: self.base,
            above,
            cursor: if ranks.start < end {
                self.nth_low(ranks.start) & above
            } else {
                0
            },
            rank: ranks.start,
            end,
            span,
        }
    }

    /// Iterates the low indices of items `ranks.start..ranks.end` in
    /// order, O(1) per step.
    pub fn iter_lows(&self, ranks: std::ops::Range<u64>) -> LowIter {
        let cur = if ranks.start < ranks.end {
            self.nth_low(ranks.start) & self.free_mask
        } else {
            0
        };
        LowIter {
            pattern: *self,
            scatter: cur,
            remaining: ranks.end - ranks.start.min(ranks.end),
        }
    }
}

/// Serial iterator over touched low indices.
pub struct LowIter {
    pattern: ItemPattern,
    /// Current scattered value (submask of `free_mask`).
    scatter: u64,
    remaining: u64,
}

impl Iterator for LowIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let low = self.pattern.base | self.scatter;
        // Ascending submask enumeration: next = (cur - mask) & mask.
        self.scatter = self.scatter.wrapping_sub(self.pattern.free_mask) & self.pattern.free_mask;
        Some(low)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for LowIter {}

/// One contiguous run of a pattern: `len` consecutive ranks mapping to
/// `len` consecutive low indices starting at `low_start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// First item rank of the run.
    pub rank_start: u64,
    /// Number of items (consecutive ranks and consecutive lows).
    pub len: u64,
    /// Low index of the first item.
    pub low_start: u64,
}

/// Iterator over the maximal contiguous runs of a rank range
/// ([`ItemPattern::iter_runs`]). A clipped first/last run is simply
/// shorter; interior runs have the full `2^run_len_log2` length.
pub struct RunIter {
    base: u64,
    /// The free bits above the run span, which the run starts enumerate.
    above: u64,
    /// The current run's bits in `above` (a submask of it).
    cursor: u64,
    rank: u64,
    end: u64,
    span: u64,
}

impl Iterator for RunIter {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        if self.rank >= self.end {
            return None;
        }
        let rank_start = self.rank;
        // Runs break at aligned multiples of the span: the carry out of
        // the contiguous low free bits lands in a non-adjacent position,
        // the next submask of `above`.
        let offset = rank_start & (self.span - 1);
        let len = (self.span - offset).min(self.end - rank_start);
        let low_start = self.base | self.cursor | offset;
        self.rank = rank_start + len;
        self.cursor = self.cursor.wrapping_sub(self.above) & self.above;
        Some(Run {
            rank_start,
            len,
            low_start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force_lows(p: &ItemPattern, n_qubits: u8) -> Vec<u64> {
        // All indices matching base on non-free bits, ascending.
        let all = 1u64 << n_qubits;
        (0..all).filter(|i| i & !p.free_mask == p.base).collect()
    }

    fn pattern(base: u64, free: u64, clear: u64, set: u64) -> ItemPattern {
        ItemPattern {
            base,
            free_mask: free,
            partner_clear: clear,
            partner_set: set,
        }
    }

    #[test]
    fn g6_pattern_matches_paper() {
        // G6: CNOT control q4, target q3 on 5 qubits. Lows: 10xxx.
        let p = pattern(0b10000, 0b00111, 0, 0b01000);
        assert_eq!(p.num_items(), 8);
        let lows: Vec<u64> = p.iter_lows(0..8).collect();
        assert_eq!(lows, vec![16, 17, 18, 19, 20, 21, 22, 23]);
        assert_eq!(p.partner(16), 24);
        assert_eq!(p.partner(23), 31);
        assert!(p.is_pair());
    }

    #[test]
    fn nth_low_matches_brute_force() {
        for (base, free) in [
            (0b10000u64, 0b00111u64),
            (0b00100, 0b11011),
            (0, 0b11111),
            (0b01010, 0b00101),
            (0b11111, 0),
        ] {
            let p = pattern(base, free, 0, 0);
            let brute = brute_force_lows(&p, 5);
            assert_eq!(p.num_items(), brute.len() as u64);
            for (k, want) in brute.iter().enumerate() {
                assert_eq!(
                    p.nth_low(k as u64),
                    *want,
                    "base={base:b} free={free:b} k={k}"
                );
            }
            let iterated: Vec<u64> = p.iter_lows(0..p.num_items()).collect();
            assert_eq!(iterated, brute);
        }
    }

    #[test]
    fn iter_subrange() {
        let p = pattern(0b100, 0b11011, 0, 0);
        let all: Vec<u64> = p.iter_lows(0..p.num_items()).collect();
        let sub: Vec<u64> = p.iter_lows(3..9).collect();
        assert_eq!(sub, all[3..9].to_vec());
        assert_eq!(p.iter_lows(5..5).count(), 0);
    }

    #[test]
    fn swap_partner() {
        // SWAP(q1, q3): low has q1=1, q3=0; partner flips both.
        let p = pattern(0b00010, 0b10101, 0b00010, 0b01000);
        let lows: Vec<u64> = p.iter_lows(0..p.num_items()).collect();
        assert_eq!(lows, vec![2, 3, 6, 7, 18, 19, 22, 23]);
        assert_eq!(p.partner(2), 8);
        assert_eq!(p.partner(7), 13);
        // Partner order is monotone in low.
        let partners: Vec<u64> = lows.iter().map(|&l| p.partner(l)).collect();
        let mut sorted = partners.clone();
        sorted.sort_unstable();
        assert_eq!(partners, sorted);
    }

    #[test]
    fn fully_controlled_single_item() {
        let p = pattern(0b111, 0, 0, 0);
        assert_eq!(p.num_items(), 1);
        assert_eq!(p.nth_low(0), 0b111);
        assert_eq!(p.iter_lows(0..1).collect::<Vec<_>>(), vec![0b111]);
    }

    #[test]
    fn max_index() {
        let p = pattern(0b10000, 0b00111, 0, 0b01000);
        assert_eq!(p.nth_max_index(0), 24);
        assert_eq!(p.nth_max_index(7), 31);
    }

    #[test]
    fn runs_cover_lows_exactly() {
        // free bits {0,1,2, 4} -> runs of 8 consecutive lows.
        let p = pattern(0b0100_0000, 0b0001_0111, 0, 0);
        assert_eq!(p.run_len_log2(), 3);
        let runs: Vec<Run> = p.iter_runs(0..p.num_items()).collect();
        assert_eq!(runs.len(), 2);
        for run in &runs {
            for j in 0..run.len {
                assert_eq!(p.nth_low(run.rank_start + j), run.low_start + j);
            }
        }
        // Clipped sub-range: first and last runs shorten, interior intact.
        let sub: Vec<Run> = p.iter_runs(3..14).collect();
        assert_eq!(
            sub.iter()
                .map(|r| (r.rank_start, r.len))
                .collect::<Vec<_>>(),
            vec![(3, 5), (8, 6)]
        );
        for run in &sub {
            for j in 0..run.len {
                assert_eq!(p.nth_low(run.rank_start + j), run.low_start + j);
            }
        }
    }

    #[test]
    fn runs_degenerate_to_items_when_bit0_not_free() {
        let p = pattern(0b001, 0b110, 0, 0);
        assert_eq!(p.run_len_log2(), 0);
        let runs: Vec<Run> = p.iter_runs(0..p.num_items()).collect();
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|r| r.len == 1));
    }

    #[test]
    fn run_partners_advance_in_lockstep() {
        // CNOT-style pair pattern: target bit above the contiguous span.
        let p = pattern(0b100000, 0b000111, 0, 0b001000);
        for run in p.iter_runs(0..p.num_items()) {
            let base = p.partner(run.low_start);
            for j in 0..run.len {
                assert_eq!(p.partner(run.low_start + j), base + j);
            }
        }
    }

    #[test]
    fn random_runs_against_iter_lows() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.random_range(1..=12u8);
            let universe = (1u64 << n) - 1;
            let free = rng.random::<u64>() & universe;
            let base = rng.random::<u64>() & universe & !free;
            let p = pattern(base, free, 0, 0);
            let total = p.num_items();
            let a = rng.random_range(0..=total);
            let b = rng.random_range(0..=total);
            let (start, end) = (a.min(b), a.max(b));
            let from_runs: Vec<u64> = p
                .iter_runs(start..end)
                .flat_map(|r| (0..r.len).map(move |j| r.low_start + j))
                .collect();
            let from_iter: Vec<u64> = p.iter_lows(start..end).collect();
            assert_eq!(from_runs, from_iter, "base={base:b} free={free:b}");
        }
    }

    #[test]
    fn touches_block_matches_enumeration() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let n = rng.random_range(2..=10u8);
            let universe = (1u64 << n) - 1;
            let hi_bit = 1u64 << rng.random_range(0..n);
            let lo_bit = 1u64 << rng.random_range(0..n);
            let free = rng.random::<u64>() & universe & !hi_bit & !lo_bit;
            let base = rng.random::<u64>() & universe & !free & !hi_bit;
            // Diagonal, anti-diagonal or swap: the partner flips fixed bits.
            let p = match rng.random_range(0..3u32) {
                0 => pattern(base, free, 0, 0),
                2 if lo_bit != hi_bit => pattern(base | lo_bit, free, lo_bit, hi_bit),
                _ => pattern(base, free, 0, hi_bit),
            };
            for log2_block in 0..=u32::from(n) {
                let mut touched = std::collections::BTreeSet::new();
                for low in p.iter_lows(0..p.num_items()) {
                    touched.insert(low >> log2_block);
                    touched.insert(p.partner(low) >> log2_block);
                }
                for b in 0..1u64 << (u32::from(n) - log2_block) {
                    assert_eq!(
                        p.touches_block(b, log2_block),
                        touched.contains(&b),
                        "{p:?}, block {b} of 2^{log2_block}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_patterns_against_brute_force() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let n = rng.random_range(1..=10u8);
            let universe = (1u64 << n) - 1;
            let base = rng.random::<u64>() & universe;
            let free = rng.random::<u64>() & universe & !base;
            let base = base & !free;
            let p = pattern(base, free, 0, 0);
            let brute = brute_force_lows(&p, n);
            let got: Vec<u64> = p.iter_lows(0..p.num_items()).collect();
            assert_eq!(got, brute);
            if !brute.is_empty() {
                let k = rng.random_range(0..brute.len() as u64);
                assert_eq!(p.nth_low(k), brute[k as usize]);
            }
        }
    }
}
