//! Immutable, versioned state snapshots: the reader half of the engine's
//! MVCC-style reader/writer split.
//!
//! Every [`crate::Ckt::update_state`] publishes a [`StateSnapshot`] of
//! the freshly resolved state.
//! A snapshot is a cheap handle (`Arc` clone) over the per-block
//! [`crate::cow::BlockData`] buffers that were current at capture time;
//! it is
//! `Send + Sync`, so any number of threads can query version *v* while
//! the owning thread edits the circuit and builds version *v+1*.
//!
//! # Isolation
//!
//! Snapshots share block buffers with the engine's copy-on-write rows —
//! no amplitude is copied at capture. Isolation falls out of the COW
//! discipline: a task rewrites a buffer in place — its own row's
//! ([`crate::OwnerIndex::take_own`]) or a transient predecessor's
//! ([`crate::OwnerIndex::take_input`]) — only when *no other holder
//! shares it*, so a buffer pinned by a live snapshot is forked, never
//! mutated, and its entry is never evicted. When nothing external holds
//! the previous snapshot, the writer steals its spine and keeps the
//! zero-allocation warm path (see `Ckt::update_state`).
//!
//! # Capture cost
//!
//! Capture is incremental: the engine re-resolves only blocks whose
//! final owner may have changed since the previous snapshot (spans of
//! executed partitions plus blocks owned by removed rows) and reuses the
//! previous snapshot's entries for the rest. The work performed is
//! surfaced in [`crate::UpdateReport::snapshot_blocks_resolved`] and
//! [`StateSnapshot::capture_report`].

use crate::delta::block_norm_sqr;
use crate::spine::Spine;
use qtask_num::Complex64;
use qtask_partition::BlockGeometry;
use std::sync::Arc;

/// Resolution work one snapshot capture performed
/// ([`StateSnapshot::capture_report`]). A capture re-resolves only the
/// blocks whose final owner may have changed since the previous
/// publication, so `blocks_resolved` prices the write set, and
/// `owner_probes / blocks_resolved` is the per-lookup cost the owner
/// index keeps flat in circuit depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// Final-state block resolutions the capture performed.
    pub blocks_resolved: u64,
    /// Owner probes those resolutions cost: one per final-state lookup,
    /// plus binary-search steps when a stale last owner forces a retry.
    pub owner_probes: u64,
}

pub(crate) struct SnapInner {
    pub(crate) version: u64,
    pub(crate) geom: BlockGeometry,
    /// Resolved final view, one slot per block; `None` is the implicit
    /// |0…0⟩ initial block (amplitude 1 at global index 0). Chunked
    /// copy-on-write ([`Spine`]): a pinned reader shares chunks with the
    /// writer's next version instead of forcing a flat O(blocks) clone.
    pub(crate) blocks: Spine,
    /// Resolution work the capture performed (incremental: only blocks
    /// dirtied since the previous snapshot are re-resolved).
    pub(crate) capture_report: QueryReport,
}

impl SnapInner {
    /// Assembles a snapshot's interior. The single choke point for
    /// snapshot publication — it carries the `snapshot/publish` fault
    /// probe.
    pub(crate) fn new(
        version: u64,
        geom: BlockGeometry,
        blocks: Spine,
        capture_report: QueryReport,
    ) -> SnapInner {
        qtask_faults::fault_point!("snapshot/publish");
        SnapInner {
            version,
            geom,
            blocks,
            capture_report,
        }
    }
}

/// An immutable view of the simulated state as of one
/// [`crate::Ckt::update_state`] publication.
///
/// Cloning is an `Arc` bump; the handle is `Send + Sync`. All query
/// methods answer from the captured version forever, regardless of later
/// circuit edits or updates — pair a snapshot with
/// [`StateSnapshot::version`] to correlate results across threads.
#[derive(Clone)]
pub struct StateSnapshot {
    pub(crate) inner: Arc<SnapInner>,
}

impl StateSnapshot {
    /// The publication sequence number (strictly increasing per engine).
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// Block geometry of the captured state.
    pub fn geometry(&self) -> BlockGeometry {
        self.inner.geom
    }

    /// Dimension of the state vector (`2^n`).
    pub fn state_len(&self) -> usize {
        self.inner.geom.state_len()
    }

    /// Resolution work performed when this snapshot was captured.
    pub fn capture_report(&self) -> QueryReport {
        self.inner.capture_report
    }

    /// Number of blocks holding materialized data (the rest are the
    /// implicit initial state — untouched blocks cost nothing here
    /// either).
    pub fn materialized_blocks(&self) -> usize {
        self.inner.blocks.iter().filter(|b| b.is_some()).count()
    }

    #[inline]
    fn read(&self, block: usize, offset: usize) -> Complex64 {
        match self.inner.blocks.get(block) {
            Some(d) => d[offset],
            None => {
                if block == 0 && offset == 0 {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                }
            }
        }
    }

    /// The amplitudes of block `b` as the engine's kernels computed them
    /// (the buffer itself, shared copy-on-write), or `None` for an
    /// implicit initial block (all zero, except amplitude 1 at global
    /// index 0 when `b == 0`). This is the bulk-read surface for
    /// delta-maintained consumers (qtask-views), which compute per-block
    /// partial aggregates from it; the scalar queries read the same
    /// values.
    pub fn raw_block(&self, b: usize) -> Option<&[Complex64]> {
        self.inner.blocks.get(b).as_deref().map(|v| v.as_slice())
    }

    /// The amplitude of basis state `idx`.
    pub fn amplitude(&self, idx: usize) -> Complex64 {
        assert!(idx < self.state_len(), "basis index out of range");
        let geom = &self.inner.geom;
        self.read(geom.block_of(idx), geom.offset_in_block(idx))
    }

    /// The probability of basis state `idx`.
    pub fn probability(&self, idx: usize) -> f64 {
        self.amplitude(idx).norm_sqr()
    }

    /// The full state vector (materializes `2^n` amplitudes).
    pub fn state(&self) -> Vec<Complex64> {
        let bs = self.inner.geom.block_size();
        let mut out = Vec::with_capacity(self.state_len());
        for (b, slot) in self.inner.blocks.iter().enumerate() {
            match slot {
                Some(d) => out.extend_from_slice(d),
                None => {
                    let start = out.len();
                    out.resize(start + bs, Complex64::ZERO);
                    if b == 0 {
                        out[0] = Complex64::ONE;
                    }
                }
            }
        }
        out
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        let bs = self.inner.geom.block_size();
        let mut out = Vec::with_capacity(self.state_len());
        for (b, slot) in self.inner.blocks.iter().enumerate() {
            match slot {
                Some(d) => out.extend(d.iter().map(|z| z.norm_sqr())),
                None => {
                    let start = out.len();
                    out.resize(start + bs, 0.0);
                    if b == 0 {
                        out[0] = 1.0;
                    }
                }
            }
        }
        out
    }

    /// Sum of squared amplitudes (≈ 1 for a consistent state).
    pub fn norm_sqr(&self) -> f64 {
        self.inner
            .blocks
            .iter()
            .enumerate()
            .map(|(b, slot)| block_norm_sqr(b, slot.as_deref().map(Vec::as_slice)))
            .sum()
    }

    /// Draws one computational-basis measurement outcome.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> usize {
        let mut target: f64 = rng.random::<f64>();
        let bs = self.inner.geom.block_size();
        for (b, slot) in self.inner.blocks.iter().enumerate() {
            for off in 0..bs {
                let p = match slot {
                    Some(d) => d[off].norm_sqr(),
                    None => {
                        if b == 0 && off == 0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                };
                if target < p {
                    return b * bs + off;
                }
                target -= p;
            }
        }
        // Numeric slack (a norm within tolerance below 1) outlasted the
        // scan: the last outcome that can occur.
        (0..self.state_len())
            .rev()
            .find(|&i| self.probability(i) > 0.0)
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for StateSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateSnapshot")
            .field("version", &self.inner.version)
            .field("state_len", &self.state_len())
            .field("materialized_blocks", &self.materialized_blocks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StateSnapshot>();
    };

    fn initial_snapshot(n_qubits: u8, block_size: usize) -> StateSnapshot {
        let geom = BlockGeometry::new(n_qubits, block_size);
        StateSnapshot {
            inner: Arc::new(SnapInner::new(
                1,
                geom,
                Spine::new(geom.num_blocks()),
                QueryReport::default(),
            )),
        }
    }

    #[test]
    fn implicit_initial_blocks_answer_ket_zero() {
        let s = initial_snapshot(4, 4);
        assert!(s.amplitude(0).is_one(0.0));
        assert!(s.amplitude(5).is_zero(0.0));
        assert_eq!(s.probability(0), 1.0);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
        let state = s.state();
        assert_eq!(state.len(), 16);
        assert!(state[0].is_one(0.0));
        assert!(state[1..].iter().all(|z| z.is_zero(0.0)));
        let probs = s.probabilities();
        assert_eq!(probs[0], 1.0);
        assert_eq!(probs[1..].iter().sum::<f64>(), 0.0);
        assert_eq!(s.materialized_blocks(), 0);
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.sample(&mut rng), 0);
    }

    /// Draws `u64::MAX` every time: `random::<f64>()` is then 1 − 2⁻⁵³.
    struct TopRng;

    impl rand::RngCore for TopRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    /// A norm just below 1 (inside the default tolerance) leaves the
    /// top draw unspent past the last outcome with any probability; the
    /// sample must be that outcome, not a state of probability zero.
    #[test]
    fn sample_never_returns_an_impossible_outcome() {
        let geom = BlockGeometry::new(2, 4);
        let mut blocks = Spine::new(geom.num_blocks());
        let amps = [0.5, 0.5 - 1e-9, 0.0, 0.0].map(|p: f64| qtask_num::c64(p.sqrt(), 0.0));
        blocks.set(0, Some(Arc::new(amps.to_vec())));
        let s = StateSnapshot {
            inner: Arc::new(SnapInner::new(1, geom, blocks, QueryReport::default())),
        };
        assert!((s.norm_sqr() - (1.0 - 1e-9)).abs() < 1e-15);
        assert_eq!(s.sample(&mut TopRng), 1);
    }
}
