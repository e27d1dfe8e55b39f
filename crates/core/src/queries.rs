//! Query API: amplitudes, probabilities, sampling, memory accounting.
//!
//! Queries resolve each block to its last owning row through the owner
//! index, bottoming out at |0…0⟩. They reflect the state as of the latest
//! [`crate::Ckt::update_state`] — the paper's usage model is
//! modify → update → query.
//!
//! These methods are the engine's *live view* and require `&Ckt` — they
//! cannot overlap the next edit. The preferred query surface since the
//! MVCC redesign is [`crate::StateSnapshot`]
//! ([`crate::Ckt::latest_snapshot`]): an immutable `Send + Sync` handle
//! with the same query set, which any number of threads read while the
//! owner builds the next version. The live methods stay for
//! single-threaded convenience and as the counted-resolution oracle the
//! `*_reported` variants instrument.

use crate::cow::{BlockData, Resolved};
use crate::engine::Ckt;
use crate::error::{payload_text, EngineError};
use crate::owners::ResolveStats;
use qtask_num::Complex64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resolution work performed by one query ([`Ckt::amplitude_reported`],
/// [`Ckt::state_reported`]): the query-side counterpart of
/// [`crate::UpdateReport`]'s counters. `owner_probes / blocks_resolved`
/// is the per-lookup cost the owner index keeps flat in circuit depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// COW block resolutions the query performed.
    pub blocks_resolved: u64,
    /// Owner probes those resolutions cost: binary-search steps over the
    /// owner index.
    pub owner_probes: u64,
}

/// One [`Ckt::debug_partitions`] entry:
/// `(label, block_lo, block_hi, preds, succs, in_frontier)`.
pub type PartitionDebug = (String, u32, u32, Vec<usize>, Vec<usize>, bool);

/// Memory accounting snapshot (the engine-side view of Table III's `mem`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Rows currently alive.
    pub rows: usize,
    /// Partitions currently alive.
    pub partitions: usize,
    /// Blocks owned across all rows (materialized data).
    pub owned_blocks: usize,
    /// Bytes of owned amplitude data.
    pub owned_bytes: usize,
}

impl Ckt {
    /// Resolves block `b` of the final state against `stats` counters:
    /// the last owner of `b` in row order, or `None` for the implicit
    /// initial state — O(log owners) through the owner index (a reader
    /// "after every row"). Shared by the live queries (which count into
    /// the engine's stats) and snapshot capture (which counts into its
    /// own).
    pub(crate) fn resolve_final_data(&self, b: usize, stats: &ResolveStats) -> Option<BlockData> {
        let label_of = |r: crate::row::RowId| {
            self.rows
                .order_label(r.key())
                .expect("owner index holds only live rows")
        };
        self.owners.resolve_before(
            b,
            u64::MAX,
            label_of,
            |r| self.rows[r.key()].vector.owned(b),
            stats,
        )
    }

    /// [`Ckt::resolve_final_data`] against the engine's own counters,
    /// as a [`Resolved`].
    fn resolve_final(&self, b: usize) -> Resolved {
        self.resolve_final_data(b, &self.resolve_stats)
            .map_or(Resolved::Initial, Resolved::Data)
    }

    /// Runs `f` and reports the resolution work it performed. Queries and
    /// updates share one counter set (reset at each `update_state`), so
    /// the delta around `f` is exactly `f`'s own work — queries run on the
    /// caller's thread with no update in flight.
    fn with_query_report<T>(&self, f: impl FnOnce(&Self) -> T) -> (T, QueryReport) {
        let (blocks0, probes0) = self.resolve_stats.snapshot();
        let value = f(self);
        let (blocks1, probes1) = self.resolve_stats.snapshot();
        let report = QueryReport {
            blocks_resolved: blocks1 - blocks0,
            owner_probes: probes1 - probes0,
        };
        // Mirror the per-call report into the global registry from the
        // same delta, so the two views cannot disagree.
        qtask_obs::counter!("core.query.calls").inc();
        qtask_obs::counter!("core.query.blocks_resolved").add(report.blocks_resolved);
        qtask_obs::counter!("core.query.owner_probes").add(report.owner_probes);
        (value, report)
    }

    /// The amplitude of basis state `idx`.
    ///
    /// Panics when `idx` is out of range or the engine is poisoned —
    /// [`Ckt::try_amplitude`] is the non-panicking variant.
    pub fn amplitude(&self, idx: usize) -> Complex64 {
        self.assert_healthy();
        assert!(idx < self.geom.state_len(), "basis index out of range");
        let b = self.geom.block_of(idx);
        self.resolve_final(b)
            .read(b, self.geom.offset_in_block(idx))
            * self.renorm_scale()
    }

    /// [`Ckt::amplitude`] plus the resolution work the lookup performed
    /// (the ROADMAP's query-side counterpart of [`crate::UpdateReport`]).
    pub fn amplitude_reported(&self, idx: usize) -> (Complex64, QueryReport) {
        self.with_query_report(|ckt| ckt.amplitude(idx))
    }

    /// The probability of basis state `idx`.
    pub fn probability(&self, idx: usize) -> f64 {
        self.amplitude(idx).norm_sqr()
    }

    /// [`Ckt::probability`] plus the resolution work the lookup performed
    /// — the same counted path as [`Ckt::amplitude_reported`], so
    /// [`QueryReport`] is trustworthy for every query kind.
    pub fn probability_reported(&self, idx: usize) -> (f64, QueryReport) {
        self.with_query_report(|ckt| ckt.probability(idx))
    }

    /// The full state vector (materializes `2^n` amplitudes).
    pub fn state(&self) -> Vec<Complex64> {
        self.assert_healthy();
        let bs = self.geom.block_size();
        let scale = self.renorm_scale();
        let mut out = Vec::with_capacity(self.geom.state_len());
        for b in 0..self.geom.num_blocks() {
            match self.resolve_final(b) {
                // `x * 1.0` is bit-exact for finite f64, but the unscaled
                // path keeps the common case a memcpy.
                Resolved::Data(d) if scale == 1.0 => out.extend_from_slice(&d),
                Resolved::Data(d) => out.extend(d.iter().map(|&z| z * scale)),
                Resolved::Initial => {
                    let start = out.len();
                    out.resize(start + bs, Complex64::ZERO);
                    if b == 0 {
                        out[0] = Complex64::ONE * scale;
                    }
                }
            }
        }
        out
    }

    /// [`Ckt::state`] plus the resolution work materializing it performed:
    /// one block resolution per block, each probing the owner lists.
    pub fn state_reported(&self) -> (Vec<Complex64>, QueryReport) {
        self.with_query_report(|ckt| ckt.state())
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.state().iter().map(|z| z.norm_sqr()).collect()
    }

    /// [`Ckt::probabilities`] plus the resolution work it performed (one
    /// block resolution per block, like [`Ckt::state_reported`]).
    pub fn probabilities_reported(&self) -> (Vec<f64>, QueryReport) {
        self.with_query_report(|ckt| ckt.probabilities())
    }

    /// Sum of squared amplitudes (≈ 1 for a consistent state).
    pub fn norm_sqr(&self) -> f64 {
        self.assert_healthy();
        let p_scale = self.renorm_scale() * self.renorm_scale();
        (0..self.geom.num_blocks())
            .map(|b| match self.resolve_final(b) {
                Resolved::Data(d) => d.iter().map(|z| z.norm_sqr()).sum::<f64>(),
                Resolved::Initial => {
                    if b == 0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            })
            .sum::<f64>()
            * p_scale
    }

    /// [`Ckt::norm_sqr`] plus the resolution work it performed.
    pub fn norm_sqr_reported(&self) -> (f64, QueryReport) {
        self.with_query_report(|ckt| ckt.norm_sqr())
    }

    /// Draws one computational-basis measurement outcome.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> usize {
        self.assert_healthy();
        let p_scale = self.renorm_scale() * self.renorm_scale();
        let mut target: f64 = rng.random::<f64>();
        let bs = self.geom.block_size();
        for b in 0..self.geom.num_blocks() {
            let resolved = self.resolve_final(b);
            for off in 0..bs {
                let p = resolved.read(b, off).norm_sqr() * p_scale;
                if target < p {
                    return b * bs + off;
                }
                target -= p;
            }
        }
        self.geom.state_len() - 1 // numeric slack: return the last state
    }

    /// [`Ckt::sample`] plus the resolution work the draw performed (one
    /// block resolution per block).
    pub fn sample_reported<R: rand::Rng>(&self, rng: &mut R) -> (usize, QueryReport) {
        self.with_query_report(|ckt| ckt.sample(rng))
    }

    // ---- fallible query surface -----------------------------------------
    //
    // The try_ variants return typed errors where the methods above
    // panic: `Poisoned` on a poisoned engine, `IndexOutOfRange` on a bad
    // basis index, and `Inconsistent` when resolution itself panics (a
    // broken invariant the read path tripped over — the read mutates
    // nothing, so the engine is NOT poisoned; `Ckt::audit` locates the
    // damage).

    /// Runs one read-only query with panic containment, mapping an unwind
    /// to [`EngineError::Inconsistent`].
    fn try_query<T>(&self, f: impl FnOnce(&Self) -> T) -> Result<T, EngineError> {
        self.ensure_healthy()?;
        qtask_faults::fault_point_err!("query/read", EngineError::injected("query/read"));
        catch_unwind(AssertUnwindSafe(|| f(self))).map_err(|payload| EngineError::Inconsistent {
            detail: payload_text(payload.as_ref()),
        })
    }

    /// Range check shared by the indexed try_ queries.
    fn check_idx(&self, idx: usize) -> Result<(), EngineError> {
        let len = self.geom.state_len();
        if idx < len {
            Ok(())
        } else {
            Err(EngineError::IndexOutOfRange { idx, len })
        }
    }

    /// [`Ckt::amplitude`] returning errors instead of panicking.
    pub fn try_amplitude(&self, idx: usize) -> Result<Complex64, EngineError> {
        self.check_idx(idx)?;
        self.try_query(|ckt| ckt.amplitude(idx))
    }

    /// [`Ckt::probability`] returning errors instead of panicking.
    pub fn try_probability(&self, idx: usize) -> Result<f64, EngineError> {
        self.check_idx(idx)?;
        self.try_query(|ckt| ckt.probability(idx))
    }

    /// [`Ckt::state`] returning errors instead of panicking.
    pub fn try_state(&self) -> Result<Vec<Complex64>, EngineError> {
        self.try_query(|ckt| ckt.state())
    }

    /// [`Ckt::probabilities`] returning errors instead of panicking.
    pub fn try_probabilities(&self) -> Result<Vec<f64>, EngineError> {
        self.try_query(|ckt| ckt.probabilities())
    }

    /// [`Ckt::norm_sqr`] returning errors instead of panicking.
    pub fn try_norm_sqr(&self) -> Result<f64, EngineError> {
        self.try_query(|ckt| ckt.norm_sqr())
    }

    /// [`Ckt::sample`] returning errors instead of panicking.
    pub fn try_sample<R: rand::Rng>(&self, rng: &mut R) -> Result<usize, EngineError> {
        self.try_query(|ckt| ckt.sample(rng))
    }

    /// Debug introspection: every partition as
    /// `(label, block_lo, block_hi, preds, succs, in_frontier)`, in row
    /// order. For tests and diagnostics.
    pub fn debug_partitions(&self) -> Vec<PartitionDebug> {
        let mut out = Vec::new();
        for k in self.rows.keys() {
            let row = &self.rows[k];
            for pid in &row.parts {
                let part = &self.parts[pid.key()];
                out.push((
                    row.label.to_string(),
                    part.spec.block_lo,
                    part.spec.block_hi,
                    part.preds.iter().map(|p| p.key().index()).collect(),
                    part.succs.iter().map(|s| s.key().index()).collect(),
                    self.frontier.contains(pid),
                ));
            }
        }
        out
    }

    /// Debug introspection: per-row `(label, owned block ids)`, in row
    /// order, with each row's gate kind when it has one.
    pub fn debug_rows(&self) -> Vec<(String, Vec<usize>)> {
        self.rows
            .keys()
            .map(|k| {
                let row = &self.rows[k];
                let owned = (0..row.vector.num_blocks())
                    .filter(|b| row.vector.owns(*b))
                    .collect();
                (row.label.to_string(), owned)
            })
            .collect()
    }

    /// Debug: the gates of rows in row order (row label, gate info).
    pub fn debug_row_gates(&self) -> Vec<(String, Option<qtask_circuit::Gate>)> {
        self.rows
            .keys()
            .map(|k| {
                let row = &self.rows[k];
                let gate = row.gate.and_then(|g| self.circuit.gate(g).copied());
                (row.label.to_string(), gate)
            })
            .collect()
    }

    /// Memory accounting across all rows.
    pub fn memory_stats(&self) -> MemStats {
        let bs = self.geom.block_size();
        let mut owned_blocks = 0;
        for (_, row) in self.rows.iter() {
            owned_blocks += row.vector.owned_blocks();
        }
        MemStats {
            rows: self.rows.len(),
            partitions: self.parts.len(),
            owned_blocks,
            owned_bytes: owned_blocks * bs * std::mem::size_of::<Complex64>(),
        }
    }
}
