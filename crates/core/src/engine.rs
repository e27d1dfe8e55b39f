//! The [`Ckt`] engine: modifiers, frontier bookkeeping, incremental update.

use crate::config::{NumericalPolicy, RowOrderPolicy, SimConfig};
use crate::cow::BlockData;
use crate::delta::{block_norm_sqr, BlockDelta, SnapshotObserver};
use crate::error::{payload_text, EngineError, InvariantViolation};
use crate::exec::{self, ExecView};
use crate::fused::FusedOp;
use crate::owners::{OwnerIndex, ResolveStats};
use crate::row::{DenseFactor, PartId, Partition, Row, RowId, RowKind};
use crate::snapshot::{QueryReport, SnapInner, StateSnapshot};
use crate::spine::Spine;
use qtask_circuit::{Circuit, CircuitError, Gate, GateId, NetId};
use qtask_gates::GateKind;
use qtask_partition::{derive_partitions, BlockGeometry, LoweredGate, PartitionSpec};
use qtask_taskflow::{Executor, RetainedGraph};
use qtask_util::LinkedArena;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a live gate maps onto simulation rows.
pub(crate) enum GateSim {
    /// The gate changes nothing (identity); it has no row.
    Identity,
    /// A non-superposition gate with its own row.
    LinearRow(RowId),
    /// A superposition gate folded into the given MxV row (whose sync row
    /// is the second id).
    DenseInMxV(RowId, RowId),
}

/// Per-net simulation bookkeeping.
#[derive(Default)]
pub(crate) struct NetSim {
    /// `(sync, mxv)` row pairs in row order. The paper uses one pair per
    /// net; we chain several once a group exceeds
    /// [`SimConfig::mxv_group_max`].
    pub(crate) mxv_pairs: Vec<(RowId, RowId)>,
    /// Linear rows of this net, in row order.
    pub(crate) linear: Vec<RowId>,
}

impl NetSim {
    fn first_row(&self) -> Option<RowId> {
        self.mxv_pairs
            .first()
            .map(|(sync, _)| *sync)
            .or_else(|| self.linear.first().copied())
    }

    fn last_row(&self) -> Option<RowId> {
        self.linear
            .last()
            .copied()
            .or_else(|| self.mxv_pairs.last().map(|(_, mxv)| *mxv))
    }
}

/// Statistics returned by [`Ckt::update_state`].
#[derive(Clone, Debug, Default)]
pub struct UpdateReport {
    /// Partitions executed this update: the successor closure of the
    /// frontier, new sync barriers included (0 when the frontier was
    /// empty).
    pub partitions_executed: usize,
    /// Total intra-partition tasks spawned.
    pub tasks_executed: usize,
    /// Wall-clock time of the update.
    pub elapsed: Duration,
    /// Time spent deriving the dirty set and building the task graph
    /// (serial, on the calling thread).
    pub build_elapsed: Duration,
    /// Time spent executing the task graph on the worker pool.
    pub run_elapsed: Duration,
    /// COW block resolutions performed by the executed tasks.
    pub blocks_resolved: u64,
    /// Owner probes those resolutions cost: binary-search steps over the
    /// owner index. `owner_probes / blocks_resolved` is the per-lookup
    /// cost, flat in circuit depth.
    pub owner_probes: u64,
    /// Blocks re-resolved to publish the [`StateSnapshot`] (0 when
    /// nothing changed). Capture is incremental, so this tracks the
    /// update's write set, not the state size; its resolution work is
    /// *not* included in the two counters above.
    pub snapshot_blocks_resolved: u64,
    /// `|norm² − 1|` measured at this update's publication (0 when
    /// nothing was published).
    pub norm_error: f64,
    /// Cumulative count of publications whose norm drifted beyond
    /// [`SimConfig::norm_tolerance`] over this engine's lifetime. Only
    /// grows under [`NumericalPolicy::Renormalize`] — under
    /// [`NumericalPolicy::Strict`] the first drift poisons the engine.
    pub drift_events: u64,
    /// Retained-graph nodes this update re-executed that predate the
    /// current edit window — structure (node + closure shape) reused from
    /// a previous run rather than rebuilt. With a warm graph this equals
    /// `partitions_executed` minus the partitions the edit itself created.
    pub graph_nodes_reused: usize,
    /// Structural retained-graph patches (node/edge inserts and detaches)
    /// the edits since the previous update performed. Bounded by the edit
    /// size — never by circuit depth (asserted by
    /// `tests/retained_graph_stress.rs`).
    pub graph_nodes_patched: usize,
    /// Journal ops committed by [`Ckt::edit`] batches since the previous
    /// update — the write-path work `update_state` absorbed.
    pub staged_ops: usize,
}

/// Interns every `core.*` metric the engine's reports surface, so
/// metrics expositions cover them all from the first snapshot — even
/// counters whose recording path never ran (e.g. a recovery failure).
/// Called once per engine construction; interning an existing handle is
/// a map lookup.
fn touch_core_metrics() {
    let _ = qtask_obs::counter!("core.updates");
    let _ = qtask_obs::counter!("core.partitions_executed");
    let _ = qtask_obs::counter!("core.tasks_executed");
    let _ = qtask_obs::counter!("core.blocks_resolved");
    let _ = qtask_obs::counter!("core.owner_probes");
    let _ = qtask_obs::counter!("core.snapshot_blocks_resolved");
    let _ = qtask_obs::counter!("core.drift_events");
    let _ = qtask_obs::counter!("core.graph_nodes_reused");
    let _ = qtask_obs::counter!("core.graph_nodes_patched");
    let _ = qtask_obs::counter!("core.staged_ops");
    let _ = qtask_obs::counter!("core.recoveries");
    let _ = qtask_obs::counter!("core.recovery_failures");
    let _ = qtask_obs::histogram!("core.update_us");
    let _ = qtask_obs::histogram!("core.update_build_us");
    let _ = qtask_obs::histogram!("core.update_run_us");
    let _ = qtask_obs::histogram!("core.recover_us");
    let _ = qtask_obs::gauge!("core.norm_error_nanos");
}

/// Mirrors a finished update's report into the global `qtask-obs`
/// registry. The registry counters and the per-call struct are fed from
/// the same values at the same instant, so the two views can never
/// disagree (asserted by `tests/obs_report_drift.rs`).
fn record_update_metrics(report: &UpdateReport) {
    qtask_obs::counter!("core.updates").inc();
    qtask_obs::counter!("core.partitions_executed").add(report.partitions_executed as u64);
    qtask_obs::counter!("core.tasks_executed").add(report.tasks_executed as u64);
    qtask_obs::counter!("core.blocks_resolved").add(report.blocks_resolved);
    qtask_obs::counter!("core.owner_probes").add(report.owner_probes);
    qtask_obs::counter!("core.snapshot_blocks_resolved").add(report.snapshot_blocks_resolved);
    qtask_obs::counter!("core.graph_nodes_reused").add(report.graph_nodes_reused as u64);
    qtask_obs::counter!("core.graph_nodes_patched").add(report.graph_nodes_patched as u64);
    qtask_obs::counter!("core.staged_ops").add(report.staged_ops as u64);
    qtask_obs::histogram!("core.update_us").record_duration_us(report.elapsed);
    qtask_obs::histogram!("core.update_build_us").record_duration_us(report.build_elapsed);
    qtask_obs::histogram!("core.update_run_us").record_duration_us(report.run_elapsed);
    qtask_obs::gauge!("core.norm_error_nanos").set((report.norm_error * 1e9) as i64);
}

/// What [`Ckt::recover`] did: a full rebuild of the simulation state by
/// replaying the retained circuit and re-executing every partition.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Report of the full re-execution that materialized the state.
    pub update: UpdateReport,
    /// Wall-clock time of the whole rebuild (replay + execution).
    pub elapsed: Duration,
    /// Rows in the rebuilt engine.
    pub rows: usize,
    /// Partitions in the rebuilt engine.
    pub partitions: usize,
}

/// The qTask simulator object (paper Listing 1's `qTask ckt(5)`).
///
/// Wraps a [`Circuit`] and maintains, incrementally under every modifier:
/// per-row copy-on-write state vectors, the partition task graph, and the
/// frontier (the graph's dirty list) that seeds [`Ckt::update_state`].
///
/// State is read only through the [`StateSnapshot`]s it publishes:
/// [`Ckt::latest_snapshot`] is what the last `update_state` published,
/// and [`Ckt::snapshot`] also folds in removals made since. Call
/// `update_state` after a batch of modifiers before reading (the paper's
/// usage model).
pub struct Ckt {
    pub(crate) circuit: Circuit,
    pub(crate) geom: BlockGeometry,
    pub(crate) config: SimConfig,
    pub(crate) executor: Arc<Executor>,
    pub(crate) rows: LinkedArena<Row>,
    pub(crate) net_sim: HashMap<NetId, NetSim>,
    pub(crate) gate_sim: HashMap<GateId, GateSim>,
    /// Per-block sorted owner lists for O(log) COW resolution.
    pub(crate) owners: OwnerIndex,
    /// Per-block sorted cover lists for O(log) partition linking.
    pub(crate) coverage: crate::coverage::CoverageIndex,
    /// Partitions created but not yet linked: modifiers queue them, and
    /// [`Ckt::link_pending`] registers their covers and adds their edges
    /// in one pass.
    pub(crate) pending_links: Vec<PartId>,
    /// The partition graph: each partition is its retained node's
    /// payload ([`PartId`] is the node's id), the graph holds the only
    /// record of the edges between them, and its dirty list is the
    /// frontier. Patched in place by every modifier and executed (dirty
    /// subset only) by [`Ckt::update_state`]. The graph outlives
    /// individual updates, so a warm update re-boxes no closures and
    /// re-wires no edges — the build phase is O(|dirty|).
    pub(crate) graph: RetainedGraph<Partition>,
    /// Journal ops committed since the last `update_state` (reported as
    /// [`UpdateReport::staged_ops`], then reset).
    pub(crate) staged_ops_pending: usize,
    /// Resolution counters of the most recent update's partition tasks
    /// (reset at each `update_state`).
    pub(crate) resolve_stats: ResolveStats,
    /// Last published snapshot (None before the first publication).
    pub(crate) latest: Option<StateSnapshot>,
    /// Blocks whose final resolution changed since `latest` was captured
    /// by means other than partition execution — i.e. blocks a removed
    /// row owned.
    pub(crate) snap_dirty: HashSet<usize>,
    /// Snapshot publication counter ([`StateSnapshot::version`]).
    snapshot_seq: u64,
    /// Publication hooks, notified (with the [`BlockDelta`] write set)
    /// after every publish. Carried across [`Ckt::recover`].
    observers: Vec<Arc<dyn SnapshotObserver>>,
    gate_seq: u64,
    /// Why the engine is poisoned, if it is. Set by panic containment and
    /// numerical-policy violations; cleared only by [`Ckt::recover`]
    /// (which replaces the whole engine).
    poison: Option<String>,
    /// Per-block squared norms of the last published state — refreshed
    /// only for the blocks a publication re-resolves, so norm
    /// conservation is checked incrementally.
    block_norms: Vec<f64>,
    /// Scale the published snapshot applies: 1.0 unless
    /// [`NumericalPolicy::Renormalize`] absorbed drift at the last
    /// publication. Stored, never baked into the shared COW buffers.
    renorm_scale: f64,
    /// Lifetime count of publications that drifted beyond tolerance.
    drift_events: u64,
    /// `|norm² − 1|` at the last publication.
    last_norm_error: f64,
}

impl Ckt {
    /// Creates an engine with default configuration.
    pub fn new(num_qubits: u8) -> Ckt {
        Ckt::with_config(num_qubits, SimConfig::default())
    }

    /// Creates an engine with explicit configuration (its own executor).
    pub fn with_config(num_qubits: u8, config: SimConfig) -> Ckt {
        let executor = Arc::new(Executor::new(config.num_threads));
        Ckt::with_executor(num_qubits, config, executor)
    }

    /// Creates an engine sharing an existing executor — useful when many
    /// `Ckt`s are built in a loop (benchmarks) and worker threads should
    /// be reused.
    pub fn with_executor(num_qubits: u8, config: SimConfig, executor: Arc<Executor>) -> Ckt {
        touch_core_metrics();
        let geom = BlockGeometry::new(num_qubits, config.block_size);
        // |0…0⟩: all the norm lives in block 0.
        let mut block_norms = vec![0.0; geom.num_blocks()];
        block_norms[0] = 1.0;
        Ckt {
            circuit: Circuit::new(num_qubits),
            geom,
            config,
            executor,
            rows: LinkedArena::new(),
            net_sim: HashMap::new(),
            gate_sim: HashMap::new(),
            owners: OwnerIndex::new(geom.num_blocks()),
            coverage: crate::coverage::CoverageIndex::new(geom.num_blocks()),
            pending_links: Vec::new(),
            graph: RetainedGraph::new(),
            staged_ops_pending: 0,
            resolve_stats: ResolveStats::default(),
            latest: None,
            snap_dirty: HashSet::new(),
            snapshot_seq: 0,
            observers: Vec::new(),
            gate_seq: 0,
            poison: None,
            block_norms,
            renorm_scale: 1.0,
            drift_events: 0,
            last_norm_error: 0.0,
        }
    }

    /// Builds an engine for an existing circuit: its gates are lowered
    /// into rows and partitions in circuit order, and the whole partition
    /// graph is then linked in one pass (each block's covers arrive in
    /// row order, so linking appends and never searches). Every partition
    /// starts on the frontier, so the first [`Ckt::update_state`] is a
    /// full simulation.
    pub fn from_circuit(circuit: &Circuit, config: SimConfig) -> Ckt {
        let executor = Arc::new(Executor::new(config.num_threads));
        Ckt::from_circuit_with_executor(circuit, config, executor)
    }

    /// [`Ckt::from_circuit`] with a shared executor.
    pub fn from_circuit_with_executor(
        circuit: &Circuit,
        config: SimConfig,
        executor: Arc<Executor>,
    ) -> Ckt {
        let mut ckt = Ckt::with_executor(circuit.num_qubits(), config, executor);
        for src_net in circuit.net_ids() {
            let net = ckt.push_net();
            for (_, gate) in circuit.net_gates(src_net) {
                ckt.insert_gate_inner(gate.kind(), net, gate.qubits())
                    .expect("replaying a valid circuit cannot fail");
            }
        }
        ckt.link_pending();
        ckt
    }

    // ---- health: poisoning, containment, recovery ------------------------

    /// True when a previous mutation panicked (or violated the numerical
    /// policy) and the simulation state may be torn. The circuit survives;
    /// [`Ckt::recover`] rebuilds everything else from it.
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    /// Why the engine is poisoned, if it is.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poison.as_deref()
    }

    /// Errors with [`EngineError::Poisoned`] when the engine is poisoned.
    pub(crate) fn ensure_healthy(&self) -> Result<(), EngineError> {
        match &self.poison {
            Some(reason) => Err(EngineError::Poisoned {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Poisons the engine (first reason wins) and returns the matching
    /// [`EngineError::Poisoned`].
    fn poison_with(&mut self, reason: String) -> EngineError {
        if self.poison.is_none() {
            self.poison = Some(reason.clone());
        }
        EngineError::Poisoned { reason }
    }

    /// Poisons the engine with `err`'s rendering, then passes `err`
    /// through — for failures whose typed identity (NormDrift, NonFinite)
    /// matters more than the poisoned wrapper.
    fn poison_err(&mut self, err: EngineError) -> EngineError {
        if self.poison.is_none() {
            self.poison = Some(err.to_string());
        }
        err
    }

    /// Runs a mutation with panic containment: an unwind out of `f`
    /// poisons the engine and surfaces as [`EngineError::Poisoned`]
    /// instead of propagating (or worse, leaving the engine torn behind a
    /// caller's `catch_unwind`).
    pub(crate) fn contain<T>(
        &mut self,
        f: impl FnOnce(&mut Ckt) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let result = {
            let this = &mut *self;
            catch_unwind(AssertUnwindSafe(move || f(this)))
        };
        match result {
            Ok(r) => r,
            Err(payload) => Err(self.poison_with(payload_text(payload.as_ref()))),
        }
    }

    /// Rebuilds the entire simulation state — rows, partitions, owner
    /// index, snapshot — by replaying the retained [`Circuit`] and fully
    /// re-executing it, then replaces `self` with the rebuilt engine
    /// (clearing any poison). Snapshot versions stay monotonic: the
    /// recovery publication's version exceeds every previously published
    /// one.
    ///
    /// Works on healthy engines too (it is a plain full rebuild), which is
    /// what the recovery-latency bench measures.
    pub fn recover(&mut self) -> Result<RecoveryReport, EngineError> {
        let _recover_span = qtask_obs::span!("recover");
        let t0 = Instant::now();
        let seq = self.snapshot_seq;
        let circuit = self.circuit.clone();
        let config = self.config.clone();
        let executor = Arc::clone(&self.executor);
        let rebuilt = catch_unwind(AssertUnwindSafe(
            || -> Result<(Ckt, UpdateReport), EngineError> {
                let mut fresh = Ckt::from_circuit_with_executor(&circuit, config, executor);
                fresh.snapshot_seq = seq;
                let update = fresh.update_state()?;
                Ok((fresh, update))
            },
        ));
        match rebuilt {
            Ok(Ok((mut fresh, update))) => {
                let report = RecoveryReport {
                    update,
                    elapsed: t0.elapsed(),
                    rows: fresh.num_rows(),
                    partitions: fresh.num_partitions(),
                };
                // Observers outlive the engine they were attached to: the
                // rebuilt engine inherits them and announces its recovery
                // publication as a from-scratch rebuild (its update above
                // ran with no observers attached, so nothing fired yet).
                fresh.observers = std::mem::take(&mut self.observers);
                *self = fresh;
                if let Some(snap) = self.latest.clone() {
                    let delta = BlockDelta::full_refresh(&snap);
                    for obs in &self.observers {
                        obs.on_publish(&snap, &delta);
                    }
                }
                qtask_obs::counter!("core.recoveries").inc();
                qtask_obs::histogram!("core.recover_us").record_duration_us(report.elapsed);
                Ok(report)
            }
            Ok(Err(e)) => {
                qtask_obs::counter!("core.recovery_failures").inc();
                Err(EngineError::RecoveryFailed {
                    reason: e.to_string(),
                })
            }
            Err(payload) => {
                qtask_obs::counter!("core.recovery_failures").inc();
                Err(EngineError::RecoveryFailed {
                    reason: payload_text(payload.as_ref()),
                })
            }
        }
    }

    /// Checks every cross-structure engine invariant and reports the
    /// violations (empty = coherent). Read-only and panic-contained, so it
    /// is safe to run on a poisoned engine — that is its purpose: after a
    /// contained panic, `audit` says *what* tore.
    ///
    /// Checks: poisoning, owner-index structure, partition
    /// graph coherence, per-block resolvability, amplitude finiteness,
    /// norm conservation (after any renormalization scale), and snapshot
    /// version monotonicity.
    pub fn audit(&self) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        if let Some(reason) = &self.poison {
            out.push(InvariantViolation::EnginePoisoned {
                reason: reason.clone(),
            });
        }
        match catch_unwind(AssertUnwindSafe(|| self.validate_owner_index())) {
            Ok(Ok(())) => {}
            Ok(Err(detail)) => out.push(InvariantViolation::OwnerIndexMismatch { detail }),
            Err(payload) => out.push(InvariantViolation::OwnerIndexMismatch {
                detail: payload_text(payload.as_ref()),
            }),
        }
        match catch_unwind(AssertUnwindSafe(|| self.validate_graph())) {
            Ok(Ok(())) => {}
            Ok(Err(detail)) => out.push(InvariantViolation::GraphIncoherent { detail }),
            Err(payload) => out.push(InvariantViolation::GraphIncoherent {
                detail: payload_text(payload.as_ref()),
            }),
        }
        let stats = ResolveStats::default();
        let mut total = 0.0;
        let mut norm_meaningful = true;
        for b in 0..self.geom.num_blocks() {
            match catch_unwind(AssertUnwindSafe(|| self.resolve_final_data(b, &stats))) {
                Ok(slot) => {
                    let norm = block_norm(b, &slot);
                    if norm.is_finite() {
                        total += norm;
                    } else {
                        out.push(InvariantViolation::NonFiniteAmplitude { block: b });
                        norm_meaningful = false;
                    }
                }
                Err(_) => {
                    out.push(InvariantViolation::ResolutionFailure { block: b });
                    norm_meaningful = false;
                }
            }
        }
        if norm_meaningful {
            let effective = total * self.renorm_scale * self.renorm_scale;
            if (effective - 1.0).abs() > self.config.norm_tolerance {
                out.push(InvariantViolation::NormDrift {
                    norm_sqr: effective,
                    tolerance: self.config.norm_tolerance,
                });
            }
        }
        if let Some(snap) = &self.latest {
            if snap.version() != self.snapshot_seq {
                out.push(InvariantViolation::SnapshotVersionSkew {
                    snapshot_version: snap.version(),
                    engine_seq: self.snapshot_seq,
                });
            }
        }
        out
    }

    // ---- structure queries ----------------------------------------------

    /// Number of qubits.
    pub fn num_qubits(&self) -> u8 {
        self.circuit.num_qubits()
    }

    /// The wrapped circuit (read-only).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Block geometry in use.
    pub fn geometry(&self) -> BlockGeometry {
        self.geom
    }

    /// The executor in use.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Number of live partitions (task-graph nodes).
    pub fn num_partitions(&self) -> usize {
        self.graph.len()
    }

    /// Number of live rows (COW layers).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Current frontier size: the partitions marked for the next update,
    /// new sync barriers included. Their successors re-run too, but join
    /// the frontier only when the update closes it.
    pub fn frontier_len(&self) -> usize {
        self.graph.dirty_len()
    }

    // ---- circuit modifiers ----------------------------------------------

    /// Inserts an empty net at the front. Infallible: net creation
    /// touches only the circuit (the authoritative structure recovery
    /// replays), never the simulation state, so it cannot tear.
    pub fn insert_net_front(&mut self) -> NetId {
        let id = self.circuit.insert_net_front();
        self.net_sim.insert(id, NetSim::default());
        id
    }

    /// Appends an empty net at the back (infallible; see
    /// [`Ckt::insert_net_front`]).
    pub fn push_net(&mut self) -> NetId {
        let id = self.circuit.push_net();
        self.net_sim.insert(id, NetSim::default());
        id
    }

    /// Inserts an empty net right after `after` (the paper's `insert_net`).
    pub fn insert_net_after(&mut self, after: NetId) -> Result<NetId, EngineError> {
        self.ensure_healthy()?;
        let id = self.circuit.insert_net_after(after)?;
        self.net_sim.insert(id, NetSim::default());
        Ok(id)
    }

    /// Inserts an empty net right before `before`.
    pub fn insert_net_before(&mut self, before: NetId) -> Result<NetId, EngineError> {
        self.ensure_healthy()?;
        let id = self.circuit.insert_net_before(before)?;
        self.net_sim.insert(id, NetSim::default());
        Ok(id)
    }

    /// Removes a net and all its gates.
    pub fn remove_net(&mut self, net: NetId) -> Result<(), EngineError> {
        self.ensure_healthy()?;
        self.contain(|ckt| ckt.remove_net_inner(net))
    }

    pub(crate) fn remove_net_inner(&mut self, net: NetId) -> Result<(), EngineError> {
        if self.circuit.net(net).is_none() {
            return Err(CircuitError::StaleNet.into());
        }
        let gate_ids: Vec<GateId> = self.circuit.net(net).unwrap().gates().to_vec();
        for gid in gate_ids {
            self.remove_gate_inner(gid)?;
        }
        self.circuit.remove_net(net)?;
        self.net_sim.remove(&net);
        Ok(())
    }

    /// Inserts a gate into a net, restructuring the partition graph and
    /// recording its partitions as frontier (paper §III-D, Figure 8/9).
    ///
    /// A panic mid-restructure is contained: the engine poisons itself
    /// (the circuit already holds the gate, the rows may not) and the
    /// call returns [`EngineError::Poisoned`].
    pub fn insert_gate(
        &mut self,
        kind: GateKind,
        net: NetId,
        qubits: &[u8],
    ) -> Result<GateId, EngineError> {
        self.ensure_healthy()?;
        self.contain(|ckt| {
            let gid = ckt.insert_gate_inner(kind, net, qubits)?;
            ckt.link_pending();
            Ok(gid)
        })
    }

    /// Lowers a gate into rows and partitions, queueing the new
    /// partitions for [`Ckt::link_pending`]; the caller links them.
    pub(crate) fn insert_gate_inner(
        &mut self,
        kind: GateKind,
        net: NetId,
        qubits: &[u8],
    ) -> Result<GateId, EngineError> {
        let gid = self.circuit.insert_gate(kind, net, qubits)?;
        // Past this point the circuit holds the gate but the rows do not —
        // a panic here leaves exactly the torn state poisoning guards.
        qtask_faults::fault_point!("engine/insert_gate");
        self.gate_seq += 1;
        let seq = self.gate_seq;
        let gate = *self.circuit.gate(gid).expect("gate just inserted");
        let lowered = qtask_partition::lower_gate(gate.kind(), gate.control_mask(), gate.targets());
        match lowered {
            LoweredGate::Identity => {
                self.gate_sim.insert(gid, GateSim::Identity);
            }
            LoweredGate::Linear(op) => {
                let row_id = self.create_linear_row(gid, net, op, seq);
                self.gate_sim.insert(gid, GateSim::LinearRow(row_id));
            }
            LoweredGate::Dense {
                controls,
                target,
                mat,
            } => {
                let (mxv, sync) = self.add_dense_factor(
                    net,
                    DenseFactor {
                        gate: gid,
                        controls,
                        target,
                        mat,
                    },
                );
                self.gate_sim.insert(gid, GateSim::DenseInMxV(mxv, sync));
            }
        }
        Ok(gid)
    }

    /// Removes a gate, reconnecting the partition graph across the hole
    /// and recording the removed partitions' successors as frontier
    /// (paper §III-D, Figure 7). Panics mid-restructure are contained
    /// (see [`Ckt::insert_gate`]).
    pub fn remove_gate(&mut self, gate: GateId) -> Result<Gate, EngineError> {
        self.ensure_healthy()?;
        self.contain(|ckt| ckt.remove_gate_inner(gate))
    }

    pub(crate) fn remove_gate_inner(&mut self, gate: GateId) -> Result<Gate, EngineError> {
        let net = self.circuit.gate_net(gate).ok_or(CircuitError::StaleGate)?;
        let removed = self.circuit.remove_gate(gate)?;
        qtask_faults::fault_point!("engine/remove_gate");
        match self.gate_sim.remove(&gate).expect("gate had sim info") {
            GateSim::Identity => {}
            GateSim::LinearRow(row_id) => {
                self.remove_row(row_id);
                let sim = self.net_sim.get_mut(&net).expect("net is live");
                sim.linear.retain(|r| *r != row_id);
            }
            GateSim::DenseInMxV(mxv, sync) => {
                let row = self.rows.get_mut(mxv.key()).expect("MxV row is live");
                row.dense.retain(|f| f.gate != gate);
                row.fused = None;
                if row.dense.is_empty() {
                    // The group lost its last gate: drop this MxV + sync
                    // pair.
                    let sim = self.net_sim.get_mut(&net).expect("net is live");
                    sim.mxv_pairs.retain(|(s, m)| (*s, *m) != (sync, mxv));
                    self.remove_row(mxv);
                    self.remove_row(sync);
                } else {
                    // The grouped operator changed: re-simulate all its
                    // partitions.
                    self.mark_row_dirty(mxv);
                }
            }
        }
        Ok(removed)
    }

    // ---- row construction helpers ---------------------------------------

    /// The row after which this net's rows begin: the last row of the
    /// nearest preceding net that has rows (None = global front).
    fn net_anchor(&self, net: NetId) -> Option<RowId> {
        let mut cur = self.circuit.prev_net(net);
        while let Some(n) = cur {
            if let Some(r) = self.net_sim.get(&n).and_then(|s| s.last_row()) {
                return Some(r);
            }
            cur = self.circuit.prev_net(n);
        }
        None
    }

    /// Inserts a fresh row into the global order right after `after`
    /// (or at the front).
    fn insert_row_after(&mut self, after: Option<RowId>, row: Row) -> RowId {
        match after {
            Some(a) => RowId(self.rows.insert_after(a.key(), row)),
            None => RowId(self.rows.push_front(row)),
        }
    }

    fn new_row(&self, net: NetId, kind: RowKind, gate: Option<GateId>, label: String) -> Row {
        Row {
            net,
            kind,
            gate,
            dense: Vec::new(),
            fused: None,
            parts: Vec::new(),
            max_part_blocks: 0,
            label: std::sync::Arc::from(label),
        }
    }

    fn create_linear_row(
        &mut self,
        gid: GateId,
        net: NetId,
        op: qtask_partition::LinearOp,
        seq: u64,
    ) -> RowId {
        let specs = derive_partitions(&op.pattern(self.num_qubits()), &self.geom);
        let max_blocks = specs.iter().map(|s| s.num_blocks()).max().unwrap_or(0);
        let label = format!("G{seq}");
        let mut row = self.new_row(net, RowKind::Linear(op), Some(gid), label);
        row.max_part_blocks = max_blocks;
        // Position within the net per the row-order policy: linear rows go
        // after the net's sync/MxV rows; Sorted keeps them by ascending
        // max partition block count.
        let sim = self.net_sim.get(&net).expect("net is live");
        let insert_idx = match self.config.row_order {
            RowOrderPolicy::SortedByBlockCount => sim
                .linear
                .iter()
                .position(|r| self.rows[r.key()].max_part_blocks > max_blocks)
                .unwrap_or(sim.linear.len()),
            RowOrderPolicy::Append => sim.linear.len(),
        };
        let row_id = if insert_idx < sim.linear.len() {
            let before = sim.linear[insert_idx];
            RowId(self.rows.insert_before(before.key(), row))
        } else {
            // After the net's current last row, or after the net anchor.
            let after = sim.last_row().or_else(|| self.net_anchor(net));
            self.insert_row_after(after, row)
        };
        self.net_sim
            .get_mut(&net)
            .expect("net is live")
            .linear
            .insert(insert_idx, row_id);
        self.create_partitions(row_id, specs);
        row_id
    }

    /// Adds a dense factor to the net's newest MxV row with spare
    /// capacity, or opens a fresh sync+MxV pair. Returns `(mxv, sync)`.
    pub(crate) fn add_dense_factor(&mut self, net: NetId, factor: DenseFactor) -> (RowId, RowId) {
        let sim = self.net_sim.get(&net).expect("net is live");
        // A factor re-added on the same (controls, target) replaces the
        // stale entry — in whichever of the net's chained pairs holds it —
        // instead of stacking a second copy. The circuit layer rejects two
        // *live* gates sharing a qubit in one net, so a match here can
        // only be a leftover of the same logical gate being re-registered.
        // Index iteration with per-step re-lookup keeps the modifier path
        // clone-free.
        for idx in (0..sim.mxv_pairs.len()).rev() {
            let (sync, mxv) = self.net_sim[&net].mxv_pairs[idx];
            let row = self.rows.get_mut(mxv.key()).expect("MxV row is live");
            if let Some(existing) = row
                .dense
                .iter_mut()
                .find(|f| f.controls == factor.controls && f.target == factor.target)
            {
                *existing = factor;
                row.fused = None;
                self.mark_row_dirty(mxv);
                return (mxv, sync);
            }
        }
        if let Some(&(sync, mxv)) = self.net_sim[&net].mxv_pairs.last() {
            let row = self.rows.get_mut(mxv.key()).expect("MxV row is live");
            if row.dense.len() < self.config.mxv_group_max {
                row.dense.push(factor);
                row.dense.sort_by_key(|f| f.target);
                row.fused = None;
                self.mark_row_dirty(mxv);
                return (mxv, sync);
            }
        }
        // Open a new sync + MxV pair: after the net's last MxV row, before
        // its linear rows ("we first group superposition gates…").
        let net_label = self.circuit.net_position(net).unwrap_or(0) + 1;
        let group_idx = sim.mxv_pairs.len();
        let anchor = match sim.mxv_pairs.last() {
            Some(&(_, last_mxv)) => Some(last_mxv),
            None => match sim.first_row() {
                Some(f) => self.rows.prev(f.key()).map(RowId),
                None => self.net_anchor(net),
            },
        };
        let sync_row_id = self.insert_row_after(
            anchor,
            self.new_row(
                net,
                RowKind::Sync,
                None,
                format!("sync{group_idx}(net{net_label})"),
            ),
        );
        let mut mxv_row = self.new_row(
            net,
            RowKind::MxV,
            None,
            format!("MxV{group_idx}(net{net_label})"),
        );
        // MxV: one partition per grain of blocks (the grain is a whole
        // number of blocks and divides the state).
        let span = (self.geom.grain() / self.geom.block_size()) as u32;
        mxv_row.dense.push(factor);
        mxv_row.max_part_blocks = span;
        let mxv_row_id = RowId(self.rows.insert_after(sync_row_id.key(), mxv_row));
        self.net_sim
            .get_mut(&net)
            .expect("net is live")
            .mxv_pairs
            .push((sync_row_id, mxv_row_id));
        // Sync: one full-range partition (a pure barrier, owns no data).
        let nb = self.geom.num_blocks() as u32;
        self.create_partitions(
            sync_row_id,
            vec![PartitionSpec {
                block_lo: 0,
                block_hi: nb - 1,
                item_start: 0,
                item_end: 0,
            }],
        );
        let mxv_specs: Vec<PartitionSpec> = (0..nb)
            .step_by(span as usize)
            .map(|b| PartitionSpec {
                block_lo: b,
                block_hi: b + span - 1,
                item_start: 0,
                item_end: 0,
            })
            .collect();
        self.create_partitions(mxv_row_id, mxv_specs);
        (mxv_row_id, sync_row_id)
    }

    /// Puts every partition of a row on the frontier.
    fn mark_row_dirty(&mut self, row_id: RowId) {
        for &pid in &self.rows[row_id.key()].parts {
            self.graph.mark_dirty(pid);
        }
    }

    /// Inserts a row's partitions as retained nodes — new nodes start
    /// dirty, so they are on the frontier — and queues them for
    /// [`Ckt::link_pending`]. The chunk count fixes each node's execution
    /// shape: sync rows are pure barriers, MxV partitions one call each
    /// (a grain of blocks), linear partitions fan out one chunk per grain
    /// of items.
    fn create_partitions(&mut self, row_id: RowId, specs: Vec<PartitionSpec>) {
        let chunk = self.geom.grain() as u64;
        let row = &self.rows[row_id.key()];
        let pids: Vec<PartId> = specs
            .into_iter()
            .map(|spec| {
                let chunks = match row.kind {
                    RowKind::Sync => 0,
                    RowKind::MxV => 1,
                    RowKind::Linear(_) => spec.num_tasks(chunk) as u32,
                };
                let part = Partition { row: row_id, spec };
                self.graph.insert(part, chunks, Arc::clone(&row.label))
            })
            .collect();
        self.pending_links.extend_from_slice(&pids);
        self.rows[row_id.key()].parts = pids;
    }

    // ---- incremental update ----------------------------------------------

    /// Re-simulates the frontier and everything downstream of it — the
    /// successor closure of the retained graph's dirty set (paper
    /// §III-E). With a freshly built circuit every partition is frontier,
    /// so the first call is a full simulation.
    ///
    /// The update also publishes a fresh [`StateSnapshot`]
    /// ([`Ckt::latest_snapshot`]) of the resolved state, so readers on
    /// other threads keep querying the previous version while this one
    /// replaces it. Publication is where the [`NumericalPolicy`] engages:
    /// non-finite amplitudes and out-of-tolerance norm drift surface here.
    ///
    /// A panicking task (or a panic in the serial build phase) is
    /// contained: the engine poisons itself and the call returns
    /// [`EngineError::Poisoned`] instead of unwinding or hanging.
    pub fn update_state(&mut self) -> Result<UpdateReport, EngineError> {
        self.ensure_healthy()?;
        self.contain(Ckt::update_state_inner)
    }

    fn update_state_inner(&mut self) -> Result<UpdateReport, EngineError> {
        let _update_span = qtask_obs::span!("update");
        let t0 = Instant::now();
        if self.graph.dirty_len() == 0 {
            // Nothing to execute, but removals may still have changed the
            // resolved view (a removal needs no simulation): refresh the
            // snapshot if so, or publish the very first one.
            let snapshot_blocks_resolved = self
                .republish_if_stale(|| {
                    qtask_faults::fault_point!("engine/update_publish");
                })?
                .unwrap_or(0);
            let report = UpdateReport {
                snapshot_blocks_resolved,
                norm_error: self.last_norm_error,
                drift_events: self.drift_events,
                graph_nodes_patched: self.graph.take_patches(),
                staged_ops: std::mem::take(&mut self.staged_ops_pending),
                elapsed: t0.elapsed(),
                ..UpdateReport::default()
            };
            record_update_metrics(&report);
            return Ok(report);
        }
        // Close the frontier over successor edges: the dirty set the run
        // executes is successor-closed.
        let partition_span = qtask_obs::span!("update/partition");
        self.graph.close_dirty();
        qtask_faults::fault_point!("engine/update_build");
        // Detach the previous snapshot spine *before* execution: blocks
        // this update will rewrite (the blocks dirty partitions write,
        // plus blocks of removed rows) are dropped from the engine's own
        // copy, so when no external reader shares the snapshot, the
        // re-executing tasks can reclaim their buffers and the warm
        // update stays allocation-free. A reader-held snapshot keeps its
        // pins and the rewritten blocks fork instead — MVCC isolation.
        let n = self.circuit.num_qubits();
        for &pid in self.graph.dirty_nodes() {
            let part = &self.graph[pid];
            let kind = &self.rows[part.row.key()].kind;
            self.snap_dirty
                .extend(part.written_blocks(kind, &self.geom, n));
        }
        let (spine, resolve_all) = self.detach_spine();
        drop(partition_span);
        // Refresh the fused MxV operators of dirty rows before the tasks
        // that read them are spawned (serial: the operators are row state).
        let fuse_span = qtask_obs::span!("update/fuse");
        for &pid in self.graph.dirty_nodes() {
            let rid = self.graph[pid].row;
            let row = self.rows.get_mut(rid.key()).expect("dirty row is live");
            if matches!(row.kind, RowKind::MxV) && row.fused.is_none() && !row.dense.is_empty() {
                row.fused = FusedOp::build(&row.dense);
            }
        }
        drop(fuse_span);
        // Stage the run. The graph's structure (nodes, edges, chunk fans)
        // was patched in place by the modifiers that dirtied these
        // partitions, so no closures are boxed, no edges re-wired,
        // nothing proportional to the circuit.
        let build_span = qtask_obs::span!("update/build");
        self.resolve_stats.reset();
        let chunk = self.geom.grain() as u64;
        // Structural patches accumulated since the previous update — the
        // graph-maintenance cost of the edit window now being absorbed.
        let graph_nodes_patched = self.graph.take_patches();
        let view = ExecView {
            rows: &self.rows,
            owners: &self.owners,
            stats: &self.resolve_stats,
            geom: self.geom,
            n_qubits: self.circuit.num_qubits(),
        };
        // This per-run closure dispatches a node's partition on its row
        // kind. Chunked linear fans receive their chunk index and
        // recompute the item sub-range (Figure 6's intra-gate operation
        // parallelism).
        let invoke = move |part: &Partition, chunk_idx: u32| match view.rows[part.row.key()].kind {
            RowKind::Sync => unreachable!("sync barriers are never invoked"),
            RowKind::MxV => exec::exec_mxv_partition(view, part),
            RowKind::Linear(_) => {
                let s = part.spec.item_start + chunk_idx as u64 * chunk;
                exec::exec_linear_partition(view, part, s..(s + chunk).min(part.spec.item_end));
            }
        };
        let build_elapsed = t0.elapsed();
        drop(build_span);
        let kernel_span = qtask_obs::span!("update/kernel");
        let t1 = Instant::now();
        // `run_dirty` survives panicking tasks the same way `try_run`
        // does: dependents are cancelled, the rest drain, and the first
        // panic is reported here instead of unwinding a worker.
        let run_result = self.executor.run_dirty(&mut self.graph, &invoke);
        let run_elapsed = t1.elapsed();
        drop(kernel_span);
        let (blocks_resolved, owner_probes) = self.resolve_stats.snapshot();
        let stats = match run_result {
            Ok(stats) => stats,
            // Some partitions ran, some were cancelled: the row state is
            // torn. Poison; `recover` rebuilds from the circuit.
            Err(task_panic) => return Err(self.poison_with(task_panic.to_string())),
        };
        qtask_faults::fault_point!("engine/update_publish");
        let snapshot_blocks_resolved = self.publish_spine(spine, resolve_all)?;
        let report = UpdateReport {
            partitions_executed: stats.nodes_run,
            tasks_executed: stats.tasks_run,
            elapsed: t0.elapsed(),
            build_elapsed,
            run_elapsed,
            blocks_resolved,
            owner_probes,
            snapshot_blocks_resolved,
            norm_error: self.last_norm_error,
            drift_events: self.drift_events,
            graph_nodes_reused: stats.nodes_reused,
            graph_nodes_patched,
            staged_ops: std::mem::take(&mut self.staged_ops_pending),
        };
        record_update_metrics(&report);
        Ok(report)
    }

    // ---- snapshot publication -------------------------------------------

    /// The last published [`StateSnapshot`], if any. Cheap (`Arc` clone);
    /// hand the result to other threads freely.
    pub fn latest_snapshot(&self) -> Option<StateSnapshot> {
        self.latest.clone()
    }

    /// The version of the last published snapshot (0 if none was ever
    /// published). Monotonic across [`Ckt::recover`]: a rebuilt engine
    /// resumes the sequence, so readers can order snapshots across a
    /// poisoning/recovery cycle.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot_seq
    }

    /// A snapshot of the current resolved state: the latest published
    /// snapshot, republished first if removals changed the resolved view
    /// since (or none was ever published). A removal needs no
    /// simulation, so reading after one costs only the re-resolution of
    /// the blocks the removed rows owned.
    ///
    /// Pending *insertions* that have not been simulated yet do not
    /// appear: they take effect at the next [`Ckt::update_state`].
    ///
    /// Panics when the engine is poisoned (or publication violates the
    /// numerical policy); [`Ckt::try_snapshot`] is the non-panicking
    /// variant.
    pub fn snapshot(&mut self) -> StateSnapshot {
        self.try_snapshot().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Ckt::snapshot`] returning errors instead of panicking.
    pub fn try_snapshot(&mut self) -> Result<StateSnapshot, EngineError> {
        self.ensure_healthy()?;
        self.contain(Ckt::snapshot_inner)
    }

    fn snapshot_inner(&mut self) -> Result<StateSnapshot, EngineError> {
        self.republish_if_stale(|| {})?;
        Ok(self.latest.clone().expect("snapshot just published"))
    }

    /// Publishes the next snapshot when removals changed the resolved
    /// view since the last publication, or when none was ever made,
    /// running `before` first; returns the blocks resolved, or `None`
    /// when the latest snapshot is current.
    fn republish_if_stale(&mut self, before: impl FnOnce()) -> Result<Option<u64>, EngineError> {
        if self.latest.is_some() && self.snap_dirty.is_empty() {
            return Ok(None);
        }
        before();
        let (spine, resolve_all) = self.detach_spine();
        self.publish_spine(spine, resolve_all).map(Some)
    }

    /// Takes the previous snapshot's block spine for reuse, dropping the
    /// entries of every [`Ckt::snap_dirty`] block. When the engine is the
    /// sole holder the spine is stolen outright (the dropped entries
    /// unpin their buffers for reclamation); when readers share it, the
    /// chunked [`Spine`] clone costs O(chunks) `Arc` bumps and only the
    /// chunks the dirty set lands in are forked — a pinned reader prices
    /// the *delta*, not the state. Returns the spine and whether the
    /// upcoming capture must resolve *every* block (no previous snapshot
    /// to reuse).
    fn detach_spine(&mut self) -> (Spine, bool) {
        match self.latest.take() {
            Some(snap) => {
                let mut spine = match Arc::try_unwrap(snap.inner) {
                    Ok(inner) => inner.blocks,
                    Err(shared) => shared.blocks.clone(),
                };
                for &b in &self.snap_dirty {
                    spine.set(b, None);
                }
                (spine, false)
            }
            None => (Spine::new(self.geom.num_blocks()), true),
        }
    }

    /// Re-resolves the dirty blocks of `blocks` (or all of them) against
    /// the current rows, runs the [`NumericalPolicy`] health checks,
    /// publishes the result as the next snapshot version, and clears the
    /// dirty set. Returns the number of blocks resolved.
    ///
    /// Norm conservation is checked incrementally: only the re-resolved
    /// blocks' entries of the per-block norm cache are recomputed, so the
    /// check costs O(write set), like the capture itself.
    fn publish_spine(&mut self, mut blocks: Spine, resolve_all: bool) -> Result<u64, EngineError> {
        let _snapshot_span = qtask_obs::span!("update/snapshot");
        let stats = ResolveStats::default();
        let resolve_span = qtask_obs::span!("update/resolve");
        if resolve_all {
            for b in 0..blocks.len() {
                let data = self.resolve_final_data(b, &stats);
                self.block_norms[b] = block_norm(b, &data);
                blocks.set(b, data);
            }
        } else {
            // Take the dirty set so its iteration doesn't hold `&self`
            // while the norm cache is written; its capacity is restored
            // below to keep the warm path allocation-free.
            let snap_dirty = std::mem::take(&mut self.snap_dirty);
            for &b in &snap_dirty {
                let data = self.resolve_final_data(b, &stats);
                self.block_norms[b] = block_norm(b, &data);
                blocks.set(b, data);
            }
            self.snap_dirty = snap_dirty;
        }
        drop(resolve_span);
        // The write set becomes this publication's delta — captured
        // before the dirty set is cleared, skipped (no allocation) when
        // nobody listens — together with the block norms just computed,
        // so observers read no amplitude for a block's total mass.
        let (delta_dirty, delta_norms) = if self.observers.is_empty() || resolve_all {
            (Vec::new(), Vec::new())
        } else {
            let mut d: Vec<usize> = self.snap_dirty.iter().copied().collect();
            d.sort_unstable();
            let norms = d.iter().map(|&b| self.block_norms[b]).collect();
            (d, norms)
        };
        self.snap_dirty.clear();
        let total: f64 = self.block_norms.iter().sum();
        if !total.is_finite() {
            let block = self
                .block_norms
                .iter()
                .position(|n| !n.is_finite())
                .unwrap_or(0);
            return Err(self.poison_err(EngineError::NonFinite { block }));
        }
        let drift = (total - 1.0).abs();
        self.last_norm_error = drift;
        let prev_version = self.snapshot_seq;
        let prev_scale = self.renorm_scale;
        if drift > self.config.norm_tolerance {
            self.drift_events += 1;
            qtask_obs::counter!("core.drift_events").inc();
            qtask_obs::event!("update/norm_drift");
            match self.config.numerics {
                NumericalPolicy::Strict => {
                    return Err(self.poison_err(EngineError::NormDrift {
                        norm_sqr: total,
                        tolerance: self.config.norm_tolerance,
                    }));
                }
                NumericalPolicy::Renormalize => {
                    self.renorm_scale = 1.0 / total.sqrt();
                }
            }
        } else {
            self.renorm_scale = 1.0;
        }
        let (blocks_resolved, owner_probes) = stats.snapshot();
        self.snapshot_seq += 1;
        self.latest = Some(StateSnapshot {
            inner: Arc::new(SnapInner::new(
                self.snapshot_seq,
                self.geom,
                blocks,
                QueryReport {
                    blocks_resolved,
                    owner_probes,
                },
                self.renorm_scale,
            )),
        });
        if !self.observers.is_empty() {
            let snap = self.latest.clone().expect("snapshot just published");
            let delta = BlockDelta {
                version: snap.version(),
                prev_version,
                dirty: delta_dirty,
                norms: delta_norms,
                full: resolve_all,
                scale: self.renorm_scale,
                prev_scale,
            };
            for obs in &self.observers {
                obs.on_publish(&snap, &delta);
            }
        }
        Ok(blocks_resolved)
    }

    /// Registers a publication observer (e.g. a view registry). The hook
    /// runs synchronously on the writer inside every publish; see
    /// [`SnapshotObserver`] for the contract. Observers survive
    /// [`Ckt::recover`].
    pub fn attach_observer(&mut self, observer: Arc<dyn SnapshotObserver>) {
        self.observers.push(observer);
    }

    /// Validates the owner index's structure: every list is in row order,
    /// names only live rows and holds every entry's buffer; a row with no
    /// partition on the frontier owns exactly the blocks it writes (its
    /// MxV partition spans, or the span blocks its linear pattern
    /// touches), any other row a subset of them.
    /// O(rows × blocks); tests only.
    pub fn validate_owner_index(&self) -> Result<(), String> {
        for b in 0..self.geom.num_blocks() {
            let mut prev = None;
            for (r, data) in self.owners.entries(b) {
                let label = self.rows.order_label(r.key());
                if label.is_none() || label <= prev || data.is_none() {
                    return Err(format!(
                        "block {b}: {r:?} is dead, out of order or unfilled"
                    ));
                }
                prev = label;
            }
        }
        let mut owned = self.owned_blocks_by_row();
        for k in self.rows.keys() {
            let row = &self.rows[k];
            let writes: Vec<usize> = row
                .written_blocks(&self.graph, &self.geom, self.num_qubits())
                .collect();
            let have = owned.remove(&RowId(k)).unwrap_or_default();
            let subset = have.iter().all(|b| writes.binary_search(b).is_ok());
            let settled = !row.parts.iter().any(|&p| self.graph.is_dirty(p));
            if !subset || (settled && have != writes) {
                return Err(format!(
                    "row {}: owns blocks {have:?}, writes {writes:?}",
                    row.label
                ));
            }
        }
        Ok(())
    }
}

/// Squared norm of one resolved block (`None` = the implicit |0…0⟩
/// initial block).
fn block_norm(b: usize, slot: &Option<BlockData>) -> f64 {
    block_norm_sqr(b, slot.as_deref().map(Vec::as_slice))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-registering a factor on the same (controls, target) must replace
    /// the stale entry, not stack a second copy into the product.
    #[test]
    fn readded_dense_factor_replaces_instead_of_stacking() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(4, cfg);
        let net = ckt.push_net();
        let gid = ckt.insert_gate(GateKind::H, net, &[1]).unwrap();
        ckt.update_state().unwrap();
        let GateSim::DenseInMxV(mxv, _) = ckt.gate_sim[&gid] else {
            panic!("H gate must fold into an MxV row");
        };
        assert!(ckt.rows[mxv.key()].fused.is_some(), "cache built by update");
        // Re-register the same logical gate with a different matrix,
        // bypassing the circuit layer's net-conflict check (which is what
        // keeps two *live* gates off one qubit).
        let u = GateKind::U3(0.3, 0.8, 1.1).base_matrix().unwrap();
        let (mxv2, _) = ckt.add_dense_factor(
            net,
            crate::row::DenseFactor {
                gate: gid,
                controls: 0,
                target: 1,
                mat: u,
            },
        );
        assert_eq!(mxv2, mxv);
        let row = &ckt.rows[mxv.key()];
        assert_eq!(row.dense.len(), 1, "factor replaced, not stacked");
        assert!(row.dense[0].mat.approx_eq(&u, 0.0), "newest matrix wins");
        assert!(row.fused.is_none(), "replacement invalidates the cache");
        // The simulated state reflects U3 alone, not H·U3.
        ckt.update_state().unwrap();
        let mut want = qtask_num::vecops::ket_zero(4);
        qtask_partition::kernels::apply_dense(0, 1, &u, 4, &mut want);
        assert!(qtask_num::vecops::approx_eq(
            &ckt.latest_snapshot().unwrap().state(),
            &want,
            1e-12
        ));
    }

    /// The replace scan covers every chained pair of the net, not just
    /// the newest: a stale factor in an earlier MxV row is found too.
    #[test]
    fn readded_factor_replaces_in_earlier_chained_pair() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        cfg.mxv_group_max = 1; // every dense gate opens its own pair
        let mut ckt = Ckt::with_config(4, cfg);
        let net = ckt.push_net();
        let g0 = ckt.insert_gate(GateKind::H, net, &[1]).unwrap();
        let g1 = ckt.insert_gate(GateKind::H, net, &[3]).unwrap();
        let (GateSim::DenseInMxV(m0, _), GateSim::DenseInMxV(m1, _)) =
            (&ckt.gate_sim[&g0], &ckt.gate_sim[&g1])
        else {
            panic!("both H gates must fold into MxV rows");
        };
        let (m0, m1) = (*m0, *m1);
        assert_ne!(m0, m1, "cap 1 chains two pairs");
        ckt.update_state().unwrap();
        // Re-register g0's (controls, target) — held by the *earlier*
        // pair — with a different matrix.
        let u = GateKind::U3(0.3, 0.8, 1.1).base_matrix().unwrap();
        let (hit, _) = ckt.add_dense_factor(
            net,
            crate::row::DenseFactor {
                gate: g0,
                controls: 0,
                target: 1,
                mat: u,
            },
        );
        assert_eq!(hit, m0, "replacement lands in the earlier pair");
        assert_eq!(ckt.rows[m0.key()].dense.len(), 1);
        assert!(ckt.rows[m0.key()].dense[0].mat.approx_eq(&u, 0.0));
        assert_eq!(ckt.rows[m1.key()].dense.len(), 1, "later pair untouched");
        ckt.update_state().unwrap();
        let h = GateKind::H.base_matrix().unwrap();
        let mut want = qtask_num::vecops::ket_zero(4);
        qtask_partition::kernels::apply_dense(0, 1, &u, 4, &mut want);
        qtask_partition::kernels::apply_dense(0, 3, &h, 4, &mut want);
        assert!(qtask_num::vecops::approx_eq(
            &ckt.latest_snapshot().unwrap().state(),
            &want,
            1e-12
        ));
    }

    /// Distinct (controls, target) factors still stack into the group up
    /// to the cap — replacement is keyed, not unconditional.
    #[test]
    fn distinct_factors_still_group() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        cfg.mxv_group_max = 2;
        let mut ckt = Ckt::with_config(4, cfg);
        let net = ckt.push_net();
        let g0 = ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
        let g1 = ckt.insert_gate(GateKind::H, net, &[2]).unwrap();
        let (GateSim::DenseInMxV(m0, _), GateSim::DenseInMxV(m1, _)) =
            (&ckt.gate_sim[&g0], &ckt.gate_sim[&g1])
        else {
            panic!("both H gates must fold into MxV rows");
        };
        let (m0, m1) = (*m0, *m1);
        assert_eq!(m0, m1, "both factors share one row under the cap");
        assert_eq!(ckt.rows[m0.key()].dense.len(), 2);
        // A third dense gate overflows the cap into a fresh pair.
        let g2 = ckt.insert_gate(GateKind::H, net, &[3]).unwrap();
        let GateSim::DenseInMxV(m2, _) = ckt.gate_sim[&g2] else {
            panic!("third H gate must fold into an MxV row");
        };
        assert_ne!(m2, m0);
        // Identity matrix check: simulate and compare against the flat
        // kernels applied gate-at-a-time.
        ckt.update_state().unwrap();
        let h = GateKind::H.base_matrix().unwrap();
        let mut want = qtask_num::vecops::ket_zero(4);
        for t in [0u8, 2, 3] {
            qtask_partition::kernels::apply_dense(0, t, &h, 4, &mut want);
        }
        assert!(qtask_num::vecops::approx_eq(
            &ckt.latest_snapshot().unwrap().state(),
            &want,
            1e-12
        ));
    }

    /// Dense gate removal invalidates the fused operator; the next update
    /// rebuilds it for the shrunken group.
    #[test]
    fn dense_removal_invalidates_fused_cache() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(4, cfg);
        let net = ckt.push_net();
        let g0 = ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
        let g1 = ckt.insert_gate(GateKind::H, net, &[2]).unwrap();
        ckt.update_state().unwrap();
        let GateSim::DenseInMxV(mxv, _) = ckt.gate_sim[&g0] else {
            panic!("H gate must fold into an MxV row");
        };
        assert!(ckt.rows[mxv.key()].fused.is_some());
        ckt.remove_gate(g1).unwrap();
        assert!(ckt.rows[mxv.key()].fused.is_none(), "removal invalidates");
        ckt.update_state().unwrap();
        assert!(ckt.rows[mxv.key()].fused.is_some(), "update rebuilds");
        let h = GateKind::H.base_matrix().unwrap();
        let mut want = qtask_num::vecops::ket_zero(4);
        qtask_partition::kernels::apply_dense(0, 0, &h, 4, &mut want);
        assert!(qtask_num::vecops::approx_eq(
            &ckt.latest_snapshot().unwrap().state(),
            &want,
            1e-12
        ));
    }
}
