//! The [`Ckt`] engine: modifiers, frontier bookkeeping, incremental update.

use crate::config::{RowOrderPolicy, SimConfig};
use crate::cow::BlockData;
use crate::delta::{block_norm_sqr, BlockDelta, SnapshotObserver};
use crate::error::{payload_text, EngineError, InvariantViolation};
use crate::exec::{self, ExecView};
use crate::owners::{OwnerIndex, ResolveStats};
use crate::row::{PartId, Partition, Row, RowId};
use crate::snapshot::{QueryReport, SnapInner, StateSnapshot};
use crate::spine::Spine;
use qtask_circuit::{Circuit, CircuitError, Gate, GateId, NetId};
use qtask_gates::GateKind;
use qtask_partition::{derive_partitions, BlockGeometry, LoweredGate, PartitionSpec};
use qtask_taskflow::{DirtyRunStats, Executor, RetainedGraph};
use qtask_util::LinkedArena;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics returned by [`Ckt::update_state`].
#[derive(Clone, Debug, Default)]
pub struct UpdateReport {
    /// Partitions executed this update: the successor closure of the
    /// frontier, plus the replays of the evicted entries it reads and the
    /// passes that order them.
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
    /// Owner probes those resolutions cost: the label comparisons their
    /// owner-index searches made (one for a tail append).
    /// `owner_probes / blocks_resolved` is the per-lookup cost, flat in
    /// circuit depth.
    pub owner_probes: u64,
    /// Blocks re-resolved to publish the [`StateSnapshot`] (0 when
    /// nothing changed). Capture is incremental, so this tracks the
    /// update's write set, not the state size; its resolution work is
    /// *not* included in the two counters above.
    pub snapshot_blocks_resolved: u64,
    /// `|norm² − 1|` measured at this update's publication (0 when
    /// nothing was published).
    pub norm_error: f64,
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
    /// Each net's rows, in row order.
    pub(crate) net_rows: HashMap<NetId, Vec<RowId>>,
    /// Each live gate's row; `None` for a gate that changes nothing.
    pub(crate) gate_rows: HashMap<GateId, Option<RowId>>,
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
    /// failed numerical-health checks; cleared only by [`Ckt::recover`]
    /// (which replaces the whole engine).
    poison: Option<String>,
    /// Per-block squared norms of the last published state — refreshed
    /// only for the blocks a publication re-resolves, so norm
    /// conservation is checked incrementally.
    block_norms: Vec<f64>,
    /// `|norm² − 1|` at the last publication.
    last_norm_error: f64,
    /// Runs planned so far ([`Row::transient`] stamps).
    run_seq: u64,
    /// Per block, its last writer, recorded for the blocks a run writes.
    last_writer: Vec<Option<RowId>>,
    /// Per block, the last run that wrote it.
    written_run: Vec<u64>,
    /// The run's partitions in row order, kept to reuse the allocation.
    run_order: Vec<PartId>,
    /// Partitions inserted since the last update; those still live are
    /// the new ones of its run, even when a snapshot's replay run passed
    /// them through before it.
    new_parts: Vec<PartId>,
    /// The partitions the planned run replays ([`Ckt::plan_replay`]).
    replayed: Vec<PartId>,
    /// Every row a checkpoint (`test_support::retain_every_row`).
    pub(crate) retain_all: bool,
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
            net_rows: HashMap::new(),
            gate_rows: HashMap::new(),
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
            last_norm_error: 0.0,
            run_seq: 0,
            last_writer: vec![None; geom.num_blocks()],
            written_run: vec![0; geom.num_blocks()],
            run_order: Vec::new(),
            new_parts: Vec::new(),
            replayed: Vec::new(),
            retain_all: false,
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

    /// True when a previous mutation panicked (or failed a numerical-health
    /// check) and the simulation state may be torn. The circuit survives;
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
        let retain_all = self.retain_all;
        let rebuilt = catch_unwind(AssertUnwindSafe(
            || -> Result<(Ckt, UpdateReport), EngineError> {
                let mut fresh = Ckt::from_circuit_with_executor(&circuit, config, executor);
                fresh.snapshot_seq = seq;
                fresh.retain_all = retain_all;
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
    /// violations (empty = coherent). Panic-contained, so it is safe to
    /// run on a poisoned engine — that is its purpose: after a contained
    /// panic, `audit` says *what* tore. It is a pure reader: it takes no
    /// lock of its own and writes nothing, so audits may run at once.
    ///
    /// Checks: poisoning, owner-index structure, partition graph
    /// coherence, per-block resolvability, amplitude finiteness, norm
    /// conservation, and snapshot version monotonicity. A final entry
    /// must be held, unless a removal left it evicted in a block the
    /// next publication replays ([`Ckt::snap_dirty`]); the norm check is
    /// then skipped.
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
                Ok(Ok(slot)) => {
                    let norm = block_norm(b, &slot);
                    if norm.is_finite() {
                        total += norm;
                    } else {
                        out.push(InvariantViolation::NonFiniteAmplitude { block: b });
                        norm_meaningful = false;
                    }
                }
                Ok(Err(_)) if self.snap_dirty.contains(&b) => norm_meaningful = false,
                _ => {
                    out.push(InvariantViolation::ResolutionFailure { block: b });
                    norm_meaningful = false;
                }
            }
        }
        if norm_meaningful && (total - 1.0).abs() > self.config.norm_tolerance {
            out.push(InvariantViolation::NormDrift {
                norm_sqr: total,
                tolerance: self.config.norm_tolerance,
            });
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

    /// Current frontier size: the partitions marked for the next update.
    /// Their successors re-run too, but join the frontier only when the
    /// update closes it.
    pub fn frontier_len(&self) -> usize {
        self.graph.dirty_len()
    }

    // ---- circuit modifiers ----------------------------------------------

    /// Inserts an empty net at the front. Infallible: net creation
    /// touches only the circuit (the authoritative structure recovery
    /// replays), never the simulation state, so it cannot tear.
    pub fn insert_net_front(&mut self) -> NetId {
        let id = self.circuit.insert_net_front();
        self.net_rows.insert(id, Vec::new());
        id
    }

    /// Appends an empty net at the back (infallible; see
    /// [`Ckt::insert_net_front`]).
    pub fn push_net(&mut self) -> NetId {
        let id = self.circuit.push_net();
        self.net_rows.insert(id, Vec::new());
        id
    }

    /// Inserts an empty net right after `after` (the paper's `insert_net`).
    pub fn insert_net_after(&mut self, after: NetId) -> Result<NetId, EngineError> {
        self.ensure_healthy()?;
        let id = self.circuit.insert_net_after(after)?;
        self.net_rows.insert(id, Vec::new());
        Ok(id)
    }

    /// Inserts an empty net right before `before`.
    pub fn insert_net_before(&mut self, before: NetId) -> Result<NetId, EngineError> {
        self.ensure_healthy()?;
        let id = self.circuit.insert_net_before(before)?;
        self.net_rows.insert(id, Vec::new());
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
        self.net_rows.remove(&net);
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
        let row =
            match qtask_partition::lower_gate(gate.kind(), gate.control_mask(), gate.targets()) {
                LoweredGate::Identity => None,
                LoweredGate::Linear(op) => Some(self.create_row(net, op, seq)),
            };
        self.gate_rows.insert(gid, row);
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
        if let Some(row_id) = self.gate_rows.remove(&gate).expect("gate had sim info") {
            self.remove_row(row_id);
            let rows = self.net_rows.get_mut(&net).expect("net is live");
            rows.retain(|r| *r != row_id);
        }
        Ok(removed)
    }

    // ---- row construction helpers ---------------------------------------

    /// The row after which this net's rows begin: the last row of the
    /// nearest preceding net that has rows (None = global front).
    fn net_anchor(&self, net: NetId) -> Option<RowId> {
        let mut cur = self.circuit.prev_net(net);
        while let Some(n) = cur {
            if let Some(&r) = self.net_rows.get(&n).and_then(|rows| rows.last()) {
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

    /// Lowers a gate's op into a row of its net, placed per the
    /// row-order policy: Sorted keeps the net's rows by ascending max
    /// partition block count.
    fn create_row(&mut self, net: NetId, op: qtask_partition::LinearOp, seq: u64) -> RowId {
        let specs = derive_partitions(&op.pattern(self.num_qubits()), &self.geom);
        let max_blocks = specs.iter().map(|s| s.num_blocks()).max().unwrap_or(0);
        let row = Row {
            net,
            op,
            parts: Vec::new(),
            max_part_blocks: max_blocks,
            transient: 0,
            label: Arc::from(format!("G{seq}")),
        };
        let net_rows = &self.net_rows[&net];
        let insert_idx = match self.config.row_order {
            RowOrderPolicy::SortedByBlockCount => net_rows
                .iter()
                .position(|r| self.rows[r.key()].max_part_blocks > max_blocks)
                .unwrap_or(net_rows.len()),
            RowOrderPolicy::Append => net_rows.len(),
        };
        let row_id = match net_rows.get(insert_idx) {
            Some(before) => RowId(self.rows.insert_before(before.key(), row)),
            None => {
                // After the net's current last row, or after the net anchor.
                let after = net_rows.last().copied().or_else(|| self.net_anchor(net));
                self.insert_row_after(after, row)
            }
        };
        let net_rows = self.net_rows.get_mut(&net).expect("net is live");
        net_rows.insert(insert_idx, row_id);
        self.create_partitions(row_id, specs);
        row_id
    }

    /// Inserts a row's partitions as retained nodes — new nodes start
    /// dirty, so they are on the frontier — and queues them for
    /// [`Ckt::link_pending`]. A partition fans out one chunk per grain of
    /// items, its node's execution shape.
    fn create_partitions(&mut self, row_id: RowId, specs: Vec<PartitionSpec>) {
        let chunk = self.geom.grain() as u64;
        let row = &self.rows[row_id.key()];
        let pids: Vec<PartId> = specs
            .into_iter()
            .map(|spec| {
                let chunks = spec.num_tasks(chunk) as u32;
                let part = Partition {
                    row: row_id,
                    spec,
                    pass: Default::default(),
                };
                self.graph.insert(part, chunks, Arc::clone(&row.label))
            })
            .collect();
        self.pending_links.extend_from_slice(&pids);
        self.new_parts.extend_from_slice(&pids);
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
    /// replaces it. Publication is where numerical health is checked:
    /// non-finite amplitudes and out-of-tolerance norm drift fail the
    /// update with [`EngineError::NonFinite`] / [`EngineError::NormDrift`]
    /// and poison the engine.
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
        if self.graph.dirty_len() == 0 && self.latest.is_some() && self.snap_dirty.is_empty() {
            // Nothing to execute, and the latest snapshot is current. Every
            // partition inserted since the last update was removed again.
            self.new_parts.clear();
            let report = UpdateReport {
                norm_error: self.last_norm_error,
                graph_nodes_patched: self.graph.take_patches(),
                staged_ops: std::mem::take(&mut self.staged_ops_pending),
                elapsed: t0.elapsed(),
                ..UpdateReport::default()
            };
            record_update_metrics(&report);
            return Ok(report);
        }
        // Close the frontier over successor edges, then add the replays
        // its reads need: the run is the successor closure and its replays.
        let partition_span = qtask_obs::span!("update/partition");
        self.graph.close_dirty();
        qtask_faults::fault_point!("engine/update_build");
        self.resolve_stats.reset();
        let run = self.plan_run();
        // Detach the previous snapshot spine *before* execution: blocks
        // this update will rewrite (the blocks dirty partitions write,
        // plus blocks of removed rows) are dropped from the engine's own
        // copy, so when no external reader shares the snapshot, the
        // re-executing tasks can reclaim their buffers and the warm
        // update stays allocation-free. A reader-held snapshot keeps its
        // pins and the rewritten blocks fork instead — MVCC isolation.
        let (spine, resolve_all) = self.detach_spine();
        drop(partition_span);
        // Stage the run. The graph's structure (nodes, edges, chunk fans)
        // was patched in place by the modifiers that dirtied these
        // partitions, so no closures are boxed, no edges re-wired,
        // nothing proportional to the circuit.
        let build_span = qtask_obs::span!("update/build");
        // Structural patches accumulated since the previous update — the
        // graph-maintenance cost of the edit window now being absorbed.
        let graph_nodes_patched = self.graph.take_patches();
        let build_elapsed = t0.elapsed();
        drop(build_span);
        let kernel_span = qtask_obs::span!("update/kernel");
        let t1 = Instant::now();
        let stats = self.execute(run);
        let run_elapsed = t1.elapsed();
        drop(kernel_span);
        let (blocks_resolved, owner_probes) = self.resolve_stats.snapshot();
        let stats = stats?;
        self.evict_replayed(run);
        let (graph, new_parts) = (&self.graph, &mut self.new_parts);
        let new = new_parts
            .drain(..)
            .filter(|&p| graph.get(p).is_some())
            .count();
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
            graph_nodes_reused: stats.nodes_run - new,
            graph_nodes_patched,
            staged_ops: std::mem::take(&mut self.staged_ops_pending),
        };
        record_update_metrics(&report);
        Ok(report)
    }

    // ---- transient rows ---------------------------------------------------

    /// Plans the run of the closed dirty set in row order (serial): adds
    /// the blocks it writes to the snapshot's dirty set, records their
    /// last writers, replays each evicted entry the run or the next
    /// publication would read, and stamps every row transient but each
    /// ⌈√n⌉-th of the n it runs, a checkpoint. A read after
    /// a block's first writer in the run reads a writer of the run, since
    /// the dirty set is successor-closed, so only reads before it are
    /// checked, and the publication's only for blocks the run leaves.
    fn plan_run(&mut self) -> u64 {
        self.run_seq += 1;
        let run = self.run_seq;
        let n = self.circuit.num_qubits();
        let mut order = std::mem::take(&mut self.run_order);
        order.clear();
        order.extend_from_slice(self.graph.dirty_nodes());
        let (rows, graph) = (&self.rows, &self.graph);
        let label = |r: RowId| rows.order_label(r.key()).expect("run rows are live");
        order.sort_unstable_by_key(|&pid| label(graph[pid].row));
        // A row's partitions sit together: they share its label.
        let same_row = |a: &PartId, b: &PartId| graph[*a].row == graph[*b].row;
        let n_rows = order.chunk_by(same_row).count();
        let step = (1..).find(|s| s * s >= n_rows).expect("a square root");
        let mut reads = Vec::new();
        for parts in order.chunk_by(same_row) {
            let row = graph[parts[0]].row;
            let op = &rows[row.key()].op;
            let limit = label(row);
            for &pid in parts {
                for b in graph[pid].written_blocks(op, &self.geom, n) {
                    if self.written_run[b] != run {
                        reads.push((b, limit));
                    }
                    self.written_run[b] = run;
                    self.last_writer[b] = Some(row);
                    self.snap_dirty.insert(b);
                }
            }
        }
        let written = &self.written_run;
        for &b in self.snap_dirty.iter().filter(|&&b| written[b] != run) {
            reads.push((b, u64::MAX));
        }
        self.plan_replay(run, reads);
        for (i, parts) in order
            .chunk_by(|a, b| self.graph[*a].row == self.graph[*b].row)
            .enumerate()
        {
            // A checkpoint's stamp of 0 also clears one a replay left.
            let row = &mut self.rows[self.graph[parts[0]].row.key()];
            row.transient = if !self.retain_all && (i + 1) % step != 0 {
                run
            } else {
                0
            };
        }
        self.run_order = order;
        run
    }

    /// Adds to run `run` the replay of each evicted entry a read of
    /// `reads` (block, reader's label) lands on, and of the evicted
    /// entries it reads in turn. Replay rows are stamped transient, as in
    /// a full run. `run_dirty` orders only run nodes, so every cover
    /// between a replay and a run node reading it joins the run as a
    /// pass, which executes nothing. Replays change no amplitude: they
    /// stay out of [`Ckt::snap_dirty`]. Returns whether anything replays.
    fn plan_replay(&mut self, run: u64, mut reads: Vec<(usize, u64)>) -> bool {
        let (rows, graph, geom, n) = (&self.rows, &self.graph, self.geom, self.num_qubits());
        let label = |r: RowId| rows.order_label(r.key()).expect("run rows are live");
        let mut replay = std::mem::take(&mut self.replayed);
        replay.clear();
        let mut seen = HashSet::new();
        while let Some((b, limit)) = reads.pop() {
            let Some(evicted) = self.owners.evicted_before(b, limit, label) else {
                continue;
            };
            let parts = &rows[evicted.key()].parts;
            let pid = parts[parts.partition_point(|&p| (graph[p].spec.block_hi as usize) < b)];
            if !seen.insert(pid) {
                continue;
            }
            qtask_faults::fault_point!("engine/replay");
            let (row, limit) = (&rows[evicted.key()], label(evicted));
            let inputs = graph[pid].written_blocks(&row.op, &geom, n);
            reads.extend(inputs.map(|b| (b, limit)));
            replay.push(pid);
        }
        for &pid in &replay {
            self.graph.mark_dirty(pid);
            self.graph[pid].pass.store(0, Ordering::Relaxed);
            if !self.retain_all {
                self.rows[self.graph[pid].row.key()].transient = run;
            }
        }
        let (rows, graph) = (&self.rows, &self.graph);
        let label = |r: RowId| rows.order_label(r.key()).expect("run rows are live");
        let runs = |p: PartId| graph.is_dirty(p) && graph[p].pass.load(Ordering::Relaxed) != run;
        let pending = |p: PartId| graph.is_dirty(p) && !runs(p);
        let op = |p: PartId| &rows[graph[p].row.key()].op;
        let writes = |p: PartId, c| graph[p].written_blocks(op(p), &geom, n).any(|b| b == c);
        let mut passes = Vec::new();
        for &pid in &replay {
            let at = label(graph[pid].row);
            for c in graph[pid].written_blocks(op(pid), &geom, n) {
                let covers = self.coverage.covers_of(c);
                let after = &covers[covers.partition_point(|&x| label(graph[x].row) <= at)..];
                // The next writer of `c`, passing over a pending one.
                let next = after.iter().position(|&x| writes(x, c) && !pending(x));
                if let Some(i) = next.filter(|&i| runs(after[i])) {
                    passes.extend(after[..i].iter().filter(|&&x| !graph.is_dirty(x)));
                }
            }
        }
        for x in passes {
            self.graph[x].pass.store(run, Ordering::Relaxed);
            self.graph.mark_dirty(x);
        }
        self.replayed = replay;
        !self.replayed.is_empty()
    }

    /// Evicts what run `run`'s replays wrote and no node of the run took.
    /// A replay writes its partition's whole span, but its reader may
    /// need only some of those blocks; the rest would stay held, stamped
    /// transient, which a full run never leaves, and edit by edit the
    /// held bytes would climb. Final entries and the ones before them
    /// stay, as after a full run.
    fn evict_replayed(&mut self, run: u64) {
        let (rows, graph, geom, n) = (&self.rows, &self.graph, self.geom, self.num_qubits());
        let label = |r: RowId| rows.order_label(r.key()).expect("run rows are live");
        for &pid in &self.replayed {
            let row = &rows[graph[pid].row.key()];
            if row.transient == run {
                for b in graph[pid].written_blocks(&row.op, &geom, n) {
                    self.owners.evict_unless_final(b, graph[pid].row, label);
                }
            }
        }
    }

    /// Executes the graph's dirty set, patched in place by the modifiers,
    /// as run `run`: the one place where partitions execute.
    fn execute(&mut self, run: u64) -> Result<DirtyRunStats, EngineError> {
        let chunk = self.geom.grain() as u64;
        // Built field by field, not from `exec_view`: that borrows the
        // whole engine, and `run_dirty` borrows the graph mutably.
        let view = ExecView {
            rows: &self.rows,
            owners: &self.owners,
            stats: &self.resolve_stats,
            geom: self.geom,
            n_qubits: self.circuit.num_qubits(),
            run,
            last_writer: &self.last_writer,
        };
        // This per-run closure executes one chunk of a node's partition;
        // a pass executes nothing. Chunks receive their index and
        // recompute the item sub-range (Figure 6's intra-gate operation
        // parallelism).
        let invoke = move |part: &Partition, chunk_idx: u32| {
            if part.pass.load(Ordering::Relaxed) != run {
                let s = part.spec.item_start + chunk_idx as u64 * chunk;
                exec::exec_linear_partition(view, part, s..(s + chunk).min(part.spec.item_end));
            }
        };
        // `run_dirty` survives panicking tasks the same way `try_run`
        // does: dependents are cancelled, the rest drain, and the first
        // panic is reported here instead of unwinding a worker. Some
        // partitions ran, some were cancelled: the row state is torn.
        // Poison; `recover` rebuilds from the circuit.
        let run_result = self.executor.run_dirty(&mut self.graph, &invoke);
        run_result.map_err(|task_panic| self.poison_with(task_panic.to_string()))
    }

    /// A view for execution outside a run: it takes no predecessor's buffer.
    pub(crate) fn exec_view<'a>(&'a self, stats: &'a ResolveStats) -> ExecView<'a> {
        ExecView {
            rows: &self.rows,
            owners: &self.owners,
            stats,
            geom: self.geom,
            n_qubits: self.num_qubits(),
            run: 0,
            last_writer: &[],
        }
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
    /// since (or none was ever published). Removing a block's last
    /// writer needs no simulation: a last writer copies its input, so its
    /// predecessor still holds its buffer, and reading costs only the
    /// re-resolution of the blocks the removed rows owned. An entry that
    /// handed its buffer on to a removed row (at the second of two tail
    /// removals, say) is replayed first, in a run of its own.
    ///
    /// Pending *insertions* that have not been simulated yet do not
    /// appear: they take effect at the next [`Ckt::update_state`].
    ///
    /// Panics when the engine is poisoned (or publication fails a
    /// numerical-health check); [`Ckt::try_snapshot`] is the non-panicking
    /// variant.
    pub fn snapshot(&mut self) -> StateSnapshot {
        self.try_snapshot().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Ckt::snapshot`] returning errors instead of panicking.
    pub fn try_snapshot(&mut self) -> Result<StateSnapshot, EngineError> {
        self.ensure_healthy()?;
        self.contain(Ckt::snapshot_inner)
    }

    /// Publishes when removals made the latest snapshot stale, or none was
    /// made, replaying evicted final entries first in a run of their own,
    /// through which a pending frontier passes and stays pending.
    fn snapshot_inner(&mut self) -> Result<StateSnapshot, EngineError> {
        if self.latest.is_none() || !self.snap_dirty.is_empty() {
            self.run_seq += 1;
            let run = self.run_seq;
            let pending = self.graph.dirty_nodes().to_vec();
            for &pid in &pending {
                self.graph[pid].pass.store(run, Ordering::Relaxed);
            }
            let reads = self.snap_dirty.iter().map(|&b| (b, u64::MAX)).collect();
            if self.plan_replay(run, reads) {
                self.execute(run)?;
                self.evict_replayed(run);
                for pid in pending {
                    self.graph.mark_dirty(pid);
                }
            }
            let (spine, resolve_all) = self.detach_spine();
            self.publish_spine(spine, resolve_all)?;
        }
        Ok(self.latest.clone().expect("snapshot just published"))
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
    /// the current rows, checks the state's numerical health,
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
                self.publish_block(b, &mut blocks, &stats);
            }
        } else {
            // Take the dirty set so its iteration doesn't hold `&self`
            // while the norm cache is written; its capacity is restored
            // below to keep the warm path allocation-free.
            let snap_dirty = std::mem::take(&mut self.snap_dirty);
            for &b in &snap_dirty {
                self.publish_block(b, &mut blocks, &stats);
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
        if drift > self.config.norm_tolerance {
            qtask_obs::counter!("core.drift_events").inc();
            qtask_obs::event!("update/norm_drift");
            return Err(self.poison_err(EngineError::NormDrift {
                norm_sqr: total,
                tolerance: self.config.norm_tolerance,
            }));
        }
        let prev_version = self.snapshot_seq;
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
            };
            for obs in &self.observers {
                obs.on_publish(&snap, &delta);
            }
        }
        Ok(blocks_resolved)
    }

    /// Resolves block `b`'s final entry into `blocks` and refreshes its
    /// norm. The run or `snapshot()` that precedes a publication replays
    /// every evicted final entry it reads, so the entry is held.
    fn publish_block(&mut self, b: usize, blocks: &mut Spine, stats: &ResolveStats) {
        let data = self.resolve_final_data(b, stats);
        let data = data.expect("a publication's replays hold the final entries");
        self.block_norms[b] = block_norm(b, &data);
        blocks.set(b, data);
    }

    /// Registers a publication observer (e.g. a view registry). The hook
    /// runs synchronously on the writer inside every publish; see
    /// [`SnapshotObserver`] for the contract. Observers survive
    /// [`Ckt::recover`].
    pub fn attach_observer(&mut self, observer: Arc<dyn SnapshotObserver>) {
        self.observers.push(observer);
    }

    /// Validates the owner index's structure: every list is in row order
    /// and names only live rows; a row with no partition on the frontier
    /// owns exactly the blocks it writes (the span blocks its pattern
    /// touches), any other row a subset of
    /// them. An evicted entry, which has no buffer, still counts as owned.
    /// O(rows × blocks); tests only.
    pub fn validate_owner_index(&self) -> Result<(), String> {
        for b in 0..self.geom.num_blocks() {
            let mut prev = None;
            for (r, _) in self.owners.entries(b) {
                let label = self.rows.order_label(r.key());
                if label.is_none() || label <= prev {
                    return Err(format!("block {b}: {r:?} is dead or out of order"));
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

    /// A chain of nine linear rows over every block, run together: every
    /// third row is a checkpoint (⌈√9⌉ = 3), every other row hands its
    /// buffers to the next one, and the last row copies, so it leaves
    /// its predecessor held. Its removal then needs no simulation; the
    /// next removal replays the evicted entry it uncovers, and an
    /// insert inside the chain replays what it reads.
    #[test]
    fn transient_rows_evict_and_rematerialize() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(6, cfg);
        let nets: Vec<NetId> = (0..9).map(|_| ckt.push_net()).collect();
        let gates: Vec<GateId> = nets
            .iter()
            .map(|&net| ckt.insert_gate(GateKind::X, net, &[0]).unwrap())
            .collect();
        ckt.update_state().unwrap();
        let blocks = ckt.geometry().num_blocks();
        let owned = |ckt: &Ckt| ckt.memory_stats().owned_blocks;
        let held_rows = |ckt: &Ckt| {
            let held: Vec<RowId> = (0..blocks)
                .flat_map(|b| ckt.owners.entries(b))
                .filter(|(_, data)| data.is_some())
                .map(|(row, _)| row)
                .collect();
            ckt.rows
                .keys()
                .enumerate()
                .filter(|&(_, k)| held.contains(&RowId(k)))
                .map(|(i, _)| i + 1)
                .collect::<Vec<_>>()
        };
        // Checkpoints 3, 6, 9 and the last writer's predecessor 8.
        assert_eq!(held_rows(&ckt), vec![3, 6, 8, 9]);
        assert_eq!(owned(&ckt), 4 * blocks);
        assert_eq!(ckt.owners.num_entries(), 9 * blocks);
        ckt.validate_owner_index().unwrap();

        ckt.remove_gate(gates[8]).unwrap();
        let snap = ckt.snapshot();
        assert_eq!(snap.capture_report().blocks_resolved, blocks as u64);
        assert_eq!(owned(&ckt), 3 * blocks, "no simulation");
        ckt.remove_gate(gates[7]).unwrap();
        let snap = ckt.snapshot();
        assert_eq!(held_rows(&ckt), vec![3, 6, 7], "row 7 replayed");
        assert!(snap.amplitude(1).is_one(1e-12), "seven X gates");

        let extra = ckt.insert_net_after(nets[0]).unwrap();
        ckt.insert_gate(GateKind::X, extra, &[1]).unwrap();
        ckt.update_state().unwrap();
        assert!(ckt.latest_snapshot().unwrap().amplitude(3).is_one(1e-12));
        assert_eq!(ckt.audit(), vec![]);
    }

    /// A net's superposition gates are rows of their own: a dense gate
    /// re-added on the qubit of a removed one replaces it instead of
    /// stacking on it, and each step re-simulates to the flat kernels
    /// applied gate at a time.
    #[test]
    fn readded_dense_factor_replaces_instead_of_stacking() {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(4, cfg);
        let net = ckt.push_net();
        let gates: Vec<GateId> = [0u8, 2, 3]
            .iter()
            .map(|&t| ckt.insert_gate(GateKind::H, net, &[t]).unwrap())
            .collect();
        assert_eq!(ckt.num_rows(), 3, "one row per dense gate");
        let check = |ckt: &mut Ckt, gates: &[(GateKind, u8)]| {
            ckt.update_state().unwrap();
            let mut want = qtask_num::vecops::ket_zero(4);
            for &(kind, t) in gates {
                qtask_partition::kernels::apply_gate(kind, 0, &[t], &mut want);
            }
            let got = ckt.latest_snapshot().unwrap().state();
            assert!(qtask_num::vecops::approx_eq(&got, &want, 1e-12));
        };
        let (h, u) = (GateKind::H, GateKind::U3(0.3, 0.8, 1.1));
        check(&mut ckt, &[(h, 0), (h, 2), (h, 3)]);
        ckt.remove_gate(gates[1]).unwrap();
        check(&mut ckt, &[(h, 0), (h, 3)]);
        ckt.remove_gate(gates[0]).unwrap();
        ckt.insert_gate(u, net, &[0]).unwrap();
        check(&mut ckt, &[(u, 0), (h, 3)]);
        assert_eq!(ckt.audit(), vec![]);
    }
}
