//! The [`Ckt`] engine: modifiers, frontier bookkeeping, incremental update.

use crate::config::{RowOrderPolicy, SimConfig};
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
    /// Every row a checkpoint (`test_support::retain_every_row`).
    pub(crate) retain_all: bool,
    /// Serializes re-materializations, which `&self` audits may run
    /// concurrently: each takes buffers out while it rewrites them.
    remat: parking_lot::Mutex<()>,
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
            last_norm_error: 0.0,
            run_seq: 0,
            last_writer: vec![None; geom.num_blocks()],
            written_run: vec![0; geom.num_blocks()],
            run_order: Vec::new(),
            retain_all: false,
            remat: parking_lot::Mutex::new(()),
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
    /// panic, `audit` says *what* tore. It changes no state it reports
    /// on: it only re-materializes a final entry that a removal left
    /// evicted, to read it.
    ///
    /// Checks: poisoning, owner-index structure, partition graph
    /// coherence, per-block resolvability, amplitude finiteness, norm
    /// conservation, and snapshot version monotonicity.
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
            transient: 0,
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
        if self.graph.dirty_len() == 0 {
            // Nothing to execute, but removals may have changed the resolved
            // view: republish the snapshot if so, or publish the first one.
            let snapshot_blocks_resolved = self
                .republish_if_stale(|| {
                    qtask_faults::fault_point!("engine/update_publish");
                })?
                .unwrap_or(0);
            let report = UpdateReport {
                snapshot_blocks_resolved,
                norm_error: self.last_norm_error,
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
            run,
            last_writer: &self.last_writer,
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
            graph_nodes_reused: stats.nodes_reused,
            graph_nodes_patched,
            staged_ops: std::mem::take(&mut self.staged_ops_pending),
        };
        record_update_metrics(&report);
        Ok(report)
    }

    // ---- transient rows ---------------------------------------------------

    /// Plans the run of the closed dirty set in row order (serial): adds
    /// the blocks it writes to the snapshot's dirty set, records their
    /// last writers, stamps every row that writes transient but each
    /// ⌈√n⌉-th of those n, a checkpoint, and re-materializes each evicted
    /// entry the run would read. A read after a block's first writer in
    /// the run reads a writer of the run, since the dirty set is
    /// successor-closed, so only reads before it are checked.
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
        let writes = |pid: PartId| !matches!(rows[graph[pid].row.key()].kind, RowKind::Sync);
        let n_rows = order.chunk_by(same_row).filter(|p| writes(p[0])).count();
        let step = (1..).find(|s| s * s >= n_rows).expect("a square root");
        let mut reads = Vec::new();
        for parts in order.chunk_by(same_row) {
            let row = graph[parts[0]].row;
            let kind = &rows[row.key()].kind;
            let limit = label(row);
            let evicted = |b: usize| self.owners.evicted_before(b, limit, label).is_some();
            // A non-local MxV row reads every block before it, the blocks
            // its run partitions write included.
            let reads_all = rows[row.key()].reads_all_blocks(self.geom.block_size());
            if reads_all {
                let first = (0..self.geom.num_blocks()).filter(|&b| self.written_run[b] != run);
                reads.extend(first.filter(|&b| evicted(b)).map(|b| (b, limit)));
            }
            for &pid in parts {
                for b in graph[pid].written_blocks(kind, &self.geom, n) {
                    if !reads_all && self.written_run[b] != run && evicted(b) {
                        reads.push((b, limit));
                    }
                    self.written_run[b] = run;
                    self.last_writer[b] = Some(row);
                    self.snap_dirty.insert(b);
                }
            }
        }
        let mut i = 0;
        for parts in order.chunk_by(same_row) {
            // A sync row owns nothing: its stamp is moot.
            let row = &mut self.rows[graph[parts[0]].row.key()];
            i += usize::from(!matches!(row.kind, RowKind::Sync));
            if !self.retain_all && i % step != 0 {
                row.transient = run;
            }
        }
        self.run_order = order;
        for (b, limit) in reads {
            self.rematerialize(b, limit, &self.resolve_stats);
        }
        run
    }

    /// Makes the read of block `b` before label `limit` land on a held
    /// entry. When it would land on an evicted one, re-runs that entry's
    /// segment serially, with no takes: its partition, after the
    /// partitions that produce its evicted inputs (the entries just
    /// before its row of the blocks it writes, or of every block for a
    /// non-local MxV partition), back to the nearest held entries.
    pub(crate) fn rematerialize(&self, b: usize, limit: u64, stats: &ResolveStats) {
        let label = |r: RowId| {
            self.rows
                .order_label(r.key())
                .expect("owner index holds only live rows")
        };
        let _serial = self.remat.lock();
        let Some(evicted) = self.owners.evicted_before(b, limit, label) else {
            return;
        };
        let view = self.exec_view(stats);
        let n = self.num_qubits();
        let mut segment = vec![self.partition_at(evicted, b)];
        while let Some(&pid) = segment.last() {
            let part = &self.graph[pid];
            let row = &self.rows[part.row.key()];
            let kind = &row.kind;
            let limit = label(part.row);
            let input = |b: usize| {
                let evicted = self.owners.evicted_before(b, limit, label)?;
                Some(self.partition_at(evicted, b))
            };
            let needed = if row.reads_all_blocks(self.geom.block_size()) {
                (0..self.geom.num_blocks()).find_map(input)
            } else {
                part.written_blocks(kind, &self.geom, n).find_map(input)
            };
            if let Some(earlier) = needed {
                segment.push(earlier);
                continue;
            }
            qtask_faults::fault_point!("engine/rematerialize");
            match kind {
                RowKind::Sync => unreachable!("a sync barrier owns no block"),
                RowKind::MxV => exec::exec_mxv_partition(view, part),
                RowKind::Linear(_) => exec::exec_linear_partition(
                    view,
                    part,
                    part.spec.item_start..part.spec.item_end,
                ),
            }
            segment.pop();
        }
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

    /// The partition of `row` whose span holds block `b`.
    fn partition_at(&self, row: RowId, b: usize) -> PartId {
        let parts = &self.rows[row.key()].parts;
        let at = parts.partition_point(|&p| (self.graph[p].spec.block_hi as usize) < b);
        parts[at]
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
    /// removals, say) is re-materialized first.
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

    /// Registers a publication observer (e.g. a view registry). The hook
    /// runs synchronously on the writer inside every publish; see
    /// [`SnapshotObserver`] for the contract. Observers survive
    /// [`Ckt::recover`].
    pub fn attach_observer(&mut self, observer: Arc<dyn SnapshotObserver>) {
        self.observers.push(observer);
    }

    /// Validates the owner index's structure: every list is in row order
    /// and names only live rows; a row with no partition on the frontier
    /// owns exactly the blocks it writes (its MxV partition spans, or the
    /// span blocks its linear pattern touches), any other row a subset of
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

    /// A chain of nine linear rows over every block, run together: every
    /// third row is a checkpoint (⌈√9⌉ = 3), every other row hands its
    /// buffers to the next one, and the last row copies, so it leaves
    /// its predecessor held. Its removal then needs no simulation; the
    /// next removal re-materializes the evicted entry it uncovers, and an
    /// insert inside the chain re-materializes what it reads.
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
        assert_eq!(held_rows(&ckt), vec![3, 6, 7], "row 7 re-materialized");
        assert!(snap.amplitude(1).is_one(1e-12), "seven X gates");

        let extra = ckt.insert_net_after(nets[0]).unwrap();
        ckt.insert_gate(GateKind::X, extra, &[1]).unwrap();
        ckt.update_state().unwrap();
        assert!(ckt.latest_snapshot().unwrap().amplitude(3).is_one(1e-12));
        assert_eq!(ckt.audit(), vec![]);
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
