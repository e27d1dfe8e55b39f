//! The simulator protocol shared by qTask and the baselines, and the
//! baselines' safe state splitter.
//!
//! A parallel gate hands each task its own `&mut` pieces of the state,
//! cut with `split_at_mut` alone (`split`), and runs them as the chunks
//! of one retained fan node (`Fan`), the executor's `run_dirty` path.

use qtask_circuit::{CircuitError, GateId, NetId};
use qtask_gates::GateKind;
use qtask_num::{Complex64, Mat2};
use qtask_partition::ItemPattern;
use qtask_taskflow::{Executor, NodeId, RetainedGraph};
use std::sync::{Arc, Mutex};

/// A state-vector simulator driven by the benchmark protocol: circuit
/// modifiers followed by update calls (incremental for qTask, full
/// re-simulation for the baselines), then state queries.
pub trait Simulator {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// Number of qubits.
    fn num_qubits(&self) -> u8;

    /// Appends an empty net.
    fn push_net(&mut self) -> NetId;

    /// Inserts a gate into a net.
    fn insert_gate(
        &mut self,
        kind: GateKind,
        net: NetId,
        qubits: &[u8],
    ) -> Result<GateId, CircuitError>;

    /// Removes a gate.
    fn remove_gate(&mut self, gate: GateId) -> Result<(), CircuitError>;

    /// Removes a net and all its gates.
    fn remove_net(&mut self, net: NetId) -> Result<(), CircuitError>;

    /// Brings the state up to date with the circuit.
    fn update_state(&mut self);

    /// The amplitude of basis state `idx` (after `update_state`).
    fn amplitude(&self, idx: usize) -> Complex64;

    /// The full state vector (after `update_state`).
    fn state_vec(&self) -> Vec<Complex64>;

    /// Gate count (diagnostics).
    fn num_gates(&self) -> usize;
}

/// The [`Simulator`] methods every baseline forwards to its `circuit`
/// field or reads off its flat `state` vector: all but `name` and
/// `update_state`. Expands inside an `impl Simulator` block; the caller
/// imports the types it names.
macro_rules! circuit_and_state {
    () => {
        fn num_qubits(&self) -> u8 {
            self.circuit.num_qubits()
        }

        fn push_net(&mut self) -> NetId {
            self.circuit.push_net()
        }

        fn insert_gate(
            &mut self,
            kind: GateKind,
            net: NetId,
            qubits: &[u8],
        ) -> Result<GateId, CircuitError> {
            self.circuit.insert_gate(kind, net, qubits)
        }

        fn remove_gate(&mut self, gate: GateId) -> Result<(), CircuitError> {
            self.circuit.remove_gate(gate).map(|_| ())
        }

        fn remove_net(&mut self, net: NetId) -> Result<(), CircuitError> {
            self.circuit.remove_net(net).map(|_| ())
        }

        fn amplitude(&self, idx: usize) -> Complex64 {
            self.state[idx]
        }

        fn state_vec(&self) -> Vec<Complex64> {
            self.state.clone()
        }

        fn num_gates(&self) -> usize {
            self.circuit.num_gates()
        }
    };
}
pub(crate) use circuit_and_state;

/// Minimum items per parallel task; below this the per-task overhead
/// dominates and the gate is applied serially.
const MIN_PAR_ITEMS: u64 = 4096;

/// One task's share of a gate: amplitudes no other task touches.
pub(crate) enum Piece<'a> {
    /// An aligned block holding every qubit the gate acts on: a complete
    /// sub-state of `log2(len)` qubits for the serial kernels.
    Sub(&'a mut [Complex64]),
    /// A share of a gate split on its own qubits (see [`split`]).
    Part(Part<'a>),
}

/// Aligned runs of `2^k` amplitudes holding some of a gate's items: their
/// low indices in `lo`, whose first element is global index `at`, and
/// their partners in `hi`, or in `lo` itself while the pairing bit lies
/// below `k`. The split has fixed every bit at or above `k`.
pub(crate) struct Part<'a> {
    at: usize,
    lo: &'a mut [Complex64],
    hi: Option<&'a mut [Complex64]>,
}

impl Part<'_> {
    /// Calls `f(at, lo_run, hi_run)` on each maximal contiguous run of the
    /// gate's items, in rank order: `at` is the global index of
    /// `lo_run[0]`, and `hi_run[j]` is the partner of `lo_run[j]` (empty
    /// for a diagonal op, whose items have no partner).
    pub(crate) fn for_each_run(
        self,
        pattern: &ItemPattern,
        mut f: impl FnMut(usize, &mut [Complex64], &mut [Complex64]),
    ) {
        let Part { at, lo, mut hi } = self;
        let m = lo.len() as u64 - 1;
        let len = 1usize << (pattern.free_mask & m).trailing_ones();
        // The items come in runs of `len` consecutive low indices, whose
        // starts enumerate the free bits above the run, O(1) each.
        let starts = ItemPattern {
            base: pattern.base & m,
            free_mask: pattern.free_mask & m & !(len as u64 - 1),
            partner_clear: pattern.partner_clear & m,
            partner_set: pattern.partner_set & m,
        };
        for start in starts.iter_lows(0..starts.num_items()) {
            let (low, high) = (start as usize, starts.partner(start) as usize);
            match hi.as_deref_mut() {
                Some(hi) => f(at + low, &mut lo[low..low + len], &mut hi[high..high + len]),
                None if high == low => f(at + low, &mut lo[low..low + len], &mut []),
                None => {
                    let (a, b) = lo.split_at_mut(high);
                    f(at + low, &mut a[low..low + len], &mut b[..len]);
                }
            }
        }
    }
}

/// The highest qubit among a gate's controls and targets.
pub(crate) fn top_qubit(controls: u64, targets: &[u8]) -> u32 {
    targets.iter().fold(controls, |m, &t| m | 1 << t).ilog2()
}

/// Applies `mat` to each pair `(lo[j], hi[j])`, one item at a time.
pub(crate) fn apply_pairs(mat: &Mat2, lo: &mut [Complex64], hi: &mut [Complex64]) {
    for (x, y) in lo.iter_mut().zip(hi) {
        (*x, *y) = mat.apply(*x, *y);
    }
}

/// Splits `state` into at least `tasks` disjoint pieces (a power of two)
/// for the gate whose items `pattern` enumerates and whose highest qubit
/// is `top`. Every piece is halved on the state's bits from the top down,
/// by the bit's role in the pattern:
///
/// * a free bit splits each piece, and both sides of a pair in step;
/// * a bit that low indices and partners share (a control, or the
///   touched half of a diagonal op's target) keeps that half;
/// * the bit that tells a low index from its partner (a target) pairs
///   the piece's lower half with its upper half. A swap's lower target
///   then keeps the low side's upper half and the partner side's lower
///   half.
///
/// Pieces cut on bits above `top` alone hold the whole gate and come out
/// as [`Piece::Sub`]; the rest as [`Piece::Part`].
fn split<'a>(
    state: &'a mut [Complex64],
    pattern: &ItemPattern,
    top: u32,
    tasks: usize,
) -> Vec<Piece<'a>> {
    let mut k = state.len().trailing_zeros();
    let mut parts = vec![(0, state, None)];
    while parts.len() < tasks {
        k -= 1;
        let (bit, half) = (1u64 << k, 1usize << k);
        let lo_up = pattern.base & bit != 0;
        let hi_up = pattern.partner(pattern.base) & bit != 0;
        let mut next = Vec::with_capacity(2 * parts.len());
        for (at, lo, hi) in parts {
            let (l0, l1) = lo.split_at_mut(half);
            let (h0, h1) = hi.map(|h: &mut [_]| h.split_at_mut(half)).unzip();
            if pattern.free_mask & bit != 0 {
                next.extend([(at, l0, h0), (at + half, l1, h1)]);
                continue;
            }
            let (keep, other) = if lo_up { (l1, l0) } else { (l0, l1) };
            // A pair keeps its partner side's half; a single piece turns
            // into a pair on the bit that tells the partners apart.
            let hi = if hi_up { h1 } else { h0 }.or((lo_up != hi_up).then_some(other));
            next.push((at + half * lo_up as usize, keep, hi));
        }
        parts = next;
    }
    let whole = k > top;
    let piece = |(at, lo, hi)| match whole {
        true => Piece::Sub(lo),
        false => Piece::Part(Part { at, lo, hi }),
    };
    parts.into_iter().map(piece).collect()
}

/// The retained fan the baselines run each parallel gate on: one node
/// whose chunk count is the gate's piece count. Each chunk takes its
/// piece out of its own mutex, which no other task touches.
pub(crate) struct Fan {
    executor: Arc<Executor>,
    graph: RetainedGraph<()>,
    node: NodeId,
    width: u32,
    name: Arc<str>,
}

impl Fan {
    /// A fan on `executor`, its node named `name`.
    pub(crate) fn new(executor: Arc<Executor>, name: &str) -> Fan {
        let name: Arc<str> = Arc::from(name);
        let mut graph = RetainedGraph::new();
        // A barrier until the first parallel gate sizes the fan.
        let node = graph.insert((), 0, name.clone());
        Fan {
            executor,
            graph,
            node,
            width: 0,
            name,
        }
    }

    /// Applies a gate to `state`, blocking until it is done (the barrier
    /// between gates): `apply` runs on the caller with the whole state if
    /// the gate has too few items to share, else once per [`split`]
    /// piece: four per thread, rounded up to a power of two, each of at
    /// least `MIN_PAR_ITEMS` items.
    pub(crate) fn run(
        &mut self,
        state: &mut [Complex64],
        pattern: &ItemPattern,
        top: u32,
        apply: &(dyn Fn(Piece<'_>) + Sync),
    ) {
        let items = pattern.num_items();
        let threads = self.executor.num_threads().max(1) as u64;
        let chunk = items.div_ceil(threads * 4).max(MIN_PAR_ITEMS);
        if chunk >= items {
            return apply(Piece::Sub(state));
        }
        let slots: Vec<Mutex<Option<Piece<'_>>>> =
            split(state, pattern, top, items.div_ceil(chunk) as usize)
                .into_iter()
                .map(|piece| Mutex::new(Some(piece)))
                .collect();
        let width = slots.len() as u32;
        if width == self.width {
            self.graph.mark_dirty(self.node);
        } else {
            self.graph.remove(self.node);
            self.node = self.graph.insert((), width, self.name.clone());
            self.width = width;
        }
        let invoke = |_: &(), chunk: u32| {
            let slot = &slots[chunk as usize];
            let piece = slot.lock().expect("only this chunk locks it").take();
            apply(piece.expect("a chunk takes its piece once"));
        };
        self.executor
            .run_dirty(&mut self.graph, &invoke)
            .expect("baseline gate task panicked");
    }
}
