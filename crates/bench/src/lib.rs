//! Shared benchmark harness: simulator construction, measurement
//! protocols, and table printing for the per-table/figure bench targets.
//!
//! Every target prints the same rows/series the paper reports. Sizes are
//! scaled to this machine by default and can be overridden:
//!
//! | Env var | Default | Meaning |
//! |---------|---------|---------|
//! | `QTASK_BENCH_REPS` | 2 | repetitions per measurement (median) |
//! | `QTASK_BENCH_MAX_QUBITS` | 16 | cap on per-circuit qubit count |
//! | `QTASK_BENCH_VQE_BLOCKS` | 120 | UCCSD excitation blocks (914 = paper) |
//! | `QTASK_BENCH_THREADS` | min(16, cores) | worker threads |
//! | `QTASK_BENCH_FULL` | unset | `1` = paper-exact sizes everywhere |

#![forbid(unsafe_code)]

use qtask_baselines::{QiskitLike, QulacsLike, Simulator};
use qtask_circuit::{Circuit, CircuitError, GateId, NetId};
use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_num::Complex64;
use qtask_taskflow::Executor;
use std::sync::Arc;
use std::time::Instant;

/// Harness options, read from the environment.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Repetitions per measurement; the median is reported.
    pub reps: usize,
    /// Cap on circuit qubit counts.
    pub max_qubits: u8,
    /// UCCSD ansatz blocks for `vqe_uccsd`.
    pub vqe_blocks: usize,
    /// Worker threads.
    pub threads: usize,
    /// Paper-exact sizes (ignores the caps).
    pub full: bool,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Works around glibc's per-thread malloc arenas, which on this class of
/// container are an order of magnitude slower for the 4 KiB
/// allocate-and-retain pattern state-vector simulation produces on worker
/// threads (measured: 123 µs vs 9 µs per block). `MALLOC_ARENA_MAX` must
/// be set before the allocator initializes, so the harness re-executes
/// itself once with the variable set. Call first in every bench `main`.
pub fn harness_init() {
    if std::env::var_os("MALLOC_ARENA_MAX").is_none() {
        let exe = std::env::current_exe().expect("current_exe");
        let args: Vec<String> = std::env::args().skip(1).collect();
        let status = std::process::Command::new(exe)
            .args(&args)
            .env("MALLOC_ARENA_MAX", "2")
            .status()
            .expect("re-exec benchmark with MALLOC_ARENA_MAX=2");
        std::process::exit(status.code().unwrap_or(1));
    }
}

impl Opts {
    /// Reads options from the environment.
    pub fn from_env() -> Opts {
        let full = std::env::var("QTASK_BENCH_FULL").is_ok_and(|v| v == "1");
        Opts {
            reps: env_usize("QTASK_BENCH_REPS", 2),
            max_qubits: env_usize("QTASK_BENCH_MAX_QUBITS", if full { 26 } else { 16 }) as u8,
            vqe_blocks: env_usize("QTASK_BENCH_VQE_BLOCKS", if full { 914 } else { 120 }),
            threads: env_usize(
                "QTASK_BENCH_THREADS",
                qtask_taskflow::default_threads().min(16),
            ),
            full,
        }
    }

    /// Builds a catalog circuit under these options (qubit cap + reduced
    /// VQE depth), returning the circuit and the qubit count used.
    pub fn build_circuit(&self, name: &str) -> (Circuit, u8) {
        let entry = qtask_bench_circuits::catalog()
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("unknown catalog circuit '{name}'"));
        let n = entry.paper.qubits.min(self.max_qubits);
        let circuit = if name == "vqe_uccsd" && !self.full {
            qtask_bench_circuits::gens_app::vqe_uccsd_with(n, self.vqe_blocks)
        } else {
            (entry.build)(n)
        };
        (circuit, n)
    }
}

/// Which simulator to construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// The qTask engine.
    QTask,
    /// The Qulacs-like baseline.
    Qulacs,
    /// The Qiskit-like baseline.
    Qiskit,
}

impl SimKind {
    /// All three, in the paper's column order (Qulacs, Qiskit, qTask).
    pub const TABLE_ORDER: [SimKind; 3] = [SimKind::Qulacs, SimKind::Qiskit, SimKind::QTask];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SimKind::QTask => "qTask",
            SimKind::Qulacs => "Qulacs-like",
            SimKind::Qiskit => "Qiskit-like",
        }
    }
}

/// Adapter: the qTask engine behind the common [`Simulator`] protocol.
pub struct CktSim {
    ckt: Ckt,
}

impl CktSim {
    /// Wraps a new engine.
    pub fn new(num_qubits: u8, config: SimConfig) -> CktSim {
        CktSim {
            ckt: Ckt::with_config(num_qubits, config),
        }
    }

    /// Wraps a new engine sharing an executor.
    pub fn with_executor(num_qubits: u8, config: SimConfig, ex: Arc<Executor>) -> CktSim {
        CktSim {
            ckt: Ckt::with_executor(num_qubits, config, ex),
        }
    }

    /// The wrapped engine.
    pub fn ckt(&self) -> &Ckt {
        &self.ckt
    }
}

impl Simulator for CktSim {
    fn name(&self) -> &str {
        "qtask"
    }

    fn num_qubits(&self) -> u8 {
        self.ckt.num_qubits()
    }

    fn push_net(&mut self) -> NetId {
        self.ckt.push_net()
    }

    fn insert_gate(
        &mut self,
        kind: GateKind,
        net: NetId,
        qubits: &[u8],
    ) -> Result<GateId, CircuitError> {
        self.ckt.insert_gate(kind, net, qubits).map_err(demote)
    }

    fn remove_gate(&mut self, gate: GateId) -> Result<(), CircuitError> {
        self.ckt.remove_gate(gate).map(|_| ()).map_err(demote)
    }

    fn remove_net(&mut self, net: NetId) -> Result<(), CircuitError> {
        self.ckt.remove_net(net).map_err(demote)
    }

    fn update_state(&mut self) {
        self.ckt.update_state().unwrap();
    }

    // Queries read the snapshot the last update published, so the
    // measured protocol prices snapshot capture *and* snapshot reads.

    fn amplitude(&self, idx: usize) -> Complex64 {
        self.ckt
            .latest_snapshot()
            .expect("query after update_state")
            .amplitude(idx)
    }

    fn state_vec(&self) -> Vec<Complex64> {
        self.ckt
            .latest_snapshot()
            .expect("query after update_state")
            .state()
    }

    fn num_gates(&self) -> usize {
        self.ckt.circuit().num_gates()
    }
}

/// Maps engine errors onto the baseline protocol's [`CircuitError`]
/// surface. Anything beyond a circuit-validation failure (poisoning,
/// norm drift) is an engine fault the benches must not paper over.
fn demote(e: qtask_core::EngineError) -> CircuitError {
    match e {
        qtask_core::EngineError::Circuit(c) => c,
        other => panic!("engine failed during benchmark: {other}"),
    }
}

/// Constructs a simulator of `kind` sharing `ex`.
pub fn make_sim(
    kind: SimKind,
    num_qubits: u8,
    ex: &Arc<Executor>,
    config: &SimConfig,
) -> Box<dyn Simulator> {
    match kind {
        SimKind::QTask => Box::new(CktSim::with_executor(
            num_qubits,
            config.clone(),
            Arc::clone(ex),
        )),
        SimKind::Qulacs => Box::new(QulacsLike::with_executor(num_qubits, Arc::clone(ex))),
        SimKind::Qiskit => Box::new(QiskitLike::with_executor(num_qubits, Arc::clone(ex))),
    }
}

/// The per-level gate list of a circuit (replay representation).
pub type Levels = Vec<Vec<(GateKind, Vec<u8>)>>;

/// Extracts the levels of a circuit for replaying into simulators.
pub fn levels_of(circuit: &Circuit) -> Levels {
    circuit
        .nets()
        .map(|(_, net)| {
            net.gates()
                .iter()
                .map(|gid| {
                    let g = circuit.gate(*gid).expect("net gate is live");
                    (g.kind(), g.qubits().to_vec())
                })
                .collect()
        })
        .collect()
}

/// Loads all levels into a simulator without updating.
pub fn load_levels(sim: &mut dyn Simulator, levels: &Levels) -> Vec<(NetId, Vec<GateId>)> {
    levels
        .iter()
        .map(|level| {
            let net = sim.push_net();
            let gates = level
                .iter()
                .map(|(kind, qubits)| sim.insert_gate(*kind, net, qubits).expect("replay"))
                .collect();
            (net, gates)
        })
        .collect()
}

/// Measures full simulation: build everything, time one `update_state`.
pub fn full_sim_ms(sim: &mut dyn Simulator, levels: &Levels) -> f64 {
    load_levels(sim, levels);
    let t0 = Instant::now();
    sim.update_state();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Measures the paper's incremental protocol: level-by-level construction
/// with an update after every net; returns total milliseconds.
pub fn incremental_sim_ms(sim: &mut dyn Simulator, levels: &Levels) -> f64 {
    let t0 = Instant::now();
    for level in levels {
        let net = sim.push_net();
        for (kind, qubits) in level {
            sim.insert_gate(*kind, net, qubits).expect("replay");
        }
        sim.update_state();
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Writes a `BENCH_*.json` trajectory file at the workspace root.
///
/// cargo runs benches with the package dir as cwd; the trajectory files
/// live two levels up. Failure to write is reported, not fatal — benches
/// must still print their tables on a read-only checkout.
pub fn write_bench_json(file_name: &str, json: &str) {
    let out = format!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../{}"), file_name);
    match std::fs::write(&out, json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => println!("\ncould not write {out}: {e}"),
    }
}

/// Extracts the inner rows of a `"name": [ ... ]` array from previously
/// written JSON, so a bench can rewrite its own series while preserving
/// a sibling's. String-level on purpose: the default build carries no
/// JSON parser, and the emitters control the shape.
fn extract_series(text: &str, name: &str) -> Option<Vec<String>> {
    let key = format!("\"{name}\": [");
    let start = text.find(&key)? + key.len();
    let mut depth = 1i32;
    for (i, c) in text[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(
                        text[start..start + i]
                            .lines()
                            .map(str::trim)
                            .filter(|l| !l.is_empty())
                            .map(str::to_string)
                            .collect(),
                    );
                }
            }
            _ => {}
        }
    }
    None
}

fn fmt_series(rows: &[String]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let body = rows
        .iter()
        .map(|r| format!("      {}", r.trim_end_matches(',')))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n    ]")
}

/// Writes one section (`"full"` or `"incremental"`) of
/// `BENCH_scaling.json`, merging in whatever the sibling bench last
/// wrote for the other section. fig17 and fig18 are separate bench
/// binaries but share one trajectory file.
pub fn write_scaling_section(section: &str, rows: &[String]) {
    assert!(section == "full" || section == "incremental");
    let other_name = if section == "full" {
        "incremental"
    } else {
        "full"
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let other = extract_series(&existing, other_name).unwrap_or_default();
    let (full, inc) = if section == "full" {
        (rows, other.as_slice())
    } else {
        (other.as_slice(), rows)
    };
    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"series\": {{\n    \"full\": {},\n    \
         \"incremental\": {}\n  }}\n}}\n",
        fmt_series(full),
        fmt_series(inc)
    );
    write_bench_json("BENCH_scaling.json", &json);
}

/// Runs `f` `reps` times and returns the median of the returned values.
pub fn median_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let mut xs: Vec<f64> = (0..reps.max(1)).map(|_| f()).collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Geometric mean (the paper's summary row).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints a separator line sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats milliseconds compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.1}s", ms / 1000.0)
    } else if ms >= 10.0 {
        format!("{ms:.0}ms")
    } else {
        format!("{ms:.2}ms")
    }
}

/// Formats bytes as GB with sensible precision.
pub fn fmt_gb(bytes: usize) -> String {
    let gb = bytes as f64 / 1e9;
    if gb >= 0.1 {
        format!("{gb:.2}")
    } else {
        format!("{:.4}", gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parse_defaults() {
        let o = Opts::from_env();
        assert!(o.reps >= 1);
        assert!(o.threads >= 1);
    }

    #[test]
    fn levels_round_trip() {
        let (circuit, _) = Opts {
            reps: 1,
            max_qubits: 6,
            vqe_blocks: 10,
            threads: 2,
            full: false,
        }
        .build_circuit("bv");
        let levels = levels_of(&circuit);
        let total: usize = levels.iter().map(Vec::len).sum();
        assert_eq!(total, circuit.num_gates());
        // Replaying into the oracle reproduces the same state as qTask.
        let mut naive = qtask_baselines::NaiveSim::new(circuit.num_qubits());
        load_levels(&mut naive, &levels);
        naive.update_state();
        let mut qt = CktSim::new(circuit.num_qubits(), SimConfig::with_block_size(16));
        load_levels(&mut qt, &levels);
        qt.update_state();
        assert!(qtask_num::vecops::approx_eq(
            &naive.state_vec(),
            &qt.state_vec(),
            1e-9
        ));
    }

    #[test]
    fn median_and_geomean() {
        let mut vals = vec![3.0, 1.0, 2.0].into_iter();
        assert_eq!(median_of(3, || vals.next().unwrap()), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
