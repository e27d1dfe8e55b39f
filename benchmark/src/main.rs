//! The repo's benchmark: one seeded, checked, repeatable command that
//! every performance claim is measured with. See `README.md` beside
//! `Cargo.toml` for the metrics, the workloads and how to read the
//! output.
//!
//! With `--workload NAME` the process runs that workload and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Without `--workload` it runs every
//! workload, each in a child process of its own so that no allocator or
//! cache state leaks from one into the next, and ends with a summary.

mod emit;
mod env;
mod inputs;
mod stats;
mod trace;
mod workloads;

use emit::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::Ctx;

const USAGE: &str = "usage: qtask-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--threads N] [--smoke] [--aa | --spread RUNS]";

/// Matches `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    threads: Option<usize>,
    smoke: bool,
    aa: bool,
    spread: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: None,
        trace: false,
        threads: None,
        smoke: false,
        aa: false,
        spread: None,
    };
    fn number<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: cannot read '{v}' as a number"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(argv.next().ok_or("--workload needs a name")?),
            "--seed" => args.seed = number(&flag, argv.next())?,
            "--seconds" => {
                let s: f64 = number(&flag, argv.next())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: {s} is not a run length"));
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = number::<u8>(&flag, argv.next())? != 0,
            "--threads" => args.threads = Some(number::<usize>(&flag, argv.next())?.clamp(1, 256)),
            "--spread" => args.spread = Some(number::<usize>(&flag, argv.next())?.clamp(2, 100)),
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

impl Args {
    fn ctx(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            trace: self.trace,
            smoke: self.smoke,
            // The pool is min(nproc, 2) wide: the numbers are about the
            // engine, not about how many cores the box happens to have.
            threads: self.threads.unwrap_or(env::nproc().min(2)),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = args.ctx();
    let ok = match &args.workload {
        Some(name) => run_workload(name, &ctx),
        None => run_sets(&args, &ctx),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

// ---- one workload, in this process ---------------------------------------

fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace.{workload}.json"))
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<bool, String> {
    println!(
        "# env nproc={} pool_threads={} seed={} seconds={} trace={} smoke={} env: {}",
        env::nproc(),
        ctx.threads,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.smoke,
        env::relevant_env()
    );
    let mut outcome = workloads::run(name, ctx)?;
    let mut correct = outcome.gates_ok && outcome.failed == 0;

    let defs = if ctx.trace { PER_LAYER } else { END_TO_END };
    if ctx.trace {
        // The same latency as `op_ms`, measured with the spans on.
        let op_ms = outcome.metrics.get("op_ms").copied().unwrap_or(0.0);
        outcome.metrics.insert("trace.op_ms", op_ms);
        for (span, n, mean_ns, self_ns) in outcome.trace.self_time_table() {
            println!(
                "# {name} span {span}: n={n} mean={:.3} us self={:.3} us",
                mean_ns / 1e3,
                self_ns / 1e3
            );
        }
        correct &= write_trace(name, &outcome.trace)?;
    }
    for def in defs {
        let value = outcome.metrics.entry(def.name).or_insert(0.0);
        if !value.is_finite() {
            println!("# {name} {} is not a number: {value}", def.name);
            *value = 0.0;
            correct = false;
        }
        println!("{}", emit::metric_line(name, def, *value));
    }
    println!(
        "{name} failed_share {} ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!(
        "{}",
        emit::result_json(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            defs,
            &outcome.metrics
        )
    );
    Ok(correct)
}

/// Writes the kept spans as a Chrome trace and validates file and
/// nesting. False when the trace is not well formed.
fn write_trace(name: &str, trace: &trace::Trace) -> Result<bool, String> {
    let path = trace_path(name);
    let dir = path.parent().expect("trace path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let json = trace.chrome_json();
    std::fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
    let nesting = trace.check_nesting();
    let chrome = qtask_obs::validate_chrome_trace(&json);
    match (&nesting, &chrome) {
        (Ok(ops), Ok(stats)) if stats.open_spans == 0 => {
            println!(
                "# {name} trace: {} spans of {ops} ops in {} (validated; self times sum to \
                 no more than each op)",
                stats.spans,
                path.display()
            );
            Ok(true)
        }
        _ => {
            println!("# {name} TRACE INVALID: nesting {nesting:?}, chrome {chrome:?}");
            Ok(false)
        }
    }
}

// ---- every workload, each in a child process ------------------------------

/// Runs one workload in a child process and reads its result line.
fn run_child(name: &str, ctx: &Ctx) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if ctx.trace { "1" } else { "0" }])
        .args(["--threads", &ctx.threads.to_string()]);
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().rev().find(|l| !l.trim().is_empty());
    let result = last
        .ok_or(format!("{name}: child printed nothing ({})", out.status))
        .and_then(emit::parse_result)?;
    if !out.status.success() && result.correct {
        return Err(format!(
            "{name}: child {} after a correct result",
            out.status
        ));
    }
    Ok(result)
}

/// One run of every workload.
type Set = BTreeMap<&'static str, RunResult>;

fn run_set(ctx: &Ctx) -> Result<Set, String> {
    workloads::NAMES
        .iter()
        .map(|name| Ok((*name, run_child(name, ctx)?)))
        .collect()
}

fn all_correct(set: &Set) -> bool {
    set.values().all(|r| r.correct && r.failed == 0)
}

fn run_sets(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    println!(
        "# qtask-benchmark: {} | git {} | nproc={} pool_threads={} seed={} seconds={}",
        env::tool_line("rustc", &["-V"]),
        env::tool_line("git", &["rev-parse", "HEAD"]),
        env::nproc(),
        ctx.threads,
        ctx.seed,
        ctx.seconds
    );
    if args.aa {
        return run_aa(ctx);
    }
    if let Some(runs) = args.spread {
        return run_spread(ctx, runs);
    }
    let untraced = run_set(&Ctx {
        trace: false,
        ..*ctx
    })?;
    let mut ok = all_correct(&untraced);
    let mut traced = None;
    if ctx.trace {
        let set = run_set(ctx)?;
        ok &= all_correct(&set);
        for (name, run) in &set {
            println!(
                "{name} trace_overhead {} ratio",
                run.metrics["trace.op_ms"] / untraced[name].metrics["op_ms"]
            );
        }
        traced = Some(set);
    }
    println!("{}", summary_json(ctx, &untraced, traced.as_ref()));
    Ok(ok)
}

fn summary_json(ctx: &Ctx, untraced: &Set, traced: Option<&Set>) -> String {
    let workloads: Vec<String> = untraced
        .iter()
        .map(|(name, run)| {
            let mut metrics: Vec<String> = Vec::new();
            let traced = traced.map(|set| &set[name]);
            for (defs, run) in [(END_TO_END, Some(run)), (PER_LAYER, traced)] {
                let Some(run) = run else { continue };
                for def in defs {
                    metrics.push(format!("\"{}\": {}", def.name, run.metrics[def.name]));
                }
            }
            format!(
                "\"{name}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"failed_share\": {}, \"metrics\": {{{}}}}}",
                run.correct,
                run.attempted,
                run.failed,
                run.failed as f64 / run.attempted.max(1) as f64,
                metrics.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"pool_threads\": {}, \"smoke\": {}, \
         \"workloads\": {{{}}}, \"claim\": null}}",
        ctx.seed,
        ctx.seconds,
        ctx.threads,
        ctx.smoke,
        workloads.join(", ")
    )
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if def.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// A/A: the complete set twice on one build. Any gated metric further
/// apart than its bound, or any `count` that differs between two runs
/// at one pool thread, fails.
fn run_aa(ctx: &Ctx) -> Result<bool, String> {
    let plain = Ctx {
        trace: false,
        ..*ctx
    };
    let (a, b) = (run_set(&plain)?, run_set(&plain)?);
    let mut ok = all_correct(&a) && all_correct(&b);
    println!("# A/A: workload metric A B difference bound");
    for name in workloads::NAMES {
        for def in END_TO_END {
            let (va, vb) = (a[name].metrics[def.name], b[name].metrics[def.name]);
            let diff = worse_by(def, va, vb).abs();
            let verdict = if diff <= def.bound { "ok" } else { "OUTSIDE" };
            ok &= diff <= def.bound;
            println!(
                "{name} {} {va} {vb} {diff:.4} {} {verdict}",
                def.name, def.bound
            );
        }
    }
    let serial = Ctx {
        trace: true,
        threads: 1,
        ..*ctx
    };
    let (a, b) = (run_set(&serial)?, run_set(&serial)?);
    ok &= all_correct(&a) && all_correct(&b);
    println!("# A/A at 1 pool thread: workload count A B");
    for name in workloads::NAMES {
        for def in PER_LAYER.iter().filter(|d| d.unit == "count") {
            let (va, vb) = (a[name].metrics[def.name], b[name].metrics[def.name]);
            let verdict = if va == vb { "ok" } else { "DIFFERS" };
            ok &= va == vb;
            println!("{name} {} {va} {vb} {verdict}", def.name);
        }
    }
    println!("# A/A {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// The spread of every end-to-end metric over `runs` runs, each with
/// another seed: the distance between the quartiles as a share of the
/// median, judged against the metric's bound.
fn run_spread(ctx: &Ctx, runs: usize) -> Result<bool, String> {
    let mut sets = Vec::with_capacity(runs);
    for k in 0..runs as u64 {
        sets.push(run_set(&Ctx {
            seed: ctx.seed + k,
            trace: false,
            ..*ctx
        })?);
    }
    let mut ok = sets.iter().all(all_correct);
    println!("# spread over {runs} seeds: workload metric median q1 q3 spread bound");
    for name in workloads::NAMES {
        for def in END_TO_END {
            let values: Vec<f64> = sets.iter().map(|s| s[name].metrics[def.name]).collect();
            let (q1, median, q3) = stats::quartiles(&values);
            let spread = (q3 - q1) / median;
            let verdict = match spread {
                s if s > def.bound => "unstable",
                s if s > def.bound / 3.0 => "loose",
                _ => "steady",
            };
            // Set-up time is judged by its median only.
            ok &= spread <= def.bound || def.name == "setup_s";
            println!(
                "{name} {} {median} {q1} {q3} {spread:.4} {} {verdict}",
                def.name, def.bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse("--workload inc.tail --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("inc.tail"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(3.0), true));
        assert!(!parse("--trace 0").unwrap().trace);
        assert_eq!(parse("").unwrap().seed, inputs::DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--seconds 0",
            "--seconds x",
            "--seed",
            "--trace yes",
            "--frobnicate",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert_eq!((lower.better, higher.better), ("lower", "higher"));
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(higher, 10.0, 11.0) < 0.0);
    }
}
