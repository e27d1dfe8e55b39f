//! Workspace-local stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `Bencher::iter`/`iter_batched`,
//! `BatchSize`, and the `criterion_group!`/`criterion_main!` macros — with
//! a simple adaptive protocol: calibrate the per-iteration cost, then take
//! `sample_size` timed samples and report the median with min/max spread.
//! No statistics engine, plots, or CLI; results print as one line per
//! benchmark, which is what the repo's bench scripts consume.

#![forbid(unsafe_code)]

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup cost (accepted, not acted on: the
/// shim always times routine-only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Identifier for parameterized benchmarks.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", function_name.into(), parameter))
    }

    /// Parameter-only identifier.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the target total measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n## {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: None,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let sample_size = self.sample_size;
        let time = self.measurement_time;
        run_one(&name.into(), sample_size, time, f);
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Accepted for API compatibility; the shim keys everything off
    /// sample counts.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measurement_time = d;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let sample_size = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_one(
            &format!("{}/{}", self.name, id),
            sample_size,
            self.criterion.measurement_time,
            f,
        );
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

fn run_one(label: &str, sample_size: usize, time: Duration, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        mode: Mode::Calibrate,
        iters: 1,
        elapsed: Duration::ZERO,
    };
    // Calibration: find an iteration count that fills a sample slot.
    f(&mut b);
    let per_iter = b.elapsed.as_nanos().max(1) as f64 / b.iters as f64;
    let slot = (time.as_nanos() as f64 / sample_size as f64).max(1.0);
    let iters = ((slot / per_iter).round() as u64).clamp(1, 1_000_000_000);
    let mut samples: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        b.mode = Mode::Measure;
        b.iters = iters;
        b.elapsed = Duration::ZERO;
        f(&mut b);
        samples.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let (lo, hi) = (samples[0], samples[samples.len() - 1]);
    println!(
        "{label:<60} time: [{} {} {}]",
        fmt_ns(lo),
        fmt_ns(median),
        fmt_ns(hi)
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

enum Mode {
    Calibrate,
    Measure,
}

/// Times closures; handed to benchmark bodies.
pub struct Bencher {
    mode: Mode,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, called back-to-back.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let iters = match self.mode {
            Mode::Calibrate => 1,
            Mode::Measure => self.iters,
        };
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let iters = match self.mode {
            Mode::Calibrate => 1,
            Mode::Measure => self.iters,
        };
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
        self.iters = iters;
    }

    /// Like [`Bencher::iter_batched`] with a mutable borrow of the input.
    pub fn iter_batched_ref<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(&mut I) -> O,
        _size: BatchSize,
    ) {
        let iters = match self.mode {
            Mode::Calibrate => 1,
            Mode::Measure => self.iters,
        };
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let mut input = setup();
            let start = Instant::now();
            black_box(routine(&mut input));
            total += start.elapsed();
        }
        self.elapsed = total;
        self.iters = iters;
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn measures_and_reports() {
        let calls = AtomicU64::new(0);
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(5));
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.bench_function("count", |b| {
            b.iter(|| calls.fetch_add(1, Ordering::Relaxed))
        });
        g.finish();
        assert!(calls.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn iter_batched_runs_setup_per_iter() {
        let setups = AtomicU64::new(0);
        let runs = AtomicU64::new(0);
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(2));
        c.bench_function("batched", |b| {
            b.iter_batched(
                || setups.fetch_add(1, Ordering::Relaxed),
                |_| runs.fetch_add(1, Ordering::Relaxed),
                BatchSize::SmallInput,
            )
        });
        assert_eq!(setups.load(Ordering::Relaxed), runs.load(Ordering::Relaxed));
    }
}
