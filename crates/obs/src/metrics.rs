//! The always-on metrics registry: sharded counters, gauges, log2
//! histograms, and coherent [`MetricsSnapshot`] exposition.
//!
//! Handles are interned once per name and leaked, so the hot
//! path — [`Counter::add`], [`Gauge::set`], [`Histogram::record`] — is a
//! handful of relaxed atomic operations with no locks and no
//! allocation. The [`counter!`](crate::counter)/[`gauge!`](crate::gauge)/
//! [`histogram!`](crate::histogram) macros cache the interned handle in a
//! per-call-site `OnceLock`, so steady-state cost is one atomic load plus
//! the update itself.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of cache-padded shards per [`Counter`]. Power of two so the
/// per-thread shard pick is a mask, sized for small worker pools (the
/// executor defaults to `available_parallelism`).
const COUNTER_SHARDS: usize = 8;

/// Number of value buckets per [`Histogram`]: bucket `0` holds zeros,
/// bucket `k` holds values with `k` significant bits (`2^(k-1)..2^k`),
/// bucket `63` is the catch-all for everything wider.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A cache-line-padded atomic, so counter shards touched by different
/// threads never share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s) & (COUNTER_SHARDS - 1)
}

/// A monotonic counter, sharded across cache lines so concurrent
/// increments from different threads do not contend.
///
/// Obtain one from [`Registry::counter`] (or the [`counter!`](crate::counter)
/// macro); the handle is `&'static` and free to copy around.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// Adds `n`. Relaxed, lock-free, allocation-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: the sum over shards. Monotonic across calls
    /// (each shard is monotonic and read with an atomic load).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An instantaneous signed value (queue depths, in-flight request
/// counts, last-observed norm error in nanos). Not sharded: gauges
/// support absolute `set`, which cannot be distributed.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Stores an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 latency/value histogram: 64 buckets by bit
/// width, plus total count and sum. Recording is three relaxed
/// `fetch_add`s — no locks, no allocation, any `u64` value.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: `0` for zero, else its bit width
/// (clamped to the catch-all bucket 63).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `idx` (`0`, `1`, `3`, `7`, …,
/// `u64::MAX` for the catch-all).
pub fn bucket_bound(idx: usize) -> u64 {
    match idx {
        0 => 0,
        k if k >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in microseconds — the
    /// convention for every `*_us` histogram in the workspace.
    #[inline]
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn read(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Point-in-time copy of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket (non-cumulative) observation counts; see
    /// [`bucket_bound`] for bucket upper bounds.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when empty). A coarse estimate — buckets are powers of two —
    /// but monotone and cheap, which is what bench trajectories need.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(idx);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }
}

enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// The process-wide metric registry: interns names to leaked `'static`
/// handles and enumerates them for snapshots.
///
/// Interning takes a short mutex; it happens once per call site (the
/// macros cache the returned reference), so the lock is never on a hot
/// path. The leak is bounded by the number of distinct metric names, a
/// few dozen in this workspace: metrics carry no labels, so opening a
/// session, a view or an engine registers nothing new. Per-instance
/// numbers live in that instance's own report and die with it.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Handle>>,
}

/// The global registry behind every macro and snapshot.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    fn intern<T: Default>(
        &self,
        name: &str,
        wrap: fn(&'static T) -> Handle,
        unwrap: fn(&Handle) -> Option<&'static T>,
    ) -> &'static T {
        let mut metrics = self.metrics.lock();
        if let Some(h) = metrics.get(name) {
            return unwrap(h).unwrap_or_else(|| {
                panic!("metric {name:?} already registered with a different type")
            });
        }
        let leaked: &'static T = Box::leak(Box::default());
        metrics.insert(name.to_string(), wrap(leaked));
        leaked
    }

    /// Interns (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        self.intern(name, Handle::Counter, |h| match h {
            Handle::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// Interns (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        self.intern(name, Handle::Gauge, |h| match h {
            Handle::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// Interns (or retrieves) the histogram `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        self.intern(name, Handle::Histogram, |h| match h {
            Handle::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// A coherent point-in-time view of every registered metric,
    /// sorted by name. Counters are monotonic between snapshots;
    /// cross-metric consistency is best-effort (in-flight updates on
    /// other threads may be split across two metrics).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock();
        let mut snap = MetricsSnapshot::default();
        for (key, handle) in metrics.iter() {
            match handle {
                Handle::Counter(c) => snap.counters.push((key.clone(), c.get())),
                Handle::Gauge(g) => snap.gauges.push((key.clone(), g.get())),
                Handle::Histogram(h) => snap.histograms.push((key.clone(), h.read())),
            }
        }
        snap
    }
}

/// Convenience: a snapshot of the global [`registry`].
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// A coherent, point-in-time copy of every metric in a [`Registry`],
/// with JSON and Prometheus text exposition. Entries are sorted by
/// name, so output is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Maps a metric name to a Prometheus-legal identifier.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("qtask_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl MetricsSnapshot {
    /// Value of counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Snapshot of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// JSON exposition: one object with `counters`/`gauges`/`histograms`
    /// maps. Histograms list only their non-empty buckets as
    /// `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json_escape(k),
                h.count,
                h.sum
            ));
            let mut first = true;
            for (idx, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("[{}, {}]", bucket_bound(idx), c));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text exposition (`# TYPE` lines, `_bucket`/`_sum`/
    /// `_count` series with cumulative `le` buckets for histograms).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (key, v) in &self.counters {
            let name = prometheus_name(key);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (key, v) in &self.gauges {
            let name = prometheus_name(key);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (key, h) in &self.histograms {
            let name = prometheus_name(key);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (idx, &c) in h.buckets.iter().enumerate() {
                cumulative += c;
                if c != 0 && idx != HISTOGRAM_BUCKETS - 1 {
                    let le = bucket_bound(idx);
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}
