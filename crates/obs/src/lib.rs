//! Observability for the qTask workspace: a unified metrics registry
//! and zero-overhead tracing spans with Chrome-trace export.
//!
//! Two halves, with different cost contracts:
//!
//! - **Metrics** (always compiled): sharded monotonic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s, interned by name
//!   in a global [`Registry`] and read at any time as a coherent
//!   [`MetricsSnapshot`] with JSON ([`MetricsSnapshot::to_json`]) and
//!   Prometheus text ([`MetricsSnapshot::to_prometheus`]) exposition.
//!   The hot path is a few relaxed atomics — no locks, no allocation —
//!   and every update site sits on coarse boundaries (per update, per
//!   task, per request), never per amplitude.
//! - **Tracing** (feature-gated): the [`span!`]/[`event!`] macros
//!   expand to `#[cfg(feature = "obs")]`-gated code in the *consuming*
//!   crate, exactly like `qtask_faults::fault_point!` — without
//!   `--features obs` they compile to nothing (a [`NoopSpan`] unit).
//!   With the feature, spans record begin/end events into per-thread
//!   ring buffers ([`ThreadRing`]) drained by [`TraceSink`] into
//!   Chrome `chrome://tracing` JSON ([`TraceSink::export_chrome`]).
//!
//! # Metrics
//!
//! ```
//! use qtask_obs::{counter, histogram, snapshot};
//!
//! counter!("doc.widgets").add(3);
//! histogram!("doc.latency_us").record(180);
//! let snap = snapshot();
//! assert_eq!(snap.counter("doc.widgets"), Some(3));
//! assert!(snap.to_prometheus().contains("qtask_doc_widgets 3"));
//! ```
//!
//! # Spans
//!
//! ```
//! // In a crate with an `obs` feature this is the `span!` macro; the
//! // runtime API records unconditionally and is what the macro calls.
//! let sink = {
//!     let _outer = qtask_obs::SpanGuard::enter("doc/outer");
//!     let _inner = qtask_obs::SpanGuard::enter("doc/inner");
//!     drop(_inner);
//!     drop(_outer);
//!     qtask_obs::TraceSink::capture()
//! };
//! let stats = qtask_obs::validate_chrome_trace(&sink.export_chrome()).unwrap();
//! assert!(stats.spans >= 2);
//! ```
//!
//! The per-thread rings survive thread exit. A session reads the final
//! events of the caller whose request failed, on that caller's own
//! thread and turn ([`recent_thread_events`]), into its autopsy report.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod trace;
mod validate;

pub use metrics::{
    bucket_bound, bucket_index, registry, snapshot, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    instant, recent_thread_events, set_ring_capacity, set_trace_enabled, trace_enabled, Name,
    NoopSpan, Phase, SpanGuard, ThreadRing, TraceEvent, TraceSink, DEFAULT_RING_CAPACITY,
};
pub use validate::{parse_json, validate_chrome_trace, Json, TraceStats};

/// Opens a tracing span for the enclosing scope; bind the result
/// (`let _span = span!("update/kernel");`) so it drops at scope exit.
///
/// Accepts anything convertible to [`Name`] — `&'static str` or an
/// `Arc<str>` task label. Compiles to a [`NoopSpan`] unit unless the
/// *consuming* crate is built with its `obs` feature, so default
/// builds carry zero cost (same discipline as `fault_point!`).
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        #[cfg(feature = "obs")]
        let __qtask_obs_span = $crate::SpanGuard::enter($name);
        #[cfg(not(feature = "obs"))]
        let __qtask_obs_span = $crate::NoopSpan::new();
        __qtask_obs_span
    }};
}

/// Records an instant (point-in-time) trace event. Compiles to nothing
/// unless the consuming crate is built with its `obs` feature.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        #[cfg(feature = "obs")]
        $crate::instant($name);
    };
}

/// Interns the counter `$name` once per call site and returns the
/// `&'static Counter`; steady-state cost is one atomic load plus the
/// increment. Always compiled — metrics are not feature-gated.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __QTASK_OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__QTASK_OBS_HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Interns the gauge `$name` once per call site (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __QTASK_OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__QTASK_OBS_HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Interns the histogram `$name` once per call site (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __QTASK_OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__QTASK_OBS_HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every value is <= its bucket's bound and > the previous one's.
        for v in [1u64, 2, 3, 4, 7, 8, 1000, 1 << 40] {
            let idx = bucket_index(v);
            assert!(v <= bucket_bound(idx));
            assert!(idx == 0 || v > bucket_bound(idx - 1));
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = registry().counter("obs.test.counter_roundtrip");
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        // Re-interning the same name yields the same handle.
        let again = registry().counter("obs.test.counter_roundtrip");
        assert_eq!(again.get(), 6);
        let g = registry().gauge("obs.test.gauge_roundtrip");
        g.add(10);
        g.dec();
        assert_eq!(g.get(), 9);
        g.set(-4);
        assert_eq!(g.get(), -4);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = registry().histogram("obs.test.hist");
        for v in [0u64, 1, 1, 2, 100, 100, 100, 5000] {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap.histogram("obs.test.hist").unwrap();
        assert_eq!(hs.count, 8);
        assert_eq!(hs.sum, 5304);
        assert!((hs.mean() - 663.0).abs() < 1e-9);
        assert_eq!(hs.quantile(0.0), 0);
        // Median observation is 2 → bucket bound 3.
        assert_eq!(hs.quantile(0.5), 3);
        assert!(hs.quantile(1.0) >= 5000);
    }

    #[test]
    fn snapshot_json_is_valid_json() {
        registry().counter("obs.test.json").add(7);
        registry().histogram("obs.test.json_hist").record(42);
        let snap = snapshot();
        let doc = parse_json(&snap.to_json()).expect("snapshot JSON parses");
        let counters = doc.get("counters").expect("counters object");
        assert_eq!(
            counters.get("obs.test.json").and_then(Json::as_f64),
            Some(7.0)
        );
        assert!(doc.get("histograms").is_some());
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let h = registry().histogram("obs.test.prom_hist");
        h.record(1);
        h.record(1);
        h.record(100);
        let prom = snapshot().to_prometheus();
        assert!(prom.contains("# TYPE qtask_obs_test_prom_hist histogram"));
        assert!(prom.contains("qtask_obs_test_prom_hist_bucket{le=\"1\"} 2"));
        assert!(prom.contains("qtask_obs_test_prom_hist_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("qtask_obs_test_prom_hist_sum 102"));
        assert!(prom.contains("qtask_obs_test_prom_hist_count 3"));
    }

    // All span/ring behavior lives in one test: the rings are global
    // per-thread state, and a concurrent drain from a second test
    // would race with open spans.
    #[test]
    fn spans_rings_and_chrome_export() {
        {
            let _outer = SpanGuard::enter("obs.test/outer");
            instant("obs.test/mark");
            {
                let _inner = SpanGuard::enter(Arc::<str>::from("obs.test/inner"));
            }
        }
        let recent = recent_thread_events(8);
        assert!(recent.len() >= 5);
        assert!(recent.iter().any(|e| e.name.as_str() == "obs.test/inner"));
        assert!(recent[0].render().contains("[tid"));

        let sink = TraceSink::capture();
        let json = sink.export_chrome();
        let stats = validate_chrome_trace(&json).expect("export validates");
        assert!(stats.spans >= 2, "expected matched pairs, got {stats:?}");
        assert_eq!(stats.open_spans, 0);
        assert!(stats.instants >= 1);
        assert!(stats.names.contains("obs.test/outer"));
        assert!(stats.names.contains("obs.test/inner"));

        // Disabled tracing records nothing, and a guard entered while
        // disabled stays inert even if re-enabled before drop.
        set_trace_enabled(false);
        let before = TraceSink::capture().len();
        let g = SpanGuard::enter("obs.test/disabled");
        set_trace_enabled(true);
        drop(g);
        assert_eq!(TraceSink::capture().len(), before);

        // Ring overwrite: a tiny ring on a fresh thread keeps only the
        // newest events and snapshots them oldest-first.
        set_ring_capacity(16);
        let events = std::thread::spawn(|| {
            for i in 0..40 {
                // Alternate B/E so nesting stays balanced in the tail.
                let _s = SpanGuard::enter(if i % 2 == 0 {
                    "obs.test/a"
                } else {
                    "obs.test/b"
                });
            }
            recent_thread_events(usize::MAX)
        })
        .join()
        .unwrap();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        assert_eq!(events.len(), 16);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "oldest-first order");
        }
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("\"\\q\"").is_err());
        let ok = parse_json(" {\"a\": [1, -2.5e3, \"x\\n\", true, null]} ").unwrap();
        assert_eq!(
            ok.get("a").and_then(Json::as_array).map(|a| a.len()),
            Some(5)
        );
    }

    #[test]
    fn chrome_validator_catches_bad_nesting() {
        let bad = r#"[
            {"name":"a","ph":"B","ts":1,"tid":1},
            {"name":"b","ph":"E","ts":2,"tid":1}
        ]"#;
        assert!(validate_chrome_trace(bad).is_err());
        let unopened = r#"[{"name":"a","ph":"E","ts":1,"tid":1}]"#;
        assert!(validate_chrome_trace(unopened).is_err());
        let good = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"tid":1},
            {"name":"b","ph":"B","ts":2,"tid":1},
            {"name":"b","ph":"E","ts":3,"tid":1},
            {"name":"a","ph":"E","ts":4,"tid":1}
        ]}"#;
        let stats = validate_chrome_trace(good).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.open_spans, 0);
    }
}
