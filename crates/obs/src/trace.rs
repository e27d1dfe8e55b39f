//! Feature-gated tracing: per-thread ring buffers of span/instant
//! events, drained by [`TraceSink`] into Chrome `chrome://tracing` JSON.
//!
//! The recording entry points ([`SpanGuard::enter`], [`instant`]) are
//! always compiled — it is the [`span!`](crate::span)/[`event!`](crate::event)
//! macros that vanish without the consumer's `obs` feature, exactly like
//! `qtask_faults::fault_point!`. Each thread owns a fixed-capacity ring
//! (old events are overwritten, never reallocated), registered globally
//! on first use and kept after thread exit so a failed writer's last
//! events survive for its autopsy.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity, in events (~32 B each).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(true);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Globally enables/disables recording (it starts enabled). Spans
/// entered while disabled stay inert for their whole lifetime, so
/// toggling cannot produce unmatched begin/end pairs.
pub fn set_trace_enabled(enabled: bool) {
    TRACE_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Sets the capacity (in events) of rings created *after* this call;
/// existing threads keep their rings. Clamped to at least 16.
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(16), Ordering::Relaxed);
}

/// A span/event name: either a static string (phase and site names) or
/// a shared one (executor task names are `Arc<str>`). Cloning never
/// allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Name {
    /// A `&'static str` name — the common case for code sites.
    Static(&'static str),
    /// A reference-counted name, e.g. a task's `Arc<str>` label.
    Shared(Arc<str>),
}

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Shared(s) => s,
        }
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Name {
        Name::Static(s)
    }
}

impl From<Arc<str>> for Name {
    fn from(s: Arc<str>) -> Name {
        Name::Shared(s)
    }
}

/// Event kind, mapping onto Chrome trace phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span or event name.
    pub name: Name,
    /// Begin/End/Instant.
    pub phase: Phase,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Per-thread monotonic sequence number (orders same-timestamp
    /// events within a thread).
    pub seq: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
}

impl TraceEvent {
    /// Compact single-line rendering, used for autopsy attachments:
    /// `"+12.345ms B update/kernel [tid 3]"`.
    pub fn render(&self) -> String {
        let ph = match self.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        format!(
            "+{:.3}ms {} {} [tid {}]",
            self.ts_ns as f64 / 1e6,
            ph,
            self.name.as_str(),
            self.tid
        )
    }
}

struct RingInner {
    buf: Vec<TraceEvent>,
    /// Next write position (== buf.len() until the ring first wraps).
    next: usize,
    wrapped: bool,
    seq: u64,
    capacity: usize,
}

/// One thread's event ring. Registered globally on first use; outlives
/// its thread so post-mortem reads see the final events.
pub struct ThreadRing {
    tid: u64,
    inner: Mutex<RingInner>,
}

impl ThreadRing {
    fn new() -> ThreadRing {
        let capacity = RING_CAPACITY.load(Ordering::Relaxed);
        ThreadRing {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(capacity),
                next: 0,
                wrapped: false,
                seq: 0,
                capacity,
            }),
        }
    }

    fn push(&self, name: Name, phase: Phase) {
        let ts_ns = now_ns();
        let mut inner = self.inner.lock();
        let seq = inner.seq;
        inner.seq += 1;
        let ev = TraceEvent {
            name,
            phase,
            ts_ns,
            seq,
            tid: self.tid,
        };
        if inner.buf.len() < inner.capacity {
            inner.buf.push(ev);
            inner.next = inner.buf.len() % inner.capacity;
        } else {
            let at = inner.next;
            inner.buf[at] = ev;
            inner.next = (at + 1) % inner.capacity;
            inner.wrapped = true;
        }
    }

    /// Events in recording order, oldest first.
    fn snapshot(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock();
        if inner.wrapped {
            let mut out = Vec::with_capacity(inner.buf.len());
            out.extend_from_slice(&inner.buf[inner.next..]);
            out.extend_from_slice(&inner.buf[..inner.next]);
            out
        } else {
            inner.buf.clone()
        }
    }

    fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.buf.clear();
        inner.next = 0;
        inner.wrapped = false;
    }
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn with_thread_ring<R>(f: impl FnOnce(&ThreadRing) -> R) -> R {
    thread_local! {
        static RING: Arc<ThreadRing> = {
            let ring = Arc::new(ThreadRing::new());
            rings().lock().push(Arc::clone(&ring));
            ring
        };
    }
    RING.with(|r| f(r))
}

/// Records an instant event on the current thread (no-op when tracing
/// is disabled). Called by the [`event!`](crate::event) macro.
#[inline]
pub fn instant(name: impl Into<Name>) {
    if trace_enabled() {
        with_thread_ring(|r| r.push(name.into(), Phase::Instant));
    }
}

/// The last `n` events recorded by the *current* thread, oldest first.
/// This is the autopsy hook: the caller holding a session's turn reads
/// its own ring right after its request killed the session's engine.
pub fn recent_thread_events(n: usize) -> Vec<TraceEvent> {
    let mut events = with_thread_ring(|r| r.snapshot());
    if events.len() > n {
        events.drain(..events.len() - n);
    }
    events
}

/// RAII span: records `Begin` on construction and `End` on drop.
/// Construct through the [`span!`](crate::span) macro so disabled
/// builds compile the whole thing away.
#[must_use = "a span guard records its End event when dropped"]
pub struct SpanGuard {
    /// `None` when tracing was disabled at entry — the drop is inert.
    name: Option<Name>,
}

impl SpanGuard {
    /// Opens a span named `name`.
    #[inline]
    pub fn enter(name: impl Into<Name>) -> SpanGuard {
        if !trace_enabled() {
            return SpanGuard { name: None };
        }
        let name = name.into();
        with_thread_ring(|r| r.push(name.clone(), Phase::Begin));
        SpanGuard { name: Some(name) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            with_thread_ring(|r| r.push(name, Phase::End));
        }
    }
}

/// The zero-cost stand-in the [`span!`](crate::span) macro yields when
/// the consuming crate's `obs` feature is off. The empty `Drop` keeps
/// call sites uniform (`drop(guard)` is legal either way) and compiles
/// to nothing.
pub struct NoopSpan;

impl NoopSpan {
    /// A disabled span.
    #[inline]
    pub fn new() -> NoopSpan {
        NoopSpan
    }
}

impl Default for NoopSpan {
    fn default() -> NoopSpan {
        NoopSpan::new()
    }
}

impl Drop for NoopSpan {
    fn drop(&mut self) {}
}

/// A drained set of trace events, exportable as Chrome trace JSON.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// Collects every thread's events and clears the rings (the usual
    /// end-of-run export path).
    pub fn drain() -> TraceSink {
        let rings = rings().lock();
        let mut events = Vec::new();
        for ring in rings.iter() {
            events.extend(ring.snapshot());
            ring.clear();
        }
        TraceSink::from_events(events)
    }

    /// Collects every thread's events without clearing.
    pub fn capture() -> TraceSink {
        let rings = rings().lock();
        let mut events = Vec::new();
        for ring in rings.iter() {
            events.extend(ring.snapshot());
        }
        TraceSink::from_events(events)
    }

    fn from_events(mut events: Vec<TraceEvent>) -> TraceSink {
        events.sort_by_key(|e| (e.ts_ns, e.tid, e.seq));
        TraceSink { events }
    }

    /// Clears every thread's ring without collecting (e.g. to discard
    /// warmup noise before the measured region).
    pub fn clear_all() {
        let rings = rings().lock();
        for ring in rings.iter() {
            ring.clear();
        }
    }

    /// The drained events, ordered by timestamp.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of drained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded (e.g. the `obs` feature is off).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the events as Chrome trace JSON — load the output in
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
    /// microseconds since the process trace epoch.
    pub fn export_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"qtask\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}{}}}",
                chrome_escape(ev.name.as_str()),
                ph,
                ev.ts_ns as f64 / 1e3,
                ev.tid,
                if ev.phase == Phase::Instant { ",\"s\":\"t\"" } else { "" },
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

fn chrome_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
