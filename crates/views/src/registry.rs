//! The [`ViewRegistry`]: attaches to a [`Ckt`] as a
//! [`SnapshotObserver`] and maintains every registered view inside the
//! publish path.
//!
//! # Fallback rules (never a stale read)
//!
//! A view is patched only when the delta applies cleanly on top of the
//! exact version the view last saw. Everything else — a `full` delta, a
//! version gap (the view was registered late, or a recovery republished
//! from scratch), an injected `views/patch` fault, or a panic inside the
//! patch itself — degrades that view to a full refresh against the new
//! snapshot. The failure mode is paying O(state) once, never serving a
//! value from a superseded version.

use crate::ops::View;
use crate::value::{PatchError, PatchStats, ViewReading, ViewReport};
use parking_lot::{Condvar, Mutex};
use qtask_core::{BlockDelta, Ckt, SnapshotObserver, StateSnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interns every `views.*` metric the registry records, so expositions
/// cover them from the first snapshot (same idiom as the engine's
/// `touch_core_metrics`).
fn touch_view_metrics() {
    let _ = qtask_obs::counter!("views.publishes");
    let _ = qtask_obs::counter!("views.patches");
    let _ = qtask_obs::counter!("views.blocks_repatched");
    let _ = qtask_obs::counter!("views.blocks_rescanned");
    let _ = qtask_obs::counter!("views.full_refreshes");
    let _ = qtask_obs::gauge!("views.registered");
}

struct Slot {
    id: u64,
    view: Box<dyn View>,
    /// Snapshot version the partials reflect (0 = never refreshed).
    last_version: u64,
}

/// The registered views and their waiting readers, under one lock.
struct State {
    slots: Vec<Slot>,
    /// Readers asleep in [`ViewHandle::reading_after`]; while there are
    /// none, a publication notifies no one.
    sleepers: usize,
    /// Set by [`ViewRegistry::close`]: no publication will follow.
    closed: bool,
}

impl State {
    /// View `id`'s reading, if its version is newer than `seen`.
    fn newer(&self, id: u64, seen: u64) -> Option<ViewReading> {
        let slot = self.slots.iter().find(|s| s.id == id)?;
        (slot.last_version > seen).then(|| ViewReading {
            version: slot.last_version,
            value: slot.view.value(),
        })
    }
}

struct RegistryInner {
    state: Mutex<State>,
    /// Signalled by a publication while a reader sleeps, and by close.
    published: Condvar,
    next_id: AtomicU64,
    publishes: AtomicU64,
    patches: AtomicU64,
    blocks_repatched: AtomicU64,
    blocks_rescanned: AtomicU64,
    full_refreshes: AtomicU64,
}

/// The attempted patch, isolated behind the `views/patch` probe. A
/// `return Err` here (or an unwind out of the view's own patch code) is
/// the registry's cue to fall back to a full refresh.
fn try_patch(
    view: &mut Box<dyn View>,
    snap: &StateSnapshot,
    delta: &BlockDelta,
) -> Result<PatchStats, PatchError> {
    qtask_faults::fault_point_err!("views/patch", PatchError::Injected);
    Ok(view.patch(snap, delta))
}

impl RegistryInner {
    fn apply(&self, snap: &StateSnapshot, delta: &BlockDelta) {
        let _span = qtask_obs::span!("views/publish");
        self.publishes.fetch_add(1, Ordering::Relaxed);
        qtask_obs::counter!("views.publishes").inc();
        let mut state = self.state.lock();
        for slot in state.slots.iter_mut() {
            let patched = if delta.full || slot.last_version != delta.prev_version {
                None
            } else {
                match catch_unwind(AssertUnwindSafe(|| try_patch(&mut slot.view, snap, delta))) {
                    Ok(Ok(stats)) => Some(stats),
                    // Typed failure or contained panic: the partials may
                    // be torn — rebuild them below.
                    Ok(Err(_)) | Err(_) => None,
                }
            };
            match patched {
                Some(stats) => {
                    self.patches.fetch_add(1, Ordering::Relaxed);
                    self.blocks_repatched
                        .fetch_add(stats.blocks_scanned as u64, Ordering::Relaxed);
                    qtask_obs::counter!("views.patches").inc();
                    qtask_obs::counter!("views.blocks_repatched").add(stats.blocks_scanned as u64);
                }
                None => {
                    slot.view.refresh(snap);
                    let scanned = snap.geometry().num_blocks() as u64;
                    self.full_refreshes.fetch_add(1, Ordering::Relaxed);
                    self.blocks_rescanned.fetch_add(scanned, Ordering::Relaxed);
                    qtask_obs::counter!("views.full_refreshes").inc();
                    qtask_obs::counter!("views.blocks_rescanned").add(scanned);
                }
            }
            slot.last_version = snap.version();
        }
        if state.sleepers > 0 {
            self.published.notify_all();
        }
    }
}

impl Drop for RegistryInner {
    fn drop(&mut self) {
        let held = self.state.get_mut().slots.len();
        qtask_obs::gauge!("views.registered").sub(held as i64);
    }
}

impl SnapshotObserver for RegistryInner {
    fn on_publish(&self, snap: &StateSnapshot, delta: &BlockDelta) {
        self.apply(snap, delta);
    }
}

/// A registry of materialized views, maintained by delta propagation
/// inside every snapshot publication of the [`Ckt`] it is attached to.
///
/// Cloning shares the registry (handles stay valid across clones); the
/// engine keeps its own shared reference through the observer, so the
/// registry outlives the handle that attached it.
#[derive(Clone)]
pub struct ViewRegistry {
    inner: Arc<RegistryInner>,
}

impl ViewRegistry {
    pub fn new() -> ViewRegistry {
        touch_view_metrics();
        ViewRegistry {
            inner: Arc::new(RegistryInner {
                state: Mutex::new(State {
                    slots: Vec::new(),
                    sleepers: 0,
                    closed: false,
                }),
                published: Condvar::new(),
                next_id: AtomicU64::new(1),
                publishes: AtomicU64::new(0),
                patches: AtomicU64::new(0),
                blocks_repatched: AtomicU64::new(0),
                blocks_rescanned: AtomicU64::new(0),
                full_refreshes: AtomicU64::new(0),
            }),
        }
    }

    /// Attaches this registry to `ckt`: every subsequent publication
    /// patches the registered views in the publish path. Observers
    /// survive [`Ckt::recover`].
    pub fn attach(&self, ckt: &mut Ckt) {
        ckt.attach_observer(Arc::clone(&self.inner) as Arc<dyn SnapshotObserver>);
    }

    /// Marks the registry closed and wakes every reader waiting in
    /// [`ViewHandle::reading_after`]; later waits return at once. Call
    /// it when the engine it is attached to goes away.
    pub fn close(&self) {
        self.inner.state.lock().closed = true;
        self.inner.published.notify_all();
    }

    /// Registers a view. Its value is `None` until the next publication
    /// (which full-refreshes it — version 0 never matches a delta); use
    /// [`ViewRegistry::register_on`] to prime it immediately.
    pub fn register(&self, view: Box<dyn View>) -> ViewHandle {
        self.push_slot(view, 0)
    }

    /// Registers a view and primes it from `ckt`'s latest snapshot, so
    /// its value is readable before the next publication.
    pub fn register_on(&self, ckt: &Ckt, view: Box<dyn View>) -> ViewHandle {
        let mut view = view;
        let mut last_version = 0;
        if let Some(snap) = ckt.latest_snapshot() {
            view.refresh(&snap);
            last_version = snap.version();
            let scanned = snap.geometry().num_blocks() as u64;
            self.inner.full_refreshes.fetch_add(1, Ordering::Relaxed);
            self.inner
                .blocks_rescanned
                .fetch_add(scanned, Ordering::Relaxed);
            qtask_obs::counter!("views.full_refreshes").inc();
            qtask_obs::counter!("views.blocks_rescanned").add(scanned);
        }
        self.push_slot(view, last_version)
    }

    /// Appends a slot. The `views.registered` gauge sums the slots of
    /// every live registry.
    fn push_slot(&self, view: Box<dyn View>, last_version: u64) -> ViewHandle {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.state.lock().slots.push(Slot {
            id,
            view,
            last_version,
        });
        qtask_obs::gauge!("views.registered").inc();
        ViewHandle {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.inner.state.lock().slots.len()
    }

    /// True when no view is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative maintenance counters (see [`ViewReport`]).
    pub fn report(&self) -> ViewReport {
        ViewReport {
            views: self.len(),
            publishes: self.inner.publishes.load(Ordering::Relaxed),
            patches: self.inner.patches.load(Ordering::Relaxed),
            blocks_repatched: self.inner.blocks_repatched.load(Ordering::Relaxed),
            blocks_rescanned: self.inner.blocks_rescanned.load(Ordering::Relaxed),
            full_refreshes: self.inner.full_refreshes.load(Ordering::Relaxed),
        }
    }
}

impl Default for ViewRegistry {
    fn default() -> Self {
        ViewRegistry::new()
    }
}

/// A handle to one registered view: reads its current value, waits for
/// a newer one, or retires it. Dropping the handle does *not*
/// unregister the view.
pub struct ViewHandle {
    inner: Arc<RegistryInner>,
    id: u64,
}

impl ViewHandle {
    /// The current value stamped with the version it reflects, or `None`
    /// before the first refresh (no publication since registration).
    pub fn reading(&self) -> Option<ViewReading> {
        self.inner.state.lock().newer(self.id, 0)
    }

    /// The view's reading once its version is newer than `seen`: at once
    /// if it already is, else at the first publication that makes it so.
    /// `None` when `until` passes first, or when the registry is closed
    /// (see [`ViewHandle::is_closed`]) with no newer reading. `until:
    /// None` waits with no deadline.
    pub fn reading_after(&self, seen: u64, until: Option<Instant>) -> Option<ViewReading> {
        let mut state = self.inner.state.lock();
        loop {
            if let Some(reading) = state.newer(self.id, seen) {
                return Some(reading);
            }
            let left = until.map_or(Duration::MAX, |t| {
                t.saturating_duration_since(Instant::now())
            });
            if state.closed || left.is_zero() {
                return None;
            }
            state.sleepers += 1;
            self.inner.published.wait_for(&mut state, left);
            state.sleepers -= 1;
        }
    }

    /// True once the registry is closed: its engine is gone, and no
    /// newer reading will come.
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }

    /// Removes the view from the registry (later publications skip it,
    /// and [`ViewHandle::reading`] returns `None`).
    pub fn unregister(&self) {
        let mut state = self.inner.state.lock();
        if let Some(at) = state.slots.iter().position(|s| s.id == self.id) {
            state.slots.remove(at);
            qtask_obs::gauge!("views.registered").dec();
        }
    }
}
