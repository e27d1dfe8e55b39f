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
use parking_lot::Mutex;
use qtask_core::{BlockDelta, Ckt, SnapshotObserver, StateSnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

struct RegistryInner {
    slots: Mutex<Vec<Slot>>,
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
        let mut slots = self.slots.lock();
        for slot in slots.iter_mut() {
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
                slots: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                publishes: AtomicU64::new(0),
                patches: AtomicU64::new(0),
                blocks_repatched: AtomicU64::new(0),
                blocks_rescanned: AtomicU64::new(0),
                full_refreshes: AtomicU64::new(0),
            }),
        }
    }

    /// The registry as an engine observer — what [`ViewRegistry::attach`]
    /// hands to [`Ckt::attach_observer`]. Public so tests and benches can
    /// drive the registry with hand-built deltas.
    pub fn observer(&self) -> Arc<dyn SnapshotObserver> {
        Arc::clone(&self.inner) as Arc<dyn SnapshotObserver>
    }

    /// Attaches this registry to `ckt`: every subsequent publication
    /// patches the registered views in the publish path. Observers
    /// survive [`Ckt::recover`].
    pub fn attach(&self, ckt: &mut Ckt) {
        ckt.attach_observer(self.observer());
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

    /// Appends a slot and sets the `views.registered` gauge under the
    /// same lock, so concurrent registrations cannot publish a stale
    /// count.
    fn push_slot(&self, view: Box<dyn View>, last_version: u64) -> ViewHandle {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.inner.slots.lock();
        slots.push(Slot {
            id,
            view,
            last_version,
        });
        qtask_obs::gauge!("views.registered").set(slots.len() as i64);
        ViewHandle {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.inner.slots.lock().len()
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

/// A handle to one registered view: reads its current value, or retires
/// it. Dropping the handle does *not* unregister the view (the service
/// layer prunes explicitly when a subscription closes).
pub struct ViewHandle {
    inner: Arc<RegistryInner>,
    id: u64,
}

impl ViewHandle {
    /// Registry-unique id of the underlying view slot.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The view's label.
    pub fn label(&self) -> String {
        let slots = self.inner.slots.lock();
        slots
            .iter()
            .find(|s| s.id == self.id)
            .map(|s| s.view.label().to_string())
            .unwrap_or_default()
    }

    /// The current value stamped with the version it reflects, or `None`
    /// before the first refresh (no publication since registration).
    pub fn reading(&self) -> Option<ViewReading> {
        let slots = self.inner.slots.lock();
        let slot = slots.iter().find(|s| s.id == self.id)?;
        if slot.last_version == 0 {
            return None;
        }
        Some(ViewReading {
            version: slot.last_version,
            value: slot.view.value(),
        })
    }

    /// Removes the view from the registry (later publications skip it).
    pub fn unregister(self) {
        let mut slots = self.inner.slots.lock();
        slots.retain(|s| s.id != self.id);
        qtask_obs::gauge!("views.registered").set(slots.len() as i64);
    }
}
