//! A counting global allocator for peak-memory reporting.
//!
//! The paper's Table III reports maximum resident set size per simulator
//! run. Inside a container RSS is noisy and page-granular, so the bench
//! harness instead installs [`CountingAlloc`] as the global allocator and
//! reads byte-precise live/peak counters, resetting the peak between runs.
//! State-vector storage dominates all three simulators, so the two metrics
//! track each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Global allocator wrapper that tracks live and peak allocated bytes.
///
/// Install with:
/// ```ignore
/// #[global_allocator]
/// static ALLOC: qtask_util::alloc_counter::CountingAlloc = qtask_util::alloc_counter::CountingAlloc;
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    /// Currently allocated bytes.
    pub fn live_bytes() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Peak allocated bytes since the last [`reset_peak`](Self::reset_peak).
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live byte count.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total allocation calls (alloc/alloc_zeroed/realloc) since process
    /// start. The delta around a code region counts its heap traffic —
    /// how the zero-allocation hot-path tests measure "zero".
    pub fn alloc_calls() -> usize {
        CALLS.load(Ordering::Relaxed)
    }
}

fn on_alloc(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    // Racy max-update is fine: the peak is a diagnostic, and updates are
    // monotone under fetch_max.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: delegates allocation to `System`; only adds counter bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Reads this process's VmHWM (peak RSS) in bytes from `/proc`, as a
/// cross-check for the allocator-based metric. Returns `None` when
/// unavailable (non-Linux or restricted /proc).
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: usize = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    // The counting allocator is exercised for real in the bench harness,
    // where it is installed as #[global_allocator]. Here we only test the
    // pure accounting helpers.
    use super::*;

    /// The counters are process-global and libtest runs these tests on
    /// parallel threads; the tests that move them hold this lock.
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_move() {
        let _serial = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = CountingAlloc::live_bytes();
        let calls_before = CountingAlloc::alloc_calls();
        on_alloc(1024);
        assert!(CountingAlloc::live_bytes() >= before + 1024);
        assert!(CountingAlloc::peak_bytes() >= before + 1024);
        assert!(CountingAlloc::alloc_calls() > calls_before);
        on_dealloc(1024);
        assert_eq!(CountingAlloc::live_bytes(), before);
    }

    #[test]
    fn reset_peak_tracks_live() {
        let _serial = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        on_alloc(4096);
        CountingAlloc::reset_peak();
        let p = CountingAlloc::peak_bytes();
        assert_eq!(p, CountingAlloc::live_bytes());
        on_dealloc(4096);
    }

    #[test]
    fn rss_probe_parses() {
        // On Linux this should produce a sane nonzero figure.
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 1024);
        }
    }
}
