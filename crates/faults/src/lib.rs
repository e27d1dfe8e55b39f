//! Deterministic fault-injection probes for the qTask workspace.
//!
//! The engine crates are threaded with named *probe sites*
//! (`fault_point!("exec/publish_row")`). A test arms a single
//! [`FaultPlan`] — site, [`FaultKind`], and which hit should fire — runs
//! the scenario, and disarms. Exactly one fault fires per armed plan, at
//! the Nth dynamic hit of the named site, which makes every chaos run
//! reproducible from `(site, kind, nth)` alone.
//!
//! ## Zero cost when compiled out
//!
//! The probe macros expand to a `#[cfg(feature = "faults")]`-gated call.
//! Because `cfg` attributes are resolved *after* macro expansion, the
//! feature consulted is the **consuming crate's** `faults` feature
//! (`qtask-core/faults`, `qtask-taskflow/faults`, …), not a feature of
//! this crate. A default build therefore contains no trace of the probes
//! — not even a branch. With the feature on but no plan armed, a probe
//! is one relaxed atomic load.
//!
//! ## Probe flavors
//!
//! | macro | injects | at sites that |
//! |-------|---------|---------------|
//! | [`fault_point!`] | panic / simulated alloc failure | can unwind |
//! | [`fault_point_err!`] | early `return Err(..)` (plus panic kinds) | return `Result` |
//! | [`fault_point_corrupt!`] | NaN/Inf via a caller closure (plus panic kinds) | write amplitudes |
//!
//! All sites honor [`FaultKind::Panic`] and [`FaultKind::AllocFail`]
//! (both unwind, with different messages); only `_err` sites honor
//! [`FaultKind::Error`] and only `_corrupt` sites honor the corruption
//! kinds. Arming an inapplicable kind at a site simply never fires —
//! the chaos driver uses [`site_hits`] traces to pair sites with the
//! kinds they support.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What an armed [`FaultPlan`] injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the probe — models a logic bug mid-mutation.
    Panic,
    /// Simulated allocation failure: also unwinds, with an OOM-flavored
    /// message. Distinct from [`FaultKind::Panic`] so chaos reports can
    /// tell "logic bug" from "resource exhaustion" trajectories apart.
    AllocFail,
    /// Early typed-`Err` return (only at `fault_point_err!` sites).
    Error,
    /// Overwrite an amplitude with NaN (only at `fault_point_corrupt!`
    /// sites) — models a numerically broken kernel.
    CorruptNan,
    /// Overwrite an amplitude with +Inf (only at `fault_point_corrupt!`
    /// sites).
    CorruptInf,
}

/// One scheduled fault: fire `kind` at the `nth` dynamic hit (1-based)
/// of probe site `site`, and keep firing for `times` consecutive hits of
/// that site (hits `nth .. nth + times`). The default `times` of 1 is the
/// classic one-shot plan; larger values model *persistent* failures — a
/// recovery path that keeps failing — which is what trips circuit
/// breakers. After its last firing a plan stays armed only for
/// bookkeeping and never fires again until re-armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub site: String,
    pub kind: FaultKind,
    pub nth: u64,
    /// Consecutive hits (starting at `nth`) that fire. 1 = one-shot.
    pub times: u64,
}

impl FaultPlan {
    /// A plan firing at the first hit of `site`.
    pub fn first(site: &str, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            site: site.to_string(),
            kind,
            nth: 1,
            times: 1,
        }
    }

    /// A plan firing at the `nth` hit of `site` (1-based; 0 is clamped
    /// to 1).
    pub fn at_hit(site: &str, kind: FaultKind, nth: u64) -> FaultPlan {
        FaultPlan {
            site: site.to_string(),
            kind,
            nth: nth.max(1),
            times: 1,
        }
    }

    /// A persistent-failure plan: fires at hits `nth .. nth + times` of
    /// `site` (both arguments clamped to at least 1). `times` larger than
    /// the hits actually reached simply stops firing when the scenario
    /// ends — [`DisarmSummary::fires`] reports how many landed.
    pub fn repeated(site: &str, kind: FaultKind, nth: u64, times: u64) -> FaultPlan {
        FaultPlan {
            site: site.to_string(),
            kind,
            nth: nth.max(1),
            times: times.max(1),
        }
    }

    /// Deterministically derives a plan from `seed`: picks a site from
    /// `sites` (a `(name, max_hits)` trace, e.g. from [`site_hits`]) and
    /// a hit index within that site's observed range. Only unwind-safe
    /// kinds are chosen, since they apply to every site.
    pub fn seeded(seed: u64, sites: &[(String, u64)]) -> Option<FaultPlan> {
        if sites.is_empty() {
            return None;
        }
        let mut s = splitmix64(seed);
        let (site, max_hits) = &sites[(s % sites.len() as u64) as usize];
        s = splitmix64(s);
        let nth = 1 + s % (*max_hits).max(1);
        s = splitmix64(s);
        let kind = if s.is_multiple_of(2) {
            FaultKind::Panic
        } else {
            FaultKind::AllocFail
        };
        Some(FaultPlan {
            site: site.clone(),
            kind,
            nth,
            times: 1,
        })
    }
}

/// What happened while a plan was armed, returned by [`disarm`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisarmSummary {
    /// True if the armed fault fired at least once.
    pub fired: bool,
    /// How many hits actually fired (≤ the plan's `times`).
    pub fires: u64,
    /// Dynamic hits of the armed site while armed (counts even past the
    /// firing hit when the scenario survives the fault).
    pub hits_of_site: u64,
}

struct Registry {
    armed: Option<FaultPlan>,
    fires: u64,
    counts: HashMap<String, u64>,
    tracing: bool,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> MutexGuard<'static, Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(Registry {
            armed: None,
            fires: 0,
            counts: HashMap::new(),
            tracing: false,
        })
    })
    .lock()
    // A panic injected *by* a probe never unwinds while the lock is
    // held, but a panicking observer elsewhere could; the registry is
    // plain data, so clearing poisoning is always sound.
    .unwrap_or_else(|e| e.into_inner())
}

/// Arms `plan`, replacing any previous plan and resetting all hit
/// counters.
pub fn arm(plan: FaultPlan) {
    let mut reg = registry();
    reg.counts.clear();
    reg.fires = 0;
    reg.armed = Some(plan);
    ACTIVE.store(true, Ordering::Release);
}

/// Disarms any armed plan and stops tracing. Returns what fired.
pub fn disarm() -> DisarmSummary {
    let mut reg = registry();
    let summary = DisarmSummary {
        fired: reg.fires > 0,
        fires: reg.fires,
        hits_of_site: reg
            .armed
            .as_ref()
            .and_then(|p| reg.counts.get(&p.site))
            .copied()
            .unwrap_or(0),
    };
    reg.armed = None;
    reg.fires = 0;
    reg.tracing = false;
    reg.counts.clear();
    ACTIVE.store(false, Ordering::Release);
    summary
}

/// Runs `f` with hit tracing on (no fault armed) and returns every probe
/// site it reached with its dynamic hit count, sorted by name. This is
/// how the chaos suite enumerates the injection space for a scenario.
pub fn site_hits(f: impl FnOnce()) -> Vec<(String, u64)> {
    {
        let mut reg = registry();
        reg.armed = None;
        reg.fires = 0;
        reg.counts.clear();
        reg.tracing = true;
        ACTIVE.store(true, Ordering::Release);
    }
    f();
    let mut reg = registry();
    reg.tracing = false;
    ACTIVE.store(false, Ordering::Release);
    let mut sites: Vec<(String, u64)> = reg.counts.drain().collect();
    sites.sort();
    sites
}

/// True if a plan is armed or tracing is on (the probe fast path).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Records a hit of `site` and returns the kind to inject, if the armed
/// plan fires on this very hit. Runtime support for the probe macros —
/// not meant to be called directly.
pub fn record_hit(site: &str) -> Option<FaultKind> {
    let mut reg = registry();
    if reg.armed.is_none() && !reg.tracing {
        return None;
    }
    let count = reg.counts.entry(site.to_string()).or_insert(0);
    *count += 1;
    let count = *count;
    match &reg.armed {
        Some(plan) if plan.site == site && count >= plan.nth && count < plan.nth + plan.times => {
            let kind = plan.kind;
            reg.fires += 1;
            Some(kind)
        }
        _ => None,
    }
}

/// Macro support: a hit that can only unwind. Panics for the unwind
/// kinds, ignores the rest (they don't apply to this site flavor).
#[inline]
pub fn hit(site: &str) {
    if !active() {
        return;
    }
    match record_hit(site) {
        Some(FaultKind::Panic) => panic!("injected panic at fault point '{site}'"),
        Some(FaultKind::AllocFail) => {
            panic!("injected allocation failure at fault point '{site}'")
        }
        _ => {}
    }
}

/// Macro support: a hit at a `Result` site. `true` means the caller must
/// return its injected error; the unwind kinds panic as in [`hit`].
#[inline]
pub fn hit_err(site: &str) -> bool {
    if !active() {
        return false;
    }
    match record_hit(site) {
        Some(FaultKind::Panic) => panic!("injected panic at fault point '{site}'"),
        Some(FaultKind::AllocFail) => {
            panic!("injected allocation failure at fault point '{site}'")
        }
        Some(FaultKind::Error) => true,
        _ => false,
    }
}

/// Macro support: a hit at an amplitude-writing site. Returns the
/// poison value to write for the corruption kinds; the unwind kinds
/// panic as in [`hit`].
#[inline]
pub fn hit_corrupt(site: &str) -> Option<f64> {
    if !active() {
        return None;
    }
    match record_hit(site) {
        Some(FaultKind::Panic) => panic!("injected panic at fault point '{site}'"),
        Some(FaultKind::AllocFail) => {
            panic!("injected allocation failure at fault point '{site}'")
        }
        Some(FaultKind::CorruptNan) => Some(f64::NAN),
        Some(FaultKind::CorruptInf) => Some(f64::INFINITY),
        _ => None,
    }
}

/// A probe site that can fail by unwinding ([`FaultKind::Panic`] /
/// [`FaultKind::AllocFail`]). Compiles to nothing unless the *calling*
/// crate's `faults` feature is on.
#[macro_export]
macro_rules! fault_point {
    ($site:literal) => {
        #[cfg(feature = "faults")]
        $crate::hit($site);
    };
}

/// A probe site on a `Result` path: [`FaultKind::Error`] makes the
/// enclosing function return `$err` early; the unwind kinds panic.
/// Compiles to nothing unless the calling crate's `faults` feature is
/// on.
#[macro_export]
macro_rules! fault_point_err {
    ($site:literal, $err:expr) => {
        #[cfg(feature = "faults")]
        {
            if $crate::hit_err($site) {
                return Err($err);
            }
        }
    };
}

/// A probe site that writes amplitudes: the corruption kinds hand a
/// non-finite `f64` to `$apply` (a `FnOnce(f64)` that smuggles it into
/// the data); the unwind kinds panic. Compiles to nothing unless the
/// calling crate's `faults` feature is on.
#[macro_export]
macro_rules! fault_point_corrupt {
    ($site:literal, $apply:expr) => {
        #[cfg(feature = "faults")]
        {
            if let Some(poison) = $crate::hit_corrupt($site) {
                let apply: &mut dyn FnMut(f64) = &mut { $apply };
                apply(poison);
            }
        }
    };
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test crate for qtask-faults itself has no `faults` feature, so
    // exercise the runtime API directly (the macros are covered by the
    // chaos suite at the workspace root).

    /// The registry is process-global and libtest runs these tests on
    /// parallel threads; every test holds this lock.
    static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
        REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_probes_do_nothing() {
        let _serial = registry_guard();
        assert!(!active());
        hit("nowhere");
        assert!(!hit_err("nowhere"));
        assert!(hit_corrupt("nowhere").is_none());
    }

    #[test]
    fn fires_exactly_once_at_nth_hit() {
        let _serial = registry_guard();
        arm(FaultPlan::at_hit("site/a", FaultKind::Error, 3));
        assert!(!hit_err("site/a"));
        assert!(!hit_err("site/b"));
        assert!(!hit_err("site/a"));
        assert!(hit_err("site/a"));
        assert!(!hit_err("site/a")); // one-shot
        let summary = disarm();
        assert!(summary.fired);
        assert_eq!(summary.hits_of_site, 4);
    }

    #[test]
    fn repeated_plan_fires_for_a_window_of_hits() {
        let _serial = registry_guard();
        arm(FaultPlan::repeated("site/r", FaultKind::Error, 2, 3));
        assert!(!hit_err("site/r")); // hit 1: before window
        assert!(hit_err("site/r")); // hits 2..=4: fire
        assert!(hit_err("site/r"));
        assert!(hit_err("site/r"));
        assert!(!hit_err("site/r")); // hit 5: window exhausted
        let summary = disarm();
        assert!(summary.fired);
        assert_eq!(summary.fires, 3);
        assert_eq!(summary.hits_of_site, 5);
    }

    #[test]
    fn panic_kind_unwinds_with_site_name() {
        let _serial = registry_guard();
        arm(FaultPlan::first("site/p", FaultKind::Panic));
        let err = std::panic::catch_unwind(|| hit("site/p")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("site/p"), "{msg}");
        assert!(disarm().fired);
    }

    #[test]
    fn corrupt_kinds_yield_non_finite() {
        let _serial = registry_guard();
        arm(FaultPlan::first("site/c", FaultKind::CorruptNan));
        assert!(hit_corrupt("site/c").unwrap().is_nan());
        disarm();
        arm(FaultPlan::first("site/c", FaultKind::CorruptInf));
        assert!(hit_corrupt("site/c").unwrap().is_infinite());
        disarm();
    }

    #[test]
    fn tracing_enumerates_sites() {
        let _serial = registry_guard();
        let sites = site_hits(|| {
            hit("z/later");
            hit("a/early");
            hit("z/later");
        });
        assert_eq!(
            sites,
            vec![("a/early".to_string(), 1), ("z/later".to_string(), 2)]
        );
        assert!(!active());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let _serial = registry_guard();
        let sites = vec![("a".to_string(), 5), ("b".to_string(), 2)];
        let p1 = FaultPlan::seeded(42, &sites).unwrap();
        let p2 = FaultPlan::seeded(42, &sites).unwrap();
        assert_eq!(p1, p2);
        for seed in 0..64 {
            let p = FaultPlan::seeded(seed, &sites).unwrap();
            let max = sites.iter().find(|(s, _)| *s == p.site).unwrap().1;
            assert!(p.nth >= 1 && p.nth <= max);
            assert!(matches!(p.kind, FaultKind::Panic | FaultKind::AllocFail));
        }
        assert!(FaultPlan::seeded(7, &[]).is_none());
    }
}
