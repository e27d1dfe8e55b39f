//! # qtask-views — DBSP-style incremental materialized views
//!
//! Queries over the published state (probabilities, marginals,
//! expectations, norm) re-expressed as **materialized views** maintained
//! by delta propagation: instead of re-scanning the state on every read,
//! each view keeps per-block partial aggregates and, when the engine
//! publishes a snapshot, patches exactly the blocks named by the
//! publication's [`qtask_core::BlockDelta`] — O(|Δ∩B|) work per publication, in the
//! spirit of DBSP's incremental view maintenance.
//!
//! The pieces:
//!
//! * [`View`] operators ([`NormView`], [`ProbabilityView`],
//!   [`ExpectationView`]) — per-block partials with subtract-old/add-new
//!   patching and support closure for off-diagonal observables.
//! * The [`ViewRegistry`] — attaches to a [`qtask_core::Ckt`] as a
//!   [`qtask_core::SnapshotObserver`] and maintains every registered
//!   view inside the publish path, degrading to a full refresh on
//!   version gaps, injected faults, or panics (never a stale read).
//!   Counters surface both through [`ViewReport`] and the global
//!   `views.*` metrics. Each slot holds its view's latest value and the
//!   version it reflects; a [`ViewHandle`] reads it, or waits for a
//!   newer one ([`ViewHandle::reading_after`]).
//! * [`ViewQuery`] — the declarative, validatable wire form a client
//!   subscribes with; the service layer lowers it via
//!   [`ViewQuery::build`] and streams [`ViewReading`]s back.
//!
//! ```
//! use qtask_core::Ckt;
//! use qtask_gates::GateKind;
//! use qtask_views::{ProbabilityView, ViewRegistry};
//!
//! let mut ckt = Ckt::new(3);
//! let registry = ViewRegistry::new();
//! registry.attach(&mut ckt);
//! let marginal = registry.register(Box::new(ProbabilityView::marginal(vec![0, 1])));
//!
//! let net = ckt.push_net();
//! ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
//! ckt.update_state().unwrap();
//! let reading = marginal.reading().unwrap();
//! let dist = reading.value.as_vector().unwrap();
//! assert!((dist[0] - 0.5).abs() < 1e-12 && (dist[1] - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod ops;
pub mod query;
pub mod registry;
pub mod value;

pub use ops::{ExpectationView, NormView, ProbabilityView, View};
pub use query::{ViewQuery, ViewQueryError};
pub use registry::{ViewHandle, ViewRegistry};
pub use value::{PatchError, PatchStats, ViewReading, ViewReport, ViewValue};
