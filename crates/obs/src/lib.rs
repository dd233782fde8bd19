//! `kamino-obs`: observability for the Kamino pipeline, strictly off the
//! determinism contract.
//!
//! The crate provides four pieces, all pure-std:
//!
//! - [`clock`] — the workspace's **single wall-clock choke point**; every
//!   non-test clock read routes through it (enforced by `kamino-lint`'s
//!   `bare_instant` rule).
//! - [`metrics`] — a lock-cheap registry of counters, gauges and
//!   fixed-bucket latency histograms (p50/p95/p99 readout), rendered as
//!   Prometheus text exposition.
//! - [`span`] — RAII span guards with per-thread parent/child nesting,
//!   collected into a bounded ring.
//! - [`events`] — a bounded ring of typed events, most importantly the
//!   **DP budget ledger** (`kamino-dp`'s σ calibrations and composed ε/δ
//!   spends, per mechanism).
//!
//! Everything hangs off an [`ObsHandle`]. The handle is clone-cheap and
//! **disabled by default**: a disabled handle never reads the clock,
//! never allocates, and never changes library behavior, which is how
//! instrumented code stays byte-identical to uninstrumented code.
//! Exporters ([`ObsHandle::render_prometheus`],
//! [`ObsHandle::chrome_trace_json`]) only ever run on explicit request —
//! no timestamp or counter can leak into snapshots or committed
//! artifacts.
//!
//! ```
//! let obs = kamino_obs::ObsHandle::enabled();
//! {
//!     let mut span = obs.span("fit.training");
//!     span.arg("epochs", "3");
//! } // span recorded on drop
//! obs.counter("kamino_fits_total", &[]).inc();
//! let trace_json = obs.chrome_trace_json();
//! assert!(trace_json.contains("fit.training"));
//! assert!(obs.render_prometheus().contains("kamino_fits_total 1"));
//!
//! let off = kamino_obs::ObsHandle::disabled();
//! assert!(!off.span("never").is_active()); // inert: no clock, no alloc
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod events;
pub mod metrics;
pub mod span;
pub mod trace;

pub use events::{Event, EventRecord};
pub use span::SpanRecord;

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use events::EventRing;
use metrics::{Counter, Gauge, Histo, Registry};
use span::{SpanGuard, SpanSink};

/// Default capacity of the finished-span ring.
const DEFAULT_SPAN_CAP: usize = 8192;
/// Default capacity of the event ring.
const DEFAULT_EVENT_CAP: usize = 1024;

#[derive(Debug)]
struct Inner {
    registry: Registry,
    spans: Arc<SpanSink>,
    events: EventRing,
}

/// Clone-cheap observability handle; `None` inside means disabled.
///
/// Thread it through configuration (`KaminoConfig::obs`,
/// `ServeConfig::obs`); never encode it into snapshots or hashes.
#[derive(Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.inner.is_some() {
            "ObsHandle(enabled)"
        } else {
            "ObsHandle(disabled)"
        })
    }
}

/// Observability is deliberately invisible to configuration equality:
/// two configs that differ only in their obs handle describe the same
/// deterministic run.
impl PartialEq for ObsHandle {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl ObsHandle {
    /// A disabled handle: every operation is an inert no-op.
    pub fn disabled() -> Self {
        ObsHandle { inner: None }
    }

    /// An enabled handle with default ring capacities.
    pub fn enabled() -> Self {
        Self::with_caps(DEFAULT_SPAN_CAP, DEFAULT_EVENT_CAP)
    }

    /// An enabled handle with explicit span/event ring capacities.
    pub fn with_caps(span_cap: usize, event_cap: usize) -> Self {
        ObsHandle {
            inner: Some(Arc::new(Inner {
                registry: Registry::default(),
                spans: Arc::new(SpanSink::new(span_cap.max(1))),
                events: EventRing::new(event_cap.max(1)),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it records itself when the returned guard drops.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard::open(Arc::clone(&inner.spans), name.into()),
            None => SpanGuard::inert(),
        }
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name, labels),
            None => Counter::default(),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name, labels),
            None => Gauge::default(),
        }
    }

    /// Get or register a histogram with the given finite bucket bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histo {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name, labels, bounds),
            None => Histo::default(),
        }
    }

    /// Record a typed event (DP budget ledger, ledger replay).
    pub fn event(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.events.push(event);
        }
    }

    /// Snapshot of the finished-span ring (oldest first).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.spans.snapshot())
    }

    /// Snapshot of the event ring (oldest first).
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.snapshot())
    }

    /// Number of spans dropped because the ring was full.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.spans.dropped())
    }

    /// Render the metric registry as Prometheus text exposition.
    /// Empty string when disabled.
    pub fn render_prometheus(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |i| i.registry.render_prometheus())
    }

    /// Render spans + events as a chrome://tracing JSON document.
    pub fn chrome_trace_json(&self) -> String {
        trace::render_chrome_trace(&self.spans(), &self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_fully_inert() {
        let obs = ObsHandle::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.span("x").is_active());
        obs.counter("c", &[]).inc();
        obs.gauge("g", &[]).set(1.0);
        obs.histogram("h", &[], &[1.0]).observe(0.5);
        obs.event(Event::LedgerReplay {
            records: 1,
            dangling: 0,
            spent_epsilon: 1.0,
        });
        assert!(obs.spans().is_empty());
        assert!(obs.events().is_empty());
        assert_eq!(obs.render_prometheus(), "");
        assert_eq!(obs.chrome_trace_json(), obs.chrome_trace_json());
    }

    #[test]
    fn enabled_handle_round_trips_all_sinks() {
        let obs = ObsHandle::with_caps(4, 4);
        {
            let mut s = obs.span("phase");
            s.arg("n", "10");
        }
        obs.counter("kamino_total", &[("k", "v")]).add(3);
        obs.event(Event::BudgetCalibration {
            mechanism: "m2_dpsgd",
            sigma: 1.1,
            epsilon_share: 0.75,
        });
        assert_eq!(obs.spans().len(), 1);
        assert_eq!(obs.events().len(), 1);
        let prom = obs.render_prometheus();
        assert!(prom.contains("kamino_total{k=\"v\"} 3"));
        let trace = obs.chrome_trace_json();
        assert!(trace.contains("\"phase\""));
        assert!(trace.contains("budget_calibration"));
        // clones share the same sinks
        let clone = obs.clone();
        clone.counter("kamino_total", &[("k", "v")]).inc();
        assert!(obs.render_prometheus().contains("kamino_total{k=\"v\"} 4"));
    }
}
