//! In-tree observability for the YouTube CDN reproduction.
//!
//! The paper this workspace reproduces infers CDN policy from *observation*
//! — counting DNS decisions, redirections, and cache misses at the network
//! edge. This crate makes the simulator's own decisions observable the same
//! way, without perturbing them:
//!
//! * a structured event bus: an [`Event`] taxonomy plus a pluggable
//!   [`Sink`] trait ([`NullSink`], [`RingBufferSink`], [`JsonlSink`]);
//! * a [`MetricsRegistry`] of atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s with p50/p90/p99 estimation;
//! * scoped [`Span`] timers for phase profiling (`scenario.build`,
//!   `run.<dataset>`, `analysis.*`, `export`);
//! * [`JsonWriter`], the one JSON writer behind the JSONL lines and the
//!   `--metrics-out` snapshot;
//! * a stderr [`Progress`] reporter so stdout stays machine-parseable.
//!
//! The entry point is the cloneable [`Telemetry`] handle. A *disabled*
//! handle (the default everywhere) costs one branch per instrument site:
//! events are built lazily inside closures that never run, spans never read
//! the clock, and no allocation happens. A hard invariant, enforced by
//! `tests/determinism.rs` in the core crate, is that telemetry never
//! touches the simulator's RNG stream: datasets are byte-identical with
//! telemetry on and off.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ytcdn_telemetry::{Event, RingBufferSink, Sink, Telemetry};
//!
//! let ring = Arc::new(RingBufferSink::new(128));
//! let tel = Telemetry::with_sink(Arc::clone(&ring) as Arc<dyn Sink>).with_scope("EU2");
//!
//! tel.counter("engine.cache_miss").inc();
//! tel.emit(|| Event::CacheMiss { t_ms: 5, dc: 3, video_rank: 900_001 });
//! {
//!     let _span = tel.span("scenario.build");
//!     // ... timed work ...
//! }
//!
//! let snap = tel.metrics_snapshot().unwrap();
//! assert_eq!(snap.counter("engine.cache_miss"), 1);
//! assert_eq!(ring.snapshot().len(), 2); // the cache miss + the phase event
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod sink;
pub mod span;

use std::sync::Arc;

pub use event::{DnsCauseKind, Event, RedirectKind, TelemetryRecord};
pub use json::JsonWriter;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use progress::Progress;
pub use sink::{JsonlSink, NullSink, RingBufferSink, Sink};
pub use span::Span;

/// The shared telemetry handle: an event sink plus a metrics registry.
///
/// Cloning is cheap (two `Arc` bumps) and clones share state, so one handle
/// can fan out across the simulator's per-dataset threads. The handle is
/// either *enabled* (created by [`Telemetry::with_sink`]) or *disabled*
/// (created by [`Telemetry::disabled`] / [`Default`]); a disabled handle
/// reduces every operation to a branch on an `Option`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    scope: Option<Arc<str>>,
}

#[derive(Debug)]
struct Inner {
    sink: Arc<dyn Sink>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for dyn Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sink")
    }
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle writing events to `sink` and metrics to a fresh
    /// registry.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                metrics: MetricsRegistry::new(),
            })),
            scope: None,
        }
    }

    /// An enabled handle that collects metrics but discards events.
    pub fn metrics_only() -> Self {
        Self::with_sink(Arc::new(NullSink))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone of this handle whose events carry `scope` (usually a dataset
    /// name). Metrics stay shared and unscoped.
    pub fn with_scope(&self, scope: &str) -> Self {
        Self {
            inner: self.inner.clone(),
            scope: Some(Arc::from(scope)),
        }
    }

    /// Records the event built by `build`. The closure only runs on an
    /// enabled handle, so hot paths pay nothing when telemetry is off.
    pub fn emit<F: FnOnce() -> Event>(&self, build: F) {
        if let Some(inner) = &self.inner {
            let rec = TelemetryRecord {
                scope: self.scope.as_deref().map(str::to_owned),
                event: build(),
            };
            inner.sink.record(&rec);
        }
    }

    /// The counter named `name`, or a detached no-op cell when disabled.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => Counter::detached(),
        }
    }

    /// The gauge named `name`, or a detached cell when disabled.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.metrics.gauge(name),
            None => Gauge::detached(),
        }
    }

    /// The histogram named `name`, or a detached one when disabled.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Starts a phase span; the measurement is recorded when the returned
    /// guard drops. Inert on a disabled handle.
    pub fn span(&self, name: &'static str) -> Span {
        Span::start(self, name)
    }

    /// A snapshot of every metric, or `None` on a disabled handle.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// Flushes the event sink.
    ///
    /// # Errors
    ///
    /// Returns the sink's first buffered I/O error, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner.sink.flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut built = false;
        tel.emit(|| {
            built = true;
            Event::Phase {
                name: "x".into(),
                wall_us: 0,
            }
        });
        assert!(!built, "event closure must not run when disabled");
        tel.counter("c").inc();
        tel.gauge("g").set(1.0);
        tel.histogram("h").record(1.0);
        assert!(tel.metrics_snapshot().is_none());
        tel.flush().unwrap();
    }

    #[test]
    fn clones_share_metrics() {
        let tel = Telemetry::metrics_only();
        let scoped = tel.with_scope("EU2");
        scoped.counter("shared").add(3);
        tel.counter("shared").add(4);
        assert_eq!(tel.metrics_snapshot().unwrap().counter("shared"), 7);
    }

    #[test]
    fn scope_is_attached_to_events() {
        let ring = Arc::new(RingBufferSink::new(8));
        let tel = Telemetry::with_sink(Arc::clone(&ring) as Arc<dyn Sink>);
        tel.emit(|| Event::Phase {
            name: "global".into(),
            wall_us: 1,
        });
        tel.with_scope("EU1-FTTH").emit(|| Event::Phase {
            name: "scoped".into(),
            wall_us: 2,
        });
        let events = ring.snapshot();
        assert_eq!(events[0].scope, None);
        assert_eq!(events[1].scope.as_deref(), Some("EU1-FTTH"));
    }

    #[test]
    fn handles_are_shareable_across_threads() {
        let tel = Telemetry::metrics_only();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tel = tel.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        tel.counter("threads").inc();
                    }
                });
            }
        });
        assert_eq!(tel.metrics_snapshot().unwrap().counter("threads"), 4000);
    }
}
