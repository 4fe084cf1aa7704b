//! Observability for the DiEvent pipeline.
//!
//! Three pieces, designed to be cheap enough to leave on:
//!
//! * **Tracing** ([`Telemetry::span`]) — nested wall-clock spans with
//!   key-value fields. Nesting is tracked per thread; cross-thread
//!   children (camera workers under the extraction stage) attach via
//!   [`Telemetry::span_under`].
//! * **Metrics** ([`Telemetry::counter`], [`Telemetry::gauge`],
//!   [`Telemetry::histogram`]) — named instruments in a process-local
//!   registry. Histograms are log-scale with p50/p95/p99 summaries.
//! * **Exporters** ([`Telemetry::render_tree`],
//!   [`Telemetry::trace_jsonl`], [`Telemetry::render_prometheus`]) — a
//!   human-readable tree dump, a JSON-lines trace, and a
//!   Prometheus-style text exposition, all rendered from one
//!   [`Snapshot`].
//!
//! A [`Telemetry`] handle is a cheap clone (one `Arc`). A *disabled*
//! handle ([`Telemetry::disabled`]) carries no allocation at all:
//! every instrument it hands out is a no-op, so instrumented code pays
//! one branch per operation.
//!
//! ```
//! use dievent_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! {
//!     let mut span = telemetry.span("stage.extraction");
//!     span.set("cameras", 2i64);
//!     telemetry.counter("frames_processed").add(40);
//!     telemetry.histogram("frame_extraction_seconds").observe(0.0021);
//! }
//! let report = telemetry.report();
//! assert_eq!(report.counter("frames_processed"), Some(40));
//! ```

#![forbid(unsafe_code)]

mod http;
pub mod lineage;
pub mod live;
mod metrics;
mod report;
mod sink;
mod span;

pub use http::{validate_exposition, ExpositionStats};
pub use lineage::{
    CameraLane, FrameWaterfall, LineageReport, LineageStageSummary, LineageSummary, LineageTracer,
};
pub use live::{
    collapsed_stacks, span_profile, LiveOptions, LivePlane, PlaneProbe, ProfileNode, RateEntry,
    RateWindow, WindowQuantiles,
};
pub use metrics::{Counter, Gauge, Histogram};
pub use report::{CounterEntry, GaugeEntry, HistogramSummary, SpanSummary, TelemetryReport};
pub use sink::Snapshot;
pub use span::{EventRecord, FieldValue, SpanGuard, SpanRecord};

use metrics::Registry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

pub(crate) struct Inner {
    epoch: Instant,
    next_span_id: AtomicU64,
    /// Completed spans, in completion order.
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    /// Per-thread stack of open span ids (for implicit nesting).
    stacks: Mutex<HashMap<ThreadId, Vec<u64>>>,
    /// Spans currently open, by id — the live profiler resolves parent
    /// chains through here while ancestors are still running.
    open: Mutex<HashMap<u64, OpenSpan>>,
    registry: Registry,
}

/// Name/parent/start of a span that has not completed yet.
#[derive(Debug, Clone)]
pub(crate) struct OpenSpan {
    pub(crate) name: String,
    pub(crate) parent: Option<u64>,
    pub(crate) start_s: f64,
}

impl Inner {
    pub(crate) fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Copy of the completed spans (for the live profiler).
    pub(crate) fn completed_spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    fn current_span(&self) -> Option<u64> {
        self.stacks
            .lock()
            .get(&std::thread::current().id())
            .and_then(|s| s.last().copied())
    }

    fn push_span(&self, id: u64) {
        self.stacks
            .lock()
            .entry(std::thread::current().id())
            .or_default()
            .push(id);
    }

    fn pop_span(&self, id: u64) {
        let mut stacks = self.stacks.lock();
        if let Some(stack) = stacks.get_mut(&std::thread::current().id()) {
            // Guards drop LIFO within a thread, so this is normally the
            // top; tolerate out-of-order drops by removing the match.
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.remove(pos);
            }
        }
    }

    fn close_span(&self, id: u64) {
        self.open.lock().remove(&id);
    }

    /// Copy of the currently open spans (for the live profiler).
    pub(crate) fn open_spans(&self) -> Vec<(u64, OpenSpan)> {
        self.open
            .lock()
            .iter()
            .map(|(id, s)| (*id, s.clone()))
            .collect()
    }
}

/// A handle to one telemetry domain. Clone freely; all clones share
/// the same spans, events, and registry.
///
/// A handle may carry *base labels* (see [`Telemetry::with_labels`]):
/// every metric it creates gets those labels merged in ahead of the
/// call-site labels, while still landing in the shared registry. This
/// is how a multi-tenant server stamps each session's gauges with a
/// `tenant` label without giving each tenant its own registry.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Labels prepended to every instrument this handle creates.
    base: Option<Arc<Vec<(String, String)>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A live telemetry domain.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_span_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                stacks: Mutex::new(HashMap::new()),
                open: Mutex::new(HashMap::new()),
                registry: Registry::default(),
            })),
            base: None,
        }
    }

    /// A no-op handle: spans, events, and every instrument it hands
    /// out do nothing. This is the `Default`.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            base: None,
        }
    }

    /// A handle sharing this one's registry whose metrics all carry
    /// `labels` in addition to any labels given at the call site (and
    /// any base labels this handle already carries — labels accumulate
    /// across chained calls). Callers must not repeat a key already in
    /// the base set: label keys are not deduplicated.
    ///
    /// Spans and events are unaffected; only counters, gauges, and
    /// histograms pick up the base labels.
    pub fn with_labels(&self, labels: &[(&str, &str)]) -> Telemetry {
        if self.inner.is_none() || labels.is_empty() {
            return self.clone();
        }
        let mut base: Vec<(String, String)> = self.base.as_deref().cloned().unwrap_or_default();
        base.extend(
            labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned())),
        );
        Telemetry {
            inner: self.inner.clone(),
            base: Some(Arc::new(base)),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub(crate) fn inner_arc(&self) -> Option<Arc<Inner>> {
        self.inner.clone()
    }

    /// Opens a span nested under the current thread's innermost open
    /// span. The span closes (and records its duration) when the
    /// returned guard drops.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        let parent = self.inner.as_ref().and_then(|i| i.current_span());
        self.span_under(name, parent)
    }

    /// Opens a span with an explicit parent — the escape hatch for
    /// cross-thread nesting, where the implicit per-thread stack can't
    /// see the parent. `parent` is typically [`SpanGuard::id`] of a
    /// span owned by another thread.
    pub fn span_under(&self, name: impl Into<String>, parent: Option<u64>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(inner) => {
                let id = inner.next_span_id.fetch_add(1, Ordering::Relaxed);
                let name = name.into();
                let start_s = inner.now_s();
                inner.push_span(id);
                inner.open.lock().insert(
                    id,
                    OpenSpan {
                        name: name.clone(),
                        parent,
                        start_s,
                    },
                );
                SpanGuard::live(Arc::clone(inner), id, parent, name, start_s)
            }
        }
    }

    /// Records a point-in-time event attached to the current thread's
    /// innermost open span (or free-standing when none is open).
    pub fn event(&self, name: impl Into<String>) {
        if let Some(inner) = &self.inner {
            let record = EventRecord {
                span: inner.current_span(),
                name: name.into(),
                t_s: inner.now_s(),
                fields: Vec::new(),
            };
            inner.events.lock().push(record);
        }
    }

    /// A named monotonic counter (get-or-create).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// A labeled counter, e.g. `counter_with("frames_processed",
    /// &[("camera", "0")])`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            None => Counter::noop(),
            Some(inner) => match self.merged_labels(labels) {
                None => inner.registry.counter(name, labels),
                Some(merged) => inner.registry.counter(name, &as_label_refs(&merged)),
            },
        }
    }

    /// A named gauge (get-or-create).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// A labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            None => Gauge::noop(),
            Some(inner) => match self.merged_labels(labels) {
                None => inner.registry.gauge(name, labels),
                Some(merged) => inner.registry.gauge(name, &as_label_refs(&merged)),
            },
        }
    }

    /// A named log-scale histogram (get-or-create).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// A labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.inner {
            None => Histogram::noop(),
            Some(inner) => match self.merged_labels(labels) {
                None => inner.registry.histogram(name, labels),
                Some(merged) => inner.registry.histogram(name, &as_label_refs(&merged)),
            },
        }
    }

    /// Base labels + call-site labels, owned; `None` when this handle
    /// carries no base labels (the common case — avoids allocating).
    fn merged_labels(&self, labels: &[(&str, &str)]) -> Option<Vec<(String, String)>> {
        let base = self.base.as_deref()?;
        let mut merged = base.clone();
        merged.extend(
            labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned())),
        );
        Some(merged)
    }

    /// A point-in-time copy of everything recorded so far: completed
    /// spans, events, and metric values. Open spans are not included.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => {
                // Take each lock in its own statement: `report()` locks
                // `spans` again, and the guards are not reentrant.
                let spans = inner.spans.lock().clone();
                let events = inner.events.lock().clone();
                let report = self.report();
                Snapshot {
                    spans,
                    events,
                    report,
                }
            }
        }
    }

    /// The aggregated metrics + span-summary view (serializable; this
    /// is what [`EventAnalysis`](../dievent_core) carries).
    pub fn report(&self) -> TelemetryReport {
        match &self.inner {
            None => TelemetryReport::default(),
            Some(inner) => report::build(&inner.registry, &inner.spans.lock()),
        }
    }

    /// Renders the span tree + registry summary as human-readable text.
    pub fn render_tree(&self) -> String {
        sink::tree(&self.snapshot())
    }

    /// Renders the trace as JSON lines (one span or event per line).
    pub fn trace_jsonl(&self) -> String {
        sink::jsonl(&self.snapshot())
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        sink::prometheus(&self.snapshot())
    }
}

/// Borrowed view of owned label pairs, as the registry expects them.
fn as_label_refs(labels: &[(String, String)]) -> Vec<(&str, &str)> {
    labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let mut span = t.span("nothing");
        span.set("k", 1i64);
        t.counter("c").incr();
        t.gauge("g").set(5.0);
        t.histogram("h").observe(1.0);
        t.event("e");
        drop(span);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(t.report(), TelemetryReport::default());
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.counter("shared").add(3);
        u.counter("shared").add(4);
        assert_eq!(t.report().counter("shared"), Some(7));
    }

    #[test]
    fn base_labels_merge_into_shared_registry() {
        let t = Telemetry::enabled();
        let tenant = t.with_labels(&[("tenant", "7")]);
        // Same name + same final label set → same underlying counter.
        tenant.counter_with("frames", &[("camera", "0")]).add(2);
        t.counter_with("frames", &[("camera", "0"), ("tenant", "7")])
            .add(3);
        assert_eq!(
            t.counter_with("frames", &[("tenant", "7"), ("camera", "0")])
                .get(),
            5,
            "base labels and call-site labels land on one instrument"
        );
        // Chained with_labels accumulates.
        let deep = tenant.with_labels(&[("camera", "1")]);
        deep.counter("frames").incr();
        assert_eq!(
            t.counter_with("frames", &[("tenant", "7"), ("camera", "1")])
                .get(),
            1
        );
        // The exposition carries the merged labels.
        let text = t.render_prometheus();
        assert!(
            text.contains("tenant=\"7\""),
            "rendered exposition must carry base labels:\n{text}"
        );
        // Disabled handles stay inert through with_labels.
        let d = Telemetry::disabled().with_labels(&[("tenant", "1")]);
        assert!(!d.is_enabled());
    }

    #[test]
    fn events_attach_to_open_span() {
        let t = Telemetry::enabled();
        let outer = t.span("outer");
        let outer_id = outer.id();
        t.event("inside");
        drop(outer);
        t.event("after");
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].span, outer_id);
        assert_eq!(snap.events[1].span, None);
    }
}
