//! Span and event records plus the RAII span guard.

use crate::report::SpanSummary;
use crate::Inner;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// A signed integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Int(v) => write!(f, "{v}"),
            FieldValue::Float(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int(v as i64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Int(v as i64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within the telemetry domain (assigned at open).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The span's name (e.g. `stage.extraction`).
    pub name: String,
    /// Debug identifier of the thread the span ran on.
    pub thread: String,
    /// Open time, seconds since the domain's epoch.
    pub start_s: f64,
    /// Wall-clock duration in seconds.
    pub duration_s: f64,
    /// Key-value fields set on the span.
    pub fields: Vec<(String, FieldValue)>,
}

/// One point-in-time event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// The span the event occurred inside, if any.
    pub span: Option<u64>,
    /// The event's name.
    pub name: String,
    /// Event time, seconds since the domain's epoch.
    pub t_s: f64,
    /// Key-value fields set on the event.
    pub fields: Vec<(String, FieldValue)>,
}

/// Completed spans in completion order, with each name's summary kept
/// up to date as spans complete, so a report reads the summaries
/// instead of walking the records.
#[derive(Default)]
pub(crate) struct SpanLog {
    pub(crate) records: Vec<SpanRecord>,
    /// Per-name count, total and longest span, folded in completion
    /// order: the totals are the same f64s a fold over `records` gives.
    pub(crate) summaries: BTreeMap<String, SpanSummary>,
}

impl SpanLog {
    fn push(&mut self, record: SpanRecord) {
        let summary = match self.summaries.get_mut(&record.name) {
            Some(summary) => summary,
            None => self
                .summaries
                .entry(record.name.clone())
                .or_insert_with(|| SpanSummary {
                    name: record.name.clone(),
                    count: 0,
                    total_s: 0.0,
                    max_s: 0.0,
                }),
        };
        summary.count += 1;
        summary.total_s += record.duration_s;
        summary.max_s = summary.max_s.max(record.duration_s);
        self.records.push(record);
    }
}

/// RAII guard for an open span: records the span (with its wall-clock
/// duration) into the telemetry domain when dropped.
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_s: f64,
    started: std::time::Instant,
    fields: Vec<(String, FieldValue)>,
}

impl SpanGuard {
    pub(crate) fn noop() -> Self {
        SpanGuard {
            inner: None,
            id: 0,
            parent: None,
            name: String::new(),
            start_s: 0.0,
            started: std::time::Instant::now(),
            fields: Vec::new(),
        }
    }

    pub(crate) fn live(
        inner: Arc<Inner>,
        id: u64,
        parent: Option<u64>,
        name: String,
        start_s: f64,
    ) -> Self {
        SpanGuard {
            inner: Some(inner),
            id,
            parent,
            name,
            start_s,
            started: std::time::Instant::now(),
            fields: Vec::new(),
        }
    }

    /// The span's id, for explicit cross-thread parenting via
    /// [`Telemetry::span_under`](crate::Telemetry::span_under).
    /// `None` on a disabled handle.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|_| self.id)
    }

    /// Attaches a key-value field to the span.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<FieldValue>) {
        if self.inner.is_some() {
            self.fields.push((key.into(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.pop_span(self.id);
            inner.close_span(self.id);
            let record = SpanRecord {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                thread: format!("{:?}", std::thread::current().id()),
                start_s: self.start_s,
                duration_s: self.started.elapsed().as_secs_f64(),
                fields: std::mem::take(&mut self.fields),
            };
            inner.spans.lock().push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn spans_nest_on_one_thread() {
        let t = Telemetry::enabled();
        let outer = t.span("outer");
        let outer_id = outer.id().unwrap();
        {
            let inner = t.span("inner");
            assert_ne!(inner.id().unwrap(), outer_id);
        }
        drop(outer);
        let spans = t.snapshot().spans;
        assert_eq!(spans.len(), 2);
        // Completion order: inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, None);
        assert!(spans[1].start_s <= spans[0].start_s);
        assert!(spans[1].duration_s >= spans[0].duration_s);
    }

    #[test]
    fn explicit_parenting_crosses_threads() {
        let t = Telemetry::enabled();
        let stage = t.span("stage");
        let stage_id = stage.id();
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let mut worker = t.span_under("worker", stage_id);
                    worker.set("camera", c as i64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(stage);
        let spans = t.snapshot().spans;
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        for w in &workers {
            assert_eq!(w.parent, stage_id);
        }
        let cameras: Vec<i64> = workers
            .iter()
            .flat_map(|w| w.fields.iter())
            .filter(|(k, _)| k == "camera")
            .map(|(_, v)| match v {
                crate::FieldValue::Int(i) => *i,
                _ => panic!("camera field must be an int"),
            })
            .collect();
        assert_eq!(cameras.len(), 2);
        assert!(cameras.contains(&0) && cameras.contains(&1));
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let t = Telemetry::enabled();
        {
            let _run = t.span("run");
            for _ in 0..3 {
                let _child = t.span("child");
            }
        }
        let spans = t.snapshot().spans;
        let run_id = spans.iter().find(|s| s.name == "run").unwrap().id;
        let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 3);
        assert!(children.iter().all(|c| c.parent == Some(run_id)));
        // Siblings open in order.
        assert!(children.windows(2).all(|w| w[0].start_s <= w[1].start_s));
    }
}
