//! Exporters: three renderers, each behind a
//! [`Telemetry`](crate::Telemetry) method:
//!
//! * [`tree`] — human-readable span tree plus registry summary of a
//!   [`Snapshot`] (`render_tree`; what `dievent --metrics` prints to
//!   stderr);
//! * [`jsonl`] — one JSON object per span/event line of a [`Snapshot`]
//!   (`trace_jsonl`; what `dievent --trace FILE` writes);
//! * [`prometheus`] — text exposition of the aggregated
//!   [`TelemetryReport`] alone (`render_prometheus`; what
//!   `GET /metrics` serves, so a scrape copies no span record).

use crate::report::TelemetryReport;
use crate::span::{EventRecord, FieldValue, SpanRecord};
use serde_json::json;
use std::fmt::{self, Write};

/// A point-in-time copy of a telemetry domain.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Recorded events, in order.
    pub events: Vec<EventRecord>,
    /// The aggregated metrics view.
    pub report: TelemetryReport,
}

/// Runs `write` into a fresh string. Writing into a `String` cannot
/// fail; an error would only truncate the rendered output.
fn render(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    let _ = write(&mut out);
    out
}

fn fmt_seconds(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

fn fmt_fields(fields: &[(String, FieldValue)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!(" {k}={v}"))
        .collect::<String>()
}

/// Human-readable tree dump.
pub(crate) fn tree(snapshot: &Snapshot) -> String {
    render(|w| {
        if !snapshot.spans.is_empty() {
            writeln!(w, "spans:")?;
            // Children of each span, in open order.
            let mut spans = snapshot.spans.to_vec();
            spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
            let roots: Vec<&SpanRecord> = spans
                .iter()
                .filter(|s| s.parent.is_none() || !spans.iter().any(|p| Some(p.id) == s.parent))
                .collect();
            for root in roots {
                write_subtree(w, &spans, root, 1)?;
            }
        }
        let r = &snapshot.report;
        if !r.counters.is_empty() {
            writeln!(w, "counters:")?;
            for c in &r.counters {
                writeln!(w, "  {:<48} {}", c.name, c.value)?;
            }
        }
        if !r.gauges.is_empty() {
            writeln!(w, "gauges:")?;
            for g in &r.gauges {
                writeln!(w, "  {:<48} {}", g.name, g.value)?;
            }
        }
        if !r.histograms.is_empty() {
            writeln!(w, "histograms:")?;
            for h in &r.histograms {
                writeln!(
                    w,
                    "  {:<48} count={} p50={} p95={} p99={} max={}",
                    h.name,
                    h.count,
                    fmt_seconds(h.p50),
                    fmt_seconds(h.p95),
                    fmt_seconds(h.p99),
                    fmt_seconds(h.max),
                )?;
            }
        }
        Ok(())
    })
}

fn write_subtree(
    w: &mut String,
    spans: &[SpanRecord],
    node: &SpanRecord,
    depth: usize,
) -> fmt::Result {
    writeln!(
        w,
        "{}{} ({}){}",
        "  ".repeat(depth),
        node.name,
        fmt_seconds(node.duration_s),
        fmt_fields(&node.fields),
    )?;
    for child in spans.iter().filter(|s| s.parent == Some(node.id)) {
        write_subtree(w, spans, child, depth + 1)?;
    }
    Ok(())
}

fn render_line(v: &serde_json::Value) -> Result<String, fmt::Error> {
    serde_json::to_string(v).map_err(|_| fmt::Error)
}

fn fields_object(fields: &[(String, FieldValue)]) -> serde_json::Value {
    let mut obj = serde_json::Value::Object(Default::default());
    if let serde_json::Value::Object(map) = &mut obj {
        for (k, v) in fields {
            let jv = match v {
                FieldValue::Int(i) => json!(*i),
                FieldValue::Float(f) => json!(*f),
                FieldValue::Str(s) => json!(s),
                FieldValue::Bool(b) => json!(*b),
            };
            map.insert(k.clone(), jv);
        }
    }
    obj
}

/// JSON-lines trace: one object per span (`"kind":"span"`) and per
/// event (`"kind":"event"`), spans sorted by start time.
pub(crate) fn jsonl(snapshot: &Snapshot) -> String {
    render(|w| {
        let mut spans = snapshot.spans.to_vec();
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        for s in &spans {
            let line = json!({
                "kind": "span",
                "id": s.id,
                "parent": serde_json::to_value(&s.parent).map_err(|_| fmt::Error)?,
                "name": s.name,
                "thread": s.thread,
                "start_s": s.start_s,
                "duration_s": s.duration_s,
                "fields": fields_object(&s.fields),
            });
            writeln!(w, "{}", render_line(&line)?)?;
        }
        for e in &snapshot.events {
            let line = json!({
                "kind": "event",
                "span": serde_json::to_value(&e.span).map_err(|_| fmt::Error)?,
                "name": e.name,
                "t_s": e.t_s,
                "fields": fields_object(&e.fields),
            });
            writeln!(w, "{}", render_line(&line)?)?;
        }
        Ok(())
    })
}

/// `frames_processed{camera="0"}` → `("frames_processed", `{camera="0"}`)`.
fn split_labels(rendered: &str) -> (&str, &str) {
    match rendered.find('{') {
        Some(i) => (&rendered[..i], &rendered[i..]),
        None => (rendered, ""),
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Appends `_total` unless the name already carries it.
fn counter_name(name: &str) -> String {
    if name.ends_with("_total") {
        name.to_owned()
    } else {
        format!("{name}_total")
    }
}

/// Escaping for `# HELP` text: backslash and line feed (double quotes
/// are legal in help text and stay as-is).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Help text for the pipeline's well-known instrument families; the
/// exposition falls back to the metric name for instruments it doesn't
/// know.
fn help_for(base: &str) -> Option<&'static str> {
    Some(match base {
        "frames_processed" => "Frames fully processed by a camera's stage-3 extractor",
        "faces_detected" => "Face detections accepted by a camera's extractor",
        "identity_misses" => "Detections the face recognizer could not attribute",
        "detections_dropped" => "Detections dropped as unattributable (no usable gaze)",
        "emotion_classifications" => {
            "Faces classified by the LBP+MLP emotion model at fusion, one per identified \
             participant per frame, by the camera whose face was kept"
        }
        "lookat_tests" => "Ordered participant pairs geometrically tested for looks",
        "ec_episodes" => "Eye-contact episodes detected over the recording",
        "metadata_inserts" => "Records inserted into the metadata repository",
        "session.frames_fused" => "Frames fused into look-at matrices by the sequencer",
        "session.frames_dropped" => "Frames shed by DropOldest backpressure, per camera",
        "session.reorder_evictions" => "Frames fused incomplete after the reorder window expired",
        "session.late_arrivals" => "Camera outputs arriving after their frame was already fused",
        "session.queue_depth" => "Bounded input queue occupancy, per camera (frames)",
        "session.reorder_occupancy" => "Frames pending in the sequencer's reorder window",
        "session.uptime_s" => "Seconds since the streaming session opened",
        "session.watermark_frame" => "Lowest frame index not yet fused (sequencer frontier)",
        "session.camera_alive" => "1 while the camera's worker thread is running, else 0",
        "pool.tasks" => "Tasks executed by the thread pool for this domain",
        "pool.threads" => "Worker threads in the active pool",
        "pool.queue_depth" => "Tasks queued in the pool and not yet picked up",
        "observe.requests" => "HTTP requests served by the live observability plane",
        "observe.samples" => "Snapshot windows taken by the live sampler",
        "participants" => "Participants in the analyzed scenario",
        "cameras" => "Cameras in the acquisition rig",
        "recording_frames" => "Frames fused over the whole recording",
        "frame_extraction_seconds" => "Stage-3 wall-clock seconds per frame, per camera",
        "fusion_seconds" => "Stage-4 fusion + look-at wall-clock seconds per frame",
        "emotion.classify_seconds" => "Wall-clock seconds of each fused frame's emotion batch",
        "video.push_seconds" => "Stage-2 wall-clock seconds per camera-0 monitor frame parsed",
        "metadata_flush_seconds" => "Metadata log flush latency",
        _ => return None,
    })
}

/// Prometheus text exposition of the registry (spans and events are
/// not exported — scrape formats carry metrics only).
///
/// Conformance notes: counters carry the conventional `_total` suffix,
/// every family gets `# HELP` and `# TYPE` lines, histograms are
/// exported as summaries with `quantile` labels, and label values /
/// help text are escaped per the exposition format.
pub(crate) fn prometheus(r: &TelemetryReport) -> String {
    render(|w| {
        let mut last_family: Option<String> = None;
        let mut family = |w: &mut String, raw: &str, exposed: &str, kind: &str| -> fmt::Result {
            if last_family.as_deref() != Some(exposed) {
                let help = help_for(raw).unwrap_or(raw);
                writeln!(w, "# HELP dievent_{exposed} {}", escape_help(help))?;
                writeln!(w, "# TYPE dievent_{exposed} {kind}")?;
                last_family = Some(exposed.to_owned());
            }
            Ok(())
        };
        for c in &r.counters {
            let (raw, labels) = split_labels(&c.name);
            let name = counter_name(&sanitize(raw));
            family(w, raw, &name, "counter")?;
            writeln!(w, "dievent_{name}{labels} {}", c.value)?;
        }
        for g in &r.gauges {
            let (raw, labels) = split_labels(&g.name);
            let name = sanitize(raw);
            family(w, raw, &name, "gauge")?;
            writeln!(w, "dievent_{name}{labels} {}", g.value)?;
        }
        for h in &r.histograms {
            let (raw, labels) = split_labels(&h.name);
            let name = sanitize(raw);
            family(w, raw, &name, "summary")?;
            let base_labels = labels.trim_start_matches('{').trim_end_matches('}');
            let quantile = |q: &str, v: f64| {
                if base_labels.is_empty() {
                    format!("dievent_{name}{{quantile=\"{q}\"}} {v}")
                } else {
                    format!("dievent_{name}{{{base_labels},quantile=\"{q}\"}} {v}")
                }
            };
            writeln!(w, "{}", quantile("0.5", h.p50))?;
            writeln!(w, "{}", quantile("0.95", h.p95))?;
            writeln!(w, "{}", quantile("0.99", h.p99))?;
            writeln!(w, "dievent_{name}_sum{labels} {}", h.sum)?;
            writeln!(w, "dievent_{name}_count{labels} {}", h.count)?;
        }
        // Span aggregates exported as a pair of synthetic counters:
        // total seconds and completion count per span name.
        for s in &r.spans {
            let name = sanitize(&s.name);
            let seconds = format!("span_{name}_seconds_total");
            family(w, &s.name, &seconds, "counter")?;
            writeln!(w, "dievent_{seconds} {}", s.total_s)?;
            let count = format!("span_{name}_total");
            family(w, &s.name, &count, "counter")?;
            writeln!(w, "dievent_{count} {}", s.count)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    fn sample() -> Telemetry {
        let t = Telemetry::enabled();
        {
            let mut run = t.span("run");
            run.set("frames", 40usize);
            let _child = t.span("stage.extraction");
            t.counter_with("frames_processed", &[("camera", "0")])
                .add(40);
            t.gauge("participants").set(4.0);
            t.histogram("frame_extraction_seconds").observe(0.002);
        }
        t
    }

    #[test]
    fn tree_dump_shows_hierarchy_and_metrics() {
        let text = sample().render_tree();
        assert!(text.contains("run ("), "{text}");
        assert!(
            text.contains("    stage.extraction ("),
            "nested deeper: {text}"
        );
        assert!(text.contains("frames=40"));
        assert!(text.contains("frames_processed{camera=\"0\"}"));
        assert!(text.contains("p50="));
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let text = sample().trace_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "two spans: {text}");
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["kind"], serde_json::json!("span"));
            assert!(v["duration_s"].as_f64().unwrap() >= 0.0);
        }
    }

    #[test]
    fn jsonl_round_trips_the_snapshot() {
        let t = sample();
        t.event("frame.dropped");
        let snapshot = t.snapshot();
        let text = t.trace_jsonl();
        let values: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(values.len(), snapshot.spans.len() + snapshot.events.len());
        // Every exported span is reconstructible field-for-field.
        for record in &snapshot.spans {
            let line = values
                .iter()
                .find(|v| v["kind"].as_str() == Some("span") && v["id"].as_u64() == Some(record.id))
                .unwrap_or_else(|| panic!("span {} missing from trace", record.id));
            assert_eq!(line["name"].as_str(), Some(record.name.as_str()));
            assert_eq!(line["parent"].as_u64(), record.parent);
            assert_eq!(line["start_s"].as_f64(), Some(record.start_s));
            assert_eq!(line["duration_s"].as_f64(), Some(record.duration_s));
        }
        let event = values
            .iter()
            .find(|v| v["kind"].as_str() == Some("event"))
            .expect("event line present");
        assert_eq!(event["name"].as_str(), Some("frame.dropped"));
    }

    #[test]
    fn prometheus_exposition_has_types_and_values() {
        let text = sample().render_prometheus();
        assert!(text.contains("# TYPE dievent_frames_processed_total counter"));
        assert!(text.contains("dievent_frames_processed_total{camera=\"0\"} 40"));
        assert!(text.contains("# HELP dievent_frames_processed_total "));
        assert!(text.contains("# TYPE dievent_participants gauge"));
        assert!(text.contains("# TYPE dievent_frame_extraction_seconds summary"));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("dievent_frame_extraction_seconds_count 1"));
        assert!(text.contains("dievent_span_run_seconds_total"));
        assert!(text.contains("dievent_span_run_total 1"));
    }

    #[test]
    fn prometheus_exposition_escapes_label_values() {
        let t = Telemetry::enabled();
        t.counter_with("odd", &[("path", "a\\b\"c\nd")]).add(1);
        let text = t.render_prometheus();
        assert!(
            text.contains("dievent_odd_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "{text}"
        );
        // The exposition stays one-sample-per-line despite the newline
        // in the label value.
        assert!(text.lines().all(|l| !l.is_empty()), "{text}");
    }
}
