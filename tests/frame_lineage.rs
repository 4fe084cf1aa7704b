//! Integration tests for per-frame causal lineage tracing: every
//! ingested frame lands in exactly one waterfall, stage timestamps are
//! monotonic, tracing does not perturb analysis results, and the
//! report is served over `GET /lineage` while frames flow.

use dievent_core::{DiEventPipeline, FrameWaterfall, PipelineConfig, Recording};
use dievent_scene::Scenario;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::Duration;

/// Minimal HTTP/1.1 GET: returns (status code, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn traced_config() -> PipelineConfig {
    PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        // Every run here is shorter than the lineage reservoir (256
        // waterfalls), so it keeps *every* waterfall and the
        // exactly-once property is checkable.
        .trace_lineage(true)
        .build()
        .expect("valid config")
}

#[test]
fn every_ingested_frame_appears_in_exactly_one_waterfall() {
    let frames = 60;
    let recording = Recording::capture(Scenario::two_camera_dinner(frames, 7));
    let cameras = recording.cameras();
    let pipeline = DiEventPipeline::new(traced_config());
    let analysis = pipeline.run(&recording).expect("pipeline run");

    let report = analysis.lineage.expect("lineage report attached");
    assert_eq!(report.summary.frames_traced, frames as u64);
    assert_eq!(report.summary.in_flight, 0, "nothing left mid-flight");
    assert_eq!(
        report.summary.lanes_discarded, 0,
        "Block mode drops nothing"
    );
    assert_eq!(
        report.waterfalls.len(),
        frames,
        "reservoir kept every frame"
    );

    let unique: BTreeSet<u64> = report.waterfalls.iter().map(|w| w.frame).collect();
    assert_eq!(unique.len(), frames, "no frame fused twice");
    assert_eq!(unique.iter().next_back(), Some(&(frames as u64 - 1)));

    // Each waterfall carries one lane per camera (no drops, no
    // evictions in this run), and the exemplars are drawn from the
    // same population.
    for w in &report.waterfalls {
        assert_eq!(w.lanes.len(), cameras, "frame {}", w.frame);
    }
    assert!(!report.exemplars.is_empty(), "slowest frames always kept");
    for e in &report.exemplars {
        assert!(
            unique.contains(&e.frame),
            "exemplar {} is a real frame",
            e.frame
        );
    }

    // The per-stage summary covers the five attribution stages.
    for stage in ["queue_wait", "extract", "reorder_hold", "fuse", "total"] {
        let s = report.summary.stage(stage).expect(stage);
        assert_eq!(s.count, frames as u64, "{stage} observed once per frame");
    }
}

fn assert_monotonic(w: &FrameWaterfall) {
    for lane in &w.lanes {
        assert!(
            w.ingest_s <= lane.enqueue_s + 1e-12,
            "frame {}: ingest is the earliest enqueue",
            w.frame
        );
        assert!(
            lane.enqueue_s <= lane.start_s,
            "frame {} cam {}: enqueue <= start",
            w.frame,
            lane.camera
        );
        assert!(
            lane.start_s <= lane.end_s,
            "frame {} cam {}: start <= end",
            w.frame,
            lane.camera
        );
        assert!(
            lane.end_s <= w.fuse_start_s,
            "frame {} cam {}: extraction ends before fusion starts",
            w.frame,
            lane.camera
        );
    }
    assert!(w.fuse_start_s <= w.fuse_end_s, "frame {}", w.frame);
    // Each attribution is the worst lane for its stage, so the parts
    // can overlap in wall time (lane A queue-waits while lane B
    // extracts) and need not sum to the total — but each individually
    // fits inside the frame's end-to-end window.
    for (name, v) in [
        ("queue_wait", w.queue_wait_s),
        ("extract", w.extract_s),
        ("reorder_hold", w.reorder_hold_s),
        ("fuse", w.fuse_s),
        ("total", w.total_s),
    ] {
        assert!(
            v >= 0.0,
            "frame {}: {name} attribution negative: {v}",
            w.frame
        );
        assert!(
            v <= w.total_s + 1e-9,
            "frame {}: {name} ({v}) exceeds the end-to-end total ({})",
            w.frame,
            w.total_s
        );
    }
}

#[test]
fn stage_timestamps_are_monotonic_per_frame() {
    let recording = Recording::capture(Scenario::two_camera_dinner(40, 11));
    // Threaded (default) run: stamps cross producer, worker, and fuse
    // threads, which is exactly where monotonicity could break.
    let analysis = DiEventPipeline::new(traced_config())
        .run(&recording)
        .expect("pipeline run");
    let report = analysis.lineage.expect("lineage report");
    assert!(!report.waterfalls.is_empty());
    for w in report.waterfalls.iter().chain(&report.exemplars) {
        assert_monotonic(w);
    }
}

#[test]
fn tracing_does_not_change_analysis_results() {
    let recording = Recording::capture(Scenario::two_camera_dinner(30, 5));
    let traced = DiEventPipeline::new(traced_config())
        .run(&recording)
        .expect("traced run");
    let untraced = DiEventPipeline::new(PipelineConfig {
        classify_emotions: false,
        parse_video: false,
        ..PipelineConfig::default()
    })
    .run(&recording)
    .expect("untraced run");
    assert_eq!(traced.matrices, untraced.matrices);
    let n = traced.summary.participants();
    assert_eq!(n, untraced.summary.participants());
    for g in 0..n {
        for t in 0..n {
            assert_eq!(traced.summary.get(g, t), untraced.summary.get(g, t));
        }
    }
    assert!(untraced.lineage.is_none(), "lineage is opt-in");
}

#[test]
fn lineage_endpoint_serves_the_breakdown_mid_run() {
    let frames = 120;
    let recording = Recording::capture(Scenario::two_camera_dinner(frames, 7));
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .trace_lineage(true)
        .serve_metrics("127.0.0.1:0".parse().expect("loopback"))
        .sample_interval(Duration::from_millis(20))
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&recording.scenario).expect("session");
    let addr = session
        .observer()
        .expect("plane")
        .local_addr()
        .expect("bound");

    for f in 0..frames / 2 {
        for c in 0..recording.cameras() {
            session.push_frame(c, recording.frame(c, f)).expect("push");
        }
    }
    session.poll();

    let (status, body) = http_get(addr, "/lineage");
    assert_eq!(status, 200, "{body}");
    let value: serde_json::Value = serde_json::from_str(&body).expect("lineage is JSON");
    assert_eq!(value.get("enabled"), Some(&serde_json::Value::Bool(true)));
    let summary = value.get("summary").expect("summary");
    assert!(
        summary
            .get("frames_traced")
            .and_then(|v| v.as_u64())
            .expect("frames_traced")
            > 0,
        "mid-run frames already traced:\n{body}"
    );
    let stages = summary
        .get("stages")
        .and_then(|v| v.as_array())
        .expect("stages array");
    let names: BTreeSet<&str> = stages
        .iter()
        .filter_map(|s| s.get("stage").and_then(|v| v.as_str()))
        .collect();
    for stage in ["queue_wait", "extract", "reorder_hold", "fuse", "total"] {
        assert!(names.contains(stage), "missing {stage} in:\n{body}");
    }
    let exemplars = value
        .get("exemplars")
        .and_then(|v| v.as_array())
        .expect("exemplars array");
    assert!(!exemplars.is_empty(), "slowest frames served mid-run");
    for e in exemplars {
        assert!(
            e.get("lanes").and_then(|v| v.as_array()).is_some(),
            "exemplar carries its full waterfall:\n{body}"
        );
    }

    for f in frames / 2..frames {
        for c in 0..recording.cameras() {
            session.push_frame(c, recording.frame(c, f)).expect("push");
        }
    }
    let analysis = session.finish().expect("finish");
    let report = analysis.lineage.expect("final lineage report");
    assert_eq!(report.summary.frames_traced, frames as u64);
}
