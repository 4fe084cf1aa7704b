//! Integration tests for the live observability plane: a streaming
//! session serving `/metrics`, `/healthz`, `/readyz`, `/snapshot`, and
//! `/profile` over its embedded HTTP endpoint *while frames flow*, the
//! windowed-rate trajectory attached to the final report, and the
//! no-leaked-threads guarantee when a session is dropped without
//! `finish()`.

use dievent_core::{validate_exposition, DiEventPipeline, PipelineConfig, Recording};
use dievent_scene::Scenario;
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

fn observed_config() -> PipelineConfig {
    PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .serve_metrics("127.0.0.1:0".parse().expect("loopback"))
        .sample_interval(Duration::from_millis(20))
        .build()
        .expect("valid config")
}

#[test]
fn endpoints_answer_mid_run_and_report_carries_rate_windows() {
    let recording = Recording::capture(Scenario::two_camera_dinner(120, 7));
    let frames = recording.frames();
    let pipeline = DiEventPipeline::new(PipelineConfig {
        classify_emotions: true,
        ..observed_config()
    });
    let mut session = pipeline.session(&recording.scenario).expect("session");

    let plane = session.observer().expect("plane is active");
    let addr = plane.local_addr().expect("endpoint bound");
    let probe = plane.probe();
    assert!(probe.threads_alive() > 0, "sampler + server running");

    // Stream the first half, paced across several sampler ticks so the
    // windows observe genuinely mid-run rates.
    for f in 0..frames / 2 {
        for c in 0..recording.cameras() {
            session.push_frame(c, recording.frame(c, f)).expect("push");
        }
        if f % 10 == 9 {
            std::thread::sleep(Duration::from_millis(15));
        }
    }
    session.poll();
    std::thread::sleep(Duration::from_millis(60));

    // --- Health + readiness, mid-run. ---
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "healthz: {body}");
    let (status, _) = http_get(addr, "/readyz");
    assert_eq!(status, 200, "mid-run session must be ready");

    // --- /metrics: valid exposition with live per-camera counters and
    // the heartbeat's session/pool gauges. ---
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let stats = validate_exposition(&metrics).expect("exposition is conformant");
    assert!(stats.samples > 10 && stats.families > 5, "{stats:?}");
    for needle in [
        "dievent_frames_processed_total{camera=\"0\"}",
        "dievent_frames_processed_total{camera=\"1\"}",
        "dievent_session_uptime_s",
        "dievent_session_watermark_frame",
        "dievent_session_camera_alive{camera=\"0\"} 1",
        "dievent_pool_threads",
        "dievent_pool_queue_depth",
        // Fusion classifies each person's kept face, timed apart.
        "dievent_emotion_classifications_total{camera=",
        "# HELP dievent_emotion_classify_seconds Wall-clock",
        "dievent_emotion_classify_seconds_count ",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    // --- /snapshot: windowed frames/s must be nonzero mid-run. ---
    let (status, snapshot) = http_get(addr, "/snapshot?window=100");
    assert_eq!(status, 200);
    let value: serde_json::Value = serde_json::from_str(&snapshot).expect("snapshot is JSON");
    assert!(
        value
            .get("uptime_s")
            .and_then(|v| v.as_f64())
            .expect("uptime")
            > 0.0
    );
    let windows = value
        .get("windows")
        .and_then(|v| v.as_array())
        .expect("windows array");
    assert!(!windows.is_empty(), "sampler has produced windows");
    let frame_rate = windows
        .iter()
        .flat_map(|w| {
            w.get("rates")
                .and_then(|r| r.as_array())
                .into_iter()
                .flatten()
        })
        .filter(|r| {
            r.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with("frames_processed"))
        })
        .filter_map(|r| r.get("per_second").and_then(|v| v.as_f64()))
        .fold(0.0_f64, f64::max);
    assert!(
        frame_rate > 0.0,
        "some window must show nonzero frames/s:\n{snapshot}"
    );

    // --- /profile: collapsed stacks of the live span tree. ---
    let (status, profile) = http_get(addr, "/profile");
    assert_eq!(status, 200);
    let lines: Vec<&str> = profile.lines().collect();
    assert!(lines.len() >= 3, "profile too small:\n{profile}");
    assert!(profile.contains("camera.extract"), "{profile}");
    for line in &lines {
        let (stack, self_us) = line.rsplit_once(' ').expect("stack + value");
        assert!(!stack.is_empty());
        self_us.parse::<u64>().expect("integer microseconds");
    }

    // --- Unknown path. ---
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    // Stream the rest and finish: readiness must have flipped to 503
    // *before* the endpoint closed, the plane's threads must be gone,
    // and the report must carry the windowed trajectory.
    for f in frames / 2..frames {
        for c in 0..recording.cameras() {
            session.push_frame(c, recording.frame(c, f)).expect("push");
        }
    }
    let analysis = session.finish().expect("finish");
    assert_eq!(analysis.matrices.len(), frames);
    assert_eq!(probe.threads_alive(), 0, "plane threads joined at finish");
    assert!(probe.is_shutdown());
    assert_eq!(
        probe.ready_when_closed(),
        Some(false),
        "readiness must drop before the listener closes"
    );
    assert!(!analysis.rate_windows.is_empty());
    let streamed: u64 = analysis
        .rate_windows
        .iter()
        .map(|w| w.delta_total("frames_processed"))
        .sum();
    assert!(streamed > 0, "windows must have seen frames flow");
}

#[test]
fn dropping_a_session_without_finish_leaks_no_plane_threads() {
    let recording = Recording::capture(Scenario::two_camera_dinner(30, 3));
    let pipeline = DiEventPipeline::new(observed_config());
    let mut session = pipeline.session(&recording.scenario).expect("session");
    let probe = session.observer().expect("plane").probe();
    assert!(probe.threads_alive() > 0);
    for c in 0..recording.cameras() {
        session.push_frame(c, recording.frame(c, 0)).expect("push");
    }

    // Abandon the session entirely: the plane's own Drop must stop the
    // sampler and server within its bounded join.
    drop(session);
    assert_eq!(probe.threads_alive(), 0, "no leaked observability threads");
    assert!(probe.is_shutdown());
    assert_eq!(
        probe.ready_when_closed(),
        Some(false),
        "readyz must say 503 before the socket closes"
    );
}

#[test]
fn snapshot_rejects_malformed_window_parameters() {
    let recording = Recording::capture(Scenario::two_camera_dinner(20, 3));
    let pipeline = DiEventPipeline::new(observed_config());
    let mut session = pipeline.session(&recording.scenario).expect("session");
    let addr = session
        .observer()
        .expect("plane")
        .local_addr()
        .expect("bound");
    for c in 0..recording.cameras() {
        session.push_frame(c, recording.frame(c, 0)).expect("push");
    }

    // Malformed, zero, negative, overflowing, and empty window values
    // must all be rejected with 400 — not silently clamped, not 500.
    for bad in [
        "/snapshot?window=abc",
        "/snapshot?window=0",
        "/snapshot?window=-3",
        "/snapshot?window=99999999999999999999999999",
        "/snapshot?window=",
    ] {
        let (status, body) = http_get(addr, bad);
        assert_eq!(status, 400, "{bad} must be a client error, got: {body}");
        assert!(!body.is_empty(), "{bad}: the 400 explains itself");
    }

    // Well-formed requests still succeed, including an unrelated query
    // parameter (ignored) and no query at all.
    for good in ["/snapshot", "/snapshot?window=5", "/snapshot?other=1"] {
        let (status, body) = http_get(addr, good);
        assert_eq!(status, 200, "{good}: {body}");
        serde_json::from_str::<serde_json::Value>(&body).expect("snapshot is JSON");
    }

    session.finish().expect("finish");
}

#[test]
fn sample_rates_without_http_still_collects_windows() {
    let recording = Recording::capture(Scenario::two_camera_dinner(60, 5));
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .sample_rates(true)
        .sample_interval(Duration::from_millis(10))
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&recording.scenario).expect("session");
    let plane = session.observer().expect("sampler-only plane");
    assert!(plane.local_addr().is_none(), "no HTTP endpoint requested");

    for f in 0..recording.frames() {
        for c in 0..recording.cameras() {
            session.push_frame(c, recording.frame(c, f)).expect("push");
        }
        if f % 20 == 19 {
            std::thread::sleep(Duration::from_millis(12));
        }
    }
    let analysis = session.finish().expect("finish");
    assert!(!analysis.rate_windows.is_empty());
    let total: u64 = analysis
        .rate_windows
        .iter()
        .map(|w| w.delta_total("session.frames_fused"))
        .sum();
    assert_eq!(total, 60, "every fused frame lands in exactly one window");
}
