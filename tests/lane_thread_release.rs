//! Regression test: dropping an open session without `finish()` must
//! end every camera lane thread. Each lane blocks on its camera's input
//! queue, whose only senders are the session's feeds; dropping the
//! session must disconnect the queues so the lanes exit.
//!
//! Lives in its own integration-test binary: the assertions count OS
//! threads by name via `/proc/self/task`, which only stays
//! deterministic when no sibling test opens sessions in the same
//! process.

#![cfg(target_os = "linux")]

use dievent_core::{DiEventPipeline, PipelineConfig, Recording};
use dievent_scene::Scenario;
use std::time::{Duration, Instant};

/// Counts this process's live threads named `dievent-cam-*` — real OS
/// threads, not a counter the code under test keeps.
fn lane_threads() -> usize {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with("dievent-cam-"))
        })
        .count()
}

#[test]
fn dropping_an_open_session_ends_its_lane_threads() {
    let recording = Recording::capture(Scenario::two_camera_dinner(4, 3));
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&recording.scenario).expect("session");
    for c in 0..recording.cameras() {
        session.push_frame(c, recording.frame(c, 0)).expect("push");
    }
    // A thread names itself once it starts running: wait until both
    // lanes have returned the frame, so each is up and named.
    let deadline = Instant::now() + Duration::from_secs(10);
    while session.poll().is_empty() {
        assert!(Instant::now() < deadline, "frame 0 never fused");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        lane_threads(),
        recording.cameras(),
        "one named lane per camera"
    );

    drop(session);
    let deadline = Instant::now() + Duration::from_secs(5);
    while lane_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "camera lane threads leaked after session drop"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
