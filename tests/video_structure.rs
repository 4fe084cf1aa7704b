//! Stage 2 gives the same structure whether frames stream or arrive in
//! one batch. The streaming `VideoParser`, and the session that feeds
//! it camera 0's monitor frames as they arrive, reproduce the batch
//! parser (kept as a test oracle) exactly on the paper's inputs.

#[allow(dead_code)]
#[path = "../crates/video/tests/support/oracle.rs"]
mod oracle;

use dievent_core::{DiEventPipeline, PipelineConfig, Recording};
use dievent_scene::Scenario;
use dievent_video::{
    GrayFrame, ShotDetectorConfig, TransitionKind, VideoParser, VideoParserConfig, VideoSpec,
};

/// Camera 0's quarter-resolution monitor stream, as the session's lane
/// derives it, and its spec.
fn monitor_stream(recording: &Recording) -> (VideoSpec, Vec<GrayFrame>) {
    let frames: Vec<GrayFrame> = (0..recording.frames())
        .map(|f| recording.frame(0, f).downsample2().downsample2())
        .collect();
    let spec = VideoSpec {
        width: frames[0].width(),
        height: frames[0].height(),
        ..recording.scenario.spec
    };
    (spec, frames)
}

/// Fig. 3's gallery exactly as the `figures` bench builds it: a
/// 240-frame two-camera dinner edited between the cameras every 45
/// frames, at half resolution. All five switches are found.
#[test]
fn fig3_gallery_structure_is_pinned() {
    let scenario = Scenario::two_camera_dinner(240, 3);
    let mut spec = scenario.spec;
    let recording = Recording::capture(scenario);
    let take = 45usize;
    let frames: Vec<GrayFrame> = (0..recording.frames())
        .map(|f| recording.frame((f / take) % 2, f).downsample2())
        .collect();
    spec.width /= 2;
    spec.height /= 2;
    let config = VideoParserConfig {
        shots: ShotDetectorConfig {
            min_cut_distance: 0.02,
            ..ShotDetectorConfig::default()
        },
        ..VideoParserConfig::default()
    };
    let s = VideoParser::new(config).parse_frames(spec, &frames);
    assert_eq!(s, oracle::parse(&config, spec, &frames));
    let boundaries: Vec<usize> = s.boundaries.iter().map(|b| b.frame).collect();
    assert_eq!(boundaries, [45, 90, 135, 180, 225]);
    assert!(s.boundaries.iter().all(|b| b.kind == TransitionKind::Cut));
    assert_eq!(s.shots.len(), 6);
    assert_eq!(s.scenes.len(), 1);
    assert_eq!(s.all_keyframes(), [0, 45, 90, 135, 180, 225]);
}

/// The paper's prototype (§III): camera 0's 610 monitor frames are one
/// shot, and the streaming parser's structure is the oracle's.
#[test]
fn prototype_monitor_stream_is_one_shot() {
    let recording = Recording::capture(Scenario::prototype());
    let (spec, frames) = monitor_stream(&recording);
    let config = VideoParserConfig::default();
    let s = VideoParser::new(config).parse_frames(spec, &frames);
    assert_eq!(s, oracle::parse(&config, spec, &frames));
    assert_eq!(s.frame_count, 610);
    assert!(s.boundaries.is_empty());
    assert_eq!(s.shots.len(), 1);
    assert_eq!((s.shots[0].start, s.shots[0].end), (0, 610));
    assert_eq!(s.scenes.len(), 1);
}

/// A session parses camera 0's monitor frames as they arrive and ends
/// with the structure the batch parser gives the same frames.
#[test]
fn session_structure_equals_batch_parse_of_the_monitor_stream() {
    let recording = Recording::capture(Scenario::two_camera_dinner(60, 7));
    let config = PipelineConfig {
        classify_emotions: false,
        ..PipelineConfig::default()
    };
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&recording.scenario).expect("session");
    for f in 0..recording.frames() {
        for c in 0..recording.cameras() {
            session.push_frame(c, recording.frame(c, f)).expect("push");
        }
    }
    let analysis = session.finish().expect("finish");
    let (spec, frames) = monitor_stream(&recording);
    let structure = analysis.structure.expect("parsing is on");
    assert_eq!(structure, oracle::parse(&config.parser, spec, &frames));
    // The moved cost stays visible: one push time per monitor frame.
    let pushes = analysis
        .telemetry
        .histogram("video.push_seconds")
        .expect("histogram");
    assert_eq!(pushes.count, frames.len() as u64);
    assert_eq!(
        analysis.telemetry.span("video.finish").expect("span").count,
        1
    );
}
