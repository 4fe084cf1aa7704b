//! The streaming engine's contract: a `PipelineSession` fed
//! incrementally must reproduce the batch pipeline exactly, and its
//! bounded channels must behave per the configured backpressure policy
//! (blocking loses nothing; drop-oldest sheds load and accounts for
//! every shed frame in telemetry).

use dievent_analysis::overall_emotion::EmotionEstimate;
use dievent_analysis::CameraObservation;
use dievent_core::{
    BackpressureMode, CameraId, DiEventError, DiEventPipeline, FinishOptions, FrameAnalysis,
    PipelineConfig, PipelineSession, Recording,
};
use dievent_emotion::{EmotionClassifier, ExtractArena};
use dievent_geometry::{PinholeCamera, Vec3};
use dievent_scene::Scenario;
use dievent_video::GrayFrame;
use dievent_vision::{ExtractorConfig, FaceGallery, FeatureExtractor, PersonId};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Polls until `frames` results have been emitted in all, or a
/// deadline passes: the lanes extract off this thread.
fn poll_until(session: &mut PipelineSession, polled: &mut Vec<FrameAnalysis>, frames: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while polled.len() < frames && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        polled.extend(session.poll());
    }
}

/// A frame whose size is not the session's is refused at ingest with a
/// typed error, before it takes a frame index, and the session then
/// finishes with every other input analysed. The refused frame never
/// reaches the lane, the monitor stream or the parser, which used to
/// panic in `finish` on it.
#[test]
fn mis_sized_frame_is_refused_at_ingest() {
    const FRAMES: usize = 12;
    let recording = Recording::capture(Scenario::two_camera_dinner(FRAMES, 11));
    let pipeline = DiEventPipeline::new(PipelineConfig::default());
    let mut session = pipeline.session(&recording.scenario).expect("session");
    for f in 0..FRAMES {
        for c in 0..2 {
            if (c, f) == (0, 6) {
                let refused = session.push_frame(0, GrayFrame::new(320, 240, 90));
                assert_eq!(
                    refused,
                    Err(DiEventError::FrameSize {
                        camera: CameraId::new(0),
                        expected: (640, 480),
                        got: (320, 240),
                    })
                );
            } else {
                session.push_frame(c, recording.frame(c, f)).expect("push");
            }
        }
    }
    let analysis = session.finish().expect("finish");
    let report = &analysis.telemetry;
    // Conservation: the 23 accepted inputs were all processed, none
    // dropped, and camera 0 took 11 indices, not 12.
    assert_eq!(
        report.counter_total("frames_processed"),
        2 * FRAMES as u64 - 1
    );
    assert_eq!(report.counter_total("session.frames_dropped"), 0);
    assert_eq!(analysis.matrices.len(), FRAMES);
    let structure = analysis.structure.expect("parsing is on by default");
    assert_eq!(structure.frame_count, FRAMES - 1);
    assert_eq!((structure.spec.width, structure.spec.height), (160, 120));
}

/// Streaming run of the paper's §III prototype — four cameras pushed
/// from four independent producer threads — must match the batch
/// entry point bit for bit: same matrices, same Fig. 7/8 look-at sets,
/// same summary/dominance/validation.
#[test]
fn streaming_prototype_equals_batch() {
    let scenario = Scenario::prototype();
    let recording = Recording::capture(scenario.clone());
    let frames = recording.frames();
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        // A window wider than the recording: producers may skew freely
        // without the sequencer ever fusing an incomplete frame.
        .reorder_window(frames)
        .build()
        .expect("valid config");

    let pipeline = DiEventPipeline::new(config);
    let batch = pipeline.run(&recording).expect("batch run");

    let mut session = pipeline.session(&recording.scenario).expect("session");
    let feeds = session.take_feeds().expect("feeds");
    std::thread::scope(|s| {
        for mut feed in feeds {
            let recording = &recording;
            s.spawn(move || {
                let camera = feed.camera().index();
                for f in 0..frames {
                    feed.push(recording.frame(camera, f)).expect("push");
                }
            });
        }
    });
    let streamed = session
        .finish_with(FinishOptions {
            ground_truth: recording.lookat_truth(&config.lookat),
            context: None,
        })
        .expect("streaming finish");

    assert_eq!(streamed.raw_matrices, batch.raw_matrices);
    assert_eq!(streamed.matrices, batch.matrices);
    assert_eq!(streamed.summary.rows(), batch.summary.rows());
    assert_eq!(streamed.dominance, batch.dominance);
    assert_eq!(streamed.episodes, batch.episodes);
    assert_eq!(streamed.pair_stats, batch.pair_stats);
    assert_eq!(streamed.importance, batch.importance);
    // Fig. 7 (t = 10 s) and Fig. 8 (t = 15 s) look-at sets.
    for t in [10.0, 15.0] {
        assert_eq!(
            streamed.matrix_at(t).expect("frame"),
            batch.matrix_at(t).expect("frame"),
            "look-at matrix at t = {t} s"
        );
    }
    assert_eq!(streamed.validation, batch.validation);
    assert!(streamed.validation.f1 > 0.85, "{:?}", streamed.validation);
}

/// Blocking backpressure on a capacity-1 channel: producers outrun the
/// extractors by orders of magnitude, yet nothing may be lost.
#[test]
fn blocking_backpressure_loses_nothing() {
    const PUSHES: usize = 60;
    let recording = Recording::capture(Scenario::two_camera_dinner(PUSHES, 11));
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .channel_capacity(1)
        .backpressure(BackpressureMode::Block)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&recording.scenario).expect("session");
    for f in 0..PUSHES {
        for c in 0..recording.cameras() {
            session.push_frame(c, recording.frame(c, f)).expect("push");
        }
    }
    let analysis = session.finish().expect("finish");
    assert_eq!(analysis.matrices.len(), PUSHES, "no frame may be lost");
    let report = &analysis.telemetry;
    assert_eq!(report.counter_total("session.frames_dropped"), 0);
    for c in 0..recording.cameras() {
        assert_eq!(
            report.counter(&format!("frames_processed{{camera=\"{c}\"}}")),
            Some(PUSHES as u64),
            "camera {c} must process every push"
        );
    }
}

/// Drop-oldest backpressure on a capacity-1 channel: a producer pushing
/// far faster than extraction must shed load, every shed frame must be
/// counted, and the conservation law `processed + dropped == pushed`
/// must hold exactly per camera.
#[test]
fn drop_oldest_sheds_load_and_accounts_for_every_frame() {
    const PUSHES: usize = 200;
    let recording = Recording::capture(Scenario::two_camera_dinner(4, 11));
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .channel_capacity(1)
        .backpressure(BackpressureMode::DropOldest)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&recording.scenario).expect("session");
    let frames: Vec<_> = (0..recording.cameras())
        .map(|c| recording.frame(c, 0))
        .collect();
    for _ in 0..PUSHES {
        for (c, frame) in frames.iter().enumerate() {
            session.push_frame(c, frame.clone()).expect("push");
        }
    }
    let analysis = session.finish().expect("finish");
    let report = &analysis.telemetry;

    let dropped_total = report.counter_total("session.frames_dropped");
    assert!(
        dropped_total > 0,
        "a capacity-1 queue under instant pushes must shed load"
    );
    for c in 0..recording.cameras() {
        let processed = report
            .counter(&format!("frames_processed{{camera=\"{c}\"}}"))
            .unwrap_or(0);
        let dropped = report
            .counter(&format!("session.frames_dropped{{camera=\"{c}\"}}"))
            .unwrap_or(0);
        assert_eq!(
            processed + dropped,
            PUSHES as u64,
            "camera {c}: processed {processed} + dropped {dropped} != pushed {PUSHES}"
        );
    }
    // The streaming gauges are populated.
    for c in 0..recording.cameras() {
        assert!(
            report
                .gauge(&format!("session.queue_depth{{camera=\"{c}\"}}"))
                .is_some(),
            "queue-depth gauge for camera {c}"
        );
    }
    assert!(
        report.gauge("session.reorder_occupancy").is_some(),
        "reorder-window occupancy gauge"
    );
}

/// Camera arrival order inside the reorder window must not affect the
/// output: feeding camera 1's whole stream before camera 0's produces
/// the same matrices as strict interleaving.
#[test]
fn camera_skew_within_reorder_window_is_invisible() {
    const FRAMES: usize = 20;
    let recording = Recording::capture(Scenario::two_camera_dinner(FRAMES, 3));
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .reorder_window(FRAMES)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);

    let mut interleaved = pipeline.session(&recording.scenario).expect("session");
    for f in 0..FRAMES {
        for c in 0..2 {
            interleaved
                .push_frame(c, recording.frame(c, f))
                .expect("push");
        }
    }
    let a = interleaved.finish().expect("finish");

    let mut skewed = pipeline.session(&recording.scenario).expect("session");
    for c in [1, 0] {
        for f in 0..FRAMES {
            skewed.push_frame(c, recording.frame(c, f)).expect("push");
        }
    }
    let b = skewed.finish().expect("finish");

    assert_eq!(a.raw_matrices, b.raw_matrices);
    assert_eq!(a.matrices, b.matrices);
    assert_eq!(a.summary.rows(), b.summary.rows());
}

/// Skew beyond the reorder window forces evictions: frames fuse without
/// the laggard camera, the eviction counter records it, and late
/// arrivals never resurrect an already-fused frame (each index is
/// emitted exactly once, in order).
#[test]
fn skew_beyond_reorder_window_evicts_without_duplicates() {
    const FRAMES: usize = 20;
    const WINDOW: usize = 2;
    let recording = Recording::capture(Scenario::two_camera_dinner(FRAMES, 3));
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .reorder_window(WINDOW)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&recording.scenario).expect("session");

    let mut emitted = Vec::new();
    // Camera 1 races a full recording ahead of camera 0, which has
    // taken in nothing yet: every frame more than the window behind
    // camera 1's last one fuses without camera 0.
    for f in 0..FRAMES {
        session.push_frame(1, recording.frame(1, f)).expect("push");
        emitted.extend(session.poll());
    }
    // The lanes extract off this thread: poll until those frames are
    // out, so camera 0's inputs for them arrive late.
    let deadline = Instant::now() + Duration::from_secs(10);
    while emitted.len() < FRAMES - WINDOW - 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        emitted.extend(session.poll());
    }
    for f in 0..FRAMES {
        session.push_frame(0, recording.frame(0, f)).expect("push");
        emitted.extend(session.poll());
    }
    let analysis = session.finish().expect("finish");
    assert_eq!(analysis.matrices.len(), FRAMES);

    let frames: Vec<usize> = emitted.iter().map(|e| e.frame).collect();
    let mut sorted = frames.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(frames, sorted, "frames must be unique and ascending");
    assert!(
        emitted.iter().any(|e| e.cameras_reporting == 1),
        "evicted frames fuse with one camera"
    );
    let report = &analysis.telemetry;
    assert!(report.counter("session.reorder_evictions").unwrap_or(0) > 0);
    assert!(report.counter("session.late_arrivals").unwrap_or(0) > 0);
}

/// Pre-extracted pose observations (an external tracker) drive the
/// session end to end without touching the pixel path.
#[test]
fn pose_observation_stream_produces_full_analysis() {
    let scenario = Scenario::two_camera_dinner(30, 5);
    let truth = scenario.simulate();
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&scenario).expect("session");
    for snap in &truth.snapshots {
        for (c, cam) in scenario.rig.cameras.iter().enumerate() {
            let to_cam = cam.extrinsics();
            let obs: Vec<CameraObservation> = snap
                .states
                .iter()
                .enumerate()
                .map(|(person, st)| CameraObservation {
                    person,
                    head_cam: to_cam.transform_point(st.head),
                    gaze_cam: Some(to_cam.transform_dir(st.gaze)),
                    weight: 1.0,
                })
                .collect();
            session.push_pose_observations(c, obs).expect("push");
        }
    }
    let analysis = session.finish().expect("finish");
    assert_eq!(analysis.matrices.len(), truth.snapshots.len());
    let looks: usize = analysis.matrices.iter().map(|m| m.count_ones()).sum();
    assert!(looks > 0, "ground-truth poses must register looks");
}

/// Pose observations skip extraction, so nothing upstream screens them.
/// NaN and infinite heads, gazes and weights must each be taken in, and
/// every frame must still fuse with every camera reporting, then
/// finish.
#[test]
fn non_finite_pose_observations_are_fused_without_panic() {
    const FRAMES: usize = 12;
    let scenario = Scenario::two_camera_dinner(FRAMES, 5);
    let cameras = scenario.rig.len();
    let config = PipelineConfig::builder()
        .classify_emotions(false)
        .parse_video(false)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(&scenario).expect("session");
    let sane = Vec3::new(0.1, -0.2, 2.5);
    let mut polled = Vec::new();
    for f in 0..FRAMES {
        for c in 0..cameras {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(f + c) % 3];
            let observation = |person, head_cam, gaze_cam, weight| CameraObservation {
                person,
                head_cam,
                gaze_cam,
                weight,
            };
            let observations = vec![
                observation(0, Vec3::new(bad, 0.0, 2.0), Some(sane), 1.0),
                observation(1, sane, Some(Vec3::new(0.0, bad, 1.0)), 1.0),
                observation(2, sane, Some(sane), bad),
                observation(3, Vec3::splat(bad), Some(Vec3::splat(bad)), bad),
                observation(1, Vec3::splat(bad), None, 0.5),
            ];
            session
                .push_pose_observations(c, observations)
                .expect("non-finite poses are accepted");
        }
        polled.extend(session.poll());
    }
    poll_until(&mut session, &mut polled, FRAMES);
    let frames: Vec<usize> = polled.iter().map(|a| a.frame).collect();
    assert_eq!(frames, (0..FRAMES).collect::<Vec<_>>());
    assert!(polled.iter().all(|a| a.cameras_reporting == cameras));
    let analysis = session.finish().expect("finish");
    assert_eq!(analysis.raw_matrices.len(), FRAMES);
}

/// Enrolls one camera's participants from its first frame by seat, as
/// a session does: a face goes to the participant whose projected seat
/// is nearest, when that is within two face radii.
fn enroll(
    config: ExtractorConfig,
    camera: PinholeCamera,
    first: &GrayFrame,
    seats: &[(usize, Vec3)],
) -> FaceGallery {
    let probe = FeatureExtractor::new(config, camera, FaceGallery::default());
    let mut gallery = FaceGallery::default();
    for (detection, _, patch) in probe.analyze(first).faces() {
        let mut best: Option<(usize, f64)> = None;
        for &(person, head) in seats {
            if let Some(proj) = camera.project(head) {
                let d = (proj.pixel.x - detection.cx).hypot(proj.pixel.y - detection.cy);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((person, d));
                }
            }
        }
        if let Some((person, d)) = best {
            if d < detection.radius * 2.0 {
                gallery.enroll(PersonId(person), detection, patch);
            }
        }
    }
    gallery
}

/// An estimate's person and the bits of its numbers.
fn bits(estimates: &[EmotionEstimate]) -> Vec<(usize, Vec<u64>, u64)> {
    estimates
        .iter()
        .map(|e| {
            let probabilities = e.probabilities.iter().map(|p| p.to_bits()).collect();
            (e.person, probabilities, e.confidence.to_bits())
        })
        .collect()
}

/// A session classifies each identified participant once per frame,
/// at fusion, from the face with the strictly largest detection radius
/// (the lowest camera on a tie). The oracle is built from public APIs,
/// as perfbench's replay is: it classifies every identified face of
/// every camera frame in one batch and keeps the largest. Every polled
/// estimate must equal it bit for bit.
#[test]
fn fused_emotions_equal_a_classify_every_face_oracle() {
    const FRAMES: usize = 60;
    let recording = Recording::capture(Scenario::prototype());
    let scenario = &recording.scenario;
    let (n, cameras) = (scenario.participants.len(), recording.cameras());
    let streams: Vec<Vec<GrayFrame>> = (0..cameras)
        .map(|c| (0..FRAMES).map(|f| recording.frame(c, f)).collect())
        .collect();

    let config = PipelineConfig::builder()
        .parse_video(false)
        .build()
        .expect("valid config");
    let pipeline = DiEventPipeline::new(config);
    let mut session = pipeline.session(scenario).expect("session");
    let mut polled = Vec::new();
    for f in 0..FRAMES {
        for (c, stream) in streams.iter().enumerate() {
            session.push_frame(c, stream[f].clone()).expect("push");
        }
        polled.extend(session.poll());
    }
    poll_until(&mut session, &mut polled, FRAMES);
    let analysis = session.finish().expect("finish");

    let model: EmotionClassifier =
        serde_json::from_str(include_str!("../crates/core/src/default_classifier.json"))
            .expect("the shipped model parses");
    let seats: Vec<(usize, Vec3)> = scenario
        .participants
        .iter()
        .map(|p| (p.index, p.seat_head))
        .collect();
    let mut arena = ExtractArena::new();
    // Per frame and person: (radius, camera, estimate) of the largest
    // face so far.
    let mut best: Vec<Vec<Option<(f64, usize, EmotionEstimate)>>> = vec![vec![None; n]; FRAMES];
    let mut classified = 0;
    for (c, stream) in streams.iter().enumerate() {
        let camera = scenario.rig.cameras[c];
        let gallery = enroll(config.extractor, camera, &stream[0], &seats);
        let extractor = FeatureExtractor::new(config.extractor, camera, gallery);
        for (f, frame) in stream.iter().enumerate() {
            let raw = extractor.analyze(frame);
            let faces: Vec<(PersonId, f64, &GrayFrame)> = raw.identified_faces().collect();
            let patches: Vec<&GrayFrame> = faces.iter().map(|&(_, _, patch)| patch).collect();
            let preds = model.classify_batch_with(&patches, &mut arena);
            classified += faces.len();
            for (i, &(person, radius, _)) in faces.iter().enumerate() {
                let Some(slot) = best[f].get_mut(person.0) else {
                    continue;
                };
                if slot.as_ref().is_none_or(|&(r, _, _)| radius > r) {
                    let estimate = EmotionEstimate {
                        person: person.0,
                        probabilities: preds.probabilities(i).to_vec(),
                        confidence: preds.top(i).1,
                    };
                    *slot = Some((radius, c, estimate));
                }
            }
        }
    }
    let winners: BTreeSet<usize> = best
        .iter()
        .flatten()
        .flatten()
        .map(|&(_, c, _)| c)
        .collect();
    assert!(winners.len() > 1, "more than one camera supplies a face");
    let oracle: Vec<Vec<EmotionEstimate>> = best
        .into_iter()
        .map(|people| people.into_iter().flatten().map(|(_, _, e)| e).collect())
        .collect();
    let kept: usize = oracle.iter().map(Vec::len).sum();
    assert!(kept > 0 && kept < classified, "kept {kept} of {classified}");

    let frames: Vec<usize> = polled.iter().map(|a| a.frame).collect();
    assert_eq!(frames, (0..FRAMES).collect::<Vec<_>>());
    for (emitted, expected) in polled.iter().zip(&oracle) {
        assert_eq!(
            bits(&emitted.emotions),
            bits(expected),
            "frame {}",
            emitted.frame
        );
    }
    let report = &analysis.telemetry;
    assert_eq!(report.counter_total("emotion_classifications"), kept as u64);
}
