//! Per-stage throughput benches: the cost of every pipeline stage on
//! representative workloads (one 640×480 frame, one face patch, one
//! repository operation).
//!
//! Run with: `cargo bench -p dievent-bench --bench throughput`

use criterion::{criterion_group, criterion_main, Criterion};
use dievent_analysis::{fuse_frame, FusionConfig};
use dievent_core::{
    train_emotion_classifier, DiEventPipeline, PipelineConfig, Recording, Telemetry,
    TrainingSetConfig,
};
use dievent_emotion::{lbp_feature_vector_with, Emotion, ExtractArena, LbpConfig, LbpScratch};
use dievent_metadata::{MetaRecord, MetadataRepository, Query, RecordKind};
use dievent_scene::{render_face_patch, Scenario};
use dievent_video::{frame_distance, GrayFrame, VideoParser};
use dievent_vision::{
    detect_faces, estimate_pose, locate_landmarks, DetectorConfig, ExtractorConfig, FaceDetection,
    FaceGallery, LandmarkConfig, PersonId, PoseConfig,
};
use std::hint::black_box;

fn rendering_and_vision(c: &mut Criterion) {
    let scenario = Scenario::prototype();
    let recording = Recording::capture(scenario.clone());

    c.bench_function("render_frame_640x480_4p", |b| {
        b.iter(|| recording.frame(black_box(0), black_box(100)))
    });

    let frame = recording.frame(0, 100);
    c.bench_function("detect_faces_640x480", |b| {
        b.iter(|| detect_faces(black_box(&frame), &DetectorConfig::default()))
    });

    let dets = detect_faces(&frame, &DetectorConfig::default());
    let det = dets[0];
    c.bench_function("locate_landmarks_one_face", |b| {
        b.iter(|| {
            locate_landmarks(
                black_box(&frame),
                black_box(&det),
                &LandmarkConfig::default(),
            )
        })
    });

    if let Some(lm) = locate_landmarks(&frame, &det, &LandmarkConfig::default()) {
        let cam = scenario.rig.cameras[0];
        c.bench_function("estimate_pose_one_face", |b| {
            b.iter(|| {
                estimate_pose(
                    black_box(&det),
                    black_box(&lm),
                    black_box(&cam),
                    &PoseConfig::default(),
                )
            })
        });
    }

    // One face cropped as the extractor crops it (a (2⌈r⌉+1)-pixel
    // square around the centroid, resized to the patch size) and
    // matched against a gallery enrolled from frame 0.
    let side = ExtractorConfig::standard().patch_size;
    let crop = |frame: &GrayFrame, det: &FaceDetection| {
        let r = det.radius.ceil() as i64;
        let square = (2 * r + 1) as u32;
        frame
            .patch(det.cx as i64 - r, det.cy as i64 - r, square, square)
            .resize(side, side)
    };
    let first = recording.frame(0, 0);
    let mut gallery = FaceGallery::default();
    for (i, d) in detect_faces(&first, &DetectorConfig::default())
        .iter()
        .enumerate()
    {
        gallery.enroll(PersonId(i), d, &crop(&first, d));
    }
    c.bench_function("crop_recognize_one_face", |b| {
        b.iter(|| gallery.recognize(black_box(&det), &crop(black_box(&frame), &det)))
    });

    // Camera 0's monitor frame: two 2× downsamples, 640×480 → 160×120.
    c.bench_function("monitor_downsample_640x480", |b| {
        b.iter(|| black_box(&frame).downsample2().downsample2())
    });

    let prev = recording.frame(0, 99);
    c.bench_function("frame_distance_640x480", |b| {
        b.iter(|| frame_distance(black_box(&prev), black_box(&frame)))
    });

    // One streamed camera-0 monitor frame, as a session parses it:
    // histogram, edge map, distance to its predecessor, and the shot
    // and key-frame bookkeeping. The parser restarts every 610 frames
    // (the prototype's length), so its state stays event-sized.
    let monitor: Vec<_> = (0..64)
        .map(|f| recording.frame(0, f).downsample2().downsample2())
        .collect();
    let mut parser = VideoParser::default();
    c.bench_function("parse_push_160x120", |b| {
        b.iter(|| {
            if parser.frames() == 610 {
                parser = VideoParser::default();
            }
            let next = &monitor[parser.frames() % monitor.len()];
            parser.push(black_box(next));
        })
    });
}

fn emotion_stack(c: &mut Criterion) {
    let patch = render_face_patch(Emotion::Happy, 225, 1, 7, 48);
    let lbp = LbpConfig::default();
    let (mut feature, mut scratch) = (Vec::new(), LbpScratch::new());
    c.bench_function("lbp_descriptor_48x48", |b| {
        b.iter(|| lbp_feature_vector_with(black_box(&patch), &lbp, &mut feature, &mut scratch))
    });

    let (classifier, _) = train_emotion_classifier(
        &TrainingSetConfig {
            variants: 6,
            identities: 2,
            patch_size: 48,
        },
        1,
    );
    let mut arena = ExtractArena::new();
    c.bench_function("emotion_classify_one_patch", |b| {
        b.iter(|| {
            classifier
                .classify_batch_with(&[black_box(&patch)], &mut arena)
                .top(0)
        })
    });

    // The batch a session classifies per camera frame: the prototype's
    // four guests.
    let guests: Vec<GrayFrame> = Emotion::ALL[..4]
        .iter()
        .enumerate()
        .map(|(id, &e)| render_face_patch(e, 225, id, 7, 48))
        .collect();
    let guests: Vec<&GrayFrame> = guests.iter().collect();
    c.bench_function("emotion_classify_four_patches", |b| {
        b.iter(|| {
            classifier
                .classify_batch_with(black_box(&guests), &mut arena)
                .top(3)
        })
    });

    let mut group = c.benchmark_group("emotion_training");
    group.sample_size(10);
    group.bench_function("train_small_classifier", |b| {
        b.iter(|| {
            train_emotion_classifier(
                &TrainingSetConfig {
                    variants: 3,
                    identities: 2,
                    patch_size: 48,
                },
                black_box(2),
            )
        })
    });
    group.finish();
}

fn analysis_and_metadata(c: &mut Criterion) {
    // Fusion of a realistic 4-camera frame.
    let scenario = Scenario::prototype();
    let gt = scenario.simulate();
    let snap = &gt.snapshots[100];
    let mut frame_obs = dievent_analysis::FrameObservations::default();
    for cam in &scenario.rig.cameras {
        let to_cam = cam.extrinsics();
        let persons = snap
            .states
            .iter()
            .enumerate()
            .map(|(i, st)| dievent_analysis::CameraObservation {
                person: i,
                head_cam: to_cam.transform_point(st.head),
                gaze_cam: Some(to_cam.transform_dir(st.gaze)),
                weight: 1.0,
            })
            .collect();
        frame_obs.cameras.push((cam.pose, persons));
    }
    c.bench_function("fuse_frame_4cams_4p", |b| {
        b.iter(|| fuse_frame(black_box(&frame_obs), &FusionConfig::default()))
    });

    // Metadata ingest + query.
    c.bench_function("metadata_insert", |b| {
        let repo = MetadataRepository::in_memory();
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            repo.insert(
                MetaRecord::new(RecordKind::FrameAnalysis)
                    .with_span(i as f64 * 0.04, i as f64 * 0.04 + 0.04)
                    .with_attr("frame", i)
                    .with_attr("eye_contacts", i % 3),
            )
            .expect("insert")
        })
    });

    let repo = MetadataRepository::in_memory();
    for f in 0..2000i64 {
        repo.insert(
            MetaRecord::new(RecordKind::FrameAnalysis)
                .with_span(f as f64 * 0.04, f as f64 * 0.04 + 0.04)
                .with_attr("frame", f)
                .with_attr("eye_contacts", f % 3),
        )
        .expect("insert");
    }
    let q_indexed = Query::new().eq("eye_contacts", 2i64).limit(50);
    c.bench_function("metadata_query_indexed_2000", |b| {
        b.iter(|| repo.query(black_box(&q_indexed)))
    });
    let q_span = Query::new().overlapping(10.0, 12.0);
    c.bench_function("metadata_query_span_2000", |b| {
        b.iter(|| repo.query(black_box(&q_span)))
    });
    let q_range = Query::new().ge("frame", 500.0).le("frame", 600.0);
    c.bench_function("metadata_query_range_2000", |b| {
        b.iter(|| repo.query(black_box(&q_range)))
    });
}

fn telemetry_overhead(c: &mut Criterion) {
    // The same short end-to-end run with instrumentation off and on,
    // then with the live observability plane (metrics endpoint on a
    // free port plus the rate sampler) and with per-frame lineage
    // tracing: each delta is one layer's observability tax
    // (documented target: <2% when disabled, i.e. no-op instruments
    // must be free in practice).
    let recording = Recording::capture(Scenario::two_camera_dinner(20, 3));
    let config = PipelineConfig {
        classify_emotions: false,
        parse_video: false,
        ..PipelineConfig::default()
    };
    let mut live_plane = config;
    live_plane.observe.http_addr = Some("127.0.0.1:0".parse().expect("loopback addr"));
    let mut lineage = config;
    lineage.observe.trace_lineage = true;
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);
    group.bench_function("pipeline_20f_telemetry_disabled", |b| {
        let pipeline = DiEventPipeline::new_with_telemetry(config, Telemetry::disabled());
        b.iter(|| pipeline.run(black_box(&recording)).expect("pipeline run"))
    });
    group.bench_function("pipeline_20f_telemetry_enabled", |b| {
        let pipeline = DiEventPipeline::new(config);
        b.iter(|| pipeline.run(black_box(&recording)).expect("pipeline run"))
    });
    group.bench_function("pipeline_20f_live_plane", |b| {
        let pipeline = DiEventPipeline::new(live_plane);
        b.iter(|| pipeline.run(black_box(&recording)).expect("pipeline run"))
    });
    group.bench_function("pipeline_20f_lineage", |b| {
        let pipeline = DiEventPipeline::new(lineage);
        b.iter(|| pipeline.run(black_box(&recording)).expect("pipeline run"))
    });
    group.finish();
}

fn streaming_throughput(c: &mut Criterion) {
    // Frames/s through a live streaming session as a function of the
    // bounded channel capacity: capacity 1 serializes producer and
    // extractor, larger queues let them pipeline.
    let recording = Recording::capture(Scenario::two_camera_dinner(20, 3));
    let frames: Vec<Vec<_>> = (0..recording.cameras())
        .map(|c| {
            (0..recording.frames())
                .map(|f| recording.frame(c, f))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("streaming_throughput");
    group.sample_size(10);
    for capacity in [1usize, 8, 64] {
        let config = PipelineConfig::builder()
            .classify_emotions(false)
            .parse_video(false)
            .channel_capacity(capacity)
            .build()
            .expect("valid config");
        let pipeline = DiEventPipeline::new_with_telemetry(config, Telemetry::disabled());
        group.bench_function(&format!("session_20f_2cam_cap{capacity}"), |b| {
            b.iter(|| {
                let mut session = pipeline
                    .session(black_box(&recording.scenario))
                    .expect("session");
                let feeds = session.take_feeds().expect("feeds");
                std::thread::scope(|s| {
                    for mut feed in feeds {
                        let frames = &frames;
                        s.spawn(move || {
                            for frame in &frames[feed.camera().index()] {
                                feed.push(frame.clone()).expect("push");
                            }
                        });
                    }
                });
                session.finish().expect("finish")
            })
        });
    }
    group.finish();
}

criterion_group!(
    throughput,
    rendering_and_vision,
    emotion_stack,
    analysis_and_metadata,
    telemetry_overhead,
    streaming_throughput
);
criterion_main!(throughput);
