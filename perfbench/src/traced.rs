//! The traced run: per-layer numbers for one workload.
//!
//! 1. A warm-up iteration, then one untraced iteration that gives the
//!    reference end-to-end numbers.
//! 2. One traced iteration wraps every call into the program (set-up,
//!    session open, each push/send, poll, finish) in a span and reads
//!    the global pool's counters before and after.
//! 3. A single-threaded replay feeds the same inputs through the
//!    public function of each layer, one span per call.
//! 4. Workload extras: synchronized arrivals on `prototype-live`, a
//!    concurrent open on `server-venues`.
//!
//! Layers a workload never exercises report 0. The replay's fused
//! matrices and overall-emotion series must equal the traced session's,
//! so its layer times are times of work the program does.

use crate::catalog;
use crate::inputs::{Event, Frames};
use crate::schedule::OpenLoop;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{run_session, Input, Iteration, Pace};
use crate::{Prepared, Variant};
use dievent_analysis::overall_emotion::{
    fuse_sequence, EmotionEstimate, OverallEmotion, OverallEmotionConfig,
};
use dievent_analysis::{
    dominance_ranking, ec_episodes, fuse_frame, pair_statistics, smooth_matrices,
    CameraObservation, FrameObservations, LookAtMatrix, LookAtScratch, LookAtSummary,
};
use dievent_core::{default_training_set, EventAnalysis, EventId, PipelineConfig};
use dievent_emotion::{
    lbp_feature_vector_with, EmotionClassifier, LbpConfig, LbpScratch, Mlp, MlpBatchScratch,
    Normalizer, TrainingConfig,
};
use dievent_geometry::{PinholeCamera, Vec3};
use dievent_metadata::{MetadataRepository, Query};
use dievent_server::{ClientMsg, EventClient, EventServer, ServerConfig};
use dievent_summarize::{detect_highlights, importance_series, select_summary};
use dievent_video::{GrayFrame, VideoParser};
use dievent_vision::{
    detect_faces, estimate_pose, locate_landmarks, ExtractorConfig, FaceGallery, FaceObservation,
    FeatureExtractor, PersonId,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Layers whose replayed self time is charged per camera input when
/// computing the `unattributed` residual.
const INPUT_LAYERS: [&str; 7] = [
    "vision",
    "emotion",
    "analysis",
    "video",
    "summarize",
    "metadata",
    "server",
];

/// Sends on the data connection before the stall probe opens a venue.
const STALL_PROBE_AFTER: usize = 40;

/// Outcome of a traced run.
pub struct Traced {
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The iterations run (for the correctness tally).
    pub iterations: Vec<Iteration>,
    /// Failures outside the iterations (the stall probe).
    pub problems: Vec<String>,
}

/// Counts the replay gathers alongside its spans.
#[derive(Default)]
struct Counts {
    camera_frames: usize,
    detections: usize,
    recognized: usize,
    posed: usize,
    classified: usize,
    frames: usize,
    records: usize,
}

/// Runs the traced measurement of `variant` and writes its spans under
/// `trace_dir`.
pub fn run(
    variant: Variant,
    prepared: &Prepared,
    unbounded: bool,
    run_id: &str,
    trace_dir: &Path,
) -> Traced {
    let warm_up = crate::iterate(variant, prepared, unbounded, &mut None, false);
    let untraced = crate::iterate(variant, prepared, unbounded, &mut None, false);
    let mut run_tracer = Some(Tracer::new(Instant::now()));
    let traced = crate::iterate(variant, prepared, unbounded, &mut run_tracer, true);
    let run_spans = run_tracer.map(|t| t.spans().to_vec()).unwrap_or_default();

    let mut setup = Tracer::new(Instant::now());
    let mut replay = Tracer::new(Instant::now());
    let mut counts = Counts::default();
    let config = variant.config();
    let classifier = config
        .classify_emotions
        .then(|| train_replica(&config, &mut setup));
    let replayed = match prepared {
        Prepared::Frames { event, frames } => {
            let replayed = replay_frames(
                event,
                frames,
                &config,
                classifier.as_ref(),
                &mut replay,
                &mut counts,
            );
            if matches!(variant, Variant::Server) {
                replay_codec(frames, &mut replay);
            }
            replayed
        }
        Prepared::Poses { event, obs } => {
            replay_poses(event, obs, &config, &mut replay, &mut counts)
        }
    };
    let mut problems = Vec::new();
    match &traced.analysis {
        Some(analysis) => {
            problems.extend(replay_mismatch(&replayed, analysis));
            replay_metadata(analysis, &mut replay, &mut counts);
        }
        None => problems.push("the traced iteration kept no analysis".into()),
    }

    let mut stall_spans = Vec::new();
    let mut extras = BTreeMap::new();
    let mut iterations = vec![warm_up, untraced, traced];
    match (variant, prepared) {
        (Variant::Live, Prepared::Frames { event, frames }) => {
            let sync = run_session(
                config,
                event,
                Input::Frames(frames),
                Pace::Open(OpenLoop {
                    staggered: false,
                    ..crate::LIVE_SCHEDULE
                }),
                !unbounded,
                &mut None,
                false,
            );
            let lat = stats::sorted(&sync.latency.latencies_ms());
            extras.insert(
                "core.sync_latency_p50_ms",
                stats::percentile_sorted(&lat, 50.0).unwrap_or(0.0),
            );
            iterations.push(sync);
        }
        (Variant::Server, Prepared::Frames { event, frames }) => match open_stall(event, frames) {
            Ok((stall_ms, spans)) => {
                extras.insert("server.open_stall_ms", stall_ms);
                stall_spans = spans;
            }
            Err(e) => problems.push(e),
        },
        _ => {}
    }

    let metrics = layer_metrics(
        prepared,
        &iterations[1],
        &iterations[2],
        &run_spans,
        &setup,
        &replay,
        &counts,
        &extras,
    );
    let written = trace::write_spans(
        &trace_dir.join(format!("{run_id}.jsonl")),
        run_id,
        &[
            ("run", &run_spans),
            ("setup-replay", setup.spans()),
            ("replay", replay.spans()),
            ("stall-control", &stall_spans),
        ],
    );
    if let Err(e) = written {
        eprintln!("perfbench: could not write spans: {e}");
    }
    Traced {
        metrics,
        iterations,
        problems,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    prepared: &Prepared,
    untraced: &Iteration,
    traced: &Iteration,
    run_spans: &[Span],
    setup: &Tracer,
    replay: &Tracer,
    counts: &Counts,
    extras: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let run = trace::ledger(run_spans);
    let set = trace::ledger(setup.spans());
    let rep = trace::ledger(replay.spans());
    let ns = |l: &BTreeMap<&'static str, (u64, u64)>, name: &str| {
        l.get(name).map_or(0.0, |&(_, n)| n as f64)
    };
    let calls =
        |l: &BTreeMap<&'static str, (u64, u64)>, name: &str| l.get(name).map_or(0, |&(c, _)| c);
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    let inputs = traced.timed_inputs;
    let events = usize::from(counts.frames > 0);

    let mut m: BTreeMap<&'static str, f64> = catalog::get()
        .per_layer
        .iter()
        .map(|x| (x.name.as_str(), 0.0))
        .collect();
    let mut put = |name: &'static str, v: f64| {
        debug_assert!(m.contains_key(name), "{name} not in the catalog");
        m.insert(name, if v.is_finite() { v } else { 0.0 });
    };

    put("scene.training_set_s", ns(&set, "scene.training_set") / 1e9);
    put("emotion.train_s", ns(&set, "emotion.train") / 1e9);
    if let Prepared::Frames { frames, .. } = prepared {
        let total: u64 = frames.render_ns.iter().sum();
        put(
            "scene.render_ms_per_camera_frame",
            per(total as f64 / 1e6, frames.render_ns.len()),
        );
    }
    put(
        "emotion.lbp_us_per_face",
        per(ns(&rep, "emotion.lbp") / 1e3, counts.classified),
    );
    put(
        "emotion.mlp_us_per_face",
        per(ns(&rep, "emotion.mlp") / 1e3, counts.classified),
    );
    put(
        "vision.detect_us_per_camera_frame",
        per(ns(&rep, "vision.detect") / 1e3, counts.camera_frames),
    );
    put(
        "vision.landmarks_pose_us_per_face",
        per(ns(&rep, "vision.landmarks_pose") / 1e3, counts.detections),
    );
    put(
        "vision.recognize_us_per_face",
        per(ns(&rep, "vision.recognize") / 1e3, counts.detections),
    );
    put(
        "vision.integrate_us_per_camera_frame",
        per(ns(&rep, "vision.integrate") / 1e3, counts.camera_frames),
    );
    put(
        "vision.faces_per_camera_frame",
        per(counts.detections as f64, counts.camera_frames),
    );
    put(
        "vision.recognized_share",
        per(counts.recognized as f64, counts.detections),
    );
    put(
        "vision.posed_share",
        per(counts.posed as f64, counts.detections),
    );
    put(
        "analysis.fuse_us_per_frame",
        per(ns(&rep, "analysis.fuse") / 1e3, counts.frames),
    );
    put(
        "analysis.smooth_ms_per_event",
        per(ns(&rep, "analysis.smooth") / 1e6, events),
    );
    put(
        "analysis.episodes_ms_per_event",
        per(ns(&rep, "analysis.episodes") / 1e6, events),
    );
    put(
        "analysis.overall_emotion_ms_per_event",
        per(ns(&rep, "analysis.overall_emotion") / 1e6, events),
    );
    put(
        "video.parse_ms_per_event",
        per(ns(&rep, "video.parse") / 1e6, events),
    );
    put(
        "summarize.ms_per_event",
        per(ns(&rep, "summarize") / 1e6, events),
    );
    put(
        "metadata.insert_us_per_record",
        per(ns(&rep, "metadata.insert") / 1e3, counts.records),
    );
    put(
        "metadata.records_per_frame",
        per(counts.records as f64, counts.frames),
    );

    let (p0, p1) = &traced.pool;
    let tasks = p1.tasks.saturating_sub(p0.tasks);
    put("pool.tasks_per_camera_frame", per(tasks as f64, inputs));
    put(
        "pool.steal_share",
        per(p1.steals.saturating_sub(p0.steals) as f64, tasks as usize),
    );
    put(
        "pool.queue_wait_ms_per_camera_frame",
        per(
            p1.queue_wait_ns.saturating_sub(p0.queue_wait_ns) as f64 / 1e6,
            inputs,
        ),
    );
    put(
        "pool.run_ms_per_camera_frame",
        per(p1.run_ns.saturating_sub(p0.run_ns) as f64 / 1e6, inputs),
    );

    put("core.session_open_ms", ns(&run, "core.session_open") / 1e6);
    put(
        "core.push_ms_per_camera_frame",
        per(ns(&run, "core.push") / 1e6, traced.inputs),
    );
    put(
        "core.poll_us_per_call",
        per(
            ns(&run, "core.poll") / 1e3,
            calls(&run, "core.poll") as usize,
        ),
    );
    put("core.finish_ms", ns(&run, "core.finish") / 1e6);
    put("core.cores_busy", untraced.cpu_s / untraced.wall_s);
    // The replay covers one event (one venue on `server-venues`).
    put(
        "core.unattributed_ms_per_camera_frame",
        trace::unattributed_ms_per_input(
            untraced.cpu_ms_per_input(),
            trace::layer_self_ns(&rep, &INPUT_LAYERS),
            counts.frames * prepared.event().cameras(),
        ),
    );

    put(
        "server.encode_us_per_frame",
        per(
            ns(&rep, "server.encode") / 1e3,
            calls(&rep, "server.encode") as usize,
        ),
    );
    put(
        "server.decode_us_per_frame",
        per(
            ns(&rep, "server.decode") / 1e3,
            calls(&rep, "server.decode") as usize,
        ),
    );
    put(
        "server.send_wait_ms_per_camera_frame",
        per(ns(&run, "server.send") / 1e6, traced.inputs),
    );
    put(
        "server.open_ms",
        per(
            ns(&run, "server.open") / 1e6,
            calls(&run, "server.open") as usize,
        ),
    );
    put(
        "server.finish_ms",
        per(
            ns(&run, "server.finish") / 1e6,
            calls(&run, "server.finish") as usize,
        ),
    );

    let lat = stats::sorted(&untraced.latency.latencies_ms());
    put(
        "core.frame_latency_p98_ms",
        stats::percentile_sorted(&lat, 98.0).unwrap_or(0.0),
    );
    put(
        "bench.trace_overhead_pct",
        (traced.cpu_ms_per_input() / untraced.cpu_ms_per_input() - 1.0) * 100.0,
    );
    let late = stats::sorted(
        &untraced
            .latency
            .lateness_s
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<_>>(),
    );
    put(
        "bench.push_late_p98_ms",
        stats::percentile_sorted(&late, 98.0).unwrap_or(0.0),
    );
    for (&name, &v) in extras {
        put(name, v);
    }
    m
}

/// The trained model's pieces, for calling each kernel on its own.
struct Replica {
    lbp: LbpConfig,
    normalizer: Normalizer,
    mlp: Mlp,
}

/// Builds the training set and trains the classifier exactly as
/// `train_emotion_classifier` does, timing the two steps apart.
fn train_replica(config: &PipelineConfig, t: &mut Tracer) -> Replica {
    let data = t.time("scene.training_set", || {
        default_training_set(&config.training)
    });
    let (clf, _) = t.time("emotion.train", || {
        let tc = TrainingConfig {
            epochs: 40,
            ..TrainingConfig::default()
        };
        EmotionClassifier::train(
            &data,
            LbpConfig::default(),
            &[48],
            config.training_seed,
            &tc,
        )
    });
    // The model's parts are private fields; its serialized form is
    // public and round-trips them exactly.
    let v = serde_json::to_value(&clf).expect("classifier serializes");
    let part = |k: &str| v.get(k).cloned().unwrap_or_default();
    let lbp = part("lbp");
    Replica {
        lbp: LbpConfig {
            grid: lbp.get("grid").and_then(|g| g.as_u64()).expect("lbp grid") as usize,
            threshold: lbp
                .get("threshold")
                .and_then(|g| g.as_u64())
                .expect("lbp threshold") as u8,
        },
        normalizer: serde_json::from_value(part("normalizer")).expect("normalizer round-trips"),
        mlp: serde_json::from_value(part("mlp")).expect("mlp round-trips"),
    }
}

/// The session's first-frame enrollment: detections are associated
/// with seats by projected position and enrolled when unambiguous.
fn enroll(
    config: ExtractorConfig,
    camera: PinholeCamera,
    first: &GrayFrame,
    seats: &[(usize, Vec3)],
) -> FaceGallery {
    let mut probe = FeatureExtractor::new(config, camera, FaceGallery::default());
    let mut gallery = FaceGallery::default();
    for o in probe.process(first) {
        let best = seats
            .iter()
            .filter_map(|&(person, head)| {
                let p = camera.project(head)?;
                Some((
                    person,
                    (p.pixel.x - o.detection.cx).hypot(p.pixel.y - o.detection.cy),
                ))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let (Some((person, d)), Some(patch)) = (best, o.patch.as_ref()) {
            if d < o.detection.radius * 2.0 {
                gallery.enroll(PersonId(person), &o.detection, patch);
            }
        }
    }
    gallery
}

/// The extractor's patch crop: the detection's bounding square,
/// resized to the configured patch side.
fn crop(frame: &GrayFrame, det: &dievent_vision::FaceDetection, side: u32) -> GrayFrame {
    let r = det.radius.ceil() as i64;
    let w = (2 * r + 1).max(1) as u32;
    frame
        .patch(det.cx as i64 - r, det.cy as i64 - r, w, w)
        .resize(side.max(8), side.max(8))
}

/// The session's fusion input for one camera frame: full poses where
/// available, position-only sightings otherwise.
fn assemble(
    camera: &PinholeCamera,
    config: &ExtractorConfig,
    obs: &[FaceObservation],
) -> Vec<CameraObservation> {
    obs.iter()
        .filter_map(|o| {
            let (person, _) = o.identity?;
            Some(match &o.pose {
                Some(pose) => CameraObservation {
                    person: person.0,
                    head_cam: pose.head_cam,
                    gaze_cam: Some(pose.gaze_cam),
                    weight: 1.0,
                },
                None => {
                    let k = &camera.intrinsics;
                    let z = k.fx * config.pose.head_radius_m / o.detection.radius;
                    CameraObservation {
                        person: person.0,
                        head_cam: Vec3::new(
                            (o.detection.cx - k.cx) / k.fx * z,
                            (o.detection.cy - k.cy) / k.fy * z,
                            z,
                        ),
                        gaze_cam: None,
                        weight: 0.5,
                    }
                }
            })
        })
        .collect()
}

/// `(person, probabilities, confidence, apparent radius)` of one face.
type FaceEmotion = (usize, Vec<f64>, f64, f64);

/// What the replay computed that the session also reports.
struct Replayed {
    /// Fused look-at matrix per frame, before smoothing.
    raw: Vec<LookAtMatrix>,
    /// Overall emotion per frame.
    overall: Vec<OverallEmotion>,
}

/// Where the replay's outputs differ from the session's, if anywhere.
fn replay_mismatch(replayed: &Replayed, analysis: &EventAnalysis) -> Vec<String> {
    let first_difference = |what: &str, equal: &dyn Fn(usize) -> bool, a: usize, b: usize| {
        if a != b {
            return Some(format!("replay has {a} {what}, the session {b}"));
        }
        (0..a)
            .find(|&i| !equal(i))
            .map(|i| format!("replay's {what} differ from the session's from frame {i}"))
    };
    [
        first_difference(
            "raw look-at matrices",
            &|i| replayed.raw[i] == analysis.raw_matrices[i],
            replayed.raw.len(),
            analysis.raw_matrices.len(),
        ),
        first_difference(
            "overall emotions",
            &|i| replayed.overall[i] == analysis.overall[i],
            replayed.overall.len(),
            analysis.overall.len(),
        ),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn replay_frames(
    event: &Event,
    frames: &Frames,
    config: &PipelineConfig,
    classifier: Option<&Replica>,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Replayed {
    let scenario = event.scenario();
    let n_frames = event.frames();
    let cameras = event.cameras();
    let cfg = config.extractor;
    let seats: Vec<(usize, Vec3)> = scenario
        .participants
        .iter()
        .map(|p| (p.index, p.seat_head))
        .collect();
    let mut observations: Vec<Vec<Vec<CameraObservation>>> =
        vec![Vec::with_capacity(cameras); n_frames];
    let mut emotions: Vec<Vec<Vec<FaceEmotion>>> = vec![Vec::with_capacity(cameras); n_frames];
    let mut monitor = Vec::new();
    let (mut raw, mut features, mut lbp_scratch, mut mlp_scratch) = (
        Vec::new(),
        Vec::new(),
        LbpScratch::new(),
        MlpBatchScratch::new(),
    );

    for c in 0..cameras {
        let camera = scenario.rig.cameras[c];
        let stream = &frames.frames[c];
        let gallery = t.time("vision.enroll", || enroll(cfg, camera, &stream[0], &seats));
        let mut extractor = FeatureExtractor::new(cfg, camera, gallery.clone());
        for (f, frame) in stream.iter().enumerate() {
            counts.camera_frames += 1;
            let dets = t.time("vision.detect", || detect_faces(frame, &cfg.detector));
            counts.detections += dets.len();
            let mut identified: Vec<(usize, f64, GrayFrame)> = Vec::new();
            for det in &dets {
                t.time("vision.landmarks_pose", || {
                    locate_landmarks(frame, det, &cfg.landmarks)
                        .and_then(|lm| estimate_pose(det, &lm, &camera, &cfg.pose))
                });
                let (who, patch) = t.time("vision.recognize", || {
                    let patch = crop(frame, det, cfg.patch_size);
                    (gallery.recognize(det, &patch), patch)
                });
                if let Some(r) = who {
                    identified.push((r.person.0, det.radius, patch));
                }
            }
            counts.recognized += identified.len();
            let mut faces: Vec<FaceEmotion> = Vec::new();
            if let (Some(clf), false) = (classifier, identified.is_empty()) {
                features.clear();
                for (_, _, patch) in &identified {
                    t.time("emotion.lbp", || {
                        lbp_feature_vector_with(patch, &clf.lbp, &mut raw, &mut lbp_scratch)
                    });
                    t.time("emotion.normalize", || {
                        clf.normalizer.apply_extend(&raw, &mut features)
                    });
                }
                let probs = t.time("emotion.mlp", || {
                    clf.mlp
                        .predict_proba_batch_with(identified.len(), &features, &mut mlp_scratch)
                        .to_vec()
                });
                counts.classified += identified.len();
                let classes = probs.len() / identified.len();
                for ((person, radius, _), p) in identified.iter().zip(probs.chunks(classes)) {
                    let conf = p.iter().copied().fold(0.0, f64::max);
                    faces.push((*person, p.to_vec(), conf, *radius));
                }
            }
            if c == 0 && config.parse_video {
                monitor.push(t.time("video.downsample", || frame.downsample2().downsample2()));
            }
            // The stateful phase consumes the pure phase's result; the
            // pure phase itself was timed piece by piece above.
            let pure = extractor.analyze(frame);
            let obs = t.time("vision.integrate", || extractor.integrate(pure));
            counts.posed += obs.iter().filter(|o| o.pose.is_some()).count();
            observations[f].push(assemble(&camera, &cfg, &obs));
            emotions[f].push(faces);
        }
    }

    let n = scenario.participants.len();
    let poses: Vec<_> = scenario.rig.cameras.iter().map(|c| c.pose).collect();
    let mut scratch = LookAtScratch::new();
    let mut matrices = Vec::with_capacity(n_frames);
    let mut emotion_frames = Vec::with_capacity(n_frames);
    for (obs, faces) in observations.into_iter().zip(emotions) {
        let frame_obs = FrameObservations {
            cameras: poses.iter().copied().zip(obs).collect(),
        };
        matrices.push(fuse(&frame_obs, n, config, &mut scratch, t));
        emotion_frames.push(best_emotions(n, &faces));
    }
    counts.frames += n_frames;
    let structure = config.parse_video.then(|| {
        let mut spec = scenario.spec;
        spec.width = monitor.first().map_or(spec.width / 4, |f| f.width());
        spec.height = monitor.first().map_or(spec.height / 4, |f| f.height());
        t.time("video.parse", || {
            VideoParser::new(config.parser).parse_frames(spec, &monitor)
        })
    });
    let overall = analyse(
        &matrices,
        &emotion_frames,
        n,
        config,
        structure.as_ref().map(|s| &s.shots[..]),
        t,
    );
    Replayed {
        raw: matrices,
        overall,
    }
}

/// Per person, the estimate from the camera with the largest face.
fn best_emotions(n: usize, cameras: &[Vec<FaceEmotion>]) -> Vec<EmotionEstimate> {
    let mut best: Vec<Option<&FaceEmotion>> = vec![None; n];
    for face in cameras.iter().flatten() {
        if face.0 < n && best[face.0].is_none_or(|b| face.3 > b.3) {
            best[face.0] = Some(face);
        }
    }
    best.into_iter()
        .flatten()
        .map(|(person, probabilities, confidence, _)| EmotionEstimate {
            person: *person,
            probabilities: probabilities.clone(),
            confidence: *confidence,
        })
        .collect()
}

fn fuse(
    frame: &FrameObservations,
    n: usize,
    config: &PipelineConfig,
    scratch: &mut LookAtScratch,
    t: &mut Tracer,
) -> LookAtMatrix {
    t.time("analysis.fuse", || {
        let poses = fuse_frame(frame, &config.fusion);
        LookAtMatrix::from_poses_with(n, &poses, &config.lookat, scratch)
    })
}

/// The finish-time analysis stages over a fused event.
fn analyse(
    raw: &[LookAtMatrix],
    emotion_frames: &[Vec<EmotionEstimate>],
    n: usize,
    config: &PipelineConfig,
    shots: Option<&[dievent_video::Shot]>,
    t: &mut Tracer,
) -> Vec<OverallEmotion> {
    let matrices = t.time("analysis.smooth", || {
        smooth_matrices(raw, config.matrix_smoothing)
    });
    t.time("analysis.episodes", || {
        let mut summary = LookAtSummary::new(n);
        for m in &matrices {
            summary.add(m);
        }
        (
            dominance_ranking(&summary),
            ec_episodes(&matrices, 3),
            pair_statistics(&matrices, 3),
        )
    });
    let overall = t.time("analysis.overall_emotion", || {
        fuse_sequence(
            emotion_frames,
            &OverallEmotionConfig {
                participants: n,
                smoothing: config.emotion_smoothing,
            },
        )
    });
    t.time("summarize", || {
        let highlights = detect_highlights(&matrices, &overall, &config.highlights);
        let importance = importance_series(&matrices, &overall, &config.importance);
        let summary =
            shots.map(|s| select_summary(s, &importance, &config.summary, &config.importance));
        (highlights, summary)
    });
    overall
}

fn replay_poses(
    event: &Event,
    obs: &[Vec<Vec<CameraObservation>>],
    config: &PipelineConfig,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Replayed {
    let scenario = event.scenario();
    let n = scenario.participants.len();
    let poses: Vec<_> = scenario.rig.cameras.iter().map(|c| c.pose).collect();
    let mut scratch = LookAtScratch::new();
    let matrices: Vec<LookAtMatrix> = obs
        .iter()
        .map(|cams| {
            let frame = FrameObservations {
                cameras: poses.iter().copied().zip(cams.iter().cloned()).collect(),
            };
            fuse(&frame, n, config, &mut scratch, t)
        })
        .collect();
    counts.frames += obs.len();
    let overall = analyse(&matrices, &vec![Vec::new(); obs.len()], n, config, None, t);
    Replayed {
        raw: matrices,
        overall,
    }
}

/// Wire encode and decode of every camera frame of one venue.
fn replay_codec(frames: &Frames, t: &mut Tracer) {
    let mut buf = Vec::new();
    for (c, stream) in frames.frames.iter().enumerate() {
        for (f, frame) in stream.iter().enumerate() {
            let msg = ClientMsg::Frame {
                event: EventId::new(1),
                camera: c.into(),
                seq: f as u64,
                frame: frame.clone(),
            };
            buf.clear();
            t.time("server.encode", || msg.write_to(&mut buf))
                .expect("encode to memory");
            let back = t.time("server.decode", || {
                ClientMsg::read_from(&mut &buf[..], &|| false)
            });
            assert!(
                matches!(back, Ok(Some(ClientMsg::Frame { .. }))),
                "frame round-trips"
            );
        }
    }
}

/// Re-inserts the traced run's own metadata records into a fresh
/// repository, one span per insert.
fn replay_metadata(analysis: &EventAnalysis, t: &mut Tracer, counts: &mut Counts) {
    let records = analysis.repository.query(&Query::new());
    let repo = MetadataRepository::in_memory();
    for record in records {
        t.time("metadata.insert", || repo.insert(record))
            .expect("in-memory insert");
        counts.records += 1;
    }
}

/// Longest gap between consecutive sends on a data connection while a
/// second venue opens on the control connection, in ms, plus the
/// control thread's spans.
fn open_stall(event: &Event, frames: &Frames) -> Result<(f64, Vec<Span>), String> {
    let mut server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback address"),
        ServerConfig::default(),
    )
    .map_err(|e| format!("stall probe: bind failed: {e}"))?;
    let addr = server.local_addr();
    let connect = || EventClient::connect(addr).map_err(|e| format!("stall probe: {e}"));
    let (mut control, mut data) = (connect()?, connect()?);
    let streaming = EventId::new(1);
    let opening = EventId::new(2);
    let config = PipelineConfig::default();
    let opened = control.open_event(streaming, event.scenario(), config);
    if !matches!(opened, Ok(Ok(()))) {
        return Err(format!("stall probe: open refused: {opened:?}"));
    }
    let epoch = Instant::now();
    let sent = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let (sends, (open_span, spans)) = std::thread::scope(|s| {
        let opener = s.spawn(|| {
            let mut t = Tracer::new(epoch);
            while sent.load(Ordering::Acquire) < STALL_PROBE_AFTER
                && !stopped.load(Ordering::Acquire)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let a = epoch.elapsed().as_secs_f64();
            let ok = t.time("server.open", || {
                control.open_event(opening, event.scenario(), config)
            });
            let b = epoch.elapsed().as_secs_f64();
            (
                matches!(ok, Ok(Ok(()))).then_some((a, b)),
                t.spans().to_vec(),
            )
        });
        let mut sends = Vec::with_capacity(frames.frames.len() * event.frames());
        'stream: for f in 0..event.frames() {
            for (c, stream) in frames.frames.iter().enumerate() {
                sends.push(epoch.elapsed().as_secs_f64());
                if data
                    .send_frame(streaming, c.into(), f as u64, stream[f].clone())
                    .is_err()
                {
                    break 'stream;
                }
                sent.fetch_add(1, Ordering::Release);
            }
        }
        stopped.store(true, Ordering::Release);
        (sends, opener.join().expect("opener thread"))
    });
    let finished = [streaming, opening].map(|id| matches!(data.finish_event(id), Ok(Ok(_))));
    drop((control, data));
    server.shutdown_join();
    match open_span {
        Some((a, b)) if finished == [true, true] => {
            Ok((longest_gap_during(&sends, a, b) * 1e3, spans))
        }
        _ => Err(format!(
            "stall probe: second open succeeded {}, finishes {finished:?}",
            open_span.is_some()
        )),
    }
}

/// The longest interval between consecutive timestamps that overlaps
/// `[a, b]`.
pub fn longest_gap_during(times: &[f64], a: f64, b: f64) -> f64 {
    times
        .windows(2)
        .filter(|w| w[1] >= a && w[0] <= b)
        .map(|w| w[1] - w[0])
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_is_the_longest_gap_overlapping_the_open() {
        let sends = [0.0, 0.1, 0.2, 1.7, 1.8, 5.0];
        // The 1.5 s gap overlaps the open at [0.5, 1.6]; the later 3.2 s
        // gap does not.
        assert!((longest_gap_during(&sends, 0.5, 1.6) - 1.5).abs() < 1e-12);
        assert_eq!(longest_gap_during(&sends, 10.0, 11.0), 0.0);
    }
}
