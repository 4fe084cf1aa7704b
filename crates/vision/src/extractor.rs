//! The per-camera feature-extraction pipeline (paper §II-C).
//!
//! [`FeatureExtractor`] is the DiEvent stand-in for running the OpenFace
//! toolkit + library on one camera stream: per frame it detects faces,
//! locates landmarks, estimates head pose and gaze, tracks identities
//! over time, recognizes enrolled participants, and crops normalized
//! face patches for the emotion classifier. The output is a list of
//! [`FaceObservation`]s the multilayer analysis consumes.

use crate::detect::{detect_faces, DetectorConfig};
use crate::landmarks::{locate_landmarks, LandmarkConfig};
use crate::pose::{estimate_pose, PoseConfig};
use crate::recognize::FaceGallery;
use crate::track::{FaceTracker, TrackerConfig};
use crate::types::FaceObservation;
use dievent_geometry::PinholeCamera;
use dievent_telemetry::{Counter, Histogram, Telemetry};
use dievent_video::GrayFrame;
use serde::{Deserialize, Serialize};

/// Configuration of the full extraction pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExtractorConfig {
    /// Face detector parameters.
    pub detector: DetectorConfig,
    /// Landmark localizer parameters.
    pub landmarks: LandmarkConfig,
    /// Pose estimator parameters.
    pub pose: PoseConfig,
    /// Tracker parameters.
    pub tracker: TrackerConfig,
    /// Side length of the normalized face patch (pixels).
    pub patch_size: u32,
    /// When landmarks fail on a tracked face (blink-like dropout,
    /// rim-grazing view), the last successful pose is carried forward
    /// for up to this many frames, with the head position refreshed
    /// from the current detection. 0 disables carry-forward. Short
    /// horizons bridge blink-like dropouts without propagating a stale
    /// gaze across a real target change.
    pub pose_carry_frames: usize,
}

impl ExtractorConfig {
    /// Sensible defaults (48 px patches, 6-frame pose carry).
    pub fn standard() -> Self {
        ExtractorConfig {
            detector: DetectorConfig::default(),
            landmarks: LandmarkConfig::default(),
            pose: PoseConfig::default(),
            tracker: TrackerConfig::default(),
            patch_size: 48,
            pose_carry_frames: 6,
        }
    }
}

/// Pre-resolved instrument handles for one extractor. Resolved once
/// per camera (registry lock touched only at attach time); the hot
/// per-frame path does plain atomic updates. Defaults to no-ops.
#[derive(Debug, Default)]
struct ExtractorInstruments {
    /// `frames_processed{camera}` — frames this extractor consumed.
    frames: Counter,
    /// `faces_detected{camera}` — detections across all frames.
    faces: Counter,
    /// `identity_misses{camera}` — detections the gallery could not
    /// attribute to an enrolled participant.
    identity_misses: Counter,
    /// `pose_carries{camera}` — landmark dropouts bridged by the
    /// pose carry-forward cache.
    pose_carries: Counter,
    /// `frame_extraction_seconds{camera}` — wall time per frame.
    frame_seconds: Histogram,
}

/// Stateful per-camera extractor.
#[derive(Debug)]
pub struct FeatureExtractor {
    config: ExtractorConfig,
    camera: PinholeCamera,
    tracker: FaceTracker,
    gallery: FaceGallery,
    frame_index: usize,
    /// Last successful pose per track, with its age in frames.
    pose_cache:
        std::collections::HashMap<crate::types::TrackId, (crate::pose::HeadPoseEstimate, usize)>,
    instruments: ExtractorInstruments,
}

impl FeatureExtractor {
    /// Creates an extractor for one calibrated camera. The gallery may
    /// be pre-enrolled or extended later via [`FeatureExtractor::gallery_mut`].
    pub fn new(config: ExtractorConfig, camera: PinholeCamera, gallery: FaceGallery) -> Self {
        let patch = config.patch_size.max(8);
        let mut cfg = config;
        cfg.patch_size = patch;
        FeatureExtractor {
            tracker: FaceTracker::new(cfg.tracker),
            config: cfg,
            camera,
            gallery,
            frame_index: 0,
            pose_cache: std::collections::HashMap::new(),
            instruments: ExtractorInstruments::default(),
        }
    }

    /// Attaches this extractor to a telemetry domain, labeling its
    /// instruments with `camera`. Resolves all handles up front so the
    /// per-frame path never touches the registry.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, camera: &str) {
        let labels = &[("camera", camera)][..];
        self.instruments = ExtractorInstruments {
            frames: telemetry.counter_with("frames_processed", labels),
            faces: telemetry.counter_with("faces_detected", labels),
            identity_misses: telemetry.counter_with("identity_misses", labels),
            pose_carries: telemetry.counter_with("pose_carries", labels),
            frame_seconds: telemetry.histogram_with("frame_extraction_seconds", labels),
        };
    }

    /// The calibrated camera this extractor runs on.
    pub fn camera(&self) -> &PinholeCamera {
        &self.camera
    }

    /// Mutable access to the gallery (for enrollment).
    pub fn gallery_mut(&mut self) -> &mut FaceGallery {
        &mut self.gallery
    }

    /// Number of frames processed so far.
    pub fn frames_processed(&self) -> usize {
        self.frame_index
    }

    /// Crops and normalizes the face patch for a detection.
    fn crop_patch(&self, frame: &GrayFrame, det: &crate::detect::FaceDetection) -> GrayFrame {
        let r = det.radius.ceil() as i64;
        let side = (2 * r + 1).max(1) as u32;
        frame
            .patch(det.cx as i64 - r, det.cy as i64 - r, side, side)
            .resize(self.config.patch_size, self.config.patch_size)
    }

    /// Processes the next frame of the stream and returns one
    /// observation per detected face.
    ///
    /// Equivalent to [`analyze`](Self::analyze) followed by
    /// [`integrate`](Self::integrate) — the pipeline's frame-parallel
    /// path runs `analyze` for many frames concurrently on the shared
    /// pool, then `integrate`s the results in frame order, which makes
    /// the two paths bit-identical by construction.
    pub fn process(&mut self, frame: &GrayFrame) -> Vec<FaceObservation> {
        let raw = self.analyze(frame);
        self.integrate(raw)
    }

    /// The **pure** phase of frame processing: face detection,
    /// landmarks, per-detection pose estimation, patch cropping, and
    /// gallery recognition. Takes `&self`, touches no cross-frame state
    /// (tracker, pose-carry cache, frame counter), and therefore may
    /// run for many frames concurrently.
    pub fn analyze(&self, frame: &GrayFrame) -> FrameRaw {
        let started = std::time::Instant::now();
        let detections = detect_faces(frame, &self.config.detector);
        let mut faces = Vec::with_capacity(detections.len());
        for det in detections {
            let landmarks = locate_landmarks(frame, &det, &self.config.landmarks);
            let pose = landmarks
                .as_ref()
                .and_then(|lm| estimate_pose(&det, lm, &self.camera, &self.config.pose));
            let patch = self.crop_patch(frame, &det);
            let identity = self
                .gallery
                .recognize(&det, &patch)
                .map(|r| (r.person, r.distance));
            if identity.is_none() {
                self.instruments.identity_misses.incr();
            }
            faces.push(RawFace {
                detection: det,
                landmarks,
                pose,
                patch,
                identity,
            });
        }
        FrameRaw {
            faces,
            analyze_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// The **stateful** phase: advances the tracker, ages the
    /// pose-carry cache, applies carry-forward to landmark dropouts,
    /// and stamps the frame index. Must be called exactly once per
    /// [`analyze`](Self::analyze) result, in frame order.
    pub fn integrate(&mut self, raw: FrameRaw) -> Vec<FaceObservation> {
        let started = std::time::Instant::now();
        let detections: Vec<crate::detect::FaceDetection> =
            raw.faces.iter().map(|f| f.detection).collect();
        let track_ids = self.tracker.step(&detections);
        // Age the pose cache and retire entries past the carry horizon.
        let carry = self.config.pose_carry_frames;
        for (_, age) in self.pose_cache.values_mut() {
            *age += 1;
        }
        self.pose_cache
            .retain(|_, (_, age)| *age <= carry.max(1) * 4);
        let mut out = Vec::with_capacity(raw.faces.len());
        for (face, track) in raw.faces.into_iter().zip(track_ids) {
            let det = face.detection;
            let mut pose = face.pose;
            match pose {
                Some(p) => {
                    self.pose_cache.insert(track, (p, 0));
                }
                None if carry > 0 => {
                    // Carry the last good pose: direction from the cache,
                    // position refreshed from this detection's depth model.
                    if let Some((cached, age)) = self.pose_cache.get(&track) {
                        if *age <= carry && det.radius > 1.0 {
                            self.instruments.pose_carries.incr();
                            let k = &self.camera.intrinsics;
                            let z = k.fx * self.config.pose.head_radius_m / det.radius;
                            pose = Some(crate::pose::HeadPoseEstimate {
                                head_cam: dievent_geometry::Vec3::new(
                                    (det.cx - k.cx) / k.fx * z,
                                    (det.cy - k.cy) / k.fy * z,
                                    z,
                                ),
                                forward_cam: cached.forward_cam,
                                gaze_cam: cached.gaze_cam,
                            });
                        }
                    }
                }
                None => {}
            }
            out.push(FaceObservation {
                frame: self.frame_index,
                detection: det,
                landmarks: face.landmarks,
                pose,
                track: Some(track),
                identity: face.identity,
                patch: Some(face.patch),
            });
        }
        self.frame_index += 1;
        self.instruments.frames.incr();
        self.instruments.faces.add(out.len() as u64);
        self.instruments
            .frame_seconds
            .observe(raw.analyze_seconds + started.elapsed().as_secs_f64());
        out
    }
}

/// One detection's pure analysis result (phase A of frame processing).
#[derive(Debug, Clone)]
struct RawFace {
    detection: crate::detect::FaceDetection,
    landmarks: Option<crate::landmarks::FaceLandmarks>,
    /// Pose from this frame's landmarks only — carry-forward is applied
    /// during [`FeatureExtractor::integrate`].
    pose: Option<crate::pose::HeadPoseEstimate>,
    patch: GrayFrame,
    identity: Option<(crate::types::PersonId, f64)>,
}

/// The pure per-frame analysis result of [`FeatureExtractor::analyze`],
/// consumed by [`FeatureExtractor::integrate`].
#[derive(Debug, Clone)]
pub struct FrameRaw {
    faces: Vec<RawFace>,
    /// Wall time spent in `analyze`, folded into the per-frame
    /// extraction-seconds histogram at integrate time.
    analyze_seconds: f64,
}

impl FrameRaw {
    /// Number of faces detected in this frame.
    pub fn face_count(&self) -> usize {
        self.faces.len()
    }

    /// Iterates the pure-phase per-face results: the detection, the
    /// recognized identity (if any), and the cropped face patch.
    ///
    /// This exposes exactly the inputs downstream per-face work needs
    /// (a session enrolls participants from its first frame's faces)
    /// without waiting for [`FeatureExtractor::integrate`].
    pub fn faces(
        &self,
    ) -> impl Iterator<
        Item = (
            &crate::detect::FaceDetection,
            Option<(crate::types::PersonId, f64)>,
            &GrayFrame,
        ),
    > {
        self.faces
            .iter()
            .map(|f| (&f.detection, f.identity, &f.patch))
    }

    /// Iterates only the faces whose identity was recognized, yielding
    /// `(person, detection radius, patch)` — the tuple a session's
    /// camera lanes hand to fusion, which classifies the emotion of
    /// each person's largest face across the cameras. Order matches
    /// [`faces`](Self::faces) (and therefore the face order
    /// [`FeatureExtractor::integrate`] preserves).
    pub fn identified_faces(
        &self,
    ) -> impl Iterator<Item = (crate::types::PersonId, f64, &GrayFrame)> {
        self.faces
            .iter()
            .filter_map(|f| f.identity.map(|(p, _)| (p, f.detection.radius, &f.patch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract;
    use crate::types::PersonId;
    use dievent_geometry::{CameraIntrinsics, Vec3};

    fn camera() -> PinholeCamera {
        PinholeCamera::look_at(
            CameraIntrinsics::from_hfov(640, 480, 50.0),
            Vec3::new(0.0, 0.0, 2.5),
            Vec3::new(2.5, 0.0, 1.0),
        )
        .unwrap()
    }

    /// Renders `n` frontal faces with distinct tones at fixed positions.
    fn frame_with_faces(camera: &PinholeCamera, heads: &[(Vec3, u8)]) -> GrayFrame {
        let mut f = GrayFrame::new(640, 480, 40);
        for &(head, tone) in heads {
            let proj = camera.project(head).unwrap();
            let r_px = camera
                .projected_radius(head, contract::HEAD_RADIUS_M)
                .unwrap();
            f.fill_disk(proj.pixel.x, proj.pixel.y, r_px, tone);
            // Frontal eyes with centered pupils.
            let fwd = (camera.position() - head).normalized();
            let right = fwd.cross(Vec3::Z).normalized();
            let up = right.cross(fwd);
            let (l, r) = contract::eye_directions(fwd, right, up);
            for dir in [l, r] {
                let ep = camera
                    .project(head + dir * contract::HEAD_RADIUS_M)
                    .unwrap();
                let er = r_px * contract::EYE_RADIUS_FRAC;
                f.fill_disk(ep.pixel.x, ep.pixel.y, er, contract::EYE_LUMINANCE);
                f.fill_disk(
                    ep.pixel.x,
                    ep.pixel.y,
                    er * contract::PUPIL_RADIUS_FRAC,
                    contract::PUPIL_LUMINANCE,
                );
            }
        }
        f
    }

    #[test]
    fn end_to_end_observation_has_all_fields() {
        let cam = camera();
        let heads = [
            (Vec3::new(2.2, 0.2, 1.2), 250u8),
            (Vec3::new(2.6, -0.7, 1.25), 200u8),
        ];
        let frame = frame_with_faces(&cam, &heads);
        let mut ex =
            FeatureExtractor::new(ExtractorConfig::standard(), cam, FaceGallery::default());
        let obs = ex.process(&frame);
        assert_eq!(obs.len(), 2);
        for o in &obs {
            assert!(o.landmarks.is_some(), "frontal faces have landmarks");
            assert!(o.pose.is_some());
            assert!(o.track.is_some());
            assert!(o.patch.is_some());
            assert_eq!(o.frame, 0);
            let p = o.patch.as_ref().unwrap();
            assert_eq!((p.width(), p.height()), (48, 48));
        }
        assert_eq!(ex.frames_processed(), 1);
    }

    #[test]
    fn tracks_stay_stable_and_identities_resolve_after_enrollment() {
        let cam = camera();
        let heads = [
            (Vec3::new(2.2, 0.2, 1.2), 250u8),
            (Vec3::new(2.6, -0.7, 1.25), 200u8),
        ];
        let frame = frame_with_faces(&cam, &heads);
        let mut ex =
            FeatureExtractor::new(ExtractorConfig::standard(), cam, FaceGallery::default());

        // First pass: enroll from observations.
        let obs0 = ex.process(&frame);
        for (i, o) in obs0.iter().enumerate() {
            ex.gallery_mut()
                .enroll(PersonId(i), &o.detection, o.patch.as_ref().unwrap());
        }

        let obs1 = ex.process(&frame);
        assert_eq!(obs1.len(), 2);
        for (o0, o1) in obs0.iter().zip(&obs1) {
            assert_eq!(o0.track, o1.track, "same face keeps its track");
        }
        let ids: Vec<_> = obs1
            .iter()
            .filter_map(|o| o.identity.map(|(p, _)| p))
            .collect();
        assert_eq!(ids.len(), 2, "both faces recognized after enrollment");
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn pose_carry_forward_bridges_landmark_dropout() {
        let cam = camera();
        let head = Vec3::new(2.2, 0.2, 1.2);
        let with_eyes = frame_with_faces(&cam, &[(head, 250u8)]);
        // Same face, eyes missing (blink / rim-grazing view).
        let mut eyeless = GrayFrame::new(640, 480, 40);
        let proj = cam.project(head).unwrap();
        let r_px = cam.projected_radius(head, contract::HEAD_RADIUS_M).unwrap();
        eyeless.fill_disk(proj.pixel.x, proj.pixel.y, r_px, 250);

        let mut ex =
            FeatureExtractor::new(ExtractorConfig::standard(), cam, FaceGallery::default());
        let first = ex.process(&with_eyes);
        assert!(first[0].pose.is_some());
        let carried_gaze = first[0].pose.unwrap().gaze_cam;

        // Within the carry horizon: pose persists with the cached gaze.
        for k in 0..6 {
            let obs = ex.process(&eyeless);
            let pose = obs[0]
                .pose
                .unwrap_or_else(|| panic!("carry frame {k} lost the pose"));
            assert!(pose.gaze_cam.approx_eq(carried_gaze, 1e-12));
        }
        // Beyond the horizon: the pose is dropped.
        for _ in 0..4 {
            ex.process(&eyeless);
        }
        let late = ex.process(&eyeless);
        assert!(late[0].pose.is_none(), "stale pose must expire");

        // With carry disabled, the dropout is immediate.
        let mut strict = FeatureExtractor::new(
            ExtractorConfig {
                pose_carry_frames: 0,
                ..ExtractorConfig::standard()
            },
            cam,
            FaceGallery::default(),
        );
        strict.process(&with_eyes);
        let obs = strict.process(&eyeless);
        assert!(obs[0].pose.is_none());
    }

    #[test]
    fn empty_frame_produces_no_observations() {
        let cam = camera();
        let mut ex =
            FeatureExtractor::new(ExtractorConfig::standard(), cam, FaceGallery::default());
        let obs = ex.process(&GrayFrame::new(640, 480, 40));
        assert!(obs.is_empty());
        assert_eq!(ex.frames_processed(), 1);
    }

    #[test]
    fn telemetry_counts_frames_faces_and_misses() {
        use dievent_telemetry::Telemetry;
        let cam = camera();
        let heads = [
            (Vec3::new(2.2, 0.2, 1.2), 250u8),
            (Vec3::new(2.6, -0.7, 1.25), 200u8),
        ];
        let frame = frame_with_faces(&cam, &heads);
        let telemetry = Telemetry::enabled();
        let mut ex =
            FeatureExtractor::new(ExtractorConfig::standard(), cam, FaceGallery::default());
        ex.attach_telemetry(&telemetry, "0");
        ex.process(&frame);
        ex.process(&frame);
        let report = telemetry.report();
        assert_eq!(report.counter("frames_processed{camera=\"0\"}"), Some(2));
        assert_eq!(report.counter("faces_detected{camera=\"0\"}"), Some(4));
        // Nothing enrolled, so every detection misses recognition.
        assert_eq!(report.counter("identity_misses{camera=\"0\"}"), Some(4));
        let h = report
            .histogram("frame_extraction_seconds{camera=\"0\"}")
            .unwrap();
        assert_eq!(h.count, 2);
        assert!(h.p50 > 0.0);
    }
}
