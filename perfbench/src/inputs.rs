//! Workload inputs, built before anything is timed: rendered camera
//! frames, external-tracker pose observations, and the references the
//! outputs are checked against (ground-truth look-at matrices and the
//! scripted overall-happiness series).
//!
//! Everything built here stays alive until the run ends, so the
//! resident size read just before set-up already contains it and
//! `rss_peak_mb` measures only what the program adds.

use dievent_analysis::overall_emotion::{fuse_sequence, EmotionEstimate, OverallEmotionConfig};
use dievent_analysis::{CameraObservation, LookAtMatrix};
use dievent_core::{PipelineConfig, Recording};
use dievent_scene::Scenario;
use dievent_video::GrayFrame;
use std::time::Instant;

/// Gaze error of the simulated external tracker (RMS, degrees).
pub const POSE_GAZE_NOISE_DEG: f64 = 4.0;

/// A scenario with its ground truth and the checks' references.
pub struct Event {
    /// The simulated capture (scenario + per-frame ground truth).
    pub recording: Recording,
    /// Ground-truth look-at matrix per frame, at the config's radius.
    pub truth: Vec<LookAtMatrix>,
    /// Scripted per-frame emotion estimates (hard, confidence 1). Kept,
    /// not dropped after use, so freeing them cannot lower the resident
    /// size below the peak the memory metric is measured against.
    pub scripted: Vec<Vec<EmotionEstimate>>,
    /// Overall happiness (percent) of the scripted emotions, fused and
    /// smoothed exactly as the pipeline fuses classified ones.
    pub expected_oh: Vec<f64>,
}

impl Event {
    /// Simulates `scenario` and derives the references under `config`.
    pub fn new(scenario: Scenario, config: &PipelineConfig) -> Self {
        let recording = Recording::capture(scenario);
        let truth = recording.lookat_truth(&config.lookat);
        let scripted: Vec<Vec<EmotionEstimate>> = recording
            .ground_truth
            .snapshots
            .iter()
            .map(|snap| {
                snap.states
                    .iter()
                    .enumerate()
                    .map(|(person, st)| EmotionEstimate::hard(person, st.emotion, 1.0))
                    .collect()
            })
            .collect();
        let expected_oh = fuse_sequence(
            &scripted,
            &OverallEmotionConfig {
                participants: recording.scenario.participants.len(),
                smoothing: config.emotion_smoothing,
            },
        )
        .iter()
        .map(|o| o.overall_happiness)
        .collect();
        Event {
            recording,
            truth,
            scripted,
            expected_oh,
        }
    }

    /// The scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.recording.scenario
    }

    /// Frames per camera.
    pub fn frames(&self) -> usize {
        self.recording.frames()
    }

    /// Cameras in the rig.
    pub fn cameras(&self) -> usize {
        self.recording.cameras()
    }

    /// Mean absolute gap, in percentage points, between a reported
    /// overall-happiness series and the scripted one.
    pub fn oh_mae(&self, reported: &[f64]) -> f64 {
        let n = reported.len().min(self.expected_oh.len()).max(1);
        reported
            .iter()
            .zip(&self.expected_oh)
            .map(|(r, e)| (r - e).abs())
            .sum::<f64>()
            / n as f64
    }
}

/// Every camera's frames, rendered once. `frames[c][f]`.
pub struct Frames {
    /// Rendered frames, per camera.
    pub frames: Vec<Vec<GrayFrame>>,
    /// Render time of each frame, in ns.
    pub render_ns: Vec<u64>,
}

/// Renders every frame of `event` on `threads` threads.
pub fn render_all(event: &Event, threads: usize) -> Frames {
    let cameras = event.cameras();
    let frames = event.frames();
    let jobs: Vec<(usize, usize)> = (0..cameras)
        .flat_map(|c| (0..frames).map(move |f| (c, f)))
        .collect();
    let threads = threads.max(1);
    let rendered: Vec<Vec<(usize, usize, GrayFrame, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let jobs = &jobs;
                s.spawn(move || {
                    jobs.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&(c, f)| {
                            let start = Instant::now();
                            let frame = event.recording.frame(c, f);
                            (c, f, frame, start.elapsed().as_nanos() as u64)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("render thread panicked"))
            .collect()
    });
    let mut out: Vec<Vec<Option<GrayFrame>>> = vec![vec![None; frames]; cameras];
    let mut render_ns = Vec::with_capacity(jobs.len());
    for (c, f, frame, ns) in rendered.into_iter().flatten() {
        out[c][f] = Some(frame);
        render_ns.push(ns);
    }
    Frames {
        frames: out
            .into_iter()
            .map(|cam| {
                cam.into_iter()
                    .map(|f| f.expect("every frame rendered"))
                    .collect()
            })
            .collect(),
        render_ns,
    }
}

/// External-tracker observations: for every frame and camera, each
/// participant's ground-truth head and gaze in that camera's frame, the
/// gaze rotated by [`POSE_GAZE_NOISE_DEG`] RMS (independently per
/// frame, camera and participant). `obs[f][c]`.
pub fn pose_observations(event: &Event) -> Vec<Vec<Vec<CameraObservation>>> {
    let sigma = POSE_GAZE_NOISE_DEG.to_radians();
    let seed = event.scenario().seed;
    let rig: Vec<_> = event
        .scenario()
        .rig
        .cameras
        .iter()
        .map(|cam| cam.extrinsics())
        .collect();
    event
        .recording
        .ground_truth
        .snapshots
        .iter()
        .enumerate()
        .map(|(f, snap)| {
            rig.iter()
                .enumerate()
                .map(|(c, to_cam)| {
                    snap.states
                        .iter()
                        .enumerate()
                        .map(|(person, st)| {
                            let salt = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(
                                ((f as u64) << 16) | ((c as u64) << 8) | person as u64,
                            );
                            let gaze = dievent_bench::perturb(st.gaze, sigma, salt);
                            CameraObservation {
                                person,
                                head_cam: to_cam.transform_point(st.head),
                                gaze_cam: Some(to_cam.transform_dir(gaze)),
                                weight: 1.0,
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oh_mae_is_mean_absolute_gap() {
        let event = Event::new(
            Scenario::two_camera_dinner(6, 3),
            &PipelineConfig::default(),
        );
        assert_eq!(event.expected_oh.len(), 6);
        let shifted: Vec<f64> = event.expected_oh.iter().map(|v| v + 2.5).collect();
        assert!((event.oh_mae(&shifted) - 2.5).abs() < 1e-9);
        assert_eq!(event.oh_mae(&event.expected_oh.clone()), 0.0);
    }

    #[test]
    fn pose_observations_cover_every_frame_camera_and_guest() {
        let event = Event::new(
            Scenario::restaurant_dinner(3, 5, 9),
            &PipelineConfig::default(),
        );
        let obs = pose_observations(&event);
        assert_eq!(obs.len(), 5);
        assert!(obs
            .iter()
            .all(|f| f.len() == 4 && f.iter().all(|c| c.len() == 3)));
        // Noise is deterministic for a given scenario seed.
        assert_eq!(obs, pose_observations(&event));
    }
}
