//! The per-face front end on the paper's prototype: landmarks, the
//! face crop and its resize, and the recognition embedding each equal
//! their test oracle bit for bit on every face of the first 120 frames
//! of each camera, and on camera 2's frame 361, where one face's mouth
//! lies directly under its left eye.

#[allow(dead_code)]
#[path = "../crates/vision/tests/support/oracle.rs"]
mod oracle;

#[allow(dead_code)]
#[path = "../crates/video/tests/support/oracle.rs"]
mod video_oracle;

use dievent_core::Recording;
use dievent_scene::Scenario;
use dievent_vision::recognize::embed;
use dievent_vision::{detect_faces, locate_landmarks, ExtractorConfig, FaceLandmarks};
use serde::{Deserialize, Serialize};

/// Every f64 of the landmarks, as bits; the mouth's last.
fn landmark_bits(landmarks: Option<FaceLandmarks>) -> Option<Vec<u64>> {
    landmarks.map(|l| {
        let points = [l.left_eye, l.right_eye, l.left_pupil, l.right_pupil];
        let mut values: Vec<f64> = points.iter().flat_map(|p| [p.x, p.y]).collect();
        values.push(l.eye_radius);
        values.extend(l.mouth.iter().flat_map(|m| [m.x, m.y]));
        values.iter().map(|v| v.to_bits()).collect()
    })
}

#[test]
fn prototype_faces_match_the_oracles() {
    let recording = Recording::capture(Scenario::prototype());
    let config = ExtractorConfig::standard();
    let size = config.patch_size;
    let frames = (0..recording.cameras())
        .flat_map(|camera| (0..120).map(move |f| (camera, f)))
        .chain([(2, 361)]);
    let (mut faces, mut paired, mut mouth_checked) = (0, 0, false);
    for (camera, f) in frames {
        let frame = recording.frame(camera, f);
        for det in detect_faces(&frame, &config.detector) {
            let at = format!(
                "camera {camera}, frame {f}, face at ({}, {})",
                det.cx, det.cy
            );
            faces += 1;

            let landmarks = locate_landmarks(&frame, &det, &config.landmarks);
            let slow = oracle::locate_landmarks(&frame, &det, &config.landmarks);
            assert_eq!(landmark_bits(landmarks), landmark_bits(slow), "{at}");
            paired += usize::from(landmarks.is_some());

            // The crop as the extractor takes it.
            let r = det.radius.ceil() as i64;
            let side = (2 * r + 1) as u32;
            let (x0, y0) = (det.cx as i64 - r, det.cy as i64 - r);
            let patch = frame.patch(x0, y0, side, side).resize(size, size);
            let slow =
                video_oracle::resize(&video_oracle::patch(&frame, x0, y0, side, side), size, size);
            assert_eq!(patch, slow, "{at}");

            let values: Vec<f64> = Deserialize::deserialize(&embed(&det, &patch).serialize())
                .expect("an embedding is a list of numbers");
            let fast: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            let slow: Vec<u64> = oracle::embed(&det, &slow)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(fast, slow, "{at}");

            // The face whose mouth is centred under its left eye.
            if (camera, f) == (2, 361) && (det.cx - 199.65).abs() < 0.01 {
                let mouth = landmarks.and_then(|l| l.mouth).expect("a mouth");
                assert!(
                    (mouth.x - 211.5).abs() < 0.01 && (mouth.y - 178.94).abs() < 0.01,
                    "{at}: mouth {mouth:?}"
                );
                mouth_checked = true;
            }
        }
    }
    assert!(mouth_checked, "camera 2's frame 361 lost its face");
    assert!(faces >= 1_920, "{faces} faces");
    // Most prototype faces take the no-pair path; the rest must be
    // checked too.
    assert!(paired >= 400, "{paired} of {faces} faces have an eye pair");
}
