//! Property-based tests for the vision substrate.

#[path = "support/oracle.rs"]
mod oracle;

#[allow(dead_code)]
#[path = "../../video/tests/support/oracle.rs"]
mod video_oracle;

use dievent_video::GrayFrame;
use dievent_vision::contract::{
    EYE_LUMINANCE, MOUTH_LUMINANCE, PUPIL_LUMINANCE, PUPIL_RADIUS_FRAC,
};
use dievent_vision::hungarian::assignment_cost;
use dievent_vision::recognize::{embed, Embedding};
use dievent_vision::{
    detect_faces, hungarian_min_assignment, locate_landmarks, DetectorConfig, FaceDetection,
    FaceLandmarks, LandmarkConfig,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

fn cost_matrix(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..100.0f64, n * n)
}

fn brute_force_best(costs: &[f64], n: usize) -> f64 {
    fn rec(costs: &[f64], n: usize, row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
        if row == n {
            *best = best.min(acc);
            return;
        }
        for c in 0..n {
            if !used[c] {
                used[c] = true;
                rec(costs, n, row + 1, used, acc + costs[row * n + c], best);
                used[c] = false;
            }
        }
    }
    let mut best = f64::INFINITY;
    rec(costs, n, 0, &mut vec![false; n], 0.0, &mut best);
    best
}

proptest! {
    /// Hungarian result is a valid matching and globally optimal
    /// (checked against exhaustive search for n ≤ 5).
    #[test]
    fn hungarian_is_optimal_and_valid(n in 1usize..6, costs in cost_matrix(5)) {
        let costs = &costs[..n * n];
        let a = hungarian_min_assignment(costs, n, n);
        // Validity: all rows matched, columns unique.
        let cols: Vec<usize> = a.iter().map(|c| c.expect("square: all matched")).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n, "columns must be unique");
        // Optimality.
        let got = assignment_cost(costs, n, &a);
        let best = brute_force_best(costs, n);
        prop_assert!((got - best).abs() < 1e-9, "hungarian {} vs optimal {}", got, best);
    }

    /// Rectangular problems: exactly min(rows, cols) matches, columns
    /// unique, never out of range.
    #[test]
    fn hungarian_rectangular_validity(
        rows in 1usize..5,
        cols in 1usize..5,
        values in proptest::collection::vec(0.0..50.0f64, 16),
    ) {
        let costs = &values[..rows * cols];
        let a = hungarian_min_assignment(costs, rows, cols);
        prop_assert_eq!(a.len(), rows);
        let matched: Vec<usize> = a.iter().flatten().copied().collect();
        prop_assert_eq!(matched.len(), rows.min(cols));
        let mut sorted = matched.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), matched.len());
        prop_assert!(matched.iter().all(|&c| c < cols));
    }

    /// Every detection reported by the face detector is internally
    /// consistent: centroid inside bbox, radius consistent with the
    /// bbox, area within the bbox area, mean luminance above threshold.
    #[test]
    fn detections_are_internally_consistent(
        disks in proptest::collection::vec((10.0..150.0f64, 10.0..110.0f64, 3.0..20.0f64), 0..4),
    ) {
        let mut f = GrayFrame::new(160, 120, 40);
        for &(x, y, r) in &disks {
            f.fill_disk(x, y, r, 220);
        }
        let cfg = DetectorConfig::default();
        for d in detect_faces(&f, &cfg) {
            let (x0, y0, x1, y1) = d.bbox;
            prop_assert!(d.cx >= x0 as f64 && d.cx <= x1 as f64);
            prop_assert!(d.cy >= y0 as f64 && d.cy <= y1 as f64);
            prop_assert!((d.radius - (d.width() + d.height()) as f64 / 4.0).abs() < 1e-9);
            prop_assert!(d.area <= (d.width() * d.height()) as usize);
            prop_assert!(d.area >= cfg.min_area);
            prop_assert!(d.mean_luminance >= cfg.threshold as f64);
        }
    }
}

/// A detection's fields, floats as bits, so equality is exact.
type DetectionBits = (u64, u64, u64, (u32, u32, u32, u32), usize, u64);

fn detection_bits(detections: &[FaceDetection]) -> Vec<DetectionBits> {
    detections
        .iter()
        .map(|d| {
            (
                d.cx.to_bits(),
                d.cy.to_bits(),
                d.radius.to_bits(),
                d.bbox,
                d.area,
                d.mean_luminance.to_bits(),
            )
        })
        .collect()
}

/// The production detector's and the oracle's output, as bits.
fn both_detectors(frame: &GrayFrame, config: &DetectorConfig) -> [Vec<DetectionBits>; 2] {
    [
        detection_bits(&detect_faces(frame, config)),
        detection_bits(&oracle::detect_faces(frame, config)),
    ]
}

fn embedding_bits(e: &Embedding) -> Vec<u64> {
    let values: Vec<f64> =
        Deserialize::deserialize(&e.serialize()).expect("an embedding is a list of numbers");
    values.iter().map(|v| v.to_bits()).collect()
}

/// A config that keeps every component, so the order of equal areas is
/// checked on every one of them.
fn keep_all(threshold: u8) -> DetectorConfig {
    DetectorConfig {
        threshold,
        min_area: 0,
        max_area: usize::MAX,
        min_circularity: 0.0,
        max_aspect: f64::INFINITY,
    }
}

/// Frames from 1×1 to 95×71: a background plus disks and rectangles
/// that may overlap, hang off any edge, or tie in area.
fn blob_frame() -> impl Strategy<Value = GrayFrame> {
    (
        1u32..96,
        1u32..72,
        0u8..=255,
        proptest::collection::vec(
            (
                0u8..2,
                -10i64..100,
                -10i64..80,
                1u32..40,
                1u32..30,
                0u8..=255,
            ),
            0..8,
        ),
    )
        .prop_map(|(w, h, bg, shapes)| {
            let mut f = GrayFrame::new(w, h, bg);
            for (kind, x, y, sw, sh, v) in shapes {
                if kind == 0 {
                    f.fill_disk(x as f64, y as f64, f64::from(sw) / 2.0, v);
                } else {
                    f.fill_rect(x, y, sw, sh, v);
                }
            }
            f
        })
}

/// Frames from 1×1 to 96×96, odd, even and non-square, with
/// independent random pixels.
fn noise_frame() -> impl Strategy<Value = GrayFrame> {
    (
        1u32..97,
        1u32..97,
        proptest::collection::vec(0u8..=255, 96 * 96),
    )
        .prop_map(|(w, h, mut pixels)| {
            pixels.truncate((w * h) as usize);
            GrayFrame::from_data(w, h, pixels)
        })
}

fn detector_config() -> impl Strategy<Value = DetectorConfig> {
    (
        0u8..=255,
        0usize..200,
        0usize..3000,
        0.0..1.0f64,
        1.0..3.0f64,
    )
        .prop_map(
            |(threshold, min_area, max_area, min_circularity, max_aspect)| DetectorConfig {
                threshold,
                min_area,
                max_area,
                min_circularity,
                max_aspect,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_labelling_matches_flood_fill(
        f in blob_frame(),
        config in detector_config(),
        threshold in 0u8..=255,
    ) {
        let [fast, slow] = both_detectors(&f, &config);
        prop_assert_eq!(fast, slow);
        let [fast, slow] = both_detectors(&f, &keep_all(threshold));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn run_labelling_matches_flood_fill_on_noise(f in noise_frame(), threshold in 0u8..=255) {
        let [fast, slow] = both_detectors(&f, &keep_all(threshold));
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn ring_table_embedding_matches_per_pixel_embedding(
        patch in noise_frame(),
        luminance in 0.0..255.0f64,
    ) {
        let det = FaceDetection {
            cx: 10.0,
            cy: 10.0,
            radius: 5.0,
            bbox: (5, 5, 15, 15),
            area: 80,
            mean_luminance: luminance,
        };
        prop_assert_eq!(
            embedding_bits(&embed(&det, &patch)),
            oracle::embed(&det, &patch).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// The labeller's worst cases, each with the default config and with
/// one that keeps every component.
#[test]
fn run_labelling_matches_flood_fill_on_worst_cases() {
    let mut cases: Vec<(&str, GrayFrame)> = Vec::new();

    // All foreground: one component, far above `max_area`.
    cases.push(("all foreground", GrayFrame::new(640, 480, 255)));

    // One-pixel checkerboard: every pixel its own component, all tied.
    let mut checker = GrayFrame::new(64, 48, 0);
    checker.mutate(|d| {
        for (i, px) in d.iter_mut().enumerate() {
            if (i % 64 + i / 64) % 2 == 0 {
                *px = 255;
            }
        }
    });
    cases.push(("checkerboard", checker));

    // A U whose arms only meet in its last row, and an upside-down one.
    let mut u = GrayFrame::new(80, 60, 20);
    u.fill_rect(10, 5, 6, 40, 220);
    u.fill_rect(40, 5, 6, 40, 220);
    u.fill_rect(10, 44, 36, 6, 220);
    u.fill_rect(55, 10, 20, 4, 220);
    u.fill_rect(55, 10, 4, 30, 220);
    u.fill_rect(71, 10, 4, 30, 220);
    cases.push(("U shapes", u));

    // A square spiral: its arms merge late and out of raster order.
    let mut spiral = GrayFrame::new(64, 64, 0);
    let (mut x0, mut y0, mut x1, mut y1) = (2i64, 2i64, 61i64, 61i64);
    while x1 - x0 > 6 && y1 - y0 > 6 {
        spiral.fill_rect(x0, y0, (x1 - x0 + 1) as u32, 2, 200);
        spiral.fill_rect(x1 - 1, y0, 2, (y1 - y0 + 1) as u32, 200);
        spiral.fill_rect(x0, y1 - 1, (x1 - x0 + 1) as u32, 2, 200);
        spiral.fill_rect(x0, y0 + 4, 2, (y1 - y0 - 3) as u32, 200);
        x0 += 4;
        y0 += 4;
        x1 -= 4;
        y1 -= 4;
    }
    cases.push(("spiral", spiral));

    // Equal-area ties: identical disks and squares, raster order
    // differing from centroid order.
    let mut ties = GrayFrame::new(160, 120, 30);
    for (cx, cy) in [(120.0, 20.0), (20.0, 24.0), (70.0, 60.0), (30.0, 100.0)] {
        ties.fill_disk(cx, cy, 9.0, 210);
    }
    for (x, y) in [(140, 80), (100, 90), (60, 100)] {
        ties.fill_rect(x, y, 12, 12, 210);
    }
    cases.push(("ties", ties));

    // Blobs touching every border and corner.
    let mut borders = GrayFrame::new(120, 90, 10);
    for (cx, cy) in [
        (0.0, 0.0),
        (119.0, 0.0),
        (0.0, 89.0),
        (119.0, 89.0),
        (60.0, 0.0),
        (0.0, 45.0),
        (119.0, 45.0),
        (60.0, 89.0),
    ] {
        borders.fill_disk(cx, cy, 11.0, 240);
    }
    cases.push(("borders", borders));

    // 1×N and N×1 frames.
    for (w, h) in [(1, 57), (57, 1), (1, 1), (1, 2), (2, 1)] {
        let mut line = GrayFrame::new(w, h, 0);
        line.mutate(|d| {
            for (i, px) in d.iter_mut().enumerate() {
                *px = if i % 7 < 4 { 230 } else { 40 };
            }
        });
        cases.push(("line", line));
    }

    for (name, frame) in &cases {
        for threshold in [0, 1, 150, 254, 255] {
            for config in [
                DetectorConfig {
                    threshold,
                    ..DetectorConfig::default()
                },
                keep_all(threshold),
            ] {
                let [fast, slow] = both_detectors(frame, &config);
                assert_eq!(fast, slow, "{name} at threshold {threshold}");
            }
        }
    }
}

/// Detection, crop, resize and embedding chained as the extractor runs
/// them, against the oracles of all four, with the embedding's ring
/// table switching between patch sizes.
#[test]
fn crop_and_embed_chain_matches_oracles() {
    let mut frame = GrayFrame::new(320, 240, 35);
    for (k, (cx, cy, r)) in [
        (40.0, 40.0, 14.0),
        (300.0, 30.0, 25.0),
        (160.0, 130.0, 30.0),
        (12.0, 220.0, 11.0),
        (250.0, 200.0, 20.0),
    ]
    .into_iter()
    .enumerate()
    {
        frame.fill_disk(cx, cy, r, 170 + 15 * k as u8);
        frame.fill_disk(cx - r / 3.0, cy - r / 4.0, r / 6.0, 60);
        frame.fill_disk(cx + r / 3.0, cy - r / 4.0, r / 6.0, 60);
    }
    let config = DetectorConfig::default();
    let detections = detect_faces(&frame, &config);
    assert_eq!(
        detection_bits(&detections),
        detection_bits(&oracle::detect_faces(&frame, &config))
    );
    assert!(detections.len() >= 4, "got {detections:?}");
    for size in [48, 47, 48, 1, 9, 48] {
        for det in &detections {
            let r = det.radius.ceil() as i64;
            let side = (2 * r + 1) as u32;
            let (x0, y0) = (det.cx as i64 - r, det.cy as i64 - r);
            let patch = frame.patch(x0, y0, side, side).resize(size, size);
            let slow =
                video_oracle::resize(&video_oracle::patch(&frame, x0, y0, side, side), size, size);
            assert_eq!(patch, slow);
            let slow: Vec<u64> = oracle::embed(det, &slow)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(embedding_bits(&embed(det, &patch)), slow, "size {size}");
        }
    }
}

/// Landmarks' fields, floats as bits, so equality is exact: the eyes,
/// pupils and eye radius, then the mouth.
type LandmarkBits = Option<([u64; 9], Option<[u64; 2]>)>;

fn landmark_bits(landmarks: Option<FaceLandmarks>) -> LandmarkBits {
    landmarks.map(|l| {
        let [a, b, c, d] = [l.left_eye, l.right_eye, l.left_pupil, l.right_pupil];
        let points = [a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y, l.eye_radius];
        (
            points.map(f64::to_bits),
            l.mouth.map(|m| [m.x.to_bits(), m.y.to_bits()]),
        )
    })
}

/// The production localizer's and the oracle's output, as bits.
fn both_localizers(
    frame: &GrayFrame,
    det: &FaceDetection,
    config: &LandmarkConfig,
) -> [LandmarkBits; 2] {
    [
        landmark_bits(locate_landmarks(frame, det, config)),
        landmark_bits(oracle::locate_landmarks(frame, det, config)),
    ]
}

/// A radius whose feature disk `(0.98·r)²` is exactly `n`, if one lies
/// within 64 ulps of `√n / 0.98`: with an integer centre, the disk's
/// edge then passes exactly through every pixel centre at squared
/// distance `n`.
fn exact_edge_radius(n: u64) -> Option<f64> {
    let guess = (n as f64).sqrt() / 0.98;
    (-64i64..=64)
        .map(|k| f64::from_bits(guess.to_bits().wrapping_add_signed(k)))
        .find(|r| {
            let limit = r * 0.98;
            limit * limit == n as f64
        })
}

/// A detection centred at `(cx, cy)` with `radius`, its bbox the
/// circle's pixels grown by `pad` (shrunk when negative) and clamped
/// into the frame.
fn detection_at(frame: &GrayFrame, cx: f64, cy: f64, radius: f64, pad: i64) -> FaceDetection {
    let clamp = |v: f64, last: u32| (v as i64).clamp(0, i64::from(last)) as u32;
    let (last_x, last_y) = (frame.width() - 1, frame.height() - 1);
    let x0 = clamp((cx - radius).floor() - pad as f64, last_x);
    let y0 = clamp((cy - radius).floor() - pad as f64, last_y);
    let x1 = clamp((cx + radius).ceil() + pad as f64, last_x).max(x0);
    let y1 = clamp((cy + radius).ceil() + pad as f64, last_y).max(y0);
    FaceDetection {
        cx,
        cy,
        radius,
        bbox: (x0, y0, x1, y1),
        area: 1,
        mean_luminance: 200.0,
    }
}

/// Draws a face of radius `r` at `(cx, cy)`: two eyes with pupils, an
/// optional mouth (0 none, 1 a bar, 2 a disk), then `±noise` of hashed
/// noise.
struct FaceSketch {
    r: f64,
    centre: (f64, f64),
    face: u8,
    eyes: (f64, f64, f64, f64),
    pupil: (f64, f64),
    mouth: (u8, f64, f64, u32, u32),
    noise: (u8, u32),
}

impl FaceSketch {
    fn draw(&self, frame: &mut GrayFrame) {
        let (cx, cy) = self.centre;
        let r = self.r;
        frame.fill_disk(cx, cy, r, self.face);
        let (dx, dy, size, ratio) = self.eyes;
        for (side, scale) in [(-1.0, 1.0), (1.0, ratio)] {
            let (ex, ey) = (cx + side * dx * r, cy + dy * r);
            let er = (size * r * scale).max(0.6);
            frame.fill_disk(ex, ey, er, EYE_LUMINANCE);
            let (px, py) = self.pupil;
            frame.fill_disk(
                ex + px * er,
                ey + py * er,
                er * PUPIL_RADIUS_FRAC,
                PUPIL_LUMINANCE,
            );
        }
        let (kind, mx, my, mw, mh) = self.mouth;
        let (mx, my) = (cx + mx * r, cy + my * r);
        match kind {
            1 => frame.fill_rect(
                mx as i64 - i64::from(mw / 2),
                my as i64,
                mw,
                mh,
                MOUTH_LUMINANCE,
            ),
            2 => frame.fill_disk(mx, my, f64::from(mh), MOUTH_LUMINANCE),
            _ => {}
        }
        let (amplitude, seed) = self.noise;
        if amplitude > 0 {
            let span = 2 * u32::from(amplitude) + 1;
            frame.mutate(|d| {
                for (i, px) in d.iter_mut().enumerate() {
                    let hash = (i as u32 ^ seed).wrapping_mul(2_654_435_761) >> 8;
                    let n = (hash % span) as i32 - i32::from(amplitude);
                    *px = (i32::from(*px) + n).clamp(0, 255) as u8;
                }
            });
        }
    }
}

/// Faces of radius 2–60 px, possibly hanging off the frame, with eyes,
/// pupils and a mouth placed anywhere on them and noise up to ±40; and
/// the detections to localize in: the detector's own, one jittered in
/// centre, radius and bbox, and one with an integer centre and a radius
/// whose disk edge passes through pixel centres.
fn face_scene() -> impl Strategy<Value = (GrayFrame, Vec<FaceDetection>)> {
    (
        (
            2.0..60.0f64,
            -0.3..1.3f64,
            -0.3..1.3f64,
            0u32..16,
            0u8..150,
            150u8..=255,
        ),
        (0.0..0.8f64, -0.7..0.4f64, 0.05..0.3f64, 0.3..1.6f64),
        (-0.7..0.7f64, -0.7..0.7f64),
        (0u8..3, -0.6..0.6f64, -0.2..0.9f64, 1u32..24, 1u32..8),
        (0u8..=40, 0u32..u32::MAX),
        (-1.5..1.5f64, -1.5..1.5f64, -2.0..2.0f64, -3i64..4, 0u64..64),
    )
        .prop_map(|(place, eyes, pupil, mouth, noise, jitter)| {
            let (r, fx, fy, margin, background, face) = place;
            let side = (2.0 * r).ceil() as u32 + 3 + margin;
            let free = f64::from(side) - 2.0 * r - 2.0;
            let centre = (r + 1.0 + fx * free, r + 1.0 + fy * free);
            let sketch = FaceSketch {
                r,
                centre,
                face,
                eyes,
                pupil,
                mouth,
                noise,
            };
            let mut frame = GrayFrame::new(side, side, background);
            sketch.draw(&mut frame);

            let mut detections = detect_faces(&frame, &DetectorConfig::default());
            let (jx, jy, jr, pad, b) = jitter;
            let radius = (r + jr).max(0.5);
            detections.push(detection_at(
                &frame,
                centre.0 + jx,
                centre.1 + jy,
                radius,
                pad,
            ));
            let a = (0.98 * r).floor().max(1.0) as u64;
            let n = a * a + (b % (a + 1)).pow(2);
            if let Some(radius) = exact_edge_radius(n) {
                let (cx, cy) = (centre.0.round(), centre.1.round());
                detections.push(detection_at(&frame, cx, cy, radius, pad));
            }
            (frame, detections)
        })
}

fn landmark_config() -> impl Strategy<Value = LandmarkConfig> {
    (0u8..=255, 0u8..=255, 0usize..6).prop_map(
        |(feature_threshold, pupil_threshold, min_cluster_area)| LandmarkConfig {
            feature_threshold,
            pupil_threshold,
            min_cluster_area,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_length_landmarks_match_flood_fill(
        (frame, detections) in face_scene(),
        config in landmark_config(),
    ) {
        for det in &detections {
            for config in [LandmarkConfig::default(), config] {
                let [fast, slow] = both_localizers(&frame, det, &config);
                prop_assert_eq!(fast, slow, "{:?} {:?}", det, config);
            }
        }
    }
}

/// `n` hashed pixels.
fn hashed_pixels(n: u32, seed: u32) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_add(seed).wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect()
}

/// Disks whose edge passes exactly through pixel centres, at every
/// squared radius `a² + b²` (`b ≤ a ≤ 40`) that has an exact radius,
/// around a frontal face, with bboxes grown, exact and shrunk; and
/// one-pixel and frame-edge bboxes.
#[test]
fn run_length_landmarks_match_flood_fill_on_exact_edges() {
    let mut exact = 0;
    for a in 1..=40u64 {
        let side = 2 * a as u32 + 9;
        let c = f64::from(side / 2);
        let r = a as f64 / 0.98;
        let mut frame = GrayFrame::new(side, side, 40);
        FaceSketch {
            r,
            centre: (c, c),
            face: 220,
            eyes: (0.35, -0.25, 0.18, 1.0),
            pupil: (0.2, 0.0),
            mouth: (1, 0.0, 0.45, (a as u32).max(2), 2),
            noise: (0, 0),
        }
        .draw(&mut frame);
        for b in 0..=a {
            let Some(radius) = exact_edge_radius(a * a + b * b) else {
                continue;
            };
            exact += 1;
            for pad in [-2, 0, 2] {
                let det = detection_at(&frame, c, c, radius, pad);
                let [fast, slow] = both_localizers(&frame, &det, &LandmarkConfig::default());
                assert_eq!(fast, slow, "n = {a}² + {b}², pad {pad}");
            }
        }
    }
    assert!(exact > 300, "only {exact} exact radii");

    let mut frame = GrayFrame::new(9, 7, 0);
    frame.mutate(|d| d.copy_from_slice(&hashed_pixels(63, 5)));
    for (cx, cy, radius) in [
        (0.0, 0.0, 0.5),
        (4.0, 3.0, 0.2),
        (8.0, 6.0, 9.0),
        (4.5, 3.5, 30.0),
    ] {
        for pad in [-3, 0, 3] {
            let det = detection_at(&frame, cx, cy, radius, pad);
            for feature_threshold in [0, 100, 255] {
                let config = LandmarkConfig {
                    feature_threshold,
                    pupil_threshold: 60,
                    min_cluster_area: 0,
                };
                let [fast, slow] = both_localizers(&frame, &det, &config);
                assert_eq!(fast, slow, "{det:?} {config:?}");
            }
        }
    }
}
