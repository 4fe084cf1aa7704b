//! Property-based tests for the vision substrate.

#[path = "support/oracle.rs"]
mod oracle;

#[allow(dead_code)]
#[path = "../../video/tests/support/oracle.rs"]
mod video_oracle;

use dievent_video::GrayFrame;
use dievent_vision::hungarian::assignment_cost;
use dievent_vision::recognize::{embed, Embedding};
use dievent_vision::{detect_faces, hungarian_min_assignment, DetectorConfig, FaceDetection};
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

/// Frames from 1×1 to 47×47 with independent random pixels.
fn noise_frame() -> impl Strategy<Value = GrayFrame> {
    (
        1u32..48,
        1u32..48,
        proptest::collection::vec(0u8..=255, 47 * 47),
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
