//! Facial landmark localization inside a detected face.
//!
//! Within a face's bounding box, *feature* pixels (luminance below
//! [`crate::contract::FEATURE_THRESHOLD`]) inside the face disk are
//! clustered by 4-connected components. Clusters with a pupil and a
//! bbox under 2:1 are eye candidates; the best horizontal pair
//! becomes the eyes, and the largest other cluster below the eye line
//! is the mouth. Pupil centres are intensity-weighted centroids of
//! sub-pupil-threshold pixels inside each eye cluster, giving subpixel
//! precision.
//!
//! The kernel works on runs, not pixels. Each bbox row's span inside
//! the disk is settled by evaluating the disk test near its two ends
//! only; the feature runs inside it are labelled with the detector's
//! run union-find; and each cluster sums its area, coordinates and
//! pupil weights in integers. The sums are exact, so every output is
//! bit-identical to the per-pixel mask and f64 flood fill kept as the
//! test oracle (`tests/support/oracle.rs`).

use crate::contract;
use crate::detect::{Extent, FaceDetection, Run, RunLabeller};
use dievent_geometry::Vec2;
use dievent_video::GrayFrame;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Landmarks of one face, in full-frame pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaceLandmarks {
    /// Left eye centre (image-left).
    pub left_eye: Vec2,
    /// Right eye centre (image-right).
    pub right_eye: Vec2,
    /// Left pupil centre.
    pub left_pupil: Vec2,
    /// Right pupil centre.
    pub right_pupil: Vec2,
    /// Estimated eye radius in pixels.
    pub eye_radius: f64,
    /// Mouth centroid, if found.
    pub mouth: Option<Vec2>,
}

impl FaceLandmarks {
    /// Midpoint between the two eye centres.
    pub fn eye_midpoint(&self) -> Vec2 {
        (self.left_eye + self.right_eye) * 0.5
    }

    /// Mean pupil offset relative to the eye centres, in pixels.
    pub fn mean_pupil_offset(&self) -> Vec2 {
        ((self.left_pupil - self.left_eye) + (self.right_pupil - self.right_eye)) * 0.5
    }

    /// Distance between the eye centres in pixels.
    pub fn interocular(&self) -> f64 {
        self.left_eye.distance(self.right_eye)
    }
}

/// Landmark localizer tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LandmarkConfig {
    /// Feature-pixel threshold.
    pub feature_threshold: u8,
    /// Pupil-pixel threshold.
    pub pupil_threshold: u8,
    /// Minimum feature-cluster area in pixels.
    pub min_cluster_area: usize,
}

impl Default for LandmarkConfig {
    fn default() -> Self {
        LandmarkConfig {
            feature_threshold: contract::FEATURE_THRESHOLD,
            pupil_threshold: contract::PUPIL_THRESHOLD,
            min_cluster_area: 2,
        }
    }
}

/// A feature cluster: its centroid and pupil in frame coordinates, its
/// area and bbox in face-bbox coordinates.
struct Cluster {
    cx: f64,
    cy: f64,
    extent: Extent,
    /// Intensity-weighted pupil centroid, if any sub-pupil pixels exist.
    pupil: Option<(f64, f64)>,
}

impl Cluster {
    fn area(&self) -> u64 {
        self.extent.area
    }

    fn bbox_radius(&self) -> f64 {
        let e = &self.extent;
        ((e.x1 - e.x0 + 1) as f64 + (e.y1 - e.y0 + 1) as f64) / 4.0
    }

    fn aspect(&self) -> f64 {
        let e = &self.extent;
        let w = (e.x1 - e.x0 + 1) as f64;
        let h = (e.y1 - e.y0 + 1) as f64;
        w.max(h) / w.min(h)
    }
}

/// Finds feature clusters inside the face bbox, in the raster order of
/// their first pixels.
fn feature_clusters(frame: &GrayFrame, det: &FaceDetection, cfg: &LandmarkConfig) -> Vec<Cluster> {
    let (bx0, by0, bx1, by1) = det.bbox;
    let w = (bx1 - bx0 + 1) as usize;
    let h = (by1 - by0 + 1) as usize;
    let stride = frame.width() as usize;

    // Feature pixels must be dark AND inside the face disk — the bbox
    // corners contain background, which is also dark.
    let r_limit = det.radius * 0.98;
    let r_limit_sq = r_limit * r_limit;
    let mut labeller = RunLabeller::default();
    for y in 0..h {
        let fy = (by0 + y as u32) as f64 - det.cy;
        let span = disk_span(bx0, w, det.cx, fy * fy, r_limit_sq);
        if !span.is_empty() {
            let row = (by0 as usize + y) * stride + bx0 as usize;
            let pixels = &frame.data()[row + span.start..row + span.end];
            push_feature_runs(pixels, span.start, y, cfg, &mut labeller);
        }
        labeller.end_row();
    }

    labeller
        .components(ClusterSums::add)
        .into_iter()
        .filter(|c| c.extent.area >= cfg.min_cluster_area as u64)
        .map(|c| c.cluster(bx0, by0))
        .collect()
}

/// The bbox columns `[lo, hi)` of a row whose pixels pass the disk test
/// `fx * fx + fy_sq <= limit_sq`, with `fx` the pixel's offset from
/// `cx` and `x0` the bbox's first column.
///
/// Rounding is monotone, so the test's left side never falls as `|fx|`
/// grows and the passing columns form one interval around the column
/// nearest `cx`. Its ends are estimated from the circle and settled by
/// evaluating the test itself, so they agree with a per-pixel test.
fn disk_span(x0: u32, w: usize, cx: f64, fy_sq: f64, limit_sq: f64) -> Range<usize> {
    let inside = |x: usize| {
        let fx = (x0 + x as u32) as f64 - cx;
        fx * fx + fy_sq <= limit_sq
    };
    // A float column, saturated into the bbox (NaN to its first column).
    let column = |v: f64| (v - f64::from(x0)).clamp(0.0, (w - 1) as f64) as usize;
    let nearest = [column(cx.floor()), column(cx.ceil())];
    let Some(&mid) = nearest.iter().find(|&&x| inside(x)) else {
        return 0..0;
    };
    let reach = (limit_sq - fy_sq).max(0.0).sqrt();
    let mut lo = column((cx - reach).ceil()).min(mid);
    if inside(lo) {
        while lo > 0 && inside(lo - 1) {
            lo -= 1;
        }
    } else {
        while !inside(lo) {
            lo += 1;
        }
    }
    let mut hi = column((cx + reach).floor()).max(mid);
    if inside(hi) {
        while hi + 1 < w && inside(hi + 1) {
            hi += 1;
        }
    } else {
        while !inside(hi) {
            hi -= 1;
        }
    }
    lo..hi + 1
}

/// Appends the feature runs of `pixels`, bbox row `y` from column `x`
/// on, to `labeller`: maximal spans below the feature threshold, with
/// their pupil weights.
fn push_feature_runs(
    pixels: &[u8],
    x: usize,
    y: usize,
    cfg: &LandmarkConfig,
    labeller: &mut RunLabeller<PupilSums>,
) {
    let mut at = 0;
    while let Some(offset) = pixels[at..].iter().position(|&v| v < cfg.feature_threshold) {
        let start = at + offset;
        let end = pixels[start..]
            .iter()
            .position(|&v| v >= cfg.feature_threshold)
            .map_or(pixels.len(), |n| start + n);
        let mut pupil = PupilSums::default();
        for (column, &lum) in (x + start..).zip(&pixels[start..end]) {
            if lum < cfg.pupil_threshold {
                // Weight darker pixels more for a subpixel pupil centroid.
                let weight = u64::from(cfg.pupil_threshold - lum) + 1;
                pupil.x += column as u64 * weight;
                pupil.weight += weight;
            }
        }
        labeller.push(Run {
            y,
            start: x + start,
            end: x + end,
            sums: pupil,
        });
        at = end;
    }
}

/// A run's pupil sums: `Σ x·w` and `Σ w` over its sub-pupil pixels.
#[derive(Default)]
struct PupilSums {
    x: u64,
    weight: u64,
}

/// One cluster's totals in bbox coordinates, all integers (every
/// partial sum stays below 2^53 for bboxes up to 16,384 pixels a side).
#[derive(Default)]
struct ClusterSums {
    extent: Extent,
    pupil_x: u64,
    pupil_y: u64,
    pupil_weight: u64,
}

impl ClusterSums {
    fn add(&mut self, run: &Run<PupilSums>) {
        self.extent.add(run);
        self.pupil_x += run.sums.x;
        self.pupil_y += run.y as u64 * run.sums.weight;
        self.pupil_weight += run.sums.weight;
    }

    /// The cluster, its centroids moved to the frame by the bbox's
    /// corner `(bx0, by0)`.
    fn cluster(self, bx0: u32, by0: u32) -> Cluster {
        let area = self.extent.area as f64;
        let weight = self.pupil_weight as f64;
        Cluster {
            cx: self.extent.sum_x as f64 / area + bx0 as f64,
            cy: self.extent.sum_y as f64 / area + by0 as f64,
            pupil: (self.pupil_weight > 0).then(|| {
                (
                    self.pupil_x as f64 / weight + bx0 as f64,
                    self.pupil_y as f64 / weight + by0 as f64,
                )
            }),
            extent: self.extent,
        }
    }
}

/// Locates eyes, pupils and mouth inside a detection.
///
/// Returns `None` when no valid eye pair is visible — a face turned away
/// from the camera, which downstream treats as "position only, no gaze
/// from this view".
pub fn locate_landmarks(
    frame: &GrayFrame,
    det: &FaceDetection,
    cfg: &LandmarkConfig,
) -> Option<FaceLandmarks> {
    let clusters = feature_clusters(frame, det, cfg);
    if clusters.len() < 2 {
        return None;
    }

    // Eye candidates: compact clusters with a detectable pupil.
    let eye_candidates: Vec<usize> = (0..clusters.len())
        .filter(|&k| clusters[k].pupil.is_some() && clusters[k].aspect() < 2.0)
        .collect();

    // Choose the pair that is most horizontal and closest in size.
    let mut best: Option<(usize, usize, f64)> = None;
    for (i, &ci) in eye_candidates.iter().enumerate() {
        for &cj in &eye_candidates[i + 1..] {
            let (a, b) = (&clusters[ci], &clusters[cj]);
            let dx = (a.cx - b.cx).abs();
            let dy = (a.cy - b.cy).abs();
            if dx < det.radius * 0.2 || dy > dx {
                continue; // not a horizontal pair
            }
            // Oblique views foreshorten the far eye much more than the
            // near one (cos ratio up to ~5 at decodable angles), so the
            // size filter only rejects gross mismatches.
            let size_ratio = a.area().max(b.area()) as f64 / a.area().min(b.area()) as f64;
            if size_ratio > 8.0 {
                continue;
            }
            // Score: horizontal, similar size, near the face's upper half.
            let score = dy / dx + (size_ratio - 1.0) * 0.1;
            if best.is_none_or(|(_, _, s)| score < s) {
                best = Some((ci, cj, score));
            }
        }
    }
    let (mut left, mut right, _) = best?;
    if clusters[left].cx > clusters[right].cx {
        std::mem::swap(&mut left, &mut right);
    }
    let (le, re) = (&clusters[left], &clusters[right]);

    let eye_radius = (le.bbox_radius() + re.bbox_radius()) / 2.0;
    let eye_mid_y = (le.cy + re.cy) / 2.0;

    // Mouth: largest cluster below the eye line other than the eyes.
    let mouth = clusters
        .iter()
        .enumerate()
        .filter(|&(k, c)| k != left && k != right && c.cy > eye_mid_y + eye_radius)
        .max_by_key(|(_, c)| c.area())
        .map(|(_, c)| Vec2::new(c.cx, c.cy));

    let (lpx, lpy) = le.pupil?;
    let (rpx, rpy) = re.pupil?;

    Some(FaceLandmarks {
        left_eye: Vec2::new(le.cx, le.cy),
        right_eye: Vec2::new(re.cx, re.cy),
        left_pupil: Vec2::new(lpx, lpy),
        right_pupil: Vec2::new(rpx, rpy),
        eye_radius,
        mouth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_faces, DetectorConfig};

    /// Draws a synthetic frontal face and returns (frame, detection).
    fn face_with(
        eye_dx: f64,
        pupil_shift: (f64, f64),
        with_mouth: bool,
    ) -> (GrayFrame, FaceDetection) {
        let mut f = GrayFrame::new(160, 120, 40);
        let (cx, cy, r) = (80.0, 60.0, 20.0);
        f.fill_disk(cx, cy, r, 220);
        let eye_r = 4.0;
        for side in [-1.0, 1.0] {
            let ex = cx + side * eye_dx;
            let ey = cy - 5.0;
            f.fill_disk(ex, ey, eye_r, contract::EYE_LUMINANCE);
            f.fill_disk(
                ex + pupil_shift.0,
                ey + pupil_shift.1,
                eye_r * contract::PUPIL_RADIUS_FRAC,
                contract::PUPIL_LUMINANCE,
            );
        }
        if with_mouth {
            f.fill_rect(72, 70, 16, 3, contract::MOUTH_LUMINANCE);
        }
        let det = detect_faces(&f, &DetectorConfig::default());
        assert_eq!(det.len(), 1, "fixture face must be detectable");
        (f, det[0])
    }

    #[test]
    fn frontal_face_landmarks_found() {
        let (f, det) = face_with(7.0, (0.0, 0.0), true);
        let lm = locate_landmarks(&f, &det, &LandmarkConfig::default()).unwrap();
        assert!((lm.left_eye.x - 73.0).abs() < 1.0, "{lm:?}");
        assert!((lm.right_eye.x - 87.0).abs() < 1.0);
        assert!((lm.left_eye.y - 55.0).abs() < 1.0);
        assert!(lm.mouth.is_some());
        let m = lm.mouth.unwrap();
        assert!((m.y - 71.0).abs() < 1.5);
        assert!((lm.interocular() - 14.0).abs() < 1.5);
    }

    #[test]
    fn centered_pupils_have_zero_offset() {
        let (f, det) = face_with(7.0, (0.0, 0.0), false);
        let lm = locate_landmarks(&f, &det, &LandmarkConfig::default()).unwrap();
        let off = lm.mean_pupil_offset();
        assert!(off.norm() < 0.6, "offset = {off:?}");
    }

    #[test]
    fn shifted_pupils_measured_with_sign() {
        let (f, det) = face_with(7.0, (1.8, 0.0), false);
        let lm = locate_landmarks(&f, &det, &LandmarkConfig::default()).unwrap();
        let off = lm.mean_pupil_offset();
        assert!(off.x > 0.9, "offset = {off:?}");
        assert!(off.y.abs() < 0.7);

        let (f2, det2) = face_with(7.0, (0.0, -1.5), false);
        let lm2 = locate_landmarks(&f2, &det2, &LandmarkConfig::default()).unwrap();
        assert!(lm2.mean_pupil_offset().y < -0.7);
    }

    #[test]
    fn mouth_centred_under_the_left_eye_is_found() {
        let (mut f, det) = face_with(7.0, (0.0, 0.0), false);
        // Columns 69..=77 centre the mouth on the left eye's x = 73.
        f.fill_rect(69, 70, 9, 3, contract::MOUTH_LUMINANCE);
        let lm = locate_landmarks(&f, &det, &LandmarkConfig::default()).unwrap();
        assert_eq!(lm.left_eye.x, 73.0, "{lm:?}");
        assert_eq!(lm.mouth, Some(Vec2::new(73.0, 71.0)), "{lm:?}");
    }

    #[test]
    fn eyeless_face_yields_none() {
        let mut f = GrayFrame::new(160, 120, 40);
        f.fill_disk(80.0, 60.0, 20.0, 220);
        let det = detect_faces(&f, &DetectorConfig::default());
        assert_eq!(det.len(), 1);
        assert!(locate_landmarks(&f, &det[0], &LandmarkConfig::default()).is_none());
    }

    #[test]
    fn mouth_alone_is_not_an_eye_pair() {
        let mut f = GrayFrame::new(160, 120, 40);
        f.fill_disk(80.0, 60.0, 20.0, 220);
        f.fill_rect(72, 70, 16, 3, contract::MOUTH_LUMINANCE);
        let det = detect_faces(&f, &DetectorConfig::default());
        assert!(locate_landmarks(&f, &det[0], &LandmarkConfig::default()).is_none());
    }

    #[test]
    fn eye_midpoint_tracks_lateral_eye_shift() {
        // Eyes drawn off-centre (turned head): midpoint shifts accordingly.
        let mut f = GrayFrame::new(160, 120, 40);
        let (cx, cy, r) = (80.0, 60.0, 20.0);
        f.fill_disk(cx, cy, r, 220);
        for ex in [cx + 2.0, cx + 14.0] {
            f.fill_disk(ex, cy - 5.0, 4.0, contract::EYE_LUMINANCE);
            f.fill_disk(ex, cy - 5.0, 1.8, contract::PUPIL_LUMINANCE);
        }
        let det = detect_faces(&f, &DetectorConfig::default());
        let lm = locate_landmarks(&f, &det[0], &LandmarkConfig::default()).unwrap();
        assert!(lm.eye_midpoint().x > cx + 5.0, "{:?}", lm.eye_midpoint());
    }
}
