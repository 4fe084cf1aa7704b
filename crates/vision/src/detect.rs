//! Face detection: thresholding, connected components, circularity.
//!
//! Faces render as bright, roughly circular blobs against darker
//! background, bodies and table (see [`crate::contract`]). Detection:
//!
//! 1. binarize at [`crate::contract::FACE_THRESHOLD`];
//! 2. 4-connected component labelling over each row's foreground runs;
//! 3. filter components by area and by *circularity* — the ratio of the
//!    component area to the area of the circle inscribed in its
//!    bounding box. Merged/occluded double-heads and torso fragments
//!    fail this test and are rejected rather than mis-measured.

use dievent_video::GrayFrame;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A detected face candidate in one frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaceDetection {
    /// Intensity centroid x (pixels, subpixel precision).
    pub cx: f64,
    /// Intensity centroid y (pixels, subpixel precision).
    pub cy: f64,
    /// Apparent radius in pixels, estimated from the bounding box
    /// (robust to interior feature "holes").
    pub radius: f64,
    /// Bounding box `(x0, y0, x1, y1)`, inclusive.
    pub bbox: (u32, u32, u32, u32),
    /// Component area in pixels.
    pub area: usize,
    /// Mean luminance of the component — the identity cue used by
    /// [`crate::recognize`].
    pub mean_luminance: f64,
}

impl FaceDetection {
    /// Bounding-box width in pixels.
    pub fn width(&self) -> u32 {
        self.bbox.2 - self.bbox.0 + 1
    }

    /// Bounding-box height in pixels.
    pub fn height(&self) -> u32 {
        self.bbox.3 - self.bbox.1 + 1
    }
}

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Binarization threshold (luminance).
    pub threshold: u8,
    /// Minimum component area in pixels.
    pub min_area: usize,
    /// Maximum component area in pixels.
    pub max_area: usize,
    /// Minimum circularity: `area / (π/4 · w · h)` of the bounding box,
    /// further penalized for aspect ratios far from 1.
    pub min_circularity: f64,
    /// Maximum bbox aspect ratio (long side / short side).
    pub max_aspect: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            threshold: crate::contract::FACE_THRESHOLD,
            min_area: 40,
            max_area: 40_000,
            min_circularity: 0.72,
            max_aspect: 1.45,
        }
    }
}

/// Detects face candidates in a frame. Results are ordered by descending
/// area (most prominent first); equal areas keep the raster order of
/// their components' first pixels.
///
/// Labels runs, not pixels: each row's foreground runs are found with
/// background skipped 32 bytes at a time, a run joins every run of the
/// row above whose columns it overlaps (union-find), and each component
/// sums its runs' area, coordinates and luminance in integers. Those
/// sums are exact, so they convert to the same f64s a per-pixel f64
/// accumulation produces.
pub fn detect_faces(frame: &GrayFrame, config: &DetectorConfig) -> Vec<FaceDetection> {
    let w = frame.width() as usize;
    if w == 0 || frame.height() == 0 {
        return Vec::new();
    }
    let mut runs = Vec::new();
    // Union-find over run indices. A set's root is its earliest run in
    // raster order, so every entry points at a run no later than itself.
    let mut parent = Vec::new();
    let mut above = 0..0;
    for (y, row) in frame.data().chunks_exact(w).enumerate() {
        let current = runs.len();
        push_runs(row, y, config.threshold, &mut runs);
        parent.extend(current..runs.len());
        join_rows(&runs, above, current..runs.len(), &mut parent);
        above = current..runs.len();
    }

    // Number the components in order of their roots; each entry of
    // `parent` is overwritten with its run's component as it is
    // reached, after the entry it points at.
    let mut components: Vec<Component> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        if parent[i] == i {
            parent[i] = components.len();
            components.push(Component::new(run));
        } else {
            parent[i] = parent[parent[i]];
            components[parent[i]].add(run);
        }
    }

    let mut detections: Vec<FaceDetection> = components
        .iter()
        .filter_map(|c| c.detection(config))
        .collect();
    detections.sort_by_key(|d| std::cmp::Reverse(d.area));
    detections
}

/// Background is skipped this many bytes at a time: a block whose
/// brightest pixel is below the threshold holds no run.
const SKIP: usize = 32;

/// A maximal span `[start, end)` of row `y` at or above the threshold.
struct Run {
    y: usize,
    start: usize,
    end: usize,
    /// Sum of the run's pixel values.
    luminance: u64,
}

/// Appends row `y`'s foreground runs to `runs`.
fn push_runs(row: &[u8], y: usize, threshold: u8, runs: &mut Vec<Run>) {
    let mut x = 0;
    while x < row.len() {
        let (blocks, _) = row[x..].as_chunks::<SKIP>();
        let dark = blocks
            .iter()
            .take_while(|b| b.iter().fold(0, |m, &v| m.max(v)) < threshold)
            .count();
        x += dark * SKIP;
        let Some(offset) = row[x..].iter().position(|&v| v >= threshold) else {
            break;
        };
        let start = x + offset;
        let end = row[start..]
            .iter()
            .position(|&v| v < threshold)
            .map_or(row.len(), |n| start + n);
        let luminance = row[start..end].iter().map(|&v| u64::from(v)).sum();
        runs.push(Run {
            y,
            start,
            end,
            luminance,
        });
        x = end;
    }
}

/// Joins each run of the current row with every run of the row above
/// whose column span it overlaps: 4-connectivity between rows.
fn join_rows(runs: &[Run], above: Range<usize>, current: Range<usize>, parent: &mut [usize]) {
    let (mut a, mut c) = (above.start, current.start);
    while a < above.end && c < current.end {
        let (up, run) = (&runs[a], &runs[c]);
        if up.start < run.end && run.start < up.end {
            let (ra, rc) = (find(parent, a), find(parent, c));
            parent[ra.max(rc)] = ra.min(rc);
        }
        if up.end <= run.end {
            a += 1;
        } else {
            c += 1;
        }
    }
}

/// The root of `i`'s set, halving the path on the way.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// One connected component's running totals.
struct Component {
    area: u64,
    sum_x: u64,
    sum_y: u64,
    luminance: u64,
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
}

impl Component {
    fn new(run: &Run) -> Self {
        let mut c = Component {
            area: 0,
            sum_x: 0,
            sum_y: 0,
            luminance: 0,
            x0: run.start,
            y0: run.y,
            x1: 0,
            y1: 0,
        };
        c.add(run);
        c
    }

    fn add(&mut self, run: &Run) {
        let len = (run.end - run.start) as u64;
        self.area += len;
        // start + … + (end - 1); the product is even.
        self.sum_x += (run.start + run.end - 1) as u64 * len / 2;
        self.sum_y += run.y as u64 * len;
        self.luminance += run.luminance;
        self.x0 = self.x0.min(run.start);
        self.x1 = self.x1.max(run.end - 1);
        self.y0 = self.y0.min(run.y);
        self.y1 = self.y1.max(run.y);
    }

    /// The component as a face, if it passes the area, aspect and
    /// circularity filters.
    fn detection(&self, config: &DetectorConfig) -> Option<FaceDetection> {
        let area = self.area as usize;
        if area < config.min_area || area > config.max_area {
            return None;
        }
        let bw = (self.x1 - self.x0 + 1) as f64;
        let bh = (self.y1 - self.y0 + 1) as f64;
        let aspect = bw.max(bh) / bw.min(bh);
        if aspect > config.max_aspect {
            return None;
        }
        // A filled circle inscribed in its bbox covers π/4 of it; interior
        // feature holes (eyes/mouth) lower that slightly, merged blobs
        // lower it a lot.
        let circularity = area as f64 / (std::f64::consts::FRAC_PI_4 * bw * bh);
        if circularity < config.min_circularity {
            return None;
        }
        Some(FaceDetection {
            cx: self.sum_x as f64 / area as f64,
            cy: self.sum_y as f64 / area as f64,
            radius: (bw + bh) / 4.0,
            bbox: (
                self.x0 as u32,
                self.y0 as u32,
                self.x1 as u32,
                self.y1 as u32,
            ),
            area,
            mean_luminance: self.luminance as f64 / area as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canvas() -> GrayFrame {
        GrayFrame::new(160, 120, 40)
    }

    #[test]
    fn empty_frame_no_detections() {
        let f = canvas();
        assert!(detect_faces(&f, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn single_disk_detected_precisely() {
        let mut f = canvas();
        f.fill_disk(80.0, 60.0, 15.0, 220);
        let det = detect_faces(&f, &DetectorConfig::default());
        assert_eq!(det.len(), 1);
        let d = det[0];
        assert!((d.cx - 80.0).abs() < 0.6, "cx = {}", d.cx);
        assert!((d.cy - 60.0).abs() < 0.6, "cy = {}", d.cy);
        assert!((d.radius - 15.0).abs() < 1.0, "radius = {}", d.radius);
        assert!((d.mean_luminance - 220.0).abs() < 1.0);
    }

    #[test]
    fn disk_with_feature_holes_still_detected() {
        let mut f = canvas();
        f.fill_disk(80.0, 60.0, 16.0, 220);
        // Eyes and mouth.
        f.fill_disk(74.0, 55.0, 3.0, 90);
        f.fill_disk(86.0, 55.0, 3.0, 90);
        f.fill_rect(74, 67, 12, 3, 50);
        let det = detect_faces(&f, &DetectorConfig::default());
        assert_eq!(det.len(), 1);
        assert!(
            (det[0].radius - 16.0).abs() < 1.0,
            "bbox radius unaffected by holes"
        );
    }

    #[test]
    fn multiple_faces_sorted_by_area() {
        let mut f = canvas();
        f.fill_disk(40.0, 40.0, 10.0, 200);
        f.fill_disk(110.0, 70.0, 18.0, 230);
        let det = detect_faces(&f, &DetectorConfig::default());
        assert_eq!(det.len(), 2);
        assert!(det[0].radius > det[1].radius);
        assert!((det[0].cx - 110.0).abs() < 1.0);
    }

    #[test]
    fn small_speckles_rejected() {
        let mut f = canvas();
        f.fill_disk(20.0, 20.0, 2.0, 220);
        assert!(detect_faces(&f, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn elongated_blob_rejected() {
        let mut f = canvas();
        f.fill_rect(30, 50, 60, 14, 220);
        assert!(
            detect_faces(&f, &DetectorConfig::default()).is_empty(),
            "a torso-like bar must not read as a face"
        );
    }

    #[test]
    fn merged_double_head_rejected() {
        let mut f = canvas();
        // Two overlapping disks form a peanut: aspect ~2, fails.
        f.fill_disk(70.0, 60.0, 12.0, 220);
        f.fill_disk(90.0, 60.0, 12.0, 220);
        let det = detect_faces(&f, &DetectorConfig::default());
        assert!(det.is_empty(), "got {det:?}");
    }

    #[test]
    fn touching_image_border_still_works() {
        let mut f = canvas();
        f.fill_disk(0.0, 60.0, 12.0, 220);
        let det = detect_faces(&f, &DetectorConfig::default());
        // Half-disk at the border: aspect 12×24 ≈ 2 → rejected (too
        // truncated to measure reliably). This documents the behaviour.
        assert!(det.is_empty());
        // Fully inside but near the border: fine.
        let mut g = canvas();
        g.fill_disk(13.0, 60.0, 12.0, 220);
        assert_eq!(detect_faces(&g, &DetectorConfig::default()).len(), 1);
    }

    #[test]
    fn threshold_respected() {
        let mut f = canvas();
        f.fill_disk(80.0, 60.0, 12.0, 140); // below default threshold 150
        assert!(detect_faces(&f, &DetectorConfig::default()).is_empty());
        let cfg = DetectorConfig {
            threshold: 130,
            ..DetectorConfig::default()
        };
        assert_eq!(detect_faces(&f, &cfg).len(), 1);
    }

    #[test]
    fn noise_robustness() {
        let mut f = canvas();
        f.fill_disk(80.0, 60.0, 14.0, 220);
        // Deterministic ±6 noise.
        f.mutate(|d| {
            for (i, px) in d.iter_mut().enumerate() {
                let n = ((i as u32).wrapping_mul(2654435761) >> 28) as i32 % 7 - 3;
                *px = (*px as i32 + n).clamp(0, 255) as u8;
            }
        });
        let det = detect_faces(&f, &DetectorConfig::default());
        assert_eq!(det.len(), 1);
        assert!((det[0].cx - 80.0).abs() < 1.0);
    }
}
