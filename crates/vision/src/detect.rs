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
    let mut labeller = RunLabeller::default();
    for (y, row) in frame.data().chunks_exact(w).enumerate() {
        push_runs(row, y, config.threshold, &mut labeller);
        labeller.end_row();
    }
    let mut detections: Vec<FaceDetection> = labeller
        .components(Component::add)
        .iter()
        .filter_map(|c| c.detection(config))
        .collect();
    detections.sort_by_key(|d| std::cmp::Reverse(d.area));
    detections
}

/// Background is skipped this many bytes at a time: a block whose
/// brightest pixel is below the threshold holds no run.
const SKIP: usize = 32;

/// A maximal span `[start, end)` of row `y`, with the sums `T` its
/// component adds up (for the detector, its pixels' luminance).
pub(crate) struct Run<T> {
    pub(crate) y: usize,
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) sums: T,
}

/// Appends row `y`'s runs at or above the threshold to `labeller`.
fn push_runs(row: &[u8], y: usize, threshold: u8, labeller: &mut RunLabeller<u64>) {
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
        labeller.push(Run {
            y,
            start,
            end,
            sums: luminance,
        });
        x = end;
    }
}

/// 4-connected component labelling over runs, row by row: each run
/// joins every run of the row above whose columns it overlaps, in a
/// union-find over run indices. A set's root is its earliest run in
/// raster order, so every entry points at a run no later than itself,
/// and components come out in the raster order of their first pixels.
#[derive(Default)]
pub(crate) struct RunLabeller<T> {
    runs: Vec<Run<T>>,
    parent: Vec<usize>,
    /// The runs of the last finished row.
    above: Range<usize>,
}

impl<T> RunLabeller<T> {
    /// Adds a run of the current row; a row's runs come left to right.
    pub(crate) fn push(&mut self, run: Run<T>) {
        self.parent.push(self.runs.len());
        self.runs.push(run);
    }

    /// Ends the current row, joining each of its runs with every run of
    /// the row above whose columns it overlaps: 4-connectivity between
    /// rows. A row with no runs ends too, so the next row joins nothing.
    pub(crate) fn end_row(&mut self) {
        let (above, current) = (self.above.clone(), self.above.end..self.runs.len());
        let (mut a, mut c) = (above.start, current.start);
        while a < above.end && c < current.end {
            let (up, run) = (&self.runs[a], &self.runs[c]);
            if up.start < run.end && run.start < up.end {
                let (ra, rc) = (find(&mut self.parent, a), find(&mut self.parent, c));
                self.parent[ra.max(rc)] = ra.min(rc);
            }
            if up.end <= run.end {
                a += 1;
            } else {
                c += 1;
            }
        }
        self.above = current;
    }

    /// Folds each component's runs into a `C`, the components in the
    /// raster order of their first pixels and each one's runs in raster
    /// order.
    pub(crate) fn components<C: Default>(mut self, mut add: impl FnMut(&mut C, &Run<T>)) -> Vec<C> {
        // Each entry of `parent` is overwritten with its run's component
        // as it is reached, after the entry it points at.
        let mut components: Vec<C> = Vec::new();
        for (i, run) in self.runs.iter().enumerate() {
            if self.parent[i] == i {
                self.parent[i] = components.len();
                components.push(C::default());
            } else {
                self.parent[i] = self.parent[self.parent[i]];
            }
            add(&mut components[self.parent[i]], run);
        }
        components
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

/// The area, coordinate sums and bbox of a component's runs. Each sum
/// is an exact integer, so it converts to the f64 a per-pixel f64
/// accumulation gives while that stays below 2^53.
pub(crate) struct Extent {
    pub(crate) area: u64,
    pub(crate) sum_x: u64,
    pub(crate) sum_y: u64,
    pub(crate) x0: usize,
    pub(crate) y0: usize,
    pub(crate) x1: usize,
    pub(crate) y1: usize,
}

impl Default for Extent {
    fn default() -> Self {
        Extent {
            area: 0,
            sum_x: 0,
            sum_y: 0,
            x0: usize::MAX,
            y0: usize::MAX,
            x1: 0,
            y1: 0,
        }
    }
}

impl Extent {
    pub(crate) fn add<T>(&mut self, run: &Run<T>) {
        let len = (run.end - run.start) as u64;
        self.area += len;
        // start + … + (end - 1); the two factors differ in parity, so
        // the product is even.
        self.sum_x += (run.start + run.end - 1) as u64 * len / 2;
        self.sum_y += run.y as u64 * len;
        self.x0 = self.x0.min(run.start);
        self.x1 = self.x1.max(run.end - 1);
        self.y0 = self.y0.min(run.y);
        self.y1 = self.y1.max(run.y);
    }
}

/// One connected component's running totals.
#[derive(Default)]
struct Component {
    extent: Extent,
    luminance: u64,
}

impl Component {
    fn add(&mut self, run: &Run<u64>) {
        self.extent.add(run);
        self.luminance += run.sums;
    }

    /// The component as a face, if it passes the area, aspect and
    /// circularity filters.
    fn detection(&self, config: &DetectorConfig) -> Option<FaceDetection> {
        let e = &self.extent;
        let area = e.area as usize;
        if area < config.min_area || area > config.max_area {
            return None;
        }
        let bw = (e.x1 - e.x0 + 1) as f64;
        let bh = (e.y1 - e.y0 + 1) as f64;
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
            cx: e.sum_x as f64 / area as f64,
            cy: e.sum_y as f64 / area as f64,
            radius: (bw + bh) / 4.0,
            bbox: (e.x0 as u32, e.y0 as u32, e.x1 as u32, e.y1 as u32),
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
