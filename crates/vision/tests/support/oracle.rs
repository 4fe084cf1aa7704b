//! The face detector, the landmark localizer and the recognition
//! embedding as they were before they worked on runs and integer sums:
//! the reference the production kernels must match bit for bit.
//!
//! Written against `dievent_vision`'s public API only, so any test
//! target can include it with `#[path = ".../oracle.rs"] mod oracle;`.

use dievent_geometry::Vec2;
use dievent_video::GrayFrame;
use dievent_vision::{DetectorConfig, FaceDetection, FaceLandmarks, LandmarkConfig};

/// Face detection by iterative flood fill over a one-byte-per-pixel
/// mask, with f64 running sums.
pub fn detect_faces(frame: &GrayFrame, config: &DetectorConfig) -> Vec<FaceDetection> {
    let w = frame.width() as usize;
    let h = frame.height() as usize;
    if w == 0 || h == 0 {
        return Vec::new();
    }
    let data = frame.data();
    // 0 = unvisited background/below threshold, 1 = foreground unvisited,
    // 2 = visited.
    let mut mask: Vec<u8> = data
        .iter()
        .map(|&v| u8::from(v >= config.threshold))
        .collect();

    let mut detections = Vec::new();
    let mut stack: Vec<usize> = Vec::new();

    for start in 0..mask.len() {
        if mask[start] != 1 {
            continue;
        }
        mask[start] = 2;
        stack.push(start);
        let mut area = 0usize;
        let mut sum_x = 0.0f64;
        let mut sum_y = 0.0f64;
        let mut sum_lum = 0.0f64;
        let (mut x0, mut y0, mut x1, mut y1) = (w, h, 0usize, 0usize);

        while let Some(idx) = stack.pop() {
            let x = idx % w;
            let y = idx / w;
            area += 1;
            sum_x += x as f64;
            sum_y += y as f64;
            sum_lum += data[idx] as f64;
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);

            if x > 0 && mask[idx - 1] == 1 {
                mask[idx - 1] = 2;
                stack.push(idx - 1);
            }
            if x + 1 < w && mask[idx + 1] == 1 {
                mask[idx + 1] = 2;
                stack.push(idx + 1);
            }
            if y > 0 && mask[idx - w] == 1 {
                mask[idx - w] = 2;
                stack.push(idx - w);
            }
            if y + 1 < h && mask[idx + w] == 1 {
                mask[idx + w] = 2;
                stack.push(idx + w);
            }
        }

        if area < config.min_area || area > config.max_area {
            continue;
        }
        let bw = (x1 - x0 + 1) as f64;
        let bh = (y1 - y0 + 1) as f64;
        let aspect = bw.max(bh) / bw.min(bh);
        if aspect > config.max_aspect {
            continue;
        }
        let circularity = area as f64 / (std::f64::consts::FRAC_PI_4 * bw * bh);
        if circularity < config.min_circularity {
            continue;
        }

        detections.push(FaceDetection {
            cx: sum_x / area as f64,
            cy: sum_y / area as f64,
            radius: (bw + bh) / 4.0,
            bbox: (x0 as u32, y0 as u32, x1 as u32, y1 as u32),
            area,
            mean_luminance: sum_lum / area as f64,
        });
    }

    detections.sort_by_key(|d| std::cmp::Reverse(d.area));
    detections
}

/// The recognition embedding's values: the detection's mean luminance,
/// then eight ring means over the patch mean, with one `sqrt` and f64
/// add per pixel.
pub fn embed(det: &FaceDetection, patch: &GrayFrame) -> Vec<f64> {
    const PROFILE_BINS: usize = 8;
    let mut v = Vec::with_capacity(1 + PROFILE_BINS);
    v.push(det.mean_luminance);
    let w = patch.width() as f64;
    let h = patch.height() as f64;
    let (cx, cy) = (w / 2.0, h / 2.0);
    let max_r = cx.min(cy);
    let mut sums = [0.0f64; PROFILE_BINS];
    let mut counts = [0usize; PROFILE_BINS];
    for y in 0..patch.height() {
        for x in 0..patch.width() {
            let dx = x as f64 + 0.5 - cx;
            let dy = y as f64 + 0.5 - cy;
            let r = (dx * dx + dy * dy).sqrt() / max_r;
            if r >= 1.0 {
                continue;
            }
            let bin = (r * PROFILE_BINS as f64) as usize;
            sums[bin] += patch.get(x, y) as f64;
            counts[bin] += 1;
        }
    }
    let mean = patch.mean().max(1.0);
    for (s, c) in sums.iter().zip(&counts) {
        v.push(if *c > 0 {
            s / *c as f64 / mean * 10.0
        } else {
            0.0
        });
    }
    v
}

struct Cluster {
    cx: f64,
    cy: f64,
    area: usize,
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
    pupil: Option<(f64, f64)>,
}

impl Cluster {
    fn bbox_radius(&self) -> f64 {
        ((self.x1 - self.x0 + 1) as f64 + (self.y1 - self.y0 + 1) as f64) / 4.0
    }

    fn aspect(&self) -> f64 {
        let w = (self.x1 - self.x0 + 1) as f64;
        let h = (self.y1 - self.y0 + 1) as f64;
        w.max(h) / w.min(h)
    }
}

/// Feature clusters by a per-pixel f64 disk test into a
/// one-byte-per-pixel mask, then iterative flood fill with f64 sums.
fn feature_clusters(frame: &GrayFrame, det: &FaceDetection, cfg: &LandmarkConfig) -> Vec<Cluster> {
    let (bx0, by0, bx1, by1) = det.bbox;
    let w = (bx1 - bx0 + 1) as usize;
    let h = (by1 - by0 + 1) as usize;
    let at = |x: usize, y: usize| frame.get(bx0 + x as u32, by0 + y as u32);

    let r_limit = det.radius * 0.98;
    let r_limit_sq = r_limit * r_limit;
    let mut mask: Vec<u8> = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let fx = (bx0 + x as u32) as f64 - det.cx;
            let fy = (by0 + y as u32) as f64 - det.cy;
            let inside = fx * fx + fy * fy <= r_limit_sq;
            mask.push(u8::from(inside && at(x, y) < cfg.feature_threshold));
        }
    }

    let mut clusters = Vec::new();
    let mut stack = Vec::new();
    for start in 0..mask.len() {
        if mask[start] != 1 {
            continue;
        }
        mask[start] = 2;
        stack.push(start);
        let mut c = Cluster {
            cx: 0.0,
            cy: 0.0,
            area: 0,
            x0: w,
            y0: h,
            x1: 0,
            y1: 0,
            pupil: None,
        };
        let mut pupil_sum = (0.0f64, 0.0f64, 0.0f64); // (x·w, y·w, w)
        while let Some(idx) = stack.pop() {
            let x = idx % w;
            let y = idx / w;
            c.area += 1;
            c.cx += x as f64;
            c.cy += y as f64;
            c.x0 = c.x0.min(x);
            c.x1 = c.x1.max(x);
            c.y0 = c.y0.min(y);
            c.y1 = c.y1.max(y);
            let lum = at(x, y);
            if lum < cfg.pupil_threshold {
                let wgt = (cfg.pupil_threshold - lum) as f64 + 1.0;
                pupil_sum.0 += x as f64 * wgt;
                pupil_sum.1 += y as f64 * wgt;
                pupil_sum.2 += wgt;
            }
            if x > 0 && mask[idx - 1] == 1 {
                mask[idx - 1] = 2;
                stack.push(idx - 1);
            }
            if x + 1 < w && mask[idx + 1] == 1 {
                mask[idx + 1] = 2;
                stack.push(idx + 1);
            }
            if y > 0 && mask[idx - w] == 1 {
                mask[idx - w] = 2;
                stack.push(idx - w);
            }
            if y + 1 < h && mask[idx + w] == 1 {
                mask[idx + w] = 2;
                stack.push(idx + w);
            }
        }
        if c.area < cfg.min_cluster_area {
            continue;
        }
        c.cx = c.cx / c.area as f64 + bx0 as f64;
        c.cy = c.cy / c.area as f64 + by0 as f64;
        if pupil_sum.2 > 0.0 {
            c.pupil = Some((
                pupil_sum.0 / pupil_sum.2 + bx0 as f64,
                pupil_sum.1 / pupil_sum.2 + by0 as f64,
            ));
        }
        c.x0 += bx0 as usize;
        c.x1 += bx0 as usize;
        c.y0 += by0 as usize;
        c.y1 += by0 as usize;
        clusters.push(c);
    }
    clusters
}

/// Eyes, pupils and mouth from the flood-filled clusters. The mouth
/// search leaves out the chosen eye pair by index, as the production
/// kernel does.
pub fn locate_landmarks(
    frame: &GrayFrame,
    det: &FaceDetection,
    cfg: &LandmarkConfig,
) -> Option<FaceLandmarks> {
    let clusters = feature_clusters(frame, det, cfg);
    if clusters.len() < 2 {
        return None;
    }

    let eye_candidates: Vec<usize> = (0..clusters.len())
        .filter(|&k| clusters[k].pupil.is_some() && clusters[k].aspect() < 2.0)
        .collect();

    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..eye_candidates.len() {
        for j in i + 1..eye_candidates.len() {
            let (a, b) = (&clusters[eye_candidates[i]], &clusters[eye_candidates[j]]);
            let dx = (a.cx - b.cx).abs();
            let dy = (a.cy - b.cy).abs();
            if dx < det.radius * 0.2 || dy > dx {
                continue;
            }
            let size_ratio = a.area.max(b.area) as f64 / a.area.min(b.area) as f64;
            if size_ratio > 8.0 {
                continue;
            }
            let score = dy / dx + (size_ratio - 1.0) * 0.1;
            if best.is_none_or(|(_, _, s)| score < s) {
                best = Some((i, j, score));
            }
        }
    }
    let (i, j, _) = best?;
    let (mut left, mut right) = (eye_candidates[i], eye_candidates[j]);
    if clusters[left].cx > clusters[right].cx {
        std::mem::swap(&mut left, &mut right);
    }
    let (le, re) = (&clusters[left], &clusters[right]);

    let eye_radius = (le.bbox_radius() + re.bbox_radius()) / 2.0;
    let eye_mid_y = (le.cy + re.cy) / 2.0;

    let mouth = clusters
        .iter()
        .enumerate()
        .filter(|&(k, c)| k != left && k != right && c.cy > eye_mid_y + eye_radius)
        .max_by_key(|(_, c)| c.area)
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
