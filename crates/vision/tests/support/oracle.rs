//! The face detector and the recognition embedding as they were before
//! they worked on runs and integer sums: the reference the production
//! kernels must match bit for bit.
//!
//! Written against `dievent_vision`'s public API only, so any test
//! target can include it with `#[path = ".../oracle.rs"] mod oracle;`.

use dievent_video::GrayFrame;
use dievent_vision::{DetectorConfig, FaceDetection};

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
