//! The batch video parser and the frame kernels as they were before
//! parsing streamed and before the crop, resize and downsample kernels
//! worked on row slices: the reference the streaming `VideoParser` and
//! the kernels' fast paths must match bit for bit.
//!
//! Written against `dievent_video`'s public API only, so any test
//! target can include it with `#[path = ".../oracle.rs"] mod oracle;`.

use dievent_video::{
    histogram_chi_square, GrayFrame, Histogram, Scene, SceneConfig, Shot, ShotBoundary,
    ShotDetectorConfig, TransitionKind, VideoParserConfig, VideoSpec, VideoStructure,
    HISTOGRAM_BINS,
};

/// Normalized luminance histogram, one float increment per pixel.
pub fn histogram(frame: &GrayFrame) -> Histogram {
    let mut bins = [0.0f64; HISTOGRAM_BINS];
    let scale = HISTOGRAM_BINS as f64 / 256.0;
    for &v in frame.data() {
        bins[(v as f64 * scale) as usize % HISTOGRAM_BINS] += 1.0;
    }
    let total = frame.data().len().max(1) as f64;
    for b in &mut bins {
        *b /= total;
    }
    Histogram { bins }
}

/// Sobel edge map with a clamped read for every tap.
pub fn edge_map(frame: &GrayFrame, threshold: u16) -> Vec<bool> {
    let w = frame.width() as i64;
    let h = frame.height() as i64;
    let mut out = vec![false; (frame.width() * frame.height()) as usize];
    for y in 0..h {
        for x in 0..w {
            let p = |dx: i64, dy: i64| frame.get_clamped(x + dx, y + dy) as i32;
            let gx = -p(-1, -1) - 2 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2 * p(1, 0) + p(1, 1);
            let gy = -p(-1, -1) - 2 * p(0, -1) - p(1, -1) + p(-1, 1) + 2 * p(0, 1) + p(1, 1);
            let mag = (gx.unsigned_abs() + gy.unsigned_abs()) as u16;
            out[(y * w + x) as usize] = mag > threshold;
        }
    }
    out
}

/// Mean absolute pixel difference, one widened term per pixel.
pub fn pixel_mad(a: &GrayFrame, b: &GrayFrame) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "frames must share dimensions"
    );
    if a.data().is_empty() {
        return 0.0;
    }
    let sum: u64 = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| (x as i16 - y as i16).unsigned_abs() as u64)
        .sum();
    sum as f64 / (a.data().len() as f64 * 255.0)
}

/// Edge change ratio over unpacked edge maps.
pub fn edge_change_ratio(a: &GrayFrame, b: &GrayFrame, edge_threshold: u16) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "frames must share dimensions"
    );
    let ea = edge_map(a, edge_threshold);
    let eb = edge_map(b, edge_threshold);
    let count_a = ea.iter().filter(|&&e| e).count();
    let count_b = eb.iter().filter(|&&e| e).count();
    if count_a == 0 && count_b == 0 {
        return 0.0;
    }
    let exiting = ea.iter().zip(eb.iter()).filter(|&(&x, &y)| x && !y).count();
    let entering = ea.iter().zip(eb.iter()).filter(|&(&x, &y)| !x && y).count();
    let out_ratio = if count_a > 0 {
        exiting as f64 / count_a as f64
    } else {
        1.0
    };
    let in_ratio = if count_b > 0 {
        entering as f64 / count_b as f64
    } else {
        1.0
    };
    out_ratio.max(in_ratio)
}

/// The shot detector's blended distance, from the kernels above.
pub fn frame_distance(a: &GrayFrame, b: &GrayFrame) -> f64 {
    let chi = histogram_chi_square(&histogram(a), &histogram(b)) / 2.0;
    let mad = pixel_mad(a, b);
    let ecr = edge_change_ratio(a, b, 150);
    0.5 * chi + 0.3 * mad + 0.2 * ecr
}

struct LocalStats {
    mean: f64,
    std: f64,
}

fn local_stats(d: &[f64], i: usize, window: usize) -> LocalStats {
    let lo = i.saturating_sub(window);
    let slice = &d[lo..i];
    if slice.is_empty() {
        return LocalStats {
            mean: 0.0,
            std: 0.0,
        };
    }
    let mean = slice.iter().sum::<f64>() / slice.len() as f64;
    let var = slice.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / slice.len() as f64;
    LocalStats {
        mean,
        std: var.sqrt(),
    }
}

/// Batch shot detection over the whole distance series.
pub fn detect_shots(
    frames: &[GrayFrame],
    config: &ShotDetectorConfig,
) -> (Vec<Shot>, Vec<ShotBoundary>) {
    if frames.is_empty() {
        return (Vec::new(), Vec::new());
    }
    if frames.len() == 1 {
        return (vec![Shot { start: 0, end: 1 }], Vec::new());
    }

    let d: Vec<f64> = frames
        .windows(2)
        .map(|w| frame_distance(&w[0], &w[1]))
        .collect();

    let mut boundaries = Vec::new();
    let mut last_boundary = 0usize;

    let mut i = 0;
    while i < d.len() {
        let dist = d[i];
        let boundary_frame = i + 1;
        let local = local_stats(&d, i, config.window);
        let cut_threshold =
            (local.mean + config.sigma_factor * local.std).max(config.min_cut_distance);

        if dist > cut_threshold {
            if boundary_frame - last_boundary >= config.min_shot_len {
                boundaries.push(ShotBoundary {
                    frame: boundary_frame,
                    score: dist,
                    kind: TransitionKind::Cut,
                });
                last_boundary = boundary_frame;
            }
            i += 1;
            continue;
        }

        if dist > config.gradual_low {
            let start = i;
            let mut accum = 0.0;
            let mut j = i;
            while j < d.len() && d[j] > config.gradual_low {
                accum += d[j];
                j += 1;
            }
            let end_frame = j;
            if accum > config.gradual_accum
                && end_frame.saturating_sub(start) >= 2
                && end_frame + 1 > last_boundary
                && (end_frame + 1) - last_boundary >= config.min_shot_len
            {
                boundaries.push(ShotBoundary {
                    frame: end_frame + 1,
                    score: accum,
                    kind: TransitionKind::Gradual,
                });
                last_boundary = end_frame + 1;
            }
            i = j.max(i + 1);
            continue;
        }

        i += 1;
    }

    boundaries.retain(|b| b.frame < frames.len());

    let mut shots = Vec::with_capacity(boundaries.len() + 1);
    let mut start = 0;
    for b in &boundaries {
        shots.push(Shot {
            start,
            end: b.frame,
        });
        start = b.frame;
    }
    shots.push(Shot {
        start,
        end: frames.len(),
    });

    (shots, boundaries)
}

/// Batch key-frame extraction for one shot.
#[allow(clippy::needless_range_loop)]
pub fn extract_keyframes(
    frames: &[GrayFrame],
    shot: &Shot,
    config: &dievent_video::KeyframeConfig,
) -> Vec<usize> {
    assert!(shot.end <= frames.len(), "shot {shot:?} out of range");
    if shot.is_empty() || config.max_per_shot == 0 {
        return Vec::new();
    }
    let mut keys = vec![shot.start];
    let mut last_hist = histogram(&frames[shot.start]);
    for idx in shot.start + 1..shot.end {
        if keys.len() >= config.max_per_shot {
            break;
        }
        let h = histogram(&frames[idx]);
        if histogram_chi_square(&last_hist, &h) > config.drift_threshold {
            keys.push(idx);
            last_hist = h;
        }
    }
    keys
}

/// Batch scene segmentation from each shot's middle frame.
pub fn segment_scenes(frames: &[GrayFrame], shots: &[Shot], config: &SceneConfig) -> Vec<Scene> {
    if shots.is_empty() {
        return Vec::new();
    }
    let signatures: Vec<Histogram> = shots
        .iter()
        .map(|s| {
            frames
                .get(s.middle())
                .map(histogram)
                .unwrap_or_else(Histogram::zeroed)
        })
        .collect();

    let n = shots.len();
    let mut covered = vec![false; n.saturating_sub(1)];
    for j in 0..n {
        let hi = (j + config.lookback).min(n - 1);
        for k in j + 1..=hi {
            if histogram_chi_square(&signatures[j], &signatures[k]) <= config.coherence_threshold {
                for c in &mut covered[j..k] {
                    *c = true;
                }
            }
        }
    }

    let mut scenes = Vec::new();
    let mut scene_start = 0usize;
    for (m, &cov) in covered.iter().enumerate() {
        if !cov {
            scenes.push(Scene {
                first_shot: scene_start,
                last_shot: m + 1,
            });
            scene_start = m + 1;
        }
    }
    scenes.push(Scene {
        first_shot: scene_start,
        last_shot: n,
    });
    scenes
}

/// The batch `VideoParser::parse_frames`.
pub fn parse(config: &VideoParserConfig, spec: VideoSpec, frames: &[GrayFrame]) -> VideoStructure {
    let (shots, boundaries) = detect_shots(frames, &config.shots);
    let keyframes = shots
        .iter()
        .map(|s| extract_keyframes(frames, s, &config.keyframes))
        .collect();
    let scenes = segment_scenes(frames, &shots, &config.scenes);
    VideoStructure {
        spec,
        frame_count: frames.len(),
        scenes,
        shots,
        boundaries,
        keyframes,
    }
}

/// 2× box-filter downsample with a clamped read for every tap.
pub fn downsample2(frame: &GrayFrame) -> GrayFrame {
    let (fw, fh) = (frame.width(), frame.height());
    let w = (fw / 2).max(1);
    let h = (fh / 2).max(1);
    let mut out = vec![0u8; (w * h) as usize];
    for y in 0..h {
        for x in 0..w {
            let sx = (x * 2).min(fw - 1);
            let sy = (y * 2).min(fh - 1);
            let a = frame.get(sx, sy) as u16;
            let b = frame.get((sx + 1).min(fw - 1), sy) as u16;
            let c = frame.get(sx, (sy + 1).min(fh - 1)) as u16;
            let d2 = frame.get((sx + 1).min(fw - 1), (sy + 1).min(fh - 1)) as u16;
            out[(y * w + x) as usize] = ((a + b + c + d2) / 4) as u8;
        }
    }
    GrayFrame::from_data(w, h, out).with_timestamp(frame.timestamp)
}

/// Rectangular crop, one clamped read per output pixel.
pub fn patch(frame: &GrayFrame, x0: i64, y0: i64, w: u32, h: u32) -> GrayFrame {
    let mut out = vec![0u8; (w * h) as usize];
    for y in 0..h {
        for x in 0..w {
            out[(y * w + x) as usize] = frame.get_clamped(x0 + x as i64, y0 + y as i64);
        }
    }
    GrayFrame::from_data(w, h, out).with_timestamp(frame.timestamp)
}

/// Bilinear resize: per output pixel, two `floor`s, four clamped reads
/// and a `round`.
pub fn resize(frame: &GrayFrame, w: u32, h: u32) -> GrayFrame {
    assert!(w > 0 && h > 0, "target dimensions must be non-zero");
    let sx = frame.width() as f64 / w as f64;
    let sy = frame.height() as f64 / h as f64;
    let mut out = Vec::with_capacity((w * h) as usize);
    for y in 0..h {
        let fy = (y as f64 + 0.5) * sy - 0.5;
        let y0 = fy.floor();
        let ty = fy - y0;
        for x in 0..w {
            let fx = (x as f64 + 0.5) * sx - 0.5;
            let x0 = fx.floor();
            let tx = fx - x0;
            let p = |dx: i64, dy: i64| frame.get_clamped(x0 as i64 + dx, y0 as i64 + dy) as f64;
            let top = p(0, 0) * (1.0 - tx) + p(1, 0) * tx;
            let bot = p(0, 1) * (1.0 - tx) + p(1, 1) * tx;
            out.push((top * (1.0 - ty) + bot * ty).round().clamp(0.0, 255.0) as u8);
        }
    }
    GrayFrame::from_data(w, h, out).with_timestamp(frame.timestamp)
}
