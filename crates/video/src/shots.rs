//! Shot boundary detection (paper §II-B, step 1 of video parsing).
//!
//! A *shot* is an unbroken run of frames from a single camera take.
//! Two boundary types are detected, following the twin-comparison
//! approach standard in the video-indexing literature the paper cites:
//!
//! * **hard cuts** — a single inter-frame distance spike above an
//!   adaptive threshold (local mean + `k`·std over a sliding window);
//! * **gradual transitions** (fades/dissolves) — a run of moderate
//!   distances whose *accumulated* change exceeds the cut threshold.

use crate::frame::Timestamp;
use crate::stream::FrameIndex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How a shot boundary was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionKind {
    /// Abrupt cut between consecutive frames.
    Cut,
    /// Gradual transition (fade/dissolve) spanning several frames.
    Gradual,
}

/// A detected boundary: the first frame of the *new* shot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShotBoundary {
    /// Index of the first frame after the transition.
    pub frame: FrameIndex,
    /// Inter-frame (or accumulated) distance that triggered detection.
    pub score: f64,
    /// Cut or gradual.
    pub kind: TransitionKind,
}

/// A contiguous run of frames `[start, end)` belonging to one take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shot {
    /// First frame (inclusive).
    pub start: FrameIndex,
    /// One past the last frame (exclusive).
    pub end: FrameIndex,
}

impl Shot {
    /// Number of frames in the shot.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` for a degenerate empty shot.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Returns `true` when `frame` belongs to this shot.
    pub fn contains(&self, frame: FrameIndex) -> bool {
        (self.start..self.end).contains(&frame)
    }

    /// The middle frame index of the shot.
    pub fn middle(&self) -> FrameIndex {
        self.start + self.len() / 2
    }

    /// Start/end timestamps given the stream fps.
    pub fn time_span(&self, fps: f64) -> (Timestamp, Timestamp) {
        (
            Timestamp::from_secs(self.start as f64 / fps),
            Timestamp::from_secs(self.end as f64 / fps),
        )
    }
}

/// Tuning parameters for the shot detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShotDetectorConfig {
    /// Absolute floor for the cut threshold: a distance must exceed this
    /// to ever be a boundary, whatever the local statistics say.
    pub min_cut_distance: f64,
    /// Multiplier `k` on the local standard deviation in the adaptive
    /// threshold `μ + k·σ`.
    pub sigma_factor: f64,
    /// Sliding-window length (frames) for local statistics.
    pub window: usize,
    /// Low threshold that starts a candidate gradual transition.
    pub gradual_low: f64,
    /// Accumulated distance needed to confirm a gradual transition.
    pub gradual_accum: f64,
    /// Minimum shot length in frames; boundaries closer than this to the
    /// previous boundary are suppressed (flash/noise rejection).
    pub min_shot_len: usize,
}

impl Default for ShotDetectorConfig {
    fn default() -> Self {
        ShotDetectorConfig {
            min_cut_distance: 0.18,
            sigma_factor: 4.0,
            window: 24,
            gradual_low: 0.06,
            gradual_accum: 0.35,
            min_shot_len: 5,
        }
    }
}

/// Streaming shot-boundary detector over the distances between
/// consecutive frames.
///
/// Every decision looks back only. A cut compares `d[i]` (between
/// frames `i` and `i + 1`) with the statistics of the `window`
/// distances before it; a gradual run accumulates distances above
/// `gradual_low` and is judged at the first distance that falls back
/// below it. Both kinds of boundary therefore land on the frame whose
/// distance completes them, the newest one, so the frames before it
/// are final when it is reported.
#[derive(Debug, Clone)]
pub(crate) struct ShotDetector {
    config: ShotDetectorConfig,
    /// The last `window` distances, oldest first.
    recent: VecDeque<f64>,
    /// The open gradual run: index of its first distance and the sum
    /// of its distances.
    gradual: Option<(usize, f64)>,
    last_boundary: FrameIndex,
    /// Distances taken so far.
    seen: usize,
}

impl ShotDetector {
    pub(crate) fn new(config: ShotDetectorConfig) -> Self {
        ShotDetector {
            config,
            recent: VecDeque::new(),
            gradual: None,
            last_boundary: 0,
            seen: 0,
        }
    }

    /// Takes the distance from the newest frame to its predecessor and
    /// appends the boundaries it completes to `out`. Each lands on the
    /// newest frame; there are two only when a gradual run and a cut
    /// both end there with `min_shot_len` 0.
    pub(crate) fn push(&mut self, dist: f64, out: &mut Vec<ShotBoundary>) {
        let i = self.seen;
        self.seen += 1;
        if let Some((start, accum)) = self.gradual.take() {
            if dist > self.config.gradual_low {
                self.gradual = Some((start, accum + dist));
                self.remember(dist);
                return;
            }
            // The run ends before `d[i]`: its transition completes at
            // frame `i + 1`. `d[i]` itself is examined below.
            let frame = i + 1;
            if accum > self.config.gradual_accum
                && i - start >= 2
                && frame > self.last_boundary
                && frame - self.last_boundary >= self.config.min_shot_len
            {
                out.push(ShotBoundary {
                    frame,
                    score: accum,
                    kind: TransitionKind::Gradual,
                });
                self.last_boundary = frame;
            }
        }
        let local = local_stats(self.recent.make_contiguous());
        let cut_threshold =
            (local.mean + self.config.sigma_factor * local.std).max(self.config.min_cut_distance);
        if dist > cut_threshold {
            let frame = i + 1;
            if frame - self.last_boundary >= self.config.min_shot_len {
                out.push(ShotBoundary {
                    frame,
                    score: dist,
                    kind: TransitionKind::Cut,
                });
                self.last_boundary = frame;
            }
        } else if dist > self.config.gradual_low {
            // Twin comparison: a moderate distance opens a gradual run.
            self.gradual = Some((i, dist));
        }
        self.remember(dist);
    }

    fn remember(&mut self, dist: f64) {
        self.recent.push_back(dist);
        if self.recent.len() > self.config.window {
            self.recent.pop_front();
        }
    }

    #[cfg(test)]
    pub(crate) fn retained_distances(&self) -> usize {
        self.recent.len()
    }
}

struct LocalStats {
    mean: f64,
    std: f64,
}

/// Mean/std of the distances in a window *before* the examined one
/// (causal), so a cut spike does not inflate its own threshold.
fn local_stats(slice: &[f64]) -> LocalStats {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::GrayFrame;
    use crate::{VideoParser, VideoParserConfig, VideoSpec};

    /// Shots and boundaries as the streaming parser detects them.
    fn detect_shots(
        frames: &[GrayFrame],
        config: &ShotDetectorConfig,
    ) -> (Vec<Shot>, Vec<ShotBoundary>) {
        let parser = VideoParser::new(VideoParserConfig {
            shots: *config,
            ..VideoParserConfig::default()
        });
        let spec = VideoSpec {
            width: 32,
            height: 32,
            fps: 25.0,
        };
        let parsed = parser.parse_frames(spec, frames);
        (parsed.shots, parsed.boundaries)
    }

    /// A frame with deterministic texture derived from `content`, plus a
    /// little per-frame jitter to mimic sensor noise. Different `content`
    /// values shift the whole luminance band, so takes differ in both
    /// pixels and histogram — as real camera cuts do.
    fn frame(content: u32, jitter: u32) -> GrayFrame {
        let mut f = GrayFrame::new(32, 32, 0);
        f.mutate(|d| {
            let offset = (content * 37) % 180;
            for (i, px) in d.iter_mut().enumerate() {
                let base = offset + (i as u32 * 29) % 40;
                let n = (i as u32 * 13 + jitter * 7) % 9;
                *px = (base + n).min(255) as u8;
            }
        });
        f
    }

    fn take(content: u32, n: usize, offset: u32) -> Vec<GrayFrame> {
        (0..n).map(|j| frame(content, offset + j as u32)).collect()
    }

    #[test]
    fn empty_and_single_frame() {
        let cfg = ShotDetectorConfig::default();
        let (shots, bounds) = detect_shots(&[], &cfg);
        assert!(shots.is_empty() && bounds.is_empty());
        let (shots, bounds) = detect_shots(&[frame(1, 0)], &cfg);
        assert_eq!(shots, vec![Shot { start: 0, end: 1 }]);
        assert!(bounds.is_empty());
    }

    #[test]
    fn single_take_is_one_shot() {
        let frames = take(5, 40, 0);
        let (shots, bounds) = detect_shots(&frames, &ShotDetectorConfig::default());
        assert_eq!(shots.len(), 1, "boundaries: {bounds:?}");
        assert_eq!(shots[0], Shot { start: 0, end: 40 });
    }

    #[test]
    fn hard_cut_detected_at_exact_frame() {
        let mut frames = take(1, 20, 0);
        frames.extend(take(9, 20, 100));
        let (shots, bounds) = detect_shots(&frames, &ShotDetectorConfig::default());
        assert_eq!(shots.len(), 2, "bounds: {bounds:?}");
        assert_eq!(bounds.len(), 1);
        assert_eq!(bounds[0].frame, 20);
        assert_eq!(bounds[0].kind, TransitionKind::Cut);
        assert_eq!(shots[0], Shot { start: 0, end: 20 });
        assert_eq!(shots[1], Shot { start: 20, end: 40 });
    }

    #[test]
    fn multiple_cuts() {
        let mut frames = take(1, 15, 0);
        frames.extend(take(7, 15, 50));
        frames.extend(take(13, 15, 200));
        let (shots, bounds) = detect_shots(&frames, &ShotDetectorConfig::default());
        assert_eq!(shots.len(), 3, "bounds: {bounds:?}");
        assert_eq!(bounds[0].frame, 15);
        assert_eq!(bounds[1].frame, 30);
    }

    #[test]
    fn shots_partition_the_video() {
        let mut frames = take(1, 12, 0);
        frames.extend(take(3, 18, 40));
        frames.extend(take(5, 9, 90));
        let (shots, _) = detect_shots(&frames, &ShotDetectorConfig::default());
        assert_eq!(shots[0].start, 0);
        assert_eq!(shots.last().unwrap().end, frames.len());
        for w in shots.windows(2) {
            assert_eq!(w[0].end, w[1].start, "shots must tile without gaps");
        }
        let total: usize = shots.iter().map(Shot::len).sum();
        assert_eq!(total, frames.len());
    }

    #[test]
    fn gradual_fade_detected_as_gradual() {
        // Linear dissolve over 8 frames between two very different takes.
        let a = frame(1, 0);
        let b = frame(9, 0);
        let mut frames = take(1, 20, 0);
        for k in 1..8 {
            let t = k as f64 / 8.0;
            let mut mix = GrayFrame::new(32, 32, 0);
            let (da, db) = (a.clone(), b.clone());
            mix.mutate(|d| {
                for (i, px) in d.iter_mut().enumerate() {
                    let v = da.data()[i] as f64 * (1.0 - t) + db.data()[i] as f64 * t;
                    *px = v as u8;
                }
            });
            frames.push(mix);
        }
        frames.extend(take(9, 20, 300));
        let cfg = ShotDetectorConfig::default();
        let (shots, bounds) = detect_shots(&frames, &cfg);
        assert!(
            bounds.iter().any(|b| b.kind == TransitionKind::Gradual),
            "expected a gradual boundary, got {bounds:?}"
        );
        assert!(shots.len() >= 2);
    }

    #[test]
    fn min_shot_len_suppresses_flash() {
        // One-frame white flash inside a steady take must not split it
        // into a 1-frame shot.
        let mut frames = take(2, 15, 0);
        frames.push(GrayFrame::new(32, 32, 255));
        frames.extend(take(2, 15, 15));
        let cfg = ShotDetectorConfig::default();
        let (shots, _) = detect_shots(&frames, &cfg);
        for s in &shots {
            assert!(
                s.len() >= cfg.min_shot_len || shots.len() == 1,
                "short shot {s:?}"
            );
        }
    }

    /// With `min_shot_len` 0, a gradual run and a cut can complete on
    /// the same frame: the run is judged at the distance that ends it,
    /// which is then examined as a cut candidate too.
    #[test]
    fn gradual_run_and_cut_can_end_on_one_frame() {
        let mut detector = ShotDetector::new(ShotDetectorConfig {
            min_cut_distance: 0.01,
            sigma_factor: 0.0,
            window: 3,
            gradual_low: 0.3,
            gradual_accum: 0.5,
            min_shot_len: 0,
        });
        let mut out = Vec::new();
        for d in [0.9, 0.0, 0.4, 0.4, 0.28] {
            detector.push(d, &mut out);
        }
        let found: Vec<(FrameIndex, TransitionKind)> =
            out.iter().map(|b| (b.frame, b.kind)).collect();
        assert_eq!(
            found,
            [
                (1, TransitionKind::Cut),
                (5, TransitionKind::Gradual),
                (5, TransitionKind::Cut)
            ]
        );
        assert!(detector.retained_distances() <= 3);
    }

    #[test]
    fn shot_helpers() {
        let s = Shot { start: 10, end: 20 };
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert!(s.contains(10) && s.contains(19) && !s.contains(20));
        assert_eq!(s.middle(), 15);
        let (t0, t1) = s.time_span(25.0);
        assert!((t0.as_secs() - 0.4).abs() < 1e-12);
        assert!((t1.as_secs() - 0.8).abs() < 1e-12);
    }
}
