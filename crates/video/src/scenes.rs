//! Scene segmentation (paper §II-B, step 3 of video parsing).
//!
//! A *scene* is a group of temporally adjacent shots that share visual
//! content — e.g. repeated alternation between the two facing cameras of
//! the acquisition rig while the same dinner continues. Shots are merged
//! into scenes with an overlapping-links rule: shots whose signatures
//! match within a lookback window create links, and a scene boundary is
//! placed only where no link crosses.

use crate::diff::histogram_chi_square;
use crate::frame::{Histogram, HISTOGRAM_BINS};
use crate::shots::Shot;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A scene: a contiguous range of shot indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scene {
    /// Index of the first shot (inclusive).
    pub first_shot: usize,
    /// One past the last shot (exclusive).
    pub last_shot: usize,
}

impl Scene {
    /// Number of shots in the scene.
    pub fn shot_count(&self) -> usize {
        self.last_shot.saturating_sub(self.first_shot)
    }

    /// Frame range `[start, end)` covered by the scene, given the shot list.
    pub fn frame_span(&self, shots: &[Shot]) -> (usize, usize) {
        if self.shot_count() == 0 {
            return (0, 0);
        }
        (shots[self.first_shot].start, shots[self.last_shot - 1].end)
    }
}

/// Tuning for scene segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Maximum χ² distance for two shots to be considered visually
    /// coherent (same scene).
    pub coherence_threshold: f64,
    /// How many previous shots of the current scene each new shot is
    /// compared against.
    pub lookback: usize,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            coherence_threshold: 0.35,
            lookback: 3,
        }
    }
}

/// Tracks the growing shot's signature: the histogram of its middle
/// frame, `start + len / 2`.
///
/// The middle only moves forward as the shot grows, so it keeps the
/// pixel counts of the frames from the running middle onward (256 B
/// each); the front is always the middle.
#[derive(Debug, Clone, Default)]
pub(crate) struct MiddleFrame {
    len: usize,
    counts: VecDeque<[u32; HISTOGRAM_BINS]>,
}

impl MiddleFrame {
    /// Takes the shot's next frame's histogram counts.
    pub(crate) fn push(&mut self, counts: [u32; HISTOGRAM_BINS]) {
        self.len += 1;
        self.counts.push_back(counts);
        while self.counts.len() > self.len - self.len / 2 {
            self.counts.pop_front();
        }
    }

    /// Ends the shot: returns the middle frame's counts (`None` for an
    /// empty shot) and starts the next shot empty.
    pub(crate) fn close(&mut self) -> Option<[u32; HISTOGRAM_BINS]> {
        let middle = self.counts.pop_front();
        self.counts.clear();
        self.len = 0;
        middle
    }

    #[cfg(test)]
    pub(crate) fn retained_counts(&self) -> usize {
        self.counts.len()
    }
}

/// Groups consecutive shots, given by their signatures, into scenes
/// with overlapping links.
///
/// Shot `j` *links to* shot `k` (`j < k ≤ j + lookback`) when their
/// signatures are within [`SceneConfig::coherence_threshold`]. A scene
/// boundary falls between shots `m` and `m+1` exactly when no link spans
/// it — so an A-B-A-B camera alternation stays one scene as long as the
/// A shots (and B shots) resemble each other within the lookback window.
///
/// Every shot belongs to exactly one scene; scenes are contiguous and
/// ordered. Empty input produces no scenes.
pub(crate) fn link_scenes(signatures: &[Histogram], config: &SceneConfig) -> Vec<Scene> {
    if signatures.is_empty() {
        return Vec::new();
    }

    // covered[m] == true ⇒ some link spans the boundary between m and m+1.
    let n = signatures.len();
    let mut covered = vec![false; n - 1];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::GrayFrame;

    /// Streams each shot's frames through the parser's signature
    /// tracker, then links the shots into scenes.
    fn segment_scenes(frames: &[GrayFrame], shots: &[Shot], config: &SceneConfig) -> Vec<Scene> {
        let signatures: Vec<Histogram> = shots
            .iter()
            .map(|shot| {
                let mut middle = MiddleFrame::default();
                for frame in &frames[shot.start..shot.end] {
                    middle.push(frame.histogram_counts());
                }
                let counts = middle.close().expect("test shots hold frames");
                let signature = Histogram::from_counts(&counts, frames[0].data().len());
                assert_eq!(
                    signature,
                    frames[shot.middle()].histogram(),
                    "the tracker keeps the middle frame"
                );
                signature
            })
            .collect();
        link_scenes(&signatures, config)
    }

    /// A frame whose luminance spreads ±30 around `v`, so takes with
    /// nearby `v` have overlapping histograms and distant ones do not.
    fn grad(v: u8) -> GrayFrame {
        let mut f = GrayFrame::new(16, 16, 0);
        f.mutate(|d| {
            for (i, px) in d.iter_mut().enumerate() {
                *px = (v as i32 - 30 + (i as i32 % 61)).clamp(0, 255) as u8;
            }
        });
        f
    }

    /// Builds frames for a sequence of (luminance, length) takes and the
    /// corresponding shot list.
    fn build(takes: &[(u8, usize)]) -> (Vec<GrayFrame>, Vec<Shot>) {
        let mut frames = Vec::new();
        let mut shots = Vec::new();
        for &(v, n) in takes {
            let start = frames.len();
            frames.extend((0..n).map(|_| grad(v)));
            shots.push(Shot {
                start,
                end: frames.len(),
            });
        }
        (frames, shots)
    }

    #[test]
    fn empty_input() {
        assert!(segment_scenes(&[], &[], &SceneConfig::default()).is_empty());
    }

    #[test]
    fn alternating_cameras_form_one_scene() {
        // A-B-A-B with identical content per camera: the lookback window
        // links each A-shot to the previous A-shot.
        let (frames, shots) = build(&[(40, 10), (200, 10), (40, 10), (200, 10)]);
        let scenes = segment_scenes(&frames, &shots, &SceneConfig::default());
        assert_eq!(scenes.len(), 1, "scenes = {scenes:?}");
        assert_eq!(
            scenes[0],
            Scene {
                first_shot: 0,
                last_shot: 4
            }
        );
    }

    #[test]
    fn content_change_splits_scenes() {
        // Two dissimilar blocks of shots.
        let (frames, shots) = build(&[(40, 10), (44, 10), (200, 10), (204, 10)]);
        let cfg = SceneConfig {
            coherence_threshold: 0.3,
            lookback: 1,
        };
        let scenes = segment_scenes(&frames, &shots, &cfg);
        assert_eq!(scenes.len(), 2, "scenes = {scenes:?}");
        assert_eq!(scenes[0].shot_count(), 2);
        assert_eq!(scenes[1].shot_count(), 2);
    }

    #[test]
    fn scenes_tile_all_shots() {
        let (frames, shots) = build(&[(40, 5), (130, 5), (40, 5), (220, 5), (40, 5)]);
        let scenes = segment_scenes(&frames, &shots, &SceneConfig::default());
        assert_eq!(scenes[0].first_shot, 0);
        assert_eq!(scenes.last().unwrap().last_shot, shots.len());
        for w in scenes.windows(2) {
            assert_eq!(w[0].last_shot, w[1].first_shot);
        }
    }

    #[test]
    fn frame_span_covers_scene() {
        let (frames, shots) = build(&[(40, 5), (42, 7)]);
        let scenes = segment_scenes(&frames, &shots, &SceneConfig::default());
        assert_eq!(scenes.len(), 1);
        assert_eq!(scenes[0].frame_span(&shots), (0, 12));
    }

    #[test]
    fn single_shot_single_scene() {
        let (frames, shots) = build(&[(50, 8)]);
        let scenes = segment_scenes(&frames, &shots, &SceneConfig::default());
        assert_eq!(
            scenes,
            vec![Scene {
                first_shot: 0,
                last_shot: 1
            }]
        );
        assert_eq!(scenes[0].shot_count(), 1);
    }
}
