//! Key-frame extraction (paper §II-B, step 2 of video parsing).
//!
//! Each shot is summarized by one or more representative frames. The
//! extractor walks a shot and emits a new key frame whenever the content
//! has drifted far enough (histogram χ²) from the last key frame —
//! a static shot yields a single key frame, a busy one several.

use crate::diff::histogram_chi_square;
use crate::frame::Histogram;
use crate::stream::FrameIndex;
use serde::{Deserialize, Serialize};

/// Tuning for key-frame extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeyframeConfig {
    /// χ² histogram drift from the previous key frame that triggers a new
    /// key frame.
    pub drift_threshold: f64,
    /// Hard cap on key frames per shot (the earliest are kept).
    pub max_per_shot: usize,
}

impl Default for KeyframeConfig {
    fn default() -> Self {
        KeyframeConfig {
            drift_threshold: 0.08,
            max_per_shot: 8,
        }
    }
}

/// Streaming key-frame picker for the shot being parsed.
///
/// The first frame of a shot is always a key frame (unless
/// `max_per_shot` is 0); each later frame becomes one when its χ²
/// histogram drift from the latest key frame exceeds
/// `drift_threshold`, until the shot has `max_per_shot`.
#[derive(Debug, Clone)]
pub(crate) struct KeyframePicker {
    config: KeyframeConfig,
    keys: Vec<FrameIndex>,
    /// Histogram of the latest key frame; `None` before the shot's
    /// first frame.
    reference: Option<Histogram>,
}

impl KeyframePicker {
    pub(crate) fn new(config: KeyframeConfig) -> Self {
        KeyframePicker {
            config,
            keys: Vec::new(),
            reference: None,
        }
    }

    /// Takes the shot's next frame, with its histogram.
    pub(crate) fn push(&mut self, index: FrameIndex, histogram: &Histogram) {
        match &self.reference {
            None => {
                if self.config.max_per_shot > 0 {
                    self.keys.push(index);
                }
                self.reference = Some(histogram.clone());
            }
            Some(reference) => {
                if self.keys.len() < self.config.max_per_shot
                    && histogram_chi_square(reference, histogram) > self.config.drift_threshold
                {
                    self.keys.push(index);
                    self.reference = Some(histogram.clone());
                }
            }
        }
    }

    /// Ends the shot: returns its key frames, ascending, and starts
    /// the next shot empty.
    pub(crate) fn close(&mut self) -> Vec<FrameIndex> {
        self.reference = None;
        std::mem::take(&mut self.keys)
    }

    #[cfg(test)]
    pub(crate) fn retained_keys(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::GrayFrame;
    use crate::shots::Shot;
    use crate::VideoParser;

    fn flat(v: u8) -> GrayFrame {
        GrayFrame::new(16, 16, v)
    }

    /// Streams `shot`'s frames through the parser's key-frame picker.
    fn extract_keyframes(
        frames: &[GrayFrame],
        shot: &Shot,
        config: &KeyframeConfig,
    ) -> Vec<FrameIndex> {
        let mut picker = KeyframePicker::new(*config);
        for (index, frame) in frames.iter().enumerate().take(shot.end).skip(shot.start) {
            picker.push(index, &frame.histogram());
        }
        picker.close()
    }

    #[test]
    fn empty_shot_yields_nothing() {
        let frames = vec![flat(1), flat(2)];
        let shot = Shot { start: 1, end: 1 };
        assert!(extract_keyframes(&frames, &shot, &KeyframeConfig::default()).is_empty());
    }

    #[test]
    fn static_shot_yields_single_keyframe() {
        let frames: Vec<_> = (0..30).map(|_| flat(100)).collect();
        let shot = Shot { start: 0, end: 30 };
        let keys = extract_keyframes(&frames, &shot, &KeyframeConfig::default());
        assert_eq!(keys, vec![0]);
    }

    #[test]
    fn drifting_shot_yields_multiple_keyframes() {
        // Luminance ramps across histogram bins within one shot.
        let frames: Vec<_> = (0..32u8).map(|i| flat(i * 8)).collect();
        let shot = Shot { start: 0, end: 32 };
        let keys = extract_keyframes(&frames, &shot, &KeyframeConfig::default());
        assert!(keys.len() > 1, "keys = {keys:?}");
        assert_eq!(keys[0], 0, "first frame always a key frame");
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn max_per_shot_caps_output() {
        let frames: Vec<_> = (0..64u8).map(|i| flat(i.wrapping_mul(16))).collect();
        let shot = Shot { start: 0, end: 64 };
        let cfg = KeyframeConfig {
            drift_threshold: 0.01,
            max_per_shot: 3,
        };
        let keys = extract_keyframes(&frames, &shot, &cfg);
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn keyframes_stay_inside_shot() {
        let frames: Vec<_> = (0..40u8).map(|i| flat(i * 6)).collect();
        let shot = Shot { start: 10, end: 25 };
        let keys = extract_keyframes(&frames, &shot, &KeyframeConfig::default());
        assert!(keys.iter().all(|&k| shot.contains(k)), "keys = {keys:?}");
        assert_eq!(keys[0], 10);
    }

    /// Streaming takes no shot range to overrun: what a caller can get
    /// wrong is a frame that does not fit the stream, and the parser
    /// refuses it loudly instead of picking key frames from it.
    #[test]
    #[should_panic(expected = "frames must share dimensions")]
    fn out_of_range_shot_panics() {
        let mut parser = VideoParser::default();
        parser.push(&flat(0));
        parser.push(&GrayFrame::new(8, 16, 0));
    }
}
