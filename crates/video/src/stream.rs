//! Video streams — sequences of timestamped frames.

use crate::frame::{GrayFrame, Timestamp};
use serde::{Deserialize, Serialize};

/// Index of a frame within a video (0-based).
pub type FrameIndex = usize;

/// Static properties of a video stream.
///
/// The paper's acquisition platform records 640×480 at 25 fps (Fig. 2);
/// the §III prototype video has 610 frames over 40 s (≈15.25 fps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VideoSpec {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frames per second.
    pub fps: f64,
}

impl VideoSpec {
    /// The acquisition-platform spec from paper Fig. 2.
    pub fn paper_acquisition() -> Self {
        VideoSpec {
            width: 640,
            height: 480,
            fps: 25.0,
        }
    }

    /// The §III prototype video: 610 frames over 40 seconds.
    pub fn paper_prototype() -> Self {
        VideoSpec {
            width: 640,
            height: 480,
            fps: 610.0 / 40.0,
        }
    }

    /// Timestamp of frame `index`.
    pub fn timestamp_of(&self, index: FrameIndex) -> Timestamp {
        Timestamp::from_secs(index as f64 / self.fps)
    }

    /// Index of the frame covering time `t` (clamped below at 0).
    pub fn frame_at(&self, t: f64) -> FrameIndex {
        (t.max(0.0) * self.fps).floor() as FrameIndex
    }
}

/// A source of sequential video frames.
///
/// Implemented by [`InMemoryVideo`] here and by the synthetic camera
/// streams in `dievent-scene`; consumers (the parser, the feature
/// extractor) are generic over this trait so they run identically on
/// recorded and simulated footage.
pub trait VideoStream {
    /// Stream properties.
    fn spec(&self) -> VideoSpec;

    /// Total number of frames, if known in advance.
    fn len_hint(&self) -> Option<usize>;

    /// Produces the next frame, or `None` at end of stream.
    fn next_frame(&mut self) -> Option<GrayFrame>;
}

/// A video held entirely in memory — the working representation for the
/// 40-second prototype recordings and for all tests.
#[derive(Debug, Clone)]
pub struct InMemoryVideo {
    spec: VideoSpec,
    frames: Vec<GrayFrame>,
    cursor: usize,
}

impl InMemoryVideo {
    /// Wraps frames into a video. Timestamps are (re)assigned from the
    /// spec so that frame `i` is at `i / fps`.
    pub fn new(spec: VideoSpec, mut frames: Vec<GrayFrame>) -> Self {
        for (i, f) in frames.iter_mut().enumerate() {
            f.timestamp = spec.timestamp_of(i);
        }
        InMemoryVideo {
            spec,
            frames,
            cursor: 0,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Returns `true` when the video has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Random access to a frame.
    pub fn frame(&self, index: FrameIndex) -> Option<&GrayFrame> {
        self.frames.get(index)
    }

    /// All frames.
    pub fn frames(&self) -> &[GrayFrame] {
        &self.frames
    }

    /// Duration in seconds (frame count / fps).
    pub fn duration(&self) -> f64 {
        self.frames.len() as f64 / self.spec.fps
    }

    /// Resets the stream cursor to the beginning.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

impl VideoStream for InMemoryVideo {
    fn spec(&self) -> VideoSpec {
        self.spec
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.frames.len().saturating_sub(self.cursor))
    }

    fn next_frame(&mut self) -> Option<GrayFrame> {
        let f = self.frames.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gray(v: u8) -> GrayFrame {
        GrayFrame::new(4, 4, v)
    }

    #[test]
    fn spec_timestamp_round_trip() {
        let spec = VideoSpec::paper_acquisition();
        assert_eq!(spec.fps, 25.0);
        assert!((spec.timestamp_of(25).as_secs() - 1.0).abs() < 1e-12);
        assert_eq!(spec.frame_at(1.0), 25);
        assert_eq!(spec.frame_at(-5.0), 0);
    }

    #[test]
    fn prototype_spec_matches_paper() {
        let spec = VideoSpec::paper_prototype();
        // 610 frames over 40 s.
        assert_eq!(spec.frame_at(40.0 - 1e-9), 609);
        assert!((spec.timestamp_of(610).as_secs() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn in_memory_video_streams_in_order() {
        let spec = VideoSpec {
            width: 4,
            height: 4,
            fps: 10.0,
        };
        let mut v = InMemoryVideo::new(spec, vec![gray(1), gray(2), gray(3)]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.len_hint(), Some(3));
        assert!((v.duration() - 0.3).abs() < 1e-12);
        let a = v.next_frame().unwrap();
        assert_eq!(a.data()[0], 1);
        assert!((a.timestamp.as_secs() - 0.0).abs() < 1e-12);
        let b = v.next_frame().unwrap();
        assert!((b.timestamp.as_secs() - 0.1).abs() < 1e-12);
        assert_eq!(v.len_hint(), Some(1));
        assert!(v.next_frame().is_some());
        assert!(v.next_frame().is_none());
        v.rewind();
        assert_eq!(std::iter::from_fn(|| v.next_frame()).count(), 3);
    }

    #[test]
    fn random_access() {
        let spec = VideoSpec {
            width: 4,
            height: 4,
            fps: 1.0,
        };
        let v = InMemoryVideo::new(spec, vec![gray(9), gray(8)]);
        assert_eq!(v.frame(1).unwrap().data()[0], 8);
        assert!(v.frame(2).is_none());
        assert!(!v.is_empty());
    }
}
