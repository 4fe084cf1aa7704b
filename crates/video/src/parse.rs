//! End-to-end video parsing — the Fig. 3 hierarchy.
//!
//! Combines shot boundary detection, key-frame extraction and scene
//! segmentation into a single streaming [`VideoParser`] producing a
//! [`VideoStructure`]: `video → scenes → shots → key frames`.

use crate::diff::{feature_distance, FrameFeatures};
use crate::frame::{GrayFrame, Histogram, HISTOGRAM_BINS};
use crate::keyframes::{KeyframeConfig, KeyframePicker};
use crate::scenes::{link_scenes, MiddleFrame, Scene, SceneConfig};
use crate::shots::{Shot, ShotBoundary, ShotDetector, ShotDetectorConfig};
use crate::stream::{FrameIndex, VideoSpec, VideoStream};
use dievent_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Histogram of each [`VideoParser::push`]'s wall time, in seconds.
const PUSH_SECONDS: &str = "video.push_seconds";

/// Configuration for the full parsing pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VideoParserConfig {
    /// Shot boundary detection parameters.
    pub shots: ShotDetectorConfig,
    /// Key-frame extraction parameters.
    pub keyframes: KeyframeConfig,
    /// Scene segmentation parameters.
    pub scenes: SceneConfig,
}

/// The parsed structure of a video (paper Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoStructure {
    /// Stream properties of the parsed video.
    pub spec: VideoSpec,
    /// Total number of frames parsed.
    pub frame_count: usize,
    /// Detected scenes (ranges of shot indices).
    pub scenes: Vec<Scene>,
    /// Detected shots (ranges of frame indices).
    pub shots: Vec<Shot>,
    /// Detected boundaries between shots.
    pub boundaries: Vec<ShotBoundary>,
    /// Key frames per shot: `keyframes[s]` are global frame indices for
    /// shot `s`.
    pub keyframes: Vec<Vec<FrameIndex>>,
}

impl VideoStructure {
    /// All key-frame indices across the video, ascending.
    pub fn all_keyframes(&self) -> Vec<FrameIndex> {
        let mut all: Vec<FrameIndex> = self.keyframes.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Index of the shot containing `frame`, if any.
    pub fn shot_of_frame(&self, frame: FrameIndex) -> Option<usize> {
        // Shots are sorted and tile the video: binary search on start.
        let idx = self.shots.partition_point(|s| s.start <= frame);
        idx.checked_sub(1)
            .filter(|&i| self.shots[i].contains(frame))
    }

    /// Index of the scene containing `frame`, if any.
    pub fn scene_of_frame(&self, frame: FrameIndex) -> Option<usize> {
        let shot = self.shot_of_frame(frame)?;
        self.scenes
            .iter()
            .position(|sc| (sc.first_shot..sc.last_shot).contains(&shot))
    }

    /// Human-readable outline of the hierarchy, one line per node.
    pub fn outline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "video: {} frames @ {:.2} fps ({:.1}s)",
            self.frame_count,
            self.spec.fps,
            self.frame_count as f64 / self.spec.fps
        );
        for (si, scene) in self.scenes.iter().enumerate() {
            let (f0, f1) = scene.frame_span(&self.shots);
            let _ = writeln!(
                out,
                "  scene {si}: shots {}..{} (frames {f0}..{f1})",
                scene.first_shot, scene.last_shot
            );
            for s in scene.first_shot..scene.last_shot {
                let shot = &self.shots[s];
                let _ = writeln!(
                    out,
                    "    shot {s}: frames {}..{} keyframes {:?}",
                    shot.start, shot.end, self.keyframes[s]
                );
            }
        }
        out
    }
}

/// Parses a video into the Fig. 3 hierarchy, one frame at a time.
///
/// [`push`](Self::push) computes each frame's histogram and edge map
/// once and compares them with the previous frame's. Shot boundaries
/// and key frames are settled as frames arrive, because every decision
/// looks back only; [`finish`](Self::finish) closes the last shot and
/// links the shots into scenes. Between frames the parser keeps the
/// previous frame and its features, at most `window` trailing
/// distances, the open gradual run, and the current shot's key frames
/// and histogram counts from its running middle onward. It allocates
/// nothing before its first frame.
///
/// [`parse_frames`](Self::parse_frames) and
/// [`parse_stream`](Self::parse_stream) run a fresh parser with the
/// same configuration and telemetry over a whole video.
#[derive(Debug, Clone)]
pub struct VideoParser {
    config: VideoParserConfig,
    telemetry: Telemetry,
    /// `video.push_seconds`: wall time of each [`push`](Self::push).
    push_seconds: dievent_telemetry::Histogram,
    frames: usize,
    /// The newest frame and its features.
    previous: Option<(GrayFrame, FrameFeatures)>,
    detector: ShotDetector,
    /// Start of the shot being parsed.
    shot_start: FrameIndex,
    keyframes: KeyframePicker,
    middle: MiddleFrame,
    /// Closed shots, their boundaries, key frames and signatures.
    shots: Vec<Shot>,
    boundaries: Vec<ShotBoundary>,
    shot_keyframes: Vec<Vec<FrameIndex>>,
    signatures: Vec<Histogram>,
}

impl Default for VideoParser {
    fn default() -> Self {
        VideoParser::new(VideoParserConfig::default())
    }
}

impl VideoParser {
    /// Creates a parser with the given configuration.
    pub fn new(config: VideoParserConfig) -> Self {
        VideoParser {
            config,
            telemetry: Telemetry::disabled(),
            push_seconds: Telemetry::disabled().histogram(PUSH_SECONDS),
            frames: 0,
            previous: None,
            detector: ShotDetector::new(config.shots),
            shot_start: 0,
            keyframes: KeyframePicker::new(config.keyframes),
            middle: MiddleFrame::default(),
            shots: Vec::new(),
            boundaries: Vec::new(),
            shot_keyframes: Vec::new(),
            signatures: Vec::new(),
        }
    }

    /// Attaches the parser to a telemetry domain: each
    /// [`push`](Self::push) records its time in the
    /// `video.push_seconds` histogram, and [`finish`](Self::finish)
    /// records a `video.finish` span plus `shots_detected` /
    /// `keyframes_extracted` / `scenes_segmented` counters.
    /// [`parse_frames`](Self::parse_frames) and
    /// [`parse_stream`](Self::parse_stream) add a `video.parse` span
    /// around the whole parse.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.push_seconds = telemetry.histogram(PUSH_SECONDS);
        self.telemetry = telemetry;
        self
    }

    /// A parser with this one's configuration and telemetry and no
    /// frames.
    fn fresh(&self) -> VideoParser {
        VideoParser {
            telemetry: self.telemetry.clone(),
            push_seconds: self.push_seconds.clone(),
            ..VideoParser::new(self.config)
        }
    }

    /// Frames pushed so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Width and height of the frames pushed so far (`None` before the
    /// first).
    pub fn frame_size(&self) -> Option<(u32, u32)> {
        self.previous
            .as_ref()
            .map(|(frame, _)| (frame.width(), frame.height()))
    }

    /// Takes the video's next frame.
    ///
    /// # Panics
    /// Panics when the frame's size differs from the frames before it.
    pub fn push(&mut self, frame: &GrayFrame) {
        let started = Instant::now();
        let index = self.frames;
        let counts = frame.histogram_counts();
        let features = FrameFeatures::new(frame, &counts);
        if let Some((previous, previous_features)) = &self.previous {
            let dist = feature_distance(previous, previous_features, frame, &features);
            let closed = self.boundaries.len();
            self.detector.push(dist, &mut self.boundaries);
            // Every new boundary lands on this frame: close the shot
            // before it. A second one closes an empty shot, whose
            // middle frame is this one.
            for _ in closed..self.boundaries.len() {
                let middle = self.middle.close();
                self.close_shot(
                    index,
                    middle.as_ref().unwrap_or(&counts),
                    frame.data().len(),
                );
            }
        }
        self.keyframes.push(index, &features.histogram);
        self.middle.push(counts);
        self.previous = Some((frame.clone(), features));
        self.frames += 1;
        self.push_seconds.observe_duration(started.elapsed());
    }

    /// Closes the shot being parsed at `end`, with its middle frame's
    /// histogram counts.
    fn close_shot(&mut self, end: FrameIndex, middle: &[u32; HISTOGRAM_BINS], pixels: usize) {
        self.shots.push(Shot {
            start: self.shot_start,
            end,
        });
        self.shot_keyframes.push(self.keyframes.close());
        self.signatures.push(Histogram::from_counts(middle, pixels));
        self.shot_start = end;
    }

    /// Ends the video: closes the last shot, links the shots into
    /// scenes and returns the hierarchy, labelled with `spec`.
    pub fn finish(mut self, spec: VideoSpec) -> VideoStructure {
        let mut span = self.telemetry.span("video.finish");
        span.set("frames", self.frames);
        if let Some((last, _)) = self.previous.take() {
            // The last shot holds at least the last frame.
            if let Some(middle) = self.middle.close() {
                self.close_shot(self.frames, &middle, last.data().len());
            }
        }
        let scenes = link_scenes(&self.signatures, &self.config.scenes);
        self.telemetry
            .counter("shots_detected")
            .add(self.shots.len() as u64);
        self.telemetry
            .counter("keyframes_extracted")
            .add(self.shot_keyframes.iter().map(Vec::len).sum::<usize>() as u64);
        self.telemetry
            .counter("scenes_segmented")
            .add(scenes.len() as u64);
        VideoStructure {
            spec,
            frame_count: self.frames,
            scenes,
            shots: self.shots,
            boundaries: self.boundaries,
            keyframes: self.shot_keyframes,
        }
    }

    /// Parses frames that are already in memory, as a video of their
    /// own: frames pushed to this parser do not take part.
    pub fn parse_frames(&self, spec: VideoSpec, frames: &[GrayFrame]) -> VideoStructure {
        let mut span = self.telemetry.span("video.parse");
        span.set("frames", frames.len());
        let mut parser = self.fresh();
        for frame in frames {
            parser.push(frame);
        }
        parser.finish(spec)
    }

    /// Parses a [`VideoStream`] frame by frame, as a video of its own,
    /// without collecting it.
    pub fn parse_stream<S: VideoStream>(&self, stream: &mut S) -> VideoStructure {
        let mut span = self.telemetry.span("video.parse");
        let mut parser = self.fresh();
        while let Some(frame) = stream.next_frame() {
            parser.push(&frame);
        }
        span.set("frames", parser.frames);
        parser.finish(stream.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::InMemoryVideo;

    fn textured(content: u32, jitter: u32) -> GrayFrame {
        let mut f = GrayFrame::new(32, 32, 0);
        f.mutate(|d| {
            let offset = (content * 37) % 180;
            for (i, px) in d.iter_mut().enumerate() {
                let base = offset + (i as u32 * 29) % 40;
                *px = (base + (i as u32 * 13 + jitter) % 9).min(255) as u8;
            }
        });
        f
    }

    fn three_take_video() -> (VideoSpec, Vec<GrayFrame>) {
        let spec = VideoSpec {
            width: 32,
            height: 32,
            fps: 25.0,
        };
        let mut frames = Vec::new();
        for (content, n) in [(1u32, 20usize), (9, 20), (17, 20)] {
            for j in 0..n {
                frames.push(textured(content, j as u32));
            }
        }
        (spec, frames)
    }

    #[test]
    fn hierarchy_is_consistent() {
        let (spec, frames) = three_take_video();
        let s = VideoParser::default().parse_frames(spec, &frames);
        assert_eq!(s.frame_count, 60);
        assert_eq!(s.shots.len(), 3);
        assert_eq!(s.keyframes.len(), s.shots.len());
        // Every shot has at least one key frame inside it.
        for (i, keys) in s.keyframes.iter().enumerate() {
            assert!(!keys.is_empty());
            assert!(keys.iter().all(|&k| s.shots[i].contains(k)));
        }
        // Scenes cover all shots.
        assert_eq!(s.scenes.first().unwrap().first_shot, 0);
        assert_eq!(s.scenes.last().unwrap().last_shot, s.shots.len());
    }

    #[test]
    fn frame_lookup() {
        let (spec, frames) = three_take_video();
        let s = VideoParser::default().parse_frames(spec, &frames);
        assert_eq!(s.shot_of_frame(0), Some(0));
        assert_eq!(s.shot_of_frame(20), Some(1));
        assert_eq!(s.shot_of_frame(59), Some(2));
        assert_eq!(s.shot_of_frame(60), None);
        assert!(s.scene_of_frame(0).is_some());
        assert!(s.scene_of_frame(999).is_none());
    }

    #[test]
    fn parse_stream_equals_parse_frames() {
        let (spec, frames) = three_take_video();
        let direct = VideoParser::default().parse_frames(spec, &frames);
        let mut stream = InMemoryVideo::new(spec, frames);
        let via_stream = VideoParser::default().parse_stream(&mut stream);
        assert_eq!(direct.shots, via_stream.shots);
        assert_eq!(direct.scenes, via_stream.scenes);
    }

    #[test]
    fn all_keyframes_sorted_unique_enough() {
        let (spec, frames) = three_take_video();
        let s = VideoParser::default().parse_frames(spec, &frames);
        let all = s.all_keyframes();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert!(all.len() >= s.shots.len());
    }

    #[test]
    fn outline_mentions_every_level() {
        let (spec, frames) = three_take_video();
        let s = VideoParser::default().parse_frames(spec, &frames);
        let text = s.outline();
        assert!(text.contains("video:"));
        assert!(text.contains("scene 0"));
        assert!(text.contains("shot 0"));
        assert!(text.contains("keyframes"));
    }

    #[test]
    fn telemetry_records_parse_span_and_counters() {
        let (spec, frames) = three_take_video();
        let telemetry = Telemetry::enabled();
        let parser = VideoParser::default().with_telemetry(telemetry.clone());
        let s = parser.parse_frames(spec, &frames);
        let report = telemetry.report();
        assert_eq!(report.counter("shots_detected"), Some(s.shots.len() as u64));
        assert_eq!(
            report.counter("keyframes_extracted"),
            Some(s.all_keyframes().len() as u64)
        );
        assert_eq!(
            report.counter("scenes_segmented"),
            Some(s.scenes.len() as u64)
        );
        assert_eq!(report.span("video.parse").unwrap().count, 1);
        assert_eq!(report.span("video.finish").unwrap().count, 1);
        assert_eq!(
            report.histogram("video.push_seconds").unwrap().count,
            frames.len() as u64
        );
    }

    /// Over a long multi-shot stream the parser keeps, between frames,
    /// one previous frame, at most `window` distances, at most
    /// `max_per_shot` key frames, and the open shot's histogram counts
    /// from its running middle onward — never the frames themselves.
    #[test]
    fn retained_state_stays_bounded_on_a_long_stream() {
        let config = VideoParserConfig::default();
        let mut parser = VideoParser::new(config);
        let mut most_counts = 0;
        for take in 0..60u32 {
            let len = 15 + (take as usize * 7) % 50;
            for j in 0..len {
                parser.push(&textured(take % 9 + 1, j as u32));
                assert!(parser.detector.retained_distances() <= config.shots.window);
                assert!(parser.keyframes.retained_keys() <= config.keyframes.max_per_shot);
                let open = parser.frames() - parser.shot_start;
                assert_eq!(parser.middle.retained_counts(), open - open / 2);
                most_counts = most_counts.max(parser.middle.retained_counts());
            }
        }
        assert!(most_counts <= 32, "half the longest take, not the stream");
        let frames = parser.frames();
        let s = parser.finish(VideoSpec {
            width: 32,
            height: 32,
            fps: 25.0,
        });
        assert_eq!(s.frame_count, frames);
        assert!(
            s.shots.len() > 50,
            "a multi-shot stream: {} shots",
            s.shots.len()
        );
    }

    #[test]
    fn empty_video_parses_to_empty_structure() {
        let spec = VideoSpec {
            width: 8,
            height: 8,
            fps: 25.0,
        };
        let s = VideoParser::default().parse_frames(spec, &[]);
        assert_eq!(s.frame_count, 0);
        assert!(s.shots.is_empty());
        assert!(s.scenes.is_empty());
        assert!(s.shot_of_frame(0).is_none());
    }
}
