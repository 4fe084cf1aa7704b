//! Video substrate for the DiEvent framework.
//!
//! Stage 2 of the DiEvent pipeline is *video composition analysis*
//! (paper §II-B, Fig. 3): a recorded video is parsed into a hierarchy of
//! **scenes → shots → key frames** so that later stages (feature
//! extraction, multilayer analysis) and end users (sociologists locating
//! relevant scenes) can address structured units instead of raw frames.
//!
//! This crate provides:
//!
//! * [`frame`] — grayscale/RGB pixel frames with timestamps, basic
//!   raster operations, and luminance histograms;
//! * [`stream`] — video stream abstractions and an in-memory video;
//! * [`diff`] — inter-frame dissimilarity metrics (histogram distance,
//!   pixel difference, edge change ratio) used by the parser;
//! * [`shots`] — shot boundary detection (hard cuts via adaptive
//!   thresholding and gradual transitions via twin comparison);
//! * [`keyframes`] — key-frame extraction within each shot;
//! * [`scenes`] — grouping shots into scenes by visual coherence;
//! * [`parse`] — the streaming [`parse::VideoParser`]: it takes frames
//!   one at a time, settles shots and key frames as they arrive, and
//!   links scenes when the video ends, producing the Fig. 3
//!   [`parse::VideoStructure`].
//!
//! The crate is camera-agnostic: the synthetic renderer in
//! `dievent-scene` produces the same [`frame::GrayFrame`]s a capture
//! device would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod frame;
pub mod io;
pub mod keyframes;
pub mod parse;
pub mod scenes;
pub mod shots;
pub mod stream;

pub use diff::{
    edge_change_ratio, frame_distance, histogram_chi_square, histogram_intersection, pixel_mad,
};
pub use frame::{GrayFrame, Histogram, RgbFrame, Timestamp, HISTOGRAM_BINS};
pub use io::{load_pgm, read_pgm, save_pgm, save_ppm, write_pgm, write_ppm};
pub use keyframes::KeyframeConfig;
pub use parse::{VideoParser, VideoParserConfig, VideoStructure};
pub use scenes::{Scene, SceneConfig};
pub use shots::{Shot, ShotBoundary, ShotDetectorConfig, TransitionKind};
pub use stream::{FrameIndex, InMemoryVideo, VideoSpec, VideoStream};
