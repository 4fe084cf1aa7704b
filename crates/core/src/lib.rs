//! The DiEvent framework — end-to-end pipeline (paper Fig. 1).
//!
//! This crate wires the five pipeline stages together:
//!
//! 1. **Video acquisition platform** — [`acquisition`]: synthetic
//!    multi-camera capture of a scenario (camera streams + external
//!    time-invariant context);
//! 2. **Video composition analysis** — via `dievent-video`'s parser on
//!    a downsampled monitor stream;
//! 3. **Feature extraction** — one `dievent-vision` extractor per
//!    camera plus the LBP+MLP emotion classifier ([`training`]), which
//!    a session runs at fusion on each participant's largest face;
//! 4. **Multilayer analysis** — fusion, look-at matrices, overall
//!    emotion via `dievent-analysis`;
//! 5. **Metadata repository** — everything stored and queryable via
//!    `dievent-metadata`.
//!
//! The top-level entry point is [`pipeline::DiEventPipeline`]; its
//! output, [`report::EventAnalysis`], carries every figure the paper's
//! prototype reports (look-at maps, the summary matrix, dominance, OH
//! series) plus validation metrics against the simulator's ground
//! truth.
//!
//! Execution is streaming-first: [`session::PipelineSession`] accepts
//! per-camera frames incrementally over bounded, backpressured
//! channels and emits incremental [`session::FrameAnalysis`] results;
//! the batch `run` entry point is a thin driver over a session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod error;
pub mod ids;
pub mod observe;
pub mod pipeline;
pub mod report;
pub mod session;
pub mod training;

pub use acquisition::{CameraStream, Recording};
pub use dievent_pool::{PoolStats, ThreadPool};
pub use dievent_telemetry::{
    collapsed_stacks, span_profile, validate_exposition, CameraLane, FrameWaterfall, LineageReport,
    LineageStageSummary, LineageSummary, LiveOptions, LivePlane, PlaneProbe, RateWindow, Telemetry,
};
pub use error::DiEventError;
pub use ids::{CameraId, EventId};
pub use observe::ObserveConfig;
pub use pipeline::{DiEventPipeline, PipelineConfig, PipelineConfigBuilder};
pub use report::{AnalysisDigest, EventAnalysis, StageTimings};
pub use session::{
    BackpressureMode, CameraFeed, FinishOptions, FrameAnalysis, PipelineSession, SessionInput,
    StreamingConfig,
};
pub use training::{
    default_training_set, train_emotion_classifier, TrainingSetConfig, DEFAULT_TRAINING_SEED,
};
