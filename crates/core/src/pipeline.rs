//! Stages 2–5: the DiEvent analysis pipeline (batch entry point).
//!
//! [`DiEventPipeline::run`] consumes a [`Recording`] and produces an
//! [`EventAnalysis`]. It is a thin driver over the streaming engine in
//! [`crate::session`]: it opens a [`PipelineSession`], pushes every
//! recorded frame from the calling thread through the per-camera
//! bounded channels (each camera's lane is an independent "smart
//! camera" running detection, landmarks, pose, tracking and
//! recognition; fusion classifies the emotion of each participant's
//! largest face), and finishes the session with the recording's ground
//! truth and context attached. Batch and streaming therefore share one
//! code path and produce identical results.
//!
//! [`PipelineConfig::pool_threads`] is the only concurrency setting:
//! `0` runs every session's extraction chunks on the shared global
//! pool, `N` on a private pool of `N` workers. Results are
//! bit-identical for every value.
//!
//! Identity bootstrap follows the paper's stance that the participant
//! count and seating are *external information* (§II-D-1: "n is given
//! as an external information"): the first frame's detections are
//! associated to seats by projected position, enrolling each
//! participant's appearance in the camera's gallery; every later frame
//! relies on appearance recognition alone.
//!
//! [`PipelineSession`]: crate::session::PipelineSession

use crate::acquisition::Recording;
use crate::error::DiEventError;
use crate::observe::ObserveConfig;
use crate::report::EventAnalysis;
use crate::session::{FinishOptions, StreamingConfig};
use crate::training::{load_emotion_classifier, TrainingSetConfig, DEFAULT_TRAINING_SEED};
use dievent_analysis::{FusionConfig, LookAtConfig};
use dievent_emotion::{Emotion, EmotionClassifier, MIN_TRAINING_PATCHES};
use dievent_summarize::{HighlightConfig, ImportanceConfig, SummaryConfig};
use dievent_telemetry::Telemetry;
use dievent_video::VideoParserConfig;
use dievent_vision::ExtractorConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Full pipeline configuration.
///
/// Construct via [`PipelineConfig::builder`] to get validation up
/// front, or as a struct literal (validation then happens when a
/// session is opened).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Per-camera feature extraction settings.
    pub extractor: ExtractorConfig,
    /// Eye-contact geometry.
    pub lookat: LookAtConfig,
    /// Multi-camera fusion settings.
    pub fusion: FusionConfig,
    /// Temporal majority-vote window over look-at matrices (frames).
    pub matrix_smoothing: usize,
    /// EMA smoothing of the overall-emotion series.
    pub emotion_smoothing: f64,
    /// Video-parsing settings (applied to the camera-0 monitor stream).
    pub parser: VideoParserConfig,
    /// Emotion-classifier training-set settings. With the default
    /// settings and seed the pipeline uses the embedded default model;
    /// any other value trains a model when the pipeline is built.
    pub training: TrainingSetConfig,
    /// Seed for classifier training.
    pub training_seed: u64,
    /// Run emotion classification (disable for gaze-only benches).
    pub classify_emotions: bool,
    /// Run video composition analysis.
    pub parse_video: bool,
    /// Worker threads for the thread pool that runs every camera's
    /// extraction chunks (stage 3). `0` (the default) shares the
    /// lazily-created global pool sized from `available_parallelism` —
    /// the recommended setting, since one shared pool avoids
    /// oversubscription no matter how many sessions or cameras run at
    /// once. A non-zero value gives this session a private pool of
    /// exactly that many workers. Results are bit-identical either way.
    pub pool_threads: usize,
    /// Highlight detection settings.
    pub highlights: HighlightConfig,
    /// Importance scoring settings.
    pub importance: ImportanceConfig,
    /// Summary selection settings.
    pub summary: SummaryConfig,
    /// Streaming-session settings (channel capacity, backpressure,
    /// reorder window).
    pub streaming: StreamingConfig,
    /// Live-observability settings (embedded metrics endpoint, rate
    /// sampler, span profiler). Fully off by default — a session then
    /// starts no extra threads.
    pub observe: ObserveConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            extractor: ExtractorConfig::standard(),
            lookat: LookAtConfig::default(),
            fusion: FusionConfig::default(),
            matrix_smoothing: 5,
            emotion_smoothing: 0.85,
            parser: VideoParserConfig::default(),
            training: TrainingSetConfig::default(),
            training_seed: DEFAULT_TRAINING_SEED,
            classify_emotions: true,
            parse_video: true,
            pool_threads: 0,
            highlights: HighlightConfig::default(),
            importance: ImportanceConfig::default(),
            summary: SummaryConfig::default(),
            streaming: StreamingConfig::default(),
            observe: ObserveConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// Starts a validating builder seeded with the defaults.
    #[must_use = "the builder does nothing until `.build()` is called"]
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: PipelineConfig::default(),
        }
    }

    /// Checks the configuration's internal consistency.
    ///
    /// Called by [`PipelineConfigBuilder::build`] and when a session is
    /// opened, so struct-literal configurations are validated too.
    #[must_use = "ignoring the Err means running with an invalid configuration"]
    pub fn validate(&self) -> Result<(), DiEventError> {
        if self.streaming.channel_capacity == 0 {
            return Err(DiEventError::InvalidConfig(
                "streaming.channel_capacity must be >= 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.emotion_smoothing) {
            return Err(DiEventError::InvalidConfig(format!(
                "emotion_smoothing must be within [0, 1], got {}",
                self.emotion_smoothing
            )));
        }
        if self.matrix_smoothing == 0 {
            return Err(DiEventError::InvalidConfig(
                "matrix_smoothing window must be >= 1 frame".into(),
            ));
        }
        if self.classify_emotions {
            let patches = self.training.patch_count().ok_or_else(|| {
                DiEventError::InvalidConfig(format!(
                    "training.variants × training.identities × {} emotions overflows",
                    Emotion::COUNT
                ))
            })?;
            if patches < MIN_TRAINING_PATCHES {
                return Err(DiEventError::InvalidConfig(format!(
                    "training.variants × training.identities × {} emotions gives {patches} \
                     training patches; the classifier needs at least {MIN_TRAINING_PATCHES}",
                    Emotion::COUNT
                )));
            }
        }
        self.observe.validate()?;
        Ok(())
    }
}

/// Validating builder for [`PipelineConfig`].
///
/// ```
/// use dievent_core::PipelineConfig;
///
/// let config = PipelineConfig::builder()
///     .classify_emotions(false)
///     .channel_capacity(16)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.streaming.channel_capacity, 16);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use = "the setter consumes and returns the builder"]
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl PipelineConfigBuilder {
    builder_setters! {
        /// Per-camera feature extraction settings.
        extractor: ExtractorConfig,
        /// Eye-contact geometry.
        lookat: LookAtConfig,
        /// Multi-camera fusion settings.
        fusion: FusionConfig,
        /// Temporal majority-vote window over look-at matrices (frames).
        matrix_smoothing: usize,
        /// EMA smoothing of the overall-emotion series.
        emotion_smoothing: f64,
        /// Video-parsing settings.
        parser: VideoParserConfig,
        /// Emotion-classifier training-set settings.
        training: TrainingSetConfig,
        /// Seed for classifier training.
        training_seed: u64,
        /// Run emotion classification.
        classify_emotions: bool,
        /// Run video composition analysis.
        parse_video: bool,
        /// Worker threads for the pool (`0` = shared global pool).
        pool_threads: usize,
        /// Highlight detection settings.
        highlights: HighlightConfig,
        /// Importance scoring settings.
        importance: ImportanceConfig,
        /// Summary selection settings.
        summary: SummaryConfig,
        /// Streaming-session settings, wholesale.
        streaming: StreamingConfig,
        /// Live-observability settings, wholesale.
        observe: ObserveConfig,
    }

    /// Bounded per-camera input queue length, in frames (≥ 1).
    #[must_use = "the setter consumes and returns the builder"]
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.streaming.channel_capacity = capacity;
        self
    }

    /// Policy when a camera's bounded queue is full.
    #[must_use = "the setter consumes and returns the builder"]
    pub fn backpressure(mut self, mode: crate::session::BackpressureMode) -> Self {
        self.config.streaming.backpressure = mode;
        self
    }

    /// Maximum inter-camera skew (frames) the sequencer waits out.
    #[must_use = "the setter consumes and returns the builder"]
    pub fn reorder_window(mut self, frames: usize) -> Self {
        self.config.streaming.reorder_window = frames;
        self
    }

    /// Serves `/metrics`, `/healthz`, `/readyz`, `/snapshot`, and
    /// `/profile` on `addr` while a session is open. Port 0 binds a
    /// free port; read the resolved address back through
    /// [`PipelineSession::observer`](crate::PipelineSession::observer).
    #[must_use = "the setter consumes and returns the builder"]
    pub fn serve_metrics(mut self, addr: std::net::SocketAddr) -> Self {
        self.config.observe.http_addr = Some(addr);
        self
    }

    /// Interval between observability sampler ticks (heartbeat gauges +
    /// one rate window per tick).
    #[must_use = "the setter consumes and returns the builder"]
    pub fn sample_interval(mut self, interval: std::time::Duration) -> Self {
        self.config.observe.sample_interval = interval;
        self
    }

    /// Runs the rate sampler (attaching windowed rates to the final
    /// report) even without an HTTP endpoint.
    #[must_use = "the setter consumes and returns the builder"]
    pub fn sample_rates(mut self, enabled: bool) -> Self {
        self.config.observe.sample_rates = enabled;
        self
    }

    /// Traces per-frame lineage: every frame's queue-wait, compute,
    /// reorder-hold, and fuse latency is attributed per stage, attached
    /// to [`EventAnalysis::lineage`](crate::EventAnalysis) and served
    /// on `GET /lineage` when the HTTP endpoint runs.
    #[must_use = "the setter consumes and returns the builder"]
    pub fn trace_lineage(mut self, enabled: bool) -> Self {
        self.config.observe.trace_lineage = enabled;
        self
    }

    /// Validates and returns the configuration.
    #[must_use = "dropping the result discards both the config and any validation error"]
    pub fn build(self) -> Result<PipelineConfig, DiEventError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The assembled DiEvent pipeline.
pub struct DiEventPipeline {
    config: PipelineConfig,
    /// Shared with every session this pipeline opens.
    classifier: Option<Arc<EmotionClassifier>>,
    telemetry: Telemetry,
}

impl DiEventPipeline {
    /// Builds the pipeline. When classification is enabled it loads the
    /// emotion classifier: the default training config and seed share
    /// the model embedded in this crate, parsed once per process; any
    /// other config trains its own model here (see [`crate::training`]).
    ///
    /// Telemetry is on by default (it is cheap enough to leave on, and
    /// [`EventAnalysis::telemetry`] plus the stage timings come from
    /// it); opt out with [`DiEventPipeline::new_with_telemetry`] and
    /// [`Telemetry::disabled`].
    pub fn new(config: PipelineConfig) -> Self {
        Self::new_with_telemetry(config, Telemetry::enabled())
    }

    /// Builds the pipeline recording into the given telemetry domain.
    /// The domain accumulates across runs: running the same pipeline
    /// twice sums its counters and span totals.
    pub fn new_with_telemetry(config: PipelineConfig, telemetry: Telemetry) -> Self {
        let classifier = {
            let _span = telemetry.span("pipeline.load_classifier");
            config
                .classify_emotions
                .then(|| load_emotion_classifier(&config.training, config.training_seed))
        };
        DiEventPipeline {
            config,
            classifier,
            telemetry,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The telemetry domain this pipeline records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The emotion classifier, when classification is enabled.
    pub(crate) fn classifier(&self) -> Option<&Arc<EmotionClassifier>> {
        self.classifier.as_ref()
    }

    /// Runs the full pipeline on a recording by driving a streaming
    /// session to completion. The calling thread renders and pushes
    /// every frame, frame-set by frame-set, while the session's camera
    /// lanes extract in parallel.
    #[must_use = "dropping the result discards the whole analysis or its error"]
    pub fn run(&self, recording: &Recording) -> Result<EventAnalysis, DiEventError> {
        let mut session = self.session(&recording.scenario)?;
        for f in 0..recording.frames() {
            for c in 0..recording.cameras() {
                session.push_frame(c, recording.frame(c, f))?;
            }
        }
        session.finish_with(FinishOptions {
            ground_truth: recording.lookat_truth(&self.config.lookat),
            context: recording.context.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dievent_metadata::{Query, RecordKind};
    use dievent_scene::Scenario;

    /// A short two-camera recording that keeps tests fast.
    fn short_recording() -> Recording {
        Recording::capture(Scenario::two_camera_dinner(40, 11))
    }

    fn quick_config() -> PipelineConfig {
        PipelineConfig {
            classify_emotions: false,
            parse_video: true,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let recording = short_recording();
        let pipeline = DiEventPipeline::new(quick_config());
        let analysis = pipeline.run(&recording).expect("pipeline run");
        assert_eq!(analysis.matrices.len(), 40);
        assert_eq!(analysis.overall.len(), 40);
        assert_eq!(analysis.participants, 2);
        assert!(analysis.structure.is_some());
        assert!(analysis.repository.len() > 40, "event + frames stored");
    }

    #[test]
    fn detected_eye_contact_matches_script() {
        // The two-camera dinner scripts long mutual-gaze stretches; the
        // detected matrices must recover EC with decent fidelity.
        let recording = short_recording();
        let pipeline = DiEventPipeline::new(quick_config());
        let analysis = pipeline.run(&recording).expect("pipeline run");
        assert!(
            analysis.validation.f1 > 0.7,
            "look-at F1 too low: {:?}",
            analysis.validation
        );
    }

    #[test]
    fn repository_answers_queries() {
        let recording = short_recording();
        let analysis = DiEventPipeline::new(quick_config())
            .run(&recording)
            .expect("pipeline run");
        let events = analysis
            .repository
            .query(&Query::new().kind(RecordKind::Event));
        assert_eq!(events.len(), 1);
        let frames = analysis.repository.query(
            &Query::new()
                .kind(RecordKind::FrameAnalysis)
                .overlapping(0.5, 1.0),
        );
        assert!(!frames.is_empty());
        // Frames with at least one eye contact.
        let ec_frames = analysis.repository.query(
            &Query::new()
                .kind(RecordKind::FrameAnalysis)
                .ge("eye_contacts", 1i64),
        );
        assert!(!ec_frames.is_empty(), "scripted mutual gaze must appear");
    }

    #[test]
    fn emotion_classification_produces_estimates() {
        let recording = Recording::capture(Scenario::two_camera_dinner(16, 5));
        let pipeline = DiEventPipeline::new(PipelineConfig {
            classify_emotions: true,
            parse_video: false,
            ..PipelineConfig::default()
        });
        let analysis = pipeline.run(&recording).expect("pipeline run");
        // Some frames must carry observed emotions for ≥1 participant.
        let observed: usize = analysis.overall.iter().map(|o| o.observed).sum();
        assert!(observed > 0, "no emotions observed at all");
    }

    #[test]
    fn builder_validates_settings() {
        assert!(PipelineConfig::builder().build().is_ok());
        assert!(matches!(
            PipelineConfig::builder().channel_capacity(0).build(),
            Err(DiEventError::InvalidConfig(_))
        ));
        assert!(matches!(
            PipelineConfig::builder().emotion_smoothing(1.5).build(),
            Err(DiEventError::InvalidConfig(_))
        ));
        assert!(matches!(
            PipelineConfig::builder().matrix_smoothing(0).build(),
            Err(DiEventError::InvalidConfig(_))
        ));
        // Training sets too small for the classifier to train on are
        // refused when emotions are classified, and ignored otherwise.
        // A set whose size overflows is refused too, before anything
        // sizes a buffer from it.
        for (variants, identities) in [(0, 4), (16, 0), (1, 1), (1, 1 << 62)] {
            let training = TrainingSetConfig {
                variants,
                identities,
                ..TrainingSetConfig::default()
            };
            assert!(matches!(
                PipelineConfig::builder().training(training).build(),
                Err(DiEventError::InvalidConfig(_))
            ));
            assert!(PipelineConfig::builder()
                .training(training)
                .classify_emotions(false)
                .build()
                .is_ok());
        }
        let config = PipelineConfig::builder()
            .reorder_window(4)
            .channel_capacity(2)
            .trace_lineage(true)
            .build()
            .expect("valid");
        assert_eq!(config.streaming.reorder_window, 4);
        assert_eq!(config.streaming.channel_capacity, 2);
        assert!(config.observe.trace_lineage);
    }

    #[test]
    fn pipelines_and_sessions_share_one_classifier() {
        let a = DiEventPipeline::new(PipelineConfig::default());
        let b = DiEventPipeline::new(PipelineConfig::default());
        let (Some(shared), Some(other)) = (a.classifier(), b.classifier()) else {
            panic!("classification is on by default");
        };
        assert!(Arc::ptr_eq(shared, other), "one default model per process");

        // A custom config trains a model of its own, so its handle count
        // is exact: a session adds one handle, its sequencer's, whatever
        // the rig size; camera lanes hold none, and no model is cloned.
        let custom = DiEventPipeline::new(PipelineConfig {
            training: TrainingSetConfig {
                variants: 1,
                identities: 2,
                ..TrainingSetConfig::default()
            },
            ..PipelineConfig::default()
        });
        let model = custom.classifier().expect("classification is on");
        assert!(!Arc::ptr_eq(model, shared));
        assert_eq!(Arc::strong_count(model), 1);
        let scenario = Scenario::two_camera_dinner(4, 1);
        let session = custom.session(&scenario).expect("session opens");
        assert_eq!(Arc::strong_count(model), 2);
        session.finish().expect("session finishes");
        assert_eq!(Arc::strong_count(model), 1);
    }

    #[test]
    fn config_json_with_retired_keys_decodes_to_the_same_config() {
        // An `OpenEvent` body from an older client still carries knobs
        // the config no longer has: two from before the session had one
        // execution path, and the live plane's ring length and lineage
        // reservoir size, now fixed. Unknown keys are ignored on decode.
        let config = PipelineConfig::builder()
            .classify_emotions(false)
            .pool_threads(3)
            .trace_lineage(true)
            .build()
            .expect("valid");
        let json = serde_json::to_string(&config).expect("encode");
        let old = json
            .replacen(
                '{',
                r#"{"parallel_cameras":false,"frame_parallel":true,"#,
                1,
            )
            .replacen(
                r#""observe":{"#,
                r#""observe":{"ring_len":16,"lineage_reservoir":32,"#,
                1,
            );
        assert!(old.contains(r#""lineage_reservoir":32"#), "{old}");
        let decoded: PipelineConfig = serde_json::from_str(&old).expect("decode");
        assert_eq!(decoded, config);
    }

    #[test]
    fn zero_camera_recording_is_rejected_not_a_panic() {
        let mut scenario = Scenario::two_camera_dinner(4, 1);
        scenario.rig.cameras.clear();
        let recording = Recording::capture(scenario);
        let pipeline = DiEventPipeline::new(quick_config());
        assert!(matches!(
            pipeline.run(&recording),
            Err(DiEventError::InvalidConfig(_))
        ));
    }
}
