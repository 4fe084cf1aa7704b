//! The streaming execution engine: incremental, backpressured frame
//! analysis.
//!
//! A [`PipelineSession`] is the live-feed counterpart of
//! [`DiEventPipeline::run`](crate::pipeline::DiEventPipeline::run):
//! instead of consuming a whole [`Recording`](crate::Recording) at
//! once, callers push per-camera frames as they arrive
//! ([`PipelineSession::push_frame`] or a detached [`CameraFeed`] per
//! producer thread).
//!
//! Every session runs one execution path. Each camera has a lane: an
//! OS thread named `dievent-cam-{c}`, fed through a **bounded channel
//! with backpressure** ([`BackpressureMode::Block`] never sheds load;
//! [`BackpressureMode::DropOldest`] sheds the stalest queued frame and
//! counts the drop in telemetry). A lane takes whatever is queued as
//! one batch, a batch of one included, and runs it in two phases.
//! Phase A is pure (detection, landmarks, pose, recognition, emotion
//! classification) and fans contiguous frame chunks over the session's
//! thread pool; a lone chunk runs inline on the lane. Phase B
//! (tracking, pose carry-forward) integrates the results in frame
//! order. A sequencer fuses per-camera outputs into per-frame
//! [`FrameAnalysis`] results on the thread that pushes or polls,
//! tolerating out-of-order camera arrival within a configurable reorder
//! window, and [`PipelineSession::finish`] runs the remaining batch stages
//! (smoothing, summary, parsing, metadata) to produce the same
//! [`EventAnalysis`] the batch entry point returns.
//!
//! `pool_threads` is the one concurrency knob: `0` shares the global
//! pool, `N` gives the session a private pool of `N` workers. Outputs
//! are bit-identical for every setting.

use crate::error::DiEventError;
use crate::ids::CameraId;
use crate::observe::{CameraAliveGuard, PoolCursor, SessionVitals, LINEAGE_RESERVOIR};
use crate::pipeline::{DiEventPipeline, PipelineConfig};
use crate::report::{EventAnalysis, StageTimings};
use dievent_analysis::layers::TimeInvariantContext;
use dievent_analysis::overall_emotion::{fuse_sequence, EmotionEstimate, OverallEmotionConfig};
use dievent_analysis::{
    dominance_ranking, ec_episodes, fuse_frame, pair_statistics, smooth_matrices,
    validate_sequence, CameraObservation, FrameObservations, LookAtMatrix, LookAtScratch,
    LookAtSummary,
};
use dievent_emotion::{EmotionClassifier, ExtractArena};
use dievent_geometry::{Iso3, PinholeCamera, Vec3};
use dievent_metadata::{MetaRecord, MetadataRepository, RecordKind};
use dievent_pool::ThreadPool;
use dievent_scene::Scenario;
use dievent_summarize::{
    detect_highlights, importance_series, select_summary, Highlight, HighlightKind,
};
use dievent_telemetry::{
    Counter, Gauge, Histogram, LineageTracer, LiveOptions, LivePlane, RateWindow, SpanGuard,
    Telemetry,
};
use dievent_video::{GrayFrame, VideoParser, VideoSpec, VideoStructure};
use dievent_vision::{
    ExtractorConfig, FaceGallery, FaceObservation, FeatureExtractor, FrameRaw, PersonId,
};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};

/// How a camera feed behaves when its bounded input queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressureMode {
    /// Block the producer until the worker frees a slot. Nothing is
    /// ever lost; ingest rate degrades to extraction rate.
    Block,
    /// Evict the oldest queued frame to make room (load shedding for
    /// live feeds that must stay current). Every eviction increments
    /// the `session.frames_dropped{camera=..}` counter.
    DropOldest,
}

/// Streaming-engine settings, embedded in [`PipelineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Bounded per-camera input queue length (frames). Must be ≥ 1.
    pub channel_capacity: usize,
    /// Full-queue policy.
    pub backpressure: BackpressureMode,
    /// Maximum inter-camera skew, in frames, the sequencer waits out
    /// before fusing a frame without its slowest cameras. A frame whose
    /// input a live camera lane has already taken in is waited for
    /// regardless.
    pub reorder_window: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            channel_capacity: 8,
            backpressure: BackpressureMode::Block,
            reorder_window: 32,
        }
    }
}

/// One camera worker's per-frame output (observations for fusion plus
/// per-person emotion evidence).
pub(crate) struct CameraFrameOutput {
    pub(crate) observations: Vec<CameraObservation>,
    /// `(person, probabilities, confidence, apparent_radius)`
    pub(crate) emotions: Vec<(usize, Vec<f64>, f64, f64)>,
}

/// One incremental result emitted by the sequencer: the fused (but not
/// yet temporally smoothed) analysis of a single frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameAnalysis {
    /// The per-camera frame index this result belongs to.
    pub frame: usize,
    /// The fused look-at matrix before temporal smoothing.
    pub raw_matrix: LookAtMatrix,
    /// Per-person emotion estimates observed this frame.
    pub emotions: Vec<EmotionEstimate>,
    /// How many cameras contributed (less than the rig size when the
    /// reorder window evicted the frame or input frames were dropped).
    pub cameras_reporting: usize,
}

/// Final inputs a caller can attach when closing a session: ground
/// truth for validation and the externally collected event context.
#[derive(Debug, Clone, Default)]
pub struct FinishOptions {
    /// Per-frame ground-truth look-at matrices (empty = no validation;
    /// the reported [`MatrixValidation`](dievent_analysis::MatrixValidation)
    /// is then all zeros).
    pub ground_truth: Vec<LookAtMatrix>,
    /// Time-invariant context carried into the metadata repository.
    pub context: Option<TimeInvariantContext>,
}

/// One unit of per-camera input, unifying the two ingest paths behind
/// a single type: a raw frame for stage-3 extraction, or pose
/// observations an external tracker already extracted. The canonical
/// ingest APIs — [`PipelineSession::push`] and
/// [`CameraFeed::push_input`] — take this; `push_frame` /
/// `push_pose_observations` are thin wrappers over it, and the
/// server's framed wire protocol decodes 1:1 onto it so the wire
/// format and the in-process API cannot drift.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionInput {
    /// A raw frame for stage-3 feature extraction.
    Frame(GrayFrame),
    /// Pre-extracted pose observations (an external tracker already ran
    /// stage 3); passed through to the sequencer untouched.
    PoseObservations(Vec<CameraObservation>),
}

/// One input on a camera lane's queue, paired with its per-camera
/// frame index. Frames and pose observations share the queue, so
/// per-camera FIFO order is preserved.
type LaneInput = (usize, SessionInput);

struct WorkerOutput {
    camera: usize,
    index: usize,
    output: CameraFrameOutput,
    monitor: Option<GrayFrame>,
}

/// The sending half of one camera's bounded input queue.
///
/// Obtained with [`PipelineSession::take_feeds`]; each feed can move to
/// its own producer thread (one per physical camera, matching the
/// paper's synchronized acquisition platform). Frames pushed through a
/// feed are indexed in push order. Dropping the feed signals
/// end-of-stream for that camera.
pub struct CameraFeed {
    camera: usize,
    /// The session's frame size: every [`SessionInput::Frame`] must
    /// have it.
    frame_size: (u32, u32),
    next_index: usize,
    mode: BackpressureMode,
    tx: Sender<LaneInput>,
    /// Eviction handle for drop-oldest mode.
    rx: Receiver<LaneInput>,
    queue_depth: Gauge,
    dropped: Counter,
    lineage: LineageTracer,
    vitals: Arc<SessionVitals>,
}

impl CameraFeed {
    /// Pushes the camera's next input — the canonical ingest point. In
    /// [`BackpressureMode::Block`] this blocks while the queue is full;
    /// in [`BackpressureMode::DropOldest`] it evicts the stalest queued
    /// item instead.
    ///
    /// A frame whose size is not the session's is refused with
    /// [`DiEventError::FrameSize`] before it takes an index, so the
    /// camera's next input takes the index it would have had.
    #[must_use = "an ignored Err means the input was never enqueued"]
    pub fn push_input(&mut self, input: SessionInput) -> Result<(), DiEventError> {
        let camera = self.camera;
        if let SessionInput::Frame(frame) = &input {
            let got = (frame.width(), frame.height());
            if got != self.frame_size {
                return Err(DiEventError::FrameSize {
                    camera: CameraId::new(camera),
                    expected: self.frame_size,
                    got,
                });
            }
        }
        let index = self.next_index;
        self.next_index += 1;
        // The ingest stamp marks the instant the producer offers the
        // frame, so time spent blocked on a full queue is attributed
        // to queue-wait.
        self.lineage.ingest(camera, index as u64);
        // Counted on offer, before a full queue can block the send, so
        // the sequencer never evicts a frame whose input waits for a
        // slot.
        self.vitals.ingested[camera].store(self.next_index as u64, Ordering::Release);
        let item = (index, input);
        match self.mode {
            BackpressureMode::Block => self
                .tx
                .send(item)
                .map_err(|_| DiEventError::CameraThreadPanicked { camera })?,
            BackpressureMode::DropOldest => {
                let mut item = item;
                loop {
                    match self.tx.try_send(item) {
                        Ok(()) => break,
                        Err(TrySendError::Full(back)) => {
                            item = back;
                            // The worker may have raced us to the slot;
                            // only count an actual eviction.
                            if let Ok((evicted, _)) = self.rx.try_recv() {
                                self.dropped.incr();
                                self.lineage.discard(camera, evicted as u64);
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            return Err(DiEventError::CameraThreadPanicked { camera });
                        }
                    }
                }
            }
        }
        self.queue_depth.set(self.tx.len() as f64);
        Ok(())
    }

    /// Pushes the camera's next frame
    /// (= [`push_input`](Self::push_input) with [`SessionInput::Frame`]).
    #[must_use = "an ignored Err means the frame was never enqueued"]
    pub fn push(&mut self, frame: GrayFrame) -> Result<(), DiEventError> {
        self.push_input(SessionInput::Frame(frame))
    }

    /// Pushes pre-extracted pose observations for the camera's next
    /// frame, bypassing feature extraction (for deployments where an
    /// external tracker supplies head/gaze directly; =
    /// [`push_input`](Self::push_input) with
    /// [`SessionInput::PoseObservations`]).
    #[must_use = "an ignored Err means the observations were never enqueued"]
    pub fn push_pose_observations(
        &mut self,
        observations: Vec<CameraObservation>,
    ) -> Result<(), DiEventError> {
        self.push_input(SessionInput::PoseObservations(observations))
    }

    /// The camera this feed belongs to.
    pub fn camera(&self) -> CameraId {
        CameraId::new(self.camera)
    }

    /// Frames pushed so far.
    pub fn frames_pushed(&self) -> usize {
        self.next_index
    }
}

/// The reorder-and-fuse stage: collects per-camera frame outputs,
/// fuses each frame once complete (or once the reorder window expires),
/// and accumulates the per-frame series the final analysis needs.
struct Sequencer {
    cameras: usize,
    participants: usize,
    reorder_window: usize,
    camera_poses: Vec<Iso3>,
    config: PipelineConfig,
    /// Outputs of every camera lane.
    outputs: Receiver<WorkerOutput>,
    /// Frame index → per-camera slots awaiting fusion.
    pending: BTreeMap<usize, Vec<Option<CameraFrameOutput>>>,
    /// Highest frame index seen from any camera.
    high_water: usize,
    /// Highest frame index each camera's lane has returned.
    returned: Vec<Option<usize>>,
    /// Each lane's liveness, read just before the latest drain. A lane
    /// clears its flag only after its last send, so a lane seen dead
    /// then had nothing left in the output channel.
    live: Vec<bool>,
    /// Lowest frame index not yet fused. Arrivals below it raced past
    /// the reorder window and are discarded (fusing them again would
    /// emit a frame twice, out of order).
    frontier: usize,
    /// Accumulated per-fused-frame series, ascending frame order.
    frame_numbers: Vec<usize>,
    cameras_reporting: Vec<usize>,
    raw_matrices: Vec<LookAtMatrix>,
    emotion_frames: Vec<Vec<EmotionEstimate>>,
    /// Stage-2 video composition analysis, fed camera 0's monitor
    /// frames as they arrive (`None` when `parse_video` is off).
    parser: Option<VideoParser>,
    /// Mirror of `frontier` the observability heartbeat reads as the
    /// `session.watermark_frame` gauge, and the per-camera ingest
    /// counts the feeds keep.
    vitals: Arc<SessionVitals>,
    lineage: LineageTracer,
    occupancy: Gauge,
    evictions: Counter,
    late: Counter,
    fused: Counter,
    fusion_seconds: Histogram,
    lookat_tests: Counter,
}

impl Sequencer {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cameras: usize,
        participants: usize,
        camera_poses: Vec<Iso3>,
        config: PipelineConfig,
        vitals: Arc<SessionVitals>,
        lineage: LineageTracer,
        outputs: Receiver<WorkerOutput>,
        telemetry: &Telemetry,
    ) -> Self {
        Sequencer {
            vitals,
            lineage,
            cameras,
            participants,
            reorder_window: config.streaming.reorder_window,
            camera_poses,
            config,
            outputs,
            pending: BTreeMap::new(),
            high_water: 0,
            returned: vec![None; cameras],
            live: vec![true; cameras],
            frontier: 0,
            frame_numbers: Vec::new(),
            cameras_reporting: Vec::new(),
            raw_matrices: Vec::new(),
            emotion_frames: Vec::new(),
            parser: config
                .parse_video
                .then(|| VideoParser::new(config.parser).with_telemetry(telemetry.clone())),
            occupancy: telemetry.gauge("session.reorder_occupancy"),
            evictions: telemetry.counter("session.reorder_evictions"),
            late: telemetry.counter("session.late_arrivals"),
            fused: telemetry.counter("session.frames_fused"),
            fusion_seconds: telemetry.histogram("fusion_seconds"),
            lookat_tests: telemetry.counter("lookat_tests"),
        }
    }

    /// Takes in every lane output that has arrived so far.
    fn drain(&mut self) {
        for (live, alive) in self.live.iter_mut().zip(&self.vitals.cameras_alive) {
            *live = alive.load(Ordering::Acquire);
        }
        while let Ok(out) = self.outputs.try_recv() {
            self.insert(out);
        }
    }

    fn insert(&mut self, out: WorkerOutput) {
        self.returned[out.camera] = self.returned[out.camera].max(Some(out.index));
        // Camera 0's lane returns its outputs in index order, so its
        // monitor frames reach the parser in frame order; frames the
        // lane never returned (shed under drop-oldest) are skipped.
        // Late frames are parsed too: the video is camera 0's
        // recording, whatever fusion did with them.
        if let (Some(parser), Some(frame)) = (self.parser.as_mut(), out.monitor) {
            parser.push(&frame);
        }
        if out.index < self.frontier {
            // The frame was already fused without this camera.
            self.late.incr();
            return;
        }
        self.high_water = self.high_water.max(out.index);
        let slots = self
            .pending
            .entry(out.index)
            .or_insert_with(|| (0..self.cameras).map(|_| None).collect());
        slots[out.camera] = Some(out.output);
        self.occupancy.set(self.pending.len() as f64);
    }

    /// Fuses every frame that is complete — or, when `force` is set or
    /// the leader camera has raced more than `reorder_window` frames
    /// ahead, fuses the oldest pending frame with whichever cameras
    /// reported. A frame that a live lane has ingested but not yet
    /// returned is never overdue. Results always accumulate in
    /// ascending frame order.
    ///
    /// Fusion costs microseconds per frame, so ready frames fuse here,
    /// on the calling thread, sharing one look-at scratch.
    fn fuse_ready(&mut self, force: bool) {
        let fused_before = self.frame_numbers.len();
        let n = self.participants;
        let mut scratch = LookAtScratch::new();
        while let Some(entry) = self.pending.first_entry() {
            let frame = *entry.key();
            let arrived = entry.get().iter().filter(|s| s.is_some()).count();
            let complete = arrived == self.cameras;
            // A frame that a live lane has ingested but returned nothing
            // at or past is not overdue: its input is queued or being
            // extracted.
            let overdue = self.high_water.saturating_sub(frame) > self.reorder_window
                && !(0..self.cameras).any(|c| {
                    self.live[c]
                        && self.vitals.ingested[c].load(Ordering::Acquire) > frame as u64
                        && self.returned[c].is_none_or(|r| r < frame)
                });
            if !(complete || overdue || force) {
                break;
            }
            let slots = entry.remove();
            self.frontier = frame + 1;
            if !complete {
                self.evictions.incr();
            }
            // The fuse span is bracketed with lineage stamps (noops when
            // tracing is off).
            let fuse_start = self.lineage.now_s();
            let (matrix, emotions) = self.fuse_one(&slots, &mut scratch);
            self.lineage
                .fused(frame as u64, fuse_start, self.lineage.now_s());
            // Every ordered pair is geometrically tested per frame.
            self.lookat_tests.add((n * n.saturating_sub(1)) as u64);
            self.frame_numbers.push(frame);
            self.cameras_reporting.push(arrived);
            self.raw_matrices.push(matrix);
            self.emotion_frames.push(emotions);
            self.fused.incr();
        }
        self.vitals
            .watermark
            .store(self.frontier as u64, Ordering::Release);
        self.occupancy.set(self.pending.len() as f64);
        if self.frame_numbers.len() > fused_before {
            // Anything still in flight below the frontier can never fuse
            // (late arrivals are discarded on insert); retire it so the
            // tracer's in-flight map stays bounded.
            self.lineage.retire_below(self.frontier as u64);
        }
    }

    /// Identical math to the batch stage-4 inner loop: fuse the
    /// per-camera observations, derive the look-at matrix, and keep the
    /// best-resolved emotion estimate per participant. Carries no
    /// cross-frame state.
    fn fuse_one(
        &self,
        slots: &[Option<CameraFrameOutput>],
        scratch: &mut LookAtScratch,
    ) -> (LookAtMatrix, Vec<EmotionEstimate>) {
        let n = self.participants;
        let mut frame_obs = FrameObservations::default();
        for (c, slot) in slots.iter().enumerate() {
            frame_obs.cameras.push((
                self.camera_poses[c],
                slot.as_ref()
                    .map_or_else(Vec::new, |o| o.observations.clone()),
            ));
        }
        let matrix = self.fusion_seconds.time(|| {
            let poses = fuse_frame(&frame_obs, &self.config.fusion);
            LookAtMatrix::from_poses_with(n, &poses, &self.config.lookat, scratch)
        });

        // Per person, keep the emotion estimate from the camera with
        // the largest apparent face (closest, best-resolved view).
        let mut best: Vec<Option<(Vec<f64>, f64, f64)>> = vec![None; n];
        for slot in slots {
            let Some(output) = slot else { continue };
            for (person, probs, conf, radius) in &output.emotions {
                if *person >= n {
                    continue;
                }
                if best[*person].as_ref().is_none_or(|(_, _, r)| radius > r) {
                    best[*person] = Some((probs.clone(), *conf, *radius));
                }
            }
        }
        let emotions: Vec<EmotionEstimate> = best
            .into_iter()
            .enumerate()
            .filter_map(|(person, b)| {
                b.map(|(probabilities, confidence, _)| EmotionEstimate {
                    person,
                    probabilities,
                    confidence,
                })
            })
            .collect();
        (matrix, emotions)
    }
}

std::thread_local! {
    /// This thread's extraction arena: every Phase-A chunk that runs on
    /// the thread reuses its LBP/MLP buffers, so the steady-state
    /// classify path allocates nothing inside the kernels.
    static ARENA: Cell<Option<ExtractArena>> = const { Cell::new(None) };
}

/// Classifies one frame's identified faces in a single batched pass
/// through the calling thread's [`ExtractArena`], returning the
/// session's `(person, probabilities, confidence, radius)` tuples in
/// face order.
///
/// Bit-identical per face to the emotion kernels' one-face oracles (the
/// batched kernels keep their operation order per sample — see
/// `dievent-emotion`), so how a lane's batch is chunked never changes
/// a probability.
fn classify_identified(
    clf: &EmotionClassifier,
    faces: &[(usize, f64, &GrayFrame)],
) -> Vec<(usize, Vec<f64>, f64, f64)> {
    if faces.is_empty() {
        return Vec::new();
    }
    // Taken, not borrowed: a nested call on this thread gets a fresh
    // arena instead of a borrow panic.
    let mut arena = ARENA.take().unwrap_or_default();
    let patches: Vec<&GrayFrame> = faces.iter().map(|&(_, _, patch)| patch).collect();
    let preds = clf.classify_batch_with(&patches, &mut arena);
    let classified = faces
        .iter()
        .enumerate()
        .map(|(i, &(person, radius, _))| {
            let (_, confidence) = preds.top(i);
            (person, preds.probabilities(i).to_vec(), confidence, radius)
        })
        .collect();
    ARENA.set(Some(arena));
    classified
}

struct CameraStage {
    camera_index: usize,
    camera: PinholeCamera,
    config: ExtractorConfig,
    seats: Arc<Vec<(usize, Vec3)>>,
    classifier: Option<Arc<EmotionClassifier>>,
    telemetry: Telemetry,
    monitor: bool,
    extractor: Option<FeatureExtractor>,
    dropped: Counter,
    classified: Counter,
    lineage: LineageTracer,
    frames: usize,
}

impl CameraStage {
    #[allow(clippy::too_many_arguments)]
    fn new(
        camera_index: usize,
        camera: PinholeCamera,
        config: ExtractorConfig,
        seats: Arc<Vec<(usize, Vec3)>>,
        classifier: Option<Arc<EmotionClassifier>>,
        telemetry: Telemetry,
        monitor: bool,
        lineage: LineageTracer,
    ) -> Self {
        let label = camera_index.to_string();
        let labels = &[("camera", label.as_str())][..];
        CameraStage {
            dropped: telemetry.counter_with("detections_dropped", labels),
            classified: telemetry.counter_with("emotion_classifications", labels),
            camera_index,
            camera,
            config,
            seats,
            classifier,
            telemetry,
            monitor,
            extractor: None,
            lineage,
            frames: 0,
        }
    }

    /// Builds the camera's extractor from its first raw frame, enrolling
    /// participants by associating that frame's detections to seats by
    /// projected position (the paper's §II-D-1 external seating plan).
    fn build_extractor(&mut self, first_frame: &GrayFrame) {
        let mut extractor = FeatureExtractor::new(self.config, self.camera, FaceGallery::default());
        // The probe runs before telemetry is attached: every face misses
        // the still-empty gallery, and those misses are not
        // `identity_misses`.
        let probe = extractor.analyze(first_frame);
        for (detection, _, patch) in probe.faces() {
            let mut best: Option<(usize, f64)> = None;
            for &(person, seat_head) in self.seats.iter() {
                if let Some(proj) = self.camera.project(seat_head) {
                    let d = (proj.pixel.x - detection.cx).hypot(proj.pixel.y - detection.cy);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((person, d));
                    }
                }
            }
            // Only trust unambiguous associations.
            if let Some((person, d)) = best {
                if d < detection.radius * 2.0 {
                    extractor
                        .gallery_mut()
                        .enroll(PersonId(person), detection, patch);
                }
            }
        }
        extractor.attach_telemetry(&self.telemetry, &self.camera_index.to_string());
        self.extractor = Some(extractor);
    }

    /// Runs one batch of the lane's inputs — a batch of one included —
    /// in two phases. Phase A (pure: detection, landmarks, pose,
    /// recognition, emotion classification) fans contiguous frame
    /// chunks across the pool; a lone chunk runs inline. Phase B
    /// (stateful: tracker, pose carry-forward) integrates the results
    /// in input order, and pose observations pass through. Outputs do
    /// not depend on how inputs were batched, because Phase A carries
    /// no cross-frame state and Phase B runs in input order.
    fn process_batch(
        &mut self,
        pool: &ThreadPool,
        items: Vec<LaneInput>,
        parent_span: Option<u64>,
    ) -> Result<Vec<WorkerOutput>, DiEventError> {
        // The camera's first raw frame builds the extractor.
        if self.extractor.is_none() {
            if let Some(frame) = items.iter().find_map(|(_, input)| match input {
                SessionInput::Frame(frame) => Some(frame),
                SessionInput::PoseObservations(_) => None,
            }) {
                self.build_extractor(frame);
            }
        }

        // Phase A (pure): one task per contiguous frame chunk, so
        // scratch buffers are reused across a chunk's frames instead of
        // reallocated per frame.
        let chunk = items.len().div_ceil(pool.threads().max(1) * 2).max(1);
        let pooled = items.len() > chunk;
        let analyzed: Vec<Option<Analyzed>> = pool
            .parallel_chunk_map(&items, chunk, |offset, chunk_items| {
                self.extract_chunk(pooled, parent_span, offset, chunk_items)
            })
            .map_err(|_| DiEventError::PoolWorkerPanicked)?;

        // Phase B (stateful, in input order).
        let mut outputs = Vec::with_capacity(items.len());
        for ((index, input), analyzed) in items.into_iter().zip(analyzed) {
            outputs.push(match (input, analyzed) {
                (SessionInput::Frame(_), Some(done)) => self.integrate_analyzed(index, done),
                // Pose observations pass through: extraction is a
                // zero-width span. A frame lands here only without an
                // extractor, which the camera's first raw frame always
                // builds.
                (input, _) => {
                    self.lineage.extract_start(self.camera_index, index as u64);
                    self.lineage.extract_end(self.camera_index, index as u64);
                    let observations = match input {
                        SessionInput::PoseObservations(observations) => observations,
                        SessionInput::Frame(_) => Vec::new(),
                    };
                    WorkerOutput {
                        camera: self.camera_index,
                        index,
                        output: CameraFrameOutput {
                            observations,
                            emotions: Vec::new(),
                        },
                        monitor: None,
                    }
                }
            });
        }
        Ok(outputs)
    }

    /// The Phase-A body for one contiguous chunk of a batch: analyze,
    /// then batch-classify every identified face, on whatever thread
    /// runs the chunk. A chunk that runs as a pool task opens a
    /// `camera.extract_chunk` span; a lone chunk runs inline and opens
    /// none, because a telemetry domain keeps every span record for its
    /// whole life. `lint.toml` names this function under
    /// `telemetry_coverage`, so a refactor that drops the span fails
    /// the lint, not just the dashboards.
    fn extract_chunk(
        &self,
        pooled: bool,
        parent_span: Option<u64>,
        offset: usize,
        chunk_items: &[LaneInput],
    ) -> Vec<Option<Analyzed>> {
        let _span = pooled.then(|| {
            let mut span = self
                .telemetry
                .span_under("camera.extract_chunk", parent_span);
            span.set("camera", self.camera_index);
            span.set("offset", offset);
            span.set("frames", chunk_items.len());
            span
        });
        chunk_items
            .iter()
            .map(|(index, input)| {
                let SessionInput::Frame(frame) = input else {
                    return None;
                };
                // Compute starts here; the matching end stamp lands in
                // `integrate_analyzed`, covering the stateful tail of
                // extraction too.
                self.lineage.extract_start(self.camera_index, *index as u64);
                let extractor = self.extractor.as_ref()?;
                // Quarter-resolution monitor stream for parsing.
                let monitor = self.monitor.then(|| frame.downsample2().downsample2());
                let raw = extractor.analyze(frame);
                let emotions = match self.classifier.as_deref() {
                    Some(clf) => {
                        let faces: Vec<(usize, f64, &GrayFrame)> = raw
                            .identified_faces()
                            .map(|(person, radius, patch)| (person.0, radius, patch))
                            .collect();
                        classify_identified(clf, &faces)
                    }
                    None => Vec::new(),
                };
                Some(Analyzed {
                    raw,
                    monitor,
                    emotions,
                })
            })
            .collect()
    }

    /// Stateful phase for one [`Analyzed`] frame: integrates the pure
    /// results through the tracker and assembles the sequencer's input.
    fn integrate_analyzed(&mut self, index: usize, done: Analyzed) -> WorkerOutput {
        let (obs, camera) = match self.extractor.as_mut() {
            Some(extractor) => (extractor.integrate(done.raw), *extractor.camera()),
            // Unreachable: phase A only analyzes once the extractor
            // exists.
            None => (Vec::new(), self.camera),
        };
        let observations = self.assemble(&camera, &obs);
        self.classified.add(done.emotions.len() as u64);
        self.frames += 1;
        self.lineage.extract_end(self.camera_index, index as u64);
        WorkerOutput {
            camera: self.camera_index,
            index,
            output: CameraFrameOutput {
                observations,
                emotions: done.emotions,
            },
            monitor: done.monitor,
        }
    }

    /// Turns one frame's integrated face observations into fusion
    /// inputs: a full pose when available, otherwise a position-only
    /// sighting reconstructed from the detection's apparent radius.
    fn assemble(&self, camera: &PinholeCamera, obs: &[FaceObservation]) -> Vec<CameraObservation> {
        let head_radius_m = self.config.pose.head_radius_m;
        let mut observations = Vec::new();
        for o in obs {
            let Some((person, _dist)) = o.identity else {
                // An unattributed detection carries no usable gaze.
                self.dropped.incr();
                continue;
            };
            if let Some(pose) = &o.pose {
                observations.push(CameraObservation {
                    person: person.0,
                    head_cam: pose.head_cam,
                    gaze_cam: Some(pose.gaze_cam),
                    weight: 1.0,
                });
            } else {
                // Position-only sighting (face turned away):
                // reconstruct camera-frame position from the detection
                // via the depth-from-radius model.
                let k = &camera.intrinsics;
                let z = k.fx * head_radius_m / o.detection.radius;
                observations.push(CameraObservation {
                    person: person.0,
                    head_cam: Vec3::new(
                        (o.detection.cx - k.cx) / k.fx * z,
                        (o.detection.cy - k.cy) / k.fy * z,
                        z,
                    ),
                    gaze_cam: None,
                    weight: 0.5,
                });
            }
        }
        observations
    }
}

/// One frame's pure-phase result inside
/// [`CameraStage::process_batch`]: everything computed in Phase A,
/// ready for in-order integration.
struct Analyzed {
    raw: FrameRaw,
    monitor: Option<GrayFrame>,
    /// `(person, probabilities, confidence, apparent_radius)`, in face
    /// order.
    emotions: Vec<(usize, Vec<f64>, f64, f64)>,
}

/// Worker poll interval: how often a blocked worker re-checks the
/// shutdown flag.
const WORKER_POLL: Duration = Duration::from_millis(50);

fn camera_worker(
    mut stage: CameraStage,
    stage_span: Option<u64>,
    pool: ThreadPool,
    rx: Receiver<LaneInput>,
    out: Sender<WorkerOutput>,
    shutdown: Arc<AtomicBool>,
    pool_panic: Arc<AtomicBool>,
) {
    let telemetry = stage.telemetry.clone();
    let mut span = telemetry.span_under("camera.extract", stage_span);
    span.set("camera", stage.camera_index);
    let chunk_parent = span.id();
    loop {
        match rx.recv_timeout(WORKER_POLL) {
            Ok(item) => {
                // Batch whatever else is already queued: a backlog fans
                // out across the pool as frame chunks instead of
                // draining one by one.
                let mut batch = vec![item];
                while let Ok(next) = rx.try_recv() {
                    batch.push(next);
                }
                if !run_batch(&mut stage, &pool, batch, chunk_parent, &out, &pool_panic) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Relaxed) {
                    // Finish was requested while a producer still holds
                    // a feed: drain what is queued, then exit.
                    let mut batch = Vec::new();
                    while let Ok(item) = rx.try_recv() {
                        batch.push(item);
                    }
                    if !batch.is_empty() {
                        run_batch(&mut stage, &pool, batch, chunk_parent, &out, &pool_panic);
                    }
                    break;
                }
            }
        }
    }
    span.set("frames", stage.frames);
}

/// Processes one batch and forwards the outputs. Returns `false` when
/// the session hung up or a pool task panicked (recorded in
/// `pool_panic` for finish to surface).
fn run_batch(
    stage: &mut CameraStage,
    pool: &ThreadPool,
    batch: Vec<LaneInput>,
    chunk_parent: Option<u64>,
    out: &Sender<WorkerOutput>,
    pool_panic: &AtomicBool,
) -> bool {
    let Ok(outputs) = stage.process_batch(pool, batch, chunk_parent) else {
        pool_panic.store(true, Ordering::SeqCst);
        return false;
    };
    for output in outputs {
        // A send failure means the session is gone; processing further
        // frames would be pointless.
        if out.send(output).is_err() {
            return false;
        }
    }
    true
}

/// A live streaming analysis session. See the [module](self) docs.
pub struct PipelineSession {
    config: PipelineConfig,
    telemetry: Telemetry,
    scenario_name: String,
    spec: VideoSpec,
    participants: usize,
    cameras: usize,
    fps: f64,
    /// One extraction lane thread per camera.
    lanes: Vec<std::thread::JoinHandle<()>>,
    /// Internal feeds for [`push_frame`](Self::push_frame); `None` once
    /// taken or closed.
    feeds: Vec<Option<CameraFeed>>,
    sequencer: Sequencer,
    /// Cursor into the sequencer's accumulators for [`poll`](Self::poll).
    emitted: usize,
    shutdown: Arc<AtomicBool>,
    /// The session's thread pool: the shared global pool by default
    /// (`pool_threads: 0`), a private one otherwise.
    pool: ThreadPool,
    /// Cursor over the pool's monotonic counters: the heartbeat
    /// publishes incremental deltas mid-run, finish publishes the
    /// remainder — each increment counted exactly once.
    pool_cursor: Arc<PoolCursor>,
    /// Set by a camera worker whose pool batch panicked.
    pool_panic: Arc<AtomicBool>,
    /// Uptime / watermark / per-camera liveness, published as gauges by
    /// the plane's heartbeat (and once at finish).
    vitals: Arc<SessionVitals>,
    /// Per-frame lineage tracer (a no-op handle unless
    /// `config.observe.trace_lineage` is set). Clones live in every
    /// feed, camera stage, and the sequencer; this handle builds the
    /// final report at finish.
    lineage: LineageTracer,
    /// The live observability plane (`None` when `config.observe` is
    /// inactive). Taken before `finish_with` destructures the session;
    /// its own `Drop` joins the plane threads if the session is simply
    /// dropped.
    plane: Option<LivePlane>,
    run_span: SpanGuard,
    extraction_span: Option<SpanGuard>,
}

impl DiEventPipeline {
    /// Opens a streaming session over the given scenario's rig.
    ///
    /// Validates the configuration (including the streaming settings)
    /// and the scenario shape: at least one camera, a positive frame
    /// rate. Spawns one extraction lane thread per camera, named
    /// `dievent-cam-{c}`; a failed spawn returns
    /// [`DiEventError::CameraThreadSpawn`].
    #[must_use = "dropping the result discards the opened session or its error"]
    pub fn session(&self, scenario: &Scenario) -> Result<PipelineSession, DiEventError> {
        PipelineSession::open(self, scenario)
    }
}

impl PipelineSession {
    fn open(pipeline: &DiEventPipeline, scenario: &Scenario) -> Result<Self, DiEventError> {
        let config = *pipeline.config();
        config.validate()?;
        let cameras = scenario.rig.len();
        if cameras == 0 {
            return Err(DiEventError::InvalidConfig(
                "scenario has no cameras".into(),
            ));
        }
        let fps = scenario.spec.fps;
        if fps.is_nan() || fps <= 0.0 {
            return Err(DiEventError::InvalidConfig(format!(
                "frame rate must be > 0, got {fps}"
            )));
        }
        let participants = scenario.participants.len();
        let telemetry = pipeline.telemetry().clone();
        telemetry.gauge("participants").set(participants as f64);
        telemetry.gauge("cameras").set(cameras as f64);

        let mut run_span = telemetry.span("pipeline.run");
        run_span.set("cameras", cameras);
        run_span.set("participants", participants);
        let extraction_span = telemetry.span("stage.extraction");
        let stage_id = extraction_span.id();

        let seats: Arc<Vec<(usize, Vec3)>> = Arc::new(
            scenario
                .participants
                .iter()
                .map(|p| (p.index, p.seat_head))
                .collect(),
        );
        let classifier = pipeline.classifier();
        let camera_poses: Vec<Iso3> = scenario.rig.cameras.iter().map(|c| c.pose).collect();
        // One pool shared by every camera lane: N cameras fanning frame
        // chunks produce tasks for a single set of workers, never
        // `cameras × threads` threads.
        let pool = if config.pool_threads == 0 {
            ThreadPool::global().clone()
        } else {
            ThreadPool::new(config.pool_threads)
        };
        let pool_cursor = Arc::new(PoolCursor::new(pool.stats()));
        let pool_panic = Arc::new(AtomicBool::new(false));
        let vitals = Arc::new(SessionVitals::new(cameras));
        let lineage = if config.observe.trace_lineage {
            LineageTracer::enabled(&telemetry, cameras, LINEAGE_RESERVOIR)
        } else {
            LineageTracer::disabled()
        };
        let (out_tx, out_rx) = channel::unbounded();
        let sequencer = Sequencer::new(
            cameras,
            participants,
            camera_poses,
            config,
            Arc::clone(&vitals),
            lineage.clone(),
            out_rx,
            &telemetry,
        );
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut lanes = Vec::with_capacity(cameras);
        let mut feeds = Vec::with_capacity(cameras);
        for c in 0..cameras {
            let (tx, rx) = channel::bounded(config.streaming.channel_capacity);
            let label = c.to_string();
            let labels = &[("camera", label.as_str())][..];
            feeds.push(Some(CameraFeed {
                camera: c,
                frame_size: (scenario.spec.width, scenario.spec.height),
                next_index: 0,
                mode: config.streaming.backpressure,
                tx,
                rx: rx.clone(),
                queue_depth: telemetry.gauge_with("session.queue_depth", labels),
                dropped: telemetry.counter_with("session.frames_dropped", labels),
                lineage: lineage.clone(),
                vitals: Arc::clone(&vitals),
            }));
            let stage = CameraStage::new(
                c,
                scenario.rig.cameras[c],
                config.extractor,
                Arc::clone(&seats),
                classifier.cloned(),
                telemetry.clone(),
                c == 0 && config.parse_video,
                lineage.clone(),
            );
            let out = out_tx.clone();
            let flag = Arc::clone(&shutdown);
            let lane_pool = pool.clone();
            let panic_flag = Arc::clone(&pool_panic);
            let alive = CameraAliveGuard {
                flag: Arc::clone(&vitals),
                camera: c,
            };
            let spawned = std::thread::Builder::new()
                .name(format!("dievent-cam-{c}"))
                .spawn(move || {
                    // The guard clears this camera's liveness flag on
                    // any exit path, including an unwind.
                    let _alive = alive;
                    camera_worker(stage, stage_id, lane_pool, rx, out, flag, panic_flag)
                });
            match spawned {
                Ok(lane) => lanes.push(lane),
                Err(e) => {
                    // Disconnect the lanes already running so they
                    // exit, then join them before reporting.
                    drop(feeds);
                    for lane in lanes {
                        let _ = lane.join();
                    }
                    return Err(DiEventError::CameraThreadSpawn {
                        camera: c,
                        message: e.to_string(),
                    });
                }
            }
        }
        // Only lanes hold output senders: once they all exit the
        // channel disconnects and drains cleanly.
        drop(out_tx);

        // Start the observability plane last, once the lanes it reports
        // on exist. The heartbeat runs on the sampler thread before
        // every rate window: vitals gauges, incremental pool deltas,
        // and a readiness downgrade if a camera lane died or a pool
        // task panicked.
        let plane = if config.observe.is_active() {
            let hb_telemetry = telemetry.clone();
            let hb_vitals = Arc::clone(&vitals);
            let hb_pool = pool.clone();
            let hb_cursor = Arc::clone(&pool_cursor);
            let hb_panic = Arc::clone(&pool_panic);
            // The heartbeat borrows its probe per call instead of
            // owning one: an owned probe would cycle the plane's
            // shared state through its own callback, keeping the pool
            // handle below (and the pool's worker threads) alive past
            // session drop. Wiring it at start — with readiness
            // already true, since the lanes above exist — means the
            // first sampler tick carries the gauges and `/readyz`
            // never reports 503 for an open session.
            let plane = LivePlane::start_with_heartbeat(
                &telemetry,
                LiveOptions {
                    http_addr: config.observe.http_addr,
                    sample_interval: config.observe.sample_interval,
                    ..LiveOptions::default()
                },
                true,
                move |probe| {
                    hb_vitals.publish(&hb_telemetry);
                    hb_cursor.publish(&hb_telemetry, &hb_pool);
                    let healthy = hb_vitals.all_cameras_alive() && !hb_panic.load(Ordering::SeqCst);
                    if !healthy {
                        probe.set_ready(false);
                    }
                },
            )
            .map_err(|e| {
                DiEventError::Observe(format!(
                    "failed to start live plane on {:?}: {e}",
                    config.observe.http_addr
                ))
            })?;
            // The HTTP endpoint serves `GET /lineage` from the same
            // tracer the stages stamp into.
            if lineage.is_enabled() {
                plane.attach_lineage(lineage.clone());
            }
            Some(plane)
        } else {
            None
        };

        Ok(PipelineSession {
            config,
            telemetry,
            scenario_name: scenario.name.clone(),
            spec: scenario.spec,
            participants,
            cameras,
            fps,
            lanes,
            feeds,
            sequencer,
            emitted: 0,
            shutdown,
            pool,
            pool_cursor,
            pool_panic,
            vitals,
            lineage,
            plane,
            run_span,
            extraction_span: Some(extraction_span),
        })
    }

    /// The live observability plane, when `config.observe` is active —
    /// e.g. to resolve the actual bound endpoint after a port-0 bind,
    /// or to read the rate windows sampled so far.
    pub fn observer(&self) -> Option<&LivePlane> {
        self.plane.as_ref()
    }

    /// Number of cameras the session was built for.
    pub fn cameras(&self) -> usize {
        self.cameras
    }

    /// Detaches one feed per camera so independent producer threads can
    /// push concurrently. After detaching,
    /// [`push_frame`](Self::push_frame) on this session returns
    /// [`DiEventError::SessionClosed`]; drop the feeds (or call
    /// [`finish`](Self::finish)) to end the streams.
    #[must_use = "dropping the detached feeds immediately ends every camera stream"]
    pub fn take_feeds(&mut self) -> Result<Vec<CameraFeed>, DiEventError> {
        let feeds: Vec<CameraFeed> = self.feeds.iter_mut().filter_map(Option::take).collect();
        if feeds.len() != self.cameras {
            return Err(DiEventError::SessionClosed);
        }
        Ok(feeds)
    }

    /// Pushes the next input for `camera` — the canonical, typed ingest
    /// point the wire protocol and the wrappers below both funnel into:
    /// enqueues it on the camera's feed under the configured
    /// backpressure policy, then fuses whatever the lanes have returned.
    #[must_use = "an ignored Err means the input was never processed"]
    pub fn push(&mut self, camera: CameraId, input: SessionInput) -> Result<(), DiEventError> {
        if camera.index() >= self.cameras {
            return Err(DiEventError::UnknownCamera {
                camera,
                cameras: self.cameras,
            });
        }
        self.feeds
            .get_mut(camera.index())
            .and_then(Option::as_mut)
            .ok_or(DiEventError::SessionClosed)?
            .push_input(input)?;
        self.sequencer.drain();
        self.sequencer.fuse_ready(false);
        Ok(())
    }

    /// Pushes the next frame for `camera`
    /// (= [`push`](Self::push) with [`SessionInput::Frame`]).
    #[must_use = "an ignored Err means the frame was never processed"]
    pub fn push_frame(&mut self, camera: usize, frame: GrayFrame) -> Result<(), DiEventError> {
        self.push(CameraId::new(camera), SessionInput::Frame(frame))
    }

    /// Pushes pre-extracted pose observations as `camera`'s next frame,
    /// bypassing stage-3 extraction (= [`push`](Self::push) with
    /// [`SessionInput::PoseObservations`]).
    #[must_use = "an ignored Err means the observations were never processed"]
    pub fn push_pose_observations(
        &mut self,
        camera: usize,
        observations: Vec<CameraObservation>,
    ) -> Result<(), DiEventError> {
        self.push(
            CameraId::new(camera),
            SessionInput::PoseObservations(observations),
        )
    }

    /// Closes the session to new input via [`push_frame`](Self::push_frame)
    /// (detached [`CameraFeed`]s end their streams by dropping).
    /// Workers keep draining already-queued frames; call
    /// [`finish`](Self::finish) to collect the analysis.
    pub fn close(&mut self) {
        // A closing session stops being ready before anything else:
        // load balancers must drain it while `/metrics` still answers.
        if let Some(plane) = &self.plane {
            plane.set_ready(false);
        }
        for feed in &mut self.feeds {
            feed.take();
        }
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Drains the incremental results fused since the last poll.
    pub fn poll(&mut self) -> Vec<FrameAnalysis> {
        self.sequencer.drain();
        self.sequencer.fuse_ready(false);
        let out: Vec<FrameAnalysis> = (self.emitted..self.sequencer.frame_numbers.len())
            .map(|i| FrameAnalysis {
                frame: self.sequencer.frame_numbers[i],
                raw_matrix: self.sequencer.raw_matrices[i].clone(),
                emotions: self.sequencer.emotion_frames[i].clone(),
                cameras_reporting: self.sequencer.cameras_reporting[i],
            })
            .collect();
        self.emitted = self.sequencer.frame_numbers.len();
        out
    }

    /// Ends the session: joins the workers, fuses everything still
    /// pending, and runs the remaining pipeline stages (video parsing,
    /// smoothing + multilayer analysis, metadata population). The
    /// returned [`EventAnalysis`] matches the batch entry point's
    /// output when every frame was delivered.
    #[must_use = "dropping the result discards the whole analysis or its error"]
    pub fn finish(self) -> Result<EventAnalysis, DiEventError> {
        self.finish_with(FinishOptions::default())
    }

    /// [`finish`](Self::finish), attaching ground truth for validation
    /// and/or the event's time-invariant context.
    #[must_use = "dropping the result discards the whole analysis or its error"]
    pub fn finish_with(mut self, options: FinishOptions) -> Result<EventAnalysis, DiEventError> {
        // Take the plane out before the session is destructured below
        // (the `..` rest pattern would drop — and join — it blindly).
        let plane = self.plane.take();
        // --- End of ingest: stop workers and collect their outputs. ---
        if let Some(plane) = &plane {
            plane.set_ready(false);
        }
        self.close();
        for (camera, lane) in std::mem::take(&mut self.lanes).into_iter().enumerate() {
            lane.join()
                .map_err(|_| DiEventError::CameraThreadPanicked { camera })?;
        }
        self.sequencer.drain();
        drop(self.extraction_span.take());
        if self.pool_panic.load(Ordering::SeqCst) {
            return Err(DiEventError::PoolWorkerPanicked);
        }

        let PipelineSession {
            config,
            telemetry,
            scenario_name,
            spec,
            participants: n_participants,
            mut run_span,
            mut sequencer,
            fps,
            pool,
            pool_cursor,
            vitals,
            lineage,
            ..
        } = self;

        // --- Stage 2: video composition analysis (monitor stream). ---
        // Shots and key frames were settled as the frames arrived; only
        // the last shot and the scene links remain.
        let structure = {
            let _stage = telemetry.span("stage.parse");
            sequencer.parser.take().map(|parser| {
                let (width, height) = parser
                    .frame_size()
                    .unwrap_or((spec.width / 4, spec.height / 4));
                parser.finish(VideoSpec {
                    width,
                    height,
                    ..spec
                })
            })
        };

        // --- Stage 4: fusion of stragglers + multilayer analysis. ---
        let analysis_stage = telemetry.span("stage.analysis");
        sequencer.fuse_ready(true);
        // Publish the pool activity this session caused. The counters
        // are process-monotonic, so the delta from open is reported
        // (shared-global-pool sessions running concurrently overlap);
        // the cursor ensures activity the heartbeat already published
        // mid-run is not counted twice.
        pool_cursor.publish(&telemetry, &pool);
        vitals.publish(&telemetry);
        let frames = sequencer.frame_numbers.len();
        run_span.set("frames", frames);
        telemetry.gauge("recording_frames").set(frames as f64);

        let raw_matrices = std::mem::take(&mut sequencer.raw_matrices);
        let emotion_frames = std::mem::take(&mut sequencer.emotion_frames);
        let matrices = smooth_matrices(&raw_matrices, config.matrix_smoothing);

        let mut summary = LookAtSummary::new(n_participants);
        for m in &matrices {
            summary.add(m);
        }
        let dominance = dominance_ranking(&summary);

        let overall = fuse_sequence(
            &emotion_frames,
            &OverallEmotionConfig {
                participants: n_participants,
                smoothing: config.emotion_smoothing,
            },
        );

        let episodes = ec_episodes(&matrices, 3);
        let pair_stats = pair_statistics(&matrices, 3);
        let highlights = detect_highlights(&matrices, &overall, &config.highlights);
        let importance = importance_series(&matrices, &overall, &config.importance);
        let video_summary = structure
            .as_ref()
            .map(|s| select_summary(&s.shots, &importance, &config.summary, &config.importance));

        // `validate_sequence` compares over the common prefix, so an
        // empty ground truth degrades to a zero-frame validation.
        let validation = validate_sequence(&matrices, &options.ground_truth);

        telemetry.counter("ec_episodes").add(episodes.len() as u64);
        drop(analysis_stage);

        // --- Stage 5: metadata repository. ---
        let repository = {
            let _stage = telemetry.span("stage.metadata");
            let mut repository = MetadataRepository::in_memory();
            repository.attach_telemetry(&telemetry);
            populate_repository(
                &repository,
                &scenario_name,
                n_participants,
                sequencer.cameras,
                frames,
                fps,
                options.context.as_ref(),
                &matrices,
                &overall,
                &structure,
                &highlights,
            )?;
            repository
        };

        // Close the run span, then retire the observability plane: one
        // last sample so the final window covers the tail of the run,
        // a bounded join of its threads, and the windowed-rate
        // trajectory for the report. This happens before the telemetry
        // snapshot so the plane's own counters land in it.
        drop(run_span);
        let rate_windows: Vec<RateWindow> = match plane {
            Some(mut plane) => {
                plane.sample_now();
                plane.shutdown_join(Duration::from_secs(2));
                plane.windows(None)
            }
            None => Vec::new(),
        };
        // The lineage report is built after the final fuse above, so
        // every fused frame's waterfall is in; the disabled tracer
        // yields `None`.
        let lineage = lineage.report();
        let telemetry_report = telemetry.report();
        let timings = StageTimings::from_report(&telemetry_report);

        Ok(EventAnalysis {
            participants: n_participants,
            fps,
            raw_matrices,
            matrices,
            summary,
            dominance,
            overall,
            episodes,
            pair_stats,
            highlights,
            importance,
            structure,
            video_summary,
            validation,
            repository,
            timings,
            telemetry: telemetry_report,
            rate_windows,
            lineage,
            context: options.context,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn populate_repository(
    repo: &MetadataRepository,
    scenario_name: &str,
    participants: usize,
    cameras: usize,
    frames: usize,
    fps: f64,
    context: Option<&TimeInvariantContext>,
    matrices: &[LookAtMatrix],
    overall: &[dievent_analysis::overall_emotion::OverallEmotion],
    structure: &Option<VideoStructure>,
    highlights: &[Highlight],
) -> Result<(), DiEventError> {
    let duration = frames as f64 / fps;
    let mut event = MetaRecord::new(RecordKind::Event)
        .with_span(0.0, duration)
        .with_attr("name", scenario_name)
        .with_attr("participants", participants)
        .with_attr("cameras", cameras)
        .with_attr("frames", frames);
    if let Some(ctx) = context {
        event = event
            .with_attr("location", ctx.location.as_str())
            .with_attr("date", ctx.date.as_str())
            .with_attr("occasion", ctx.occasion.as_str());
        if let Some(t) = ctx.temperature_c {
            event = event.with_attr("temperature_c", t);
        }
        if let Ok(payload) = serde_json::to_value(ctx) {
            event = event.with_payload(payload);
        }
    }
    repo.insert(event)?;

    if let Some(s) = structure {
        for (i, scene) in s.scenes.iter().enumerate() {
            let (f0, f1) = scene.frame_span(&s.shots);
            repo.insert(
                MetaRecord::new(RecordKind::Scene)
                    .with_span(f0 as f64 / fps, f1 as f64 / fps)
                    .with_attr("scene", i),
            )?;
        }
        for (i, shot) in s.shots.iter().enumerate() {
            repo.insert(
                MetaRecord::new(RecordKind::Shot)
                    .with_span(shot.start as f64 / fps, shot.end as f64 / fps)
                    .with_attr("shot", i)
                    .with_attr("keyframes", s.keyframes[i].len()),
            )?;
        }
    }

    for (f, (m, o)) in matrices.iter().zip(overall).enumerate() {
        let t = f as f64 / fps;
        repo.insert(
            MetaRecord::new(RecordKind::FrameAnalysis)
                .with_span(t, t + 1.0 / fps)
                .with_attr("frame", f)
                .with_attr("looks", m.count_ones())
                .with_attr("eye_contacts", m.eye_contacts().len())
                .with_attr("oh", o.overall_happiness)
                .with_attr("valence", o.valence),
        )?;
    }

    for h in highlights {
        let t = h.frame as f64 / fps;
        let kind = match &h.kind {
            HighlightKind::EyeContactStart { .. } => "ec",
            HighlightKind::EmotionShift { .. } => "emotion",
        };
        repo.insert(
            MetaRecord::new(RecordKind::Highlight)
                .with_span(t, t)
                .with_attr("frame", h.frame)
                .with_attr("kind", kind),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::Recording;

    fn quick_config() -> PipelineConfig {
        PipelineConfig {
            classify_emotions: false,
            parse_video: false,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn session_rejects_unknown_camera_and_closed_input() {
        let recording = Recording::capture(Scenario::two_camera_dinner(4, 1));
        let pipeline = DiEventPipeline::new(quick_config());
        let mut session = pipeline.session(&recording.scenario).expect("session");
        let frame = recording.frame(0, 0);
        assert_eq!(
            session.push_frame(9, frame.clone()),
            Err(DiEventError::UnknownCamera {
                camera: CameraId::new(9),
                cameras: 2
            })
        );
        session.close();
        assert_eq!(
            session.push_frame(0, frame),
            Err(DiEventError::SessionClosed)
        );
    }

    #[test]
    fn incremental_poll_emits_each_frame_once_in_order() {
        let recording = Recording::capture(Scenario::two_camera_dinner(6, 2));
        let pipeline = DiEventPipeline::new(quick_config());
        let mut session = pipeline.session(&recording.scenario).expect("session");
        let mut seen = Vec::new();
        for f in 0..6 {
            for c in 0..2 {
                session.push_frame(c, recording.frame(c, f)).expect("push");
            }
            // The lanes extract off this thread: poll until the frame
            // fuses.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while seen.len() <= f && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                seen.extend(session.poll());
            }
        }
        seen.extend(session.poll());
        let frames: Vec<usize> = seen.iter().map(|a| a.frame).collect();
        assert_eq!(frames, (0..6).collect::<Vec<_>>());
        assert!(seen.iter().all(|a| a.cameras_reporting == 2));
        let analysis = session.finish().expect("finish");
        assert_eq!(analysis.matrices.len(), 6);
        for (emitted, fused) in seen.iter().zip(&analysis.raw_matrices) {
            assert_eq!(&emitted.raw_matrix, fused);
        }
    }

    /// Block ingest loses nothing to eviction: camera 0 runs 40 frames
    /// ahead while camera 1's lane has ingested every frame and returned
    /// none. A window-only rule would fuse frames 0..=7 without camera 1
    /// and discard its outputs for them as late.
    #[test]
    fn sequencer_waits_for_inputs_a_live_lane_has_ingested() {
        const FRAMES: usize = 41;
        let telemetry = Telemetry::enabled();
        let vitals = Arc::new(SessionVitals::new(2));
        let (tx, rx) = channel::unbounded();
        let mut sequencer = Sequencer::new(
            2,
            2,
            vec![Iso3::IDENTITY; 2],
            quick_config(),
            Arc::clone(&vitals),
            LineageTracer::disabled(),
            rx,
            &telemetry,
        );
        let send = |camera| {
            for index in 0..FRAMES {
                let output = CameraFrameOutput {
                    observations: Vec::new(),
                    emotions: Vec::new(),
                };
                let sent = tx.send(WorkerOutput {
                    camera,
                    index,
                    output,
                    monitor: None,
                });
                assert!(sent.is_ok(), "the sequencer holds the receiver");
            }
        };
        for ingested in &vitals.ingested {
            ingested.store(FRAMES as u64, Ordering::Release);
        }
        send(0);
        sequencer.drain();
        sequencer.fuse_ready(false);
        assert_eq!(
            sequencer.frame_numbers,
            Vec::<usize>::new(),
            "camera 1 still holds every frame"
        );

        send(1);
        sequencer.drain();
        sequencer.fuse_ready(false);
        assert_eq!(sequencer.frame_numbers, (0..FRAMES).collect::<Vec<_>>());
        assert!(sequencer.cameras_reporting.iter().all(|&c| c == 2));
        assert_eq!(
            telemetry.report().counter("session.reorder_evictions"),
            Some(0)
        );
    }

    #[test]
    fn pose_observation_ingest_bypasses_extraction() {
        let scenario = Scenario::two_camera_dinner(5, 3);
        let gt = scenario.simulate();
        let pipeline = DiEventPipeline::new(quick_config());
        let mut session = pipeline.session(&scenario).expect("session");
        for snap in &gt.snapshots {
            for (c, cam) in scenario.rig.cameras.iter().enumerate() {
                let to_cam = cam.extrinsics();
                let obs: Vec<CameraObservation> = snap
                    .states
                    .iter()
                    .enumerate()
                    .map(|(i, st)| CameraObservation {
                        person: i,
                        head_cam: to_cam.transform_point(st.head),
                        gaze_cam: Some(to_cam.transform_dir(st.gaze)),
                        weight: 1.0,
                    })
                    .collect();
                session.push_pose_observations(c, obs).expect("push obs");
            }
        }
        let analysis = session.finish().expect("finish");
        assert_eq!(analysis.matrices.len(), gt.snapshots.len());
        // Ground-truth poses must recover the scripted gaze exactly.
        let looks: usize = analysis.raw_matrices.iter().map(|m| m.count_ones()).sum();
        assert!(looks > 0, "scripted gaze must surface as looks");
    }
}
