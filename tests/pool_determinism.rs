//! Determinism of the session's execution path: the camera lanes and the
//! thread pool may reorder *when* per-frame work runs, but never *what*
//! it computes.
//!
//! The contract under test is the one the whole perf story rests on:
//! stage-3 extraction is split into a pure phase (fanned across the
//! pool as frame chunks, placed by position) and a stateful phase
//! (integrated in frame order), and stage-4 fusion runs in frame order
//! on the thread that pushes or polls — so a run on a wide pool must be **bit-identical** to the most serial
//! configuration (a one-worker pool behind one-slot camera queues), on
//! every output surface of [`EventAnalysis`], and both must reproduce
//! the outputs pinned below.

use dievent_core::{DiEventPipeline, EventAnalysis, PipelineConfig, Recording, StreamingConfig};
use dievent_scene::Scenario;

fn run(recording: &Recording, config: PipelineConfig) -> EventAnalysis {
    DiEventPipeline::new(config)
        .run(recording)
        .expect("pipeline run")
}

/// The most serial configuration a session has: one pool worker, and
/// camera queues that hold one frame, so lanes mostly take batches of
/// one.
fn serial(base: PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        pool_threads: 1,
        streaming: StreamingConfig {
            channel_capacity: 1,
            ..base.streaming
        },
        ..base
    }
}

/// Asserts every comparable output surface of two analyses matches.
fn assert_identical(a: &EventAnalysis, b: &EventAnalysis) {
    assert_eq!(a.raw_matrices, b.raw_matrices, "raw look-at matrices");
    assert_eq!(a.matrices, b.matrices, "smoothed look-at matrices");
    assert_eq!(a.summary.rows(), b.summary.rows(), "summary matrix");
    assert_eq!(a.overall, b.overall, "overall-emotion series");
    assert_eq!(a.episodes, b.episodes, "eye-contact episodes");
    assert_eq!(a.pair_stats, b.pair_stats, "pair statistics");
    assert_eq!(a.highlights, b.highlights, "highlights");
    assert_eq!(a.importance, b.importance, "importance series");
    assert_eq!(a.validation, b.validation, "validation");
    assert_eq!(a.dominance, b.dominance, "dominance ranking");
}

/// FNV-1a over a value's JSON encoding.
fn fnv(value: &impl serde::Serialize) -> u64 {
    serde_json::to_string(value)
        .expect("serializes")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Hashes of `raw_matrices`, `matrices`, `summary.rows()` and
/// `episodes`, the surfaces the pinned constants cover.
fn pinned(a: &EventAnalysis) -> [u64; 4] {
    [
        fnv(&a.raw_matrices),
        fnv(&a.matrices),
        fnv(&a.summary.rows()),
        fnv(&a.episodes),
    ]
}

/// [`pinned`] for the two scenarios below, recorded from a
/// single-threaded run that extracted every frame on the caller's
/// thread and fused without a pool.
const PROTOTYPE_PINNED: [u64; 4] = [
    0xba61_b434_d6dd_289d,
    0x3052_bd25_0694_efbc,
    0xf3b4_bd2b_fff1_cffb,
    0xe2c8_9f8a_bd1e_cd3e,
];
const CLASSIFICATION_PINNED: [u64; 4] = [
    0xeae7_d615_c39d_9b74,
    0x44c6_43b0_8f83_cd84,
    0xbc4a_b5de_abbd_f2b4,
    0xa3a8_4d64_bff5_2461,
];

/// The paper's §III prototype (4 participants, 4 cameras, 610 frames)
/// through the full pixel pipeline: a multi-worker frame pool versus the
/// most serial configuration. `pool_threads: 3` forces real fan-out
/// even on a single-core runner.
#[test]
fn prototype_pool_parallel_is_bit_identical_to_sequential() {
    let recording = Recording::capture(Scenario::prototype());
    let base = PipelineConfig {
        classify_emotions: false,
        parse_video: false,
        ..PipelineConfig::default()
    };
    let parallel = run(
        &recording,
        PipelineConfig {
            pool_threads: 3,
            ..base
        },
    );
    let sequential = run(&recording, serial(base));
    assert_eq!(parallel.matrices.len(), 610, "the paper's frame count");
    assert_identical(&parallel, &sequential);
    assert_eq!(pinned(&sequential), PROTOTYPE_PINNED, "pinned outputs");
}

/// Emotion classification runs in the pool's pure phase with per-chunk
/// scratch buffers; its probabilities must survive parallelism bit for
/// bit too (the prototype test above disables it to stay affordable).
#[test]
fn classification_under_frame_parallelism_is_bit_identical() {
    let recording = Recording::capture(Scenario::two_camera_dinner(48, 7));
    let base = PipelineConfig {
        classify_emotions: true,
        parse_video: true,
        ..PipelineConfig::default()
    };
    let parallel = run(
        &recording,
        PipelineConfig {
            pool_threads: 2,
            ..base
        },
    );
    let sequential = run(&recording, serial(base));
    assert_identical(&parallel, &sequential);
    assert_eq!(pinned(&sequential), CLASSIFICATION_PINNED, "pinned outputs");
}

/// A private pool and the shared global pool are interchangeable:
/// sizing the pool changes scheduling, never results.
#[test]
fn private_pool_equals_global_pool() {
    let recording = Recording::capture(Scenario::two_camera_dinner(32, 5));
    let base = PipelineConfig {
        classify_emotions: false,
        parse_video: false,
        ..PipelineConfig::default()
    };
    let global = run(
        &recording,
        PipelineConfig {
            pool_threads: 0,
            ..base
        },
    );
    let private = run(
        &recording,
        PipelineConfig {
            pool_threads: 4,
            ..base
        },
    );
    assert_identical(&global, &private);
}

/// A run publishes its pool activity into the telemetry report
/// (`pool.tasks`, `pool.threads`, `pool.queue_depth`).
#[test]
fn pool_telemetry_is_published() {
    let recording = Recording::capture(Scenario::two_camera_dinner(16, 3));
    let on = run(
        &recording,
        PipelineConfig {
            classify_emotions: false,
            parse_video: false,
            pool_threads: 2,
            ..PipelineConfig::default()
        },
    );
    let has = |a: &EventAnalysis, name: &str| a.telemetry.counters.iter().any(|c| c.name == name);
    assert!(has(&on, "pool.tasks"), "pool.tasks counter registered");
}
