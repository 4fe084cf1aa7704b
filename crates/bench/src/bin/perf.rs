//! One-shot performance runner: measures the hot paths and writes the
//! numbers to a JSON report (default `BENCH_9.json`; override with
//! `--out FILE` or the first positional argument).
//!
//! Measurements:
//!
//! 1. **End-to-end** — the §III prototype (4 cameras × 610 frames)
//!    through the full default pipeline, on a one-worker pool
//!    ("sequential") vs the shared global pool ("frame-parallel"),
//!    reported as aggregate camera-frames/second plus the speedup.
//! 2. **Emotion kernels** — nanoseconds per 48×48 LBP descriptor for
//!    the vectorized row-sliced kernel *and* the clamped per-pixel
//!    reference oracle, plus nanoseconds per face for the MLP forward
//!    pass scalar vs batched (4 faces per batch, the per-frame shape).
//! 3. **Look-at** — nanoseconds per frame of ray–sphere eye-contact
//!    matrix construction at n ∈ {4, 8, 16} participants (squared-
//!    distance early reject + scratch reuse).
//! 4. **Pool scaling** — a fixed LBP workload fanned across worker
//!    counts 1/2/4/8 (clipped to the host), speedup relative to 1
//!    thread. Thread counts beyond the host's hardware threads are
//!    recorded as explicit *refusal* entries: this runner does not
//!    claim speedups it could not measure.
//! 5. **Observability overhead** — the frame-parallel end-to-end run
//!    repeated with the live observability plane enabled (embedded
//!    metrics endpoint + rate sampler), reported as overhead vs. the
//!    unobserved run. This keeps the "the plane is ~free" claim honest.
//! 6. **Frame lineage** — the frame-parallel run repeated with
//!    per-frame lineage tracing on, reporting the tracer's overhead
//!    plus the per-stage latency attribution (queue-wait / extract /
//!    reorder-hold / fuse p50/p95/p99) it produced.
//!
//! Every number in the JSON is host-relative: compare runs only against
//! the recorded `host_threads` (and treat `"quick": true` as smoke, not
//! benchmark, data).
//!
//! `--quick` shrinks every measurement for CI smoke use (the JSON is
//! still written, flagged with `"quick": true`).
//!
//! `--baseline FILE` compares this run's kernel numbers against a
//! previous report and exits nonzero (printing a delta table) when any
//! kernel regressed more than `--threshold FRAC` (default 0.15) on the
//! same `host_threads`. A baseline from a different host class is
//! skipped with a note, not compared — cross-host deltas are noise.
//!
//! Run with: `cargo run --release -p dievent-bench --bin perf`

use dievent_analysis::{LookAtConfig, LookAtMatrix, LookAtScratch, ParticipantPose};
use dievent_core::{DiEventPipeline, PipelineConfig, Recording};
use dievent_emotion::{
    lbp_feature_vector_reference, lbp_feature_vector_with, Emotion, LbpConfig, LbpScratch, Mlp,
    MlpBatchScratch, MlpConfig, MlpScratch,
};
use dievent_geometry::Vec3;
use dievent_pool::ThreadPool;
use dievent_scene::{render_face_patch, Scenario};
use dievent_video::GrayFrame;
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    // Indices holding flag *values*, so the positional-output fallback
    // doesn't mistake `--baseline FILE` for an output path.
    let consumed: Vec<usize> = ["--out", "--baseline", "--threshold"]
        .iter()
        .filter_map(|n| args.iter().position(|a| a == *n).map(|i| i + 1))
        .collect();
    let out_path = flag_value("--out")
        .or_else(|| {
            args.iter()
                .enumerate()
                .find(|(i, a)| !a.starts_with("--") && !consumed.contains(i))
                .map(|(_, a)| a.clone())
        })
        .unwrap_or_else(|| "BENCH_9.json".to_string());
    let baseline = flag_value("--baseline");
    let threshold = flag_value("--threshold")
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.15);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("perf: host has {threads} hardware thread(s); quick = {quick}");

    // --- 1. End-to-end pipeline, sequential vs frame-parallel. ---
    let scenario = if quick {
        Scenario::two_camera_dinner(40, 11)
    } else {
        Scenario::prototype()
    };
    let recording = Recording::capture(scenario);
    let frames = recording.frames();
    let cameras = recording.cameras();
    // Best-of-N wall clock: single end-to-end runs jitter by ~10% on a
    // busy 1-core host, which would drown the numbers the JSON exists
    // to compare (parallel speedup, observability overhead).
    let e2e_reps = if quick { 1 } else { 3 };
    let run_fps = |config: PipelineConfig| {
        let pipeline = DiEventPipeline::new(config);
        let mut best = f64::INFINITY;
        for _ in 0..e2e_reps {
            let started = Instant::now();
            let analysis = pipeline.run(&recording).expect("pipeline run");
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(analysis.matrices.len(), frames);
            best = best.min(elapsed);
        }
        ((frames * cameras) as f64 / best, best)
    };
    eprintln!("perf: end-to-end sequential ({cameras} cam x {frames} frames)...");
    let (seq_fps, seq_s) = run_fps(PipelineConfig {
        pool_threads: 1,
        ..PipelineConfig::default()
    });
    eprintln!("perf:   {seq_fps:.1} camera-frames/s ({seq_s:.2}s)");
    eprintln!("perf: end-to-end frame-parallel...");
    let (par_fps, par_s) = run_fps(PipelineConfig::default());
    eprintln!("perf:   {par_fps:.1} camera-frames/s ({par_s:.2}s)");
    // Same run, observed: embedded HTTP endpoint bound to a free port
    // plus the 250 ms rate sampler — the configuration a deployment
    // scraping `/metrics` would use.
    eprintln!("perf: end-to-end frame-parallel + live observability plane...");
    let (obs_fps, obs_s) = run_fps(
        PipelineConfig::builder()
            .serve_metrics("127.0.0.1:0".parse().expect("loopback addr"))
            .build()
            .expect("valid config"),
    );
    let obs_overhead = obs_s / par_s - 1.0;
    eprintln!(
        "perf:   {obs_fps:.1} camera-frames/s ({obs_s:.2}s, {:+.1}% vs unobserved)",
        obs_overhead * 100.0
    );
    // Same run with per-frame lineage tracing: every frame is stamped
    // at ingest and each stage boundary, and the final analysis carries
    // the per-stage latency attribution this section records.
    eprintln!("perf: end-to-end frame-parallel + lineage tracing...");
    let lineage_pipeline = DiEventPipeline::new(
        PipelineConfig::builder()
            .trace_lineage(true)
            .build()
            .expect("valid config"),
    );
    let mut lin_s = f64::INFINITY;
    let mut lineage = None;
    for _ in 0..e2e_reps {
        let started = Instant::now();
        let analysis = lineage_pipeline.run(&recording).expect("pipeline run");
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(analysis.matrices.len(), frames);
        if elapsed < lin_s {
            lin_s = elapsed;
            lineage = analysis.lineage;
        }
    }
    let lin_fps = (frames * cameras) as f64 / lin_s;
    let lin_overhead = lin_s / par_s - 1.0;
    let lineage = lineage.expect("lineage report from traced run");
    eprintln!(
        "perf:   {lin_fps:.1} camera-frames/s ({lin_s:.2}s, {:+.1}% vs untraced; {} frames traced)",
        lin_overhead * 100.0,
        lineage.summary.frames_traced
    );

    // --- 2. Emotion kernels: LBP vectorized vs reference, MLP scalar
    // vs batched. ---
    let patch = render_face_patch(Emotion::Happy, 225, 1, 7, 48);
    let lbp_iters = if quick { 200 } else { 2000 };
    let lbp_ns = time_per_iter(lbp_iters, || {
        let config = LbpConfig::default();
        let mut feature = Vec::new();
        let mut scratch = LbpScratch::new();
        let patch = &patch;
        move || {
            lbp_feature_vector_with(black_box(patch), &config, &mut feature, &mut scratch);
            black_box(feature.len());
        }
    });
    eprintln!("perf: lbp 48x48 descriptor (vectorized): {lbp_ns:.0} ns");
    // The clamped per-pixel oracle, same patch — the "before"-style
    // absolute number the vectorized kernel is judged against.
    let lbp_ref_iters = if quick { 50 } else { 500 };
    let lbp_ref_ns = time_per_iter(lbp_ref_iters, || {
        let config = LbpConfig::default();
        let patch = &patch;
        move || {
            black_box(lbp_feature_vector_reference(black_box(patch), &config).len());
        }
    });
    eprintln!(
        "perf: lbp 48x48 descriptor (reference oracle): {lbp_ref_ns:.0} ns ({:.2}x)",
        lbp_ref_ns / lbp_ns
    );

    // MLP forward at the production shape: 944-dim LBP feature, one
    // hidden layer, 7 emotion classes, 4 faces per frame.
    let mlp_faces = 4usize;
    let mlp_dim = LbpConfig::default().feature_len();
    let mlp = Mlp::new(MlpConfig {
        input: mlp_dim,
        hidden: vec![32],
        output: Emotion::COUNT,
        seed: 9,
    });
    let mlp_inputs: Vec<f64> = (0..mlp_faces * mlp_dim)
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let mlp_iters = if quick { 200 } else { 5000 };
    let mlp_scalar_ns = time_per_iter(mlp_iters, || {
        let mut scratch = MlpScratch::new();
        let (mlp, inputs) = (&mlp, &mlp_inputs);
        move || {
            for s in 0..mlp_faces {
                let p = mlp.predict_proba_with(
                    black_box(&inputs[s * mlp_dim..(s + 1) * mlp_dim]),
                    &mut scratch,
                );
                black_box(p[0]);
            }
        }
    }) / mlp_faces as f64;
    let mlp_batched_ns = time_per_iter(mlp_iters, || {
        let mut scratch = MlpBatchScratch::new();
        let (mlp, inputs) = (&mlp, &mlp_inputs);
        move || {
            let p = mlp.predict_proba_batch_with(mlp_faces, black_box(&inputs[..]), &mut scratch);
            black_box(p[0]);
        }
    }) / mlp_faces as f64;
    eprintln!(
        "perf: mlp forward ({mlp_dim}->32->{}, {mlp_faces} faces): scalar {mlp_scalar_ns:.0} ns/face, \
         batched {mlp_batched_ns:.0} ns/face ({:.2}x)",
        Emotion::COUNT,
        mlp_scalar_ns / mlp_batched_ns
    );

    // --- 3. Look-at matrix ns/frame at n in {4, 8, 16}. ---
    let lookat_iters = if quick { 2_000 } else { 50_000 };
    let mut lookat_ns = [0.0_f64; 3];
    for (slot, n) in [4usize, 8, 16].into_iter().enumerate() {
        let poses = ring_poses(n);
        let config = LookAtConfig::default();
        let ns = time_per_iter(lookat_iters, || {
            let poses = poses.clone();
            let mut scratch = LookAtScratch::new();
            move || {
                let m = LookAtMatrix::from_poses_with(n, black_box(&poses), &config, &mut scratch);
                black_box(m.count_ones());
            }
        });
        eprintln!("perf: look-at n={n}: {ns:.0} ns/frame");
        lookat_ns[slot] = ns;
    }

    // --- 4. Pool scaling on a fixed LBP workload. ---
    let patches: Vec<GrayFrame> = (0..if quick { 32 } else { 256 })
        .map(|i| render_face_patch(Emotion::Neutral, 200, i % 8, i as u32, 48))
        .collect();
    let mut scaling = Vec::new();
    let mut base_ms = 0.0_f64;
    let (measured_sizes, refused_sizes) = pool_sizes(threads);
    for k in measured_sizes {
        let pool = ThreadPool::new(k);
        let config = LbpConfig::default();
        // Warm the workers up before timing.
        let _ = pool.parallel_map(&patches, |p| lbp_descriptor_len(p, &config));
        let started = Instant::now();
        let reps = if quick { 2 } else { 10 };
        for _ in 0..reps {
            let lens = pool
                .parallel_map(&patches, |p| lbp_descriptor_len(p, &config))
                .expect("pool map");
            black_box(lens);
        }
        let ms = started.elapsed().as_secs_f64() * 1e3 / reps as f64;
        if base_ms == 0.0 {
            base_ms = ms;
        }
        let speedup = base_ms / ms;
        eprintln!("perf: pool x{k}: {ms:.2} ms/batch (speedup {speedup:.2})");
        scaling.push(json!({ "threads": k, "ms_per_batch": ms, "speedup": speedup }));
    }
    // Honesty records: worker counts beyond the host's hardware threads
    // would only measure oversubscription, not parallel speedup.
    for k in refused_sizes {
        eprintln!(
            "perf: pool x{k}: refused — host has {threads} hardware thread(s); \
             an unmeasured speedup is not a speedup"
        );
        scaling.push(json!({
            "threads": k,
            "refused": true,
            "reason": format!(
                "host has {threads} hardware thread(s); refusing to claim an unmeasured speedup"
            ),
        }));
    }

    let stage_json = |name: &str| match lineage.summary.stage(name) {
        Some(s) => json!({
            "count": s.count,
            "mean_s": s.mean_s,
            "p50_s": s.p50_s,
            "p95_s": s.p95_s,
            "p99_s": s.p99_s,
            "max_s": s.max_s,
        }),
        None => serde_json::Value::Null,
    };
    let report = json!({
        "bench": "BENCH_9",
        "quick": quick,
        "host_threads": threads,
        "kernels": {
            "lbp_vectorized_ns_per_descriptor_48x48": lbp_ns,
            "lbp_reference_ns_per_descriptor_48x48": lbp_ref_ns,
            "lbp_speedup_vs_reference": lbp_ref_ns / lbp_ns,
            "mlp_scalar_ns_per_face": mlp_scalar_ns,
            "mlp_batched_ns_per_face": mlp_batched_ns,
            "mlp_batch_speedup": mlp_scalar_ns / mlp_batched_ns,
            "mlp_faces_per_batch": mlp_faces,
            "mlp_shape": format!("{mlp_dim}->32->{}", Emotion::COUNT),
        },
        "end_to_end": {
            "frames": frames,
            "cameras": cameras,
            "sequential_camera_fps": seq_fps,
            "sequential_seconds": seq_s,
            "frame_parallel_camera_fps": par_fps,
            "frame_parallel_seconds": par_s,
            "speedup": par_fps / seq_fps,
        },
        "observability_plane": {
            "observed_camera_fps": obs_fps,
            "observed_seconds": obs_s,
            "overhead_vs_frame_parallel": obs_overhead,
        },
        "frame_lineage": {
            "traced_camera_fps": lin_fps,
            "traced_seconds": lin_s,
            "overhead_vs_frame_parallel": lin_overhead,
            "frames_traced": lineage.summary.frames_traced,
            "frames_incomplete": lineage.summary.frames_incomplete,
            "exemplars": lineage.exemplars.len(),
            "stages": {
                "queue_wait": stage_json("queue_wait"),
                "extract": stage_json("extract"),
                "reorder_hold": stage_json("reorder_hold"),
                "fuse": stage_json("fuse"),
                "total": stage_json("total"),
            },
        },
        "lbp_ns_per_descriptor_48x48": lbp_ns,
        "lookat_ns_per_frame": {
            "4": lookat_ns[0],
            "8": lookat_ns[1],
            "16": lookat_ns[2],
        },
        "pool_scaling": scaling,
    });
    let rendered = serde_json::to_string_pretty(&report).expect("render json");
    std::fs::write(&out_path, rendered + "\n").expect("write report");
    eprintln!("perf: wrote {out_path}");

    if let Some(baseline_path) = baseline {
        if !check_baseline(&report, &baseline_path, threshold) {
            std::process::exit(1);
        }
    }
}

/// The kernel numbers the `--baseline` guard watches. Paths resolve in
/// both old (BENCH_4/6-era) and current reports; keys absent from the
/// baseline are skipped, so old baselines still guard what they have.
const GUARDED_KERNELS: &[(&str, &[&str])] = &[
    ("lbp ns/descriptor", &["lbp_ns_per_descriptor_48x48"]),
    ("lookat n=4 ns/frame", &["lookat_ns_per_frame", "4"]),
    ("lookat n=8 ns/frame", &["lookat_ns_per_frame", "8"]),
    ("lookat n=16 ns/frame", &["lookat_ns_per_frame", "16"]),
    ("mlp scalar ns/face", &["kernels", "mlp_scalar_ns_per_face"]),
    (
        "mlp batched ns/face",
        &["kernels", "mlp_batched_ns_per_face"],
    ),
];

/// Walks a dotted path into a JSON value.
fn json_f64(v: &serde_json::Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for p in path {
        cur = cur.get(p)?;
    }
    cur.as_f64()
}

/// Compares this run's kernels against `baseline_path`, printing a
/// delta table. Returns `false` (caller exits nonzero) when any kernel
/// regressed by more than `threshold` (fractional, e.g. 0.15 = +15%
/// slower). Mismatched `host_threads` or an unreadable baseline skip
/// the comparison with a note — those deltas would be noise, and the
/// guard refuses to fail (or pass) on numbers it can't compare.
fn check_baseline(report: &serde_json::Value, baseline_path: &str, threshold: f64) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf: baseline {baseline_path} unreadable ({e}); skipping comparison");
            return true;
        }
    };
    let base: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf: baseline {baseline_path} is not JSON ({e}); skipping comparison");
            return true;
        }
    };
    let base_threads = json_f64(&base, &["host_threads"]);
    let cur_threads = json_f64(report, &["host_threads"]);
    if base_threads != cur_threads {
        eprintln!(
            "perf: baseline host_threads {base_threads:?} != current {cur_threads:?}; \
             skipping comparison (cross-host deltas are noise)"
        );
        return true;
    }
    eprintln!(
        "perf: kernel deltas vs {baseline_path} (threshold +{:.0}%):",
        threshold * 100.0
    );
    eprintln!(
        "perf:   {:<22} {:>12} {:>12} {:>9}",
        "kernel", "baseline", "current", "delta"
    );
    let mut ok = true;
    for (label, path) in GUARDED_KERNELS {
        let (Some(was), Some(now)) = (json_f64(&base, path), json_f64(report, path)) else {
            continue;
        };
        let delta = now / was - 1.0;
        let regressed = delta > threshold;
        eprintln!(
            "perf:   {label:<22} {was:>10.0}ns {now:>10.0}ns {:>+8.1}%{}",
            delta * 100.0,
            if regressed { "  REGRESSED" } else { "" }
        );
        ok &= !regressed;
    }
    if !ok {
        eprintln!(
            "perf: kernel regression beyond +{:.0}% — failing",
            threshold * 100.0
        );
    }
    ok
}

/// Average nanoseconds per iteration of the closure `setup` builds.
fn time_per_iter<F: FnMut()>(iters: usize, setup: impl FnOnce() -> F) -> f64 {
    let mut f = setup();
    // Warm-up.
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// One LBP descriptor into fresh buffers, as the pool-scaling workload
/// item: each task allocates its own feature vector and scratch.
fn lbp_descriptor_len(patch: &GrayFrame, config: &LbpConfig) -> usize {
    let mut feature = Vec::new();
    lbp_feature_vector_with(patch, config, &mut feature, &mut LbpScratch::new());
    feature.len()
}

/// Participants on a circle, each gazing at the participant opposite —
/// a dense workload where most rays pass near several heads.
fn ring_poses(n: usize) -> Vec<ParticipantPose> {
    (0..n)
        .map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let head = Vec3::new(a.cos() * 1.2, a.sin() * 1.2, 1.1);
            let target_a = (i + n / 2) as f64 / n as f64 * std::f64::consts::TAU;
            let target = Vec3::new(target_a.cos() * 1.2, target_a.sin() * 1.2, 1.1);
            ParticipantPose {
                person: i,
                head,
                gaze: Some((target - head).normalized()),
                support: 1,
            }
        })
        .collect()
}

/// The scaling ladder 1/2/4/8 (plus the host's own thread count),
/// split into (measurable, refused): counts beyond the host's hardware
/// threads are never measured — they'd record oversubscription and get
/// labelled a "speedup".
fn pool_sizes(max: usize) -> (Vec<usize>, Vec<usize>) {
    let ladder = [1usize, 2, 4, 8];
    let mut measured: Vec<usize> = ladder.iter().copied().filter(|&k| k <= max).collect();
    if !measured.contains(&max) {
        measured.push(max);
        measured.sort_unstable();
    }
    let refused = ladder.iter().copied().filter(|&k| k > max).collect();
    (measured, refused)
}
