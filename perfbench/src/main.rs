//! DiEvent benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scenario-seed <n>] [--unbounded]
//! perfbench steady [--runs N] [--seconds S] [--workloads a,b] [--out FILE] [--compare FILE]
//! ```
//!
//! A run builds its workload's inputs, then repeats set-up + session +
//! finish until `--seconds` is spent, checks every output, and prints
//! one JSON line: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). See `README.md` beside this
//! package for the workloads and metric definitions.

mod calibrate;
mod catalog;
mod inputs;
mod procfs;
mod schedule;
mod stats;
mod steady;
mod trace;
mod traced;
mod workloads;

use dievent_analysis::CameraObservation;
use dievent_core::PipelineConfig;
use dievent_scene::Scenario;
use inputs::{Event, Frames};
use schedule::OpenLoop;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{run_server, run_session, Input, Iteration, Pace};

/// `prototype-live`'s schedule: 100 frame-sets/s, cameras staggered.
pub const LIVE_SCHEDULE: OpenLoop = OpenLoop {
    period: Duration::from_millis(10),
    cameras: 4,
    staggered: true,
};

/// Venues `server-venues` opens and streams.
const SERVER_VENUES: u64 = 3;

/// Frames per camera of each `server-venues` venue.
const SERVER_FRAMES: usize = 400;

/// Guests and frames of `restaurant-pose`: an hour at 25 fps.
const POSE_GUESTS: usize = 8;
const POSE_FRAMES: usize = 90_000;

/// Threads used to render frames before timing.
const RENDER_THREADS: usize = 2;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

/// The workload being run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `prototype-batch`.
    Batch,
    /// `prototype-live`.
    Live,
    /// `restaurant-pose`.
    Pose,
    /// `server-venues`.
    Server,
}

impl Variant {
    /// The workload named `name`: every gated workload, and two that
    /// `BENCHMARK.json` leaves out: `restaurant-pose`, because a third
    /// workload's runs do not fit the time all runs may take, and
    /// `server-venues`, because the program fails its checks there (see
    /// `README.md` beside this package).
    pub fn of(name: &str) -> Option<Variant> {
        Some(match name {
            "prototype-batch" => Variant::Batch,
            "prototype-live" => Variant::Live,
            "restaurant-pose" => Variant::Pose,
            "server-venues" => Variant::Server,
            _ => return None,
        })
    }

    /// The pipeline configuration the workload runs.
    pub fn config(self) -> PipelineConfig {
        match self {
            Variant::Pose => PipelineConfig {
                classify_emotions: false,
                parse_video: false,
                ..PipelineConfig::default()
            },
            _ => PipelineConfig::default(),
        }
    }
}

/// A workload's inputs, built before timing.
pub enum Prepared {
    /// A recording rendered to frames.
    Frames {
        /// Scenario, ground truth and references.
        event: Event,
        /// `frames[c][f]`.
        frames: Frames,
    },
    /// External-tracker pose observations.
    Poses {
        /// Scenario, ground truth and references.
        event: Event,
        /// `obs[f][c]`.
        obs: Vec<Vec<Vec<CameraObservation>>>,
    },
}

impl Prepared {
    /// The scenario, its ground truth and references.
    pub fn event(&self) -> &Event {
        match self {
            Prepared::Frames { event, .. } | Prepared::Poses { event, .. } => event,
        }
    }
}

/// Builds `variant`'s inputs from its scenario, seeded with
/// `scenario_seed` or the workload's fixed default.
fn prepare(variant: Variant, scenario_seed: Option<u64>) -> Prepared {
    let config = variant.config();
    match variant {
        Variant::Batch | Variant::Live => {
            let mut scenario = Scenario::prototype();
            scenario.seed = scenario_seed.unwrap_or(2018);
            let event = Event::new(scenario, &config);
            let frames = inputs::render_all(&event, RENDER_THREADS);
            Prepared::Frames { event, frames }
        }
        Variant::Pose => {
            let event = Event::new(
                Scenario::restaurant_dinner(POSE_GUESTS, POSE_FRAMES, scenario_seed.unwrap_or(7)),
                &config,
            );
            let obs = inputs::pose_observations(&event);
            Prepared::Poses { event, obs }
        }
        Variant::Server => {
            let event = Event::new(
                Scenario::two_camera_dinner(SERVER_FRAMES, scenario_seed.unwrap_or(11)),
                &config,
            );
            let frames = inputs::render_all(&event, RENDER_THREADS);
            Prepared::Frames { event, frames }
        }
    }
}

/// One iteration of `variant` over `prepared`. In process, the traffic
/// keeps within the session's reorder window unless `unbounded` (see
/// [`run_session`]).
pub fn iterate(
    variant: Variant,
    prepared: &Prepared,
    unbounded: bool,
    tracer: &mut Option<trace::Tracer>,
    keep_analysis: bool,
) -> Iteration {
    let config = variant.config();
    match (variant, prepared) {
        (Variant::Batch, Prepared::Frames { event, frames }) => run_session(
            config,
            event,
            Input::Frames(frames),
            Pace::Closed,
            !unbounded,
            tracer,
            keep_analysis,
        ),
        (Variant::Live, Prepared::Frames { event, frames }) => run_session(
            config,
            event,
            Input::Frames(frames),
            Pace::Open(LIVE_SCHEDULE),
            !unbounded,
            tracer,
            keep_analysis,
        ),
        (Variant::Pose, Prepared::Poses { event, obs }) => run_session(
            config,
            event,
            Input::Poses(obs),
            Pace::Closed,
            !unbounded,
            tracer,
            keep_analysis,
        ),
        (Variant::Server, Prepared::Frames { event, frames }) => {
            run_server(event, frames, SERVER_VENUES, tracer, keep_analysis)
        }
        _ => unreachable!("inputs are prepared for their own variant"),
    }
}

/// Parsed command line of a measurement run.
struct RunArgs {
    workload: String,
    variant: Variant,
    seed: u64,
    scenario_seed: Option<u64>,
    seconds: f64,
    trace: bool,
    unbounded: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(Some)
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str| -> Result<Option<u64>, String> {
        value(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
            })
            .transpose()
    };
    let name = value("--workload")?.ok_or("--workload is required")?;
    let variant = Variant::of(name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds = number("--seconds")?.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace expects 0 or 1, got {t}")),
    };
    Ok(RunArgs {
        workload: name.clone(),
        variant,
        seed: number("--seed")?.unwrap_or(0),
        scenario_seed: number("--scenario-seed")?,
        seconds: seconds as f64,
        trace,
        unbounded: args.iter().any(|a| a == "--unbounded"),
    })
}

/// Host logical CPUs, as the pool sizes itself.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return steady::main(&args[1..]);
    }
    let run = match parse_run_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if run.trace {
        traced_run(&run)
    } else {
        measured_run(&run)
    }
}

/// Untraced run: end-to-end metrics.
fn measured_run(run: &RunArgs) -> ExitCode {
    let prepared = prepare(run.variant, run.scenario_seed);
    let (rss0, _) = match procfs::rss_kb() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let budget = Duration::from_secs_f64(run.seconds);
    let started = Instant::now();
    let mut its: Vec<Iteration> = Vec::new();
    // The first iteration warms the process up (heap growth and
    // first-touch page faults, the pool's per-worker arenas) and is left
    // out of the timings; its outputs are checked like every other's.
    // Peak memory is read after it: what one session adds to a fresh
    // process, independent of how many iterations fit the budget.
    let mut hwm = 0;
    let mut calibration = Vec::new();
    loop {
        let t = Instant::now();
        its.push(iterate(
            run.variant,
            &prepared,
            run.unbounded,
            &mut None,
            false,
        ));
        calibration.push(calibrate::sample_s());
        if its.len() == 1 {
            hwm = procfs::rss_kb().map_or(0, |(_, hwm)| hwm);
        }
        // Stop when one more iteration of the same length would overrun.
        if its.len() > 1 && started.elapsed() + t.elapsed() > budget {
            break;
        }
    }

    // Throughput and CPU are totals over the timed streams, set-up and
    // finishing times means over the measured iterations: on a shared
    // two-core host iterations fall into a fast and a slow mode, and a
    // median jumps between the modes as their mix changes from run to
    // run while a mean moves with it. The latency median is taken over
    // every measured frame, so one slow iteration moves it little.
    let measured = &its[1..];
    let total = |f: &dyn Fn(&Iteration) -> f64| measured.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&Iteration) -> f64| total(f) / measured.len() as f64;
    let timed_inputs = total(&|i| i.timed_inputs as f64);
    let finishes: Vec<f64> = measured
        .iter()
        .flat_map(|i| i.finish_ms.iter().copied())
        .collect();
    let latencies = stats::sorted(
        &measured
            .iter()
            .flat_map(|i| i.latency.latencies_ms())
            .collect::<Vec<_>>(),
    );
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", mean(&|i| i.setup_s));
    metrics.insert("camera_fps", timed_inputs / total(&|i| i.wall_s));
    metrics.insert(
        "cpu_ms_per_camera_frame",
        total(&|i| i.cpu_s) * 1e3 / timed_inputs,
    );
    metrics.insert(
        "frame_latency_p50_ms",
        stats::percentile_sorted(&latencies, 50.0).unwrap_or(f64::NAN),
    );
    metrics.insert(
        "finish_ms",
        finishes.iter().sum::<f64>() / finishes.len() as f64,
    );
    // The closed-loop workloads keep the CPUs busy, as the calibration
    // kernel does, and report their timings at the host's nominal speed
    // (see `calibrate`). On `prototype-live` the CPUs idle between
    // frames and the kernel's speed does not track the run's: scaled,
    // its CPU and latency spread wider than as measured, so they stay
    // as measured.
    let raw = metrics.clone();
    let slowdown = calibrate::slowdown(&calibration[1..]);
    if run.variant != Variant::Live {
        for name in [
            "setup_s",
            "cpu_ms_per_camera_frame",
            "frame_latency_p50_ms",
            "finish_ms",
        ] {
            metrics.insert(name, raw[name] / slowdown);
        }
        metrics.insert("camera_fps", raw["camera_fps"] * slowdown);
    }
    metrics.insert("rss_peak_mb", hwm.saturating_sub(rss0) as f64 / 1024.0);
    metrics.insert("ec_f1", its[0].ec_f1);
    metrics.insert("oh_mae", its[0].oh_mae);

    let problems = consistency(&its);
    let late = stats::sorted(
        &measured
            .iter()
            .flat_map(|i| i.latency.lateness_s.iter().map(|s| s * 1e3))
            .collect::<Vec<_>>(),
    );
    // A tail figure is printed only when at least `MIN_BEYOND` samples
    // lie beyond it.
    let p98 = (stats::samples_beyond(latencies.len(), 98.0) >= stats::MIN_BEYOND)
        .then(|| stats::percentile_sorted(&latencies, 98.0))
        .flatten();
    let detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"scenario_seed\":{},\"nproc\":{},\"iterations\":{},\
         \"latency_samples\":{},\"supported_percentile\":{},\"frame_latency_p98_ms\":{},\"push_late_ms\":{{\"p50\":{},\"p98\":{},\"max\":{},\"pushes\":{}}},\
         \"poll_interval_ms\":{},\"window_waits\":{},\"host_slowdown\":{},\"as_measured\":{{{}}},\"per_iteration\":{{\"setup_s\":{},\"camera_fps\":{},\"cpu_ms_per_camera_frame\":{},\"frame_latency_p50_ms\":{},\"finish_ms\":{},\"calibration_s\":{}}},\"digest\":\"{:016x}\",\"problems\":{}}}",
        run.workload,
        run.seed,
        prepared.event().scenario().seed,
        nproc(),
        its.len(),
        latencies.len(),
        stats::highest_supported_percentile(latencies.len(), &stats::TAIL_CANDIDATES, stats::MIN_BEYOND).unwrap_or(0.0),
        p98.map_or("null".into(), |v| v.to_string()),
        stats::percentile_sorted(&late, 50.0).unwrap_or(0.0),
        stats::percentile_sorted(&late, 98.0).unwrap_or(0.0),
        late.last().copied().unwrap_or(0.0),
        late.len(),
        workloads::POLL_INTERVAL.as_secs_f64() * 1e3,
        its.iter().map(|i| i.window_waits).sum::<usize>(),
        slowdown,
        raw.iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
        json_numbers(its.iter().map(|i| i.setup_s)),
        json_numbers(its.iter().map(Iteration::camera_fps)),
        json_numbers(its.iter().map(Iteration::cpu_ms_per_input)),
        json_numbers(its.iter().map(Iteration::latency_p50_ms)),
        json_numbers(its.iter().flat_map(|i| i.finish_ms.iter().copied())),
        json_numbers(calibration.iter().copied()),
        its[0].digest,
        json_strings(&problems),
    );
    eprintln!("perfbench-detail {detail}");
    finish_output(&catalog::get().end_to_end, &metrics, &its, problems)
}

/// Problems across the iterations of one run: every iteration's failed
/// checks, plus any disagreement in the deterministic outputs.
fn consistency(its: &[Iteration]) -> Vec<String> {
    let mut problems: Vec<String> = its
        .iter()
        .flat_map(|i| i.problems.iter().cloned())
        .collect();
    let first = &its[0];
    for (k, it) in its.iter().enumerate().skip(1) {
        if it.ec_f1 != first.ec_f1 || it.oh_mae != first.oh_mae || it.digest != first.digest {
            problems.push(format!(
                "iteration {k} disagrees with iteration 0: ec_f1 {} vs {}, oh_mae {} vs {}, digest {:016x} vs {:016x}",
                it.ec_f1, first.ec_f1, it.oh_mae, first.oh_mae, it.digest, first.digest
            ));
        }
    }
    problems
}

/// Traced run: per-layer metrics.
fn traced_run(run: &RunArgs) -> ExitCode {
    let prepared = prepare(run.variant, run.scenario_seed);
    let run_id = format!(
        "{}-seed{}-pid{}",
        run.workload,
        run.seed,
        std::process::id()
    );
    let out = traced::run(
        run.variant,
        &prepared,
        run.unbounded,
        &run_id,
        Path::new(TRACE_DIR),
    );
    // Every session of the run, traced or not, must produce the same
    // outputs.
    let mut problems = out.problems.clone();
    problems.extend(consistency(&out.iterations));
    eprintln!(
        "perfbench-detail {{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"spans\":\"{}/{}.jsonl\",\"problems\":{}}}",
        run.workload,
        run.seed,
        nproc(),
        TRACE_DIR,
        run_id,
        json_strings(&problems)
    );
    finish_output(
        &catalog::get().per_layer,
        &out.metrics,
        &out.iterations,
        problems,
    )
}

/// Prints the human summary to stderr and the result line to stdout.
fn finish_output(
    table: &[catalog::Metric],
    metrics: &BTreeMap<&str, f64>,
    its: &[Iteration],
    mut problems: Vec<String>,
) -> ExitCode {
    let attempted: usize = its.iter().map(|i| i.inputs).sum();
    let mut failed: usize = its.iter().map(|i| i.failed).sum();
    let mut body = Vec::new();
    for m in table {
        let v = metrics.get(m.name.as_str()).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        eprintln!("  {:<40} {:>14.4} {}", m.name, v, m.unit);
        body.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, v, m.unit
        ));
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    // A failed check fails the run's inputs, not only the iteration's.
    if !problems.is_empty() {
        failed = attempted;
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        problems.is_empty(),
        attempted.max(1),
        failed.min(attempted.max(1)),
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// A JSON array of numbers.
fn json_numbers(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// A JSON array of strings.
fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".into()))
        .collect();
    format!("[{}]", quoted.join(","))
}
