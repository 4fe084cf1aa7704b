//! One iteration of each workload: set up, drive the traffic through
//! the public API, finish, and check the outputs.
//!
//! The same code serves the untraced run (`tracer` is `None`) and the
//! traced one, which wraps every call into the program in a span.

use crate::inputs::{Event, Frames};
use crate::procfs;
use crate::schedule::{LatencyLedger, OpenLoop};
use crate::stats;
use crate::trace::Tracer;
use dievent_analysis::{validate_sequence, CameraObservation};
use dievent_core::{
    AnalysisDigest, DiEventPipeline, EventAnalysis, EventId, FinishOptions, PipelineConfig,
    PipelineSession, PoolStats, StageTimings, ThreadPool,
};
use dievent_server::{EventClient, EventServer, ServerConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How often the live generator polls while it waits for the next due
/// input, and how often every workload polls while it waits for
/// results.
pub const POLL_INTERVAL: Duration = Duration::from_micros(250);

/// Frame-sets a closed-loop workload sends one at a time into its idle
/// pipeline before the timed stream, waiting for each one's result.
/// They give `frame_latency_p50_ms` on workloads whose stream, being a
/// closed loop, has no per-frame latency of its own: there a frame
/// waits on the queue ahead of it, so its latency restates throughput.
pub const PROBE_FRAMES: usize = 40;

/// Gap between a probe frame-set's camera inputs: a quarter of
/// `prototype-live`'s period, so arrivals are staggered as there.
/// Synchronized arrivals make the latency bimodal on two cores.
pub const PROBE_STAGGER: Duration = Duration::from_micros(2500);

/// How long a run waits for outstanding results before it gives up
/// and counts them as missing.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// What one iteration measured and found.
#[derive(Default)]
pub struct Iteration {
    /// Set-up time: pipeline construction + session open (server: bind
    /// + every venue's open round trip).
    pub setup_s: f64,
    /// Camera inputs offered.
    pub inputs: usize,
    /// Camera inputs offered in the timed stream, after the probe.
    pub timed_inputs: usize,
    /// Camera inputs refused, dropped, or missing from the results.
    pub failed: usize,
    /// First push or send of the timed stream until the final analysis
    /// is in hand.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Per session, finishing time in ms: in process, last input pushed
    /// until the final analysis is in hand; over the wire, each venue's
    /// `FinishEvent` round trip once every frame is processed.
    pub finish_ms: Vec<f64>,
    /// Per-frame latency and per-push lateness.
    pub latency: LatencyLedger,
    /// Look-at F1 against ground truth.
    pub ec_f1: f64,
    /// Mean |reported − scripted| overall happiness, in points.
    pub oh_mae: f64,
    /// Hash of the output digests (timings zeroed).
    pub digest: u64,
    /// Frame-sets held back until the session caught up to within its
    /// reorder window.
    pub window_waits: usize,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Global pool counters at the start and end of the timed stream.
    pub pool: (PoolStats, PoolStats),
    /// The final analysis, kept only when the caller asks for it.
    pub analysis: Option<EventAnalysis>,
}

impl Iteration {
    /// Camera inputs of the timed stream per wall second.
    pub fn camera_fps(&self) -> f64 {
        self.timed_inputs as f64 / self.wall_s
    }

    /// Process CPU per camera input of the timed stream, in ms.
    pub fn cpu_ms_per_input(&self) -> f64 {
        self.cpu_s * 1e3 / self.timed_inputs.max(1) as f64
    }

    /// Median frame latency, in ms (NaN without samples).
    pub fn latency_p50_ms(&self) -> f64 {
        stats::percentile_sorted(&stats::sorted(&self.latency.latencies_ms()), 50.0)
            .unwrap_or(f64::NAN)
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// A failed check fails every input of the iteration.
    fn settle_failures(&mut self) {
        if !self.problems.is_empty() {
            self.failed = self.inputs;
        }
    }
}

/// Runs `f` inside a span when tracing.
pub fn span<T>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// In-process input: rendered frames or pose observations.
#[derive(Clone, Copy)]
pub enum Input<'a> {
    /// `frames[c][f]`.
    Frames(&'a Frames),
    /// `obs[f][c]`.
    Poses(&'a [Vec<Vec<CameraObservation>>]),
}

impl Input<'_> {
    /// Pushes camera `c`'s input of frame `f`; false when refused.
    fn push(
        self,
        session: &mut PipelineSession,
        tracer: &mut Option<Tracer>,
        f: usize,
        c: usize,
    ) -> bool {
        span(tracer, "core.push", || match self {
            Input::Frames(fr) => session.push_frame(c, fr.frames[c][f].clone()),
            Input::Poses(obs) => session.push_pose_observations(c, obs[f][c].clone()),
        })
        .is_ok()
    }
}

/// Traffic shape of an in-process session.
#[derive(Clone, Copy)]
pub enum Pace {
    /// After the probe, push each frame-set as soon as the previous one
    /// is accepted.
    Closed,
    /// Push each input at its due time.
    Open(OpenLoop),
}

/// FNV-1a over the digest's JSON, with the wall-clock timings removed
/// so equal outputs hash equal.
pub fn digest_hash(mut digest: AnalysisDigest) -> u64 {
    digest.timings = StageTimings::default();
    let text = serde_json::to_string(&digest).expect("digest serializes");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Frames `poll` has returned so far, and how many cameras each had.
struct Collector {
    start: Instant,
    seen: Vec<usize>,
    reporting: Vec<usize>,
    /// Distinct frames returned.
    returned: usize,
}

impl Collector {
    /// Polls once; a returned frame with a due time gets a latency.
    fn poll(
        &mut self,
        session: &mut PipelineSession,
        tracer: &mut Option<Tracer>,
        due: &[f64],
        ledger: &mut LatencyLedger,
    ) {
        let out = span(tracer, "core.poll", || session.poll());
        let now = self.start.elapsed().as_secs_f64();
        for fa in out {
            if let Some(seen) = self.seen.get_mut(fa.frame) {
                self.returned += usize::from(*seen == 0);
                *seen += 1;
                self.reporting[fa.frame] = fa.cameras_reporting;
                if due[fa.frame].is_finite() {
                    ledger.done(fa.frame, due[fa.frame], now);
                }
            }
        }
    }

    fn complete(&self) -> bool {
        self.seen.iter().all(|&s| s > 0)
    }
}

/// One in-process session: set up; on a closed loop, probe the idle
/// pipeline with [`PROBE_FRAMES`] frame-sets one at a time; push every
/// other input under `pace`, polling after every frame-set (open loop:
/// after every push; both: every [`POLL_INTERVAL`] while waiting);
/// drain, finish with ground truth, check.
///
/// With `bounded`, a frame-set is also held back until every frame a
/// reorder window (`StreamingConfig::reorder_window`) or more before it
/// has been returned. The session fuses a frame without its missing
/// cameras once a later frame arrives more than that window ahead, and
/// under a closed loop a camera worker's opportunistic batch can lag
/// that far behind the others; held back, no frame is ever that far
/// ahead, so every input is analysed.
pub fn run_session(
    config: PipelineConfig,
    event: &Event,
    input: Input<'_>,
    pace: Pace,
    bounded: bool,
    tracer: &mut Option<Tracer>,
    keep_analysis: bool,
) -> Iteration {
    let frames = event.frames();
    let cameras = event.cameras();
    let window = config.streaming.reorder_window;
    let mut it = Iteration {
        inputs: frames * cameras,
        ..Iteration::default()
    };
    // Built before anything is timed: cloning the truth is input work.
    let options = FinishOptions {
        ground_truth: event.truth.clone(),
        context: None,
    };

    let setup_start = Instant::now();
    let setup_span = tracer.as_mut().map(|t| t.begin("core.setup"));
    let pipeline = span(tracer, "core.pipeline_new", || DiEventPipeline::new(config));
    let session = span(tracer, "core.session_open", || {
        pipeline.session(event.scenario())
    });
    if let (Some(t), Some(id)) = (tracer.as_mut(), setup_span) {
        t.end(id);
    }
    it.setup_s = setup_start.elapsed().as_secs_f64();
    let mut session = match session {
        Ok(s) => s,
        Err(e) => {
            it.problems.push(format!("session open failed: {e}"));
            it.settle_failures();
            return it;
        }
    };

    let mut due = vec![f64::NAN; frames];
    let mut refused = 0usize;
    let origin = Instant::now();
    let clock = || origin.elapsed().as_secs_f64();
    let mut results = Collector {
        start: origin,
        seen: vec![0; frames],
        reporting: vec![0; frames],
        returned: 0,
    };

    let probe = match pace {
        Pace::Closed => PROBE_FRAMES.min(frames),
        Pace::Open(_) => 0,
    };
    for f in 0..probe {
        for c in 0..cameras {
            if c > 0 {
                std::thread::sleep(PROBE_STAGGER);
            }
            refused += usize::from(!input.push(&mut session, tracer, f, c));
        }
        due[f] = clock();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            results.poll(&mut session, tracer, &due, &mut it.latency);
            if results.seen[f] > 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    let order: Vec<(usize, usize)> = match pace {
        Pace::Closed => (probe..frames)
            .flat_map(|f| (0..cameras).map(move |c| (f, c)))
            .collect(),
        Pace::Open(schedule) => schedule.order(frames),
    };
    it.timed_inputs = order.len();
    it.pool.0 = ThreadPool::global().stats();
    let cpu0 = procfs::process_cpu_s().unwrap_or(0.0);
    let start = Instant::now();
    // Open-loop runs start a little after the clock so the first
    // input is not already late.
    let lead = clock() + 0.002;
    let mut next_poll = 0.0;
    for (f, c) in order {
        if bounded && c == 0 && !within_window(f, results.returned, window) {
            it.window_waits += 1;
            let deadline = Instant::now() + DRAIN_DEADLINE;
            while !within_window(f, results.returned, window) && Instant::now() < deadline {
                std::thread::sleep(POLL_INTERVAL);
                results.poll(&mut session, tracer, &due, &mut it.latency);
            }
            if !within_window(f, results.returned, window) {
                // The session stalled: stop, and let the checks count
                // what never came back.
                break;
            }
        }
        if let Pace::Open(schedule) = pace {
            let at = lead + schedule.due_s(f, c);
            due[f] = lead + schedule.frame_due_s(f);
            loop {
                let now = clock();
                if now >= at {
                    break;
                }
                if now >= next_poll {
                    results.poll(&mut session, tracer, &due, &mut it.latency);
                    next_poll = now + POLL_INTERVAL.as_secs_f64();
                    continue;
                }
                std::thread::sleep(Duration::from_secs_f64(at.min(next_poll) - now));
            }
            it.latency.pushed(at, clock());
        }
        refused += usize::from(!input.push(&mut session, tracer, f, c));
        if c + 1 == cameras || matches!(pace, Pace::Open(_)) {
            results.poll(&mut session, tracer, &due, &mut it.latency);
        }
    }
    let last_push = Instant::now();
    let deadline = last_push + DRAIN_DEADLINE;
    while !results.complete() && Instant::now() < deadline {
        std::thread::sleep(POLL_INTERVAL);
        results.poll(&mut session, tracer, &due, &mut it.latency);
    }
    let analysis = span(tracer, "core.finish", || session.finish_with(options));
    let end = Instant::now();
    it.cpu_s = procfs::process_cpu_s().unwrap_or(0.0) - cpu0;
    it.pool.1 = ThreadPool::global().stats();
    it.wall_s = end.duration_since(start).as_secs_f64();
    it.finish_ms = vec![end.duration_since(last_push).as_secs_f64() * 1e3];

    let missing: usize = (0..frames)
        .map(|f| match results.seen[f] {
            0 => cameras,
            _ => cameras.saturating_sub(results.reporting[f]),
        })
        .sum();
    it.failed = refused + missing;
    it.check(refused == 0, || format!("{refused} inputs refused"));
    let counter = |name| {
        analysis
            .as_ref()
            .ok()
            .and_then(|a| a.telemetry.counter(name))
            .unwrap_or(0)
    };
    let (evicted, late) = (
        counter("session.reorder_evictions"),
        counter("session.late_arrivals"),
    );
    it.check(missing == 0, || {
        format!("{missing} camera inputs missing from polled frames ({evicted} frames fused by reorder-window eviction, {late} late arrivals discarded)")
    });
    it.check(results.seen.iter().all(|&s| s <= 1), || {
        "a frame was returned twice".into()
    });
    match analysis {
        Ok(analysis) => {
            it.check(analysis.matrices.len() == frames, || {
                format!("{} matrices for {frames} frames", analysis.matrices.len())
            });
            it.ec_f1 = analysis.validation.f1;
            let oh: Vec<f64> = analysis
                .overall
                .iter()
                .map(|o| o.overall_happiness)
                .collect();
            it.oh_mae = event.oh_mae(&oh);
            it.digest = digest_hash(analysis.digest());
            if keep_analysis {
                it.analysis = Some(analysis);
            }
        }
        Err(e) => it.problems.push(format!("finish failed: {e}")),
    }
    it.settle_failures();
    it
}

/// Whether frame-set `frame` may be pushed once frames `0..returned`
/// are back: then the frames still in flight, `returned..=frame`, span
/// less than `window`, so no frame is more than `window` ahead of the
/// oldest one the session still waits on, and none is evicted.
fn within_window(frame: usize, returned: usize, window: usize) -> bool {
    frame < returned + window
}

/// Serves `venues` copies of `event` from one in-process server: opens
/// them over a control connection; probes each venue's idle pipeline
/// with [`PROBE_FRAMES`] frame-sets one at a time on the data
/// connection; streams the other frames round-robin on it, paced only
/// by the server's own `Block` backpressure; waits for the tenant
/// snapshot to count every input processed; then finishes each venue
/// on the data connection.
pub fn run_server(
    event: &Event,
    frames: &Frames,
    venues: u64,
    tracer: &mut Option<Tracer>,
    keep_analysis: bool,
) -> Iteration {
    let n_frames = event.frames();
    let cameras = event.cameras();
    let mut it = Iteration {
        inputs: n_frames * cameras * venues as usize,
        ..Iteration::default()
    };
    let ids: Vec<EventId> = (1..=venues).map(EventId::new).collect();

    let setup_start = Instant::now();
    let server = span(tracer, "server.bind", || {
        EventServer::bind(
            "127.0.0.1:0".parse().expect("loopback address"),
            ServerConfig {
                max_sessions: venues as usize + 1,
                retain_analyses: true,
                ..ServerConfig::default()
            },
        )
    });
    let mut server = match server {
        Ok(s) => s,
        Err(e) => {
            it.problems.push(format!("bind failed: {e}"));
            it.settle_failures();
            return it;
        }
    };
    let addr = server.local_addr();
    let clients = EventClient::connect(addr).and_then(|c| Ok((c, EventClient::connect(addr)?)));
    let (mut control, mut data) = match clients {
        Ok(pair) => pair,
        Err(e) => {
            it.problems.push(format!("connect failed: {e}"));
            it.settle_failures();
            return it;
        }
    };
    for &id in &ids {
        let opened = span(tracer, "server.open", || {
            control.open_event(id, event.scenario(), PipelineConfig::default())
        });
        if !matches!(opened, Ok(Ok(()))) {
            it.problems
                .push(format!("open of venue {id} refused: {opened:?}"));
        }
    }
    it.setup_s = setup_start.elapsed().as_secs_f64();
    if !it.problems.is_empty() {
        it.settle_failures();
        return it;
    }

    let mut send_errors = 0usize;
    let mut send = |tracer: &mut Option<Tracer>, id: EventId, f: usize, c: usize| {
        let sent = span(tracer, "server.send", || {
            data.send_frame(id, c.into(), f as u64, frames.frames[c][f].clone())
        });
        send_errors += usize::from(sent.is_err());
    };
    // Inputs processed per venue, as the tenant snapshot counts them.
    let processed = |tracer: &mut Option<Tracer>| {
        let json = span(tracer, "server.tenants", || server.tenants_json());
        let mut counts = vec![0; ids.len()];
        for (v, n) in processed_by_venue(&json, &ids) {
            counts[v] = n;
        }
        counts
    };

    let origin = Instant::now();
    let probe = PROBE_FRAMES.min(n_frames);
    for f in 0..probe {
        for (v, &id) in ids.iter().enumerate() {
            for c in 0..cameras {
                if c > 0 {
                    std::thread::sleep(PROBE_STAGGER);
                }
                send(tracer, id, f, c);
            }
            let due = origin.elapsed().as_secs_f64();
            let deadline = Instant::now() + DRAIN_DEADLINE;
            while processed(tracer)[v] < cameras * (f + 1) && Instant::now() < deadline {
                std::thread::sleep(POLL_INTERVAL);
            }
            it.latency.done(f, due, origin.elapsed().as_secs_f64());
        }
    }

    it.timed_inputs = (n_frames - probe) * cameras * ids.len();
    it.pool.0 = ThreadPool::global().stats();
    let cpu0 = procfs::process_cpu_s().unwrap_or(0.0);
    let start = Instant::now();
    for f in probe..n_frames {
        for &id in &ids {
            for c in 0..cameras {
                send(tracer, id, f, c);
            }
        }
    }
    let expected = n_frames * cameras;
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut all_processed = false;
    while !all_processed && Instant::now() < deadline {
        all_processed = processed(tracer).iter().all(|&n| n >= expected);
        if !all_processed {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
    let mut finished = Vec::with_capacity(ids.len());
    for &id in &ids {
        let t = Instant::now();
        finished.push((id, span(tracer, "server.finish", || data.finish_event(id))));
        it.finish_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let end = Instant::now();
    it.cpu_s = procfs::process_cpu_s().unwrap_or(0.0) - cpu0;
    it.pool.1 = ThreadPool::global().stats();
    it.wall_s = end.duration_since(start).as_secs_f64();

    let expected = expected as u64;
    let mut lost = send_errors;
    let mut digests = BTreeMap::new();
    for (id, reply) in finished {
        match reply {
            Ok(Ok(fin)) => {
                it.check(fin.processed + fin.dropped == fin.pushed, || {
                    format!(
                        "venue {id}: processed {} + dropped {} != pushed {}",
                        fin.processed, fin.dropped, fin.pushed
                    )
                });
                it.check(fin.dropped == 0 && fin.pushed == expected, || {
                    format!(
                        "venue {id}: pushed {} dropped {} of {expected}",
                        fin.pushed, fin.dropped
                    )
                });
                lost += (expected - fin.processed.min(expected)) as usize;
                digests.insert(id, digest_hash(fin.digest));
            }
            other => {
                lost += expected as usize;
                it.problems
                    .push(format!("finish of venue {id} failed: {other:?}"));
            }
        }
    }
    let rejections = control.rejections.len() + data.rejections.len();
    it.check(rejections == 0, || {
        format!("{rejections} refusals: {:?}", data.rejections)
    });
    it.check(send_errors == 0, || format!("{send_errors} sends failed"));
    it.check(all_processed, || {
        "tenant snapshots never showed every input processed".into()
    });
    let unique: std::collections::BTreeSet<u64> = digests.values().copied().collect();
    it.check(unique.len() == 1, || {
        format!("venues of one recording disagree: {digests:?}")
    });
    it.digest = unique.first().copied().unwrap_or(0);

    // Accuracy of every retained analysis against ground truth; the
    // venues stream one recording, so all must agree.
    let mut accuracy = Vec::new();
    for &id in &ids {
        match server.take_analysis(id) {
            Some(a) => {
                it.check(a.matrices.len() == n_frames, || {
                    format!(
                        "venue {id}: {} matrices for {n_frames} frames",
                        a.matrices.len()
                    )
                });
                let evicted = venue_evictions(&a, id);
                it.check(evicted == 0, || {
                    format!("venue {id}: {evicted} frames fused by reorder-window eviction")
                });
                let oh: Vec<f64> = a.overall.iter().map(|o| o.overall_happiness).collect();
                accuracy.push((
                    validate_sequence(&a.matrices, &event.truth).f1,
                    event.oh_mae(&oh),
                ));
                if keep_analysis && it.analysis.is_none() {
                    it.analysis = Some(a);
                }
            }
            None => it
                .problems
                .push(format!("venue {id}: no retained analysis")),
        }
    }
    it.check(accuracy.windows(2).all(|w| w[0] == w[1]), || {
        format!("venue accuracy differs: {accuracy:?}")
    });
    if let Some(&(f1, mae)) = accuracy.first() {
        it.ec_f1 = f1;
        it.oh_mae = mae;
    }
    drop((control, data));
    it.check(server.shutdown_join(), || {
        "server threads did not join".into()
    });
    it.failed = lost + rejections;
    it.settle_failures();
    it
}

/// Frames a venue's session fused without all its cameras, from its
/// own tenant-labelled counter (the server's sessions share one
/// telemetry registry).
fn venue_evictions(analysis: &EventAnalysis, id: EventId) -> u64 {
    let tenant = format!("tenant=\"{id}\"");
    analysis
        .telemetry
        .counters
        .iter()
        .filter(|c| c.name.starts_with("session.reorder_evictions") && c.name.contains(&tenant))
        .map(|c| c.value)
        .sum()
}

/// `(venue index, processed inputs)` for each venue in a tenant
/// snapshot (`GET /tenants` JSON).
pub fn processed_by_venue(json: &str, ids: &[EventId]) -> Vec<(usize, usize)> {
    let Ok(doc) = serde_json::parse(json) else {
        return Vec::new();
    };
    let Some(tenants) = doc.get("tenants").and_then(|t| t.as_array()) else {
        return Vec::new();
    };
    tenants
        .iter()
        .filter_map(|t| {
            let event = t.get("event")?.as_u64()?;
            let v = ids.iter().position(|id| id.raw() == event)?;
            Some((v, t.get("processed")?.as_u64()? as usize))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_keeps_frames_in_flight_below_the_reorder_window() {
        // The session evicts once a frame is more than 32 ahead of the
        // oldest pending one. With frames 0..8 back, frame 39 (31
        // ahead of frame 8) goes, and frame 40 waits.
        assert!(within_window(39, 8, 32));
        assert!(!within_window(40, 8, 32));
        assert!(within_window(0, 0, 1));
        assert!(!within_window(1, 0, 1));
    }

    #[test]
    fn tenant_snapshot_parses_processed_counts() {
        let json = r#"{"draining": false, "open": 2, "finished": 0, "tenants": [
            {"event": 2, "state": "open", "cameras": 2, "pushed": 10, "processed": 8, "dropped": 0, "uptime_s": 1.0},
            {"event": 9, "state": "open", "cameras": 2, "pushed": 4, "processed": 4, "dropped": 0, "uptime_s": 1.0}
        ]}"#;
        let ids = [EventId::new(1), EventId::new(2)];
        assert_eq!(processed_by_venue(json, &ids), vec![(1, 8)]);
        assert!(processed_by_venue("not json", &ids).is_empty());
    }
}
