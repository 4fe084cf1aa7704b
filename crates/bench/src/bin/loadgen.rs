//! Multi-tenant load generator: drives N simulated dining venues
//! against one `EventServer` over the framed TCP protocol and writes
//! the numbers to a JSON report (default `BENCH_7.json`; override with
//! `--out FILE` or the first positional argument).
//!
//! Each venue is one client thread with its own connection: it opens
//! its event, streams a shared pre-rendered two-camera recording
//! frame by frame (timing every send — under `Block` backpressure a
//! send stalls exactly when that tenant's queue is full, so the send
//! distribution *is* the ingest-latency distribution), then finishes
//! and checks its conservation ledger. Mid-run, the main thread probes
//! the live `GET /tenants` snapshot on the shared observability plane.
//!
//! Reported:
//!
//! 1. **sessions/s** — venues completed end-to-end per wall second.
//! 2. **ingest latency** — p50/p99/max over every timed send.
//! 3. **fairness** — max/min per-venue completion-time ratio. All
//!    venues start together and share one global compute pool, so a
//!    fair server finishes them close together; the run fails if the
//!    ratio exceeds `--fairness-bound` (default 10).
//! 4. **single-session baseline** — the same per-venue workload
//!    through a direct in-process `PipelineSession`, for scale.
//!
//! `--quick` shrinks the fleet for CI smoke use (the JSON is still
//! written, flagged with `"quick": true`). `--tenants N` / `--frames F`
//! override either mode's shape.
//!
//! Run with: `cargo run --release -p dievent-bench --bin loadgen`

use dievent_core::{DiEventPipeline, EventId, PipelineConfig, Recording};
use dievent_scene::Scenario;
use dievent_server::{EventClient, EventServer, ServerConfig};
use serde_json::json;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Minimal HTTP/1.1 GET over std TcpStream: returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to observe endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_owned();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        classify_emotions: false,
        parse_video: false,
        ..PipelineConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tenants: u64 = arg_value(&args, "--tenants")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 8 } else { 32 });
    let frames: usize = arg_value(&args, "--frames")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 6 } else { 12 });
    let fairness_bound: f64 = arg_value(&args, "--fairness-bound")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let out_path = arg_value(&args, "--out")
        .or_else(|| {
            args.iter()
                .find(|a| !a.starts_with("--") && a.parse::<f64>().is_err())
                .cloned()
        })
        .unwrap_or_else(|| "BENCH_7.json".to_string());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!(
        "loadgen: {tenants} venues x {frames} frames, host has {threads} hardware thread(s), quick = {quick}"
    );

    // One shared pre-rendered recording: every venue streams the same
    // pixels, so the generator measures the server, not the renderer.
    let scenario = Scenario::two_camera_dinner(frames, 7);
    let recording = Recording::capture(scenario.clone());
    let cameras = recording.cameras();

    // --- Single-session baseline: the same workload, in-process. ---
    let baseline_s = {
        let start = Instant::now();
        let mut session = DiEventPipeline::new(quick_config())
            .session(&scenario)
            .expect("baseline session");
        for f in 0..frames {
            for c in 0..cameras {
                session.push_frame(c, recording.frame(c, f)).expect("push");
            }
        }
        let analysis = session.finish().expect("baseline finish");
        assert_eq!(analysis.matrices.len(), frames);
        start.elapsed().as_secs_f64()
    };
    eprintln!(
        "baseline: one direct session = {:.3} s ({:.0} camera-frames/s)",
        baseline_s,
        (frames * cameras) as f64 / baseline_s
    );

    // --- The fleet. ---
    let server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        ServerConfig {
            max_sessions: tenants as usize,
            max_connections: tenants as usize + 2,
            observe_addr: Some("127.0.0.1:0".parse().expect("loopback")),
            sample_interval: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .expect("bind event server");
    let ingest = server.local_addr();
    let observe = server.observe_addr().expect("observability plane bound");

    struct VenueResult {
        completion_s: f64,
        send_latencies_s: Vec<f64>,
        pushed: u64,
    }

    let wall = Instant::now();
    let (results, probe_open) = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=tenants)
            .map(|id| {
                let recording = &recording;
                let scenario = &scenario;
                s.spawn(move || {
                    let event = EventId::new(id);
                    let start = Instant::now();
                    let mut client = EventClient::connect(ingest).expect("connect");
                    client
                        .open_event(event, scenario, quick_config())
                        .expect("open io")
                        .expect("open admitted");
                    let mut send_latencies_s = Vec::with_capacity(frames * cameras);
                    for f in 0..frames {
                        for c in 0..cameras {
                            let t = Instant::now();
                            client
                                .send_frame(event, c.into(), f as u64, recording.frame(c, f))
                                .expect("send frame");
                            send_latencies_s.push(t.elapsed().as_secs_f64());
                        }
                    }
                    let done = client
                        .finish_event(event)
                        .expect("finish io")
                        .expect("finish accepted");
                    assert_eq!(
                        done.processed + done.dropped,
                        done.pushed,
                        "venue {id}: conservation"
                    );
                    assert!(
                        client.rejections.is_empty(),
                        "venue {id}: {:?}",
                        client.rejections
                    );
                    VenueResult {
                        completion_s: start.elapsed().as_secs_f64(),
                        send_latencies_s,
                        pushed: done.pushed,
                    }
                })
            })
            .collect();

        // Mid-run probe: the plane must answer while venues stream.
        std::thread::sleep(Duration::from_millis(if quick { 20 } else { 50 }));
        let (status, body) = http_get(observe, "/tenants");
        assert!(status.contains("200"), "GET /tenants mid-run: {status}");
        let probe_open: u64 = body
            .lines()
            .find(|l| l.trim_start().starts_with("\"open\""))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
            .expect("open count in /tenants body");
        eprintln!("mid-run GET /tenants -> {status}, {probe_open} venues open");

        let results: Vec<VenueResult> = handles
            .into_iter()
            .map(|h| h.join().expect("venue thread"))
            .collect();
        (results, probe_open)
    });
    let wall_s = wall.elapsed().as_secs_f64();

    let completions: Vec<f64> = results.iter().map(|r| r.completion_s).collect();
    let slowest = completions.iter().cloned().fold(f64::MIN, f64::max);
    let fastest = completions.iter().cloned().fold(f64::MAX, f64::min);
    let fairness = slowest / fastest;
    let mut sends: Vec<f64> = results
        .iter()
        .flat_map(|r| r.send_latencies_s.iter().copied())
        .collect();
    sends.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pushed_total: u64 = results.iter().map(|r| r.pushed).sum();
    assert_eq!(pushed_total, tenants * (frames * cameras) as u64);

    let sessions_per_s = tenants as f64 / wall_s;
    eprintln!(
        "fleet: {tenants} venues in {wall_s:.3} s = {sessions_per_s:.2} sessions/s; \
         ingest p99 = {:.1} us; fairness max/min = {fairness:.2}",
        percentile(&sends, 0.99) * 1e6
    );
    assert!(
        fairness <= fairness_bound,
        "per-venue completion spread {fairness:.2} exceeds bound {fairness_bound}: \
         slowest {slowest:.3} s vs fastest {fastest:.3} s"
    );

    let report = json!({
        "bench": "BENCH_7",
        "quick": quick,
        "host_threads": threads,
        "tenants": tenants,
        "frames_per_tenant": frames,
        "cameras": cameras,
        "wall_seconds": wall_s,
        "sessions_per_s": sessions_per_s,
        "ingest_latency_us": {
            "p50": percentile(&sends, 0.50) * 1e6,
            "p99": percentile(&sends, 0.99) * 1e6,
            "max": percentile(&sends, 1.0) * 1e6,
            "sends": sends.len(),
        },
        "fairness": {
            "fastest_completion_s": fastest,
            "slowest_completion_s": slowest,
            "ratio": fairness,
            "bound": fairness_bound,
        },
        "tenants_probe": {
            "open_at_probe": probe_open,
        },
        "single_session_baseline": {
            "seconds": baseline_s,
            "camera_fps": (frames * cameras) as f64 / baseline_s,
        },
    });
    let rendered = serde_json::to_string_pretty(&report).expect("render json");
    std::fs::write(&out_path, rendered + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
