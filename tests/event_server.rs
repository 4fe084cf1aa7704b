//! Edge contracts of the multi-tenant event server: typed admission
//! refusals at the wire, per-tenant `DropOldest` shedding with an
//! exact conservation ledger, drain-while-ingesting, the connection
//! cap, and the live `GET /tenants` snapshot.

use dievent_core::{
    BackpressureMode, CameraId, EventId, PipelineConfig, Recording, TrainingSetConfig,
};
use dievent_scene::Scenario;
use dievent_server::{EventClient, EventServer, RejectCode, RejectOp, ServerConfig, ServerMsg};
use dievent_video::GrayFrame;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        classify_emotions: false,
        parse_video: false,
        ..PipelineConfig::default()
    }
}

/// Minimal HTTP/1.1 GET: returns (status code, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// Invalid configs, session-quota exhaustion, duplicate ids, and
/// unknown events all come back as *typed* wire rejections carrying
/// the op they answer.
#[test]
fn admission_refusals_are_typed_on_the_wire() {
    let server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let scenario = Scenario::two_camera_dinner(4, 1);
    let mut client = EventClient::connect(server.local_addr()).expect("connect");

    // Training sets that are empty or whose size overflows are refused,
    // not a panic in the connection thread: the same connection then
    // opens the event.
    for (variants, identities) in [(0, 4), (1, 1 << 62)] {
        let untrainable = PipelineConfig {
            classify_emotions: true,
            training: TrainingSetConfig {
                variants,
                identities,
                ..TrainingSetConfig::default()
            },
            ..quick_config()
        };
        let refusal = client
            .open_event(EventId::new(1), &scenario, untrainable)
            .expect("io")
            .expect_err("an untrainable training set must refuse");
        assert_eq!(refusal.op, RejectOp::Open);
        assert_eq!(refusal.code, RejectCode::InvalidConfig);
    }

    client
        .open_event(EventId::new(1), &scenario, quick_config())
        .expect("io")
        .expect("first open admitted");

    // A second session exceeds the quota.
    let refusal = client
        .open_event(EventId::new(2), &scenario, quick_config())
        .expect("io")
        .expect_err("quota must refuse");
    assert_eq!(refusal.op, RejectOp::Open);
    assert_eq!(refusal.code, RejectCode::QuotaExhausted);
    assert_eq!(refusal.event, Some(EventId::new(2)));

    // Re-opening the live event is a duplicate, not a quota problem.
    let refusal = client
        .open_event(EventId::new(1), &scenario, quick_config())
        .expect("io")
        .expect_err("duplicate must refuse");
    assert_eq!(refusal.code, RejectCode::DuplicateEvent);

    // Finishing an event that was never opened is typed too.
    let refusal = client
        .finish_event(EventId::new(99))
        .expect("io")
        .expect_err("unknown event must refuse");
    assert_eq!(refusal.op, RejectOp::Finish);
    assert_eq!(refusal.code, RejectCode::UnknownEvent);

    // The admitted session still finishes cleanly.
    let done = client
        .finish_event(EventId::new(1))
        .expect("io")
        .expect("finish");
    assert_eq!(done.event, EventId::new(1));
    assert_eq!(done.pushed, 0);
}

/// A frame whose size is not the event's is the client's error: it is
/// refused as `Malformed`, not `Internal`, the connection stays up, and
/// the same camera's next frame reuses the refused sequence number.
#[test]
fn mis_sized_frame_is_refused_as_malformed() {
    let server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        ServerConfig::default(),
    )
    .expect("bind");
    let recording = Recording::capture(Scenario::two_camera_dinner(2, 1));
    let event = EventId::new(5);
    let mut client = EventClient::connect(server.local_addr()).expect("connect");
    client
        .open_event(event, &recording.scenario, quick_config())
        .expect("io")
        .expect("open admitted");
    client
        .send_frame(event, CameraId::new(0), 0, GrayFrame::new(320, 240, 90))
        .expect("send");
    client
        .send_frame(event, CameraId::new(0), 0, recording.frame(0, 0))
        .expect("send");
    let done = client.finish_event(event).expect("io").expect("finish");
    assert_eq!((done.pushed, done.processed, done.dropped), (1, 1, 0));
    let rejections = client.poll_rejections().expect("rejections");
    assert_eq!(rejections.len(), 1, "{rejections:?}");
    assert_eq!(rejections[0].event, Some(event));
    assert_eq!(rejections[0].op, RejectOp::Ingest);
    assert_eq!(rejections[0].code, RejectCode::Malformed);
    assert!(rejections[0].message.contains("320x240"));
}

/// Two tenants under `DropOldest`: the flooded tenant sheds load and
/// its ledger conserves exactly (`processed + dropped == pushed`,
/// frames-only workload), while the trickling tenant loses nothing —
/// shedding is accounted per tenant, not server-wide.
#[test]
fn drop_oldest_sheds_and_conserves_per_tenant() {
    const FLOOD: u64 = 150;
    const TRICKLE: u64 = 4;
    let server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        ServerConfig {
            backpressure: BackpressureMode::DropOldest,
            // Two cameras per tenant -> capacity 1 per feed queue.
            max_inflight_frames: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let scenario = Scenario::two_camera_dinner(4, 11);
    let recording = Recording::capture(scenario.clone());
    let flooded = EventId::new(1);
    let trickled = EventId::new(2);

    let mut client = EventClient::connect(server.local_addr()).expect("connect");
    for event in [flooded, trickled] {
        client
            .open_event(event, &scenario, quick_config())
            .expect("io")
            .expect("open admitted");
    }

    let frames: Vec<_> = (0..recording.cameras())
        .map(|c| recording.frame(c, 0))
        .collect();
    for seq in 0..FLOOD {
        for (c, frame) in frames.iter().enumerate() {
            client
                .send_frame(flooded, c.into(), seq, frame.clone())
                .expect("send");
        }
        if seq < TRICKLE {
            for (c, frame) in frames.iter().enumerate() {
                client
                    .send_frame(trickled, c.into(), seq, frame.clone())
                    .expect("send");
            }
        }
    }

    let hot = client
        .finish_event(flooded)
        .expect("io")
        .expect("finish flooded");
    assert_eq!(hot.pushed, FLOOD * 2, "server accepted every send");
    assert!(
        hot.dropped > 0,
        "capacity-1 queues under instant pushes must shed"
    );
    assert_eq!(
        hot.processed + hot.dropped,
        hot.pushed,
        "flooded tenant: every accepted frame processed or counted shed"
    );

    let cool = client
        .finish_event(trickled)
        .expect("io")
        .expect("finish trickled");
    assert_eq!(cool.pushed, TRICKLE * 2);
    assert_eq!(
        cool.processed + cool.dropped,
        cool.pushed,
        "trickled tenant conserves independently"
    );
    assert!(
        client.rejections.is_empty(),
        "no ingest was refused: {:?}",
        client.rejections
    );
}

/// Drain fired from a second connection while a producer is
/// mid-flood: the drained session's ledger still conserves exactly,
/// the producer's post-drain pushes get typed refusals, and new opens
/// are refused with `Draining`.
#[test]
fn drain_while_ingesting_conserves_and_refuses_late_work() {
    let server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        ServerConfig::default(),
    )
    .expect("bind");
    let scenario = Scenario::two_camera_dinner(4, 7);
    let recording = Recording::capture(scenario.clone());
    let event = EventId::new(5);

    let mut opener = EventClient::connect(server.local_addr()).expect("connect");
    opener
        .open_event(event, &scenario, quick_config())
        .expect("io")
        .expect("open admitted");

    let stop = AtomicBool::new(false);
    let (drained, sent_after_drain) = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut client = EventClient::connect(server.local_addr()).expect("connect");
            let frames: Vec<_> = (0..recording.cameras())
                .map(|c| recording.frame(c, 0))
                .collect();
            let mut seq = 0u64;
            let mut sent_after = 0u64;
            // Keep pushing well past the drain so refusals must occur.
            while !stop.load(Ordering::Acquire) || sent_after < 10 {
                for (c, frame) in frames.iter().enumerate() {
                    client
                        .send_frame(event, c.into(), seq, frame.clone())
                        .expect("send");
                }
                if stop.load(Ordering::Acquire) {
                    sent_after += 1;
                }
                seq += 1;
            }
            let rejected = client
                .poll_rejections()
                .expect("drain refusals readable")
                .iter()
                .filter(|r| r.op == RejectOp::Ingest && r.code == RejectCode::UnknownEvent)
                .count();
            (rejected, sent_after)
        });

        // Let the flood establish itself, then drain from a second
        // connection while frames are still arriving.
        std::thread::sleep(Duration::from_millis(50));
        let mut drainer = EventClient::connect(server.local_addr()).expect("connect");
        let drained = drainer.drain().expect("drain");
        stop.store(true, Ordering::Release);
        let (rejected, sent_after) = producer.join().expect("producer");
        assert!(
            rejected > 0,
            "pushes landing after the drain must be refused"
        );
        (drained, sent_after)
    });

    assert!(sent_after_drain >= 10);
    assert_eq!(drained.len(), 1, "one open session drained");
    let ledger = &drained[0];
    assert_eq!(ledger.event, event);
    assert!(ledger.pushed > 0, "drain raced a live flood");
    assert_eq!(
        ledger.processed + ledger.dropped,
        ledger.pushed,
        "mid-flood drain conserves: {} processed + {} dropped != {} pushed",
        ledger.processed,
        ledger.dropped,
        ledger.pushed
    );

    assert!(server.is_draining());
    let refusal = opener
        .open_event(EventId::new(6), &scenario, quick_config())
        .expect("io")
        .expect_err("post-drain open must refuse");
    assert_eq!(refusal.code, RejectCode::Draining);
}

/// Accepts beyond `max_connections` are answered with a typed
/// `ServerBusy` refusal and closed, not silently dropped.
#[test]
fn connection_cap_refuses_with_server_busy() {
    let server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let _held = EventClient::connect(server.local_addr()).expect("first connection");
    // The accept loop counts the first connection within a poll tick.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.connections() < 1 {
        assert!(std::time::Instant::now() < deadline, "accept registered");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let msg = ServerMsg::read_from(&mut stream, &|| false)
        .expect("refusal readable")
        .expect("refusal sent before close");
    match msg {
        ServerMsg::Rejected { op, code, .. } => {
            assert_eq!(op, RejectOp::Connection);
            assert_eq!(code, RejectCode::ServerBusy);
        }
        other => panic!("expected a connection refusal, got {other:?}"),
    }
}

/// `GET /tenants` on the shared observability plane serves a live
/// per-tenant snapshot mid-run, and reflects the drain afterwards.
#[test]
fn tenants_endpoint_serves_live_snapshot() {
    let mut server = EventServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        ServerConfig {
            observe_addr: Some("127.0.0.1:0".parse().expect("loopback")),
            sample_interval: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let observe = server.observe_addr().expect("plane bound");
    let scenario = Scenario::two_camera_dinner(4, 3);
    let recording = Recording::capture(scenario.clone());

    let mut client = EventClient::connect(server.local_addr()).expect("connect");
    for id in [10u64, 11] {
        client
            .open_event(EventId::new(id), &scenario, quick_config())
            .expect("io")
            .expect("open admitted");
    }
    for seq in 0..3u64 {
        for c in 0..recording.cameras() {
            client
                .send_frame(
                    EventId::new(10),
                    c.into(),
                    seq,
                    recording.frame(c, seq as usize),
                )
                .expect("send");
        }
    }

    let (status, body) = http_get(observe, "/tenants");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"draining\": false"), "{body}");
    assert!(body.contains("\"open\": 2"), "{body}");
    assert!(
        body.contains("\"event\": 10") && body.contains("\"event\": 11"),
        "{body}"
    );
    assert!(body.contains("\"pushed\": 6"), "tenant 10 pushed 6: {body}");
    assert!(body.contains("\"state\": \"open\""), "{body}");

    // The same snapshot is reachable in-process, and the plane's
    // metrics carry the tenant label.
    let in_proc = server.tenants_json();
    assert!(in_proc.contains("\"open\": 2"), "{in_proc}");
    let (status, metrics) = http_get(observe, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tenant=\"10\""),
        "session metrics must carry the tenant label:\n{metrics}"
    );

    let drained = client.drain().expect("drain");
    assert_eq!(drained.len(), 2);
    let (status, body) = http_get(observe, "/tenants");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\": true"), "{body}");
    assert!(body.contains("\"open\": 0"), "{body}");
    assert!(body.contains("\"finished\": 2"), "{body}");

    assert!(server.shutdown_join(), "clean shutdown");
}
