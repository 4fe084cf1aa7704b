//! The long-running multi-tenant event server.
//!
//! One [`EventServer`] owns a TCP listener, a registry of concurrent
//! per-event [`PipelineSession`](dievent_core::PipelineSession)s, and
//! (optionally) one shared live-observability plane. The accept loop
//! mirrors the telemetry exporter's: a nonblocking listener polled
//! every few milliseconds so shutdown is bounded, with long-lived
//! per-connection handler threads capped by
//! [`ServerConfig::max_connections`].
//!
//! Fairness: every tenant's heavy compute runs on the single shared
//! thread pool (`pool_threads: 0` is forced per tenant), so a
//! hot event competes for worker slots instead of spawning its own
//! unbounded threads, and each tenant's ingest is bounded by its own
//! derived queue capacity — a stalled or flooding tenant blocks (or
//! sheds) only its own connection.

use crate::proto::{ClientMsg, ProtoError, RejectCode, RejectOp, ServerMsg};
use crate::tenant::{PushOutcome, ServerConfig, TenantRegistry};
use dievent_core::{EventAnalysis, EventId, Telemetry};
use dievent_telemetry::{LiveOptions, LivePlane};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Accept-loop poll interval: an idle listener notices shutdown
/// within this long.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection socket read timeout — the granularity at which an
/// idle connection thread notices server shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long `shutdown_join` waits for threads before detaching them.
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// State shared by the accept loop, every connection thread, the
/// observability plane's `/tenants` provider, and the public handle.
struct ServerShared {
    registry: TenantRegistry,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    conns_alive: AtomicUsize,
}

/// A running multi-tenant event server. Dropping it drains and joins.
pub struct EventServer {
    shared: Arc<ServerShared>,
    accept: Option<std::thread::JoinHandle<()>>,
    plane: Option<LivePlane>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for EventServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventServer")
            .field("local_addr", &self.local_addr)
            .field("draining", &self.shared.registry.is_draining())
            .finish()
    }
}

impl EventServer {
    /// Binds the ingest listener (port 0 picks a free port), starts
    /// the observability plane when configured, and spawns the accept
    /// loop.
    pub fn bind(addr: SocketAddr, config: ServerConfig) -> io::Result<EventServer> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let telemetry = Telemetry::enabled();
        let plane = match config.observe_addr {
            None => None,
            Some(observe_addr) => Some(LivePlane::start(
                &telemetry,
                LiveOptions {
                    http_addr: Some(observe_addr),
                    sample_interval: config.sample_interval,
                    ..LiveOptions::default()
                },
            )?),
        };
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(ServerShared {
            registry: TenantRegistry::new(config, telemetry.clone()),
            telemetry,
            shutdown: AtomicBool::new(false),
            conns_alive: AtomicUsize::new(0),
        });
        if let Some(plane) = &plane {
            let provider = Arc::clone(&shared);
            plane.attach_tenants(move || provider.registry.snapshot_json());
        }
        let accept = std::thread::Builder::new()
            .name("dievent-server-accept".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || accept_loop(listener, &shared)
            })?;
        Ok(EventServer {
            shared,
            accept: Some(accept),
            plane,
            local_addr,
        })
    }

    /// The address the ingest listener bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The observability plane's HTTP address, when one is running.
    pub fn observe_addr(&self) -> Option<SocketAddr> {
        self.plane.as_ref().and_then(|p| p.local_addr())
    }

    /// Whether the server is draining (no new events admitted).
    pub fn is_draining(&self) -> bool {
        self.shared.registry.is_draining()
    }

    /// Live ingest connections.
    pub fn connections(&self) -> usize {
        self.shared.conns_alive.load(Ordering::Acquire)
    }

    /// The `GET /tenants` JSON, for in-process inspection.
    pub fn tenants_json(&self) -> String {
        self.shared.registry.snapshot_json()
    }

    /// Takes a finished event's retained full analysis (only kept
    /// when [`ServerConfig::retain_analyses`] is set).
    pub fn take_analysis(&self, event: EventId) -> Option<EventAnalysis> {
        self.shared.registry.take_analysis(event)
    }

    /// Drains in-process: rejects new events from now on and finishes
    /// every open session. Returns the number finished. Ingest
    /// connections stay up (their next push gets a typed refusal).
    pub fn drain(&self) -> usize {
        drain_sessions(&self.shared)
    }

    /// Graceful exit: drain, stop the accept loop, join connection
    /// threads (bounded), and shut the observability plane down.
    /// Returns `true` when everything joined in time. Idempotent.
    pub fn shutdown_join(&mut self) -> bool {
        let finished_clean = {
            let _span = self.shared.telemetry.span("server.shutdown");
            self.drain();
            self.shared.shutdown.store(true, Ordering::Release);
            if let Some(handle) = self.accept.take() {
                let _ = handle.join();
            }
            let deadline = std::time::Instant::now() + JOIN_TIMEOUT;
            loop {
                if self.shared.conns_alive.load(Ordering::Acquire) == 0 {
                    break true;
                }
                if std::time::Instant::now() >= deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        if let Some(mut plane) = self.plane.take() {
            plane.shutdown_join(Duration::from_secs(2));
        }
        finished_clean
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.shutdown_join();
    }
}

/// Decrements the live-connection count even if a handler unwinds.
struct ConnGuard(Arc<ServerShared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns_alive.fetch_sub(1, Ordering::AcqRel);
        self.0
            .telemetry
            .gauge("server.connections")
            .set(self.0.conns_alive.load(Ordering::Acquire) as f64);
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<ServerShared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let alive = shared.conns_alive.load(Ordering::Acquire);
                if alive >= shared.registry.config().max_connections {
                    refuse_connection(stream, alive, shared);
                    continue;
                }
                shared.conns_alive.fetch_add(1, Ordering::AcqRel);
                shared
                    .telemetry
                    .gauge("server.connections")
                    .set((alive + 1) as f64);
                let guard = ConnGuard(Arc::clone(shared));
                let spawned = std::thread::Builder::new()
                    .name("dievent-server-conn".into())
                    .spawn({
                        let shared = Arc::clone(shared);
                        move || {
                            let _guard = guard;
                            handle_conn(stream, &shared);
                        }
                    });
                // Spawn failure rolls the count back via the guard,
                // which moved into the closure that never ran.
                drop(spawned);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Over-cap accept: answer with a typed refusal, then close.
fn refuse_connection(mut stream: TcpStream, alive: usize, shared: &Arc<ServerShared>) {
    shared
        .telemetry
        .counter("server.connections_refused")
        .incr();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = ServerMsg::Rejected {
        event: None,
        op: RejectOp::Connection,
        code: RejectCode::ServerBusy,
        message: format!(
            "{alive} of {} connections in use",
            shared.registry.config().max_connections
        ),
    }
    .write_to(&mut stream);
}

/// One long-lived ingest connection: read framed messages until the
/// peer hangs up, the stream turns malformed, or the server shuts
/// down. Ingest messages are not acknowledged unless refused; control
/// messages always get a reply.
fn handle_conn(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    let mut span = shared.telemetry.span("server.conn");
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let stop = {
        let shared = Arc::clone(shared);
        move || shared.shutdown.load(Ordering::Acquire)
    };
    let mut messages = 0u64;
    loop {
        let msg = match ClientMsg::read_from(&mut stream, &stop) {
            Ok(Some(msg)) => msg,
            // Peer closed (or shutdown fired while idle): done.
            Ok(None) => break,
            Err(ProtoError::Malformed(detail)) => {
                // The framing itself may be broken, so answer once and
                // close rather than risk misparsing the rest forever.
                let _ = ServerMsg::Rejected {
                    event: None,
                    op: RejectOp::Ingest,
                    code: RejectCode::Malformed,
                    message: detail,
                }
                .write_to(&mut stream);
                break;
            }
            Err(ProtoError::Io(_)) => break,
        };
        messages += 1;
        if !dispatch(msg, &mut stream, shared) {
            break;
        }
    }
    span.set("messages", messages as i64);
}

/// Handles one decoded message; `false` ends the connection.
fn dispatch(msg: ClientMsg, stream: &mut TcpStream, shared: &Arc<ServerShared>) -> bool {
    match msg {
        ClientMsg::OpenEvent {
            event,
            scenario,
            config,
        } => {
            let _span = shared.telemetry.span("server.open_event");
            let reply = match shared.registry.open(event, &scenario, config) {
                Ok(_) => ServerMsg::Opened { event },
                Err((code, message)) => {
                    shared.telemetry.counter("server.opens_rejected").incr();
                    ServerMsg::Rejected {
                        event: Some(event),
                        op: RejectOp::Open,
                        code,
                        message,
                    }
                }
            };
            reply.write_to(stream).is_ok()
        }
        ClientMsg::Frame { .. } | ClientMsg::PoseObs { .. } => {
            let Some((event, camera, seq, input)) = msg.into_input() else {
                return true;
            };
            let Some(tenant) = shared.registry.get(event) else {
                return ServerMsg::Rejected {
                    event: Some(event),
                    op: RejectOp::Ingest,
                    code: RejectCode::UnknownEvent,
                    message: format!("no open session for event {event}"),
                }
                .write_to(stream)
                .is_ok();
            };
            match tenant.push(camera, seq, input) {
                PushOutcome::Accepted => true,
                PushOutcome::Refused(code, message) => ServerMsg::Rejected {
                    event: Some(event),
                    op: RejectOp::Ingest,
                    code,
                    message,
                }
                .write_to(stream)
                .is_ok(),
            }
        }
        ClientMsg::FinishEvent { event } => {
            let Some(tenant) = shared.registry.get(event) else {
                return ServerMsg::Rejected {
                    event: Some(event),
                    op: RejectOp::Finish,
                    code: RejectCode::UnknownEvent,
                    message: format!("no open session for event {event}"),
                }
                .write_to(stream)
                .is_ok();
            };
            let _span = shared.telemetry.span("server.finish_event");
            let reply = match shared.registry.finish(&tenant) {
                Ok(ledger) => ServerMsg::Finished {
                    event,
                    digest: ledger.digest,
                    pushed: ledger.pushed,
                    processed: ledger.processed,
                    dropped: ledger.dropped,
                },
                Err((code, message)) => ServerMsg::Rejected {
                    event: Some(event),
                    op: RejectOp::Finish,
                    code,
                    message,
                },
            };
            reply.write_to(stream).is_ok()
        }
        ClientMsg::Drain => {
            let _span = shared.telemetry.span("server.drain");
            let targets = shared.registry.drain_targets();
            let mut finished = 0u64;
            for tenant in targets {
                let event = tenant.event();
                if let Ok(ledger) = shared.registry.finish(&tenant) {
                    finished += 1;
                    let sent = ServerMsg::Finished {
                        event,
                        digest: ledger.digest,
                        pushed: ledger.pushed,
                        processed: ledger.processed,
                        dropped: ledger.dropped,
                    }
                    .write_to(stream)
                    .is_ok();
                    if !sent {
                        return false;
                    }
                }
            }
            ServerMsg::Drained { finished }.write_to(stream).is_ok()
        }
    }
}

/// Shared drain path for [`EventServer::drain`] and shutdown.
fn drain_sessions(shared: &Arc<ServerShared>) -> usize {
    let _span = shared.telemetry.span("server.drain");
    let targets = shared.registry.drain_targets();
    let mut finished = 0usize;
    for tenant in targets {
        if shared.registry.finish(&tenant).is_ok() {
            finished += 1;
        }
    }
    finished
}

// The registry parks sessions inside shared state crossed by
// connection threads — keep the compiler honest about that.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<dievent_core::PipelineSession>()
};
