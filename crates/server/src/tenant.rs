//! Per-tenant state: admission control, quotas, and the registry of
//! open sessions.
//!
//! One [`TenantRegistry`] owns every open [`PipelineSession`], keyed
//! by [`EventId`]. Admission control happens at `OpenEvent` time
//! (session quota, drain state, duplicate ids, config validation);
//! per-tenant frame quotas are enforced *structurally*, by deriving
//! each tenant's bounded per-camera channel capacity from the
//! server-wide [`ServerConfig::max_inflight_frames`] budget and
//! letting the session's own backpressure policy (`Block` stalls only
//! that tenant's connection; `DropOldest` sheds that tenant's oldest
//! queued input and counts it) do the shedding. The conservation
//! ledger — `processed + dropped == pushed` for frame-only workloads —
//! is read back from the same per-tenant-labeled counters the
//! observability plane exports.

use crate::proto::RejectCode;
use dievent_core::{
    AnalysisDigest, BackpressureMode, CameraId, DiEventError, DiEventPipeline, EventAnalysis,
    EventId, ObserveConfig, PipelineConfig, PipelineSession, SessionInput, Telemetry,
};
use dievent_scene::Scenario;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server-wide policy: quotas, backpressure, and the observability
/// endpoint.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently open sessions; further `OpenEvent`s are
    /// rejected with [`RejectCode::QuotaExhausted`].
    pub max_sessions: usize,
    /// Per-tenant in-flight input budget, divided across the tenant's
    /// cameras to size each bounded feed queue (at least 1 each).
    pub max_inflight_frames: usize,
    /// Full-queue policy applied to every tenant: `Block` stalls the
    /// pushing connection, `DropOldest` sheds and counts per tenant.
    pub backpressure: BackpressureMode,
    /// Maximum concurrent ingest connections; further accepts are
    /// answered with [`RejectCode::ServerBusy`] and closed.
    pub max_connections: usize,
    /// Address for the live observability plane (`/metrics`,
    /// `/tenants`, ...). `None` runs without one.
    pub observe_addr: Option<SocketAddr>,
    /// Sampler interval for the observability plane.
    pub sample_interval: Duration,
    /// Keep each finished tenant's full `EventAnalysis` in memory for
    /// [`EventServer::take_analysis`](crate::EventServer::take_analysis)
    /// (the wire `Finished` message only carries the digest).
    pub retain_analyses: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_inflight_frames: 256,
            backpressure: BackpressureMode::Block,
            max_connections: 64,
            observe_addr: None,
            sample_interval: Duration::from_millis(250),
            retain_analyses: false,
        }
    }
}

impl ServerConfig {
    /// Validates the quota knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_sessions == 0 {
            return Err("max_sessions must be at least 1".into());
        }
        if self.max_inflight_frames == 0 {
            return Err("max_inflight_frames must be at least 1".into());
        }
        if self.max_connections == 0 {
            return Err("max_connections must be at least 1".into());
        }
        Ok(())
    }
}

/// A point-in-time view of one tenant, as served by `GET /tenants`.
#[derive(Debug, Clone, Serialize)]
pub struct TenantSnapshot {
    /// Tenant/event id.
    pub event: EventId,
    /// `"open"` or `"finishing"`.
    pub state: String,
    /// Cameras in the tenant's rig.
    pub cameras: usize,
    /// Inputs the server accepted for this tenant.
    pub pushed: u64,
    /// Frames the tenant's extraction stage consumed so far.
    pub processed: u64,
    /// Inputs shed by the tenant's `DropOldest` policy so far.
    pub dropped: u64,
    /// Seconds since the session opened.
    pub uptime_s: f64,
}

/// The mutable half of a tenant, behind the handle's mutex.
struct TenantState {
    /// `None` once finish took the session (while `finishing`).
    session: Option<PipelineSession>,
    /// Next expected wire sequence number per camera.
    next_seq: Vec<u64>,
    /// Inputs accepted (frames + pose observations).
    pushed: u64,
    finishing: bool,
}

/// One open tenant: the session plus its wire-protocol bookkeeping.
pub(crate) struct TenantHandle {
    event: EventId,
    /// Tenant-labeled view of the server's shared telemetry — every
    /// metric the session records carries `tenant="<event>"`.
    telemetry: Telemetry,
    cameras: usize,
    opened_at: Instant,
    state: Mutex<TenantState>,
}

/// What a tenant push attempt came back with.
pub(crate) enum PushOutcome {
    /// Input accepted (possibly after blocking on backpressure).
    Accepted,
    /// Input refused with a typed reason; the connection stays up.
    Refused(RejectCode, String),
}

impl TenantHandle {
    pub(crate) fn event(&self) -> EventId {
        self.event
    }

    /// Pushes one decoded wire input into the session, enforcing the
    /// per-camera sequence contract. Holding the state lock across the
    /// (possibly blocking) push is deliberate: it serializes pushers
    /// *of this tenant only* — a stalled tenant never holds a lock any
    /// other tenant needs.
    pub(crate) fn push(&self, camera: CameraId, seq: u64, input: SessionInput) -> PushOutcome {
        let mut state = self.state.lock();
        if state.finishing || state.session.is_none() {
            return PushOutcome::Refused(
                RejectCode::UnknownEvent,
                format!("event {} is finishing", self.event),
            );
        }
        let Some(expected) = state.next_seq.get(camera.index()).copied() else {
            return PushOutcome::Refused(
                RejectCode::UnknownEvent,
                format!("camera {camera} outside the {}-camera rig", self.cameras),
            );
        };
        if seq != expected {
            return PushOutcome::Refused(
                RejectCode::BadSeq,
                format!("camera {camera}: expected seq {expected}, got {seq}"),
            );
        }
        let Some(session) = state.session.as_mut() else {
            return PushOutcome::Refused(RejectCode::UnknownEvent, "session gone".into());
        };
        match session.push(camera, input) {
            Ok(()) => {
                state.next_seq[camera.index()] = expected + 1;
                state.pushed += 1;
                PushOutcome::Accepted
            }
            // A frame that does not fit the rig is the client's error,
            // like an undecodable one; anything else is the session's.
            Err(e @ DiEventError::FrameSize { .. }) => {
                PushOutcome::Refused(RejectCode::Malformed, e.to_string())
            }
            Err(e) => PushOutcome::Refused(RejectCode::Internal, e.to_string()),
        }
    }

    /// Frames the extraction stage consumed, via the tenant-labeled
    /// counters (get-or-create returns the same instrument the workers
    /// increment).
    fn processed(&self) -> u64 {
        (0..self.cameras)
            .map(|c| {
                self.telemetry
                    .counter_with("frames_processed", &[("camera", &c.to_string())])
                    .get()
            })
            .sum()
    }

    /// Inputs shed by this tenant's `DropOldest` policy.
    fn dropped(&self) -> u64 {
        (0..self.cameras)
            .map(|c| {
                self.telemetry
                    .counter_with("session.frames_dropped", &[("camera", &c.to_string())])
                    .get()
            })
            .sum()
    }

    fn snapshot(&self) -> TenantSnapshot {
        let (pushed, finishing) = {
            let state = self.state.lock();
            (state.pushed, state.finishing)
        };
        TenantSnapshot {
            event: self.event,
            state: if finishing { "finishing" } else { "open" }.to_owned(),
            cameras: self.cameras,
            pushed,
            processed: self.processed(),
            dropped: self.dropped(),
            uptime_s: self.opened_at.elapsed().as_secs_f64(),
        }
    }
}

/// The conservation ledger a finished tenant reports.
pub(crate) struct FinishLedger {
    pub digest: AnalysisDigest,
    pub pushed: u64,
    pub processed: u64,
    pub dropped: u64,
}

/// Registry of open tenants plus the drain flag and retained analyses.
pub(crate) struct TenantRegistry {
    config: ServerConfig,
    telemetry: Telemetry,
    tenants: Mutex<BTreeMap<EventId, Arc<TenantHandle>>>,
    draining: AtomicBool,
    finished_total: AtomicU64,
    analyses: Mutex<BTreeMap<EventId, EventAnalysis>>,
}

impl TenantRegistry {
    pub(crate) fn new(config: ServerConfig, telemetry: Telemetry) -> Self {
        TenantRegistry {
            config,
            telemetry,
            tenants: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            finished_total: AtomicU64::new(0),
            analyses: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn config(&self) -> &ServerConfig {
        &self.config
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub(crate) fn set_draining(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Admission control + session construction for one `OpenEvent`.
    ///
    /// The tenant's requested pipeline config is honoured except where
    /// server policy overrides it: observability is stripped (the
    /// server runs one shared plane), the compute pool is forced to
    /// the shared global one (`pool_threads: 0`) so every tenant
    /// schedules fairly over the same workers, cameras run threaded,
    /// and the streaming quota knobs come from [`ServerConfig`].
    pub(crate) fn open(
        &self,
        event: EventId,
        scenario: &Scenario,
        requested: PipelineConfig,
    ) -> Result<Arc<TenantHandle>, (RejectCode, String)> {
        let draining = || {
            (
                RejectCode::Draining,
                "server is draining; not accepting new events".to_owned(),
            )
        };
        if self.is_draining() {
            return Err(draining());
        }
        let cameras = scenario.rig.len();
        if cameras == 0 {
            return Err((RejectCode::InvalidConfig, "scenario has no cameras".into()));
        }
        let config = self.tenant_config(requested, cameras);
        if let Err(e) = config.validate() {
            return Err((RejectCode::InvalidConfig, e.to_string()));
        }

        // Build the pipeline before taking the registry lock: routing
        // every tenant's frames takes that lock, and a config that
        // trains its own classifier takes about a second here.
        let telemetry = self
            .telemetry
            .with_labels(&[("tenant", &event.to_string())]);
        let pipeline = DiEventPipeline::new_with_telemetry(config, telemetry.clone());

        let mut tenants = self.tenants.lock();
        // A drain that began during the build has already collected
        // its targets; a tenant inserted now would outlive it.
        if self.is_draining() {
            return Err(draining());
        }
        // Duplicate before quota: re-opening a live event is a client
        // bug, and reporting it as quota pressure would misdirect.
        if tenants.contains_key(&event) {
            return Err((
                RejectCode::DuplicateEvent,
                format!("event {event} is already open"),
            ));
        }
        if tenants.len() >= self.config.max_sessions {
            return Err((
                RejectCode::QuotaExhausted,
                format!(
                    "{} of {} sessions open",
                    tenants.len(),
                    self.config.max_sessions
                ),
            ));
        }
        // Open the session while holding the lock, so a racing
        // duplicate OpenEvent cannot open a second one; this takes
        // milliseconds.
        let session = pipeline
            .session(scenario)
            .map_err(|e| (RejectCode::InvalidConfig, e.to_string()))?;
        let handle = Arc::new(TenantHandle {
            event,
            telemetry,
            cameras,
            opened_at: Instant::now(),
            state: Mutex::new(TenantState {
                session: Some(session),
                next_seq: vec![0; cameras],
                pushed: 0,
                finishing: false,
            }),
        });
        tenants.insert(event, Arc::clone(&handle));
        self.telemetry.counter("server.sessions_opened").incr();
        self.telemetry
            .gauge("server.sessions_open")
            .set(tenants.len() as f64);
        Ok(handle)
    }

    /// The effective per-tenant pipeline config.
    fn tenant_config(&self, mut config: PipelineConfig, cameras: usize) -> PipelineConfig {
        config.observe = ObserveConfig::default();
        config.pool_threads = 0;
        config.streaming.backpressure = self.config.backpressure;
        config.streaming.channel_capacity = (self.config.max_inflight_frames / cameras).max(1);
        config
    }

    pub(crate) fn get(&self, event: EventId) -> Option<Arc<TenantHandle>> {
        self.tenants.lock().get(&event).cloned()
    }

    /// Finishes one tenant: takes the session out (so concurrent
    /// pushers see `finishing` and are refused), runs the remaining
    /// pipeline stages *outside* any lock, reads back the conservation
    /// counters, and removes the tenant from the registry.
    pub(crate) fn finish(
        &self,
        handle: &Arc<TenantHandle>,
    ) -> Result<FinishLedger, (RejectCode, String)> {
        let (session, pushed) = {
            let mut state = handle.state.lock();
            let Some(session) = state.session.take() else {
                return Err((
                    RejectCode::UnknownEvent,
                    format!("event {} is already finishing", handle.event),
                ));
            };
            state.finishing = true;
            (session, state.pushed)
        };
        let analysis = session
            .finish()
            .map_err(|e| (RejectCode::Internal, e.to_string()))?;
        let ledger = FinishLedger {
            digest: analysis.digest(),
            pushed,
            processed: handle.processed(),
            dropped: handle.dropped(),
        };
        if self.config.retain_analyses {
            self.analyses.lock().insert(handle.event, analysis);
        }
        let open = {
            let mut tenants = self.tenants.lock();
            tenants.remove(&handle.event);
            tenants.len()
        };
        self.finished_total.fetch_add(1, Ordering::AcqRel);
        self.telemetry.counter("server.sessions_finished").incr();
        self.telemetry
            .gauge("server.sessions_open")
            .set(open as f64);
        Ok(ledger)
    }

    /// Flips the drain flag and returns every still-open tenant, in
    /// id order, for the caller to finish one by one.
    pub(crate) fn drain_targets(&self) -> Vec<Arc<TenantHandle>> {
        self.set_draining();
        self.tenants.lock().values().cloned().collect()
    }

    /// Takes a finished tenant's retained full analysis.
    pub(crate) fn take_analysis(&self, event: EventId) -> Option<EventAnalysis> {
        self.analyses.lock().remove(&event)
    }

    /// The `GET /tenants` body: drain state, open/finished totals, and
    /// one live snapshot per open tenant.
    pub(crate) fn snapshot_json(&self) -> String {
        let snapshots: Vec<TenantSnapshot> = {
            let tenants = self.tenants.lock();
            tenants.values().map(|t| t.snapshot()).collect()
        };
        let body = serde_json::json!({
            "draining": self.is_draining(),
            "open": snapshots.len(),
            "finished": self.finished_total.load(Ordering::Acquire),
            "tenants": snapshots,
        });
        serde_json::to_string_pretty(&body).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> PipelineConfig {
        PipelineConfig {
            classify_emotions: false,
            parse_video: false,
            ..PipelineConfig::default()
        }
    }

    /// A training seed other than the default trains a classifier
    /// while the pipeline is built, which takes about a second.
    fn training_config() -> PipelineConfig {
        PipelineConfig {
            classify_emotions: true,
            training_seed: 7,
            ..quick_config()
        }
    }

    #[test]
    fn admission_enforces_quota_drain_and_duplicates() {
        let registry = TenantRegistry::new(
            ServerConfig {
                max_sessions: 2,
                ..ServerConfig::default()
            },
            Telemetry::enabled(),
        );
        let scenario = Scenario::two_camera_dinner(5, 1);
        assert!(registry
            .open(EventId::new(1), &scenario, quick_config())
            .is_ok());
        let err = registry
            .open(EventId::new(1), &scenario, quick_config())
            .err()
            .expect("duplicate must be refused");
        assert_eq!(err.0, RejectCode::DuplicateEvent);
        assert!(registry
            .open(EventId::new(2), &scenario, quick_config())
            .is_ok());
        let err = registry
            .open(EventId::new(3), &scenario, quick_config())
            .err()
            .expect("quota must be enforced");
        assert_eq!(err.0, RejectCode::QuotaExhausted);
        // Finishing one frees a slot...
        let t1 = registry.get(EventId::new(1)).expect("tenant 1 open");
        assert!(registry.finish(&t1).is_ok());
        // ...a session that fails to open leaves its id free...
        let mut broken = scenario.clone();
        broken.spec.fps = 0.0;
        let err = registry
            .open(EventId::new(3), &broken, quick_config())
            .err()
            .expect("a zero frame rate fails the build");
        assert_eq!(err.0, RejectCode::InvalidConfig);
        assert!(registry
            .open(EventId::new(3), &scenario, quick_config())
            .is_ok());
        let t3 = registry.get(EventId::new(3)).expect("tenant 3 open");
        assert!(registry.finish(&t3).is_ok());
        // ...but draining closes the door regardless.
        registry.set_draining();
        let err = registry
            .open(EventId::new(3), &scenario, quick_config())
            .err()
            .expect("draining must refuse opens");
        assert_eq!(err.0, RejectCode::Draining);
    }

    #[test]
    fn open_builds_outside_the_registry_lock() {
        const PROMPT: Duration = Duration::from_millis(50);
        let registry = TenantRegistry::new(ServerConfig::default(), Telemetry::enabled());
        let scenario = Scenario::two_camera_dinner(5, 1);
        let (live, racing) = (EventId::new(1), EventId::new(2));
        let open = registry
            .open(live, &scenario, quick_config())
            .expect("open succeeds");
        std::thread::scope(|s| {
            let trainer = s.spawn(|| registry.open(racing, &scenario, training_config()));
            // A racing open of the same id does not wait for that build...
            let start = Instant::now();
            let quick = registry.open(racing, &scenario, quick_config());
            assert!(
                start.elapsed() < PROMPT,
                "open waited {:?}",
                start.elapsed()
            );
            // ...nor does routing a live tenant's frames, at any point
            // of it.
            let mut routed = 0;
            while !trainer.is_finished() {
                let start = Instant::now();
                let handle = registry.get(live).expect("the live tenant routes");
                assert!(start.elapsed() < PROMPT, "get waited {:?}", start.elapsed());
                assert!(Arc::ptr_eq(&handle, &open));
                routed += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(routed > 0, "the build ended before routing was checked");
            // Whichever open reached the lock first holds the id; the
            // other is refused, so the id never has two sessions.
            let (won, lost) = match (quick, trainer.join().expect("trainer thread")) {
                (Ok(won), Err(lost)) | (Err(lost), Ok(won)) => (won, lost),
                _ => panic!("exactly one of two racing opens succeeds"),
            };
            assert_eq!(lost.0, RejectCode::DuplicateEvent);
            assert!(registry.finish(&won).is_ok());
        });
        assert!(registry.finish(&open).is_ok());
    }

    #[test]
    fn a_drain_that_begins_during_a_build_refuses_the_open() {
        let registry = TenantRegistry::new(ServerConfig::default(), Telemetry::enabled());
        let scenario = Scenario::two_camera_dinner(5, 1);
        let event = EventId::new(1);
        std::thread::scope(|s| {
            let trainer = s.spawn(|| registry.open(event, &scenario, training_config()));
            // Let the open pass admission and start training.
            std::thread::sleep(Duration::from_millis(100));
            assert!(!trainer.is_finished(), "the build ended before the drain");
            assert!(registry.drain_targets().is_empty());
            let err = trainer
                .join()
                .expect("trainer thread")
                .err()
                .expect("a drain refuses an open still building");
            assert_eq!(err.0, RejectCode::Draining);
        });
        assert!(registry.get(event).is_none());
    }

    #[test]
    fn inflight_budget_divides_across_cameras() {
        let registry = TenantRegistry::new(
            ServerConfig {
                max_inflight_frames: 10,
                ..ServerConfig::default()
            },
            Telemetry::disabled(),
        );
        let cfg = registry.tenant_config(quick_config(), 4);
        assert_eq!(cfg.streaming.channel_capacity, 2);
        assert_eq!(cfg.pool_threads, 0);
        // A one-camera rig gets the whole budget; a huge rig still
        // gets at least one slot per camera.
        assert_eq!(
            registry
                .tenant_config(quick_config(), 1)
                .streaming
                .channel_capacity,
            10
        );
        assert_eq!(
            registry
                .tenant_config(quick_config(), 100)
                .streaming
                .channel_capacity,
            1
        );
    }

    #[test]
    fn bad_seq_and_unknown_camera_are_typed_refusals() {
        let registry = TenantRegistry::new(ServerConfig::default(), Telemetry::enabled());
        let scenario = Scenario::two_camera_dinner(5, 1);
        let recording = dievent_core::Recording::capture(scenario.clone());
        let Ok(tenant) = registry.open(EventId::new(7), &scenario, quick_config()) else {
            panic!("open succeeds");
        };
        let frame = recording.frame(0, 0);
        assert!(matches!(
            tenant.push(CameraId::new(0), 0, SessionInput::Frame(frame.clone())),
            PushOutcome::Accepted
        ));
        match tenant.push(CameraId::new(0), 5, SessionInput::Frame(frame.clone())) {
            PushOutcome::Refused(code, msg) => {
                assert_eq!(code, RejectCode::BadSeq);
                assert!(msg.contains("expected seq 1"));
            }
            PushOutcome::Accepted => panic!("seq gap must be refused"),
        }
        match tenant.push(CameraId::new(9), 0, SessionInput::Frame(frame)) {
            PushOutcome::Refused(code, _) => assert_eq!(code, RejectCode::UnknownEvent),
            PushOutcome::Accepted => panic!("unknown camera must be refused"),
        }
        assert!(registry.finish(&tenant).is_ok());
    }
}
