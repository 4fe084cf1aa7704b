//! Live-observability configuration and the session vitals published
//! through the plane's heartbeat.
//!
//! [`ObserveConfig`] is embedded in
//! [`PipelineConfig`](crate::PipelineConfig); when active, opening a
//! [`PipelineSession`](crate::PipelineSession) starts a
//! [`LivePlane`](dievent_telemetry::LivePlane) that samples the
//! telemetry registry into rate windows and (optionally) serves
//! `/metrics`, `/healthz`, `/readyz`, `/snapshot`, and `/profile` on
//! an embedded HTTP endpoint.

use crate::error::DiEventError;
use dievent_pool::{PoolStats, ThreadPool};
use dievent_telemetry::Telemetry;
use parking_lot::Mutex;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Live-observability settings.
///
/// The plane runs when an HTTP address is configured *or* rate
/// sampling is explicitly enabled; by default it is fully off and a
/// session starts no extra threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserveConfig {
    /// Address for the embedded metrics endpoint (`None` = no HTTP).
    /// Port 0 binds a free port; read it back via
    /// [`PipelineSession::observer`](crate::PipelineSession::observer)
    /// → [`LivePlane::local_addr`](dievent_telemetry::LivePlane::local_addr).
    pub http_addr: Option<SocketAddr>,
    /// Interval between sampler ticks (heartbeat + rate window).
    pub sample_interval: Duration,
    /// Rate windows retained in the bounded ring.
    pub ring_len: usize,
    /// Run the sampler (and attach `rate_windows` to the final
    /// report) even without an HTTP endpoint.
    pub sample_rates: bool,
    /// Trace per-frame lineage: stamp every frame at ingest and at
    /// each stage boundary, attribute its end-to-end latency to
    /// queue-wait vs compute vs reorder-hold, and attach the
    /// stage-attribution report to the final analysis (and to
    /// `GET /lineage` when the HTTP endpoint runs). Independent of
    /// the plane: works with or without `http_addr`/`sample_rates`.
    pub trace_lineage: bool,
    /// Full [`FrameWaterfall`](dievent_telemetry::FrameWaterfall)s
    /// retained by the lineage reservoir (the slowest-frame exemplars
    /// are kept on top of this).
    pub lineage_reservoir: usize,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            http_addr: None,
            sample_interval: Duration::from_millis(250),
            ring_len: 120,
            sample_rates: false,
            trace_lineage: false,
            lineage_reservoir: 256,
        }
    }
}

impl ObserveConfig {
    /// Whether a session with this configuration starts a live plane.
    pub fn is_active(&self) -> bool {
        self.http_addr.is_some() || self.sample_rates
    }

    /// Internal-consistency check, folded into
    /// [`PipelineConfig::validate`](crate::PipelineConfig::validate).
    pub(crate) fn validate(&self) -> Result<(), DiEventError> {
        // The lineage tracer runs with or without the plane, so its
        // knob is checked regardless of `is_active()`.
        if self.trace_lineage && self.lineage_reservoir == 0 {
            return Err(DiEventError::InvalidConfig(
                "observe.lineage_reservoir must be >= 1 waterfall".into(),
            ));
        }
        if !self.is_active() {
            return Ok(());
        }
        if self.sample_interval.is_zero() {
            return Err(DiEventError::InvalidConfig(
                "observe.sample_interval must be > 0".into(),
            ));
        }
        if self.ring_len == 0 {
            return Err(DiEventError::InvalidConfig(
                "observe.ring_len must be >= 1 window".into(),
            ));
        }
        Ok(())
    }
}

// `SocketAddr` has no vendored-serde impl, so the config is lowered by
// hand: the address travels as an optional string.
impl Serialize for ObserveConfig {
    fn serialize(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert(
            "http_addr".to_owned(),
            self.http_addr.map(|a| a.to_string()).serialize(),
        );
        map.insert(
            "sample_interval".to_owned(),
            self.sample_interval.serialize(),
        );
        map.insert("ring_len".to_owned(), self.ring_len.serialize());
        map.insert("sample_rates".to_owned(), self.sample_rates.serialize());
        map.insert("trace_lineage".to_owned(), self.trace_lineage.serialize());
        map.insert(
            "lineage_reservoir".to_owned(),
            self.lineage_reservoir.serialize(),
        );
        Value::Object(map)
    }
}

impl Deserialize for ObserveConfig {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let Value::Object(map) = value else {
            return Err(SerdeError::unexpected("ObserveConfig object", value));
        };
        let field = |name: &str| {
            map.get(name)
                .ok_or_else(|| SerdeError::custom(format!("ObserveConfig missing field {name}")))
        };
        let http_addr = match Option::<String>::deserialize(field("http_addr")?)? {
            None => None,
            Some(text) => Some(text.parse::<SocketAddr>().map_err(|e| {
                SerdeError::custom(format!("ObserveConfig.http_addr {text:?}: {e}"))
            })?),
        };
        // The lineage fields arrived after configs started round-tripping,
        // so missing keys fall back to the defaults instead of erroring.
        let defaults = ObserveConfig::default();
        let trace_lineage = match map.get("trace_lineage") {
            Some(value) => bool::deserialize(value)?,
            None => defaults.trace_lineage,
        };
        let lineage_reservoir = match map.get("lineage_reservoir") {
            Some(value) => usize::deserialize(value)?,
            None => defaults.lineage_reservoir,
        };
        Ok(ObserveConfig {
            http_addr,
            sample_interval: Duration::deserialize(field("sample_interval")?)?,
            ring_len: usize::deserialize(field("ring_len")?)?,
            sample_rates: bool::deserialize(field("sample_rates")?)?,
            trace_lineage,
            lineage_reservoir,
        })
    }
}

/// Live session state the heartbeat publishes as gauges every tick:
/// uptime, the sequencer's fusion frontier, and per-camera worker
/// liveness.
pub(crate) struct SessionVitals {
    pub(crate) opened: Instant,
    /// Lowest frame index not yet fused (the sequencer's frontier).
    pub(crate) watermark: AtomicU64,
    /// One flag per camera; a worker's drop guard clears its flag even
    /// when the worker unwinds.
    pub(crate) cameras_alive: Vec<AtomicBool>,
    /// Inputs each camera's feed has offered so far. The sequencer
    /// does not evict a frame that a live lane has ingested but not yet
    /// returned.
    pub(crate) ingested: Vec<AtomicU64>,
}

impl SessionVitals {
    pub(crate) fn new(cameras: usize) -> Self {
        SessionVitals {
            opened: Instant::now(),
            watermark: AtomicU64::new(0),
            cameras_alive: (0..cameras).map(|_| AtomicBool::new(true)).collect(),
            ingested: (0..cameras).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn all_cameras_alive(&self) -> bool {
        self.cameras_alive
            .iter()
            .all(|flag| flag.load(Ordering::Acquire))
    }

    /// Publishes the vitals into the telemetry registry.
    pub(crate) fn publish(&self, telemetry: &Telemetry) {
        telemetry
            .gauge("session.uptime_s")
            .set(self.opened.elapsed().as_secs_f64());
        telemetry
            .gauge("session.watermark_frame")
            .set(self.watermark.load(Ordering::Acquire) as f64);
        for (camera, alive) in self.cameras_alive.iter().enumerate() {
            let label = camera.to_string();
            let up = if alive.load(Ordering::Acquire) {
                1.0
            } else {
                0.0
            };
            telemetry
                .gauge_with("session.camera_alive", &[("camera", label.as_str())])
                .set(up);
        }
    }
}

/// Clears one camera's liveness flag when its worker exits — by any
/// path, including an unwind.
pub(crate) struct CameraAliveGuard {
    pub(crate) flag: std::sync::Arc<SessionVitals>,
    pub(crate) camera: usize,
}

impl Drop for CameraAliveGuard {
    fn drop(&mut self) {
        if let Some(alive) = self.flag.cameras_alive.get(self.camera) {
            alive.store(false, Ordering::Release);
        }
    }
}

/// Cursor over the pool's monotonic counters: the last values already
/// published into the telemetry domain. Shared between the heartbeat
/// (incremental publishing, so windowed steal/task rates exist
/// mid-run) and finish (publishing the remainder) — each increment is
/// counted exactly once.
pub(crate) struct PoolCursor(Mutex<PoolStats>);

impl PoolCursor {
    pub(crate) fn new(at_open: PoolStats) -> Self {
        PoolCursor(Mutex::new(at_open))
    }

    /// Publishes pool activity since the last call as counter deltas,
    /// plus the instantaneous pool gauges.
    pub(crate) fn publish(&self, telemetry: &Telemetry, pool: &ThreadPool) {
        let now = pool.stats();
        let mut last = self.0.lock();
        telemetry
            .counter("pool.tasks")
            .add(now.tasks.saturating_sub(last.tasks));
        telemetry
            .counter("pool.steals")
            .add(now.steals.saturating_sub(last.steals));
        telemetry
            .counter("pool.task_wait_ns")
            .add(now.queue_wait_ns.saturating_sub(last.queue_wait_ns));
        telemetry
            .counter("pool.task_run_ns")
            .add(now.run_ns.saturating_sub(last.run_ns));
        *last = now;
        drop(last);
        telemetry.gauge("pool.threads").set(pool.threads() as f64);
        telemetry
            .gauge("pool.queue_depth")
            .set(pool.queue_depth() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_config_round_trips_through_serde() {
        let config = ObserveConfig {
            http_addr: Some("127.0.0.1:9184".parse().expect("addr")),
            sample_interval: Duration::from_millis(125),
            ring_len: 16,
            sample_rates: true,
            trace_lineage: true,
            lineage_reservoir: 32,
        };
        let value = config.serialize();
        let back = ObserveConfig::deserialize(&value).expect("round trip");
        assert_eq!(back, config);

        let off = ObserveConfig::default();
        let back = ObserveConfig::deserialize(&off.serialize()).expect("round trip");
        assert_eq!(back, off);
        assert!(!off.is_active());
    }

    #[test]
    fn observe_config_defaults_lineage_fields_when_missing() {
        // Configs serialized before lineage tracing existed have no
        // lineage keys; they must still deserialize.
        let mut value = ObserveConfig::default().serialize();
        if let Value::Object(map) = &mut value {
            map.remove("trace_lineage");
            map.remove("lineage_reservoir");
        }
        let back = ObserveConfig::deserialize(&value).expect("legacy config");
        assert!(!back.trace_lineage);
        assert_eq!(
            back.lineage_reservoir,
            ObserveConfig::default().lineage_reservoir
        );
    }

    #[test]
    fn observe_config_rejects_bad_addr() {
        let mut value = ObserveConfig::default().serialize();
        if let Value::Object(map) = &mut value {
            map.insert(
                "http_addr".to_owned(),
                Some("not-an-address".to_owned()).serialize(),
            );
        }
        assert!(ObserveConfig::deserialize(&value).is_err());
    }

    #[test]
    fn validation_only_applies_when_active() {
        let mut config = ObserveConfig {
            sample_interval: Duration::ZERO,
            ring_len: 0,
            ..ObserveConfig::default()
        };
        assert!(config.validate().is_ok(), "inactive config is unchecked");
        config.sample_rates = true;
        assert!(config.validate().is_err());
        config.sample_interval = Duration::from_millis(10);
        assert!(config.validate().is_err(), "ring_len 0 still invalid");
        config.ring_len = 1;
        assert!(config.validate().is_ok());
    }

    #[test]
    fn lineage_reservoir_is_checked_even_when_plane_is_inactive() {
        let config = ObserveConfig {
            trace_lineage: true,
            lineage_reservoir: 0,
            ..ObserveConfig::default()
        };
        assert!(!config.is_active());
        assert!(config.validate().is_err());
        let config = ObserveConfig {
            trace_lineage: true,
            lineage_reservoir: 1,
            ..ObserveConfig::default()
        };
        assert!(config.validate().is_ok());
    }

    #[test]
    fn vitals_track_liveness_and_watermark() {
        let vitals = std::sync::Arc::new(SessionVitals::new(2));
        assert!(vitals.all_cameras_alive());
        vitals.watermark.store(17, Ordering::Release);
        {
            let _guard = CameraAliveGuard {
                flag: std::sync::Arc::clone(&vitals),
                camera: 1,
            };
        }
        assert!(!vitals.all_cameras_alive());
        let telemetry = Telemetry::enabled();
        vitals.publish(&telemetry);
        let report = telemetry.report();
        assert_eq!(report.gauge("session.watermark_frame"), Some(17.0));
        assert_eq!(
            report.gauge("session.camera_alive{camera=\"0\"}"),
            Some(1.0)
        );
        assert_eq!(
            report.gauge("session.camera_alive{camera=\"1\"}"),
            Some(0.0)
        );
    }
}
