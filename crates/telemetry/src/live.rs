//! The live observability plane: a rate-aware snapshot aggregator, a
//! collapsed-stack span profiler, and the [`LivePlane`] that runs both
//! on background threads next to an executing session.
//!
//! The registry's counters are monotonic, so two snapshots taken at
//! different times diff into a *windowed* view: frames/s per camera,
//! drops/s, pool tasks/s, and per-window latency quantiles (from
//! histogram bucket deltas) — the things a final-report average hides.
//! Windows land in a bounded ring, served over HTTP by the plane's
//! embedded exporter and attached to the final report as a trajectory.
//!
//! ```
//! use dievent_telemetry::{LiveOptions, LivePlane, Telemetry};
//! use std::time::Duration;
//!
//! let telemetry = Telemetry::enabled();
//! let mut plane = LivePlane::start(&telemetry, LiveOptions::default())
//!     .expect("no socket requested, start cannot fail");
//! telemetry.counter("frames_processed").add(40);
//! plane.sample_now();
//! let windows = plane.windows(None);
//! assert_eq!(windows.last().map(|w| w.delta_total("frames_processed")), Some(40));
//! assert!(plane.shutdown_join(Duration::from_secs(2)));
//! ```

use crate::metrics::HistogramCore;
use crate::report::GaugeEntry;
use crate::{http, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// How the live plane runs: where (if anywhere) to serve HTTP, how
/// often to sample, and how many windows to retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveOptions {
    /// Address to bind the embedded metrics endpoint on; `None` runs
    /// the sampler without any socket. Port 0 picks a free port —
    /// read it back via [`LivePlane::local_addr`].
    pub http_addr: Option<SocketAddr>,
    /// Interval between sampler ticks (heartbeat + window). Clamped
    /// to at least 1 ms.
    pub sample_interval: Duration,
    /// Maximum retained [`RateWindow`]s; older windows fall off.
    pub ring_len: usize,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            http_addr: None,
            sample_interval: Duration::from_millis(250),
            ring_len: 120,
        }
    }
}

/// One counter's movement over a window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateEntry {
    /// Rendered instrument name, e.g. `frames_processed{camera="0"}`.
    pub name: String,
    /// Increase over the window.
    pub delta: u64,
    /// Increase divided by the window length.
    pub per_second: f64,
}

/// One histogram's windowed distribution, from bucket-count deltas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowQuantiles {
    /// Rendered instrument name.
    pub name: String,
    /// Observations that landed inside the window.
    pub count: u64,
    /// Mean of the window's observations (0 when empty).
    pub mean: f64,
    /// Windowed median (log-bucket resolution).
    pub p50: f64,
    /// Windowed 95th percentile.
    pub p95: f64,
    /// Windowed 99th percentile.
    pub p99: f64,
}

/// One sampling window: counter rates, windowed histogram quantiles,
/// and the gauge values at the window's end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateWindow {
    /// Window open, seconds since the telemetry epoch.
    pub start_s: f64,
    /// Window close, seconds since the telemetry epoch.
    pub end_s: f64,
    /// Every counter's movement over the window (zero deltas kept, so
    /// "present but idle" is distinguishable from "absent").
    pub rates: Vec<RateEntry>,
    /// Point-in-time gauge values at the window's end.
    pub gauges: Vec<GaugeEntry>,
    /// Windowed histogram distributions.
    pub quantiles: Vec<WindowQuantiles>,
}

impl RateWindow {
    /// The window's length in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// Per-second rate of the counter with this rendered name.
    pub fn rate(&self, name: &str) -> Option<f64> {
        self.rates
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.per_second)
    }

    /// Summed delta of every counter whose bare name matches —
    /// `delta_total("frames_processed")` adds all cameras.
    pub fn delta_total(&self, base: &str) -> u64 {
        let labeled = format!("{base}{{");
        self.rates
            .iter()
            .filter(|r| r.name == base || r.name.starts_with(&labeled))
            .map(|r| r.delta)
            .sum()
    }

    /// Summed per-second rate across labels of a bare counter name.
    pub fn rate_total(&self, base: &str) -> f64 {
        let labeled = format!("{base}{{");
        self.rates
            .iter()
            .filter(|r| r.name == base || r.name.starts_with(&labeled))
            .map(|r| r.per_second)
            .sum()
    }

    /// The gauge value recorded at this window's end, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// This window's distribution of the named histogram, if present.
    pub fn quantiles(&self, name: &str) -> Option<&WindowQuantiles> {
        self.quantiles.iter().find(|q| q.name == name)
    }
}

/// Baseline captured at the previous tick, diffed against the next.
struct Baseline {
    t_s: f64,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (Vec<u64>, f64)>,
}

/// Diffs successive registry snapshots into [`RateWindow`]s.
pub(crate) struct Aggregator {
    ring_len: usize,
    prev: Option<Baseline>,
    ring: VecDeque<RateWindow>,
}

impl Aggregator {
    pub(crate) fn new(ring_len: usize) -> Self {
        Aggregator {
            ring_len: ring_len.max(1),
            prev: None,
            ring: VecDeque::new(),
        }
    }

    /// Takes one sample; produces a window iff a baseline exists and
    /// time advanced.
    pub(crate) fn sample(&mut self, telemetry: &Telemetry) {
        let Some(inner) = telemetry.inner_arc() else {
            return;
        };
        let now = inner.now_s();
        let registry = inner.registry();
        let counters: BTreeMap<String, u64> = registry
            .counter_values()
            .into_iter()
            .map(|(k, v)| (k.render(), v))
            .collect();
        let hists: BTreeMap<String, (Vec<u64>, f64)> = registry
            .histogram_cores()
            .into_iter()
            .map(|(k, core)| (k.render(), (core.bucket_snapshot(), core.sum())))
            .collect();

        if let Some(prev) = &self.prev {
            let dt = now - prev.t_s;
            if dt > 0.0 {
                let rates = counters
                    .iter()
                    .map(|(name, &value)| {
                        let before = prev.counters.get(name).copied().unwrap_or(0);
                        let delta = value.saturating_sub(before);
                        RateEntry {
                            name: name.clone(),
                            delta,
                            per_second: delta as f64 / dt,
                        }
                    })
                    .collect();
                let gauges = registry
                    .gauge_values()
                    .into_iter()
                    .map(|(k, value)| GaugeEntry {
                        name: k.render(),
                        value,
                    })
                    .collect();
                let quantiles = hists
                    .iter()
                    .map(|(name, (buckets, sum))| {
                        windowed_quantiles(name, buckets, *sum, prev.hists.get(name))
                    })
                    .collect();
                self.ring.push_back(RateWindow {
                    start_s: prev.t_s,
                    end_s: now,
                    rates,
                    gauges,
                    quantiles,
                });
                while self.ring.len() > self.ring_len {
                    self.ring.pop_front();
                }
            }
        }
        self.prev = Some(Baseline {
            t_s: now,
            counters,
            hists,
        });
    }

    /// The retained windows, oldest first; `last` limits to the most
    /// recent N.
    pub(crate) fn windows(&self, last: Option<usize>) -> Vec<RateWindow> {
        let take = last.unwrap_or(self.ring.len()).min(self.ring.len());
        self.ring
            .iter()
            .skip(self.ring.len() - take)
            .cloned()
            .collect()
    }
}

/// Builds one histogram's windowed distribution from bucket deltas.
fn windowed_quantiles(
    name: &str,
    buckets: &[u64],
    sum: f64,
    prev: Option<&(Vec<u64>, f64)>,
) -> WindowQuantiles {
    let zero: (Vec<u64>, f64) = (Vec::new(), 0.0);
    let (prev_buckets, prev_sum) = prev.unwrap_or(&zero);
    let deltas: Vec<u64> = buckets
        .iter()
        .enumerate()
        .map(|(i, &b)| b.saturating_sub(prev_buckets.get(i).copied().unwrap_or(0)))
        .collect();
    let count: u64 = deltas.iter().sum();
    let mean = if count > 0 {
        ((sum - prev_sum) / count as f64).max(0.0)
    } else {
        0.0
    };
    WindowQuantiles {
        name: name.to_owned(),
        count,
        mean,
        p50: delta_quantile(&deltas, count, 0.50),
        p95: delta_quantile(&deltas, count, 0.95),
        p99: delta_quantile(&deltas, count, 0.99),
    }
}

/// The value at quantile `q` of a bucket-delta distribution; 0 when
/// the window saw no observations.
fn delta_quantile(deltas: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (idx, &d) in deltas.iter().enumerate() {
        cumulative += d;
        if cumulative >= rank {
            return HistogramCore::bucket_value(idx);
        }
    }
    0.0
}

/// One node of the span profile: a root-first `;`-joined stack with
/// cumulative total and self (total minus children) time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Root-first call path, names joined with `;` — the
    /// collapsed-stack convention flamegraph tooling consumes.
    pub stack: String,
    /// Spans aggregated into this node.
    pub count: u64,
    /// Total wall-clock seconds (including children).
    pub total_s: f64,
    /// Seconds not attributed to any child span.
    pub self_s: f64,
}

/// Maximum parent-chain depth the profiler will walk; beyond this the
/// chain is treated as detached (defends against id cycles in
/// hand-built parents).
const MAX_STACK_DEPTH: usize = 64;

/// Aggregates completed *and still-open* spans into a profile, one
/// node per distinct call path. Open spans are counted at their
/// elapsed time so a mid-run profile is meaningful.
pub fn span_profile(telemetry: &Telemetry) -> Vec<ProfileNode> {
    let Some(inner) = telemetry.inner_arc() else {
        return Vec::new();
    };
    let now = inner.now_s();
    // id → (name, parent, duration). Open spans resolve ancestors for
    // completed children, and contribute their elapsed time.
    let mut meta: HashMap<u64, (String, Option<u64>, f64)> = HashMap::new();
    for s in inner.completed_spans() {
        meta.insert(s.id, (s.name, s.parent, s.duration_s));
    }
    for (id, open) in inner.open_spans() {
        meta.entry(id)
            .or_insert((open.name, open.parent, (now - open.start_s).max(0.0)));
    }

    let mut child_time: HashMap<u64, f64> = HashMap::new();
    for (_, parent, duration) in meta.values() {
        if let Some(parent) = parent {
            *child_time.entry(*parent).or_default() += duration;
        }
    }

    let mut nodes: BTreeMap<String, ProfileNode> = BTreeMap::new();
    for (id, (_, _, duration)) in &meta {
        let stack = stack_of(*id, &meta);
        let self_s = (duration - child_time.get(id).copied().unwrap_or(0.0)).max(0.0);
        let node = nodes.entry(stack.clone()).or_insert(ProfileNode {
            stack,
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        node.count += 1;
        node.total_s += duration;
        node.self_s += self_s;
    }
    nodes.into_values().collect()
}

/// Renders the profile in collapsed-stack format: one `stack value`
/// line per node, value = self time in integer microseconds. Feed
/// straight to `flamegraph.pl` / `inferno`.
pub fn collapsed_stacks(telemetry: &Telemetry) -> String {
    let mut out = String::new();
    for node in span_profile(telemetry) {
        let micros = (node.self_s * 1e6).round().max(0.0) as u64;
        out.push_str(&node.stack);
        out.push(' ');
        out.push_str(&micros.to_string());
        out.push('\n');
    }
    out
}

/// Root-first `;`-joined path for one span id.
fn stack_of(id: u64, meta: &HashMap<u64, (String, Option<u64>, f64)>) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut cursor = Some(id);
    while let Some(current) = cursor {
        let Some((name, parent, _)) = meta.get(&current) else {
            break;
        };
        names.push(name.as_str());
        if names.len() >= MAX_STACK_DEPTH {
            break;
        }
        cursor = *parent;
    }
    names.reverse();
    names.join(";")
}

/// The per-tick heartbeat callback. It *borrows* the probe for the
/// duration of each call instead of owning one: an owned probe would
/// put an `Arc<PlaneShared>` inside `PlaneShared.heartbeat` — a cycle
/// that keeps the callback's captures (a pool handle and its worker
/// threads, session vitals, telemetry) alive forever.
type HeartbeatFn = Box<dyn Fn(&PlaneProbe) + Send + 'static>;

/// Provider for the `GET /tenants` JSON body: a multi-tenant server
/// attaches one (see [`LivePlane::attach_tenants`]) that snapshots its
/// tenant registry on demand. Shared with the HTTP thread, hence
/// `Sync` on top of the heartbeat's bounds.
type TenantsFn = Arc<dyn Fn() -> String + Send + Sync + 'static>;

/// State shared between the plane handle, the sampler thread, and the
/// HTTP server thread.
pub(crate) struct PlaneShared {
    pub(crate) telemetry: Telemetry,
    pub(crate) aggregator: Mutex<Aggregator>,
    /// The session's frame-lineage tracer, when lineage tracing is on —
    /// serves `GET /lineage`. A handle, not an owner: the session owns
    /// the tracer's lifecycle.
    pub(crate) lineage: Mutex<Option<crate::lineage::LineageTracer>>,
    /// Snapshot provider for the multi-tenant `GET /tenants` view —
    /// `None` (404) until a server attaches one. Cleared at shutdown
    /// so the provider's captures (a tenant registry) are released
    /// even while outstanding probes keep this struct alive.
    pub(crate) tenants: Mutex<Option<TenantsFn>>,
    /// Called at the top of every tick — the session publishes its
    /// heartbeat gauges (uptime, watermark, liveness, pool deltas)
    /// from here so they are fresh in every sample and scrape.
    /// Cleared at shutdown so its captures are released even while
    /// outstanding [`PlaneProbe`]s keep this struct alive.
    heartbeat: Mutex<Option<HeartbeatFn>>,
    pub(crate) ready: AtomicBool,
    pub(crate) shutdown: AtomicBool,
    /// Background threads currently running (sampler + server).
    threads_alive: AtomicUsize,
    /// What `/readyz` would have said at the instant the server loop
    /// exited — lets tests assert "not ready *before* socket close"
    /// without racing the shutdown.
    pub(crate) ready_when_closed: Mutex<Option<bool>>,
    pub(crate) started: Instant,
    /// Sampler wake: the bool is "stop requested".
    wake: (StdMutex<bool>, Condvar),
    sample_interval: Duration,
}

impl PlaneShared {
    /// Runs the heartbeat callback (when registered), lending it a
    /// probe for readiness downgrades.
    fn run_heartbeat(self: &Arc<Self>) {
        let heartbeat = self.heartbeat.lock();
        if let Some(f) = heartbeat.as_ref() {
            f(&PlaneProbe {
                shared: Arc::clone(self),
            });
        }
    }

    /// One sampler tick: heartbeat, then window the registry.
    pub(crate) fn tick(self: &Arc<Self>) {
        self.run_heartbeat();
        self.aggregator.lock().sample(&self.telemetry);
        self.telemetry.counter("observe.samples").incr();
    }

    pub(crate) fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire) && !self.shutdown.load(Ordering::Acquire)
    }
}

/// Decrements `threads_alive` when a plane thread exits, even if it
/// unwinds.
struct AliveGuard(Arc<PlaneShared>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.threads_alive.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A diagnostic handle onto the plane's shared state that outlives the
/// [`LivePlane`] — lets tests assert that dropping a plane (or a
/// session holding one) leaks no threads.
#[derive(Clone)]
pub struct PlaneProbe {
    shared: Arc<PlaneShared>,
}

impl PlaneProbe {
    /// Background threads (sampler + server) still running.
    pub fn threads_alive(&self) -> usize {
        self.shared.threads_alive.load(Ordering::Acquire)
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// What `/readyz` reported at the instant the listener closed
    /// (`None` while the server is still running or never ran).
    pub fn ready_when_closed(&self) -> Option<bool> {
        *self.shared.ready_when_closed.lock()
    }

    /// Flips the readiness flag, like [`LivePlane::set_ready`] — for
    /// health checks that run inside the heartbeat closure, which
    /// cannot hold the plane itself.
    pub fn set_ready(&self, ready: bool) {
        self.shared.ready.store(ready, Ordering::Release);
    }

    /// Whether a lineage tracer is attached to the plane's shared
    /// state. Must read `false` once the plane shut down: the tracer's
    /// waterfall buffers would otherwise stay pinned for as long as
    /// any probe lives.
    pub fn lineage_attached(&self) -> bool {
        self.shared.lineage.lock().is_some()
    }

    /// Whether a `/tenants` provider is attached. Must read `false`
    /// once the plane shut down, for the same pinning reason as
    /// [`lineage_attached`](PlaneProbe::lineage_attached).
    pub fn tenants_attached(&self) -> bool {
        self.shared.tenants.lock().is_some()
    }
}

/// The running observability plane: a sampler thread (heartbeat +
/// rate windows) and, when an address was configured, an embedded
/// HTTP server for `/metrics`, `/healthz`, `/readyz`, `/snapshot`,
/// and `/profile`.
///
/// Dropping the plane shuts both threads down gracefully (readiness
/// flips to `false` *before* the socket closes) and joins them with a
/// bounded wait — a session abandoned without `finish()` cannot leak
/// threads.
pub struct LivePlane {
    shared: Arc<PlaneShared>,
    sampler: Option<JoinHandle<()>>,
    server: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl std::fmt::Debug for LivePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LivePlane")
            .field("local_addr", &self.local_addr)
            .field("ready", &self.shared.is_ready())
            .finish()
    }
}

impl LivePlane {
    /// Starts the plane: binds the listener (when configured), takes
    /// the initial baseline sample, and spawns the background threads.
    /// Fails only on socket bind/spawn errors.
    pub fn start(telemetry: &Telemetry, options: LiveOptions) -> std::io::Result<LivePlane> {
        Self::start_inner(telemetry, options, None, false)
    }

    /// Like [`start`](LivePlane::start), but wires the heartbeat
    /// callback and the initial `/readyz` verdict *before* the sampler
    /// and server threads spawn: the very first rate window already
    /// carries the heartbeat gauges, and a probe connecting right
    /// after the bind never sees a spurious 503 for an open session.
    /// The callback is lent a [`PlaneProbe`] on every call (e.g. to
    /// downgrade readiness) and is dropped at shutdown.
    pub fn start_with_heartbeat(
        telemetry: &Telemetry,
        options: LiveOptions,
        ready: bool,
        heartbeat: impl Fn(&PlaneProbe) + Send + 'static,
    ) -> std::io::Result<LivePlane> {
        Self::start_inner(telemetry, options, Some(Box::new(heartbeat)), ready)
    }

    fn start_inner(
        telemetry: &Telemetry,
        options: LiveOptions,
        heartbeat: Option<HeartbeatFn>,
        ready: bool,
    ) -> std::io::Result<LivePlane> {
        let interval = options.sample_interval.max(Duration::from_millis(1));
        let shared = Arc::new(PlaneShared {
            telemetry: telemetry.clone(),
            aggregator: Mutex::new(Aggregator::new(options.ring_len)),
            lineage: Mutex::new(None),
            tenants: Mutex::new(None),
            heartbeat: Mutex::new(heartbeat),
            ready: AtomicBool::new(ready),
            shutdown: AtomicBool::new(false),
            threads_alive: AtomicUsize::new(0),
            ready_when_closed: Mutex::new(None),
            started: Instant::now(),
            wake: (StdMutex::new(false), Condvar::new()),
            sample_interval: interval,
        });
        // Baseline (heartbeat included) so the first timed tick
        // already yields a window carrying the heartbeat gauges.
        shared.run_heartbeat();
        shared.aggregator.lock().sample(telemetry);

        let mut local_addr = None;
        let mut server = None;
        if let Some(addr) = options.http_addr {
            let listener = TcpListener::bind(addr)?;
            local_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            server = Some(Self::spawn("dievent-live-http", &shared, {
                let shared = Arc::clone(&shared);
                move || http::serve(listener, shared)
            })?);
        }
        let sampler = Self::spawn("dievent-live-sampler", &shared, {
            let shared = Arc::clone(&shared);
            move || sampler_loop(&shared)
        })?;

        Ok(LivePlane {
            shared,
            sampler: Some(sampler),
            server,
            local_addr,
        })
    }

    fn spawn(
        name: &str,
        shared: &Arc<PlaneShared>,
        body: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<JoinHandle<()>> {
        shared.threads_alive.fetch_add(1, Ordering::AcqRel);
        let guard = AliveGuard(Arc::clone(shared));
        let spawned = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                let _guard = guard;
                body();
            });
        match spawned {
            Ok(handle) => Ok(handle),
            // The guard moved into the closure that never ran; the
            // count was already rolled back when `spawn` dropped it.
            Err(e) => Err(e),
        }
    }

    /// The address the HTTP listener actually bound (resolves port 0),
    /// `None` when no address was configured.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Registers the per-tick heartbeat callback (replacing any
    /// previous one). Runs on the sampler thread before every sample
    /// and on [`sample_now`](LivePlane::sample_now), lent a
    /// [`PlaneProbe`] so it can downgrade readiness without owning a
    /// handle back into the plane. Dropped at shutdown. Prefer
    /// [`start_with_heartbeat`](LivePlane::start_with_heartbeat) so
    /// the first tick already sees the callback.
    pub fn set_heartbeat(&self, f: impl Fn(&PlaneProbe) + Send + 'static) {
        *self.shared.heartbeat.lock() = Some(Box::new(f));
    }

    /// Attaches a frame-lineage tracer: `GET /lineage` serves its
    /// stage-attribution report from now on (404 until then). The
    /// plane holds a cheap handle, not ownership.
    pub fn attach_lineage(&self, tracer: crate::lineage::LineageTracer) {
        *self.shared.lineage.lock() = Some(tracer);
    }

    /// Attaches the `GET /tenants` snapshot provider: the endpoint
    /// serves whatever JSON the closure returns from now on (404 until
    /// then). A multi-tenant server hands in a closure over its tenant
    /// registry. Detached (and its captures released) at shutdown.
    pub fn attach_tenants(&self, provider: impl Fn() -> String + Send + Sync + 'static) {
        *self.shared.tenants.lock() = Some(Arc::new(provider));
    }

    /// Flips the `/readyz` verdict.
    pub fn set_ready(&self, ready: bool) {
        self.shared.ready.store(ready, Ordering::Release);
    }

    /// Current `/readyz` verdict.
    pub fn is_ready(&self) -> bool {
        self.shared.is_ready()
    }

    /// Takes a sample immediately (heartbeat + window), off-schedule.
    pub fn sample_now(&self) {
        self.shared.tick();
    }

    /// Retained rate windows, oldest first; `last` limits to the most
    /// recent N.
    pub fn windows(&self, last: Option<usize>) -> Vec<RateWindow> {
        self.shared.aggregator.lock().windows(last)
    }

    /// A diagnostic handle that survives the plane itself.
    pub fn probe(&self) -> PlaneProbe {
        PlaneProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: readiness drops first, both threads are
    /// signalled, then joined until `timeout`. Returns `true` when
    /// every thread joined in time. Idempotent.
    pub fn shutdown_join(&mut self, timeout: Duration) -> bool {
        self.shared.ready.store(false, Ordering::Release);
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let (lock, condvar) = &self.shared.wake;
            let mut stop = match lock.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            *stop = true;
            condvar.notify_all();
        }
        // Drop the heartbeat callback: its captures (session vitals,
        // telemetry, possibly a pool handle whose worker threads only
        // exit when the last handle drops) must be released now, not
        // when the last outstanding PlaneProbe goes away.
        *self.shared.heartbeat.lock() = None;
        // Same for the lineage handle: its waterfall buffers must not
        // stay pinned behind a long-lived test probe.
        *self.shared.lineage.lock() = None;
        // And for the tenants provider, whose closure captures the
        // server's tenant registry.
        *self.shared.tenants.lock() = None;
        let deadline = Instant::now() + timeout;
        let mut all_joined = true;
        for handle in [self.sampler.take(), self.server.take()]
            .into_iter()
            .flatten()
        {
            loop {
                if handle.is_finished() {
                    let _ = handle.join();
                    break;
                }
                if Instant::now() >= deadline {
                    // Detach rather than block forever; the probe's
                    // thread count will expose the leak to tests.
                    all_joined = false;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        all_joined
    }
}

impl Drop for LivePlane {
    fn drop(&mut self) {
        self.shutdown_join(Duration::from_secs(2));
    }
}

/// The sampler thread: tick every `sample_interval` until shutdown.
fn sampler_loop(shared: &Arc<PlaneShared>) {
    loop {
        {
            let (lock, condvar) = &shared.wake;
            let mut stop = match lock.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // A stop requested while the previous tick ran (or before
            // this thread reached its first wait) notified a condvar
            // nobody was waiting on — check the flag before sleeping,
            // or shutdown would stall a full interval.
            if *stop || shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            stop = match condvar.wait_timeout(stop, shared.sample_interval) {
                Ok((guard, _timeout)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
            if *stop || shared.shutdown.load(Ordering::Acquire) {
                return;
            }
        }
        shared.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_report_counter_rates_and_deltas() {
        let t = Telemetry::enabled();
        let mut agg = Aggregator::new(8);
        agg.sample(&t); // baseline
        t.counter_with("frames_processed", &[("camera", "0")])
            .add(30);
        t.counter_with("frames_processed", &[("camera", "1")])
            .add(10);
        std::thread::sleep(Duration::from_millis(2));
        agg.sample(&t);
        let windows = agg.windows(None);
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.delta_total("frames_processed"), 40);
        assert!(w.rate("frames_processed{camera=\"0\"}").unwrap_or(0.0) > 0.0);
        assert!(w.rate_total("frames_processed") > 0.0);
        assert!(w.duration_s() > 0.0);
        assert_eq!(w.rate("missing"), None);
    }

    #[test]
    fn windowed_quantiles_see_only_the_window() {
        let t = Telemetry::enabled();
        let h = t.histogram("fusion_seconds");
        let mut agg = Aggregator::new(8);
        // First window: fast observations.
        agg.sample(&t);
        for _ in 0..100 {
            h.observe(1e-3);
        }
        std::thread::sleep(Duration::from_millis(2));
        agg.sample(&t);
        // Second window: slow observations only.
        for _ in 0..100 {
            h.observe(1.0);
        }
        std::thread::sleep(Duration::from_millis(2));
        agg.sample(&t);
        let windows = agg.windows(None);
        assert_eq!(windows.len(), 2);
        let first = windows[0].quantiles("fusion_seconds").expect("present");
        let second = windows[1].quantiles("fusion_seconds").expect("present");
        assert_eq!(first.count, 100);
        assert_eq!(second.count, 100);
        // Windowed p95 tracks each window's own distribution, which
        // the cumulative histogram (p50 ≈ mixed) cannot show.
        assert!(first.p95 < 2e-3, "fast window p95 {}", first.p95);
        assert!(second.p95 > 0.5, "slow window p95 {}", second.p95);
        assert!((first.mean - 1e-3).abs() / 1e-3 < 0.05);
    }

    #[test]
    fn ring_is_bounded() {
        let t = Telemetry::enabled();
        let mut agg = Aggregator::new(3);
        agg.sample(&t);
        for i in 0..10u64 {
            t.counter("ticks").add(i + 1);
            std::thread::sleep(Duration::from_millis(1));
            agg.sample(&t);
        }
        assert_eq!(agg.windows(None).len(), 3);
        assert_eq!(agg.windows(Some(2)).len(), 2);
        assert_eq!(agg.windows(Some(99)).len(), 3);
        // Oldest-first ordering.
        let w = agg.windows(None);
        assert!(w[0].end_s <= w[1].start_s + 1e-9);
    }

    #[test]
    fn profile_collapses_stacks_with_self_time() {
        let t = Telemetry::enabled();
        {
            let _run = t.span("run");
            {
                let _stage = t.span("stage.extraction");
                let _chunk = t.span("camera.extract_chunk");
            }
            let _fuse = t.span("stage.fusion");
        }
        let nodes = span_profile(&t);
        let stacks: Vec<&str> = nodes.iter().map(|n| n.stack.as_str()).collect();
        assert!(stacks.contains(&"run"));
        assert!(stacks.contains(&"run;stage.extraction"));
        assert!(stacks.contains(&"run;stage.extraction;camera.extract_chunk"));
        assert!(stacks.contains(&"run;stage.fusion"));
        for n in &nodes {
            assert!(n.self_s <= n.total_s + 1e-9, "{}", n.stack);
            assert!(n.self_s >= 0.0);
        }
        let collapsed = collapsed_stacks(&t);
        assert!(collapsed.lines().count() >= 4, "{collapsed}");
        for line in collapsed.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack value");
            assert!(!stack.is_empty());
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn profile_includes_open_spans_mid_run() {
        let t = Telemetry::enabled();
        let run = t.span("run");
        let _worker = t.span_under("camera.worker", run.id());
        std::thread::sleep(Duration::from_millis(2));
        // Both spans are still open — the profile must still resolve
        // the full parent chain and count elapsed time.
        let nodes = span_profile(&t);
        let worker = nodes
            .iter()
            .find(|n| n.stack == "run;camera.worker")
            .expect("open span profiled");
        assert!(worker.total_s > 0.0);
    }

    #[test]
    fn plane_samples_on_a_timer_and_joins_cleanly() {
        let t = Telemetry::enabled();
        let mut plane = LivePlane::start(
            &t,
            LiveOptions {
                http_addr: None,
                sample_interval: Duration::from_millis(5),
                ring_len: 64,
            },
        )
        .expect("no socket to bind");
        let probe = plane.probe();
        assert_eq!(probe.threads_alive(), 1, "sampler only");
        t.counter("frames_processed").add(7);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!plane.windows(None).is_empty(), "timer produced windows");
        assert!(plane.shutdown_join(Duration::from_secs(2)));
        assert_eq!(probe.threads_alive(), 0);
        assert!(probe.is_shutdown());
    }

    #[test]
    fn heartbeat_runs_before_every_sample() {
        let t = Telemetry::enabled();
        let plane = LivePlane::start(&t, LiveOptions::default()).expect("no socket");
        let beats = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&beats);
        let hb_telemetry = t.clone();
        plane.set_heartbeat(move |_probe| {
            counted.fetch_add(1, Ordering::Relaxed);
            hb_telemetry.gauge("session.uptime_s").set(1.0);
        });
        plane.sample_now();
        plane.sample_now();
        assert_eq!(beats.load(Ordering::Relaxed), 2);
        let windows = plane.windows(None);
        let last = windows.last().expect("two samples, one window min");
        assert_eq!(last.gauge("session.uptime_s"), Some(1.0));
    }

    #[test]
    fn start_with_heartbeat_wires_before_the_first_tick() {
        let t = Telemetry::enabled();
        let hb_telemetry = t.clone();
        let mut plane = LivePlane::start_with_heartbeat(
            &t,
            LiveOptions {
                http_addr: None,
                sample_interval: Duration::from_millis(5),
                ring_len: 8,
            },
            true,
            move |_probe| hb_telemetry.gauge("session.uptime_s").set(2.0),
        )
        .expect("no socket");
        assert!(plane.is_ready(), "initial readiness applies before start");
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let windows = plane.windows(None);
            if let Some(first) = windows.first() {
                // Even the *first* window must carry the heartbeat
                // gauges — the callback was registered before the
                // sampler thread existed.
                assert_eq!(first.gauge("session.uptime_s"), Some(2.0));
                break;
            }
            assert!(Instant::now() < deadline, "sampler produced no window");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(plane.shutdown_join(Duration::from_secs(2)));
    }

    #[test]
    fn heartbeat_can_downgrade_readiness_via_the_lent_probe() {
        let t = Telemetry::enabled();
        let plane = LivePlane::start(&t, LiveOptions::default()).expect("no socket");
        plane.set_ready(true);
        plane.set_heartbeat(|probe| probe.set_ready(false));
        assert!(plane.is_ready());
        plane.sample_now();
        assert!(!plane.is_ready(), "heartbeat flipped readiness");
    }

    #[test]
    fn shutdown_frees_heartbeat_captures_despite_live_probes() {
        let t = Telemetry::enabled();
        let mut plane = LivePlane::start(&t, LiveOptions::default()).expect("no socket");
        let sentinel = Arc::new(());
        let weak = Arc::downgrade(&sentinel);
        plane.set_heartbeat(move |_probe| {
            let _held = &sentinel;
        });
        plane.sample_now();
        assert!(weak.upgrade().is_some(), "captures alive while running");
        // The probe outlives the plane (as test probes do): the
        // heartbeat's captures must still be dropped at shutdown —
        // a session's pool handle held here would otherwise leak the
        // pool's worker threads for as long as any probe exists.
        let probe = plane.probe();
        assert!(plane.shutdown_join(Duration::from_secs(2)));
        assert!(
            weak.upgrade().is_none(),
            "shutdown must drop the heartbeat callback and its captures"
        );
        drop(probe);
    }

    #[test]
    fn stop_requested_before_the_first_wait_is_seen_immediately() {
        let t = Telemetry::enabled();
        let mut plane = LivePlane::start(
            &t,
            LiveOptions {
                http_addr: None,
                sample_interval: Duration::from_secs(30),
                ring_len: 4,
            },
        )
        .expect("no socket");
        let probe = plane.probe();
        // Zero-timeout join: signals stop (racing the sampler thread
        // to its first condvar wait) and detaches. The pre-wait stop
        // check must make the thread exit promptly either way — with
        // only the post-wait check it would sleep out the full 30 s
        // interval whenever the notify won the race.
        plane.shutdown_join(Duration::ZERO);
        let deadline = Instant::now() + Duration::from_secs(2);
        while probe.threads_alive() > 0 {
            assert!(
                Instant::now() < deadline,
                "sampler slept through a stop request"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn dropping_the_plane_joins_threads() {
        let t = Telemetry::enabled();
        let plane = LivePlane::start(
            &t,
            LiveOptions {
                http_addr: None,
                sample_interval: Duration::from_millis(1),
                ring_len: 4,
            },
        )
        .expect("no socket");
        let probe = plane.probe();
        drop(plane);
        assert_eq!(probe.threads_alive(), 0, "drop must join the sampler");
        assert!(probe.is_shutdown());
    }

    #[test]
    fn disabled_telemetry_yields_no_windows_or_profile() {
        let t = Telemetry::disabled();
        let mut agg = Aggregator::new(4);
        agg.sample(&t);
        agg.sample(&t);
        assert!(agg.windows(None).is_empty());
        assert!(span_profile(&t).is_empty());
        assert_eq!(collapsed_stacks(&t), "");
    }
}
