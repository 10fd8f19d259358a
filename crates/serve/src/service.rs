//! The long-running routing service: device registry, bounded job queue,
//! worker pool, HTTP dispatch, admission control, and graceful shutdown.
//!
//! # Architecture
//!
//! ```text
//!        reactor thread (poll loop)          worker pool (config.workers)
//!   TcpListener ──► connection table ──► BoundedQueue ──► route()/transpile_batch_cached()
//!                   (parse + admit)       (weighted,            │
//!                        ▲                 backpressure)        │ completions
//!                        └──────── waker ◄──────────────────────┘
//!                          (token, Response) pairs, written when
//!                           the client's socket is ready
//! ```
//!
//! The reactor ([`crate::reactor`]) owns every socket and does the cheap
//! work — incremental HTTP parsing, JSON validation, device lookup — and
//! **admits** jobs. Admission is metrics-driven: each job is priced in
//! search steps, and when the modeled queue drain (backlog × live
//! ns-per-step ÷ workers) exceeds the configured SLO the request gets a
//! priced `429` carrying the projected wait; a full queue is a
//! `503 + Retry-After` computed from the same model (config floor). No
//! unbounded buffering — the ROADMAP's backpressure requirement.
//! Before any of that pricing, `POST /route` consults the routed-plan
//! cache: a structure that was routed before (same device, noise,
//! heuristic objective) is answered inline on the reactor thread by
//! re-binding the cached plan's parameters — zero search steps, no
//! queue traversal.
//!
//! Worker threads do the expensive work against a process-wide
//! [`DeviceCache`], so every request shares the same preprocessed
//! matrices and embedding verdicts, and a `POST /devices/{id}/noise`
//! refresh recomputes only the noise-weighted matrix — subsequent
//! requests route with the new calibration without a restart. Workers
//! never touch sockets: a finished job is pushed as a
//! `(connection token, Response)` completion and the reactor is woken to
//! deliver it.

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use sabre::{
    transpile_batch_cached, DeviceCache, PlanQuality, SabreConfig, SabreResult, TranspileOptions,
};
use sabre_circuit::Circuit;
use sabre_json::JsonValue;
use sabre_shard::{route_sharded, Fleet, ShardConfig};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{CouplingGraph, DistanceBackend, DEVICE_CACHE_CAPACITY};
use sabre_trace::{SlowLog, Span, TraceRing};

use crate::admission::{self, RateLimiter};
use crate::api::{self, ApiError};
use crate::http::{Request, Response};
use crate::metrics::{Counter, GaugeSnapshot, Hist, Metrics};
use crate::queue::{BoundedQueue, PushError};
use crate::reactor::{self, Waker};
use crate::ServeConfig;

/// Why [`crate::start`] failed.
#[derive(Debug)]
pub enum ServeError {
    /// The [`ServeConfig`] was invalid.
    Config(String),
    /// Binding the listener failed.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(reason) => write!(f, "invalid serve config: {reason}"),
            ServeError::Io(e) => write!(f, "cannot start server: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A registered device: its coupling graph plus the currently active
/// calibration (noise model), if any.
struct RegisteredDevice {
    graph: Arc<CouplingGraph>,
    noise: Option<NoiseModel>,
}

/// One admitted unit of work, tagged with the connection it answers.
pub(crate) struct Job {
    kind: JobKind,
    /// The reactor connection-table token awaiting this job's response.
    pub(crate) token: u64,
    /// The request's trace id, riding along on the worker-pool hop so a
    /// worker-side failure can still be correlated with its trace.
    pub(crate) trace_id: String,
    admitted: Instant,
}

/// A finished job: the response plus the worker-side phase timings
/// (`queue_wait`, `route`, `serialize`) the reactor folds into the
/// request's trace before finalizing it.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Response,
    pub(crate) phases: Vec<(&'static str, u64)>,
    /// Device id the job routed against, stamped onto the trace.
    pub(crate) device: Option<String>,
    /// Quality outcome annotations (swaps, depth overhead, cut gates).
    pub(crate) annotations: Vec<(&'static str, u64)>,
}

enum JobKind {
    Route {
        device_id: String,
        graph: Arc<CouplingGraph>,
        noise: Option<NoiseModel>,
        circuit: Circuit,
        config: SabreConfig,
        include_physical: bool,
    },
    Batch {
        device_id: String,
        graph: Arc<CouplingGraph>,
        circuits: Vec<Circuit>,
        options: TranspileOptions,
        include_physical: bool,
    },
    Sharded {
        /// `(device id, graph, noise)` snapshots, in fleet order.
        members: Vec<(String, Arc<CouplingGraph>, Option<NoiseModel>)>,
        circuit: Circuit,
        config: ShardConfig,
        include_physical: bool,
    },
}

/// Most device ids `POST /devices` (and `--preload`) will register: one
/// per device the [`DeviceCache`] keeps preprocessed, so every registered
/// device stays warm. Registries never evict; a new id past the cap is
/// refused, while re-registering an existing id still replaces it.
pub const MAX_DEVICES: usize = DEVICE_CACHE_CAPACITY;

/// Most fleet ids `POST /fleets` will register (same rules as
/// [`MAX_DEVICES`]); a fleet is only an ordered list of device ids.
pub const MAX_FLEETS: usize = 64;

/// A named registry (devices or fleets). Registries are not caches:
/// they never evict. A new id past `cap` is refused with a message naming
/// the cap, while re-registering an existing id replaces it.
struct Registry<T> {
    kind: &'static str,
    cap: usize,
    map: RwLock<HashMap<String, T>>,
}

impl<T> Registry<T> {
    fn new(kind: &'static str, cap: usize) -> Self {
        Registry {
            kind,
            cap,
            map: RwLock::new(HashMap::new()),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, T>> {
        self.map.read().expect("registry poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, T>> {
        self.map.write().expect("registry poisoned")
    }

    /// Refuses a new `id` once the registry is full: checked before any
    /// costly validation, and again under the write lock on insert.
    fn admits(&self, id: &str) -> Result<(), String> {
        self.check(&self.read(), id)
    }

    fn check(&self, map: &HashMap<String, T>, id: &str) -> Result<(), String> {
        if map.len() >= self.cap && !map.contains_key(id) {
            return Err(format!(
                "{} registry is full ({} ids); re-register an existing id to replace it",
                self.kind, self.cap
            ));
        }
        Ok(())
    }

    /// Inserts `value` under `id`; reports whether an existing id was
    /// replaced.
    fn insert(&self, id: String, value: T) -> Result<bool, String> {
        let mut map = self.write();
        self.check(&map, &id)?;
        Ok(map.insert(id, value).is_some())
    }
}

/// Shared state of one server instance.
pub(crate) struct RoutingService {
    pub(crate) config: ServeConfig,
    cache: DeviceCache,
    devices: Registry<RegisteredDevice>,
    /// Named fleets: ordered device-id lists for `POST /route_sharded`.
    fleets: Registry<Vec<String>>,
    queue: BoundedQueue<Job>,
    pub(crate) metrics: Metrics,
    /// Completed request traces served by `GET /debug/traces`.
    pub(crate) traces: TraceRing,
    /// Slow-request logger (stderr, text or JSONL).
    pub(crate) slow_log: SlowLog,
    /// Finished jobs awaiting delivery by the reactor.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Nudges the reactor out of `poll` when a completion lands.
    waker: Waker,
    /// Estimated steps of jobs popped but not yet finished — the
    /// in-flight half of the admission model's backlog (the queued half
    /// is [`BoundedQueue::pending_cost`]).
    inflight_cost: AtomicU64,
    /// Live connection-table size, mirrored by the reactor for gauges.
    pub(crate) open_connections: AtomicUsize,
    pub(crate) draining: AtomicBool,
}

impl RoutingService {
    fn new(config: ServeConfig, waker: Waker) -> Self {
        let queue = BoundedQueue::new(config.queue_capacity);
        let cache = DeviceCache::with_plan_capacity(config.plan_cache_capacity);
        let traces = TraceRing::new(config.trace_capacity);
        let slow_log = SlowLog::new(config.log_format, config.slow_request_ms);
        RoutingService {
            config,
            cache,
            devices: Registry::new("device", MAX_DEVICES),
            fleets: Registry::new("fleet", MAX_FLEETS),
            queue,
            metrics: Metrics::default(),
            traces,
            slow_log,
            completions: Mutex::new(Vec::new()),
            waker,
            inflight_cost: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }

    fn gauges(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers: self.config.workers,
            devices: self.devices.read().len(),
            fleets: self.fleets.read().len(),
            draining: self.draining.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            max_connections: self.config.max_connections,
        }
    }

    fn device(&self, id: &str) -> Result<(Arc<CouplingGraph>, Option<NoiseModel>), ApiError> {
        let devices = self.devices.read();
        let device = devices.get(id).ok_or_else(|| {
            ApiError::not_found(format!(
                "unknown device `{id}` (register via POST /devices)"
            ))
        })?;
        Ok((device.graph.clone(), device.noise.clone()))
    }

    /// Hands a finished job's response (plus worker-side phase timings)
    /// to the reactor for delivery.
    pub(crate) fn complete(
        &self,
        token: u64,
        response: Response,
        phases: Vec<(&'static str, u64)>,
        device: Option<String>,
        annotations: Vec<(&'static str, u64)>,
    ) {
        self.completions
            .lock()
            .expect("completion list poisoned")
            .push(Completion {
                token,
                response,
                phases,
                device,
                annotations,
            });
        self.waker.wake();
    }

    /// The admission model's backlog: estimated steps queued plus in
    /// flight.
    fn backlog_steps(&self) -> u64 {
        self.queue
            .pending_cost()
            .saturating_add(self.inflight_cost.load(Ordering::Relaxed))
    }

    /// Modeled time to drain the current backlog, from live throughput.
    fn modeled_drain_ns(&self) -> u64 {
        admission::modeled_wait_ns(
            self.backlog_steps(),
            self.metrics.avg_ns_per_step(),
            self.config.workers,
        )
    }
}

/// A running server. Dropping the handle aborts the server
/// ([`ServerHandle::shutdown_now`] semantics); call
/// [`ServerHandle::shutdown`] for a graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<RoutingService>,
    reactor_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (read this when `addr` used port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let the workers **drain every
    /// admitted job** (their clients get real responses), then let the
    /// reactor flush in-flight responses. Jobs still queued when no
    /// worker exists (frozen pool) are failed with `503`.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Abort: stop accepting and fail every queued job with `503`;
    /// workers finish only the job they already started.
    pub fn shutdown_now(mut self) {
        self.stop(true);
    }

    /// Registers a device without going through HTTP — what the
    /// `sabre-serve` binary's `--preload` uses at boot. Same semantics as
    /// `POST /devices`: validates connectivity and warms the cache.
    ///
    /// # Errors
    ///
    /// A human-readable reason (invalid id, disconnected graph, a new id
    /// past [`MAX_DEVICES`]).
    pub fn register_device(&self, id: &str, graph: &CouplingGraph) -> Result<(), String> {
        if id.is_empty() || id.contains('/') || id.len() > 128 {
            return Err("device id must be non-empty, without `/`, ≤128 chars".into());
        }
        self.service.devices.admits(id)?;
        self.service
            .cache
            .router(graph, self.service.config.default_config)
            .map_err(|e| e.to_string())?;
        let device = RegisteredDevice {
            graph: Arc::new(graph.clone()),
            noise: None,
        };
        self.service.devices.insert(id.to_string(), device)?;
        Ok(())
    }

    fn stop(&mut self, abort: bool) {
        self.service.draining.store(true, Ordering::Release);
        self.service.waker.wake();
        if abort {
            for job in self.service.queue.close_now() {
                let response = unavailable(&self.service, "service is shutting down");
                self.service
                    .complete(job.token, response, Vec::new(), None, Vec::new());
            }
        } else {
            self.service.queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // With a frozen pool (workers == 0) a graceful close drains
        // nothing; fail whatever is left so no client hangs.
        for job in self.service.queue.close_now() {
            let response = unavailable(&self.service, "service is shutting down");
            self.service
                .complete(job.token, response, Vec::new(), None, Vec::new());
        }
        // Every job is now resolved; the reactor exits once the last
        // response is flushed (or the drain deadline reaps stragglers).
        self.service.waker.wake();
        if let Some(reactor) = self.reactor_thread.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// Starts a server for `config` and returns its handle. The listener, the
/// reactor, the worker pool, and the device cache live until shutdown.
///
/// # Errors
///
/// [`ServeError::Config`] for invalid knobs, [`ServeError::Io`] when the
/// address cannot be bound.
pub fn start(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    config.validate().map_err(ServeError::Config)?;
    let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
    listener.set_nonblocking(true).map_err(ServeError::Io)?;
    let addr = listener.local_addr().map_err(ServeError::Io)?;
    let (waker, waker_rx) = reactor::waker_pair().map_err(ServeError::Io)?;
    let service = Arc::new(RoutingService::new(config, waker));

    let workers = (0..service.config.workers)
        .map(|i| {
            let service = Arc::clone(&service);
            thread::Builder::new()
                .name(format!("sabre-serve-worker-{i}"))
                .spawn(move || worker_loop(&service))
                .expect("spawning a worker thread")
        })
        .collect();
    let reactor_thread = {
        let service = Arc::clone(&service);
        thread::Builder::new()
            .name("sabre-serve-reactor".into())
            .spawn(move || reactor::run(service, listener, waker_rx))
            .expect("spawning the reactor thread")
    };

    Ok(ServerHandle {
        addr,
        service,
        reactor_thread: Some(reactor_thread),
        workers,
    })
}

/// What dispatch decided about a request.
pub(crate) enum Outcome {
    /// Answer now (inline endpoints, errors, rejections).
    Respond(Response),
    /// A job was queued; the response arrives as a completion for the
    /// connection's token.
    Queued,
}

/// Reactor-side context for admission decisions.
pub(crate) struct AdmitCtx<'a> {
    /// The client's address, keying the per-client rate limiter.
    pub(crate) peer: IpAddr,
    /// The connection-table token a queued job must answer.
    pub(crate) token: u64,
    /// The reactor-owned token-bucket table.
    pub(crate) limiter: &'a mut RateLimiter,
    /// The request's trace id, copied onto queued jobs.
    pub(crate) trace_id: &'a str,
    /// The request trace's phase log; dispatch appends the phases it
    /// times (`parse`, `plan_cache`, `rebind`, `admission`).
    pub(crate) phases: &'a mut Vec<(&'static str, u64)>,
    /// The request trace's device stamp; the inline plan-cache hit path
    /// fills it (worker jobs report theirs via [`Completion`]).
    pub(crate) device: &'a mut Option<String>,
    /// The request trace's quality annotations (same split as `device`).
    pub(crate) annotations: &'a mut Vec<(&'static str, u64)>,
}

/// Routes one parsed request. Cheap endpoints (health, metrics,
/// registration, listings) are answered inline on the reactor thread;
/// routing work is priced, admission-checked, and queued for the worker
/// pool.
pub(crate) fn dispatch(
    service: &RoutingService,
    request: &Request,
    ctx: &mut AdmitCtx<'_>,
) -> Outcome {
    let segments = request.path_segments();
    let m = &service.metrics;
    let response = match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            m.add(Counter::RequestsHealthz, 1);
            healthz(service)
        }
        ("GET", ["metrics"]) => {
            m.add(Counter::RequestsMetrics, 1);
            Response::text(
                200,
                m.render(
                    service.gauges(),
                    service.cache.stats(),
                    service.cache.plans().stats(),
                ),
            )
        }
        ("GET", ["debug", "traces"]) => debug_traces(service, request),
        ("GET", ["debug", "quality"]) => Response::json(200, &service.metrics.quality.to_json()),
        ("GET", ["devices"]) => list_devices(service),
        ("POST", ["devices"]) => {
            m.add(Counter::RequestsDevices, 1);
            register_device(service, request)
        }
        ("POST", ["devices", id, "noise"]) => {
            m.add(Counter::RequestsNoise, 1);
            refresh_noise(service, id, request)
        }
        ("GET", ["fleets"]) => list_fleets(service),
        ("POST", ["fleets"]) => {
            m.add(Counter::RequestsFleets, 1);
            register_fleet(service, request)
        }
        ("POST", ["route"]) => {
            m.add(Counter::RequestsRoute, 1);
            return admit_job(service, request, ctx, parse_route_request);
        }
        ("POST", ["route_sharded"]) => {
            m.add(Counter::RequestsSharded, 1);
            return admit_job(service, request, ctx, parse_sharded_request);
        }
        ("POST", ["transpile_batch"]) => {
            m.add(Counter::RequestsBatch, 1);
            return admit_job(service, request, ctx, parse_batch_request);
        }
        (
            _,
            ["healthz" | "metrics" | "route" | "route_sharded" | "transpile_batch" | "devices"
            | "fleets"],
        )
        | (_, ["devices", _, "noise"])
        | (_, ["debug", "traces" | "quality"]) => {
            Response::error(405, "method not allowed on this path")
        }
        _ => Response::error(404, "no such endpoint"),
    };
    Outcome::Respond(response)
}

/// `GET /debug/traces`: the retained request traces, newest first. Each
/// entry is the trace's JSONL form (trace_id, method, target, status,
/// timestamps, and the per-phase nanosecond breakdown). An optional
/// `?limit=N` (N ≥ 1) returns only the N newest traces; the `count`
/// field still reports the full ring occupancy.
fn debug_traces(service: &RoutingService, request: &Request) -> Response {
    let limit = match request.query_param("limit") {
        None => usize::MAX,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Response::error(
                    400,
                    "\"limit\" must be a positive integer number of traces",
                )
            }
        },
    };
    let traces: JsonValue = service
        .traces
        .snapshot()
        .iter()
        .take(limit)
        .map(|trace| JsonValue::parse(&trace.to_json_line()).expect("trace lines are valid JSON"))
        .collect();
    Response::json(
        200,
        &JsonValue::object([
            ("capacity", service.traces.capacity().into()),
            ("count", service.traces.len().into()),
            ("traces", traces),
        ]),
    )
}

fn healthz(service: &RoutingService) -> Response {
    let draining = service.draining.load(Ordering::Relaxed);
    Response::json(
        200,
        &JsonValue::object([
            ("status", if draining { "draining" } else { "ok" }.into()),
            ("queue_depth", service.queue.len().into()),
            ("queue_capacity", service.queue.capacity().into()),
            ("workers", service.config.workers.into()),
            ("devices", service.devices.read().len().into()),
            ("fleets", service.fleets.read().len().into()),
        ]),
    )
}

/// Which distance engine the auto policy selects for `graph` —
/// `"dense"` (all-pairs matrices) or `"sparse"` (on-demand row engine).
/// Purely a function of device size; mirrored in registration responses
/// so clients can see the memory mode a device landed on.
fn distance_engine_name(graph: &CouplingGraph) -> &'static str {
    if DistanceBackend::Auto.prefers_sparse(graph.num_qubits()) {
        "sparse"
    } else {
        "dense"
    }
}

fn list_devices(service: &RoutingService) -> Response {
    let devices = service.devices.read();
    let mut entries: Vec<(&String, &RegisteredDevice)> = devices.iter().collect();
    entries.sort_by_key(|(id, _)| id.as_str());
    Response::json(
        200,
        &JsonValue::object([(
            "devices",
            entries
                .into_iter()
                .map(|(id, device)| {
                    JsonValue::object([
                        ("id", id.as_str().into()),
                        ("num_qubits", device.graph.num_qubits().into()),
                        ("num_edges", device.graph.num_edges().into()),
                        ("noise_aware", device.noise.is_some().into()),
                        ("distance", distance_engine_name(&device.graph).into()),
                    ])
                })
                .collect(),
        )]),
    )
}

fn register_device(service: &RoutingService, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let (id, graph) = match api::parse_device_registration(&body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(e.status, &e.message),
    };
    if let Err(message) = service.devices.admits(&id) {
        return Response::error(409, &message);
    }
    // Warm the cache now: this both validates the graph (connectivity) and
    // moves the distance preprocessing out of the first request's latency
    // (dense all-pairs below the size threshold, sparse engine above it).
    if let Err(e) = service.cache.router(&graph, service.config.default_config) {
        return Response::error(400, &format!("device rejected: {e}"));
    }
    let entry = RegisteredDevice {
        graph: Arc::new(graph),
        noise: None,
    };
    let body = JsonValue::object([
        ("id", id.as_str().into()),
        ("num_qubits", entry.graph.num_qubits().into()),
        ("num_edges", entry.graph.num_edges().into()),
        ("distance", distance_engine_name(&entry.graph).into()),
    ]);
    match service.devices.insert(id, entry) {
        Ok(replaced) => Response::json(if replaced { 200 } else { 201 }, &body),
        Err(message) => Response::error(409, &message),
    }
}

fn refresh_noise(service: &RoutingService, id: &str, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let (graph, _) = match service.device(id) {
        Ok(device) => device,
        Err(e) => return Response::error(e.status, &e.message),
    };
    if body.get("clear").and_then(JsonValue::as_bool) == Some(true) {
        if let Some(device) = service.devices.write().get_mut(id) {
            device.noise = None;
        }
        return Response::json(
            200,
            &JsonValue::object([("id", id.into()), ("cleared", true.into())]),
        );
    }
    let noise = match api::parse_noise_spec(&body, &graph) {
        Ok(noise) => noise,
        Err(e) => return Response::error(e.status, &e.message),
    };
    // Recompute the weighted matrix once, now — every subsequent request
    // acquires it warm. This is the live-calibration path: no restart.
    if let Err(e) = service.cache.refresh_noise(&graph, &noise) {
        return Response::error(400, &format!("calibration rejected: {e}"));
    }
    let fingerprint = noise.fingerprint();
    if let Some(device) = service.devices.write().get_mut(id) {
        // The noise was validated against the graph snapshot read above;
        // if a concurrent re-registration swapped the device's graph in
        // between, attaching it would pair a noise model with a graph it
        // wasn't built for (routing would later panic on a missing edge).
        if !Arc::ptr_eq(&device.graph, &graph) {
            return Response::error(
                409,
                "device was re-registered during the refresh; resubmit the calibration",
            );
        }
        device.noise = Some(noise);
    }
    Response::json(
        200,
        &JsonValue::object([("id", id.into()), ("noise_fingerprint", fingerprint.into())]),
    )
}

/// `POST /fleets`: names an ordered list of registered devices so
/// `/route_sharded` requests can reference the group by one id. Device
/// graphs are resolved at request time, so a later re-registration or
/// calibration refresh is picked up automatically.
fn register_fleet(service: &RoutingService, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let (id, device_ids) = match api::parse_fleet_registration(&body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(e.status, &e.message),
    };
    // Every named device must exist now — a typo should fail loudly at
    // registration, not at the first routing request.
    for device in &device_ids {
        if let Err(e) = service.device(device) {
            return Response::error(e.status, &e.message);
        }
    }
    let body = JsonValue::object([
        ("id", id.as_str().into()),
        (
            "devices",
            device_ids
                .iter()
                .map(|d| JsonValue::from(d.as_str()))
                .collect(),
        ),
    ]);
    match service.fleets.insert(id, device_ids) {
        Ok(replaced) => Response::json(if replaced { 200 } else { 201 }, &body),
        Err(message) => Response::error(409, &message),
    }
}

fn list_fleets(service: &RoutingService) -> Response {
    let fleets = service.fleets.read();
    let mut entries: Vec<(&String, &Vec<String>)> = fleets.iter().collect();
    entries.sort_by_key(|(id, _)| id.as_str());
    Response::json(
        200,
        &JsonValue::object([(
            "fleets",
            entries
                .into_iter()
                .map(|(id, devices)| {
                    JsonValue::object([
                        ("id", id.as_str().into()),
                        (
                            "devices",
                            devices
                                .iter()
                                .map(|d| JsonValue::from(d.as_str()))
                                .collect(),
                        ),
                    ])
                })
                .collect(),
        )]),
    )
}

/// Resolves a `/route_sharded` body: the member devices (either a
/// registered `"fleet"` id or an inline `"devices"` list), the circuit,
/// and the shard configuration.
fn parse_sharded_request(service: &RoutingService, body: &JsonValue) -> Result<JobKind, ApiError> {
    api::as_object(body)?;
    let device_ids: Vec<String> = match (body.get("fleet"), body.get("devices")) {
        (Some(_), Some(_)) => {
            return Err(ApiError::bad_request(
                "give either \"fleet\" or \"devices\", not both",
            ));
        }
        (Some(fleet), None) => {
            let id = fleet
                .as_str()
                .ok_or_else(|| ApiError::bad_request("\"fleet\" must name a registered fleet"))?;
            service.fleets.read().get(id).cloned().ok_or_else(|| {
                ApiError::not_found(format!("unknown fleet `{id}` (register via POST /fleets)"))
            })?
        }
        (None, Some(devices)) => api::parse_device_id_list(devices)?,
        (None, None) => {
            return Err(ApiError::bad_request(
                "missing \"fleet\" (registered fleet id) or \"devices\" (device id list)",
            ));
        }
    };
    let ignore_noise = body.get("ignore_noise").and_then(JsonValue::as_bool) == Some(true);
    let members = device_ids
        .into_iter()
        .map(|id| {
            let (graph, noise) = service.device(&id)?;
            Ok((id, graph, if ignore_noise { None } else { noise }))
        })
        .collect::<Result<Vec<_>, ApiError>>()?;
    let circuit = api::parse_circuit(
        body.get("circuit")
            .ok_or_else(|| ApiError::bad_request("missing \"circuit\""))?,
    )?;
    let config = api::apply_shard_overrides(body, service.config.default_config)?;
    let include_physical = body
        .get("include_physical")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    Ok(JobKind::Sharded {
        members,
        circuit,
        config,
        include_physical,
    })
}

fn parse_route_request(service: &RoutingService, body: &JsonValue) -> Result<JobKind, ApiError> {
    api::as_object(body)?;
    let device_id = body
        .get("device")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApiError::bad_request("\"device\" must name a registered device"))?;
    let (graph, mut noise) = service.device(device_id)?;
    let circuit = api::parse_circuit(
        body.get("circuit")
            .ok_or_else(|| ApiError::bad_request("missing \"circuit\""))?,
    )?;
    let config = api::apply_config_overrides(body.get("config"), service.config.default_config)?;
    if body.get("ignore_noise").and_then(JsonValue::as_bool) == Some(true) {
        noise = None;
    }
    let include_physical = body
        .get("include_physical")
        .and_then(JsonValue::as_bool)
        .unwrap_or(true);
    Ok(JobKind::Route {
        device_id: device_id.to_string(),
        graph,
        noise,
        circuit,
        config,
        include_physical,
    })
}

fn parse_batch_request(service: &RoutingService, body: &JsonValue) -> Result<JobKind, ApiError> {
    api::as_object(body)?;
    let device_id = body
        .get("device")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApiError::bad_request("\"device\" must name a registered device"))?;
    let (graph, mut noise) = service.device(device_id)?;
    let specs = body
        .get("circuits")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad_request("\"circuits\" must be an array"))?;
    if specs.is_empty() {
        return Err(ApiError::bad_request("\"circuits\" must not be empty"));
    }
    let circuits = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            api::parse_circuit(spec)
                .map_err(|e| ApiError::bad_request(format!("circuit {i}: {}", e.message)))
        })
        .collect::<Result<Vec<Circuit>, ApiError>>()?;
    let config = api::apply_config_overrides(body.get("config"), service.config.default_config)?;
    if body.get("ignore_noise").and_then(JsonValue::as_bool) == Some(true) {
        noise = None;
    }
    let options = TranspileOptions {
        config,
        noise,
        direction: None,
        skip_optimizer: body
            .get("skip_optimizer")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
    };
    let include_physical = body
        .get("include_physical")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    Ok(JobKind::Batch {
        device_id: device_id.to_string(),
        graph,
        circuits,
        options,
        include_physical,
    })
}

/// The shared front door for the three job endpoints: rate limit first
/// (cheapest check, before any JSON work), then parse, then priced
/// admission.
fn admit_job(
    service: &RoutingService,
    request: &Request,
    ctx: &mut AdmitCtx<'_>,
    parse: impl FnOnce(&RoutingService, &JsonValue) -> Result<JobKind, ApiError>,
) -> Outcome {
    if ctx.limiter.enabled() && !ctx.limiter.allow(ctx.peer, Instant::now()) {
        service.metrics.add(Counter::ShedRateLimited, 1);
        return Outcome::Respond(api::too_many_requests(
            "rate limit exceeded for this client",
            0,
            u64::from(service.config.retry_after_secs),
        ));
    }
    let parse_span = Span::now();
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return Outcome::Respond(response),
    };
    let mut kind = match parse(service, &body) {
        Ok(kind) => kind,
        Err(e) => return Outcome::Respond(Response::error(e.status, &e.message)),
    };
    ctx.phases.push(("parse", parse_span.elapsed_ns()));
    // The `?profile=true` query flag switches on the hot-loop profiler
    // for this request, equivalent to `"config": {"profile": true}`.
    if let JobKind::Route { config, .. } = &mut kind {
        if request.query_flag("profile") {
            config.profile = true;
        }
    }
    // Routed-plan fast path, checked *before* admission pricing: a
    // `/route` whose structure is already cached needs no search steps,
    // so queueing it behind priced work (or shedding it against the SLO)
    // would be pure waste. Re-binding is microseconds of parameter
    // stamping — cheap enough to answer inline on the reactor thread.
    // Profiled requests bypass the cache: a rebind runs zero search, so
    // it has no hot-loop profile to report — they must reach a worker.
    if let JobKind::Route {
        device_id,
        graph,
        noise,
        circuit,
        config,
        include_physical,
    } = &kind
    {
        if !config.profile {
            let lookup_span = Span::now();
            let cached =
                service
                    .cache
                    .plans()
                    .lookup_with_quality(circuit, graph, noise.as_ref(), config);
            let lookup_ns = lookup_span.elapsed_ns();
            if let Some((result, quality)) = cached {
                let m = &service.metrics;
                let rebind_ns = result.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
                m.observe(Hist::RebindNs, rebind_ns);
                m.add(Counter::PlanCacheInlineHits, 1);
                m.add(Counter::CircuitsRouted, 1);
                // The quality rides the cached plan (computed once at the
                // original miss) — zero recompute on this inline path.
                m.observe_quality(device_id, &quality);
                *ctx.device = Some(device_id.clone());
                ctx.annotations.push(("swaps", quality.num_swaps as u64));
                ctx.annotations
                    .push(("depth_overhead", quality.depth_overhead as u64));
                // The rebind ran *inside* the lookup (`result.elapsed`
                // timed it); report the two as disjoint slices instead of
                // counting the rebind twice.
                ctx.phases
                    .push(("plan_cache", lookup_ns.saturating_sub(rebind_ns)));
                ctx.phases.push(("rebind", rebind_ns));
                // Deliberately not record_routing(): a rebind runs zero
                // search steps, and folding its wall time into the
                // ns-per-step price would corrupt the admission model.
                let serialize_span = Span::now();
                let response = route_response(
                    device_id,
                    noise.is_some(),
                    config.seed,
                    "hit",
                    &result,
                    &quality,
                    *include_physical,
                );
                ctx.phases.push(("serialize", serialize_span.elapsed_ns()));
                return Outcome::Respond(response);
            }
            ctx.phases.push(("plan_cache", lookup_ns));
        }
    }
    admit(service, kind, ctx)
}

/// The `POST /route` success body, shared by the inline plan-cache hit
/// path (reactor thread) and the full-route worker path so the two are
/// structurally identical apart from the `plan_cache` tag.
fn route_response(
    device_id: &str,
    noise_aware: bool,
    seed: u64,
    plan_cache: &str,
    result: &SabreResult,
    quality: &PlanQuality,
    include_physical: bool,
) -> Response {
    let mut fields = vec![
        ("device", JsonValue::from(device_id)),
        ("noise_aware", noise_aware.into()),
        ("seed", seed.into()),
        ("plan_cache", plan_cache.into()),
        ("quality", quality.to_json()),
        ("result", result.to_json()),
    ];
    if include_physical {
        fields.push((
            "physical_qasm",
            sabre_qasm::to_qasm(&result.best.physical).into(),
        ));
    }
    Response::json(200, &JsonValue::object(fields))
}

/// Predicted-cost admission: price the backlog at the live per-step
/// pace; answer `429 + projected wait` when the model says the job would
/// blow the SLO, `503 + Retry-After` when the queue is full, and queue
/// the weighted job otherwise.
fn admit(service: &RoutingService, kind: JobKind, ctx: &mut AdmitCtx<'_>) -> Outcome {
    let admission_span = Span::now();
    let cost = job_cost(&kind);
    let wait_ms = service.modeled_drain_ns() / 1_000_000;
    // Observed for every priced request, accepted or not, so the
    // histogram shows the wait distribution clients actually see.
    service.metrics.observe(Hist::PredictedWaitMs, wait_ms);
    let slo_ms = service.config.admission_slo_ms;
    if slo_ms > 0 && wait_ms > slo_ms {
        service.metrics.add(Counter::ShedPredictedSlo, 1);
        ctx.phases.push(("admission", admission_span.elapsed_ns()));
        return Outcome::Respond(api::too_many_requests(
            &format!("predicted queue wait {wait_ms}ms exceeds the admission SLO ({slo_ms}ms)"),
            wait_ms,
            u64::from(service.config.retry_after_secs),
        ));
    }
    // The admission span closes *before* the queue push: the instant the
    // job lands, a worker may wake and run it, and if the scheduler
    // switches to that worker before this thread reads the clock, the
    // admission phase would absorb the whole route — breaking the
    // phases-are-disjoint-slices contract the trace ring guarantees.
    // `admitted` is stamped after the span closes for the same reason:
    // `queue_wait` starts exactly where `admission` ends.
    ctx.phases.push(("admission", admission_span.elapsed_ns()));
    let job = Job {
        kind,
        token: ctx.token,
        trace_id: ctx.trace_id.to_string(),
        admitted: Instant::now(),
    };
    match service.queue.try_push_weighted(job, cost) {
        Ok(_depth) => {
            service.metrics.add(Counter::JobsAdmitted, 1);
            Outcome::Queued
        }
        Err(PushError::Full(_)) => {
            service.metrics.add(Counter::QueueRejections, 1);
            Outcome::Respond(unavailable(service, "routing queue is full"))
        }
        Err(PushError::Closed(_)) => {
            Outcome::Respond(unavailable(service, "service is shutting down"))
        }
    }
}

/// A job's price in estimated search steps — the unit the admission
/// model and the live `avg_ns_per_step` throughput share.
fn job_cost(kind: &JobKind) -> u64 {
    match kind {
        JobKind::Route {
            circuit, config, ..
        } => admission::estimate_steps(
            circuit.num_two_qubit_gates(),
            config.num_restarts,
            config.num_traversals,
        ),
        JobKind::Batch {
            circuits, options, ..
        } => circuits.iter().fold(0u64, |total, circuit| {
            total.saturating_add(admission::estimate_steps(
                circuit.num_two_qubit_gates(),
                options.config.num_restarts,
                options.config.num_traversals,
            ))
        }),
        JobKind::Sharded {
            circuit, config, ..
        } => admission::estimate_steps(
            circuit.num_two_qubit_gates(),
            config.sabre.num_restarts,
            config.sabre.num_traversals,
        ),
    }
}

/// The standard `503`: JSON error body plus `Retry-After` computed from
/// the live drain model (config value as the floor), so a rejected
/// client is told when capacity is actually expected.
pub(crate) fn unavailable(service: &RoutingService, message: &str) -> Response {
    let secs = u64::from(service.config.retry_after_secs)
        .max(service.modeled_drain_ns().div_ceil(1_000_000_000));
    Response::error(503, message).with_header("Retry-After", secs.to_string())
}

fn worker_loop(service: &Arc<RoutingService>) {
    while let Some((job, cost)) = service.queue.pop_weighted() {
        let queue_wait_ns = job.admitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        service.metrics.add(Counter::QueueWaitNs, queue_wait_ns);
        // The popped job's steps move from the queued half of the
        // backlog to the in-flight half until it finishes.
        service.inflight_cost.fetch_add(cost, Ordering::Relaxed);
        let mut phases: Vec<(&'static str, u64)> = vec![("queue_wait", queue_wait_ns)];
        let mut device: Option<String> = None;
        let mut annotations: Vec<(&'static str, u64)> = Vec::new();
        let response = catch_unwind(AssertUnwindSafe(|| {
            execute(
                service,
                &job.kind,
                &mut phases,
                &mut device,
                &mut annotations,
            )
        }))
        .unwrap_or_else(|_| {
            Response::error(
                500,
                &format!(
                    "internal error executing the job (request {})",
                    job.trace_id
                ),
            )
        });
        service.inflight_cost.fetch_sub(cost, Ordering::Relaxed);
        let finished = if response.status() < 400 {
            Counter::JobsCompleted
        } else {
            Counter::JobsFailed
        };
        service.metrics.add(finished, 1);
        service.complete(job.token, response, phases, device, annotations);
    }
}

fn execute(
    service: &RoutingService,
    kind: &JobKind,
    phases: &mut Vec<(&'static str, u64)>,
    device: &mut Option<String>,
    annotations: &mut Vec<(&'static str, u64)>,
) -> Response {
    match kind {
        JobKind::Route {
            device_id,
            graph,
            noise,
            circuit,
            config,
            include_physical,
        } => {
            let route_span = Span::now();
            let router = match noise {
                Some(noise) => service.cache.router_with_noise(graph, *config, noise),
                None => service.cache.router(graph, *config),
            };
            let router = match router {
                Ok(router) => router,
                Err(e) => return Response::error(422, &format!("routing failed: {e}")),
            };
            let result = match router.route(circuit) {
                Ok(result) => result,
                Err(e) => return Response::error(422, &format!("routing failed: {e}")),
            };
            phases.push(("route", route_span.elapsed_ns()));
            // Cache the routed plan so the next submission of this
            // structure (any parameters) re-binds inline at dispatch.
            service
                .cache
                .plans()
                .insert(circuit, graph, noise.as_ref(), config, &result);
            service.metrics.record_routing(
                result.elapsed.as_nanos(),
                result.total_search_steps(),
                result.ns_per_step(),
            );
            service.metrics.add(Counter::CircuitsRouted, 1);
            // Profiled routes feed the per-phase histogram family.
            if let Some(profile) = &result.profile {
                let m = &service.metrics;
                m.observe(Hist::PhaseFront, profile.front_ns);
                m.observe(Hist::PhaseExtendedSet, profile.extended_set_ns);
                m.observe(Hist::PhaseScoring, profile.scoring_ns);
            }
            // Quality runs post-route, off the hot loop: one decomposed-
            // depth pass plus a log-fidelity sum over the output gates.
            let quality = PlanQuality::of_result(circuit, &result, noise.as_ref());
            service.metrics.observe_quality(device_id, &quality);
            *device = Some(device_id.clone());
            annotations.push(("swaps", quality.num_swaps as u64));
            annotations.push(("depth_overhead", quality.depth_overhead as u64));
            let serialize_span = Span::now();
            let response = route_response(
                device_id,
                noise.is_some(),
                config.seed,
                "miss",
                &result,
                &quality,
                *include_physical,
            );
            phases.push(("serialize", serialize_span.elapsed_ns()));
            response
        }
        JobKind::Sharded {
            members,
            circuit,
            config,
            include_physical,
        } => {
            let mut fleet = Fleet::new();
            let noise_aware = members.iter().any(|(_, _, noise)| noise.is_some());
            for (id, graph, noise) in members {
                let registered = match noise {
                    Some(noise) => fleet.register_with_noise(id, graph.clone(), noise.clone()),
                    None => fleet.register(id, graph.clone()),
                };
                if let Err(e) = registered {
                    return Response::error(422, &format!("sharded routing failed: {e}"));
                }
            }
            let plan = match route_sharded(circuit, &fleet, config, &service.cache) {
                Ok(plan) => plan,
                Err(e) => return Response::error(422, &format!("sharded routing failed: {e}")),
            };
            // The verifier is O(gates): run it on every response so a
            // served plan is never an unproven plan.
            if let Err(e) = plan.verify(circuit, &fleet) {
                return Response::error(500, &format!("plan failed verification: {e}"));
            }
            for shard in &plan.shards {
                service.metrics.record_routing(
                    shard.result.elapsed.as_nanos(),
                    shard.result.total_search_steps(),
                    shard.result.ns_per_step(),
                );
            }
            service.metrics.add(Counter::CircuitsRouted, 1);
            // Each shard scores against its own member's noise model and
            // lands on the scoreboard under that member's id.
            let quality = plan.quality(circuit, &fleet);
            for shard in &quality.shards {
                service
                    .metrics
                    .observe_quality(&shard.member, &shard.quality);
            }
            annotations.push(("swaps", quality.total_swaps as u64));
            annotations.push(("cut_gates", quality.cut_gates as u64));
            let mut fields = vec![
                (
                    "fleet",
                    fleet
                        .members()
                        .iter()
                        .map(|m| JsonValue::from(m.id()))
                        .collect(),
                ),
                ("noise_aware", noise_aware.into()),
                ("seed", config.sabre.seed.into()),
                ("verified", true.into()),
                ("quality", quality.to_json()),
                ("plan", plan.to_json()),
            ];
            if *include_physical {
                fields.push((
                    "shards_physical_qasm",
                    plan.shards
                        .iter()
                        .map(|shard| {
                            JsonValue::from(sabre_qasm::to_qasm(&shard.result.best.physical))
                        })
                        .collect(),
                ));
            }
            Response::json(200, &JsonValue::object(fields))
        }
        JobKind::Batch {
            device_id,
            graph,
            circuits,
            options,
            include_physical,
        } => {
            let outcomes = transpile_batch_cached(circuits, graph, options, &service.cache);
            let succeeded = outcomes.iter().filter(|o| o.is_transpiled()).count();
            service
                .metrics
                .add(Counter::CircuitsRouted, succeeded as u64);
            *device = Some(device_id.clone());
            let mut total_swaps = 0u64;
            let slots: JsonValue = circuits
                .iter()
                .zip(outcomes.iter())
                .map(|(input, outcome)| match outcome.as_result() {
                    Ok(output) => {
                        // Per-slot quality: each circuit of the batch is
                        // scored and observed individually.
                        let quality =
                            PlanQuality::of_transpiled(input, output, options.noise.as_ref());
                        service.metrics.observe_quality(device_id, &quality);
                        total_swaps += quality.num_swaps as u64;
                        let mut fields =
                            vec![("ok", output.to_json()), ("quality", quality.to_json())];
                        if *include_physical {
                            fields.push((
                                "physical_qasm",
                                sabre_qasm::to_qasm(&output.circuit).into(),
                            ));
                        }
                        JsonValue::object(fields)
                    }
                    Err(error) => JsonValue::object([("error", error.to_string().into())]),
                })
                .collect();
            annotations.push(("swaps", total_swaps));
            // Partial success is a 200: the response reports per-slot
            // outcomes, which is the point of `BatchOutcome`.
            Response::json(
                200,
                &JsonValue::object([
                    ("device", device_id.as_str().into()),
                    ("noise_aware", options.noise.is_some().into()),
                    ("succeeded", succeeded.into()),
                    ("failed", (outcomes.len() - succeeded).into()),
                    ("outcomes", slots),
                ]),
            )
        }
    }
}

fn parse_body(request: &Request) -> Result<JsonValue, Response> {
    let text = match request.body_str() {
        Ok(text) => text,
        Err(e) => return Err(e.response().expect("BadRequest has a response")),
    };
    if text.trim().is_empty() {
        return Err(Response::error(400, "missing JSON request body"));
    }
    JsonValue::parse(text).map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
}
