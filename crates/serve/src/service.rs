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
//!                        completions (token, Response, TraceNotes),
//!                        written when the client's socket is ready
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
//! cache, and `POST /route_sharded` the sharded-plan cache: a structure
//! that was routed and proven before (same device or fleet, noise,
//! objective) is answered inline on the reactor thread by re-binding the
//! cached plan's parameters — zero search steps, no queue traversal.
//!
//! Worker threads do the expensive work against a process-wide
//! [`DeviceCache`], so every request shares the same preprocessed
//! matrices and embedding verdicts, and a `POST /devices/{id}/noise`
//! refresh recomputes only the noise-weighted matrix — subsequent
//! requests route with the new calibration without a restart. Workers
//! never touch sockets: a finished job is pushed as a [`Completion`] (the
//! connection token, the response, and the job's [`TraceNotes`]) and the
//! reactor is woken to deliver it.
//!
//! # One record, one error path
//!
//! A request's trace notes (phases, device, quality annotations) are one
//! [`TraceNotes`]: dispatch writes the reactor's copy through
//! [`AdmitCtx`], a worker fills its own, and the reactor folds that in
//! with one [`TraceNotes::merge`]. Handlers return `Result<_, ApiError>`;
//! [`ApiError::response`] is the one conversion to a response. Both ways
//! to register a device go through [`RoutingService::register_device`].

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use sabre::{
    transpile_batch_cached, DeviceCache, PlanQuality, RouteError, SabreConfig, SabreResult,
    TranspileOptions,
};
use sabre_circuit::Circuit;
use sabre_json::JsonValue;
use sabre_shard::{
    route_sharded, Fleet, MemberKey, ShardConfig, ShardError, ShardedPlan, ShardedPlanCache,
    ShardedQuality,
};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{CouplingGraph, DistanceBackend, DEVICE_CACHE_CAPACITY};
use sabre_trace::{SlowLog, Span, TraceNotes, TraceRing};

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

/// A finished job: the response plus the worker's trace notes (phases
/// `queue_wait`, `route`, `serialize`; device; quality annotations), which
/// the reactor merges into the request's trace before finalizing it.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Response,
    pub(crate) notes: TraceNotes,
}

/// A `POST /route` request, resolved against the registry.
struct RouteJob {
    device_id: String,
    graph: Arc<CouplingGraph>,
    noise: Option<NoiseModel>,
    circuit: Circuit,
    config: SabreConfig,
    include_physical: bool,
}

/// A `POST /route_sharded` request, resolved against the registry.
struct ShardedJob {
    /// `(device id, graph, noise)` snapshots, in fleet order.
    members: Vec<(String, Arc<CouplingGraph>, Option<NoiseModel>)>,
    circuit: Circuit,
    config: ShardConfig,
    include_physical: bool,
}

impl ShardedJob {
    /// The members as the sharded-plan cache keys them.
    fn keys(&self) -> Vec<MemberKey<'_>> {
        self.members
            .iter()
            .map(|(id, graph, noise)| MemberKey {
                id,
                graph,
                noise: noise.as_ref(),
            })
            .collect()
    }
}

enum JobKind {
    Route(RouteJob),
    Batch {
        device_id: String,
        graph: Arc<CouplingGraph>,
        circuits: Vec<Circuit>,
        options: TranspileOptions,
        include_physical: bool,
    },
    Sharded(ShardedJob),
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
/// they never evict. A new id past `cap` is refused (`409`) with a message
/// naming the cap, while re-registering an existing id replaces it.
///
/// Every critical section is a lookup, a clone out, a whole-value insert
/// or a field assignment, so a panic under the lock cannot leave an entry
/// half-written; a poisoned lock is taken as it is, and one panic cannot
/// fail every later request that names a device or fleet.
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
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, T>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refuses a new `id` once the registry is full: checked before any
    /// costly validation, and again under the write lock on insert.
    fn admits(&self, id: &str) -> Result<(), ApiError> {
        self.check(&self.read(), id)
    }

    fn check(&self, map: &HashMap<String, T>, id: &str) -> Result<(), ApiError> {
        if map.len() >= self.cap && !map.contains_key(id) {
            return Err(ApiError::new(
                409,
                format!(
                    "{} registry is full ({} ids); re-register an existing id to replace it",
                    self.kind, self.cap
                ),
            ));
        }
        Ok(())
    }

    /// Every entry rendered by `entry`, sorted by id.
    fn list(&self, entry: impl Fn(&str, &T) -> JsonValue) -> JsonValue {
        let map = self.read();
        let mut entries: Vec<(&String, &T)> = map.iter().collect();
        entries.sort_by_key(|(id, _)| id.as_str());
        entries
            .into_iter()
            .map(|(id, value)| entry(id, value))
            .collect()
    }

    /// Inserts `value` under `id`; reports whether an existing id was
    /// replaced.
    fn insert(&self, id: String, value: T) -> Result<bool, ApiError> {
        let mut map = self.write();
        self.check(&map, &id)?;
        Ok(map.insert(id, value).is_some())
    }
}

/// Shared state of one server instance.
pub(crate) struct RoutingService {
    pub(crate) config: ServeConfig,
    cache: DeviceCache,
    /// Proven `/route_sharded` plans, keyed by structure, fleet and
    /// objective; `/route`'s plans live in `cache.plans()`.
    sharded_plans: ShardedPlanCache,
    devices: Registry<RegisteredDevice>,
    /// Named fleets: ordered device-id lists for `POST /route_sharded`.
    fleets: Registry<Vec<String>>,
    queue: BoundedQueue<Job>,
    pub(crate) metrics: Metrics,
    /// Completed request traces served by `GET /debug/traces`.
    pub(crate) traces: TraceRing,
    /// Slow-request logger (stderr, text or JSONL).
    pub(crate) slow_log: SlowLog,
    /// Finished jobs awaiting delivery by the reactor; see
    /// [`RoutingService::completions`].
    completions: Mutex<Vec<Completion>>,
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
        let sharded_plans = ShardedPlanCache::with_capacity(config.plan_cache_capacity);
        let traces = TraceRing::new(config.trace_capacity);
        let slow_log = SlowLog::new(config.log_format, config.slow_request_ms);
        RoutingService {
            config,
            cache,
            sharded_plans,
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

    /// Registers `graph` under `id`: the one path behind `POST /devices`
    /// and [`ServerHandle::register_device`]. Checks the id rule, then the
    /// registry cap (before any costly work), then warms the cache, which
    /// both validates the graph (connectivity) and moves the distance
    /// preprocessing out of the first request's latency (dense all-pairs
    /// below the size threshold, sparse engine above it). Reports whether
    /// an existing id was replaced.
    fn register_device(&self, id: &str, graph: CouplingGraph) -> Result<bool, ApiError> {
        api::check_registry_id(id)?;
        self.devices.admits(id)?;
        self.cache
            .router(&graph, self.config.default_config)
            .map_err(|e| ApiError::bad_request(format!("device rejected: {e}")))?;
        let device = RegisteredDevice {
            graph: Arc::new(graph),
            noise: None,
        };
        self.devices.insert(id.to_string(), device)
    }

    /// The finished jobs awaiting delivery. Each critical section is one
    /// `push`, `take` or `is_empty` on the list, so a panic under the lock
    /// cannot leave it inconsistent; a poisoned lock is taken as it is,
    /// and one panic cannot stop every later response from reaching its
    /// client.
    pub(crate) fn completions(&self) -> MutexGuard<'_, Vec<Completion>> {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands a finished job's response (plus the worker's trace notes) to
    /// the reactor for delivery.
    fn complete(&self, token: u64, response: Response, notes: TraceNotes) {
        self.completions().push(Completion {
            token,
            response,
            notes,
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
        self.service
            .register_device(id, graph.clone())
            .map(|_replaced| ())
            .map_err(|e| e.message)
    }

    fn stop(&mut self, abort: bool) {
        self.service.draining.store(true, Ordering::Release);
        self.service.waker.wake();
        if abort {
            self.fail_queued();
        } else {
            self.service.queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // With a frozen pool (workers == 0) a graceful close drains
        // nothing; fail whatever is left so no client hangs.
        self.fail_queued();
        // Every job is now resolved; the reactor exits once the last
        // response is flushed (or the drain deadline reaps stragglers).
        self.service.waker.wake();
        if let Some(reactor) = self.reactor_thread.take() {
            let _ = reactor.join();
        }
    }

    /// Closes the queue and answers every job still in it with `503`.
    fn fail_queued(&self) {
        for job in self.service.queue.close_now() {
            let response = unavailable(&self.service, "service is shutting down");
            self.service
                .complete(job.token, response, TraceNotes::default());
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
    /// The request trace's notes. Dispatch appends the phases it times
    /// (`parse`, `plan_cache`, `rebind`, `admission`), and the inline
    /// plan-cache hit also stamps the device and quality annotations
    /// (worker jobs bring theirs back in their [`Completion`]).
    pub(crate) notes: &'a mut TraceNotes,
}

/// Routes one parsed request. Cheap endpoints (health, metrics,
/// registration, listings) and plan-cache hits are answered inline on the
/// reactor thread; routing work is priced, admission-checked, and queued
/// for the worker pool. A handler's [`ApiError`] becomes its response
/// here, and a handler's panic a `500`: the reactor thread serves every
/// connection, so one request's fault must not stop it.
pub(crate) fn dispatch(
    service: &RoutingService,
    request: &Request,
    ctx: &mut AdmitCtx<'_>,
) -> Outcome {
    let trace_id = ctx.trace_id;
    contain_panic("handling the request", trace_id, || {
        handle(service, request, ctx)
    })
    .unwrap_or_else(|e| Outcome::Respond(e.response()))
}

/// Runs `handler`, turning a panic into a `500` that names the request's
/// trace id: the one guard around reactor dispatch and worker execution.
fn contain_panic<T>(
    doing: &str,
    trace_id: &str,
    handler: impl FnOnce() -> Result<T, ApiError>,
) -> Result<T, ApiError> {
    catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        Err(ApiError::new(
            500,
            format!("internal error {doing} (request {trace_id})"),
        ))
    })
}

fn handle(
    service: &RoutingService,
    request: &Request,
    ctx: &mut AdmitCtx<'_>,
) -> Result<Outcome, ApiError> {
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
                    service.sharded_plans.stats(),
                ),
            )
        }
        ("GET", ["debug", "traces"]) => debug_traces(service, request)?,
        ("GET", ["debug", "quality"]) => Response::json(200, &service.metrics.quality.to_json()),
        ("GET", ["devices"]) => list_devices(service),
        ("POST", ["devices"]) => {
            m.add(Counter::RequestsDevices, 1);
            register_device(service, request)?
        }
        ("POST", ["devices", id, "noise"]) => {
            m.add(Counter::RequestsNoise, 1);
            refresh_noise(service, id, request)?
        }
        ("GET", ["fleets"]) => list_fleets(service),
        ("POST", ["fleets"]) => {
            m.add(Counter::RequestsFleets, 1);
            register_fleet(service, request)?
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
            return Err(ApiError::new(405, "method not allowed on this path"))
        }
        _ => return Err(ApiError::not_found("no such endpoint")),
    };
    Ok(Outcome::Respond(response))
}

/// `GET /debug/traces`: the retained request traces, newest first. Each
/// entry is the trace's JSONL form (trace_id, method, target, status,
/// timestamps, and the per-phase nanosecond breakdown). An optional
/// `?limit=N` (N ≥ 1) returns only the N newest traces; the `count`
/// field still reports the full ring occupancy.
fn debug_traces(service: &RoutingService, request: &Request) -> Result<Response, ApiError> {
    let limit = match request.query_param("limit") {
        None => usize::MAX,
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| {
                ApiError::bad_request("\"limit\" must be a positive integer number of traces")
            })?,
    };
    let traces: JsonValue = service
        .traces
        .snapshot()
        .iter()
        .take(limit)
        .map(|trace| JsonValue::parse(&trace.to_json_line()).expect("trace lines are valid JSON"))
        .collect();
    Ok(Response::json(
        200,
        &JsonValue::object([
            ("capacity", service.traces.capacity().into()),
            ("count", service.traces.len().into()),
            ("traces", traces),
        ]),
    ))
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
    let devices = service.devices.list(|id, device| {
        JsonValue::object([
            ("id", id.into()),
            ("num_qubits", device.graph.num_qubits().into()),
            ("num_edges", device.graph.num_edges().into()),
            ("noise_aware", device.noise.is_some().into()),
            ("distance", distance_engine_name(&device.graph).into()),
        ])
    });
    Response::json(200, &JsonValue::object([("devices", devices)]))
}

fn register_device(service: &RoutingService, request: &Request) -> Result<Response, ApiError> {
    let (id, graph) = api::parse_device_registration(&parse_body(request)?)?;
    let body = JsonValue::object([
        ("id", id.as_str().into()),
        ("num_qubits", graph.num_qubits().into()),
        ("num_edges", graph.num_edges().into()),
        ("distance", distance_engine_name(&graph).into()),
    ]);
    let replaced = service.register_device(&id, graph)?;
    Ok(Response::json(if replaced { 200 } else { 201 }, &body))
}

fn refresh_noise(
    service: &RoutingService,
    id: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let body = parse_body(request)?;
    let (graph, _) = service.device(id)?;
    if flag(&body, "clear", false) {
        if let Some(device) = service.devices.write().get_mut(id) {
            device.noise = None;
        }
        return Ok(Response::json(
            200,
            &JsonValue::object([("id", id.into()), ("cleared", true.into())]),
        ));
    }
    let noise = api::parse_noise_spec(&body, &graph)?;
    // Recompute the weighted matrix once, now — every subsequent request
    // acquires it warm. This is the live-calibration path: no restart.
    service
        .cache
        .refresh_noise(&graph, &noise)
        .map_err(|e| ApiError::bad_request(format!("calibration rejected: {e}")))?;
    let fingerprint = noise.fingerprint();
    if let Some(device) = service.devices.write().get_mut(id) {
        // The noise was validated against the graph snapshot read above;
        // if a concurrent re-registration swapped the device's graph in
        // between, attaching it would pair a noise model with a graph it
        // wasn't built for (routing would later panic on a missing edge).
        if !Arc::ptr_eq(&device.graph, &graph) {
            return Err(ApiError::new(
                409,
                "device was re-registered during the refresh; resubmit the calibration",
            ));
        }
        device.noise = Some(noise);
    }
    Ok(Response::json(
        200,
        &JsonValue::object([("id", id.into()), ("noise_fingerprint", fingerprint.into())]),
    ))
}

/// `POST /fleets`: names an ordered list of registered devices so
/// `/route_sharded` requests can reference the group by one id. Device
/// graphs are resolved at request time, so a later re-registration or
/// calibration refresh is picked up automatically.
fn register_fleet(service: &RoutingService, request: &Request) -> Result<Response, ApiError> {
    let (id, device_ids) = api::parse_fleet_registration(&parse_body(request)?)?;
    // Every named device must exist now — a typo should fail loudly at
    // registration, not at the first routing request.
    for device in &device_ids {
        service.device(device)?;
    }
    let body = fleet_json(&id, &device_ids);
    let replaced = service.fleets.insert(id, device_ids)?;
    Ok(Response::json(if replaced { 200 } else { 201 }, &body))
}

fn list_fleets(service: &RoutingService) -> Response {
    let fleets = service.fleets.list(|id, devices| fleet_json(id, devices));
    Response::json(200, &JsonValue::object([("fleets", fleets)]))
}

/// A fleet as `POST /fleets` and `GET /fleets` show it.
fn fleet_json(id: &str, devices: &[String]) -> JsonValue {
    JsonValue::object([
        ("id", id.into()),
        (
            "devices",
            devices
                .iter()
                .map(|d| JsonValue::from(d.as_str()))
                .collect(),
        ),
    ])
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
    let ignore_noise = flag(body, "ignore_noise", false);
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
    Ok(JobKind::Sharded(ShardedJob {
        members,
        circuit,
        config,
        include_physical: flag(body, "include_physical", false),
    }))
}

/// A boolean body field; `default` when it is absent or not a boolean.
fn flag(body: &JsonValue, name: &str, default: bool) -> bool {
    body.get(name)
        .and_then(JsonValue::as_bool)
        .unwrap_or(default)
}

/// The registered device a `/route` or `/transpile_batch` body names,
/// with its calibration unless the body sets `"ignore_noise"`.
fn named_device(
    service: &RoutingService,
    body: &JsonValue,
) -> Result<(String, Arc<CouplingGraph>, Option<NoiseModel>), ApiError> {
    let id = body
        .get("device")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApiError::bad_request("\"device\" must name a registered device"))?;
    let (graph, noise) = service.device(id)?;
    let noise = noise.filter(|_| !flag(body, "ignore_noise", false));
    Ok((id.to_string(), graph, noise))
}

fn parse_route_request(service: &RoutingService, body: &JsonValue) -> Result<JobKind, ApiError> {
    api::as_object(body)?;
    let (device_id, graph, noise) = named_device(service, body)?;
    let circuit = api::parse_circuit(
        body.get("circuit")
            .ok_or_else(|| ApiError::bad_request("missing \"circuit\""))?,
    )?;
    let config = api::apply_config_overrides(body.get("config"), service.config.default_config)?;
    Ok(JobKind::Route(RouteJob {
        device_id,
        graph,
        noise,
        circuit,
        config,
        include_physical: flag(body, "include_physical", true),
    }))
}

fn parse_batch_request(service: &RoutingService, body: &JsonValue) -> Result<JobKind, ApiError> {
    api::as_object(body)?;
    let (device_id, graph, noise) = named_device(service, body)?;
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
    let options = TranspileOptions {
        config: api::apply_config_overrides(body.get("config"), service.config.default_config)?,
        noise,
        direction: None,
        skip_optimizer: flag(body, "skip_optimizer", false),
    };
    Ok(JobKind::Batch {
        device_id,
        graph,
        circuits,
        options,
        include_physical: flag(body, "include_physical", false),
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
) -> Result<Outcome, ApiError> {
    if ctx.limiter.enabled() && !ctx.limiter.allow(ctx.peer, Instant::now()) {
        service.metrics.add(Counter::ShedRateLimited, 1);
        return Ok(Outcome::Respond(api::too_many_requests(
            "rate limit exceeded for this client",
            0,
            u64::from(service.config.retry_after_secs),
        )));
    }
    let parse_span = Span::now();
    let mut kind = parse(service, &parse_body(request)?)?;
    ctx.notes.phases.push(("parse", parse_span.elapsed_ns()));
    let cached = match &mut kind {
        JobKind::Route(job) => {
            // The `?profile=true` query flag switches on the hot-loop
            // profiler for this request, equivalent to `"config":
            // {"profile": true}`.
            if request.query_flag("profile") {
                job.config.profile = true;
            }
            // Profiled requests bypass the cache: a rebind runs zero
            // search, so it has no hot-loop profile to report — they must
            // reach a worker.
            (!job.config.profile)
                .then(|| route_from_plan_cache(service, job, ctx.notes))
                .flatten()
        }
        JobKind::Sharded(job) => sharded_from_plan_cache(service, job, ctx.notes),
        JobKind::Batch { .. } => None,
    };
    Ok(match cached {
        Some(response) => Outcome::Respond(response),
        None => admit(service, kind, ctx),
    })
}

/// Routed-plan fast path, checked *before* admission pricing: a `/route`
/// whose structure is already cached needs no search steps, so queueing
/// it behind priced work (or shedding it against the SLO) would be pure
/// waste. Re-binding is microseconds of parameter stamping — cheap
/// enough to answer inline on the reactor thread. `None` on a miss.
fn route_from_plan_cache(
    service: &RoutingService,
    job: &RouteJob,
    notes: &mut TraceNotes,
) -> Option<Response> {
    let lookup_span = Span::now();
    let cached = service.cache.plans().lookup_with_quality(
        &job.circuit,
        &job.graph,
        job.noise.as_ref(),
        &job.config,
    );
    let lookup_ns = lookup_span.elapsed_ns();
    let Some((result, quality)) = cached else {
        notes.phases.push(("plan_cache", lookup_ns));
        return None;
    };
    let m = &service.metrics;
    let rebind_ns = result.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    m.observe(Hist::RebindNs, rebind_ns);
    m.add(Counter::PlanCacheInlineHits, 1);
    m.add(Counter::CircuitsRouted, 1);
    // The rebind ran *inside* the lookup (`result.elapsed` timed it);
    // report the two as disjoint slices instead of counting the rebind
    // twice.
    notes
        .phases
        .push(("plan_cache", lookup_ns.saturating_sub(rebind_ns)));
    notes.phases.push(("rebind", rebind_ns));
    // Deliberately not record_routing(): a rebind runs zero search steps,
    // and folding its wall time into the ns-per-step price would corrupt
    // the admission model. The quality rides the cached plan (computed
    // once at the original miss) — zero recompute on this inline path.
    Some(finish_route(service, job, "hit", &result, &quality, notes))
}

/// `/route_sharded`'s fast path, the twin of [`route_from_plan_cache`]: a
/// structure already routed, proven and scored on this fleet is answered
/// inline by re-binding its angles, with no fleet build, no partition and
/// no search. `None` on a miss.
fn sharded_from_plan_cache(
    service: &RoutingService,
    job: &ShardedJob,
    notes: &mut TraceNotes,
) -> Option<Response> {
    let lookup_span = Span::now();
    let cached = service
        .sharded_plans
        .lookup(&job.circuit, &job.keys(), &job.config);
    let lookup_ns = lookup_span.elapsed_ns();
    let Some((plan, quality)) = cached else {
        notes.phases.push(("plan_cache", lookup_ns));
        return None;
    };
    let rebind_ns = plan.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    service.metrics.observe(Hist::RebindNs, rebind_ns);
    service.metrics.add(Counter::CircuitsRouted, 1);
    notes
        .phases
        .push(("plan_cache", lookup_ns.saturating_sub(rebind_ns)));
    notes.phases.push(("rebind", rebind_ns));
    Some(finish_sharded(service, job, "hit", &plan, &quality, notes))
}

/// The end of every `POST /route_sharded`, hit or miss: observe each
/// shard's quality under its member's id, annotate the trace, and
/// serialize the response (the `serialize` phase). Every plan it renders
/// was proven by [`ShardedPlanCache::insert`], on this request or on the
/// miss that cached it.
fn finish_sharded(
    service: &RoutingService,
    job: &ShardedJob,
    plan_cache: &str,
    plan: &ShardedPlan,
    quality: &ShardedQuality,
    notes: &mut TraceNotes,
) -> Response {
    for shard in &quality.shards {
        service
            .metrics
            .observe_quality(&shard.member, &shard.quality);
    }
    notes
        .annotations
        .push(("swaps", quality.total_swaps as u64));
    notes
        .annotations
        .push(("cut_gates", quality.cut_gates as u64));
    let serialize_span = Span::now();
    let fleet = job
        .members
        .iter()
        .map(|(id, _, _)| JsonValue::from(id.as_str()))
        .collect();
    let noise_aware = job.members.iter().any(|(_, _, noise)| noise.is_some());
    let mut fields = vec![
        ("fleet", fleet),
        ("noise_aware", noise_aware.into()),
        ("seed", job.config.sabre.seed.into()),
        ("plan_cache", plan_cache.into()),
        ("verified", true.into()),
        ("quality", quality.to_json()),
        ("plan", plan.to_json()),
    ];
    if job.include_physical {
        fields.push((
            "shards_physical_qasm",
            plan.shards
                .iter()
                .map(|shard| JsonValue::from(sabre_qasm::to_qasm(&shard.result.best.physical)))
                .collect(),
        ));
    }
    let response = Response::json(200, &JsonValue::object(fields));
    notes
        .phases
        .push(("serialize", serialize_span.elapsed_ns()));
    response
}

/// The end of every `POST /route`, shared by the inline plan-cache hit
/// (reactor thread) and the full-route worker path so the two are
/// structurally identical apart from the `plan_cache` tag: observe the
/// plan's quality for its device, stamp the device and the quality on
/// the trace, and serialize the response (the `serialize` phase).
fn finish_route(
    service: &RoutingService,
    job: &RouteJob,
    plan_cache: &str,
    result: &SabreResult,
    quality: &PlanQuality,
    notes: &mut TraceNotes,
) -> Response {
    service.metrics.observe_quality(&job.device_id, quality);
    notes.device = Some(job.device_id.clone());
    notes.annotations.push(("swaps", quality.num_swaps as u64));
    notes
        .annotations
        .push(("depth_overhead", quality.depth_overhead as u64));
    let serialize_span = Span::now();
    let mut fields = vec![
        ("device", JsonValue::from(job.device_id.as_str())),
        ("noise_aware", job.noise.is_some().into()),
        ("seed", job.config.seed.into()),
        ("plan_cache", plan_cache.into()),
        ("quality", quality.to_json()),
        ("result", result.to_json()),
    ];
    if job.include_physical {
        fields.push((
            "physical_qasm",
            sabre_qasm::to_qasm(&result.best.physical).into(),
        ));
    }
    let response = Response::json(200, &JsonValue::object(fields));
    notes
        .phases
        .push(("serialize", serialize_span.elapsed_ns()));
    response
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
        ctx.notes
            .phases
            .push(("admission", admission_span.elapsed_ns()));
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
    ctx.notes
        .phases
        .push(("admission", admission_span.elapsed_ns()));
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
        JobKind::Route(job) => admission::estimate_steps(
            job.circuit.num_two_qubit_gates(),
            job.config.num_restarts,
            job.config.num_traversals,
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
        JobKind::Sharded(job) => admission::estimate_steps(
            job.circuit.num_two_qubit_gates(),
            job.config.sabre.num_restarts,
            job.config.sabre.num_traversals,
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
        let mut notes = TraceNotes {
            phases: vec![("queue_wait", queue_wait_ns)],
            ..TraceNotes::default()
        };
        let response = contain_panic("executing the job", &job.trace_id, || {
            execute(service, &job.kind, &mut notes)
        })
        .unwrap_or_else(|e| e.response());
        service.inflight_cost.fetch_sub(cost, Ordering::Relaxed);
        let finished = if response.status() < 400 {
            Counter::JobsCompleted
        } else {
            Counter::JobsFailed
        };
        service.metrics.add(finished, 1);
        service.complete(job.token, response, notes);
    }
}

/// A plan that fails its proof is the server's fault, never the
/// client's: `500`, naming the violated property.
fn unproven(e: impl std::fmt::Display) -> ApiError {
    ApiError::new(500, format!("plan failed verification: {e}"))
}

fn execute(
    service: &RoutingService,
    kind: &JobKind,
    notes: &mut TraceNotes,
) -> Result<Response, ApiError> {
    match kind {
        JobKind::Route(job) => {
            let route_span = Span::now();
            let routing_failed = |e: RouteError| ApiError::new(422, format!("routing failed: {e}"));
            let router = match &job.noise {
                Some(noise) => service
                    .cache
                    .router_with_noise(&job.graph, job.config, noise),
                None => service.cache.router(&job.graph, job.config),
            }
            .map_err(routing_failed)?;
            let result = router.route(&job.circuit).map_err(routing_failed)?;
            notes.phases.push(("route", route_span.elapsed_ns()));
            // Prove and score the routed plan, and cache it so the next
            // submission of this structure (any parameters) re-binds
            // inline at dispatch.
            let quality = service
                .cache
                .plans()
                .insert(
                    &job.circuit,
                    &job.graph,
                    job.noise.as_ref(),
                    &job.config,
                    &result,
                )
                .map_err(unproven)?;
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
            Ok(finish_route(service, job, "miss", &result, &quality, notes))
        }
        JobKind::Sharded(job) => {
            let route_span = Span::now();
            let sharding_failed =
                |e: ShardError| ApiError::new(422, format!("sharded routing failed: {e}"));
            let mut fleet = Fleet::new();
            for (id, graph, noise) in &job.members {
                match noise {
                    Some(noise) => fleet.register_with_noise(id, graph.clone(), noise.clone()),
                    None => fleet.register(id, graph.clone()),
                }
                .map_err(sharding_failed)?;
            }
            let plan = route_sharded(&job.circuit, &fleet, &job.config, &service.cache)
                .map_err(sharding_failed)?;
            notes.phases.push(("route", route_span.elapsed_ns()));
            // Prove and score the plan once, and cache it so the next
            // submission of this structure re-binds inline at dispatch.
            let quality = service
                .sharded_plans
                .insert(&job.circuit, &fleet, &job.config, &plan)
                .map_err(unproven)?;
            for shard in &plan.shards {
                service.metrics.record_routing(
                    shard.result.elapsed.as_nanos(),
                    shard.result.total_search_steps(),
                    shard.result.ns_per_step(),
                );
            }
            service.metrics.add(Counter::CircuitsRouted, 1);
            Ok(finish_sharded(service, job, "miss", &plan, &quality, notes))
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
            notes.device = Some(device_id.clone());
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
            notes.annotations.push(("swaps", total_swaps));
            // Partial success is a 200: the response reports per-slot
            // outcomes, which is the point of `BatchOutcome`.
            Ok(Response::json(
                200,
                &JsonValue::object([
                    ("device", device_id.as_str().into()),
                    ("noise_aware", options.noise.is_some().into()),
                    ("succeeded", succeeded.into()),
                    ("failed", (outcomes.len() - succeeded).into()),
                    ("outcomes", slots),
                ]),
            ))
        }
    }
}

fn parse_body(request: &Request) -> Result<JsonValue, ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad_request("missing JSON request body"));
    }
    JsonValue::parse(text).map_err(|e| ApiError::bad_request(format!("invalid JSON: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_registry_keeps_registering_and_reading() {
        let registry = Registry::new("device", 2);
        registry.insert("a".to_string(), 1).unwrap();
        let poisoner = thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = registry.map.write().unwrap();
                    panic!("a panic while holding the registry lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(registry.map.is_poisoned());

        assert_eq!(registry.insert("b".to_string(), 2), Ok(false));
        assert_eq!(registry.read().get("a"), Some(&1));
        assert_eq!(registry.insert("c".to_string(), 3).unwrap_err().status, 409);
    }

    #[test]
    fn a_panicking_handler_answers_500_naming_its_request() {
        let err = contain_panic(
            "handling the request",
            "t-42",
            || -> Result<(), ApiError> { panic!("a handler fault") },
        )
        .unwrap_err();
        assert_eq!(err.status, 500);
        assert_eq!(
            err.message,
            "internal error handling the request (request t-42)"
        );
        // What a handler returns passes through untouched.
        assert_eq!(contain_panic("x", "t", || Ok::<_, ApiError>(7)), Ok(7));
        let refused = contain_panic("x", "t", || Err::<(), _>(ApiError::not_found("gone")));
        assert_eq!(refused.unwrap_err().status, 404);
    }

    #[test]
    fn a_poisoned_completion_list_still_delivers() {
        let (waker, _rx) = reactor::waker_pair().unwrap();
        let service = RoutingService::new(ServeConfig::default(), waker);
        let poisoner = thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = service.completions.lock().unwrap();
                    panic!("a panic while holding the completion list");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(service.completions.is_poisoned());

        service.complete(7, Response::text(200, "done"), TraceNotes::default());
        let delivered = std::mem::take(&mut *service.completions());
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].token, 7);
        assert!(service.completions().is_empty());
    }
}
