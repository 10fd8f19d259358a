//! Service metrics and their Prometheus text rendering (`GET /metrics`).
//!
//! One ordered table, `FAMILIES`, declares every family the endpoint
//! exports: kind (with a histogram's bucket bounds), name, series and
//! help. [`Metrics::render`] is one loop over it, so the exposition order
//! is the table order. A family is one unlabeled series or a fixed list
//! of series under one label (`endpoint`, `reason`, `kind`, `phase`).
//! Each series reads a `Source`: a `Counter` slot (a relaxed
//! `AtomicU64`), a `Hist` slot (a fixed-bucket histogram), a scrape-time
//! read of gauges owned elsewhere ([`GaugeSnapshot`], [`DeviceCacheStats`],
//! the two caches' [`PlanCacheStats`]) or of a derived value, or the per-device quality
//! board (one sample per device id). Adding a family takes one row plus
//! its call site: a `Counter` or `Hist` variant bumped by `Metrics::add`
//! or `Metrics::observe` where the event happens, or a `Read`.
//!
//! Routing nanoseconds over search steps is the fleet-wide mean cost of
//! one SWAP-search step, beside the most recent `/route` job's: the two
//! numbers admission control needs to turn queue depth into expected
//! wait. Counters only need to be monotone, so torn reads across a
//! scrape are fine.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

use sabre::{DeviceCacheStats, PlanCacheStats, PlanQuality};
use sabre_json::JsonValue;

use Counter::*;
use Hist::*;
use Series::{Labeled, One};
use Source::{Count, Device, Observed, Read};

/// Counter slots of [`Metrics`]. Each one's meaning is the help text of
/// the `FAMILIES` row that exports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Counter {
    RequestsRoute,
    RequestsSharded,
    RequestsBatch,
    RequestsDevices,
    RequestsFleets,
    RequestsNoise,
    RequestsHealthz,
    RequestsMetrics,
    QueueRejections,
    JobsAdmitted,
    JobsCompleted,
    JobsFailed,
    CircuitsRouted,
    RoutingNs,
    RoutingSteps,
    /// A gauge: stored by [`Metrics::record_routing`], never added to.
    LastRouteNsPerStep,
    QueueWaitNs,
    ReapedReadDeadline,
    ReapedWriteDeadline,
    ReapedIdle,
    ShedRateLimited,
    ShedPredictedSlo,
    ShedTableFull,
    PlanCacheInlineHits,
}

/// Number of [`Counter`] slots (the last variant's index plus one).
const COUNTERS: usize = PlanCacheInlineHits as usize + 1;

/// Histogram slots of [`Metrics`]; the `FAMILIES` row that renders a slot
/// also gives its bucket bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Hist {
    PredictedWaitMs,
    RebindNs,
    PhaseFront,
    PhaseExtendedSet,
    PhaseScoring,
    RouteSwaps,
    RouteDepthOverhead,
    RouteLogSuccess,
}

/// Number of [`Hist`] slots (the last variant's index plus one).
const HISTOGRAMS: usize = RouteLogSuccess as usize + 1;

/// Bucket upper bounds of the SWAP-count histograms: one count per routed
/// circuit, from the embeddable 0 through corpus-scale thousands.
const ROUTE_SWAPS_BUCKETS: [u64; 10] = [0, 1, 2, 5, 10, 25, 50, 100, 500, 2000];

/// Bucket upper bounds of the depth-overhead histograms (added DAG layers
/// after SWAP decomposition).
const DEPTH_OVERHEAD_BUCKETS: [u64; 10] = [0, 2, 5, 10, 25, 50, 100, 250, 1000, 5000];

/// Bucket upper bounds of the log-success-probability histograms, in
/// **negated milli-nats**: an observation of `1000` means
/// `log(p_success) = −1.0`, i.e. p ≈ 0.37. The span covers p ≈ 0.999
/// down to e⁻¹⁰⁰ (deep circuits on noisy devices).
const NEG_MILLI_LOG_SUCCESS_BUCKETS: [u64; 10] =
    [1, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000];

/// A Prometheus family's type; a histogram carries its ascending bucket
/// upper bounds (an implicit `+Inf` bucket follows).
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram(&'static [u64]),
}

/// Where a series' value comes from at scrape time.
#[derive(Clone, Copy)]
enum Source {
    Count(Counter),
    Observed(Hist),
    Read(fn(&Scrape<'_>) -> u64),
    /// One sample per quality-board device, labeled `device`.
    Device(fn(&DeviceQuality) -> u64),
}

#[derive(Clone, Copy)]
enum Series {
    One(Source),
    /// `(label value, source)` per series, under one label name.
    Labeled(&'static str, &'static [(&'static str, Source)]),
}

/// One row of `FAMILIES`: a `# HELP`/`# TYPE` block and its samples.
struct Family {
    kind: Kind,
    /// Name after the `sabre_serve_` prefix.
    name: &'static str,
    series: Series,
    help: &'static str,
}

const fn family(kind: Kind, name: &'static str, series: Series, help: &'static str) -> Family {
    Family {
        kind,
        name,
        series,
        help,
    }
}

const fn counter(name: &'static str, source: Source, help: &'static str) -> Family {
    family(Kind::Counter, name, One(source), help)
}

const fn gauge(name: &'static str, source: Source, help: &'static str) -> Family {
    family(Kind::Gauge, name, One(source), help)
}

/// What a `Read` source sees: the metrics themselves plus the values
/// their owners sample per scrape.
struct Scrape<'a> {
    metrics: &'a Metrics,
    gauges: GaugeSnapshot,
    cache: DeviceCacheStats,
    plans: PlanCacheStats,
    sharded: PlanCacheStats,
}

/// Every `/metrics` family, in exposition order.
#[rustfmt::skip]
static FAMILIES: &[Family] = &[
    gauge("queue_depth", Read(|s| s.gauges.queue_depth as u64),
        "Jobs waiting in the admission queue."),
    gauge("queue_capacity", Read(|s| s.gauges.queue_capacity as u64), "Admission queue capacity."),
    gauge("workers", Read(|s| s.gauges.workers as u64), "Routing worker threads."),
    gauge("devices_registered", Read(|s| s.gauges.devices as u64), "Devices currently registered."),
    gauge("fleets_registered", Read(|s| s.gauges.fleets as u64), "Fleets currently registered."),
    gauge("draining", Read(|s| u64::from(s.gauges.draining)), "1 once shutdown has begun."),
    gauge("open_connections", Read(|s| s.gauges.open_connections as u64),
        "Connections currently held in the reactor's table."),
    gauge("max_connections", Read(|s| s.gauges.max_connections as u64),
        "Connection-table capacity."),
    family(Kind::Counter, "requests_total", Labeled("endpoint", &[
        ("route", Count(RequestsRoute)), ("route_sharded", Count(RequestsSharded)),
        ("transpile_batch", Count(RequestsBatch)), ("devices", Count(RequestsDevices)),
        ("fleets", Count(RequestsFleets)), ("noise", Count(RequestsNoise)),
        ("healthz", Count(RequestsHealthz)), ("metrics", Count(RequestsMetrics)),
    ]), "HTTP requests by endpoint."),
    counter("queue_rejections_total", Count(QueueRejections),
        "Admissions rejected with 503 (queue full)."),
    counter("jobs_admitted_total", Count(JobsAdmitted), "Jobs accepted into the queue."),
    counter("jobs_completed_total", Count(JobsCompleted), "Jobs that produced a 2xx response."),
    counter("jobs_failed_total", Count(JobsFailed), "Jobs that produced an error response."),
    counter("circuits_routed_total", Count(CircuitsRouted),
        "Circuits routed successfully (batch slots counted individually)."),
    counter("routing_ns_total", Count(RoutingNs), "Wall nanoseconds spent routing."),
    counter("routing_steps_total", Count(RoutingSteps),
        "Search steps executed (all traversals of all restarts)."),
    gauge("avg_route_ns_per_step", Read(|s| s.metrics.avg_ns_per_step()),
        "Mean ns per search step over the process lifetime."),
    gauge("last_route_ns_per_step", Count(LastRouteNsPerStep),
        "ns per search step of the most recent /route job."),
    counter("queue_wait_ns_total", Count(QueueWaitNs),
        "Nanoseconds jobs spent waiting in the queue."),
    family(Kind::Counter, "connections_reaped_total", Labeled("reason", &[
        ("read_deadline", Count(ReapedReadDeadline)),
        ("write_deadline", Count(ReapedWriteDeadline)), ("idle", Count(ReapedIdle)),
    ]), "Connections closed by a deadline or idle timeout."),
    // `queue_full` mirrors the queue-rejection counter: complete, not double-counted.
    family(Kind::Counter, "admission_rejections_total", Labeled("kind", &[
        ("queue_full", Count(QueueRejections)), ("rate_limited", Count(ShedRateLimited)),
        ("predicted_slo", Count(ShedPredictedSlo)), ("table_full", Count(ShedTableFull)),
    ]), "Requests shed before queueing, by cause."),
    // Observed for every priced request, admitted or shed.
    family(Kind::Histogram(&[1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000]),
        "admission_predicted_wait_ms", One(Observed(PredictedWaitMs)),
        "Projected queue wait (ms) computed at admission time."),
    counter("cache_graph_hits_total", Read(|s| s.cache.graph_hits),
        "DeviceCache router acquisitions served warm."),
    counter("cache_graph_misses_total", Read(|s| s.cache.graph_misses),
        "DeviceCache acquisitions that ran full preprocessing."),
    counter("cache_noise_hits_total", Read(|s| s.cache.noise_hits),
        "Noise-weighted matrices served warm."),
    counter("cache_noise_misses_total", Read(|s| s.cache.noise_misses),
        "Noise-weighted matrices computed."),
    counter("cache_embedding_hits_total", Read(|s| s.cache.embedding_hits),
        "Perfect-placement probe verdicts served warm."),
    counter("cache_embedding_misses_total", Read(|s| s.cache.embedding_misses),
        "Probe verdicts computed by backtracking."),
    counter("plan_cache_hits_total", Read(|s| s.plans.hits),
        "Routed-plan lookups served by parameter re-binding."),
    counter("plan_cache_misses_total", Read(|s| s.plans.misses),
        "Routed-plan lookups that fell through to a full route."),
    counter("plan_cache_evictions_total", Read(|s| s.plans.evictions),
        "Routed plans evicted by the LRU capacity bound."),
    gauge("plan_cache_entries", Read(|s| s.plans.entries as u64), "Routed plans currently cached."),
    gauge("plan_cache_approx_bytes", Read(|s| s.plans.approx_bytes),
        "Estimated heap bytes held by cached routed plans."),
    counter("plan_cache_inline_hits_total", Count(PlanCacheInlineHits),
        "/route requests answered inline from the plan cache."),
    counter("sharded_plan_cache_hits_total", Read(|s| s.sharded.hits),
        "/route_sharded requests answered inline by re-binding a proven sharded plan."),
    counter("sharded_plan_cache_misses_total", Read(|s| s.sharded.misses),
        "Sharded-plan lookups that fell through to a full sharded route."),
    counter("sharded_plan_cache_evictions_total", Read(|s| s.sharded.evictions),
        "Sharded plans evicted by the LRU capacity bound."),
    gauge("sharded_plan_cache_entries", Read(|s| s.sharded.entries as u64),
        "Sharded plans currently cached."),
    // Re-binding is a clone plus a parameter stamp: microseconds, so the
    // bands start at 1µs and top out at 100ms to catch pathologies.
    family(Kind::Histogram(&[
        1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000, 100_000_000,
    ]), "rebind_ns", One(Observed(RebindNs)),
        "Parameter re-bind latency (ns) for plan-cache hits."),
    // Fed by `/route?profile=true` jobs. Phase totals range from tens of
    // microseconds (tiny circuits) to seconds, so the bands are decades.
    family(Kind::Histogram(&[
        10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
        100_000_000_000,
    ]), "route_phase_ns", Labeled("phase", &[
        ("front", Observed(PhaseFront)), ("extended_set", Observed(PhaseExtendedSet)),
        ("scoring", Observed(PhaseScoring)),
    ]), "Hot-loop time per routing phase (ns), from profiled /route jobs."),
    family(Kind::Histogram(&ROUTE_SWAPS_BUCKETS), "route_swaps", One(Observed(RouteSwaps)),
        "SWAPs inserted per routed circuit."),
    family(Kind::Histogram(&DEPTH_OVERHEAD_BUCKETS),
        "route_depth_overhead", One(Observed(RouteDepthOverhead)),
        "Depth overhead (added layers) per routed circuit."),
    // Hop-only routes have no fidelity estimate and are not observed.
    family(Kind::Histogram(&NEG_MILLI_LOG_SUCCESS_BUCKETS), "route_log_success_probability",
        One(Observed(RouteLogSuccess)),
        "Negated milli-log success probability per noise-aware routed circuit (1000 = log p of -1)."),
    counter("device_routes_total", Device(|d| d.routes), "Circuits routed per device id."),
    counter("device_swaps_total", Device(|d| d.swaps.sum), "SWAPs inserted per device id."),
];

impl Family {
    /// `(label pair, source)` per series, in exposition order; the label
    /// pair is empty for an unlabeled family.
    fn series(&self) -> Vec<(String, Source)> {
        match self.series {
            One(source) => vec![(String::new(), source)],
            Labeled(label, series) => series
                .iter()
                .map(|&(value, source)| (format!("{label}=\"{value}\""), source))
                .collect(),
        }
    }
}

/// The index of the bucket that `value` falls in: the first bound at or
/// above it, or `bounds.len()` (the `+Inf` overflow) past the last.
fn bucket_index(bounds: &[u64], value: u64) -> usize {
    bounds.partition_point(|&bound| bound < value)
}

/// Writes one sample line; `labels` is `k="v"` pairs or empty.
fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    let _ = if labels.is_empty() {
        writeln!(out, "sabre_serve_{name} {value}")
    } else {
        writeln!(out, "sabre_serve_{name}{{{labels}}} {value}")
    };
}

/// A fixed-bucket Prometheus histogram (cumulative buckets rendered at
/// scrape time; stored counts are per-bucket).
#[derive(Debug)]
struct Histogram {
    bounds: &'static [u64],
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(self.bounds, value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// The bucket, sum and count lines of one series, each carrying
    /// `labels` (empty for an unlabeled family).
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let les = self.bounds.iter().map(u64::to_string);
        let mut cumulative = 0;
        for (le, bucket) in les.chain(["+Inf".to_string()]).zip(&self.buckets) {
            cumulative += bucket.load(Relaxed);
            let labels = format!("{labels}{sep}le=\"{le}\"");
            sample(out, &format!("{name}_bucket"), &labels, cumulative);
        }
        let (sum, count) = (self.sum.load(Relaxed), self.count.load(Relaxed));
        sample(out, &format!("{name}_sum"), labels, sum);
        sample(out, &format!("{name}_count"), labels, count);
    }
}

/// Encodes a log-success-probability for histogram storage: negated
/// milli-nats, rounded. The float-to-int cast saturates, so `lsp ≥ 0`
/// (and NaN) encode as 0 and `-∞` as `u64::MAX`.
fn neg_milli_log(lsp: f64) -> u64 {
    (-lsp * 1000.0).round() as u64
}

/// A single-threaded fixed-bucket accumulator: the per-device flavor of
/// [`Histogram`], kept behind the scoreboard's mutex instead of atomics
/// because observations and quantile reads are both rare (once per
/// routed circuit / once per `/debug/quality` scrape).
#[derive(Debug)]
struct Acc {
    bounds: &'static [u64],
    /// One slot per bound plus the overflow slot.
    counts: Vec<u64>,
    sum: u64,
    count: u64,
    max: u64,
}

impl Acc {
    fn new(bounds: &'static [u64]) -> Self {
        Acc {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        self.counts[bucket_index(self.bounds, value)] += 1;
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// `0` before the first observation (the sum is still zero).
    fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }

    /// Bucket-resolution quantile: the smallest bucket bound whose
    /// cumulative count reaches `q·count` (the overflow bucket reports
    /// the exact max). Resolution is a bucket width — adequate for a
    /// scoreboard, constant memory per device.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &bound) in self.bounds.iter().enumerate() {
            cumulative += self.counts[idx];
            if cumulative >= target {
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// `{mean, p50, p95, max}` as a JSON object.
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("mean", self.mean().into()),
            ("p50", self.quantile(0.5).into()),
            ("p95", self.quantile(0.95).into()),
            ("max", self.max.into()),
        ])
    }
}

/// Per-device quality aggregates since process start.
#[derive(Debug)]
struct DeviceQuality {
    routes: u64,
    swaps: Acc,
    depth_overhead: Acc,
    /// Negated milli-log success; only noise-aware routes observe.
    neg_log_success_milli: Acc,
    log_success_sum: f64,
}

impl DeviceQuality {
    fn new() -> Self {
        DeviceQuality {
            routes: 0,
            swaps: Acc::new(&ROUTE_SWAPS_BUCKETS),
            depth_overhead: Acc::new(&DEPTH_OVERHEAD_BUCKETS),
            neg_log_success_milli: Acc::new(&NEG_MILLI_LOG_SUCCESS_BUCKETS),
            log_success_sum: 0.0,
        }
    }
}

/// The `GET /debug/quality` scoreboard: per-device-id quality aggregates
/// (count, mean/p50/p95 swaps, depth overhead, fidelity) since process
/// start. A `BTreeMap` so every rendering is sorted by device id.
#[derive(Debug, Default)]
pub struct QualityBoard {
    devices: Mutex<BTreeMap<String, DeviceQuality>>,
}

impl QualityBoard {
    /// The device map. A panic under this lock can at worst leave one
    /// device's aggregates partly updated, and no reader needs them to
    /// agree (means, quantiles and sums stay defined), so a poisoned lock
    /// is taken as it is: one panic cannot fail every later route or
    /// scrape too.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, DeviceQuality>> {
        self.devices.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn observe(&self, device: &str, quality: &PlanQuality) {
        let mut devices = self.lock();
        let entry = devices
            .entry(device.to_string())
            .or_insert_with(DeviceQuality::new);
        entry.routes += 1;
        entry.swaps.observe(quality.num_swaps as u64);
        entry.depth_overhead.observe(quality.depth_overhead as u64);
        if let Some(lsp) = quality.log_success_probability {
            entry.neg_log_success_milli.observe(neg_milli_log(lsp));
            entry.log_success_sum += lsp;
        }
    }

    /// The scoreboard as a deterministic JSON object (devices sorted by
    /// id). Fidelity quantiles are decoded back from the milli-nat
    /// accumulator, so `p50 ≥ p95` in log space (less negative = better).
    pub fn to_json(&self) -> JsonValue {
        let devices = self.lock();
        JsonValue::object([(
            "devices",
            devices
                .iter()
                .map(|(id, d)| {
                    let milli = &d.neg_log_success_milli;
                    let decode = |milli: u64| JsonValue::from(-(milli as f64) / 1000.0);
                    let fidelity = if milli.count == 0 {
                        JsonValue::Null
                    } else {
                        JsonValue::object([
                            ("count", milli.count.into()),
                            ("mean", (d.log_success_sum / milli.count as f64).into()),
                            ("p50", decode(milli.quantile(0.5))),
                            ("p95", decode(milli.quantile(0.95))),
                            ("min", decode(milli.max)),
                        ])
                    };
                    JsonValue::object([
                        ("device", id.as_str().into()),
                        ("count", d.routes.into()),
                        ("swaps", d.swaps.to_json()),
                        ("depth_overhead", d.depth_overhead.to_json()),
                        ("log_success_probability", fidelity),
                    ])
                })
                .collect(),
        )])
    }
}

/// Prometheus label-value escaping: backslash, quote, newline.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Point-in-time gauges owned by the service, sampled per scrape.
#[derive(Clone, Copy, Debug)]
pub struct GaugeSnapshot {
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Registered devices.
    pub devices: usize,
    /// Registered fleets.
    pub fleets: usize,
    /// Whether shutdown has begun.
    pub draining: bool,
    /// Connections currently in the reactor's table.
    pub open_connections: usize,
    /// Capacity of the reactor's connection table.
    pub max_connections: usize,
}

/// The service's counters and histograms, one slot per `Counter` and
/// `Hist`, plus the per-device quality board. Gauges owned elsewhere
/// are passed to [`Metrics::render`] at scrape time.
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; COUNTERS],
    histograms: [Histogram; HISTOGRAMS],
    /// Per-device quality scoreboard backing `GET /debug/quality`.
    pub quality: QualityBoard,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|slot| Histogram::new(histogram_bounds(slot))),
            quality: QualityBoard::default(),
        }
    }
}

/// The bucket bounds of histogram `slot`, from the family that renders it.
fn histogram_bounds(slot: usize) -> &'static [u64] {
    let renders = |f: &&Family| {
        f.series()
            .iter()
            .any(|&(_, source)| matches!(source, Observed(h) if h as usize == slot))
    };
    match FAMILIES.iter().find(renders).map(|f| f.kind) {
        Some(Kind::Histogram(bounds)) => bounds,
        _ => panic!("histogram slot {slot} has no histogram family"),
    }
}

impl Metrics {
    /// Bumps a counter (relaxed; these are statistics, not synchronization).
    pub(crate) fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Relaxed);
    }

    fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Relaxed)
    }

    /// Records one observation in a histogram.
    pub(crate) fn observe(&self, histogram: Hist, value: u64) {
        self.histograms[histogram as usize].observe(value);
    }

    /// Records one successful routing call in the admission telemetry.
    pub fn record_routing(&self, elapsed_ns: u128, steps: usize, ns_per_step: u128) {
        let saturate = |ns: u128| ns.min(u128::from(u64::MAX)) as u64;
        self.add(RoutingNs, saturate(elapsed_ns));
        self.add(RoutingSteps, steps as u64);
        self.counters[LastRouteNsPerStep as usize].store(saturate(ns_per_step), Relaxed);
    }

    /// Records the quality of one routed circuit: the three fleet-wide
    /// histograms plus the per-device scoreboard. Runs post-route off
    /// the hot loop; batch slots and shards are observed individually
    /// under their own device id.
    pub fn observe_quality(&self, device: &str, quality: &PlanQuality) {
        self.observe(RouteSwaps, quality.num_swaps as u64);
        self.observe(RouteDepthOverhead, quality.depth_overhead as u64);
        if let Some(lsp) = quality.log_success_probability {
            self.observe(RouteLogSuccess, neg_milli_log(lsp));
        }
        self.quality.observe(device, quality);
    }

    /// Mean ns per search step over the process lifetime — the live
    /// price admission control multiplies predicted steps by. `0` until
    /// the first routing job completes (no observation, no model).
    pub fn avg_ns_per_step(&self) -> u64 {
        self.get(RoutingNs)
            .checked_div(self.get(RoutingSteps))
            .unwrap_or(0)
    }

    /// Renders the Prometheus exposition text: one block per `FAMILIES`
    /// row, in table order.
    pub fn render(
        &self,
        gauges: GaugeSnapshot,
        cache: DeviceCacheStats,
        plans: PlanCacheStats,
        sharded: PlanCacheStats,
    ) -> String {
        let scrape = Scrape {
            metrics: self,
            gauges,
            cache,
            plans,
            sharded,
        };
        let mut out = String::new();
        for family in FAMILIES {
            let name = family.name;
            let kind = match family.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP sabre_serve_{name} {}", family.help);
            let _ = writeln!(out, "# TYPE sabre_serve_{name} {kind}");
            for (labels, source) in family.series() {
                match source {
                    Count(counter) => sample(&mut out, name, &labels, self.get(counter)),
                    Read(read) => sample(&mut out, name, &labels, read(&scrape)),
                    Observed(h) => self.histograms[h as usize].render(&mut out, name, &labels),
                    Device(read) => {
                        for (id, d) in self.quality.lock().iter() {
                            let labels = format!("device=\"{}\"", escape_label(id));
                            sample(&mut out, name, &labels, read(d));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_gauges_counters_and_derived_values() {
        let m = Metrics::default();
        m.add(RequestsRoute, 3);
        m.add(QueueRejections, 1);
        m.add(ReapedIdle, 2);
        m.add(ShedPredictedSlo, 4);
        m.record_routing(1000, 10, 100);
        m.record_routing(3000, 10, 300);
        m.observe(PredictedWaitMs, 3);
        m.observe(PredictedWaitMs, 40);
        m.observe(PredictedWaitMs, 9999);
        m.add(PlanCacheInlineHits, 5);
        m.observe(RebindNs, 4_200);
        m.observe(PhaseFront, 2_000_000);
        m.observe(PhaseScoring, 9_000_000);
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 2,
                queue_capacity: 8,
                workers: 4,
                devices: 1,
                fleets: 0,
                draining: false,
                open_connections: 17,
                max_connections: 4096,
            },
            DeviceCacheStats::default(),
            PlanCacheStats {
                hits: 7,
                misses: 2,
                evictions: 1,
                entries: 3,
                approx_bytes: 9001,
            },
            PlanCacheStats {
                hits: 11,
                misses: 2,
                evictions: 0,
                entries: 2,
                approx_bytes: 777,
            },
        );
        assert!(text.contains("sabre_serve_queue_depth 2"));
        assert!(text.contains("sabre_serve_queue_capacity 8"));
        assert!(text.contains("sabre_serve_requests_total{endpoint=\"route\"} 3"));
        assert!(text.contains("sabre_serve_queue_rejections_total 1"));
        assert!(text.contains("sabre_serve_routing_ns_total 4000"));
        assert!(text.contains("sabre_serve_routing_steps_total 20"));
        assert!(text.contains("sabre_serve_avg_route_ns_per_step 200"));
        assert!(text.contains("sabre_serve_last_route_ns_per_step 300"));
        assert!(text.contains("# TYPE sabre_serve_queue_depth gauge"));
        assert!(text.contains("# TYPE sabre_serve_requests_total counter"));
        assert!(text.contains("sabre_serve_open_connections 17"));
        assert!(text.contains("sabre_serve_max_connections 4096"));
        assert!(text.contains("sabre_serve_connections_reaped_total{reason=\"idle\"} 2"));
        assert!(text.contains("sabre_serve_connections_reaped_total{reason=\"read_deadline\"} 0"));
        // queue_full mirrors the legacy counter.
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"queue_full\"} 1"));
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"predicted_slo\"} 4"));
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"rate_limited\"} 0"));
        assert!(text.contains("sabre_serve_admission_rejections_total{kind=\"table_full\"} 0"));
        assert!(text.contains("sabre_serve_plan_cache_hits_total 7"));
        assert!(text.contains("sabre_serve_plan_cache_misses_total 2"));
        assert!(text.contains("sabre_serve_plan_cache_evictions_total 1"));
        assert!(text.contains("sabre_serve_plan_cache_entries 3"));
        assert!(text.contains("sabre_serve_plan_cache_approx_bytes 9001"));
        assert!(text.contains("sabre_serve_plan_cache_inline_hits_total 5"));
        assert!(text.contains("sabre_serve_sharded_plan_cache_hits_total 11"));
        assert!(text.contains("sabre_serve_sharded_plan_cache_entries 2"));
        assert!(text.contains("# TYPE sabre_serve_rebind_ns histogram"));
        assert!(text.contains("sabre_serve_rebind_ns_bucket{le=\"5000\"} 1"));
        assert!(text.contains("sabre_serve_rebind_ns_count 1"));
        assert!(text.contains("# TYPE sabre_serve_route_phase_ns histogram"));
        assert!(
            text.contains("sabre_serve_route_phase_ns_bucket{phase=\"front\",le=\"10000000\"} 1")
        );
        assert!(text.contains("sabre_serve_route_phase_ns_sum{phase=\"front\"} 2000000"));
        assert!(text.contains("sabre_serve_route_phase_ns_count{phase=\"front\"} 1"));
        assert!(
            text.contains("sabre_serve_route_phase_ns_bucket{phase=\"scoring\",le=\"1000000\"} 0")
        );
        assert!(text.contains("sabre_serve_route_phase_ns_count{phase=\"scoring\"} 1"));
        assert!(text.contains("sabre_serve_route_phase_ns_count{phase=\"extended_set\"} 0"));
        assert_eq!(m.avg_ns_per_step(), 200);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.observe(PredictedWaitMs, 0); // le="1"
        m.observe(PredictedWaitMs, 1); // le="1" (bounds are inclusive)
        m.observe(PredictedWaitMs, 30); // le="50"
        m.observe(PredictedWaitMs, 1_000_000); // +Inf overflow
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 0,
                devices: 0,
                fleets: 0,
                draining: false,
                open_connections: 0,
                max_connections: 1,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
            PlanCacheStats::default(),
        );
        assert!(text.contains("# TYPE sabre_serve_admission_predicted_wait_ms histogram"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"1\"} 2"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"5\"} 2"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"50\"} 3"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"5000\"} 3"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_sum 1000031"));
        assert!(text.contains("sabre_serve_admission_predicted_wait_ms_count 4"));
    }

    fn quality(swaps: usize, overhead: usize, lsp: Option<f64>) -> PlanQuality {
        PlanQuality {
            num_swaps: swaps,
            added_gates: 3 * swaps,
            input_two_qubit_gates: 10,
            output_two_qubit_gates: 10 + 3 * swaps,
            input_depth: 8,
            output_depth: 8 + overhead,
            depth_overhead: overhead,
            log_success_probability: lsp,
        }
    }

    #[test]
    fn observe_quality_feeds_histograms_board_and_device_counters() {
        let m = Metrics::default();
        m.observe_quality("tokyo20", &quality(4, 9, Some(-0.5)));
        m.observe_quality("tokyo20", &quality(8, 20, Some(-1.5)));
        m.observe_quality("grid6x6", &quality(0, 0, None));
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 0,
                devices: 2,
                fleets: 0,
                draining: false,
                open_connections: 0,
                max_connections: 1,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
            PlanCacheStats::default(),
        );
        assert!(text.contains("# TYPE sabre_serve_route_swaps histogram"));
        assert!(text.contains("sabre_serve_route_swaps_bucket{le=\"5\"} 2"));
        assert!(text.contains("sabre_serve_route_swaps_count 3"));
        assert!(text.contains("sabre_serve_route_swaps_sum 12"));
        assert!(text.contains("sabre_serve_route_depth_overhead_count 3"));
        // Only the two noise-aware routes observe the fidelity histogram.
        assert!(text.contains("sabre_serve_route_log_success_probability_count 2"));
        assert!(text.contains("sabre_serve_route_log_success_probability_bucket{le=\"500\"} 1"));
        assert!(text.contains("sabre_serve_route_log_success_probability_sum 2000"));
        // Per-device counter families, sorted by id.
        assert!(text.contains("sabre_serve_device_routes_total{device=\"grid6x6\"} 1"));
        assert!(text.contains("sabre_serve_device_routes_total{device=\"tokyo20\"} 2"));
        assert!(text.contains("sabre_serve_device_swaps_total{device=\"tokyo20\"} 12"));
        assert!(
            text.find("device=\"grid6x6\"").unwrap() < text.find("device=\"tokyo20\"").unwrap()
        );
    }

    #[test]
    fn quality_board_json_reports_count_mean_and_quantiles() {
        let m = Metrics::default();
        for _ in 0..19 {
            m.observe_quality("tokyo20", &quality(2, 5, Some(-0.1)));
        }
        m.observe_quality("tokyo20", &quality(100, 200, Some(-9.0)));
        let json = m.quality.to_json();
        let devices = json.get("devices").unwrap().as_array().unwrap();
        assert_eq!(devices.len(), 1);
        let d = &devices[0];
        assert_eq!(d.get("device").unwrap().as_str(), Some("tokyo20"));
        assert_eq!(d.get("count").unwrap().as_u64(), Some(20));
        let swaps = d.get("swaps").unwrap();
        let mean = swaps.get("mean").unwrap().as_f64().unwrap();
        assert!((mean - (19.0 * 2.0 + 100.0) / 20.0).abs() < 1e-9);
        assert_eq!(swaps.get("p50").unwrap().as_u64(), Some(2));
        // The p95 of 20 observations is the 19th: still the common case.
        assert_eq!(swaps.get("p95").unwrap().as_u64(), Some(2));
        assert_eq!(swaps.get("max").unwrap().as_u64(), Some(100));
        let lsp = d.get("log_success_probability").unwrap();
        assert_eq!(lsp.get("count").unwrap().as_u64(), Some(20));
        let p50 = lsp.get("p50").unwrap().as_f64().unwrap();
        assert!((-0.1..0.0).contains(&p50), "{p50}");
        let min = lsp.get("min").unwrap().as_f64().unwrap();
        assert!((min - (-9.0)).abs() < 1e-9);
        // A hop-only device reports null fidelity.
        m.observe_quality("line4", &quality(1, 1, None));
        let json = m.quality.to_json();
        let devices = json.get("devices").unwrap().as_array().unwrap();
        assert!(matches!(
            devices[0].get("log_success_probability"),
            Some(JsonValue::Null)
        ));
    }

    #[test]
    fn label_escaping_and_milli_log_encoding() {
        assert_eq!(escape_label("plain-id"), "plain-id");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(neg_milli_log(-1.0), 1000);
        assert_eq!(neg_milli_log(-0.0004), 0, "rounds to zero");
        assert_eq!(neg_milli_log(0.0), 0);
        assert_eq!(neg_milli_log(f64::NEG_INFINITY), u64::MAX);
    }

    /// Adds a distinct nonzero amount, `101·(i+1)`, to the `i`-th counter
    /// in declaration order.
    fn fill_counters(m: &Metrics) {
        for (i, counter) in m.counters.iter().enumerate() {
            counter.fetch_add(101 * (i as u64 + 1), Relaxed);
        }
    }

    /// Records each listed value in its histogram; the last value of each
    /// overflows into `+Inf`. The quality histograms are fed through
    /// `observe_quality`.
    fn fill_histograms(m: &Metrics) {
        let observations: [(Hist, &[u64]); 5] = [
            (PredictedWaitMs, &[0, 7, 9_999]),
            (RebindNs, &[4_200, 1_000_000_000]),
            (PhaseFront, &[2_000_000, 500_000_000_000]),
            (PhaseExtendedSet, &[50_000, 200_000_000_000]),
            (PhaseScoring, &[9_000_000, 123_456_789_012]),
        ];
        for (histogram, values) in observations {
            for &value in values {
                m.observe(histogram, value);
            }
        }
    }

    /// The full exposition of a fixed state, byte for byte: every counter
    /// nonzero and distinct, every histogram observed with an overflow,
    /// and two devices on the quality board, one whose id needs escaping.
    #[test]
    fn golden_exposition() {
        let m = Metrics::default();
        fill_counters(&m);
        fill_histograms(&m);
        m.record_routing(5_000, 20, 250);
        m.observe_quality("tokyo20", &quality(4, 9, Some(-0.5)));
        m.observe_quality("tokyo20", &quality(3_000, 9_000, Some(-200.0)));
        m.observe_quality("dev\"q\\x\ny", &quality(1, 2, None));
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 2,
                queue_capacity: 8,
                workers: 3,
                devices: 5,
                fleets: 1,
                draining: true,
                open_connections: 17,
                max_connections: 4096,
            },
            DeviceCacheStats {
                graph_hits: 31,
                graph_misses: 32,
                noise_hits: 33,
                noise_misses: 34,
                embedding_hits: 35,
                embedding_misses: 36,
            },
            PlanCacheStats {
                hits: 41,
                misses: 42,
                evictions: 43,
                entries: 44,
                approx_bytes: 45_000,
            },
            PlanCacheStats {
                hits: 51,
                misses: 52,
                evictions: 53,
                entries: 54,
                approx_bytes: 55_000,
            },
        );
        assert_eq!(text, GOLDEN);
    }

    const GOLDEN: &str = r#"# HELP sabre_serve_queue_depth Jobs waiting in the admission queue.
# TYPE sabre_serve_queue_depth gauge
sabre_serve_queue_depth 2
# HELP sabre_serve_queue_capacity Admission queue capacity.
# TYPE sabre_serve_queue_capacity gauge
sabre_serve_queue_capacity 8
# HELP sabre_serve_workers Routing worker threads.
# TYPE sabre_serve_workers gauge
sabre_serve_workers 3
# HELP sabre_serve_devices_registered Devices currently registered.
# TYPE sabre_serve_devices_registered gauge
sabre_serve_devices_registered 5
# HELP sabre_serve_fleets_registered Fleets currently registered.
# TYPE sabre_serve_fleets_registered gauge
sabre_serve_fleets_registered 1
# HELP sabre_serve_draining 1 once shutdown has begun.
# TYPE sabre_serve_draining gauge
sabre_serve_draining 1
# HELP sabre_serve_open_connections Connections currently held in the reactor's table.
# TYPE sabre_serve_open_connections gauge
sabre_serve_open_connections 17
# HELP sabre_serve_max_connections Connection-table capacity.
# TYPE sabre_serve_max_connections gauge
sabre_serve_max_connections 4096
# HELP sabre_serve_requests_total HTTP requests by endpoint.
# TYPE sabre_serve_requests_total counter
sabre_serve_requests_total{endpoint="route"} 101
sabre_serve_requests_total{endpoint="route_sharded"} 202
sabre_serve_requests_total{endpoint="transpile_batch"} 303
sabre_serve_requests_total{endpoint="devices"} 404
sabre_serve_requests_total{endpoint="fleets"} 505
sabre_serve_requests_total{endpoint="noise"} 606
sabre_serve_requests_total{endpoint="healthz"} 707
sabre_serve_requests_total{endpoint="metrics"} 808
# HELP sabre_serve_queue_rejections_total Admissions rejected with 503 (queue full).
# TYPE sabre_serve_queue_rejections_total counter
sabre_serve_queue_rejections_total 909
# HELP sabre_serve_jobs_admitted_total Jobs accepted into the queue.
# TYPE sabre_serve_jobs_admitted_total counter
sabre_serve_jobs_admitted_total 1010
# HELP sabre_serve_jobs_completed_total Jobs that produced a 2xx response.
# TYPE sabre_serve_jobs_completed_total counter
sabre_serve_jobs_completed_total 1111
# HELP sabre_serve_jobs_failed_total Jobs that produced an error response.
# TYPE sabre_serve_jobs_failed_total counter
sabre_serve_jobs_failed_total 1212
# HELP sabre_serve_circuits_routed_total Circuits routed successfully (batch slots counted individually).
# TYPE sabre_serve_circuits_routed_total counter
sabre_serve_circuits_routed_total 1313
# HELP sabre_serve_routing_ns_total Wall nanoseconds spent routing.
# TYPE sabre_serve_routing_ns_total counter
sabre_serve_routing_ns_total 6414
# HELP sabre_serve_routing_steps_total Search steps executed (all traversals of all restarts).
# TYPE sabre_serve_routing_steps_total counter
sabre_serve_routing_steps_total 1535
# HELP sabre_serve_avg_route_ns_per_step Mean ns per search step over the process lifetime.
# TYPE sabre_serve_avg_route_ns_per_step gauge
sabre_serve_avg_route_ns_per_step 4
# HELP sabre_serve_last_route_ns_per_step ns per search step of the most recent /route job.
# TYPE sabre_serve_last_route_ns_per_step gauge
sabre_serve_last_route_ns_per_step 250
# HELP sabre_serve_queue_wait_ns_total Nanoseconds jobs spent waiting in the queue.
# TYPE sabre_serve_queue_wait_ns_total counter
sabre_serve_queue_wait_ns_total 1717
# HELP sabre_serve_connections_reaped_total Connections closed by a deadline or idle timeout.
# TYPE sabre_serve_connections_reaped_total counter
sabre_serve_connections_reaped_total{reason="read_deadline"} 1818
sabre_serve_connections_reaped_total{reason="write_deadline"} 1919
sabre_serve_connections_reaped_total{reason="idle"} 2020
# HELP sabre_serve_admission_rejections_total Requests shed before queueing, by cause.
# TYPE sabre_serve_admission_rejections_total counter
sabre_serve_admission_rejections_total{kind="queue_full"} 909
sabre_serve_admission_rejections_total{kind="rate_limited"} 2121
sabre_serve_admission_rejections_total{kind="predicted_slo"} 2222
sabre_serve_admission_rejections_total{kind="table_full"} 2323
# HELP sabre_serve_admission_predicted_wait_ms Projected queue wait (ms) computed at admission time.
# TYPE sabre_serve_admission_predicted_wait_ms histogram
sabre_serve_admission_predicted_wait_ms_bucket{le="1"} 1
sabre_serve_admission_predicted_wait_ms_bucket{le="5"} 1
sabre_serve_admission_predicted_wait_ms_bucket{le="10"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="25"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="50"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="100"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="250"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="500"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="1000"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="5000"} 2
sabre_serve_admission_predicted_wait_ms_bucket{le="+Inf"} 3
sabre_serve_admission_predicted_wait_ms_sum 10006
sabre_serve_admission_predicted_wait_ms_count 3
# HELP sabre_serve_cache_graph_hits_total DeviceCache router acquisitions served warm.
# TYPE sabre_serve_cache_graph_hits_total counter
sabre_serve_cache_graph_hits_total 31
# HELP sabre_serve_cache_graph_misses_total DeviceCache acquisitions that ran full preprocessing.
# TYPE sabre_serve_cache_graph_misses_total counter
sabre_serve_cache_graph_misses_total 32
# HELP sabre_serve_cache_noise_hits_total Noise-weighted matrices served warm.
# TYPE sabre_serve_cache_noise_hits_total counter
sabre_serve_cache_noise_hits_total 33
# HELP sabre_serve_cache_noise_misses_total Noise-weighted matrices computed.
# TYPE sabre_serve_cache_noise_misses_total counter
sabre_serve_cache_noise_misses_total 34
# HELP sabre_serve_cache_embedding_hits_total Perfect-placement probe verdicts served warm.
# TYPE sabre_serve_cache_embedding_hits_total counter
sabre_serve_cache_embedding_hits_total 35
# HELP sabre_serve_cache_embedding_misses_total Probe verdicts computed by backtracking.
# TYPE sabre_serve_cache_embedding_misses_total counter
sabre_serve_cache_embedding_misses_total 36
# HELP sabre_serve_plan_cache_hits_total Routed-plan lookups served by parameter re-binding.
# TYPE sabre_serve_plan_cache_hits_total counter
sabre_serve_plan_cache_hits_total 41
# HELP sabre_serve_plan_cache_misses_total Routed-plan lookups that fell through to a full route.
# TYPE sabre_serve_plan_cache_misses_total counter
sabre_serve_plan_cache_misses_total 42
# HELP sabre_serve_plan_cache_evictions_total Routed plans evicted by the LRU capacity bound.
# TYPE sabre_serve_plan_cache_evictions_total counter
sabre_serve_plan_cache_evictions_total 43
# HELP sabre_serve_plan_cache_entries Routed plans currently cached.
# TYPE sabre_serve_plan_cache_entries gauge
sabre_serve_plan_cache_entries 44
# HELP sabre_serve_plan_cache_approx_bytes Estimated heap bytes held by cached routed plans.
# TYPE sabre_serve_plan_cache_approx_bytes gauge
sabre_serve_plan_cache_approx_bytes 45000
# HELP sabre_serve_plan_cache_inline_hits_total /route requests answered inline from the plan cache.
# TYPE sabre_serve_plan_cache_inline_hits_total counter
sabre_serve_plan_cache_inline_hits_total 2424
# HELP sabre_serve_sharded_plan_cache_hits_total /route_sharded requests answered inline by re-binding a proven sharded plan.
# TYPE sabre_serve_sharded_plan_cache_hits_total counter
sabre_serve_sharded_plan_cache_hits_total 51
# HELP sabre_serve_sharded_plan_cache_misses_total Sharded-plan lookups that fell through to a full sharded route.
# TYPE sabre_serve_sharded_plan_cache_misses_total counter
sabre_serve_sharded_plan_cache_misses_total 52
# HELP sabre_serve_sharded_plan_cache_evictions_total Sharded plans evicted by the LRU capacity bound.
# TYPE sabre_serve_sharded_plan_cache_evictions_total counter
sabre_serve_sharded_plan_cache_evictions_total 53
# HELP sabre_serve_sharded_plan_cache_entries Sharded plans currently cached.
# TYPE sabre_serve_sharded_plan_cache_entries gauge
sabre_serve_sharded_plan_cache_entries 54
# HELP sabre_serve_rebind_ns Parameter re-bind latency (ns) for plan-cache hits.
# TYPE sabre_serve_rebind_ns histogram
sabre_serve_rebind_ns_bucket{le="1000"} 0
sabre_serve_rebind_ns_bucket{le="5000"} 1
sabre_serve_rebind_ns_bucket{le="10000"} 1
sabre_serve_rebind_ns_bucket{le="50000"} 1
sabre_serve_rebind_ns_bucket{le="100000"} 1
sabre_serve_rebind_ns_bucket{le="500000"} 1
sabre_serve_rebind_ns_bucket{le="1000000"} 1
sabre_serve_rebind_ns_bucket{le="10000000"} 1
sabre_serve_rebind_ns_bucket{le="100000000"} 1
sabre_serve_rebind_ns_bucket{le="+Inf"} 2
sabre_serve_rebind_ns_sum 1000004200
sabre_serve_rebind_ns_count 2
# HELP sabre_serve_route_phase_ns Hot-loop time per routing phase (ns), from profiled /route jobs.
# TYPE sabre_serve_route_phase_ns histogram
sabre_serve_route_phase_ns_bucket{phase="front",le="10000"} 0
sabre_serve_route_phase_ns_bucket{phase="front",le="100000"} 0
sabre_serve_route_phase_ns_bucket{phase="front",le="1000000"} 0
sabre_serve_route_phase_ns_bucket{phase="front",le="10000000"} 1
sabre_serve_route_phase_ns_bucket{phase="front",le="100000000"} 1
sabre_serve_route_phase_ns_bucket{phase="front",le="1000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="front",le="10000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="front",le="100000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="front",le="+Inf"} 2
sabre_serve_route_phase_ns_sum{phase="front"} 500002000000
sabre_serve_route_phase_ns_count{phase="front"} 2
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="10000"} 0
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="100000"} 1
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="1000000"} 1
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="10000000"} 1
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="100000000"} 1
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="1000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="10000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="100000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="extended_set",le="+Inf"} 2
sabre_serve_route_phase_ns_sum{phase="extended_set"} 200000050000
sabre_serve_route_phase_ns_count{phase="extended_set"} 2
sabre_serve_route_phase_ns_bucket{phase="scoring",le="10000"} 0
sabre_serve_route_phase_ns_bucket{phase="scoring",le="100000"} 0
sabre_serve_route_phase_ns_bucket{phase="scoring",le="1000000"} 0
sabre_serve_route_phase_ns_bucket{phase="scoring",le="10000000"} 1
sabre_serve_route_phase_ns_bucket{phase="scoring",le="100000000"} 1
sabre_serve_route_phase_ns_bucket{phase="scoring",le="1000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="scoring",le="10000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="scoring",le="100000000000"} 1
sabre_serve_route_phase_ns_bucket{phase="scoring",le="+Inf"} 2
sabre_serve_route_phase_ns_sum{phase="scoring"} 123465789012
sabre_serve_route_phase_ns_count{phase="scoring"} 2
# HELP sabre_serve_route_swaps SWAPs inserted per routed circuit.
# TYPE sabre_serve_route_swaps histogram
sabre_serve_route_swaps_bucket{le="0"} 0
sabre_serve_route_swaps_bucket{le="1"} 1
sabre_serve_route_swaps_bucket{le="2"} 1
sabre_serve_route_swaps_bucket{le="5"} 2
sabre_serve_route_swaps_bucket{le="10"} 2
sabre_serve_route_swaps_bucket{le="25"} 2
sabre_serve_route_swaps_bucket{le="50"} 2
sabre_serve_route_swaps_bucket{le="100"} 2
sabre_serve_route_swaps_bucket{le="500"} 2
sabre_serve_route_swaps_bucket{le="2000"} 2
sabre_serve_route_swaps_bucket{le="+Inf"} 3
sabre_serve_route_swaps_sum 3005
sabre_serve_route_swaps_count 3
# HELP sabre_serve_route_depth_overhead Depth overhead (added layers) per routed circuit.
# TYPE sabre_serve_route_depth_overhead histogram
sabre_serve_route_depth_overhead_bucket{le="0"} 0
sabre_serve_route_depth_overhead_bucket{le="2"} 1
sabre_serve_route_depth_overhead_bucket{le="5"} 1
sabre_serve_route_depth_overhead_bucket{le="10"} 2
sabre_serve_route_depth_overhead_bucket{le="25"} 2
sabre_serve_route_depth_overhead_bucket{le="50"} 2
sabre_serve_route_depth_overhead_bucket{le="100"} 2
sabre_serve_route_depth_overhead_bucket{le="250"} 2
sabre_serve_route_depth_overhead_bucket{le="1000"} 2
sabre_serve_route_depth_overhead_bucket{le="5000"} 2
sabre_serve_route_depth_overhead_bucket{le="+Inf"} 3
sabre_serve_route_depth_overhead_sum 9011
sabre_serve_route_depth_overhead_count 3
# HELP sabre_serve_route_log_success_probability Negated milli-log success probability per noise-aware routed circuit (1000 = log p of -1).
# TYPE sabre_serve_route_log_success_probability histogram
sabre_serve_route_log_success_probability_bucket{le="1"} 0
sabre_serve_route_log_success_probability_bucket{le="10"} 0
sabre_serve_route_log_success_probability_bucket{le="50"} 0
sabre_serve_route_log_success_probability_bucket{le="100"} 0
sabre_serve_route_log_success_probability_bucket{le="500"} 1
sabre_serve_route_log_success_probability_bucket{le="1000"} 1
sabre_serve_route_log_success_probability_bucket{le="5000"} 1
sabre_serve_route_log_success_probability_bucket{le="10000"} 1
sabre_serve_route_log_success_probability_bucket{le="50000"} 1
sabre_serve_route_log_success_probability_bucket{le="100000"} 1
sabre_serve_route_log_success_probability_bucket{le="+Inf"} 2
sabre_serve_route_log_success_probability_sum 200500
sabre_serve_route_log_success_probability_count 2
# HELP sabre_serve_device_routes_total Circuits routed per device id.
# TYPE sabre_serve_device_routes_total counter
sabre_serve_device_routes_total{device="dev\"q\\x\ny"} 1
sabre_serve_device_routes_total{device="tokyo20"} 2
# HELP sabre_serve_device_swaps_total SWAPs inserted per device id.
# TYPE sabre_serve_device_swaps_total counter
sabre_serve_device_swaps_total{device="dev\"q\\x\ny"} 1
sabre_serve_device_swaps_total{device="tokyo20"} 3004
"#;

    #[test]
    fn every_slot_is_exported_and_every_family_declared_once() {
        let sources: Vec<Source> = FAMILIES
            .iter()
            .flat_map(Family::series)
            .map(|(_, source)| source)
            .collect();
        for slot in 0..COUNTERS {
            assert!(
                sources
                    .iter()
                    .any(|s| matches!(s, Count(c) if *c as usize == slot)),
                "counter slot {slot} is not exported"
            );
        }
        // A histogram slot takes its bounds from the one family that
        // renders it.
        for slot in 0..HISTOGRAMS {
            let renders = sources
                .iter()
                .filter(|s| matches!(s, Observed(h) if *h as usize == slot))
                .count();
            assert_eq!(renders, 1, "histogram slot {slot}");
        }
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len(), "a family name repeats");
    }

    #[test]
    fn quality_board_survives_a_poisoned_lock() {
        let m = Metrics::default();
        m.observe_quality("tokyo20", &quality(4, 9, Some(-0.5)));
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = m.quality.devices.lock().unwrap();
                    panic!("a panic while holding the quality board lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(m.quality.devices.is_poisoned());

        m.observe_quality("tokyo20", &quality(8, 20, None));
        let json = m.quality.to_json();
        let devices = json.get("devices").unwrap().as_array().unwrap();
        assert_eq!(devices[0].get("count").unwrap().as_u64(), Some(2));
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 0,
                devices: 1,
                fleets: 0,
                draining: false,
                open_connections: 0,
                max_connections: 1,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
            PlanCacheStats::default(),
        );
        assert!(text.contains("sabre_serve_device_routes_total{device=\"tokyo20\"} 2"));
        assert!(text.contains("sabre_serve_device_swaps_total{device=\"tokyo20\"} 12"));
    }

    #[test]
    fn zero_steps_renders_zero_average() {
        let m = Metrics::default();
        let text = m.render(
            GaugeSnapshot {
                queue_depth: 0,
                queue_capacity: 1,
                workers: 0,
                devices: 0,
                fleets: 0,
                draining: true,
                open_connections: 0,
                max_connections: 16,
            },
            DeviceCacheStats::default(),
            PlanCacheStats::default(),
            PlanCacheStats::default(),
        );
        assert!(text.contains("sabre_serve_avg_route_ns_per_step 0"));
        assert!(text.contains("sabre_serve_draining 1"));
    }
}
