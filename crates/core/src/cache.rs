//! Device cache: preprocessed router state keyed by content fingerprints.
//!
//! [`SabreRouter::new`] pays the paper's §IV-A preprocessing — a
//! connectivity check plus the hop-count cost matrix (`N` Dijkstra sweeps
//! on a dense device, the sparse row engine's setup on a kilo-qubit one)
//! — on every call, and the perfect-placement probe re-burns its
//! backtracking budget on every `route()` of a circuit it has already
//! judged. Both costs are per-*device* (respectively
//! per-*interaction-graph*), not per-call; [`DeviceCache`] pays them once:
//!
//! - [`DeviceCache::router`] and [`DeviceCache::router_with_noise`]: a
//!   warm hit skips the preprocessing and shares the cached matrices via
//!   `Arc`.
//! - [`DeviceCache::refresh_noise`]: a new calibration recomputes only
//!   the noise-weighted matrix.
//! - [`EmbeddingVerdictCache`]: the probe's outcome per `(device,
//!   interaction graph, budget)`, so a repeated question does zero
//!   backtracking. The probe still runs *after* the restart search (see
//!   `assemble` in `sabre.rs`), so first-traversal telemetry is unchanged.
//!
//! Cached routing is **bit-identical** to uncached routing for a fixed
//! seed: the cache only reuses values the cold path would recompute
//! deterministically. Keys are 64-bit content fingerprints, and every hit
//! also verifies structural equality (`O(E)`), so a hash collision is
//! bypassed, never aliased.
//!
//! Every layer is one [`BoundedLru`], the workspace's single cache
//! discipline, with a finite bound: [`DEVICE_CACHE_CAPACITY`] devices,
//! [`NOISE_CACHE_CAPACITY`] `(device, calibration)` matrices,
//! [`VERDICT_CACHE_CAPACITY`] probe verdicts and the [`PlanCache`]'s own
//! capacity. Each computes misses outside its lock and keeps hit/miss
//! counters that survive eviction. All methods take `&self`; share one
//! cache across the rayon pool (or a whole service) with
//! `Arc<DeviceCache>`.
//!
//! # Example
//!
//! ```
//! use sabre::{DeviceCache, SabreConfig};
//! use sabre_benchgen::qft;
//! use sabre_topology::devices;
//!
//! let cache = DeviceCache::new();
//! let tokyo = devices::ibm_q20_tokyo();
//!
//! // Cold: runs the O(N³) preprocessing and caches it.
//! let router = cache.router(tokyo.graph(), SabreConfig::paper())?;
//! let first = router.route(&qft::qft(5))?;
//!
//! // Warm: no preprocessing, just Arc clones of the cached matrices.
//! let router = cache.router(tokyo.graph(), SabreConfig::paper())?;
//! let second = router.route(&qft::qft(5))?;
//! assert_eq!(first.best, second.best);
//! assert_eq!(cache.stats().graph_hits, 1);
//! # Ok::<(), sabre::RouteError>(())
//! ```

use std::convert::Infallible;
use std::sync::Arc;

use sabre_circuit::interaction::InteractionGraph;
use sabre_topology::embedding::{self, Embedding};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{
    BoundedLru, CouplingGraph, WeightedDistanceMatrix, DEVICE_CACHE_CAPACITY, NOISE_CACHE_CAPACITY,
    VERDICT_CACHE_CAPACITY,
};

use crate::plan::PlanCache;
use crate::sabre::noise_cost_matrix;
use crate::{RouteError, SabreConfig, SabreRouter};

/// Preprocessed state of one device, built once per coupling-graph
/// fingerprint: everything [`SabreRouter::new`] computes.
#[derive(Debug)]
struct GraphEntry {
    fingerprint: u64,
    graph: Arc<CouplingGraph>,
    hops: Arc<WeightedDistanceMatrix>,
}

impl GraphEntry {
    /// The cold path. Delegates to [`SabreRouter::new`] so the cache can
    /// never drift from the uncached preprocessing — whatever `new`
    /// computes is, by construction, what a miss caches.
    fn build(graph: &CouplingGraph, fingerprint: u64) -> Result<Self, RouteError> {
        let (graph, hops) = SabreRouter::new(graph.clone(), SabreConfig::default())?.into_parts();
        Ok(GraphEntry {
            fingerprint,
            graph,
            hops,
        })
    }
}

/// A noise-weighted matrix plus the exact `(device, calibration)` it was
/// computed for, so hits can verify they are not serving a fingerprint
/// collision.
#[derive(Debug)]
struct WeightedEntry {
    graph: Arc<CouplingGraph>,
    noise: NoiseModel,
    cost: Arc<WeightedDistanceMatrix>,
}

impl WeightedEntry {
    fn build(device: &GraphEntry, noise: &NoiseModel) -> Result<Self, Infallible> {
        Ok(WeightedEntry {
            graph: device.graph.clone(),
            noise: noise.clone(),
            cost: Arc::new(noise_cost_matrix(&device.graph, noise)),
        })
    }

    fn answers(&self, device: &GraphEntry, noise: &NoiseModel) -> bool {
        (Arc::ptr_eq(&self.graph, &device.graph) || *self.graph == *device.graph)
            && self.noise == *noise
    }
}

/// Counter snapshot from [`DeviceCache::stats`]. Hits are cheap (`Arc`
/// clones); misses paid the full preprocessing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCacheStats {
    /// Router acquisitions served from a cached graph entry.
    pub graph_hits: u64,
    /// Acquisitions that had to run connectivity + distance preprocessing.
    pub graph_misses: u64,
    /// Noise-weighted matrix lookups served from cache.
    pub noise_hits: u64,
    /// Noise-weighted matrices computed (including refreshes).
    pub noise_misses: u64,
    /// Perfect-placement probe verdicts served from cache.
    pub embedding_hits: u64,
    /// Probe verdicts computed by backtracking search.
    pub embedding_misses: u64,
}

/// Thread-safe cache of fully preprocessed [`SabreRouter`] state, keyed
/// by device fingerprints. See the [module docs](self) for the design and
/// a usage example; `examples/device_cache.rs`-style service loops simply
/// hold one of these for the life of the process.
#[derive(Debug)]
pub struct DeviceCache {
    /// Preprocessed devices by [`CouplingGraph::fingerprint`].
    entries: BoundedLru<u64, GraphEntry>,
    /// Noise-weighted matrices by `(graph, noise)` fingerprints.
    weighted: BoundedLru<(u64, u64), WeightedEntry>,
    verdicts: Arc<EmbeddingVerdictCache>,
    plans: PlanCache,
}

impl Default for DeviceCache {
    fn default() -> Self {
        DeviceCache::with_plan_capacity(PlanCache::DEFAULT_CAPACITY)
    }
}

impl DeviceCache {
    /// An empty cache with the default routed-plan capacity
    /// ([`PlanCache::DEFAULT_CAPACITY`]).
    pub fn new() -> Self {
        DeviceCache::default()
    }

    /// An empty cache whose routed-plan layer holds at most `capacity`
    /// plans (`0` disables plan caching entirely — e.g. for workloads
    /// that need strict per-seed output reproducibility).
    pub fn with_plan_capacity(capacity: usize) -> Self {
        DeviceCache {
            entries: BoundedLru::new(DEVICE_CACHE_CAPACITY),
            weighted: BoundedLru::new(NOISE_CACHE_CAPACITY),
            verdicts: Arc::default(),
            plans: PlanCache::with_capacity(capacity),
        }
    }
    /// The routed-plan cache layer (see [`PlanCache`]): consult it before
    /// routing a circuit whose structure may have been routed before, and
    /// feed it finished routes so re-parameterized submissions rebind.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// A router for `graph` with the hop-count heuristic, reusing cached
    /// preprocessing when this device (by content, not identity) has been
    /// seen before. Behaves exactly like [`SabreRouter::new`] — including
    /// its errors — but a warm acquisition is `O(E)` (fingerprint +
    /// structural verification) instead of `O(N³)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SabreRouter::new`].
    pub fn router(
        &self,
        graph: &CouplingGraph,
        config: SabreConfig,
    ) -> Result<SabreRouter, RouteError> {
        config
            .validate()
            .map_err(|reason| RouteError::InvalidConfig { reason })?;
        let entry = self.entry(graph)?;
        Ok(SabreRouter::from_parts(
            entry.graph.clone(),
            entry.hops.clone(),
            config,
            Some(self.verdicts.clone()),
        ))
    }

    /// A **noise-aware** router ([`SabreRouter::with_noise`] semantics):
    /// the weighted distance matrix is cached per
    /// `(graph, noise)` fingerprint pair, so re-acquiring a router for an
    /// unchanged calibration is free and a changed calibration recomputes
    /// only the weighted closure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SabreRouter::new`].
    pub fn router_with_noise(
        &self,
        graph: &CouplingGraph,
        config: SabreConfig,
        noise: &NoiseModel,
    ) -> Result<SabreRouter, RouteError> {
        config
            .validate()
            .map_err(|reason| RouteError::InvalidConfig { reason })?;
        let entry = self.entry(graph)?;
        let cost = self.weighted_matrix(&entry, noise);
        Ok(SabreRouter::from_parts(
            entry.graph.clone(),
            cost,
            config,
            Some(self.verdicts.clone()),
        ))
    }

    /// Ingests a fresh calibration for `graph`: recomputes **only** the
    /// noise-weighted matrix, reusing the cached connectivity verdict,
    /// hop matrix, and embedding verdicts.
    /// Matrices for superseded calibrations are dropped so a long-running
    /// service's memory tracks the number of hot devices, not the number
    /// of calibration epochs.
    ///
    /// Subsequent [`DeviceCache::router_with_noise`] calls with this
    /// `noise` hit the warm path.
    ///
    /// # Errors
    ///
    /// [`RouteError::DisconnectedDevice`] if `graph` is disconnected (when
    /// the device was never cached, refresh builds its entry first).
    pub fn refresh_noise(
        &self,
        graph: &CouplingGraph,
        noise: &NoiseModel,
    ) -> Result<(), RouteError> {
        let entry = self.entry(graph)?;
        let fresh = WeightedEntry::build(&entry, noise);
        // Drop the device's superseded calibrations. The retain bumps the
        // LRU's epoch, which is the guard against a stale re-insert: an
        // acquisition that started computing before it will not cache
        // its (possibly superseded) matrix after it.
        self.weighted
            .retain(|&(device, _), _| device != entry.fingerprint);
        let key = (entry.fingerprint, noise.fingerprint());
        let Ok(_) = self
            .weighted
            .get_or_insert_with(key, |w| w.answers(&entry, noise), || fresh);
        Ok(())
    }

    /// Number of distinct devices currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no device has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached device, noise-weighted matrix, embedding
    /// verdict, and routed plan. Counters are not reset.
    pub fn clear(&self) {
        self.entries.clear();
        self.weighted.clear();
        self.verdicts.clear();
        self.plans.clear();
    }

    /// A snapshot of the hit/miss counters (embedding counters come from
    /// the shared verdict store).
    pub fn stats(&self) -> DeviceCacheStats {
        let (graph, noise) = (self.entries.stats(), self.weighted.stats());
        DeviceCacheStats {
            graph_hits: graph.hits,
            graph_misses: graph.misses,
            noise_hits: noise.hits,
            noise_misses: noise.misses,
            embedding_hits: self.verdicts.hits(),
            embedding_misses: self.verdicts.misses(),
        }
    }

    /// The graph entry for `graph`, built on first sight. Preprocessing
    /// runs outside the cache's lock, so concurrent misses on different
    /// devices do not serialize; if two threads race on the same device,
    /// the first insert wins (both are structurally identical, so results
    /// cannot differ).
    fn entry(&self, graph: &CouplingGraph) -> Result<Arc<GraphEntry>, RouteError> {
        let key = graph.fingerprint();
        self.entries.get_or_insert_with(
            key,
            |entry| *entry.graph == *graph,
            || GraphEntry::build(graph, key),
        )
    }

    /// The weighted matrix for `(entry, noise)`, computed on first sight.
    fn weighted_matrix(
        &self,
        entry: &GraphEntry,
        noise: &NoiseModel,
    ) -> Arc<WeightedDistanceMatrix> {
        let key = (entry.fingerprint, noise.fingerprint());
        let Ok(weighted) = self.weighted.get_or_insert_with(
            key,
            |w| w.answers(entry, noise),
            || WeightedEntry::build(entry, noise),
        );
        weighted.cost.clone()
    }
}

/// Shared store of perfect-placement probe outcomes, keyed by
/// `(device fingerprint, interaction-graph fingerprint, budget)` and
/// bounded at [`VERDICT_CACHE_CAPACITY`] verdicts.
///
/// The budget is part of the key because a verdict is only guaranteed to
/// reproduce the uncached probe bit-for-bit at the *same* budget: a
/// `Found` obtained with a large budget might be unreachable under a
/// smaller one, and an exhaustion verdict says nothing about larger
/// budgets. Keying by device fingerprint makes one store safely shareable
/// across every device in a [`DeviceCache`], and — like the other cache
/// layers — every hit re-verifies the stored pattern and host
/// structurally, so a fingerprint collision degrades to a cache bypass,
/// never a wrong verdict.
///
/// Attach to a standalone router with
/// [`SabreRouter::with_embedding_cache`]:
///
/// ```
/// use std::sync::Arc;
/// use sabre::{cache::EmbeddingVerdictCache, SabreConfig, SabreRouter};
/// use sabre_circuit::{Circuit, Qubit};
/// use sabre_topology::devices;
///
/// let tokyo = devices::ibm_q20_tokyo();
/// let verdicts = Arc::new(EmbeddingVerdictCache::new());
/// let router = SabreRouter::new(tokyo.graph().clone(), SabreConfig::paper())?
///     .with_embedding_cache(verdicts.clone());
///
/// // K5 cannot embed into Tokyo: the first route pays the full
/// // backtracking search, the second reuses the Impossible verdict.
/// let mut k5 = Circuit::new(5);
/// for a in 0..5u32 {
///     for b in (a + 1)..5 {
///         k5.cx(Qubit(a), Qubit(b));
///     }
/// }
/// let first = router.route(&k5)?;
/// assert_eq!(verdicts.misses(), 1);
/// let second = router.route(&k5)?;
/// assert_eq!((verdicts.hits(), verdicts.misses()), (1, 1));
/// assert_eq!(first.best, second.best);
/// # Ok::<(), sabre::RouteError>(())
/// ```
#[derive(Debug)]
pub struct EmbeddingVerdictCache {
    verdicts: BoundedLru<(u64, u64, usize), VerdictEntry>,
}

impl Default for EmbeddingVerdictCache {
    fn default() -> Self {
        EmbeddingVerdictCache {
            verdicts: BoundedLru::new(VERDICT_CACHE_CAPACITY),
        }
    }
}

/// A stored verdict (`None` = the budget ran out) plus the exact question
/// it answers, so hits can verify they are not serving a fingerprint
/// collision. The host is an `Arc` share of the router's own graph —
/// thousands of verdicts against one device reference a single graph
/// allocation.
#[derive(Debug)]
struct VerdictEntry {
    pattern: InteractionGraph,
    host: Arc<CouplingGraph>,
    verdict: Option<Embedding>,
}

impl EmbeddingVerdictCache {
    /// An empty store.
    pub fn new() -> Self {
        EmbeddingVerdictCache::default()
    }

    /// Drop-in replacement for
    /// [`embedding::find_embedding_within`] that consults the store
    /// first. A hit performs **zero** backtracking steps; a miss runs the
    /// search and records its outcome (including budget exhaustion, which
    /// is just as deterministic and just as expensive to rediscover).
    /// `host` is taken as an `Arc` so stored verdicts share one graph
    /// allocation per device.
    pub fn find_embedding(
        &self,
        pattern: &InteractionGraph,
        host: &Arc<CouplingGraph>,
        budget: usize,
    ) -> Option<Embedding> {
        let key = (host.fingerprint(), pattern.fingerprint(), budget);
        let Ok(entry) = self.verdicts.get_or_insert_with(
            key,
            |entry| entry.pattern == *pattern && entry.host == *host,
            || {
                Ok::<_, Infallible>(VerdictEntry {
                    pattern: pattern.clone(),
                    host: host.clone(),
                    verdict: embedding::find_embedding_within(pattern, host, budget),
                })
            },
        );
        entry.verdict.clone()
    }

    /// Verdicts served from the store.
    pub fn hits(&self) -> u64 {
        self.verdicts.stats().hits
    }

    /// Verdicts computed by backtracking search.
    pub fn misses(&self) -> u64 {
        self.verdicts.stats().misses
    }

    /// Number of stored verdicts (at most [`VERDICT_CACHE_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored verdict. Counters are not reset.
    pub fn clear(&self) {
        self.verdicts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::{Circuit, Qubit};
    use sabre_topology::devices;

    fn chain(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.cx(Qubit(i), Qubit(i + 1));
        }
        c
    }

    #[test]
    fn warm_acquisition_hits_and_routes_identically() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let config = SabreConfig::paper();
        let cold = cache.router(device.graph(), config).unwrap();
        let warm = cache.router(device.graph(), config).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.graph_hits, stats.graph_misses), (1, 1));
        assert_eq!(cache.len(), 1);

        let c = chain(10);
        let uncached = SabreRouter::new(device.graph().clone(), config).unwrap();
        let reference = uncached.route(&c).unwrap();
        for router in [&cold, &warm] {
            let result = router.route(&c).unwrap();
            assert_eq!(result.best, reference.best);
            assert_eq!(result.traversals, reference.traversals);
        }
    }

    #[test]
    fn structurally_equal_graphs_share_an_entry() {
        let cache = DeviceCache::new();
        let a = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        // Same device, scrambled construction order with duplicates.
        let b = CouplingGraph::from_edges(4, [(3, 2), (1, 0), (2, 1), (0, 1)]).unwrap();
        cache.router(&a, SabreConfig::fast()).unwrap();
        cache.router(&b, SabreConfig::fast()).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().graph_hits, 1);
    }

    #[test]
    fn different_graphs_get_different_entries() {
        let cache = DeviceCache::new();
        cache
            .router(devices::linear(5).graph(), SabreConfig::fast())
            .unwrap();
        cache
            .router(devices::ring(5).graph(), SabreConfig::fast())
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().graph_hits, 0);
    }

    #[test]
    fn invalid_inputs_error_like_the_uncached_path() {
        let cache = DeviceCache::new();
        let disconnected = CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            cache
                .router(&disconnected, SabreConfig::fast())
                .unwrap_err(),
            RouteError::DisconnectedDevice
        );
        assert!(cache.is_empty(), "failures must not be cached");

        let bad_config = SabreConfig {
            num_traversals: 2,
            ..SabreConfig::default()
        };
        assert!(matches!(
            cache.router(devices::linear(3).graph(), bad_config),
            Err(RouteError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn noise_matrices_cache_per_fingerprint() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let noise_a = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 1);
        let noise_b = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 2);
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &noise_a)
            .unwrap();
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &noise_a)
            .unwrap();
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &noise_b)
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.noise_hits, stats.noise_misses), (1, 2));
        // One underlying device entry serves all noise variants.
        assert_eq!((stats.graph_hits, stats.graph_misses), (2, 1));
    }

    #[test]
    fn cached_noise_routing_matches_uncached() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let noise = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 3);
        let config = SabreConfig::fast();
        let c = chain(8);
        let reference = SabreRouter::with_noise(device.graph().clone(), config, &noise)
            .unwrap()
            .route(&c)
            .unwrap();
        for _ in 0..2 {
            let result = cache
                .router_with_noise(device.graph(), config, &noise)
                .unwrap()
                .route(&c)
                .unwrap();
            assert_eq!(result.best, reference.best);
        }
    }

    #[test]
    fn refresh_noise_replaces_stale_calibrations() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let old = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 1);
        let new = NoiseModel::calibrated(device.graph(), 0.02, 4.0, 2);
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &old)
            .unwrap();
        cache.refresh_noise(device.graph(), &new).unwrap();
        // The refreshed calibration is warm...
        cache
            .router_with_noise(device.graph(), SabreConfig::fast(), &new)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.noise_hits, 1);
        // ...and the graph preprocessing ran exactly once overall.
        assert_eq!(stats.graph_misses, 1);
    }

    #[test]
    fn verdict_store_stays_bounded_and_answers_like_the_uncached_probe() {
        let host = Arc::new(devices::ibm_q20_tokyo().graph().clone());
        let budget = 500;
        // Pattern i couples (q, q + 1) for every bit q set in i + 1: a
        // distinct edge set, so a distinct question, for every i < 8191.
        let pattern = |i: usize| {
            let mut c = Circuit::new(14);
            for q in (0..13u32).filter(|q| (i + 1) >> q & 1 == 1) {
                c.cx(Qubit(q), Qubit(q + 1));
            }
            InteractionGraph::of(&c)
        };
        let uncached = |p: &InteractionGraph| embedding::find_embedding_within(p, &host, budget);
        let verdicts = EmbeddingVerdictCache::new();
        let total = VERDICT_CACHE_CAPACITY + 100;
        for i in 0..total {
            let p = pattern(i);
            assert_eq!(verdicts.find_embedding(&p, &host, budget), uncached(&p));
            assert!(verdicts.len() <= VERDICT_CACHE_CAPACITY);
        }
        assert_eq!(verdicts.len(), VERDICT_CACHE_CAPACITY);
        assert_eq!((verdicts.hits(), verdicts.misses()), (0, total as u64));
        // The oldest verdict was evicted and is recomputed identically;
        // the newest is still served from the store.
        let (oldest, newest) = (pattern(0), pattern(total - 1));
        assert_eq!(
            verdicts.find_embedding(&oldest, &host, budget),
            uncached(&oldest)
        );
        assert_eq!(
            verdicts.find_embedding(&newest, &host, budget),
            uncached(&newest)
        );
        assert_eq!((verdicts.hits(), verdicts.misses()), (1, total as u64 + 1));
    }

    #[test]
    fn clear_empties_devices_and_verdicts() {
        let cache = DeviceCache::new();
        let device = devices::ibm_q20_tokyo();
        let router = cache.router(device.graph(), SabreConfig::paper()).unwrap();
        router.route(&chain(6)).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.verdicts.is_empty());
    }
}
