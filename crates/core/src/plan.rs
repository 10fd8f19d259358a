//! Routed-plan cache: route a circuit *structure* once, serve every
//! re-parameterization by stamping new angles into the cached plan.
//!
//! Variational workloads (VQE/QAOA parameter sweeps) submit the same
//! ansatz thousands of times with different rotation angles. SABRE's
//! search never looks at gate parameters — candidate scores depend only
//! on qubit operands and distances, and every RNG draw depends only on
//! candidate-set sizes — so two circuits with the same *structure* (gate
//! kinds, operands, dependency DAG) route to physically identical
//! circuits that differ only in the angles carried by the gates. A
//! [`PlanCache`] exploits that: the first submission pays the full search
//! and stores the routed skeleton plus a gate-index mapping; every later
//! submission with the same structure is answered by [`RoutedPlan::rebind`]
//! — zero search steps, output bit-identical to a fresh route of the same
//! structure under the plan's configuration.
//!
//! # Key and collision discipline
//!
//! Plans are keyed by a single fingerprint folding together
//!
//! - [`Circuit::structural_digest`] (angles excluded; a strided gate
//!   sample, so keying a deep circuit costs `O(1)` in its length),
//! - [`CouplingGraph::fingerprint`] and, when present,
//!   [`NoiseModel::fingerprint`],
//! - the **objective-defining** [`SabreConfig`] fields.
//!
//! The cache follows the same discipline as
//! [`DeviceCache`](crate::DeviceCache): a 64-bit fingerprint match is
//! never trusted on its own — every hit re-verifies the stored structure,
//! graph, noise model, and config field-by-field, and a mismatch degrades
//! to a cache bypass (counted as a miss), never to aliasing.
//!
//! # Which config fields participate, and why
//!
//! A cached plan is a *concrete routing*; the key must include exactly
//! the fields that change what a routing is worth, and must exclude the
//! fields that only change how hard the router searches for one:
//!
//! | field | in key? | rationale |
//! |---|---|---|
//! | `heuristic` | yes | defines the objective being optimized |
//! | `extended_set_size` | yes | changes the look-ahead objective |
//! | `extended_set_weight` | yes | changes the look-ahead objective |
//! | `decay_delta` | yes | changes the gate-count/depth trade-off |
//! | `decay_reset_interval` | yes | changes the decay objective |
//! | `livelock_slack` | yes | changes when forced routing fires |
//! | `seed` | **no** | search-effort knob: any seed's plan is a valid routing of the structure |
//! | `num_restarts` | **no** | ditto — more restarts, same objective |
//! | `num_traversals` | **no** | ditto |
//! | `embedding_probe_budget` | **no** | ditto — probe only affects which plan wins, not its validity |
//! | `profile` | **no** | observability-only: routed output is bit-identical either way |
//!
//! Excluding the effort knobs means a parameter sweep that varies `seed`
//! per submission (a common client habit) still enjoys a 100% hit rate
//! after the first route. Callers that *need* per-seed outputs (e.g. a
//! reproducibility harness) disable the cache (capacity 0).
//!
//! # Memory discipline
//!
//! The cache is a [`BoundedLru`], the workspace's one cache discipline:
//! inserting beyond `capacity` evicts the least-recently-used plan in
//! `O(1)`. Plans are handed out behind `Arc`, so an eviction never
//! invalidates a plan another thread is concurrently rebinding — the
//! allocation is freed when the last user drops it. A lookup holds the
//! LRU's lock only to find and touch the entry; hit verification runs
//! after it is released. [`PlanCacheStats::approx_bytes`] estimates
//! resident plan bytes for the `/metrics` gauge.
//!
//! # Example
//!
//! ```
//! use sabre::{PlanCache, SabreConfig, SabreRouter};
//! use sabre_circuit::{Circuit, Qubit};
//! use sabre_topology::devices;
//!
//! let tokyo = devices::ibm_q20_tokyo();
//! let config = SabreConfig::fast();
//! let router = SabreRouter::new(tokyo.graph().clone(), config)?;
//!
//! let ansatz = |theta: f64| {
//!     let mut c = Circuit::new(6);
//!     for i in 0..5u32 {
//!         c.rz(Qubit(i), theta);
//!         c.cx(Qubit(i), Qubit(i + 1));
//!     }
//!     c
//! };
//!
//! let cache = PlanCache::with_capacity(64);
//! // First submission: full search, then the plan is cached.
//! let first = router.route(&ansatz(0.1))?;
//! cache.insert(&ansatz(0.1), tokyo.graph(), None, &config, &first);
//!
//! // Re-parameterized submission: zero search steps.
//! let hit = cache
//!     .lookup(&ansatz(2.7), tokyo.graph(), None, &config)
//!     .expect("same structure must hit");
//! assert_eq!(hit.total_search_steps(), 0);
//! assert_eq!(hit.best, router.route(&ansatz(2.7))?.best);
//! # Ok::<(), sabre::RouteError>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use sabre_circuit::fingerprint::Fingerprinter;
use sabre_circuit::{Circuit, DependencyDag, ExecutionFrontier, Gate};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{BoundedLru, CouplingGraph};

use crate::quality::PlanQuality;
use crate::{RoutedCircuit, SabreConfig, SabreResult, TraversalReport};

/// A routed plan for one circuit structure: everything needed to answer a
/// re-parameterized submission without searching, plus everything needed
/// to verify on a hit that the fingerprint key really matches.
#[derive(Debug)]
pub struct RoutedPlan {
    /// The circuit the plan was routed from (first submission); hits
    /// verify structural equality against it, and its parameter layout
    /// defines the [`RoutedPlan::bind_map`] domain.
    structure: Circuit,
    /// The device the plan targets, for hit verification.
    graph: Arc<CouplingGraph>,
    /// Calibration the plan was routed under (`None` = hop distances).
    noise: Option<NoiseModel>,
    /// The config the plan was routed under. Only the objective fields
    /// are keyed, but the full config is kept so `routed_config` can
    /// report the provenance.
    config: SabreConfig,
    /// The full first-route result; `rebind` clones its `best` skeleton.
    result: SabreResult,
    /// `bind_map[i]` = position in `result.best.physical` of original
    /// gate `i`. Inserted SWAPs occupy the remaining positions.
    bind_map: Vec<u32>,
    /// `(original gate index, routed position)` for every structure gate
    /// that carries parameters — the only gates a rebind must restamp.
    /// Precomputed at insert so the rebind hot loop skips the
    /// parameter-free majority (CX ladders) instead of testing each gate.
    param_slots: Vec<(u32, u32)>,
    /// Quality report of the routed skeleton, computed once at insert.
    /// Rebinding only restamps parameters — structure, SWAPs, depth, and
    /// the fidelity estimate are all invariant — so every hit serves this
    /// copy with zero recompute.
    quality: PlanQuality,
}

impl RoutedPlan {
    /// Builds a plan from a finished route, recovering the original-gate →
    /// routed-position mapping by deterministic replay. Returns `None` if
    /// the replay cannot account for every physical gate (e.g. the result
    /// was not produced from `structure`), in which case nothing is cached.
    fn from_route(
        structure: Circuit,
        graph: Arc<CouplingGraph>,
        noise: Option<NoiseModel>,
        config: SabreConfig,
        result: SabreResult,
    ) -> Option<Self> {
        let bind_map = build_bind_map(&structure, &result.best)?;
        let quality = PlanQuality::of_routed(&structure, &result.best, noise.as_ref());
        let param_slots = structure
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, gate)| !gate.params().is_empty())
            .map(|(idx, _)| (idx as u32, bind_map[idx]))
            .collect();
        Some(RoutedPlan {
            structure,
            graph,
            noise,
            config,
            result,
            bind_map,
            param_slots,
            quality,
        })
    }

    /// The config the plan was routed under (provenance for responses).
    pub fn routed_config(&self) -> &SabreConfig {
        &self.config
    }

    /// The quality report computed when the plan was first cached.
    /// Parameters don't change structure, so this is byte-identical to
    /// recomputing quality on any rebind of the plan.
    pub fn quality(&self) -> PlanQuality {
        self.quality
    }

    /// Stamps `circuit`'s parameters (and name) into the cached skeleton:
    /// a complete [`SabreResult`] with **zero search steps** whose `best`
    /// is bit-identical to freshly routing `circuit` under the plan's
    /// configuration. `elapsed` reports the rebind wall time;
    /// `traversals` is empty, so
    /// [`SabreResult::total_search_steps`] returns 0 — the
    /// assertion hook for "this submission did no search".
    pub fn rebind(&self, circuit: &Circuit) -> SabreResult {
        let start = Instant::now();
        let mut physical = self.result.best.physical.clone();
        physical.set_name(circuit.name());
        let gates = circuit.gates();
        for &(idx, pos) in &self.param_slots {
            physical.replace_params(pos as usize, *gates[idx as usize].params());
        }
        SabreResult {
            best: RoutedCircuit {
                physical,
                initial_layout: self.result.best.initial_layout.clone(),
                final_layout: self.result.best.final_layout.clone(),
                num_swaps: self.result.best.num_swaps,
                search_steps: self.result.best.search_steps,
                forced_routings: self.result.best.forced_routings,
            },
            best_restart: self.result.best_restart,
            perfect_placement: self.result.perfect_placement,
            traversals: Vec::new(),
            first_traversal_added_gates: self.result.first_traversal_added_gates,
            elapsed: start.elapsed(),
            profile: None,
        }
    }

    /// Estimated resident bytes of this plan (gate storage, bind map,
    /// layouts, traversal telemetry, and the graph/noise copies it pins).
    fn approx_bytes(&self) -> usize {
        let gate = std::mem::size_of::<Gate>();
        let layouts = 4 * self.result.best.initial_layout.len() * std::mem::size_of::<u32>();
        std::mem::size_of::<RoutedPlan>()
            + self.structure.num_gates() * gate
            + self.result.best.physical.num_gates() * gate
            + self.bind_map.len() * std::mem::size_of::<u32>()
            + self.param_slots.len() * std::mem::size_of::<(u32, u32)>()
            + layouts
            + self.result.traversals.len() * std::mem::size_of::<TraversalReport>()
            + self.graph.num_edges() * 2 * std::mem::size_of::<u32>()
    }

    /// Whether this plan answers exactly the question `(circuit structure,
    /// graph, noise, objective config)` — the hit-time verification that
    /// makes a fingerprint collision a bypass instead of an aliasing bug.
    fn answers(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        noise: Option<&NoiseModel>,
        config: &SabreConfig,
    ) -> bool {
        self.structure.same_structure(circuit)
            && *self.graph == *graph
            && self.noise.as_ref() == noise
            && same_objective(&self.config, config)
    }
}

/// Recovers `original gate index → routed position` by replaying the
/// routed circuit against the structure's dependency DAG.
///
/// Walk the physical gates in order, tracking the layout. Each physical
/// gate either matches a currently-ready original gate under the layout
/// (record its position, retire it) or is an inserted SWAP (apply it to
/// the layout). The match is unambiguous: the layout is a bijection, so
/// two distinct ready gates can never map onto the same physical
/// operands, and when the router emits an inserted SWAP its execute-drain
/// has reached fixpoint — no ready gate is executable, so none can match
/// a coupled SWAP pair. (An *original* `Swap` gate matches as a ready
/// gate first and correctly leaves the layout unchanged; it carries no
/// parameters, so even a hypothetical misattribution could not corrupt a
/// rebind.)
fn build_bind_map(structure: &Circuit, routed: &RoutedCircuit) -> Option<Vec<u32>> {
    let dag = DependencyDag::new(structure);
    let mut frontier = ExecutionFrontier::new(&dag);
    let mut layout = routed.initial_layout.clone();
    let mut map = vec![u32::MAX; structure.num_gates()];
    for (pos, pg) in routed.physical.gates().iter().enumerate() {
        let matched = frontier.ready().iter().copied().find(|&idx| {
            structure.gates()[idx]
                .map_qubits(|l| layout.phys_of(l))
                .same_structure(pg)
        });
        match matched {
            Some(idx) => {
                map[idx] = pos as u32;
                frontier.retire(&dag, idx);
            }
            None if pg.is_swap() => {
                let (a, Some(b)) = pg.qubits() else {
                    return None;
                };
                layout.swap_physical(a, b);
            }
            None => return None,
        }
    }
    if frontier.is_complete() {
        Some(map)
    } else {
        None
    }
}

/// The objective-defining subset of [`SabreConfig`] compared field-by-
/// field on every hit (see the [module docs](self) for the field table).
fn same_objective(a: &SabreConfig, b: &SabreConfig) -> bool {
    a.heuristic == b.heuristic
        && a.extended_set_size == b.extended_set_size
        && a.extended_set_weight == b.extended_set_weight
        && a.decay_delta == b.decay_delta
        && a.decay_reset_interval == b.decay_reset_interval
        && a.livelock_slack == b.livelock_slack
}

/// The cache key: structure × device × noise × normalized config, folded
/// into one 64-bit content fingerprint (collisions are handled by
/// hit-time verification, never trusted).
fn plan_key(
    circuit: &Circuit,
    graph: &CouplingGraph,
    noise: Option<&NoiseModel>,
    config: &SabreConfig,
) -> u64 {
    let mut fp = Fingerprinter::new("sabre/plan-cache-key/v1");
    // A strided sample, not the full structural fingerprint: the key is
    // only a bucket selector (every hit is re-verified field-by-field),
    // and hashing all gates of a deep circuit would dominate the rebind
    // hot path the cache exists to keep cheap.
    fp.write_u64(circuit.structural_digest(64));
    fp.write_u64(graph.fingerprint());
    match noise {
        Some(model) => {
            fp.write_u64(1);
            fp.write_u64(model.fingerprint());
        }
        None => fp.write_u64(0),
    }
    fp.write_u64(config.heuristic as u64);
    fp.write_u64(config.extended_set_size as u64);
    fp.write_f64(config.extended_set_weight);
    fp.write_f64(config.decay_delta);
    fp.write_u64(u64::from(config.decay_reset_interval));
    fp.write_u64(config.livelock_slack as u64);
    fp.finish()
}

/// Counter snapshot from [`PlanCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Submissions answered by rebinding a cached plan (zero search).
    pub hits: u64,
    /// Submissions that had to route (including verification bypasses).
    pub misses: u64,
    /// Plans evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Estimated resident bytes of all cached plans.
    pub approx_bytes: u64,
}

/// Bounded-LRU cache of [`RoutedPlan`]s, shared across threads — see the
/// [module docs](self) for the key/collision design.
/// A capacity of **0 disables the cache**: lookups return `None` without
/// counting a miss and inserts are dropped, which callers needing strict
/// per-seed reproducibility use to opt out.
#[derive(Debug)]
pub struct PlanCache {
    entries: BoundedLru<u64, RoutedPlan>,
}

impl Default for PlanCache {
    /// A cache with the default capacity (512 plans).
    fn default() -> Self {
        PlanCache::with_capacity(PlanCache::DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// Default number of resident plans, shared by the library and the
    /// server; enough for hundreds of hot ansatz shapes while bounding
    /// memory to a few MB of skeletons.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// An empty cache holding at most `capacity` plans (0 = disabled).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            entries: BoundedLru::new(capacity),
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Looks up a plan for `circuit`'s structure on `(graph, noise,
    /// config)` and, on a verified hit, rebinds `circuit`'s parameters
    /// into it. Returns `None` on miss, verification bypass, or when the
    /// cache is disabled.
    pub fn lookup(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        noise: Option<&NoiseModel>,
        config: &SabreConfig,
    ) -> Option<SabreResult> {
        Some(
            self.lookup_plan(circuit, graph, noise, config)?
                .rebind(circuit),
        )
    }

    /// [`PlanCache::lookup`] plus the plan's cached [`PlanQuality`] —
    /// the serving layer's hot-path variant, which must not pay a depth
    /// recomputation per hit.
    pub fn lookup_with_quality(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        noise: Option<&NoiseModel>,
        config: &SabreConfig,
    ) -> Option<(SabreResult, PlanQuality)> {
        let plan = self.lookup_plan(circuit, graph, noise, config)?;
        Some((plan.rebind(circuit), plan.quality()))
    }

    /// Shared hit path: key, verified match, and counter bookkeeping.
    /// Kept separate from rebinding so the plain [`PlanCache::lookup`]
    /// hot path pays nothing for quality plumbing.
    fn lookup_plan(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        noise: Option<&NoiseModel>,
        config: &SabreConfig,
    ) -> Option<Arc<RoutedPlan>> {
        if self.capacity() == 0 {
            return None;
        }
        let key = plan_key(circuit, graph, noise, config);
        // A fingerprint collision with a different question is a miss:
        // route fresh rather than alias (the stored plan stays resident).
        self.entries
            .get(&key, |plan| plan.answers(circuit, graph, noise, config))
    }

    /// Caches the plan behind a finished first route of `circuit`.
    /// Builds the bind map by replay *before* taking the LRU's lock; if
    /// the replay cannot account for the result (not routed from
    /// `circuit`), nothing is cached. An existing entry under the same
    /// key is kept — first insert wins, matching [`crate::DeviceCache`]'s
    /// race discipline — and the LRU bound evicts the least-recently-used
    /// plan when the insert overflows `capacity`.
    pub fn insert(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        noise: Option<&NoiseModel>,
        config: &SabreConfig,
        result: &SabreResult,
    ) {
        if self.capacity() == 0 {
            return;
        }
        let key = plan_key(circuit, graph, noise, config);
        if let Some(plan) = RoutedPlan::from_route(
            circuit.clone(),
            Arc::new(graph.clone()),
            noise.cloned(),
            *config,
            result.clone(),
        ) {
            self.entries.insert(key, plan);
        }
    }

    /// Number of plans currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan. Counters are not reset.
    pub fn clear(&self) {
        self.entries.clear();
    }

    /// A snapshot of the hit/miss/eviction counters and size gauges.
    /// Sums the resident plans' sizes: `O(capacity)`, for scrapes.
    pub fn stats(&self) -> PlanCacheStats {
        let counts = self.entries.stats();
        let resident = self.entries.snapshot();
        PlanCacheStats {
            hits: counts.hits,
            misses: counts.misses,
            evictions: counts.evictions,
            entries: resident.len(),
            approx_bytes: resident
                .iter()
                .map(|(_, plan)| plan.approx_bytes() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SabreRouter;
    use sabre_circuit::Qubit;
    use sabre_topology::devices;

    /// A linear-entanglement ansatz layer: Rz(θ) on every qubit, then a
    /// CX ladder — the canonical VQA re-submission shape.
    fn ansatz(n: u32, depth: usize, theta: f64) -> Circuit {
        let mut c = Circuit::new(n);
        for layer in 0..depth {
            for q in 0..n {
                c.rz(Qubit(q), theta + layer as f64 + f64::from(q) * 0.01);
            }
            for q in 0..n - 1 {
                c.cx(Qubit(q), Qubit(q + 1));
            }
        }
        c
    }

    #[test]
    fn rebind_is_bit_identical_to_fresh_route() {
        let tokyo = devices::ibm_q20_tokyo();
        let config = SabreConfig::fast();
        let router = SabreRouter::new(tokyo.graph().clone(), config).unwrap();
        let cache = PlanCache::with_capacity(8);

        let first = ansatz(8, 3, 0.0);
        let routed = router.route(&first).unwrap();
        cache.insert(&first, tokyo.graph(), None, &config, &routed);

        let resubmit = ansatz(8, 3, 1.7);
        let hit = cache
            .lookup(&resubmit, tokyo.graph(), None, &config)
            .expect("same structure must hit");
        assert_eq!(hit.total_search_steps(), 0, "a hit performs no search");
        let fresh = router.route(&resubmit).unwrap();
        assert_eq!(hit.best, fresh.best);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn different_structure_misses() {
        let tokyo = devices::ibm_q20_tokyo();
        let config = SabreConfig::fast();
        let router = SabreRouter::new(tokyo.graph().clone(), config).unwrap();
        let cache = PlanCache::with_capacity(8);
        let a = ansatz(6, 2, 0.0);
        cache.insert(&a, tokyo.graph(), None, &config, &router.route(&a).unwrap());

        // One extra layer: different structure, must miss.
        assert!(cache
            .lookup(&ansatz(6, 3, 0.0), tokyo.graph(), None, &config)
            .is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn effort_knobs_do_not_fragment_the_key() {
        let tokyo = devices::ibm_q20_tokyo();
        let routed_under = SabreConfig::fast();
        let router = SabreRouter::new(tokyo.graph().clone(), routed_under).unwrap();
        let cache = PlanCache::with_capacity(8);
        let a = ansatz(6, 2, 0.0);
        cache.insert(
            &a,
            tokyo.graph(),
            None,
            &routed_under,
            &router.route(&a).unwrap(),
        );

        // Different seed / restarts / traversals / probe budget: same key.
        let other_effort = SabreConfig {
            seed: 777,
            num_restarts: 9,
            num_traversals: 3,
            embedding_probe_budget: 0,
            ..routed_under
        };
        assert!(cache
            .lookup(&ansatz(6, 2, 9.9), tokyo.graph(), None, &other_effort)
            .is_some());

        // An objective change (extended-set weight) must miss.
        let other_objective = SabreConfig {
            extended_set_weight: 0.25,
            ..routed_under
        };
        assert!(cache
            .lookup(&ansatz(6, 2, 9.9), tokyo.graph(), None, &other_objective)
            .is_none());
    }

    #[test]
    fn noise_model_participates_in_the_key() {
        let tokyo = devices::ibm_q20_tokyo();
        let config = SabreConfig::fast();
        let noise = NoiseModel::calibrated(tokyo.graph(), 0.02, 4.0, 1);
        let router = SabreRouter::with_noise(tokyo.graph().clone(), config, &noise).unwrap();
        let cache = PlanCache::with_capacity(8);
        let a = ansatz(6, 2, 0.0);
        cache.insert(
            &a,
            tokyo.graph(),
            Some(&noise),
            &config,
            &router.route(&a).unwrap(),
        );

        assert!(
            cache
                .lookup(&ansatz(6, 2, 3.0), tokyo.graph(), Some(&noise), &config)
                .is_some(),
            "same calibration hits"
        );
        assert!(
            cache
                .lookup(&ansatz(6, 2, 3.0), tokyo.graph(), None, &config)
                .is_none(),
            "noiseless submission must not reuse a noise-aware plan"
        );
        let other = NoiseModel::calibrated(tokyo.graph(), 0.02, 4.0, 2);
        assert!(
            cache
                .lookup(&ansatz(6, 2, 3.0), tokyo.graph(), Some(&other), &config)
                .is_none(),
            "a different calibration must not reuse the plan"
        );
    }

    #[test]
    fn lru_eviction_is_bounded_and_keeps_hot_plans() {
        let device = devices::linear(6);
        let config = SabreConfig::fast();
        let router = SabreRouter::new(device.graph().clone(), config).unwrap();
        let cache = PlanCache::with_capacity(2);

        let shapes: Vec<Circuit> = (1..=3).map(|d| ansatz(6, d, 0.0)).collect();
        for c in &shapes[..2] {
            cache.insert(c, device.graph(), None, &config, &router.route(c).unwrap());
        }
        // Touch shape 0 so shape 1 is the LRU victim.
        assert!(cache
            .lookup(&shapes[0], device.graph(), None, &config)
            .is_some());
        cache.insert(
            &shapes[2],
            device.graph(),
            None,
            &config,
            &router.route(&shapes[2]).unwrap(),
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.approx_bytes > 0);
        assert!(cache
            .lookup(&shapes[0], device.graph(), None, &config)
            .is_some());
        assert!(
            cache
                .lookup(&shapes[1], device.graph(), None, &config)
                .is_none(),
            "the untouched plan was evicted"
        );
    }

    #[test]
    fn eviction_does_not_invalidate_in_flight_plans() {
        let device = devices::linear(4);
        let config = SabreConfig::fast();
        let router = SabreRouter::new(device.graph().clone(), config).unwrap();
        let cache = PlanCache::with_capacity(1);
        let a = ansatz(4, 1, 0.0);
        cache.insert(
            &a,
            device.graph(),
            None,
            &config,
            &router.route(&a).unwrap(),
        );

        // Hold the plan's Arc (simulating a concurrent rebind)...
        let held = cache
            .lookup_plan(&a, device.graph(), None, &config)
            .unwrap();
        // ...then evict it by inserting a different shape.
        let b = ansatz(4, 2, 0.0);
        cache.insert(
            &b,
            device.graph(),
            None,
            &config,
            &router.route(&b).unwrap(),
        );
        assert_eq!(cache.stats().evictions, 1);
        // The held plan still rebinds correctly.
        let rebound = held.rebind(&ansatz(4, 1, 5.0));
        assert_eq!(rebound.best, router.route(&ansatz(4, 1, 5.0)).unwrap().best);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let device = devices::linear(4);
        let config = SabreConfig::fast();
        let router = SabreRouter::new(device.graph().clone(), config).unwrap();
        let cache = PlanCache::with_capacity(0);
        let a = ansatz(4, 1, 0.0);
        cache.insert(
            &a,
            device.graph(),
            None,
            &config,
            &router.route(&a).unwrap(),
        );
        assert!(cache.is_empty());
        assert!(cache.lookup(&a, device.graph(), None, &config).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "disabled = uncounted");
    }

    #[test]
    fn bind_map_accounts_for_inserted_swaps() {
        // Force SWAPs: route a long-range CX chain on a line.
        let device = devices::linear(5);
        let config = SabreConfig::fast();
        let router = SabreRouter::new(device.graph().clone(), config).unwrap();
        // A degree-4 star cannot embed in a path, so SWAPs are inserted.
        let mut c = Circuit::new(5);
        c.rz(Qubit(0), 0.3);
        for q in 1..5u32 {
            c.cx(Qubit(0), Qubit(q));
        }
        c.rz(Qubit(4), 0.9);
        let routed = router.route(&c).unwrap();
        assert!(routed.best.num_swaps > 0, "test needs inserted SWAPs");

        let plan = RoutedPlan::from_route(
            c.clone(),
            Arc::new(device.graph().clone()),
            None,
            config,
            routed.clone(),
        )
        .expect("replay must succeed");
        let mut resub = c.clone();
        resub.replace_params(0, sabre_circuit::Params::one(-2.2));
        resub.replace_params(5, sabre_circuit::Params::one(0.0));
        let rebound = plan.rebind(&resub);
        assert_eq!(rebound.best, router.route(&resub).unwrap().best);
    }

    #[test]
    fn replay_rejects_a_foreign_result() {
        let device = devices::linear(4);
        let config = SabreConfig::fast();
        let router = SabreRouter::new(device.graph().clone(), config).unwrap();
        let a = ansatz(4, 1, 0.0);
        let b = ansatz(4, 2, 0.0);
        let routed_b = router.route(&b).unwrap();
        assert!(
            RoutedPlan::from_route(a, Arc::new(device.graph().clone()), None, config, routed_b)
                .is_none(),
            "a result not routed from the structure must be rejected"
        );
    }
}
