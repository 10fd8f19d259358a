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
//! and stores the routed skeleton plus its rebind slots; every later
//! submission with the same structure is answered by [`RoutedPlan::rebind`]
//! — zero search steps, output bit-identical to a fresh route of the same
//! structure under the plan's configuration.
//!
//! # Proof at insert
//!
//! [`PlanCache::insert`] proves every plan before it is stored or served:
//! [`sabre_verify::verify_routed`] replays the routed circuit against the
//! submission's dependency DAG, checking coupling, gate order and the
//! final layout. That one replay also reports the routed position of
//! each original gate, and the positions of the gates that carry
//! parameters become the plan's rebind slots. A result that fails the
//! proof is never cached, and every hit inherits the proof of the plan it
//! rebinds.
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
//! cache
//!     .insert(&ansatz(0.1), tokyo.graph(), None, &config, &first)
//!     .expect("the router's output passes the proof");
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
use sabre_circuit::{Circuit, Gate};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{BoundedLru, CouplingGraph};
use sabre_verify::{verify_routed, VerifyError};

use crate::quality::PlanQuality;
use crate::{RoutedCircuit, SabreConfig, SabreResult, TraversalReport};

/// A routed plan for one circuit structure: everything needed to answer a
/// re-parameterized submission without searching, plus everything needed
/// to verify on a hit that the fingerprint key really matches.
#[derive(Debug)]
pub struct RoutedPlan {
    /// The circuit the plan was routed from (first submission); hits
    /// verify structural equality against it.
    structure: Circuit,
    /// The device the plan targets, for hit verification.
    graph: Arc<CouplingGraph>,
    /// Calibration the plan was routed under (`None` = hop distances).
    noise: Option<NoiseModel>,
    /// The config the plan was routed under; hits check its objective
    /// fields, the only ones keyed, against the request's.
    config: SabreConfig,
    /// The full first-route result; `rebind` clones its `best` skeleton.
    result: SabreResult,
    /// `(original gate index, routed position)` for every structure gate
    /// that carries parameters — the only gates a rebind must restamp.
    /// The positions come from the insert-time proof's replay, so the
    /// rebind hot loop skips the parameter-free majority (CX ladders)
    /// instead of testing each gate.
    param_slots: Vec<(u32, u32)>,
    /// Quality report of the routed skeleton, computed once at insert.
    /// Rebinding only restamps parameters — structure, SWAPs, depth, and
    /// the fidelity estimate are all invariant — so every hit serves this
    /// copy with zero recompute.
    quality: PlanQuality,
}

impl RoutedPlan {
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

    /// Estimated resident bytes of this plan (gate storage, rebind slots,
    /// layouts, traversal telemetry, and the graph/noise copies it pins).
    fn approx_bytes(&self) -> usize {
        let gate = std::mem::size_of::<Gate>();
        let layouts = 4 * self.result.best.initial_layout.len() * std::mem::size_of::<u32>();
        std::mem::size_of::<RoutedPlan>()
            + self.structure.num_gates() * gate
            + self.result.best.physical.num_gates() * gate
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
            && self.config.same_objective(config)
    }
}

impl SabreConfig {
    /// Whether `self` and `other` agree on every objective-defining field:
    /// the fields a plan cache compares on every hit (see the
    /// [module docs](self) for the field table). Effort knobs — `seed`,
    /// restarts, traversals, the probe budget — and `profile` are ignored.
    pub fn same_objective(&self, other: &SabreConfig) -> bool {
        self.heuristic == other.heuristic
            && self.extended_set_size == other.extended_set_size
            && self.extended_set_weight == other.extended_set_weight
            && self.decay_delta == other.decay_delta
            && self.decay_reset_interval == other.decay_reset_interval
            && self.livelock_slack == other.livelock_slack
    }

    /// Folds the fields [`SabreConfig::same_objective`] compares into a
    /// plan-cache key.
    pub fn write_objective(&self, fp: &mut Fingerprinter) {
        fp.write_u64(self.heuristic as u64);
        fp.write_u64(self.extended_set_size as u64);
        fp.write_f64(self.extended_set_weight);
        fp.write_f64(self.decay_delta);
        fp.write_u64(u64::from(self.decay_reset_interval));
        fp.write_u64(self.livelock_slack as u64);
    }
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
    config.write_objective(&mut fp);
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
/// counting a miss and inserts prove and score but store nothing, which
/// callers needing strict per-seed reproducibility use to opt out.
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

    /// Proves a finished first route of `circuit` and caches its plan.
    ///
    /// The proof is [`verify_routed`], run *before* taking the LRU's
    /// lock; its replay also yields the rebind slots. On success the
    /// routed skeleton is scored once and its [`PlanQuality`] returned,
    /// also at capacity 0, where nothing is cloned or stored. An existing
    /// entry under the same key is kept — first insert wins, matching
    /// [`crate::DeviceCache`]'s race discipline — and the LRU bound evicts
    /// the least-recently-used plan when the insert overflows `capacity`.
    ///
    /// # Errors
    ///
    /// The verifier's error when `result` does not faithfully route
    /// `circuit` on `graph`; nothing is cached and no counter moves.
    pub fn insert(
        &self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        noise: Option<&NoiseModel>,
        config: &SabreConfig,
        result: &SabreResult,
    ) -> Result<PlanQuality, VerifyError> {
        let best = &result.best;
        let proof = verify_routed(
            circuit,
            &best.physical,
            best.initial_layout.logical_to_physical(),
            best.final_layout.logical_to_physical(),
            graph,
        )?;
        let quality = PlanQuality::of_routed(circuit, best, noise);
        if self.capacity() == 0 {
            return Ok(quality);
        }
        let param_slots = circuit
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, gate)| !gate.params().is_empty())
            .map(|(idx, _)| (idx as u32, proof.executed_at[idx] as u32))
            .collect();
        let plan = RoutedPlan {
            structure: circuit.clone(),
            graph: Arc::new(graph.clone()),
            noise: noise.cloned(),
            config: *config,
            result: result.clone(),
            param_slots,
            quality,
        };
        self.entries
            .insert(plan_key(circuit, graph, noise, config), plan);
        Ok(quality)
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
        cache
            .insert(&first, tokyo.graph(), None, &config, &routed)
            .unwrap();

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
        cache
            .insert(&a, tokyo.graph(), None, &config, &router.route(&a).unwrap())
            .unwrap();

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
        cache
            .insert(
                &a,
                tokyo.graph(),
                None,
                &routed_under,
                &router.route(&a).unwrap(),
            )
            .unwrap();

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
        cache
            .insert(
                &a,
                tokyo.graph(),
                Some(&noise),
                &config,
                &router.route(&a).unwrap(),
            )
            .unwrap();

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
            cache
                .insert(c, device.graph(), None, &config, &router.route(c).unwrap())
                .unwrap();
        }
        // Touch shape 0 so shape 1 is the LRU victim.
        assert!(cache
            .lookup(&shapes[0], device.graph(), None, &config)
            .is_some());
        cache
            .insert(
                &shapes[2],
                device.graph(),
                None,
                &config,
                &router.route(&shapes[2]).unwrap(),
            )
            .unwrap();
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
        cache
            .insert(
                &a,
                device.graph(),
                None,
                &config,
                &router.route(&a).unwrap(),
            )
            .unwrap();

        // Hold the plan's Arc (simulating a concurrent rebind)...
        let held = cache
            .lookup_plan(&a, device.graph(), None, &config)
            .unwrap();
        // ...then evict it by inserting a different shape.
        let b = ansatz(4, 2, 0.0);
        cache
            .insert(
                &b,
                device.graph(),
                None,
                &config,
                &router.route(&b).unwrap(),
            )
            .unwrap();
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
        let routed = router.route(&a).unwrap();
        let quality = cache
            .insert(&a, device.graph(), None, &config, &routed)
            .expect("a disabled cache still proves and scores");
        assert_eq!(quality, PlanQuality::of_result(&a, &routed, None));
        assert!(cache.is_empty());
        assert!(cache.lookup(&a, device.graph(), None, &config).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "disabled = uncounted");
    }

    /// A degree-4 star cannot embed in a path, so routing it on a
    /// 5-qubit line inserts SWAPs; the two angles make rebinds visible.
    fn star_on_a_line() -> (Circuit, SabreRouter, SabreResult) {
        let device = devices::linear(5);
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let mut c = Circuit::new(5);
        c.rz(Qubit(0), 0.3);
        for q in 1..5u32 {
            c.cx(Qubit(0), Qubit(q));
        }
        c.rz(Qubit(4), 0.9);
        let routed = router.route(&c).unwrap();
        assert!(routed.best.num_swaps > 0, "test needs inserted SWAPs");
        (c, router, routed)
    }

    #[test]
    fn rebind_slots_account_for_inserted_swaps() {
        let (c, router, routed) = star_on_a_line();
        let config = *router.config();
        let cache = PlanCache::with_capacity(8);
        let quality = cache
            .insert(&c, router.graph(), None, &config, &routed)
            .expect("replay must succeed");
        assert_eq!(quality, PlanQuality::of_result(&c, &routed, None));
        let mut resub = c.clone();
        resub.replace_params(0, sabre_circuit::Params::one(-2.2));
        resub.replace_params(5, sabre_circuit::Params::one(0.0));
        let rebound = cache
            .lookup(&resub, router.graph(), None, &config)
            .expect("same structure must hit");
        assert_eq!(rebound.best, router.route(&resub).unwrap().best);
    }

    #[test]
    fn a_circuits_own_swaps_pass_the_proof() {
        // The input's SWAPs are gates of the computation: the proof must
        // tell them from the SWAPs the router inserts around them.
        let (mut c, router, _) = star_on_a_line();
        c.swap(Qubit(0), Qubit(4));
        c.rz(Qubit(4), 1.1);
        c.swap(Qubit(1), Qubit(2));
        let config = *router.config();
        let cache = PlanCache::with_capacity(8);
        cache
            .insert(
                &c,
                router.graph(),
                None,
                &config,
                &router.route(&c).unwrap(),
            )
            .expect("a faithful routing of explicit SWAPs verifies");
        let mut resub = c.clone();
        resub.replace_params(7, sabre_circuit::Params::one(-0.4));
        let rebound = cache.lookup(&resub, router.graph(), None, &config).unwrap();
        assert_eq!(rebound.best, router.route(&resub).unwrap().best);
    }

    /// Hands `result` to `insert` at capacity 8 (beside one resident,
    /// once-hit plan) and at capacity 0: each must return exactly the
    /// verifier's error, cache nothing and leave every counter unchanged.
    fn assert_rejected(
        router: &SabreRouter,
        circuit: &Circuit,
        result: &SabreResult,
    ) -> VerifyError {
        let (graph, config) = (router.graph(), *router.config());
        let best = &result.best;
        let expected = verify_routed(
            circuit,
            &best.physical,
            best.initial_layout.logical_to_physical(),
            best.final_layout.logical_to_physical(),
            graph,
        )
        .expect_err("the corrupted result must fail the proof");
        for capacity in [8, 0] {
            let cache = PlanCache::with_capacity(capacity);
            if capacity > 0 {
                let other = ansatz(3, 1, 0.0);
                cache
                    .insert(&other, graph, None, &config, &router.route(&other).unwrap())
                    .unwrap();
                assert!(cache.lookup(&other, graph, None, &config).is_some());
            }
            let before = cache.stats();
            let err = cache
                .insert(circuit, graph, None, &config, result)
                .unwrap_err();
            assert_eq!(err, expected, "capacity {capacity}");
            assert_eq!(cache.stats(), before, "capacity {capacity}");
            assert_eq!(cache.len(), capacity.min(1), "capacity {capacity}");
        }
        expected
    }

    /// `result` with its physical circuit rebuilt by `edit`.
    fn with_physical(result: &SabreResult, edit: impl FnOnce(&mut Vec<Gate>)) -> SabreResult {
        let mut gates = result.best.physical.gates().to_vec();
        edit(&mut gates);
        let mut physical = Circuit::new(result.best.physical.num_qubits());
        for gate in gates {
            physical.push(gate);
        }
        let mut corrupted = result.clone();
        corrupted.best.physical = physical;
        corrupted
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
            PlanCache::with_capacity(8)
                .insert(&a, device.graph(), None, &config, &routed_b)
                .is_err(),
            "a result not routed from the structure must be rejected"
        );
        assert_rejected(&router, &a, &routed_b);
    }

    #[test]
    fn insert_rejects_a_dropped_swap() {
        let (c, router, routed) = star_on_a_line();
        let dropped = with_physical(&routed, |gates| {
            let first_swap = gates.iter().position(Gate::is_swap).unwrap();
            gates.remove(first_swap);
        });
        assert_rejected(&router, &c, &dropped);
    }

    #[test]
    fn insert_rejects_a_gate_on_an_uncoupled_pair() {
        let (c, router, routed) = star_on_a_line();
        let moved = with_physical(&routed, |gates| {
            let first_cx = gates.iter().position(|g| g.qubits().1.is_some()).unwrap();
            gates[first_cx] = Gate::cx(Qubit(0), Qubit(4));
        });
        let err = assert_rejected(&router, &c, &moved);
        assert!(matches!(err, VerifyError::UncoupledGate { .. }), "{err}");
    }

    #[test]
    fn insert_rejects_a_wrong_final_layout() {
        let (c, router, mut routed) = star_on_a_line();
        routed.best.final_layout.swap_physical(Qubit(0), Qubit(1));
        let err = assert_rejected(&router, &c, &routed);
        assert_eq!(err, VerifyError::FinalLayoutMismatch);
    }
}
