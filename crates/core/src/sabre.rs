use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use sabre_circuit::interaction::InteractionGraph;
use sabre_circuit::Circuit;
use sabre_topology::embedding::{self, Embedding};
use sabre_topology::noise::NoiseModel;
use sabre_topology::{CouplingGraph, DistanceBackend, Qubit, WeightedDistanceMatrix};

use sabre_circuit::DependencyDag;

use crate::cache::EmbeddingVerdictCache;
use crate::profile::{ProfileCollector, RouteProfile};
use crate::router::{pass_log, route_pass, route_pass_prepared, PassContext, PassLog};
use crate::search::SearchState;
use crate::{Layout, RouteError, RoutedCircuit, SabreConfig, SabreResult, TraversalReport};

/// Per-circuit state shared by every restart: the reversed circuit and
/// both traversal DAGs, built **once** per `route` call instead of once
/// per traversal. Immutable, so restarts that fan out share one copy
/// across workers.
struct PreparedCircuit<'a> {
    circuit: &'a Circuit,
    reversed: &'a Circuit,
    dag_forward: DependencyDag,
    dag_reverse: DependencyDag,
}

impl<'a> PreparedCircuit<'a> {
    fn new(circuit: &'a Circuit, reversed: &'a Circuit) -> Self {
        PreparedCircuit {
            circuit,
            reversed,
            dag_forward: DependencyDag::new(circuit),
            dag_reverse: DependencyDag::new(reversed),
        }
    }
}

/// Everything one restart (random initial mapping — past 128 physical
/// qubits a BFS ball — + `num_traversals` bidirectional passes)
/// produced. Restarts are fully independent — the unit of work `route`
/// spreads over the rayon pool.
#[derive(Clone, Debug)]
struct RestartOutcome {
    /// Best forward pass of this restart.
    candidate: Candidate,
    /// Telemetry for every traversal, in execution order.
    reports: Vec<TraversalReport>,
    /// SWAPs of this restart's very first (look-ahead) traversal.
    first_traversal_swaps: usize,
    /// Hot-loop phase profile of this restart's traversals, when
    /// [`SabreConfig::profile`] is set. Riding in the outcome keeps the
    /// restart-order reduction (and with it the bit-identity contract)
    /// intact however the restarts fanned out.
    profile: Option<RouteProfile>,
}

impl RestartOutcome {
    /// Search steps (SWAPs, forced ones included) over all traversals.
    fn search_steps(&self) -> usize {
        self.reports.iter().map(|r| r.num_swaps).sum()
    }
}

/// Restart-0 search steps from which `route` runs the remaining restarts
/// concurrently. Step counts are deterministic, so the schedule (like the
/// output) never depends on timing or thread count. Circuit size does not
/// predict the work: at the paper configuration `ising_model_16` has 390
/// two-qubit gates but 54 restart-0 SWAPs, `qft_13` 156 and 118.
///
/// Table II on Tokyo at the paper configuration, min of 7 routes per row
/// (probe on, no verdict cache), with restarts `1..5` always inline and
/// always fanned out, on a 2-vCPU x86-64 host:
///
/// | row | 2q gates | restart-0 steps | inline ms | fanned ms |
/// |---|---:|---:|---:|---:|
/// | `4gt13_92` | 29 | 3 | 0.054 | 0.107 |
/// | `4mod5-v1_22` | 13 | 4 | 0.034 | 0.077 |
/// | `ising_model_10` | 234 | 24 | 0.321 | 0.317 |
/// | `decod24-v2_43` | 37 | 33 | 0.152 | 0.161 |
/// | `ising_model_16` | 390 | 54 | 0.625 | 0.523 |
/// | `ising_model_13` | 312 | 62 | 0.579 | 0.438 |
/// | `qft_10` | 90 | 74 | 0.520 | 0.379 |
/// | `rd84_142` | 138 | 123 | 1.083 | 0.800 |
/// | `qft_20` | 380 | 327 | 3.153 | 2.166 |
/// | `co14_215` | 7,176 | 6,186 | 57.65 | 36.86 |
///
/// A fan-out costs a thread spawn and join, 40–60 µs there, which doubles
/// a route of a few steps; the two sides meet near 30 steps. The threshold
/// sits at about twice that, so a route that fans out still gains when a
/// loaded host spawns more slowly; the rows in between give up at most
/// 0.14 ms each.
pub(crate) const FAN_OUT_STEPS: usize = 64;

/// The complete SABRE pipeline: preprocessing, multi-restart
/// bidirectional traversal, and best-result selection (paper §IV).
///
/// Construction performs the preprocessing of §IV-A once (connectivity
/// check and distance preprocessing — a dense all-pairs matrix up to
/// [`sabre_topology::DENSE_DISTANCE_THRESHOLD`] qubits, the sparse
/// on-demand row engine above it); the router can then route any number
/// of circuits against the same device.
///
/// # Example
///
/// ```
/// use sabre::{SabreConfig, SabreRouter};
/// use sabre_circuit::{Circuit, Qubit};
/// use sabre_topology::devices;
///
/// let device = devices::ibm_q20_tokyo();
/// let router = SabreRouter::new(device.graph().clone(), SabreConfig::default())?;
///
/// let mut circuit = Circuit::new(4);
/// circuit.cx(Qubit(0), Qubit(1));
/// circuit.cx(Qubit(1), Qubit(2));
/// circuit.cx(Qubit(2), Qubit(3));
///
/// let result = router.route(&circuit)?;
/// assert_eq!(result.added_gates() % 3, 0); // additions come in 3-CNOT SWAPs
/// # Ok::<(), sabre::RouteError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SabreRouter {
    // Preprocessing is behind `Arc` so routers acquired from a warm
    // `DeviceCache` (and `Clone`d routers generally) share one distance
    // matrix instead of copying `O(N²)` floats.
    graph: Arc<CouplingGraph>,
    cost: Arc<WeightedDistanceMatrix>,
    config: SabreConfig,
    /// Shared embedding-verdict store for the perfect-placement probe;
    /// `None` (the default) probes from scratch on every `route` call.
    verdicts: Option<Arc<EmbeddingVerdictCache>>,
}

impl SabreRouter {
    /// Builds a router for `graph` with the given configuration.
    ///
    /// # Errors
    ///
    /// - [`RouteError::InvalidConfig`] if the configuration fails
    ///   [`SabreConfig::validate`].
    /// - [`RouteError::DisconnectedDevice`] if some physical qubit pairs
    ///   can never interact.
    pub fn new(graph: CouplingGraph, config: SabreConfig) -> Result<Self, RouteError> {
        Self::with_distance_backend(graph, config, DistanceBackend::Auto)
    }

    /// Like [`SabreRouter::new`] but with an explicit distance-engine
    /// choice instead of the size-based auto policy. `DistanceBackend::
    /// Dense` forces the `O(N²)` all-pairs matrices regardless of device
    /// size; `DistanceBackend::Sparse` forces the on-demand row engine
    /// even on small devices. Routing output is bit-identical either way
    /// (the equivalence suite pins this); the choice only trades memory
    /// against per-row latency.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SabreRouter::new`].
    pub fn with_distance_backend(
        graph: CouplingGraph,
        config: SabreConfig,
        backend: DistanceBackend,
    ) -> Result<Self, RouteError> {
        config
            .validate()
            .map_err(|reason| RouteError::InvalidConfig { reason })?;
        if !graph.is_connected() {
            return Err(RouteError::DisconnectedDevice);
        }
        let cost = Arc::new(WeightedDistanceMatrix::with_backend(
            &graph,
            |_, _| 1.0,
            backend,
        ));
        Ok(SabreRouter {
            graph: Arc::new(graph),
            cost,
            config,
            verdicts: None,
        })
    }

    /// Assembles a router from preprocessed parts — the warm path of
    /// [`crate::DeviceCache`]: no connectivity check, no Floyd–Warshall,
    /// just `Arc` clones. The caller guarantees the parts belong together
    /// and that `config` already validated.
    pub(crate) fn from_parts(
        graph: Arc<CouplingGraph>,
        cost: Arc<WeightedDistanceMatrix>,
        config: SabreConfig,
        verdicts: Option<Arc<EmbeddingVerdictCache>>,
    ) -> Self {
        SabreRouter {
            graph,
            cost,
            config,
            verdicts,
        }
    }

    /// Builds a **noise-aware** router (the §VI "More Precise Hardware
    /// Modeling" extension): the heuristic distance between two physical
    /// qubits becomes the cheapest log-domain SWAP-fidelity path under
    /// `noise`, so the search prefers routes through reliable couplers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SabreRouter::new`].
    pub fn with_noise(
        graph: CouplingGraph,
        config: SabreConfig,
        noise: &NoiseModel,
    ) -> Result<Self, RouteError> {
        Self::with_noise_and_backend(graph, config, noise, DistanceBackend::Auto)
    }

    /// [`SabreRouter::with_noise`] with an explicit distance-engine
    /// choice — the noise-weighted analogue of
    /// [`SabreRouter::with_distance_backend`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SabreRouter::new`].
    pub fn with_noise_and_backend(
        graph: CouplingGraph,
        config: SabreConfig,
        noise: &NoiseModel,
        backend: DistanceBackend,
    ) -> Result<Self, RouteError> {
        let mut router = SabreRouter::with_distance_backend(graph, config, backend)?;
        router.cost = Arc::new(noise_cost_matrix_with_backend(
            &router.graph,
            noise,
            backend,
        ));
        Ok(router)
    }

    /// Attaches a shared embedding-verdict store (builder-style): repeated
    /// `route` calls — by this router or any router of the **same device**
    /// sharing the store — reuse perfect-placement probe verdicts instead
    /// of re-running the backtracking search. Results are bit-identical to
    /// an uncached router; only the probe's work is skipped. See
    /// [`EmbeddingVerdictCache`] for the keying that makes cross-device
    /// sharing safe.
    ///
    /// Routers acquired through [`crate::DeviceCache`] come with the
    /// cache's store already attached.
    #[must_use]
    pub fn with_embedding_cache(mut self, verdicts: Arc<EmbeddingVerdictCache>) -> Self {
        self.verdicts = Some(verdicts);
        self
    }

    /// Detaches any embedding-verdict store: every subsequent `route`
    /// pays the cold probe again. Timing studies use this so repeat
    /// measurements of one circuit stay comparable (a warm verdict would
    /// silently remove the probe from the measured section).
    #[must_use]
    pub fn without_embedding_cache(mut self) -> Self {
        self.verdicts = None;
        self
    }

    /// Decomposes the router into its shared preprocessing — the single
    /// source of truth the [`crate::DeviceCache`] stores, so the cache's
    /// cold path can never drift from [`SabreRouter::new`].
    pub(crate) fn into_parts(self) -> (Arc<CouplingGraph>, Arc<WeightedDistanceMatrix>) {
        (self.graph, self.cost)
    }

    /// The device coupling graph.
    pub fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// The cost matrix `D` steering the heuristic: hop counts, or
    /// noise-weighted SWAP costs for a [`SabreRouter::with_noise`] router.
    /// [`WeightedDistanceMatrix::is_sparse`] tells which distance engine
    /// the router runs on.
    pub fn cost_matrix(&self) -> &WeightedDistanceMatrix {
        &self.cost
    }

    /// The active configuration.
    pub fn config(&self) -> &SabreConfig {
        &self.config
    }

    /// Routes `circuit` with the full SABRE pipeline: for each of
    /// `num_restarts` random initial mappings (past 128 physical qubits,
    /// BFS balls: the circuit's qubits on those nearest a random root),
    /// run `num_traversals`
    /// alternating forward/backward passes (final mappings seeding the next
    /// pass — the reverse traversal of §IV-C2) and keep the best final
    /// forward pass across restarts.
    ///
    /// Restart 0 runs on the calling thread. When its search took at least
    /// 64 steps (SWAPs over its traversals), restarts `1..` run
    /// concurrently on the rayon pool; otherwise they run inline, where a
    /// thread spawn would cost more than it saves. Either way the result
    /// is the same for a fixed `config.seed`: every restart seeds its own
    /// RNG, and outcomes are folded in restart order. Inside a parallel
    /// section (a [`SabreRouter::route_batch`] worker, say) the restarts
    /// always run inline on that worker.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::DeviceTooSmall`] if the circuit has more
    /// logical qubits than the device has physical qubits.
    pub fn route(&self, circuit: &Circuit) -> Result<SabreResult, RouteError> {
        self.check_fits(circuit)?;
        let start = Instant::now();
        let reversed = circuit.reversed();
        let prepared = PreparedCircuit::new(circuit, &reversed);
        let first = self.run_restart(&prepared, 0);
        let fan_out = first.search_steps() >= FAN_OUT_STEPS;
        let mut outcomes = vec![first];
        let rest = 1..self.config.num_restarts;
        if fan_out {
            outcomes.extend(
                rest.into_par_iter()
                    .map(|restart| self.run_restart(&prepared, restart))
                    .collect::<Vec<_>>(),
            );
        } else {
            outcomes.extend(rest.map(|restart| self.run_restart(&prepared, restart)));
        }
        Ok(self.assemble(circuit, outcomes, start))
    }

    /// Errors with [`RouteError::DeviceTooSmall`] if `circuit` has more
    /// logical qubits than the device has physical ones.
    fn check_fits(&self, circuit: &Circuit) -> Result<(), RouteError> {
        let n_phys = self.graph.num_qubits();
        if circuit.num_qubits() > n_phys {
            return Err(RouteError::DeviceTooSmall {
                required: circuit.num_qubits(),
                available: n_phys,
            });
        }
        Ok(())
    }

    /// One independent restart: seed a per-restart RNG, draw a random
    /// initial mapping ([`Layout::initial`]: uniform up to 128 physical
    /// qubits, a BFS ball past that), and run `num_traversals`
    /// alternating passes.
    ///
    /// The RNG stream depends only on `(config.seed, restart)`, never on
    /// which thread runs the restart: this is what makes `route` output
    /// independent of whether its restarts fanned out.
    ///
    /// The traversal DAGs come pre-built in `prepared`; the search scratch
    /// ([`SearchState`]) is created once here and persists across the
    /// restart's traversals, so only the first pass pays any allocation.
    fn run_restart(&self, prepared: &PreparedCircuit<'_>, restart: usize) -> RestartOutcome {
        // Distinct, deterministic stream per restart.
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add((restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let mut layout = Layout::initial(&self.graph, prepared.circuit.num_qubits(), &mut rng);
        let mut last_pass: Option<Candidate> = None;
        let mut reports = Vec::with_capacity(self.config.num_traversals);
        let mut first_traversal_swaps = 0;
        let mut state = SearchState::new(&self.graph);
        let mut collector = ProfileCollector::new(self.config.profile);

        for traversal in 0..self.config.num_traversals {
            let is_reverse = traversal % 2 == 1;
            let ctx = PassContext {
                circuit: if is_reverse {
                    prepared.reversed
                } else {
                    prepared.circuit
                },
                graph: &self.graph,
                dist: &self.cost,
                dag: if is_reverse {
                    &prepared.dag_reverse
                } else {
                    &prepared.dag_forward
                },
                config: &self.config,
            };
            let pass = route_pass_prepared(&ctx, layout, &mut rng, &mut state, &mut collector);
            layout = pass.final_layout.clone();
            reports.push(TraversalReport {
                restart,
                traversal,
                reversed: is_reverse,
                num_swaps: pass.num_swaps,
            });
            if traversal == 0 {
                first_traversal_swaps = pass.num_swaps;
            }
            // Every *forward* pass yields a valid routing of the
            // original circuit; keep whichever is best. (The reverse
            // traversal usually improves the final pass, but on very
            // long circuits an earlier pass can occasionally win — a
            // production router should never return the worse one.)
            if !is_reverse {
                let mut pass = Candidate::new(pass);
                if is_better(&mut pass, last_pass.as_mut(), prepared.circuit) {
                    last_pass = Some(pass);
                }
            }
        }

        RestartOutcome {
            candidate: last_pass.expect("traversal count is odd"),
            reports,
            first_traversal_swaps,
            profile: collector.take(),
        }
    }

    /// Folds restart outcomes (in restart order, so ties resolve exactly
    /// like the sequential loop), then gives the embedding probe a chance
    /// to beat them, and stamps the wall clock.
    fn assemble(
        &self,
        circuit: &Circuit,
        outcomes: Vec<RestartOutcome>,
        start: Instant,
    ) -> SabreResult {
        let mut best: Option<Candidate> = None;
        let mut best_restart = 0usize;
        let mut traversals =
            Vec::with_capacity(self.config.num_restarts * self.config.num_traversals);
        let mut first_traversal_swaps_best: Option<usize> = None;
        let mut profile: Option<RouteProfile> = None;

        for (restart, outcome) in outcomes.into_iter().enumerate() {
            traversals.extend(outcome.reports);
            first_traversal_swaps_best = Some(match first_traversal_swaps_best {
                Some(prev) => prev.min(outcome.first_traversal_swaps),
                None => outcome.first_traversal_swaps,
            });
            // Restart-order merge: the aggregated profile is identical
            // whether restarts ran sequentially or on the rayon pool.
            if let Some(partial) = outcome.profile {
                match &mut profile {
                    Some(total) => total.merge(&partial),
                    None => profile = Some(partial),
                }
            }
            let mut candidate = outcome.candidate;
            if is_better(&mut candidate, best.as_mut(), circuit) {
                best = Some(candidate);
                best_restart = restart;
            }
        }

        let mut best = best.expect("at least one restart configured");
        let mut perfect_placement = false;
        // The probe runs *after* the restart search, not before: the
        // first-traversal telemetry (the paper's g_la column, gated per
        // row by the Table II suite of `quality_json`) must reflect a real
        // search even when an embedding exists, so embeddable circuits
        // cannot short-circuit the restarts. Callers that only want
        // `best` can skip the probe cost via `embedding_probe_budget: 0`;
        // routers with an attached [`EmbeddingVerdictCache`] skip only the
        // *backtracking* on repeat interaction graphs — the
        // probe-after-search ordering (and with it this telemetry
        // contract) is unchanged.
        //
        // A restart that already hit zero SWAPs cannot be improved: a
        // zero-SWAP routing is a wire relabeling, so its depth equals the
        // input's and the probe could at best tie.
        if best.log.num_swaps > 0 {
            if let Some(mut candidate) = self.perfect_candidate(circuit) {
                if is_better(&mut candidate, Some(&mut best), circuit) {
                    best = candidate;
                    perfect_placement = true;
                }
            }
        }

        SabreResult {
            best: best.into_routed(circuit),
            best_restart,
            perfect_placement,
            traversals,
            first_traversal_added_gates: 3 * first_traversal_swaps_best.unwrap_or(0),
            elapsed: start.elapsed(),
            profile,
        }
    }

    /// The perfect-placement probe (paper §V-A1: small benchmarks often
    /// admit a coupling subgraph "that can perfectly … match logical qubit
    /// coupling; our algorithm can find such matching"). Spends at most
    /// `config.embedding_probe_budget` backtracking steps looking for a
    /// zero-SWAP embedding of the circuit's interaction graph; on success,
    /// routes once from that placement (guaranteed SWAP-free).
    fn perfect_candidate(&self, circuit: &Circuit) -> Option<Candidate> {
        let budget = self.config.embedding_probe_budget;
        if budget == 0 {
            return None;
        }
        let pattern = InteractionGraph::of(circuit);
        let verdict = match &self.verdicts {
            Some(cache) => cache.find_embedding(&pattern, &self.graph, budget),
            None => embedding::find_embedding_within(&pattern, &self.graph, budget),
        };
        match verdict? {
            Embedding::Found(map) => {
                let layout = self.complete_layout(&map);
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                let pass = pass_log(
                    circuit,
                    &self.graph,
                    &self.cost,
                    layout,
                    &self.config,
                    &mut rng,
                );
                debug_assert_eq!(pass.num_swaps, 0, "embedding was not zero-SWAP");
                Some(Candidate::new(pass))
            }
            Embedding::Impossible => None,
        }
    }

    /// Extends a partial embedding (interacting logicals only) to a full
    /// device-sized bijection: unassigned logical qubits take the free
    /// physical qubits in ascending order (deterministic).
    fn complete_layout(&self, map: &[Option<Qubit>]) -> Layout {
        let n_phys = self.graph.num_qubits() as usize;
        let mut used = vec![false; n_phys];
        for phys in map.iter().flatten() {
            used[phys.index()] = true;
        }
        let mut free = (0..n_phys as u32).map(Qubit).filter(|q| !used[q.index()]);
        let logical_to_physical: Vec<Qubit> = (0..n_phys)
            .map(|logical| match map.get(logical).copied().flatten() {
                Some(phys) => phys,
                None => free.next().expect("bijection leaves enough free qubits"),
            })
            .collect();
        Layout::from_logical_to_physical(logical_to_physical)
            .expect("embedding produces an injective placement")
    }

    /// Routes with a caller-supplied initial mapping and a single forward
    /// pass — no restarts, no reverse traversal. Useful when a placement
    /// is already known (e.g. from [`sabre_topology::embedding`]) and for
    /// ablation studies.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::DeviceTooSmall`] if the circuit does not fit,
    /// or [`RouteError::InvalidConfig`] if `initial_layout` does not cover
    /// the device.
    pub fn route_with_layout(
        &self,
        circuit: &Circuit,
        initial_layout: Layout,
    ) -> Result<RoutedCircuit, RouteError> {
        self.check_fits(circuit)?;
        let n_phys = self.graph.num_qubits();
        if initial_layout.len() != n_phys as usize {
            return Err(RouteError::InvalidConfig {
                reason: format!(
                    "initial layout covers {} qubits, device has {}",
                    initial_layout.len(),
                    n_phys
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        Ok(route_pass(
            circuit,
            &self.graph,
            &self.cost,
            initial_layout,
            &self.config,
            &mut rng,
        ))
    }
}

/// Floor for per-edge SWAP costs in the noise-weighted distance matrix.
///
/// A zero-error coupling is legal (`NoiseModel::uniform(g, 0.0, 0.0)`, or
/// `with_edge_error(…, 0.0)` after a calibration snapshot) and makes
/// `swap_cost = -3·ln(1-0) = 0`. Without a floor the normalization divisor
/// collapses to `f64::MIN_POSITIVE` and every other edge's normalized cost
/// overflows to infinity, which the weighted Floyd–Warshall rejects.
/// Clamping each edge to this floor *before* normalizing keeps every cost
/// finite while preserving the ordering between real couplers: `1e-9` is
/// far below any physical error's cost (ε = 1e-6 already costs 3e-6).
pub(crate) const MIN_EDGE_SWAP_COST: f64 = 1e-9;

/// The noise-weighted cost matrix shared by [`SabreRouter::with_noise`]
/// and the [`crate::DeviceCache`] refresh path: per-edge SWAP costs
/// (floored, see [`MIN_EDGE_SWAP_COST`]) normalized by the cheapest edge
/// so costs stay comparable to hop counts (best coupler ≈ 1 hop), then
/// closed under all-pairs shortest paths (dense below the size
/// threshold, the sparse on-demand engine above it).
pub(crate) fn noise_cost_matrix(
    graph: &CouplingGraph,
    noise: &NoiseModel,
) -> WeightedDistanceMatrix {
    noise_cost_matrix_with_backend(graph, noise, DistanceBackend::Auto)
}

/// [`noise_cost_matrix`] with an explicit backend choice (the
/// equivalence tests force both and compare routing bit-for-bit).
pub(crate) fn noise_cost_matrix_with_backend(
    graph: &CouplingGraph,
    noise: &NoiseModel,
    backend: DistanceBackend,
) -> WeightedDistanceMatrix {
    let edge_cost = |a: Qubit, b: Qubit| noise.swap_cost(a, b).max(MIN_EDGE_SWAP_COST);
    let mut min_cost = graph
        .edges()
        .iter()
        .map(|&(a, b)| edge_cost(a, b))
        .fold(f64::INFINITY, f64::min);
    if !min_cost.is_finite() {
        // Edgeless graph (0 or 1 qubits): the weight closure is never
        // called, but keep the divisor sane anyway.
        min_cost = 1.0;
    }
    WeightedDistanceMatrix::with_backend(graph, |a, b| edge_cost(a, b) / min_cost, backend)
}

/// A forward pass competing to be the route's result: its [`PassLog`],
/// and the routed circuit once something needed it — the depth
/// comparison of a SWAP-count tie, or the final pick. Forward passes
/// traverse the original circuit, so that is the circuit every method
/// takes.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    log: PassLog,
    routed: Option<RoutedCircuit>,
}

impl Candidate {
    fn new(log: PassLog) -> Self {
        Candidate { log, routed: None }
    }

    /// The routed circuit, built from the log on first use.
    fn routed(&mut self, circuit: &Circuit) -> &RoutedCircuit {
        self.routed
            .get_or_insert_with(|| self.log.materialize(circuit))
    }

    fn into_routed(self, circuit: &Circuit) -> RoutedCircuit {
        match self.routed {
            Some(routed) => routed,
            None => self.log.materialize(circuit),
        }
    }
}

/// Best = fewest added gates, ties broken by decomposed depth (the paper's
/// two metrics, in that order). Only a tie builds circuits: the depth of
/// both sides.
fn is_better(
    candidate: &mut Candidate,
    current: Option<&mut Candidate>,
    circuit: &Circuit,
) -> bool {
    match current {
        None => true,
        Some(best) => {
            candidate.log.num_swaps < best.log.num_swaps
                || (candidate.log.num_swaps == best.log.num_swaps
                    && candidate.routed(circuit).depth() < best.routed(circuit).depth())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sabre_circuit::Qubit;
    use sabre_topology::devices;

    fn chain_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n - 1 {
            c.cx(Qubit(i), Qubit(i + 1));
        }
        c
    }

    #[test]
    fn rejects_disconnected_device() {
        let g = CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            SabreRouter::new(g, SabreConfig::default()).unwrap_err(),
            RouteError::DisconnectedDevice
        );
    }

    #[test]
    fn rejects_invalid_config() {
        let g = devices::linear(3);
        let config = SabreConfig {
            num_traversals: 2,
            ..SabreConfig::default()
        };
        assert!(matches!(
            SabreRouter::new(g.graph().clone(), config),
            Err(RouteError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_oversized_circuit() {
        let g = devices::linear(3);
        let router = SabreRouter::new(g.graph().clone(), SabreConfig::fast()).unwrap();
        let c = chain_circuit(5);
        assert_eq!(
            router.route(&c).unwrap_err(),
            RouteError::DeviceTooSmall {
                required: 5,
                available: 3
            }
        );
    }

    #[test]
    fn full_pipeline_routes_and_reports() {
        let device = devices::ibm_q20_tokyo();
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::default()).unwrap();
        let c = chain_circuit(10);
        let result = router.route(&c).unwrap();
        // 5 restarts × 3 traversals.
        assert_eq!(result.traversals.len(), 15);
        assert!(result.best_restart < 5);
        // A chain embeds into Tokyo; with so few gates (9 CX, each pair
        // once) the heuristic signal is weak, but the pipeline must land
        // within one SWAP of the optimum. (The repeated-interaction Ising
        // benchmarks hit exactly 0 — see tests/ising_optimality.rs.)
        assert!(
            result.added_gates() <= 3,
            "chain should need at most one SWAP, got {}",
            result.added_gates()
        );
        assert_eq!(result.best.forced_routings, 0);
    }

    #[test]
    fn reverse_traversal_never_hurts_the_reported_result() {
        // The final result must be at least as good as the best single
        // forward pass would report (g_op ≤ g_la on every Table II row the
        // paper shows — here we check our implementation preserves that).
        let device = devices::ibm_q20_tokyo();
        let c = {
            let mut c = Circuit::new(12);
            for r in 0..60u32 {
                let a = (r * 5 + 3) % 12;
                let b = (r * 7 + 1) % 12;
                if a != b {
                    c.cx(Qubit(a), Qubit(b));
                }
            }
            c
        };
        let full = SabreRouter::new(device.graph().clone(), SabreConfig::default())
            .unwrap()
            .route(&c)
            .unwrap();
        assert!(
            full.added_gates() <= full.first_traversal_added_gates,
            "g_op={} > g_la={}",
            full.added_gates(),
            full.first_traversal_added_gates
        );
    }

    #[test]
    fn route_with_layout_uses_given_placement() {
        let device = devices::linear(4);
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(3));
        // Place q0 and q3 adjacent up front: no swaps needed.
        let layout =
            Layout::from_logical_to_physical(vec![Qubit(1), Qubit(0), Qubit(3), Qubit(2)]).unwrap();
        let routed = router.route_with_layout(&c, layout).unwrap();
        assert_eq!(routed.num_swaps, 0);
    }

    #[test]
    fn route_with_layout_rejects_wrong_size() {
        let device = devices::linear(4);
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let c = chain_circuit(3);
        let small = Layout::identity(3);
        assert!(matches!(
            router.route_with_layout(&c, small),
            Err(RouteError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn deterministic_across_calls() {
        let device = devices::ibm_q20_tokyo();
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::default()).unwrap();
        let c = chain_circuit(8);
        let a = router.route(&c).unwrap();
        let b = router.route(&c).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.traversals, b.traversals);
    }

    #[test]
    fn different_seeds_may_differ_but_stay_compliant() {
        let device = devices::ibm_q20_tokyo();
        let c = {
            let mut c = Circuit::new(10);
            for r in 0..40u32 {
                let a = (r * 3 + 1) % 10;
                let b = (r * 7 + 4) % 10;
                if a != b {
                    c.cx(Qubit(a), Qubit(b));
                }
            }
            c
        };
        for seed in [1u64, 2, 3] {
            let config = SabreConfig {
                seed,
                ..SabreConfig::fast()
            };
            let result = SabreRouter::new(device.graph().clone(), config)
                .unwrap()
                .route(&c)
                .unwrap();
            for gate in result.best.physical.gates() {
                if let (a, Some(b)) = gate.qubits() {
                    assert!(device.graph().are_coupled(a, b));
                }
            }
        }
    }

    #[test]
    fn noise_aware_router_avoids_bad_couplers() {
        // Ring 0-1-2-3-0; CX(q0,q2) can be resolved by swapping through
        // Q1 or Q3. Make every edge touching Q1 terrible: the noise-aware
        // router must route around it, the hop-based one cannot tell.
        let graph = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let noise = sabre_topology::noise::NoiseModel::uniform(&graph, 0.001, 0.0001)
            .with_edge_error(Qubit(0), Qubit(1), 0.4)
            .with_edge_error(Qubit(1), Qubit(2), 0.4);
        let config = SabreConfig {
            num_restarts: 1,
            num_traversals: 1,
            ..SabreConfig::default()
        };
        let router = SabreRouter::with_noise(graph.clone(), config, &noise).unwrap();
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(2));
        let routed = router.route_with_layout(&c, Layout::identity(4)).unwrap();
        assert_eq!(routed.num_swaps, 1);
        for gate in routed.physical.gates() {
            if gate.is_swap() {
                let (a, b) = gate.qubits();
                let b = b.unwrap();
                assert!(
                    noise.edge_error(a, b) < 0.1,
                    "noise-aware router crossed a bad coupler ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn zero_error_noise_model_degenerates_to_hop_routing() {
        // Regression: a legal all-zero-error model used to divide every
        // edge cost by `f64::MIN_POSITIVE`. With the per-edge floor, every
        // normalized cost is exactly 1.0 — the hop matrix — so routing
        // must be bit-identical to the noise-free router.
        let device = devices::ibm_q20_tokyo();
        let noise = NoiseModel::uniform(device.graph(), 0.0, 0.0);
        let config = SabreConfig::default();
        let noisy = SabreRouter::with_noise(device.graph().clone(), config, &noise).unwrap();
        let plain = SabreRouter::new(device.graph().clone(), config).unwrap();
        let c = chain_circuit(10);
        let a = noisy.route(&c).unwrap();
        let b = plain.route(&c).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.traversals, b.traversals);
    }

    #[test]
    fn zero_error_edge_does_not_blow_up_other_costs() {
        // Regression: one perfect coupler among lossy ones used to push
        // every other normalized cost to infinity (panicking the weighted
        // Floyd–Warshall). The zero-error edge must simply be the cheapest.
        let graph = CouplingGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let noise =
            NoiseModel::uniform(&graph, 0.05, 0.001).with_edge_error(Qubit(0), Qubit(1), 0.0);
        let router = SabreRouter::with_noise(graph, SabreConfig::fast(), &noise).unwrap();
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(2));
        let result = router.route(&c).unwrap();
        assert!(result.best.num_swaps <= 1);

        let cost = noise_cost_matrix(router.graph(), &noise);
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert!(
                    cost.get(Qubit(i), Qubit(j)).is_finite(),
                    "cost ({i},{j}) must be finite"
                );
            }
        }
        // The perfect coupler dominates: it is strictly the cheapest edge.
        assert!(cost.get(Qubit(0), Qubit(1)) < cost.get(Qubit(1), Qubit(2)));
    }

    #[test]
    fn noise_aware_router_still_verifies() {
        let device = devices::ibm_q20_tokyo();
        let noise = sabre_topology::noise::NoiseModel::calibrated(device.graph(), 0.02, 4.0, 3);
        let router =
            SabreRouter::with_noise(device.graph().clone(), SabreConfig::fast(), &noise).unwrap();
        let c = {
            let mut c = Circuit::new(12);
            for r in 0..80u32 {
                let a = (r * 5 + 3) % 12;
                let b = (r * 7 + 1) % 12;
                if a != b {
                    c.cx(Qubit(a), Qubit(b));
                }
            }
            c
        };
        let result = router.route(&c).unwrap();
        for gate in result.best.physical.gates() {
            if let (a, Some(b)) = gate.qubits() {
                assert!(device.graph().are_coupled(a, b));
            }
        }
    }

    #[test]
    fn computed_initial_layout_reproduces_best_routing() {
        let device = devices::ibm_q20_tokyo();
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
        let circuit = {
            let mut c = Circuit::new(10);
            for i in 0..9 {
                c.cx(Qubit(i), Qubit(i + 1));
                c.cx(Qubit(i), Qubit(i + 1));
            }
            c
        };
        let full = router.route(&circuit).unwrap();
        // Routing again from the best restart's initial layout must cost
        // no more than the full pipeline found (it is the same placement).
        let layout = full.best.initial_layout.clone();
        let single = router.route_with_layout(&circuit, layout).unwrap();
        assert!(single.num_swaps <= full.best.num_swaps + 1);
    }

    #[test]
    fn elapsed_time_is_recorded() {
        let device = devices::linear(4);
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let result = router.route(&chain_circuit(4)).unwrap();
        assert!(result.elapsed.as_nanos() > 0);
    }

    use sabre_topology::CouplingGraph;

    /// The driver as it was before passes became logs: every traversal
    /// through the eager `reference_route_pass`, and the best forward pass
    /// picked on built circuits (fewest SWAPs, then decomposed depth) with
    /// the same per-restart seeding and `Layout::initial`. Returns the
    /// result's fields plus how many comparisons tied on `num_swaps` and
    /// were decided by depth.
    fn eager_reference_route(
        router: &SabreRouter,
        circuit: &Circuit,
    ) -> (RoutedCircuit, usize, Vec<TraversalReport>, usize, usize) {
        fn better(
            candidate: &RoutedCircuit,
            current: Option<&RoutedCircuit>,
            depth_ties: &mut usize,
        ) -> bool {
            match current {
                None => true,
                Some(best) => {
                    let tie = candidate.num_swaps == best.num_swaps;
                    *depth_ties += usize::from(tie && candidate.depth() != best.depth());
                    candidate.num_swaps < best.num_swaps
                        || (tie && candidate.depth() < best.depth())
                }
            }
        }
        let config = &router.config;
        let reversed = circuit.reversed();
        let mut depth_ties = 0;
        let (mut best, mut best_restart, mut first_best) = (None, 0, usize::MAX);
        let mut traversals = Vec::new();
        for restart in 0..config.num_restarts {
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let mut layout = Layout::initial(&router.graph, circuit.num_qubits(), &mut rng);
            let mut restart_best: Option<RoutedCircuit> = None;
            for traversal in 0..config.num_traversals {
                let reversed_pass = traversal % 2 == 1;
                let traversed = if reversed_pass { &reversed } else { circuit };
                let pass = crate::reference::reference_route_pass(
                    traversed,
                    &router.graph,
                    &router.cost,
                    layout,
                    config,
                    &mut rng,
                );
                layout = pass.final_layout.clone();
                traversals.push(TraversalReport {
                    restart,
                    traversal,
                    reversed: reversed_pass,
                    num_swaps: pass.num_swaps,
                });
                if traversal == 0 {
                    first_best = first_best.min(pass.num_swaps);
                }
                if !reversed_pass && better(&pass, restart_best.as_ref(), &mut depth_ties) {
                    restart_best = Some(pass);
                }
            }
            let candidate = restart_best.expect("odd traversal count");
            if better(&candidate, best.as_ref(), &mut depth_ties) {
                best = Some(candidate);
                best_restart = restart;
            }
        }
        let best = best.expect("at least one restart");
        (best, best_restart, traversals, 3 * first_best, depth_ties)
    }

    #[test]
    fn logged_passes_pick_what_the_eager_reference_driver_picks() {
        // Four Table II rows on Tokyo at the paper configuration, probe
        // off. On qft_10 two forward passes tie on SWAPs at different
        // depths, so only the built circuits' depths pick the winner.
        let device = devices::ibm_q20_tokyo();
        let config = SabreConfig {
            embedding_probe_budget: 0,
            ..SabreConfig::paper()
        };
        let router = SabreRouter::new(device.graph().clone(), config).unwrap();
        let (mut depth_ties, mut fanned_out) = (0, 0);
        for name in ["4gt13_92", "ising_model_10", "qft_10", "rd84_142"] {
            let circuit = sabre_benchgen::registry::by_name(name)
                .expect("Table II row")
                .generate();
            let result = router.route(&circuit).unwrap();
            let (best, best_restart, traversals, first, row_ties) =
                eager_reference_route(&router, &circuit);
            assert_eq!(result.best, best, "{name}");
            assert_eq!(result.best_restart, best_restart, "{name}");
            assert_eq!(result.traversals, traversals, "{name}");
            assert_eq!(result.first_traversal_added_gates, first, "{name}");
            depth_ties += row_ties;
            let restart0_steps: usize = traversals
                .iter()
                .filter(|t| t.restart == 0)
                .map(|t| t.num_swaps)
                .sum();
            fanned_out += usize::from(restart0_steps >= FAN_OUT_STEPS);
        }
        assert!(
            depth_ties > 0,
            "a SWAP-count tie must reach the depth tie-break"
        );
        // rd84_142 (123 restart-0 SWAPs) fans its restarts out, so the
        // eager oracle also pins the concurrent path.
        assert!(fanned_out > 0, "some row must cross FAN_OUT_STEPS");
    }
}
