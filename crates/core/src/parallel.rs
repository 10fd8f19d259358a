//! Batch entry points: many circuits routed or transpiled concurrently.
//!
//! SABRE's quality comes from running many independent trials — random
//! initial mappings (past 128 physical qubits, random BFS balls), each
//! refined by bidirectional traversals — and keeping the best (paper
//! §IV; trial count dominates result quality).
//! Those trials share nothing but the router's immutable preprocessing
//! (the distance/cost matrices built once in [`SabreRouter::new`]), so
//! they parallelize at two grains:
//!
//! - [`SabreRouter::route`] spreads one circuit's `num_restarts` trials
//!   across the rayon pool once restart 0's search shows enough work;
//! - [`SabreRouter::route_batch`] routes many circuits at once, one trial
//!   pipeline per circuit;
//! - [`transpile_batch`] runs the full transpilation pipeline (route →
//!   decompose → optimize → fix directions) over a whole corpus.
//!
//! The grains do not multiply: a parallel call made from inside a batch
//! worker runs inline, so each circuit's restarts stay on the worker that
//! took the circuit.
//!
//! # Determinism
//!
//! Every trial seeds its own RNG from `(config.seed, restart_index)` and
//! results are reduced in restart order, so output is **bit-identical
//! at any thread count** for a fixed seed — only the wall-clock
//! `elapsed` field differs. Tests in `tests/parallel_engine.rs` pin this
//! down, including a property test over trial counts.
//!
//! # Sharing
//!
//! Workers borrow the router (`&self`) across `rayon`'s scoped threads:
//! one `WeightedDistanceMatrix` serves every trial with zero copies; a
//! sparse one is read through per-traversal pinned rows, so trials touch
//! its row-cache lock only on a pin miss.

use rayon::prelude::*;
use sabre_circuit::Circuit;
use sabre_topology::CouplingGraph;

use crate::transpile::finish_routed;
use crate::{DeviceCache, RouteError, SabreResult, SabreRouter, TranspileOptions, TranspileOutput};

impl SabreRouter {
    /// Routes a batch of circuits concurrently — one full trial pipeline
    /// per circuit, circuits fanned across the pool. Once the batch fans
    /// out (two or more circuits, two or more threads), each circuit's
    /// restarts run inline on its worker: a nested parallel call does not
    /// fan out again. This is the right granularity for corpus
    /// workloads: trials of the same circuit stay on one worker (warm
    /// caches), distinct circuits load-balance dynamically.
    ///
    /// `results[i]` corresponds to `circuits[i]`; each circuit fails or
    /// succeeds independently.
    pub fn route_batch(&self, circuits: &[Circuit]) -> Vec<Result<SabreResult, RouteError>> {
        circuits
            .par_iter()
            .map(|circuit| self.route(circuit))
            .collect()
    }
}

/// Batch [`transpile`](crate::transpile()): builds the router (and its
/// distance matrices) **once**, then runs the complete pipeline — route,
/// decompose SWAPs, peephole-optimize, fix CNOT directions — for every
/// circuit concurrently.
///
/// `results[i]` corresponds to `circuits[i]`; per-circuit routing errors
/// (e.g. [`RouteError::DeviceTooSmall`]) land in that slot without
/// poisoning the rest of the batch.
///
/// # Errors
///
/// Router construction problems ([`RouteError::InvalidConfig`],
/// [`RouteError::DisconnectedDevice`]) fail the whole batch — they do not
/// depend on any circuit.
pub fn transpile_batch(
    circuits: &[Circuit],
    graph: &CouplingGraph,
    options: &TranspileOptions,
) -> Result<Vec<Result<TranspileOutput, RouteError>>, RouteError> {
    let router = match &options.noise {
        Some(noise) => SabreRouter::with_noise(graph.clone(), options.config, noise)?,
        None => SabreRouter::new(graph.clone(), options.config)?,
    };
    Ok(run_batch(&router, circuits, options))
}

/// Per-circuit outcome of [`transpile_batch_cached`]: a batch never fails
/// as a whole — every slot reports success or the error that sank it, so a
/// serving layer can return partial-success responses instead of turning
/// one bad circuit (or a bad batch-level option) into an all-or-nothing
/// failure.
#[derive(Clone, Debug)]
pub enum BatchOutcome {
    /// This circuit transpiled successfully.
    Transpiled(TranspileOutput),
    /// This circuit failed. When the error is batch-level (invalid config,
    /// disconnected device — conditions independent of any circuit) every
    /// slot carries a copy of it.
    Failed(RouteError),
}

impl BatchOutcome {
    /// Whether this slot succeeded.
    pub fn is_transpiled(&self) -> bool {
        matches!(self, BatchOutcome::Transpiled(_))
    }

    /// The output, if this slot succeeded.
    pub fn output(&self) -> Option<&TranspileOutput> {
        match self {
            BatchOutcome::Transpiled(out) => Some(out),
            BatchOutcome::Failed(_) => None,
        }
    }

    /// The error, if this slot failed.
    pub fn error(&self) -> Option<&RouteError> {
        match self {
            BatchOutcome::Transpiled(_) => None,
            BatchOutcome::Failed(err) => Some(err),
        }
    }

    /// View as a standard `Result` (what pre-`BatchOutcome` callers
    /// consumed).
    pub fn as_result(&self) -> Result<&TranspileOutput, &RouteError> {
        match self {
            BatchOutcome::Transpiled(out) => Ok(out),
            BatchOutcome::Failed(err) => Err(err),
        }
    }
}

/// [`transpile_batch`] against a [`DeviceCache`]: the router comes from
/// the cache, so across *calls* (the shape of a transpilation service —
/// many batches, few devices) the `O(N³)` preprocessing runs once per
/// device instead of once per batch, and probe verdicts accumulate.
/// Successful slots are bit-identical to [`transpile_batch`] for a fixed
/// seed.
///
/// The cache's routed-plan layer ([`DeviceCache::plans`]) is consulted
/// per circuit: a submission whose *structure* (gate kinds and operands,
/// angles excluded) was routed before under the same device, noise, and
/// objective config is answered by parameter rebinding — zero search
/// steps — and every fresh route is proven and fed back into the plan
/// cache; a route that fails the proof fails its slot with
/// [`RouteError::Unverified`]. This is what makes variational parameter
/// sweeps (`N` structurally identical batches with different angles)
/// cost one route total; see [`crate::plan`] for the key and collision
/// discipline.
///
/// Unlike [`transpile_batch`], this never fails as a whole: router
/// construction errors (invalid config, disconnected device) are
/// replicated into **every** slot as [`BatchOutcome::Failed`], and
/// per-circuit errors land in their own slot — the partial-success shape a
/// long-running service needs. `results[i]` corresponds to `circuits[i]`.
///
/// # Example
///
/// ```
/// use sabre::{transpile_batch_cached, DeviceCache, TranspileOptions};
/// use sabre_benchgen::qft;
/// use sabre_topology::devices;
///
/// let cache = DeviceCache::new();
/// let tokyo = devices::ibm_q20_tokyo();
/// // qft(25) needs more qubits than Tokyo has: its slot fails, the
/// // others are unaffected.
/// let circuits = vec![qft::qft(4), qft::qft(25), qft::qft(5)];
/// for _ in 0..3 {
///     let outcomes =
///         transpile_batch_cached(&circuits, tokyo.graph(), &TranspileOptions::default(), &cache);
///     assert!(outcomes[0].is_transpiled());
///     assert!(outcomes[1].error().is_some());
///     assert!(outcomes[2].is_transpiled());
/// }
/// // Preprocessing ran once; the two later batches were warm.
/// assert_eq!(cache.stats().graph_misses, 1);
/// ```
pub fn transpile_batch_cached(
    circuits: &[Circuit],
    graph: &CouplingGraph,
    options: &TranspileOptions,
    cache: &DeviceCache,
) -> Vec<BatchOutcome> {
    let router = match &options.noise {
        Some(noise) => cache.router_with_noise(graph, options.config, noise),
        None => cache.router(graph, options.config),
    };
    match router {
        Ok(router) => {
            let plans = cache.plans();
            let noise = options.noise.as_ref();
            circuits
                .par_iter()
                .map(|circuit| {
                    if let Some(hit) = plans.lookup(circuit, graph, noise, router.config()) {
                        return BatchOutcome::Transpiled(finish_routed(hit.best, options));
                    }
                    match router.route(circuit) {
                        Ok(result) => {
                            match plans.insert(circuit, graph, noise, router.config(), &result) {
                                Ok(_) => {
                                    BatchOutcome::Transpiled(finish_routed(result.best, options))
                                }
                                Err(err) => BatchOutcome::Failed(RouteError::Unverified(err)),
                            }
                        }
                        Err(err) => BatchOutcome::Failed(err),
                    }
                })
                .collect()
        }
        Err(err) => circuits
            .iter()
            .map(|_| BatchOutcome::Failed(err.clone()))
            .collect(),
    }
}

/// The shared fan-out: route every circuit concurrently and finish each
/// routing (decompose, optimize, fix directions) in place.
fn run_batch(
    router: &SabreRouter,
    circuits: &[Circuit],
    options: &TranspileOptions,
) -> Vec<Result<TranspileOutput, RouteError>> {
    circuits
        .par_iter()
        .map(|circuit| {
            let result = router.route(circuit)?;
            Ok(finish_routed(result.best, options))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SabreConfig;
    use sabre_circuit::Qubit;
    use sabre_topology::devices;
    use sabre_verify::VerifyError;

    fn workload(n: u32, rounds: u32, stride: (u32, u32)) -> Circuit {
        let mut c = Circuit::new(n);
        for r in 0..rounds {
            let a = (r * stride.0 + 3) % n;
            let b = (r * stride.1 + 1) % n;
            if a != b {
                c.cx(Qubit(a), Qubit(b));
            }
        }
        c
    }

    /// The deterministic fields of two results must agree exactly.
    fn assert_same_result(a: &SabreResult, b: &SabreResult) {
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_restart, b.best_restart);
        assert_eq!(a.perfect_placement, b.perfect_placement);
        assert_eq!(a.traversals, b.traversals);
        assert_eq!(a.first_traversal_added_gates, b.first_traversal_added_gates);
    }

    #[test]
    fn parallel_equals_sequential_on_paper_config() {
        // Restart 0 of this circuit crosses the fan-out threshold, so
        // `route` spreads restarts 1..5; `route_batch` runs each copy's
        // restarts inline on its worker.
        let device = devices::ibm_q20_tokyo();
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
        let circuit = sabre_benchgen::random::random_circuit(14, 160, 0.7, 11);
        let fanned = router.route(&circuit).unwrap();
        let restart0_steps: usize = fanned.traversals[..3].iter().map(|t| t.num_swaps).sum();
        assert!(restart0_steps >= crate::sabre::FAN_OUT_STEPS);
        for inline in router.route_batch(&[circuit.clone(), circuit]) {
            assert_same_result(&fanned, &inline.unwrap());
        }
    }

    #[test]
    fn parallel_rejects_oversized_circuits_like_sequential() {
        let device = devices::linear(3);
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let circuit = workload(5, 10, (2, 3));
        for inline in router.route_batch(&[circuit.clone(), circuit.clone()]) {
            assert_eq!(inline.unwrap_err(), router.route(&circuit).unwrap_err());
        }
    }

    #[test]
    fn batch_preserves_order_and_isolates_errors() {
        let device = devices::linear(4);
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let circuits = vec![
            workload(4, 12, (3, 2)),
            workload(6, 12, (3, 2)), // too big for 4 physical qubits
            workload(3, 6, (2, 1)),
        ];
        let results = router.route_batch(&circuits);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(RouteError::DeviceTooSmall {
                required: 6,
                available: 4
            })
        ));
        // Slot 2 must match routing circuit 2 alone (order was kept).
        let alone = router.route(&circuits[2]).unwrap();
        assert_same_result(results[2].as_ref().unwrap(), &alone);
    }

    #[test]
    fn transpile_batch_matches_single_transpile() {
        let device = devices::ibm_q20_tokyo();
        let options = TranspileOptions::default();
        let circuits: Vec<Circuit> = (0..6).map(|i| workload(10, 40 + i, (5, 7))).collect();
        let batch = transpile_batch(&circuits, device.graph(), &options).unwrap();
        for (circuit, out) in circuits.iter().zip(&batch) {
            let single = crate::transpile(circuit, device.graph(), &options).unwrap();
            let out = out.as_ref().unwrap();
            assert_eq!(out.circuit, single.circuit);
            assert_eq!(out.initial_layout, single.initial_layout);
            assert_eq!(out.final_layout, single.final_layout);
            assert_eq!(out.swaps_inserted, single.swaps_inserted);
            assert_eq!(out.gates_removed, single.gates_removed);
        }
    }

    #[test]
    fn cached_batches_match_uncached_and_reuse_preprocessing() {
        let device = devices::ibm_q20_tokyo();
        let cache = DeviceCache::new();
        let options = TranspileOptions::default();
        let circuits: Vec<Circuit> = (0..4).map(|i| workload(10, 30 + i, (5, 7))).collect();
        let uncached = transpile_batch(&circuits, device.graph(), &options).unwrap();
        for round in 0..2 {
            let cached = transpile_batch_cached(&circuits, device.graph(), &options, &cache);
            for (a, b) in uncached.iter().zip(&cached) {
                let (a, b) = (a.as_ref().unwrap(), b.output().unwrap());
                assert_eq!(a.circuit, b.circuit, "round {round}");
                assert_eq!(a.initial_layout, b.initial_layout);
                assert_eq!(a.final_layout, b.final_layout);
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.graph_misses, stats.graph_hits), (1, 1));
    }

    #[test]
    fn cached_batch_rebinds_reparameterized_sweeps() {
        let device = devices::ibm_q20_tokyo();
        let cache = DeviceCache::new();
        let options = TranspileOptions::default();
        // Strides of 2 keep the structures distinct (`workload` skips
        // self-pair rounds, so consecutive counts can coincide).
        let sweep = |theta: f64| -> Vec<Circuit> {
            (0..3)
                .map(|i| {
                    let mut c = workload(10, 30 + 2 * i, (5, 7));
                    c.rz(Qubit(0), theta);
                    c
                })
                .collect()
        };
        // Round 0 routes; rounds 1..4 differ only in angles, so every
        // slot is served by rebinding — zero additional routes.
        let mut baseline = Vec::new();
        for round in 0..4 {
            let circuits = sweep(round as f64 * 0.7);
            let outcomes = transpile_batch_cached(&circuits, device.graph(), &options, &cache);
            // Every round must be bit-identical to uncached transpilation.
            let fresh = transpile_batch(&circuits, device.graph(), &options).unwrap();
            for (a, b) in outcomes.iter().zip(&fresh) {
                assert_eq!(a.output().unwrap().circuit, b.as_ref().unwrap().circuit);
            }
            if round == 0 {
                baseline = outcomes
                    .iter()
                    .map(|o| o.output().unwrap().swaps_inserted)
                    .collect();
            } else {
                for (o, &swaps) in outcomes.iter().zip(&baseline) {
                    assert_eq!(o.output().unwrap().swaps_inserted, swaps);
                }
            }
        }
        let stats = cache.plans().stats();
        assert_eq!(stats.misses, 3, "only round 0 routes");
        assert_eq!(stats.hits, 9, "3 circuits × 3 warm rounds rebind");
    }

    #[test]
    fn transpile_batch_surfaces_construction_errors() {
        let disconnected = sabre_topology::CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let err = transpile_batch(&[], &disconnected, &TranspileOptions::default()).unwrap_err();
        assert_eq!(err, RouteError::DisconnectedDevice);
    }

    #[test]
    fn cached_batch_isolates_per_circuit_errors() {
        let device = devices::linear(4);
        let cache = DeviceCache::new();
        let circuits = vec![
            workload(4, 12, (3, 2)),
            workload(6, 12, (3, 2)), // too big for 4 physical qubits
            workload(3, 6, (2, 1)),
        ];
        let outcomes = transpile_batch_cached(
            &circuits,
            device.graph(),
            &TranspileOptions::default(),
            &cache,
        );
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_transpiled());
        assert_eq!(
            outcomes[1].error(),
            Some(&RouteError::DeviceTooSmall {
                required: 6,
                available: 4
            })
        );
        assert!(outcomes[2].is_transpiled());
        assert!(outcomes[1].as_result().is_err());
    }

    #[test]
    fn cached_batch_fails_the_slot_of_a_plan_that_fails_its_proof() {
        // A NaN angle routes like any other, but NaN ≠ NaN, so the replay
        // cannot match the routed gate to the input's.
        let device = devices::linear(4);
        let cache = DeviceCache::new();
        let mut nan = workload(3, 6, (2, 1));
        nan.rz(Qubit(0), f64::NAN);
        let circuits = vec![workload(4, 12, (3, 2)), nan];
        let outcomes = transpile_batch_cached(
            &circuits,
            device.graph(),
            &TranspileOptions::default(),
            &cache,
        );
        assert!(outcomes[0].is_transpiled());
        assert!(
            matches!(
                outcomes[1].error(),
                Some(RouteError::Unverified(VerifyError::UnexpectedGate { .. }))
            ),
            "{:?}",
            outcomes[1].error()
        );
        assert_eq!(cache.plans().len(), 1, "the unproven plan is not cached");
    }

    #[test]
    fn cached_batch_replicates_batch_level_errors_per_slot() {
        let disconnected = sabre_topology::CouplingGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cache = DeviceCache::new();
        let circuits = vec![workload(3, 6, (2, 1)), workload(3, 8, (2, 1))];
        let outcomes = transpile_batch_cached(
            &circuits,
            &disconnected,
            &TranspileOptions::default(),
            &cache,
        );
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            assert_eq!(outcome.error(), Some(&RouteError::DisconnectedDevice));
        }

        let bad_config = TranspileOptions {
            config: SabreConfig {
                num_traversals: 2,
                ..SabreConfig::default()
            },
            ..TranspileOptions::default()
        };
        let outcomes =
            transpile_batch_cached(&circuits, devices::linear(4).graph(), &bad_config, &cache);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.error(), Some(RouteError::InvalidConfig { .. }))));
    }
}
