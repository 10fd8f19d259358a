//! Workspace-level contract tests for the rayon-parallel multi-seed
//! engine: `route`, which fans a circuit's restarts out once restart 0
//! shows enough work, must be bit-identical to the inline restart loop a
//! `route_batch` worker runs, and batch APIs must produce verified,
//! ordered results.

use proptest::prelude::*;
use sabre::{transpile_batch, SabreConfig, SabreResult, SabreRouter, TranspileOptions};
use sabre_benchgen::{qft, random};
use sabre_circuit::Circuit;
use sabre_topology::devices;
use sabre_verify::{verify_routed, verify_semantics_small};

/// The deterministic fields of two results must agree exactly; `elapsed`
/// is wall-clock and deliberately excluded.
fn assert_same_result(label: &str, a: &SabreResult, b: &SabreResult) {
    assert_eq!(a.best, b.best, "{label}: best routing diverged");
    assert_eq!(a.best_restart, b.best_restart, "{label}: best_restart");
    assert_eq!(
        a.perfect_placement, b.perfect_placement,
        "{label}: perfect_placement"
    );
    assert_eq!(a.traversals, b.traversals, "{label}: traversal telemetry");
    assert_eq!(
        a.first_traversal_added_gates, b.first_traversal_added_gates,
        "{label}: first-traversal metric"
    );
}

/// Outcomes fold in restart order, so the traversal telemetry lists
/// restart 0's traversals first, then restart 1's, and so on. Batch
/// workers run the same fold, so only this check catches a fold that
/// reorders restarts on both paths alike.
fn in_restart_order(result: &SabreResult) -> bool {
    result
        .traversals
        .windows(2)
        .all(|w| (w[0].restart, w[0].traversal) < (w[1].restart, w[1].traversal))
}

/// `route` next to the same circuit routed by `route_batch` over two
/// copies: each batch worker runs the circuit's restarts inline (a nested
/// parallel call does not fan out), so this compares the fanned-out and
/// the sequential restart loops whenever `route` fans out.
fn assert_route_matches_inline(label: &str, router: &SabreRouter, circuit: &Circuit) {
    let routed = router.route(circuit).unwrap();
    assert!(
        in_restart_order(&routed),
        "{label}: restarts folded out of order"
    );
    for inline in router.route_batch(&[circuit.clone(), circuit.clone()]) {
        assert_same_result(label, &routed, &inline.unwrap());
    }
}

/// Fixed-seed determinism across the sequential and parallel engines, on
/// the paper configuration and a spread of circuits.
#[test]
fn parallel_is_bit_identical_to_sequential() {
    let device = devices::ibm_q20_tokyo();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    let workloads = vec![
        ("qft8", qft::qft(8)),
        ("random12", random::random_circuit(12, 120, 0.7, 7)),
        ("random16", random::random_circuit(16, 200, 0.6, 21)),
        ("empty", Circuit::new(1)),
    ];
    for (label, circuit) in &workloads {
        assert_route_matches_inline(label, &router, circuit);
    }

    // Past the dense threshold each restart starts from a BFS ball drawn
    // from its own RNG stream; the identity must hold there too.
    let grid = devices::grid(33, 33);
    let config = SabreConfig {
        num_restarts: 3,
        ..SabreConfig::paper()
    };
    let router = SabreRouter::new(grid.graph().clone(), config).unwrap();
    let circuit = random::random_circuit(40, 200, 0.8, 33);
    assert_route_matches_inline("grid33x33/random40", &router, &circuit);
}

/// Determinism also holds run-to-run (the parallel engine cannot be
/// schedule-dependent) and under thread-count changes via the batch API.
#[test]
fn parallel_is_stable_across_runs() {
    let device = devices::ibm_q20_tokyo();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    let circuit = random::random_circuit(14, 150, 0.65, 3);
    let first = router.route(&circuit).unwrap();
    for _ in 0..3 {
        let again = router.route(&circuit).unwrap();
        assert_same_result("rerun", &first, &again);
    }
}

/// Batch routing: every output verifies against its own input (the
/// permutation-replay check from `sabre_verify`), in order.
#[test]
fn route_batch_outputs_all_verify() {
    let device = devices::ibm_q20_tokyo();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    let circuits: Vec<Circuit> = (0..10)
        .map(|i| {
            random::random_circuit(4 + (i % 5) * 3, 30 + i as usize * 17, 0.6, 1000 + i as u64)
        })
        .collect();
    let results = router.route_batch(&circuits);
    assert_eq!(results.len(), circuits.len());
    for (i, (circuit, result)) in circuits.iter().zip(&results).enumerate() {
        let result = result
            .as_ref()
            .unwrap_or_else(|e| panic!("circuit {i}: {e}"));
        let routed = &result.best;
        verify_routed(
            circuit,
            &routed.physical,
            routed.initial_layout.logical_to_physical(),
            routed.final_layout.logical_to_physical(),
            device.graph(),
        )
        .unwrap_or_else(|e| panic!("circuit {i} failed verification: {e}"));
        // And each slot matches routing that circuit alone.
        assert_same_result("batch-vs-single", result, &router.route(circuit).unwrap());
    }
}

/// Batch transpilation: full pipeline outputs stay semantically faithful
/// on registers small enough to simulate.
#[test]
fn transpile_batch_outputs_are_semantically_faithful() {
    let device = devices::linear(6);
    let circuits: Vec<Circuit> = (0..6)
        .map(|i| random::random_circuit(5, 25 + i * 9, 0.6, 77 + i as u64))
        .collect();
    let outputs = transpile_batch(&circuits, device.graph(), &TranspileOptions::default()).unwrap();
    assert_eq!(outputs.len(), circuits.len());
    for (i, (circuit, out)) in circuits.iter().zip(&outputs).enumerate() {
        let out = out.as_ref().unwrap_or_else(|e| panic!("circuit {i}: {e}"));
        verify_semantics_small(
            circuit,
            &out.circuit,
            out.initial_layout.logical_to_physical(),
            out.final_layout.logical_to_physical(),
        )
        .unwrap_or_else(|e| panic!("circuit {i} not equivalent: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel ≡ sequential for arbitrary trial counts, seeds, and
    /// circuits — the determinism contract is not an artifact of the
    /// paper's 5-restart configuration. The sequential side is a
    /// `route_batch` worker's inline restart loop.
    #[test]
    fn parallel_matches_sequential_for_any_trial_count(
        num_restarts in 1usize..12,
        num_traversals in 0usize..3,
        seed in any::<u64>(),
        (n, gates, circuit_seed) in (2u32..=10, 0usize..160, any::<u64>()),
    ) {
        let num_traversals = 2 * num_traversals + 1; // must be odd
        let circuit = random::random_circuit(n, gates, 0.6, circuit_seed);
        let config = SabreConfig {
            num_restarts,
            num_traversals,
            seed,
            ..SabreConfig::paper()
        };
        let router = SabreRouter::new(devices::ibm_q20_tokyo().graph().clone(), config).unwrap();
        let parallel = router.route(&circuit).unwrap();
        let sequential = router
            .route_batch(&[circuit.clone(), circuit])
            .swap_remove(1)
            .unwrap();
        prop_assert_eq!(&sequential.best, &parallel.best);
        prop_assert_eq!(sequential.best_restart, parallel.best_restart);
        prop_assert_eq!(sequential.perfect_placement, parallel.perfect_placement);
        prop_assert_eq!(&sequential.traversals, &parallel.traversals);
        prop_assert_eq!(
            sequential.first_traversal_added_gates,
            parallel.first_traversal_added_gates
        );
        prop_assert_eq!(parallel.traversals.len(), num_restarts * num_traversals);
        prop_assert!(in_restart_order(&parallel));
    }
}
