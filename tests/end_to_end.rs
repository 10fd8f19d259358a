//! End-to-end integration: benchmark registry → SABRE → verification.

use sabre::{SabreConfig, SabreRouter};
use sabre_benchgen::registry::{self, Category};
use sabre_topology::devices;
use sabre_verify::{verify_routed, verify_semantics_small};

/// Route every non-huge Table II benchmark with the paper configuration
/// and verify the output with the permutation replay.
#[test]
fn registry_benchmarks_route_and_verify() {
    let device = devices::ibm_q20_tokyo();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    for spec in registry::table2() {
        if spec.paper.g_ori > 1200 {
            continue; // the giant rows run in the quality gate and routebench, not tests
        }
        let circuit = spec.generate();
        let result = router.route(&circuit).unwrap();
        let routed = &result.best;
        verify_routed(
            &circuit,
            &routed.physical,
            routed.initial_layout.logical_to_physical(),
            routed.final_layout.logical_to_physical(),
            device.graph(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(routed.forced_routings, 0, "{}", spec.name);
        assert_eq!(
            routed.physical.num_gates(),
            circuit.num_gates() + routed.num_swaps,
            "{}",
            spec.name
        );
    }
}

/// The small benchmarks additionally pass full state-vector equivalence.
#[test]
fn small_benchmarks_are_semantically_preserved() {
    // A 5-qubit circuit on the 20-qubit Tokyo would need 2^20 amplitudes;
    // use the 5-qubit IBM QX2 device so simulation is instant while the
    // routing is still nontrivial (QX2 is sparse).
    let device = devices::ibm_qx2();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    for spec in registry::table2() {
        if spec.category != Category::Small {
            continue;
        }
        let circuit = spec.generate();
        let result = router.route(&circuit).unwrap();
        let routed = &result.best;
        verify_semantics_small(
            &circuit,
            &routed.physical,
            routed.initial_layout.logical_to_physical(),
            routed.final_layout.logical_to_physical(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
}

/// Ising chains get perfect mappings (paper §V-A1, Table II `g_op = 0`).
#[test]
fn ising_rows_reach_zero_added_gates() {
    let device = devices::ibm_q20_tokyo();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    for spec in registry::table2() {
        if spec.category != Category::Sim {
            continue;
        }
        let result = router.route(&spec.generate()).unwrap();
        assert_eq!(result.added_gates(), 0, "{}", spec.name);
    }
}

/// g_op ≤ g_la: the bidirectional pipeline never reports worse than its
/// best first traversal.
#[test]
fn reverse_traversal_only_improves_reported_results() {
    let device = devices::ibm_q20_tokyo();
    let router = SabreRouter::new(device.graph().clone(), SabreConfig::paper()).unwrap();
    for name in ["qft_10", "qft_13", "rd84_142"] {
        let spec = registry::by_name(name).unwrap();
        let result = router.route(&spec.generate()).unwrap();
        assert!(
            result.added_gates() <= result.first_traversal_added_gates,
            "{name}: g_op={} > g_la={}",
            result.added_gates(),
            result.first_traversal_added_gates
        );
    }
}

/// The same router instance works across devices of the zoo — the
/// flexibility objective (§III-B).
#[test]
fn flexibility_across_device_zoo() {
    let spec = registry::by_name("qft_10").unwrap();
    let circuit = spec.generate();
    for device in [
        devices::ibm_q20_tokyo(),
        devices::ibm_qx5(),
        devices::ibm_falcon_27(),
        devices::grid(4, 5),
        devices::ring(12),
        devices::linear(10),
        devices::star(11),
    ] {
        let router = SabreRouter::new(device.graph().clone(), SabreConfig::fast()).unwrap();
        let result = router.route(&circuit).unwrap();
        verify_routed(
            &circuit,
            &result.best.physical,
            result.best.initial_layout.logical_to_physical(),
            result.best.final_layout.logical_to_physical(),
            device.graph(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", device.name()));
    }
}
